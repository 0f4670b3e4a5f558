//! Criterion bench: encode/decode throughput of every scheme in the paper's
//! comparison (Figure 8 set) plus the coset-heavy 3cosets/3-r-cosets
//! configurations.
//!
//! Writes are *chained* over a deterministic 256-line mixed corpus (biased,
//! compressible and random content): each encode sees the previous write's
//! output as the stored line, like the trace simulator does. A hot loop over
//! one fixed line would let the scalar path's data-dependent branches predict
//! perfectly and underestimate real workloads.
//!
//! For the schemes whose encoder runs on the bit-parallel kernel, an
//! `encode-scalar` row drives the retained scalar reference path
//! (`encode_scalar`) so the kernel speedup is visible directly in the bench
//! output; `cargo run --release --bin perfsnap` records the same comparison
//! into `BENCH_codec.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wlcrc::schemes::standard_schemes;
use wlcrc::WlcCosetCodec;
use wlcrc_bench::workloads::mixed_lines;
use wlcrc_coset::{FlipMinCodec, Granularity, NCosetsCodec, RestrictedCosetCodec};
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::physical::PhysicalLine;

type ScalarEncode = Box<dyn Fn(&MemoryLine, &PhysicalLine, &EnergyModel) -> PhysicalLine>;

fn corpus() -> Vec<MemoryLine> {
    mixed_lines(256, 42)
}

fn codec_throughput(c: &mut Criterion) {
    let energy = EnergyModel::paper_default();
    let lines = corpus();
    let mut group = c.benchmark_group("codec_throughput");
    let mut targets: Vec<(String, Box<dyn LineCodec>, Option<ScalarEncode>)> = Vec::new();
    for (id, codec) in standard_schemes() {
        targets.push((id.label().to_string(), codec, None));
    }
    // The coset-heavy schemes of figures 1-5, with their scalar oracles, and
    // WLCRC's oracle for completeness.
    let g16 = Granularity::new(16);
    let three = NCosetsCodec::three_cosets(g16);
    targets.push((
        "3cosets-16".into(),
        Box::new(NCosetsCodec::three_cosets(g16)),
        Some(Box::new(move |d, o, e| three.encode_scalar(d, o, e))),
    ));
    let restricted = RestrictedCosetCodec::new(g16);
    targets.push((
        "3-r-cosets-16".into(),
        Box::new(RestrictedCosetCodec::new(g16)),
        Some(Box::new(move |d, o, e| restricted.encode_scalar(d, o, e))),
    ));
    let flipmin = FlipMinCodec::new();
    targets.push((
        "FlipMin+oracle".into(),
        Box::new(FlipMinCodec::new()),
        Some(Box::new(move |d, o, e| flipmin.encode_scalar(d, o, e))),
    ));
    let wlcrc = WlcCosetCodec::wlcrc16();
    targets.push((
        "WLCRC-16+oracle".into(),
        Box::new(WlcCosetCodec::wlcrc16()),
        Some(Box::new(move |d, o, e| wlcrc.encode_scalar(d, o, e))),
    ));
    for (label, codec, scalar) in &targets {
        if !label.ends_with("+oracle") {
            group.bench_with_input(BenchmarkId::new("encode", label), &lines, |b, lines| {
                let mut old = codec.initial_line();
                let mut i = 0usize;
                b.iter(|| {
                    old =
                        codec.encode(std::hint::black_box(&lines[i % lines.len()]), &old, &energy);
                    i += 1;
                });
            });
            let stored: Vec<PhysicalLine> = {
                let mut old = codec.initial_line();
                lines
                    .iter()
                    .map(|l| {
                        old = codec.encode(l, &old, &energy);
                        old.clone()
                    })
                    .collect()
            };
            group.bench_with_input(BenchmarkId::new("decode", label), &stored, |b, stored| {
                let mut i = 0usize;
                b.iter(|| {
                    let out = codec.decode(std::hint::black_box(&stored[i % stored.len()]));
                    i += 1;
                    out
                });
            });
        }
        if let Some(scalar) = scalar {
            group.bench_with_input(BenchmarkId::new("encode-scalar", label), &lines, |b, lines| {
                let mut old = codec.initial_line();
                let mut i = 0usize;
                b.iter(|| {
                    old = scalar(std::hint::black_box(&lines[i % lines.len()]), &old, &energy);
                    i += 1;
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, codec_throughput);
criterion_main!(benches);
