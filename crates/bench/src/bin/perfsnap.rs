//! `perfsnap` — the repository's performance-trajectory snapshot.
//!
//! Runs the codec, plan and store throughput suites on deterministic
//! workloads and **appends** one JSON entry (git revision, wall clock,
//! writes/sec per scheme, kernel-vs-scalar speedups, and the persistent
//! result store's cold-vs-warm plan wall clocks) to `BENCH_codec.json`,
//! so every PR can diff its throughput against the recorded trajectory:
//!
//! ```text
//! cargo run --release --bin perfsnap                  # full snapshot
//! cargo run --release --bin perfsnap -- --quick       # CI smoke (tiny grid)
//! cargo run --release --bin perfsnap -- --out my.json # alternative file
//! cargo run --release --bin perfsnap -- --quick --check   # CI perf gate
//! ```
//!
//! For every coset-style scheme the snapshot measures both the production
//! bit-parallel kernel (`encode`) and the retained scalar oracle
//! (`encode_scalar`), recording the speedup — this is the number the
//! "≥2× on coset-heavy schemes" acceptance gate reads.
//!
//! `--check` turns the snapshot into an enforced regression gate: the codec
//! suite is measured best-of-3 and compared against the **last** entry in
//! the trajectory file (override with `--check-against <file>`); any codec
//! whose encode or decode throughput regresses by more than 15% fails the
//! run with a non-zero exit. The serve suite is gated the same way —
//! best-of-3 `requests_per_sec` (must not drop >15%) and best-of-3
//! `p99_batch_ms` (must not grow >15%) against the recorded serve row.
//! Nothing is appended in check mode.
//!
//! The store suite separates the three cache layers: per-cell warm hits
//! (plan cache off), and the plan-level hit where the whole grid is served
//! from one store read. The scale suite additionally spawns 1/2/4
//! `wlcrc-gridrun` worker processes on a shared cold store and records the
//! cold and warm wall clocks (skipped when the gridrun binary is not built
//! alongside this one). `--note "<text>"` attaches an annotation to the
//! appended entry — used to mark before/after pairs around a perf PR.

use std::time::Instant;
use wlcrc::schemes::standard_factories;
use wlcrc::{CocCosetCodec, WlcCosetCodec};
use wlcrc_coset::{
    DinCodec, FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
};
use wlcrc_memsim::{ExperimentPlan, SimulationOptions};
use wlcrc_obs::check::{parse_json, Json};
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::physical::PhysicalLine;
use wlcrc_serve::{ServeClient, Server, ServerConfig};
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scalar-oracle encode closure (`encode_scalar` of a concrete codec).
type ScalarEncode = Box<dyn Fn(&MemoryLine, &PhysicalLine, &EnergyModel) -> PhysicalLine>;

/// One codec measured by the snapshot.
struct Target {
    name: &'static str,
    codec: Box<dyn LineCodec>,
    scalar: Option<ScalarEncode>,
}

/// One measured codec-suite row (also the unit the `--check` gate compares).
struct CodecRow {
    name: String,
    encode_wps: f64,
    decode_rps: f64,
    scalar_wps: Option<f64>,
    speedup: Option<f64>,
}

fn targets() -> Vec<Target> {
    let g16 = Granularity::new(16);
    let mut out: Vec<Target> = Vec::new();
    // The paper's Figure 8 scheme set.
    for (id, factory) in standard_factories() {
        let scalar: Option<ScalarEncode> = match id.label() {
            "FlipMin" => {
                let c = FlipMinCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "FNW" => {
                let c = FnwCodec::paper_default();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "6cosets" => {
                let c = NCosetsCodec::six_cosets(Granularity::new(512));
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "DIN" => {
                let c = DinCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "COC+4cosets" => {
                let c = CocCosetCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "WLC+4cosets" => {
                let c = WlcCosetCodec::wlc_four_cosets(32);
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "WLCRC-16" => {
                let c = WlcCosetCodec::wlcrc16();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            _ => None,
        };
        out.push(Target { name: id.label(), codec: factory(), scalar });
    }
    // The coset-heavy schemes the tentpole targets, not part of the Figure 8
    // registry but central to figures 1-5.
    let three = NCosetsCodec::three_cosets(g16);
    let three_scalar = NCosetsCodec::three_cosets(g16);
    out.push(Target {
        name: "3cosets-16",
        codec: Box::new(three),
        scalar: Some(Box::new(move |d, o, e| three_scalar.encode_scalar(d, o, e))),
    });
    let restricted = RestrictedCosetCodec::new(g16);
    let restricted_scalar = RestrictedCosetCodec::new(g16);
    out.push(Target {
        name: "3-r-cosets-16",
        codec: Box::new(restricted),
        scalar: Some(Box::new(move |d, o, e| restricted_scalar.encode_scalar(d, o, e))),
    });
    out
}

/// A deterministic mix of biased, compressible and random lines — shared
/// with `benches/codec_throughput.rs` so the interactive bench and the
/// recorded trajectory measure the same workload.
fn workload_lines(count: usize, seed: u64) -> Vec<MemoryLine> {
    wlcrc_bench::workloads::mixed_lines(count, seed)
}

/// Lines whose words all pass the WLC test for `k = 6` (sign-extended small
/// values): the favourable content of the paper's WLC-integrated schemes,
/// where every write takes the coset-encoded path.
fn wlc_compressible_lines(count: usize, seed: u64) -> Vec<MemoryLine> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut words = [0u64; 8];
            for w in &mut words {
                let magnitude: u64 = rng.gen::<u64>() & ((1u64 << 58) - 1);
                *w = if rng.gen::<bool>() { magnitude } else { (-(magnitude as i64)) as u64 };
            }
            MemoryLine::from_words(words)
        })
        .collect()
}

/// Times `iters` chained encodes (each write's `old` is the previous result)
/// and returns writes per second.
fn measure_encode<F>(
    lines: &[MemoryLine],
    initial: PhysicalLine,
    iters: usize,
    mut encode: F,
) -> f64
where
    F: FnMut(&MemoryLine, &PhysicalLine) -> PhysicalLine,
{
    let mut old = initial;
    // Warm-up pass over the workload.
    for line in lines.iter().take(iters.min(lines.len())) {
        old = encode(line, &old);
    }
    let start = Instant::now();
    for i in 0..iters {
        old = encode(&lines[i % lines.len()], &old);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&old);
    iters as f64 / secs
}

/// Each line of `lines` encoded over the encoding of its predecessor.
fn chained_encodes(
    codec: &dyn LineCodec,
    lines: &[MemoryLine],
    energy: &EnergyModel,
) -> Vec<PhysicalLine> {
    let mut old = codec.initial_line();
    lines
        .iter()
        .map(|l| {
            old = codec.encode(l, &old, energy);
            old.clone()
        })
        .collect()
}

/// Times `iters` decodes over pre-encoded content, returning reads/sec.
fn measure_decode(codec: &dyn LineCodec, stored: &[PhysicalLine], iters: usize) -> f64 {
    for line in stored.iter().take(iters.min(stored.len())) {
        std::hint::black_box(codec.decode(line));
    }
    let start = Instant::now();
    for i in 0..iters {
        std::hint::black_box(codec.decode(&stored[i % stored.len()]));
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// One serve-suite round: an in-process `wlcrc-serve` on an ephemeral
/// loopback port receives `batches` fixed-size write batches over TCP.
/// Returns (requests/sec, writes/sec, p99 batch latency in ms).
fn measure_serve(batches: usize, batch_size: usize, seed: u64) -> (f64, f64, f64) {
    let running = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() })
        .serve_tcp("127.0.0.1:0")
        .expect("perfsnap: serve suite could not bind a loopback port");
    let addr = running.local_addr().expect("tcp server has an address");
    let mut client = ServeClient::connect(addr).expect("perfsnap: connect to in-process server");
    let serve_profile = Benchmark::Gcc.profile();
    let session = client
        .open(
            "WLCRC-16",
            &serve_profile.name,
            PcmConfig::table_ii(),
            SimulationOptions { seed, ..SimulationOptions::default() },
        )
        .expect("perfsnap: open serve session");
    let serve_records: Vec<WriteRecord> =
        TraceStream::new(serve_profile, seed, batches * batch_size).collect();
    let mut batch_ms = Vec::with_capacity(batches);
    let serve_start = Instant::now();
    for chunk in serve_records.chunks(batch_size) {
        let submit = Instant::now();
        client.write_all(session, chunk).expect("perfsnap: serve write batch");
        batch_ms.push(submit.elapsed().as_secs_f64() * 1e3);
    }
    client.flush(session).expect("perfsnap: serve flush");
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let (serve_stats, _) = client.close(session).expect("perfsnap: serve close");
    assert_eq!(
        serve_stats.writes,
        serve_records.len() as u64,
        "the service must simulate every submitted write"
    );
    client.shutdown().expect("perfsnap: serve shutdown");
    running.join();
    batch_ms.sort_by(f64::total_cmp);
    let p99_batch_ms = batch_ms[(batch_ms.len() * 99).div_ceil(100).saturating_sub(1)];
    (batches as f64 / serve_secs, serve_records.len() as f64 / serve_secs, p99_batch_ms)
}

/// The `wlcrc-gridrun` binary built alongside this one, when present.
fn gridrun_binary() -> Option<std::path::PathBuf> {
    let path = std::env::current_exe().ok()?.with_file_name("wlcrc-gridrun");
    path.exists().then_some(path)
}

/// Spawns `processes` concurrent gridrun workers on `store` and returns the
/// wall clock (ms) until the last one exits with the full merged grid.
fn run_gridrun_fleet(
    binary: &std::path::Path,
    store: &std::path::Path,
    processes: usize,
    plan_lines: usize,
    seed: u64,
) -> f64 {
    let start = Instant::now();
    let children: Vec<std::process::Child> = (0..processes)
        .map(|_| {
            std::process::Command::new(binary)
                .args(["--plan", "perfsnap", "--lines", &plan_lines.to_string()])
                .args(["--seed", &seed.to_string(), "--threads", "1"])
                .arg("--store")
                .arg(store)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("perfsnap: spawn wlcrc-gridrun worker")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("perfsnap: wait for gridrun worker");
        assert!(status.success(), "gridrun worker failed with {status}");
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn git_describe() -> (String, bool) {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = run(&["status", "--porcelain"]).map(|s| !s.is_empty()).unwrap_or(false);
    (rev, dirty)
}

/// Appends `entry` (a JSON object) to the JSON array in `path`, creating the
/// file when missing. The trajectory file stays a plain array so future PRs
/// can diff entries without a parser.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim_end();
    let content = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(body) = trimmed.strip_suffix(']') {
        let body = body.trim_end().trim_end_matches(',');
        if body.trim() == "[" {
            // An empty array (possibly pretty-printed): start fresh.
            format!("[\n{entry}\n]\n")
        } else {
            format!("{body},\n{entry}\n]\n")
        }
    } else {
        // Not an array: refuse to clobber it, write alongside instead.
        return std::fs::write(format!("{path}.new"), format!("[\n{entry}\n]\n"));
    };
    std::fs::write(path, content)
}

/// Runs the full codec suite (mixed corpus plus the WLC-compressible corpus)
/// once and returns the rows in a deterministic order.
fn measure_codec_suite(
    lines: &[MemoryLine],
    wlc_lines: &[MemoryLine],
    energy: &EnergyModel,
    iters: usize,
    print: bool,
) -> Vec<CodecRow> {
    let mut rows = Vec::new();
    for target in targets() {
        let codec = target.codec.as_ref();
        let encode_wps =
            measure_encode(lines, codec.initial_line(), iters, |d, o| codec.encode(d, o, energy));
        let stored = chained_encodes(codec, lines, energy);
        let decode_rps = measure_decode(codec, &stored, iters);
        let scalar_wps = target.scalar.as_ref().map(|scalar| {
            measure_encode(lines, codec.initial_line(), iters, |d, o| scalar(d, o, energy))
        });
        let speedup = scalar_wps.map(|s| encode_wps / s);
        if print {
            match (scalar_wps, speedup) {
                (Some(s), Some(x)) => println!(
                    "  {:<14} encode {:>12.0} w/s   decode {:>12.0} r/s   scalar {:>12.0} w/s   kernel speedup {x:.2}x",
                    target.name, encode_wps, decode_rps, s
                ),
                _ => println!(
                    "  {:<14} encode {:>12.0} w/s   decode {:>12.0} r/s",
                    target.name, encode_wps, decode_rps
                ),
            }
        }
        rows.push(CodecRow {
            name: target.name.to_string(),
            encode_wps,
            decode_rps,
            scalar_wps,
            speedup,
        });
    }

    // The WLC-integrated schemes take their encoded path only on
    // WLC-compressible content; the mixed corpus above dilutes them with
    // raw-format writes, so they are additionally measured on the paper's
    // favourable content (every line compressible, suffix "@wlc").
    if print {
        println!("perfsnap: WLC-compressible corpus ({iters} writes per scheme)");
    }
    let wlc_targets: Vec<(&'static str, Box<dyn LineCodec>, ScalarEncode)> = vec![
        ("WLCRC-16@wlc", Box::new(WlcCosetCodec::wlcrc16()), {
            let c = WlcCosetCodec::wlcrc16();
            Box::new(move |d: &MemoryLine, o: &PhysicalLine, e: &EnergyModel| {
                c.encode_scalar(d, o, e)
            })
        }),
        ("WLC+4cosets@wlc", Box::new(WlcCosetCodec::wlc_four_cosets(32)), {
            let c = WlcCosetCodec::wlc_four_cosets(32);
            Box::new(move |d: &MemoryLine, o: &PhysicalLine, e: &EnergyModel| {
                c.encode_scalar(d, o, e)
            })
        }),
    ];
    for (name, codec, scalar) in &wlc_targets {
        let codec = codec.as_ref();
        let encode_wps = measure_encode(wlc_lines, codec.initial_line(), iters, |d, o| {
            codec.encode(d, o, energy)
        });
        let stored = chained_encodes(codec, wlc_lines, energy);
        let decode_rps = measure_decode(codec, &stored, iters);
        let scalar_wps =
            measure_encode(wlc_lines, codec.initial_line(), iters, |d, o| scalar(d, o, energy));
        let speedup = encode_wps / scalar_wps;
        if print {
            println!(
                "  {name:<14} encode {encode_wps:>12.0} w/s   decode {decode_rps:>12.0} r/s   scalar {scalar_wps:>12.0} w/s   kernel speedup {speedup:.2}x"
            );
        }
        rows.push(CodecRow {
            name: name.to_string(),
            encode_wps,
            decode_rps,
            scalar_wps: Some(scalar_wps),
            speedup: Some(speedup),
        });
    }
    rows
}

/// A baseline codec row parsed from the trajectory file.
struct BaselineRow {
    name: String,
    encode_wps: f64,
    decode_rps: Option<f64>,
}

/// The **last** entry of the trajectory file (the JSON array
/// `append_entry` maintains), or `Json::Null` when the file is missing or
/// does not parse.
fn last_entry(path: &str) -> Json {
    let parsed = std::fs::read_to_string(path).ok().and_then(|text| parse_json(&text).ok());
    match parsed {
        Some(Json::Arr(mut entries)) => entries.pop().unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

/// The codec rows of a trajectory entry that record an encode throughput.
fn entry_codecs(entry: &Json) -> Option<Vec<BaselineRow>> {
    let Some(Json::Arr(rows)) = entry.get("codecs") else { return None };
    let rows: Vec<BaselineRow> = rows
        .iter()
        .filter_map(|row| {
            Some(BaselineRow {
                name: row.get("name")?.as_str()?.to_string(),
                encode_wps: row.get("encode_writes_per_sec")?.as_f64()?,
                decode_rps: row.get("decode_reads_per_sec").and_then(Json::as_f64),
            })
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Fractional regression that fails the `--check` gate (15%).
const CHECK_REGRESSION_LIMIT: f64 = 0.15;

/// The serve row of a trajectory entry: (requests/sec, p99 batch latency
/// ms).
fn entry_serve(entry: &Json) -> Option<(f64, f64)> {
    let serve = entry.get("serve")?;
    Some((serve.get("requests_per_sec")?.as_f64()?, serve.get("p99_batch_ms")?.as_f64()?))
}

/// The `--check` perf gate: measures the codec suite best-of-3 and compares
/// every codec's encode/decode throughput against the last trajectory entry.
/// Returns `false` when any codec regressed by more than
/// [`CHECK_REGRESSION_LIMIT`] or a baseline codec is missing from this build.
fn run_check(
    baseline_path: &str,
    lines: &[MemoryLine],
    wlc_lines: &[MemoryLine],
    energy: &EnergyModel,
    iters: usize,
    serve_batches: usize,
    seed: u64,
) -> bool {
    let entry = last_entry(baseline_path);
    let Some(baseline) = entry_codecs(&entry) else {
        eprintln!("perfsnap --check: no codec rows found in {baseline_path}");
        return false;
    };
    println!(
        "perfsnap: --check gate — best of 3 rounds ({iters} writes per scheme) vs last entry in {baseline_path}"
    );
    let mut best = measure_codec_suite(lines, wlc_lines, energy, iters, false);
    for _ in 1..3 {
        let round = measure_codec_suite(lines, wlc_lines, energy, iters, false);
        for (b, r) in best.iter_mut().zip(round) {
            b.encode_wps = b.encode_wps.max(r.encode_wps);
            b.decode_rps = b.decode_rps.max(r.decode_rps);
        }
    }
    let verdict = |name: &str, metric: &str, current: f64, recorded: f64| -> bool {
        let delta = current / recorded - 1.0;
        let fail = delta < -CHECK_REGRESSION_LIMIT;
        println!(
            "  {name:<16} {metric} {current:>12.0} vs {recorded:>12.0} recorded  {:>+7.1}%  {}",
            delta * 100.0,
            if fail { "FAIL" } else { "ok" }
        );
        !fail
    };
    let mut ok = true;
    for base in &baseline {
        let Some(current) = best.iter().find(|r| r.name == base.name) else {
            println!("  {:<16} missing from this build  FAIL", base.name);
            ok = false;
            continue;
        };
        ok &= verdict(&base.name, "encode", current.encode_wps, base.encode_wps);
        if let Some(dec) = base.decode_rps {
            ok &= verdict(&base.name, "decode", current.decode_rps, dec);
        }
    }
    // Serve gate: best-of-3 requests/sec (higher is better) and p99 batch
    // latency (lower is better) against the recorded serve row. Older
    // trajectory files without a serve row simply skip the gate.
    if let Some((base_rps, base_p99)) = entry_serve(&entry) {
        let mut best_rps = 0.0f64;
        let mut best_p99 = f64::INFINITY;
        for _ in 0..3 {
            let (rps, _, p99) = measure_serve(serve_batches, 64, seed);
            best_rps = best_rps.max(rps);
            best_p99 = best_p99.min(p99);
        }
        ok &= verdict("serve", "req/s ", best_rps, base_rps);
        let p99_delta = best_p99 / base_p99 - 1.0;
        let p99_fail = p99_delta > CHECK_REGRESSION_LIMIT;
        println!(
            "  {:<16} p99 ms {best_p99:>12.3} vs {base_p99:>12.3} recorded  {:>+7.1}%  {}",
            "serve",
            p99_delta * 100.0,
            if p99_fail { "FAIL" } else { "ok" }
        );
        ok &= !p99_fail;
    } else {
        println!("  serve row missing from {baseline_path}: serve gate skipped");
    }
    if ok {
        println!(
            "perfsnap --check: all codecs within {:.0}% of the recorded trajectory",
            CHECK_REGRESSION_LIMIT * 100.0
        );
    } else {
        eprintln!(
            "perfsnap --check: throughput regressed more than {:.0}% against {baseline_path}",
            CHECK_REGRESSION_LIMIT * 100.0
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_codec.json".to_string());
    let note = flag("--note");
    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let default_iters = if quick { 300 } else { 4000 };
    let iters: usize = flag("--iters").and_then(|v| v.parse().ok()).unwrap_or(default_iters);
    let plan_lines: usize =
        flag("--lines").and_then(|v| v.parse().ok()).unwrap_or(if quick { 40 } else { 400 });

    let energy = EnergyModel::paper_default();
    let lines = workload_lines(256, seed);
    let wlc_lines = wlc_compressible_lines(256, seed.wrapping_add(1));

    if check {
        let baseline_path = flag("--check-against").unwrap_or_else(|| out_path.clone());
        let serve_batches = if quick { 50 } else { 400 };
        let ok = run_check(&baseline_path, &lines, &wlc_lines, &energy, iters, serve_batches, seed);
        std::process::exit(if ok { 0 } else { 1 });
    }

    println!("perfsnap: codec suite ({iters} writes per scheme)");
    let codec_rows = measure_codec_suite(&lines, &wlc_lines, &energy, iters, true);

    // Plan suite: the full scheme registry over two workloads.
    println!("perfsnap: plan suite ({plan_lines} lines x 2 workloads x 8 schemes)");
    let build_plan = || {
        // Explicitly store-less: the baseline numbers must not depend on a
        // WLCRC_STORE environment variable leaking into the snapshot.
        let mut plan = ExperimentPlan::new()
            .seed(seed)
            .lines_per_workload(plan_lines)
            .workload(Benchmark::Gcc.profile())
            .workload(Benchmark::Lbm.profile())
            .store_enabled(false);
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        plan
    };
    let streamed_start = Instant::now();
    let streamed = build_plan().run();
    let streamed_ms = streamed_start.elapsed().as_secs_f64() * 1e3;
    let grid_writes: u64 = streamed.cells.iter().map(|s| s.writes).sum();
    let stream_wps = grid_writes as f64 / (streamed_ms / 1e3);
    println!("  plan {streamed_ms:.0} ms ({stream_wps:.0} w/s)");

    // Store suite: the same grid with the persistent result store disabled
    // (the streamed number above), cold (every cell misses and is written
    // back), warm per-cell (every cell is served from disk, plan cache off)
    // and the plan-level hit (the whole grid served from one store read).
    // All four runs must be byte-identical — the store may only ever change
    // wall clock.
    println!("perfsnap: store suite (disabled / cold miss / per-cell warm / plan-level hit)");
    let store_dir =
        std::env::temp_dir().join(format!("wlcrc-perfsnap-store-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cold_start = Instant::now();
    let cold = build_plan().store(&store_dir).plan_cache(false).run();
    let store_cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let warm_start = Instant::now();
    let warm = build_plan().store(&store_dir).plan_cache(false).run();
    let store_warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    // Adoption run: per-cell hits rebuild the whole-config plan entry …
    let adopted = build_plan().store(&store_dir).run();
    // … which the timed plan-hit run is then served from in one read.
    let plan_hit_start = Instant::now();
    let plan_hit = build_plan().store(&store_dir).run();
    let store_plan_hit_ms = plan_hit_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(streamed, cold, "cold store run must be byte-identical to the store-less run");
    assert_eq!(streamed, warm, "warm store run must be byte-identical to the store-less run");
    assert_eq!(streamed, adopted, "plan-adoption run must be byte-identical to the store-less run");
    assert_eq!(streamed, plan_hit, "plan-level hit must be byte-identical to the store-less run");
    let _ = std::fs::remove_dir_all(&store_dir);
    let warm_speedup = streamed_ms / store_warm_ms;
    let plan_hit_speedup = streamed_ms / store_plan_hit_ms;
    println!(
        "  disabled {streamed_ms:.0} ms   cold {store_cold_ms:.0} ms   warm {store_warm_ms:.0} ms ({warm_speedup:.1}x)   plan hit {store_plan_hit_ms:.2} ms ({plan_hit_speedup:.1}x)"
    );

    // Scale suite: 1/2/4 concurrent gridrun worker processes claiming cells
    // of the same plan through a shared cold store, then rerun warm (the
    // fully warm rerun is one plan-level read per worker). Skipped when the
    // gridrun binary is not built next to this one.
    let mut scale_rows: Vec<(usize, f64, f64)> = Vec::new();
    match gridrun_binary() {
        Some(binary) => {
            println!("perfsnap: scale suite (wlcrc-gridrun x 1/2/4 processes, shared store)");
            for processes in [1usize, 2, 4] {
                let scale_dir = std::env::temp_dir().join(format!(
                    "wlcrc-perfsnap-scale-{}-{seed}-{processes}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&scale_dir);
                let cold_ms = run_gridrun_fleet(&binary, &scale_dir, processes, plan_lines, seed);
                let warm_ms = run_gridrun_fleet(&binary, &scale_dir, processes, plan_lines, seed);
                let _ = std::fs::remove_dir_all(&scale_dir);
                println!("  {processes} proc   cold {cold_ms:.0} ms   warm {warm_ms:.1} ms");
                scale_rows.push((processes, cold_ms, warm_ms));
            }
        }
        None => println!("perfsnap: scale suite skipped (wlcrc-gridrun not built)"),
    }

    // Serve suite: the same simulator behind the wire protocol. An
    // in-process `wlcrc-serve` on an ephemeral port receives fixed-size
    // write batches over TCP; requests/sec and the p99 batch latency track
    // the framing + queueing overhead of the service path.
    let serve_batches: usize = if quick { 50 } else { 400 };
    let serve_batch_size: usize = 64;
    println!("perfsnap: serve suite ({serve_batches} batches x {serve_batch_size} writes)");
    let (serve_rps, serve_wps, p99_batch_ms) = measure_serve(serve_batches, serve_batch_size, seed);
    println!("  {serve_rps:.0} req/s   {serve_wps:.0} w/s   p99 batch {p99_batch_ms:.2} ms");

    let (git_rev, dirty) = git_describe();
    let timestamp =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_secs());
    let mut entry = String::new();
    entry.push_str("  {\n");
    entry.push_str(&format!(
        "    \"git_rev\": \"{git_rev}{}\",\n",
        if dirty { "+dirty" } else { "" }
    ));
    entry.push_str(&format!("    \"timestamp_unix\": {},\n", timestamp.unwrap_or(0)));
    entry.push_str(&format!(
        "    \"config\": {{\"iters\": {iters}, \"plan_lines\": {plan_lines}, \"seed\": {seed}, \"quick\": {quick}}},\n"
    ));
    entry.push_str("    \"codecs\": [\n");
    for (i, row) in codec_rows.iter().enumerate() {
        let mut line = format!(
            "      {{\"name\": \"{}\", \"encode_writes_per_sec\": {:.0}, \"decode_reads_per_sec\": {:.0}",
            row.name, row.encode_wps, row.decode_rps
        );
        if let (Some(s), Some(x)) = (row.scalar_wps, row.speedup) {
            line.push_str(&format!(
                ", \"scalar_encode_writes_per_sec\": {s:.0}, \"kernel_speedup\": {x:.2}"
            ));
        }
        line.push('}');
        if i + 1 < codec_rows.len() {
            line.push(',');
        }
        entry.push_str(&line);
        entry.push('\n');
    }
    entry.push_str("    ],\n");
    entry.push_str(&format!(
        "    \"plan\": {{\"schemes\": 8, \"workloads\": 2, \"lines\": {plan_lines}, \"writes\": {grid_writes}, \"streamed_wall_ms\": {streamed_ms:.1}, \"streamed_writes_per_sec\": {stream_wps:.0}}},\n"
    ));
    entry.push_str(&format!(
        "    \"store\": {{\"disabled_wall_ms\": {streamed_ms:.1}, \"cold_wall_ms\": {store_cold_ms:.1}, \"warm_wall_ms\": {store_warm_ms:.1}, \"warm_speedup\": {warm_speedup:.1}, \"plan_hit_wall_ms\": {store_plan_hit_ms:.2}, \"plan_hit_speedup\": {plan_hit_speedup:.1}}},\n"
    ));
    if !scale_rows.is_empty() {
        entry.push_str("    \"scale\": [\n");
        for (i, (processes, cold_ms, warm_ms)) in scale_rows.iter().enumerate() {
            entry.push_str(&format!(
                "      {{\"processes\": {processes}, \"cold_wall_ms\": {cold_ms:.1}, \"warm_wall_ms\": {warm_ms:.1}}}{}\n",
                if i + 1 < scale_rows.len() { "," } else { "" }
            ));
        }
        entry.push_str("    ],\n");
    }
    entry.push_str(&format!(
        "    \"serve\": {{\"batches\": {serve_batches}, \"batch_size\": {serve_batch_size}, \"requests_per_sec\": {serve_rps:.0}, \"writes_per_sec\": {serve_wps:.0}, \"p99_batch_ms\": {p99_batch_ms:.3}}}{}\n",
        if note.is_some() { "," } else { "" }
    ));
    if let Some(note) = &note {
        entry.push_str(&format!("    \"note\": \"{}\"\n", note.replace('"', "'")));
    }
    entry.push_str("  }");

    match append_entry(&out_path, &entry) {
        Ok(()) => println!("perfsnap: appended snapshot to {out_path}"),
        Err(err) => {
            eprintln!("perfsnap: could not write {out_path}: {err}");
            std::process::exit(1);
        }
    }
}
