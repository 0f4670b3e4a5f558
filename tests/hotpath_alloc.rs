//! Allocation regression test for the write hot path.
//!
//! The bit-parallel encoders keep every piece of per-write scratch (plane
//! views, transition tables, candidate costs, choice masks, packed auxiliary
//! bits, DIN's FPC/BDI streams and COC+4cosets' repacked payload) in
//! fixed-size stack storage, a `PhysicalLine` is its bit planes, a stack
//! value that owns no heap memory, and DIN shares one set of BCH tables per
//! process. So a steady-state `encode()` of every codec allocates nothing; a
//! first touch over a fresh `initial_line()` allocates nothing; a second
//! `DinCodec::new()` allocates nothing; and the accounting after a write
//! (differential write, disturbance sampling), the raw-line decodes and the
//! decodes of every line format of DIN and the compression-gated codecs
//! allocate nothing. This test counts allocations through a wrapping global
//! allocator and pins exactly that.
//!
//! The counter is per thread: the harness runs tests, and allocates for its
//! own bookkeeping, on other threads, and none of that may leak into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised, so
    /// reading it never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter update has
// no safety implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the current thread makes while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// The workload shared by the measuring tests below.
fn workload() -> Vec<wlcrc_repro::pcm::line::MemoryLine> {
    use wlcrc_repro::pcm::line::MemoryLine;
    (0..16)
        .map(|i| {
            let mut words = [0u64; 8];
            for (w, slot) in words.iter_mut().enumerate() {
                *slot = match (i + w) % 4 {
                    0 => 0,
                    1 => (i as u64 * 0x1234 + w as u64) & 0xFFFF,
                    2 => (-(((i * 31 + w) as i64) % 50_000)) as u64,
                    _ => u64::MAX,
                };
            }
            MemoryLine::from_words(words)
        })
        .collect()
}

#[test]
fn encode_allocates_only_the_returned_line() {
    use wlcrc_repro::coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::schemes::standard_schemes;

    let energy = EnergyModel::paper_default();
    // Mixed content: WLC- and FPC-compressible words so WLCRC, DIN and
    // COC+4cosets take their encoded paths, and varied values so candidate
    // searches do real work; then lines the compression-gated codecs store
    // raw.
    let mut lines = workload();
    lines.extend(random_lines(8, 4));

    // Every standard scheme, plus the sub-word n-cosets and restricted
    // codecs the figures sweep.
    let mut codecs: Vec<Box<dyn LineCodec>> =
        standard_schemes().into_iter().map(|(_, codec)| codec).collect();
    codecs.push(Box::new(NCosetsCodec::three_cosets(Granularity::new(16))));
    codecs.push(Box::new(NCosetsCodec::six_cosets(Granularity::new(8))));
    codecs.push(Box::new(RestrictedCosetCodec::new(Granularity::new(16))));

    for codec in &codecs {
        let name = codec.name();
        // The simulator's lanes encode through the codec's prepared encoder.
        let encoder = codec.encoder(&energy);
        // Warm up: first writes may lazily initialise internals.
        let mut old = codec.initial_line();
        for line in &lines {
            old = codec.encode(line, &old, &energy);
            let _ = encoder.encode(line, &old);
        }
        // Steady state: no encode allocates, through `encode` or through the
        // encoder, and neither does a first touch over a fresh
        // `initial_line()`. (Dropping a line is a deallocation and is not
        // counted.)
        for line in &lines {
            let (allocs, _) = allocations_during(|| encoder.encode(line, &codec.initial_line()));
            assert_eq!(allocs, 0, "{name}: first touch through the encoder");
            let (allocs, _) =
                allocations_during(|| codec.encode(line, &codec.initial_line(), &energy));
            assert_eq!(allocs, 0, "{name}: first touch through encode");
            let (allocs, _) = allocations_during(|| encoder.encode(line, &old));
            assert_eq!(allocs, 0, "{name}: chained encode through the encoder");
            let (allocs, new) = allocations_during(|| codec.encode(line, &old, &energy));
            assert_eq!(allocs, 0, "{name}: chained encode");
            old = new;
        }
    }
}

/// DIN's BCH code and tables are built by the process's first
/// `DinCodec::new()` and shared: a later call, and cloning a codec, build
/// and allocate nothing.
#[test]
fn din_construction_allocates_nothing_after_the_first() {
    use wlcrc_repro::coset::DinCodec;

    let first = DinCodec::new();
    let (allocs, _) = allocations_during(DinCodec::new);
    assert_eq!(allocs, 0, "a second DinCodec::new() allocated {allocs} times");
    let (allocs, _) = allocations_during(|| first.clone());
    assert_eq!(allocs, 0, "cloning a DinCodec allocated {allocs} times");
}

#[test]
fn batched_encode_allocates_only_the_returned_lines() {
    use wlcrc_repro::coset::{FlipMinCodec, FnwCodec, Granularity, NCosetsCodec};
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::{EnergyModel, PhysicalLine};

    let energy = EnergyModel::paper_default();
    let lines = workload();
    let codecs: Vec<(Box<dyn LineCodec>, &str)> = vec![
        (Box::new(NCosetsCodec::three_cosets(Granularity::new(16))), "3cosets-16"),
        (Box::new(FnwCodec::paper_default()), "FNW"),
        (Box::new(FlipMinCodec::new()), "FlipMin"),
    ];
    for (codec, name) in &codecs {
        // Build a pool of independent jobs: each line written over the
        // chained encoding of its predecessor.
        let olds: Vec<PhysicalLine> = {
            let mut old = codec.initial_line();
            lines
                .iter()
                .map(|l| {
                    old = codec.encode(l, &old, &energy);
                    old.clone()
                })
                .collect()
        };
        let jobs: Vec<(&MemoryLine, &PhysicalLine)> =
            (0..64).map(|i| (&lines[(i + 1) % lines.len()], &olds[i % olds.len()])).collect();
        // A batch of records drained through one prepared encoder, as a
        // served session does. Building the encoder is the only per-batch
        // setup; after it, a batch of N lines collected into a Vec allocates
        // exactly once — the Vec. Transition tables live in the encoder, and
        // plane views, candidate search state and the returned lines on the
        // stack, so a longer batch adds nothing per line.
        let encoder = codec.encoder(&energy);
        let encode_all = |batch: &[(&MemoryLine, &PhysicalLine)]| -> Vec<PhysicalLine> {
            batch.iter().map(|(data, old)| encoder.encode(data, old)).collect()
        };
        let _ = encode_all(&jobs);
        for n in [1usize, 8, 64] {
            let (allocs, out) = allocations_during(|| encode_all(&jobs[..n]));
            assert_eq!(out.len(), n);
            for ((data, old), new) in jobs[..n].iter().zip(&out) {
                assert_eq!(*new, codec.encode(data, old, &energy), "{name}: batch output");
            }
            assert_eq!(allocs, 1, "{name}: batch of {n} must allocate only the Vec");
        }
    }
}

#[test]
fn decode_stays_allocation_lean() {
    use wlcrc_repro::coset::{DinCodec, Granularity, NCosetsCodec, RestrictedCosetCodec};
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::{CocCosetCodec, WlcCosetCodec};

    let energy = EnergyModel::paper_default();
    let data = MemoryLine::from_words([0x0123_4567_89AB_CDEF; 8]);
    for codec in [
        Box::new(NCosetsCodec::three_cosets(Granularity::new(16))) as Box<dyn LineCodec>,
        Box::new(RestrictedCosetCodec::new(Granularity::new(16))),
    ] {
        let stored = codec.encode(&data, &codec.initial_line(), &energy);
        let _ = codec.decode(&stored); // warm up
        let (allocs, decoded) = allocations_during(|| codec.decode(&stored));
        assert_eq!(decoded, data);
        assert_eq!(allocs, 0, "decode of {} allocated {allocs} times", codec.name());
    }

    // Every line format of the compression-gated codecs, told apart by the
    // flag cell: DIN's FPC- and BDI-compressed lines and its raw fallback,
    // COC+4cosets' 16- and 32-bit-block formats and raw fallback, and WLC's
    // compressed format and raw fallback.
    let mut lines = workload();
    lines.extend(pointer_lines());
    lines.extend(coarse_coc_lines());
    lines.extend(random_lines(9, 4));
    let codecs: Vec<(Box<dyn LineCodec>, usize)> = vec![
        (Box::new(DinCodec::new()), 2),
        (Box::new(CocCosetCodec::new()), 3),
        (Box::new(WlcCosetCodec::wlcrc16()), 2),
        (Box::new(WlcCosetCodec::wlc_four_cosets(32)), 2),
    ];
    for (codec, format_count) in &codecs {
        let name = codec.name();
        let mut formats = [0usize; 4];
        let mut stored = codec.initial_line();
        for data in &lines {
            stored = codec.encode(data, &stored, &energy);
            formats[stored.state(256).index()] += 1;
            let _ = codec.decode(&stored); // warm up
            let (allocs, decoded) = allocations_during(|| codec.decode(&stored));
            assert_eq!(decoded, *data, "{name}");
            assert_eq!(allocs, 0, "{name}: decode allocated {allocs} times");
        }
        let reached = formats.iter().filter(|&&count| count > 0).count();
        assert_eq!(reached, *format_count, "{name}: lines per flag state {formats:?}");
    }
}

/// Arrays of nearby 64-bit pointers: too wide for DIN's FPC threshold, so
/// DIN stores them BDI-compressed.
fn pointer_lines() -> Vec<wlcrc_repro::pcm::line::MemoryLine> {
    use wlcrc_repro::pcm::line::MemoryLine;
    (0..4u64)
        .map(|i| {
            MemoryLine::from_words(std::array::from_fn(|w| 0x7FFF_A000_0000 + (i + w as u64) * 72))
        })
        .collect()
}

/// Six full-width words and two of three bytes: COC repacks them to 464
/// bits, which only its 32-bit-block format holds.
fn coarse_coc_lines() -> Vec<wlcrc_repro::pcm::line::MemoryLine> {
    use wlcrc_repro::pcm::line::MemoryLine;
    (0..4u64)
        .map(|i| {
            MemoryLine::from_words(std::array::from_fn(|w| match w {
                0 | 5 => 0x12_3456 + i,
                _ => 0x9E37_79B9_7F4A_7C15u64.rotate_left(7 * (w as u32) + i as u32),
            }))
        })
        .collect()
}

/// Uniformly random lines: no WLC-compressible word, and too dense for COC,
/// so the compression-gated codecs store them raw.
fn random_lines(seed: u64, count: usize) -> Vec<wlcrc_repro::pcm::line::MemoryLine> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_repro::pcm::line::MemoryLine;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| MemoryLine::from_words(std::array::from_fn(|_| rng.gen()))).collect()
}

#[test]
fn accounting_tail_allocates_nothing() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wlcrc_repro::coset::FnwCodec;
    use wlcrc_repro::pcm::codec::{LineCodec, RawCodec};
    use wlcrc_repro::pcm::prelude::{DisturbanceModel, EnergyModel};
    use wlcrc_repro::wlcrc::{CocCosetCodec, WlcCosetCodec};
    use wlcrc_repro::{differential_write, evaluate_disturbance};

    let energy = EnergyModel::paper_default();
    let model = DisturbanceModel::paper_default();
    let mut rng = StdRng::seed_from_u64(5);
    // Biased lines take the encoded paths, random ones the raw fallbacks.
    let mut lines = workload();
    lines.extend(random_lines(6, 8));
    // 256-cell lines (Baseline), auxiliary cells past the data cells (FNW),
    // and auxiliary cells among them (WLCRC-16, COC+4cosets).
    let codecs: Vec<Box<dyn LineCodec>> = vec![
        Box::new(RawCodec::new()),
        Box::new(FnwCodec::paper_default()),
        Box::new(WlcCosetCodec::wlcrc16()),
        Box::new(CocCosetCodec::new()),
    ];
    for codec in &codecs {
        let name = codec.name();
        let mut old = codec.initial_line();
        for line in &lines {
            let new = codec.encode(line, &old, &energy);
            let (allocs, _) = allocations_during(|| differential_write(&old, &new, &energy));
            assert_eq!(allocs, 0, "{name}: differential_write allocated {allocs} times");
            let (allocs, _) =
                allocations_during(|| evaluate_disturbance(&old, &new, &model, &mut rng));
            assert_eq!(allocs, 0, "{name}: evaluate_disturbance allocated {allocs} times");
            old = new;
        }
    }
}

#[test]
fn raw_line_decodes_allocate_nothing() {
    use wlcrc_repro::pcm::codec::{LineCodec, RawCodec};
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::{CocCosetCodec, WlcCosetCodec};

    let energy = EnergyModel::paper_default();
    let codecs: Vec<Box<dyn LineCodec>> = vec![
        Box::new(RawCodec::new()),
        Box::new(WlcCosetCodec::wlc_four_cosets(32)),
        Box::new(WlcCosetCodec::wlcrc16()),
        Box::new(CocCosetCodec::new()),
    ];
    for codec in &codecs {
        let name = codec.name();
        for data in random_lines(7, 8) {
            let stored = codec.encode(&data, &codec.initial_line(), &energy);
            // A raw line carries no auxiliary cell but the format flag.
            assert!(stored.aux_cells() <= 1, "{name}: random data must be stored raw");
            let (allocs, decoded) = allocations_during(|| codec.decode(&stored));
            assert_eq!(decoded, data);
            assert_eq!(allocs, 0, "{name}: raw decode allocated {allocs} times");
        }
    }
}

#[test]
fn compression_gated_decodes_allocate_nothing() {
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::prelude::{CellState, EnergyModel};
    use wlcrc_repro::wlcrc::{CocCosetCodec, WlcCosetCodec};

    let energy = EnergyModel::paper_default();
    let codecs: Vec<Box<dyn LineCodec>> = vec![
        Box::new(WlcCosetCodec::wlcrc16()),
        Box::new(WlcCosetCodec::wlc_four_cosets(32)),
        Box::new(CocCosetCodec::new()),
    ];
    for codec in &codecs {
        let name = codec.name();
        let mut stored = codec.initial_line();
        for data in workload() {
            stored = codec.encode(&data, &stored, &energy);
            // The workload is compressible: every line takes an encoded format.
            assert_ne!(stored.state(256), CellState::S2, "{name}: stored raw");
            let (allocs, decoded) = allocations_during(|| codec.decode(&stored));
            assert_eq!(decoded, data);
            assert_eq!(allocs, 0, "{name}: decode allocated {allocs} times");
        }
    }
}
