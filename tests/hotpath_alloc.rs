//! Allocation regression test for the write hot path.
//!
//! The bit-parallel encoders keep every piece of per-write scratch (plane
//! views, transition tables, candidate costs, choice masks, packed auxiliary
//! bits) in fixed-size stack storage, and a `PhysicalLine` is its bit planes,
//! a stack value that owns no heap memory. So a steady-state `encode()`
//! allocates nothing, bar COC+4cosets' repacked bit stream and DIN's
//! compressor scratch; a first touch over a fresh `initial_line()` allocates
//! the same; and the accounting after it (differential write, disturbance
//! sampling), the raw-line decodes and the compression-gated codecs' plane
//! decodes allocate nothing. This test counts allocations through a wrapping
//! global allocator and pins exactly that.
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
    use wlcrc_repro::coset::{
        FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
    };
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::{CocCosetCodec, WlcCosetCodec};

    let energy = EnergyModel::paper_default();
    // Mixed content: WLC-compressible words so WLCRC takes its encoded path,
    // and varied values so candidate searches do real work.
    let lines = workload();

    // Each codec with its allocations per encode: none, bar the bit stream
    // of COC+4cosets' single `Coc::repack`.
    let codecs: Vec<(Box<dyn LineCodec>, &str, u64)> = vec![
        (Box::new(NCosetsCodec::three_cosets(Granularity::new(16))), "3cosets-16", 0),
        (Box::new(NCosetsCodec::six_cosets(Granularity::new(8))), "6cosets-8", 0),
        (Box::new(NCosetsCodec::six_cosets(Granularity::new(512))), "6cosets-512", 0),
        (Box::new(RestrictedCosetCodec::new(Granularity::new(16))), "3-r-cosets-16", 0),
        (Box::new(FnwCodec::paper_default()), "FNW", 0),
        (Box::new(FlipMinCodec::new()), "FlipMin", 0),
        (Box::new(WlcCosetCodec::wlcrc16()), "WLCRC-16", 0),
        (Box::new(WlcCosetCodec::wlc_four_cosets(32)), "WLC+4cosets", 0),
        (Box::new(CocCosetCodec::new()), "COC+4cosets", 1),
    ];

    for (codec, name, per_encode) in &codecs {
        // The simulator's lanes encode through the codec's prepared encoder.
        let encoder = codec.encoder(&energy);
        // Warm up: first writes may lazily initialise internals (the
        // compression-gated codecs build a format's tables on first use).
        let mut old = codec.initial_line();
        for line in &lines {
            old = codec.encode(line, &old, &energy);
            let _ = encoder.encode(line, &old);
        }
        // Steady state: each encode allocates exactly `per_encode` times,
        // through `encode` and through the encoder, and a first touch over a
        // fresh `initial_line()` allocates the same. (Dropping a line is a
        // deallocation and is not counted.)
        for line in &lines {
            let (allocs, _) = allocations_during(|| encoder.encode(line, &codec.initial_line()));
            assert_eq!(allocs, *per_encode, "{name}: first touch through the encoder");
            let (allocs, _) =
                allocations_during(|| codec.encode(line, &codec.initial_line(), &energy));
            assert_eq!(allocs, *per_encode, "{name}: first touch through encode");
            let (allocs, _) = allocations_during(|| encoder.encode(line, &old));
            assert_eq!(allocs, *per_encode, "{name}: chained encode through the encoder");
            let (allocs, new) = allocations_during(|| codec.encode(line, &old, &energy));
            assert_eq!(allocs, *per_encode, "{name}: chained encode");
            old = new;
        }
    }
}

#[test]
fn din_encode_allocation_profile_is_pinned() {
    use wlcrc_repro::coset::DinCodec;
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::prelude::EnergyModel;

    let energy = EnergyModel::paper_default();
    let codec = DinCodec::new();
    let lines = workload();

    // Warm up (lazy internals + the chained stored line).
    let mut old = codec.initial_line();
    for line in &lines {
        old = codec.encode(line, &old, &energy);
    }

    // Unlike the pure-kernel coset schemes, DIN runs FPC/BDI compression on
    // every write and those compressors build their candidate bit streams on
    // the heap; the kernel expansion/BCH/plane-store path after them is
    // allocation-free, so the steady-state count is the compressor scratch.
    // The workload above exercises all three paths (FPC-win, BDI-win,
    // uncompressible fallback); the total is pinned so a regression that
    // sneaks per-write scratch into the kernel path shows up as a count bump.
    let measure = |old: &mut wlcrc_repro::pcm::prelude::PhysicalLine| {
        allocations_during(|| {
            for line in &lines {
                *old = codec.encode(line, old, &energy);
            }
        })
        .0
    };
    let first = measure(&mut old);
    let second = measure(&mut old);
    assert_eq!(first, second, "DIN steady-state allocation count must be deterministic");
    assert_eq!(
        first,
        DIN_STEADY_STATE_ALLOCS,
        "DIN: expected {DIN_STEADY_STATE_ALLOCS} allocations over {} writes, got {first}",
        lines.len()
    );
}

/// Steady-state allocations of one pass of [`workload`] (16 writes) through
/// `DinCodec::encode`: exactly 1 per write — one compressor scratch buffer
/// (the selected FPC/BDI bit stream, or the raw stream probe on the
/// fallback path).
const DIN_STEADY_STATE_ALLOCS: u64 = 16;

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
    use wlcrc_repro::coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::EnergyModel;

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
