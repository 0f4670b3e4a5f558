//! Allocation regression test for the observability layer.
//!
//! The contract of `wlcrc_obs` is that with `WLCRC_TRACE` unset the whole
//! tracing layer is inert: opening a span is one relaxed atomic load, label
//! closures never run, and *nothing* allocates. This test pins that by
//! counting heap allocations (through the same wrapping global allocator as
//! `tests/hotpath_alloc.rs`) around an encode loop instrumented exactly the
//! way the engine instruments its hot paths — the instrumented loop must
//! allocate precisely what the uninstrumented encode itself allocates.
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

/// The tests below only hold with tracing off; under an externally set
/// `WLCRC_TRACE` the layer is *supposed* to work (and allocate).
fn tracing_is_externally_enabled() -> bool {
    std::env::var_os(wlcrc_repro::obs::TRACE_ENV).is_some()
}

#[test]
fn disabled_obs_layer_allocates_nothing() {
    if tracing_is_externally_enabled() {
        return;
    }
    // Metric handles are created (and leaked, once) up front, the way the
    // engine and store hold them in LazyLock statics.
    let counter = wlcrc_repro::obs::registry().counter("wlcrc_test_obs_overhead_total");
    let histogram = wlcrc_repro::obs::registry().histogram("wlcrc_test_obs_overhead_seconds");
    // Warm-up: first span touches the Once + thread-locals.
    drop(wlcrc_repro::obs::span("test.warmup"));
    let (allocs, _) = allocations_during(|| {
        for i in 0..256u64 {
            let _span = wlcrc_repro::obs::span("test.span");
            let _labelled = wlcrc_repro::obs::span_with("test.cell", || {
                // Label closures must not run with tracing off — this
                // allocation would trip the assertion below.
                format!("expensive label {i}")
            });
            wlcrc_repro::obs::instant("test.tick");
            counter.inc();
            histogram.observe_ns(i);
        }
    });
    assert_eq!(allocs, 0, "disabled spans/metrics allocated {allocs} times over 256 iterations");
    assert_eq!(counter.get(), 256);
}

#[test]
fn instrumented_encode_loop_allocates_exactly_the_encode() {
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::WlcCosetCodec;

    if tracing_is_externally_enabled() {
        return;
    }
    let energy = EnergyModel::paper_default();
    let codec = WlcCosetCodec::wlcrc16();
    let lines: Vec<MemoryLine> = (0..16)
        .map(|i| {
            let mut words = [0u64; 8];
            for (w, slot) in words.iter_mut().enumerate() {
                *slot = (i as u64).wrapping_mul(0x9e37) ^ (w as u64) << 8;
            }
            MemoryLine::from_words(words)
        })
        .collect();
    let counter = wlcrc_repro::obs::registry().counter("wlcrc_test_obs_encode_total");

    // Warm up lazy codec internals outside the measurement.
    let mut old = codec.initial_line();
    for line in &lines {
        old = codec.encode(line, &old, &energy);
    }

    const WRITES: u64 = 32;
    // Baseline: the bare encode loop. Steady-state WLCRC encode allocates
    // nothing (the returned PhysicalLine is a stack value) — pinned
    // independently by tests/hotpath_alloc.rs.
    let (bare, _) = allocations_during(|| {
        for i in 0..WRITES as usize {
            old = codec.encode(&lines[i % lines.len()], &old, &energy);
        }
    });
    // Instrumented: the same loop wrapped in spans and metrics the way
    // `engine::run_cell_shard` wraps its work.
    let (instrumented, _) = allocations_during(|| {
        for i in 0..WRITES as usize {
            let _span = wlcrc_repro::obs::span_with("engine.cell", || format!("cell {i}"));
            old = codec.encode(&lines[i % lines.len()], &old, &energy);
            counter.inc();
        }
    });
    assert_eq!(
        instrumented, bare,
        "tracing off must add zero allocations: bare={bare} instrumented={instrumented}"
    );
}
