//! Streaming trace sources.
//!
//! A [`TraceSource`] is a trace as an *iterator* of [`WriteRecord`]s
//! labelled with the workload that produced it, generated lazily one record
//! at a time, so a simulator fed one holds O(working-set) memory however
//! long the trace. [`Trace`] is the materialised form ([`Trace::source`]).
//!
//! Three families of sources ship with the crate:
//!
//! * [`TraceStream`] / [`RandomTraceStream`] — lazy, bounded, deterministic
//!   streams over [`TraceGenerator`] / [`RandomTraceGenerator`]; they yield
//!   exactly the records `generate(count)` would have materialised, in the
//!   same order, for the same seed;
//! * [`Trace::source`] — replays an already-materialised trace;
//! * [`from_fn`] — adapts a closure into a bounded source, the building block
//!   for custom bounded-memory streams (replayed database logs, mmap'd trace
//!   files, procedurally generated stress workloads).

use crate::generator::{RandomTraceGenerator, TraceGenerator};
use crate::profile::WorkloadProfile;
use crate::record::{Trace, WriteRecord};

/// A stream of write records belonging to one workload.
///
/// A `TraceSource` is an `Iterator<Item = WriteRecord>` plus the name of the
/// workload that produced the records. Implementations are expected to be
/// *deterministic*: constructing the same source twice must yield the same
/// record sequence, so that reruns, shards and served sessions replay the
/// same records.
pub trait TraceSource: Iterator<Item = WriteRecord> {
    /// Name of the workload producing this stream.
    fn workload(&self) -> &str;

    /// Number of records still to come, when known (used for diagnostics and
    /// pre-sizing only — correctness never depends on it).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }

    /// Drains the stream into a materialised [`Trace`] (back-compat helper;
    /// prefer feeding the source to a simulator directly).
    fn collect_trace(mut self) -> Trace
    where
        Self: Sized,
    {
        let mut trace = Trace::new(self.workload().to_string());
        trace.extend(&mut self);
        trace
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn workload(&self) -> &str {
        (**self).workload()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn workload(&self) -> &str {
        (**self).workload()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

/// Conversion into a [`TraceSource`], so simulator entry points accept both
/// streams and materialised `&Trace`s (mirroring `IntoIterator`).
pub trait IntoTraceSource {
    /// The source this value converts into.
    type Source: TraceSource;

    /// Performs the conversion.
    fn into_trace_source(self) -> Self::Source;
}

impl<S: TraceSource> IntoTraceSource for S {
    type Source = S;

    fn into_trace_source(self) -> S {
        self
    }
}

impl<'a> IntoTraceSource for &'a Trace {
    type Source = TraceRecords<'a>;

    fn into_trace_source(self) -> TraceRecords<'a> {
        self.source()
    }
}

/// Borrowing source over a materialised [`Trace`] (see [`Trace::source`]).
#[derive(Debug, Clone)]
pub struct TraceRecords<'a> {
    workload: &'a str,
    records: std::slice::Iter<'a, WriteRecord>,
}

impl<'a> TraceRecords<'a> {
    pub(crate) fn new(trace: &'a Trace) -> TraceRecords<'a> {
        TraceRecords { workload: &trace.workload, records: trace.records().iter() }
    }
}

impl Iterator for TraceRecords<'_> {
    type Item = WriteRecord;

    fn next(&mut self) -> Option<WriteRecord> {
        self.records.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl TraceSource for TraceRecords<'_> {
    fn workload(&self) -> &str {
        self.workload
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.records.len())
    }
}

/// Lazy, bounded stream over a [`TraceGenerator`]: yields exactly the records
/// `TraceGenerator::generate(count)` would materialise, one at a time, in
/// O(working-set) memory instead of O(trace-length).
#[derive(Debug)]
pub struct TraceStream {
    generator: TraceGenerator,
    remaining: usize,
}

impl TraceStream {
    /// Creates a bounded stream for `profile`, seeded with `seed` (fully
    /// deterministic: same profile, seed and count → same records).
    pub fn new(profile: WorkloadProfile, seed: u64, count: usize) -> TraceStream {
        TraceGenerator::new(profile, seed).into_stream(count)
    }

    /// Wraps an existing generator into a bounded stream.
    pub(crate) fn from_generator(generator: TraceGenerator, count: usize) -> TraceStream {
        TraceStream { generator, remaining: count }
    }
}

impl Iterator for TraceStream {
    type Item = WriteRecord;

    fn next(&mut self) -> Option<WriteRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.generator.next_record())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl TraceSource for TraceStream {
    fn workload(&self) -> &str {
        &self.generator.profile().name
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Lazy, bounded stream of uniformly random `(old, new)` line pairs (the
/// streaming form of [`RandomTraceGenerator::generate`]).
#[derive(Debug)]
pub struct RandomTraceStream {
    generator: RandomTraceGenerator,
    remaining: usize,
}

impl RandomTraceStream {
    /// Creates a bounded random-data stream with the given seed.
    pub fn new(seed: u64, count: usize) -> RandomTraceStream {
        RandomTraceGenerator::new(seed).into_stream(count)
    }

    pub(crate) fn from_generator(
        generator: RandomTraceGenerator,
        count: usize,
    ) -> RandomTraceStream {
        RandomTraceStream { generator, remaining: count }
    }
}

impl Iterator for RandomTraceStream {
    type Item = WriteRecord;

    fn next(&mut self) -> Option<WriteRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.generator.next_record())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl TraceSource for RandomTraceStream {
    fn workload(&self) -> &str {
        "random"
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// A bounded source that computes each record from its index via a closure —
/// the building block for custom bounded-memory streams (see [`from_fn`]).
pub struct FnTraceSource<F> {
    workload: String,
    next_index: u64,
    count: u64,
    f: F,
}

/// Builds a bounded [`TraceSource`] named `workload` that yields
/// `f(0), f(1), …, f(count - 1)`.
///
/// Peak memory is whatever `f` itself retains, so arbitrarily long traces can
/// be streamed without materialisation:
///
/// ```
/// use wlcrc_trace::{from_fn, TraceSource, WriteRecord};
/// use wlcrc_pcm::line::MemoryLine;
///
/// let mut source = from_fn("counter", 1_000_000, |i| {
///     let line = MemoryLine::from_words([i; 8]);
///     WriteRecord::new((i % 64) * 64, line, line)
/// });
/// assert_eq!(source.remaining_hint(), Some(1_000_000));
/// assert_eq!(source.next().unwrap().address, 0);
/// ```
pub fn from_fn<F>(workload: impl Into<String>, count: u64, f: F) -> FnTraceSource<F>
where
    F: FnMut(u64) -> WriteRecord,
{
    FnTraceSource { workload: workload.into(), next_index: 0, count, f }
}

impl<F: FnMut(u64) -> WriteRecord> Iterator for FnTraceSource<F> {
    type Item = WriteRecord;

    fn next(&mut self) -> Option<WriteRecord> {
        if self.next_index >= self.count {
            return None;
        }
        let record = (self.f)(self.next_index);
        self.next_index += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.count - self.next_index).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl<F: FnMut(u64) -> WriteRecord> TraceSource for FnTraceSource<F> {
    fn workload(&self) -> &str {
        &self.workload
    }

    fn remaining_hint(&self) -> Option<usize> {
        usize::try_from(self.count - self.next_index).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use wlcrc_pcm::line::MemoryLine;

    #[test]
    fn stream_matches_generate_for_every_standard_workload() {
        // The lazy stream must yield byte-identical records to the historical
        // materialising path, for every benchmark profile.
        for b in Benchmark::ALL {
            let materialised = TraceGenerator::new(b.profile(), 42).generate(120);
            let streamed = TraceStream::new(b.profile(), 42, 120).collect_trace();
            assert_eq!(materialised, streamed, "{b:?}");
        }
    }

    #[test]
    fn random_stream_matches_generate() {
        let materialised = RandomTraceGenerator::new(9).generate(80);
        let streamed = RandomTraceStream::new(9, 80).collect_trace();
        assert_eq!(materialised, streamed);
    }

    #[test]
    fn stream_is_bounded_and_reports_progress() {
        let mut stream = TraceStream::new(Benchmark::Gcc.profile(), 1, 3);
        assert_eq!(stream.workload(), "gcc");
        assert_eq!(stream.remaining_hint(), Some(3));
        assert_eq!(stream.size_hint(), (3, Some(3)));
        assert!(stream.next().is_some());
        assert_eq!(stream.remaining_hint(), Some(2));
        assert_eq!(stream.by_ref().count(), 2);
        assert_eq!(stream.next(), None);
        assert_eq!(stream.remaining_hint(), Some(0));
    }

    #[test]
    fn trace_source_adapter_replays_records() {
        let trace = TraceGenerator::new(Benchmark::Mcf.profile(), 5).generate(40);
        let replayed = trace.source().collect_trace();
        assert_eq!(trace, replayed);
        assert_eq!(trace.source().workload(), "mcf");
        assert_eq!(trace.source().remaining_hint(), Some(40));
    }

    #[test]
    fn from_fn_yields_count_records() {
        let mut calls = 0u64;
        let source = from_fn("synthetic", 10, |i| {
            calls += 1;
            WriteRecord::new(i * 64, MemoryLine::ZERO, MemoryLine::from_words([i; 8]))
        });
        let trace = source.collect_trace();
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.workload, "synthetic");
        assert_eq!(calls, 10);
        assert_eq!(trace.records()[3].address, 3 * 64);
    }

    #[test]
    fn boxed_and_borrowed_sources_still_expose_the_workload() {
        let mut boxed: Box<dyn TraceSource> =
            Box::new(TraceStream::new(Benchmark::Lbm.profile(), 2, 5));
        assert_eq!(boxed.workload(), "lbm");
        let by_ref = &mut boxed;
        assert_eq!(by_ref.workload(), "lbm");
        assert_eq!(by_ref.count(), 5);
    }
}
