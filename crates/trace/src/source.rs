//! Streaming trace sources.
//!
//! A [`TraceSource`] is a trace as an *iterator* of [`WriteRecord`]s
//! labelled with the workload that produced it, generated lazily one record
//! at a time, so a simulator fed one holds O(working-set) memory however
//! long the trace. Two sources ship with the crate:
//!
//! * [`TraceStream`] — a lazy, bounded, deterministic stream over a
//!   [`TraceGenerator`]; it yields exactly the records `generate(count)`
//!   would have materialised, in the same order, for the same seed;
//! * [`TraceRecords`] — replays an already-materialised [`Trace`]
//!   ([`Trace::source`]; `&Trace` converts through [`IntoTraceSource`]).
//!
//! [`TraceSource::collect_trace`] drains any source into a [`Trace`], the
//! form the experiment engine replays.

use crate::generator::TraceGenerator;
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

    /// Drains the stream into a materialised [`Trace`], which the experiment
    /// engine builds once per (workload, seed) and replays for every scheme.
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
        TraceStream { generator: TraceGenerator::new(profile, seed), remaining: count }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;

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
    fn boxed_and_borrowed_sources_still_expose_the_workload() {
        fn drain(source: impl TraceSource) -> (String, usize) {
            (source.workload().to_string(), source.count())
        }
        let mut stream = TraceStream::new(Benchmark::Lbm.profile(), 2, 5);
        assert_eq!(drain(&mut stream), ("lbm".to_string(), 5));
        assert_eq!(stream.remaining_hint(), Some(0), "the borrow drained the stream");
        let mut boxed: Box<dyn TraceSource> =
            Box::new(TraceStream::new(Benchmark::Lbm.profile(), 2, 5));
        assert_eq!(drain(&mut *boxed), ("lbm".to_string(), 5));
    }
}
