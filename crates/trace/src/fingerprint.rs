//! Fingerprintable workload identity.
//!
//! The persistent result store (`wlcrc_store`) caches experiment cells by a
//! content fingerprint, and a cell's result depends on *exactly which write
//! records* its workload produces. This module gives every workload shape a
//! stable identity value:
//!
//! * a [`WorkloadProfile`] is identified by its full parameter set — two
//!   profiles with equal parameters generate equal traces for equal seeds,
//!   and any parameter tweak (a mix probability, the working-set size, ...)
//!   changes the identity and therefore the cache address;
//! * a materialised [`Trace`] is identified by a content digest streamed
//!   over its records (name, addresses, old/new line words), so a
//!   hand-built trace caches correctly without the store ever storing the
//!   trace itself.
//!
//! These are the only two workload shapes the experiment engine takes, so
//! every cell it runs has a cache address. A custom
//! [`TraceSource`](crate::source::TraceSource) joins a plan as the trace it
//! drains into.

use crate::profile::WorkloadProfile;
use crate::record::Trace;
use serde::{Serialize, Value};
use wlcrc_store::{Fingerprint, StableHasher};

impl WorkloadProfile {
    /// The profile's self-describing identity value: every parameter that
    /// influences generated records, as serialized by the derive. Stored
    /// inside cache keys so `storectl inspect` shows the full profile.
    pub fn identity_value(&self) -> Value {
        self.to_value()
    }

    /// The profile's content fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_value(&self.identity_value())
    }
}

impl Trace {
    /// A content digest over the trace's name and every record, streamed so
    /// a long trace is never materialised a second time. Two traces have
    /// equal digests exactly when they replay identically.
    pub fn content_fingerprint(&self) -> Fingerprint {
        let mut hasher = StableHasher::new();
        hasher.update(self.workload.as_bytes());
        // A separator no UTF-8 name can contain, so ("ab", 1 record) can
        // never collide with ("a", ...) prefix confusions.
        hasher.update(&[0xFF]);
        hasher.update(&(self.len() as u64).to_le_bytes());
        for record in self.iter() {
            hasher.update(&record.address.to_le_bytes());
            for word in record.old.words() {
                hasher.update(&word.to_le_bytes());
            }
            for word in record.new.words() {
                hasher.update(&word.to_le_bytes());
            }
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use crate::record::WriteRecord;
    use wlcrc_pcm::line::MemoryLine;

    #[test]
    fn profile_fingerprint_is_stable_and_parameter_sensitive() {
        let gcc = Benchmark::Gcc.profile();
        assert_eq!(gcc.fingerprint(), Benchmark::Gcc.profile().fingerprint());
        assert_ne!(gcc.fingerprint(), Benchmark::Mcf.profile().fingerprint());
        let mut tweaked = Benchmark::Gcc.profile();
        tweaked.working_set_lines += 1;
        assert_ne!(gcc.fingerprint(), tweaked.fingerprint());
        let mut biased = Benchmark::Gcc.profile();
        biased.mix.zero += 1e-9;
        biased.mix.random -= 1e-9;
        assert_ne!(gcc.fingerprint(), biased.fingerprint(), "mix probabilities are identity");
    }

    #[test]
    fn profile_identity_is_self_describing() {
        let value = Benchmark::Lbm.profile().identity_value();
        let record = value.as_record("WorkloadProfile").expect("profile record");
        assert_eq!(record.field::<String>("name").unwrap(), "lbm");
        assert!(record.raw("mix").is_some());
    }

    #[test]
    fn trace_digest_tracks_content() {
        let line = |w: u64| MemoryLine::from_words([w; 8]);
        let mut a = Trace::new("t");
        a.push(WriteRecord::new(0, line(1), line(2)));
        a.push(WriteRecord::new(64, line(2), line(3)));
        let mut same = Trace::new("t");
        same.push(WriteRecord::new(0, line(1), line(2)));
        same.push(WriteRecord::new(64, line(2), line(3)));
        assert_eq!(a.content_fingerprint(), same.content_fingerprint());

        let mut renamed = Trace::new("u");
        renamed.extend(a.iter().copied());
        assert_ne!(a.content_fingerprint(), renamed.content_fingerprint());

        let mut reordered = Trace::new("t");
        reordered.push(WriteRecord::new(64, line(2), line(3)));
        reordered.push(WriteRecord::new(0, line(1), line(2)));
        assert_ne!(a.content_fingerprint(), reordered.content_fingerprint());

        let mut retargeted = Trace::new("t");
        retargeted.push(WriteRecord::new(0, line(1), line(2)));
        retargeted.push(WriteRecord::new(128, line(2), line(3)));
        assert_ne!(a.content_fingerprint(), retargeted.content_fingerprint());

        let mut rewritten = Trace::new("t");
        rewritten.push(WriteRecord::new(0, line(1), line(2)));
        rewritten.push(WriteRecord::new(64, line(2), line(4)));
        assert_ne!(a.content_fingerprint(), rewritten.content_fingerprint());
    }

    #[test]
    fn empty_traces_differ_only_by_name() {
        assert_eq!(Trace::new("t").content_fingerprint(), Trace::new("t").content_fingerprint());
        assert_ne!(Trace::new("t").content_fingerprint(), Trace::new("u").content_fingerprint());
    }
}
