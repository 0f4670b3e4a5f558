//! Synthetic trace generation from workload profiles.

use crate::profile::WorkloadProfile;
use crate::record::{Trace, WriteRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::LINE_WORDS;

/// The content class a generated line belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineClass {
    Zero,
    SmallPositive,
    SmallNegative,
    Pointer,
    Float,
    Text,
    Random,
}

/// Generates write traces matching a [`WorkloadProfile`].
///
/// The generator maintains the current content of every line in the working
/// set; each generated [`WriteRecord`] therefore carries a consistent
/// `(old, new)` pair, exactly like the Simics traces the paper uses.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    memory: HashMap<u64, MemoryLine>,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed` (generation is
    /// fully deterministic for a given profile and seed).
    pub fn new(profile: WorkloadProfile, seed: u64) -> TraceGenerator {
        TraceGenerator { profile, rng: StdRng::seed_from_u64(seed), memory: HashMap::new() }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates the next write record.
    pub fn next_record(&mut self) -> WriteRecord {
        let slot = self.rng.gen_range(0..self.profile.working_set_lines) as u64;
        let address = slot * 64;
        let old = *self.memory.entry(address).or_insert_with_key(|_| MemoryLine::ZERO);
        // First touch: synthesise an initial value so the very first write is
        // not artificially cheap (old value all zero would be).
        let old = if old == MemoryLine::ZERO && !self.memory.contains_key(&(address | 1)) {
            let init = self.fresh_line();
            self.memory.insert(address | 1, MemoryLine::ZERO); // mark as initialised
            self.memory.insert(address, init);
            init
        } else {
            old
        };
        let new = if self.rng.gen::<f64>() < self.profile.rewrite_similarity {
            self.incremental_update(&old)
        } else {
            self.fresh_line()
        };
        self.memory.insert(address, new);
        WriteRecord::new(address, old, new)
    }

    /// Generates the next `count` records as a materialised trace; a
    /// [`TraceStream`](crate::source::TraceStream) over the same profile and
    /// seed yields the same records one at a time.
    pub fn generate(&mut self, count: usize) -> Trace {
        let mut trace = Trace::new(self.profile.name.clone());
        for _ in 0..count {
            trace.push(self.next_record());
        }
        trace
    }

    fn pick_class(&mut self) -> LineClass {
        let mix = self.profile.mix;
        let mut x: f64 = self.rng.gen::<f64>() * mix.total();
        for (class, p) in [
            (LineClass::Zero, mix.zero),
            (LineClass::SmallPositive, mix.small_positive),
            (LineClass::SmallNegative, mix.small_negative),
            (LineClass::Pointer, mix.pointer),
            (LineClass::Float, mix.float),
            (LineClass::Text, mix.text),
            (LineClass::Random, mix.random),
        ] {
            if x < p {
                return class;
            }
            x -= p;
        }
        LineClass::Random
    }

    fn fresh_line(&mut self) -> MemoryLine {
        // Roughly half of real memory lines are homogeneous arrays (one value
        // class across the line); the rest are heterogeneous records/structs
        // mixing pointers, integers of different widths and padding. The
        // heterogeneous lines are what makes fine-grain (per-block) coset
        // selection pay off over line-level selection. Profiles dominated by
        // random content (the synthetic "random workload") stay homogeneous.
        if self.profile.mix.random < 0.5 && self.rng.gen::<f64>() < 0.5 {
            self.mixed_line()
        } else {
            let class = self.pick_class();
            self.line_of_class(class)
        }
    }

    /// A heterogeneous (struct-like) line: every 64-bit field draws its own
    /// content class. Floating-point, text and random fields are excluded so
    /// that heterogeneity does not change the line-level WLC coverage.
    fn mixed_line(&mut self) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        for w in &mut words {
            let class = match self.pick_class() {
                LineClass::Float | LineClass::Text | LineClass::Random => LineClass::SmallPositive,
                other => other,
            };
            *w = self.word_of_class(class);
        }
        MemoryLine::from_words(words)
    }

    /// One 64-bit field of the given class (used for heterogeneous lines).
    fn word_of_class(&mut self, class: LineClass) -> u64 {
        match class {
            LineClass::Zero => 0,
            LineClass::SmallPositive => {
                if self.rng.gen::<f64>() < 0.6 {
                    let bits = *[8usize, 16, 24, 32].get(self.rng.gen_range(0..4)).unwrap();
                    let magnitude = self.rng.gen::<u64>() & ((1u64 << bits) - 1);
                    if self.rng.gen::<f64>() < 0.3 {
                        (magnitude as i64).wrapping_neg() as u64
                    } else {
                        magnitude
                    }
                } else {
                    let shift = self.rng.gen_range(42..=46);
                    let hi = u64::from(self.rng.gen::<u16>() & 0x0FFF) | 0x0800;
                    let lo = u64::from(self.rng.gen::<u16>() & 0x03FF);
                    (hi << shift) | lo
                }
            }
            LineClass::SmallNegative => {
                let bits = *[8usize, 16, 24].get(self.rng.gen_range(0..3)).unwrap();
                let mag = self.rng.gen::<u64>() & ((1u64 << bits) - 1);
                (mag as i64).wrapping_neg() as u64
            }
            LineClass::Pointer => {
                let base = if self.rng.gen::<bool>() {
                    0x0000_7F00_0000_0000u64 | (u64::from(self.rng.gen::<u32>()) << 8)
                } else {
                    0x0100_0000_0000_0000u64 | (u64::from(self.rng.gen::<u32>()) << 20)
                };
                base.wrapping_add(u64::from(self.rng.gen::<u16>()) * 8)
            }
            LineClass::Float => self.rng.gen::<f64>().to_bits(),
            LineClass::Text => {
                let mut bytes = [0u8; 8];
                for b in &mut bytes {
                    *b = self.rng.gen_range(0x20..0x7F);
                }
                u64::from_le_bytes(bytes)
            }
            LineClass::Random => self.rng.gen(),
        }
    }

    fn line_of_class(&mut self, class: LineClass) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        match class {
            LineClass::Zero => {}
            LineClass::SmallPositive => {
                // Width chosen per line. Real integer data is bimodal: loop
                // counters and indices are narrow (8-32 significant bits),
                // while file offsets, hashes, tagged pointers and fixed-point
                // values use most of the word below the sign-extension region
                // (40-58 bits). Wide lines still pass the WLC test for small
                // k but defeat FPC/BDI and WLC with k > 6, reproducing the
                // coverage drop of Figure 4.
                if self.rng.gen::<f64>() < 0.45 {
                    let bits = *[8usize, 16, 24, 32].get(self.rng.gen_range(0..4)).unwrap();
                    let mask = (1u64 << bits) - 1;
                    for w in &mut words {
                        // Occasional zero elements, as in real integer arrays,
                        // and a realistic share of negative values whose sign
                        // extension fills the upper bits with ones.
                        *w = if self.rng.gen::<f64>() < 0.3 {
                            0
                        } else {
                            let magnitude = self.rng.gen::<u64>() & mask;
                            if self.rng.gen::<f64>() < 0.3 {
                                (magnitude as i64).wrapping_neg() as u64
                            } else {
                                magnitude
                            }
                        };
                    }
                } else {
                    // Wide values (file offsets, tagged values, fixed-point):
                    // a dozen significant bits near the top of the usable
                    // range plus a small low-order component. The middle of
                    // the word is zero, so the content stays biased, but the
                    // high bits defeat FPC/BDI and WLC with k > 6.
                    let shift = self.rng.gen_range(42..=46);
                    for w in &mut words {
                        if self.rng.gen::<f64>() < 0.2 {
                            *w = 0;
                            continue;
                        }
                        let hi = u64::from(self.rng.gen::<u16>() & 0x0FFF) | 0x0800;
                        let lo = u64::from(self.rng.gen::<u16>() & 0x03FF);
                        *w = (hi << shift) | lo;
                    }
                }
            }
            LineClass::SmallNegative => {
                let bits = *[8usize, 16, 24].get(self.rng.gen_range(0..3)).unwrap();
                let mask = (1u64 << bits) - 1;
                for w in &mut words {
                    let mag = self.rng.gen::<u64>() & mask;
                    *w = (mag as i64).wrapping_neg() as u64;
                }
            }
            LineClass::Pointer => {
                // Nearby user-space pointers. Half the regions live in the
                // classic 47-bit heap (0x0000_7Fxx...), half in the extended
                // 57-bit VA space of five-level paging, whose addresses defeat
                // WLC once k exceeds 6.
                let base = if self.rng.gen::<bool>() {
                    0x0000_7F00_0000_0000u64 | (u64::from(self.rng.gen::<u32>()) << 8)
                } else {
                    0x0100_0000_0000_0000u64 | (u64::from(self.rng.gen::<u32>()) << 20)
                };
                for w in &mut words {
                    let near: u64 = u64::from(self.rng.gen::<u16>()) * 8;
                    *w = if self.rng.gen::<f64>() < 0.15 { 0 } else { base.wrapping_add(near) };
                }
            }
            LineClass::Float => {
                // Doubles in a narrow magnitude range, as in dense FP arrays.
                for w in &mut words {
                    let v: f64 = self.rng.gen::<f64>() * 1000.0 - 500.0;
                    *w = v.to_bits();
                }
            }
            LineClass::Text => {
                for w in &mut words {
                    let mut bytes = [0u8; 8];
                    for b in &mut bytes {
                        *b = self.rng.gen_range(0x20..0x7F);
                    }
                    *w = u64::from_le_bytes(bytes);
                }
            }
            LineClass::Random => {
                for w in &mut words {
                    *w = self.rng.gen();
                }
            }
        }
        MemoryLine::from_words(words)
    }

    fn incremental_update(&mut self, old: &MemoryLine) -> MemoryLine {
        let mut new = *old;
        let mut changed_any = false;
        for i in 0..LINE_WORDS {
            if self.rng.gen::<f64>() >= self.profile.word_modify_prob {
                continue;
            }
            changed_any = true;
            let w = old.word(i);
            // Preserve the word's general shape: small additive delta for
            // integer-looking words, low-byte churn otherwise.
            let updated = if w == 0 {
                u64::from(self.rng.gen::<u8>())
            } else if w < (1 << 32) {
                let delta = i64::from(self.rng.gen::<i8>());
                (w as i64).wrapping_add(delta).max(0) as u64
            } else {
                // In-place update of a larger value (offset advance, pointer
                // bump, counter increment): a small signed delta on the low
                // part, keeping the upper bytes and the overall bias intact.
                let delta = i64::from(self.rng.gen::<i16>() >> 4);
                w.wrapping_add(delta as u64)
            };
            new.set_word(i, updated);
        }
        if !changed_any {
            // Guarantee at least one modified word so the write is not a no-op.
            let i = self.rng.gen_range(0..LINE_WORDS);
            new.set_word(i, old.word(i) ^ u64::from(self.rng.gen::<u8>()) << 1 | 1);
        }
        new
    }
}

/// Generates `(old, new)` pairs of uniformly random 512-bit lines with no
/// temporal locality, used for the paper's "random workloads" experiments.
#[derive(Debug)]
pub struct RandomTraceGenerator {
    rng: StdRng,
}

impl RandomTraceGenerator {
    /// Creates a random-data generator with the given seed.
    pub fn new(seed: u64) -> RandomTraceGenerator {
        RandomTraceGenerator { rng: StdRng::seed_from_u64(seed) }
    }

    /// Generates one record: independent uniformly random old and new lines.
    pub fn next_record(&mut self) -> WriteRecord {
        let mut old = [0u64; LINE_WORDS];
        let mut new = [0u64; LINE_WORDS];
        for i in 0..LINE_WORDS {
            old[i] = self.rng.gen();
            new[i] = self.rng.gen();
        }
        WriteRecord::new(0, MemoryLine::from_words(old), MemoryLine::from_words(new))
    }

    /// Generates a trace of `count` random records.
    pub fn generate(&mut self, count: usize) -> Trace {
        let mut trace = Trace::new("random");
        for _ in 0..count {
            trace.push(self.next_record());
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Benchmark, WorkloadProfile};
    use wlcrc_compress_check::*;

    /// Minimal WLC-style compressibility check reimplemented locally so this
    /// crate does not depend on the compression crate (avoids a cycle).
    mod wlcrc_compress_check {
        use wlcrc_pcm::line::{word, MemoryLine};

        pub fn wlc_compressible(line: &MemoryLine, k: usize) -> bool {
            line.words().iter().all(|&w| word::msbs_identical(w, k))
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = Benchmark::Gcc.profile();
        let a = TraceGenerator::new(p.clone(), 42).generate(200);
        let b = TraceGenerator::new(p, 42).generate(200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = Benchmark::Gcc.profile();
        let a = TraceGenerator::new(p.clone(), 1).generate(100);
        let b = TraceGenerator::new(p, 2).generate(100);
        assert_ne!(a, b);
    }

    #[test]
    fn old_value_tracks_previous_write() {
        let mut profile = Benchmark::Libquantum.profile();
        profile.working_set_lines = 4; // force frequent rewrites
        let mut generator = TraceGenerator::new(profile, 7);
        let trace = generator.generate(500);
        let mut shadow: HashMap<u64, MemoryLine> = HashMap::new();
        for rec in trace.iter() {
            if let Some(prev) = shadow.get(&rec.address) {
                assert_eq!(*prev, rec.old, "old value must equal the previously written value");
            }
            shadow.insert(rec.address, rec.new);
        }
    }

    #[test]
    fn biased_workloads_are_mostly_wlc_compressible() {
        let mut total = 0usize;
        let mut compressible = 0usize;
        for b in Benchmark::ALL {
            let mut generator = TraceGenerator::new(b.profile(), 11);
            let trace = generator.generate(400);
            for rec in trace.iter() {
                total += 1;
                if wlc_compressible(&rec.new, 6) {
                    compressible += 1;
                }
            }
        }
        let fraction = compressible as f64 / total as f64;
        assert!(
            fraction > 0.85,
            "average WLC(k=6) coverage should match the paper's >91% (got {fraction:.2})"
        );
    }

    #[test]
    fn random_workload_is_rarely_compressible() {
        let mut generator = RandomTraceGenerator::new(3);
        let trace = generator.generate(300);
        let compressible = trace.iter().filter(|r| wlc_compressible(&r.new, 6)).count();
        assert!(compressible < 5);
    }

    #[test]
    fn biased_workloads_have_symbol_bias() {
        // Symbols 00 and 11 must dominate over 01 and 10 on real workloads.
        let mut hist = [0usize; 4];
        for b in Benchmark::ALL {
            let mut generator = TraceGenerator::new(b.profile(), 5);
            for rec in generator.generate(200).iter() {
                let h = rec.new.symbol_histogram();
                for i in 0..4 {
                    hist[i] += h[i];
                }
            }
        }
        let biased = hist[0b00] + hist[0b11];
        let unbiased = hist[0b01] + hist[0b10];
        assert!(biased > 2 * unbiased, "00/11 should dominate (biased {biased} vs {unbiased})");
    }

    #[test]
    fn rewrites_preserve_locality() {
        let mut profile = Benchmark::Astar.profile();
        profile.working_set_lines = 8;
        let mut generator = TraceGenerator::new(profile, 9);
        let trace = generator.generate(800);
        // With strong locality most rewrites should change well under half
        // of the line's bits.
        let mean = trace.mean_changed_bits();
        assert!(mean < 200.0, "mean changed bits {mean}");
        assert!(mean > 0.0);
    }

    #[test]
    fn random_profile_generator_matches_random_class() {
        let p = WorkloadProfile::random_data(64);
        let mut generator = TraceGenerator::new(p, 13);
        let trace = generator.generate(100);
        let compressible = trace.iter().filter(|r| wlc_compressible(&r.new, 6)).count();
        assert!(compressible < 5);
    }
}
