//! Coset candidates: the symbol-to-state mappings a block may be encoded with.

use std::fmt;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::state::{CellState, Symbol};

/// One coset candidate: a named symbol-to-state mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosetCandidate {
    /// Short name ("C1", "C2", ...).
    name: &'static str,
    mapping: SymbolMapping,
}

impl CosetCandidate {
    /// Creates a candidate from a name and mapping.
    pub const fn new(name: &'static str, mapping: SymbolMapping) -> CosetCandidate {
        CosetCandidate { name, mapping }
    }

    /// The candidate's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The candidate's symbol-to-state mapping.
    pub fn mapping(&self) -> SymbolMapping {
        self.mapping
    }

    /// The state that stores `symbol` under this candidate.
    #[inline]
    pub fn state_of(&self, symbol: Symbol) -> CellState {
        self.mapping.state_of(symbol)
    }

    /// The symbol stored in `state` under this candidate.
    #[inline]
    pub fn symbol_of(&self, state: CellState) -> Symbol {
        self.mapping.symbol_of(state)
    }
}

impl fmt::Display for CosetCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.mapping)
    }
}

/// Builds candidate `C1` of Table I: the default mapping
/// (`S1<-00, S2<-10, S3<-11, S4<-01`).
pub fn c1() -> CosetCandidate {
    CosetCandidate::new("C1", SymbolMapping::default_mapping())
}

/// Builds candidate `C2` of Table I (`S1<-11, S2<-00, S3<-10, S4<-01`),
/// which favours lines biased towards runs of 1's and 0's.
pub fn c2() -> CosetCandidate {
    CosetCandidate::new(
        "C2",
        SymbolMapping::from_symbols_per_state([
            Symbol::new(0b11),
            Symbol::new(0b00),
            Symbol::new(0b10),
            Symbol::new(0b01),
        ]),
    )
}

/// Builds candidate `C3` of Table I (`S1<-11, S2<-01, S3<-00, S4<-10`),
/// chosen so that together with `C1` every symbol can reach a low-energy state.
pub fn c3() -> CosetCandidate {
    CosetCandidate::new(
        "C3",
        SymbolMapping::from_symbols_per_state([
            Symbol::new(0b11),
            Symbol::new(0b01),
            Symbol::new(0b00),
            Symbol::new(0b10),
        ]),
    )
}

/// Builds candidate `C4` of Table I (`S1<-11, S2<-00, S3<-01, S4<-10`).
pub fn c4() -> CosetCandidate {
    CosetCandidate::new(
        "C4",
        SymbolMapping::from_symbols_per_state([
            Symbol::new(0b11),
            Symbol::new(0b00),
            Symbol::new(0b01),
            Symbol::new(0b10),
        ]),
    )
}

/// A named, ordered set of coset candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    name: &'static str,
    candidates: Vec<CosetCandidate>,
}

impl CandidateSet {
    /// Creates a candidate set.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or contains duplicate mappings.
    pub fn new(name: &'static str, candidates: Vec<CosetCandidate>) -> CandidateSet {
        assert!(!candidates.is_empty(), "candidate set cannot be empty");
        for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                assert_ne!(
                    candidates[i].mapping(),
                    candidates[j].mapping(),
                    "candidate set contains duplicate mappings"
                );
            }
        }
        CandidateSet { name, candidates }
    }

    /// The paper's 4cosets set: `C1..C4` of Table I.
    pub fn four_cosets() -> CandidateSet {
        CandidateSet::new("4cosets", vec![c1(), c2(), c3(), c4()])
    }

    /// The paper's 3cosets set: `C1..C3` of Table I (used unrestricted, and as
    /// the candidate pool of the restricted coset coding).
    pub fn three_cosets() -> CandidateSet {
        CandidateSet::new("3cosets", vec![c1(), c2(), c3()])
    }

    /// The prior 6cosets scheme: the six mappings that place each possible
    /// pair of symbols into the two low-energy states `S1`/`S2`, keeping the
    /// relative default order within each pair.
    pub fn six_cosets() -> CandidateSet {
        let default = SymbolMapping::default_mapping();
        let mut candidates = Vec::with_capacity(6);
        let names = ["P1", "P2", "P3", "P4", "P5", "P6"];
        let mut idx = 0;
        for a in 0..4u8 {
            for b in (a + 1)..4u8 {
                let low = [Symbol::new(a), Symbol::new(b)];
                let high: Vec<Symbol> =
                    Symbol::ALL.into_iter().filter(|s| s.value() != a && s.value() != b).collect();
                // Keep the default-relative order within each pair so the
                // encoding stays as close as possible to the original data.
                let ordered = |pair: &[Symbol]| -> (Symbol, Symbol) {
                    let (x, y) = (pair[0], pair[1]);
                    if default.state_of(x) <= default.state_of(y) {
                        (x, y)
                    } else {
                        (y, x)
                    }
                };
                let (l1, l2) = ordered(&low);
                let (h1, h2) = ordered(&high);
                let mapping = SymbolMapping::from_symbols_per_state([l1, l2, h1, h2]);
                candidates.push(CosetCandidate::new(names[idx], mapping));
                idx += 1;
            }
        }
        CandidateSet::new("6cosets", candidates)
    }

    /// The set's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of candidates in the set.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` if the set is empty (never the case for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidates, in order.
    pub fn candidates(&self) -> &[CosetCandidate] {
        &self.candidates
    }

    /// Candidate at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn candidate(&self, index: usize) -> &CosetCandidate {
        &self.candidates[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_candidate_mappings() {
        // Row-by-row check of Table I.
        let table = [
            // (state, C1, C2, C3, C4) symbol values
            (CellState::S1, 0b00, 0b11, 0b11, 0b11),
            (CellState::S2, 0b10, 0b00, 0b01, 0b00),
            (CellState::S3, 0b11, 0b10, 0b00, 0b01),
            (CellState::S4, 0b01, 0b01, 0b10, 0b10),
        ];
        let cands = [c1(), c2(), c3(), c4()];
        for (state, v1, v2, v3, v4) in table {
            let expect = [v1, v2, v3, v4];
            for (cand, val) in cands.iter().zip(expect) {
                assert_eq!(cand.symbol_of(state), Symbol::new(val), "{} at {}", cand.name(), state);
            }
        }
    }

    #[test]
    fn c1_combined_with_c3_covers_all_symbols_with_low_states() {
        // Every symbol maps to a low-energy state in C1 or in C3.
        for s in Symbol::ALL {
            let low_in_c1 = c1().state_of(s).is_low_energy();
            let low_in_c3 = c3().state_of(s).is_low_energy();
            assert!(low_in_c1 || low_in_c3, "symbol {s}");
        }
    }

    #[test]
    fn four_cosets_has_four_distinct_candidates() {
        let set = CandidateSet::four_cosets();
        assert_eq!(set.len(), 4);
        assert_eq!(set.candidate(0).name(), "C1");
    }

    #[test]
    fn three_cosets_selector_still_needs_two_bits() {
        let set = CandidateSet::three_cosets();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn six_cosets_put_every_symbol_pair_in_low_states() {
        let set = CandidateSet::six_cosets();
        assert_eq!(set.len(), 6);
        // For every pair of symbols there must be a candidate mapping both to
        // low-energy states.
        for a in 0..4u8 {
            for b in (a + 1)..4u8 {
                let found = set.candidates().iter().any(|c| {
                    c.state_of(Symbol::new(a)).is_low_energy()
                        && c.state_of(Symbol::new(b)).is_low_energy()
                });
                assert!(found, "no candidate favours pair ({a:02b}, {b:02b})");
            }
        }
    }

    #[test]
    fn six_cosets_contains_the_default_mapping() {
        let set = CandidateSet::six_cosets();
        assert!(set.candidates().iter().any(|c| c.mapping() == SymbolMapping::default_mapping()));
    }

    #[test]
    #[should_panic]
    fn duplicate_candidates_are_rejected() {
        let _ = CandidateSet::new("dup", vec![c1(), c1()]);
    }

    #[test]
    fn display_includes_name() {
        assert!(c2().to_string().starts_with("C2"));
    }
}
