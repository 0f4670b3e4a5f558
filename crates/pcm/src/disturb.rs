//! Write-disturbance error model.
//!
//! Resetting a cell generates heat that can lower the resistance of adjacent
//! *idle* cells (cells not being programmed in the same write). A cell already
//! in the minimum-resistance state `S2` is immune; cells in `S1`, `S3` and
//! `S4` are disturbed with the per-state rates of Table II (20 nm node).

use crate::physical::{PhysicalLine, LINE_PLANE_WORDS};
use crate::state::CellState;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Per-state write-disturbance error rates (probability that an idle neighbour
/// in the given state is disturbed by one adjacent RESET operation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceModel {
    rates: [f64; 4],
}

impl DisturbanceModel {
    /// The disturbance rates reported in the paper (Table II):
    /// S1: 12.3 %, S2: 0 %, S3: 27.6 %, S4: 15.2 %.
    pub const PAPER_RATES: [f64; 4] = [0.123, 0.0, 0.276, 0.152];

    /// Creates a disturbance model with the given per-state rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(rates: [f64; 4]) -> DisturbanceModel {
        for r in rates {
            assert!((0.0..=1.0).contains(&r), "disturbance rates must be probabilities");
        }
        DisturbanceModel { rates }
    }

    /// The model used by the paper's evaluation.
    pub fn paper_default() -> DisturbanceModel {
        DisturbanceModel::new(Self::PAPER_RATES)
    }

    /// The disturbance probability of an idle cell in `state`.
    #[inline]
    pub fn rate(&self, state: CellState) -> f64 {
        self.rates[state.index()]
    }
}

impl Default for DisturbanceModel {
    fn default() -> DisturbanceModel {
        DisturbanceModel::paper_default()
    }
}

/// The disturbance outcome of one line write.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DisturbanceOutcome {
    /// Number of idle cells disturbed (sampled), split by the class of the
    /// *disturbed* cell.
    pub data_errors: usize,
    /// Disturbed idle cells classified as auxiliary.
    pub aux_errors: usize,
    /// Expected number of disturbed idle cells (sum of probabilities), data cells.
    pub expected_data_errors: f64,
    /// Expected number of disturbed idle cells, auxiliary cells.
    pub expected_aux_errors: f64,
}

impl DisturbanceOutcome {
    /// Total sampled disturbance errors.
    #[inline]
    pub fn total_errors(&self) -> usize {
        self.data_errors + self.aux_errors
    }

    /// Total expected disturbance errors.
    #[inline]
    pub fn expected_total_errors(&self) -> f64 {
        self.expected_data_errors + self.expected_aux_errors
    }
}

impl AddAssign for DisturbanceOutcome {
    fn add_assign(&mut self, rhs: DisturbanceOutcome) {
        self.data_errors += rhs.data_errors;
        self.aux_errors += rhs.aux_errors;
        self.expected_data_errors += rhs.expected_data_errors;
        self.expected_aux_errors += rhs.expected_aux_errors;
    }
}

/// Evaluates write disturbance for one differential write of `new` over `old`.
///
/// Every cell that changes is programmed (and therefore RESET at least once);
/// each of its immediate neighbours (index ± 1 within the line) that is *idle*
/// in this write may be disturbed with the per-state probability of its stored
/// state. `S2` neighbours are immune and are skipped.
///
/// The function returns both a Monte-Carlo sample (using `rng`) and the exact
/// expected value, so callers can choose either statistic.
///
/// # Draw order
///
/// `rng` is drawn once per (written cell, idle non-`S2` neighbour) pair, in
/// ascending order of the written cell, its left neighbour before its right.
/// An idle cell between two written cells is therefore exposed, and drawn
/// for, twice: once per aggressor. The expected errors are summed in the same
/// order. This order is part of the simulated results: changing it changes
/// every sampled count and needs a `SIMULATOR_VERSION_SALT` bump.
///
/// The lines are scanned on their bit planes, over every word they occupy:
/// only the written cells with an idle, disturbable neighbour are visited,
/// found with `trailing_zeros` over word masks, and nothing is allocated.
///
/// # Panics
///
/// Panics if the two lines have a different number of cells.
pub fn evaluate_disturbance<R: Rng + ?Sized>(
    old: &PhysicalLine,
    new: &PhysicalLine,
    model: &DisturbanceModel,
    rng: &mut R,
) -> DisturbanceOutcome {
    assert_eq!(old.len(), new.len());
    let (len, words) = (new.len(), new.len().div_ceil(64));
    let ((o0, o1, _), (n0, n1, aux)) = (old.planes(), new.planes());
    let mut written = [0u64; LINE_PLANE_WORDS];
    // Idle cells whose stored state can be disturbed (anything but S2).
    let mut victims = [0u64; LINE_PLANE_WORDS];
    for w in 0..words {
        let cells = u64::MAX >> (64 - (len - w * 64).min(64));
        written[w] = (o0[w] ^ n0[w]) | (o1[w] ^ n1[w]);
        victims[w] = cells & !written[w] & !(n0[w] & !n1[w]);
    }
    let rates = CellState::ALL.map(|state| model.rate(state));
    let mut outcome = DisturbanceOutcome::default();
    for w in 0..words {
        let below = if w > 0 { victims[w - 1] >> 63 } else { 0 };
        let above = victims.get(w + 1).map_or(0, |word| word & 1);
        // Bit c: cell c's left (right) neighbour is a victim.
        let left = (victims[w] << 1) | below;
        let right = (victims[w] >> 1) | (above << 63);
        let mut aggressors = written[w] & (left | right);
        while aggressors != 0 {
            let b = aggressors.trailing_zeros();
            let cell = w * 64 + b as usize;
            // The left neighbour first, then the right one. An exposed
            // neighbour is a victim, so it lies inside the line.
            for (neighbour, exposed) in [(cell.wrapping_sub(1), left), (cell + 1, right)] {
                if (exposed >> b) & 1 == 0 {
                    continue;
                }
                let (vw, bit) = (neighbour / 64, 1u64 << (neighbour % 64));
                let p = rates[usize::from(n1[vw] & bit != 0) << 1 | usize::from(n0[vw] & bit != 0)];
                let hit = usize::from(rng.gen::<f64>() < p);
                if aux[vw] & bit != 0 {
                    outcome.expected_aux_errors += p;
                    outcome.aux_errors += hit;
                } else {
                    outcome.expected_data_errors += p;
                    outcome.data_errors += hit;
                }
            }
            aggressors &= aggressors - 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::CellClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_writes_no_disturbance() {
        let model = DisturbanceModel::paper_default();
        let line = PhysicalLine::all_reset(16);
        let mut rng = StdRng::seed_from_u64(1);
        let out = evaluate_disturbance(&line, &line, &model, &mut rng);
        assert_eq!(out.total_errors(), 0);
        assert_eq!(out.expected_total_errors(), 0.0);
    }

    #[test]
    fn s2_neighbours_are_immune() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_state(0, CellState::S2);
        old.set_state(2, CellState::S2);
        let mut new = old.clone();
        new.set_state(1, CellState::S4); // write the middle cell
        let mut rng = StdRng::seed_from_u64(1);
        let expected = evaluate_disturbance(&old, &new, &model, &mut rng).expected_total_errors();
        assert_eq!(expected, 0.0);
    }

    #[test]
    fn idle_s3_neighbour_uses_s3_rate() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_state(0, CellState::S3);
        old.set_state(2, CellState::S1);
        let mut new = old.clone();
        new.set_state(1, CellState::S2);
        let mut rng = StdRng::seed_from_u64(1);
        let expected = evaluate_disturbance(&old, &new, &model, &mut rng).expected_total_errors();
        assert!((expected - (0.276 + 0.123)).abs() < 1e-12);
    }

    #[test]
    fn written_neighbours_are_not_idle() {
        let model = DisturbanceModel::paper_default();
        let old = PhysicalLine::all_reset(3);
        let mut new = old.clone();
        new.set_state(0, CellState::S4);
        new.set_state(1, CellState::S4);
        new.set_state(2, CellState::S4);
        // Every cell is written; nothing is idle.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(evaluate_disturbance(&old, &new, &model, &mut rng).expected_total_errors(), 0.0);
    }

    #[test]
    fn sampling_matches_expectation_roughly() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(64);
        for i in (0..64).step_by(2) {
            old.set_state(i, CellState::S3);
        }
        let mut new = old.clone();
        for i in (1..64).step_by(2) {
            new.set_state(i, CellState::S2);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0usize;
        let mut expected = 0.0;
        let rounds = 200;
        for _ in 0..rounds {
            let out = evaluate_disturbance(&old, &new, &model, &mut rng);
            total += out.total_errors();
            expected += out.expected_total_errors();
        }
        let mean = total as f64 / rounds as f64;
        let exp = expected / rounds as f64;
        assert!((mean - exp).abs() < exp * 0.25, "mean {mean} vs expected {exp}");
    }

    #[test]
    fn aux_errors_are_split_out() {
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::all_reset(3);
        old.set_class(0, CellClass::Aux);
        old.set_state(0, CellState::S3);
        let mut new = old.clone();
        new.set_state(1, CellState::S4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_aux = false;
        for _ in 0..200 {
            let out = evaluate_disturbance(&old, &new, &model, &mut rng);
            assert_eq!(out.data_errors + out.aux_errors, out.total_errors());
            if out.aux_errors > 0 {
                saw_aux = true;
            }
            assert!(out.expected_aux_errors > 0.0);
        }
        assert!(saw_aux, "with 27.6% rate over 200 trials an aux error should occur");
    }

    /// Counts its draws; draw number `hit_at` returns 0.0, below every
    /// positive rate, and every other draw the largest value below 1.0.
    struct ScriptedRng {
        draws: usize,
        hit_at: usize,
    }

    impl rand::RngCore for ScriptedRng {
        fn next_u64(&mut self) -> u64 {
            let draw = self.draws;
            self.draws += 1;
            if draw == self.hit_at {
                0
            } else {
                u64::MAX
            }
        }
    }

    #[test]
    fn draws_follow_aggressors_left_neighbour_first() {
        // Cells: idle S3 data, written, idle S1 aux, written, idle S4 data,
        // idle S2 data (immune, never drawn for).
        let model = DisturbanceModel::paper_default();
        let mut old = PhysicalLine::from_states(vec![
            CellState::S3,
            CellState::S1,
            CellState::S1,
            CellState::S1,
            CellState::S4,
            CellState::S2,
        ]);
        old.set_class(2, CellClass::Aux);
        let mut new = old.clone();
        new.set_state(1, CellState::S2);
        new.set_state(3, CellState::S3);
        // One draw per (aggressor, idle neighbour) pair: cell 1 exposes
        // cells 0 then 2, cell 3 exposes cells 2 then 4, so the idle aux
        // cell between the two writes is drawn for twice.
        let victims_are_aux = [false, true, true, false];
        for (hit_at, &aux) in victims_are_aux.iter().enumerate() {
            let mut rng = ScriptedRng { draws: 0, hit_at };
            let out = evaluate_disturbance(&old, &new, &model, &mut rng);
            assert_eq!(rng.draws, 4, "one draw per exposure");
            assert_eq!((out.data_errors, out.aux_errors), if aux { (0, 1) } else { (1, 0) });
            assert_eq!(out.expected_data_errors.to_bits(), (0.276f64 + 0.152).to_bits());
            assert_eq!(out.expected_aux_errors.to_bits(), (0.123f64 + 0.123).to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn invalid_rate_is_rejected() {
        let _ = DisturbanceModel::new([0.1, 0.2, 1.5, 0.0]);
    }
}
