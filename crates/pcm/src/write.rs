//! Differential write: only cells whose state changes are programmed.

use crate::energy::EnergyModel;
use crate::kernel;
use crate::physical::{CellClass, PhysicalLine, LINE_PLANE_WORDS};
use crate::state::CellState;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// The outcome of one differential write of an encoded line into the array.
///
/// Energy and updated-cell counts are broken down into the data-block part and
/// the auxiliary part, following the figures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// Energy (pJ) spent programming data cells that changed.
    pub data_energy_pj: f64,
    /// Energy (pJ) spent programming auxiliary cells that changed.
    pub aux_energy_pj: f64,
    /// Number of data cells that changed and were therefore programmed.
    pub data_cells_updated: usize,
    /// Number of auxiliary cells that changed and were therefore programmed.
    pub aux_cells_updated: usize,
}

impl WriteOutcome {
    /// Total write energy (data + auxiliary), in picojoules.
    #[inline]
    pub fn total_energy_pj(&self) -> f64 {
        self.data_energy_pj + self.aux_energy_pj
    }

    /// Total number of cells programmed (data + auxiliary).
    #[inline]
    pub fn total_cells_updated(&self) -> usize {
        self.data_cells_updated + self.aux_cells_updated
    }
}

impl AddAssign for WriteOutcome {
    fn add_assign(&mut self, rhs: WriteOutcome) {
        self.data_energy_pj += rhs.data_energy_pj;
        self.aux_energy_pj += rhs.aux_energy_pj;
        self.data_cells_updated += rhs.data_cells_updated;
        self.aux_cells_updated += rhs.aux_cells_updated;
    }
}

/// Performs a differential write of `new` over the currently stored `old`
/// content and reports the energy and number of programmed cells.
///
/// A cell is programmed only if its target state differs from the stored
/// state; each programmed cell costs the RESET energy plus the SET energy of
/// its target state. The data/aux split follows the classification carried by
/// the *new* encoded line.
///
/// The lines are compared on their bit planes, over every word they
/// occupy: programmed cells are counted per (class, target state) with
/// popcounts and weighted by the integer energy table, which equals the
/// cell-by-cell f64 sum bit for bit (see [`kernel`]). An energy table with
/// non-integer entries is summed cell by cell in ascending order instead.
///
/// # Panics
///
/// Panics if the two lines have a different number of cells (they must come
/// from the same encoding scheme).
pub fn differential_write(
    old: &PhysicalLine,
    new: &PhysicalLine,
    energy: &EnergyModel,
) -> WriteOutcome {
    assert_eq!(old.len(), new.len(), "differential write requires lines of identical cell count");
    let write_pj = CellState::ALL.map(|state| energy.write_energy_pj(state));
    let words = new.len().div_ceil(64);
    let ((o0, o1, _), (n0, n1, aux)) = (old.planes(), new.planes());
    let changed: [u64; LINE_PLANE_WORDS] =
        core::array::from_fn(|w| (o0[w] ^ n0[w]) | (o1[w] ^ n1[w]));
    let mut outcome = WriteOutcome::default();
    let Some(weights) = kernel::integer_energies(&write_pj) else {
        for (w, &word) in changed.iter().enumerate().take(words) {
            let mut cells = word;
            while cells != 0 {
                let cell = w * 64 + cells.trailing_zeros() as usize;
                let e = write_pj[new.state(cell).index()];
                match new.class(cell) {
                    CellClass::Data => {
                        outcome.data_energy_pj += e;
                        outcome.data_cells_updated += 1;
                    }
                    CellClass::Aux => {
                        outcome.aux_energy_pj += e;
                        outcome.aux_cells_updated += 1;
                    }
                }
                cells &= cells - 1;
            }
        }
        return outcome;
    };
    // Programmed cells per (class, target state); class 0 is data, 1 aux.
    let mut counts = [[0u64; 4]; 2];
    for w in 0..words {
        let targets = [!n1[w] & !n0[w], !n1[w] & n0[w], n1[w] & !n0[w], n1[w] & n0[w]];
        for (class, cells) in [changed[w] & !aux[w], changed[w] & aux[w]].into_iter().enumerate() {
            for (count, target) in counts[class].iter_mut().zip(targets) {
                *count += u64::from((cells & target).count_ones());
            }
        }
    }
    let energy_of = |counts: &[u64; 4]| -> f64 {
        counts.iter().zip(weights).map(|(&count, weight)| count * weight).sum::<u64>() as f64
    };
    outcome.data_energy_pj = energy_of(&counts[0]);
    outcome.aux_energy_pj = energy_of(&counts[1]);
    outcome.data_cells_updated = counts[0].iter().sum::<u64>() as usize;
    outcome.aux_cells_updated = counts[1].iter().sum::<u64>() as usize;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CellState;

    fn line(states: &[CellState]) -> PhysicalLine {
        PhysicalLine::from_states(states.to_vec())
    }

    #[test]
    fn identical_lines_cost_nothing() {
        let e = EnergyModel::paper_default();
        let a = line(&[CellState::S3, CellState::S2, CellState::S4]);
        let out = differential_write(&a, &a, &e);
        assert_eq!(out.total_energy_pj(), 0.0);
        assert_eq!(out.total_cells_updated(), 0);
    }

    #[test]
    fn changed_cells_pay_full_programming_energy() {
        let e = EnergyModel::paper_default();
        let old = line(&[CellState::S1, CellState::S1]);
        let new = line(&[CellState::S4, CellState::S1]);
        let out = differential_write(&old, &new, &e);
        assert_eq!(out.data_cells_updated, 1);
        assert_eq!(out.total_energy_pj(), 36.0 + 547.0);
        assert_eq!(out.aux_cells_updated, 0);
    }

    #[test]
    fn aux_cells_are_accounted_separately() {
        let e = EnergyModel::paper_default();
        let old = PhysicalLine::all_reset(3);
        let mut new = PhysicalLine::all_reset(3);
        new.set_state(0, CellState::S2);
        new.set_state(2, CellState::S3);
        new.set_class(2, CellClass::Aux);
        let out = differential_write(&old, &new, &e);
        assert_eq!(out.data_cells_updated, 1);
        assert_eq!(out.aux_cells_updated, 1);
        assert_eq!(out.data_energy_pj, 56.0);
        assert_eq!(out.aux_energy_pj, 343.0);
    }

    #[test]
    fn write_cost_matches_outcome_total() {
        let e = EnergyModel::paper_default();
        let old = line(&[CellState::S1, CellState::S2, CellState::S3, CellState::S4]);
        let new = line(&[CellState::S4, CellState::S2, CellState::S1, CellState::S2]);
        let out = differential_write(&old, &new, &e);
        let per_cell: f64 =
            (0..new.len()).map(|i| e.transition_energy_pj(old.state(i), new.state(i))).sum();
        assert!((per_cell - out.total_energy_pj()).abs() < 1e-9);
    }

    #[test]
    fn outcomes_accumulate() {
        let e = EnergyModel::paper_default();
        let old = PhysicalLine::all_reset(2);
        let mut new = PhysicalLine::all_reset(2);
        new.set_state(0, CellState::S2);
        let mut acc = WriteOutcome::default();
        acc += differential_write(&old, &new, &e);
        acc += differential_write(&old, &new, &e);
        assert_eq!(acc.data_cells_updated, 2);
        assert_eq!(acc.total_energy_pj(), 112.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let e = EnergyModel::paper_default();
        let _ = differential_write(&PhysicalLine::all_reset(2), &PhysicalLine::all_reset(3), &e);
    }
}
