//! Differential-write cost evaluation shared by the coset codecs.
//!
//! The functions here are the **scalar reference implementations**: they walk
//! a block cell by cell exactly as the paper describes the hardware doing it.
//! The production `encode()` paths of every codec in this crate use the
//! bit-parallel kernel in [`wlcrc_pcm::kernel`] instead (transition LUTs +
//! plane popcounts) and are pinned byte-identical to these routines by the
//! `kernel_equivalence` test suite and by each codec's `encode_scalar`
//! oracle; with integer-valued energy tables (Table II and all Figure 14
//! configurations) the two are exact, not merely approximately equal.

use crate::candidate::CosetCandidate;
use std::ops::Range;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::physical::PhysicalLine;

/// The differential-write energy (pJ) of encoding the data cells in `cells`
/// of `data` with `candidate`, given the currently stored states in `old`.
///
/// Cell index `i` of the data maps to cell index `i` of the stored line
/// (schemes that relocate data must do their own bookkeeping).
pub fn block_cost(
    data: &MemoryLine,
    old: &PhysicalLine,
    cells: Range<usize>,
    candidate: &CosetCandidate,
    energy: &EnergyModel,
) -> f64 {
    let mut cost = 0.0;
    for cell in cells {
        let target = candidate.state_of(data.symbol(cell));
        cost += energy.transition_energy_pj(old.state(cell), target);
    }
    cost
}

/// Like [`block_cost`] but counting the number of cells that would be
/// programmed instead of the energy: the scalar oracle of
/// `wlcrc_pcm::kernel::block_updated_cells`, which the kernel's
/// `word_pair_sweep_matches_per_block_cost` test uses as the reference for
/// WLCRC's update counts.
pub fn block_updated_cells(
    data: &MemoryLine,
    old: &PhysicalLine,
    cells: Range<usize>,
    candidate: &CosetCandidate,
) -> usize {
    let mut updated = 0;
    for cell in cells {
        let target = candidate.state_of(data.symbol(cell));
        if old.state(cell) != target {
            updated += 1;
        }
    }
    updated
}

/// Writes the encoding of the data cells in `cells` with `candidate` into
/// `out` (at the same cell indices).
pub fn write_block(
    data: &MemoryLine,
    out: &mut PhysicalLine,
    cells: Range<usize>,
    candidate: &CosetCandidate,
) {
    for cell in cells {
        out.set_state(cell, candidate.state_of(data.symbol(cell)));
    }
}

/// Decodes the stored states in `cells` with `candidate` back into `data`
/// (at the same cell indices).
pub fn read_block(
    stored: &PhysicalLine,
    data: &mut MemoryLine,
    cells: Range<usize>,
    candidate: &CosetCandidate,
) {
    for cell in cells {
        data.set_symbol(cell, candidate.symbol_of(stored.state(cell)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{c1, c2};
    use wlcrc_pcm::state::CellState;
    use wlcrc_pcm::LINE_CELLS;

    #[test]
    fn identical_content_costs_nothing() {
        let energy = EnergyModel::paper_default();
        let data = MemoryLine::ZERO;
        // Old line already stores all-zero data under C1 (all S1).
        let old = PhysicalLine::all_reset(LINE_CELLS);
        assert_eq!(block_cost(&data, &old, 0..LINE_CELLS, &c1(), &energy), 0.0);
        assert_eq!(block_updated_cells(&data, &old, 0..LINE_CELLS, &c1()), 0);
    }

    #[test]
    fn candidate_choice_changes_cost() {
        let energy = EnergyModel::paper_default();
        // A block of all-ones data over an all-S1 old line:
        // C1 maps 11 -> S3 (343 pJ per cell); C2 maps 11 -> S1 (0 pJ, unchanged).
        let data = MemoryLine::ZERO.complement();
        let old = PhysicalLine::all_reset(LINE_CELLS);
        let cost_c1 = block_cost(&data, &old, 0..8, &c1(), &energy);
        let cost_c2 = block_cost(&data, &old, 0..8, &c2(), &energy);
        assert_eq!(cost_c1, 8.0 * 343.0);
        assert_eq!(cost_c2, 0.0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let data = MemoryLine::from_words([0x0123_4567_89AB_CDEF; 8]);
        let mut stored = PhysicalLine::all_reset(LINE_CELLS);
        write_block(&data, &mut stored, 0..LINE_CELLS, &c2());
        let mut decoded = MemoryLine::ZERO;
        read_block(&stored, &mut decoded, 0..LINE_CELLS, &c2());
        assert_eq!(decoded, data);
    }

    #[test]
    fn updated_cells_matches_state_changes() {
        let data = MemoryLine::ZERO.complement();
        let mut old = PhysicalLine::all_reset(LINE_CELLS);
        for i in 0..4 {
            old.set_state(i, CellState::S3); // already stores 11 under C1
        }
        assert_eq!(block_updated_cells(&data, &old, 0..8, &c1()), 4);
    }
}
