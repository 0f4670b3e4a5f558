//! Physical (stored) cell content of an encoded memory line.

use crate::kernel::{StatePlanes, PLANE_WORDS};
use crate::state::CellState;
use crate::{LINE_CELLS, MAX_LINE_CELLS};
use std::fmt;

/// Classification of a stored cell, used to break write energy and cell-update
/// counts into the *data block* part and the *auxiliary* part, as the paper's
/// figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// A cell holding (possibly encoded) data bits.
    Data,
    /// A cell holding auxiliary information: coset-candidate selectors,
    /// flip flags, compression flags, ECC bits or reclaimed WLC bits.
    Aux,
}

/// Plane words covering the longest line, 64 cells per word.
pub(crate) const LINE_PLANE_WORDS: usize = MAX_LINE_CELLS / 64;

/// The cell states stored in the PCM array for one encoded memory line,
/// together with the data/aux classification of every cell.
///
/// Different encoding schemes store a different number of cells per line
/// (256 data cells plus zero or more auxiliary cells, at most
/// [`MAX_LINE_CELLS`]), so the length is not fixed. Two physical lines are
/// only comparable cell-by-cell if they were produced by the same scheme.
///
/// The line is stored as bit planes, one bit per cell and 64 cells per
/// word: the low and the high bit of each cell's state index, and a plane
/// marking the auxiliary cells. Every bit at and past the cell count is
/// zero, so an all-RESET line is the zero value, equality is plane
/// equality, and the line owns no heap memory.
#[derive(Clone, PartialEq, Eq)]
pub struct PhysicalLine {
    plane0: [u64; LINE_PLANE_WORDS],
    plane1: [u64; LINE_PLANE_WORDS],
    aux: [u64; LINE_PLANE_WORDS],
    len: usize,
}

/// Sets (`on`) or clears the bits of `word` in `mask`.
#[inline]
fn assign(word: &mut u64, mask: u64, on: bool) {
    *word = (*word & !mask) | (mask & 0u64.wrapping_sub(u64::from(on)));
}

impl PhysicalLine {
    /// Creates a physical line of `len` cells, all in the RESET state `S1`,
    /// all classified as data. This models a freshly initialised (erased) line.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LINE_CELLS`].
    pub fn all_reset(len: usize) -> PhysicalLine {
        assert!(len <= MAX_LINE_CELLS, "a line holds at most {MAX_LINE_CELLS} cells, not {len}");
        PhysicalLine {
            plane0: [0; LINE_PLANE_WORDS],
            plane1: [0; LINE_PLANE_WORDS],
            aux: [0; LINE_PLANE_WORDS],
            len,
        }
    }

    /// Creates a physical line from explicit cell states, all classified as data.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_LINE_CELLS`] states.
    pub fn from_states(cells: Vec<CellState>) -> PhysicalLine {
        let mut line = PhysicalLine::all_reset(cells.len());
        for (index, state) in cells.into_iter().enumerate() {
            line.set_state(index, state);
        }
        line
    }

    /// Creates a physical line from explicit cell states and classes.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths or hold more than
    /// [`MAX_LINE_CELLS`] cells.
    pub fn from_parts(cells: Vec<CellState>, classes: Vec<CellClass>) -> PhysicalLine {
        assert_eq!(cells.len(), classes.len(), "cells and classes must have the same length");
        let mut line = PhysicalLine::from_states(cells);
        for (index, class) in classes.into_iter().enumerate() {
            line.set_class(index, class);
        }
        line
    }

    /// Number of cells in the encoded line.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the line has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The word and in-word bit of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(index < self.len, "cell {index} is out of bounds for a {}-cell line", self.len);
        (index / 64, 1 << (index % 64))
    }

    /// The state of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn state(&self, index: usize) -> CellState {
        let (w, bit) = self.locate(index);
        let lo = usize::from(self.plane0[w] & bit != 0);
        let hi = usize::from(self.plane1[w] & bit != 0);
        CellState::from_index(hi << 1 | lo)
    }

    /// Sets the state of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set_state(&mut self, index: usize, state: CellState) {
        let (w, bit) = self.locate(index);
        assign(&mut self.plane0[w], bit, state.index() & 1 == 1);
        assign(&mut self.plane1[w], bit, state.index() & 2 == 2);
    }

    /// The classification of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn class(&self, index: usize) -> CellClass {
        let (w, bit) = self.locate(index);
        if self.aux[w] & bit != 0 {
            CellClass::Aux
        } else {
            CellClass::Data
        }
    }

    /// Sets the classification of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set_class(&mut self, index: usize, class: CellClass) {
        let (w, bit) = self.locate(index);
        assign(&mut self.aux[w], bit, class == CellClass::Aux);
    }

    /// Number of cells classified as auxiliary.
    pub fn aux_cells(&self) -> usize {
        self.aux.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Number of cells classified as data.
    pub fn data_cells(&self) -> usize {
        self.len() - self.aux_cells()
    }

    /// Iterates over `(index, state, class)` for every cell.
    pub fn iter(&self) -> impl Iterator<Item = (usize, CellState, CellClass)> + '_ {
        (0..self.len).map(|i| (i, self.state(i), self.class(i)))
    }

    /// The bit-plane view of the first 256 cells' states, consumed by the
    /// bit-parallel evaluation kernel ([`crate::kernel`]): a copy of the
    /// line's first four plane words.
    #[inline]
    pub fn state_planes(&self) -> StatePlanes {
        StatePlanes {
            plane0: core::array::from_fn(|w| self.plane0[w]),
            plane1: core::array::from_fn(|w| self.plane1[w]),
        }
    }

    /// Stores the states encoded by a pair of assembled target planes into
    /// the first 256 cells: the one write of a codec that builds its data
    /// region as planes.
    ///
    /// # Panics
    ///
    /// Panics if the line has fewer than 256 cells.
    #[inline]
    pub fn set_data_planes(&mut self, plane0: &[u64; PLANE_WORDS], plane1: &[u64; PLANE_WORDS]) {
        assert!(self.len >= LINE_CELLS, "the data planes cover {LINE_CELLS} cells");
        self.plane0[..PLANE_WORDS].copy_from_slice(plane0);
        self.plane1[..PLANE_WORDS].copy_from_slice(plane1);
    }

    /// Classifies the first 256 cells from a plane: bit `c` of word `c / 64`
    /// set marks cell `c` auxiliary, clear marks it data. The companion of
    /// [`Self::set_data_planes`] for a codec that knows its aux cells as
    /// masks.
    ///
    /// # Panics
    ///
    /// Panics if the line has fewer than 256 cells.
    #[inline]
    pub fn set_data_classes(&mut self, aux: &[u64; PLANE_WORDS]) {
        assert!(self.len >= LINE_CELLS, "the data planes cover {LINE_CELLS} cells");
        self.aux[..PLANE_WORDS].copy_from_slice(aux);
    }

    /// The whole line as `(plane0, plane1, aux)` plane words: what the
    /// accounting in [`crate::write`] and [`crate::disturb`] scans.
    #[inline]
    pub(crate) fn planes(
        &self,
    ) -> (&[u64; LINE_PLANE_WORDS], &[u64; LINE_PLANE_WORDS], &[u64; LINE_PLANE_WORDS]) {
        (&self.plane0, &self.plane1, &self.aux)
    }
}

impl fmt::Debug for PhysicalLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysicalLine {{ cells: {}, aux: {}, states: ", self.len(), self.aux_cells())?;
        for (_, state, _) in self.iter().take(16) {
            write!(f, "{}", state.index() + 1)?;
        }
        if self.len() > 16 {
            write!(f, "...")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reset_is_uniform() {
        let line = PhysicalLine::all_reset(10);
        assert_eq!(line.len(), 10);
        assert!(line.iter().all(|(_, s, _)| s == CellState::S1));
        assert_eq!(line.aux_cells(), 0);
        assert_eq!(line.data_cells(), 10);
    }

    #[test]
    fn states_and_classes_round_trip_through_the_planes() {
        let mut line = PhysicalLine::all_reset(MAX_LINE_CELLS);
        for i in 0..MAX_LINE_CELLS {
            line.set_state(i, CellState::from_index((i * 7 + i / 9) % 4));
            line.set_class(i, if i % 5 == 0 { CellClass::Aux } else { CellClass::Data });
        }
        for (i, state, class) in line.iter() {
            assert_eq!(state, CellState::from_index((i * 7 + i / 9) % 4), "cell {i}");
            assert_eq!(class == CellClass::Aux, i % 5 == 0, "cell {i}");
        }
        assert_eq!(line.aux_cells(), MAX_LINE_CELLS.div_ceil(5));
        line.set_state(3, CellState::S1);
        line.set_class(0, CellClass::Data);
        assert_eq!((line.state(3), line.class(0)), (CellState::S1, CellClass::Data));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cells_past_the_length_are_rejected() {
        let mut line = PhysicalLine::all_reset(4);
        line.set_state(4, CellState::S2);
    }

    #[test]
    #[should_panic]
    fn from_parts_checks_lengths() {
        let _ = PhysicalLine::from_parts(vec![CellState::S1], vec![]);
    }
}
