//! Bit-parallel candidate-evaluation kernel.
//!
//! Every coset-style scheme answers the same question millions of times per
//! simulated trace: *what would it cost to store this block of 2-bit symbols
//! through mapping M, given the states already in the array?* The scalar
//! answer walks the block cell by cell (`symbol()` → `state_of()` →
//! `transition_energy_pj()`), which is a long dependent chain of 2-bit
//! lookups and float adds.
//!
//! This module answers it with word-level bit logic instead:
//!
//! * [`SymbolPlanes`] / [`StatePlanes`] hold a memory line's symbols and a
//!   physical line's states as two bit planes each — `plane0` carries the
//!   low bit of every cell's 2-bit value, `plane1` the high bit, one bit per
//!   cell, 64 cells per `u64` word.
//! * [`TransitionTable`] precomputes, per (symbol→state mapping, energy
//!   model), the full 16-entry `(old state × symbol)` transition-cost table
//!   plus the masks needed to evaluate it in bit-parallel form.
//! * [`block_cost`] and friends combine the two: for each 64-cell plane word
//!   they derive the candidate's target-state planes with a handful of
//!   AND/OR/XOR operations, isolate the cells whose state would change, and
//!   reduce each target-state bucket with one `popcount` — a few dozen word
//!   operations per 64 cells instead of hundreds of scalar steps.
//! * Sweeps over sub-word blocks ([`select_blocks_uniform`],
//!   [`block_costs_uniform_with_targets`], [`sweep_lanes`]) share one lane
//!   pricing of every block of a plane word at once: a lane-wise partial
//!   popcount, the SWAR popcount stopped at the block width, leaves each
//!   block's count in its own lane, and [`Cost::lane_costs`] turns the
//!   counts into energies.
//! * Costs are totalled in one of two [`Cost`] arithmetics, read off the
//!   tables: exact `u64` picojoules when every table is integer-valued
//!   ([`TransitionTable::integer_valued`]), `f64` otherwise. In `u64`,
//!   [`Cost::lane_costs`] prices every block of a plane word with one
//!   lane-wise multiply-add per target-state bucket.
//! * [`select_blocks_uniform`] is the one block-selection entry point of the
//!   coset codecs whose blocks tile the line, at every block width from 4
//!   cells (the paper's 8-bit granularity) to the whole line. It
//!   prices the selector cells the caller describes ([`Selectors`]) in its
//!   arithmetic, so no codec asks whether its energy table is integer, and
//!   hands back the winners' target planes.
//! * [`sweep_lanes`] is the sweep of the WLC-integrated codecs, whose 32-cell
//!   data words end in aux cells: one candidate's cost of every block of a
//!   plane word, in the arithmetic the codec's selection is generic over.
//!
//! The kernel is numerically exact with respect to the scalar path whenever
//! the energy table holds integer-valued picojoule costs (as the paper's
//! Table II and every Figure 14 configuration do): all intermediate sums are
//! integers below 2^53, so grouping terms per bucket cannot round. The
//! scalar routines in `wlcrc_coset::cost` are kept as the reference oracle
//! and the equivalence is pinned by `tests/kernel_equivalence.rs`.

use crate::energy::EnergyModel;
use crate::line::MemoryLine;
use crate::mapping::SymbolMapping;
use crate::physical::PhysicalLine;
use crate::state::{CellState, Symbol};
use crate::{LINE_CELLS, LINE_WORDS};
use std::ops::Range;

/// Number of 64-cell plane words covering the 256 data cells of a line.
pub const PLANE_WORDS: usize = LINE_CELLS / 64;

/// Extracts the even-positioned bits of `x` (bits 0, 2, 4, ...) into the low
/// 32 bits of the result.
#[inline]
fn even_bits(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Inverse of [`even_bits`]: spreads the low 32 bits of `x` onto the even
/// positions (bit `i` of the input lands on bit `2i`).
#[inline]
fn spread_bits(mut x: u64) -> u64 {
    x &= 0x0000_0000_FFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// The 2-bit symbols of a [`MemoryLine`], de-interleaved into two bit planes.
///
/// Bit `c` of `plane0` word `c / 64` is the **low** bit of cell `c`'s symbol;
/// the same bit of `plane1` is the **high** bit. The per-symbol masks
/// (`mask(v)`) mark the cells holding symbol value `v` and are what the cost
/// kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolPlanes {
    plane0: [u64; PLANE_WORDS],
    plane1: [u64; PLANE_WORDS],
    /// `masks[v][w]`: cells of plane word `w` holding symbol value `v`.
    masks: [[u64; PLANE_WORDS]; 4],
}

impl SymbolPlanes {
    /// Builds the plane view of `line`. The view is a pure function of the
    /// line content, so it is always consistent with [`MemoryLine::symbol`].
    pub fn new(line: &MemoryLine) -> SymbolPlanes {
        let mut plane0 = [0u64; PLANE_WORDS];
        let mut plane1 = [0u64; PLANE_WORDS];
        for w in 0..PLANE_WORDS {
            // Plane word w covers cells 64w..64w+64, i.e. line words 2w, 2w+1.
            let a = line.word(2 * w);
            let b = line.word(2 * w + 1);
            plane0[w] = even_bits(a) | (even_bits(b) << 32);
            plane1[w] = even_bits(a >> 1) | (even_bits(b >> 1) << 32);
        }
        SymbolPlanes::from_planes(plane0, plane1)
    }

    /// Builds the view from raw planes (used when symbols are produced by
    /// XORing plane views rather than from a line).
    pub fn from_planes(plane0: [u64; PLANE_WORDS], plane1: [u64; PLANE_WORDS]) -> SymbolPlanes {
        let mut masks = [[0u64; PLANE_WORDS]; 4];
        for w in 0..PLANE_WORDS {
            let (p0, p1) = (plane0[w], plane1[w]);
            masks[0][w] = !p1 & !p0;
            masks[1][w] = !p1 & p0;
            masks[2][w] = p1 & !p0;
            masks[3][w] = p1 & p0;
        }
        SymbolPlanes { plane0, plane1, masks }
    }

    /// The low-bit plane.
    #[inline]
    pub fn plane0(&self) -> &[u64; PLANE_WORDS] {
        &self.plane0
    }

    /// The high-bit plane.
    #[inline]
    pub fn plane1(&self) -> &[u64; PLANE_WORDS] {
        &self.plane1
    }

    /// The cells-holding-symbol-`v` mask planes.
    #[inline]
    pub fn mask(&self, v: usize) -> &[u64; PLANE_WORDS] {
        &self.masks[v]
    }

    /// The symbol of cell `cell` according to the planes.
    #[inline]
    pub fn symbol(&self, cell: usize) -> Symbol {
        let (w, b) = (cell / 64, cell % 64);
        let lo = (self.plane0[w] >> b) & 1;
        let hi = (self.plane1[w] >> b) & 1;
        Symbol::new((hi << 1 | lo) as u8)
    }

    /// The symbol-wise XOR of two plane views (each cell's 2-bit value XORed
    /// independently) — how FlipMin derives its mask candidates.
    pub fn xor(&self, other: &SymbolPlanes) -> SymbolPlanes {
        let mut plane0 = self.plane0;
        let mut plane1 = self.plane1;
        for w in 0..PLANE_WORDS {
            plane0[w] ^= other.plane0[w];
            plane1[w] ^= other.plane1[w];
        }
        SymbolPlanes::from_planes(plane0, plane1)
    }
}

/// The stored states of the first 256 cells of a [`PhysicalLine`], packed as
/// two bit planes (low/high bit of each state's 2-bit index): a copy of the
/// line's first four plane words, built by [`PhysicalLine::state_planes`].
///
/// Auxiliary cells beyond the 256 data cells are not covered: every scheme
/// touches them with a handful of scalar operations, never inside the
/// per-candidate block loops the kernel accelerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePlanes {
    pub(crate) plane0: [u64; PLANE_WORDS],
    pub(crate) plane1: [u64; PLANE_WORDS],
}

impl StatePlanes {
    /// The low-bit plane of the state indices.
    #[inline]
    pub fn plane0(&self) -> &[u64; PLANE_WORDS] {
        &self.plane0
    }

    /// The high-bit plane of the state indices.
    #[inline]
    pub fn plane1(&self) -> &[u64; PLANE_WORDS] {
        &self.plane1
    }

    /// The state of cell `cell` according to the planes.
    #[inline]
    pub fn state(&self, cell: usize) -> CellState {
        let (w, b) = (cell / 64, cell % 64);
        let lo = (self.plane0[w] >> b) & 1;
        let hi = (self.plane1[w] >> b) & 1;
        CellState::from_index((hi << 1 | lo) as usize)
    }
}

/// The precomputed transition space of one (symbol→state mapping, energy
/// model) pair: the flat 16-entry `cost_pj[old * 4 + symbol]` table, the
/// matching would-this-cell-change bitmask, and the per-symbol target-state
/// masks the bit-parallel kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionTable {
    /// Programming energy of each target state (RESET + SET), by state index.
    write_pj: [f64; 4],
    /// Bit `v` set iff the state storing symbol `v` has an odd index.
    target_lo: u8,
    /// Bit `v` set iff the state storing symbol `v` has index >= 2.
    target_hi: u8,
    /// All-ones when `target_lo` bit `v` is set, else zero (branchless
    /// select masks for [`Self::target_planes`]).
    t0_select: [u64; 4],
    /// All-ones when `target_hi` bit `v` is set, else zero.
    t1_select: [u64; 4],
    /// `write_pj` as integers when every entry is an integer below 2^20
    /// (true for the paper's Table II and all Figure 14 configurations):
    /// weighted popcount sums then run in exact integer arithmetic — the
    /// converted result is bit-identical to the f64 dot product, since both
    /// are integers far below 2^53 — and [`select_blocks_uniform`] totals
    /// and compares whole selections on `u64`.
    write_int: Option<[u64; 4]>,
    /// The state storing each symbol value.
    states: [CellState; 4],
}

impl TransitionTable {
    /// Builds the table for `mapping` under `energy`.
    pub fn new(mapping: &SymbolMapping, energy: &EnergyModel) -> TransitionTable {
        TransitionTable::from_states(
            [
                mapping.state_of(Symbol::new(0)),
                mapping.state_of(Symbol::new(1)),
                mapping.state_of(Symbol::new(2)),
                mapping.state_of(Symbol::new(3)),
            ],
            energy,
        )
    }

    /// Builds the table from the state assigned to each symbol value
    /// (`states[v]` stores symbol `v`). Unlike [`SymbolMapping`], the
    /// assignment does not have to be a bijection, which lets schemes such as
    /// FNW express "mapping composed with symbol complement" directly.
    pub fn from_states(states: [CellState; 4], energy: &EnergyModel) -> TransitionTable {
        let mut target_lo = 0u8;
        let mut target_hi = 0u8;
        for (v, &target) in states.iter().enumerate() {
            if target.index() & 1 == 1 {
                target_lo |= 1 << v;
            }
            if target.index() & 2 == 2 {
                target_hi |= 1 << v;
            }
        }
        let write_pj = [
            energy.write_energy_pj(CellState::S1),
            energy.write_energy_pj(CellState::S2),
            energy.write_energy_pj(CellState::S3),
            energy.write_energy_pj(CellState::S4),
        ];
        let select = |bits: u8| -> [u64; 4] {
            core::array::from_fn(|v| 0u64.wrapping_sub(u64::from(bits >> v & 1)))
        };
        TransitionTable {
            write_pj,
            target_lo,
            target_hi,
            t0_select: select(target_lo),
            t1_select: select(target_hi),
            write_int: integer_energies(&write_pj),
            states,
        }
    }

    /// A placeholder table (identity assignment, zero energy); used to fill
    /// fixed-size candidate-table arrays without heap allocation.
    pub fn placeholder() -> TransitionTable {
        TransitionTable::from_states(CellState::ALL, &EnergyModel::new(0.0, [0.0; 4]))
    }

    /// The flat `(old state × symbol)` transition-cost entry — zero when the
    /// cell already stores the target state, its full programming energy
    /// otherwise.
    #[inline]
    pub fn cost_pj(&self, old: CellState, symbol: Symbol) -> f64 {
        let target = self.states[symbol.value() as usize];
        if old == target {
            0.0
        } else {
            self.write_pj[target.index()]
        }
    }

    /// The state that stores `symbol` under this table's assignment.
    #[inline]
    pub fn state_of(&self, symbol: Symbol) -> CellState {
        self.states[symbol.value() as usize]
    }

    /// `true` when every programming energy is an integer below 2^20 (the
    /// paper's Table II and every Figure 14 configuration): costs under the
    /// table then total exactly in the `u64` [`Cost`] arithmetic.
    #[inline]
    pub fn integer_valued(&self) -> bool {
        self.write_int.is_some()
    }

    /// The target-state planes of a block of symbols: bit `c` of the returned
    /// `(plane0, plane1)` is the low/high bit of the state that would store
    /// cell `c`'s symbol.
    #[inline]
    pub fn target_planes(&self, data: &SymbolPlanes, word: usize) -> (u64, u64) {
        let m =
            [data.masks[0][word], data.masks[1][word], data.masks[2][word], data.masks[3][word]];
        let t0 = (m[0] & self.t0_select[0])
            | (m[1] & self.t0_select[1])
            | (m[2] & self.t0_select[2])
            | (m[3] & self.t0_select[3]);
        let t1 = (m[0] & self.t1_select[0])
            | (m[1] & self.t1_select[1])
            | (m[2] & self.t1_select[2])
            | (m[3] & self.t1_select[3]);
        (t0, t1)
    }

    /// The changed cells of plane word `w` under `mask` when this table
    /// stores `data` over `old`, per target state: four popcounts replace up
    /// to 64 scalar lookups.
    #[inline]
    fn word_counts(&self, data: &SymbolPlanes, old: &StatePlanes, w: usize, mask: u64) -> [u64; 4] {
        let (t0, t1) = self.target_planes(data, w);
        let changed = ((t0 ^ old.plane0[w]) | (t1 ^ old.plane1[w])) & mask;
        buckets(changed, t0, t1).map(|bucket| u64::from(bucket.count_ones()))
    }
}

/// `write_pj` as exact integers when every entry is an integer below 2^20
/// (true for the paper's Table II and all Figure 14 configurations).
/// Popcount-weighted sums of such energies stay integers far below 2^53, so
/// their f64 conversion equals the sequential f64 sum bit for bit.
pub(crate) fn integer_energies(write_pj: &[f64; 4]) -> Option<[u64; 4]> {
    write_pj
        .iter()
        .all(|&e| e.fract() == 0.0 && (0.0..1048576.0).contains(&e))
        .then(|| core::array::from_fn(|i| write_pj[i] as u64))
}

/// Iterates over the (plane-word index, in-word cell mask) pairs covering
/// `cells`, a range of the 256 data cells.
#[inline]
pub fn plane_words(cells: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    debug_assert!(cells.end <= LINE_CELLS);
    let (start, end) = (cells.start, cells.end);
    (start / 64..end.div_ceil(64)).map(move |w| {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min(w * 64 + 64) - w * 64;
        let mask = if hi - lo == 64 { u64::MAX } else { ((1u64 << (hi - lo)) - 1) << lo };
        (w, mask)
    })
}

/// The changed cells of a plane word split by target state: bucket `s`
/// holds the changed cells whose target is state `S(s+1)`. The
/// differential-write cost of a changed cell only depends on its target
/// state (RESET + SET-to-target).
#[inline]
fn buckets(changed: u64, t0: u64, t1: u64) -> [u64; 4] {
    [changed & !t1 & !t0, changed & !t1 & t0, changed & t1 & !t0, changed & t1 & t0]
}

/// The arithmetic costs are totalled in: exact `u64` picojoules when every
/// table is integer-valued ([`TransitionTable::integer_valued`]), `f64`
/// otherwise. A codec that selects in either arithmetic is generic over
/// this trait and reads which one off its tables.
pub trait Cost: Copy + PartialOrd + core::ops::Add<Output = Self> {
    /// The cost of no programmed cell.
    const ZERO: Self;

    /// The programming energy of each target state under `table`.
    ///
    /// # Panics
    ///
    /// The `u64` arithmetic panics unless the table is integer-valued.
    fn weights(table: &TransitionTable) -> [Self; 4];

    /// The energy of `counts[s]` changed cells per target state `S(s+1)`,
    /// summed as `((c0·w0 + c1·w1) + c2·w2) + c3·w3`.
    fn dot(counts: [u64; 4], weights: &[Self; 4]) -> Self;

    /// Every block's energy in one plane word: lane `i` of `lanes[s]` (bits
    /// `i·WIDTH..(i + 1)·WIDTH`) counts the changed cells of the block of
    /// cells `i·WIDTH..(i + 1)·WIDTH` whose target is state `S(s+1)`, and
    /// `out[i]` receives that block's [`Cost::dot`], for each of the word's
    /// `64 / WIDTH` blocks. Later entries are left as they are.
    ///
    /// The `u64` arithmetic widens each bucket's lanes to 32 bits and
    /// multiplies them by the state's energy, every block of the word at
    /// once: a lane holds at most 32 cells and an integer-valued table's
    /// energies are below 2^20, so each block's sum stays below 2^25 and
    /// never carries into the next lane. The `f64` arithmetic takes the dot
    /// product block by block.
    ///
    /// `WIDTH` must be 4, 8, 16 or 32.
    fn lane_costs<const WIDTH: usize>(
        lanes: &[u64; 4],
        weights: &[Self; 4],
        out: &mut [Self; MAX_LANES],
    );

    /// The cost as `f64`; exact for `u64` totals, which stay below 2^53.
    fn to_f64(self) -> f64;
}

impl Cost for u64 {
    const ZERO: u64 = 0;

    fn weights(table: &TransitionTable) -> [u64; 4] {
        table.write_int.expect("integer arithmetic needs an integer-valued table")
    }

    #[inline]
    fn dot(c: [u64; 4], w: &[u64; 4]) -> u64 {
        c[0] * w[0] + c[1] * w[1] + c[2] * w[2] + c[3] * w[3]
    }

    #[inline]
    fn lane_costs<const WIDTH: usize>(lanes: &[u64; 4], w: &[u64; 4], out: &mut [u64; MAX_LANES]) {
        // Word `q` below holds blocks `q` and `q + words` in its two 32-bit
        // lanes: the lanes that start at bit `q·WIDTH` of each half.
        let words = 32 / WIDTH;
        let lane = u64::MAX >> (64 - WIDTH);
        let spread = lane | lane << 32;
        for q in 0..words {
            let shift = q * WIDTH;
            let widened = lanes.map(|bucket| (bucket >> shift) & spread);
            let sum = widened[0] * w[0] + widened[1] * w[1] + widened[2] * w[2] + widened[3] * w[3];
            out[q] = sum & 0xFFFF_FFFF;
            out[q + words] = sum >> 32;
        }
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Cost for f64 {
    const ZERO: f64 = 0.0;

    fn weights(table: &TransitionTable) -> [f64; 4] {
        table.write_pj
    }

    #[inline]
    fn dot(c: [u64; 4], w: &[f64; 4]) -> f64 {
        c[0] as f64 * w[0] + c[1] as f64 * w[1] + c[2] as f64 * w[2] + c[3] as f64 * w[3]
    }

    #[inline]
    fn lane_costs<const WIDTH: usize>(lanes: &[u64; 4], w: &[f64; 4], out: &mut [f64; MAX_LANES]) {
        let lane = u64::MAX >> (64 - WIDTH);
        for (i, slot) in out.iter_mut().enumerate().take(64 / WIDTH) {
            *slot = f64::dot(lanes.map(|bucket| (bucket >> (i * WIDTH)) & lane), w);
        }
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

/// The energy of `counts[s]` changed cells per target state `S(s+1)`.
/// Integer energies give the same integer the f64 dot product produces (all
/// terms far below 2^53), minus the four int→float conversions.
#[inline]
fn bucket_cost(counts: [u64; 4], table: &TransitionTable) -> f64 {
    match &table.write_int {
        Some(weights) => u64::dot(counts, weights) as f64,
        None => f64::dot(counts, &table.write_pj),
    }
}

/// Lane-wise partial popcount: lane `i` of the result (bits
/// `i * width..(i + 1) * width`) holds the number of set bits of `x` in the
/// same lane. These are the first steps of the SWAR popcount, stopped at the
/// lane width, so one call counts every `width`-cell block of a plane word
/// at once instead of one `count_ones` per block (release builds target
/// baseline x86-64, where `count_ones` is itself a full SWAR sequence).
///
/// `width` must be a power of two below 64.
#[inline]
fn lane_popcounts(mut x: u64, width: usize) -> u64 {
    debug_assert!(width.is_power_of_two() && width < 64);
    if width >= 2 {
        x -= (x >> 1) & 0x5555_5555_5555_5555;
    }
    if width >= 4 {
        x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    }
    if width >= 8 {
        x = (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    }
    if width >= 16 {
        x = (x + (x >> 8)) & 0x00FF_00FF_00FF_00FF;
    }
    if width >= 32 {
        x = (x + (x >> 16)) & 0x0000_FFFF_0000_FFFF;
    }
    x
}

/// Bit-parallel equivalent of `wlcrc_coset::cost::block_cost`: the
/// differential-write energy (pJ) of storing the symbols in `cells` of `data`
/// through `table`, given the states in `old`.
pub fn block_cost(
    data: &SymbolPlanes,
    old: &StatePlanes,
    cells: Range<usize>,
    table: &TransitionTable,
) -> f64 {
    let mut cost = 0.0;
    for (w, mask) in plane_words(cells) {
        cost += bucket_cost(table.word_counts(data, old, w, mask), table);
    }
    cost
}

/// Like [`block_cost`], but gives up as soon as the running total reaches
/// `bound`: branch-and-bound for FlipMin's whole-line candidate search (a
/// candidate whose partial cost already matches the incumbent can never win
/// a strict `<` comparison).
///
/// Returns `Some(total)` with `total < bound`, or `None` when the bound was
/// hit.
pub fn block_cost_bounded(
    data: &SymbolPlanes,
    old: &StatePlanes,
    cells: Range<usize>,
    table: &TransitionTable,
    bound: f64,
) -> Option<f64> {
    let mut cost = 0.0;
    for (w, mask) in plane_words(cells) {
        cost += bucket_cost(table.word_counts(data, old, w, mask), table);
        if cost >= bound {
            return None;
        }
    }
    (cost < bound).then_some(cost)
}

/// Costs of `blocks` equal-size blocks tiling the line from cell 0, written
/// into `out[0..blocks]` for one candidate, together with the candidate's
/// target-state planes for every covered word in `targets` (`.0` = low bit,
/// `.1` = high bit), so the caller can assemble the winning encoding with a
/// few mask merges instead of re-mapping every cell.
///
/// For blocks smaller than a plane word this amortises the target-plane and
/// changed-mask computation across every block sharing the word: the
/// word's blocks are priced at once, lane-wise, in the table's arithmetic
/// (exact `u64` when it is integer-valued, `f64` otherwise), which is what
/// makes the fine-granularity (8/16/32-bit) candidate sweeps of the
/// restricted codec profitable. A block of whole words adds its words'
/// costs in ascending order, as [`block_cost`] does.
///
/// # Panics
///
/// Panics if `out` is shorter than `blocks`, `cells_per_block` is not a
/// power of two of at least 4 cells (a lane holds at least 4), or the
/// blocks overrun the line's 256 data cells.
pub fn block_costs_uniform_with_targets(
    data: &SymbolPlanes,
    old: &StatePlanes,
    cells_per_block: usize,
    blocks: usize,
    table: &TransitionTable,
    out: &mut [f64],
    targets: &mut ([u64; PLANE_WORDS], [u64; PLANE_WORDS]),
) {
    assert_tiling(cells_per_block, blocks);
    let out = &mut out[..blocks];
    out.fill(0.0);
    let blocks_per_word = 64 / cells_per_block.min(64);
    for w in 0..(blocks * cells_per_block).div_ceil(64) {
        let (t0, t1) = table.target_planes(data, w);
        (targets.0[w], targets.1[w]) = (t0, t1);
        if cells_per_block >= 64 {
            out[w * 64 / cells_per_block] +=
                bucket_cost(table.word_counts(data, old, w, u64::MAX), table);
            continue;
        }
        let buckets = buckets((t0 ^ old.plane0[w]) | (t1 ^ old.plane1[w]), t0, t1);
        let mut prices = [0.0; MAX_LANES];
        match &table.write_int {
            Some(weights) => {
                let mut exact = [0u64; MAX_LANES];
                price_word(&buckets, weights, cells_per_block, &mut exact);
                prices = exact.map(|cost| cost as f64);
            }
            None => price_word(&buckets, &table.write_pj, cells_per_block, &mut prices),
        }
        let blocks = out[w * blocks_per_word..].iter_mut().take(blocks_per_word);
        for (slot, price) in blocks.zip(prices) {
            *slot = price;
        }
    }
}

/// The block tiling every uniform sweep accepts: blocks of a power of two
/// of at least 4 cells (the narrowest lane [`Cost::lane_costs`] prices),
/// tiling the line's 256 data cells from cell 0.
fn assert_tiling(cells_per_block: usize, blocks: usize) {
    assert!(
        cells_per_block.is_power_of_two() && cells_per_block >= 4,
        "blocks are a power of two of at least 4 cells, not {cells_per_block}"
    );
    assert!(blocks * cells_per_block <= LINE_CELLS, "blocks must tile the line's plane words");
}

/// The selector cells that record each block's chosen candidate, which
/// [`select_blocks_uniform`] prices alongside the block's data cells: zero
/// for a cell that already stores the recording state, that state's
/// programming energy otherwise, at every block width. A stored line keeps
/// its selector cells after its 256 data cells, in block order.
#[derive(Debug, Clone, Copy)]
pub enum Selectors<'a> {
    /// No selector cells are priced (FNW, whose flip bits share cells).
    Unpriced,
    /// One cell per block: cell `256 + b` of the stored line holds block
    /// `b`'s selector, and candidate `i` is recorded as state `S(i+1)`.
    OneCell(&'a PhysicalLine),
    /// Two cells per block: cells `256 + 2b` and `256 + 2b + 1` of the
    /// stored line hold block `b`'s selector, and candidate `i` is recorded
    /// as the state pair `codes[i]`.
    TwoCells {
        /// The stored line.
        stored: &'a PhysicalLine,
        /// The state pair recording each candidate.
        codes: &'a [(CellState, CellState)],
    },
}

/// Each candidate's cost, in arithmetic `T`, of the selector cells that
/// would record it for `block`, priced from the candidate's own table. A
/// two-cell selector costs `t_a + t_b`.
#[inline]
fn selector_costs<T: Cost, const N: usize>(
    selectors: &Selectors<'_>,
    weights: &[[T; 4]; N],
    block: usize,
) -> [T; N] {
    let price = |stored: CellState, target: CellState, i: usize| {
        if stored == target {
            T::ZERO
        } else {
            weights[i][target.index()]
        }
    };
    match selectors {
        Selectors::Unpriced => [T::ZERO; N],
        Selectors::OneCell(stored) => {
            let mut row: [T; N] = core::array::from_fn(|i| weights[i][i]);
            if let Some(kept) = row.get_mut(stored.state(LINE_CELLS + block).index()) {
                *kept = T::ZERO;
            }
            row
        }
        Selectors::TwoCells { stored, codes } => {
            let first = LINE_CELLS + 2 * block;
            let (a, b) = (stored.state(first), stored.state(first + 1));
            core::array::from_fn(|i| price(a, codes[i].0, i) + price(b, codes[i].1, i))
        }
    }
}

/// The inputs of one [`select_blocks_uniform`] call.
struct Sweep<'a> {
    data: &'a SymbolPlanes,
    old: &'a StatePlanes,
    cells_per_block: usize,
    tables: &'a [TransitionTable],
    selectors: Selectors<'a>,
}

type SelectFn = fn(&Sweep<'_>, &mut [u8], &mut [u64; PLANE_WORDS], &mut [u64; PLANE_WORDS]);

/// [`select_core`] for `candidates` tables in arithmetic `T`. With the
/// count known the compiler fully unrolls the candidate loops and keeps the
/// bucket masks in registers instead of spilling a dynamically-indexed
/// array.
fn select_fn<T: Cost>(candidates: usize) -> SelectFn {
    match candidates {
        1 => select_core::<T, 1>,
        2 => select_core::<T, 2>,
        3 => select_core::<T, 3>,
        4 => select_core::<T, 4>,
        5 => select_core::<T, 5>,
        6 => select_core::<T, 6>,
        7 => select_core::<T, 7>,
        _ => select_core::<T, 8>,
    }
}

/// Fused sweep + candidate selection for uniform blocks: for every block of
/// `cells_per_block` cells (tiling the line from cell 0), totals each
/// candidate's data cost and the cost of its `selectors` cells, picks the
/// first strict minimum (matching the scalar `<` scan), records it in
/// `winners`, and merges the winner's target planes into `(out0, out1)`
/// ready for [`PhysicalLine::set_data_planes`].
///
/// Totals are exact `u64` picojoules when every table is integer-valued
/// (the paper's Table II and the Figure 14 configurations), and `f64`
/// otherwise. Sub-word blocks (4 to 32 cells) are priced lane-wise, every
/// block of a plane word at once through [`Cost::lane_costs`], and sum data
/// cost then selector cost; a word no candidate reprograms (a rewrite of
/// identical content) is decided by its selector cells alone. Whole-word
/// blocks (64, 128 or 256 cells) take one `count_ones` per word and bucket,
/// and sum from the selector cost, adding the block's words in ascending
/// order.
///
/// # Panics
///
/// Panics if `cells_per_block` is not a power of two of at least 4 cells
/// (a lane holds at least 4, and no codec's blocks are narrower than 8
/// bits), the blocks overrun the line's 256 data cells, `winners` is shorter
/// than the block count, the stored line lacks a block's selector cells, or
/// `tables` holds no or more than eight candidates (more than four with one
/// selector cell, more than `codes` with two).
#[allow(clippy::too_many_arguments)]
pub fn select_blocks_uniform(
    data: &SymbolPlanes,
    old: &StatePlanes,
    cells_per_block: usize,
    blocks: usize,
    tables: &[TransitionTable],
    selectors: Selectors<'_>,
    winners: &mut [u8],
    out0: &mut [u64; PLANE_WORDS],
    out1: &mut [u64; PLANE_WORDS],
) {
    assert_tiling(cells_per_block, blocks);
    assert!(winners.len() >= blocks, "winners slice too short");
    assert!((1..=8).contains(&tables.len()), "one to eight candidates");
    let select = if tables.iter().all(|table| table.write_int.is_some()) {
        select_fn::<u64>(tables.len())
    } else {
        select_fn::<f64>(tables.len())
    };
    let sweep = Sweep { data, old, cells_per_block, tables, selectors };
    select(&sweep, &mut winners[..blocks], out0, out1);
}

fn select_core<T: Cost, const N: usize>(
    sweep: &Sweep<'_>,
    winners: &mut [u8],
    out0: &mut [u64; PLANE_WORDS],
    out1: &mut [u64; PLANE_WORDS],
) {
    let tables: &[TransitionTable; N] = sweep.tables.try_into().expect("N candidate tables");
    let weights = tables.each_ref().map(T::weights);
    let (data, old, cells_per_block) = (sweep.data, sweep.old, sweep.cells_per_block);
    if cells_per_block >= 64 {
        for (b, slot) in winners.iter_mut().enumerate() {
            let words = b * cells_per_block / 64..(b + 1) * cells_per_block / 64;
            let mut costs = selector_costs(&sweep.selectors, &weights, b);
            for w in words.clone() {
                costs = core::array::from_fn(|i| {
                    costs[i] + T::dot(tables[i].word_counts(data, old, w, u64::MAX), &weights[i])
                });
            }
            let best = first_minimum(&costs);
            *slot = best as u8;
            for w in words {
                let (t0, t1) = tables[best].target_planes(data, w);
                (out0[w], out1[w]) = (out0[w] | t0, out1[w] | t1);
            }
        }
        return;
    }
    let blocks_per_word = 64 / cells_per_block;
    let block_mask = (1u64 << cells_per_block) - 1;
    for (w, chunk) in winners.chunks_mut(blocks_per_word).enumerate() {
        let planes = tables.each_ref().map(|table| table.target_planes(data, w));
        let changed = planes.map(|(t0, t1)| (t0 ^ old.plane0[w]) | (t1 ^ old.plane1[w]));
        let prices = changed.iter().any(|&c| c != 0).then(|| {
            let mut prices = [[T::ZERO; MAX_LANES]; N];
            for (idx, prices) in prices.iter_mut().enumerate() {
                let (t0, t1) = planes[idx];
                price_word(&buckets(changed[idx], t0, t1), &weights[idx], cells_per_block, prices);
            }
            prices
        });
        for (b, slot) in chunk.iter_mut().enumerate() {
            let selector = selector_costs(&sweep.selectors, &weights, w * blocks_per_word + b);
            let costs = match &prices {
                Some(prices) => core::array::from_fn(|idx| prices[idx][b] + selector[idx]),
                None => selector,
            };
            let best = first_minimum(&costs);
            *slot = best as u8;
            let mask = block_mask << (b * cells_per_block);
            out0[w] |= planes[best].0 & mask;
            out1[w] |= planes[best].1 & mask;
        }
    }
}

/// The index of the first strict minimum of `costs` (the scalar `<` scan).
#[inline]
fn first_minimum<T: Cost>(costs: &[T]) -> usize {
    let mut best = (0, costs[0]);
    for (idx, &cost) in costs.iter().enumerate().skip(1) {
        if cost < best.1 {
            best = (idx, cost);
        }
    }
    best.0
}

/// Most blocks of one plane word a lane sweep prices: 16, at 4 cells each.
pub const MAX_LANES: usize = 16;

/// One candidate's prices of one plane word, written by [`sweep_lanes`].
#[derive(Debug, Clone, Copy)]
pub struct LaneSweep<T> {
    /// The candidate's target planes of the word: low and high state bit.
    pub targets: (u64, u64),
    /// The priced cells the candidate would reprogram.
    pub changed: u64,
    /// `costs[i]`: the energy of the changed cells of lane `i`, the block of
    /// cells `i·width..(i + 1)·width`.
    pub costs: [T; MAX_LANES],
}

impl<T: Cost> LaneSweep<T> {
    /// A sweep that prices nothing: the value a sweep array starts from.
    pub const EMPTY: LaneSweep<T> =
        LaneSweep { targets: (0, 0), changed: 0, costs: [T::ZERO; MAX_LANES] };
}

/// The lane sweep: one candidate's differential-write energy, in arithmetic
/// `T`, of every `width`-cell block of plane word `word`, counting only the
/// `priced` cells, with its target planes, written into `out` (costs past
/// the word's `64 / width` blocks are left as they are). One lane-wise
/// popcount per target-state bucket counts every block of the word, and
/// [`Cost::lane_costs`] turns the counts into energies: in `u64`, one
/// lane-wise multiply-add per bucket prices every block. `weights` are the
/// table's [`Cost::weights`].
///
/// A codec whose blocks do not tile the word (the WLC word pairs, whose
/// 32-cell data words end in aux cells) masks those cells out of `priced`.
///
/// # Panics
///
/// Panics if `width` is not 4, 8, 16 or 32.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sweep_lanes<T: Cost>(
    data: &SymbolPlanes,
    old: &StatePlanes,
    table: &TransitionTable,
    weights: &[T; 4],
    word: usize,
    priced: u64,
    width: usize,
    out: &mut LaneSweep<T>,
) {
    let (t0, t1) = table.target_planes(data, word);
    let changed = ((t0 ^ old.plane0[word]) | (t1 ^ old.plane1[word])) & priced;
    (out.targets, out.changed) = ((t0, t1), changed);
    price_word(&buckets(changed, t0, t1), weights, width, &mut out.costs);
}

/// The one lane pricing of the kernel, shared by [`sweep_lanes`],
/// [`select_blocks_uniform`] and [`block_costs_uniform_with_targets`]:
/// every `width`-cell block's cost of one plane word, in arithmetic `T`,
/// from the word's four target-state buckets ([`buckets`]). Costs past the
/// word's `64 / width` blocks are left as they are.
///
/// # Panics
///
/// Panics if `width` is not 4, 8, 16 or 32.
#[inline(always)]
fn price_word<T: Cost>(
    buckets: &[u64; 4],
    weights: &[T; 4],
    width: usize,
    costs: &mut [T; MAX_LANES],
) {
    match width {
        4 => price_lanes::<T, 4>(buckets, weights, costs),
        8 => price_lanes::<T, 8>(buckets, weights, costs),
        16 => price_lanes::<T, 16>(buckets, weights, costs),
        32 => price_lanes::<T, 32>(buckets, weights, costs),
        _ => panic!("lanes are 4, 8, 16 or 32 cells wide, not {width}"),
    }
}

/// [`price_word`] at one lane width, so the lane loops unroll.
#[inline(always)]
fn price_lanes<T: Cost, const WIDTH: usize>(
    buckets: &[u64; 4],
    weights: &[T; 4],
    costs: &mut [T; MAX_LANES],
) {
    T::lane_costs::<WIDTH>(&buckets.map(|bucket| lane_popcounts(bucket, WIDTH)), weights, costs);
}

/// Bit-parallel equivalent of `wlcrc_coset::cost::block_updated_cells`: the
/// number of cells in `cells` whose stored state would change.
pub fn block_updated_cells(
    data: &SymbolPlanes,
    old: &StatePlanes,
    cells: Range<usize>,
    table: &TransitionTable,
) -> usize {
    let mut updated = 0u32;
    for (w, mask) in plane_words(cells) {
        let (t0, t1) = table.target_planes(data, w);
        updated += (((t0 ^ old.plane0[w]) | (t1 ^ old.plane1[w])) & mask).count_ones();
    }
    updated as usize
}

/// Re-interleaves a pair of bit planes back into a [`MemoryLine`]: cell `c`
/// of the result holds the 2-bit value `(plane1 bit c) << 1 | (plane0 bit c)`.
/// Exact inverse of [`SymbolPlanes::new`]'s de-interleave, so decode paths
/// can assemble the whole data line with a handful of word shuffles instead
/// of 256 `set_symbol` calls.
pub fn line_from_planes(plane0: &[u64; PLANE_WORDS], plane1: &[u64; PLANE_WORDS]) -> MemoryLine {
    let mut words = [0u64; LINE_WORDS];
    for w in 0..PLANE_WORDS {
        let (p0, p1) = (plane0[w], plane1[w]);
        words[2 * w] = spread_bits(p0) | (spread_bits(p1) << 1);
        words[2 * w + 1] = spread_bits(p0 >> 32) | (spread_bits(p1 >> 32) << 1);
    }
    MemoryLine::from_words(words)
}

/// Maps stored-state planes to symbol planes under a per-state symbol
/// assignment (`symbols[i]` is the symbol read from state `S(i+1)`): the
/// bit-parallel inverse mapping every decode path needs. Returns
/// `(plane0, plane1)` of the symbols.
pub fn symbol_planes_from_states(
    old: &StatePlanes,
    symbols: [Symbol; 4],
) -> ([u64; PLANE_WORDS], [u64; PLANE_WORDS]) {
    // Branchless select masks, exactly like TransitionTable::target_planes
    // but in the state→symbol direction.
    let mut lo_bits = 0u8;
    let mut hi_bits = 0u8;
    for (s, sym) in symbols.iter().enumerate() {
        lo_bits |= (sym.value() & 1) << s;
        hi_bits |= ((sym.value() >> 1) & 1) << s;
    }
    let select = |bits: u8| -> [u64; 4] {
        core::array::from_fn(|s| 0u64.wrapping_sub(u64::from(bits >> s & 1)))
    };
    let (s0_sel, s1_sel) = (select(lo_bits), select(hi_bits));
    let mut plane0 = [0u64; PLANE_WORDS];
    let mut plane1 = [0u64; PLANE_WORDS];
    for w in 0..PLANE_WORDS {
        let (o0, o1) = (old.plane0[w], old.plane1[w]);
        let m = [!o1 & !o0, !o1 & o0, o1 & !o0, o1 & o0];
        plane0[w] =
            (m[0] & s0_sel[0]) | (m[1] & s0_sel[1]) | (m[2] & s0_sel[2]) | (m[3] & s0_sel[3]);
        plane1[w] =
            (m[0] & s1_sel[0]) | (m[1] & s1_sel[1]) | (m[2] & s1_sel[2]) | (m[3] & s1_sel[3]);
    }
    (plane0, plane1)
}

/// Stores the 256 symbols of `data` into the first 256 cells of `out`
/// through the fixed assignment of `table`: the raw-line store of the
/// Baseline codec and of the compression-gated codecs' fallback. The target
/// planes are assembled word by word and stored with one
/// [`PhysicalLine::set_data_planes`].
///
/// # Panics
///
/// Panics if `out` has fewer than 256 cells.
pub fn store_mapped(data: &MemoryLine, table: &TransitionTable, out: &mut PhysicalLine) {
    let symbols = SymbolPlanes::new(data);
    let mut plane0 = [0u64; PLANE_WORDS];
    let mut plane1 = [0u64; PLANE_WORDS];
    for w in 0..PLANE_WORDS {
        (plane0[w], plane1[w]) = table.target_planes(&symbols, w);
    }
    out.set_data_planes(&plane0, &plane1);
}

/// Reads the first 256 cells of `stored` back through the inverse of
/// `mapping`: the load matching [`store_mapped`].
pub fn load_mapped(stored: &PhysicalLine, mapping: &SymbolMapping) -> MemoryLine {
    let (plane0, plane1) =
        symbol_planes_from_states(&stored.state_planes(), mapping.symbols_per_state());
    line_from_planes(&plane0, &plane1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::CellClass;
    use crate::MAX_LINE_CELLS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::AssertUnwindSafe;

    fn random_line(rng: &mut StdRng) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        for w in &mut words {
            *w = rng.gen();
        }
        MemoryLine::from_words(words)
    }

    fn random_stored(rng: &mut StdRng) -> PhysicalLine {
        let states: Vec<CellState> =
            (0..LINE_CELLS).map(|_| CellState::from_index(rng.gen_range(0..4))).collect();
        PhysicalLine::from_states(states)
    }

    /// Scalar reference: per-cell mapping + transition energy.
    fn scalar_cost(
        data: &MemoryLine,
        old: &PhysicalLine,
        cells: Range<usize>,
        states: [CellState; 4],
        energy: &EnergyModel,
    ) -> f64 {
        let mut cost = 0.0;
        for cell in cells {
            let target = states[data.symbol(cell).value() as usize];
            cost += energy.transition_energy_pj(old.state(cell), target);
        }
        cost
    }

    #[test]
    fn symbol_planes_match_symbol_accessor() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let line = random_line(&mut rng);
            let planes = SymbolPlanes::new(&line);
            for cell in 0..LINE_CELLS {
                assert_eq!(planes.symbol(cell), line.symbol(cell), "cell {cell}");
            }
        }
    }

    #[test]
    fn state_planes_match_state_accessor() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let stored = random_stored(&mut rng);
            let planes = stored.state_planes();
            for cell in 0..LINE_CELLS {
                assert_eq!(planes.state(cell), stored.state(cell), "cell {cell}");
            }
        }
    }

    #[test]
    fn state_planes_and_classes_cover_every_line_length() {
        let mut rng = StdRng::seed_from_u64(15);
        for len in 0..=MAX_LINE_CELLS {
            let states: Vec<CellState> =
                (0..len).map(|_| CellState::from_index(rng.gen_range(0..4))).collect();
            let classes: Vec<CellClass> = (0..len)
                .map(|_| if rng.gen_range(0..3) == 0 { CellClass::Aux } else { CellClass::Data })
                .collect();
            let line = PhysicalLine::from_parts(states.clone(), classes.clone());
            let planes = line.state_planes();
            for cell in 0..LINE_CELLS {
                let state = states.get(cell).copied().unwrap_or(CellState::S1);
                assert_eq!(planes.state(cell), state, "len {len} cell {cell}");
            }
            let expect: Vec<_> = (0..len).map(|i| (i, states[i], classes[i])).collect();
            assert_eq!(line.iter().collect::<Vec<_>>(), expect, "len {len}");
            let aux = classes.iter().filter(|&&class| class == CellClass::Aux).count();
            assert_eq!(line.aux_cells(), aux, "len {len}");
        }
    }

    #[test]
    fn transition_table_matches_energy_model() {
        let energy = EnergyModel::paper_default();
        let mapping = SymbolMapping::default_mapping();
        let table = TransitionTable::new(&mapping, &energy);
        for old in CellState::ALL {
            for sym in Symbol::ALL {
                let target = mapping.state_of(sym);
                assert_eq!(table.cost_pj(old, sym), energy.transition_energy_pj(old, target));
                assert_eq!(table.state_of(sym), target);
            }
        }
    }

    #[test]
    fn block_cost_matches_scalar_for_all_mappings() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        for mapping in SymbolMapping::all_mappings() {
            let table = TransitionTable::new(&mapping, &energy);
            let states = [
                mapping.state_of(Symbol::new(0)),
                mapping.state_of(Symbol::new(1)),
                mapping.state_of(Symbol::new(2)),
                mapping.state_of(Symbol::new(3)),
            ];
            let data = random_line(&mut rng);
            let old = random_stored(&mut rng);
            let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
            for cells in [0..LINE_CELLS, 0..4, 60..68, 128..192, 7..9, 250..256] {
                let expect = scalar_cost(&data, &old, cells.clone(), states, &energy);
                assert_eq!(block_cost(&dp, &op, cells.clone(), &table), expect, "{cells:?}");
            }
        }
    }

    #[test]
    fn updated_cells_matches_scalar() {
        let energy = EnergyModel::paper_default();
        let mapping = SymbolMapping::default_mapping();
        let table = TransitionTable::new(&mapping, &energy);
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_line(&mut rng);
        let old = random_stored(&mut rng);
        let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
        for cells in [0..LINE_CELLS, 3..77, 64..128] {
            let expect =
                cells.clone().filter(|&c| old.state(c) != mapping.state_of(data.symbol(c))).count();
            assert_eq!(block_updated_cells(&dp, &op, cells.clone(), &table), expect);
        }
    }

    #[test]
    fn uniform_sweep_matches_per_block_cost() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(11);
        for mapping in [SymbolMapping::default_mapping(), SymbolMapping::all_mappings()[17]] {
            let table = TransitionTable::new(&mapping, &energy);
            let data = random_line(&mut rng);
            let old = random_stored(&mut rng);
            let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
            for cells_per_block in [4usize, 8, 16, 32, 64, 128, 256] {
                let blocks = LINE_CELLS / cells_per_block;
                let mut out = [0.0f64; 64];
                let mut targets = ([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]);
                block_costs_uniform_with_targets(
                    &dp,
                    &op,
                    cells_per_block,
                    blocks,
                    &table,
                    &mut out,
                    &mut targets,
                );
                for w in 0..PLANE_WORDS {
                    assert_eq!((targets.0[w], targets.1[w]), table.target_planes(&dp, w));
                }
                for (b, &cost) in out.iter().enumerate().take(blocks) {
                    let range = b * cells_per_block..(b + 1) * cells_per_block;
                    assert_eq!(
                        cost,
                        block_cost(&dp, &op, range, &table),
                        "cpb {cells_per_block} block {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_popcounts_count_every_lane() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..200 {
            let x: u64 = rng.gen::<u64>() & rng.gen::<u64>();
            for width in [1usize, 2, 4, 8, 16, 32] {
                let lanes = lane_popcounts(x, width);
                for lane in 0..64 / width {
                    let mask = u64::MAX >> (64 - width);
                    let expect = u64::from(((x >> (lane * width)) & mask).count_ones());
                    assert_eq!((lanes >> (lane * width)) & mask, expect, "width {width}");
                }
            }
        }
    }

    /// Both arithmetics' lane sweeps of one plane word against
    /// [`block_cost`] and [`block_updated_cells`] per block.
    fn assert_lane_sweep_matches_per_block(
        data: &MemoryLine,
        old: &PhysicalLine,
        table: &TransitionTable,
        width: usize,
        data_cells: usize,
    ) {
        let (dp, op) = (SymbolPlanes::new(data), old.state_planes());
        let half = u64::MAX >> (64 - data_cells);
        let priced = half | half << 32;
        for word in 0..PLANE_WORDS {
            let mut float = LaneSweep::EMPTY;
            sweep_lanes(&dp, &op, table, &f64::weights(table), word, priced, width, &mut float);
            let exact = table.integer_valued().then(|| {
                let mut exact = LaneSweep::EMPTY;
                sweep_lanes(&dp, &op, table, &u64::weights(table), word, priced, width, &mut exact);
                exact
            });
            assert_eq!(float.targets, table.target_planes(&dp, word));
            for lane in 0..MAX_LANES {
                let start = 64 * word + lane * width;
                let base = 64 * word + 32 * (lane * width / 32);
                let cells = if lane < 64 / width {
                    start.min(base + data_cells)..(start + width).min(base + data_cells)
                } else {
                    0..0
                };
                let context = format!("width {width}, data cells {data_cells}, lane {lane}");
                let expect = block_cost(&dp, &op, cells.clone(), table);
                assert_eq!(float.costs[lane], expect, "{context}");
                if let Some(exact) = &exact {
                    assert_eq!(exact.costs[lane] as f64, expect, "{context}");
                    assert_eq!(exact.targets, float.targets);
                    assert_eq!(exact.changed, float.changed);
                }
                if lane < 64 / width {
                    let mask = (u64::MAX >> (64 - width)) << (lane * width);
                    let updated = block_updated_cells(&dp, &op, cells, table);
                    assert_eq!((float.changed & mask).count_ones() as usize, updated, "{context}");
                }
            }
        }
    }

    #[test]
    fn lane_sweep_matches_per_block_cost() {
        let mut rng = StdRng::seed_from_u64(17);
        let energies = [EnergyModel::paper_default(), EnergyModel::new(1.3, [0.7, 2.9, 4.1, 5.3])];
        for energy in &energies {
            let table = TransitionTable::new(&SymbolMapping::all_mappings()[9], energy);
            let data = random_line(&mut rng);
            let old = random_stored(&mut rng);
            for width in [4usize, 8, 16, 32] {
                for data_cells in [24usize, 28, 29, 30, 31, 32] {
                    assert_lane_sweep_matches_per_block(&data, &old, &table, width, data_cells);
                }
            }
        }
    }

    /// The `u64` lane costs at the integer bound: write energies of
    /// 2^20 − 1, the largest an integer-valued table holds, over an
    /// all-RESET line (a first touch) whose every cell is programmed to that
    /// costliest state, so every lane sums its whole width of it; then random
    /// content over the same line and over a random one.
    #[test]
    fn integer_lane_costs_equal_the_f64_dot_up_to_the_integer_bound() {
        let top = f64::from((1u32 << 20) - 1);
        let energy = EnergyModel::new(0.0, [top - 3.0, top - 2.0, top - 1.0, top]);
        let table = TransitionTable::new(&SymbolMapping::default_mapping(), &energy);
        assert!(table.integer_valued());
        let costliest = Symbol::ALL
            .into_iter()
            .find(|&symbol| table.state_of(symbol) == CellState::S4)
            .expect("a symbol maps to S4");
        let mut full = MemoryLine::ZERO;
        for cell in 0..LINE_CELLS {
            full.set_symbol(cell, costliest);
        }
        let reset = PhysicalLine::all_reset(LINE_CELLS);
        let mut rng = StdRng::seed_from_u64(19);
        for width in [4usize, 8, 16, 32] {
            let (dp, op) = (SymbolPlanes::new(&full), reset.state_planes());
            let mut exact = LaneSweep::EMPTY;
            sweep_lanes(&dp, &op, &table, &u64::weights(&table), 0, u64::MAX, width, &mut exact);
            for lane in 0..64 / width {
                assert_eq!(exact.costs[lane], width as u64 * ((1 << 20) - 1), "width {width}");
            }
            assert_lane_sweep_matches_per_block(&full, &reset, &table, width, 32);
            let data = random_line(&mut rng);
            assert_lane_sweep_matches_per_block(&data, &reset, &table, width, 32);
            assert_lane_sweep_matches_per_block(&data, &random_stored(&mut rng), &table, width, 29);
        }
    }

    #[test]
    fn block_selection_is_the_first_strict_minimum_per_block() {
        let mut rng = StdRng::seed_from_u64(18);
        let energies =
            [EnergyModel::paper_default(), EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25])];
        let codes: [(CellState, CellState); 8] =
            core::array::from_fn(|i| (CellState::ALL[i % 4], CellState::ALL[(i / 2 + 1) % 4]));
        let mappings = SymbolMapping::all_mappings();
        for (energy, candidates, duplicate) in
            energies.iter().flat_map(|e| (1..=8).flat_map(move |n| [(e, n, false), (e, n, true)]))
        {
            // Duplicate tables over an `old` whose words 0 and 2 already store
            // their encoding: no candidate reprograms a cell of those words.
            let tables: Vec<TransitionTable> = (0..candidates)
                .map(|i| TransitionTable::new(&mappings[if duplicate { 5 } else { 3 * i }], energy))
                .collect();
            for cells_per_block in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
                let data = random_line(&mut rng);
                // The data cells, then selector cells up to the longest line.
                let mut old = PhysicalLine::from_states(
                    (0..MAX_LINE_CELLS)
                        .map(|_| CellState::from_index(rng.gen_range(0..4)))
                        .collect(),
                );
                if duplicate {
                    for cell in (0..64).chain(128..192) {
                        old.set_state(cell, tables[0].state_of(data.symbol(cell)));
                    }
                }
                let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
                let stored = |selector: usize| old.state(LINE_CELLS + selector);
                let shapes = [
                    (0, Selectors::Unpriced),
                    (1, Selectors::OneCell(&old)),
                    (2, Selectors::TwoCells { stored: &old, codes: &codes }),
                ];
                for (selector_cells, selectors) in shapes {
                    if selector_cells == 1 && candidates > 4 {
                        continue;
                    }
                    if cells_per_block < 4 {
                        // Narrower than a lane: refused, whatever the rest.
                        let (mut winners, mut out) = ([0u8; 256], [[0u64; PLANE_WORDS]; 2]);
                        let [out0, out1] = &mut out;
                        let refused = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            select_blocks_uniform(
                                &dp,
                                &op,
                                cells_per_block,
                                LINE_CELLS / cells_per_block,
                                &tables,
                                selectors,
                                &mut winners,
                                out0,
                                out1,
                            )
                        }));
                        let message = refused.expect_err("blocks under 4 cells must be refused");
                        let expected = format!(
                            "blocks are a power of two of at least 4 cells, not {cells_per_block}"
                        );
                        assert_eq!(message.downcast_ref::<String>(), Some(&expected));
                        continue;
                    }
                    // All but the last block, as far as the selector cells
                    // fit, or the one block of a whole line.
                    let blocks = ((LINE_CELLS / cells_per_block)
                        .min((MAX_LINE_CELLS - LINE_CELLS) / selector_cells.max(1))
                        - 1)
                    .max(1);
                    let selector_cost = |b: usize, idx: usize| match selector_cells {
                        0 => 0.0,
                        1 => energy.transition_energy_pj(stored(b), CellState::ALL[idx]),
                        _ => {
                            energy.transition_energy_pj(stored(2 * b), codes[idx].0)
                                + energy.transition_energy_pj(stored(2 * b + 1), codes[idx].1)
                        }
                    };
                    let mut expect = (vec![0u8; blocks], [0u64; PLANE_WORDS], [0u64; PLANE_WORDS]);
                    for (b, winner) in expect.0.iter_mut().enumerate() {
                        let cells = b * cells_per_block..(b + 1) * cells_per_block;
                        let mut best = (0, f64::INFINITY);
                        for (idx, table) in tables.iter().enumerate() {
                            // A whole-word block sums from its selector cost,
                            // word by word.
                            let cost = if cells_per_block < 64 {
                                block_cost(&dp, &op, cells.clone(), table) + selector_cost(b, idx)
                            } else {
                                cells.clone().step_by(64).fold(selector_cost(b, idx), |sum, c| {
                                    sum + block_cost(&dp, &op, c..c + 64, table)
                                })
                            };
                            if cost < best.1 {
                                best = (idx, cost);
                            }
                        }
                        *winner = best.0 as u8;
                        for cell in cells {
                            let state = tables[best.0].state_of(data.symbol(cell)).index() as u64;
                            expect.1[cell / 64] |= (state & 1) << (cell % 64);
                            expect.2[cell / 64] |= (state >> 1) << (cell % 64);
                        }
                    }
                    let mut got = (vec![0u8; blocks], [0u64; PLANE_WORDS], [0u64; PLANE_WORDS]);
                    select_blocks_uniform(
                        &dp,
                        &op,
                        cells_per_block,
                        blocks,
                        &tables,
                        selectors,
                        &mut got.0,
                        &mut got.1,
                        &mut got.2,
                    );
                    assert_eq!(
                        got, expect,
                        "{energy:?}, {candidates} candidates, duplicate {duplicate}, \
                         cpb {cells_per_block}, {selector_cells} selector cells"
                    );
                }
            }
        }
    }

    /// A whole-word block's `f64` total starts at the selector cost and adds
    /// the block's words in ascending order. Candidate 0 costs 0.1 (its
    /// selector), 0.2 (word 0) and 0.3 (word 1), candidate 1 costs 0.6 in
    /// word 0 alone. In that order candidate 0's total rounds up to
    /// `(0.1 + 0.2) + 0.3 = 0.6000000000000001` and candidate 1 wins; adding
    /// the selector last, as the scalar oracle does, gives
    /// `(0.2 + 0.3) + 0.1 = 0.6`, a tie that keeps candidate 0.
    #[test]
    fn whole_word_totals_add_the_selector_then_the_words_in_order() {
        let energy = EnergyModel::new(0.0, [0.1, 0.2, 0.3, 0.7]);
        let [s1, s2, s3, s4] = CellState::ALL;
        let tables = [
            TransitionTable::from_states([s1, s2, s3, s4], &energy),
            TransitionTable::from_states([s1, s3, s1, s4], &energy),
        ];
        let mut data = MemoryLine::ZERO;
        for (cell, symbol) in [(5, 1), (6, 1), (70, 2)] {
            data.set_symbol(cell, Symbol::new(symbol));
        }
        let mut old = PhysicalLine::all_reset(LINE_CELLS + 1);
        old.set_state(6, s2);
        old.set_state(LINE_CELLS, s2);
        let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
        let mut winners = [u8::MAX];
        let (mut out0, mut out1) = ([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]);
        select_blocks_uniform(
            &dp,
            &op,
            128,
            1,
            &tables,
            Selectors::OneCell(&old),
            &mut winners,
            &mut out0,
            &mut out1,
        );
        assert_eq!(winners, [1]);
    }

    #[test]
    fn bounded_cost_agrees_when_under_bound_and_aborts_otherwise() {
        let energy = EnergyModel::paper_default();
        let table = TransitionTable::new(&SymbolMapping::default_mapping(), &energy);
        let mut rng = StdRng::seed_from_u64(6);
        let data = random_line(&mut rng);
        let old = random_stored(&mut rng);
        let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
        let full = block_cost(&dp, &op, 0..LINE_CELLS, &table);
        assert_eq!(block_cost_bounded(&dp, &op, 0..LINE_CELLS, &table, f64::INFINITY), Some(full));
        // A bound at or below the total must abort.
        assert_eq!(block_cost_bounded(&dp, &op, 0..LINE_CELLS, &table, full), None);
        assert_eq!(block_cost_bounded(&dp, &op, 0..LINE_CELLS, &table, 1.0), None);
        assert_eq!(block_cost_bounded(&dp, &op, 0..0, &table, 0.0), None);
    }

    #[test]
    fn xor_planes_match_symbol_xor() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_line(&mut rng);
        let b = random_line(&mut rng);
        let xored = SymbolPlanes::new(&a).xor(&SymbolPlanes::new(&b));
        let direct = SymbolPlanes::new(&a.xor(&b));
        assert_eq!(xored, direct);
    }

    #[test]
    fn line_from_planes_inverts_symbol_plane_extraction() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let line = random_line(&mut rng);
            let planes = SymbolPlanes::new(&line);
            assert_eq!(line_from_planes(planes.plane0(), planes.plane1()), line);
        }
    }

    #[test]
    fn symbol_planes_from_states_matches_scalar_inverse_mapping() {
        let mut rng = StdRng::seed_from_u64(13);
        for mapping in [SymbolMapping::default_mapping(), SymbolMapping::all_mappings()[19]] {
            let stored = random_stored(&mut rng);
            let planes = stored.state_planes();
            let (p0, p1) = symbol_planes_from_states(&planes, mapping.symbols_per_state());
            let line = line_from_planes(&p0, &p1);
            for cell in 0..LINE_CELLS {
                assert_eq!(line.symbol(cell), mapping.symbol_of(stored.state(cell)), "cell {cell}");
            }
        }
    }
}
