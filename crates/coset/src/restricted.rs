//! Restricted coset coding (Section V of the paper), applied at line level.
//!
//! Instead of letting every block choose freely among `C1`, `C2` and `C3`,
//! the line first commits to one of two *groups* — `{C1, C2}` or `{C1, C3}` —
//! and every block then picks the cheaper of the two candidates in that
//! group. This needs one global auxiliary bit per line plus one bit per
//! block, instead of two bits per block for the unrestricted 3cosets.
//!
//! (The WLC-integrated version, which applies the restriction per 64-bit word
//! and stores the auxiliary bits in reclaimed cells, lives in the `wlcrc`
//! crate; this codec is the stand-alone `3-r-cosets` variant evaluated in
//! Figure 5.)
//!
//! The encoder evaluates candidates with the bit-parallel kernel
//! ([`wlcrc_pcm::kernel`]) and keeps all per-write scratch — candidate costs,
//! block choices and the auxiliary bit vector — in fixed-size stack storage
//! (a `u64` choice mask and a packed `u128` bit vector), so a write allocates
//! nothing beyond the returned line.

use crate::candidate::{c1, c2, c3, CosetCandidate};
use crate::cost::{block_cost, read_block, write_block};
use crate::granularity::Granularity;
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::Symbol;
use wlcrc_pcm::LINE_CELLS;

/// Most blocks any granularity produces (8-bit blocks → 64 per line).
const MAX_BLOCKS: usize = 64;

/// The auxiliary bit vector of one line — the group bit followed by one bit
/// per block — packed into a `u128` (at most 1 + 64 = 65 bits).
///
/// Bit `i` of `bits` is auxiliary bit `i`; reads past `len` yield `false`,
/// mirroring the zero padding of the final half-filled cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AuxBits {
    bits: u128,
    len: usize,
}

impl AuxBits {
    fn new(group_b: bool, choices: u64, blocks: usize) -> AuxBits {
        AuxBits { bits: u128::from(group_b) | (u128::from(choices) << 1), len: 1 + blocks }
    }

    #[inline]
    fn get(self, index: usize) -> bool {
        index < self.len && (self.bits >> index) & 1 == 1
    }
}

/// The stand-alone restricted coset codec (`3-r-cosets`).
#[derive(Debug, Clone)]
pub struct RestrictedCosetCodec {
    granularity: Granularity,
    base: CosetCandidate,
    alt_a: CosetCandidate,
    alt_b: CosetCandidate,
    aux_mapping: SymbolMapping,
    name: String,
}

impl RestrictedCosetCodec {
    /// Creates the restricted codec at the given granularity, using the
    /// paper's groups `{C1, C2}` and `{C1, C3}`.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is finer than 8 bits: per-write scratch
    /// (block costs, the `u64` choice mask, the `u128` auxiliary bit vector)
    /// is sized for the paper's 8..512-bit sweep, at most 64 blocks per line.
    pub fn new(granularity: Granularity) -> RestrictedCosetCodec {
        assert!(
            granularity.blocks_per_line() <= MAX_BLOCKS,
            "RestrictedCosetCodec supports at most {MAX_BLOCKS} blocks per line (granularity >= 8 bits)"
        );
        RestrictedCosetCodec {
            granularity,
            base: c1(),
            alt_a: c2(),
            alt_b: c3(),
            aux_mapping: SymbolMapping::default_mapping(),
            name: format!("3-r-cosets-{}", granularity.bits()),
        }
    }

    /// The block granularity of this codec.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of auxiliary bits per line: one global group bit plus one bit
    /// per block.
    pub fn aux_bits(&self) -> usize {
        1 + self.granularity.blocks_per_line()
    }

    /// Number of auxiliary cells appended to the line (two bits per cell,
    /// rounded up).
    pub fn aux_cells(&self) -> usize {
        self.aux_bits().div_ceil(2)
    }

    fn group_candidates(&self, group_b: bool) -> (&CosetCandidate, &CosetCandidate) {
        if group_b {
            (&self.base, &self.alt_b)
        } else {
            (&self.base, &self.alt_a)
        }
    }

    /// Packs the auxiliary bits (group bit first, then per-block bits) into
    /// aux cells through the default mapping, so that the frequent case
    /// (candidate `C1`, bit 0) stays in the cheapest state.
    fn write_aux_bits(&self, out: &mut PhysicalLine, bits: AuxBits) {
        for i in 0..self.aux_cells() {
            // Bit order within the symbol: the first bit of the pair is the MSB.
            let symbol = Symbol::from_bits(bits.get(2 * i), bits.get(2 * i + 1));
            out.set_state(LINE_CELLS + i, self.aux_mapping.state_of(symbol));
        }
    }

    /// Differential-write cost of storing the given auxiliary bits over the
    /// currently stored auxiliary cells.
    fn aux_cost(&self, old: &PhysicalLine, bits: AuxBits, energy: &EnergyModel) -> f64 {
        let mut cost = 0.0;
        for i in 0..self.aux_cells() {
            cost += self.aux_cell_cost(old, bits, i, energy);
        }
        cost
    }

    /// The contribution of auxiliary cell `cell` to [`Self::aux_cost`].
    fn aux_cell_cost(
        &self,
        old: &PhysicalLine,
        bits: AuxBits,
        cell: usize,
        energy: &EnergyModel,
    ) -> f64 {
        let target = self
            .aux_mapping
            .state_of(Symbol::from_bits(bits.get(2 * cell), bits.get(2 * cell + 1)));
        energy.transition_energy_pj(old.state(LINE_CELLS + cell), target)
    }

    fn read_aux_bits(&self, stored: &PhysicalLine) -> AuxBits {
        let mut bits = 0u128;
        for i in 0..self.aux_cells() {
            let symbol = self.aux_mapping.symbol_of(stored.state(LINE_CELLS + i));
            bits |= u128::from(symbol.msb()) << (2 * i);
            bits |= u128::from(symbol.lsb()) << (2 * i + 1);
        }
        AuxBits { bits, len: self.aux_bits() }
    }

    /// Shared encode body; with `kernel_tables` (one per candidate: base,
    /// group-A and group-B alternative) the per-block candidate costs run on
    /// the bit-parallel kernel, without them on the scalar reference in
    /// [`crate::cost`]. Both sides run the identical selection logic, so the
    /// outputs are byte-identical (exactly so for integer-valued energies).
    fn encode_impl(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
        kernel_tables: Option<&[TransitionTable; 3]>,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        debug_assert!(blocks <= MAX_BLOCKS);

        // Every candidate's cost for every block (base, group-A and group-B
        // alternative), computed once up front: C1 is shared by both groups.
        // The kernel sweep additionally captures each candidate's target
        // planes so the final write is assembled from masks.
        let mut costs = [[0.0f64; MAX_BLOCKS]; 3];
        let mut targets = [([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]); 3];
        if let Some(tables) = kernel_tables {
            let (planes, stored) = (data.symbol_planes(), old.state_planes());
            let cells_per_block = self.granularity.cells();
            for ((table, costs), targets) in tables.iter().zip(&mut costs).zip(&mut targets) {
                kernel::block_costs_uniform_with_targets(
                    &planes,
                    &stored,
                    cells_per_block,
                    blocks,
                    table,
                    costs,
                    targets,
                );
            }
        } else {
            let candidates = [&self.base, &self.alt_a, &self.alt_b];
            for block in 0..blocks {
                let cells = self.granularity.block_cells(block);
                for (costs, candidate) in costs.iter_mut().zip(candidates) {
                    costs[block] = block_cost(data, old, cells.clone(), candidate, energy);
                }
            }
        }

        // Evaluate both groups: for each, every block takes the cheaper of
        // the two candidates in the group (steps 1-3 of Section V). The group
        // decision also accounts for the cost of rewriting the auxiliary
        // cells, which keeps the selection stable across consecutive writes.
        let mut group_cost = [0.0f64; 2];
        let mut group_choice = [0u64; 2];
        for g in 0..2 {
            let (base, alt) = (&costs[0], &costs[1 + g]);
            for block in 0..blocks {
                if alt[block] < base[block] {
                    group_choice[g] |= 1 << block;
                    group_cost[g] += alt[block];
                } else {
                    group_cost[g] += base[block];
                }
            }
            group_cost[g] +=
                self.aux_cost(old, AuxBits::new(g == 1, group_choice[g], blocks), energy);
        }
        let group_b = group_cost[1] < group_cost[0];
        let alt = 1 + usize::from(group_b);
        let (base_costs, alt_costs) = (&costs[0], &costs[alt]);
        let mut choices = group_choice[usize::from(group_b)];

        // Refinement: a block only switches away from C1 when the data saving
        // exceeds the cost of rewriting the auxiliary cell that records the
        // switch (two block bits share one cell, so the cost is evaluated on
        // the full auxiliary bit vector). Flipping block `b`'s bit only
        // changes auxiliary cell `(1 + b) / 2`, so the full-vector cost is
        // maintained incrementally: for integer-valued energies the running
        // total is exactly the fresh sum the scalar formulation computes.
        let mut current_aux = self.aux_cost(old, AuxBits::new(group_b, choices, blocks), energy);
        for block in 0..blocks {
            let aux_cell = block.div_ceil(2);
            let current_flag = (choices >> block) & 1 == 1;
            let current_cell =
                self.aux_cell_cost(old, AuxBits::new(group_b, choices, blocks), aux_cell, energy);
            let mut best_flag = current_flag;
            let mut best_total = f64::INFINITY;
            let mut best_aux = current_aux;
            for flag in [false, true] {
                let trial = if flag { choices | 1 << block } else { choices & !(1 << block) };
                let trial_aux = current_aux - current_cell
                    + self.aux_cell_cost(
                        old,
                        AuxBits::new(group_b, trial, blocks),
                        aux_cell,
                        energy,
                    );
                let total = if flag { alt_costs[block] } else { base_costs[block] } + trial_aux;
                if total < best_total {
                    best_total = total;
                    best_flag = flag;
                    best_aux = trial_aux;
                }
            }
            if best_flag {
                choices |= 1 << block;
            } else {
                choices &= !(1 << block);
            }
            current_aux = best_aux;
        }

        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in LINE_CELLS..self.encoded_cells() {
            out.set_class(cell, CellClass::Aux);
        }
        if kernel_tables.is_some() {
            // Assemble the chosen blocks' target planes and store them at
            // once.
            let mut out0 = [0u64; PLANE_WORDS];
            let mut out1 = [0u64; PLANE_WORDS];
            for block in 0..blocks {
                let idx = if (choices >> block) & 1 == 1 { alt } else { 0 };
                for (w, mask) in kernel::plane_words(self.granularity.block_cells(block)) {
                    out0[w] |= targets[idx].0[w] & mask;
                    out1[w] |= targets[idx].1[w] & mask;
                }
            }
            out.set_data_planes(&out0, &out1);
        } else {
            let (base, alt) = self.group_candidates(group_b);
            for block in 0..blocks {
                let cells = self.granularity.block_cells(block);
                let candidate = if (choices >> block) & 1 == 1 { alt } else { base };
                write_block(data, &mut out, cells, candidate);
            }
        }
        self.write_aux_bits(&mut out, AuxBits::new(group_b, choices, blocks));
        out
    }

    /// The scalar reference encoder (see [`crate::cost`]); kept callable for
    /// the equivalence tests and the perf snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        self.encode_impl(data, old, energy, None)
    }
}

impl LineCodec for RestrictedCosetCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + self.aux_cells()
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        self.encode_with(&self.tables(energy), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let bits = self.read_aux_bits(stored);
        let group_b = bits.get(0);
        let (base, alt) = self.group_candidates(group_b);
        let mut data = MemoryLine::ZERO;
        for block in 0..self.granularity.blocks_per_line() {
            let cells = self.granularity.block_cells(block);
            let candidate = if bits.get(1 + block) { alt } else { base };
            read_block(stored, &mut data, cells, candidate);
        }
        data
    }
}

impl TableCodec for RestrictedCosetCodec {
    /// The energy model, which prices the auxiliary cells, and the base,
    /// group-A and group-B candidates' transition tables.
    type Tables = (EnergyModel, [TransitionTable; 3]);

    fn tables(&self, energy: &EnergyModel) -> Self::Tables {
        let tables = [&self.base, &self.alt_a, &self.alt_b]
            .map(|candidate| TransitionTable::new(&candidate.mapping(), energy));
        (energy.clone(), tables)
    }

    fn encode_with(
        &self,
        (energy, tables): &Self::Tables,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        self.encode_impl(data, old, energy, Some(tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncosets::NCosetsCodec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::write::differential_write;

    fn random_line(rng: &mut StdRng) -> MemoryLine {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.gen();
        }
        MemoryLine::from_words(words)
    }

    #[test]
    fn aux_bit_budget_matches_paper() {
        // 16-bit granularity: 32 blocks -> 33 aux bits -> 17 symbols.
        let codec = RestrictedCosetCodec::new(Granularity::new(16));
        assert_eq!(codec.aux_bits(), 33);
        assert_eq!(codec.aux_cells(), 17);
        assert_eq!(codec.encoded_cells(), 256 + 17);
    }

    #[test]
    fn round_trip_at_all_granularities() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(21);
        for g in [8usize, 16, 32, 64, 128] {
            let codec = RestrictedCosetCodec::new(Granularity::new(g));
            let mut old = codec.initial_line();
            for _ in 0..20 {
                let data = random_line(&mut rng);
                let enc = codec.encode(&data, &old, &energy);
                assert_eq!(codec.decode(&enc), data, "granularity {g}");
                old = enc;
            }
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(77);
        for g in [8usize, 16, 64, 256, 512] {
            let codec = RestrictedCosetCodec::new(Granularity::new(g));
            let mut old = codec.initial_line();
            for _ in 0..10 {
                let data = random_line(&mut rng);
                let kernel = codec.encode(&data, &old, &energy);
                let scalar = codec.encode_scalar(&data, &old, &energy);
                assert_eq!(kernel, scalar, "granularity {g}");
                old = kernel;
            }
        }
    }

    #[test]
    fn round_trip_on_biased_data() {
        let energy = EnergyModel::paper_default();
        let codec = RestrictedCosetCodec::new(Granularity::new(16));
        for data in [
            MemoryLine::ZERO,
            MemoryLine::ZERO.complement(),
            MemoryLine::from_words([u64::MAX, 0, u64::MAX, 0, 1, 2, 3, 4]),
        ] {
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn restricted_uses_fewer_aux_cells_than_unrestricted() {
        let g = Granularity::new(16);
        let restricted = RestrictedCosetCodec::new(g);
        let unrestricted = NCosetsCodec::three_cosets(g);
        assert!(restricted.encoded_cells() < unrestricted.encoded_cells());
    }

    #[test]
    fn restricted_data_energy_close_to_three_cosets() {
        // Restricting the candidate choice should only slightly increase the
        // data-block energy (the point of Figure 5).
        let energy = EnergyModel::paper_default();
        let g = Granularity::new(16);
        let restricted = RestrictedCosetCodec::new(g);
        let unrestricted = NCosetsCodec::three_cosets(g);
        let mut rng = StdRng::seed_from_u64(5);
        let mut restricted_cost = 0.0;
        let mut unrestricted_cost = 0.0;
        for _ in 0..100 {
            let old_data = random_line(&mut rng);
            let new_data = random_line(&mut rng);
            let old_r = restricted.encode(&old_data, &restricted.initial_line(), &energy);
            let old_u = unrestricted.encode(&old_data, &unrestricted.initial_line(), &energy);
            let new_r = restricted.encode(&new_data, &old_r, &energy);
            let new_u = unrestricted.encode(&new_data, &old_u, &energy);
            restricted_cost += differential_write(&old_r, &new_r, &energy).data_energy_pj;
            unrestricted_cost += differential_write(&old_u, &new_u, &energy).data_energy_pj;
        }
        assert!(restricted_cost >= unrestricted_cost);
        assert!(
            restricted_cost <= unrestricted_cost * 1.15,
            "restriction should cost at most a few percent (restricted {restricted_cost}, unrestricted {unrestricted_cost})"
        );
    }

    #[test]
    fn group_bit_zero_when_groups_tie() {
        // All-zero data: both groups cost the same (C1 is in both), so the
        // encoder must keep the group bit at 0 (the cheaper aux state).
        let energy = EnergyModel::paper_default();
        let codec = RestrictedCosetCodec::new(Granularity::new(16));
        let enc = codec.encode(&MemoryLine::ZERO, &codec.initial_line(), &energy);
        let bits = codec.read_aux_bits(&enc);
        assert!(!bits.get(0));
        assert!((1..codec.aux_bits()).all(|i| !bits.get(i)));
    }
}
