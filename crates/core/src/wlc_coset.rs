//! The WLC-integrated coset codecs: WLCRC (restricted) and WLC+n-cosets
//! (unrestricted), Sections V and VI of the paper.

use crate::layout::WordLayout;
use wlcrc_coset::candidate::{c1, c2, c3, CandidateSet, CosetCandidate};
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, StatePlanes, SymbolPlanes, TransitionTable};
use wlcrc_pcm::line::{word as wordutil, MemoryLine};
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::{CellState, Symbol};
use wlcrc_pcm::{LINE_CELLS, LINE_WORDS, WORD_CELLS};

/// Most data blocks a 64-bit word can hold (8-bit granularity).
const MAX_WORD_BLOCKS: usize = 8;
/// Most candidates a WLC-integrated codec can hold (unrestricted 4cosets).
const MAX_WORD_CANDIDATES: usize = 4;

/// Per-encode kernel context: the plane views of the data and stored line
/// plus one transition table per candidate, built once per write.
struct KernelCtx {
    planes: SymbolPlanes,
    stored: StatePlanes,
    tables: [TransitionTable; MAX_WORD_CANDIDATES],
}

/// How coset candidates may be combined within a 64-bit word.
#[derive(Debug, Clone)]
pub enum CosetPolicy {
    /// The paper's restricted coset coding: every block of the word picks its
    /// candidate from one of the two groups `{C1, C2}` or `{C1, C3}`,
    /// recorded with one group bit per word and one bit per block.
    Restricted,
    /// Unrestricted selection from the given candidate set (at most four
    /// candidates), recorded with two bits per block.
    Unrestricted(CandidateSet),
}

/// Configuration of the Section VIII-D multi-objective optimisation: when the
/// two restricted groups cost within `threshold` (relative) of each other,
/// the group is chosen by the number of updated cells instead of energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiObjectiveConfig {
    /// Relative energy-difference threshold (the paper evaluates `T = 1 %`).
    pub threshold: f64,
}

impl MultiObjectiveConfig {
    /// The configuration evaluated in the paper (`T = 1 %`).
    pub fn paper_default() -> MultiObjectiveConfig {
        MultiObjectiveConfig { threshold: 0.01 }
    }
}

/// The WLC-integrated coset codec.
///
/// * With [`CosetPolicy::Restricted`] this is **WLCRC** at 8/16/32/64-bit
///   granularity (the paper's default configuration is WLCRC-16).
/// * With [`CosetPolicy::Unrestricted`] and the 4cosets (or 3cosets) set this
///   is the **WLC+4cosets** / **WLC+3cosets** comparison scheme.
///
/// Lines whose words do not all pass the WLC test are stored unencoded; a
/// single auxiliary flag cell per line records which format was used.
#[derive(Debug, Clone)]
pub struct WlcCosetCodec {
    layout: WordLayout,
    restricted: bool,
    candidates: Vec<CosetCandidate>,
    multi_objective: Option<MultiObjectiveConfig>,
    aux_mapping: SymbolMapping,
    name: String,
}

impl WlcCosetCodec {
    /// Creates a WLC-integrated codec with the given granularity and policy.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is not 8, 16, 32 or 64 bits, or if an
    /// unrestricted candidate set has more than four candidates.
    pub fn new(granularity_bits: usize, policy: CosetPolicy) -> WlcCosetCodec {
        match policy {
            CosetPolicy::Restricted => {
                let layout = WordLayout::restricted(granularity_bits);
                WlcCosetCodec {
                    layout,
                    restricted: true,
                    candidates: vec![c1(), c2(), c3()],
                    multi_objective: None,
                    aux_mapping: SymbolMapping::default_mapping(),
                    name: format!("WLCRC-{granularity_bits}"),
                }
            }
            CosetPolicy::Unrestricted(set) => {
                assert!(set.len() <= 4, "unrestricted WLC+cosets supports at most four candidates");
                let layout = WordLayout::unrestricted(granularity_bits);
                let name = format!("WLC+{}-{granularity_bits}", set.name());
                WlcCosetCodec {
                    layout,
                    restricted: false,
                    candidates: set.candidates().to_vec(),
                    multi_objective: None,
                    aux_mapping: SymbolMapping::default_mapping(),
                    name,
                }
            }
        }
    }

    /// The paper's default configuration: WLCRC at 16-bit granularity.
    pub fn wlcrc16() -> WlcCosetCodec {
        WlcCosetCodec::new(16, CosetPolicy::Restricted)
    }

    /// WLCRC at an arbitrary supported granularity.
    pub fn wlcrc(granularity_bits: usize) -> WlcCosetCodec {
        WlcCosetCodec::new(granularity_bits, CosetPolicy::Restricted)
    }

    /// WLC+4cosets at the given granularity (the paper's default for this
    /// scheme is 32-bit blocks).
    pub fn wlc_four_cosets(granularity_bits: usize) -> WlcCosetCodec {
        WlcCosetCodec::new(granularity_bits, CosetPolicy::Unrestricted(CandidateSet::four_cosets()))
    }

    /// WLC+3cosets at the given granularity.
    pub fn wlc_three_cosets(granularity_bits: usize) -> WlcCosetCodec {
        WlcCosetCodec::new(
            granularity_bits,
            CosetPolicy::Unrestricted(CandidateSet::three_cosets()),
        )
    }

    /// Enables the multi-objective group-selection policy (restricted codecs
    /// only; it has no effect on unrestricted codecs).
    pub fn with_multi_objective(mut self, config: MultiObjectiveConfig) -> WlcCosetCodec {
        self.multi_objective = Some(config);
        if self.restricted {
            self.name = format!("{}+MO", self.name);
        }
        self
    }

    /// The per-word layout of this codec.
    pub fn layout(&self) -> WordLayout {
        self.layout
    }

    /// `true` when this codec uses the restricted coset policy.
    pub fn is_restricted(&self) -> bool {
        self.restricted
    }

    /// `true` when `line` passes the WLC test for this codec's layout and can
    /// therefore be stored in the compressed, coset-encoded format.
    pub fn is_compressible(&self, line: &MemoryLine) -> bool {
        line.words().iter().all(|&w| wordutil::msbs_identical(w, self.layout.wlc_k()))
    }

    fn flag_cell(&self) -> usize {
        LINE_CELLS
    }

    /// Global cell index of word-relative cell `cell` in word `word`.
    fn global_cell(word: usize, cell: usize) -> usize {
        word * WORD_CELLS + cell
    }

    /// Differential-write cost of encoding block `cells` (word-relative, in
    /// word `word`) of `data` with `candidate` against the stored `old`.
    fn block_cost(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        word: usize,
        cells: std::ops::Range<usize>,
        candidate: &CosetCandidate,
        energy: &EnergyModel,
    ) -> (f64, usize) {
        let mut cost = 0.0;
        let mut updated = 0;
        for cell in cells {
            let global = Self::global_cell(word, cell);
            let target = candidate.state_of(data.symbol(global));
            if old.state(global) != target {
                cost += energy.write_energy_pj(target);
                updated += 1;
            }
        }
        (cost, updated)
    }

    /// Encodes the auxiliary/pass-through region of word `word` given the
    /// reclaimed bit values (bit `i` of `aux_bits` is reclaimed bit `i`),
    /// writing the cells through the default mapping.
    fn write_aux_region(
        &self,
        out: &mut PhysicalLine,
        data: &MemoryLine,
        word: usize,
        aux_bits: u64,
    ) {
        let fdc = self.layout.full_data_cells();
        let boundary_bit = self.layout.data_bits(); // first reclaimed bit
        for cell in fdc..WORD_CELLS {
            let bit_lo_index = 2 * cell;
            let bit_hi_index = 2 * cell + 1;
            let bit_value = |bit: usize| -> bool {
                if bit >= boundary_bit {
                    (aux_bits >> (bit - boundary_bit)) & 1 == 1
                } else {
                    // Pass-through data bit stored unencoded.
                    data.bit(word * 64 + bit)
                }
            };
            let symbol = Symbol::from_bits(bit_value(bit_hi_index), bit_value(bit_lo_index));
            let global = Self::global_cell(word, cell);
            out.set_state(global, self.aux_mapping.state_of(symbol));
            out.set_class(global, CellClass::Aux);
        }
    }

    /// Reads back the reclaimed bits (packed, bit `i` = reclaimed bit `i`)
    /// and the pass-through bit of word `word`.
    fn read_aux_region(&self, stored: &PhysicalLine, word: usize) -> (u64, Option<bool>) {
        let fdc = self.layout.full_data_cells();
        let boundary_bit = self.layout.data_bits();
        let mut aux_bits = 0u64;
        let mut pass_through = None;
        for cell in fdc..WORD_CELLS {
            let global = Self::global_cell(word, cell);
            let symbol = self.aux_mapping.symbol_of(stored.state(global));
            for (bit_index, value) in [(2 * cell, symbol.lsb()), (2 * cell + 1, symbol.msb())] {
                if bit_index >= boundary_bit {
                    aux_bits |= u64::from(value) << (bit_index - boundary_bit);
                } else {
                    pass_through = Some(value);
                }
            }
        }
        (aux_bits, pass_through)
    }

    /// Packs the per-word encoding decision into the reclaimed bits.
    ///
    /// Restricted (granularity < 64): the top reclaimed bit (word bit 63) is
    /// the group bit and block `j` occupies the bit just below the top,
    /// downwards. Restricted at 64-bit granularity and unrestricted codecs
    /// store plain candidate indices, two bits per block, from the top down.
    fn pack_aux_bits(&self, group_b: bool, choices: &[usize]) -> u64 {
        let r = self.layout.reclaimed_bits;
        let mut bits = 0u64;
        if self.restricted && self.layout.granularity_bits < 64 {
            bits |= u64::from(group_b) << (r - 1);
            for (j, &choice) in choices.iter().enumerate() {
                bits |= u64::from(choice != 0) << (r - 2 - j);
            }
        } else {
            for (j, &choice) in choices.iter().enumerate() {
                bits |= ((choice as u64 >> 1) & 1) << (r - 1 - 2 * j);
                bits |= (choice as u64 & 1) << (r - 2 - 2 * j);
            }
        }
        bits
    }

    /// Inverse of [`Self::pack_aux_bits`]: recovers the per-block candidate
    /// indices for decoding (only the first `layout.blocks()` entries are
    /// meaningful).
    fn unpack_candidates(&self, aux_bits: u64) -> [usize; MAX_WORD_BLOCKS] {
        let r = self.layout.reclaimed_bits;
        let blocks = self.layout.blocks();
        let mut out = [0usize; MAX_WORD_BLOCKS];
        if self.restricted && self.layout.granularity_bits < 64 {
            let group_b = (aux_bits >> (r - 1)) & 1 == 1;
            for (j, slot) in out.iter_mut().enumerate().take(blocks) {
                let picked_alt = (aux_bits >> (r - 2 - j)) & 1 == 1;
                *slot = if !picked_alt {
                    0 // C1
                } else if group_b {
                    2 // C3
                } else {
                    1 // C2
                };
            }
        } else {
            for (j, slot) in out.iter_mut().enumerate().take(blocks) {
                let hi = (aux_bits >> (r - 1 - 2 * j)) & 1;
                let lo = (aux_bits >> (r - 2 - 2 * j)) & 1;
                *slot = (((hi << 1) | lo) as usize).min(self.candidates.len() - 1);
            }
        }
        out
    }

    /// Differential-write cost of the word's auxiliary/pass-through region for
    /// a given assignment of the reclaimed bits.
    fn aux_region_cost(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        word: usize,
        aux_bits: u64,
        energy: &EnergyModel,
    ) -> f64 {
        let fdc = self.layout.full_data_cells();
        let boundary_bit = self.layout.data_bits();
        let mut cost = 0.0;
        for cell in fdc..WORD_CELLS {
            let bit_value = |bit: usize| -> bool {
                if bit >= boundary_bit {
                    (aux_bits >> (bit - boundary_bit)) & 1 == 1
                } else {
                    data.bit(word * 64 + bit)
                }
            };
            let symbol = Symbol::from_bits(bit_value(2 * cell + 1), bit_value(2 * cell));
            let target = self.aux_mapping.state_of(symbol);
            let global = Self::global_cell(word, cell);
            cost += energy.transition_energy_pj(old.state(global), target);
        }
        cost
    }

    /// Candidate resolved from a restricted (group, per-block) choice or an
    /// unrestricted selector index.
    fn resolve_candidate(&self, group_b: bool, choice: usize) -> &CosetCandidate {
        if self.restricted && self.layout.granularity_bits < 64 {
            match (choice, group_b) {
                (0, _) => &self.candidates[0],
                (_, false) => &self.candidates[1],
                (_, true) => &self.candidates[2],
            }
        } else {
            &self.candidates[choice]
        }
    }

    /// Candidate index (into `self.candidates`) of a restricted
    /// (group, per-block) choice or an unrestricted selector index.
    fn resolve_candidate_index(&self, group_b: bool, choice: usize) -> usize {
        if self.restricted && self.layout.granularity_bits < 64 {
            match (choice, group_b) {
                (0, _) => 0,
                (_, false) => 1,
                (_, true) => 2,
            }
        } else {
            choice
        }
    }

    /// Encodes one word of a compressible line.
    ///
    /// Candidate selection follows Algorithm 1 (data-block cost first), then
    /// accounts for the auxiliary-region write cost: the group is chosen on
    /// the full (data + aux) cost and a refinement pass keeps a block on the
    /// frequent candidate `C1` when switching away would cost more in
    /// auxiliary-cell writes than it saves in the data block. This is what
    /// keeps the auxiliary part in the low-energy states, as the paper notes
    /// in Section IX-A.
    ///
    /// Every candidate's (cost, updated-cells) pair is evaluated once per
    /// block up front — through the bit-parallel kernel when `kernel_ctx` is
    /// given, through the scalar [`Self::block_cost`] otherwise — and the
    /// selection then works purely on those stack-resident tables, so a word
    /// is encoded without any heap allocation.
    fn encode_word(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        out: &mut PhysicalLine,
        word: usize,
        energy: &EnergyModel,
        kernel_ctx: Option<&KernelCtx>,
    ) {
        let blocks = self.layout.blocks();
        debug_assert!(blocks <= MAX_WORD_BLOCKS);
        let ncand = self.candidates.len();
        let mut cost = [[0.0f64; MAX_WORD_BLOCKS]; MAX_WORD_CANDIDATES];
        let mut updated = [[0usize; MAX_WORD_BLOCKS]; MAX_WORD_CANDIDATES];
        for (idx, candidate) in self.candidates.iter().enumerate() {
            match kernel_ctx {
                Some(ctx) => {
                    // All of a word's blocks share one plane-word region, so
                    // the candidate's target planes are computed once.
                    let mut row = [(0.0f64, 0usize); MAX_WORD_BLOCKS];
                    let n = kernel::word_block_costs_updated(
                        &ctx.planes,
                        &ctx.stored,
                        &ctx.tables[idx],
                        word * WORD_CELLS,
                        self.layout.full_data_cells(),
                        self.layout.granularity_bits / 2,
                        &mut row,
                    );
                    debug_assert_eq!(n, blocks);
                    for (j, &(c, u)) in row.iter().enumerate().take(blocks) {
                        cost[idx][j] = c;
                        updated[idx][j] = u;
                    }
                }
                None => {
                    for j in 0..blocks {
                        let cells = self.layout.block_cells(j);
                        let (c, u) = self.block_cost(data, old, word, cells, candidate, energy);
                        cost[idx][j] = c;
                        updated[idx][j] = u;
                    }
                }
            }
        }

        let (group_b, mut choices) = if self.restricted && self.layout.granularity_bits < 64 {
            // Algorithm 1: evaluate both groups, pick the cheaper. Group 0's
            // alternative is C2 (candidate 1), group 1's is C3 (candidate 2).
            let mut totals = [0.0f64; 2];
            let mut updates = [0usize; 2];
            let mut per_group_choices = [[0usize; MAX_WORD_BLOCKS]; 2];
            for g in 0..2 {
                let alt = 1 + g;
                for j in 0..blocks {
                    if cost[alt][j] < cost[0][j] {
                        per_group_choices[g][j] = 1;
                        totals[g] += cost[alt][j];
                        updates[g] += updated[alt][j];
                    } else {
                        totals[g] += cost[0][j];
                        updates[g] += updated[0][j];
                    }
                }
                totals[g] += self.aux_region_cost(
                    data,
                    old,
                    word,
                    self.pack_aux_bits(g == 1, &per_group_choices[g][..blocks]),
                    energy,
                );
            }
            let mut pick_b = totals[1] < totals[0];
            if let Some(mo) = self.multi_objective {
                let max = totals[0].max(totals[1]).max(f64::EPSILON);
                if (totals[0] - totals[1]).abs() <= mo.threshold * max {
                    pick_b = updates[1] < updates[0];
                }
            }
            (pick_b, per_group_choices[usize::from(pick_b)])
        } else {
            // Unrestricted (or 64-bit restricted, which degenerates to
            // unrestricted 3cosets): best candidate per block by data cost.
            let mut choices = [0usize; MAX_WORD_BLOCKS];
            for (j, choice) in choices.iter_mut().enumerate().take(blocks) {
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                for (idx, per_block) in cost.iter().enumerate().take(ncand) {
                    if per_block[j] < best_cost {
                        best_cost = per_block[j];
                        best = idx;
                    }
                }
                *choice = best;
            }
            (false, choices)
        };

        // Refinement: revisit each block and keep/alter its candidate when the
        // auxiliary-cell cost of recording the switch outweighs the data
        // saving (or vice versa).
        let candidate_options =
            if self.restricted && self.layout.granularity_bits < 64 { 2 } else { ncand };
        for j in 0..blocks {
            let mut best_choice = choices[j];
            let mut best_total = f64::INFINITY;
            for option in 0..candidate_options {
                let mut trial = choices;
                trial[j] = option;
                let data_cost = cost[self.resolve_candidate_index(group_b, option)][j];
                let aux_cost = self.aux_region_cost(
                    data,
                    old,
                    word,
                    self.pack_aux_bits(group_b, &trial[..blocks]),
                    energy,
                );
                let total = data_cost + aux_cost;
                if total < best_total {
                    best_total = total;
                    best_choice = option;
                }
            }
            choices[j] = best_choice;
        }

        // Write the encoded data blocks.
        for (j, &choice) in choices.iter().enumerate().take(blocks) {
            let candidate = self.resolve_candidate(group_b, choice);
            for cell in self.layout.block_cells(j) {
                let global = Self::global_cell(word, cell);
                out.set_state(global, candidate.state_of(data.symbol(global)));
            }
        }
        let aux_bits = self.pack_aux_bits(group_b, &choices[..blocks]);
        self.write_aux_region(out, data, word, aux_bits);
    }

    /// Shared encode body; `use_kernel` switches the per-block candidate
    /// costs between the bit-parallel kernel and the scalar
    /// [`Self::block_cost`]. Selection logic is shared, so both sides produce
    /// byte-identical lines (exactly so for integer-valued energies).
    fn encode_impl(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
        use_kernel: bool,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        out.set_class(self.flag_cell(), CellClass::Aux);
        if self.is_compressible(data) {
            out.set_state(self.flag_cell(), CellState::S1);
            let kernel_ctx = use_kernel.then(|| {
                let mut tables = [TransitionTable::placeholder(); MAX_WORD_CANDIDATES];
                for (table, candidate) in tables.iter_mut().zip(&self.candidates) {
                    *table = TransitionTable::new(&candidate.mapping(), energy);
                }
                KernelCtx { planes: data.symbol_planes(), stored: old.state_planes(), tables }
            });
            for word in 0..LINE_WORDS {
                self.encode_word(data, old, &mut out, word, energy, kernel_ctx.as_ref());
            }
        } else {
            out.set_state(self.flag_cell(), CellState::S2);
            let raw = TransitionTable::new(&SymbolMapping::default_mapping(), energy);
            kernel::store_mapped(data, &raw, &mut out);
        }
        out
    }

    /// The scalar reference encoder (per-cell block costs); kept callable for
    /// the equivalence tests and the perf snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        self.encode_impl(data, old, energy, false)
    }

    fn decode_word(&self, stored: &PhysicalLine, word: usize) -> u64 {
        let (aux_bits, pass_through) = self.read_aux_region(stored, word);
        let candidates = self.unpack_candidates(aux_bits);
        let mut value = 0u64;
        for (j, &cand_idx) in candidates.iter().enumerate().take(self.layout.blocks()) {
            let candidate = &self.candidates[cand_idx];
            for cell in self.layout.block_cells(j) {
                let global = Self::global_cell(word, cell);
                let symbol = candidate.symbol_of(stored.state(global));
                value |= u64::from(symbol.value()) << (2 * cell);
            }
        }
        if let (Some(bit_index), Some(bit)) = (self.layout.pass_through_bit(), pass_through) {
            if bit {
                value |= 1 << bit_index;
            }
        }
        // Rebuild the reclaimed MSBs by sign extension from the top kept bit.
        wordutil::sign_extend_from(value, self.layout.data_bits() - 1)
    }
}

impl LineCodec for WlcCosetCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + 1
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        self.encode_impl(data, old, energy, true)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        if stored.state(self.flag_cell()) != CellState::S1 {
            return kernel::load_mapped(stored, &SymbolMapping::default_mapping());
        }
        let mut words = [0u64; LINE_WORDS];
        for (word, slot) in words.iter_mut().enumerate() {
            *slot = self.decode_word(stored, word);
        }
        MemoryLine::from_words(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::write::differential_write;

    /// A line whose words all pass the WLC test for `k` MSBs.
    fn compressible_line(rng: &mut StdRng, k: usize) -> MemoryLine {
        let payload_bits = 64 - (k - 1);
        let mut words = [0u64; LINE_WORDS];
        for w in &mut words {
            let raw: u64 = rng.gen();
            *w = wordutil::sign_extend_from(raw & ((1 << payload_bits) - 1), payload_bits - 1);
        }
        MemoryLine::from_words(words)
    }

    fn random_line(rng: &mut StdRng) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        for w in &mut words {
            *w = rng.gen();
        }
        MemoryLine::from_words(words)
    }

    #[test]
    fn wlcrc16_round_trip_compressible() {
        let codec = WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut old = codec.initial_line();
        for _ in 0..100 {
            let data = compressible_line(&mut rng, codec.layout().wlc_k());
            assert!(codec.is_compressible(&data));
            let enc = codec.encode(&data, &old, &energy);
            assert_eq!(enc.state(256), CellState::S1);
            assert_eq!(codec.decode(&enc), data);
            old = enc;
        }
    }

    #[test]
    fn wlcrc16_round_trip_incompressible() {
        let codec = WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let data = random_line(&mut rng);
            if codec.is_compressible(&data) {
                continue;
            }
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(enc.state(256), CellState::S2);
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn round_trip_all_granularities_and_policies() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        for g in [8usize, 16, 32, 64] {
            let codecs = [
                WlcCosetCodec::wlcrc(g),
                WlcCosetCodec::wlc_four_cosets(g),
                WlcCosetCodec::wlc_three_cosets(g),
            ];
            for codec in codecs {
                let mut old = codec.initial_line();
                for _ in 0..20 {
                    let data = compressible_line(&mut rng, codec.layout().wlc_k());
                    let enc = codec.encode(&data, &old, &energy);
                    assert_eq!(codec.decode(&enc), data, "{} g={}", codec.name(), g);
                    old = enc;
                }
                // Mixed / incompressible data must also round trip.
                for _ in 0..10 {
                    let data = random_line(&mut rng);
                    let enc = codec.encode(&data, &codec.initial_line(), &energy);
                    assert_eq!(codec.decode(&enc), data, "{} raw g={}", codec.name(), g);
                }
            }
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(41);
        for g in [8usize, 16, 32, 64] {
            let codecs = [
                WlcCosetCodec::wlcrc(g),
                WlcCosetCodec::wlcrc(g).with_multi_objective(MultiObjectiveConfig::paper_default()),
                WlcCosetCodec::wlc_four_cosets(g),
                WlcCosetCodec::wlc_three_cosets(g),
            ];
            for codec in codecs {
                let mut old = codec.initial_line();
                for _ in 0..10 {
                    let data = compressible_line(&mut rng, codec.layout().wlc_k());
                    let kernel = codec.encode(&data, &old, &energy);
                    let scalar = codec.encode_scalar(&data, &old, &energy);
                    assert_eq!(kernel, scalar, "{} g={}", codec.name(), g);
                    old = kernel;
                }
            }
        }
    }

    #[test]
    fn mixed_biased_values_round_trip() {
        let codec = WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        for data in [
            MemoryLine::ZERO,
            MemoryLine::ZERO.complement(),
            MemoryLine::from_words([0, u64::MAX, 1, (-5i64) as u64, 1 << 57, 42, 7, 0]),
            MemoryLine::from_words([(-1i64) as u64; 8]),
        ] {
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn space_overhead_is_one_flag_cell() {
        let codec = WlcCosetCodec::wlcrc16();
        assert_eq!(codec.encoded_cells(), 257);
        // < 0.4 % overhead as claimed by the paper.
        let overhead = (codec.encoded_cells() - 256) as f64 / 256.0;
        assert!(overhead < 0.004);
    }

    #[test]
    fn wlcrc_beats_baseline_energy_on_biased_data() {
        let codec = WlcCosetCodec::wlcrc16();
        let raw = wlcrc_pcm::codec::RawCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut wlcrc_total = 0.0;
        let mut raw_total = 0.0;
        for _ in 0..200 {
            // Biased data: words full of 1s or small values, the common case.
            let mut words = [0u64; LINE_WORDS];
            for w in &mut words {
                *w = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::from(rng.gen::<u16>()),
                    _ => (-(i64::from(rng.gen::<u16>()))) as u64,
                };
            }
            let new_data = MemoryLine::from_words(words);
            let old_data = random_line(&mut rng);
            let old_w = codec.encode(&old_data, &codec.initial_line(), &energy);
            let old_r = raw.encode(&old_data, &raw.initial_line(), &energy);
            let new_w = codec.encode(&new_data, &old_w, &energy);
            let new_r = raw.encode(&new_data, &old_r, &energy);
            wlcrc_total += differential_write(&old_w, &new_w, &energy).total_energy_pj();
            raw_total += differential_write(&old_r, &new_r, &energy).total_energy_pj();
        }
        assert!(
            wlcrc_total < raw_total * 0.8,
            "WLCRC should clearly beat the baseline on biased data ({wlcrc_total:.0} vs {raw_total:.0})"
        );
    }

    #[test]
    fn aux_cells_are_marked_for_compressible_lines() {
        let codec = WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO, &codec.initial_line(), &energy);
        // 3 aux cells per word + 1 flag cell.
        assert_eq!(enc.aux_cells(), 8 * 3 + 1);
    }

    #[test]
    fn multi_objective_reduces_updated_cells() {
        let energy = EnergyModel::paper_default();
        let plain = WlcCosetCodec::wlcrc16();
        let mo =
            WlcCosetCodec::wlcrc16().with_multi_objective(MultiObjectiveConfig::paper_default());
        assert!(mo.name().contains("+MO"));
        let mut rng = StdRng::seed_from_u64(17);
        let mut plain_cells = 0usize;
        let mut mo_cells = 0usize;
        let mut plain_energy = 0.0;
        let mut mo_energy = 0.0;
        for _ in 0..300 {
            let old_data = compressible_line(&mut rng, 6);
            let new_data = compressible_line(&mut rng, 6);
            let old_p = plain.encode(&old_data, &plain.initial_line(), &energy);
            let old_m = mo.encode(&old_data, &mo.initial_line(), &energy);
            let new_p = plain.encode(&new_data, &old_p, &energy);
            let new_m = mo.encode(&new_data, &old_m, &energy);
            let out_p = differential_write(&old_p, &new_p, &energy);
            let out_m = differential_write(&old_m, &new_m, &energy);
            plain_cells += out_p.total_cells_updated();
            mo_cells += out_m.total_cells_updated();
            plain_energy += out_p.total_energy_pj();
            mo_energy += out_m.total_energy_pj();
        }
        assert!(mo_cells <= plain_cells, "multi-objective should not update more cells");
        // Energy may increase, but only slightly (the paper reports ~1%).
        assert!(mo_energy <= plain_energy * 1.05);
    }

    #[test]
    fn decode_is_independent_of_old_content() {
        // Decoding must rely only on the stored cells, never on the encoder's
        // `old` argument.
        let codec = WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(23);
        let data = compressible_line(&mut rng, 6);
        let old_a = codec.encode(&compressible_line(&mut rng, 6), &codec.initial_line(), &energy);
        let old_b = codec.encode(&random_line(&mut rng), &codec.initial_line(), &energy);
        let enc_a = codec.encode(&data, &old_a, &energy);
        let enc_b = codec.encode(&data, &old_b, &energy);
        assert_eq!(codec.decode(&enc_a), data);
        assert_eq!(codec.decode(&enc_b), data);
    }
}
