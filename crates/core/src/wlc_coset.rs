//! The WLC-integrated coset codecs: WLCRC (restricted) and WLC+n-cosets
//! (unrestricted), Sections V and VI of the paper.

use crate::layout::WordLayout;
use wlcrc_coset::candidate::{c1, c2, c3, CandidateSet, CosetCandidate};
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::{word as wordutil, MemoryLine};
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::{CellState, Symbol};
use wlcrc_pcm::{LINE_CELLS, LINE_WORDS, WORD_CELLS};

/// Most data blocks a 64-bit word can hold (8-bit granularity).
const MAX_WORD_BLOCKS: usize = 8;
/// Most candidates a WLC-integrated codec can hold (unrestricted 4cosets).
const MAX_WORD_CANDIDATES: usize = 4;
/// Most auxiliary cells a word can have (16 reclaimed bits, unrestricted
/// 8-bit granularity).
const MAX_AUX_CELLS: usize = 8;

/// `(differential-write cost, updated cells)` of every data block of one
/// word under every candidate, indexed `[candidate][block]`.
type BlockCosts = [[(f64, usize); MAX_WORD_BLOCKS]; MAX_WORD_CANDIDATES];

/// The transition tables of both line formats, built once for a prepared
/// encoder.
pub struct Tables {
    /// The default mapping's table, which stores an incompressible line.
    raw: TransitionTable,
    coset: CosetTables,
}

/// The transition tables of the coset-encoded format.
struct CosetTables {
    candidates: [TransitionTable; MAX_WORD_CANDIDATES],
    /// The auxiliary region's mapping.
    aux: TransitionTable,
    /// `aux`'s transition cost by old state index and symbol value: the
    /// rows of each word's aux-cell cost table.
    aux_rows: [[f64; 4]; 4],
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

    /// `true` when every block picks within one group, `{C1, C2}` or
    /// `{C1, C3}`, recorded by a group bit: restricted codecs below 64-bit
    /// granularity. The others record plain candidate indices.
    fn grouped(&self) -> bool {
        self.restricted && self.layout.granularity_bits < 64
    }

    /// The group bit among the reclaimed bits: the top one (word bit 63).
    fn group_bit(&self) -> u64 {
        1 << (self.layout.reclaimed_bits - 1)
    }

    /// Where block `block`'s choice sits among the reclaimed bits, as
    /// `(shift, width)`. Grouped codecs give block `j` the bit just below the
    /// group bit, downwards; the others store two-bit candidate indices from
    /// the top down.
    fn choice_field(&self, block: usize) -> (usize, usize) {
        let r = self.layout.reclaimed_bits;
        if self.grouped() {
            (r - 2 - block, 1)
        } else {
            (r - 2 - 2 * block, 2)
        }
    }

    /// Recovers the per-block candidate indices from the reclaimed bits for
    /// decoding (only the first `layout.blocks()` entries are meaningful).
    fn unpack_candidates(&self, aux_bits: u64) -> [usize; MAX_WORD_BLOCKS] {
        let group_b = self.grouped() && aux_bits & self.group_bit() != 0;
        let mut out = [0usize; MAX_WORD_BLOCKS];
        for (j, slot) in out.iter_mut().enumerate().take(self.layout.blocks()) {
            let (shift, width) = self.choice_field(j);
            let choice = ((aux_bits >> shift) & ((1 << width) - 1)) as usize;
            *slot = self.resolve_candidate_index(group_b, choice).min(self.candidates.len() - 1);
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

    /// Candidate index (into `self.candidates`) of a grouped (group,
    /// per-block) choice or a plain selector index.
    fn resolve_candidate_index(&self, group_b: bool, choice: usize) -> usize {
        if self.grouped() {
            match (choice, group_b) {
                (0, _) => 0,
                (_, false) => 1,
                (_, true) => 2,
            }
        } else {
            choice
        }
    }

    /// The bits of word `word`'s auxiliary region (its cells from
    /// `full_data_cells` on) for the reclaimed-bit assignment `aux_bits`:
    /// bits `2k` and `2k + 1` are the low and high bit of the region's cell
    /// `k`. The pass-through data bit, if any, is bit 0.
    fn aux_field(&self, data: &MemoryLine, word: usize, aux_bits: u64) -> u64 {
        let first = 2 * self.layout.full_data_cells();
        let pass_through = self.layout.data_bits() - first;
        ((data.word(word) >> first) & ((1 << pass_through) - 1)) | (aux_bits << pass_through)
    }

    /// Chooses a word's group and per-block candidates from the candidates'
    /// block costs; `aux_cost` prices an assignment of the reclaimed bits.
    /// Returns the group, the per-block choices and their reclaimed bits.
    ///
    /// Candidate selection follows Algorithm 1 (data-block cost first), then
    /// accounts for the auxiliary-region write cost: the group is chosen on
    /// the full (data + aux) cost and a refinement pass keeps a block on the
    /// frequent candidate `C1` when switching away would cost more in
    /// auxiliary-cell writes than it saves in the data block. This is what
    /// keeps the auxiliary part in the low-energy states, as the paper notes
    /// in Section IX-A.
    fn choose(
        &self,
        costs: &BlockCosts,
        aux_cost: impl Fn(u64) -> f64,
    ) -> (bool, [usize; MAX_WORD_BLOCKS], u64) {
        let blocks = self.layout.blocks();
        debug_assert!(blocks <= MAX_WORD_BLOCKS);
        let ncand = self.candidates.len();
        let (group_b, mut choices, mut bits) = if self.grouped() {
            // Algorithm 1: evaluate both groups, pick the cheaper. Group 0's
            // alternative is C2 (candidate 1), group 1's is C3 (candidate 2).
            let mut totals = [0.0f64; 2];
            let mut updates = [0usize; 2];
            let mut per_group_choices = [[0usize; MAX_WORD_BLOCKS]; 2];
            let mut per_group_bits = [0, self.group_bit()];
            for g in 0..2 {
                let alt = 1 + g;
                for j in 0..blocks {
                    let pick = if costs[alt][j].0 < costs[0][j].0 {
                        per_group_choices[g][j] = 1;
                        per_group_bits[g] |= 1 << self.choice_field(j).0;
                        costs[alt][j]
                    } else {
                        costs[0][j]
                    };
                    totals[g] += pick.0;
                    updates[g] += pick.1;
                }
                totals[g] += aux_cost(per_group_bits[g]);
            }
            let mut pick_b = totals[1] < totals[0];
            if let Some(mo) = self.multi_objective {
                let max = totals[0].max(totals[1]).max(f64::EPSILON);
                if (totals[0] - totals[1]).abs() <= mo.threshold * max {
                    pick_b = updates[1] < updates[0];
                }
            }
            let g = usize::from(pick_b);
            (pick_b, per_group_choices[g], per_group_bits[g])
        } else {
            // Plain selectors (unrestricted, or 64-bit restricted, which
            // degenerates to unrestricted 3cosets): best candidate per block
            // by data cost.
            let mut choices = [0usize; MAX_WORD_BLOCKS];
            let mut bits = 0u64;
            for (j, choice) in choices.iter_mut().enumerate().take(blocks) {
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                for (idx, per_block) in costs.iter().enumerate().take(ncand) {
                    if per_block[j].0 < best_cost {
                        best_cost = per_block[j].0;
                        best = idx;
                    }
                }
                *choice = best;
                bits |= (best as u64) << self.choice_field(j).0;
            }
            (false, choices, bits)
        };

        // Refinement: revisit each block and keep/alter its candidate when the
        // auxiliary-cell cost of recording the switch outweighs the data
        // saving (or vice versa). A trial differs from the current bits only
        // in the block's own field.
        let candidate_options = if self.grouped() { 2 } else { ncand };
        for j in 0..blocks {
            let (shift, width) = self.choice_field(j);
            let rest = bits & !(((1u64 << width) - 1) << shift);
            let mut best_choice = choices[j];
            let mut best_total = f64::INFINITY;
            for option in 0..candidate_options {
                let data_cost = costs[self.resolve_candidate_index(group_b, option)][j].0;
                let total = data_cost + aux_cost(rest | ((option as u64) << shift));
                if total < best_total {
                    best_total = total;
                    best_choice = option;
                }
            }
            choices[j] = best_choice;
            bits = rest | ((best_choice as u64) << shift);
        }
        (group_b, choices, bits)
    }

    /// A fresh encoded line with the format flag set to `flag`.
    fn new_line(&self, old: &PhysicalLine, flag: CellState) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        out.set_class(self.flag_cell(), CellClass::Aux);
        out.set_state(self.flag_cell(), flag);
        out
    }

    /// Stores an incompressible line unencoded through the default mapping
    /// (`raw` is its table).
    fn encode_raw(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        raw: &TransitionTable,
    ) -> PhysicalLine {
        let mut out = self.new_line(old, CellState::S2);
        kernel::store_mapped(data, raw, &mut out);
        out
    }

    /// Encodes a compressible line on the kernel. Each plane word holds two
    /// data words: one word-pair sweep per candidate prices every block of
    /// both, each aux cell's cost per symbol comes from a per-word table, and
    /// the winners' target planes and the aux states are merged into one
    /// plane-assembled write.
    fn encode_compressed(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        tables: &CosetTables,
    ) -> PhysicalLine {
        let (planes, stored) = (data.symbol_planes(), old.state_planes());
        let mut out = self.new_line(old, CellState::S1);
        let layout = self.layout;
        let (fdc, blocks) = (layout.full_data_cells(), layout.blocks());
        let aux_cells = WORD_CELLS - fdc;
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        for pw in 0..PLANE_WORDS {
            let mut pair = [[[(0.0f64, 0usize); MAX_WORD_BLOCKS]; MAX_WORD_CANDIDATES]; 2];
            let mut targets = [(0u64, 0u64); MAX_WORD_CANDIDATES];
            let [low, high] = &mut pair;
            for (idx, target) in targets.iter_mut().enumerate().take(self.candidates.len()) {
                *target = kernel::word_pair_block_costs(
                    &planes,
                    &stored,
                    &tables.candidates[idx],
                    pw,
                    fdc,
                    layout.granularity_bits / 2,
                    &mut low[idx],
                    &mut high[idx],
                );
            }
            for (half, costs) in pair.iter().enumerate() {
                let word = 2 * pw + half;
                let base = WORD_CELLS * half;
                let mut aux_table = [[0.0f64; 4]; MAX_AUX_CELLS];
                for (k, row) in aux_table.iter_mut().enumerate().take(aux_cells) {
                    *row = tables.aux_rows[old.state(word * WORD_CELLS + fdc + k).index()];
                }
                let (group_b, choices, aux_bits) = self.choose(costs, |aux_bits| {
                    let field = self.aux_field(data, word, aux_bits);
                    let mut cost = 0.0;
                    for (k, row) in aux_table.iter().enumerate().take(aux_cells) {
                        cost += row[((field >> (2 * k)) & 3) as usize];
                    }
                    cost
                });
                for (j, &choice) in choices.iter().enumerate().take(blocks) {
                    let (t0, t1) = targets[self.resolve_candidate_index(group_b, choice)];
                    let cells = layout.block_cells(j);
                    let mask = ((1u64 << cells.len()) - 1) << (base + cells.start);
                    out0[pw] |= t0 & mask;
                    out1[pw] |= t1 & mask;
                }
                let field = self.aux_field(data, word, aux_bits);
                for k in 0..aux_cells {
                    let symbol = Symbol::new(((field >> (2 * k)) & 3) as u8);
                    let state = tables.aux.state_of(symbol).index() as u64;
                    let bit = base + fdc + k;
                    out0[pw] |= (state & 1) << bit;
                    out1[pw] |= (state >> 1) << bit;
                }
            }
        }
        out.set_data_planes(&out0, &out1);
        for word in 0..LINE_WORDS {
            for cell in fdc..WORD_CELLS {
                out.set_class(Self::global_cell(word, cell), CellClass::Aux);
            }
        }
        out
    }

    fn coset_tables(&self, energy: &EnergyModel) -> CosetTables {
        let mut candidates = [TransitionTable::placeholder(); MAX_WORD_CANDIDATES];
        for (table, candidate) in candidates.iter_mut().zip(&self.candidates) {
            *table = TransitionTable::new(&candidate.mapping(), energy);
        }
        let aux = TransitionTable::new(&self.aux_mapping, energy);
        let aux_rows = CellState::ALL.map(|old| Symbol::ALL.map(|symbol| aux.cost_pj(old, symbol)));
        CosetTables { candidates, aux, aux_rows }
    }

    /// The scalar reference encoder: per-cell block and aux-region costs and
    /// per-cell writes, with the selection logic shared with the kernel
    /// path. Kept callable for the equivalence tests and the perf snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        if !self.is_compressible(data) {
            let raw = TransitionTable::new(&SymbolMapping::default_mapping(), energy);
            return self.encode_raw(data, old, &raw);
        }
        let mut out = self.new_line(old, CellState::S1);
        for word in 0..LINE_WORDS {
            let mut costs = [[(0.0f64, 0usize); MAX_WORD_BLOCKS]; MAX_WORD_CANDIDATES];
            for (row, candidate) in costs.iter_mut().zip(&self.candidates) {
                for (j, slot) in row.iter_mut().enumerate().take(self.layout.blocks()) {
                    let cells = self.layout.block_cells(j);
                    *slot = self.block_cost(data, old, word, cells, candidate, energy);
                }
            }
            let (group_b, choices, aux_bits) = self
                .choose(&costs, |aux_bits| self.aux_region_cost(data, old, word, aux_bits, energy));
            for (j, &choice) in choices.iter().enumerate().take(self.layout.blocks()) {
                let candidate = &self.candidates[self.resolve_candidate_index(group_b, choice)];
                for cell in self.layout.block_cells(j) {
                    let global = Self::global_cell(word, cell);
                    out.set_state(global, candidate.state_of(data.symbol(global)));
                }
            }
            self.write_aux_region(&mut out, data, word, aux_bits);
        }
        out
    }

    /// The scalar reference decoder (per-cell reads); kept callable for the
    /// equivalence tests.
    #[doc(hidden)]
    pub fn decode_scalar(&self, stored: &PhysicalLine) -> MemoryLine {
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

    /// Builds only the tables of the line's format, then runs the same
    /// format bodies as [`TableCodec::encode_with`].
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        if !self.is_compressible(data) {
            let raw = TransitionTable::new(&SymbolMapping::default_mapping(), energy);
            return self.encode_raw(data, old, &raw);
        }
        self.encode_compressed(data, old, &self.coset_tables(energy))
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    /// Decodes on bit planes: every candidate's inverse mapping is applied
    /// to the whole line at once, each block takes the planes of the
    /// candidate its selector bits name, and the aux mapping's planes supply
    /// the auxiliary region (selector bits and pass-through bit).
    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        if stored.state(self.flag_cell()) != CellState::S1 {
            return kernel::load_mapped(stored, &SymbolMapping::default_mapping());
        }
        let states = stored.state_planes();
        let (mut p0, mut p1) =
            kernel::symbol_planes_from_states(&states, self.aux_mapping.symbols_per_state());
        let aux = kernel::line_from_planes(&p0, &p1);
        let mut inverses = [([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]); MAX_WORD_CANDIDATES];
        for (slot, candidate) in inverses.iter_mut().zip(&self.candidates) {
            *slot =
                kernel::symbol_planes_from_states(&states, candidate.mapping().symbols_per_state());
        }
        let data_bits = self.layout.data_bits();
        for word in 0..LINE_WORDS {
            let (pw, base) = (word / 2, WORD_CELLS * (word % 2));
            let candidates = self.unpack_candidates(aux.word(word) >> data_bits);
            for (j, &idx) in candidates.iter().enumerate().take(self.layout.blocks()) {
                let cells = self.layout.block_cells(j);
                let mask = ((1u64 << cells.len()) - 1) << (base + cells.start);
                let (c0, c1) = &inverses[idx];
                p0[pw] = (p0[pw] & !mask) | (c0[pw] & mask);
                p1[pw] = (p1[pw] & !mask) | (c1[pw] & mask);
            }
        }
        // Rebuild the reclaimed MSBs by sign extension from the top kept bit.
        let words = kernel::line_from_planes(&p0, &p1)
            .words()
            .map(|w| wordutil::sign_extend_from(w, data_bits - 1));
        MemoryLine::from_words(words)
    }
}

impl TableCodec for WlcCosetCodec {
    type Tables = Tables;

    fn tables(&self, energy: &EnergyModel) -> Tables {
        let raw = TransitionTable::new(&SymbolMapping::default_mapping(), energy);
        Tables { raw, coset: self.coset_tables(energy) }
    }

    fn encode_with(&self, tables: &Tables, data: &MemoryLine, old: &PhysicalLine) -> PhysicalLine {
        if !self.is_compressible(data) {
            return self.encode_raw(data, old, &tables.raw);
        }
        self.encode_compressed(data, old, &tables.coset)
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
