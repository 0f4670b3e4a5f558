//! The WLC-integrated coset codecs: WLCRC (restricted) and WLC+n-cosets
//! (unrestricted), Sections V and VI of the paper.

use crate::layout::WordLayout;
use wlcrc_coset::candidate::{c1, c2, c3, CandidateSet, CosetCandidate};
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, Cost, LaneSweep, TransitionTable, PLANE_WORDS};
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

/// The tables of both line formats, built once for a prepared encoder.
pub struct Tables {
    /// The default mapping's table, which stores an incompressible line.
    raw: TransitionTable,
    coset: CosetTables,
}

/// The coset-encoded format's tables in the arithmetic the energy model
/// allows: exact `u64` when it is integer-valued (Table II and every
/// Figure 14 model), `f64` otherwise.
enum CosetTables {
    Exact(Priced<u64>),
    Float(Priced<f64>),
}

/// The coset-encoded format's transition tables and their costs in
/// arithmetic `T`.
struct Priced<T> {
    candidates: [TransitionTable; MAX_WORD_CANDIDATES],
    /// Each candidate's programming energy per target state.
    weights: [[T; 4]; MAX_WORD_CANDIDATES],
    /// The aux mapping's transition cost by old state index and symbol
    /// value: the rows of a word's aux-cell costs.
    aux_rows: [[T; 4]; 4],
    /// The aux mapping's target state index by symbol value.
    aux_states: [u64; 4],
}

/// The word layout as masks and shifts, derived once from the
/// [`WordLayout`] and the policy: what the encode body,
/// [`WlcCosetCodec::choose`] and the decoders read instead of redoing the
/// layout arithmetic.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Cells per block: the lane width of the sweeps.
    width: usize,
    /// Data blocks per word.
    blocks: usize,
    candidates: usize,
    /// Block `j`'s cells of a data word.
    block_masks: [u64; MAX_WORD_BLOCKS],
    /// Where block `j`'s choice sits among the reclaimed bits.
    choice_shifts: [u32; MAX_WORD_BLOCKS],
    /// One choice field's bits: one bit when grouped, two otherwise.
    choice_mask: u64,
    /// The group bit among the reclaimed bits of a grouped codec.
    group_bit: Option<u64>,
    /// The pass-through data bits (zero or one), which sit below the
    /// reclaimed bits in a word's aux field.
    pass_through: u32,
    /// A word's first aux cell (its full data cells come first).
    first_aux: usize,
    aux_cells: usize,
    /// The full data cells of a plane word, both data words.
    data_mask: u64,
}

impl Shape {
    /// The shape of `layout` under a policy with `candidates` candidates.
    /// Restricted codecs below 64-bit granularity are grouped: every block
    /// picks within one group, `{C1, C2}` or `{C1, C3}`, recorded by a group
    /// bit, the top reclaimed bit (word bit 63), and block `j` by one bit
    /// below it, downwards. The others record two-bit candidate indices
    /// from the top down.
    fn new(layout: WordLayout, restricted: bool, candidates: usize) -> Shape {
        let grouped = restricted && layout.granularity_bits < 64;
        let (fdc, reclaimed) = (layout.full_data_cells(), layout.reclaimed_bits);
        let data_cells = (1u64 << fdc) - 1;
        let mut block_masks = [0; MAX_WORD_BLOCKS];
        let mut choice_shifts = [0; MAX_WORD_BLOCKS];
        let fields = block_masks.iter_mut().zip(&mut choice_shifts);
        for (j, (mask, shift)) in fields.enumerate().take(layout.blocks()) {
            let cells = layout.block_cells(j);
            *mask = ((1 << cells.len()) - 1) << cells.start;
            *shift = (reclaimed - 2 - if grouped { j } else { 2 * j }) as u32;
        }
        Shape {
            width: layout.granularity_bits / 2,
            blocks: layout.blocks(),
            candidates,
            block_masks,
            choice_shifts,
            choice_mask: if grouped { 1 } else { 3 },
            group_bit: grouped.then_some(1 << (reclaimed - 1)),
            pass_through: (layout.data_bits() - 2 * fdc) as u32,
            first_aux: fdc,
            aux_cells: WORD_CELLS - fdc,
            data_mask: data_cells | data_cells << WORD_CELLS,
        }
    }

    /// The choice block `j` records in the reclaimed bits `bits`.
    #[inline]
    fn choice(&self, bits: u64, j: usize) -> usize {
        ((bits >> self.choice_shifts[j]) & self.choice_mask) as usize
    }

    /// The candidate index a choice names: a grouped choice is `C1` (0) or
    /// the group's alternative (1), `C2` in group A and `C3` in group B; a
    /// plain choice is the index itself.
    #[inline]
    fn resolve(&self, group_b: bool, choice: usize) -> usize {
        if self.group_bit.is_some() {
            choice * (1 + usize::from(group_b))
        } else {
            choice
        }
    }
}

/// One data word's prices in arithmetic `T` beside the candidates' sweeps
/// of its plane word: what [`WlcCosetCodec::choose`] selects from.
struct WordCosts<T> {
    /// The word's first lane in the sweeps: block `j` is lane
    /// `first_lane + j`.
    first_lane: usize,
    /// The word's first cell in the sweeps' `changed` masks.
    base: usize,
    /// `aux[k][v]`: the cost of aux cell `k` storing symbol value `v`.
    aux: [[T; 4]; MAX_AUX_CELLS],
    /// The word's pass-through data bits.
    pass_through: u64,
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
    shape: Shape,
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
                    shape: Shape::new(layout, true, 3),
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
                    shape: Shape::new(layout, false, set.len()),
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
    /// word `word`) of `data` with `candidate` against the stored `old`, and
    /// the block's cells it reprograms as a word-relative mask.
    fn block_cost(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        word: usize,
        cells: std::ops::Range<usize>,
        candidate: &CosetCandidate,
        energy: &EnergyModel,
    ) -> (f64, u64) {
        let mut cost = 0.0;
        let mut changed = 0;
        for cell in cells {
            let global = Self::global_cell(word, cell);
            let target = candidate.state_of(data.symbol(global));
            if old.state(global) != target {
                cost += energy.write_energy_pj(target);
                changed |= 1 << cell;
            }
        }
        (cost, changed)
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

    /// Recovers the per-block candidate indices from the reclaimed bits for
    /// decoding (only the first `layout.blocks()` entries are meaningful).
    fn unpack_candidates(&self, aux_bits: u64) -> [usize; MAX_WORD_BLOCKS] {
        let shape = &self.shape;
        let group_b = shape.group_bit.is_some_and(|bit| aux_bits & bit != 0);
        core::array::from_fn(|j| {
            shape.resolve(group_b, shape.choice(aux_bits, j)).min(shape.candidates - 1)
        })
    }

    /// The aux cells' cost when the word's reclaimed bits are `bits`: aux
    /// cell `k` stores bits `2k` and `2k + 1` of the aux field, the
    /// pass-through data bits followed by the reclaimed bits. Summed in
    /// ascending `k` from zero.
    #[inline]
    fn aux_cost<T: Cost>(shape: &Shape, word: &WordCosts<T>, bits: u64) -> T {
        let mut field = word.pass_through | bits << shape.pass_through;
        let mut cost = T::ZERO;
        for row in word.aux.iter().take(shape.aux_cells) {
            cost = cost + row[(field & 3) as usize];
            field >>= 2;
        }
        cost
    }

    /// Chooses a word's group and per-block candidates from its prices in
    /// arithmetic `T`, `sweeps` holding one sweep per candidate. Returns the
    /// group and the reclaimed bits that record the choices.
    ///
    /// Candidate selection follows Algorithm 1 (data-block cost first), then
    /// accounts for the auxiliary-region write cost: the group is chosen on
    /// the full (data + aux) cost and a refinement pass keeps a block on the
    /// frequent candidate `C1` when switching away would cost more in
    /// auxiliary-cell writes than it saves in the data block. This is what
    /// keeps the auxiliary part in the low-energy states, as the paper notes
    /// in Section IX-A.
    ///
    /// Every comparison is a strict `<` that keeps the first minimum, group
    /// totals add the blocks' costs in block order and then the aux cost,
    /// and the multi-objective threshold is tested in `f64` on the exactly
    /// converted totals, so `u64` and `f64` prices of an integer-valued
    /// table choose alike.
    fn choose<T: Cost>(
        &self,
        shape: &Shape,
        sweeps: &[LaneSweep<T>],
        word: &WordCosts<T>,
    ) -> (bool, u64) {
        let blocks = shape.blocks;
        let cost = |candidate: usize, j: usize| sweeps[candidate].costs[word.first_lane + j];
        let aux_cost = |bits: u64| Self::aux_cost(shape, word, bits);
        let Some(group_bit) = shape.group_bit else {
            // Plain selectors (unrestricted, or 64-bit restricted, which
            // degenerates to unrestricted 3cosets): best candidate per block
            // by data cost, then a refinement pass that tries every
            // candidate of each block with the aux cost of recording it.
            let mut bits = 0u64;
            for j in 0..blocks {
                let mut best = 0;
                for candidate in 1..shape.candidates {
                    best = if cost(candidate, j) < cost(best, j) { candidate } else { best };
                }
                bits |= (best as u64) << shape.choice_shifts[j];
            }
            for j in 0..blocks {
                let shift = shape.choice_shifts[j];
                let rest = bits & !(shape.choice_mask << shift);
                let price = |candidate: usize| {
                    cost(candidate, j) + aux_cost(rest | (candidate as u64) << shift)
                };
                let (mut best, mut best_total) = (0, price(0));
                for candidate in 1..shape.candidates {
                    let total = price(candidate);
                    let better = total < best_total;
                    best = if better { candidate } else { best };
                    best_total = if better { total } else { best_total };
                }
                bits = rest | (best as u64) << shift;
            }
            return (false, bits);
        };

        // Algorithm 1: evaluate both groups, pick the cheaper. Group 0's
        // alternative is C2 (candidate 1), group 1's is C3 (candidate 2).
        let mut totals = [T::ZERO; 2];
        let mut aux = [T::ZERO; 2];
        let mut bits = [0, group_bit];
        for g in 0..2 {
            for j in 0..blocks {
                let (frequent, alternative) = (cost(0, j), cost(1 + g, j));
                let switch = alternative < frequent;
                bits[g] |= u64::from(switch) << shape.choice_shifts[j];
                totals[g] = totals[g] + if switch { alternative } else { frequent };
            }
            aux[g] = aux_cost(bits[g]);
            totals[g] = totals[g] + aux[g];
        }
        let mut pick_b = totals[1] < totals[0];
        if let Some(mo) = self.multi_objective {
            let (a, b) = (totals[0].to_f64(), totals[1].to_f64());
            let max = a.max(b).max(f64::EPSILON);
            if (a - b).abs() <= mo.threshold * max {
                // The cells each group would reprogram.
                let updated = |g: usize| -> u32 {
                    (0..blocks)
                        .map(|j| {
                            let candidate = shape.resolve(g == 1, shape.choice(bits[g], j));
                            let changed = sweeps[candidate].changed >> word.base;
                            (changed & shape.block_masks[j]).count_ones()
                        })
                        .sum()
                };
                pick_b = updated(1) < updated(0);
            }
        }

        // Refinement: revisit each block and keep/alter its candidate when the
        // auxiliary-cell cost of recording the switch outweighs the data
        // saving (or vice versa). A block's options are C1 and the group's
        // alternative, recorded by one bit; the current bits' aux cost is
        // known, so only the flipped bit's is computed.
        let g = usize::from(pick_b);
        let (mut bits, mut aux) = (bits[g], aux[g]);
        for j in 0..blocks {
            let flip = 1 << shape.choice_shifts[j];
            let flipped = aux_cost(bits ^ flip);
            let (frequent, alternative) =
                if bits & flip == 0 { (aux, flipped) } else { (flipped, aux) };
            let switch = cost(1 + g, j) + alternative < cost(0, j) + frequent;
            bits = if switch { bits | flip } else { bits & !flip };
            aux = if switch { alternative } else { frequent };
        }
        (pick_b, bits)
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

    /// Encodes a compressible line on the kernel, in arithmetic `T`. Each
    /// plane word holds two data words: one lane sweep per candidate prices
    /// every block of both, each word's aux cells are priced from the aux
    /// rows by their stored states, and each candidate's target planes are
    /// merged through the mask of the blocks that chose it, with the aux
    /// states, into one plane-assembled write.
    fn encode_compressed<T: Cost>(
        &self,
        tables: &Priced<T>,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        let (planes, stored) = (data.symbol_planes(), old.state_planes());
        let shape = &self.shape;
        let candidates = shape.candidates;
        let (mut out0, mut out1) = ([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]);
        let mut sweeps = [LaneSweep::EMPTY; MAX_WORD_CANDIDATES];
        let mut word = WordCosts {
            first_lane: 0,
            base: 0,
            aux: [[T::ZERO; 4]; MAX_AUX_CELLS],
            pass_through: 0,
        };
        for pw in 0..PLANE_WORDS {
            for (c, sweep) in sweeps.iter_mut().enumerate().take(candidates) {
                let (table, weights) = (&tables.candidates[c], &tables.weights[c]);
                kernel::sweep_lanes(
                    &planes,
                    &stored,
                    table,
                    weights,
                    pw,
                    shape.data_mask,
                    shape.width,
                    sweep,
                );
            }
            let mut selected = [0u64; MAX_WORD_CANDIDATES];
            for half in 0..2 {
                let base = WORD_CELLS * half;
                let first_aux = base + shape.first_aux;
                let (lo, hi) = (stored.plane0()[pw] >> first_aux, stored.plane1()[pw] >> first_aux);
                for (k, row) in word.aux.iter_mut().enumerate().take(shape.aux_cells) {
                    *row = tables.aux_rows[(((lo >> k) & 1) | ((hi >> k) & 1) << 1) as usize];
                }
                word.first_lane = half * (WORD_CELLS / shape.width);
                word.base = base;
                word.pass_through = (data.word(2 * pw + half) >> (2 * shape.first_aux))
                    & ((1 << shape.pass_through) - 1);
                let (group_b, bits) = self.choose(shape, &sweeps[..candidates], &word);
                for j in 0..shape.blocks {
                    selected[shape.resolve(group_b, shape.choice(bits, j))] |=
                        shape.block_masks[j] << base;
                }
                let field = word.pass_through | bits << shape.pass_through;
                for k in 0..shape.aux_cells {
                    let state = tables.aux_states[((field >> (2 * k)) & 3) as usize];
                    out0[pw] |= (state & 1) << (first_aux + k);
                    out1[pw] |= (state >> 1) << (first_aux + k);
                }
            }
            for (sweep, mask) in sweeps.iter().zip(selected) {
                out0[pw] |= sweep.targets.0 & mask;
                out1[pw] |= sweep.targets.1 & mask;
            }
        }
        let mut out = self.new_line(old, CellState::S1);
        out.set_data_planes(&out0, &out1);
        out.set_data_classes(&[!shape.data_mask; PLANE_WORDS]);
        out
    }

    fn coset_tables(&self, energy: &EnergyModel) -> CosetTables {
        let mut candidates = [TransitionTable::placeholder(); MAX_WORD_CANDIDATES];
        for (table, candidate) in candidates.iter_mut().zip(&self.candidates) {
            *table = TransitionTable::new(&candidate.mapping(), energy);
        }
        let aux = TransitionTable::new(&self.aux_mapping, energy);
        if candidates.iter().chain([&aux]).all(TransitionTable::integer_valued) {
            CosetTables::Exact(self.priced(candidates, &aux))
        } else {
            CosetTables::Float(self.priced(candidates, &aux))
        }
    }

    /// The coset format's tables with their costs in arithmetic `T`.
    fn priced<T: Cost>(
        &self,
        candidates: [TransitionTable; MAX_WORD_CANDIDATES],
        aux: &TransitionTable,
    ) -> Priced<T> {
        let aux_weights = T::weights(aux);
        Priced {
            weights: candidates.each_ref().map(T::weights),
            candidates,
            aux_rows: CellState::ALL.map(|old| {
                Symbol::ALL.map(|symbol| {
                    let target = aux.state_of(symbol);
                    if target == old {
                        T::ZERO
                    } else {
                        aux_weights[target.index()]
                    }
                })
            }),
            aux_states: Symbol::ALL.map(|symbol| aux.state_of(symbol).index() as u64),
        }
    }

    /// Encodes a compressible line in the arithmetic its tables hold.
    fn encode_coset(
        &self,
        tables: &CosetTables,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        match tables {
            CosetTables::Exact(priced) => self.encode_compressed(priced, data, old),
            CosetTables::Float(priced) => self.encode_compressed(priced, data, old),
        }
    }

    /// The scalar reference encoder: per-cell block and aux-cell costs and
    /// per-cell writes, with the selection ([`Self::choose`]) shared with
    /// the kernel path at `f64`. Kept callable for the equivalence tests and
    /// the perf snapshot.
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
        let shape = &self.shape;
        let (fdc, blocks) = (self.layout.full_data_cells(), self.layout.blocks());
        let mut out = self.new_line(old, CellState::S1);
        for word in 0..LINE_WORDS {
            let mut sweeps = [LaneSweep::EMPTY; MAX_WORD_CANDIDATES];
            for (sweep, candidate) in sweeps.iter_mut().zip(&self.candidates) {
                for j in 0..blocks {
                    let cells = self.layout.block_cells(j);
                    let (cost, changed) =
                        self.block_cost(data, old, word, cells, candidate, energy);
                    sweep.costs[j] = cost;
                    sweep.changed |= changed;
                }
            }
            let mut costs = WordCosts {
                first_lane: 0,
                base: 0,
                aux: [[0.0; 4]; MAX_AUX_CELLS],
                pass_through: self
                    .layout
                    .pass_through_bit()
                    .map_or(0, |bit| u64::from(data.bit(word * 64 + bit))),
            };
            for (row, cell) in costs.aux.iter_mut().zip(fdc..WORD_CELLS) {
                let stored = old.state(Self::global_cell(word, cell));
                *row = Symbol::ALL.map(|symbol| {
                    energy.transition_energy_pj(stored, self.aux_mapping.state_of(symbol))
                });
            }
            let (group_b, aux_bits) = self.choose(shape, &sweeps[..shape.candidates], &costs);
            for j in 0..blocks {
                let candidate = &self.candidates[shape.resolve(group_b, shape.choice(aux_bits, j))];
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
        self.encode_coset(&self.coset_tables(energy), data, old)
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
            for (j, &idx) in candidates.iter().enumerate().take(self.shape.blocks) {
                let mask = self.shape.block_masks[j] << base;
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
        self.encode_coset(&tables.coset, data, old)
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
