//! Proptest equivalence suite for the bit-parallel candidate-evaluation
//! kernel: every optimised encode, run through the codec's prepared
//! `LineEncoder`, must be byte-identical to its retained scalar reference
//! (`encode_scalar`), for all schemes × content classes × stored states ×
//! energy configurations; every prepared encoder must match its codec's
//! `LineCodec::encode`, first touches over the codec's initial line
//! included; the word streams of FPC, BDI and the COC repack must match
//! their `BitBuf` oracles bit for bit and length for length, and the packed
//! `BitBuf` streams must round-trip exactly like the `Vec<bool>` streams
//! they replaced. The plane-based accounting tail
//! (`differential_write`, `evaluate_disturbance`) and the fixed-mapping
//! store/load are checked against the cell-by-cell loops they replaced, kept
//! here as oracles. The compression-gated codecs' plane decodes are checked
//! against their per-cell `decode_scalar` on arbitrary stored lines. Under a
//! non-integer energy table, where the kernel and the scalar oracles may sum
//! in different orders, golden fingerprints pin the encodes of the
//! compression-gated codecs, of the n-cosets codecs and `3-r-cosets` at
//! sub-word and whole-word widths, and of FNW at every width.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use wlcrc_repro::compress::{Bdi, Coc, Fpc, LineStream};
use wlcrc_repro::coset::{
    DinCodec, FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
};
use wlcrc_repro::ecc::BitBuf;
use wlcrc_repro::pcm::codec::LineCodec;
use wlcrc_repro::pcm::kernel::{
    self, block_cost, block_updated_cells, SymbolPlanes, TransitionTable,
};
use wlcrc_repro::pcm::line::MemoryLine;
use wlcrc_repro::pcm::mapping::SymbolMapping;
use wlcrc_repro::pcm::prelude::*;
use wlcrc_repro::wlcrc::schemes::standard_schemes;
use wlcrc_repro::wlcrc::{CocCosetCodec, MultiObjectiveConfig, WlcCosetCodec};
use wlcrc_repro::{differential_write, evaluate_disturbance, StableHasher};

fn arb_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8(any::<u64>()).prop_map(MemoryLine::from_words)
}

/// Lines biased the way real workloads are: per-word class mix, including
/// WLC-compressible sign-extended values.
fn arb_biased_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8((0u8..6, any::<u64>()).prop_map(|(class, raw)| match class {
        0 => 0u64,
        1 => u64::MAX,
        2 => raw & 0xFFFF,
        3 => (-(i64::from(raw as u16))) as u64,
        4 => {
            let magnitude = raw & ((1u64 << 57) - 1);
            (-(magnitude as i64)) as u64
        }
        _ => raw,
    }))
    .prop_map(MemoryLine::from_words)
}

/// DIN content classes: the biased real-workload mix (mostly compressible,
/// taking the expanded path behind the flag symbol), full-entropy lines, and
/// forced-incompressible lines (every word random with the top bit set, so
/// FPC/BDI both miss the threshold) that take the raw fallback path.
fn arb_din_line() -> impl Strategy<Value = MemoryLine> {
    (0u8..3, arb_biased_line(), arb_line()).prop_map(|(class, biased, raw)| match class {
        0 => biased,
        1 => raw,
        _ => {
            let mut words = *raw.words();
            for w in &mut words {
                *w |= 0x8000_0000_0000_0000;
            }
            MemoryLine::from_words(words)
        }
    })
}

/// One line per BDI tag, in tag order: the all-zero line (tag 0), a
/// repeated value (tag 1), then for each `BdiConfig::ALL[k]` (tag `2 + k`) a
/// line of elements near one base that no smaller configuration, nor an
/// equally small earlier one, fits; then a line two equally small
/// configurations fit ([`BDI_TAGS`]). Then one line per COC+4cosets format:
/// small values (at most 448 packed bits, 16-bit blocks), six full words and
/// two of three bytes (464 bits, 32-bit blocks) and eight full words (544
/// bits, raw). Last, a line whose words keep 8 down to 1 significant bytes,
/// and a biased line.
fn arb_stream_lines() -> impl Strategy<Value = Vec<MemoryLine>> {
    (prop::array::uniform8(any::<u64>()), arb_biased_line()).prop_map(|(r, biased)| {
        // `n` deltas below `bound`, but `fixed`'s (index, delta) pairs.
        let deltas = |n: usize, bound: u64, fixed: &[(usize, u64)]| -> Vec<u64> {
            (0..n)
                .map(|i| match fixed.iter().find(|(at, _)| *at == i) {
                    Some(&(_, delta)) => delta,
                    None => r[i % 8].rotate_left(7 * i as u32) % bound,
                })
                .collect()
        };
        // Elements `base + delta` of `bits` bits each, in line order.
        let elements = |bits: usize, base: u64, deltas: Vec<u64>| {
            let mut words = [0u64; 8];
            for (i, delta) in deltas.into_iter().enumerate() {
                words[i * bits / 64] |= (base + delta) << (i * bits % 64);
            }
            MemoryLine::from_words(words)
        };
        let full = |w: u64| (w & !(1 << 63)) | 1 << 62;
        vec![
            MemoryLine::ZERO,
            MemoryLine::from_words([r[0] | 1; 8]),
            // 8-byte base, 1-byte deltas.
            elements(64, 1 << 62 | r[0] >> 4, deltas(8, 128, &[(0, 0), (1, 1)])),
            // 8-byte base, 2-byte deltas: word 1 is 1000 past word 0.
            elements(
                64,
                0x4000_0000_4000_0000 | r[0] & 0x0FFF_FFFF_0FFF_FFFF,
                deltas(8, 1 << 15, &[(0, 0), (1, 1000)]),
            ),
            // 8-byte base, 4-byte deltas: word 1 is 100,000 past word 0, and
            // the upper halves' top 16 bits sit 0x700 apart from the lower's.
            elements(
                64,
                0x4800_0000_4000_0000 | r[0] & 0x00FF_FFFF_00FF_FFFF,
                deltas(8, 1 << 24, &[(0, 0), (1, 100_000)]),
            ),
            // 4-byte base, 1-byte deltas: words differ in their upper halves.
            elements(
                32,
                0x4000_0000 | r[0] & 0x0FFF_FFFF,
                deltas(16, 128, &[(0, 0), (1, 0), (3, 1)]),
            ),
            // 4-byte base, 2-byte deltas.
            elements(
                32,
                0x4000_0000 | r[0] & 0x0FFF_FFFF,
                deltas(16, 1 << 15, &[(0, 0), (1, 0), (2, 1000), (3, 1)]),
            ),
            // 2-byte base, 1-byte deltas: 4-byte elements differ in their upper
            // halves, and so do words.
            elements(
                16,
                0x4000 | r[0] & 0x0FFF,
                deltas(32, 128, &[(0, 0), (1, 0), (3, 1), (5, 1)]),
            ),
            // 4-byte elements b:0, b:b, b:b, then zeros: both the 4-byte base
            // with 2-byte deltas and the 2-byte base with 1-byte deltas fit,
            // in 304 bits each, and the earlier (tag 6) wins.
            elements(16, 0, [0, 1, 1, 1, 1, 1].map(|b| b * (0x1000 | r[1] & 0x0FFF)).to_vec()),
            MemoryLine::from_words(std::array::from_fn(|i| r[i] & 0xFFFF)),
            MemoryLine::from_words(std::array::from_fn(|i| match i {
                2 | 6 => 0x40_0000 | r[i] & 0x3F_FFFF,
                _ => full(r[i]),
            })),
            MemoryLine::from_words(r.map(full)),
            MemoryLine::from_words(std::array::from_fn(|i| {
                ((r[i] as i64) >> (8 * i as u64 + r[i] % 8)) as u64
            })),
            biased,
        ]
    })
}

/// The BDI tag of each leading line of [`arb_stream_lines`].
const BDI_TAGS: [u64; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 6];

/// A word stream matches its `BitBuf` oracle: the same length, and the
/// oracle's first 512 bits in its words.
fn matches_oracle(stream: &LineStream, oracle: &BitBuf) -> bool {
    let held = oracle.words().iter().copied().chain(std::iter::repeat(0)).take(LINE_WORDS);
    stream.len() == oracle.len() && held.eq(stream.words().iter().copied())
}

fn arb_energy() -> impl Strategy<Value = EnergyModel> {
    prop::sample::select(vec![0usize, 1, 2, 3])
        .prop_map(|i| EnergyModel::figure14_configurations()[i].clone())
}

/// The four Figure 14 energy models plus one with non-integer energies,
/// which takes `differential_write`'s cell-by-cell fallback and the
/// codecs' f64 selection paths.
fn arb_any_energy() -> impl Strategy<Value = EnergyModel> {
    prop::sample::select(vec![0usize, 1, 2, 3, 4]).prop_map(|i| match i {
        4 => EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25]),
        _ => EnergyModel::figure14_configurations()[i].clone(),
    })
}

/// The paper's disturbance rates, or distinct rates with a non-zero `S2`
/// rate (an idle `S2` cell must still be skipped, not drawn for).
fn arb_disturbance() -> impl Strategy<Value = DisturbanceModel> {
    any::<bool>().prop_map(|custom| match custom {
        true => DisturbanceModel::new([0.3, 0.05, 0.7, 0.01]),
        false => DisturbanceModel::paper_default(),
    })
}

/// An (old, new) pair of 1–255, exactly 256 or 257–512 cells, so every
/// plane word of the longest line is covered. About a quarter of the cells
/// are auxiliary, inside the first 256 cells as well as past them;
/// `rewrite` (0–4) sets how many cells the new line rewrites, from none to
/// all.
fn arb_line_pair() -> impl Strategy<Value = (PhysicalLine, PhysicalLine)> {
    let cell = (0usize..4, 0usize..4, 0u8..4, 0u8..4);
    let lengths = (0u8..3, 1usize..256, 257usize..=MAX_LINE_CELLS);
    (lengths, prop::collection::vec(cell, MAX_LINE_CELLS..MAX_LINE_CELLS + 1), 0u8..5).prop_map(
        |((band, short, long), cells, rewrite)| {
            let len = [short, 256, long][usize::from(band)];
            let mut old_states = Vec::with_capacity(len);
            let mut new_states = Vec::with_capacity(len);
            let mut classes = Vec::with_capacity(len);
            for &(old, new, roll, class) in &cells[..len] {
                old_states.push(CellState::from_index(old));
                new_states.push(CellState::from_index(if roll < rewrite { new } else { old }));
                classes.push(if class == 0 { CellClass::Aux } else { CellClass::Data });
            }
            let old = PhysicalLine::from_parts(old_states, classes.clone());
            let new = PhysicalLine::from_parts(new_states, classes);
            (old, new)
        },
    )
}

/// Scalar oracle of `differential_write`: one cell at a time, in ascending
/// order.
fn differential_write_scalar(
    old: &PhysicalLine,
    new: &PhysicalLine,
    energy: &EnergyModel,
) -> WriteOutcome {
    let mut outcome = WriteOutcome::default();
    for (idx, new_state, class) in new.iter() {
        if old.state(idx) == new_state {
            continue;
        }
        let e = energy.write_energy_pj(new_state);
        match class {
            CellClass::Data => {
                outcome.data_energy_pj += e;
                outcome.data_cells_updated += 1;
            }
            CellClass::Aux => {
                outcome.aux_energy_pj += e;
                outcome.aux_cells_updated += 1;
            }
        }
    }
    outcome
}

/// Scalar oracle of `evaluate_disturbance`: collects the written cells,
/// then walks each one's neighbours, left before right.
fn evaluate_disturbance_scalar<R: Rng + ?Sized>(
    old: &PhysicalLine,
    new: &PhysicalLine,
    model: &DisturbanceModel,
    rng: &mut R,
) -> DisturbanceOutcome {
    let written: Vec<usize> = (0..new.len()).filter(|&i| old.state(i) != new.state(i)).collect();
    let mut is_written = vec![false; new.len()];
    for &i in &written {
        is_written[i] = true;
    }
    let mut outcome = DisturbanceOutcome::default();
    for &w in &written {
        let neighbours = [w.checked_sub(1), if w + 1 < new.len() { Some(w + 1) } else { None }];
        for n in neighbours.into_iter().flatten() {
            if is_written[n] || !new.state(n).is_disturbable() {
                continue;
            }
            let p = model.rate(new.state(n));
            let is_aux = new.class(n) == CellClass::Aux;
            if is_aux {
                outcome.expected_aux_errors += p;
            } else {
                outcome.expected_data_errors += p;
            }
            if rng.gen::<f64>() < p {
                if is_aux {
                    outcome.aux_errors += 1;
                } else {
                    outcome.data_errors += 1;
                }
            }
        }
    }
    outcome
}

/// Encodes `seed_data` then `data` with both paths, asserting byte equality
/// at each step (the second write exercises a non-trivial stored line). The
/// kernel side runs through the codec's prepared encoder, the first write
/// over the codec's initial line.
fn assert_kernel_equals_scalar<F>(
    codec: &dyn LineCodec,
    scalar: F,
    seed_data: &MemoryLine,
    data: &MemoryLine,
    energy: &EnergyModel,
) where
    F: Fn(&MemoryLine, &PhysicalLine, &EnergyModel) -> PhysicalLine,
{
    let encoder = codec.encoder(energy);
    let initial = codec.initial_line();
    let first_kernel = encoder.encode(seed_data, &initial);
    let first_scalar = scalar(seed_data, &initial, energy);
    assert_eq!(first_kernel, first_scalar, "{}: first write diverged", codec.name());
    let second_kernel = encoder.encode(data, &first_kernel);
    let second_scalar = scalar(data, &first_kernel, energy);
    assert_eq!(second_kernel, second_scalar, "{}: second write diverged", codec.name());
    assert_eq!(codec.decode(&second_kernel), *data, "{}: decode mismatch", codec.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ncosets_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                     g in prop::sample::select(vec![8usize, 16, 32, 64, 128, 256, 512]),
                                     energy in arb_energy()) {
        for codec in [
            NCosetsCodec::three_cosets(Granularity::new(g)),
            NCosetsCodec::four_cosets(Granularity::new(g)),
            NCosetsCodec::six_cosets(Granularity::new(g)),
        ] {
            let scalar = codec.clone();
            assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        }
    }

    #[test]
    fn restricted_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                        g in prop::sample::select(vec![8usize, 16, 32, 64, 128, 256, 512]),
                                        energy in arb_energy()) {
        let codec = RestrictedCosetCodec::new(Granularity::new(g));
        let scalar = codec.clone();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn fnw_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                 g in prop::sample::select(Granularity::SWEEP.to_vec()),
                                 energy in arb_energy()) {
        let codec = FnwCodec::new(g);
        let scalar = codec.clone();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn flipmin_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(), energy in arb_energy()) {
        let codec = FlipMinCodec::new();
        let scalar = FlipMinCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn din_kernel_matches_scalar(a in arb_din_line(), b in arb_din_line(), energy in arb_energy()) {
        let codec = DinCodec::new();
        let scalar = DinCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        // Both decoders must also agree on both stored lines — the expanded
        // BCH-protected format behind the flag symbol and the raw
        // uncompressible fallback.
        let initial = codec.initial_line();
        let first = codec.encode(&a, &initial, &energy);
        let second = codec.encode(&b, &first, &energy);
        prop_assert_eq!(codec.decode(&first), codec.decode_scalar(&first));
        prop_assert_eq!(codec.decode(&second), codec.decode_scalar(&second));
    }

    /// A prepared encoder is the codec's `encode` with its tables built
    /// once: chained encodes, and first touches over the codec's initial
    /// line, must match `encode` byte for byte under integer and
    /// non-integer energy tables.
    #[test]
    fn encoder_matches_encode(lines in prop::collection::vec(arb_biased_line(), 1..8),
                              random in arb_line(),
                              energy in arb_any_energy()) {
        let mut codecs: Vec<Box<dyn LineCodec>> =
            standard_schemes().into_iter().map(|(_, codec)| codec).collect();
        codecs.push(Box::new(RestrictedCosetCodec::new(Granularity::new(16))));
        for codec in &codecs {
            let encoder = codec.encoder(&energy);
            let mut old = codec.initial_line();
            for line in lines.iter().chain([&random]) {
                prop_assert_eq!(
                    encoder.encode(line, &codec.initial_line()),
                    codec.encode(line, &codec.initial_line(), &energy),
                    "{}: first touch diverged", codec.name()
                );
                let new = encoder.encode(line, &old);
                prop_assert_eq!(&new, &codec.encode(line, &old, &energy),
                                "{}: chained encode diverged", codec.name());
                old = new;
            }
        }
    }

    #[test]
    fn wlc_coset_kernel_matches_scalar(a in arb_biased_line(), b in arb_biased_line(),
                                       g in prop::sample::select(vec![8usize, 16, 32, 64]),
                                       energy in arb_energy()) {
        for codec in [
            WlcCosetCodec::wlcrc(g),
            WlcCosetCodec::wlcrc(g).with_multi_objective(MultiObjectiveConfig::paper_default()),
            WlcCosetCodec::wlc_four_cosets(g),
            WlcCosetCodec::wlc_three_cosets(g),
        ] {
            let scalar = codec.clone();
            assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        }
    }

    /// Arbitrary stored content under every flag state: the plane decodes
    /// must read exactly what the per-cell decodes read, clamped selectors
    /// and overlong COC length tags included.
    #[test]
    fn compression_gated_decodes_match_scalar(states in prop::collection::vec(0usize..4, 256..257),
                                              flag in 0usize..4,
                                              g in prop::sample::select(vec![8usize, 16, 32, 64])) {
        let stored = PhysicalLine::from_states(
            states.iter().chain([&flag]).map(|&i| CellState::from_index(i)).collect(),
        );
        for codec in [
            WlcCosetCodec::wlcrc(g),
            WlcCosetCodec::wlc_four_cosets(g),
            WlcCosetCodec::wlc_three_cosets(g),
        ] {
            prop_assert_eq!(codec.decode(&stored), codec.decode_scalar(&stored), "{}", codec.name());
        }
        let coc = CocCosetCodec::new();
        prop_assert_eq!(coc.decode(&stored), coc.decode_scalar(&stored));
    }

    #[test]
    fn coc_coset_kernel_matches_scalar(a in arb_biased_line(), b in arb_biased_line(), energy in arb_energy()) {
        let codec = CocCosetCodec::new();
        let scalar = CocCosetCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn every_standard_scheme_round_trips_on_kernel_paths(a in arb_biased_line(), b in arb_line()) {
        let energy = EnergyModel::paper_default();
        for (id, codec) in standard_schemes() {
            let first = codec.encode(&a, &codec.initial_line(), &energy);
            prop_assert_eq!(codec.decode(&first), a, "{:?}", id);
            let second = codec.encode(&b, &first, &energy);
            prop_assert_eq!(codec.decode(&second), b, "{:?}", id);
        }
    }

    #[test]
    fn kernel_block_primitives_match_per_cell_evaluation(
        data in arb_line(),
        stored in prop::collection::vec(0usize..4, 256..257),
        start in 0usize..256,
        len in 1usize..256,
        mapping_idx in 0usize..24,
    ) {
        let energy = EnergyModel::paper_default();
        let mapping = SymbolMapping::all_mappings()[mapping_idx];
        let table = TransitionTable::new(&mapping, &energy);
        let old = PhysicalLine::from_states(
            stored.iter().map(|&i| CellState::from_index(i)).collect(),
        );
        let cells = start..(start + len).min(256);
        let (dp, op) = (SymbolPlanes::new(&data), old.state_planes());
        let mut expect_cost = 0.0;
        let mut expect_updated = 0usize;
        for cell in cells.clone() {
            let target = mapping.state_of(data.symbol(cell));
            expect_cost += energy.transition_energy_pj(old.state(cell), target);
            if old.state(cell) != target {
                expect_updated += 1;
            }
        }
        prop_assert_eq!(block_cost(&dp, &op, cells.clone(), &table), expect_cost);
        prop_assert_eq!(block_updated_cells(&dp, &op, cells, &table), expect_updated);
    }

    // The word streams must match their BitBuf oracles and round-trip for
    // every compressor, BitBuf streams must round-trip too, and converting a
    // stream through Vec<bool> and back must be the identity.
    #[test]
    fn fpc_bitbuf_stream_round_trips(lines in arb_stream_lines()) {
        let fpc = Fpc::new();
        for line in lines {
            let (words, stream) = (fpc.encode_words(&line), fpc.encode_stream(&line));
            prop_assert!(matches_oracle(&words, &stream), "{:?}", line);
            if words.len() <= LINE_BITS {
                prop_assert_eq!(fpc.decode_words(&words), line);
            }
            prop_assert_eq!(fpc.decode_stream(&stream), line);
            prop_assert_eq!(BitBuf::from_bools(&stream.to_bools()), stream);
        }
    }

    #[test]
    fn bdi_bitbuf_stream_round_trips(lines in arb_stream_lines()) {
        let bdi = Bdi::new();
        for (i, line) in lines.into_iter().enumerate() {
            let (words, stream) = (bdi.encode_words(&line), bdi.encode_stream(&line));
            if let Some(&tag) = BDI_TAGS.get(i) {
                prop_assert_eq!(words.map(|words| words.read(0, 3)), Some(tag), "BDI tag of line {}", i);
            }
            prop_assert_eq!(words.is_some(), stream.is_some());
            if let (Some(words), Some(stream)) = (words, stream) {
                prop_assert!(matches_oracle(&words, &stream), "{:?}", line);
                prop_assert_eq!(bdi.decode_words(&words), line);
                prop_assert_eq!(bdi.decode_stream(&stream), line);
                prop_assert_eq!(BitBuf::from_bools(&stream.to_bools()), stream);
            }
        }
    }

    #[test]
    fn coc_repack_bitbuf_matches_bools(lines in arb_stream_lines()) {
        for (i, line) in lines.into_iter().enumerate() {
            let (words, packed) = (Coc::repack_words(&line), Coc::repack(&line));
            prop_assert!(matches_oracle(&words, &packed), "{:?}", line);
            prop_assert_eq!(BitBuf::from_bools(&packed.to_bools()), packed.clone());
            // The packed length is what the COC+4cosets format decision reads.
            let len = packed.len();
            prop_assert!(len <= 8 * (4 + 64));
            match i {
                9 => prop_assert!(len <= 448, "16-bit-block format: {}", len),
                10 => prop_assert!((449..=480).contains(&len), "32-bit-block format: {}", len),
                11 => prop_assert!(len > 480, "raw: {}", len),
                _ => {}
            }
            prop_assert_eq!(Coc::unpack(&packed), line);
            if words.len() <= LINE_BITS {
                prop_assert_eq!(Coc::unpack_words(words.words()), line);
            }
        }
    }

    #[test]
    fn din_round_trips_on_bitbuf_streams(line in arb_biased_line()) {
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let enc = codec.encode(&line, &codec.initial_line(), &energy);
        prop_assert_eq!(codec.decode(&enc), line);
    }

    #[test]
    fn bitbuf_round_trips_arbitrary_bool_vectors(bools in prop::collection::vec(any::<bool>(), 0..400)) {
        let buf = BitBuf::from_bools(&bools);
        prop_assert_eq!(buf.len(), bools.len());
        prop_assert_eq!(buf.to_bools(), bools.clone());
        prop_assert_eq!(buf.count_ones(), bools.iter().filter(|b| **b).count());
        let collected: BitBuf = bools.iter().copied().collect();
        prop_assert_eq!(collected, buf);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn differential_write_matches_scalar_oracle(pair in arb_line_pair(),
                                                energy in arb_any_energy()) {
        let (old, new) = pair;
        let fast = differential_write(&old, &new, &energy);
        let slow = differential_write_scalar(&old, &new, &energy);
        prop_assert_eq!(fast.data_energy_pj.to_bits(), slow.data_energy_pj.to_bits());
        prop_assert_eq!(fast.aux_energy_pj.to_bits(), slow.aux_energy_pj.to_bits());
        prop_assert_eq!(fast.data_cells_updated, slow.data_cells_updated);
        prop_assert_eq!(fast.aux_cells_updated, slow.aux_cells_updated);
    }

    #[test]
    fn evaluate_disturbance_matches_scalar_oracle(pair in arb_line_pair(),
                                                  model in arb_disturbance(),
                                                  seed in any::<u64>()) {
        let (old, new) = pair;
        let (mut fast_rng, mut slow_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let fast = evaluate_disturbance(&old, &new, &model, &mut fast_rng);
        let slow = evaluate_disturbance_scalar(&old, &new, &model, &mut slow_rng);
        prop_assert_eq!(fast.data_errors, slow.data_errors);
        prop_assert_eq!(fast.aux_errors, slow.aux_errors);
        prop_assert_eq!(fast.expected_data_errors.to_bits(), slow.expected_data_errors.to_bits());
        prop_assert_eq!(fast.expected_aux_errors.to_bits(), slow.expected_aux_errors.to_bits());
        // Same number of draws: the streams stay in step.
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
    }

    #[test]
    fn mapped_store_and_load_match_per_cell_loops(data in arb_line(),
                                                  stored in prop::collection::vec(0usize..4, 258..259),
                                                  extra in 0usize..3,
                                                  energy in arb_energy()) {
        let cells = LINE_CELLS + extra;
        let stored = PhysicalLine::from_states(
            stored[..cells].iter().map(|&i| CellState::from_index(i)).collect(),
        );
        for mapping in SymbolMapping::all_mappings() {
            let mut out = PhysicalLine::all_reset(cells);
            kernel::store_mapped(&data, &TransitionTable::new(&mapping, &energy), &mut out);
            let mut expect = PhysicalLine::all_reset(cells);
            for cell in 0..LINE_CELLS {
                expect.set_state(cell, mapping.state_of(data.symbol(cell)));
            }
            prop_assert_eq!(&out, &expect, "store through {:?}", mapping);
            let mut expect = MemoryLine::ZERO;
            for cell in 0..LINE_CELLS {
                expect.set_symbol(cell, mapping.symbol_of(stored.state(cell)));
            }
            prop_assert_eq!(kernel::load_mapped(&stored, &mapping), expect, "load through {:?}", mapping);
        }
    }
}

/// Chained encodes of the compression-gated coset codecs under a
/// non-integer energy model, where the kernel and `encode_scalar` may sum
/// block costs in different orders and so need not agree: the fingerprint
/// pins the kernel's own choices instead. It was computed before the codecs
/// moved onto plane-assembled writes and lane-wise block counts.
#[test]
fn non_integer_energy_encodes_match_the_golden_fingerprint() {
    const GOLDEN: &str = "69afe6a850f563cb433f74c9db010b88";
    let energy = EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25]);
    let lines = wlc_lines(2018);
    // Each codec with its number of line formats (encoded ones and the raw
    // fallback), all of which the lines must reach.
    let codecs: Vec<(Box<dyn LineCodec>, usize)> = vec![
        (Box::new(WlcCosetCodec::wlcrc(8)), 2),
        (Box::new(WlcCosetCodec::wlcrc16()), 2),
        (Box::new(WlcCosetCodec::wlc_four_cosets(32)), 2),
        (Box::new(CocCosetCodec::new()), 3),
    ];
    let mut hasher = StableHasher::new();
    for (codec, format_count) in &codecs {
        let mut formats = [0usize; 4];
        let mut old = codec.initial_line();
        for line in &lines {
            old = codec.encode(line, &old, &energy);
            assert_eq!(codec.decode(&old), *line, "{}", codec.name());
            formats[old.state(LINE_CELLS).index()] += 1;
            for (_, state, class) in old.iter() {
                hasher.update(&[state.index() as u8, u8::from(class == CellClass::Aux)]);
            }
        }
        let reached = formats.iter().filter(|&&lines| lines > 0).count();
        assert_eq!(reached, *format_count, "{}: lines per flag state {formats:?}", codec.name());
    }
    assert_eq!(hasher.finish().to_hex(), GOLDEN);
}

/// The WLC-integrated layouts and policies the golden above leaves out
/// (WLCRC-32, WLCRC-64, WLCRC-16+MO, WLC+3cosets-16 and WLC+4cosets-8)
/// under the same non-integer energy model: chained encodes from the
/// all-RESET initial line, and a first touch of every line over that line,
/// through each codec's prepared encoder. Both line formats must be
/// reached. Together with the golden above this pins every layout and
/// policy of the codec's `f64` selection; it was computed while the
/// selection still read `(f64, usize)` block costs and priced the aux cells
/// through a closure.
#[test]
fn non_integer_energy_wlc_layouts_match_the_golden_fingerprint() {
    const GOLDEN: &str = "af46ca29bef0b7f63fecd12dbd4229c2";
    let energy = EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25]);
    let lines = wlc_lines(2021);
    let codecs = [
        WlcCosetCodec::wlcrc(32),
        WlcCosetCodec::wlcrc(64),
        WlcCosetCodec::wlcrc16().with_multi_objective(MultiObjectiveConfig::paper_default()),
        WlcCosetCodec::wlc_three_cosets(16),
        WlcCosetCodec::wlc_four_cosets(8),
    ];
    let mut hasher = StableHasher::new();
    for codec in &codecs {
        let encoder = codec.encoder(&energy);
        let mut formats = [0usize; 4];
        let mut old = codec.initial_line();
        for line in &lines {
            let first = encoder.encode(line, &codec.initial_line());
            old = encoder.encode(line, &old);
            for stored in [&first, &old] {
                assert_eq!(codec.decode(stored), *line, "{}", codec.name());
                formats[stored.state(LINE_CELLS).index()] += 1;
                for (_, state, class) in stored.iter() {
                    hasher.update(&[state.index() as u8, u8::from(class == CellClass::Aux)]);
                }
            }
        }
        let reached = formats.iter().filter(|&&lines| lines > 0).count();
        assert_eq!(reached, 2, "{}: lines per flag state {formats:?}", codec.name());
    }
    assert_eq!(hasher.finish().to_hex(), GOLDEN);
}

/// 240 lines drawn from `seed` for the WLC-integrated goldens: every sixth
/// line is random, every sixth sign-extends 54-bit values, and the rest mix
/// zero, all-ones, 16- and 32-bit words with the occasional wide one, so
/// every layout's WLC test both passes and fails.
fn wlc_lines(seed: u64) -> Vec<MemoryLine> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..240)
        .map(|i| {
            MemoryLine::from_words(std::array::from_fn(|_| {
                let raw: u64 = rng.gen();
                let wide = raw & ((1 << 54) - 1);
                match (i % 6, rng.gen_range(0..6)) {
                    (5, _) => raw,
                    (4, _) if raw >> 63 == 1 => wide,
                    (4, _) | (_, 4) => (-(wide as i64)) as u64,
                    (_, 0) => 0,
                    (_, 1) => u64::MAX,
                    (_, 2) => raw & 0xFFFF,
                    (_, 3) => (-(i64::from(raw as u16))) as u64,
                    _ => raw & 0xFFFF_FFFF,
                }
            }))
        })
        .collect()
}

/// Chained encodes of the n-cosets codecs at sub-word granularity, which
/// price every block's selector cells alongside its data cells, and of
/// `3-r-cosets-16`, under a non-integer energy model. The lines cycle
/// through random, biased and repeated content; a repeated line rewrites
/// identical data, so keeping the stored selectors is free. The fingerprint
/// pins the f64 selection's choices; it was computed before the selection
/// kernel learned to price selector cells itself.
#[test]
fn non_integer_energy_selector_priced_encodes_match_the_golden_fingerprint() {
    const GOLDEN: &str = "8ca3ec11e51aa3b92139b4b70fd007d2";
    let mut codecs: Vec<Box<dyn LineCodec>> = Vec::new();
    for bits in [8, 16] {
        codecs.push(Box::new(NCosetsCodec::three_cosets(Granularity::new(bits))));
        codecs.push(Box::new(NCosetsCodec::four_cosets(Granularity::new(bits))));
        codecs.push(Box::new(NCosetsCodec::six_cosets(Granularity::new(bits))));
    }
    codecs.push(Box::new(RestrictedCosetCodec::new(Granularity::new(16))));
    assert_eq!(non_integer_chained_fingerprint(&codecs, 2019), GOLDEN);
}

/// Chained encodes under a non-integer energy model at the widths whose
/// blocks span one or more whole plane words: the n-cosets codecs and
/// `3-r-cosets` at 128, 256 and 512 bits, plus FNW at every sweep width.
/// The fingerprint pins the f64 selection's choices; it was computed while
/// the n-cosets codecs still priced these blocks with branch-and-bound and
/// FNW still compared two block costs of its own.
#[test]
fn non_integer_energy_whole_word_block_encodes_match_the_golden_fingerprint() {
    const GOLDEN: &str = "21906ba266241bf097ef4409a414400e";
    let mut codecs: Vec<Box<dyn LineCodec>> = Vec::new();
    for bits in [128, 256, 512] {
        codecs.push(Box::new(NCosetsCodec::three_cosets(Granularity::new(bits))));
        codecs.push(Box::new(NCosetsCodec::four_cosets(Granularity::new(bits))));
        codecs.push(Box::new(NCosetsCodec::six_cosets(Granularity::new(bits))));
        codecs.push(Box::new(RestrictedCosetCodec::new(Granularity::new(bits))));
    }
    for granularity in Granularity::SWEEP {
        codecs.push(Box::new(FnwCodec::new(granularity)));
    }
    assert_eq!(non_integer_chained_fingerprint(&codecs, 2020), GOLDEN);
}

/// Fingerprint of every cell of 180 chained encodes per codec under
/// `EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25])`. The lines, drawn
/// from `seed`, cycle through random, biased and repeated content; a
/// repeated line rewrites identical data, so keeping the stored selectors
/// is free. Every encode must decode back to its line.
fn non_integer_chained_fingerprint(codecs: &[Box<dyn LineCodec>], seed: u64) -> String {
    let energy = EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<MemoryLine> = Vec::new();
    for i in 0..180 {
        let line = match i % 3 {
            0 => MemoryLine::from_words(std::array::from_fn(|_| rng.gen())),
            1 => MemoryLine::from_words(std::array::from_fn(|_| {
                let raw: u64 = rng.gen();
                match rng.gen_range(0..5) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => raw & 0xFFFF,
                    3 => (-(i64::from(raw as u16))) as u64,
                    _ => raw,
                }
            })),
            _ => lines[i - 1],
        };
        lines.push(line);
    }
    let mut hasher = StableHasher::new();
    for codec in codecs {
        let mut old = codec.initial_line();
        for line in &lines {
            old = codec.encode(line, &old, &energy);
            assert_eq!(codec.decode(&old), *line, "{}", codec.name());
            for (_, state, class) in old.iter() {
                hasher.update(&[state.index() as u8, u8::from(class == CellClass::Aux)]);
            }
        }
    }
    hasher.finish().to_hex()
}
