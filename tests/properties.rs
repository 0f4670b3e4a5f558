//! Property-based tests (proptest) over the core data structures and the
//! invariants the encoding schemes must uphold.

use proptest::prelude::*;
use wlcrc_repro::compress::{Bdi, Coc, Compressor, Fpc, Wlc};
use wlcrc_repro::coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
use wlcrc_repro::ecc::{Bch, BitVec, Hamming7264};
use wlcrc_repro::pcm::codec::{LineCodec, RawCodec};
use wlcrc_repro::pcm::line::MemoryLine;
use wlcrc_repro::pcm::mapping::SymbolMapping;
use wlcrc_repro::pcm::prelude::*;
use wlcrc_repro::wlcrc::WlcCosetCodec;

fn arb_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8(any::<u64>()).prop_map(MemoryLine::from_words)
}

/// Lines biased the way real workloads are: per-word class mix.
fn arb_biased_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8((0u8..5, any::<u64>()).prop_map(|(class, raw)| match class {
        0 => 0u64,
        1 => raw & 0xFFFF,
        2 => (-(i64::from(raw as u16))) as u64,
        3 => 0x0000_7F00_0000_0000 | (raw & 0xFFFF_FFFF),
        _ => raw,
    }))
    .prop_map(MemoryLine::from_words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_line_byte_round_trip(line in arb_line()) {
        prop_assert_eq!(MemoryLine::from_bytes(&line.to_bytes()), line);
    }

    #[test]
    fn symbol_accessors_cover_all_bits(line in arb_line(), cell in 0usize..256) {
        let symbol = line.symbol(cell);
        prop_assert_eq!(symbol.lsb(), line.bit(cell * 2));
        prop_assert_eq!(symbol.msb(), line.bit(cell * 2 + 1));
    }

    #[test]
    fn all_mappings_are_bijective(line in arb_line(), idx in 0usize..24) {
        let mapping = SymbolMapping::all_mappings()[idx];
        for cell in 0..256 {
            let s = line.symbol(cell);
            prop_assert_eq!(mapping.symbol_of(mapping.state_of(s)), s);
        }
    }

    #[test]
    fn differential_write_energy_is_never_negative(a in arb_line(), b in arb_line()) {
        let energy = EnergyModel::paper_default();
        let raw = RawCodec::new();
        let old = raw.encode(&a, &raw.initial_line(), &energy);
        let new = raw.encode(&b, &old, &energy);
        let outcome = differential_write(&old, &new, &energy);
        prop_assert!(outcome.total_energy_pj() >= 0.0);
        prop_assert!(outcome.total_cells_updated() <= new.len());
        // Energy is zero iff no cell is updated.
        prop_assert_eq!(outcome.total_energy_pj() == 0.0, outcome.total_cells_updated() == 0);
    }

    #[test]
    fn wlc_round_trip_is_lossless_when_compressible(line in arb_biased_line(), k in 2usize..10) {
        let wlc = Wlc::new(k);
        if let Some(compressed) = wlc.compress(&line) {
            prop_assert_eq!(wlc.decompress(&compressed), line);
        }
    }

    #[test]
    fn wlc_coverage_is_monotone_in_k(line in arb_biased_line()) {
        // If the k MSBs are identical, then so are the (k-1) MSBs.
        for k in 3usize..10 {
            if Wlc::new(k).is_compressible(&line) {
                prop_assert!(Wlc::new(k - 1).is_compressible(&line));
            }
        }
    }

    #[test]
    fn fpc_stream_round_trip(line in arb_biased_line()) {
        let fpc = Fpc::new();
        let stream = fpc.encode_stream(&line);
        prop_assert_eq!(fpc.decode_stream(&stream), line);
    }

    #[test]
    fn bdi_stream_round_trip(line in arb_biased_line()) {
        let bdi = Bdi::new();
        if let Some(stream) = bdi.encode_stream(&line) {
            prop_assert_eq!(bdi.decode_stream(&stream), line);
        }
    }

    #[test]
    fn coc_never_reports_worse_than_its_components(line in arb_biased_line()) {
        let coc = Coc::new();
        let fpc = Fpc::new();
        let bdi = Bdi::new();
        let c = coc.compressed_bits(&line).unwrap_or(512);
        if let Some(f) = fpc.compressed_bits(&line) {
            prop_assert!(c <= f);
        }
        if let Some(b) = bdi.compressed_bits(&line) {
            prop_assert!(c <= b);
        }
    }

    #[test]
    fn hamming_corrects_any_single_error(data in any::<u64>(), bit in 0usize..72) {
        let code = Hamming7264::new();
        let mut word = code.encode(data);
        word.set(bit, !word.get(bit));
        let (decoded, _) = code.decode(&word);
        prop_assert_eq!(decoded, data);
    }

    #[test]
    fn bch_corrects_two_errors(payload in prop::collection::vec(any::<bool>(), 64..256),
                               e1 in 0usize..300, e2 in 0usize..300) {
        let bch = Bch::din_default();
        let message: BitVec = payload.iter().copied().collect();
        let code = bch.encode(&message);
        let len = code.len();
        let (a, b) = (e1 % len, e2 % len);
        let mut corrupted = code.clone();
        corrupted.set(a, !corrupted.get(a));
        if b != a {
            corrupted.set(b, !corrupted.get(b));
        }
        prop_assert_eq!(bch.decode(&corrupted).unwrap(), message);
    }

    #[test]
    fn ncosets_round_trip(a in arb_biased_line(), b in arb_biased_line(), g in prop::sample::select(vec![8usize, 16, 32, 64, 128, 256, 512])) {
        let energy = EnergyModel::paper_default();
        let codec = NCosetsCodec::four_cosets(Granularity::new(g));
        let old = codec.encode(&a, &codec.initial_line(), &energy);
        let new = codec.encode(&b, &old, &energy);
        prop_assert_eq!(codec.decode(&new), b);
    }

    #[test]
    fn restricted_round_trip(a in arb_biased_line(), b in arb_biased_line()) {
        let energy = EnergyModel::paper_default();
        let codec = RestrictedCosetCodec::new(Granularity::new(16));
        let old = codec.encode(&a, &codec.initial_line(), &energy);
        let new = codec.encode(&b, &old, &energy);
        prop_assert_eq!(codec.decode(&new), b);
    }

    #[test]
    fn wlcrc_round_trip_and_flag_consistency(a in arb_biased_line(), b in arb_biased_line(), g in prop::sample::select(vec![8usize, 16, 32, 64])) {
        let energy = EnergyModel::paper_default();
        let codec = WlcCosetCodec::wlcrc(g);
        let old = codec.encode(&a, &codec.initial_line(), &energy);
        let new = codec.encode(&b, &old, &energy);
        prop_assert_eq!(codec.decode(&new), b);
        // The flag cell agrees with the compressibility test.
        let compressed_flag = new.state(256) == CellState::S1;
        prop_assert_eq!(compressed_flag, codec.is_compressible(&b));
    }

    #[test]
    fn scheme_stats_records_round_trip_identically(
        writes in any::<u64>(),
        energy_bits in prop::array::uniform4(any::<u64>()),
        cells in prop::array::uniform4(any::<u64>()),
        errors in prop::array::uniform4(any::<u64>()),
        bank_writes in prop::collection::vec(any::<u64>(), 0..70),
        flags in any::<u64>(),
    ) {
        use serde::{Deserialize, Serialize};
        use wlcrc_repro::memsim::SchemeStats;
        use wlcrc_repro::store::wire;

        // Arbitrary bit patterns for the floats — including NaNs, signed
        // zeros and infinities — must survive serialize→deserialize exactly.
        let mut stats = SchemeStats::new("WLCRC-16", "lesl");
        stats.writes = writes;
        stats.data_energy_pj = f64::from_bits(energy_bits[0]);
        stats.aux_energy_pj = f64::from_bits(energy_bits[1]);
        stats.expected_disturb_errors = f64::from_bits(energy_bits[2]);
        stats.data_cells_updated = cells[0];
        stats.aux_cells_updated = cells[1];
        stats.data_disturb_errors = errors[0];
        stats.aux_disturb_errors = errors[1];
        stats.max_disturb_errors_per_write = errors[2];
        stats.encoded_lines = flags & 0xFFFF;
        stats.integrity_failures = flags >> 48;
        stats.bank_writes = bank_writes;

        // Identity through the Value model alone...
        let back = SchemeStats::from_value(&stats.to_value()).unwrap();
        // ...and through the full on-disk byte format. Compare as Values:
        // Value equality is bitwise on floats, so this is the byte-identical
        // claim even when a float is NaN (where SchemeStats' own PartialEq
        // would wrongly report a difference).
        prop_assert_eq!(back.to_value(), stats.to_value());
        let bytes = wire::encode(&stats.to_value());
        let decoded = wire::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &stats.to_value());
        let back2 = SchemeStats::from_value(&decoded).unwrap();
        prop_assert_eq!(back2.to_value(), stats.to_value());
    }

    #[test]
    fn run_metadata_records_round_trip_identically(
        seeds in prop::collection::vec(any::<u64>(), 0..9),
        lines in any::<u64>(),
        config_index in 0usize..64,
        grid_cells in any::<u64>(),
    ) {
        use serde::{Deserialize, Serialize};
        use wlcrc_repro::memsim::RunMetadata;
        use wlcrc_repro::store::wire;

        let meta = RunMetadata {
            seeds,
            lines_per_workload: (lines >> 16) as usize,
            config_index,
            grid_cells: (grid_cells >> 16) as usize,
        };
        let back = RunMetadata::from_value(&meta.to_value()).unwrap();
        prop_assert_eq!(&back, &meta);
        let bytes = wire::encode(&meta.to_value());
        prop_assert_eq!(RunMetadata::from_value(&wire::decode(&bytes).unwrap()).unwrap(), meta);
    }

    #[test]
    fn wlcrc_data_cost_never_exceeds_baseline_against_same_store(b in arb_biased_line()) {
        // Against the same stored content, choosing among {C1, C2, C3} can
        // never be worse than always using C1 (the baseline mapping).
        let energy = EnergyModel::paper_default();
        let codec = WlcCosetCodec::wlcrc16();
        let raw = RawCodec::new();
        let stored_raw = raw.initial_line();
        let stored_wlcrc = codec.initial_line();
        let enc_w = codec.encode(&b, &stored_wlcrc, &energy);
        let enc_r = raw.encode(&b, &stored_raw, &energy);
        let cost_w = differential_write(&stored_wlcrc, &enc_w, &energy).data_energy_pj;
        let cost_r = differential_write(&stored_raw, &enc_r, &energy).total_energy_pj();
        prop_assert!(cost_w <= cost_r + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The plan-level cache key must be a pure function of the grid's
    /// *identity* (salt, seed, trace length, workloads, schemes) and blind
    /// to every *execution* knob (workers, intra-trace shards) — otherwise a
    /// rerun at different parallelism would miss the plan entry, or worse,
    /// two distinct grids would collide on one.
    #[test]
    fn plan_level_key_tracks_identity_and_ignores_execution_knobs(
        seed in 0u64..1_000,
        lines in 10usize..200,
        threads in 1usize..8,
        shards in 1usize..8,
    ) {
        use wlcrc_repro::memsim::ExperimentPlan;
        use wlcrc_repro::trace::Benchmark;
        use wlcrc_repro::wlcrc::schemes::standard_factories;

        let build = |seed: u64, lines: usize, schemes: usize, workloads: usize| {
            let mut plan = ExperimentPlan::new().seed(seed).lines_per_workload(lines);
            for bench in [Benchmark::Gcc, Benchmark::Lbm].into_iter().take(workloads) {
                plan = plan.workload(bench.profile());
            }
            for (id, factory) in standard_factories().into_iter().take(schemes) {
                plan = plan.scheme_factory(id.label(), factory);
            }
            plan
        };
        let base = build(seed, lines, 2, 2).plan_fingerprint();
        let knobs = build(seed, lines, 2, 2)
            .threads(threads)
            .intra_trace_shards(shards)
            .plan_fingerprint();
        prop_assert_eq!(base, knobs, "execution knobs must not change the plan key");

        let edits = [
            ("seed", build(seed + 1, lines, 2, 2).plan_fingerprint()),
            ("trace length", build(seed, lines + 1, 2, 2).plan_fingerprint()),
            ("scheme set", build(seed, lines, 1, 2).plan_fingerprint()),
            ("workload set", build(seed, lines, 2, 1).plan_fingerprint()),
            (
                "version salt",
                build(seed, lines, 2, 2)
                    .store_version_salt("plan-key-proptest")
                    .plan_fingerprint(),
            ),
        ];
        for (what, edited) in edits {
            prop_assert_ne!(base, edited, "editing the {} must change the plan key", what);
        }
    }
}
