//! Cross-crate integration tests: every encoding scheme must be a lossless
//! codec under arbitrary data and arbitrary write histories.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wlcrc_repro::pcm::line::MemoryLine;
use wlcrc_repro::pcm::prelude::EnergyModel;
use wlcrc_repro::wlcrc::schemes::standard_schemes;

fn line_from(rng: &mut StdRng, style: u8) -> MemoryLine {
    let mut words = [0u64; 8];
    for w in &mut words {
        *w = match style % 6 {
            0 => 0,
            1 => u64::from(rng.gen::<u16>()),
            2 => (-(i64::from(rng.gen::<u16>()))) as u64,
            3 => 0x0000_7F00_0000_0000 | u64::from(rng.gen::<u32>()),
            4 => rng.gen::<f64>().to_bits(),
            _ => rng.gen(),
        };
    }
    MemoryLine::from_words(words)
}

#[test]
fn every_scheme_round_trips_over_long_write_histories() {
    let energy = EnergyModel::paper_default();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for (id, codec) in standard_schemes() {
        let mut stored = codec.initial_line();
        for round in 0..200u32 {
            let data = line_from(&mut rng, (round % 6) as u8);
            let encoded = codec.encode(&data, &stored, &energy);
            assert_eq!(encoded.len(), codec.encoded_cells(), "{:?}", id);
            assert_eq!(codec.decode(&encoded), data, "{:?} round {round}", id);
            stored = encoded;
        }
    }
}

#[test]
fn every_scheme_round_trips_under_every_figure14_energy_model() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for energy in EnergyModel::figure14_configurations() {
        for (id, codec) in standard_schemes() {
            let mut stored = codec.initial_line();
            for round in 0..20u32 {
                let data = line_from(&mut rng, (round % 6) as u8);
                let encoded = codec.encode(&data, &stored, &energy);
                assert_eq!(codec.decode(&encoded), data, "{:?}", id);
                stored = encoded;
            }
        }
    }
}

#[test]
fn corner_case_lines_round_trip_everywhere() {
    let energy = EnergyModel::paper_default();
    let corner_cases = [
        MemoryLine::ZERO,
        MemoryLine::ZERO.complement(),
        MemoryLine::from_words([u64::MAX, 0, u64::MAX, 0, u64::MAX, 0, u64::MAX, 0]),
        MemoryLine::from_words([0x5555_5555_5555_5555; 8]),
        MemoryLine::from_words([0xAAAA_AAAA_AAAA_AAAA; 8]),
        MemoryLine::from_words([1, 2, 4, 8, 16, 32, 64, 128]),
        MemoryLine::from_words([u64::MAX; 8]),
        MemoryLine::from_words([0x8000_0000_0000_0000; 8]),
    ];
    for (id, codec) in standard_schemes() {
        for data in &corner_cases {
            let encoded = codec.encode(data, &codec.initial_line(), &energy);
            assert_eq!(codec.decode(&encoded), *data, "{:?} on {:?}", id, data);
        }
    }
}

#[test]
fn encoding_is_deterministic() {
    let energy = EnergyModel::paper_default();
    let mut rng = StdRng::seed_from_u64(123);
    for (id, codec) in standard_schemes() {
        let data = line_from(&mut rng, 3);
        let old = codec.encode(&line_from(&mut rng, 1), &codec.initial_line(), &energy);
        let a = codec.encode(&data, &old, &energy);
        let b = codec.encode(&data, &old, &energy);
        assert_eq!(a, b, "{:?}", id);
    }
}

#[test]
fn rewriting_identical_data_is_free_for_every_scheme() {
    let energy = EnergyModel::paper_default();
    let mut rng = StdRng::seed_from_u64(321);
    for (id, codec) in standard_schemes() {
        let data = line_from(&mut rng, 1);
        let first = codec.encode(&data, &codec.initial_line(), &energy);
        let second = codec.encode(&data, &first, &energy);
        let outcome = wlcrc_repro::pcm::write::differential_write(&first, &second, &energy);
        assert_eq!(
            outcome.total_energy_pj(),
            0.0,
            "{:?}: rewriting the same data must not program any cell",
            id
        );
    }
}

#[test]
fn wlcrc16_round_trips_through_the_simulator() {
    // Cross-crate check spanning core (WlcCosetCodec), trace (TraceGenerator)
    // and memsim (Simulator): with integrity verification on, every write the
    // simulator performs is decoded again and compared with the original
    // data, so a single lossy encode anywhere in the stack fails this test.
    use wlcrc_repro::memsim::{SimulationOptions, Simulator};
    use wlcrc_repro::trace::{Benchmark, TraceGenerator};
    use wlcrc_repro::wlcrc::WlcCosetCodec;

    let codec = WlcCosetCodec::wlcrc16();
    let simulator = Simulator::new()
        .with_options(SimulationOptions { seed: 0xD15C, ..SimulationOptions::default() });
    for benchmark in [Benchmark::Milc, Benchmark::Gcc, Benchmark::Canneal] {
        let mut generator = TraceGenerator::new(benchmark.profile(), 0xBEEF);
        let trace = generator.generate(300);
        let stats = simulator.run(&codec, &trace);
        assert_eq!(stats.writes, 300, "{benchmark:?}: every record must be simulated");
        assert_eq!(
            stats.integrity_failures, 0,
            "{benchmark:?}: WLCRC-16 must decode every stored line losslessly"
        );
        assert!(stats.total_energy_pj() > 0.0, "{benchmark:?}: writes must cost energy");
        assert!(
            stats.encoded_fraction() > 0.0,
            "{benchmark:?}: some lines must take the compressed path"
        );
    }
}

/// Every codec the repo builds fits its line in `MAX_LINE_CELLS` cells and
/// round-trips; the longest is 6cosets at 8 bits. Finer n-cosets
/// granularities and longer lines are refused, and a stored line owns no
/// heap memory.
#[test]
fn every_constructed_codec_fits_the_line_capacity() {
    use wlcrc_repro::coset::{FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec};
    use wlcrc_repro::pcm::prelude::{PhysicalLine, MAX_LINE_CELLS};
    use wlcrc_repro::{LineCodec, SchemeId, WlcCosetCodec};

    let mut codecs: Vec<Box<dyn LineCodec>> = SchemeId::ALL.iter().map(|id| id.build()).collect();
    for g in Granularity::SWEEP {
        codecs.push(Box::new(NCosetsCodec::three_cosets(g)));
        codecs.push(Box::new(NCosetsCodec::four_cosets(g)));
        codecs.push(Box::new(NCosetsCodec::six_cosets(g)));
        codecs.push(Box::new(RestrictedCosetCodec::new(g)));
        codecs.push(Box::new(FnwCodec::new(g)));
    }
    for bits in [8, 16, 32, 64] {
        codecs.push(Box::new(WlcCosetCodec::wlcrc(bits)));
        codecs.push(Box::new(WlcCosetCodec::wlc_three_cosets(bits)));
        codecs.push(Box::new(WlcCosetCodec::wlc_four_cosets(bits)));
    }
    let energy = EnergyModel::paper_default();
    let mut rng = StdRng::seed_from_u64(512);
    for codec in &codecs {
        assert!(codec.encoded_cells() <= MAX_LINE_CELLS, "{}", codec.name());
        let mut stored = codec.initial_line();
        for style in 0..6 {
            let data = line_from(&mut rng, style);
            stored = codec.encode(&data, &stored, &energy);
            assert_eq!(codec.decode(&stored), data, "{}", codec.name());
        }
    }
    assert_eq!(codecs.iter().map(|codec| codec.encoded_cells()).max(), Some(384));
    assert!(std::panic::catch_unwind(|| NCosetsCodec::four_cosets(Granularity::new(4))).is_err());
    assert!(std::panic::catch_unwind(|| PhysicalLine::all_reset(MAX_LINE_CELLS + 1)).is_err());
    assert!(!std::mem::needs_drop::<PhysicalLine>());
}
