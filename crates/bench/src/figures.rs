//! Measurement routines behind every table and figure of the evaluation,
//! and the renderers that turn their rows into the figures' tables.
//!
//! Each measurement function returns plain data (rows of numbers); the
//! `*_tables` function next to it renders them as finished [`Table`]s. The
//! figure binaries in `src/bin/` and `experiments` print those tables and
//! build none of their own, so every figure has one rendering.

use crate::table::Table;
use crate::workloads::{benchmark_profiles, biased_traces, random_trace};
use wlcrc::hardware::HardwareModel;
use wlcrc::schemes::standard_factories;
use wlcrc::{MultiObjectiveConfig, WlcCosetCodec};
use wlcrc_compress::{Coc, Compressor, Wlc};
use wlcrc_coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
use wlcrc_memsim::{ExperimentPlan, ExperimentResult, SchemeStats};
use wlcrc_pcm::codec::{LineCodec, RawCodec};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_trace::{Benchmark, IntensityClass};

/// Granularities swept by Figures 1–3 and 5 (8 up to the full line for
/// Figure 1, 8..128 for the coset comparisons).
pub const FIG1_GRANULARITIES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
/// Granularities swept by Figures 2, 3 and 5.
pub const FIG2_GRANULARITIES: [usize; 5] = [8, 16, 32, 64, 128];
/// Granularities swept by Figures 11–13 (WLC-integrated schemes).
pub const FIG11_GRANULARITIES: [usize; 4] = [8, 16, 32, 64];

/// One row of an energy-breakdown sweep: block, auxiliary and total energy
/// per write (pJ) for each evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdownRow {
    /// Data-block granularity in bits.
    pub granularity: usize,
    /// Scheme label.
    pub scheme: String,
    /// Mean data-block write energy per line write (pJ).
    pub block_energy_pj: f64,
    /// Mean auxiliary write energy per line write (pJ).
    pub aux_energy_pj: f64,
    /// Mean updated cells per write (data + aux).
    pub updated_cells: f64,
    /// Mean updated data cells per write.
    pub updated_data_cells: f64,
    /// Mean updated auxiliary cells per write.
    pub updated_aux_cells: f64,
    /// Mean sampled write-disturbance errors per write.
    pub disturb_errors: f64,
    /// Mean disturbance errors on data cells.
    pub disturb_data_errors: f64,
    /// Mean disturbance errors on auxiliary cells.
    pub disturb_aux_errors: f64,
}

impl EnergyBreakdownRow {
    /// Total (block + auxiliary) energy per write.
    pub fn total_energy_pj(&self) -> f64 {
        self.block_energy_pj + self.aux_energy_pj
    }

    fn from_stats(granularity: usize, scheme: &str, stats: &SchemeStats) -> EnergyBreakdownRow {
        EnergyBreakdownRow {
            granularity,
            scheme: scheme.to_string(),
            block_energy_pj: stats.mean_data_energy_pj(),
            aux_energy_pj: stats.mean_aux_energy_pj(),
            updated_cells: stats.mean_updated_cells(),
            updated_data_cells: stats.mean_updated_data_cells(),
            updated_aux_cells: stats.mean_updated_aux_cells(),
            disturb_errors: stats.mean_disturb_errors(),
            disturb_data_errors: if stats.writes == 0 {
                0.0
            } else {
                stats.data_disturb_errors as f64 / stats.writes as f64
            },
            disturb_aux_errors: if stats.writes == 0 {
                0.0
            } else {
                stats.aux_disturb_errors as f64 / stats.writes as f64
            },
        }
    }
}

/// Label of a `(scheme, granularity)` sweep point inside an
/// [`ExperimentPlan`] (scheme names never contain `@`).
fn sweep_label(scheme: &str, granularity: usize) -> String {
    format!("{scheme}@{granularity}")
}

/// One scheme of a granularity sweep: its figure label and a constructor
/// taking the block granularity in bits.
type SweepScheme = (&'static str, fn(usize) -> Box<dyn LineCodec>);

/// Runs a (granularity × scheme) sweep as one ExperimentPlan grid over
/// either the twelve biased benchmark traces (tracked simulation) or one
/// random trace (isolated simulation), and returns one merged
/// [`EnergyBreakdownRow`] per sweep point in (granularity, scheme) order.
///
/// Every scheme replays the same traces, and a result store keys them by
/// content, so a rerun of the sweep is served from the store. Registration
/// and row extraction both walk the same `schemes` slice, so a sweep point
/// can never silently drop out of the output.
fn run_sweep(
    lines: usize,
    seed: u64,
    biased: bool,
    granularities: &[usize],
    schemes: &[SweepScheme],
) -> Vec<EnergyBreakdownRow> {
    let mut plan = ExperimentPlan::new().seed(seed).verify_integrity(false);
    plan = if biased {
        plan.traces(biased_traces(lines / 4, seed))
    } else {
        plan.isolated(true).trace(random_trace(lines, seed))
    };
    for &g in granularities {
        for &(label, build) in schemes {
            plan = plan.scheme(sweep_label(label, g), move || build(g));
        }
    }
    let result = plan.run();
    granularities
        .iter()
        .flat_map(|&g| schemes.iter().map(move |&(label, _)| (g, label)))
        .map(|(g, label)| {
            let merged = result.average_for_scheme(&sweep_label(label, g));
            debug_assert!(merged.writes > 0, "sweep point {label}@{g} has no cells");
            EnergyBreakdownRow::from_stats(g, label, &merged)
        })
        .collect()
}

/// A granularity × scheme sweep as one table: a row per sweep point with
/// the three `values` of its `columns`, at `precision` decimals.
fn sweep_table(
    title: &str,
    columns: [&str; 3],
    rows: &[EnergyBreakdownRow],
    precision: usize,
    values: fn(&EnergyBreakdownRow) -> [f64; 3],
) -> Table {
    let mut table =
        Table::new(title, &["granularity", "scheme", columns[0], columns[1], columns[2]]);
    for row in rows {
        let mut cells = vec![row.granularity.to_string(), row.scheme.clone()];
        cells.extend(values(row).iter().map(|v| format!("{v:.precision$}")));
        table.push_row(cells);
    }
    table
}

/// The aux/blk/total energy table of Figures 2, 3 and 5.
fn energy_breakdown_table(title: &str, rows: &[EnergyBreakdownRow]) -> Table {
    sweep_table(title, ["aux (pJ)", "blk (pJ)", "total (pJ)"], rows, 1, |r| {
        [r.aux_energy_pj, r.block_energy_pj, r.total_energy_pj()]
    })
}

/// Figure 1: write-energy breakdown of the 6cosets encoding as the block
/// granularity shrinks from 512 to 8 bits, on random (`biased = false`) or
/// biased (`biased = true`) data.
pub fn figure1(lines: usize, seed: u64, biased: bool) -> Vec<EnergyBreakdownRow> {
    let schemes: [SweepScheme; 1] =
        [("6cosets", |g| Box::new(NCosetsCodec::six_cosets(Granularity::new(g))))];
    run_sweep(lines, seed, biased, &FIG1_GRANULARITIES, &schemes)
}

/// Figure 1's tables: (a) on random data, (b) on biased data.
pub fn figure1_tables(lines: usize, seed: u64) -> Vec<Table> {
    [
        (false, "Figure 1(a): 6cosets energy vs granularity, random workloads"),
        (true, "Figure 1(b): 6cosets energy vs granularity, biased workloads"),
    ]
    .into_iter()
    .map(|(biased, title)| {
        let mut table = Table::new(title, &["granularity", "blk (pJ)", "aux (pJ)", "blk+aux (pJ)"]);
        for row in figure1(lines, seed, biased) {
            table.push_numeric_row(
                &row.granularity.to_string(),
                &[row.block_energy_pj, row.aux_energy_pj, row.total_energy_pj()],
                1,
            );
        }
        table
    })
    .collect()
}

/// Figures 2 and 3: 6cosets vs 4cosets across granularities, on random
/// (`biased = false`, Figure 2) or biased (`biased = true`, Figure 3) data.
pub fn figure2_3(lines: usize, seed: u64, biased: bool) -> Vec<EnergyBreakdownRow> {
    let schemes: [SweepScheme; 2] = [
        ("6cosets", |g| Box::new(NCosetsCodec::six_cosets(Granularity::new(g)))),
        ("4cosets", |g| Box::new(NCosetsCodec::four_cosets(Granularity::new(g)))),
    ];
    run_sweep(lines, seed, biased, &FIG2_GRANULARITIES, &schemes)
}

/// Figure 2's table: 6cosets vs 4cosets on random data.
pub fn figure2_tables(lines: usize, seed: u64) -> Vec<Table> {
    let title = "Figure 2: 6cosets vs 4cosets on 200M-style random data blocks";
    vec![energy_breakdown_table(title, &figure2_3(lines, seed, false))]
}

/// Figure 3's table: 6cosets vs 4cosets on biased data.
pub fn figure3_tables(lines: usize, seed: u64) -> Vec<Table> {
    let title = "Figure 3: 6cosets vs 4cosets on biased workloads";
    vec![energy_breakdown_table(title, &figure2_3(lines, seed, true))]
}

/// One row of the Figure 4 compression-coverage study.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionCoverageRow {
    /// Benchmark short name.
    pub workload: String,
    /// Fraction of lines compressible by WLC for k = 4..=9 MSBs.
    pub wlc_coverage: [f64; 6],
    /// Fraction of lines COC compresses to at most 448 bits.
    pub coc_coverage: f64,
    /// Fraction of lines FPC+BDI compresses to at most 369 bits.
    pub fpc_bdi_coverage: f64,
}

/// Figure 4: percentage of memory lines compressed by WLC (k = 4..9), COC and
/// FPC+BDI, per benchmark, over each benchmark's trace.
pub fn figure4(lines: usize, seed: u64) -> Vec<CompressionCoverageRow> {
    let coc = Coc::new();
    let fpc_bdi = wlcrc_compress::bdi::FpcBdi::new();
    let wlcs: Vec<Wlc> = (4..=9).map(Wlc::new).collect();
    let mut rows = Vec::new();
    for (bench, trace) in Benchmark::ALL.iter().zip(biased_traces(lines, seed)) {
        let mut total = 0usize;
        let mut wlc_counts = [0usize; 6];
        let mut coc_count = 0usize;
        let mut fpc_bdi_count = 0usize;
        for record in trace.iter() {
            total += 1;
            for (i, wlc) in wlcs.iter().enumerate() {
                if wlc.is_compressible(&record.new) {
                    wlc_counts[i] += 1;
                }
            }
            if coc.compresses_to(&record.new, 448) {
                coc_count += 1;
            }
            if fpc_bdi.compresses_to(&record.new, 369) {
                fpc_bdi_count += 1;
            }
        }
        let total = total.max(1) as f64;
        let mut wlc_coverage = [0.0; 6];
        for (i, c) in wlc_counts.iter().enumerate() {
            wlc_coverage[i] = *c as f64 / total;
        }
        rows.push(CompressionCoverageRow {
            workload: bench.short_name().to_string(),
            wlc_coverage,
            coc_coverage: coc_count as f64 / total,
            fpc_bdi_coverage: fpc_bdi_count as f64 / total,
        });
    }
    rows
}

/// Figure 4's table: the coverages in percent per benchmark, then their
/// `ave.` row.
pub fn figure4_tables(lines: usize, seed: u64) -> Vec<Table> {
    let rows = figure4(lines, seed);
    let mut table = Table::new(
        "Figure 4: % of compressed memory lines (more is better)",
        &["workload", "4-MSBs", "5-MSBs", "6-MSBs", "7-MSBs", "8-MSBs", "9-MSBs", "COC", "FPC+BDI"],
    );
    let mut sums = [0.0f64; 8];
    for row in &rows {
        let mut values = row.wlc_coverage.to_vec();
        values.extend([row.coc_coverage, row.fpc_bdi_coverage]);
        for (s, v) in sums.iter_mut().zip(&values) {
            *s += v;
        }
        let percent: Vec<f64> = values.iter().map(|v| v * 100.0).collect();
        table.push_numeric_row(&row.workload, &percent, 1);
    }
    let averages: Vec<f64> = sums.iter().map(|s| s / rows.len() as f64 * 100.0).collect();
    table.push_numeric_row("ave.", &averages, 1);
    vec![table]
}

/// Figure 5: 4cosets vs 3cosets vs restricted cosets (3-r-cosets) on the
/// biased workloads.
pub fn figure5(lines: usize, seed: u64) -> Vec<EnergyBreakdownRow> {
    let schemes: [SweepScheme; 3] = [
        ("4cosets", |g| Box::new(NCosetsCodec::four_cosets(Granularity::new(g)))),
        ("3cosets", |g| Box::new(NCosetsCodec::three_cosets(Granularity::new(g)))),
        ("3-r-cosets", |g| Box::new(RestrictedCosetCodec::new(Granularity::new(g)))),
    ];
    run_sweep(lines, seed, true, &FIG2_GRANULARITIES, &schemes)
}

/// Figure 5's table.
pub fn figure5_tables(lines: usize, seed: u64) -> Vec<Table> {
    let title = "Figure 5: restricted vs unrestricted coset coding, biased workloads";
    vec![energy_breakdown_table(title, &figure5(lines, seed))]
}

/// Section VI-B's table: the analytical hardware-overhead model of the
/// WLCRC-16 modules (standing in for the paper's Synopsys 45 nm synthesis),
/// with the paper's synthesised numbers as its note.
pub fn hw_overhead_tables() -> Vec<Table> {
    let model = HardwareModel::wlcrc16();
    let mut table = Table::new(
        "Section VI-B: WLCRC-16 hardware overhead (analytical 45 nm estimate)",
        &["block", "area (mm^2)", "delay (ns)", "energy (pJ)", "NAND2 gates"],
    );
    for (name, est) in [
        ("WLC logic", model.wlc_logic()),
        ("word encoder (x1)", model.word_encoder()),
        ("word decoder (x1)", model.word_decoder()),
        ("encoder path (write)", model.encoder()),
        ("decoder path (read)", model.decoder()),
        ("total WLCRC modules", model.total()),
    ] {
        table.push_row(vec![
            name.to_string(),
            format!("{:.4}", est.area_mm2),
            format!("{:.2}", est.delay_ns),
            format!("{:.3}", est.energy_pj),
            format!("{:.0}", est.gate_count),
        ]);
    }
    vec![table.with_note(
        "Paper (Synopsys DC, 45nm FreePDK): 0.0498 mm^2, 2.63 ns write / 0.89 ns read, \
         0.94 pJ write / 0.27 pJ read; WLC portion 0.0002 mm^2, 0.13 ns, 0.0017 pJ.",
    )]
}

/// Figures 8, 9 and 10: the full scheme comparison over all benchmarks.
/// Returns the raw experiment result; [`figure8_tables`],
/// [`figure9_tables`] and [`figure10_tables`] render the three figures
/// (energy, updated cells, disturbance errors) from it.
pub fn figure8_9_10(lines: usize, seed: u64) -> ExperimentResult {
    standard_plan(lines, seed).run()
}

/// The `workload` column followed by one column per scheme of `result`.
fn scheme_headers(schemes: &[String]) -> Vec<&str> {
    let mut headers = vec!["workload"];
    headers.extend(schemes.iter().map(String::as_str));
    headers
}

/// `metric` of each scheme's cell for `workload` (0 where there is none).
fn workload_values(
    result: &ExperimentResult,
    schemes: &[String],
    workload: &str,
    metric: fn(&SchemeStats) -> f64,
) -> Vec<f64> {
    schemes.iter().map(|s| result.get(s, workload).map(metric).unwrap_or(0.0)).collect()
}

/// `metric` of each scheme's cross-workload average.
fn average_values(
    result: &ExperimentResult,
    schemes: &[String],
    metric: fn(&SchemeStats) -> f64,
) -> Vec<f64> {
    schemes.iter().map(|s| metric(&result.average_for_scheme(s))).collect()
}

/// The per-workload table of Figures 9 and 10: a row of `metric` per
/// workload, then the `Ave.` row.
fn workload_table(
    result: &ExperimentResult,
    title: &str,
    precision: usize,
    metric: fn(&SchemeStats) -> f64,
) -> Table {
    let schemes = result.schemes();
    let mut table = Table::new(title, &scheme_headers(&schemes));
    for workload in result.workloads() {
        table.push_numeric_row(
            &workload,
            &workload_values(result, &schemes, &workload, metric),
            precision,
        );
    }
    table.push_numeric_row("Ave.", &average_values(result, &schemes, metric), precision);
    table
}

/// Per-workload bank-write balance of a result's streamed traces: how evenly
/// each trace spreads over the memory banks — and therefore over intra-trace
/// shard workers (`WLCRC_INTRA_SHARDS`). Every scheme replays the same
/// records, so the first cell per workload is representative; the table is
/// identical for any worker/shard count.
fn bank_balance_table(result: &ExperimentResult) -> Table {
    let mut table =
        Table::new("Bank write balance (per-bank sharding)", &["workload", "banks hit", "max/min"]);
    for workload in result.workloads() {
        let stats = result.cells.iter().find(|s| s.workload == workload).expect("cell present");
        table.push_row(vec![
            workload,
            stats.banks_touched().to_string(),
            format!("{:.2}", stats.write_imbalance()),
        ]);
    }
    table
}

/// Figure 8's tables: write energy per workload with the HMI, LMI and
/// overall averages, then the bank write balance of the grid's traces.
pub fn figure8_tables(result: &ExperimentResult) -> Vec<Table> {
    let energy: fn(&SchemeStats) -> f64 = SchemeStats::mean_energy_pj;
    let schemes = result.schemes();
    let mut table =
        Table::new("Figure 8: write energy per line write [pJ]", &scheme_headers(&schemes));
    for (class, label) in [(IntensityClass::High, "HMI Ave."), (IntensityClass::Low, "LMI Ave.")] {
        let workloads: Vec<&str> = Benchmark::ALL
            .iter()
            .filter(|b| b.intensity() == class)
            .map(|b| b.short_name())
            .collect();
        for workload in &workloads {
            table.push_numeric_row(
                workload,
                &workload_values(result, &schemes, workload, energy),
                1,
            );
        }
        // Group average (weighted by writes).
        let values: Vec<f64> = schemes
            .iter()
            .map(|s| {
                let mut merged = SchemeStats::new(s.clone(), label);
                for stats in workloads.iter().filter_map(|workload| result.get(s, workload)) {
                    merged.merge(stats);
                }
                energy(&merged)
            })
            .collect();
        table.push_numeric_row(label, &values, 1);
    }
    table.push_numeric_row("(H+L)MI Ave.", &average_values(result, &schemes, energy), 1);
    vec![table, bank_balance_table(result)]
}

/// Figure 9's table: updated cells per line write.
pub fn figure9_tables(result: &ExperimentResult) -> Vec<Table> {
    let title = "Figure 9: average updated cells per line (blk+aux)";
    vec![workload_table(result, title, 1, SchemeStats::mean_updated_cells)]
}

/// Figure 10's tables: disturbance errors per line write, then the largest
/// number in a single write, which the paper notes barely changes across
/// schemes.
pub fn figure10_tables(result: &ExperimentResult) -> Vec<Table> {
    let title = "Figure 10: average write disturbance errors per line";
    let errors = workload_table(result, title, 2, SchemeStats::mean_disturb_errors);
    let schemes = result.schemes();
    let mut max = Table::new(
        "Figure 10 (aux): maximum disturbance errors in a single write",
        &scheme_headers(&schemes),
    );
    let values = average_values(result, &schemes, |s| s.max_disturb_errors_per_write as f64);
    max.push_numeric_row("max", &values, 0);
    vec![errors, max]
}

/// A plan over the paper's full scheme registry and all twelve benchmark
/// profiles (the Figure 8–10 grid); workers build their codecs through
/// `SchemeId::build`.
pub fn standard_plan(lines: usize, seed: u64) -> ExperimentPlan {
    let mut plan =
        ExperimentPlan::new().seed(seed).lines_per_workload(lines).workloads(benchmark_profiles());
    for (id, factory) in standard_factories() {
        plan = plan.scheme_factory(id.label(), factory);
    }
    plan
}

/// The plan shapes the multi-process runner (`wlcrc-gridrun`) and `storectl
/// inspect --why` share, so a stored plan entry can be diffed against the
/// exact grid the runner would execute today: the perfsnap plan-suite grid
/// (2 workloads × 8 schemes) and the full Figure 8–10 grid (`"fig08"`,
/// 12 workloads × 8 schemes). `None` for an unknown kind.
pub fn runner_plan(kind: &str, lines: usize, seed: u64) -> Option<ExperimentPlan> {
    match kind {
        "fig08" => Some(standard_plan(lines, seed)),
        "perfsnap" => {
            let mut plan = ExperimentPlan::new()
                .seed(seed)
                .lines_per_workload(lines)
                .workload(Benchmark::Gcc.profile())
                .workload(Benchmark::Lbm.profile());
            for (id, factory) in standard_factories() {
                plan = plan.scheme_factory(id.label(), factory);
            }
            Some(plan)
        }
        _ => None,
    }
}

/// Figures 11, 12 and 13: WLC+4cosets vs WLC+3cosets vs WLCRC across the
/// supported granularities (8, 16, 32, 64 bits) on the biased workloads.
pub fn figure11_12_13(lines: usize, seed: u64) -> Vec<EnergyBreakdownRow> {
    let schemes: [SweepScheme; 3] = [
        ("WLC+4cosets", |g| Box::new(WlcCosetCodec::wlc_four_cosets(g))),
        ("WLC+3cosets", |g| Box::new(WlcCosetCodec::wlc_three_cosets(g))),
        ("WLCRC", |g| Box::new(WlcCosetCodec::wlcrc(g))),
    ];
    run_sweep(lines, seed, true, &FIG11_GRANULARITIES, &schemes)
}

/// Figure 11's table, from the [`figure11_12_13`] sweep: write energy.
pub fn figure11_tables(rows: &[EnergyBreakdownRow]) -> Vec<Table> {
    let title = "Figure 11: WLC-integrated schemes, write energy vs granularity";
    vec![sweep_table(title, ["blk (pJ)", "aux (pJ)", "total (pJ)"], rows, 1, |r| {
        [r.block_energy_pj, r.aux_energy_pj, r.total_energy_pj()]
    })]
}

/// Figure 12's table, from the [`figure11_12_13`] sweep: updated cells.
pub fn figure12_tables(rows: &[EnergyBreakdownRow]) -> Vec<Table> {
    let title = "Figure 12: WLC-integrated schemes, updated cells vs granularity";
    vec![sweep_table(title, ["blk cells", "aux cells", "total cells"], rows, 1, |r| {
        [r.updated_data_cells, r.updated_aux_cells, r.updated_cells]
    })]
}

/// Figure 13's table, from the [`figure11_12_13`] sweep: disturbance errors.
pub fn figure13_tables(rows: &[EnergyBreakdownRow]) -> Vec<Table> {
    let title = "Figure 13: WLC-integrated schemes, disturbance errors vs granularity";
    vec![sweep_table(title, ["blk errors", "aux errors", "total errors"], rows, 2, |r| {
        [r.disturb_data_errors, r.disturb_aux_errors, r.disturb_errors]
    })]
}

/// One row of the Figure 14 energy-level sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// SET energy of state S3 (pJ).
    pub s3_set_pj: f64,
    /// SET energy of state S4 (pJ).
    pub s4_set_pj: f64,
    /// Baseline mean write energy (pJ).
    pub baseline_energy_pj: f64,
    /// WLCRC-16 mean write energy (pJ).
    pub wlcrc_energy_pj: f64,
}

impl SensitivityRow {
    /// WLCRC-16 write-energy improvement relative to the baseline.
    pub fn improvement(&self) -> f64 {
        if self.baseline_energy_pj == 0.0 {
            0.0
        } else {
            1.0 - self.wlcrc_energy_pj / self.baseline_energy_pj
        }
    }
}

/// Figure 14: WLCRC-16 energy improvement as the intermediate-state energies
/// shrink from the default (307/547 pJ) down to 6× lower values.
///
/// The traces are built once; each energy model runs its own plan over them.
pub fn figure14(lines: usize, seed: u64) -> Vec<SensitivityRow> {
    let traces = biased_traces(lines / 4, seed);
    EnergyModel::figure14_configurations()
        .into_iter()
        .map(|model| {
            let mut config = PcmConfig::table_ii();
            config.energy = model.clone();
            let result = ExperimentPlan::new()
                .seed(seed)
                .config(config)
                .verify_integrity(false)
                .traces(traces.iter().cloned())
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .scheme("WLCRC-16", || Box::new(WlcCosetCodec::wlcrc16()))
                .run();
            SensitivityRow {
                s3_set_pj: model.set_pj(wlcrc_pcm::state::CellState::S3),
                s4_set_pj: model.set_pj(wlcrc_pcm::state::CellState::S4),
                baseline_energy_pj: result.average_for_scheme("Baseline").mean_energy_pj(),
                wlcrc_energy_pj: result.average_for_scheme("WLCRC-16").mean_energy_pj(),
            }
        })
        .collect()
}

/// Figure 14's table.
pub fn figure14_tables(lines: usize, seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 14: WLCRC-16 improvement vs intermediate-state energy",
        &["S3/S4 SET (pJ)", "baseline (pJ)", "WLCRC-16 (pJ)", "improvement"],
    );
    for row in figure14(lines, seed) {
        table.push_row(vec![
            format!("{:.0}/{:.0}", row.s3_set_pj, row.s4_set_pj),
            format!("{:.1}", row.baseline_energy_pj),
            format!("{:.1}", row.wlcrc_energy_pj),
            format!("{:.1}%", row.improvement() * 100.0),
        ]);
    }
    vec![table]
}

/// Result of the Section VIII-D multi-objective study.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiObjectiveRow {
    /// Benchmark short name (or "Ave.").
    pub workload: String,
    /// Mean write energy without the multi-objective policy (pJ).
    pub energy_plain_pj: f64,
    /// Mean write energy with the multi-objective policy (pJ).
    pub energy_mo_pj: f64,
    /// Mean updated cells without the policy.
    pub cells_plain: f64,
    /// Mean updated cells with the policy.
    pub cells_mo: f64,
}

/// Section VIII-D: WLCRC-16 with and without the multi-objective (T = 1 %)
/// group-selection policy, per benchmark plus the average.
pub fn multi_objective_study(lines: usize, seed: u64) -> Vec<MultiObjectiveRow> {
    let result = ExperimentPlan::new()
        .seed(seed)
        .lines_per_workload(lines)
        .workloads(benchmark_profiles())
        .scheme("WLCRC-16", || Box::new(WlcCosetCodec::wlcrc16()))
        .scheme("WLCRC-16+MO", || {
            Box::new(
                WlcCosetCodec::wlcrc16()
                    .with_multi_objective(MultiObjectiveConfig::paper_default()),
            )
        })
        .run();
    let mut rows = Vec::new();
    for workload in result.workloads() {
        let plain = result.get("WLCRC-16", &workload).expect("plain run present");
        let mo = result.get("WLCRC-16+MO", &workload).expect("MO run present");
        rows.push(MultiObjectiveRow {
            workload: workload.clone(),
            energy_plain_pj: plain.mean_energy_pj(),
            energy_mo_pj: mo.mean_energy_pj(),
            cells_plain: plain.mean_updated_cells(),
            cells_mo: mo.mean_updated_cells(),
        });
    }
    let plain_avg = result.average_for_scheme("WLCRC-16");
    let mo_avg = result.average_for_scheme("WLCRC-16+MO");
    rows.push(MultiObjectiveRow {
        workload: "Ave.".to_string(),
        energy_plain_pj: plain_avg.mean_energy_pj(),
        energy_mo_pj: mo_avg.mean_energy_pj(),
        cells_plain: plain_avg.mean_updated_cells(),
        cells_mo: mo_avg.mean_updated_cells(),
    });
    rows
}

/// Section VIII-D's table, with each row's cell reduction in percent.
pub fn multi_objective_tables(lines: usize, seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "Section VIII-D: multi-objective WLCRC-16 (T = 1%)",
        &[
            "workload",
            "energy plain (pJ)",
            "energy MO (pJ)",
            "cells plain",
            "cells MO",
            "cell reduction",
        ],
    );
    for row in multi_objective_study(lines, seed) {
        let reduction = if row.cells_plain > 0.0 {
            (1.0 - row.cells_mo / row.cells_plain) * 100.0
        } else {
            0.0
        };
        table.push_row(vec![
            row.workload,
            format!("{:.1}", row.energy_plain_pj),
            format!("{:.1}", row.energy_mo_pj),
            format!("{:.1}", row.cells_plain),
            format!("{:.1}", row.cells_mo),
            format!("{:.1}%", reduction),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: usize = 120;
    const SEED: u64 = 7;

    #[test]
    fn figure1_shows_aux_growth_at_fine_granularity() {
        let rows = figure1(LINES, SEED, false);
        assert_eq!(rows.len(), FIG1_GRANULARITIES.len());
        let aux_8 = rows.iter().find(|r| r.granularity == 8).unwrap().aux_energy_pj;
        let aux_512 = rows.iter().find(|r| r.granularity == 512).unwrap().aux_energy_pj;
        assert!(aux_8 > aux_512, "aux energy must grow as granularity shrinks");
        let blk_8 = rows.iter().find(|r| r.granularity == 8).unwrap().block_energy_pj;
        let blk_512 = rows.iter().find(|r| r.granularity == 512).unwrap().block_energy_pj;
        assert!(blk_8 < blk_512, "block energy must shrink as granularity shrinks");
    }

    #[test]
    fn figure1_biased_energy_is_below_random() {
        let random = figure1(LINES, SEED, false);
        let biased = figure1(LINES, SEED, true);
        let total_random: f64 = random.iter().map(|r| r.total_energy_pj()).sum();
        let total_biased: f64 = biased.iter().map(|r| r.total_energy_pj()).sum();
        assert!(total_biased < total_random);
    }

    #[test]
    fn figure3_four_cosets_total_matches_six_cosets_on_biased_data() {
        // The conclusion of Section III: on real (biased) workloads the total
        // write energy of 4cosets is almost equal to 6cosets across a wide
        // range of granularities, while using half the auxiliary symbols.
        let rows = figure2_3(LINES, SEED, true);
        for &g in FIG2_GRANULARITIES.iter().filter(|g| **g >= 16) {
            let six = rows.iter().find(|r| r.granularity == g && r.scheme == "6cosets").unwrap();
            let four = rows.iter().find(|r| r.granularity == g && r.scheme == "4cosets").unwrap();
            let ratio = four.total_energy_pj() / six.total_energy_pj();
            assert!(
                (0.8..=1.2).contains(&ratio),
                "4cosets total should track 6cosets total at g={g} (ratio {ratio:.3})"
            );
        }
        // And 4cosets halves the auxiliary storage.
        let six_codec = NCosetsCodec::six_cosets(Granularity::new(16));
        let four_codec = NCosetsCodec::four_cosets(Granularity::new(16));
        assert_eq!((six_codec.encoded_cells() - 256) / 2, four_codec.encoded_cells() - 256);
    }

    #[test]
    fn figure4_wlc_covers_more_than_fpc_bdi() {
        let rows = figure4(LINES, SEED);
        assert_eq!(rows.len(), 12);
        let avg_wlc6: f64 = rows.iter().map(|r| r.wlc_coverage[2]).sum::<f64>() / rows.len() as f64;
        let avg_fpcbdi: f64 =
            rows.iter().map(|r| r.fpc_bdi_coverage).sum::<f64>() / rows.len() as f64;
        assert!(avg_wlc6 > 0.85, "WLC(6) coverage {avg_wlc6}");
        assert!(avg_fpcbdi < avg_wlc6, "FPC+BDI should cover fewer lines than WLC");
        // Coverage must be monotonically non-increasing in k.
        for row in &rows {
            for i in 1..6 {
                assert!(row.wlc_coverage[i] <= row.wlc_coverage[i - 1] + 1e-9);
            }
        }
    }

    #[test]
    fn figure5_restricted_close_to_unrestricted() {
        let rows = figure5(LINES, SEED);
        let g16_3 = rows.iter().find(|r| r.granularity == 16 && r.scheme == "3cosets").unwrap();
        let g16_r = rows.iter().find(|r| r.granularity == 16 && r.scheme == "3-r-cosets").unwrap();
        assert!(g16_r.block_energy_pj <= g16_3.block_energy_pj * 1.2);
        // Restricted coding pays a small auxiliary-energy premium for packing
        // 33 aux bits into 17 cells (vs 64 bits in 32 cells): fewer cells
        // change per write, but each change is a bigger multi-level jump (see
        // the `diag` binary's aux-region diagnosis and ROADMAP.md). At this
        // trace length the ratio is seed-dependent (1.11–1.26 over seeds
        // 1–15, converging to 1.09–1.19 on 4× longer traces), so 1.25 guards
        // against gross regressions without being flaky for this seed.
        assert!(
            g16_r.aux_energy_pj <= g16_3.aux_energy_pj * 1.25,
            "restricted aux {} vs 3cosets aux {}",
            g16_r.aux_energy_pj,
            g16_3.aux_energy_pj
        );
        // The structural half of the trade-off is seed-robust: the restricted
        // layout must touch strictly fewer aux cells per write.
        assert!(
            g16_r.updated_aux_cells < g16_3.updated_aux_cells,
            "restricted updates {} aux cells/write vs 3cosets {}",
            g16_r.updated_aux_cells,
            g16_3.updated_aux_cells
        );
    }

    #[test]
    fn figure8_wlcrc_wins_on_average() {
        let result = figure8_9_10(LINES, SEED);
        let baseline = result.average_for_scheme("Baseline");
        let wlcrc = result.average_for_scheme("WLCRC-16");
        let six = result.average_for_scheme("6cosets");
        assert!(wlcrc.mean_energy_pj() < baseline.mean_energy_pj() * 0.7);
        assert!(wlcrc.mean_energy_pj() < six.mean_energy_pj());
        assert_eq!(baseline.integrity_failures, 0);
        assert_eq!(wlcrc.integrity_failures, 0);
    }

    #[test]
    fn figure11_wlcrc16_is_the_energy_minimum() {
        let rows = figure11_12_13(LINES, SEED);
        let wlcrc16 = rows
            .iter()
            .find(|r| r.scheme == "WLCRC" && r.granularity == 16)
            .unwrap()
            .total_energy_pj();
        for row in rows.iter().filter(|r| r.scheme == "WLCRC") {
            assert!(wlcrc16 <= row.total_energy_pj() + 1e-9, "granularity {}", row.granularity);
        }
    }

    #[test]
    fn figure14_improvement_persists_at_lower_energies() {
        let rows = figure14(LINES, SEED);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.improvement() > 0.15, "improvement {}", row.improvement());
        }
        // The improvement shrinks (or stays similar) as intermediate-state
        // energy drops, but stays clearly positive.
        assert!(rows[3].improvement() <= rows[0].improvement() + 0.05);
    }

    #[test]
    fn multi_objective_improves_endurance() {
        let rows = multi_objective_study(LINES, SEED);
        let avg = rows.last().unwrap();
        assert_eq!(avg.workload, "Ave.");
        assert!(avg.cells_mo <= avg.cells_plain);
        assert!(avg.energy_mo_pj <= avg.energy_plain_pj * 1.05);
    }

    #[test]
    fn headline_numbers_are_in_the_paper_ballpark() {
        let result = ExperimentPlan::new()
            .seed(SEED)
            .verify_integrity(false)
            .traces(biased_traces(LINES / 2, SEED))
            .scheme("Baseline", || Box::new(RawCodec::new()))
            .scheme("WLCRC-16", || Box::new(WlcCosetCodec::wlcrc16()))
            .run();
        let baseline = result.average_for_scheme("Baseline").mean_energy_pj();
        let wlcrc = result.average_for_scheme("WLCRC-16").mean_energy_pj();
        let saving = 1.0 - wlcrc / baseline;
        // The paper reports ~52% on its Simics traces; on the synthetic
        // traces the saving is smaller but must stay clearly substantial.
        assert!(saving > 0.25, "WLCRC-16 should save well above 25% (got {saving:.2})");
    }
}
