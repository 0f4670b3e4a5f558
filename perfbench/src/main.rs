//! `perfbench`: the benchmark of the WLCRC reproduction.
//!
//! Four workloads drive the program through its public API, each for a
//! given number of seconds, and check what it returns:
//!
//! * `compressible`: the Figure 8 engine grid ([`ExperimentPlan`]), the
//!   eight standard schemes over the paper's twelve biased SPEC-like
//!   profiles. WLC compresses most of their lines, so WLCRC-16 takes its
//!   coset-encoded path.
//! * `random`: the eight schemes over uniformly random data. WLC fails on
//!   it, so the compression-gated schemes store their lines raw.
//! * `served`: a `wlcrc-serve` server in this process, driven over
//!   loopback TCP by one closed-loop client. Each operation writes one
//!   64-record batch of a WLCRC-16 session on gcc and flushes it.
//! * `warm_store`: the `compressible` grid rerun against a result store
//!   that a cold run filled during set-up. Nothing is simulated, so a
//!   faster simulator should leave this workload unchanged.
//!
//! Grids run on one worker thread and one intra-trace shard, so a run does
//! the same work whatever the machine's core count.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compressible --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run sets the workload up nine times, spaced evenly
//! over the measured time, and times back-to-back operations after each
//! set-up. It reports the fastest operation as `op_min_ms` and the median
//! set-up as `setup_s`. With `--trace 1` it sets up once and replays the
//! workload's own simulated writes through the per-layer ledger
//! ([`ledger`]) instead. The ledger's per-write stages add up to the write
//! behind `op_min_ms` on `compressible`, `random` and `served`;
//! `store_get_us` is the read behind `warm_store`, where no stage of a
//! simulated write runs.
//!
//! Every output is checked: each grid rerun against the set-up run, each
//! served session against a direct simulation of the same records, and
//! each ledger replay against the program's statistics. The last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Result stores live under `.perfbench_work/` in
//! the working directory and are removed on exit.

mod ledger;

use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use wlcrc_repro::{
    scaled_workload_lines, standard_factories, workload_stream_seed, Benchmark, ExperimentPlan,
    ExperimentResult, PcmConfig, ResultStore, RunningServer, SchemeId, SchemeStats, ServeClient,
    Server, ServerConfig, SimulationOptions, Simulator, TraceStream, WorkloadProfile, WriteRecord,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["compressible", "random", "served", "warm_store"];
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Unscaled trace length per profile of the Figure 8 grid that
/// `compressible` simulates and `warm_store` serves from the store.
const GRID_LINES: usize = 130;
/// Trace length of the `random` grid.
const RANDOM_LINES: usize = 800;
/// Working set, in lines, of the `random` grid's profile.
const RANDOM_WORKING_SET: usize = 2048;
/// Records per served request.
const BATCH: usize = 64;
/// Records per served session. A session that has taken this many is
/// closed, checked against a direct simulation of the same records, and
/// reopened.
const SESSION_WRITES: usize = 4096;
const _: () = assert!(SESSION_WRITES.is_multiple_of(BATCH), "a session holds whole batches");
/// Directory for result stores, relative to the working directory.
const WORK_ROOT: &str = ".perfbench_work";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    // Fails, harmlessly, while another run still uses the directory.
    let _ = std::fs::remove_dir(WORK_ROOT);
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Processor pinning for the end-to-end run. A thread a workload starts
/// (the `served` workload's server threads among them) inherits its
/// starter's processor, so a served operation hands off between threads
/// on one processor instead of waking an idle one, which on a virtual
/// machine costs a varying trip through the host.
#[cfg(target_os = "linux")]
mod pin {
    /// A `cpu_set_t` of 1024 processors.
    type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, mask_bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, mask_bytes: usize, mask: *const u64) -> i32;
    }

    /// The processors this thread may run on; none if they cannot be read.
    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: the call writes at most `mask_bytes` bytes to `mask`,
        // which is that long.
        let read = unsafe { sched_getaffinity(0, size_of::<Mask>(), mask.as_mut_ptr()) };
        if read != 0 {
            return Vec::new();
        }
        (0..64 * mask.len()).filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1).collect()
    }

    /// Confines this thread, and the threads it starts from now on, to
    /// `cpu`, one of [`allowed`]. On failure the thread runs where it did.
    pub fn to(cpu: usize) {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the call reads `mask_bytes` bytes from `mask`, which is
        // that long.
        unsafe { sched_setaffinity(0, size_of::<Mask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod pin {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn to(_cpu: usize) {}
}

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|seconds: &f64| seconds.is_finite() && *seconds > 0.0)
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
        }
        Ok(parsed)
    }
}

/// What a run prints: the operations it attempted, how many of them gave a
/// wrong output, and its metrics as `(name, value, unit)`.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON result. A metric that is not a finite number makes
    /// the run incorrect and prints as 0, so the line stays valid JSON.
    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, value, _)| value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the workload: end to end, or once set up through the ledger.
fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    if args.trace {
        let workload = set_up(&args.workload, args.seed, &work_dir.join("setup"))?;
        let mut report = layers(workload.as_ref(), args.seconds, work_dir)?;
        report.attempted += 1;
        return Ok(report);
    }
    end_to_end(args, work_dir)
}

/// Builds the named workload and runs its set-up: a grid's first run (for
/// `warm_store` the cold run, which fills the store in `dir`), or for
/// `served` the direct reference simulation, the server start and the
/// session open.
fn set_up(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let figure8 = WorkloadProfile::all_benchmarks;
    let workload: Box<dyn Workload> = match name {
        "compressible" => Box::new(Grid::set_up(figure8(), GRID_LINES, seed, None)?),
        "random" => Box::new(Grid::set_up(
            vec![WorkloadProfile::random_data(RANDOM_WORKING_SET)],
            RANDOM_LINES,
            seed,
            None,
        )?),
        "served" => Box::new(Served::set_up(seed)?),
        "warm_store" => Box::new(Grid::set_up(figure8(), GRID_LINES, seed, Some(dir))?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(workload)
}

/// The end-to-end run: [`SETUPS`] set-ups spaced evenly over `seconds`,
/// each pinned to the next allowed processor in turn and followed by
/// back-to-back operations for its share of the time. It reports the
/// fastest operation as `op_min_ms` and the median set-up as `setup_s`.
///
/// On a shared host the same operation runs up to half again as slow, at
/// times twice as slow, for seconds to minutes at a time, as other tenants
/// contend for a processor's caches, and runs differ in how much of their
/// time falls in such a stretch. The contention only adds time, so the
/// fastest operation is the steadiest measure of an operation's cost.
/// Turning through the processors lets it come from whichever is quieter,
/// and spacing the set-ups out lets their median span the whole run rather
/// than its first second.
fn end_to_end(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let mut report = Report { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut fastest_ms = f64::INFINITY;
    let mut first_reference: Option<Vec<SchemeStats>> = None;
    let cpus = pin::allowed();
    for index in 0..SETUPS {
        // The previous iteration dropped its workload, stopping any server,
        // before this set-up is pinned and timed.
        if !cpus.is_empty() {
            pin::to(cpus[index % cpus.len()]);
        }
        let start = Instant::now();
        let mut workload =
            set_up(&args.workload, args.seed, &work_dir.join(format!("setup-{index}")))?;
        setup_seconds.push(start.elapsed().as_secs_f64());
        report.attempted += 1;
        let reference: Vec<SchemeStats> =
            workload.cells().into_iter().map(|(_, stats)| stats).collect();
        if *first_reference.get_or_insert_with(|| reference.clone()) != reference {
            report.failed += 1;
        }
        let share = Instant::now();
        loop {
            let op_start = Instant::now();
            let ok = workload.op();
            fastest_ms = fastest_ms.min(op_start.elapsed().as_secs_f64() * 1e3);
            let checked = workload.after_op();
            report.attempted += 1;
            if !(ok && checked) {
                report.failed += 1;
            }
            if share.elapsed().as_secs_f64() >= args.seconds / SETUPS as f64 {
                break;
            }
        }
    }
    report.metrics.push(("op_min_ms", fastest_ms, "ms"));
    report.metrics.push(("setup_s", median(&mut setup_seconds), "s"));
    Ok(report)
}

/// Replays the workload's cells through the ledger, pass after pass, for
/// `seconds`, and reports each per-layer time from the fastest pass for
/// that time, for the reason [`end_to_end`] gives.
fn layers(workload: &dyn Workload, seconds: f64, work_dir: &Path) -> Result<Report, String> {
    let cells = workload.cells();
    let config = PcmConfig::table_ii();
    let store =
        ResultStore::open(work_dir.join("ledger")).map_err(|err| format!("ledger store: {err}"))?;
    let mut report = Report { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut passes: Vec<ledger::Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let mut pass = ledger::Pass::default();
        for (cell, program) in &cells {
            report.attempted += 1;
            let replayed = ledger::replay(cell, &config, &store, &mut pass);
            if !replayed.is_some_and(|stats| ledger::agrees(&stats, program)) {
                report.failed += 1;
            }
        }
        passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let over_passes = |metric: &dyn Fn(&ledger::Pass) -> f64| {
        passes.iter().map(metric).fold(f64::INFINITY, f64::min)
    };
    for (stage, &name) in ledger::STAGES.iter().enumerate() {
        report.metrics.push((name, over_passes(&|pass| pass.per_write(pass.stages[stage])), "ns"));
    }
    let write_ns = over_passes(&|pass| pass.per_write(pass.stages.iter().sum()));
    report.metrics.push(("write_ns", write_ns, "ns"));
    report.metrics.push(("store_put_us", over_passes(&|pass| pass.per_cell(pass.store_put)), "us"));
    report.metrics.push(("store_get_us", over_passes(&|pass| pass.per_cell(pass.store_get)), "us"));
    // The auxiliary cells' share of write energy, from the program's own
    // statistics.
    let weighted = |per_write: fn(&SchemeStats) -> f64| -> f64 {
        cells.iter().map(|(_, stats)| per_write(stats) * stats.writes as f64).sum()
    };
    let aux_energy_share =
        weighted(SchemeStats::mean_aux_energy_pj) / weighted(SchemeStats::mean_energy_pj);
    report.metrics.push(("aux_energy_share", aux_energy_share, "ratio"));
    Ok(report)
}

/// The median of `values`, which is not empty; of an even number, the
/// lower of the middle two.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// A workload after set-up, ready to be timed or replayed.
trait Workload {
    /// Runs one timed operation; `false` when its output is wrong.
    fn op(&mut self) -> bool;

    /// Untimed upkeep after an operation; `false` when a check it makes
    /// fails.
    fn after_op(&mut self) -> bool {
        true
    }

    /// Every cell of the workload as the ledger replays it, with the
    /// program's statistics for that cell from set-up.
    fn cells(&self) -> Vec<(ledger::Cell, SchemeStats)>;
}

/// An engine grid: the eight standard schemes over `profiles`, on one
/// worker thread and one intra-trace shard. Without a store, every
/// operation simulates the whole grid. With one, set-up's cold run fills
/// the store and every operation is a warm rerun served from it.
struct Grid {
    plan: ExperimentPlan,
    profiles: Vec<WorkloadProfile>,
    lines: usize,
    seed: u64,
    /// The set-up run's result, which every operation must reproduce.
    reference: ExperimentResult,
}

impl Grid {
    fn set_up(
        profiles: Vec<WorkloadProfile>,
        lines: usize,
        seed: u64,
        store: Option<&Path>,
    ) -> Result<Grid, String> {
        let mut plan = ExperimentPlan::new()
            .seed(seed)
            .lines_per_workload(lines)
            .workloads(profiles.clone())
            .threads(1)
            .intra_trace_shards(1);
        plan = match store {
            Some(dir) => plan.store(dir),
            None => plan.store_enabled(false),
        };
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        let reference = plan.run();
        if let Some(cell) =
            reference.cells.iter().find(|cell| cell.writes == 0 || cell.integrity_failures > 0)
        {
            return Err(format!(
                "{} on {}: {} writes, {} integrity failures",
                cell.scheme, cell.workload, cell.writes, cell.integrity_failures
            ));
        }
        Ok(Grid { plan, profiles, lines, seed, reference })
    }
}

impl Workload for Grid {
    fn op(&mut self) -> bool {
        self.plan.run() == self.reference
    }

    fn cells(&self) -> Vec<(ledger::Cell, SchemeStats)> {
        // The plan's own stream rules: a profile's trace is seeded from the
        // base seed and its name and scaled by its write intensity, and
        // cells run workload-major in scheme registry order.
        let max_intensity = self.profiles.iter().map(|p| p.write_intensity).fold(1.0, f64::max);
        let cells = self.profiles.iter().flat_map(|profile| SchemeId::ALL.map(|id| (profile, id)));
        cells
            .zip(&self.reference.cells)
            .map(|((profile, id), stats)| {
                let cell = ledger::Cell {
                    codec: id.build(),
                    profile: profile.clone(),
                    stream_seed: workload_stream_seed(self.seed, &profile.name),
                    lines: scaled_workload_lines(self.lines, profile, max_intensity),
                };
                (cell, stats.clone())
            })
            .collect()
    }
}

/// A `wlcrc-serve` server in this process and one client connected to it
/// over loopback TCP, with a WLCRC-16 session open.
struct Served {
    server: Option<RunningServer>,
    client: ServeClient<TcpStream>,
    session: u64,
    profile: WorkloadProfile,
    stream_seed: u64,
    options: SimulationOptions,
    records: Vec<WriteRecord>,
    /// Index of the first record of the next batch.
    next: usize,
    /// A direct simulation of `records`, which every closed session must
    /// equal.
    reference: SchemeStats,
}

impl Served {
    fn set_up(seed: u64) -> Result<Served, String> {
        let profile = Benchmark::Gcc.profile();
        let stream_seed = workload_stream_seed(seed, &profile.name);
        let stream = || TraceStream::new(profile.clone(), stream_seed, SESSION_WRITES);
        let records: Vec<WriteRecord> = stream().collect();
        let options = SimulationOptions { seed, ..SimulationOptions::default() };
        let reference = Simulator::with_config(PcmConfig::table_ii())
            .with_options(options.clone())
            .run(SchemeId::Wlcrc16.build().as_ref(), stream());
        let server = Server::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .map_err(|err| format!("start server: {err}"))?;
        let connected = match server.local_addr() {
            Some(addr) => ServeClient::connect(addr).map_err(|err| format!("connect: {err}")),
            None => Err("the server has no TCP address".to_string()),
        };
        let client = match connected {
            Ok(client) => client,
            Err(err) => {
                stop(server);
                return Err(err);
            }
        };
        let mut served = Served {
            server: Some(server),
            client,
            session: 0,
            profile,
            stream_seed,
            options,
            records,
            next: 0,
            reference,
        };
        served.session = served.open()?;
        Ok(served)
    }

    fn open(&mut self) -> Result<u64, String> {
        let scheme = SchemeId::Wlcrc16.label();
        let config = PcmConfig::table_ii();
        self.client
            .open(scheme, &self.profile.name, config, self.options.clone())
            .map_err(|err| format!("open session: {err}"))
    }
}

impl Workload for Served {
    fn op(&mut self) -> bool {
        let end = self.next + BATCH;
        let batch = &self.records[self.next..end];
        self.next = end;
        self.client.write_all(self.session, batch).is_ok()
            && self.client.flush(self.session).is_ok_and(|writes| writes == end as u64)
    }

    fn after_op(&mut self) -> bool {
        if self.next < self.records.len() {
            return true;
        }
        self.next = 0;
        let closed = self.client.close(self.session);
        let reopened = self.open();
        match (closed, reopened) {
            (Ok((stats, _)), Ok(session)) => {
                self.session = session;
                stats == self.reference
            }
            _ => false,
        }
    }

    fn cells(&self) -> Vec<(ledger::Cell, SchemeStats)> {
        let cell = ledger::Cell {
            codec: SchemeId::Wlcrc16.build(),
            profile: self.profile.clone(),
            stream_seed: self.stream_seed,
            lines: SESSION_WRITES,
        };
        vec![(cell, self.reference.clone())]
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(server) = self.server.take() {
            stop(server);
        }
    }
}

/// Stops a server and waits for its threads.
fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}
