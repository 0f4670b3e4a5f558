//! `perfsnap` — the repository's performance-trajectory snapshot.
//!
//! Runs three suites at one fixed setting and **appends** one JSON entry to
//! `BENCH_codec.json`, so every PR can diff its throughput against the
//! recorded trajectory:
//!
//! - *codec*: encode writes/sec and decode reads/sec of every scheme over
//!   4000 chained writes of a mixed corpus; the WLC-integrated schemes also
//!   on fully WLC-compressible content (rows suffixed `@wlc`). Every
//!   coset-style scheme also times its retained scalar oracle
//!   (`encode_scalar`) and records the kernel's speedup over it;
//! - *plan*: the wall clock of the store-less 8-scheme × 2-workload
//!   `ExperimentPlan` grid at 400 lines per workload;
//! - *serve*: requests/sec and the p99 batch latency of 400 batches of 64
//!   writes sent to an in-process `wlcrc-serve` over loopback TCP.
//!
//! ```text
//! cargo run --release --bin perfsnap                     # append a snapshot
//! cargo run --release --bin perfsnap -- --out my.json    # to another file
//! cargo run --release --bin perfsnap -- --note "<text>"  # annotate the entry
//! cargo run --release --bin perfsnap -- --check          # CI perf gate
//! ```
//!
//! `--check` turns the snapshot into an enforced regression gate: the codec
//! and serve suites are measured best-of-3 and compared against the **last**
//! entry in the trajectory file (override with `--check-against <file>`).
//! Any codec whose encode or decode throughput drops by more than 15%, a
//! serve `requests_per_sec` drop or `p99_batch_ms` growth of more than 15%,
//! or a recorded codec this build does not measure fails the run with a
//! non-zero exit. Nothing is appended in check mode.

use std::time::Instant;
use wlcrc::schemes::standard_factories;
use wlcrc::{CocCosetCodec, WlcCosetCodec};
use wlcrc_bench::args::{self, read_flags};
use wlcrc_coset::{
    DinCodec, FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
};
use wlcrc_memsim::{ExperimentPlan, SimulationOptions};
use wlcrc_obs::check::{parse_json, Json};
use wlcrc_obs::trace::escape_json_into;
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::physical::PhysicalLine;
use wlcrc_serve::{ServeClient, Server, ServerConfig};
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chained writes per codec and measurement in the codec suite.
const ITERS: usize = 4000;
/// Lines per workload of the plan suite's grid.
const PLAN_LINES: usize = 400;
/// Write batches per serve-suite round.
const SERVE_BATCHES: usize = 400;
/// Seed of the codec corpora, the plan grid and the served trace.
const SEED: u64 = 42;

/// A scalar-oracle encode closure (`encode_scalar` of a concrete codec).
type ScalarEncode = Box<dyn Fn(&MemoryLine, &PhysicalLine, &EnergyModel) -> PhysicalLine>;

/// One codec measured by the snapshot.
struct Target {
    name: &'static str,
    codec: Box<dyn LineCodec>,
    scalar: Option<ScalarEncode>,
}

/// One measured codec-suite row (also the unit the `--check` gate compares).
struct CodecRow {
    name: String,
    encode_wps: f64,
    decode_rps: f64,
    scalar_wps: Option<f64>,
    speedup: Option<f64>,
}

fn targets() -> Vec<Target> {
    let g16 = Granularity::new(16);
    let mut out: Vec<Target> = Vec::new();
    // The paper's Figure 8 scheme set.
    for (id, factory) in standard_factories() {
        let scalar: Option<ScalarEncode> = match id.label() {
            "FlipMin" => {
                let c = FlipMinCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "FNW" => {
                let c = FnwCodec::paper_default();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "6cosets" => {
                let c = NCosetsCodec::six_cosets(Granularity::new(512));
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "DIN" => {
                let c = DinCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "COC+4cosets" => {
                let c = CocCosetCodec::new();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "WLC+4cosets" => {
                let c = WlcCosetCodec::wlc_four_cosets(32);
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            "WLCRC-16" => {
                let c = WlcCosetCodec::wlcrc16();
                Some(Box::new(move |d, o, e| c.encode_scalar(d, o, e)))
            }
            _ => None,
        };
        out.push(Target { name: id.label(), codec: factory(), scalar });
    }
    // The coset-heavy schemes the tentpole targets, not part of the Figure 8
    // registry but central to figures 1-5.
    let three = NCosetsCodec::three_cosets(g16);
    let three_scalar = NCosetsCodec::three_cosets(g16);
    out.push(Target {
        name: "3cosets-16",
        codec: Box::new(three),
        scalar: Some(Box::new(move |d, o, e| three_scalar.encode_scalar(d, o, e))),
    });
    let restricted = RestrictedCosetCodec::new(g16);
    let restricted_scalar = RestrictedCosetCodec::new(g16);
    out.push(Target {
        name: "3-r-cosets-16",
        codec: Box::new(restricted),
        scalar: Some(Box::new(move |d, o, e| restricted_scalar.encode_scalar(d, o, e))),
    });
    out
}

/// Lines whose words all pass the WLC test for `k = 6` (sign-extended small
/// values): the favourable content of the paper's WLC-integrated schemes,
/// where every write takes the coset-encoded path.
fn wlc_compressible_lines(count: usize, seed: u64) -> Vec<MemoryLine> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut words = [0u64; 8];
            for w in &mut words {
                let magnitude: u64 = rng.gen::<u64>() & ((1u64 << 58) - 1);
                *w = if rng.gen::<bool>() { magnitude } else { (-(magnitude as i64)) as u64 };
            }
            MemoryLine::from_words(words)
        })
        .collect()
}

/// Times `iters` chained encodes (each write's `old` is the previous result)
/// and returns writes per second.
fn measure_encode<F>(
    lines: &[MemoryLine],
    initial: PhysicalLine,
    iters: usize,
    mut encode: F,
) -> f64
where
    F: FnMut(&MemoryLine, &PhysicalLine) -> PhysicalLine,
{
    let mut old = initial;
    // Warm-up pass over the workload.
    for line in lines.iter().take(iters.min(lines.len())) {
        old = encode(line, &old);
    }
    let start = Instant::now();
    for i in 0..iters {
        old = encode(&lines[i % lines.len()], &old);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&old);
    iters as f64 / secs
}

/// Each line of `lines` encoded over the encoding of its predecessor.
fn chained_encodes(
    codec: &dyn LineCodec,
    lines: &[MemoryLine],
    energy: &EnergyModel,
) -> Vec<PhysicalLine> {
    let mut old = codec.initial_line();
    lines
        .iter()
        .map(|l| {
            old = codec.encode(l, &old, energy);
            old.clone()
        })
        .collect()
}

/// Times `iters` decodes over pre-encoded content, returning reads/sec.
fn measure_decode(codec: &dyn LineCodec, stored: &[PhysicalLine], iters: usize) -> f64 {
    for line in stored.iter().take(iters.min(stored.len())) {
        std::hint::black_box(codec.decode(line));
    }
    let start = Instant::now();
    for i in 0..iters {
        std::hint::black_box(codec.decode(&stored[i % stored.len()]));
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// One serve-suite round: an in-process `wlcrc-serve` on an ephemeral
/// loopback port receives `batches` fixed-size write batches over TCP.
/// Returns (requests/sec, writes/sec, p99 batch latency in ms).
fn measure_serve(batches: usize, batch_size: usize, seed: u64) -> (f64, f64, f64) {
    let running = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() })
        .serve_tcp("127.0.0.1:0")
        .expect("perfsnap: serve suite could not bind a loopback port");
    let addr = running.local_addr().expect("tcp server has an address");
    let mut client = ServeClient::connect(addr).expect("perfsnap: connect to in-process server");
    let serve_profile = Benchmark::Gcc.profile();
    let session = client
        .open(
            "WLCRC-16",
            &serve_profile.name,
            PcmConfig::table_ii(),
            SimulationOptions { seed, ..SimulationOptions::default() },
        )
        .expect("perfsnap: open serve session");
    let serve_records: Vec<WriteRecord> =
        TraceStream::new(serve_profile, seed, batches * batch_size).collect();
    let mut batch_ms = Vec::with_capacity(batches);
    let serve_start = Instant::now();
    for chunk in serve_records.chunks(batch_size) {
        let submit = Instant::now();
        client.write_all(session, chunk).expect("perfsnap: serve write batch");
        batch_ms.push(submit.elapsed().as_secs_f64() * 1e3);
    }
    client.flush(session).expect("perfsnap: serve flush");
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let (serve_stats, _) = client.close(session).expect("perfsnap: serve close");
    assert_eq!(
        serve_stats.writes,
        serve_records.len() as u64,
        "the service must simulate every submitted write"
    );
    client.shutdown().expect("perfsnap: serve shutdown");
    running.join();
    batch_ms.sort_by(f64::total_cmp);
    let p99_batch_ms = batch_ms[(batch_ms.len() * 99).div_ceil(100).saturating_sub(1)];
    (batches as f64 / serve_secs, serve_records.len() as f64 / serve_secs, p99_batch_ms)
}

fn git_describe() -> (String, bool) {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = run(&["status", "--porcelain"]).map(|s| !s.is_empty()).unwrap_or(false);
    (rev, dirty)
}

/// Appends `entry` (a JSON object) to the JSON array in `path`, creating the
/// file when missing. The trajectory file stays a plain array so future PRs
/// can diff entries without a parser.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim_end();
    let content = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(body) = trimmed.strip_suffix(']') {
        let body = body.trim_end().trim_end_matches(',');
        if body.trim() == "[" {
            // An empty array (possibly pretty-printed): start fresh.
            format!("[\n{entry}\n]\n")
        } else {
            format!("{body},\n{entry}\n]\n")
        }
    } else {
        // Not an array: refuse to clobber it, write alongside instead.
        return std::fs::write(format!("{path}.new"), format!("[\n{entry}\n]\n"));
    };
    std::fs::write(path, content)
}

/// Runs the full codec suite (mixed corpus plus the WLC-compressible corpus)
/// once and returns the rows in a deterministic order.
fn measure_codec_suite(
    lines: &[MemoryLine],
    wlc_lines: &[MemoryLine],
    energy: &EnergyModel,
    iters: usize,
    print: bool,
) -> Vec<CodecRow> {
    let mut rows = Vec::new();
    for target in targets() {
        let codec = target.codec.as_ref();
        let encode_wps =
            measure_encode(lines, codec.initial_line(), iters, |d, o| codec.encode(d, o, energy));
        let stored = chained_encodes(codec, lines, energy);
        let decode_rps = measure_decode(codec, &stored, iters);
        let scalar_wps = target.scalar.as_ref().map(|scalar| {
            measure_encode(lines, codec.initial_line(), iters, |d, o| scalar(d, o, energy))
        });
        let speedup = scalar_wps.map(|s| encode_wps / s);
        if print {
            match (scalar_wps, speedup) {
                (Some(s), Some(x)) => println!(
                    "  {:<14} encode {:>12.0} w/s   decode {:>12.0} r/s   scalar {:>12.0} w/s   kernel speedup {x:.2}x",
                    target.name, encode_wps, decode_rps, s
                ),
                _ => println!(
                    "  {:<14} encode {:>12.0} w/s   decode {:>12.0} r/s",
                    target.name, encode_wps, decode_rps
                ),
            }
        }
        rows.push(CodecRow {
            name: target.name.to_string(),
            encode_wps,
            decode_rps,
            scalar_wps,
            speedup,
        });
    }

    // The WLC-integrated schemes take their encoded path only on
    // WLC-compressible content; the mixed corpus above dilutes them with
    // raw-format writes, so they are additionally measured on the paper's
    // favourable content (every line compressible, suffix "@wlc").
    if print {
        println!("perfsnap: WLC-compressible corpus ({iters} writes per scheme)");
    }
    let wlc_targets: Vec<(&'static str, Box<dyn LineCodec>, ScalarEncode)> = vec![
        ("WLCRC-16@wlc", Box::new(WlcCosetCodec::wlcrc16()), {
            let c = WlcCosetCodec::wlcrc16();
            Box::new(move |d: &MemoryLine, o: &PhysicalLine, e: &EnergyModel| {
                c.encode_scalar(d, o, e)
            })
        }),
        ("WLC+4cosets@wlc", Box::new(WlcCosetCodec::wlc_four_cosets(32)), {
            let c = WlcCosetCodec::wlc_four_cosets(32);
            Box::new(move |d: &MemoryLine, o: &PhysicalLine, e: &EnergyModel| {
                c.encode_scalar(d, o, e)
            })
        }),
    ];
    for (name, codec, scalar) in &wlc_targets {
        let codec = codec.as_ref();
        let encode_wps = measure_encode(wlc_lines, codec.initial_line(), iters, |d, o| {
            codec.encode(d, o, energy)
        });
        let stored = chained_encodes(codec, wlc_lines, energy);
        let decode_rps = measure_decode(codec, &stored, iters);
        let scalar_wps =
            measure_encode(wlc_lines, codec.initial_line(), iters, |d, o| scalar(d, o, energy));
        let speedup = encode_wps / scalar_wps;
        if print {
            println!(
                "  {name:<14} encode {encode_wps:>12.0} w/s   decode {decode_rps:>12.0} r/s   scalar {scalar_wps:>12.0} w/s   kernel speedup {speedup:.2}x"
            );
        }
        rows.push(CodecRow {
            name: name.to_string(),
            encode_wps,
            decode_rps,
            scalar_wps: Some(scalar_wps),
            speedup: Some(speedup),
        });
    }
    rows
}

/// A baseline codec row parsed from the trajectory file.
struct BaselineRow {
    name: String,
    encode_wps: f64,
    decode_rps: Option<f64>,
}

/// The **last** entry of the trajectory file (the JSON array
/// `append_entry` maintains), or `Json::Null` when the file is missing or
/// does not parse.
fn last_entry(path: &str) -> Json {
    let parsed = std::fs::read_to_string(path).ok().and_then(|text| parse_json(&text).ok());
    match parsed {
        Some(Json::Arr(mut entries)) => entries.pop().unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

/// The codec rows of a trajectory entry that record an encode throughput.
fn entry_codecs(entry: &Json) -> Option<Vec<BaselineRow>> {
    let Some(Json::Arr(rows)) = entry.get("codecs") else { return None };
    let rows: Vec<BaselineRow> = rows
        .iter()
        .filter_map(|row| {
            Some(BaselineRow {
                name: row.get("name")?.as_str()?.to_string(),
                encode_wps: row.get("encode_writes_per_sec")?.as_f64()?,
                decode_rps: row.get("decode_reads_per_sec").and_then(Json::as_f64),
            })
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Fractional regression that fails the `--check` gate (15%).
const CHECK_REGRESSION_LIMIT: f64 = 0.15;

/// The serve row of a trajectory entry: (requests/sec, p99 batch latency
/// ms).
fn entry_serve(entry: &Json) -> Option<(f64, f64)> {
    let serve = entry.get("serve")?;
    Some((serve.get("requests_per_sec")?.as_f64()?, serve.get("p99_batch_ms")?.as_f64()?))
}

/// The `--check` perf gate: measures the codec and serve suites best-of-3
/// and hands them to [`gate_passes`] against the last trajectory entry.
fn run_check(
    baseline_path: &str,
    lines: &[MemoryLine],
    wlc_lines: &[MemoryLine],
    energy: &EnergyModel,
    iters: usize,
    serve_batches: usize,
    seed: u64,
) -> bool {
    let entry = last_entry(baseline_path);
    let Some(baseline) = entry_codecs(&entry) else {
        eprintln!("perfsnap --check: no codec rows found in {baseline_path}");
        return false;
    };
    println!(
        "perfsnap: --check gate — best of 3 rounds ({iters} writes per scheme) vs last entry in {baseline_path}"
    );
    let mut best = measure_codec_suite(lines, wlc_lines, energy, iters, false);
    for _ in 1..3 {
        let round = measure_codec_suite(lines, wlc_lines, energy, iters, false);
        for (b, r) in best.iter_mut().zip(round) {
            b.encode_wps = b.encode_wps.max(r.encode_wps);
            b.decode_rps = b.decode_rps.max(r.decode_rps);
        }
    }
    // Serve gate: best-of-3 requests/sec (higher is better) and p99 batch
    // latency (lower is better) against the recorded serve row. Older
    // trajectory files without a serve row simply skip the gate.
    let serve = entry_serve(&entry).map(|recorded| {
        let mut best_rps = 0.0f64;
        let mut best_p99 = f64::INFINITY;
        for _ in 0..3 {
            let (rps, _, p99) = measure_serve(serve_batches, 64, seed);
            best_rps = best_rps.max(rps);
            best_p99 = best_p99.min(p99);
        }
        (recorded, (best_rps, best_p99))
    });
    let ok = gate_passes(&baseline, &best, serve);
    if serve.is_none() {
        println!("  serve row missing from {baseline_path}: serve gate skipped");
    }
    if ok {
        println!(
            "perfsnap --check: all codecs within {:.0}% of the recorded trajectory",
            CHECK_REGRESSION_LIMIT * 100.0
        );
    } else {
        eprintln!(
            "perfsnap --check: throughput regressed more than {:.0}% against {baseline_path}",
            CHECK_REGRESSION_LIMIT * 100.0
        );
    }
    ok
}

/// The gate's verdict, printed one comparison per line: `false` when a
/// `baseline` codec is missing from `measured` or its encode or recorded
/// decode throughput fell more than [`CHECK_REGRESSION_LIMIT`] below the
/// baseline, or when `serve`, a (recorded, measured) pair of (requests/sec,
/// p99 batch ms), lost more than the limit in requests/sec or grew more
/// than it in p99.
fn gate_passes(
    baseline: &[BaselineRow],
    measured: &[CodecRow],
    serve: Option<((f64, f64), (f64, f64))>,
) -> bool {
    let verdict = |name: &str, metric: &str, current: f64, recorded: f64| -> bool {
        let delta = current / recorded - 1.0;
        let fail = delta < -CHECK_REGRESSION_LIMIT;
        println!(
            "  {name:<16} {metric} {current:>12.0} vs {recorded:>12.0} recorded  {:>+7.1}%  {}",
            delta * 100.0,
            if fail { "FAIL" } else { "ok" }
        );
        !fail
    };
    let mut ok = true;
    for base in baseline {
        let Some(current) = measured.iter().find(|r| r.name == base.name) else {
            println!("  {:<16} missing from this build  FAIL", base.name);
            ok = false;
            continue;
        };
        ok &= verdict(&base.name, "encode", current.encode_wps, base.encode_wps);
        if let Some(dec) = base.decode_rps {
            ok &= verdict(&base.name, "decode", current.decode_rps, dec);
        }
    }
    if let Some(((base_rps, base_p99), (best_rps, best_p99))) = serve {
        ok &= verdict("serve", "req/s ", best_rps, base_rps);
        let p99_delta = best_p99 / base_p99 - 1.0;
        let p99_fail = p99_delta > CHECK_REGRESSION_LIMIT;
        println!(
            "  {:<16} p99 ms {best_p99:>12.3} vs {base_p99:>12.3} recorded  {:>+7.1}%  {}",
            "serve",
            p99_delta * 100.0,
            if p99_fail { "FAIL" } else { "ok" }
        );
        ok &= !p99_fail;
    }
    ok
}

/// `perfsnap`'s command line.
struct SnapArgs {
    check: bool,
    check_against: Option<String>,
    out: String,
    note: Option<String>,
}

impl SnapArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<SnapArgs, String> {
        let mut out = SnapArgs {
            check: false,
            check_against: None,
            out: "BENCH_codec.json".into(),
            note: None,
        };
        read_flags(args, |flag, value| {
            match flag {
                "--check" => out.check = true,
                "--check-against" => out.check_against = Some(value.text()?),
                "--out" => out.out = value.text()?,
                "--note" => out.note = Some(value.text()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

fn main() {
    let SnapArgs { check, check_against, out: out_path, note } = args::from_env(SnapArgs::parse);

    let energy = EnergyModel::paper_default();
    let lines = wlcrc_bench::workloads::mixed_lines(256, SEED);
    let wlc_lines = wlc_compressible_lines(256, SEED + 1);

    if check {
        let baseline_path = check_against.unwrap_or_else(|| out_path.clone());
        let ok = run_check(&baseline_path, &lines, &wlc_lines, &energy, ITERS, SERVE_BATCHES, SEED);
        std::process::exit(if ok { 0 } else { 1 });
    }

    println!("perfsnap: codec suite ({ITERS} writes per scheme)");
    let codec_rows = measure_codec_suite(&lines, &wlc_lines, &energy, ITERS, true);

    // Plan suite: the full scheme registry over two workloads.
    println!("perfsnap: plan suite ({PLAN_LINES} lines x 2 workloads x 8 schemes)");
    let build_plan = || {
        // Explicitly store-less: the baseline numbers must not depend on a
        // WLCRC_STORE environment variable leaking into the snapshot.
        let mut plan = ExperimentPlan::new()
            .seed(SEED)
            .lines_per_workload(PLAN_LINES)
            .workload(Benchmark::Gcc.profile())
            .workload(Benchmark::Lbm.profile())
            .store_enabled(false);
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        plan
    };
    let streamed_start = Instant::now();
    let streamed = build_plan().run();
    let streamed_ms = streamed_start.elapsed().as_secs_f64() * 1e3;
    let grid_writes: u64 = streamed.cells.iter().map(|s| s.writes).sum();
    let stream_wps = grid_writes as f64 / (streamed_ms / 1e3);
    println!("  plan {streamed_ms:.0} ms ({stream_wps:.0} w/s)");

    // Serve suite: the same simulator behind the wire protocol. An
    // in-process `wlcrc-serve` on an ephemeral port receives fixed-size
    // write batches over TCP; requests/sec and the p99 batch latency track
    // the framing + queueing overhead of the service path.
    let serve_batch_size: usize = 64;
    println!("perfsnap: serve suite ({SERVE_BATCHES} batches x {serve_batch_size} writes)");
    let (serve_rps, serve_wps, p99_batch_ms) = measure_serve(SERVE_BATCHES, serve_batch_size, SEED);
    println!("  {serve_rps:.0} req/s   {serve_wps:.0} w/s   p99 batch {p99_batch_ms:.2} ms");

    let (git_rev, dirty) = git_describe();
    let timestamp =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_secs());
    let mut entry = String::new();
    entry.push_str("  {\n");
    entry.push_str(&format!(
        "    \"git_rev\": \"{git_rev}{}\",\n",
        if dirty { "+dirty" } else { "" }
    ));
    entry.push_str(&format!("    \"timestamp_unix\": {},\n", timestamp.unwrap_or(0)));
    entry.push_str(&format!(
        "    \"config\": {{\"iters\": {ITERS}, \"plan_lines\": {PLAN_LINES}, \"seed\": {SEED}}},\n"
    ));
    entry.push_str("    \"codecs\": [\n");
    for (i, row) in codec_rows.iter().enumerate() {
        let mut line = format!(
            "      {{\"name\": \"{}\", \"encode_writes_per_sec\": {:.0}, \"decode_reads_per_sec\": {:.0}",
            row.name, row.encode_wps, row.decode_rps
        );
        if let (Some(s), Some(x)) = (row.scalar_wps, row.speedup) {
            line.push_str(&format!(
                ", \"scalar_encode_writes_per_sec\": {s:.0}, \"kernel_speedup\": {x:.2}"
            ));
        }
        line.push('}');
        if i + 1 < codec_rows.len() {
            line.push(',');
        }
        entry.push_str(&line);
        entry.push('\n');
    }
    entry.push_str("    ],\n");
    entry.push_str(&format!(
        "    \"plan\": {{\"schemes\": 8, \"workloads\": 2, \"lines\": {PLAN_LINES}, \"writes\": {grid_writes}, \"streamed_wall_ms\": {streamed_ms:.1}, \"streamed_writes_per_sec\": {stream_wps:.0}}},\n"
    ));
    entry.push_str(&format!(
        "    \"serve\": {{\"batches\": {SERVE_BATCHES}, \"batch_size\": {serve_batch_size}, \"requests_per_sec\": {serve_rps:.0}, \"writes_per_sec\": {serve_wps:.0}, \"p99_batch_ms\": {p99_batch_ms:.3}}}{}\n",
        if note.is_some() { "," } else { "" }
    ));
    if let Some(note) = &note {
        entry.push_str(&note_member(note));
    }
    entry.push_str("  }");

    match append_entry(&out_path, &entry) {
        Ok(()) => println!("perfsnap: appended snapshot to {out_path}"),
        Err(err) => {
            eprintln!("perfsnap: could not write {out_path}: {err}");
            std::process::exit(1);
        }
    }
}

/// The entry's `"note"` member line, with the note escaped as a JSON string.
fn note_member(note: &str) -> String {
    let mut line = String::from("    \"note\": \"");
    escape_json_into(&mut line, note);
    line.push_str("\"\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_note_round_trips_through_the_json_reader() {
        let note = "C:\\runs\\x \"quoted\"\nsecond line";
        let entry = parse_json(&format!("{{\n{}}}", note_member(note))).expect("valid JSON");
        assert_eq!(entry.get("note").and_then(Json::as_str), Some(note));
    }

    fn row(name: &str, encode_wps: f64, decode_rps: f64) -> CodecRow {
        CodecRow { name: name.to_string(), encode_wps, decode_rps, scalar_wps: None, speedup: None }
    }

    fn baseline() -> Vec<BaselineRow> {
        vec![BaselineRow { name: "WLCRC-16".to_string(), encode_wps: 1e6, decode_rps: Some(2e6) }]
    }

    /// The verdict on a WLCRC-16 row and a serve row measured at the given
    /// multiples of their baselines (1000 req/s, p99 2 ms).
    fn passes(encode: f64, decode: f64, requests: f64, p99: f64) -> bool {
        let measured = [row("WLCRC-16", 1e6 * encode, 2e6 * decode)];
        gate_passes(&baseline(), &measured, Some(((1000.0, 2.0), (1000.0 * requests, 2.0 * p99))))
    }

    #[test]
    fn rows_within_the_limit_pass_and_rows_beyond_it_fail() {
        assert!(passes(1.0, 1.0, 1.0, 1.0));
        assert!(passes(0.86, 0.86, 0.86, 1.14));
        assert!(!passes(0.84, 1.0, 1.0, 1.0), "encode 16% below");
        assert!(!passes(1.0, 0.84, 1.0, 1.0), "decode 16% below");
        assert!(!passes(1.0, 1.0, 0.84, 1.0), "serve req/s 16% below");
        assert!(!passes(1.0, 1.0, 1.0, 1.16), "serve p99 16% above");
    }

    #[test]
    fn a_baseline_row_missing_from_the_build_fails() {
        assert!(gate_passes(&baseline(), &[row("WLCRC-16", 1e6, 2e6)], None));
        assert!(!gate_passes(&baseline(), &[row("Baseline", 1e6, 2e6)], None));
    }

    #[test]
    fn this_build_measures_every_row_of_the_committed_baseline() {
        let entry = last_entry(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json"));
        let baseline = entry_codecs(&entry).expect("the committed trajectory has codec rows");
        assert!(entry_serve(&entry).is_some(), "the committed trajectory has a serve row");
        let lines = wlcrc_bench::workloads::mixed_lines(4, SEED);
        let wlc_lines = wlc_compressible_lines(4, SEED + 1);
        let measured =
            measure_codec_suite(&lines, &wlc_lines, &EnergyModel::paper_default(), 1, false);
        for base in &baseline {
            assert!(measured.iter().any(|r| r.name == base.name), "{} is not measured", base.name);
        }
    }
}
