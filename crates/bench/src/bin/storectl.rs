//! `storectl` — inspect and manage a persistent result store.
//!
//! ```text
//! storectl list    [--store DIR]                list entries (one line each)
//! storectl inspect [--store DIR] <fp-prefix>    pretty-print matching entries
//! storectl inspect [--store DIR] <fp-prefix> --why [--plan K] [--lines N]
//!                                               [--seed N]  explain a stored
//!                                               plan entry's cache miss by
//!                                               naming the cells that changed
//! storectl fsck    [--store DIR] [--stale-secs N]  quarantine corrupt
//!                                               entries, drop torn journal
//!                                               tails, clear stale claims and
//!                                               orphaned temp files
//! storectl evict   [--store DIR] <fp-prefix>    delete matching entries
//! storectl evict   [--store DIR] --all          delete every entry
//! storectl evict   [--store DIR] --max-bytes N  LRU-evict down to N bytes
//!                                               (accepts k/m/g suffixes)
//! storectl evict   [--store DIR] --older-than S drop entries unused for
//!                                               more than S seconds
//! storectl verify  [--store DIR]                validate every entry end-to-end
//! storectl stats   [--store DIR] [--min-hits N] entry/hit counts; exit 1 if
//!                                               fewer than N journaled hits
//! storectl stats   [--store DIR] --latency      also probe-read every entry
//!                                               and print the read/write
//!                                               latency histograms (count,
//!                                               p50/p99, max)
//! ```
//!
//! The store directory comes from `--store`, else the `WLCRC_STORE`
//! environment variable. Every subcommand works on the self-describing
//! on-disk records alone — no knowledge of the producing plan is needed.
//! Exit codes: 0 on success, 1 on failed assertion (`verify` with corrupt
//! entries, `stats --min-hits` unmet), 2 on usage errors.

use wlcrc_bench::args::{self, read_flags};
use wlcrc_bench::figures::runner_plan;
use wlcrc_memsim::cache::effective_salt;
use wlcrc_store::{parse_byte_size, wire, EntryInfo, ResultStore, STORE_ENV};

use serde::Value;

fn usage() -> ! {
    eprintln!(
        "usage: storectl <list|inspect|fsck|evict|verify|stats> [--store DIR] \
         [<fingerprint-prefix>|--all|--max-bytes N|--older-than SECS] [--min-hits N] \
         [--latency] [--why [--plan perfsnap|fig08] [--lines N] [--seed N]] [--stale-secs N]"
    );
    std::process::exit(2);
}

/// `storectl`'s command line: a command, at most one fingerprint prefix
/// and the flags of every command (a command ignores the others' flags).
struct StoreArgs {
    command: Option<String>,
    prefix: Option<String>,
    store: Option<String>,
    min_hits: Option<u64>,
    max_bytes: Option<u64>,
    older_than: Option<u64>,
    stale_secs: u64,
    plan: String,
    lines: usize,
    seed: u64,
    all: bool,
    latency: bool,
    why: bool,
}

impl StoreArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<StoreArgs, String> {
        let mut out = StoreArgs {
            command: None,
            prefix: None,
            store: None,
            min_hits: None,
            max_bytes: None,
            older_than: None,
            stale_secs: 3600,
            plan: "perfsnap".to_string(),
            lines: 40,
            seed: 42,
            all: false,
            latency: false,
            why: false,
        };
        read_flags(args, |arg, value| {
            match arg {
                "--store" => out.store = Some(value.text()?),
                "--min-hits" => out.min_hits = Some(value.number()?),
                "--max-bytes" => {
                    out.max_bytes = Some(value.parsed("a size (e.g. 64m)", parse_byte_size)?);
                }
                "--older-than" => out.older_than = Some(value.number()?),
                "--stale-secs" => out.stale_secs = value.number()?,
                "--plan" => out.plan = value.text()?,
                "--lines" => out.lines = value.number()?,
                "--seed" => out.seed = value.number()?,
                "--all" => out.all = true,
                "--latency" => out.latency = true,
                "--why" => out.why = true,
                _ if arg.starts_with('-') => return Ok(false),
                _ if out.command.is_none() => out.command = Some(arg.to_string()),
                _ if out.prefix.is_none() => out.prefix = Some(arg.to_string()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

fn main() {
    let args = args::from_env(StoreArgs::parse);
    let Some(command) = args.command.as_deref() else { usage() };
    let root = args.store.clone().or_else(|| std::env::var(STORE_ENV).ok()).unwrap_or_else(|| {
        eprintln!("storectl: no store directory (--store DIR or ${STORE_ENV})");
        std::process::exit(2);
    });
    // Management operations never create the directory; open read-only and
    // touch the filesystem directly for eviction.
    let store = ResultStore::open_read_only(&root);

    match command {
        "list" => {
            let entries = store.entries();
            for info in &entries {
                println!("{}", describe(&store, info));
            }
            println!("{} entries", entries.len());
        }
        "inspect" => {
            let Some(prefix) = &args.prefix else { usage() };
            let matches = matching(&store, prefix);
            if matches.is_empty() {
                eprintln!("storectl: no entry matches prefix {prefix:?}");
                std::process::exit(1);
            }
            if args.why {
                let kind = &args.plan;
                let Some(plan) = runner_plan(kind, args.lines, args.seed) else {
                    eprintln!("storectl: unknown plan {kind:?} (expected perfsnap or fig08)");
                    std::process::exit(2);
                };
                let mut stale = false;
                for info in matches {
                    stale |= explain_plan_entry(&store, &info, &plan, kind);
                }
                if stale {
                    std::process::exit(1);
                }
                return;
            }
            for info in matches {
                match store.read_entry(info.fingerprint) {
                    Ok(entry) => {
                        println!("entry {} ({} bytes)", info.fingerprint, info.bytes);
                        println!("key:\n{}", indent(&wire::render(&entry.key)));
                        println!("payload:\n{}", indent(&wire::render(&entry.payload)));
                    }
                    Err(err) => println!("entry {}: CORRUPT ({err})", info.fingerprint),
                }
            }
        }
        "fsck" => {
            let writable = ResultStore::open(&root).unwrap_or_else(|err| {
                eprintln!("storectl: cannot open store for repair: {err}");
                std::process::exit(1);
            });
            let report = writable.fsck(args.stale_secs).unwrap_or_else(|err| {
                eprintln!("storectl: fsck failed: {err}");
                std::process::exit(1);
            });
            for (info, err) in &report.quarantined {
                println!("quarantined {} ({err})", info.fingerprint);
            }
            for fp in &report.cleared_claims {
                println!("cleared stale claim {fp}");
            }
            if report.dropped_journal_lines > 0 {
                println!("dropped {} malformed journal line(s)", report.dropped_journal_lines);
            }
            if report.removed_temp_files > 0 {
                println!("removed {} orphaned temp file(s)", report.removed_temp_files);
            }
            // The repair must converge: a second pass over the repaired
            // store has nothing left to fix, or something is deeply wrong.
            let remaining = writable.fsck(args.stale_secs).unwrap_or_else(|err| {
                eprintln!("storectl: post-repair check failed: {err}");
                std::process::exit(1);
            });
            if !remaining.clean() {
                eprintln!("storectl: store still dirty after repair");
                std::process::exit(1);
            }
            println!(
                "{} valid entries, {} quarantined, 0 bad entries remaining",
                report.valid,
                writable.quarantined().len()
            );
        }
        "evict" => {
            let writable = ResultStore::open(&root).unwrap_or_else(|err| {
                eprintln!("storectl: cannot open store for eviction: {err}");
                std::process::exit(1);
            });
            // Policy-driven eviction: LRU down to a byte cap, or everything
            // unused for longer than a cutoff. Both report what they dropped.
            if let Some(cap) = args.max_bytes {
                let evicted = writable.evict_lru(cap).unwrap_or_else(|err| {
                    eprintln!("storectl: eviction failed: {err}");
                    std::process::exit(1);
                });
                for info in &evicted {
                    println!("evicted {}  {:>6}B", info.fingerprint, info.bytes);
                }
                println!("evicted {} entries (cap {cap} bytes)", evicted.len());
                return;
            }
            if let Some(secs) = args.older_than {
                let now = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                let evicted =
                    writable.evict_older_than(now.saturating_sub(secs)).unwrap_or_else(|err| {
                        eprintln!("storectl: eviction failed: {err}");
                        std::process::exit(1);
                    });
                for info in &evicted {
                    println!("evicted {}  {:>6}B", info.fingerprint, info.bytes);
                }
                println!("evicted {} entries (unused for {secs}s)", evicted.len());
                return;
            }
            let victims: Vec<EntryInfo> = if args.all {
                store.entries()
            } else {
                let Some(prefix) = &args.prefix else { usage() };
                matching(&store, prefix)
            };
            let mut evicted = 0usize;
            for info in victims {
                if writable.evict(info.fingerprint).unwrap_or(false) {
                    evicted += 1;
                }
            }
            println!("evicted {evicted} entries");
        }
        "verify" => {
            let report = store.verify();
            for (info, err) in &report.corrupt {
                println!("CORRUPT {} ({err})", info.fingerprint);
            }
            println!("{} valid, {} corrupt", report.valid.len(), report.corrupt.len());
            if !report.corrupt.is_empty() {
                std::process::exit(1);
            }
        }
        "stats" => {
            let entries = store.entries();
            let bytes: u64 = entries.iter().map(|info| info.bytes).sum();
            let hits = store.hit_count();
            println!("store: {root}");
            println!("entries: {}", entries.len());
            println!("bytes: {bytes}");
            println!("hits: {hits}");
            if args.latency {
                // Metrics live in this process's registry, so measure by
                // probe-reading every entry (full open + validate, the same
                // path a cache lookup takes).
                for info in &entries {
                    let _ = store.read_entry(info.fingerprint);
                }
                let store_metrics = wlcrc_store::metrics();
                print_latency("read", store_metrics.read_seconds);
                print_latency("write", store_metrics.write_seconds);
            }
            if let Some(min) = args.min_hits.filter(|&min| hits < min) {
                eprintln!("storectl: expected at least {min} journaled hits, found {hits}");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

/// Explains why a stored plan entry would miss today's plan-cache lookup:
/// compares the recorded per-cell fingerprints positionally against the
/// grid `plan` would execute now and names every cell that changed.
/// Returns `true` when the entry no longer matches the current plan.
fn explain_plan_entry(
    store: &ResultStore,
    info: &EntryInfo,
    plan: &wlcrc_memsim::ExperimentPlan,
    kind: &str,
) -> bool {
    let entry = match store.read_entry(info.fingerprint) {
        Ok(entry) => entry,
        Err(err) => {
            println!("entry {}: CORRUPT ({err})", info.fingerprint);
            return true;
        }
    };
    let Ok(record) = entry.key.as_record("PlanKey") else {
        println!(
            "entry {}: not a plan entry (--why explains PlanKey entries; use plain \
             inspect for cell entries)",
            info.fingerprint
        );
        return false;
    };
    let stored_salt = match record.raw("salt") {
        Some(Value::Str(salt)) => salt.clone(),
        _ => "?".to_string(),
    };
    let stored_cells: Vec<String> = match record.raw("cells") {
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(|item| match item {
                Value::Str(hex) => Some(hex.clone()),
                _ => None,
            })
            .collect(),
        _ => {
            println!("entry {}: plan key has no cell list", info.fingerprint);
            return true;
        }
    };

    println!("entry {} (plan {kind:?})", info.fingerprint);
    // A plan runs one config and records it as index 0; any other index
    // came from a plan that still carried a config axis.
    if let Some(&Value::U64(index @ 1..)) = record.raw("config_index") {
        println!("  config {index}: an old multi-config plan's entry; no plan today looks it up");
        return true;
    }
    if plan.plan_fingerprint() == info.fingerprint {
        println!("  current: this is exactly the entry today's run would look up");
        return false;
    }
    if stored_salt != effective_salt() {
        println!("  salt changed: recorded {stored_salt:?}, current {:?}", effective_salt());
    }
    let now_cells = plan.plan_cell_fingerprints();
    if stored_cells.len() != now_cells.len() {
        println!(
            "  grid shape changed: {} recorded cells vs {} current \
             (a different --plan?)",
            stored_cells.len(),
            now_cells.len()
        );
        return true;
    }
    let labels = plan.cell_labels();
    let mut changed = 0usize;
    for (index, (recorded, now)) in stored_cells.iter().zip(&now_cells).enumerate() {
        if *recorded != now.to_hex() {
            changed += 1;
            let label = labels.get(index).map(String::as_str).unwrap_or("?");
            println!("  changed cell {index}: {label}");
            println!("    recorded {recorded}");
            println!("    current  {}", now.to_hex());
        }
    }
    if changed == 0 {
        println!(
            "  every cell fingerprint matches; the miss is in plan metadata \
             (seed, lines per workload, or salt)"
        );
    } else {
        println!("  {changed} of {} cells changed", stored_cells.len());
    }
    true
}

/// Entries whose fingerprint hex starts with `prefix`.
fn matching(store: &ResultStore, prefix: &str) -> Vec<EntryInfo> {
    store
        .entries()
        .into_iter()
        .filter(|info| info.fingerprint.to_hex().starts_with(&prefix.to_lowercase()))
        .collect()
}

/// One `list` line: fingerprint, size, and — when the entry is readable — the
/// salt, scheme, workload and writes pulled out of the self-describing key.
fn describe(store: &ResultStore, info: &EntryInfo) -> String {
    let head = format!("{}  {:>6}B", info.fingerprint, info.bytes);
    match store.read_entry(info.fingerprint) {
        Ok(entry) => {
            let field = |name: &str| -> String {
                entry
                    .key
                    .as_record("CellKey")
                    .ok()
                    .and_then(|record| record.raw(name).cloned())
                    .map(|value| summarise(&value))
                    .unwrap_or_else(|| "?".to_string())
            };
            let writes = entry
                .payload
                .as_record("SchemeStats")
                .ok()
                .and_then(|record| record.field::<u64>("writes").ok())
                .map(|writes| writes.to_string())
                .unwrap_or_else(|| "?".to_string());
            format!(
                "{head}  salt={} scheme={} workload={} seed={} writes={writes}",
                field("salt"),
                field("scheme"),
                summarise_workload(&entry.key),
                field("base_seed"),
            )
        }
        Err(err) => format!("{head}  CORRUPT ({err})"),
    }
}

fn summarise(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::U64(n) => n.to_string(),
        other => wire::render(other).replace('\n', " "),
    }
}

/// The workload name buried inside either identity variant.
fn summarise_workload(key: &Value) -> String {
    let Ok(record) = key.as_record("CellKey") else {
        return "?".to_string();
    };
    let Some(workload) = record.raw("workload") else {
        return "?".to_string();
    };
    if let Ok(profile) = workload.as_record("WorkloadIdentity::Profile") {
        if let Some(Value::Record { fields, .. }) = profile.raw("profile") {
            if let Some((_, Value::Str(name))) = fields.iter().find(|(k, _)| k == "name") {
                return name.clone();
            }
        }
    }
    if let Ok(trace) = workload.as_record("WorkloadIdentity::Trace") {
        if let Some(Value::Str(name)) = trace.raw("name") {
            return format!("{name} (trace)");
        }
    }
    "?".to_string()
}

fn indent(text: &str) -> String {
    text.lines().map(|line| format!("  {line}\n")).collect()
}

/// One `stats --latency` line: `read latency: count=… p50=… p99=… max=…`.
fn print_latency(kind: &str, histogram: &wlcrc_obs::Histogram) {
    println!(
        "{kind} latency: count={} p50={} p99={} max={}",
        histogram.count(),
        format_ns(histogram.quantile_ns(0.5)),
        format_ns(histogram.quantile_ns(0.99)),
        format_ns(histogram.max_ns()),
    );
}

/// Human-scaled duration: nanoseconds up to 10µs, then µs / ms / s.
fn format_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
