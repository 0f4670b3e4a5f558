//! Deterministic fault injection for chaos testing.
//!
//! Production code sprinkles named *fault sites* through its fragile paths —
//! `faults::should_fire("store.read.corrupt")` just before trusting bytes
//! read from disk, `faults::should_fire("grid.claim.crash")` just after
//! acquiring a claim, and so on. With no configuration the whole
//! layer is inert: every site check is a single relaxed atomic load that the
//! branch predictor learns immediately, so the hooks cost nothing on the
//! paths that matter and never perturb simulated results.
//!
//! Faults are switched on by the [`FAULTS_ENV`] (`WLCRC_FAULTS`) environment
//! variable or programmatically via [`configure`]. The spec grammar is a
//! `;`-separated list of clauses:
//!
//! ```text
//! WLCRC_FAULTS="seed=42;grid.claim.crash=@2;store.read.corrupt=0.25"
//! ```
//!
//! * `seed=N` — the injection seed (default 0). Decisions are a pure
//!   function of `(seed, site name, per-site hit index)`, so a fixed spec
//!   reproduces the *same* fault schedule on every run — chaos tests are
//!   deterministic, not flaky.
//! * `site=RATE` — the site fires with probability `RATE` (`0.0..=1.0`) on
//!   each hit, decided by the seeded hash above (no wall-clock randomness).
//! * `site=@N` — the site fires exactly once, on its `N`-th hit (1-based).
//!   This is the precise form chaos tests use to kill a worker on a chosen
//!   claim or tear a chosen write.
//!
//! Sites are plain dotted strings owned by their subsystem (the convention
//! is `<subsystem>.<operation>.<failure>`); the registry is open — this
//! crate validates the spec, not the site names. [`fired_count`] lets tests
//! assert a fault actually triggered, so a chaos run that silently injected
//! nothing cannot pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable holding the fault spec; unset means no faults.
pub const FAULTS_ENV: &str = "WLCRC_FAULTS";

/// How one site decides whether a given hit fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire with this probability on every hit, decided by the seeded hash.
    Rate(f64),
    /// Fire exactly once, on the n-th hit (1-based).
    Nth(u64),
}

/// A parsed fault spec: the seed plus one trigger per site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<(String, Trigger)>,
}

impl FaultPlan {
    /// Parses the [`FAULTS_ENV`] grammar. An empty or all-whitespace spec is
    /// a valid plan with no sites (faults stay off).
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let Some((site, value)) = clause.split_once('=') else {
                return Err(FaultSpecError::new(clause, "expected site=value"));
            };
            let (site, value) = (site.trim(), value.trim());
            if site == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| FaultSpecError::new(clause, "seed expects an integer"))?;
                continue;
            }
            let trigger = if let Some(nth) = value.strip_prefix('@') {
                let nth: u64 = nth
                    .parse()
                    .map_err(|_| FaultSpecError::new(clause, "@N expects an integer"))?;
                if nth == 0 {
                    return Err(FaultSpecError::new(clause, "hit indices are 1-based"));
                }
                Trigger::Nth(nth)
            } else {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| FaultSpecError::new(clause, "rate expects a number or @N"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(FaultSpecError::new(clause, "rate must be within 0.0..=1.0"));
                }
                Trigger::Rate(rate)
            };
            plan.sites.push((site.to_string(), trigger));
        }
        Ok(plan)
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// A malformed [`FAULTS_ENV`] clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    clause: String,
    reason: &'static str,
}

impl FaultSpecError {
    fn new(clause: &str, reason: &'static str) -> FaultSpecError {
        FaultSpecError { clause: clause.to_string(), reason }
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// Per-process injector state behind the fast-path flag.
#[derive(Debug, Default)]
struct Injector {
    plan: FaultPlan,
    /// Hits observed per site (every `should_fire` call counts one).
    hits: HashMap<String, u64>,
    /// Hits that actually fired per site.
    fired: HashMap<String, u64>,
}

/// Fast-path switch: `false` means no plan is loaded and every site check
/// returns immediately.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// One-time env initialisation marker plus the injector itself.
static INIT: OnceLock<()> = OnceLock::new();
static INJECTOR: OnceLock<Mutex<Injector>> = OnceLock::new();

fn injector() -> &'static Mutex<Injector> {
    INJECTOR.get_or_init(|| Mutex::new(Injector::default()))
}

/// Loads [`FAULTS_ENV`] exactly once per process. A malformed spec disables
/// injection loudly on stderr rather than silently running half a chaos
/// plan.
fn init_from_env() {
    INIT.get_or_init(|| {
        let Ok(spec) = std::env::var(FAULTS_ENV) else {
            return;
        };
        match FaultPlan::parse(&spec) {
            Ok(plan) => install(plan),
            Err(err) => eprintln!("wlcrc_faults: ignoring ${FAULTS_ENV}: {err}"),
        }
    });
}

/// Installs a plan, resetting all hit counters.
fn install(plan: FaultPlan) {
    let active = !plan.is_empty();
    let mut guard = match injector().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard = Injector { plan, hits: HashMap::new(), fired: HashMap::new() };
    ACTIVE.store(active, Ordering::Release);
}

/// Replaces the process-wide fault plan (tests; takes precedence over the
/// environment). Counters reset.
pub fn configure(spec: &str) -> Result<(), FaultSpecError> {
    INIT.get_or_init(|| {});
    install(FaultPlan::parse(spec)?);
    Ok(())
}

/// Disables all fault injection for the rest of the process.
pub fn clear() {
    INIT.get_or_init(|| {});
    install(FaultPlan::default());
}

/// `true` when a non-empty fault plan is loaded.
pub fn active() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Acquire)
}

/// Registers one hit at `site` and decides — deterministically, from the
/// seed, the site name and the hit index alone — whether the fault fires.
/// With no plan loaded this is one atomic load and `false`.
pub fn should_fire(site: &str) -> bool {
    if !active() {
        return false;
    }
    let mut guard = match injector().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let hit = {
        let slot = guard.hits.entry(site.to_string()).or_insert(0);
        *slot += 1;
        *slot
    };
    let seed = guard.plan.seed;
    let Some((_, trigger)) = guard.plan.sites.iter().find(|(name, _)| name == site) else {
        return false;
    };
    let fire = match *trigger {
        Trigger::Nth(n) => hit == n,
        Trigger::Rate(rate) => unit_from_hash(decision_hash(seed, site, hit)) < rate,
    };
    if fire {
        *guard.fired.entry(site.to_string()).or_insert(0) += 1;
        drop(guard);
        // Mirror the fire into the process-wide metrics registry so chaos
        // runs can watch injected faults on the same scrape as everything
        // else (`storectl stats`, the serve metrics endpoint).
        wlcrc_obs::registry()
            .counter(&format!("wlcrc_faults_fired_total{{site=\"{site}\"}}"))
            .inc();
    }
    fire
}

/// How many times `site` has actually fired in this process. Chaos tests use
/// this to assert the schedule injected what it promised.
pub fn fired_count(site: &str) -> u64 {
    init_from_env();
    let guard = match injector().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.fired.get(site).copied().unwrap_or(0)
}

/// How many times `site` has been *checked* in this process.
pub fn hit_count(site: &str) -> u64 {
    init_from_env();
    let guard = match injector().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.hits.get(site).copied().unwrap_or(0)
}

/// If `site` fires, deterministically corrupts one byte of `bytes` (position
/// and mask derived from the same seeded hash) and reports `true`. Empty
/// buffers cannot be corrupted and never fire.
pub fn corrupt_byte(site: &str, bytes: &mut [u8]) -> bool {
    if bytes.is_empty() || !should_fire(site) {
        return false;
    }
    let h = decision_hash(plan_seed(), site, hit_count(site));
    let index = (h >> 8) as usize % bytes.len();
    // Guarantee a real change: xor with a non-zero mask.
    let mask = (h as u8) | 1;
    bytes[index] ^= mask;
    true
}

fn plan_seed() -> u64 {
    let guard = match injector().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.plan.seed
}

/// FNV-1a over the site name, mixed with the seed and hit index through a
/// splitmix64 finaliser — the same construction the engine uses for cell
/// seeds, so decisions are stable across platforms and runs.
fn decision_hash(seed: u64, site: &str, hit: u64) -> u64 {
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in site.as_bytes() {
        name_hash ^= u64::from(*byte);
        name_hash = name_hash.wrapping_mul(0x100_0000_01b3);
    }
    let mut x = seed ^ name_hash ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The injector is process-global, so the tests in this module share it;
    /// they serialise on a lock and restore the disabled state afterwards.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_by_default_and_after_clear() {
        let _guard = exclusive();
        clear();
        assert!(!active());
        assert!(!should_fire("store.read.corrupt"));
        let mut bytes = vec![1, 2, 3];
        assert!(!corrupt_byte("store.read.corrupt", &mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _guard = exclusive();
        configure("seed=7;grid.claim.crash=@3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| should_fire("grid.claim.crash")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(fired_count("grid.claim.crash"), 1);
        assert_eq!(hit_count("grid.claim.crash"), 6);
        clear();
    }

    #[test]
    fn rate_triggers_are_deterministic_per_seed() {
        let _guard = exclusive();
        configure("seed=42;serve.client.flaky=0.5").unwrap();
        let first: Vec<bool> = (0..64).map(|_| should_fire("serve.client.flaky")).collect();
        configure("seed=42;serve.client.flaky=0.5").unwrap();
        let second: Vec<bool> = (0..64).map(|_| should_fire("serve.client.flaky")).collect();
        assert_eq!(first, second, "same seed, same schedule");
        assert!(first.iter().any(|f| *f), "rate 0.5 fires somewhere in 64 hits");
        assert!(first.iter().any(|f| !*f), "rate 0.5 skips somewhere in 64 hits");

        configure("seed=43;serve.client.flaky=0.5").unwrap();
        let reseeded: Vec<bool> = (0..64).map(|_| should_fire("serve.client.flaky")).collect();
        assert_ne!(first, reseeded, "a different seed reshuffles the schedule");
        clear();
    }

    #[test]
    fn rate_bounds_are_exact() {
        let _guard = exclusive();
        configure("always=1.0;never=0.0").unwrap();
        // 1.0 compares `< 1.0` over [0,1), so it fires on every hit.
        assert!((0..32).all(|_| should_fire("always")));
        assert!((0..32).all(|_| !should_fire("never")));
        clear();
    }

    #[test]
    fn unknown_sites_never_fire_but_still_count_hits() {
        let _guard = exclusive();
        configure("seed=1;known=1.0").unwrap();
        assert!(!should_fire("unknown.site"));
        assert_eq!(hit_count("unknown.site"), 1);
        assert_eq!(fired_count("unknown.site"), 0);
        clear();
    }

    #[test]
    fn corrupt_byte_changes_exactly_one_byte() {
        let _guard = exclusive();
        configure("seed=9;store.read.corrupt=@1").unwrap();
        let original = vec![0u8; 32];
        let mut bytes = original.clone();
        assert!(corrupt_byte("store.read.corrupt", &mut bytes));
        let diffs = bytes.iter().zip(&original).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        // The trigger was @1, so a second call leaves the buffer alone.
        let mut again = original.clone();
        assert!(!corrupt_byte("store.read.corrupt", &mut again));
        assert_eq!(again, original);
        clear();
    }

    #[test]
    fn fired_sites_surface_in_the_metrics_registry() {
        let _guard = exclusive();
        configure("seed=7;obs.test.registry=@1").unwrap();
        // The site name is unique to this test, so the registry counter
        // moves only under the module lock held above.
        let name = "wlcrc_faults_fired_total{site=\"obs.test.registry\"}";
        let before = wlcrc_obs::registry().counter(name).get();
        assert!(should_fire("obs.test.registry"));
        assert!(!should_fire("obs.test.registry"), "@1 fires exactly once");
        assert_eq!(wlcrc_obs::registry().counter(name).get(), before + 1);
        let rendered = wlcrc_obs::registry().render();
        assert!(rendered.contains(name), "missing {name:?} in:\n{rendered}");
        clear();
    }

    #[test]
    fn spec_errors_are_loud_and_precise() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ;; ").unwrap().is_empty());
        assert!(FaultPlan::parse("seed=3").unwrap().is_empty());
        assert!(FaultPlan::parse("a.b=0.5;c=@2").is_ok());
        for bad in ["nonsense", "site=", "site=2.0", "site=-0.1", "site=@0", "seed=x", "site=@x"] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} must be rejected");
        }
    }
}
