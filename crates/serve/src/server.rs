//! The blocking listener, worker pool, session table and request dispatch.
//!
//! ## Architecture
//!
//! Every connection gets a handler thread that reads frames, dispatches
//! [`Request`]s and writes [`Response`]s. A `Write` request only *enqueues*
//! records into the session's per-bank lanes (bounded [`VecDeque`]s mirroring
//! the simulator's bank partitioning) and wakes the worker pool; workers
//! drain dirty sessions in the background, lane by lane in ascending bank
//! order with per-lane FIFO preserved — exactly the order contract under
//! which [`SimulatorSession`] is byte-identical to a batch run. `Flush`,
//! `Stats` and `Close` drain inline before answering, so their snapshots
//! always cover every accepted record.
//!
//! ## Backpressure and degradation
//!
//! Queues never grow without bound. A `Write` that would overflow a bank
//! lane (or the session's total budget) is **partially accepted**: the
//! server answers [`Response::Busy`] carrying how many records it took, and
//! the client owns the rest — nothing is ever dropped silently. Before that
//! hard edge there is a soft one: when a session's backlog crosses
//! `degraded_threshold`, the session enters *degraded mode*, shedding
//! integrity verification and disturbance sampling (the two costs that do
//! not affect energy/endurance accounting) until its backlog fully drains.
//! The escalation is therefore: full fidelity → degraded (faster drain,
//! observable in `Stats` and metrics) → `Busy` (fail closed). A session
//! that entered degraded mode closes without touching the result store.

use crate::error::ServeError;
use crate::metrics::{render, ServeCounters, SessionSample};
use crate::protocol::{pack_record, read_frame, write_frame, Request, Response};
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::cache::{codec_fingerprint, effective_salt};
use wlcrc_memsim::{SimulationOptions, Simulator, SimulatorSession};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_store::{ResultStore, StableHasher};
use wlcrc_trace::WriteRecord;

/// Fault site that stalls request handling server-side (`wlcrc_faults`),
/// long enough to overrun any configured [`ServerConfig::request_deadline`]
/// — the chaos tests' way of exercising the deadline-miss → degraded path
/// deterministically.
pub const FAULT_REQUEST_SLOW: &str = "serve.request.slow";

/// Tuning knobs of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on each per-bank lane queue, in records. A `Write` hitting a
    /// full lane is answered `Busy`.
    pub lane_capacity: usize,
    /// Bound on one session's total backlog across all lanes, in records.
    pub session_queue_cap: usize,
    /// Backlog (records) above which a session enters degraded mode; it
    /// exits when the backlog drains to zero. Set `>= session_queue_cap` to
    /// disable degradation entirely.
    pub degraded_threshold: usize,
    /// Background drain worker threads. `0` is allowed: queues then drain
    /// only inline on `Flush`/`Stats`/`Close`, which makes backpressure
    /// fully deterministic (useful for tests).
    pub workers: usize,
    /// Records a worker drains per session visit before re-queueing it, so
    /// one deep session cannot monopolise a session lock.
    pub drain_batch: usize,
    /// Bound on concurrently served connections. A connect past the cap is
    /// answered with a single `Busy { accepted: 0 }` frame and closed —
    /// fail-closed backpressure instead of an unbounded handler-thread herd.
    pub max_connections: usize,
    /// Soft per-request time budget. A request whose handling overruns it
    /// still completes and answers normally, but the miss is counted and the
    /// session it touched is pushed into degraded mode (shedding integrity
    /// verification and disturbance sampling) so the server catches back up.
    /// `None` disables deadline accounting.
    pub request_deadline: Option<Duration>,
    /// Optional persistent result store consulted/filled at session close
    /// (skipped by sessions that entered degraded mode).
    pub store: Option<PathBuf>,
}

impl ServerConfig {
    /// Refuses the settings under which the server cannot make progress: a
    /// zero `lane_capacity` or `session_queue_cap` answers every `Write`
    /// with `Busy { accepted: 0 }`, so a client resubmits forever, and a
    /// zero `drain_batch` re-queues a dirty session without draining it.
    /// (`workers: 0` is legal; see above.)
    pub fn validate(&self) -> Result<(), ServeError> {
        let bounds = [
            ("lane_capacity", self.lane_capacity),
            ("session_queue_cap", self.session_queue_cap),
            ("drain_batch", self.drain_batch),
        ];
        match bounds.into_iter().find(|&(_, value)| value == 0) {
            Some((name, _)) => Err(ServeError::Config(format!("{name} must be at least 1"))),
            None => Ok(()),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            lane_capacity: 512,
            session_queue_cap: 4096,
            degraded_threshold: 3072,
            workers: 2,
            drain_batch: 1024,
            max_connections: 256,
            request_deadline: None,
            store: None,
        }
    }
}

/// One session's mutable state, guarded by its slot's mutex.
struct SessionInner {
    sim: SimulatorSession,
    /// Per-bank FIFO queues, indexed by flat bank index.
    queues: Vec<VecDeque<WriteRecord>>,
    /// Total queued records across all lanes.
    backlog: usize,
    /// Running digest of every accepted record's packed wire form, in
    /// accept order — the stream identity in the session's store key.
    digest: StableHasher,
    scheme: String,
    workload: String,
    config: PcmConfig,
    options: SimulationOptions,
    /// Set when the session enters degraded mode. Its statistics then
    /// differ from a clean run of the same records, so its close neither
    /// reads nor writes the result store.
    shed: bool,
}

struct SessionSlot {
    id: u64,
    inner: Mutex<SessionInner>,
}

struct Shared {
    config: ServerConfig,
    counters: ServeCounters,
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    next_session: AtomicU64,
    /// Session ids with a non-empty backlog, in wake order.
    dirty: Mutex<VecDeque<u64>>,
    dirty_wake: Condvar,
    shutdown: AtomicBool,
    /// Live connection handler count, governing the accept-loop cap.
    connections: AtomicUsize,
    store: Option<ResultStore>,
}

/// Locks `mutex`, recovering the data if a previous holder panicked. Every
/// structure guarded here stays structurally valid across a panic — the
/// worst case is a session whose `backlog` over-counts records a crashed
/// drain already popped, which only delays its `Busy` edge — so one
/// panicking handler thread must not poison-cascade the whole server.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A configured-but-not-yet-listening server.
pub struct Server {
    shared: Arc<Shared>,
}

/// A live server: listener thread + worker pool. Dropping the handle does
/// not stop the server; call [`RunningServer::shutdown`] (or send a
/// `Shutdown` request) and then [`RunningServer::join`].
pub struct RunningServer {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Creates a server with `config`. Opens the result store eagerly (a
    /// store directory that cannot be created degrades to read-only, exactly
    /// like the batch engine).
    pub fn new(config: ServerConfig) -> Server {
        let store = config.store.as_ref().map(|path| ResultStore::open_or_read_only(path, false));
        Server {
            shared: Arc::new(Shared {
                counters: ServeCounters::default(),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                dirty: Mutex::new(VecDeque::new()),
                dirty_wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                store,
                config,
            }),
        }
    }

    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral port),
    /// spawns the worker pool and the accept loop, and returns the running
    /// handle. Refuses a config that [`ServerConfig::validate`] refuses.
    pub fn serve_tcp(self, addr: impl ToSocketAddrs) -> Result<RunningServer, ServeError> {
        self.shared.config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let tcp_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let mut threads = spawn_workers(&self.shared);
        let shared = Arc::clone(&self.shared);
        threads.push(std::thread::spawn(move || accept_loop(shared, listener)));
        Ok(RunningServer { shared: self.shared, tcp_addr: Some(tcp_addr), threads })
    }

    /// Binds a Unix-domain socket at `path` (removing a stale socket file),
    /// spawns the worker pool and the accept loop. Refuses a config that
    /// [`ServerConfig::validate`] refuses.
    #[cfg(unix)]
    pub fn serve_unix(self, path: impl Into<PathBuf>) -> Result<RunningServer, ServeError> {
        self.shared.config.validate()?;
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let mut threads = spawn_workers(&self.shared);
        let shared = Arc::clone(&self.shared);
        threads.push(std::thread::spawn(move || accept_loop(shared, listener)));
        Ok(RunningServer { shared: self.shared, tcp_addr: None, threads })
    }
}

impl RunningServer {
    /// The bound TCP address (`None` for a Unix-socket server).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Asks the accept loop and workers to exit; idempotent, also triggered
    /// by a protocol `Shutdown` request.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.dirty_wake.notify_all();
    }

    /// Waits for the accept loop and worker pool to exit. Open connections
    /// are not force-closed; handlers exit at their next request boundary.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    (0..shared.config.workers)
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect()
}

/// Pops dirty sessions and drains them in bounded batches until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut dirty = lock_recover(&shared.dirty);
            loop {
                if let Some(id) = dirty.pop_front() {
                    break id;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                dirty = match shared.dirty_wake.wait_timeout(dirty, Duration::from_millis(50)) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let slot = lock_recover(&shared.sessions).get(&id).cloned();
        let Some(slot) = slot else { continue };
        let mut inner = lock_recover(&slot.inner);
        let drained = drain(&mut inner, shared, shared.config.drain_batch);
        let still_dirty = inner.backlog > 0;
        drop(inner);
        let _ = drained;
        if still_dirty {
            mark_dirty(shared, id);
        }
    }
}

/// Drains up to `limit` queued records (lane by lane, ascending bank order,
/// per-lane FIFO), returning how many were simulated. Each record goes
/// straight from its bank's queue into the session's lane for that bank,
/// which encodes it with the session's prepared encoder. Exits degraded mode
/// when the backlog reaches zero.
fn drain(inner: &mut SessionInner, shared: &Shared, limit: usize) -> usize {
    let mut simulated = 0;
    for bank in 0..inner.queues.len() {
        let take = inner.queues[bank].len().min(limit - simulated);
        for record in inner.queues[bank].drain(..take) {
            inner.sim.write(&record);
        }
        inner.backlog -= take;
        simulated += take;
        if simulated >= limit {
            break;
        }
    }
    shared.counters.writes_simulated_total.add(simulated as u64);
    if inner.backlog == 0 && inner.sim.degraded() {
        inner.sim.set_degraded(false);
    }
    simulated
}

fn mark_dirty(shared: &Shared, id: u64) {
    let mut dirty = lock_recover(&shared.dirty);
    if !dirty.contains(&id) {
        dirty.push_back(id);
    }
    drop(dirty);
    shared.dirty_wake.notify_one();
}

/// Abstraction over the two listener flavours for the shared accept loop.
trait Acceptor: Send + 'static {
    type Stream: Read + Write + Send + 'static;
    fn poll_accept(&self) -> std::io::Result<Option<Self::Stream>>;
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;
    fn poll_accept(&self) -> std::io::Result<Option<TcpStream>> {
        match self.accept() {
            Ok((stream, _)) => {
                // The listener polls non-blocking; the per-connection handler
                // thread wants plain blocking reads. Nagle would add ~40 ms
                // to every request/response round trip on loopback, so turn
                // it off — frames are written in one syscall each.
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(err) => Err(err),
        }
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    type Stream = UnixStream;
    fn poll_accept(&self) -> std::io::Result<Option<UnixStream>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(err) => Err(err),
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: impl Acceptor) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.poll_accept() {
            Ok(Some(mut stream)) => {
                // Claim a connection slot before spawning; losing the race
                // (or being past the cap) answers one `Busy` frame and
                // closes, so an overloaded server fails closed instead of
                // accumulating handler threads without bound.
                let active = shared.connections.fetch_add(1, Ordering::SeqCst);
                if active >= shared.config.max_connections {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    shared.counters.connections_rejected_total.inc();
                    let refusal = Response::Busy { accepted: 0, queued: active as u64 };
                    let _ = write_frame(&mut stream, &refusal.to_value());
                    continue;
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    handle_connection(&shared, stream);
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
}

/// Reads frames until EOF/shutdown, answering each request. I/O or protocol
/// errors tear down only this connection; sessions survive (a client can
/// reconnect and keep using its ids).
fn handle_connection(shared: &Shared, mut stream: impl Read + Write) {
    loop {
        let value = match read_frame(&mut stream) {
            Ok(Some(value)) => value,
            Ok(None) | Err(_) => return,
        };
        shared.counters.requests_total.inc();
        let response = match Request::from_value(&value) {
            Ok(request) => dispatch(shared, request),
            Err(err) => Response::Error { message: err.to_string() },
        };
        if write_frame(&mut stream, &response.to_value()).is_err() {
            return;
        }
        if matches!(response, Response::ShuttingDown) {
            return;
        }
    }
}

fn dispatch(shared: &Shared, request: Request) -> Response {
    let session = request_session(&request);
    let started = Instant::now();
    if wlcrc_faults::should_fire(FAULT_REQUEST_SLOW) {
        // Oversleep any configured deadline so an injected stall reliably
        // lands on the miss path whatever the budget.
        let deadline = shared.config.request_deadline.unwrap_or(Duration::from_millis(15));
        std::thread::sleep(deadline + Duration::from_millis(5));
    }
    let response = match handle(shared, request) {
        Ok(response) => response,
        Err(err) => Response::Error { message: err.to_string() },
    };
    let elapsed = started.elapsed();
    shared.counters.request_seconds.observe(elapsed);
    if let Some(deadline) = shared.config.request_deadline {
        if elapsed > deadline {
            shared.counters.deadline_misses_total.inc();
            if let Some(id) = session {
                degrade_session(shared, id);
            }
        }
    }
    response
}

/// The session a request operates on, if any — the one a deadline miss on
/// that request pushes into degraded mode.
fn request_session(request: &Request) -> Option<u64> {
    match request {
        Request::Write { session, .. }
        | Request::Flush { session }
        | Request::Stats { session }
        | Request::Close { session } => Some(*session),
        Request::Open { .. } | Request::Metrics | Request::Shutdown => None,
    }
}

/// Marks `id` degraded (idempotently) because serving it overran the
/// request deadline: shedding verification and disturbance sampling lets an
/// overloaded server drain faster, at the accuracy cost documented on
/// [`SimulatorSession::set_degraded`].
fn degrade_session(shared: &Shared, id: u64) {
    let Some(slot) = lock_recover(&shared.sessions).get(&id).cloned() else { return };
    enter_degraded(&mut lock_recover(&slot.inner), shared);
}

/// Puts a session into degraded mode (idempotently) and marks it as having
/// shed work.
fn enter_degraded(inner: &mut SessionInner, shared: &Shared) {
    if !inner.sim.degraded() {
        inner.sim.set_degraded(true);
        inner.shed = true;
        shared.counters.degraded_entered_total.inc();
    }
}

fn handle(shared: &Shared, request: Request) -> Result<Response, ServeError> {
    match request {
        Request::Open { scheme, workload, config, options } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            open_session(shared, scheme, workload, config, options)
        }
        Request::Write { session, records } => write_records(shared, session, &records),
        Request::Flush { session } => {
            let slot = lookup(shared, session)?;
            let mut inner = lock_recover(&slot.inner);
            drain(&mut inner, shared, usize::MAX);
            Ok(Response::Flushed { writes: inner.sim.writes() })
        }
        Request::Stats { session } => {
            let slot = lookup(shared, session)?;
            let mut inner = lock_recover(&slot.inner);
            drain(&mut inner, shared, usize::MAX);
            Ok(Response::Stats { stats: inner.sim.stats(), degraded: inner.sim.degraded() })
        }
        Request::Close { session } => close_session(shared, session),
        Request::Metrics => Ok(Response::MetricsText { text: metrics_text(shared) }),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.dirty_wake.notify_all();
            Ok(Response::ShuttingDown)
        }
    }
}

fn lookup(shared: &Shared, id: u64) -> Result<Arc<SessionSlot>, ServeError> {
    lock_recover(&shared.sessions).get(&id).cloned().ok_or(ServeError::UnknownSession(id))
}

fn open_session(
    shared: &Shared,
    scheme: String,
    workload: String,
    config: PcmConfig,
    options: SimulationOptions,
) -> Result<Response, ServeError> {
    config.validate().map_err(ServeError::Open)?;
    let codec = SchemeId::ALL
        .iter()
        .find(|id| id.label() == scheme)
        .map(|id| id.build())
        .ok_or_else(|| ServeError::Open(format!("unknown scheme label {scheme:?}")))?;
    let sim = Simulator::with_config(config.clone())
        .with_options(options.clone())
        .session(codec, workload.clone());
    let mut queues = Vec::new();
    queues.resize_with(sim.total_banks(), VecDeque::new);
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let slot = Arc::new(SessionSlot {
        id,
        inner: Mutex::new(SessionInner {
            sim,
            queues,
            backlog: 0,
            digest: StableHasher::new(),
            scheme,
            workload,
            config,
            options,
            shed: false,
        }),
    });
    lock_recover(&shared.sessions).insert(id, slot);
    Ok(Response::Opened { session: id })
}

fn write_records(
    shared: &Shared,
    session: u64,
    records: &[WriteRecord],
) -> Result<Response, ServeError> {
    let slot = lookup(shared, session)?;
    let mut inner = lock_recover(&slot.inner);
    let config = &shared.config;
    let mut accepted = 0u64;
    let mut busy = false;
    for record in records {
        if inner.backlog >= config.session_queue_cap {
            busy = true;
            break;
        }
        let bank = inner.sim.bank_index(record.address);
        if inner.queues[bank].len() >= config.lane_capacity {
            busy = true;
            break;
        }
        inner.digest.update(&pack_record(record));
        inner.queues[bank].push_back(*record);
        inner.backlog += 1;
        accepted += 1;
    }
    if inner.backlog > config.degraded_threshold {
        enter_degraded(&mut inner, shared);
    }
    let queued = inner.backlog as u64;
    let backlog = inner.backlog;
    drop(inner);
    shared.counters.writes_accepted_total.add(accepted);
    if backlog > 0 {
        mark_dirty(shared, slot.id);
    }
    if busy {
        shared.counters.busy_responses_total.inc();
        Ok(Response::Busy { accepted, queued })
    } else {
        Ok(Response::Accepted { accepted, queued })
    }
}

fn close_session(shared: &Shared, session: u64) -> Result<Response, ServeError> {
    let slot = {
        let mut sessions = lock_recover(&shared.sessions);
        sessions.remove(&session).ok_or(ServeError::UnknownSession(session))?
    };
    let mut inner = lock_recover(&slot.inner);
    drain(&mut inner, shared, usize::MAX);
    let stats = inner.sim.stats();
    let store = shared.store.as_ref().filter(|_| !inner.shed);
    let store_hit = store.map(|store| {
        let key = session_key(&inner);
        let hit = store.get(&key).is_some_and(|cached| cached == stats.to_value());
        if hit {
            shared.counters.store_hits_total.inc();
        } else {
            shared.counters.store_misses_total.inc();
            let _ = store.put(&key, &stats.to_value());
        }
        hit
    });
    Ok(Response::Closed { stats, store_hit })
}

/// The store key of a finished session: everything its statistics are a
/// function of. Mirrors the batch engine's cell key, with the accepted
/// stream's digest standing in for the workload identity.
fn session_key(inner: &SessionInner) -> Value {
    Value::record(
        "ServeSessionKey",
        vec![
            ("salt", effective_salt().to_value()),
            ("scheme", inner.scheme.to_value()),
            (
                "codec",
                codec_fingerprint(inner.sim.codec(), &inner.config.energy).to_hex().to_value(),
            ),
            ("workload", inner.workload.to_value()),
            ("config", inner.config.to_value()),
            ("options", inner.options.to_value()),
            ("stream_digest", inner.digest.finish().to_hex().to_value()),
            ("writes", (inner.sim.writes() + inner.backlog as u64).to_value()),
        ],
    )
}

fn metrics_text(shared: &Shared) -> String {
    let slots: Vec<Arc<SessionSlot>> = lock_recover(&shared.sessions).values().cloned().collect();
    let mut samples: Vec<SessionSample> = slots
        .iter()
        .map(|slot| {
            let inner = lock_recover(&slot.inner);
            let stats = inner.sim.stats();
            SessionSample {
                session: slot.id,
                scheme: inner.scheme.clone(),
                queue_depth: inner.backlog as u64,
                energy_pj_per_write: stats.mean_energy_pj(),
                write_imbalance: stats.write_imbalance(),
                degraded: inner.sim.degraded(),
            }
        })
        .collect();
    samples.sort_by_key(|sample| sample.session);
    let connections = shared.connections.load(Ordering::SeqCst);
    render(&shared.counters, &samples, shared.config.lane_capacity, connections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_queue_bounds_and_drain_batches_are_refused_before_binding() {
        // Workers are off, so a serve that wrongly took a zero would start
        // only its accept loop.
        let base = ServerConfig { workers: 0, ..ServerConfig::default() };
        assert!(base.validate().is_ok(), "workers: 0 stays legal");
        let refused = [
            ("lane_capacity", ServerConfig { lane_capacity: 0, ..base.clone() }),
            ("session_queue_cap", ServerConfig { session_queue_cap: 0, ..base.clone() }),
            ("drain_batch", ServerConfig { drain_batch: 0, ..base.clone() }),
        ];
        for (name, config) in refused {
            match config.validate() {
                Err(ServeError::Config(message)) => assert!(message.contains(name), "{message}"),
                other => panic!("{name}: 0 was not refused: {other:?}"),
            }
            let served = Server::new(config.clone()).serve_tcp("127.0.0.1:0");
            assert!(matches!(served, Err(ServeError::Config(_))), "serve_tcp took {name}: 0");
            #[cfg(unix)]
            {
                let path = std::env::temp_dir()
                    .join(format!("wlcrc-validate-{}-{name}.sock", std::process::id()));
                let served = Server::new(config).serve_unix(&path);
                assert!(matches!(served, Err(ServeError::Config(_))), "serve_unix took {name}: 0");
                assert!(!path.exists(), "a refused config must not bind");
            }
        }
    }
}
