//! A minimal blocking client for the serve protocol, used by the soak test,
//! the `serve-replay` tool and in-process examples — plus the resilient
//! [`RetryClient`] wrapper that reconnects and retries transient failures
//! under a jittered-exponential [`RetryPolicy`].

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, Request, Response};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;
use wlcrc_memsim::{SchemeStats, SimulationOptions};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_trace::WriteRecord;

/// Fault site that fails a [`RetryClient`] call *before* the request is
/// sent (`wlcrc_faults`), surfacing as a transient connection error. Firing
/// pre-send keeps retries exactly-once safe, so chaos runs stay
/// byte-identical to clean ones.
pub const FAULT_CLIENT_FLAKY: &str = "serve.client.flaky";

/// Outcome of [`ServeClient::write_all`]: the records all landed, possibly
/// after observing backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReport {
    /// Records delivered (always the full batch on `Ok`).
    pub written: u64,
    /// `Busy` responses absorbed along the way — nonzero means the server
    /// exercised backpressure and this client resubmitted the remainder.
    pub busy_responses: u64,
    /// Highest session queue depth any response reported.
    pub max_queued: u64,
}

/// A connected client driving one request/response exchange at a time over
/// any bidirectional byte stream.
pub struct ServeClient<S: Read + Write> {
    stream: S,
}

impl ServeClient<TcpStream> {
    /// Connects over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient<TcpStream>, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Requests and responses strictly alternate, so Nagle's algorithm
        // would stall every exchange by a delayed-ACK interval.
        stream.set_nodelay(true)?;
        Ok(ServeClient::over(stream))
    }
}

#[cfg(unix)]
impl ServeClient<UnixStream> {
    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<ServeClient<UnixStream>, ServeError> {
        Ok(ServeClient::over(UnixStream::connect(path)?))
    }
}

impl<S: Read + Write> ServeClient<S> {
    /// Wraps an already-connected bidirectional stream.
    pub fn over(stream: S) -> ServeClient<S> {
        ServeClient { stream }
    }

    /// One request/response exchange. Protocol-level `Error` responses are
    /// surfaced as [`ServeError::Remote`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &request.to_value())?;
        let value = read_frame(&mut self.stream)?
            .ok_or_else(|| ServeError::Protocol("server hung up mid-exchange".to_string()))?;
        match Response::from_value(&value)? {
            Response::Error { message } => Err(ServeError::Remote(message)),
            response => Ok(response),
        }
    }

    /// Opens a session; returns its id.
    pub fn open(
        &mut self,
        scheme: &str,
        workload: &str,
        config: PcmConfig,
        options: SimulationOptions,
    ) -> Result<u64, ServeError> {
        match self.call(&Request::Open {
            scheme: scheme.to_string(),
            workload: workload.to_string(),
            config,
            options,
        })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Submits one batch without retrying: the raw `Accepted`/`Busy`
    /// outcome, for callers probing backpressure directly.
    pub fn write(&mut self, session: u64, records: &[WriteRecord]) -> Result<Response, ServeError> {
        self.call(&Request::Write { session, records: records.to_vec() })
    }

    /// Delivers *all* records, resubmitting whatever a `Busy` response left
    /// over (after a `Flush` to let the server drain). Chunks the batch so
    /// no frame exceeds the protocol cap.
    pub fn write_all(
        &mut self,
        session: u64,
        records: &[WriteRecord],
    ) -> Result<WriteReport, ServeError> {
        const CHUNK: usize = 4096;
        let mut report = WriteReport { written: 0, busy_responses: 0, max_queued: 0 };
        for chunk in records.chunks(CHUNK) {
            let mut rest = chunk;
            while !rest.is_empty() {
                match self.write(session, rest)? {
                    Response::Accepted { accepted, queued } => {
                        rest = unaccepted(rest, accepted)?;
                        report.written += accepted;
                        report.max_queued = report.max_queued.max(queued);
                    }
                    Response::Busy { accepted, queued } => {
                        rest = unaccepted(rest, accepted)?;
                        report.written += accepted;
                        report.busy_responses += 1;
                        report.max_queued = report.max_queued.max(queued);
                        // Nothing was dropped; give the server room.
                        self.flush(session)?;
                    }
                    other => return Err(unexpected("Accepted|Busy", &other)),
                }
            }
        }
        Ok(report)
    }

    /// Blocks until the session's backlog is fully simulated.
    pub fn flush(&mut self, session: u64) -> Result<u64, ServeError> {
        match self.call(&Request::Flush { session })? {
            Response::Flushed { writes } => Ok(writes),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// Snapshots the session's statistics (drains first server-side).
    pub fn stats(&mut self, session: u64) -> Result<(SchemeStats, bool), ServeError> {
        match self.call(&Request::Stats { session })? {
            Response::Stats { stats, degraded } => Ok((stats, degraded)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Closes the session, returning its final statistics and the store
    /// outcome (`None` when the server runs store-less).
    pub fn close(&mut self, session: u64) -> Result<(SchemeStats, Option<bool>), ServeError> {
        match self.call(&Request::Close { session })? {
            Response::Closed { stats, store_hit } => Ok((stats, store_hit)),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Scrapes the plain-text metrics.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(expected: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected {expected} response, got {got:?}"))
}

/// The records a `Write` of `sent` left to the client once the server took
/// `accepted` of them; a count beyond the batch is a protocol error.
fn unaccepted(sent: &[WriteRecord], accepted: u64) -> Result<&[WriteRecord], ServeError> {
    usize::try_from(accepted).ok().and_then(|taken| sent.get(taken..)).ok_or_else(|| {
        ServeError::Protocol(format!("server accepted {accepted} of {} records", sent.len()))
    })
}

/// Backoff schedule for [`RetryClient`]: exponential doubling from
/// `base_delay`, capped at `max_delay`, scaled by a deterministic jitter
/// factor in `[0.5, 1.0)` derived from `(seed, attempt)` — so a fleet of
/// clients sharing a policy template but distinct seeds desynchronises
/// instead of thundering back in lockstep, while any single run replays
/// identically.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (the first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff pause.
    pub max_delay: Duration,
    /// Jitter stream selector.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: 0x776c_6372_6300,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let doubled = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = doubled.min(self.max_delay);
        capped.mul_f64(0.5 + jitter_unit(self.seed, attempt) / 2.0)
    }
}

/// A unit-interval value that is a pure function of `(seed, attempt)`
/// (splitmix64 finalizer), so backoff schedules are reproducible.
fn jitter_unit(seed: u64, attempt: u32) -> f64 {
    let mut z = seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A reconnecting TCP client that absorbs transient failures under a
/// [`RetryPolicy`].
///
/// Retried failures are strictly **exactly-once safe**:
///
/// * the injected [`FAULT_CLIENT_FLAKY`] fault always fires *before* a
///   request is sent, so retrying it can never duplicate server-side work;
/// * genuine transport errors (connection reset, server hung up) are
///   retried only for requests whose replay cannot change any session's
///   statistics (`Open`, `Flush`, `Stats`, `Metrics` — at worst a lost
///   `Open` response leaks an empty, never-closed session). A `Write` or
///   `Close` interrupted mid-flight surfaces its error instead, because the
///   client cannot know whether the server applied it.
///
/// `Busy` answered to a non-`Write` request means the server refused the
/// connection at its cap; the client backs off, reconnects and retries.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<ServeClient<TcpStream>>,
    retries: u64,
    busy_waits: u64,
}

impl RetryClient {
    /// Connects to `addr`, retrying the initial connect under `policy`.
    pub fn connect(
        addr: impl Into<String>,
        policy: RetryPolicy,
    ) -> Result<RetryClient, ServeError> {
        let mut client =
            RetryClient { addr: addr.into(), policy, client: None, retries: 0, busy_waits: 0 };
        let mut attempt = 0u32;
        loop {
            match client.ensure_connected() {
                Ok(_) => return Ok(client),
                Err(err) => {
                    if attempt + 1 >= client.policy.max_attempts {
                        return Err(err);
                    }
                    client.retries += 1;
                    std::thread::sleep(client.policy.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Transient failures absorbed so far (reconnects and injected faults).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Backoff pauses taken for `Busy` responses so far.
    pub fn busy_waits(&self) -> u64 {
        self.busy_waits
    }

    fn ensure_connected(&mut self) -> Result<&mut ServeClient<TcpStream>, ServeError> {
        if let Some(ref mut client) = self.client {
            return Ok(client);
        }
        let client = ServeClient::connect(&*self.addr)?;
        Ok(self.client.insert(client))
    }

    /// One exchange with retry: transient failures reconnect and resend
    /// under the policy (see the type docs for the exactly-once rules).
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        let mut attempt = 0u32;
        loop {
            let injected = wlcrc_faults::should_fire(FAULT_CLIENT_FLAKY);
            let outcome = if injected {
                self.client = None;
                Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected transient client fault",
                )))
            } else {
                let result = self.ensure_connected().and_then(|client| client.call(request));
                if matches!(result, Err(ServeError::Io(_) | ServeError::Protocol(_))) {
                    // The connection is in an unknown framing state; any
                    // retry must start from a fresh one.
                    self.client = None;
                }
                result
            };
            let out_of_attempts = attempt + 1 >= self.policy.max_attempts;
            match outcome {
                Ok(Response::Busy { .. })
                    if !matches!(request, Request::Write { .. }) && !out_of_attempts =>
                {
                    // Refused at the connection cap: back off and reconnect.
                    self.client = None;
                    self.busy_waits += 1;
                    std::thread::sleep(self.policy.delay(attempt));
                    attempt += 1;
                }
                Err(err)
                    if !out_of_attempts && (injected || transport_retryable(&err, request)) =>
                {
                    self.retries += 1;
                    std::thread::sleep(self.policy.delay(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Opens a session; returns its id.
    pub fn open(
        &mut self,
        scheme: &str,
        workload: &str,
        config: PcmConfig,
        options: SimulationOptions,
    ) -> Result<u64, ServeError> {
        match self.call(&Request::Open {
            scheme: scheme.to_string(),
            workload: workload.to_string(),
            config,
            options,
        })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Delivers *all* records, absorbing transient client faults and
    /// backing off (jittered, exponential) on `Busy` backpressure.
    pub fn write_all(
        &mut self,
        session: u64,
        records: &[WriteRecord],
    ) -> Result<WriteReport, ServeError> {
        const CHUNK: usize = 4096;
        let mut report = WriteReport { written: 0, busy_responses: 0, max_queued: 0 };
        for chunk in records.chunks(CHUNK) {
            let mut rest = chunk;
            let mut busy_attempt = 0u32;
            while !rest.is_empty() {
                let request = Request::Write { session, records: rest.to_vec() };
                match self.call(&request)? {
                    Response::Accepted { accepted, queued } => {
                        rest = unaccepted(rest, accepted)?;
                        report.written += accepted;
                        report.max_queued = report.max_queued.max(queued);
                        busy_attempt = 0;
                    }
                    Response::Busy { accepted, queued } => {
                        rest = unaccepted(rest, accepted)?;
                        report.written += accepted;
                        report.busy_responses += 1;
                        report.max_queued = report.max_queued.max(queued);
                        // Nothing was dropped; pause (escalating while the
                        // server stays busy), let it drain, resubmit.
                        self.busy_waits += 1;
                        std::thread::sleep(self.policy.delay(busy_attempt));
                        busy_attempt = busy_attempt.saturating_add(1);
                        self.flush(session)?;
                    }
                    other => return Err(unexpected("Accepted|Busy", &other)),
                }
            }
        }
        Ok(report)
    }

    /// Blocks until the session's backlog is fully simulated.
    pub fn flush(&mut self, session: u64) -> Result<u64, ServeError> {
        match self.call(&Request::Flush { session })? {
            Response::Flushed { writes } => Ok(writes),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// Snapshots the session's statistics (drains first server-side).
    pub fn stats(&mut self, session: u64) -> Result<(SchemeStats, bool), ServeError> {
        match self.call(&Request::Stats { session })? {
            Response::Stats { stats, degraded } => Ok((stats, degraded)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Closes the session, returning its final statistics and store outcome.
    pub fn close(&mut self, session: u64) -> Result<(SchemeStats, Option<bool>), ServeError> {
        match self.call(&Request::Close { session })? {
            Response::Closed { stats, store_hit } => Ok((stats, store_hit)),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Scrapes the plain-text metrics.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Whether a genuine transport failure of `request` is safe to retry: the
/// connection died (I/O error or mid-exchange hang-up) *and* replaying the
/// request cannot change any session's recorded statistics.
fn transport_retryable(err: &ServeError, request: &Request) -> bool {
    let transport = match err {
        ServeError::Io(_) => true,
        ServeError::Protocol(message) => message.contains("hung up"),
        _ => false,
    };
    transport
        && matches!(
            request,
            Request::Open { .. } | Request::Flush { .. } | Request::Stats { .. } | Request::Metrics
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;
    use wlcrc_pcm::line::MemoryLine;

    /// A one-thread fake server: serves one connection, answering every
    /// frame with `response`, until the client hangs up.
    fn fake_server(response: Response) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            while let Ok(Some(_)) = read_frame(&mut stream) {
                if write_frame(&mut stream, &response.to_value()).is_err() {
                    return;
                }
            }
        });
        (addr, thread)
    }

    fn batch(count: u64) -> Vec<WriteRecord> {
        (0..count)
            .map(|i| WriteRecord::new(64 * i, MemoryLine::ZERO, MemoryLine::from_words([i; 8])))
            .collect()
    }

    fn is_overcount(result: Result<WriteReport, ServeError>) -> bool {
        matches!(result, Err(ServeError::Protocol(message)) if message.contains("accepted 65 of 64"))
    }

    #[test]
    fn both_clients_refuse_an_accepted_count_beyond_the_batch() {
        let records = batch(64);
        for response in [
            Response::Accepted { accepted: 65, queued: 0 },
            Response::Busy { accepted: 65, queued: 0 },
        ] {
            let (addr, server) = fake_server(response.clone());
            let mut client = ServeClient::connect(addr).expect("connect");
            assert!(is_overcount(client.write_all(1, &records)), "ServeClient took {response:?}");
            drop(client);
            server.join().expect("fake server");

            let (addr, server) = fake_server(response.clone());
            let mut client =
                RetryClient::connect(addr.to_string(), RetryPolicy::default()).expect("connect");
            assert!(is_overcount(client.write_all(1, &records)), "RetryClient took {response:?}");
            drop(client);
            server.join().expect("fake server");
        }
    }

    #[test]
    fn retry_delays_are_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 0..12 {
            let delay = policy.delay(attempt);
            assert_eq!(delay, policy.delay(attempt), "same attempt, same pause");
            assert!(delay <= policy.max_delay);
            assert!(delay >= policy.base_delay / 2, "jitter floor is half the exponential step");
        }
        // Different seeds desynchronise.
        let other = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        assert_ne!(policy.delay(3), other.delay(3));
    }

    #[test]
    fn transport_errors_only_retry_statistics_safe_requests() {
        let io = || ServeError::Io(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "x"));
        assert!(transport_retryable(&io(), &Request::Flush { session: 1 }));
        assert!(transport_retryable(&io(), &Request::Metrics));
        assert!(!transport_retryable(&io(), &Request::Write { session: 1, records: vec![] }));
        assert!(!transport_retryable(&io(), &Request::Close { session: 1 }));
        assert!(!transport_retryable(&ServeError::UnknownSession(1), &Request::Metrics));
    }
}
