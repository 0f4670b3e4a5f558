//! The framed wire protocol between `wlcrc-serve` and its clients.
//!
//! Every message is one **frame**:
//!
//! ```text
//! +----------------+---------+---------------------------+
//! | length: u32 LE | version | wire::encode(Value) bytes |
//! +----------------+---------+---------------------------+
//! ```
//!
//! `length` counts the version byte plus the payload, `version` is
//! [`PROTOCOL_VERSION`], and the payload is one [`serde::Value`] tree in the
//! store's tagged wire encoding ([`wlcrc_store::wire`]) — the same
//! corruption-tolerant, bit-exact-`f64` format the result store persists, so
//! statistics travel over the socket byte-identically to how they land on
//! disk. Requests and responses are `Value::Record`s dispatched by record
//! name; unknown names are a protocol error, which keeps the format open to
//! extension without a version bump. A frame goes out in one `write_all`.
//!
//! `Write` is the one request sent at volume, so its records do not travel
//! as a value tree: its `records` field is one `Value::Bytes` block of
//! fixed [`PACKED_RECORD_BYTES`]-byte records, each 17 little-endian
//! `u64`s — `address`, the eight words of `old`, the eight words of `new`.
//! A block whose length is not a whole number of records, or a `records`
//! field that is not a byte block (version 1 sent a sequence of record
//! values), is a protocol error.
//!
//! Frames are capped at [`MAX_FRAME_BYTES`]; a peer announcing a larger
//! frame is rejected before any allocation, mirroring the wire decoder's
//! own corruption tolerance.

use crate::error::ServeError;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use wlcrc_memsim::{SchemeStats, SimulationOptions};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::LINE_WORDS;
use wlcrc_store::wire;
use wlcrc_trace::WriteRecord;

/// Version byte carried by every frame; bump on incompatible changes to the
/// request/response schema (adding new record names does not require one).
/// Version 2 packs a `Write`'s records into one byte block.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on one frame's encoded size (version byte + payload).
/// Generous for real batches — a `WriteRecord` packs into
/// [`PACKED_RECORD_BYTES`] = 136 bytes, so a 4 MiB frame holds >30k
/// records — while bounding what a malicious or corrupt peer can make the
/// server allocate.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Size of one packed [`WriteRecord`] in a `Write` body: 17 little-endian
/// `u64`s (`address`, `old.words()`, `new.words()`).
pub const PACKED_RECORD_BYTES: usize = 8 * (1 + 2 * LINE_WORDS);

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session: a live simulator owning one codec instance.
    Open {
        /// Scheme label from the standard registry (e.g. `"WLCRC-16"`).
        scheme: String,
        /// Workload label stamped into the session's statistics.
        workload: String,
        /// Device/organisation configuration of the simulated memory.
        config: PcmConfig,
        /// Simulation options; `options.seed` drives the per-bank RNG
        /// streams exactly as in a batch run.
        options: SimulationOptions,
    },
    /// Appends write records to a session's bank queues. May be partially
    /// accepted — see [`Response::Busy`].
    Write {
        /// Session to write into.
        session: u64,
        /// Records, in stream order; on the wire one packed byte block
        /// (see the module docs).
        records: Vec<WriteRecord>,
    },
    /// Blocks until everything queued so far is simulated.
    Flush {
        /// Session to drain.
        session: u64,
    },
    /// Snapshots the session's aggregated statistics (drains queues first so
    /// the snapshot covers every accepted record).
    Stats {
        /// Session to snapshot.
        session: u64,
    },
    /// Drains, returns final statistics and discards the session.
    Close {
        /// Session to close.
        session: u64,
    },
    /// Renders the server-wide metrics as plain scrape text.
    Metrics,
    /// Asks the server to stop accepting connections and exit its serve
    /// loop once in-flight connections finish.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session was opened under this id.
    Opened {
        /// Identifier for all subsequent requests on this session.
        session: u64,
    },
    /// All records of the `Write` were accepted.
    Accepted {
        /// Number of records accepted (the full batch).
        accepted: u64,
        /// Session queue depth after accepting, in records.
        queued: u64,
    },
    /// Backpressure: only a prefix of the batch fit in the bank queues.
    /// Nothing is dropped — the client owns records `accepted..` and must
    /// resubmit them after the server drains.
    Busy {
        /// Number of records accepted before a full lane was hit.
        accepted: u64,
        /// Session queue depth, in records.
        queued: u64,
    },
    /// The flush completed; every accepted record is now simulated.
    Flushed {
        /// Total records simulated by this session so far.
        writes: u64,
    },
    /// Statistics snapshot.
    Stats {
        /// Aggregated statistics over every record simulated so far —
        /// byte-identical to a direct batch run over the same records.
        stats: SchemeStats,
        /// Whether the session is currently in degraded mode.
        degraded: bool,
    },
    /// Final statistics; the session id is now invalid.
    Closed {
        /// Final aggregated statistics.
        stats: SchemeStats,
        /// `Some(true)` if a result store served this session's final stats
        /// from a previous run, `Some(false)` on a store miss, `None` when
        /// the server runs store-less or the session entered degraded mode:
        /// its statistics then differ from a clean run, so its close
        /// neither reads nor writes the store.
        store_hit: Option<bool>,
    },
    /// Plain-text metrics in Prometheus exposition style.
    MetricsText {
        /// The scrape body.
        text: String,
    },
    /// The request failed; the session (if any) is unchanged.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledges `Shutdown`.
    ShuttingDown,
}

impl Request {
    /// Encodes the request as a wire value.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Open { scheme, workload, config, options } => Value::record(
                "Open",
                vec![
                    ("scheme", scheme.to_value()),
                    ("workload", workload.to_value()),
                    ("config", config.to_value()),
                    ("options", options.to_value()),
                ],
            ),
            Request::Write { session, records } => {
                let mut block = Vec::with_capacity(records.len() * PACKED_RECORD_BYTES);
                for record in records {
                    block.extend_from_slice(&pack_record(record));
                }
                Value::record(
                    "Write",
                    vec![("session", session.to_value()), ("records", Value::Bytes(block))],
                )
            }
            Request::Flush { session } => {
                Value::record("Flush", vec![("session", session.to_value())])
            }
            Request::Stats { session } => {
                Value::record("Stats", vec![("session", session.to_value())])
            }
            Request::Close { session } => {
                Value::record("Close", vec![("session", session.to_value())])
            }
            Request::Metrics => Value::record("Metrics", vec![]),
            Request::Shutdown => Value::record("Shutdown", vec![]),
        }
    }

    /// Decodes a request from a wire value, dispatching on the record name.
    pub fn from_value(value: &Value) -> Result<Request, ServeError> {
        let Value::Record { name, .. } = value else {
            return Err(ServeError::Protocol(format!(
                "request must be a record, got {}",
                value.kind()
            )));
        };
        let request = match name.as_str() {
            "Open" => {
                let fields = value.as_record("Open")?;
                Request::Open {
                    scheme: fields.field("scheme")?,
                    workload: fields.field("workload")?,
                    config: fields.field("config")?,
                    options: fields.field("options")?,
                }
            }
            "Write" => {
                let fields = value.as_record("Write")?;
                let Some(Value::Bytes(block)) = fields.raw("records") else {
                    return Err(ServeError::Protocol(
                        "Write records must be one packed byte block".to_string(),
                    ));
                };
                Request::Write {
                    session: fields.field("session")?,
                    records: unpack_records(block)?,
                }
            }
            "Flush" => Request::Flush { session: value.as_record("Flush")?.field("session")? },
            "Stats" => Request::Stats { session: value.as_record("Stats")?.field("session")? },
            "Close" => Request::Close { session: value.as_record("Close")?.field("session")? },
            "Metrics" => Request::Metrics,
            "Shutdown" => Request::Shutdown,
            other => return Err(ServeError::Protocol(format!("unknown request {other:?}"))),
        };
        Ok(request)
    }
}

impl Response {
    /// Encodes the response as a wire value.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Opened { session } => {
                Value::record("Opened", vec![("session", session.to_value())])
            }
            Response::Accepted { accepted, queued } => Value::record(
                "Accepted",
                vec![("accepted", accepted.to_value()), ("queued", queued.to_value())],
            ),
            Response::Busy { accepted, queued } => Value::record(
                "Busy",
                vec![("accepted", accepted.to_value()), ("queued", queued.to_value())],
            ),
            Response::Flushed { writes } => {
                Value::record("Flushed", vec![("writes", writes.to_value())])
            }
            Response::Stats { stats, degraded } => Value::record(
                "Stats",
                vec![("stats", stats.to_value()), ("degraded", degraded.to_value())],
            ),
            Response::Closed { stats, store_hit } => Value::record(
                "Closed",
                vec![("stats", stats.to_value()), ("store_hit", store_hit.to_value())],
            ),
            Response::MetricsText { text } => {
                Value::record("MetricsText", vec![("text", text.to_value())])
            }
            Response::Error { message } => {
                Value::record("Error", vec![("message", message.to_value())])
            }
            Response::ShuttingDown => Value::record("ShuttingDown", vec![]),
        }
    }

    /// Decodes a response from a wire value, dispatching on the record name.
    pub fn from_value(value: &Value) -> Result<Response, ServeError> {
        let Value::Record { name, .. } = value else {
            return Err(ServeError::Protocol(format!(
                "response must be a record, got {}",
                value.kind()
            )));
        };
        let response = match name.as_str() {
            "Opened" => Response::Opened { session: value.as_record("Opened")?.field("session")? },
            "Accepted" => {
                let fields = value.as_record("Accepted")?;
                Response::Accepted {
                    accepted: fields.field("accepted")?,
                    queued: fields.field("queued")?,
                }
            }
            "Busy" => {
                let fields = value.as_record("Busy")?;
                Response::Busy {
                    accepted: fields.field("accepted")?,
                    queued: fields.field("queued")?,
                }
            }
            "Flushed" => Response::Flushed { writes: value.as_record("Flushed")?.field("writes")? },
            "Stats" => {
                let fields = value.as_record("Stats")?;
                Response::Stats {
                    stats: fields.field("stats")?,
                    degraded: fields.field("degraded")?,
                }
            }
            "Closed" => {
                let fields = value.as_record("Closed")?;
                Response::Closed {
                    stats: fields.field("stats")?,
                    store_hit: fields.field("store_hit")?,
                }
            }
            "MetricsText" => {
                Response::MetricsText { text: value.as_record("MetricsText")?.field("text")? }
            }
            "Error" => Response::Error { message: value.as_record("Error")?.field("message")? },
            "ShuttingDown" => Response::ShuttingDown,
            other => return Err(ServeError::Protocol(format!("unknown response {other:?}"))),
        };
        Ok(response)
    }
}

/// One record in its packed `Write` form: `address`, then the words of
/// `old`, then those of `new`, each a little-endian `u64`.
pub(crate) fn pack_record(record: &WriteRecord) -> [u8; PACKED_RECORD_BYTES] {
    let words =
        std::iter::once(&record.address).chain(record.old.words()).chain(record.new.words());
    let mut packed = [0u8; PACKED_RECORD_BYTES];
    for (bytes, word) in packed.chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    packed
}

/// The records of a packed `Write` block; a block that is not a whole
/// number of [`PACKED_RECORD_BYTES`]-byte records is a protocol error.
fn unpack_records(block: &[u8]) -> Result<Vec<WriteRecord>, ServeError> {
    if !block.len().is_multiple_of(PACKED_RECORD_BYTES) {
        return Err(ServeError::Protocol(format!(
            "a Write block of {} bytes is not a whole number of {PACKED_RECORD_BYTES}-byte records",
            block.len()
        )));
    }
    let records = block.chunks_exact(PACKED_RECORD_BYTES).map(|packed| {
        let word =
            |i: usize| u64::from_le_bytes(packed[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let line = |first: usize| MemoryLine::from_words(std::array::from_fn(|i| word(first + i)));
        WriteRecord::new(word(0), line(1), line(1 + LINE_WORDS))
    });
    Ok(records.collect())
}

/// Writes one frame carrying `value` to `writer`, in one `write_all`.
pub fn write_frame(writer: &mut impl Write, value: &Value) -> Result<(), ServeError> {
    let payload = wire::encode(value);
    let length = payload.len() + 1;
    if length > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!("frame of {length} bytes exceeds cap")));
    }
    let mut frame = Vec::with_capacity(4 + length);
    frame.extend_from_slice(&(length as u32).to_le_bytes());
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(&payload);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from `reader`; `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between messages).
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Value>, ServeError> {
    let mut header = [0u8; 4];
    match reader.read_exact(&mut header) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(err) => return Err(err.into()),
    }
    let length = u32::from_le_bytes(header) as usize;
    if length == 0 {
        return Err(ServeError::Protocol("zero-length frame".to_string()));
    }
    if length > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!("frame of {length} bytes exceeds cap")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    if body[0] != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "protocol version {} (this build speaks {PROTOCOL_VERSION})",
            body[0]
        )));
    }
    Ok(Some(wire::decode(&body[1..])?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlcrc_pcm::line::MemoryLine;

    fn roundtrip_request(request: Request) {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &request.to_value()).unwrap();
        let value = read_frame(&mut &buffer[..]).unwrap().expect("one frame");
        assert_eq!(Request::from_value(&value).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &response.to_value()).unwrap();
        let value = read_frame(&mut &buffer[..]).unwrap().expect("one frame");
        assert_eq!(Response::from_value(&value).unwrap(), response);
    }

    #[test]
    fn requests_round_trip_through_frames() {
        roundtrip_request(Request::Open {
            scheme: "WLCRC-16".to_string(),
            workload: "gcc".to_string(),
            config: PcmConfig::table_ii(),
            options: SimulationOptions { seed: 7, ..SimulationOptions::default() },
        });
        roundtrip_request(Request::Write {
            session: 3,
            records: vec![WriteRecord::new(
                64,
                MemoryLine::from_words([1; 8]),
                MemoryLine::from_words([2; 8]),
            )],
        });
        roundtrip_request(Request::Flush { session: 3 });
        roundtrip_request(Request::Stats { session: 3 });
        roundtrip_request(Request::Close { session: 3 });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Shutdown);
    }

    /// `count` records whose 17 words all differ, so a misplaced word shows.
    fn distinct_records(count: u64) -> Vec<WriteRecord> {
        let word = |i: u64, w: u64| ((i << 8) | w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0..count)
            .map(|i| {
                let old = MemoryLine::from_words(std::array::from_fn(|w| word(i, w as u64)));
                let new = MemoryLine::from_words(std::array::from_fn(|w| word(i, 8 + w as u64)));
                WriteRecord::new(64 * i, old, new)
            })
            .collect()
    }

    fn frame_len(request: &Request) -> usize {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &request.to_value()).unwrap();
        buffer.len()
    }

    #[test]
    fn writes_round_trip_at_136_bytes_per_record() {
        let empty = frame_len(&Request::Write { session: 3, records: vec![] });
        for count in [0, 1, 4096] {
            let request = Request::Write { session: 3, records: distinct_records(count) };
            assert_eq!(frame_len(&request) - empty, count as usize * 136);
            roundtrip_request(request);
        }
        // The layout: `address`, then `old`'s words, then `new`'s.
        let record = distinct_records(2)[1];
        let packed = pack_record(&record);
        assert_eq!(packed[..8], record.address.to_le_bytes());
        assert_eq!(packed[8..16], record.old.words()[0].to_le_bytes());
        assert_eq!(packed[128..], record.new.words()[7].to_le_bytes());
    }

    #[test]
    fn version_1_and_ragged_write_bodies_are_refused() {
        let write = |records: Value| {
            Request::from_value(&Value::record(
                "Write",
                vec![("session", Value::U64(3)), ("records", records)],
            ))
        };
        let v1 = write(distinct_records(2).to_value());
        assert!(matches!(v1, Err(ServeError::Protocol(_))), "a v1 body: {v1:?}");
        for len in [135, 137] {
            let ragged = write(Value::Bytes(vec![0; len]));
            assert!(matches!(ragged, Err(ServeError::Protocol(_))), "{len} bytes: {ragged:?}");
        }
        let missing =
            Request::from_value(&Value::record("Write", vec![("session", Value::U64(3))]));
        assert!(matches!(missing, Err(ServeError::Protocol(_))));
    }

    #[test]
    fn responses_round_trip_through_frames() {
        roundtrip_response(Response::Opened { session: 9 });
        roundtrip_response(Response::Accepted { accepted: 128, queued: 640 });
        roundtrip_response(Response::Busy { accepted: 17, queued: 4096 });
        roundtrip_response(Response::Flushed { writes: 10_000 });
        let mut stats = SchemeStats::new("WLCRC-16", "gcc");
        stats.writes = 5;
        stats.data_energy_pj = 0.1 + 0.2; // a non-representable sum must survive bit-exactly
        roundtrip_response(Response::Stats { stats: stats.clone(), degraded: true });
        roundtrip_response(Response::Closed { stats, store_hit: Some(false) });
        roundtrip_response(Response::MetricsText { text: "wlcrc_serve_sessions 1\n".to_string() });
        roundtrip_response(Response::Error { message: "no".to_string() });
        roundtrip_response(Response::ShuttingDown);
    }

    #[test]
    fn oversized_and_garbled_frames_are_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut &buffer[..]), Err(ServeError::Protocol(_))));

        let mut wrong_version = Vec::new();
        write_frame(&mut wrong_version, &Request::Metrics.to_value()).unwrap();
        wrong_version[4] = PROTOCOL_VERSION + 1;
        assert!(matches!(read_frame(&mut &wrong_version[..]), Err(ServeError::Protocol(_))));

        // Truncated mid-payload: an I/O error, not a panic or hang.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &Request::Metrics.to_value()).unwrap();
        truncated.truncate(truncated.len() - 1);
        assert!(matches!(read_frame(&mut &truncated[..]), Err(ServeError::Io(_))));
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
    }
}
