//! The service's error type.

use std::fmt;
use wlcrc_store::WireError;

/// Why a serve-layer operation failed.
///
/// Backpressure is deliberately **not** an error: an overloaded server
/// answers [`Response::Busy`](crate::protocol::Response::Busy) — a normal
/// protocol outcome carrying the number of records it did accept — so a
/// client can distinguish "slow down and resubmit" from "this request can
/// never succeed". `ServeError` covers the latter.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O error on the listener or a connection.
    Io(std::io::Error),
    /// A frame's payload could not be decoded as a wire value.
    Wire(WireError),
    /// A frame decoded but violated the protocol (unknown request name,
    /// missing field, bad version byte, oversized frame, ...).
    Protocol(String),
    /// A request referenced a session id the server does not hold.
    UnknownSession(u64),
    /// A session could not be opened (unknown scheme label, invalid
    /// configuration).
    Open(String),
    /// A server configuration under which the server cannot make progress
    /// (see [`ServerConfig::validate`](crate::server::ServerConfig::validate)).
    Config(String),
    /// The peer answered a request with a protocol-level `Error` response;
    /// the payload is the server's message.
    Remote(String),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "serve i/o error: {err}"),
            ServeError::Wire(err) => write!(f, "serve frame payload: {err}"),
            ServeError::Protocol(msg) => write!(f, "serve protocol violation: {msg}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session id {id}"),
            ServeError::Open(msg) => write!(f, "session open rejected: {msg}"),
            ServeError::Config(msg) => write!(f, "server config rejected: {msg}"),
            ServeError::Remote(msg) => write!(f, "server reported: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(err) => Some(err),
            ServeError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> ServeError {
        ServeError::Io(err)
    }
}

impl From<WireError> for ServeError {
    fn from(err: WireError) -> ServeError {
        ServeError::Wire(err)
    }
}

impl From<serde::de::Error> for ServeError {
    fn from(err: serde::de::Error) -> ServeError {
        ServeError::Protocol(err.message().to_string())
    }
}
