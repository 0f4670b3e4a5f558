//! `wlcrc-serve`: a long-lived memory-service front-end over the simulator.
//!
//! Everything else in the reproduction is batch replay; this crate turns the
//! per-bank lane core ([`wlcrc_memsim::SimulatorSession`]) into a service:
//! **sessions** (a live simulator + codec behind a [`u64`] id) driven
//! through a small framed wire protocol ([`protocol`]) over blocking TCP or
//! Unix-domain sockets, with a worker pool draining bounded per-bank queues
//! in the background ([`server`]), explicit backpressure (`Busy`, never
//! unbounded growth, never a silent drop), graceful degradation under load,
//! and live plain-text metrics ([`metrics`]). The client side ([`client`])
//! is one [`ServeClient`] over any [`Exchange`] transport: a TCP or
//! Unix-domain stream, or the reconnecting TCP transport of [`RetryClient`].
//!
//! The determinism contract of the batch engine carries over verbatim: the
//! statistics a session reports are **byte-identical** to running
//! [`wlcrc_memsim::Simulator`] directly over the same accepted records —
//! whatever the connection count, worker count, batch boundaries or
//! `Busy`/retry interleavings. The soak test pins this end to end over a
//! live socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{
    Exchange, RetryClient, RetryPolicy, ServeClient, WriteReport, FAULT_CLIENT_FLAKY,
};
pub use error::ServeError;
pub use metrics::scrape_value;
pub use protocol::{Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{RunningServer, Server, ServerConfig, FAULT_REQUEST_SLOW};
