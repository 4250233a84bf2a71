//! Segment-level TCP connection model with a TLS overlay.
//!
//! Every TCP connection in the simulation is produced by
//! [`simulate_segments`]: given a [`Dialogue`] (the application-level
//! message exchange), a [`PathParams`] (RTTs, loss, access rate) and
//! [`TcpParams`] (MSS, initial windows), it emits the segments that cross
//! the vantage-point probe, in probe order, as compact
//! [`nettrace::Segment`]s. [`simulate_faulty`] and [`simulate`] expand the
//! same run into self-describing packets. The model implements the TCP mechanics the paper's performance
//! section depends on:
//!
//! * 3-way handshake; RTT measurable from SYN/SYN-ACK at the probe,
//! * slow start from a configurable initial window (the paper-era servers
//!   used a small initial window that cost one extra RTT inside the TLS
//!   handshake; Dropbox tuned it after v1.4.0 — both are reproduced),
//! * congestion avoidance, fast retransmit and RTO with slow-start restart,
//! * slow-start-after-idle (connections reused after an idle gap restart
//!   from the initial window),
//! * delayed ACKs (one ACK per two data segments),
//! * PSH set on the last segment of every application write — the property
//!   Appendix A's chunk-counting method relies on,
//! * receiver-window and access-rate (ADSL/FTTH) throughput caps,
//! * orderly FIN, client RST, and server 60 s idle-timeout closes.
//!
//! Connections are independent: each is simulated standalone as a pure
//! function of its inputs and its RNG fork, which keeps the 42-day
//! simulation embarrassingly parallel and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod dialogue;
pub mod params;
pub mod tls;

pub use conn::{simulate, simulate_faulty, simulate_segments, ConnSummary};
pub use dialogue::{CloseMode, Dialogue, Direction, Message, Write};
pub use params::{AccessLink, PathParams, TcpParams};
