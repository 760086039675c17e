//! Network block service over `decluster-store`: continuous operation,
//! now with actual concurrent clients.
//!
//! The paper's thesis is that a declustered array keeps serving users
//! at acceptable performance *while* disks fail and rebuild. This crate
//! is where that claim meets traffic: a long-running TCP server
//! ([`Server`]) wraps one shared [`decluster_store::BlockStore`] behind
//! a compact length-prefixed binary protocol ([`protocol`]) with
//! sessions that outlive connections, per-request deadlines, and
//! admission control — so an operator can fail a disk, install a
//! replacement, and rebuild online over admin RPCs while data requests
//! keep flowing, and every client sees typed degradation
//! ([`protocol::Status`]) instead of hangs or dropped connections.
//!
//! [`Client`] is the matching fault-tolerant synchronous client:
//! reconnect with capped jittered backoff, session resumption, and safe
//! re-issue of interrupted requests (the server's per-session replay
//! cache makes even non-idempotent admin retries exact-once in effect).
//!
//! The wire protocol, session/deadline/admission state machines, and
//! drain-on-shutdown semantics are documented in `DESIGN.md` §13.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, ClientConfig, ClientError, ClientResult};
pub use protocol::{Opcode, Status};
pub use server::{Server, ServerConfig};
