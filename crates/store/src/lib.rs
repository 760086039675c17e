//! A file-backed declustered block store: the layout math the simulator
//! evaluates analytically, driving a real I/O engine.
//!
//! The rest of the workspace *models* the paper — block designs,
//! declustered layouts, timing simulation, Monte Carlo campaigns. This
//! crate *runs* it: one backing file per disk, a superblock naming the
//! layout, and a [`BlockStore`] that routes a flat block address space
//! through [`decluster_core::layout::ArrayMapping`] with
//! read-modify-write parity maintenance, on-the-fly degraded
//! reconstruction, online rebuild to a spare (with per-disk I/O
//! counters that surface the paper's α = (G−1)/(C−1) rebuild read
//! fraction on real files), and a persistent write-intent bitmap giving
//! dirty-region-log crash recovery.
//!
//! The store's byte semantics are deliberately identical to the
//! in-memory oracle `decluster_array::data::DataArray`, so a
//! differential harness can replay one workload into both and demand
//! byte-identical final contents — see `tests/differential.rs`.

#![warn(missing_docs)]

pub mod backend;
mod bitmap;
mod buffer;
pub mod checksum;
mod consistency;
mod error;
mod health;
mod io;
mod lifecycle;
pub mod parity;
mod rebuild;
mod repair;
mod stats;
mod store;
mod superblock;

pub use backend::{
    DiskBackend, FaultPlan, FaultyBackend, FileBackend, InjectedFaults, LatencyProfile,
};
pub use error::{MediaKind, Result, StoreError};
pub use health::FaultCounters;
pub use lifecycle::BackendFactory;
pub use rebuild::RebuildReport;
pub use repair::ScrubReport;
pub use stats::{DiskStats, StoreStats};
pub use store::{BlockStore, DiskCounters};
pub use superblock::{LayoutSpec, BLOCK_BYTES, SUPERBLOCK_BYTES};

/// Locks a mutex, treating poisoning as recoverable: the store's
/// invariants live in the on-disk state, not the guarded values, so a
/// panicking peer doesn't invalidate the data behind the lock.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
