//! The disk backend boundary: everything the store does to a backing
//! file goes through [`DiskBackend`], so a hostile disk can be slotted
//! in underneath the real I/O engine.
//!
//! [`FileBackend`] is the production path — a thin positional-I/O
//! wrapper over one `std::fs::File`. [`FaultyBackend`] wraps any
//! backend with a seeded, externally steerable [`FaultPlan`] that
//! injects the sick-disk behaviours the paper's continuous-operation
//! story has to survive:
//!
//! * **media errors** — reads of a sector return `EIO`, either
//!   transient (one failure, then clean — the case bounded
//!   retry-with-backoff absorbs) or persistent (failing until the
//!   sector is rewritten — the case read-repair clears);
//! * **silent corruption** — a write's payload is bit-flipped on its
//!   way to the platter, detected later by the per-unit checksum;
//! * **torn writes** — only a prefix of the payload lands, reported as
//!   success (the crash-consistency hazard);
//! * **limping** — a seeded, jittered latency distribution
//!   ([`LatencyProfile`]: base + uniform jitter + occasional bursts) is
//!   added to every read, the tail-latency hazard hedged reads race
//!   against. A distribution rather than one constant, so limping-disk
//!   tests exercise the EWMA against realistic spread and burstiness
//!   instead of a magic number.
//!
//! Injections never touch bytes below [`FaultPlan::set_protect_below`]
//! (the superblock and checksum region), and the plan counts every
//! episode it creates so a torture harness can demand that the store
//! accounted for each one.

use crate::pool::lock;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Positional I/O on one disk's backing store.
///
/// All methods take `&self`; implementations must be safe to drive
/// from many threads at once (the store's worker pools do).
pub trait DiskBackend: Send + Sync + std::fmt::Debug {
    /// Fills `buf` from byte position `pos`.
    ///
    /// # Errors
    ///
    /// Any `io::Error`; a short read surfaces as `UnexpectedEof`.
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()>;

    /// Writes all of `data` at byte position `pos`.
    ///
    /// # Errors
    ///
    /// Any `io::Error`.
    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()>;

    /// Truncates or extends the backing store to `len` bytes.
    ///
    /// # Errors
    ///
    /// Any `io::Error`.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Flushes written data to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Any `io::Error`.
    fn sync(&self) -> io::Result<()>;
}

/// The production backend: positional I/O straight onto a file.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
}

impl FileBackend {
    /// Wraps an already-open file.
    pub fn new(file: File) -> FileBackend {
        FileBackend { file }
    }
}

/// Drives a positional read primitive until `buf` is full: short reads
/// continue from where they stopped, `EINTR` is retried in place, and
/// only end-of-file (a zero-byte return) becomes `UnexpectedEof`.
///
/// Under socket-driven concurrency the process takes signals and the
/// kernel is free to return partial counts — neither is a media error,
/// and treating them as one would send a healthy disk into read-repair.
pub(crate) fn read_full_at<F>(mut read_at: F, mut buf: &mut [u8], mut pos: u64) -> io::Result<()>
where
    F: FnMut(&mut [u8], u64) -> io::Result<usize>,
{
    while !buf.is_empty() {
        match read_at(buf, pos) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read past end of backing file",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                pos += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The write-side twin of [`read_full_at`]: loops on short writes,
/// retries `EINTR`, and maps a zero-byte return to `WriteZero`.
pub(crate) fn write_full_at<F>(mut write_at: F, mut data: &[u8], mut pos: u64) -> io::Result<()>
where
    F: FnMut(&[u8], u64) -> io::Result<usize>,
{
    while !data.is_empty() {
        match write_at(data, pos) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "backing file accepted zero bytes",
                ))
            }
            Ok(n) => {
                data = &data[n..];
                pos += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl DiskBackend for FileBackend {
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
        read_full_at(|b, p| FileExt::read_at(&self.file, b, p), buf, pos)
    }

    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        write_full_at(|d, p| FileExt::write_at(&self.file, d, p), data, pos)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Cumulative injection counters of one [`FaultPlan`] — the "injected"
/// side of the torture harness's accounting ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Transient `EIO` episodes minted (each fails exactly one read).
    pub transient_eio: u64,
    /// Persistent bad sectors minted (failing until rewritten).
    pub persistent_eio: u64,
    /// Writes whose payload was silently bit-flipped.
    pub corruptions: u64,
    /// Writes of which only a prefix landed (reported as success).
    pub torn_writes: u64,
}

impl InjectedFaults {
    /// Every checksum/EIO fault injected (torn writes are crash
    /// artifacts, accounted by recovery rather than read-repair).
    pub fn total_data_faults(&self) -> u64 {
        self.transient_eio + self.persistent_eio + self.corruptions
    }
}

/// The injected read-latency distribution of a limping disk.
///
/// Every read sleeps `base_us` plus a uniform sample from
/// `[0, jitter_us]`; with probability `burst_prob` the read additionally
/// suffers a `burst_us` stall — the bursty-slowness mode real sick disks
/// show (relocations, internal retries). Samples come from the plan's
/// seeded RNG, so a fixed seed reproduces the exact latency sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyProfile {
    /// Minimum added latency per read, microseconds.
    pub base_us: u64,
    /// Width of the uniform jitter added on top, microseconds.
    pub jitter_us: u64,
    /// Extra stall length of a burst, microseconds.
    pub burst_us: u64,
    /// Per-read probability of a burst.
    pub burst_prob: f64,
}

impl LatencyProfile {
    /// A quiet profile: no latency injected.
    pub fn healthy() -> LatencyProfile {
        LatencyProfile::default()
    }

    /// A jittered limp: `base_us` plus up to `jitter_us` of uniform
    /// spread per read, no bursts.
    pub fn limping(base_us: u64, jitter_us: u64) -> LatencyProfile {
        LatencyProfile {
            base_us,
            jitter_us,
            ..LatencyProfile::default()
        }
    }

    /// Adds bursty stalls to a profile: probability `prob` of an extra
    /// `burst_us` stall per read.
    pub fn with_bursts(mut self, burst_us: u64, prob: f64) -> LatencyProfile {
        self.burst_us = burst_us;
        self.burst_prob = prob;
        self
    }

    /// Whether this profile injects anything at all.
    pub fn is_quiet(&self) -> bool {
        self.base_us == 0 && self.jitter_us == 0 && (self.burst_prob <= 0.0 || self.burst_us == 0)
    }

    /// Mean injected latency, microseconds — what the EWMA converges
    /// toward, so tests can assert against the distribution instead of
    /// one constant.
    pub fn mean_us(&self) -> f64 {
        self.base_us as f64
            + self.jitter_us as f64 / 2.0
            + self.burst_us as f64 * self.burst_prob.clamp(0.0, 1.0)
    }
}

#[derive(Debug, Default)]
struct PlanState {
    rng: u64,
    /// Injected read-latency distribution (the limping disk).
    latency: LatencyProfile,
    /// Probability a data-region read mints a transient EIO episode.
    transient_read_eio: f64,
    /// Probability a data-region read mints a persistent bad sector.
    persistent_read_eio: f64,
    /// Byte positions whose reads fail until a write covers them.
    bad_sectors: HashSet<u64>,
    /// Positions that just failed transiently: the next few reads pass
    /// clean (no re-mint), so a bounded retry deterministically
    /// succeeds and each minted episode is detected exactly once.
    transient_grace: HashMap<u64, u32>,
    /// Positions whose *next* covering write gets one byte flipped.
    armed_corruptions: HashSet<u64>,
    /// Positions whose *next* covering write is torn to a prefix.
    armed_torn: HashSet<u64>,
}

/// Reads a transiently-failed position passes clean before the
/// probabilistic minting applies to it again — must exceed the store's
/// retry bound so a retry never re-mints mid-episode.
const TRANSIENT_GRACE_READS: u32 = 8;

impl PlanState {
    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Draws one read's injected latency from the profile.
    fn sample_latency_us(&mut self) -> u64 {
        let p = self.latency;
        if p.is_quiet() {
            return 0;
        }
        let mut us = p.base_us;
        if p.jitter_us > 0 {
            us += self.next_u64() % (p.jitter_us + 1);
        }
        if p.burst_us > 0 && self.chance(p.burst_prob) {
            us += p.burst_us;
        }
        us
    }
}

/// What a write should suffer, decided before it is issued.
enum WriteFault {
    None,
    /// Flip one bit of the byte at this index into the payload.
    Corrupt(usize),
    /// Persist only the first `keep` bytes, report success.
    Torn(usize),
}

/// A seeded, steerable fault schedule shared with a [`FaultyBackend`].
///
/// The harness keeps the `Arc` and retunes rates or arms targeted
/// faults between campaign phases; the backend consults it on every
/// operation. All methods take `&self`.
#[derive(Debug)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
    /// Injections only apply at byte positions `>= protect_below`,
    /// keeping superblocks and the checksum region out of scope.
    protect_below: AtomicU64,
    transient_eio: AtomicU64,
    persistent_eio: AtomicU64,
    corruptions: AtomicU64,
    torn_writes: AtomicU64,
}

impl FaultPlan {
    /// A quiet plan (no injections) with the given RNG seed.
    pub fn new(seed: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            state: Mutex::new(PlanState {
                rng: seed | 1,
                ..PlanState::default()
            }),
            protect_below: AtomicU64::new(0),
            transient_eio: AtomicU64::new(0),
            persistent_eio: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
        })
    }

    /// Excludes byte positions below `pos` from every injection.
    pub fn set_protect_below(&self, pos: u64) {
        self.protect_below.store(pos, Ordering::Relaxed);
    }

    /// Sets the per-read probability of a transient EIO episode.
    pub fn set_transient_read_eio(&self, p: f64) {
        lock(&self.state).transient_read_eio = p;
    }

    /// Sets the per-read probability of minting a persistent bad sector.
    pub fn set_persistent_read_eio(&self, p: f64) {
        lock(&self.state).persistent_read_eio = p;
    }

    /// Sets the injected read-latency distribution
    /// ([`LatencyProfile::healthy`] stops injecting).
    pub fn set_read_latency(&self, profile: LatencyProfile) {
        lock(&self.state).latency = profile;
    }

    /// Marks the sector at byte position `pos` bad now: every read
    /// covering it fails with `EIO` until a write covers it.
    pub fn add_bad_sector(&self, pos: u64) {
        if lock(&self.state).bad_sectors.insert(pos) {
            self.persistent_eio.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Arms a one-shot silent corruption: the next write covering byte
    /// position `pos` has one bit flipped in flight (and counted).
    pub fn arm_corruption(&self, pos: u64) {
        lock(&self.state).armed_corruptions.insert(pos);
    }

    /// Arms a one-shot torn write: the next write covering byte
    /// position `pos` persists only its first half, reporting success.
    pub fn arm_torn_write(&self, pos: u64) {
        lock(&self.state).armed_torn.insert(pos);
    }

    /// Stops all probabilistic injection and drops armed faults and
    /// latency; already-minted persistent bad sectors remain until
    /// rewritten.
    pub fn quiesce(&self) {
        let mut st = lock(&self.state);
        st.transient_read_eio = 0.0;
        st.persistent_read_eio = 0.0;
        st.armed_corruptions.clear();
        st.armed_torn.clear();
        st.latency = LatencyProfile::healthy();
    }

    /// Everything injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            transient_eio: self.transient_eio.load(Ordering::Relaxed),
            persistent_eio: self.persistent_eio.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
        }
    }

    /// Persistent bad sectors minted and not yet rewritten.
    pub fn bad_sectors_outstanding(&self) -> usize {
        lock(&self.state).bad_sectors.len()
    }

    /// Consulted before a read of `[pos, pos+len)`: applies the sampled
    /// latency, then returns the error to inject, if any.
    fn before_read(&self, pos: u64, len: usize) -> Option<io::Error> {
        // Sample under the lock, sleep outside it: a limping read must
        // not stall the plan for the hedge leg racing it.
        let latency_us = lock(&self.state).sample_latency_us();
        if latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(latency_us));
        }
        if pos < self.protect_below.load(Ordering::Relaxed) {
            return None;
        }
        let end = pos + len as u64;
        let mut st = lock(&self.state);
        if st.bad_sectors.iter().any(|&s| s >= pos && s < end) {
            return Some(eio("injected persistent media error"));
        }
        if let Some(grace) = st.transient_grace.get_mut(&pos) {
            *grace -= 1;
            if *grace == 0 {
                st.transient_grace.remove(&pos);
            }
            return None;
        }
        let persistent_rate = st.persistent_read_eio;
        if st.chance(persistent_rate) {
            st.bad_sectors.insert(pos);
            drop(st);
            self.persistent_eio.fetch_add(1, Ordering::Relaxed);
            return Some(eio("injected persistent media error"));
        }
        let transient_rate = st.transient_read_eio;
        if st.chance(transient_rate) {
            st.transient_grace.insert(pos, TRANSIENT_GRACE_READS);
            drop(st);
            self.transient_eio.fetch_add(1, Ordering::Relaxed);
            return Some(eio("injected transient media error"));
        }
        None
    }

    /// Consulted before a write of `[pos, pos+len)`: clears covered
    /// bad sectors (a write refreshes the medium) and decides what, if
    /// anything, to do to the payload.
    fn on_write(&self, pos: u64, len: usize) -> WriteFault {
        let end = pos + len as u64;
        let mut st = lock(&self.state);
        st.bad_sectors.retain(|&s| s < pos || s >= end);
        st.transient_grace.retain(|&s, _| s < pos || s >= end);
        if pos < self.protect_below.load(Ordering::Relaxed) {
            return WriteFault::None;
        }
        if let Some(&target) = st.armed_torn.iter().find(|&&s| s >= pos && s < end) {
            st.armed_torn.remove(&target);
            drop(st);
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            return WriteFault::Torn(len / 2);
        }
        if let Some(&target) = st.armed_corruptions.iter().find(|&&s| s >= pos && s < end) {
            st.armed_corruptions.remove(&target);
            let at = (target - pos) as usize;
            drop(st);
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            return WriteFault::Corrupt(at.min(len.saturating_sub(1)));
        }
        WriteFault::None
    }

    fn on_set_len(&self, len: u64) {
        let mut st = lock(&self.state);
        st.bad_sectors.retain(|&s| s < len);
        st.transient_grace.retain(|&s, _| s < len);
        if len == 0 {
            st.armed_corruptions.clear();
            st.armed_torn.clear();
        }
    }
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

/// A [`DiskBackend`] decorator injecting the faults its [`FaultPlan`]
/// schedules.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Box<dyn DiskBackend>,
    plan: Arc<FaultPlan>,
}

impl FaultyBackend {
    /// Wraps `inner`, consulting `plan` on every operation.
    pub fn new(inner: Box<dyn DiskBackend>, plan: Arc<FaultPlan>) -> FaultyBackend {
        FaultyBackend { inner, plan }
    }
}

impl DiskBackend for FaultyBackend {
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
        if let Some(err) = self.plan.before_read(pos, buf.len()) {
            return Err(err);
        }
        self.inner.read_at(buf, pos)
    }

    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        match self.plan.on_write(pos, data.len()) {
            WriteFault::None => self.inner.write_at(data, pos),
            WriteFault::Corrupt(at) => {
                let mut mangled = data.to_vec();
                mangled[at] ^= 0x40;
                self.inner.write_at(&mangled, pos)
            }
            WriteFault::Torn(keep) => self.inner.write_at(&data[..keep], pos),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.plan.on_set_len(len);
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct MemDisk {
        bytes: Mutex<Vec<u8>>,
    }

    impl DiskBackend for MemDisk {
        fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
            let bytes = lock(&self.bytes);
            let start = pos as usize;
            if start + buf.len() > bytes.len() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short"));
            }
            buf.copy_from_slice(&bytes[start..start + buf.len()]);
            Ok(())
        }

        fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
            let mut bytes = lock(&self.bytes);
            let end = pos as usize + data.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[pos as usize..end].copy_from_slice(data);
            Ok(())
        }

        fn set_len(&self, len: u64) -> io::Result<()> {
            lock(&self.bytes).resize(len as usize, 0);
            Ok(())
        }

        fn sync(&self) -> io::Result<()> {
            Ok(())
        }
    }

    fn faulty(seed: u64) -> (FaultyBackend, Arc<FaultPlan>) {
        let plan = FaultPlan::new(seed);
        (
            FaultyBackend::new(Box::new(MemDisk::default()), Arc::clone(&plan)),
            plan,
        )
    }

    #[test]
    fn persistent_bad_sector_fails_until_rewritten() {
        let (disk, plan) = faulty(1);
        disk.write_at(&[7u8; 64], 0).unwrap();
        plan.add_bad_sector(16);
        let mut buf = [0u8; 64];
        assert!(disk.read_at(&mut buf, 0).is_err());
        assert!(disk.read_at(&mut buf, 0).is_err(), "persists across reads");
        // A read not covering the sector is clean.
        disk.read_at(&mut buf[..16], 0).unwrap();
        // A covering write clears it.
        disk.write_at(&[9u8; 64], 0).unwrap();
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [9u8; 64]);
        assert_eq!(plan.injected().persistent_eio, 1);
        assert_eq!(plan.bad_sectors_outstanding(), 0);
    }

    #[test]
    fn transient_episode_fails_exactly_once() {
        let (disk, plan) = faulty(3);
        disk.write_at(&[1u8; 32], 0).unwrap();
        plan.set_transient_read_eio(1.0);
        let mut buf = [0u8; 32];
        assert!(disk.read_at(&mut buf, 0).is_err(), "episode minted");
        // Grace window: retries pass clean instead of re-minting.
        for _ in 0..TRANSIENT_GRACE_READS {
            disk.read_at(&mut buf, 0).unwrap();
        }
        assert_eq!(plan.injected().transient_eio, 1);
        // Grace exhausted: the next read mints a fresh episode.
        assert!(disk.read_at(&mut buf, 0).is_err());
        assert_eq!(plan.injected().transient_eio, 2);
    }

    #[test]
    fn armed_corruption_flips_one_bit_once() {
        let (disk, plan) = faulty(5);
        plan.arm_corruption(8);
        disk.write_at(&[0u8; 32], 0).unwrap();
        let mut buf = [0u8; 32];
        disk.read_at(&mut buf, 0).unwrap();
        let flipped: Vec<usize> = (0..32).filter(|&i| buf[i] != 0).collect();
        assert_eq!(flipped, vec![8], "exactly the armed byte differs");
        assert_eq!(buf[8], 0x40);
        // Disarmed: the next write is clean.
        disk.write_at(&[0u8; 32], 0).unwrap();
        disk.read_at(&mut buf, 0).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(plan.injected().corruptions, 1);
    }

    #[test]
    fn armed_torn_write_persists_a_prefix_silently() {
        let (disk, plan) = faulty(7);
        disk.write_at(&[0xAAu8; 64], 0).unwrap();
        plan.arm_torn_write(0);
        disk.write_at(&[0xBBu8; 64], 0).unwrap(); // reported ok
        let mut buf = [0u8; 64];
        disk.read_at(&mut buf, 0).unwrap();
        assert!(buf[..32].iter().all(|&b| b == 0xBB), "prefix landed");
        assert!(buf[32..].iter().all(|&b| b == 0xAA), "tail did not");
        assert_eq!(plan.injected().torn_writes, 1);
    }

    #[test]
    fn protected_prefix_is_never_injected() {
        let (disk, plan) = faulty(9);
        plan.set_protect_below(4096);
        plan.set_transient_read_eio(1.0);
        disk.write_at(&[2u8; 128], 0).unwrap();
        let mut buf = [0u8; 128];
        for _ in 0..32 {
            disk.read_at(&mut buf, 0).unwrap();
        }
        assert_eq!(plan.injected(), InjectedFaults::default());
    }

    #[test]
    fn read_full_at_assembles_short_reads_and_retries_eintr() {
        let src: Vec<u8> = (0..64u8).collect();
        let mut calls = 0usize;
        let mut buf = [0u8; 64];
        read_full_at(
            |b, p| {
                calls += 1;
                match calls {
                    2 => Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                    _ => {
                        // Hand back at most 7 bytes per call.
                        let n = b.len().min(7);
                        b[..n].copy_from_slice(&src[p as usize..p as usize + n]);
                        Ok(n)
                    }
                }
            },
            &mut buf,
            0,
        )
        .unwrap();
        assert_eq!(buf[..], src[..]);
        assert!(calls > 64 / 7, "progress was made in short hops");
    }

    #[test]
    fn read_full_at_maps_eof_to_unexpected_eof() {
        let mut buf = [0u8; 8];
        let err = read_full_at(
            |b, _| {
                b[0] = 1;
                Ok(1)
            },
            &mut buf[..1],
            0,
        );
        assert!(err.is_ok());
        let err = read_full_at(|_, _| Ok(0), &mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_full_at_assembles_short_writes_and_retries_eintr() {
        let mut sink = vec![0u8; 64];
        let data: Vec<u8> = (0..64u8).map(|b| b ^ 0x5A).collect();
        let mut calls = 0usize;
        {
            let sink = &mut sink;
            write_full_at(
                |d, p| {
                    calls += 1;
                    match calls {
                        3 => Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                        _ => {
                            let n = d.len().min(5);
                            sink[p as usize..p as usize + n].copy_from_slice(&d[..n]);
                            Ok(n)
                        }
                    }
                },
                &data,
                0,
            )
            .unwrap();
        }
        assert_eq!(sink, data);
        let err = write_full_at(|_, _| Ok(0), &data, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn write_full_at_propagates_hard_errors() {
        let err = write_full_at(
            |_, _| Err(io::Error::new(io::ErrorKind::Other, "media")),
            &[1, 2, 3],
            0,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn latency_profile_samples_are_seeded_and_bounded() {
        let profile = LatencyProfile::limping(2000, 800).with_bursts(10_000, 0.25);
        let sample = |seed: u64| -> Vec<u64> {
            let plan = FaultPlan::new(seed);
            plan.set_read_latency(profile);
            let mut st = lock(&plan.state);
            (0..256).map(|_| st.sample_latency_us()).collect()
        };
        let a = sample(42);
        let b = sample(42);
        assert_eq!(a, b, "same seed, same jitter sequence");
        // Note: the plan keeps `seed | 1`, so pick seeds two apart.
        let c = sample(44);
        assert_ne!(a, c, "different seed, different sequence");
        let bursts = a.iter().filter(|&&us| us >= 12_000).count();
        for &us in &a {
            assert!((2000..=12_800).contains(&us), "sample {us} out of range");
        }
        assert!(bursts > 0, "burst arm fired at p=0.25 over 256 samples");
        assert!(bursts < 256, "bursts are occasional, not constant");
        assert!(
            a.iter().any(|&us| us != a[0]),
            "jitter actually varies the base"
        );
        // Healthy profile is silent.
        assert!(LatencyProfile::healthy().is_quiet());
        assert_eq!(LatencyProfile::default().mean_us(), 0.0);
    }

    #[test]
    fn quiesce_stops_minting_but_keeps_bad_sectors() {
        let (disk, plan) = faulty(11);
        disk.write_at(&[3u8; 64], 0).unwrap();
        plan.set_transient_read_eio(1.0);
        plan.add_bad_sector(40);
        plan.quiesce();
        let mut buf = [0u8; 16];
        disk.read_at(&mut buf, 0).unwrap(); // no transient minting
        assert!(disk.read_at(&mut buf, 40).is_err(), "bad sector persists");
        assert_eq!(plan.injected().transient_eio, 0);
    }
}
