//! Request generation and the closed- and open-loop drivers.
//!
//! The program under test only ever sees generated requests: a seeded
//! stream of unit-aligned reads and writes, 50 % each (the paper's
//! Table 5-1 mix). Reads go anywhere; thread *t* of *n* writes only
//! slots ≡ *t* (mod *n*), so the generation ledger has one writer per
//! unit while stripe-lock collisions between threads still happen.

use crate::ledger::{self_consistent, Ledger, UNIT};
use crate::stats::quantile;
use crate::trace;
use decluster_server::Client;
use decluster_sim::SimRng;
use decluster_store::{BlockStore, BLOCK_BYTES};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const BLOCKS_PER_UNIT: u64 = UNIT as u64 / BLOCK_BYTES as u64;

/// Units in a large access: 768 KiB = 64 full stripes of `bibd:c10g4`.
pub const LARGE_UNITS: u64 = 192;

/// Something that serves unit-aligned reads and writes.
pub trait Target: Send {
    const READ_SPAN: &'static str;
    const WRITE_SPAN: &'static str;

    /// Reads `units` whole units starting at `unit` into `buf`.
    fn read(&mut self, unit: u64, units: u64, buf: &mut Vec<u8>) -> Result<(), String>;

    /// Writes `data` (whole units) starting at `unit`.
    fn write(&mut self, unit: u64, data: &[u8]) -> Result<(), String>;

    /// Events that are not errors to the caller but count as failed
    /// operations here: reconnects and overload back-offs.
    fn incidents(&self) -> u64 {
        0
    }
}

/// The in-process store.
pub struct StoreTarget<'a>(pub &'a BlockStore);

impl Target for StoreTarget<'_> {
    const READ_SPAN: &'static str = "store.read_blocks";
    const WRITE_SPAN: &'static str = "store.write_blocks";

    fn read(&mut self, unit: u64, units: u64, buf: &mut Vec<u8>) -> Result<(), String> {
        buf.resize(units as usize * UNIT, 0);
        self.0
            .read_blocks(unit * BLOCKS_PER_UNIT, buf)
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, unit: u64, data: &[u8]) -> Result<(), String> {
        self.0
            .write_blocks(unit * BLOCKS_PER_UNIT, data)
            .map_err(|e| e.to_string())
    }
}

/// One TCP connection to the block server.
pub struct ClientTarget(pub Client);

impl Target for ClientTarget {
    const READ_SPAN: &'static str = "client.read_blocks";
    const WRITE_SPAN: &'static str = "client.write_blocks";

    fn read(&mut self, unit: u64, units: u64, buf: &mut Vec<u8>) -> Result<(), String> {
        *buf = self
            .0
            .read_blocks(unit * BLOCKS_PER_UNIT, (units as usize * UNIT) as u32)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn write(&mut self, unit: u64, data: &[u8]) -> Result<(), String> {
        self.0
            .write_blocks(unit * BLOCKS_PER_UNIT, data)
            .map_err(|e| e.to_string())
    }

    fn incidents(&self) -> u64 {
        self.0.reconnects() + self.0.overload_backoffs()
    }
}

/// Wraps every request of `T` in a `bench.request` span and the layer
/// call in a span named after the layer.
pub struct Traced<T> {
    inner: T,
    next_req: u64,
}

impl<T> Traced<T> {
    /// `lane` keeps request ids of different threads apart.
    pub fn new(inner: T, lane: u64) -> Traced<T> {
        Traced {
            inner,
            next_req: lane << 40,
        }
    }
}

impl<T: Target> Target for Traced<T> {
    const READ_SPAN: &'static str = T::READ_SPAN;
    const WRITE_SPAN: &'static str = T::WRITE_SPAN;

    fn read(&mut self, unit: u64, units: u64, buf: &mut Vec<u8>) -> Result<(), String> {
        self.next_req += 1;
        let _request = trace::enter_request("bench.request", self.next_req);
        let _call = trace::enter(T::READ_SPAN);
        self.inner.read(unit, units, buf)
    }

    fn write(&mut self, unit: u64, data: &[u8]) -> Result<(), String> {
        self.next_req += 1;
        let _request = trace::enter_request("bench.request", self.next_req);
        let _call = trace::enter(T::WRITE_SPAN);
        self.inner.write(unit, data)
    }

    fn incidents(&self) -> u64 {
        self.inner.incidents()
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub is_read: bool,
    pub unit: u64,
}

/// The seeded request stream of one load thread.
#[derive(Debug)]
pub struct Stream {
    rng: SimRng,
    lane: u64,
    lanes: u64,
    units_per_op: u64,
    slots: u64,
}

impl Stream {
    /// The stream of thread `lane` of `lanes` over `data_units` units in
    /// aligned accesses of `units_per_op`.
    pub fn new(seed: u64, lane: u64, lanes: u64, data_units: u64, units_per_op: u64) -> Stream {
        let slots = data_units / units_per_op;
        assert!(slots >= lanes, "fewer slots than load threads");
        Stream {
            rng: SimRng::new(seed).fork(lane + 1),
            lane,
            lanes,
            units_per_op,
            slots,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let is_read = self.rng.chance(0.5);
        let slot = if is_read {
            self.rng.below(self.slots)
        } else {
            let owned = (self.slots - self.lane).div_ceil(self.lanes);
            self.rng.below(owned) * self.lanes + self.lane
        };
        Request {
            is_read,
            unit: slot * self.units_per_op,
        }
    }
}

/// Raw per-request latencies in nanoseconds, in memory that is resident
/// before the first window: a faster program must not look like one
/// that uses more memory.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u32>,
    cap: usize,
    /// Requests that found the buffer full; counted, not kept.
    pub dropped: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        let mut ns = Vec::new();
        // A non-zero fill touches every page; `clear` keeps them.
        ns.resize(cap, 1);
        ns.clear();
        Samples {
            ns,
            cap,
            dropped: 0,
        }
    }

    pub fn push(&mut self, elapsed: Duration) {
        if self.ns.len() < self.cap {
            self.ns
                .push(elapsed.as_nanos().min(u32::MAX as u128) as u32);
        } else {
            self.dropped += 1;
        }
    }

    pub fn clear(&mut self) {
        self.ns.clear();
        self.dropped = 0;
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.ns
    }

    pub fn total(&self) -> u64 {
        self.ns.len() as u64 + self.dropped
    }
}

/// One load thread: its target, its stream and its sample memory.
pub struct Worker<T> {
    pub target: T,
    stream: Stream,
    units_per_op: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pub reads: Samples,
    pub writes: Samples,
    pub attempted: u64,
    pub failed: u64,
}

impl<T: Target> Worker<T> {
    /// `sample_cap` bounds the samples one window keeps per direction.
    pub fn new(target: T, stream: Stream, sample_cap: usize) -> Worker<T> {
        let units_per_op = stream.units_per_op;
        Worker {
            target,
            stream,
            units_per_op,
            rbuf: vec![1; units_per_op as usize * UNIT],
            wbuf: vec![1; units_per_op as usize * UNIT],
            reads: Samples::with_capacity(sample_cap),
            writes: Samples::with_capacity(sample_cap),
            attempted: 0,
            failed: 0,
        }
    }

    /// Issues the next request and checks its outcome. Only the call
    /// into the target lies between `start` and `end`.
    pub fn step(&mut self, ledger: &Ledger) -> Step {
        let req = self.stream.next_request();
        self.attempted += 1;
        if req.is_read {
            let start = Instant::now();
            let res = self
                .target
                .read(req.unit, self.units_per_op, &mut self.rbuf);
            let end = Instant::now();
            let ok = res.is_ok()
                && self.rbuf.len() == self.units_per_op as usize * UNIT
                && self
                    .rbuf
                    .chunks_exact(UNIT)
                    .enumerate()
                    .all(|(i, u)| self_consistent(ledger.seed(), req.unit + i as u64, u));
            self.failed += u64::from(!ok);
            Step {
                is_read: true,
                start,
                end,
            }
        } else {
            ledger.stamp_next(req.unit, &mut self.wbuf);
            let start = Instant::now();
            let res = self.target.write(req.unit, &self.wbuf);
            let end = Instant::now();
            match res {
                Ok(()) => ledger.commit(req.unit, self.units_per_op),
                Err(_) => self.failed += 1,
            }
            Step {
                is_read: false,
                start,
                end,
            }
        }
    }
}

/// One issued request: its direction and the instants around the call.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub is_read: bool,
    pub start: Instant,
    pub end: Instant,
}

/// What one measured window produced, all threads merged.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub ops_per_s: f64,
    pub reads: u64,
    pub writes: u64,
    pub read_us: Latency,
    pub write_us: Latency,
}

/// Quantiles of one window's latencies in µs. p90 is the tail the
/// end-to-end metrics bound: on the sandbox p95 and p99 sit where a
/// slow class of requests comes and goes with the neighbours' load
/// (README.md has the measurements), so p99 is recorded without a bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// The quantiles of the merged samples; sorts in place.
pub fn latency_us(merged: &mut [u32]) -> Latency {
    merged.sort_unstable();
    let us = |q: f64| {
        if merged.is_empty() {
            f64::NAN
        } else {
            quantile(merged, q) as f64 / 1e3
        }
    };
    Latency {
        p50: us(0.50),
        p90: us(0.90),
        p99: us(0.99),
    }
}

/// Runs every worker closed-loop for `dur` and merges their samples.
pub fn closed_window<T: Target>(
    workers: &mut [Worker<T>],
    ledger: &Ledger,
    dur: Duration,
) -> Window {
    let barrier = Barrier::new(workers.len());
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || {
                    trace::init_thread();
                    w.reads.clear();
                    w.writes.clear();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + dur;
                    let mut ops = 0u64;
                    let end = loop {
                        let s = w.step(ledger);
                        let samples = if s.is_read {
                            &mut w.reads
                        } else {
                            &mut w.writes
                        };
                        samples.push(s.end - s.start);
                        ops += 1;
                        if s.end >= deadline {
                            break s.end;
                        }
                    };
                    trace::flush_thread();
                    ops as f64 / (end - start).as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut reads: Vec<u32> = Vec::new();
    let mut writes: Vec<u32> = Vec::new();
    let (mut n_reads, mut n_writes) = (0, 0);
    for w in workers.iter() {
        reads.extend_from_slice(w.reads.as_slice());
        writes.extend_from_slice(w.writes.as_slice());
        n_reads += w.reads.total();
        n_writes += w.writes.total();
    }
    Window {
        ops_per_s: rates.iter().sum(),
        reads: n_reads,
        writes: n_writes,
        read_us: latency_us(&mut reads),
        write_us: latency_us(&mut writes),
    }
}

/// The open-loop schedule: request *k* is due at `start + k / rate`
/// whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    period_ns: u64,
    next_due_ns: u64,
}

impl Pacer {
    pub fn new(rate_per_s: f64, start_ns: u64) -> Pacer {
        Pacer {
            period_ns: (1e9 / rate_per_s).round() as u64,
            next_due_ns: start_ns,
        }
    }

    /// The due time of the next request.
    pub fn next_due(&mut self) -> u64 {
        let due = self.next_due_ns;
        self.next_due_ns += self.period_ns;
        due
    }
}

/// Reads the whole address space back through `target` and compares it
/// with the ledger. Returns (units checked, units wrong).
pub fn read_back<T: Target>(target: &mut T, ledger: &Ledger) -> (u64, u64) {
    let mut buf = Vec::new();
    let mut bad = 0;
    let mut unit = 0;
    while unit < ledger.units() {
        let n = LARGE_UNITS.min(ledger.units() - unit);
        match target.read(unit, n, &mut buf) {
            Ok(()) if buf.len() == n as usize * UNIT => bad += ledger.verify(unit, &buf),
            _ => bad += n,
        }
        unit += n;
    }
    (ledger.units(), bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_own_disjoint_slots_and_streams_repeat() {
        let lanes = 3;
        for units_per_op in [1, LARGE_UNITS] {
            for lane in 0..lanes {
                let mut a = Stream::new(5, lane, lanes, 10_000, units_per_op);
                let mut b = Stream::new(5, lane, lanes, 10_000, units_per_op);
                let mut other = Stream::new(6, lane, lanes, 10_000, units_per_op);
                let mut differs = false;
                for _ in 0..2_000 {
                    let r = a.next_request();
                    assert_eq!(r, b.next_request(), "same seed, same requests");
                    differs |= r != other.next_request();
                    assert_eq!(r.unit % units_per_op, 0);
                    assert!(r.unit + units_per_op <= 10_000);
                    if !r.is_read {
                        assert_eq!((r.unit / units_per_op) % lanes, lane);
                    }
                }
                assert!(differs, "another seed gives other requests");
            }
        }
    }

    /// A 20 ms stall at 40 000 requests/s must surface as about 800 late
    /// requests (every request that came due during it), not as one.
    #[test]
    fn open_loop_times_from_the_due_instant() {
        let service_ns = 5_000;
        let mut pacer = Pacer::new(40_000.0, 0);
        let mut now = 0u64;
        let mut late = 0;
        let mut worst = 0;
        for k in 0..40_000 {
            let due = pacer.next_due();
            now = now.max(due); // the generator waits for the due time
            now += if k == 10_000 { 20_000_000 } else { service_ns };
            let latency = now - due;
            late += u64::from(latency > 1_000_000);
            worst = worst.max(latency);
        }
        assert!((700..=1_100).contains(&late), "late requests: {late}");
        assert!((20_000_000..20_100_000).contains(&worst));
        assert_eq!(now, 40_000 * 25_000 - 25_000 + service_ns, "caught up");
    }

    #[test]
    fn samples_count_what_they_cannot_keep() {
        let mut s = Samples::with_capacity(2);
        for us in [3, 1, 2] {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(
            (s.as_slice(), s.dropped, s.total()),
            (&[3000, 1000][..], 1, 3)
        );
        s.push(Duration::from_secs(100));
        s.clear();
        s.push(Duration::from_secs(100));
        assert_eq!(s.as_slice(), &[u32::MAX]);
    }
}
