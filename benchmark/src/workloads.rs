//! The six named workloads and the correctness gate behind each.
//!
//! Every store workload runs on `bibd:c10g4` (α = 1/3) with 4096-byte
//! units, a whole number of layout tables per disk, filled through
//! full-stripe writes and flushed once before the first window. The
//! store keeps no data cache, the backing files stay in the operating
//! system's page cache, and no flush happens inside a measured window.

use crate::ledger::{stamp, Ledger, UNIT};
use crate::load::{
    closed_window, latency_us, read_back, ClientTarget, Latency, Pacer, Samples, StoreTarget,
    Stream, Target, Traced, Window, Worker, LARGE_UNITS,
};
use crate::report::{Metric, Report};
use crate::scratch::Scratch;
use crate::stats::median;
use crate::trace::{self, TracingBackend};
use decluster_core::recon::ReconAlgorithm;
use decluster_experiments::runner::JobStat;
use decluster_experiments::{alpha_sweep, fig8, ExperimentScale, Runner};
use decluster_server::{Client, ClientConfig, Server, ServerConfig};
use decluster_store::{BlockStore, FaultCounters, LayoutSpec, RebuildReport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How long a measured window aims to be. Every timing metric is the
/// median of its per-window values, so a burst of interference shorter
/// than half the run moves nothing, and load threads start afresh in
/// every window, so no run keeps one placement of threads on cores.
const WINDOW_SECS: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
pub const STORE_SPEC: &str = "bibd:c10g4";
/// The disk `degraded-small` runs without.
pub const FAILED_DISK: u16 = 3;
/// What the open-loop user of `rebuild-small` offers while a rebuild runs.
pub const OFFERED_PER_S: f64 = 40_000.0;
/// The paper's higher user access rate (Section 8).
pub const SIM_RATE: f64 = 210.0;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small stores and a small simulated disk: every code path and
    /// check, no meaningful numbers.
    pub smoke: bool,
    pub out: PathBuf,
    pub threads: usize,
    /// Flip one backing-file byte between the last window and the
    /// read-back; the run must then fail.
    pub corrupt: bool,
}

impl Config {
    /// 50 layout tables of `bibd:c10g4` per disk (5 in smoke runs).
    pub fn units_per_disk(&self) -> u64 {
        if self.smoke {
            1_680
        } else {
            16_800
        }
    }

    /// The discarded warm-up: the first tenth of the run.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.1)
    }

    /// Everything after the warm-up.
    pub fn measured(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.9)
    }

    /// Measured windows per run: as many of `WINDOW_SECS` as fit (54 at
    /// the default 15 s), never fewer than five.
    pub fn windows(&self) -> usize {
        ((self.measured().as_secs_f64() / WINDOW_SECS).round() as usize).max(5)
    }

    pub fn window(&self) -> Duration {
        self.measured() / self.windows() as u32
    }

    /// Windows each half of a traced pair measures: a traced run is for
    /// the trace and the layer metrics, not for steady numbers.
    fn traced_windows(&self) -> usize {
        self.windows() / 4
    }

    fn sample_cap(&self, per_second: f64) -> usize {
        (self.window().as_secs_f64() * per_second) as usize + 1024
    }

    pub fn sim_scale(&self) -> ExperimentScale {
        let mut scale = if self.smoke {
            ExperimentScale::tiny()
        } else {
            ExperimentScale::smoke()
        };
        scale.seed = self.seed;
        scale
    }
}

/// A freshly formatted, filled and flushed store with its ledger.
pub struct Formatted {
    // Dropped in this order: the store closes its files before the
    // scratch directory goes.
    pub store: Arc<BlockStore>,
    pub ledger: Ledger,
    pub scratch: Scratch,
    pub create_ms: f64,
    pub flush_ms: f64,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn parse_spec(spec: &str) -> Result<LayoutSpec, String> {
    spec.parse().map_err(|e| format!("layout {spec}: {e}"))
}

pub fn store_err(what: &str) -> impl Fn(decluster_store::StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Formats a store of `spec` under the run's scratch space, fills every
/// unit with its generation-0 pattern through full-stripe writes, and
/// flushes. With `traced` the store reaches its files through
/// [`TracingBackend`].
pub fn format_store(
    cfg: &Config,
    spec: &str,
    units_per_disk: u64,
    traced: bool,
) -> Result<Formatted, String> {
    let scratch = Scratch::new(&cfg.out, &cfg.workload)?;
    let layout = parse_spec(spec)?;
    let t = Instant::now();
    let store = if traced {
        BlockStore::create_with_backend(
            scratch.path(),
            layout,
            units_per_disk,
            UNIT as u32,
            cfg.seed,
            &|_, file| Box::new(TracingBackend::new(file)),
        )
    } else {
        BlockStore::create(
            scratch.path(),
            layout,
            units_per_disk,
            UNIT as u32,
            cfg.seed,
        )
    }
    .map_err(store_err("create store"))?;
    let create_ms = ms(t.elapsed());

    let ledger = Ledger::new(cfg.seed, store.data_units());
    let mut target = StoreTarget(&store);
    let mut buf = vec![0u8; LARGE_UNITS as usize * UNIT];
    let mut unit = 0;
    while unit < ledger.units() {
        let n = LARGE_UNITS.min(ledger.units() - unit) as usize;
        for (i, chunk) in buf[..n * UNIT].chunks_exact_mut(UNIT).enumerate() {
            stamp(cfg.seed, unit + i as u64, 0, chunk);
        }
        target.write(unit, &buf[..n * UNIT])?;
        unit += n as u64;
    }

    let t = Instant::now();
    store.flush().map_err(store_err("flush after fill"))?;
    Ok(Formatted {
        store: Arc::new(store),
        ledger,
        scratch,
        create_ms,
        flush_ms: ms(t.elapsed()),
    })
}

/// Sets up `SETUPS` times (once in a traced run, which reports no
/// end-to-end metric), keeps the last, and reports the median time as
/// `setup_s`. Discarding a set-up is not timed.
fn repeat_setup<S>(
    cfg: &Config,
    report: &mut Report,
    mut build: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S) -> Result<(), String>,
) -> Result<S, String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        if let Some(previous) = kept.take() {
            discard(previous)?;
        }
        let t = Instant::now();
        kept = Some(build()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    report.push(Metric::of_windows("setup_s", "s", secs));
    Ok(kept.expect("SETUPS > 0"))
}

pub fn close_store(f: Formatted) -> Result<(), String> {
    Arc::try_unwrap(f.store)
        .map_err(|_| "close store: a server still shares it".to_string())?
        .close()
        .map_err(store_err("close store"))
}

/// Builds one worker per target, warms up (discarded), then measures
/// `windows` windows back to back. With `traced`, spans are recorded
/// during the measured windows only.
fn drive<T: Target>(
    cfg: &Config,
    targets: Vec<T>,
    ledger: &Ledger,
    units_per_op: u64,
    per_second: f64,
    windows: usize,
    traced: bool,
) -> (Vec<Window>, Vec<Worker<T>>) {
    let lanes = targets.len() as u64;
    let cap = cfg.sample_cap(per_second);
    let mut workers: Vec<Worker<T>> = targets
        .into_iter()
        .enumerate()
        .map(|(lane, target)| {
            let stream = Stream::new(cfg.seed, lane as u64, lanes, ledger.units(), units_per_op);
            Worker::new(target, stream, cap)
        })
        .collect();
    closed_window(&mut workers, ledger, cfg.warmup());
    trace::set_enabled(traced);
    let measured = (0..windows)
        .map(|_| closed_window(&mut workers, ledger, cfg.window()))
        .collect();
    trace::set_enabled(false);
    (measured, workers)
}

fn tally<T: Target>(report: &mut Report, workers: &[Worker<T>]) {
    for w in workers {
        report.attempted += w.attempted;
        report.failed += w.failed + w.target.incidents();
        let dropped = w.reads.dropped + w.writes.dropped;
        if dropped > 0 {
            report.notes.push(format!(
                "a load thread kept no sample for {dropped} requests of its last window (buffer full); quantiles cover the earlier ones"
            ));
        }
    }
}

/// `<kind>_p50_us` and `<kind>_p90_us`, the bounded pair, and
/// `<kind>_p99_us`, recorded without a bound: each the median of one
/// value per window.
fn push_latency(report: &mut Report, kind: &str, windows: &[Latency], samples: u64) {
    for (name, pick) in [
        ("p50", (|l| l.p50) as fn(&Latency) -> f64),
        ("p90", |l| l.p90),
        ("p99", |l| l.p99),
    ] {
        let values = windows.iter().map(pick).collect();
        report.push(
            Metric::of_windows(format!("{kind}_{name}_us"), "us", values).with_samples(samples),
        );
    }
}

fn push_windows(report: &mut Report, windows: &[Window]) {
    let reads: u64 = windows.iter().map(|w| w.reads).sum();
    let writes: u64 = windows.iter().map(|w| w.writes).sum();
    let rates = windows.iter().map(|w| w.ops_per_s).collect();
    report.push(Metric::of_windows("ops_per_s", "1/s", rates).with_samples(reads + writes));
    let col = |f: fn(&Window) -> Latency| windows.iter().map(f).collect::<Vec<Latency>>();
    push_latency(report, "read", &col(|w| w.read_us), reads);
    push_latency(report, "write", &col(|w| w.write_us), writes);
}

/// The reference windows and the traced windows of a `--trace 1` run:
/// same targets, same streams, the second set with spans on.
fn traced_pair<T: Target>(
    cfg: &Config,
    report: &mut Report,
    mut targets: impl FnMut() -> Result<Vec<T>, String>,
    ledger: &Ledger,
    units_per_op: u64,
    per_second: f64,
) -> Result<(), String> {
    let windows = cfg.traced_windows();
    let (plain, workers) = drive(
        cfg,
        targets()?,
        ledger,
        units_per_op,
        per_second,
        windows,
        false,
    );
    tally(report, &workers);
    drop(workers);
    let wrapped = targets()?
        .into_iter()
        .enumerate()
        .map(|(lane, t)| Traced::new(t, lane as u64 + 1))
        .collect();
    let (traced, workers) = drive(
        cfg,
        wrapped,
        ledger,
        units_per_op,
        per_second,
        windows,
        true,
    );
    tally(report, &workers);
    let rate = |ws: &[Window]| median(&ws.iter().map(|w| w.ops_per_s).collect::<Vec<f64>>());
    push_trace_overhead(report, rate(&plain), rate(&traced));
    Ok(())
}

fn push_trace_overhead(report: &mut Report, plain_per_s: f64, traced_per_s: f64) {
    report.push(Metric::single(
        "trace.overhead_frac",
        1.0 - traced_per_s / plain_per_s,
        "ratio",
    ));
}

/// Writes the spans recorded since the last drain to
/// `<out>/trace-<workload>.jsonl` and reports how complete they are.
pub fn finish_trace(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let traces = trace::drain();
    let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload));
    trace::write_jsonl(&path, &traces).map_err(|e| format!("{}: {e}", path.display()))?;
    let kept: u64 = traces.iter().map(|t| t.spans.len() as u64).sum();
    let count = |name: &str| -> u64 {
        traces
            .iter()
            .flat_map(|t| &t.counts)
            .filter(|(n, _)| *n == name)
            .map(|(_, c)| c)
            .sum()
    };
    let all: u64 = traces.iter().flat_map(|t| &t.counts).map(|(_, c)| c).sum();
    let requests = count("bench.request");
    report.check(requests > 0 && kept > 0, || {
        "the traced window recorded no request".into()
    });
    report.push(Metric::single(
        "trace.spans_per_request",
        all as f64 / requests.max(1) as f64,
        "ratio",
    ));
    report.push(Metric::single(
        "trace.spans_dropped_frac",
        1.0 - kept as f64 / all.max(1) as f64,
        "ratio",
    ));
    report.notes.push(format!(
        "trace: {kept} of {all} spans kept in {}",
        path.display()
    ));
    Ok(())
}

/// Flips one byte of a data unit in disk 0's backing file, behind the
/// store's back. Test hook for the correctness gate.
fn corrupt_one_byte(scratch: &Scratch, units_per_disk: u64) -> Result<(), String> {
    use std::os::unix::fs::FileExt;
    let path = scratch.path().join("disk-000.dat");
    let pos = decluster_store::SUPERBLOCK_BYTES
        + decluster_store::checksum::region_bytes(units_per_disk)
        + 5 * UNIT as u64
        + 100;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, pos)
        .and_then(|()| file.write_all_at(&[byte[0] ^ 0x40], pos))
        .map_err(|e| format!("corrupt {}: {e}", path.display()))
}

/// After the last window: one timed flush, then every unit is read back
/// through `reader` and compared with the ledger.
fn flush_and_read_back<T: Target>(
    cfg: &Config,
    report: &mut Report,
    f: &Formatted,
    reader: &mut T,
) -> Result<(), String> {
    let t = Instant::now();
    f.store.flush().map_err(store_err("final flush"))?;
    report.push(Metric::single("final_flush_ms", ms(t.elapsed()), "ms"));
    if cfg.corrupt {
        corrupt_one_byte(&f.scratch, cfg.units_per_disk())?;
    }
    let (checked, bad) = read_back(reader, &f.ledger);
    report.attempted += checked;
    report.failed += bad;
    if bad > 0 {
        report.notes.push(format!(
            "FAILED: {bad} of {checked} units differ from the ledger ({} were rewritten)",
            f.ledger.written_units()
        ));
    }
    Ok(())
}

/// The rest of the gate: parity (when fault-free), a report-only scrub,
/// fault counters, and the space the store takes per user byte.
fn scrub_and_close(report: &mut Report, f: Formatted, fault_free: bool) -> Result<(), String> {
    if fault_free {
        let parity = f.store.verify_parity();
        report.check(parity.is_ok(), || format!("verify_parity: {parity:?}"));
    }
    let scrub = f.store.scrub(false).map_err(store_err("scrub"))?;
    report.check(scrub.faults() == 0 && scrub.units_scanned > 0, || {
        format!("scrub found faults: {scrub:?}")
    });
    let faults = f.store.fault_counters();
    report.check(fault_total(&faults) == 0, || {
        format!("fault counters are not zero: {faults:?}")
    });
    report.push(Metric::single(
        "store.hedged_reads",
        faults.hedged_reads as f64,
        "count",
    ));
    report.push(Metric::single(
        "stored_bytes_per_user_byte",
        f.scratch.stored_bytes() as f64 / (f.store.data_units() * UNIT as u64) as f64,
        "ratio",
    ));
    report.notes.push(format!(
        "store {STORE_SPEC}: {} units/disk x {UNIT} B, {} data units, {:.1} MiB of backing files, all resident in the OS page cache: latencies are this sandbox's, not a device's",
        f.store.mapping().units_per_disk(),
        f.store.data_units(),
        f.scratch.stored_bytes() as f64 / (1 << 20) as f64
    ));
    close_store(f)
}

/// Faults detected or handled. Hedged reads are left out: the store
/// hedges around a disk whose read-latency average looks slow, which a
/// descheduled thread is enough to cause on healthy page-cache files.
pub fn fault_total(f: &FaultCounters) -> u64 {
    f.media_errors + f.checksum_errors + f.retries + f.repaired + f.escalated + f.demotions
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    HealthySmall,
    DegradedSmall,
    HealthyLarge,
}

/// `healthy-small`, `degraded-small` and `healthy-large`: `threads`
/// closed-loop threads straight on the in-process store.
pub fn store_workload(cfg: &Config, kind: StoreKind, report: &mut Report) -> Result<(), String> {
    let degraded = kind == StoreKind::DegradedSmall;
    let (units_per_op, per_second) = match kind {
        StoreKind::HealthyLarge => (LARGE_UNITS, 20_000.0),
        _ => (1, 600_000.0),
    };
    let f = repeat_setup(
        cfg,
        report,
        || {
            let f = format_store(cfg, STORE_SPEC, cfg.units_per_disk(), cfg.trace)?;
            if degraded {
                f.store
                    .fail_disk(FAILED_DISK)
                    .map_err(store_err("fail_disk"))?;
            }
            Ok(f)
        },
        close_store,
    )?;
    let targets = || {
        Ok((0..cfg.threads)
            .map(|_| StoreTarget(&f.store))
            .collect::<Vec<_>>())
    };
    if cfg.trace {
        traced_pair(cfg, report, targets, &f.ledger, units_per_op, per_second)?;
        finish_trace(cfg, report)?;
    } else {
        let (windows, workers) = drive(
            cfg,
            targets()?,
            &f.ledger,
            units_per_op,
            per_second,
            cfg.windows(),
            false,
        );
        tally(report, &workers);
        push_windows(report, &windows);
    }
    flush_and_read_back(cfg, report, &f, &mut StoreTarget(&f.store))?;
    scrub_and_close(report, f, !degraded)
}

/// A store behind `Server::spawn` on loopback with its clients.
struct Served {
    f: Formatted,
    server: Server,
    clients: Vec<ClientTarget>,
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// One more connection, with a session of its own.
pub fn connect(server: &Server) -> Result<ClientTarget, String> {
    let cfg = ClientConfig {
        session_id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
        ..ClientConfig::default()
    };
    Client::connect(&server.addr().to_string(), cfg)
        .map(ClientTarget)
        .map_err(|e| format!("connect: {e}"))
}

pub fn spawn_server(f: &Formatted) -> Result<Server, String> {
    Server::spawn(Arc::clone(&f.store), ServerConfig::default())
        .map_err(|e| format!("spawn server: {e}"))
}

/// Drains and joins the server; the store stays open in `f`.
pub fn stop_server(server: Server) -> Result<(), String> {
    server.stop().map_err(store_err("stop server"))
}

/// `server-small`: the `healthy-small` mix over `threads` TCP
/// connections to a default-configured server in this process.
pub fn server_workload(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let served = repeat_setup(
        cfg,
        report,
        || {
            let f = format_store(cfg, STORE_SPEC, cfg.units_per_disk(), cfg.trace)?;
            let server = spawn_server(&f)?;
            let clients = (0..cfg.threads)
                .map(|_| connect(&server))
                .collect::<Result<_, _>>()?;
            Ok(Served { f, server, clients })
        },
        |s| {
            drop(s.clients);
            stop_server(s.server)?;
            close_store(s.f)
        },
    )?;
    let Served { f, server, clients } = served;
    let per_second = 100_000.0;
    let mut reader = if cfg.trace {
        drop(clients);
        let fresh = || (0..cfg.threads).map(|_| connect(&server)).collect();
        traced_pair(cfg, report, fresh, &f.ledger, 1, per_second)?;
        connect(&server)?
    } else {
        let (windows, mut workers) =
            drive(cfg, clients, &f.ledger, 1, per_second, cfg.windows(), false);
        tally(report, &workers);
        push_windows(report, &windows);
        workers.swap_remove(0).target
    };
    flush_and_read_back(cfg, report, &f, &mut reader)?;
    report.failed += reader.incidents();
    drop(reader);
    stop_server(server)?;
    if cfg.trace {
        // Only now have the server's threads handed over their spans.
        finish_trace(cfg, report)?;
    }
    scrub_and_close(report, f, true)
}

/// What the rebuild thread and the open-loop user measured. A measured
/// cycle is a window of its own: one rebuild, and the user requests
/// that ran during it.
pub struct RebuildRun {
    /// `RebuildReport::wall_secs` of every measured cycle.
    pub rebuild_s: Vec<f64>,
    /// `fail_disk` + `replace_disk` of every measured cycle.
    pub overhead_ms: Vec<f64>,
    /// Time inside each user call, the measured cycles back to back: the
    /// same latency every other store workload reports.
    reads: Samples,
    writes: Samples,
    /// Where each measured cycle begins in `reads` and `writes`.
    marks: Vec<(usize, usize)>,
    /// Response time of every measured request from the instant it was
    /// due, which counts the wait a stall imposes on later requests.
    pub response: Samples,
    /// How late the generator itself issued each measured request.
    pub late: Samples,
}

// What the user thread sees of the rebuild thread: the cycle's number
// above these two bits, so one load tells which rebuild is running.
const IDLE: u64 = 0;
const WARMING: u64 = 1;
const MEASURED: u64 = 2;
const STOP: u64 = 3;

/// Checks one rebuild of `disk` under user load. The report's per-disk
/// reads include the user's, so only the lower side of the α check is
/// exact here; the ±2 % check on both sides is done on unloaded rebuilds.
fn check_rebuild(report: &mut Report, rep: &RebuildReport, disk: u16, width: u64, user_ops: u64) {
    let units = rep.mapped_units_per_disk[disk as usize];
    report.check(
        rep.failed_disks == [disk]
            && rep.units_rebuilt + rep.units_already_valid + rep.units_unmapped >= units
            && rep.units_rebuilt > 0,
        || format!("rebuild of disk {disk} did not cover it: {rep:?}"),
    );
    for d in (0..rep.disk_reads.len() as u16).filter(|&d| d != disk) {
        let fraction = rep.read_fraction(d);
        // A user op reads at most the G units of one stripe.
        let user_share = (user_ops * width) as f64 / rep.mapped_units_per_disk[d as usize] as f64;
        report.check(
            fraction >= rep.alpha * 0.98 - user_share && fraction <= rep.alpha * 1.02 + user_share,
            || {
                format!(
                    "disk {d} read fraction {fraction:.4} vs alpha {:.4}",
                    rep.alpha
                )
            },
        );
    }
}

/// `fail_disk(d)` → `replace_disk()` → `rebuild(1)` cycles (d = 0, 1, …)
/// on one thread for `cfg.seconds`, while one open-loop thread offers
/// `OFFERED_PER_S` requests of the small mix for as long as a rebuild
/// is running. Cycles that begin during the warm-up are not measured.
/// The offered load pauses between rebuilds: what is measured is user
/// response time *during reconstruction*, the paper's Figure 8-2, not
/// during the harness's own fail/replace step.
pub fn rebuild_cycles<T: Target>(
    cfg: &Config,
    report: &mut Report,
    store: &BlockStore,
    ledger: &Ledger,
    user: T,
    traced: bool,
) -> Result<RebuildRun, String> {
    // The last cycle begins before the run is over and ends after it.
    let cap = ((cfg.seconds + 1.0) * OFFERED_PER_S * 0.6) as usize;
    let mut run = RebuildRun {
        rebuild_s: Vec::new(),
        overhead_ms: Vec::new(),
        reads: Samples::with_capacity(cap),
        writes: Samples::with_capacity(cap),
        marks: Vec::new(),
        response: Samples::with_capacity(cap * 2),
        late: Samples::with_capacity(cap * 2),
    };
    let mut worker = Worker::new(user, Stream::new(cfg.seed, 0, 1, ledger.units(), 1), 0);
    let state = AtomicU64::new(IDLE);
    let user_ops = AtomicU64::new(0);
    let disks = store.mapping().disks() as u64;
    let width = store.mapping().stripe_width() as u64;
    let t0 = Instant::now();

    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let user_thread = scope.spawn(|| {
            trace::init_thread();
            let now_ns = || t0.elapsed().as_nanos() as u64;
            let mut pacer: Option<(u64, Pacer)> = None;
            loop {
                let seen = state.load(Ordering::SeqCst);
                let (cycle, phase) = (seen >> 2, seen & 3);
                match phase {
                    STOP => break,
                    IDLE => {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    _ => {}
                }
                if pacer.map(|p| p.0) != Some(cycle) {
                    pacer = Some((cycle, Pacer::new(OFFERED_PER_S, now_ns())));
                    if phase == MEASURED {
                        run.marks
                            .push((run.reads.as_slice().len(), run.writes.as_slice().len()));
                    }
                }
                let due = pacer.as_mut().expect("set above").1.next_due();
                while now_ns() < due {
                    std::hint::spin_loop();
                }
                if state.load(Ordering::SeqCst) != seen {
                    continue;
                }
                let step = worker.step(ledger);
                user_ops.fetch_add(1, Ordering::Relaxed);
                if phase == MEASURED {
                    let samples = if step.is_read {
                        &mut run.reads
                    } else {
                        &mut run.writes
                    };
                    samples.push(step.end - step.start);
                    let end_ns = (step.end - t0).as_nanos() as u64;
                    run.response
                        .push(Duration::from_nanos(end_ns.saturating_sub(due)));
                    let start_ns = (step.start - t0).as_nanos() as u64;
                    run.late
                        .push(Duration::from_nanos(start_ns.saturating_sub(due)));
                }
            }
            trace::flush_thread();
        });

        let cycles = (|| {
            trace::set_enabled(traced);
            for cycle in 1u64.. {
                let disk = ((cycle - 1) % disks) as u16;
                let measured = t0.elapsed() >= cfg.warmup();
                let t = Instant::now();
                store.fail_disk(disk).map_err(store_err("fail_disk"))?;
                store.replace_disk().map_err(store_err("replace_disk"))?;
                let overhead = t.elapsed();
                let ops_before = user_ops.load(Ordering::Relaxed);
                let phase = if measured { MEASURED } else { WARMING };
                state.store(cycle << 2 | phase, Ordering::SeqCst);
                let rebuilt = {
                    let _span = trace::enter("store.rebuild");
                    store.rebuild(1)
                };
                state.store(cycle << 2 | IDLE, Ordering::SeqCst);
                let rep = rebuilt.map_err(store_err("rebuild"))?;
                // The user may finish one more request after the flip.
                let during = user_ops.load(Ordering::Relaxed) - ops_before + 1;
                check_rebuild(report, &rep, disk, width, during);
                if measured {
                    run.rebuild_s.push(rep.wall_secs);
                    run.overhead_ms.push(ms(overhead));
                }
                if t0.elapsed() >= cfg.warmup() + cfg.measured() {
                    break;
                }
            }
            Ok(())
        })();
        trace::set_enabled(false);
        state.store(STOP, Ordering::SeqCst);
        user_thread
            .join()
            .map_err(|_| "open-loop user thread panicked".to_string())?;
        cycles
    });
    outcome?;
    report.attempted += worker.attempted;
    report.failed += worker.failed;
    let dropped = run.reads.dropped + run.writes.dropped;
    if dropped > 0 {
        report.notes.push(format!(
            "the user thread kept no sample for {dropped} requests (buffer full)"
        ));
    }
    if run.rebuild_s.is_empty() || run.marks.is_empty() {
        return Err(format!(
            "no rebuild began after the warm-up: --seconds {} is too short for this machine",
            cfg.seconds
        ));
    }
    Ok(run)
}

impl RebuildRun {
    /// Stripe units of the lost disk rebuilt per second of rebuild, one
    /// value per measured cycle.
    fn units_per_s(&self, units_per_disk: u64) -> Vec<f64> {
        self.rebuild_s
            .iter()
            .map(|s| units_per_disk as f64 / s)
            .collect()
    }

    /// The time inside the user's reads and inside its writes, one value
    /// per measured cycle in which the user got a request of that kind in.
    fn call_latency(&self) -> [Vec<Latency>; 2] {
        let mut out = <[Vec<Latency>; 2]>::default();
        for (i, &(r0, w0)) in self.marks.iter().enumerate() {
            let (r1, w1) = self
                .marks
                .get(i + 1)
                .copied()
                .unwrap_or((self.reads.as_slice().len(), self.writes.as_slice().len()));
            for (k, ns) in [
                &self.reads.as_slice()[r0..r1],
                &self.writes.as_slice()[w0..w1],
            ]
            .into_iter()
            .enumerate()
            {
                if !ns.is_empty() {
                    out[k].push(latency_us(&mut ns.to_vec()));
                }
            }
        }
        out
    }

    /// The `rebuild.*` layer metrics: what the user saw beyond the
    /// median, and what the harness itself cost.
    pub fn push_layer_metrics(&self, report: &mut Report) {
        let mut all = self.response.as_slice().to_vec();
        let n = all.len() as u64;
        let over_1ms = all.iter().filter(|&&ns| ns > 1_000_000).count();
        let user = latency_us(&mut all);
        report.push(Metric::single("rebuild.user_p50_us", user.p50, "us").with_samples(n));
        report.push(Metric::single("rebuild.user_p99_us", user.p99, "us").with_samples(n));
        report.push(Metric::single(
            "rebuild.user_stall_max_ms",
            all.last().map_or(f64::NAN, |&ns| ns as f64 / 1e6),
            "ms",
        ));
        report.push(Metric::single(
            "rebuild.user_over_1ms_frac",
            over_1ms as f64 / n.max(1) as f64,
            "ratio",
        ));
        report.push(Metric::single(
            "rebuild.cycle_overhead_ms",
            median(&self.overhead_ms),
            "ms",
        ));
        let mut late = self.late.as_slice().to_vec();
        report.push(Metric::single(
            "rebuild.gen_late_p99_us",
            latency_us(&mut late).p99,
            "us",
        ));
    }
}

/// `rebuild-small`.
pub fn rebuild_workload(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let f = repeat_setup(
        cfg,
        report,
        || format_store(cfg, STORE_SPEC, cfg.units_per_disk(), cfg.trace),
        close_store,
    )?;
    let units = cfg.units_per_disk();
    if cfg.trace {
        // A reference run and a traced one in the time of the workload.
        let each = Config {
            seconds: cfg.seconds / 3.0,
            ..cfg.clone()
        };
        let user = StoreTarget(&f.store);
        let plain = rebuild_cycles(&each, report, &f.store, &f.ledger, user, false)?;
        let user = Traced::new(StoreTarget(&f.store), 1);
        let traced = rebuild_cycles(&each, report, &f.store, &f.ledger, user, true)?;
        push_trace_overhead(
            report,
            median(&plain.units_per_s(units)),
            median(&traced.units_per_s(units)),
        );
        finish_trace(cfg, report)?;
    } else {
        let user = StoreTarget(&f.store);
        let run = rebuild_cycles(cfg, report, &f.store, &f.ledger, user, false)?;
        let cycles = run.rebuild_s.len() as u64;
        report.push(
            Metric::of_windows("ops_per_s", "1/s", run.units_per_s(units)).with_samples(cycles),
        );
        report
            .push(Metric::of_windows("rebuild_s", "s", run.rebuild_s.clone()).with_samples(cycles));
        let [reads, writes] = run.call_latency();
        push_latency(report, "read", &reads, run.reads.total());
        push_latency(report, "write", &writes, run.writes.total());
        run.push_layer_metrics(report);
        report.notes.push(format!(
            "every measured fail/replace/rebuild cycle is a window; ops_per_s is stripe units of the lost disk rebuilt per second of rebuild(1) ({units} units per disk) under {OFFERED_PER_S} offered user ops/s; read/write latencies are the time inside each user call, rebuild.user_* the response time from each request's due instant"
        ));
    }
    flush_and_read_back(cfg, report, &f, &mut StoreTarget(&f.store))?;
    scrub_and_close(report, f, true)
}

/// One pass over a list of Figure 8 jobs.
pub struct SimPass {
    pub points: Vec<fig8::Fig8Point>,
    pub stats: Vec<JobStat>,
    pub wall_secs: f64,
    pub events: u64,
}

/// The `sim-recon` job list: every paper `G` under every algorithm.
pub fn sim_recon_jobs() -> Vec<(u16, ReconAlgorithm)> {
    ReconAlgorithm::ALL
        .into_iter()
        .flat_map(|a| alpha_sweep().into_iter().map(move |(g, _)| (g, a)))
        .collect()
}

/// Runs `jobs` at the paper's 210 accesses/s with one reconstruction
/// process each, on `threads` runner threads.
pub fn sim_pass(
    scale: &ExperimentScale,
    jobs: &[(u16, ReconAlgorithm)],
    threads: usize,
) -> Result<SimPass, String> {
    let mut next_req = 0;
    let closures: Vec<_> = jobs
        .iter()
        .map(|&(g, algorithm)| {
            next_req += 1;
            let req = next_req;
            move || {
                let _request = trace::enter_request("bench.request", req);
                let _call = trace::enter("sim.run_point");
                match fig8::run_point_counted(scale, g, SIM_RATE, algorithm, 1) {
                    Ok((point, events)) => (Ok(point), events),
                    Err(e) => (Err(e), 0),
                }
            }
        })
        .collect();
    let run = Runner::new(threads)
        .run(closures)
        .transpose()
        .map_err(|e| format!("simulation job: {e}"))?;
    Ok(SimPass {
        events: run.events(),
        wall_secs: run.wall_secs,
        stats: run.stats,
        points: run.values,
    })
}

/// FNV-1a over the debug rendering of every field of every point.
pub fn sim_digest(points: &[fig8::Fig8Point]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in points.iter().flat_map(|p| format!("{p:?};").into_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything `sim-recon` sets up before it simulates: each paper
/// layout, its simulated array, the failure and the reconstruction.
fn sim_setup(scale: &ExperimentScale) -> Result<(), String> {
    use decluster_array::{ArraySim, ReconOptions};
    for (g, _) in alpha_sweep() {
        let layout = decluster_experiments::paper_layout(g).map_err(|e| e.to_string())?;
        let spec = decluster_workload::WorkloadSpec::half_and_half(SIM_RATE);
        let mut sim =
            ArraySim::new(layout, scale.array_config(), spec, 1).map_err(|e| e.to_string())?;
        sim.fail_disk(0).map_err(|e| e.to_string())?;
        sim.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&sim);
    }
    Ok(())
}

/// Set-ups each simulation thread times before each of its passes.
const SIM_SETUPS: usize = 8;

/// What one simulation thread did.
struct SimLane {
    passes: Vec<SimPass>,
    setup_secs: Vec<f64>,
}

/// `threads` simulation threads, each making `passes` passes over
/// `jobs` through a `Runner::new(1)` of its own, and timing
/// `SIM_SETUPS` set-ups before each. The threads begin every pass
/// together, so all cores are busy the whole time: with one thread on
/// an otherwise idle 2-core sandbox the same code ran 10 % faster or
/// slower from run to run, with two in step 4 %.
fn sim_lanes(
    scale: &ExperimentScale,
    jobs: &[(u16, ReconAlgorithm)],
    threads: usize,
    passes: usize,
) -> Result<Vec<SimLane>, String> {
    let together = Barrier::new(threads);
    let lane = || -> Result<SimLane, String> {
        let mut lane = SimLane {
            passes: Vec::new(),
            setup_secs: Vec::new(),
        };
        // Warm-up: the quickest job, discarded.
        let mut outcome = sim_pass(scale, &jobs[..1], 1).map(|_| ());
        for _ in 0..passes {
            // A thread that failed keeps the others' company.
            together.wait();
            if outcome.is_err() {
                continue;
            }
            outcome = (|| {
                for _ in 0..SIM_SETUPS {
                    let t = Instant::now();
                    sim_setup(scale)?;
                    lane.setup_secs.push(t.elapsed().as_secs_f64());
                }
                lane.passes.push(sim_pass(scale, jobs, 1)?);
                Ok(())
            })();
        }
        outcome.map(|()| lane)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(lane)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "simulation thread panicked".to_string())?
            })
            .collect()
    })
}

/// `sim-recon`: every load thread makes passes over the 28-job list
/// through a `Runner::new(1)`; one pass of all threads is one window.
pub fn sim_workload(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let scale = cfg.sim_scale();
    let jobs = sim_recon_jobs();

    if cfg.trace {
        // One thread: a reference pass and a traced one.
        let mut setups = Vec::new();
        let mut timed_setup = || -> Result<(), String> {
            for _ in 0..SIM_SETUPS {
                let t = Instant::now();
                sim_setup(&scale)?;
                setups.push(t.elapsed().as_secs_f64());
            }
            Ok(())
        };
        sim_pass(&scale, &jobs[..1], 1)?;
        timed_setup()?;
        let plain = sim_pass(&scale, &jobs, 1)?;
        timed_setup()?;
        report.push(Metric::of_windows("setup_s", "s", setups));
        trace::set_enabled(true);
        let traced = sim_pass(&scale, &jobs, 1);
        trace::set_enabled(false);
        let traced = traced?;
        report.attempted += 2 * jobs.len() as u64;
        push_trace_overhead(
            report,
            plain.events as f64 / plain.wall_secs,
            traced.events as f64 / traced.wall_secs,
        );
        let digest = check_sim_passes(report, &jobs, &[plain, traced]);
        report.text.push(("sim_results_digest".into(), digest));
        return finish_trace(cfg, report);
    }

    // About one pass per four seconds asked for, and never fewer than
    // two: the passes must agree with each other.
    let passes = ((cfg.seconds / 4.0).round() as usize).max(2);
    let lanes = sim_lanes(&scale, &jobs, cfg.threads, passes)?;
    let setups = lanes.iter().flat_map(|l| l.setup_secs.clone()).collect();
    report.push(Metric::of_windows("setup_s", "s", setups));
    let n = (lanes.len() * passes * jobs.len()) as u64;
    report.attempted += n;
    let (mut events_per_s, mut job_us) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let of_lanes = || lanes.iter().map(|l| &l.passes[pass]);
        events_per_s.push(of_lanes().map(|p| p.events as f64 / p.wall_secs).sum());
        let mut ns: Vec<u32> = of_lanes()
            .flat_map(|p| p.stats.iter().map(|s| (s.wall_secs * 1e9) as u32))
            .collect();
        job_us.push(latency_us(&mut ns));
    }
    report.push(Metric::of_windows("ops_per_s", "1/s", events_per_s.clone()).with_samples(n));
    report.push(Metric::of_windows("sim_events_per_s", "1/s", events_per_s).with_samples(n));
    // One request class, a simulation job: both directions carry it.
    push_latency(report, "read", &job_us, n);
    push_latency(report, "write", &job_us, n);
    let runs: Vec<SimPass> = lanes.into_iter().flat_map(|l| l.passes).collect();
    report.push(Metric::single(
        "events_per_pass",
        runs[0].events as f64,
        "count",
    ));
    report.notes.push(format!(
        "ops_per_s is simulator events per host second over all {} threads; the latency metrics are host time per simulation job ({} jobs per pass, {passes} passes per thread, scale {scale:?})",
        cfg.threads,
        jobs.len()
    ));
    let digest = check_sim_passes(report, &jobs, &runs);
    report.text.push(("sim_results_digest".into(), digest));
    Ok(())
}

/// Every pass must produce the same points field for field, every point
/// must reconstruct, and declustering (G = 4) must rebuild faster than
/// RAID 5 (G = 21) under every algorithm. Returns the digest of the
/// points.
pub fn check_sim_passes(
    report: &mut Report,
    jobs: &[(u16, ReconAlgorithm)],
    runs: &[SimPass],
) -> String {
    let digest = sim_digest(&runs[0].points);
    for (i, run) in runs.iter().enumerate().skip(1) {
        report.check(
            sim_digest(&run.points) == digest && run.events == runs[0].events,
            || format!("pass {i} simulated something else than pass 0"),
        );
    }
    let points = &runs[0].points;
    report.check(points.iter().all(|p| p.recon_secs.is_some()), || {
        "a point hit the simulation limit before reconstructing".into()
    });
    let recon = |g: u16, a: ReconAlgorithm| {
        jobs.iter()
            .position(|&j| j == (g, a))
            .and_then(|i| points[i].recon_secs)
    };
    for a in ReconAlgorithm::ALL {
        if let (Some(g4), Some(g21)) = (recon(4, a), recon(21, a)) {
            report.check(g4 < g21, || {
                format!("{a:?}: G=4 rebuilt in {g4} s, not faster than G=21 in {g21} s")
            });
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seconds: f64) -> Config {
        Config {
            workload: "healthy-small".into(),
            seed: 1,
            seconds,
            trace: false,
            smoke: false,
            out: PathBuf::new(),
            threads: 2,
            corrupt: false,
        }
    }

    #[test]
    fn a_run_is_a_warm_up_and_whole_windows() {
        let cfg = config(15.0);
        assert_eq!(cfg.windows(), 54);
        assert_eq!(cfg.warmup() + cfg.window() * 54, Duration::from_secs(15));
        // A short run keeps five windows to take a median of.
        assert_eq!(config(1.0).windows(), 5);
        assert_eq!(config(1.0).window(), Duration::from_millis(180));
    }

    #[test]
    fn every_rebuild_cycle_is_a_window_of_its_own() {
        let mut run = RebuildRun {
            rebuild_s: vec![0.2, 0.3, 0.25],
            overhead_ms: Vec::new(),
            reads: Samples::with_capacity(16),
            writes: Samples::with_capacity(16),
            marks: vec![(0, 0), (10, 2), (10, 3)],
            response: Samples::with_capacity(0),
            late: Samples::with_capacity(0),
        };
        // Ten reads in the first cycle, none in the second, one in the
        // third; two writes, one write, one write.
        for us in (1..=10).chain([40]) {
            run.reads.push(Duration::from_micros(us));
        }
        for us in [7, 9, 20, 30] {
            run.writes.push(Duration::from_micros(us));
        }
        let [reads, writes] = run.call_latency();
        let p50 = |ls: &[Latency]| ls.iter().map(|l| l.p50).collect::<Vec<f64>>();
        let p90 = |ls: &[Latency]| ls.iter().map(|l| l.p90).collect::<Vec<f64>>();
        assert_eq!(
            p50(&reads),
            [5.0, 40.0],
            "a cycle without reads is left out"
        );
        assert_eq!(p90(&reads), [9.0, 40.0]);
        assert_eq!(reads[0].p99, 10.0);
        assert_eq!(p50(&writes), [7.0, 20.0, 30.0]);
        assert_eq!(p90(&writes), [9.0, 20.0, 30.0]);
        assert_eq!(run.units_per_s(100), [500.0, 100.0 / 0.3, 400.0]);
    }
}
