//! The per-layer ladder of a traced run: every rung timed from outside,
//! through the layer's public functions, single-threaded unless stated.
//!
//! The ladder does not depend on the workload the run was asked for, so
//! every traced run reports every layer metric; only
//! `trace.overhead_frac` and the trace file belong to the workload.

use crate::ledger::UNIT;
use crate::load::{
    closed_window, ClientTarget, StoreTarget, Stream, Target, Traced, Worker, BLOCKS_PER_UNIT,
    LARGE_UNITS,
};
use crate::report::{Metric, Report};
use crate::scratch::Scratch;
use crate::trace;
use crate::workloads::{
    check_sim_passes, close_store, connect, fault_total, format_store, ms, parse_spec,
    rebuild_cycles, sim_pass, spawn_server, stop_server, store_err, Config, Formatted, FAILED_DISK,
    SIM_RATE, STORE_SPEC,
};
use decluster_array::plan::{plan_user_access, FaultView};
use decluster_array::ArraySim;
use decluster_core::layout::{ArrayMapping, UnitAddr};
use decluster_core::recon::ReconAlgorithm;
use decluster_disk::{Disk, DiskRequest, Geometry, IoKind};
use decluster_experiments::{alpha_sweep, paper_layout};
use decluster_server::protocol::{encode_request, Opcode, RequestHeader};
use decluster_sim::{EventQueue, SimRng, SimTime};
use decluster_store::checksum::fingerprint64;
use decluster_store::{parity, BlockStore, DiskBackend, FileBackend};
use decluster_workload::{AccessKind, Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries in the precomputed index tables the tight loops walk, so the
/// loop itself adds one masked load to what it measures.
const TABLE: usize = 4096;

/// Mean nanoseconds per call of `f`, called in batches until `dur` has
/// passed. For calls too short to time one by one.
fn ns_per_call(dur: Duration, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    loop {
        for i in calls..calls + 256 {
            f(i);
        }
        calls += 256;
        let elapsed = start.elapsed();
        if elapsed >= dur {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Mean microseconds of the part of each call that `f` itself times,
/// repeated until `dur` has passed. Lets a call prepare its input
/// outside the timed part.
fn us_per_op(
    dur: Duration,
    mut f: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut timed = Duration::ZERO;
    let mut calls = 0usize;
    while start.elapsed() < dur || calls == 0 {
        timed += f(calls)?;
        calls += 1;
    }
    Ok(timed.as_secs_f64() * 1e6 / calls as f64)
}

fn table(rng: &mut SimRng, bound: u64) -> Vec<u64> {
    (0..TABLE).map(|_| rng.below(bound)).collect()
}

/// Everything the ladder measures. `cfg.seconds` scales every rung.
pub fn ladder(cfg: &Config, report: &mut Report) -> Result<(), String> {
    // One rung's time slice, and a shorter run shape for the rungs that
    // reuse the window machinery (0.25 s windows at the default length).
    let rung = Duration::from_secs_f64(cfg.seconds / 150.0);
    let short = Config {
        seconds: cfg.seconds / 6.0,
        ..cfg.clone()
    };
    let mut rng = SimRng::new(cfg.seed).fork(0x1add);
    let kernels = core_and_kernels(cfg, report, rung, &mut rng)?;
    backend(cfg, report, rung, &mut rng)?;
    let store = store_rungs(cfg, &short, report, rung, &mut rng)?;
    server_rungs(cfg, &short, report, rung, &mut rng, store.read_unit_us)?;
    sim_rungs(cfg, report, rung, &mut rng)?;
    shares(cfg, &short, report, &kernels, &store)
}

/// Kernel timings the share estimates need again.
struct Kernels {
    logical_to_addr_ns: f64,
    stripe_units_ns: f64,
    xor_delta_ns_per_unit: f64,
    fingerprint_ns_per_unit: f64,
}

fn core_and_kernels(
    cfg: &Config,
    report: &mut Report,
    rung: Duration,
    rng: &mut SimRng,
) -> Result<Kernels, String> {
    let units = cfg.units_per_disk();
    let build = |spec: &str| -> Result<ArrayMapping, String> {
        let layout = parse_spec(spec)?
            .build()
            .map_err(|e| format!("layout {spec}: {e}"))?;
        ArrayMapping::new(layout, units).map_err(|e| format!("mapping {spec}: {e}"))
    };
    let start = Instant::now();
    let mut builds = 0;
    while start.elapsed() < rung || builds == 0 {
        black_box(build(STORE_SPEC)?);
        builds += 1;
    }
    report.push(Metric::single(
        "core.spec_build_ms",
        ms(start.elapsed()) / builds as f64,
        "ms",
    ));

    let mut kernels = Kernels {
        logical_to_addr_ns: 0.0,
        stripe_units_ns: 0.0,
        xor_delta_ns_per_unit: 0.0,
        fingerprint_ns_per_unit: 0.0,
    };
    for (family, spec) in [
        ("bibd", STORE_SPEC),
        ("raid5", "raid5:c10"),
        ("prime", "prime:c11g4"),
        ("pq", "pq:c10g5"),
    ] {
        let m = build(spec)?;
        let logicals = table(rng, m.data_units());
        let stripes: Vec<u64> = table(rng, m.stripes())
            .into_iter()
            .map(|seq| m.stripe_by_seq(seq))
            .collect();
        let to_addr = ns_per_call(rung, |i| {
            black_box(m.logical_to_addr(logicals[i % TABLE]));
        });
        let mut out = Vec::with_capacity(m.stripe_width() as usize);
        let stripe_units = ns_per_call(rung, |i| {
            out.clear();
            m.stripe_units_into(stripes[i % TABLE], &mut out);
            black_box(&out);
        });
        report.push(Metric::single(
            format!("core.logical_to_addr_ns.{family}"),
            to_addr,
            "ns",
        ));
        report.push(Metric::single(
            format!("core.stripe_units_into_ns.{family}"),
            stripe_units,
            "ns",
        ));
        if family == "bibd" {
            kernels.logical_to_addr_ns = to_addr;
            kernels.stripe_units_ns = stripe_units;
            let addrs: Vec<UnitAddr> = logicals.iter().map(|&l| m.logical_to_addr(l)).collect();
            let to_logical = ns_per_call(rung, |i| {
                black_box(m.addr_to_logical(addrs[i % TABLE]));
            });
            let role = ns_per_call(rung, |i| {
                let a = addrs[i % TABLE];
                black_box(m.role_at(a.disk, a.offset));
            });
            report.push(Metric::single(
                "core.addr_to_logical_ns.bibd",
                to_logical,
                "ns",
            ));
            report.push(Metric::single("core.role_at_ns.bibd", role, "ns"));
        }
    }

    // XOR, GF(256) and checksum kernels on one 4 KiB unit; GB/s counts
    // the unit's bytes once per call.
    let mut a = vec![0u8; UNIT];
    let mut b = vec![0u8; UNIT];
    let mut c = vec![0u8; UNIT];
    for buf in [&mut a, &mut b, &mut c] {
        buf.iter_mut().for_each(|x| *x = rng.below(256) as u8);
    }
    let gbps = |ns: f64| UNIT as f64 / ns;
    let xor_into = ns_per_call(rung, |_| {
        parity::xor_into(&mut a, &b);
        black_box(&a);
    });
    let xor_delta = ns_per_call(rung, |_| {
        parity::xor_delta(&mut a, &b, &c);
        black_box(&a);
    });
    let gf_mul = ns_per_call(rung, |i| {
        parity::gf_mul_into(&mut a, &b, (i % 254) as u8 + 2);
        black_box(&a);
    });
    let gf_solve = ns_per_call(rung, |_| {
        parity::gf_solve_two_data(0, 2, &mut a, &mut b);
        black_box((&a, &b));
    });
    let fingerprint = ns_per_call(rung, |_| {
        black_box(fingerprint64(black_box(&c)));
    });
    report.push(Metric::single(
        "parity.xor_into_gbps",
        gbps(xor_into),
        "GB/s",
    ));
    report.push(Metric::single(
        "parity.xor_delta_gbps",
        gbps(xor_delta),
        "GB/s",
    ));
    report.push(Metric::single(
        "parity.gf_mul_into_gbps",
        gbps(gf_mul),
        "GB/s",
    ));
    report.push(Metric::single(
        "parity.gf_solve_two_data_gbps",
        gbps(gf_solve),
        "GB/s",
    ));
    report.push(Metric::single(
        "checksum.fingerprint64_gbps",
        gbps(fingerprint),
        "GB/s",
    ));
    kernels.xor_delta_ns_per_unit = xor_delta;
    kernels.fingerprint_ns_per_unit = fingerprint;
    Ok(kernels)
}

/// `FileBackend` through the `DiskBackend` trait on one page-cache
/// resident file the size of a store disk.
fn backend(
    cfg: &Config,
    report: &mut Report,
    rung: Duration,
    rng: &mut SimRng,
) -> Result<(), String> {
    let scratch = Scratch::new(&cfg.out, "backend")?;
    let path = scratch.path().join("disk.dat");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(io)?;
    let disk: Box<dyn DiskBackend> = Box::new(FileBackend::new(file));
    let len = cfg.units_per_disk() * UNIT as u64;
    let mut big = vec![0u8; 64 << 10];
    big.iter_mut().for_each(|x| *x = rng.below(256) as u8);
    disk.set_len(len).map_err(io)?;
    for pos in (0..len).step_by(big.len()) {
        disk.write_at(&big[..big.len().min((len - pos) as usize)], pos)
            .map_err(io)?;
    }
    disk.sync().map_err(io)?;

    for (name, bytes) in [("4k", 4 << 10), ("64k", 64 << 10)] {
        let slots = table(rng, len / bytes as u64);
        let pos = |i: usize| slots[i % TABLE] * bytes as u64;
        let mut failed = None;
        let read = ns_per_call(rung, |i| {
            if let Err(e) = disk.read_at(&mut big[..bytes], pos(i)) {
                failed = Some(e);
            }
        });
        let write = ns_per_call(rung, |i| {
            if let Err(e) = disk.write_at(&big[..bytes], pos(i)) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(io(e));
        }
        report.push(Metric::single(
            format!("backend.read_at_{name}_us"),
            read / 1e3,
            "us",
        ));
        report.push(Metric::single(
            format!("backend.write_at_{name}_us"),
            write / 1e3,
            "us",
        ));
    }
    // A sync with 64 freshly dirtied units behind it, as at the end of
    // a rebuild or a flush.
    let mut syncs = Vec::new();
    let start = Instant::now();
    while start.elapsed() < rung * 2 || syncs.len() < 3 {
        for _ in 0..64 {
            disk.write_at(&big[..UNIT], rng.below(len / UNIT as u64) * UNIT as u64)
                .map_err(io)?;
        }
        let t = Instant::now();
        disk.sync().map_err(io)?;
        syncs.push(ms(t.elapsed()));
    }
    report.push(
        Metric::single("backend.sync_ms", crate::stats::median(&syncs), "ms")
            .with_samples(syncs.len() as u64),
    );
    Ok(())
}

/// What later rungs need from the store rungs.
struct StoreRungs {
    read_unit_us: f64,
    write_unit_us: f64,
    dev_reads_per_read: f64,
    dev_reads_per_write: f64,
    dev_writes_per_write: f64,
}

fn io_totals(store: &BlockStore) -> (u64, u64) {
    store
        .io_counters()
        .iter()
        .fold((0, 0), |(r, w), c| (r + c.reads, w + c.writes))
}

/// Times `op` on units drawn from `units`; a write rewrites what the
/// unit holds (read first, outside the timed part), so the ledger and
/// the parity stay valid. Returns (µs per op, device reads per op,
/// device writes per op).
fn op_class(
    store: &BlockStore,
    rung: Duration,
    units: &[u64],
    count: u64,
    write: bool,
) -> Result<(f64, f64, f64), String> {
    let mut buf = vec![0u8; count as usize * UNIT];
    let (mut reads, mut writes, mut calls) = (0, 0, 0u64);
    let us = us_per_op(rung, |i| {
        let block = units[i % units.len()] * BLOCKS_PER_UNIT;
        if write {
            store
                .read_blocks(block, &mut buf)
                .map_err(store_err("read"))?;
        }
        let before = io_totals(store);
        let t = Instant::now();
        let res = if write {
            store.write_blocks(block, &buf)
        } else {
            store.read_blocks(block, &mut buf)
        };
        let took = t.elapsed();
        res.map_err(store_err("store op"))?;
        let after = io_totals(store);
        reads += after.0 - before.0;
        writes += after.1 - before.1;
        calls += 1;
        Ok(took)
    })?;
    Ok((
        us,
        reads as f64 / calls as f64,
        writes as f64 / calls as f64,
    ))
}

/// Checks an unloaded rebuild: every survivor read within ±2 % of α.
fn check_alpha(report: &mut Report, rep: &decluster_store::RebuildReport) -> (f64, f64) {
    let fractions: Vec<f64> = (0..rep.disk_reads.len() as u16)
        .filter(|d| !rep.failed_disks.contains(d))
        .map(|d| rep.read_fraction(d))
        .collect();
    let min = fractions.iter().copied().fold(f64::MAX, f64::min);
    let max = fractions.iter().copied().fold(f64::MIN, f64::max);
    report.check(min >= rep.alpha * 0.98 && max <= rep.alpha * 1.02, || {
        format!(
            "unloaded rebuild read {min:.4}..{max:.4} of each survivor, alpha is {:.4}",
            rep.alpha
        )
    });
    (min, max)
}

/// Formats a store of `spec` (units per disk rounded down to whole
/// layout tables), fails disk 0, installs a replacement and rebuilds
/// with nothing else running.
fn unloaded_rebuild(
    cfg: &Config,
    report: &mut Report,
    spec: &str,
) -> Result<decluster_store::RebuildReport, String> {
    let table = parse_spec(spec)?
        .build()
        .map_err(|e| format!("layout {spec}: {e}"))?
        .table_height();
    let units = (cfg.units_per_disk() / table).max(1) * table;
    let f = format_store(cfg, spec, units, false)?;
    f.store.fail_disk(0).map_err(store_err("fail_disk"))?;
    f.store.replace_disk().map_err(store_err("replace_disk"))?;
    let rep = f.store.rebuild(1).map_err(store_err("rebuild"))?;
    let parity = f.store.verify_parity();
    report.check(parity.is_ok(), || {
        format!("{spec} after rebuild: {parity:?}")
    });
    close_store(f)?;
    Ok(rep)
}

fn store_rungs(
    cfg: &Config,
    short: &Config,
    report: &mut Report,
    rung: Duration,
    rng: &mut SimRng,
) -> Result<StoreRungs, String> {
    // Lifecycle: create and flush from the format, then close and open.
    let Formatted {
        store,
        ledger,
        scratch,
        create_ms,
        flush_ms,
        ..
    } = format_store(cfg, STORE_SPEC, cfg.units_per_disk(), false)?;
    report.push(Metric::single("store.create_ms", create_ms, "ms"));
    report.push(Metric::single("store.flush_ms", flush_ms, "ms"));
    let store = std::sync::Arc::try_unwrap(store).map_err(|_| "store is shared".to_string())?;
    let t = Instant::now();
    store.close().map_err(store_err("close"))?;
    report.push(Metric::single("store.close_ms", ms(t.elapsed()), "ms"));
    let t = Instant::now();
    let (store, recovery) = BlockStore::open(scratch.path()).map_err(store_err("open"))?;
    report.push(Metric::single("store.open_ms", ms(t.elapsed()), "ms"));
    report.check(recovery.is_none(), || {
        "a cleanly closed store ran recovery".into()
    });
    report.push(Metric::single(
        "store.stored_bytes_per_user_byte",
        scratch.stored_bytes() as f64 / (store.data_units() * UNIT as u64) as f64,
        "ratio",
    ));

    // Op classes, one thread, fault-free.
    let du = store.data_units();
    let any = table(rng, du);
    let (read_unit_us, dev_reads_per_read, _) = op_class(&store, rung, &any, 1, false)?;
    let (write_unit_us, dev_reads_per_write, dev_writes_per_write) =
        op_class(&store, rung, &any, 1, true)?;
    let per_stripe = store.mapping().data_units_per_stripe() as u64;
    let stripe_starts: Vec<u64> = table(rng, du / per_stripe)
        .iter()
        .map(|s| s * per_stripe)
        .collect();
    let (full_stripe_us, _, _) = op_class(&store, rung, &stripe_starts, per_stripe, true)?;
    let large: Vec<u64> = table(rng, du / LARGE_UNITS)
        .iter()
        .map(|s| s * LARGE_UNITS)
        .collect();
    let (read_768k_us, _, _) = op_class(&store, rung, &large, LARGE_UNITS, false)?;
    let (_, _, large_writes) = op_class(&store, rung, &large, LARGE_UNITS, true)?;
    report.push(Metric::single("store.read_unit_us", read_unit_us, "us"));
    report.push(Metric::single("store.write_unit_us", write_unit_us, "us"));
    report.push(Metric::single(
        "store.full_stripe_write_us",
        full_stripe_us,
        "us",
    ));
    report.push(Metric::single("store.read_768k_us", read_768k_us, "us"));
    report.push(Metric::single(
        "store.dev_reads_per_user_read",
        dev_reads_per_read,
        "ratio",
    ));
    report.push(Metric::single(
        "store.dev_reads_per_user_write",
        dev_reads_per_write,
        "ratio",
    ));
    report.push(Metric::single(
        "store.dev_writes_per_user_write",
        dev_writes_per_write,
        "ratio",
    ));
    report.push(Metric::single(
        "store.dev_writes_per_user_unit.large",
        large_writes / LARGE_UNITS as f64,
        "ratio",
    ));

    // Waiting: the small mix on one thread and on all of them.
    let before = store.io_counters();
    let mut rates = Vec::new();
    for lanes in [1, cfg.threads as u64] {
        let mut workers: Vec<_> = (0..lanes)
            .map(|lane| {
                let stream = Stream::new(cfg.seed, lane, lanes, du, 1);
                Worker::new(StoreTarget(&store), stream, 0)
            })
            .collect();
        rates.push(closed_window(&mut workers, &ledger, short.window() * 2).ops_per_s);
        for w in &workers {
            report.attempted += w.attempted;
            report.failed += w.failed;
        }
    }
    report.push(Metric::single(
        "store.scaling_eff",
        rates[1] / (cfg.threads as f64 * rates[0]),
        "ratio",
    ));
    let load: Vec<f64> = store
        .io_counters()
        .iter()
        .zip(&before)
        .map(|(a, b)| ((a.reads - b.reads) + (a.writes - b.writes)) as f64)
        .collect();
    report.push(Metric::single(
        "store.disk_load_max_over_mean",
        load.iter().copied().fold(f64::MIN, f64::max) * load.len() as f64
            / load.iter().sum::<f64>(),
        "ratio",
    ));

    // Degraded: the reconstruct paths on the failed disk's units only,
    // and device reads per read over the whole address space.
    store
        .fail_disk(FAILED_DISK)
        .map_err(store_err("fail_disk"))?;
    let on_failed: Vec<u64> = (0..du)
        .filter(|&l| store.mapping().logical_to_addr(l).disk == FAILED_DISK)
        .take(TABLE)
        .collect();
    let (degraded_read_us, _, _) = op_class(&store, rung, &on_failed, 1, false)?;
    let (degraded_write_us, _, _) = op_class(&store, rung, &on_failed, 1, true)?;
    let (_, degraded_reads, _) = op_class(&store, rung, &any, 1, false)?;
    report.push(Metric::single(
        "store.degraded_read_us",
        degraded_read_us,
        "us",
    ));
    report.push(Metric::single(
        "store.degraded_write_us",
        degraded_write_us,
        "us",
    ));
    report.push(Metric::single(
        "store.dev_reads_per_user_read.degraded",
        degraded_reads,
        "ratio",
    ));

    // Rebuild with nothing else running, per layout; then under load.
    store.replace_disk().map_err(store_err("replace_disk"))?;
    let rep = store.rebuild(1).map_err(store_err("rebuild"))?;
    let (min, max) = check_alpha(report, &rep);
    report.push(Metric::single(
        "store.rebuild_unloaded_s.bibd-c10g4",
        rep.wall_secs,
        "s",
    ));
    report.push(Metric::single(
        "store.rebuild_read_fraction_min",
        min,
        "ratio",
    ));
    report.push(Metric::single(
        "store.rebuild_read_fraction_max",
        max,
        "ratio",
    ));
    let raid5 = unloaded_rebuild(cfg, report, "raid5:c10")?;
    check_alpha(report, &raid5);
    report.push(Metric::single(
        "store.rebuild_unloaded_s.raid5-c10",
        raid5.wall_secs,
        "s",
    ));
    let pq = unloaded_rebuild(cfg, report, "pq:c10g5")?;
    report.push(Metric::single(
        "store.rebuild_unloaded_s.pq-c10g5",
        pq.wall_secs,
        "s",
    ));
    report.push(Metric::single(
        "store.rebuild_reads_per_lost_unit.pq-c10g5",
        pq.disk_reads.iter().sum::<u64>() as f64 / pq.units_rebuilt as f64,
        "ratio",
    ));
    // A few fail/replace/rebuild cycles (0.3 s each here).
    let loaded = Config {
        seconds: cfg.seconds / 9.0,
        ..cfg.clone()
    };
    rebuild_cycles(&loaded, report, &store, &ledger, StoreTarget(&store), false)?
        .push_layer_metrics(report);

    // The gate for the ladder's own store.
    let (checked, bad) = crate::load::read_back(&mut StoreTarget(&store), &ledger);
    report.attempted += checked;
    report.failed += bad;
    let parity = store.verify_parity();
    report.check(parity.is_ok(), || format!("ladder store: {parity:?}"));
    let f = store.fault_counters();
    report.push(Metric::single(
        "store.fault_counters_total",
        fault_total(&f) as f64,
        "count",
    ));
    report.check(fault_total(&f) == 0, || {
        format!("ladder store fault counters: {f:?}")
    });
    store.close().map_err(store_err("close"))?;
    Ok(StoreRungs {
        read_unit_us,
        write_unit_us,
        dev_reads_per_read,
        dev_reads_per_write,
        dev_writes_per_write,
    })
}

fn server_rungs(
    cfg: &Config,
    short: &Config,
    report: &mut Report,
    rung: Duration,
    rng: &mut SimRng,
    store_read_unit_us: f64,
) -> Result<(), String> {
    // Framing: one 4 KiB WRITE request.
    let body = vec![0xA5u8; UNIT];
    let header = RequestHeader {
        req_id: 1,
        opcode: Opcode::Write,
        flags: 0,
        deadline_us: 0,
        a: 8,
        b: 0,
    };
    let frame = encode_request(&header, &body);
    let encode = ns_per_call(rung, |_| {
        black_box(encode_request(black_box(&header), black_box(&body)));
    });
    let decode = ns_per_call(rung, |_| {
        black_box(RequestHeader::decode(black_box(&frame[4..])));
    });
    report.push(Metric::single("server.protocol_encode_ns", encode, "ns"));
    report.push(Metric::single("server.protocol_decode_ns", decode, "ns"));

    let f = format_store(cfg, STORE_SPEC, cfg.units_per_disk(), false)?;
    let t = Instant::now();
    let server = spawn_server(&f)?;
    report.push(Metric::single("server.spawn_ms", ms(t.elapsed()), "ms"));
    let t = Instant::now();
    let mut client = connect(&server)?;
    report.push(Metric::single("server.connect_ms", ms(t.elapsed()), "ms"));

    // One connection, closed loop.
    let units = table(rng, f.ledger.units());
    let mut buf = Vec::new();
    let rtt_stats = us_per_op(rung, |_| {
        let t = Instant::now();
        client.0.stats().map_err(|e| format!("STATS: {e}"))?;
        Ok(t.elapsed())
    })?;
    let rtt_read = us_per_op(rung, |i| {
        let t = Instant::now();
        client.read(units[i % TABLE], 1, &mut buf)?;
        Ok(t.elapsed())
    })?;
    let rtt_write = us_per_op(rung, |i| {
        let unit = units[i % TABLE];
        client.read(unit, 1, &mut buf)?;
        let t = Instant::now();
        client.write(unit, &buf)?;
        Ok(t.elapsed())
    })?;
    report.push(Metric::single("server.rtt_stats_us", rtt_stats, "us"));
    report.push(Metric::single("server.rtt_read_us", rtt_read, "us"));
    report.push(Metric::single("server.rtt_write_us", rtt_write, "us"));
    report.push(Metric::single(
        "server.overhead_read_us",
        rtt_read - store_read_unit_us,
        "us",
    ));
    report.push(Metric::single(
        "server.store_share_read",
        store_read_unit_us / rtt_read,
        "ratio",
    ));
    let mut incidents = client.incidents();
    let (mut overloaded, mut reconnects) = (client.0.overload_backoffs(), client.0.reconnects());
    drop(client);

    let mut rates = Vec::new();
    for lanes in [1, cfg.threads as u64] {
        let mut workers = (0..lanes)
            .map(|lane| {
                let stream = Stream::new(cfg.seed, lane, lanes, f.ledger.units(), 1);
                connect(&server).map(|c| Worker::new(c, stream, 0))
            })
            .collect::<Result<Vec<Worker<ClientTarget>>, String>>()?;
        rates.push(closed_window(&mut workers, &f.ledger, short.window() * 2).ops_per_s);
        for w in &workers {
            report.attempted += w.attempted;
            report.failed += w.failed;
            incidents += w.target.incidents();
            overloaded += w.target.0.overload_backoffs();
            reconnects += w.target.0.reconnects();
        }
    }
    report.push(Metric::single(
        "server.scaling_eff",
        rates[1] / (cfg.threads as f64 * rates[0]),
        "ratio",
    ));
    report.push(Metric::single(
        "server.overloaded",
        overloaded as f64,
        "count",
    ));
    report.push(Metric::single(
        "server.reconnects",
        reconnects as f64,
        "count",
    ));
    report.check(incidents == 0, || {
        format!("server rungs saw {overloaded} overload back-offs and {reconnects} reconnects")
    });

    let t = Instant::now();
    stop_server(server)?;
    report.push(Metric::single("server.stop_ms", ms(t.elapsed()), "ms"));
    let parity = f.store.verify_parity();
    report.check(parity.is_ok(), || format!("server rung store: {parity:?}"));
    close_store(f)
}

fn sim_rungs(
    cfg: &Config,
    report: &mut Report,
    rung: Duration,
    rng: &mut SimRng,
) -> Result<(), String> {
    // EventQueue: schedule + pop with 1 000 events pending.
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(1024);
    for i in 0..1000 {
        queue.schedule_after(SimTime::from_ms_f64(rng.f64() * 10.0), i);
    }
    let delays: Vec<SimTime> = (0..TABLE)
        .map(|_| SimTime::from_ms_f64(rng.f64() * 10.0))
        .collect();
    let per_event = ns_per_call(rung, |i| {
        let (_, e) = queue.pop().expect("1 000 events pending");
        queue.schedule_after(delays[i % TABLE], e);
    });
    report.push(Metric::single("sim.queue_ns_per_event", per_event, "ns"));

    // Disk: submit + complete of one 4 KiB read on an idle disk.
    let scale = cfg.sim_scale();
    let geometry = Geometry::ibm0661_scaled(scale.cylinders);
    let sectors = table(rng, geometry.total_sectors() - 8);
    let mut disk = Disk::new(geometry, 0);
    let mut now = SimTime::ZERO;
    let per_io = ns_per_call(rung, |i| {
        let req = DiskRequest::new(i as u64, sectors[i % TABLE], 8, IoKind::Read);
        let done = disk.submit(now, req).expect("the disk is idle");
        now = done.at;
        black_box(disk.complete(now));
    });
    report.push(Metric::single("disk.ns_per_io", per_io, "ns"));

    let layout = paper_layout(4).map_err(|e| e.to_string())?;
    let mapping =
        ArrayMapping::new(layout.clone(), scale.units_per_disk()).map_err(|e| e.to_string())?;
    let mut workload = Workload::new(
        WorkloadSpec::half_and_half(SIM_RATE),
        mapping.data_units(),
        cfg.seed,
    );
    let next_request = ns_per_call(rung, |_| {
        black_box(workload.next_request());
    });
    report.push(Metric::single(
        "workload.next_request_ns",
        next_request,
        "ns",
    ));

    let logicals = table(rng, mapping.data_units());
    for (name, view) in [
        ("fault_free", FaultView::FaultFree),
        ("degraded", FaultView::Degraded { failed: 0 }),
    ] {
        let plan = ns_per_call(rung, |i| {
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            black_box(plan_user_access(&mapping, kind, logicals[i % TABLE], view));
        });
        report.push(Metric::single(format!("array.plan_ns.{name}"), plan, "ns"));
    }

    // Host time per simulator event, fault-free and reconstructing.
    let t = Instant::now();
    let sim = ArraySim::new(
        layout,
        scale.array_config(),
        WorkloadSpec::half_and_half(SIM_RATE),
        1,
    )
    .map_err(|e| e.to_string())?;
    let run = sim.run_for(
        SimTime::from_secs(scale.duration_secs),
        SimTime::from_secs(scale.warmup_secs),
    );
    report.push(Metric::single(
        "array.host_ns_per_event.fault_free",
        t.elapsed().as_nanos() as f64 / run.events_processed as f64,
        "ns",
    ));
    let jobs: Vec<(u16, ReconAlgorithm)> = alpha_sweep()
        .into_iter()
        .map(|(g, _)| (g, ReconAlgorithm::Baseline))
        .collect();
    let one = sim_pass(&scale, &jobs, 1)?;
    let all = sim_pass(&scale, &jobs, cfg.threads)?;
    report.attempted += 2 * jobs.len() as u64;
    report.push(Metric::single(
        "array.host_ns_per_event.recon",
        one.wall_secs * 1e9 / one.events as f64,
        "ns",
    ));
    report.push(Metric::single(
        "experiments.runner_speedup",
        one.wall_secs / all.wall_secs,
        "ratio",
    ));
    for g in [4u16, 21] {
        let point = &one.points[jobs.iter().position(|j| j.0 == g).expect("paper G")];
        report.push(Metric::single(
            format!("sim.recon_secs.g{g}"),
            point.recon_secs.unwrap_or(f64::NAN),
            "s",
        ));
        report.push(Metric::single(
            format!("sim.user_ms.g{g}"),
            point.user_ms,
            "ms",
        ));
    }
    report.push(Metric::single(
        "sim.events_total",
        one.events as f64,
        "count",
    ));
    let digest = check_sim_passes(report, &jobs, &[one, all]);
    report.text.push(("sim_ladder_digest".into(), digest));
    Ok(())
}

/// Each rung as a share of the rung above: measured from spans on a
/// traced single-thread `healthy-small` window, and estimated from
/// kernel timings × per-op counts (what is left is locks, the intent
/// bitmap, the buffer pool and the state mutex).
fn shares(
    cfg: &Config,
    short: &Config,
    report: &mut Report,
    k: &Kernels,
    s: &StoreRungs,
) -> Result<(), String> {
    let f = format_store(cfg, STORE_SPEC, cfg.units_per_disk(), true)?;
    let stream = Stream::new(cfg.seed, 0, 1, f.ledger.units(), 1);
    let mut workers = vec![Worker::new(
        Traced::new(StoreTarget(&f.store), 1),
        stream,
        0,
    )];
    closed_window(&mut workers, &f.ledger, short.window());
    trace::set_enabled(true);
    closed_window(&mut workers, &f.ledger, short.window() * 2);
    trace::set_enabled(false);
    report.attempted += workers[0].attempted;
    report.failed += workers[0].failed;
    drop(workers);
    let spans: Vec<trace::Span> = trace::drain().into_iter().flat_map(|t| t.spans).collect();
    let totals = trace::totals_by_name(&spans);
    for (dir, name) in [
        ("read", "store.read_blocks"),
        ("write", "store.write_blocks"),
    ] {
        let t = totals.get(name).copied().unwrap_or_default();
        report.check(t.spans > 0, || format!("no {name} span recorded"));
        report.push(
            Metric::single(
                format!("store.{dir}_self_us"),
                t.self_ns as f64 / t.spans.max(1) as f64 / 1e3,
                "us",
            )
            .with_samples(t.spans),
        );
        report.push(Metric::single(
            format!("store.{dir}_backend_share"),
            1.0 - t.self_ns as f64 / t.total_ns.max(1) as f64,
            "ratio",
        ));
    }
    close_store(f)?;

    let backend_read = report.value("backend.read_at_4k_us");
    let backend_write = report.value("backend.write_at_4k_us");
    let fingerprint_us = k.fingerprint_ns_per_unit / 1e3;
    // A small read: one device read, one checksum, two mapping lookups.
    let read = [
        ("backend", s.dev_reads_per_read * backend_read),
        ("checksum", s.dev_reads_per_read * fingerprint_us),
        ("core", 2.0 * k.logical_to_addr_ns / 1e3),
    ];
    // A small write: device reads and writes as counted, a checksum
    // per device access, one xor_delta, the stripe's unit list.
    let write = [
        (
            "backend",
            s.dev_reads_per_write * backend_read + s.dev_writes_per_write * backend_write,
        ),
        (
            "checksum",
            (s.dev_reads_per_write + s.dev_writes_per_write) * fingerprint_us,
        ),
        ("parity", k.xor_delta_ns_per_unit / 1e3),
        ("core", (k.logical_to_addr_ns + k.stripe_units_ns) / 1e3),
    ];
    for (dir, total_us, parts) in [
        ("read", s.read_unit_us, &read[..]),
        ("write", s.write_unit_us, &write[..]),
    ] {
        let mut rest = 1.0;
        for (part, us) in parts {
            report.push(Metric::single(
                format!("store.{dir}_share.{part}"),
                us / total_us,
                "ratio",
            ));
            rest -= us / total_us;
        }
        report.push(Metric::single(
            format!("store.{dir}_unattributed_share"),
            rest,
            "ratio",
        ));
    }
    Ok(())
}
