//! The hostile-disk torture campaign: a seeded, randomized workload
//! hammers a [`BlockStore`] whose every disk sits on a [`FaultyBackend`],
//! while the harness injects transient and persistent media errors,
//! silent corruption, a torn write, a mid-run crash, a limping disk,
//! and an error-budget demotion with online rebuild — then demands
//!
//! * the final array is **byte-identical** to the in-memory oracle
//!   (`DataArray`) that replayed the same operations;
//! * the fault ledger balances exactly: every injected checksum/EIO
//!   episode was detected, and every detection resolved as a retry
//!   success, a parity read-repair, or a typed escalation;
//! * the demoted disk rebuilt completely.
//!
//! The run's fault report is written as JSON (default
//! `results/torture.json`; schema in `EXPERIMENTS.md`). `--smoke` is
//! the fixed-seed CI-sized variant wired into `scripts/check.sh`.
//!
//! ```text
//! torture [--seed S] [--smoke] [--dir DIR] [--out PATH]
//! ```

use decluster_array::data::DataArray;
use decluster_store::checksum::region_bytes;
use decluster_store::{
    BlockStore, DiskBackend, FaultCounters, FaultPlan, FaultyBackend, FileBackend, InjectedFaults,
    LatencyProfile, LayoutSpec, SUPERBLOCK_BYTES,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const DISKS: u16 = 10;
const GROUP: u16 = 4;
const UNITS_PER_DISK: u64 = 336;
const WRITERS: usize = 8;

struct Config {
    seed: u64,
    smoke: bool,
    unit_bytes: usize,
    ops_per_writer: usize,
    transient_rate: f64,
    targeted_faults: usize,
    crash_batch: usize,
    error_budget: u64,
    limp_us: u64,
}

impl Config {
    fn new(seed: u64, smoke: bool) -> Config {
        if smoke {
            Config {
                seed,
                smoke,
                unit_bytes: 512,
                ops_per_writer: 80,
                transient_rate: 0.004,
                targeted_faults: 4,
                crash_batch: 12,
                error_budget: 2,
                limp_us: 1500,
            }
        } else {
            Config {
                seed,
                smoke,
                unit_bytes: 4096,
                ops_per_writer: 400,
                transient_rate: 0.003,
                targeted_faults: 6,
                crash_batch: 24,
                error_budget: 3,
                limp_us: 2500,
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("torture: {msg}");
    std::process::exit(1);
}

/// Deterministic unit contents keyed by logical address and write
/// generation — the replayable payload both sides agree on.
fn content(logical: u64, generation: u64, unit_bytes: usize) -> Vec<u8> {
    let mut x = logical
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(generation.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        | 1;
    (0..unit_bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Byte position of the unit at `offset` within its backing file.
fn unit_pos(offset: u64, unit_bytes: usize) -> u64 {
    SUPERBLOCK_BYTES + region_bytes(UNITS_PER_DISK) + offset * unit_bytes as u64
}

/// Field-wise sum of two counter snapshots — the crash drops the
/// store's in-memory ledger, so the harness carries the pre-crash
/// generation's totals forward.
fn add_counters(a: FaultCounters, b: FaultCounters) -> FaultCounters {
    FaultCounters {
        media_errors: a.media_errors + b.media_errors,
        checksum_errors: a.checksum_errors + b.checksum_errors,
        retries: a.retries + b.retries,
        retry_successes: a.retry_successes + b.retry_successes,
        repaired: a.repaired + b.repaired,
        repair_units_read: a.repair_units_read + b.repair_units_read,
        repair_units_written: a.repair_units_written + b.repair_units_written,
        escalated: a.escalated + b.escalated,
        hedged_reads: a.hedged_reads + b.hedged_reads,
        hedge_wins: a.hedge_wins + b.hedge_wins,
        demotions: a.demotions + b.demotions,
    }
}

fn sum_injected(plans: &[Arc<FaultPlan>]) -> InjectedFaults {
    let mut total = InjectedFaults::default();
    for p in plans {
        let i = p.injected();
        total.transient_eio += i.transient_eio;
        total.persistent_eio += i.persistent_eio;
        total.corruptions += i.corruptions;
        total.torn_writes += i.torn_writes;
    }
    total
}

fn main() {
    let mut seed: u64 = 0xD15C_7012;
    let mut smoke = false;
    let mut dir: Option<PathBuf> = None;
    let mut out = "results/torture.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a value"))
            }
            "--smoke" => smoke = true,
            "--dir" => {
                dir = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--dir needs a value")),
                ))
            }
            "--out" => out = args.next().unwrap_or_else(|| die("--out needs a value")),
            "--help" | "-h" => {
                eprintln!("usage: torture [--seed S] [--smoke] [--dir DIR] [--out PATH]");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let cfg = Config::new(seed, smoke);
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("decluster-torture-{}", std::process::id()))
    });
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| die(&format!("clear {dir:?}: {e}")));
    }
    run(&cfg, &dir, &out);
}

#[allow(clippy::too_many_lines)]
fn run(cfg: &Config, dir: &Path, out: &str) {
    let started = Instant::now();
    let ub = cfg.unit_bytes;
    let spec = LayoutSpec::Bibd {
        disks: DISKS,
        group: GROUP,
    };
    let plans: Vec<Arc<FaultPlan>> = (0..DISKS)
        .map(|i| FaultPlan::new(cfg.seed ^ ((0x0DD0 + i as u64) * 0x9E37_79B9)))
        .collect();
    let data_start = SUPERBLOCK_BYTES + region_bytes(UNITS_PER_DISK);
    for p in &plans {
        p.set_protect_below(data_start);
    }
    let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
        Box::new(FaultyBackend::new(
            Box::new(FileBackend::new(file)),
            Arc::clone(&plans[i as usize]),
        ))
    };
    let store = BlockStore::create_with_backend(
        dir,
        spec,
        UNITS_PER_DISK,
        ub as u32,
        cfg.seed | 1,
        &factory,
    )
    .unwrap_or_else(|e| die(&format!("create: {e}")));
    let mut oracle = DataArray::new(spec.build().unwrap(), UNITS_PER_DISK, ub)
        .unwrap_or_else(|e| die(&format!("oracle: {e}")));
    let data_units = store.data_units();
    assert_eq!(data_units, oracle.data_units());
    println!(
        "torture: {} disks, G={GROUP}, {data_units} data units × {ub} B, seed {:#x}{}",
        DISKS,
        cfg.seed,
        if cfg.smoke { " (smoke)" } else { "" }
    );

    // ── Phase 0+1: concurrent fill, then the media storm — 8 writers
    // doing mixed reads/writes on disjoint partitions while every disk
    // mints transient EIO episodes. Reads verify live against each
    // writer's own last-written generation.
    println!(
        "phase 1: {WRITERS} writers × {} ops under transient EIO",
        cfg.ops_per_writer
    );
    let gens: HashMap<u64, u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let store = &store;
                let cfg = &*cfg;
                let plans = &plans;
                scope.spawn(move || {
                    let mine: Vec<u64> = (w as u64..data_units).step_by(WRITERS).collect();
                    let mut gens: HashMap<u64, u64> = HashMap::new();
                    // Fill my partition (generation 0)...
                    for &l in &mine {
                        store
                            .write_unit(l, &content(l, 0, cfg.unit_bytes))
                            .unwrap_or_else(|e| die(&format!("fill unit {l}: {e}")));
                        gens.insert(l, 0);
                    }
                    if w == 0 {
                        for p in plans {
                            p.set_transient_read_eio(cfg.transient_rate);
                        }
                    }
                    // ...then the randomized mixed workload.
                    let mut rng =
                        Rng(cfg.seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                    let mut buf = vec![0u8; cfg.unit_bytes];
                    for _ in 0..cfg.ops_per_writer {
                        let l = mine[(rng.next() % mine.len() as u64) as usize];
                        if rng.next().is_multiple_of(2) {
                            store
                                .read_unit(l, &mut buf)
                                .unwrap_or_else(|e| die(&format!("read unit {l}: {e}")));
                            if buf != content(l, gens[&l], cfg.unit_bytes) {
                                die(&format!("writer {w}: unit {l} returned wrong bytes"));
                            }
                        } else {
                            let g = gens[&l] + 1;
                            store
                                .write_unit(l, &content(l, g, cfg.unit_bytes))
                                .unwrap_or_else(|e| die(&format!("write unit {l}: {e}")));
                            gens.insert(l, g);
                        }
                    }
                    gens
                })
            })
            .collect();
        let mut all = HashMap::new();
        for h in handles {
            all.extend(h.join().unwrap_or_else(|_| die("writer panicked")));
        }
        all
    });
    let mut gens = gens;
    for p in &plans {
        p.set_transient_read_eio(0.0);
    }
    for (&l, &g) in &gens {
        oracle.write(l, &content(l, g, ub));
    }
    let storm = store.fault_counters();
    let storm_injected = sum_injected(&plans);
    println!(
        "  transient injected {}, detected {}, retry-resolved {}",
        storm_injected.transient_eio, storm.media_errors, storm.retry_successes
    );
    if storm.media_errors != storm_injected.transient_eio
        || storm.retry_successes != storm.media_errors
    {
        die("media-storm ledger does not balance");
    }

    // ── Phase 2: targeted silent corruption and persistent bad
    // sectors on distinct stripes, each detected and read-repaired.
    println!(
        "phase 2: {} targeted corruption/bad-sector faults",
        cfg.targeted_faults
    );
    let mapping = store.mapping();
    let stride = (mapping.stripes() / cfg.targeted_faults as u64).max(1);
    let mut victims: Vec<u64> = Vec::new();
    for k in 0..cfg.targeted_faults {
        let stripe = mapping.stripe_by_seq(k as u64 * stride);
        let unit = mapping
            .stripe_units(stripe)
            .into_iter()
            .find(|u| !mapping.role_at(u.disk, u.offset).is_parity())
            .unwrap_or_else(|| die("stripe without data units"));
        let logical = mapping
            .addr_to_logical(unit)
            .unwrap_or_else(|| die("unmapped data unit"));
        if k % 2 == 0 {
            // Silent corruption: arm the flip, then write through it.
            plans[unit.disk as usize].arm_corruption(unit_pos(unit.offset, ub));
            let g = gens[&logical] + 1;
            store
                .write_unit(logical, &content(logical, g, ub))
                .unwrap_or_else(|e| die(&format!("corrupted write: {e}")));
            gens.insert(logical, g);
            oracle.write(logical, &content(logical, g, ub));
        } else {
            plans[unit.disk as usize].add_bad_sector(unit_pos(unit.offset, ub));
        }
        victims.push(logical);
    }
    let before_repairs = store.fault_counters().repaired;
    let mut buf = vec![0u8; ub];
    for &l in &victims {
        store
            .read_unit(l, &mut buf)
            .unwrap_or_else(|e| die(&format!("read of poisoned unit {l}: {e}")));
        if buf != content(l, gens[&l], ub) {
            die(&format!("poisoned unit {l} returned wrong bytes"));
        }
    }
    let repaired_now = store.fault_counters().repaired - before_repairs;
    println!("  {repaired_now} units read-repaired from parity");
    if repaired_now != cfg.targeted_faults as u64 {
        die("every targeted fault should resolve by read-repair");
    }
    if plans.iter().any(|p| p.bad_sectors_outstanding() > 0) {
        die("read-repair left a bad sector on the medium");
    }

    // ── Crash: a batch of writes with one torn in flight, then the
    // process "dies" (drop without close) and recovery reopens.
    println!("phase 3: mid-run crash with a torn write");
    let mut rng = Rng(cfg.seed ^ 0xC4A5);
    let crash_units: Vec<u64> = (0..cfg.crash_batch)
        .map(|_| rng.next() % data_units)
        .collect();
    let torn_victim = crash_units[crash_units.len() / 2];
    let torn_addr = mapping.logical_to_addr(torn_victim);
    plans[torn_addr.disk as usize].arm_torn_write(unit_pos(torn_addr.offset, ub));
    for &l in &crash_units {
        let g = gens[&l] + 1;
        store
            .write_unit(l, &content(l, g, ub))
            .unwrap_or_else(|e| die(&format!("crash-window write: {e}")));
        gens.insert(l, g);
    }
    let pre_crash = store.fault_counters();
    drop(store); // the crash: no close, superblocks stay dirty
    let (store, recovery) = BlockStore::open_with_backend(
        dir,
        decluster_array::RecoveryPolicy::DirtyRegionLog,
        &factory,
    )
    .unwrap_or_else(|e| die(&format!("reopen after crash: {e}")));
    let recovery = recovery.unwrap_or_else(|| die("crash reopen should have run recovery"));
    println!(
        "  recovery checked {} stripes, repaired {} torn",
        recovery.stripes_checked, recovery.torn_repaired
    );
    // The torn unit's on-disk bytes are a half-and-half mix recovery
    // has made *consistent* but not *current*; rewrite the crash
    // window so both sides agree again.
    for &l in &crash_units {
        let g = gens[&l] + 1;
        store
            .write_unit(l, &content(l, g, ub))
            .unwrap_or_else(|e| die(&format!("post-crash rewrite: {e}")));
        gens.insert(l, g);
        oracle.write(l, &content(l, g, ub));
    }

    // ── Phase 4: the limping disk. One disk answers reads late; the
    // EWMA flags it and hedged reads race parity reconstruction.
    let limper: u16 = 7;
    println!("phase 4: disk {limper} limps at +{}µs", cfg.limp_us);
    plans[limper as usize].set_read_latency(
        LatencyProfile::limping(cfg.limp_us, cfg.limp_us / 4).with_bursts(cfg.limp_us * 2, 0.05),
    );
    let on_limper: Vec<u64> = (0..data_units)
        .filter(|&l| store.mapping().logical_to_addr(l).disk == limper)
        .collect();
    let mut hedge_deadline = 0;
    while store.fault_counters().hedge_wins == 0 {
        for &l in on_limper.iter().take(16) {
            store
                .read_unit(l, &mut buf)
                .unwrap_or_else(|e| die(&format!("limping read: {e}")));
            if buf != content(l, gens[&l], ub) {
                die(&format!("hedged read of unit {l} returned wrong bytes"));
            }
        }
        hedge_deadline += 1;
        if hedge_deadline > 64 {
            die("the limping disk never triggered a winning hedge");
        }
    }
    plans[limper as usize].set_read_latency(LatencyProfile::healthy());
    let hedged = store.fault_counters();
    println!(
        "  {} hedged reads, {} reconstruction wins",
        hedged.hedged_reads, hedged.hedge_wins
    );

    // ── Phase 5: the sick disk. Persistent bad sectors past the error
    // budget: each is read-repaired, the budget breach demotes the
    // disk, and an online rebuild brings the array home.
    let sick: u16 = 2;
    println!(
        "phase 5: disk {sick} exceeds its error budget of {}",
        cfg.error_budget
    );
    store.set_error_budget(cfg.error_budget);
    let sick_victims: Vec<u64> = (0..UNITS_PER_DISK)
        .filter_map(|off| {
            store
                .mapping()
                .addr_to_logical(decluster_core::layout::UnitAddr::new(sick, off))
        })
        .take(cfg.error_budget as usize + 1)
        .collect();
    if sick_victims.len() != cfg.error_budget as usize + 1 {
        die("sick disk holds too few data units for the budget test");
    }
    for &l in &sick_victims {
        let addr = store.mapping().logical_to_addr(l);
        plans[sick as usize].add_bad_sector(unit_pos(addr.offset, ub));
    }
    for &l in &sick_victims {
        store
            .read_unit(l, &mut buf)
            .unwrap_or_else(|e| die(&format!("sick-disk read: {e}")));
        if buf != content(l, gens[&l], ub) {
            die(&format!(
                "sick-disk repair of unit {l} returned wrong bytes"
            ));
        }
    }
    store
        .read_unit(sick_victims[0], &mut buf)
        .unwrap_or_else(|e| die(&format!("{e}")));
    if store.failed_disk() != Some(sick) {
        die("budget breach did not demote the sick disk");
    }
    println!("  disk {sick} auto-demoted; rebuilding online");
    store
        .replace_disk()
        .unwrap_or_else(|e| die(&format!("replace: {e}")));
    let rebuild = store
        .rebuild(if cfg.smoke { 2 } else { 4 })
        .unwrap_or_else(|e| die(&format!("rebuild: {e}")));
    if store.failed_disk().is_some() {
        die("rebuild left the array degraded");
    }
    println!(
        "  rebuilt {} units in {:.2}s",
        rebuild.units_rebuilt, rebuild.wall_secs
    );

    // ── Final: a repairing scrub, parity verification, and the full
    // byte-for-byte oracle comparison.
    println!("final: scrub, parity check, oracle comparison");
    let scrub = store
        .scrub(true)
        .unwrap_or_else(|e| die(&format!("scrub: {e}")));
    store
        .verify_parity()
        .unwrap_or_else(|e| die(&format!("parity: {e}")));
    let mut mismatches = 0u64;
    for l in 0..data_units {
        store
            .read_unit(l, &mut buf)
            .unwrap_or_else(|e| die(&format!("final read {l}: {e}")));
        if buf != oracle.read(l) {
            eprintln!("unit {l}: store diverges from oracle");
            mismatches += 1;
        }
    }
    let counters = add_counters(pre_crash, store.fault_counters());
    let injected = sum_injected(&plans);
    store
        .close()
        .unwrap_or_else(|e| die(&format!("close: {e}")));

    let detected = counters.media_errors + counters.checksum_errors;
    let resolved = counters.retry_successes + counters.repaired + counters.escalated;
    let ledger_balanced =
        injected.total_data_faults() == detected && detected == resolved && counters.escalated == 0;
    let oracle_match = mismatches == 0;
    let hedge_win_rate = if counters.hedged_reads == 0 {
        0.0
    } else {
        counters.hedge_wins as f64 / counters.hedged_reads as f64
    };
    let wall = started.elapsed().as_secs_f64();

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"layout\": \"{layout}\",\n  \
         \"disks\": {disks},\n  \"group\": {group},\n  \"units_per_disk\": {upd},\n  \
         \"unit_bytes\": {ub},\n  \"writers\": {writers},\n  \"ops_per_writer\": {ops},\n  \
         \"injected\": {{\"transient_eio\": {it}, \"persistent_eio\": {ip}, \
         \"corruptions\": {ic}, \"torn_writes\": {itw}, \"total_data_faults\": {itot}}},\n  \
         \"detected\": {{\"media_errors\": {dm}, \"checksum_errors\": {dc}, \"total\": {dt}}},\n  \
         \"resolved\": {{\"retry_successes\": {rr}, \"repaired\": {rp}, \"escalated\": {re}, \
         \"total\": {rt}}},\n  \
         \"repair\": {{\"units_read\": {pur}, \"units_written\": {puw}}},\n  \
         \"hedge\": {{\"hedged_reads\": {hr}, \"hedge_wins\": {hw}, \"win_rate\": {hwr:.4}}},\n  \
         \"demotions\": {dem},\n  \"demoted_disk\": {sick},\n  \
         \"rebuild\": {{\"units_rebuilt\": {rbu}, \"wall_secs\": {rbw:.4}}},\n  \
         \"crash\": {{\"recovery_stripes_checked\": {csc}, \"torn_repaired\": {ctr}, \
         \"torn_writes_injected\": {itw}}},\n  \
         \"scrub\": {{\"units_scanned\": {ssc}, \"repaired\": {srp}, \"escalated\": {sse}}},\n  \
         \"ledger_balanced\": {ledger_balanced},\n  \"oracle_match\": {oracle_match},\n  \
         \"wall_secs\": {wall:.3}\n}}\n",
        seed = cfg.seed,
        smoke = cfg.smoke,
        layout = spec,
        disks = DISKS,
        group = GROUP,
        upd = UNITS_PER_DISK,
        writers = WRITERS,
        ops = cfg.ops_per_writer,
        it = injected.transient_eio,
        ip = injected.persistent_eio,
        ic = injected.corruptions,
        itw = injected.torn_writes,
        itot = injected.total_data_faults(),
        dm = counters.media_errors,
        dc = counters.checksum_errors,
        dt = detected,
        rr = counters.retry_successes,
        rp = counters.repaired,
        re = counters.escalated,
        rt = resolved,
        pur = counters.repair_units_read,
        puw = counters.repair_units_written,
        hr = counters.hedged_reads,
        hw = counters.hedge_wins,
        hwr = hedge_win_rate,
        dem = counters.demotions,
        rbu = rebuild.units_rebuilt,
        rbw = rebuild.wall_secs,
        csc = recovery.stripes_checked,
        ctr = recovery.torn_repaired,
        ssc = scrub.units_scanned,
        srp = scrub.repaired,
        sse = scrub.escalated,
    );
    if let Some(parent) = Path::new(out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "ledger: {} injected = {} detected = {} resolved (escalated {})",
        injected.total_data_faults(),
        detected,
        resolved,
        counters.escalated
    );
    println!("report written to {out}");
    if !ledger_balanced {
        die("fault ledger does not balance");
    }
    if !oracle_match {
        die(&format!("{mismatches} units diverge from the oracle"));
    }
    std::fs::remove_dir_all(dir).ok();
    println!("torture survived: byte-identical to the oracle in {wall:.2}s");
}
