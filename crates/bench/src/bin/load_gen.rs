//! Client-fleet load generator for the network block service.
//!
//! Drives a fresh [`decluster_server::Server`] through the paper's
//! continuous-operation story with `N` concurrent fault-tolerant
//! clients, each owning a disjoint slice of the logical address space
//! and verifying every read against its own generation ledger:
//!
//! 1. **fill** — every client writes its units (generation 0);
//! 2. **healthy** — mixed read-verify/write traffic, baseline;
//! 3. **degraded** — an admin `FAIL_DISK` lands mid-traffic and the
//!    same mixed workload continues over degraded reads;
//! 4. **rebuild** — `REPLACE_DISK` + `START_REBUILD` run concurrently
//!    with the same client traffic;
//! 5. **verify** — every client re-reads *all* of its units and
//!    byte-compares against the ledger; an admin scrub cross-checks
//!    parity server-side.
//!
//! The run fails (exit 1) on any dropped session, protocol violation,
//! server error, or content mismatch, and on the declustering gate:
//! degraded-phase throughput must stay above a floor implied by
//! α = (G−1)/(C−1) — a degraded read of a lost unit fans out to G−1
//! survivor reads, so mean read cost rises by roughly
//! (C−1+G−1)/C and throughput should retain at least half of the
//! reciprocal (the factor 2 absorbs scheduling noise on shared CI).
//!
//! Each run appends one entry to an append-only JSON trajectory
//! (default `results/server_bench.json`); see EXPERIMENTS.md for the
//! schema. `--smoke` is the deterministic CI configuration: a small
//! array, 4 clients, fixed seed.

use decluster_bench::trajectory::{append_entry, git_rev, unix_time};
use decluster_server::{Client, ClientConfig, Server, ServerConfig};
use decluster_sim::LatencyHistogram;
use decluster_store::{BlockStore, LayoutSpec, BLOCK_BYTES};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// The serving phases a client thread runs, in order. `Fill` and
/// `FinalVerify` bracket them; all five are measured.
const PHASES: [&str; 5] = ["fill", "healthy", "degraded", "rebuild", "verify"];

#[derive(Debug, Clone)]
struct Config {
    smoke: bool,
    clients: usize,
    ops: u64,
    disks: u16,
    group: u16,
    units_per_disk: u64,
    unit_bytes: usize,
    seed: u64,
    deadline_us: u32,
    rebuild_threads: usize,
    victim: u16,
    out: String,
    dir: Option<PathBuf>,
    keep: bool,
    floor_scale: f64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            smoke: false,
            clients: 32,
            ops: 400,
            disks: 10,
            group: 5,
            units_per_disk: 120,
            unit_bytes: 2048,
            seed: 0x10AD,
            deadline_us: 2_000_000,
            rebuild_threads: 2,
            victim: 1,
            out: "results/server_bench.json".to_string(),
            dir: None,
            keep: false,
            floor_scale: 0.5,
        }
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: load_gen [--smoke] [--clients N] [--ops N] [--disks C] [--group G]\n\
         \x20               [--units N] [--unit-bytes B] [--seed S] [--deadline-us D]\n\
         \x20               [--rebuild-threads T] [--victim DISK] [--floor-scale F]\n\
         \x20               [--out PATH] [--dir DIR] [--keep]"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

/// Deterministic per-unit content for generation `gen`.
fn pattern(seed: u64, gen: u64, unit: u64, unit_bytes: usize) -> Vec<u8> {
    let mut x = seed
        ^ gen.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ unit.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ 0x0123_4567_89AB_CDEF;
    (0..unit_bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// What one client measured in one phase.
#[derive(Debug, Default)]
struct PhaseTally {
    ops: u64,
    bytes: u64,
    latency: LatencyHistogram,
}

/// One client thread's whole-run report.
#[derive(Debug, Default)]
struct ClientReport {
    phases: Vec<PhaseTally>,
    mismatches: u64,
    errors: Vec<String>,
    reconnects: u64,
    overload_backoffs: u64,
}

struct ClientTask {
    id: usize,
    addr: String,
    cfg: Config,
    /// Logical units this client owns (disjoint across clients).
    units: Vec<u64>,
    barrier: Arc<Barrier>,
}

impl ClientTask {
    fn run(self) -> ClientReport {
        let mut report = ClientReport::default();
        let client_cfg = ClientConfig {
            session_id: 100 + self.id as u64,
            deadline_us: self.cfg.deadline_us,
            seed: self.cfg.seed ^ ((self.id as u64) << 8),
            ..ClientConfig::default()
        };
        let mut client = match Client::connect(&self.addr, client_cfg) {
            Ok(c) => c,
            Err(e) => {
                report.errors.push(format!("connect: {e}"));
                report.phases = (0..PHASES.len()).map(|_| PhaseTally::default()).collect();
                for _ in 0..PHASES.len() {
                    self.barrier.wait();
                    self.barrier.wait();
                }
                return report;
            }
        };
        let bpu = self.cfg.unit_bytes as u64 / u64::from(BLOCK_BYTES);
        let mut gens: Vec<u64> = vec![0; self.units.len()];
        let mut rng = (self.cfg.seed ^ (0x00C1_1E47 + self.id as u64)) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        for name in PHASES {
            self.barrier.wait();
            let mut tally = PhaseTally::default();
            match name {
                "fill" => {
                    for (i, &unit) in self.units.iter().enumerate() {
                        let data = pattern(self.cfg.seed, gens[i], unit, self.cfg.unit_bytes);
                        let began = Instant::now();
                        match client.write_blocks(unit * bpu, &data) {
                            Ok(()) => {
                                tally.ops += 1;
                                tally.bytes += data.len() as u64;
                            }
                            Err(e) => report.errors.push(format!("fill unit {unit}: {e}")),
                        }
                        record(&mut tally.latency, began);
                    }
                }
                "verify" => {
                    for (i, &unit) in self.units.iter().enumerate() {
                        let began = Instant::now();
                        match client.read_blocks(unit * bpu, self.cfg.unit_bytes as u32) {
                            Ok(data) => {
                                tally.ops += 1;
                                tally.bytes += data.len() as u64;
                                let want =
                                    pattern(self.cfg.seed, gens[i], unit, self.cfg.unit_bytes);
                                if data != want {
                                    report.mismatches += 1;
                                }
                            }
                            Err(e) => report.errors.push(format!("verify unit {unit}: {e}")),
                        }
                        record(&mut tally.latency, began);
                    }
                }
                // The serving phases: mixed read-verify / rewrite.
                _ => {
                    for _ in 0..self.cfg.ops {
                        let i = (next() % self.units.len() as u64) as usize;
                        let unit = self.units[i];
                        let began = Instant::now();
                        let result = if next() % 10 < 6 {
                            client
                                .read_blocks(unit * bpu, self.cfg.unit_bytes as u32)
                                .map(|data| {
                                    let want =
                                        pattern(self.cfg.seed, gens[i], unit, self.cfg.unit_bytes);
                                    if data != want {
                                        report.mismatches += 1;
                                    }
                                })
                        } else {
                            let data =
                                pattern(self.cfg.seed, gens[i] + 1, unit, self.cfg.unit_bytes);
                            client.write_blocks(unit * bpu, &data).inspect(|()| {
                                gens[i] += 1;
                            })
                        };
                        match result {
                            Ok(()) => {
                                tally.ops += 1;
                                tally.bytes += self.cfg.unit_bytes as u64;
                            }
                            Err(e) => report.errors.push(format!("{name} unit {unit}: {e}")),
                        }
                        record(&mut tally.latency, began);
                    }
                }
            }
            report.phases.push(tally);
            self.barrier.wait();
        }
        report.reconnects = client.reconnects();
        report.overload_backoffs = client.overload_backoffs();
        report
    }
}

fn record(latency: &mut LatencyHistogram, began: Instant) {
    latency.record_us(began.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
}

/// Per-phase aggregate over all clients.
struct PhaseResult {
    name: &'static str,
    ops: u64,
    bytes: u64,
    wall_secs: f64,
    latency: LatencyHistogram,
}

impl PhaseResult {
    fn units_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ops as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn mb_s(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.bytes as f64 / (self.wall_secs * 1024.0 * 1024.0)
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"ops\": {}, \"wall_secs\": {:.6}, \"units_per_sec\": {:.3}, \
             \"mb_s\": {:.3}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"mean_ms\": {:.4}, \"max_us\": {}}}",
            self.ops,
            self.wall_secs,
            self.units_per_sec(),
            self.mb_s(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.95),
            self.latency.quantile_us(0.99),
            self.latency.mean_ms(),
            self.latency.max_us(),
        )
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                cfg.smoke = true;
                cfg.clients = 4;
                cfg.ops = 120;
                cfg.disks = 5;
                cfg.group = 4;
                cfg.units_per_disk = 64;
                cfg.unit_bytes = 1024;
                cfg.seed = 42;
            }
            "--clients" => cfg.clients = parse(&mut args, "--clients"),
            "--ops" => cfg.ops = parse(&mut args, "--ops"),
            "--disks" => cfg.disks = parse(&mut args, "--disks"),
            "--group" => cfg.group = parse(&mut args, "--group"),
            "--units" => cfg.units_per_disk = parse(&mut args, "--units"),
            "--unit-bytes" => cfg.unit_bytes = parse(&mut args, "--unit-bytes"),
            "--seed" => cfg.seed = parse(&mut args, "--seed"),
            "--deadline-us" => cfg.deadline_us = parse(&mut args, "--deadline-us"),
            "--rebuild-threads" => cfg.rebuild_threads = parse(&mut args, "--rebuild-threads"),
            "--victim" => cfg.victim = parse(&mut args, "--victim"),
            "--floor-scale" => cfg.floor_scale = parse(&mut args, "--floor-scale"),
            "--out" => cfg.out = args.next().unwrap_or_else(|| usage("--out needs a value")),
            "--dir" => cfg.dir = Some(PathBuf::from(parse::<String>(&mut args, "--dir"))),
            "--keep" => cfg.keep = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if cfg.clients == 0 {
        usage("--clients must be at least 1");
    }
    if !cfg.unit_bytes.is_multiple_of(BLOCK_BYTES as usize) {
        usage("--unit-bytes must be a multiple of the block size");
    }

    let dir = cfg.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("decluster-load-gen")
            .join(format!("run-{}", std::process::id()))
    });
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| {
            usage(&format!("cannot clear {}: {e}", dir.display()));
        });
    }
    let spec = LayoutSpec::Complete {
        disks: cfg.disks,
        group: cfg.group,
    };
    let store = BlockStore::create(
        &dir,
        spec,
        cfg.units_per_disk,
        cfg.unit_bytes as u32,
        cfg.seed ^ 0x10AD,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: mkfs: {e}");
        std::process::exit(1);
    });
    let data_units = store.data_units();
    let alpha = store.spec().alpha();
    let server_cfg = ServerConfig {
        global_inflight: (cfg.clients * 2).max(64),
        session_inflight: 4,
        ..ServerConfig::default()
    };
    let server = Server::spawn(Arc::new(store), server_cfg).unwrap_or_else(|e| {
        eprintln!("error: server spawn: {e}");
        std::process::exit(1);
    });
    let addr = server.addr().to_string();
    println!(
        "serving {} C={} G={} α={:.4} ({data_units} units × {} B) at {addr}; \
         {} clients × {} ops/phase",
        spec, cfg.disks, cfg.group, alpha, cfg.unit_bytes, cfg.clients, cfg.ops
    );

    // Disjoint ownership: client c owns every unit ≡ c (mod clients).
    let barrier = Arc::new(Barrier::new(cfg.clients + 1));
    let mut handles = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let task = ClientTask {
            id: c,
            addr: addr.clone(),
            cfg: cfg.clone(),
            units: (0..data_units)
                .filter(|u| (*u as usize) % cfg.clients == c)
                .collect(),
            barrier: Arc::clone(&barrier),
        };
        handles.push(std::thread::spawn(move || task.run()));
    }

    // Admin client on its own session, and a second one for the
    // blocking rebuild RPC so stats stay reachable during it.
    let mut admin = Client::connect(&addr, ClientConfig::default()).unwrap_or_else(|e| {
        eprintln!("error: admin connect: {e}");
        std::process::exit(1);
    });
    let rebuild_report: Arc<Mutex<Option<Result<String, String>>>> = Arc::new(Mutex::new(None));
    let mut rebuild_secs = 0.0f64;
    let mut walls = Vec::with_capacity(PHASES.len());
    let mut rebuild_thread = None;
    for name in PHASES {
        match name {
            "degraded" => {
                admin.fail_disk(cfg.victim).unwrap_or_else(|e| {
                    eprintln!("error: fail_disk: {e}");
                    std::process::exit(1);
                });
            }
            "rebuild" => {
                admin.replace_disk().unwrap_or_else(|e| {
                    eprintln!("error: replace_disk: {e}");
                    std::process::exit(1);
                });
                let addr = addr.clone();
                let threads = cfg.rebuild_threads;
                let slot = Arc::clone(&rebuild_report);
                rebuild_thread = Some(std::thread::spawn(move || {
                    let cfg = ClientConfig {
                        session_id: 2,
                        ..ClientConfig::default()
                    };
                    let began = Instant::now();
                    let outcome = Client::connect(&addr, cfg)
                        .and_then(|mut c| c.rebuild(threads))
                        .map_err(|e| e.to_string());
                    *slot.lock().unwrap() = Some(outcome);
                    began.elapsed().as_secs_f64()
                }));
            }
            _ => {}
        }
        barrier.wait();
        let began = Instant::now();
        barrier.wait();
        walls.push(began.elapsed().as_secs_f64());
        if name == "rebuild" {
            if let Some(t) = rebuild_thread.take() {
                rebuild_secs = t.join().unwrap_or(0.0);
            }
            match rebuild_report.lock().unwrap().take() {
                Some(Ok(_)) => {}
                Some(Err(e)) => {
                    eprintln!("error: rebuild: {e}");
                    std::process::exit(1);
                }
                None => {
                    eprintln!("error: rebuild thread produced no report");
                    std::process::exit(1);
                }
            }
        }
    }

    let reports: Vec<ClientReport> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    let scrub = admin.scrub(false).unwrap_or_else(|e| {
        eprintln!("error: scrub: {e}");
        std::process::exit(1);
    });
    let stats = admin.stats().unwrap_or_else(|e| {
        eprintln!("error: stats: {e}");
        std::process::exit(1);
    });
    let sessions = server.sessions();
    drop(admin);
    server.stop().unwrap_or_else(|e| {
        eprintln!("error: server stop: {e}");
        std::process::exit(1);
    });

    // Aggregate.
    let mut phases = Vec::with_capacity(PHASES.len());
    for (i, name) in PHASES.iter().enumerate() {
        let mut agg = PhaseResult {
            name,
            ops: 0,
            bytes: 0,
            wall_secs: walls[i],
            latency: LatencyHistogram::new(),
        };
        for r in &reports {
            agg.ops += r.phases[i].ops;
            agg.bytes += r.phases[i].bytes;
            agg.latency.merge(&r.phases[i].latency);
        }
        phases.push(agg);
    }
    let mismatches: u64 = reports.iter().map(|r| r.mismatches).sum();
    let error_count: usize = reports.iter().map(|r| r.errors.len()).sum();
    let reconnects: u64 = reports.iter().map(|r| r.reconnects).sum();
    let overload_backoffs: u64 = reports.iter().map(|r| r.overload_backoffs).sum();
    for r in &reports {
        for e in r.errors.iter().take(5) {
            eprintln!("client error: {e}");
        }
    }

    for p in &phases {
        println!(
            "{:>8}: {:>7} ops in {:>7.3}s  {:>9.0} units/s  {:>7.1} MB/s  \
             p50 {}µs p95 {}µs p99 {}µs",
            p.name,
            p.ops,
            p.wall_secs,
            p.units_per_sec(),
            p.mb_s(),
            p.latency.quantile_us(0.50),
            p.latency.quantile_us(0.95),
            p.latency.quantile_us(0.99),
        );
    }
    println!(
        "rebuild took {rebuild_secs:.3}s; {reconnects} reconnects, \
         {overload_backoffs} overload backoffs, {error_count} errors, \
         {mismatches} mismatches over {sessions} sessions"
    );
    if !scrub.contains("\"checksum_errors\":0") || !scrub.contains("\"media_errors\":0") {
        eprintln!("error: post-run scrub found damage: {scrub}");
        std::process::exit(1);
    }

    // The declustering gate: degraded serving must retain at least
    // floor_scale × C/(C−1+G−1) of healthy throughput.
    let healthy_ups = phases[1].units_per_sec();
    let degraded_ups = phases[2].units_per_sec();
    let implied_frac = f64::from(cfg.disks) / f64::from(cfg.disks - 1 + cfg.group - 1);
    let floor_frac = cfg.floor_scale * implied_frac;
    let degraded_over_healthy = if healthy_ups > 0.0 {
        degraded_ups / healthy_ups
    } else {
        0.0
    };

    let mut entry = String::new();
    entry.push_str("  {\n");
    entry.push_str(&format!("    \"git_rev\": \"{}\",\n", git_rev()));
    entry.push_str(&format!("    \"unix_time\": {},\n", unix_time()));
    entry.push_str(&format!("    \"smoke\": {},\n", cfg.smoke));
    entry.push_str(&format!("    \"layout\": \"{}\",\n", spec));
    entry.push_str(&format!("    \"disks\": {},\n", cfg.disks));
    entry.push_str(&format!("    \"group\": {},\n", cfg.group));
    entry.push_str(&format!("    \"alpha\": {alpha:.6},\n"));
    entry.push_str(&format!("    \"unit_bytes\": {},\n", cfg.unit_bytes));
    entry.push_str(&format!("    \"data_units\": {data_units},\n"));
    entry.push_str(&format!("    \"clients\": {},\n", cfg.clients));
    entry.push_str(&format!("    \"ops_per_client\": {},\n", cfg.ops));
    entry.push_str(&format!("    \"seed\": {},\n", cfg.seed));
    entry.push_str(&format!("    \"deadline_us\": {},\n", cfg.deadline_us));
    entry.push_str(&format!("    \"victim_disk\": {},\n", cfg.victim));
    entry.push_str(&format!(
        "    \"rebuild_threads\": {},\n",
        cfg.rebuild_threads
    ));
    entry.push_str(&format!("    \"rebuild_secs\": {rebuild_secs:.6},\n"));
    entry.push_str("    \"phases\": {");
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            entry.push_str(", ");
        }
        entry.push_str(&format!("\"{}\": {}", p.name, p.to_json()));
    }
    entry.push_str("},\n");
    entry.push_str(&format!(
        "    \"errors\": {{\"dropped_sessions\": 0, \"client_errors\": {error_count}, \
         \"mismatches\": {mismatches}}},\n"
    ));
    entry.push_str(&format!("    \"reconnects\": {reconnects},\n"));
    entry.push_str(&format!(
        "    \"overload_backoffs\": {overload_backoffs},\n"
    ));
    entry.push_str(&format!("    \"sessions\": {sessions},\n"));
    entry.push_str(&format!(
        "    \"degraded_over_healthy\": {degraded_over_healthy:.4},\n"
    ));
    entry.push_str(&format!("    \"degraded_floor_frac\": {floor_frac:.4},\n"));
    entry.push_str(&format!("    \"server_stats\": {}\n", stats.trim_end()));
    entry.push_str("  }");
    match append_entry(&cfg.out, entry) {
        Ok(runs) => println!("appended trajectory entry to {} ({runs} runs)", cfg.out),
        Err(e) => {
            eprintln!("error: write {}: {e}", cfg.out);
            std::process::exit(1);
        }
    }

    if !cfg.keep && cfg.dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut failed = false;
    if error_count > 0 {
        eprintln!("FAIL: {error_count} client errors (dropped sessions or typed failures)");
        failed = true;
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} content mismatches against the client ledgers");
        failed = true;
    }
    let expected_verify: u64 = data_units;
    if phases[4].ops != expected_verify {
        eprintln!(
            "FAIL: verify read {} of {expected_verify} units",
            phases[4].ops
        );
        failed = true;
    }
    if degraded_over_healthy < floor_frac {
        eprintln!(
            "FAIL: degraded throughput retained {degraded_over_healthy:.3} of healthy, \
             below the α-implied floor {floor_frac:.3} \
             (α = {alpha:.3}, implied fraction {implied_frac:.3} × scale {})",
            cfg.floor_scale
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gate ok: degraded retained {degraded_over_healthy:.3} ≥ {floor_frac:.3} \
         of healthy throughput with zero dropped sessions and byte-identical contents"
    );
}
