//! The `decluster` command-line tool: generate and check declustered
//! layouts, look up block designs, and run array simulations without
//! writing any Rust.
//!
//! ```text
//! decluster designs <disks> <group>          # find a block design
//! decluster layout <spec | disks group> [--export] [--check]
//! decluster check <layout-file>              # verify a decluster-layout v1 file
//! decluster simulate [options]               # run a scenario
//! decluster serve <store-dir> [options]      # run the TCP block service
//! ```
//!
//! Run `decluster help` (or any subcommand with `--help`) for details.

use decluster::analytic::reliability;
use decluster::array::{ArrayConfig, ArraySim, ReconAlgorithm, ReconOptions};
use decluster::core::design::catalog;
use decluster::core::layout::{
    criteria, tabular, vulnerability, LayoutSpec, ParityLayout, TabularLayout,
};
use decluster::sim::SimTime;
use decluster::workload::WorkloadSpec;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("designs") => cmd_designs(&args[1..]),
        Some("layout") => cmd_layout(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `decluster help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "decluster — parity declustering toolkit (Holland & Gibson, ASPLOS 1992)

USAGE:
  decluster designs <disks> <group>
      Find a block design for <disks> objects with tuples of <group>;
      falls back to the closest feasible stripe width, as the paper does.

  decluster layout <spec | disks group> [--export] [--check] [--vulnerability]
      Build a layout through the registry: either a full spec string
      (bibd:c21g5, prime:c11g4, rot:c12g5, raid5:c10, mirror:c10,
      chained:c10, reddy:c10, pq:c12g6) or the bare <disks> <group> pair
      (left-symmetric RAID 5 when <group> == <disks>, the design catalog
      otherwise). --export prints the portable decluster-layout v1 table;
      --check validates the paper's layout criteria 1-3 (nonzero exit
      on violation); --vulnerability reports double-failure exposure.

  decluster check <layout-file>
      Parse a decluster-layout v1 file and validate criteria 1-3.

  decluster simulate --disks <C> --group <G> [--rate R] [--reads F]
                     [--cylinders N] [--seconds S] [--seed S]
                     [--fail D [--rebuild ALG [--processes P]]]
      Run a scenario and print response-time / reconstruction results.
      ALG is one of: baseline, user-writes, redirect, piggyback.

  decluster serve <store-dir> [--addr HOST:PORT]
                  [--global-inflight N] [--session-inflight N]
      Serve an existing block store (see the `store` tool to mkfs one)
      over the sessioned TCP protocol until a client sends the
      SHUTDOWN RPC, then drain in-flight requests and close cleanly."
    );
}

fn parse<T: std::str::FromStr>(value: Option<&String>, what: &str) -> Result<T, String> {
    value
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}: {:?}", value.expect("checked above")))
}

fn cmd_designs(args: &[String]) -> Result<(), String> {
    let v: u16 = parse(args.first(), "<disks>")?;
    let k: u16 = parse(args.get(1), "<group>")?;
    match catalog::find(v, k) {
        Ok(d) => {
            println!("found: {}", d.params());
            print!("{d}");
        }
        Err(e) => {
            println!("no direct design: {e}");
            let (d, g) = catalog::closest_group_size(v, k)
                .map_err(|e| format!("no feasible design at all: {e}"))?;
            println!(
                "closest feasible stripe width: G = {g} (alpha = {:.3})",
                d.params().alpha()
            );
            println!("{}", d.params());
        }
    }
    Ok(())
}

/// Maps the CLI's numeric `<disks> <group>` pair onto a registry spec:
/// `raid5:cN` when the stripe spans the whole array, `bibd:cNgM` below
/// it (the catalog behind `bibd` resolves appendix tables, the cyclic
/// library, finite geometries, and complete designs).
fn numeric_spec(disks: u16, group: u16) -> LayoutSpec {
    if group == disks {
        LayoutSpec::Raid5 { disks }
    } else {
        LayoutSpec::Bibd { disks, group }
    }
}

fn build_layout(disks: u16, group: u16) -> Result<Arc<dyn ParityLayout>, String> {
    numeric_spec(disks, group)
        .build()
        .map_err(|e| e.to_string())
}

fn report_criteria(layout: &dyn ParityLayout) -> Result<(), String> {
    let report = criteria::check(layout);
    println!(
        "criteria 1-3: {}",
        if report.all_hold() {
            "hold"
        } else {
            "VIOLATED"
        }
    );
    match &report.distributed_reconstruction {
        Ok(k) => println!("  pair constant (stripes shared per disk pair/table): {k}"),
        Err(e) => println!("  distributed reconstruction violated: {e}"),
    }
    match &report.distributed_parity {
        Ok(p) => println!("  parity units per disk per table: {p}"),
        Err(e) => println!("  distributed parity violated: {e}"),
    }
    println!(
        "  table height (criterion 4 metric): {}",
        report.table_height
    );
    // A violated criterion fails the command so scripts can gate on it
    // (chained mirroring violates criterion 2 by design; checking it
    // is expected to fail).
    if report.all_hold() {
        Ok(())
    } else {
        Err("layout criteria violated".to_string())
    }
}

fn cmd_layout(args: &[String]) -> Result<(), String> {
    // A first argument containing `:` is a full registry spec
    // (`prime:c11g4`, `pq:c12g6`, …); the bare `<disks> <group>` form
    // keeps the original CLI and resolves through the same registry.
    let (spec, rest) = match args.first() {
        Some(first) if first.contains(':') => {
            let spec: LayoutSpec = first
                .parse()
                .map_err(|e| format!("bad spec {first:?}: {e}"))?;
            (spec, &args[1..])
        }
        _ => {
            let disks: u16 = parse(args.first(), "<disks>")?;
            let group: u16 = parse(args.get(1), "<group>")?;
            (numeric_spec(disks, group), &args[2..])
        }
    };
    let flags: Vec<&str> = rest.iter().map(String::as_str).collect();
    for flag in &flags {
        if !["--export", "--check", "--vulnerability"].contains(flag) {
            return Err(format!("unknown flag {flag:?}"));
        }
    }
    let layout = spec.build().map_err(|e| e.to_string())?;
    let exporting = flags.contains(&"--export");
    let summary = format!(
        "layout {spec}: C = {}, G = {}, alpha = {:.3}, parity overhead {:.1}%, \
         table {} offsets x {} stripes",
        spec.disks(),
        spec.group(),
        layout.alpha(),
        layout.parity_overhead() * 100.0,
        layout.table_height(),
        layout.stripes_per_table()
    );
    // Keep stdout clean for the table when exporting.
    if exporting {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if flags.contains(&"--check") {
        report_criteria(layout.as_ref())?;
    }
    if flags.contains(&"--vulnerability") {
        let v = vulnerability::analyze(layout.as_ref());
        println!(
            "double-failure exposure: {}/{} pairs fatal ({:.0}%), worst loss {:.1}% of stripes",
            v.fatal_pairs,
            v.total_pairs,
            v.fatal_fraction() * 100.0,
            v.worst_loss_fraction * 100.0
        );
        let mttdl = reliability::mttdl_hours_fatal(v.fatal_pairs.max(1), 150_000.0, 1.0);
        println!(
            "MTTDL at 150,000 h MTBF, 1 h repair: {:.0} years",
            mttdl / (365.25 * 24.0)
        );
    }
    if exporting {
        print!("{}", tabular::export(layout.as_ref()));
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <layout-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let layout: TabularLayout = text.parse().map_err(|e| format!("parsing {path}: {e}"))?;
    println!(
        "parsed: C = {}, G = {}, {} stripes per table",
        layout.disks(),
        layout.stripe_width(),
        layout.stripes_per_table()
    );
    report_criteria(&layout)?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use decluster::server::{Server, ServerConfig};
    use decluster::store::BlockStore;

    let dir = args.first().ok_or("missing <store-dir>")?;
    let mut cfg = ServerConfig::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--global-inflight" => {
                cfg.global_inflight = value("--global-inflight")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--session-inflight" => {
                cfg.session_inflight = value("--session-inflight")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let (store, recovery) = BlockStore::open(std::path::Path::new(dir))
        .map_err(|e| format!("opening store {dir}: {e}"))?;
    if let Some(r) = recovery {
        eprintln!(
            "recovery ({}): {} stripes checked, {} torn, {} repaired",
            r.policy.name(),
            r.stripes_checked,
            r.torn_found,
            r.torn_repaired
        );
    }
    let spec = store.spec();
    let server = Server::spawn(Arc::new(store), cfg).map_err(|e| format!("binding: {e}"))?;
    println!(
        "serving {} C={} G={} α={:.4} at {}  (send the SHUTDOWN RPC to stop)",
        spec,
        spec.disks(),
        spec.group(),
        spec.alpha(),
        server.addr()
    );
    server.wait_for_shutdown();
    println!("shutdown requested; draining");
    server.stop().map_err(|e| format!("stopping: {e}"))?;
    println!("stopped cleanly");
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut disks = 21u16;
    let mut group = 4u16;
    let mut rate = 105.0f64;
    let mut reads = 0.5f64;
    let mut cylinders = 118u32;
    let mut seconds = 40u64;
    let mut seed = 0x1992u64;
    let mut fail: Option<u16> = None;
    let mut rebuild: Option<ReconAlgorithm> = None;
    let mut processes = 8usize;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--disks" => disks = value("--disks")?.parse().map_err(|e| format!("{e}"))?,
            "--group" => group = value("--group")?.parse().map_err(|e| format!("{e}"))?,
            "--rate" => rate = value("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--reads" => reads = value("--reads")?.parse().map_err(|e| format!("{e}"))?,
            "--cylinders" => {
                cylinders = value("--cylinders")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seconds" => seconds = value("--seconds")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--fail" => fail = Some(value("--fail")?.parse().map_err(|e| format!("{e}"))?),
            "--processes" => {
                processes = value("--processes")?.parse().map_err(|e| format!("{e}"))?
            }
            "--rebuild" => {
                rebuild = Some(match value("--rebuild")?.as_str() {
                    "baseline" => ReconAlgorithm::Baseline,
                    "user-writes" => ReconAlgorithm::UserWrites,
                    "redirect" => ReconAlgorithm::Redirect,
                    "piggyback" => ReconAlgorithm::RedirectPiggyback,
                    other => return Err(format!("unknown algorithm {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let layout = build_layout(disks, group)?;
    let cfg = ArrayConfig::builder()
        .cylinders(cylinders)
        .seed(seed)
        .build();
    let spec = WorkloadSpec::new(rate, reads);
    let mut sim = ArraySim::new(layout, cfg, spec, 1).map_err(|e| e.to_string())?;
    println!(
        "simulating C={disks} G={group} at {rate}/s ({:.0}% reads), \
         {cylinders}-cylinder disks, seed {seed}",
        reads * 100.0
    );

    match (fail, rebuild) {
        (None, _) => {
            let r = sim.run_for(
                SimTime::from_secs(seconds),
                SimTime::from_secs(seconds / 10),
            );
            println!(
                "fault-free: {} requests, mean {:.1} ms, p90 {:.1} ms, disk utilization {:.0}%",
                r.requests_measured,
                r.ops.all.mean_ms(),
                r.ops.all.percentile_ms(0.9),
                r.mean_disk_utilization * 100.0
            );
        }
        (Some(disk), None) => {
            sim.fail_disk(disk).map_err(|e| e.to_string())?;
            let r = sim.run_for(
                SimTime::from_secs(seconds),
                SimTime::from_secs(seconds / 10),
            );
            println!(
                "degraded (disk {disk} dead): {} requests, mean {:.1} ms, p90 {:.1} ms",
                r.requests_measured,
                r.ops.all.mean_ms(),
                r.ops.all.percentile_ms(0.9)
            );
        }
        (Some(disk), Some(algorithm)) => {
            sim.fail_disk(disk).map_err(|e| e.to_string())?;
            sim.start_reconstruction(ReconOptions::new(algorithm).processes(processes))
                .map_err(|e| e.to_string())?;
            let r = sim.run_until_reconstructed(SimTime::from_secs(1_000_000));
            match r.reconstruction_secs() {
                Some(t) => println!(
                    "rebuilt disk {disk} with {algorithm} x{processes}: {t:.1} s \
                     ({} units swept, {} by users); user mean {:.1} ms, p90 {:.1} ms",
                    r.units_swept,
                    r.units_by_users,
                    r.ops.all.mean_ms(),
                    r.ops.all.percentile_ms(0.9)
                ),
                None => println!("reconstruction did not finish within the simulation cap"),
            }
        }
    }
    Ok(())
}
