//! The repo's benchmark: six named workloads measured end to end, a
//! per-layer ladder, and a traced run. See README.md beside Cargo.toml.
//!
//! ```text
//! decluster-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                     [--smoke] [--out DIR]
//! decluster-benchmark spec                  # print BENCHMARK.json
//! decluster-benchmark compare A B           # two sets of results files
//! decluster-benchmark check-schema DIR      # validate results files
//! ```

mod json;
mod layers;
mod ledger;
mod load;
mod report;
mod scratch;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Report, RunInfo};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Config, StoreKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage: decluster-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n       decluster-benchmark spec | compare A B | check-schema DIR\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Option<Config> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        corrupt: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => cfg.smoke = true,
            "--corrupt-before-check" => cfg.corrupt = true,
            "--workload" => cfg.workload = it.next()?.clone(),
            "--seed" => cfg.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cfg.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0 && *s <= 60.0)?;
                seconds_given = true;
            }
            "--trace" => cfg.trace = it.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            "--out" => cfg.out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    if cfg.smoke && !seconds_given {
        cfg.seconds = 2.5;
    }
    spec::WORKLOADS
        .iter()
        .any(|w| w.name == cfg.workload)
        .then_some(cfg)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn run(cfg: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    scratch::claim(&cfg.out)?;
    let mut report = Report::default();
    // A traced run gives the workload half the time (one reference and
    // one traced window) and the ladder the rest.
    let for_workload = &Config {
        seconds: cfg.seconds / if cfg.trace { 2.0 } else { 1.0 },
        ..cfg.clone()
    };
    match cfg.workload.as_str() {
        "healthy-small" => {
            workloads::store_workload(for_workload, StoreKind::HealthySmall, &mut report)
        }
        "degraded-small" => {
            workloads::store_workload(for_workload, StoreKind::DegradedSmall, &mut report)
        }
        "healthy-large" => {
            workloads::store_workload(for_workload, StoreKind::HealthyLarge, &mut report)
        }
        "rebuild-small" => workloads::rebuild_workload(for_workload, &mut report),
        "server-small" => workloads::server_workload(for_workload, &mut report),
        "sim-recon" => workloads::sim_workload(for_workload, &mut report),
        other => Err(format!("unknown workload {other}")),
    }?;
    if cfg.trace {
        layers::ladder(cfg, &mut report)?;
    }
    report.push(Metric::single(
        "failed_ops_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    ));
    report.push(Metric::single(
        "peak_rss_mb",
        peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        "MiB",
    ));

    let info = RunInfo {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        threads: cfg.threads,
        traced: cfg.trace,
        smoke: cfg.smoke,
    };
    let names: Vec<&'static str> = if cfg.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let line = report::driver_line(&report, &names)?;
    let file = cfg.out.join(format!(
        "{}{}.json",
        cfg.workload,
        if cfg.trace { ".layers" } else { "" }
    ));
    std::fs::write(&file, report::results_json(&info, &report).pretty())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    report::print_human(&info, &report);
    println!("# results written to {}", file.display());
    println!("{line}");
    Ok(report.correct())
}

fn check_schema(dir: &Path) -> Result<(), String> {
    let e2e: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    for w in &spec::WORKLOADS {
        for (suffix, required) in [("", &e2e), (".layers", &layers)] {
            let path = dir.join(format!("{}{suffix}.json", w.name));
            if suffix.is_empty() || path.exists() {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let doc =
                    json::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                report::check_schema(&doc, required)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") if args.len() == 1 => {
            println!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => {
            report::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("check-schema") if args.len() == 2 => check_schema(Path::new(&args[1])).map(|()| true),
        _ => match parse_run(&args) {
            Some(cfg) => run(&cfg),
            None => return usage(),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("decluster-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
