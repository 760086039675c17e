//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md's per-experiment index) and prints it as text.
//! All binaries accept:
//!
//! * `--full` — run at full paper scale (real IBM 0661 capacity; minutes
//!   to hours of CPU depending on the figure);
//! * `--cylinders N` — run with N-cylinder disks (default 118 ≈ 1/8 of the
//!   paper's drive; reconstruction times scale ≈ linearly with capacity);
//! * `--seed S` — change the workload seed;
//! * `--threads T` — worker threads for the sweep (default: one per core;
//!   every sweep produces identical output at any thread count).
//!
//! Performance is measured by the standalone `benchmark/` package, not
//! here.

#![warn(missing_docs)]

pub mod trace;

use decluster_experiments::{ExperimentScale, Runner, SweepReport, SweepRun};
use std::path::PathBuf;

/// The common CLI of every figure binary.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Experiment scale from `--full` / `--cylinders` / `--seed`.
    pub scale: ExperimentScale,
    /// Worker threads from `--threads` (`0` = one per core).
    pub threads: usize,
    /// Where `--trace` asked for a replayable JSONL event trace of the
    /// figure's representative point (`None` = no trace).
    pub trace: Option<PathBuf>,
}

impl BenchCli {
    /// The worker pool this invocation asked for.
    pub fn runner(&self) -> Runner {
        Runner::new(self.threads)
    }

    /// Records `scenario` at this invocation's scale and writes the JSONL
    /// trace to the `--trace` path, if one was given. Prints a one-line
    /// summary; exits with a message on failure.
    pub fn write_trace_if_asked(&self, scenario: trace::TraceScenario) {
        let Some(path) = &self.trace else { return };
        let header = trace::TraceHeader {
            scale: self.scale,
            scenario,
            trace_cap: decluster_sim::Recorder::DEFAULT_TRACE_CAP,
        };
        match trace::write(path, &header) {
            Ok(lines) => println!(
                "# trace: {lines} event lines -> {} (verify with `trace replay`)",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Parses the common CLI flags.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
pub fn cli_from_args() -> BenchCli {
    let mut cli = BenchCli {
        scale: ExperimentScale::smoke(),
        threads: 0,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => cli.scale = ExperimentScale::paper(),
            "--cylinders" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--cylinders needs a positive integer"));
                cli.scale.cylinders = n;
            }
            "--seed" => {
                let s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
                cli.scale.seed = s;
            }
            "--threads" => {
                let t = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a non-negative integer"));
                cli.threads = t;
            }
            "--trace" => {
                let p = args
                    .next()
                    .unwrap_or_else(|| usage("--trace needs a file path"));
                cli.trace = Some(PathBuf::from(p));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    cli
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: <bin> [--full] [--cylinders N] [--seed S] [--threads T] [--trace FILE]");
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

/// Prints the standard header for a regeneration run.
pub fn print_header(what: &str, scale: &ExperimentScale) {
    println!(
        "# {what} — {} cylinders/disk ({} units), seed {}",
        scale.cylinders,
        scale.units_per_disk(),
        scale.seed
    );
    if scale.cylinders != 949 {
        println!(
            "# reduced scale: absolute times are ~{:.2}x of the paper's full-size disks",
            scale.cylinders as f64 / 949.0
        );
    }
    println!();
}

/// Prints a sweep's throughput footer (`# <name>: N jobs on T threads …`).
pub fn print_sweep_footer(report: &SweepReport) {
    println!();
    println!("# {}", report.summary_line());
}

/// Unwraps a sweep whose jobs return `Result`, exiting with a message on
/// the first failed point (figure binaries have no caller to propagate to).
pub fn sweep_or_exit<T, E: std::fmt::Display>(
    run: SweepRun<Result<T, E>>,
    what: &str,
) -> SweepRun<T> {
    run.transpose().unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_smoke() {
        // cli_from_args reads real argv, so only check the default here.
        let s = ExperimentScale::smoke();
        assert!(s.cylinders < 949);
        assert!(s.units_per_disk() > 0);
    }

    #[test]
    fn header_mentions_scale() {
        // print_header only writes to stdout; smoke-test it doesn't panic.
        print_header("test", &ExperimentScale::tiny());
    }
}
