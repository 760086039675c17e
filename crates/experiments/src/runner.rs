//! A scoped-thread worker pool for fanning independent simulation runs
//! across cores.
//!
//! Every experiment in this crate is a sweep of *independent* simulator
//! runs — each point owns its simulator, its workload generator, and its
//! seed, and no state flows between points. The event loop inside one run
//! is inherently serial (each event depends on the queue state the
//! previous one left), so the profitable parallelism is *across* runs:
//! one OS thread per in-flight point, a shared work queue, and results
//! stitched back into submission order.
//!
//! The pool is built from the standard library alone ([`std::thread::scope`]
//! plus an [`std::sync::mpsc`] channel drained behind a mutex), so jobs may
//! borrow from the caller's stack — sweeps pass `&ExperimentScale` straight
//! into their closures. Each job returns its value together with the number
//! of simulator events it processed; the pool tags both with the job's
//! sweep index and wall-clock time so callers get deterministic ordering
//! *and* throughput accounting ([`SweepReport`]) for free.
//!
//! Determinism: a [`SweepRun`]'s `values` are always in submission order,
//! whatever order the workers finished in, and each job is a closed
//! deterministic simulation — so a sweep's output is byte-identical
//! whether it ran on one thread or sixteen.

use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// A fixed-width worker pool. Cheap to build; holds no threads between
/// [`Runner::run`] calls (workers live only inside the scope of one
/// sweep).
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with `threads` workers; `0` means one per available core.
    pub fn new(threads: usize) -> Runner {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        Runner { threads }
    }

    /// A single-worker runner: jobs run in submission order on the
    /// calling thread, with the same accounting as the parallel path.
    pub fn sequential() -> Runner {
        Runner { threads: 1 }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job, fanning across the pool, and returns values and
    /// per-job statistics in submission order.
    ///
    /// Each job returns `(value, events)` where `events` counts the
    /// simulator events the job processed (zero for non-simulation work).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> SweepRun<T>
    where
        T: Send,
        F: FnOnce() -> (T, u64) + Send,
    {
        let sweep_start = Instant::now();
        let n = jobs.len();
        let mut slots: Vec<Option<(T, JobStat)>> = (0..n).map(|_| None).collect();

        if self.threads <= 1 || n <= 1 {
            // Run on the calling thread; identical accounting, no pool.
            for (index, job) in jobs.into_iter().enumerate() {
                slots[index] = Some(timed(index, job));
            }
        } else {
            let (job_tx, job_rx) = mpsc::channel();
            for entry in jobs.into_iter().enumerate() {
                job_tx.send(entry).expect("queue outlives the send");
            }
            drop(job_tx); // workers stop when the queue drains
            let job_rx = Mutex::new(job_rx);
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(n) {
                    let job_rx = &job_rx;
                    let done_tx = done_tx.clone();
                    scope.spawn(move || loop {
                        // Hold the lock only for the pop, not the job.
                        let next = job_rx.lock().expect("queue lock").try_recv();
                        let Ok((index, job)) = next else { break };
                        let done = timed(index, job);
                        if done_tx.send((index, done)).is_err() {
                            break;
                        }
                    });
                }
                drop(done_tx);
                for (index, done) in done_rx {
                    slots[index] = Some(done);
                }
            });
        }

        let mut values = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for slot in slots {
            let (value, stat) = slot.expect("every job reports exactly once");
            values.push(value);
            stats.push(stat);
        }
        SweepRun {
            values,
            stats,
            threads: self.threads.min(n.max(1)),
            wall_secs: sweep_start.elapsed().as_secs_f64(),
        }
    }
}

impl Default for Runner {
    /// One worker per available core.
    fn default() -> Runner {
        Runner::new(0)
    }
}

fn timed<T>(index: usize, job: impl FnOnce() -> (T, u64)) -> (T, JobStat) {
    let start = Instant::now();
    let (value, events) = job();
    let stat = JobStat {
        index,
        wall_secs: start.elapsed().as_secs_f64(),
        events,
    };
    (value, stat)
}

/// Wall-clock and throughput accounting for one job of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobStat {
    /// The job's position in the sweep (submission order).
    pub index: usize,
    /// Wall-clock seconds the job ran for.
    pub wall_secs: f64,
    /// Simulator events the job processed.
    pub events: u64,
}

impl JobStat {
    /// Simulator events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The outcome of one [`Runner::run`] call: values and per-job statistics
/// in submission order, plus the sweep's own wall clock.
#[derive(Debug)]
pub struct SweepRun<T> {
    /// Job results, in submission order regardless of completion order.
    pub values: Vec<T>,
    /// Per-job statistics, in the same order.
    pub stats: Vec<JobStat>,
    /// Workers that served the sweep.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
}

impl<T> SweepRun<T> {
    /// Discards the statistics and keeps the ordered values.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }

    /// Total simulator events across all jobs.
    pub fn events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }

    /// Summarizes the sweep for the benchmark ledger.
    pub fn report(&self, name: &str) -> SweepReport {
        let events = self.events();
        SweepReport {
            name: name.to_string(),
            jobs: self.values.len(),
            threads: self.threads,
            wall_secs: self.wall_secs,
            events,
            events_per_sec: if self.wall_secs > 0.0 {
                events as f64 / self.wall_secs
            } else {
                0.0
            },
        }
    }
}

impl<T, E> SweepRun<Result<T, E>> {
    /// Propagates the first failed job, keeping the per-job statistics and
    /// wall clock when every job succeeded. Failed jobs report zero events,
    /// so a surviving run's throughput accounting is exact.
    ///
    /// # Errors
    ///
    /// Returns the first job error, in submission order.
    pub fn transpose(self) -> Result<SweepRun<T>, E> {
        let values = self.values.into_iter().collect::<Result<Vec<T>, E>>()?;
        Ok(SweepRun {
            values,
            stats: self.stats,
            threads: self.threads,
            wall_secs: self.wall_secs,
        })
    }
}

/// Throughput summary of one sweep, printed as the figure binaries'
/// footer line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// What was swept (e.g. `"fig6-smoke"`).
    pub name: String,
    /// Independent simulation runs in the sweep.
    pub jobs: usize,
    /// Worker threads that served it.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Total simulator events processed across all jobs.
    pub events: u64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
}

impl SweepReport {
    /// One-line human rendering for run footers.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} jobs on {} thread{} in {:.2} s — {} events, {:.0} events/s",
            self.name,
            self.jobs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall_secs,
            self.events,
            self.events_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_submission_order() {
        // Jobs finish out of order (later jobs are cheaper), yet values
        // come back in submission order.
        let runner = Runner::new(4);
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    // Earlier jobs burn more CPU so they finish later.
                    let mut acc = 0u64;
                    for k in 0..(16 - i) * 4_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    (i, i)
                }
            })
            .collect();
        let run = runner.run(jobs);
        assert_eq!(run.values, (0..16u64).collect::<Vec<_>>());
        assert_eq!(run.events(), (0..16).sum::<u64>());
        for (i, s) in run.stats.iter().enumerate() {
            assert_eq!(s.index, i);
            assert!(s.wall_secs >= 0.0);
        }
    }

    #[test]
    fn sequential_matches_parallel() {
        let jobs = || (0..12u64).map(|i| move || (i * i, i)).collect::<Vec<_>>();
        let seq = Runner::sequential().run(jobs());
        let par = Runner::new(8).run(jobs());
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.events(), par.events());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let run = Runner::new(4).run(Vec::<fn() -> ((), u64)>::new());
        assert!(run.values.is_empty());
        assert_eq!(run.events(), 0);
        assert_eq!(run.report("empty").jobs, 0);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(Runner::new(0).threads() >= 1);
        assert_eq!(Runner::sequential().threads(), 1);
    }

    #[test]
    fn jobs_may_borrow_the_stack() {
        let scale = vec![2u64, 3, 5];
        let scale = &scale;
        let jobs: Vec<_> = (0..scale.len())
            .map(|i| move || (scale[i] * 10, scale[i]))
            .collect();
        let run = Runner::new(2).run(jobs);
        assert_eq!(run.values, vec![20, 30, 50]);
        assert_eq!(run.events(), 10);
    }

    #[test]
    fn report_aggregates_jobs() {
        let run = Runner::sequential().run(vec![|| ((), 100u64), || ((), 150u64)]);
        let report = run.report("demo");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.threads, 1);
        assert_eq!(report.events, 250);
        assert!(report.wall_secs >= 0.0);
        assert!(report.summary_line().contains("demo"));
    }
}
