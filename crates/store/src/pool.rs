//! A scoped worker pool for the store's concurrent I/O paths.
//!
//! Same discipline as the experiment runner (`decluster-experiments`):
//! jobs are claimed from a shared queue by index, each result lands in
//! the slot of the job that produced it, and `run` returns results in
//! submission order — so callers see deterministic output at any thread
//! count, and counters summed from the results are order-independent.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool running batches of closures on scoped threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StorePool {
    threads: usize,
}

impl StorePool {
    /// A pool of `threads` workers; `0` means one per available core.
    pub fn new(threads: usize) -> StorePool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        StorePool { threads }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job, returning results in submission order.
    ///
    /// A panicking job propagates the panic out of `run` once the scope
    /// joins, so a non-panicking return has every slot filled.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = lock(&jobs[i]).take();
                    if let Some(job) = job {
                        *lock(&slots[i]) = Some(job());
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| lock_owned(slot).expect("scope joined without panicking, so every job ran"))
            .collect()
    }
}

/// Locks a mutex, treating poisoning as recoverable: the store's
/// invariants live in the on-disk state, not the guarded values, so a
/// panicking peer doesn't invalidate the data behind the lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_owned<T>(mutex: Mutex<T>) -> T {
    mutex
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = StorePool::new(4);
        let jobs: Vec<_> = (0..100u64)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * i
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_available_cores() {
        let pool = StorePool::new(0);
        assert!(pool.threads() >= 1);
        let empty: Vec<fn() -> u32> = vec![];
        assert_eq!(pool.run(empty), vec![]);
    }

    #[test]
    fn single_thread_pool_still_completes_all_jobs() {
        let pool = StorePool::new(1);
        let out = pool.run((0..10).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 10);
    }
}
