//! Parallel scenario sweeps.
//!
//! The federation kernel is intentionally single-threaded: determinism comes
//! from one event loop consuming one seeded RNG stream. Scenario *sweeps* —
//! the same experiment replayed over a list of seeds or configurations — are
//! embarrassingly parallel at the federation boundary, because each
//! federation owns all of its state. [`sweep`] runs a fleet of such
//! self-contained jobs over a fixed worker pool:
//!
//! * each job runs on exactly one worker thread, so every federation inside
//!   it stays sequential and bit-reproducible from its seed;
//! * results are written back by submission index, so the output order (and
//!   anything derived from it, e.g. a digest over all runs) is independent
//!   of worker scheduling — a parallel sweep is bit-identical to a serial
//!   one.

use std::sync::{mpsc, Mutex};

/// A sensible worker count for sweeps: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run every job and return their results in submission order.
///
/// With `threads <= 1` (or fewer than two jobs) the jobs run inline on the
/// caller's thread — the reference serial sweep. Otherwise `threads` workers
/// pull jobs from a shared queue; a job panicking propagates the panic after
/// the remaining workers are joined.
pub fn sweep<F, R>(jobs: Vec<F>, threads: usize) -> Vec<R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let n = jobs.len();
    let workers = threads.min(n);
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let (result_tx, result_rx) = mpsc::channel();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let result_tx = result_tx.clone();
            scope.spawn(move || loop {
                // The guard is a temporary: it is released before the job runs.
                let next = queue
                    .lock()
                    .expect("no job runs while the queue is locked")
                    .next();
                let Some((idx, job)) = next else { return };
                let out: R = job();
                if result_tx.send((idx, out)).is_err() {
                    return;
                }
            });
        }
        drop(result_tx);
        for _ in 0..n {
            let (idx, out) = result_rx
                .recv()
                .expect("a sweep worker died before finishing its jobs");
            results[idx] = Some(out);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(seed: u64) -> u64 {
        // A seed-dependent pure function standing in for a federation run.
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..32u64).map(|s| move || (s, busy(s))).collect();
        let out = sweep(jobs, 4);
        let seeds: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let serial = sweep((0..16u64).map(|s| move || busy(s)).collect::<Vec<_>>(), 1);
        let parallel = sweep((0..16u64).map(|s| move || busy(s)).collect::<Vec<_>>(), 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_job_and_zero_threads_run_inline() {
        assert_eq!(sweep(vec![|| 7u8], 0), vec![7]);
        assert_eq!(sweep(Vec::<fn() -> u8>::new(), 4), Vec::<u8>::new());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = sweep((0..3u64).map(|s| move || s + 1).collect::<Vec<_>>(), 64);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
