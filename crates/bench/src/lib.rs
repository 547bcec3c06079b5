//! # hpcci-bench — the experiment harness
//!
//! One binary per paper artifact (see `DESIGN.md` §3 for the index):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig1_badges` | Fig. 1 — badges awarded by SC over time |
//! | `tables` | Tables 1–4 (`tables -- tab1..tab4` or `all`) |
//! | `fig2_overview` | Fig. 2 — system overview as a message trace |
//! | `fig4_parsldock` | Fig. 4 — ParslDock per-test runtimes per site |
//! | `fig5_psij` | Fig. 5 — PSI/J failure reporting |
//! | `exp63_kamping` | §6.3 — KaMPIng artifact reproduction |
//! | `overhead` | §7.3 — CORRECT overhead vs direct execution |
//! | `ablation_scheduler` | EASY backfill vs FIFO makespan |
//! | `ablation_pilot` | pilot-job amortization vs per-task allocation |
//!
//! Wall-clock benches (`cargo bench`) measure the *real* compute claims
//! (KaMPIng binding overhead, docking parallel speedup) and harness
//! throughput (scheduler event rate, end-to-end CORRECT runs per second).
//! They use the in-tree [`timing`] harness rather than an external
//! benchmarking crate so the workspace builds fully offline.

/// Shared output helper: consistent section headers across binaries.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

pub mod timing {
    //! A minimal wall-clock benchmarking harness for `harness = false`
    //! bench targets: warmup, fixed sample count, median/mean reporting.

    use std::time::Instant;

    /// Run `f` repeatedly and report per-iteration wall time. Returns the
    /// median duration in nanoseconds. A `std::hint::black_box` around the
    /// closure result keeps the optimizer honest.
    pub fn bench<T>(label: &str, samples: usize, mut f: impl FnMut() -> T) -> u128 {
        // Warmup: one untimed run (populates caches, spawns lazy state).
        std::hint::black_box(f());
        let mut times: Vec<u128> = Vec::with_capacity(samples.max(1));
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed().as_nanos());
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        let mean: u128 = times.iter().sum::<u128>() / times.len() as u128;
        println!(
            "{label:<40} median {:>12}  mean {:>12}  ({} samples)",
            fmt_ns(median),
            fmt_ns(mean),
            times.len()
        );
        median
    }

    fn fmt_ns(ns: u128) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.3} µs", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn bench_returns_positive_median() {
            let m = super::bench("noop-ish", 5, || (0..100u64).sum::<u64>());
            assert!(m > 0);
        }
    }
}
