//! Multi-tenant workload engine: seeded arrival processes and a tenant model.
//!
//! This module is the typed replacement for the ad-hoc integer traffic knobs
//! that used to live in the scenario runner (`pushes`/`gap_secs`/
//! `burstiness_pct` interpreted by a private gap sampler). It provides:
//!
//! * [`ArrivalProcess`] — the open-loop arrival laws the federation can be
//!   driven by: the historical bursty process (kept bit-compatible with the
//!   old sampler), Poisson, a two-state Markov-modulated Poisson process,
//!   a diurnal (time-of-day modulated) process, and trace replay;
//! * [`ArrivalGen`] — the stateful, deterministic gap stream: one seeded
//!   [`DetRng`] in, one `u64` microsecond gap out per arrival;
//! * [`TenantMix`] / [`TenantModel`] — tens of thousands of users and repos
//!   with Zipf-distributed activity, held in ID-dense `Vec`-backed
//!   storage (the `Vec<Task>` template from the faas hot path);
//! * [`Workload`] — the builder tying a process, an arrival budget, and a
//!   tenant mix together; this is what `FederationBuilder::workload(..)`
//!   accepts and what the scenario DSL's `[traffic]` table lowers onto.
//!
//! ## RNG fork naming
//!
//! Arrival gaps are drawn from `DetRng::seed_from_u64(seed).fork("scen-traffic")`
//! — the exact fork the historical scenario driver used — so every existing
//! scenario digest is unchanged by the migration. Tenant sampling uses the
//! fresh fork label `"workload-tenants"`, so adding tenants to a run never
//! perturbs its arrival timeline.

use crate::rng::DetRng;
use crate::time::SimTime;

/// Fork label of the arrival-gap RNG stream. Preserved verbatim from the
/// historical scenario traffic driver so legacy scenario digests are
/// byte-identical under the typed engine.
pub const ARRIVAL_FORK_LABEL: &str = "scen-traffic";

/// Fork label of the tenant-sampling RNG stream (disjoint from arrivals).
pub const TENANT_FORK_LABEL: &str = "workload-tenants";

/// Hourly arrival-rate weights of the diurnal process, in percent of the
/// mean rate (index = virtual hour of day). Shaped like a GitHub traffic
/// day: a pre-dawn trough, a steep morning ramp, a midday peak, and a long
/// evening decay. Integer weights keep the modulation bit-reproducible.
pub const DIURNAL_WEIGHTS: [u64; 24] = [
    55, 45, 40, 38, 40, 50, 70, 95, 120, 140, 155, 165, 180, 175, 165, 155, 145, 135, 125, 115,
    100, 85, 70, 60,
];

/// An open-loop arrival law: each variant defines the distribution of the
/// microsecond gap between consecutive arrivals. Sampling is performed by
/// [`ArrivalGen`]; all variants are deterministic functions of the seeded
/// RNG stream they are driven with.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// The historical scenario process: nominal gap with up to 25% uniform
    /// jitter, compressed to an eighth of the nominal gap in a burst. The
    /// sampler consumes the RNG stream exactly as the legacy `next_gap_us`
    /// did, so old documents produce byte-identical timelines.
    Bursty {
        /// Nominal gap between arrivals, in seconds.
        gap_secs: u64,
        /// Probability (percent) that an arrival lands inside a burst.
        burstiness_pct: u32,
    },
    /// Memoryless arrivals: gaps are exponential with the given mean.
    Poisson {
        /// Mean gap between arrivals, in microseconds.
        mean_gap_us: u64,
    },
    /// Time-of-day modulated Poisson arrivals: the instantaneous mean gap is
    /// the nominal mean scaled by the [`DIURNAL_WEIGHTS`] entry for the
    /// current virtual hour, with `peak_pct` controlling the amplitude of
    /// the modulation (0 = flat Poisson, 100 = the full weight table).
    Diurnal {
        /// Nominal (all-day) mean gap between arrivals, in microseconds.
        mean_gap_us: u64,
        /// Length of the modulated day, in seconds (86 400 for a real day).
        day_secs: u64,
        /// Modulation amplitude, in percent of the weight table's swing.
        peak_pct: u32,
    },
    /// Replay a recorded gap sequence, cycling when it runs out. Consumes
    /// no randomness at all.
    Trace {
        /// The gap sequence, in microseconds. Must be non-empty.
        gaps_us: Vec<u64>,
    },
}

impl ArrivalProcess {
    /// A short stable name for labels and trace details.
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::Trace { .. } => "trace",
        }
    }
}

/// The deterministic arrival-gap stream: an [`ArrivalProcess`] plus the
/// seeded RNG and whatever per-process state sampling needs (trace cursor,
/// diurnal phase). Two generators built from equal inputs
/// yield byte-identical gap sequences.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    rng: DetRng,
    process: ArrivalProcess,
    /// Virtual microseconds accumulated so far (diurnal phase).
    elapsed_us: u64,
    /// Trace replay cursor.
    cursor: usize,
}

impl ArrivalGen {
    pub fn new(rng: DetRng, process: ArrivalProcess) -> Self {
        ArrivalGen {
            rng,
            process,
            elapsed_us: 0,
            cursor: 0,
        }
    }

    /// The process this generator samples from.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// The historical bursty gap sampler: an eighth of the nominal gap in a
    /// burst, the nominal gap plus up to 25% uniform jitter otherwise.
    /// Byte-compatible with the pre-engine scenario-layer sampler (same draw
    /// order, same integer arithmetic).
    fn bursty_gap_us(rng: &mut DetRng, gap_secs: u64, burstiness_pct: u32) -> u64 {
        let base = gap_secs.saturating_mul(1_000_000).max(8);
        if rng.chance(burstiness_pct as f64 / 100.0) {
            base / 8
        } else {
            base.saturating_add(rng.range_u64(0, base / 4 + 1))
        }
    }

    /// Draw the gap before the next arrival, in microseconds. Every arm
    /// returns at least 1 µs except `Bursty` (whose legacy arithmetic — with
    /// its ≥ 1 µs floor of `base/8` — is preserved bit-for-bit) and `Trace`
    /// (which replays recorded gaps verbatim, zeros included).
    pub fn next_gap_us(&mut self) -> u64 {
        let gap = match &self.process {
            ArrivalProcess::Bursty {
                gap_secs,
                burstiness_pct,
            } => Self::bursty_gap_us(&mut self.rng, *gap_secs, *burstiness_pct),
            ArrivalProcess::Poisson { mean_gap_us } => {
                (self.rng.exponential((*mean_gap_us).max(1) as f64) as u64).max(1)
            }
            ArrivalProcess::Diurnal {
                mean_gap_us,
                day_secs,
                peak_pct,
            } => {
                let day_us = (*day_secs).max(1) * 1_000_000;
                let hour = ((self.elapsed_us % day_us) * 24 / day_us) as usize;
                let w = DIURNAL_WEIGHTS[hour] as i64;
                // Rate in percent of nominal: 100 at amplitude 0, the full
                // weight at amplitude 100. Floored at 10% so the mean gap
                // never explodes past 10x nominal.
                let rate_pct = (100 + (*peak_pct as i64) * (w - 100) / 100).max(10) as u64;
                let mean = ((*mean_gap_us).max(1) * 100 / rate_pct).max(1);
                (self.rng.exponential(mean as f64) as u64).max(1)
            }
            ArrivalProcess::Trace { gaps_us } => {
                if gaps_us.is_empty() {
                    1
                } else {
                    let g = gaps_us[self.cursor % gaps_us.len()];
                    self.cursor += 1;
                    g
                }
            }
        };
        self.elapsed_us = self.elapsed_us.saturating_add(gap);
        gap
    }

    /// Virtual time elapsed over all gaps drawn so far.
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed_us
    }

    /// Draw `n` gaps into a vector (convenience for batched scheduling).
    pub fn take_gaps(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_gap_us()).collect()
    }

    /// Absolute arrival instants for `n` arrivals starting at `start`: the
    /// first arrival lands at `start` itself (matching the historical
    /// driver, whose round 0 slept no gap), each later one after the next
    /// sampled gap.
    pub fn arrival_times(&mut self, n: usize, start: SimTime) -> Vec<SimTime> {
        let mut at = start;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 {
                at += crate::time::SimDuration::from_micros(self.next_gap_us());
            }
            out.push(at);
        }
        out
    }
}

/// Declared tenant population: how many users and repos the workload spreads
/// over, and how skewed the activity distribution is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantMix {
    /// Distinct users pushing to the federation.
    pub users: u32,
    /// Distinct repositories receiving pushes.
    pub repos: u32,
    /// Zipf exponent ×100 (100 = classic 1/rank, 0 = uniform).
    pub zipf_x100: u32,
}

impl Default for TenantMix {
    fn default() -> Self {
        TenantMix {
            users: 1,
            repos: 1,
            zipf_x100: 100,
        }
    }
}

impl TenantMix {
    pub fn new(users: u32, repos: u32) -> Self {
        TenantMix {
            users: users.max(1),
            repos: repos.max(1),
            zipf_x100: 100,
        }
    }

    /// Set the Zipf exponent ×100 (builder style).
    pub fn zipf_x100(mut self, z: u32) -> Self {
        self.zipf_x100 = z;
        self
    }
}

/// The materialized tenant population: integer Zipf CDF tables for repo and
/// user activity.
#[derive(Clone, Debug)]
pub struct TenantModel {
    mix: TenantMix,
    /// Cumulative integer Zipf weights over repos (ranked by id).
    repo_cdf: Vec<u64>,
    /// Cumulative integer Zipf weights over users (ranked by id).
    user_cdf: Vec<u64>,
}

/// Integer cumulative Zipf weight table: entity at rank `i` (0-based) gets
/// weight `⌊SCALE / (i+1)^s⌋ + 1` (the `+1` keeps every entity reachable).
fn zipf_cdf(n: u32, s_x100: u32) -> Vec<u64> {
    let s = s_x100 as f64 / 100.0;
    let mut cum = 0u64;
    (0..n)
        .map(|i| {
            let w = (1.0e9 / ((i + 1) as f64).powf(s)) as u64 + 1;
            cum += w;
            cum
        })
        .collect()
}

impl TenantModel {
    pub fn new(mix: &TenantMix) -> Self {
        TenantModel {
            mix: *mix,
            repo_cdf: zipf_cdf(mix.repos.max(1), mix.zipf_x100),
            user_cdf: zipf_cdf(mix.users.max(1), mix.zipf_x100),
        }
    }

    pub fn mix(&self) -> &TenantMix {
        &self.mix
    }

    fn pick(cdf: &[u64], rng: &mut DetRng) -> u32 {
        let total = *cdf.last().expect("cdf non-empty");
        let x = rng.range_u64(0, total);
        cdf.partition_point(|&c| c <= x) as u32
    }

    /// Sample the `(user, repo)` of the next arrival. Two draws from `rng`
    /// per call, always in user-then-repo order, so tenant streams are
    /// byte-reproducible.
    pub fn sample(&self, rng: &mut DetRng) -> (u32, u32) {
        let user = Self::pick(&self.user_cdf, rng);
        let repo = Self::pick(&self.repo_cdf, rng);
        (user, repo)
    }
}

/// A complete workload declaration: the arrival law, how many arrivals to
/// drive, and the tenant population they are attributed to. Built once and
/// handed to `FederationBuilder::workload(..)`; drivers then obtain the
/// deterministic generators via [`Workload::arrival_gen`] /
/// [`Workload::tenant_rng`].
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub process: ArrivalProcess,
    /// Arrivals (trigger rounds / pushes) to drive. 0 = caller-controlled.
    pub arrivals: u64,
    pub tenants: TenantMix,
}

impl Workload {
    pub fn new(process: ArrivalProcess) -> Self {
        Workload {
            process,
            arrivals: 0,
            tenants: TenantMix::default(),
        }
    }

    /// Set the arrival budget (builder style).
    pub fn arrivals(mut self, n: u64) -> Self {
        self.arrivals = n;
        self
    }

    /// Set the tenant mix (builder style).
    pub fn tenants(mut self, mix: TenantMix) -> Self {
        self.tenants = mix;
        self
    }

    /// The arrival-gap generator for a world seed. Forks
    /// [`ARRIVAL_FORK_LABEL`] exactly as the historical scenario driver did,
    /// so legacy timelines are unchanged.
    pub fn arrival_gen(&self, seed: u64) -> ArrivalGen {
        ArrivalGen::new(
            DetRng::seed_from_u64(seed).fork(ARRIVAL_FORK_LABEL),
            self.process.clone(),
        )
    }

    /// The tenant-sampling RNG for a world seed (disjoint stream from the
    /// arrival gaps — see [`TENANT_FORK_LABEL`]).
    pub fn tenant_rng(&self, seed: u64) -> DetRng {
        DetRng::seed_from_u64(seed).fork(TENANT_FORK_LABEL)
    }

    /// Materialize the tenant population.
    pub fn tenant_model(&self) -> TenantModel {
        TenantModel::new(&self.tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> DetRng {
        DetRng::seed_from_u64(seed).fork(ARRIVAL_FORK_LABEL)
    }

    /// The legacy sampler, verbatim, as it stood in the scenario runner.
    fn legacy_next_gap_us(rng: &mut DetRng, gap_secs: u64, burstiness_pct: u32) -> u64 {
        let base = gap_secs.saturating_mul(1_000_000).max(8);
        if rng.chance(burstiness_pct as f64 / 100.0) {
            base / 8
        } else {
            base.saturating_add(rng.range_u64(0, base / 4 + 1))
        }
    }

    #[test]
    fn bursty_is_bit_compatible_with_the_legacy_sampler() {
        for (seed, gap, burst) in [(7u64, 300u64, 0u32), (42, 749, 35), (9, 0, 100), (1, 60, 50)] {
            let mut gen = ArrivalGen::new(
                rng(seed),
                ArrivalProcess::Bursty {
                    gap_secs: gap,
                    burstiness_pct: burst,
                },
            );
            let mut legacy = rng(seed);
            for i in 0..64 {
                assert_eq!(
                    gen.next_gap_us(),
                    legacy_next_gap_us(&mut legacy, gap, burst),
                    "seed {seed} gap {gap} burst {burst} draw {i}"
                );
            }
        }
    }

    #[test]
    fn a_bursty_gap_beyond_the_clock_saturates() {
        let mut gen = ArrivalGen::new(
            rng(7),
            ArrivalProcess::Bursty {
                gap_secs: u64::MAX,
                burstiness_pct: 0,
            },
        );
        assert_eq!(gen.next_gap_us(), u64::MAX);
        assert_eq!(gen.elapsed_us(), u64::MAX);
    }

    #[test]
    fn same_seed_same_gap_sequence_for_every_process() {
        let processes = vec![
            ArrivalProcess::Bursty {
                gap_secs: 120,
                burstiness_pct: 40,
            },
            ArrivalProcess::Poisson { mean_gap_us: 90 },
            ArrivalProcess::Diurnal {
                mean_gap_us: 250,
                day_secs: 3600,
                peak_pct: 80,
            },
            ArrivalProcess::Trace {
                gaps_us: vec![5, 0, 17, 3],
            },
        ];
        for p in processes {
            let a: Vec<u64> = ArrivalGen::new(rng(11), p.clone()).take_gaps(256);
            let b: Vec<u64> = ArrivalGen::new(rng(11), p.clone()).take_gaps(256);
            assert_eq!(a, b, "{} not deterministic", p.kind());
        }
    }

    #[test]
    fn trace_replay_cycles_and_consumes_no_randomness() {
        let mut gen = ArrivalGen::new(
            rng(3),
            ArrivalProcess::Trace {
                gaps_us: vec![10, 20, 30],
            },
        );
        assert_eq!(gen.take_gaps(7), vec![10, 20, 30, 10, 20, 30, 10]);
        // Empty traces degrade to a 1 µs metronome instead of stalling.
        let mut empty = ArrivalGen::new(rng(3), ArrivalProcess::Trace { gaps_us: vec![] });
        assert_eq!(empty.take_gaps(3), vec![1, 1, 1]);
    }

    #[test]
    fn diurnal_peak_hours_arrive_faster_than_the_trough() {
        // One modulated hour per 150 ms of virtual time keeps the test fast.
        let mut gen = ArrivalGen::new(
            rng(5),
            ArrivalProcess::Diurnal {
                mean_gap_us: 400,
                day_secs: 4,
                peak_pct: 100,
            },
        );
        // Bucket the mean sampled gap by hour-of-day.
        let mut sums = [0u64; 24];
        let mut counts = [0u64; 24];
        for _ in 0..20_000 {
            let day_us = 4_000_000u64;
            let hour = ((gen.elapsed_us() % day_us) * 24 / day_us) as usize;
            sums[hour] += gen.next_gap_us();
            counts[hour] += 1;
        }
        let mean = |h: usize| sums[h] / counts[h].max(1);
        // Hour 12 carries weight 180, hour 3 weight 38: peak gaps must be
        // decisively shorter than trough gaps.
        assert!(
            mean(12) * 2 < mean(3),
            "peak mean {} vs trough mean {}",
            mean(12),
            mean(3)
        );
    }

    #[test]
    fn arrival_times_start_at_zero_gap() {
        let mut gen = ArrivalGen::new(
            rng(8),
            ArrivalProcess::Trace {
                gaps_us: vec![100, 200],
            },
        );
        let at = gen.arrival_times(4, SimTime::from_micros(50));
        let us: Vec<u64> = at.iter().map(|t| t.as_micros()).collect();
        assert_eq!(us, vec![50, 150, 350, 450]);
    }

    #[test]
    fn zipf_tenants_skew_towards_low_ids() {
        let mix = TenantMix::new(10_000, 2_000).zipf_x100(110);
        let model = TenantModel::new(&mix);
        let mut trng = Workload::new(ArrivalProcess::Poisson { mean_gap_us: 1 })
            .tenants(mix)
            .tenant_rng(42);
        let mut per_repo = vec![0u64; 2_000];
        for _ in 0..50_000 {
            per_repo[model.sample(&mut trng).1 as usize] += 1;
        }
        let (hot_repo, &hot_count) = per_repo
            .iter()
            .enumerate()
            .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
            .expect("non-empty");
        assert!(hot_repo < 10, "hottest repo should be low-ranked, got {hot_repo}");
        let avg = 50_000 / 2_000;
        assert!(
            hot_count > 20 * avg,
            "zipf head not heavy enough: {hot_count} vs avg {avg}"
        );
        // The tail is still reachable.
        assert!(per_repo.iter().filter(|&&c| c > 0).count() > 500);
    }

    #[test]
    fn tenant_sampling_is_deterministic_and_disjoint_from_arrivals() {
        let mix = TenantMix::new(100, 50);
        let w = Workload::new(ArrivalProcess::Poisson { mean_gap_us: 10 }).tenants(mix);
        let draw = |seed: u64| {
            let m = w.tenant_model();
            let mut r = w.tenant_rng(seed);
            (0..200).map(|_| m.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Arrival gaps are unaffected by whether tenants were sampled.
        let gaps_a: Vec<u64> = w.arrival_gen(7).take_gaps(32);
        let _ = draw(7);
        let gaps_b: Vec<u64> = w.arrival_gen(7).take_gaps(32);
        assert_eq!(gaps_a, gaps_b);
    }
}
