//! Performance model: abstract work → virtual time.
//!
//! Application code in the federation does *real* computation (the docking
//! scorer really scores, minimpi really passes messages), but the *time it is
//! charged* is virtual: each task reports its cost in [`WorkUnits`] — seconds
//! on the reference machine — and the site's [`PerfModel`] converts that into
//! a `SimDuration`, applying the node's relative CPU speed, a fixed per-task
//! overhead, and seeded lognormal jitter (the paper's §2.1 catalogues the
//! real-world sources of that jitter: thread scheduling, power management,
//! temperature...).

use hpcci_sim::{DetRng, SimDuration};

/// Cost of a computation in reference-machine seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct WorkUnits(pub f64);

impl WorkUnits {
    pub const ZERO: WorkUnits = WorkUnits(0.0);

    pub fn secs(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "work must be finite and >= 0");
        WorkUnits(s)
    }

    pub fn scaled(self, f: f64) -> Self {
        WorkUnits::secs(self.0 * f)
    }
}

impl std::ops::Add for WorkUnits {
    type Output = WorkUnits;
    fn add(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits(self.0 + rhs.0)
    }
}

/// Converts work into virtual durations for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Relative speed of a run-of-the-mill core at this site (1.0 = reference).
    pub cpu_speed: f64,
    /// Fixed startup cost per executed task (process spawn, module load).
    pub task_overhead: SimDurationSerde,
    /// Relative sigma of run-to-run lognormal jitter.
    pub jitter_sigma: f64,
    /// One-way latency from this site to the public cloud services.
    pub wan_latency: SimDurationSerde,
    /// Sustained I/O bandwidth of the shared filesystem, bytes per second.
    pub io_bytes_per_sec: f64,
}

/// `SimDuration` stored as microseconds for serde friendliness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDurationSerde(pub u64);

impl From<SimDuration> for SimDurationSerde {
    fn from(d: SimDuration) -> Self {
        SimDurationSerde(d.as_micros())
    }
}

impl From<SimDurationSerde> for SimDuration {
    fn from(d: SimDurationSerde) -> Self {
        SimDuration::from_micros(d.0)
    }
}

impl PerfModel {
    pub fn new(cpu_speed: f64) -> Self {
        assert!(cpu_speed > 0.0);
        PerfModel {
            cpu_speed,
            task_overhead: SimDuration::from_millis(50).into(),
            jitter_sigma: 0.05,
            wan_latency: SimDuration::from_millis(30).into(),
            io_bytes_per_sec: 500e6,
        }
    }

    pub fn with_overhead(mut self, d: SimDuration) -> Self {
        self.task_overhead = d.into();
        self
    }

    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.jitter_sigma = sigma;
        self
    }

    pub fn with_wan_latency(mut self, d: SimDuration) -> Self {
        self.wan_latency = d.into();
        self
    }

    /// Virtual duration of `work` on a core with `node_speed`, with jitter.
    ///
    /// `node_speed` multiplies the site-wide `cpu_speed`, so a site can have
    /// heterogeneous partitions.
    pub fn compute_time(&self, work: WorkUnits, node_speed: f64, rng: &mut DetRng) -> SimDuration {
        debug_assert!(node_speed > 0.0);
        let nominal = work.0 / (self.cpu_speed * node_speed);
        let jittered = nominal * rng.jitter(self.jitter_sigma);
        SimDuration::from(self.task_overhead) + SimDuration::from_secs_f64(jittered)
    }

    /// Round-trip time to the public cloud services.
    pub fn wan_rtt(&self) -> SimDuration {
        SimDuration::from(self.wan_latency) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_cpu_means_shorter_time() {
        let slow = PerfModel::new(0.5).with_jitter(0.0);
        let fast = PerfModel::new(2.0).with_jitter(0.0);
        let mut rng = DetRng::seed_from_u64(1);
        let w = WorkUnits::secs(10.0);
        let t_slow = slow.compute_time(w, 1.0, &mut rng);
        let t_fast = fast.compute_time(w, 1.0, &mut rng);
        assert!(t_slow > t_fast);
        // 10s work at speed 2.0 = 5s + 50ms overhead.
        assert_eq!(t_fast, SimDuration::from_millis(5050));
    }

    #[test]
    fn node_speed_composes_with_site_speed() {
        let m = PerfModel::new(1.0).with_jitter(0.0).with_overhead(SimDuration::ZERO);
        let mut rng = DetRng::seed_from_u64(2);
        let w = WorkUnits::secs(8.0);
        assert_eq!(
            m.compute_time(w, 2.0, &mut rng),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = PerfModel::new(1.0).with_jitter(0.3).with_overhead(SimDuration::ZERO);
        let w = WorkUnits::secs(1.0);
        let mut a = DetRng::seed_from_u64(3);
        let mut b = DetRng::seed_from_u64(3);
        for _ in 0..100 {
            let ta = m.compute_time(w, 1.0, &mut a);
            let tb = m.compute_time(w, 1.0, &mut b);
            assert_eq!(ta, tb, "same seed, same duration");
            assert!(ta >= SimDuration::from_millis(500));
            assert!(ta <= SimDuration::from_secs(2));
        }
    }

    #[test]
    fn zero_work_costs_only_overhead() {
        let m = PerfModel::new(1.0).with_jitter(0.2);
        let mut rng = DetRng::seed_from_u64(5);
        assert_eq!(
            m.compute_time(WorkUnits::ZERO, 1.0, &mut rng),
            SimDuration::from_millis(50)
        );
    }

    #[test]
    #[should_panic]
    fn negative_work_rejected() {
        let _ = WorkUnits::secs(-1.0);
    }
}
