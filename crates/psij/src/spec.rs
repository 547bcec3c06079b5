//! Scheduler-agnostic job specifications (PSI/J's `JobSpec`).

use hpcci_sim::SimDuration;

/// A portable job description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsijJobSpec {
    pub name: String,
    pub executable: String,
    /// Total processes (ranks).
    pub process_count: u32,
    /// Wall-clock limit.
    pub duration: SimDuration,
    /// Expected run duration for simulated execution (what the job "does").
    pub simulated_runtime: SimDuration,
    /// Whether the simulated payload exits successfully.
    pub simulated_success: bool,
}

impl PsijJobSpec {
    pub fn new(name: &str, executable: &str) -> PsijJobSpec {
        PsijJobSpec {
            name: name.to_string(),
            executable: executable.to_string(),
            process_count: 1,
            duration: SimDuration::from_mins(10),
            simulated_runtime: SimDuration::from_secs(5),
            simulated_success: true,
        }
    }

    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    pub fn running_for(mut self, d: SimDuration) -> Self {
        self.simulated_runtime = d;
        self
    }

    pub fn failing(mut self) -> Self {
        self.simulated_success = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let spec = PsijJobSpec::new("hello", "/bin/echo")
            .with_duration(SimDuration::from_mins(30))
            .running_for(SimDuration::from_secs(9))
            .failing();
        assert_eq!(spec.duration, SimDuration::from_mins(30));
        assert!(!spec.simulated_success);
        assert_eq!(spec.simulated_runtime, SimDuration::from_secs(9));
    }
}
