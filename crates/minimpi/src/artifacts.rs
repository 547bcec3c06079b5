//! The KaMPIng reproducibility artifacts, downscaled (§6.3).
//!
//! The original artifacts are bash scripts run inside a published container.
//! Each artifact here is a real experiment over the minimpi runtime that
//! checks the corresponding KaMPIng claim at laptop scale:
//!
//! * `allreduce` — ergonomic bindings compute what raw calls compute (the
//!   headline zero-overhead claim; its wall-clock side is
//!   [`allreduce_overhead_ratio`], a host reading kept out of the artifact);
//! * `alltoall` — correctness of the owning alltoallv binding;
//! * `sample-sort` — the paper's sorting application: a distributed sample
//!   sort built on the bindings reproduces the sequential sort;
//! * `vector-bool` — the `vector<bool>` special case broadcasts correctly.

use crate::bindings::Kamping;
use crate::comm::{run_mpi, Rank, ReduceOp};
use hpcci_faas::{CommandRegistry, ExecOutcome};
use std::time::Instant;

/// The artifact suite, in the order the workflow runs it.
pub const KAMPING_ARTIFACTS: [&str; 4] = ["allreduce", "alltoall", "sample-sort", "vector-bool"];

/// Outcome of one artifact experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactResult {
    pub name: String,
    pub passed: bool,
    pub details: String,
}

/// Run one artifact by name.
pub fn run_artifact(name: &str) -> ArtifactResult {
    match name {
        "allreduce" => allreduce_equivalence(),
        "alltoall" => alltoall_correctness(),
        "sample-sort" => sample_sort(),
        "vector-bool" => vector_bool(),
        other => ArtifactResult {
            name: other.to_string(),
            passed: false,
            details: format!("unknown artifact `{other}`"),
        },
    }
}

const ALLREDUCE_RANKS: usize = 4;
const ALLREDUCE_LEN: usize = 4096;
/// Allreduces per rank in one run of either side.
const ALLREDUCE_REPS: usize = 30;

fn raw_allreduce(rank: &mut Rank) -> Vec<f64> {
    let data = vec![rank.rank as f64; ALLREDUCE_LEN];
    let mut last = Vec::new();
    for _ in 0..ALLREDUCE_REPS {
        last = rank.allreduce_f64(&data, ReduceOp::Sum);
    }
    last
}

fn kamping_allreduce(rank: &mut Rank) -> Vec<f64> {
    let data = vec![rank.rank as f64; ALLREDUCE_LEN];
    let mut k = Kamping::new(rank);
    let mut last = Vec::new();
    for _ in 0..ALLREDUCE_REPS {
        last = k.allreduce_sum(&data);
    }
    last
}

/// Headline claim: the ergonomic binding computes exactly what the raw call
/// computes, with near-zero overhead. The artifact gates on *correctness*
/// (identical results) only, so its stored bytes are a function of the code;
/// the wall-clock side of the claim is a host reading,
/// [`allreduce_overhead_ratio`].
fn allreduce_equivalence() -> ArtifactResult {
    let raw = run_mpi(ALLREDUCE_RANKS, raw_allreduce);
    let wrapped = run_mpi(ALLREDUCE_RANKS, kamping_allreduce);
    let correct = raw == wrapped && raw.iter().all(|r| r.len() == ALLREDUCE_LEN && r[0] == 6.0);
    ArtifactResult {
        name: "allreduce".to_string(),
        passed: correct,
        details: format!(
            "results identical across {ALLREDUCE_RANKS} ranks (claim: near-zero overhead — \
             `reproduce exp63_kamping` prints the wall-clock ratio on stderr)"
        ),
    }
}

/// The zero-overhead claim measured on this host: wall time of the KaMPIng
/// allreduce over the raw one, each the fastest of `samples` runs after one
/// warm-up run. A host reading, so it never enters an artifact.
pub fn allreduce_overhead_ratio(samples: usize) -> f64 {
    let fastest = |side: fn(&mut Rank) -> Vec<f64>| {
        std::hint::black_box(run_mpi(ALLREDUCE_RANKS, side));
        (0..samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(run_mpi(ALLREDUCE_RANKS, side));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    fastest(kamping_allreduce) / fastest(raw_allreduce).max(1e-9)
}

fn alltoall_correctness() -> ArtifactResult {
    const RANKS: usize = 4;
    let results = run_mpi(RANKS, |rank| {
        let chunks: Vec<Vec<i64>> = (0..RANKS)
            .map(|dst| vec![(rank.rank * 100 + dst) as i64; 3])
            .collect();
        Kamping::new(rank).alltoallv(&chunks)
    });
    let mut ok = true;
    for (r, got) in results.iter().enumerate() {
        for (s, chunk) in got.iter().enumerate() {
            ok &= *chunk == vec![(s * 100 + r) as i64; 3];
        }
    }
    ArtifactResult {
        name: "alltoall".to_string(),
        passed: ok,
        details: format!("{RANKS} ranks exchanged 3-element chunks, permutation verified"),
    }
}

/// Distributed sample sort: rank-local data, sampled splitters broadcast
/// from root, alltoall redistribution, local sort, gather — must equal the
/// sequential sort of the union.
fn sample_sort() -> ArtifactResult {
    const RANKS: usize = 4;
    const PER_RANK: usize = 500;
    let results = run_mpi(RANKS, |rank| {
        // Deterministic pseudo-random local data.
        let mut local: Vec<i64> = (0..PER_RANK)
            .map(|i| {
                let x = (rank.rank * PER_RANK + i) as i64;
                (x.wrapping_mul(2654435761) % 10_000).abs()
            })
            .collect();
        let mut k = Kamping::new(rank);

        // 1. Sample splitters: every rank contributes its local quartiles.
        local.sort_unstable();
        let samples: Vec<i64> = (1..RANKS)
            .map(|q| local[q * PER_RANK / RANKS])
            .collect();
        let (all_samples, _) = k.gatherv(0, &samples);
        let splitters = if k.rank() == 0 {
            let mut s = all_samples;
            s.sort_unstable();
            // Pick RANKS-1 evenly spaced splitters.
            (1..RANKS).map(|q| s[q * s.len() / RANKS - 1]).collect::<Vec<_>>()
        } else {
            Vec::new()
        };
        let splitters = if k.rank() == 0 {
            k.bcast(0, Some(&splitters))
        } else {
            k.bcast::<i64>(0, None)
        };

        // 2. Partition local data by splitter and redistribute.
        let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); RANKS];
        for &v in &local {
            let dst = splitters.iter().position(|&s| v <= s).unwrap_or(RANKS - 1);
            buckets[dst].push(v);
        }
        let received = k.alltoallv(&buckets);

        // 3. Local sort of the received range.
        let mut mine: Vec<i64> = received.into_iter().flatten().collect();
        mine.sort_unstable();

        // 4. Gather the globally sorted sequence at root.
        let (sorted, _) = k.gatherv(0, &mine);
        sorted
    });

    // Root's gathered output must equal the sequential sort of all input.
    let mut expected: Vec<i64> = (0..RANKS * PER_RANK)
        .map(|x| ((x as i64).wrapping_mul(2654435761) % 10_000).abs())
        .collect();
    expected.sort_unstable();
    let passed = results[0] == expected;
    ArtifactResult {
        name: "sample-sort".to_string(),
        passed,
        details: format!(
            "{} elements across {RANKS} ranks; distributed output {} sequential sort",
            RANKS * PER_RANK,
            if passed { "matches" } else { "DIVERGES from" }
        ),
    }
}

fn vector_bool() -> ArtifactResult {
    let pattern: Vec<bool> = (0..20).map(|i| i % 3 == 0 || i % 7 == 0).collect();
    let expected = pattern.clone();
    let results = run_mpi(3, move |rank| {
        let mut k = Kamping::new(rank);
        if k.rank() == 0 {
            k.bcast_bools(0, Some(&pattern))
        } else {
            k.bcast_bools(0, None)
        }
    });
    let passed = results.iter().all(|r| *r == expected);
    ArtifactResult {
        name: "vector-bool".to_string(),
        passed,
        details: "bit-packed bool broadcast across 3 ranks".to_string(),
    }
}

/// Install the artifact runner at a federation site: `bash
/// artifacts/<name>.sh` runs the corresponding experiment. Mirrors §6.3: the
/// scripts must run inside the published container, so the handler fails
/// when the worker is not containerized.
pub fn install_artifacts(commands: &mut CommandRegistry) {
    commands.register("bash", |env| {
        let Some(script) = env.args().split_whitespace().next() else {
            return ExecOutcome::fail("bash: missing script", 0.05);
        };
        let Some(name) = script
            .strip_prefix("artifacts/")
            .and_then(|s| s.strip_suffix(".sh"))
        else {
            return ExecOutcome::fail(format!("bash: {script}: No such file or directory"), 0.05);
        };
        if env.container.is_none() {
            return ExecOutcome::fail(
                "artifact scripts must run inside the kamping-reproducibility container",
                0.1,
            );
        }
        let result = run_artifact(name);
        // Artifact cost model: the original experiments run minutes on a
        // cloud VM; downscaled reference costs per artifact.
        let work = match name {
            "allreduce" => 45.0,
            "alltoall" => 20.0,
            "sample-sort" => 90.0,
            "vector-bool" => 10.0,
            _ => 1.0,
        };
        let stdout = format!(
            "[{}] {}\n{}\n",
            result.name,
            if result.passed { "PASSED" } else { "FAILED" },
            result.details
        );
        if result.passed {
            ExecOutcome::ok(stdout, work)
        } else {
            ExecOutcome {
                stdout: stdout.clone(),
                stderr: format!("artifact {} failed", result.name),
                result: Err(format!("artifact {} failed", result.name)),
                work: hpcci_cluster::WorkUnits::secs(work),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::{NodeRole, Site};
    use hpcci_faas::SiteRuntime;
    use hpcci_sim::{DetRng, SimTime};

    #[test]
    fn all_artifacts_pass() {
        for name in KAMPING_ARTIFACTS {
            let r = run_artifact(name);
            assert!(r.passed, "{name}: {}", r.details);
        }
    }

    #[test]
    fn unknown_artifact_fails_cleanly() {
        let r = run_artifact("nonexistent");
        assert!(!r.passed);
    }

    fn execute(cmd: &str, container: Option<String>) -> ExecOutcome {
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        install_artifacts(&mut rt.commands);
        let account = rt.site.add_account("cc", "chameleon");
        let cred = hpcci_cluster::Cred::of(&account);
        let mut rng = DetRng::seed_from_u64(1);
        rt.execute(cmd, &account, &cred, NodeRole::Login, "chi", SimTime::ZERO, &mut rng, container.as_deref())
    }

    #[test]
    fn bash_handler_runs_artifacts_in_container() {
        let out = execute(
            "bash artifacts/vector-bool.sh",
            Some("ghcr.io/kamping-site/kamping-reproducibility:v1".into()),
        );
        assert!(out.result.is_ok(), "{}", out.stderr);
        assert!(out.stdout.contains("[vector-bool] PASSED"));
    }

    #[test]
    fn bash_handler_requires_container() {
        let out = execute("bash artifacts/vector-bool.sh", None);
        assert!(out.result.is_err());
        assert!(out.stderr.contains("container"));
    }

    #[test]
    fn bash_handler_rejects_unknown_scripts() {
        let out = execute("bash run_everything.sh", Some("img:v1".into()));
        assert!(out.result.is_err());
        assert!(out.stderr.contains("No such file"));
    }
}
