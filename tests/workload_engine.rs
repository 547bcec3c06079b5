//! Property tests for the arrival-process workload engine (PR 8).
//!
//! Two families, seeded by the same in-tree case generator the other
//! property suites use:
//!
//! 1. **Reproducibility** — the arrival stream is byte-identical whether
//!    the generators run serially or across a parallel sweep of any width,
//!    and every scenario outcome derived from it repeats run to run, for
//!    every arrival process.
//! 2. **Knob sensitivity** — changing any knob of a Poisson, diurnal, or
//!    trace process perturbs the scenario digest (nothing silently ignores
//!    its configuration).

use hpcci::scen::{run_spec, ScenarioSpec, TrafficProcess};
use hpcci::sim::sweep::sweep;
use hpcci::sim::{ArrivalProcess, DetRng, TenantMix, TenantModel, Workload};

const CASES: u64 = 12;

fn case_rng(property: &str, case: u64) -> DetRng {
    DetRng::seed_from_u64(0xdeed_5eed ^ case).fork(property)
}

/// One arrival process of each family, with knobs drawn from the case rng.
fn gen_processes(rng: &mut DetRng) -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Bursty {
            gap_secs: rng.range_u64(1, 900),
            burstiness_pct: rng.range_u64(0, 101) as u32,
        },
        ArrivalProcess::Poisson {
            mean_gap_us: rng.range_u64(1_000, 600_000_000),
        },
        ArrivalProcess::Diurnal {
            mean_gap_us: rng.range_u64(1_000, 60_000_000),
            day_secs: 86_400,
            peak_pct: rng.range_u64(0, 101) as u32,
        },
        ArrivalProcess::Trace {
            gaps_us: (0..rng.range_u64(1, 9))
                .map(|_| rng.range_u64(1, 10_000_000))
                .collect(),
        },
    ]
}

/// The same seed yields the same gap stream for every process — whether the
/// generators run serially or across a parallel sweep of any width. The
/// engine draws from a private forked stream, so no scheduling interleaving
/// can reach it.
#[test]
fn arrival_streams_are_identical_serial_and_swept() {
    for case in 0..CASES {
        let mut rng = case_rng("workload_sweep", case);
        let seed = rng.range_u64(0, u64::MAX / 2);
        for process in gen_processes(&mut rng) {
            let workload = Workload::new(process).arrivals(256);
            let serial: Vec<Vec<u64>> = (0..8u64)
                .map(|i| workload.arrival_gen(seed ^ i).take_gaps(256))
                .collect();
            for threads in [2usize, 4, 8] {
                let jobs: Vec<_> = (0..8u64)
                    .map(|i| {
                        let w = workload.clone();
                        move || w.arrival_gen(seed ^ i).take_gaps(256)
                    })
                    .collect();
                let swept = sweep(jobs, threads);
                assert_eq!(
                    swept, serial,
                    "case {case}: gap stream depends on sweep width {threads}"
                );
            }
        }
    }
}

/// Scenario outcomes under every arrival process are a pure function of the
/// spec: a second run lands on the same digest, transcript and end instant.
#[test]
fn scenario_outcomes_are_reproducible_for_every_process() {
    let processes = [
        TrafficProcess::Bursty,
        TrafficProcess::Poisson,
        TrafficProcess::Diurnal { peak_pct: 70 },
        TrafficProcess::Trace {
            gaps_us: vec![45_000_000, 2_000_000, 600_000_000],
        },
    ];
    for (ix, process) in processes.iter().enumerate() {
        let mut spec = ScenarioSpec::minimal("width", 90 + ix as u64);
        spec.traffic.pushes = 3;
        spec.traffic.gap_secs = 150;
        spec.traffic.burstiness_pct = 40;
        spec.traffic.process = process.clone();
        let first = run_spec(&spec).expect("runs");
        assert_eq!(first.runs.len(), 3);
        let again = run_spec(&spec).expect("runs");
        assert_eq!(again.digest, first.digest, "{}", process.kind());
        assert_eq!(again.transcript, first.transcript);
        assert_eq!(again.end_us, first.end_us);
    }
}

/// Every knob of every typed process reaches the scenario digest: perturbing
/// it changes the outcome (pushes > 1 so gaps are actually sampled).
#[test]
fn process_knobs_perturb_scenario_digests() {
    let base = |process: TrafficProcess| {
        let mut spec = ScenarioSpec::minimal("knobs", 77);
        spec.traffic.pushes = 3;
        spec.traffic.gap_secs = 200;
        spec.traffic.burstiness_pct = 30;
        spec.traffic.process = process;
        spec
    };
    let reference = |process: TrafficProcess| {
        run_spec(&base(process)).expect("runs").digest
    };

    // Switching process family alone diverges from bursty.
    let bursty = reference(TrafficProcess::Bursty);
    for process in [
        TrafficProcess::Poisson,
        TrafficProcess::Diurnal { peak_pct: 60 },
        TrafficProcess::Trace {
            gaps_us: vec![10_000_000, 20_000_000],
        },
    ] {
        assert_ne!(
            reference(process.clone()),
            bursty,
            "{} indistinguishable from bursty",
            process.kind()
        );
    }

    // Poisson: the mean comes from gap_secs.
    let mut spec = base(TrafficProcess::Poisson);
    let a = run_spec(&spec).expect("runs").digest;
    spec.traffic.gap_secs += 1;
    assert_ne!(run_spec(&spec).expect("runs").digest, a, "poisson gap_secs inert");

    // Diurnal: peak_pct shapes the curve.
    assert_ne!(
        reference(TrafficProcess::Diurnal { peak_pct: 0 }),
        reference(TrafficProcess::Diurnal { peak_pct: 100 }),
        "diurnal peak_pct inert"
    );

    // Trace: the replayed gaps are the process.
    assert_ne!(
        reference(TrafficProcess::Trace {
            gaps_us: vec![10_000_000, 20_000_000]
        }),
        reference(TrafficProcess::Trace {
            gaps_us: vec![10_000_000, 20_000_001]
        }),
        "trace gaps inert"
    );
}

/// The tenant model is deterministic and Zipf-shaped: the same seed yields
/// the same (user, repo) stream, and a heavier exponent concentrates more
/// traffic on the hottest repo.
#[test]
fn tenant_sampling_is_deterministic_and_zipf_shaped() {
    let draw = |zipf_x100: u32, seed: u64| {
        let mix = TenantMix::new(5_000, 2_000).zipf_x100(zipf_x100);
        let workload = Workload::new(ArrivalProcess::Poisson { mean_gap_us: 1_000 })
            .tenants(mix);
        let mut rng = workload.tenant_rng(seed);
        let model = TenantModel::new(&mix);
        let mut per_repo = vec![0u64; 2_000];
        for _ in 0..20_000 {
            let (user, repo) = model.sample(&mut rng);
            assert!(user < 5_000 && repo < 2_000);
            per_repo[repo as usize] += 1;
        }
        per_repo
    };
    let hottest = |per_repo: &[u64]| per_repo.iter().copied().max().unwrap_or(0);
    let a = draw(100, 4242);
    let b = draw(100, 4242);
    assert_eq!(a, b, "tenant stream not seed-deterministic");
    let flat = draw(10, 4242);
    let skewed = draw(160, 4242);
    assert!(
        hottest(&skewed) > hottest(&flat),
        "heavier zipf exponent must concentrate the hottest repo"
    );
}
