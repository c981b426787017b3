//! Cross-crate determinism: identical seeds produce identical instances,
//! identical placements, identical figures — the property that makes the
//! 15-topology experiment averages reproducible.

use edgerep_core::{simulation_panel, BoxedAlgorithm};
use edgerep_exp::figures::Series;
use edgerep_exp::runner::{run_simulation_point, run_testbed_point};
use edgerep_exp::Summary;
use edgerep_testbed::{
    build_testbed_instance, try_run_testbed_with_plan, FaultPlan, SimConfig, TestbedConfig,
};
use edgerep_workload::{generate_instance, WorkloadParams};

#[test]
fn instances_bitwise_equal_per_seed() {
    let params = WorkloadParams::default();
    for seed in [0u64, 17, 994] {
        let a = generate_instance(&params, seed);
        let b = generate_instance(&params, seed);
        assert_eq!(a.queries(), b.queries());
        assert_eq!(a.datasets(), b.datasets());
        assert_eq!(a.cloud().graph(), b.cloud().graph());
    }
}

#[test]
fn placements_identical_across_runs() {
    let params = WorkloadParams::default();
    let inst = generate_instance(&params, 3);
    for alg in simulation_panel() {
        let s1 = alg.solve(&inst);
        let s2 = alg.solve(&inst);
        assert_eq!(s1, s2, "{} is not deterministic", alg.name());
    }
}

#[test]
fn figure_points_identical_across_processes_worth_of_runs() {
    let params = WorkloadParams {
        query_count: (10, 20),
        ..Default::default()
    };
    let panel: Vec<BoxedAlgorithm> = simulation_panel();
    let a = run_simulation_point(&params, &panel, 4);
    let b = run_simulation_point(&params, &panel, 4);
    assert_eq!(a, b, "parallel runner introduced nondeterminism");
}

#[test]
fn testbed_runs_identical_per_seed() {
    let cfg = TestbedConfig {
        query_count: 15,
        windows: 5,
        trace: edgerep_workload::mobile_trace::TraceConfig {
            users: 150,
            apps: 25,
            days: 7,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = build_testbed_instance(&cfg, 21);
    let sim = SimConfig::default();
    let r1 = try_run_testbed_with_plan(
        &edgerep_core::appro::ApproG::default(),
        &world,
        &sim,
        &FaultPlan::empty(),
    )
    .unwrap();
    let r2 = try_run_testbed_with_plan(
        &edgerep_core::appro::ApproG::default(),
        &world,
        &sim,
        &FaultPlan::empty(),
    )
    .unwrap();
    assert_eq!(r1.measured_volume, r2.measured_volume);
    assert_eq!(r1.measured_admitted, r2.measured_admitted);
    assert_eq!(r1.mean_response_s, r2.mean_response_s);
    assert_eq!(r1.answers, r2.answers);
}

/// Folds per-seed `(volume, throughput)` cells into per-algorithm
/// summaries exactly the way the pre-flatten sequential runner did:
/// seed-major traversal, `Summary::of` over the seed axis, one summary
/// per paper metric (volume, then throughput).
fn sequential_panel(names: &[&str], per_seed: &[Vec<(f64, f64)>]) -> Vec<Series> {
    names
        .iter()
        .enumerate()
        .map(|(ai, name)| Series {
            name: (*name).to_owned(),
            values: vec![
                Summary::of(&per_seed.iter().map(|row| row[ai].0).collect::<Vec<_>>()),
                Summary::of(&per_seed.iter().map(|row| row[ai].1).collect::<Vec<_>>()),
            ],
        })
        .collect()
}

#[test]
fn flattened_simulation_schedule_matches_sequential_path() {
    // The 2-D seed × algorithm scheduler must be invisible in the output:
    // byte-identical series to the plain nested loop it replaced.
    let params = WorkloadParams {
        query_count: (10, 20),
        ..Default::default()
    };
    let panel: Vec<BoxedAlgorithm> = simulation_panel();
    let flattened = run_simulation_point(&params, &panel, 4);
    let per_seed: Vec<Vec<(f64, f64)>> = (0..4u64)
        .map(|seed| {
            let inst = generate_instance(&params, seed);
            panel
                .iter()
                .map(|alg| {
                    let sol = alg.solve(&inst);
                    (sol.admitted_volume(&inst), sol.throughput(&inst))
                })
                .collect()
        })
        .collect();
    let names: Vec<&str> = panel.iter().map(|a| a.name()).collect();
    assert_eq!(flattened, sequential_panel(&names, &per_seed));
}

#[test]
fn flattened_testbed_schedule_matches_sequential_path() {
    let cfg = TestbedConfig {
        query_count: 10,
        windows: 4,
        trace: edgerep_workload::mobile_trace::TraceConfig {
            users: 100,
            apps: 20,
            days: 5,
            ..Default::default()
        },
        ..Default::default()
    };
    let sim = SimConfig::default();
    let panel: Vec<BoxedAlgorithm> = vec![
        Box::new(edgerep_core::appro::ApproG::default()),
        Box::new(edgerep_core::popularity::Popularity::general()),
    ];
    let flattened = run_testbed_point(&cfg, &panel, 3, &sim);
    let per_seed: Vec<Vec<(f64, f64)>> = (0..3u64)
        .map(|seed| {
            let world = build_testbed_instance(&cfg, seed);
            let seeded = SimConfig { seed, ..sim };
            panel
                .iter()
                .map(|alg| {
                    let report = try_run_testbed_with_plan(
                        alg.as_ref(),
                        &world,
                        &seeded,
                        &FaultPlan::empty(),
                    )
                    .unwrap();
                    (report.measured_volume, report.measured_throughput)
                })
                .collect()
        })
        .collect();
    let names: Vec<&str> = panel.iter().map(|a| a.name()).collect();
    assert_eq!(flattened, sequential_panel(&names, &per_seed));
}

#[test]
fn different_seeds_change_something() {
    let params = WorkloadParams::default();
    let a = generate_instance(&params, 1);
    let b = generate_instance(&params, 2);
    assert!(
        a.queries() != b.queries() || a.cloud().graph() != b.cloud().graph(),
        "seeds 1 and 2 produced identical worlds"
    );
}

#[test]
fn rolling_policies_identical_per_seed() {
    use edgerep_forecast::ForecasterKind;
    use edgerep_testbed::rolling::{run_rolling, ReplanPolicy, RollingConfig};

    let cfg = RollingConfig {
        testbed: TestbedConfig {
            query_count: 20,
            windows: 5,
            trace: edgerep_workload::mobile_trace::TraceConfig {
                users: 100,
                apps: 20,
                days: 5,
                ..Default::default()
            },
            ..Default::default()
        },
        epochs: 5,
        seed: 7,
        ..Default::default()
    };
    let alg = edgerep_core::appro::ApproG::default();
    for policy in [
        ReplanPolicy::Static,
        ReplanPolicy::Periodic,
        ReplanPolicy::Predictive(ForecasterKind::SeasonalNaive { period: 4 }),
    ] {
        let a = run_rolling(&alg, &cfg, policy);
        let b = run_rolling(&alg, &cfg, policy);
        assert_eq!(a, b, "{policy:?} rolling run is not deterministic");
        assert_eq!(a.per_epoch.len(), 5);
    }
}
