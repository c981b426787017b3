//! End-to-end testbed integration: controller → replication → DES query
//! phase → analytics answers, checked against independent recomputation.

use edgerep_core::appro::ApproG;
use edgerep_core::popularity::Popularity;
use edgerep_core::PlacementAlgorithm;
use edgerep_testbed::analytics::{evaluate, merge};
use edgerep_testbed::{
    build_testbed_instance, try_run_testbed_with_plan, ConsistencyConfig, FaultPlan, SimConfig,
    TestbedConfig,
};

fn world(seed: u64) -> edgerep_testbed::TestbedWorld {
    let cfg = TestbedConfig {
        query_count: 25,
        windows: 8,
        trace: edgerep_workload::mobile_trace::TraceConfig {
            users: 300,
            apps: 40,
            days: 14,
            ..Default::default()
        },
        ..Default::default()
    };
    build_testbed_instance(&cfg, seed)
}

#[test]
fn answers_match_direct_evaluation() {
    let world = world(5);
    let report = try_run_testbed_with_plan(
        &ApproG::default(),
        &world,
        &SimConfig::default(),
        &FaultPlan::empty(),
    )
    .unwrap();
    assert!(!report.answers.is_empty(), "something must complete");
    for (q, answer) in &report.answers {
        // Recompute the expected answer straight from the records the
        // query's demands cover — independent of the simulator.
        let kind = world.query_kinds[q.index()];
        let partials: Vec<_> = world
            .instance
            .query(*q)
            .demands
            .iter()
            .map(|dem| evaluate(kind, &world.records[dem.dataset.index()]))
            .collect();
        let expected = merge(partials).expect("non-empty demands");
        assert_eq!(answer, &expected, "answer mismatch for {q}");
    }
}

#[test]
fn accounting_invariants() {
    let world = world(6);
    for alg in [
        &ApproG::default() as &dyn PlacementAlgorithm,
        &Popularity::general(),
    ] {
        let report =
            try_run_testbed_with_plan(alg, &world, &SimConfig::default(), &FaultPlan::empty())
                .unwrap();
        assert!(report.measured_admitted <= report.planned_admitted);
        assert!(report.measured_volume <= report.planned_volume + 1e-9);
        assert!(report.planned_admitted <= report.total_queries);
        assert_eq!(report.total_queries, 25);
        assert!(report.mean_response_s >= 0.0);
        assert!(report.max_response_s >= report.mean_response_s);
        assert!(report.plan.validate(&world.instance).is_ok());
        // Planned metrics agree with the plan itself.
        assert!(
            (report.planned_volume - report.plan.admitted_volume(&world.instance)).abs() < 1e-9
        );
    }
}

#[test]
fn measured_latency_respects_static_lower_bound() {
    // The DES adds queueing on top of the static model, so each completed
    // query's measured response is at least its static (uncontended)
    // delay under the same assignment.
    let world = world(7);
    let report = try_run_testbed_with_plan(
        &ApproG::default(),
        &world,
        &SimConfig::default(),
        &FaultPlan::empty(),
    )
    .unwrap();
    for (q, _) in &report.answers {
        let nodes = report
            .plan
            .assignment_of(*q)
            .expect("completed => admitted");
        let static_delay = edgerep_model::delay::query_delay(&world.instance, *q, nodes);
        // mean_response covers all queries; per-query timing isn't in the
        // report, so check the aggregate: worst-case must be at least the
        // largest static delay among completed queries.
        assert!(report.max_response_s >= static_delay - 1e-6);
    }
}

#[test]
fn consistency_traffic_scales_with_growth() {
    let world = world(8);
    let slow = SimConfig {
        arrival_rate_per_s: 0.05,
        consistency: Some(ConsistencyConfig {
            growth_gb_per_hour: 5.0,
            threshold: 0.05,
            check_interval_s: 20.0,
        }),
        seed: 8,
        ..Default::default()
    };
    let fast = SimConfig {
        consistency: Some(ConsistencyConfig {
            growth_gb_per_hour: 50.0,
            ..slow.consistency.unwrap()
        }),
        ..slow
    };
    let r_slow =
        try_run_testbed_with_plan(&ApproG::default(), &world, &slow, &FaultPlan::empty()).unwrap();
    let r_fast =
        try_run_testbed_with_plan(&ApproG::default(), &world, &fast, &FaultPlan::empty()).unwrap();
    assert!(
        r_fast.consistency_gb >= r_slow.consistency_gb,
        "10x growth must not reduce consistency traffic ({} vs {})",
        r_fast.consistency_gb,
        r_slow.consistency_gb
    );
}

#[test]
fn higher_arrival_rate_never_improves_outcomes() {
    // More temporal overlap → more queueing → no more met deadlines.
    let world = world(9);
    let calm = SimConfig {
        arrival_rate_per_s: 0.05,
        ..Default::default()
    };
    let storm = SimConfig {
        arrival_rate_per_s: 50.0,
        ..Default::default()
    };
    let r_calm =
        try_run_testbed_with_plan(&ApproG::default(), &world, &calm, &FaultPlan::empty()).unwrap();
    let r_storm =
        try_run_testbed_with_plan(&ApproG::default(), &world, &storm, &FaultPlan::empty()).unwrap();
    assert!(
        r_storm.measured_admitted <= r_calm.measured_admitted,
        "a query storm should not beat a calm arrival pattern ({} vs {})",
        r_storm.measured_admitted,
        r_calm.measured_admitted
    );
}
