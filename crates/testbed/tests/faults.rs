//! Fault-injection tests: node failures, replica failover, and the
//! availability value of `K > 1`.

use edgerep_core::appro::ApproG;
use edgerep_model::ComputeNodeId;
use edgerep_testbed::sim::NodeFailure;
use edgerep_testbed::{
    build_testbed_instance, try_run_testbed_with_plan, FaultPlan, SimConfig, SimError,
    TestbedConfig, TestbedReport,
};

fn world(k: usize, seed: u64) -> edgerep_testbed::TestbedWorld {
    let cfg = TestbedConfig {
        query_count: 30,
        windows: 6,
        trace: edgerep_workload::mobile_trace::TraceConfig {
            users: 200,
            apps: 30,
            days: 10,
            ..Default::default()
        },
        ..Default::default()
    }
    .with_max_replicas(k);
    build_testbed_instance(&cfg, seed)
}

/// One Appro-G run under permanent node `faults` (empty = none).
fn run(
    w: &edgerep_testbed::TestbedWorld,
    sim: &SimConfig,
    faults: &[NodeFailure],
) -> TestbedReport {
    try_run_testbed_with_plan(
        &ApproG::default(),
        w,
        sim,
        &FaultPlan::from_failures(faults),
    )
    .unwrap()
}

#[test]
fn no_faults_no_fault_accounting() {
    let w = world(3, 1);
    let report = run(&w, &SimConfig::default(), &[]);
    assert_eq!(report.failovers, 0);
    assert_eq!(report.queries_lost_to_faults, 0);
}

#[test]
fn early_fault_never_increases_admissions() {
    let w = world(3, 2);
    let sim = SimConfig::default();
    let clean = run(&w, &sim, &[]);
    // Kill the busiest cloudlet before any query arrives.
    let loads = clean.plan.node_loads(&w.instance);
    let busiest = loads
        .iter()
        .enumerate()
        .skip(4) // skip the DC VMs; cloudlets carry the edge load
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| ComputeNodeId(i as u32))
        .unwrap();
    let faulty = run(
        &w,
        &sim,
        &[NodeFailure {
            node: busiest,
            at_s: 0.0,
        }],
    );
    assert!(faulty.measured_admitted <= clean.measured_admitted);
    assert!(faulty.measured_volume <= clean.measured_volume + 1e-9);
    // Something was affected: failovers happened or queries were lost
    // (the busiest cloudlet served work in the clean run).
    assert!(
        faulty.failovers > 0 || faulty.queries_lost_to_faults > 0,
        "killing the busiest node must affect something"
    );
}

#[test]
fn replication_enables_failover() {
    // With K = 1 a failed node's datasets are simply gone; with K = 3
    // arriving queries can fail over. Aggregated over seeds to dodge
    // per-topology noise.
    let mut lost_k1 = 0usize;
    let mut lost_k3 = 0usize;
    let mut failovers_k3 = 0usize;
    for seed in 0..6u64 {
        for (k, lost, fo) in [
            (1usize, &mut lost_k1, None),
            (3, &mut lost_k3, Some(&mut failovers_k3)),
        ] {
            let w = world(k, seed);
            let fault = NodeFailure {
                node: ComputeNodeId(4), // first cloudlet VM
                at_s: 0.0,
            };
            let report = run(
                &w,
                &SimConfig {
                    seed,
                    ..Default::default()
                },
                &[fault],
            );
            *lost += report.queries_lost_to_faults;
            if let Some(fo) = fo {
                *fo += report.failovers;
            }
        }
    }
    assert!(
        failovers_k3 > 0,
        "K = 3 should produce at least one successful failover across 6 seeds"
    );
    assert!(
        lost_k3 <= lost_k1,
        "more replicas must not lose more queries ({lost_k3} vs {lost_k1})"
    );
}

#[test]
fn mid_run_fault_poisons_in_flight_queries() {
    let w = world(3, 5);
    // Storm arrivals so plenty of work is in flight, then kill a cloudlet
    // mid-run.
    let sim = SimConfig {
        arrival_rate_per_s: 100.0,
        ..Default::default()
    };
    let clean = run(&w, &sim, &[]);
    let faults: Vec<NodeFailure> = (4..8)
        .map(|i| NodeFailure {
            node: ComputeNodeId(i),
            at_s: 0.05,
        })
        .collect();
    let faulty = run(&w, &sim, &faults);
    assert!(faulty.measured_admitted <= clean.measured_admitted);
    // Accounting stays coherent.
    assert!(faulty.queries_lost_to_faults + faulty.answers.len() <= faulty.total_queries);
}

#[test]
fn all_nodes_down_loses_everything() {
    let w = world(2, 7);
    let faults: Vec<NodeFailure> = w
        .instance
        .cloud()
        .compute_ids()
        .map(|v| NodeFailure { node: v, at_s: 0.0 })
        .collect();
    let report = run(&w, &SimConfig::default(), &faults);
    assert_eq!(report.measured_admitted, 0);
    assert_eq!(report.answers.len(), 0);
    assert_eq!(
        report.queries_lost_to_faults, report.planned_admitted,
        "every planned query is lost when the whole fleet is down"
    );
}

// ---------------------------------------------------------------------
// Property tests over generated fault plans (plain loops: the harness
// must hold for every seed, not a sampled subset).
// ---------------------------------------------------------------------

use edgerep_testbed::FaultConfig;

/// 50+ seeded MTBF/MTTR plans — node flapping, link degradation and
/// partitions — through the simulator with repair off and on: no code
/// path may panic, accounting must stay coherent, and the live plan must
/// never over-replicate.
#[test]
fn generated_plans_never_panic_and_stay_coherent() {
    let mut plans = 0usize;
    for seed in 0..25u64 {
        let k = 1 + (seed as usize % 4);
        let w = world(k, seed);
        let nodes = w.instance.cloud().compute_count();
        for fraction in [0.15, 0.35] {
            let plan = FaultConfig {
                link_fraction: 0.1,
                link_mtbf_s: 50.0,
                link_mttr_s: 20.0,
                ..Default::default()
            }
            .with_node_fraction(fraction)
            .with_seed(seed * 31 + (fraction * 100.0) as u64)
            .generate(nodes);
            plans += 1;
            for repair in [false, true] {
                let sim = SimConfig {
                    seed,
                    repair,
                    ..Default::default()
                };
                let report = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan)
                    .expect("generated plans validate");
                // Conservation: every planned query is met, lost, or
                // simply late — never double-counted.
                assert!(report.measured_admitted <= report.planned_admitted);
                assert!(report.measured_volume <= report.planned_volume + 1e-9);
                assert!(
                    report.answers.len() + report.queries_lost_to_faults <= report.total_queries
                );
                assert!(report.queries_lost_to_faults <= report.planned_admitted);
                assert!((0.0..=1.0).contains(&report.availability));
                assert!(report.repairs_completed <= report.repairs_scheduled);
                assert!(report.repair_gb >= 0.0 && report.node_downtime_s >= 0.0);
                // Repair never over-replicates past the budget K.
                for d in w.instance.dataset_ids() {
                    assert!(
                        report.live_plan.replica_count(d) <= w.instance.max_replicas(),
                        "dataset {d:?} over-replicated (seed {seed}, repair {repair})"
                    );
                }
            }
        }
    }
    assert!(plans >= 50, "property sweep must cover at least 50 plans");
}

/// Identical (seed, plan, config) runs produce identical reports.
#[test]
fn fault_runs_are_deterministic() {
    let w = world(3, 11);
    let plan = FaultConfig::default()
        .with_node_fraction(0.3)
        .with_seed(11)
        .generate(w.instance.cloud().compute_count());
    let sim = SimConfig {
        seed: 11,
        repair: true,
        ..Default::default()
    };
    let a = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan).unwrap();
    let b = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan).unwrap();
    assert_eq!(a.measured_volume, b.measured_volume);
    assert_eq!(a.measured_admitted, b.measured_admitted);
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.queries_lost_to_faults, b.queries_lost_to_faults);
    assert_eq!(a.repairs_scheduled, b.repairs_scheduled);
    assert_eq!(a.repairs_completed, b.repairs_completed);
    assert_eq!(a.repair_gb, b.repair_gb);
    assert_eq!(a.repair_retries, b.repair_retries);
    assert_eq!(a.transfer_retries, b.transfer_retries);
    assert_eq!(a.node_downtime_s, b.node_downtime_s);
    assert_eq!(a.availability, b.availability);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.live_plan, b.live_plan);
    assert_eq!(a.answers.len(), b.answers.len());
}

/// A permanent node loss with repair enabled ends the run with at least
/// as many replicas standing as the repair-disabled run — the controller
/// restored what the fault destroyed.
#[test]
fn repair_restores_replicas_lost_to_a_permanent_outage() {
    let w = world(3, 13);
    let sim_off = SimConfig::default();
    let clean = run(&w, &sim_off, &[]);
    // Kill the busiest replica-holding cloudlet permanently at t = 1 s.
    let mut holders = vec![0usize; w.instance.cloud().compute_count()];
    for d in w.instance.dataset_ids() {
        for v in clean.plan.replicas_of(d) {
            holders[v.index()] += 1;
        }
    }
    let victim = holders
        .iter()
        .enumerate()
        .skip(4)
        .max_by_key(|(_, c)| **c)
        .map(|(i, _)| ComputeNodeId(i as u32))
        .unwrap();
    assert!(holders[victim.index()] > 0);
    let plan = FaultPlan {
        node_outages: vec![edgerep_testbed::NodeOutage {
            node: victim,
            down_at_s: 1.0,
            up_at_s: None,
        }],
        link_faults: Vec::new(),
    };
    let count_sum = |r: &edgerep_testbed::TestbedReport| -> usize {
        w.instance
            .dataset_ids()
            .map(|d| r.live_plan.replica_count(d))
            .sum()
    };
    let off = try_run_testbed_with_plan(&ApproG::default(), &w, &sim_off, &plan).unwrap();
    let on = try_run_testbed_with_plan(
        &ApproG::default(),
        &w,
        &SimConfig {
            repair: true,
            ..Default::default()
        },
        &plan,
    )
    .unwrap();
    assert!(on.repairs_completed > 0, "repair must have acted");
    assert!(
        count_sum(&on) > count_sum(&off),
        "repair must restore replicas a permanent outage destroyed"
    );
    for d in w.instance.dataset_ids() {
        assert!(on.live_plan.replica_count(d) <= w.instance.max_replicas());
    }
}

/// An empty fault plan reproduces the fault-free runner field-for-field:
/// the fault machinery is provably inert on the happy path.
#[test]
fn zero_fault_plan_reproduces_clean_run_exactly() {
    let w = world(2, 17);
    let sim = SimConfig {
        repair: true, // even with repair armed there is nothing to repair
        ..Default::default()
    };
    let clean = run(&w, &sim, &[]);
    let faulted =
        try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &FaultPlan::empty()).unwrap();
    assert_eq!(clean.measured_volume, faulted.measured_volume);
    assert_eq!(clean.measured_admitted, faulted.measured_admitted);
    assert_eq!(clean.planned_volume, faulted.planned_volume);
    assert_eq!(clean.mean_response_s, faulted.mean_response_s);
    assert_eq!(clean.p95_response_s, faulted.p95_response_s);
    assert_eq!(clean.max_response_s, faulted.max_response_s);
    assert_eq!(clean.mean_queue_wait_s, faulted.mean_queue_wait_s);
    assert_eq!(clean.mean_transfer_s, faulted.mean_transfer_s);
    assert_eq!(clean.events_processed, faulted.events_processed);
    assert_eq!(clean.failovers, faulted.failovers);
    assert_eq!(clean.queries_lost_to_faults, faulted.queries_lost_to_faults);
    assert_eq!(clean.repairs_scheduled, 0);
    assert_eq!(faulted.repairs_scheduled, 0);
    assert_eq!(clean.node_downtime_s, 0.0);
    assert_eq!(faulted.node_downtime_s, 0.0);
    assert_eq!(clean.availability, 1.0);
    assert_eq!(faulted.availability, 1.0);
    assert_eq!(clean.plan, faulted.plan);
    assert_eq!(clean.live_plan, faulted.live_plan);
    assert_eq!(clean.answers, faulted.answers);
}

// ---------------------------------------------------------------------
// The chunked, resumable multi-source transfer engine under faults.
// ---------------------------------------------------------------------

use edgerep_testbed::{ChunkedConfig, TransferModel};

fn chunked_sim(seed: u64, repair: bool) -> SimConfig {
    SimConfig {
        seed,
        repair,
        transfer: TransferModel::Chunked(ChunkedConfig::default()),
        // Uncontended egress: flows never wait on each other, so any
        // divergence from the point-to-point preset is purely
        // fault-handling (chunking, resume, multi-source).
        nic_contention: false,
        ..Default::default()
    }
}

/// Seeded MTBF/MTTR plans through the chunked engine: no panic, coherent
/// accounting, and resume bookkeeping that never invents bytes — saved
/// chunk volume exists only when a transfer actually resumed.
#[test]
fn chunked_generated_plans_stay_coherent_and_conserve_resume_volume() {
    let mut resumes_total = 0usize;
    for seed in 0..10u64 {
        let k = 1 + (seed as usize % 4);
        let w = world(k, seed);
        let nodes = w.instance.cloud().compute_count();
        let plan = FaultConfig {
            link_fraction: 0.1,
            link_mtbf_s: 50.0,
            link_mttr_s: 20.0,
            ..Default::default()
        }
        .with_node_fraction(0.35)
        .with_seed(seed * 31)
        .generate(nodes);
        let report =
            try_run_testbed_with_plan(&ApproG::default(), &w, &chunked_sim(seed, true), &plan)
                .expect("generated plans validate");
        assert!(report.measured_admitted <= report.planned_admitted);
        assert!(report.measured_volume <= report.planned_volume + 1e-9);
        assert!(report.answers.len() + report.queries_lost_to_faults <= report.total_queries);
        assert!((0.0..=1.0).contains(&report.availability));
        assert!(report.repairs_completed <= report.repairs_scheduled);
        // Resume conservation: bytes saved only by transfers that
        // actually resumed, and durations/tier means stay sane.
        assert!(report.chunk_gb_saved >= 0.0 && report.chunk_gb_saved.is_finite());
        if report.transfer_resumes == 0 {
            assert_eq!(report.chunk_gb_saved, 0.0);
        }
        assert!(report.repair_completion_mean_s >= 0.0);
        for t in report.tier_completion_mean_s {
            assert!(t >= 0.0 && t.is_finite());
        }
        resumes_total += report.transfer_resumes;
        for d in w.instance.dataset_ids() {
            assert!(report.live_plan.replica_count(d) <= w.instance.max_replicas());
        }
    }
    assert!(
        resumes_total > 0,
        "a 10-seed 35%-fraction sweep must interrupt at least one transfer"
    );
}

/// Chunked fault runs are deterministic, including the new accounting.
#[test]
fn chunked_fault_runs_are_deterministic() {
    let w = world(3, 11);
    let plan = FaultConfig::default()
        .with_node_fraction(0.3)
        .with_seed(11)
        .generate(w.instance.cloud().compute_count());
    let sim = chunked_sim(11, true);
    let a = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan).unwrap();
    let b = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan).unwrap();
    assert_eq!(a.measured_volume, b.measured_volume);
    assert_eq!(a.measured_admitted, b.measured_admitted);
    assert_eq!(a.availability, b.availability);
    assert_eq!(a.transfer_resumes, b.transfer_resumes);
    assert_eq!(a.chunk_gb_saved, b.chunk_gb_saved);
    assert_eq!(a.abandoned_dead_source, b.abandoned_dead_source);
    assert_eq!(a.abandoned_partitioned, b.abandoned_partitioned);
    assert_eq!(a.repair_completion_mean_s, b.repair_completion_mean_s);
    assert_eq!(a.tier_completion_mean_s, b.tier_completion_mean_s);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.live_plan, b.live_plan);
}

/// The PR's acceptance pin: under the same seeded transient fault plans
/// (40% of nodes fault-prone, K = 3), the chunked engine's availability
/// is no worse than point-to-point and its mean repair completion time
/// is no slower, aggregated over three seeds — resume plus multi-source
/// swarm can only help.
#[test]
fn chunked_repair_no_worse_than_p2p_under_transient_faults() {
    let mut p2p_avail = 0.0;
    let mut ch_avail = 0.0;
    let mut p2p_repair_s = 0.0;
    let mut ch_repair_s = 0.0;
    let mut repairs = 0usize;
    for seed in 0..3u64 {
        let w = world(3, seed);
        let plan = FaultConfig::default()
            .with_node_fraction(0.4)
            .with_seed(seed)
            .generate(w.instance.cloud().compute_count());
        let p2p_cfg = SimConfig {
            seed,
            repair: true,
            nic_contention: false,
            ..Default::default()
        };
        let p2p = try_run_testbed_with_plan(&ApproG::default(), &w, &p2p_cfg, &plan).unwrap();
        let ch = try_run_testbed_with_plan(&ApproG::default(), &w, &chunked_sim(seed, true), &plan)
            .unwrap();
        p2p_avail += p2p.availability;
        ch_avail += ch.availability;
        p2p_repair_s += p2p.repair_completion_mean_s;
        ch_repair_s += ch.repair_completion_mean_s;
        repairs += ch.repairs_completed;
    }
    assert!(repairs > 0, "the scenario must exercise repair");
    assert!(
        ch_avail >= p2p_avail - 1e-9,
        "chunked availability {ch_avail} below p2p {p2p_avail}"
    );
    assert!(
        ch_repair_s <= p2p_repair_s + 1e-9,
        "chunked repair completion {ch_repair_s} slower than p2p {p2p_repair_s}"
    );
}

/// Correlated region storms over background MTBF noise interrupt enough
/// transfers that every interruption outcome fires across a 32-seed
/// sweep: resume (short outage, partial chunks kept), dead-source
/// abandonment (no live holder through the retry budget), and
/// partitioned abandonment (region isolation outlives the budget) — the
/// same ingredients the `--storm` figure and the `scripts/ci.sh` trace
/// smoke rely on.
#[test]
fn storms_force_resumes_and_abandonments() {
    let w = world(1, 9);
    let nodes = w.instance.cloud().compute_count();
    // DC VMs 0-3 are their own regions; cloudlets form racks of four.
    let regions: Vec<u32> = (0..nodes)
        .map(|i| {
            if i < 4 {
                i as u32
            } else {
                4 + ((i - 4) / 4) as u32
            }
        })
        .collect();
    let (mut resumes, mut saved_gb, mut dead_source, mut partitioned) = (0, 0.0, 0, 0);
    for seed in 0..32u64 {
        let plan = FaultConfig {
            node_mtbf_s: 40.0,
            node_mttr_s: 30.0,
            ..Default::default()
        }
        .with_node_fraction(0.3)
        .with_storms(2)
        .with_seed(seed)
        .generate_with_regions(&regions);
        let sim = SimConfig {
            seed,
            repair: true,
            transfer: TransferModel::Chunked(ChunkedConfig::default()),
            nic_contention: true,
            ..Default::default()
        };
        let report = try_run_testbed_with_plan(&ApproG::default(), &w, &sim, &plan).unwrap();
        assert!((0.0..=1.0).contains(&report.availability));
        resumes += report.transfer_resumes;
        saved_gb += report.chunk_gb_saved;
        dead_source += report.abandoned_dead_source;
        partitioned += report.abandoned_partitioned;
    }
    assert!(
        resumes > 0,
        "a short outage must park and resume at least one chunked transfer"
    );
    assert!(saved_gb > 0.0, "resumed chunks must be kept");
    assert!(
        dead_source > 0,
        "losing every holder through the retry budget must abandon"
    );
    assert!(
        partitioned > 0,
        "a 150 s isolation outlives the retry budget: something must abandon"
    );
}

#[test]
fn fault_on_unknown_node_rejected() {
    let w = world(2, 8);
    let plan = FaultPlan::from_failures(&[NodeFailure {
        node: ComputeNodeId(999),
        at_s: 1.0,
    }]);
    let err = try_run_testbed_with_plan(&ApproG::default(), &w, &SimConfig::default(), &plan)
        .expect_err("a fault on a node the world lacks must be rejected");
    assert!(matches!(err, SimError::FaultPlan(_)), "got {err:?}");
    assert!(err.to_string().contains("unknown node"), "got {err}");
}
