//! Equivalence pins on testbed worlds: `Appro::run` (cached candidate
//! matrix, dirty-set select) must be byte-identical to `Appro::run_naive`
//! (per-probe delays, full rescan after every commit) for every
//! `QueryOrder`, across the Fig. 7/8 grid (F = 1..6, K = 1..7).

use edgerep_core::appro::{Appro, ApproConfig, QueryOrder};
use edgerep_model::Instance;
use edgerep_testbed::{build_testbed_instance, TestbedConfig};

const ORDERS: [QueryOrder; 4] = [
    QueryOrder::GlobalCheapestFirst,
    QueryOrder::Input,
    QueryOrder::VolumeDesc,
    QueryOrder::DeadlineAsc,
];

/// Solutions `==`, dual bound and every θ compared by bits.
fn assert_run_matches_naive(inst: &Instance, what: &str) {
    for order in ORDERS {
        let appro = Appro::with_config(ApproConfig {
            order,
            ..Default::default()
        });
        let fast = appro.run(inst);
        let naive = appro.run_naive(inst);
        assert_eq!(
            fast.solution, naive.solution,
            "{what} {order:?}: solution differs from the full rescan"
        );
        assert_eq!(
            fast.dual_bound.to_bits(),
            naive.dual_bound.to_bits(),
            "{what} {order:?}: dual bound drifted"
        );
        assert_eq!(fast.theta.len(), naive.theta.len());
        for (f, n) in fast.theta.iter().zip(&naive.theta) {
            assert_eq!(f.to_bits(), n.to_bits(), "{what} {order:?}: θ drifted");
        }
    }
}

/// K = 2, seed 15851: a θ rise at a node a *failed* plan's prefix chose
/// frees that node for the demand that failed. A dirty set that records
/// nodes of successful plans only admits 93.06 GB here instead of the
/// full rescan's 99.58 GB.
#[test]
fn failed_plan_prefix_is_tracked_on_k2_seed_15851() {
    let world = build_testbed_instance(&TestbedConfig::default().with_max_replicas(2), 15851);
    let inst = &world.instance;
    assert_run_matches_naive(inst, "K=2 seed 15851");
    let volume = Appro::default().run(inst).solution.admitted_volume(inst);
    assert!(
        (volume - 99.58).abs() < 0.005,
        "admitted {volume:.2} GB, full rescan admits 99.58 GB"
    );
}

/// Two world seeds per grid point: a debug-build world takes ~0.2 s to
/// build (its 90-day trace), which is most of this pin's cost.
fn assert_grid_matches_naive(name: &str, configs: impl Iterator<Item = (usize, TestbedConfig)>) {
    for (x, cfg) in configs {
        for seed in [x as u64, 100 + x as u64] {
            let world = build_testbed_instance(&cfg, seed);
            assert_run_matches_naive(&world.instance, &format!("{name}={x} seed {seed}"));
        }
    }
}

#[test]
fn run_matches_naive_over_the_fig7_f_grid() {
    assert_grid_matches_naive(
        "F",
        (1..=6).map(|f| (f, TestbedConfig::default().with_max_datasets_per_query(f))),
    );
}

#[test]
fn run_matches_naive_over_the_fig8_k_grid() {
    assert_grid_matches_naive(
        "K",
        (1..=7).map(|k| (k, TestbedConfig::default().with_max_replicas(k))),
    );
}
