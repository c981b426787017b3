//! Panel evaluation over seeded repetitions.
//!
//! Both entry points flatten the seed × algorithm grid into **one** task
//! list for [`par_map`], so a 15-seed × 3-algorithm figure point exposes
//! 45 independent tasks instead of 15 — enough to saturate wide machines
//! even at small seed counts. Each seed's input (a simulation instance or
//! a testbed world) is built once, up front, in a parallel stage of its
//! own, so no task ever blocks waiting for another task's input and all
//! algorithms compete on identical inputs exactly as in the sequential
//! formulation. Results land in grid order, making the per-algorithm
//! [`Series`] byte-identical to the sequential baseline.

use edgerep_core::BoxedAlgorithm;
use edgerep_obs as obs;
use edgerep_testbed::{try_run_testbed_with_plan, FaultPlan, SimConfig, TestbedConfig};
use edgerep_workload::{generate_instance, WorkloadParams};

use crate::figures::Series;
use crate::parallel::par_map;

/// Bumps the per-point runner counters: one point, `seeds` repetitions,
/// `seeds × panel` executed panel runs (the actual scheduled tasks).
fn count_point(seeds: usize, panel: usize) {
    obs::counter("runner.points").inc();
    obs::counter("runner.seeds").add(seeds as u64);
    obs::counter("runner.seed_runs").add((seeds * panel) as u64);
}

/// Runs `cell(row, col)` over the full `rows × cols` grid as one flat
/// parallel task list and reshapes the results into row-major nested
/// vectors (`out[row][col]`), identical to the sequential nested loops.
/// The panel runners call it as seeds × algorithms; the extension sweeps
/// (`crate::extensions`) as parameter-values × seeds.
pub(crate) fn run_grid<R, F>(rows: usize, cols: usize, cell: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let tasks: Vec<(usize, usize)> = (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (r, c)))
        .collect();
    let flat = par_map(&tasks, |&(r, c)| {
        let _task_span = obs::span("runner", "runner.task");
        cell(r, c)
    });
    let mut flat = flat.into_iter();
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| flat.next().expect("grid-sized output"))
                .collect()
        })
        .collect()
}

/// Evaluates a simulation panel at one parameter point over `seeds`
/// seeded topologies (the paper uses 15). Every algorithm sees the *same*
/// instances; every returned solution is validated. Each series reports
/// [`crate::figures::PAPER_METRICS`]: admitted volume and throughput.
pub fn run_simulation_point(
    params: &WorkloadParams,
    panel: &[BoxedAlgorithm],
    seeds: usize,
) -> Vec<Series> {
    assert!(seeds >= 1, "need at least one repetition");
    if panel.is_empty() {
        return Vec::new();
    }
    let _span = obs::span("runner", "runner.simulation_point");
    count_point(seeds, panel.len());
    let seed_ids: Vec<u64> = (0..seeds as u64).collect();
    let instances = par_map(&seed_ids, |&seed| generate_instance(params, seed));
    let per_seed: Vec<Vec<[f64; 2]>> = run_grid(seeds, panel.len(), |seed, ai| {
        let inst = &instances[seed];
        let alg = &panel[ai];
        let sol = alg.solve(inst);
        sol.validate(inst)
            .unwrap_or_else(|e| panic!("{} produced an infeasible solution: {e:?}", alg.name()));
        [sol.admitted_volume(inst), sol.throughput(inst)]
    });
    Series::per_arm(panel.iter().map(|a| a.name()), &per_seed)
}

/// Evaluates a testbed panel: each seed builds a fresh world and runs the
/// full discrete-event experiment; metrics are the *measured* volume and
/// throughput (queries that actually met their deadline), in
/// [`crate::figures::PAPER_METRICS`] order.
pub fn run_testbed_point(
    cfg: &TestbedConfig,
    panel: &[BoxedAlgorithm],
    seeds: usize,
    sim: &SimConfig,
) -> Vec<Series> {
    assert!(seeds >= 1, "need at least one repetition");
    if panel.is_empty() {
        return Vec::new();
    }
    let _span = obs::span("runner", "runner.testbed_point");
    count_point(seeds, panel.len());
    let seed_ids: Vec<u64> = (0..seeds as u64).collect();
    let worlds = par_map(&seed_ids, |&seed| {
        edgerep_testbed::build_testbed_instance(cfg, seed)
    });
    let per_seed: Vec<Vec<[f64; 2]>> = run_grid(seeds, panel.len(), |seed, ai| {
        let world = &worlds[seed];
        let sim_cfg = SimConfig {
            seed: seed as u64,
            ..*sim
        };
        let alg = panel[ai].as_ref();
        let report = try_run_testbed_with_plan(alg, world, &sim_cfg, &FaultPlan::empty())
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        [report.measured_volume, report.measured_throughput]
    });
    Series::per_arm(panel.iter().map(|a| a.name()), &per_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::PAPER_METRICS;
    use crate::stats::Summary;
    use edgerep_core::{simulation_panel, special_panel, PlacementAlgorithm};
    use edgerep_model::{ComputeNodeId, DatasetId, Instance, Solution};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The summary of paper metric `key` in a runner series.
    fn get<'a>(series: &'a Series, key: &str) -> &'a Summary {
        let m = PAPER_METRICS
            .iter()
            .position(|m| m.key == key)
            .expect("a paper metric");
        &series.values[m]
    }

    #[test]
    fn simulation_point_aggregates_panel() {
        let params = WorkloadParams {
            query_count: (10, 20),
            ..Default::default()
        };
        let results = run_simulation_point(&params, &simulation_panel(), 3);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].name, "Appro-G");
        assert_eq!(results[1].name, "Greedy-G");
        assert_eq!(results[2].name, "Graph-G");
        for r in &results {
            let (volume, throughput) = (get(r, "volume"), get(r, "throughput"));
            assert_eq!(volume.n, 3);
            assert!(volume.mean >= 0.0);
            assert!(throughput.mean >= 0.0 && throughput.mean <= 1.0);
        }
    }

    #[test]
    fn deterministic_across_calls() {
        // The special panel requires single-dataset queries (Fig. 2).
        let params = WorkloadParams {
            query_count: (10, 15),
            ..Default::default()
        }
        .with_max_datasets_per_query(1);
        let a = run_simulation_point(&params, &special_panel(), 2);
        let b = run_simulation_point(&params, &special_panel(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn flattened_grid_matches_sequential_baseline() {
        // The flattened seed × algorithm schedule must reproduce the
        // pre-flatten sequential path byte for byte: same instances, same
        // per-cell metrics, same aggregation.
        let params = WorkloadParams {
            query_count: (10, 15),
            ..Default::default()
        }
        .with_max_datasets_per_query(1);
        let panel = special_panel();
        let seeds = 3usize;
        let flattened = run_simulation_point(&params, &panel, seeds);
        let per_seed: Vec<Vec<(f64, f64)>> = (0..seeds as u64)
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
        let sequential: Vec<Series> = panel
            .iter()
            .enumerate()
            .map(|(ai, alg)| {
                let column = |pick: fn(&(f64, f64)) -> f64| {
                    Summary::of(
                        &per_seed
                            .iter()
                            .map(|row| pick(&row[ai]))
                            .collect::<Vec<_>>(),
                    )
                };
                Series {
                    name: alg.name().to_owned(),
                    values: vec![column(|c| c.0), column(|c| c.1)],
                }
            })
            .collect();
        assert_eq!(flattened, sequential);
    }

    #[test]
    fn testbed_point_runs() {
        let cfg = TestbedConfig {
            query_count: 10,
            trace: edgerep_workload::mobile_trace::TraceConfig {
                users: 100,
                apps: 20,
                days: 5,
                ..Default::default()
            },
            windows: 4,
            ..Default::default()
        };
        let panel: Vec<BoxedAlgorithm> = vec![
            Box::new(edgerep_core::appro::ApproG::default()),
            Box::new(edgerep_core::popularity::Popularity::general()),
        ];
        let results = run_testbed_point(&cfg, &panel, 2, &SimConfig::default());
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| get(r, "throughput").mean <= 1.0));
    }

    /// Returns a solution with a replica on a node id far outside the
    /// cloud, which `Solution::validate` rejects as `UnknownReplicaNode`.
    struct Broken;

    impl PlacementAlgorithm for Broken {
        fn name(&self) -> &'static str {
            "Broken"
        }
        fn solve(&self, inst: &Instance) -> Solution {
            let mut sol = Solution::empty(inst);
            sol.place_replica(DatasetId(0), ComputeNodeId(u32::MAX));
            sol
        }
    }

    #[test]
    fn infeasible_solution_panic_message_survives_the_scheduler() {
        // The headline bugfix: the original "X produced an infeasible
        // solution" diagnostic must reach the caller verbatim, not the
        // scope-join `.expect` text the old par_map substituted.
        let params = WorkloadParams {
            query_count: (10, 15),
            ..Default::default()
        };
        let panel: Vec<BoxedAlgorithm> = vec![
            Box::new(edgerep_core::appro::ApproG::default()),
            Box::new(Broken),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_simulation_point(&params, &panel, 2)
        }))
        .expect_err("the Broken algorithm must fail validation");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload must be the runner's formatted String");
        assert!(
            msg.contains("Broken produced an infeasible solution"),
            "original diagnostic lost, got: {msg}"
        );
        assert!(
            msg.contains("UnknownReplicaNode"),
            "validation detail lost, got: {msg}"
        );
    }

    #[test]
    fn empty_panel_yields_no_results() {
        let params = WorkloadParams {
            query_count: (5, 10),
            ..Default::default()
        };
        assert!(run_simulation_point(&params, &[], 2).is_empty());
    }
}
