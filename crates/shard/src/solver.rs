//! The sharded solver wrapper and the boundary-reconciliation pass.
//!
//! [`ShardedSolver`] turns any [`PlacementAlgorithm`] into a regional
//! one: partition (see [`RegionPlan`]), solve every shard concurrently on
//! [`par_map`], merge, then optionally [`reconcile`] the boundary. With
//! `regions <= 1` (or a topology the partitioner cannot split) the inner
//! algorithm runs verbatim on the global instance — the R = 1
//! byte-identity pin the test suite enforces for every `QueryOrder`.
//!
//! Reconciliation semantics: the merge leaves two kinds of queries
//! unserved — *border* queries (demand a dataset owned by another region;
//! no shard ever attempted them) and *residue* (interior queries a shard
//! priced out). A residue query whose deadline-feasible candidates all
//! lie in its home region cannot do better globally than its shard
//! already did (the shard saw exactly those nodes and capacities), so the
//! boundary set is: unserved queries that are border **or** have a
//! deadline-feasible candidate outside their home region. Those are
//! re-admitted greedily against the residual capacities in ascending
//! query-id order — deterministic, capacity/deadline/budget-checked
//! through the same [`AdmissionState`] machinery every solver uses.

use std::collections::BTreeMap;
use std::sync::Mutex;

use edgerep_core::admission::{AdmissionState, PlannedDemand};
use edgerep_core::PlacementAlgorithm;
use edgerep_model::{Instance, Query, Solution};
use edgerep_obs as obs;

use crate::parallel::par_map;
use crate::region::RegionPlan;

/// Sharding knobs carried by [`ShardedSolver`] and the CLI's
/// `solve --shards R` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of regions R to partition into. `<= 1` bypasses sharding:
    /// the inner algorithm runs verbatim on the global instance.
    pub regions: usize,
    /// Whether to run the boundary-reconciliation pass after the merge.
    /// Off, border queries and cross-region residue stay unserved — useful
    /// for measuring what reconciliation itself recovers.
    pub reconcile: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            regions: 1,
            reconcile: true,
        }
    }
}

/// Wraps an algorithm so it solves per-region shards concurrently.
#[derive(Debug, Clone)]
pub struct ShardedSolver<A> {
    inner: A,
    config: ShardConfig,
}

impl<A: PlacementAlgorithm + Sync> ShardedSolver<A> {
    /// Creates a sharded wrapper around `inner`.
    pub fn new(inner: A, config: ShardConfig) -> Self {
        Self { inner, config }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The sharding configuration.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Partition → parallel per-shard solve → merge → reconcile.
    ///
    /// Delegates to the inner algorithm verbatim when sharding is off
    /// (`regions <= 1`) or the partitioner produced a single compute
    /// region, so those cases are byte-identical to a global solve.
    pub fn solve_sharded(&self, inst: &Instance) -> Solution {
        let _span = obs::span("shard", "shard.solve");
        if self.config.regions <= 1 {
            return self.inner.solve(inst);
        }
        let plan = RegionPlan::build(inst, self.config.regions);
        obs::gauge("shard.regions").set(plan.region_count() as f64);
        if plan.region_count() <= 1 {
            return self.inner.solve(inst);
        }
        let shards = plan.sub_instances(inst);
        let solutions = par_map(&shards, |s| self.inner.solve(&s.instance));
        let mut merged = plan.merge(inst, &shards, &solutions);
        if self.config.reconcile {
            reconcile(inst, &plan, &mut merged);
        }
        merged
    }
}

/// `"{inner}/sharded"`. The trait requires `&'static str`, so each
/// distinct inner name is leaked once and interned.
fn sharded_name(inner: &'static str) -> &'static str {
    static NAMES: Mutex<BTreeMap<&'static str, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES
        .lock()
        .expect("no thread panics while holding the name table");
    names
        .entry(inner)
        .or_insert_with(|| Box::leak(format!("{inner}/sharded").into_boxed_str()))
}

impl<A: PlacementAlgorithm + Sync> PlacementAlgorithm for ShardedSolver<A> {
    fn name(&self) -> &'static str {
        sharded_name(self.inner.name())
    }

    fn solve(&self, inst: &Instance) -> Solution {
        self.solve_sharded(inst)
    }
}

/// Re-admits boundary queries globally against the residual capacities of
/// `merged`, in ascending query-id order; returns how many were admitted.
///
/// The boundary set is every unserved query that is border
/// ([`RegionPlan::is_border`]) or has a deadline-feasible candidate node
/// outside its home region (cross-region residue). Each gets one
/// deterministic greedy attempt per demand — prefer nodes already holding
/// the dataset, then lowest base delay, then lowest node id — validated
/// jointly via [`AdmissionState::plan_feasible`] before committing.
/// Counters: `shard.boundary_queries` (attempted) and `shard.readmitted`.
pub fn reconcile(inst: &Instance, plan: &RegionPlan, merged: &mut Solution) -> usize {
    let _span = obs::span("shard", "shard.reconcile");
    let cache = inst.solver_cache();
    let mut state = AdmissionState::from_solution(inst, merged);
    let mut boundary = 0u64;
    let mut readmitted = 0usize;
    for q in inst.queries() {
        if state.solution().is_admitted(q.id) {
            continue;
        }
        let home = plan.query_region(q.id);
        let crosses = plan.is_border(q.id)
            || (0..q.demands.len()).any(|idx| {
                cache
                    .candidates(q.id, idx)
                    .any(|(v, _)| plan.node_region(v) != home)
            });
        if !crosses {
            // Purely-local residue: its shard saw the exact same nodes and
            // capacities and already priced it out — skip, don't re-check.
            continue;
        }
        boundary += 1;
        if try_admit(&mut state, q) {
            readmitted += 1;
        }
    }
    obs::counter("shard.boundary_queries").add(boundary);
    obs::counter("shard.readmitted").add(readmitted as u64);
    obs::emit(
        "shard",
        "shard.reconcile",
        "shard.reconcile.done",
        &[
            ("boundary", boundary.into()),
            ("readmitted", readmitted.into()),
        ],
    );
    *merged = state.into_solution();
    readmitted
}

/// One greedy global admission attempt for `q`: per demand, the best
/// feasible candidate (existing holders first, then lowest base delay;
/// the candidate scan is in ascending node-id order, so ties keep the
/// lowest id). Commits only if the joint plan re-validates.
fn try_admit(state: &mut AdmissionState, q: &Query) -> bool {
    let cache = state.instance().solver_cache();
    let mut plan: Vec<PlannedDemand> = Vec::with_capacity(q.demands.len());
    // Tentative load this query already stacks per node across demands.
    let mut stacked: Vec<(edgerep_model::ComputeNodeId, f64)> = Vec::new();
    for idx in 0..q.demands.len() {
        let d = q.demands[idx].dataset;
        let mut best: Option<(bool, f64)> = None;
        let mut best_node = None;
        for (v, base) in cache.candidates(q.id, idx) {
            let extra = stacked
                .iter()
                .find(|(n, _)| *n == v)
                .map_or(0.0, |(_, l)| *l);
            if state.demand_check(q.id, idx, v, extra).is_err() {
                continue;
            }
            let new_replica = !state.has_replica(d, v);
            let better = match best {
                None => true,
                Some((best_new, best_delay)) => {
                    (!new_replica && best_new)
                        || (new_replica == best_new
                            && base.total_cmp(&best_delay) == std::cmp::Ordering::Less)
                }
            };
            if better {
                best = Some((new_replica, base));
                best_node = Some(v);
            }
        }
        let (Some((new_replica, _)), Some(v)) = (best, best_node) else {
            return false;
        };
        let load = state.compute_demand(q.id, idx);
        match stacked.iter_mut().find(|(n, _)| *n == v) {
            Some((_, l)) => *l += load,
            None => stacked.push((v, load)),
        }
        plan.push(PlannedDemand {
            node: v,
            new_replica,
        });
    }
    if !state.plan_feasible(q.id, &plan) {
        return false;
    }
    state.commit(q.id, &plan);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgerep_core::appro::{ApproConfig, ApproG, QueryOrder};
    use edgerep_core::greedy::Greedy;
    use edgerep_model::{InstanceBuilder, RedundancyScheme};
    use edgerep_workload::{generate_instance, WorkloadParams};

    fn world(seed: u64) -> Instance {
        generate_instance(&WorkloadParams::default().with_network_size(48), seed)
    }

    /// Rebuilds `inst` with erasure coding as the default scheme.
    fn with_ec_default(inst: &Instance) -> Instance {
        let mut ib = InstanceBuilder::new(inst.cloud().clone(), inst.max_replicas());
        for d in inst.datasets() {
            ib.add_dataset(d.size_gb, d.origin);
        }
        ib.set_default_scheme(RedundancyScheme::ErasureCoded { k: 2, m: 1 });
        for q in inst.queries() {
            ib.add_query(q.home, q.demands.clone(), q.compute_rate, q.deadline);
        }
        ib.build().expect("EC rebuild of a valid instance is valid")
    }

    #[test]
    fn r1_wrapper_matches_the_inner_algorithm_exactly() {
        let inst = world(9);
        for order in [
            QueryOrder::GlobalCheapestFirst,
            QueryOrder::Input,
            QueryOrder::VolumeDesc,
            QueryOrder::DeadlineAsc,
        ] {
            let config = ApproConfig {
                order,
                ..ApproConfig::default()
            };
            let sharded = ShardedSolver::new(ApproG { config }, ShardConfig::default());
            assert_eq!(
                sharded.solve(&inst),
                ApproG { config }.solve(&inst),
                "order {order:?}"
            );
        }
    }

    #[test]
    fn sharded_solutions_stay_feasible_across_r_and_seeds() {
        for seed in 0..4u64 {
            let inst = world(seed);
            for regions in [2usize, 4, 8] {
                let solver = ShardedSolver::new(
                    ApproG::default(),
                    ShardConfig {
                        regions,
                        reconcile: true,
                    },
                );
                let sol = solver.solve(&inst);
                sol.validate(&inst)
                    .unwrap_or_else(|e| panic!("seed {seed} R={regions}: {e:?}"));
            }
        }
    }

    #[test]
    fn sharded_ec_solutions_stay_feasible() {
        for seed in 0..3u64 {
            let inst = with_ec_default(&world(seed));
            let solver = ShardedSolver::new(
                ApproG::default(),
                ShardConfig {
                    regions: 4,
                    reconcile: true,
                },
            );
            let sol = solver.solve(&inst);
            sol.validate(&inst)
                .unwrap_or_else(|e| panic!("EC seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn reconcile_never_reduces_admitted_volume() {
        for seed in 0..4u64 {
            let inst = world(seed);
            let base = ShardedSolver::new(
                ApproG::default(),
                ShardConfig {
                    regions: 4,
                    reconcile: false,
                },
            )
            .solve(&inst);
            let reconciled = ShardedSolver::new(
                ApproG::default(),
                ShardConfig {
                    regions: 4,
                    reconcile: true,
                },
            )
            .solve(&inst);
            assert!(
                reconciled.admitted_volume(&inst) >= base.admitted_volume(&inst) - 1e-9,
                "seed {seed}: reconciliation lost volume"
            );
        }
    }

    #[test]
    fn sharded_solve_is_deterministic() {
        let inst = world(2);
        let solver = ShardedSolver::new(
            ApproG::default(),
            ShardConfig {
                regions: 4,
                reconcile: true,
            },
        );
        assert_eq!(solver.solve(&inst), solver.solve(&inst));
    }

    #[test]
    fn oversharding_a_tiny_world_still_solves() {
        // More regions than compute nodes: the plan compacts to however
        // many regions exist and the result must still validate.
        let inst = generate_instance(&WorkloadParams::default().with_network_size(6), 1);
        let solver = ShardedSolver::new(
            Greedy::general(),
            ShardConfig {
                regions: 64,
                reconcile: true,
            },
        );
        let sol = solver.solve(&inst);
        sol.validate(&inst).expect("oversharded solve is feasible");
    }

    #[test]
    fn sharded_names_map_statically() {
        let sharded = ShardedSolver::new(ApproG::default(), ShardConfig::default());
        assert_eq!(sharded.name(), "Appro-G/sharded");
        let greedy = ShardedSolver::new(Greedy::general(), ShardConfig::default());
        assert_eq!(greedy.name(), "Greedy-G/sharded");
        // Interned: the same inner name yields the same `&'static str`.
        assert!(std::ptr::eq(
            sharded.name(),
            ShardedSolver::new(ApproG::default(), ShardConfig::default()).name()
        ));
    }

    #[test]
    fn every_algorithm_gets_its_own_sharded_name() {
        use edgerep_core::centroid::Centroid;
        use edgerep_core::graphpart::GraphPartition;
        use edgerep_core::online::OnlineAppro;
        use edgerep_core::popularity::Popularity;
        let inner: Vec<edgerep_core::BoxedAlgorithm> = vec![
            Box::new(ApproG::default()),
            Box::new(Greedy::general()),
            Box::new(GraphPartition::general()),
            Box::new(Popularity::general()),
            Box::new(Centroid),
            Box::new(OnlineAppro::default()),
        ];
        let names: Vec<&str> = inner
            .into_iter()
            .map(|a| {
                let plain = a.name();
                let name = ShardedSolver::new(a, ShardConfig::default()).name();
                assert_eq!(name, format!("{plain}/sharded"));
                name
            })
            .collect();
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
    }
}
