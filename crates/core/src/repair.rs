//! Controller-driven replica repair after node loss.
//!
//! When a compute node dies, every replica it hosted is orphaned and the
//! datasets involved drop below their planned replication degree. The
//! controller's repair loop re-places each orphaned replica on a live,
//! feasible node, restoring the count toward `K` — the availability
//! insurance the paper argues for in §2.3 (and what PingAn-style
//! redundancy buys geo-distributed analytics under failures).
//!
//! [`plan_replacements`] is the *planning* half: pure, deterministic, and
//! instantaneous. The testbed simulator owns the *execution* half — it
//! times each [`RepairAction`]'s transfer through the network, contends on
//! NICs, and retries with backoff when the source link is down.
//!
//! Planning reuses [`AdmissionState`] so the replica-budget constraint (5)
//! is enforced by the same machinery the placement algorithms use:
//! repairs never over-replicate.
//!
//! Erasure-coded datasets rebuild *shards*, not copies: when at least `k`
//! shard holders survive, a replacement shard is re-encoded from any `k`
//! of them (charged `k×` shard read volume plus encode compute); below
//! quorum the live origin re-encodes locally and ships one shard. The
//! [`scrub`] entry point wraps [`plan_replacements`] with the lost-shard
//! census and `ec.scrub` trace accounting the testbed's scrubber emits on
//! its periodic sweep.

use edgerep_ec as ec;
use edgerep_model::delay::assignment_delay;
use edgerep_model::{ComputeNodeId, DatasetId, Instance, Solution, FEASIBILITY_EPS};

use crate::admission::AdmissionState;

/// One planned repair transfer: copy `dataset` from `source` to `target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairAction {
    /// The dataset whose replica is being restored.
    pub dataset: DatasetId,
    /// Live node the bytes are read from (a surviving replica holder, or
    /// the dataset's origin).
    pub source: ComputeNodeId,
    /// Live node that will host the new replica.
    pub target: ComputeNodeId,
    /// Bytes moved, GB.
    pub gb: f64,
}

/// How useful a candidate node is as a new home for a replica of `d`:
/// the number of admitted queries demanding `d` that could be served from
/// the candidate within their deadline. This is the controller's proxy
/// for "restores QoS coverage", not just "holds a copy".
fn coverage(inst: &Instance, sol: &Solution, d: DatasetId, v: ComputeNodeId) -> usize {
    let mut covered = 0;
    for q in sol.admitted_queries() {
        let query = inst.query(q);
        for (idx, dem) in query.demands.iter().enumerate() {
            if dem.dataset != d {
                continue;
            }
            if assignment_delay(inst, q, idx, v) <= query.deadline + FEASIBILITY_EPS {
                covered += 1;
            }
        }
    }
    covered
}

/// Picks the live source to copy `d` from: the surviving replica holder
/// nearest to `target`, falling back to the dataset's origin when it is
/// alive. `None` means the data is unreachable (every holder and the
/// origin are down) — the repair must wait for a recovery.
pub fn pick_source(
    inst: &Instance,
    sol: &Solution,
    alive: &[bool],
    d: DatasetId,
    target: ComputeNodeId,
) -> Option<ComputeNodeId> {
    pick_sources(inst, sol, alive, d, target).first().copied()
}

/// Every live node `d` can be copied from, nearest-first: the surviving
/// replica holders sorted by delay to `target` (ties: lowest id), then the
/// dataset's origin when it is alive and not already listed. The chunked
/// transfer preset fetches from all of them in parallel; the
/// point-to-point preset takes the head. Empty means the bytes are
/// unreachable until something recovers.
pub fn pick_sources(
    inst: &Instance,
    sol: &Solution,
    alive: &[bool],
    d: DatasetId,
    target: ComputeNodeId,
) -> Vec<ComputeNodeId> {
    let cloud = inst.cloud();
    let mut holders: Vec<ComputeNodeId> = sol
        .replicas_of(d)
        .iter()
        .copied()
        .filter(|v| alive[v.index()] && *v != target)
        .collect();
    holders.sort_by(|&a, &b| {
        cloud
            .min_delay(a, target)
            .total_cmp(&cloud.min_delay(b, target))
            .then(a.0.cmp(&b.0))
    });
    let origin = inst.dataset(d).origin;
    if alive[origin.index()] && origin != target && !holders.contains(&origin) {
        holders.push(origin);
    }
    holders
}

/// Plans the repair transfers that restore each under-replicated dataset
/// toward its target count, given the current (post-loss) solution and
/// node liveness.
///
/// `needed[d]` is the replication degree the controller wants back —
/// normally the validated plan's original count, never above `K`. For
/// each missing replica the planner picks the live candidate with the
/// best admitted-query coverage (ties: lowest load fraction, then lowest
/// node id, so plans are deterministic), checks replica budget through
/// [`AdmissionState`], and sources the bytes from the nearest live holder
/// or the origin. Datasets whose bytes are unreachable are skipped — the
/// caller retries when nodes recover.
pub fn plan_replacements(
    inst: &Instance,
    current: &Solution,
    alive: &[bool],
    needed: &[usize],
) -> Vec<RepairAction> {
    let cloud = inst.cloud();
    assert_eq!(alive.len(), cloud.compute_count(), "liveness per node");
    let mut state = AdmissionState::from_solution(inst, current);
    let mut actions = Vec::new();

    for d in inst.dataset_ids() {
        let want = needed[d.index()].min(inst.slots(d));
        loop {
            let have = state.replica_count(d);
            if have >= want || !state.replica_budget_left(d) {
                break;
            }
            let candidate = cloud
                .compute_ids()
                .filter(|v| alive[v.index()] && !state.has_replica(d, *v))
                .map(|v| (v, coverage(inst, state.solution(), d, v)))
                .max_by(|(va, ca), (vb, cb)| {
                    ca.cmp(cb)
                        .then_with(|| {
                            state
                                .load_fraction(*vb)
                                .total_cmp(&state.load_fraction(*va))
                        })
                        .then(vb.0.cmp(&va.0))
                });
            let Some((target, _)) = candidate else { break };
            let Some(source) = pick_source(inst, state.solution(), alive, d, target) else {
                break; // bytes unreachable until something recovers
            };
            // Replication copies the full dataset; an erasure-coded shard
            // is re-encoded from any k live shard holders (k× shard read
            // volume), or from the live origin (which re-encodes locally
            // and ships one shard) when the survivors are below quorum.
            let scheme = inst.scheme(d);
            let (source, gb) = if scheme.needs_decode() {
                let live_holders = state
                    .solution()
                    .replicas_of(d)
                    .iter()
                    .filter(|h| alive[h.index()])
                    .count();
                let origin = inst.dataset(d).origin;
                if live_holders >= scheme.min_read() {
                    (
                        source,
                        ec::rebuild_charge(scheme, inst.size(d), false).read_gb,
                    )
                } else if alive[origin.index()] && origin != target {
                    (
                        origin,
                        ec::rebuild_charge(scheme, inst.size(d), true).read_gb,
                    )
                } else {
                    break; // below quorum and no live origin: unrecoverable
                }
            } else {
                (source, inst.size(d))
            };
            state.place_replica(d, target);
            actions.push(RepairAction {
                dataset: d,
                source,
                target,
                gb,
            });
        }
    }
    actions
}

/// One scrub pass: detects datasets below their wanted shard/replica count,
/// plans the Background-tier reconstruction transfers via
/// [`plan_replacements`], and emits the `ec.scrub` accounting event. Returns
/// the planned actions plus the [`ec::ScrubOutcome`] snapshot.
pub fn scrub(
    now_s: f64,
    inst: &Instance,
    current: &Solution,
    alive: &[bool],
    needed: &[usize],
) -> (Vec<RepairAction>, ec::ScrubOutcome) {
    let actions = plan_replacements(inst, current, alive, needed);
    let mut shards_lost = 0usize;
    for d in inst.dataset_ids() {
        let live = current
            .replicas_of(d)
            .iter()
            .filter(|v| alive[v.index()])
            .count();
        shards_lost += needed[d.index()].min(inst.slots(d)).saturating_sub(live);
    }
    let mut read_gb = 0.0;
    let mut encode_gb = 0.0;
    for a in &actions {
        read_gb += a.gb;
        if inst.scheme(a.dataset).needs_decode() {
            encode_gb += inst.size(a.dataset);
        }
    }
    let outcome = ec::ScrubOutcome {
        datasets_scanned: inst.datasets().len(),
        shards_lost,
        rebuilds_planned: actions.len(),
        read_gb,
        encode_gb,
    };
    ec::note_scrub(now_s, &outcome);
    (actions, outcome)
}

/// Static what-if: the admitted volume that survives with only `alive`
/// nodes, i.e. the volume of admitted queries every one of whose serving
/// nodes (or any live replica of the demanded dataset within deadline)
/// remains up. Used by `edgerep solve --fault-plan` for a quick survival
/// report without running the simulator.
pub fn surviving_volume(inst: &Instance, sol: &Solution, alive: &[bool]) -> f64 {
    let mut volume = 0.0;
    'queries: for q in sol.admitted_queries() {
        let nodes = sol.assignment_of(q).expect("admitted");
        let query = inst.query(q);
        for (idx, (&v, dem)) in nodes.iter().zip(query.demands.iter()).enumerate() {
            if alive[v.index()] {
                continue;
            }
            let recoverable = sol.replicas_of(dem.dataset).iter().any(|&alt| {
                alive[alt.index()]
                    && assignment_delay(inst, q, idx, alt) <= query.deadline + FEASIBILITY_EPS
            });
            if !recoverable {
                continue 'queries;
            }
        }
        volume += inst.demanded_volume(q);
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appro::ApproG;
    use crate::PlacementAlgorithm;
    use edgerep_model::prelude::*;
    use edgerep_workload::{generate_instance, WorkloadParams};

    fn workload() -> Instance {
        generate_instance(&WorkloadParams::default(), 7)
    }

    fn target_counts(inst: &Instance, sol: &Solution) -> Vec<usize> {
        inst.dataset_ids().map(|d| sol.replica_count(d)).collect()
    }

    #[test]
    fn no_loss_plans_nothing() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let alive = vec![true; inst.cloud().compute_count()];
        let needed = target_counts(&inst, &sol);
        assert!(plan_replacements(&inst, &sol, &alive, &needed).is_empty());
    }

    #[test]
    fn repair_restores_counts_without_exceeding_k() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let needed = target_counts(&inst, &sol);

        // Kill the busiest replica holder.
        let mut holder_count = vec![0usize; inst.cloud().compute_count()];
        for d in inst.dataset_ids() {
            for v in sol.replicas_of(d) {
                holder_count[v.index()] += 1;
            }
        }
        let victim = ComputeNodeId(
            holder_count
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i as u32)
                .expect("workload has at least one compute node"),
        );
        assert!(
            holder_count[victim.index()] > 0,
            "victim must hold replicas"
        );

        let mut after = sol.clone();
        let orphaned = after.remove_node_replicas(victim);
        assert!(!orphaned.is_empty());
        let mut alive = vec![true; inst.cloud().compute_count()];
        alive[victim.index()] = false;

        let actions = plan_replacements(&inst, &after, &alive, &needed);
        assert!(!actions.is_empty(), "orphaned replicas must be re-placed");
        for a in &actions {
            assert!(alive[a.target.index()], "targets must be live");
            assert!(alive[a.source.index()], "sources must be live");
            assert_ne!(a.source, a.target);
            assert!(a.gb > 0.0);
            after.place_replica(a.dataset, a.target);
        }
        for d in inst.dataset_ids() {
            assert!(after.replica_count(d) <= inst.max_replicas());
            // Where repair acted, the count is restored to the plan's.
            if orphaned.contains(&d) {
                assert!(after.replica_count(d) <= needed[d.index()].max(1));
            }
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let needed = target_counts(&inst, &sol);
        let mut after = sol.clone();
        after.remove_node_replicas(ComputeNodeId(0));
        let mut alive = vec![true; inst.cloud().compute_count()];
        alive[0] = false;
        let a = plan_replacements(&inst, &after, &alive, &needed);
        let b = plan_replacements(&inst, &after, &alive, &needed);
        assert_eq!(a, b);
    }

    #[test]
    fn unreachable_bytes_are_skipped_not_planned() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let needed = target_counts(&inst, &sol);
        // Everything down: no sources, no targets.
        let alive = vec![false; inst.cloud().compute_count()];
        let mut bare = sol.clone();
        for v in inst.cloud().compute_ids() {
            bare.remove_node_replicas(v);
        }
        assert!(plan_replacements(&inst, &bare, &alive, &needed).is_empty());
    }

    #[test]
    fn pick_sources_is_nearest_first_with_origin_fallback() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let alive = vec![true; inst.cloud().compute_count()];
        let cloud = inst.cloud();
        for d in inst.dataset_ids() {
            let target = cloud
                .compute_ids()
                .find(|v| !sol.replicas_of(d).contains(v))
                .expect("some node holds no replica of this dataset");
            let sources = pick_sources(&inst, &sol, &alive, d, target);
            // Head agrees with the single-source picker.
            assert_eq!(
                sources.first().copied(),
                pick_source(&inst, &sol, &alive, d, target)
            );
            // Holders are sorted nearest-first; no duplicates; never the
            // target itself.
            for w in sources.windows(2) {
                let (a, b) = (w[0], w[1]);
                if sol.replicas_of(d).contains(&a) && sol.replicas_of(d).contains(&b) {
                    assert!(cloud.min_delay(a, target) <= cloud.min_delay(b, target) + 1e-12);
                }
            }
            let mut dedup = sources.clone();
            dedup.sort_by_key(|v| v.0);
            dedup.dedup();
            assert_eq!(dedup.len(), sources.len());
            assert!(!sources.contains(&target));
            // The origin is reachable from somewhere in the list.
            let origin = inst.dataset(d).origin;
            if origin != target {
                assert!(sources.contains(&origin) || !sol.replicas_of(d).is_empty());
            }
        }
        // With every holder dead, only a live origin remains.
        let d = inst
            .dataset_ids()
            .next()
            .expect("workload has at least one dataset");
        let mut down = alive.clone();
        for v in sol.replicas_of(d) {
            down[v.index()] = false;
        }
        let origin = inst.dataset(d).origin;
        let target = cloud
            .compute_ids()
            .find(|v| down[v.index()] && *v != origin)
            .expect("a live non-origin target exists");
        let srcs = pick_sources(&inst, &sol, &down, d, target);
        if down[origin.index()] {
            assert_eq!(srcs, vec![origin]);
        } else {
            assert!(srcs.is_empty());
        }
    }

    #[test]
    fn scrub_conserves_reconstruction_volume() {
        // dc --0.05-- c0 --0.05-- c1 --0.05-- c2; 4 GB dataset striped
        // ec(2,1) with queries at every cloudlet so shards spread out.
        // After killing one shard holder, the scrub must rebuild at most
        // what was lost, and each rebuild reads between one shard and k
        // shards (= |S| GB) of traffic.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(16.0, 0.01);
        let c1 = b.add_cloudlet(16.0, 0.01);
        let c2 = b.add_cloudlet(16.0, 0.01);
        b.link(dc, c0, 0.05);
        b.link(c0, c1, 0.05);
        b.link(c1, c2, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d0 = ib.add_dataset(4.0, dc);
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        for home in [c0, c1, c2] {
            ib.add_query(home, vec![Demand::new(d0, 1.0)], 1.0, 1.0);
        }
        let inst = ib.build().unwrap();
        let sol = ApproG::default().solve(&inst);
        sol.validate(&inst).unwrap();
        let needed: Vec<usize> = inst.dataset_ids().map(|d| sol.replica_count(d)).collect();

        let victim = sol.replicas_of(d0)[0];
        let mut after = sol.clone();
        after.remove_node_replicas(victim);
        let mut alive = vec![true; inst.cloud().compute_count()];
        alive[victim.index()] = false;

        let (actions, outcome) = scrub(10.0, &inst, &after, &alive, &needed);
        assert_eq!(outcome.rebuilds_planned, actions.len());
        assert!(outcome.shards_lost >= 1);
        assert!(
            outcome.rebuilds_planned <= outcome.shards_lost,
            "shards rebuilt ({}) must not exceed shards lost ({})",
            outcome.rebuilds_planned,
            outcome.shards_lost
        );
        let scheme = inst.scheme(d0);
        for a in &actions {
            assert!(a.gb >= scheme.shard_gb(inst.size(d0)) - 1e-12);
            assert!(a.gb <= inst.size(d0) + 1e-12);
            assert!(alive[a.source.index()] && alive[a.target.index()]);
        }
        let total: f64 = actions.iter().map(|a| a.gb).sum();
        assert!((outcome.read_gb - total).abs() < 1e-12);
        assert!(outcome.encode_gb <= outcome.rebuilds_planned as f64 * inst.size(d0) + 1e-12);
    }

    #[test]
    fn surviving_volume_bounds() {
        let inst = workload();
        let sol = ApproG::default().solve(&inst);
        let all = vec![true; inst.cloud().compute_count()];
        let none = vec![false; inst.cloud().compute_count()];
        let full = surviving_volume(&inst, &sol, &all);
        assert!((full - sol.admitted_volume(&inst)).abs() < 1e-9);
        assert_eq!(surviving_volume(&inst, &sol, &none), 0.0);
        let mut partial = all.clone();
        partial[0] = false;
        let part = surviving_volume(&inst, &sol, &partial);
        assert!(part <= full + 1e-9);
    }
}
