//! Region extraction: a balanced labeling of the topology plus the
//! per-region sub-instances the sharded solver runs on.
//!
//! The partition is computed on the *affinity* graph — same nodes and
//! edges as the transport graph, but edge weight `1 / (delay + ε)` — so
//! the Kernighan–Lin min-cut severs the slowest links and every region is
//! a latency-tight neighbourhood. Regions are then *compacted over
//! compute nodes*: a part that holds only switches or base stations can
//! host nothing and is dropped, so [`RegionPlan::region_count`] counts
//! regions that can actually serve queries.
//!
//! Per-region sub-instances keep the full topology (the delay matrix is
//! reused verbatim via `EdgeCloud::with_masked_availability`, so routing
//! stays bit-identical to the global instance) and *all* datasets (so
//! `DatasetId`s are global across shards). Only the region's **interior**
//! queries are included: home in the region and every demanded dataset
//! originating there. Border queries are excluded from every shard and
//! handled by the reconciliation pass, together with unserved residue.

use edgerep_graph::partition::partition_kway;
use edgerep_graph::Graph;
use edgerep_model::{ComputeNodeId, DatasetId, Instance, InstanceBuilder, QueryId, Solution};
use edgerep_obs as obs;

/// Guard added to link delays before inversion so zero-delay links get a
/// large-but-finite affinity instead of ±inf.
const DELAY_EPS: f64 = 1e-6;

/// Same nodes/edges as the transport graph with weight `1 / (delay + ε)`:
/// low-delay links become heavy affinity edges the min-cut preserves.
fn affinity_graph(transport: &Graph) -> Graph {
    let mut g = Graph::with_nodes(transport.node_count());
    for e in transport.edges() {
        g.add_edge(e.u, e.v, 1.0 / (e.weight + DELAY_EPS));
    }
    g
}

/// One shard: a region-local sub-instance plus the global ids of the
/// interior queries it carries (local `QueryId(i)` is `queries[i]`).
#[derive(Debug, Clone)]
pub struct Shard {
    /// Region index in `0..RegionPlan::region_count()`.
    pub region: usize,
    /// The masked sub-instance: full topology, availability zeroed
    /// outside the region, all datasets, interior queries only.
    pub instance: Instance,
    /// Global id of each local query, in local-id order.
    pub queries: Vec<QueryId>,
}

/// How a global instance splits into balanced geo-regions.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// Number of non-empty compute regions (≤ the requested R).
    regions: usize,
    /// Region per compute node.
    node_region: Vec<usize>,
    /// Region per dataset: its origin node's region ("owner").
    dataset_region: Vec<usize>,
    /// Region per query: its home node's region.
    query_region: Vec<usize>,
    /// Per query: does any demanded dataset live outside the home region?
    border: Vec<bool>,
}

impl RegionPlan {
    /// Partitions `inst`'s topology into at most `regions` balanced
    /// regions and classifies every dataset and query.
    ///
    /// `regions` must be ≥ 1. The effective [`Self::region_count`] can be
    /// smaller: the graph partition may return fewer parts than asked
    /// (tiny topologies) and parts without compute nodes are dropped.
    pub fn build(inst: &Instance, regions: usize) -> Self {
        assert!(regions >= 1, "region count must be at least 1");
        let _span = obs::span("shard", "shard.partition");
        let cloud = inst.cloud();
        let labels = partition_kway(&affinity_graph(cloud.graph()), regions);

        // Compact labels over compute nodes in first-seen order: regions
        // are dense in 0..count and each holds ≥ 1 compute node.
        let mut dense: Vec<Option<usize>> = vec![None; cloud.graph().node_count().max(1)];
        let mut count = 0usize;
        let mut node_region = Vec::with_capacity(cloud.compute_count());
        for v in cloud.compute_ids() {
            let raw = labels[cloud.node(v).graph_node.index()];
            let r = *dense[raw].get_or_insert_with(|| {
                let next = count;
                count += 1;
                next
            });
            node_region.push(r);
        }

        let dataset_region: Vec<usize> = inst
            .datasets()
            .iter()
            .map(|d| node_region[d.origin.index()])
            .collect();
        let query_region: Vec<usize> = inst
            .queries()
            .iter()
            .map(|q| node_region[q.home.index()])
            .collect();
        let border: Vec<bool> = inst
            .queries()
            .iter()
            .map(|q| {
                let home = node_region[q.home.index()];
                q.demands
                    .iter()
                    .any(|dem| dataset_region[dem.dataset.index()] != home)
            })
            .collect();
        Self {
            regions: count,
            node_region,
            dataset_region,
            query_region,
            border,
        }
    }

    /// Number of non-empty compute regions.
    pub fn region_count(&self) -> usize {
        self.regions
    }

    /// Region of a compute node.
    pub fn node_region(&self, v: ComputeNodeId) -> usize {
        self.node_region[v.index()]
    }

    /// Owning region of a dataset (its origin node's region).
    pub fn dataset_region(&self, d: DatasetId) -> usize {
        self.dataset_region[d.index()]
    }

    /// Home region of a query.
    pub fn query_region(&self, q: QueryId) -> usize {
        self.query_region[q.index()]
    }

    /// Whether a query demands a dataset owned outside its home region
    /// (such queries belong to no shard; reconciliation serves them).
    pub fn is_border(&self, q: QueryId) -> bool {
        self.border[q.index()]
    }

    /// Extracts one sub-instance per region (see the module docs for what
    /// each shard contains). The per-shard `SolverCache` is *not* forced
    /// here: each `Instance` builds its own lazily on the solving thread,
    /// so the cache construction itself parallelizes across shards.
    pub fn sub_instances(&self, inst: &Instance) -> Vec<Shard> {
        (0..self.regions)
            .map(|r| {
                let cloud = inst
                    .cloud()
                    .with_masked_availability(|v| self.node_region[v.index()] == r);
                let mut ib = InstanceBuilder::new(cloud, inst.max_replicas());
                for d in inst.datasets() {
                    let id = ib.add_dataset(d.size_gb, d.origin);
                    debug_assert_eq!(id, d.id, "dataset ids are global across shards");
                    ib.set_scheme(id, inst.scheme(d.id));
                }
                ib.set_ec_costs(inst.decode_s_per_gb(), inst.encode_s_per_gb());
                let mut queries = Vec::new();
                for q in inst.queries() {
                    if self.query_region[q.id.index()] == r && !self.border[q.id.index()] {
                        ib.add_query(q.home, q.demands.clone(), q.compute_rate, q.deadline);
                        queries.push(q.id);
                    }
                }
                let instance = ib
                    .build()
                    .expect("a sub-instance of a valid instance is valid");
                Shard {
                    region: r,
                    instance,
                    queries,
                }
            })
            .collect()
    }

    /// Merges per-shard solutions back onto the global instance.
    ///
    /// Replicas of a dataset are taken **only** from its owning region's
    /// shard — every shard sees every dataset (for id stability), so
    /// copying replicas from all shards could spend the global
    /// `slots(d)` budget several times over. Assignments map each
    /// shard-local query id back to its global id. Region compute nodes
    /// are disjoint, so the merged per-node loads equal the per-shard
    /// loads and the merge preserves feasibility by construction.
    pub fn merge(&self, inst: &Instance, shards: &[Shard], solutions: &[Solution]) -> Solution {
        let mut merged = Solution::empty(inst);
        for (shard, sol) in shards.iter().zip(solutions) {
            for d in inst.dataset_ids() {
                if self.dataset_region[d.index()] != shard.region {
                    continue;
                }
                for &v in sol.replicas_of(d) {
                    merged.place_replica(d, v);
                }
            }
            for (local, &global) in shard.queries.iter().enumerate() {
                if let Some(nodes) = sol.assignment_of(QueryId(local as u32)) {
                    merged.assign_query(global, nodes.to_vec());
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgerep_workload::{generate_instance, WorkloadParams};

    fn world(seed: u64) -> Instance {
        generate_instance(&WorkloadParams::default().with_network_size(48), seed)
    }

    #[test]
    fn every_compute_node_lands_in_exactly_one_dense_region() {
        let inst = world(7);
        for r in [1usize, 2, 4, 8] {
            let plan = RegionPlan::build(&inst, r);
            assert!(plan.region_count() >= 1 && plan.region_count() <= r);
            let mut seen = vec![false; plan.region_count()];
            for v in inst.cloud().compute_ids() {
                let region = plan.node_region(v);
                assert!(region < plan.region_count());
                seen[region] = true;
            }
            assert!(seen.iter().all(|&s| s), "empty compute region at R={r}");
        }
    }

    #[test]
    fn dataset_and_query_regions_follow_their_nodes() {
        let inst = world(3);
        let plan = RegionPlan::build(&inst, 4);
        for d in inst.datasets() {
            assert_eq!(plan.dataset_region(d.id), plan.node_region(d.origin));
        }
        for q in inst.queries() {
            assert_eq!(plan.query_region(q.id), plan.node_region(q.home));
            let crosses = q
                .demands
                .iter()
                .any(|dem| plan.dataset_region(dem.dataset) != plan.query_region(q.id));
            assert_eq!(plan.is_border(q.id), crosses);
        }
    }

    #[test]
    fn sub_instances_mask_availability_and_keep_ids_global() {
        let inst = world(11);
        let plan = RegionPlan::build(&inst, 4);
        let shards = plan.sub_instances(&inst);
        assert_eq!(shards.len(), plan.region_count());
        let mut interior_total = 0;
        for shard in &shards {
            let sub = &shard.instance;
            // All datasets present under their global ids.
            assert_eq!(sub.datasets().len(), inst.datasets().len());
            for d in inst.datasets() {
                assert_eq!(sub.dataset(d.id).origin, d.origin);
                assert_eq!(sub.scheme(d.id), inst.scheme(d.id));
            }
            // Availability confined to the region; delays bit-identical.
            for v in inst.cloud().compute_ids() {
                if plan.node_region(v) == shard.region {
                    assert_eq!(sub.cloud().available(v), inst.cloud().available(v));
                } else {
                    assert_eq!(sub.cloud().available(v), 0.0);
                }
                assert_eq!(
                    sub.cloud().min_delay(v, ComputeNodeId(0)).to_bits(),
                    inst.cloud().min_delay(v, ComputeNodeId(0)).to_bits()
                );
            }
            // Only interior queries, faithfully copied.
            assert_eq!(sub.queries().len(), shard.queries.len());
            for (local, &global) in shard.queries.iter().enumerate() {
                assert_eq!(plan.query_region(global), shard.region);
                assert!(!plan.is_border(global));
                let sq = &sub.queries()[local];
                let gq = inst.query(global);
                assert_eq!(sq.home, gq.home);
                assert_eq!(sq.demands, gq.demands);
                assert_eq!(sq.deadline.to_bits(), gq.deadline.to_bits());
            }
            interior_total += shard.queries.len();
        }
        // Interior queries partition the non-border queries.
        let non_border = inst
            .queries()
            .iter()
            .filter(|q| !plan.is_border(q.id))
            .count();
        assert_eq!(interior_total, non_border);
    }

    #[test]
    fn merged_shard_solutions_validate_on_the_global_instance() {
        use edgerep_core::appro::ApproG;
        use edgerep_core::PlacementAlgorithm;
        for seed in 0..4u64 {
            let inst = world(seed);
            let plan = RegionPlan::build(&inst, 4);
            let shards = plan.sub_instances(&inst);
            let sols: Vec<Solution> = shards
                .iter()
                .map(|s| ApproG::default().solve(&s.instance))
                .collect();
            let merged = plan.merge(&inst, &shards, &sols);
            merged
                .validate(&inst)
                .expect("disjoint-region merge is feasible by construction");
        }
    }
}
