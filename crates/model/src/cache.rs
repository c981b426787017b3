//! Cached deadline-feasible candidate lists for the solver hot path.
//!
//! Every constructive solver repeatedly asks the same question: *which
//! compute nodes can serve demand `i` of query `q` within its deadline,
//! and at what base delay?* The answer depends only on the instance
//! (topology, dataset sizes, query homes/selectivities/deadlines), never
//! on solver state, so it is computed once per [`Instance`] and stored
//! here as a flat struct-of-arrays matrix:
//!
//! ```text
//! query_start:  [q0, q1, ...]          query → first flat demand index
//! demand_start: [d0, d1, ...]          flat demand → candidate range
//! cand_nodes:   [v, v, v, ...]         candidate node ids, ascending
//! cand_delays:  [D, D, D, ...]         matching base assignment delays
//! ```
//!
//! The candidate list for a demand holds exactly the nodes whose **base**
//! delay [`assignment_delay`] passes the shared deadline filter
//! `D ≤ deadline + FEASIBILITY_EPS`, in ascending node-id order — the
//! same order a naive `compute_ids()` probe visits, so tie-breaks (and
//! therefore solver output) are bit-for-bit unchanged. Erasure-coding
//! read overhead is *not* baked in (it depends on the evolving holder
//! set); it is non-negative, so any node failing the base filter would
//! fail the full check too, and pre-filtering is output-safe for every
//! redundancy scheme.
//!
//! NaN base delays (possible when a caller injects poisoned link
//! weights) fail the `≤` filter and are excluded, which also makes the
//! cached scan NaN-inert.

use crate::delay::assignment_delay;
use crate::instance::Instance;
use crate::network::ComputeNodeId;
use crate::query::QueryId;
use crate::solution::FEASIBILITY_EPS;

/// Flat per-(query, demand) deadline-feasible candidate matrix.
///
/// Built lazily via [`Instance::solver_cache`]; immutable afterwards
/// (an [`Instance`] is itself immutable, so topology changes mean a new
/// instance and thus a fresh cache).
#[derive(Debug, Clone)]
pub struct SolverCache {
    /// `query_start[q] .. query_start[q + 1]` spans query `q`'s demands
    /// in `demand_start`.
    query_start: Vec<u32>,
    /// `demand_start[f] .. demand_start[f + 1]` spans flat demand `f`'s
    /// candidates in `cand_nodes` / `cand_delays`.
    demand_start: Vec<u32>,
    /// Candidate compute nodes, ascending id within each demand.
    cand_nodes: Vec<u32>,
    /// Base assignment delay of the matching candidate.
    cand_delays: Vec<f64>,
}

impl SolverCache {
    /// Builds the cache by probing every (query, demand, node) triple
    /// once through the canonical delay law.
    pub fn build(inst: &Instance) -> Self {
        let n_queries = inst.queries().len();
        let mut query_start = Vec::with_capacity(n_queries + 1);
        let mut demand_start = Vec::new();
        let mut cand_nodes = Vec::new();
        let mut cand_delays = Vec::new();
        query_start.push(0u32);
        demand_start.push(0u32);
        for q in inst.query_ids() {
            let query = inst.query(q);
            for idx in 0..query.demands.len() {
                for v in inst.cloud().compute_ids() {
                    let base = assignment_delay(inst, q, idx, v);
                    if base <= query.deadline + FEASIBILITY_EPS {
                        cand_nodes.push(v.0);
                        cand_delays.push(base);
                    }
                }
                demand_start.push(cand_nodes.len() as u32);
            }
            query_start.push((demand_start.len() - 1) as u32);
        }
        Self {
            query_start,
            demand_start,
            cand_nodes,
            cand_delays,
        }
    }

    /// Deadline-feasible candidates for demand `idx` of query `q`, as
    /// `(node, base_delay)` pairs in ascending node-id order.
    #[inline]
    pub fn candidates(
        &self,
        q: QueryId,
        idx: usize,
    ) -> impl ExactSizeIterator<Item = (ComputeNodeId, f64)> + '_ {
        let flat = self.query_start[q.index()] as usize + idx;
        let lo = self.demand_start[flat] as usize;
        let hi = self.demand_start[flat + 1] as usize;
        self.cand_nodes[lo..hi]
            .iter()
            .zip(&self.cand_delays[lo..hi])
            .map(|(&v, &d)| (ComputeNodeId(v), d))
    }

    /// Number of feasible candidates for demand `idx` of query `q`.
    #[inline]
    pub fn candidate_count(&self, q: QueryId, idx: usize) -> usize {
        let flat = self.query_start[q.index()] as usize + idx;
        (self.demand_start[flat + 1] - self.demand_start[flat]) as usize
    }

    /// Total candidate entries across all demands (diagnostics: how much
    /// the pre-filter shrank the naive |demands| × |V| probe space).
    pub fn total_candidates(&self) -> usize {
        self.cand_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::is_deadline_feasible;
    use crate::network::EdgeCloudBuilder;
    use crate::query::Demand;
    use crate::InstanceBuilder;

    fn instance() -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(8.0, 0.01);
        let c1 = b.add_cloudlet(8.0, 0.02);
        b.link(dc, c0, 0.05);
        b.link(c0, c1, 0.1);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d0 = ib.add_dataset(4.0, dc);
        let d1 = ib.add_dataset(2.0, dc);
        ib.add_query(c0, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        ib.add_query(
            c1,
            vec![Demand::new(d0, 1.0), Demand::new(d1, 0.5)],
            1.0,
            0.3,
        );
        ib.add_query(c0, vec![Demand::new(d1, 1.0)], 1.0, 0.005); // infeasible everywhere
        ib.build().unwrap()
    }

    #[test]
    fn matches_naive_feasibility_filter() {
        let inst = instance();
        let cache = SolverCache::build(&inst);
        for q in inst.query_ids() {
            for idx in 0..inst.query(q).demands.len() {
                let naive: Vec<(ComputeNodeId, f64)> = inst
                    .cloud()
                    .compute_ids()
                    .filter(|&v| is_deadline_feasible(&inst, q, idx, v))
                    .map(|v| (v, assignment_delay(&inst, q, idx, v)))
                    .collect();
                let cached: Vec<(ComputeNodeId, f64)> = cache.candidates(q, idx).collect();
                assert_eq!(cached.len(), cache.candidate_count(q, idx));
                assert_eq!(naive.len(), cached.len(), "q={q:?} idx={idx}");
                for ((nv, nd), (cv, cd)) in naive.iter().zip(&cached) {
                    assert_eq!(nv, cv);
                    assert_eq!(nd.to_bits(), cd.to_bits(), "delays must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn infeasible_demand_has_empty_candidates() {
        let inst = instance();
        let cache = SolverCache::build(&inst);
        assert_eq!(cache.candidate_count(QueryId(2), 0), 0);
    }

    #[test]
    fn lazy_accessor_builds_once_and_survives_clone() {
        let inst = instance();
        let a = inst.solver_cache() as *const SolverCache;
        let b = inst.solver_cache() as *const SolverCache;
        assert_eq!(a, b, "second access must reuse the built cache");
        let cloned = inst.clone();
        assert_eq!(
            cloned.solver_cache().total_candidates(),
            inst.solver_cache().total_candidates()
        );
    }
}
