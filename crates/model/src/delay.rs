//! The paper's delay law and deadline feasibility (§2.3, constraint (4)).
//!
//! Evaluating query `q_m`'s demand on dataset `S_n` at node `v_l` costs
//!
//! ```text
//! D(m, n, l) = d(v_l)·|S_n|  +  dt(p(v_l, h_m))·α_nm·|S_n|
//! ```
//!
//! — processing the whole dataset at `v_l`, then shipping the
//! `α_nm`-fraction intermediate result along the minimum-delay path to the
//! query's home. Demands of one query are evaluated in parallel, so the
//! query experiences the **max** over its demands.
//!
//! Erasure-coded datasets pay an extra *reconstruction* term before
//! processing can start ([`read_overhead`]): the serving node holds one
//! shard and gathers the `k − 1` nearest other shards in parallel
//! (`max_h dt(p(h, v_l)) · |S_n|/k`), then decodes the full dataset at
//! `decode_s_per_gb · |S_n|` compute cost. Replication and `k = 1`
//! schemes contribute exactly `0.0`, keeping the paper's law bit-for-bit.

use crate::data::DatasetId;
use crate::instance::Instance;
use crate::network::ComputeNodeId;
use crate::query::QueryId;
use crate::solution::FEASIBILITY_EPS;

/// Delay of serving demand index `demand_idx` of query `q` at node `v`.
///
/// Returns `INFINITY` when `v` cannot reach the query's home, which the
/// admission logic treats as a deadline violation.
#[inline]
pub fn assignment_delay(inst: &Instance, q: QueryId, demand_idx: usize, v: ComputeNodeId) -> f64 {
    let query = inst.query(q);
    let dem = &query.demands[demand_idx];
    let size = inst.size(dem.dataset);
    let proc = inst.cloud().proc_delay(v) * size;
    let trans = inst.cloud().min_delay(v, query.home) * dem.selectivity * size;
    proc + trans
}

/// Reconstruction overhead of reading dataset `d` at holder `v`, given
/// the full live holder set `holders` (which must include `v` for a
/// legal read; other entries are gather candidates).
///
/// * Replication / `k = 1` schemes: exactly `0.0`.
/// * Erasure coding with `k ≥ 2`: the parallel gather of the `k − 1`
///   nearest other shards (`max` over chosen holders of
///   `dt(p(h, v)) · |S|/k`) plus `decode_s_per_gb · |S|` decode compute.
/// * `INFINITY` when fewer than `k` holders are live — the dataset is
///   unreadable at `v` until repair, which admission treats as a
///   deadline violation.
pub fn read_overhead(
    inst: &Instance,
    d: DatasetId,
    v: ComputeNodeId,
    holders: &[ComputeNodeId],
) -> f64 {
    let scheme = inst.scheme(d);
    if !scheme.needs_decode() {
        return 0.0;
    }
    let need = scheme.min_read() - 1; // v's own shard covers one stripe
    let cloud = inst.cloud();
    let mut gather: Vec<f64> = holders
        .iter()
        .filter(|&&h| h != v)
        .map(|&h| cloud.min_delay(h, v))
        .collect();
    if gather.len() < need {
        return f64::INFINITY;
    }
    gather.sort_by(f64::total_cmp);
    let shard = inst.shard_gb(d);
    let slowest = gather[need - 1]; // need ≥ 1 because k ≥ 2
    slowest * shard + inst.decode_s_per_gb() * inst.size(d)
}

/// [`assignment_delay`] plus the [`read_overhead`] of reconstructing the
/// demanded dataset from `holders` at `v`. This is the full delay an
/// erasure-coded read experiences; for replication it equals
/// `assignment_delay` bit-for-bit (`x + 0.0 = x`).
#[inline]
pub fn assignment_delay_with_holders(
    inst: &Instance,
    q: QueryId,
    demand_idx: usize,
    v: ComputeNodeId,
    holders: &[ComputeNodeId],
) -> f64 {
    let d = inst.query(q).demands[demand_idx].dataset;
    assignment_delay(inst, q, demand_idx, v) + read_overhead(inst, d, v, holders)
}

/// Whether serving demand `demand_idx` of `q` at `v` meets the deadline
/// `d_qm` (constraint (4)).
#[inline]
pub fn is_deadline_feasible(
    inst: &Instance,
    q: QueryId,
    demand_idx: usize,
    v: ComputeNodeId,
) -> bool {
    assignment_delay(inst, q, demand_idx, v) <= inst.query(q).deadline + FEASIBILITY_EPS
}

/// End-to-end delay of a fully assigned query: the max over its demands
/// (per-dataset processing and result shipping run in parallel, §2.3).
///
/// `nodes` must align with `query.demands`.
pub fn query_delay(inst: &Instance, q: QueryId, nodes: &[ComputeNodeId]) -> f64 {
    let query = inst.query(q);
    assert_eq!(
        nodes.len(),
        query.demands.len(),
        "assignment arity mismatch for {q}"
    );
    (0..nodes.len())
        .map(|i| assignment_delay(inst, q, i, nodes[i]))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::network::EdgeCloudBuilder;
    use crate::query::Demand;

    /// dc(proc 0.001) --0.05-- cl(proc 0.01); dataset of 4 GB at dc;
    /// query at cl with α = 0.5, deadline 1.0.
    fn toy() -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d = ib.add_dataset(4.0, dc);
        ib.add_query(cl, vec![Demand::new(d, 0.5)], 1.0, 1.0);
        ib.build().unwrap()
    }

    #[test]
    fn delay_at_remote_node_includes_transfer() {
        let inst = toy();
        // At the DC: proc = 0.001·4, transfer = 0.05·0.5·4 = 0.1.
        let d = assignment_delay(&inst, QueryId(0), 0, ComputeNodeId(0));
        assert!((d - (0.004 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn delay_at_home_node_has_no_transfer() {
        let inst = toy();
        let d = assignment_delay(&inst, QueryId(0), 0, ComputeNodeId(1));
        assert!((d - 0.04).abs() < 1e-12);
    }

    #[test]
    fn feasibility_respects_deadline() {
        let inst = toy();
        assert!(is_deadline_feasible(&inst, QueryId(0), 0, ComputeNodeId(0)));
        assert!(is_deadline_feasible(&inst, QueryId(0), 0, ComputeNodeId(1)));
    }

    #[test]
    fn infeasible_when_deadline_tiny() {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d = ib.add_dataset(4.0, dc);
        ib.add_query(cl, vec![Demand::new(d, 0.5)], 1.0, 0.01);
        let inst = ib.build().unwrap();
        assert!(!is_deadline_feasible(
            &inst,
            QueryId(0),
            0,
            ComputeNodeId(0)
        ));
        // Processing at home costs 0.04 > 0.01: also infeasible.
        assert!(!is_deadline_feasible(
            &inst,
            QueryId(0),
            0,
            ComputeNodeId(1)
        ));
    }

    #[test]
    fn unreachable_node_is_infinite() {
        let mut b = EdgeCloudBuilder::new();
        let a = b.add_cloudlet(8.0, 0.01);
        let c = b.add_cloudlet(8.0, 0.01);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d = ib.add_dataset(1.0, a);
        ib.add_query(a, vec![Demand::new(d, 1.0)], 1.0, 100.0);
        let inst = ib.build().unwrap();
        assert!(assignment_delay(&inst, QueryId(0), 0, c).is_infinite());
        assert!(!is_deadline_feasible(&inst, QueryId(0), 0, c));
    }

    #[test]
    fn query_delay_is_max_over_demands() {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d0 = ib.add_dataset(4.0, dc);
        let d1 = ib.add_dataset(1.0, dc);
        ib.add_query(
            cl,
            vec![Demand::new(d0, 0.5), Demand::new(d1, 1.0)],
            1.0,
            1.0,
        );
        let inst = ib.build().unwrap();
        let d_both = query_delay(&inst, QueryId(0), &[ComputeNodeId(0), ComputeNodeId(1)]);
        let d_first = assignment_delay(&inst, QueryId(0), 0, ComputeNodeId(0));
        assert_eq!(d_both, d_first);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn query_delay_rejects_wrong_arity() {
        let inst = toy();
        query_delay(&inst, QueryId(0), &[]);
    }

    use crate::data::DatasetId;
    use edgerep_ec::RedundancyScheme;

    /// Line of three cloudlets a --0.1-- b --0.2-- c, one 4 GB dataset,
    /// one query at `a` with a loose deadline.
    fn line_instance(scheme: RedundancyScheme) -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let na = b.add_cloudlet(50.0, 0.01);
        let nb = b.add_cloudlet(50.0, 0.01);
        let nc = b.add_cloudlet(50.0, 0.01);
        b.link(na, nb, 0.1);
        b.link(nb, nc, 0.2);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d = ib.add_dataset(4.0, na);
        ib.set_scheme(d, scheme);
        ib.set_ec_costs(0.05, 0.1);
        ib.add_query(na, vec![Demand::new(d, 0.5)], 1.0, 100.0);
        ib.build().unwrap()
    }

    #[test]
    fn replication_read_overhead_is_exactly_zero() {
        let inst = line_instance(RedundancyScheme::Replication { k: 3 });
        let holders = [ComputeNodeId(0), ComputeNodeId(1)];
        let ov = read_overhead(&inst, DatasetId(0), ComputeNodeId(0), &holders);
        assert_eq!(ov.to_bits(), 0.0f64.to_bits());
        let with = assignment_delay_with_holders(&inst, QueryId(0), 0, ComputeNodeId(0), &holders);
        let base = assignment_delay(&inst, QueryId(0), 0, ComputeNodeId(0));
        assert_eq!(with.to_bits(), base.to_bits());
    }

    #[test]
    fn k1_erasure_overhead_matches_replication_bitwise() {
        let ec = line_instance(RedundancyScheme::ErasureCoded { k: 1, m: 2 });
        let rep = line_instance(RedundancyScheme::Replication { k: 3 });
        let holders = [ComputeNodeId(0), ComputeNodeId(2)];
        for v in [ComputeNodeId(0), ComputeNodeId(2)] {
            let a = assignment_delay_with_holders(&ec, QueryId(0), 0, v, &holders);
            let b = assignment_delay_with_holders(&rep, QueryId(0), 0, v, &holders);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ec_overhead_gathers_from_nearest_and_decodes() {
        let inst = line_instance(RedundancyScheme::ErasureCoded { k: 2, m: 1 });
        // Read at b (node 1), holders a, b, c. shard = 2 GB. Nearest other
        // holder is a at 0.1 s/GB → gather 0.2 s; decode 0.05 × 4 = 0.2 s.
        let holders = [ComputeNodeId(0), ComputeNodeId(1), ComputeNodeId(2)];
        let ov = read_overhead(&inst, DatasetId(0), ComputeNodeId(1), &holders);
        assert!((ov - 0.4).abs() < 1e-12);
        // With only c as co-holder the gather runs at 0.2 s/GB.
        let ov = read_overhead(
            &inst,
            DatasetId(0),
            ComputeNodeId(1),
            &[ComputeNodeId(1), ComputeNodeId(2)],
        );
        assert!((ov - (0.4 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn ec_overhead_infinite_below_quorum() {
        let inst = line_instance(RedundancyScheme::ErasureCoded { k: 2, m: 1 });
        // Only v itself holds a shard: 1 < k = 2.
        let ov = read_overhead(&inst, DatasetId(0), ComputeNodeId(1), &[ComputeNodeId(1)]);
        assert!(ov.is_infinite());
        assert!(assignment_delay_with_holders(
            &inst,
            QueryId(0),
            0,
            ComputeNodeId(1),
            &[ComputeNodeId(1)]
        )
        .is_infinite());
    }
}
