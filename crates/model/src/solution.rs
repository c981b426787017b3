//! Placements, assignments, admission semantics, and feasibility validation.
//!
//! A [`Solution`] carries the two ILP decision families of §3.2:
//!
//! * `x_nl` — which nodes host a replica of dataset `S_n` (≤ `K` each,
//!   constraint (5));
//! * `π_ml` — which node serves each demand of each query (constraint (3):
//!   only nodes holding the replica; constraint (4): within the deadline;
//!   constraint (2): within node compute availability).
//!
//! A query is **admitted** iff *all* of its demands are assigned; the
//! objective is the total demanded volume over admitted queries
//! (equation (1)). [`Solution::validate`] re-checks every constraint from
//! scratch, so tests can hold all algorithms to the same contract.

use crate::data::DatasetId;
use crate::delay::assignment_delay_with_holders;
use crate::instance::Instance;
use crate::network::ComputeNodeId;
use crate::query::QueryId;

/// Numerical slack for capacity / deadline comparisons; placements are built
/// from sums of `f64` products and must not fail validation on 1-ulp noise.
///
/// This is the **one** feasibility epsilon: admission
/// (`edgerep-core`), the delay law ([`crate::delay::is_deadline_feasible`]),
/// and this validator all compare against the same constant, so a plan
/// accepted by admission can never be rejected by validation (or vice
/// versa) over epsilon disagreement.
pub const FEASIBILITY_EPS: f64 = 1e-9;

/// One feasibility violation found by [`Solution::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolutionError {
    /// A replica was placed on a node id outside the cloud.
    UnknownReplicaNode(DatasetId, ComputeNodeId),
    /// A dataset has more than `K` replicas (constraint (5)).
    ReplicaBudgetExceeded(DatasetId, usize),
    /// The same node appears twice in a dataset's replica list.
    DuplicateReplica(DatasetId, ComputeNodeId),
    /// An assignment's node list arity differs from the query's demands.
    ArityMismatch(QueryId),
    /// A demand was assigned to a node without the dataset's replica
    /// (constraint (3)).
    NoReplicaAtAssignment(QueryId, DatasetId, ComputeNodeId),
    /// A demand's delay exceeds the query deadline (constraint (4)),
    /// including any erasure-coding gather + decode overhead.
    DeadlineViolated(QueryId, DatasetId, ComputeNodeId),
    /// An assigned erasure-coded dataset has fewer placed shards than its
    /// read quorum `k` — unreadable regardless of the deadline.
    ShardQuorumUnmet(QueryId, DatasetId, usize, usize),
    /// A node's assigned compute exceeds its availability (constraint (2)).
    CapacityExceeded(ComputeNodeId, f64, f64),
}

impl std::fmt::Display for SolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionError::UnknownReplicaNode(d, v) => {
                write!(f, "replica of {d} on unknown node {v}")
            }
            SolutionError::ReplicaBudgetExceeded(d, k) => {
                write!(f, "dataset {d} has {k} replicas, over budget")
            }
            SolutionError::DuplicateReplica(d, v) => {
                write!(f, "dataset {d} lists node {v} twice")
            }
            SolutionError::ArityMismatch(q) => {
                write!(f, "assignment arity mismatch for {q}")
            }
            SolutionError::NoReplicaAtAssignment(q, d, v) => {
                write!(f, "{q} served {d} at {v} which holds no replica")
            }
            SolutionError::DeadlineViolated(q, d, v) => {
                write!(f, "{q} misses its deadline serving {d} at {v}")
            }
            SolutionError::ShardQuorumUnmet(q, d, have, need) => {
                write!(f, "{q} reads {d} with {have} shards placed, quorum {need}")
            }
            SolutionError::CapacityExceeded(v, used, avail) => {
                write!(f, "node {v} assigned {used} GHz of {avail} available")
            }
        }
    }
}

impl std::error::Error for SolutionError {}

/// A replication-and-placement solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Replica locations per dataset (indexed by `DatasetId`).
    replicas: Vec<Vec<ComputeNodeId>>,
    /// Per query: `None` = rejected; `Some(nodes)` = admitted with `nodes`
    /// aligned to the query's demand list.
    assignments: Vec<Option<Vec<ComputeNodeId>>>,
}

impl Solution {
    /// An empty solution (no replicas, every query rejected) shaped for
    /// `inst`.
    pub fn empty(inst: &Instance) -> Self {
        Self {
            replicas: vec![Vec::new(); inst.datasets().len()],
            assignments: vec![None; inst.queries().len()],
        }
    }

    /// Places a replica of `d` on `v`; returns `false` if already present.
    pub fn place_replica(&mut self, d: DatasetId, v: ComputeNodeId) -> bool {
        let list = &mut self.replicas[d.index()];
        if list.contains(&v) {
            false
        } else {
            list.push(v);
            true
        }
    }

    /// Replica locations of `d`.
    pub fn replicas_of(&self, d: DatasetId) -> &[ComputeNodeId] {
        &self.replicas[d.index()]
    }

    /// Removes the replica of `d` at `v`; returns `false` if it was not
    /// there. Callers are responsible for not stranding assignments — the
    /// validator flags any assignment left without its replica.
    pub fn remove_replica(&mut self, d: DatasetId, v: ComputeNodeId) -> bool {
        let list = &mut self.replicas[d.index()];
        match list.iter().position(|&x| x == v) {
            Some(i) => {
                list.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Datasets currently replicated on `v`.
    pub fn replicas_on(&self, v: ComputeNodeId) -> Vec<DatasetId> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, list)| list.contains(&v))
            .map(|(di, _)| DatasetId(di as u32))
            .collect()
    }

    /// Removes every replica hosted on `v` (a node loss); returns the
    /// datasets orphaned, in dataset-id order. As with
    /// [`remove_replica`](Self::remove_replica), assignments pointing at
    /// `v` are left for the caller to repair or fail over.
    pub fn remove_node_replicas(&mut self, v: ComputeNodeId) -> Vec<DatasetId> {
        let mut orphaned = Vec::new();
        for (di, list) in self.replicas.iter_mut().enumerate() {
            if let Some(i) = list.iter().position(|&x| x == v) {
                list.swap_remove(i);
                orphaned.push(DatasetId(di as u32));
            }
        }
        orphaned
    }

    /// Whether any admitted query's demand on `d` is served at `v`.
    pub fn replica_in_use(&self, inst: &Instance, d: DatasetId, v: ComputeNodeId) -> bool {
        for (qi, assignment) in self.assignments.iter().enumerate() {
            let Some(nodes) = assignment else { continue };
            let query = inst.query(QueryId(qi as u32));
            for (dem, &node) in query.demands.iter().zip(nodes.iter()) {
                if dem.dataset == d && node == v {
                    return true;
                }
            }
        }
        false
    }

    /// Number of replicas of `d`.
    pub fn replica_count(&self, d: DatasetId) -> usize {
        self.replicas[d.index()].len()
    }

    /// Whether `v` holds a replica of `d`.
    pub fn has_replica(&self, d: DatasetId, v: ComputeNodeId) -> bool {
        self.replicas[d.index()].contains(&v)
    }

    /// Total replicas placed over all datasets.
    pub fn total_replicas(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum()
    }

    /// Admits `q` with `nodes` aligned to its demand list (overwrites a
    /// previous assignment).
    pub fn assign_query(&mut self, q: QueryId, nodes: Vec<ComputeNodeId>) {
        self.assignments[q.index()] = Some(nodes);
    }

    /// Rejects `q` (removes its assignment if present).
    pub fn unassign_query(&mut self, q: QueryId) {
        self.assignments[q.index()] = None;
    }

    /// The serving nodes of `q`, if admitted.
    pub fn assignment_of(&self, q: QueryId) -> Option<&[ComputeNodeId]> {
        self.assignments[q.index()].as_deref()
    }

    /// Whether `q` is admitted.
    pub fn is_admitted(&self, q: QueryId) -> bool {
        self.assignments[q.index()].is_some()
    }

    /// Ids of all admitted queries.
    pub fn admitted_queries(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| QueryId(i as u32))
    }

    /// Number of admitted queries.
    pub fn admitted_count(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }

    /// Objective (1): total volume of datasets demanded by admitted queries.
    /// `+0.0` when nothing is admitted (`f64`'s `Sum` of nothing is `-0.0`,
    /// which prints as `-0.00`).
    pub fn admitted_volume(&self, inst: &Instance) -> f64 {
        self.admitted_queries()
            .map(|q| inst.demanded_volume(q))
            .fold(0.0, |acc, v| acc + v)
    }

    /// System throughput: admitted queries / total queries (§4.2).
    pub fn throughput(&self, inst: &Instance) -> f64 {
        if inst.queries().is_empty() {
            return 0.0;
        }
        self.admitted_count() as f64 / inst.queries().len() as f64
    }

    /// Compute load per node implied by the assignments
    /// (`Σ |S_n|·r_m` per constraint (2)).
    pub fn node_loads(&self, inst: &Instance) -> Vec<f64> {
        let mut load = vec![0.0; inst.cloud().compute_count()];
        for (qi, assignment) in self.assignments.iter().enumerate() {
            let Some(nodes) = assignment else { continue };
            let query = inst.query(QueryId(qi as u32));
            for (dem, &v) in query.demands.iter().zip(nodes.iter()) {
                load[v.index()] += inst.size(dem.dataset) * query.compute_rate;
            }
        }
        load
    }

    /// Total GB stored across all placed replicas/shards — the storage
    /// cost axis of the EC-vs-replication tradeoff. Each holder of `d`
    /// stores [`Instance::shard_gb`] (`|S_n|` per copy, `|S_n|/k` per
    /// shard).
    pub fn storage_gb(&self, inst: &Instance) -> f64 {
        inst.dataset_ids()
            .map(|d| self.replica_count(d) as f64 * inst.shard_gb(d))
            .sum()
    }

    /// Re-checks every ILP constraint; returns all violations found.
    pub fn validate(&self, inst: &Instance) -> Result<(), Vec<SolutionError>> {
        let mut errors = Vec::new();
        let v_count = inst.cloud().compute_count() as u32;

        for (di, nodes) in self.replicas.iter().enumerate() {
            let d = DatasetId(di as u32);
            if nodes.len() > inst.slots(d) {
                errors.push(SolutionError::ReplicaBudgetExceeded(d, nodes.len()));
            }
            let mut seen = std::collections::HashSet::new();
            for &v in nodes {
                if v.0 >= v_count {
                    errors.push(SolutionError::UnknownReplicaNode(d, v));
                } else if !seen.insert(v) {
                    errors.push(SolutionError::DuplicateReplica(d, v));
                }
            }
        }

        for (qi, assignment) in self.assignments.iter().enumerate() {
            let q = QueryId(qi as u32);
            let Some(nodes) = assignment else { continue };
            let query = inst.query(q);
            if nodes.len() != query.demands.len() {
                errors.push(SolutionError::ArityMismatch(q));
                continue;
            }
            for (idx, (dem, &v)) in query.demands.iter().zip(nodes.iter()).enumerate() {
                if v.0 >= v_count || !self.has_replica(dem.dataset, v) {
                    errors.push(SolutionError::NoReplicaAtAssignment(q, dem.dataset, v));
                    continue;
                }
                let holders = self.replicas_of(dem.dataset);
                let quorum = inst.scheme(dem.dataset).min_read();
                if holders.len() < quorum {
                    errors.push(SolutionError::ShardQuorumUnmet(
                        q,
                        dem.dataset,
                        holders.len(),
                        quorum,
                    ));
                    continue;
                }
                if assignment_delay_with_holders(inst, q, idx, v, holders)
                    > query.deadline + FEASIBILITY_EPS
                {
                    errors.push(SolutionError::DeadlineViolated(q, dem.dataset, v));
                }
            }
        }

        for (vi, &used) in self.node_loads(inst).iter().enumerate() {
            let v = ComputeNodeId(vi as u32);
            let avail = inst.cloud().available(v);
            if used > avail + FEASIBILITY_EPS {
                errors.push(SolutionError::CapacityExceeded(v, used, avail));
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::network::EdgeCloudBuilder;
    use crate::query::Demand;

    /// dc (cap 100) --0.05-- cl (cap 10); dataset S0 (4 GB) and S1 (2 GB);
    /// q0 at cl demands S0 (α .5); q1 at cl demands both.
    fn inst() -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d0 = ib.add_dataset(4.0, dc);
        let d1 = ib.add_dataset(2.0, dc);
        ib.add_query(cl, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        ib.add_query(
            cl,
            vec![Demand::new(d0, 1.0), Demand::new(d1, 0.5)],
            1.0,
            1.0,
        );
        ib.build().unwrap()
    }

    const DC: ComputeNodeId = ComputeNodeId(0);
    const CL: ComputeNodeId = ComputeNodeId(1);

    #[test]
    fn empty_solution_is_feasible_and_worthless() {
        let inst = inst();
        let sol = Solution::empty(&inst);
        assert!(sol.validate(&inst).is_ok());
        assert_eq!(sol.admitted_volume(&inst).to_bits(), 0.0f64.to_bits());
        assert_eq!(sol.throughput(&inst), 0.0);
        assert_eq!(sol.total_replicas(), 0);
    }

    #[test]
    fn place_replica_dedupes() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        assert!(sol.place_replica(DatasetId(0), DC));
        assert!(!sol.place_replica(DatasetId(0), DC));
        assert!(sol.place_replica(DatasetId(0), CL));
        assert_eq!(sol.replica_count(DatasetId(0)), 2);
        assert!(sol.has_replica(DatasetId(0), DC));
        assert!(!sol.has_replica(DatasetId(1), DC));
    }

    #[test]
    fn admission_accounting() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.place_replica(DatasetId(1), DC);
        sol.assign_query(QueryId(1), vec![DC, DC]);
        assert!(sol.is_admitted(QueryId(1)));
        assert!(!sol.is_admitted(QueryId(0)));
        assert_eq!(sol.admitted_count(), 1);
        assert_eq!(sol.admitted_volume(&inst), 6.0);
        assert_eq!(sol.throughput(&inst), 0.5);
        assert_eq!(sol.admitted_queries().collect::<Vec<_>>(), vec![QueryId(1)]);
        sol.unassign_query(QueryId(1));
        assert_eq!(sol.admitted_count(), 0);
    }

    #[test]
    fn valid_full_solution_passes() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.place_replica(DatasetId(1), DC);
        sol.assign_query(QueryId(0), vec![DC]);
        sol.assign_query(QueryId(1), vec![DC, DC]);
        assert!(sol.validate(&inst).is_ok());
        let loads = sol.node_loads(&inst);
        assert!((loads[DC.index()] - (4.0 + 4.0 + 2.0)).abs() < 1e-12);
        assert_eq!(loads[CL.index()], 0.0);
    }

    #[test]
    fn missing_replica_detected() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.assign_query(QueryId(0), vec![DC]);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(matches!(
            errs[0],
            SolutionError::NoReplicaAtAssignment(QueryId(0), DatasetId(0), DC)
        ));
    }

    #[test]
    fn replica_budget_enforced() {
        let inst = inst(); // K = 2
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.place_replica(DatasetId(0), CL);
        assert!(sol.validate(&inst).is_ok());
        // Force a third replica via a node id that exists? Only 2 nodes.
        // Exceed via duplicate push through internal state instead:
        sol.place_replica(DatasetId(0), ComputeNodeId(5));
        let errs = sol.validate(&inst).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SolutionError::ReplicaBudgetExceeded(DatasetId(0), 3))));
        assert!(errs
            .iter()
            .any(|e| matches!(e, SolutionError::UnknownReplicaNode(DatasetId(0), _))));
    }

    #[test]
    fn capacity_violation_detected() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), CL);
        sol.place_replica(DatasetId(1), CL);
        // q0: 4 GHz at cl; q1: 4 + 2 GHz at cl = 10 total; cap 10 ok.
        sol.assign_query(QueryId(0), vec![CL]);
        sol.assign_query(QueryId(1), vec![CL, CL]);
        assert!(sol.validate(&inst).is_ok());
        // Second copy of q1's S0 demand onto cl blows the budget.
        let mut over = sol.clone();
        over.assign_query(QueryId(1), vec![CL, CL]);
        // Already at cap; add a fake extra query load by reassigning q0
        // twice is impossible, so shrink availability instead:
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.set_available(cl, 5.0);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d0 = ib.add_dataset(4.0, dc);
        ib.add_query(cl, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        ib.add_query(cl, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        let tight = ib.build().unwrap();
        let mut sol = Solution::empty(&tight);
        sol.place_replica(DatasetId(0), cl);
        sol.assign_query(QueryId(0), vec![cl]);
        sol.assign_query(QueryId(1), vec![cl]);
        let errs = sol.validate(&tight).unwrap_err();
        assert!(matches!(errs[0], SolutionError::CapacityExceeded(v, _, _) if v == cl));
    }

    #[test]
    fn deadline_violation_detected() {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 10.0); // very slow link
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d0 = ib.add_dataset(4.0, dc);
        ib.add_query(cl, vec![Demand::new(d0, 1.0)], 1.0, 0.5);
        let inst = ib.build().unwrap();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), dc);
        sol.assign_query(QueryId(0), vec![dc]);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(matches!(errs[0], SolutionError::DeadlineViolated(..)));
    }

    #[test]
    fn arity_mismatch_detected() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.assign_query(QueryId(1), vec![DC]);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(matches!(errs[0], SolutionError::ArityMismatch(QueryId(1))));
    }

    #[test]
    fn remove_replica_and_usage_queries() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.place_replica(DatasetId(0), CL);
        assert!(!sol.replica_in_use(&inst, DatasetId(0), DC));
        sol.assign_query(QueryId(0), vec![DC]);
        assert!(sol.replica_in_use(&inst, DatasetId(0), DC));
        assert!(!sol.replica_in_use(&inst, DatasetId(0), CL));
        // Removing the unused replica keeps the solution valid.
        assert!(sol.remove_replica(DatasetId(0), CL));
        assert!(!sol.remove_replica(DatasetId(0), CL));
        assert!(sol.validate(&inst).is_ok());
        // Removing the used one breaks it.
        assert!(sol.remove_replica(DatasetId(0), DC));
        assert!(sol.validate(&inst).is_err());
    }

    #[test]
    fn remove_node_replicas_orphans_every_dataset_on_the_node() {
        let inst = inst();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(DatasetId(0), DC);
        sol.place_replica(DatasetId(0), CL);
        sol.place_replica(DatasetId(1), DC);
        assert_eq!(sol.replicas_on(DC), vec![DatasetId(0), DatasetId(1)]);
        let orphaned = sol.remove_node_replicas(DC);
        assert_eq!(orphaned, vec![DatasetId(0), DatasetId(1)]);
        assert!(!sol.has_replica(DatasetId(0), DC));
        assert!(sol.has_replica(DatasetId(0), CL));
        assert_eq!(sol.replica_count(DatasetId(1)), 0);
        assert!(sol.replicas_on(DC).is_empty());
        assert!(sol.remove_node_replicas(DC).is_empty());
    }

    #[test]
    fn storage_gb_accounts_shard_sizes() {
        use edgerep_ec::RedundancyScheme;
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 6);
        let d0 = ib.add_dataset(4.0, dc); // default rep(6)
        let d1 = ib.add_dataset(4.0, dc);
        ib.set_scheme(d1, RedundancyScheme::ErasureCoded { k: 4, m: 2 });
        ib.add_query(cl, vec![Demand::new(d0, 0.5)], 1.0, 10.0);
        let inst = ib.build().unwrap();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(d0, DC);
        sol.place_replica(d0, CL);
        sol.place_replica(d1, DC);
        sol.place_replica(d1, CL);
        // Two full 4 GB copies + two 1 GB shards.
        assert!((sol.storage_gb(&inst) - 10.0).abs() < 1e-12);
        assert_eq!(Solution::empty(&inst).storage_gb(&inst), 0.0);
    }

    #[test]
    fn ec_validation_checks_quorum_budget_and_decode_deadline() {
        use edgerep_ec::RedundancyScheme;
        let mut b = EdgeCloudBuilder::new();
        let n0 = b.add_cloudlet(50.0, 0.001);
        let n1 = b.add_cloudlet(50.0, 0.001);
        let n2 = b.add_cloudlet(50.0, 0.001);
        let n3 = b.add_cloudlet(50.0, 0.001);
        b.link(n0, n1, 0.01);
        b.link(n1, n2, 0.01);
        b.link(n2, n3, 0.01);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d = ib.add_dataset(4.0, n0);
        ib.set_scheme(d, RedundancyScheme::ErasureCoded { k: 2, m: 1 });
        ib.set_ec_costs(0.05, 0.1);
        ib.add_query(n0, vec![Demand::new(d, 0.5)], 1.0, 1.0);
        let inst = ib.build().unwrap();

        // One shard placed + assigned: quorum unmet.
        let mut sol = Solution::empty(&inst);
        sol.place_replica(d, n0);
        sol.assign_query(QueryId(0), vec![n0]);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SolutionError::ShardQuorumUnmet(_, _, 1, 2))));

        // Two shards: readable, decode overhead fits the 1 s deadline
        // (proc 0.004 + gather 0.01·2 + decode 0.05·4 = 0.224).
        sol.place_replica(d, n1);
        assert!(sol.validate(&inst).is_ok());

        // Budget: slots = k + m = 3; a fourth holder is over budget.
        sol.place_replica(d, n2);
        assert!(sol.validate(&inst).is_ok());
        sol.place_replica(d, n3);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SolutionError::ReplicaBudgetExceeded(_, 4))));
    }

    #[test]
    fn ec_decode_overhead_can_violate_deadline() {
        use edgerep_ec::RedundancyScheme;
        let mut b = EdgeCloudBuilder::new();
        let n0 = b.add_cloudlet(50.0, 0.001);
        let n1 = b.add_cloudlet(50.0, 0.001);
        b.link(n0, n1, 0.01);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d = ib.add_dataset(4.0, n0);
        ib.set_scheme(d, RedundancyScheme::ErasureCoded { k: 2, m: 0 });
        // Decode alone costs 1 s/GB × 4 GB = 4 s > the 1 s deadline.
        ib.set_ec_costs(1.0, 0.1);
        ib.add_query(n0, vec![Demand::new(d, 0.5)], 1.0, 1.0);
        let inst = ib.build().unwrap();
        let mut sol = Solution::empty(&inst);
        sol.place_replica(d, n0);
        sol.place_replica(d, n1);
        sol.assign_query(QueryId(0), vec![n0]);
        let errs = sol.validate(&inst).unwrap_err();
        assert!(matches!(errs[0], SolutionError::DeadlineViolated(..)));
    }
}
