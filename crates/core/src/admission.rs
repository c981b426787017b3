//! Shared admission state machine.
//!
//! Every placement algorithm mutates an [`AdmissionState`]: it tracks the
//! remaining compute per node and the replica placements so far, and offers
//! the three feasibility predicates of the ILP — capacity (2), replica
//! availability / budget (3) + (5), and deadline (4) — plus transactional
//! commit of a whole query (admission is all-or-nothing: a query counts
//! only when *every* demanded dataset is served within its deadline, which
//! is how the paper argues Fig. 4's throughput decline in `F`).

use std::cell::Cell;

use edgerep_model::delay::{assignment_delay, read_overhead};
use edgerep_model::{ComputeNodeId, DatasetId, Instance, QueryId, Solution, FEASIBILITY_EPS};
use edgerep_obs as obs;

/// Why a single (demand, node) feasibility check failed — the three hard
/// constraints of the ILP, in the order they are tested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Constraints (3) + (5): the node holds no replica and the dataset's
    /// replica budget `K` is exhausted.
    ReplicaBudget,
    /// Constraint (2): the node's remaining compute cannot absorb the
    /// demand.
    Capacity,
    /// Constraint (4): the access delay at the node exceeds the query's
    /// deadline.
    Deadline,
}

impl RejectReason {
    /// Stable label used in metric names (`admission.reject.<label>`) and
    /// trace fields.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::ReplicaBudget => "replica_budget",
            RejectReason::Capacity => "capacity",
            RejectReason::Deadline => "deadline",
        }
    }
}

/// Running tallies of feasibility checks and commits, kept in plain
/// integers on the [`AdmissionState`] hot path and flushed to the
/// process-wide metric registry once per solve (see
/// [`AdmissionTally::flush_to_registry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionTally {
    /// Feasibility checks evaluated (demand predicates and price probes).
    pub checks: u64,
    /// Checks that failed on the replica budget.
    pub reject_replica_budget: u64,
    /// Checks that failed on compute capacity.
    pub reject_capacity: u64,
    /// Checks that failed on the deadline.
    pub reject_deadline: u64,
    /// Queries committed (admitted).
    pub committed_queries: u64,
    /// Demand assignments committed.
    pub committed_demands: u64,
}

impl AdmissionTally {
    fn note(&mut self, rejection: Option<RejectReason>) {
        self.checks += 1;
        match rejection {
            None => {}
            Some(RejectReason::ReplicaBudget) => self.reject_replica_budget += 1,
            Some(RejectReason::Capacity) => self.reject_capacity += 1,
            Some(RejectReason::Deadline) => self.reject_deadline += 1,
        }
    }

    /// Adds the tally to the registry counters
    /// `admission.{checks,commit.queries,commit.demands}` and
    /// `admission.reject.{replica_budget,capacity,deadline}`, and emits an
    /// `admission.summary` trace event when the `admission` target is
    /// enabled. A handful of relaxed atomic adds — cheap enough to run
    /// unconditionally once per solve.
    pub fn flush_to_registry(&self) {
        obs::counter("admission.checks").add(self.checks);
        obs::counter("admission.reject.replica_budget").add(self.reject_replica_budget);
        obs::counter("admission.reject.capacity").add(self.reject_capacity);
        obs::counter("admission.reject.deadline").add(self.reject_deadline);
        obs::counter("admission.commit.queries").add(self.committed_queries);
        obs::counter("admission.commit.demands").add(self.committed_demands);
        obs::emit(
            "admission",
            "admission",
            "admission.summary",
            &[
                ("checks", self.checks.into()),
                ("reject_replica_budget", self.reject_replica_budget.into()),
                ("reject_capacity", self.reject_capacity.into()),
                ("reject_deadline", self.reject_deadline.into()),
                ("commit_queries", self.committed_queries.into()),
                ("commit_demands", self.committed_demands.into()),
            ],
        );
    }
}

/// Mutable placement state shared by all algorithms.
#[derive(Debug, Clone)]
pub struct AdmissionState<'a> {
    inst: &'a Instance,
    /// Compute consumed per node so far.
    used: Vec<f64>,
    /// The solution under construction.
    sol: Solution,
    /// Check/reject/commit tallies (interior-mutable so the read-only
    /// feasibility predicates can count themselves).
    tally: Cell<AdmissionTally>,
}

/// A planned service location for one demand of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedDemand {
    /// Chosen node.
    pub node: ComputeNodeId,
    /// Advisory: whether the planner expected to place a new replica at
    /// [`Self::node`]. Purely diagnostic — [`AdmissionState::commit`]
    /// derives the actual placements itself (and
    /// [`AdmissionState::plan_feasible`] re-validates), so a stale value
    /// here can never corrupt state.
    pub new_replica: bool,
}

impl<'a> AdmissionState<'a> {
    /// Fresh state: no replicas, all capacity available.
    pub fn new(inst: &'a Instance) -> Self {
        Self {
            inst,
            used: vec![0.0; inst.cloud().compute_count()],
            sol: Solution::empty(inst),
            tally: Cell::new(AdmissionTally::default()),
        }
    }

    /// State resuming from an existing solution: replicas and admissions
    /// as in `sol`, compute consumption re-derived from its assignments.
    /// This is how the repair planner re-enters admission bookkeeping
    /// mid-run without replaying the original algorithm.
    pub fn from_solution(inst: &'a Instance, sol: &Solution) -> Self {
        Self {
            inst,
            used: sol.node_loads(inst),
            sol: sol.clone(),
            tally: Cell::new(AdmissionTally::default()),
        }
    }

    /// The instance this state is built over.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Compute already consumed at `v`.
    pub fn used(&self, v: ComputeNodeId) -> f64 {
        self.used[v.index()]
    }

    /// Remaining compute at `v`.
    pub fn remaining(&self, v: ComputeNodeId) -> f64 {
        self.inst.cloud().available(v) - self.used[v.index()]
    }

    /// Fraction of `v`'s availability consumed (0 when the node has none).
    pub fn load_fraction(&self, v: ComputeNodeId) -> f64 {
        let avail = self.inst.cloud().available(v);
        if avail <= 0.0 {
            // A node with zero available compute can serve nothing; treat
            // it as saturated so price-based selection never picks it.
            1.0
        } else {
            self.used[v.index()] / avail
        }
    }

    /// The solution built so far (replicas + admitted queries).
    pub fn solution(&self) -> &Solution {
        &self.sol
    }

    /// Consumes the state, yielding the final solution. Flushes the
    /// check/reject/commit tallies to the metric registry (see
    /// [`AdmissionTally::flush_to_registry`]).
    pub fn into_solution(self) -> Solution {
        self.tally.get().flush_to_registry();
        self.sol
    }

    /// The check/reject/commit tallies accumulated so far.
    pub fn tally(&self) -> AdmissionTally {
        self.tally.get()
    }

    /// Records the outcome of one feasibility check performed *outside*
    /// this state's own predicates (e.g. a price probe in the primal-dual
    /// engine that tests the same three constraints inline).
    #[inline]
    pub fn note_check(&self, rejection: Option<RejectReason>) {
        let mut t = self.tally.get();
        t.note(rejection);
        self.tally.set(t);
    }

    /// Whether `d` still has holder budget for a *new* location — the
    /// per-dataset `slots(d)` generalization of constraint (5)'s `K`.
    pub fn replica_budget_left(&self, d: DatasetId) -> bool {
        self.sol.replica_count(d) < self.inst.slots(d)
    }

    /// The holder set `d` would have after serving a read at `v`:
    /// existing holders ∪ plan-pending holders for `d` ∪ `{v}`, extended
    /// with the nearest fill nodes (by delay to `v`, ties lowest id)
    /// until the scheme's read quorum is met — the `k`-shard bootstrap an
    /// erasure-coded dataset performs on first activation. For
    /// replication this is just "existing plus `v`"; the fill step never
    /// runs.
    pub fn planned_holders_with(
        &self,
        d: DatasetId,
        v: ComputeNodeId,
        pending: &[(DatasetId, ComputeNodeId)],
    ) -> Vec<ComputeNodeId> {
        let mut holders: Vec<ComputeNodeId> = self.sol.replicas_of(d).to_vec();
        for &(pd, pv) in pending {
            if pd == d && !holders.contains(&pv) {
                holders.push(pv);
            }
        }
        if !holders.contains(&v) {
            holders.push(v);
        }
        let quorum = self.inst.scheme(d).min_read();
        if holders.len() < quorum {
            let cloud = self.inst.cloud();
            let mut fills: Vec<ComputeNodeId> = cloud
                .compute_ids()
                .filter(|c| !holders.contains(c))
                .collect();
            fills.sort_by(|&a, &b| {
                cloud
                    .min_delay(a, v)
                    .total_cmp(&cloud.min_delay(b, v))
                    .then(a.0.cmp(&b.0))
            });
            fills.truncate(quorum - holders.len());
            holders.extend(fills);
        }
        holders
    }

    /// Whether `v` already holds a replica of `d`.
    pub fn has_replica(&self, d: DatasetId, v: ComputeNodeId) -> bool {
        self.sol.has_replica(d, v)
    }

    /// Current replica count of `d`.
    pub fn replica_count(&self, d: DatasetId) -> usize {
        self.sol.replica_count(d)
    }

    /// Places a replica without serving anything (used by algorithms whose
    /// published procedure burns replica budget on failed probes, e.g.
    /// `Greedy`). Returns `false` when the replica already existed.
    ///
    /// # Panics
    /// Panics if the budget is already exhausted — callers check first.
    pub fn place_replica(&mut self, d: DatasetId, v: ComputeNodeId) -> bool {
        if self.sol.has_replica(d, v) {
            return false;
        }
        assert!(
            self.replica_budget_left(d),
            "replica budget exhausted for {d}"
        );
        self.sol.place_replica(d, v)
    }

    /// The compute demand (GHz) that demand `demand_idx` of `q` puts on its
    /// serving node: `|S_n| · r_m`.
    pub fn compute_demand(&self, q: QueryId, demand_idx: usize) -> f64 {
        let query = self.inst.query(q);
        self.inst.size(query.demands[demand_idx].dataset) * query.compute_rate
    }

    /// Checks whether serving demand `demand_idx` of `q` at `v` satisfies
    /// capacity, deadline, and replica availability/budget, given `extra`
    /// compute already tentatively planned onto `v` by earlier demands of
    /// the same query. Returns the first violated constraint and tallies
    /// the outcome.
    pub fn demand_check(
        &self,
        q: QueryId,
        demand_idx: usize,
        v: ComputeNodeId,
        extra_load: f64,
    ) -> Result<(), RejectReason> {
        let res = (|| {
            let d = self.inst.query(q).demands[demand_idx].dataset;
            // Erasure-coded datasets admit shard *sets*: serving at `v`
            // implies the whole bootstrap holder set must fit the budget,
            // and the deadline must absorb the gather + decode overhead.
            let planned = if self.inst.scheme(d).needs_decode() {
                Some(self.planned_holders_with(d, v, &[]))
            } else {
                None
            };
            match &planned {
                Some(holders) => {
                    if holders.len() > self.inst.slots(d) {
                        return Err(RejectReason::ReplicaBudget);
                    }
                }
                None => {
                    if !self.has_replica(d, v) && !self.replica_budget_left(d) {
                        return Err(RejectReason::ReplicaBudget);
                    }
                }
            }
            if self.used[v.index()] + extra_load + self.compute_demand(q, demand_idx)
                > self.inst.cloud().available(v) + FEASIBILITY_EPS
            {
                return Err(RejectReason::Capacity);
            }
            let mut delay = assignment_delay(self.inst, q, demand_idx, v);
            if let Some(holders) = &planned {
                delay += read_overhead(self.inst, d, v, holders);
            }
            if delay > self.inst.query(q).deadline + FEASIBILITY_EPS {
                return Err(RejectReason::Deadline);
            }
            Ok(())
        })();
        self.note_check(res.err());
        res
    }

    /// Whether serving demand `demand_idx` of `q` at `v` is feasible given
    /// `extra_load` tentative compute already planned onto `v` (see
    /// [`Self::demand_check`] for the reason-carrying form).
    pub fn demand_feasible_with(
        &self,
        q: QueryId,
        demand_idx: usize,
        v: ComputeNodeId,
        extra_load: f64,
    ) -> bool {
        self.demand_check(q, demand_idx, v, extra_load).is_ok()
    }

    /// [`Self::demand_feasible_with`] with no tentative extra load.
    pub fn demand_feasible(&self, q: QueryId, demand_idx: usize, v: ComputeNodeId) -> bool {
        self.demand_feasible_with(q, demand_idx, v, 0.0)
    }

    /// Validates a whole-query plan (one [`PlannedDemand`] per demand)
    /// against the current state, accounting for intra-query load stacking
    /// and replica-budget sharing between demands of the same dataset.
    pub fn plan_feasible(&self, q: QueryId, plan: &[PlannedDemand]) -> bool {
        let query = self.inst.query(q);
        if plan.len() != query.demands.len() {
            return false;
        }
        let mut extra = vec![0.0; self.used.len()];
        let mut new_replicas: Vec<(DatasetId, ComputeNodeId)> = Vec::new();
        for (idx, p) in plan.iter().enumerate() {
            let d = query.demands[idx].dataset;
            // Every holder the demand would materialize (just `p.node` for
            // replication; the whole shard bootstrap set for EC) must fit
            // the per-dataset slot budget, shared across the plan.
            let planned = self.planned_holders_with(d, p.node, &new_replicas);
            for &h in &planned {
                let have = self.has_replica(d, h)
                    || new_replicas.iter().any(|&(nd, nv)| nd == d && nv == h);
                if !have {
                    let pending = new_replicas.iter().filter(|&&(nd, _)| nd == d).count();
                    if self.replica_count(d) + pending >= self.inst.slots(d) {
                        return false;
                    }
                    new_replicas.push((d, h));
                }
            }
            if self.used[p.node.index()] + extra[p.node.index()] + self.compute_demand(q, idx)
                > self.inst.cloud().available(p.node) + FEASIBILITY_EPS
            {
                return false;
            }
            let mut delay = assignment_delay(self.inst, q, idx, p.node);
            if self.inst.scheme(d).needs_decode() {
                delay += read_overhead(self.inst, d, p.node, &planned);
            }
            if delay > query.deadline + FEASIBILITY_EPS {
                return false;
            }
            extra[p.node.index()] += self.compute_demand(q, idx);
        }
        true
    }

    /// Commits a feasible plan: places any new replicas, consumes compute,
    /// and admits the query.
    ///
    /// # Panics
    /// Panics when the plan is not feasible — callers must check with
    /// [`Self::plan_feasible`] (the double bookkeeping catches algorithm
    /// bugs in debug runs and tests).
    pub fn commit(&mut self, q: QueryId, plan: &[PlannedDemand]) {
        assert!(
            self.plan_feasible(q, plan),
            "committing infeasible plan for {q}"
        );
        let query = self.inst.query(q);
        let nodes: Vec<ComputeNodeId> = plan.iter().map(|p| p.node).collect();
        for (idx, p) in plan.iter().enumerate() {
            let d = query.demands[idx].dataset;
            // Materialize the full holder set the feasibility pass planned:
            // `p.node` alone for replication, the shard bootstrap set for
            // EC. `place_replica` dedupes holders that already exist, so
            // demands applied in plan order reproduce `plan_feasible`'s
            // simulation exactly.
            for h in self.planned_holders_with(d, p.node, &[]) {
                self.sol.place_replica(d, h);
            }
            self.used[p.node.index()] += self.compute_demand(q, idx);
        }
        self.sol.assign_query(q, nodes);
        let mut t = self.tally.get();
        t.committed_queries += 1;
        t.committed_demands += plan.len() as u64;
        self.tally.set(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgerep_model::prelude::*;

    /// dc (cap 100, proc 0.001) --0.05-- cl (cap 8, proc 0.01).
    /// S0 = 4 GB @ dc, S1 = 2 GB @ dc. q0 @ cl wants S0 (α .5, ddl 1).
    /// q1 @ cl wants S0 + S1 (ddl 1). K = 2.
    fn setup() -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(8.0, 0.01);
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
    fn fresh_state_has_full_capacity() {
        let inst = setup();
        let st = AdmissionState::new(&inst);
        assert_eq!(st.remaining(DC), 100.0);
        assert_eq!(st.remaining(CL), 8.0);
        assert_eq!(st.load_fraction(DC), 0.0);
        assert_eq!(st.replica_count(DatasetId(0)), 0);
    }

    #[test]
    fn demand_feasibility_checks_all_three_constraints() {
        let inst = setup();
        let st = AdmissionState::new(&inst);
        // Both nodes feasible for q0's demand while budget remains.
        assert!(st.demand_feasible(QueryId(0), 0, DC));
        assert!(st.demand_feasible(QueryId(0), 0, CL));
        // Capacity: q0 demand on CL costs 4 GHz of 8 — but with 5 extra
        // tentative load it no longer fits.
        assert!(!st.demand_feasible_with(QueryId(0), 0, CL, 5.0));
    }

    #[test]
    fn replica_budget_blocks_new_locations() {
        let inst = setup();
        let mut st = AdmissionState::new(&inst);
        st.place_replica(DatasetId(0), DC);
        st.place_replica(DatasetId(0), CL);
        assert!(!st.replica_budget_left(DatasetId(0)));
        // Existing replica locations stay feasible…
        assert!(st.demand_feasible(QueryId(0), 0, DC));
        // …and place_replica on a fresh location would panic (checked via
        // the budget query; the panic path is exercised below).
    }

    #[test]
    #[should_panic(expected = "replica budget exhausted")]
    fn place_replica_panics_over_budget() {
        let inst = setup();
        let mut st = AdmissionState::new(&inst);
        st.place_replica(DatasetId(0), DC);
        st.place_replica(DatasetId(0), CL);
        // Third distinct location: over K = 2.
        let mut b = EdgeCloudBuilder::new();
        b.add_cloudlet(1.0, 0.1);
        let _ = b; // silence unused in this panic test
        st.place_replica(DatasetId(0), ComputeNodeId(0)); // duplicate: ok, returns false
                                                          // Force: dedupe returned false, so exhaust with a different id.
        st.place_replica(DatasetId(0), ComputeNodeId(1)); // duplicate too
                                                          // Both nodes already hold replicas; fabricate a third node id to
                                                          // hit the budget assert.
        st.place_replica(DatasetId(0), ComputeNodeId(2));
    }

    #[test]
    fn commit_consumes_capacity_and_admits() {
        let inst = setup();
        let mut st = AdmissionState::new(&inst);
        let plan = vec![PlannedDemand {
            node: DC,
            new_replica: true,
        }];
        assert!(st.plan_feasible(QueryId(0), &plan));
        st.commit(QueryId(0), &plan);
        assert!(st.solution().is_admitted(QueryId(0)));
        assert_eq!(st.used(DC), 4.0);
        assert!(st.has_replica(DatasetId(0), DC));
        let sol = st.into_solution();
        assert!(sol.validate(&inst).is_ok());
        assert_eq!(sol.admitted_volume(&inst), 4.0);
    }

    #[test]
    fn plan_feasibility_accounts_intra_query_stacking() {
        let inst = setup();
        let st = AdmissionState::new(&inst);
        // q1 on CL: S0 costs 4 GHz, S1 costs 2 GHz, total 6 of 8: fits.
        let plan = vec![
            PlannedDemand {
                node: CL,
                new_replica: true,
            },
            PlannedDemand {
                node: CL,
                new_replica: true,
            },
        ];
        assert!(st.plan_feasible(QueryId(1), &plan));
        // A cloudlet with only 5 GHz cannot stack both.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(5.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 2);
        let d0 = ib.add_dataset(4.0, dc);
        let d1 = ib.add_dataset(2.0, dc);
        ib.add_query(
            cl,
            vec![Demand::new(d0, 1.0), Demand::new(d1, 0.5)],
            1.0,
            1.0,
        );
        let tight = ib.build().unwrap();
        let st = AdmissionState::new(&tight);
        let plan = vec![
            PlannedDemand {
                node: cl,
                new_replica: true,
            },
            PlannedDemand {
                node: cl,
                new_replica: true,
            },
        ];
        assert!(!st.plan_feasible(QueryId(0), &plan));
        // Splitting across nodes works.
        let plan = vec![
            PlannedDemand {
                node: cl,
                new_replica: true,
            },
            PlannedDemand {
                node: dc,
                new_replica: true,
            },
        ];
        assert!(st.plan_feasible(QueryId(0), &plan));
    }

    #[test]
    fn plan_feasibility_shares_replica_budget_within_query() {
        // K = 1 and a query demanding the same dataset cannot spawn two
        // replica locations through one plan.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(8.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d0 = ib.add_dataset(1.0, dc);
        let d1 = ib.add_dataset(1.0, dc);
        ib.add_query(
            cl,
            vec![Demand::new(d0, 1.0), Demand::new(d1, 1.0)],
            1.0,
            10.0,
        );
        let inst = ib.build().unwrap();
        let st = AdmissionState::new(&inst);
        // Different datasets on different nodes: one new replica each, ok.
        let plan = vec![
            PlannedDemand {
                node: dc,
                new_replica: true,
            },
            PlannedDemand {
                node: cl,
                new_replica: true,
            },
        ];
        assert!(st.plan_feasible(QueryId(0), &plan));
    }

    #[test]
    #[should_panic(expected = "infeasible plan")]
    fn commit_rejects_infeasible_plan() {
        let inst = setup();
        let mut st = AdmissionState::new(&inst);
        // Wrong arity.
        st.commit(
            QueryId(1),
            &[PlannedDemand {
                node: DC,
                new_replica: true,
            }],
        );
    }

    #[test]
    fn wrong_arity_plan_is_infeasible() {
        let inst = setup();
        let st = AdmissionState::new(&inst);
        assert!(!st.plan_feasible(QueryId(1), &[]));
    }

    #[test]
    fn tally_tracks_checks_rejections_and_commits() {
        let inst = setup();
        let mut st = AdmissionState::new(&inst);
        assert!(st.demand_feasible(QueryId(0), 0, DC));
        // Capacity rejection: 5 GHz tentative + 4 GHz demand > 8 GHz at CL.
        assert_eq!(
            st.demand_check(QueryId(0), 0, CL, 5.0),
            Err(RejectReason::Capacity)
        );
        st.note_check(Some(RejectReason::Deadline));
        st.commit(
            QueryId(0),
            &[PlannedDemand {
                node: DC,
                new_replica: true,
            }],
        );
        let t = st.tally();
        assert_eq!(t.checks, 3);
        assert_eq!(t.reject_capacity, 1);
        assert_eq!(t.reject_deadline, 1);
        assert_eq!(t.reject_replica_budget, 0);
        assert_eq!(t.committed_queries, 1);
        assert_eq!(t.committed_demands, 1);
    }

    #[test]
    fn reject_reason_labels_are_stable() {
        assert_eq!(RejectReason::ReplicaBudget.label(), "replica_budget");
        assert_eq!(RejectReason::Capacity.label(), "capacity");
        assert_eq!(RejectReason::Deadline.label(), "deadline");
    }

    /// dc --0.05-- c0 --0.1-- c1 --0.1-- c2, one 4 GB dataset @ dc striped
    /// ec(2,1): shard 2 GB, quorum 2, slots 3. q0 @ c0 wants it (α .5).
    fn ec_setup() -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(8.0, 0.01);
        let c1 = b.add_cloudlet(8.0, 0.01);
        let c2 = b.add_cloudlet(8.0, 0.01);
        b.link(dc, c0, 0.05);
        b.link(c0, c1, 0.1);
        b.link(c1, c2, 0.1);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d0 = ib.add_dataset(4.0, dc);
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        ib.add_query(c0, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        ib.build().unwrap()
    }

    #[test]
    fn ec_commit_places_the_shard_bootstrap_set() {
        let inst = ec_setup();
        let c0 = ComputeNodeId(1);
        let mut st = AdmissionState::new(&inst);
        let plan = vec![PlannedDemand {
            node: c0,
            new_replica: true,
        }];
        assert!(st.plan_feasible(QueryId(0), &plan));
        st.commit(QueryId(0), &plan);
        // First activation bootstraps the read quorum: the serving node
        // plus its nearest fill (the dc at 0.05, closer than c1 at 0.1).
        assert_eq!(st.replica_count(DatasetId(0)), 2);
        assert!(st.has_replica(DatasetId(0), c0));
        assert!(st.has_replica(DatasetId(0), ComputeNodeId(0)));
        let sol = st.into_solution();
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn ec_budget_rejects_when_shard_set_exceeds_slots() {
        let inst = ec_setup();
        let d0 = DatasetId(0);
        let mut st = AdmissionState::new(&inst);
        // Fill all k + m = 3 slots by hand.
        st.place_replica(d0, ComputeNodeId(1));
        st.place_replica(d0, ComputeNodeId(0));
        st.place_replica(d0, ComputeNodeId(2));
        assert!(!st.replica_budget_left(d0));
        // Reading at an existing holder is still fine…
        assert!(st.demand_feasible(QueryId(0), 0, ComputeNodeId(1)));
        // …but a fourth shard location would exceed k + m.
        assert_eq!(
            st.demand_check(QueryId(0), 0, ComputeNodeId(3), 0.0),
            Err(RejectReason::ReplicaBudget)
        );
    }

    #[test]
    fn ec_deadline_check_charges_gather_and_decode() {
        // Same topology, but a deadline tighter than the EC overhead:
        // serving at c0 costs proc 0.04 + gather 0.05·2 + decode 0.02·4
        // = 0.22 s, so a 0.2 s deadline admits plain replication (0.04 s)
        // but rejects the striped read.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(8.0, 0.01);
        b.link(dc, c0, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d0 = ib.add_dataset(4.0, dc);
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        // Selectivity is irrelevant here: the query is served at its own
        // home, so the result-shipping term is 0 either way.
        ib.add_query(c0, vec![Demand::new(d0, 0.5)], 1.0, 0.2);
        let inst = ib.build().unwrap();
        let st = AdmissionState::new(&inst);
        assert_eq!(
            st.demand_check(QueryId(0), 0, c0, 0.0),
            Err(RejectReason::Deadline)
        );
    }
}
