//! `Appro-S` / `Appro-G`: the paper's primal-dual approximation algorithms.
//!
//! # From pseudo-code to an executable algorithm
//!
//! Algorithm 1 of the paper raises the dual variables "uniformly by 1 in a
//! unit time" until dual constraint (9) becomes tight for some
//! (query, node) pair, then commits that pair (admitting the query, placing
//! the replica, consuming capacity) and repeats. Discretizing the uniform
//! raise gives the standard primal-dual dynamic update for online packing
//! (Buchbinder–Naor): at every step the pair whose constraint tightens
//! *first* is exactly the feasible pair with the **lowest current dual
//! price**, where the price aggregates
//!
//! * a **capacity price** `θ_l` that grows multiplicatively with node
//!   load — `θ(x) = (μ^x − 1)/(μ − 1)` with `μ = 1 + |V|`, near 0 for an
//!   empty node and 1 for a full one;
//! * a **delay price** `η`: the fraction of the query's deadline its
//!   demand would consume at that node (`D(m,n,l)/d_qm ∈ [0,1]` for
//!   feasible pairs). QoS-awareness is enforced by the *hard* deadline
//!   filter (constraint (4)); the weighted price is an optional steering
//!   term and defaults to **off** — the ablation bench shows that any
//!   positive weight drags demands onto home-local cloudlets even while
//!   they are the scarce resource, costing admitted volume at every `K`;
//! * a **replica price** `μ_n`: `replicas(n)/K`, so reusing an existing
//!   replica is free and fresh locations get dearer as the budget drains.
//!
//! Queries are admitted **globally cheapest-per-GB first** — the discrete
//! image of "all constraints rise together, the first to tighten wins" —
//! which is precisely the "overall perspective" the paper credits for
//! `Appro`'s margin over the greedy and partitioning baselines (§4.2).
//!
//! A full rescan re-plans every pending query after every commit, which
//! is O(|Q|²·candidates). [`Appro::run`] instead caches each pending
//! query's plan and, after a commit, re-plans only the *dirty* ones: a
//! query is dirty when it demands a dataset that just gained a holder,
//! or when its plan (or a failed plan's prefix) chose a node the commit
//! loaded. Every other plan is provably unchanged bit for bit (the
//! argument is on `PendingPlans::invalidate`), so the select stays
//! byte-identical to the full rescan, which [`Appro::run_naive`] keeps
//! as the reference.
//!
//! Admission remains all-or-nothing per query and every hard constraint
//! (capacity, deadline, `K`) is enforced by [`AdmissionState`]; the dual
//! prices only *rank* the feasible choices. [`ApproReport::dual_bound`]
//! assembles the feasible dual solution of program (8)–(14) implied by the
//! final prices, giving a per-run upper bound used by the tests and the
//! approximation-ratio experiment.
//!
//! `Appro-G` (Algorithm 2) reuses the single-dataset engine per demand,
//! exactly as the paper invokes Algorithm 1 per (query, dataset) pair,
//! with intra-query load stacking and replica-budget sharing handled by
//! [`AdmissionState::plan_feasible`].

use edgerep_model::delay::{assignment_delay, read_overhead};
use edgerep_model::{ComputeNodeId, DatasetId, Instance, QueryId, Solution, FEASIBILITY_EPS};
use edgerep_obs as obs;

use crate::admission::{AdmissionState, PlannedDemand, RejectReason};
use crate::PlacementAlgorithm;

/// Order in which admissible queries are committed (ablation knob; the
/// paper's algorithm corresponds to [`QueryOrder::GlobalCheapestFirst`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOrder {
    /// Repeatedly admit the pending query with the lowest dual price per
    /// demanded GB (the primal-dual dynamic update).
    #[default]
    GlobalCheapestFirst,
    /// One pass in input order (an online flavour).
    Input,
    /// One pass, largest demanded volume first.
    VolumeDesc,
    /// One pass, tightest deadline first.
    DeadlineAsc,
}

/// Tunables for the primal-dual engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproConfig {
    /// Multiplicative base of the capacity price; `None` uses the
    /// theory-guided `1 + |V|`.
    pub price_mu: Option<f64>,
    /// Commit order (see [`QueryOrder`]).
    pub order: QueryOrder,
    /// Weight of the delay price relative to the capacity price.
    pub delay_weight: f64,
    /// Weight of the replica price.
    pub replica_weight: f64,
}

impl Default for ApproConfig {
    fn default() -> Self {
        Self {
            price_mu: None,
            order: QueryOrder::GlobalCheapestFirst,
            delay_weight: 0.0,
            replica_weight: 1.0,
        }
    }
}

/// Outcome of a primal-dual run: the solution plus the dual certificate.
#[derive(Debug, Clone)]
pub struct ApproReport {
    /// The feasible primal solution.
    pub solution: Solution,
    /// Value of the feasible dual solution (8) assembled from the final
    /// prices — an upper bound on the optimum of the LP relaxation and
    /// hence on every feasible placement's volume.
    pub dual_bound: f64,
    /// Final capacity price per node.
    pub theta: Vec<f64>,
}

/// Reusable scratch buffers for [`Appro::plan_query`]: one allocation
/// per run instead of one per (query, dataset) invocation.
#[derive(Debug, Default)]
struct PlanScratch {
    /// Tentative extra load per node from demands already planned for
    /// the current query; only `touched` entries are non-zero.
    extra: Vec<f64>,
    /// Node indices with non-zero `extra`, zeroed lazily on entry.
    touched: Vec<usize>,
    /// Replicas the current plan would create.
    pending: Vec<(DatasetId, ComputeNodeId)>,
    /// Demand indices in planning order (largest compute demand first).
    order: Vec<usize>,
}

/// The pending queries of the `GlobalCheapestFirst` select, each with its
/// cached plan, kept exact across commits by re-planning only the slots a
/// commit can change (the "dirty set"; see the module doc).
///
/// Every array is indexed by slot and `swap_remove`d in lockstep with
/// `queries`, so the slot order — and with it the "first strictly
/// smaller density" winner — is the order the full rescan sees. All
/// slots start dirty, so the set can start from any [`AdmissionState`].
#[derive(Debug)]
struct PendingPlans {
    /// Queries not admitted yet, in full-rescan order.
    queries: Vec<QueryId>,
    /// Cached plan and density (dual price per demanded GB) of each
    /// slot; `None` when the query has no feasible plan.
    plans: Vec<Option<(Vec<PlannedDemand>, f64)>>,
    /// Node indices the cached plan chose: the whole plan's nodes, or for
    /// a failed plan the prefix it chose before it failed. Both are
    /// exactly [`PlanScratch::touched`] after [`Appro::plan_query`].
    nodes: Vec<Vec<usize>>,
    /// Slots whose cached plan may be stale.
    dirty: Vec<bool>,
}

impl PendingPlans {
    fn new(queries: impl Iterator<Item = QueryId>) -> Self {
        let queries: Vec<QueryId> = queries.collect();
        let n = queries.len();
        Self {
            queries,
            plans: vec![None; n],
            nodes: vec![Vec::new(); n],
            dirty: vec![true; n],
        }
    }

    /// Re-plans every dirty slot against the current state; returns how
    /// many plans it built.
    fn replan(
        &mut self,
        engine: &Appro,
        st: &AdmissionState<'_>,
        mu: f64,
        theta0: &[f64],
        scratch: &mut PlanScratch,
        naive: bool,
    ) -> u64 {
        let inst = st.instance();
        let mut plans = 0;
        for (i, &q) in self.queries.iter().enumerate() {
            if !self.dirty[i] {
                continue;
            }
            plans += 1;
            self.plans[i] = engine
                .plan_query(st, mu, q, theta0, scratch, naive)
                .map(|(plan, price)| (plan, price / inst.demanded_volume(q).max(1e-12)));
            self.nodes[i].clone_from(&scratch.touched);
            self.dirty[i] = false;
        }
        plans
    }

    /// The slot with the lowest density, first in slot order on ties:
    /// cheapest dual price per admitted GB first, the discrete
    /// uniform-raise winner.
    fn cheapest(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, plan) in self.plans.iter().enumerate() {
            if let Some((_, density)) = plan {
                if best.is_none_or(|(_, bd)| *density < bd) {
                    best = Some((i, *density));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Removes slot `i`, returning its query and cached plan.
    fn take(&mut self, i: usize) -> (QueryId, Vec<PlannedDemand>) {
        self.nodes.swap_remove(i);
        self.dirty.swap_remove(i);
        let q = self.queries.swap_remove(i);
        let (plan, _) = self.plans.swap_remove(i).expect("selected slot has a plan");
        (q, plan)
    }

    /// Marks dirty every slot that committing `plan` for `q` can change.
    /// `counts_before` holds the replica count of each of `q`'s demanded
    /// datasets before the commit.
    ///
    /// A slot is dirty iff (a) its query demands a dataset whose holder
    /// set grew, or (b) one of its recorded nodes is a node of `plan`.
    /// This is exact: [`Appro::plan_query`] is a sequential argmin with
    /// strict `<`, whose inputs are the `used`/`theta0` of candidate nodes
    /// and the holder sets of the query's own datasets. Without (a), a
    /// commit only raises `used` and θ on `plan`'s nodes, so a node the
    /// slot did not choose can only get dearer or infeasible, while every
    /// node it chose (not in `plan`, by (b)) keeps its price. Each demand
    /// therefore picks the same node at the same price, the chosen prefix
    /// leaves identical `extra`/`pending` for the next demand, and the
    /// plan comes out bit-identical. A failed plan stays failed: its
    /// prefix replays, and at the demand that failed, capacity only
    /// tightened while the budget and deadline checks saw no change.
    ///
    /// (b) must cover a failed plan's prefix, not only successful plans:
    /// the greedy plan is not monotone, so a θ rise at a node the prefix
    /// chose can move that demand elsewhere and free the node for the
    /// demand that failed.
    fn invalidate(
        &mut self,
        st: &AdmissionState<'_>,
        q: QueryId,
        counts_before: &[usize],
        plan: &[PlannedDemand],
    ) {
        let inst = st.instance();
        let grew: Vec<DatasetId> = inst
            .query(q)
            .demands
            .iter()
            .zip(counts_before)
            .filter(|&(dem, &before)| st.replica_count(dem.dataset) != before)
            .map(|(dem, _)| dem.dataset)
            .collect();
        for (i, &slot_q) in self.queries.iter().enumerate() {
            self.dirty[i] = self.nodes[i]
                .iter()
                .any(|&v| plan.iter().any(|p| p.node.index() == v))
                || inst
                    .query(slot_q)
                    .demands
                    .iter()
                    .any(|dem| grew.contains(&dem.dataset));
        }
    }
}

/// The shared primal-dual engine behind `Appro-S` and `Appro-G`.
#[derive(Debug, Clone, Default)]
pub struct Appro {
    /// Engine configuration.
    pub config: ApproConfig,
}

impl Appro {
    /// Creates an engine with explicit configuration.
    pub fn with_config(config: ApproConfig) -> Self {
        Self { config }
    }

    fn mu(&self, inst: &Instance) -> f64 {
        self.config
            .price_mu
            .unwrap_or(1.0 + inst.cloud().compute_count() as f64)
    }

    /// Capacity price of a node at load fraction `x ∈ [0, 1]`.
    fn theta(&self, mu: f64, x: f64) -> f64 {
        debug_assert!(mu > 1.0);
        (mu.powf(x.clamp(0.0, 1.0)) - 1.0) / (mu - 1.0)
    }

    /// `θ_l` at node `v`'s committed load — the batched capacity price
    /// the candidate scan reuses for every node the current plan has not
    /// stacked extra load on. Bit-identical to pricing `used + 0.0`
    /// inline (`used ≥ 0`, so adding `+0.0` is the identity).
    fn theta_committed(&self, st: &AdmissionState<'_>, mu: f64, v: ComputeNodeId) -> f64 {
        let avail = st.instance().cloud().available(v);
        let x = if avail > 0.0 { st.used(v) / avail } else { 1.0 };
        self.theta(mu, x)
    }

    /// Price of serving demand `idx` of `q` at `v`, given the cached
    /// base assignment delay of the pair, tentative extra load per node,
    /// replicas pending within the same plan, and the batched capacity
    /// prices `theta0`. Returns `None` when the pair is infeasible.
    #[allow(clippy::too_many_arguments)]
    fn demand_price(
        &self,
        st: &AdmissionState<'_>,
        mu: f64,
        q: QueryId,
        idx: usize,
        v: ComputeNodeId,
        base_delay: f64,
        extra: &[f64],
        pending_replicas: &[(DatasetId, ComputeNodeId)],
        theta0: &[f64],
    ) -> Option<f64> {
        let inst = st.instance();
        let query = inst.query(q);
        let d = query.demands[idx].dataset;
        let pending_here = pending_replicas.iter().any(|&(pd, pv)| pd == d && pv == v);
        let have = st.has_replica(d, v) || pending_here;
        let pending_count = pending_replicas.iter().filter(|&&(pd, _)| pd == d).count();
        // For erasure-coded datasets the candidate scan prices the whole
        // shard set a read at `v` would materialize; for replication the
        // planned set degenerates to `{v}` and the checks below reproduce
        // the paper's single-copy rule bit for bit.
        let scheme = inst.scheme(d);
        let planned = if scheme.needs_decode() {
            Some(st.planned_holders_with(d, v, pending_replicas))
        } else {
            None
        };
        let new_holders = match &planned {
            Some(holders) => holders
                .iter()
                .filter(|&&h| {
                    !st.has_replica(d, h)
                        && !pending_replicas.iter().any(|&(pd, pv)| pd == d && pv == h)
                })
                .count(),
            None => usize::from(!have),
        };
        if st.replica_count(d) + pending_count + new_holders > inst.slots(d) {
            st.note_check(Some(RejectReason::ReplicaBudget));
            return None;
        }
        let need = st.compute_demand(q, idx);
        let avail = inst.cloud().available(v);
        if st.used(v) + extra[v.index()] + need > avail + FEASIBILITY_EPS {
            st.note_check(Some(RejectReason::Capacity));
            return None;
        }
        let mut delay = base_delay;
        if let Some(holders) = &planned {
            delay += read_overhead(inst, d, v, holders);
        }
        if delay > query.deadline + FEASIBILITY_EPS {
            st.note_check(Some(RejectReason::Deadline));
            return None;
        }
        st.note_check(None);
        // Current load fraction prices the congestion (the classic
        // Buchbinder–Naor rule: price × demand, with the price frozen at
        // the pre-assignment load — a post-assignment price would tax
        // large demands quadratically and fragment capacity across many
        // small queries, hurting exactly the big-volume admissions the
        // objective rewards). The batched `theta0` already holds θ_l at
        // the committed load; only nodes stacked by the current plan
        // (extra ≠ 0, rare) need a fresh `powf`.
        let capacity_price = if extra[v.index()] == 0.0 {
            query.compute_rate * theta0[v.index()]
        } else {
            let x = if avail > 0.0 {
                (st.used(v) + extra[v.index()]) / avail
            } else {
                1.0
            };
            query.compute_rate * self.theta(mu, x)
        };
        let delay_price = self.config.delay_weight * delay / query.deadline;
        // The replica price sums over every *new* holder the read would
        // create: the i-th fresh location is priced (placed + pending + i)
        // / slots, so a shard set pays for each slot it consumes. For
        // replication (at most one new holder) this is exactly the paper's
        // (count + pending)/K.
        let replica_price = {
            let base = st.replica_count(d) + pending_count;
            let slots = inst.slots(d) as f64;
            self.config.replica_weight
                * (0..new_holders)
                    .map(|i| (base + i) as f64 / slots)
                    .sum::<f64>()
        };
        Some(capacity_price + delay_price + replica_price)
    }

    /// Builds the cheapest feasible plan for `q` under the current state:
    /// demands are planned hardest-first (largest compute demand), each at
    /// its min-price node, with intra-plan stacking. Returns the plan and
    /// its total price.
    ///
    /// `naive` selects the reference per-node probe (used by the
    /// equivalence suite); the default path scans the instance's cached
    /// deadline-feasible candidate list instead. Both visit surviving
    /// candidates in ascending node-id order with strict `<` improvement,
    /// so tie-breaks — and therefore output — are bit-for-bit identical.
    fn plan_query(
        &self,
        st: &AdmissionState<'_>,
        mu: f64,
        q: QueryId,
        theta0: &[f64],
        scratch: &mut PlanScratch,
        naive: bool,
    ) -> Option<(Vec<PlannedDemand>, f64)> {
        let inst = st.instance();
        let query = inst.query(q);
        let n_demands = query.demands.len();
        let PlanScratch {
            extra,
            touched,
            pending,
            order,
        } = scratch;
        extra.resize(inst.cloud().compute_count(), 0.0);
        for &vi in touched.iter() {
            extra[vi] = 0.0;
        }
        touched.clear();
        pending.clear();
        order.clear();
        order.extend(0..n_demands);
        order.sort_by(|&a, &b| st.compute_demand(q, b).total_cmp(&st.compute_demand(q, a)));
        let mut plan = vec![
            PlannedDemand {
                node: ComputeNodeId(0),
                new_replica: false,
            };
            n_demands
        ];
        let mut total_price = 0.0;
        for &idx in order.iter() {
            let mut best: Option<(ComputeNodeId, f64)> = None;
            if naive {
                for v in inst.cloud().compute_ids() {
                    let base = assignment_delay(inst, q, idx, v);
                    if let Some(p) =
                        self.demand_price(st, mu, q, idx, v, base, extra, pending, theta0)
                    {
                        if best.is_none_or(|(_, bp)| p < bp) {
                            best = Some((v, p));
                        }
                    }
                }
            } else {
                for (v, base) in inst.solver_cache().candidates(q, idx) {
                    if let Some(p) =
                        self.demand_price(st, mu, q, idx, v, base, extra, pending, theta0)
                    {
                        if best.is_none_or(|(_, bp)| p < bp) {
                            best = Some((v, p));
                        }
                    }
                }
            }
            let (v, p) = best?;
            let d = query.demands[idx].dataset;
            let new_replica =
                !st.has_replica(d, v) && !pending.iter().any(|&(pd, pv)| pd == d && pv == v);
            // Record every holder the chosen node commits the plan to:
            // just `v` for replication, `v` plus the shard bootstrap set
            // for erasure-coded datasets, so later demands price the
            // remaining budget correctly.
            for h in st.planned_holders_with(d, v, pending) {
                if !st.has_replica(d, h) && !pending.iter().any(|&(pd, pv)| pd == d && pv == h) {
                    pending.push((d, h));
                }
            }
            if extra[v.index()] == 0.0 {
                touched.push(v.index());
            }
            extra[v.index()] += st.compute_demand(q, idx);
            plan[idx] = PlannedDemand {
                node: v,
                new_replica,
            };
            total_price += p;
        }
        debug_assert!(st.plan_feasible(q, &plan));
        Some((plan, total_price))
    }

    /// Plans one query against an external [`AdmissionState`]: the
    /// per-arrival step reused by the online controller
    /// ([`crate::online::OnlineAppro`]). Returns the cheapest feasible
    /// plan and its total dual price, or `None` when the query cannot be
    /// served at all.
    pub fn plan_query_public(
        &self,
        st: &AdmissionState<'_>,
        q: QueryId,
    ) -> Option<(Vec<PlannedDemand>, f64)> {
        let inst = st.instance();
        let mu = self.mu(inst);
        let theta0: Vec<f64> = inst
            .cloud()
            .compute_ids()
            .map(|v| self.theta_committed(st, mu, v))
            .collect();
        let mut scratch = PlanScratch::default();
        self.plan_query(st, mu, q, &theta0, &mut scratch, false)
    }

    /// Runs the engine, returning the solution plus the dual certificate.
    pub fn run(&self, inst: &Instance) -> ApproReport {
        self.run_inner(inst, false)
    }

    /// Reference path kept for the equivalence suite: prices every
    /// compute node through [`assignment_delay`] per probe instead of the
    /// pre-filtered candidate matrix. Tests pin [`Appro::run`]
    /// byte-identical to this; it is not meant for production use.
    #[doc(hidden)]
    pub fn run_naive(&self, inst: &Instance) -> ApproReport {
        self.run_inner(inst, true)
    }

    fn run_inner(&self, inst: &Instance, naive: bool) -> ApproReport {
        let _run_span = obs::span("appro", "appro.run");
        let mu = self.mu(inst);
        let mut st = AdmissionState::new(inst);
        // One scratch allocation for the whole run, reused across every
        // per-(query, dataset) invocation the engine makes.
        let mut scratch = PlanScratch::default();
        // Batched capacity prices: θ_l at each node's committed load,
        // recomputed only for the nodes a commit touches instead of per
        // candidate probe (`µ^x` is the scan's priciest flop).
        let mut theta0: Vec<f64> = inst
            .cloud()
            .compute_ids()
            .map(|v| self.theta_committed(&st, mu, v))
            .collect();
        // Tallied locally in plain integers and flushed to the registry
        // once at the end: the hot loop stays free of atomics.
        let mut iterations: u64 = 0;
        let mut plans: u64 = 0;
        match self.config.order {
            QueryOrder::GlobalCheapestFirst => {
                let mut pending = PendingPlans::new(inst.query_ids());
                loop {
                    iterations += 1;
                    // One `appro.select` span per committed query: the
                    // re-plan of the dirty slots plus the O(|pending|)
                    // density scan is the solver's hot path, so profiles
                    // attribute self-time to it.
                    let select_span = obs::span("appro", "appro.select");
                    plans += pending.replan(self, &st, mu, &theta0, &mut scratch, naive);
                    let best = pending.cheapest();
                    drop(select_span);
                    let Some(i) = best else { break };
                    let (q, plan) = pending.take(i);
                    let counts: Vec<usize> = inst
                        .query(q)
                        .demands
                        .iter()
                        .map(|dem| st.replica_count(dem.dataset))
                        .collect();
                    st.commit(q, &plan);
                    for p in &plan {
                        theta0[p.node.index()] = self.theta_committed(&st, mu, p.node);
                    }
                    // The reference path re-plans every pending query.
                    if naive {
                        pending.dirty.fill(true);
                    } else {
                        pending.invalidate(&st, q, &counts, &plan);
                    }
                }
            }
            one_pass => {
                let mut queue: Vec<QueryId> = inst.query_ids().collect();
                match one_pass {
                    QueryOrder::Input => {}
                    QueryOrder::VolumeDesc => queue.sort_by(|&a, &b| {
                        inst.demanded_volume(b).total_cmp(&inst.demanded_volume(a))
                    }),
                    QueryOrder::DeadlineAsc => queue.sort_by(|&a, &b| {
                        inst.query(a).deadline.total_cmp(&inst.query(b).deadline)
                    }),
                    QueryOrder::GlobalCheapestFirst => unreachable!(),
                }
                for q in queue {
                    iterations += 1;
                    plans += 1;
                    if let Some((plan, _)) =
                        self.plan_query(&st, mu, q, &theta0, &mut scratch, naive)
                    {
                        st.commit(q, &plan);
                        for p in &plan {
                            theta0[p.node.index()] = self.theta_committed(&st, mu, p.node);
                        }
                    }
                }
            }
        }

        // Final capacity prices and the feasible dual certificate.
        let theta: Vec<f64> = inst
            .cloud()
            .compute_ids()
            .map(|v| self.theta(mu, st.load_fraction(v)))
            .collect();
        let dual_bound = self.dual_bound(inst, &theta);
        let admitted_volume = st.solution().admitted_volume(inst);
        let admitted_count = st.solution().admitted_count();
        obs::counter("appro.iterations").add(iterations);
        obs::counter("appro.plans").add(plans);
        obs::gauge("appro.dual_bound").set(dual_bound);
        obs::gauge("appro.dual_gap").set(dual_bound - admitted_volume);
        obs::emit(
            "appro",
            "appro.run",
            "appro.summary",
            &[
                ("iterations", iterations.into()),
                ("plans", plans.into()),
                ("admitted_count", admitted_count.into()),
                ("admitted_volume", admitted_volume.into()),
                ("dual_bound", dual_bound.into()),
                ("dual_gap", (dual_bound - admitted_volume).into()),
            ],
        );
        ApproReport {
            solution: st.into_solution(),
            dual_bound,
            theta,
        }
    }

    /// Assembles the feasible dual solution of program (8)–(14) implied by
    /// final capacity prices `theta` and returns its objective value:
    ///
    /// * `η_ml = 0`;
    /// * `y_ml = max(0, |S_qm|·(1 − r_m·θ_l))` makes every constraint (9)
    ///   hold;
    /// * constraint (10) requires `Σ_m μ_qm ≥ Σ_m y_ml` at every node, so
    ///   `Σ_m μ_qm = max_l Σ_m y_ml`;
    /// * dual objective (8) = `Σ_l A(v_l)·θ_l + K·Σ_m μ_qm`.
    ///
    /// For multi-dataset queries the per-demand volumes replace `|S_qm|`,
    /// mirroring how Algorithm 2 invokes Algorithm 1 per demand. With
    /// per-dataset redundancy schemes the budget multiplier `K` becomes
    /// `max_n slots(n)` — every dataset's holder count stays below it, so
    /// the certificate remains a valid upper bound (and is unchanged when
    /// all datasets use the default `Replication(K)`).
    pub fn dual_bound(&self, inst: &Instance, theta: &[f64]) -> f64 {
        let cloud = inst.cloud();
        let capacity_part: f64 = cloud
            .compute_ids()
            .map(|v| cloud.available(v) * theta[v.index()])
            .sum();
        let mut worst_y_sum: f64 = 0.0;
        for v in cloud.compute_ids() {
            let mut y_sum = 0.0;
            for q in inst.queries() {
                for dem in &q.demands {
                    let size = inst.size(dem.dataset);
                    let y = size * (1.0 - q.compute_rate * theta[v.index()]);
                    if y > 0.0 {
                        y_sum += y;
                    }
                }
            }
            worst_y_sum = worst_y_sum.max(y_sum);
        }
        let k_max = inst
            .dataset_ids()
            .map(|d| inst.slots(d))
            .max()
            .unwrap_or(inst.max_replicas());
        capacity_part + k_max as f64 * worst_y_sum
    }
}

/// Algorithm 1 of the paper: the special case where every query demands a
/// single dataset. The engine is shared with [`ApproG`]; the type exists so
/// experiment panels and reports carry the paper's algorithm names.
#[derive(Debug, Clone, Default)]
pub struct ApproS {
    /// Engine configuration.
    pub config: ApproConfig,
}

impl PlacementAlgorithm for ApproS {
    fn name(&self) -> &'static str {
        "Appro-S"
    }

    fn solve(&self, inst: &Instance) -> Solution {
        debug_assert!(
            inst.queries().iter().all(|q| q.demands.len() == 1),
            "Appro-S expects single-dataset queries (use Appro-G otherwise)"
        );
        Appro::with_config(self.config).run(inst).solution
    }
}

/// Algorithm 2 of the paper: the general case with multi-dataset queries.
#[derive(Debug, Clone, Default)]
pub struct ApproG {
    /// Engine configuration.
    pub config: ApproConfig,
}

impl PlacementAlgorithm for ApproG {
    fn name(&self) -> &'static str {
        "Appro-G"
    }

    fn solve(&self, inst: &Instance) -> Solution {
        Appro::with_config(self.config).run(inst).solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgerep_model::prelude::*;

    fn two_node_instance(k: usize) -> Instance {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(8.0, 0.01);
        b.link(dc, cl, 0.05);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, k);
        let d0 = ib.add_dataset(4.0, dc);
        let d1 = ib.add_dataset(2.0, dc);
        ib.add_query(cl, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        ib.add_query(cl, vec![Demand::new(d1, 0.5)], 1.0, 1.0);
        ib.add_query(
            cl,
            vec![Demand::new(d0, 1.0), Demand::new(d1, 0.5)],
            1.0,
            1.0,
        );
        ib.build().unwrap()
    }

    #[test]
    fn admits_everything_when_resources_abound() {
        let inst = two_node_instance(2);
        let report = Appro::default().run(&inst);
        report.solution.validate(&inst).unwrap();
        assert_eq!(report.solution.admitted_count(), 3);
        assert_eq!(report.solution.admitted_volume(&inst), 4.0 + 2.0 + 6.0);
    }

    #[test]
    fn dual_bound_dominates_primal() {
        let inst = two_node_instance(2);
        let report = Appro::default().run(&inst);
        assert!(
            report.dual_bound >= report.solution.admitted_volume(&inst) - 1e-9,
            "dual {} < primal {}",
            report.dual_bound,
            report.solution.admitted_volume(&inst)
        );
    }

    #[test]
    fn theta_prices_rise_with_load() {
        let inst = two_node_instance(2);
        let report = Appro::default().run(&inst);
        // Something was admitted, so at least one node carries load and a
        // positive price.
        assert!(report.theta.iter().any(|&t| t > 0.0));
        assert!(report
            .theta
            .iter()
            .all(|&t| (0.0..=1.0 + 1e-9).contains(&t)));
    }

    #[test]
    fn respects_tight_deadline_by_rejecting() {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(8.0, 0.01);
        b.link(dc, cl, 10.0); // remote DC behind a terrible link
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d0 = ib.add_dataset(4.0, dc);
        // Deadline so tight only local processing at cl would work, but cl
        // also cannot process in time (0.01·4 = 0.04 > 0.03).
        ib.add_query(cl, vec![Demand::new(d0, 1.0)], 1.0, 0.03);
        let inst = ib.build().unwrap();
        let sol = ApproS::default().solve(&inst);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.admitted_count(), 0);
    }

    #[test]
    fn serves_at_home_cloudlet_when_deadline_requires() {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(8.0, 0.01);
        b.link(dc, cl, 10.0);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d0 = ib.add_dataset(4.0, dc);
        // 0.04 processing at cl fits a 0.05 deadline; the DC path cannot.
        ib.add_query(cl, vec![Demand::new(d0, 1.0)], 1.0, 0.05);
        let inst = ib.build().unwrap();
        let sol = ApproS::default().solve(&inst);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.admitted_count(), 1);
        assert_eq!(sol.assignment_of(QueryId(0)).unwrap(), &[cl]);
        assert!(sol.has_replica(DatasetId(0), cl));
    }

    #[test]
    fn replica_budget_respected_under_pressure() {
        // Three cloudlets, each home to one query on the same dataset, all
        // needing local service; K = 1 admits only one of the remote pair.
        let mut b = EdgeCloudBuilder::new();
        let c0 = b.add_cloudlet(8.0, 0.01);
        let c1 = b.add_cloudlet(8.0, 0.01);
        let c2 = b.add_cloudlet(8.0, 0.01);
        b.link(c0, c1, 10.0);
        b.link(c1, c2, 10.0);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 1);
        let d0 = ib.add_dataset(2.0, c0);
        for home in [c0, c1, c2] {
            ib.add_query(home, vec![Demand::new(d0, 1.0)], 1.0, 0.05);
        }
        let inst = ib.build().unwrap();
        let sol = ApproS::default().solve(&inst);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.replica_count(DatasetId(0)), 1);
        assert_eq!(sol.admitted_count(), 1);
    }

    #[test]
    fn capacity_forces_selectivity() {
        // One cloudlet (8 GHz), no other nodes; three 4-GB queries at
        // r = 1 need 4 GHz each: only two fit.
        let mut b = EdgeCloudBuilder::new();
        let cl = b.add_cloudlet(8.0, 0.001);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d0 = ib.add_dataset(4.0, cl);
        for _ in 0..3 {
            ib.add_query(cl, vec![Demand::new(d0, 1.0)], 1.0, 1.0);
        }
        let inst = ib.build().unwrap();
        let sol = ApproS::default().solve(&inst);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.admitted_count(), 2);
        assert_eq!(sol.admitted_volume(&inst), 8.0);
    }

    #[test]
    fn all_orders_produce_feasible_solutions() {
        let inst = two_node_instance(2);
        for order in [
            QueryOrder::GlobalCheapestFirst,
            QueryOrder::Input,
            QueryOrder::VolumeDesc,
            QueryOrder::DeadlineAsc,
        ] {
            let cfg = ApproConfig {
                order,
                ..Default::default()
            };
            let report = Appro::with_config(cfg).run(&inst);
            report
                .solution
                .validate(&inst)
                .unwrap_or_else(|e| panic!("order {order:?} produced infeasible solution: {e:?}"));
        }
    }

    #[test]
    fn custom_mu_accepted() {
        let inst = two_node_instance(2);
        let cfg = ApproConfig {
            price_mu: Some(64.0),
            ..Default::default()
        };
        let report = Appro::with_config(cfg).run(&inst);
        report.solution.validate(&inst).unwrap();
    }

    #[test]
    fn multi_demand_query_stacks_and_admits() {
        let inst = two_node_instance(2);
        let sol = ApproG::default().solve(&inst);
        sol.validate(&inst).unwrap();
        assert!(sol.is_admitted(QueryId(2)), "general query should fit");
        let nodes = sol.assignment_of(QueryId(2)).unwrap();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ApproS::default().name(), "Appro-S");
        assert_eq!(ApproG::default().name(), "Appro-G");
    }

    /// Asserts `run()` (cached candidate matrix, batched θ, dirty-set
    /// select) and `run_naive()` (per-probe `assignment_delay` over every
    /// node, full rescan after every commit) produce byte-identical
    /// reports under every [`QueryOrder`]: same replicas and assignments,
    /// bit-for-bit equal duals and θ.
    fn assert_cached_matches_naive(inst: &Instance) {
        for order in [
            QueryOrder::GlobalCheapestFirst,
            QueryOrder::Input,
            QueryOrder::VolumeDesc,
            QueryOrder::DeadlineAsc,
        ] {
            let appro = Appro::with_config(ApproConfig {
                order,
                ..Default::default()
            });
            let cached = appro.run(inst);
            let naive = appro.run_naive(inst);
            assert_eq!(
                cached.solution, naive.solution,
                "cached scan changed the solution (order {order:?})"
            );
            assert_eq!(
                cached.dual_bound.to_bits(),
                naive.dual_bound.to_bits(),
                "dual bound drifted: {} vs {} (order {order:?})",
                cached.dual_bound,
                naive.dual_bound
            );
            assert_eq!(cached.theta.len(), naive.theta.len());
            for (c, n) in cached.theta.iter().zip(&naive.theta) {
                assert_eq!(c.to_bits(), n.to_bits(), "theta drifted: {c} vs {n}");
            }
        }
    }

    #[test]
    fn cached_scan_matches_naive_on_small_instances() {
        for k in [1, 2, 3] {
            assert_cached_matches_naive(&two_node_instance(k));
        }
    }

    #[test]
    fn cached_scan_matches_naive_on_fig2_and_fig3_workloads() {
        use edgerep_workload::{generate_instance, presets};
        for seed in 0..3u64 {
            let special = generate_instance(&presets::fig2_special_case(32), seed);
            assert_cached_matches_naive(&special);
            let general = generate_instance(&presets::fig3_general_case(32), seed);
            assert_cached_matches_naive(&general);
        }
        // One larger point so the pre-filter actually prunes.
        let big = generate_instance(&presets::fig3_general_case(60), 1);
        assert_cached_matches_naive(&big);
    }

    /// The dirty-set select on scaled worlds, where most pending plans
    /// stay cached across commits. Scale 4 / seed 2 is where a lazy heap
    /// that treats stale densities as lower bounds diverges.
    #[test]
    fn cached_scan_matches_naive_on_scale_4_workloads() {
        use edgerep_workload::{generate_instance, WorkloadParams};
        for seed in 1..=4 {
            assert_cached_matches_naive(&generate_instance(
                &WorkloadParams::default().with_scale(4),
                seed,
            ));
        }
    }

    /// One scale-8 world (340 queries); more seeds cost seconds each in
    /// a debug build.
    #[test]
    fn cached_scan_matches_naive_on_a_scale_8_workload() {
        use edgerep_workload::{generate_instance, WorkloadParams};
        assert_cached_matches_naive(&generate_instance(
            &WorkloadParams::default().with_scale(8),
            1,
        ));
    }

    /// A generated world with every dataset erasure-coded, so commits
    /// grow holder sets by whole shard bootstrap sets.
    #[test]
    fn cached_scan_matches_naive_on_an_erasure_coded_workload() {
        use edgerep_workload::{generate_instance, presets};
        let base = generate_instance(&presets::fig3_general_case(20), 3);
        let mut ib = InstanceBuilder::new(base.cloud().clone(), 4);
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        for d in base.datasets() {
            ib.add_dataset(d.size_gb, d.origin);
        }
        for q in base.queries() {
            ib.add_query(q.home, q.demands.clone(), q.compute_rate, q.deadline * 2.0);
        }
        let inst = ib.build().unwrap();
        assert!(inst.queries().iter().any(|q| q.demands.len() > 1));
        assert_cached_matches_naive(&inst);
    }

    #[test]
    fn cached_scan_matches_naive_under_erasure_coding() {
        // EC read overhead is applied on top of the cached base delay;
        // the filter must stay output-safe.
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
        ib.set_default_scheme(RedundancyScheme::erasure(2, 2).unwrap());
        for home in [c0, c1, c2] {
            ib.add_query(home, vec![Demand::new(d0, 1.0)], 1.0, 0.23);
        }
        let inst = ib.build().unwrap();
        assert_cached_matches_naive(&inst);
    }

    #[test]
    fn erasure_coded_dataset_admits_with_shard_quorum() {
        // dc --0.05-- c0 --0.1-- c1; 4 GB dataset striped ec(2,1): any
        // admitted read must leave at least k = 2 shard holders placed.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(8.0, 0.01);
        let c1 = b.add_cloudlet(8.0, 0.01);
        b.link(dc, c0, 0.05);
        b.link(c0, c1, 0.1);
        let cloud = b.build().unwrap();
        let mut ib = InstanceBuilder::new(cloud, 3);
        let d0 = ib.add_dataset(4.0, dc);
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        ib.add_query(c0, vec![Demand::new(d0, 0.5)], 1.0, 1.0);
        let inst = ib.build().unwrap();
        let report = Appro::default().run(&inst);
        report.solution.validate(&inst).unwrap();
        assert_eq!(report.solution.admitted_count(), 1);
        assert!(report.solution.replica_count(DatasetId(0)) >= 2);
        assert!(
            report.dual_bound >= report.solution.admitted_volume(&inst) - 1e-9,
            "dual certificate must still dominate under EC"
        );
    }

    #[test]
    fn ec_storage_undercuts_replication_at_equal_admitted_volume() {
        // dc --0.05-- c0 --0.05-- c1 --0.05-- c2, one 4 GB dataset, three
        // queries (α = 1) homed at c0..c2 with a 0.23 s deadline. Remote
        // service costs ≥ 0.05·4 + proc > 0.23, so Replication(3) must
        // materialize three full copies (12 GB). ec(2,2) serves each home
        // locally (proc 0.04 + gather 0.05·2 + decode 0.02·4 = 0.22 s)
        // from 2 GB shards: four holders, 8 GB, same admitted volume.
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let c0 = b.add_cloudlet(16.0, 0.01);
        let c1 = b.add_cloudlet(16.0, 0.01);
        let c2 = b.add_cloudlet(16.0, 0.01);
        b.link(dc, c0, 0.05);
        b.link(c0, c1, 0.05);
        b.link(c1, c2, 0.05);
        let cloud = b.build().unwrap();
        let mut results = Vec::new();
        for scheme in [
            RedundancyScheme::replication(3).unwrap(),
            RedundancyScheme::erasure(2, 2).unwrap(),
        ] {
            let mut ib = InstanceBuilder::new(cloud.clone(), 3);
            let d0 = ib.add_dataset(4.0, dc);
            ib.set_default_scheme(scheme);
            for home in [c0, c1, c2] {
                ib.add_query(home, vec![Demand::new(d0, 1.0)], 1.0, 0.23);
            }
            let inst = ib.build().unwrap();
            let sol = ApproG::default().solve(&inst);
            sol.validate(&inst).unwrap();
            results.push((sol.admitted_volume(&inst), sol.storage_gb(&inst)));
        }
        let (rep_vol, rep_gb) = results[0];
        let (ec_vol, ec_gb) = results[1];
        assert_eq!(rep_vol, 12.0);
        assert_eq!(ec_vol, 12.0, "ec(2,2) must admit the same volume");
        assert!(
            ec_gb < rep_gb,
            "ec(2,2) storage {ec_gb} must undercut replication(3) {rep_gb}"
        );
    }
}
