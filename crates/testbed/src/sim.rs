//! The testbed simulator.
//!
//! One run mirrors one §4.3 experiment:
//!
//! 1. the **controller** executes a [`PlacementAlgorithm`] over the
//!    instance (exactly what the paper's local server does);
//! 2. the **replication phase** copies each placed replica from its
//!    dataset's origin VM along the minimum-delay path (timed and
//!    accounted, but — per §2.3 — not charged against query QoS);
//! 3. the **query phase** releases the queries as a Poisson process;
//!    each admitted query's demands contend for node compute (FIFO
//!    queueing per VM), run the real analytics engine over the trace
//!    records, and ship their intermediate results home; the **measured**
//!    response time decides whether the query met its QoS deadline;
//! 4. optionally, datasets **grow** at their origins and the §2.4
//!    consistency rule fires: when new data exceeds the threshold ratio,
//!    an update is pushed to every replica and the traffic is accounted.
//!
//! Queueing is what the static model of `edgerep-core` does not capture:
//! a placement that packs a popular VM admits on paper but misses
//! deadlines here — exactly the gap between `Appro` and `Popularity`
//! in Figs. 7 and 8.

use std::collections::VecDeque;

use edgerep_core::{repair, PlacementAlgorithm};
use edgerep_ec as ec;
use edgerep_model::{ComputeNodeId, DatasetId, QueryId, Solution};
use edgerep_obs as obs;
use edgerep_rng::SmallRng;

use crate::analytics::{evaluate, merge, AnalyticsResult};
use crate::event::{EventQueue, SimTime};
use crate::fault::{FaultPlan, FaultPlanError};
use crate::slo::SloSample;
use crate::topology::TestbedWorld;
use crate::transfer::{self, ChunkLedger, FlowTier, SourcePath, TransferModel};

/// Retry policy for transfers blocked by a dead source or a partitioned
/// path: capped exponential backoff, then give up (counted, never panic).
const XFER_BACKOFF_BASE_S: f64 = 0.5;
const XFER_BACKOFF_CAP_S: f64 = 30.0;
const XFER_MAX_ATTEMPTS: u32 = 8;

fn backoff_s(attempts: u32) -> f64 {
    (XFER_BACKOFF_BASE_S * 2f64.powi(attempts.min(16) as i32)).min(XFER_BACKOFF_CAP_S)
}

/// §2.4 dynamic-data consistency configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyConfig {
    /// New data accrued at each dataset's origin, GB per simulated hour.
    pub growth_gb_per_hour: f64,
    /// Update threshold: ratio of new to original volume that triggers
    /// replica synchronization.
    pub threshold: f64,
    /// How often origins check the threshold, seconds.
    pub check_interval_s: f64,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        Self {
            growth_gb_per_hour: 0.5,
            threshold: 0.1,
            check_interval_s: 60.0,
        }
    }
}

/// A node failure to inject: `node` goes down permanently at `at_s`.
///
/// Failures model VM outages in the leased testbed: demands already
/// running or queued on the node are lost (their queries miss), while
/// queries arriving later **fail over** to another live replica of the
/// demanded dataset when one exists — which is precisely the availability
/// argument the paper makes for `K > 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// The compute node that fails.
    pub node: ComputeNodeId,
    /// Failure time in simulated seconds.
    pub at_s: f64,
}

/// Bounded full event-loop trace: every popped event is recorded in a
/// ring buffer, and on a QoS miss (a query completing past its deadline)
/// the buffer is replayed through `edgerep-obs` as `qos_miss.replay`
/// events on the `sim` target — so deadline misses under faults are
/// replayable without paying for unbounded tracing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebugTraceConfig {
    /// Ring-buffer capacity in events.
    pub capacity: usize,
    /// At most this many misses dump their ring per run.
    pub max_dumps: usize,
}

impl Default for DebugTraceConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            max_dumps: 4,
        }
    }
}

/// Why a testbed run could not start (see
/// [`try_run_testbed_with_plan`]). Mid-run trouble — dead nodes, cut
/// links, lost queries — is *measured*, never an error; only malformed
/// inputs are.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The fault plan failed [`FaultPlan::validate`].
    FaultPlan(FaultPlanError),
    /// The controller's solution failed
    /// [`edgerep_model::Solution::validate`].
    InfeasibleControllerPlan(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::FaultPlan(e) => write!(f, "{e}"),
            SimError::InfeasibleControllerPlan(why) => {
                write!(f, "controller produced an infeasible plan: {why}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::FaultPlan(e)
    }
}

/// Simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Query arrival rate (Poisson), queries per second.
    pub arrival_rate_per_s: f64,
    /// Egress contention: each node's egress serves one transfer at a
    /// time, highest [`FlowTier`] first, then in begin order. When off,
    /// transfers overlap freely (pure path-delay model).
    pub nic_contention: bool,
    /// Optional dynamic-data consistency behaviour.
    pub consistency: Option<ConsistencyConfig>,
    /// Controller-driven replica repair: when a node dies, orphaned
    /// replicas are re-placed on live feasible nodes (transfers timed
    /// through the sim, NIC-contended, retried with backoff).
    pub repair: bool,
    /// Optional bounded event-loop trace, dumped on QoS misses.
    pub debug_trace: Option<DebugTraceConfig>,
    /// Sample the SLO state (availability, QoS-miss rate, repair
    /// backlog) every this many simulated seconds into
    /// [`TestbedReport::slo_series`]. `None` disables sampling.
    pub slo_sample_interval_s: Option<f64>,
    /// Periodic shard scrubber for erasure-coded datasets: every this
    /// many simulated seconds the controller compares live holder sets
    /// against the plan and schedules Background-tier reconstruction of
    /// lost shards (re-encoded from any `k` survivors, charged `k ×` the
    /// read volume — see [`edgerep_core::repair::scrub`]). `None`
    /// disables scrubbing. Independent of [`SimConfig::repair`], which
    /// reacts to node deaths; the scrubber also catches losses that
    /// repair abandoned or that happened while repair was off.
    pub scrub_interval_s: Option<f64>,
    /// Which preset of the transfer engine ([`crate::transfer`]) moves
    /// the run's data: whole-replica point-to-point flows, or chunked,
    /// resumable, multi-source transfers.
    pub transfer: TransferModel,
    /// RNG seed for arrivals (placement is deterministic given the world).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            arrival_rate_per_s: 0.4,
            nic_contention: true,
            consistency: None,
            repair: false,
            debug_trace: None,
            slo_sample_interval_s: None,
            scrub_interval_s: None,
            transfer: TransferModel::default(),
            seed: 1,
        }
    }
}

/// Everything one testbed run measures.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// Name of the placement algorithm the controller ran.
    pub algorithm: &'static str,
    /// The controller's plan (validated).
    pub plan: Solution,
    /// Volume the controller *planned* to admit, GB.
    pub planned_volume: f64,
    /// Queries the controller planned to admit.
    pub planned_admitted: usize,
    /// Volume of queries that actually met their deadline, GB.
    pub measured_volume: f64,
    /// Queries that actually met their deadline.
    pub measured_admitted: usize,
    /// Total queries issued.
    pub total_queries: usize,
    /// Measured throughput: met / total.
    pub measured_throughput: f64,
    /// Mean measured response time over completed queries, seconds.
    pub mean_response_s: f64,
    /// Median measured response time, seconds.
    pub p50_response_s: f64,
    /// 95th-percentile measured response time, seconds.
    pub p95_response_s: f64,
    /// Worst measured response time, seconds.
    pub max_response_s: f64,
    /// GB moved to materialize replicas (proactive phase).
    pub replication_gb: f64,
    /// Wall-clock of the slowest replica transfer, seconds.
    pub replication_time_s: f64,
    /// GB of consistency updates pushed to replicas (§2.4).
    pub consistency_gb: f64,
    /// Number of consistency synchronization rounds.
    pub consistency_rounds: usize,
    /// Demands redirected to an alternative live replica after a fault.
    pub failovers: usize,
    /// Erasure-coded demands served from a partially-failed shard set
    /// (`min_read ≤ live < placed`): slower, but *not* lost — the
    /// availability edge over losing the only replica.
    pub degraded_reads: usize,
    /// Storage footprint of the controller's plan, GB: one shard
    /// (`|S|/k`) per placed holder under erasure coding, one full copy
    /// under replication.
    pub storage_gb: f64,
    /// Queries lost to faults (no live feasible replica, in flight on a
    /// failing node, or result transfer abandoned after retries).
    pub queries_lost_to_faults: usize,
    /// Repair transfers the controller scheduled after node losses.
    pub repairs_scheduled: usize,
    /// Repair transfers that completed and restored a replica.
    pub repairs_completed: usize,
    /// GB moved by completed repair transfers.
    pub repair_gb: f64,
    /// Repair transfer attempts deferred by backoff (dead source or
    /// partitioned path).
    pub repair_retries: usize,
    /// Query result transfers deferred by backoff (partitioned path).
    pub transfer_retries: usize,
    /// Interrupted transfers that relaunched with verified chunks intact
    /// instead of restarting from zero.
    pub transfer_resumes: usize,
    /// Volume those resumes did **not** re-transfer: GB of already
    /// verified chunks carried across interruptions.
    pub chunk_gb_saved: f64,
    /// Transfers abandoned after retry exhaustion because no live holder
    /// of the data remained.
    pub abandoned_dead_source: usize,
    /// Transfers abandoned after retry exhaustion because every path to
    /// the destination stayed partitioned.
    pub abandoned_partitioned: usize,
    /// Mean wall-clock from a repair job's creation to its replica
    /// landing (across retries, backoff, and resumed chunks), seconds.
    /// `0.0` when no repair completed.
    pub repair_completion_mean_s: f64,
    /// Mean transfer completion time per priority tier
    /// (`[immediate, scheduled, background]`), seconds; zero for a tier
    /// that moved nothing.
    pub tier_completion_mean_s: [f64; 3],
    /// Total node-seconds spent down over the run.
    pub node_downtime_s: f64,
    /// Availability under faults: the fraction of planned-admitted
    /// queries not lost to faults (`1.0` when nothing was planned).
    pub availability: f64,
    /// Event-ring dumps triggered by QoS misses (see
    /// [`DebugTraceConfig`]).
    pub qos_miss_dumps: usize,
    /// The replica/assignment state at the end of the run: the plan minus
    /// replicas lost with dead nodes, plus repaired and recovered ones.
    pub live_plan: Solution,
    /// Mean simulated time demands spent queued for compute, seconds
    /// (demands that started immediately contribute zero).
    pub mean_queue_wait_s: f64,
    /// Mean simulated result-transfer time (including egress wait),
    /// seconds.
    pub mean_transfer_s: f64,
    /// Discrete events processed by the simulator loop.
    pub events_processed: u64,
    /// Largest event-queue depth observed during the run.
    pub peak_event_queue: usize,
    /// Analytics answers produced (one per completed query).
    pub answers: Vec<(QueryId, AnalyticsResult)>,
    /// SLO trajectory sampled every [`SimConfig::slo_sample_interval_s`]
    /// simulated seconds (plus one closing sample at drain); empty when
    /// sampling is off.
    pub slo_series: Vec<SloSample>,
}

#[derive(Debug)]
enum Event {
    Arrival {
        q: QueryId,
    },
    ProcDone {
        q: QueryId,
        demand: usize,
        node: ComputeNodeId,
        /// The node's epoch when the work was scheduled; a mismatch at
        /// delivery means the node died (and possibly recovered) in
        /// between, so the work is void and its compute must not be freed.
        epoch: u32,
    },
    TransferDone {
        q: QueryId,
        demand: usize,
    },
    ConsistencyCheck,
    NodeDown {
        node: ComputeNodeId,
    },
    NodeUp {
        node: ComputeNodeId,
    },
    LinkDown {
        a: ComputeNodeId,
        b: ComputeNodeId,
    },
    LinkUp {
        a: ComputeNodeId,
        b: ComputeNodeId,
    },
    /// A repair transfer (job index into the transfer-job table) landed.
    RepairDone {
        job: usize,
    },
    /// Re-attempt a blocked transfer job after backoff.
    RetryTransfer {
        job: usize,
    },
    /// Wake the transfer engine at its next predicted chunk completion.
    /// Stale generations (the engine settled again since the push) are
    /// no-ops: the engine is advanced before every event anyway.
    FlowProgress {
        generation: u64,
    },
    /// Snapshot SLO state into the report's time series.
    SloSample,
    /// Periodic erasure-coding scrub pass (see
    /// [`SimConfig::scrub_interval_s`]).
    Scrub,
}

impl Event {
    /// `(kind, a, b)` for the debug ring.
    fn trace_key(&self) -> (&'static str, i64, i64) {
        match self {
            Event::Arrival { q } => ("arrival", q.index() as i64, -1),
            Event::ProcDone { q, node, .. } => ("proc_done", q.index() as i64, node.index() as i64),
            Event::TransferDone { q, demand } => {
                ("transfer_done", q.index() as i64, *demand as i64)
            }
            Event::ConsistencyCheck => ("consistency_check", -1, -1),
            Event::NodeDown { node } => ("node_down", node.index() as i64, -1),
            Event::NodeUp { node } => ("node_up", node.index() as i64, -1),
            Event::LinkDown { a, b } => ("link_down", a.index() as i64, b.index() as i64),
            Event::LinkUp { a, b } => ("link_up", a.index() as i64, b.index() as i64),
            Event::RepairDone { job } => ("repair_done", *job as i64, -1),
            Event::RetryTransfer { job } => ("retry_transfer", *job as i64, -1),
            Event::FlowProgress { generation } => ("flow_progress", *generation as i64, -1),
            Event::SloSample => ("slo_sample", -1, -1),
            Event::Scrub => ("scrub", -1, -1),
        }
    }
}

/// What a transfer job carries.
#[derive(Debug, Clone, Copy)]
enum XferKind {
    /// A query result headed home from the node that computed it.
    Result {
        q: QueryId,
        demand: usize,
        source: ComputeNodeId,
    },
    /// A repair copy restoring a replica of `dataset`. `dest_epoch` is the
    /// target's epoch at planning time: a mismatch later means the target
    /// died and the job is void.
    Repair { dataset: DatasetId, dest_epoch: u32 },
}

/// One result or repair transfer, retried with backoff while it has no
/// usable source.
#[derive(Debug, Clone)]
struct XferJob {
    kind: XferKind,
    dest: ComputeNodeId,
    gb: f64,
    attempts: u32,
    /// Delivered or abandoned — no further retries. Jobs stay unresolved
    /// across interruptions, so repair planning still sees parked jobs as
    /// reserving their replica slot.
    resolved: bool,
    /// When the job was created (repair completion latency is measured
    /// from here, across every retry and resume).
    born: SimTime,
    /// The ledger of an interrupted transfer, waiting to resume.
    parked: Option<ChunkLedger>,
    /// The job's engine transfer id while one is in flight.
    active: Option<usize>,
}

/// Who owns an engine transfer.
#[derive(Debug, Clone, Copy)]
enum EngineOwner {
    /// Entry in the transfer-job table (result or repair).
    Job(usize),
    /// A §2.4 consistency push: fire-and-forget, no retries.
    Consistency {
        source: ComputeNodeId,
        dest: ComputeNodeId,
    },
    /// An erasure-coded read's shard fan-in from one live co-holder:
    /// fire-and-forget wire traffic (its latency is charged analytically
    /// on the demand's service time), contending with everything else.
    Gather {
        source: ComputeNodeId,
        dest: ComputeNodeId,
    },
}

#[derive(Debug, Clone)]
struct QueryRun {
    arrival: SimTime,
    outstanding: usize,
    finish: SimTime,
    partials: Vec<Option<AnalyticsResult>>,
    /// Serving node per demand, with failovers applied.
    nodes: Vec<ComputeNodeId>,
    /// Which demands are still incomplete (no TransferDone yet).
    incomplete: Vec<bool>,
    /// Per-demand erasure-coding read overhead (shard gather + decode),
    /// seconds; all zero for replicated datasets. Charged on top of the
    /// demand's compute time, including when it dequeues after a wait.
    read_extra: Vec<f64>,
}

/// A pending demand waiting for compute at a node.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    q: QueryId,
    demand: usize,
    need_ghz: f64,
    /// When the demand joined the node's FIFO (for queue-wait accounting).
    enqueued: SimTime,
}

/// Everything a run counts, flushed into the [`TestbedReport`] at drain.
#[derive(Default)]
struct Tally {
    replication_gb: f64,
    replication_time_s: f64,
    /// `(query, arrival, finish)` per completed query.
    completed: Vec<(QueryId, SimTime, SimTime)>,
    answers: Vec<(QueryId, AnalyticsResult)>,
    slo_series: Vec<SloSample>,
    consistency_gb: f64,
    consistency_rounds: usize,
    failovers: usize,
    degraded_reads: usize,
    queries_lost: usize,
    repairs_scheduled: usize,
    repairs_completed: usize,
    repair_gb: f64,
    repair_retries: usize,
    transfer_retries: usize,
    transfer_resumes: usize,
    chunk_gb_saved: f64,
    abandoned_dead_source: usize,
    abandoned_partitioned: usize,
    repair_durations: Vec<f64>,
    /// Result-transfer durations; summed in sorted order at the end so
    /// the mean is independent of completion order.
    transfer_durations: Vec<f64>,
    tier_sum_s: [f64; 3],
    tier_count: [u64; 3],
    node_downtime_s: f64,
    qos_miss_dumps: usize,
    events_processed: u64,
    peak_event_queue: usize,
    demands_started: u64,
    demands_queued: u64,
    queue_wait_sum_s: f64,
    last_event_t: SimTime,
}

/// One testbed run in flight: the event queue, the node and query state,
/// the transfer engine with its jobs, and the tallies. Each [`Event`] has
/// one handler method.
struct Sim<'a> {
    world: &'a TestbedWorld,
    inst: &'a edgerep_model::Instance,
    cfg: &'a SimConfig,
    fault_plan: &'a FaultPlan,
    /// The controller's validated plan.
    plan: Solution,
    /// Per-event debug tracing, gated once per run.
    trace_debug: bool,
    queue: EventQueue<Event>,
    /// Arrival instant of the last query: periodic events stop re-arming
    /// after it.
    query_horizon: SimTime,
    /// Replica count per dataset in the controller plan (repair target).
    target_counts: Vec<usize>,
    runs: Vec<Option<QueryRun>>,
    free_ghz: Vec<f64>,
    waiting: Vec<VecDeque<Waiting>>,
    new_data_gb: Vec<f64>,
    last_growth: SimTime,
    // Fault state. A node is alive iff no outage window covers `now`;
    // overlapping windows nest via `downs_active`. Epochs version a
    // node's lifetime so work scheduled before a death is void after it.
    alive: Vec<bool>,
    downs_active: Vec<u32>,
    node_epoch: Vec<u32>,
    down_since: Vec<Option<SimTime>>,
    held_at_down: Vec<Vec<DatasetId>>,
    /// The controller plan as it evolves: replicas leave with dead nodes,
    /// return with repairs and recoveries. Failover reads this, so
    /// repaired replicas genuinely restore availability.
    live_sol: Solution,
    eng: transfer::Engine,
    /// Engine transfer id → owner, parallel to the engine's table.
    owners: Vec<EngineOwner>,
    /// Last `FlowProgress` generation pushed; a matching generation means
    /// the event is already queued at the right instant.
    last_pushed_gen: u64,
    jobs: Vec<XferJob>,
    /// Bounded ring of recent events for QoS-miss replay.
    ring: VecDeque<(SimTime, &'static str, i64, i64)>,
    tally: Tally,
}

/// Runs one full testbed experiment under a [`FaultPlan`] (use
/// [`FaultPlan::empty`] for none, [`FaultPlan::from_failures`] for
/// permanent [`NodeFailure`]s): transient node outages, link
/// degradations and partitions, and — when [`SimConfig::repair`] is set —
/// controller-driven replica repair.
pub fn try_run_testbed_with_plan(
    alg: &dyn PlacementAlgorithm,
    world: &TestbedWorld,
    cfg: &SimConfig,
    fault_plan: &FaultPlan,
) -> Result<TestbedReport, SimError> {
    let inst = &world.instance;
    fault_plan.validate(inst.cloud().compute_count())?;
    let _run_span = obs::span("sim", "sim.run");
    let plan = {
        let _controller_span = obs::span("sim", "sim.controller");
        alg.solve(inst)
    };
    plan.validate(inst).map_err(|errs| {
        SimError::InfeasibleControllerPlan(
            errs.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })?;
    let mut sim = Sim::new(world, cfg, fault_plan, plan);
    // The drain gets its own span so profiles separate event-loop time
    // from the controller's solve (`sim.controller` → solver spans).
    let loop_span = obs::span("sim", "sim.loop");
    while let Some((now, ev)) = sim.queue.pop() {
        sim.step(now, ev);
    }
    drop(loop_span);
    Ok(sim.finish(alg.name()))
}

impl<'a> Sim<'a> {
    /// Times the replication phase and seeds the queue with arrivals,
    /// fault windows and periodic events.
    fn new(
        world: &'a TestbedWorld,
        cfg: &'a SimConfig,
        fault_plan: &'a FaultPlan,
        plan: Solution,
    ) -> Self {
        let inst = &world.instance;
        let cloud = inst.cloud();
        let mut tally = Tally::default();
        // Replication phase: one shard per holder (|S|/k under erasure
        // coding, the full dataset under replication) from the origin.
        for d in inst.dataset_ids() {
            let origin = inst.dataset(d).origin;
            for &v in plan.replicas_of(d) {
                if v == origin {
                    continue; // the origin already holds the data
                }
                let gb = inst.shard_gb(d);
                let t = cloud.min_delay(origin, v) * gb;
                tally.replication_gb += gb;
                tally.replication_time_s = tally.replication_time_s.max(t);
            }
        }

        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut t = SimTime::ZERO;
        let mut order: Vec<QueryId> = inst.query_ids().collect();
        // Shuffle arrival order (Fisher-Yates) then draw exponential gaps.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for q in order {
            let gap = -rng.gen_f64().max(1e-12).ln() / cfg.arrival_rate_per_s;
            t = t.after_secs(gap);
            queue.push(t, Event::Arrival { q });
        }
        for o in &fault_plan.node_outages {
            queue.push(
                SimTime::from_secs_f64(o.down_at_s),
                Event::NodeDown { node: o.node },
            );
            if let Some(up) = o.up_at_s {
                queue.push(SimTime::from_secs_f64(up), Event::NodeUp { node: o.node });
            }
        }
        for l in &fault_plan.link_faults {
            queue.push(
                SimTime::from_secs_f64(l.down_at_s),
                Event::LinkDown { a: l.a, b: l.b },
            );
            if let Some(up) = l.up_at_s {
                queue.push(SimTime::from_secs_f64(up), Event::LinkUp { a: l.a, b: l.b });
            }
        }
        if let Some(c) = cfg.consistency {
            queue.push(
                SimTime::from_secs_f64(c.check_interval_s),
                Event::ConsistencyCheck,
            );
        }
        for (interval, event, what) in [
            (cfg.slo_sample_interval_s, Event::SloSample, "slo_sample"),
            (cfg.scrub_interval_s, Event::Scrub, "scrub"),
        ] {
            if let Some(interval) = interval {
                assert!(
                    interval > 0.0 && interval.is_finite(),
                    "{what}_interval_s must be positive and finite, got {interval}"
                );
                queue.push(SimTime::from_secs_f64(interval), event);
            }
        }

        let nodes = cloud.compute_count();
        Self {
            world,
            inst,
            cfg,
            fault_plan,
            trace_debug: obs::enabled_at("sim", obs::Level::Debug),
            queue,
            query_horizon: t,
            target_counts: inst.dataset_ids().map(|d| plan.replica_count(d)).collect(),
            runs: vec![None; inst.queries().len()],
            free_ghz: cloud.compute_ids().map(|v| cloud.available(v)).collect(),
            waiting: vec![VecDeque::new(); nodes],
            new_data_gb: vec![0.0; inst.datasets().len()],
            last_growth: SimTime::ZERO,
            alive: vec![true; nodes],
            downs_active: vec![0; nodes],
            node_epoch: vec![0; nodes],
            down_since: vec![None; nodes],
            held_at_down: vec![Vec::new(); nodes],
            live_sol: plan.clone(),
            eng: transfer::Engine::new(cfg.transfer.config(), nodes, cfg.nic_contention),
            owners: Vec::new(),
            last_pushed_gen: 0,
            jobs: Vec::new(),
            ring: VecDeque::new(),
            tally,
            plan,
        }
    }

    fn step(&mut self, now: SimTime, ev: Event) {
        self.tally.events_processed += 1;
        self.tally.peak_event_queue = self.tally.peak_event_queue.max(self.queue.len() + 1);
        self.tally.last_event_t = now;
        if let Some(tc) = self.cfg.debug_trace {
            if self.ring.len() >= tc.capacity.max(1) {
                self.ring.pop_front();
            }
            let (kind, a, b) = ev.trace_key();
            self.ring.push_back((now, kind, a, b));
        }
        // The engine advances to every event instant first, so
        // completions due *at* `now` land (as `TransferDone` /
        // `RepairDone` pushes) before any same-instant fault touches them.
        self.pump(now);
        match ev {
            Event::Arrival { q } => self.on_arrival(now, q),
            Event::ProcDone {
                q,
                demand,
                node,
                epoch,
            } => self.on_proc_done(now, q, demand, node, epoch),
            Event::TransferDone { q, demand } => self.on_transfer_done(now, q, demand),
            Event::NodeDown { node } => self.on_node_down(now, node),
            Event::NodeUp { node } => self.on_node_up(now, node),
            Event::LinkDown { a, b } => self.on_link_change(now, "link.down", a, b),
            Event::LinkUp { a, b } => self.on_link_change(now, "link.up", a, b),
            Event::RepairDone { job } => self.on_repair_done(now, job),
            Event::RetryTransfer { job } => {
                self.launch(now, job);
                self.pump(now);
            }
            Event::ConsistencyCheck => self.on_consistency_check(now),
            // The pump above already advanced the engine to `now`, fired
            // due chunk completions, and re-armed the next wake-up; stale
            // generations needed nothing anyway.
            Event::FlowProgress { .. } => {}
            Event::SloSample => self.on_slo_sample(now),
            Event::Scrub => self.on_scrub(now),
        }
    }

    fn on_arrival(&mut self, now: SimTime, q: QueryId) {
        let inst = self.inst;
        let cloud = inst.cloud();
        let Some(nodes) = self.plan.assignment_of(q) else {
            return; // controller rejected it; counted in totals
        };
        // Resolve dead serving nodes to live replicas (failover).
        // `live_sol` includes repaired replicas, so repair widens the
        // failover choices — the availability payoff.
        let mut resolved = Vec::with_capacity(nodes.len());
        let mut this_failovers = 0usize;
        for (demand, &node) in nodes.iter().enumerate() {
            if self.alive[node.index()] {
                resolved.push(node);
                continue;
            }
            let d = inst.query(q).demands[demand].dataset;
            // Load-aware failover: among live replicas that can still
            // meet the deadline, prefer one with compute free right now
            // (idle beats close — queueing behind other work is what
            // actually busts deadlines), then break ties by delay.
            let need = inst.size(d) * inst.query(q).compute_rate;
            let delay = |v| edgerep_model::delay::assignment_delay(inst, q, demand, v);
            let busy = |v: ComputeNodeId| self.free_ghz[v.index()] + 1e-9 < need;
            let alt = self
                .live_sol
                .replicas_of(d)
                .iter()
                .copied()
                .filter(|v| self.alive[v.index()])
                .filter(|&v| delay(v) <= inst.query(q).deadline + 1e-12)
                .min_by(|&a, &b| {
                    busy(a)
                        .cmp(&busy(b))
                        .then(delay(a).partial_cmp(&delay(b)).expect("delays comparable"))
                });
            let Some(v) = alt else {
                self.tally.queries_lost += 1;
                return;
            };
            this_failovers += 1;
            resolved.push(v);
        }
        // Erasure-coded demands additionally need a live read quorum: the
        // serving node's shard plus `k − 1` gathered from the nearest live
        // co-holders. Between `k` and `k + m` live shards the read is
        // *degraded* (slower, but served); below `k` the query is lost.
        let mut read_extra = vec![0.0f64; resolved.len()];
        let mut gather_launches: Vec<(usize, Vec<ec::ShardSource>)> = Vec::new();
        for (demand, &node) in resolved.iter().enumerate() {
            let d = inst.query(q).demands[demand].dataset;
            let scheme = inst.scheme(d);
            if !scheme.needs_decode() {
                continue;
            }
            let others: Vec<ec::ShardSource> = self
                .live_sol
                .replicas_of(d)
                .iter()
                .filter(|&&h| self.alive[h.index()] && h != node)
                .map(|&h| ec::ShardSource {
                    node: h.index(),
                    delay_s_per_gb: cloud.min_delay(h, node),
                })
                .collect();
            let placed = self.target_counts[d.index()];
            let Some(plan) = ec::plan_read(scheme, inst.size(d), &others, placed) else {
                self.tally.queries_lost += 1;
                return;
            };
            read_extra[demand] = plan.overhead_s(inst.decode_s_per_gb());
            if plan.degraded {
                self.tally.degraded_reads += 1;
                ec::note_degraded_read(
                    now.as_secs_f64(),
                    d.index(),
                    1 + others.len(),
                    placed,
                    scheme.min_read(),
                );
            }
            if !plan.sources.is_empty() {
                gather_launches.push((demand, plan.sources));
            }
        }
        // The shard fan-in rides the engine as Immediate-tier flows from
        // each chosen co-holder, contending on the wire with everything
        // else; the read's latency itself is charged via `read_extra`.
        for (demand, sources) in &gather_launches {
            let d = inst.query(q).demands[*demand].dataset;
            let dest = resolved[*demand];
            for s in sources {
                let src = ComputeNodeId(s.node as u32);
                let Some(p) = self.source_path(src, dest, now) else {
                    continue;
                };
                let ledger = ChunkLedger::new(inst.shard_gb(d), self.eng.config().chunk_gb);
                self.begin(
                    now,
                    EngineOwner::Gather { source: src, dest },
                    FlowTier::Immediate,
                    Some(d.index()),
                    ledger,
                    &[p],
                );
            }
        }
        if !gather_launches.is_empty() {
            self.pump(now);
        }
        self.tally.failovers += this_failovers;
        let n = resolved.len();
        self.runs[q.index()] = Some(QueryRun {
            arrival: now,
            outstanding: n,
            finish: now,
            partials: vec![None; n],
            nodes: resolved.clone(),
            incomplete: vec![true; n],
            read_extra: read_extra.clone(),
        });
        self.tally.demands_started += n as u64;
        for (demand, node) in resolved.into_iter().enumerate() {
            let need =
                inst.size(inst.query(q).demands[demand].dataset) * inst.query(q).compute_rate;
            if self.free_ghz[node.index()] + 1e-9 >= need {
                self.free_ghz[node.index()] -= need;
                let epoch = self.node_epoch[node.index()];
                self.schedule_proc(now, q, demand, node, epoch, read_extra[demand]);
            } else {
                self.tally.demands_queued += 1;
                self.waiting[node.index()].push_back(Waiting {
                    q,
                    demand,
                    need_ghz: need,
                    enqueued: now,
                });
            }
        }
    }

    /// Schedules the `ProcDone` of a demand that just got its compute.
    fn schedule_proc(
        &mut self,
        now: SimTime,
        q: QueryId,
        demand: usize,
        node: ComputeNodeId,
        epoch: u32,
        read_extra_s: f64,
    ) {
        let inst = self.inst;
        let proc = inst.cloud().proc_delay(node) * inst.size(inst.query(q).demands[demand].dataset)
            + read_extra_s;
        self.queue.push(
            now.after_secs(proc),
            Event::ProcDone {
                q,
                demand,
                node,
                epoch,
            },
        );
    }

    fn on_proc_done(
        &mut self,
        now: SimTime,
        q: QueryId,
        demand: usize,
        node: ComputeNodeId,
        epoch: u32,
    ) {
        if self.node_epoch[node.index()] != epoch {
            // The node died (and possibly recovered) since this work was
            // scheduled: the work is lost, and its compute was
            // re-baselined at recovery — freeing it here would
            // double-count.
            return;
        }
        // Release compute and wake queued demands regardless of whether
        // the owning query is still alive.
        let inst = self.inst;
        let d = inst.query(q).demands[demand].dataset;
        let need = inst.size(d) * inst.query(q).compute_rate;
        self.free_ghz[node.index()] += need;
        while let Some(w) = self.waiting[node.index()].front().copied() {
            if self.free_ghz[node.index()] + 1e-9 < w.need_ghz {
                break;
            }
            self.waiting[node.index()].pop_front();
            self.free_ghz[node.index()] -= w.need_ghz;
            let wait_s = now.as_secs_f64() - w.enqueued.as_secs_f64();
            self.tally.queue_wait_sum_s += wait_s;
            if self.trace_debug {
                obs::emit_debug(
                    "sim",
                    "sim.run",
                    "demand.dequeued",
                    &[
                        ("query", w.q.index().into()),
                        ("demand", w.demand.into()),
                        ("node", node.index().into()),
                        ("wait_s", wait_s.into()),
                    ],
                );
            }
            // EC gather + decode overhead still applies when the demand
            // dequeues after a compute wait.
            let extra_s = self.runs[w.q.index()]
                .as_ref()
                .map_or(0.0, |r| r.read_extra[w.demand]);
            self.schedule_proc(now, w.q, w.demand, node, epoch, extra_s);
        }
        // Poisoned queries produce nothing further.
        let Some(run) = self.runs[q.index()].as_mut() else {
            return;
        };
        // Evaluate the analytics for real, then ship the result. Its own
        // span: real computation must not hide inside the event loop's
        // self time in profiles.
        let partial = {
            let _analytics_span = obs::span("sim", "sim.analytics");
            evaluate(
                self.world.query_kinds[q.index()],
                &self.world.records[d.index()],
            )
        };
        run.partials[demand] = Some(partial);
        let query = inst.query(q);
        let result_gb = query.demands[demand].selectivity * inst.size(d);
        let kind = XferKind::Result {
            q,
            demand,
            source: node,
        };
        self.new_job(now, kind, query.home, result_gb);
        self.pump(now);
    }

    fn on_transfer_done(&mut self, now: SimTime, q: QueryId, demand: usize) {
        let Some(run) = self.runs[q.index()].as_mut() else {
            return; // poisoned by a fault mid-flight
        };
        run.incomplete[demand] = false;
        run.outstanding -= 1;
        run.finish = run.finish.max(now);
        if run.outstanding > 0 {
            return;
        }
        let (arrival, finish) = (run.arrival, run.finish);
        let partials: Vec<AnalyticsResult> = run.partials.iter().flatten().cloned().collect();
        self.tally.completed.push((q, arrival, finish));
        let resp = finish.as_secs_f64() - arrival.as_secs_f64();
        let deadline = self.inst.query(q).deadline;
        if let Some(tc) = self.cfg.debug_trace {
            if resp > deadline + 1e-9 && self.tally.qos_miss_dumps < tc.max_dumps {
                self.tally.qos_miss_dumps += 1;
                obs::emit(
                    "sim",
                    "sim.run",
                    "qos_miss.replay.begin",
                    &[
                        ("query", q.index().into()),
                        ("response_s", resp.into()),
                        ("deadline_s", deadline.into()),
                        ("entries", self.ring.len().into()),
                    ],
                );
                for &(et, kind, a, b) in &self.ring {
                    obs::emit(
                        "sim",
                        "sim.run",
                        "qos_miss.replay",
                        &[
                            ("t_s", et.as_secs_f64().into()),
                            ("event", kind.into()),
                            ("a", a.into()),
                            ("b", b.into()),
                        ],
                    );
                }
            }
        }
        if self.trace_debug {
            obs::emit_debug(
                "sim",
                "sim.run",
                "query.done",
                &[("query", q.index().into()), ("response_s", resp.into())],
            );
        }
        if let Some(answer) = merge(partials) {
            self.tally.answers.push((q, answer));
        }
    }

    fn on_node_down(&mut self, now: SimTime, node: ComputeNodeId) {
        let idx = node.index();
        self.downs_active[idx] += 1;
        if self.downs_active[idx] > 1 {
            return; // already down (overlapping windows nest)
        }
        self.alive[idx] = false;
        self.node_epoch[idx] = self.node_epoch[idx].wrapping_add(1);
        self.down_since[idx] = Some(now);
        self.waiting[idx].clear();
        // Poison every active query with an incomplete demand on the
        // failing node: its in-flight work is gone.
        for run_slot in self.runs.iter_mut() {
            let poisoned = run_slot.as_ref().is_some_and(|run| {
                run.nodes
                    .iter()
                    .zip(run.incomplete.iter())
                    .any(|(&n, &inc)| inc && n == node)
            });
            if poisoned {
                *run_slot = None;
                self.tally.queries_lost += 1;
            }
        }
        // Orphan the node's replicas; remember them so a recovery can
        // bring them back.
        let orphans = self.live_sol.remove_node_replicas(node);
        if self.trace_debug {
            obs::emit_debug(
                "sim",
                "sim.run",
                "node.down",
                &[("node", idx.into()), ("orphans", orphans.len().into())],
            );
        }
        self.held_at_down[idx] = orphans;
        // Flows touching the dead node react now instead of flying on to
        // a void completion.
        self.refresh_flows(now);
        self.pump(now);
        // Controller repair: re-place orphaned replicas on live feasible
        // nodes, timed as real transfers.
        if self.cfg.repair {
            let actions = repair::plan_replacements(
                self.inst,
                &self.planning_view(),
                &self.alive,
                &self.target_counts,
            );
            self.schedule_repairs(now, actions);
        }
    }

    fn on_node_up(&mut self, now: SimTime, node: ComputeNodeId) {
        let idx = node.index();
        if self.downs_active[idx] == 0 {
            return; // spurious recovery
        }
        self.downs_active[idx] -= 1;
        if self.downs_active[idx] > 0 {
            return; // still inside another outage window
        }
        self.alive[idx] = true;
        // The node returns empty of work: full compute.
        self.free_ghz[idx] = self.inst.cloud().available(node);
        if let Some(since) = self.down_since[idx].take() {
            self.tally.node_downtime_s += now.as_secs_f64() - since.as_secs_f64();
        }
        // Its local replicas survive the outage on disk: re-admit them
        // where the dataset is still under budget.
        for d in std::mem::take(&mut self.held_at_down[idx]) {
            if self.live_sol.replica_count(d) < self.inst.slots(d)
                && !self.live_sol.has_replica(d, node)
            {
                self.live_sol.place_replica(d, node);
            }
        }
        // Recovered replicas widen every repair swarm.
        self.refresh_flows(now);
        self.pump(now);
        if self.trace_debug {
            obs::emit_debug("sim", "sim.run", "node.up", &[("node", idx.into())]);
        }
    }

    /// Link timing comes from `FaultPlan::link_factor`: in-flight flows
    /// are re-priced (or parked) at every transition.
    fn on_link_change(&mut self, now: SimTime, what: &str, a: ComputeNodeId, b: ComputeNodeId) {
        self.refresh_flows(now);
        self.pump(now);
        if self.trace_debug {
            obs::emit_debug(
                "sim",
                "sim.run",
                what,
                &[("a", a.index().into()), ("b", b.index().into())],
            );
        }
    }

    fn on_repair_done(&mut self, now: SimTime, job: usize) {
        let j = &self.jobs[job];
        let XferKind::Repair {
            dataset,
            dest_epoch,
        } = j.kind
        else {
            return;
        };
        // Valid only if the target survived since launch and the dataset
        // still wants the replica.
        if self.node_epoch[j.dest.index()] == dest_epoch
            && self.live_sol.replica_count(dataset) < self.inst.slots(dataset)
            && !self.live_sol.has_replica(dataset, j.dest)
        {
            self.live_sol.place_replica(dataset, j.dest);
            self.tally.repairs_completed += 1;
            self.tally.repair_gb += j.gb;
            self.tally.repair_durations.push(now.secs_since(j.born));
            if self.trace_debug {
                obs::emit_debug(
                    "sim",
                    "sim.run",
                    "repair.done",
                    &[
                        ("dataset", dataset.index().into()),
                        ("node", j.dest.index().into()),
                    ],
                );
            }
        }
    }

    fn on_consistency_check(&mut self, now: SimTime) {
        let c = self
            .cfg
            .consistency
            .expect("check scheduled only with config");
        // Accrue growth since the last check.
        let dt_h = (now.as_secs_f64() - self.last_growth.as_secs_f64()) / 3600.0;
        self.last_growth = now;
        for g in &mut self.new_data_gb {
            *g += c.growth_gb_per_hour * dt_h;
        }
        // Push updates where the threshold is crossed.
        for d in self.inst.dataset_ids() {
            let gb = self.new_data_gb[d.index()];
            if gb / self.inst.size(d) >= c.threshold {
                self.push_update(now, d, gb);
                self.new_data_gb[d.index()] = 0.0;
            }
        }
        self.pump(now);
        // Keep checking until the query phase has drained.
        if now <= self.query_horizon {
            self.queue
                .push(now.after_secs(c.check_interval_s), Event::ConsistencyCheck);
        }
    }

    /// Accounts one §2.4 update round of `gb` new GB for dataset `d` and
    /// pushes it to every live replica as Scheduled-tier engine flows, so
    /// consistency traffic contends with (and yields to) result transfers.
    fn push_update(&mut self, now: SimTime, d: DatasetId, gb: f64) {
        let origin = self.inst.dataset(d).origin;
        let replicas: Vec<ComputeNodeId> = self.plan.replicas_of(d).to_vec();
        let synced = replicas.iter().filter(|&&v| v != origin).count();
        if synced == 0 {
            return;
        }
        self.tally.consistency_gb += gb * synced as f64;
        self.tally.consistency_rounds += 1;
        if gb > 0.0 && self.alive[origin.index()] {
            for v in replicas {
                if v == origin || !self.alive[v.index()] {
                    continue;
                }
                let Some(p) = self.source_path(origin, v, now) else {
                    continue;
                };
                let ledger = ChunkLedger::new(gb, self.eng.config().chunk_gb);
                let owner = EngineOwner::Consistency {
                    source: origin,
                    dest: v,
                };
                self.begin(now, owner, FlowTier::Scheduled, None, ledger, &[p]);
            }
        }
        if self.trace_debug {
            obs::emit_debug(
                "sim",
                "sim.run",
                "consistency.sync",
                &[
                    ("dataset", d.index().into()),
                    ("replicas_synced", synced.into()),
                    ("gb", (gb * synced as f64).into()),
                ],
            );
        }
    }

    fn on_scrub(&mut self, now: SimTime) {
        let interval = self
            .cfg
            .scrub_interval_s
            .expect("scrub scheduled only with config");
        let (actions, _outcome) = repair::scrub(
            now.as_secs_f64(),
            self.inst,
            &self.planning_view(),
            &self.alive,
            &self.target_counts,
        );
        self.schedule_repairs(now, actions);
        // Keep scrubbing until the query phase has drained.
        if now <= self.query_horizon {
            self.queue.push(now.after_secs(interval), Event::Scrub);
        }
    }

    fn on_slo_sample(&mut self, now: SimTime) {
        let interval = self
            .cfg
            .slo_sample_interval_s
            .expect("sample scheduled only with config");
        let sample = self.slo_sample(now.as_secs_f64());
        self.tally.slo_series.push(sample);
        // Keep sampling until the query phase has drained.
        if now <= self.query_horizon {
            self.queue.push(now.after_secs(interval), Event::SloSample);
        }
    }

    /// The live plan plus every in-flight repair's target, so repair
    /// planners never double-book a replica slot.
    fn planning_view(&self) -> Solution {
        let mut planning = self.live_sol.clone();
        for j in &self.jobs {
            if let XferKind::Repair {
                dataset,
                dest_epoch,
            } = j.kind
            {
                if !j.resolved && self.node_epoch[j.dest.index()] == dest_epoch {
                    planning.place_replica(dataset, j.dest);
                }
            }
        }
        planning
    }

    fn schedule_repairs(&mut self, now: SimTime, actions: Vec<repair::RepairAction>) {
        for a in actions {
            self.tally.repairs_scheduled += 1;
            let kind = XferKind::Repair {
                dataset: a.dataset,
                dest_epoch: self.node_epoch[a.target.index()],
            };
            self.new_job(now, kind, a.target, a.gb);
        }
        self.pump(now);
    }

    /// Creates a transfer job and launches it at once.
    fn new_job(&mut self, now: SimTime, kind: XferKind, dest: ComputeNodeId, gb: f64) {
        self.jobs.push(XferJob {
            kind,
            dest,
            gb,
            attempts: 0,
            resolved: false,
            born: now,
            parked: None,
            active: None,
        });
        self.launch(now, self.jobs.len() - 1);
    }

    /// Builds the [`SourcePath`] for one (source, dest) pair, or `None`
    /// when the path is partitioned right now.
    fn source_path(
        &self,
        source: ComputeNodeId,
        dest: ComputeNodeId,
        now: SimTime,
    ) -> Option<SourcePath> {
        let factor = self.fault_plan.link_factor(source, dest, now.as_secs_f64());
        if factor.is_infinite() {
            return None;
        }
        Some(SourcePath {
            node: source.index(),
            delay_s_per_gb: self.inst.cloud().min_delay(source, dest),
            factor,
        })
    }

    /// Every reachable live holder of `dataset` (nearest first), as engine
    /// source paths; truncated to the single nearest when multi-source
    /// fetch is off.
    fn repair_sources(
        &self,
        dataset: DatasetId,
        dest: ComputeNodeId,
        now: SimTime,
    ) -> Vec<SourcePath> {
        let mut srcs: Vec<SourcePath> =
            repair::pick_sources(self.inst, &self.live_sol, &self.alive, dataset, dest)
                .into_iter()
                .filter_map(|s| self.source_path(s, dest, now))
                .collect();
        if !self.eng.config().multi_source {
            srcs.truncate(1);
        }
        srcs
    }

    /// Launches job `job` on the engine — resuming its parked ledger —
    /// or, while it has no usable source, retries it with capped
    /// exponential backoff and finally abandons it (counted, never a
    /// panic).
    fn launch(&mut self, now: SimTime, job: usize) {
        let j = &self.jobs[job];
        if j.resolved || j.active.is_some() {
            return; // delivered, abandoned, or relaunched by an earlier event
        }
        let (dest, attempts) = (j.dest, j.attempts);
        let (label, tier, dataset, srcs) = match j.kind {
            XferKind::Result { q, source, .. } => {
                if self.runs[q.index()].is_none() {
                    self.jobs[job].resolved = true; // poisoned
                    return;
                }
                let srcs: Vec<SourcePath> =
                    self.source_path(source, dest, now).into_iter().collect();
                ("result", FlowTier::Immediate, None, srcs)
            }
            XferKind::Repair {
                dataset,
                dest_epoch,
            } => {
                if self.node_epoch[dest.index()] != dest_epoch {
                    self.jobs[job].resolved = true; // target died
                    return;
                }
                let srcs = self.repair_sources(dataset, dest, now);
                ("repair", FlowTier::Background, Some(dataset), srcs)
            }
        };
        if srcs.is_empty() {
            if attempts < XFER_MAX_ATTEMPTS {
                self.jobs[job].attempts += 1;
                match dataset {
                    None => self.tally.transfer_retries += 1,
                    Some(_) => self.tally.repair_retries += 1,
                }
                self.queue.push(
                    now.after_secs(backoff_s(attempts)),
                    Event::RetryTransfer { job },
                );
                return;
            }
            // No live holder at all, or holders exist but every path is
            // partitioned.
            self.jobs[job].resolved = true;
            let dead_source = dataset.is_some_and(|d| {
                repair::pick_sources(self.inst, &self.live_sol, &self.alive, d, dest).is_empty()
            });
            let reason = if dead_source {
                self.tally.abandoned_dead_source += 1;
                "dead-source"
            } else {
                self.tally.abandoned_partitioned += 1;
                "partitioned"
            };
            if let XferKind::Result { q, .. } = self.jobs[job].kind {
                // The result never got home: the query is lost, not the run.
                self.runs[q.index()] = None;
                self.tally.queries_lost += 1;
            }
            obs::emit(
                "sim",
                "sim.run",
                "transfer.abandoned",
                &[
                    ("kind", label.into()),
                    ("reason", reason.into()),
                    ("job", job.into()),
                    ("attempts", (attempts as usize).into()),
                ],
            );
            return;
        }
        let chunk_gb = self.eng.config().chunk_gb;
        let j = &mut self.jobs[job];
        let ledger = j
            .parked
            .take()
            .unwrap_or_else(|| ChunkLedger::new(j.gb, chunk_gb));
        if ledger.verified_count() > 0 {
            self.tally.transfer_resumes += 1;
            self.tally.chunk_gb_saved += ledger.verified_gb();
            obs::emit(
                "sim",
                "sim.run",
                "transfer.resume",
                &[
                    ("kind", label.into()),
                    ("job", job.into()),
                    ("verified_gb", ledger.verified_gb().into()),
                    ("missing_gb", ledger.missing_gb().into()),
                ],
            );
        }
        let dataset = dataset.map(|d| d.index());
        let tid = self.begin(now, EngineOwner::Job(job), tier, dataset, ledger, &srcs);
        self.jobs[job].active = Some(tid);
    }

    /// Starts an engine transfer on behalf of `owner`.
    fn begin(
        &mut self,
        now: SimTime,
        owner: EngineOwner,
        tier: FlowTier,
        dataset: Option<usize>,
        ledger: ChunkLedger,
        sources: &[SourcePath],
    ) -> usize {
        let tid = self.eng.begin(now, tier, dataset, ledger, sources);
        debug_assert_eq!(tid, self.owners.len());
        self.owners.push(owner);
        tid
    }

    /// Interrupts job `job`'s in-flight transfer `tid`: the ledger
    /// (verified chunks intact unless resume is off) is parked on the job
    /// and a retry is scheduled immediately — [`Sim::launch`] owns backoff
    /// and abandonment.
    fn park(&mut self, now: SimTime, tid: usize, job: usize) {
        let mut ledger = self.eng.cancel(now, tid);
        if !self.eng.config().resume {
            ledger.reset();
        }
        self.jobs[job].parked = Some(ledger);
        self.jobs[job].active = None;
        self.queue.push(now, Event::RetryTransfer { job });
    }

    /// Cancels job `job`'s in-flight transfer `tid` for good.
    fn void(&mut self, now: SimTime, tid: usize, job: usize) {
        self.eng.cancel(now, tid);
        self.jobs[job].resolved = true;
        self.jobs[job].active = None;
    }

    /// Re-prices every in-flight transfer after a node or link transition:
    /// path factors are re-read from the fault plan; transfers touching a
    /// dead node are dropped (fire-and-forget traffic) or voided (results
    /// of poisoned queries, repairs whose target died); partitioned
    /// results and repairs left without a reachable holder park; repair
    /// swarms are recomputed over the reachable live holders.
    fn refresh_flows(&mut self, now: SimTime) {
        for tid in self.eng.live().to_vec() {
            if self.eng.is_done(tid) {
                continue; // finished while an earlier transfer re-settled
            }
            match self.owners[tid] {
                EngineOwner::Consistency { source, dest }
                | EngineOwner::Gather { source, dest } => {
                    let path = self.source_path(source, dest, now);
                    match path.filter(|_| self.alive[source.index()] && self.alive[dest.index()]) {
                        Some(p) => self.eng.set_sources(now, tid, &[p]),
                        None => {
                            self.eng.cancel(now, tid);
                        }
                    }
                }
                EngineOwner::Job(job) => {
                    let j = &self.jobs[job];
                    let srcs = match j.kind {
                        XferKind::Result { q, source, .. } => {
                            // A source death poisoned the run: its in-flight
                            // bytes die with it.
                            if self.runs[q.index()].is_none() {
                                self.void(now, tid, job);
                                continue;
                            }
                            self.source_path(source, j.dest, now).into_iter().collect()
                        }
                        XferKind::Repair {
                            dataset,
                            dest_epoch,
                        } => {
                            if self.node_epoch[j.dest.index()] != dest_epoch {
                                self.void(now, tid, job); // target died
                                continue;
                            }
                            self.repair_sources(dataset, j.dest, now)
                        }
                    };
                    if srcs.is_empty() {
                        self.park(now, tid, job);
                    } else {
                        self.eng.set_sources(now, tid, &srcs);
                    }
                }
            }
        }
    }

    /// Drains engine completions due by `now` (pushing `TransferDone` /
    /// `RepairDone` at the completion instant) and keeps exactly one
    /// fresh `FlowProgress` event queued at the engine's next predicted
    /// completion.
    fn pump(&mut self, now: SimTime) {
        for tid in self.eng.advance(now) {
            let dur = now.secs_since(self.eng.started(tid));
            let ti = self.eng.tier(tid).index();
            self.tally.tier_sum_s[ti] += dur;
            self.tally.tier_count[ti] += 1;
            let EngineOwner::Job(job) = self.owners[tid] else {
                continue;
            };
            let j = &mut self.jobs[job];
            j.resolved = true;
            j.active = None;
            match j.kind {
                XferKind::Result { q, demand, .. } => {
                    self.tally.transfer_durations.push(dur);
                    self.queue.push(now, Event::TransferDone { q, demand });
                }
                XferKind::Repair { .. } => self.queue.push(now, Event::RepairDone { job }),
            }
        }
        if let Some((at, generation)) = self.eng.next_event() {
            if generation != self.last_pushed_gen {
                self.last_pushed_gen = generation;
                self.queue.push(at, Event::FlowProgress { generation });
            }
        }
    }

    /// Snapshot of SLO state at `t_s` (see
    /// [`SimConfig::slo_sample_interval_s`]).
    fn slo_sample(&self, t_s: f64) -> SloSample {
        let t = &self.tally;
        let misses = t
            .completed
            .iter()
            .filter(|&&(q, arrival, finish)| {
                finish.as_secs_f64() - arrival.as_secs_f64() > self.inst.query(q).deadline + 1e-9
            })
            .count();
        SloSample {
            t_s,
            availability: availability(t.queries_lost, self.plan.admitted_count()),
            qos_miss_rate: if t.completed.is_empty() {
                0.0
            } else {
                misses as f64 / t.completed.len() as f64
            },
            repair_backlog: t.repairs_scheduled.saturating_sub(t.repairs_completed),
            prefetch_gb: t.replication_gb + t.repair_gb,
            forecast_wmape: None,
        }
    }

    /// Closes the run: final SLO sample, downtime of nodes still down,
    /// metric flush, and the report.
    fn finish(mut self, algorithm: &'static str) -> TestbedReport {
        let inst = self.inst;
        let last_event_t = self.tally.last_event_t;
        if self.cfg.slo_sample_interval_s.is_some() {
            // Close the series at drain time so the final state is always
            // a row even when the run is shorter than one interval.
            let sample = self.slo_sample(last_event_t.as_secs_f64());
            self.tally.slo_series.push(sample);
        }
        let t = self.tally;
        let mut node_downtime_s = t.node_downtime_s;
        // Nodes still down when the sim drains accrue downtime to the end.
        for t0 in self.down_since.into_iter().flatten() {
            node_downtime_s += last_event_t.as_secs_f64() - t0.as_secs_f64();
        }
        let mut measured_volume = 0.0;
        let mut measured_admitted = 0usize;
        let mut response_sum = 0.0;
        let mut response_max: f64 = 0.0;
        let mut responses = Vec::with_capacity(t.completed.len());
        for &(q, arrival, finish) in &t.completed {
            let resp = finish.as_secs_f64() - arrival.as_secs_f64();
            response_sum += resp;
            response_max = response_max.max(resp);
            responses.push(resp);
            if resp <= inst.query(q).deadline + 1e-9 {
                measured_admitted += 1;
                measured_volume += inst.demanded_volume(q);
            }
        }
        responses.sort_by(|a, b| a.partial_cmp(b).expect("finite responses"));
        let percentile = |p: f64| -> f64 {
            if responses.is_empty() {
                0.0
            } else {
                let idx = ((responses.len() as f64 - 1.0) * p).round() as usize;
                responses[idx]
            }
        };
        let plan = self.plan;
        let planned_admitted = plan.admitted_count();
        let mean_queue_wait_s = if t.demands_started == 0 {
            0.0
        } else {
            t.queue_wait_sum_s / t.demands_started as f64
        };
        // Sorted-order sums: the mean depends only on the multiset of
        // durations, never on completion order.
        let sorted_mean = |mut v: Vec<f64>| -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
            let n = v.len() as f64;
            v.into_iter().sum::<f64>() / n
        };
        let mean_transfer_s = sorted_mean(t.transfer_durations);
        let repair_completion_mean_s = sorted_mean(t.repair_durations);
        let tier_completion_mean_s = std::array::from_fn(|i| {
            if t.tier_count[i] == 0 {
                0.0
            } else {
                t.tier_sum_s[i] / t.tier_count[i] as f64
            }
        });
        let availability = availability(t.queries_lost, planned_admitted);
        let storage_gb = plan.storage_gb(inst);
        let abandoned = t.abandoned_dead_source + t.abandoned_partitioned;
        for (name, n) in [
            ("sim.events", t.events_processed),
            ("sim.demands", t.demands_started),
            ("sim.demands_queued", t.demands_queued),
            ("sim.failovers", t.failovers as u64),
            ("sim.queries_lost", t.queries_lost as u64),
            ("sim.repairs_scheduled", t.repairs_scheduled as u64),
            ("sim.repairs_completed", t.repairs_completed as u64),
            ("sim.repair_retries", t.repair_retries as u64),
            ("sim.transfer_retries", t.transfer_retries as u64),
            ("sim.transfer_resumes", t.transfer_resumes as u64),
            ("sim.transfers_abandoned", abandoned as u64),
        ] {
            obs::counter(name).add(n);
        }
        obs::gauge("sim.peak_event_queue").set_max(t.peak_event_queue as f64);
        obs::gauge("sim.node_downtime_s").set_max(node_downtime_s);
        obs::emit(
            "sim",
            "sim.run",
            "sim.summary",
            &[
                ("algorithm", algorithm.into()),
                ("events", t.events_processed.into()),
                ("peak_event_queue", t.peak_event_queue.into()),
                ("demands", t.demands_started.into()),
                ("demands_queued", t.demands_queued.into()),
                ("mean_queue_wait_s", mean_queue_wait_s.into()),
                ("mean_transfer_s", mean_transfer_s.into()),
                ("consistency_gb", t.consistency_gb.into()),
                ("consistency_rounds", t.consistency_rounds.into()),
                ("measured_admitted", measured_admitted.into()),
                ("failovers", t.failovers.into()),
                ("degraded_reads", t.degraded_reads.into()),
                ("storage_gb", storage_gb.into()),
                ("queries_lost", t.queries_lost.into()),
                ("repairs_scheduled", t.repairs_scheduled.into()),
                ("repairs_completed", t.repairs_completed.into()),
                ("transfer_resumes", t.transfer_resumes.into()),
                ("chunk_gb_saved", t.chunk_gb_saved.into()),
                ("abandoned_dead_source", t.abandoned_dead_source.into()),
                ("abandoned_partitioned", t.abandoned_partitioned.into()),
                ("availability", availability.into()),
            ],
        );
        let total_queries = inst.queries().len();
        TestbedReport {
            algorithm,
            planned_volume: plan.admitted_volume(inst),
            planned_admitted,
            measured_volume,
            measured_admitted,
            total_queries,
            measured_throughput: if total_queries == 0 {
                0.0
            } else {
                measured_admitted as f64 / total_queries as f64
            },
            mean_response_s: if t.completed.is_empty() {
                0.0
            } else {
                response_sum / t.completed.len() as f64
            },
            p50_response_s: percentile(0.5),
            p95_response_s: percentile(0.95),
            max_response_s: response_max,
            replication_gb: t.replication_gb,
            replication_time_s: t.replication_time_s,
            consistency_gb: t.consistency_gb,
            consistency_rounds: t.consistency_rounds,
            failovers: t.failovers,
            degraded_reads: t.degraded_reads,
            storage_gb,
            queries_lost_to_faults: t.queries_lost,
            repairs_scheduled: t.repairs_scheduled,
            repairs_completed: t.repairs_completed,
            repair_gb: t.repair_gb,
            repair_retries: t.repair_retries,
            transfer_retries: t.transfer_retries,
            transfer_resumes: t.transfer_resumes,
            chunk_gb_saved: t.chunk_gb_saved,
            abandoned_dead_source: t.abandoned_dead_source,
            abandoned_partitioned: t.abandoned_partitioned,
            repair_completion_mean_s,
            tier_completion_mean_s,
            node_downtime_s,
            availability,
            qos_miss_dumps: t.qos_miss_dumps,
            live_plan: self.live_sol,
            mean_queue_wait_s,
            mean_transfer_s,
            events_processed: t.events_processed,
            peak_event_queue: t.peak_event_queue,
            answers: t.answers,
            slo_series: t.slo_series,
            plan,
        }
    }
}

/// Fraction of `planned_admitted` queries not lost (`1.0` when nothing
/// was planned).
fn availability(queries_lost: usize, planned_admitted: usize) -> f64 {
    if planned_admitted == 0 {
        1.0
    } else {
        (1.0 - queries_lost as f64 / planned_admitted as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_testbed_instance, TestbedConfig};
    use edgerep_core::appro::{ApproG, ApproS};
    use edgerep_core::popularity::Popularity;

    /// One run under `faults` (permanent node failures; empty = none).
    fn run(
        alg: &dyn PlacementAlgorithm,
        world: &TestbedWorld,
        cfg: &SimConfig,
        faults: &[NodeFailure],
    ) -> TestbedReport {
        try_run_testbed_with_plan(alg, world, cfg, &FaultPlan::from_failures(faults)).unwrap()
    }

    fn small_world(f: usize, k: usize) -> TestbedWorld {
        let cfg = TestbedConfig {
            trace: edgerep_workload::mobile_trace::TraceConfig {
                users: 200,
                apps: 30,
                days: 10,
                ..Default::default()
            },
            windows: 6,
            query_count: 20,
            ..Default::default()
        }
        .with_max_datasets_per_query(f)
        .with_max_replicas(k);
        build_testbed_instance(&cfg, 11)
    }

    #[test]
    fn run_produces_consistent_accounting() {
        let world = small_world(2, 3);
        let report = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        assert_eq!(report.total_queries, 20);
        assert!(report.measured_admitted <= report.planned_admitted);
        assert!(report.p50_response_s <= report.p95_response_s);
        assert!(report.p95_response_s <= report.max_response_s + 1e-12);
        assert!(report.p50_response_s >= 0.0);
        assert!(report.measured_volume <= report.planned_volume + 1e-9);
        assert!(report.measured_throughput <= 1.0);
        assert!(report.replication_gb >= 0.0);
        assert!(report.events_processed > 0);
        assert!(report.peak_event_queue >= 1);
        assert!(report.mean_queue_wait_s >= 0.0);
        assert!(report.mean_transfer_s >= 0.0);
        // Every completed query got an answer.
        assert_eq!(
            report.answers.len(),
            report.plan.admitted_count(),
            "all planned-admitted queries complete eventually"
        );
    }

    #[test]
    fn slo_sampling_produces_a_monotone_series() {
        let world = small_world(2, 3);
        let cfg = SimConfig {
            slo_sample_interval_s: Some(5.0),
            ..Default::default()
        };
        let report = run(&ApproG::default(), &world, &cfg, &[]);
        assert!(!report.slo_series.is_empty(), "sampling on → rows");
        for pair in report.slo_series.windows(2) {
            assert!(pair[0].t_s <= pair[1].t_s, "t_s must be monotone");
        }
        for s in &report.slo_series {
            assert!((0.0..=1.0).contains(&s.availability), "{s:?}");
            assert!((0.0..=1.0).contains(&s.qos_miss_rate), "{s:?}");
            assert!(s.prefetch_gb >= 0.0, "{s:?}");
            assert_eq!(s.forecast_wmape, None, "plain sim has no forecaster");
        }
        // The closing sample reflects the final report state.
        let last = report.slo_series.last().unwrap();
        assert!((last.availability - report.availability).abs() < 1e-9);
        // Sampling must not perturb the simulation itself.
        let plain = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        assert_eq!(plain.measured_admitted, report.measured_admitted);
        assert_eq!(plain.measured_volume, report.measured_volume);
    }

    #[test]
    fn deterministic_given_seeds() {
        let world = small_world(2, 3);
        let a = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        let b = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        assert_eq!(a.measured_admitted, b.measured_admitted);
        assert_eq!(a.measured_volume, b.measured_volume);
        assert_eq!(a.mean_response_s, b.mean_response_s);
    }

    #[test]
    fn appro_beats_popularity_on_the_testbed() {
        // The Fig. 7/8 headline, at one configuration point.
        let world = small_world(3, 2);
        let appro = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        let pop = run(&Popularity::general(), &world, &SimConfig::default(), &[]);
        assert!(
            appro.measured_volume >= pop.measured_volume,
            "appro {} < popularity {}",
            appro.measured_volume,
            pop.measured_volume
        );
    }

    #[test]
    fn single_dataset_world_runs_with_appro_s() {
        let world = small_world(1, 3);
        let report = run(&ApproS::default(), &world, &SimConfig::default(), &[]);
        assert!(report.measured_admitted <= report.total_queries);
    }

    #[test]
    fn consistency_updates_account_traffic() {
        let world = small_world(2, 3);
        let cfg = SimConfig {
            arrival_rate_per_s: 0.05, // long horizon: many check intervals
            consistency: Some(ConsistencyConfig {
                growth_gb_per_hour: 100.0, // aggressive growth
                threshold: 0.05,
                check_interval_s: 10.0,
            }),
            seed: 3,
            ..Default::default()
        };
        let report = run(&ApproG::default(), &world, &cfg, &[]);
        assert!(
            report.consistency_rounds > 0,
            "aggressive growth must trigger synchronization"
        );
        assert!(report.consistency_gb > 0.0);
    }

    #[test]
    fn no_consistency_config_no_traffic() {
        let world = small_world(2, 3);
        let report = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        assert_eq!(report.consistency_rounds, 0);
        assert_eq!(report.consistency_gb, 0.0);
    }

    #[test]
    fn rejected_queries_never_execute() {
        let world = small_world(4, 1); // tight K: rejections guaranteed
        let report = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        let planned = report.planned_admitted;
        assert!(
            planned < report.total_queries,
            "need rejections for this test"
        );
        assert!(report.answers.len() <= planned);
    }

    #[test]
    fn nic_contention_only_slows_things_down() {
        // A FIFO egress can only delay flows relative to uncontended ones.
        assert_nic_contention_only_slows(TransferModel::PointToPoint);
    }

    #[test]
    fn chunked_nic_contention_only_slows_things_down() {
        // The same bound holds when transfers run through the chunked
        // preset, which queues its flows on the same FIFO egress.
        assert_nic_contention_only_slows(
            TransferModel::Chunked(transfer::ChunkedConfig::default()),
        );
    }

    fn assert_nic_contention_only_slows(transfer: TransferModel) {
        let world = small_world(3, 3);
        let storm = SimConfig {
            arrival_rate_per_s: 50.0, // heavy overlap: NICs matter
            transfer,
            ..Default::default()
        };
        let free = SimConfig {
            nic_contention: false,
            ..storm
        };
        let with_nic = run(&ApproG::default(), &world, &storm, &[]);
        let without = run(&ApproG::default(), &world, &free, &[]);
        assert!(
            with_nic.mean_response_s >= without.mean_response_s - 1e-9,
            "{transfer:?}: serialized NICs cannot be faster ({} vs {})",
            with_nic.mean_response_s,
            without.mean_response_s
        );
        assert!(with_nic.measured_admitted <= without.measured_admitted);
    }

    #[test]
    fn chunked_without_faults_is_byte_identical_to_p2p() {
        // With no faults the chunked preset coalesces every transfer into
        // a single flow priced by the same `(delay/GB * GB) * factor`
        // product as a point-to-point flow, and both presets queue flows
        // on the same FIFO egress, so every completion lands on the same
        // microsecond and the two reports agree bit for bit — with egress
        // contention on and off.
        let world = small_world(2, 3);
        for nic_contention in [false, true] {
            let base = SimConfig {
                nic_contention,
                consistency: Some(ConsistencyConfig {
                    growth_gb_per_hour: 100.0,
                    threshold: 0.05,
                    check_interval_s: 10.0,
                }),
                arrival_rate_per_s: 0.05,
                seed: 3,
                ..Default::default()
            };
            let chunked_cfg = SimConfig {
                transfer: TransferModel::Chunked(transfer::ChunkedConfig::default()),
                ..base
            };
            let p2p = run(&ApproG::default(), &world, &base, &[]);
            let ch = run(&ApproG::default(), &world, &chunked_cfg, &[]);
            assert_eq!(p2p.measured_admitted, ch.measured_admitted);
            assert_eq!(p2p.measured_volume.to_bits(), ch.measured_volume.to_bits());
            assert_eq!(p2p.mean_response_s.to_bits(), ch.mean_response_s.to_bits());
            assert_eq!(p2p.p50_response_s.to_bits(), ch.p50_response_s.to_bits());
            assert_eq!(p2p.p95_response_s.to_bits(), ch.p95_response_s.to_bits());
            assert_eq!(p2p.max_response_s.to_bits(), ch.max_response_s.to_bits());
            assert_eq!(p2p.mean_transfer_s.to_bits(), ch.mean_transfer_s.to_bits());
            assert_eq!(
                p2p.mean_queue_wait_s.to_bits(),
                ch.mean_queue_wait_s.to_bits()
            );
            assert_eq!(p2p.availability.to_bits(), ch.availability.to_bits());
            assert_eq!(p2p.consistency_rounds, ch.consistency_rounds);
            assert!(p2p.consistency_rounds > 0, "exercise the scheduled tier");
            assert_eq!(p2p.consistency_gb.to_bits(), ch.consistency_gb.to_bits());
            assert_eq!(p2p.answers.len(), ch.answers.len());
            // No faults: nothing to resume or abandon in either preset.
            assert_eq!(ch.transfer_resumes, 0);
            assert_eq!(ch.chunk_gb_saved, 0.0);
            assert_eq!(ch.abandoned_dead_source, 0);
            assert_eq!(ch.abandoned_partitioned, 0);
        }
    }

    #[test]
    fn chunked_populates_tier_stats() {
        let world = small_world(2, 3);
        let cfg = SimConfig {
            transfer: TransferModel::Chunked(transfer::ChunkedConfig::default()),
            ..Default::default()
        };
        let report = run(&ApproG::default(), &world, &cfg, &[]);
        // Result shipping rides the immediate tier; no repairs or
        // consistency pushes ran, so the other tiers stay empty.
        assert!(report.tier_completion_mean_s[0] > 0.0);
        assert_eq!(report.tier_completion_mean_s[1], 0.0);
        assert_eq!(report.tier_completion_mean_s[2], 0.0);
        assert_eq!(report.repair_completion_mean_s, 0.0);
        assert!(report.mean_transfer_s > 0.0);
    }

    #[test]
    fn replication_skips_origin_copies() {
        // A plan whose only replica sits at the origin moves zero bytes.
        let world = small_world(1, 1);
        let report = run(&ApproG::default(), &world, &SimConfig::default(), &[]);
        // Volume moved is bounded by replicas * max size.
        let max_possible: f64 = world
            .instance
            .datasets()
            .iter()
            .map(|d| d.size_gb * world.instance.max_replicas() as f64)
            .sum();
        assert!(report.replication_gb <= max_possible + 1e-9);
    }

    use edgerep_model::{Demand, EdgeCloudBuilder, Instance, InstanceBuilder, RedundancyScheme};

    /// Serves a pre-built plan — lets fault tests pin exact shard layouts.
    struct FixedPlan(Solution);

    impl PlacementAlgorithm for FixedPlan {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn solve(&self, _inst: &Instance) -> Solution {
            self.0.clone()
        }
    }

    /// dc —0.05— c0 —0.1— c1 —0.1— c2, one 4 GB dataset at the DC striped
    /// ec(2,1) (shards on c0, c1, c2), two queries homed and served at
    /// c0 / c1. Killing c2 loses one parity shard (degraded reads);
    /// killing c1 and c2 drops below the k = 2 quorum.
    fn tiny_ec_world() -> (TestbedWorld, Solution) {
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
        ib.set_default_scheme(RedundancyScheme::erasure(2, 1).unwrap());
        let d0 = ib.add_dataset(4.0, dc);
        ib.add_query(c0, vec![Demand::new(d0, 0.5)], 0.5, 10.0);
        ib.add_query(c1, vec![Demand::new(d0, 0.5)], 0.5, 10.0);
        let inst = ib.build().unwrap();
        let mut plan = Solution::empty(&inst);
        for v in [c0, c1, c2] {
            plan.place_replica(d0, v);
        }
        plan.assign_query(QueryId(0), vec![c0]);
        plan.assign_query(QueryId(1), vec![c1]);
        plan.validate(&inst)
            .expect("hand-built EC plan is feasible");
        let world = TestbedWorld {
            instance: inst,
            regions: vec![crate::geo::Region::Metro; 4],
            records: vec![Vec::new()],
            query_kinds: vec![crate::analytics::AnalyticsKind::TopApps { k: 3 }; 2],
        };
        (world, plan)
    }

    #[test]
    fn ec_fault_degrades_reads_without_losing_queries() {
        // One of three shards dies before any arrival: both queries still
        // read (their own shard + the surviving co-holder's ≥ k = 2), but
        // every read is counted degraded — served, not lost.
        let (world, plan) = tiny_ec_world();
        let faults = [NodeFailure {
            node: ComputeNodeId(3), // c2: pure shard holder, serves nothing
            at_s: 0.0,
        }];
        let report = run(&FixedPlan(plan), &world, &SimConfig::default(), &faults);
        assert_eq!(report.degraded_reads, 2, "both arrivals read 2 of 3 shards");
        assert_eq!(report.queries_lost_to_faults, 0);
        assert_eq!(report.measured_admitted, 2);
        assert_eq!(report.availability, 1.0);
    }

    #[test]
    fn ec_below_quorum_loses_queries() {
        // Two of three shards die: one survivor < k = 2, so reads cannot
        // reconstruct and the queries are lost — availability, not delay.
        let (world, plan) = tiny_ec_world();
        let faults = [
            NodeFailure {
                node: ComputeNodeId(2), // c1
                at_s: 0.0,
            },
            NodeFailure {
                node: ComputeNodeId(3), // c2
                at_s: 0.0,
            },
        ];
        let report = run(&FixedPlan(plan), &world, &SimConfig::default(), &faults);
        assert_eq!(report.queries_lost_to_faults, 2, "1 live shard < k = 2");
        assert_eq!(report.measured_admitted, 0);
        assert_eq!(report.degraded_reads, 0);
        assert_eq!(report.availability, 0.0);
    }

    #[test]
    fn ec_reads_charge_gather_and_decode_time() {
        // No faults: nothing is degraded, but every EC read still pays the
        // shard gather (0.1 s/GB × 2 GB from the nearest co-holder) plus
        // the decode (0.02 s/GB × 4 GB) on top of local processing.
        let (world, plan) = tiny_ec_world();
        let report = run(&FixedPlan(plan), &world, &SimConfig::default(), &[]);
        assert_eq!(report.degraded_reads, 0);
        assert_eq!(report.measured_admitted, 2);
        // proc 0.04 + gather 0.2 + decode 0.08 = 0.32 s, no result delay
        // (home == serving node).
        assert!(
            (report.max_response_s - 0.32).abs() < 1e-9,
            "got {}",
            report.max_response_s
        );
        // Three shard copies of 2 GB each left the origin.
        assert!((report.replication_gb - 6.0).abs() < 1e-9);
        assert!((report.storage_gb - 6.0).abs() < 1e-9);
    }

    #[test]
    fn scrubber_rebuilds_lost_shards_in_background() {
        // Repair is OFF: only the periodic scrubber notices the lost
        // parity shard, re-encodes it from the k = 2 survivors (charged
        // k × |S|/k = 4 GB of read volume), and restores the full set.
        let (world, plan) = tiny_ec_world();
        let d0 = world.instance.dataset_ids().next().unwrap();
        let faults = [NodeFailure {
            node: ComputeNodeId(3), // c2
            at_s: 0.0,
        }];
        let cfg = SimConfig {
            scrub_interval_s: Some(2.0),
            arrival_rate_per_s: 0.05, // long horizon: several scrub passes
            repair: false,
            ..Default::default()
        };
        let report = run(&FixedPlan(plan), &world, &cfg, &faults);
        assert!(report.repairs_scheduled >= 1, "scrub found the lost shard");
        assert_eq!(
            report.repairs_completed, 1,
            "rebuilt once, then clean passes"
        );
        assert!((report.repair_gb - 4.0).abs() < 1e-9, "k × shard volume");
        assert_eq!(report.live_plan.replica_count(d0), 3, "full set restored");
        assert_eq!(report.queries_lost_to_faults, 0);
    }

    fn small_world_scheme(f: usize, k: usize, scheme: RedundancyScheme) -> TestbedWorld {
        let cfg = TestbedConfig {
            trace: edgerep_workload::mobile_trace::TraceConfig {
                users: 200,
                apps: 30,
                days: 10,
                ..Default::default()
            },
            windows: 6,
            query_count: 20,
            ..Default::default()
        }
        .with_max_datasets_per_query(f)
        .with_max_replicas(k)
        .with_redundancy(scheme);
        build_testbed_instance(&cfg, 11)
    }

    #[test]
    fn ec_k1_is_byte_identical_to_replication() {
        // ErasureCoded{k: 1, m: r − 1} stores r full-size shards, needs no
        // decode, and has zero read overhead — with faults off it must be
        // indistinguishable from Replication{r}, bit for bit, end to end
        // (controller, replication phase, query phase, report).
        let rep_world = small_world(2, 3);
        let ec_world = small_world_scheme(2, 3, RedundancyScheme::erasure(1, 2).unwrap());
        let cfg = SimConfig::default();
        let a = run(&ApproG::default(), &rep_world, &cfg, &[]);
        let b = run(&ApproG::default(), &ec_world, &cfg, &[]);
        assert_eq!(a.planned_admitted, b.planned_admitted);
        assert_eq!(a.measured_admitted, b.measured_admitted);
        assert_eq!(a.measured_volume.to_bits(), b.measured_volume.to_bits());
        assert_eq!(a.mean_response_s.to_bits(), b.mean_response_s.to_bits());
        assert_eq!(a.p50_response_s.to_bits(), b.p50_response_s.to_bits());
        assert_eq!(a.p95_response_s.to_bits(), b.p95_response_s.to_bits());
        assert_eq!(a.max_response_s.to_bits(), b.max_response_s.to_bits());
        assert_eq!(a.mean_transfer_s.to_bits(), b.mean_transfer_s.to_bits());
        assert_eq!(a.mean_queue_wait_s.to_bits(), b.mean_queue_wait_s.to_bits());
        assert_eq!(a.availability.to_bits(), b.availability.to_bits());
        assert_eq!(a.replication_gb.to_bits(), b.replication_gb.to_bits());
        assert_eq!(a.storage_gb.to_bits(), b.storage_gb.to_bits());
        assert_eq!(b.degraded_reads, 0);
    }
}
