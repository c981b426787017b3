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
    /// Serialize result transfers on each node's egress NIC (FIFO). When
    /// off, transfers overlap freely (pure path-delay model).
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
    /// Which data-movement model the run uses: the legacy point-to-point
    /// flows, or the chunked resumable multi-source engine
    /// ([`crate::transfer`]). With the chunked engine,
    /// [`SimConfig::nic_contention`] `false` maps to uncontended
    /// (infinite) NICs in the fluid model.
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
    /// Interrupted chunked transfers that relaunched with verified chunks
    /// intact instead of restarting from zero.
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
    /// Mean chunked-flow completion time per priority tier
    /// (`[immediate, scheduled, background]`), seconds; all zero under
    /// the point-to-point model.
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
    /// Mean simulated result-transfer time (including NIC serialization
    /// wait), seconds.
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
    /// Wake the chunked transfer engine at its next predicted chunk
    /// completion. Stale generations (the engine settled again since the
    /// push) are no-ops: the engine is advanced before every event anyway.
    FlowProgress {
        generation: u64,
    },
    /// Snapshot SLO state into the report's time series.
    SloSample,
    /// Periodic erasure-coding scrub pass (see
    /// [`SimConfig::scrub_interval_s`]).
    Scrub,
}

/// What a deferred transfer job carries.
#[derive(Debug, Clone, Copy)]
enum XferKind {
    /// A query result headed home (blocked by a partition when created).
    Result { q: QueryId, demand: usize },
    /// A repair copy restoring a replica of `dataset`.
    Repair { dataset: DatasetId },
}

/// One transfer that may need retrying: repair copies always start here;
/// result transfers land here only when their path is partitioned.
#[derive(Debug, Clone, Copy)]
struct XferJob {
    kind: XferKind,
    source: ComputeNodeId,
    dest: ComputeNodeId,
    gb: f64,
    /// Destination epoch at planning time (repairs only): a mismatch
    /// later means the target died and the job is void.
    dest_epoch: u32,
    attempts: u32,
    /// Launched, delivered, or abandoned — no further retries. The
    /// chunked engine keeps jobs unresolved across interruptions until
    /// they complete or are abandoned, so repair planning still sees
    /// parked jobs as reserving their replica slot.
    resolved: bool,
    /// When the job was created (repair completion latency is measured
    /// from here, across every retry and resume).
    born: SimTime,
}

/// Who owns a chunked-engine transfer.
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

/// The chunked transfer engine plus the simulator-side bookkeeping that
/// maps engine transfer ids back to jobs.
struct ChunkedState {
    eng: transfer::Engine,
    /// Engine transfer id → owner, parallel to the engine's table.
    jobs: Vec<EngineOwner>,
    /// Last `FlowProgress` generation pushed; a matching generation means
    /// the event is already queued at the right instant.
    last_pushed_gen: u64,
}

/// Builds the [`SourcePath`] for one (source, dest) pair, or `None` when
/// the path is partitioned right now.
fn source_path(
    cloud: &edgerep_model::EdgeCloud,
    fault_plan: &FaultPlan,
    source: ComputeNodeId,
    dest: ComputeNodeId,
    now: SimTime,
) -> Option<SourcePath> {
    let factor = fault_plan.link_factor(source, dest, now.as_secs_f64());
    if factor.is_infinite() {
        return None;
    }
    Some(SourcePath {
        node: source.index(),
        delay_s_per_gb: cloud.min_delay(source, dest),
        factor,
    })
}

/// Every reachable live holder of `dataset` (nearest first), as engine
/// source paths; truncated to the single nearest when multi-source fetch
/// is off.
#[allow(clippy::too_many_arguments)]
fn repair_source_paths(
    inst: &edgerep_model::Instance,
    fault_plan: &FaultPlan,
    live_sol: &Solution,
    alive: &[bool],
    dataset: DatasetId,
    dest: ComputeNodeId,
    now: SimTime,
    multi_source: bool,
) -> Vec<SourcePath> {
    let mut srcs: Vec<SourcePath> = repair::pick_sources(inst, live_sol, alive, dataset, dest)
        .into_iter()
        .filter_map(|s| source_path(inst.cloud(), fault_plan, s, dest, now))
        .collect();
    if !multi_source {
        srcs.truncate(1);
    }
    srcs
}

/// Interrupts an in-flight chunked transfer: the ledger (verified chunks
/// intact unless resume is off) is parked on the job and a retry is
/// scheduled immediately — the retry handler owns backoff and abandonment.
fn park_job(
    ch: &mut ChunkedState,
    now: SimTime,
    tid: usize,
    job: usize,
    job_ledger: &mut [Option<ChunkLedger>],
    job_active: &mut [Option<usize>],
    queue: &mut EventQueue<Event>,
) {
    let mut ledger = ch.eng.cancel(now, tid);
    if !ch.eng.config().resume {
        ledger.reset();
    }
    job_ledger[job] = Some(ledger);
    job_active[job] = None;
    queue.push(now, Event::RetryTransfer { job });
}

/// Re-prices every in-flight chunked flow after a link transition: factors
/// are re-read from the fault plan, freshly partitioned flows are parked
/// (results, repairs) or dropped (consistency pushes), and repair swarms
/// are recomputed over the currently reachable holders.
#[allow(clippy::too_many_arguments)]
fn refresh_link_flows(
    ch: &mut ChunkedState,
    now: SimTime,
    inst: &edgerep_model::Instance,
    fault_plan: &FaultPlan,
    live_sol: &Solution,
    alive: &[bool],
    xfer_jobs: &mut [XferJob],
    job_ledger: &mut [Option<ChunkLedger>],
    job_active: &mut [Option<usize>],
    queue: &mut EventQueue<Event>,
) {
    for tid in 0..ch.jobs.len() {
        if ch.eng.is_done(tid) {
            continue;
        }
        match ch.jobs[tid] {
            EngineOwner::Consistency { source, dest } | EngineOwner::Gather { source, dest } => {
                match source_path(inst.cloud(), fault_plan, source, dest, now) {
                    Some(p) => ch.eng.set_sources(now, tid, &[p]),
                    None => {
                        ch.eng.cancel(now, tid);
                    }
                }
            }
            EngineOwner::Job(job) => {
                let j = xfer_jobs[job];
                match j.kind {
                    XferKind::Result { .. } => {
                        match source_path(inst.cloud(), fault_plan, j.source, j.dest, now) {
                            Some(p) => ch.eng.set_sources(now, tid, &[p]),
                            None => {
                                park_job(ch, now, tid, job, job_ledger, job_active, queue);
                            }
                        }
                    }
                    XferKind::Repair { dataset } => {
                        let srcs = repair_source_paths(
                            inst,
                            fault_plan,
                            live_sol,
                            alive,
                            dataset,
                            j.dest,
                            now,
                            ch.eng.config().multi_source,
                        );
                        if srcs.is_empty() {
                            park_job(ch, now, tid, job, job_ledger, job_active, queue);
                        } else {
                            ch.eng.set_sources(now, tid, &srcs);
                        }
                    }
                }
            }
        }
    }
}

/// Drains engine completions due by `now` (pushing the same
/// `TransferDone` / `RepairDone` events the legacy model uses, at the
/// completion instant) and keeps exactly one fresh `FlowProgress` event
/// queued at the engine's next predicted completion.
#[allow(clippy::too_many_arguments)]
fn pump_engine(
    ch: &mut ChunkedState,
    now: SimTime,
    queue: &mut EventQueue<Event>,
    xfer_jobs: &mut [XferJob],
    job_active: &mut [Option<usize>],
    transfer_durations: &mut Vec<f64>,
    tier_sum_s: &mut [f64; 3],
    tier_count: &mut [u64; 3],
) {
    for tid in ch.eng.advance(now) {
        let dur = now.secs_since(ch.eng.started(tid));
        let ti = ch.eng.tier(tid).index();
        tier_sum_s[ti] += dur;
        tier_count[ti] += 1;
        match ch.jobs[tid] {
            EngineOwner::Job(job) => {
                xfer_jobs[job].resolved = true;
                job_active[job] = None;
                match xfer_jobs[job].kind {
                    XferKind::Result { q, demand } => {
                        transfer_durations.push(dur);
                        queue.push(now, Event::TransferDone { q, demand });
                    }
                    XferKind::Repair { .. } => {
                        queue.push(now, Event::RepairDone { job });
                    }
                }
            }
            EngineOwner::Consistency { .. } | EngineOwner::Gather { .. } => {}
        }
    }
    if let Some((at, generation)) = ch.eng.next_event() {
        if generation != ch.last_pushed_gen {
            ch.last_pushed_gen = generation;
            queue.push(at, Event::FlowProgress { generation });
        }
    }
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

/// Runs one full testbed experiment without fault injection.
pub fn run_testbed(
    alg: &dyn PlacementAlgorithm,
    world: &TestbedWorld,
    cfg: &SimConfig,
) -> TestbedReport {
    run_testbed_with_faults(alg, world, cfg, &[])
}

/// Runs one full testbed experiment with injected permanent node
/// failures.
///
/// # Panics
/// Panics on a malformed fault list or an infeasible controller plan —
/// use [`try_run_testbed_with_faults`] to get a [`SimError`] instead.
pub fn run_testbed_with_faults(
    alg: &dyn PlacementAlgorithm,
    world: &TestbedWorld,
    cfg: &SimConfig,
    faults: &[NodeFailure],
) -> TestbedReport {
    try_run_testbed_with_faults(alg, world, cfg, faults).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_testbed_with_faults`] returning malformed inputs as errors
/// instead of aborting.
pub fn try_run_testbed_with_faults(
    alg: &dyn PlacementAlgorithm,
    world: &TestbedWorld,
    cfg: &SimConfig,
    faults: &[NodeFailure],
) -> Result<TestbedReport, SimError> {
    try_run_testbed_with_plan(alg, world, cfg, &FaultPlan::from_failures(faults))
}

/// Runs one full testbed experiment under a [`FaultPlan`]: transient
/// node outages, link degradations and partitions, and — when
/// [`SimConfig::repair`] is set — controller-driven replica repair.
pub fn try_run_testbed_with_plan(
    alg: &dyn PlacementAlgorithm,
    world: &TestbedWorld,
    cfg: &SimConfig,
    fault_plan: &FaultPlan,
) -> Result<TestbedReport, SimError> {
    let inst = &world.instance;
    let cloud = inst.cloud();
    fault_plan.validate(cloud.compute_count())?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let _run_span = obs::span("sim", "sim.run");
    // Per-event tracing is gated once per run; the loop then pays nothing
    // when the `sim` target is disabled.
    let trace_debug = obs::enabled_at("sim", obs::Level::Debug);

    // --- 1. Controller -------------------------------------------------
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

    let planned_admitted = plan.admitted_count();

    // --- 2. Replication phase ------------------------------------------
    let mut replication_gb = 0.0;
    let mut replication_time_s: f64 = 0.0;
    for d in inst.dataset_ids() {
        let origin = inst.dataset(d).origin;
        for &v in plan.replicas_of(d) {
            if v == origin {
                continue; // the origin already holds the data
            }
            // One shard per holder: |S|/k under erasure coding, the full
            // dataset (`shard_gb == size`) under replication.
            let gb = inst.shard_gb(d);
            let t = cloud.min_delay(origin, v) * gb;
            replication_gb += gb;
            replication_time_s = replication_time_s.max(t);
        }
    }

    // --- 3. Query phase --------------------------------------------------
    let mut queue: EventQueue<Event> = EventQueue::new();
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
    let query_horizon = t;
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
    if let Some(interval) = cfg.slo_sample_interval_s {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "slo_sample_interval_s must be positive and finite, got {interval}"
        );
        queue.push(SimTime::from_secs_f64(interval), Event::SloSample);
    }
    if let Some(interval) = cfg.scrub_interval_s {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "scrub_interval_s must be positive and finite, got {interval}"
        );
        queue.push(SimTime::from_secs_f64(interval), Event::Scrub);
    }

    let mut runs: Vec<Option<QueryRun>> = vec![None; inst.queries().len()];
    let mut free_ghz: Vec<f64> = cloud.compute_ids().map(|v| cloud.available(v)).collect();
    let mut waiting: Vec<std::collections::VecDeque<Waiting>> =
        vec![std::collections::VecDeque::new(); cloud.compute_count()];
    let mut completed: Vec<(QueryId, SimTime, SimTime)> = Vec::new(); // (q, arrival, finish)
    let mut answers = Vec::new();
    let mut consistency_gb = 0.0;
    let mut consistency_rounds = 0usize;
    let mut new_data_gb: Vec<f64> = vec![0.0; inst.datasets().len()];
    let mut last_growth = SimTime::ZERO;
    // Fault state. A node is alive iff no outage window covers `now`;
    // overlapping windows nest via `downs_active`. Epochs version a
    // node's lifetime so work scheduled before a death is void after it.
    let mut alive = vec![true; cloud.compute_count()];
    let mut downs_active = vec![0u32; cloud.compute_count()];
    let mut node_epoch = vec![0u32; cloud.compute_count()];
    let mut down_since: Vec<Option<SimTime>> = vec![None; cloud.compute_count()];
    let mut held_at_down: Vec<Vec<DatasetId>> = vec![Vec::new(); cloud.compute_count()];
    let mut node_downtime_s = 0.0;
    // The controller plan as it evolves: replicas leave with dead nodes,
    // return with repairs and recoveries. Failover reads this, so
    // repaired replicas genuinely restore availability.
    let mut live_sol = plan.clone();
    let target_counts: Vec<usize> = inst.dataset_ids().map(|d| plan.replica_count(d)).collect();
    let mut xfer_jobs: Vec<XferJob> = Vec::new();
    // Chunked-engine bookkeeping, parallel to `xfer_jobs`: the parked
    // ledger of an interrupted job (verified chunks waiting to resume)
    // and the job's active engine transfer id, if any.
    let mut job_ledger: Vec<Option<ChunkLedger>> = Vec::new();
    let mut job_active: Vec<Option<usize>> = Vec::new();
    let mut chunked: Option<ChunkedState> = match cfg.transfer {
        TransferModel::PointToPoint => None,
        TransferModel::Chunked(mut c) => {
            if !cfg.nic_contention {
                c.nic_gb_per_s = f64::INFINITY;
            }
            Some(ChunkedState {
                eng: transfer::Engine::new(c, cloud.compute_count()),
                jobs: Vec::new(),
                last_pushed_gen: 0,
            })
        }
    };
    let mut transfer_resumes = 0usize;
    let mut chunk_gb_saved = 0.0;
    let mut abandoned_dead_source = 0usize;
    let mut abandoned_partitioned = 0usize;
    let mut repair_durations: Vec<f64> = Vec::new();
    let mut tier_sum_s = [0.0f64; 3];
    let mut tier_count = [0u64; 3];
    let mut repairs_scheduled = 0usize;
    let mut repairs_completed = 0usize;
    let mut repair_gb = 0.0;
    let mut repair_retries = 0usize;
    let mut transfer_retries = 0usize;
    let mut failovers = 0usize;
    let mut queries_lost = 0usize;
    let mut degraded_reads = 0usize;
    let mut last_event_t = SimTime::ZERO;
    // Bounded event ring for QoS-miss replay (S3): every popped event is
    // recorded; on a miss the ring is dumped through `edgerep-obs`.
    let mut ring: std::collections::VecDeque<(SimTime, &'static str, i64, i64)> =
        std::collections::VecDeque::new();
    let mut qos_miss_dumps = 0usize;
    let mut slo_series: Vec<SloSample> = Vec::new();
    // Per-node NIC: the instant the egress link frees up.
    let mut nic_free_at = vec![SimTime::ZERO; cloud.compute_count()];
    // Background (repair) egress cursor: repairs serialize among
    // themselves and behind foreground traffic, never the other way.
    let mut repair_nic_free_at = vec![SimTime::ZERO; cloud.compute_count()];
    // Loop statistics, tallied in plain integers and flushed to the metric
    // registry once after the drain.
    let mut events_processed: u64 = 0;
    let mut peak_event_queue: usize = 0;
    let mut demands_started: u64 = 0;
    let mut demands_queued: u64 = 0;
    let mut queue_wait_sum_s = 0.0;
    // Result-transfer durations; summed in sorted order at the end so the
    // mean is independent of completion order (the chunked engine records
    // at completion, the legacy model at scheduling).
    let mut transfer_durations: Vec<f64> = Vec::new();

    let start_demand = |now: SimTime,
                        q: QueryId,
                        demand: usize,
                        node: ComputeNodeId,
                        epoch: u32,
                        read_extra_s: f64,
                        free: &mut [f64],
                        waiting: &mut [std::collections::VecDeque<Waiting>],
                        queue: &mut EventQueue<Event>,
                        inst: &edgerep_model::Instance,
                        demands_queued: &mut u64| {
        let need = inst.size(inst.query(q).demands[demand].dataset) * inst.query(q).compute_rate;
        if free[node.index()] + 1e-9 >= need {
            free[node.index()] -= need;
            let proc = cloud.proc_delay(node) * inst.size(inst.query(q).demands[demand].dataset)
                + read_extra_s;
            queue.push(
                now.after_secs(proc),
                Event::ProcDone {
                    q,
                    demand,
                    node,
                    epoch,
                },
            );
        } else {
            *demands_queued += 1;
            waiting[node.index()].push_back(Waiting {
                q,
                demand,
                need_ghz: need,
                enqueued: now,
            });
        }
    };

    // The drain gets its own span so profiles separate event-loop time
    // from the controller's solve (`sim.controller` → solver spans).
    let loop_span = obs::span("sim", "sim.loop");
    while let Some((now, ev)) = queue.pop() {
        events_processed += 1;
        peak_event_queue = peak_event_queue.max(queue.len() + 1);
        last_event_t = now;
        if let Some(tc) = cfg.debug_trace {
            let (kind, a, b): (&'static str, i64, i64) = match &ev {
                Event::Arrival { q } => ("arrival", q.index() as i64, -1),
                Event::ProcDone { q, node, .. } => {
                    ("proc_done", q.index() as i64, node.index() as i64)
                }
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
            };
            if ring.len() >= tc.capacity.max(1) {
                ring.pop_front();
            }
            ring.push_back((now, kind, a, b));
        }
        // The chunked engine advances to every event instant first, so
        // completions due *at* `now` land (as `TransferDone` /
        // `RepairDone` pushes) before any same-instant fault touches them.
        if let Some(ch) = chunked.as_mut() {
            pump_engine(
                ch,
                now,
                &mut queue,
                &mut xfer_jobs,
                &mut job_active,
                &mut transfer_durations,
                &mut tier_sum_s,
                &mut tier_count,
            );
        }
        match ev {
            Event::Arrival { q } => {
                let Some(nodes) = plan.assignment_of(q) else {
                    continue; // controller rejected it; counted in totals
                };
                // Resolve dead serving nodes to live replicas (failover).
                // `live_sol` includes repaired replicas, so repair widens
                // the failover choices — the availability payoff.
                let mut resolved = Vec::with_capacity(nodes.len());
                let mut this_failovers = 0usize;
                let mut servable = true;
                for (demand, &node) in nodes.iter().enumerate() {
                    if alive[node.index()] {
                        resolved.push(node);
                        continue;
                    }
                    let d = inst.query(q).demands[demand].dataset;
                    // Load-aware failover: among live replicas that can
                    // still meet the deadline, prefer one with compute
                    // free right now (idle beats close — queueing behind
                    // other work is what actually busts deadlines), then
                    // break ties by delay.
                    let need = inst.size(d) * inst.query(q).compute_rate;
                    let alt = live_sol
                        .replicas_of(d)
                        .iter()
                        .copied()
                        .filter(|v| alive[v.index()])
                        .filter(|&v| {
                            edgerep_model::delay::assignment_delay(inst, q, demand, v)
                                <= inst.query(q).deadline + 1e-12
                        })
                        .min_by(|&a, &b| {
                            let busy = |v: ComputeNodeId| free_ghz[v.index()] + 1e-9 < need;
                            busy(a).cmp(&busy(b)).then(
                                edgerep_model::delay::assignment_delay(inst, q, demand, a)
                                    .partial_cmp(&edgerep_model::delay::assignment_delay(
                                        inst, q, demand, b,
                                    ))
                                    .expect("delays comparable"),
                            )
                        });
                    match alt {
                        Some(v) => {
                            this_failovers += 1;
                            resolved.push(v);
                        }
                        None => {
                            servable = false;
                            break;
                        }
                    }
                }
                if !servable {
                    queries_lost += 1;
                    continue;
                }
                // Erasure-coded demands additionally need a live read
                // quorum: the serving node's shard plus `k − 1` gathered
                // from the nearest live co-holders. Between `k` and
                // `k + m` live shards the read is *degraded* (slower, but
                // served); below `k` the query is lost outright.
                let mut read_extra = vec![0.0f64; resolved.len()];
                let mut gather_launches: Vec<(usize, Vec<ec::ShardSource>)> = Vec::new();
                let mut quorum_ok = true;
                for (demand, &node) in resolved.iter().enumerate() {
                    let d = inst.query(q).demands[demand].dataset;
                    let scheme = inst.scheme(d);
                    if !scheme.needs_decode() {
                        continue;
                    }
                    let others: Vec<ec::ShardSource> = live_sol
                        .replicas_of(d)
                        .iter()
                        .filter(|&&h| alive[h.index()] && h != node)
                        .map(|&h| ec::ShardSource {
                            node: h.index(),
                            delay_s_per_gb: cloud.min_delay(h, node),
                        })
                        .collect();
                    let placed = target_counts[d.index()];
                    match ec::plan_read(scheme, inst.size(d), &others, placed) {
                        Some(plan) => {
                            read_extra[demand] = plan.overhead_s(inst.decode_s_per_gb());
                            if plan.degraded {
                                degraded_reads += 1;
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
                        None => {
                            quorum_ok = false;
                            break;
                        }
                    }
                }
                if !quorum_ok {
                    queries_lost += 1;
                    continue;
                }
                // The shard fan-in rides the chunked engine when it is
                // on: Immediate-tier flows from each chosen co-holder
                // contend on the wire with everything else. The read's
                // latency itself is charged analytically via
                // `read_extra`, identically under both transfer models.
                if let Some(ch) = chunked.as_mut() {
                    for (demand, sources) in &gather_launches {
                        let d = inst.query(q).demands[*demand].dataset;
                        let dest = resolved[*demand];
                        for s in sources {
                            let src = ComputeNodeId(s.node as u32);
                            let Some(p) = source_path(cloud, fault_plan, src, dest, now) else {
                                continue;
                            };
                            let ledger =
                                ChunkLedger::new(inst.shard_gb(d), ch.eng.config().chunk_gb);
                            let tid = ch.eng.begin(
                                now,
                                dest.index(),
                                FlowTier::Immediate,
                                Some(d.index()),
                                ledger,
                                &[p],
                            );
                            debug_assert_eq!(tid, ch.jobs.len());
                            ch.jobs.push(EngineOwner::Gather { source: src, dest });
                        }
                    }
                    if !gather_launches.is_empty() {
                        pump_engine(
                            ch,
                            now,
                            &mut queue,
                            &mut xfer_jobs,
                            &mut job_active,
                            &mut transfer_durations,
                            &mut tier_sum_s,
                            &mut tier_count,
                        );
                    }
                }
                failovers += this_failovers;
                let n = resolved.len();
                runs[q.index()] = Some(QueryRun {
                    arrival: now,
                    outstanding: n,
                    finish: now,
                    partials: vec![None; n],
                    nodes: resolved.clone(),
                    incomplete: vec![true; n],
                    read_extra: read_extra.clone(),
                });
                demands_started += n as u64;
                for (demand, node) in resolved.into_iter().enumerate() {
                    start_demand(
                        now,
                        q,
                        demand,
                        node,
                        node_epoch[node.index()],
                        read_extra[demand],
                        &mut free_ghz,
                        &mut waiting,
                        &mut queue,
                        inst,
                        &mut demands_queued,
                    );
                }
            }
            Event::ProcDone {
                q,
                demand,
                node,
                epoch,
            } => {
                if node_epoch[node.index()] != epoch {
                    // The node died (and possibly recovered) since this
                    // work was scheduled: the work is lost, and its
                    // compute was re-baselined at recovery — freeing it
                    // here would double-count.
                    continue;
                }
                // Release compute and wake queued demands regardless of
                // whether the owning query is still alive.
                let d = inst.query(q).demands[demand].dataset;
                let need = inst.size(d) * inst.query(q).compute_rate;
                free_ghz[node.index()] += need;
                while let Some(w) = waiting[node.index()].front().copied() {
                    if free_ghz[node.index()] + 1e-9 >= w.need_ghz {
                        waiting[node.index()].pop_front();
                        free_ghz[node.index()] -= w.need_ghz;
                        let wait_s = now.as_secs_f64() - w.enqueued.as_secs_f64();
                        queue_wait_sum_s += wait_s;
                        if trace_debug {
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
                        // EC gather + decode overhead still applies when
                        // the demand dequeues after a compute wait.
                        let extra_s = runs[w.q.index()]
                            .as_ref()
                            .map_or(0.0, |r| r.read_extra[w.demand]);
                        let proc = cloud.proc_delay(node)
                            * inst.size(inst.query(w.q).demands[w.demand].dataset)
                            + extra_s;
                        queue.push(
                            now.after_secs(proc),
                            Event::ProcDone {
                                q: w.q,
                                demand: w.demand,
                                node,
                                epoch,
                            },
                        );
                    } else {
                        break;
                    }
                }
                // Poisoned queries produce nothing further.
                let Some(run) = runs[q.index()].as_mut() else {
                    continue;
                };
                // Evaluate the analytics for real, then ship the result.
                // Its own span: real computation must not hide inside the
                // event loop's self time in profiles.
                let partial = {
                    let _analytics_span = obs::span("sim", "sim.analytics");
                    evaluate(world.query_kinds[q.index()], &world.records[d.index()])
                };
                run.partials[demand] = Some(partial);
                let query = inst.query(q);
                let result_gb = query.demands[demand].selectivity * inst.size(d);
                let factor = fault_plan.link_factor(node, query.home, now.as_secs_f64());
                if chunked.is_some() || factor.is_infinite() {
                    // Chunked engine: every result becomes a retryable job
                    // and launches through the retry handler (immediately
                    // when the path is up — same simulated instant).
                    // Legacy: only a partitioned result parks here, to
                    // retry with backoff instead of losing the query.
                    let job = xfer_jobs.len();
                    xfer_jobs.push(XferJob {
                        kind: XferKind::Result { q, demand },
                        source: node,
                        dest: query.home,
                        gb: result_gb,
                        dest_epoch: 0,
                        attempts: 0,
                        resolved: false,
                        born: now,
                    });
                    job_ledger.push(None);
                    job_active.push(None);
                    queue.push(now, Event::RetryTransfer { job });
                    continue;
                }
                let trans = cloud.min_delay(node, query.home) * result_gb * factor;
                // Results leaving the same VM serialize on its NIC.
                let start = if cfg.nic_contention {
                    nic_free_at[node.index()].max(now)
                } else {
                    now
                };
                let done = start.after_secs(trans);
                if cfg.nic_contention {
                    nic_free_at[node.index()] = done;
                }
                transfer_durations.push(done.secs_since(now));
                queue.push(done, Event::TransferDone { q, demand });
            }
            Event::TransferDone { q, demand } => {
                let Some(run) = runs[q.index()].as_mut() else {
                    continue; // poisoned by a fault mid-flight
                };
                run.incomplete[demand] = false;
                run.outstanding -= 1;
                run.finish = run.finish.max(now);
                if run.outstanding == 0 {
                    completed.push((q, run.arrival, run.finish));
                    let resp = run.finish.as_secs_f64() - run.arrival.as_secs_f64();
                    if let Some(tc) = cfg.debug_trace {
                        if resp > inst.query(q).deadline + 1e-9 && qos_miss_dumps < tc.max_dumps {
                            qos_miss_dumps += 1;
                            obs::emit(
                                "sim",
                                "sim.run",
                                "qos_miss.replay.begin",
                                &[
                                    ("query", q.index().into()),
                                    ("response_s", resp.into()),
                                    ("deadline_s", inst.query(q).deadline.into()),
                                    ("entries", ring.len().into()),
                                ],
                            );
                            for &(et, kind, a, b) in &ring {
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
                    if trace_debug {
                        obs::emit_debug(
                            "sim",
                            "sim.run",
                            "query.done",
                            &[
                                ("query", q.index().into()),
                                (
                                    "response_s",
                                    (run.finish.as_secs_f64() - run.arrival.as_secs_f64()).into(),
                                ),
                            ],
                        );
                    }
                    let partials: Vec<AnalyticsResult> =
                        run.partials.iter().flatten().cloned().collect();
                    if let Some(answer) = merge(partials) {
                        answers.push((q, answer));
                    }
                }
            }
            Event::NodeDown { node } => {
                let idx = node.index();
                downs_active[idx] += 1;
                if downs_active[idx] > 1 {
                    continue; // already down (overlapping windows nest)
                }
                alive[idx] = false;
                node_epoch[idx] = node_epoch[idx].wrapping_add(1);
                down_since[idx] = Some(now);
                waiting[idx].clear();
                // Poison every active query with an incomplete demand on
                // the failing node: its in-flight work is gone.
                for run_slot in runs.iter_mut() {
                    let poisoned = run_slot.as_ref().is_some_and(|run| {
                        run.nodes
                            .iter()
                            .zip(run.incomplete.iter())
                            .any(|(&n, &inc)| inc && n == node)
                    });
                    if poisoned {
                        *run_slot = None;
                        queries_lost += 1;
                    }
                }
                // Orphan the node's replicas; remember them so a recovery
                // can bring them back.
                let orphans = live_sol.remove_node_replicas(node);
                if trace_debug {
                    obs::emit_debug(
                        "sim",
                        "sim.run",
                        "node.down",
                        &[("node", idx.into()), ("orphans", orphans.len().into())],
                    );
                }
                held_at_down[idx] = orphans;
                // Sweep the chunked engine: flows touching the dead node
                // react now instead of flying on to a void completion.
                if let Some(ch) = chunked.as_mut() {
                    for tid in 0..ch.jobs.len() {
                        if ch.eng.is_done(tid) {
                            continue;
                        }
                        match ch.jobs[tid] {
                            EngineOwner::Consistency { source, dest }
                            | EngineOwner::Gather { source, dest } => {
                                if source == node || dest == node {
                                    ch.eng.cancel(now, tid);
                                }
                            }
                            EngineOwner::Job(job) => {
                                let j = xfer_jobs[job];
                                match j.kind {
                                    XferKind::Result { q, .. } => {
                                        // Source death poisoned the run
                                        // above; its in-flight bytes die
                                        // with it (legacy semantics).
                                        if runs[q.index()].is_none() {
                                            ch.eng.cancel(now, tid);
                                            xfer_jobs[job].resolved = true;
                                            job_active[job] = None;
                                        }
                                    }
                                    XferKind::Repair { dataset } => {
                                        if j.dest == node {
                                            // Target died: the job is void.
                                            ch.eng.cancel(now, tid);
                                            xfer_jobs[job].resolved = true;
                                            job_active[job] = None;
                                            continue;
                                        }
                                        // The holder set shrank: refresh
                                        // the swarm, or park the verified
                                        // chunks if nobody is reachable.
                                        let srcs = repair_source_paths(
                                            inst,
                                            fault_plan,
                                            &live_sol,
                                            &alive,
                                            dataset,
                                            j.dest,
                                            now,
                                            ch.eng.config().multi_source,
                                        );
                                        if srcs.is_empty() {
                                            park_job(
                                                ch,
                                                now,
                                                tid,
                                                job,
                                                &mut job_ledger,
                                                &mut job_active,
                                                &mut queue,
                                            );
                                        } else {
                                            ch.eng.set_sources(now, tid, &srcs);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                }
                // Controller repair: re-place orphaned replicas on live
                // feasible nodes, timed as real transfers below.
                if cfg.repair {
                    // Plan against the live state plus every in-flight
                    // repair, so concurrent failures never double-book a
                    // replica slot.
                    let mut planning = live_sol.clone();
                    for j in &xfer_jobs {
                        if let XferKind::Repair { dataset } = j.kind {
                            if !j.resolved && node_epoch[j.dest.index()] == j.dest_epoch {
                                planning.place_replica(dataset, j.dest);
                            }
                        }
                    }
                    for a in repair::plan_replacements(inst, &planning, &alive, &target_counts) {
                        repairs_scheduled += 1;
                        let job = xfer_jobs.len();
                        xfer_jobs.push(XferJob {
                            kind: XferKind::Repair { dataset: a.dataset },
                            source: a.source,
                            dest: a.target,
                            gb: a.gb,
                            dest_epoch: node_epoch[a.target.index()],
                            attempts: 0,
                            resolved: false,
                            born: now,
                        });
                        job_ledger.push(None);
                        job_active.push(None);
                        queue.push(now, Event::RetryTransfer { job });
                    }
                }
            }
            Event::NodeUp { node } => {
                let idx = node.index();
                if downs_active[idx] == 0 {
                    continue; // spurious recovery
                }
                downs_active[idx] -= 1;
                if downs_active[idx] > 0 {
                    continue; // still inside another outage window
                }
                alive[idx] = true;
                // The node returns empty of work: full compute, idle NIC.
                free_ghz[idx] = cloud.available(node);
                nic_free_at[idx] = now;
                repair_nic_free_at[idx] = now;
                if let Some(since) = down_since[idx].take() {
                    node_downtime_s += now.as_secs_f64() - since.as_secs_f64();
                }
                // Its local replicas survive the outage on disk: re-admit
                // them where the dataset is still under budget.
                let held = std::mem::take(&mut held_at_down[idx]);
                for d in held {
                    if live_sol.replica_count(d) < inst.slots(d) && !live_sol.has_replica(d, node) {
                        live_sol.place_replica(d, node);
                    }
                }
                // Recovered replicas widen every repair swarm: refresh the
                // source sets of in-flight chunked repairs.
                if let Some(ch) = chunked.as_mut() {
                    for tid in 0..ch.jobs.len() {
                        if ch.eng.is_done(tid) {
                            continue;
                        }
                        if let EngineOwner::Job(job) = ch.jobs[tid] {
                            if let XferKind::Repair { dataset } = xfer_jobs[job].kind {
                                let srcs = repair_source_paths(
                                    inst,
                                    fault_plan,
                                    &live_sol,
                                    &alive,
                                    dataset,
                                    xfer_jobs[job].dest,
                                    now,
                                    ch.eng.config().multi_source,
                                );
                                if !srcs.is_empty() {
                                    ch.eng.set_sources(now, tid, &srcs);
                                }
                            }
                        }
                    }
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                }
                if trace_debug {
                    obs::emit_debug("sim", "sim.run", "node.up", &[("node", idx.into())]);
                }
            }
            Event::LinkDown { a, b } => {
                // Legacy timing effects come from `FaultPlan::link_factor`
                // lookups at transfer-scheduling time; the chunked engine
                // additionally re-prices (or parks) in-flight flows here.
                if let Some(ch) = chunked.as_mut() {
                    refresh_link_flows(
                        ch,
                        now,
                        inst,
                        fault_plan,
                        &live_sol,
                        &alive,
                        &mut xfer_jobs,
                        &mut job_ledger,
                        &mut job_active,
                        &mut queue,
                    );
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                }
                if trace_debug {
                    obs::emit_debug(
                        "sim",
                        "sim.run",
                        "link.down",
                        &[("a", a.index().into()), ("b", b.index().into())],
                    );
                }
            }
            Event::LinkUp { a, b } => {
                if let Some(ch) = chunked.as_mut() {
                    refresh_link_flows(
                        ch,
                        now,
                        inst,
                        fault_plan,
                        &live_sol,
                        &alive,
                        &mut xfer_jobs,
                        &mut job_ledger,
                        &mut job_active,
                        &mut queue,
                    );
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                }
                if trace_debug {
                    obs::emit_debug(
                        "sim",
                        "sim.run",
                        "link.up",
                        &[("a", a.index().into()), ("b", b.index().into())],
                    );
                }
            }
            Event::RepairDone { job } => {
                let j = xfer_jobs[job];
                let XferKind::Repair { dataset } = j.kind else {
                    continue;
                };
                // Valid only if the target survived since launch and the
                // dataset still wants the replica.
                if node_epoch[j.dest.index()] == j.dest_epoch
                    && live_sol.replica_count(dataset) < inst.slots(dataset)
                    && !live_sol.has_replica(dataset, j.dest)
                {
                    live_sol.place_replica(dataset, j.dest);
                    repairs_completed += 1;
                    repair_gb += j.gb;
                    repair_durations.push(now.secs_since(j.born));
                    if trace_debug {
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
            Event::RetryTransfer { job } => {
                let j = xfer_jobs[job];
                if j.resolved {
                    continue;
                }
                if let Some(ch) = chunked.as_mut() {
                    if job_active[job].is_some() {
                        continue; // already relaunched by an earlier event
                    }
                    match j.kind {
                        XferKind::Result { q, .. } => {
                            if runs[q.index()].is_none() {
                                xfer_jobs[job].resolved = true; // poisoned
                                continue;
                            }
                            let Some(path) = source_path(cloud, fault_plan, j.source, j.dest, now)
                            else {
                                if j.attempts >= XFER_MAX_ATTEMPTS {
                                    xfer_jobs[job].resolved = true;
                                    runs[q.index()] = None;
                                    queries_lost += 1;
                                    abandoned_partitioned += 1;
                                    obs::emit(
                                        "sim",
                                        "sim.run",
                                        "transfer.abandoned",
                                        &[
                                            ("kind", "result".into()),
                                            ("reason", "partitioned".into()),
                                            ("job", job.into()),
                                            ("attempts", (j.attempts as usize).into()),
                                        ],
                                    );
                                } else {
                                    xfer_jobs[job].attempts += 1;
                                    transfer_retries += 1;
                                    queue.push(
                                        now.after_secs(backoff_s(j.attempts)),
                                        Event::RetryTransfer { job },
                                    );
                                }
                                continue;
                            };
                            let ledger = job_ledger[job].take().unwrap_or_else(|| {
                                ChunkLedger::new(j.gb, ch.eng.config().chunk_gb)
                            });
                            if ledger.verified_count() > 0 {
                                transfer_resumes += 1;
                                chunk_gb_saved += ledger.verified_gb();
                                obs::emit(
                                    "sim",
                                    "sim.run",
                                    "transfer.resume",
                                    &[
                                        ("kind", "result".into()),
                                        ("job", job.into()),
                                        ("verified_gb", ledger.verified_gb().into()),
                                        ("missing_gb", ledger.missing_gb().into()),
                                    ],
                                );
                            }
                            let tid = ch.eng.begin(
                                now,
                                j.dest.index(),
                                FlowTier::Immediate,
                                None,
                                ledger,
                                &[path],
                            );
                            debug_assert_eq!(tid, ch.jobs.len());
                            ch.jobs.push(EngineOwner::Job(job));
                            job_active[job] = Some(tid);
                        }
                        XferKind::Repair { dataset } => {
                            if node_epoch[j.dest.index()] != j.dest_epoch {
                                xfer_jobs[job].resolved = true; // target died
                                continue;
                            }
                            let holders =
                                repair::pick_sources(inst, &live_sol, &alive, dataset, j.dest);
                            let mut srcs: Vec<SourcePath> = holders
                                .iter()
                                .filter_map(|&s| source_path(cloud, fault_plan, s, j.dest, now))
                                .collect();
                            if !ch.eng.config().multi_source {
                                srcs.truncate(1);
                            }
                            if srcs.is_empty() {
                                // No live holder at all, or holders exist
                                // but every path is partitioned.
                                let reason = if holders.is_empty() {
                                    "dead-source"
                                } else {
                                    "partitioned"
                                };
                                if j.attempts >= XFER_MAX_ATTEMPTS {
                                    xfer_jobs[job].resolved = true; // abandoned
                                    if holders.is_empty() {
                                        abandoned_dead_source += 1;
                                    } else {
                                        abandoned_partitioned += 1;
                                    }
                                    obs::emit(
                                        "sim",
                                        "sim.run",
                                        "transfer.abandoned",
                                        &[
                                            ("kind", "repair".into()),
                                            ("reason", reason.into()),
                                            ("job", job.into()),
                                            ("attempts", (j.attempts as usize).into()),
                                        ],
                                    );
                                } else {
                                    xfer_jobs[job].attempts += 1;
                                    repair_retries += 1;
                                    queue.push(
                                        now.after_secs(backoff_s(j.attempts)),
                                        Event::RetryTransfer { job },
                                    );
                                }
                                continue;
                            }
                            xfer_jobs[job].source = ComputeNodeId(srcs[0].node as u32);
                            let ledger = job_ledger[job].take().unwrap_or_else(|| {
                                ChunkLedger::new(j.gb, ch.eng.config().chunk_gb)
                            });
                            if ledger.verified_count() > 0 {
                                transfer_resumes += 1;
                                chunk_gb_saved += ledger.verified_gb();
                                obs::emit(
                                    "sim",
                                    "sim.run",
                                    "transfer.resume",
                                    &[
                                        ("kind", "repair".into()),
                                        ("job", job.into()),
                                        ("verified_gb", ledger.verified_gb().into()),
                                        ("missing_gb", ledger.missing_gb().into()),
                                    ],
                                );
                            }
                            let tid = ch.eng.begin(
                                now,
                                j.dest.index(),
                                FlowTier::Background,
                                Some(dataset.index()),
                                ledger,
                                &srcs,
                            );
                            debug_assert_eq!(tid, ch.jobs.len());
                            ch.jobs.push(EngineOwner::Job(job));
                            job_active[job] = Some(tid);
                        }
                    }
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                    continue;
                }
                match j.kind {
                    XferKind::Result { q, demand } => {
                        if runs[q.index()].is_none() {
                            xfer_jobs[job].resolved = true; // poisoned meanwhile
                            continue;
                        }
                        // A dead source would have poisoned the run above;
                        // only the path matters here.
                        let factor = fault_plan.link_factor(j.source, j.dest, now.as_secs_f64());
                        if factor.is_infinite() {
                            if j.attempts >= XFER_MAX_ATTEMPTS {
                                // Degrade gracefully: the result never got
                                // home; the query is lost, not the run.
                                xfer_jobs[job].resolved = true;
                                runs[q.index()] = None;
                                queries_lost += 1;
                                abandoned_partitioned += 1;
                                obs::emit(
                                    "sim",
                                    "sim.run",
                                    "transfer.abandoned",
                                    &[
                                        ("kind", "result".into()),
                                        ("reason", "partitioned".into()),
                                        ("job", job.into()),
                                        ("attempts", (j.attempts as usize).into()),
                                    ],
                                );
                            } else {
                                xfer_jobs[job].attempts += 1;
                                transfer_retries += 1;
                                queue.push(
                                    now.after_secs(backoff_s(j.attempts)),
                                    Event::RetryTransfer { job },
                                );
                            }
                            continue;
                        }
                        let trans = cloud.min_delay(j.source, j.dest) * j.gb * factor;
                        let start = if cfg.nic_contention {
                            nic_free_at[j.source.index()].max(now)
                        } else {
                            now
                        };
                        let done = start.after_secs(trans);
                        if cfg.nic_contention {
                            nic_free_at[j.source.index()] = done;
                        }
                        transfer_durations.push(done.secs_since(now));
                        xfer_jobs[job].resolved = true;
                        queue.push(done, Event::TransferDone { q, demand });
                    }
                    XferKind::Repair { dataset } => {
                        if node_epoch[j.dest.index()] != j.dest_epoch {
                            xfer_jobs[job].resolved = true; // target died
                            continue;
                        }
                        // The planned source may have died since; re-pick
                        // from the current live holders.
                        let mut source = j.source;
                        if !alive[source.index()] {
                            if let Some(s) =
                                repair::pick_source(inst, &live_sol, &alive, dataset, j.dest)
                            {
                                source = s;
                                xfer_jobs[job].source = s;
                            }
                        }
                        let factor = fault_plan.link_factor(source, j.dest, now.as_secs_f64());
                        if !alive[source.index()] || factor.is_infinite() {
                            if j.attempts >= XFER_MAX_ATTEMPTS {
                                xfer_jobs[job].resolved = true; // abandoned
                                let reason = if !alive[source.index()] {
                                    abandoned_dead_source += 1;
                                    "dead-source"
                                } else {
                                    abandoned_partitioned += 1;
                                    "partitioned"
                                };
                                obs::emit(
                                    "sim",
                                    "sim.run",
                                    "transfer.abandoned",
                                    &[
                                        ("kind", "repair".into()),
                                        ("reason", reason.into()),
                                        ("job", job.into()),
                                        ("attempts", (j.attempts as usize).into()),
                                    ],
                                );
                            } else {
                                xfer_jobs[job].attempts += 1;
                                repair_retries += 1;
                                queue.push(
                                    now.after_secs(backoff_s(j.attempts)),
                                    Event::RetryTransfer { job },
                                );
                            }
                            continue;
                        }
                        let trans = cloud.min_delay(source, j.dest) * j.gb * factor;
                        // Repair bytes are preemptible background traffic:
                        // they queue behind both foreground result egress
                        // and earlier repairs from the same source, but
                        // foreground traffic never queues behind them —
                        // QoS-bearing results preempt replication streams.
                        let start = if cfg.nic_contention {
                            nic_free_at[source.index()]
                                .max(repair_nic_free_at[source.index()])
                                .max(now)
                        } else {
                            now
                        };
                        let done = start.after_secs(trans);
                        if cfg.nic_contention {
                            repair_nic_free_at[source.index()] = done;
                        }
                        xfer_jobs[job].resolved = true;
                        queue.push(done, Event::RepairDone { job });
                    }
                }
            }
            Event::ConsistencyCheck => {
                let c = cfg.consistency.expect("check scheduled only with config");
                // Accrue growth since the last check.
                let dt_h = (now.as_secs_f64() - last_growth.as_secs_f64()) / 3600.0;
                last_growth = now;
                for g in &mut new_data_gb {
                    *g += c.growth_gb_per_hour * dt_h;
                }
                // Push updates where the threshold is crossed.
                for d in inst.dataset_ids() {
                    let original = inst.size(d);
                    if new_data_gb[d.index()] / original >= c.threshold {
                        let replicas = plan.replicas_of(d);
                        let origin = inst.dataset(d).origin;
                        let synced = replicas.iter().filter(|&&v| v != origin).count();
                        if synced > 0 {
                            consistency_gb += new_data_gb[d.index()] * synced as f64;
                            consistency_rounds += 1;
                            // The chunked engine carries the update push as
                            // real Scheduled-tier flows, so consistency
                            // traffic contends with (and yields to) result
                            // transfers; accounting above stays identical.
                            if let Some(ch) = chunked.as_mut() {
                                let gb = new_data_gb[d.index()];
                                if gb > 0.0 && alive[origin.index()] {
                                    for &v in replicas {
                                        if v == origin || !alive[v.index()] {
                                            continue;
                                        }
                                        let Some(p) =
                                            source_path(cloud, fault_plan, origin, v, now)
                                        else {
                                            continue;
                                        };
                                        let ledger = ChunkLedger::new(gb, ch.eng.config().chunk_gb);
                                        let tid = ch.eng.begin(
                                            now,
                                            v.index(),
                                            FlowTier::Scheduled,
                                            None,
                                            ledger,
                                            &[p],
                                        );
                                        debug_assert_eq!(tid, ch.jobs.len());
                                        ch.jobs.push(EngineOwner::Consistency {
                                            source: origin,
                                            dest: v,
                                        });
                                    }
                                }
                            }
                            if trace_debug {
                                obs::emit_debug(
                                    "sim",
                                    "sim.run",
                                    "consistency.sync",
                                    &[
                                        ("dataset", d.index().into()),
                                        ("replicas_synced", synced.into()),
                                        ("gb", (new_data_gb[d.index()] * synced as f64).into()),
                                    ],
                                );
                            }
                        }
                        new_data_gb[d.index()] = 0.0;
                    }
                }
                if let Some(ch) = chunked.as_mut() {
                    pump_engine(
                        ch,
                        now,
                        &mut queue,
                        &mut xfer_jobs,
                        &mut job_active,
                        &mut transfer_durations,
                        &mut tier_sum_s,
                        &mut tier_count,
                    );
                }
                // Keep checking until the query phase has drained.
                let next = now.after_secs(c.check_interval_s);
                if now <= query_horizon {
                    queue.push(next, Event::ConsistencyCheck);
                }
            }
            Event::FlowProgress { .. } => {
                // The pre-match pump above already advanced the engine to
                // `now`, fired due chunk completions, and re-armed the
                // next wake-up; stale generations needed nothing anyway.
            }
            Event::Scrub => {
                let interval = cfg
                    .scrub_interval_s
                    .expect("scrub scheduled only with config");
                // Plan against the live state plus every in-flight
                // repair, so the scrubber never double-books a shard
                // slot the death-triggered repair path already claimed.
                let mut planning = live_sol.clone();
                for j in &xfer_jobs {
                    if let XferKind::Repair { dataset } = j.kind {
                        if !j.resolved && node_epoch[j.dest.index()] == j.dest_epoch {
                            planning.place_replica(dataset, j.dest);
                        }
                    }
                }
                let (actions, _outcome) =
                    repair::scrub(now.as_secs_f64(), inst, &planning, &alive, &target_counts);
                for a in actions {
                    repairs_scheduled += 1;
                    let job = xfer_jobs.len();
                    xfer_jobs.push(XferJob {
                        kind: XferKind::Repair { dataset: a.dataset },
                        source: a.source,
                        dest: a.target,
                        gb: a.gb,
                        dest_epoch: node_epoch[a.target.index()],
                        attempts: 0,
                        resolved: false,
                        born: now,
                    });
                    job_ledger.push(None);
                    job_active.push(None);
                    queue.push(now, Event::RetryTransfer { job });
                }
                // Keep scrubbing until the query phase has drained.
                if now <= query_horizon {
                    queue.push(now.after_secs(interval), Event::Scrub);
                }
            }
            Event::SloSample => {
                let interval = cfg
                    .slo_sample_interval_s
                    .expect("sample scheduled only with config");
                slo_series.push(snapshot_slo(
                    now.as_secs_f64(),
                    inst,
                    &completed,
                    queries_lost,
                    planned_admitted,
                    repairs_scheduled,
                    repairs_completed,
                    replication_gb + repair_gb,
                ));
                // Keep sampling until the query phase has drained.
                if now <= query_horizon {
                    queue.push(now.after_secs(interval), Event::SloSample);
                }
            }
        }
    }
    drop(loop_span);
    if cfg.slo_sample_interval_s.is_some() {
        // Close the series at drain time so the final state is always a
        // row even when the run is shorter than one interval.
        slo_series.push(snapshot_slo(
            last_event_t.as_secs_f64(),
            inst,
            &completed,
            queries_lost,
            planned_admitted,
            repairs_scheduled,
            repairs_completed,
            replication_gb + repair_gb,
        ));
    }

    // --- 4. Report -------------------------------------------------------
    // Nodes still down when the sim drains accrue downtime to the end.
    for since in down_since.iter_mut() {
        if let Some(t0) = since.take() {
            node_downtime_s += last_event_t.as_secs_f64() - t0.as_secs_f64();
        }
    }
    let mut measured_volume = 0.0;
    let mut measured_admitted = 0usize;
    let mut response_sum = 0.0;
    let mut response_max: f64 = 0.0;
    let mut responses = Vec::with_capacity(completed.len());
    for &(q, arrival, finish) in &completed {
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
    let planned_volume = plan.admitted_volume(inst);
    let mean_queue_wait_s = if demands_started == 0 {
        0.0
    } else {
        queue_wait_sum_s / demands_started as f64
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
    let mean_transfer_s = sorted_mean(transfer_durations);
    let repair_completion_mean_s = sorted_mean(repair_durations);
    let tier_completion_mean_s = [
        if tier_count[0] == 0 {
            0.0
        } else {
            tier_sum_s[0] / tier_count[0] as f64
        },
        if tier_count[1] == 0 {
            0.0
        } else {
            tier_sum_s[1] / tier_count[1] as f64
        },
        if tier_count[2] == 0 {
            0.0
        } else {
            tier_sum_s[2] / tier_count[2] as f64
        },
    ];
    let availability = if planned_admitted == 0 {
        1.0
    } else {
        (1.0 - queries_lost as f64 / planned_admitted as f64).max(0.0)
    };
    obs::counter("sim.events").add(events_processed);
    obs::counter("sim.demands").add(demands_started);
    obs::counter("sim.demands_queued").add(demands_queued);
    obs::counter("sim.failovers").add(failovers as u64);
    obs::counter("sim.queries_lost").add(queries_lost as u64);
    obs::counter("sim.repairs_scheduled").add(repairs_scheduled as u64);
    obs::counter("sim.repairs_completed").add(repairs_completed as u64);
    obs::counter("sim.repair_retries").add(repair_retries as u64);
    obs::counter("sim.transfer_retries").add(transfer_retries as u64);
    obs::counter("sim.transfer_resumes").add(transfer_resumes as u64);
    obs::counter("sim.transfers_abandoned")
        .add((abandoned_dead_source + abandoned_partitioned) as u64);
    obs::gauge("sim.peak_event_queue").set_max(peak_event_queue as f64);
    obs::gauge("sim.node_downtime_s").set_max(node_downtime_s);
    obs::emit(
        "sim",
        "sim.run",
        "sim.summary",
        &[
            ("algorithm", alg.name().into()),
            ("events", events_processed.into()),
            ("peak_event_queue", peak_event_queue.into()),
            ("demands", demands_started.into()),
            ("demands_queued", demands_queued.into()),
            ("mean_queue_wait_s", mean_queue_wait_s.into()),
            ("mean_transfer_s", mean_transfer_s.into()),
            ("consistency_gb", consistency_gb.into()),
            ("consistency_rounds", consistency_rounds.into()),
            ("measured_admitted", measured_admitted.into()),
            ("failovers", failovers.into()),
            ("degraded_reads", degraded_reads.into()),
            ("storage_gb", plan.storage_gb(inst).into()),
            ("queries_lost", queries_lost.into()),
            ("repairs_scheduled", repairs_scheduled.into()),
            ("repairs_completed", repairs_completed.into()),
            ("transfer_resumes", transfer_resumes.into()),
            ("chunk_gb_saved", chunk_gb_saved.into()),
            ("abandoned_dead_source", abandoned_dead_source.into()),
            ("abandoned_partitioned", abandoned_partitioned.into()),
            ("availability", availability.into()),
        ],
    );
    Ok(TestbedReport {
        algorithm: alg.name(),
        planned_volume,
        planned_admitted,
        measured_volume,
        measured_admitted,
        total_queries: inst.queries().len(),
        measured_throughput: if inst.queries().is_empty() {
            0.0
        } else {
            measured_admitted as f64 / inst.queries().len() as f64
        },
        mean_response_s: if completed.is_empty() {
            0.0
        } else {
            response_sum / completed.len() as f64
        },
        p50_response_s: percentile(0.5),
        p95_response_s: percentile(0.95),
        max_response_s: response_max,
        replication_gb,
        replication_time_s,
        consistency_gb,
        consistency_rounds,
        failovers,
        degraded_reads,
        storage_gb: plan.storage_gb(inst),
        queries_lost_to_faults: queries_lost,
        repairs_scheduled,
        repairs_completed,
        repair_gb,
        repair_retries,
        transfer_retries,
        transfer_resumes,
        chunk_gb_saved,
        abandoned_dead_source,
        abandoned_partitioned,
        repair_completion_mean_s,
        tier_completion_mean_s,
        node_downtime_s,
        availability,
        qos_miss_dumps,
        live_plan: live_sol,
        mean_queue_wait_s,
        mean_transfer_s,
        events_processed,
        peak_event_queue,
        answers,
        slo_series,
        plan,
    })
}

/// Snapshot of SLO state mid-run (see [`SimConfig::slo_sample_interval_s`]).
#[allow(clippy::too_many_arguments)]
fn snapshot_slo(
    t_s: f64,
    inst: &edgerep_model::Instance,
    completed: &[(QueryId, SimTime, SimTime)],
    queries_lost: usize,
    planned_admitted: usize,
    repairs_scheduled: usize,
    repairs_completed: usize,
    prefetch_gb: f64,
) -> SloSample {
    let misses = completed
        .iter()
        .filter(|&&(q, arrival, finish)| {
            finish.as_secs_f64() - arrival.as_secs_f64() > inst.query(q).deadline + 1e-9
        })
        .count();
    SloSample {
        t_s,
        availability: if planned_admitted == 0 {
            1.0
        } else {
            (1.0 - queries_lost as f64 / planned_admitted as f64).max(0.0)
        },
        qos_miss_rate: if completed.is_empty() {
            0.0
        } else {
            misses as f64 / completed.len() as f64
        },
        repair_backlog: repairs_scheduled.saturating_sub(repairs_completed),
        prefetch_gb,
        forecast_wmape: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_testbed_instance, TestbedConfig};
    use edgerep_core::appro::{ApproG, ApproS};
    use edgerep_core::popularity::Popularity;

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
        let report = run_testbed(&ApproG::default(), &world, &SimConfig::default());
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
        let report = run_testbed(&ApproG::default(), &world, &cfg);
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
        let plain = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        assert_eq!(plain.measured_admitted, report.measured_admitted);
        assert_eq!(plain.measured_volume, report.measured_volume);
    }

    #[test]
    fn deterministic_given_seeds() {
        let world = small_world(2, 3);
        let a = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        let b = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        assert_eq!(a.measured_admitted, b.measured_admitted);
        assert_eq!(a.measured_volume, b.measured_volume);
        assert_eq!(a.mean_response_s, b.mean_response_s);
    }

    #[test]
    fn appro_beats_popularity_on_the_testbed() {
        // The Fig. 7/8 headline, at one configuration point.
        let world = small_world(3, 2);
        let appro = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        let pop = run_testbed(&Popularity::general(), &world, &SimConfig::default());
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
        let report = run_testbed(&ApproS::default(), &world, &SimConfig::default());
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
        let report = run_testbed(&ApproG::default(), &world, &cfg);
        assert!(
            report.consistency_rounds > 0,
            "aggressive growth must trigger synchronization"
        );
        assert!(report.consistency_gb > 0.0);
    }

    #[test]
    fn no_consistency_config_no_traffic() {
        let world = small_world(2, 3);
        let report = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        assert_eq!(report.consistency_rounds, 0);
        assert_eq!(report.consistency_gb, 0.0);
    }

    #[test]
    fn rejected_queries_never_execute() {
        let world = small_world(4, 1); // tight K: rejections guaranteed
        let report = run_testbed(&ApproG::default(), &world, &SimConfig::default());
        let planned = report.planned_admitted;
        assert!(
            planned < report.total_queries,
            "need rejections for this test"
        );
        assert!(report.answers.len() <= planned);
    }

    #[test]
    fn nic_contention_only_slows_things_down() {
        let world = small_world(3, 3);
        let storm = SimConfig {
            arrival_rate_per_s: 50.0, // heavy overlap: NICs matter
            ..Default::default()
        };
        let free = SimConfig {
            nic_contention: false,
            ..storm
        };
        let with_nic = run_testbed(&ApproG::default(), &world, &storm);
        let without = run_testbed(&ApproG::default(), &world, &free);
        assert!(
            with_nic.mean_response_s >= without.mean_response_s - 1e-9,
            "serialized NICs cannot be faster ({} vs {})",
            with_nic.mean_response_s,
            without.mean_response_s
        );
        assert!(with_nic.measured_admitted <= without.measured_admitted);
    }

    #[test]
    fn chunked_without_faults_is_byte_identical_to_p2p() {
        // With no faults and uncontended NICs the chunked engine coalesces
        // every transfer into a single flow priced by the same
        // `(delay/GB * GB) * factor` product the point-to-point model
        // uses, so every completion lands on the same microsecond and the
        // two reports agree bit for bit.
        let world = small_world(2, 3);
        let base = SimConfig {
            nic_contention: false,
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
        let p2p = run_testbed(&ApproG::default(), &world, &base);
        let ch = run_testbed(&ApproG::default(), &world, &chunked_cfg);
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
        // No faults: nothing to resume or abandon in either model.
        assert_eq!(ch.transfer_resumes, 0);
        assert_eq!(ch.chunk_gb_saved, 0.0);
        assert_eq!(ch.abandoned_dead_source, 0);
        assert_eq!(ch.abandoned_partitioned, 0);
    }

    #[test]
    fn chunked_populates_tier_stats() {
        let world = small_world(2, 3);
        let cfg = SimConfig {
            transfer: TransferModel::Chunked(transfer::ChunkedConfig::default()),
            ..Default::default()
        };
        let report = run_testbed(&ApproG::default(), &world, &cfg);
        // Result shipping rides the immediate tier; no repairs or
        // consistency pushes ran, so the other tiers stay empty.
        assert!(report.tier_completion_mean_s[0] > 0.0);
        assert_eq!(report.tier_completion_mean_s[1], 0.0);
        assert_eq!(report.tier_completion_mean_s[2], 0.0);
        assert_eq!(report.repair_completion_mean_s, 0.0);
        assert!(report.mean_transfer_s > 0.0);
    }

    #[test]
    fn chunked_nic_contention_only_slows_things_down() {
        // Fair-shared finite NICs can only stretch flows relative to
        // infinite ones — the fluid analogue of the legacy FIFO-NIC test.
        let world = small_world(3, 3);
        let storm = SimConfig {
            arrival_rate_per_s: 50.0,
            transfer: TransferModel::Chunked(transfer::ChunkedConfig::default()),
            ..Default::default()
        };
        let free = SimConfig {
            nic_contention: false,
            ..storm
        };
        let with_nic = run_testbed(&ApproG::default(), &world, &storm);
        let without = run_testbed(&ApproG::default(), &world, &free);
        assert!(
            with_nic.mean_response_s >= without.mean_response_s - 1e-9,
            "fair-shared NICs cannot be faster ({} vs {})",
            with_nic.mean_response_s,
            without.mean_response_s
        );
    }

    #[test]
    fn replication_skips_origin_copies() {
        // A plan whose only replica sits at the origin moves zero bytes.
        let world = small_world(1, 1);
        let report = run_testbed(&ApproG::default(), &world, &SimConfig::default());
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
        let report =
            run_testbed_with_faults(&FixedPlan(plan), &world, &SimConfig::default(), &faults);
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
        let report =
            run_testbed_with_faults(&FixedPlan(plan), &world, &SimConfig::default(), &faults);
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
        let report = run_testbed(&FixedPlan(plan), &world, &SimConfig::default());
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
        let report = run_testbed_with_faults(&FixedPlan(plan), &world, &cfg, &faults);
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
        let a = run_testbed(&ApproG::default(), &rep_world, &cfg);
        let b = run_testbed(&ApproG::default(), &ec_world, &cfg);
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
