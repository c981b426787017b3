//! The simulator's one transfer engine: chunked, resumable, multi-source
//! transfers with priority tiers over FIFO egress.
//!
//! Datasets are split into fixed-size chunks tracked by a per-replica
//! [`ChunkLedger`]. An in-flight [`Engine`] transfer opens one flow per
//! live holder and fetches missing chunks in parallel, rarest-chunk-first
//! across concurrent transfers of the same dataset. When a source dies or
//! a link partitions mid-flight, the ledger keeps every verified chunk, so
//! the transfer resumes from the last completed chunk instead of
//! restarting from zero. Point-to-point transfers are the degenerate
//! preset ([`ChunkedConfig::point_to_point`]): one chunk per replica, one
//! source, no resume.
//!
//! Bandwidth follows the paper's per-unit delay model: a flow moves data
//! at its path rate `1 / (delay_s_per_gb * factor)`. Under egress
//! contention each source node serves one flow at a time — the highest
//! [`FlowTier`] first, then the earliest begun — while every other flow
//! from that node waits; with contention off every flow runs at its path
//! rate. There is no ingress cap. Recomputing the served set on every
//! event is what makes a higher tier preempt a lower one mid-flight.
//! Progress is integrated between events; the simulator schedules a single
//! `FlowProgress` event at the engine's next predicted chunk completion.
//!
//! ## Exactness
//!
//! A flow served from an idle egress finishes at `now + (delay * gb) *
//! factor`, the paper's transfer delay. A single-flow transfer that has
//! the dataset to itself runs *coalesced*: one completion prediction
//! covers the whole remainder, computed with that expression and operand
//! order, and predictions are cached as absolute [`SimTime`]s that are
//! only recomputed when the flow's service or assignment actually changes
//! — integration drift can never move a completion instant.

use crate::event::SimTime;

/// Default chunk size, GB. Small enough that a fault window mid-transfer
/// preserves most progress; large enough that per-chunk events stay cheap.
pub const DEFAULT_CHUNK_GB: f64 = 0.25;

/// Priority tier of a flow. Lower index = higher priority; a source's
/// egress serves a lower tier only while no higher-tier flow waits on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowTier {
    /// Deadline-critical result transfers.
    Immediate,
    /// Predictive prefetch and consistency propagation.
    Scheduled,
    /// Repair re-replication: preemptible background traffic.
    Background,
}

impl FlowTier {
    /// Tier index (0 = highest priority).
    pub fn index(self) -> usize {
        match self {
            FlowTier::Immediate => 0,
            FlowTier::Scheduled => 1,
            FlowTier::Background => 2,
        }
    }

    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FlowTier::Immediate => "immediate",
            FlowTier::Scheduled => "scheduled",
            FlowTier::Background => "background",
        }
    }
}

/// Chunked-transfer knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedConfig {
    /// Chunk size, GB.
    pub chunk_gb: f64,
    /// Keep verified chunks across interruptions (resume) instead of
    /// restarting the replica from zero.
    pub resume: bool,
    /// Fetch from all live holders in parallel; `false` pins each
    /// transfer to its single nearest source.
    pub multi_source: bool,
}

impl Default for ChunkedConfig {
    fn default() -> Self {
        Self {
            chunk_gb: DEFAULT_CHUNK_GB,
            resume: true,
            multi_source: true,
        }
    }
}

impl ChunkedConfig {
    /// The point-to-point preset: one chunk per replica, a single source,
    /// and an interrupted transfer restarts from zero.
    pub fn point_to_point() -> Self {
        Self {
            chunk_gb: f64::MAX,
            resume: false,
            multi_source: false,
        }
    }
}

/// Which preset of the transfer engine the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransferModel {
    /// Whole-replica single-source flows ([`ChunkedConfig::point_to_point`]).
    #[default]
    PointToPoint,
    /// Chunked, resumable, multi-source transfers.
    Chunked(ChunkedConfig),
}

impl TransferModel {
    /// The engine configuration this model runs.
    pub fn config(self) -> ChunkedConfig {
        match self {
            TransferModel::PointToPoint => ChunkedConfig::point_to_point(),
            TransferModel::Chunked(cfg) => cfg,
        }
    }
}
/// Per-replica chunk ledger: which fixed-size pieces of a dataset copy
/// have been transferred and verified.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkLedger {
    total_gb: f64,
    chunk_gb: f64,
    verified: Vec<bool>,
}

impl ChunkLedger {
    /// A fresh (all-missing) ledger for a `total_gb` replica.
    pub fn new(total_gb: f64, chunk_gb: f64) -> Self {
        assert!(
            total_gb >= 0.0 && total_gb.is_finite(),
            "invalid size {total_gb}"
        );
        assert!(
            chunk_gb > 0.0 && chunk_gb.is_finite(),
            "invalid chunk {chunk_gb}"
        );
        let n = if total_gb <= 0.0 {
            0
        } else {
            ((total_gb / chunk_gb).ceil() as usize).max(1)
        };
        Self {
            total_gb,
            chunk_gb,
            verified: vec![false; n],
        }
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.verified.len()
    }

    /// Replica size, GB.
    pub fn total_gb(&self) -> f64 {
        self.total_gb
    }

    /// Size of chunk `c`, GB (the last chunk absorbs the remainder).
    pub fn chunk_size(&self, c: usize) -> f64 {
        let n = self.verified.len();
        assert!(c < n);
        if c + 1 == n {
            self.total_gb - (n - 1) as f64 * self.chunk_gb
        } else {
            self.chunk_gb
        }
    }

    /// Whether chunk `c` has been verified.
    pub fn is_verified(&self, c: usize) -> bool {
        self.verified[c]
    }

    /// Marks chunk `c` verified; returns `false` if it already was (the
    /// engine never double-counts a chunk).
    pub fn mark_verified(&mut self, c: usize) -> bool {
        if self.verified[c] {
            false
        } else {
            self.verified[c] = true;
            true
        }
    }

    /// Number of verified chunks.
    pub fn verified_count(&self) -> usize {
        self.verified.iter().filter(|&&v| v).count()
    }

    /// Verified volume, GB.
    pub fn verified_gb(&self) -> f64 {
        (0..self.n_chunks())
            .filter(|&c| self.verified[c])
            .map(|c| self.chunk_size(c))
            .sum()
    }

    /// Missing volume, GB. Exact (`== total_gb` bitwise) for a pristine
    /// ledger so coalesced predictions reproduce `(delay * gb) * factor`
    /// exactly.
    pub fn missing_gb(&self) -> f64 {
        if self.verified_count() == 0 {
            return self.total_gb;
        }
        (0..self.n_chunks())
            .filter(|&c| !self.verified[c])
            .map(|c| self.chunk_size(c))
            .sum()
    }

    /// Lowest-index missing chunk, if any.
    pub fn first_missing(&self) -> Option<usize> {
        self.verified.iter().position(|&v| !v)
    }

    /// Whether every chunk is verified (zero-size replicas are complete).
    pub fn is_complete(&self) -> bool {
        self.verified.iter().all(|&v| v)
    }

    /// Forgets all verified chunks (resume disabled).
    pub fn reset(&mut self) {
        for v in &mut self.verified {
            *v = false;
        }
    }
}

/// One (source node, path) a transfer may fetch from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcePath {
    /// Source node index.
    pub node: usize,
    /// Path delay, seconds per GB (the reciprocal of the path rate).
    pub delay_s_per_gb: f64,
    /// Link degradation factor from the fault plan (1.0 = healthy).
    pub factor: f64,
}

#[derive(Debug, Clone)]
struct Flow {
    src: SourcePath,
    /// Whether the source's egress is moving this flow right now.
    served: bool,
    /// Chunk currently being fetched.
    chunk: Option<usize>,
    /// Remaining GB in the current chunk.
    rem_gb: f64,
    /// Single-flow fast path: one prediction covers the whole remainder.
    coalesced: bool,
    /// Cached absolute completion instant; `None` = needs recompute.
    pred: Option<SimTime>,
}

impl Flow {
    /// Path rate, GB/s (infinite on a zero-delay path).
    fn path_rate(&self) -> f64 {
        let s_per_gb = self.src.delay_s_per_gb * self.src.factor;
        if s_per_gb <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / s_per_gb
        }
    }
}

#[derive(Debug, Clone)]
struct Transfer {
    tier: FlowTier,
    dataset: Option<usize>,
    ledger: ChunkLedger,
    flows: Vec<Flow>,
    started: SimTime,
    done: bool,
}

/// The transfer engine: owns every in-flight transfer, decides which
/// flows each egress serves, integrates progress, and reports completions.
pub struct Engine {
    cfg: ChunkedConfig,
    /// Source nodes, for the per-egress FIFO.
    nodes: usize,
    /// Each source egress serves one flow at a time (see the module docs).
    fifo_egress: bool,
    transfers: Vec<Transfer>,
    /// Ids of the transfers still in flight, ascending.
    live: Vec<usize>,
    pending_done: Vec<usize>,
    generation: u64,
    now: SimTime,
}

impl Engine {
    /// An empty engine over `nodes` compute nodes; `fifo_egress` turns on
    /// egress contention.
    pub fn new(cfg: ChunkedConfig, nodes: usize, fifo_egress: bool) -> Self {
        assert!(cfg.chunk_gb > 0.0 && cfg.chunk_gb.is_finite());
        Self {
            cfg,
            nodes,
            fifo_egress,
            transfers: Vec::new(),
            live: Vec::new(),
            pending_done: Vec::new(),
            generation: 0,
            now: SimTime::ZERO,
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> ChunkedConfig {
        self.cfg
    }

    /// Monotone settle counter: a scheduled `FlowProgress` event carrying
    /// an older generation is stale and must be ignored.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Ids of the transfers still in flight, ascending.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Whether transfer `id` has completed or been cancelled.
    pub fn is_done(&self, id: usize) -> bool {
        self.transfers[id].done
    }

    /// When transfer `id` (last) started.
    pub fn started(&self, id: usize) -> SimTime {
        self.transfers[id].started
    }

    /// Priority tier of transfer `id`.
    pub fn tier(&self, id: usize) -> FlowTier {
        self.transfers[id].tier
    }

    /// Verified volume of transfer `id`'s ledger, GB.
    pub fn verified_gb(&self, id: usize) -> f64 {
        self.transfers[id].ledger.verified_gb()
    }

    /// Starts a transfer over `sources` and returns its id. A ledger with
    /// verified chunks resumes: only missing chunks move.
    pub fn begin(
        &mut self,
        now: SimTime,
        tier: FlowTier,
        dataset: Option<usize>,
        ledger: ChunkLedger,
        sources: &[SourcePath],
    ) -> usize {
        self.run_to(now);
        let done = ledger.is_complete();
        let id = self.transfers.len();
        self.transfers.push(Transfer {
            tier,
            dataset,
            ledger,
            flows: Vec::new(),
            started: now,
            done,
        });
        if done {
            self.pending_done.push(id);
        } else {
            self.live.push(id);
            self.apply_sources(id, sources);
        }
        self.settle();
        id
    }

    /// Replaces the source set of transfer `id`. Surviving sources keep
    /// their in-flight chunk (a changed path only reprices it); dropped
    /// sources lose progress below the last chunk boundary.
    pub fn set_sources(&mut self, now: SimTime, id: usize, sources: &[SourcePath]) {
        self.run_to(now);
        if self.transfers[id].done {
            return;
        }
        self.apply_sources(id, sources);
        self.settle();
    }

    /// Cancels transfer `id` and returns its ledger (verified chunks
    /// intact) so the caller can park it for a later resume.
    pub fn cancel(&mut self, now: SimTime, id: usize) -> ChunkLedger {
        self.run_to(now);
        let t = &mut self.transfers[id];
        t.done = true;
        t.flows.clear();
        let ledger = t.ledger.clone();
        self.live.retain(|&x| x != id);
        self.pending_done.retain(|&x| x != id);
        self.settle();
        ledger
    }

    /// Integrates progress up to `now`, firing any due chunk completions,
    /// and returns the transfers that finished.
    pub fn advance(&mut self, now: SimTime) -> Vec<usize> {
        self.run_to(now);
        std::mem::take(&mut self.pending_done)
    }

    /// The next instant the simulator must call back at (earliest
    /// predicted completion), with the generation that stamps the event.
    pub fn next_event(&self) -> Option<(SimTime, u64)> {
        if !self.pending_done.is_empty() {
            return Some((self.now, self.generation));
        }
        self.live
            .iter()
            .flat_map(|&tid| self.transfers[tid].flows.iter().filter_map(|f| f.pred))
            .min()
            .map(|t| (t.max(self.now), self.generation))
    }

    /// Rarest-first chunk pick for transfer `id`: among missing chunks not
    /// already assigned to one of its own flows, the chunk held or fetched
    /// by the fewest concurrent transfers of the same dataset (ties break
    /// to the lowest index).
    fn pick_chunk(&self, id: usize) -> Option<usize> {
        let tr = &self.transfers[id];
        (0..tr.ledger.n_chunks())
            .filter(|&c| !tr.ledger.is_verified(c) && !tr.flows.iter().any(|f| f.chunk == Some(c)))
            .min_by_key(|&c| (self.swarm_count(id, c), c))
    }

    /// Other in-flight transfers of transfer `id`'s dataset.
    fn swarm(&self, id: usize) -> impl Iterator<Item = &Transfer> {
        let dataset = self.transfers[id].dataset;
        // A transfer without a dataset (a result) has no swarm.
        let live = if dataset.is_some() {
            &self.live[..]
        } else {
            &[]
        };
        live.iter()
            .filter(move |&&o| o != id)
            .map(|&o| &self.transfers[o])
            .filter(move |t| t.dataset == dataset)
    }

    fn swarm_count(&self, id: usize, c: usize) -> usize {
        self.swarm(id)
            .filter(|t| {
                c < t.ledger.n_chunks()
                    && (t.ledger.is_verified(c) || t.flows.iter().any(|f| f.chunk == Some(c)))
            })
            .count()
    }

    fn apply_sources(&mut self, id: usize, sources: &[SourcePath]) {
        let tr = &mut self.transfers[id];
        let mut kept: Vec<Flow> = Vec::with_capacity(sources.len());
        for s in sources {
            if kept.iter().any(|f| f.src.node == s.node) {
                continue;
            }
            if let Some(pos) = tr.flows.iter().position(|f| f.src.node == s.node) {
                let mut f = tr.flows.remove(pos);
                if f.src.delay_s_per_gb != s.delay_s_per_gb || f.src.factor != s.factor {
                    f.src = *s;
                    f.pred = None;
                }
                kept.push(f);
            } else {
                kept.push(Flow {
                    src: *s,
                    served: false,
                    chunk: None,
                    rem_gb: 0.0,
                    coalesced: false,
                    pred: None,
                });
            }
        }
        tr.flows = kept;
    }

    /// Fires completions due by `target` in time order, then integrates
    /// the remaining interval.
    fn run_to(&mut self, target: SimTime) {
        let target = target.max(self.now);
        loop {
            let mut best: Option<(SimTime, usize, usize)> = None;
            for &tid in &self.live {
                for (fid, f) in self.transfers[tid].flows.iter().enumerate() {
                    if let Some(p) = f.pred {
                        if p <= target && best.is_none_or(|b| (p, tid, fid) < b) {
                            best = Some((p, tid, fid));
                        }
                    }
                }
            }
            let Some((p, tid, fid)) = best else { break };
            self.integrate_to(p);
            self.fire(tid, fid);
            self.settle();
        }
        self.integrate_to(target);
    }

    fn integrate_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        let dt = t.secs_since(self.now);
        for &tid in &self.live {
            let tr = &mut self.transfers[tid];
            for f in &mut tr.flows {
                if !f.served || f.chunk.is_none() {
                    continue;
                }
                let rate = f.path_rate();
                if rate <= 0.0 || !rate.is_finite() {
                    continue;
                }
                let mut budget = rate * dt;
                if f.coalesced {
                    // May cross several chunk boundaries: verify each as
                    // the fluid front passes it. The *final* missing piece
                    // is never verified here — completion is snapped by
                    // `fire()` at the predicted instant, so a transfer
                    // can't silently finish inside an integration step.
                    while budget > 0.0 {
                        let Some(c) = f.chunk else { break };
                        if budget >= f.rem_gb {
                            let n = tr.ledger.n_chunks();
                            let last_piece = !(0..n).any(|o| o != c && !tr.ledger.is_verified(o));
                            if last_piece {
                                f.rem_gb = 0.0;
                                budget = 0.0;
                            } else {
                                budget -= f.rem_gb;
                                tr.ledger.mark_verified(c);
                                let nc = tr.ledger.first_missing().expect("missing chunk");
                                f.chunk = Some(nc);
                                f.rem_gb = tr.ledger.chunk_size(nc);
                            }
                        } else {
                            f.rem_gb -= budget;
                            budget = 0.0;
                        }
                    }
                } else {
                    // Per-chunk flows never integrate past their own
                    // completion event; clamp float overshoot.
                    f.rem_gb = (f.rem_gb - budget).max(0.0);
                }
            }
        }
        self.now = t;
    }

    /// Snaps the predicted completion exactly: the chunk (or, coalesced,
    /// the whole remainder) is verified with no residual float dust.
    fn fire(&mut self, tid: usize, fid: usize) {
        let tr = &mut self.transfers[tid];
        let f = &mut tr.flows[fid];
        f.pred = None;
        if f.coalesced {
            for c in 0..tr.ledger.n_chunks() {
                tr.ledger.mark_verified(c);
            }
            f.chunk = None;
            f.rem_gb = 0.0;
        } else if let Some(c) = f.chunk.take() {
            tr.ledger.mark_verified(c);
            f.rem_gb = 0.0;
        }
        if tr.ledger.is_complete() {
            tr.done = true;
            tr.flows.clear();
            self.live.retain(|&x| x != tid);
            self.pending_done.push(tid);
        }
    }

    fn settle(&mut self) {
        self.assign_chunks();
        self.serve();
        self.predict();
        self.generation += 1;
    }

    fn assign_chunks(&mut self) {
        for i in 0..self.live.len() {
            let tid = self.live[i];
            let eligible = self.transfers[tid].flows.len() == 1 && self.swarm(tid).next().is_none();
            for f in &mut self.transfers[tid].flows {
                if f.coalesced != eligible {
                    f.coalesced = eligible;
                    f.pred = None;
                }
            }
            while let Some(fid) = self.transfers[tid]
                .flows
                .iter()
                .position(|f| f.chunk.is_none())
            {
                let Some(c) = self.pick_chunk(tid) else { break };
                let tr = &mut self.transfers[tid];
                tr.flows[fid].chunk = Some(c);
                tr.flows[fid].rem_gb = tr.ledger.chunk_size(c);
                tr.flows[fid].pred = None;
            }
        }
    }

    /// Decides which flows move: under FIFO egress each source serves its
    /// first flow by (tier, begin order) and every other flow from that
    /// source waits; otherwise every flow with a chunk moves.
    fn serve(&mut self) {
        let mut head: Vec<Option<(FlowTier, usize)>> = vec![None; self.nodes];
        if self.fifo_egress {
            for &tid in &self.live {
                let t = &self.transfers[tid];
                for f in t.flows.iter().filter(|f| f.chunk.is_some()) {
                    let h = &mut head[f.src.node];
                    if h.is_none_or(|(tier, _)| t.tier < tier) {
                        *h = Some((t.tier, tid));
                    }
                }
            }
        }
        for &tid in &self.live {
            let t = &mut self.transfers[tid];
            for f in &mut t.flows {
                let served = f.chunk.is_some()
                    && (!self.fifo_egress || head[f.src.node] == Some((t.tier, tid)));
                if f.served != served {
                    f.served = served;
                    f.pred = None;
                }
            }
        }
    }

    /// Recomputes completion instants for served flows whose trajectory
    /// changed (`pred == None`); undisturbed flows keep their cached
    /// instant.
    fn predict(&mut self) {
        let now = self.now;
        for &tid in &self.live {
            let t = &mut self.transfers[tid];
            for f in &mut t.flows {
                if f.pred.is_some() || !f.served {
                    continue;
                }
                let rate = f.path_rate();
                if rate <= 0.0 {
                    continue;
                }
                let Some(c) = f.chunk else { continue };
                let rem = if f.coalesced {
                    let done_in_chunk = t.ledger.chunk_size(c) - f.rem_gb;
                    if done_in_chunk == 0.0 {
                        t.ledger.missing_gb()
                    } else {
                        t.ledger.missing_gb() - done_in_chunk
                    }
                } else {
                    f.rem_gb
                };
                let dt = if rate.is_infinite() {
                    0.0
                } else {
                    // The paper's transfer delay: (delay * gb) * factor.
                    (f.src.delay_s_per_gb * rem) * f.src.factor
                };
                f.pred = Some(now.after_secs(dt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn src(node: usize, delay: f64) -> SourcePath {
        SourcePath {
            node,
            delay_s_per_gb: delay,
            factor: 1.0,
        }
    }

    /// A default-chunked engine over 8 nodes, with or without FIFO egress.
    fn engine(fifo_egress: bool) -> Engine {
        Engine::new(ChunkedConfig::default(), 8, fifo_egress)
    }

    #[test]
    fn ledger_chunk_geometry() {
        let l = ChunkLedger::new(1.0, 0.25);
        assert_eq!(l.n_chunks(), 4);
        assert!((l.chunk_size(3) - 0.25).abs() < 1e-12);
        let l = ChunkLedger::new(1.1, 0.25);
        assert_eq!(l.n_chunks(), 5);
        assert!((l.chunk_size(4) - 0.1).abs() < 1e-12);
        let l = ChunkLedger::new(0.0, 0.25);
        assert_eq!(l.n_chunks(), 0);
        assert!(l.is_complete());
        // The point-to-point preset moves a replica as one chunk.
        let l = ChunkLedger::new(3.3, ChunkedConfig::point_to_point().chunk_gb);
        assert_eq!(l.n_chunks(), 1);
        assert_eq!(l.chunk_size(0), 3.3);
    }

    #[test]
    fn ledger_conserves_volume() {
        let mut l = ChunkLedger::new(3.3, 0.25);
        assert_eq!(l.missing_gb(), 3.3); // pristine: exact
        for c in 0..l.n_chunks() {
            assert!(l.mark_verified(c));
            assert!(!l.mark_verified(c)); // no double count
            let sum = l.verified_gb() + l.missing_gb();
            assert!((sum - 3.3).abs() < 1e-9, "leaked volume: {sum}");
        }
        assert!(l.is_complete());
        assert!((l.verified_gb() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn single_flow_matches_legacy_duration() {
        // An idle egress: done = now + (delay * gb) * factor.
        let mut e = engine(true);
        let id = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(2.0, 0.25),
            &[src(0, 0.8)],
        );
        let (at, _) = e.next_event().unwrap();
        assert_eq!(at, SimTime::ZERO.after_secs((0.8 * 2.0) * 1.0));
        assert_eq!(e.advance(at), vec![id]);
        assert!(e.is_done(id));
    }

    #[test]
    fn zero_size_transfer_completes_immediately() {
        let mut e = engine(true);
        let id = e.begin(
            t(1.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(0.0, 0.25),
            &[src(0, 0.8)],
        );
        assert_eq!(e.next_event().unwrap().0, t(1.0));
        assert_eq!(e.advance(t(1.0)), vec![id]);
    }

    #[test]
    fn fifo_egress_serializes_a_shared_source() {
        // Two 1 GB flows out of node 0 at 0.5 s/GB: the first begun is
        // served alone (done at 0.5), the second only after it (1.0).
        let mut e = engine(true);
        let a = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 0.5)],
        );
        let b = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 0.5)],
        );
        assert_eq!(e.next_event().unwrap().0, t(0.5));
        assert_eq!(e.advance(t(0.5)), vec![a]);
        assert_eq!(e.next_event().unwrap().0, t(1.0));
        assert_eq!(e.advance(t(1.0)), vec![b]);
    }

    #[test]
    fn uncontended_nic_runs_each_flow_at_path_rate() {
        let mut e = engine(false);
        let a = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let b = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let done = e.advance(t(1.0));
        assert!(done.contains(&a) && done.contains(&b));
    }

    /// Begins a 2 GB `low` flow at t = 0 and a 1 GB `high` flow at
    /// t = 0.25, both out of node 0 at 0.5 s/GB, and checks the FIFO
    /// egress preempts `low`: `high` is done at 0.25 + 0.5 = 0.75, then
    /// `low` moves its remaining 1.5 GB by 0.75 + 0.75 = 1.5.
    fn assert_preempts(high: FlowTier, low: FlowTier) {
        let mut e = engine(true);
        let lo = e.begin(
            t(0.0),
            low,
            Some(0),
            ChunkLedger::new(2.0, 0.25),
            &[src(0, 0.5)],
        );
        let hi = e.begin(
            t(0.25),
            high,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 0.5)],
        );
        assert_eq!(e.next_event().unwrap().0, t(0.75));
        assert_eq!(e.advance(t(0.75)), vec![hi]);
        assert!((e.verified_gb(lo) - 0.5).abs() < 1e-9, "progress kept");
        assert_eq!(e.next_event().unwrap().0, t(1.5));
        assert_eq!(e.advance(t(1.5)), vec![lo]);
    }

    #[test]
    fn strict_priority_preempts_background() {
        assert_preempts(FlowTier::Immediate, FlowTier::Background);
    }

    #[test]
    fn scheduled_outranks_background() {
        assert_preempts(FlowTier::Scheduled, FlowTier::Background);
    }

    #[test]
    fn multi_source_aggregates_bandwidth() {
        // Two 1 GB/s paths from distinct egresses: 4 GB in 2 s instead of
        // the single-source 4 s.
        let mut e = engine(true);
        let id = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(4.0, 0.25),
            &[src(0, 1.0), src(1, 1.0)],
        );
        let done = e.advance(t(2.0));
        assert_eq!(done, vec![id]);
    }

    #[test]
    fn rarest_first_diversifies_across_transfers() {
        let mut e = engine(true);
        let a = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(7),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let b = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(7),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        // `a` is fetching chunk 0 and `b` (seeing 0 in flight) chunk 1;
        // each one's next pick avoids both in-flight chunks.
        assert_eq!(e.pick_chunk(b), Some(2));
        assert_eq!(e.pick_chunk(a), Some(2));
    }

    #[test]
    fn resume_keeps_verified_chunks_and_conserves_volume() {
        let mut e = engine(true);
        let id = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(3),
            ChunkLedger::new(2.0, 0.25),
            &[src(0, 1.0)],
        );
        // 1 GB/s path; cancel at 0.6 s: chunks 0 and 1 (0.5 GB) verified,
        // the 0.1 GB partial of chunk 2 is lost.
        let ledger = e.cancel(t(0.6), id);
        assert_eq!(ledger.verified_count(), 2);
        assert!((ledger.verified_gb() - 0.5).abs() < 1e-9);
        let moved_before = ledger.verified_gb();
        // Resume later from the same ledger: only the missing 1.5 GB move.
        let id2 = e.begin(
            t(10.0),
            FlowTier::Background,
            Some(3),
            ledger,
            &[src(0, 1.0)],
        );
        let (at, _) = e.next_event().unwrap();
        assert_eq!(at, t(10.0).after_secs((1.0 * 1.5) * 1.0));
        assert_eq!(e.advance(at), vec![id2]);
        assert!((moved_before + 1.5 - 2.0).abs() < 1e-9);
        assert!((e.verified_gb(id2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_source_loses_only_the_partial_chunk() {
        let mut e = engine(true);
        let id = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(2.0, 0.25),
            &[src(0, 1.0), src(1, 1.0)],
        );
        // Mid-chunk, drop source 1: its partial chunk returns to the
        // missing pool; the transfer still completes with exactly 2 GB.
        e.set_sources(t(0.1), id, &[src(0, 1.0)]);
        let mut done = Vec::new();
        let mut guard = 0;
        while !e.is_done(id) {
            let (at, _) = e.next_event().expect("transfer must keep progressing");
            done.extend(e.advance(at));
            guard += 1;
            assert!(guard < 100, "no forward progress");
        }
        assert_eq!(done, vec![id]);
        assert!((e.verified_gb(id) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn egress_schedule_is_deterministic() {
        // Identical op sequences produce bitwise-identical schedules
        // (event instants and generations).
        let script = |e: &mut Engine| -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            let a = e.begin(
                t(0.0),
                FlowTier::Immediate,
                None,
                ChunkLedger::new(1.7, 0.25),
                &[src(0, 0.4)],
            );
            let _b = e.begin(
                t(0.1),
                FlowTier::Background,
                Some(4),
                ChunkLedger::new(3.0, 0.25),
                &[src(0, 0.5), src(3, 0.9)],
            );
            let c = e.begin(
                t(0.2),
                FlowTier::Scheduled,
                Some(4),
                ChunkLedger::new(2.0, 0.25),
                &[src(3, 0.7)],
            );
            e.set_sources(t(0.3), c, &[src(3, 0.7), src(1, 1.1)]);
            let _ = e.cancel(t(0.9), a);
            for _ in 0..40 {
                let Some((at, generation)) = e.next_event() else {
                    break;
                };
                out.push((at.0, generation));
                e.advance(at);
            }
            out
        };
        let mut e1 = engine(true);
        let mut e2 = engine(true);
        assert_eq!(script(&mut e1), script(&mut e2));
        assert_eq!(e1.generation(), e2.generation());
    }

    #[test]
    fn stalled_background_flow_has_no_event_until_preemption_ends() {
        let mut e = engine(true);
        let _im = e.begin(
            t(0.0),
            FlowTier::Immediate,
            None,
            ChunkLedger::new(5.0, 0.25),
            &[src(0, 0.5)],
        );
        let bg = e.begin(
            t(0.0),
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 0.5)],
        );
        // Only the immediate flow predicts an event: the background flow
        // waits behind it on node 0's egress.
        let (at, _) = e.next_event().unwrap();
        assert_eq!(at, t(2.5));
        let done = e.advance(at);
        assert_eq!(done.len(), 1);
        assert!(!e.is_done(bg));
        // After preemption ends the background flow moves 1 GB by 3.0.
        let (at2, _) = e.next_event().unwrap();
        assert_eq!(at2, t(3.0));
        assert_eq!(e.advance(at2), vec![bg]);
    }
}
