//! Chunked, resumable multi-source transfer engine with priority tiers
//! and per-link max-min fair sharing.
//!
//! Datasets are split into fixed-size chunks tracked by a per-replica
//! [`ChunkLedger`]. An in-flight [`Engine`] transfer opens one flow per
//! live holder and fetches missing chunks in parallel, rarest-chunk-first
//! across concurrent transfers of the same dataset. When a source dies or
//! a link partitions mid-flight, the ledger keeps every verified chunk, so
//! the transfer resumes from the last completed chunk instead of
//! restarting from zero.
//!
//! Bandwidth follows a fluid model: every (source, dest) flow gets a rate
//! from a strict-priority max-min water-fill over per-node NIC capacities
//! ([`FlowTier::Immediate`] fills first, then `Scheduled`, then
//! `Background` — recomputing rates on every event is what "preemption"
//! means in a fluid model), each flow additionally capped by its path rate
//! `1 / (delay_s_per_gb * factor)`. Progress is integrated between
//! events; the simulator schedules a single `FlowProgress` event at the
//! engine's next predicted chunk completion.
//!
//! ## Exactness
//!
//! The legacy point-to-point model computes a transfer's duration as
//! `(delay * gb) * factor` once, at launch. To keep zero-fault runs
//! byte-identical to that baseline, a single-flow transfer that has the
//! dataset to itself runs *coalesced*: one completion prediction covers
//! the whole remainder, computed with the same expression and operand
//! order, and predictions are cached as absolute [`SimTime`]s that are
//! only recomputed when the flow's rate or assignment actually changes —
//! integration drift can never move a completion instant.

use crate::event::SimTime;

/// Default chunk size, GB. Small enough that a fault window mid-transfer
/// preserves most progress; large enough that per-chunk events stay cheap.
pub const DEFAULT_CHUNK_GB: f64 = 0.25;

/// Default per-node NIC capacity (egress and ingress), GB/s.
pub const DEFAULT_NIC_GB_PER_S: f64 = 2.5;

/// Priority tier of a flow. Lower index = higher priority; the water-fill
/// grants each tier bandwidth only from what the tiers above left over.
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
    /// All tiers, highest priority first.
    pub const ALL: [FlowTier; 3] = [
        FlowTier::Immediate,
        FlowTier::Scheduled,
        FlowTier::Background,
    ];

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
    /// Per-node NIC capacity (applied to egress and ingress), GB/s.
    /// `f64::INFINITY` models uncontended NICs.
    pub nic_gb_per_s: f64,
}

impl Default for ChunkedConfig {
    fn default() -> Self {
        Self {
            chunk_gb: DEFAULT_CHUNK_GB,
            resume: true,
            multi_source: true,
            nic_gb_per_s: DEFAULT_NIC_GB_PER_S,
        }
    }
}

impl ChunkedConfig {
    /// Disables resume (interrupted replicas restart from zero).
    pub fn without_resume(mut self) -> Self {
        self.resume = false;
        self
    }

    /// Disables multi-source fetch (single nearest holder only).
    pub fn without_multi_source(mut self) -> Self {
        self.multi_source = false;
        self
    }
}

/// Which transfer model the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransferModel {
    /// Legacy single-source point-to-point flows with serialized egress.
    #[default]
    PointToPoint,
    /// The chunked multi-source engine in this module.
    Chunked(ChunkedConfig),
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
    /// ledger so coalesced predictions reproduce the legacy expression.
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
    /// Rate granted by the last water-fill, GB/s.
    rate: f64,
    /// Whether the path cap (not a NIC share) is the binding constraint.
    at_path_cap: bool,
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
    fn path_cap(&self) -> f64 {
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
    dest: usize,
    tier: FlowTier,
    dataset: Option<usize>,
    ledger: ChunkLedger,
    flows: Vec<Flow>,
    started: SimTime,
    done: bool,
}

/// The transfer engine: owns every in-flight chunked transfer, grants
/// rates, integrates progress, and reports completions.
pub struct Engine {
    cfg: ChunkedConfig,
    nodes: usize,
    transfers: Vec<Transfer>,
    pending_done: Vec<usize>,
    generation: u64,
    now: SimTime,
}

impl Engine {
    /// An empty engine over `nodes` compute nodes.
    pub fn new(cfg: ChunkedConfig, nodes: usize) -> Self {
        assert!(cfg.chunk_gb > 0.0 && cfg.chunk_gb.is_finite());
        assert!(cfg.nic_gb_per_s > 0.0);
        Self {
            cfg,
            nodes,
            transfers: Vec::new(),
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

    /// Transfers still in flight.
    pub fn active_count(&self) -> usize {
        self.transfers.iter().filter(|t| !t.done).count()
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

    /// Starts a transfer toward `dest` over `sources` and returns its id.
    /// A ledger with verified chunks resumes: only missing chunks move.
    pub fn begin(
        &mut self,
        now: SimTime,
        dest: usize,
        tier: FlowTier,
        dataset: Option<usize>,
        ledger: ChunkLedger,
        sources: &[SourcePath],
    ) -> usize {
        self.run_to(now);
        let done = ledger.is_complete();
        let id = self.transfers.len();
        self.transfers.push(Transfer {
            dest,
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
        let mut best: Option<SimTime> = None;
        for t in &self.transfers {
            if t.done {
                continue;
            }
            for f in &t.flows {
                if let Some(p) = f.pred {
                    if best.is_none_or(|b| p < b) {
                        best = Some(p);
                    }
                }
            }
        }
        best.map(|t| (t.max(self.now), self.generation))
    }

    /// Rarest-first chunk pick for transfer `id`: among missing chunks not
    /// already assigned to one of its own flows, the chunk held or fetched
    /// by the fewest concurrent transfers of the same dataset (ties break
    /// to the lowest index). Public so the bench suite can time it.
    pub fn pick_chunk(&self, id: usize) -> Option<usize> {
        let tr = &self.transfers[id];
        let mut best: Option<(usize, usize)> = None;
        'chunks: for c in 0..tr.ledger.n_chunks() {
            if tr.ledger.is_verified(c) {
                continue;
            }
            for f in &tr.flows {
                if f.chunk == Some(c) {
                    continue 'chunks;
                }
            }
            let cand = (self.swarm_count(id, c), c);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best.map(|(_, c)| c)
    }

    fn swarm_count(&self, id: usize, c: usize) -> usize {
        let Some(d) = self.transfers[id].dataset else {
            return 0;
        };
        self.transfers
            .iter()
            .enumerate()
            .filter(|&(o, t)| o != id && !t.done && t.dataset == Some(d))
            .filter(|&(_, t)| {
                c < t.ledger.n_chunks()
                    && (t.ledger.is_verified(c) || t.flows.iter().any(|f| f.chunk == Some(c)))
            })
            .count()
    }

    fn shares_dataset(&self, id: usize) -> bool {
        let Some(d) = self.transfers[id].dataset else {
            return false;
        };
        self.transfers
            .iter()
            .enumerate()
            .any(|(o, t)| o != id && !t.done && t.dataset == Some(d))
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
                    rate: 0.0,
                    at_path_cap: false,
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
            for (tid, t) in self.transfers.iter().enumerate() {
                if t.done {
                    continue;
                }
                for (fid, f) in t.flows.iter().enumerate() {
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
        for tr in &mut self.transfers {
            if tr.done {
                continue;
            }
            for f in &mut tr.flows {
                if f.rate <= 0.0 || !f.rate.is_finite() || f.chunk.is_none() {
                    continue;
                }
                let mut budget = f.rate * dt;
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
            self.pending_done.push(tid);
        }
    }

    fn settle(&mut self) {
        self.assign_chunks();
        self.waterfill();
        self.predict();
        self.generation += 1;
    }

    fn assign_chunks(&mut self) {
        for tid in 0..self.transfers.len() {
            if self.transfers[tid].done {
                continue;
            }
            let eligible = self.transfers[tid].flows.len() == 1 && !self.shares_dataset(tid);
            {
                let tr = &mut self.transfers[tid];
                for f in &mut tr.flows {
                    if f.coalesced != eligible {
                        f.coalesced = eligible;
                        f.pred = None;
                    }
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

    /// Strict-priority progressive max-min water-fill over per-node NIC
    /// capacities, each flow capped by its path rate.
    fn waterfill(&mut self) {
        let mut egress = vec![self.cfg.nic_gb_per_s; self.nodes];
        let mut ingress = vec![self.cfg.nic_gb_per_s; self.nodes];
        for tier in FlowTier::ALL {
            let mut act: Vec<(usize, usize)> = Vec::new();
            for (tid, t) in self.transfers.iter().enumerate() {
                if t.done || t.tier != tier {
                    continue;
                }
                for (fid, f) in t.flows.iter().enumerate() {
                    if f.chunk.is_some() {
                        act.push((tid, fid));
                    }
                }
            }
            if act.is_empty() {
                continue;
            }
            let caps: Vec<f64> = act
                .iter()
                .map(|&(tid, fid)| self.transfers[tid].flows[fid].path_cap())
                .collect();
            let ends: Vec<(usize, usize)> = act
                .iter()
                .map(|&(tid, fid)| {
                    (
                        self.transfers[tid].flows[fid].src.node,
                        self.transfers[tid].dest,
                    )
                })
                .collect();
            let mut granted = vec![0.0f64; act.len()];
            let mut capped = vec![false; act.len()];
            let mut frozen = vec![false; act.len()];
            loop {
                let live: Vec<usize> = (0..act.len()).filter(|&i| !frozen[i]).collect();
                if live.is_empty() {
                    break;
                }
                let mut eg_count = vec![0usize; self.nodes];
                let mut in_count = vec![0usize; self.nodes];
                for &i in &live {
                    eg_count[ends[i].0] += 1;
                    in_count[ends[i].1] += 1;
                }
                let mut inc = f64::INFINITY;
                for &i in &live {
                    let (s, d) = ends[i];
                    inc = inc
                        .min(egress[s] / eg_count[s] as f64)
                        .min(ingress[d] / in_count[d] as f64)
                        .min(caps[i] - granted[i]);
                }
                if inc.is_infinite() {
                    for &i in &live {
                        granted[i] = f64::INFINITY;
                        capped[i] = true;
                        frozen[i] = true;
                    }
                    break;
                }
                if inc > 0.0 {
                    for &i in &live {
                        let (s, d) = ends[i];
                        granted[i] += inc;
                        egress[s] -= inc;
                        ingress[d] -= inc;
                    }
                }
                let mut progressed = false;
                for &i in &live {
                    let (s, d) = ends[i];
                    if granted[i] + 1e-12 >= caps[i] {
                        granted[i] = caps[i];
                        capped[i] = true;
                        frozen[i] = true;
                        progressed = true;
                    } else if egress[s] <= 1e-9 || ingress[d] <= 1e-9 {
                        frozen[i] = true;
                        progressed = true;
                    }
                }
                if !progressed {
                    for &i in &live {
                        frozen[i] = true;
                    }
                }
            }
            for (i, &(tid, fid)) in act.iter().enumerate() {
                let f = &mut self.transfers[tid].flows[fid];
                if f.rate.to_bits() != granted[i].to_bits() || f.at_path_cap != capped[i] {
                    f.rate = granted[i];
                    f.at_path_cap = capped[i];
                    f.pred = None;
                }
            }
        }
        for t in &mut self.transfers {
            if t.done {
                continue;
            }
            for f in &mut t.flows {
                if f.chunk.is_none() && f.rate != 0.0 {
                    f.rate = 0.0;
                    f.at_path_cap = false;
                    f.pred = None;
                }
            }
        }
    }

    /// Recomputes completion instants for flows whose trajectory changed
    /// (`pred == None`); undisturbed flows keep their cached instant.
    fn predict(&mut self) {
        let now = self.now;
        for t in &mut self.transfers {
            if t.done {
                continue;
            }
            for f in &mut t.flows {
                if f.pred.is_some() || f.rate <= 0.0 {
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
                let dt = if f.rate.is_infinite() {
                    0.0
                } else if f.at_path_cap {
                    // Legacy operand order: (delay * gb) * factor.
                    (f.src.delay_s_per_gb * rem) * f.src.factor
                } else {
                    rem / f.rate
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

    fn engine(nic: f64) -> Engine {
        Engine::new(
            ChunkedConfig {
                nic_gb_per_s: nic,
                ..ChunkedConfig::default()
            },
            8,
        )
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
        // Legacy point-to-point: done = now + (delay * gb) * factor.
        let mut e = engine(2.5);
        let id = e.begin(
            t(0.0),
            1,
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
        let mut e = engine(2.5);
        let id = e.begin(
            t(1.0),
            1,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(0.0, 0.25),
            &[src(0, 0.8)],
        );
        assert_eq!(e.next_event().unwrap().0, t(1.0));
        assert_eq!(e.advance(t(1.0)), vec![id]);
    }

    #[test]
    fn fair_share_splits_a_common_egress_nic() {
        // Two fast paths (cap 10 GB/s) out of one 2.5 GB/s NIC: each flow
        // gets 1.25 GB/s, so 1.25 GB finishes at t = 1.0 for both.
        let mut e = engine(2.5);
        let a = e.begin(
            t(0.0),
            1,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.25, 0.25),
            &[src(0, 0.1)],
        );
        let b = e.begin(
            t(0.0),
            2,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.25, 0.25),
            &[src(0, 0.1)],
        );
        let done = e.advance(t(1.0));
        assert!(done.contains(&a) && done.contains(&b));
    }

    #[test]
    fn uncontended_nic_runs_each_flow_at_path_rate() {
        let mut e = engine(f64::INFINITY);
        let a = e.begin(
            t(0.0),
            1,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let b = e.begin(
            t(0.0),
            2,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let done = e.advance(t(1.0));
        assert!(done.contains(&a) && done.contains(&b));
    }

    #[test]
    fn strict_priority_preempts_background() {
        let mut e = engine(2.5);
        let bg = e.begin(
            t(0.0),
            1,
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(2.5, 0.25),
            &[src(0, 0.1)],
        );
        let im = e.begin(
            t(0.0),
            2,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(2.5, 0.25),
            &[src(0, 0.1)],
        );
        // Immediate takes the whole NIC: done at 1.0; background is
        // starved until then, then runs 2.5 GB/s: done at 2.0.
        assert_eq!(e.advance(t(1.0)), vec![im]);
        assert_eq!(e.advance(t(2.0)), vec![bg]);
    }

    #[test]
    fn scheduled_outranks_background() {
        let mut e = engine(2.5);
        let bg = e.begin(
            t(0.0),
            1,
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(2.5, 0.25),
            &[src(0, 0.1)],
        );
        let sc = e.begin(
            t(0.0),
            2,
            FlowTier::Scheduled,
            None,
            ChunkLedger::new(2.5, 0.25),
            &[src(0, 0.1)],
        );
        assert_eq!(e.advance(t(1.0)), vec![sc]);
        assert_eq!(e.advance(t(2.0)), vec![bg]);
    }

    #[test]
    fn multi_source_aggregates_bandwidth() {
        // Two 1 GB/s paths into one dest with NIC 2.5: 4 GB in ~2 s
        // instead of the single-source 4 s.
        let mut e = engine(2.5);
        let id = e.begin(
            t(0.0),
            2,
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
        let mut e = engine(2.5);
        let a = e.begin(
            t(0.0),
            1,
            FlowTier::Background,
            Some(7),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        let b = e.begin(
            t(0.0),
            2,
            FlowTier::Background,
            Some(7),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 1.0)],
        );
        // `a` is fetching chunk 0 and `b` (seeing 0 in flight) chunk 1;
        // each one's next pick avoids both in-flight chunks.
        assert_eq!(e.pick_chunk(b), Some(2));
        assert_eq!(e.pick_chunk(a), Some(2));
        let _ = (a, b);
    }

    #[test]
    fn resume_keeps_verified_chunks_and_conserves_volume() {
        let mut e = engine(2.5);
        let id = e.begin(
            t(0.0),
            1,
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
            1,
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
        let mut e = engine(2.5);
        let id = e.begin(
            t(0.0),
            2,
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
    fn waterfill_recompute_is_deterministic() {
        // The fair-share satellite: identical op sequences produce
        // bitwise-identical schedules (event instants and generations).
        let script = |e: &mut Engine| -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            let a = e.begin(
                t(0.0),
                1,
                FlowTier::Immediate,
                None,
                ChunkLedger::new(1.7, 0.25),
                &[src(0, 0.4)],
            );
            let _b = e.begin(
                t(0.1),
                2,
                FlowTier::Background,
                Some(4),
                ChunkLedger::new(3.0, 0.25),
                &[src(0, 0.5), src(3, 0.9)],
            );
            let c = e.begin(
                t(0.2),
                3,
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
        let mut e1 = engine(2.5);
        let mut e2 = engine(2.5);
        assert_eq!(script(&mut e1), script(&mut e2));
        assert_eq!(e1.generation(), e2.generation());
    }

    #[test]
    fn stalled_background_flow_has_no_event_until_preemption_ends() {
        let mut e = engine(2.5);
        let _im = e.begin(
            t(0.0),
            1,
            FlowTier::Immediate,
            None,
            ChunkLedger::new(5.0, 0.25),
            &[src(0, 0.1)],
        );
        let bg = e.begin(
            t(0.0),
            2,
            FlowTier::Background,
            Some(0),
            ChunkLedger::new(1.0, 0.25),
            &[src(0, 0.1)],
        );
        // Only the immediate flow predicts an event (bg rate is 0).
        let (at, _) = e.next_event().unwrap();
        assert_eq!(at, SimTime::ZERO.after_secs(2.0));
        let done = e.advance(at);
        assert_eq!(done.len(), 1);
        assert!(!e.is_done(bg));
        // After preemption ends the background flow finishes 1 GB at 2.5.
        let (at2, _) = e.next_event().unwrap();
        assert_eq!(e.advance(at2), vec![bg]);
    }
}
