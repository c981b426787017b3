//! Fault injection: deterministic fault plans and MTBF/MTTR generators.
//!
//! A [`FaultPlan`] is the full schedule of infrastructure trouble one
//! testbed run suffers:
//!
//! * [`NodeOutage`] — a VM goes down at `down_at_s` and (optionally) comes
//!   back at `up_at_s`. While down it serves nothing: queued and in-flight
//!   work is lost, arriving queries fail over to live replicas. A missing
//!   `up_at_s` is a permanent crash (the legacy
//!   [`NodeFailure`](crate::sim::NodeFailure) semantics).
//! * [`LinkFault`] — the minimum-delay path between two compute endpoints
//!   degrades by `delay_factor` (or partitions entirely when the factor is
//!   `None`) for a window. Result shipping and repair transfers crossing
//!   the pair during the window pay the factor; a partition blocks them
//!   until retried.
//!
//! Plans load from JSON ([`FaultPlan::from_json_str`], behind
//! `edgerep solve --fault-plan` and `repro ext-availability --fault-plan`)
//! and are validated with [`FaultPlan::validate`] before a run —
//! malformed plans surface as errors, never panics.
//!
//! [`FaultConfig`] draws a plan from MTBF/MTTR exponentials with a seeded
//! RNG, so availability sweeps can scan failure rates deterministically.

use edgerep_model::ComputeNodeId;
use edgerep_obs::json::{FromJson, Json};
use edgerep_rng::SmallRng;

use crate::sim::NodeFailure;

/// One node outage window: down at `down_at_s`, back at `up_at_s`
/// (`None` = permanent crash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutage {
    /// The compute node that goes down.
    pub node: ComputeNodeId,
    /// Outage start, simulated seconds.
    pub down_at_s: f64,
    /// Recovery instant, simulated seconds; `None` never recovers.
    pub up_at_s: Option<f64>,
}

/// One link-trouble window on the path between two compute endpoints.
///
/// The testbed's delay model is endpoint-to-endpoint (precomputed
/// minimum-delay paths), so a "link" here is the path between a pair of
/// compute nodes: every transfer between `a` and `b` (either direction)
/// during the window is scaled by `delay_factor`, or blocked entirely when
/// the factor is `None` (a partition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: ComputeNodeId,
    /// The other endpoint.
    pub b: ComputeNodeId,
    /// Window start, simulated seconds.
    pub down_at_s: f64,
    /// Window end, simulated seconds; `None` never heals.
    pub up_at_s: Option<f64>,
    /// Path-delay multiplier while active (`>= 1`); `None` = partition
    /// (infinite delay — transfers must wait the window out).
    pub delay_factor: Option<f64>,
}

/// A malformed fault plan, reported by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A node id outside the world's compute nodes.
    UnknownNode {
        /// The offending id.
        node: ComputeNodeId,
        /// How many compute nodes the world has.
        nodes: usize,
    },
    /// A window with a non-finite or negative start, or an end at or
    /// before its start.
    InvalidWindow {
        /// Window start.
        down_at_s: f64,
        /// Window end, if any.
        up_at_s: Option<f64>,
    },
    /// A link delay factor below 1 or non-finite.
    InvalidDelayFactor(f64),
    /// A link fault whose endpoints coincide.
    SelfLink(ComputeNodeId),
    /// More scheduled windows than any plausible run needs — almost
    /// always a runaway storm configuration.
    TooManyOutages {
        /// Scheduled windows (node outages + link faults).
        count: usize,
        /// The accepted ceiling.
        limit: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "fault on unknown node {node} (world has {nodes} compute nodes)"
                )
            }
            FaultPlanError::InvalidWindow { down_at_s, up_at_s } => {
                write!(f, "invalid fault window [{down_at_s}, {up_at_s:?})")
            }
            FaultPlanError::InvalidDelayFactor(x) => {
                write!(f, "link delay factor {x} must be finite and >= 1")
            }
            FaultPlanError::SelfLink(v) => write!(f, "link fault from {v} to itself"),
            FaultPlanError::TooManyOutages { count, limit } => {
                write!(f, "{count} fault windows exceed the {limit} ceiling")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The full fault schedule of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Node outage windows.
    pub node_outages: Vec<NodeOutage>,
    /// Link trouble windows.
    pub link_faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// Parses a plan document:
    ///
    /// ```text
    /// {"node_outages": [{"node": 3, "down_at_s": 10.0, "up_at_s": 50.0}],
    ///  "link_faults": [{"a": 0, "b": 4, "down_at_s": 5.0, "up_at_s": null,
    ///                   "delay_factor": 3.0}]}
    /// ```
    ///
    /// Either list may be left out, and an absent or `null` `up_at_s` /
    /// `delay_factor` is `None`. Errors name the offending field; values
    /// are checked by [`FaultPlan::validate`], not here.
    pub fn from_json_str(text: &str) -> Result<FaultPlan, String> {
        let v = Json::parse(text)?;
        Ok(FaultPlan {
            node_outages: v.field::<Option<_>>("node_outages")?.unwrap_or_default(),
            link_faults: v.field::<Option<_>>("link_faults")?.unwrap_or_default(),
        })
    }
}

impl FromJson for NodeOutage {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(NodeOutage {
            node: v.field("node")?,
            down_at_s: v.field("down_at_s")?,
            up_at_s: v.field("up_at_s")?,
        })
    }
}

impl FromJson for LinkFault {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(LinkFault {
            a: v.field("a")?,
            b: v.field("b")?,
            down_at_s: v.field("down_at_s")?,
            up_at_s: v.field("up_at_s")?,
            delay_factor: v.field("delay_factor")?,
        })
    }
}

fn window_ok(down_at_s: f64, up_at_s: Option<f64>) -> bool {
    if !(down_at_s.is_finite() && down_at_s >= 0.0) {
        return false;
    }
    match up_at_s {
        None => true,
        Some(up) => up.is_finite() && up > down_at_s,
    }
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.node_outages.is_empty() && self.link_faults.is_empty()
    }

    /// Upgrades the legacy permanent-crash list into a plan.
    pub fn from_failures(faults: &[NodeFailure]) -> Self {
        Self {
            node_outages: faults
                .iter()
                .map(|f| NodeOutage {
                    node: f.node,
                    down_at_s: f.at_s,
                    up_at_s: None,
                })
                .collect(),
            link_faults: Vec::new(),
        }
    }

    /// Ceiling on scheduled windows accepted by [`FaultPlan::validate`].
    pub const MAX_WINDOWS: usize = 100_000;

    /// Checks every window against a world with `nodes` compute nodes.
    pub fn validate(&self, nodes: usize) -> Result<(), FaultPlanError> {
        let count = self.node_outages.len() + self.link_faults.len();
        if count > Self::MAX_WINDOWS {
            return Err(FaultPlanError::TooManyOutages {
                count,
                limit: Self::MAX_WINDOWS,
            });
        }
        for o in &self.node_outages {
            if o.node.index() >= nodes {
                return Err(FaultPlanError::UnknownNode {
                    node: o.node,
                    nodes,
                });
            }
            if !window_ok(o.down_at_s, o.up_at_s) {
                return Err(FaultPlanError::InvalidWindow {
                    down_at_s: o.down_at_s,
                    up_at_s: o.up_at_s,
                });
            }
        }
        for l in &self.link_faults {
            for v in [l.a, l.b] {
                if v.index() >= nodes {
                    return Err(FaultPlanError::UnknownNode { node: v, nodes });
                }
            }
            if l.a == l.b {
                return Err(FaultPlanError::SelfLink(l.a));
            }
            if !window_ok(l.down_at_s, l.up_at_s) {
                return Err(FaultPlanError::InvalidWindow {
                    down_at_s: l.down_at_s,
                    up_at_s: l.up_at_s,
                });
            }
            if let Some(x) = l.delay_factor {
                if !(x.is_finite() && x >= 1.0) {
                    return Err(FaultPlanError::InvalidDelayFactor(x));
                }
            }
        }
        Ok(())
    }

    /// The delay multiplier on the path between `u` and `v` at time `t_s`:
    /// `1.0` when untroubled, the largest active `delay_factor` when
    /// degraded, `f64::INFINITY` when an active window partitions the pair.
    pub fn link_factor(&self, u: ComputeNodeId, v: ComputeNodeId, t_s: f64) -> f64 {
        if u == v {
            return 1.0;
        }
        let mut factor = 1.0f64;
        for l in &self.link_faults {
            let hits = (l.a == u && l.b == v) || (l.a == v && l.b == u);
            if !hits {
                continue;
            }
            let active = t_s >= l.down_at_s && l.up_at_s.is_none_or(|up| t_s < up);
            if !active {
                continue;
            }
            match l.delay_factor {
                None => return f64::INFINITY,
                Some(x) => factor = factor.max(x),
            }
        }
        factor
    }

    /// Whether the path between `u` and `v` is hard-partitioned at `t_s`.
    pub fn partitioned(&self, u: ComputeNodeId, v: ComputeNodeId, t_s: f64) -> bool {
        self.link_factor(u, v, t_s).is_infinite()
    }

    /// The earliest instant `>= t_s` at which the pair stops being
    /// partitioned, if any active partition window ends.
    pub fn partition_heals_at(&self, u: ComputeNodeId, v: ComputeNodeId, t_s: f64) -> Option<f64> {
        let mut heal: Option<f64> = None;
        for l in &self.link_faults {
            let hits = (l.a == u && l.b == v) || (l.a == v && l.b == u);
            if !hits || l.delay_factor.is_some() {
                continue;
            }
            let active = t_s >= l.down_at_s && l.up_at_s.is_none_or(|up| t_s < up);
            if active {
                match l.up_at_s {
                    None => return None, // never heals
                    Some(up) => heal = Some(heal.map_or(up, |h: f64| h.max(up))),
                }
            }
        }
        heal
    }
}

/// MTBF/MTTR fault-plan generator for availability sweeps.
///
/// A `node_fraction` of compute nodes (and a `link_fraction` of compute
/// pairs) is marked fault-prone; each draws alternating up-times from
/// `Exp(1/mtbf)` and repair times from `Exp(1/mttr)` until `horizon_s`.
/// Everything is drawn from one seeded [`SmallRng`], so equal configs
/// yield byte-equal plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fraction of compute nodes that suffer outages (ceil'd to a count).
    pub node_fraction: f64,
    /// Mean time between node failures, seconds.
    pub node_mtbf_s: f64,
    /// Mean time to repair a node, seconds.
    pub node_mttr_s: f64,
    /// Fraction of compute-node pairs that suffer link trouble.
    pub link_fraction: f64,
    /// Mean time between link faults, seconds.
    pub link_mtbf_s: f64,
    /// Mean time to heal a link, seconds.
    pub link_mttr_s: f64,
    /// Delay multiplier of a degraded (non-partition) link window.
    pub degrade_factor: f64,
    /// Probability a link window is a full partition instead of a
    /// degradation.
    pub partition_prob: f64,
    /// Generation horizon, simulated seconds.
    pub horizon_s: f64,
    /// Correlated failure storms: how many rack/region blasts to
    /// schedule across the horizon (`0` disables storms entirely — and
    /// adds **no** RNG draws, so plans stay byte-equal to pre-storm
    /// configs).
    pub storm_count: usize,
    /// Fraction of the struck region's nodes a storm takes down.
    pub storm_region_fraction: f64,
    /// Stagger window: victims go down within this many seconds of the
    /// storm trigger.
    pub storm_window_s: f64,
    /// Mean outage duration of a storm victim, seconds.
    pub storm_mttr_s: f64,
    /// Whether the struck region is also network-isolated (its paths to
    /// every outside node partition) for the storm's span — the
    /// blast-radius semantics of a ToR/aggregation failure.
    pub storm_isolate: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            node_fraction: 0.1,
            node_mtbf_s: 60.0,
            node_mttr_s: 25.0,
            link_fraction: 0.0,
            link_mtbf_s: 60.0,
            link_mttr_s: 10.0,
            degrade_factor: 8.0,
            partition_prob: 0.3,
            horizon_s: 240.0,
            storm_count: 0,
            storm_region_fraction: 0.75,
            storm_window_s: 5.0,
            storm_mttr_s: 150.0,
            storm_isolate: true,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Scales the failure intensity: the fraction of fault-prone nodes.
    pub fn with_node_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "node fraction must be in [0, 1]");
        self.node_fraction = f;
        self
    }

    /// Sets the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules `count` correlated failure storms.
    pub fn with_storms(mut self, count: usize) -> Self {
        self.storm_count = count;
        self
    }

    fn draw_exp(rng: &mut SmallRng, mean_s: f64) -> f64 {
        // Inverse CDF; clamp the uniform away from 0 so ln stays finite.
        -mean_s * rng.gen_f64().max(1e-12).ln()
    }

    fn draw_windows(
        rng: &mut SmallRng,
        mtbf_s: f64,
        mttr_s: f64,
        horizon_s: f64,
    ) -> Vec<(f64, f64)> {
        let mut windows = Vec::new();
        let mut t = Self::draw_exp(rng, mtbf_s);
        while t < horizon_s && windows.len() < 64 {
            let dur = Self::draw_exp(rng, mttr_s).max(1e-3);
            windows.push((t, t + dur));
            t += dur + Self::draw_exp(rng, mtbf_s);
        }
        windows
    }

    /// Draws a deterministic plan for a world with `nodes` compute nodes.
    ///
    /// The first `ceil(node_fraction * nodes)` nodes of a seeded shuffle
    /// are fault-prone (so scanning the fraction grows the *same* fault
    /// set), and similarly for pairs. Storms (if any) treat the whole
    /// world as one region; use [`FaultConfig::generate_with_regions`]
    /// for a real blast-radius grouping.
    pub fn generate(&self, nodes: usize) -> FaultPlan {
        self.generate_with_regions(&vec![0; nodes])
    }

    /// Like [`FaultConfig::generate`], but with a region id per node so
    /// correlated storms have a blast radius: each storm picks a region,
    /// takes `storm_region_fraction` of its members down within
    /// `storm_window_s` of the trigger, and (when `storm_isolate` is on)
    /// partitions every member's path to the outside for the storm span.
    pub fn generate_with_regions(&self, region_of: &[u32]) -> FaultPlan {
        let nodes = region_of.len();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xFA17_7E57);
        let mut plan = FaultPlan::empty();

        // Fault-prone nodes: partial Fisher-Yates prefix.
        let mut ids: Vec<u32> = (0..nodes as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let prone = ((self.node_fraction * nodes as f64).ceil() as usize).min(nodes);
        for &id in &ids[..prone] {
            for (down, up) in
                Self::draw_windows(&mut rng, self.node_mtbf_s, self.node_mttr_s, self.horizon_s)
            {
                plan.node_outages.push(NodeOutage {
                    node: ComputeNodeId(id),
                    down_at_s: down,
                    up_at_s: Some(up),
                });
            }
        }

        // Fault-prone pairs.
        if self.link_fraction > 0.0 && nodes >= 2 {
            let mut pairs: Vec<(u32, u32)> = (0..nodes as u32)
                .flat_map(|i| ((i + 1)..nodes as u32).map(move |j| (i, j)))
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..=i));
            }
            let prone =
                ((self.link_fraction * pairs.len() as f64).ceil() as usize).min(pairs.len());
            for &(a, b) in &pairs[..prone] {
                for (down, up) in
                    Self::draw_windows(&mut rng, self.link_mtbf_s, self.link_mttr_s, self.horizon_s)
                {
                    let delay_factor = if rng.gen_bool(self.partition_prob) {
                        None
                    } else {
                        Some(self.degrade_factor.max(1.0))
                    };
                    plan.link_faults.push(LinkFault {
                        a: ComputeNodeId(a),
                        b: ComputeNodeId(b),
                        down_at_s: down,
                        up_at_s: Some(up),
                        delay_factor,
                    });
                }
            }
        }

        // Correlated failure storms. Guarded so a disabled storm config
        // draws nothing: existing seeds keep producing byte-equal plans.
        if self.storm_count > 0 && nodes > 0 {
            let mut region_ids: Vec<u32> = region_of.to_vec();
            region_ids.sort_unstable();
            region_ids.dedup();
            let seg = self.horizon_s / self.storm_count as f64;
            for k in 0..self.storm_count {
                let trigger = k as f64 * seg + rng.gen_f64() * (0.3 * seg);
                let region = region_ids[rng.gen_range(0..region_ids.len())];
                let mut members: Vec<u32> = (0..nodes as u32)
                    .filter(|&i| region_of[i as usize] == region)
                    .collect();
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.gen_range(0..=i));
                }
                let victims = ((self.storm_region_fraction * members.len() as f64).ceil() as usize)
                    .min(members.len());
                let span_end = trigger + self.storm_window_s + self.storm_mttr_s;
                for &m in &members[..victims] {
                    let down = trigger + rng.gen_f64() * self.storm_window_s;
                    let dur = Self::draw_exp(&mut rng, self.storm_mttr_s).max(1e-3);
                    plan.node_outages.push(NodeOutage {
                        node: ComputeNodeId(m),
                        down_at_s: down,
                        up_at_s: Some(down + dur),
                    });
                }
                if self.storm_isolate {
                    for &m in &members {
                        for o in 0..nodes as u32 {
                            if region_of[o as usize] == region {
                                continue;
                            }
                            plan.link_faults.push(LinkFault {
                                a: ComputeNodeId(m),
                                b: ComputeNodeId(o),
                                down_at_s: trigger,
                                up_at_s: Some(span_end),
                                delay_factor: None,
                            });
                        }
                    }
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan in the exact shape earlier releases wrote (serde's pretty
    /// printer, `null` for absent options): such files must still load.
    const GOLDEN: &str = r#"{
  "node_outages": [
    {
      "node": 3,
      "down_at_s": 10.0,
      "up_at_s": 50.0
    },
    {
      "node": 5,
      "down_at_s": 20.0,
      "up_at_s": null
    }
  ],
  "link_faults": [
    {
      "a": 0,
      "b": 4,
      "down_at_s": 5.0,
      "up_at_s": 30.0,
      "delay_factor": 3.0
    },
    {
      "a": 1,
      "b": 2,
      "down_at_s": 0.0,
      "up_at_s": null,
      "delay_factor": null
    }
  ]
}"#;

    #[test]
    fn golden_plan_loads() {
        let plan = FaultPlan::from_json_str(GOLDEN).unwrap();
        let v = ComputeNodeId;
        assert_eq!(
            plan,
            FaultPlan {
                node_outages: vec![
                    NodeOutage {
                        node: v(3),
                        down_at_s: 10.0,
                        up_at_s: Some(50.0),
                    },
                    NodeOutage {
                        node: v(5),
                        down_at_s: 20.0,
                        up_at_s: None,
                    },
                ],
                link_faults: vec![
                    LinkFault {
                        a: v(0),
                        b: v(4),
                        down_at_s: 5.0,
                        up_at_s: Some(30.0),
                        delay_factor: Some(3.0),
                    },
                    LinkFault {
                        a: v(1),
                        b: v(2),
                        down_at_s: 0.0,
                        up_at_s: None,
                        delay_factor: None,
                    },
                ],
            }
        );
        assert_eq!(plan.validate(20), Ok(()));
    }

    #[test]
    fn plan_lists_and_options_may_be_left_out() {
        assert_eq!(FaultPlan::from_json_str("{}"), Ok(FaultPlan::empty()));
        let plan =
            FaultPlan::from_json_str(r#"{"node_outages": [{"node": 1, "down_at_s": 2}]}"#).unwrap();
        assert_eq!(plan.node_outages[0].up_at_s, None);
        assert!(plan.link_faults.is_empty());
    }

    #[test]
    fn malformed_plans_name_the_field() {
        let err =
            FaultPlan::from_json_str(&GOLDEN.replace("\"node\": 3", "\"node\": -3")).unwrap_err();
        assert!(
            err.starts_with("field \"node_outages\": [0]: field \"node\": "),
            "{err}"
        );
        let err = FaultPlan::from_json_str(r#"{"node_outages": [{"node": 1}]}"#).unwrap_err();
        assert!(err.contains("missing field \"down_at_s\""), "{err}");
        assert!(FaultPlan::from_json_str("{not json").is_err());
        assert!(FaultPlan::from_json_str("[]").is_err());
    }

    #[test]
    fn empty_plan_is_valid_and_transparent() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert!(plan.validate(4).is_ok());
        let a = ComputeNodeId(0);
        let b = ComputeNodeId(1);
        assert_eq!(plan.link_factor(a, b, 0.0), 1.0);
        assert!(!plan.partitioned(a, b, 10.0));
    }

    #[test]
    fn from_failures_upgrades_legacy_crashes() {
        let plan = FaultPlan::from_failures(&[NodeFailure {
            node: ComputeNodeId(2),
            at_s: 1.5,
        }]);
        assert_eq!(plan.node_outages.len(), 1);
        assert_eq!(plan.node_outages[0].up_at_s, None);
        assert!(plan.validate(3).is_ok());
        assert!(plan.validate(2).is_err());
    }

    #[test]
    fn validate_rejects_malformed_windows() {
        let mut plan = FaultPlan::empty();
        plan.node_outages.push(NodeOutage {
            node: ComputeNodeId(0),
            down_at_s: 5.0,
            up_at_s: Some(3.0), // ends before it starts
        });
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::InvalidWindow { .. })
        ));

        let mut plan = FaultPlan::empty();
        plan.node_outages.push(NodeOutage {
            node: ComputeNodeId(0),
            down_at_s: f64::NAN,
            up_at_s: None,
        });
        assert!(plan.validate(4).is_err());

        let mut plan = FaultPlan::empty();
        plan.link_faults.push(LinkFault {
            a: ComputeNodeId(0),
            b: ComputeNodeId(0),
            down_at_s: 0.0,
            up_at_s: None,
            delay_factor: Some(2.0),
        });
        assert!(matches!(plan.validate(4), Err(FaultPlanError::SelfLink(_))));

        let mut plan = FaultPlan::empty();
        plan.link_faults.push(LinkFault {
            a: ComputeNodeId(0),
            b: ComputeNodeId(1),
            down_at_s: 0.0,
            up_at_s: None,
            delay_factor: Some(0.5), // a speed-up is not a fault
        });
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::InvalidDelayFactor(_))
        ));
    }

    #[test]
    fn validate_reports_unknown_nodes() {
        let plan = FaultPlan::from_failures(&[NodeFailure {
            node: ComputeNodeId(99),
            at_s: 0.0,
        }]);
        let err = plan.validate(4).unwrap_err();
        assert!(err.to_string().contains("fault on unknown node"));
    }

    #[test]
    fn link_factor_windows_and_partitions() {
        let a = ComputeNodeId(0);
        let b = ComputeNodeId(1);
        let c = ComputeNodeId(2);
        let plan = FaultPlan {
            node_outages: Vec::new(),
            link_faults: vec![
                LinkFault {
                    a,
                    b,
                    down_at_s: 10.0,
                    up_at_s: Some(20.0),
                    delay_factor: Some(4.0),
                },
                LinkFault {
                    a: b,
                    b: c,
                    down_at_s: 5.0,
                    up_at_s: Some(15.0),
                    delay_factor: None,
                },
            ],
        };
        assert_eq!(plan.link_factor(a, b, 9.9), 1.0);
        assert_eq!(plan.link_factor(a, b, 10.0), 4.0);
        assert_eq!(plan.link_factor(b, a, 19.9), 4.0); // symmetric
        assert_eq!(plan.link_factor(a, b, 20.0), 1.0); // half-open window
        assert!(plan.partitioned(b, c, 5.0));
        assert!(!plan.partitioned(b, c, 15.0));
        assert_eq!(plan.partition_heals_at(b, c, 5.0), Some(15.0));
        assert_eq!(plan.partition_heals_at(b, c, 15.0), None);
        assert_eq!(plan.partition_heals_at(a, b, 12.0), None); // degraded, not cut
        assert_eq!(plan.link_factor(a, a, 12.0), 1.0);
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        let cfg = FaultConfig {
            node_fraction: 0.25,
            link_fraction: 0.05,
            ..Default::default()
        };
        let a = cfg.generate(20);
        let b = cfg.generate(20);
        assert_eq!(a, b);
        assert!(a.validate(20).is_ok());
        assert!(
            !a.node_outages.is_empty(),
            "a quarter of 20 nodes must fault"
        );
        for o in &a.node_outages {
            assert!(o.up_at_s.expect("generated outages are transient") > o.down_at_s);
        }
    }

    #[test]
    fn generator_scales_with_fraction() {
        let lo = FaultConfig::default().with_node_fraction(0.1).generate(20);
        let hi = FaultConfig::default().with_node_fraction(0.5).generate(20);
        let nodes = |p: &FaultPlan| {
            let mut ids: Vec<u32> = p.node_outages.iter().map(|o| o.node.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        assert!(nodes(&lo).len() <= nodes(&hi).len());
        assert!(nodes(&hi).len() >= 10 * 4 / 10); // ceil(0.5 * 20) should be hit unless draws land late
    }

    #[test]
    fn zero_fraction_generates_nothing() {
        let plan = FaultConfig::default().with_node_fraction(0.0).generate(20);
        assert!(plan.node_outages.is_empty());
        assert!(plan.is_empty());
    }

    #[test]
    fn disabled_storms_change_nothing() {
        // storm_count == 0 must add zero RNG draws: plans stay byte-equal
        // to what pre-storm configs produced for the same seed.
        let base = FaultConfig::default().with_node_fraction(0.25);
        let with_knobs = FaultConfig {
            storm_region_fraction: 1.0,
            storm_window_s: 1.0,
            storm_mttr_s: 10.0,
            ..base
        };
        assert_eq!(base.generate(20), with_knobs.generate(20));
    }

    #[test]
    fn storms_blast_a_fraction_of_one_region_within_the_window() {
        // 3 regions of 4 nodes each.
        let region_of: Vec<u32> = (0..12).map(|i| i / 4).collect();
        let cfg = FaultConfig {
            node_fraction: 0.0,
            storm_region_fraction: 0.75,
            storm_window_s: 5.0,
            storm_mttr_s: 30.0,
            storm_isolate: true,
            ..FaultConfig::default()
        }
        .with_storms(2)
        .with_seed(3);
        let plan = cfg.generate_with_regions(&region_of);
        assert_eq!(plan, cfg.generate_with_regions(&region_of), "deterministic");
        assert!(plan.validate(12).is_ok(), "storm plans must validate");
        // Two storms × ceil(0.75 * 4) victims each.
        assert_eq!(plan.node_outages.len(), 6);
        // Victims of one storm share a region and a 5 s stagger window.
        for chunk in plan.node_outages.chunks(3) {
            let r = region_of[chunk[0].node.index()];
            let lo = chunk.iter().map(|o| o.down_at_s).fold(f64::MAX, f64::min);
            for o in chunk {
                assert_eq!(region_of[o.node.index()], r, "blast stays in one region");
                assert!(o.down_at_s - lo <= 5.0 + 1e-9, "stagger bounded by window");
                assert!(o.up_at_s.unwrap() > o.down_at_s);
            }
        }
        // Isolation cuts every member↔outside pair, never intra-region.
        assert!(!plan.link_faults.is_empty());
        for l in &plan.link_faults {
            assert_ne!(region_of[l.a.index()], region_of[l.b.index()]);
            assert_eq!(l.delay_factor, None, "isolation is a partition");
        }
        // 2 storms × 4 members × 8 outside nodes.
        assert_eq!(plan.link_faults.len(), 64);
    }

    #[test]
    fn validate_rejects_runaway_plans() {
        let mut plan = FaultPlan::empty();
        for i in 0..=FaultPlan::MAX_WINDOWS {
            plan.node_outages.push(NodeOutage {
                node: ComputeNodeId((i % 4) as u32),
                down_at_s: i as f64,
                up_at_s: Some(i as f64 + 0.5),
            });
        }
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::TooManyOutages { .. })
        ));
    }
}
