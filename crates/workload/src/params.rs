//! Workload parameters mirroring §4.1 of the paper.

/// An inclusive-exclusive `f64` range usable with `SmallRng::gen_range`.
pub type Range = (f64, f64);

/// An inclusive integer range `[lo, hi]`.
pub type IntRange = (usize, usize);

/// Which random topology family the generator draws.
///
/// The paper's §4.1 uses GT-ITM's *flat* model (every node pair linked
/// with probability 0.2). GT-ITM's signature *transit-stub* hierarchy is
/// also provided so conclusions can be checked against a structured
/// topology (`repro ext-topology`): switches form a well-connected transit
/// core, cloudlets cluster into stub domains hanging off single transit
/// nodes, and data centers attach to the core via Internet links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyModel {
    /// Flat Erdős–Rényi with the configured link probability (the paper).
    #[default]
    FlatRandom,
    /// Two-level transit-stub hierarchy.
    TransitStub,
}

/// Every knob of the simulated evaluation environment.
///
/// Defaults are the paper's §4.1 settings. Fields the paper leaves
/// unspecified (processing delays, link delays, selectivities, deadline
/// scale) are set to values that reproduce the *shapes* the paper reports
/// and are documented per field.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Number of remote data centers (paper default: 6).
    pub data_centers: usize,
    /// Number of edge cloudlets (paper default: 24).
    pub cloudlets: usize,
    /// Number of routing-only switches (paper default: 2).
    pub switches: usize,
    /// Number of base stations through which users attach (Fig. 1 shows
    /// them; the paper's §4.1 simulation does not give a count, so the
    /// default is 0 — base stations are routing-only and do not change
    /// the placement problem, only path lengths).
    pub base_stations: usize,
    /// Probability of a link between each node pair (paper: 0.2).
    pub link_probability: f64,
    /// Topology family (see [`TopologyModel`]).
    pub topology: TopologyModel,
    /// Data center computing capacity range, GHz (paper: `[200, 700]`).
    pub dc_capacity: Range,
    /// Cloudlet computing capacity range, GHz (paper: `[8, 16]`).
    pub cloudlet_capacity: Range,
    /// Data center per-unit processing delay, s/GB per GHz. Not given in
    /// the paper; DCs process fastest.
    pub dc_proc_delay: Range,
    /// Cloudlet per-unit processing delay, s/GB per GHz.
    pub cloudlet_proc_delay: Range,
    /// WMAN link transmission delay, s/GB (edge-to-edge links).
    pub wman_link_delay: Range,
    /// Internet link transmission delay, s/GB (links touching a DC, which
    /// is reached "via the Internet to/from gateway nodes", §2.1).
    pub internet_link_delay: Range,
    /// Number of datasets `|S|` (paper: `[5, 20]`).
    pub dataset_count: IntRange,
    /// Dataset volume, GB (paper: `[1, 6]`).
    pub dataset_volume: Range,
    /// Number of queries `|Q|` (paper: `[10, 100]`).
    pub query_count: IntRange,
    /// Datasets demanded per query (paper: `[1, 7]`); the upper bound is
    /// the paper's `F` knob.
    pub datasets_per_query: IntRange,
    /// Compute rate `r_m`, GHz per GB (paper: `[0.75, 1.25]`).
    pub compute_rate: Range,
    /// Intermediate-result selectivity `α_nm` (Rao et al. framing; `(0,1]`).
    pub selectivity: Range,
    /// Base QoS deadline in seconds, drawn per query independently of its
    /// demand size.
    pub deadline_base: Range,
    /// Size-dependent deadline component, s/GB: the paper scales each
    /// query's QoS deadline with its demanded data ("the delay requirement
    /// of each query depends on the size of dataset demanded by the
    /// query", §4.1). The full deadline is
    /// `base + largest_demanded_size · per_gb`; the sublinear total keeps
    /// large datasets genuinely harder to serve remotely, which drives the
    /// volume gaps of Figs. 2–5.
    pub deadline_per_gb: Range,
    /// Probability a query's home is a cloudlet (users sit at the edge).
    pub home_on_cloudlet_probability: f64,
    /// Replica budget `K` per dataset.
    pub max_replicas: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            data_centers: 6,
            cloudlets: 24,
            switches: 2,
            base_stations: 0,
            link_probability: 0.2,
            topology: TopologyModel::default(),
            dc_capacity: (200.0, 700.0),
            cloudlet_capacity: (8.0, 16.0),
            dc_proc_delay: (0.0005, 0.002),
            cloudlet_proc_delay: (0.004, 0.015),
            wman_link_delay: (0.01, 0.05),
            internet_link_delay: (0.3, 0.8),
            dataset_count: (5, 20),
            dataset_volume: (1.0, 6.0),
            query_count: (10, 100),
            datasets_per_query: (1, 7),
            compute_rate: (0.75, 1.25),
            selectivity: (0.1, 1.0),
            deadline_base: (0.05, 0.35),
            deadline_per_gb: (0.01, 0.05),
            home_on_cloudlet_probability: 0.8,
            max_replicas: 3,
        }
    }
}

impl WorkloadParams {
    /// Total nodes in the transport graph (`|BS ∪ SW ∪ CL ∪ DC|`; the
    /// generator has no separate base stations — users enter at cloudlets).
    pub fn network_size(&self) -> usize {
        self.data_centers + self.cloudlets + self.switches + self.base_stations
    }

    /// Rescales node counts to a total `network size` of `n`, preserving
    /// the paper's default 6 : 24 : 2 DC : cloudlet : switch ratio
    /// (Fig. 2 / Fig. 3 x-axis).
    pub fn with_network_size(mut self, n: usize) -> Self {
        assert!(
            n >= 3,
            "network size must fit one DC, one cloudlet, one switch"
        );
        let dc = ((n as f64) * 6.0 / 32.0).round().max(1.0) as usize;
        let sw = ((n as f64) * 2.0 / 32.0).round().max(1.0) as usize;
        let cl = n.saturating_sub(dc + sw).max(1);
        self.data_centers = dc;
        self.switches = sw;
        self.cloudlets = cl;
        self
    }

    /// Multiplies the workload volume — both `query_count` bounds and
    /// both `dataset_count` bounds — by `s`, leaving the topology alone
    /// (scale that separately via [`Self::with_network_size`]).
    ///
    /// This is the large-instance preset behind `edgerep gen --scale N`
    /// and the `ext-shard` scaled world: defaults at `--scale 1000`
    /// already draw 10^4–10^5 queries, and the generator builds them in
    /// O(queries) memory (no quadratic intermediate allocations; pinned
    /// by a unit test).
    pub fn with_scale(mut self, s: usize) -> Self {
        assert!(s >= 1, "scale must be at least 1");
        self.query_count = (
            self.query_count.0.saturating_mul(s),
            self.query_count.1.saturating_mul(s),
        );
        self.dataset_count = (
            self.dataset_count.0.saturating_mul(s),
            self.dataset_count.1.saturating_mul(s),
        );
        self
    }

    /// Sets the paper's `F` knob: max datasets demanded per query
    /// (Fig. 4 / Fig. 7 x-axis). [`Self::validate`] rejects `f = 0`.
    pub fn with_max_datasets_per_query(mut self, f: usize) -> Self {
        self.datasets_per_query = (self.datasets_per_query.0.min(f), f);
        self
    }

    /// Sets the replica budget `K` (Fig. 5 / Fig. 8 x-axis).
    /// [`Self::validate`] rejects `k = 0`.
    pub fn with_max_replicas(mut self, k: usize) -> Self {
        self.max_replicas = k;
        self
    }

    /// Checks every range and count, naming the first one that is
    /// inverted or out of domain.
    pub fn validate(&self) -> Result<(), String> {
        fn check(name: &str, (lo, hi): Range, positive: bool) -> Result<(), String> {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!("{name}: invalid range [{lo}, {hi}]"));
            }
            if positive && lo <= 0.0 {
                return Err(format!("{name}: must be positive, got {lo}"));
            }
            if !positive && lo < 0.0 {
                return Err(format!("{name}: must be non-negative, got {lo}"));
            }
            Ok(())
        }
        fn count(name: &str, (lo, hi): IntRange) -> Result<(), String> {
            if lo < 1 || lo > hi {
                return Err(format!("{name}: need 1 <= lo <= hi, got [{lo}, {hi}]"));
            }
            Ok(())
        }
        if self.data_centers + self.cloudlets == 0 {
            return Err("no compute nodes".into());
        }
        if !(0.0..=1.0).contains(&self.link_probability) {
            return Err("link probability out of [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.home_on_cloudlet_probability) {
            return Err("home probability out of [0,1]".into());
        }
        check("dc_capacity", self.dc_capacity, true)?;
        check("cloudlet_capacity", self.cloudlet_capacity, true)?;
        check("dc_proc_delay", self.dc_proc_delay, false)?;
        check("cloudlet_proc_delay", self.cloudlet_proc_delay, false)?;
        check("wman_link_delay", self.wman_link_delay, false)?;
        check("internet_link_delay", self.internet_link_delay, false)?;
        check("dataset_volume", self.dataset_volume, true)?;
        check("compute_rate", self.compute_rate, true)?;
        check("deadline_base", self.deadline_base, true)?;
        check("deadline_per_gb", self.deadline_per_gb, true)?;
        check("selectivity", self.selectivity, true)?;
        if self.selectivity.1 > 1.0 {
            return Err("selectivity above 1".into());
        }
        count("dataset_count", self.dataset_count)?;
        count("query_count", self.query_count)?;
        count("datasets_per_query", self.datasets_per_query)?;
        if self.max_replicas < 1 {
            return Err("K must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = WorkloadParams::default();
        assert_eq!(p.data_centers, 6);
        assert_eq!(p.cloudlets, 24);
        assert_eq!(p.switches, 2);
        assert_eq!(p.link_probability, 0.2);
        assert_eq!(p.dc_capacity, (200.0, 700.0));
        assert_eq!(p.cloudlet_capacity, (8.0, 16.0));
        assert_eq!(p.dataset_volume, (1.0, 6.0));
        assert_eq!(p.compute_rate, (0.75, 1.25));
        assert_eq!(p.dataset_count, (5, 20));
        assert_eq!(p.query_count, (10, 100));
        assert_eq!(p.datasets_per_query, (1, 7));
        assert_eq!(p.network_size(), 32);
        p.validate().unwrap();
    }

    #[test]
    fn network_size_rescales_with_ratio() {
        let p = WorkloadParams::default().with_network_size(64);
        assert_eq!(p.network_size(), 64);
        assert_eq!(p.data_centers, 12);
        assert_eq!(p.switches, 4);
        assert_eq!(p.cloudlets, 48);
        let p = WorkloadParams::default().with_network_size(200);
        assert_eq!(p.network_size(), 200);
        p.validate().unwrap();
    }

    #[test]
    fn tiny_network_size_keeps_one_of_each() {
        let p = WorkloadParams::default().with_network_size(3);
        assert!(p.data_centers >= 1);
        assert!(p.cloudlets >= 1);
        assert!(p.switches >= 1);
        p.validate().unwrap();
    }

    #[test]
    fn f_knob_clamps_lower_bound() {
        let p = WorkloadParams::default().with_max_datasets_per_query(1);
        assert_eq!(p.datasets_per_query, (1, 1));
        let p = WorkloadParams::default().with_max_datasets_per_query(4);
        assert_eq!(p.datasets_per_query, (1, 4));
        p.validate().unwrap();
    }

    #[test]
    fn k_knob() {
        let p = WorkloadParams::default().with_max_replicas(7);
        assert_eq!(p.max_replicas, 7);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "K must be")]
    fn zero_k_rejected_by_validate() {
        let p = WorkloadParams {
            max_replicas: 0,
            ..Default::default()
        };
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_rejected() {
        let p = WorkloadParams {
            dataset_volume: (6.0, 1.0),
            ..Default::default()
        };
        p.validate().unwrap();
    }

    #[test]
    fn zero_counts_rejected_by_validate() {
        let zero_k = WorkloadParams::default().with_max_replicas(0);
        assert_eq!(zero_k.validate().unwrap_err(), "K must be >= 1");
        let zero_queries = WorkloadParams {
            query_count: (0, 0),
            ..Default::default()
        };
        assert!(zero_queries
            .validate()
            .unwrap_err()
            .starts_with("query_count"));
        let zero_f = WorkloadParams::default().with_max_datasets_per_query(0);
        assert!(zero_f
            .validate()
            .unwrap_err()
            .starts_with("datasets_per_query"));
    }
}
