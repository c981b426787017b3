//! Validated problem instances.
//!
//! An [`Instance`] bundles the edge cloud, the dataset collection `S`, the
//! query set `Q`, and the per-dataset replica budget `K`, after checking all
//! cross-references and numeric ranges. Every placement algorithm takes an
//! `&Instance`, which guarantees it never sees a dangling dataset id, a
//! non-positive size, or a selectivity outside `(0, 1]`.

use std::sync::OnceLock;

use edgerep_ec::{RedundancyScheme, SchemeError};

use crate::cache::SolverCache;
use crate::data::{Dataset, DatasetId};
use crate::network::{ComputeNodeId, EdgeCloud};
use crate::query::{Demand, Query, QueryId};

/// Default decode compute cost, seconds per reconstructed GB, charged on
/// every read of an erasure-coded (`k ≥ 2`) dataset.
pub const DEFAULT_DECODE_S_PER_GB: f64 = 0.02;

/// Default encode compute cost, seconds per GB run through the encoder,
/// charged when shards are first produced and on scrub re-encodes.
pub const DEFAULT_ENCODE_S_PER_GB: f64 = 0.04;

/// Errors detected while building an [`Instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// `K` must be ≥ 1 (the paper assumes `K ∈ Z+`).
    ZeroReplicaBudget,
    /// A dataset size was non-positive or non-finite.
    InvalidDatasetSize(DatasetId, f64),
    /// A dataset's origin node does not exist.
    UnknownOrigin(DatasetId, ComputeNodeId),
    /// A query's home node does not exist.
    UnknownHome(QueryId, ComputeNodeId),
    /// A query references a dataset that does not exist.
    UnknownDataset(QueryId, DatasetId),
    /// A query demands the same dataset twice.
    DuplicateDemand(QueryId, DatasetId),
    /// A selectivity was outside `(0, 1]`.
    InvalidSelectivity(QueryId, DatasetId, f64),
    /// A compute rate was non-positive or non-finite.
    InvalidComputeRate(QueryId, f64),
    /// A deadline was non-positive or non-finite.
    InvalidDeadline(QueryId, f64),
    /// A query demands no datasets at all.
    EmptyDemands(QueryId),
    /// A dataset's redundancy scheme has unusable shard counts.
    InvalidScheme(DatasetId, SchemeError),
    /// A decode/encode compute cost was negative or non-finite.
    InvalidEcCost(f64),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::ZeroReplicaBudget => write!(f, "replica budget K must be >= 1"),
            InstanceError::InvalidDatasetSize(d, s) => {
                write!(f, "dataset {d} has invalid size {s}")
            }
            InstanceError::UnknownOrigin(d, v) => {
                write!(f, "dataset {d} originates at unknown node {v}")
            }
            InstanceError::UnknownHome(q, v) => write!(f, "query {q} has unknown home {v}"),
            InstanceError::UnknownDataset(q, d) => {
                write!(f, "query {q} demands unknown dataset {d}")
            }
            InstanceError::DuplicateDemand(q, d) => {
                write!(f, "query {q} demands dataset {d} more than once")
            }
            InstanceError::InvalidSelectivity(q, d, a) => {
                write!(f, "query {q} has selectivity {a} on {d}, outside (0, 1]")
            }
            InstanceError::InvalidComputeRate(q, r) => {
                write!(f, "query {q} has invalid compute rate {r}")
            }
            InstanceError::InvalidDeadline(q, d) => {
                write!(f, "query {q} has invalid deadline {d}")
            }
            InstanceError::EmptyDemands(q) => write!(f, "query {q} demands no datasets"),
            InstanceError::InvalidScheme(d, e) => {
                write!(f, "dataset {d} has invalid redundancy scheme: {e}")
            }
            InstanceError::InvalidEcCost(c) => {
                write!(f, "erasure-coding compute cost {c} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A validated proactive data replication and placement instance.
#[derive(Debug, Clone)]
pub struct Instance {
    cloud: EdgeCloud,
    datasets: Vec<Dataset>,
    queries: Vec<Query>,
    max_replicas: usize,
    /// Per-dataset redundancy scheme, aligned with `datasets`. Defaults
    /// to `Replication { k: max_replicas }`, reproducing the paper's
    /// uniform budget exactly.
    schemes: Vec<RedundancyScheme>,
    decode_s_per_gb: f64,
    encode_s_per_gb: f64,
    /// Lazily-built per-(query, demand) deadline-feasible candidate
    /// matrix (see [`crate::cache`]). An `Instance` is immutable after
    /// `build()`, so the cache can never go stale; a topology change
    /// means a new `Instance` and thus a fresh (empty) cell.
    solver_cache: OnceLock<SolverCache>,
}

impl Instance {
    /// The edge cloud.
    pub fn cloud(&self) -> &EdgeCloud {
        &self.cloud
    }

    /// The deadline-feasible candidate matrix, built on first access and
    /// reused for the instance's lifetime (clones carry the built cache
    /// along).
    pub fn solver_cache(&self) -> &SolverCache {
        self.solver_cache.get_or_init(|| SolverCache::build(self))
    }

    /// The dataset collection `S`, indexed by [`DatasetId`].
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// The query set `Q`, indexed by [`QueryId`].
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The replica budget `K`. With per-dataset redundancy schemes this
    /// is the *default* budget; constraint checks should use
    /// [`Self::slots`] instead.
    pub fn max_replicas(&self) -> usize {
        self.max_replicas
    }

    /// The redundancy scheme of a dataset.
    #[inline]
    pub fn scheme(&self, d: DatasetId) -> RedundancyScheme {
        self.schemes[d.index()]
    }

    /// Maximum distinct holder nodes for `d` under its scheme — the
    /// per-dataset generalization of the paper's `K` (constraint (5)).
    #[inline]
    pub fn slots(&self, d: DatasetId) -> usize {
        self.schemes[d.index()].slots()
    }

    /// GB one holder of `d` stores: `|S_n|` for replication, `|S_n|/k`
    /// per erasure-coded shard.
    #[inline]
    pub fn shard_gb(&self, d: DatasetId) -> f64 {
        self.schemes[d.index()].shard_gb(self.size(d))
    }

    /// Decode compute cost, seconds per reconstructed GB.
    #[inline]
    pub fn decode_s_per_gb(&self) -> f64 {
        self.decode_s_per_gb
    }

    /// Encode compute cost, seconds per GB encoded.
    #[inline]
    pub fn encode_s_per_gb(&self) -> f64 {
        self.encode_s_per_gb
    }

    /// One dataset by id.
    #[inline]
    pub fn dataset(&self, d: DatasetId) -> &Dataset {
        &self.datasets[d.index()]
    }

    /// One query by id.
    #[inline]
    pub fn query(&self, q: QueryId) -> &Query {
        &self.queries[q.index()]
    }

    /// Size `|S_n|` of a dataset.
    #[inline]
    pub fn size(&self, d: DatasetId) -> f64 {
        self.datasets[d.index()].size_gb
    }

    /// Total volume demanded by a query: `Σ_{S_n ∈ S(q_m)} |S_n|`.
    pub fn demanded_volume(&self, q: QueryId) -> f64 {
        self.queries[q.index()]
            .demands
            .iter()
            .map(|dem| self.size(dem.dataset))
            .sum()
    }

    /// Total volume demanded over all queries (upper bound on the
    /// objective).
    pub fn total_demanded_volume(&self) -> f64 {
        self.queries
            .iter()
            .map(|q| self.demanded_volume(q.id))
            .sum()
    }

    /// Iterator over query ids.
    pub fn query_ids(&self) -> impl ExactSizeIterator<Item = QueryId> + '_ {
        (0..self.queries.len() as u32).map(QueryId)
    }

    /// Iterator over dataset ids.
    pub fn dataset_ids(&self) -> impl ExactSizeIterator<Item = DatasetId> + '_ {
        (0..self.datasets.len() as u32).map(DatasetId)
    }

    /// Queries demanding a given dataset.
    pub fn consumers_of(&self, d: DatasetId) -> impl Iterator<Item = &Query> + '_ {
        self.queries.iter().filter(move |q| q.demands_dataset(d))
    }
}

/// Builder that accumulates datasets and queries, then validates.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    cloud: EdgeCloud,
    datasets: Vec<Dataset>,
    queries: Vec<Query>,
    max_replicas: usize,
    /// Explicit per-dataset schemes; `None` falls back to
    /// `default_scheme`, then `Replication { k: max_replicas }`.
    schemes: Vec<Option<RedundancyScheme>>,
    default_scheme: Option<RedundancyScheme>,
    decode_s_per_gb: f64,
    encode_s_per_gb: f64,
}

impl InstanceBuilder {
    /// Starts an instance over `cloud` with replica budget `max_replicas`.
    pub fn new(cloud: EdgeCloud, max_replicas: usize) -> Self {
        Self {
            cloud,
            datasets: Vec::new(),
            queries: Vec::new(),
            max_replicas,
            schemes: Vec::new(),
            default_scheme: None,
            decode_s_per_gb: DEFAULT_DECODE_S_PER_GB,
            encode_s_per_gb: DEFAULT_ENCODE_S_PER_GB,
        }
    }

    /// Sets the redundancy scheme of one already-added dataset.
    pub fn set_scheme(&mut self, d: DatasetId, scheme: RedundancyScheme) {
        self.schemes[d.index()] = Some(scheme);
    }

    /// Sets the scheme applied to every dataset without an explicit
    /// [`Self::set_scheme`] override (defaults to
    /// `Replication { k: max_replicas }`).
    pub fn set_default_scheme(&mut self, scheme: RedundancyScheme) {
        self.default_scheme = Some(scheme);
    }

    /// Overrides the erasure-coding compute costs (seconds per GB
    /// decoded / encoded).
    pub fn set_ec_costs(&mut self, decode_s_per_gb: f64, encode_s_per_gb: f64) {
        self.decode_s_per_gb = decode_s_per_gb;
        self.encode_s_per_gb = encode_s_per_gb;
    }

    /// Adds a dataset and returns its id.
    pub fn add_dataset(&mut self, size_gb: f64, origin: ComputeNodeId) -> DatasetId {
        let id = DatasetId(self.datasets.len() as u32);
        self.datasets.push(Dataset::new(id, size_gb, origin));
        self.schemes.push(None);
        id
    }

    /// Adds a query and returns its id.
    pub fn add_query(
        &mut self,
        home: ComputeNodeId,
        demands: Vec<Demand>,
        compute_rate: f64,
        deadline: f64,
    ) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        self.queries
            .push(Query::new(id, home, demands, compute_rate, deadline));
        id
    }

    /// Number of datasets added so far.
    pub fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    /// Size of an already-added dataset (generators size deadlines off the
    /// demands they just drew).
    pub fn dataset_size(&self, d: DatasetId) -> f64 {
        self.datasets[d.index()].size_gb
    }

    /// Validates all cross-references and numeric ranges.
    pub fn build(self) -> Result<Instance, InstanceError> {
        if self.max_replicas == 0 {
            return Err(InstanceError::ZeroReplicaBudget);
        }
        let v = self.cloud.compute_count() as u32;
        let s = self.datasets.len() as u32;
        for d in &self.datasets {
            if !(d.size_gb.is_finite() && d.size_gb > 0.0) {
                return Err(InstanceError::InvalidDatasetSize(d.id, d.size_gb));
            }
            if d.origin.0 >= v {
                return Err(InstanceError::UnknownOrigin(d.id, d.origin));
            }
        }
        for q in &self.queries {
            if q.home.0 >= v {
                return Err(InstanceError::UnknownHome(q.id, q.home));
            }
            if q.demands.is_empty() {
                return Err(InstanceError::EmptyDemands(q.id));
            }
            let mut seen = std::collections::HashSet::new();
            for dem in &q.demands {
                if dem.dataset.0 >= s {
                    return Err(InstanceError::UnknownDataset(q.id, dem.dataset));
                }
                if !seen.insert(dem.dataset) {
                    return Err(InstanceError::DuplicateDemand(q.id, dem.dataset));
                }
                if !(dem.selectivity.is_finite() && dem.selectivity > 0.0 && dem.selectivity <= 1.0)
                {
                    return Err(InstanceError::InvalidSelectivity(
                        q.id,
                        dem.dataset,
                        dem.selectivity,
                    ));
                }
            }
            if !(q.compute_rate.is_finite() && q.compute_rate > 0.0) {
                return Err(InstanceError::InvalidComputeRate(q.id, q.compute_rate));
            }
            if !(q.deadline.is_finite() && q.deadline > 0.0) {
                return Err(InstanceError::InvalidDeadline(q.id, q.deadline));
            }
        }
        for cost in [self.decode_s_per_gb, self.encode_s_per_gb] {
            if !(cost.is_finite() && cost >= 0.0) {
                return Err(InstanceError::InvalidEcCost(cost));
            }
        }
        let fallback = self
            .default_scheme
            .unwrap_or(RedundancyScheme::Replication {
                k: self.max_replicas,
            });
        let mut schemes = Vec::with_capacity(self.datasets.len());
        for (di, explicit) in self.schemes.iter().enumerate() {
            let scheme = explicit.unwrap_or(fallback);
            scheme
                .validate()
                .map_err(|e| InstanceError::InvalidScheme(DatasetId(di as u32), e))?;
            schemes.push(scheme);
        }
        Ok(Instance {
            cloud: self.cloud,
            datasets: self.datasets,
            queries: self.queries,
            max_replicas: self.max_replicas,
            schemes,
            decode_s_per_gb: self.decode_s_per_gb,
            encode_s_per_gb: self.encode_s_per_gb,
            solver_cache: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EdgeCloudBuilder;

    fn cloud() -> EdgeCloud {
        let mut b = EdgeCloudBuilder::new();
        let dc = b.add_data_center(100.0, 0.001);
        let cl = b.add_cloudlet(10.0, 0.01);
        b.link(dc, cl, 0.05);
        b.build().unwrap()
    }

    fn valid_builder() -> InstanceBuilder {
        let mut ib = InstanceBuilder::new(cloud(), 2);
        let d0 = ib.add_dataset(2.0, ComputeNodeId(0));
        let d1 = ib.add_dataset(5.0, ComputeNodeId(1));
        ib.add_query(ComputeNodeId(1), vec![Demand::new(d0, 0.5)], 1.0, 3.0);
        ib.add_query(
            ComputeNodeId(0),
            vec![Demand::new(d0, 1.0), Demand::new(d1, 0.25)],
            0.8,
            6.0,
        );
        ib
    }

    #[test]
    fn valid_instance_builds() {
        let inst = valid_builder().build().unwrap();
        assert_eq!(inst.datasets().len(), 2);
        assert_eq!(inst.queries().len(), 2);
        assert_eq!(inst.max_replicas(), 2);
        assert_eq!(inst.size(DatasetId(1)), 5.0);
    }

    #[test]
    fn demanded_volume_sums_demands() {
        let inst = valid_builder().build().unwrap();
        assert_eq!(inst.demanded_volume(QueryId(0)), 2.0);
        assert_eq!(inst.demanded_volume(QueryId(1)), 7.0);
        assert_eq!(inst.total_demanded_volume(), 9.0);
    }

    #[test]
    fn consumers_of_filters_queries() {
        let inst = valid_builder().build().unwrap();
        let consumers: Vec<QueryId> = inst.consumers_of(DatasetId(0)).map(|q| q.id).collect();
        assert_eq!(consumers, vec![QueryId(0), QueryId(1)]);
        let consumers: Vec<QueryId> = inst.consumers_of(DatasetId(1)).map(|q| q.id).collect();
        assert_eq!(consumers, vec![QueryId(1)]);
    }

    #[test]
    fn zero_replica_budget_rejected() {
        let ib = InstanceBuilder::new(cloud(), 0);
        assert_eq!(ib.build().unwrap_err(), InstanceError::ZeroReplicaBudget);
    }

    #[test]
    fn bad_dataset_size_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        ib.add_dataset(0.0, ComputeNodeId(0));
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::InvalidDatasetSize(_, _)
        ));
    }

    #[test]
    fn unknown_origin_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        ib.add_dataset(1.0, ComputeNodeId(9));
        assert_eq!(
            ib.build().unwrap_err(),
            InstanceError::UnknownOrigin(DatasetId(0), ComputeNodeId(9))
        );
    }

    #[test]
    fn unknown_home_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        let d = ib.add_dataset(1.0, ComputeNodeId(0));
        ib.add_query(ComputeNodeId(5), vec![Demand::new(d, 1.0)], 1.0, 1.0);
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::UnknownHome(_, _)
        ));
    }

    #[test]
    fn unknown_dataset_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        ib.add_query(
            ComputeNodeId(0),
            vec![Demand::new(DatasetId(3), 1.0)],
            1.0,
            1.0,
        );
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::UnknownDataset(_, _)
        ));
    }

    #[test]
    fn duplicate_demand_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        let d = ib.add_dataset(1.0, ComputeNodeId(0));
        ib.add_query(
            ComputeNodeId(0),
            vec![Demand::new(d, 1.0), Demand::new(d, 0.5)],
            1.0,
            1.0,
        );
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::DuplicateDemand(_, _)
        ));
    }

    #[test]
    fn selectivity_range_enforced() {
        for alpha in [0.0, -0.5, 1.5, f64::NAN] {
            let mut ib = InstanceBuilder::new(cloud(), 1);
            let d = ib.add_dataset(1.0, ComputeNodeId(0));
            ib.add_query(ComputeNodeId(0), vec![Demand::new(d, alpha)], 1.0, 1.0);
            assert!(
                matches!(
                    ib.build().unwrap_err(),
                    InstanceError::InvalidSelectivity(_, _, _)
                ),
                "alpha = {alpha}"
            );
        }
        // Exactly 1.0 is allowed.
        let mut ib = InstanceBuilder::new(cloud(), 1);
        let d = ib.add_dataset(1.0, ComputeNodeId(0));
        ib.add_query(ComputeNodeId(0), vec![Demand::new(d, 1.0)], 1.0, 1.0);
        assert!(ib.build().is_ok());
    }

    #[test]
    fn empty_demands_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        ib.add_query(ComputeNodeId(0), vec![], 1.0, 1.0);
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::EmptyDemands(_)
        ));
    }

    #[test]
    fn bad_rate_and_deadline_rejected() {
        let mut ib = InstanceBuilder::new(cloud(), 1);
        let d = ib.add_dataset(1.0, ComputeNodeId(0));
        ib.add_query(ComputeNodeId(0), vec![Demand::new(d, 1.0)], 0.0, 1.0);
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::InvalidComputeRate(_, _)
        ));

        let mut ib = InstanceBuilder::new(cloud(), 1);
        let d = ib.add_dataset(1.0, ComputeNodeId(0));
        ib.add_query(ComputeNodeId(0), vec![Demand::new(d, 1.0)], 1.0, -2.0);
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::InvalidDeadline(_, _)
        ));
    }

    #[test]
    fn error_messages_name_the_offender() {
        let err = InstanceError::UnknownDataset(QueryId(3), DatasetId(7));
        assert!(err.to_string().contains("q3"));
        assert!(err.to_string().contains("S7"));
    }

    #[test]
    fn default_scheme_is_uniform_replication() {
        let inst = valid_builder().build().unwrap();
        for d in inst.dataset_ids() {
            assert_eq!(inst.scheme(d), RedundancyScheme::Replication { k: 2 });
            assert_eq!(inst.slots(d), inst.max_replicas());
            assert_eq!(inst.shard_gb(d).to_bits(), inst.size(d).to_bits());
        }
        assert_eq!(inst.decode_s_per_gb(), DEFAULT_DECODE_S_PER_GB);
        assert_eq!(inst.encode_s_per_gb(), DEFAULT_ENCODE_S_PER_GB);
    }

    #[test]
    fn per_dataset_schemes_override_the_default() {
        let mut ib = valid_builder();
        ib.set_default_scheme(RedundancyScheme::ErasureCoded { k: 4, m: 2 });
        ib.set_scheme(DatasetId(1), RedundancyScheme::Replication { k: 1 });
        ib.set_ec_costs(0.1, 0.2);
        let inst = ib.build().unwrap();
        assert_eq!(
            inst.scheme(DatasetId(0)),
            RedundancyScheme::ErasureCoded { k: 4, m: 2 }
        );
        assert_eq!(inst.slots(DatasetId(0)), 6);
        assert_eq!(inst.shard_gb(DatasetId(0)), 0.5); // 2 GB / 4
        assert_eq!(
            inst.scheme(DatasetId(1)),
            RedundancyScheme::Replication { k: 1 }
        );
        assert_eq!(inst.slots(DatasetId(1)), 1);
        assert_eq!(inst.decode_s_per_gb(), 0.1);
        assert_eq!(inst.encode_s_per_gb(), 0.2);
    }

    #[test]
    fn invalid_scheme_rejected() {
        let mut ib = valid_builder();
        ib.set_scheme(DatasetId(0), RedundancyScheme::ErasureCoded { k: 0, m: 2 });
        assert!(matches!(
            ib.build().unwrap_err(),
            InstanceError::InvalidScheme(DatasetId(0), _)
        ));
    }

    #[test]
    fn invalid_ec_cost_rejected() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let mut ib = valid_builder();
            ib.set_ec_costs(bad, 0.0);
            assert!(
                matches!(ib.build().unwrap_err(), InstanceError::InvalidEcCost(_)),
                "cost = {bad}"
            );
        }
        // Zero costs are allowed (free codec, still shard-placed).
        let mut ib = valid_builder();
        ib.set_ec_costs(0.0, 0.0);
        assert!(ib.build().is_ok());
    }
}
