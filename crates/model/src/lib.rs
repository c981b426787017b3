#![warn(missing_docs)]

//! Domain model for QoS-aware proactive data replication in two-tier edge
//! clouds (Xia et al., ICPP 2019).
//!
//! This crate defines the vocabulary every other `edgerep` crate speaks:
//!
//! * [`network`] — the two-tier edge cloud `G = (BS ∪ SW ∪ CL ∪ DC, E)`:
//!   node roles, compute capacities `B(v)` / availabilities `A(v)`,
//!   per-unit processing delays `d(v)`, and cached minimum-transmission-delay
//!   paths between compute nodes.
//! * [`data`] / [`query`] — datasets `S_n` with sizes, and analytics queries
//!   `q_m` with home locations, demanded dataset collections `S(q_m)`,
//!   selectivities `α_nm`, compute rates `r_m`, and QoS deadlines `d_qm`.
//! * [`instance`] — a validated problem instance bundling the above with the
//!   replica budget `K`.
//! * [`delay`] — the paper's delay law
//!   `D = d(v)·|S_n| + dt(p(v, h_m))·α_nm·|S_n|` and deadline feasibility,
//!   plus the erasure-coding gather + decode overhead
//!   ([`delay::read_overhead`]) charged when a dataset is striped.
//! * [`solution`] — placements (≤ `slots(d)` holders per dataset, where
//!   the per-dataset [`RedundancyScheme`] generalizes the paper's `K`),
//!   assignments, admission semantics, and a full feasibility validator
//!   enforcing ILP constraints (2)–(7) plus the EC shard-quorum rule.
//! * [`metrics`] — the paper's two evaluation metrics (admitted demanded
//!   volume and system throughput) plus utilization diagnostics.
//!
//! # Example
//!
//! ```
//! use edgerep_model::prelude::*;
//!
//! // A 1-cloudlet, 1-datacenter toy cloud with one dataset and one query.
//! let mut b = EdgeCloudBuilder::new();
//! let dc = b.add_data_center(500.0, 0.001);
//! let cl = b.add_cloudlet(12.0, 0.01);
//! b.link(dc, cl, 0.02);
//! let cloud = b.build().unwrap();
//!
//! let mut inst = InstanceBuilder::new(cloud, 2);
//! let ds = inst.add_dataset(4.0, dc);
//! inst.add_query(cl, vec![Demand::new(ds, 0.5)], 1.0, 10.0);
//! let instance = inst.build().unwrap();
//! assert_eq!(instance.datasets().len(), 1);
//! assert_eq!(instance.queries().len(), 1);
//! ```

pub mod cache;
pub mod data;
pub mod delay;
pub mod instance;
pub mod metrics;
pub mod network;
pub mod query;
pub mod solution;
pub mod spec;

pub use cache::SolverCache;
pub use data::{Dataset, DatasetId};
pub use edgerep_ec::RedundancyScheme;
pub use instance::{Instance, InstanceBuilder, InstanceError};
pub use metrics::Metrics;
pub use network::{ComputeNodeId, EdgeCloud, EdgeCloudBuilder, NetworkError, NodeKind};
pub use query::{Demand, Query, QueryId};
pub use solution::{Solution, SolutionError, FEASIBILITY_EPS};
pub use spec::InstanceSpec;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::cache::SolverCache;
    pub use crate::data::{Dataset, DatasetId};
    pub use crate::delay::{
        assignment_delay, assignment_delay_with_holders, is_deadline_feasible, query_delay,
        read_overhead,
    };
    pub use crate::instance::{Instance, InstanceBuilder, InstanceError};
    pub use crate::metrics::Metrics;
    pub use crate::network::{ComputeNodeId, EdgeCloud, EdgeCloudBuilder, NetworkError, NodeKind};
    pub use crate::query::{Demand, Query, QueryId};
    pub use crate::solution::{Solution, SolutionError, FEASIBILITY_EPS};
    pub use edgerep_ec::RedundancyScheme;
}
