#![warn(missing_docs)]

//! Discrete-event testbed standing in for the paper's DigitalOcean
//! deployment (§4.3).
//!
//! The paper leases 20 VMs (4 representing data centers in San Francisco,
//! New York, Toronto and Singapore; 16 representing cloudlets), adds a
//! controller and 2 switches (Fig. 6), distributes time-partitioned
//! mobile-app-usage datasets over them, and measures the volume and
//! throughput actually achieved by `Appro` vs `Popularity` placements.
//!
//! We cannot lease VMs, so this crate builds the same experiment as a
//! discrete-event simulation with real data movement and real query
//! evaluation:
//!
//! * [`geo`] — great-circle latency and bandwidth-derived per-GB transfer
//!   delays between the four regions and the metro edge;
//! * [`topology`] — the Fig. 6 topology as an
//!   [`edgerep_model::EdgeCloud`] (4 DC VMs + 16 cloudlet VMs + 2
//!   switches) plus an instance builder that sizes datasets from the
//!   synthetic mobile-app-usage trace;
//! * [`analytics`] — the query classes the paper runs (most popular apps,
//!   usage-by-hour, per-user usage patterns) executed for real over the
//!   trace records;
//! * [`event`] / [`sim`] — the simulator: a controller executes any
//!   [`edgerep_core::PlacementAlgorithm`], replicas are transferred, then
//!   queries arrive as a Poisson process and contend for node compute;
//!   **measured** response latency (queueing + processing + transfer)
//!   decides whether each query met its QoS, which is what the paper's
//!   testbed contributes over the simulation;
//! * [`sim::ConsistencyConfig`] — the §2.4 dynamic-data rule: when the
//!   new-data ratio at a dataset's origin crosses a threshold, updates
//!   propagate to every replica and the traffic is accounted.

//! * [`transfer`] — the simulator's one transfer engine: per-replica
//!   chunk ledgers, rarest-chunk-first swarm fetch, and strict priority
//!   tiers (immediate / scheduled / background) on a FIFO egress per
//!   node, with point-to-point and chunked presets selected per run via
//!   [`sim::SimConfig::transfer`];
//! * [`rolling`] / [`predict`] — multi-epoch operation under workload
//!   drift: `Static` / `Periodic` / `Predictive` replanning policies,
//!   with `Predictive` forecasting the next epoch via
//!   `edgerep-forecast`, planning on a synthesized predicted instance,
//!   and prefetching replica deltas as background transfers.

pub mod analytics;
pub mod event;
pub mod fault;
pub mod geo;
pub mod predict;
pub mod rolling;
pub mod sim;
pub mod slo;
pub mod topology;
pub mod transfer;

pub use fault::{FaultConfig, FaultPlan, FaultPlanError, LinkFault, NodeOutage};
pub use sim::{
    try_run_testbed_with_plan, ConsistencyConfig, DebugTraceConfig, NodeFailure, SimConfig,
    SimError, TestbedReport,
};
pub use slo::{render_slo_csv, SloSample};
pub use topology::{build_fig6_topology, build_testbed_instance, TestbedConfig, TestbedWorld};
pub use transfer::{ChunkLedger, ChunkedConfig, FlowTier, TransferModel};
