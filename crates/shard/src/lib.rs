#![warn(missing_docs)]

//! Sharded regional solver: partition the topology, solve shards in
//! parallel, reconcile the boundary.
//!
//! The paper solves one global placement instance; at the ROADMAP's
//! target scale (10^5+ queries, 10^4+ nodes) that single solve dominates
//! wall-clock. The constructive solvers are roughly quadratic in query
//! count, so splitting the world into R balanced geo-regions and solving
//! them concurrently wins about R× from parallelism *and* another factor
//! from the smaller per-shard quadratic term. This crate implements that
//! decomposition in three pieces:
//!
//! * [`region::RegionPlan`] — runs `edgerep_graph::partition::partition_kway`
//!   over the delay/affinity graph (edge weight `1 / (delay + ε)`, so the
//!   min-cut severs the *slowest* links and regions stay latency-tight),
//!   then extracts one sub-[`edgerep_model::Instance`] per region:
//!   full topology with availability masked to the region's compute
//!   nodes, every dataset (so ids stay global), and the region's
//!   *interior* queries — home in the region and all demanded datasets
//!   originating there.
//! * [`solver::ShardedSolver`] — wraps any
//!   [`edgerep_core::PlacementAlgorithm`], solves the shards concurrently
//!   on [`parallel::par_map`], and merges the per-shard solutions; the
//!   regions' compute nodes are disjoint, so the merged solution is
//!   feasible by construction.
//! * [`solver::reconcile`] — the boundary pass: queries whose
//!   deadline-feasible candidate set crosses regions (border queries that
//!   no shard attempted, plus unserved residue that could spill over) are
//!   re-admitted globally against the residual capacities, so the sharded
//!   result is feasibility-equivalent to a global solve and the
//!   net-benefit gap is *measured* (`ext-shard`), not assumed.
//!
//! With `regions <= 1` the wrapper delegates to the inner algorithm
//! verbatim, which is why R = 1 is pinned byte-identical to the global
//! solver (see DESIGN.md §9 for why that identity cannot hold at R > 1).

pub mod parallel;
pub mod region;
pub mod solver;

pub use region::{RegionPlan, Shard};
pub use solver::{reconcile, ShardConfig, ShardedSolver};
