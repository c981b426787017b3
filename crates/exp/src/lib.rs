#![warn(missing_docs)]

//! Experiment harness regenerating every figure of the paper.
//!
//! * [`stats`] — sample summaries (mean, standard deviation, 95% CI).
//! * [`parallel`] — a panic-propagating, nesting-safe deterministic
//!   parallel map built on scoped `std` threads.
//! * [`runner`] — evaluates an algorithm panel over seeded instances and
//!   aggregates the paper's two metrics; the seed × algorithm grid runs
//!   as one flat task list so wide machines stay saturated.
//! * [`figures`] — the figure schema (declared metrics with units, one
//!   summary per metric per series) and one driver per figure (2, 3, 4,
//!   5, 7, 8 — Figs. 1 and 6 are topology illustrations, rendered as text).
//! * [`extensions`] — extension experiments beyond the paper's figures.
//! * [`report`] / [`plot`] — text, CSV, markdown and SVG rendering, one
//!   panel, column group or chart per declared metric.
//! * [`stdout`] — the binaries' stdout, which ends quietly when the
//!   reader closes the pipe.
//!
//! The `repro` binary ties it together:
//!
//! ```text
//! cargo run -p edgerep-exp --release --bin repro -- all
//! cargo run -p edgerep-exp --release --bin repro -- fig4 --seeds 30
//! cargo run -p edgerep-exp --release --bin repro -- fig7 --quick
//! ```

pub mod extensions;
pub mod figures;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod runner;
pub mod stats;
pub mod stdout;

pub use figures::{FigureData, FigureRow};
pub use stats::Summary;
