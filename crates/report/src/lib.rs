//! Reporting utilities: aligned tables, ASCII bar charts/heatmaps and
//! CSV/JSON artifact emission.
//!
//! This crate is deliberately dependency-free plumbing shared by the two
//! output surfaces of the workspace: the planner examples print [`Table`]s
//! and charts to the terminal, and the `paperbench` figure generators
//! produce [`Artifact`]s (an id + column schema + JSON rows) that the
//! `figures` binary renders and persists to `out/<id>.{json,csv}`, which
//! must regenerate byte for byte.

mod artifact;
mod chart;
mod heatmap;
mod table;

pub use artifact::{num, Artifact};
pub use chart::{hbar, series_chart, stacked_bar};
pub use heatmap::heatmap;
pub use table::Table;
