//! Paper-artifact regeneration harness.
//!
//! Every table and figure in the paper's evaluation has a generator here
//! (see DESIGN.md §3 for the experiment index). Generators return
//! [`report::Artifact`] values that the `figures` binary renders to the
//! terminal and writes to `out/<id>.{json,csv}`; the Criterion benches in
//! `benches/paper.rs` measure the underlying model machinery — including
//! the dense and MoE (`moe-search`) design-space searches, the multi-
//! algorithm collective DES and the 1F1B schedule simulator — print the
//! regenerated rows into `cargo bench` output, and emit the
//! machine-readable perf trajectory to `out/bench.json`.
//!
//! # The `fmperf-bench-v1` trajectory schema
//!
//! `out/bench.json` is the per-PR perf record CI uploads as an artifact
//! and `PERFORMANCE.md`'s trajectory table is built from. One document:
//!
//! ```json
//! {
//!   "schema": "fmperf-bench-v1",
//!   "groups": {
//!     "search":         { "gpt_summa_n16384":    { "mean_ns": 5.52e6, "iterations": 10 }, ... },
//!     "search-scaling": { "gpt_summa_n16384_t1": { "mean_ns": 5.49e6, "iterations": 10 }, ... },
//!     ...
//!   }
//! }
//! ```
//!
//! * `schema` — the literal string `"fmperf-bench-v1"`. Consumers must
//!   reject other values; additive changes (new groups, new functions,
//!   new per-cell fields) do **not** bump the version, renames and
//!   semantic changes do.
//! * `groups` — one object per Criterion benchmark group, keyed by group
//!   name (`profile`, `placement`, `search`, `moe-search`,
//!   `planner-topk`, `search-scaling`, `netsim`, `netsim-algorithms`,
//!   `trainsim`, `reliability-search`), each mapping function name to a
//!   measurement cell.
//!   Insertion order follows bench registration order.
//! * cell `mean_ns` — mean wall-clock nanoseconds per iteration over the
//!   measurement window (warm: memo tables and caches carry across
//!   iterations; see PERFORMANCE.md "What the numbers mean").
//! * cell `iterations` — iterations in the measurement window; `--quick`
//!   (the CI bench-smoke mode) uses a shorter window, so compare
//!   `mean_ns` across runs only at equal modes.
//!
//! The `search-scaling` group names encode the pinned pool size
//! (`gpt_summa_n16384_t{1,2,4,8}`); the 8-vs-1-thread ratio on that
//! group is the scaling gate CI enforces on multi-core runners.

pub mod common;
pub mod figs;

use report::Artifact;

/// All artifact identifiers, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "table2",
    "tablea2",
    "tablea3",
    "fig1",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "figa1",
    "figa2",
    "figa3",
    "figa4",
    "figa5",
    "figa6",
    "validation",
    "ablations",
    "reliability",
];

/// An artifact identifier not present in [`ALL_IDS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownArtifact(pub String);

impl std::fmt::Display for UnknownArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown artifact id {:?}; known: {ALL_IDS:?}", self.0)
    }
}

impl std::error::Error for UnknownArtifact {}

/// Generates the artifact set for one identifier (a figure may produce
/// several artifacts, e.g. its (a) and (b) panels).
pub fn generate(id: &str) -> Result<Vec<Artifact>, UnknownArtifact> {
    Ok(match id {
        "table1" => vec![figs::tables::table1()],
        "table2" => vec![figs::tables::table2()],
        "tablea2" => vec![figs::tables::tablea2()],
        "tablea3" => vec![figs::tables::tablea3()],
        "fig1" => vec![figs::fig1::generate()],
        "fig2" => figs::fig2::generate(),
        "fig3" => figs::fig3::generate(),
        "fig4a" => vec![figs::fig4::generate_4a()],
        "fig4b" => vec![figs::fig4::generate_4b()],
        "fig5a" => vec![figs::fig5::generate_5a()],
        "fig5b" => vec![figs::fig5::generate_5b()],
        "figa1" => vec![figs::figa1::generate()],
        "figa2" => figs::figa2::generate(),
        "figa3" => figs::figa3::generate(),
        "figa4" => figs::figa4::generate(),
        "figa5" => figs::figa5::generate(),
        "figa6" => figs::figa6::generate(),
        "validation" => vec![figs::validation::generate()],
        "ablations" => figs::ablations::generate(),
        "reliability" => figs::reliability::generate(),
        other => return Err(UnknownArtifact(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_generates_nonempty_artifacts() {
        // Smoke-generate the cheap artifacts; the expensive sweeps are
        // covered by the figures binary / benches.
        for id in ["table1", "table2", "tablea2", "tablea3", "fig1"] {
            let arts = generate(id).expect("known id");
            assert!(!arts.is_empty(), "{id} produced nothing");
            for a in arts {
                assert!(!a.rows.is_empty(), "{id}/{} has no rows", a.id);
            }
        }
    }

    #[test]
    fn unknown_id_is_a_typed_error() {
        let err = generate("nope").expect_err("unknown id");
        assert_eq!(err, UnknownArtifact("nope".to_string()));
        assert!(err.to_string().contains("known:"), "{err}");
    }
}
