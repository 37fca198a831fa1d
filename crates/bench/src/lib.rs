//! Paper-artifact regeneration harness.
//!
//! Every table and figure in the paper's evaluation has a generator here:
//! [`ALL_IDS`] lists their ids in paper order, and README's "Reproduce
//! the paper artifacts" maps each id to its paper table or figure.
//! Generators return [`report::Artifact`] values that the `figures`
//! binary renders to the terminal and writes to `out/<id>.{json,csv}`.

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
        // covered by `figures all` (CI's figures-identity job).
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
