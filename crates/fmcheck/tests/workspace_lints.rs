//! The lint policy is declared once, in the root `Cargo.toml`'s
//! `[workspace.lints]`, and reaches a crate only through its manifest's
//! `[lints] workspace = true`. Cargo accepts a manifest without the
//! opt-in and then silently skips every lint for that crate; these tests
//! fail instead. The vendored shims stay on clippy's defaults, but each
//! must forbid `unsafe` at its crate root.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `key=value` lines of the TOML table `[name]`, whitespace removed.
fn table(toml: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.replace(' ', ""))
        .collect()
}

/// The subdirectories of the repo directory `dir`, sorted.
fn subdirs(dir: &str) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in fs::read_dir(repo_root().join(dir))? {
        let path = entry?.path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

#[test]
fn the_policy_forbids_unsafe_and_requires_docs() {
    let root = fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let rust = table(&root, "workspace.lints.rust");
    for lint in [r#"unsafe_code="forbid""#, r#"missing_docs="deny""#] {
        assert!(
            rust.iter().any(|line| line == lint),
            "[workspace.lints.rust] lacks {lint}"
        );
    }
}

#[test]
fn every_first_party_manifest_inherits_the_workspace_lints() {
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    for dir in subdirs("crates").unwrap() {
        manifests.push(dir.join("Cargo.toml"));
    }
    assert!(manifests.len() > 2, "no member crates found");
    for manifest in manifests {
        let toml = fs::read_to_string(&manifest).unwrap();
        assert!(
            table(&toml, "lints")
                .iter()
                .any(|line| line == "workspace=true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn every_vendored_shim_forbids_unsafe() {
    let shims = subdirs("vendor").unwrap();
    assert!(!shims.is_empty(), "no vendored shims found");
    for shim in shims {
        let lib = shim.join("src/lib.rs");
        let src = fs::read_to_string(&lib).unwrap();
        assert!(
            src.lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}
