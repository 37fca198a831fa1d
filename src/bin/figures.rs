//! Regenerates the paper's tables and figures:
//! `figures [all | <id>...] [--out DIR]`. Each artifact is rendered to the
//! terminal and written to `DIR/<id>.{json,csv}` (`out/` by default); the
//! generators live in `paperbench` (`crates/bench`).

#![allow(
    clippy::disallowed_methods,
    reason = "a CLI: the per-id timer goes to stderr, never into an artifact"
)]

use paperbench::{common::grid_heatmap, generate, ALL_IDS};
use std::path::PathBuf;
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("out");
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        args.remove(pos);
        if pos < args.len() {
            out_dir = PathBuf::from(args.remove(pos));
        } else {
            eprintln!("--out requires a directory argument");
            exit(2);
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: figures [all | <id>...] [--out DIR]");
        eprintln!("known ids: {}", ALL_IDS.join(", "));
        exit(if args.is_empty() { 2 } else { 0 });
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        let t0 = std::time::Instant::now();
        let arts = match generate(id) {
            Ok(arts) => arts,
            Err(e) => {
                eprintln!("{e}");
                exit(2);
            }
        };
        for art in arts {
            println!("{}", art.render());
            if let Some(hm) = grid_heatmap(&art) {
                println!("{hm}");
            }
            match art.write(&out_dir) {
                Ok((json, csv)) => {
                    eprintln!("wrote {} and {}", json.display(), csv.display())
                }
                Err(e) => {
                    eprintln!("failed to write {}: {e}", art.id);
                    exit(1);
                }
            }
        }
        eprintln!("[{id}] regenerated in {:.2?}\n", t0.elapsed());
    }
}
