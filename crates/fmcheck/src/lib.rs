//! fmcheck: **fmsched**, the workspace's concurrency model checker. It
//! backs the search stack's race-freedom claim: the lock-free fast paths
//! cannot lose or corrupt results under any interleaving, so results stay
//! bit-identical at any thread count.
//!
//! A miniature loom/shuttle-style model checker: protocol models of the
//! real concurrent code (the L2 memo shard insert race and the rayon-pool
//! chunk claim) explored under an exhaustive DFS scheduler with a seeded
//! random-walk fallback, asserting schedule-independence of every result.
//! See [`sched`] for the explorer and the "writing a new model" guide, and
//! [`models`] for the two protocols and their regression twins.
//!
//! The workspace's static checks are not here: they are rustc and clippy
//! lints, declared once in the root `Cargo.toml`'s `[workspace.lints]`
//! table with their lists in `clippy.toml`.

pub mod models;
pub mod sched;
