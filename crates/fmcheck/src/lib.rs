//! fmcheck: **fmsched**, the workspace's concurrency model checker. It
//! backs the search stack's race-freedom claim: the lock-free fast path
//! cannot lose or corrupt results under any interleaving, so results stay
//! bit-identical at any thread count.
//!
//! A miniature loom/shuttle-style model checker: a protocol model of the
//! real concurrent code (the rayon pool's chunk claim) explored under an
//! exhaustive DFS scheduler with a seeded random-walk fallback, asserting
//! schedule-independence of every result. See [`sched`] for the explorer
//! and the "writing a new model" guide, and [`models`] for the protocol,
//! its regression twin, and why the other shared state needs no model.
//!
//! The workspace's static checks are not here: they are rustc and clippy
//! lints, declared once in the root `Cargo.toml`'s `[workspace.lints]`
//! table with their lists in `clippy.toml`.

pub mod models;
pub mod sched;
