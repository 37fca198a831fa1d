//! fmcheck: the workspace's correctness tooling — a static lint pass
//! (**fmlint**) and a concurrency model checker (**fmsched**) that
//! together prove the search stack's two load-bearing claims:
//! *determinism* (same inputs → bit-identical artifacts, at any thread
//! count) and *race-freedom* (the lock-free fast paths cannot lose or
//! corrupt results under any interleaving).
//!
//! # fmlint
//!
//! A zero-dependency, token-level source linter (no `syn`, no network,
//! no `rustc` plumbing) that walks every workspace `.rs` file and
//! enforces the repo-specific invariants clippy cannot express — no
//! panics in library code, no NaN-unsafe comparisons, no hash-order
//! iteration in deterministic paths, no wall-clock reads outside the
//! profiling layer, hardening attributes on every crate root, and
//! SAFETY comments on any vendored `unsafe`. See [`lint`] for the rule
//! table, the `fmlint::allow` suppression syntax, and the path
//! profiles; see [`baseline`] for the ratchet that lets pre-existing
//! findings age out without admitting new ones.
//!
//! Run it the way CI does:
//!
//! ```text
//! cargo run -p fmcheck --bin fmlint -- --workspace --deny-new
//! ```
//!
//! # fmsched
//!
//! A miniature loom/shuttle-style model checker: protocol models of the
//! real concurrent code (the L2 memo shard insert race, the search's
//! k-th-best threshold, the rayon-pool chunk claim, serving batch
//! admission) explored under an exhaustive DFS scheduler with a seeded
//! random-walk fallback, asserting schedule-independence of every result.
//! See [`sched`] for the explorer and the "writing a new model" guide,
//! and [`models`] for the four protocols and their regression twins.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod lint;
pub mod models;
pub mod sched;
