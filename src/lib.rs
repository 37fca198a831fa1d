//! `fmperf` — analytical performance modeling and design-space search for
//! foundation-model training.
//!
//! Reproduction of *"Comprehensive Performance Modeling and System Design
//! Insights for Foundation Models"* (SC 2024). This facade crate re-exports
//! the workspace libraries and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! * [`systems`] — hardware/network catalog (Table A3) and builders.
//! * [`txmodel`] — transformer architectures and presets (dense GPT/ViT,
//!   Mixture-of-Experts, multimodal ViT), FLOP/byte census.
//! * [`collectives`] — analytic dual-network collective time model
//!   (AG/RS/AR/Broadcast/Reduce/AllToAll, multi-algorithm).
//! * [`netsim`] — piece-level discrete-event collective simulator (ring,
//!   tree, hierarchical and AllToAll schedules on a generic link
//!   topology) cross-validating every analytic formula.
//! * [`perfmodel`] — the paper's performance model + the composable
//!   [`Planner`](perfmodel::Planner) over the joint `(tp, pp, dp, ep)`
//!   design space (typed search spaces, multi-objective Pareto search,
//!   top-k retention, serializable plans), including the analytic
//!   expected-goodput model behind the failure-aware objectives.
//! * [`trainsim`] — 1F1B schedule simulator for model validation, plus
//!   fault-injected multi-iteration replay with checkpoint/restart
//!   semantics ([`trainsim::simulate_training`]).
//! * [`servesim`] — deterministic discrete-event *inference-serving*
//!   simulator (Poisson arrivals, continuous-batching admission,
//!   colocated and disaggregated prefill/decode pools) cross-validating
//!   the analytic serving model behind
//!   [`Objective::TokensPerSecPerGpu`](perfmodel::Objective) and
//!   [`Objective::ServingSlo`](perfmodel::Objective).
//! * [`report`] — tables, ASCII charts, JSON/CSV artifacts.
//!
//! ```
//! use fmperf::prelude::*;
//!
//! let model = gpt3_1t().config;
//! let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
//! let plans = Planner::new(&model, &sys)
//!     .gpus(512)
//!     .global_batch(4096)
//!     .strategy(TpStrategy::OneD)
//!     .pareto([Objective::IterationTime, Objective::HbmHeadroom])
//!     .execute();
//! let best = plans.best().unwrap();
//! println!("{}: {:.2} s/iter", best.eval.config, best.eval.iteration_time);
//! ```
//!
//! # Building, testing, benchmarking
//!
//! * `cargo build --release` — builds the whole workspace (external deps
//!   are vendored offline shims; see `vendor/README.md`).
//! * `cargo test --workspace -q` — unit + integration + property tests.
//! * `cargo run --release --example quickstart` — the path above, end to
//!   end.
//! * `cargo run --release --bin figures` / `cargo bench -p paperbench` —
//!   regenerate the paper's figures and tables under `out/`; the bench
//!   run also records the perf trajectory (`out/bench.json`, schema and
//!   methodology in `PERFORMANCE.md`).

pub use collectives;
pub use netsim;
pub use perfmodel;
pub use report;
pub use servesim;
pub use systems;
pub use trainsim;
pub use txmodel;

/// Everything a typical planning session needs.
pub mod prelude {
    pub use collectives::{allreduce_time, collective_time, Algorithm, Collective, CommGroup};
    pub use perfmodel::{
        best_placement_eval, evaluate, reset_search_stats, search_stats, training_days,
        ConfigError, Evaluation, GoodputReport, Objective, ParallelConfig, PdPlacement, Placement,
        Plan, PlanSet, Planner, SearchSpace, SearchStats, ServingCtx, ServingReport, SloSpec,
        TpStrategy,
    };
    pub use servesim::{
        simulate_serving, try_simulate_serving, SimParams as ServeSimParams, SimReport, SimSpec,
    };
    pub use systems::{
        perlmutter, system, GpuGeneration, NvsSize, ReliabilitySpec, SystemBuilder, SystemSpec,
    };
    pub use trainsim::{simulate_training, FaultPlan, TrainingParams, TrainingReport};
    pub use txmodel::{
        gpt3_175b, gpt3_175b_chat, gpt3_175b_moe, gpt3_1t, moe_1t, moe_1t_chat, vit_32k, vit_64k,
        vit_multimodal, vit_multimodal_serving, InferenceConfig, LengthMix, MoeConfig,
        ServingPreset, TrainingWorkload, TransformerConfig,
    };
}
