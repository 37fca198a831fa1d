//! Discrete-event simulator of one training iteration under the
//! non-interleaved 1F1B pipeline schedule.
//!
//! This crate is the repo's stand-in for the paper's §IV *Empirical
//! Validation*, which measured Megatron-LM iteration times on 512
//! Perlmutter A100 GPUs and reported 2–26% analytic-vs-measured errors.
//! We cannot run Megatron-LM here, so we validate the closed-form model
//! against an explicit simulation of the schedule it abstracts:
//!
//! * every `(stage, microbatch, direction)` work item is executed on a
//!   serial stage processor in true 1F1B order;
//! * cross-stage dependencies (`F(s,j)` needs `F(s−1,j)`, `B(s,j)` needs
//!   `B(s+1,j)`) are honored with explicit point-to-point transfer times,
//!   so pipeline bubbles *emerge* instead of being a formula;
//! * per-item times are jittered log-normally (kernel-time variance) and
//!   each item pays a scheduling overhead — the effect classes behind the
//!   paper's empirical error.
//!
//! The headline experiment ([`compare`]) runs the analytic model and the
//! simulator on the same configuration and reports the relative error —
//! the same quantity the paper's validation section tabulates.
//!
//! The simulator executes the *non-interleaved, ZeRO-1* 1F1B schedule;
//! configurations outside that envelope (interleaved virtual stages,
//! ZeRO-3 weight sharding — both part of the joint S3 search space)
//! return a typed [`UnsupportedConfig`] error instead of aborting, so
//! sweeping cross-checks skip them. MoE configurations are fully
//! supported: stage times price the expert AllToAlls through the same
//! shared `stage_times`/`dp_sync_time` helpers as the analytic model, so
//! the two can never silently diverge.
//!
//! On top of the single-iteration simulator sits a *fault-injected
//! multi-iteration replay* ([`simulate_training`]): a deterministic
//! [`FaultPlan`] of timestamped node-kill / link-degradation / straggler
//! events, sampled from a `systems::ReliabilitySpec`, is replayed
//! against a training run with checkpoint/restart semantics — the
//! measured counterpart of the analytic expected-goodput model in
//! `perfmodel::reliability`.

mod faults;
mod report;
mod schedule;
mod sim;

pub use faults::{
    simulate_training, FaultEvent, FaultPlan, TimedFault, TrainingParams, TrainingReport,
};
pub use report::{compare, compare_plan, ValidationRow};
pub use schedule::{stage_schedule, WorkItem};
pub use sim::{simulate_iteration, IterationReport, SimParams, UnsupportedConfig};

#[cfg(test)]
mod serde_roundtrip {
    use super::*;

    #[test]
    fn work_items_survive_json() {
        // Tuple enum variants take the `{"Forward": j}` encoding.
        let order = stage_schedule(1, 4, 6);
        let back: Vec<WorkItem> =
            serde_json::from_str(&serde_json::to_string(&order).unwrap()).unwrap();
        assert_eq!(back, order);
    }

    #[test]
    fn sim_params_survive_json() {
        let params = SimParams {
            straggler_stage: Some(3),
            straggler_factor: 1.25,
            ..SimParams::ideal()
        };
        let back: SimParams =
            serde_json::from_str(&serde_json::to_string(&params).unwrap()).unwrap();
        assert_eq!(back, params);
        // `None` must round-trip through JSON null.
        let ideal = SimParams::ideal();
        let back: SimParams =
            serde_json::from_str(&serde_json::to_string(&ideal).unwrap()).unwrap();
        assert_eq!(back, ideal);
    }
}
