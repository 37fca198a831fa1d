//! Cross-validation of the analytic expected-goodput model
//! (`perfmodel::reliability`) against the fault-injected training replay
//! (`trainsim::simulate_training`) — the reliability layer's counterpart
//! of the crate's analytic-vs-simulated iteration-time validation.
//!
//! Both sides compute the same observable: the **delivered fraction** of
//! the failure-free training throughput.
//!
//! * analytic: `goodput_fraction · iteration_time /
//!   effective_iteration_time` from [`perfmodel::reliability::assess`];
//! * replay: `useful_iterations · iteration_time / wall_clock` from
//!   [`trainsim::simulate_training`] over a [`FaultPlan`] sampled at the
//!   same `ReliabilitySpec` rates.
//!
//! Tolerance bands (documented, asserted below):
//!
//! | scenario            | band | dominant error source                  |
//! |---------------------|------|----------------------------------------|
//! | hard failures only  |  3%  | Poisson sampling noise on ~60 arrivals |
//! | link flaps only     |  8%  | analytic inflates *every* slow-exposed |
//! |                     |      | bucket; the replay re-prices the DP    |
//! |                     |      | sync only (independence assumption)    |
//! | stragglers only     |  8%  | analytic charges the full `s−1`        |
//! |                     |      | slowdown against all compute whenever  |
//! |                     |      | any straggler is live; in the replay   |
//! |                     |      | the 1F1B coupling is emergent — bubble |
//! |                     |      | edges and comm phases absorb part of   |
//! |                     |      | it, and windows quantize to iteration  |
//! |                     |      | starts                                 |
//! | all three combined  | 10%  | the independence assumption: analytic  |
//! |                     |      | multiplies marginal inflations, the    |
//! |                     |      | replay composes them on the trace      |
//!
//! The signed direction of the straggler gap is also asserted: the
//! analytic marginal model is the *pessimistic* side, so planning on it
//! under-promises rather than over-promises goodput.

#![allow(clippy::unwrap_used, reason = "test helpers fail by panicking")]

use perfmodel::{evaluate, ParallelConfig, Placement, Planner, TpStrategy};
use systems::{system, GpuGeneration, NvsSize, ReliabilitySpec, SystemSpec};
use trainsim::{simulate_training, FaultPlan, TrainingParams};
use txmodel::{gpt3_175b, TransformerConfig};

const GPUS: u64 = 512;
const BATCH: u64 = 1024;

fn fixture() -> (TransformerConfig, ParallelConfig, Placement) {
    // The paper's validated 512-GPU optimum: (nt, np, nd) = (4, 16, 8).
    // TP stays inside the NVS4 domain (v1 = 4); the DP group spans
    // domains, so the gradient sync is slow-tier exposed.
    let model = gpt3_175b().config;
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let placement = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    (model, cfg, placement)
}

/// Runs one scenario end to end and returns
/// `(analytic delivered fraction, replayed delivered fraction)`.
fn run(spec: ReliabilitySpec, horizon_s: f64, seed: u64) -> (f64, f64) {
    let (model, cfg, pl) = fixture();
    let sys: SystemSpec = system(GpuGeneration::A100, NvsSize::Nvs4).with_reliability(spec);

    // Analytic side: assess() under the planner's scoring context.
    let e = evaluate(&model, &cfg, &pl, BATCH, &sys);
    let ctx = Planner::new(&model, &sys)
        .global_batch(BATCH)
        .objective_ctx();
    let r = perfmodel::reliability::assess(&e, &ctx);
    let analytic = r.goodput_fraction * e.iteration_time / r.effective_iteration_time;

    // Replay side: sample the fault trace at the same rates, checkpoint
    // at the analytic Young/Daly interval and cost.
    let domains = GPUS.div_ceil(sys.nvs_size.max(1)).max(1);
    let nics = sys.nics_for(GPUS);
    let slow_links = domains.saturating_sub(1).max(1);
    let plan = FaultPlan::sample(&sys.reliability, GPUS, nics, slow_links, horizon_s, seed);
    let params = TrainingParams::new(
        r.optimal_interval,
        r.checkpoint_time,
        sys.reliability.restart_overhead_s,
    );
    let rep = simulate_training(&model, &cfg, &pl, BATCH, &sys, &plan, &params).unwrap();
    eprintln!(
        "analytic {analytic:.4} replay {:.4} | kills {} ckpts {} lost {} degr {} strag {} \
         (t_base {:.2}s t_degr {:.2}s t_strag {:.2}s tau {:.0}s C {:.2}s)",
        rep.goodput_fraction,
        rep.restarts,
        rep.checkpoints,
        rep.lost_iterations,
        rep.degraded_iterations,
        rep.straggled_iterations,
        rep.iteration_time,
        rep.degraded_iteration_time,
        rep.straggled_iteration_time,
        r.optimal_interval,
        r.checkpoint_time,
    );
    (analytic, rep.goodput_fraction)
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.max(b)
}

#[test]
fn hard_failures_only_match_young_daly_closely() {
    // 2 000 h GPU MTBF at 512 GPUs ⇒ system MTBF ≈ 3.9 h: failures and
    // checkpoint/rework overheads dominate, windows are off.
    let spec = ReliabilitySpec::failure_free()
        .with_gpu_mtbf_hours(2_000.0)
        .with_restart_overhead_s(600.0);
    let (analytic, replayed) = run(spec, 10.0 * 86_400.0, 11);
    assert!(analytic < 0.99, "scenario must actually cost something");
    assert!(
        rel_err(analytic, replayed) < 0.03,
        "analytic {analytic} vs replay {replayed}"
    );
}

#[test]
fn link_flaps_only_agree_within_the_exposure_band() {
    // 0.1 flaps/h per slow link × 127 links, 120 s windows at 0.4×
    // bandwidth ⇒ the fabric is degraded ~1/3 of the time.
    let spec = ReliabilitySpec::failure_free().with_link_flaps(0.4, 0.1, 120.0);
    let (analytic, replayed) = run(spec, 2.0 * 86_400.0, 12);
    assert!(analytic < 0.995, "scenario must actually cost something");
    assert!(
        rel_err(analytic, replayed) < 0.08,
        "analytic {analytic} vs replay {replayed}"
    );
}

#[test]
fn stragglers_only_agree_within_the_coupling_band() {
    // 1e-3 per-GPU straggle probability × 512 GPUs ⇒ some straggler is
    // active ~40% of the time, each episode 300 s at 1.5× slowdown.
    let spec = ReliabilitySpec::failure_free().with_stragglers(1e-3, 1.5, 300.0);
    let (analytic, replayed) = run(spec, 2.0 * 86_400.0, 13);
    assert!(analytic < 0.995, "scenario must actually cost something");
    assert!(
        rel_err(analytic, replayed) < 0.08,
        "analytic {analytic} vs replay {replayed}"
    );
    // Where the marginal model breaks, it breaks *pessimistic*: it
    // charges the full `s−1` slowdown against every GPU's compute for
    // the whole any-straggler duty cycle, while in the replay the 1F1B
    // coupling is emergent — the straggled-iteration span ratio lands
    // below `s`, and windows only take effect at iteration starts. A
    // plan scored with the analytic model therefore under-promises.
    assert!(
        replayed >= analytic,
        "the analytic marginal model {analytic} should be the pessimistic side, \
         got replay {replayed}"
    );
}

#[test]
fn combined_faults_agree_within_the_independence_band() {
    let spec = ReliabilitySpec::failure_free()
        .with_gpu_mtbf_hours(2_000.0)
        .with_restart_overhead_s(600.0)
        .with_link_flaps(0.4, 0.1, 120.0)
        .with_stragglers(1e-3, 1.5, 300.0);
    let (analytic, replayed) = run(spec, 6.0 * 86_400.0, 14);
    assert!(analytic < 0.97, "scenario must actually cost something");
    assert!(
        rel_err(analytic, replayed) < 0.10,
        "analytic {analytic} vs replay {replayed}"
    );
}

#[test]
fn failure_free_replay_delivers_everything() {
    let spec = ReliabilitySpec::failure_free();
    let (analytic, replayed) = run(spec, 3_600.0, 15);
    assert!((analytic - 1.0).abs() < 1e-12);
    assert!(replayed > 1.0 - 1e-9);
}
