//! Cross-validation of the analytic serving model
//! (`perfmodel::serving`) against the discrete-event replay
//! (`servesim::simulate_serving`) — the serving layer's counterpart of
//! `trainsim`'s goodput validation.
//!
//! Both sides price the *same* phases (the simulator's step times come
//! verbatim from the analytic model via `decode_step_table`), so every
//! gap measured here is emergent queueing behavior: admission waits,
//! prefill stalls landing inside decode gaps, occupancy ramping, pool
//! imbalance, trace edge effects.
//!
//! Tolerance bands (documented, asserted below):
//!
//! | metric, scenario            | band | dominant error source            |
//! |-----------------------------|------|----------------------------------|
//! | TPOT p50, all unsaturated   |  2%  | occupancy fixed point vs the     |
//! |                             |      | trace's time-weighted batch      |
//! | TPOT p99, colocated chat    | 10%  | the stall model charges exactly  |
//! |                             |      | one typical prefill per hit gap; |
//! |                             |      | the trace mixes 0/1/2-stall gaps |
//! | TPOT p99, disaggregated     |  5%  | clean by construction both sides |
//! |                             |      | (occupancy wander only)          |
//! | TTFT p50, chat              | 15%  | P–K mean wait vs sampled waits   |
//! | TTFT p99, all unsaturated   | 50%, | exponential-tail multiplier is   |
//! |                             | signed| deliberately conservative: the  |
//! |                             |      | analytic side must be the        |
//! |                             |      | *pessimistic* one (≥ simulated)  |
//! | delivered tokens/s/GPU      | 10%  | finite-trace ramp-up and drain   |
//! | occupancy, chat             | 15%  | Little's law vs ramping batch    |
//!
//! Saturation is validated qualitatively: when the analytic model flags
//! `saturated`, the simulated queue wait must diverge with trace length
//! (no finite band exists for an unstable queue — that is what the flag
//! means).

#![allow(clippy::expect_used, reason = "test helpers fail by panicking")]

use perfmodel::search::best_placement_eval;
use perfmodel::serving::{assess_mode, PdPlacement, ServingReport};
use perfmodel::{Evaluation, ParallelConfig, ServingCtx, TpStrategy};
use servesim::{simulate_serving, SimParams, SimReport, SimSpec};
use systems::{system, GpuGeneration, NvsSize};
use txmodel::{gpt3_175b_chat, vit_multimodal_serving, ServingPreset};

const REQUESTS: u64 = 3000;
const SEED: u64 = 42;

fn fixture(preset: &ServingPreset, tp: u64, nd: u64) -> (Evaluation, ServingCtx) {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let cfg = ParallelConfig::new(TpStrategy::OneD, tp, 1, 1, nd, 1);
    let e = best_placement_eval(&preset.model, &cfg, 1024, &sys);
    let s = ServingCtx {
        model: preset.model,
        traffic: preset.traffic,
        system: sys,
    };
    (e, s)
}

fn run(e: &Evaluation, s: &ServingCtx, mode: PdPlacement) -> (ServingReport, SimReport) {
    let analytic = assess_mode(e, s, mode);
    let spec = SimSpec::from_plan(e, s, mode).expect("fixture must be simulatable");
    let measured = simulate_serving(
        &spec,
        &SimParams {
            seed: SEED,
            requests: REQUESTS,
        },
    );
    (analytic, measured)
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

#[test]
fn colocated_chat_latencies_match_within_bands() {
    let preset = gpt3_175b_chat();
    let (e, s) = fixture(&preset, 8, 8);
    let (a, m) = run(&e, &s, PdPlacement::Colocated);
    assert!(
        !a.saturated,
        "fixture must be stable: util {}",
        a.utilization
    );

    // TPOT: the median gap is one clean decode step on both sides; the
    // tail gap carries a prefill stall on both sides.
    assert!(
        rel_err(a.tpot_p50, m.tpot_p50) < 0.02,
        "{} vs {}",
        a.tpot_p50,
        m.tpot_p50
    );
    assert!(
        rel_err(a.tpot_p99, m.tpot_p99) < 0.10,
        "{} vs {}",
        a.tpot_p99,
        m.tpot_p99
    );
    assert!(
        m.tpot_p99 > m.tpot_p50 + 0.5 * a.prefill_p50,
        "the simulated tail must actually carry prefill stalls: {} vs {}",
        m.tpot_p99,
        m.tpot_p50
    );

    // TTFT: mean-wait approximation at the median, conservative
    // (pessimistic) exponential tail at p99.
    assert!(
        rel_err(a.ttft_p50, m.ttft_p50) < 0.15,
        "{} vs {}",
        a.ttft_p50,
        m.ttft_p50
    );
    assert!(
        a.ttft_p99 >= m.ttft_p99 && rel_err(a.ttft_p99, m.ttft_p99) < 0.50,
        "analytic tail must be the pessimistic side: {} vs {}",
        a.ttft_p99,
        m.ttft_p99
    );

    // Throughput and occupancy.
    assert!(
        rel_err(
            a.delivered_tokens_per_gpu_second,
            m.delivered_tokens_per_gpu_second
        ) < 0.10,
        "{} vs {}",
        a.delivered_tokens_per_gpu_second,
        m.delivered_tokens_per_gpu_second
    );
    assert!(
        rel_err(a.occupancy, m.mean_occupancy) < 0.15,
        "{} vs {}",
        a.occupancy,
        m.mean_occupancy
    );
}

#[test]
fn disaggregated_chat_tail_is_clean_on_both_sides() {
    let preset = gpt3_175b_chat();
    let (e, s) = fixture(&preset, 8, 8);
    let (a, m) = run(
        &e,
        &s,
        PdPlacement::Disaggregated {
            prefill_replicas: 2,
        },
    );
    assert!(!a.saturated);

    // The disagg selling point, on both sides: no prefill ever lands in
    // a decode gap, so the tail gap is just another step.
    assert_eq!(a.tpot_p50, a.tpot_p99);
    assert!(rel_err(a.tpot_p50, m.tpot_p50) < 0.02);
    assert!(
        rel_err(a.tpot_p99, m.tpot_p99) < 0.05,
        "{} vs {}",
        a.tpot_p99,
        m.tpot_p99
    );

    // Ordering chain the proptests generalize: simulated p99 ≥ simulated
    // p50 ≥ the analytic clean-step lower bound (no gap can beat one
    // decode step at the smallest resident batch).
    let lower_bound = SimSpec::from_plan(&e, &s, a.mode)
        .expect("simulatable")
        .decode_steps[0];
    assert!(m.tpot_p99 >= m.tpot_p50);
    assert!(m.tpot_p50 >= 0.98 * lower_bound);

    // TTFT carries the KV handoff on both sides; analytic tail stays
    // the pessimistic side.
    assert!(a.kv_transfer > 0.0);
    assert!(
        rel_err(a.ttft_p50, m.ttft_p50) < 0.15,
        "{} vs {}",
        a.ttft_p50,
        m.ttft_p50
    );
    assert!(a.ttft_p99 >= m.ttft_p99 && rel_err(a.ttft_p99, m.ttft_p99) < 0.50);
    assert!(
        rel_err(
            a.delivered_tokens_per_gpu_second,
            m.delivered_tokens_per_gpu_second
        ) < 0.10
    );
}

#[test]
fn prefill_dominated_vit_median_matches_and_tail_is_bounded() {
    let preset = vit_multimodal_serving();
    let (e, s) = fixture(&preset, 4, 4);
    let (a, m) = run(&e, &s, PdPlacement::Colocated);
    assert!(!a.saturated, "util {}", a.utilization);

    assert!(rel_err(a.tpot_p50, m.tpot_p50) < 0.02);
    // The stall probability sits at the model's cliff edge (~0.8% per
    // gap), so the analytic tail reports a clean step while the trace
    // catches a few stalls: assert the structural upper bound instead of
    // a band — no simulated gap can exceed one step plus one (uniform)
    // prompt's prefill.
    assert!(m.tpot_p99 >= a.tpot_p50);
    assert!(
        m.tpot_p99 <= a.decode_step + 1.01 * a.prefill_p99,
        "{} vs step {} + prefill {}",
        m.tpot_p99,
        a.decode_step,
        a.prefill_p99
    );
    // Prefill dominates TTFT on both sides; the analytic tail stays
    // pessimistic.
    assert!(
        rel_err(a.ttft_p50, m.ttft_p50) < 0.25,
        "{} vs {}",
        a.ttft_p50,
        m.ttft_p50
    );
    assert!(a.ttft_p99 >= m.ttft_p99 && rel_err(a.ttft_p99, m.ttft_p99) < 0.50);
    assert!(
        rel_err(
            a.delivered_tokens_per_gpu_second,
            m.delivered_tokens_per_gpu_second
        ) < 0.10
    );
}

#[test]
fn analytic_saturation_flag_predicts_divergent_simulated_waits() {
    // One prefill server cannot carry the ViT traffic (util > 1): the
    // analytic model flags saturation; the simulated queue must diverge
    // — waits grow roughly linearly with trace length instead of
    // settling into any band.
    let preset = vit_multimodal_serving();
    let (e, s) = fixture(&preset, 4, 4);
    let mode = PdPlacement::Disaggregated {
        prefill_replicas: 1,
    };
    let a = assess_mode(&e, &s, mode);
    assert!(a.saturated, "util {}", a.utilization);
    let spec = SimSpec::from_plan(&e, &s, mode).expect("simulatable");
    let short = simulate_serving(
        &spec,
        &SimParams {
            seed: SEED,
            requests: 1000,
        },
    );
    let long = simulate_serving(
        &spec,
        &SimParams {
            seed: SEED,
            requests: 2000,
        },
    );
    assert!(
        long.ttft_p50 > 1.5 * short.ttft_p50,
        "saturated waits must grow with trace length: {} vs {}",
        long.ttft_p50,
        short.ttft_p50
    );
    assert!(
        short.ttft_p50 > 10.0 * a.prefill_p99,
        "waits dwarf service times"
    );
}

#[test]
fn reports_are_identical_across_reruns_and_seeds_differ() {
    let preset = gpt3_175b_chat();
    let (e, s) = fixture(&preset, 8, 8);
    for mode in [
        PdPlacement::Colocated,
        PdPlacement::Disaggregated {
            prefill_replicas: 2,
        },
    ] {
        let spec = SimSpec::from_plan(&e, &s, mode).expect("simulatable");
        let p = SimParams {
            seed: SEED,
            requests: 500,
        };
        assert_eq!(simulate_serving(&spec, &p), simulate_serving(&spec, &p));
        let other = simulate_serving(
            &spec,
            &SimParams {
                seed: SEED + 1,
                requests: 500,
            },
        );
        assert_ne!(simulate_serving(&spec, &p), other);
    }
}
