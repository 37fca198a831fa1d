//! Inference-serving planning: plan the same GPT3-175B chat deployment
//! twice — once maximizing raw decode throughput per GPU, once
//! maximizing headroom under an interactive latency SLO — and watch
//! both the parallelization *and* the prefill/decode placement flip,
//! then replay each winner through the discrete-event serving simulator
//! to check the analytic latency percentiles against measured ones.
//!
//! Run: `cargo run --release --example serving_planner`.

#![allow(clippy::expect_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use perfmodel::serving::{assess, assess_mode, assess_slo, placement_modes};

fn main() {
    // GPT3-175B serving an interactive chat mix on 64 B200s: short-ish
    // prompts, long streamed generations, a tight token-latency budget.
    let preset = gpt3_175b_chat();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let slo = SloSpec {
        ttft_p50: 0.12,
        ttft_p99: 0.16,
        tpot_p50: 0.03,
        tpot_p99: 0.05,
    };
    println!(
        "GPT3-175B chat on 64 B200 (NVS8): {:.0} req/s, prompts ~{} tok, \
         {} output tok,\nSLO: TTFT {:.0}/{:.0} ms (p50/p99), TPOT {:.0}/{:.0} ms\n",
        preset.traffic.request_rate(),
        preset.traffic.prompt.typical,
        preset.traffic.output.typical,
        slo.ttft_p50 * 1e3,
        slo.ttft_p99 * 1e3,
        slo.tpot_p50 * 1e3,
        slo.tpot_p99 * 1e3,
    );

    // --- The objective flip: throughput optimum != SLO optimum ---
    let planner = || {
        Planner::new(&preset.model, &sys)
            .gpus(64)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .serving(preset.traffic)
    };
    let ctx = planner().objective_ctx();
    let sctx = ctx.serving.as_ref().expect("serving traffic configured");
    let mut t = report::Table::new([
        "objective",
        "config",
        "placement",
        "tok/GPU/s",
        "TTFT p99 (ms)",
        "TPOT p99 (ms)",
        "meets SLO",
    ]);
    let mut winners = Vec::new();
    for (name, obj) in [
        ("TokensPerSecPerGpu", Objective::TokensPerSecPerGpu),
        ("ServingSlo", Objective::ServingSlo { slo }),
    ] {
        let plans = planner().objective(obj.clone()).top_k(1).execute();
        let best = plans.best().expect("the 64-GPU space is non-empty");
        // Each winner keeps the placement its own objective chose:
        // throughput-best for the throughput sweep, SLO-best for the
        // SLO sweep.
        let r = match obj {
            Objective::TokensPerSecPerGpu => assess(&best.eval, sctx),
            _ => assess_slo(&best.eval, sctx, &slo),
        };
        t.push([
            name.to_string(),
            format!("{}", best.eval.config),
            format!("{:?}", r.mode),
            format!("{:.1}", r.tokens_per_gpu_second),
            format!("{:.1}", r.ttft_p99 * 1e3),
            format!("{:.1}", r.tpot_p99 * 1e3),
            r.meets(&slo).to_string(),
        ]);
        winners.push((best.eval.clone(), r));
    }
    println!("{}", t.render());
    println!(
        "The throughput optimum packs many small colocated replicas and lets\n\
         prefills stall the decode tail past the TPOT budget; the SLO optimum\n\
         buys faster prefill (wider TP) and dedicates prefill replicas —\n\
         sacrificing capacity to keep every percentile inside the budget.\n"
    );

    // --- The placement ledger on the SLO winner's parallelization ---
    let (slo_eval, _) = &winners[1];
    let mut t = report::Table::new([
        "placement",
        "utilization",
        "occupancy",
        "TTFT p99 (ms)",
        "TPOT p99 (ms)",
        "SLO score",
    ]);
    for mode in placement_modes(slo_eval.config.nd) {
        let r = assess_mode(slo_eval, sctx, mode);
        t.push([
            format!("{mode:?}"),
            format!("{:.2}", r.utilization),
            format!("{:.1}", r.occupancy),
            format!("{:.1}", r.ttft_p99 * 1e3),
            format!("{:.1}", r.tpot_p99 * 1e3),
            format!("{:+.3}", r.slo_score(&slo)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Colocation always wins raw capacity (no pool quantization), but only\n\
         disaggregation clears the decode tail — the paper-style observation\n\
         that serving optima are placement decisions, not just shard counts.\n"
    );

    // --- Replay both winners through the discrete-event simulator ---
    let params = ServeSimParams {
        seed: 42,
        requests: 3000,
    };
    let mut t = report::Table::new([
        "winner",
        "analytic TPOT p99 (ms)",
        "simulated TPOT p99 (ms)",
        "simulated TTFT p99 (ms)",
        "sim tok/GPU/s",
        "verdict",
    ]);
    for (name, (e, r)) in ["throughput", "SLO"].iter().zip(&winners) {
        let spec = SimSpec::from_plan(e, sctx, r.mode).expect("winners are simulatable");
        let m = simulate_serving(&spec, &params);
        let verdict = if m.tpot_p99 <= slo.tpot_p99 && m.ttft_p99 <= slo.ttft_p99 {
            "meets (measured)"
        } else {
            "violates (measured)"
        };
        t.push([
            name.to_string(),
            format!("{:.1}", r.tpot_p99 * 1e3),
            format!("{:.1}", m.tpot_p99 * 1e3),
            format!("{:.1}", m.ttft_p99 * 1e3),
            format!("{:.1}", m.delivered_tokens_per_gpu_second),
            verdict.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The seeded replay confirms both verdicts on measured percentiles —\n\
         see `crates/servesim/tests/serving_validation.rs` for the documented\n\
         tolerance bands between the analytic model and the simulator."
    );
}
