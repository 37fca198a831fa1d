//! Failure-aware planning: plan the same pre-training job twice — once
//! minimizing failure-free iteration time, once maximizing expected
//! goodput — and watch the optimum move, then replay a seeded fault
//! timeline against the goodput pick to check the analytic model's
//! promises end-to-end.
//!
//! Run: `cargo run --release --example reliability_planner`.

#![allow(clippy::expect_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use perfmodel::reliability::assess;

const DAY: f64 = 86_400.0;

fn main() {
    // --- The objective flip: fastest plan != highest-goodput plan ---
    // GPT3-175B on 4096 B200s with datacenter failure rates. The
    // fastest plan shards weights thinly (big checkpoints) and exposes
    // cross-domain tensor parallelism to degraded links; a slightly
    // slower plan banks more tokens per wall-clock day.
    let model = gpt3_175b().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    println!(
        "GPT3-175B on 4096 B200 (NVS8), b=1024, GPU MTBF {:.0} h:\n",
        sys.reliability.gpu_mtbf_hours
    );
    let planner = Planner::new(&model, &sys)
        .gpus(4096)
        .global_batch(1024)
        .strategy(TpStrategy::OneD);
    let ctx = planner.objective_ctx();
    let mut t = report::Table::new([
        "objective",
        "config",
        "iter (s)",
        "ckpt (s)",
        "interval (s)",
        "goodput",
        "tok/GPU/s",
        "days/100k iter",
    ]);
    for (name, obj) in [
        ("IterationTime", Objective::IterationTime),
        ("ExpectedGoodput", Objective::ExpectedGoodput),
    ] {
        let plans = planner.clone().objective(obj).execute();
        let best = plans.best().expect("the 4096-GPU space is non-empty");
        let r = assess(&best.eval, &ctx);
        t.push([
            name.to_string(),
            format!("{}", best.eval.config),
            format!("{:.3}", best.eval.iteration_time),
            format!("{:.1}", r.checkpoint_time),
            format!("{:.0}", r.optimal_interval),
            format!("{:.4}", r.goodput_fraction),
            format!("{:.1}", r.tokens_per_gpu_second),
            format!("{:.1}", r.effective_days(1e5)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The goodput optimum trades a little failure-free speed for smaller\n\
         checkpoint shards and less slow-tier exposure — and delivers more\n\
         training progress per wall-clock day once failures are priced in.\n"
    );

    // --- Replay a seeded fault timeline against the analytic promise ---
    // The validated 512-GPU Perlmutter-class configuration, ten days of
    // simulated training under 2000 h GPU MTBF: deterministic Poisson
    // kill times, checkpoint/restart semantics at the Young/Daly
    // interval, rework measured iteration by iteration.
    let sys = perlmutter(4).with_reliability(
        ReliabilitySpec::failure_free()
            .with_gpu_mtbf_hours(2_000.0)
            .with_restart_overhead_s(600.0),
    );
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let e = evaluate(&model, &cfg, &pl, 1024, &sys);
    let ctx = Planner::new(&model, &sys)
        .global_batch(1024)
        .objective_ctx();
    let r = assess(&e, &ctx);
    let analytic = r.goodput_fraction * e.iteration_time / r.effective_iteration_time;

    let gpus = cfg.total_gpus();
    let domains = gpus.div_ceil(sys.nvs_size.max(1)).max(1);
    let horizon = 10.0 * DAY;
    println!(
        "Fault-injected replay: GPT3-175B {cfg} on 512 A100 (NVL4), 10 days,\n\
         2000 h GPU MTBF, Young/Daly interval {:.0} s, checkpoint {:.1} s:\n",
        r.optimal_interval, r.checkpoint_time
    );
    let mut t = report::Table::new([
        "seed",
        "kills",
        "restarts",
        "ckpts",
        "useful iters",
        "lost",
        "goodput",
    ]);
    let params = TrainingParams::new(
        r.optimal_interval,
        r.checkpoint_time,
        sys.reliability.restart_overhead_s,
    );
    for seed in [11, 12, 13] {
        let plan = FaultPlan::sample(
            &sys.reliability,
            gpus,
            sys.nics_for(gpus),
            domains.saturating_sub(1).max(1),
            horizon,
            seed,
        );
        let rep = simulate_training(&model, &cfg, &pl, 1024, &sys, &plan, &params)
            .expect("the validated configuration runs the plain 1F1B schedule");
        t.push([
            seed.to_string(),
            plan.kills().to_string(),
            rep.restarts.to_string(),
            rep.checkpoints.to_string(),
            rep.useful_iterations.to_string(),
            rep.lost_iterations.to_string(),
            format!("{:.4}", rep.goodput_fraction),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Analytic expected delivered fraction: {analytic:.4} — the replay agrees\n\
         within the documented tolerance bands (see the reliability figure and\n\
         `crates/trainsim/tests/goodput_validation.rs` for where the independence\n\
         assumptions start to bend)."
    );
}
