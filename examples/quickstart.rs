//! Quickstart: find the optimal way to train GPT3-1T on 1024 B200 GPUs
//! with the composable `Planner` API — top-3 plans plus the
//! time-vs-headroom Pareto frontier.

#![allow(clippy::expect_used, reason = "an example aborts on a failed query")]

use perfmodel::{Objective, Planner, TpStrategy};
use systems::{system, GpuGeneration, NvsSize};
use txmodel::{gpt3_1t, TrainingWorkload};

fn main() {
    let model = gpt3_1t();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let n = 1024;
    let workload = TrainingWorkload::gpt3_1t_pretraining();
    let plans = Planner::new(&model.config, &sys)
        .gpus(n)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .objective(Objective::IterationTime)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom])
        .top_k(3)
        .execute();
    let best = plans.best().expect("feasible config");
    println!(
        "Optimal configuration for {} on {} GPUs ({}):",
        model.name, n, sys.name
    );
    println!("  {}", best.eval.config);
    println!("  microbatches      : {}", best.eval.microbatches);
    println!("  iteration time    : {:.3} s", best.eval.iteration_time);
    println!(
        "  HBM per GPU       : {:.1} GB",
        best.eval.memory.total_gb()
    );
    for (name, pct) in best.eval.breakdown.percentages() {
        println!("  {name:<10}: {pct:5.1} %");
    }
    let days = perfmodel::training_days(&workload, &best.eval);
    println!("  full 1T-token pre-training: {days:.1} days");
    // Under default pruning every evaluated candidate is feasible, so
    // there is exactly one number to report.
    println!(
        "\nEvaluated {} feasible candidates; top plans and Pareto frontier:",
        plans.feasible
    );
    println!(
        "{}",
        plans
            .to_artifact("quickstart", "GPT3-1T @ 1024 B200 plans")
            .render()
    );
}
