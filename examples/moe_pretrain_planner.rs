//! MoE pre-training planner: what does sparsely-activated (Mixture-of-
//! Experts) training cost across scales, and which `(tp, pp, dp, ep)`
//! split should each scale use?
//!
//! The workload-breadth companion of `llm_pretrain_planner`: the same
//! S3-style search through the `Planner` API, over MoE presets whose
//! expert layers add an expert-parallel degree (`ep`) and AllToAll
//! dispatch/combine to the design space. The expert-parallelism ablation
//! uses the space's declarative `max_expert_parallel` bound. Run:
//! `cargo run --release --example moe_pretrain_planner`.

#![allow(clippy::unwrap_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use report::Table;

fn main() {
    let workload = TrainingWorkload::gpt3_1t_pretraining();
    println!(
        "Planning MoE pre-training: {:.0} iterations at global batch {}\n",
        workload.iterations, workload.global_batch
    );

    let mut table = Table::new([
        "model",
        "system",
        "gpus",
        "config",
        "ep",
        "m",
        "iter (s)",
        "days",
        "HBM (GB)",
        "compute %",
    ]);
    for preset in [moe_1t(), gpt3_175b_moe()] {
        for nvs in [NvsSize::Nvs8, NvsSize::Nvs64] {
            let sys = system(GpuGeneration::B200, nvs);
            for n in [512u64, 2048, 8192] {
                let plans = Planner::new(&preset.config, &sys)
                    .gpus(n)
                    .global_batch(4096)
                    .strategy(TpStrategy::OneD)
                    .objective(Objective::training_days(&workload))
                    .top_k(1)
                    .execute();
                match plans.best() {
                    Some(p) => table.push([
                        preset.name.to_string(),
                        sys.name.clone(),
                        n.to_string(),
                        format!(
                            "TP{} PP{} DP{}",
                            p.eval.config.tensor_parallel(),
                            p.eval.config.np,
                            p.eval.config.nd
                        ),
                        p.eval.config.ep.to_string(),
                        p.eval.microbatches.to_string(),
                        format!("{:.2}", p.eval.iteration_time),
                        format!(
                            "{:.1}",
                            p.score(&Objective::training_days(&workload)).unwrap()
                        ),
                        format!("{:.0}", p.eval.memory.total_gb()),
                        format!("{:.0}", 100.0 * p.eval.breakdown.compute_fraction()),
                    ]),
                    None => table.push([
                        preset.name.to_string(),
                        sys.name.clone(),
                        n.to_string(),
                        "infeasible".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]),
                }
            }
        }
    }
    println!("{}", table.render());

    // How much does the expert-parallel dimension actually buy? Re-run
    // the search with ep bounded to 1 (experts fully replicated within
    // each DP rank) and compare.
    println!("Expert parallelism ablation (MoE-1T, B200-NVS8, batch 4096):");
    let model = moe_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    for n in [512u64, 2048] {
        let planner = Planner::new(&model, &sys)
            .gpus(n)
            .global_batch(4096)
            .strategy(TpStrategy::OneD)
            .top_k(1);
        let best = planner.clone().execute();
        let no_ep = planner.with_space(|s| s.max_expert_parallel(1)).execute();
        match (best.best(), no_ep.best()) {
            (Some(b), Some(r)) => println!(
                "  {n:>5} GPUs: ep={:<3} {:.2}s/iter vs ep=1 {:.2}s/iter ({:+.1}%)",
                b.eval.config.ep,
                b.eval.iteration_time,
                r.eval.iteration_time,
                100.0 * (r.eval.iteration_time / b.eval.iteration_time - 1.0),
            ),
            (Some(b), None) => println!(
                "  {n:>5} GPUs: ep={} {:.2}s/iter; ep=1 infeasible (expert weights \
                 overflow HBM without expert sharding)",
                b.eval.config.ep, b.eval.iteration_time,
            ),
            _ => println!("  {n:>5} GPUs: infeasible"),
        }
    }
}
