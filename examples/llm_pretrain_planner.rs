//! LLM pre-training planner: how long does a 1-trillion-parameter GPT
//! pre-training run (1T tokens) take across GPU generations, scales and
//! NVS domain sizes — and which parallelization should each use?
//!
//! This is the paper's headline use case (Fig. 5a) as a planning tool,
//! built on the `Planner` API: one multi-scale space per system, ranked
//! by full-run training days. Run
//! `cargo run --release --example llm_pretrain_planner`.

#![allow(clippy::unwrap_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use report::Table;

fn main() {
    let model = gpt3_1t();
    let workload = TrainingWorkload::gpt3_1t_pretraining();
    println!(
        "Planning {} pre-training: {:.0} iterations at global batch {}\n",
        model.name, workload.iterations, workload.global_batch
    );

    let mut table = Table::new([
        "system",
        "gpus",
        "config",
        "m",
        "iter (s)",
        "days",
        "HBM (GB)",
        "compute %",
    ]);
    for gen in [
        GpuGeneration::A100,
        GpuGeneration::H200,
        GpuGeneration::B200,
    ] {
        for nvs in [NvsSize::Nvs8, NvsSize::Nvs64] {
            let sys = system(gen, nvs);
            for n in [2048u64, 8192, 16384] {
                let plans = Planner::new(&model.config, &sys)
                    .gpus(n)
                    .global_batch(4096)
                    .strategy(TpStrategy::OneD)
                    .objective(Objective::training_days(&workload))
                    .top_k(1)
                    .execute();
                match plans.best() {
                    Some(p) => table.push([
                        sys.name.clone(),
                        n.to_string(),
                        format!(
                            "TP{} PP{} DP{}",
                            p.eval.config.tensor_parallel(),
                            p.eval.config.np,
                            p.eval.config.nd
                        ),
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
                        sys.name.clone(),
                        n.to_string(),
                        "infeasible".into(),
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

    // Strategy comparison at pre-training scale (the paper's Fig. A4
    // takeaway: 2D variants buy ~5–30% depending on the regime): one
    // single-strategy planner per variant, so the per-strategy optima are
    // directly comparable.
    println!("Strategy comparison on 16384 GPUs:");
    for gen in [GpuGeneration::A100, GpuGeneration::B200] {
        let sys = system(gen, NvsSize::Nvs8);
        let t = |s: TpStrategy| {
            Planner::new(&model.config, &sys)
                .gpus(16384)
                .global_batch(4096)
                .strategy(s)
                .top_k(1)
                .execute()
                .best()
                .map(|p| p.eval.iteration_time)
        };
        if let (Some(t1), Some(t2), Some(ts)) = (
            t(TpStrategy::OneD),
            t(TpStrategy::TwoD),
            t(TpStrategy::Summa),
        ) {
            println!(
                "  {:>10}: 1D {:6.2}s | 2D {:6.2}s ({:+.1}%) | SUMMA {:6.2}s ({:+.1}%)",
                sys.name,
                t1,
                t2,
                100.0 * (t1 / t2 - 1.0),
                ts,
                100.0 * (t1 / ts - 1.0),
            );
        }
    }
}
