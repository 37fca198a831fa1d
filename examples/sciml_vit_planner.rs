//! Scientific-ML planner: training a long-sequence ViT foundation model
//! on 40 years of hourly ERA5 weather data (the paper's SciML case).
//!
//! Demonstrates the paper's central contrast: the 64800-token sequence
//! makes 1D tensor parallelism memory-infeasible on every GPU, forces 4D
//! parallelism with 2D TP, and places uniform pressure on NVS domain size
//! and HBM capacity across scales.
//!
//! Run: `cargo run --release --example sciml_vit_planner`.

#![allow(clippy::unwrap_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use report::Table;

fn main() {
    let model = vit_64k();
    let workload = TrainingWorkload::vit_era5_training();
    println!(
        "{}: l={}, e={}, d={} — {:.1}B parameters, MLP:S/A FLOP ratio {:.2}",
        model.name,
        model.config.seq_len,
        model.config.embed,
        model.config.depth,
        model.config.total_params() as f64 / 1e9,
        model.config.mlp_to_sa_flop_ratio(),
    );

    // 1) The 1D TP wall: the planner sweeps both strategies in one space;
    //    every feasible plan is 2D.
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let both = Planner::new(&model.config, &sys)
        .gpus(4096)
        .global_batch(4096)
        .strategies([TpStrategy::OneD, TpStrategy::TwoD])
        .include_infeasible(true) // count the whole space, incl. the 1D corners that overflow HBM
        .top_k(usize::MAX) // rank the whole feasible pool: the claim below is "every plan"
        .execute();
    let oned_feasible = both
        .top
        .iter()
        .any(|p| p.eval.config.strategy == TpStrategy::OneD);
    println!(
        "\n1D TP on 4096 B200: {}",
        if oned_feasible {
            "feasible (unexpected!)".to_string()
        } else {
            format!(
                "NO feasible configuration among {} candidates — replicated (b,l,e) \
                 activations overflow HBM; every one of the {} feasible plans is 2D",
                both.candidates, both.feasible
            )
        }
    );

    // 2) 2D TP scaling (Fig. 4b view).
    println!("\n2D TP optimal configurations (B200-NVS8):");
    let mut table = Table::new([
        "gpus",
        "grid n1×n2",
        "np",
        "nd",
        "iter (s)",
        "days",
        "HBM (GB)",
        "TP comm %",
    ]);
    for n in [512u64, 2048, 8192, 16384] {
        let plans = Planner::new(&model.config, &sys)
            .gpus(n)
            .global_batch(4096)
            .strategy(TpStrategy::TwoD)
            .objective(Objective::training_days(&workload))
            .top_k(1)
            .execute();
        if let Some(p) = plans.best() {
            table.push([
                n.to_string(),
                format!("{}×{}", p.eval.config.n1, p.eval.config.n2),
                p.eval.config.np.to_string(),
                p.eval.config.nd.to_string(),
                format!("{:.2}", p.eval.iteration_time),
                format!(
                    "{:.2}",
                    p.score(&Objective::training_days(&workload)).unwrap()
                ),
                format!("{:.0}", p.eval.memory.total_gb()),
                format!(
                    "{:.0}",
                    100.0 * p.eval.breakdown.tp_comm / p.eval.iteration_time
                ),
            ]);
        }
    }
    println!("{}", table.render());

    // 3) NVS sensitivity is uniform across scales for this model class.
    println!("NVS domain sensitivity (iteration-time ratio NVS4 / NVS64):");
    for n in [1024u64, 4096, 16384] {
        let t = |nvs: NvsSize| {
            let sys = system(GpuGeneration::B200, nvs);
            Planner::new(&model.config, &sys)
                .gpus(n)
                .global_batch(4096)
                .strategy(TpStrategy::TwoD)
                .top_k(1)
                .execute()
                .best()
                .map(|p| p.eval.iteration_time)
        };
        if let (Some(t4), Some(t64)) = (t(NvsSize::Nvs4), t(NvsSize::Nvs64)) {
            println!("  n = {n:>6}: {:.2}×", t4 / t64);
        }
    }

    // 4) The paper's Outlook: linear attention removes the l² term and
    // with it most of the pressure.
    let lin = txmodel::vit_64k_linear_attention();
    let best_of = |cfg: &TransformerConfig| {
        Planner::new(cfg, &sys)
            .gpus(4096)
            .global_batch(4096)
            .strategy(TpStrategy::TwoD)
            .top_k(1)
            .execute()
            .best()
            .map(|p| p.eval.iteration_time)
    };
    if let (Some(linear), Some(quad)) = (best_of(&lin.config), best_of(&model.config)) {
        println!(
            "\nLinear-attention variant on 4096 B200: {linear:.2}s/iter vs {quad:.2}s quadratic ({:.1}× faster)",
            quad / linear
        );
    }
}
