//! Hardware sensitivity: which system parameter should the next machine
//! improve for each model class? Computes elasticities — % change in
//! optimal iteration time per % change in each hardware axis — with the
//! full design-space search re-run at every probe, so configuration
//! re-balancing is included (the differential version of Figs. A5/A6).
//!
//! Run: `cargo run --release --example hardware_sensitivity`.

#![allow(clippy::unwrap_used, reason = "an example aborts on a failed query")]

use fmperf::prelude::*;
use perfmodel::{elasticities, HardwareAxis};
use report::{hbar, Table};

fn main() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let cases = [
        ("GPT3-1T (1D TP)", gpt3_1t().config, TpStrategy::OneD),
        ("ViT-64K (2D TP)", vit_64k().config, TpStrategy::TwoD),
    ];
    for n in [2048u64, 16384] {
        println!("=== {} GPUs on {} ===\n", n, sys.name);
        let mut table = Table::new(["axis", "GPT3-1T", "", "ViT-64K", ""]);
        let mut per_model = Vec::new();
        for (_, model, strategy) in &cases {
            let space = SearchSpace::new()
                .gpus(n)
                .global_batch(4096)
                .strategy(*strategy);
            let es = elasticities(model, &sys, &space, 0.25);
            per_model.push(es);
        }
        let max_mag = per_model
            .iter()
            .flatten()
            .flatten()
            .map(|e| e.value.abs())
            .filter(|v| v.is_finite())
            .fold(0.0f64, f64::max);
        for axis in HardwareAxis::ALL {
            let cell = |i: usize| -> (String, String) {
                match &per_model[i] {
                    Some(es) => {
                        let v = es.iter().find(|e| e.axis == axis).unwrap().value;
                        if v.is_finite() {
                            (format!("{v:+.3}"), hbar(v.abs(), max_mag, 16))
                        } else {
                            ("hard constraint".into(), String::new())
                        }
                    }
                    None => ("infeasible".into(), String::new()),
                }
            };
            let (g, gb) = cell(0);
            let (v, vb) = cell(1);
            table.push([axis.name().to_string(), g, gb, v, vb]);
        }
        println!("{}", table.render());
    }
    println!(
        "Reading: −1.0 = perfectly bound by this axis, 0 = insensitive. The paper's\n\
         takeaway appears directly: the LLM is FLOP-bound at scale; the long-sequence\n\
         ViT additionally leans on the interconnect and HBM."
    );
}
