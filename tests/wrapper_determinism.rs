//! Pre-planner pins: the `Planner`'s single-optimum query
//! (`best_evaluation`) and its full sweep (`include_infeasible(true)
//! .evaluations()`, stably sorted by time) are pinned **bit-identical**
//! to the free-function search that preceded the planner. The constants
//! below were captured from those code paths immediately before the
//! planner landed (commit c598d8d's `evaluate_candidates`) on the
//! GPT3-175B, MoE-1T and ViT-SUMMA presets — any drift in enumeration
//! order, pruning or placement selection shows up as a bit mismatch
//! here.

use fmperf::prelude::*;
use perfmodel::ord::time_cmp;

struct Pin {
    name: &'static str,
    model: TransformerConfig,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
    // best_evaluation(): selected configuration + exact result bits.
    config: (u64, u64, u64, u64, u64, u64), // (n1, n2, np, nd, ep, bm)
    placement: (u64, u64, u64, u64),        // (v1, v2, vp, vd)
    iter_time_bits: u64,
    memory_total_bits: u64,
    // Sorted full sweep: size, fastest entry, FNV fold of every entry.
    sweep_len: usize,
    sweep_first_bits: u64,
    sweep_fold: u64,
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            name: "GPT3-175B @ 512 B200 (1D)",
            model: gpt3_175b().config,
            gpus: 512,
            global_batch: 1024,
            strategy: TpStrategy::OneD,
            config: (2, 1, 8, 32, 1, 1),
            placement: (2, 1, 1, 4),
            iter_time_bits: 0x4005d94b1dcd9261,
            memory_total_bits: 0x423656e1e0000000,
            sweep_len: 165,
            sweep_first_bits: 0x3ffe104cfc6f6936,
            sweep_fold: 0x81e6fdb69adfc7a4,
        },
        Pin {
            name: "MoE-1T @ 256 B200 (1D)",
            model: moe_1t().config,
            gpus: 256,
            global_batch: 4096,
            strategy: TpStrategy::OneD,
            config: (1, 1, 32, 8, 4, 2),
            placement: (1, 1, 2, 4),
            iter_time_bits: 0x400aa45a4bbd1efe,
            memory_total_bits: 0x423f74c904000000,
            sweep_len: 735,
            sweep_first_bits: 0x4005c57f4ab14905,
            sweep_fold: 0x3dc69baa8299b1be,
        },
        Pin {
            name: "ViT-64K @ 256 B200 (SUMMA)",
            model: vit_64k().config,
            gpus: 256,
            global_batch: 4096,
            strategy: TpStrategy::Summa,
            config: (4, 2, 4, 8, 1, 1),
            placement: (4, 2, 1, 1),
            iter_time_bits: 0x40800072738b3b92,
            memory_total_bits: 0x42453caa80000000,
            sweep_len: 2475,
            sweep_first_bits: 0x407bfc1b628b48af,
            sweep_fold: 0xb695f058bc817894,
        },
    ]
}

fn planner<'a>(p: &'a Pin, sys: &'a SystemSpec) -> Planner<'a> {
    Planner::new(&p.model, sys)
        .gpus(p.gpus)
        .global_batch(p.global_batch)
        .strategy(p.strategy)
}

#[test]
fn optimize_wrapper_is_bit_identical_to_pre_refactor() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    for p in pins() {
        let e = planner(&p, &sys).best_evaluation().expect(p.name);
        let c = &e.config;
        assert_eq!(
            (c.n1, c.n2, c.np, c.nd, c.ep, c.microbatch),
            p.config,
            "{}: configuration moved",
            p.name
        );
        let pl = &e.placement;
        assert_eq!((pl.v1, pl.v2, pl.vp, pl.vd), p.placement, "{}", p.name);
        assert_eq!(
            e.iteration_time.to_bits(),
            p.iter_time_bits,
            "{}: iteration time drifted ({} vs pinned {})",
            p.name,
            e.iteration_time,
            f64::from_bits(p.iter_time_bits)
        );
        assert_eq!(
            e.memory.total().to_bits(),
            p.memory_total_bits,
            "{}: memory accounting drifted",
            p.name
        );
    }
}

#[test]
fn sweep_wrapper_is_bit_identical_to_pre_refactor() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    for p in pins() {
        // Stable sort: equal iteration times keep enumeration order.
        let mut sweep = planner(&p, &sys).include_infeasible(true).evaluations();
        sweep.sort_by(|a, b| time_cmp(a.iteration_time, b.iteration_time));
        assert_eq!(sweep.len(), p.sweep_len, "{}: candidate count", p.name);
        assert_eq!(
            sweep[0].iteration_time.to_bits(),
            p.sweep_first_bits,
            "{}: fastest sweep entry drifted",
            p.name
        );
        // FNV-1a fold over every entry's iteration-time bits, in sweep
        // order: pins the whole vector (values *and* ordering), not just
        // its head.
        let fold = sweep.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, ev| {
            (h ^ ev.iteration_time.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(fold, p.sweep_fold, "{}: sweep fold drifted", p.name);
    }
}
