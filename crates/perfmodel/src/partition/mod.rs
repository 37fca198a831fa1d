//! Stage S1: per-layer operation census under each tensor-parallel
//! strategy (paper Tables I, II and A2).
//!
//! Each submodule builds a [`crate::plan::LayerProfile`] for one
//! transformer block and one microbatch: the device-local roofline times,
//! the communication patterns with their volumes and groups, the stored
//! activation bytes and the weight shard sizes.

pub mod cache;
mod common;
pub mod summa;
pub mod tp1d;
pub mod tp2d;

pub use cache::{reset_search_stats, search_stats, ProfileCache, ProfileKey, SearchStats};
pub use common::{FLASH_BWD_FACTOR, GEMM_BWD_FACTOR, VECTOR_BWD_FACTOR};

use crate::config::TpStrategy;
use crate::plan::LayerProfile;
use systems::GpuSpec;
use txmodel::TransformerConfig;

/// Builds the placement-independent layer profile for one microbatch of
/// size `bm` under `(strategy, n1, n2)` with `nb` SUMMA panels and `ep`
/// expert-parallel GPUs (1 for dense models; MoE is supported under 1D TP
/// only).
///
/// Divisibility must have been checked via
/// [`crate::ParallelConfig::validate`]; this function debug-asserts it.
#[expect(clippy::too_many_arguments, reason = "mirrors the ParallelConfig axes")]
pub fn build_profile(
    model: &TransformerConfig,
    strategy: TpStrategy,
    n1: u64,
    n2: u64,
    bm: u64,
    nb: u64,
    ep: u64,
    gpu: &GpuSpec,
) -> LayerProfile {
    debug_assert_eq!(model.heads % n1, 0);
    debug_assert_eq!(model.embed % n1, 0);
    debug_assert_eq!(model.hidden % n1, 0);
    debug_assert_eq!(model.seq_len % (n1 * n2), 0);
    match strategy {
        TpStrategy::OneD => {
            debug_assert_eq!(n2, 1, "1D TP uses a single tensor dimension");
            tp1d::build(model, n1, bm, ep, gpu)
        }
        TpStrategy::TwoD => {
            debug_assert_eq!(ep, 1, "MoE/expert parallelism requires 1D TP");
            tp2d::build(model, n1, n2, bm, gpu)
        }
        TpStrategy::Summa => {
            debug_assert_eq!(ep, 1, "MoE/expert parallelism requires 1D TP");
            summa::build(model, n1, n2, bm, nb, gpu)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::GpuGeneration;
    use txmodel::{gpt3_1t, vit_64k};

    fn gpu() -> GpuSpec {
        GpuGeneration::B200.gpu()
    }

    #[test]
    fn strategies_agree_on_unpartitioned_compute() {
        // With n1 = n2 = 1 all strategies perform identical local work
        // (SUMMA with nb = 1 adds no panel overhead and no comm).
        let m = gpt3_1t().config;
        let g = gpu();
        let a = build_profile(&m, TpStrategy::OneD, 1, 1, 1, 1, 1, &g);
        let b = build_profile(&m, TpStrategy::TwoD, 1, 1, 1, 1, 1, &g);
        let c = build_profile(&m, TpStrategy::Summa, 1, 1, 1, 1, 1, &g);
        let t = a.local_time();
        assert!((b.local_time() - t).abs() / t < 1e-9);
        assert!((c.local_time() - t).abs() / t < 1e-9);
        assert!(a.fwd.comms.is_empty());
        assert!(b.fwd.comms.is_empty());
    }

    #[test]
    fn compute_scales_inverse_with_tp() {
        // Per-GPU GEMM FLOPs shrink with nt; times should shrink
        // accordingly (modulo the fixed launch latencies).
        let m = gpt3_1t().config;
        let g = gpu();
        let p1 = build_profile(&m, TpStrategy::OneD, 1, 1, 1, 1, 1, &g);
        let p8 = build_profile(&m, TpStrategy::OneD, 8, 1, 1, 1, 1, &g);
        assert!(p8.local_time() < p1.local_time() / 4.0);
    }

    #[test]
    fn tp_volume_is_independent_of_nt_in_1d() {
        // Paper Table I: 1D TP communication volume (b·l·e) does not scale
        // with nt.
        let m = gpt3_1t().config;
        let g = gpu();
        let sum_vol = |p: &LayerProfile| -> f64 {
            p.fwd
                .comms
                .iter()
                .map(|c| match c {
                    crate::plan::CommPattern::Exposed { volume, .. } => *volume,
                    _ => 0.0,
                })
                .sum()
        };
        let p4 = build_profile(&m, TpStrategy::OneD, 4, 1, 1, 1, 1, &g);
        let p16 = build_profile(&m, TpStrategy::OneD, 16, 1, 1, 1, 1, &g);
        let (v4, v16) = (sum_vol(&p4), sum_vol(&p16));
        assert!((v4 - v16).abs() / v4 < 1e-12, "v4 {v4} v16 {v16}");
    }

    #[test]
    fn vit_1d_stores_more_activation_than_2d() {
        // The replicated (b, l, e) tensors make 1D TP memory-infeasible
        // for the long-sequence ViT (paper Q2(iv)).
        let m = vit_64k().config;
        let g = gpu();
        let p1d = build_profile(&m, TpStrategy::OneD, 16, 1, 1, 1, 1, &g);
        let p2d = build_profile(&m, TpStrategy::TwoD, 4, 4, 1, 1, 1, &g);
        assert!(p1d.stored_activation_bytes > 1.5 * p2d.stored_activation_bytes);
    }

    #[test]
    fn summa_weights_are_fully_sharded() {
        let m = gpt3_1t().config;
        let g = gpu();
        let p2d = build_profile(&m, TpStrategy::TwoD, 4, 4, 1, 1, 1, &g);
        let ps = build_profile(&m, TpStrategy::Summa, 4, 4, 1, 4, 1, &g);
        assert!(
            ps.weight_bytes < p2d.weight_bytes,
            "SUMMA {} 2D {}",
            ps.weight_bytes,
            p2d.weight_bytes
        );
    }
}
