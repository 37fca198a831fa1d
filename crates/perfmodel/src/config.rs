//! Parallelization configurations and NVS-domain placements (the paper's
//! design-space coordinates).

use collectives::Algorithm;
use serde::{Deserialize, Serialize};
use txmodel::TransformerConfig;

/// Tensor-parallel strategy (paper Tables I, II, A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TpStrategy {
    /// 1D tensor parallelism (Megatron-style, Table I). `n2` must be 1.
    OneD,
    /// 2D tensor parallelism / context parallelism (Table II): `l` is
    /// additionally split over `n2`; weights replicated across `n2`.
    TwoD,
    /// 2D tensor parallelism with SUMMA distributed matmuls (Table A2):
    /// no replicated weights; broadcast-based panel algorithm with `nb`
    /// panels per GEMM.
    Summa,
}

impl TpStrategy {
    /// Name used in figure legends.
    pub fn name(self) -> &'static str {
        match self {
            TpStrategy::OneD => "1D TP",
            TpStrategy::TwoD => "2D TP",
            TpStrategy::Summa => "2D TP SUMMA",
        }
    }

    /// All strategies, in paper order.
    pub const ALL: [TpStrategy; 3] = [TpStrategy::OneD, TpStrategy::TwoD, TpStrategy::Summa];
}

/// A complete parallelization configuration: the 4D GPU grid
/// `n = n1·n2·np·nd`, the microbatch size `bm`, and (for SUMMA) the panel
/// count `nb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Tensor-parallel strategy.
    pub strategy: TpStrategy,
    /// First tensor-parallel dimension (weights/heads/hidden).
    pub n1: u64,
    /// Second tensor-parallel dimension (sequence); 1 for 1D TP.
    pub n2: u64,
    /// Pipeline-parallel stages (must divide model depth).
    pub np: u64,
    /// Data-parallel replicas (must divide the global batch).
    pub nd: u64,
    /// Expert-parallel degree: `ep` GPUs *inside* the data-parallel
    /// dimension share one copy of each MoE layer's expert set (so the
    /// grid stays `n = n1·n2·np·nd` and `ep | nd`; each GPU hosts `E/ep`
    /// experts and expert gradients synchronize over the `nd/ep`
    /// replicas). Must be 1 for dense models; MoE requires 1D TP.
    pub ep: u64,
    /// Microbatch size in samples (must divide the local batch `b/nd`).
    pub microbatch: u64,
    /// SUMMA panel count per GEMM (ignored for non-SUMMA strategies).
    pub summa_panels: u64,
    /// Interleaved-pipeline virtual stages per GPU (paper Limitations:
    /// "interleaved pipeline schedules can drop bubble time further").
    /// 1 = the paper's non-interleaved 1F1B baseline; `v > 1` divides the
    /// bubble by `v` at the cost of `v×` point-to-point traffic and
    /// slightly higher activation memory. Must divide the layers per
    /// stage `d/np`.
    pub interleave: u64,
    /// ZeRO-3-style weight/gradient sharding over the data-parallel group
    /// (paper Limitations: "weights (and gradients) can also be
    /// partitioned using DP at the cost of higher communication").
    /// Shrinks weight+gradient memory by `nd` but re-gathers weights
    /// every microbatch.
    pub zero3: bool,
    /// AllReduce algorithm policy (NCCL-style `NCCL_ALGO` selection) used
    /// when pricing the data-parallel gradient synchronization and any
    /// exposed AllReduce pattern. [`Algorithm::Auto`] — the default, and
    /// what NCCL's autotuner does — picks the fastest of
    /// ring/tree/hierarchical per collective; AG/RS/Broadcast/Reduce
    /// always run rings (as in NCCL).
    pub comm_algo: Algorithm,
}

impl ParallelConfig {
    /// Convenience constructor with `nb = 1`.
    pub fn new(strategy: TpStrategy, n1: u64, n2: u64, np: u64, nd: u64, microbatch: u64) -> Self {
        Self {
            strategy,
            n1,
            n2,
            np,
            nd,
            ep: 1,
            microbatch,
            summa_panels: 1,
            interleave: 1,
            zero3: false,
            comm_algo: Algorithm::Auto,
        }
    }

    /// Builder-style expert-parallel degree (MoE models; see
    /// [`Self::ep`]).
    pub fn with_ep(mut self, ep: u64) -> Self {
        self.ep = ep;
        self
    }

    /// Total GPUs `n = n1·n2·np·nd`.
    pub fn total_gpus(&self) -> u64 {
        self.n1 * self.n2 * self.np * self.nd
    }

    /// Total tensor-parallel degree `nt = n1·n2`.
    pub fn tensor_parallel(&self) -> u64 {
        self.n1 * self.n2
    }

    /// Number of microbatches `m = (b/nd)/bm` for a global batch `b`.
    pub fn num_microbatches(&self, global_batch: u64) -> u64 {
        global_batch / self.nd / self.microbatch
    }

    /// Checks every divisibility constraint of the paper's search (S3),
    /// extended with the expert-parallel constraints: parallel degrees
    /// must evenly divide the tensor dimensions they partition, `np | d`,
    /// `nd | b`, `bm | b/nd`, and for MoE models `ep | nd` and
    /// `ep | experts` (dense models require `ep = 1`).
    pub fn validate(&self, model: &TransformerConfig, global_batch: u64) -> Result<(), String> {
        let Self {
            strategy,
            n1,
            n2,
            np,
            nd,
            ep,
            microbatch,
            summa_panels,
            interleave,
            ..
        } = *self;
        if n1 == 0
            || n2 == 0
            || np == 0
            || nd == 0
            || ep == 0
            || microbatch == 0
            || summa_panels == 0
            || interleave == 0
        {
            return Err("all configuration factors must be positive".into());
        }
        if strategy == TpStrategy::OneD && n2 != 1 {
            return Err(format!("1D TP requires n2 = 1, got {n2}"));
        }
        match model.moe {
            None => {
                if ep != 1 {
                    return Err(format!(
                        "expert parallelism (ep = {ep}) requires an MoE model"
                    ));
                }
            }
            Some(moe) => {
                // Re-check the MoeConfig invariants here: `with_moe`
                // enforces them at construction, but the fields are
                // public and Deserialize, so a hand-edited or cached
                // JSON config can bypass the builder.
                if moe.experts < 2 {
                    return Err(format!(
                        "an MoE model needs at least 2 experts, got {}",
                        moe.experts
                    ));
                }
                if moe.top_k == 0 || moe.top_k > moe.experts {
                    return Err(format!(
                        "top_k ({}) must be in 1..=experts ({})",
                        moe.top_k, moe.experts
                    ));
                }
                if moe.capacity_pct < 100 {
                    return Err(format!(
                        "capacity factor below 1.0 ({}%) would drop tokens structurally",
                        moe.capacity_pct
                    ));
                }
                if strategy != TpStrategy::OneD {
                    return Err(format!(
                        "MoE models support 1D TP only, got {}",
                        strategy.name()
                    ));
                }
                if !nd.is_multiple_of(ep) {
                    return Err(format!("ep ({ep}) must divide nd ({nd})"));
                }
                if !moe.experts.is_multiple_of(ep) {
                    return Err(format!(
                        "ep ({ep}) must divide the expert count ({})",
                        moe.experts
                    ));
                }
            }
        }
        if !model.depth.is_multiple_of(np) {
            return Err(format!("np ({np}) must divide depth ({})", model.depth));
        }
        if !(model.depth / np).is_multiple_of(interleave) {
            return Err(format!(
                "interleave ({interleave}) must divide layers per stage ({})",
                model.depth / np
            ));
        }
        if !global_batch.is_multiple_of(nd) {
            return Err(format!(
                "nd ({nd}) must divide global batch ({global_batch})"
            ));
        }
        let local_batch = global_batch / nd;
        if !local_batch.is_multiple_of(microbatch) {
            return Err(format!(
                "microbatch ({microbatch}) must divide local batch ({local_batch})"
            ));
        }
        // Tensor-dimension divisibility. All strategies shard heads, embed
        // and hidden over n1; the sequence is sharded over nt = n1·n2 at
        // the residual stream.
        let checks: &[(u64, u64, &str)] = &[
            (model.heads, n1, "heads % n1"),
            (model.embed, n1, "embed % n1"),
            (model.hidden, n1, "hidden % n1"),
            (model.seq_len, n1 * n2, "seq_len % (n1*n2)"),
        ];
        for &(dim, div, what) in checks {
            if dim % div != 0 {
                return Err(format!("{what} != 0 (dim {dim}, divisor {div})"));
            }
        }
        if strategy != TpStrategy::OneD && !model.seq_len.is_multiple_of(n2) {
            return Err(format!("n2 ({n2}) must divide seq_len ({})", model.seq_len));
        }
        if strategy == TpStrategy::Summa {
            // SUMMA shards weight rows over n2 as well: W_Q (e/n2, e/n1),
            // W_1 (e/n2, f/n1), W_2 (f/n2, e/n1).
            if !model.embed.is_multiple_of(n2) || !model.hidden.is_multiple_of(n2) {
                return Err(format!(
                    "SUMMA requires n2 ({n2}) to divide embed and hidden"
                ));
            }
            if !model.embed.is_multiple_of(summa_panels) {
                return Err(format!(
                    "SUMMA panel count ({summa_panels}) must divide embed ({})",
                    model.embed
                ));
            }
        }
        Ok(())
    }
}

/// GPU-to-NVS-domain assignment (paper S3 "GPU assignment
/// configurations"): how many GPUs of each parallel group share one
/// NVSwitch domain. The product `v1·v2·vp·vd` is the number of GPUs
/// co-located per domain and may not exceed the domain size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    /// GPUs of the `n1` group per domain.
    pub v1: u64,
    /// GPUs of the `n2` group per domain.
    pub v2: u64,
    /// GPUs of the `np` group per domain.
    pub vp: u64,
    /// GPUs of the `nd` group per domain.
    pub vd: u64,
}

impl Placement {
    /// Everything on separate domains (worst case placement).
    pub fn trivial() -> Self {
        Self {
            v1: 1,
            v2: 1,
            vp: 1,
            vd: 1,
        }
    }

    /// GPUs co-located per NVS domain under this placement.
    pub fn gpus_per_domain(&self) -> u64 {
        self.v1 * self.v2 * self.vp * self.vd
    }

    /// Checks compatibility with a configuration and an NVS domain size.
    pub fn validate(&self, cfg: &ParallelConfig, nvs_size: u64) -> Result<(), String> {
        let pairs = [
            (self.v1, cfg.n1, "v1|n1"),
            (self.v2, cfg.n2, "v2|n2"),
            (self.vp, cfg.np, "vp|np"),
            (self.vd, cfg.nd, "vd|nd"),
        ];
        for (v, n, what) in pairs {
            if v == 0 {
                return Err("placement factors must be positive".into());
            }
            if n % v != 0 {
                return Err(format!("{what} violated ({v} does not divide {n})"));
            }
        }
        if self.gpus_per_domain() > nvs_size {
            return Err(format!(
                "placement packs {} GPUs into a domain of {nvs_size}",
                self.gpus_per_domain()
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (n1={}, n2={}, np={}, nd={}, bm={}",
            self.strategy.name(),
            self.n1,
            self.n2,
            self.np,
            self.nd,
            self.microbatch
        )?;
        if self.ep > 1 {
            write!(f, ", ep={}", self.ep)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmodel::gpt3_1t;

    fn gpt() -> TransformerConfig {
        gpt3_1t().config
    }

    #[test]
    fn fig1_config_d_is_valid() {
        // Fig. 1 config D: (m, nt, nd, np) = (128, 8, 32, 64) on 16384
        // GPUs at batch 4096, bm = 1.
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        assert_eq!(cfg.total_gpus(), 16384);
        cfg.validate(&gpt(), 4096).unwrap();
        assert_eq!(cfg.num_microbatches(4096), 128);
    }

    #[test]
    fn oned_rejects_n2() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 2, 64, 32, 1);
        assert!(cfg.validate(&gpt(), 4096).is_err());
    }

    #[test]
    fn np_must_divide_depth() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 3, 32, 1);
        assert!(cfg.validate(&gpt(), 4096).unwrap_err().contains("depth"));
    }

    #[test]
    fn nd_must_divide_batch() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 3, 1);
        assert!(cfg
            .validate(&gpt(), 4096)
            .unwrap_err()
            .contains("global batch"));
    }

    #[test]
    fn microbatch_must_divide_local_batch() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 3);
        assert!(cfg
            .validate(&gpt(), 4096)
            .unwrap_err()
            .contains("local batch"));
    }

    #[test]
    fn vit_rejects_nt_64_for_1d() {
        // l = 64800 is not divisible by 64 — the constraint that makes 1D
        // TP cap out at nt=32 for the ViT (see DESIGN.md).
        let vit = txmodel::vit_64k().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 64, 1, 48, 1, 1);
        assert!(cfg.validate(&vit, 4096).is_err());
        let cfg32 = ParallelConfig::new(TpStrategy::OneD, 32, 1, 48, 1, 1);
        // 32 divides l, h, e, f — but n = 32*48 isn't relevant to validate.
        cfg32.validate(&vit, 4096).unwrap();
    }

    #[test]
    fn summa_requires_n2_weight_divisibility() {
        let gpt = gpt();
        let mut cfg = ParallelConfig::new(TpStrategy::Summa, 8, 4, 1, 512, 8);
        cfg.summa_panels = 4;
        cfg.validate(&gpt, 4096).unwrap();
        // n2 = 3 does not divide e = 25600.
        let bad = ParallelConfig { n2: 3, ..cfg };
        assert!(bad.validate(&gpt, 4096).is_err());
    }

    #[test]
    fn placement_validation() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let p = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        p.validate(&cfg, 8).unwrap();
        assert!(p.validate(&cfg, 4).is_err()); // 8 GPUs into NVS4
        let bad = Placement {
            v1: 3,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        assert!(bad.validate(&cfg, 8).is_err()); // 3 ∤ 8
    }

    #[test]
    fn comm_algo_defaults_to_auto_and_round_trips() {
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        assert_eq!(cfg.comm_algo, Algorithm::Auto);
        for comm_algo in Algorithm::ALL {
            let c = ParallelConfig { comm_algo, ..cfg };
            c.validate(&gpt(), 4096).unwrap();
            let back: ParallelConfig =
                serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn expert_parallel_fields_round_trip() {
        // The ep dimension sweep, in the Algorithm::ALL style: every
        // valid ep of the MoE preset's nd divisors must survive JSON
        // with the full struct intact (a silently-dropped field here
        // would corrupt cached sweep artifacts).
        let moe = txmodel::moe_1t().config;
        let base = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1);
        for ep in [1u64, 2, 4, 8, 16] {
            let c = base.with_ep(ep);
            c.validate(&moe, 4096).unwrap();
            let json = serde_json::to_string(&c).unwrap();
            assert!(json.contains("\"ep\""), "ep field missing from {json}");
            let back: ParallelConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.ep, ep);
        }
    }

    #[test]
    fn display_format() {
        let cfg = ParallelConfig::new(TpStrategy::TwoD, 4, 4, 2, 8, 2);
        let s = format!("{cfg}");
        assert!(s.contains("2D TP") && s.contains("n1=4") && s.contains("bm=2"));
        // Dense configs keep the pre-MoE rendering exactly (figure
        // artifacts embed these strings); ep appears only when > 1.
        assert!(!s.contains("ep="));
        let moe = ParallelConfig::new(TpStrategy::OneD, 4, 1, 2, 16, 2).with_ep(8);
        assert!(format!("{moe}").contains("ep=8"));
    }

    #[test]
    fn expert_parallel_validation() {
        let moe = txmodel::moe_1t().config; // 64 experts, depth 32
        let gpt = gpt();
        // Dense models must keep ep = 1.
        let bad = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1).with_ep(2);
        assert!(bad.validate(&gpt, 4096).unwrap_err().contains("MoE"));
        // MoE: ep must divide both nd and the expert count.
        let ok = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1).with_ep(16);
        ok.validate(&moe, 4096).unwrap();
        let not_div_nd = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1).with_ep(32);
        assert!(not_div_nd
            .validate(&moe, 4096)
            .unwrap_err()
            .contains("divide nd"));
        let mut few_experts = moe;
        few_experts.moe = Some(txmodel::MoeConfig {
            experts: 8,
            top_k: 1,
            capacity_pct: 125,
        });
        let not_div_e = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1).with_ep(16);
        assert!(not_div_e
            .validate(&few_experts, 4096)
            .unwrap_err()
            .contains("expert count"));
        // MoE rejects non-1D strategies.
        let twod = ParallelConfig::new(TpStrategy::TwoD, 4, 2, 8, 8, 1);
        assert!(twod.validate(&moe, 4096).unwrap_err().contains("1D TP"));
    }

    #[test]
    fn validate_rejects_malformed_moe_configs() {
        // MoeConfig fields are public + Deserialize, so validate must
        // re-check the invariants with_moe enforces at construction.
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1);
        let mut model = txmodel::moe_1t().config;
        let moe = |experts, top_k, capacity_pct| txmodel::MoeConfig {
            experts,
            top_k,
            capacity_pct,
        };
        for (bad, what) in [
            (moe(0, 1, 125), "experts"),
            (moe(1, 1, 125), "experts"),
            (moe(64, 0, 125), "top_k"),
            (moe(64, 65, 125), "top_k"),
            (moe(64, 1, 50), "capacity"),
        ] {
            model.moe = Some(bad);
            let err = cfg.validate(&model, 4096).unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
    }
}
