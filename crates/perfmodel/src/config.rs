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
    /// `ep | experts` (dense models require `ep = 1`); and that `n1·n2`
    /// and `n1·n2·np·nd` fit in a `u64`.
    pub fn validate(&self, model: &TransformerConfig, global_batch: u64) -> Result<(), String> {
        self.check(model, global_batch).map_err(|e| e.to_string())
    }

    /// The checks behind [`ParallelConfig::validate`], in its order,
    /// returning the first failure as a typed reason. Nothing allocates,
    /// so the enumeration can discard rejections for free.
    pub(crate) fn check(
        &self,
        model: &TransformerConfig,
        global_batch: u64,
    ) -> Result<(), Invalid> {
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
            return Err(Invalid::NonPositive);
        }
        if strategy == TpStrategy::OneD && n2 != 1 {
            return Err(Invalid::OneDWithN2(n2));
        }
        match model.moe {
            None => {
                if ep != 1 {
                    return Err(Invalid::DenseWithEp(ep));
                }
            }
            Some(moe) => {
                // Re-check the MoeConfig invariants here: `with_moe`
                // enforces them at construction, but the fields are
                // public and Deserialize, so a hand-edited or cached
                // JSON config can bypass the builder.
                if moe.experts < 2 {
                    return Err(Invalid::TooFewExperts(moe.experts));
                }
                if moe.top_k == 0 || moe.top_k > moe.experts {
                    return Err(Invalid::TopK {
                        top_k: moe.top_k,
                        experts: moe.experts,
                    });
                }
                if moe.capacity_pct < 100 {
                    return Err(Invalid::Capacity(moe.capacity_pct));
                }
                if strategy != TpStrategy::OneD {
                    return Err(Invalid::MoeStrategy(strategy));
                }
                if !nd.is_multiple_of(ep) {
                    return Err(Invalid::divide("ep", ep, "nd", nd));
                }
                if !moe.experts.is_multiple_of(ep) {
                    return Err(Invalid::divide("ep", ep, "the expert count", moe.experts));
                }
            }
        }
        if !model.depth.is_multiple_of(np) {
            return Err(Invalid::divide("np", np, "depth", model.depth));
        }
        let per_stage = model.depth / np;
        if !per_stage.is_multiple_of(interleave) {
            return Err(Invalid::divide(
                "interleave",
                interleave,
                "layers per stage",
                per_stage,
            ));
        }
        if !global_batch.is_multiple_of(nd) {
            return Err(Invalid::divide("nd", nd, "global batch", global_batch));
        }
        let local_batch = global_batch / nd;
        if !local_batch.is_multiple_of(microbatch) {
            return Err(Invalid::divide(
                "microbatch",
                microbatch,
                "local batch",
                local_batch,
            ));
        }
        // The grid's products must not wrap: `tensor_parallel` and
        // `total_gpus` multiply unchecked.
        let nt = n1.checked_mul(n2).ok_or(Invalid::Overflow("n1*n2"))?;
        nt.checked_mul(np)
            .and_then(|n| n.checked_mul(nd))
            .ok_or(Invalid::Overflow("n1*n2*np*nd"))?;
        // Tensor-dimension divisibility. All strategies shard heads, embed
        // and hidden over n1; the sequence is sharded over nt = n1·n2 at
        // the residual stream.
        let checks: [(u64, u64, &'static str); 4] = [
            (model.heads, n1, "heads % n1"),
            (model.embed, n1, "embed % n1"),
            (model.hidden, n1, "hidden % n1"),
            (model.seq_len, nt, "seq_len % (n1*n2)"),
        ];
        for (dim, div, what) in checks {
            if dim % div != 0 {
                return Err(Invalid::TensorDim { what, dim, div });
            }
        }
        if strategy != TpStrategy::OneD && !model.seq_len.is_multiple_of(n2) {
            return Err(Invalid::divide("n2", n2, "seq_len", model.seq_len));
        }
        if strategy == TpStrategy::Summa {
            // SUMMA shards weight rows over n2 as well: W_Q (e/n2, e/n1),
            // W_1 (e/n2, f/n1), W_2 (f/n2, e/n1).
            if !model.embed.is_multiple_of(n2) || !model.hidden.is_multiple_of(n2) {
                return Err(Invalid::SummaN2(n2));
            }
            if !model.embed.is_multiple_of(summa_panels) {
                return Err(Invalid::divide(
                    "SUMMA panel count",
                    summa_panels,
                    "embed",
                    model.embed,
                ));
            }
        }
        Ok(())
    }
}

/// Why [`ParallelConfig::check`] rejects a configuration. Its `Display`
/// is the message [`ParallelConfig::validate`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Invalid {
    NonPositive,
    OneDWithN2(u64),
    DenseWithEp(u64),
    TooFewExperts(u64),
    TopK {
        top_k: u64,
        experts: u64,
    },
    Capacity(u64),
    MoeStrategy(TpStrategy),
    /// "`divisor` (`value`) must divide `dividend` (`of`)".
    MustDivide {
        divisor: &'static str,
        value: u64,
        dividend: &'static str,
        of: u64,
    },
    TensorDim {
        what: &'static str,
        dim: u64,
        div: u64,
    },
    SummaN2(u64),
    /// The named product of configuration factors overflows `u64`.
    Overflow(&'static str),
}

impl Invalid {
    fn divide(divisor: &'static str, value: u64, dividend: &'static str, of: u64) -> Self {
        Invalid::MustDivide {
            divisor,
            value,
            dividend,
            of,
        }
    }
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Invalid::NonPositive => write!(f, "all configuration factors must be positive"),
            Invalid::OneDWithN2(n2) => write!(f, "1D TP requires n2 = 1, got {n2}"),
            Invalid::DenseWithEp(ep) => {
                write!(f, "expert parallelism (ep = {ep}) requires an MoE model")
            }
            Invalid::TooFewExperts(experts) => {
                write!(f, "an MoE model needs at least 2 experts, got {experts}")
            }
            Invalid::TopK { top_k, experts } => {
                write!(f, "top_k ({top_k}) must be in 1..=experts ({experts})")
            }
            Invalid::Capacity(pct) => write!(
                f,
                "capacity factor below 1.0 ({pct}%) would drop tokens structurally"
            ),
            Invalid::MoeStrategy(s) => write!(f, "MoE models support 1D TP only, got {}", s.name()),
            Invalid::MustDivide {
                divisor,
                value,
                dividend,
                of,
            } => write!(f, "{divisor} ({value}) must divide {dividend} ({of})"),
            Invalid::TensorDim { what, dim, div } => {
                write!(f, "{what} != 0 (dim {dim}, divisor {div})")
            }
            Invalid::SummaN2(n2) => {
                write!(f, "SUMMA requires n2 ({n2}) to divide embed and hidden")
            }
            Invalid::Overflow(product) => write!(f, "{product} overflows u64"),
        }
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
        let used = [self.v2, self.vp, self.vd]
            .into_iter()
            .try_fold(self.v1, u64::checked_mul)
            .ok_or("v1*v2*vp*vd overflows u64")?;
        if used > nvs_size {
            return Err(format!(
                "placement packs {used} GPUs into a domain of {nvs_size}"
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
        // The residual stream shards the sequence over nt, so nt must
        // divide l = 64800 = 2^5 · 2025 (180 × 360 patches). On the
        // paper's power-of-two GPU counts every TP degree is a power of
        // two, so 1D TP caps out at nt = 32 for the ViT.
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
    fn validate_messages_are_verbatim() {
        // `validate` renders the typed reason the enumeration discards;
        // each message is pinned word for word.
        let gpt = gpt();
        let moe = txmodel::moe_1t().config;
        let vit = txmodel::vit_64k().config;
        let c = |strategy, n1, n2, np, nd, bm| ParallelConfig::new(strategy, n1, n2, np, nd, bm);
        let with_moe = |experts, top_k, capacity_pct| TransformerConfig {
            moe: Some(txmodel::MoeConfig {
                experts,
                top_k,
                capacity_pct,
            }),
            ..moe
        };
        let cases = [
            (
                c(TpStrategy::OneD, 0, 1, 1, 1, 1),
                gpt,
                "all configuration factors must be positive",
            ),
            (
                c(TpStrategy::OneD, 4, 2, 1, 1, 1),
                gpt,
                "1D TP requires n2 = 1, got 2",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 4, 1).with_ep(2),
                gpt,
                "expert parallelism (ep = 2) requires an MoE model",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 1, 1),
                with_moe(1, 1, 125),
                "an MoE model needs at least 2 experts, got 1",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 1, 1),
                with_moe(8, 9, 125),
                "top_k (9) must be in 1..=experts (8)",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 1, 1),
                with_moe(8, 1, 50),
                "capacity factor below 1.0 (50%) would drop tokens structurally",
            ),
            (
                c(TpStrategy::TwoD, 1, 1, 1, 1, 1),
                moe,
                "MoE models support 1D TP only, got 2D TP",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 4, 1).with_ep(8),
                moe,
                "ep (8) must divide nd (4)",
            ),
            (
                c(TpStrategy::OneD, 1, 1, 1, 256, 1).with_ep(128),
                moe,
                "ep (128) must divide the expert count (64)",
            ),
            (
                c(TpStrategy::OneD, 8, 1, 3, 32, 1),
                gpt,
                "np (3) must divide depth (128)",
            ),
            (
                ParallelConfig {
                    interleave: 3,
                    ..c(TpStrategy::OneD, 8, 1, 64, 32, 1)
                },
                gpt,
                "interleave (3) must divide layers per stage (2)",
            ),
            (
                c(TpStrategy::OneD, 8, 1, 64, 3, 1),
                gpt,
                "nd (3) must divide global batch (4096)",
            ),
            (
                c(TpStrategy::OneD, 8, 1, 64, 32, 3),
                gpt,
                "microbatch (3) must divide local batch (128)",
            ),
            (
                c(TpStrategy::OneD, 64, 1, 48, 1, 1),
                vit,
                "seq_len % (n1*n2) != 0 (dim 64800, divisor 64)",
            ),
            (
                c(TpStrategy::TwoD, 1, 3, 1, 1, 1),
                gpt,
                "seq_len % (n1*n2) != 0 (dim 2048, divisor 3)",
            ),
            (
                c(TpStrategy::Summa, 1, 2048, 1, 1, 1),
                gpt,
                "SUMMA requires n2 (2048) to divide embed and hidden",
            ),
            (
                ParallelConfig {
                    summa_panels: 3,
                    ..c(TpStrategy::Summa, 8, 4, 1, 512, 8)
                },
                gpt,
                "SUMMA panel count (3) must divide embed (25600)",
            ),
        ];
        for (cfg, model, msg) in cases {
            assert_eq!(cfg.validate(&model, 4096).unwrap_err(), msg, "{cfg:?}");
        }
    }

    /// A product of configuration factors that overflows `u64` is a typed
    /// rejection, not an arithmetic panic.
    #[test]
    fn validate_rejects_overflowing_products() {
        let gpt = gpt();
        let two_d = |n1, n2| ParallelConfig::new(TpStrategy::TwoD, n1, n2, 1, 1, 1);
        for cfg in [two_d(8, 1 << 61), two_d(1 << 32, 1 << 32)] {
            assert_eq!(
                cfg.validate(&gpt, 4096).unwrap_err(),
                "n1*n2 overflows u64",
                "{cfg:?}"
            );
        }
        // n1·n2 divides the sequence and np the depth, yet the grid
        // n1·n2·np·nd has 2^70 GPUs.
        let deep = TransformerConfig {
            seq_len: 1 << 40,
            depth: 1 << 30,
            ..gpt
        };
        let grid = ParallelConfig::new(TpStrategy::TwoD, 1, 1 << 40, 1 << 30, 1, 1);
        assert_eq!(
            grid.validate(&deep, 4096).unwrap_err(),
            "n1*n2*np*nd overflows u64"
        );
    }

    /// Four placement factors whose product overflows `u64` are rejected,
    /// not wrapped to a product that fits any domain (release) or a panic
    /// (debug).
    #[test]
    fn placement_rejects_an_overflowing_product() {
        let cfg = ParallelConfig::new(TpStrategy::TwoD, 1 << 32, 1 << 32, 1, 1, 1);
        let wide = Placement {
            v1: 1 << 32,
            v2: 1 << 32,
            vp: 1,
            vd: 1,
        };
        assert_eq!(
            wide.validate(&cfg, 8).unwrap_err(),
            "v1*v2*vp*vd overflows u64"
        );
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
