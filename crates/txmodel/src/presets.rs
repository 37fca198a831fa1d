//! Model presets studied in the paper.

use crate::TransformerConfig;

/// A named model preset.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Paper's name for the model (e.g. `"GPT3-1T"`).
    pub name: &'static str,
    /// The architecture hyperparameters.
    pub config: TransformerConfig,
}

/// GPT3-1T: the trillion-parameter LLM used throughout the paper's main
/// analysis. `(l, e, h, d) = (2048, 25600, 160, 128)`, `f = 4e`.
pub fn gpt3_1t() -> Preset {
    Preset {
        name: "GPT3-1T",
        config: TransformerConfig::new(2048, 25600, 4 * 25600, 160, 128),
    }
}

/// Long-sequence Vision Transformer representing scientific foundation
/// models: `(l, e, h, d) = (64800, 12288, 64, 48)`. The sequence length is
/// an ERA5 720×1440 grid at patch size 4 (= 180·360 = 64800 patches).
pub fn vit_64k() -> Preset {
    Preset {
        name: "ViT-64K",
        config: TransformerConfig::new(64800, 12288, 4 * 12288, 64, 48),
    }
}

/// GPT3-175B used in the paper's §IV empirical validation on 512 GPUs.
/// Standard GPT-3 architecture: `(l, e, h, d) = (2048, 12288, 96, 96)`.
pub fn gpt3_175b() -> Preset {
    Preset {
        name: "GPT3-175B",
        config: TransformerConfig::new(2048, 12288, 4 * 12288, 96, 96),
    }
}

/// The 32K-sequence ViT used in the paper's §IV empirical validation:
/// same block architecture as [`vit_64k`] at half the spatial resolution
/// (patch size 4 on a 720×720 crop → 180·180 = 32400 patches).
pub fn vit_32k() -> Preset {
    Preset {
        name: "ViT-32K",
        config: TransformerConfig::new(32400, 12288, 4 * 12288, 64, 48),
    }
}

/// Linear-attention variant of the 64K ViT (paper Outlook: "linear (or
/// windowed) attention versions of the ViT"). Same dimensions, but the
/// Logit/Attend stage costs `O(l·e_h²)` per head instead of `O(l²·e_h)`.
pub fn vit_64k_linear_attention() -> Preset {
    let mut config = TransformerConfig::new(64800, 12288, 4 * 12288, 64, 48);
    config.linear_attention = true;
    Preset {
        name: "ViT-64K-LinAttn",
        config,
    }
}

/// MoE-1T: a Switch-Transformer-style sparsely-activated trillion-
/// parameter model (workload-breadth extension; the paper studies dense
/// models only). `(l, e, f, h, d) = (2048, 8192, 32768, 64, 32)` with 64
/// experts per block, top-1 routing and a 1.25 capacity factor — the
/// Switch-C recipe scaled so the expert FFNs alone hold ~1.1T parameters
/// while each token activates only ~26B.
pub fn moe_1t() -> Preset {
    Preset {
        name: "MoE-1T",
        config: TransformerConfig::new(2048, 8192, 4 * 8192, 64, 32).with_moe(64, 1, 125),
    }
}

/// GLaM-style MoE variant of GPT3-175B: the same block geometry as
/// [`gpt3_175b`] with every MLP widened to 8 experts under top-2 routing
/// (capacity 1.25). Total parameters grow to ~1T while per-token compute
/// roughly doubles (two experts per token) — the sparsely-activated
/// counterpart used to study expert parallelism against the dense
/// baseline.
pub fn gpt3_175b_moe() -> Preset {
    Preset {
        name: "GPT3-175B-MoE8",
        config: TransformerConfig::new(2048, 12288, 4 * 12288, 96, 96).with_moe(8, 2, 125),
    }
}

/// Multimodal scientific ViT: ERA5 imagery fused with a text/metadata
/// stream in one joint sequence — 16384 image patches (a 128×128 patch
/// grid, e.g. patch size ~6 on the 720×1440 ERA5 grid) plus 2048 text
/// tokens = 18432 tokens. Same block architecture as [`vit_64k`]; the
/// power-of-two-friendly sequence length gives the partitioning search
/// many more valid `(n1, n2)` factorizations than the 64800-token ViT.
pub fn vit_multimodal() -> Preset {
    Preset {
        name: "ViT-MM-18K",
        config: TransformerConfig::new(16384 + 2048, 12288, 4 * 12288, 64, 48),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_175b_parameter_count() {
        let p = gpt3_175b().config.total_params() as f64;
        // Block-only count for the standard 175B architecture ≈ 174e9.
        assert!(p > 1.6e11 && p < 1.85e11, "got {p:e}");
    }

    #[test]
    fn vit_sequence_lengths_match_era5_patching() {
        assert_eq!(vit_64k().config.seq_len, (720 / 4) * (1440 / 4));
        assert_eq!(vit_32k().config.seq_len, 180 * 180);
    }

    #[test]
    fn presets_have_distinct_names() {
        let names = [
            gpt3_1t().name,
            vit_64k().name,
            gpt3_175b().name,
            vit_32k().name,
            vit_64k_linear_attention().name,
            moe_1t().name,
            gpt3_175b_moe().name,
            vit_multimodal().name,
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn linear_attention_preset_flags_config() {
        assert!(vit_64k_linear_attention().config.linear_attention);
        assert!(!vit_64k().config.linear_attention);
    }

    #[test]
    fn moe_1t_holds_a_trillion_params_sparsely() {
        let c = moe_1t().config;
        let p = c.total_params() as f64;
        assert!(p > 0.95e12 && p < 1.25e12, "got {p:e}");
        // Top-1 routing: activated parameters are ~E× smaller.
        let act = (c.depth * c.activated_params_per_block()) as f64;
        assert!(act < p / 30.0, "activated {act:e} vs total {p:e}");
    }

    #[test]
    fn gpt3_175b_moe_matches_dense_geometry() {
        let dense = gpt3_175b().config;
        let moe = gpt3_175b_moe().config;
        assert_eq!(moe.embed, dense.embed);
        assert_eq!(moe.depth, dense.depth);
        let m = moe.moe.unwrap();
        assert_eq!((m.experts, m.top_k), (8, 2));
        // 8 experts: ~1T total parameters.
        let p = moe.total_params() as f64;
        assert!(p > 0.8e12 && p < 1.3e12, "got {p:e}");
    }

    #[test]
    fn multimodal_vit_sequence_is_patches_plus_text() {
        let c = vit_multimodal().config;
        assert_eq!(c.seq_len, 128 * 128 + 2048);
        assert!(!c.is_moe());
        // Power-of-two-rich sequence: divisible by every TP degree up to 64.
        for nt in [2u64, 4, 8, 16, 32, 64] {
            assert_eq!(c.seq_len % nt, 0, "nt {nt}");
        }
    }
}
