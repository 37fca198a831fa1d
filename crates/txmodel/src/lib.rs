//! Transformer architecture description and FLOP/byte census primitives.
//!
//! This crate models the *workload* side of the paper's performance model:
//! the transformer block (self-attention + MLP, paper §III), the model
//! classes studied — dense LLMs ([`gpt3_1t`], [`gpt3_175b`]), long-sequence
//! scientific ViTs ([`vit_64k`], [`vit_32k`], the [`vit_multimodal`]
//! image+text variant) and sparsely-activated Mixture-of-Experts models
//! ([`moe_1t`], [`gpt3_175b_moe`], via [`MoeConfig`]) — and the
//! first-principles operation census: FLOPs and HBM bytes for the matrix
//! multiply primitive and the simpler vector operations (paper stage S1).
//!
//! MoE configurations describe the router (an `e×E` gate), top-`k`
//! dispatch and the Switch/GLaM capacity-factor discipline; how those
//! tokens are sharded across GPUs (tensor/pipeline/data/**expert**
//! parallelism) lives in the `perfmodel` crate — this crate stays
//! strategy agnostic. [`TrainingWorkload`] converts per-iteration times
//! into full-run wall-clock days (paper Fig. 5); [`InferenceConfig`]
//! describes the *serving* side of the same models — prompt/output
//! length mixes, offered request rates and the continuous-batching
//! ceiling (priced by `perfmodel::serving`, replayed by `servesim`).

mod config;
mod inference;
mod ops;
mod presets;
mod workload;

pub use config::{MoeConfig, TransformerConfig};
pub use inference::{
    gpt3_175b_chat, moe_1t_chat, vit_multimodal_serving, InferenceConfig, LengthMix, ServingPreset,
    LONG_PCT,
};
pub use ops::{gemm, vector_op, MatmulShape, OpCost, VectorOpKind, BYTES_PER_ELEM};
pub use presets::{
    gpt3_175b, gpt3_175b_moe, gpt3_1t, moe_1t, vit_32k, vit_64k, vit_64k_linear_attention,
    vit_multimodal, Preset,
};
pub use workload::{TrainingWorkload, ERA5_SAMPLES_PER_YEAR};

#[cfg(test)]
mod serde_roundtrip {
    use super::*;

    #[test]
    fn config_and_workload_survive_json() {
        let preset = gpt3_175b();
        let json = serde_json::to_string(&preset.config).unwrap();
        let back: TransformerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, preset.config);
        assert_eq!(back.total_params(), preset.config.total_params());

        let workload = TrainingWorkload::from_token_budget(1e12, 4096, preset.config.seq_len);
        let json = serde_json::to_string(&workload).unwrap();
        let back: TrainingWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, workload);
    }

    #[test]
    fn inference_config_survives_json() {
        for preset in [gpt3_175b_chat(), moe_1t_chat(), vit_multimodal_serving()] {
            let json = serde_json::to_string(&preset.traffic).unwrap();
            let back: InferenceConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, preset.traffic);
            assert_eq!(back.request_rate(), preset.traffic.request_rate());
            assert_eq!(back.p99_context(), preset.traffic.p99_context());
        }
        let mix: LengthMix =
            serde_json::from_str(&serde_json::to_string(&LengthMix::new(3, 9)).unwrap()).unwrap();
        assert_eq!(mix, LengthMix::new(3, 9));
    }

    #[test]
    fn moe_config_survives_json() {
        // The Option<MoeConfig> field must round-trip both ways: None
        // (dense presets) and Some (MoE presets).
        let dense = gpt3_175b().config;
        let back: TransformerConfig =
            serde_json::from_str(&serde_json::to_string(&dense).unwrap()).unwrap();
        assert_eq!(back, dense);
        assert!(back.moe.is_none());

        let moe = moe_1t().config;
        let back: TransformerConfig =
            serde_json::from_str(&serde_json::to_string(&moe).unwrap()).unwrap();
        assert_eq!(back, moe);
        assert_eq!(back.moe, moe.moe);
        assert_eq!(back.total_params(), moe.total_params());
    }

    #[test]
    fn op_types_survive_json() {
        let cost = gemm(128, 512, 256);
        let back: OpCost = serde_json::from_str(&serde_json::to_string(&cost).unwrap()).unwrap();
        assert_eq!(back, cost);

        let shape = MatmulShape {
            m: 1,
            k: 2,
            n: 3,
            batch: 4,
        };
        let back: MatmulShape =
            serde_json::from_str(&serde_json::to_string(&shape).unwrap()).unwrap();
        assert_eq!(back, shape);
    }
}
