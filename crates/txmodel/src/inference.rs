//! Inference-serving workload description: request-length mixes, traffic
//! rates and the scheduler batch ceiling.
//!
//! Training asks "how fast can we push a fixed global batch through the
//! model"; serving asks "how many concurrent requests of *varying* length
//! can we answer within a latency budget". [`InferenceConfig`] captures
//! the serving side of that question in the same strategy-agnostic spirit
//! as [`TransformerConfig`](crate::TransformerConfig): prompt and output
//! length distributions, an aggregate request arrival rate, and the
//! continuous-batching ceiling. How those requests are scheduled onto a
//! parallelized model (KV-cache capacity, prefill/decode pricing,
//! colocated vs disaggregated pools) lives in `perfmodel::serving` and
//! the `servesim` simulator.
//!
//! Length distributions use a deliberately small two-point model
//! ([`LengthMix`]): a *typical* length covering 90% of requests and a
//! *long* length covering the remaining 10%. Two points are enough to
//! expose the phenomena that drive serving design — tail prompts stall
//! colocated decode, tail outputs pin KV slots — while keeping the mean
//! and the p50/p99 quantiles closed-form, so the analytic model and the
//! discrete simulator sample *exactly* the same distribution.
//!
//! All fields are integers (rates in milli-requests/s, the
//! [`MoeConfig`](crate::MoeConfig) `capacity_pct` idiom) so the types
//! stay `Eq + Hash` and usable as cache keys.

use crate::TransformerConfig;
use serde::{Deserialize, Serialize};

/// A two-point request-length distribution: `typical` tokens for 90% of
/// requests, `long` tokens for the remaining 10%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LengthMix {
    /// Length (tokens) of the typical request — the p50 of the mix.
    pub typical: u64,
    /// Length (tokens) of the long-tail request — the p99 of the mix.
    pub long: u64,
}

/// Fraction of requests drawing the long length, in percent.
pub const LONG_PCT: u64 = 10;

impl LengthMix {
    /// A mix with a 90% typical / 10% long split.
    ///
    /// # Panics
    /// Panics if either length is zero or `long < typical`.
    pub fn new(typical: u64, long: u64) -> Self {
        assert!(typical > 0 && long > 0, "lengths must be positive");
        assert!(
            long >= typical,
            "long ({long}) must be >= typical ({typical})"
        );
        Self { typical, long }
    }

    /// A degenerate mix where every request has the same length (e.g.
    /// fixed-resolution vision inputs).
    pub fn uniform(len: u64) -> Self {
        Self::new(len, len)
    }

    /// Mean length: `0.9·typical + 0.1·long`.
    pub fn mean(&self) -> f64 {
        let long_frac = LONG_PCT as f64 / 100.0;
        (1.0 - long_frac) * self.typical as f64 + long_frac * self.long as f64
    }

    /// Median length (the typical request).
    pub fn p50(&self) -> u64 {
        self.typical
    }

    /// 99th-percentile length (the long request — any quantile above
    /// `100 − LONG_PCT` percent lands on it).
    pub fn p99(&self) -> u64 {
        self.long
    }

    /// Samples the mix from a uniform draw `u ∈ [0, 1)`: the closed-form
    /// inverse CDF, shared verbatim by the analytic model and the
    /// `servesim` trace generator so both see the same distribution.
    pub fn sample(&self, u: f64) -> u64 {
        if u < 1.0 - LONG_PCT as f64 / 100.0 {
            self.typical
        } else {
            self.long
        }
    }
}

/// A serving workload: request length distributions, offered traffic and
/// the continuous-batching ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Prompt (prefill) length distribution, tokens per request.
    pub prompt: LengthMix,
    /// Generated output (decode) length distribution, tokens per request.
    pub output: LengthMix,
    /// Aggregate request arrival rate across the whole deployment, in
    /// milli-requests per second (integer for `Eq + Hash`; 8000 = 8
    /// requests/s). Use [`InferenceConfig::request_rate`] for the f64.
    pub request_rate_milli: u64,
    /// Scheduler ceiling on concurrently decoding sequences per model
    /// replica. The KV-cache capacity of the device may bind first; the
    /// effective ceiling is the smaller of the two.
    pub max_batch: u64,
}

impl InferenceConfig {
    /// A serving workload from length mixes and a rate in requests/s.
    ///
    /// # Panics
    /// Panics if the rate is not positive/finite or `max_batch` is zero.
    pub fn new(prompt: LengthMix, output: LengthMix, request_rate: f64, max_batch: u64) -> Self {
        assert!(
            request_rate.is_finite() && request_rate > 0.0,
            "request rate must be positive and finite"
        );
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            prompt,
            output,
            request_rate_milli: (request_rate * 1000.0).round() as u64,
            max_batch,
        }
    }

    /// Offered request rate in requests per second.
    pub fn request_rate(&self) -> f64 {
        self.request_rate_milli as f64 / 1000.0
    }

    /// Returns a copy with the given request rate (requests/s).
    pub fn with_request_rate(mut self, request_rate: f64) -> Self {
        assert!(
            request_rate.is_finite() && request_rate > 0.0,
            "request rate must be positive and finite"
        );
        self.request_rate_milli = (request_rate * 1000.0).round() as u64;
        self
    }

    /// Returns a copy with the given batch ceiling.
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Mean full-context length at completion (prompt + output), tokens.
    /// This is the KV footprint a *mean* resident sequence converges to.
    pub fn mean_context(&self) -> f64 {
        self.prompt.mean() + self.output.mean()
    }

    /// 99th-percentile full-context length (long prompt + long output) —
    /// the KV footprint a capacity plan must be able to hold at least
    /// once.
    pub fn p99_context(&self) -> u64 {
        self.prompt.p99() + self.output.p99()
    }

    /// Offered *output-token* load: mean generated tokens per second
    /// across the deployment (`rate · mean output length`).
    pub fn offered_token_rate(&self) -> f64 {
        self.request_rate() * self.output.mean()
    }
}

/// A named serving workload: a model preset plus its traffic.
#[derive(Debug, Clone)]
pub struct ServingPreset {
    /// Workload name (figure legends, bench ids).
    pub name: &'static str,
    /// The model being served.
    pub model: TransformerConfig,
    /// The offered traffic.
    pub traffic: InferenceConfig,
}

/// GPT3-175B serving chat-style traffic: 512-token typical prompts with
/// a 2048-token tail, 256-token typical completions with a 1024-token
/// tail, 8 requests/s offered. Lengths are powers of two so every TP
/// degree the search considers divides them.
pub fn gpt3_175b_chat() -> ServingPreset {
    ServingPreset {
        name: "GPT3-175B-chat",
        model: crate::gpt3_175b().config,
        traffic: InferenceConfig::new(
            LengthMix::new(512, 2048),
            LengthMix::new(256, 1024),
            8.0,
            128,
        ),
    }
}

/// MoE-1T under the same chat traffic shape: sparse activation makes
/// decode cheap per token but the resident expert set makes weights
/// huge, so the serving trade-offs land differently than dense.
pub fn moe_1t_chat() -> ServingPreset {
    ServingPreset {
        name: "MoE-1T-chat",
        model: crate::moe_1t().config,
        traffic: InferenceConfig::new(
            LengthMix::new(512, 2048),
            LengthMix::new(256, 1024),
            4.0,
            64,
        ),
    }
}

/// Multimodal scientific ViT serving: every request carries the full
/// fixed 18432-token image+text sequence (a uniform prompt mix) and
/// generates a short structured answer. Prefill-dominated — the workload
/// where disaggregating prefill from decode matters most.
pub fn vit_multimodal_serving() -> ServingPreset {
    ServingPreset {
        name: "ViT-MM-18K-serve",
        model: crate::vit_multimodal().config,
        traffic: InferenceConfig::new(
            LengthMix::uniform(16384 + 2048),
            LengthMix::new(32, 128),
            2.0,
            32,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_quantiles_and_mean() {
        let m = LengthMix::new(512, 2048);
        assert_eq!(m.p50(), 512);
        assert_eq!(m.p99(), 2048);
        assert!((m.mean() - (0.9 * 512.0 + 0.1 * 2048.0)).abs() < 1e-9);
        // The inverse CDF matches the 90/10 split exactly.
        assert_eq!(m.sample(0.0), 512);
        assert_eq!(m.sample(0.899_999), 512);
        assert_eq!(m.sample(0.9), 2048);
        assert_eq!(m.sample(0.999), 2048);
    }

    #[test]
    fn uniform_mix_is_degenerate() {
        let m = LengthMix::uniform(100);
        assert_eq!(m.p50(), m.p99());
        assert!((m.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn rates_round_trip_through_milli() {
        let t = gpt3_175b_chat().traffic;
        assert!((t.request_rate() - 8.0).abs() < 1e-9);
        let t2 = t.with_request_rate(0.25);
        assert_eq!(t2.request_rate_milli, 250);
        assert!((t2.request_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn context_accounting_composes_prompt_and_output() {
        let t = gpt3_175b_chat().traffic;
        assert_eq!(t.p99_context(), 2048 + 1024);
        assert!((t.mean_context() - (t.prompt.mean() + t.output.mean())).abs() < 1e-9);
        assert!((t.offered_token_rate() - 8.0 * t.output.mean()).abs() < 1e-9);
    }

    #[test]
    fn serving_presets_have_distinct_names_and_valid_models() {
        let presets = [gpt3_175b_chat(), moe_1t_chat(), vit_multimodal_serving()];
        let names: std::collections::BTreeSet<_> = presets.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), presets.len());
        // The ViT preset's prompt is the model's full sequence.
        let vit = vit_multimodal_serving();
        assert_eq!(vit.traffic.prompt.typical, vit.model.seq_len);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "hashing is the property under test, and the traffic spec is not Ord"
    )]
    fn traffic_is_hashable_cache_key() {
        // The integer-field discipline exists for this property.
        let mut set = std::collections::HashSet::new();
        set.insert(gpt3_175b_chat().traffic);
        set.insert(gpt3_175b_chat().traffic);
        set.insert(moe_1t_chat().traffic);
        assert_eq!(set.len(), 2);
    }
}
