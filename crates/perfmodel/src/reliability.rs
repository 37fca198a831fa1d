//! Analytic expected-goodput model: what a plan actually delivers on a
//! machine that fails.
//!
//! The paper's S3 search minimizes failure-free iteration time. At its
//! own target scale — thousands of GPUs for weeks — the quantity that
//! matters is *goodput*: tokens banked per wall-clock second, after
//! checkpoint overhead, failure rework, degraded links and stragglers.
//! This module prices that from an ordinary [`Evaluation`] plus the
//! system's [`ReliabilitySpec`], and exposes
//! it to the planner as
//! [`Objective::ExpectedGoodput`](crate::Objective::ExpectedGoodput) /
//! [`Objective::EffectiveTrainingDays`](crate::Objective::EffectiveTrainingDays).
//!
//! The model composes four standard first-order ingredients:
//!
//! 1. **Failure rate.** Hard failures are independent Poisson per
//!    component, so the job-level rate is `λ = n·λ_gpu + nics·λ_nic` —
//!    linear in machine size, which is exactly why the failure-free
//!    optimum (which often wants the *biggest, most communication-lean*
//!    layout) stops being optimal at scale.
//! 2. **Checkpoint cost.** A checkpoint drains the unique training
//!    state: each GPU's ZeRO-1 optimizer shard (disjoint across the
//!    whole job) plus one data-parallel replica's weight shards. The
//!    slowest writer therefore writes `weights + optimizer` bytes of
//!    its own shard — both straight out of [`crate::MemoryUsage`] — over the
//!    same per-NIC slow-tier path the DP gradient sync uses. Note the
//!    candidate-dependence: weight shards shrink with `n1·n2·np`, so
//!    checkpoint time is a *plan* property, not a system constant.
//! 3. **Young/Daly checkpoint interval.** The waste per useful second
//!    at interval `τ` is `C/τ + λ·(τ/2 + R)`; its closed-form minimum
//!    is the classic `τ* = sqrt(2·C/λ)` (equivalently
//!    `sqrt(2·C·MTBF)`), independent of the restart overhead `R`.
//!    [`optimal_checkpoint_interval`] is the closed form;
//!    [`solve_optimal_interval`] minimizes the same waste numerically
//!    (golden-section) and is cross-checked against the closed form by
//!    property test.
//! 4. **Slowdown inflation.** Stragglers inflate the compute-bound
//!    buckets: with per-GPU stationary probability `p` and slowdown
//!    `s`, the synchronous step is gated by the slowest participant,
//!    so compute time scales by `1 + (1 − (1−p)^n)(s − 1)`. Link
//!    degradation inflates the *slow-tier-exposed* communication
//!    buckets: a pipelined ring runs at its narrowest link, so with
//!    per-link degraded duty `d` over `L` cross-domain links the
//!    expected inflation is `1 + (1 − (1−d)^L)(1/φ − 1)` for a
//!    degraded-bandwidth factor `φ`. Which buckets are exposed is read
//!    off the placement: a bucket crosses the slow tier iff its group
//!    does not fit inside the NVS domains the placement gives it.
//!
//! Both slowdown terms assume the worst-case coupling (one slow
//! component gates the whole synchronous step) and independence between
//! fault processes. `trainsim::simulate_training` replays seeded fault
//! timelines against the same plans to quantify where those assumptions
//! hold and where they break (see the `reliability` figure).
//!
//! The planner prunes both objectives like any other training objective.
//! Ingredients 1–3 read only the GPU count and the checkpoint bytes,
//! neither of which depends on the placement, so the goodput fraction is
//! known exactly before any placement is evaluated. Both inflations of
//! ingredient 4 are ≥ 1 (or NaN on a degenerate spec, such as a NaN
//! straggler probability; the bound is then NaN and prunes nothing), so
//! the effective iteration time is at least the failure-free one, which
//! the search's iteration-time lower bound already bounds. The key bounds
//! put that lower bound in place of the effective time (see
//! `Objective::key_lower_bound`).

use crate::evaluate::Evaluation;
use crate::planner::ObjectiveCtx;
use serde::{Deserialize, Serialize};
use systems::ReliabilitySpec;

/// Everything the expected-goodput model derives for one candidate plan
/// under one failure regime. Produced by [`assess`]; all fields are in
/// natural units so reports can cite them directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoodputReport {
    /// Whole-job hard-failure rate, per second.
    pub failure_rate: f64,
    /// Per-writer checkpoint bytes (weight shard + optimizer shard).
    pub checkpoint_bytes: f64,
    /// Checkpoint drain time `C`, seconds.
    pub checkpoint_time: f64,
    /// Young/Daly optimal checkpoint interval `τ*`, seconds
    /// (`∞` when the failure rate is zero).
    pub optimal_interval: f64,
    /// Multiplier applied to the compute-bound buckets (≥ 1).
    pub straggler_inflation: f64,
    /// Multiplier applied to the slow-tier-exposed comm buckets (≥ 1).
    pub degraded_comm_inflation: f64,
    /// Iteration time after straggler + degradation inflation, seconds.
    pub effective_iteration_time: f64,
    /// Fraction of wall-clock time spent on useful (kept) work, in
    /// `[0, 1]`: checkpoint overhead times failure availability.
    pub goodput_fraction: f64,
    /// Delivered training throughput: tokens per GPU-second, after all
    /// overheads.
    pub tokens_per_gpu_second: f64,
}

impl GoodputReport {
    /// Wall-clock days to complete `iterations` optimizer steps under
    /// this regime (`∞` when the goodput fraction is zero — the job
    /// fails faster than it can checkpoint).
    pub fn effective_days(&self, iterations: f64) -> f64 {
        if self.goodput_fraction > 0.0 {
            iterations * self.effective_iteration_time / (86_400.0 * self.goodput_fraction)
        } else {
            f64::INFINITY
        }
    }
}

/// Young/Daly optimal checkpoint interval, closed form:
/// `τ* = sqrt(2·C/λ)`. Returns `∞` for a zero failure rate (never
/// checkpoint) and `0` for a zero checkpoint cost (checkpoint always).
pub fn optimal_checkpoint_interval(checkpoint_time: f64, failure_rate: f64) -> f64 {
    if failure_rate <= 0.0 {
        return f64::INFINITY;
    }
    if checkpoint_time <= 0.0 {
        return 0.0;
    }
    (2.0 * checkpoint_time / failure_rate).sqrt()
}

/// Expected waste per useful second at checkpoint interval `τ`:
/// amortized checkpoint cost plus failure-rework and restart cost,
/// `C/τ + λ·(τ/2 + R)` — the objective Young/Daly minimize.
pub fn waste_rate(interval: f64, checkpoint_time: f64, failure_rate: f64, restart: f64) -> f64 {
    checkpoint_time / interval + failure_rate * (interval / 2.0 + restart)
}

/// Numerically minimizes [`waste_rate`] over the interval by
/// golden-section search on `log τ`. Exists to cross-check the closed
/// form (`tests/properties.rs` pins agreement) and to stay correct if
/// the waste model ever grows terms without a closed-form optimum.
pub fn solve_optimal_interval(checkpoint_time: f64, failure_rate: f64, restart: f64) -> f64 {
    if failure_rate <= 0.0 {
        return f64::INFINITY;
    }
    if checkpoint_time <= 0.0 {
        return 0.0;
    }
    let (mut lo, mut hi) = (1e-9f64.ln(), 1e12f64.ln());
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let w = |x: f64| waste_rate(x.exp(), checkpoint_time, failure_rate, restart);
    for _ in 0..200 {
        let a = hi - phi * (hi - lo);
        let b = lo + phi * (hi - lo);
        if w(a) < w(b) {
            hi = b;
        } else {
            lo = a;
        }
    }
    ((lo + hi) / 2.0).exp()
}

/// Expected fraction of wall-clock time spent on useful work when
/// checkpointing every `τ` seconds of progress under failure rate `λ`
/// with restart overhead `R`: the checkpoint-overhead factor
/// `τ/(τ+C)` times the failure-availability factor
/// `1 − λ·(R + τ/2)` (each failure costs a restart plus half an
/// interval of rework on average), clamped to `[0, 1]`.
pub fn goodput_fraction(
    interval: f64,
    checkpoint_time: f64,
    failure_rate: f64,
    restart: f64,
) -> f64 {
    if failure_rate <= 0.0 {
        return 1.0;
    }
    let ckpt = if interval.is_finite() {
        interval / (interval + checkpoint_time)
    } else {
        1.0
    };
    let avail = 1.0 - failure_rate * (restart + interval.min(1.0 / failure_rate) / 2.0);
    (ckpt * avail).clamp(0.0, 1.0)
}

/// Expected compute-slowdown factor from stragglers: the synchronous
/// step is gated by the slowest of `n` GPUs, each independently slow
/// with probability `p` at factor `s`.
pub fn straggler_inflation(spec: &ReliabilitySpec, gpus: u64) -> f64 {
    let s = spec.straggler_slowdown.max(1.0);
    let p = spec.straggler_prob.clamp(0.0, 1.0);
    if p == 0.0 || s == 1.0 {
        return 1.0;
    }
    let p_any = 1.0 - (1.0 - p).powi(gpus.min(i32::MAX as u64) as i32);
    1.0 + p_any * (s - 1.0)
}

/// Expected slow-tier comm inflation from link degradation: a pipelined
/// ring runs at its narrowest link, so one degraded link among the
/// `slow_links` cross-domain links gates the whole collective.
pub fn degraded_comm_inflation(spec: &ReliabilitySpec, slow_links: u64) -> f64 {
    let duty = spec.link_degraded_duty();
    let phi = spec.link_degradation.clamp(f64::MIN_POSITIVE, 1.0);
    if duty == 0.0 || phi >= 1.0 {
        return 1.0;
    }
    let p_any = 1.0 - (1.0 - duty).powi(slow_links.min(i32::MAX as u64) as i32);
    1.0 + p_any * (1.0 / phi - 1.0)
}

/// The terms of [`assess`] that do not depend on the placement: the
/// failure rate, the two slowdown inflations, the checkpoint cost and the
/// Young/Daly interval and goodput fraction it implies. They read only
/// the GPU count, the per-writer checkpoint bytes and the context.
/// [`assess`] and the planner's goodput key bounds both take them from
/// here, so the fraction a bound uses is bit-identical to the evaluated
/// one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlacementFreeTerms {
    /// Whole-job hard-failure rate, per second.
    pub failure_rate: f64,
    /// Checkpoint drain time `C`, seconds.
    pub checkpoint_time: f64,
    /// Young/Daly optimal checkpoint interval, seconds.
    pub optimal_interval: f64,
    /// Goodput fraction at that interval.
    pub fraction: f64,
    /// [`straggler_inflation`] at this GPU count.
    pub straggler_inflation: f64,
    /// [`degraded_comm_inflation`] over this GPU count's cross-domain
    /// links.
    pub degraded_comm_inflation: f64,
}

/// Computes the [`PlacementFreeTerms`] of a `gpus`-GPU candidate whose
/// slowest checkpoint writer drains `checkpoint_bytes`.
pub(crate) fn placement_free_terms(
    gpus: u64,
    checkpoint_bytes: f64,
    ctx: &ObjectiveCtx,
) -> PlacementFreeTerms {
    let spec = &ctx.reliability;
    let domains = gpus.div_ceil(ctx.nvs_size.max(1)).max(1);
    let nics = domains * ctx.nics_per_node.max(1);
    let failure_rate = spec.system_failure_rate(gpus, nics);
    let checkpoint_time = if ctx.checkpoint_bandwidth > 0.0 {
        checkpoint_bytes / ctx.checkpoint_bandwidth
    } else {
        0.0
    };
    let optimal_interval = optimal_checkpoint_interval(checkpoint_time, failure_rate);
    PlacementFreeTerms {
        failure_rate,
        checkpoint_time,
        optimal_interval,
        fraction: goodput_fraction(
            optimal_interval,
            checkpoint_time,
            failure_rate,
            spec.restart_overhead_s,
        ),
        straggler_inflation: straggler_inflation(spec, gpus),
        degraded_comm_inflation: degraded_comm_inflation(spec, domains.saturating_sub(1).max(1)),
    }
}

/// Prices one evaluated candidate under the context's failure regime.
///
/// The context carries the [`ReliabilitySpec`] and the system geometry
/// ([`ObjectiveCtx::nvs_size`], [`ObjectiveCtx::nics_per_node`],
/// [`ObjectiveCtx::checkpoint_bandwidth`]); everything per-candidate —
/// GPU count, breakdown buckets, placement, memory shards — comes from
/// the [`Evaluation`].
pub fn assess(e: &Evaluation, ctx: &ObjectiveCtx) -> GoodputReport {
    let n = e.config.total_gpus();
    // Checkpoint cost: the slowest writer drains its own weight shard
    // (one DP replica writes weights; the others hold copies) plus its
    // ZeRO-1 optimizer shard (disjoint across all n GPUs) over the
    // per-NIC slow-tier path.
    let checkpoint_bytes = e.memory.weights + e.memory.optimizer;
    let terms = placement_free_terms(n, checkpoint_bytes, ctx);

    // Slowdown inflation. Compute-bound buckets are gated by the
    // slowest GPU; slow-tier-exposed comm buckets by the narrowest
    // cross-domain link. A comm bucket is exposed iff its group spans
    // NVS domains under this placement (the same criterion the
    // collective model uses to price the slow tier at all). The
    // pipeline bubble is left uninflated — it is idle time proportional
    // to per-stage time, a second-order coupling the fault-injected
    // simulator quantifies.
    let (s_infl, d_infl) = (terms.straggler_inflation, terms.degraded_comm_inflation);
    let b = &e.breakdown;
    let tp_exposed = e.config.tensor_parallel() > e.placement.v1 * e.placement.v2;
    let dp_exposed = e.config.nd > e.placement.vd;
    let pp_exposed = e.config.np > 1 && e.placement.vp < 2;
    let infl = |exposed: bool, t: f64| if exposed { t * d_infl } else { t };
    let effective_iteration_time = (b.compute + b.memory) * s_infl
        + b.pp_bubble
        + infl(tp_exposed, b.tp_comm)
        + infl(dp_exposed, b.dp_comm)
        + infl(pp_exposed, b.pp_comm);

    let tokens = (ctx.global_batch * ctx.seq_len) as f64;
    let tokens_per_gpu_second = if effective_iteration_time > 0.0 {
        tokens / (effective_iteration_time * n as f64) * terms.fraction
    } else {
        0.0
    };

    GoodputReport {
        failure_rate: terms.failure_rate,
        checkpoint_bytes,
        checkpoint_time: terms.checkpoint_time,
        optimal_interval: terms.optimal_interval,
        straggler_inflation: s_infl,
        degraded_comm_inflation: d_infl,
        effective_iteration_time,
        goodput_fraction: terms.fraction,
        tokens_per_gpu_second,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::best_placement_eval;
    use crate::{ParallelConfig, Planner, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_175b;

    fn eval_and_ctx(spec: ReliabilitySpec) -> (Evaluation, ObjectiveCtx) {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8).with_reliability(spec);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 512, 2);
        let e = best_placement_eval(&model, &cfg, 1024, &sys);
        let ctx = Planner::new(&model, &sys)
            .global_batch(1024)
            .objective_ctx();
        (e, ctx)
    }

    #[test]
    fn young_daly_closed_form() {
        // τ* = sqrt(2·C/λ), independent of the restart overhead.
        let (c, lambda) = (30.0, 1.0 / 12_000.0);
        let tau = optimal_checkpoint_interval(c, lambda);
        assert!((tau - (2.0 * c / lambda).sqrt()).abs() < 1e-9);
        for r in [0.0, 100.0, 3600.0] {
            let solved = solve_optimal_interval(c, lambda, r);
            assert!(
                (solved - tau).abs() / tau < 1e-6,
                "R={r}: {solved} vs {tau}"
            );
        }
    }

    #[test]
    fn interval_edge_cases() {
        assert_eq!(optimal_checkpoint_interval(30.0, 0.0), f64::INFINITY);
        assert_eq!(optimal_checkpoint_interval(0.0, 1e-4), 0.0);
        assert_eq!(solve_optimal_interval(30.0, 0.0, 0.0), f64::INFINITY);
        assert_eq!(goodput_fraction(f64::INFINITY, 30.0, 0.0, 600.0), 1.0);
    }

    #[test]
    fn goodput_fraction_degrades_gracefully() {
        // A regime failing faster than it can restart delivers nothing.
        let f = goodput_fraction(10.0, 30.0, 1.0, 600.0);
        assert_eq!(f, 0.0);
        // A mild regime is close to 1.
        let tau = optimal_checkpoint_interval(30.0, 1e-5);
        let g = goodput_fraction(tau, 30.0, 1e-5, 600.0);
        assert!(g > 0.95 && g < 1.0, "{g}");
    }

    #[test]
    fn failure_free_spec_reproduces_failure_free_throughput() {
        let (e, ctx) = eval_and_ctx(ReliabilitySpec::failure_free());
        let r = assess(&e, &ctx);
        assert_eq!(r.goodput_fraction, 1.0);
        assert_eq!(r.straggler_inflation, 1.0);
        assert_eq!(r.degraded_comm_inflation, 1.0);
        assert_eq!(r.effective_iteration_time, e.iteration_time);
        let ideal = (ctx.global_batch * ctx.seq_len) as f64
            / (e.iteration_time * e.config.total_gpus() as f64);
        assert_eq!(r.tokens_per_gpu_second, ideal);
    }

    #[test]
    fn datacenter_regime_costs_throughput_but_not_everything() {
        let (e, ctx) = eval_and_ctx(ReliabilitySpec::datacenter());
        let r = assess(&e, &ctx);
        assert!(r.goodput_fraction > 0.5 && r.goodput_fraction < 1.0);
        assert!(r.effective_iteration_time > e.iteration_time);
        assert!(r.failure_rate > 0.0);
        assert!(r.checkpoint_time > 0.0);
        assert!(r.optimal_interval.is_finite() && r.optimal_interval > 0.0);
        assert!(r.effective_days(1000.0).is_finite());
    }

    #[test]
    fn checkpoint_bytes_shrink_with_model_parallelism() {
        // The per-writer checkpoint is the GPU's own shard: more
        // tensor/pipeline parallelism ⇒ smaller shards ⇒ cheaper
        // checkpoints (the candidate-dependence the objective trades
        // on).
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let ctx = Planner::new(&model, &sys)
            .global_batch(1024)
            .objective_ctx();
        let wide = best_placement_eval(
            &model,
            &ParallelConfig::new(TpStrategy::OneD, 16, 1, 1, 256, 4),
            1024,
            &sys,
        );
        let narrow = best_placement_eval(
            &model,
            &ParallelConfig::new(TpStrategy::OneD, 4, 1, 1, 1024, 1),
            1024,
            &sys,
        );
        let (rw, rn) = (assess(&wide, &ctx), assess(&narrow, &ctx));
        assert!(rw.checkpoint_bytes < rn.checkpoint_bytes);
        assert!(rw.checkpoint_time < rn.checkpoint_time);
    }
}
