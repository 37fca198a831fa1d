//! Planning objectives: what a [`crate::Planner`] optimizes for.
//!
//! The paper's search minimizes iteration time only; the system-design-
//! insights chapter, however, weighs time against HBM headroom and
//! machine cost. [`Objective`] makes that trade-off a first-class,
//! serializable value: five *leaf* metrics plus two composition rules
//! (weighted sums and tolerance-based lexicographic refinement), all
//! scored against an ordinary [`Evaluation`].
//!
//! Every objective exposes two views of a candidate:
//!
//! * [`Objective::value`] — the metric in its natural units (seconds,
//!   days, tokens/s/GPU, bytes, GPU·s), for reporting;
//! * [`Objective::key`] — a *lower-is-better* scalar used for ranking and
//!   Pareto dominance (maximizing objectives negate their value).

use crate::evaluate::{CandidateBounds, Evaluation};
use crate::reliability::placement_free_terms;
use crate::serving::{ServingCtx, SloSpec};
use serde::{Deserialize, Serialize};
use systems::ReliabilitySpec;
use txmodel::TrainingWorkload;

/// Per-candidate scoring context: the space-level quantities a metric
/// needs beyond the [`Evaluation`] itself (the GPU count is *not* here —
/// it is a per-candidate property, `eval.config.total_gpus()`, so that
/// multi-scale spaces price cost objectives per candidate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveCtx {
    /// Global batch size the space was searched at (samples).
    pub global_batch: u64,
    /// Model sequence length (tokens per sample) for throughput metrics.
    pub seq_len: u64,
    /// Device HBM capacity in bytes for headroom metrics.
    pub hbm_capacity: f64,
    /// The system's failure regime, for the goodput metrics (inert under
    /// [`ReliabilitySpec::failure_free`]).
    pub reliability: ReliabilitySpec,
    /// GPUs per NVS domain, to count cross-domain links and NICs.
    pub nvs_size: u64,
    /// NICs per NVS domain, to scale NIC failure rates with job size.
    pub nics_per_node: u64,
    /// Bytes/s one checkpoint writer drains its shard at (the per-NIC
    /// effective slow-tier bandwidth — the DP-sync path).
    pub checkpoint_bandwidth: f64,
    /// The serving context (model + traffic + system) when the planner
    /// was configured with serving traffic; `None` on training-only
    /// sweeps, where the serving objectives score zero.
    pub serving: Option<ServingCtx>,
}

/// One term of a weighted-sum objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedTerm {
    /// The metric contributing to the sum.
    pub objective: Objective,
    /// Its weight (applied to the lower-is-better [`Objective::key`]).
    pub weight: f64,
}

/// One stage of a lexicographic objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LexStage {
    /// The metric this stage filters by.
    pub objective: Objective,
    /// Relative slack kept when passing candidates to the next stage: a
    /// candidate survives if its key is within `rel_tolerance · |best|`
    /// of the stage's best key. `0.0` keeps exact ties only. The last
    /// stage ranks instead of filtering, so its tolerance is unused.
    pub rel_tolerance: f64,
}

/// What the planner optimizes for. Leaf metrics mirror the paper's
/// reporting axes; [`Objective::Weighted`] and [`Objective::Lexicographic`]
/// compose them ("fastest within 10%, then cheapest").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Seconds per training iteration (the paper's S3 metric). Minimized.
    #[default]
    IterationTime,
    /// Wall-clock days for a full training run of `iterations` optimizer
    /// steps (the Fig. 5 y-axis). Minimized; build via
    /// [`Objective::training_days`].
    TrainingDays {
        /// Total optimizer iterations of the run.
        iterations: f64,
    },
    /// Training throughput per device: `global_batch · seq_len /
    /// (t_iter · n)`. Maximized.
    TokensPerGpuSecond,
    /// HBM slack per GPU: `capacity − used` bytes. Maximized — a proxy
    /// for robustness headroom (activation spikes, framework drift).
    HbmHeadroom,
    /// Machine cost per iteration: `n · t_iter` GPU-seconds. Minimized —
    /// on a multi-scale space this is what trades speed against fleet
    /// size.
    GpuSeconds,
    /// Weighted sum of the terms' lower-is-better keys. Minimized. The
    /// caller owns unit normalization — weights multiply raw keys.
    Weighted {
        /// The weighted terms.
        terms: Vec<WeightedTerm>,
    },
    /// Tolerance-based lexicographic refinement: stage 1 keeps every
    /// candidate within its tolerance of the stage-1 optimum, stage 2
    /// refines among those, and so on; the final stage ranks.
    Lexicographic {
        /// The refinement stages, primary first.
        stages: Vec<LexStage>,
    },
    /// Delivered training throughput under the system's failure regime:
    /// tokens per GPU-second *after* checkpoint overhead, failure
    /// rework, degraded links and stragglers
    /// (see [`crate::reliability`]). Maximized. Reduces exactly to
    /// [`Objective::TokensPerGpuSecond`] on a failure-free spec.
    ExpectedGoodput,
    /// Wall-clock days to *complete* `iterations` optimizer steps under
    /// the failure regime — [`Objective::TrainingDays`] divided by the
    /// expected goodput fraction, with slowdown-inflated iteration
    /// times. Minimized; `∞` when the regime delivers nothing.
    EffectiveTrainingDays {
        /// Total optimizer iterations of the run.
        iterations: f64,
    },
    /// Sustainable *serving* throughput per device: output tokens per
    /// GPU-second at the best prefill/decode placement
    /// ([`crate::serving::assess`]). Maximized. Requires serving traffic
    /// on the planner ([`crate::Planner::serving`]); scores 0 without it.
    TokensPerSecPerGpu,
    /// SLO-constrained serving: capacity throughput among plans meeting
    /// the latency targets, negated worst relative violation otherwise
    /// ([`crate::serving::ServingReport::slo_score`]), at the best
    /// prefill/decode placement under that score
    /// ([`crate::serving::assess_slo`]). Maximized.
    ServingSlo {
        /// The p50/p99 TTFT + TPOT targets.
        slo: SloSpec,
    },
}

impl Objective {
    /// Days-for-the-run objective from a workload description.
    pub fn training_days(workload: &TrainingWorkload) -> Self {
        Objective::TrainingDays {
            iterations: workload.iterations,
        }
    }

    /// Weighted-sum objective from `(objective, weight)` pairs.
    pub fn weighted(terms: impl IntoIterator<Item = (Objective, f64)>) -> Self {
        Objective::Weighted {
            terms: terms
                .into_iter()
                .map(|(objective, weight)| WeightedTerm { objective, weight })
                .collect(),
        }
    }

    /// Lexicographic objective from `(objective, rel_tolerance)` stages.
    pub fn lexicographic(stages: impl IntoIterator<Item = (Objective, f64)>) -> Self {
        Objective::Lexicographic {
            stages: stages
                .into_iter()
                .map(|(objective, rel_tolerance)| LexStage {
                    objective,
                    rel_tolerance,
                })
                .collect(),
        }
    }

    /// Sugar: refine `self` by `secondary` among candidates within
    /// `rel_tolerance` of the optimum — "best `self` up to `tolerance`,
    /// then best `secondary`". Chains by extending existing stages.
    pub fn then(self, rel_tolerance: f64, secondary: Objective) -> Self {
        let mut stages = match self {
            Objective::Lexicographic { stages } => stages,
            primary => vec![LexStage {
                objective: primary,
                rel_tolerance: 0.0,
            }],
        };
        if let Some(last) = stages.last_mut() {
            last.rel_tolerance = rel_tolerance;
        }
        stages.push(LexStage {
            objective: secondary,
            rel_tolerance: 0.0,
        });
        Objective::Lexicographic { stages }
    }

    /// True for metrics where larger natural values are better.
    pub fn maximize(&self) -> bool {
        matches!(
            self,
            Objective::TokensPerGpuSecond
                | Objective::HbmHeadroom
                | Objective::ExpectedGoodput
                | Objective::TokensPerSecPerGpu
                | Objective::ServingSlo { .. }
        )
    }

    /// Display name (figure legends, artifact columns).
    pub fn name(&self) -> String {
        match self {
            Objective::IterationTime => "iter (s)".into(),
            Objective::TrainingDays { .. } => "days".into(),
            Objective::TokensPerGpuSecond => "tokens/s/GPU".into(),
            Objective::HbmHeadroom => "HBM headroom (GB)".into(),
            Objective::GpuSeconds => "GPU-s/iter".into(),
            Objective::Weighted { terms } => {
                let parts: Vec<String> = terms
                    .iter()
                    .map(|t| format!("{}·{}", t.weight, t.objective.name()))
                    .collect();
                format!("weighted[{}]", parts.join(" + "))
            }
            Objective::Lexicographic { stages } => {
                let parts: Vec<String> = stages.iter().map(|s| s.objective.name()).collect();
                format!("lex[{}]", parts.join(" > "))
            }
            Objective::ExpectedGoodput => "goodput (tokens/s/GPU)".into(),
            Objective::EffectiveTrainingDays { .. } => "effective days".into(),
            Objective::TokensPerSecPerGpu => "serving tokens/s/GPU".into(),
            Objective::ServingSlo { .. } => "serving SLO score".into(),
        }
    }

    /// The metric in natural units (see the variant docs). Composite
    /// objectives report their ranking key: the weighted sum for
    /// [`Objective::Weighted`], the primary stage's value for
    /// [`Objective::Lexicographic`].
    pub fn value(&self, e: &Evaluation, ctx: &ObjectiveCtx) -> f64 {
        let n = e.config.total_gpus() as f64;
        match self {
            Objective::IterationTime => e.iteration_time,
            Objective::TrainingDays { iterations } => iterations * e.iteration_time / 86_400.0,
            Objective::TokensPerGpuSecond => {
                (ctx.global_batch * ctx.seq_len) as f64 / (e.iteration_time * n)
            }
            Objective::HbmHeadroom => ctx.hbm_capacity - e.memory.total(),
            Objective::GpuSeconds => n * e.iteration_time,
            Objective::Weighted { .. } => self.key(e, ctx),
            Objective::Lexicographic { stages } => match stages.first() {
                Some(s) => s.objective.value(e, ctx),
                None => 0.0,
            },
            Objective::ExpectedGoodput => crate::reliability::assess(e, ctx).tokens_per_gpu_second,
            Objective::EffectiveTrainingDays { iterations } => {
                crate::reliability::assess(e, ctx).effective_days(*iterations)
            }
            Objective::TokensPerSecPerGpu => match &ctx.serving {
                Some(s) => crate::serving::assess(e, s).tokens_per_gpu_second,
                None => 0.0,
            },
            Objective::ServingSlo { slo } => match &ctx.serving {
                Some(s) => crate::serving::assess_slo(e, s, slo).slo_score(slo),
                None => 0.0,
            },
        }
    }

    /// Lower-is-better ranking/dominance key: the natural value, negated
    /// for maximizing metrics. [`Objective::Weighted`] sums its terms'
    /// weighted keys; [`Objective::Lexicographic`] exposes its primary
    /// stage (the refinement itself happens in the planner's ranking).
    ///
    /// Every NaN key comes back as a *positive* NaN, which
    /// [`f64::total_cmp`] sorts after `+inf`. A NaN made at run time
    /// (`0·∞`, `∞−∞`) has its sign bit set on x86-64, and a negative NaN
    /// sorts before `-inf`: left as is, it would rank first and set the
    /// search's threshold (see [`crate::ord`]).
    pub fn key(&self, e: &Evaluation, ctx: &ObjectiveCtx) -> f64 {
        let key = match self {
            Objective::Weighted { terms } => terms
                .iter()
                .map(|t| t.weight * t.objective.key(e, ctx))
                .sum(),
            Objective::Lexicographic { stages } => match stages.first() {
                Some(s) => s.objective.key(e, ctx),
                None => 0.0,
            },
            leaf => {
                let v = leaf.value(e, ctx);
                if leaf.maximize() {
                    -v
                } else {
                    v
                }
            }
        };
        if key.is_nan() {
            // `abs` clears the sign bit; the constant's sign is unspecified.
            f64::NAN.abs()
        } else {
            key
        }
    }

    /// Admissible lower bound on [`Objective::key`] over every placement
    /// of the candidate described by `b`: the objective-to-bound mapping
    /// of the ranked branch-and-bound. Derivations and the admissibility
    /// argument live on [`CandidateBounds`]; the invariants are
    ///
    /// * `key_lower_bound(b) ≤ key(e)` for every evaluation `e` of that
    ///   candidate (up to the `PRUNE_EPS` slack the planner adds), and
    /// * when [`Objective::key_is_exact`] is true, the bound *equals* the
    ///   evaluated key bit-for-bit (it mirrors `key`'s expressions over
    ///   placement-independent inputs).
    ///
    /// Metrics with no admissible bound return `-inf`, which never
    /// prunes ([`crate::ord::exceeds_bound`] is IEEE `>`); NaN inputs
    /// propagate to a NaN bound, which never prunes either.
    ///
    /// The two serving metrics keep `-inf`. Their keys are not functions
    /// of the training iteration time that `time_lb` bounds:
    /// [`crate::serving::assess`] re-prices prefill and decode under the
    /// evaluation's placement, over a grid of colocated and disaggregated
    /// prefill/decode splits, and solves a Little's-law fixed point
    /// clamped to the KV-capacity ceiling. A lower bound on
    /// `TokensPerSecPerGpu`'s key is an upper bound on that capacity
    /// throughput over every placement and split, which needs a lower
    /// bound on the decode step of its own (for example the weight-read
    /// roofline, which no placement changes) and is not built here.
    /// `ServingSlo`'s key switches between that throughput and a
    /// worst relative SLO violation depending on whether the placement
    /// meets the targets, so no single monotone substitution bounds it.
    pub(crate) fn key_lower_bound(&self, b: &CandidateBounds, ctx: &ObjectiveCtx) -> f64 {
        #[cfg(test)]
        tally::bump(&tally::BOUNDS);
        match self {
            Objective::IterationTime => b.time_lb,
            Objective::TrainingDays { iterations } => {
                // Monotone in t only for non-negative run lengths (a NaN
                // length fails the guard and falls back to no-prune).
                if *iterations >= 0.0 {
                    iterations * b.time_lb / 86_400.0
                } else {
                    f64::NEG_INFINITY
                }
            }
            // key = −B·L/(t·n) is monotone non-decreasing in t, so
            // substituting `time_lb` bounds it below (a zero bound gives
            // −inf: harmless, never prunes). Mirrors `value`'s expression
            // shape so a mathematical tie stays a bitwise tie.
            Objective::TokensPerGpuSecond => {
                -((ctx.global_batch * ctx.seq_len) as f64 / (b.time_lb * b.gpus))
            }
            // Exact: memory is placement-independent.
            Objective::HbmHeadroom => -(ctx.hbm_capacity - b.memory_total),
            Objective::GpuSeconds => b.gpus * b.time_lb,
            // Term-wise composition; see [`CandidateBounds`] for why
            // non-positive weights demand an exact leaf key.
            Objective::Weighted { terms } => terms
                .iter()
                .map(|t| {
                    if t.weight > 0.0 || t.objective.key_is_exact() {
                        t.weight * t.objective.key_lower_bound(b, ctx)
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .sum(),
            // The lexicographic ranking key is the primary stage's key.
            Objective::Lexicographic { stages } => match stages.first() {
                Some(s) => s.objective.key_lower_bound(b, ctx),
                None => 0.0,
            },
            // Both keys are monotone in the effective iteration time,
            // which is at least `time_lb`, over an exact goodput fraction
            // (see [`CandidateBounds`]). The expressions mirror
            // `reliability::assess` and `GoodputReport::effective_days`.
            Objective::ExpectedGoodput => match exact_goodput_fraction(b, ctx) {
                None => f64::NAN,
                Some(f) if b.time_lb > 0.0 => {
                    -((ctx.global_batch * ctx.seq_len) as f64 / (b.time_lb * b.gpus) * f)
                }
                Some(_) => f64::NEG_INFINITY,
            },
            Objective::EffectiveTrainingDays { iterations } => {
                match exact_goodput_fraction(b, ctx) {
                    None => f64::NAN,
                    Some(f) if f > 0.0 && *iterations >= 0.0 => {
                        iterations * b.time_lb / (86_400.0 * f)
                    }
                    Some(f) if f > 0.0 => f64::NEG_INFINITY,
                    // Exact: the run never finishes on any placement.
                    Some(_) => f64::INFINITY,
                }
            }
            Objective::TokensPerSecPerGpu | Objective::ServingSlo { .. } => f64::NEG_INFINITY,
        }
    }

    /// True when [`Objective::key_lower_bound`] is not a bound but the
    /// *exact* evaluated key (bit-for-bit): the key depends only on
    /// placement-independent candidate facts. Required for composing
    /// bounds under non-positive weights.
    pub(crate) fn key_is_exact(&self) -> bool {
        match self {
            Objective::HbmHeadroom => true,
            Objective::Weighted { terms } => terms.iter().all(|t| t.objective.key_is_exact()),
            Objective::Lexicographic { stages } => {
                stages.first().is_none_or(|s| s.objective.key_is_exact())
            }
            _ => false,
        }
    }

    /// True when [`Objective::key_lower_bound`] can ever be informative
    /// (i.e. not identically `-inf`): the planner's cheap static gate for
    /// enabling the ranked branch-and-bound at all. A `true` here is
    /// *not* a soundness claim — that lives in `key_lower_bound` — only
    /// a "worth trying" signal.
    pub(crate) fn bounds_key(&self) -> bool {
        match self {
            Objective::IterationTime
            | Objective::TrainingDays { .. }
            | Objective::TokensPerGpuSecond
            | Objective::HbmHeadroom
            | Objective::GpuSeconds
            | Objective::ExpectedGoodput
            | Objective::EffectiveTrainingDays { .. } => true,
            Objective::TokensPerSecPerGpu | Objective::ServingSlo { .. } => false,
            Objective::Weighted { terms } => terms.iter().all(|t| {
                if t.weight > 0.0 {
                    t.objective.bounds_key()
                } else {
                    t.objective.key_is_exact()
                }
            }),
            Objective::Lexicographic { stages } => {
                stages.first().is_none_or(|s| s.objective.bounds_key())
            }
        }
    }

    /// The ranking stages, primary first, each with its relative
    /// tolerance: a lexicographic objective's stages, or a plain
    /// objective as its own single stage (its tolerance unused, as the
    /// last stage's is).
    pub(crate) fn stages(&self) -> Vec<(&Objective, f64)> {
        match self {
            Objective::Lexicographic { stages } => stages
                .iter()
                .map(|s| (&s.objective, s.rel_tolerance))
                .collect(),
            plain => vec![(plain, 0.0)],
        }
    }

    /// Ranks `idx` (indices into `keys`, in deterministic enumeration
    /// order) best-first under this objective, where `keys[i][s]` is
    /// candidate `i`'s [`Objective::key`] under stage `s` of
    /// [`Objective::stages`]. One tolerance-filter cascade: each stage
    /// but the last keeps the candidates within `rel_tolerance · |best|`
    /// of its best key, the last stage stable-sorts the survivors (ties
    /// keep enumeration order), and filtered-out candidates follow
    /// (later eliminations first, each stage's group ordered by the key
    /// that eliminated it), so the result is a total order over all of
    /// `idx`. A plain objective is one stage: a stable sort by its key.
    pub(crate) fn rank(&self, keys: &[&[f64]], idx: &[usize]) -> Vec<usize> {
        let stages = self.stages();
        let Some((_, filters)) = stages.split_last() else {
            return idx.to_vec();
        };
        let mut survivors: Vec<usize> = idx.to_vec();
        // Eliminated groups, in stage order; reversed on output.
        let mut eliminated: Vec<Vec<usize>> = Vec::new();
        for (s, &(_, rel_tolerance)) in filters.iter().enumerate() {
            let best = survivors
                .iter()
                .map(|&i| keys[i][s])
                .min_by(f64::total_cmp)
                .unwrap_or(0.0);
            let cut = best + rel_tolerance.max(0.0) * best.abs();
            let (keep, mut drop): (Vec<usize>, Vec<usize>) =
                survivors.iter().partition(|&&i| keys[i][s] <= cut);
            drop.sort_by(|&a, &b| keys[a][s].total_cmp(&keys[b][s]));
            eliminated.push(drop);
            survivors = keep;
        }
        let last = filters.len();
        survivors.sort_by(|&a, &b| keys[a][last].total_cmp(&keys[b][last]));
        survivors.extend(eliminated.into_iter().rev().flatten());
        survivors
    }
}

/// The goodput fraction of the candidate `b` describes, exact because it
/// reads only placement-independent inputs, or `None` when the straggler
/// or degraded-link inflation at its GPU count is NaN: a placement that
/// exposes a bucket to it then has a NaN goodput key, so the key bound
/// must be NaN too.
///
/// Computed once per [`CandidateBounds`] and cached there, so a run of
/// candidates that share `b`'s GPU count and checkpoint bytes, which the
/// planner's stage 1 bounds with one `CandidateBounds`, computes it once
/// (see [`CandidateBounds`]).
fn exact_goodput_fraction(b: &CandidateBounds, ctx: &ObjectiveCtx) -> Option<f64> {
    *b.goodput_fraction.get_or_init(|| {
        #[cfg(test)]
        tally::bump(&tally::FRACTIONS);
        let terms = placement_free_terms(b.gpus as u64, b.checkpoint_bytes, ctx);
        let nan_inflation =
            terms.straggler_inflation.is_nan() || terms.degraded_comm_inflation.is_nan();
        (!nan_inflation).then_some(terms.fraction)
    })
}

/// This thread's count of [`Objective::key_lower_bound`] calls, nested
/// ones included, and of the goodput fractions [`exact_goodput_fraction`]
/// computes, for the planner's stage-1 tests.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        pub(crate) static BOUNDS: Cell<u64> = const { Cell::new(0) };
        pub(crate) static FRACTIONS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn bump(counter: &'static LocalKey<Cell<u64>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    /// The two counts so far: bounds, then fractions.
    pub(crate) fn read() -> (u64, u64) {
        (BOUNDS.with(Cell::get), FRACTIONS.with(Cell::get))
    }
}

/// A reported metric value of one [`crate::Plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Score {
    /// The metric scored.
    pub objective: Objective,
    /// Its natural-units value ([`Objective::value`]).
    pub value: f64,
}
