//! Typed, declarative search-space description for the [`crate::Planner`].
//!
//! A [`SearchSpace`] spans *several* GPU counts (so cost-style objectives
//! can trade speed against fleet size) and *several* TP strategies in one
//! sweep, plus the per-candidate knobs (microbatch, interleave, ZeRO-3,
//! SUMMA panels, expert parallelism) and declarative bounds on the
//! pipeline/data/tensor-parallel degrees. It is plain serializable data —
//! user *predicates* (arbitrary closures over candidates) live on the
//! [`crate::Planner`] itself, which is why the space round-trips through
//! JSON while a configured planner does not.

use crate::config::TpStrategy;
use collectives::Algorithm;
use serde::{Deserialize, Serialize};

/// The declarative part of a planning problem: which candidates exist.
///
/// Built with named, chainable setters over a documented default set, so
/// every argument's role is visible at the call site:
///
/// ```
/// use perfmodel::{SearchSpace, TpStrategy};
/// let space = SearchSpace::new()
///     .gpus(512)
///     .global_batch(4096)
///     .strategy(TpStrategy::OneD)
///     .max_interleave(4);
/// assert_eq!(space.gpu_counts, [512]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Total-GPU counts searched (one sub-space per count). Default
    /// `[512]`.
    pub gpu_counts: Vec<u64>,
    /// Global batch size `b` in samples. Default `4096`.
    pub global_batch: u64,
    /// Tensor-parallel strategies searched. Default [`TpStrategy::OneD`].
    pub strategies: Vec<TpStrategy>,
    /// Largest SUMMA panel count tried (powers of two). Default `16`.
    pub max_summa_panels: u64,
    /// Upper bound on the microbatch size. Default `16`.
    pub max_microbatch: u64,
    /// Largest interleaved-pipeline degree tried (powers of two).
    /// Default `1` (the paper's non-interleaved 1F1B baseline).
    pub max_interleave: u64,
    /// Also try ZeRO-3 weight sharding per candidate. Default `false`.
    pub allow_zero3: bool,
    /// Largest expert-parallel degree tried (MoE models). Default
    /// unbounded.
    pub max_expert_parallel: u64,
    /// Upper bound on pipeline stages `np`. Default unbounded.
    pub max_pipeline: u64,
    /// Upper bound on data-parallel replicas `nd`. Default unbounded.
    pub max_data_parallel: u64,
    /// Upper bound on the total tensor-parallel degree `n1·n2`. Default
    /// unbounded.
    pub max_tensor_parallel: u64,
    /// AllReduce algorithm policy candidates are priced under. Default
    /// [`Algorithm::Auto`].
    pub comm_algo: Algorithm,
    /// Lets the search skip candidates that provably cannot enter the
    /// result (see [`SearchSpace::prune`]). Exact; default `true`.
    pub prune: bool,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            gpu_counts: vec![512],
            global_batch: 4096,
            strategies: vec![TpStrategy::OneD],
            max_summa_panels: 16,
            max_microbatch: 16,
            max_interleave: 1,
            allow_zero3: false,
            max_expert_parallel: u64::MAX,
            max_pipeline: u64::MAX,
            max_data_parallel: u64::MAX,
            max_tensor_parallel: u64::MAX,
            comm_algo: Algorithm::Auto,
            prune: true,
        }
    }
}

impl SearchSpace {
    /// The default space (see the field docs for the default set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches a single GPU count.
    pub fn gpus(mut self, n: u64) -> Self {
        self.gpu_counts = vec![n];
        self
    }

    /// Searches several GPU counts in one space (deduplicated, order
    /// preserved) — the axis cost objectives trade against.
    pub fn gpu_counts(mut self, counts: impl IntoIterator<Item = u64>) -> Self {
        self.gpu_counts = Vec::new();
        for n in counts {
            if !self.gpu_counts.contains(&n) {
                self.gpu_counts.push(n);
            }
        }
        self
    }

    /// Sets the global batch size.
    pub fn global_batch(mut self, b: u64) -> Self {
        self.global_batch = b;
        self
    }

    /// Searches a single TP strategy.
    pub fn strategy(mut self, s: TpStrategy) -> Self {
        self.strategies = vec![s];
        self
    }

    /// Searches several TP strategies in one space (deduplicated, order
    /// preserved).
    pub fn strategies(mut self, ss: impl IntoIterator<Item = TpStrategy>) -> Self {
        self.strategies = Vec::new();
        for s in ss {
            if !self.strategies.contains(&s) {
                self.strategies.push(s);
            }
        }
        self
    }

    /// Sets the largest SUMMA panel count tried.
    pub fn max_summa_panels(mut self, nb: u64) -> Self {
        self.max_summa_panels = nb;
        self
    }

    /// Sets the microbatch-size upper bound.
    pub fn max_microbatch(mut self, bm: u64) -> Self {
        self.max_microbatch = bm;
        self
    }

    /// Sets the largest interleaved-pipeline degree tried.
    pub fn max_interleave(mut self, v: u64) -> Self {
        self.max_interleave = v;
        self
    }

    /// Also sweeps ZeRO-3 weight sharding.
    pub fn allow_zero3(mut self, yes: bool) -> Self {
        self.allow_zero3 = yes;
        self
    }

    /// Bounds the expert-parallel degree (MoE models).
    pub fn max_expert_parallel(mut self, ep: u64) -> Self {
        self.max_expert_parallel = ep;
        self
    }

    /// Bounds the pipeline-parallel degree `np`.
    pub fn max_pipeline(mut self, np: u64) -> Self {
        self.max_pipeline = np;
        self
    }

    /// Bounds the data-parallel degree `nd`.
    pub fn max_data_parallel(mut self, nd: u64) -> Self {
        self.max_data_parallel = nd;
        self
    }

    /// Bounds the total tensor-parallel degree `n1·n2`.
    pub fn max_tensor_parallel(mut self, nt: u64) -> Self {
        self.max_tensor_parallel = nt;
        self
    }

    /// Sets the AllReduce algorithm pricing policy.
    pub fn comm_algo(mut self, algo: Algorithm) -> Self {
        self.comm_algo = algo;
        self
    }

    /// Enables or disables pruning (default on). With pruning on, the
    /// search evaluates the lowest-bound candidates first and skips every
    /// candidate whose admissible lower bound proves it can enter
    /// neither the ranked top-k nor the Pareto frontier. The prune is
    /// exact — every result is bit-identical with it off — so the switch
    /// only trades time; turn it off to measure the raw sweep. Queries
    /// that cannot prune evaluate every candidate either way:
    /// [`crate::Planner::evaluations`], planners that keep infeasible
    /// candidates, and the two objectives without an admissible bound,
    /// [`crate::Objective::TokensPerSecPerGpu`] and
    /// [`crate::Objective::ServingSlo`]. Every training objective prunes,
    /// the goodput pair included. No query prunes on a network that
    /// [`crate::planner::validate_system`] rejects (a bandwidth that is
    /// not positive and finite, a latency that is negative or not
    /// finite): the time bound assumes every collective time is finite
    /// and non-negative, so every candidate of such a system is
    /// evaluated. The reliability fields do not gate pruning.
    pub fn prune(mut self, yes: bool) -> Self {
        self.prune = yes;
        self
    }

    /// True if the declarative degree bounds are all unbounded (the
    /// enumeration can skip the retain pass).
    pub(crate) fn unbounded_degrees(&self) -> bool {
        self.max_pipeline == u64::MAX
            && self.max_data_parallel == u64::MAX
            && self.max_tensor_parallel == u64::MAX
    }
}
