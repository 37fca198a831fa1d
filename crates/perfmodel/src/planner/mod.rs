//! The composable planning surface over the S3 design-space search.
//!
//! [`Planner`] is one builder that composes:
//!
//! * a typed [`SearchSpace`] — GPU counts, batch, TP strategies,
//!   microbatch/interleave/ZeRO/expert knobs, pp/dp/tp degree bounds —
//!   plus arbitrary user [`Planner::constrain`] predicates;
//! * an [`Objective`] — iteration time, training days, tokens/s/GPU, HBM
//!   headroom, GPU-seconds cost, or weighted/lexicographic combinations;
//! * execution over the rayon pool against a build-once [`ProfileCache`],
//!   bit-identical across thread counts;
//!
//! into a [`PlanSet`]: the top-k ranked [`Plan`]s **and** the exact
//! Pareto frontier across the selected objectives, fully serializable.
//!
//! # One search pipeline
//!
//! Every entry point runs the same pipeline and differs only in the
//! query it poses:
//!
//! | Entry point | Query |
//! |---|---|
//! | [`Planner::execute`] | the configured objective and `top_k`, frontier across the Pareto objectives |
//! | [`Planner::best_evaluation`] | top 1 by iteration time, no frontier |
//! | [`Planner::evaluations`] | pruning off: every candidate |
//!
//! 1. **Assess** (parallel): the placement-independent memory ledger
//!    gates each candidate on HBM; when the query can prune, admissible
//!    lower bounds on the ranking key and on every frontier key
//!    (`Objective::key_lower_bound` over
//!    `evaluate::iteration_time_lower_bound`) come with it.
//! 2. **Seed**: the `top_k` lowest-bound candidates are evaluated
//!    unconditionally; their keys set the k-th-best threshold
//!    ([`crate::ord::TopkIncumbent`]).
//! 3. **Eliminate**: every other candidate is dropped when its bound is
//!    past that threshold, past the primary-stage cut of a lexicographic
//!    objective, and — only when a frontier is asked for — its bound
//!    vector is strictly dominated by an evaluated point. A NaN bound
//!    never prunes ([`crate::ord::exceeds_bound`]).
//! 4. **Sweep** (parallel): the survivors are evaluated best-first, each
//!    checked once more against the live threshold and frontier archive.
//! 5. **Reassemble** the evaluations in enumeration order.
//!
//! Every prune is exact: a skipped candidate provably cannot enter the
//! top-k or the frontier, so every result is bit-identical to the
//! unpruned sweep's ([`SearchSpace::prune`]). Races on the shared
//! threshold only change *which redundant work is skipped*. Each stage
//! evaluates its batch with one work item per candidate, or — when the
//! batch is too small to occupy the pool — one per `(candidate,
//! placement)` pair. Skip counts are reported through
//! [`crate::search_stats`].
//!
//! ```
//! use perfmodel::{Objective, Planner, TpStrategy};
//! use systems::{system, GpuGeneration, NvsSize};
//! use txmodel::gpt3_175b;
//!
//! let model = gpt3_175b().config;
//! let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
//! let plans = Planner::new(&model, &sys)
//!     .gpus(256)
//!     .global_batch(1024)
//!     .strategy(TpStrategy::OneD)
//!     .top_k(4)
//!     .pareto([Objective::IterationTime, Objective::HbmHeadroom])
//!     .execute();
//! let best = plans.best().expect("a feasible configuration exists");
//! assert!(best.eval.iteration_time > 0.0);
//! assert!(!plans.pareto.is_empty());
//! ```

mod objective;
mod plan;
mod space;
mod validate;

pub use objective::{LexStage, Objective, ObjectiveCtx, Score, WeightedTerm};
pub use plan::{Plan, PlanSet};
pub use space::SearchSpace;
pub use validate::{validate_system, ConfigError, MAX_GPU_COUNTS, MAX_SCALE};

use crate::config::{ParallelConfig, Placement};
use crate::evaluate::{
    evaluate_placement, iteration_time_lower_bound, placement_breakdown, CandidateBounds,
    Evaluation,
};
use crate::memory::{inference_memory_usage, memory_usage, MemoryUsage};
use crate::ord;
use crate::partition::cache::{
    note_bound_pruned, note_dominated_pruned, note_topk_pruned, system_fingerprint,
};
use crate::partition::{build_profile, ProfileCache};
use crate::placement::enumerate_placements;
use crate::search::{best_placement_with_memory, enumerate_partitions};
use plan::{pareto_frontier, plan_of};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use systems::SystemSpec;
use txmodel::{InferenceConfig, TransformerConfig};

/// Relative slack on every lower-bound-vs-threshold comparison: a
/// candidate is pruned only when its bound exceeds the threshold by more
/// than `PRUNE_EPS` relative. The bound and the evaluation assemble the
/// same terms in different floating-point orders (bucketed sum vs
/// `m·(tf+tb)`), so a mathematical tie can differ by a few ulps; the
/// slack turns those ties into evaluations instead of prunes, keeping the
/// result bit-identical to the unpruned sweep.
const PRUNE_EPS: f64 = 1e-9;

/// Batch-size threshold below which a batch is fanned out over
/// `(candidate, placement)` pairs instead of candidates (in units of the
/// current thread count).
const FANOUT_FACTOR: usize = 4;

/// Widens `bound` upward by the relative [`PRUNE_EPS`] slack (identity on
/// non-finite bounds). Ranking keys may be negative (maximizing
/// objectives negate, a weighted sum can land anywhere), so the slack is
/// applied through `|bound|`: `bound · (1 + PRUNE_EPS)` would *tighten* a
/// negative bound.
fn relax_up(bound: f64) -> f64 {
    if bound.is_finite() {
        bound + PRUNE_EPS * bound.abs()
    } else {
        bound
    }
}

/// Narrows `bound` downward by the relative [`PRUNE_EPS`] slack (identity
/// on non-finite bounds) — the dominance-side margin: a point only counts
/// as beating a lower bound when it clears it by more than float rounding
/// could explain.
fn relax_down(bound: f64) -> f64 {
    if bound.is_finite() {
        bound - PRUNE_EPS * bound.abs()
    } else {
        bound
    }
}

/// Shared archive of evaluated candidates' exact frontier key vectors —
/// the pipeline's dominance oracle, kept frontier-filtered so it stays
/// small. Workers race on it through a mutex; a stale read only misses a
/// prune, never fabricates one.
#[derive(Default)]
struct DominanceArchive {
    points: Mutex<Vec<Vec<f64>>>,
}

impl DominanceArchive {
    /// True when some evaluated point beats `lb` strictly in *every*
    /// component by more than the [`PRUNE_EPS`] margin. The candidate's
    /// true key vector is componentwise ≥ `lb` (up to rounding the margin
    /// absorbs), so it is strictly dominated by that point and can never
    /// sit on the Pareto frontier — and because dominance is transitive,
    /// dropping it cannot promote any other point onto the frontier
    /// either. NaN or `-inf` components make every comparison false:
    /// vacuous bounds never prune.
    fn strictly_covers(&self, lb: &[f64]) -> bool {
        let points = self.points.lock().unwrap_or_else(|e| e.into_inner());
        points
            .iter()
            .any(|p| p.len() == lb.len() && p.iter().zip(lb).all(|(&pj, &lj)| pj < relax_down(lj)))
    }

    /// Records one evaluated point's exact key vector, dropping it if an
    /// archived point already dominates it and evicting points it
    /// dominates (IEEE dominance, same predicate as the final frontier).
    /// Eviction never shrinks what the archive covers: the evicting
    /// point is componentwise no worse than the evicted one.
    fn insert(&self, kv: Vec<f64>) {
        let dominates = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
        };
        let mut points = self.points.lock().unwrap_or_else(|e| e.into_inner());
        if points.iter().any(|p| dominates(p, &kv)) {
            return;
        }
        points.retain(|p| !dominates(&kv, p));
        points.push(kv);
    }
}

/// One question posed to the search pipeline (`Planner::search`).
struct Query<'q> {
    /// Ranking objective: its k-th-best key is the pruning threshold.
    objective: &'q Objective,
    /// How many ranked candidates the query retains (the seed count).
    top_k: usize,
    /// Objectives spanning the frontier. Empty when no frontier is asked
    /// for, which skips the dominance test and its archive.
    frontier: &'q [Objective],
    /// Keep memory-infeasible candidates; such a query never prunes.
    keep_infeasible: bool,
    /// Whether the query may skip candidates at all.
    prune: bool,
    ctx: &'q ObjectiveCtx,
}

/// A candidate past the memory gate, with its stage-1 assessment.
struct Candidate {
    /// Position in the enumeration.
    index: usize,
    memory: MemoryUsage,
    /// Admissible lower bound on the ranking key (`-inf` when the query
    /// does not prune).
    rank_lb: f64,
    /// Admissible lower bounds on the frontier keys, in query order.
    frontier_lb: Vec<f64>,
}

/// What the pipeline returns for one [`Query`].
struct Sweep {
    /// Every evaluated candidate, in enumeration order.
    evals: Vec<Evaluation>,
    /// Candidates past the memory gate, evaluated or skipped.
    candidates: u64,
    /// Of those, the ones that fit in HBM.
    feasible: u64,
}

/// The serializable part of a planner: everything except the model/system
/// borrows and the constraint closures. Round-trips through JSON so a
/// planning problem can be stored, diffed and replayed
/// ([`Planner::from_config`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The candidate space.
    pub space: SearchSpace,
    /// The ranking objective.
    pub objective: Objective,
    /// Objectives spanning the Pareto frontier; empty means "frontier of
    /// the ranking objective alone".
    pub pareto: Vec<Objective>,
    /// How many ranked plans [`PlanSet::top`] retains.
    pub top_k: usize,
    /// Keep memory-infeasible candidates in the sweep (flagged, never
    /// ranked). `false` — the default — drops them before placement
    /// enumeration.
    pub include_infeasible: bool,
    /// Serving traffic for the inference objectives. When set, the
    /// memory gate switches from the training ledger to the inference
    /// ledger ([`crate::memory::inference_memory_usage`] at batch 1, p99
    /// context) and [`ObjectiveCtx::serving`] is populated so
    /// [`Objective::TokensPerSecPerGpu`]/[`Objective::ServingSlo`] can
    /// score. `None` — the default — plans exactly as before.
    pub serving: Option<InferenceConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            space: SearchSpace::default(),
            objective: Objective::default(),
            pareto: Vec::new(),
            top_k: 8,
            include_infeasible: false,
            serving: None,
        }
    }
}

type Constraint = Arc<dyn Fn(&ParallelConfig) -> bool + Send + Sync>;

/// Builder-style planner over one `(model, system)` pair. See the
/// [module docs](self) for the full tour.
#[derive(Clone)]
pub struct Planner<'a> {
    model: &'a TransformerConfig,
    system: &'a SystemSpec,
    config: PlannerConfig,
    constraints: Vec<Constraint>,
}

impl<'a> Planner<'a> {
    /// A planner with the default [`PlannerConfig`] (512 GPUs, batch
    /// 4096, 1D TP, iteration-time objective, top-8).
    pub fn new(model: &'a TransformerConfig, system: &'a SystemSpec) -> Self {
        Self::from_config(model, system, PlannerConfig::default())
    }

    /// Rebuilds a planner from a serialized [`PlannerConfig`] (constraint
    /// closures cannot be serialized and start empty).
    pub fn from_config(
        model: &'a TransformerConfig,
        system: &'a SystemSpec,
        config: PlannerConfig,
    ) -> Self {
        Self {
            model,
            system,
            config,
            constraints: Vec::new(),
        }
    }

    /// The declarative state (serializable; constraints excluded).
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Replaces the whole candidate space.
    pub fn space(mut self, space: SearchSpace) -> Self {
        self.config.space = space;
        self
    }

    /// Edits the candidate space in place:
    /// `planner.with_space(|s| s.max_interleave(4))`.
    pub fn with_space(mut self, f: impl FnOnce(SearchSpace) -> SearchSpace) -> Self {
        self.config.space = f(self.config.space);
        self
    }

    /// Shorthand for [`SearchSpace::gpus`] on the current space.
    pub fn gpus(self, n: u64) -> Self {
        self.with_space(|s| s.gpus(n))
    }

    /// Shorthand for [`SearchSpace::gpu_counts`] on the current space.
    pub fn gpu_counts(self, counts: impl IntoIterator<Item = u64>) -> Self {
        self.with_space(|s| s.gpu_counts(counts))
    }

    /// Shorthand for [`SearchSpace::global_batch`] on the current space.
    pub fn global_batch(self, b: u64) -> Self {
        self.with_space(|s| s.global_batch(b))
    }

    /// Shorthand for [`SearchSpace::strategy`] on the current space.
    pub fn strategy(self, s: crate::TpStrategy) -> Self {
        self.with_space(|sp| sp.strategy(s))
    }

    /// Shorthand for [`SearchSpace::strategies`] on the current space.
    pub fn strategies(self, ss: impl IntoIterator<Item = crate::TpStrategy>) -> Self {
        self.with_space(|sp| sp.strategies(ss))
    }

    /// Sets the ranking objective.
    pub fn objective(mut self, o: Objective) -> Self {
        self.config.objective = o;
        self
    }

    /// Selects the objectives the Pareto frontier spans.
    pub fn pareto(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        self.config.pareto = objectives.into_iter().collect();
        self
    }

    /// Sets how many ranked plans to retain.
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.top_k = k;
        self
    }

    /// Keeps memory-infeasible candidates in [`Planner::evaluations`]
    /// (flagged `feasible: false`; never ranked or dominated).
    pub fn include_infeasible(mut self, yes: bool) -> Self {
        self.config.include_infeasible = yes;
        self
    }

    /// Plans for *serving* the model under the given traffic: the memory
    /// gate uses the inference ledger (weights + KV working set, no
    /// gradients/optimizer) and the serving objectives
    /// ([`Objective::TokensPerSecPerGpu`], [`Objective::ServingSlo`])
    /// become scoreable.
    pub fn serving(mut self, traffic: InferenceConfig) -> Self {
        self.config.serving = Some(traffic);
        self
    }

    /// Shorthand for [`SearchSpace::prune`] on the current space.
    pub fn prune(self, yes: bool) -> Self {
        self.with_space(|s| s.prune(yes))
    }

    /// Adds a user constraint predicate; candidates failing any predicate
    /// are dropped before evaluation (e.g. "no cross-domain TP":
    /// `.constrain(|c| c.tensor_parallel() <= 8)`).
    pub fn constrain(
        mut self,
        pred: impl Fn(&ParallelConfig) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Arc::new(pred));
        self
    }

    /// The scoring context shared by every candidate of this space. The
    /// reliability fields feed the goodput objectives only; the
    /// checkpoint bandwidth is the per-NIC effective slow-tier rate —
    /// the same path the DP gradient sync drains over.
    pub fn objective_ctx(&self) -> ObjectiveCtx {
        ObjectiveCtx {
            global_batch: self.config.space.global_batch,
            seq_len: self.model.seq_len,
            hbm_capacity: self.system.gpu.hbm_capacity,
            reliability: self.system.reliability,
            nvs_size: self.system.nvs_size,
            nics_per_node: self.system.nics_per_node,
            checkpoint_bandwidth: self.system.network.effective_ib_bandwidth(1),
            serving: self
                .config
                .serving
                .map(|traffic| crate::serving::ServingCtx {
                    model: *self.model,
                    traffic,
                    system: self.system.clone(),
                }),
        }
    }

    /// The memory ledger gating this planner's candidates: the training
    /// ledger at the space's global batch, or — when serving traffic is
    /// configured — the inference ledger (weights + KV working set) at
    /// batch 1 and the traffic's p99 context. The serving gate is
    /// deliberately the *minimum viable residency* (one worst-case
    /// sequence): the real continuous-batching ceiling is enforced
    /// downstream by [`crate::serving::assess`] via
    /// [`crate::memory::max_kv_batch`], which zeroes the throughput of
    /// plans that only fit trivial batches.
    fn candidate_memory(
        &self,
        profile: &crate::plan::LayerProfile,
        cfg: &ParallelConfig,
        global_batch: u64,
    ) -> MemoryUsage {
        match &self.config.serving {
            Some(traffic) => {
                inference_memory_usage(profile, self.model, cfg, 1, traffic.p99_context())
            }
            None => memory_usage(profile, self.model, cfg, global_batch),
        }
    }

    /// Enumerates the candidate configurations of the space (every
    /// `(gpus, strategy)` sub-space in declaration order), with degree
    /// bounds and user constraints applied. Deterministic.
    pub fn candidates(&self) -> Vec<ParallelConfig> {
        let space = &self.config.space;
        // Dedup the axes here rather than trusting the setters: a
        // PlannerConfig replayed from JSON ([`Planner::from_config`]) can
        // carry duplicates, which would double-evaluate sub-spaces and
        // fill top-k slots with identical plans.
        let mut strategies = Vec::new();
        for &s in &space.strategies {
            if !strategies.contains(&s) {
                strategies.push(s);
            }
        }
        let mut gpu_counts = Vec::new();
        for &n in &space.gpu_counts {
            if !gpu_counts.contains(&n) {
                gpu_counts.push(n);
            }
        }
        let mut out = Vec::new();
        for &strategy in &strategies {
            for &gpus in &gpu_counts {
                out.extend(enumerate_partitions(self.model, space, gpus, strategy));
            }
        }
        if !space.unbounded_degrees() {
            out.retain(|c| {
                c.np <= space.max_pipeline
                    && c.nd <= space.max_data_parallel
                    && c.tensor_parallel() <= space.max_tensor_parallel
            });
        }
        for pred in &self.constraints {
            out.retain(|c| pred(c));
        }
        out
    }

    /// The evaluated sweep: every candidate under its best placement, in
    /// enumeration order, bit-identical across thread counts — the search
    /// pipeline with pruning off. Memory-infeasible candidates are
    /// dropped before placement enumeration unless
    /// [`Planner::include_infeasible`] is set.
    pub fn evaluations(&self) -> Vec<Evaluation> {
        let ctx = self.objective_ctx();
        self.search(&Query {
            objective: &self.config.objective,
            top_k: self.config.top_k,
            frontier: &[],
            keep_infeasible: self.config.include_infeasible,
            prune: false,
            ctx: &ctx,
        })
        .evals
    }

    /// The single fastest feasible candidate, or `None` when nothing fits
    /// in HBM: the pipeline's "top 1 by iteration time, no frontier"
    /// query. Bit-identical to
    /// `evaluations().into_iter().filter(|e| e.feasible).min_by(time)` —
    /// the first minimum in enumeration order — for any thread count,
    /// pruned or not, but with pruning on (the default) it evaluates a
    /// small fraction of the space.
    ///
    /// Skips are reported through [`crate::search_stats`]: candidates
    /// eliminated against the seed count as `dominated_pruned`, skips in
    /// the sweep as `bound_pruned`.
    pub fn best_evaluation(&self) -> Option<Evaluation> {
        let ctx = self.objective_ctx();
        self.search(&Query {
            objective: &Objective::IterationTime,
            top_k: 1,
            frontier: &[],
            keep_infeasible: false,
            prune: self.config.space.prune,
            ctx: &ctx,
        })
        .evals
        .into_iter()
        .min_by(|a, b| ord::time_cmp(a.iteration_time, b.iteration_time))
    }

    /// The search pipeline behind every entry point; the module docs
    /// describe its five stages.
    fn search(&self, q: &Query) -> Sweep {
        let partitions = self.candidates();
        let cache = ProfileCache::build(self.model, &self.system.gpu, &partitions);
        let global_batch = self.config.space.global_batch;
        let hbm = self.system.gpu.hbm_capacity;
        let sys_fp = system_fingerprint(self.system);
        let prune = q.prune
            && !q.keep_infeasible
            && q.objective.bounds_key()
            && q.frontier.iter().all(Objective::bounds_key);

        // Stage 1 (assess, parallel).
        let assessed: Vec<Option<(MemoryUsage, f64, Vec<f64>)>> = partitions
            .par_iter()
            .map(|cfg| {
                let (profile, fps) = cache.get_with_fps(cfg);
                let memory = self.candidate_memory(profile, cfg, global_batch);
                if !q.keep_infeasible && !memory.fits(hbm) {
                    return None;
                }
                if !prune {
                    return Some((memory, f64::NEG_INFINITY, Vec::new()));
                }
                let b = CandidateBounds {
                    time_lb: iteration_time_lower_bound(
                        profile,
                        self.model,
                        cfg,
                        global_batch,
                        self.system,
                        sys_fp,
                        *fps,
                    ),
                    memory_total: memory.total(),
                    gpus: cfg.total_gpus() as f64,
                };
                let frontier_lb = q
                    .frontier
                    .iter()
                    .map(|o| o.key_lower_bound(&b, q.ctx))
                    .collect();
                Some((memory, q.objective.key_lower_bound(&b, q.ctx), frontier_lb))
            })
            .collect();
        let mut work: Vec<Candidate> = assessed
            .into_iter()
            .enumerate()
            .filter_map(|(index, a)| {
                a.map(|(memory, rank_lb, frontier_lb)| Candidate {
                    index,
                    memory,
                    rank_lb,
                    frontier_lb,
                })
            })
            .collect();
        let candidates = work.len() as u64;
        let feasible = work.iter().filter(|c| c.memory.fits(hbm)).count() as u64;
        if !prune {
            let evals = self.evaluate_batch(&partitions, &cache, &work, &|_| false, &|_| {});
            return Sweep {
                evals: evals.into_iter().map(|(_, e)| e).collect(),
                candidates,
                feasible,
            };
        }

        // Stage 2 (seed): the top_k smallest bounds, ties broken by
        // enumeration index — a total order, so the seed set is
        // deterministic.
        let by_bound = |a: &Candidate, b: &Candidate| {
            ord::time_cmp(a.rank_lb, b.rank_lb).then(a.index.cmp(&b.index))
        };
        let k = q.top_k.min(work.len());
        if k > 0 && k < work.len() {
            work.select_nth_unstable_by(k - 1, by_bound);
        }
        let mut rest = work.split_off(k);
        let topk = ord::TopkIncumbent::new(q.top_k);
        let archive = (!q.frontier.is_empty()).then(DominanceArchive::default);
        let publish = |e: &Evaluation| {
            topk.publish(q.objective.key(e, q.ctx));
            if let Some(archive) = &archive {
                archive.insert(q.frontier.iter().map(|o| o.key(e, q.ctx)).collect());
            }
        };
        let mut evaluated = self.evaluate_batch(&partitions, &cache, &work, &|_| false, &publish);

        // A candidate may be skipped once at least k evaluated candidates
        // outrank it. For a multi-stage lexicographic objective its bound
        // must also clear the primary stage's tolerance cut above the
        // best key: a candidate inside the band survives to later stages,
        // where no admissible bound exists. The cut `b + tol·|b|` is
        // monotone in `b` only for `tol ≤ 1`; wider tolerances never
        // prune.
        let lex_cut_tol = match q.objective {
            Objective::Lexicographic { stages } if stages.len() > 1 => {
                Some(stages[0].rel_tolerance.max(0.0))
            }
            _ => None,
        };
        let prunable = |c: &Candidate| {
            ord::exceeds_bound(c.rank_lb, relax_up(topk.threshold()))
                && match lex_cut_tol {
                    None => true,
                    Some(tol) if tol <= 1.0 => {
                        let best = topk.best();
                        ord::exceeds_bound(c.rank_lb, relax_up(best + tol * best.abs()))
                    }
                    Some(_) => false,
                }
                && archive
                    .as_ref()
                    .is_none_or(|a| a.strictly_covers(&c.frontier_lb))
        };

        // Stage 3 (eliminate against the seeds' threshold).
        let before = rest.len();
        rest.retain(|c| !prunable(c));
        let eliminated = (before - rest.len()) as u64;

        // Stage 4 (sweep the survivors best-first, parallel).
        rest.sort_unstable_by(by_bound);
        let swept = self.evaluate_batch(&partitions, &cache, &rest, &prunable, &publish);
        let skipped = (rest.len() - swept.len()) as u64;
        evaluated.extend(swept);
        if q.frontier.is_empty() {
            note_dominated_pruned(eliminated);
            note_bound_pruned(skipped);
        } else {
            note_topk_pruned(eliminated + skipped);
        }

        // Stage 5 (reassemble in enumeration order).
        evaluated.sort_unstable_by_key(|&(i, _)| i);
        Sweep {
            evals: evaluated.into_iter().map(|(_, e)| e).collect(),
            candidates,
            feasible,
        }
    }

    /// Evaluates the entries of `batch` that `skip` lets through under
    /// their best placement, handing each evaluation to `publish` as it
    /// lands, and returns `(enumeration index, evaluation)` pairs in
    /// batch order. A batch that can occupy the pool fans out one work
    /// item per candidate; a smaller one (the "few fat candidates" shape)
    /// fans out one per `(candidate, placement)` pair and evaluates every
    /// entry without consulting `skip`. Both shapes pick each candidate's
    /// first-minimum placement in placement order, the argmin
    /// `best_placement_with_memory`'s sequential loop computes, so an
    /// entry's evaluation is bit-identical either way.
    fn evaluate_batch(
        &self,
        partitions: &[ParallelConfig],
        cache: &ProfileCache,
        batch: &[Candidate],
        skip: &(dyn Fn(&Candidate) -> bool + Sync),
        publish: &(dyn Fn(&Evaluation) + Sync),
    ) -> Vec<(usize, Evaluation)> {
        let global_batch = self.config.space.global_batch;
        let threads = rayon::current_num_threads();
        if threads == 1 || batch.len() >= threads * FANOUT_FACTOR {
            return batch
                .par_iter()
                .filter_map(|c| {
                    if skip(c) {
                        return None;
                    }
                    let cfg = &partitions[c.index];
                    let e = best_placement_with_memory(
                        cache.get(cfg),
                        self.model,
                        cfg,
                        global_batch,
                        self.system,
                        c.memory,
                    );
                    publish(&e);
                    Some((c.index, e))
                })
                .collect();
        }
        let mut pairs: Vec<(usize, Placement)> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(batch.len());
        for c in batch {
            let start = pairs.len();
            let placements = enumerate_placements(&partitions[c.index], self.system.nvs_size);
            pairs.extend(placements.into_iter().map(|p| (c.index, p)));
            spans.push((start, pairs.len()));
        }
        let sys_fp = system_fingerprint(self.system);
        let times: Vec<f64> = pairs
            .par_iter()
            .map(|&(i, ref p)| {
                let cfg = &partitions[i];
                let (profile, fps) = cache.get_with_fps(cfg);
                placement_breakdown(
                    profile,
                    self.model,
                    cfg,
                    p,
                    global_batch,
                    self.system,
                    sys_fp,
                    *fps,
                )
                .total()
            })
            .collect();
        batch
            .iter()
            .zip(&spans)
            .map(|(c, &(start, end))| {
                let mut best = start;
                for j in start + 1..end {
                    if ord::is_improvement(times[j], times[best]) {
                        best = j;
                    }
                }
                let cfg = &partitions[c.index];
                let e = evaluate_placement(
                    cache.get(cfg),
                    self.model,
                    cfg,
                    &pairs[best].1,
                    global_batch,
                    self.system,
                    c.memory,
                );
                publish(&e);
                (c.index, e)
            })
            .collect()
    }

    /// Evaluates one pinned configuration under its best placement using
    /// this planner's batch size (the Fig. 1–3 "assignment is optimal"
    /// path; [`crate::best_placement_eval`] wraps this).
    pub fn evaluate_config(&self, cfg: &ParallelConfig) -> Evaluation {
        let profile = build_profile(
            self.model,
            cfg.strategy,
            cfg.n1,
            cfg.n2,
            cfg.microbatch,
            cfg.summa_panels,
            cfg.ep,
            &self.system.gpu,
        );
        let memory = self.candidate_memory(&profile, cfg, self.config.space.global_batch);
        best_placement_with_memory(
            &profile,
            self.model,
            cfg,
            self.config.space.global_batch,
            self.system,
            memory,
        )
    }

    /// [`Planner::execute`] behind typed validation: rejects structurally
    /// invalid configurations (empty axes, zero degrees, out-of-bound
    /// scales, non-finite objective weights — see [`ConfigError`]) and
    /// adversarial system numerics (non-finite MTBF rates, non-positive
    /// bandwidths) *before* any search work. This is the entry point for
    /// configurations replayed from JSON ([`Planner::from_config`]),
    /// where every field is untrusted input; given `Ok`, the search
    /// itself cannot panic on the configuration.
    pub fn try_execute(&self) -> Result<PlanSet, ConfigError> {
        self.config.validate()?;
        validate::validate_system(self.system)?;
        Ok(self.execute())
    }

    /// Runs the search and assembles the [`PlanSet`]: feasible candidates
    /// are ranked under the objective (top-k retained) and the exact
    /// Pareto frontier is computed across the selected objectives.
    /// Deterministic and thread-count invariant.
    ///
    /// The pipeline prunes when [`SearchSpace::prune`] is on (the
    /// default), infeasible candidates are not kept, and every selected
    /// objective admits an admissible key bound: candidates provably
    /// outside the top-k *and* off the frontier skip their placement
    /// loops, and every skip counts as `topk_pruned` in
    /// [`crate::search_stats`]. The `PlanSet` — counts, ranking,
    /// frontier, every score — is bit-identical either way.
    ///
    /// Trusts its configuration (builder-constructed spaces are valid by
    /// construction); replayed/deserialized configurations should go
    /// through [`Planner::try_execute`] instead.
    pub fn execute(&self) -> PlanSet {
        let ctx = self.objective_ctx();
        let pareto_objectives: Vec<Objective> = if self.config.pareto.is_empty() {
            vec![self.config.objective.clone()]
        } else {
            self.config.pareto.clone()
        };
        let sweep = self.search(&Query {
            objective: &self.config.objective,
            top_k: self.config.top_k,
            frontier: &pareto_objectives,
            keep_infeasible: self.config.include_infeasible,
            prune: self.config.space.prune,
            ctx: &ctx,
        });
        let evals = sweep.evals;
        let feasible_idx: Vec<usize> = evals
            .iter()
            .enumerate()
            .filter(|(_, e)| e.feasible)
            .map(|(i, _)| i)
            .collect();
        // Scores reported per plan: ranking objective first, then the
        // frontier's (plan_of dedups).
        let mut score_objectives = vec![self.config.objective.clone()];
        score_objectives.extend(pareto_objectives.iter().cloned());
        let mk_plan = |i: &usize| plan_of(&evals[*i], self.model, &ctx, &score_objectives);
        let ranked = self.config.objective.rank(&evals, &feasible_idx, &ctx);
        let top: Vec<Plan> = ranked.iter().take(self.config.top_k).map(mk_plan).collect();
        let frontier = pareto_frontier(&evals, &feasible_idx, &pareto_objectives, &ctx);
        let pareto: Vec<Plan> = frontier.iter().map(mk_plan).collect();
        PlanSet {
            objective: self.config.objective.clone(),
            pareto_objectives,
            candidates: sweep.candidates,
            feasible: sweep.feasible,
            top,
            pareto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_175b, gpt3_1t, moe_1t};

    fn b200_nvs8() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    #[test]
    fn best_plan_matches_best_evaluation() {
        // The ranked query's first plan and the single-optimum query are
        // the same pipeline at k = 1: same configuration, same bits.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(256)
            .global_batch(4096)
            .strategy(TpStrategy::OneD);
        let single = planner.best_evaluation().unwrap();
        let plans = planner.execute();
        let best = plans.best().unwrap();
        assert_eq!(best.eval, single);
        assert_eq!(plans.candidates, plans.feasible);
    }

    #[test]
    fn top_k_is_sweep_prefix() {
        // Under the iteration-time objective the top-k list is exactly
        // the feasible prefix of the stably time-sorted sweep.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(128)
            .strategy(TpStrategy::OneD);
        let mut sweep = planner.evaluations();
        sweep.sort_by(|a, b| ord::time_cmp(a.iteration_time, b.iteration_time));
        let plans = planner.top_k(5).execute();
        assert_eq!(plans.top.len(), 5.min(sweep.len()));
        for (p, e) in plans.top.iter().zip(&sweep) {
            assert_eq!(p.eval.iteration_time, e.iteration_time);
        }
    }

    #[test]
    fn unbounded_power_of_two_axes_do_not_overflow() {
        // `u64::MAX` means "unbounded" on the sibling bounds, so the
        // validator accepts it here too: the doubling enumeration of
        // interleave degrees and SUMMA panel counts must stop before it
        // overflows. Interleave must divide the layers per stage and the
        // panel count must divide `embed`, so the model's own sizes bound
        // the same space.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(64)
            .global_batch(256)
            .strategy(TpStrategy::Summa);
        let unbounded = planner
            .clone()
            .with_space(|s| s.max_interleave(u64::MAX).max_summa_panels(u64::MAX));
        let bounded =
            planner.with_space(|s| s.max_interleave(model.depth).max_summa_panels(model.embed));
        assert_eq!(unbounded.candidates(), bounded.candidates());
        let plans = unbounded.try_execute().unwrap();
        assert!(plans.candidates > 0);
    }

    #[test]
    fn constraints_prune_candidates() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys).gpus(256);
        let all = base.candidates().len();
        let constrained = base.clone().constrain(|c| c.np == 1);
        let kept = constrained.candidates();
        assert!(!kept.is_empty() && kept.len() < all);
        assert!(kept.iter().all(|c| c.np == 1));
        // Declarative bounds compose with predicates.
        let bounded = base.with_space(|s| s.max_pipeline(1).max_data_parallel(32));
        assert!(bounded.candidates().iter().all(|c| c.np == 1 && c.nd <= 32));
    }

    #[test]
    fn multi_scale_space_unions_subspaces() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let n128 = Planner::new(&model, &sys).gpus(128).candidates().len();
        let n256 = Planner::new(&model, &sys).gpus(256).candidates().len();
        let both = Planner::new(&model, &sys)
            .gpu_counts([128, 256, 128]) // dedup keeps one 128 sub-space
            .candidates();
        assert_eq!(both.len(), n128 + n256);
        let gpus: std::collections::BTreeSet<u64> = both.iter().map(|c| c.total_gpus()).collect();
        assert_eq!(gpus, [128u64, 256].into_iter().collect());
        // A replayed config that bypasses the setters (e.g. hand-edited
        // JSON) is deduplicated at enumeration too.
        let mut cfg = PlannerConfig::default();
        cfg.space.gpu_counts = vec![128, 128];
        cfg.space.strategies = vec![TpStrategy::OneD, TpStrategy::OneD];
        let replayed = Planner::from_config(&model, &sys, cfg);
        assert_eq!(replayed.candidates().len(), n128);
    }

    #[test]
    fn gpu_seconds_objective_prefers_smaller_machines() {
        // The acceptance experiment: on GPT3-175B the pure-speed optimum
        // wants the bigger machine; asking for "fastest within 2×, then
        // cheapest" moves the selection to the smaller, cheaper scale.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys)
            .gpu_counts([256, 512])
            .global_batch(1024)
            .strategy(TpStrategy::OneD);
        let fastest = base.clone().objective(Objective::IterationTime).execute();
        let cheapest = base
            .objective(Objective::IterationTime.then(1.0, Objective::GpuSeconds))
            .execute();
        let f = fastest.best().unwrap();
        let c = cheapest.best().unwrap();
        assert_eq!(f.eval.config.total_gpus(), 512);
        assert_eq!(c.eval.config.total_gpus(), 256);
        assert!(c.eval.iteration_time <= 2.0 * f.eval.iteration_time);
        let cost = |p: &Plan| p.score(&Objective::GpuSeconds);
        // The cheap plan's GPU-seconds must actually be lower... but
        // GpuSeconds is only scored when among the planner's objectives,
        // so recompute from first principles here.
        assert!(cost(c).is_none());
        let gpu_s = |p: &Plan| p.eval.config.total_gpus() as f64 * p.eval.iteration_time;
        assert!(gpu_s(c) < gpu_s(f));
    }

    #[test]
    fn expected_goodput_optimum_differs_from_iteration_time_optimum() {
        // The reliability acceptance experiment: on GPT3-175B at 4096
        // B200 GPUs under the realistic datacenter failure regime
        // (~50k h per-GPU MTBF ⇒ a failure every ~12 h at this scale),
        // the plan that maximizes *delivered* tokens is not the plan
        // that minimizes failure-free iteration time. The time optimum
        // leans on cross-domain tensor parallelism and a huge DP degree
        // (big optimizer shards ⇒ expensive checkpoints, slow-tier TP
        // exposed to link degradation); the goodput optimum trades a
        // slower failure-free iteration for in-domain TP and deep
        // pipelining with tiny checkpoint shards.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        assert!(!sys.reliability.is_failure_free());
        let base = Planner::new(&model, &sys)
            .gpus(4096)
            .global_batch(1024)
            .strategy(TpStrategy::OneD);
        let fastest = base.clone().objective(Objective::IterationTime).execute();
        let goodput = base.clone().objective(Objective::ExpectedGoodput).execute();
        let f = fastest.best().unwrap();
        let g = goodput.best().unwrap();
        assert_ne!(
            f.eval.config, g.eval.config,
            "goodput optimum must differ from the failure-free optimum"
        );
        // The selections differ in the core (tp, pp, dp) split, not just
        // a microbatch knob.
        assert_ne!(
            (
                f.eval.config.tensor_parallel(),
                f.eval.config.np,
                f.eval.config.nd
            ),
            (
                g.eval.config.tensor_parallel(),
                g.eval.config.np,
                g.eval.config.nd
            )
        );
        // And each wins its own game: f is strictly faster failure-free,
        // g strictly delivers more under failures.
        let ctx = base.objective_ctx();
        assert!(f.eval.iteration_time < g.eval.iteration_time);
        let deliver = |e: &Evaluation| crate::reliability::assess(e, &ctx).tokens_per_gpu_second;
        assert!(deliver(&g.eval) > deliver(&f.eval));
        // Under a failure-free spec the two objectives agree again.
        let ff = sys
            .clone()
            .with_reliability(systems::ReliabilitySpec::failure_free());
        let agree = Planner::new(&model, &ff)
            .gpus(4096)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(Objective::ExpectedGoodput)
            .execute();
        assert_eq!(
            agree.best().unwrap().eval.iteration_time,
            f.eval.iteration_time
        );
    }

    #[test]
    fn pareto_frontier_trades_time_against_headroom() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let plans = Planner::new(&model, &sys)
            .gpus(256)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .execute();
        assert!(!plans.pareto.is_empty());
        // Frontier is ordered by iteration time and headroom must be
        // anti-monotone along it (otherwise a point would be dominated).
        let t: Vec<f64> = plans.pareto.iter().map(|p| p.eval.iteration_time).collect();
        let h: Vec<f64> = plans
            .pareto
            .iter()
            .map(|p| p.score(&Objective::HbmHeadroom).unwrap())
            .collect();
        for w in t.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for w in h.windows(2) {
            assert!(w[0] <= w[1], "headroom must rise as time does: {h:?}");
        }
        // The fastest frontier point is the single-objective optimum.
        let best = plans.best().unwrap();
        assert_eq!(
            plans.pareto[0].eval.iteration_time,
            best.eval.iteration_time
        );
    }

    #[test]
    fn execute_is_thread_count_invariant() {
        let model = moe_1t().config;
        let sys = b200_nvs8();
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    Planner::new(&model, &sys)
                        .gpus(128)
                        .top_k(6)
                        .pareto([Objective::IterationTime, Objective::GpuSeconds])
                        .execute()
                })
        };
        let seq = run(1);
        assert!(!seq.top.is_empty());
        for n in [2, 8] {
            assert_eq!(run(n), seq, "thread count {n}");
        }
    }

    #[test]
    fn planner_config_round_trips() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpu_counts([128, 256])
            .global_batch(2048)
            .strategies([TpStrategy::OneD, TpStrategy::TwoD])
            .objective(Objective::weighted([
                (Objective::IterationTime, 1.0),
                (Objective::GpuSeconds, 0.01),
            ]))
            .top_k(3);
        let json = serde_json::to_string(planner.config()).unwrap();
        let back: PlannerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, planner.config());
        // A rebuilt planner reproduces the same plans.
        let a = planner.execute();
        let b = Planner::from_config(&model, &sys, back).execute();
        assert_eq!(a, b);
    }
}
