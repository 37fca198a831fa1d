//! The composable planning surface over the S3 design-space search.
//!
//! [`Planner`] is one builder that composes:
//!
//! * a typed [`SearchSpace`] — GPU counts, batch, TP strategies,
//!   microbatch/interleave/ZeRO/expert knobs, pp/dp/tp degree bounds —
//!   plus arbitrary user [`Planner::constrain`] predicates;
//! * an [`Objective`] — iteration time, training days, tokens/s/GPU, HBM
//!   headroom, GPU-seconds cost, or weighted/lexicographic combinations;
//! * execution against the space's stored placement-free work (see
//!   [the space store](#the-space-store)), with the independent work on
//!   the rayon pool (see [which stages fan out](#which-stages-fan-out)),
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
//! | [`Planner::evaluations`] | pruning off: every candidate, keyed by iteration time |
//!
//! 0. **Stored entry**: the space's candidates, layer profiles, memory
//!    ledgers, placement-free iteration-time lower bounds
//!    (`evaluate::iteration_time_lower_bound`) and one list of maximal
//!    NVS placements per `(n1, n2, np, nd)` group, read from the space
//!    store, or built there on a miss. A group's list is enumerated when
//!    a stage first evaluates one of its candidates.
//! 1. **Assess**: the user constraints filter the stored candidates in
//!    enumeration order and the stored memory ledger gates each on HBM.
//!    When the query can prune, each candidate gets one bound row of
//!    admissible lower bounds (`Objective::key_lower_bound` over the
//!    stored time bound): the ranking key's, then each frontier key's,
//!    an objective that repeats an earlier column bounded once, by the
//!    key row's rule (`Query::bound_columns`). The ranking bound travels
//!    with the candidate; the frontier bounds go into one flat buffer.
//!    A run of consecutive candidates that share a GPU count and
//!    checkpoint bytes computes one goodput fraction
//!    (`CandidateBounds`).
//! 2. **Seed**: the `top_k` lowest-bound candidates are evaluated
//!    unconditionally. Each evaluated candidate is keyed once, where it
//!    is evaluated: a row of [`Objective::key`] under the ranking objective's
//!    stages, then under the frontier objectives, an objective that
//!    appears twice keyed once (`Query::key_row`). The seeds' ranking
//!    keys set the k-th-best threshold ([`crate::ord::TopkIncumbent`])
//!    and their frontier keys fill the dominance archive.
//! 3. **Eliminate**: every other candidate is dropped when its bound is
//!    past that threshold, past the primary-stage cut of a lexicographic
//!    objective, and — only when a frontier is asked for — its bound
//!    vector is strictly dominated by an evaluated point. A NaN bound
//!    never prunes ([`crate::ord::exceeds_bound`]).
//! 4. **Sweep**: the survivors are evaluated and keyed best-first, each
//!    checked once more against the threshold and the frontier archive,
//!    which every evaluation before it has tightened.
//! 5. **Reassemble** the evaluations and their key rows in enumeration
//!    order. [`Planner::execute`] ranks the rows and takes their frontier
//!    (`Objective::rank`, `pareto_frontier`) without keying anything
//!    again; it prices [`Objective::value`] only for the plans it reports.
//!
//! A query that does not prune evaluates and keys every candidate in one
//! batch after stage 1 and goes straight to stage 5.
//!
//! Every prune is exact: a skipped candidate provably cannot enter the
//! top-k or the frontier, so every result is bit-identical to the
//! unpruned sweep's ([`SearchSpace::prune`]). The bounds assume finite,
//! non-negative collective times, so a query on a network that
//! [`validate_system`] rejects does not prune at all. Each evaluation
//! prices every placement of the candidate's stored group list once, in
//! [`crate::enumerate_placements`] order, and keeps the winner's
//! breakdown ([`crate::search`]). Skip counts are reported through
//! [`crate::search_stats`].
//!
//! # Which stages fan out
//!
//! Stages 1–4 of a query that prunes run in order on the calling thread.
//! The pool keeps only independent work: stage 0 on a store miss
//! (enumeration, profiles, ledgers, and the time bounds, one candidate to
//! a work item in profile order, so that two workers rarely ask for one
//! memo key at once), and the unpruned sweep ([`Planner::evaluations`],
//! the serving objectives and [`Planner::include_infeasible`]), one work
//! item per candidate. The pricing memo computes each pass-level key
//! once, under its shard's lock, so those fan-outs take the same memo
//! misses at every width. The pruned stages stay in order because
//! fanning them out costs more than it saves:
//!
//! * the sweep's threshold tightens with each evaluation, so a parallel
//!   sweep evaluates candidates an in-order sweep skips, and its workers
//!   contend on the shared threshold and archive;
//! * the assess arithmetic costs about 20–200 ns per candidate, while
//!   spawning and joining one scoped thread costs 18–34 µs (medians of
//!   3,000 on a 2-vCPU host, at different loads).
//!
//! So a pruned query evaluates the same candidates at every pool width,
//! and once warm it reads every memo price from the calling thread's L1.
//!
//! # The space store
//!
//! Stage 0's work depends on the space alone, never on the query, so a
//! process-wide store keeps it across calls: asking a space for its best
//! plan, its ranking and its goodput optimum enumerates it, builds its
//! profiles, prices its ledgers and enumerates each evaluated group's
//! placements once. A hit runs only the assess arithmetic and stages 2–5,
//! and those enumerate only the groups no earlier query evaluated.
//! [`Planner::candidates`] reads the stored list too, building and
//! storing the entry on a miss.
//!
//! * **Key.** The derived `Debug` text of the model, the whole
//!   [`SystemSpec`], the [`SearchSpace`] without its `prune` flag, and the
//!   serving traffic. `Debug` prints every `f64` in its shortest
//!   round-trip form, which tells every non-NaN bit pattern apart,
//!   `-0.0` included, and a derived `Debug` picks up fields added later,
//!   so the key is exact and needs no upkeep. The prune switch, the
//!   objective, `top_k`, the frontier and the user constraints are not in
//!   it: every query and every constrained planner of one space share its
//!   entry.
//! * **NaN bypass.** `Debug` cannot tell NaNs apart while `total_cmp`
//!   orders them by sign, so a space whose key text contains `NaN` is
//!   never stored: each call builds its own entry, as every call did
//!   before the store existed.
//! * **Budget.** The store holds at most 65,536 candidate-sized units of
//!   128 bytes, 8 MiB: each candidate counts one, each layer profile ten,
//!   each placement group one, and each 128 bytes of key or of stored
//!   placements one. A search that filled placement lists charges them
//!   when it ends. Past the budget the store evicts the least recently
//!   used space; an entry larger than the whole budget serves its call
//!   and is not kept.
//! * **Concurrency.** Entries are built outside the store's lock, which
//!   guards only lookups, inserts and recharges. Two calls racing on one
//!   space both build it, with identical values, and the first stores it.
//!   Two evaluations racing on one group's placement list both
//!   enumerate it, and the first to finish stores it.
//!
//! The store changes only how long a search takes, never a result bit.
//! [`crate::clear_space_store`] empties it for a truly cold search (the
//! collective-pricing memo stays warm), and [`crate::SearchStats`]
//! counts its hits, misses and evictions.
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
mod store;
mod validate;

pub use objective::{LexStage, Objective, ObjectiveCtx, Score, WeightedTerm};
pub use plan::{Plan, PlanSet};
pub use space::SearchSpace;
pub use store::clear_space_store;
pub(crate) use store::SPACE_STORE;
pub use validate::{validate_system, ConfigError, MAX_GPU_COUNTS, MAX_SCALE};

use crate::config::ParallelConfig;
use crate::evaluate::{CandidateBounds, Evaluation, PassFingerprints};
use crate::memory::{inference_memory_usage, memory_usage, MemoryUsage};
use crate::ord;
use crate::partition::build_profile;
use crate::partition::cache::{note_bound_pruned, note_dominated_pruned, note_topk_pruned};
use crate::placement::enumerate_placements;
use crate::search::{best_placement_with_memory, enumerate_partitions};
use plan::{dominates, pareto_frontier, plan_of};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::sync::Arc;
use store::{SpaceEntry, SpaceStore};
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

/// Archive of evaluated candidates' exact frontier key vectors — the
/// pipeline's dominance oracle, kept frontier-filtered so it stays small.
#[derive(Default)]
struct DominanceArchive {
    points: Vec<Vec<f64>>,
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
        self.points
            .iter()
            .any(|p| p.len() == lb.len() && p.iter().zip(lb).all(|(&pj, &lj)| pj < relax_down(lj)))
    }

    /// Records one evaluated point's exact key vector, dropping it if an
    /// archived point already dominates it and evicting points it
    /// dominates ([`dominates`], the final frontier's predicate).
    /// Eviction never shrinks what the archive covers: the evicting
    /// point is componentwise no worse than the evicted one.
    fn insert(&mut self, kv: &[f64]) {
        if self.points.iter().any(|p| dominates(p, kv)) {
            return;
        }
        self.points.retain(|p| !dominates(kv, p));
        self.points.push(kv.to_vec());
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

impl Query<'_> {
    /// How the query keys an evaluation, once, where it is evaluated: the
    /// key row holds [`Objective::key`] under each of the ranking
    /// objective's [`Objective::stages`], then under each frontier
    /// objective. An objective that appears twice is keyed once and its
    /// key copied. Twice means the same `Debug` text, which tells
    /// every non-NaN parameter bit apart, so the copy is the key the
    /// repeat would compute.
    fn key_row(&self) -> impl Fn(&Evaluation) -> Vec<f64> + Sync + '_ {
        let stages = self.objective.stages().into_iter().map(|s| s.0);
        let columns = Columns::new(stages.chain(self.frontier).collect());
        move |e| {
            let mut row = Vec::with_capacity(columns.objectives.len());
            columns.fill_row(&mut row, |o| o.key(e, self.ctx));
            row
        }
    }

    /// How stage 1 bounds a candidate, by [`Query::key_row`]'s rule: the
    /// bound row holds `Objective::key_lower_bound` under the ranking
    /// objective, then under each frontier objective, and an objective
    /// whose `Debug` text repeats an earlier column is bounded once and
    /// its bound copied.
    ///
    /// The copy is the bound the repeat would compute for every non-NaN
    /// parameter, because `Debug` tells those bits apart. It is safe for a
    /// NaN parameter too, whatever the two NaNs' payloads: a NaN bound
    /// never prunes, since [`ord::exceeds_bound`] and
    /// [`DominanceArchive::strictly_covers`] compare with `>` and `<`.
    /// Only column 0, the ranking bound, is sorted with `total_cmp`, and
    /// column 0 is never a copy.
    fn bound_columns(&self) -> Columns<'_> {
        Columns::new(
            std::iter::once(self.objective)
                .chain(self.frontier)
                .collect(),
        )
    }
}

/// The objectives of a key or bound row, each with the column its value
/// is read from: its own, or the first earlier one with the same `Debug`
/// text ([`Query::key_row`], [`Query::bound_columns`]).
struct Columns<'q> {
    objectives: Vec<&'q Objective>,
    first: Vec<usize>,
}

impl<'q> Columns<'q> {
    fn new(objectives: Vec<&'q Objective>) -> Self {
        let text: Vec<String> = objectives.iter().map(|o| format!("{o:?}")).collect();
        let first = (0..text.len())
            .map(|j| text[..j].iter().position(|t| *t == text[j]).unwrap_or(j))
            .collect();
        Self { objectives, first }
    }

    /// Refills `row` with `value` of each column's objective, computed
    /// at its first occurrence and copied for a repeat.
    fn fill_row(&self, row: &mut Vec<f64>, value: impl Fn(&Objective) -> f64) {
        row.clear();
        for (o, &i) in self.objectives.iter().zip(&self.first) {
            // Column `i` is already in the row exactly when it repeats.
            let v = row.get(i).copied().unwrap_or_else(|| value(o));
            row.push(v);
        }
    }
}

/// A candidate past the memory gate of a query that prunes, with its
/// stage-1 ranking bound. Its frontier bounds sit in stage 1's flat
/// buffer at `slot` ([`Planner::bound_candidates`]). The seed select and
/// the survivor sort reorder the candidates, so the slot travels with
/// each, and they move 16-byte records.
struct Candidate {
    /// Position in the space's enumeration (its index in the
    /// [`SpaceEntry`]).
    index: u32,
    /// Its row in the frontier-bound buffer.
    slot: u32,
    /// Admissible lower bound on the ranking key.
    rank_lb: f64,
}

/// What the pipeline returns for one [`Query`].
struct Sweep {
    /// Every evaluated candidate with its key row ([`Query::key_row`]),
    /// in enumeration order.
    evals: Vec<(Evaluation, Vec<f64>)>,
    /// Candidates past the memory gate, evaluated or skipped.
    candidates: u64,
    /// Of those, the ones that fit in HBM.
    feasible: u64,
}

/// The running cutoffs of a query that prunes (stages 2–4): the
/// k-th-best threshold over the ranking keys and, when a frontier is asked
/// for, the dominance archive over the frontier keys.
struct Cutoffs {
    topk: ord::TopkIncumbent,
    archive: Option<DominanceArchive>,
    /// Key-row columns of the ranking objective's stages; the frontier
    /// keys follow them.
    stages: usize,
    /// Frontier objectives: the stride of stage 1's frontier-bound
    /// buffer.
    frontier: usize,
    /// The primary stage's tolerance, for a multi-stage lexicographic
    /// objective.
    lex_cut_tol: Option<f64>,
}

impl Cutoffs {
    fn new(q: &Query) -> Self {
        let stages = q.objective.stages();
        Self {
            topk: ord::TopkIncumbent::new(q.top_k),
            archive: (!q.frontier.is_empty()).then(DominanceArchive::default),
            stages: stages.len(),
            frontier: q.frontier.len(),
            lex_cut_tol: (stages.len() > 1).then(|| stages[0].1.max(0.0)),
        }
    }

    /// Publishes one evaluated candidate's key row
    /// ([`Query::key_row`]). The ranking key is the primary stage's (0
    /// with no stage, as `Objective::key` has it).
    fn publish(&mut self, row: &[f64]) {
        self.topk
            .publish(if self.stages == 0 { 0.0 } else { row[0] });
        if let Some(archive) = &mut self.archive {
            archive.insert(&row[self.stages..]);
        }
    }

    /// Whether `c` can be skipped: at least k evaluated candidates
    /// outrank it. For a multi-stage lexicographic objective its bound
    /// must also clear the primary stage's tolerance cut above the best
    /// key: a candidate inside the band survives to later stages, where
    /// no admissible bound exists. The cut `b + tol·|b|` is monotone in
    /// `b` only for `tol ≤ 1`; wider tolerances never prune. With a
    /// frontier, an evaluated point must also strictly dominate its bound
    /// vector, which `frontier_lb`, stage 1's flat buffer, holds at `c`'s
    /// slot.
    fn prune(&self, c: &Candidate, frontier_lb: &[f64]) -> bool {
        ord::exceeds_bound(c.rank_lb, relax_up(self.topk.threshold()))
            && match self.lex_cut_tol {
                None => true,
                Some(tol) if tol <= 1.0 => {
                    let best = self.topk.best();
                    ord::exceeds_bound(c.rank_lb, relax_up(best + tol * best.abs()))
                }
                Some(_) => false,
            }
            && self.archive.as_ref().is_none_or(|a| {
                let start = c.slot as usize * self.frontier;
                a.strictly_covers(&frontier_lb[start..start + self.frontier])
            })
    }
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
    /// bounds and user constraints applied. Deterministic. The list is
    /// read from the space's entry in the space store, which a miss builds
    /// and stores, so a search that follows does not enumerate again.
    pub fn candidates(&self) -> Vec<ParallelConfig> {
        let entry = SPACE_STORE.entry(self);
        let mut out = entry.candidates.clone();
        for pred in &self.constraints {
            out.retain(|c| pred(c));
        }
        out
    }

    /// [`Planner::candidates`] before the user constraints, enumerated
    /// afresh.
    fn enumerate(&self) -> Vec<ParallelConfig> {
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
            objective: &Objective::IterationTime,
            top_k: self.config.top_k,
            frontier: &[],
            keep_infeasible: self.config.include_infeasible,
            prune: false,
            ctx: &ctx,
        })
        .evals
        .into_iter()
        .map(|(e, _)| e)
        .collect()
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
        .map(|(e, _)| e)
        .min_by(|a, b| ord::time_cmp(a.iteration_time, b.iteration_time))
    }

    /// The search pipeline behind every entry point; the module docs
    /// describe its stages.
    fn search(&self, q: &Query) -> Sweep {
        self.search_in(&SPACE_STORE, q)
    }

    /// [`Planner::search`] against `store`: stage 0, then the stages
    /// over the entry, then the charge for the placement lists they
    /// filled.
    fn search_in(&self, store: &SpaceStore, q: &Query) -> Sweep {
        let entry = store.entry(self);
        let held = entry.placements_held();
        let sweep = self.search_entry(&entry, q);
        if entry.placements_held() != held {
            store.recharge(&entry);
        }
        sweep
    }

    /// Stages 1–5 of the search over `entry`, `self`'s space entry.
    fn search_entry(&self, entry: &SpaceEntry, q: &Query) -> Sweep {
        let hbm = self.system.gpu.hbm_capacity;
        let prune = q.prune
            && !q.keep_infeasible
            && q.objective.bounds_key()
            && q.frontier.iter().all(Objective::bounds_key)
            && validate::validate_network(&self.system.network).is_ok();

        // Stage 1 (assess): the user constraints and the memory gate over
        // the stored candidates and ledgers.
        let passed: Vec<usize> = (0..entry.candidates.len())
            .filter(|&i| {
                (q.keep_infeasible || entry.memory[i].fits(hbm))
                    && self
                        .constraints
                        .iter()
                        .all(|pred| pred(&entry.candidates[i]))
            })
            .collect();
        let candidates = passed.len() as u64;
        let feasible = passed
            .iter()
            .filter(|&&i| entry.memory[i].fits(hbm))
            .count() as u64;
        let key_row = q.key_row();
        if !prune {
            return Sweep {
                evals: self.evaluate_batch(entry, &passed, &key_row),
                candidates,
                feasible,
            };
        }
        let (mut work, frontier_lb) = self.bound_candidates(entry, q, &passed);

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
        let mut cutoffs = Cutoffs::new(q);
        let mut evaluated = Vec::new();
        let mut evaluate_and_publish = |c: &Candidate, cutoffs: &mut Cutoffs| {
            let index = c.index as usize;
            let e = self.evaluate(entry, index);
            let row = key_row(&e);
            cutoffs.publish(&row);
            evaluated.push((index, e, row));
        };
        for c in &work {
            evaluate_and_publish(c, &mut cutoffs);
        }

        // Stage 3 (eliminate against the seeds' threshold).
        let before = rest.len();
        rest.retain(|c| !cutoffs.prune(c, &frontier_lb));
        let eliminated = (before - rest.len()) as u64;

        // Stage 4 (sweep the survivors best-first): each is checked once
        // more against the cutoffs, which every evaluation before it has
        // tightened.
        rest.sort_unstable_by(by_bound);
        let mut skipped = 0;
        for c in &rest {
            if cutoffs.prune(c, &frontier_lb) {
                skipped += 1;
            } else {
                evaluate_and_publish(c, &mut cutoffs);
            }
        }
        if q.frontier.is_empty() {
            note_dominated_pruned(eliminated);
            note_bound_pruned(skipped);
        } else {
            note_topk_pruned(eliminated + skipped);
        }

        // Stage 5 (reassemble in enumeration order).
        evaluated.sort_unstable_by_key(|&(i, ..)| i);
        Sweep {
            evals: evaluated.into_iter().map(|(_, e, row)| (e, row)).collect(),
            candidates,
            feasible,
        }
    }

    /// Stage 1's bounds for the candidates of `entry` at the enumeration
    /// indices `passed`: one bound row each over the stored time bounds
    /// ([`Query::bound_columns`]). Returns the [`Candidate`]s in `passed`
    /// order, each holding its ranking bound, and one flat buffer of
    /// their frontier bounds, `q.frontier.len()` to a candidate at its
    /// slot. Consecutive candidates that share a GPU count and checkpoint
    /// bytes share one [`CandidateBounds`], so that run computes one
    /// goodput fraction.
    fn bound_candidates(
        &self,
        entry: &SpaceEntry,
        q: &Query,
        passed: &[usize],
    ) -> (Vec<Candidate>, Vec<f64>) {
        let time_lb = entry.time_lower_bounds(self);
        let columns = q.bound_columns();
        let mut row = Vec::with_capacity(columns.objectives.len());
        let mut work = Vec::with_capacity(passed.len());
        let mut frontier_lb = Vec::with_capacity(passed.len() * q.frontier.len());
        let mut run: Option<CandidateBounds> = None;
        for (slot, &index) in passed.iter().enumerate() {
            let memory = &entry.memory[index];
            let gpus = entry.candidates[index].total_gpus() as f64;
            let checkpoint_bytes = memory.weights + memory.optimizer;
            run.take_if(|b| !b.same_goodput_run(gpus, checkpoint_bytes));
            let b = run.get_or_insert_with(|| CandidateBounds {
                time_lb: 0.0,
                memory_total: 0.0,
                gpus,
                checkpoint_bytes,
                goodput_fraction: OnceCell::new(),
            });
            b.time_lb = time_lb[index];
            b.memory_total = memory.total();
            columns.fill_row(&mut row, |o| o.key_lower_bound(b, q.ctx));
            frontier_lb.extend_from_slice(&row[1..]);
            work.push(Candidate {
                index: index as u32,
                slot: slot as u32,
                rank_lb: row[0],
            });
        }
        (work, frontier_lb)
    }

    /// Evaluates candidate `index` of `entry` under its best placement.
    fn evaluate(&self, entry: &SpaceEntry, index: usize) -> Evaluation {
        let (profile, fps) = entry.profile(index);
        best_placement_with_memory(
            profile,
            *fps,
            self.model,
            &entry.candidates[index],
            entry.placements(index),
            self.config.space.global_batch,
            self.system,
            entry.memory[index],
        )
    }

    /// The unpruned sweep: evaluates the candidates at the enumeration
    /// indices `batch` on the pool, one work item per candidate, keys each
    /// evaluation with `key_row` in the same work item, and returns the
    /// `(evaluation, key row)` pairs in batch order. The candidates are
    /// independent, so this is the one search stage over a stored entry
    /// that fans out.
    fn evaluate_batch(
        &self,
        entry: &SpaceEntry,
        batch: &[usize],
        key_row: &(dyn Fn(&Evaluation) -> Vec<f64> + Sync),
    ) -> Vec<(Evaluation, Vec<f64>)> {
        batch
            .par_iter()
            .map(|&index| {
                let e = self.evaluate(entry, index);
                let row = key_row(&e);
                (e, row)
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
            PassFingerprints::of(&profile),
            self.model,
            cfg,
            &enumerate_placements(cfg, self.system.nvs_size),
            self.config.space.global_batch,
            self.system,
            memory,
        )
    }

    /// [`Planner::execute`] behind typed validation: rejects structurally
    /// invalid configurations (empty axes, zero degrees, out-of-bound
    /// scales, non-finite objective weights, serving traffic outside its
    /// constructors' invariants or with lengths past [`MAX_SCALE`] — see
    /// [`ConfigError`]) and
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
    /// default), infeasible candidates are not kept, the system's network
    /// passes the checks of [`validate_system`] (every bandwidth positive
    /// and finite, every latency non-negative and finite), and every
    /// selected objective admits an admissible key bound: candidates
    /// provably outside the top-k *and* off the frontier skip their
    /// placement loops, and every skip counts as `topk_pruned` in
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
            .filter(|(_, (e, _))| e.feasible)
            .map(|(i, _)| i)
            .collect();
        // Scores reported per plan: ranking objective first, then the
        // frontier's (plan_of dedups).
        let mut score_objectives = vec![self.config.objective.clone()];
        score_objectives.extend(pareto_objectives.iter().cloned());
        let mk_plan = |i: &usize| plan_of(&evals[*i].0, self.model, &ctx, &score_objectives);
        let rows: Vec<&[f64]> = evals.iter().map(|(_, row)| &row[..]).collect();
        let ranked = self.config.objective.rank(&rows, &feasible_idx);
        let top: Vec<Plan> = ranked.iter().take(self.config.top_k).map(mk_plan).collect();
        // Each row's frontier keys follow its ranking stages' keys.
        let stages = self.config.objective.stages().len();
        let frontier_keys: Vec<&[f64]> = rows.iter().map(|row| &row[stages..]).collect();
        let frontier = pareto_frontier(&frontier_keys, &feasible_idx);
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
    fn nan_scores_rank_last() {
        // Under a 2000 h MTBF every 16384-GPU plan delivers nothing, so
        // its EffectiveTrainingDays key is ∞ and the zero-weighted term
        // is 0·∞: a NaN with its sign bit set on x86-64, which
        // `total_cmp` sorts before -inf. Those plans must rank last
        // behind the finite-scored 512-GPU plans, not first.
        let model = gpt3_175b().config;
        let sys = b200_nvs8()
            .with_reliability(systems::ReliabilitySpec::datacenter().with_gpu_mtbf_hours(2_000.0));
        let plans = Planner::new(&model, &sys)
            .gpu_counts([512, 16384])
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(Objective::weighted([
                (Objective::EffectiveTrainingDays { iterations: 1e5 }, 0.0),
                (Objective::IterationTime, 1.0),
            ]))
            .top_k(3)
            .try_execute()
            .unwrap();
        assert_eq!(plans.top.len(), 3);
        for p in &plans.top {
            assert_eq!(p.eval.config.total_gpus(), 512, "{}", p.eval.config);
            assert!(p.scores[0].value.is_finite(), "{:?}", p.scores);
        }
    }

    #[test]
    fn a_nan_parameter_objective_is_scored_once() {
        // `PartialEq` never equates an objective that carries a NaN with
        // itself, so the default frontier's repeat was scored again.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let days = Objective::TrainingDays {
            iterations: f64::NAN,
        };
        let plans = Planner::new(&model, &sys)
            .gpus(128)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(days.clone())
            .execute();
        let best = plans.best().expect("a feasible configuration exists");
        assert_eq!(best.scores.len(), 1, "{:?}", best.scores);
        assert!(best.score(&days).is_some_and(f64::is_nan));
        let columns = plans.to_artifact("days", "days").columns;
        assert_eq!(columns.iter().filter(|c| *c == "days").count(), 1);
    }

    #[test]
    fn signed_zero_weights_are_scored_apart() {
        // `PartialEq` equates weights of 0.0 and -0.0, whose keys the key
        // row tells apart.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let weighted = |w: f64| {
            Objective::weighted([(Objective::IterationTime, 1.0), (Objective::GpuSeconds, w)])
        };
        let plans = Planner::new(&model, &sys)
            .gpus(128)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(weighted(0.0))
            .pareto([weighted(-0.0)])
            .execute();
        let best = plans.best().expect("a feasible configuration exists");
        assert_eq!(best.scores.len(), 2, "{:?}", best.scores);
    }

    /// What stage 1 did for one query: the candidates it bounded, its
    /// `key_lower_bound` calls (nested ones included) and goodput
    /// fractions, and the goodput runs among its candidates.
    #[derive(Debug, PartialEq)]
    struct StageOne {
        candidates: usize,
        bounds: u64,
        fractions: u64,
        runs: usize,
    }

    /// Runs stage 1 of `p`'s pruned query under `objective` and
    /// `frontier` over `entry`, `p`'s space entry, and checks every bound
    /// row bit for bit against direct `key_lower_bound` calls, each on a
    /// `CandidateBounds` of its own.
    fn check_bound_rows(
        p: &Planner,
        entry: &SpaceEntry,
        objective: &Objective,
        frontier: &[Objective],
    ) -> StageOne {
        let ctx = p.objective_ctx();
        let q = Query {
            objective,
            top_k: 8,
            frontier,
            keep_infeasible: false,
            prune: true,
            ctx: &ctx,
        };
        let hbm = p.system.gpu.hbm_capacity;
        let passed: Vec<usize> = (0..entry.candidates.len())
            .filter(|&i| entry.memory[i].fits(hbm))
            .collect();
        let time_lb = entry.time_lower_bounds(p);
        let (bounds, fractions) = objective::tally::read();
        let (work, frontier_lb) = p.bound_candidates(entry, &q, &passed);
        let (bounds_after, fractions_after) = objective::tally::read();

        let facts = |i: usize| {
            let memory = &entry.memory[i];
            (
                entry.candidates[i].total_gpus() as f64,
                memory.weights + memory.optimizer,
            )
        };
        let direct = |o: &Objective, i: usize| {
            let (gpus, checkpoint_bytes) = facts(i);
            let b = CandidateBounds {
                time_lb: time_lb[i],
                memory_total: entry.memory[i].total(),
                gpus,
                checkpoint_bytes,
                goodput_fraction: OnceCell::new(),
            };
            o.key_lower_bound(&b, &ctx).to_bits()
        };
        let stride = frontier.len();
        assert_eq!(work.len(), passed.len());
        assert_eq!(frontier_lb.len(), passed.len() * stride);
        for (slot, (c, &i)) in work.iter().zip(&passed).enumerate() {
            assert_eq!((c.index as usize, c.slot as usize), (i, slot));
            assert_eq!(c.rank_lb.to_bits(), direct(objective, i), "{objective:?}");
            let row: Vec<u64> = frontier_lb[slot * stride..][..stride]
                .iter()
                .map(|lb| lb.to_bits())
                .collect();
            let want: Vec<u64> = frontier.iter().map(|o| direct(o, i)).collect();
            assert_eq!(row, want, "{objective:?} / {frontier:?}, candidate {i}");
        }
        let runs = 1 + passed
            .windows(2)
            .filter(|w| {
                let ((g0, c0), (g1, c1)) = (facts(w[0]), facts(w[1]));
                (g0.to_bits(), c0.to_bits()) != (g1.to_bits(), c1.to_bits())
            })
            .count();
        StageOne {
            candidates: passed.len(),
            bounds: bounds_after - bounds,
            fractions: fractions_after - fractions,
            runs,
        }
    }

    #[test]
    fn stage_one_bound_rows_match_direct_bounds() {
        let sys = b200_nvs8();
        let (gpt1t, gpt175) = (gpt3_1t().config, gpt3_175b().config);
        let store = SpaceStore::new(store::SPACE_STORE_BUDGET);
        let summa = Planner::new(&gpt1t, &sys)
            .gpus(16384)
            .global_batch(4096)
            .strategy(TpStrategy::Summa);
        let summa_entry = store.entry(&summa);
        let multi = Planner::new(&gpt175, &sys)
            .gpu_counts([512, 1024, 2048, 4096])
            .global_batch(1024)
            .strategy(TpStrategy::OneD);
        let multi_entry = store.entry(&multi);
        let goodput = Objective::ExpectedGoodput;
        let days = Objective::EffectiveTrainingDays { iterations: 1e5 };

        // The perfbench GPT3-1T SUMMA sweep: its default frontier repeats
        // the ranking objective, which is bounded once, and each run of
        // candidates sharing a GPU count and checkpoint bytes computes
        // one goodput fraction.
        let sweep = check_bound_rows(
            &summa,
            &summa_entry,
            &goodput,
            std::slice::from_ref(&goodput),
        );
        assert_eq!(
            sweep,
            StageOne {
                candidates: 8_125,
                bounds: 8_125,
                fractions: 331,
                runs: 331,
            }
        );
        // The ranked SUMMA query: three distinct columns, no goodput.
        let ranked = check_bound_rows(
            &summa,
            &summa_entry,
            &Objective::IterationTime,
            &[Objective::IterationTime, Objective::HbmHeadroom],
        );
        assert_eq!((ranked.bounds, ranked.fractions), (2 * 8_125, 0));

        // A multi-count space, whose goodput runs break at each GPU count.
        for (objective, frontier) in [
            (&goodput, vec![days.clone(), goodput.clone()]),
            (&days, vec![days.clone()]),
        ] {
            let s = check_bound_rows(&multi, &multi_entry, objective, &frontier);
            assert_eq!(s.fractions as usize, s.runs, "{objective:?}");
            assert!(s.runs >= 4, "{s:?}");
        }

        // A NaN parameter: the repeat is copied, and a NaN bound never
        // prunes whatever its payload.
        let nan_days = Objective::TrainingDays {
            iterations: f64::NAN,
        };
        let s = check_bound_rows(
            &multi,
            &multi_entry,
            &nan_days,
            std::slice::from_ref(&nan_days),
        );
        assert_eq!((s.bounds as usize, s.fractions), (s.candidates, 0));

        // Weights of 0.0 and -0.0 print apart, so the twin stays a column
        // of its own: each candidate takes two weighted bounds, each with
        // its nested leaf bound. Their bounds differ in sign (0·x against
        // -0·x), which the bit comparison sees.
        let headroom = |w: f64| Objective::weighted([(Objective::HbmHeadroom, w)]);
        let s = check_bound_rows(&multi, &multi_entry, &headroom(0.0), &[headroom(-0.0)]);
        assert_eq!(s.bounds as usize, 4 * s.candidates);
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
