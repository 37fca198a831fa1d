//! Cross-crate guarantee for the planner's search pipeline: its prunes
//! are *exact* optimizations. The single-optimum query
//! (`Planner::best_evaluation`) must return the bit-identical
//! `Evaluation` that the unpruned query (`prune(false)`), the ranked
//! query at k = 1 and the first entry of the time-sorted full sweep
//! return, and `Planner::execute` must return the bit-identical
//! `PlanSet` (top-k ranking, Pareto frontier, counts, every score,
//! compared both structurally and as an FNV fold over raw f64 bits) with
//! pruning on and off — on the paper's preset workloads, on randomly
//! drawn spaces (several GPU counts and strategies, interleave, ZeRO-3,
//! user predicates) across every `Objective` variant, and at 1/2/8
//! worker threads. The [`perfmodel::search_stats`] counters must
//! actually observe shared-memo traffic and prune activity.
//!
//! Both paths rank and filter the same key rows, so a keying bug they
//! share would pass those pins. `execute` is therefore also checked
//! against a reference `PlanSet` built from `Planner::evaluations` with
//! the public `Objective::key` and `Objective::value`, by a ranking and a
//! frontier that key every evaluation themselves
//! (`assert_matches_reference`): on random spaces, under NaN scores,
//! under the goodput failure regimes and on a `ServingSlo` query.
//!
//! Counter tests deliberately avoid `reset_search_stats`: the counters
//! are process-global and the tests in this binary run concurrently, so
//! each test asserts on monotone *deltas* (counters only ever increase)
//! rather than absolute values.
//!
//! The 1/2/8-thread legs start each width from a cleared space store, so
//! every width enumerates, builds its profiles and computes its bounds
//! itself instead of reading the entry an earlier width stored.

#![allow(
    clippy::panic,
    clippy::unwrap_used,
    reason = "test helpers fail by panicking"
)]

use fmperf::prelude::*;
use perfmodel::ord::time_cmp;
use perfmodel::{clear_space_store, ObjectiveCtx, Score};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use systems::{NetworkSpec, SystemSpec};
use txmodel::TransformerConfig;

fn b200_nvs8() -> SystemSpec {
    system(GpuGeneration::B200, NvsSize::Nvs8)
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Runs `f` on `pool` from a cleared space store.
fn fresh<R>(pool: &rayon::ThreadPool, f: impl FnOnce() -> R) -> R {
    clear_space_store();
    pool.install(f)
}

/// A single-scale, single-strategy planner.
fn planner<'a>(
    model: &'a TransformerConfig,
    sys: &'a SystemSpec,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
) -> Planner<'a> {
    Planner::new(model, sys)
        .gpus(gpus)
        .global_batch(global_batch)
        .strategy(strategy)
}

/// One random space's proptest draws: indices into the option lists of
/// [`random_planner`].
struct SpaceDraw {
    gpus: usize,
    batch: usize,
    strategies: usize,
    interleave: usize,
    zero3: bool,
    constraint: usize,
}

/// A random space over GPT3-175B on B200-NVS8: one or two GPU counts,
/// one or two TP strategies, the interleave and ZeRO-3 knobs, and an
/// optional user predicate.
fn random_planner<'a>(
    model: &'a TransformerConfig,
    sys: &'a SystemSpec,
    d: &SpaceDraw,
) -> Planner<'a> {
    use TpStrategy::{OneD, Summa, TwoD};
    let gpus: &[u64] = [&[32u64][..], &[64], &[128], &[32, 128]][d.gpus];
    let strategies: &[TpStrategy] = [&[OneD][..], &[TwoD], &[Summa], &[Summa, OneD]][d.strategies];
    let max_interleave = [1u64, 2, 4][d.interleave];
    let p = Planner::new(model, sys)
        .gpu_counts(gpus.iter().copied())
        .global_batch([512u64, 1024, 2048][d.batch])
        .strategies(strategies.iter().copied())
        .with_space(|s| s.max_interleave(max_interleave).allow_zero3(d.zero3));
    match d.constraint {
        0 => p,
        1 => p.constrain(|c| c.np <= 4),
        _ => p.constrain(|c| c.tensor_parallel() <= 8 && c.microbatch > 1),
    }
}

/// Asserts two optional evaluations agree bit for bit.
fn assert_same(a: &Option<Evaluation>, b: &Option<Evaluation>, what: &str) {
    match (a, b) {
        (Some(x), Some(y)) => {
            assert_eq!(
                x.iteration_time.to_bits(),
                y.iteration_time.to_bits(),
                "{what}: iteration_time diverged for {}",
                x.config
            );
            assert_eq!(x, y, "{what}: Evaluation diverged");
        }
        (None, None) => {}
        _ => panic!(
            "{what}: feasibility disagreement ({} vs {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// The identity the one pipeline rests on: the single-optimum query, the
/// ranked query at k = 1 under iteration time, and the first entry of the
/// feasible sweep stably sorted by time (the first minimum in
/// enumeration order) are one evaluation, bit for bit.
fn assert_single_optimum_identity(planner: &Planner) -> Option<Evaluation> {
    let best = planner.best_evaluation();
    let ranked = planner
        .clone()
        .objective(Objective::IterationTime)
        .top_k(1)
        .execute()
        .best()
        .map(|p| p.eval.clone());
    let mut sweep = planner.evaluations();
    sweep.sort_by(|a, b| time_cmp(a.iteration_time, b.iteration_time));
    let first = sweep.into_iter().next();
    assert_same(&best, &ranked, "best_evaluation vs top_k(1).execute()");
    assert_same(&best, &first, "best_evaluation vs sorted sweep");
    best
}

/// The single-optimum query pruned (the default) and unpruned, plus the
/// identity above. All must agree bit for bit.
fn assert_exact(planner: &Planner) {
    let pruned = assert_single_optimum_identity(planner);
    let unpruned = planner.clone().prune(false).best_evaluation();
    assert_same(&pruned, &unpruned, "pruned vs unpruned");
}

#[test]
fn prunes_are_exact_on_paper_presets() {
    let sys = b200_nvs8();
    let presets: [(TransformerConfig, u64, u64, TpStrategy); 4] = [
        (gpt3_175b().config, 512, 1024, TpStrategy::OneD),
        (moe_1t().config, 256, 4096, TpStrategy::OneD),
        (vit_64k().config, 256, 4096, TpStrategy::Summa),
        (gpt3_1t().config, 256, 4096, TpStrategy::OneD),
    ];
    for (model, gpus, gb, strategy) in &presets {
        assert_exact(&planner(model, &sys, *gpus, *gb, *strategy));
    }
}

#[test]
fn prunes_are_exact_with_interleave_and_zero3() {
    // Exercises the interleave axis (whose np = 1 candidates tie their
    // interleave = 1 twins bit for bit) and the ZeRO-3 axis that doubles
    // every candidate.
    let sys = b200_nvs8();
    let model = gpt3_175b().config;
    let p = planner(&model, &sys, 256, 2048, TpStrategy::OneD)
        .with_space(|s| s.max_interleave(4).allow_zero3(true));
    assert_exact(&p);
}

#[test]
fn prunes_are_exact_across_thread_counts() {
    // The pool width must never change the selected optimum.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let p = planner(&model, &sys, 256, 4096, TpStrategy::Summa);
    let seq = fresh(&pool(1), || p.best_evaluation()).unwrap();
    let par = fresh(&pool(8), || p.best_evaluation()).unwrap();
    assert_eq!(seq.iteration_time.to_bits(), par.iteration_time.to_bits());
    assert_eq!(seq, par);
    assert_exact(&p);
}

#[test]
fn shared_memo_serves_fresh_worker_threads() {
    // Warm the process-wide shared table on this thread, then rerun the
    // same search on an 8-worker pool from a cleared space store, called
    // from a freshly spawned thread. That thread's thread-local L1 memo
    // is empty, as the pool's helpers' are, so whichever worker prices
    // the stage-0 bounds (the spawned thread, or a helper that starts
    // first) reads them from the shared L2, however the workers are
    // scheduled. Run from this thread, whose L1 the first search warmed,
    // a rerun on a busy host took every chunk of the bounds itself before
    // a helper started and never reached L2. No other test in this
    // binary searches this space, so none can store it again between the
    // clear and the rerun.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let p = planner(&model, &sys, 512, 4096, TpStrategy::Summa);
    let warm = p.best_evaluation().unwrap();

    let before = search_stats();
    let (par, after) = std::thread::scope(|s| {
        s.spawn(|| {
            let par = fresh(&pool(8), || p.best_evaluation());
            // Flushes the spawned thread's tallies before it exits.
            (par, search_stats())
        })
        .join()
        .unwrap()
    });
    assert_eq!(Some(warm), par);
    assert!(
        after.memo_shared_hits > before.memo_shared_hits,
        "the rerun from a fresh thread should hit the shared memo table: {before:?} -> {after:?}"
    );
}

#[test]
fn prune_counters_observe_skipped_candidates() {
    // The pruned path must actually skip work on a space large enough to
    // have provably-dominated and bound-pruned candidates, and the
    // skip counters must say so.
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let p = planner(&model, &sys, 1024, 4096, TpStrategy::Summa);
    let before = search_stats();
    let _ = p.best_evaluation().unwrap();
    let after = search_stats();
    assert!(
        after.dominated_pruned > before.dominated_pruned,
        "elimination against the seed should drop candidates: {before:?} -> {after:?}"
    );
    assert!(
        after.bound_pruned + after.dominated_pruned
            > before.bound_pruned + before.dominated_pruned + 10,
        "prunes should skip a nontrivial share of the space"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small spaces — several GPU counts and strategies,
    /// interleave, ZeRO-3 and user predicates: the single-optimum query
    /// pruned, unpruned, at k = 1 of the ranked query and from the sorted
    /// sweep agree bit for bit.
    #[test]
    fn prunes_are_exact_on_random_spaces(
        gpus_idx in 0usize..4,
        gb_idx in 0usize..3,
        strat_idx in 0usize..4,
        interleave_idx in 0usize..3,
        zero3_idx in 0usize..2,
        constraint_idx in 0usize..3,
    ) {
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let draw = SpaceDraw {
            gpus: gpus_idx,
            batch: gb_idx,
            strategies: strat_idx,
            interleave: interleave_idx,
            zero3: zero3_idx == 1,
            constraint: constraint_idx,
        };
        let p = random_planner(&model, &sys, &draw);
        assert_exact(&p);
    }
}

// ---------------------------------------------------------------------------
// Ranked-path (top-k + Pareto) exactness: the differential-testing
// harness for the k-th-incumbent branch-and-bound in `Planner::execute`.
// ---------------------------------------------------------------------------

/// FNV-1a fold over `u64` words — the independent second comparison
/// channel: `PlanSet` equality checks structure, the fold checks the
/// raw f64 bit stream end to end.
fn fnv_fold(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        h ^= p;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds every result-bearing bit of a `PlanSet` — counts, top-k order,
/// frontier order, each plan's configuration, iteration time and scores —
/// into one word.
fn plan_set_fingerprint(ps: &PlanSet) -> u64 {
    let mut words = vec![
        ps.candidates,
        ps.feasible,
        ps.top.len() as u64,
        ps.pareto.len() as u64,
    ];
    for p in ps.top.iter().chain(&ps.pareto) {
        words.push(p.eval.config.total_gpus());
        words.push(p.eval.config.np);
        words.push(p.eval.config.nd);
        words.push(p.eval.iteration_time.to_bits());
        words.push(p.eval.memory.total().to_bits());
        for s in &p.scores {
            words.push(s.value.to_bits());
        }
    }
    fnv_fold(words)
}

/// `execute` twice — ranked pruning on (the default) and off — and
/// require bit-identical `PlanSet`s, both structurally and by FNV
/// fingerprint. Returns the pruned one.
fn assert_ranked_exact(planner: &Planner) -> PlanSet {
    let pruned = planner.clone().execute();
    let unpruned = planner.clone().prune(false).execute();
    assert_eq!(
        plan_set_fingerprint(&pruned),
        plan_set_fingerprint(&unpruned),
        "pruned vs unpruned PlanSet fingerprints diverged"
    );
    // Structural comparison through Debug rather than PartialEq: Debug
    // of f64 is round-trip (bit-faithful for every finite value) and
    // treats NaN as equal to NaN, whereas `PlanSet == PlanSet` is
    // vacuously false for an objective carrying an injected NaN.
    assert_eq!(
        format!("{pruned:?}"),
        format!("{unpruned:?}"),
        "pruned vs unpruned PlanSet diverged"
    );
    pruned
}

// ---------------------------------------------------------------------------
// The reference ranking and frontier (see the module docs): they key every
// evaluation themselves, through the public `Objective::key`, instead of
// reading the pipeline's key rows.
// ---------------------------------------------------------------------------

/// `objective`'s ranking of `idx` (indices into `evals`): plain objectives
/// stable-sort by their key; lexicographic ones keep, stage by stage, the
/// candidates within `rel_tolerance · |best|` of the stage's best key, the
/// last stage ranks the survivors, and the eliminated groups follow, later
/// eliminations first, each ordered by the key that eliminated it.
fn reference_rank(
    objective: &Objective,
    evals: &[Evaluation],
    idx: &[usize],
    ctx: &ObjectiveCtx,
) -> Vec<usize> {
    let sort_by_key = |mut ix: Vec<usize>, obj: &Objective| -> Vec<usize> {
        let keys: Vec<f64> = evals.iter().map(|e| obj.key(e, ctx)).collect();
        ix.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
        ix
    };
    let Objective::Lexicographic { stages } = objective else {
        return sort_by_key(idx.to_vec(), objective);
    };
    let Some((last, filters)) = stages.split_last() else {
        return idx.to_vec();
    };
    let mut survivors: Vec<usize> = idx.to_vec();
    let mut eliminated: Vec<Vec<usize>> = Vec::new();
    for stage in filters {
        let keys: Vec<f64> = evals.iter().map(|e| stage.objective.key(e, ctx)).collect();
        let best = survivors
            .iter()
            .map(|&i| keys[i])
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        let cut = best + stage.rel_tolerance.max(0.0) * best.abs();
        let (keep, mut drop): (Vec<usize>, Vec<usize>) =
            survivors.iter().partition(|&&i| keys[i] <= cut);
        drop.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
        eliminated.push(drop);
        survivors = keep;
    }
    let mut out = sort_by_key(survivors, &last.objective);
    for group in eliminated.into_iter().rev() {
        out.extend(group);
    }
    out
}

/// The exact Pareto frontier of `idx` (indices into `evals`) across
/// `objectives`' keys, ordered by the first objective's key (ties keep
/// enumeration order). Exact ties and NaN keys dominate nothing.
fn reference_frontier(
    evals: &[Evaluation],
    idx: &[usize],
    objectives: &[Objective],
    ctx: &ObjectiveCtx,
) -> Vec<usize> {
    let dominates = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let keys: Vec<Vec<f64>> = evals
        .iter()
        .map(|e| objectives.iter().map(|o| o.key(e, ctx)).collect())
        .collect();
    let mut frontier: Vec<usize> = Vec::new();
    for &i in idx {
        if frontier.iter().any(|&j| dominates(&keys[j], &keys[i])) {
            continue;
        }
        frontier.retain(|&j| !dominates(&keys[i], &keys[j]));
        frontier.push(i);
    }
    frontier.sort_by(|&a, &b| keys[a][0].total_cmp(&keys[b][0]));
    frontier
}

/// `planner`'s `PlanSet` rebuilt from `evals`, its unpruned sweep
/// (`Planner::evaluations`, which keys only the iteration time): the
/// reference ranking and frontier over the feasible evaluations, and each
/// reported plan scored by `Objective::value` under the ranking objective,
/// then each frontier objective not already scored.
fn reference_plan_set(
    planner: &Planner,
    model: &TransformerConfig,
    evals: &[Evaluation],
) -> PlanSet {
    let cfg = planner.config();
    let ctx = planner.objective_ctx();
    let pareto_objectives = if cfg.pareto.is_empty() {
        vec![cfg.objective.clone()]
    } else {
        cfg.pareto.clone()
    };
    let feasible: Vec<usize> = (0..evals.len()).filter(|&i| evals[i].feasible).collect();
    let mut scored = vec![cfg.objective.clone()];
    for o in &pareto_objectives {
        if !scored.contains(o) {
            scored.push(o.clone());
        }
    }
    let plan = |&i: &usize| Plan {
        model: *model,
        global_batch: ctx.global_batch,
        eval: evals[i].clone(),
        scores: scored
            .iter()
            .map(|o| Score {
                objective: o.clone(),
                value: o.value(&evals[i], &ctx),
            })
            .collect(),
    };
    let ranked = reference_rank(&cfg.objective, evals, &feasible, &ctx);
    let frontier = reference_frontier(evals, &feasible, &pareto_objectives, &ctx);
    PlanSet {
        objective: cfg.objective.clone(),
        pareto_objectives,
        candidates: evals.len() as u64,
        feasible: feasible.len() as u64,
        top: ranked.iter().take(cfg.top_k).map(plan).collect(),
        pareto: frontier.iter().map(plan).collect(),
    }
}

/// Asserts that `plans`, `planner.execute()`'s result, has the `Debug`
/// text of [`reference_plan_set`] over `evals`, `planner`'s unpruned
/// sweep (`Debug` treats NaN as equal to NaN).
fn assert_matches_reference(
    plans: &PlanSet,
    planner: &Planner,
    model: &TransformerConfig,
    evals: &[Evaluation],
) {
    assert_eq!(
        format!("{plans:?}"),
        format!("{:?}", reference_plan_set(planner, model, evals)),
        "execute() vs the reference ranking and frontier"
    );
}

/// The `Objective` variants the ranked prune must stay exact under:
/// every training leaf (the two goodput objectives included), weighted
/// sums (positive, and negative-on-exact-key), lexicographic cascades
/// (prunable tolerance, no-prune-wide tolerance), and a serving metric
/// with no admissible bound, which must fall back to the full sweep.
fn objective_variant(i: usize) -> Objective {
    match i {
        0 => Objective::IterationTime,
        1 => Objective::TrainingDays {
            iterations: 100_000.0,
        },
        2 => Objective::TokensPerGpuSecond,
        3 => Objective::HbmHeadroom,
        4 => Objective::GpuSeconds,
        5 => Objective::weighted([
            (Objective::IterationTime, 1.0),
            (Objective::GpuSeconds, 1e-3),
        ]),
        6 => Objective::weighted([
            (Objective::IterationTime, 1.0),
            (Objective::HbmHeadroom, -1e-12),
        ]),
        7 => Objective::IterationTime.then(0.25, Objective::GpuSeconds),
        8 => Objective::IterationTime.then(2.0, Objective::HbmHeadroom),
        9 => Objective::ExpectedGoodput,
        10 => Objective::EffectiveTrainingDays {
            iterations: 100_000.0,
        },
        _ => Objective::TokensPerSecPerGpu,
    }
}

/// Pareto axis sets crossed with the objectives above.
fn pareto_variant(i: usize) -> Vec<Objective> {
    match i {
        0 => Vec::new(),
        1 => vec![Objective::IterationTime, Objective::HbmHeadroom],
        _ => vec![
            Objective::IterationTime,
            Objective::GpuSeconds,
            Objective::HbmHeadroom,
        ],
    }
}

#[test]
fn ranked_prunes_are_exact_on_paper_presets() {
    let sys = b200_nvs8();
    let presets: [(TransformerConfig, u64, u64, TpStrategy); 4] = [
        (gpt3_175b().config, 512, 1024, TpStrategy::OneD),
        (moe_1t().config, 256, 4096, TpStrategy::OneD),
        (vit_64k().config, 256, 4096, TpStrategy::Summa),
        (gpt3_1t().config, 256, 4096, TpStrategy::OneD),
    ];
    for (model, gpus, gb, strategy) in &presets {
        let planner = Planner::new(model, &sys)
            .gpus(*gpus)
            .global_batch(*gb)
            .strategy(*strategy)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
        assert_ranked_exact(&planner);
    }
}

#[test]
fn ranked_prunes_are_exact_across_thread_counts() {
    // The k-th-incumbent and archive races must never change a result
    // bit: the pruned PlanSet at 2 and 8 workers must equal the pruned
    // *and* unpruned PlanSets at 1 worker.
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let planner = Planner::new(&model, &sys)
        .gpus(256)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .top_k(6)
        .pareto([Objective::IterationTime, Objective::GpuSeconds]);
    let seq = fresh(&pool(1), || planner.clone().execute());
    let seq_unpruned = fresh(&pool(1), || planner.clone().prune(false).execute());
    assert_eq!(seq, seq_unpruned);
    assert_eq!(
        plan_set_fingerprint(&seq),
        plan_set_fingerprint(&seq_unpruned)
    );
    for n in [2usize, 8] {
        let par = fresh(&pool(n), || planner.clone().execute());
        assert_eq!(par, seq, "thread count {n}");
        assert_eq!(plan_set_fingerprint(&par), plan_set_fingerprint(&seq));
    }
}

#[test]
fn ranked_pruning_handles_nan_scores_exactly() {
    // Injected NaN scores: a NaN run length makes every TrainingDays and
    // EffectiveTrainingDays key NaN, and a NaN weight poisons a weighted
    // sum. None may prune a single candidate away from the unpruned
    // result (NaN bounds are vacuous), and the ranked output must stay
    // bit-identical — no NaN-sticky threshold may leak into the top-k
    // selection.
    let model = gpt3_175b().config;
    let sys = b200_nvs8();
    let nan_objectives = [
        Objective::TrainingDays {
            iterations: f64::NAN,
        },
        Objective::EffectiveTrainingDays {
            iterations: f64::NAN,
        },
        Objective::weighted([
            (Objective::IterationTime, f64::NAN),
            (Objective::GpuSeconds, 1e-3),
        ]),
        Objective::Lexicographic {
            stages: vec![
                perfmodel::LexStage {
                    objective: Objective::IterationTime,
                    rel_tolerance: f64::NAN,
                },
                perfmodel::LexStage {
                    objective: Objective::GpuSeconds,
                    rel_tolerance: 0.0,
                },
            ],
        },
    ];
    let space = planner(&model, &sys, 128, 1024, TpStrategy::OneD);
    let evals = space.evaluations();
    for objective in nan_objectives {
        let planner = space
            .clone()
            .objective(objective)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
        let plans = assert_ranked_exact(&planner);
        assert_matches_reference(&plans, &planner, &model, &evals);
    }
}

#[test]
fn ranked_pruning_skips_most_of_the_summa_space() {
    // The acceptance leg: top-8 + Pareto on the 16384-GPU SUMMA space.
    // The ranked prune must skip at least 5× more candidates than it
    // evaluates (the `topk_pruned` counter is process-global and only
    // ever increases, so the delta is asserted as a floor).
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let base = Planner::new(&model, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa)
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
    let before = search_stats();
    let pruned = base.clone().execute();
    let after = search_stats();
    assert_ranked_exact(&base);
    let skipped = after.topk_pruned - before.topk_pruned;
    let total = pruned.candidates;
    assert!(
        skipped >= total - total / 5,
        "ranked prune must skip ≥5× the evaluated candidates: \
         skipped {skipped} of {total}"
    );
}

/// The failure regimes the goodput prunes must stay exact under: the
/// datacenter default; a failure-heavy regime whose goodput fraction is
/// zero on every 4096-GPU candidate and positive on every 512-GPU one;
/// and two specs that make a slowdown inflation NaN. `execute` does not
/// validate the system, so those reach the key bounds.
fn goodput_specs() -> [ReliabilitySpec; 4] {
    let dc = ReliabilitySpec::datacenter();
    [
        dc,
        dc.with_gpu_mtbf_hours(500.0),
        dc.with_link_flaps(f64::NAN, 0.01, 120.0),
        dc.with_stragglers(f64::NAN, 1.5, 60.0),
    ]
}

#[test]
fn goodput_prunes_are_exact_under_failure_regimes() {
    // Both goodput objectives, and one as the primary stage of a
    // lexicographic cascade, with and without a goodput frontier axis,
    // at k = 1 and 8: the pruned PlanSet equals the unpruned one at 1, 2
    // and 8 workers. The 1D space's 128-GPU candidates include some
    // whose best placement keeps every group inside NVS domains, so under
    // the NaN link-flap spec their keys stay finite beside the NaN keys of
    // the rest — the mix a finite bound on a NaN key would mis-prune.
    let (gpt175, gpt1t) = (gpt3_175b().config, gpt3_1t().config);
    let days = Objective::EffectiveTrainingDays {
        iterations: 100_000.0,
    };
    let objectives = [
        Objective::ExpectedGoodput,
        days.clone(),
        Objective::ExpectedGoodput.then(0.1, Objective::GpuSeconds),
    ];
    let frontiers = [Vec::new(), vec![days, Objective::GpuSeconds]];
    let pools = [pool(1), pool(2), pool(8)];
    for (i, spec) in goodput_specs().into_iter().enumerate() {
        let sys = b200_nvs8().with_reliability(spec);
        let spaces = [
            (
                &gpt175,
                Planner::new(&gpt175, &sys)
                    .gpu_counts([128, 512, 4096])
                    .global_batch(1024)
                    .strategy(TpStrategy::OneD),
            ),
            (&gpt1t, planner(&gpt1t, &sys, 1024, 4096, TpStrategy::Summa)),
        ];
        // Under the NaN specs every SUMMA candidate is on the frontier,
        // whose quadratic construction takes seconds per query in the
        // debug profile; those specs run on the 1D space alone.
        let spaces = if i < 2 { &spaces[..] } else { &spaces[..1] };
        for (model, space) in spaces {
            let evals = space.evaluations();
            for objective in &objectives {
                for frontier in &frontiers {
                    for k in [1, 8] {
                        let p = space
                            .clone()
                            .objective(objective.clone())
                            .pareto(frontier.clone())
                            .top_k(k);
                        let reference = fresh(&pools[0], || p.clone().prune(false).execute());
                        assert_matches_reference(&reference, &p, model, &evals);
                        for (pool, n) in pools.iter().zip([1, 2, 8]) {
                            let pruned = fresh(pool, || p.execute());
                            assert_eq!(
                                format!("{pruned:?}"),
                                format!("{reference:?}"),
                                "{spec:?}, {objective:?}, frontier {frontier:?}, k {k}, {n} threads"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn serving_slo_ranking_and_frontier_match_the_reference() {
    // perfbench's serving op: `ServingSlo` on GPT3-175B chat traffic at 64
    // B200 GPUs, whose default frontier repeats the ranking objective, and
    // the same ranking beside a frontier that repeats it one column after
    // `TokensPerSecPerGpu`. The serving objectives bound no key, so these
    // queries never prune and only the reference can catch a keying bug.
    // At 1, 2 and 8 workers.
    let chat = gpt3_175b_chat();
    let sys = b200_nvs8();
    let slo = Objective::ServingSlo {
        slo: SloSpec {
            ttft_p50: 0.12,
            ttft_p99: 0.16,
            tpot_p50: 0.03,
            tpot_p99: 0.05,
        },
    };
    let space = planner(&chat.model, &sys, 64, 1024, TpStrategy::OneD).serving(chat.traffic);
    let evals = space.evaluations();
    let queries = [
        space.clone().objective(slo.clone()),
        space
            .objective(slo.clone())
            .pareto([Objective::TokensPerSecPerGpu, slo]),
    ];
    let pools = [pool(1), pool(2), pool(8)];
    for p in &queries {
        for pool in &pools {
            let plans = fresh(pool, || p.execute());
            assert!(!plans.top.is_empty() && !plans.pareto.is_empty());
            assert_matches_reference(&plans, p, &chat.model, &evals);
        }
    }
}

#[test]
fn failure_heavy_spec_splits_the_goodput_fraction() {
    // The failure-heavy regime above delivers nothing at 4096 GPUs (the
    // job fails faster than it restarts), so `EffectiveTrainingDays`'
    // bound there is the exact `+inf`, and something at 512.
    let model = gpt3_175b().config;
    let sys = b200_nvs8().with_reliability(goodput_specs()[1]);
    let p = Planner::new(&model, &sys)
        .gpu_counts([512, 4096])
        .global_batch(1024)
        .strategy(TpStrategy::OneD);
    let ctx = p.objective_ctx();
    let evals = p.evaluations();
    assert!(!evals.is_empty());
    for e in &evals {
        let f = perfmodel::reliability::assess(e, &ctx).goodput_fraction;
        match e.config.total_gpus() {
            512 => assert!(f > 0.0, "{}: fraction {f}", e.config),
            _ => assert_eq!(f, 0.0, "{}", e.config),
        }
    }
}

#[test]
fn goodput_pruning_skips_most_of_the_summa_space() {
    // Both goodput objectives on the 16384-GPU SUMMA space, top-8 with
    // the objective's own frontier: the prune must skip at least 4/5 of
    // the candidates (a floor on the process-global counter's delta).
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let objectives = [
        Objective::ExpectedGoodput,
        Objective::EffectiveTrainingDays {
            iterations: 100_000.0,
        },
    ];
    for objective in objectives {
        let p = planner(&model, &sys, 16384, 4096, TpStrategy::Summa).objective(objective);
        let before = search_stats();
        let plans = p.execute();
        let after = search_stats();
        let skipped = after.topk_pruned - before.topk_pruned;
        let total = plans.candidates;
        assert!(
            skipped >= total - total / 5,
            "{:?}: skipped {skipped} of {total}",
            p.config().objective
        );
    }
}

/// Network fields `validate_system` rejects: a zero slow-tier bandwidth
/// (every cross-domain collective then takes `+inf`), a NaN fast-tier
/// bandwidth, a NaN slow-tier latency and an infinite fast-tier latency.
/// `execute` and `best_evaluation` do not validate the system, so these
/// reach the search; its time bound assumes finite, non-negative
/// collective times, so the planner must not prune on them.
fn hostile_networks() -> [(&'static str, SystemSpec); 4] {
    let with = |edit: fn(&mut NetworkSpec)| {
        let mut sys = b200_nvs8();
        edit(&mut sys.network);
        sys
    };
    [
        ("ib_bandwidth = 0", with(|n| n.ib_bandwidth = 0.0)),
        ("nvs_bandwidth = NaN", with(|n| n.nvs_bandwidth = f64::NAN)),
        ("ib_latency = NaN", with(|n| n.ib_latency = f64::NAN)),
        (
            "nvs_latency = +inf",
            with(|n| n.nvs_latency = f64::INFINITY),
        ),
    ]
}

#[test]
fn prunes_are_exact_on_hostile_networks() {
    // On every hostile network, a 1D and a SUMMA space of GPT3-175B: the
    // single optimum equals the unpruned sweep's first minimum, and the
    // top-4 + [IterationTime, HbmHeadroom] PlanSet equals the unpruned
    // one, at 1, 2 and 8 workers. Compared through `Debug`, which treats
    // NaN as equal to NaN.
    let model = gpt3_175b().config;
    let pools = [pool(1), pool(2), pool(8)];
    for (what, sys) in hostile_networks() {
        for strategy in [TpStrategy::OneD, TpStrategy::Summa] {
            let p = planner(&model, &sys, 128, 1024, strategy);
            let ranked = p
                .clone()
                .top_k(4)
                .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
            let first_minimum = fresh(&pools[0], || {
                let mut sweep = p.evaluations();
                sweep.sort_by(|a, b| time_cmp(a.iteration_time, b.iteration_time));
                sweep.into_iter().next()
            });
            let unpruned = fresh(&pools[0], || ranked.clone().prune(false).execute());
            for (pool, n) in pools.iter().zip([1, 2, 8]) {
                let best = fresh(pool, || p.best_evaluation());
                assert_eq!(
                    format!("{best:?}"),
                    format!("{first_minimum:?}"),
                    "{what}, {strategy:?}: best_evaluation at {n} threads"
                );
                let plans = fresh(pool, || ranked.execute());
                assert_eq!(
                    format!("{plans:?}"),
                    format!("{unpruned:?}"),
                    "{what}, {strategy:?}: top-4 + Pareto at {n} threads"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random spaces (several GPU counts and strategies, interleave,
    /// ZeRO-3, user predicates) × every `Objective` variant × Pareto axis
    /// sets × 1/2/8 worker threads: the pruned `PlanSet` (top-k ranking
    /// *and* Pareto frontier) must be bit-identical — f64 bits and FNV
    /// fold — to the unpruned sweep's, at every thread count, and the
    /// single-optimum query must agree with k = 1 of the ranked one.
    #[test]
    fn ranked_prunes_are_exact_on_random_spaces(
        gpus_idx in 0usize..4,
        gb_idx in 0usize..2,
        strat_idx in 0usize..4,
        interleave_idx in 0usize..3,
        zero3_idx in 0usize..2,
        constraint_idx in 0usize..3,
        objective_idx in 0usize..12,
        pareto_idx in 0usize..3,
        top_k in 0usize..10,
    ) {
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let draw = SpaceDraw {
            gpus: gpus_idx,
            batch: gb_idx,
            strategies: strat_idx,
            interleave: interleave_idx,
            zero3: zero3_idx == 1,
            constraint: constraint_idx,
        };
        let planner = random_planner(&model, &sys, &draw)
        .objective(objective_variant(objective_idx))
        .pareto(pareto_variant(pareto_idx))
        .top_k(top_k);
        let reference = fresh(&pool(1), || planner.clone().prune(false).execute());
        assert_matches_reference(&reference, &planner, &model, &planner.evaluations());
        let ref_fp = plan_set_fingerprint(&reference);
        for n in [1usize, 2, 8] {
            let pruned = fresh(&pool(n), || planner.clone().execute());
            prop_assert_eq!(plan_set_fingerprint(&pruned), ref_fp);
            prop_assert_eq!(&pruned, &reference);
        }
        assert_single_optimum_identity(&planner);
    }
}
