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
//! Counter tests deliberately avoid `reset_search_stats`: the counters
//! are process-global and the tests in this binary run concurrently, so
//! each test asserts on monotone *deltas* (counters only ever increase)
//! rather than absolute values.

#![allow(
    clippy::panic,
    clippy::unwrap_used,
    reason = "test helpers fail by panicking"
)]

use fmperf::prelude::*;
use perfmodel::ord::time_cmp;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use systems::SystemSpec;
use txmodel::TransformerConfig;

fn b200_nvs8() -> SystemSpec {
    system(GpuGeneration::B200, NvsSize::Nvs8)
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
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
    // The shared-threshold race must never change the selected optimum.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let p = planner(&model, &sys, 256, 4096, TpStrategy::Summa);
    let seq = pool(1).install(|| p.best_evaluation()).unwrap();
    let par = pool(8).install(|| p.best_evaluation()).unwrap();
    assert_eq!(seq.iteration_time.to_bits(), par.iteration_time.to_bits());
    assert_eq!(seq, par);
    assert_exact(&p);
}

#[test]
fn shared_memo_serves_fresh_worker_threads() {
    // Warm the process-wide shared table on the calling thread, then run
    // the same search on a fresh 8-worker pool: the workers' thread-local
    // L1 memos start empty, so their hits must come from the shared L2.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let p = planner(&model, &sys, 256, 4096, TpStrategy::Summa);
    let warm = p.best_evaluation().unwrap();

    let before = search_stats();
    let par = pool(8).install(|| p.best_evaluation()).unwrap();
    let after = search_stats();
    assert_eq!(warm, par);
    assert!(
        after.memo_shared_hits > before.memo_shared_hits,
        "8-thread rerun should hit the shared memo table: {before:?} -> {after:?}"
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
/// fingerprint.
fn assert_ranked_exact(planner: &Planner) {
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
}

/// The `Objective` variants the ranked prune must stay exact under:
/// every leaf, weighted sums (positive, and negative-on-exact-key),
/// lexicographic cascades (prunable tolerance, no-prune-wide tolerance),
/// and a no-admissible-bound metric that must fall back to the full
/// sweep.
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
        _ => Objective::ExpectedGoodput,
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
    let seq = pool(1).install(|| planner.clone().execute());
    let seq_unpruned = pool(1).install(|| planner.clone().prune(false).execute());
    assert_eq!(seq, seq_unpruned);
    assert_eq!(
        plan_set_fingerprint(&seq),
        plan_set_fingerprint(&seq_unpruned)
    );
    for n in [2usize, 8] {
        let par = pool(n).install(|| planner.clone().execute());
        assert_eq!(par, seq, "thread count {n}");
        assert_eq!(plan_set_fingerprint(&par), plan_set_fingerprint(&seq));
    }
}

#[test]
fn ranked_pruning_handles_nan_scores_exactly() {
    // Injected NaN scores: a NaN run length makes every TrainingDays key
    // NaN, and a NaN weight poisons a weighted sum. Neither may prune a
    // single candidate away from the unpruned result (NaN bounds are
    // vacuous), and the ranked output must stay bit-identical — no
    // NaN-sticky threshold may leak into the top-k selection.
    let model = gpt3_175b().config;
    let sys = b200_nvs8();
    let nan_objectives = [
        Objective::TrainingDays {
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
    for objective in nan_objectives {
        let planner = Planner::new(&model, &sys)
            .gpus(128)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(objective)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
        assert_ranked_exact(&planner);
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
        objective_idx in 0usize..10,
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
        let reference = pool(1).install(|| planner.clone().prune(false).execute());
        let ref_fp = plan_set_fingerprint(&reference);
        for n in [1usize, 2, 8] {
            let pruned = pool(n).install(|| planner.clone().execute());
            prop_assert_eq!(plan_set_fingerprint(&pruned), ref_fp);
            prop_assert_eq!(&pruned, &reference);
        }
        assert_single_optimum_identity(&planner);
    }
}
