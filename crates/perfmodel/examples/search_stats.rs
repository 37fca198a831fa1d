//! Profiling counters on the heaviest search in the bench suite: the
//! SUMMA sweep of GPT3-1T on 16384 GPUs (`gpt_summa_n16384` in
//! `out/bench.json`).
//!
//! Runs three queries of the planner's one search pipeline back-to-back —
//! the pruned single optimum (`best_evaluation`), the pruned top-8 +
//! Pareto ranking (`execute`) and the unpruned full sweep
//! (`evaluations`) — and prints per-query wall clock next to the
//! [`perfmodel::search_stats`] deltas: memo hits split by level
//! (thread-local L1 vs the process-wide shared table), profile rebuild
//! counts and time, and how many candidates each prune skipped. See
//! `PERFORMANCE.md` for how these numbers feed the perf methodology.
//!
//! ```text
//! cargo run --release -p perfmodel --example search_stats
//! ```

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "a profiling example times on the wall clock and aborts on a failed query"
)]

use perfmodel::{reset_search_stats, search_stats, Objective, Planner, SearchStats, TpStrategy};
use std::time::{Duration, Instant};
use systems::{system, GpuGeneration, NvsSize};
use txmodel::gpt3_1t;

fn print_counters(s: &SearchStats) {
    println!(
        "  profiles:     {} built in {:.2?}",
        s.profile_builds,
        Duration::from_nanos(s.profile_build_nanos)
    );
    println!(
        "  memo:         {} local hits, {} shared hits, {} misses",
        s.memo_local_hits, s.memo_shared_hits, s.memo_misses
    );
    println!(
        "  pruned:       {} dominated, {} by bound, {} top-k",
        s.dominated_pruned, s.bound_pruned, s.topk_pruned
    );
}

fn main() {
    let model = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = Planner::new(&model, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa);

    let t0 = Instant::now();
    let n = planner.candidates().len();
    println!("enumerate:      {n:>7} candidates in {:.2?}", t0.elapsed());

    // Pruned single optimum (top 1 by iteration time, no frontier).
    reset_search_stats();
    let t0 = Instant::now();
    let best = planner
        .best_evaluation()
        .expect("a feasible SUMMA config exists");
    let dt = t0.elapsed();
    println!(
        "best:           {dt:.2?} (best iteration {:.4} s)",
        best.iteration_time
    );
    print_counters(&search_stats());

    // Pruned ranking: top 8 plus the time/headroom frontier.
    reset_search_stats();
    let t0 = Instant::now();
    let plans = planner
        .clone()
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom])
        .execute();
    let dt = t0.elapsed();
    println!(
        "top-8 + Pareto: {dt:.2?} ({} ranked, {} on the frontier)",
        plans.top.len(),
        plans.pareto.len()
    );
    print_counters(&search_stats());

    // Unpruned full sweep (what every candidate costs).
    reset_search_stats();
    let t0 = Instant::now();
    let evals = planner.evaluations();
    let dt = t0.elapsed();
    println!("full sweep:     {dt:.2?} ({} feasible evaluations)", {
        evals.iter().filter(|e| e.feasible).count()
    });
    print_counters(&search_stats());
}
