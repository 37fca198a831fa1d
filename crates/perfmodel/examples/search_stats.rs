//! Profiling counters and the pool-scaling gate on the heaviest
//! single-strategy search: the SUMMA sweep of GPT3-1T on 16384 GPUs.
//!
//! Lists the space's candidates (`candidates`), which builds the space's
//! entry in the space store — enumeration, profile builds and memory
//! ledgers — and times that as the `enumerate` line. Then it runs three
//! queries of the planner's one search pipeline back-to-back — the pruned
//! single optimum (`best_evaluation`), the pruned top-8 + Pareto ranking
//! (`execute`) and the unpruned full sweep (`evaluations`) — and prints
//! per-query wall clock next to the [`perfmodel::search_stats`] deltas:
//! space-store hits and misses, memo hits split by level (thread-local L1
//! vs the process-wide shared table), profile rebuild counts and time,
//! and how many candidates each prune skipped. All three queries read the
//! stored entry, so each reports one store hit and no profile builds. See
//! `PERFORMANCE.md` for how these numbers feed the perf methodology.
//!
//! Then it gates pool scaling. It pins the rayon pool to 1, 2, 4 and 8
//! threads and times the pruned single optimum at each width: one
//! untimed warm-up call, then the mean of 30 timed calls. Each call
//! starts from a cleared space store, so it times the whole pipeline:
//! enumeration, profile builds, ledgers and bounds, which fan out over
//! the pool, as well as the assessment, seed and sweep, which run in
//! order on the calling thread. On a machine with at least 4 cores, the
//! 8-thread mean must be at most half the 1-thread mean, or the example
//! exits non-zero. With fewer cores, 8 workers time-slice the same cores,
//! so the times measure scheduling overhead rather than speedup: it
//! prints them and skips the ratio, saying so.
//!
//! ```text
//! cargo run --release -p perfmodel --example search_stats
//! ```

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "a profiling example times on the wall clock and aborts on a failed query"
)]

use perfmodel::{
    clear_space_store, reset_search_stats, search_stats, Objective, Planner, SearchStats,
    TpStrategy,
};
use std::hint::black_box;
use std::process::exit;
use std::time::{Duration, Instant};
use systems::{system, GpuGeneration, NvsSize};
use txmodel::gpt3_1t;

/// Pool widths the scaling gate times, narrowest first.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// Timed calls per width; their mean is the width's time.
const TIMED_CALLS: u32 = 30;
/// Fewest cores on which 8 workers can show a speedup worth gating.
const GATE_MIN_CORES: usize = 4;
/// The largest passing 8-thread / 1-thread time ratio.
const GATE_MAX_RATIO: f64 = 0.5;

fn print_counters(s: &SearchStats) {
    println!(
        "  space store:  {} hits, {} misses, {} evictions",
        s.store_hits, s.store_misses, s.store_evictions
    );
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

    // Builds and stores the space's entry; the three queries read it.
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

    // Pool scaling: the pruned single optimum at each pinned width.
    let mut mean = [Duration::ZERO; WIDTHS.len()];
    for (t, &threads) in mean.iter_mut().zip(&WIDTHS) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        *t = pool.install(|| {
            clear_space_store();
            black_box(planner.best_evaluation());
            let mut total = Duration::ZERO;
            for _ in 0..TIMED_CALLS {
                clear_space_store();
                let t0 = Instant::now();
                black_box(planner.best_evaluation());
                total += t0.elapsed();
            }
            total / TIMED_CALLS
        });
        println!("scaling t{threads}:     {t:.2?} (mean of {TIMED_CALLS} calls)");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < GATE_MIN_CORES {
        println!(
            "SKIP scaling gate: {cores} core(s); t8 <= {GATE_MAX_RATIO} x t1 is checked on \
             {GATE_MIN_CORES} or more"
        );
        return;
    }
    let [t1, _, _, t8] = mean;
    let ratio = t8.as_secs_f64() / t1.as_secs_f64();
    println!("scaling gate:   t8 / t1 = {ratio:.3} on {cores} cores (gate: <= {GATE_MAX_RATIO})");
    if ratio > GATE_MAX_RATIO {
        eprintln!("FAIL scaling gate: t8 / t1 = {ratio:.3} > {GATE_MAX_RATIO}");
        exit(1);
    }
}
