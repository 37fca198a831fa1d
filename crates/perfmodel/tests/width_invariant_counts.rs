//! A warm query that prunes reads the same search counters at every pool
//! width.
//!
//! Stages 1–4 of such a query (assess, seeds, eliminate and the best-first
//! sweep) run in order on the calling thread, whose L1 memo a first run
//! has warmed, so every width evaluates the same candidates, prunes the
//! same ones and takes the same memo hits. The counters behind
//! `search_stats` are process-wide, so this binary holds one test and runs
//! nothing else that moves them.

use perfmodel::{search_stats, Objective, Planner, SearchStats, TpStrategy};
use systems::{system, GpuGeneration, NvsSize};

/// Every counter's change between two snapshots.
fn delta(before: SearchStats, after: SearchStats) -> SearchStats {
    SearchStats {
        memo_local_hits: after.memo_local_hits - before.memo_local_hits,
        memo_shared_hits: after.memo_shared_hits - before.memo_shared_hits,
        memo_misses: after.memo_misses - before.memo_misses,
        profile_builds: after.profile_builds - before.profile_builds,
        profile_build_nanos: after.profile_build_nanos - before.profile_build_nanos,
        bound_pruned: after.bound_pruned - before.bound_pruned,
        dominated_pruned: after.dominated_pruned - before.dominated_pruned,
        topk_pruned: after.topk_pruned - before.topk_pruned,
        store_hits: after.store_hits - before.store_hits,
        store_misses: after.store_misses - before.store_misses,
        store_evictions: after.store_evictions - before.store_evictions,
    }
}

#[test]
fn warm_pruned_queries_count_the_same_at_every_width() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let gpt1t = txmodel::gpt3_1t().config;
    let gpt175 = txmodel::gpt3_175b().config;
    let summa = Planner::new(&gpt1t, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa);
    let ranked = summa
        .clone()
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
    let goodput = Planner::new(&gpt175, &sys)
        .gpus(4096)
        .global_batch(1024)
        .strategy(TpStrategy::OneD)
        .objective(Objective::ExpectedGoodput);
    let queries: [(&str, &dyn Fn() -> String); 3] = [
        ("ranked GPT3-1T SUMMA", &|| {
            format!("{:?}", ranked.execute())
        }),
        ("best GPT3-1T SUMMA", &|| {
            format!("{:?}", summa.best_evaluation())
        }),
        ("GPT3-175B goodput", &|| format!("{:?}", goodput.execute())),
    ];

    for (name, run) in queries {
        // Warm the space store, the memo and this thread's L1.
        let expect = run();
        let counts: Vec<(usize, SearchStats)> = [1, 2, 8]
            .into_iter()
            .map(|width| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("pool");
                let before = search_stats();
                let out = pool.install(run);
                let counts = delta(before, search_stats());
                assert_eq!(out, expect, "{name}: result at width {width}");
                (width, counts)
            })
            .collect();
        let (_, at_width_1) = counts[0];
        assert_eq!(at_width_1.store_hits, 1, "{name}: {at_width_1:?}");
        assert_eq!(at_width_1.memo_misses, 0, "{name}: {at_width_1:?}");
        for &(width, at_width) in &counts[1..] {
            assert_eq!(
                at_width, at_width_1,
                "{name}: width {width} against width 1"
            );
        }
    }
}
