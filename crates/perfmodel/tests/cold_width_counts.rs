//! A cold query that prunes takes the same memo misses at every pool
//! width.
//!
//! Stage 0 of a cold query fans the placement-free time bounds out over
//! the pool. The candidates of one profile share their pass-level memo
//! keys, and the memo computes a missed key while it holds the key's
//! shard lock, so each key is priced once, whichever workers take part
//! and whichever reaches a key first; the later stages run in order on
//! the calling thread. Each run gets a system of its own (a perturbed IB
//! latency, which the memo keys and the space store's key both read), so
//! every run is cold in the memo and in the store. The counters behind
//! `search_stats` are process-wide, so this binary holds one test and
//! runs nothing else that moves them.

use perfmodel::{search_stats, Objective, Planner, TpStrategy};
use systems::{system, GpuGeneration, NvsSize};

/// Runs the single optimum of `planner`'s space or, when `ranked`, its
/// top 8 with an `[IterationTime, HbmHeadroom]` frontier; true when it
/// finds a plan.
fn run(planner: &Planner, ranked: bool) -> bool {
    if !ranked {
        return planner.best_evaluation().is_some();
    }
    let ranked = planner
        .clone()
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
    !ranked.execute().top.is_empty()
}

#[test]
fn cold_pruned_queries_miss_the_same_at_every_width() {
    let model = txmodel::gpt3_1t().config;
    let base = system(GpuGeneration::B200, NvsSize::Nvs8);
    // perfbench's GPT3-1T SUMMA single optimum and ranked query.
    let queries = [
        ("best GPT3-1T SUMMA", false),
        ("ranked GPT3-1T SUMMA", true),
    ];
    let mut perturbation = 0.0;
    for (name, ranked) in queries {
        let misses: Vec<(usize, u64)> = [1, 2, 8]
            .into_iter()
            .map(|width| {
                perturbation += 1e-9;
                let mut sys = base.clone();
                sys.network.ib_latency += perturbation;
                let planner = Planner::new(&model, &sys)
                    .gpus(16384)
                    .global_batch(4096)
                    .strategy(TpStrategy::Summa);
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("pool");
                let before = search_stats();
                assert!(pool.install(|| run(&planner, ranked)), "{name}: no plan");
                let after = search_stats();
                assert_eq!(after.store_misses - before.store_misses, 1, "{name}");
                (width, after.memo_misses - before.memo_misses)
            })
            .collect();
        let (_, at_width_1) = misses[0];
        assert!(at_width_1 > 0, "{name}: the run should be cold");
        for &(width, at_width) in &misses[1..] {
            assert_eq!(
                at_width, at_width_1,
                "{name}: memo misses at width {width} against width 1"
            );
        }
    }
}
