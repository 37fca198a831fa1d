//! Cross-crate guarantee for the planner's space store: reusing a
//! space's stored placement-free work never changes a result bit. Every
//! query returns the same `Debug` text on a store miss, on a hit and
//! after `clear_space_store`, at 1, 2 and 8 worker threads; spaces that
//! differ in one input each get their own entry; a NaN input bypasses
//! the store; constrained and unconstrained planners share an entry in
//! either order; `Planner::candidates` stores the entry a search after it
//! reads; and concurrent searches agree with sequential ones.
//!
//! The store and its counters are process-wide, so every test here holds
//! [`serial`] for its whole body: the counter deltas each test asserts
//! are then its own.

#![allow(clippy::unwrap_used, reason = "test helpers fail by panicking")]

use fmperf::prelude::*;
use perfmodel::clear_space_store;
use rayon::ThreadPoolBuilder;
use std::sync::{Mutex, MutexGuard, PoisonError};
use txmodel::TransformerConfig;

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

fn b200() -> SystemSpec {
    system(GpuGeneration::B200, NvsSize::Nvs8)
}

fn chat_slo() -> SloSpec {
    SloSpec {
        ttft_p50: 0.12,
        ttft_p99: 0.16,
        tpot_p50: 0.03,
        tpot_p99: 0.05,
    }
}

/// A GPT3-175B-sized training planner: two GPU counts, 1D TP.
fn training<'a>(model: &'a TransformerConfig, sys: &'a SystemSpec) -> Planner<'a> {
    Planner::new(model, sys)
        .gpu_counts([64, 128])
        .global_batch(512)
        .strategy(TpStrategy::OneD)
}

/// A serving planner at 64 GPUs under `traffic`, ranked by the chat SLO.
fn serving<'a>(
    model: &'a TransformerConfig,
    sys: &'a SystemSpec,
    traffic: InferenceConfig,
) -> Planner<'a> {
    Planner::new(model, sys)
        .gpus(64)
        .global_batch(1024)
        .strategy(TpStrategy::OneD)
        .serving(traffic)
        .objective(Objective::ServingSlo { slo: chat_slo() })
}

/// A named query whose result is compared as `Debug` text.
type Query<'a> = (&'static str, Box<dyn Fn() -> String + 'a>);

fn query<'a, T: std::fmt::Debug>(name: &'static str, run: impl Fn() -> T + 'a) -> Query<'a> {
    (name, Box::new(move || format!("{:?}", run())))
}

/// The query paths the store serves: single optimum, top-8 + Pareto,
/// the unpruned sweep with infeasible candidates, the goodput objective
/// and serving.
fn queries<'a>(model: &'a TransformerConfig, sys: &'a SystemSpec) -> Vec<Query<'a>> {
    let p = training(model, sys);
    let ranked = p
        .clone()
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
    let sweep = p.clone().include_infeasible(true);
    let goodput = p.clone().objective(Objective::ExpectedGoodput);
    let serve = serving(model, sys, gpt3_175b_chat().traffic);
    vec![
        query("best_evaluation", move || p.best_evaluation()),
        query("top-8 + Pareto", move || ranked.execute()),
        query("include_infeasible sweep", move || sweep.evaluations()),
        query("ExpectedGoodput", move || goodput.execute()),
        query("ServingSlo", move || serve.execute()),
    ]
}

/// Store counters so far.
fn hits_misses() -> (u64, u64) {
    let s = search_stats();
    (s.store_hits, s.store_misses)
}

#[test]
fn miss_hit_and_cleared_results_are_identical_at_every_width() {
    let _serial = serial();
    let (model, sys) = (gpt3_175b().config, b200());
    for (name, run) in queries(&model, &sys) {
        let mut reference = None;
        for n in [1usize, 2, 8] {
            let (miss, hit, cleared) = pool(n).install(|| {
                clear_space_store();
                let (h0, m0) = hits_misses();
                let miss = run();
                let (h1, m1) = hits_misses();
                let hit = run();
                let (h2, m2) = hits_misses();
                assert_eq!((h1 - h0, m1 - m0), (0, 1), "{name}: first call misses");
                assert_eq!((h2 - h1, m2 - m1), (1, 0), "{name}: second call hits");
                clear_space_store();
                (miss, hit, run())
            });
            assert_eq!(hit, miss, "{name}, {n} threads: hit vs miss");
            assert_eq!(cleared, miss, "{name}, {n} threads: after a clear");
            let reference = reference.get_or_insert(miss.clone());
            assert_eq!(&miss, reference, "{name}, {n} threads vs 1 thread");
        }
    }
}

#[test]
fn neighbours_differing_in_one_input_get_their_own_entries() {
    let _serial = serial();
    let model = gpt3_175b().config;
    let base_sys = b200();
    type Edit = fn(&mut SystemSpec);
    let system_edits: [(&str, Edit); 5] = [
        ("ib_bandwidth", |s| s.network.ib_bandwidth *= 1.5),
        ("ib_latency 0.0", |s| s.network.ib_latency = 0.0),
        ("ib_latency -0.0", |s| s.network.ib_latency = -0.0),
        ("hbm_capacity", |s| s.gpu.hbm_capacity *= 0.5),
        ("nvs_size", |s| s.nvs_size = 4),
    ];
    let systems: Vec<(&str, SystemSpec)> = system_edits
        .iter()
        .map(|(what, edit)| {
            let mut sys = base_sys.clone();
            edit(&mut sys);
            (*what, sys)
        })
        .collect();
    let base = || training(&model, &base_sys).top_k(4);
    let mut neighbours: Vec<(&str, Planner)> = systems
        .iter()
        .map(|(what, sys)| (*what, training(&model, sys).top_k(4)))
        .collect();
    neighbours.extend([
        (
            "comm_algo",
            base().with_space(|s| s.comm_algo(Algorithm::Ring)),
        ),
        ("allow_zero3", base().with_space(|s| s.allow_zero3(true))),
        ("max_microbatch", base().with_space(|s| s.max_microbatch(2))),
        ("global_batch", base().global_batch(1024)),
    ]);
    let chat = gpt3_175b_chat();
    let faster = InferenceConfig {
        request_rate_milli: chat.traffic.request_rate_milli * 2,
        ..chat.traffic
    };
    neighbours.push(("serving", serving(&chat.model, &base_sys, chat.traffic)));
    neighbours.push((
        "serving request rate",
        serving(&chat.model, &base_sys, faster),
    ));
    let cold: Vec<String> = neighbours
        .iter()
        .map(|(_, p)| {
            clear_space_store();
            format!("{:?}", p.execute())
        })
        .collect();

    // With the base space and every earlier neighbour stored, each
    // neighbour still misses and gets its own cold result.
    clear_space_store();
    let _ = base().execute();
    for ((what, p), cold) in neighbours.iter().zip(&cold) {
        let (_, m0) = hits_misses();
        let warm = format!("{:?}", p.execute());
        let (_, m1) = hits_misses();
        assert_eq!(m1 - m0, 1, "{what}: must not share a neighbour's entry");
        assert_eq!(&warm, cold, "{what}");
    }

    // The prune switch is not part of the key: both settings share one
    // entry.
    clear_space_store();
    let pruned = base().execute();
    let (h0, m0) = hits_misses();
    let unpruned = base().prune(false).execute();
    let (h1, m1) = hits_misses();
    assert_eq!((h1 - h0, m1 - m0), (1, 0), "prune(false) reads the entry");
    assert_eq!(format!("{pruned:?}"), format!("{unpruned:?}"));
}

#[test]
fn nan_inputs_bypass_the_store() {
    let _serial = serial();
    let dc = ReliabilitySpec::datacenter();
    let sys = b200().with_reliability(dc.with_link_flaps(0.5, f64::NAN, 120.0));
    let model = gpt3_175b().config;
    let p = training(&model, &sys).objective(Objective::ExpectedGoodput);
    clear_space_store();
    let (h0, m0) = hits_misses();
    let first = format!("{:?}", p.execute());
    let second = format!("{:?}", p.execute());
    let (h1, m1) = hits_misses();
    assert_eq!((h1 - h0, m1 - m0), (0, 2), "a NaN space is never stored");
    assert_eq!(first, second);
    clear_space_store();
    assert_eq!(format!("{:?}", p.execute()), first);
}

#[test]
fn constrained_and_unconstrained_planners_share_an_entry() {
    let _serial = serial();
    let (model, sys) = (gpt3_175b().config, b200());
    let all = training(&model, &sys)
        .top_k(4)
        .pareto([Objective::IterationTime, Objective::GpuSeconds]);
    let keep = |c: &ParallelConfig| c.np <= 4 && c.microbatch > 1;
    let constrained = all.clone().constrain(keep);
    let run = |p: &Planner| format!("{:?}/{:?}", p.candidates(), p.execute());
    clear_space_store();
    let cold_all = run(&all);
    clear_space_store();
    let cold_constrained = run(&constrained);
    assert_ne!(cold_all, cold_constrained, "the predicate must bite");
    let plans = constrained.execute();
    assert!(!plans.top.is_empty());
    assert!(plans
        .top
        .iter()
        .chain(&plans.pareto)
        .all(|p| keep(&p.eval.config)));
    for [(first, first_cold), (second, second_cold)] in [
        [(&all, &cold_all), (&constrained, &cold_constrained)],
        [(&constrained, &cold_constrained), (&all, &cold_all)],
    ] {
        clear_space_store();
        assert_eq!(&run(first), first_cold);
        let (h0, m0) = hits_misses();
        assert_eq!(&run(second), second_cold);
        let (h1, m1) = hits_misses();
        assert_eq!(
            (h1 - h0, m1 - m0),
            (2, 0),
            "the second planner reads the first one's entry"
        );
    }
}

#[test]
fn candidates_store_the_entry_the_search_reads() {
    let _serial = serial();
    let (model, sys) = (gpt3_175b().config, b200());
    let p = training(&model, &sys);
    clear_space_store();
    let cold = format!("{:?}", p.best_evaluation());
    clear_space_store();
    let (h0, m0) = hits_misses();
    let candidates = p.candidates();
    let best = format!("{:?}", p.best_evaluation());
    let (h1, m1) = hits_misses();
    assert!(!candidates.is_empty());
    assert_eq!(
        (h1 - h0, m1 - m0),
        (1, 1),
        "candidates() builds the entry and the search reads it"
    );
    assert_eq!(best, cold);
}

#[test]
fn concurrent_searches_match_sequential_ones() {
    let _serial = serial();
    let model = gpt3_175b().config;
    let sys = b200();
    let spaces = [
        training(&model, &sys).top_k(4),
        training(&model, &sys)
            .gpus(256)
            .objective(Objective::ExpectedGoodput),
        training(&model, &sys)
            .strategy(TpStrategy::TwoD)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]),
    ];
    let sequential: Vec<String> = spaces
        .iter()
        .map(|p| {
            clear_space_store();
            format!("{:?}", p.execute())
        })
        .collect();
    // The barrier releases all four threads at once, so threads 0 and 3
    // race to build the first space's entry while the others build the
    // other two.
    clear_space_store();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (spaces, sequential, start) = (&spaces, &sequential, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..3 {
                    let i = (t + round) % spaces.len();
                    let got = format!("{:?}", spaces[i].execute());
                    assert_eq!(got, sequential[i], "thread {t}, space {i}");
                }
            });
        }
    });
}
