//! Criterion benchmarks for the machinery behind every paper artifact,
//! prefaced by a full regeneration of the artifact data so that
//! `cargo bench` output contains the reproduced tables and figures.
//!
//! Groups map to DESIGN.md's experiment index:
//! * `profile`        — S1 layer-profile construction (Tables I/II/A2 path)
//! * `placement`      — best-placement evaluation (Figs. 1–3 path)
//! * `search`         — full S3 optimization (Figs. 4, 5, A3–A6 path)
//! * `moe-search`     — the joint `(tp, pp, dp, ep)` MoE search, tracked
//!   alongside dense so expert parallelism's search-cost stays visible
//! * `planner-topk`   — the `Planner` execution path (top-k ranking +
//!   Pareto frontier + plan assembly) over the same spaces, so the
//!   redesigned API's overhead over the raw sweep stays visible
//! * `planner-topk-pruned` — the ranked-path exact prune (k-th-incumbent
//!   and Pareto lower-bound domination) against a pruning-off leg on the
//!   largest dense and MoE spaces, so the prune's speedup stays visible
//! * `search-scaling` — the same S3 search pinned to 1/2/4/8 pool threads
//! * `netsim`         — collective DES (Fig. A1 path)
//! * `netsim-algorithms` — ring vs tree vs hierarchical vs auto AllReduce
//!   schedules in the DES (the algorithm-selection validation path)
//! * `trainsim`       — 1F1B schedule simulation (§IV validation path)
//! * `serving-search` — the serving-objective planner sweep (every
//!   candidate pays the analytic prefill/decode assessment across the
//!   placement grid) and one discrete-event serving replay, so the
//!   inference workload class's search cost stays visible
//!
//! Every measurement is additionally written to `out/bench.json`
//! (schema `fmperf-bench-v1`) so the per-PR perf trajectory is
//! machine-readable; pass `--quick` for a short CI smoke run that skips
//! the artifact-regeneration preamble.

#![allow(
    missing_docs,
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a bench times on the wall clock and aborts on failure; criterion_group! emits an undocumented pub fn"
)]

use criterion::{criterion_group, Criterion};
use perfmodel::partition::build_profile;
use perfmodel::{best_placement_eval, Evaluation, ParallelConfig, Placement, Planner, TpStrategy};
use std::time::Duration;
use systems::{perlmutter, system, GpuGeneration, NvsSize, SystemSpec};
use txmodel::{gpt3_175b, gpt3_175b_moe, gpt3_1t, moe_1t, vit_64k, TransformerConfig};

/// The planner's pruned single-optimum query on one `(gpus, strategy)`
/// space.
fn best(
    model: &TransformerConfig,
    sys: &SystemSpec,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
) -> Option<Evaluation> {
    Planner::new(model, sys)
        .gpus(gpus)
        .global_batch(global_batch)
        .strategy(strategy)
        .best_evaluation()
}

fn bench_search_scaling(c: &mut Criterion) {
    let gpt = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("search-scaling");
    // More samples than the other search groups: oversubscribed pools
    // (8 threads on small machines) add scheduling jitter, and this
    // group's 8-vs-1-thread ratio is gated in CI — the larger sample
    // keeps the mean at its steady state instead of a noisy tail.
    g.sample_size(30);
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        g.bench_function(&format!("gpt_summa_n16384_t{threads}"), |b| {
            b.iter(|| pool.install(|| best(&gpt, &sys, 16384, 4096, TpStrategy::Summa)))
        });
    }
    g.finish();
}

/// Writes every recorded measurement to `out/bench.json`, grouped by the
/// `group/function` id prefix — the machine-readable perf trajectory CI
/// uploads per PR.
fn emit_bench_json(out: &std::path::Path) {
    use serde_json::{json, Value};
    let mut groups: Vec<(String, Value)> = Vec::new();
    for r in criterion::take_results() {
        let (group, name) = r.id.split_once('/').unwrap_or(("ungrouped", r.id.as_str()));
        let cell = Value::Object(vec![
            ("mean_ns".into(), json!(r.mean_ns)),
            ("iterations".into(), json!(r.iterations)),
        ]);
        match groups.iter_mut().find(|(g, _)| g == group) {
            Some((_, Value::Object(entries))) => entries.push((name.into(), cell)),
            _ => groups.push((group.into(), Value::Object(vec![(name.into(), cell)]))),
        }
    }
    let doc = Value::Object(vec![
        ("schema".into(), json!("fmperf-bench-v1")),
        ("groups".into(), Value::Object(groups)),
    ]);
    let path = out.join("bench.json");
    match std::fs::create_dir_all(out).and_then(|()| {
        serde_json::to_string_pretty(&doc)
            .map_err(std::io::Error::from)
            .and_then(|s| std::fs::write(&path, s))
    }) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn bench_profile(c: &mut Criterion) {
    let gpu = GpuGeneration::B200.gpu();
    let gpt = gpt3_1t().config;
    let vit = vit_64k().config;
    let mut g = c.benchmark_group("profile");
    g.bench_function("gpt_1d_nt8", |b| {
        b.iter(|| build_profile(&gpt, TpStrategy::OneD, 8, 1, 1, 1, 1, &gpu))
    });
    g.bench_function("vit_2d_4x4", |b| {
        b.iter(|| build_profile(&vit, TpStrategy::TwoD, 4, 4, 1, 1, 1, &gpu))
    });
    g.bench_function("gpt_summa_8x4_nb4", |b| {
        b.iter(|| build_profile(&gpt, TpStrategy::Summa, 8, 4, 1, 4, 1, &gpu))
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    let gpt = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
    let mut g = c.benchmark_group("placement");
    g.bench_function("fig1_config_d", |b| {
        b.iter(|| best_placement_eval(&gpt, &cfg, 4096, &sys))
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let gpt = gpt3_1t().config;
    let vit = vit_64k().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    g.bench_function("gpt_1d_n1024", |b| {
        b.iter(|| best(&gpt, &sys, 1024, 4096, TpStrategy::OneD))
    });
    g.bench_function("gpt_1d_n16384", |b| {
        b.iter(|| best(&gpt, &sys, 16384, 4096, TpStrategy::OneD))
    });
    g.bench_function("gpt_summa_n16384", |b| {
        b.iter(|| best(&gpt, &sys, 16384, 4096, TpStrategy::Summa))
    });
    g.bench_function("vit_2d_n16384", |b| {
        b.iter(|| best(&vit, &sys, 16384, 4096, TpStrategy::TwoD))
    });
    g.finish();
}

/// MoE search cost alongside dense: the expert-parallel dimension
/// multiplies the candidate space, so this group tracks whether the
/// ProfileCache/memo_f64 reuse keeps the joint `(tp, pp, dp, ep)` sweep
/// in the same cost class as the dense searches above.
fn bench_moe_search(c: &mut Criterion) {
    let moe1t = moe_1t().config;
    let moe175b = gpt3_175b_moe().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("moe-search");
    g.sample_size(10);
    g.bench_function("moe1t_1d_n1024", |b| {
        b.iter(|| best(&moe1t, &sys, 1024, 4096, TpStrategy::OneD))
    });
    g.bench_function("moe1t_1d_n16384", |b| {
        b.iter(|| best(&moe1t, &sys, 16384, 4096, TpStrategy::OneD))
    });
    g.bench_function("gpt175b_moe8_n4096", |b| {
        b.iter(|| best(&moe175b, &sys, 4096, 1024, TpStrategy::OneD))
    });
    g.finish();
}

/// The redesigned planning surface: full `Planner::execute` (evaluated
/// sweep + top-k ranking + Pareto frontier + plan assembly) on the dense
/// and multi-scale spaces. Tracked against `search` so the planner's
/// post-sweep overhead stays visible in the trajectory.
fn bench_planner_topk(c: &mut Criterion) {
    use perfmodel::Objective;
    let gpt = gpt3_1t().config;
    let gpt175 = gpt3_175b().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("planner-topk");
    g.sample_size(10);
    g.bench_function("gpt_1d_n1024_top8_pareto2", |b| {
        b.iter(|| {
            Planner::new(&gpt, &sys)
                .gpus(1024)
                .global_batch(4096)
                .strategy(TpStrategy::OneD)
                .top_k(8)
                .pareto([Objective::IterationTime, Objective::HbmHeadroom])
                .execute()
        })
    });
    g.bench_function("gpt175b_multiscale_lex_cost", |b| {
        b.iter(|| {
            Planner::new(&gpt175, &sys)
                .gpu_counts([512, 1024, 2048, 4096])
                .global_batch(1024)
                .strategy(TpStrategy::OneD)
                .objective(Objective::IterationTime.then(1.0, Objective::GpuSeconds))
                .top_k(8)
                .execute()
        })
    });
    g.finish();
}

/// The ranked-path exact prune: top-8 + Pareto planning on the paper's
/// largest dense space (GPT-3 1T, SUMMA, 16 384 GPUs) and on MoE-1T,
/// with a pruning-off leg beside each pruned leg so the speedup from the
/// k-th-incumbent and Pareto-bound prunes (and its exactness cost, were
/// it to regress to a slowdown) stays visible in the trajectory.
fn bench_planner_topk_pruned(c: &mut Criterion) {
    use perfmodel::Objective;
    let gpt = gpt3_1t().config;
    let moe = moe_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("planner-topk-pruned");
    g.sample_size(10);
    let gpt_planner = |pruned: bool| {
        Planner::new(&gpt, &sys)
            .gpus(16384)
            .global_batch(4096)
            .strategy(TpStrategy::Summa)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .prune(pruned)
    };
    g.bench_function("gpt_summa_n16384_top8_pruned", |b| {
        let p = gpt_planner(true);
        b.iter(|| p.execute())
    });
    g.bench_function("gpt_summa_n16384_top8_unpruned", |b| {
        let p = gpt_planner(false);
        b.iter(|| p.execute())
    });
    let moe_planner = |pruned: bool| {
        Planner::new(&moe, &sys)
            .gpus(1024)
            .global_batch(4096)
            .strategy(TpStrategy::OneD)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .prune(pruned)
    };
    g.bench_function("moe1t_n1024_top8_pruned", |b| {
        let p = moe_planner(true);
        b.iter(|| p.execute())
    });
    g.bench_function("moe1t_n1024_top8_unpruned", |b| {
        let p = moe_planner(false);
        b.iter(|| p.execute())
    });
    g.finish();
}

fn bench_netsim(c: &mut Criterion) {
    use collectives::{Collective, CommGroup};
    use netsim::{simulate_collective, SimOptions};
    let sys = perlmutter(4);
    let group = CommGroup::new(32, 4);
    let opts = SimOptions::default();
    let mut g = c.benchmark_group("netsim");
    g.bench_function("allgather_1gb_32gpu", |b| {
        b.iter(|| simulate_collective(Collective::AllGather, 1e9, group, &sys, &opts))
    });
    g.bench_function("allreduce_1gb_32gpu", |b| {
        b.iter(|| simulate_collective(Collective::AllReduce, 1e9, group, &sys, &opts))
    });
    g.finish();
}

fn bench_netsim_algorithms(c: &mut Criterion) {
    use collectives::{Collective, CommGroup};
    use netsim::{simulate_collective, Algorithm, SimOptions};
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let group = CommGroup::new(64, 8);
    let mut g = c.benchmark_group("netsim-algorithms");
    for algorithm in Algorithm::ALL {
        let opts = SimOptions {
            algorithm,
            ..SimOptions::default()
        };
        g.bench_function(&format!("allreduce_1gb_64gpu_{}", algorithm.name()), |b| {
            b.iter(|| simulate_collective(Collective::AllReduce, 1e9, group, &sys, &opts))
        });
    }
    g.finish();
}

fn bench_trainsim(c: &mut Criterion) {
    use trainsim::{simulate_iteration, SimParams};
    let model = gpt3_175b().config;
    let sys = perlmutter(4);
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let mut g = c.benchmark_group("trainsim");
    g.bench_function("gpt175b_512gpu_iteration", |b| {
        b.iter(|| simulate_iteration(&model, &cfg, &pl, 1024, &sys, &SimParams::default()).unwrap())
    });
    g.finish();
}

/// The reliability layer: a goodput-objective planner query (every
/// candidate pays the goodput key bound, each one the bound does not
/// skip the full `assess()`) and one fault-injected training replay
/// (trace sampling + three iteration-variant sims + the multi-day
/// replay loop).
fn bench_reliability(c: &mut Criterion) {
    use perfmodel::Objective;
    use systems::ReliabilitySpec;
    use trainsim::{simulate_training, FaultPlan, TrainingParams};
    let model = gpt3_175b().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut g = c.benchmark_group("reliability-search");
    g.sample_size(10);
    g.bench_function("gpt175b_n4096_goodput", |b| {
        b.iter(|| {
            Planner::new(&model, &sys)
                .gpus(4096)
                .global_batch(1024)
                .strategy(TpStrategy::OneD)
                .objective(Objective::ExpectedGoodput)
                .execute()
        })
    });
    let a100 = perlmutter(4);
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let spec = ReliabilitySpec::datacenter().with_gpu_mtbf_hours(2_000.0);
    let a100 = a100.with_reliability(spec);
    let plan = FaultPlan::sample(&spec, 512, a100.nics_for(512), 127, 10.0 * 86_400.0, 11);
    let params = TrainingParams::new(300.0, 1.0, spec.restart_overhead_s);
    g.bench_function("gpt175b_512gpu_replay_10d", |b| {
        b.iter(|| simulate_training(&model, &cfg, &pl, 1024, &a100, &plan, &params).unwrap())
    });
    g.finish();
}

/// The serving layer: an SLO-objective planner sweep (every candidate
/// pays the full placement-grid assessment — occupancy fixed point and
/// queueing included) and one seeded discrete-event serving replay
/// (Poisson trace + admission + prefill pool + decode loop).
fn bench_serving(c: &mut Criterion) {
    use perfmodel::serving::{assess_slo, SloSpec};
    use perfmodel::Objective;
    use servesim::{simulate_serving, SimParams, SimSpec};
    use txmodel::gpt3_175b_chat;
    let preset = gpt3_175b_chat();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let slo = SloSpec {
        ttft_p50: 0.12,
        ttft_p99: 0.16,
        tpot_p50: 0.03,
        tpot_p99: 0.05,
    };
    let mut g = c.benchmark_group("serving-search");
    g.sample_size(10);
    g.bench_function("gpt175b_chat_n64_slo", |b| {
        b.iter(|| {
            Planner::new(&preset.model, &sys)
                .gpus(64)
                .global_batch(1024)
                .strategy(TpStrategy::OneD)
                .serving(preset.traffic)
                .objective(Objective::ServingSlo { slo })
                .execute()
        })
    });
    let planner = Planner::new(&preset.model, &sys)
        .gpus(64)
        .global_batch(1024)
        .strategy(TpStrategy::OneD)
        .serving(preset.traffic);
    let ctx = planner.objective_ctx();
    let sctx = ctx.serving.as_ref().expect("serving configured");
    let best = planner
        .objective(Objective::ServingSlo { slo })
        .top_k(1)
        .execute();
    let best = best.best().expect("the 64-GPU space is non-empty");
    let r = assess_slo(&best.eval, sctx, &slo);
    let spec = SimSpec::from_plan(&best.eval, sctx, r.mode).expect("winner is simulatable");
    let params = SimParams {
        seed: 42,
        requests: 3000,
    };
    g.bench_function("gpt175b_chat_replay_3000req", |b| {
        b.iter(|| simulate_serving(&spec, &params))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_profile,
    bench_placement,
    bench_search,
    bench_moe_search,
    bench_planner_topk,
    bench_planner_topk_pruned,
    bench_search_scaling,
    bench_netsim,
    bench_netsim_algorithms,
    bench_trainsim,
    bench_reliability,
    bench_serving
);

fn main() {
    // Regenerate every paper artifact first so `cargo bench` output is a
    // complete reproduction record (written to the workspace-level out/
    // as JSON + CSV; cargo runs benches with the package as cwd).
    // `--quick` (the CI bench-smoke mode) skips the regeneration and only
    // takes short measurements for the trajectory file.
    let quick = std::env::args().any(|a| a == "--quick");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../out");
    if !quick {
        for id in paperbench::ALL_IDS {
            let t0 = std::time::Instant::now();
            for art in paperbench::generate(id).expect("ALL_IDS ids are known") {
                println!("{}", art.render());
                if let Err(e) = art.write(&out) {
                    eprintln!("warning: could not write {}: {e}", art.id);
                }
            }
            println!("[{id}] regenerated in {:.2?}\n", t0.elapsed());
        }
    }

    let mut c = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .configure_from_args();
    bench_profile(&mut c);
    bench_placement(&mut c);
    bench_search(&mut c);
    bench_moe_search(&mut c);
    bench_planner_topk(&mut c);
    bench_planner_topk_pruned(&mut c);
    bench_search_scaling(&mut c);
    bench_netsim(&mut c);
    bench_netsim_algorithms(&mut c);
    bench_trainsim(&mut c);
    bench_reliability(&mut c);
    bench_serving(&mut c);
    c.final_summary();
    emit_bench_json(&out);
}
