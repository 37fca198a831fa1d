//! The two workloads: their ops, and one pass over them.
//!
//! The seed sets the order the ops run in, a fresh order for every pass.
//! Every other input is fixed, the random ones (the servesim arrival
//! traces and the trainsim fault trace) included, so every seed runs work
//! of the same size and every op of every run is checked against its
//! committed golden digest.

use crate::fnv1a;
use crate::trace::Tracer;
use collectives::{Algorithm, Collective, CommGroup};
use netsim::{simulate_collective, SimOptions};
use perfmodel::serving::{assess, assess_slo, SloSpec};
use perfmodel::{search_stats, Objective, ParallelConfig, Placement, Planner, TpStrategy};
use servesim::{simulate_serving, SimSpec};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use systems::{perlmutter, system, GpuGeneration, NvsSize, ReliabilitySpec, SystemSpec};
use trainsim::{simulate_iteration, simulate_training, FaultPlan, TrainingParams};
use txmodel::{gpt3_175b, gpt3_175b_chat, gpt3_1t, moe_1t, vit_64k, TransformerConfig};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eleven `Planner` queries on B200-NVS8: every search path.
    Plan,
    /// The netsim, servesim and trainsim event loops, with the serving
    /// specs priced in set-up, and the two paper artifacts that validate
    /// the analytic model against the simulators.
    Simulate,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Plan, Workload::Simulate];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan",
            Workload::Simulate => "simulate",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper artifacts of the `simulate` workload, generated, rendered and
/// written as `figures` writes them (see [`artifact_dir`]): the netsim
/// (Fig. A1) and trainsim validations, which run no search. A workload of
/// every artifact (`figures all`) was dropped: its pass medians spread
/// 0.44–0.57 (IQR/median) across seeds on a busy host, beyond any bound.
pub const ARTIFACTS: [&str; 2] = ["figa1", "validation"];

/// The netsim ops of the `simulate` workload, which are also their span
/// names.
pub const NETSIM_OPS: [&str; 6] = [
    "netsim.ar_auto",
    "netsim.ar_tree",
    "netsim.ar_hier",
    "netsim.ag_ring",
    "netsim.a2a_auto",
    "netsim.a2a_pairwise",
];

/// The seed of the servesim arrival traces and the trainsim fault trace.
/// A trace drawn from the run's seed would change the size of the work
/// with the seed: the peak resident set of `simulate` swings between 15
/// and 19 MB across trace seeds.
pub const TRACE_SEED: u64 = 42;

type Run = Box<dyn Fn(&mut Tracer) -> Result<u64, String>>;

/// One op: a call into the program whose output is reduced to a digest.
pub struct Op {
    /// The op's span name and the key of its golden digest.
    pub name: String,
    run: Run,
}

impl Op {
    fn new(name: &str, run: impl Fn(&mut Tracer) -> Result<u64, String> + 'static) -> Self {
        Self {
            name: name.to_string(),
            run: Box::new(run),
        }
    }
}

/// Builds the workload's ops: the set-up a fresh process pays before its
/// first op.
pub fn setup(workload: Workload, t: &mut Tracer) -> Result<Vec<Op>, String> {
    t.span("setup", |t| match workload {
        Workload::Plan => Ok(plan_ops()),
        Workload::Simulate => simulate_ops(t),
    })
}

/// Runs every op once, in `order` (indices into `ops`), and returns each
/// op's output digest in the order of `ops`. When tracing, each op records
/// the deltas of the planner's search counters.
pub fn run_pass(ops: &[Op], order: &[usize], t: &mut Tracer) -> Vec<Result<u64, String>> {
    t.next_pass();
    let mut digests: Vec<(usize, Result<u64, String>)> = t.span("pass", |t| {
        order
            .iter()
            .map(|&i| {
                let op = &ops[i];
                let digest = t.span(&op.name, |t| {
                    let before = t.is_on().then(search_stats);
                    let out = (op.run)(t);
                    if let Some(b) = before {
                        let a = search_stats();
                        for (name, after, before) in [
                            ("memo_l1_hits", a.memo_local_hits, b.memo_local_hits),
                            ("memo_l2_hits", a.memo_shared_hits, b.memo_shared_hits),
                            ("memo_misses", a.memo_misses, b.memo_misses),
                            ("profile_builds", a.profile_builds, b.profile_builds),
                            (
                                "profile_build_ns",
                                a.profile_build_nanos,
                                b.profile_build_nanos,
                            ),
                            ("bound_pruned", a.bound_pruned, b.bound_pruned),
                            ("dominated_pruned", a.dominated_pruned, b.dominated_pruned),
                            ("topk_pruned", a.topk_pruned, b.topk_pruned),
                        ] {
                            t.count(name, after - before);
                        }
                    }
                    out
                });
                (i, digest)
            })
            .collect()
    });
    digests.sort_by_key(|&(i, _)| i);
    digests.into_iter().map(|(_, d)| d).collect()
}

/// Advances a SplitMix64 state and returns its next output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order seed of pass `k` of a run with seed `seed`. Every pass, warm
/// or cold, runs the ops in an order of its own, so the medians of a run
/// average over many orders: the peak resident set of a cold `plan`
/// process moves between 16.5 and 18.6 MB with the order of its ops.
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    let mut state = seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix(&mut state)
}

/// The order a pass with order seed `seed` runs `n` ops in: a
/// Fisher–Yates shuffle driven by SplitMix64.
pub fn pass_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The digest of a result's `Debug` text, which prints every f64 in its
/// shortest round-trip form and tells NaN, inf, -inf and -0.0 apart. The
/// JSON text would not: it writes NaN and ±inf as `null` and -0.0 as `0`.
fn digest<T: Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn b200() -> SystemSpec {
    system(GpuGeneration::B200, NvsSize::Nvs8)
}

/// The interactive-streaming SLO of the serving pins: first token within
/// 120/160 ms (p50/p99), then 30/50 ms per token.
fn chat_slo() -> SloSpec {
    SloSpec {
        ttft_p50: 0.12,
        ttft_p99: 0.16,
        tpot_p50: 0.03,
        tpot_p99: 0.05,
    }
}

/// One planner query. When tracing, enumeration is timed by a separate
/// `Planner::candidates` call, and the engine call (`layer`) gets the
/// program's own profile-build time as a child span.
fn planner_op<T: Debug>(
    name: &str,
    model: TransformerConfig,
    layer: &'static str,
    configure: impl for<'a> Fn(Planner<'a>) -> Planner<'a> + 'static,
    call: impl Fn(&Planner) -> T + 'static,
) -> Op {
    let sys = b200();
    Op::new(name, move |t| {
        let planner = configure(Planner::new(&model, &sys));
        if t.is_on() {
            let n = t.span("planner.candidates", |_| planner.candidates().len());
            t.count("planner.enumerated", n as u64);
        }
        let out = t.span(layer, |t| {
            let before = t.is_on().then(|| search_stats().profile_build_nanos);
            let out = call(&planner);
            if let Some(b) = before {
                let built = search_stats().profile_build_nanos - b;
                t.measured_child("partition.profile_build", built);
            }
            out
        });
        Ok(digest(&out))
    })
}

fn plan_ops() -> Vec<Op> {
    use Objective::{ExpectedGoodput, GpuSeconds, HbmHeadroom, IterationTime};
    use TpStrategy::{OneD, Summa, TwoD};
    let (gpt1t, vit, moe, gpt175) = (
        gpt3_1t().config,
        vit_64k().config,
        moe_1t().config,
        gpt3_175b().config,
    );
    let chat = gpt3_175b_chat();
    let best = |name, model, gpus, strategy| {
        planner_op(
            name,
            model,
            "planner.best",
            move |p| p.gpus(gpus).global_batch(4096).strategy(strategy),
            |p: &Planner<'_>| p.best_evaluation(),
        )
    };
    let top8_pareto = |name, model, gpus, strategy| {
        planner_op(
            name,
            model,
            "planner.ranked",
            move |p| {
                p.gpus(gpus)
                    .global_batch(4096)
                    .strategy(strategy)
                    .top_k(8)
                    .pareto([IterationTime, HbmHeadroom])
            },
            |p: &Planner<'_>| p.execute(),
        )
    };
    // ExpectedGoodput has no admissible bound, so `execute` runs the
    // full sweep.
    let sweep = |name, model, gpus, batch, strategy| {
        planner_op(
            name,
            model,
            "planner.sweep",
            move |p| {
                p.gpus(gpus)
                    .global_batch(batch)
                    .strategy(strategy)
                    .objective(ExpectedGoodput)
            },
            |p: &Planner<'_>| p.execute(),
        )
    };
    vec![
        best("best.gpt3_1t.1d.n1024", gpt1t, 1024, OneD),
        best("best.gpt3_1t.1d.n16384", gpt1t, 16384, OneD),
        best("best.gpt3_1t.summa.n16384", gpt1t, 16384, Summa),
        best("best.vit_64k.2d.n16384", vit, 16384, TwoD),
        best("best.moe_1t.1d.n1024", moe, 1024, OneD),
        top8_pareto("ranked.gpt3_1t.summa.n16384", gpt1t, 16384, Summa),
        top8_pareto("ranked.moe_1t.1d.n1024", moe, 1024, OneD),
        planner_op(
            "ranked.gpt3_175b.1d.n512-4096",
            gpt175,
            "planner.ranked",
            |p| {
                p.gpu_counts([512, 1024, 2048, 4096])
                    .global_batch(1024)
                    .strategy(OneD)
                    .objective(IterationTime.then(1.0, GpuSeconds))
                    .top_k(8)
            },
            |p: &Planner<'_>| p.execute(),
        ),
        sweep("sweep.gpt3_175b.1d.n4096", gpt175, 4096, 1024, OneD),
        sweep("sweep.gpt3_1t.summa.n16384", gpt1t, 16384, 4096, Summa),
        planner_op(
            "serving.gpt3_175b_chat.n64",
            chat.model,
            "planner.serving",
            move |p| {
                p.gpus(64)
                    .global_batch(1024)
                    .strategy(OneD)
                    .serving(chat.traffic)
                    .objective(Objective::ServingSlo { slo: chat_slo() })
            },
            |p: &Planner<'_>| p.execute(),
        ),
    ]
}

/// The directory the artifact ops write to: one per process, beside the
/// executable, so processes running at the same time never share a file.
/// [`remove_artifact_dir`] removes it.
pub fn artifact_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.with_file_name(format!("perfbench-artifacts-{}", std::process::id())))
}

/// Removes this process's [`artifact_dir`], if it was made.
pub fn remove_artifact_dir() {
    if let Ok(dir) = artifact_dir() {
        // It does not exist when the run had no artifact op.
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Generates paper artifact `id`, renders it as `figures` shows it, and
/// writes its JSON and CSV files with `Artifact::write`, as `figures` does,
/// into `dir`; the op's digest is that of the files' text, read back.
fn artifact_op(id: &'static str, dir: &Path) -> Op {
    let dir = dir.to_path_buf();
    Op::new(id, move |t| {
        let arts = paperbench::generate(id).map_err(|e| e.to_string())?;
        let mut text = String::new();
        for art in &arts {
            t.span("report.render", |_| {
                let mut shown = art.render();
                if let Some(heatmap) = paperbench::common::grid_heatmap(art) {
                    shown.push_str(&heatmap);
                }
                std::hint::black_box(shown);
            });
            let (json, csv) = t
                .span("report.serialize", |_| art.write(&dir))
                .map_err(|e| format!("writing {id}: {e}"))?;
            for path in [json, csv] {
                let file = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                text.push_str(&file);
            }
        }
        Ok(fnv1a(text.as_bytes()))
    })
}

fn netsim_op(
    name: &str,
    collective: Collective,
    bytes: f64,
    group: CommGroup,
    algorithm: Algorithm,
) -> Op {
    let sys = b200();
    let opts = SimOptions {
        algorithm,
        ..SimOptions::default()
    };
    Op::new(name, move |t| {
        let r = simulate_collective(collective, bytes, group, &sys, &opts);
        t.count("netsim.transfers", r.stats.transfers);
        t.count("netsim.requeues", r.stats.requeues);
        Ok(digest(&r))
    })
}

/// Prices the two serving deployments of the GPT3-175B chat preset at 64
/// GPUs: the colocated throughput optimum and the disaggregated SLO
/// optimum.
fn serving_specs() -> Result<(SimSpec, SimSpec), String> {
    let chat = gpt3_175b_chat();
    let sys = b200();
    let slo = chat_slo();
    let planner = || {
        Planner::new(&chat.model, &sys)
            .gpus(64)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .serving(chat.traffic)
    };
    let best = |objective| {
        let plans = planner().objective(objective).top_k(1).execute();
        plans
            .best()
            .map(|p| p.eval.clone())
            .ok_or("no feasible serving plan")
    };
    let throughput = best(Objective::TokensPerSecPerGpu)?;
    let slo_best = best(Objective::ServingSlo { slo })?;
    let ctx = planner().objective_ctx();
    let sctx = ctx.serving.as_ref().ok_or("serving context missing")?;
    let colocated = SimSpec::from_plan(&throughput, sctx, assess(&throughput, sctx).mode);
    let disaggregated = SimSpec::from_plan(&slo_best, sctx, assess_slo(&slo_best, sctx, &slo).mode);
    Ok((
        colocated.map_err(|e| e.to_string())?,
        disaggregated.map_err(|e| e.to_string())?,
    ))
}

fn simulate_ops(t: &mut Tracer) -> Result<Vec<Op>, String> {
    use Algorithm::{Auto, Hierarchical, Ring, Tree};
    use Collective::{AllGather, AllReduce, AllToAll};
    let (g64, g32) = (CommGroup::new(64, 8), CommGroup::new(32, 8));
    let [ar_auto, ar_tree, ar_hier, ag_ring, a2a_auto, a2a_pairwise] = NETSIM_OPS;
    let mut ops = vec![
        netsim_op(ar_auto, AllReduce, 1e9, g64, Auto),
        netsim_op(ar_tree, AllReduce, 1e9, g64, Tree),
        netsim_op(ar_hier, AllReduce, 1e9, g64, Hierarchical),
        netsim_op(ag_ring, AllGather, 1e9, g64, Ring),
        netsim_op(a2a_auto, AllToAll, 64e6, g32, Auto),
        // Any explicit non-ring choice runs AllToAll as the direct
        // pairwise exchange.
        netsim_op(a2a_pairwise, AllToAll, 64e6, g32, Tree),
    ];

    let (colocated, disaggregated) = t.span("serving.spec", |_| serving_specs())?;
    let params = servesim::SimParams {
        seed: TRACE_SEED,
        requests: 3000,
    };
    for (name, spec) in [
        ("servesim.colocated", colocated),
        ("servesim.disaggregated", disaggregated),
    ] {
        ops.push(Op::new(name, move |t| {
            let r = simulate_serving(&spec, &params);
            t.count("servesim.completed", r.completed);
            Ok(digest(&r))
        }));
    }

    let model = gpt3_175b().config;
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let placement = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let a100 = perlmutter(4);
    let sys = a100.clone();
    ops.push(Op::new("trainsim.iteration", move |_| {
        let params = trainsim::SimParams::default();
        let r = simulate_iteration(&model, &cfg, &placement, 1024, &sys, &params);
        Ok(digest(&r.map_err(|e| e.to_string())?))
    }));
    let reliability = ReliabilitySpec::datacenter().with_gpu_mtbf_hours(2_000.0);
    let a100 = a100.with_reliability(reliability);
    let ten_days = 10.0 * 86_400.0;
    let faults = FaultPlan::sample(
        &reliability,
        512,
        a100.nics_for(512),
        127,
        ten_days,
        TRACE_SEED,
    );
    let params = TrainingParams::new(300.0, 1.0, reliability.restart_overhead_s);
    ops.push(Op::new("trainsim.replay", move |_| {
        let r = simulate_training(&model, &cfg, &placement, 1024, &a100, &faults, &params);
        Ok(digest(&r.map_err(|e| e.to_string())?))
    }));
    let dir = artifact_dir()?;
    ops.extend(ARTIFACTS.map(|id| artifact_op(id, &dir)));
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(20, pass_seed(7, 3));
        assert_eq!(a, pass_order(20, pass_seed(7, 3)));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(a, pass_order(20, pass_seed(7, 4)));
        assert_ne!(a, pass_order(20, pass_seed(8, 3)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
