//! The command: arguments, the measurement loop with its cold children,
//! the traced run, and the result line.
//!
//! ```text
//! perfbench --workload <plan|simulate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is 0 only when every op of every pass was correct.

use crate::golden::{Checker, Goldens};
use crate::trace::{Trace, Tracer};
use crate::workloads::{
    pass_order, pass_seed, remove_artifact_dir, run_pass, setup, Op, Workload, ARTIFACTS,
    NETSIM_OPS,
};
use crate::{mean, median, obj, DEFAULT_SEED};
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The fewest samples of each kind a run takes, however short its
/// `--seconds`: no metric is a single sample.
const MIN_SAMPLES: usize = 5;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the op orders. A child takes the order seed of its passes.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Run the traced variant, which reports the per-layer metrics.
    pub trace: bool,
    /// Set only in a child the parent process spawned: its pool width and how many
    /// passes it runs.
    child: Option<(usize, u32)>,
}

/// Parses `--flag value` pairs.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Plan,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child: None,
    };
    let (mut width, mut passes) = (None, 1);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--child-width" => width = Some(number()?.max(1) as usize),
            "--child-passes" => passes = number()?.max(1) as u32,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    parsed.child = width.map(|w| (w, passes));
    Ok(parsed)
}

/// Runs the command and returns its exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan|simulate> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return 2;
        }
    };
    let result = match args.child {
        Some((width, passes)) => pool(width).install(|| child_main(&args, passes)),
        None => pool(nproc()).install(|| parent_main(&args)),
    };
    remove_artifact_dir();
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// The pool width a run pins: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The vendored rayon pool pinned to `width` threads; it overrides
/// `RAYON_NUM_THREADS` for every parallel call made inside `install`.
fn pool(width: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the vendored pool always builds")
}

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// An op's output digest as a child reports it. A digest travels as hex
/// text: the vendored serde writes every number as an f64, which would
/// round a u64.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Digest {
    Hex(String),
    Error(String),
}

impl Digest {
    fn of(digest: &Result<u64, String>) -> Self {
        match digest {
            Ok(d) => Digest::Hex(format!("{d:016x}")),
            Err(e) => Digest::Error(e.clone()),
        }
    }

    fn get(&self) -> Result<u64, String> {
        match self {
            Digest::Hex(hex) => {
                u64::from_str_radix(hex, 16).map_err(|e| format!("digest {hex}: {e}"))
            }
            Digest::Error(e) => Err(e.clone()),
        }
    }
}

/// One pass of a child: its time and each op's digest, in op order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PassResult {
    ms: f64,
    digests: Vec<Digest>,
}

/// The line a child prints last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChildResult {
    passes: Vec<PassResult>,
    rss_mb: f64,
    trace: Trace,
}

/// A child process's protocol: build the inputs, print `ready`, run the
/// passes in the order its seed gives, then print one JSON line with each
/// pass's time and digests, the peak resident set and the trace.
fn child_main(args: &Args, passes: u32) -> Result<bool, String> {
    let mut t = Tracer::new(args.trace);
    let ops = setup(args.workload, &mut t)?;
    let order = pass_order(ops.len(), args.seed);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for _ in 0..passes {
        let t0 = Instant::now();
        let digests = run_pass(&ops, &order, &mut t);
        results.push(PassResult {
            ms: elapsed_ms(t0),
            digests: digests.iter().map(Digest::of).collect(),
        });
    }
    let result = ChildResult {
        passes: results,
        rss_mb: peak_rss_mb()?,
        trace: t.into_trace(),
    };
    let line = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    writeln!(out, "{line}").map_err(|e| e.to_string())?;
    Ok(true)
}

/// What the parent process learns from one child.
struct ChildRun {
    /// Spawn until the child's inputs were built.
    setup_s: f64,
    result: ChildResult,
}

/// Runs this program as a fresh child process at pool width `width` for
/// `passes` passes in the order of `seed`, and waits for it to end.
fn spawn_child(args: &Args, seed: u64, width: usize, passes: u32) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child-width", &width.to_string()])
        .args(["--child-passes", &passes.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a child: {e}"))?;
    let stdout = child.stdout.take().expect("the child's stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next();
    let setup_s = t0.elapsed().as_secs_f64();
    // Reading to the end of the output before waiting: the child exits
    // only after writing its result line.
    let result = lines.map_while(Result::ok).last();
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    if !matches!(ready, Some(Ok(ref l)) if l == "ready") {
        return Err("child did not report ready".into());
    }
    let line = result.ok_or("child printed no result line")?;
    let result: ChildResult = serde_json::from_str(&line)
        .map_err(|e| format!("child printed a malformed result line: {e}"))?;
    if result.passes.len() != passes as usize {
        return Err(format!(
            "child reported {} passes, not {passes}",
            result.passes.len()
        ));
    }
    Ok(ChildRun { setup_s, result })
}

/// Runs a child and checks its passes; a child that fails counts every op
/// of its passes as failed.
fn checked_child(
    args: &Args,
    check: &mut Checker,
    source: &str,
    seed: u64,
    width: usize,
    passes: u32,
) -> Option<ChildRun> {
    match spawn_child(args, seed, width, passes) {
        Ok(c) => {
            for (i, pass) in c.result.passes.iter().enumerate() {
                let digests: Vec<_> = pass.digests.iter().map(Digest::get).collect();
                check.check(&format!("{source} pass {}", i + 1), &digests);
            }
            Some(c)
        }
        Err(e) => {
            for _ in 0..passes {
                check.lost(source, &e);
            }
            None
        }
    }
}

fn timed_pass(
    ops: &[Op],
    order: &[usize],
    t: &mut Tracer,
    check: &mut Checker,
    source: &str,
) -> f64 {
    let t0 = Instant::now();
    let digests = run_pass(ops, order, t);
    let ms = elapsed_ms(t0);
    check.check(source, &digests);
    ms
}

/// The parent process: set-up and a first pass in this process, then the
/// measured loop, then the result line.
fn parent_main(args: &Args) -> Result<bool, String> {
    let goldens = Goldens::committed();
    let mut plain = Tracer::new(false);
    let ops = setup(args.workload, &mut plain)?;
    let mut check = Checker::new(&goldens, args.workload, &ops);
    let mut k = 0;
    let mut next_seed = move || {
        k += 1;
        pass_seed(args.seed, k)
    };
    let order = pass_order(ops.len(), next_seed());
    timed_pass(&ops, &order, &mut plain, &mut check, "first pass");
    let metrics = if args.trace {
        traced_run(args, &ops, &mut check, &mut next_seed)?
    } else {
        untraced_run(args, &ops, &mut check, &mut next_seed)
    };
    for f in check.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if !check.missing.is_empty() {
        eprintln!("perfbench: golden.txt lacks these lines:");
        for line in &check.missing {
            eprintln!("{line}");
        }
    }
    let correct = check.failed == 0;
    let metrics = Value::Object(
        metrics
            .into_iter()
            .map(|m| {
                let cell = obj([("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name, cell)
            })
            .collect(),
    );
    let line = obj([
        ("correct", correct.into()),
        ("attempted", check.attempted.into()),
        ("failed", check.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{line}");
    Ok(correct)
}

/// The measured loop of an untraced run: warm passes in this process and
/// cold passes in fresh children, one at a time, each pass in the order
/// of the next seed. Whichever kind has had less of the run's time so far
/// goes next, so the children are spread through the run and slow drift
/// affects both kinds alike.
fn untraced_run(
    args: &Args,
    ops: &[Op],
    check: &mut Checker,
    next_seed: &mut impl FnMut() -> u64,
) -> Vec<Metric> {
    let width = nproc();
    let mut plain = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut warm, mut cold, mut children) = (Vec::new(), Vec::new(), 0);
    let (mut warm_s, mut cold_s) = (0.0, 0.0);
    while Instant::now() < deadline || warm.len() < MIN_SAMPLES || children < MIN_SAMPLES {
        if cold_s <= warm_s {
            let t0 = Instant::now();
            children += 1;
            if let Some(c) = checked_child(args, check, "cold child", next_seed(), width, 1) {
                cold.push(c);
            }
            cold_s += t0.elapsed().as_secs_f64();
        } else {
            let order = pass_order(ops.len(), next_seed());
            let ms = timed_pass(ops, &order, &mut plain, check, "warm pass");
            warm_s += ms / 1e3;
            warm.push(ms);
        }
    }
    let of = |f: fn(&ChildRun) -> f64| cold.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "perfbench: {} at pool width {width}: {} warm passes, {} cold children ({} failed)",
        args.workload.name(),
        warm.len(),
        children,
        children - cold.len(),
    );
    vec![
        metric("setup_s", median(&of(|c| c.setup_s)), "s"),
        metric(
            "cold_pass_ms_p50",
            median(&of(|c| c.result.passes[0].ms)),
            "ms",
        ),
        metric("warm_pass_ms_p50", median(&warm), "ms"),
        // A mean, not a median: on `simulate` a cold process peaks at
        // either about 15.5 or 16.8 MB depending on its op order, and the
        // median of a run flips between the two.
        metric("peak_rss_mb", mean(&of(|c| c.result.rss_mb)), "MB"),
    ]
}

/// The traced run. Counts come from a child pinned to pool width 1 (one
/// cold and one warm pass), where they repeat exactly; timings come from
/// a traced cold child and traced warm passes at the parent's width,
/// interleaved with untraced passes (for the tracing overhead) and
/// width-1 passes (for the pool speedup) in the same order.
fn traced_run(
    args: &Args,
    ops: &[Op],
    check: &mut Checker,
    next_seed: &mut impl FnMut() -> u64,
) -> Result<Vec<Metric>, String> {
    let width = nproc();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let counts = checked_child(args, check, "width-1 child", next_seed(), 1, 2)
        .map_or_else(Trace::default, |c| c.result.trace);
    let cold_trace = checked_child(args, check, "traced cold child", next_seed(), width, 1)
        .map_or_else(Trace::default, |c| c.result.trace);

    let (mut plain, mut traced) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced_ms, mut traced_ms, mut t1_ms) = (Vec::new(), Vec::new(), Vec::new());
    let root = traced.enter(args.workload.name());
    let one = pool(1);
    while Instant::now() < deadline || traced_ms.len() < MIN_SAMPLES {
        let order = pass_order(ops.len(), next_seed());
        untraced_ms.push(timed_pass(
            ops,
            &order,
            &mut plain,
            check,
            "untraced warm pass",
        ));
        traced_ms.push(timed_pass(
            ops,
            &order,
            &mut traced,
            check,
            "traced warm pass",
        ));
        t1_ms.push(one.install(|| timed_pass(ops, &order, &mut plain, check, "width-1 warm pass")));
    }
    traced.exit(root);
    let warm = traced.into_trace();
    let passes: Vec<u32> = (1..=traced_ms.len() as u32).collect();

    let warm_median =
        |f: &dyn Fn(u32) -> f64| median(&passes.iter().map(|&p| f(p)).collect::<Vec<_>>());
    let warm_span = |name: &str| warm_median(&|p| warm.span_ms(p, name));
    let count = |pass: u32, name: &str| counts.counter(pass, name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Vec::new();

    for layer in ["candidates", "best", "ranked", "sweep", "serving"] {
        m.push(metric(
            format!("planner.{layer}_ms"),
            warm_span(&format!("planner.{layer}")),
            "ms",
        ));
    }
    let mut pruned = 0.0;
    for name in ["dominated_pruned", "bound_pruned", "topk_pruned"] {
        pruned += count(1, name);
        m.push(metric(format!("planner.{name}"), count(1, name), "count"));
    }
    m.push(metric(
        "planner.pruned_frac",
        ratio(pruned, count(1, "planner.enumerated")),
        "ratio",
    ));

    for (phase, pass) in [("cold", 1), ("warm", 2)] {
        let c = |name| count(pass, name);
        for name in [
            "profile_builds",
            "memo_misses",
            "memo_l1_hits",
            "memo_l2_hits",
        ] {
            m.push(metric(
                format!("partition.{name}.{phase}"),
                c(name),
                "count",
            ));
        }
        let hits = c("memo_l1_hits") + c("memo_l2_hits");
        let hit_ratio = ratio(hits, hits + c("memo_misses"));
        m.push(metric(
            format!("partition.memo_hit_ratio.{phase}"),
            hit_ratio,
            "ratio",
        ));
    }
    let build_ms = |t: &Trace, pass| t.counter(pass, "profile_build_ns") as f64 / 1e6;
    m.push(metric(
        "partition.profile_build_ms.cold",
        build_ms(&cold_trace, 1),
        "ms",
    ));
    m.push(metric(
        "partition.profile_build_ms.warm",
        warm_median(&|p| build_ms(&warm, p)),
        "ms",
    ));

    let (t1, untraced) = (median(&t1_ms), median(&untraced_ms));
    m.push(metric("rayon.warm_pass_ms_t1", t1, "ms"));
    m.push(metric("rayon.speedup", ratio(t1, untraced), "ratio"));

    for op in NETSIM_OPS {
        m.push(metric(format!("{op}_ms"), warm_span(op), "ms"));
    }
    let transfers = count(1, "netsim.transfers");
    m.push(metric("netsim.transfers", transfers, "count"));
    m.push(metric(
        "netsim.requeues",
        count(1, "netsim.requeues"),
        "count",
    ));
    let netsim_ns =
        warm_median(&|p| NETSIM_OPS.iter().map(|op| warm.span_ms(p, op)).sum::<f64>() * 1e6);
    m.push(metric(
        "netsim.ns_per_transfer",
        ratio(netsim_ns, transfers),
        "ns",
    ));

    let colocated = warm_span("servesim.colocated");
    let disaggregated = warm_span("servesim.disaggregated");
    let completed = count(1, "servesim.completed");
    m.push(metric("servesim.colocated_ms", colocated, "ms"));
    m.push(metric("servesim.disaggregated_ms", disaggregated, "ms"));
    let per_s = ratio(completed, (colocated + disaggregated) / 1e3);
    m.push(metric("servesim.requests_per_s", per_s, "1/s"));
    m.push(metric("servesim.completed", completed, "count"));
    m.push(metric(
        "trainsim.iteration_ms",
        warm_span("trainsim.iteration"),
        "ms",
    ));
    m.push(metric(
        "trainsim.replay_ms",
        warm_span("trainsim.replay"),
        "ms",
    ));
    m.push(metric(
        "serving.spec_ms",
        cold_trace.span_ms(0, "serving.spec"),
        "ms",
    ));

    for id in ARTIFACTS {
        // An artifact op's self time is its generator: the op minus its
        // report.render and report.serialize children.
        m.push(metric(
            format!("bench.{id}_ms.cold"),
            cold_trace.self_ms(1, id),
            "ms",
        ));
        m.push(metric(
            format!("bench.{id}_ms.warm"),
            warm_median(&|p| warm.self_ms(p, id)),
            "ms",
        ));
    }
    m.push(metric("report.render_ms", warm_span("report.render"), "ms"));
    m.push(metric(
        "report.serialize_ms",
        warm_span("report.serialize"),
        "ms",
    ));
    m.push(metric(
        "trace.overhead_ms",
        median(&traced_ms) - untraced,
        "ms",
    ));

    let file = write_trace_file(
        args,
        TraceFile {
            workload: args.workload.name().to_string(),
            pool_width: width,
            parent: warm,
            cold_child: cold_trace,
            width1_child: counts,
        },
    )?;
    eprintln!(
        "perfbench: traced {} at pool width {width}: {} traced, untraced and width-1 warm passes each; spans in {}",
        args.workload.name(),
        traced_ms.len(),
        file.display(),
    );
    Ok(m)
}

/// What a traced run writes: every process's spans, with self times, and
/// counters.
#[derive(Serialize)]
struct TraceFile {
    workload: String,
    pool_width: usize,
    parent: Trace,
    cold_child: Trace,
    width1_child: Trace,
}

/// Writes `trace` beside the executable, as
/// `perfbench-trace-<workload>-<seed>.json`.
fn write_trace_file(args: &Args, trace: TraceFile) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let name = format!(
        "perfbench-trace-{}-{}.json",
        args.workload.name(),
        args.seed
    );
    let path = exe.with_file_name(name);
    let text = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_four_inputs() {
        let a = parse_args(&strings(&[
            "--workload",
            "simulate",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::Simulate);
        assert_eq!((a.seed, a.seconds, a.trace, a.child), (7, 3, true, None));
    }

    #[test]
    fn rejects_bad_inputs() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "plan", "--trace", "2"],
            &["--workload", "plan", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn digests_round_trip_through_json() {
        let d = vec![Ok(0xdead_beef_0000_0001), Err("boom".to_string())];
        let sent: Vec<Digest> = d.iter().map(Digest::of).collect();
        let text = serde_json::to_string(&sent).expect("serializes");
        let back: Vec<Digest> = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.iter().map(Digest::get).collect::<Vec<_>>(), d);
    }
}
