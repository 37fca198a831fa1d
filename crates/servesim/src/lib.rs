//! Deterministic discrete-event inference-serving simulator.
//!
//! `perfmodel::serving` prices TTFT/TPOT/throughput with closed-form
//! queueing approximations (Little's-law occupancy, Pollaczek–Khinchine
//! waits, exponential tails). This crate replays the *same* per-phase
//! step times — prefill latencies, per-batch decode step times and KV
//! handoff costs, copied verbatim from the one pricing the analytic
//! assessments read, [`perfmodel::serving::ServingPhases`] — through an
//! explicit continuous-batching scheduler over a seeded Poisson arrival
//! trace, so any divergence between the two is purely *emergent queueing
//! behavior*: admission waits, prefill stalls landing inside decode gaps,
//! batch occupancy ramping, pool imbalance. The validation suite pins
//! how far the closed forms drift (documented tolerance bands, the same
//! cross-validation discipline `trainsim` applies to the training model).
//!
//! # Scheduler semantics
//!
//! * **Arrivals** are Poisson at the traffic's request rate; prompt and
//!   output lengths draw from the shared two-point
//!   [`txmodel::LengthMix`] inverse CDF, so the simulator samples
//!   *exactly* the distribution the analytic model integrates over.
//! * **Admission** happens at decode-step boundaries while the resident
//!   batch is under the ceiling (scheduler `max_batch` ∧ KV capacity).
//!   A request's full KV budget (prompt + maximum output) is reserved at
//!   admission — the vLLM-style conservative reservation — so *eviction
//!   never triggers*: the ceiling already accounts for the worst resident
//!   footprint, and the simulator checks rather than handles overflow.
//! * **Colocated** replicas interleave: an admission runs the prompt's
//!   whole prefill inline, stalling every resident sequence (the gap
//!   those sequences record is exactly the tail the disaggregated
//!   placement exists to remove). Requests round-robin over replicas by
//!   arrival index.
//! * **Disaggregated** placements run `k` prefill-only servers as an
//!   FCFS multi-server queue (earliest-free server wins, ties to the
//!   lowest index), charge the KV handoff after prefill, then hand the
//!   sequence to a decode replica (round-robin) whose step loop never
//!   runs a prefill — decode gaps stay clean.
//! * **TTFT** is arrival → prefill completion (+ KV handoff when
//!   disaggregated); **TPOT** gaps are measured per resident sequence
//!   between consecutive decode-step completions. The gaps are tallied
//!   per step by value: every sequence resident before a step shares
//!   that step's one gap, so a replay stores a `(gap, count)` entry per
//!   step plus one per admission, and costs O(steps + requests) in time
//!   and memory rather than O(output tokens).
//!
//! Single-threaded and seeded throughout: reports are bit-identical
//! across runs and trivially invariant to the host's thread count.

use perfmodel::serving::{PdPlacement, ServingPhases};
use perfmodel::{Evaluation, ServingCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use txmodel::InferenceConfig;

#[cfg(test)]
mod reference;

/// Why a plan cannot be simulated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The weights alone overflow HBM — no decode batch fits at all.
    Infeasible,
    /// A disaggregated split with no prefill or no decode replicas.
    BadSplit,
    /// A [`SimSpec`] field holds a value the simulator cannot run: zero
    /// GPUs or replicas, a zero batch ceiling or output length, a decode
    /// table shorter than the batch ceiling, a zero request rate, or a
    /// negative or non-finite service time.
    InvalidSpec {
        /// Dotted path of the field.
        field: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Infeasible => write!(f, "no decode batch fits in HBM"),
            SimError::BadSplit => write!(f, "disaggregated split needs both pools non-empty"),
            SimError::InvalidSpec { field } => {
                write!(f, "serving spec field {field} is out of range")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Everything the simulator needs, fully serialized: the traffic, the
/// replica pools, and the per-phase service times priced by the analytic
/// model. Build from a planned candidate via [`SimSpec::from_plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSpec {
    /// The offered traffic (arrival rate, length mixes, batch ceiling).
    pub traffic: InferenceConfig,
    /// Model replicas (`nd` of the planned configuration).
    pub replicas: u64,
    /// Total GPUs of the deployment, for per-GPU throughput reporting.
    pub gpus: u64,
    /// The prefill/decode placement being simulated.
    pub mode: PdPlacement,
    /// Effective per-replica batch ceiling (scheduler ∧ KV capacity).
    pub batch_ceiling: u64,
    /// Decode step time at batch `b` = `decode_steps[b − 1]`, seconds —
    /// the analytic model's exact per-batch pricing at the mean context.
    pub decode_steps: Vec<f64>,
    /// Prefill latency of a typical prompt, seconds.
    pub prefill_typical: f64,
    /// Prefill latency of a long-tail prompt, seconds.
    pub prefill_long: f64,
    /// KV handoff time for a typical prompt (0 when colocated), seconds.
    pub kv_transfer_typical: f64,
    /// KV handoff time for a long-tail prompt (0 when colocated), seconds.
    pub kv_transfer_long: f64,
}

impl SimSpec {
    /// Copies one planned candidate's priced serving phases
    /// ([`ServingPhases`]) into a simulatable spec: the batch ceiling,
    /// the full decode table, the prefill latencies and, for a
    /// disaggregated `mode`, the KV handoffs; pools split per `mode`.
    pub fn from_plan(e: &Evaluation, s: &ServingCtx, mode: PdPlacement) -> Result<Self, SimError> {
        if let PdPlacement::Disaggregated { prefill_replicas } = mode {
            if prefill_replicas == 0 || prefill_replicas >= e.config.nd {
                return Err(SimError::BadSplit);
            }
        }
        let mut phases = ServingPhases::price(e, s).ok_or(SimError::Infeasible)?;
        let (kv_transfer_typical, kv_transfer_long) = phases.kv_transfers(mode);
        Ok(SimSpec {
            traffic: s.traffic,
            replicas: e.config.nd,
            gpus: e.config.total_gpus(),
            mode,
            batch_ceiling: phases.batch_ceiling,
            decode_steps: phases.decode_table(),
            prefill_typical: phases.prefill_p50,
            prefill_long: phases.prefill_p99,
            kv_transfer_typical,
            kv_transfer_long,
        })
    }

    /// Checks what [`simulate_serving`] trusts. `SimSpec` has public fields
    /// and round-trips through JSON, and some values would make the
    /// simulator loop forever or panic: a zero batch ceiling or output
    /// length, a disaggregated split without a pool on either side, an
    /// empty decode table, or a NaN service time. Others would run and
    /// report something no deployment does, so they are rejected too:
    /// zero GPUs (an infinite or NaN per-GPU throughput), zero colocated
    /// replicas (the replay would quietly run one), a decode table
    /// shorter than the batch ceiling (every larger batch would be
    /// priced at the table's last entry), a zero request rate, and
    /// negative or infinite service times. [`SimSpec::from_plan`] builds
    /// none of these.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |field: &str| {
            Err(SimError::InvalidSpec {
                field: field.to_string(),
            })
        };
        if let PdPlacement::Disaggregated { prefill_replicas } = self.mode {
            if prefill_replicas == 0 || prefill_replicas >= self.replicas {
                return Err(SimError::BadSplit);
            }
        }
        if self.replicas == 0 {
            return invalid("replicas");
        }
        if self.gpus == 0 {
            return invalid("gpus");
        }
        if self.batch_ceiling == 0 {
            return invalid("batch_ceiling");
        }
        if (self.decode_steps.len() as u64) < self.batch_ceiling {
            return invalid("decode_steps");
        }
        if self.traffic.output.typical == 0 {
            return invalid("traffic.output.typical");
        }
        if self.traffic.output.long == 0 {
            return invalid("traffic.output.long");
        }
        if self.traffic.request_rate_milli == 0 {
            return invalid("traffic.request_rate_milli");
        }
        let times = [
            ("prefill_typical", self.prefill_typical),
            ("prefill_long", self.prefill_long),
            ("kv_transfer_typical", self.kv_transfer_typical),
            ("kv_transfer_long", self.kv_transfer_long),
        ];
        let steps = self.decode_steps.iter().map(|&t| ("decode_steps", t));
        for (field, t) in times.into_iter().chain(steps) {
            if !(t.is_finite() && t >= 0.0) {
                return invalid(field);
            }
        }
        Ok(())
    }

    /// Prefill latency for a request of `prompt` tokens (two-point mix:
    /// anything past the typical length prices as the long prompt).
    fn prefill_of(&self, prompt: u64) -> f64 {
        if prompt <= self.traffic.prompt.p50() {
            self.prefill_typical
        } else {
            self.prefill_long
        }
    }

    /// KV handoff for a request of `prompt` tokens (0 when colocated).
    fn kv_of(&self, prompt: u64) -> f64 {
        if prompt <= self.traffic.prompt.p50() {
            self.kv_transfer_typical
        } else {
            self.kv_transfer_long
        }
    }

    /// Decode step time at `batch` resident sequences. The clamp to the
    /// table is unreachable for a validated spec: a step runs at least
    /// one sequence, admission never exceeds the ceiling, and
    /// [`SimSpec::validate`] requires a table entry for every batch up
    /// to it.
    fn step(&self, batch: usize) -> f64 {
        let idx = batch.max(1).min(self.decode_steps.len()) - 1;
        self.decode_steps[idx]
    }
}

/// Simulation controls: the seed and the trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimParams {
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Requests in the arrival trace.
    pub requests: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            seed: 42,
            requests: 2000,
        }
    }
}

/// Measured serving behavior over one simulated trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Requests fully served (always the whole trace — the simulator
    /// drains its queues).
    pub completed: u64,
    /// First arrival → last token, seconds.
    pub makespan: f64,
    /// Output tokens per GPU-second actually delivered over the trace.
    pub delivered_tokens_per_gpu_second: f64,
    /// Median measured time-to-first-token, seconds.
    pub ttft_p50: f64,
    /// p99 measured time-to-first-token, seconds.
    pub ttft_p99: f64,
    /// Median measured inter-token gap, seconds.
    pub tpot_p50: f64,
    /// p99 measured inter-token gap, seconds.
    pub tpot_p99: f64,
    /// Time-weighted mean resident decode batch across busy replicas.
    pub mean_occupancy: f64,
}

/// One request of the arrival trace.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: f64,
    prompt: u64,
    output: u64,
}

/// Latency samples and occupancy integrals accumulated by the engines.
/// The sample store is a parameter only so that the tests' reference
/// loop can fill the same tally with one `f64` per sample.
#[derive(Debug, Default)]
struct Tally<S = Samples> {
    ttfts: S,
    gaps: S,
    tokens: u64,
    occupancy_time: f64,
    busy_time: f64,
    last_finish: f64,
}

impl<S> Tally<S> {
    /// The report over `trace`, with the latency quantiles read by
    /// `percentile`.
    fn report(
        mut self,
        spec: &SimSpec,
        trace: &[Request],
        percentile: fn(&mut S, f64) -> f64,
    ) -> SimReport {
        let first_arrival = match trace.first() {
            Some(r) => r.arrival,
            None => 0.0,
        };
        let makespan = (self.last_finish - first_arrival).max(f64::MIN_POSITIVE);
        SimReport {
            completed: trace.len() as u64,
            makespan,
            delivered_tokens_per_gpu_second: self.tokens as f64 / makespan / spec.gpus as f64,
            ttft_p50: percentile(&mut self.ttfts, 0.50),
            ttft_p99: percentile(&mut self.ttfts, 0.99),
            tpot_p50: percentile(&mut self.gaps, 0.50),
            tpot_p99: percentile(&mut self.gaps, 0.99),
            mean_occupancy: if self.busy_time > 0.0 {
                self.occupancy_time / self.busy_time
            } else {
                0.0
            },
        }
    }
}

/// A multiset of latency samples, kept as `(value, count)` runs in
/// insertion order. A sample bit-equal to the last run's value extends
/// that run, so a decode step that charges a whole group of sequences
/// one gap adds one run, not one sample per sequence.
#[derive(Debug, Default)]
struct Samples {
    runs: Vec<(f64, u64)>,
    total: u64,
}

impl Samples {
    /// Adds `count` samples of `value`.
    fn push(&mut self, value: f64, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        match self.runs.last_mut() {
            Some((last, n)) if last.to_bits() == value.to_bits() => *n += count,
            _ => self.runs.push((value, count)),
        }
    }

    /// Nearest-rank quantile (sorts the runs by value). Samples equal
    /// under `total_cmp` are equal bit for bit, so the result is the
    /// element a sort of the expanded samples holds at that rank. An
    /// empty tally reports 0 — a trace with no tokens has no latency to
    /// speak of.
    fn percentile(&mut self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        self.runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut seen = 0;
        self.runs
            .iter()
            .find(|&&(_, count)| {
                seen += count;
                seen >= rank
            })
            .map_or(0.0, |&(value, _)| value)
    }
}

/// Generates the seeded Poisson arrival trace with two-point length
/// draws — the exact distribution the analytic model integrates over.
fn arrival_trace(traffic: &InferenceConfig, params: &SimParams) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let lambda = traffic.request_rate();
    let mut t = 0.0;
    let mut out = Vec::with_capacity(params.requests as usize);
    for _ in 0..params.requests {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / lambda;
        out.push(Request {
            arrival: t,
            prompt: traffic.prompt.sample(rng.gen()),
            output: traffic.output.sample(rng.gen()),
        });
    }
    out
}

/// Runs one decode replica's step loop over its assigned requests and
/// returns the number of decode steps it ran. `inline_prefill` is the
/// colocated discipline: admissions run the prompt's prefill on the
/// replica's own timeline (stalling residents); disaggregated decode
/// admits instantaneously (prefill already happened in the prefill pool
/// — `ready` times carry it).
///
/// The loop costs O(steps + requests), not O(output tokens). After a
/// step, every resident's last token came at that step's end `t_step`,
/// so at the next step they all record the one gap `t − t_step`; only
/// the sequences admitted since carry a last-token time of their own.
/// A sequence with `output` tokens admitted before step `s` emits its
/// last token at step `s + output − 1` and leaves the batch there.
fn run_decode_replica(
    spec: &SimSpec,
    queue: &[(f64 /* ready */, Request)],
    inline_prefill: bool,
    tally: &mut Tally,
) -> u64 {
    let ceiling = spec.batch_ceiling as usize;
    // The step at which each resident emits its last token, soonest first.
    let mut finish: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    // Last-token times of the residents admitted since the last step.
    let mut fresh: Vec<f64> = Vec::new();
    let mut step = 0u64;
    let mut next = 0usize;
    let mut t = match queue.first() {
        Some((ready, _)) => *ready,
        None => return 0,
    };
    let mut t_step = t;
    while next < queue.len() || !finish.is_empty() {
        // Idle replica: jump to the next arrival.
        if finish.is_empty() && next < queue.len() && queue[next].0 > t {
            t = queue[next].0;
        }
        // Admit at the step boundary while there is room. Inline
        // prefill advances the clock, which can make further queued
        // requests eligible — the loop re-tests against the moved `t`.
        while next < queue.len() && finish.len() < ceiling && queue[next].0 <= t {
            let (ready, req) = queue[next];
            next += 1;
            if inline_prefill {
                t += spec.prefill_of(req.prompt);
                tally.ttfts.push(t - req.arrival, 1);
            } else {
                tally.ttfts.push(ready - req.arrival, 1);
            }
            fresh.push(if inline_prefill { t } else { ready.max(t) });
            // Saturating, so a hostile output length cannot wrap the
            // finish step into the past.
            finish.push(Reverse(step.saturating_add(req.output - 1)));
        }
        if finish.is_empty() {
            continue;
        }
        // One decode step at the current batch.
        let b = finish.len();
        let dt = spec.step(b);
        t += dt;
        tally.occupancy_time += b as f64 * dt;
        tally.busy_time += dt;
        tally.tokens += b as u64;
        tally.gaps.push(t - t_step, (b - fresh.len()) as u64);
        for last_token in fresh.drain(..) {
            tally.gaps.push(t - last_token, 1);
        }
        while finish.peek() == Some(&Reverse(step)) {
            finish.pop();
        }
        t_step = t;
        step += 1;
    }
    if t > tally.last_finish {
        tally.last_finish = t;
    }
    step
}

/// FCFS multi-server prefill pool: each request takes the earliest-free
/// server (ties to the lowest index) and becomes decode-ready after its
/// prefill plus the KV handoff. Returns `(ready, request)` in arrival
/// order.
fn run_prefill_pool(spec: &SimSpec, servers: usize, trace: &[Request]) -> Vec<(f64, Request)> {
    let mut free_at = vec![0.0f64; servers];
    trace
        .iter()
        .map(|req| {
            let mut srv = 0usize;
            for i in 1..servers {
                if free_at[i] < free_at[srv] {
                    srv = i;
                }
            }
            let start = if req.arrival > free_at[srv] {
                req.arrival
            } else {
                free_at[srv]
            };
            let done = start + spec.prefill_of(req.prompt);
            free_at[srv] = done;
            (done + spec.kv_of(req.prompt), *req)
        })
        .collect()
}

/// [`simulate_serving`] for a spec from outside the program: checks it
/// with [`SimSpec::validate`] first, so a hostile spec (say, one
/// deserialized from JSON) yields a typed error rather than a hang or a
/// panic.
pub fn try_simulate_serving(spec: &SimSpec, params: &SimParams) -> Result<SimReport, SimError> {
    spec.validate()?;
    Ok(simulate_serving(spec, params))
}

/// Simulates the spec's placement over a seeded arrival trace and
/// reports measured throughput and latency percentiles. Deterministic:
/// same spec + params → bit-identical report, on any thread count.
///
/// Trusts its spec, as [`SimSpec::from_plan`] builds it; a spec from
/// outside the program should go through [`try_simulate_serving`].
pub fn simulate_serving(spec: &SimSpec, params: &SimParams) -> SimReport {
    let trace = arrival_trace(&spec.traffic, params);
    let (queues, inline_prefill) = decode_queues(spec, &trace);
    let mut tally = Tally::default();
    for queue in &queues {
        run_decode_replica(spec, queue, inline_prefill, &mut tally);
    }
    tally.report(spec, &trace, Samples::percentile)
}

/// Splits the trace over the decode replicas: each replica's queue of
/// `(ready, request)` in admission order, and whether admissions run
/// their prefill inline (colocated) rather than in the prefill pool.
/// Requests round-robin over replicas by arrival index.
fn decode_queues(spec: &SimSpec, trace: &[Request]) -> (Vec<Vec<(f64, Request)>>, bool) {
    let (entries, replicas, inline_prefill) = match spec.mode {
        PdPlacement::Colocated => (
            trace.iter().map(|req| (req.arrival, *req)).collect(),
            spec.replicas.max(1) as usize,
            true,
        ),
        PdPlacement::Disaggregated { prefill_replicas } => (
            run_prefill_pool(spec, prefill_replicas.max(1) as usize, trace),
            (spec.replicas - prefill_replicas).max(1) as usize,
            false,
        ),
    };
    let mut queues = vec![Vec::new(); replicas];
    for (i, entry) in entries.into_iter().enumerate() {
        queues[i % replicas].push(entry);
    }
    if !inline_prefill {
        // FCFS per decode replica: admit in readiness order.
        for queue in &mut queues {
            queue.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
    }
    (queues, inline_prefill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::search::best_placement_eval;
    use perfmodel::{ParallelConfig, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_175b_chat, LengthMix};

    fn spec(mode: PdPlacement) -> SimSpec {
        let preset = gpt3_175b_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 8, 1);
        let e = best_placement_eval(&preset.model, &cfg, 1024, &sys);
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: sys,
        };
        SimSpec::from_plan(&e, &s, mode).expect("plan must be simulatable")
    }

    #[test]
    fn colocated_run_is_deterministic_and_complete() {
        let spec = spec(PdPlacement::Colocated);
        let params = SimParams {
            seed: 7,
            requests: 500,
        };
        let a = simulate_serving(&spec, &params);
        let b = simulate_serving(&spec, &params);
        assert_eq!(a, b);
        assert_eq!(a.completed, 500);
        assert!(a.tpot_p99 >= a.tpot_p50);
        assert!(a.ttft_p99 >= a.ttft_p50);
        assert!(a.delivered_tokens_per_gpu_second > 0.0);
        assert!(a.mean_occupancy >= 1.0);
        // A different seed yields a different trace (and report).
        let c = simulate_serving(
            &spec,
            &SimParams {
                seed: 8,
                requests: 500,
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn disaggregated_decode_gaps_are_clean() {
        let colo = simulate_serving(&spec(PdPlacement::Colocated), &SimParams::default());
        let disagg = simulate_serving(
            &spec(PdPlacement::Disaggregated {
                prefill_replicas: 2,
            }),
            &SimParams::default(),
        );
        // No prefill ever lands inside a disaggregated decode gap, so
        // the measured p99 gap sits far below the colocated one (which
        // carries whole prompts' forward passes).
        assert!(disagg.tpot_p99 < colo.tpot_p99);
        // The colocated tail really does carry prefill stalls.
        let s = spec(PdPlacement::Colocated);
        assert!(colo.tpot_p99 > s.prefill_typical);
    }

    /// The admission contract of the step loop that actually runs, at a
    /// ceiling low enough to bind (at the preset's ceiling the batch
    /// never fills): every request is admitted exactly once, every
    /// output token is delivered, and the resident batch stays within
    /// the ceiling.
    #[test]
    fn decode_admission_respects_a_binding_ceiling() {
        let params = SimParams {
            seed: 7,
            requests: 400,
        };
        for (mode, inline_prefill) in [
            (PdPlacement::Colocated, true),
            (
                PdPlacement::Disaggregated {
                    prefill_replicas: 2,
                },
                false,
            ),
        ] {
            let mut spec = spec(mode);
            spec.batch_ceiling = 2;
            let trace = arrival_trace(&spec.traffic, &params);
            let queue: Vec<(f64, Request)> = if inline_prefill {
                trace.iter().map(|req| (req.arrival, *req)).collect()
            } else {
                let mut ready = run_prefill_pool(&spec, 2, &trace);
                ready.sort_by(|a, b| a.0.total_cmp(&b.0));
                ready
            };
            let mut tally = Tally::default();
            run_decode_replica(&spec, &queue, inline_prefill, &mut tally);

            assert_eq!(tally.ttfts.total, queue.len() as u64, "{mode:?}");
            let outputs: u64 = queue.iter().map(|(_, req)| req.output).sum();
            assert_eq!(tally.tokens, outputs, "{mode:?}");
            // Within the ceiling, and close enough to it that it binds.
            let occupancy = tally.occupancy_time / tally.busy_time;
            assert!(
                (1.9..=2.0).contains(&occupancy),
                "{mode:?}: occupancy {occupancy}"
            );
        }
    }

    #[test]
    fn bad_splits_and_infeasible_plans_are_typed_errors() {
        let preset = gpt3_175b_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: sys.clone(),
        };
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 8, 1);
        let e = best_placement_eval(&preset.model, &cfg, 1024, &sys);
        assert_eq!(
            SimSpec::from_plan(
                &e,
                &s,
                PdPlacement::Disaggregated {
                    prefill_replicas: 8
                }
            ),
            Err(SimError::BadSplit)
        );
        // tp = 1 cannot hold the weights at all.
        let cfg1 = ParallelConfig::new(TpStrategy::OneD, 1, 1, 1, 8, 1);
        let e1 = best_placement_eval(&preset.model, &cfg1, 1024, &sys);
        assert_eq!(
            SimSpec::from_plan(&e1, &s, PdPlacement::Colocated),
            Err(SimError::Infeasible)
        );
    }

    #[test]
    fn spec_and_report_survive_json() {
        let spec = spec(PdPlacement::Colocated);
        let back: SimSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
        let report = simulate_serving(&spec, &SimParams::default());
        let back: SimReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    /// The run tally reads, bit for bit, the element a full `total_cmp`
    /// sort of its expanded samples holds at the nearest rank: with ties,
    /// `-0.0` next to `0.0`, bit-equal neighbours that merge, values that
    /// recur apart, counts up to 1e6, and an empty tally.
    #[test]
    fn run_tally_percentile_matches_a_sort_of_the_expanded_samples() {
        let pushes = [
            (4.0, 1),
            (1.0, 1),
            (3.0, 1),
            (2.0, 1),
            (2.0, 3),
            (-0.0, 5),
            (0.0, 5),
            (1e-3, 0),
            (0.5, 1),
            (-0.0, 2),
            (2.0, 7),
            (f64::MIN_POSITIVE, 1),
            (1e-3, 1_000_000),
            (0.5, 999_999),
            (1e-3, 1),
        ];
        for len in [0, 1, 4, 7, 11, pushes.len()] {
            let mut tally = Samples::default();
            let mut expanded = Vec::new();
            for &(value, count) in &pushes[..len] {
                tally.push(value, count);
                expanded.extend(std::iter::repeat_n(value, count as usize));
            }
            expanded.sort_by(f64::total_cmp);
            let n = expanded.len();
            assert_eq!(tally.total, n as u64);
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let want = match n {
                    0 => 0.0,
                    _ => expanded[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
                };
                let got = tally.percentile(q);
                assert_eq!(got.to_bits(), want.to_bits(), "{len} pushes, q {q}");
            }
        }
        // The four-sample prefix is the plain nearest-rank example.
        let mut small = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            small.push(v, 1);
        }
        assert_eq!(small.percentile(0.50), 2.0);
        assert_eq!(small.percentile(0.99), 4.0);
        // Bit-equal neighbours merge, a zero count adds nothing, and
        // -0.0 stays apart from 0.0.
        let mut tally = Samples::default();
        for &(value, count) in &pushes[4..8] {
            tally.push(value, count);
        }
        assert_eq!(tally.runs.len(), 3);
        assert_eq!(tally.runs[2].0.to_bits(), 0.0f64.to_bits());
    }

    /// The point of the step loop: on the 3,000-request chat replay the
    /// gap tally holds at most one run per decode step plus one per
    /// admission, and fewer than 2% of the tokens delivered. A return to
    /// one stored sample per token fails here.
    #[test]
    fn gap_tally_grows_with_steps_not_tokens() {
        let params = SimParams {
            seed: 7,
            requests: 3000,
        };
        for mode in [
            PdPlacement::Colocated,
            PdPlacement::Disaggregated {
                prefill_replicas: 2,
            },
        ] {
            let spec = spec(mode);
            let trace = arrival_trace(&spec.traffic, &params);
            let (queues, inline_prefill) = decode_queues(&spec, &trace);
            let mut tally = Tally::default();
            let steps: u64 = queues
                .iter()
                .map(|queue| run_decode_replica(&spec, queue, inline_prefill, &mut tally))
                .sum();
            let runs = tally.gaps.runs.len() as u64;
            assert_eq!(tally.gaps.total, tally.tokens, "{mode:?}");
            assert!(
                runs <= steps + trace.len() as u64,
                "{mode:?}: {runs} runs over {steps} steps"
            );
            assert!(
                runs * 50 < tally.tokens,
                "{mode:?}: {runs} runs for {} tokens",
                tally.tokens
            );
        }
    }

    /// A seeded random spec over the corners the step loop must match
    /// the token loop on: both modes at prefill splits 1 and `nd/2`,
    /// batch ceilings 1, 2, 3 and the table length, rates from idle to
    /// saturated, zero decode-step and prefill times, one-token outputs,
    /// and traces of 0, 1 and a few hundred requests. Few distinct
    /// prices, so gaps tie across steps and sequences.
    fn random_case(rng: &mut StdRng) -> (SimSpec, SimParams) {
        let replicas = rng.gen_range(2..=8u64);
        let mode = match rng.gen_range(0..3u32) {
            0 => PdPlacement::Colocated,
            1 => PdPlacement::Disaggregated {
                prefill_replicas: 1,
            },
            _ => PdPlacement::Disaggregated {
                prefill_replicas: replicas / 2,
            },
        };
        let table = rng.gen_range(4..=40usize);
        let batch_ceiling = [1, 2, 3, table as u64][rng.gen_range(0..4usize)];
        let base = [0.0, 1e-3, 2.5e-3, 7e-3][rng.gen_range(0..4usize)];
        let slope = [0.0, 3e-5, 1e-4][rng.gen_range(0..3usize)];
        let decode_steps = (0..table).map(|b| base + slope * b as f64).collect();
        let prefill = [0.0, 0.0, 4e-3, 30e-3][rng.gen_range(0..4usize)];
        let typical = [1, 1, 2, 16, 64][rng.gen_range(0..5usize)];
        let output = LengthMix::new(typical, typical * [1, 4][rng.gen_range(0..2usize)]);
        let rate_milli = [1, 300, 3_000, 30_000, 300_000, 3_000_000][rng.gen_range(0..6usize)];
        let colocated = matches!(mode, PdPlacement::Colocated);
        let kv = if colocated {
            0.0
        } else {
            [0.0, 1e-3][rng.gen_range(0..2usize)]
        };
        let spec = SimSpec {
            traffic: InferenceConfig {
                prompt: LengthMix::new(512, 2048),
                output,
                request_rate_milli: rate_milli,
                max_batch: batch_ceiling,
            },
            replicas,
            gpus: 8 * replicas,
            mode,
            batch_ceiling,
            decode_steps,
            prefill_typical: prefill,
            prefill_long: 2.0 * prefill,
            kv_transfer_typical: kv,
            kv_transfer_long: 4.0 * kv,
        };
        let requests = match rng.gen_range(0..8u32) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(100..=400u64),
        };
        let params = SimParams {
            seed: rng.gen(),
            requests,
        };
        (spec, params)
    }

    #[test]
    fn step_loop_matches_the_token_loop_on_random_specs() {
        let mut rng = StdRng::seed_from_u64(0x5E12_7E51);
        let (mut saturated, mut idle) = (0, 0);
        for case in 0..200 {
            let (spec, params) = random_case(&mut rng);
            assert_eq!(spec.validate(), Ok(()), "case {case}");
            let got = simulate_serving(&spec, &params);
            let want = reference::simulate_serving(&spec, &params);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "case {case}: {spec:?} {params:?}"
            );
            if spec.batch_ceiling > 1 && got.mean_occupancy > 0.9 * spec.batch_ceiling as f64 {
                saturated += 1;
            }
            if got.completed > 1 && got.mean_occupancy == 1.0 {
                idle += 1;
            }
        }
        assert!(
            saturated >= 10 && idle >= 10,
            "{saturated} saturated, {idle} idle"
        );
    }

    /// The spec fields of a hostile JSON document, applied to a priced
    /// spec, must come back as a typed error on a short trace.
    fn rejects(mode: PdPlacement, edit: impl FnOnce(&mut SimSpec), err: SimError) {
        let mut hostile = spec(mode);
        edit(&mut hostile);
        let json = serde_json::to_string(&hostile).unwrap();
        let back: SimSpec = serde_json::from_str(&json).unwrap();
        let params = SimParams {
            seed: 1,
            requests: 10,
        };
        assert_eq!(try_simulate_serving(&back, &params), Err(err));
    }

    fn invalid(field: &str) -> SimError {
        SimError::InvalidSpec {
            field: field.to_string(),
        }
    }

    #[test]
    fn zero_batch_ceiling_is_rejected() {
        rejects(
            PdPlacement::Colocated,
            |s| s.batch_ceiling = 0,
            invalid("batch_ceiling"),
        );
    }

    #[test]
    fn zero_output_length_is_rejected() {
        rejects(
            PdPlacement::Colocated,
            |s| s.traffic.output.typical = 0,
            invalid("traffic.output.typical"),
        );
        rejects(
            PdPlacement::Colocated,
            |s| s.traffic.output.long = 0,
            invalid("traffic.output.long"),
        );
    }

    #[test]
    fn disaggregated_split_without_decoders_is_rejected() {
        let disagg = PdPlacement::Disaggregated {
            prefill_replicas: 2,
        };
        for prefill_replicas in [0, 8, 9] {
            rejects(
                disagg,
                |s| s.mode = PdPlacement::Disaggregated { prefill_replicas },
                SimError::BadSplit,
            );
        }
    }

    #[test]
    fn decode_table_shorter_than_the_ceiling_is_rejected() {
        for keep in [0, 1] {
            rejects(
                PdPlacement::Colocated,
                |s| s.decode_steps.truncate(keep),
                invalid("decode_steps"),
            );
        }
        rejects(
            PdPlacement::Colocated,
            |s| {
                s.decode_steps.pop();
            },
            invalid("decode_steps"),
        );
    }

    #[test]
    fn zero_gpus_or_colocated_replicas_are_rejected() {
        rejects(PdPlacement::Colocated, |s| s.gpus = 0, invalid("gpus"));
        rejects(
            PdPlacement::Colocated,
            |s| s.replicas = 0,
            invalid("replicas"),
        );
    }

    #[test]
    fn zero_rate_and_bad_service_times_are_rejected() {
        rejects(
            PdPlacement::Colocated,
            |s| s.traffic.request_rate_milli = 0,
            invalid("traffic.request_rate_milli"),
        );
        // JSON carries no NaN, so these are set after the round trip.
        let params = SimParams::default();
        let mut nan_prefill = spec(PdPlacement::Colocated);
        nan_prefill.prefill_typical = f64::NAN;
        assert_eq!(
            try_simulate_serving(&nan_prefill, &params),
            Err(invalid("prefill_typical"))
        );
        let mut negative_step = spec(PdPlacement::Colocated);
        negative_step.decode_steps[3] = -1e-3;
        assert_eq!(
            try_simulate_serving(&negative_step, &params),
            Err(invalid("decode_steps"))
        );
    }

    #[test]
    fn valid_specs_simulate_as_before() {
        let params = SimParams {
            seed: 3,
            requests: 200,
        };
        for mode in [
            PdPlacement::Colocated,
            PdPlacement::Disaggregated {
                prefill_replicas: 2,
            },
        ] {
            let s = spec(mode);
            assert_eq!(
                try_simulate_serving(&s, &params),
                Ok(simulate_serving(&s, &params))
            );
        }
    }
}
