//! Fault-injected multi-iteration training replay.
//!
//! The analytic goodput model (`perfmodel::reliability`) prices failures
//! with closed forms: Poisson hard-failure arrivals, a Young/Daly
//! checkpoint interval, stationary straggler/link-degradation duty
//! cycles, and an *independence assumption* — every failure mode inflates
//! its cost bucket as if the others did not exist. This module is the
//! empirical check on those forms: it samples a concrete timestamped
//! fault trace ([`FaultPlan`]) from the same [`ReliabilitySpec`] rates
//! and *replays* it against the schedule simulator, iteration by
//! iteration, with explicit checkpoint/restart bookkeeping
//! ([`simulate_training`]).
//!
//! Fidelity choices (each one a deliberate, documented approximation):
//!
//! * **Iteration granularity.** The replay advances one training
//!   iteration at a time; fault windows opening mid-iteration take effect
//!   at the next iteration boundary. Hard failures *do* interrupt the
//!   current iteration (its work is lost along with everything since the
//!   last checkpoint).
//! * **Three iteration variants**, precomputed once: the failure-free
//!   time from [`simulate_iteration`]; the *straggled* time from the same
//!   simulator with one pipeline stage slowed by
//!   `ReliabilitySpec::straggler_slowdown` (the 1F1B schedule serializes
//!   on the slowest stage, so the coupling between a straggler and the
//!   pipeline is emergent, not assumed); and the *degraded* time, where
//!   the data-parallel gradient sync is re-priced by the netsim DES on a
//!   fabric whose slow-tier links run at
//!   `ReliabilitySpec::link_degradation` of nominal bandwidth
//!   ([`netsim::simulate_collective_derated`] — per-link bandwidth
//!   rescaling, not a scalar fudge on the analytic time).
//! * **Degradation hits the DP tail only.** The iteration simulator does
//!   not expose its inner TP/PP comm terms as separately scalable
//!   quantities, so a degraded window inflates the slow-tier collective
//!   the replay *can* re-price: the gradient sync. The analytic model
//!   instead inflates every slow-tier-exposed bucket. Configurations with
//!   cross-domain tensor parallelism therefore show the *largest*
//!   analytic-vs-replay gap — that gap is exactly the quantity the
//!   cross-validation tests pin down.
//! * **Checkpoints are atomic.** A kill landing inside a checkpoint write
//!   restarts from that (just-completed) checkpoint.

use crate::sim::{simulate_iteration, SimParams, UnsupportedConfig};
use collectives::Collective;
use netsim::{simulate_collective_derated, SimOptions};
use perfmodel::partition::build_profile;
use perfmodel::{ParallelConfig, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use systems::{ReliabilitySpec, SystemSpec};
use txmodel::TransformerConfig;

/// One fault, without its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Hard failure (GPU or NIC dies): the job aborts and restarts from
    /// the last checkpoint after `restart_overhead_s`.
    NodeKill,
    /// A flapping slow-tier link: cross-domain traffic runs at
    /// `ReliabilitySpec::link_degradation` of nominal bandwidth until the
    /// window closes.
    LinkDegrade {
        /// Window length, seconds.
        duration_s: f64,
    },
    /// A thermally-throttled / flaky GPU gates its pipeline stage by
    /// `ReliabilitySpec::straggler_slowdown` until the window closes.
    Straggler {
        /// Window length, seconds.
        duration_s: f64,
    },
}

/// A [`FaultEvent`] stamped with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Arrival time, seconds from the start of the run.
    pub at_s: f64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic, serializable fault trace: every fault the replay
/// will inject over `horizon_s` seconds of wall clock, sorted by arrival
/// time. Sample one from a [`ReliabilitySpec`] with [`FaultPlan::sample`]
/// (same trace for the same seed, always) or build one by hand for
/// directed scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Wall-clock horizon the trace covers, seconds.
    pub horizon_s: f64,
    /// Faults in non-decreasing `at_s` order.
    pub events: Vec<TimedFault>,
}

impl FaultPlan {
    /// A trace with no faults (the failure-free baseline).
    pub fn failure_free(horizon_s: f64) -> Self {
        FaultPlan {
            horizon_s,
            events: Vec::new(),
        }
    }

    /// Samples a fault trace from `spec`'s rates: three independent
    /// Poisson processes (exponential interarrivals) —
    ///
    /// * hard failures at `spec.system_failure_rate(gpus, nics)`,
    /// * link-degradation windows at `link_flap_rate_per_hour` per
    ///   slow-tier link across `slow_links` links, each lasting
    ///   `flap_duration_s`,
    /// * straggler episodes at `straggler_prob · gpus /
    ///   straggler_duration_s` (so each GPU straggles a `straggler_prob`
    ///   fraction of the time in steady state), each lasting
    ///   `straggler_duration_s`.
    ///
    /// Each process draws from its own seeded RNG stream, so adding a
    /// failure mode never perturbs the arrivals of another. Deterministic
    /// given `(spec, gpus, nics, slow_links, horizon_s, seed)`.
    pub fn sample(
        spec: &ReliabilitySpec,
        gpus: u64,
        nics: u64,
        slow_links: u64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "horizon must be positive and finite"
        );
        let mut events = Vec::new();
        let mut arrivals = |rate: f64, stream: u64, mut make: Box<dyn FnMut() -> FaultEvent>| {
            if rate <= 0.0 {
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream);
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / rate;
                if t >= horizon_s {
                    break;
                }
                events.push(TimedFault {
                    at_s: t,
                    event: make(),
                });
            }
        };
        arrivals(
            spec.system_failure_rate(gpus, nics),
            1,
            Box::new(|| FaultEvent::NodeKill),
        );
        let flap_dur = spec.flap_duration_s;
        arrivals(
            spec.link_flap_rate_per_hour / 3600.0 * slow_links as f64,
            2,
            Box::new(move || FaultEvent::LinkDegrade {
                duration_s: flap_dur,
            }),
        );
        let strag_dur = spec.straggler_duration_s;
        let strag_rate = if spec.straggler_duration_s > 0.0 {
            spec.straggler_prob * gpus as f64 / spec.straggler_duration_s
        } else {
            0.0
        };
        arrivals(
            strag_rate,
            3,
            Box::new(move || FaultEvent::Straggler {
                duration_s: strag_dur,
            }),
        );
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        FaultPlan { horizon_s, events }
    }

    /// Number of hard failures in the trace.
    pub fn kills(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, FaultEvent::NodeKill))
            .count()
    }
}

/// Checkpoint/restart policy for [`simulate_training`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingParams {
    /// Target seconds of training progress between checkpoints (the
    /// replay rounds this to a whole number of iterations, at least one).
    /// `f64::INFINITY` disables checkpointing: a kill then loses the
    /// whole run so far.
    pub checkpoint_interval_s: f64,
    /// Seconds to write one checkpoint (training pauses).
    pub checkpoint_time_s: f64,
    /// Seconds from a hard failure to the job running again (scheduling,
    /// reload, warmup) — on top of the lost progress since the last
    /// checkpoint.
    pub restart_overhead_s: f64,
    /// Per-iteration simulator knobs (jitter/overhead); the straggler
    /// fields are managed by the replay and must be unset.
    pub sim: SimParams,
}

impl TrainingParams {
    /// The given checkpoint policy over an ideal (no-jitter) iteration
    /// simulator.
    pub fn new(
        checkpoint_interval_s: f64,
        checkpoint_time_s: f64,
        restart_overhead_s: f64,
    ) -> Self {
        TrainingParams {
            checkpoint_interval_s,
            checkpoint_time_s,
            restart_overhead_s,
            sim: SimParams::ideal(),
        }
    }
}

/// Outcome of a fault-injected training replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Failure-free iteration time (the replay's unit of progress).
    pub iteration_time: f64,
    /// Iteration time while a straggler window is open.
    pub straggled_iteration_time: f64,
    /// Iteration time while a link-degradation window is open.
    pub degraded_iteration_time: f64,
    /// Total simulated wall clock, seconds (≥ the plan's horizon: the
    /// final iteration/checkpoint/restart runs to completion).
    pub wall_clock_s: f64,
    /// Iterations whose results survived to the end of the run.
    pub useful_iterations: u64,
    /// Iterations executed but rolled back by a later kill.
    pub lost_iterations: u64,
    /// Useful iterations run inside a link-degradation window.
    pub degraded_iterations: u64,
    /// Useful iterations run inside a straggler window.
    pub straggled_iterations: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Hard-failure restarts.
    pub restarts: u64,
    /// Delivered fraction of the failure-free throughput:
    /// `useful_iterations · iteration_time / wall_clock_s`. The measured
    /// counterpart of the analytic model's
    /// `goodput_fraction · iteration_time / effective_iteration_time`.
    pub goodput_fraction: f64,
}

/// Replays `plan` against a multi-iteration training run of `cfg` with
/// checkpoint/restart semantics, and measures the goodput actually
/// delivered.
///
/// The loop: run iterations back to back; every
/// `round(checkpoint_interval_s / iteration_time)` useful iterations,
/// pause `checkpoint_time_s` to write a checkpoint; when a
/// [`FaultEvent::NodeKill`] arrives, discard progress since the last
/// checkpoint, pay `restart_overhead_s`, and resume; while degradation /
/// straggler windows are open, iterations run at the precomputed
/// degraded / straggled rate (see the module docs for how each variant
/// is priced). Deterministic given its arguments.
///
/// Returns [`UnsupportedConfig`] for configurations outside the
/// iteration simulator's envelope, exactly as [`simulate_iteration`], and
/// [`UnsupportedConfig::Invalid`], before any replay work, when `params`
/// sets a straggler stage (the fault plan drives stragglers) or a
/// checkpoint interval that is not positive (NaN included;
/// `f64::INFINITY` disables checkpointing).
pub fn simulate_training(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    plan: &FaultPlan,
    params: &TrainingParams,
) -> Result<TrainingReport, UnsupportedConfig> {
    let invalid = |message: &str| UnsupportedConfig::Invalid {
        message: message.into(),
    };
    if params.sim.straggler_stage.is_some() {
        return Err(invalid(
            "straggler injection is driven by the fault plan; leave SimParams::straggler_stage unset",
        ));
    }
    if params.checkpoint_interval_s.is_nan() || params.checkpoint_interval_s <= 0.0 {
        return Err(invalid(
            "checkpoint interval must be positive (use INFINITY to disable)",
        ));
    }
    let spec = &sys.reliability;

    let base = simulate_iteration(model, cfg, placement, global_batch, sys, &params.sim)?;
    let t_base = base.iteration_time;
    let has = |f: fn(&FaultEvent) -> bool| plan.events.iter().any(|e| f(&e.event));

    // Straggled variant: one stage gated by the spec's slowdown. Stage
    // choice is immaterial for the uniform-layer models this repo
    // studies (every stage has the same work), but pick the middle one
    // so both bubble edges stay representative.
    let t_strag =
        if spec.straggler_slowdown > 1.0 && has(|e| matches!(e, FaultEvent::Straggler { .. })) {
            let p = SimParams {
                straggler_stage: Some(cfg.np / 2),
                straggler_factor: spec.straggler_slowdown,
                ..params.sim
            };
            simulate_iteration(model, cfg, placement, global_batch, sys, &p)?.iteration_time
        } else {
            t_base
        };

    // Degraded variant: the DP gradient sync re-priced by the DES on the
    // derated fabric; everything else unchanged (see module docs).
    let t_degr = if spec.link_degradation < 1.0
        && spec.link_degradation > 0.0
        && has(|e| matches!(e, FaultEvent::LinkDegrade { .. }))
    {
        t_base + dp_degrade_increment(model, cfg, placement, global_batch, sys)
    } else {
        t_base
    };

    // Checkpoint cadence in whole iterations of *progress*.
    let k_ckpt = if params.checkpoint_interval_s.is_finite() {
        ((params.checkpoint_interval_s / t_base).round() as u64).max(1)
    } else {
        u64::MAX
    };

    let ev = &plan.events;
    let mut i = 0usize;
    let mut wall = 0.0f64;
    let mut useful = 0u64;
    let mut last_ckpt = 0u64;
    let mut since_ckpt = 0u64;
    let mut degrade_until = f64::NEG_INFINITY;
    let mut straggle_until = f64::NEG_INFINITY;
    let mut restarts = 0u64;
    let mut checkpoints = 0u64;
    let mut lost = 0u64;
    let mut degraded_iters = 0u64;
    let mut straggled_iters = 0u64;

    while wall < plan.horizon_s {
        // Absorb every event at or before the current time.
        while i < ev.len() && ev[i].at_s <= wall {
            match ev[i].event {
                FaultEvent::NodeKill => {
                    // The job is already between iterations here (the
                    // mid-iteration case is handled below), so only the
                    // uncheckpointed iterations are lost.
                    lost += useful - last_ckpt;
                    useful = last_ckpt;
                    since_ckpt = 0;
                    wall = ev[i].at_s.max(wall) + params.restart_overhead_s;
                    restarts += 1;
                }
                FaultEvent::LinkDegrade { duration_s } => {
                    degrade_until = degrade_until.max(ev[i].at_s + duration_s);
                }
                FaultEvent::Straggler { duration_s } => {
                    straggle_until = straggle_until.max(ev[i].at_s + duration_s);
                }
            }
            i += 1;
        }
        if wall >= plan.horizon_s {
            break;
        }

        // Iteration variant from the windows open at its start.
        let strag = wall < straggle_until;
        let degr = wall < degrade_until;
        let t_iter = match (strag, degr) {
            (false, false) => t_base,
            (true, false) => t_strag,
            (false, true) => t_degr,
            // Both at once: the slowdowns hit disjoint phases (compute
            // pipeline vs gradient sync), so they compose additively.
            (true, true) => t_strag + (t_degr - t_base),
        };

        // Does a kill land inside this iteration? Window events arriving
        // mid-iteration are absorbed (they matter from the next
        // iteration); a kill aborts it.
        let end = wall + t_iter;
        let mut killed = false;
        while i < ev.len() && ev[i].at_s < end {
            match ev[i].event {
                FaultEvent::NodeKill => {
                    lost += useful - last_ckpt;
                    useful = last_ckpt;
                    since_ckpt = 0;
                    wall = ev[i].at_s + params.restart_overhead_s;
                    restarts += 1;
                    i += 1;
                    killed = true;
                    break;
                }
                FaultEvent::LinkDegrade { duration_s } => {
                    degrade_until = degrade_until.max(ev[i].at_s + duration_s);
                    i += 1;
                }
                FaultEvent::Straggler { duration_s } => {
                    straggle_until = straggle_until.max(ev[i].at_s + duration_s);
                    i += 1;
                }
            }
        }
        if killed {
            continue;
        }

        wall = end;
        useful += 1;
        since_ckpt += 1;
        if strag {
            straggled_iters += 1;
        }
        if degr {
            degraded_iters += 1;
        }
        if since_ckpt >= k_ckpt {
            wall += params.checkpoint_time_s;
            checkpoints += 1;
            last_ckpt = useful;
            since_ckpt = 0;
        }
    }

    let goodput_fraction = if wall > 0.0 {
        (useful as f64 * t_base / wall).clamp(0.0, 1.0)
    } else {
        1.0
    };
    Ok(TrainingReport {
        iteration_time: t_base,
        straggled_iteration_time: t_strag,
        degraded_iteration_time: t_degr,
        wall_clock_s: wall,
        useful_iterations: useful,
        lost_iterations: lost,
        degraded_iterations: degraded_iters,
        straggled_iterations: straggled_iters,
        checkpoints,
        restarts,
        goodput_fraction,
    })
}

/// Extra seconds per iteration when the slow tier is degraded: the DP
/// gradient sync re-priced by the DES at `link_degradation` per-link
/// bandwidth, minus its nominal DES time, scaled onto the analytic tail
/// the iteration simulator actually charges. Intra-domain DP groups have
/// no slow links on their rings, so the DES ratio is 1 and the increment
/// 0 — exposure is emergent from the placement, as in the analytic model.
fn dp_degrade_increment(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
) -> f64 {
    let profile = build_profile(
        model,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        cfg.microbatch,
        cfg.summa_panels,
        cfg.ep,
        &sys.gpu,
    );
    let (tf, tb) = perfmodel::stage_times(&profile, model, cfg, placement, sys);
    let dp_tail =
        perfmodel::dp_sync_time(&profile, model, cfg, placement, global_batch, sys, tf, tb);
    if dp_tail <= 0.0 {
        return 0.0;
    }
    let parts = perfmodel::dp_sync_groups(&profile, model, cfg, placement);
    let opts = SimOptions::default();
    let sum_des = |derate: f64| -> f64 {
        parts
            .iter()
            .flatten()
            .map(|&(grp, vol)| {
                simulate_collective_derated(Collective::AllReduce, vol, grp, sys, &opts, derate)
                    .time
            })
            .sum()
    };
    let nominal = sum_des(1.0);
    if nominal <= 0.0 {
        return 0.0;
    }
    let ratio = (sum_des(sys.reliability.link_degradation) / nominal).max(1.0);
    // The DES measures the *relative* slowdown of the collective; the
    // absolute extra seconds scale the analytic tail the iteration
    // simulator actually charges, keeping the two sims consistent.
    dp_tail * (ratio - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize, ReliabilitySpec};
    use txmodel::gpt3_175b;

    fn sys() -> SystemSpec {
        system(GpuGeneration::A100, NvsSize::Nvs4)
    }

    fn cfg_175b() -> (TransformerConfig, ParallelConfig, Placement) {
        let model = gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
        let placement = Placement {
            v1: 4,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        (model, cfg, placement)
    }

    #[test]
    fn sampling_is_deterministic_and_sorted() {
        let spec = ReliabilitySpec::datacenter();
        let a = FaultPlan::sample(&spec, 512, 128, 127, 86_400.0, 7);
        let b = FaultPlan::sample(&spec, 512, 128, 127, 86_400.0, 7);
        assert_eq!(a, b);
        assert!(a.events.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let c = FaultPlan::sample(&spec, 512, 128, 127, 86_400.0, 8);
        assert_ne!(a, c);
        // JSON round-trip.
        let back: FaultPlan = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn sampled_counts_track_the_rates() {
        // 30 days, hard failures only, 512 GPUs at 50k h MTBF (+ NICs):
        // expectation λ·T ≈ 77; Poisson σ ≈ 9.
        let spec = ReliabilitySpec::failure_free().with_gpu_mtbf_hours(50_000.0);
        let horizon = 30.0 * 86_400.0;
        let plan = FaultPlan::sample(&spec, 512, 0, 0, horizon, 1);
        let expect = spec.system_failure_rate(512, 0) * horizon;
        let got = plan.kills() as f64;
        assert!(
            (got - expect).abs() < 4.0 * expect.sqrt(),
            "got {got}, expected ≈{expect}"
        );
        assert_eq!(plan.events.len(), plan.kills());
    }

    #[test]
    fn failure_free_replay_matches_the_iteration_simulator_exactly() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan::failure_free(1_000.0);
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 0.0),
        )
        .unwrap();
        let base = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        assert_eq!(r.iteration_time, base.iteration_time);
        // Wall clock is an accumulated sum of identical iteration times,
        // so the delivered fraction is 1 up to float summation error.
        assert!(r.goodput_fraction > 1.0 - 1e-12);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.checkpoints, 0);
        assert_eq!(r.lost_iterations, 0);
        // ceil(horizon / t) iterations ran (±1 for summation error at
        // the horizon boundary).
        let expected = (1_000.0 / base.iteration_time).ceil() as i64;
        assert!((r.useful_iterations as i64 - expected).abs() <= 1);
        let span = r.useful_iterations as f64 * base.iteration_time;
        assert!((r.wall_clock_s - span).abs() < 1e-6 * span);
    }

    /// Inputs the replay cannot honour return `Invalid` before any replay
    /// work: a straggler stage set by the caller, a checkpoint interval
    /// that is zero, negative or NaN (each once an `assert!` panic), and
    /// the two placements `simulate_iteration` rejects.
    #[test]
    fn invalid_inputs_are_typed_errors() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan::failure_free(1_000.0);
        let replay = |pl: &Placement, params: &TrainingParams| {
            simulate_training(&model, &cfg, pl, 1024, &s, &plan, params)
        };
        let invalid = |message: &str| {
            Err(UnsupportedConfig::Invalid {
                message: message.into(),
            })
        };
        let straggler = TrainingParams {
            sim: SimParams {
                straggler_stage: Some(0),
                ..SimParams::ideal()
            },
            ..TrainingParams::new(f64::INFINITY, 0.0, 0.0)
        };
        assert_eq!(
            replay(&pl, &straggler),
            invalid(
                "straggler injection is driven by the fault plan; leave SimParams::straggler_stage unset"
            )
        );
        for interval in [0.0, -60.0, f64::NAN] {
            assert_eq!(
                replay(&pl, &TrainingParams::new(interval, 0.0, 0.0)),
                invalid("checkpoint interval must be positive (use INFINITY to disable)"),
                "interval {interval}"
            );
        }
        let params = TrainingParams::new(f64::INFINITY, 0.0, 0.0);
        for (v1, vp, vd, message) in [
            (3, 1, 1, "v1|n1 violated (3 does not divide 4)"),
            (4, 2, 2, "placement packs 16 GPUs into a domain of 4"),
        ] {
            let bad = Placement { v1, v2: 1, vp, vd };
            assert_eq!(replay(&bad, &params), invalid(message));
        }
    }

    #[test]
    fn a_kill_without_checkpoints_loses_everything() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan {
            horizon_s: 1_000.0,
            events: vec![TimedFault {
                at_s: 900.0,
                event: FaultEvent::NodeKill,
            }],
        };
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 50.0),
        )
        .unwrap();
        assert_eq!(r.restarts, 1);
        assert!(r.lost_iterations > 0);
        // Everything before the kill was lost: useful progress is only
        // what ran after the restart.
        let after = (plan.horizon_s - (900.0 + 50.0)) / r.iteration_time;
        assert!((r.useful_iterations as f64 - after.ceil()).abs() <= 1.0);
    }

    #[test]
    fn checkpoints_bound_the_loss() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan {
            horizon_s: 2_000.0,
            events: vec![TimedFault {
                at_s: 1_900.0,
                event: FaultEvent::NodeKill,
            }],
        };
        // Checkpoint every ~100 s at 1 s cost.
        let ckpt = TrainingParams::new(100.0, 1.0, 50.0);
        let with = simulate_training(&model, &cfg, &pl, 1024, &s, &plan, &ckpt).unwrap();
        let without = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 50.0),
        )
        .unwrap();
        assert!(with.checkpoints > 10);
        // The checkpointed run keeps most of its progress.
        assert!(with.useful_iterations > 2 * without.useful_iterations);
        assert!(with.lost_iterations < without.lost_iterations);
        assert!(with.goodput_fraction > without.goodput_fraction);
    }

    #[test]
    fn straggler_windows_slow_iterations_inside_them() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan {
            horizon_s: 2_000.0,
            events: vec![TimedFault {
                at_s: 0.0,
                event: FaultEvent::Straggler {
                    duration_s: 1_000.0,
                },
            }],
        };
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 0.0),
        )
        .unwrap();
        assert!(r.straggled_iteration_time > r.iteration_time);
        assert!(r.straggled_iterations > 0);
        assert!(
            r.straggled_iterations < r.useful_iterations,
            "the window must close"
        );
        assert!(r.goodput_fraction < 1.0);
        // 1F1B serializes on the slowest stage: the straggled iteration
        // runs at roughly the spec slowdown.
        let ratio = r.straggled_iteration_time / r.iteration_time;
        let slow = s.reliability.straggler_slowdown;
        assert!(
            ratio > 1.0 + 0.5 * (slow - 1.0) && ratio < slow + 0.1,
            "{ratio}"
        );
    }

    #[test]
    fn degraded_windows_slow_cross_domain_dp_but_not_intra_domain() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let window = |horizon: f64| FaultPlan {
            horizon_s: horizon,
            events: vec![TimedFault {
                at_s: 0.0,
                event: FaultEvent::LinkDegrade {
                    duration_s: horizon,
                },
            }],
        };
        // cfg_175b's DP group spans domains (vd = 1 < nd): degradation
        // must bite.
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &window(2_000.0),
            &TrainingParams::new(f64::INFINITY, 0.0, 0.0),
        )
        .unwrap();
        assert!(
            r.degraded_iteration_time > r.iteration_time,
            "{} !> {}",
            r.degraded_iteration_time,
            r.iteration_time
        );
        assert!(r.degraded_iterations > 0);
        assert!(r.goodput_fraction < 1.0);
    }

    /// With one data-parallel replica there is no DP tail for a link flap
    /// to slow down, so a degraded iteration takes the failure-free time.
    #[test]
    fn link_flaps_cost_nothing_without_a_dp_tail() {
        let model = gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 1, 1);
        let pl = Placement {
            v1: 4,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let s = sys()
            .with_reliability(ReliabilitySpec::failure_free().with_link_flaps(0.4, 0.1, 120.0));
        let plan = FaultPlan::sample(&s.reliability, 64, 16, 15, 2.0 * 86_400.0, 11);
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 0.0),
        )
        .unwrap();
        assert!(r.degraded_iterations > 0);
        assert_eq!(r.degraded_iteration_time, r.iteration_time);
    }

    #[test]
    fn overlapping_windows_compose() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let plan = FaultPlan {
            horizon_s: 500.0,
            events: vec![
                TimedFault {
                    at_s: 0.0,
                    event: FaultEvent::Straggler { duration_s: 500.0 },
                },
                TimedFault {
                    at_s: 0.0,
                    event: FaultEvent::LinkDegrade { duration_s: 500.0 },
                },
            ],
        };
        let r = simulate_training(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &plan,
            &TrainingParams::new(f64::INFINITY, 0.0, 0.0),
        )
        .unwrap();
        // Per-iteration wall clock under both windows is the additive
        // composition of the two slowdowns.
        let t_both = r.wall_clock_s / r.useful_iterations as f64;
        let expect = r.straggled_iteration_time + (r.degraded_iteration_time - r.iteration_time);
        assert!(
            (t_both - expect).abs() / expect < 1e-9,
            "{t_both} vs {expect}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let spec = s.reliability;
        let plan = FaultPlan::sample(&spec, 512, 128, 127, 50_000.0, 3);
        let params = TrainingParams::new(300.0, 2.0, spec.restart_overhead_s);
        let a = simulate_training(&model, &cfg, &pl, 1024, &s, &plan, &params).unwrap();
        let b = simulate_training(&model, &cfg, &pl, 1024, &s, &plan, &params).unwrap();
        assert_eq!(a, b);
    }
}
