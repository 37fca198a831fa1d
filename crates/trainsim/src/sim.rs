//! Dependency-driven execution of the 1F1B schedule.

use crate::schedule::{stage_schedule, WorkItem};
use collectives::p2p_time;
use perfmodel::partition::build_profile;
use perfmodel::{stage_times, ParallelConfig, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// Simulation parameters: the "reality" knobs the analytic model ignores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Log-normal sigma of per-work-item duration jitter (kernel-time
    /// variance; 0 disables jitter).
    pub jitter_sigma: f64,
    /// Fixed host-side scheduling overhead added to every work item
    /// (CPU launch gaps between microbatches), seconds.
    pub overhead: f64,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
    /// Optional fault injection: slow one pipeline stage down by
    /// `straggler_factor` (a flaky GPU / thermally-throttled node). The
    /// 1F1B schedule serializes on the slowest stage, so a single
    /// straggler should inflate the whole iteration.
    pub straggler_stage: Option<u64>,
    /// Multiplier applied to the straggler stage's work items (≥ 1).
    pub straggler_factor: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            jitter_sigma: 0.05,
            overhead: 30e-6,
            seed: 42,
            straggler_stage: None,
            straggler_factor: 1.0,
        }
    }
}

impl SimParams {
    /// An idealized run: no jitter, no overhead — should closely match
    /// the analytic model.
    pub fn ideal() -> Self {
        Self {
            jitter_sigma: 0.0,
            overhead: 0.0,
            seed: 0,
            straggler_stage: None,
            straggler_factor: 1.0,
        }
    }
}

/// A configuration the schedule simulator cannot model (the analytic
/// model can): the caller should *skip* the cross-check, not crash.
///
/// The joint S3 search sweeps interleaving and ZeRO-3 alongside the rest
/// of the space; when its candidates are cross-validated against this
/// simulator, unsupported corners surface as this typed error (they were
/// hard `assert!`s before, which aborted whole sweeps).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnsupportedConfig {
    /// `interleave > 1`: trainsim executes the plain 1F1B order only.
    Interleaved {
        /// The configuration's virtual-stage count.
        interleave: u64,
    },
    /// ZeRO-3 weight sharding: per-microbatch weight gathers are not in
    /// the simulated schedule.
    Zero3,
    /// The input failed validation outright: the configuration
    /// [`perfmodel::ParallelConfig::validate`], the placement
    /// [`perfmodel::Placement::validate`] at the system's NVS size, or
    /// `simulate_training`'s checks of its
    /// [`TrainingParams`](crate::TrainingParams). Not a simulator
    /// limitation but a caller error, reported as data instead of a panic
    /// so sweeps survive bad corners.
    Invalid {
        /// The validator's rejection message.
        message: String,
    },
}

impl std::fmt::Display for UnsupportedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsupportedConfig::Interleaved { interleave } => write!(
                f,
                "trainsim models the non-interleaved 1F1B schedule only \
                 (configuration interleaves {interleave} virtual stages)"
            ),
            UnsupportedConfig::Zero3 => write!(
                f,
                "trainsim models the baseline ZeRO-1 optimizer sharding only \
                 (configuration enables ZeRO-3)"
            ),
            UnsupportedConfig::Invalid { message } => {
                write!(f, "invalid configuration: {message}")
            }
        }
    }
}

impl std::error::Error for UnsupportedConfig {}

/// Outcome of one simulated iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// End-to-end iteration time, seconds (including the DP sync tail).
    pub iteration_time: f64,
    /// Per-stage busy time (sum of executed item durations).
    pub stage_busy: Vec<f64>,
    /// Fraction of total stage-seconds spent idle (the *emergent* pipeline
    /// bubble, to compare with the analytic `(np−1)(tf+tb)` model).
    pub bubble_fraction: f64,
    /// Work items executed (2·m·np).
    pub items_executed: u64,
}

/// Simulates one training iteration of `cfg` on `sys`.
///
/// Returns [`UnsupportedConfig`] for schedule features the simulator
/// does not model (interleaved pipelines, ZeRO-3) so joint-search
/// cross-checks can skip those candidates, and
/// [`UnsupportedConfig::Invalid`] for a configuration, or a placement on
/// `sys`, that fails validation outright.
pub fn simulate_iteration(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    params: &SimParams,
) -> Result<IterationReport, UnsupportedConfig> {
    cfg.validate(model, global_batch)
        .and_then(|()| placement.validate(cfg, sys.nvs_size))
        .map_err(|message| UnsupportedConfig::Invalid { message })?;
    if cfg.interleave > 1 {
        return Err(UnsupportedConfig::Interleaved {
            interleave: cfg.interleave,
        });
    }
    if cfg.zero3 {
        return Err(UnsupportedConfig::Zero3);
    }
    let np = cfg.np as usize;
    let m = cfg.num_microbatches(global_batch) as usize;
    assert!(m >= 1, "at least one microbatch required");

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
    let (tf, tb) = stage_times(&profile, model, cfg, placement, sys);
    let p2p = p2p_time(profile.boundary_bytes, placement.vp >= 2, sys);

    let mut rng = StdRng::seed_from_u64(params.seed);
    // Mean-preserving log-normal factor.
    let mut jitter = |base: f64| -> f64 {
        if params.jitter_sigma == 0.0 {
            return base + params.overhead;
        }
        // Box-Muller from two uniforms (keeps the dependency surface to
        // `rand`'s core API).
        let (u1, u2): (f64, f64) = (rng.gen_range(f64::EPSILON..1.0), rng.gen());
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let s = params.jitter_sigma;
        base * (s * z - 0.5 * s * s).exp() + params.overhead
    };

    // Pre-sample durations in a fixed order so scheduling order cannot
    // perturb the random stream.
    let mut dur_f = vec![vec![0.0; m]; np];
    let mut dur_b = vec![vec![0.0; m]; np];
    for s in 0..np {
        let slow = match params.straggler_stage {
            Some(stage) if stage as usize == s => params.straggler_factor.max(1.0),
            _ => 1.0,
        };
        for j in 0..m {
            dur_f[s][j] = jitter(tf) * slow;
            dur_b[s][j] = jitter(tb) * slow;
        }
    }

    let schedules: Vec<Vec<WorkItem>> = (0..np)
        .map(|s| stage_schedule(s as u64, cfg.np, m as u64))
        .collect();
    let mut ptr = vec![0usize; np];
    let mut clock = vec![0.0f64; np];
    let mut busy = vec![0.0f64; np];
    let mut f_done = vec![vec![f64::NAN; m]; np];
    let mut b_done = vec![vec![f64::NAN; m]; np];
    let mut executed = 0u64;

    // Round-robin over stages, executing every item whose cross-stage
    // dependency has completed. Stages are independent serial processors,
    // so this fixed scan order cannot change the computed times.
    loop {
        let mut progressed = false;
        for s in 0..np {
            while ptr[s] < schedules[s].len() {
                let item = schedules[s][ptr[s]];
                let dep_ready = match item {
                    WorkItem::Forward(j) => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            let t = f_done[s - 1][j as usize];
                            t.is_finite().then_some(t + p2p)
                        }
                    }
                    WorkItem::Backward(j) => {
                        if s == np - 1 {
                            Some(0.0)
                        } else {
                            let t = b_done[s + 1][j as usize];
                            t.is_finite().then_some(t + p2p)
                        }
                    }
                };
                let Some(dep) = dep_ready else { break };
                let start = clock[s].max(dep);
                let (dur, j, is_fwd) = match item {
                    WorkItem::Forward(j) => (dur_f[s][j as usize], j as usize, true),
                    WorkItem::Backward(j) => (dur_b[s][j as usize], j as usize, false),
                };
                let end = start + dur;
                clock[s] = end;
                busy[s] += dur;
                if is_fwd {
                    f_done[s][j] = end;
                } else {
                    b_done[s][j] = end;
                }
                ptr[s] += 1;
                executed += 1;
                progressed = true;
            }
        }
        if ptr.iter().zip(&schedules).all(|(p, sch)| *p == sch.len()) {
            break;
        }
        assert!(progressed, "schedule deadlock — dependency bug");
    }

    let span = clock.iter().cloned().fold(0.0, f64::max);

    // Data-parallel sync tail, overlapped with the last backward / first
    // forward exactly as in the analytic model — the shared helper also
    // applies the configuration's AllReduce algorithm policy, so the
    // simulator and the model it validates always price the tail
    // identically.
    let dp_tail =
        perfmodel::dp_sync_time(&profile, model, cfg, placement, global_batch, sys, tf, tb);

    let iteration_time = span + dp_tail;
    let total_stage_seconds = span * np as f64;
    let busy_sum: f64 = busy.iter().sum();

    Ok(IterationReport {
        iteration_time,
        stage_busy: busy,
        bubble_fraction: if total_stage_seconds > 0.0 {
            1.0 - busy_sum / total_stage_seconds
        } else {
            0.0
        },
        items_executed: executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_175b;

    fn sys() -> SystemSpec {
        system(GpuGeneration::A100, NvsSize::Nvs4)
    }

    fn cfg_175b() -> (TransformerConfig, ParallelConfig, Placement) {
        // The paper's validated optimum on 512 GPUs: (nt, np, nd, bm) =
        // (4, 16, 8, 1), global batch 1024.
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
    fn executes_every_item() {
        let (model, cfg, pl) = cfg_175b();
        let r = simulate_iteration(&model, &cfg, &pl, 1024, &sys(), &SimParams::ideal()).unwrap();
        // m = 128, np = 16 → 2·128·16 items.
        assert_eq!(r.items_executed, 2 * 128 * 16);
        assert!(r.iteration_time > 0.0);
    }

    #[test]
    fn ideal_single_stage_matches_analytic_closely() {
        // np = 1, no jitter/overhead: the schedule is trivially serial and
        // the simulator must agree with the closed form almost exactly.
        let model = gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 64, 1);
        let pl = Placement {
            v1: 4,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let s = sys();
        let sim = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        let ana = perfmodel::evaluate(&model, &cfg, &pl, 1024, &s);
        let err = (sim.iteration_time - ana.iteration_time).abs() / ana.iteration_time;
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn ideal_pipeline_is_close_to_analytic() {
        // With np > 1 the analytic bubble formula is exact for uniform
        // stages, but P2P accounting differs (serial vs on-edges): expect
        // agreement within a few percent.
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let sim = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        let ana = perfmodel::evaluate(&model, &cfg, &pl, 1024, &s);
        let err = (sim.iteration_time - ana.iteration_time).abs() / ana.iteration_time;
        assert!(err < 0.08, "err {err}");
    }

    #[test]
    fn bubble_emerges_with_pipelining() {
        let (model, cfg, pl) = cfg_175b();
        let r = simulate_iteration(&model, &cfg, &pl, 1024, &sys(), &SimParams::ideal()).unwrap();
        // (np−1)/(m+np−1) ≈ 15/143 ≈ 10%.
        assert!(
            r.bubble_fraction > 0.05 && r.bubble_fraction < 0.2,
            "{}",
            r.bubble_fraction
        );
    }

    #[test]
    fn jitter_and_overhead_slow_things_down() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let ideal = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        let real = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::default()).unwrap();
        assert!(real.iteration_time > ideal.iteration_time);
        // ...but not catastrophically (< 30% for these settings).
        assert!(real.iteration_time < 1.3 * ideal.iteration_time);
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let a = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::default()).unwrap();
        let b = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::default()).unwrap();
        assert_eq!(a, b);
        let c = simulate_iteration(
            &model,
            &cfg,
            &pl,
            1024,
            &s,
            &SimParams {
                seed: 7,
                ..SimParams::default()
            },
        )
        .unwrap();
        assert_ne!(a.iteration_time, c.iteration_time);
    }

    #[test]
    fn unsupported_configs_return_typed_errors_not_panics() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let interleaved = ParallelConfig {
            interleave: 2,
            ..cfg
        };
        assert_eq!(
            simulate_iteration(&model, &interleaved, &pl, 1024, &s, &SimParams::ideal()),
            Err(UnsupportedConfig::Interleaved { interleave: 2 })
        );
        let zero3 = ParallelConfig { zero3: true, ..cfg };
        assert_eq!(
            simulate_iteration(&model, &zero3, &pl, 1024, &s, &SimParams::ideal()),
            Err(UnsupportedConfig::Zero3)
        );
        // The error is a real std error with a skippable message.
        let e = UnsupportedConfig::Interleaved { interleave: 4 };
        assert!(e.to_string().contains("1F1B"));
    }

    /// Placements `Placement::validate` rejects on GPT3-175B (4, 1, 16,
    /// 8) over A100-NVS4: a `v1` that does not divide `n1` (once a panic
    /// inside the collectives) and 16 GPUs packed into a 4-GPU domain
    /// (once priced as an 18 s iteration) are invalid inputs.
    #[test]
    fn invalid_placements_are_typed_errors() {
        let (model, cfg, _) = cfg_175b();
        let probes = [
            ((3, 1, 1), "v1|n1 violated (3 does not divide 4)"),
            ((4, 2, 2), "placement packs 16 GPUs into a domain of 4"),
        ];
        for ((v1, vp, vd), message) in probes {
            let pl = Placement { v1, v2: 1, vp, vd };
            assert_eq!(
                simulate_iteration(&model, &cfg, &pl, 1024, &sys(), &SimParams::ideal()),
                Err(UnsupportedConfig::Invalid {
                    message: message.into()
                })
            );
        }
    }

    /// A configuration whose `n1·n2` overflows `u64` fails validation as
    /// data, not with an arithmetic panic inside the validator.
    #[test]
    fn an_overflowing_tp_product_is_invalid() {
        let cfg = ParallelConfig::new(TpStrategy::TwoD, 8, 1 << 61, 1, 1, 1);
        assert_eq!(
            simulate_iteration(
                &txmodel::gpt3_1t().config,
                &cfg,
                &Placement::trivial(),
                4096,
                &sys(),
                &SimParams::ideal()
            ),
            Err(UnsupportedConfig::Invalid {
                message: "n1*n2 overflows u64".into()
            })
        );
    }

    #[test]
    fn straggler_stage_slows_the_whole_pipeline() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let base = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        let params = SimParams {
            straggler_stage: Some(7),
            straggler_factor: 1.5,
            ..SimParams::ideal()
        };
        let slow = simulate_iteration(&model, &cfg, &pl, 1024, &s, &params).unwrap();
        // The steady-state rate is set by the slowest stage: a 1.5×
        // straggler inflates the iteration by roughly 1.5× (minus bubble
        // edges), and every *other* stage now idles more.
        let ratio = slow.iteration_time / base.iteration_time;
        assert!(ratio > 1.3 && ratio < 1.6, "ratio {ratio}");
        assert!(slow.bubble_fraction > base.bubble_fraction);
    }

    #[test]
    fn straggler_factor_below_one_is_clamped() {
        let (model, cfg, pl) = cfg_175b();
        let s = sys();
        let base = simulate_iteration(&model, &cfg, &pl, 1024, &s, &SimParams::ideal()).unwrap();
        let params = SimParams {
            straggler_stage: Some(0),
            straggler_factor: 0.5,
            ..SimParams::ideal()
        };
        let same = simulate_iteration(&model, &cfg, &pl, 1024, &s, &params).unwrap();
        assert!((same.iteration_time - base.iteration_time).abs() < 1e-12);
    }

    #[test]
    fn stage_busy_is_balanced_for_uniform_layers() {
        let (model, cfg, pl) = cfg_175b();
        let r = simulate_iteration(&model, &cfg, &pl, 1024, &sys(), &SimParams::ideal()).unwrap();
        let max = r.stage_busy.iter().cloned().fold(0.0, f64::max);
        let min = r.stage_busy.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max < 1e-9);
    }
}
