//! The one pricing of a serving candidate's phases
//! (`perfmodel::serving::ServingPhases`) against the per-split pricing it
//! replaced, kept here as the test-only reference in the way servesim
//! keeps its per-token loop: every split, both assessments and
//! servesim's handoff must read the same numbers, bit for bit, as when
//! each split priced its own phases.
//!
//! The cases are seeded and random: the three serving presets on three
//! systems, TP/PP/DP splits at several GPU counts (one and two replicas
//! included, and splits whose weights overflow HBM, which price a zero
//! batch ceiling), request rates from light to saturating, and `max_batch`
//! from 1 to above the KV ceiling.

#![allow(clippy::expect_used, reason = "test helpers fail by panicking")]

use perfmodel::search::best_placement_eval;
use perfmodel::serving::{assess, assess_mode, assess_slo, placement_modes, PdPlacement, SloSpec};
use perfmodel::{Evaluation, ParallelConfig, ServingCtx, TpStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use servesim::SimSpec;
use systems::{system, GpuGeneration, NvsSize};
use txmodel::{gpt3_175b_chat, moe_1t_chat, vit_multimodal_serving};

/// The per-split pricing: each split rebuilds the capacity profile and
/// prices both prefills, both handoffs and every decode step it visits;
/// the handoff prices the full decode table on its own.
mod reference {
    use perfmodel::memory::max_kv_batch;
    use perfmodel::partition::build_profile;
    use perfmodel::serving::{
        decode_step_time, kv_transfer_time, placement_modes, prefill_time, PdPlacement,
        ServingReport, SloSpec, STABILITY_MARGIN,
    };
    use perfmodel::{Evaluation, ParallelConfig, ServingCtx};
    use servesim::{SimError, SimSpec};
    use txmodel::LONG_PCT;

    const P99_WAIT_FACTOR: f64 = 4.605_170_185_988_091;

    fn padded_prompt(cfg: &ParallelConfig, prompt: u64) -> u64 {
        let pad = cfg.tensor_parallel().max(1);
        prompt.div_ceil(pad).max(1) * pad
    }

    fn dead_report(mode: PdPlacement) -> ServingReport {
        ServingReport {
            mode,
            batch_ceiling: 0,
            occupancy: 0.0,
            prefill_p50: f64::INFINITY,
            prefill_p99: f64::INFINITY,
            decode_step: f64::INFINITY,
            kv_transfer: 0.0,
            ttft_p50: f64::INFINITY,
            ttft_p99: f64::INFINITY,
            tpot_p50: f64::INFINITY,
            tpot_p99: f64::INFINITY,
            tokens_per_gpu_second: 0.0,
            delivered_tokens_per_gpu_second: 0.0,
            utilization: f64::INFINITY,
            saturated: true,
        }
    }

    pub fn decode_step_table(e: &Evaluation, s: &ServingCtx) -> (u64, Vec<f64>) {
        let cfg = &e.config;
        let mut cap_model = s.model;
        cap_model.seq_len = padded_prompt(cfg, s.traffic.prompt.p99());
        let profile = build_profile(
            &cap_model,
            cfg.strategy,
            cfg.n1,
            cfg.n2,
            1,
            cfg.summa_panels,
            cfg.ep,
            &s.system.gpu,
        );
        let context = s.traffic.mean_context().ceil() as u64;
        let kv_ceiling = max_kv_batch(&profile, &s.model, cfg, context, s.system.gpu.hbm_capacity);
        let ceiling = s.traffic.max_batch.min(kv_ceiling);
        let table = (1..=ceiling)
            .map(|b| decode_step_time(&profile, &s.model, cfg, &e.placement, &s.system, b, context))
            .collect();
        (ceiling, table)
    }

    pub fn assess_mode(e: &Evaluation, s: &ServingCtx, mode: PdPlacement) -> ServingReport {
        let cfg = &e.config;
        let placement = &e.placement;
        let sys = &s.system;
        let model = &s.model;
        let traffic = &s.traffic;
        let n = cfg.total_gpus() as f64;

        let mut cap_model = *model;
        cap_model.seq_len = padded_prompt(cfg, traffic.prompt.p99());
        let profile = build_profile(
            &cap_model,
            cfg.strategy,
            cfg.n1,
            cfg.n2,
            1,
            cfg.summa_panels,
            cfg.ep,
            &sys.gpu,
        );
        let context = traffic.mean_context().ceil() as u64;
        let kv_ceiling = max_kv_batch(&profile, model, cfg, context, sys.gpu.hbm_capacity);
        let ceiling = traffic.max_batch.min(kv_ceiling);
        if ceiling == 0 {
            return dead_report(mode);
        }

        let lf = LONG_PCT as f64 / 100.0;
        let prefill_p50 = prefill_time(model, cfg, placement, sys, traffic.prompt.p50());
        let prefill_p99 = prefill_time(model, cfg, placement, sys, traffic.prompt.p99());
        let prefill_mean = (1.0 - lf) * prefill_p50 + lf * prefill_p99;
        let prefill_sq_mean =
            (1.0 - lf) * prefill_p50 * prefill_p50 + lf * prefill_p99 * prefill_p99;
        let step = |b: f64| {
            decode_step_time(
                &profile,
                model,
                cfg,
                placement,
                sys,
                b.ceil().max(1.0) as u64,
                context,
            )
        };
        let l_out = traffic.output.mean();
        let lambda = traffic.request_rate();
        let step_cap = step(ceiling as f64);

        let (decode_replicas, prefill_replicas) = match mode {
            PdPlacement::Colocated => (cfg.nd, cfg.nd),
            PdPlacement::Disaggregated { prefill_replicas } => {
                if prefill_replicas == 0 || prefill_replicas >= cfg.nd {
                    return dead_report(mode);
                }
                (cfg.nd - prefill_replicas, prefill_replicas)
            }
        };
        let colocated = matches!(mode, PdPlacement::Colocated);
        let capacity_req = if colocated {
            let per = ceiling as f64 / (l_out * step_cap + ceiling as f64 * prefill_mean);
            cfg.nd as f64 * per
        } else {
            let prefill_side = prefill_replicas as f64 / prefill_mean;
            let decode_side = decode_replicas as f64 * ceiling as f64 / (l_out * step_cap);
            prefill_side.min(decode_side)
        };
        let utilization = if capacity_req > 0.0 {
            lambda / capacity_req
        } else {
            f64::INFINITY
        };
        let saturated = utilization >= STABILITY_MARGIN;

        let lam_decode = lambda / decode_replicas as f64;
        let lam_prefill = lambda / prefill_replicas as f64;
        let rho_p = if colocated {
            (lam_decode * prefill_mean).min(1.0)
        } else {
            (lam_prefill * prefill_mean).min(1.0)
        };
        let inflate = if colocated && rho_p < 1.0 {
            1.0 / (1.0 - rho_p)
        } else {
            1.0
        };
        let mut occupancy = 1.0f64;
        for _ in 0..48 {
            occupancy = (lam_decode * l_out * step(occupancy) * inflate).clamp(1.0, ceiling as f64);
        }
        let decode_step = step(occupancy);

        let (tpot_p50, tpot_p99) = if colocated {
            let p_stall = 1.0 - (-lam_decode * decode_step).exp();
            let p50 = if p_stall >= 0.5 {
                decode_step * inflate
            } else {
                decode_step
            };
            let p99 = if p_stall >= 0.01 {
                decode_step + prefill_p50
            } else {
                decode_step
            };
            (p50, p99)
        } else {
            (decode_step, decode_step)
        };

        let rho_wait = rho_p.min(0.999_999);
        let wq = lam_prefill * prefill_sq_mean / (2.0 * (1.0 - rho_wait));
        let (kv_p50, kv_p99) = if colocated {
            (0.0, 0.0)
        } else {
            (
                kv_transfer_time(model, cfg, sys, traffic.prompt.p50()),
                kv_transfer_time(model, cfg, sys, traffic.prompt.p99()),
            )
        };
        let step_wait_p50 = if colocated { 0.5 * decode_step } else { 0.0 };
        let step_wait_p99 = if colocated { decode_step } else { 0.0 };
        let ttft_p50 = step_wait_p50 + wq + prefill_p50 + kv_p50;
        let ttft_p99 = step_wait_p99 + P99_WAIT_FACTOR * wq + prefill_p99 + kv_p99;

        let tokens_per_gpu_second = capacity_req * l_out / n;
        let delivered = if saturated {
            tokens_per_gpu_second
        } else {
            lambda * l_out / n
        };

        ServingReport {
            mode,
            batch_ceiling: ceiling,
            occupancy,
            prefill_p50,
            prefill_p99,
            decode_step,
            kv_transfer: kv_p50,
            ttft_p50,
            ttft_p99,
            tpot_p50,
            tpot_p99,
            tokens_per_gpu_second,
            delivered_tokens_per_gpu_second: delivered,
            utilization,
            saturated,
        }
    }

    pub fn assess(e: &Evaluation, s: &ServingCtx) -> ServingReport {
        let mut best: Option<ServingReport> = None;
        for mode in placement_modes(e.config.nd) {
            let r = assess_mode(e, s, mode);
            let better = match &best {
                Some(b) => r.tokens_per_gpu_second > b.tokens_per_gpu_second,
                None => true,
            };
            if better {
                best = Some(r);
            }
        }
        best.unwrap_or_else(|| dead_report(PdPlacement::Colocated))
    }

    pub fn assess_slo(e: &Evaluation, s: &ServingCtx, slo: &SloSpec) -> ServingReport {
        let mut best: Option<ServingReport> = None;
        for mode in placement_modes(e.config.nd) {
            let r = assess_mode(e, s, mode);
            let better = match &best {
                Some(b) => r.slo_score(slo) > b.slo_score(slo),
                None => true,
            };
            if better {
                best = Some(r);
            }
        }
        best.unwrap_or_else(|| dead_report(PdPlacement::Colocated))
    }

    pub fn from_plan(
        e: &Evaluation,
        s: &ServingCtx,
        mode: PdPlacement,
    ) -> Result<SimSpec, SimError> {
        if let PdPlacement::Disaggregated { prefill_replicas } = mode {
            if prefill_replicas == 0 || prefill_replicas >= e.config.nd {
                return Err(SimError::BadSplit);
            }
        }
        let (ceiling, table) = decode_step_table(e, s);
        if ceiling == 0 {
            return Err(SimError::Infeasible);
        }
        let cfg = &e.config;
        let colocated = matches!(mode, PdPlacement::Colocated);
        let (kv_typ, kv_long) = if colocated {
            (0.0, 0.0)
        } else {
            (
                kv_transfer_time(&s.model, cfg, &s.system, s.traffic.prompt.p50()),
                kv_transfer_time(&s.model, cfg, &s.system, s.traffic.prompt.p99()),
            )
        };
        Ok(SimSpec {
            traffic: s.traffic,
            replicas: cfg.nd,
            gpus: cfg.total_gpus(),
            mode,
            batch_ceiling: ceiling,
            decode_steps: table,
            prefill_typical: prefill_time(
                &s.model,
                cfg,
                &e.placement,
                &s.system,
                s.traffic.prompt.p50(),
            ),
            prefill_long: prefill_time(
                &s.model,
                cfg,
                &e.placement,
                &s.system,
                s.traffic.prompt.p99(),
            ),
            kv_transfer_typical: kv_typ,
            kv_transfer_long: kv_long,
        })
    }
}

/// One seeded random case: an evaluated candidate and its serving
/// context. Redraws until the split is valid for the model.
fn random_case(rng: &mut StdRng) -> (Evaluation, ServingCtx) {
    let presets = [gpt3_175b_chat(), moe_1t_chat(), vit_multimodal_serving()];
    let preset = &presets[rng.gen_range(0..presets.len())];
    let sys = [
        system(GpuGeneration::B200, NvsSize::Nvs8),
        system(GpuGeneration::H200, NvsSize::Nvs4),
        system(GpuGeneration::A100, NvsSize::Nvs8),
    ][rng.gen_range(0..3usize)]
    .clone();
    let cfg = loop {
        let pick = |rng: &mut StdRng, xs: &[u64]| xs[rng.gen_range(0..xs.len())];
        let n1 = pick(rng, &[1, 2, 4, 8, 16]);
        let np = pick(rng, &[1, 1, 2, 4, 8]);
        let nd = pick(rng, &[1, 2, 2, 3, 4, 8, 16]);
        let two_d = preset.model.moe.is_none() && rng.gen_range(0..4u32) == 0;
        let cfg = if two_d {
            ParallelConfig::new(TpStrategy::TwoD, n1, 2, np, nd, 1)
        } else {
            ParallelConfig::new(TpStrategy::OneD, n1, 1, np, nd, 1)
        };
        let cfg = match preset.model.moe {
            Some(_) => cfg.with_ep(pick(rng, &[1, 2, 4, 8, 16])),
            None => cfg,
        };
        if cfg.validate(&preset.model, 1024).is_ok() {
            break cfg;
        }
    };
    let e = best_placement_eval(&preset.model, &cfg, 1024, &sys);
    let rate = [0.01, 0.5, 4.0, 40.0, 2000.0][rng.gen_range(0..5usize)];
    let max_batch = [1, 2, 5, 32, 128, 1000][rng.gen_range(0..6usize)];
    let traffic = preset
        .traffic
        .with_request_rate(rate)
        .with_max_batch(max_batch);
    let s = ServingCtx {
        model: preset.model,
        traffic,
        system: sys,
    };
    (e, s)
}

#[test]
fn one_pricing_matches_the_per_split_reference_on_random_cases() {
    let tight = SloSpec {
        ttft_p50: 0.1,
        ttft_p99: 0.4,
        tpot_p50: 0.02,
        tpot_p99: 0.04,
    };
    let loose = SloSpec::interactive();
    let mut rng = StdRng::seed_from_u64(0x0E9A_1CED);
    let (mut dead, mut saturated, mut kv_bound, mut single, mut pair) = (0, 0, 0, 0, 0);
    for case in 0..240 {
        let (e, s) = random_case(&mut rng);
        let what = format!("case {case}: {:?} under {:?}", e.config, s.traffic);
        let nd = e.config.nd;
        let mut modes = placement_modes(nd);
        modes.push(PdPlacement::Disaggregated {
            prefill_replicas: nd,
        });
        for &mode in &modes {
            assert_eq!(
                format!("{:?}", assess_mode(&e, &s, mode)),
                format!("{:?}", reference::assess_mode(&e, &s, mode)),
                "{what}: assess_mode {mode:?}"
            );
            assert_eq!(
                format!("{:?}", SimSpec::from_plan(&e, &s, mode)),
                format!("{:?}", reference::from_plan(&e, &s, mode)),
                "{what}: from_plan {mode:?}"
            );
        }
        let best = assess(&e, &s);
        assert_eq!(
            format!("{best:?}"),
            format!("{:?}", reference::assess(&e, &s)),
            "{what}: assess"
        );
        for slo in [&tight, &loose] {
            assert_eq!(
                format!("{:?}", assess_slo(&e, &s, slo)),
                format!("{:?}", reference::assess_slo(&e, &s, slo)),
                "{what}: assess_slo {slo:?}"
            );
        }
        dead += usize::from(best.batch_ceiling == 0);
        saturated += usize::from(best.batch_ceiling > 0 && best.saturated);
        kv_bound += usize::from(best.batch_ceiling > 0 && best.batch_ceiling < s.traffic.max_batch);
        single += usize::from(nd == 1);
        pair += usize::from(nd == 2);
    }
    // The sampler reaches every corner the pricing branches on.
    assert!(
        dead >= 10 && saturated >= 10 && kv_bound >= 10 && single >= 10 && pair >= 10,
        "{dead} dead, {saturated} saturated, {kv_bound} KV-bound, {single} with nd = 1, {pair} with nd = 2"
    );
}
