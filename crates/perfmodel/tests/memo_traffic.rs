//! The pricing memo's traffic per evaluation, counted exactly.
//!
//! The memo holds pass-level sums only: one probe per non-empty pass of a
//! layer, and a miss prices every pattern of the pass directly. The
//! counters behind `search_stats` are process-wide, so this binary holds
//! one test and runs nothing else that probes the memo.

use collectives::Collective;
use perfmodel::partition::build_profile;
use perfmodel::plan::{CommPattern, LayerProfile};
use perfmodel::{evaluate, search_stats, ParallelConfig, Placement, SearchStats, TpStrategy};
use systems::{system, GpuGeneration, NvsSize, SystemSpec};
use txmodel::TransformerConfig;

/// Memo probes and misses between two snapshots.
fn traffic(before: SearchStats, after: SearchStats) -> (u64, u64) {
    let hits = (after.memo_local_hits - before.memo_local_hits)
        + (after.memo_shared_hits - before.memo_shared_hits);
    let misses = after.memo_misses - before.memo_misses;
    (hits + misses, misses)
}

fn profile_of(model: &TransformerConfig, cfg: &ParallelConfig, sys: &SystemSpec) -> LayerProfile {
    build_profile(
        model,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        cfg.microbatch,
        cfg.summa_panels,
        cfg.ep,
        &sys.gpu,
    )
}

/// Whether any pass of `profile` has a pattern `pick` accepts.
fn has(profile: &LayerProfile, pick: impl Fn(&CommPattern) -> bool) -> bool {
    profile.fwd.comms.iter().chain(&profile.bwd.comms).any(pick)
}

#[test]
fn an_evaluation_misses_at_most_once_per_pass_and_a_repeat_only_hits() {
    let mut sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    // A network no earlier evaluation in the process priced.
    sys.network.nvs_latency *= 1.000_001;

    let gpt = txmodel::gpt3_1t().config;
    let summa = ParallelConfig {
        summa_panels: 4,
        ..ParallelConfig::new(TpStrategy::Summa, 4, 2, 8, 16, 1)
    };
    let summa_placement = Placement {
        v1: 4,
        v2: 2,
        vp: 1,
        vd: 1,
    };
    let moe = txmodel::moe_1t().config;
    let moe_cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1).with_ep(16);
    let moe_placement = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 2,
    };

    let summa_profile = profile_of(&gpt, &summa, &sys);
    assert!(has(&summa_profile, |p| matches!(
        p,
        CommPattern::Exposed {
            coll: Collective::AllReduce,
            ..
        }
    )));
    assert!(has(&summa_profile, |p| matches!(
        p,
        CommPattern::SummaOverlapped { .. }
    )));
    let moe_profile = profile_of(&moe, &moe_cfg, &sys);
    assert!(has(&moe_profile, |p| matches!(
        p,
        CommPattern::Exposed {
            coll: Collective::AllToAll,
            ..
        }
    )));

    for (model, cfg, placement, profile) in [
        (&gpt, &summa, &summa_placement, &summa_profile),
        (&moe, &moe_cfg, &moe_placement, &moe_profile),
    ] {
        let passes = [&profile.fwd.comms, &profile.bwd.comms]
            .iter()
            .filter(|comms| !comms.is_empty())
            .count() as u64;
        assert!(passes > 0, "{cfg}");

        let before = search_stats();
        let first = evaluate(model, cfg, placement, 4096, &sys);
        let (probes, misses) = traffic(before, search_stats());
        assert_eq!(probes, passes, "{cfg}: one probe per non-empty pass");
        assert!(
            misses <= passes,
            "{cfg}: {misses} misses for {passes} passes"
        );

        let before = search_stats();
        let again = evaluate(model, cfg, placement, 4096, &sys);
        assert_eq!(traffic(before, search_stats()), (passes, 0), "{cfg}");
        assert_eq!(format!("{again:?}"), format!("{first:?}"));
    }
}
