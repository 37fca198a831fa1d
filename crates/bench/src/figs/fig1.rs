//! Fig. 1: GPT3-1T with 1D TP on 16384 B200 (NVS8), PP fixed at np = 64,
//! microbatch 1, sweeping the TP/DP split. Shows the convexity of
//! iteration time in nt and the memory/TP-communication trade-off.

use crate::common::{config_label, eval_row, pinned_eval, EVAL_COLUMNS};
use perfmodel::{ParallelConfig, TpStrategy};
use report::Artifact;
use systems::{system, GpuGeneration, NvsSize};
use txmodel::gpt3_1t;

/// Sweeps nt ∈ {1, 2, 4, 8, 16, 32} with nd = 256/nt (configs A–F).
pub fn generate() -> Artifact {
    let model = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let mut art = Artifact::new(
        "fig1",
        "Fig 1: vary TP/DP at np=64, bm=1, GPT3-1T 1D TP, 16384×B200 NVS8",
        EVAL_COLUMNS,
    );
    for (i, nt) in [1u64, 2, 4, 8, 16, 32].into_iter().enumerate() {
        let nd = 16384 / 64 / nt;
        let cfg = ParallelConfig::new(TpStrategy::OneD, nt, 1, 64, nd, 1);
        #[expect(
            clippy::expect_used,
            reason = "pinned paper configuration; validated by the every_id_generates test"
        )]
        cfg.validate(&model, 4096).expect("fig1 config invalid");
        let e = pinned_eval(&model, &sys, &cfg, 4096);
        art.push(eval_row(&config_label(i), &e));
    }
    art
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convex_with_minimum_at_moderate_tp() {
        // Paper Q1(i): "apparent convex behavior ... local minimum around
        // nt = 8".
        let art = generate();
        let times: Vec<f64> = art.rows.iter().map(|r| r[9].as_f64().unwrap()).collect();
        let min_idx = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        // Minimum at C (nt=4) or D (nt=8) — the paper's shallow basin.
        assert!(min_idx == 2 || min_idx == 3, "min at {min_idx}: {times:?}");
        // Endpoints are worse than the basin.
        assert!(times[0] > times[min_idx]);
        assert!(times[5] > times[min_idx]);
    }

    #[test]
    fn memory_falls_monotonically_with_tp() {
        let art = generate();
        let mem: Vec<f64> = art.rows.iter().map(|r| r[7].as_f64().unwrap()).collect();
        for w in mem.windows(2) {
            assert!(w[1] < w[0], "{mem:?}");
        }
    }

    #[test]
    fn tp_comm_share_grows_with_nt() {
        let art = generate();
        let tp: Vec<f64> = art.rows.iter().map(|r| r[10].as_f64().unwrap()).collect();
        assert!(tp[5] > tp[1], "{tp:?}");
    }

    #[test]
    fn config_d_matches_paper() {
        let art = generate();
        let d = &art.rows[3];
        assert_eq!(d[1].as_u64().unwrap(), 8); // nt
        assert_eq!(d[4].as_u64().unwrap(), 32); // nd
        assert_eq!(d[6].as_u64().unwrap(), 128); // m
        assert!(d[8].as_bool().unwrap()); // feasible
    }
}
