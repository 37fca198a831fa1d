//! Stage S2 assembly: converts a layer profile + configuration + placement
//! into an iteration time with a full bucket breakdown and memory check.
//!
//! Iteration structure under the non-interleaved 1F1B schedule:
//!
//! ```text
//! t_iter = m·(tf + tb)            steady-state microbatches
//!        + (np − 1)·(tf + tb)     pipeline bubble (paper S2)
//!        + t_pp                   P2P stage-boundary transfers (exposed)
//!        + t_dp                   exposed remainder of DP grad/weight sync
//! ```
//!
//! where `tf`/`tb` are the per-microbatch stage times (layers/stage ×
//! per-layer compute + memory + exposed TP communication). The DP
//! ReduceScatter is overlapped with the last microbatch's backward and the
//! weight AllGather with the first microbatch's forward (paper S1 "Data
//! Parallel and Optimizer"); only the remainder is charged.

use crate::breakdown::Breakdown;
use crate::config::{ParallelConfig, Placement};
use crate::memory::{memory_usage, MemoryUsage};
use crate::partition::build_profile;
use crate::partition::cache::{fnv, memo_f64, system_fingerprint};
use crate::placement::divisors;
use crate::plan::{CommPattern, LayerProfile, TpGroup};
use collectives::{
    allreduce_hierarchical_time, allreduce_time, allreduce_tree_time, alltoall_time,
    collective_time, p2p_time, Algorithm, Collective, CommGroup,
};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// Full evaluation of one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The parallelization configuration evaluated.
    pub config: ParallelConfig,
    /// The NVS-domain assignment used.
    pub placement: Placement,
    /// Number of microbatches `m`.
    pub microbatches: u64,
    /// Seconds per training iteration (forward + backward + sync).
    pub iteration_time: f64,
    /// Bucketed time breakdown (sums to `iteration_time`).
    pub breakdown: Breakdown,
    /// Per-GPU HBM usage.
    pub memory: MemoryUsage,
    /// True if the memory fits the device HBM capacity.
    pub feasible: bool,
}

impl Evaluation {
    /// The evaluation of `cfg` under `placement`, assembled from its
    /// priced [`placement_breakdown`] and its (placement-independent)
    /// memory ledger.
    pub(crate) fn assemble(
        cfg: &ParallelConfig,
        placement: &Placement,
        global_batch: u64,
        breakdown: Breakdown,
        memory: MemoryUsage,
        sys: &SystemSpec,
    ) -> Self {
        Self {
            config: *cfg,
            placement: *placement,
            microbatches: cfg.num_microbatches(global_batch),
            iteration_time: breakdown.total(),
            breakdown,
            memory,
            feasible: memory.fits(sys.gpu.hbm_capacity),
        }
    }
}

/// Resolves a parallel-group reference to its communication placement.
///
/// The expert-parallel group lives inside the data-parallel dimension, so
/// its per-domain share is bounded by the DP co-residency `vd` (the
/// largest divisor of `ep` that fits — EP ranks are laid out contiguously
/// within the DP group, the placement-favorable convention the search
/// optimizes over).
fn comm_group(group: TpGroup, cfg: &ParallelConfig, placement: &Placement) -> CommGroup {
    match group {
        TpGroup::N1 => CommGroup::new(cfg.n1, placement.v1),
        TpGroup::N2 => CommGroup::new(cfg.n2, placement.v2),
        TpGroup::Ep => CommGroup::new(
            cfg.ep,
            largest_divisor_at_most(cfg.ep, placement.vd.min(cfg.ep)),
        ),
    }
}

/// Time of one [`CommPattern::Exposed`] collective over an
/// already-resolved group: AllReduce and AllToAll under the
/// configuration's [`Algorithm`] policy (`Auto` = NCCL-style
/// fastest-of-three, and ring vs pairwise for the MoE dispatch/combine
/// AllToAll); every other collective runs rings, as in NCCL.
fn collective_dispatch(
    coll: Collective,
    volume: f64,
    algo: Algorithm,
    grp: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    match coll {
        Collective::AllReduce => allreduce_time(algo, volume, grp, sys),
        Collective::AllToAll => alltoall_time(algo, volume, grp, sys),
        _ => collective_time(coll, volume, grp, sys),
    }
}

/// One SUMMA panel broadcast over `grp`: the per-step communication of
/// one operand of a [`CommPattern::SummaOverlapped`] schedule. `vol`
/// carries the `(g−1)/g` received factor; the broadcast of one panel
/// moves the full panel tensor, so the factor is undone. Zero for a
/// single-GPU group or a non-positive volume.
fn panel_broadcast(vol: f64, panels: u64, grp: CommGroup, sys: &SystemSpec) -> f64 {
    if grp.size() <= 1 || vol <= 0.0 {
        return 0.0;
    }
    let n = grp.size() as f64;
    let tensor = vol * n / (n - 1.0) / panels.max(1) as f64;
    collective_time(Collective::Broadcast, tensor, grp, sys)
}

/// The SUMMA panel schedule's exposed time for a per-step communication
/// cost `step_comm`: the prologue (first panel fully exposed) plus the
/// remainder of each later panel's broadcasts after overlapping with the
/// panel's compute. Non-decreasing in `step_comm`, which is what lets
/// [`pattern_lower_bound`] minimise the step cost before applying it.
fn panel_schedule(step_comm: f64, panels: u64, panel_compute: f64) -> f64 {
    let panels = panels.max(1) as f64;
    step_comm + (panels - 1.0) * (step_comm - panel_compute).max(0.0)
}

/// Exposed time of one communication pattern under a placement: resolves
/// the pattern's symbolic groups via [`comm_group`] and prices it with
/// the helpers [`pattern_lower_bound`] uses: an exposed collective
/// through [`collective_dispatch`], a SUMMA schedule as
/// [`panel_schedule`] of its two [`panel_broadcast`]s.
fn pattern_time(
    pattern: &CommPattern,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
) -> f64 {
    match pattern {
        CommPattern::Exposed {
            coll,
            volume,
            group,
        } => collective_dispatch(
            *coll,
            *volume,
            cfg.comm_algo,
            comm_group(*group, cfg, placement),
            sys,
        ),
        CommPattern::SummaOverlapped {
            vol_a,
            group_a,
            vol_b,
            group_b,
            panels,
            panel_compute,
        } => {
            let step_comm =
                panel_broadcast(*vol_a, *panels, comm_group(*group_a, cfg, placement), sys)
                    + panel_broadcast(*vol_b, *panels, comm_group(*group_b, cfg, placement), sys);
            panel_schedule(step_comm, *panels, *panel_compute)
        }
    }
}

/// Order-sensitive FNV fold of a pass's full pattern list: every variant
/// field (collective, volume bits, symbolic group, panel schedule) enters
/// the fold, so two passes share a fingerprint only if their pattern
/// lists are identical (up to the fold's ~2⁻⁶⁴ pairwise collision odds).
/// This is what lets the pass-level memo key stand in for the list
/// itself.
fn comm_fingerprint(comms: &[CommPattern]) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(comms.len() * 7);
    for p in comms {
        match p {
            CommPattern::Exposed {
                coll,
                volume,
                group,
            } => words.extend([0x58, *coll as u64, volume.to_bits(), *group as u64]),
            CommPattern::SummaOverlapped {
                vol_a,
                group_a,
                vol_b,
                group_b,
                panels,
                panel_compute,
            } => words.extend([
                0x59,
                vol_a.to_bits(),
                *group_a as u64,
                vol_b.to_bits(),
                *group_b as u64,
                *panels,
                panel_compute.to_bits(),
            ]),
        }
    }
    fnv(words)
}

/// The forward/backward pass fingerprints of one [`LayerProfile`]
/// ([`comm_fingerprint`] of each pattern list), computed once per profile
/// (the planner's space store keeps them alongside the profile) so the
/// per-placement pass-level memo probes are a single hash fold instead of
/// a re-hash of the pattern lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassFingerprints {
    pub(crate) fwd: u64,
    pub(crate) bwd: u64,
}

impl PassFingerprints {
    pub(crate) fn of(profile: &LayerProfile) -> Self {
        Self {
            fwd: comm_fingerprint(&profile.fwd.comms),
            bwd: comm_fingerprint(&profile.bwd.comms),
        }
    }
}

/// Sum of [`pattern_time`] over one pass of one layer, memoized under the
/// `0x50` key: the pass fingerprint and everything [`comm_group`] reads
/// from the candidate (`n1`, `n2`, `ep`, the algorithm policy) and the
/// placement (`v1`, `v2`, the expert group's share; `vp` enters no pass
/// pattern). A miss sums the patterns in list order.
fn pass_comm_time(
    comms: &[CommPattern],
    pass_fp: u64,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    sys_fp: u64,
) -> f64 {
    if comms.is_empty() {
        return 0.0;
    }
    let ep_per_domain = largest_divisor_at_most(cfg.ep, placement.vd.min(cfg.ep));
    let key = fnv([
        0x50, // "P"ass
        pass_fp,
        cfg.comm_algo as u64,
        cfg.n1,
        cfg.n2,
        cfg.ep,
        placement.v1,
        placement.v2,
        ep_per_domain,
        sys_fp,
    ]);
    memo_f64(key, || {
        comms
            .iter()
            .map(|p| pattern_time(p, cfg, placement, sys))
            .sum()
    })
}

/// Evaluates with a fraction of the exposed tensor-parallel communication
/// hidden behind compute (paper Limitations: "there are more lower-level
/// opportunities for TP communications to be overlapped with compute").
/// `tp_overlap` ∈ [0, 1]; 0 is the paper's baseline and returns
/// [`evaluate`]'s result bit for bit. Only a finite TP time can be hidden:
/// TP communication that never finishes (a zero-bandwidth tier) keeps
/// [`evaluate`]'s infinite TP time and bubble at every overlap.
pub fn evaluate_with_tp_overlap(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    tp_overlap: f64,
) -> Evaluation {
    let tp_overlap = tp_overlap.clamp(0.0, 1.0);
    let mut e = evaluate(model, cfg, placement, global_batch, sys);
    if !e.breakdown.tp_comm.is_finite() {
        return e;
    }
    let hidden = e.breakdown.tp_comm * tp_overlap;
    e.breakdown.tp_comm -= hidden;
    // The bubble is proportional to (tf + tb), which shrinks by the
    // hidden per-microbatch TP time.
    let m = e.microbatches as f64;
    if m > 0.0 {
        e.breakdown.pp_bubble -= (cfg.np - 1) as f64 / cfg.interleave as f64 * hidden / m;
        e.breakdown.pp_bubble = e.breakdown.pp_bubble.max(0.0);
    }
    e.iteration_time = e.breakdown.total();
    e
}

/// The single implementation behind [`stage_times`] and
/// [`placement_breakdown`]: prices each pass's communication exactly once
/// and returns `(fwd_comm, bwd_comm, tf, tb)` — the comm sums feed the
/// breakdown's TP bucket, the stage times feed everything else. Keeping
/// one definition means the analytic model and the `trainsim` simulator
/// that validates it can never silently diverge on the stage formula.
///
/// `sys_fp`/`fps` are the hoisted [`system_fingerprint`] and
/// [`PassFingerprints`] — the search hoists both out of its per-placement
/// loop (the planner's space store hands back the fingerprints computed
/// when the profile was built), so per-placement work is a pair of memo
/// probes.
fn stage_parts(
    profile: &LayerProfile,
    layers: f64,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> (f64, f64, f64, f64) {
    let fwd_comm =
        layers * pass_comm_time(&profile.fwd.comms, fps.fwd, cfg, placement, sys, sys_fp);
    let bwd_comm =
        layers * pass_comm_time(&profile.bwd.comms, fps.bwd, cfg, placement, sys, sys_fp);
    (
        fwd_comm,
        bwd_comm,
        layers * profile.fwd.time.total() + fwd_comm,
        layers * profile.bwd.time.total() + bwd_comm,
    )
}

/// Per-microbatch forward/backward times of one pipeline stage
/// (layers-per-stage × per-layer device time + exposed TP communication).
/// This is the quantity `tf`/`tb` in the paper's bubble formula; exposed
/// for the `trainsim` schedule simulator.
pub fn stage_times(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
) -> (f64, f64) {
    let layers = (model.depth / cfg.np) as f64;
    let sys_fp = system_fingerprint(sys);
    let fps = PassFingerprints::of(profile);
    let (_, _, tf, tb) = stage_parts(profile, layers, cfg, placement, sys, sys_fp, fps);
    (tf, tb)
}

/// The pure timing core: the full bucket [`Breakdown`] of one
/// configuration + placement, with every per-placement-loop invariant
/// (`sys_fp`, `fps`, the memory accounting) hoisted to the caller. The
/// search's inner loop calls this directly — scoring a placement is then
/// nothing but two pass-level memo probes plus a handful of multiplies —
/// and keeps the winning placement's breakdown for its [`Evaluation`].
#[expect(
    clippy::too_many_arguments,
    reason = "the hoisted per-placement invariants are passed in, not recomputed"
)]
pub(crate) fn placement_breakdown(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> Breakdown {
    let m = cfg.num_microbatches(global_batch) as f64;
    let layers = (model.depth / cfg.np) as f64;

    // Per-microbatch stage times: one shared pricing of each pass's
    // communication yields both the TP-comm bucket and tf/tb.
    let (fwd_comm, bwd_comm, tf, tb) =
        stage_parts(profile, layers, cfg, placement, sys, sys_fp, fps);

    // Steady-state + bubble. Interleaving the stage into `v` virtual
    // chunks divides the bubble by `v` (Narayanan et al. / paper
    // Limitations). One stage has no bubble, even when a stage time is
    // infinite (`0·inf` would be NaN).
    let bubble = pipeline_bubble(cfg, tf + tb);

    // Pipeline P2P: each microbatch's activation forward and gradient
    // backward across the stage boundary, not overlapped (paper S1).
    // Interleaving multiplies the boundary crossings by `v`.
    let pp_comm = if cfg.np > 1 {
        let same_domain = placement.vp >= 2;
        2.0 * m * cfg.interleave as f64 * p2p_time(profile.boundary_bytes, same_domain, sys)
    } else {
        0.0
    };

    let dp_comm = dp_sync_time(profile, model, cfg, placement, global_batch, sys, tf, tb);

    Breakdown {
        compute: m * layers * (profile.fwd.time.compute + profile.bwd.time.compute),
        memory: m * layers * (profile.fwd.time.memory_excess + profile.bwd.time.memory_excess),
        tp_comm: m * (fwd_comm + bwd_comm),
        pp_bubble: bubble,
        dp_comm,
        pp_comm,
    }
}

/// Exposed time of the data-parallel synchronization: the gradient
/// ReduceScatter + weight AllGather over the combined `nd × n2` group
/// (2D TP folds the sequence-group weight-grad reduction into this
/// collective — paper Appendix A), after overlapping with the adjacent
/// microbatch compute.
///
/// The configuration's [`Algorithm`] policy selects how the
/// non-ZeRO-3 sync is executed:
///
/// * [`Algorithm::Ring`] — the paper's baseline: a ring ReduceScatter
///   hidden behind the last microbatch's backward (`tb`) and a ring
///   AllGather behind the first microbatch's forward (`tf`); only the
///   remainders are charged.
/// * [`Algorithm::Tree`] / [`Algorithm::Hierarchical`] — the pair is fused
///   into one monolithic AllReduce of the gradient volume (NCCL's
///   tree/hierarchical algorithms exist for AllReduce only), overlapped
///   with the combined `tf + tb` window.
/// * [`Algorithm::Auto`] — whichever of the three exposes the least time,
///   as NCCL's autotuner + an overlap-aware scheduler would pick.
///
/// ZeRO-3 re-gathers weights per microbatch (AllGather/ReduceScatter
/// only, which NCCL runs as rings regardless of policy), so its pricing
/// is algorithm-independent.
///
/// MoE expert weights synchronize separately: expert FFNs are *not*
/// tensor-parallel-sharded (each of the `n1` TP ranks pushes its own
/// sequence shard through full expert weights), so one expert shard is
/// replicated on `n1 · nd/ep` GPUs — the `n1` TP ranks (whose expert
/// gradients come from disjoint token shards and must be reduced) times
/// the `nd/ep` data-parallel replicas. Its (large) gradient volume runs
/// over that group instead of the full `nd` group, vanishing entirely at
/// `n1 = 1, ep = nd` — the communication saving that makes expert
/// parallelism attractive beyond its memory relief. Both collectives
/// share the same overlap windows, so their times add before the
/// remainder is taken.
///
/// Public so `trainsim` prices its DP tail with exactly the same policy
/// as the analytic model it validates.
#[expect(
    clippy::too_many_arguments,
    reason = "the same inputs as the analytic model's DP tail, shared with trainsim"
)]
pub fn dp_sync_time(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    tf: f64,
    tb: f64,
) -> f64 {
    let parts = dp_sync_groups(profile, model, cfg, placement);
    if parts.iter().all(Option::is_none) {
        return 0.0;
    }
    let sum = |coll: Collective| -> f64 {
        parts
            .iter()
            .flatten()
            .map(|&(grp, vol)| collective_time(coll, vol, grp, sys))
            .sum()
    };
    let t_rs = sum(Collective::ReduceScatter);
    let t_ag = sum(Collective::AllGather);
    if cfg.zero3 {
        // ZeRO-3: weights are re-gathered for every microbatch's forward
        // and backward and gradients reduce-scattered per microbatch; each
        // microbatch's collectives can hide behind that microbatch's
        // compute, the remainder is exposed.
        let m = cfg.num_microbatches(global_batch) as f64;
        return m * (2.0 * t_ag + t_rs - (tf + tb)).max(0.0);
    }
    let ring = (t_rs - tb).max(0.0) + (t_ag - tf).max(0.0);
    let fused_ar = |algo: fn(f64, CommGroup, &SystemSpec) -> f64| -> f64 {
        let ar: f64 = parts
            .iter()
            .flatten()
            .map(|&(grp, vol)| algo(vol, grp, sys))
            .sum();
        (ar - (tf + tb)).max(0.0)
    };
    match cfg.comm_algo {
        Algorithm::Ring => ring,
        Algorithm::Tree => fused_ar(allreduce_tree_time),
        Algorithm::Hierarchical => fused_ar(allreduce_hierarchical_time),
        Algorithm::Auto => ring
            .min(fused_ar(allreduce_tree_time))
            .min(fused_ar(allreduce_hierarchical_time)),
    }
}

/// The `(group, volume)` parts of the data-parallel synchronization that
/// [`dp_sync_time`] prices: dense weights over the full `nd × n2` group,
/// expert weights over the `n1 × nd/ep` replica group. A part is `None`
/// when its group is one GPU or its volume is zero. A fixed two-slot
/// array, because this sits on the search's per-placement hot path.
///
/// Public so `trainsim` re-prices the same groups when it degrades the
/// slow tier.
pub fn dp_sync_groups(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
) -> [Option<(CommGroup, f64)>; 2] {
    let layers = (model.depth / cfg.np) as f64;
    let mut parts = [None, None];
    let dp_size = cfg.nd * profile.dp_group_multiplier;
    if dp_size > 1 && profile.weight_bytes > 0.0 {
        let per_domain = (placement.vd * placement.v2).min(dp_size);
        let per_domain = largest_divisor_at_most(dp_size, per_domain);
        parts[0] = Some((
            CommGroup::new(dp_size, per_domain),
            profile.weight_bytes * layers,
        ));
    }
    let replicas = cfg.n1 * (cfg.nd / cfg.ep);
    if replicas > 1 && profile.expert_weight_bytes > 0.0 {
        let per_domain =
            largest_divisor_at_most(replicas, (placement.v1 * placement.vd).min(replicas));
        parts[1] = Some((
            CommGroup::new(replicas, per_domain),
            profile.expert_weight_bytes * layers,
        ));
    }
    parts
}

/// Largest divisor of `n` that is ≤ `cap` (≥ 1).
pub(crate) fn largest_divisor_at_most(n: u64, cap: u64) -> u64 {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            if d <= cap && d > best {
                best = d;
            }
            let q = n / d;
            if q <= cap && q > best {
                best = q;
            }
        }
        d += 1;
    }
    best
}

/// Best-case exposed time of one communication pattern over *any* legal
/// domain assignment — the per-pattern piece of the branch-and-bound
/// lower bound. Each share is priced by [`pattern_time`]'s helpers; only
/// the pass-level sum is memoized ([`pass_comm_lower_bound`]).
///
/// # Admissibility
///
/// For each group the real placement choices are divisors `v` of the
/// group size with `v1·v2·vp·vd ≤ budget` jointly; this relaxes to every
/// divisor `d ≤ budget` **independently per group** (a superset: any
/// jointly-feasible `v` satisfies `v ≤ budget` alone, and the expert
/// group's derived share `largest_divisor_at_most(ep, vd.min(ep))` is
/// also a divisor of `ep` that is ≤ budget). Minimizing over the superset
/// can only go lower, so the bound is admissible *without* assuming the
/// collective models are monotone in the per-domain share — which the
/// hierarchical AllReduce is not. SUMMA patterns relax both groups
/// independently for the same reason: their minimum is taken over the
/// cartesian product of both groups' shares.
///
/// # The per-group SUMMA minimum
///
/// A SUMMA pattern at shares `(da, db)` costs `S(a(da) + b(db))`, where
/// `a` and `b` are the two operands' [`panel_broadcast`]s and `S` is
/// [`panel_schedule`], `S(s) = s + (P−1)·max(s − c, 0)`. `S` never
/// decreases as `s` rises: IEEE subtraction of a constant, `max`,
/// multiplication by the non-negative `P − 1` and addition are each
/// monotone. IEEE addition is monotone in each operand too, so the
/// cheapest broadcast over group A's shares plus the cheapest over group
/// B's gives the smallest step sum, and `S` of it is the cartesian
/// minimum: |A| + |B| broadcasts replace |A|·|B| schedules.
///
/// The two forms agree bit for bit wherever the cartesian minimum is
/// finite. A finite minimum is `S` of a finite step sum, so some share of
/// each group prices finite, and no share prices `-inf` (`S(-inf)` is
/// `-inf`, which would be the minimum). Both per-group minima are then
/// finite (`f64::min` skips a NaN share, as the cartesian loop skips the
/// NaN pairs it makes), their sum is the smallest step sum the loop sees,
/// and the loop evaluates `S` at that very pair. Where the cartesian
/// minimum is `+inf` — every share of a group prices NaN or `+inf` at one
/// panel, so the cartesian form skips every pair as NaN — the per-group
/// form can compute `inf + 0·inf`, a NaN, and a NaN bound never prunes
/// (`crate::ord::exceeds_bound`). The test
/// `summa_group_minimum_matches_the_cartesian_loop` pins this against a
/// copy of the cartesian loop, on systems with hostile network fields.
fn pattern_lower_bound(
    pattern: &CommPattern,
    cfg: &ParallelConfig,
    budget: u64,
    sys: &SystemSpec,
) -> f64 {
    let group_size = |g: TpGroup| match g {
        TpGroup::N1 => cfg.n1,
        TpGroup::N2 => cfg.n2,
        TpGroup::Ep => cfg.ep,
    };
    // Every share of a group of `n` GPUs the relaxation allows.
    let shares = |n: u64| {
        divisors(n)
            .into_iter()
            .filter(|&d| d <= budget)
            .map(move |d| CommGroup::new(n, d))
    };
    match pattern {
        CommPattern::Exposed {
            coll,
            volume,
            group,
        } => shares(group_size(*group))
            .map(|grp| collective_dispatch(*coll, *volume, cfg.comm_algo, grp, sys))
            .fold(f64::INFINITY, f64::min),
        CommPattern::SummaOverlapped {
            vol_a,
            group_a,
            vol_b,
            group_b,
            panels,
            panel_compute,
        } => {
            let cheapest = |vol: f64, group: TpGroup| {
                shares(group_size(group))
                    .map(|grp| panel_broadcast(vol, *panels, grp, sys))
                    .fold(f64::INFINITY, f64::min)
            };
            let step_comm = cheapest(*vol_a, *group_a) + cheapest(*vol_b, *group_b);
            panel_schedule(step_comm, *panels, *panel_compute)
        }
    }
}

/// Sum of [`pattern_lower_bound`] over one pass, memoized under the
/// `0x4C` key (pass fingerprint × candidate group sizes × domain budget —
/// no placement fields, since the bound quantifies over all of them, and
/// no GPU count or space, so every space with the same TP tuple on the
/// same system shares the entry: `figa4`'s 216 searches read it across
/// GPU counts). A per-pass sum of per-pattern minima is itself a valid
/// lower bound on the per-pass minimum: `Σᵢ minₚ tᵢ(p) ≤ minₚ Σᵢ tᵢ(p)`.
fn pass_comm_lower_bound(
    comms: &[CommPattern],
    pass_fp: u64,
    cfg: &ParallelConfig,
    budget: u64,
    sys: &SystemSpec,
    sys_fp: u64,
) -> f64 {
    if comms.is_empty() {
        return 0.0;
    }
    let key = fnv([
        0x4C, // "L"ower bound
        pass_fp,
        cfg.comm_algo as u64,
        cfg.n1,
        cfg.n2,
        cfg.ep,
        budget,
        sys_fp,
    ]);
    memo_f64(key, || {
        comms
            .iter()
            .map(|p| pattern_lower_bound(p, cfg, budget, sys))
            .sum()
    })
}

/// The pipeline bubble `(np − 1)·(tf + tb)/interleave` of a stage whose
/// forward and backward take `stage_time` per microbatch: zero for one
/// stage, whatever the stage time.
fn pipeline_bubble(cfg: &ParallelConfig, stage_time: f64) -> f64 {
    if cfg.np > 1 {
        (cfg.np - 1) as f64 * stage_time / cfg.interleave as f64
    } else {
        0.0
    }
}

/// Admissible lower bound on [`placement_breakdown`]`.total()` over
/// **every** placement of `cfg` — the branch-and-bound pruning predicate.
///
/// # Admissibility
///
/// Each breakdown bucket is bounded below independently, so the sum
/// bounds the total:
///
/// * **compute + memory + tp_comm** = `m·(tf + tb)`, and `tf ≥ tf_lb`
///   because each pass's exposed comm is bounded by
///   [`pass_comm_lower_bound`] (a relaxation over a superset of the real
///   placement choices — see [`pattern_lower_bound`]).
/// * **pp_bubble** = `(np−1)·(tf+tb)/interleave` is monotone in
///   `tf + tb`, so substituting the bounds keeps it a bound.
/// * **pp_comm** takes the cheaper of the same-domain / cross-domain P2P
///   rates, whichever a placement would pick.
/// * **dp_comm** is an overlap *remainder*: every branch of
///   [`dp_sync_time`] is a `max(0, ·)` (or a min of such), so `0` is a
///   valid bound and the term is simply dropped.
///
/// Any candidate whose bound already exceeds the incumbent best time
/// therefore cannot contain the optimum, and pruning it is exact (the
/// caller adds a relative epsilon so float rounding between the bucketed
/// sum and `m·(tf+tb)` can never flip a tie). The bound costs two memo
/// probes in the steady state — candidates sharing a TP tuple reuse it.
pub(crate) fn iteration_time_lower_bound(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    global_batch: u64,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> f64 {
    let m = cfg.num_microbatches(global_batch) as f64;
    let layers = (model.depth / cfg.np) as f64;
    let budget = sys.nvs_size.min(cfg.total_gpus());
    let fwd_lb =
        layers * pass_comm_lower_bound(&profile.fwd.comms, fps.fwd, cfg, budget, sys, sys_fp);
    let bwd_lb =
        layers * pass_comm_lower_bound(&profile.bwd.comms, fps.bwd, cfg, budget, sys, sys_fp);
    let tf_lb = layers * profile.fwd.time.total() + fwd_lb;
    let tb_lb = layers * profile.bwd.time.total() + bwd_lb;
    let bubble_lb = pipeline_bubble(cfg, tf_lb + tb_lb);
    let pp_lb = if cfg.np > 1 {
        let per_hop = p2p_time(profile.boundary_bytes, true, sys).min(p2p_time(
            profile.boundary_bytes,
            false,
            sys,
        ));
        2.0 * m * cfg.interleave as f64 * per_hop
    } else {
        0.0
    };
    m * (tf_lb + tb_lb) + bubble_lb + pp_lb
}

/// Placement-independent facts about one candidate, assessed *before*
/// any full evaluation — the inputs every admissible per-objective key
/// bound is derived from (see `Objective::key_lower_bound`).
///
/// # Admissibility
///
/// * `time_lb` is [`iteration_time_lower_bound`]: `time_lb ≤ t(p)` for
///   every placement `p`, so any key that is *monotone non-decreasing*
///   in iteration time is bounded below by substituting `time_lb` —
///   `TrainingDays` (`iters·t/86400`, for `iters ≥ 0`) and `GpuSeconds`
///   (`n·t`) directly, `TokensPerGpuSecond` through its negated key
///   `−B·L/(t·n)`.
/// * `memory_total` is **exact**, not a bound: per-GPU HBM usage depends
///   only on the candidate's parallel configuration, never on the
///   placement, so the `HbmHeadroom` key `−(capacity − memory_total)`
///   computed from it *equals* the evaluated key bit-for-bit.
/// * `gpus` is the candidate's exact GPU count (`cfg.total_gpus()`).
/// * `checkpoint_bytes` is **exact**: `weights + optimizer` of the same
///   placement-independent memory ledger the evaluation carries. With
///   `gpus` and the context it fixes the goodput fraction `f` of
///   `crate::reliability::assess` bit for bit.
///
/// The goodput objectives price the *effective* iteration time
/// `(compute + memory)·s + pp_bubble` plus the three communication
/// buckets, each multiplied by the degraded-link inflation `d` when the
/// placement exposes it to the slow tier. The straggler inflation `s`
/// and `d` are ≥ 1 for every spec that does not make them NaN (the
/// probabilities and the bandwidth factor are clamped), so the effective
/// time is at least `Breakdown::total()` term by term, which is the
/// iteration time and at least `time_lb`. Substituting `time_lb` bounds
/// `ExpectedGoodput`'s key `−B·L/(t_eff·n)·f` and
/// `EffectiveTrainingDays`' `iters·t_eff/(86400·f)` (for `iters ≥ 0`)
/// from below; the two sums add their terms in different orders, which
/// the planner's `PRUNE_EPS` slack absorbs. When `s` or `d` is NaN, a
/// placement exposing a slow-tier bucket has a NaN key, so the bound is
/// NaN and never prunes.
///
/// Composite objectives compose these per-leaf bounds: a `Weighted` sum
/// adds `wᵢ·lbᵢ ≤ wᵢ·keyᵢ` term-wise (negative or zero weights are only
/// sound over *exact* leaf keys, and fall back to `-inf` = no-prune
/// otherwise — IEEE rounding is monotone, so the summed bound stays a
/// bound), and a `Lexicographic` objective bounds its primary stage's
/// key. The serving metrics (`TokensPerSecPerGpu`, `ServingSlo`) report
/// `-inf`, which never prunes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateBounds {
    /// Admissible lower bound on the candidate's iteration time over
    /// every placement, seconds.
    pub time_lb: f64,
    /// Exact per-GPU HBM usage of the candidate, bytes.
    pub memory_total: f64,
    /// Exact GPU count of the candidate.
    pub gpus: f64,
    /// Exact per-writer checkpoint bytes (weight + optimizer shard).
    pub checkpoint_bytes: f64,
}

/// Evaluates a configuration + placement from scratch (builds the layer
/// profile internally). Panics on invalid configurations — call
/// [`ParallelConfig::validate`] first for user input.
pub fn evaluate(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
) -> Evaluation {
    #[expect(
        clippy::panic,
        reason = "documented API contract: callers validate user input first"
    )]
    cfg.validate(model, global_batch)
        .unwrap_or_else(|e| panic!("invalid configuration {cfg}: {e}"));
    #[expect(
        clippy::panic,
        reason = "documented API contract: callers validate user input first"
    )]
    placement
        .validate(cfg, sys.nvs_size)
        .unwrap_or_else(|e| panic!("invalid placement {placement:?}: {e}"));
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
    let breakdown = placement_breakdown(
        &profile,
        model,
        cfg,
        placement,
        global_batch,
        sys,
        system_fingerprint(sys),
        PassFingerprints::of(&profile),
    );
    let memory = memory_usage(&profile, model, cfg, global_batch);
    Evaluation::assemble(cfg, placement, global_batch, breakdown, memory, sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_1t;

    fn sys() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    fn eval_1d(n1: u64, np: u64, nd: u64, v1: u64, vp: u64, vd: u64) -> Evaluation {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, n1, 1, np, nd, 1);
        let placement = Placement { v1, v2: 1, vp, vd };
        evaluate(&model, &cfg, &placement, 4096, &sys())
    }

    #[test]
    fn breakdown_sums_to_iteration_time() {
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!((e.breakdown.total() - e.iteration_time).abs() / e.iteration_time < 1e-12);
    }

    #[test]
    fn fig1_config_d_magnitude() {
        // Fig. 1 config D lands around 2–4 s/iteration on 16384 B200.
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!(
            e.iteration_time > 1.0 && e.iteration_time < 8.0,
            "got {} s",
            e.iteration_time
        );
        assert!(e.feasible);
        assert_eq!(e.microbatches, 128);
    }

    #[test]
    fn compute_dominates_at_optimal_scale() {
        // Paper Fig. 4a: most time is compute for GPT3-1T at moderate TP.
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!(
            e.breakdown.compute_fraction() > 0.4,
            "{:?}",
            e.breakdown.percentages()
        );
    }

    #[test]
    fn more_tp_means_more_tp_comm_share() {
        // Fixed np: raising nt (lowering nd, raising m) inflates total TP
        // communication (volume is nt-invariant but per-microbatch).
        let lo = eval_1d(4, 64, 64, 4, 2, 1);
        let hi = eval_1d(32, 64, 8, 8, 1, 1);
        let share = |e: &Evaluation| e.breakdown.tp_comm / e.iteration_time;
        assert!(share(&hi) > share(&lo));
    }

    #[test]
    fn fewer_microbatches_means_bigger_bubble_share() {
        // Fixed nt = 8: large DP shrinks m, exposing the pipeline bubble
        // (Fig. 2 right-hand configs).
        let many_mb = eval_1d(8, 64, 32, 8, 1, 1); // m = 128, np = 64
        let few_mb = eval_1d(8, 64, 128, 8, 1, 1); // m = 32, np = 64
        let share = |e: &Evaluation| e.breakdown.pp_bubble / e.iteration_time;
        assert!(share(&few_mb) > share(&many_mb));
    }

    #[test]
    fn placement_changes_time() {
        // Giving the domain to TP vs DP must alter communication time.
        let tp_placed = eval_1d(8, 64, 32, 8, 1, 1);
        let dp_placed = eval_1d(8, 64, 32, 1, 1, 8);
        assert_ne!(tp_placed.iteration_time, dp_placed.iteration_time);
        // With nt = 8 cross-domain TP is very painful: TP-placed wins.
        assert!(tp_placed.iteration_time < dp_placed.iteration_time);
    }

    #[test]
    fn pure_dp_has_no_tp_or_pp_costs() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 1, 1, 1, 512, 1);
        let placement = Placement {
            v1: 1,
            v2: 1,
            vp: 1,
            vd: 8,
        };
        let e = evaluate(&model, &cfg, &placement, 4096, &sys());
        assert_eq!(e.breakdown.tp_comm, 0.0);
        assert_eq!(e.breakdown.pp_bubble, 0.0);
        assert_eq!(e.breakdown.pp_comm, 0.0);
        assert!(!e.feasible, "1T params on one GPU's worth of TP cannot fit");
    }

    /// The catalog B200-NVS8 iteration time and lower bound of the
    /// candidate below, pinned bit for bit: with finite stage times a
    /// single stage's bubble was already exactly +0.0, so charging none
    /// must leave both unchanged.
    const CATALOG_ITERATION_TIME_BITS: u64 = 0x403a_068c_0951_6a6d;
    const CATALOG_LOWER_BOUND_BITS: u64 = 0x4039_aeba_8e26_7840;

    /// One pipeline stage charges no bubble, so a stage time made
    /// infinite by a zero-bandwidth IB tier gives an infinite iteration
    /// time (and lower bound), not `0·inf` = NaN; on the catalog system
    /// the same candidate reads the bits it always did.
    #[test]
    fn one_stage_has_no_bubble_even_when_a_stage_never_ends() {
        let model = txmodel::gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 16, 1, 1, 8, 1);
        let placement = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let lower_bound = |sys: &SystemSpec| {
            let profile = build_profile(&model, cfg.strategy, 16, 1, 1, 1, 1, &sys.gpu);
            let fps = PassFingerprints::of(&profile);
            let sys_fp = system_fingerprint(sys);
            iteration_time_lower_bound(&profile, &model, &cfg, 1024, sys, sys_fp, fps)
        };
        let mut zero_ib = sys();
        zero_ib.network.ib_bandwidth = 0.0;
        let e = evaluate(&model, &cfg, &placement, 1024, &zero_ib);
        assert_eq!(e.breakdown.tp_comm, f64::INFINITY);
        assert_eq!(e.breakdown.pp_bubble.to_bits(), 0.0f64.to_bits());
        assert_eq!(e.iteration_time, f64::INFINITY);
        assert_eq!(lower_bound(&zero_ib), f64::INFINITY);

        let e = evaluate(&model, &cfg, &placement, 1024, &sys());
        assert_eq!(e.breakdown.pp_bubble.to_bits(), 0.0f64.to_bits());
        assert_eq!(e.iteration_time.to_bits(), CATALOG_ITERATION_TIME_BITS);
        assert_eq!(lower_bound(&sys()).to_bits(), CATALOG_LOWER_BOUND_BITS);
    }

    #[test]
    fn summa_evaluation_runs() {
        let model = gpt3_1t().config;
        let mut cfg = ParallelConfig::new(TpStrategy::Summa, 8, 4, 8, 16, 1);
        cfg.summa_panels = 4;
        let placement = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e = evaluate(&model, &cfg, &placement, 4096, &sys());
        assert!(e.iteration_time > 0.0);
        assert!(e.breakdown.tp_comm > 0.0);
    }

    #[test]
    fn dp_comm_is_exposed_remainder_only() {
        // Small DP volume (high TP·PP sharding) should be fully hidden
        // behind the microbatch fwd/bwd windows.
        let e = eval_1d(8, 128, 16, 8, 1, 1);
        assert!(e.breakdown.dp_comm < 0.2 * e.iteration_time);
    }

    #[test]
    fn largest_divisor_helper() {
        assert_eq!(largest_divisor_at_most(64, 16), 16);
        assert_eq!(largest_divisor_at_most(64, 15), 8);
        assert_eq!(largest_divisor_at_most(12, 5), 4);
        assert_eq!(largest_divisor_at_most(7, 3), 1);
    }

    #[test]
    fn interleaving_divides_the_bubble() {
        let model = gpt3_1t().config;
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let inter = ParallelConfig {
            interleave: 2,
            ..base
        };
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys());
        let e2 = evaluate(&model, &inter, &pl, 4096, &sys());
        assert!((e2.breakdown.pp_bubble - e0.breakdown.pp_bubble / 2.0).abs() < 1e-9);
        assert!((e2.breakdown.pp_comm - 2.0 * e0.breakdown.pp_comm).abs() < 1e-9);
        // Net effect at this scale: interleaving wins (bubble dominates
        // the extra P2P).
        assert!(e2.iteration_time < e0.iteration_time);
        // Activation memory grows slightly.
        assert!(e2.memory.activations > e0.memory.activations);
    }

    #[test]
    fn zero3_trades_memory_for_dp_comm() {
        let model = gpt3_1t().config;
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 128, 1);
        let z3 = ParallelConfig {
            zero3: true,
            ..base
        };
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys());
        let ez = evaluate(&model, &z3, &pl, 4096, &sys());
        assert!((ez.memory.weights - e0.memory.weights / 128.0).abs() < 1.0);
        assert!((ez.memory.gradients - e0.memory.gradients / 128.0).abs() < 1.0);
        assert!(ez.memory.total() < e0.memory.total());
        assert!(ez.breakdown.dp_comm >= e0.breakdown.dp_comm);
    }

    #[test]
    fn tp_overlap_reduces_comm_and_bubble() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 32, 1, 64, 8, 1);
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let s = sys();
        let base = evaluate(&model, &cfg, &pl, 4096, &s);
        let half = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 0.5);
        let full = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 1.0);
        assert!((half.breakdown.tp_comm - base.breakdown.tp_comm / 2.0).abs() < 1e-9);
        assert_eq!(full.breakdown.tp_comm, 0.0);
        assert!(full.iteration_time < half.iteration_time);
        assert!(half.iteration_time < base.iteration_time);
        // Clamping.
        let over = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 7.0);
        assert_eq!(over.breakdown.tp_comm, 0.0);
    }

    /// At overlap 0 the overlap path is [`evaluate`], on a catalog system
    /// and on one whose IB tier has no bandwidth, where the TP time of a
    /// TP group spanning two domains is infinite: hiding part of it must
    /// neither make it NaN (`inf − 0·inf`) nor clamp the infinite bubble
    /// of four stages to zero (`inf − inf`).
    #[test]
    fn tp_overlap_leaves_an_infinite_tp_time_infinite() {
        let model = txmodel::gpt3_175b().config;
        let placement = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let mut zero_ib = sys();
        zero_ib.network.ib_bandwidth = 0.0;
        for np in [1, 4] {
            let cfg = ParallelConfig::new(TpStrategy::OneD, 16, 1, np, 8, 1);
            for s in [sys(), zero_ib.clone()] {
                let base = evaluate(&model, &cfg, &placement, 1024, &s);
                let none = evaluate_with_tp_overlap(&model, &cfg, &placement, 1024, &s, 0.0);
                assert_eq!(format!("{none:?}"), format!("{base:?}"), "np {np}");
            }
            let half = evaluate_with_tp_overlap(&model, &cfg, &placement, 1024, &zero_ib, 0.5);
            assert_eq!(half.breakdown.tp_comm, f64::INFINITY, "np {np}");
            assert_eq!(half.iteration_time, f64::INFINITY, "np {np}");
        }
    }

    /// The SUMMA bound as the search computed it before the per-group
    /// minimum, minus the memo: the panel schedule of every pair of
    /// shares, minimised in `(da, db)` order. The reference
    /// [`pattern_lower_bound`] is pinned against.
    #[expect(
        clippy::too_many_arguments,
        reason = "a SUMMA pattern's fields plus both group sizes, the budget and the system"
    )]
    fn cartesian_summa_bound(
        vol_a: f64,
        vol_b: f64,
        panels: u64,
        panel_compute: f64,
        na: u64,
        nb: u64,
        budget: u64,
        sys: &SystemSpec,
    ) -> f64 {
        let schedule = |grp_a: CommGroup, grp_b: CommGroup| {
            let panels = panels.max(1) as f64;
            let per_step = |vol: f64, grp: CommGroup| -> f64 {
                if grp.size() <= 1 || vol <= 0.0 {
                    return 0.0;
                }
                let n = grp.size() as f64;
                let tensor = vol * n / (n - 1.0) / panels;
                collective_time(Collective::Broadcast, tensor, grp, sys)
            };
            let step_comm = per_step(vol_a, grp_a) + per_step(vol_b, grp_b);
            step_comm + (panels - 1.0) * (step_comm - panel_compute).max(0.0)
        };
        let dbs: Vec<u64> = divisors(nb).into_iter().filter(|&d| d <= budget).collect();
        let mut best = f64::INFINITY;
        for da in divisors(na).into_iter().filter(|&d| d <= budget) {
            for &db in &dbs {
                best = best.min(schedule(CommGroup::new(na, da), CommGroup::new(nb, db)));
            }
        }
        best
    }

    /// A SUMMA pattern over the `n1 × n2` mesh of `cfg`.
    fn summa_pattern(vol_a: f64, vol_b: f64, panels: u64, panel_compute: f64) -> CommPattern {
        CommPattern::SummaOverlapped {
            vol_a,
            group_a: TpGroup::N1,
            vol_b,
            group_b: TpGroup::N2,
            panels,
            panel_compute,
        }
    }

    /// Hostile and edge values the property test draws from.
    const EDGES: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -3.5e9,
        -1e-6,
        1e-300,
        1e300,
    ];

    /// `EDGES[pick]` when `pick` indexes it, else the ordinary `x`.
    fn edge_or(pick: usize, x: f64) -> f64 {
        EDGES.get(pick).copied().unwrap_or(x)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// The per-group SUMMA minimum equals the cartesian loop bit for
        /// bit wherever the loop's minimum is not `+inf`; where it is,
        /// the per-group form is `+inf` or NaN (a NaN bound never
        /// prunes). Volumes, panel compute and one network field of a
        /// catalog system are drawn from hostile values half the time.
        #[test]
        fn summa_group_minimum_matches_the_cartesian_loop(
            vol_a_pick in 0usize..18,
            vol_a in 1e3f64..1e12,
            vol_b_pick in 0usize..18,
            vol_b in 1e3f64..1e12,
            panels in 0u64..=32,
            compute_pick in 0usize..18,
            panel_compute in 1e-9f64..1e-1,
            na in 1u64..=64,
            nb in 1u64..=64,
            budget in 1u64..=64,
            base in 0usize..3,
            field in 0usize..10,
            field_pick in 0usize..9,
        ) {
            let mut sys = [
                system(GpuGeneration::B200, NvsSize::Nvs8),
                system(GpuGeneration::A100, NvsSize::Nvs4),
                system(GpuGeneration::H200, NvsSize::Nvs64),
            ][base]
                .clone();
            let net = &mut sys.network;
            if let Some(f) = [
                &mut net.nvs_bandwidth,
                &mut net.nvs_latency,
                &mut net.ib_bandwidth,
                &mut net.ib_latency,
                &mut net.bandwidth_efficiency,
            ]
            .into_iter()
            .nth(field)
            {
                *f = EDGES[field_pick];
            }
            let (vol_a, vol_b) = (edge_or(vol_a_pick, vol_a), edge_or(vol_b_pick, vol_b));
            let panel_compute = edge_or(compute_pick, panel_compute);
            let cfg = ParallelConfig::new(TpStrategy::Summa, na, nb, 1, 1, 1);
            let pattern = summa_pattern(vol_a, vol_b, panels, panel_compute);
            let bound = pattern_lower_bound(&pattern, &cfg, budget, &sys);
            let reference =
                cartesian_summa_bound(vol_a, vol_b, panels, panel_compute, na, nb, budget, &sys);
            if reference == f64::INFINITY {
                proptest::prop_assert!(
                    bound == f64::INFINITY || bound.is_nan(),
                    "reference +inf, bound {bound}"
                );
            } else {
                proptest::prop_assert_eq!(bound.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn evaluate_rejects_invalid() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 3, 1, 64, 32, 1);
        let _ = evaluate(&model, &cfg, &Placement::trivial(), 4096, &sys());
    }
}
