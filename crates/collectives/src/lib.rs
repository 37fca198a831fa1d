//! Analytic communication-time model for NCCL-style collectives on a
//! dual-bandwidth fabric (paper §III, stage S2 "Communication Time").
//!
//! The model follows the NCCL ring-algorithm performance model: a
//! collective over `n` GPUs placed `per_domain`-at-a-time into NVSwitch
//! domains pays
//!
//! ```text
//! t_latency = α_s·(n/n_NVS − 1) + α_f·(n − n/n_NVS)
//! t_comm    = t_latency + (n − 1)/n · max( V/(n_NIC·β_s), V/β_f )
//! ```
//!
//! for AllGather/ReduceScatter of a tensor of `V` total bytes. The `max`
//! expresses that NCCL runs one ring per NIC, so the effective inter-node
//! bandwidth is `n_NIC·β_s` until it saturates the fast-tier bandwidth
//! `β_f` each GPU must also sustain. Groups that fit entirely inside one
//! NVS domain never touch the slow tier.
//!
//! AllReduce is modeled as ReduceScatter + AllGather (2× cost); Broadcast
//! and Reduce are pipelined rings in which the bottleneck link carries the
//! full tensor once (`V/bw` + per-hop latency). Point-to-point transfers
//! pay a single hop.
//!
//! All bandwidths are derated by the system's empirical efficiency factor
//! (70% in the paper, validated on Perlmutter-style NCCL tests — in this
//! repo, against the `netsim` discrete-event simulator; see Fig. A1).
//!
//! Beyond the paper's ring-only model, AllReduce additionally has
//! latency-optimal tree ([`allreduce_tree_time`]) and two-level
//! hierarchical ([`allreduce_hierarchical_time`]) estimates, selected per
//! collective by [`Algorithm`] / [`allreduce_time`] — `Auto` mirrors
//! NCCL's autotuner by taking the fastest — and AllToAll (the MoE
//! expert-dispatch collective) has store-and-forward ring
//! ([`alltoall_ring_time`]) and direct pairwise-exchange
//! ([`alltoall_pairwise_time`]) estimates behind [`alltoall_time`].
//! Every formula is cross-validated against the matching `netsim`
//! schedule.

use serde::{Deserialize, Serialize};
use systems::SystemSpec;

/// The communication collectives used by the performance model
/// (paper Table A1 abbreviations: AG, RS, AR, B, and Reduce for SUMMA
/// transposed products).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Collective {
    /// AllGather (AG): every GPU ends with the full tensor.
    AllGather,
    /// ReduceScatter (RS): every GPU ends with its reduced shard.
    ReduceScatter,
    /// AllReduce (AR) = RS + AG.
    AllReduce,
    /// Broadcast (B): one root sends the tensor to all (SUMMA panels).
    Broadcast,
    /// Reduce: all GPUs reduce onto one root (SUMMA transposed products).
    Reduce,
    /// AllToAll (A2A): a distributed transpose — every GPU sends a
    /// distinct `V/n²` chunk to every other GPU (MoE expert dispatch and
    /// combine; beyond the paper's dense-model collective set).
    AllToAll,
}

impl Collective {
    /// Every collective, paper-table order first, extensions after.
    pub const ALL: [Collective; 6] = [
        Collective::AllGather,
        Collective::ReduceScatter,
        Collective::AllReduce,
        Collective::Broadcast,
        Collective::Reduce,
        Collective::AllToAll,
    ];

    /// Short name as used in the paper's tables.
    pub fn abbrev(self) -> &'static str {
        match self {
            Collective::AllGather => "AG",
            Collective::ReduceScatter => "RS",
            Collective::AllReduce => "AR",
            Collective::Broadcast => "B",
            Collective::Reduce => "Red",
            Collective::AllToAll => "A2A",
        }
    }
}

/// Collective algorithm, mirroring NCCL's tunable `NCCL_ALGO` choices on
/// the dual-bandwidth fabric.
///
/// AllReduce selects between ring, tree and hierarchical; AllToAll
/// selects between the store-and-forward ring and the direct pairwise
/// exchange (any non-ring choice maps to pairwise — see
/// [`alltoall_time`]). AllGather, ReduceScatter, Broadcast and Reduce
/// always run rings (as in NCCL). [`Auto`] models NCCL's autotuner: the
/// fastest algorithm for the given volume and placement is selected per
/// collective.
///
/// [`Auto`]: Algorithm::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Bandwidth-optimal pipelined ring (the paper's baseline model).
    Ring,
    /// Latency-optimal binary tree (reduce-up + broadcast-down).
    Tree,
    /// Two-level algorithm: intra-domain RS/AG over NVS, inter-domain
    /// AllReduce over the NICs.
    Hierarchical,
    /// NCCL-style auto-selection: the fastest of the three.
    Auto,
}

impl Algorithm {
    /// Every algorithm, ring first.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Ring,
        Algorithm::Tree,
        Algorithm::Hierarchical,
        Algorithm::Auto,
    ];

    /// Name as used in figure legends and reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::Tree => "tree",
            Algorithm::Hierarchical => "hierarchical",
            Algorithm::Auto => "auto",
        }
    }
}

/// Placement of a communication group onto NVS domains.
///
/// `size` GPUs participate; `per_domain` of them share each NVS domain
/// (the paper's GPU-assignment configuration `n_NVSi`). `per_domain` must
/// divide `size` and be at least 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommGroup {
    size: u64,
    per_domain: u64,
}

impl CommGroup {
    /// Creates a placement; panics if `per_domain ∤ size` or either is 0.
    pub fn new(size: u64, per_domain: u64) -> Self {
        assert!(
            size >= 1 && per_domain >= 1,
            "group and domain share must be positive"
        );
        assert!(
            per_domain <= size,
            "per_domain ({per_domain}) exceeds group size ({size})"
        );
        assert_eq!(
            size % per_domain,
            0,
            "per_domain ({per_domain}) must divide size ({size})"
        );
        Self { size, per_domain }
    }

    /// A group confined to a single NVS domain.
    pub fn single_domain(size: u64) -> Self {
        Self::new(size, size)
    }

    /// Number of participating GPUs.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// GPUs of this group per NVS domain.
    pub fn per_domain(&self) -> u64 {
        self.per_domain
    }

    /// Number of NVS domains the group spans.
    pub fn domains(&self) -> u64 {
        self.size / self.per_domain
    }

    /// True if the group never leaves one NVS domain.
    pub fn is_intra_domain(&self) -> bool {
        self.domains() == 1
    }
}

/// Ring-hop latency for one shard's `n−1`-hop traversal of the ring:
/// slow hops between domains plus fast hops inside them.
///
/// **Per-shard-traversal semantics** (shared with
/// `netsim::RingTopology::slow_hops`): a shard visits `n−1` of the ring's
/// `n` links, skipping exactly the link that enters its origin. The
/// canonical shard originates at a domain boundary, so the skipped link is
/// slow and the traversal pays `domains − 1` slow hops and `n − domains`
/// fast hops. A shard originating mid-domain crosses one extra slow
/// boundary; the DES models that worst case explicitly, which is why its
/// latency-dominated times sit `α_s − α_f` above this formula.
fn ring_latency(group: CommGroup, sys: &SystemSpec) -> f64 {
    let domains = group.domains() as f64;
    let slow_hops = domains - 1.0;
    let fast_hops = group.size() as f64 - domains;
    sys.network.ib_latency * slow_hops + sys.network.nvs_latency * fast_hops
}

/// Effective bottleneck bandwidth (bytes/s) for a ring spanning this
/// placement: the slower of the NIC-aggregated IB tier and the fast tier;
/// purely intra-domain groups use the fast tier alone.
pub fn effective_bandwidth(group: CommGroup, sys: &SystemSpec) -> f64 {
    let fast = sys.network.effective_nvs_bandwidth();
    if group.is_intra_domain() {
        return fast;
    }
    let nics = group.per_domain().min(sys.nics_per_node);
    let slow = sys.network.effective_ib_bandwidth(nics);
    slow.min(fast)
}

/// Time in seconds for `collective` over a tensor of `volume_bytes` total
/// bytes on the given placement. Zero for single-GPU groups or zero volume.
pub fn collective_time(
    collective: Collective,
    volume_bytes: f64,
    group: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    if group.size() <= 1 || volume_bytes <= 0.0 {
        return 0.0;
    }
    let n = group.size() as f64;
    let bw = effective_bandwidth(group, sys);
    let lat = ring_latency(group, sys);
    match collective {
        Collective::AllGather | Collective::ReduceScatter => {
            lat + (n - 1.0) / n * volume_bytes / bw
        }
        Collective::AllReduce => 2.0 * (lat + (n - 1.0) / n * volume_bytes / bw),
        Collective::Broadcast | Collective::Reduce => lat + volume_bytes / bw,
        Collective::AllToAll => alltoall_ring_time(volume_bytes, group, sys),
    }
}

/// AllToAll over a store-and-forward ring: every GPU owns `V/n` and sends
/// a distinct `V/n²` chunk to each peer, routed along the ring. The chunk
/// for the peer at distance `d` traverses `d` links, so the total traffic
/// is `n·Σ_d d·V/n² = V(n−1)/2` spread over the `n` links:
///
/// ```text
/// t = t_ring_latency + (n − 1)/(2n)·V/bw
/// ```
///
/// Forwarding through intermediates wastes bandwidth — the pairwise
/// exchange moves `n/2`× fewer bytes per port — but the ring pays only
/// `d − 1` slow-latency hops (one shard traversal) versus the pairwise
/// exchange's `n − p` cross-domain rounds, so it wins for small tensors
/// on many-domain placements. `V` is the total tensor (all GPUs' shards
/// summed), matching [`collective_time`] semantics.
pub fn alltoall_ring_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    if group.size() <= 1 || volume_bytes <= 0.0 {
        return 0.0;
    }
    let n = group.size() as f64;
    let bw = effective_bandwidth(group, sys);
    ring_latency(group, sys) + (n - 1.0) / (2.0 * n) * volume_bytes / bw
}

/// AllToAll as a direct pairwise exchange (NCCL's point-to-point A2A):
/// `n − 1` rounds, round `r` exchanging the `V/n²` chunk with the peer at
/// offset `r`. On a domain-major layout `p − 1` rounds stay on the fast
/// tier and `n − p` rounds cross domains, where the `p` GPUs of a domain
/// share its `n_NIC` NICs:
///
/// ```text
/// t = (p−1)·[α_f + (V/n²)/β_f] + (n−p)·[α_s + (V/n²)/(β_s·min(p, n_NIC)/p)]
/// ```
///
/// No forwarding: each chunk moves exactly once, which wins on bandwidth
/// at scale; the price is a per-round handshake latency on every one of
/// the `n − p` cross-domain rounds.
pub fn alltoall_pairwise_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    if group.size() <= 1 || volume_bytes <= 0.0 {
        return 0.0;
    }
    let n = group.size();
    let p = group.per_domain();
    let chunk = volume_bytes / (n as f64 * n as f64);
    let mut t = 0.0;
    if p > 1 {
        let intra_rounds = (p - 1) as f64;
        t += intra_rounds
            * (sys.network.nvs_latency + chunk / sys.network.effective_nvs_bandwidth());
    }
    if n > p {
        let cross_rounds = (n - p) as f64;
        let nics = sys.nics_per_node.min(p).max(1);
        let bw = sys.network.effective_ib_bandwidth(nics) / p as f64;
        t += cross_rounds * (sys.network.ib_latency + chunk / bw);
    }
    t
}

/// AllToAll with NCCL-style algorithm selection: the faster of the ring
/// and pairwise-exchange estimates.
pub fn alltoall_auto_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    alltoall_ring_time(volume_bytes, group, sys).min(alltoall_pairwise_time(
        volume_bytes,
        group,
        sys,
    ))
}

/// AllToAll time under an explicit [`Algorithm`] choice. [`Algorithm::Ring`]
/// runs the store-and-forward ring; tree and hierarchical schedules do not
/// exist for AllToAll, so any other explicit choice maps to the pairwise
/// exchange (the NCCL default); [`Algorithm::Auto`] takes the fastest.
pub fn alltoall_time(
    algo: Algorithm,
    volume_bytes: f64,
    group: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    match algo {
        Algorithm::Ring => alltoall_ring_time(volume_bytes, group, sys),
        Algorithm::Tree | Algorithm::Hierarchical => {
            alltoall_pairwise_time(volume_bytes, group, sys)
        }
        Algorithm::Auto => alltoall_auto_time(volume_bytes, group, sys),
    }
}

/// Tree AllReduce time (NCCL's latency-optimal algorithm): a reduce up a
/// binary tree followed by a broadcast down, pipelined so each direction
/// moves the full tensor once. The tree is laid out domain-major — intra-
/// domain levels use fast hops, the `log2(domains)` upper levels use slow
/// hops — so
///
/// ```text
/// t = 2·(α_f·log2(per_domain) + α_s·log2(domains)) + 2·V/bw
/// ```
///
/// Rings win on bandwidth at small scale; trees win on latency at large
/// scale (their latency grows logarithmically, not linearly). This is an
/// extension beyond the paper's ring-only model; [`allreduce_auto_time`]
/// picks the faster of the two as NCCL's autotuner would.
pub fn allreduce_tree_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    if group.size() <= 1 || volume_bytes <= 0.0 {
        return 0.0;
    }
    let fast_levels = (group.per_domain() as f64).log2().ceil().max(0.0);
    let slow_levels = (group.domains() as f64).log2().ceil().max(0.0);
    let lat = sys.network.nvs_latency * fast_levels + sys.network.ib_latency * slow_levels;
    let bw = effective_bandwidth(group, sys);
    2.0 * (lat + volume_bytes / bw)
}

/// Hierarchical (two-level) AllReduce time: an intra-domain ReduceScatter
/// over the fast tier, an inter-domain AllReduce of each GPU's `V/p` shard
/// over the NICs (`p` concurrent rings — one per intra-domain rank index —
/// each over its own NIC, sharing when `p > n_NIC`), and an intra-domain
/// AllGather:
///
/// ```text
/// t = 2·[α_f·(p−1) + (p−1)/p·V/β_f]                    intra RS + AG
///   + 2·[α_s·(d−1) + (d−1)/d·(V/p)/(β_s·min(1, n_NIC/p))]   inter AR
/// ```
///
/// Degenerates to the ring model for purely intra-domain groups (`d = 1`)
/// and for one-GPU-per-domain placements (`p = 1`). Compared to the flat
/// ring it trades the `n − d` fast latency hops for `p − 1`, which wins at
/// many-domain scale; `netsim` simulates the same three phases.
pub fn allreduce_hierarchical_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    if group.size() <= 1 || volume_bytes <= 0.0 {
        return 0.0;
    }
    let p = group.per_domain();
    let d = group.domains();
    let mut t = 0.0;
    if p > 1 {
        let pf = p as f64;
        t += 2.0
            * (sys.network.nvs_latency * (pf - 1.0)
                + (pf - 1.0) / pf * volume_bytes / sys.network.effective_nvs_bandwidth());
    }
    if d > 1 {
        let df = d as f64;
        let nic_share = sys.nics_per_node.min(p).max(1) as f64 / p as f64;
        let bw = sys.network.effective_ib_bandwidth(1) * nic_share;
        t += 2.0
            * (sys.network.ib_latency * (df - 1.0)
                + (df - 1.0) / df * (volume_bytes / p as f64) / bw);
    }
    t
}

/// AllReduce time under an explicit [`Algorithm`] choice; [`Algorithm::Auto`]
/// dispatches to [`allreduce_auto_time`].
pub fn allreduce_time(
    algo: Algorithm,
    volume_bytes: f64,
    group: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    match algo {
        Algorithm::Ring => collective_time(Collective::AllReduce, volume_bytes, group, sys),
        Algorithm::Tree => allreduce_tree_time(volume_bytes, group, sys),
        Algorithm::Hierarchical => allreduce_hierarchical_time(volume_bytes, group, sys),
        Algorithm::Auto => allreduce_auto_time(volume_bytes, group, sys),
    }
}

/// AllReduce with NCCL-style algorithm selection: the fastest of the ring,
/// tree and hierarchical estimates.
pub fn allreduce_auto_time(volume_bytes: f64, group: CommGroup, sys: &SystemSpec) -> f64 {
    collective_time(Collective::AllReduce, volume_bytes, group, sys)
        .min(allreduce_tree_time(volume_bytes, group, sys))
        .min(allreduce_hierarchical_time(volume_bytes, group, sys))
}

/// Time in seconds for a point-to-point transfer of `volume_bytes` between
/// two GPUs (`same_domain` selects the tier).
pub fn p2p_time(volume_bytes: f64, same_domain: bool, sys: &SystemSpec) -> f64 {
    if volume_bytes <= 0.0 {
        return 0.0;
    }
    if same_domain {
        sys.network.nvs_latency + volume_bytes / sys.network.effective_nvs_bandwidth()
    } else {
        sys.network.ib_latency + volume_bytes / sys.network.effective_ib_bandwidth(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::{system, GpuGeneration, NvsSize};

    fn b200_nvs8() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    #[test]
    fn group_geometry() {
        let g = CommGroup::new(32, 4);
        assert_eq!(g.domains(), 8);
        assert!(!g.is_intra_domain());
        assert!(CommGroup::single_domain(8).is_intra_domain());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_placement_panics() {
        let _ = CommGroup::new(12, 5);
    }

    #[test]
    fn single_gpu_is_free() {
        let sys = b200_nvs8();
        assert_eq!(
            collective_time(
                Collective::AllGather,
                1e9,
                CommGroup::single_domain(1),
                &sys
            ),
            0.0
        );
    }

    #[test]
    fn intra_domain_uses_fast_tier_only() {
        let sys = b200_nvs8();
        let g = CommGroup::single_domain(8);
        let v = 1e9;
        let t = collective_time(Collective::AllGather, v, g, &sys);
        let expect =
            7.0 * sys.network.nvs_latency + (7.0 / 8.0) * v / sys.network.effective_nvs_bandwidth();
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn cross_domain_matches_paper_formula() {
        let sys = b200_nvs8();
        // 32 GPUs, 8 per domain → 4 domains, n_NIC = 8.
        let g = CommGroup::new(32, 8);
        let v = 4e9;
        let t = collective_time(Collective::ReduceScatter, v, g, &sys);
        let lat = sys.network.ib_latency * 3.0 + sys.network.nvs_latency * (32.0 - 4.0);
        let bw = sys
            .network
            .effective_ib_bandwidth(8)
            .min(sys.network.effective_nvs_bandwidth());
        let expect = lat + (31.0 / 32.0) * v / bw;
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn allreduce_is_twice_allgather() {
        let sys = b200_nvs8();
        let g = CommGroup::new(16, 8);
        let ag = collective_time(Collective::AllGather, 1e8, g, &sys);
        let ar = collective_time(Collective::AllReduce, 1e8, g, &sys);
        assert!((ar - 2.0 * ag).abs() < 1e-15);
    }

    #[test]
    fn more_gpus_per_domain_aggregate_more_nics() {
        // The Fig. A1 effect: using more GPUs (rings/NICs) per node makes
        // large cross-node collectives faster.
        let sys = b200_nvs8();
        let v = 8e9;
        let t2 = collective_time(Collective::AllGather, v, CommGroup::new(32, 2), &sys);
        let t8 = collective_time(Collective::AllGather, v, CommGroup::new(32, 8), &sys);
        assert!(t8 < t2, "NVL8 {t8} should beat NVL2 {t2}");
    }

    #[test]
    fn nic_aggregation_saturates_at_fast_tier() {
        // With enough NICs, min(n_NIC·β_s, β_f) = β_f: a 64-GPU domain on
        // B200 (64·100 = 6.4 TB/s > 900 GB/s) is NVS-bound.
        let sys = system(GpuGeneration::B200, NvsSize::Nvs64);
        let g = CommGroup::new(128, 64);
        assert_eq!(
            effective_bandwidth(g, &sys),
            sys.network.effective_nvs_bandwidth()
        );
    }

    #[test]
    fn latency_dominates_small_volumes() {
        let sys = b200_nvs8();
        let g = CommGroup::new(64, 8);
        let tiny = collective_time(Collective::AllGather, 8.0, g, &sys);
        let lat = ring_latency(g, &sys);
        assert!((tiny - lat).abs() / lat < 1e-3);
    }

    #[test]
    fn p2p_tier_selection() {
        let sys = b200_nvs8();
        let fast = p2p_time(1e9, true, &sys);
        let slow = p2p_time(1e9, false, &sys);
        assert!(slow > fast);
    }

    #[test]
    fn broadcast_carries_full_volume() {
        let sys = b200_nvs8();
        let g = CommGroup::single_domain(4);
        let v = 1e9;
        let t = collective_time(Collective::Broadcast, v, g, &sys);
        let expect = 3.0 * sys.network.nvs_latency + v / sys.network.effective_nvs_bandwidth();
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn abbreviations() {
        assert_eq!(Collective::AllGather.abbrev(), "AG");
        assert_eq!(Collective::Broadcast.abbrev(), "B");
    }

    #[test]
    fn tree_beats_ring_at_latency_bound_scale() {
        // 1024 GPUs, tiny tensor: ring pays ~1023 hops of latency, the
        // tree ~2·(3 + 7) levels.
        let sys = b200_nvs8();
        let g = CommGroup::new(1024, 8);
        let v = 4096.0;
        let ring = collective_time(Collective::AllReduce, v, g, &sys);
        let tree = allreduce_tree_time(v, g, &sys);
        assert!(tree < ring / 10.0, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn ring_beats_tree_at_bandwidth_bound_scale() {
        // Small group, huge tensor: ring moves 2·(n−1)/n·V, tree 2·V.
        let sys = b200_nvs8();
        let g = CommGroup::single_domain(4);
        let v = 8e9;
        let ring = collective_time(Collective::AllReduce, v, g, &sys);
        let tree = allreduce_tree_time(v, g, &sys);
        assert!(ring < tree, "ring {ring} vs tree {tree}");
    }

    #[test]
    fn auto_picks_the_minimum() {
        let sys = b200_nvs8();
        for (size, per, v) in [(1024u64, 8u64, 4096.0), (4, 4, 8e9), (64, 8, 1e7)] {
            let g = CommGroup::new(size, per);
            let auto = allreduce_auto_time(v, g, &sys);
            let ring = collective_time(Collective::AllReduce, v, g, &sys);
            let tree = allreduce_tree_time(v, g, &sys);
            let hier = allreduce_hierarchical_time(v, g, &sys);
            assert_eq!(auto, ring.min(tree).min(hier));
            assert_eq!(auto, allreduce_time(Algorithm::Auto, v, g, &sys));
        }
    }

    #[test]
    fn allreduce_time_dispatches_per_algorithm() {
        let sys = b200_nvs8();
        let g = CommGroup::new(64, 8);
        let v = 1e8;
        assert_eq!(
            allreduce_time(Algorithm::Ring, v, g, &sys),
            collective_time(Collective::AllReduce, v, g, &sys)
        );
        assert_eq!(
            allreduce_time(Algorithm::Tree, v, g, &sys),
            allreduce_tree_time(v, g, &sys)
        );
        assert_eq!(
            allreduce_time(Algorithm::Hierarchical, v, g, &sys),
            allreduce_hierarchical_time(v, g, &sys)
        );
    }

    #[test]
    fn hierarchical_degenerates_to_ring_at_the_edges() {
        let sys = b200_nvs8();
        // Purely intra-domain: hierarchical == ring AR (2·(lat + (p−1)/p·V/β_f)).
        let intra = CommGroup::single_domain(8);
        let v = 1e9;
        let ring = collective_time(Collective::AllReduce, v, intra, &sys);
        let hier = allreduce_hierarchical_time(v, intra, &sys);
        assert!((hier - ring).abs() / ring < 1e-12, "{hier} vs {ring}");
        // One GPU per domain: the inter phase IS the flat slow ring.
        let flat = CommGroup::new(8, 1);
        let ring = collective_time(Collective::AllReduce, v, flat, &sys);
        let hier = allreduce_hierarchical_time(v, flat, &sys);
        assert!((hier - ring).abs() / ring < 1e-12, "{hier} vs {ring}");
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_many_domain_latency_scale() {
        // 1024 GPUs in 128 domains, small tensor: the flat ring pays
        // ~896 fast hops of latency, the hierarchical algorithm 2·7.
        let sys = b200_nvs8();
        let g = CommGroup::new(1024, 8);
        let v = 1e6;
        let ring = collective_time(Collective::AllReduce, v, g, &sys);
        let hier = allreduce_hierarchical_time(v, g, &sys);
        assert!(hier < ring, "hier {hier} vs ring {ring}");
    }

    #[test]
    fn hierarchical_nic_share_penalizes_undersupplied_domains() {
        let mut sys = b200_nvs8();
        let g = CommGroup::new(64, 8);
        let v = 4e9;
        let full = allreduce_hierarchical_time(v, g, &sys);
        sys.nics_per_node = 2; // 8 concurrent inter-domain rings share 2 NICs
        let shared = allreduce_hierarchical_time(v, g, &sys);
        assert!(shared > full, "shared {shared} vs full {full}");
    }

    #[test]
    fn hierarchical_trivial_cases() {
        let sys = b200_nvs8();
        assert_eq!(
            allreduce_hierarchical_time(1e9, CommGroup::single_domain(1), &sys),
            0.0
        );
        assert_eq!(
            allreduce_hierarchical_time(0.0, CommGroup::new(8, 8), &sys),
            0.0
        );
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Ring.name(), "ring");
        assert_eq!(Algorithm::Auto.name(), "auto");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn tree_trivial_cases() {
        let sys = b200_nvs8();
        assert_eq!(
            allreduce_tree_time(1e9, CommGroup::single_domain(1), &sys),
            0.0
        );
        assert_eq!(allreduce_tree_time(0.0, CommGroup::new(8, 8), &sys), 0.0);
    }

    #[test]
    fn alltoall_trivial_cases() {
        let sys = b200_nvs8();
        for f in [
            alltoall_ring_time as fn(f64, CommGroup, &SystemSpec) -> f64,
            alltoall_pairwise_time,
            alltoall_auto_time,
        ] {
            assert_eq!(f(1e9, CommGroup::single_domain(1), &sys), 0.0);
            assert_eq!(f(0.0, CommGroup::new(8, 8), &sys), 0.0);
        }
    }

    #[test]
    fn alltoall_moves_less_than_allgather() {
        // Same V: A2A redistributes V (each GPU ends with V/n), AG
        // replicates it (each GPU ends with V) — A2A must be cheaper
        // under both algorithms in the bandwidth regime.
        let sys = b200_nvs8();
        let g = CommGroup::new(32, 8);
        let v = 4e9;
        let ag = collective_time(Collective::AllGather, v, g, &sys);
        assert!(alltoall_ring_time(v, g, &sys) < ag);
        assert!(alltoall_pairwise_time(v, g, &sys) < ag);
    }

    #[test]
    fn alltoall_pairwise_beats_ring_at_bandwidth_scale() {
        // Large tensor: the ring forwards chunks through intermediates
        // (V(n−1)/2 per link) while pairwise moves each chunk once.
        let sys = b200_nvs8();
        let g = CommGroup::new(64, 8);
        let v = 8e9;
        let ring = alltoall_ring_time(v, g, &sys);
        let pw = alltoall_pairwise_time(v, g, &sys);
        assert!(pw < ring, "pairwise {pw} vs ring {ring}");
    }

    #[test]
    fn alltoall_ring_beats_pairwise_at_many_domain_latency_scale() {
        // Tiny tensor, many domains: the ring pays d−1 slow hops, the
        // pairwise exchange n−p cross-domain handshakes.
        let sys = b200_nvs8();
        let g = CommGroup::new(256, 8);
        let v = 1024.0;
        let ring = alltoall_ring_time(v, g, &sys);
        let pw = alltoall_pairwise_time(v, g, &sys);
        assert!(ring < pw, "ring {ring} vs pairwise {pw}");
    }

    #[test]
    fn alltoall_auto_and_dispatch_pick_the_minimum() {
        let sys = b200_nvs8();
        for (size, per, v) in [(64u64, 8u64, 8e9), (256, 8, 1024.0), (8, 8, 1e8)] {
            let g = CommGroup::new(size, per);
            let ring = alltoall_ring_time(v, g, &sys);
            let pw = alltoall_pairwise_time(v, g, &sys);
            assert_eq!(alltoall_auto_time(v, g, &sys), ring.min(pw));
            assert_eq!(alltoall_time(Algorithm::Ring, v, g, &sys), ring);
            assert_eq!(alltoall_time(Algorithm::Tree, v, g, &sys), pw);
            assert_eq!(alltoall_time(Algorithm::Hierarchical, v, g, &sys), pw);
            assert_eq!(alltoall_time(Algorithm::Auto, v, g, &sys), ring.min(pw));
            // The generic entry point prices the ring schedule.
            assert_eq!(collective_time(Collective::AllToAll, v, g, &sys), ring);
        }
    }

    #[test]
    fn alltoall_pairwise_nic_share_penalizes_undersupplied_domains() {
        let mut sys = b200_nvs8();
        let g = CommGroup::new(64, 8);
        let v = 4e9;
        let full = alltoall_pairwise_time(v, g, &sys);
        sys.nics_per_node = 2; // 8 GPUs' cross-domain rounds share 2 NICs
        let shared = alltoall_pairwise_time(v, g, &sys);
        assert!(shared > full, "shared {shared} vs full {full}");
    }

    #[test]
    fn alltoall_intra_domain_pairwise_formula() {
        // d = 1: (n−1)·(α_f + chunk/β_f) exactly.
        let sys = b200_nvs8();
        let g = CommGroup::single_domain(8);
        let v = 1e9;
        let t = alltoall_pairwise_time(v, g, &sys);
        let expect =
            7.0 * (sys.network.nvs_latency + v / 64.0 / sys.network.effective_nvs_bandwidth());
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn monotone_in_volume_and_group_size() {
        let sys = b200_nvs8();
        let g = CommGroup::new(16, 8);
        let t1 = collective_time(Collective::AllGather, 1e8, g, &sys);
        let t2 = collective_time(Collective::AllGather, 2e8, g, &sys);
        assert!(t2 > t1);
        let big = collective_time(Collective::AllGather, 1e8, CommGroup::new(32, 8), &sys);
        assert!(big > t1);
    }
}

#[cfg(test)]
mod serde_roundtrip {
    use super::*;

    #[test]
    fn collective_and_group_survive_json() {
        // Sweep EVERY variant (a hand-written list once silently dropped
        // `Reduce`); `Collective::ALL` keeps the sweep exhaustive by
        // construction — six variants since `AllToAll` joined for MoE.
        assert_eq!(Collective::ALL.len(), 6);
        assert!(Collective::ALL.contains(&Collective::AllToAll));
        for coll in Collective::ALL {
            let back: Collective =
                serde_json::from_str(&serde_json::to_string(&coll).unwrap()).unwrap();
            assert_eq!(back, coll);
        }
        let g = CommGroup::new(64, 8);
        let back: CommGroup = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn algorithm_survives_json() {
        for algo in Algorithm::ALL {
            let back: Algorithm =
                serde_json::from_str(&serde_json::to_string(&algo).unwrap()).unwrap();
            assert_eq!(back, algo);
        }
    }
}
