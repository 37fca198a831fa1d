//! Collective-level simulation built on the flow engine: ring, tree and
//! hierarchical schedules over the generic topology.

use crate::engine::{simulate_flows, Flow, SimResult};
use crate::topology::{LinkKind, RingTopology, Topology, TreeTopology};
use collectives::{Algorithm, Collective, CommGroup};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;

/// Where the root of a rooted collective (Broadcast/Reduce) sits relative
/// to the NVS-domain boundaries of the ring.
///
/// A rooted ring flow traverses `n−1` of the ring's `n` links, skipping
/// exactly one; whether the skipped link is a slow domain boundary depends
/// on the root's position. [`Best`] places the root so a slow link is
/// skipped (a domain *start* for Broadcast, a domain *end* for Reduce),
/// matching the analytic model's `domains − 1` latency charge; [`Worst`]
/// forces every one of the `domains` boundaries onto the path. For
/// one-GPU-per-domain placements every link is slow and the choices
/// coincide.
///
/// [`Best`]: RootPosition::Best
/// [`Worst`]: RootPosition::Worst
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootPosition {
    /// Root adjacent to a domain boundary: the traversal skips one slow
    /// link (the analytic model's assumption, and the default).
    #[default]
    Best,
    /// Root mid-domain: the traversal crosses every slow boundary.
    Worst,
    /// Mean of the best- and worst-case completion times (the expected
    /// cost under a uniformly random root, to within the two extremes).
    Average,
}

/// Simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Pipeline pieces per flow (NCCL chunking). More pieces hide
    /// store-and-forward latency at the cost of more per-piece overhead
    /// events. Rooted and tree collectives move the full tensor through a
    /// multi-hop path, so their store-and-forward error shrinks like
    /// `hops/pieces` — validate them with more pieces than ring AG/RS.
    pub pieces: u64,
    /// Collective algorithm to execute. For AllReduce, `Auto` simulates
    /// ring, tree and hierarchical and reports the fastest, as NCCL's
    /// autotuner would select. For AllToAll, `Ring` runs the
    /// store-and-forward ring, any other explicit choice the direct
    /// pairwise exchange, and `Auto` the faster of the two. The remaining
    /// collectives always run rings (as in NCCL).
    pub algorithm: Algorithm,
    /// Root placement for Broadcast/Reduce.
    pub root: RootPosition,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            pieces: 8,
            // Ring is the default so the validator baseline matches the
            // paper's ring-only analytic model; algorithm selection is
            // exercised explicitly.
            algorithm: Algorithm::Ring,
            root: RootPosition::Best,
        }
    }
}

/// Ring path of `hops` consecutive links starting at `origin`.
fn ring_path(n: u64, origin: u64, hops: u64) -> Vec<u32> {
    (0..hops).map(|h| ((origin + h) % n) as u32).collect()
}

/// Runs a builder-generated flow set. The schedule builders in this
/// module only emit acyclic dependency graphs, so a stall here is an
/// engine or builder bug, not a scenario — externally-scripted flow sets
/// go through the fallible engine entry instead.
///
/// Test builds also replay every schedule through the reference event
/// loop and assert a bit-identical result, so each collective a test
/// simulates doubles as a differential case for the engine.
#[expect(
    clippy::expect_used,
    reason = "builder schedules are acyclic by construction; a stall is an engine bug, per the doc above"
)]
fn run(topo: &Topology, flows: &[Flow], pieces: u64) -> SimResult {
    let result = simulate_flows(topo, flows, pieces);
    #[cfg(test)]
    crate::engine::reference::assert_matches(topo, flows, pieces, &result);
    result.expect("builder schedules are acyclic")
}

/// AllGather/ReduceScatter flows on a lowered ring: every position
/// originates one shard of `vol/n` bytes which travels `n−1` hops
/// (ReduceScatter is the same flow with reduction at each hop).
fn ring_ag_or_rs(topo: &Topology, n: u64, vol: f64, pieces: u64) -> SimResult {
    let flows: Vec<Flow> = (0..n)
        .map(|o| Flow::new(vol / n as f64, ring_path(n, o, n - 1)))
        .collect();
    run(topo, &flows, pieces)
}

/// Ring AllReduce: a ReduceScatter phase followed by an AllGather phase.
/// The two phases execute the identical deterministic schedule, so one is
/// simulated and composed with itself.
fn ring_allreduce(topo: &Topology, n: u64, vol: f64, pieces: u64) -> SimResult {
    let phase = ring_ag_or_rs(topo, n, vol, pieces);
    phase.then(phase)
}

/// Tree AllReduce: pipelined reduce-up then broadcast-down over the
/// domain-major binary tree. Each phase moves the full (per-rail) tensor
/// across every tree edge once; a parent edge's piece waits for the same
/// piece from both child edges (and vice versa on the way down).
fn tree_allreduce(
    group: CommGroup,
    sys: &SystemSpec,
    volume: f64,
    pieces: u64,
    derate: f64,
) -> SimResult {
    let tree = TreeTopology::build(group, sys);
    let mut topo = tree.topology();
    if derate != 1.0 {
        topo.derate_slow(derate);
    }
    let vol = volume / tree.rails as f64;
    let n = tree.size;
    // children[r] lists the ranks whose parent is r.
    let mut children: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for r in 1..n {
        #[expect(
            clippy::expect_used,
            reason = "r ranges over 1..n, and parent() is None only for rank 0"
        )]
        children[tree.parent(r).expect("non-root") as usize].push(r);
    }
    // Flow r − 1 rides edge r − 1 (rank r ↔ its parent) in both phases.
    let reduce: Vec<Flow> = (1..n)
        .map(|r| {
            let deps = children[r as usize]
                .iter()
                .map(|&c| (c - 1) as u32)
                .collect();
            Flow::after(vol, vec![(r - 1) as u32], deps)
        })
        .collect();
    let broadcast: Vec<Flow> = (1..n)
        .map(|r| {
            let deps = match tree.parent(r) {
                Some(p) if p != 0 => vec![(p - 1) as u32],
                _ => Vec::new(),
            };
            Flow::after(vol, vec![(r - 1) as u32], deps)
        })
        .collect();
    run(&topo, &reduce, pieces).then(run(&topo, &broadcast, pieces))
}

/// Hierarchical AllReduce: intra-domain ReduceScatter over the fast tier,
/// inter-domain AllReduce of each GPU's `V/p` shard over the NICs
/// (`per_domain` concurrent rings, one per intra-domain rank index, each
/// over its own NIC — shared when `per_domain > nics_per_node`), then an
/// intra-domain AllGather. One representative ring per phase is simulated.
fn hierarchical_allreduce(
    group: CommGroup,
    sys: &SystemSpec,
    volume: f64,
    pieces: u64,
    derate: f64,
) -> SimResult {
    let p = group.per_domain();
    let d = group.domains();
    let mut total = SimResult::zero();
    if p > 1 {
        // The RS and AG phases run the identical deterministic schedule:
        // simulate once, charge twice.
        let topo = RingTopology::build(CommGroup::single_domain(p), sys).topology();
        let phase = ring_ag_or_rs(&topo, p, volume, pieces);
        total = total.then(phase).then(phase);
    }
    if d > 1 {
        let nic_share = sys.nics_per_node.min(p).max(1) as f64 / p as f64;
        let bw = sys.network.effective_ib_bandwidth(1) * nic_share * derate;
        let mut topo = Topology::new(1);
        for _ in 0..d {
            topo.add_link(LinkKind::Slow, sys.network.ib_latency, bw);
        }
        total = total.then(ring_allreduce(&topo, d, volume / p as f64, pieces));
    }
    total
}

/// Ring AllToAll: every GPU owns `vol/n` and routes a distinct `vol/n²`
/// chunk to each peer along the ring — one flow per `(origin, distance)`
/// pair, store-and-forwarded over `distance` consecutive links. The
/// engine's link serialization reproduces the `V(n−1)/2` aggregate
/// traffic of the analytic [`collectives::alltoall_ring_time`] model, and
/// the longest (distance `n−1`) flows reproduce its shard-traversal
/// latency.
///
/// The `n²` chunks themselves are the pipeline granularity: each flow runs
/// as a single piece (splitting every tiny chunk `pieces` further would
/// multiply the event count by `pieces` for no added fidelity — the
/// schedule already interleaves `n−1` chunks per link).
fn ring_alltoall(topo: &Topology, n: u64, vol: f64) -> SimResult {
    let chunk = vol / (n * n) as f64;
    let flows: Vec<Flow> = (0..n)
        .flat_map(|o| (1..n).map(move |dist| Flow::new(chunk, ring_path(n, o, dist))))
        .collect();
    run(topo, &flows, 1)
}

/// Pairwise-exchange AllToAll: `n−1` rounds for a representative GPU
/// (all GPUs are symmetric), round `r` exchanging the `vol/n²` chunk with
/// the peer at offset `r` — direct over the fabric, no forwarding. On the
/// domain-major layout rounds `1..p` stay intra-domain, the rest cross.
///
/// Each round is a two-hop flow: a private *handshake* link carrying the
/// round's peer latency (infinite bandwidth — latency only), then the
/// GPU's shared egress port for its tier (fast port at `β_f`; slow port
/// at the domain's NIC aggregate divided by the `p` GPUs sharing it, as
/// in the analytic model). Rounds are *blocking* — the classical
/// synchronous pairwise exchange: round `r + 1` is dependency-gated on
/// round `r`'s chunk fully arriving, so every round's handshake latency
/// sits on the critical path and the shared ports serialize the
/// bandwidth terms — the two effects
/// [`collectives::alltoall_pairwise_time`] sums analytically. Each round
/// moves one already-small `V/n²` chunk, so chunks are not split further.
fn pairwise_alltoall(group: CommGroup, sys: &SystemSpec, volume: f64, derate: f64) -> SimResult {
    let n = group.size();
    let p = group.per_domain();
    let chunk = volume / (n * n) as f64;
    let eff = sys.network.bandwidth_efficiency;
    let mut topo = Topology::new(1);
    let fast_port = topo.add_link(LinkKind::Fast, 0.0, sys.network.nvs_bandwidth * eff);
    let nics = sys.nics_per_node.min(p).max(1);
    let slow_bw = sys.network.ib_bandwidth * eff * nics as f64 / p as f64;
    let slow_port = topo.add_link(LinkKind::Slow, 0.0, slow_bw);
    let flows: Vec<Flow> = (1..n)
        .map(|r| {
            let (kind, lat, port) = if r < p {
                (LinkKind::Fast, sys.network.nvs_latency, fast_port)
            } else {
                (LinkKind::Slow, sys.network.ib_latency, slow_port)
            };
            let handshake = topo.add_link(kind, lat, f64::INFINITY);
            let deps = if r == 1 {
                Vec::new()
            } else {
                vec![r as u32 - 2]
            };
            Flow::after(chunk, vec![handshake, port], deps)
        })
        .collect();
    if derate != 1.0 {
        topo.derate_slow(derate);
    }
    run(&topo, &flows, 1)
}

/// Rooted ring flow (Broadcast/Reduce): the full ring volume pipelined
/// through `n−1` links, oriented so the flow leaves the root (Broadcast)
/// or ends at it (Reduce is the time-reverse of Broadcast). The origin
/// encodes the root position: the skipped link is the one entering the
/// origin.
fn rooted_ring(
    topo: &Topology,
    ring: &RingTopology,
    collective: Collective,
    vol: f64,
    root: RootPosition,
    pieces: u64,
) -> SimResult {
    let n = ring.size;
    let origin_of = |pos: RootPosition| -> u64 {
        match pos {
            RootPosition::Best => match collective {
                // Broadcast root 0 (a domain start): the path skips link
                // n−1, the last domain's slow exit.
                Collective::Broadcast => 0,
                // Reduce root per_domain − 1 (a domain end): the flow from
                // origin per_domain ends at the root, skipping its slow
                // exit link.
                _ => ring.per_domain % n,
            },
            // Origin 1 skips link 0 (fast whenever per_domain > 1), so the
            // path crosses every slow boundary.
            RootPosition::Worst => 1 % n,
            RootPosition::Average => unreachable!("handled by caller"),
        }
    };
    match root {
        RootPosition::Average => {
            let best = rooted_ring(topo, ring, collective, vol, RootPosition::Best, pieces);
            let worst = rooted_ring(topo, ring, collective, vol, RootPosition::Worst, pieces);
            SimResult {
                time: 0.5 * (best.time + worst.time),
                // Both runs execute the same schedule shape; report the
                // worst case's counters.
                stats: worst.stats,
            }
        }
        pos => {
            let flows = [Flow::new(vol, ring_path(n, origin_of(pos), n - 1))];
            run(topo, &flows, pieces)
        }
    }
}

/// Simulates `collective` moving a tensor of `volume` total bytes over
/// `group` on `sys`, returning the completion time of the slowest rail.
///
/// Rail set and per-rail volumes follow NCCL: one ring/tree per engaged
/// NIC, each carrying an equal slice. All rails are statistically
/// identical (they differ only in which NIC carries the inter-node hops),
/// so one rail is simulated and its stats reported. The AllReduce
/// algorithm is selected by [`SimOptions::algorithm`]; other collectives
/// always execute ring schedules (as in NCCL).
pub fn simulate_collective(
    collective: Collective,
    volume: f64,
    group: CommGroup,
    sys: &SystemSpec,
    opts: &SimOptions,
) -> SimResult {
    simulate_impl(collective, volume, group, sys, opts, 1.0)
}

/// [`simulate_collective`] on a *degraded* fabric: every slow-tier link
/// is lowered at `slow_derate` times its nominal bandwidth (latencies
/// unchanged) before the schedule runs — the netsim lowering of a link-
/// degradation fault (`ReliabilitySpec::link_degradation` in the
/// `systems` crate). `slow_derate = 1.0` is bit-identical to the
/// undegraded simulation; the fault-replay harness in `trainsim` uses
/// the ratio of the two to price degraded iterations.
pub fn simulate_collective_derated(
    collective: Collective,
    volume: f64,
    group: CommGroup,
    sys: &SystemSpec,
    opts: &SimOptions,
    slow_derate: f64,
) -> SimResult {
    assert!(slow_derate > 0.0, "derate factor must be positive");
    simulate_impl(collective, volume, group, sys, opts, slow_derate)
}

fn simulate_impl(
    collective: Collective,
    volume: f64,
    group: CommGroup,
    sys: &SystemSpec,
    opts: &SimOptions,
    derate: f64,
) -> SimResult {
    let n = group.size();
    if n <= 1 || volume <= 0.0 {
        return SimResult::zero();
    }
    if collective == Collective::AllReduce {
        return match opts.algorithm {
            Algorithm::Ring => {
                let ring = RingTopology::build(group, sys);
                let mut topo = ring.topology();
                if derate != 1.0 {
                    topo.derate_slow(derate);
                }
                ring_allreduce(&topo, n, volume / topo.rails as f64, opts.pieces)
            }
            Algorithm::Tree => tree_allreduce(group, sys, volume, opts.pieces, derate),
            Algorithm::Hierarchical => {
                hierarchical_allreduce(group, sys, volume, opts.pieces, derate)
            }
            #[expect(
                clippy::expect_used,
                reason = "min_by over a non-empty array literal is always Some"
            )]
            Algorithm::Auto => {
                // NCCL-style autotuning: execute all three, keep the
                // fastest (deterministic tie-break on the listed order).
                let ring = simulate_impl(
                    collective,
                    volume,
                    group,
                    sys,
                    &SimOptions {
                        algorithm: Algorithm::Ring,
                        ..*opts
                    },
                    derate,
                );
                let tree = tree_allreduce(group, sys, volume, opts.pieces, derate);
                let hier = hierarchical_allreduce(group, sys, volume, opts.pieces, derate);
                [ring, tree, hier]
                    .into_iter()
                    .min_by(|a, b| a.time.total_cmp(&b.time))
                    .expect("three candidates")
            }
        };
    }
    if collective == Collective::AllToAll {
        return match opts.algorithm {
            Algorithm::Ring => {
                let ring = RingTopology::build(group, sys);
                let mut topo = ring.topology();
                if derate != 1.0 {
                    topo.derate_slow(derate);
                }
                ring_alltoall(&topo, n, volume / topo.rails as f64)
            }
            // Tree/hierarchical schedules do not exist for AllToAll; the
            // non-ring schedule is the direct pairwise exchange (as in the
            // analytic `alltoall_time` dispatch).
            Algorithm::Tree | Algorithm::Hierarchical => {
                pairwise_alltoall(group, sys, volume, derate)
            }
            Algorithm::Auto => {
                let ring = RingTopology::build(group, sys);
                let mut topo = ring.topology();
                if derate != 1.0 {
                    topo.derate_slow(derate);
                }
                let rr = ring_alltoall(&topo, n, volume / topo.rails as f64);
                let pw = pairwise_alltoall(group, sys, volume, derate);
                if pw.time <= rr.time {
                    pw
                } else {
                    rr
                }
            }
        };
    }
    let ring = RingTopology::build(group, sys);
    let mut topo = ring.topology();
    if derate != 1.0 {
        topo.derate_slow(derate);
    }
    let rail_volume = volume / topo.rails as f64;
    match collective {
        Collective::AllGather | Collective::ReduceScatter => {
            ring_ag_or_rs(&topo, n, rail_volume, opts.pieces)
        }
        Collective::Broadcast | Collective::Reduce => rooted_ring(
            &topo,
            &ring,
            collective,
            rail_volume,
            opts.root,
            opts.pieces,
        ),
        Collective::AllReduce | Collective::AllToAll => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::{perlmutter, system, GpuGeneration, NvsSize};

    fn a100_nvs4() -> SystemSpec {
        system(GpuGeneration::A100, NvsSize::Nvs4)
    }

    #[test]
    fn trivial_cases_are_free() {
        let sys = a100_nvs4();
        let opts = SimOptions::default();
        let g1 = CommGroup::single_domain(1);
        assert_eq!(
            simulate_collective(Collective::AllGather, 1e9, g1, &sys, &opts).time,
            0.0
        );
        let g = CommGroup::new(8, 4);
        assert_eq!(
            simulate_collective(Collective::AllGather, 0.0, g, &sys, &opts).time,
            0.0
        );
        for algo in Algorithm::ALL {
            let o = SimOptions {
                algorithm: algo,
                ..opts
            };
            assert_eq!(
                simulate_collective(Collective::AllReduce, 1e9, g1, &sys, &o).time,
                0.0
            );
        }
    }

    #[test]
    fn time_scales_linearly_in_volume_at_large_volume() {
        let sys = a100_nvs4();
        let g = CommGroup::new(16, 4);
        let opts = SimOptions::default();
        let t1 = simulate_collective(Collective::AllGather, 1e9, g, &sys, &opts).time;
        let t4 = simulate_collective(Collective::AllGather, 4e9, g, &sys, &opts).time;
        let ratio = t4 / t1;
        assert!(ratio > 3.6 && ratio < 4.4, "ratio {ratio}");
    }

    #[test]
    fn broadcast_cheaper_than_allgather_per_byte_received() {
        // Broadcast moves V over each link once; AG moves (n−1)/n·V but
        // from n concurrent origins — for the same V they should be
        // comparable, broadcast within ~1.5× of AG.
        let sys = a100_nvs4();
        let g = CommGroup::new(8, 4);
        let opts = SimOptions::default();
        let ag = simulate_collective(Collective::AllGather, 1e9, g, &sys, &opts).time;
        let bc = simulate_collective(Collective::Broadcast, 1e9, g, &sys, &opts).time;
        assert!(bc < 1.6 * ag && bc > 0.5 * ag, "ag {ag} bc {bc}");
    }

    #[test]
    fn transfer_counts_match_schedule() {
        let sys = a100_nvs4();
        let opts = SimOptions {
            pieces: 2,
            ..SimOptions::default()
        };
        let g = CommGroup::new(4, 4);
        let r = simulate_collective(Collective::AllGather, 1e8, g, &sys, &opts);
        // n flows × (n−1) hops × pieces = 4·3·2 = 24 transfers.
        assert_eq!(r.stats.transfers, 24);
    }

    #[test]
    fn tree_transfer_counts_match_schedule() {
        let sys = a100_nvs4();
        let opts = SimOptions {
            pieces: 2,
            algorithm: Algorithm::Tree,
            ..SimOptions::default()
        };
        let g = CommGroup::new(8, 4);
        let r = simulate_collective(Collective::AllReduce, 1e8, g, &sys, &opts);
        // (n−1) edges × pieces, up and down: 2·7·2 = 28 transfers.
        assert_eq!(r.stats.transfers, 28);
    }

    #[test]
    fn alltoall_transfer_counts_match_schedules() {
        let sys = a100_nvs4();
        let g = CommGroup::new(4, 4);
        let opts = SimOptions {
            pieces: 2,
            ..SimOptions::default()
        };
        let r = simulate_collective(Collective::AllToAll, 1e8, g, &sys, &opts);
        // Ring routing (single-piece chunks): Σ over origins and
        // distances of the distance = 4·(1+2+3) = 24 transfers.
        assert_eq!(r.stats.transfers, 24);
        let pw = simulate_collective(
            Collective::AllToAll,
            1e8,
            g,
            &sys,
            &SimOptions {
                algorithm: Algorithm::Tree,
                ..opts
            },
        );
        // Pairwise: n−1 blocking rounds × 2 hops (handshake + port) = 6.
        assert_eq!(pw.stats.transfers, 6);
    }

    #[test]
    fn alltoall_trivial_cases_are_free() {
        let sys = a100_nvs4();
        for algorithm in Algorithm::ALL {
            let o = SimOptions {
                algorithm,
                ..SimOptions::default()
            };
            assert_eq!(
                simulate_collective(
                    Collective::AllToAll,
                    1e9,
                    CommGroup::single_domain(1),
                    &sys,
                    &o
                )
                .time,
                0.0
            );
            assert_eq!(
                simulate_collective(Collective::AllToAll, 0.0, CommGroup::new(8, 4), &sys, &o).time,
                0.0
            );
        }
    }

    #[test]
    fn nvl_aggregation_effect_matches_fig_a1() {
        // On the Perlmutter profile the 4-GPU/node config should beat the
        // 2-GPU/node config by roughly the NIC ratio at large volume.
        let opts = SimOptions::default();
        let t2 = simulate_collective(
            Collective::AllGather,
            8e9,
            CommGroup::new(32, 2),
            &perlmutter(2),
            &opts,
        )
        .time;
        let t4 = simulate_collective(
            Collective::AllGather,
            8e9,
            CommGroup::new(32, 4),
            &perlmutter(4),
            &opts,
        )
        .time;
        let ratio = t2 / t4;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn tree_beats_ring_at_latency_bound_scale_in_simulation() {
        // Many domains, tiny tensor: the ring pays n−1 latency hops, the
        // tree 2·depth.
        let sys = a100_nvs4();
        let g = CommGroup::new(64, 4);
        let base = SimOptions::default();
        let v = 4096.0;
        let ring = simulate_collective(Collective::AllReduce, v, g, &sys, &base).time;
        let tree = simulate_collective(
            Collective::AllReduce,
            v,
            g,
            &sys,
            &SimOptions {
                algorithm: Algorithm::Tree,
                ..base
            },
        )
        .time;
        assert!(tree < 0.5 * ring, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn auto_simulates_the_fastest_algorithm() {
        let sys = a100_nvs4();
        let base = SimOptions::default();
        for (size, per, v) in [(64u64, 4u64, 4096.0), (8, 4, 1e9), (32, 4, 1e7)] {
            let g = CommGroup::new(size, per);
            let times: Vec<f64> = [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical]
                .into_iter()
                .map(|algorithm| {
                    simulate_collective(
                        Collective::AllReduce,
                        v,
                        g,
                        &sys,
                        &SimOptions { algorithm, ..base },
                    )
                    .time
                })
                .collect();
            let auto = simulate_collective(
                Collective::AllReduce,
                v,
                g,
                &sys,
                &SimOptions {
                    algorithm: Algorithm::Auto,
                    ..base
                },
            )
            .time;
            let min = times.iter().cloned().fold(f64::MAX, f64::min);
            assert!((auto - min).abs() < 1e-15, "auto {auto} vs min {min}");
        }
    }

    #[test]
    fn root_position_orders_rooted_collectives() {
        let sys = a100_nvs4();
        let g = CommGroup::new(16, 4);
        let v = 1e6; // latency-visible volume
        for coll in [Collective::Broadcast, Collective::Reduce] {
            let t = |root: RootPosition| {
                simulate_collective(
                    coll,
                    v,
                    g,
                    &sys,
                    &SimOptions {
                        root,
                        pieces: 64,
                        ..SimOptions::default()
                    },
                )
                .time
            };
            let (best, worst, avg) = (
                t(RootPosition::Best),
                t(RootPosition::Worst),
                t(RootPosition::Average),
            );
            assert!(best < worst, "{coll:?}: best {best} vs worst {worst}");
            assert!((avg - 0.5 * (best + worst)).abs() < 1e-15);
        }
    }

    #[test]
    fn derated_simulation_slows_cross_domain_collectives() {
        // Halving every slow link's bandwidth at bandwidth-dominated
        // volume roughly doubles the slow-tier-bound completion time;
        // derate 1.0 is bit-identical to the plain simulation — for every
        // algorithm, including the autotuned ones.
        let sys = a100_nvs4();
        let g = CommGroup::new(16, 4);
        for (coll, algorithm) in [
            (Collective::AllGather, Algorithm::Ring),
            (Collective::AllReduce, Algorithm::Ring),
            (Collective::AllReduce, Algorithm::Tree),
            (Collective::AllReduce, Algorithm::Hierarchical),
            (Collective::AllReduce, Algorithm::Auto),
            (Collective::AllToAll, Algorithm::Auto),
        ] {
            let opts = SimOptions {
                algorithm,
                ..SimOptions::default()
            };
            let base = simulate_collective(coll, 1e9, g, &sys, &opts);
            let same = simulate_collective_derated(coll, 1e9, g, &sys, &opts, 1.0);
            assert_eq!(
                base, same,
                "{coll:?}/{algorithm:?}: derate 1 must be identity"
            );
            let slow = simulate_collective_derated(coll, 1e9, g, &sys, &opts, 0.5);
            assert!(
                slow.time > base.time,
                "{coll:?}/{algorithm:?}: {} !> {}",
                slow.time,
                base.time
            );
        }
        // The ring AllGather is slow-tier bound at this shape: derating to
        // half bandwidth should land near 2× (within pipelining slack).
        let base = simulate_collective(Collective::AllGather, 1e9, g, &sys, &SimOptions::default());
        let slow = simulate_collective_derated(
            Collective::AllGather,
            1e9,
            g,
            &sys,
            &SimOptions::default(),
            0.5,
        );
        let ratio = slow.time / base.time;
        assert!(ratio > 1.6 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn intra_domain_collectives_ignore_slow_derate() {
        // No slow links in a single-domain group: derating is a no-op.
        let sys = a100_nvs4();
        let g = CommGroup::single_domain(4);
        let opts = SimOptions::default();
        let base = simulate_collective(Collective::AllGather, 1e9, g, &sys, &opts);
        let derated = simulate_collective_derated(Collective::AllGather, 1e9, g, &sys, &opts, 0.1);
        assert_eq!(base, derated);
    }

    #[test]
    fn root_position_is_moot_per_domain_one() {
        let sys = a100_nvs4();
        let g = CommGroup::new(8, 1); // every link slow: all roots equal
        let t = |root: RootPosition| {
            simulate_collective(
                Collective::Broadcast,
                1e6,
                g,
                &sys,
                &SimOptions {
                    root,
                    ..SimOptions::default()
                },
            )
            .time
        };
        let (best, worst) = (t(RootPosition::Best), t(RootPosition::Worst));
        assert!((best - worst).abs() < 1e-15);
    }

    #[test]
    fn every_schedule_matches_the_reference_loop() {
        // `run` checks each schedule against the reference event loop in
        // test builds; this sweep hands it every builder. The algorithm
        // steers only AllReduce and AllToAll, the root only Broadcast and
        // Reduce.
        use Collective::{AllReduce, AllToAll, Broadcast, Reduce};
        let every_root = [
            RootPosition::Best,
            RootPosition::Worst,
            RootPosition::Average,
        ];
        for (size, per_domain) in [(2u64, 2u64), (6, 2), (8, 1), (8, 4)] {
            let g = CommGroup::new(size, per_domain);
            for sys in [a100_nvs4(), perlmutter(per_domain)] {
                for collective in Collective::ALL {
                    let algorithms: &[Algorithm] = match collective {
                        AllReduce | AllToAll => &Algorithm::ALL,
                        _ => &[Algorithm::Ring],
                    };
                    let roots: &[RootPosition] = match collective {
                        Broadcast | Reduce => &every_root,
                        _ => &[RootPosition::Best],
                    };
                    for &algorithm in algorithms {
                        for &root in roots {
                            for pieces in [1, 8, 64] {
                                let opts = SimOptions {
                                    pieces,
                                    algorithm,
                                    root,
                                };
                                for derate in [1.0, 0.5] {
                                    simulate_collective_derated(
                                        collective, 1e8, g, &sys, &opts, derate,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
