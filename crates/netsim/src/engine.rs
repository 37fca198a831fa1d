//! The discrete-event engine: pipelined piece transfers over serialized
//! links, with cross-flow dependencies for reduction joins and broadcast
//! chains.

use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
pub(crate) mod reference;

/// A simulation that could not run to completion.
///
/// The engine executes whatever flow set it is given; a flow set whose
/// dependency graph contains a cycle (or a dependency on a flow that
/// never runs) would previously drain the heap silently and report the
/// completion time of whatever *did* run — an undercounted time
/// masquerading as success. Schedule builders inside this crate only
/// emit acyclic graphs, but the engine is also the substrate for
/// externally-scripted scenarios (fault replay, hand-built schedules),
/// so no-progress states are detected and surfaced as typed errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The event loop stopped making progress before every scheduled
    /// transfer executed: the heap drained with pieces still gated on
    /// unmet dependencies (a dependency cycle or a dependency on a
    /// flow that never completes).
    Stalled {
        /// Link transfers actually executed.
        executed: u64,
        /// Link transfers the flow set schedules (`Σ hops · pieces`).
        expected: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { executed, expected } => write!(
                f,
                "simulation stalled: {executed} of {expected} scheduled \
                 transfers executed (dependency cycle or unsatisfiable gate \
                 in the flow set)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Engine counters (useful for tests and for demonstrating that the
/// simulation actually executed the schedule rather than a formula).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Completed link transfers.
    pub transfers: u64,
    /// Times a transfer found its link busy: once if it arrives while
    /// another piece occupies the link, and once more for every piece that
    /// then occupies the link ahead of it. Zero when no two transfers ever
    /// contend.
    pub requeues: u64,
}

impl EventStats {
    /// Accumulates another phase's counters (ring AR = RS + AG phases,
    /// hierarchical AR = three phases, ...).
    pub(crate) fn merge(&mut self, other: EventStats) {
        self.transfers += other.transfers;
        self.requeues += other.requeues;
    }
}

/// Result of one simulated collective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Completion time in seconds.
    pub time: f64,
    /// Engine counters.
    pub stats: EventStats,
}

impl SimResult {
    pub(crate) fn zero() -> Self {
        SimResult {
            time: 0.0,
            stats: EventStats::default(),
        }
    }

    /// Sequential composition of two phases.
    pub(crate) fn then(mut self, next: SimResult) -> Self {
        self.time += next.time;
        self.stats.merge(next.stats);
        self
    }
}

/// A pipelined movement of `bytes` along a path of links.
///
/// Pieces pipeline along the path: piece `p` may enter link `h + 1` as
/// soon as it has left link `h`. Cross-flow dependencies model joins and
/// chains: piece `p` may enter the flow's *first* link only once piece `p`
/// of every flow in `deps` has left that flow's *last* link — a reduce
/// tree's parent edge waits for both child edges (per piece), a broadcast
/// tree's child edge waits for the parent edge.
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    /// Total bytes moved along the path (split into pipeline pieces).
    pub bytes: f64,
    /// Link ids, in traversal order. Must be non-empty.
    pub path: Vec<u32>,
    /// Indices (into the flow slice) of gating flows.
    pub deps: Vec<u32>,
}

impl Flow {
    /// An independent flow (no gating dependencies).
    pub fn new(bytes: f64, path: Vec<u32>) -> Self {
        Self {
            bytes,
            path,
            deps: Vec::new(),
        }
    }

    /// A flow gated (per piece) on the completion of `deps`.
    pub fn after(bytes: f64, path: Vec<u32>, deps: Vec<u32>) -> Self {
        Self { bytes, path, deps }
    }
}

/// Identity of one transfer, piece `piece` of flow `flow` over the link
/// at `path[hop]`, packed as `flow · 2⁶⁴ + hop · 2³² + piece` so that its
/// integer order is `(flow, hop, piece)` order: the engine's tie-break
/// between transfers that contend for a link at the same instant.
type Key = u128;

fn key(flow: u32, hop: u32, piece: u32) -> Key {
    (flow as Key) << 64 | (hop as Key) << 32 | piece as Key
}

fn unpack(key: Key) -> (u32, u32, u32) {
    ((key >> 64) as u32, (key >> 32) as u32, key as u32)
}

/// Marks a link's wake event, whose key is `WAKE | link`. It sits above
/// every transfer key bit, so a wake sorts after every arrival at the
/// same instant.
const WAKE: Key = 1 << 96;

/// An event-heap entry: a transfer arriving at its link, or a link's wake.
/// `time` holds the event time in the integer order of `f64::total_cmp`
/// (see [`total_order`]), so that heap comparisons are integer
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: i64,
    key: Key,
}

impl Event {
    fn new(time: f64, key: Key) -> Self {
        Event {
            time: total_order(time.to_bits() as i64),
            key,
        }
    }

    fn time(self) -> f64 {
        f64::from_bits(total_order(self.time) as u64)
    }
}

/// Maps `f64` bits to an integer whose order is `f64::total_cmp`'s, by
/// flipping the magnitude bits of negative values; its own inverse.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One link's state.
///
/// Transfers that found the link busy wait in `waiting`, lowest key
/// first. While any wait, one live wake event at `free`, the instant the
/// link frees, starts the lowest-keyed waiter once every arrival at that
/// instant has been seen; an arrival at that instant with a smaller key
/// takes the link first. A piece that starts while others wait moves
/// `free`, and with it the wake, past the waiters.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// When the link finishes serializing its current piece.
    free: f64,
    waiting: BinaryHeap<Reverse<Key>>,
}

/// Simulates the pipelined execution of `flows` over `topo`, with each
/// flow split into `pieces` pieces. A piece may be forwarded as soon as it
/// has been received (and its cross-flow dependencies have completed);
/// each link carries one piece at a time, and among transfers ready for
/// a free link the lowest `(flow, hop, piece)` goes first.
///
/// Returns the completion time of the last piece plus engine stats, or
/// [`SimError::Stalled`] when the flow set cannot run to completion
/// (dependency cycle, or dependency on a flow that never runs).
///
/// The loop decides exactly as a loop that sends a transfer finding its
/// link busy back into the event heap at the instant the link frees (the
/// reference the tests compare against), provided no transfer ends at the
/// instant it starts (`end > start`; a positive hop latency suffices).
/// Then nothing is pushed at the current instant, so a wake, ordered after
/// the instant's arrivals, has seen every contender for its link.
pub(crate) fn simulate_flows(
    topo: &Topology,
    flows: &[Flow],
    pieces: u64,
) -> Result<SimResult, SimError> {
    let pieces = pieces.max(1) as usize;
    let mut links = vec![LinkState::default(); topo.len()];
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut stats = EventStats::default();
    let mut finish = 0.0f64;

    // Progress accounting for stall detection. Every piece of every flow
    // crosses every hop of its path exactly once, so the completed
    // schedule executes exactly `expected` transfers; draining the heap
    // short of that means some pieces' gates never opened. The loop needs
    // no watchdog: each transfer enters the heap once, as an arrival, and
    // a wake is pushed only when a queue forms or a piece starts, so a
    // run pops at most `3 · expected` events.
    let expected: u64 = flows
        .iter()
        .map(|f| f.path.len() as u64 * pieces as u64)
        .sum();

    // Dependency bookkeeping: dependents[f] lists the flows gated on f;
    // pending[g][p] counts unmet dependencies of piece p of flow g;
    // gate[g][p] is the latest completion time among met dependencies.
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); flows.len()];
    for (gi, g) in flows.iter().enumerate() {
        debug_assert!(
            !g.path.is_empty() && g.bytes > 0.0,
            "degenerate flow {gi}: schedule builders must not emit empty \
             paths or non-positive volumes"
        );
        for &d in &g.deps {
            dependents[d as usize].push(gi as u32);
        }
    }
    let mut pending: Vec<Vec<usize>> = flows.iter().map(|f| vec![f.deps.len(); pieces]).collect();
    let mut gate: Vec<Vec<f64>> = flows.iter().map(|_| vec![0.0f64; pieces]).collect();

    for (fi, f) in flows.iter().enumerate() {
        if f.deps.is_empty() {
            for p in 0..pieces {
                heap.push(Reverse(Event::new(0.0, key(fi as u32, 0, p as u32))));
            }
        }
    }

    while let Some(Reverse(ev)) = heap.pop() {
        let now = ev.time();
        let woken = ev.key & WAKE != 0;
        let (next, link_id, start) = if woken {
            let link_id = ev.key as u32;
            let link = &mut links[link_id as usize];
            if link.free != now {
                // Stale: an arrival took the link at the instant it freed
                // and moved the wake.
                continue;
            }
            match link.waiting.pop() {
                Some(Reverse(k)) => (k, link_id, now),
                None => continue,
            }
        } else {
            let (fi, hop, _) = unpack(ev.key);
            let link_id = flows[fi as usize].path[hop as usize];
            let link = &mut links[link_id as usize];
            let start = now.max(link.free);
            if start > now {
                // Link busy: wait for it to free.
                stats.requeues += 1;
                if link.waiting.is_empty() {
                    heap.push(Reverse(Event::new(link.free, WAKE | link_id as Key)));
                }
                link.waiting.push(Reverse(ev.key));
                continue;
            }
            if now == link.free && link.waiting.peek().is_some_and(|&Reverse(k)| k < ev.key) {
                // The link frees at this instant and a lower-keyed waiter
                // goes first. This transfer queues behind it; the wake's
                // start counts its requeue with the other waiters'.
                link.waiting.push(Reverse(ev.key));
                continue;
            }
            (ev.key, link_id, start)
        };
        let (fi, hop, piece) = unpack(next);
        let flow = &flows[fi as usize];
        let link = &mut links[link_id as usize];
        let (lat, bw) = topo.link_params(link_id);
        let piece_bytes = flow.bytes / pieces as f64;
        // The link is occupied for the serialization time only; the hop
        // latency is propagation and delays arrival without blocking the
        // next piece from entering the wire.
        let end = start + lat + piece_bytes / bw;
        link.free = start + piece_bytes / bw;
        if !link.waiting.is_empty() {
            if link.free > start {
                // Every waiter finds the link busy once more.
                stats.requeues += link.waiting.len() as u64;
                heap.push(Reverse(Event::new(link.free, WAKE | link_id as Key)));
            } else if woken {
                // A zero-time piece left the link free at this instant:
                // the next waiter goes now too.
                heap.push(Reverse(ev));
            }
        }
        stats.transfers += 1;
        finish = finish.max(end);
        if (hop as usize) + 1 < flow.path.len() {
            heap.push(Reverse(Event::new(end, key(fi, hop + 1, piece))));
        } else {
            // The piece left the flow's last link: release dependents.
            for &g in &dependents[fi as usize] {
                let (gi, pi) = (g as usize, piece as usize);
                gate[gi][pi] = gate[gi][pi].max(end);
                pending[gi][pi] -= 1;
                if pending[gi][pi] == 0 {
                    heap.push(Reverse(Event::new(gate[gi][pi], key(g, 0, piece))));
                }
            }
        }
    }

    if stats.transfers < expected {
        return Err(SimError::Stalled {
            executed: stats.transfers,
            expected,
        });
    }
    Ok(SimResult {
        time: finish,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RingTopology;
    use collectives::CommGroup;
    use systems::{perlmutter, system, GpuGeneration, NvsSize};

    fn topo(size: u64, per_domain: u64) -> Topology {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
        RingTopology::build(CommGroup::new(size, per_domain), &sys).topology()
    }

    /// Ring path starting at `origin` over `hops` consecutive links.
    fn ring_path(n: u64, origin: u64, hops: u64) -> Vec<u32> {
        (0..hops).map(|h| ((origin + h) % n) as u32).collect()
    }

    #[test]
    fn single_hop_single_piece() {
        let t = topo(4, 4);
        let r = simulate_flows(&t, &[Flow::new(1e6, ring_path(4, 0, 1))], 1).unwrap();
        let (lat, bw) = t.link_params(0);
        let expect = lat + 1e6 / bw;
        assert!((r.time - expect).abs() / expect < 1e-12);
        assert_eq!(r.stats.transfers, 1);
    }

    #[test]
    fn pipelining_hides_store_and_forward() {
        // One flow over many hops: with many pieces the total approaches
        // bytes/bw + hops·lat instead of hops·bytes/bw.
        let t = topo(4, 4);
        let flow = [Flow::new(4e6, ring_path(4, 0, 3))];
        let unpipelined = simulate_flows(&t, &flow, 1).unwrap().time;
        let pipelined = simulate_flows(&t, &flow, 64).unwrap().time;
        assert!(pipelined < 0.5 * unpipelined);
        let (lat, bw) = t.link_params(0);
        let floor = 3.0 * lat + 4e6 / bw;
        assert!(pipelined > floor * 0.99);
    }

    #[test]
    fn contention_serializes_a_link() {
        // Two flows entering the same link at once must queue.
        let t = topo(4, 4);
        let one = simulate_flows(&t, &[Flow::new(1e8, ring_path(4, 0, 1))], 1)
            .unwrap()
            .time;
        let both = simulate_flows(
            &t,
            &[
                Flow::new(1e8, ring_path(4, 0, 1)),
                Flow::new(1e8, ring_path(4, 0, 1)),
            ],
            1,
        )
        .unwrap();
        assert!(both.time > 1.9 * one);
        assert!(both.stats.requeues > 0);
    }

    #[test]
    fn slow_hop_dominates_cross_domain() {
        let t = topo(8, 4); // one slow boundary at positions 3 and 7
        let fast_only = simulate_flows(&t, &[Flow::new(8e6, ring_path(8, 0, 3))], 1)
            .unwrap()
            .time;
        let with_slow = simulate_flows(&t, &[Flow::new(8e6, ring_path(8, 0, 4))], 1)
            .unwrap()
            .time;
        let (slow_lat, slow_bw) = t.link_params(3);
        let slow_hop = slow_lat + 8e6 / slow_bw;
        assert!((with_slow - fast_only - slow_hop).abs() / slow_hop < 1e-9);
    }

    #[test]
    fn empty_flow_set_is_free() {
        let t = topo(4, 4);
        assert_eq!(simulate_flows(&t, &[], 4).unwrap().time, 0.0);
    }

    #[test]
    fn dependency_chains_serialize_per_piece() {
        // Flow 1 depends on flow 0 over a disjoint link: with one piece
        // the total is the sum; with many pieces the chain pipelines.
        let t = topo(4, 4);
        let flows = [Flow::new(8e6, vec![0]), Flow::after(8e6, vec![2], vec![0])];
        let (lat, bw) = t.link_params(0);
        let serial = simulate_flows(&t, &flows, 1).unwrap().time;
        let expect = 2.0 * (lat + 8e6 / bw);
        assert!((serial - expect).abs() / expect < 1e-12);
        let pipelined = simulate_flows(&t, &flows, 64).unwrap().time;
        assert!(pipelined < 0.6 * serial, "{pipelined} vs {serial}");
    }

    #[test]
    fn dependency_joins_wait_for_the_slowest() {
        // Flow 2 joins flows 0 (small) and 1 (large) on disjoint links:
        // it cannot start before the larger input has fully arrived.
        let t = topo(4, 4);
        let flows = [
            Flow::new(1e6, vec![0]),
            Flow::new(64e6, vec![1]),
            Flow::after(1e6, vec![2], vec![0, 1]),
        ];
        let r = simulate_flows(&t, &flows, 1).unwrap();
        let (lat, bw) = t.link_params(0);
        let expect = (lat + 64e6 / bw) + (lat + 1e6 / bw);
        assert!((r.time - expect).abs() / expect < 1e-12);
        assert_eq!(r.stats.transfers, 3);
    }

    #[test]
    fn deterministic() {
        let t = topo(8, 4);
        let flows: Vec<Flow> = (0..8).map(|o| Flow::new(3e6, ring_path(8, o, 7))).collect();
        let a = simulate_flows(&t, &flows, 8).unwrap();
        let b = simulate_flows(&t, &flows, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cyclic_dependencies_stall_instead_of_undercounting() {
        // A two-flow dependency cycle: neither piece can ever enter its
        // first link. Before the guard this drained the heap and returned
        // time 0 as if the schedule had completed.
        let t = topo(4, 4);
        let cycle = [
            Flow::after(1e6, vec![0], vec![1]),
            Flow::after(1e6, vec![1], vec![0]),
        ];
        assert_eq!(
            simulate_flows(&t, &cycle, 2),
            Err(SimError::Stalled {
                executed: 0,
                expected: 4,
            })
        );
    }

    #[test]
    fn partial_progress_before_a_stall_is_reported() {
        // One healthy flow plus a three-flow cycle: the healthy flow runs
        // to completion, then the loop stalls with its transfers counted.
        let t = topo(4, 4);
        let flows = [
            Flow::new(1e6, ring_path(4, 0, 2)),
            Flow::after(1e6, vec![2], vec![2]),
            Flow::after(1e6, vec![3], vec![3, 0]),
            Flow::after(1e6, vec![1], vec![1]),
        ];
        let err = simulate_flows(&t, &flows, 4).unwrap_err();
        assert_eq!(
            err,
            SimError::Stalled {
                executed: 8,
                expected: 20,
            }
        );
        assert!(err.to_string().contains("8 of 20"));
    }

    #[test]
    fn self_dependency_stalls() {
        let t = topo(4, 4);
        let flows = [Flow::after(1e6, vec![0], vec![0])];
        assert!(matches!(
            simulate_flows(&t, &flows, 1),
            Err(SimError::Stalled { executed: 0, .. })
        ));
    }

    #[test]
    fn dependency_on_a_gated_never_run_flow_stalls() {
        // Flow 1 waits on flow 0, which itself waits on flow 1: even
        // though the graph is just a 2-cycle reached through an extra
        // healthy dependency level, flow 2 (gated on 1) must stall too —
        // nothing downstream of a cycle ever runs.
        let t = topo(4, 4);
        let flows = [
            Flow::after(1e6, vec![0], vec![1]),
            Flow::after(1e6, vec![1], vec![0]),
            Flow::after(1e6, vec![2], vec![1]),
        ];
        assert!(matches!(
            simulate_flows(&t, &flows, 1),
            Err(SimError::Stalled { executed: 0, .. })
        ));
    }

    /// splitmix64: dependency-free, seeded randomness for the
    /// differential cases.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn matches_the_reference_loop_on_random_flow_sets() {
        // Few distinct volumes and link speeds, so pieces often reach a
        // link at the same instant and the tie-break decides; the tiny
        // volume's pieces serialize in less than a rounding step, leaving
        // the link free at the instant they start; paths up to 2n − 1 hops
        // revisit links; one flow in 16 gets a dependency that may close
        // a cycle.
        let systems = [
            system(GpuGeneration::A100, NvsSize::Nvs4),
            system(GpuGeneration::B200, NvsSize::Nvs8),
            perlmutter(4),
        ];
        let mut rng = SplitMix(0x5EED);
        let (mut contended, mut stalled) = (0, 0);
        for _ in 0..4000 {
            let size = 2 + rng.below(8);
            let divisors: Vec<u64> = (1..=size).filter(|&d| size.is_multiple_of(d)).collect();
            let per_domain = divisors[rng.below(divisors.len() as u64) as usize];
            let sys = &systems[rng.below(systems.len() as u64) as usize];
            let t = RingTopology::build(CommGroup::new(size, per_domain), sys).topology();
            let n_flows = 1 + rng.below(12);
            let flows: Vec<Flow> = (0..n_flows)
                .map(|fi| {
                    let bytes = [1e-12, 1e3, 1e6, 64e6][rng.below(4) as usize];
                    let path = ring_path(size, rng.below(size), 1 + rng.below(2 * size - 1));
                    let mut deps: Vec<u32> = (0..fi)
                        .filter(|_| rng.below(4) == 0)
                        .map(|d| d as u32)
                        .collect();
                    if rng.below(16) == 0 {
                        deps.push(rng.below(n_flows) as u32);
                    }
                    Flow::after(bytes, path, deps)
                })
                .collect();
            let pieces = 1 + rng.below(8);
            let got = simulate_flows(&t, &flows, pieces);
            reference::assert_matches(&t, &flows, pieces, &got);
            match got {
                Ok(r) if r.stats.requeues > 0 => contended += 1,
                Err(_) => stalled += 1,
                Ok(_) => {}
            }
        }
        assert!(
            contended > 1000 && stalled > 100,
            "{contended} contended, {stalled} stalled"
        );
    }
}
