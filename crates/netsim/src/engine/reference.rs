//! The oracle of the engine's differential tests: the plainest form of
//! the event loop, in which a transfer that finds its link busy goes
//! back into the global heap at the instant the link frees and is popped
//! again there. [`assert_matches`] checks the production loop against it
//! bit for bit.

use super::{EventStats, Flow, SimError, SimResult};
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Asserts that `got`, the production engine's result on `flows`, equals
/// the reference loop's bit for bit: completion time, both counters, or
/// the same stall.
pub(crate) fn assert_matches(
    topo: &Topology,
    flows: &[Flow],
    pieces: u64,
    got: &Result<SimResult, SimError>,
) {
    let want = simulate_flows(topo, flows, pieces);
    let bits = |r: &Result<SimResult, SimError>| r.map(|s| (s.time.to_bits(), s.stats));
    assert_eq!(
        bits(got),
        bits(&want),
        "engine diverged from the reference loop: {got:?} vs {want:?} \
         ({} flows, {pieces} pieces)",
        flows.len()
    );
}

/// One pending transfer: piece `piece` of flow `flow` over the link at
/// `path[hop]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    ready: f64,
    flow: u32,
    hop: u32,
    piece: u32,
}

// Total order for the heap: earliest ready time first, deterministic
// tie-breaking on (flow, hop, piece).
impl Eq for Transfer {}
impl Ord for Transfer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready
            .total_cmp(&other.ready)
            .then(self.flow.cmp(&other.flow))
            .then(self.hop.cmp(&other.hop))
            .then(self.piece.cmp(&other.piece))
    }
}
impl PartialOrd for Transfer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates the pipelined execution of `flows` over `topo`, with each
/// flow split into `pieces` pieces. A piece may be forwarded as soon as it
/// has been received (and its cross-flow dependencies have completed);
/// each link carries one piece at a time.
///
/// Returns the completion time of the last piece plus engine stats, or
/// [`SimError::Stalled`] when the flow set cannot run to completion
/// (dependency cycle, dependency on a flow that never runs, or the
/// event-count watchdog tripping).
pub(crate) fn simulate_flows(
    topo: &Topology,
    flows: &[Flow],
    pieces: u64,
) -> Result<SimResult, SimError> {
    let pieces = pieces.max(1) as usize;
    let mut link_free = vec![0.0f64; topo.len()];
    let mut heap: BinaryHeap<Reverse<Transfer>> = BinaryHeap::new();
    let mut stats = EventStats::default();
    let mut finish = 0.0f64;

    // Progress accounting for stall detection. Every piece of every flow
    // crosses every hop of its path exactly once, so the completed
    // schedule executes exactly `expected` transfers; draining the heap
    // short of that means some pieces' gates never opened. The watchdog
    // bounds total heap pops: each pop either executes a transfer or
    // requeues behind a busy link, and a queued transfer requeues at
    // most once per transfer that executes on its link ahead of it, so a
    // healthy run pops O(expected²) events in the worst case — the
    // budget is that with slack; tripping it means the loop is spinning
    // without executing, which the requeue discipline (strictly
    // advancing ready times) should make impossible. It is a defensive
    // backstop; the heap-drain check below is the real detector.
    let expected: u64 = flows
        .iter()
        .map(|f| f.path.len() as u64 * pieces as u64)
        .sum();
    let budget = 1024u64.saturating_add(expected.saturating_mul(expected.saturating_add(4)));
    let mut pops = 0u64;

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
                heap.push(Reverse(Transfer {
                    ready: 0.0,
                    flow: fi as u32,
                    hop: 0,
                    piece: p as u32,
                }));
            }
        }
    }

    while let Some(Reverse(t)) = heap.pop() {
        pops += 1;
        if pops > budget {
            return Err(SimError::Stalled {
                executed: stats.transfers,
                expected,
            });
        }
        let flow = &flows[t.flow as usize];
        let link = flow.path[t.hop as usize];
        let start = t.ready.max(link_free[link as usize]);
        if start > t.ready {
            // Link busy: requeue at the time it becomes free so ordering
            // stays chronological.
            stats.requeues += 1;
            heap.push(Reverse(Transfer { ready: start, ..t }));
            continue;
        }
        let (lat, bw) = topo.link_params(link);
        let piece_bytes = flow.bytes / pieces as f64;
        // The link is occupied for the serialization time only; the hop
        // latency is propagation and delays arrival without blocking the
        // next piece from entering the wire.
        let end = start + lat + piece_bytes / bw;
        link_free[link as usize] = start + piece_bytes / bw;
        stats.transfers += 1;
        finish = finish.max(end);
        if (t.hop as usize) + 1 < flow.path.len() {
            heap.push(Reverse(Transfer {
                ready: end,
                hop: t.hop + 1,
                ..t
            }));
        } else {
            // The piece left the flow's last link: release dependents.
            for &g in &dependents[t.flow as usize] {
                let (gi, pi) = (g as usize, t.piece as usize);
                gate[gi][pi] = gate[gi][pi].max(end);
                pending[gi][pi] -= 1;
                if pending[gi][pi] == 0 {
                    heap.push(Reverse(Transfer {
                        ready: gate[gi][pi],
                        flow: g,
                        hop: 0,
                        piece: t.piece,
                    }));
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
