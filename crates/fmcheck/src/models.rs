//! fmsched models of two concurrency protocols on the search hot path,
//! each with a *regression twin* re-introducing a historical (or
//! representative) bug so the checker's teeth are themselves tested.
//!
//! | Model | Real code | Claim |
//! |-------|-----------|-------|
//! | [`ShardedMemo`] | `perfmodel::partition::cache::memo_f64` (L2 shard insert race) | racing first-computes of a *pure* function publish bit-identical values; no lost insert; every caller returns the same bits |
//! | [`ChunkClaim`] | `vendor/rayon` chunk claim/steal (`fetch_add` self-scheduling) | every chunk is claimed exactly once, all slots are filled, and the reassembled output is input-ordered regardless of interleaving |
//!
//! The twins (`impure_compute`, `split_claim`) correspond to an earlier
//! duplicate profile build (which was only harmless because the build is
//! pure — the twin shows exactly why purity is load-bearing) and a
//! read-then-write chunk claim that double-processes chunks. The
//! regression tests in `tests/sched_protocols.rs` assert
//! [`crate::sched::explore`] finds each of them.
//!
//! The search's k-th-best threshold (`perfmodel::ord::TopkIncumbent`) has
//! no model: the pruned stages run in order on the calling thread, so
//! nothing shares it between threads. Its pruning rule is checked on one
//! thread, by the property test in `perfmodel::ord` and by
//! `tests/pruning_exactness.rs`.

use crate::sched::Model;

/// The pure value `compute` publishes (arbitrary; only identity
/// matters).
const PURE_VALUE: u64 = 0x1234_5678;

// ---------------------------------------------------------------------------
// L2 sharded memo: racing first-computes
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`ShardedMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoPc {
    /// Probe the shared shard under the read lock (one atomic step).
    Probe,
    /// Compute the value outside any lock.
    Compute,
    /// Insert under the write lock (last-write-wins, one atomic step).
    Insert,
    /// Finished; `ret` holds the value returned to the caller.
    Done,
}

/// Model of `memo_f64`'s shared-L2 protocol for one key on one shard:
/// probe under the read lock; on miss, compute outside any lock, then
/// insert under the write lock (last write wins). Mirrors
/// `crates/perfmodel/src/partition/cache.rs`.
///
/// The interesting schedules are the ones where several threads miss the
/// probe *before* any insert lands: all of them compute and all of them
/// insert. The protocol is correct anyway — but only because the
/// computed value is a pure function of the key. Setting
/// `impure_compute` makes the value thread-dependent (the shape a
/// non-deterministic profile build would have) and the checker finds
/// schedules where callers observe different bits.
#[derive(Debug, Clone)]
pub struct ShardedMemo {
    /// Regression twin: computed value depends on the thread id.
    pub impure_compute: bool,
    threads: usize,
    /// The shard's entry for the key (`None` = absent).
    shared: Option<u64>,
    /// Entry was published at some point (append-only check).
    published: bool,
    pc: Vec<MemoPc>,
    /// Per-thread computed value (valid after `Compute`).
    computed: Vec<u64>,
    /// Per-thread value returned to the caller (valid at `Done`).
    ret: Vec<u64>,
}

impl ShardedMemo {
    /// `threads` concurrent callers of `memo_f64` for the same key.
    pub fn new(threads: usize, impure_compute: bool) -> Self {
        Self {
            impure_compute,
            threads,
            shared: None,
            published: false,
            pc: vec![MemoPc::Probe; threads],
            computed: vec![0; threads],
            ret: vec![0; threads],
        }
    }

    fn compute(&self, tid: usize) -> u64 {
        if self.impure_compute {
            // The bug shape: a value that depends on *who* computes it
            // (e.g. a profile build reading ambient mutable state).
            PURE_VALUE + tid as u64
        } else {
            PURE_VALUE
        }
    }
}

impl Model for ShardedMemo {
    fn name(&self) -> &'static str {
        "l2-memo"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn reset(&mut self) {
        self.shared = None;
        self.published = false;
        self.pc.fill(MemoPc::Probe);
        self.computed.fill(0);
        self.ret.fill(0);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == MemoPc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            MemoPc::Probe => match self.shared {
                // Hit: adopt the published bits, done.
                Some(v) => {
                    self.ret[tid] = v;
                    self.pc[tid] = MemoPc::Done;
                }
                None => self.pc[tid] = MemoPc::Compute,
            },
            MemoPc::Compute => {
                self.computed[tid] = self.compute(tid);
                self.pc[tid] = MemoPc::Insert;
            }
            MemoPc::Insert => {
                // Write-lock insert: last write wins. The real map's
                // `insert` overwrites; the caller returns its *own*
                // computed value (exactly like `memo_f64`).
                self.shared = Some(self.computed[tid]);
                self.published = true;
                self.ret[tid] = self.computed[tid];
                self.pc[tid] = MemoPc::Done;
            }
            MemoPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        // Append-only: once published, the entry never disappears.
        if self.published && self.shared.is_none() {
            return Err("published memo entry disappeared".to_string());
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        // No lost insert: at least one thread missed (the key started
        // absent), so the entry must exist afterwards.
        let Some(shared) = self.shared else {
            return Err("no memo entry after all callers finished (lost insert)".to_string());
        };
        // Linearizability-style claim: every caller (and the table)
        // observed one single value.
        let first = self.ret[0];
        if self.ret.iter().any(|&r| r != first) {
            return Err(format!(
                "callers returned different bits: {:?} (memoized value must be \
                 schedule-independent)",
                self.ret
            ));
        }
        if shared != first {
            return Err(format!(
                "table holds {shared:#x} but callers returned {first:#x}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Rayon-pool chunk claim/steal
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`ChunkClaim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkPc {
    /// Claim the next chunk (`fetch_add` in the real pool).
    Claim,
    /// In the `split_claim` twin only: store the incremented counter.
    StoreCounter,
    /// Process the claimed chunk into its result slot.
    Process,
    /// Counter exhausted.
    Done,
}

/// Model of the vendored rayon pool's chunked self-scheduling
/// (`vendor/rayon/src/lib.rs::execute`): workers repeatedly claim the
/// next chunk index off a shared counter with `fetch_add` and write the
/// chunk's result into its own slot; reassembly by chunk id makes the
/// output input-ordered by construction.
///
/// Claims, on every schedule: no chunk is processed twice
/// ([`Model::check_step`]); every chunk is processed exactly once and
/// every slot holds the sequential value — i.e. the reassembled output
/// is interleaving-independent ([`Model::check_final`]).
///
/// The `split_claim` twin separates the claim into a read step and a
/// store step (a non-atomic `next = next + 1`), which lets two workers
/// claim the same chunk.
#[derive(Debug, Clone)]
pub struct ChunkClaim {
    /// Regression twin: read-then-write claim instead of `fetch_add`.
    pub split_claim: bool,
    threads: usize,
    chunks: usize,
    next: usize,
    pc: Vec<ChunkPc>,
    /// Chunk the thread currently holds.
    holding: Vec<usize>,
    /// Times each chunk was processed.
    processed: Vec<u32>,
    /// Result slots (chunk id -> value).
    results: Vec<Option<u64>>,
}

/// The "work" a chunk represents (any injective function of the chunk id
/// works; the checker only compares against the sequential outcome).
fn chunk_value(c: usize) -> u64 {
    (c as u64) * 31 + 7
}

impl ChunkClaim {
    /// `threads` workers self-scheduling over `chunks` chunks.
    pub fn new(threads: usize, chunks: usize, split_claim: bool) -> Self {
        Self {
            split_claim,
            threads,
            chunks,
            next: 0,
            pc: vec![ChunkPc::Claim; threads],
            holding: vec![0; threads],
            processed: vec![0; chunks],
            results: vec![None; chunks],
        }
    }
}

impl Model for ChunkClaim {
    fn name(&self) -> &'static str {
        "chunk-claim"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn reset(&mut self) {
        self.next = 0;
        self.pc.fill(ChunkPc::Claim);
        self.holding.fill(0);
        self.processed.fill(0);
        self.results.fill(None);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == ChunkPc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            ChunkPc::Claim => {
                if self.split_claim {
                    // Bug twin: only *read* the counter here; the
                    // increment lands in a separate step.
                    self.holding[tid] = self.next;
                    self.pc[tid] = if self.next >= self.chunks {
                        ChunkPc::Done
                    } else {
                        ChunkPc::StoreCounter
                    };
                } else {
                    // fetch_add: read + increment in one atomic step.
                    let c = self.next;
                    self.next += 1;
                    if c >= self.chunks {
                        self.pc[tid] = ChunkPc::Done;
                    } else {
                        self.holding[tid] = c;
                        self.pc[tid] = ChunkPc::Process;
                    }
                }
            }
            ChunkPc::StoreCounter => {
                self.next = self.holding[tid] + 1;
                self.pc[tid] = ChunkPc::Process;
            }
            ChunkPc::Process => {
                let c = self.holding[tid];
                self.processed[c] += 1;
                self.results[c] = Some(chunk_value(c));
                self.pc[tid] = ChunkPc::Claim;
            }
            ChunkPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if let Some(c) = self.processed.iter().position(|&n| n > 1) {
            return Err(format!("chunk {c} processed more than once"));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        for c in 0..self.chunks {
            if self.processed[c] != 1 {
                return Err(format!(
                    "chunk {c} processed {} times (must be exactly once)",
                    self.processed[c]
                ));
            }
            // Input-ordered reassembly: slot c holds chunk c's value, so
            // the concatenated output equals the sequential map.
            if self.results[c] != Some(chunk_value(c)) {
                return Err(format!("slot {c} holds {:?}", self.results[c]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, Budget};

    #[test]
    fn memo_is_correct_and_twin_is_caught() {
        let r = explore(&mut ShardedMemo::new(3, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        let bad = explore(&mut ShardedMemo::new(2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }

    #[test]
    fn chunk_claim_is_correct_and_twin_is_caught() {
        let r = explore(&mut ChunkClaim::new(2, 3, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        let bad = explore(&mut ChunkClaim::new(2, 2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }
}
