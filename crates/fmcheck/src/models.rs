//! The fmsched model of the concurrency protocol on the search hot path,
//! with a *regression twin* that re-introduces a representative bug, so
//! the checker's teeth are themselves tested.
//!
//! | Model | Real code | Claim |
//! |-------|-----------|-------|
//! | [`ChunkClaim`] | `vendor/rayon` chunk claim/steal (`fetch_add` self-scheduling) | every chunk is claimed exactly once, all slots are filled, and the reassembled output is input-ordered regardless of interleaving |
//!
//! The twin (`split_claim`) is a read-then-write chunk claim that
//! double-processes chunks. The regression test in
//! `tests/sched_protocols.rs` asserts [`crate::sched::explore`] finds it.
//!
//! Two protocols have no model, because nothing races in them any more.
//! The search's k-th-best threshold (`perfmodel::ord::TopkIncumbent`) is
//! single-thread state: the pruned stages run in order on the calling
//! thread. Its pruning rule is checked on one thread, by the property test
//! in `perfmodel::ord` and by `tests/pruning_exactness.rs`. The pricing
//! memo (`perfmodel::partition::cache::memo_f64`) computes and inserts a
//! missed key while it holds its shard's mutex, so each key is computed
//! once; its unit test `racing_first_probes_compute_once` drives the real
//! function from four threads.

use crate::sched::Model;

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
    fn chunk_claim_is_correct_and_twin_is_caught() {
        let r = explore(&mut ChunkClaim::new(2, 3, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        let bad = explore(&mut ChunkClaim::new(2, 2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }
}
