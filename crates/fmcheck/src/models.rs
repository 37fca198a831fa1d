//! fmsched models of three concurrency protocols on the search hot path,
//! each with a *regression twin* re-introducing a historical (or
//! representative) bug so the checker's teeth are themselves tested.
//!
//! | Model | Real code | Claim |
//! |-------|-----------|-------|
//! | [`ShardedMemo`] | `perfmodel::partition::cache::memo_f64` (L2 shard insert race) | racing first-computes of a *pure* function publish bit-identical values; no lost insert; every caller returns the same bits |
//! | [`TopkIncumbent`] | `perfmodel::ord::TopkIncumbent` (the search's k-th-best threshold and best key: mutex k-set, both cells written under the lock, relaxed readers; `k = 1` is the single-optimum incumbent) | threshold and best key are monotone non-increasing; the threshold never falls below the true k-th-best key and ends at the k-th-best published key; the best key ends at the smallest published key; k-th-incumbent pruning never drops a true top-k candidate |
//! | [`ChunkClaim`] | `vendor/rayon` chunk claim/steal (`fetch_add` self-scheduling) | every chunk is claimed exactly once, all slots are filled, and the reassembled output is input-ordered regardless of interleaving |
//!
//! The twins (`impure_compute`, `torn_publish`, `split_claim`)
//! correspond to an earlier duplicate profile build (which was only
//! harmless because the build is pure — the twin shows exactly why
//! purity is load-bearing), a k-th-best threshold published outside the
//! k-set lock with a blind store (a stale maximum raises the threshold),
//! and a read-then-write chunk claim that double-processes chunks. The
//! regression tests in `tests/sched_protocols.rs` assert
//! [`crate::sched::explore`] finds each of them.

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
// Ranked-path k-th-best threshold: locked k-set + published min-threshold
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`TopkIncumbent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopkPc {
    /// Relaxed-read the published threshold for the prune check.
    ReadThreshold,
    /// Insert into the k-set and min-publish the new maximum — one atomic
    /// step, because the real code does both under the k-set mutex.
    Insert,
    /// `torn_publish` twin only: the threshold store escaped the lock and
    /// lands later, blindly.
    StorePublish,
    /// Finished (published or pruned).
    Done,
}

/// Model of the search's shared k-th-best threshold
/// (`perfmodel::ord::TopkIncumbent`; `k = 1` is the single-optimum
/// incumbent): each thread holds one candidate with an admissible lower
/// bound (`lb <= key`); it relaxed-reads the published threshold, gives
/// up if `lb` already exceeds it (the k-th-incumbent prune), otherwise
/// evaluates and, under the k-set lock, inserts its key into the k-best
/// set, lowers the best key to it if it improves, and lowers the
/// threshold to the set's maximum — compare-then-store, never upward.
///
/// Claims, on **every** schedule:
/// * the threshold and the best key are monotone non-increasing, and the
///   threshold never falls below the true k-th-best key over *all*
///   candidates — a stale read can only be conservative
///   ([`crate::sched::Model::check_step`]);
/// * no pruned thread held a true top-k candidate (at least `k` strictly
///   better keys exist), the final threshold equals the k-th-best
///   *published* key exactly, and the final best key equals the smallest
///   published key ([`crate::sched::Model::check_final`]).
///
/// The `torn_publish` twin hoists the threshold store out of the k-set
/// lock and drops the min: a thread computes the set's maximum, stalls,
/// and blindly stores it after a faster thread already published a lower
/// threshold — the threshold moves *up*, re-admitting candidates the
/// tighter threshold had excluded.
#[derive(Debug, Clone)]
pub struct TopkIncumbent {
    /// Regression twin: publish with an out-of-lock blind store instead
    /// of an in-lock monotone min.
    pub torn_publish: bool,
    k: usize,
    /// `(lower_bound, key)` per thread; `lb <= key` is asserted at
    /// construction (admissibility is a documented precondition of the
    /// real code, not something the checker should discover).
    candidates: Vec<(u64, u64)>,
    /// The k best published keys (mutex-serialized in the real code).
    kept: Vec<u64>,
    threshold: u64,
    prev_threshold: u64,
    best: u64,
    prev_best: u64,
    pc: Vec<TopkPc>,
    /// Twin only: the stale maximum awaiting its blind store.
    register: Vec<u64>,
    /// Threads that pruned (for the final claim's bookkeeping).
    pruned: Vec<bool>,
}

impl TopkIncumbent {
    /// One thread per candidate, retaining the `k` best keys. Panics if
    /// `k` is zero, there are fewer than `k` candidates (the threshold
    /// would never publish), or any bound is inadmissible (`lb > key`).
    pub fn new(k: usize, candidates: &[(u64, u64)], torn_publish: bool) -> Self {
        assert!(k > 0, "a zero-k threshold retains nothing");
        assert!(
            candidates.len() >= k,
            "need at least k candidates to ever publish a threshold"
        );
        assert!(
            candidates.iter().all(|&(lb, key)| lb <= key),
            "lower bounds must be admissible (lb <= key): {candidates:?}"
        );
        let n = candidates.len();
        Self {
            torn_publish,
            k,
            candidates: candidates.to_vec(),
            kept: Vec::new(),
            threshold: u64::MAX,
            prev_threshold: u64::MAX,
            best: u64::MAX,
            prev_best: u64::MAX,
            pc: vec![TopkPc::ReadThreshold; n],
            register: vec![0; n],
            pruned: vec![false; n],
        }
    }

    /// Index of the worst (largest) retained key.
    fn worst(&self) -> usize {
        let mut worst = 0;
        for i in 1..self.kept.len() {
            if self.kept[i] > self.kept[worst] {
                worst = i;
            }
        }
        worst
    }
}

impl Model for TopkIncumbent {
    fn name(&self) -> &'static str {
        "topk-incumbent"
    }

    fn threads(&self) -> usize {
        self.candidates.len()
    }

    fn reset(&mut self) {
        self.kept.clear();
        self.threshold = u64::MAX;
        self.prev_threshold = u64::MAX;
        self.best = u64::MAX;
        self.prev_best = u64::MAX;
        self.pc.fill(TopkPc::ReadThreshold);
        self.register.fill(0);
        self.pruned.fill(false);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == TopkPc::Done
    }

    fn step(&mut self, tid: usize) {
        self.prev_threshold = self.threshold;
        self.prev_best = self.best;
        let (lb, key) = self.candidates[tid];
        match self.pc[tid] {
            TopkPc::ReadThreshold => {
                // One relaxed load; pruning on a *stale* threshold is
                // sound because the threshold only decreases.
                if lb > self.threshold {
                    self.pruned[tid] = true;
                    self.pc[tid] = TopkPc::Done;
                } else {
                    self.pc[tid] = TopkPc::Insert;
                }
            }
            TopkPc::Insert => {
                // The k-set update and both cell writes are one atomic
                // step: the real code holds the mutex for all three.
                self.best = self.best.min(key);
                let entered = if self.kept.len() < self.k {
                    self.kept.push(key);
                    true
                } else {
                    let worst = self.worst();
                    if key < self.kept[worst] {
                        self.kept[worst] = key;
                        true
                    } else {
                        false // k-set unchanged, threshold already right
                    }
                };
                if entered && self.kept.len() == self.k {
                    let max = self.kept[self.worst()];
                    if self.torn_publish {
                        // The bug: the store escapes the lock; publish
                        // later, from a register that can go stale.
                        self.register[tid] = max;
                        self.pc[tid] = TopkPc::StorePublish;
                        return;
                    }
                    // Compare-then-store under the lock: monotone by
                    // construction.
                    self.threshold = self.threshold.min(max);
                }
                self.pc[tid] = TopkPc::Done;
            }
            TopkPc::StorePublish => {
                // Blind store of the stale maximum — no min, no CAS.
                self.threshold = self.register[tid];
                self.pc[tid] = TopkPc::Done;
            }
            TopkPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.threshold > self.prev_threshold {
            return Err(format!(
                "threshold moved up: {} -> {} (must be monotone non-increasing)",
                self.prev_threshold, self.threshold
            ));
        }
        if self.best > self.prev_best {
            return Err(format!(
                "best key moved up: {} -> {} (must be monotone non-increasing)",
                self.prev_best, self.best
            ));
        }
        // Admissible floor: the k-set only ever holds published keys, so
        // its maximum — and therefore every published threshold — is at
        // least the true k-th-best key over all candidates.
        let mut keys: Vec<u64> = self.candidates.iter().map(|&(_, key)| key).collect();
        keys.sort_unstable();
        let kth_best = keys[self.k - 1];
        if self.threshold < kth_best {
            return Err(format!(
                "threshold {} fell below the true k-th best {kth_best} \
                 (prunes true top-k candidates)",
                self.threshold
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        // No true top-k candidate pruned: every pruned key is provably
        // outranked by at least k strictly better keys.
        for (tid, &(_, key)) in self.candidates.iter().enumerate() {
            if !self.pruned[tid] {
                continue;
            }
            let outranked = self
                .candidates
                .iter()
                .enumerate()
                .filter(|&(j, &(_, kj))| j != tid && kj < key)
                .count();
            if outranked < self.k {
                return Err(format!(
                    "pruned thread {tid} (key {key}) with only {outranked} strictly \
                     better keys (k = {}): a true top-k candidate was lost",
                    self.k
                ));
            }
        }
        // Convergence: the final threshold is exactly the k-th-best
        // published key (every unpruned thread published).
        let mut published: Vec<u64> = self
            .candidates
            .iter()
            .enumerate()
            .filter(|&(tid, _)| !self.pruned[tid])
            .map(|(_, &(_, key))| key)
            .collect();
        published.sort_unstable();
        let expect = if published.len() >= self.k {
            published[self.k - 1]
        } else {
            u64::MAX
        };
        if self.threshold != expect {
            return Err(format!(
                "final threshold {} != k-th best published key {expect} \
                 (published: {published:?})",
                self.threshold
            ));
        }
        let smallest = published.first().copied().unwrap_or(u64::MAX);
        if self.best != smallest {
            return Err(format!(
                "final best key {} != smallest published key {smallest} \
                 (published: {published:?})",
                self.best
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

    #[test]
    fn topk_incumbent_is_correct_and_twin_is_caught() {
        // A winner, a runner-up, a dominated straggler, and a candidate
        // whose bound prunes against the published threshold.
        let cands = [(2, 9), (1, 4), (3, 12), (10, 11)];
        let r = explore(
            &mut TopkIncumbent::new(2, &cands, false),
            &Budget::default(),
        );
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        let bad = explore(
            &mut TopkIncumbent::new(2, &cands[..3], true),
            &Budget::default(),
        );
        assert!(bad.violation.is_some());
        // k = 1: the single-optimum incumbent.
        let r = explore(
            &mut TopkIncumbent::new(1, &[(5, 10), (1, 3), (2, 7)], false),
            &Budget::default(),
        );
        assert!(r.passed(), "{:?}", r.violation);
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn inadmissible_topk_bounds_are_rejected_at_construction() {
        let _ = TopkIncumbent::new(1, &[(11, 10)], false);
    }
}
