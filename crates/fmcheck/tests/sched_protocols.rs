//! fmsched acceptance suite: the three real protocols verified at
//! CI-meaningful exploration depths, the historical regression shapes
//! provably *caught*, and the bridge test tying the `chunk-claim`
//! model to the vendored rayon pool that actually runs.
//!
//! This is a dedicated integration binary (not unit tests) because the
//! bridge test installs a process-wide `rayon::sched_hook` observer and
//! must not share a process with other pool users.

use fmcheck::models::{ChunkClaim, ShardedMemo, TopkIncumbent};
use fmcheck::sched::{explore, Budget, ViolationKind};

/// The acceptance floor from the PR issue: the exhaustive explorer must
/// cover at least 10^4 distinct schedules with zero violations.
const SCHEDULE_FLOOR: u64 = 10_000;

#[test]
fn protocols_hold_on_every_schedule_at_acceptance_depth() {
    // 3 callers racing the memo: every interleaving of probe/compute/
    // insert, including the all-miss duplicate-compute fan.
    let memo = explore(&mut ShardedMemo::new(3, false), &Budget::default());
    assert!(memo.passed(), "l2-memo: {:?}", memo.violation);
    assert!(memo.exhaustive, "l2-memo must be explored exhaustively");

    // 3 candidates through the threshold at k = 1, the single-optimum
    // incumbent: a bound that prunes against the winner, a winning
    // candidate, and a dominated one racing the publish.
    let cands = [(2, 9), (1, 4), (3, 12)];
    let inc = explore(
        &mut TopkIncumbent::new(1, &cands, false),
        &Budget::default(),
    );
    assert!(inc.passed(), "topk-incumbent k=1: {:?}", inc.violation);
    assert!(
        inc.exhaustive,
        "topk-incumbent k=1 must be explored exhaustively"
    );

    // 4 candidates through the k-th-best threshold with k = 2: a
    // winner, a runner-up, a dominated straggler, and one whose
    // admissible bound prunes against the published threshold on the
    // schedules where it arrives late.
    let topk_cands = [(2, 9), (1, 4), (3, 12), (10, 11)];
    let topk = explore(
        &mut TopkIncumbent::new(2, &topk_cands, false),
        &Budget::default(),
    );
    assert!(topk.passed(), "topk-incumbent: {:?}", topk.violation);
    assert!(
        topk.exhaustive,
        "topk-incumbent must be explored exhaustively"
    );

    // 3 workers × 4 chunks through the claim counter.
    let pool = explore(&mut ChunkClaim::new(3, 4, false), &Budget::default());
    assert!(pool.passed(), "chunk-claim: {:?}", pool.violation);
    assert!(pool.exhaustive, "chunk-claim must be explored exhaustively");

    let total = memo.schedules + inc.schedules + topk.schedules + pool.schedules;
    assert!(
        total >= SCHEDULE_FLOOR,
        "exhaustive coverage regressed: {total} < {SCHEDULE_FLOOR} schedules \
         (memo {}, incumbent {}, topk {}, pool {})",
        memo.schedules,
        inc.schedules,
        topk.schedules,
        pool.schedules
    );
}

/// Historical regression 1 (pre-PR-6 shape): the shared profile cache
/// built profiles under a non-deterministic race where the *value* could
/// depend on which thread computed it. The memo protocol is only correct
/// because computes are pure — re-injecting an impure compute must
/// produce a schedule where callers observe different bits.
#[test]
fn regression_duplicate_profile_build_is_caught() {
    let r = explore(&mut ShardedMemo::new(2, true), &Budget::default());
    let v = r.violation.expect("impure memo compute must be caught");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(
        v.message.contains("different bits") || v.message.contains("callers returned"),
        "unexpected violation: {}",
        v.message
    );
    // The counterexample is a real schedule, replayable by hand: both
    // threads must have probed before either inserted.
    assert!(v.schedule.len() >= 4, "counterexample too short: {v:?}");
}

/// Seeded regression for the ranked path: a k-th-best threshold store
/// hoisted out of the k-set lock (and stripped of its monotone min) lets
/// a stale maximum overwrite a lower threshold published in between —
/// the threshold moves *up*, re-admitting candidates a tighter threshold
/// had excluded. The monotonicity invariant must catch it on some
/// schedule.
#[test]
fn regression_torn_topk_publish_is_caught() {
    let cands = [(2, 9), (1, 4), (3, 12)];
    let r = explore(&mut TopkIncumbent::new(2, &cands, true), &Budget::default());
    let v = r
        .violation
        .expect("torn top-k threshold publish must be caught");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(
        v.message.contains("moved up") || v.message.contains("k-th best"),
        "unexpected violation: {}",
        v.message
    );
    // The counterexample is a real schedule: two threads must have
    // entered the k-set before either stale store landed.
    assert!(v.schedule.len() >= 4, "counterexample too short: {v:?}");
}

/// A split (read-then-write) chunk claim double-processes chunks — the
/// bug `fetch_add` exists to prevent.
#[test]
fn regression_split_chunk_claim_is_caught() {
    let r = explore(&mut ChunkClaim::new(2, 3, true), &Budget::default());
    let v = r.violation.expect("split claim must be caught");
    assert_eq!(v.kind, ViolationKind::Invariant);
}

/// Bridge test: the `chunk-claim` model's invariants, asserted against
/// the *real* vendored rayon pool via its `sched_hook` observation
/// point. Every chunk the pool claims is witnessed exactly once, and the
/// pool's reassembled output equals the sequential map — the same two
/// claims `ChunkClaim::check_final` makes about the model.
#[test]
fn rayon_pool_satisfies_the_chunk_claim_contract() {
    use rayon::prelude::*;
    use std::sync::Mutex;

    let claims: &'static Mutex<Vec<(usize, usize)>> = Box::leak(Box::new(Mutex::new(Vec::new())));
    rayon::sched_hook::set(Box::new(|chunk, chunks| {
        claims
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((chunk, chunks));
    }));

    // Big enough that chunk_count > thread count, so workers steal.
    let input: Vec<u64> = (0..4096).collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");
    let out: Vec<u64> = pool.install(|| input.par_iter().map(|&x| x * 31 + 7).collect());
    rayon::sched_hook::clear();

    // Determinism contract: input-ordered, bit-identical to sequential.
    let expect: Vec<u64> = input.iter().map(|&x| x * 31 + 7).collect();
    assert_eq!(out, expect);

    let observed = claims.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !observed.is_empty(),
        "the pool executed in parallel, so claims must be observed"
    );
    let chunks = observed[0].1;
    assert!(
        observed.iter().all(|&(_, n)| n == chunks),
        "all claims belong to one execute() call"
    );
    // Exactly-once coverage: each of the `chunks` chunk ids claimed once.
    let mut counts = vec![0u32; chunks];
    for &(c, _) in observed.iter() {
        assert!(c < chunks, "claimed chunk {c} out of range {chunks}");
        counts[c] += 1;
    }
    assert!(
        counts.iter().all(|&n| n == 1),
        "chunk claimed a wrong number of times: {counts:?}"
    );

    // And the model of that protocol agrees, exhaustively.
    let model_chunks = chunks.min(4);
    let r = explore(
        &mut ChunkClaim::new(2, model_chunks, false),
        &Budget::default(),
    );
    assert!(
        r.passed(),
        "model disagrees with the pool: {:?}",
        r.violation
    );
}
