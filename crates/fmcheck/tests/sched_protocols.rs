//! fmsched acceptance suite: the rayon pool's chunk claim verified at a
//! CI-meaningful exploration depth, its regression shape provably
//! *caught*, and the bridge test tying the `chunk-claim` model to the
//! vendored rayon pool that actually runs.
//!
//! This is a dedicated integration binary (not unit tests) because the
//! bridge test installs a process-wide `rayon::sched_hook` observer and
//! must not share a process with other pool users.

use fmcheck::models::ChunkClaim;
use fmcheck::sched::{explore, Budget, ViolationKind};

/// The acceptance floor from the PR issue: the exhaustive explorer must
/// cover at least 10^4 distinct schedules with zero violations.
const SCHEDULE_FLOOR: u64 = 10_000;

#[test]
fn protocols_hold_on_every_schedule_at_acceptance_depth() {
    // 3 workers × 4 chunks through the claim counter.
    let pool = explore(&mut ChunkClaim::new(3, 4, false), &Budget::default());
    assert!(pool.passed(), "chunk-claim: {:?}", pool.violation);
    assert!(pool.exhaustive, "chunk-claim must be explored exhaustively");
    assert!(
        pool.schedules >= SCHEDULE_FLOOR,
        "exhaustive coverage regressed: {} < {SCHEDULE_FLOOR} schedules",
        pool.schedules
    );
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
/// claims `ChunkClaim::check_final` makes about the model. A pool that
/// runs its workers one after another meets both, so the test also
/// asserts that two workers are inside a chunk at the same moment.
#[test]
fn rayon_pool_satisfies_the_chunk_claim_contract() {
    use rayon::prelude::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Workers inside the map closure now, the most ever at once, and
    /// whether a wait for a second worker has timed out.
    #[derive(Default)]
    struct Overlap {
        inside: usize,
        peak: usize,
        gave_up: bool,
    }

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
    // A bounded rendezvous: a worker alone in the closure waits up to
    // 5 s for a second one. After the first timeout nobody waits again,
    // so a pool that never overlaps its workers costs one timeout.
    let overlap = (Mutex::new(Overlap::default()), Condvar::new());
    let meet = |&x: &u64| {
        let (lock, arrived) = &overlap;
        let mut o = lock.lock().expect("no worker panics holding the lock");
        o.inside += 1;
        o.peak = o.peak.max(o.inside);
        arrived.notify_all();
        if o.peak < 2 && !o.gave_up {
            let (guard, wait) = arrived
                .wait_timeout_while(o, Duration::from_secs(5), |o| o.peak < 2)
                .expect("no worker panics holding the lock");
            o = guard;
            o.gave_up |= wait.timed_out();
        }
        o.inside -= 1;
        x * 31 + 7
    };
    let out: Vec<u64> = pool.install(|| input.par_iter().map(meet).collect());
    rayon::sched_hook::clear();

    // Determinism contract: input-ordered, bit-identical to sequential.
    let expect: Vec<u64> = input.iter().map(|&x| x * 31 + 7).collect();
    assert_eq!(out, expect);

    let observed = claims.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !observed.is_empty(),
        "the pool executed in parallel, so claims must be observed"
    );
    let peak = overlap.0.lock().expect("the workers are joined").peak;
    assert!(
        peak >= 2,
        "at most {peak} worker inside a chunk at once: the pool ran its workers one after another"
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
