//! Profile sharing across partition candidates (the search's S1 → S2
//! hand-off), and the search's profiling counters and pricing memo.
//!
//! A [`crate::plan::LayerProfile`] depends only on the TP tuple
//! `(strategy, n1, n2, microbatch, summa_panels, ep)` for a fixed model
//! and GPU — not on `np`, `nd`, interleaving, ZeRO-3 or the NVS
//! placement. The one profile build, `build_profiles`, therefore builds
//! one profile per distinct tuple of an enumeration and hands back each
//! candidate's index into them, so the whole `(np, nd, interleave, zero3,
//! placement)` inner space shares it. The planner's space store
//! (`crate::planner`) keeps the profiles, with their pass fingerprints,
//! for each space it holds.
//!
//! # Key invariants
//!
//! * `summa_panels` only reaches [`build_profile`] under
//!   [`TpStrategy::Summa`]; keys normalize it to 1 for the other
//!   strategies so aliases cannot build duplicate profiles.
//! * `n2` is 1 for [`TpStrategy::OneD`] (enforced by
//!   [`crate::ParallelConfig::validate`]); it is kept in the key verbatim.
//! * The profiles are built once per space, in parallel, and are read-only
//!   afterwards, shared across the worker threads that price placements.

#![expect(
    clippy::disallowed_types,
    reason = "hash containers here serve keyed lookup and dedup only; nothing iterates them"
)]

use super::build_profile;
use crate::config::{ParallelConfig, TpStrategy};
use crate::evaluate::PassFingerprints;
use crate::plan::LayerProfile;
use crate::planner::SPACE_STORE;
use rayon::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, RwLock};
use systems::{GpuSpec, SystemSpec};
use txmodel::TransformerConfig;

/// The exact subset of [`ParallelConfig`] a layer profile depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
    /// Tensor-parallel strategy (1D / 2D SUMMA).
    strategy: TpStrategy,
    /// First tensor-parallel mesh dimension.
    n1: u64,
    /// Second tensor-parallel mesh dimension.
    n2: u64,
    /// Microbatch size the profile was built for.
    microbatch: u64,
    /// Normalized to 1 unless `strategy == TpStrategy::Summa`.
    summa_panels: u64,
    /// Expert-parallel degree (1 for dense models, enforced by
    /// [`crate::ParallelConfig::validate`]; MoE profiles depend on it via
    /// the AllToAll volumes and the local-expert shard).
    ep: u64,
}

impl ProfileKey {
    /// Canonical key of a configuration (see the module-level invariants).
    pub(crate) fn of(cfg: &ParallelConfig) -> Self {
        Self {
            strategy: cfg.strategy,
            n1: cfg.n1,
            n2: cfg.n2,
            microbatch: cfg.microbatch,
            summa_panels: if cfg.strategy == TpStrategy::Summa {
                cfg.summa_panels
            } else {
                1
            },
            ep: cfg.ep,
        }
    }
}

/// The one profile build: one profile (with its pass fingerprints) per
/// distinct TP tuple among `cfgs`, in first-seen order, plus each
/// configuration's index into them. The constructions fan out over the
/// rayon pool; their count and wall-clock time feed the [`SearchStats`]
/// profiling counters.
pub(crate) fn build_profiles(
    model: &TransformerConfig,
    gpu: &GpuSpec,
    cfgs: &[ParallelConfig],
) -> (Vec<(LayerProfile, PassFingerprints)>, Vec<u32>) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the profile-build timer feeds the SearchStats counters, never a result"
    )]
    let start = std::time::Instant::now();
    let mut slot: HashMap<ProfileKey, u32> = HashMap::new();
    let mut keys = Vec::new();
    let index_of: Vec<u32> = cfgs
        .iter()
        .map(|cfg| {
            let key = ProfileKey::of(cfg);
            *slot.entry(key).or_insert_with(|| {
                keys.push(key);
                (keys.len() - 1) as u32
            })
        })
        .collect();
    let profiles: Vec<(LayerProfile, PassFingerprints)> = keys
        .par_iter()
        .map(|k| {
            let profile = build_profile(
                model,
                k.strategy,
                k.n1,
                k.n2,
                k.microbatch,
                k.summa_panels,
                k.ep,
                gpu,
            );
            let fps = PassFingerprints::of(&profile);
            (profile, fps)
        })
        .collect();
    PROFILE_BUILDS.fetch_add(keys.len() as u64, Ordering::Relaxed);
    PROFILE_BUILD_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    (profiles, index_of)
}

// ---------------------------------------------------------------------------
// Collective-time memoization (per-placement pricing hot path)
// ---------------------------------------------------------------------------
//
// `evaluate`'s per-placement pricing (`pattern_time` and the pass-level
// sums above it) recomputes the same collective times for every
// `(np, nd, bm, interleave, placement)` candidate sharing a TP tuple —
// the SUMMA sweep alone prices millions of `(collective, volume, group)`
// triples drawn from a few thousand distinct ones. The memo below caches
// those scalar times in **two levels**:
//
// * **L1** — a thread-local `HashMap` probed first, lock-free. It absorbs
//   the all-hit steady state, which is the actual hot path: once warm, a
//   probe is one hash + one lookup with no synchronization at all.
// * **L2** — a process-global, 64-way-sharded `RwLock` map shared by all
//   workers. The vendored rayon pool spawns *fresh* scoped threads per
//   parallel call, so every worker starts with an empty L1; before L2
//   existed, each of them re-derived the same few thousand distinct
//   pricings per call (8× redundant first-compute work at 8 threads —
//   the profiling counters below confirmed the hypothesis). An L1 miss
//   now falls through to a shared read lock; only a genuine first
//   compute takes a shard's write lock.
//
// # Key scheme
//
// Keys are FNV-1a folds ([`fnv`]) over a domain tag byte plus every input
// the priced value depends on:
//
// * `0x45`/`0x41` — exposed AllReduce / AllToAll: `(algo, volume bits,
//   group size, per-domain share, system fingerprint)`;
// * `0x53` — SUMMA overlapped panel schedule: `(volumes, panel count,
//   panel compute bits, both groups, system fingerprint)`;
// * `0x50`/`0x4C` — pass-level sum / pass-level lower bound (see
//   `crate::evaluate`): `(pass fingerprint, algo, n1, n2, ep, placement
//   projection or domain budget, system fingerprint)`.
//
// Evaluations write all four kinds. A lower bound writes only `0x4C`: it
// prices each hypothetical domain share directly, without the per-pattern
// keys, because later evaluations read back few of those shares. The
// `0x4C` key names no GPU count and no search space, so every space with
// the same TP tuple on the same system shares it.
//
// The system fingerprint ([`system_fingerprint`]) folds every network
// parameter a collective time reads, so one process can price many
// systems against one shared memo.
//
// # Sharing lifecycle and determinism
//
// L2 is append-only for the process lifetime (entries are never evicted
// or mutated — `f64` values are pure functions of their key, ~16 bytes
// each). Two workers racing on the same first compute insert
// **bit-identical** values, so last-write-wins is harmless; hits return
// exactly the bits the first compute produced. Memoization therefore
// never changes results — only speed — and the search stays bit-identical
// across thread counts.

/// Profiling counters for the S3 search hot path (process-global).
///
/// Returned by [`search_stats`]; reset with [`reset_search_stats`].
/// Counter updates are batched thread-locally and flushed when a worker
/// thread exits (the vendored pool joins its scoped workers before a
/// parallel call returns) and by [`search_stats`] itself for the calling
/// thread — so reading stats *between* searches from the thread that ran
/// them sees every event. Note the counters are global: concurrent
/// searches (e.g. parallel `cargo test` threads) add to the same tallies,
/// so tests should assert on deltas, not absolute values.
///
/// Which stage of the planner's search pipeline (see [`crate::planner`])
/// feeds each counter: the three store counters from the lookup that
/// starts every search and every [`crate::Planner::candidates`] call;
/// the profile counters from the profile build of a space the store
/// does not hold; the memo counters from the pass-level lower bounds
/// computed for such a space (one probe per pass) and from every
/// evaluation (seeds, sweep, or the unpruned sweep); the three prune
/// counters from the eliminate and sweep stages, split by query kind as
/// each field says.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Collective-time memo probes answered by the thread-local L1.
    pub memo_local_hits: u64,
    /// Probes that missed L1 but hit the shared L2 — exactly the work
    /// per-thread caches used to redo per worker before sharing.
    pub memo_shared_hits: u64,
    /// Probes that computed (and published) a new value.
    pub memo_misses: u64,
    /// Layer profiles constructed for a space the planner's space store
    /// does not hold: one per distinct TP tuple of the space.
    pub profile_builds: u64,
    /// Wall-clock nanoseconds spent building those profiles.
    pub profile_build_nanos: u64,
    /// Single-optimum queries ([`crate::Planner::best_evaluation`]):
    /// candidates skipped in the sweep stage, where each survivor is
    /// checked once more against the live threshold.
    pub bound_pruned: u64,
    /// Single-optimum queries: candidates dropped in the elimination
    /// stage, whose lower bound is past the seed's evaluated time.
    pub dominated_pruned: u64,
    /// Ranked queries ([`crate::Planner::execute`]): every skipped
    /// candidate, from the elimination and the sweep stage alike (its
    /// bound is past the k-th-best threshold, and its bound vector is
    /// strictly dominated by an evaluated point).
    pub topk_pruned: u64,
    /// Planner calls whose space the space store already held: they
    /// skipped enumeration, profile builds and the placement-free
    /// assessment.
    pub store_hits: u64,
    /// Planner calls whose space the store did not hold, so they did that
    /// work themselves. A space whose inputs print a NaN bypasses the
    /// store and counts here every time.
    pub store_misses: u64,
    /// Spaces the store dropped, least recently used first, to stay
    /// within its candidate budget ([`crate::clear_space_store`] drops
    /// without counting).
    pub store_evictions: u64,
}

static MEMO_LOCAL_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);
static PROFILE_BUILDS: AtomicU64 = AtomicU64::new(0);
static PROFILE_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);
static BOUND_PRUNED: AtomicU64 = AtomicU64::new(0);
static DOMINATED_PRUNED: AtomicU64 = AtomicU64::new(0);
static TOPK_PRUNED: AtomicU64 = AtomicU64::new(0);

/// Thread-local probe tallies: plain `Cell` bumps on the all-hit hot path
/// (an atomic `fetch_add` per probe would cost real time at millions of
/// probes), flushed to the globals on thread exit via `Drop`.
struct LocalCounts {
    local_hits: Cell<u64>,
    shared_hits: Cell<u64>,
    misses: Cell<u64>,
}

impl LocalCounts {
    fn flush(&self) {
        for (cell, global) in [
            (&self.local_hits, &MEMO_LOCAL_HITS),
            (&self.shared_hits, &MEMO_SHARED_HITS),
            (&self.misses, &MEMO_MISSES),
        ] {
            let n = cell.replace(0);
            if n > 0 {
                global.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalCounts {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL_COUNTS: LocalCounts = const {
        LocalCounts {
            local_hits: Cell::new(0),
            shared_hits: Cell::new(0),
            misses: Cell::new(0),
        }
    };
}

#[inline]
fn bump(pick: impl Fn(&LocalCounts) -> &Cell<u64>) {
    let _ = LOCAL_COUNTS.try_with(|c| {
        let cell = pick(c);
        cell.set(cell.get() + 1);
    });
}

/// A snapshot of the global [`SearchStats`] counters (flushing the calling
/// thread's pending tallies first).
pub fn search_stats() -> SearchStats {
    let _ = LOCAL_COUNTS.try_with(LocalCounts::flush);
    let store = &SPACE_STORE;
    SearchStats {
        memo_local_hits: MEMO_LOCAL_HITS.load(Ordering::Relaxed),
        memo_shared_hits: MEMO_SHARED_HITS.load(Ordering::Relaxed),
        memo_misses: MEMO_MISSES.load(Ordering::Relaxed),
        profile_builds: PROFILE_BUILDS.load(Ordering::Relaxed),
        profile_build_nanos: PROFILE_BUILD_NANOS.load(Ordering::Relaxed),
        bound_pruned: BOUND_PRUNED.load(Ordering::Relaxed),
        dominated_pruned: DOMINATED_PRUNED.load(Ordering::Relaxed),
        topk_pruned: TOPK_PRUNED.load(Ordering::Relaxed),
        store_hits: store.hits.load(Ordering::Relaxed),
        store_misses: store.misses.load(Ordering::Relaxed),
        store_evictions: store.evictions.load(Ordering::Relaxed),
    }
}

/// Zeroes the global [`SearchStats`] counters (call between searches,
/// from the thread that runs them).
pub fn reset_search_stats() {
    let _ = LOCAL_COUNTS.try_with(LocalCounts::flush);
    for g in [
        &MEMO_LOCAL_HITS,
        &MEMO_SHARED_HITS,
        &MEMO_MISSES,
        &PROFILE_BUILDS,
        &PROFILE_BUILD_NANOS,
        &BOUND_PRUNED,
        &DOMINATED_PRUNED,
        &TOPK_PRUNED,
        &SPACE_STORE.hits,
        &SPACE_STORE.misses,
        &SPACE_STORE.evictions,
    ] {
        g.store(0, Ordering::Relaxed);
    }
}

/// Credits `n` branch-and-bound prunes to the profiling counters.
pub(crate) fn note_bound_pruned(n: u64) {
    if n > 0 {
        BOUND_PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Credits `n` dominated-candidate eliminations to the profiling counters.
pub(crate) fn note_dominated_pruned(n: u64) {
    if n > 0 {
        DOMINATED_PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Credits `n` ranked-path (top-k + Pareto) prunes to the profiling
/// counters.
pub(crate) fn note_topk_pruned(n: u64) {
    if n > 0 {
        TOPK_PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// FNV-1a-style fold of a sequence of `u64` words into one key. Folding
/// whole words (one xor + one widening multiply each) keeps the fold far
/// cheaper than the collective-time computation it guards; the FNV prime
/// diffuses every input word across the key, so distinct pricing tuples
/// collide with negligible (~2⁻⁶⁴ pairwise) probability.
pub(crate) fn fnv(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        h = (h ^ p).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Fingerprint of every [`SystemSpec`] field a collective time depends on.
pub(crate) fn system_fingerprint(sys: &SystemSpec) -> u64 {
    fnv([
        sys.network.nvs_bandwidth.to_bits(),
        sys.network.nvs_latency.to_bits(),
        sys.network.ib_bandwidth.to_bits(),
        sys.network.ib_latency.to_bits(),
        sys.network.bandwidth_efficiency.to_bits(),
        sys.nvs_size,
        sys.nics_per_node,
    ])
}

/// Pass-through hasher: the key is already an FNV fold.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("KeyHasher only hashes u64 keys");
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type MemoMap = HashMap<u64, f64, BuildHasherDefault<KeyHasher>>;

thread_local! {
    /// L1: per-thread pricing memo, probed lock-free before L2.
    static COLLECTIVE_MEMO: RefCell<MemoMap> = RefCell::new(HashMap::default());
}

/// Number of L2 shards. A power of two; the shard index is the key's top
/// bits ([`shard_of`]), which are independent of the low bits `HashMap`'s
/// pass-through [`KeyHasher`] buckets by — so sharding does not skew the
/// in-shard bucket distribution.
const MEMO_SHARDS: usize = 64;

/// L2: the shared, sharded pricing memo (see the section comment above
/// for the sharing lifecycle). Sharding keeps write locks from
/// serializing concurrent first computes; reads take a shard's `RwLock`
/// read lock, which is uncontended once the table is warm.
static SHARED_MEMO: LazyLock<Vec<RwLock<MemoMap>>> = LazyLock::new(|| {
    (0..MEMO_SHARDS)
        .map(|_| RwLock::new(HashMap::default()))
        .collect()
});

#[inline]
fn shard_of(key: u64) -> &'static RwLock<MemoMap> {
    &SHARED_MEMO[(key >> (64 - MEMO_SHARDS.trailing_zeros())) as usize]
}

/// Returns the memoized value for `key`, computing (and publishing) it on
/// the first request anywhere in the process. The value must be a pure
/// function of the key: racing first computes then insert bit-identical
/// values, keeping results independent of thread count.
pub(crate) fn memo_f64(key: u64, compute: impl FnOnce() -> f64) -> f64 {
    if let Some(v) = COLLECTIVE_MEMO.with(|m| m.borrow().get(&key).copied()) {
        bump(|c| &c.local_hits);
        return v;
    }
    let shard = shard_of(key);
    // Poison-tolerant: a panicked holder can at worst have skipped an
    // insert of a pure value — the map is never torn, so continuing with
    // the inner guard is sound (and keeps one worker's panic from
    // cascading into every other search thread).
    let shared = shard
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
        .copied();
    let v = match shared {
        Some(v) => {
            bump(|c| &c.shared_hits);
            v
        }
        None => {
            // Compute outside any lock: pricing can be expensive and must
            // not serialize other shard traffic (duplicate computes are
            // rare and harmless — identical bits).
            let v = compute();
            bump(|c| &c.misses);
            shard
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(key, v);
            v
        }
    };
    COLLECTIVE_MEMO.with(|m| m.borrow_mut().insert(key, v));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::GpuGeneration;
    use txmodel::gpt3_1t;

    fn cfg(strategy: TpStrategy, n1: u64, n2: u64, np: u64, nd: u64, bm: u64) -> ParallelConfig {
        ParallelConfig::new(strategy, n1, n2, np, nd, bm)
    }

    #[test]
    fn cache_holds_one_profile_per_key() {
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        // Three configs, two distinct TP tuples.
        let cfgs = [
            cfg(TpStrategy::OneD, 8, 1, 64, 32, 1),
            cfg(TpStrategy::OneD, 8, 1, 32, 64, 1),
            cfg(TpStrategy::OneD, 16, 1, 64, 16, 1),
        ];
        let (profiles, profile_of) = build_profiles(&model, &gpu, &cfgs);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profile_of, [0, 0, 1]);
        // Shared profiles and their fingerprints are bit-identical to
        // direct construction.
        for (c, &i) in cfgs.iter().zip(&profile_of) {
            let direct = build_profile(
                &model,
                c.strategy,
                c.n1,
                c.n2,
                c.microbatch,
                c.summa_panels,
                c.ep,
                &gpu,
            );
            let (profile, fps) = &profiles[i as usize];
            assert_eq!(profile, &direct);
            assert_eq!(fps, &PassFingerprints::of(&direct));
        }
    }

    #[test]
    fn summa_panels_are_normalized_for_non_summa() {
        let a = ProfileKey::of(&ParallelConfig {
            summa_panels: 8,
            ..cfg(TpStrategy::TwoD, 4, 4, 8, 16, 1)
        });
        let b = ProfileKey::of(&cfg(TpStrategy::TwoD, 4, 4, 8, 16, 1));
        assert_eq!(a, b);
        // But SUMMA keys keep the panel count.
        let s8 = ProfileKey::of(&ParallelConfig {
            summa_panels: 8,
            ..cfg(TpStrategy::Summa, 4, 4, 8, 16, 1)
        });
        let s1 = ProfileKey::of(&cfg(TpStrategy::Summa, 4, 4, 8, 16, 1));
        assert_ne!(s8, s1);
    }

    #[test]
    fn memo_returns_cached_value_and_computes_once() {
        let key = fnv([0xdead, 0xbeef, 42]);
        let mut calls = 0;
        let a = memo_f64(key, || {
            calls += 1;
            1.25
        });
        let b = memo_f64(key, || {
            calls += 1;
            f64::NAN // must not be recomputed
        });
        assert_eq!(a, 1.25);
        assert_eq!(b, 1.25);
        assert_eq!(calls, 1);
    }

    #[test]
    fn shared_memo_publishes_across_threads() {
        // A value computed on one thread must be visible to a brand-new
        // thread (empty L1) through the shared L2 — the property that
        // stops the pool's fresh scoped workers from re-pricing the same
        // collectives per worker.
        let key = fnv([0x7e57, line!() as u64, 0x5eed]);
        let before = search_stats();
        assert_eq!(memo_f64(key, || 2.5), 2.5);
        let v = std::thread::spawn(move || memo_f64(key, || f64::NAN))
            .join()
            .unwrap();
        assert_eq!(v, 2.5);
        // Counters are global (other tests may run concurrently): assert
        // deltas, not absolute values.
        let after = search_stats();
        assert!(after.memo_misses > before.memo_misses);
        assert!(after.memo_shared_hits > before.memo_shared_hits);
    }

    #[test]
    fn local_hits_are_counted() {
        let key = fnv([0x10ca1, line!() as u64]);
        let _ = memo_f64(key, || 1.0);
        let before = search_stats();
        let _ = memo_f64(key, || f64::NAN);
        let after = search_stats();
        assert!(after.memo_local_hits > before.memo_local_hits);
    }

    #[test]
    fn profile_builds_are_counted_and_timed() {
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        let before = search_stats();
        let (profiles, _) = build_profiles(&model, &gpu, &[cfg(TpStrategy::OneD, 8, 1, 64, 32, 1)]);
        let after = search_stats();
        assert_eq!(profiles.len(), 1);
        assert!(after.profile_builds > before.profile_builds);
        assert!(after.profile_build_nanos > before.profile_build_nanos);
    }

    #[test]
    fn system_fingerprint_separates_systems() {
        use systems::{system, NvsSize};
        let a = system(GpuGeneration::A100, NvsSize::Nvs4);
        let b = system(GpuGeneration::B200, NvsSize::Nvs8);
        assert_ne!(system_fingerprint(&a), system_fingerprint(&b));
        assert_eq!(system_fingerprint(&a), system_fingerprint(&a.clone()));
        let mut fewer_nics = a.clone();
        fewer_nics.nics_per_node = 1;
        assert_ne!(system_fingerprint(&a), system_fingerprint(&fewer_nics));
    }
}
