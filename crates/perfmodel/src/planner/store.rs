//! The space store: each search space's query-independent work, kept
//! across [`Planner`] calls.
//!
//! A [`SpaceEntry`] holds what a search computes before it prices a
//! single placement: the candidates as [`Planner::candidates`] lists them
//! before the user predicates, one layer profile per TP tuple with each
//! candidate's profile index, each candidate's memory ledger, each
//! candidate's placement-free iteration-time lower bound (once a query
//! that prunes asks for them), and one list of maximal NVS placements per
//! distinct `(n1, n2, np, nd)` group with each candidate's group index.
//! A group's list is enumerated by the first evaluation of one of its
//! candidates, so a query that evaluates a few candidates enumerates a
//! few groups, and every later evaluation of the group reads it. None of
//! it depends on the objective, the frontier, `top_k`, the prune switch
//! or a predicate, so every query on one space shares one entry, and
//! constrained planners filter its list in enumeration order.
//!
//! # Key
//!
//! An entry is keyed by the derived `Debug` text of the model, the whole
//! [`systems::SystemSpec`], the [`super::SearchSpace`] with its `prune`
//! flag normalized, and the serving traffic. The key is exact and needs
//! no upkeep: `Debug` prints every `f64` in its shortest round-trip form,
//! which tells every non-NaN bit pattern apart (`-0.0` included), and a
//! derived `Debug` picks up fields added later. `Debug` cannot tell NaN
//! payloads or signs apart while `total_cmp` orders them differently, so
//! a space whose key text contains `NaN` bypasses the store: each call
//! builds its own entry and drops it.
//!
//! # Budget
//!
//! The store holds at most [`SPACE_STORE_BUDGET`] candidate-sized units
//! and evicts the least recently used space to stay within it. An entry
//! is charged one unit per candidate, [`PROFILE_CHARGE`] per profile, one
//! per placement group, and one per [`CANDIDATE_BYTES`] bytes of key and
//! of the placements its lists hold, so the budget bounds the store's
//! bytes however its spaces are shaped, a flood of tiny ones included.
//! The lists fill after the entry is stored, so a search that filled some
//! recharges its entry when it ends, evicting other spaces as an insert
//! does. An entry larger than the whole budget serves the call that built
//! it, or that filled it past the budget, and is not kept.
//!
//! # Concurrency
//!
//! Entries are built outside the store's lock; two calls that race on
//! one space both build it, with identical values, and the first to
//! finish stores it. The lock guards only the lookup, the insert and the
//! recharge. The one wait between searches is on an entry's bounds: a
//! search that needs them while another computes them waits for that
//! result rather than computing it again. Evaluations racing on one
//! group's placement list instead each enumerate it, and the first to
//! finish stores it, so no worker sleeps on another's enumeration.
//!
//! The bounds themselves fan out over the candidates in profile order.
//! The memo computes each pass-level key once under its shard's lock, so
//! a cold space takes the same memo misses at every pool width, and the
//! profile order keeps two workers from asking for one key at once
//! ([`SpaceEntry::time_lower_bounds`]).

use super::{Planner, SearchSpace};
use crate::config::{ParallelConfig, Placement};
use crate::evaluate::{iteration_time_lower_bound, PassFingerprints};
use crate::memory::MemoryUsage;
use crate::partition::cache::{build_profiles, system_fingerprint};
use crate::placement::enumerate_placements;
use crate::plan::LayerProfile;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The process-wide store's capacity, in candidate-sized units of
/// [`CANDIDATE_BYTES`]: 8 MiB. perfbench's `plan` workload stores 11,859
/// candidates, 1,880 profiles, 818 placement groups and 8 keys of about
/// 1.2 kB, and a pass of its queries fills 188 of the groups with 1,736
/// placements: a charge of about 32,000 (33,500 were every group filled,
/// 7,946 placements), so it fits twice over.
pub(crate) const SPACE_STORE_BUDGET: usize = 1 << 16;

/// The bytes one charge unit stands for: a stored candidate takes 128
/// (its 72-byte configuration, 40-byte memory ledger, profile and group
/// indices and bound), four placements take 128, and a group's empty
/// list 32.
const CANDIDATE_BYTES: usize = 128;

/// The units one stored profile is charged: a layer profile with its
/// communication patterns takes 0.4–1.3 kB.
const PROFILE_CHARGE: usize = 10;

/// The store every [`Planner`] reads.
pub(crate) static SPACE_STORE: SpaceStore = SpaceStore::new(SPACE_STORE_BUDGET);

/// Drops every space the process-wide space store holds, so the next
/// search of any space enumerates, builds its profiles and assesses its
/// candidates again: a truly cold search. The collective-pricing memo is
/// left alone. Results never depend on the store, only the time they
/// take.
pub fn clear_space_store() {
    SPACE_STORE.clear();
}

/// One search space's placement-free work (see the module docs).
pub(crate) struct SpaceEntry {
    /// The candidates in enumeration order, degree bounds applied, user
    /// predicates not.
    pub(crate) candidates: Vec<ParallelConfig>,
    /// One layer profile and its pass fingerprints per TP tuple.
    profiles: Vec<(LayerProfile, PassFingerprints)>,
    /// Each candidate's index into `profiles`.
    profile_of: Vec<u32>,
    /// The NVS domain size of the space's system.
    nvs_size: u64,
    /// One placement list per distinct `(n1, n2, np, nd)` group of the
    /// candidates, each enumerated by the first evaluation that needs it,
    /// so a query that evaluates few candidates enumerates few groups.
    placements: Vec<OnceLock<Vec<Placement>>>,
    /// Each candidate's index into `placements`.
    group_of: Vec<u32>,
    /// The placements held across `placements`, for the store's charge.
    placements_held: AtomicUsize,
    /// Each candidate's memory ledger (the planner's training or serving
    /// ledger).
    pub(crate) memory: Vec<MemoryUsage>,
    /// Each candidate's placement-free iteration-time lower bound, built
    /// by the first query that prunes, so a space only ever swept
    /// unpruned (`Planner::evaluations`, the serving objectives) never
    /// pays for bounds nothing reads.
    time_lb: OnceLock<Vec<f64>>,
}

impl SpaceEntry {
    /// Enumerates `p`'s space, builds its profiles and prices each
    /// candidate's memory ledger.
    fn build(p: &Planner) -> Self {
        let candidates = p.enumerate();
        let (profiles, profile_of) = build_profiles(p.model, &p.system.gpu, &candidates);
        // A group's candidates are enumerated consecutively within each
        // `(strategy, gpus)` sub-space, so the map is consulted once per
        // run of them.
        let mut group_index = BTreeMap::new();
        let mut run = None;
        let group_of = candidates
            .iter()
            .map(|c| {
                let key = (c.n1, c.n2, c.np, c.nd);
                match run {
                    Some((k, group)) if k == key => group,
                    _ => {
                        let next = group_index.len() as u32;
                        let group = *group_index.entry(key).or_insert(next);
                        run = Some((key, group));
                        group
                    }
                }
            })
            .collect();
        let global_batch = p.config.space.global_batch;
        let memory = indices(candidates.len())
            .par_iter()
            .map(|&i| {
                let profile = &profiles[profile_of[i] as usize].0;
                p.candidate_memory(profile, &candidates[i], global_batch)
            })
            .collect();
        Self {
            candidates,
            profiles,
            profile_of,
            nvs_size: p.system.nvs_size,
            placements: (0..group_index.len()).map(|_| OnceLock::new()).collect(),
            group_of,
            placements_held: AtomicUsize::new(0),
            memory,
            time_lb: OnceLock::new(),
        }
    }

    /// Candidate `i`'s maximal NVS placements, in
    /// [`enumerate_placements`] order: its group's list, which the first
    /// call for any candidate of the group enumerates.
    pub(crate) fn placements(&self, i: usize) -> &[Placement] {
        let slot = &self.placements[self.group_of[i] as usize];
        if let Some(list) = slot.get() {
            return list;
        }
        // Enumerate outside the slot's lock, so that evaluations racing
        // on one group each enumerate rather than wait; the first list
        // stored is kept, and the lists are equal.
        let list = enumerate_placements(&self.candidates[i], self.nvs_size);
        slot.get_or_init(|| {
            self.placements_held
                .fetch_add(list.len(), Ordering::Relaxed);
            list
        })
    }

    /// The placements the entry's lists hold so far.
    pub(crate) fn placements_held(&self) -> usize {
        self.placements_held.load(Ordering::Relaxed)
    }

    /// Candidate `i`'s layer profile and pass fingerprints.
    pub(crate) fn profile(&self, i: usize) -> &(LayerProfile, PassFingerprints) {
        &self.profiles[self.profile_of[i] as usize]
    }

    /// Each candidate's admissible lower bound on its iteration time over
    /// every placement (`-inf`, which never prunes, for a candidate past
    /// HBM). Built once per entry, by the first query that needs it; `p`
    /// is any planner of this entry's space.
    ///
    /// The pool bounds the candidates in profile order, one work item per
    /// candidate, and each bound is then placed at its candidate's index.
    /// The candidates of one TP tuple share their pass-level memo keys,
    /// which the memo computes once whichever worker asks first, so a cold
    /// space takes the same memo misses at every pool width. The order is
    /// for speed: enumeration order repeats each tuple once per pipeline
    /// degree, so two workers on neighbouring chunks would ask for the same
    /// keys, and one would often wait on the other's compute.
    pub(crate) fn time_lower_bounds(&self, p: &Planner) -> &[f64] {
        self.time_lb.get_or_init(|| {
            let hbm = p.system.gpu.hbm_capacity;
            let global_batch = p.config.space.global_batch;
            let sys_fp = system_fingerprint(p.system);
            // The candidates grouped by profile, in enumeration order
            // within each (a counting sort).
            let mut end = vec![0; self.profiles.len()];
            for &profile in &self.profile_of {
                end[profile as usize] += 1;
            }
            let mut total = 0;
            for slot in &mut end {
                total += *slot;
                *slot = total - *slot;
            }
            let mut order = vec![0; self.candidates.len()];
            for (i, &profile) in self.profile_of.iter().enumerate() {
                order[end[profile as usize]] = i;
                end[profile as usize] += 1;
            }
            let bound = |i: usize| {
                if !self.memory[i].fits(hbm) {
                    return f64::NEG_INFINITY;
                }
                let (profile, fps) = self.profile(i);
                iteration_time_lower_bound(
                    profile,
                    p.model,
                    &self.candidates[i],
                    global_batch,
                    p.system,
                    sys_fp,
                    *fps,
                )
            };
            let bounds: Vec<f64> = order.par_iter().map(|&i| bound(i)).collect();
            let mut time_lb = vec![0.0; self.candidates.len()];
            for (&i, lb) in order.iter().zip(bounds) {
                time_lb[i] = lb;
            }
            time_lb
        })
    }
}

/// What holding `entry` under `key` costs against the budget, with the
/// placement lists it holds now (see the module docs).
fn charge(entry: &SpaceEntry, key: &str) -> usize {
    entry.candidates.len()
        + PROFILE_CHARGE * entry.profiles.len()
        + entry.placements.len()
        + (entry.placements_held() * std::mem::size_of::<Placement>()).div_ceil(CANDIDATE_BYTES)
        + key.len().div_ceil(CANDIDATE_BYTES)
}

/// `0..n` as a vector, for the rayon shim's slice-only parallel
/// iterators.
fn indices(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// The exact key of `p`'s space, or `None` when its text contains a NaN
/// (see the module docs).
fn space_key(p: &Planner) -> Option<String> {
    let space = SearchSpace {
        prune: true,
        ..p.config.space.clone()
    };
    let key = format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        p.model, p.system, space, p.config.serving
    );
    (!key.contains("NaN")).then_some(key)
}

/// A bounded, least-recently-used map from space keys to entries (see
/// the module docs), with its own hit, miss and eviction counters.
pub(crate) struct SpaceStore {
    /// Capacity in candidate-sized units (see [`charge`]).
    budget: usize,
    slots: Mutex<Slots>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
}

struct Slots {
    map: BTreeMap<String, Slot>,
    /// Sum of the stored entries' charges.
    held: usize,
    /// Recency clock, advanced by every hit and insert.
    clock: u64,
}

struct Slot {
    entry: Arc<SpaceEntry>,
    charge: usize,
    last_used: u64,
}

impl SpaceStore {
    /// An empty store holding at most `budget` candidate-sized units.
    pub(crate) const fn new(budget: usize) -> Self {
        Self {
            budget,
            slots: Mutex::new(Slots {
                map: BTreeMap::new(),
                held: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Poison-tolerant: a panicked holder can at worst have left an entry
    /// out, never a torn one, since every entry is complete before it is
    /// inserted.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry for `p`'s space: the stored one, marked most recently
    /// used and counted as a hit, or one built now, counted as a miss, and
    /// stored.
    pub(crate) fn entry(&self, p: &Planner) -> Arc<SpaceEntry> {
        let key = space_key(p);
        let found = key.as_deref().and_then(|key| {
            let mut slots = self.lock();
            slots.clock += 1;
            let now = slots.clock;
            let slot = slots.map.get_mut(key)?;
            slot.last_used = now;
            Some(Arc::clone(&slot.entry))
        });
        if let Some(entry) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SpaceEntry::build(p));
        if let Some(key) = key {
            self.insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// Stores `entry` under `key`, evicting the least recently used
    /// spaces until it fits. Keeps the stored entry when a racing build
    /// got there first (the values are identical), and keeps nothing when
    /// `entry` alone exceeds the budget.
    fn insert(&self, key: String, entry: Arc<SpaceEntry>) {
        let charge = charge(&entry, &key);
        if charge > self.budget {
            return;
        }
        // Declared before the guard, so evicted entries are freed after
        // the lock is released.
        let mut evicted = Vec::new();
        let mut slots = self.lock();
        if slots.map.contains_key(&key) {
            return;
        }
        self.evict(&mut slots, charge, &mut evicted);
        slots.clock += 1;
        let last_used = slots.clock;
        slots.held += charge;
        slots.map.insert(
            key,
            Slot {
                entry,
                charge,
                last_used,
            },
        );
    }

    /// Charges `entry`'s placement lists as they are now, if the store
    /// holds it, and evicts the least recently used spaces until the
    /// store fits its budget again; an `entry` that alone no longer fits
    /// goes first. A search calls this after it filled some lists.
    pub(crate) fn recharge(&self, entry: &Arc<SpaceEntry>) {
        let mut evicted = Vec::new();
        let mut guard = self.lock();
        let slots = &mut *guard;
        let Some((key, slot)) = slots
            .map
            .iter_mut()
            .find(|(_, slot)| Arc::ptr_eq(&slot.entry, entry))
        else {
            return;
        };
        let charge = charge(entry, key);
        slots.held = slots.held - slot.charge + charge;
        slot.charge = charge;
        if charge > self.budget {
            let key = key.clone();
            self.remove(slots, &key, &mut evicted);
        }
        self.evict(slots, 0, &mut evicted);
    }

    /// Evicts the least recently used spaces until `room` more units fit
    /// the budget, moving them into `evicted` so the caller frees them
    /// after releasing the lock.
    fn evict(&self, slots: &mut Slots, room: usize, evicted: &mut Vec<Arc<SpaceEntry>>) {
        while slots.held + room > self.budget {
            let Some(oldest) = slots
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.remove(slots, &oldest, evicted);
        }
    }

    /// Evicts the space stored under `key`, moving its entry into
    /// `evicted`.
    fn remove(&self, slots: &mut Slots, key: &str, evicted: &mut Vec<Arc<SpaceEntry>>) {
        if let Some(slot) = slots.map.remove(key) {
            slots.held -= slot.charge;
            evicted.push(slot.entry);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every stored entry (after releasing the lock).
    pub(crate) fn clear(&self) {
        let cleared = {
            let mut slots = self.lock();
            slots.held = 0;
            std::mem::take(&mut slots.map)
        };
        drop(cleared);
    }

    /// The stored entries' summed charge.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.lock().held
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Query, Sweep};
    use super::*;
    use crate::{Objective, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_175b, gpt3_1t, moe_1t, vit_64k};

    /// The charge `p`'s space holds once [`queries`] has run on it: its
    /// entry with the placement lists those queries fill.
    fn charge_of(p: &Planner) -> usize {
        let store = SpaceStore::new(SPACE_STORE_BUDGET);
        queries(p, &store);
        store.held()
    }

    /// A pruned single optimum and an unpruned top-8 sweep of `p`,
    /// against `store`.
    fn queries(p: &Planner, store: &SpaceStore) -> [Sweep; 2] {
        let ctx = p.objective_ctx();
        let query = |top_k, prune| Query {
            objective: &Objective::IterationTime,
            top_k,
            frontier: &[],
            keep_infeasible: false,
            prune,
            ctx: &ctx,
        };
        [
            p.search_in(store, &query(1, true)),
            p.search_in(store, &query(8, false)),
        ]
    }

    #[test]
    fn one_entry_budget_evicts_without_changing_results() {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let a = Planner::new(&model, &sys)
            .gpus(64)
            .global_batch(512)
            .strategy(TpStrategy::OneD);
        let b = a.clone().gpus(128);
        let budget = charge_of(&a).max(charge_of(&b));
        assert!(
            budget < charge_of(&a) + charge_of(&b),
            "the budget holds one space"
        );
        // A zero budget keeps nothing: every search is cold.
        let cold = SpaceStore::new(0);
        let store = SpaceStore::new(budget);
        for p in [&a, &b, &a, &b, &a, &b] {
            let want = queries(p, &cold);
            let got = queries(p, &store);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.evals, w.evals);
                assert_eq!((g.candidates, g.feasible), (w.candidates, w.feasible));
            }
            assert!(store.held() <= budget, "{} > {budget}", store.held());
        }
        assert_eq!(cold.held(), 0);
        // Each space's first query misses (the other space evicted it)
        // and its second hits; every insert after the first evicts.
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&store.misses), 6);
        assert_eq!(count(&store.hits), 6);
        assert_eq!(count(&store.evictions), 5);
        assert_eq!(count(&cold.evictions), 0);
    }

    /// Every candidate's stored placement list is its own enumeration,
    /// whichever candidate of its group filled the list, on a multi-count
    /// 1D space, a SUMMA space, a mixed 1D and 2D space and the MoE-1T
    /// space; and the store charges the lists a search fills.
    #[test]
    fn stored_placement_lists_are_each_candidates_enumeration() {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let (gpt175, gpt1t, vit, moe) = (
            gpt3_175b().config,
            gpt3_1t().config,
            vit_64k().config,
            moe_1t().config,
        );
        let spaces = [
            Planner::new(&gpt175, &sys)
                .gpu_counts([8, 24, 64, 512])
                .global_batch(1024)
                .strategy(TpStrategy::OneD),
            Planner::new(&gpt1t, &sys)
                .gpus(256)
                .strategy(TpStrategy::Summa),
            Planner::new(&vit, &sys)
                .gpus(128)
                .strategies([TpStrategy::OneD, TpStrategy::TwoD]),
            Planner::new(&moe, &sys)
                .gpus(1024)
                .strategy(TpStrategy::OneD),
        ];
        for p in &spaces {
            let entry = SpaceEntry::build(p);
            let n = entry.candidates.len();
            assert!(entry.placements.len() < n, "groups are shared");
            // Fill each list from the group's last candidate, then read
            // it for every candidate.
            for i in (0..n).rev() {
                entry.placements(i);
            }
            for (i, cfg) in entry.candidates.iter().enumerate() {
                assert_eq!(
                    entry.placements(i),
                    enumerate_placements(cfg, sys.nvs_size),
                    "{cfg}"
                );
            }
            let held: usize = entry
                .placements
                .iter()
                .flat_map(OnceLock::get)
                .map(Vec::len)
                .sum();
            assert_eq!(entry.placements_held(), held);

            // The store charges what the searches filled, once they end.
            let fresh = charge(&SpaceEntry::build(p), &space_key(p).unwrap_or_default());
            let store = SpaceStore::new(SPACE_STORE_BUDGET);
            queries(p, &store);
            let filled = store.entry(p).placements_held();
            assert!(filled > 0);
            let lists = (filled * std::mem::size_of::<Placement>()).div_ceil(CANDIDATE_BYTES);
            assert_eq!(store.held(), fresh + lists);
            // An entry that fits only until its lists fill serves the
            // search that fills them and is then dropped.
            let tight = SpaceStore::new(fresh);
            queries(p, &tight);
            assert_eq!(tight.held(), 0);
            assert_eq!(tight.evictions.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn keys_tell_signed_zeros_apart_and_skip_nan() {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let mut zero = sys.clone();
        zero.network.ib_latency = 0.0;
        let mut negative_zero = sys.clone();
        negative_zero.network.ib_latency = -0.0;
        let key = |s| space_key(&Planner::new(&model, s));
        assert!(key(&zero).is_some());
        assert_ne!(key(&zero), key(&negative_zero));
        // The prune flag is not part of the key.
        let p = Planner::new(&model, &sys);
        assert_eq!(space_key(&p), space_key(&p.clone().prune(false)));
        let mut nan = sys.clone();
        nan.network.ib_latency = f64::NAN;
        assert_eq!(key(&nan), None);
    }
}
