//! Total-order float comparisons for the search stack.
//!
//! Every ranking, tie-break and incumbent update in the search goes
//! through these helpers so NaN and infinite values behave *one* way
//! everywhere (the workspace's `clippy::unwrap_used` rules out the
//! NaN-unsafe `partial_cmp(…).unwrap()`; these are the replacement):
//!
//! * Ordering is [`f64::total_cmp`]: `-NaN < -inf < finite < +inf < NaN`.
//!   A positive NaN therefore never wins a minimization and never
//!   improves a threshold — with bare `<`/`>` a NaN threshold would be
//!   *sticky* (every comparison against it is false), silently disabling
//!   pruning for the rest of the sweep. A negative NaN sorts *first*, and
//!   x86-64 arithmetic makes one (`0·∞`, `∞−∞` set the sign bit), so
//!   every ranking key comes through `Objective::key`, which returns a
//!   positive NaN for any NaN key.
//! * Bound pruning is deliberately **not** total-order:
//!   [`exceeds_bound`] uses IEEE `>`, so a NaN lower bound (vacuous
//!   information) never prunes. Under `total_cmp` NaN sorts *above*
//!   every threshold and would prune a candidate whose true time is
//!   unknown — an unsound cutoff. The distinction is pinned by the
//!   property tests below.
//!
//! The search's ranking cutoff is [`TopkIncumbent`]: the k-th-best and
//! best keys, single-thread state of the pruned stages, which run in
//! order on the calling thread.

use std::cmp::Ordering;

/// Total-order comparison of two times (`f64::total_cmp`): the single
/// comparator behind every search ranking and tie-break.
#[inline]
pub fn time_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// True when `candidate` strictly improves on `current` in the total
/// order. A positive NaN candidate never improves; a positive NaN
/// `current` is improved by anything else (unlike `candidate < current`,
/// which is always false when either side is NaN). A negative NaN sorts
/// first (see the module docs).
#[inline]
pub fn is_improvement(candidate: f64, current: f64) -> bool {
    time_cmp(candidate, current) == Ordering::Less
}

/// Sound branch-and-bound cutoff: true when the admissible lower bound
/// `lb` provably exceeds `bound`. IEEE `>` on purpose — a NaN `lb` or
/// NaN `bound` yields `false` (never prune on vacuous information); see
/// the module docs for why `total_cmp` would be unsound here.
#[inline]
pub fn exceeds_bound(lb: f64, bound: f64) -> bool {
    lb > bound
}

/// The k-th-best threshold of the search's branch-and-bound (`k = 1` is
/// the single-optimum incumbent): the search
/// [`TopkIncumbent::publish`]es every evaluated ranking key, and prunes a
/// candidate when its admissible key lower bound exceeds
/// [`TopkIncumbent::threshold`] — the current k-th best key.
///
/// The pruned stages run in order on the calling thread, so this is plain
/// single-thread state: the k best keys seen so far, the threshold (the
/// worst retained key) and the running best key. Both cells only ever
/// fall. The threshold is `+inf` until `k` keys have been published
/// (nothing is prunable before k candidates are ranked) and `-inf` for
/// `k = 0` (an empty top-k retains nothing).
///
/// NaN keys — positive, as `Objective::key` returns them — are kept in
/// the k-set — they rank last under the total order, so any real key
/// displaces them — but never lower a cell ([`is_improvement`] rejects
/// them), so a NaN score can neither make the threshold sticky nor prune
/// through it. Keys may be negative (maximizing objectives negate their
/// value), so the cells compare floats under `total_cmp`, not raw bit
/// patterns.
pub struct TopkIncumbent {
    k: usize,
    kept: Vec<f64>,
    threshold: f64,
    best: f64,
}

impl TopkIncumbent {
    /// A threshold retaining the `k` best published keys.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            kept: Vec::with_capacity(k.min(1024)),
            threshold: if k == 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
            best: f64::INFINITY,
        }
    }

    /// The current k-th-best key.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The best (total-order smallest) key published so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Publishes one evaluated candidate's ranking key, lowering the best
    /// key when it improves and the threshold when the key enters the
    /// k-set.
    pub fn publish(&mut self, key: f64) {
        lower(&mut self.best, key);
        if self.k == 0 {
            return;
        }
        if self.kept.len() < self.k {
            self.kept.push(key);
        } else {
            let mut worst = 0;
            for (i, &v) in self.kept.iter().enumerate().skip(1) {
                if is_improvement(self.kept[worst], v) {
                    worst = i;
                }
            }
            if is_improvement(key, self.kept[worst]) {
                self.kept[worst] = key;
            } else {
                // k-set unchanged, threshold already published.
                return;
            }
        }
        if self.kept.len() == self.k {
            let mut max = self.kept[0];
            for &v in &self.kept[1..] {
                if is_improvement(max, v) {
                    max = v;
                }
            }
            lower(&mut self.threshold, max);
        }
    }
}

/// Lowers `cell` to `value` when it improves under the total order: never
/// to a positive NaN, the only NaN `Objective::key` returns (a negative
/// NaN would improve on every cell).
fn lower(cell: &mut f64, value: f64) {
    if is_improvement(value, *cell) {
        *cell = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn total_order_places_nan_last() {
        assert_eq!(time_cmp(1.0, 2.0), Ordering::Less);
        assert!(is_improvement(1.0, f64::INFINITY));
        assert!(is_improvement(f64::INFINITY, f64::NAN));
        assert!(!is_improvement(f64::NAN, f64::INFINITY));
        assert!(!is_improvement(f64::NAN, f64::NAN));
    }

    #[test]
    fn nan_keys_never_publish() {
        // A NaN key enters the k-set but lowers neither cell, so the next
        // real key still publishes: no NaN can make a cell sticky.
        let mut topk = TopkIncumbent::new(1);
        topk.publish(f64::NAN);
        assert_eq!(topk.threshold(), f64::INFINITY);
        assert_eq!(topk.best(), f64::INFINITY);
        topk.publish(3.5);
        assert_eq!(topk.threshold(), 3.5);
        assert_eq!(topk.best(), 3.5);
        topk.publish(f64::NAN);
        assert_eq!(topk.threshold(), 3.5);
    }

    #[test]
    fn nan_bounds_never_prune() {
        assert!(!exceeds_bound(f64::NAN, 1.0));
        assert!(!exceeds_bound(1.0, f64::NAN));
        assert!(exceeds_bound(f64::INFINITY, 1.0));
        assert!(!exceeds_bound(1.0, f64::INFINITY));
    }

    /// Decodes a sampled pair into a ranked candidate `(lb, key)`. Keys
    /// are *signed* (maximizing objectives negate their value), so the
    /// offset pushes half the range negative; a healthy fraction of cases
    /// land in the degenerate corners (NaN and infinite bounds, infinite
    /// and NaN keys).
    fn ranked_candidate(kind: u32, x: f64) -> (f64, f64) {
        let key = x - 5e5;
        match kind {
            0 => (f64::NAN, key),                        // vacuous bound
            1 => (f64::NEG_INFINITY, key),               // trivial bound
            2 => (f64::INFINITY, f64::INFINITY),         // infeasible candidate
            3 => (key.min(0.0), f64::NAN),               // evaluation blew up
            _ => (key - x.abs().mul_add(0.5, 1.0), key), // admissible finite bound
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Replays the ranked planner's k-th-incumbent loop (prune on the
        /// threshold, evaluate, publish) over adversarial signed
        /// keys and NaN/infinite bounds, and requires the surviving top-k
        /// to equal the exact sequential top-k: a NaN key must never make
        /// the threshold sticky, never prune an exactly-tied-or-better
        /// candidate, and never survive into a top-k slot a real key
        /// should hold.
        #[test]
        fn topk_pruning_stays_exact_under_nan_and_inf(
            k in 0usize..4,
            k0 in 0u32..5, x0 in 0.0f64..1e6,
            k1 in 0u32..5, x1 in 0.0f64..1e6,
            k2 in 0u32..5, x2 in 0.0f64..1e6,
            k3 in 0u32..5, x3 in 0.0f64..1e6,
            k4 in 0u32..5, x4 in 0.0f64..1e6,
            k5 in 0u32..5, x5 in 0.0f64..1e6,
        ) {
            let cands = [
                ranked_candidate(k0, x0),
                ranked_candidate(k1, x1),
                ranked_candidate(k2, x2),
                ranked_candidate(k3, x3),
                ranked_candidate(k4, x4),
                ranked_candidate(k5, x5),
            ];
            let mut topk = TopkIncumbent::new(k);
            let mut prev_thr = topk.threshold();
            let mut survivors = Vec::new();
            for (i, &(lb, key)) in cands.iter().enumerate() {
                let thr = topk.threshold();
                // The published threshold is never NaN-sticky and only
                // ever moves down.
                prop_assert!(!thr.is_nan());
                prop_assert!(time_cmp(thr, prev_thr) != Ordering::Greater);
                prev_thr = thr;
                if exceeds_bound(lb, thr) {
                    continue; // the planner's k-th-incumbent cutoff
                }
                topk.publish(key);
                survivors.push(i);
            }
            // Exact sequential ranking: total order on keys, index ties.
            let mut ranking: Vec<usize> = (0..cands.len()).collect();
            ranking.sort_by(|&a, &b| time_cmp(cands[a].1, cands[b].1).then(a.cmp(&b)));
            let true_topk = &ranking[..k];
            // No true-top-k candidate was pruned, and the top-k computed
            // from the survivors is bit-identical to the exact one.
            let mut survivor_ranked = survivors.clone();
            survivor_ranked.sort_by(|&a, &b| time_cmp(cands[a].1, cands[b].1).then(a.cmp(&b)));
            prop_assert!(survivor_ranked.len() >= k);
            prop_assert_eq!(&survivor_ranked[..k], true_topk);
            // The best cell ends at the smallest real published key (NaN
            // keys never publish), whatever k is.
            let best_real = survivors
                .iter()
                .map(|&i| cands[i].1)
                .filter(|key| !key.is_nan())
                .min_by(|a, b| time_cmp(*a, *b))
                .unwrap_or(f64::INFINITY);
            prop_assert_eq!(topk.best().to_bits(), best_real.to_bits());
            // The final threshold is admissible: never below the true
            // k-th-best real key (an unpublishable NaN k-th best leaves
            // the threshold conservatively high).
            if k > 0 {
                let kth_true = cands[ranking[k - 1]].1;
                if !kth_true.is_nan() {
                    prop_assert!(time_cmp(topk.threshold(), kth_true) != Ordering::Less);
                }
            }
        }
    }
}
