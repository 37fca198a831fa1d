//! Enumeration of GPU-to-NVS-domain assignments (paper S3 "GPU assignment
//! configurations").
//!
//! A placement decides how many GPUs of each parallel group share one
//! NVSwitch domain: `nNVS = v1·v2·vp·vd` with `vi | ni`. Redistributing
//! the fast domain between groups is how the model balances TP against DP
//! communication (paper Q1(ii)/(iii)); the search tries every valid
//! assignment.
//!
//! Placements that leave domain slots unused when a group factor could be
//! enlarged are never better (they only add slow hops), so the enumeration
//! keeps only *maximal* tuples — those where no single `vi` can be grown
//! to a larger divisor of `ni` without overflowing the domain.

use crate::config::{ParallelConfig, Placement};

/// All divisors of `n`, ascending.
pub(crate) fn divisors(n: u64) -> Vec<u64> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Enumerates every maximal placement of `cfg`'s GPU grid onto domains of
/// `nvs_size` GPUs, in ascending `(v1, v2, vp, vd)` order.
///
/// Each group's divisor list is built once per call, and a tuple's
/// maximality test reads each factor's next-larger divisor from the same
/// list: it is the entry after the factor.
pub fn enumerate_placements(cfg: &ParallelConfig, nvs_size: u64) -> Vec<Placement> {
    let budget = nvs_size.min(cfg.total_gpus());
    let d1 = divisors(cfg.n1);
    let d2 = divisors(cfg.n2);
    let dp = divisors(cfg.np);
    let dd = divisors(cfg.nd);
    let mut out = Vec::new();
    for (i1, v1) in fitting(&d1, 1, budget) {
        for (i2, v2) in fitting(&d2, v1, budget) {
            for (ip, vp) in fitting(&dp, v1 * v2, budget) {
                for (id, vd) in fitting(&dd, v1 * v2 * vp, budget) {
                    let p = Placement { v1, v2, vp, vd };
                    let next = [
                        d1.get(i1 + 1),
                        d2.get(i2 + 1),
                        dp.get(ip + 1),
                        dd.get(id + 1),
                    ];
                    if is_maximal(&p, next, budget) {
                        out.push(p);
                    }
                }
            }
        }
    }
    out
}

/// The divisors in `list` (ascending) that fit a domain of `budget` GPUs
/// beside `used` GPUs, with their positions in `list`: a prefix of it.
fn fitting(list: &[u64], used: u64, budget: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
    list.iter()
        .copied()
        .enumerate()
        .take_while(move |&(_, v)| used * v <= budget)
}

/// True if no single factor of `p` can be grown to the next-larger
/// divisor of its group, `next` (in `v1, v2, vp, vd` order; `None` for a
/// factor that is its whole group), within the domain budget.
fn is_maximal(p: &Placement, next: [Option<&u64>; 4], budget: u64) -> bool {
    let used = p.gpus_per_domain();
    [p.v1, p.v2, p.vp, p.vd]
        .into_iter()
        .zip(next)
        .all(|(v, bigger)| bigger.is_none_or(|&bigger| used / v * bigger > budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpStrategy;

    fn cfg(n1: u64, n2: u64, np: u64, nd: u64) -> ParallelConfig {
        ParallelConfig::new(TpStrategy::TwoD, n1, n2, np, nd, 1)
    }

    /// The enumeration as it was before the divisor lists were shared: it
    /// rebuilds a group's divisor list for every maximality test. The
    /// reference [`enumerate_placements`] is pinned against.
    fn per_tuple_reference(cfg: &ParallelConfig, nvs_size: u64) -> Vec<Placement> {
        let next_divisor = |n: u64, v: u64| divisors(n).into_iter().find(|&d| d > v);
        let is_maximal = |p: &Placement, budget: u64| {
            let used = p.gpus_per_domain();
            [
                (cfg.n1, p.v1),
                (cfg.n2, p.v2),
                (cfg.np, p.vp),
                (cfg.nd, p.vd),
            ]
            .into_iter()
            .all(|(n, v)| next_divisor(n, v).is_none_or(|bigger| used / v * bigger > budget))
        };
        let budget = nvs_size.min(cfg.total_gpus());
        let mut out = Vec::new();
        for &v1 in divisors(cfg.n1).iter().filter(|&&v| v <= budget) {
            for &v2 in divisors(cfg.n2).iter().filter(|&&v| v1 * v <= budget) {
                for &vp in divisors(cfg.np).iter().filter(|&&v| v1 * v2 * v <= budget) {
                    for &vd in divisors(cfg.nd)
                        .iter()
                        .filter(|&&v| v1 * v2 * vp * v <= budget)
                    {
                        let p = Placement { v1, v2, vp, vd };
                        if is_maximal(&p, budget) {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }

    /// Group sizes the property test draws from besides uniform ones:
    /// 1s, primes, powers of two and other composites.
    const SIZES: [u64; 16] = [1, 1, 2, 3, 5, 7, 8, 12, 13, 16, 36, 64, 72, 97, 128, 1024];

    /// The largest GPU count the property test builds.
    const MAX_GPUS: u64 = 16_384;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]

        /// The enumeration equals the per-tuple reference, placement for
        /// placement and in order, on seeded random grids of up to 16,384
        /// GPUs and on NVS domains from 1 GPU to past the grid's size.
        #[test]
        fn enumeration_matches_the_per_tuple_reference(
            first in 0usize..4,
            picks in 0u64..(1 << 40),
            uniform in 1u64..=MAX_GPUS,
            domain in 0usize..8,
            past in 1u64..=64,
        ) {
            // Each group is a 1, a listed size or the uniform draw, cut to
            // what the groups drawn before it leave of MAX_GPUS; `first`
            // rotates which group is drawn first.
            let mut sizes = [1u64; 4];
            let mut left = MAX_GPUS;
            for k in 0..4 {
                let pick = (picks >> (10 * k)) & 1023;
                let size = match pick % 3 {
                    0 => 1,
                    1 => SIZES[(pick / 3) as usize % SIZES.len()],
                    _ => uniform.rotate_left(13 * k as u32) % MAX_GPUS + 1,
                };
                let size = if size > left { size % left + 1 } else { size };
                sizes[(first + k) % 4] = size;
                left /= size;
            }
            let [n1, n2, np, nd] = sizes;
            let cfg = cfg(n1, n2, np, nd);
            let total = cfg.total_gpus();
            let nvs_size = match domain {
                0 => 1,
                1 => 2,
                2 => 4,
                3 => 8,
                4 => 72,
                5 => total,
                6 => total + past,
                _ => u64::MAX,
            };
            let got = enumerate_placements(&cfg, nvs_size);
            proptest::prop_assert_eq!(&got, &per_tuple_reference(&cfg, nvs_size));
            proptest::prop_assert!(!got.is_empty(), "{cfg:?} at {nvs_size}");
        }
    }

    #[test]
    fn divisor_list() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(64).len(), 7);
    }

    #[test]
    fn all_placements_valid() {
        let c = cfg(8, 4, 16, 8);
        for p in enumerate_placements(&c, 8) {
            p.validate(&c, 8).unwrap();
        }
    }

    #[test]
    fn maximal_tuples_fill_the_domain_for_pow2_grids() {
        // With power-of-two group sizes ≥ the domain, every maximal
        // placement uses the whole domain.
        let c = cfg(8, 4, 16, 8);
        for p in enumerate_placements(&c, 8) {
            assert_eq!(p.gpus_per_domain(), 8, "{p:?}");
        }
    }

    #[test]
    fn small_grid_packs_into_one_domain() {
        // n = 8 GPUs, domain of 64: everything co-located.
        let c = cfg(2, 1, 2, 2);
        let ps = enumerate_placements(&c, 64);
        assert_eq!(ps.len(), 1);
        assert_eq!(
            ps[0],
            Placement {
                v1: 2,
                v2: 1,
                vp: 2,
                vd: 2
            }
        );
    }

    #[test]
    fn trivial_only_when_domain_is_one() {
        let c = cfg(8, 4, 16, 8);
        let ps = enumerate_placements(&c, 1);
        assert_eq!(ps, vec![Placement::trivial()]);
    }

    #[test]
    fn fig1_style_count() {
        // 1D TP on NVS8: placements decompose 8 = v1·vp·vd over divisors
        // of (8, 64, 32) → compositions of 2^3 into 3 parts = C(5,2) = 10.
        let c = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let ps = enumerate_placements(&c, 8);
        assert_eq!(ps.len(), 10);
    }

    #[test]
    fn includes_tp_heavy_and_dp_heavy_options() {
        let c = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let ps = enumerate_placements(&c, 8);
        assert!(ps.contains(&Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1
        }));
        assert!(ps.contains(&Placement {
            v1: 1,
            v2: 1,
            vp: 1,
            vd: 8
        }));
        assert!(ps.contains(&Placement {
            v1: 4,
            v2: 1,
            vp: 2,
            vd: 1
        }));
    }

    #[test]
    fn odd_group_sizes_allow_partial_domains() {
        // n1 = 3: divisors {1, 3}; with nvs = 4 the maximal tuples may
        // not fill the domain exactly.
        let c = cfg(3, 1, 1, 1);
        let ps = enumerate_placements(&c, 4);
        assert_eq!(
            ps,
            vec![Placement {
                v1: 3,
                v2: 1,
                vp: 1,
                vd: 1
            }]
        );
    }
}
