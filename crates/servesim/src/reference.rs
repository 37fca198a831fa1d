//! The oracle of the decode loop's differential tests: the plainest form
//! of the step loop, which visits every resident sequence at every step
//! and stores one gap per output token, and the selection percentile
//! over those samples. [`simulate_serving`] replays a spec through them
//! on the production trace, replica queues and report arithmetic, so a
//! difference from [`super::simulate_serving`] can come only from the
//! decode loop or the percentile.

use super::{arrival_trace, decode_queues, Request, SimParams, SimReport, SimSpec, Tally};

/// [`super::simulate_serving`] with the token loop and the selection
/// percentile.
pub(crate) fn simulate_serving(spec: &SimSpec, params: &SimParams) -> SimReport {
    let trace = arrival_trace(&spec.traffic, params);
    let (queues, inline_prefill) = decode_queues(spec, &trace);
    let mut tally = Tally::default();
    for queue in &queues {
        run_decode_replica(spec, queue, inline_prefill, &mut tally);
    }
    tally.report(spec, &trace, |samples, q| percentile(samples, q))
}

/// A sequence resident in a decode batch.
#[derive(Debug, Clone, Copy)]
struct Resident {
    remaining: u64,
    last_token: f64,
}

/// Nearest-rank quantile, found by selection rather than a full sort
/// (reorders `samples`). Samples equal under `total_cmp` are equal bit
/// for bit, so the result is the sorted sample's. Empty samples report
/// 0 — a trace with no tokens has no latency to speak of.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = (q * samples.len() as f64).ceil() as usize;
    let index = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable_by(index, f64::total_cmp).1
}

/// Runs one decode replica's step loop over its assigned requests.
/// `inline_prefill` is the colocated discipline: admissions run the
/// prompt's prefill on the replica's own timeline (stalling residents);
/// disaggregated decode admits instantaneously (prefill already happened
/// in the prefill pool — `ready` times carry it).
fn run_decode_replica(
    spec: &SimSpec,
    queue: &[(f64 /* ready */, Request)],
    inline_prefill: bool,
    tally: &mut Tally<Vec<f64>>,
) {
    let ceiling = spec.batch_ceiling as usize;
    let mut residents: Vec<Resident> = Vec::new();
    let mut next = 0usize;
    let mut t = match queue.first() {
        Some((ready, _)) => *ready,
        None => return,
    };
    while next < queue.len() || !residents.is_empty() {
        // Idle replica: jump to the next arrival.
        if residents.is_empty() && next < queue.len() && queue[next].0 > t {
            t = queue[next].0;
        }
        // Admit at the step boundary while there is room. Inline
        // prefill advances the clock, which can make further queued
        // requests eligible — the loop re-tests against the moved `t`.
        while next < queue.len() && residents.len() < ceiling && queue[next].0 <= t {
            let (ready, req) = queue[next];
            next += 1;
            if inline_prefill {
                t += spec.prefill_of(req.prompt);
                tally.ttfts.push(t - req.arrival);
            } else {
                tally.ttfts.push(ready - req.arrival);
            }
            residents.push(Resident {
                remaining: req.output,
                last_token: if inline_prefill { t } else { ready.max(t) },
            });
        }
        if residents.is_empty() {
            continue;
        }
        // One decode step at the current batch.
        let b = residents.len();
        let dt = spec.step(b);
        t += dt;
        tally.occupancy_time += b as f64 * dt;
        tally.busy_time += dt;
        tally.tokens += b as u64;
        for r in &mut residents {
            tally.gaps.push(t - r.last_token);
            r.last_token = t;
            r.remaining -= 1;
        }
        residents.retain(|r| r.remaining > 0);
    }
    if t > tally.last_finish {
        tally.last_finish = t;
    }
}
