//! Benchmark v1 of the fmperf workspace.
//!
//! Two workloads — `plan` and `simulate` — each run as a
//! closed loop with one client: ops run back to back on the main
//! thread, each after the previous one finishes. A *pass* runs every op
//! of a workload once. Warm passes repeat inside the long-lived process;
//! cold passes each run in a fresh child process, spread between the
//! warm passes. Every op's output is digested and checked against the
//! committed golden digests. A separate traced invocation records spans
//! and counter deltas per layer.
//!
//! The benchmark calls only public items of the workspace crates. See
//! `BENCHMARK.md` in this package for the metric definitions.

mod golden;
mod run;
mod trace;
mod workloads;

use serde_json::Value;

/// The seed of a run that is given no `--seed`.
const DEFAULT_SEED: u64 = 42;

/// FNV-1a (64-bit) over `bytes`: the digest every op output is reduced to.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Median of `xs` (the mean of the middle two for an even count); 0 for
/// an empty slice.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 for an empty slice.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run::main(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_values_and_of_none() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
