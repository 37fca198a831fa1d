//! Output checks against committed golden digests.
//!
//! `golden.txt` holds one line per op, `<workload> <op name> <digest>`.
//! The seed changes only the order of the ops, so every pass of every run
//! — warm, cold or traced, at any pool width — is checked against the
//! same goldens, bit for bit.

use crate::workloads::{Op, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Golden digests keyed by workload and op name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Goldens(BTreeMap<(String, String), u64>);

impl Goldens {
    /// The goldens committed in `golden.txt` at the root of this package.
    pub fn committed() -> Self {
        Self::parse(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/golden.txt"
        )))
        .expect("golden.txt is well-formed")
    }

    /// Parses `golden.txt` text; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, digest] = fields[..] else {
                return Err(format!("malformed golden line: {line}"));
            };
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("bad digest in golden line {line}: {e}"))?;
            map.insert((workload.to_string(), key.to_string()), digest);
        }
        Ok(Self(map))
    }

    /// The golden digest of op `key` of `workload`.
    pub fn get(&self, workload: Workload, key: &str) -> Option<u64> {
        self.0
            .get(&(workload.name().to_string(), key.to_string()))
            .copied()
    }
}

/// The `golden.txt` line for one op's digest.
fn golden_line(workload: Workload, key: &str, digest: u64) -> String {
    format!("{} {key} {digest:016x}", workload.name())
}

/// Checks the digests of every pass of one run and tallies failed ops.
pub struct Checker<'g> {
    goldens: &'g Goldens,
    workload: Workload,
    keys: Vec<String>,
    /// Ops checked.
    pub attempted: u64,
    /// Ops that returned an error or whose digest mismatched.
    pub failed: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// The `golden.txt` lines of ops that have no golden digest; such an
    /// op fails.
    pub missing: BTreeSet<String>,
}

impl<'g> Checker<'g> {
    /// A checker for the ops of one run, in the order they run.
    pub fn new(goldens: &'g Goldens, workload: Workload, ops: &[Op]) -> Self {
        Self {
            goldens,
            workload,
            keys: ops.iter().map(|op| op.name.clone()).collect(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            missing: BTreeSet::new(),
        }
    }

    /// Checks one pass's digests, given in op order; `source` names the
    /// pass in failure messages.
    pub fn check(&mut self, source: &str, digests: &[Result<u64, String>]) {
        if digests.len() != self.keys.len() {
            self.lost(
                source,
                &format!("{} digests for {} ops", digests.len(), self.keys.len()),
            );
            return;
        }
        for (key, digest) in self.keys.iter().zip(digests) {
            self.attempted += 1;
            let failure = match (digest, self.goldens.get(self.workload, key)) {
                (Err(e), _) => Some(format!("{source}: {key} failed: {e}")),
                (Ok(d), Some(golden)) if *d != golden => Some(format!(
                    "{source}: {key} digest {d:016x} != golden {golden:016x}"
                )),
                (Ok(_), Some(_)) => None,
                (Ok(d), None) => {
                    self.missing.insert(golden_line(self.workload, key, *d));
                    Some(format!("{source}: {key} has no golden"))
                }
            };
            if let Some(message) = failure {
                self.failed += 1;
                self.failures.push(message);
            }
        }
    }

    /// Counts every op of a pass that produced no digests as failed.
    pub fn lost(&mut self, source: &str, reason: &str) {
        let n = self.keys.len() as u64;
        self.attempted += n;
        self.failed += n;
        self.failures
            .push(format!("{source}: {n} ops lost: {reason}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::{pass_order, run_pass, setup};

    #[test]
    fn a_golden_with_one_flipped_bit_fails_its_op() {
        let workload = Workload::Plan;
        let mut t = Tracer::new(false);
        let ops = setup(workload, &mut t).expect("set-up succeeds");
        let digests = run_pass(&ops, &pass_order(ops.len(), 5), &mut t);

        let committed = Goldens::committed();
        let mut check = Checker::new(&committed, workload, &ops);
        check.check("pass", &digests);
        assert_eq!(check.attempted, ops.len() as u64);
        assert_eq!(check.failed, 0, "{:?}", check.failures);

        let key = &ops[3].name;
        let mut flipped = committed.clone();
        let golden = committed.get(workload, key).expect("every op has a golden");
        flipped.0.insert(
            (workload.name().to_string(), key.clone()),
            golden ^ (1 << 17),
        );
        let mut check = Checker::new(&flipped, workload, &ops);
        check.check("pass", &digests);
        assert_eq!(check.failed, 1, "{:?}", check.failures);
        assert!(
            check.failures[0].contains(key.as_str()),
            "{:?}",
            check.failures
        );
    }
}
