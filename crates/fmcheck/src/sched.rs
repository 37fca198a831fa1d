//! fmsched: a miniature loom/shuttle-style model checker for the
//! workspace's concurrency protocols.
//!
//! # What it checks and how
//!
//! A [`Model`] is a small, faithful re-statement of one real protocol
//! (see [`crate::models`]) as `threads()` programs of *atomic steps* —
//! each step is one shared-memory operation at exactly the granularity
//! the real code's synchronization primitives guarantee (one `fetch_add`
//! chunk claim, one store into a result slot). Every boundary between
//! steps is a preemption point. Every modelled protocol is lock-free, so
//! a thread that has not finished can always take a step.
//!
//! [`explore`] enumerates *schedules* — sequences of thread ids — with
//! an exhaustive depth-first search: at every preemption point it forks
//! one branch per unfinished thread, replaying the (deterministic) model
//! from its initial state down each prefix. After every step the model's
//! [`Model::check_step`] invariant must hold; when all threads have
//! finished, [`Model::check_final`] must hold. An execution exceeding the
//! step budget is reported as a livelock.
//!
//! Above the exhaustive budget ([`Budget::max_schedules`]) the explorer
//! degrades to a *seeded random walk*: `random_walks` schedules drawn
//! from a deterministic xorshift generator, so a CI failure reproduces
//! locally from the same seed. The [`Report`] says which regime ran.
//!
//! # Writing a new model
//!
//! 1. Hold all shared *and* per-thread state in the struct; implement
//!    [`Model::reset`] to restore the initial state (the explorer
//!    replays prefixes, so resets must be total).
//! 2. Split the protocol into steps at exactly the points where the real
//!    code's atomicity ends. One lock-protected critical section is one
//!    step; a load and a later CAS are two.
//! 3. Express the correctness claim in `check_step` (safety along the
//!    way: monotonicity, at-most-once) and `check_final` (the
//!    linearizability-style result claim: equals the sequential
//!    outcome).
//! 4. Add a regression twin: a flag that re-introduces the historical
//!    bug, and a test asserting [`explore`] *finds* the violation — a
//!    checker that cannot see the bug it was built for proves nothing.

/// One protocol model: `threads()` programs of atomic steps over shared
/// state. See the module docs for how to write one.
pub trait Model {
    /// Short name for reports (e.g. `"chunk-claim"`).
    fn name(&self) -> &'static str;

    /// Number of threads in the protocol.
    fn threads(&self) -> usize;

    /// Restores the initial state. Called before every replay; must be
    /// total (the explorer assumes `reset → steps(schedule)` is a pure
    /// function of the schedule).
    fn reset(&mut self);

    /// True when thread `tid` has finished its program.
    fn done(&self, tid: usize) -> bool;

    /// Executes thread `tid`'s next atomic step. Only called when
    /// `!done(tid)`.
    fn step(&mut self, tid: usize);

    /// Safety invariant checked after every step.
    fn check_step(&self) -> Result<(), String> {
        Ok(())
    }

    /// Result invariant checked when every thread is done.
    fn check_final(&self) -> Result<(), String>;
}

/// Exploration limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Complete schedules the DFS may enumerate before giving up on
    /// exhaustiveness.
    pub max_schedules: u64,
    /// Random-walk schedules run when the DFS was cut off.
    pub random_walks: u64,
    /// Seed for the random-walk generator (reported, so failures
    /// reproduce).
    pub seed: u64,
    /// Per-execution step cap; exceeding it is reported as a livelock.
    pub max_steps: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            // Comfortably above the ~3.5e4 schedules of a 3×4-op model;
            // CI pins per-model budgets in the tests.
            max_schedules: 500_000,
            random_walks: 10_000,
            seed: 0x5eed_f00d,
            max_steps: 10_000,
        }
    }
}

/// Why an execution was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// `check_step` or `check_final` failed.
    Invariant,
    /// Step budget exceeded ([`Budget::max_steps`]).
    Livelock,
}

/// A failing schedule: replaying `schedule` from a fresh reset
/// reproduces `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant class failed.
    pub kind: ViolationKind,
    /// The thread-id sequence that exposes the bug (a replayable
    /// counterexample).
    pub schedule: Vec<usize>,
    /// The failed invariant's message.
    pub message: String,
}

/// Outcome of [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Model name.
    pub model: &'static str,
    /// Complete schedules enumerated by the DFS (distinct by
    /// construction: the DFS never revisits a prefix).
    pub schedules: u64,
    /// True when the DFS covered *every* schedule within the step cap.
    pub exhaustive: bool,
    /// Random-walk schedules run after a cut-off DFS.
    pub random_walks: u64,
    /// Seed the walks used.
    pub seed: u64,
    /// First violation found, if any. `None` = every explored schedule
    /// satisfied every invariant.
    pub violation: Option<Violation>,
}

impl Report {
    /// True when no violation was found.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively model-checks `model` within `budget` (random-walk
/// fallback above it). See the module docs.
pub fn explore(model: &mut dyn Model, budget: &Budget) -> Report {
    let mut report = Report {
        model: model.name(),
        schedules: 0,
        exhaustive: true,
        random_walks: 0,
        seed: budget.seed,
        violation: None,
    };
    let mut prefix = Vec::new();
    dfs(model, budget, &mut prefix, &mut report);
    if !report.exhaustive && report.violation.is_none() {
        random_walks(model, budget, &mut report);
    }
    report
}

/// Replays `schedule` from a fresh reset, checking invariants along the
/// way. Returns the number of steps taken, or the violation.
fn replay(model: &mut dyn Model, schedule: &[usize]) -> Result<(), (ViolationKind, String)> {
    model.reset();
    for &tid in schedule {
        model.step(tid);
        if let Err(m) = model.check_step() {
            return Err((ViolationKind::Invariant, m));
        }
    }
    Ok(())
}

fn dfs(model: &mut dyn Model, budget: &Budget, prefix: &mut Vec<usize>, report: &mut Report) {
    if report.violation.is_some() || !report.exhaustive {
        return;
    }
    if prefix.len() as u32 >= budget.max_steps {
        report.violation = Some(Violation {
            kind: ViolationKind::Livelock,
            schedule: prefix.clone(),
            message: format!("execution exceeded {} steps", budget.max_steps),
        });
        return;
    }
    // Replay the prefix to materialize this node's state. O(depth) per
    // node; model steps are trivially cheap, so replay keeps the explorer
    // free of any undo/clone obligations on models.
    if let Err((kind, message)) = replay(model, prefix) {
        report.violation = Some(Violation {
            kind,
            schedule: prefix.clone(),
            message,
        });
        return;
    }
    let runnable: Vec<usize> = (0..model.threads()).filter(|&t| !model.done(t)).collect();
    if runnable.is_empty() {
        report.schedules += 1;
        if let Err(m) = model.check_final() {
            report.violation = Some(Violation {
                kind: ViolationKind::Invariant,
                schedule: prefix.clone(),
                message: m,
            });
        } else if report.schedules >= budget.max_schedules {
            report.exhaustive = false;
        }
        return;
    }
    for tid in runnable {
        prefix.push(tid);
        dfs(model, budget, prefix, report);
        prefix.pop();
        if report.violation.is_some() || !report.exhaustive {
            return;
        }
    }
}

/// xorshift64* — deterministic, dependency-free randomness for the walk
/// fallback.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn random_walks(model: &mut dyn Model, budget: &Budget, report: &mut Report) {
    let mut rng = budget.seed | 1; // xorshift must not start at 0
    'walk: for _ in 0..budget.random_walks {
        model.reset();
        let mut schedule = Vec::new();
        loop {
            if schedule.len() as u32 >= budget.max_steps {
                report.violation = Some(Violation {
                    kind: ViolationKind::Livelock,
                    schedule,
                    message: format!("execution exceeded {} steps", budget.max_steps),
                });
                break 'walk;
            }
            let runnable: Vec<usize> = (0..model.threads()).filter(|&t| !model.done(t)).collect();
            if runnable.is_empty() {
                if let Err(m) = model.check_final() {
                    report.violation = Some(Violation {
                        kind: ViolationKind::Invariant,
                        schedule,
                        message: m,
                    });
                    break 'walk;
                }
                break;
            }
            let tid = runnable[(xorshift(&mut rng) % runnable.len() as u64) as usize];
            model.step(tid);
            schedule.push(tid);
            if let Err(m) = model.check_step() {
                report.violation = Some(Violation {
                    kind: ViolationKind::Invariant,
                    schedule,
                    message: m,
                });
                break 'walk;
            }
        }
        report.random_walks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads incrementing a shared counter with an atomic step:
    /// always sums correctly — the checker must pass it and count the
    /// interleavings exactly.
    struct AtomicCounter {
        ops_per_thread: usize,
        remaining: Vec<usize>,
        value: u64,
    }

    impl AtomicCounter {
        fn new(threads: usize, ops: usize) -> Self {
            Self {
                ops_per_thread: ops,
                remaining: vec![ops; threads],
                value: 0,
            }
        }
    }

    impl Model for AtomicCounter {
        fn name(&self) -> &'static str {
            "atomic-counter"
        }
        fn threads(&self) -> usize {
            self.remaining.len()
        }
        fn reset(&mut self) {
            self.remaining.fill(self.ops_per_thread);
            self.value = 0;
        }
        fn done(&self, tid: usize) -> bool {
            self.remaining[tid] == 0
        }
        fn step(&mut self, tid: usize) {
            self.remaining[tid] -= 1;
            self.value += 1; // fetch_add: read-modify-write is one step
        }
        fn check_final(&self) -> Result<(), String> {
            let expect = (self.threads() * self.ops_per_thread) as u64;
            if self.value == expect {
                Ok(())
            } else {
                Err(format!("value {} != {}", self.value, expect))
            }
        }
    }

    /// Lost-update twin: load and store are separate steps.
    struct TornCounter {
        inner: AtomicCounter,
        loaded: Vec<Option<u64>>,
    }

    impl Model for TornCounter {
        fn name(&self) -> &'static str {
            "torn-counter"
        }
        fn threads(&self) -> usize {
            self.inner.threads()
        }
        fn reset(&mut self) {
            self.inner.reset();
            self.loaded.fill(None);
        }
        fn done(&self, tid: usize) -> bool {
            self.inner.done(tid) && self.loaded[tid].is_none()
        }
        fn step(&mut self, tid: usize) {
            match self.loaded[tid].take() {
                None => self.loaded[tid] = Some(self.inner.value), // load
                Some(v) => {
                    self.inner.value = v + 1; // store of stale value
                    self.inner.remaining[tid] -= 1;
                }
            }
        }
        fn check_final(&self) -> Result<(), String> {
            self.inner.check_final()
        }
    }

    #[test]
    fn counts_interleavings_exactly() {
        // 2 threads × 2 ops: C(4,2) = 6 interleavings.
        let mut m = AtomicCounter::new(2, 2);
        let r = explore(&mut m, &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        assert_eq!(r.schedules, 6);
        // 3 threads × 2 ops: 6!/(2!·2!·2!) = 90.
        let mut m = AtomicCounter::new(3, 2);
        let r = explore(&mut m, &Budget::default());
        assert_eq!((r.schedules, r.exhaustive), (90, true));
    }

    #[test]
    fn finds_lost_update() {
        let mut m = TornCounter {
            inner: AtomicCounter::new(2, 1),
            loaded: vec![None; 2],
        };
        let r = explore(&mut m, &Budget::default());
        let v = r.violation.expect("torn counter must lose an update");
        assert_eq!(v.kind, ViolationKind::Invariant);
        // The counterexample replays: both threads load 0, both store 1.
        assert!(!v.schedule.is_empty());
    }

    #[test]
    fn counterexample_replays_to_the_same_violation() {
        let mut m = TornCounter {
            inner: AtomicCounter::new(2, 1),
            loaded: vec![None; 2],
        };
        let v = explore(&mut m, &Budget::default())
            .violation
            .expect("violation");
        // Re-run exactly the reported schedule: the final check fails
        // again with the same message.
        replay(&mut m, &v.schedule).expect("steps are violation-free");
        assert!((0..m.threads()).all(|t| m.done(t)));
        assert_eq!(m.check_final().expect_err("still fails"), v.message);
    }

    #[test]
    fn budget_cutoff_degrades_to_seeded_walks() {
        // 3×3 ops = 1680 schedules > max_schedules=100.
        let mut m = AtomicCounter::new(3, 3);
        let budget = Budget {
            max_schedules: 100,
            random_walks: 50,
            ..Budget::default()
        };
        let r = explore(&mut m, &budget);
        assert!(!r.exhaustive);
        assert_eq!(r.random_walks, 50);
        assert!(r.passed());
        // Determinism: the same seed explores the same walks.
        let again = explore(&mut m, &budget);
        assert_eq!(r, again);
    }

    #[test]
    fn random_walks_also_find_bugs() {
        // Cut the DFS off almost immediately: the walk fallback must
        // still expose the lost update.
        let mut m = TornCounter {
            inner: AtomicCounter::new(2, 2),
            loaded: vec![None; 2],
        };
        let budget = Budget {
            max_schedules: 1,
            random_walks: 5_000,
            ..Budget::default()
        };
        let r = explore(&mut m, &budget);
        assert!(r.violation.is_some(), "{r:?}");
    }
}
