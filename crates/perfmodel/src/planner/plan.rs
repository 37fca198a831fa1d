//! First-class planning artifacts: [`Plan`] and [`PlanSet`].
//!
//! A [`Plan`] is one selected design point *with everything needed to act
//! on it*: the model it was planned for, the batch size, the full
//! [`Evaluation`] (configuration, placement, breakdown, memory) and its
//! scores under the planner's objectives. It serializes to JSON, renders
//! through [`report`] (see [`PlanSet::to_artifact`]) and feeds
//! `trainsim::compare_plan` for simulator validation — plan once, then
//! archive, diff, or re-validate the artifact without re-running the
//! search.

use super::objective::{Objective, ObjectiveCtx, Score};
use crate::evaluate::Evaluation;
use report::{num, Artifact};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use txmodel::TransformerConfig;

/// One selected design point, self-contained and serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The model the plan was computed for.
    pub model: TransformerConfig,
    /// Global batch size the space was searched at.
    pub global_batch: u64,
    /// The full evaluation (configuration, placement, times, memory).
    pub eval: Evaluation,
    /// Natural-units metric values under the planner's objectives (the
    /// ranking objective first, then each Pareto objective).
    pub scores: Vec<Score>,
}

impl Plan {
    /// The score under `objective`, if it was among the planner's.
    pub fn score(&self, objective: &Objective) -> Option<f64> {
        self.scores
            .iter()
            .find(|s| &s.objective == objective)
            .map(|s| s.value)
    }
}

/// The result of one [`crate::Planner`] execution: the top-k ranked plans
/// and the exact Pareto frontier across the selected objectives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSet {
    /// The ranking objective the top-k list was ordered by.
    pub objective: Objective,
    /// The objectives the Pareto frontier was computed across.
    pub pareto_objectives: Vec<Objective>,
    /// Candidates that passed the memory gate, whether the search
    /// evaluated them or pruned them as provably outside the result —
    /// every enumerated candidate when infeasible ones are kept
    /// ([`crate::Planner::include_infeasible`]). Identical with pruning
    /// on and off.
    pub candidates: u64,
    /// Of [`Self::candidates`], those that fit in HBM: the pool the top-k
    /// list and the frontier are drawn from. Equals `candidates` unless
    /// infeasible ones are kept.
    pub feasible: u64,
    /// Top-k plans, best first (ties keep enumeration order).
    pub top: Vec<Plan>,
    /// The exact Pareto frontier: every feasible candidate not dominated
    /// across [`Self::pareto_objectives`], ordered by the first
    /// objective's key. With a single objective this degenerates to the
    /// optimum (plus exact ties).
    pub pareto: Vec<Plan>,
}

impl PlanSet {
    /// The best-ranked plan, if any candidate was feasible.
    pub fn best(&self) -> Option<&Plan> {
        self.top.first()
    }

    /// Renders the plan set as a [`report::Artifact`] (aligned-table
    /// display via [`Artifact::render`], JSON/CSV persistence via
    /// [`Artifact::write`]). Rows cover the top-k list and the Pareto
    /// frontier, tagged by a `set` column; score columns follow the
    /// objective order of [`Plan::scores`].
    pub fn to_artifact(&self, id: impl Into<String>, title: impl Into<String>) -> Artifact {
        let mut columns: Vec<String> = ["set", "rank", "gpus", "config", "m", "HBM (GB)"]
            .map(String::from)
            .to_vec();
        let score_names: Vec<String> = self
            .top
            .iter()
            .chain(self.pareto.iter())
            .next()
            .map(|p| p.scores.iter().map(|s| s.objective.name()).collect())
            .unwrap_or_default();
        columns.extend(score_names.iter().cloned());
        let mut art = Artifact::new(id, title, columns);
        let mut push = |set: &str, rank: usize, p: &Plan| {
            let mut row = vec![
                Value::String(set.into()),
                num(rank as f64),
                num(p.eval.config.total_gpus() as f64),
                Value::String(format!("{}", p.eval.config)),
                num(p.eval.microbatches as f64),
                num(p.eval.memory.total_gb()),
            ];
            // Align by position: every plan's scores share one objective
            // order (display names are not injective — e.g. two
            // `TrainingDays` with different iteration counts both render
            // as "days"). Width-stable even if score sets ever diverge.
            for i in 0..score_names.len() {
                let v = p.scores.get(i).map(|s| match s.objective {
                    Objective::HbmHeadroom => s.value / 1e9,
                    _ => s.value,
                });
                row.push(v.map(num).unwrap_or(Value::Null));
            }
            art.push(row);
        };
        for (i, p) in self.top.iter().enumerate() {
            push("top", i + 1, p);
        }
        for (i, p) in self.pareto.iter().enumerate() {
            push("pareto", i + 1, p);
        }
        art
    }
}

/// Builds the [`Plan`] for one evaluation under the planner's objectives.
pub(crate) fn plan_of(
    eval: &Evaluation,
    model: &TransformerConfig,
    ctx: &ObjectiveCtx,
    objectives: &[Objective],
) -> Plan {
    let mut scores: Vec<Score> = Vec::new();
    for o in objectives {
        if scores.iter().any(|s| &s.objective == o) {
            continue;
        }
        scores.push(Score {
            objective: o.clone(),
            value: o.value(eval, ctx),
        });
    }
    Plan {
        model: *model,
        global_batch: ctx.global_batch,
        eval: eval.clone(),
        scores,
    }
}

/// Exact Pareto frontier of `idx` (indices into `evals`) under the
/// lower-is-better key vectors of `objectives`: `a` dominates `b` iff
/// every key of `a` is ≤ `b`'s and at least one is strictly `<`. Exact
/// key ties are mutually non-dominating, so duplicates of a frontier
/// point all appear. Output is ordered by the first objective's key
/// (ties keep enumeration order).
pub(crate) fn pareto_frontier(
    evals: &[Evaluation],
    idx: &[usize],
    objectives: &[Objective],
    ctx: &ObjectiveCtx,
) -> Vec<usize> {
    if objectives.is_empty() {
        return Vec::new();
    }
    let keys: Vec<Vec<f64>> = evals
        .iter()
        .map(|e| objectives.iter().map(|o| o.key(e, ctx)).collect())
        .collect();
    let dominates = |a: &[f64], b: &[f64]| -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let mut frontier: Vec<usize> = Vec::new();
    for &i in idx {
        if frontier.iter().any(|&j| dominates(&keys[j], &keys[i])) {
            continue;
        }
        frontier.retain(|&j| !dominates(&keys[i], &keys[j]));
        frontier.push(i);
    }
    frontier.sort_by(|&a, &b| keys[a][0].total_cmp(&keys[b][0]));
    frontier
}
