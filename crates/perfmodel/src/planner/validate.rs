//! Typed validation of planner configurations.
//!
//! [`PlannerConfig`] round-trips through JSON ([`crate::Planner::from_config`]
//! replays persisted planning problems), which makes its fields attacker-
//! controlled inputs: a hand-edited or corrupted document can carry
//! non-finite objective weights, zero degrees, or absurd GPU counts that
//! would send the enumeration into a multi-hour sweep. [`PlannerConfig::
//! validate`] rejects those *before* any search work with a typed
//! [`ConfigError`] naming the offending field; [`crate::Planner::try_execute`]
//! is the validating entry point (it also vets the numeric fields the
//! scoring context pulls from the [`SystemSpec`] — reliability rates and
//! bandwidths — since the goodput objectives feed them into solvers that
//! assume finite inputs).

use super::{LexStage, Objective, PlannerConfig, WeightedTerm};
use serde::{Deserialize, Serialize};
use systems::{NetworkSpec, SystemSpec};

/// Largest GPU count / global batch a replayed configuration may ask
/// for: enumeration work grows with the divisor structure of these, so
/// the bound keeps adversarial documents from turning `execute` into an
/// unbounded sweep. Generous — 2²⁴ is 16× the largest cluster in the
/// paper's projections.
pub const MAX_SCALE: u64 = 1 << 24;

/// Longest `gpu_counts` list (each entry spawns a full sub-space sweep).
pub const MAX_GPU_COUNTS: usize = 64;

/// A structurally invalid [`PlannerConfig`] (or system numerics), caught
/// at validate time — each variant names the offending field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigError {
    /// A list field that must have at least one entry is empty.
    Empty {
        /// Dotted path of the field.
        field: String,
    },
    /// An integer field that must be ≥ 1 is zero.
    Zero {
        /// Dotted path of the field.
        field: String,
    },
    /// An integer field exceeds its enumeration-safety bound.
    TooLarge {
        /// Dotted path of the field.
        field: String,
        /// The offending value.
        value: u64,
        /// The inclusive maximum.
        max: u64,
    },
    /// A float field is NaN or infinite.
    NonFinite {
        /// Dotted path of the field.
        field: String,
    },
    /// A float field that must be positive (or non-negative, per the
    /// field's doc) is out of range.
    OutOfRange {
        /// Dotted path of the field.
        field: String,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Empty { field } => write!(f, "{field} must not be empty"),
            ConfigError::Zero { field } => write!(f, "{field} must be at least 1"),
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "{field} = {value} exceeds the supported maximum {max}")
            }
            ConfigError::NonFinite { field } => write!(f, "{field} must be finite"),
            ConfigError::OutOfRange { field, value } => {
                write!(f, "{field} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn finite(value: f64, field: &'static str) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NonFinite {
            field: field.into(),
        })
    }
}

fn positive(value: f64, field: &'static str) -> Result<(), ConfigError> {
    finite(value, field)?;
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field: field.into(),
            value,
        })
    }
}

fn non_negative(value: f64, field: &'static str) -> Result<(), ConfigError> {
    finite(value, field)?;
    if value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field: field.into(),
            value,
        })
    }
}

fn check_objective(o: &Objective) -> Result<(), ConfigError> {
    match o {
        Objective::TrainingDays { iterations } => {
            positive(*iterations, "objective.TrainingDays.iterations")
        }
        Objective::EffectiveTrainingDays { iterations } => {
            positive(*iterations, "objective.EffectiveTrainingDays.iterations")
        }
        Objective::Weighted { terms } => {
            if terms.is_empty() {
                return Err(ConfigError::Empty {
                    field: "objective.Weighted.terms".into(),
                });
            }
            for WeightedTerm { objective, weight } in terms {
                finite(*weight, "objective.Weighted.terms.weight")?;
                check_objective(objective)?;
            }
            Ok(())
        }
        Objective::Lexicographic { stages } => {
            if stages.is_empty() {
                return Err(ConfigError::Empty {
                    field: "objective.Lexicographic.stages".into(),
                });
            }
            for LexStage {
                objective,
                rel_tolerance,
            } in stages
            {
                non_negative(
                    *rel_tolerance,
                    "objective.Lexicographic.stages.rel_tolerance",
                )?;
                check_objective(objective)?;
            }
            Ok(())
        }
        Objective::ServingSlo { slo } => {
            positive(slo.ttft_p50, "objective.ServingSlo.slo.ttft_p50")?;
            positive(slo.ttft_p99, "objective.ServingSlo.slo.ttft_p99")?;
            positive(slo.tpot_p50, "objective.ServingSlo.slo.tpot_p50")?;
            positive(slo.tpot_p99, "objective.ServingSlo.slo.tpot_p99")
        }
        Objective::IterationTime
        | Objective::TokensPerGpuSecond
        | Objective::HbmHeadroom
        | Objective::GpuSeconds
        | Objective::ExpectedGoodput
        | Objective::TokensPerSecPerGpu => Ok(()),
    }
}

impl PlannerConfig {
    /// Validates a (possibly replayed-from-JSON) configuration: every
    /// list non-empty, every degree/bound at least 1, GPU counts and the
    /// global batch inside [`MAX_SCALE`], and every objective float
    /// finite (and positive where the semantics require it). Returns the
    /// first violation as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let s = &self.space;
        if s.gpu_counts.is_empty() {
            return Err(ConfigError::Empty {
                field: "space.gpu_counts".into(),
            });
        }
        if s.gpu_counts.len() > MAX_GPU_COUNTS {
            return Err(ConfigError::TooLarge {
                field: "space.gpu_counts.len".into(),
                value: s.gpu_counts.len() as u64,
                max: MAX_GPU_COUNTS as u64,
            });
        }
        for &n in &s.gpu_counts {
            if n == 0 {
                return Err(ConfigError::Zero {
                    field: "space.gpu_counts".into(),
                });
            }
            if n > MAX_SCALE {
                return Err(ConfigError::TooLarge {
                    field: "space.gpu_counts".into(),
                    value: n,
                    max: MAX_SCALE,
                });
            }
        }
        if s.global_batch == 0 {
            return Err(ConfigError::Zero {
                field: "space.global_batch".into(),
            });
        }
        if s.global_batch > MAX_SCALE {
            return Err(ConfigError::TooLarge {
                field: "space.global_batch".into(),
                value: s.global_batch,
                max: MAX_SCALE,
            });
        }
        if s.strategies.is_empty() {
            return Err(ConfigError::Empty {
                field: "space.strategies".into(),
            });
        }
        for (value, field) in [
            (s.max_summa_panels, "space.max_summa_panels"),
            (s.max_microbatch, "space.max_microbatch"),
            (s.max_interleave, "space.max_interleave"),
            (s.max_expert_parallel, "space.max_expert_parallel"),
            (s.max_pipeline, "space.max_pipeline"),
            (s.max_data_parallel, "space.max_data_parallel"),
            (s.max_tensor_parallel, "space.max_tensor_parallel"),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero {
                    field: field.into(),
                });
            }
        }
        if self.top_k == 0 {
            return Err(ConfigError::Zero {
                field: "top_k".into(),
            });
        }
        check_objective(&self.objective)?;
        for o in &self.pareto {
            check_objective(o)?;
        }
        Ok(())
    }
}

/// Vets the network fields every collective time reads: bandwidths and
/// the bandwidth efficiency positive and finite, latencies non-negative
/// and finite. On a network that passes, every priced collective is
/// finite and non-negative, which the search's time bound assumes
/// (`crate::evaluate::iteration_time_lower_bound`), so the planner prunes
/// only on such a network and sweeps every candidate on any other.
pub(crate) fn validate_network(n: &NetworkSpec) -> Result<(), ConfigError> {
    positive(n.nvs_bandwidth, "system.network.nvs_bandwidth")?;
    non_negative(n.nvs_latency, "system.network.nvs_latency")?;
    positive(n.ib_bandwidth, "system.network.ib_bandwidth")?;
    non_negative(n.ib_latency, "system.network.ib_latency")?;
    positive(
        n.bandwidth_efficiency,
        "system.network.bandwidth_efficiency",
    )
}

/// Vets the numeric [`SystemSpec`] fields the planner's scoring context
/// consumes: network bandwidths/latencies and the reliability rates the
/// goodput objectives feed into the checkpoint-interval solver. (The
/// catalog constructors always satisfy this; a hand-built or deserialized
/// spec may not.)
pub fn validate_system(sys: &SystemSpec) -> Result<(), ConfigError> {
    validate_network(&sys.network)?;
    let r = &sys.reliability;
    non_negative(r.gpu_mtbf_hours, "system.reliability.gpu_mtbf_hours")?;
    non_negative(r.nic_mtbf_hours, "system.reliability.nic_mtbf_hours")?;
    non_negative(
        r.link_flap_rate_per_hour,
        "system.reliability.link_flap_rate_per_hour",
    )?;
    non_negative(r.flap_duration_s, "system.reliability.flap_duration_s")?;
    non_negative(
        r.straggler_duration_s,
        "system.reliability.straggler_duration_s",
    )?;
    non_negative(
        r.restart_overhead_s,
        "system.reliability.restart_overhead_s",
    )?;
    finite(r.link_degradation, "system.reliability.link_degradation")?;
    if !(0.0 < r.link_degradation && r.link_degradation <= 1.0) {
        return Err(ConfigError::OutOfRange {
            field: "system.reliability.link_degradation".into(),
            value: r.link_degradation,
        });
    }
    finite(r.straggler_prob, "system.reliability.straggler_prob")?;
    if !(0.0..=1.0).contains(&r.straggler_prob) {
        return Err(ConfigError::OutOfRange {
            field: "system.reliability.straggler_prob".into(),
            value: r.straggler_prob,
        });
    }
    finite(
        r.straggler_slowdown,
        "system.reliability.straggler_slowdown",
    )?;
    if r.straggler_slowdown < 1.0 {
        return Err(ConfigError::OutOfRange {
            field: "system.reliability.straggler_slowdown".into(),
            value: r.straggler_slowdown,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SearchSpace;
    use systems::{system, GpuGeneration, NvsSize, ReliabilitySpec};

    #[test]
    fn the_default_config_and_catalog_systems_validate() {
        PlannerConfig::default().validate().unwrap();
        validate_system(&system(GpuGeneration::B200, NvsSize::Nvs8)).unwrap();
        validate_system(&systems::perlmutter(4)).unwrap();
        validate_system(
            &system(GpuGeneration::A100, NvsSize::Nvs4)
                .with_reliability(ReliabilitySpec::failure_free()),
        )
        .unwrap();
    }

    #[test]
    fn zero_and_oversized_integers_are_rejected_with_the_field_name() {
        let mut c = PlannerConfig {
            space: SearchSpace::new().gpus(0),
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "space.gpu_counts".into()
            })
        );
        c.space = SearchSpace::new().gpus(u64::MAX);
        match c.validate() {
            Err(ConfigError::TooLarge { field, .. }) => assert_eq!(field, "space.gpu_counts"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        c.space = SearchSpace::new().global_batch(0);
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "space.global_batch".into()
            })
        );
        c.space = SearchSpace::default();
        c.space.strategies.clear();
        assert_eq!(
            c.validate(),
            Err(ConfigError::Empty {
                field: "space.strategies".into()
            })
        );
        c.space = SearchSpace::default();
        c.top_k = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "top_k".into()
            })
        );
    }

    #[test]
    fn non_finite_objective_floats_are_rejected() {
        let mut c = PlannerConfig {
            objective: Objective::TrainingDays {
                iterations: f64::NAN,
            },
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonFinite {
                field: "objective.TrainingDays.iterations".into()
            })
        );
        c.objective = Objective::Weighted {
            terms: vec![WeightedTerm {
                objective: Objective::IterationTime,
                weight: f64::INFINITY,
            }],
        };
        assert!(matches!(c.validate(), Err(ConfigError::NonFinite { .. })));
        // ...including nested inside the Pareto set.
        c.objective = Objective::IterationTime;
        c.pareto = vec![Objective::EffectiveTrainingDays { iterations: -3.0 }];
        assert!(matches!(c.validate(), Err(ConfigError::OutOfRange { .. })));
    }

    #[test]
    fn adversarial_reliability_numerics_are_rejected() {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let bad = sys
            .clone()
            .with_reliability(ReliabilitySpec::datacenter().with_gpu_mtbf_hours(f64::NAN));
        assert_eq!(
            validate_system(&bad),
            Err(ConfigError::NonFinite {
                field: "system.reliability.gpu_mtbf_hours".into()
            })
        );
        let bad = sys
            .clone()
            .with_reliability(ReliabilitySpec::datacenter().with_link_flaps(0.0, 1.0, 60.0));
        match validate_system(&bad) {
            Err(ConfigError::OutOfRange { field, .. }) => {
                assert_eq!(field, "system.reliability.link_degradation")
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        let bad =
            sys.with_reliability(ReliabilitySpec::datacenter().with_stragglers(2.0, 1.5, 60.0));
        match validate_system(&bad) {
            Err(ConfigError::OutOfRange { field, .. }) => {
                assert_eq!(field, "system.reliability.straggler_prob")
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_the_field_path() {
        let e = ConfigError::TooLarge {
            field: "space.gpu_counts".into(),
            value: u64::MAX,
            max: MAX_SCALE,
        };
        assert!(e.to_string().contains("space.gpu_counts"));
        let e: ConfigError = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert!(matches!(e, ConfigError::TooLarge { .. }));
    }
}
