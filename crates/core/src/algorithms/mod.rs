//! The online and offline algorithms evaluated in the paper (§2, §3) plus
//! the extensions discussed in §5.

pub mod bma;
pub mod demand_aware;
pub mod oblivious;
mod pair_table;
pub mod periodic;
pub mod predictive;
pub mod rbma;
pub mod rotor;
pub mod static_offline;

use crate::scheduler::OnlineScheduler;
use dcn_demand::{DemandAware, DemandMatrix};
use dcn_topology::DistanceMatrix;
use std::sync::Arc;

/// Configuration-friendly algorithm selector for sweeps and benches.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgorithmKind {
    /// No reconfigurable links at all (the violet baseline of Figs. 1–4).
    Oblivious,
    /// The paper's randomized algorithm (§2.2/§2.3).
    Rbma {
        /// Lazy removals per footnote 2 (the experimental default) or the
        /// strict both-caches invariant of the analysis.
        lazy: bool,
    },
    /// Deterministic online b-matching baseline (Bienkowski et al. \[11\]).
    Bma,
    /// Demand-oblivious rotating matchings (RotorNet \[56\]-style).
    Rotor {
        /// Requests between rotation steps.
        period: u64,
    },
    /// R-BMA with next-request predictions (§5 future work). `noise`
    /// blurs the oracle (0.0 = perfect).
    PredictiveRbma {
        /// Relative prediction error magnitude.
        noise: f64,
    },
    /// Coarse-granular baseline: rebuild a greedy heavy b-matching from the
    /// last window every `period` requests (Proteus/OSA-style).
    Periodic {
        /// Requests between rebuilds.
        period: u64,
    },
    /// COUDER-style demand-aware *static* baseline (arXiv:2010.00090): a
    /// b-matching provisioned from forecast demand matrices before the
    /// trace starts, never reconfigured
    /// ([`demand_aware::StaticDemandAware`]).
    DemandAware {
        /// The forecast: one matrix (point forecast) or several (hedged
        /// max-min over the set). Shared so job grids clone cheaply.
        forecast: Arc<DemandAware>,
    },
}

impl AlgorithmKind {
    /// Demand-aware static baseline from a single forecast matrix.
    pub fn demand_aware(matrix: DemandMatrix) -> Self {
        AlgorithmKind::DemandAware {
            forecast: Arc::new(DemandAware::new(matrix)),
        }
    }

    /// Demand-aware static baseline hedged over a forecast matrix set.
    pub fn demand_aware_hedged(matrices: Vec<DemandMatrix>) -> Self {
        AlgorithmKind::DemandAware {
            forecast: Arc::new(DemandAware::hedged(matrices)),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            AlgorithmKind::Oblivious => "Oblivious".into(),
            AlgorithmKind::Rbma { lazy: true } => "R-BMA".into(),
            AlgorithmKind::Rbma { lazy: false } => "R-BMA(strict)".into(),
            AlgorithmKind::Bma => "BMA".into(),
            AlgorithmKind::Rotor { .. } => "Rotor".into(),
            AlgorithmKind::PredictiveRbma { noise } => format!("P-BMA(noise={noise})"),
            AlgorithmKind::Periodic { period } => format!("Periodic({period})"),
            AlgorithmKind::DemandAware { forecast } if forecast.is_hedged() => {
                "DemandAware(hedged)".into()
            }
            AlgorithmKind::DemandAware { .. } => "DemandAware".into(),
        }
    }

    /// Whether building this algorithm requires the materialized future
    /// request sequence (offline knowledge). Only the prediction-augmented
    /// variant does — its oracle is synthesized from the trace. Everything
    /// else is truly online and can run over an unmaterialized stream.
    pub fn needs_materialized_trace(&self) -> bool {
        matches!(self, AlgorithmKind::PredictiveRbma { .. })
    }

    /// Instantiates a purely online scheduler — no trace access at all, so
    /// sweep workers can feed it an O(1)-memory request stream.
    ///
    /// Panics for algorithms whose construction needs the future sequence
    /// (see [`AlgorithmKind::needs_materialized_trace`]); route those
    /// through [`AlgorithmKind::build_with_trace`].
    pub fn build_online(
        &self,
        dm: Arc<DistanceMatrix>,
        b: usize,
        alpha: u64,
        seed: u64,
    ) -> Box<dyn OnlineScheduler> {
        let n = dm.num_racks();
        match *self {
            AlgorithmKind::Oblivious => Box::new(oblivious::Oblivious::new(n, b)),
            AlgorithmKind::Rbma { lazy } => {
                let mode = if lazy {
                    rbma::RemovalMode::Lazy
                } else {
                    rbma::RemovalMode::Strict
                };
                Box::new(rbma::Rbma::new(dm, b, alpha, mode, seed))
            }
            AlgorithmKind::Bma => Box::new(bma::Bma::new(dm, b, alpha)),
            AlgorithmKind::Rotor { period } => Box::new(rotor::Rotor::new(n, b, period)),
            AlgorithmKind::PredictiveRbma { .. } => panic!(
                "{} needs the materialized trace; use build_with_trace",
                self.label()
            ),
            AlgorithmKind::Periodic { period } => {
                Box::new(periodic::PeriodicRebuild::new(dm, b, period))
            }
            AlgorithmKind::DemandAware { ref forecast } => {
                Box::new(demand_aware::StaticDemandAware::new(&dm, b, forecast))
            }
        }
    }

    /// Instantiates a scheduler when a materialized trace is at hand.
    /// `trace` is only read by the prediction-needing variants; the online
    /// algorithms ignore it and defer to
    /// [`AlgorithmKind::build_online`].
    pub fn build_with_trace(
        &self,
        dm: Arc<DistanceMatrix>,
        b: usize,
        alpha: u64,
        seed: u64,
        trace: &[dcn_topology::Pair],
    ) -> Box<dyn OnlineScheduler> {
        match *self {
            AlgorithmKind::PredictiveRbma { noise } => Box::new(predictive::PredictiveRbma::new(
                dm, b, alpha, trace, noise, seed,
            )),
            _ => self.build_online(dm, b, alpha, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_predictive_needs_the_trace() {
        for kind in [
            AlgorithmKind::Oblivious,
            AlgorithmKind::Rbma { lazy: true },
            AlgorithmKind::Rbma { lazy: false },
            AlgorithmKind::Bma,
            AlgorithmKind::Rotor { period: 10 },
            AlgorithmKind::Periodic { period: 10 },
            AlgorithmKind::demand_aware(DemandMatrix::zipf_pairs(6, 1.2, 1)),
            AlgorithmKind::demand_aware_hedged(vec![
                DemandMatrix::zipf_pairs(6, 1.2, 1),
                DemandMatrix::uniform(6),
            ]),
        ] {
            assert!(!kind.needs_materialized_trace(), "{}", kind.label());
            let dm = Arc::new(DistanceMatrix::uniform(6));
            let s = kind.build_online(dm, 2, 5, 0);
            assert_eq!(s.cap(), 2);
        }
        assert!(AlgorithmKind::PredictiveRbma { noise: 0.0 }.needs_materialized_trace());
    }

    #[test]
    fn demand_aware_labels_distinguish_hedging() {
        let point = AlgorithmKind::demand_aware(DemandMatrix::uniform(4));
        assert_eq!(point.label(), "DemandAware");
        let hedged = AlgorithmKind::demand_aware_hedged(vec![
            DemandMatrix::uniform(4),
            DemandMatrix::zipf_pairs(4, 1.0, 0),
        ]);
        assert_eq!(hedged.label(), "DemandAware(hedged)");
    }

    #[test]
    #[should_panic(expected = "use build_with_trace")]
    fn build_online_rejects_predictive() {
        let dm = Arc::new(DistanceMatrix::uniform(4));
        AlgorithmKind::PredictiveRbma { noise: 0.0 }.build_online(dm, 2, 5, 0);
    }
}
