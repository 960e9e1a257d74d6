//! Service-level objectives.
//!
//! DCPerf enforces "the same service level objectives (SLOs) used in
//! production, such as maximizing throughput while maintaining the
//! 95th-percentile latency under 500ms for our newsfeed benchmark" (§2.2).

use dcperf_loadgen::LoadReport;
use serde::{Deserialize, Serialize};

/// A latency/error-rate SLO a benchmark must satisfy while measuring peak
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum 95th-percentile latency in milliseconds, if constrained.
    pub p95_ms: Option<f64>,
    /// Maximum 99th-percentile latency in milliseconds, if constrained.
    pub p99_ms: Option<f64>,
    /// Maximum fraction of failed requests, if constrained.
    pub max_error_rate: Option<f64>,
}

impl SloSpec {
    /// An SLO bounding only P95 latency (FeedSim's form).
    pub fn p95_under_ms(ms: f64) -> Self {
        Self {
            p95_ms: Some(ms),
            p99_ms: None,
            max_error_rate: None,
        }
    }

    /// An unconstrained SLO (always satisfied).
    pub fn unconstrained() -> Self {
        Self {
            p95_ms: None,
            p99_ms: None,
            max_error_rate: None,
        }
    }

    /// Adds a P99 bound (builder style).
    pub fn with_p99_ms(mut self, ms: f64) -> Self {
        self.p99_ms = Some(ms);
        self
    }

    /// Adds an error-rate bound (builder style).
    pub fn with_max_error_rate(mut self, rate: f64) -> Self {
        self.max_error_rate = Some(rate);
        self
    }

    /// Evaluates the SLO against a load run's latency and error rate.
    pub fn evaluate(&self, load: &LoadReport) -> SloOutcome {
        let mut violations = Vec::new();
        let to_ms = |ns: u64| ns as f64 / 1e6;
        let error_rate = load.error_rate();
        if let Some(limit) = self.p95_ms {
            let got = to_ms(load.latency_ns.p95());
            if got > limit {
                violations.push(format!("p95 {got:.2}ms > {limit:.2}ms"));
            }
        }
        if let Some(limit) = self.p99_ms {
            let got = to_ms(load.latency_ns.p99());
            if got > limit {
                violations.push(format!("p99 {got:.2}ms > {limit:.2}ms"));
            }
        }
        if let Some(limit) = self.max_error_rate {
            if error_rate > limit {
                violations.push(format!("error rate {error_rate:.4} > {limit:.4}"));
            }
        }
        if violations.is_empty() {
            SloOutcome::Met
        } else {
            SloOutcome::Violated(violations)
        }
    }
}

impl std::fmt::Display for SloSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(ms) = self.p95_ms {
            parts.push(format!("p95<={ms}ms"));
        }
        if let Some(ms) = self.p99_ms {
            parts.push(format!("p99<={ms}ms"));
        }
        if let Some(r) = self.max_error_rate {
            parts.push(format!("errors<={r}"));
        }
        if parts.is_empty() {
            f.write_str("unconstrained")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// The result of evaluating an [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOutcome {
    /// All constraints satisfied.
    Met,
    /// One or more constraints violated, with descriptions.
    Violated(Vec<String>),
}

impl SloOutcome {
    /// Whether the SLO was met.
    pub fn is_met(&self) -> bool {
        matches!(self, SloOutcome::Met)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of 100 attempts, `errors` of them failed, whose p95 is about
    /// `ms`: 94 fast samples and 6 at the target put the p95 rank in the
    /// slow bucket.
    fn load_with_p95_ms(ms: u64, errors: u64) -> LoadReport {
        let mut latency_ns = dcperf_util::Histogram::new();
        latency_ns.record_n(1_000_000, 94);
        latency_ns.record_n(ms * 1_000_000, 6);
        LoadReport {
            completed: 100 - errors,
            errors,
            deadline_exceeded: 0,
            rejected: 0,
            dropped: 0,
            latency_ns,
            duration: std::time::Duration::from_secs(1),
            response_bytes: 0,
            per_endpoint: Vec::new(),
        }
    }

    #[test]
    fn unconstrained_always_met() {
        let slo = SloSpec::unconstrained();
        assert!(slo.evaluate(&load_with_p95_ms(10_000, 100)).is_met());
    }

    #[test]
    fn p95_violation_detected() {
        let slo = SloSpec::p95_under_ms(500.0);
        assert!(slo.evaluate(&load_with_p95_ms(100, 0)).is_met());
        let outcome = slo.evaluate(&load_with_p95_ms(900, 0));
        assert!(!outcome.is_met());
        if let SloOutcome::Violated(v) = outcome {
            assert!(v[0].contains("p95"));
        }
    }

    #[test]
    fn error_rate_violation_detected() {
        let slo = SloSpec::unconstrained().with_max_error_rate(0.01);
        // A rate exactly on the bound meets it.
        assert!(slo.evaluate(&load_with_p95_ms(1, 1)).is_met());
        assert!(!slo.evaluate(&load_with_p95_ms(1, 2)).is_met());
    }

    #[test]
    fn multiple_violations_all_reported() {
        let slo = SloSpec::p95_under_ms(1.0)
            .with_p99_ms(1.0)
            .with_max_error_rate(0.0);
        match slo.evaluate(&load_with_p95_ms(1000, 100)) {
            SloOutcome::Violated(v) => assert_eq!(v.len(), 3, "{v:?}"),
            SloOutcome::Met => panic!("expected violations"),
        }
    }

    #[test]
    fn display_summarizes_constraints() {
        let slo = SloSpec::p95_under_ms(500.0).with_max_error_rate(0.01);
        let s = slo.to_string();
        assert!(s.contains("p95<=500ms"));
        assert!(s.contains("errors<=0.01"));
        assert_eq!(SloSpec::unconstrained().to_string(), "unconstrained");
    }
}
