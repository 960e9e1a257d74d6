//! Benchmark result reports and their JSON serialization.
//!
//! DCPerf "reports the benchmark parameters and results, along with key
//! information about the system being tested … Individual benchmark results
//! are stored in JSON format, allowing automation scripts to process them
//! further" (§3.1). [`BenchmarkReport`] is that JSON document.

use crate::benchmark::RunContext;
use crate::hooks::HookReport;
use crate::sysinfo::SystemInfo;
use dcperf_loadgen::LoadReport;
use dcperf_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single reported metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum MetricValue {
    /// A floating-point measurement (throughput, latency, ratio, …).
    Float(f64),
    /// An integral measurement (counts).
    Int(i64),
    /// A textual annotation (configuration echo, pass/fail, …).
    Text(String),
}

impl MetricValue {
    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Float(v) => Some(*v),
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Text(_) => None,
        }
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Float(v)
    }
}

impl From<i64> for MetricValue {
    fn from(v: i64) -> Self {
        MetricValue::Int(v)
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::Int(v as i64)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Text(v.to_owned())
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Text(v)
    }
}

/// The result document produced by one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Echo of the parameters the benchmark ran with.
    pub parameters: BTreeMap<String, MetricValue>,
    /// Application-level results (throughput, latency percentiles, …).
    pub metrics: BTreeMap<String, MetricValue>,
    /// Host description.
    pub system: SystemInfo,
    /// Hook outputs collected during the run.
    pub hooks: Vec<HookReport>,
    /// Uniform metrics snapshot of the run's telemetry registry: every
    /// counter, gauge, latency digest (p50/p95/p99/p99.9), and lifecycle
    /// phase timing recorded during the run. The measured time is the
    /// `"<benchmark>/measure"` phase.
    pub telemetry: TelemetrySnapshot,
}

impl BenchmarkReport {
    /// Looks up a numeric metric.
    pub fn metric_f64(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(MetricValue::as_f64)
    }

    /// Serializes the report to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (practically impossible for
    /// this type, but surfaced rather than swallowed).
    pub fn to_json(&self) -> Result<String, crate::Error> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if `json` is not a valid report document.
    pub fn from_json(json: &str) -> Result<Self, crate::Error> {
        Ok(serde_json::from_str(json)?)
    }
}

/// Incrementally assembles a [`BenchmarkReport`] while a benchmark runs.
///
/// # Examples
///
/// ```
/// use dcperf_core::{ReportBuilder, RunConfig, RunContext};
///
/// let mut ctx = RunContext::new(RunConfig::smoke_test(), "demo");
/// let mut b = ReportBuilder::new("demo");
/// b.param("threads", 8i64);
/// b.metric("requests_per_second", 1234.5);
/// let report = b.finish(&mut ctx);
/// assert_eq!(report.metric_f64("requests_per_second"), Some(1234.5));
/// ```
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    benchmark: String,
    parameters: BTreeMap<String, MetricValue>,
    metrics: BTreeMap<String, MetricValue>,
}

impl ReportBuilder {
    /// Starts a report for `benchmark`.
    pub fn new(benchmark: &str) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            parameters: BTreeMap::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records a run parameter.
    pub fn param(&mut self, name: &str, value: impl Into<MetricValue>) -> &mut Self {
        self.parameters.insert(name.to_owned(), value.into());
        self
    }

    /// Records a result metric.
    pub fn metric(&mut self, name: &str, value: impl Into<MetricValue>) -> &mut Self {
        self.metrics.insert(name.to_owned(), value.into());
        self
    }

    /// Records the standard load-run metrics, each derived from `load`:
    /// throughput, completions, error rate, response volume, latency in
    /// milliseconds, and `requests_<endpoint>` per endpoint of the mix.
    pub fn load(&mut self, load: &LoadReport) -> &mut Self {
        let hist = &load.latency_ns;
        let to_ms = |ns: u64| ns as f64 / 1e6;
        self.metric("requests_per_second", load.throughput_rps());
        self.metric("total_requests", load.completed);
        self.metric("error_rate", load.error_rate());
        self.metric("response_mb", load.response_bytes as f64 / 1e6);
        self.metric("request_p50_ms", to_ms(hist.p50()));
        self.metric("request_p95_ms", to_ms(hist.p95()));
        self.metric("request_p99_ms", to_ms(hist.p99()));
        self.metric("request_mean_ms", hist.mean() / 1e6);
        self.metric("request_max_ms", to_ms(hist.max()));
        for (name, count) in &load.per_endpoint {
            self.metric(&format!("requests_{name}"), *count);
        }
        self
    }

    /// Finalizes the report, stamping host info, the run's telemetry, and
    /// any hook reports accumulated in the context.
    pub fn finish(self, ctx: &mut RunContext) -> BenchmarkReport {
        BenchmarkReport {
            benchmark: self.benchmark,
            parameters: self.parameters,
            metrics: self.metrics,
            system: ctx.system().clone(),
            hooks: ctx.hooks_mut().drain_reports(),
            telemetry: ctx.telemetry().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::RunConfig;

    fn ctx() -> RunContext {
        RunContext::new(RunConfig::smoke_test(), "test")
    }

    #[test]
    fn metric_value_conversions() {
        assert_eq!(MetricValue::from(1.5).as_f64(), Some(1.5));
        assert_eq!(MetricValue::from(3i64).as_f64(), Some(3.0));
        assert_eq!(MetricValue::from(3u64).as_f64(), Some(3.0));
        assert_eq!(MetricValue::from("x").as_f64(), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut ctx = ctx();
        let mut b = ReportBuilder::new("roundtrip");
        b.param("scale", "smoke");
        b.metric("requests_per_second", 99.5);
        b.metric("total_requests", 1000u64);
        let report = b.finish(&mut ctx);
        let json = report.to_json().unwrap();
        let parsed = BenchmarkReport::from_json(&json).unwrap();
        assert_eq!(parsed.benchmark, "roundtrip");
        assert_eq!(parsed.metric_f64("requests_per_second"), Some(99.5));
        assert_eq!(parsed.metric_f64("total_requests"), Some(1000.0));
    }

    #[test]
    fn load_derives_every_metric_from_the_load_report() {
        // 2^20 - 1 and 2^21 - 1 are bucket upper bounds, and p99 clamps to
        // the max, so every percentile below is exact.
        let mut latency_ns = dcperf_util::Histogram::new();
        latency_ns.record_n(1_048_575, 19);
        latency_ns.record_n(2_097_151, 18);
        latency_ns.record(4_000_001);
        let load = LoadReport {
            completed: 38,
            errors: 1,
            deadline_exceeded: 0,
            rejected: 0,
            dropped: 1,
            latency_ns,
            duration: std::time::Duration::from_secs(2),
            response_bytes: 3_000_000,
            per_endpoint: vec![("get".into(), 30), ("set".into(), 8)],
        };
        let mut b = ReportBuilder::new("load");
        b.load(&load);
        let report = b.finish(&mut ctx());
        let expected = [
            ("requests_per_second", 19.0),
            ("total_requests", 38.0),
            ("error_rate", 0.05),
            ("response_mb", 3.0),
            ("request_p50_ms", 1.048575),
            ("request_p95_ms", 2.097151),
            ("request_p99_ms", 4.000001),
            ("request_mean_ms", 1.622938),
            ("request_max_ms", 4.000001),
            ("requests_get", 30.0),
            ("requests_set", 8.0),
        ];
        assert_eq!(report.metrics.len(), expected.len());
        for (name, value) in expected {
            assert_eq!(report.metric_f64(name), Some(value), "{name}");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchmarkReport::from_json("{not json").is_err());
    }
}
