//! Load generation: closed-loop and open-loop drivers with
//! SLO-constrained peak-throughput search.
//!
//! DCPerf's clients "generate load to determine the maximum request rate
//! \[the server\] can handle while maintaining the 95th percentile latency
//! within the SLO" (§3.2, FeedSim). This crate provides the three pieces
//! of that methodology:
//!
//! * [`ClosedLoop`] — N workers issuing back-to-back requests (siege/
//!   memtier style), measuring service latency and saturating throughput.
//! * [`OpenLoop`] — a Poisson arrival process at a configured offered
//!   rate; latency is measured from *scheduled arrival* to completion, so
//!   queueing delay is captured and coordinated omission avoided.
//! * [`find_peak_load`] — doubling (or, from a failing start, halving)
//!   plus binary search over offered load for the highest rate whose
//!   [`LoadReport`] still satisfies a caller predicate (the SLO).
//!
//! Both drivers issue one request per turn, as the paper's clients do:
//! every request is exactly one [`Service::call`]. Keeping many requests
//! in flight on one connection is the RPC layer's job (`dcperf_rpc`'s
//! windowed clients, measured by `bench-rpc`), not the driver's.
//!
//! # Examples
//!
//! ```
//! use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
//! use std::time::Duration;
//!
//! struct Fast;
//! impl Service for Fast {
//!     fn call(&self, _endpoint: usize, _seq: u64) -> Result<usize, ServiceError> {
//!         Ok(64)
//!     }
//! }
//!
//! let mix = EndpointMix::uniform(&["get"])?;
//! let report = ClosedLoop::new(mix)
//!     .workers(2)
//!     .duration(Duration::from_millis(50))
//!     .run(&Fast, 42);
//! assert!(report.completed > 0);
//! assert_eq!(report.errors, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel::{bounded, RecvTimeoutError};
use dcperf_telemetry::{metrics, Counter, Telemetry};
use dcperf_util::{Empirical, Exponential, Histogram, Rng, Xoshiro256pp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classification of a failed [`Service`] call, routed to distinct
/// [`LoadReport`] outcome counters so resilience scenarios can separate
/// "the service broke" from "the deadline expired" from "a client-side
/// guard refused to send".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceErrorKind {
    /// Any other failure (application error, transport error, ...).
    #[default]
    Other,
    /// The request's deadline expired before a useful reply arrived.
    DeadlineExceeded,
    /// A client-side guard (circuit breaker, retry budget) rejected the
    /// call without issuing it.
    Rejected,
}

/// An error returned by a [`Service`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Outcome classification.
    pub kind: ServiceErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// A plain failure ([`ServiceErrorKind::Other`]).
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::Other,
            message: message.into(),
        }
    }

    /// A deadline-expired failure.
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::DeadlineExceeded,
            message: message.into(),
        }
    }

    /// A breaker/budget rejection.
    pub fn rejected(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::Rejected,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ServiceErrorKind::Other => write!(f, "service error: {}", self.message),
            ServiceErrorKind::DeadlineExceeded => {
                write!(f, "deadline exceeded: {}", self.message)
            }
            ServiceErrorKind::Rejected => write!(f, "rejected: {}", self.message),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The system under test, as seen by the load generator.
///
/// `endpoint` indexes into the [`EndpointMix`]; `seq` is a unique request
/// number usable as a deterministic content seed. The return value is the
/// response size in bytes (reported in throughput accounting).
pub trait Service: Send + Sync {
    /// Executes one request.
    ///
    /// # Errors
    ///
    /// Returns a [`ServiceError`] for failed requests; these count against
    /// the error-rate SLO.
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError>;
}

/// A weighted set of endpoints (e.g. Instagram's `feed`, `timeline`,
/// `seen`, `inbox`).
#[derive(Debug, Clone)]
pub struct EndpointMix {
    names: Vec<String>,
    dist: Empirical,
}

impl EndpointMix {
    /// Builds a mix with explicit weights.
    ///
    /// # Errors
    ///
    /// Returns an error if lengths mismatch or the weights are invalid.
    pub fn new(names: &[&str], weights: &[f64]) -> Result<Self, Box<dyn std::error::Error>> {
        if names.len() != weights.len() {
            return Err("endpoint names and weights must have equal length".into());
        }
        Ok(Self {
            names: names.iter().map(|s| s.to_string()).collect(),
            dist: Empirical::new(weights)?,
        })
    }

    /// Builds a uniform mix.
    ///
    /// # Errors
    ///
    /// Returns an error if `names` is empty.
    pub fn uniform(names: &[&str]) -> Result<Self, Box<dyn std::error::Error>> {
        let weights = vec![1.0; names.len()];
        Self::new(names, &weights)
    }

    /// Endpoint names, index-aligned with [`Service::call`]'s `endpoint`.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.dist.sample(rng)
    }
}

/// Everything measured during one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed with [`ServiceErrorKind::Other`].
    pub errors: u64,
    /// Requests whose deadline expired ([`ServiceErrorKind::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Requests rejected client-side ([`ServiceErrorKind::Rejected`]).
    pub rejected: u64,
    /// Open-loop only: arrivals dropped because the queue was saturated.
    pub dropped: u64,
    /// Latency histogram in nanoseconds (service time for closed loop;
    /// scheduled-arrival-to-completion for open loop).
    pub latency_ns: Histogram,
    /// Measured wall-clock duration.
    pub duration: Duration,
    /// Bytes returned by successful calls.
    pub response_bytes: u64,
    /// Per-endpoint completion counts as `(name, count)`, in mix order.
    pub per_endpoint: Vec<(String, u64)>,
}

impl LoadReport {
    /// Achieved throughput in successful requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.duration.as_secs_f64()
        }
    }

    /// All failed outcomes (errors, expired deadlines, rejections, and
    /// drops) as a fraction of attempted requests.
    pub fn error_rate(&self) -> f64 {
        let failed = self.errors + self.deadline_exceeded + self.rejected + self.dropped;
        let attempted = self.completed + failed;
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    }
}

/// Per-run counter handles resolved from the run's telemetry registry.
///
/// Workers record through these (single relaxed atomics / wait-free
/// histogram stripes); the registry itself is only locked to create the
/// handles.
struct RunRecorder {
    completed: Arc<Counter>,
    errors: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    rejected: Arc<Counter>,
    dropped: Arc<Counter>,
    bytes: Arc<Counter>,
    latency: Arc<dcperf_telemetry::ConcurrentHistogram>,
    per_endpoint: Vec<(String, Arc<Counter>)>,
}

impl RunRecorder {
    /// Resolves handles from `shared` when given, so the run's counters
    /// and latency digest land in the caller's registry; otherwise uses a
    /// private one.
    fn new(mix: &EndpointMix, shared: Option<&Telemetry>) -> Self {
        let telemetry = shared.cloned().unwrap_or_default();
        Self {
            completed: telemetry.counter(metrics::LOADGEN_COMPLETED),
            errors: telemetry.counter(metrics::LOADGEN_ERRORS),
            deadline_exceeded: telemetry.counter(metrics::LOADGEN_DEADLINE_EXCEEDED),
            rejected: telemetry.counter(metrics::LOADGEN_REJECTED),
            dropped: telemetry.counter(metrics::LOADGEN_DROPPED),
            bytes: telemetry.counter(metrics::LOADGEN_RESPONSE_BYTES),
            latency: telemetry.histogram(metrics::LOADGEN_LATENCY_NS),
            per_endpoint: mix
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let key = format!("{}.{i}.{name}", metrics::DYN_LOADGEN_ENDPOINT);
                    (name.clone(), telemetry.counter(&key))
                })
                .collect(),
        }
    }

    /// Records one request's outcome; `latency` counts only on success.
    fn record(&self, endpoint: usize, outcome: Result<usize, ServiceError>, latency: Duration) {
        match outcome {
            Ok(bytes) => {
                self.latency.record(latency.as_nanos() as u64);
                self.completed.inc();
                self.bytes.add(bytes as u64);
                self.per_endpoint[endpoint].1.inc();
            }
            Err(e) => match e.kind {
                ServiceErrorKind::Other => self.errors.inc(),
                ServiceErrorKind::DeadlineExceeded => self.deadline_exceeded.inc(),
                ServiceErrorKind::Rejected => self.rejected.inc(),
            },
        }
    }

    /// Freezes the run into a report. Call only after every worker has
    /// joined, so the histogram snapshot is exact.
    fn into_report(self, duration: Duration) -> LoadReport {
        LoadReport {
            completed: self.completed.get(),
            errors: self.errors.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            rejected: self.rejected.get(),
            dropped: self.dropped.get(),
            latency_ns: self.latency.snapshot(),
            duration,
            response_bytes: self.bytes.get(),
            per_endpoint: self
                .per_endpoint
                .into_iter()
                .map(|(name, count)| (name, count.get()))
                .collect(),
        }
    }
}

/// Closed-loop driver: each worker issues the next request as soon as the
/// previous one completes.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    mix: EndpointMix,
    workers: usize,
    duration: Duration,
    max_requests: Option<u64>,
    telemetry: Option<Telemetry>,
}

impl ClosedLoop {
    /// Creates a driver over `mix` with defaults (4 workers, 1 s).
    pub fn new(mix: EndpointMix) -> Self {
        Self {
            mix,
            workers: 4,
            duration: Duration::from_secs(1),
            max_requests: None,
            telemetry: None,
        }
    }

    /// Records the run onto `telemetry` instead of a private registry
    /// (builder style). Counter names are shared across runs, so two runs
    /// on the same registry accumulate — keep warmup runs on their own.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Sets the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the run duration (builder style).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Caps total requests across workers (builder style); whichever of
    /// the cap and the duration hits first ends the run.
    pub fn max_requests(mut self, n: u64) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Runs the workload and gathers a report.
    pub fn run<S: Service>(&self, service: &S, seed: u64) -> LoadReport {
        let recorder = RunRecorder::new(&self.mix, self.telemetry.as_ref());
        let stop = AtomicBool::new(false);
        let issued = AtomicU64::new(0);
        let budget = self.max_requests.unwrap_or(u64::MAX);
        let started = Instant::now();

        std::thread::scope(|scope| {
            for w in 0..self.workers {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (w as u64) << 32);
                let mix = &self.mix;
                let recorder = &recorder;
                let stop = &stop;
                let issued = &issued;
                let deadline = started + self.duration;
                scope.spawn(move || loop {
                    // ordering: advisory stop flag; a stale read costs one extra call
                    if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                        break;
                    }
                    // ordering: seq only claims a unique slot in the call budget
                    let seq = issued.fetch_add(1, Ordering::Relaxed);
                    if seq >= budget {
                        // ordering: advisory stop flag; scope join is the real barrier
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                    let endpoint = mix.sample(&mut rng);
                    let t0 = Instant::now();
                    let outcome = service.call(endpoint, seq);
                    recorder.record(endpoint, outcome, t0.elapsed());
                });
            }
        });

        recorder.into_report(started.elapsed())
    }
}

/// Open-loop driver: a dispatcher schedules Poisson arrivals at the
/// offered rate; workers serve them from a bounded queue. Latency includes
/// queueing delay, and arrivals that find the queue full are *dropped*
/// (counted, visible to SLO checks) rather than silently delayed.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    mix: EndpointMix,
    workers: usize,
    duration: Duration,
    offered_rps: f64,
    queue_depth: usize,
    telemetry: Option<Telemetry>,
}

impl OpenLoop {
    /// Creates a driver over `mix` at `offered_rps` with defaults
    /// (4 workers, 1 s, queue depth 1024).
    pub fn new(mix: EndpointMix, offered_rps: f64) -> Self {
        Self {
            mix,
            workers: 4,
            duration: Duration::from_secs(1),
            offered_rps: offered_rps.max(1.0),
            queue_depth: 1024,
            telemetry: None,
        }
    }

    /// Records the run onto `telemetry` instead of a private registry
    /// (builder style). Counter names are shared across runs, so two runs
    /// on the same registry accumulate — keep warmup runs on their own.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Sets the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the run duration (builder style).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the arrival-queue depth (builder style).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Runs the workload and gathers a report.
    ///
    /// # Panics
    ///
    /// Panics only if the internal arrival-rate distribution is invalid,
    /// which the constructor's clamping prevents.
    pub fn run<S: Service>(&self, service: &S, seed: u64) -> LoadReport {
        let recorder = RunRecorder::new(&self.mix, self.telemetry.as_ref());
        let started = Instant::now();
        let deadline = started + self.duration;
        // Arrival = (endpoint, seq, scheduled time).
        let (tx, rx) = bounded::<(usize, u64, Instant)>(self.queue_depth);

        std::thread::scope(|scope| {
            // Dispatcher.
            {
                let mix = &self.mix;
                let recorder = &recorder;
                let gaps =
                    // analyzer: allow(panic-path) — rate() clamps to positive at construction
                    Exponential::new(self.offered_rps).expect("offered rate clamped positive");
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut next = Instant::now();
                    let mut seq = 0u64;
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        if next > now {
                            std::thread::sleep(next - now);
                        }
                        let endpoint = mix.sample(&mut rng);
                        match tx.try_send((endpoint, seq, next)) {
                            Ok(()) => {}
                            Err(_) => {
                                recorder.dropped.inc();
                            }
                        }
                        seq += 1;
                        next += Duration::from_secs_f64(gaps.sample(&mut rng));
                    }
                });
            }
            drop(tx);

            for _ in 0..self.workers {
                let recorder = &recorder;
                let rx = rx.clone();
                scope.spawn(move || loop {
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok((endpoint, seq, scheduled)) => {
                            let outcome = service.call(endpoint, seq);
                            // From scheduled arrival, so queueing delay counts.
                            recorder.record(endpoint, outcome, scheduled.elapsed());
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                });
            }
        });

        recorder.into_report(started.elapsed())
    }
}

/// The outcome of a peak-load search.
#[derive(Debug, Clone)]
pub struct PeakSearchResult {
    /// Highest offered RPS whose report satisfied the SLO predicate,
    /// or `None` if every rate tried, down to the last halving, failed.
    pub peak_rps: Option<f64>,
    /// Report of the best passing trial.
    pub best_report: Option<LoadReport>,
    /// Every `(offered_rps, passed)` trial, in order. When no trial
    /// passed, the last entry is the lowest rate tried.
    pub trials: Vec<(f64, bool)>,
}

/// Searches for the maximum offered load meeting an SLO: doubles the rate
/// until the predicate fails, then binary-searches the bracket. If the
/// start rate already fails, the rate is halved (up to `refinements`
/// times, never below 1 rps) until a trial passes, and the bracket is
/// that pass and the failure above it.
///
/// `run_trial` executes one open-loop trial at a rate and returns its
/// report; `meets_slo` judges it. `refinements` bounds the halving and
/// the binary-search steps.
pub fn find_peak_load(
    start_rps: f64,
    max_rps: f64,
    refinements: u32,
    mut run_trial: impl FnMut(f64) -> LoadReport,
    mut meets_slo: impl FnMut(&LoadReport) -> bool,
) -> PeakSearchResult {
    let mut trials = Vec::new();
    // Runs and records one trial; the report only if it met the SLO.
    let mut trial = |rate: f64| {
        let report = run_trial(rate);
        let pass = meets_slo(&report);
        trials.push((rate, pass));
        pass.then_some(report)
    };
    let mut best: Option<(f64, LoadReport)> = None;
    let mut failed: Option<f64> = None;
    let mut rate = start_rps.max(1.0);

    // Phase 1: doubling until failure or cap.
    loop {
        let Some(report) = trial(rate) else {
            failed = Some(rate);
            break;
        };
        best = Some((rate, report));
        if rate >= max_rps {
            break;
        }
        rate = (rate * 2.0).min(max_rps);
    }

    // The start rate failed: halve until a trial passes.
    let mut halvings = 0;
    while best.is_none() && halvings < refinements && rate / 2.0 >= 1.0 {
        halvings += 1;
        rate /= 2.0;
        match trial(rate) {
            Some(report) => best = Some((rate, report)),
            None => failed = Some(rate),
        }
    }

    // Phase 2: binary search between lo (pass) and hi (fail).
    if let (Some(mut lo), Some(mut hi)) = (best.as_ref().map(|&(rps, _)| rps), failed) {
        for _ in 0..refinements {
            if hi - lo < lo * 0.05 {
                break; // within 5% — good enough for a benchmark
            }
            let mid = (lo + hi) / 2.0;
            match trial(mid) {
                Some(report) => {
                    best = Some((mid, report));
                    lo = mid;
                }
                None => hi = mid,
            }
        }
    }

    let (peak_rps, best_report) = best.unzip();
    PeakSearchResult {
        peak_rps,
        best_report,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleepy {
        us: u64,
    }

    impl Service for Sleepy {
        fn call(&self, _endpoint: usize, _seq: u64) -> Result<usize, ServiceError> {
            if self.us > 0 {
                let deadline = Instant::now() + Duration::from_micros(self.us);
                while Instant::now() < deadline {
                    std::hint::spin_loop();
                }
            }
            Ok(10)
        }
    }

    struct Flaky;

    impl Service for Flaky {
        fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            if seq.is_multiple_of(4) {
                Err(ServiceError::new("planned failure"))
            } else {
                Ok(1)
            }
        }
    }

    fn mix() -> EndpointMix {
        EndpointMix::new(&["feed", "timeline"], &[3.0, 1.0]).unwrap()
    }

    #[test]
    fn closed_loop_measures_throughput() {
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_millis(100))
            .run(&Sleepy { us: 100 }, 1);
        assert!(report.completed > 100, "completed={}", report.completed);
        assert_eq!(report.errors, 0);
        assert!(report.throughput_rps() > 1000.0);
        assert!(
            report.latency_ns.p50() >= 90_000,
            "p50={}",
            report.latency_ns.p50()
        );
        assert_eq!(report.response_bytes, report.completed * 10);
    }

    #[test]
    fn closed_loop_respects_request_cap() {
        let report = ClosedLoop::new(mix())
            .workers(4)
            .duration(Duration::from_secs(10))
            .max_requests(500)
            .run(&Sleepy { us: 0 }, 2);
        assert!(report.completed <= 500);
        assert!(
            report.duration < Duration::from_secs(5),
            "cap should end early"
        );
    }

    #[test]
    fn closed_loop_mix_weights_respected() {
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_millis(80))
            .run(&Sleepy { us: 10 }, 3);
        let total: u64 = report.per_endpoint.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.completed);
        assert_eq!(report.per_endpoint[0].0, "feed");
        let frac0 = report.per_endpoint[0].1 as f64 / total as f64;
        assert!((frac0 - 0.75).abs() < 0.1, "frac0={frac0}");
    }

    #[test]
    fn errors_are_counted() {
        let report = ClosedLoop::new(mix())
            .workers(1)
            .duration(Duration::from_secs(5))
            .max_requests(1000)
            .run(&Flaky, 4);
        assert!(report.errors > 150, "errors={}", report.errors);
        assert!(report.error_rate() > 0.15 && report.error_rate() < 0.35);
    }

    struct Classed;

    impl Service for Classed {
        fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            match seq % 4 {
                0 => Ok(1),
                1 => Err(ServiceError::new("boom")),
                2 => Err(ServiceError::deadline_exceeded("budget spent")),
                _ => Err(ServiceError::rejected("breaker open")),
            }
        }
    }

    #[test]
    fn failure_kinds_land_in_distinct_outcome_classes() {
        let registry = Telemetry::new();
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_secs(5))
            .max_requests(400)
            .telemetry(&registry)
            .run(&Classed, 7);
        let attempted =
            report.completed + report.errors + report.deadline_exceeded + report.rejected;
        assert!(attempted >= 397, "attempted={attempted}"); // workers may cut the tail
                                                            // Each class gets ~1/4 of the sequence numbers.
        for (name, count) in [
            ("completed", report.completed),
            ("errors", report.errors),
            ("deadline_exceeded", report.deadline_exceeded),
            ("rejected", report.rejected),
        ] {
            assert!((80..=120).contains(&count), "{name}={count}");
        }
        assert!((report.error_rate() - 0.75).abs() < 0.05);
        // The classes also land as counters on the caller's registry.
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("loadgen.deadline_exceeded"),
            Some(report.deadline_exceeded)
        );
        assert_eq!(snapshot.counter("loadgen.rejected"), Some(report.rejected));
    }

    #[test]
    fn open_loop_tracks_offered_rate() {
        let report = OpenLoop::new(mix(), 2000.0)
            .workers(4)
            .duration(Duration::from_millis(300))
            .run(&Sleepy { us: 20 }, 5);
        let achieved = report.throughput_rps();
        assert!(
            achieved > 1000.0 && achieved < 3500.0,
            "achieved={achieved}"
        );
        assert_eq!(report.dropped, 0, "no drops expected at this light load");
    }

    #[test]
    fn open_loop_overload_drops_or_queues() {
        // One slow worker (1ms/call => ~1000 rps capacity) at 20k offered:
        // queue fills, drops occur, and queueing delay shows in latency.
        let report = OpenLoop::new(mix(), 20_000.0)
            .workers(1)
            .queue_depth(64)
            .duration(Duration::from_millis(300))
            .run(&Sleepy { us: 1000 }, 6);
        assert!(report.dropped > 0, "expected drops under overload");
        assert!(
            report.latency_ns.p95() > 1_000_000,
            "queueing delay should inflate p95: {}",
            report.latency_ns.p95()
        );
    }

    /// A fabricated trial against a service whose capacity is 1000 rps:
    /// p95 blows up past capacity.
    fn capacity_1000_trial(rate: f64) -> LoadReport {
        let mut hist = Histogram::new();
        let lat_ns = if rate <= 1000.0 {
            1_000_000
        } else {
            600_000_000
        };
        for _ in 0..100 {
            hist.record(lat_ns);
        }
        LoadReport {
            completed: rate as u64,
            errors: 0,
            deadline_exceeded: 0,
            rejected: 0,
            dropped: 0,
            latency_ns: hist,
            duration: Duration::from_secs(1),
            response_bytes: 0,
            per_endpoint: vec![("feed".into(), rate as u64)],
        }
    }

    fn p95_within_500ms(report: &LoadReport) -> bool {
        report.latency_ns.p95() <= 500_000_000
    }

    #[test]
    fn peak_search_converges_on_capacity() {
        let result = find_peak_load(100.0, 100_000.0, 12, capacity_1000_trial, p95_within_500ms);
        let peak = result.peak_rps.expect("capacity is reachable");
        assert!(
            (800.0..=1100.0).contains(&peak),
            "peak={peak}, trials={:?}",
            result.trials
        );
        assert!(result.best_report.is_some());
    }

    #[test]
    fn peak_search_descends_below_a_failing_start_rate() {
        let result = find_peak_load(4000.0, 100_000.0, 12, capacity_1000_trial, p95_within_500ms);
        let peak = result.peak_rps.expect("capacity is reachable by halving");
        assert!(
            (800.0..=1100.0).contains(&peak),
            "peak={peak}, trials={:?}",
            result.trials
        );
        assert_eq!(
            result.trials[..3],
            [(4000.0, false), (2000.0, false), (1000.0, true)]
        );
    }

    #[test]
    fn peak_search_reports_unattainable_slo() {
        let result = find_peak_load(
            100.0,
            1000.0,
            4,
            |_rate| LoadReport {
                completed: 0,
                errors: 100,
                deadline_exceeded: 0,
                rejected: 0,
                dropped: 0,
                latency_ns: Histogram::new(),
                duration: Duration::from_secs(1),
                response_bytes: 0,
                per_endpoint: vec![("feed".into(), 0)],
            },
            |report| report.error_rate() < 0.01,
        );
        assert!(result.peak_rps.is_none());
        // The start rate, then one trial per halving.
        let rates: Vec<f64> = result.trials.iter().map(|&(rate, _)| rate).collect();
        assert_eq!(rates, [100.0, 50.0, 25.0, 12.5, 6.25]);
        assert!(result.trials.iter().all(|&(_, passed)| !passed));
    }

    /// Counts every call; every fourth request fails.
    struct Counting {
        calls: AtomicU64,
    }

    impl Service for Counting {
        fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            // ordering: a test tally, read only after the run's scope joins
            self.calls.fetch_add(1, Ordering::Relaxed);
            Flaky.call(endpoint, seq)
        }
    }

    #[test]
    fn closed_loop_makes_one_call_per_request() {
        let svc = Counting {
            calls: AtomicU64::new(0),
        };
        let report = ClosedLoop::new(mix())
            .workers(4)
            .duration(Duration::from_secs(5))
            .max_requests(50)
            .run(&svc, 10);
        // ordering: the run's scope join ordered every worker's increments
        assert_eq!(svc.calls.load(Ordering::Relaxed), 50);
        assert_eq!(report.completed + report.errors, 50);
        assert!(report.errors > 0, "seq 0 mod 4 always fails");
    }

    #[test]
    fn endpoint_mix_validation() {
        assert!(EndpointMix::new(&["a"], &[1.0, 2.0]).is_err());
        assert!(EndpointMix::uniform(&[]).is_err());
        let m = EndpointMix::uniform(&["x", "y"]).unwrap();
        assert_eq!(m.names(), &["x".to_string(), "y".to_string()]);
    }
}
