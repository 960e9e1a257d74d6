//! perfbench: a seeded serving benchmark for DCPerf-RS.
//!
//! Composes three services from the public APIs of `dcperf-rpc`,
//! `dcperf-kvstore` and `dcperf-tax`, serves each over `TcpServer` on
//! loopback, and drives it with its own generator (2 connections, one
//! thread each). Prints every metric with its unit and checks every
//! reply. See README.md for the workloads and the metrics.
//!
//! ```text
//! perfbench --workload <tao_hit|tao_churn|feed_rank> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod adapter;
mod feed;
mod gen;
mod layers;
mod load;
mod metrics;
mod tao;
mod trace;

use load::{closed_loop, open_loop, Tally, Workload};
use metrics::{lowest_mean, median, num, percentile, quote, result_line, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <tao_hit|tao_churn|feed_rank> --seed <n> --seconds <n> --trace <0|1>";

/// Client connections, each driven by one generator thread.
const CONNECTIONS: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS`, and more while they have taken
/// less than `SETUP_BUDGET_S` in all, up to `MAX_SETUPS`, so that a quick
/// set-up is still timed over enough repetitions. `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Closed-loop throughput and CPU per request are taken per segment this
/// long; the reported figures are quartiles and medians over segments.
const SEGMENT: Duration = Duration::from_millis(500);
/// Unmeasured closed-loop traffic before the measured phases.
const WARMUP: Duration = Duration::from_secs(1);
/// `latency_p50_us` is the mean of the lowest `QUIET_WINDOWS` share of
/// the medians of open-loop windows this long, each holding at least
/// `MIN_WINDOW_SAMPLES` requests (the plain median when none does).
const LATENCY_WINDOW: Duration = Duration::from_millis(250);
const MIN_WINDOW_SAMPLES: usize = 20;
const QUIET_WINDOWS: f64 = 0.2;
/// Most open-loop arrivals sent as one burst.
const BURST: usize = 64;

/// Request-id and trace phases; set-up traffic uses
/// [`load::PHASE_SETUP`]. The traced run's closed-loop stretches take
/// request-id phases from `PHASE_STRETCH` on, one each, and all record
/// spans under `PHASE_CLOSED_TRACED`.
const PHASE_WARMUP: u8 = 1;
const PHASE_CLOSED_TRACED: u8 = 3;
const PHASE_OPEN: u8 = 4;
const PHASE_STRETCH: u8 = 8;
/// The untraced run's rounds take two request-id phases each from here.
const PHASE_ROUNDS: u8 = 32;
/// Closed-loop stretches in the traced run, half of them traced.
const OVERHEAD_STRETCHES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    TaoHit,
    TaoChurn,
    FeedRank,
}

impl Kind {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "tao_hit" => Some(Self::TaoHit),
            "tao_churn" => Some(Self::TaoChurn),
            "feed_rank" => Some(Self::FeedRank),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TaoHit => "tao_hit",
            Self::TaoChurn => "tao_churn",
            Self::FeedRank => "feed_rank",
        }
    }

    fn tao(self) -> Option<&'static tao::Params> {
        match self {
            Self::TaoHit => Some(&tao::HIT),
            Self::TaoChurn => Some(&tao::CHURN),
            Self::FeedRank => None,
        }
    }

    fn window(self) -> usize {
        self.tao().map_or(feed::WINDOW, |_| tao::WINDOW)
    }

    /// Requests per closed-loop `call_many`: long enough that draining
    /// the window at its end costs little.
    fn batch(self) -> usize {
        self.window() * 64
    }

    fn rate(self) -> f64 {
        self.tao().map_or(feed::RATE, |p| p.rate)
    }

    /// Every `n`-th request records spans in the traced run.
    fn sample_every(self) -> u64 {
        if self.tao().is_some() {
            16
        } else {
            4
        }
    }

    fn params(self) -> String {
        match self.tao() {
            Some(p) => format!(
                "{{\"keys\": {}, \"zipf\": 0.99, \"get_fraction\": {}, \"cache_factor\": {}, \"lookup_us\": {}, \"window\": {}, \"open_rate\": {}}}",
                p.keys,
                num(p.get_fraction),
                num(p.cache_factor),
                p.lookup_latency.as_micros(),
                tao::WINDOW,
                num(p.rate)
            ),
            None => format!(
                "{{\"stories\": {}, \"shards\": {}, \"candidates\": {}, \"top_k\": {}, \"zipf\": 0.9, \"window\": {}, \"open_rate\": {}}}",
                feed::STORIES,
                feed::SHARDS,
                feed::CANDIDATES,
                feed::TOP_K,
                feed::WINDOW,
                num(feed::RATE)
            ),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// A running service.
enum Live {
    Tao(tao::Service),
    Feed(adapter::Server),
}

impl Live {
    fn server(&self) -> &adapter::Server {
        match self {
            Self::Tao(s) => &s.server,
            Self::Feed(s) => s,
        }
    }

    fn kv_counters(&self) -> Option<adapter::KvCounters> {
        match self {
            Self::Tao(s) => Some(s.kv.counters()),
            Self::Feed(_) => None,
        }
    }

    fn shutdown(self) {
        match self {
            Self::Tao(s) => s.server.shutdown(),
            Self::Feed(s) => s.shutdown(),
        }
    }
}

/// Starts the service and loads its data: everything before the first
/// measured request.
fn setup(kind: Kind) -> Result<(Live, Vec<Vec<u8>>), String> {
    match kind.tao() {
        Some(p) => tao::setup(p).map(|(s, values)| (Live::Tao(s), values)),
        None => feed::setup().map(|s| (Live::Feed(s), Vec::new())),
    }
}

fn run(a: &Args) -> Result<(), String> {
    trace::now_ns();
    let kind = a.kind;
    let mut problems: Vec<String> = adapter::self_test().err().into_iter().collect();

    let mut setup_s = Vec::new();
    let mut live: Option<(Live, Vec<Vec<u8>>)> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        if let Some((old, _)) = live.take() {
            old.shutdown();
        }
        let t = Instant::now();
        live = Some(setup(kind)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (live, values) = live.expect("at least one set-up ran");
    if let (Live::Tao(s), Some(p)) = (&live, kind.tao()) {
        if p.cache_factor >= 1.0 && !tao::all_resident(&s.kv, p.keys) {
            problems.push("the cache lost keys it has room for".into());
        }
    }
    let traffic: Box<dyn Workload> = match kind.tao() {
        Some(p) => Box::new(tao::Traffic::new(p, values)),
        None => Box::new(feed::Traffic::new()),
    };
    let wl = traffic.as_ref();

    let mut conns = (0..CONNECTIONS)
        .map(|_| adapter::Conn::connect(live.server().addr(), kind.window()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut tally = closed_loop(
        &mut conns,
        wl,
        a.seed,
        PHASE_WARMUP,
        WARMUP,
        1,
        kind.batch(),
    )
    .tally;

    let kv_before = live.kv_counters();
    let mut m = if a.trace {
        measure_traced(a, &live, &mut conns, wl)?
    } else {
        measure(a, &mut conns, wl)
    };
    let kv_after = live.kv_counters();
    tally.merge(m.tally);
    drop(conns);
    live.shutdown();

    // Checks kept out of the timed window.
    tally.check_deferred(wl);
    m.values.insert(
        "resp_bytes_per_req",
        tally.resp_bytes as f64 / tally.replies.max(1) as f64,
    );
    m.values.insert("setup_s", median(&setup_s));
    if let (Some(k0), Some(k1)) = (kv_before, kv_after) {
        let k = k1.since(k0);
        let gets = k.gets.max(1) as f64;
        m.extra.push((
            "cache_hit_ratio".into(),
            num((gets - k.fills as f64) / gets),
        ));
    }
    m.extra.push(("setup_runs_s".into(), json_list(&setup_s)));
    problems.extend(m.problems);
    problems.extend(tally.errors.iter().cloned());
    let correct = problems.is_empty() && tally.failed == 0;
    let table = if a.trace { PER_LAYER } else { END_TO_END };

    println!("{}", report_line(a, &m.extra, &problems));
    for metric in table {
        eprintln!(
            "{:<34} {:>14} {:<6} ({} is better)",
            metric.name,
            num(m.values[metric.name]),
            metric.unit,
            metric.better
        );
    }
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, table, &m.values)
    );
    Ok(())
}

/// What the measured phases of a run produced.
#[derive(Default)]
struct Measured {
    values: HashMap<&'static str, f64>,
    /// Further fields for the report line, as JSON.
    extra: Vec<(String, String)>,
    problems: Vec<String>,
    tally: Tally,
}

fn segments(d: Duration) -> usize {
    ((d.as_secs_f64() / SEGMENT.as_secs_f64()).round() as usize).max(1)
}

/// The untraced run: closed and open stretches alternate, one second
/// each, so that a slow spell of the host lands in both kinds and the
/// statistics taken over their segments and windows ride over it.
fn measure(a: &Args, conns: &mut [adapter::Conn], wl: &dyn Workload) -> Measured {
    let kind = a.kind;
    let rounds = (a.seconds / 2).clamp(1, 60);
    let stretch = Duration::from_secs(a.seconds) / (2 * rounds as u32);
    let (mut rps, mut cpu, mut window_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut open = load::Open::default();
    let mut m = Measured::default();
    for r in 0..rounds as u8 {
        let phase = PHASE_ROUNDS + 2 * r;
        let closed = closed_loop(
            conns,
            wl,
            a.seed,
            phase,
            SEGMENT,
            segments(stretch),
            kind.batch(),
        );
        rps.extend(closed.segment_rps);
        cpu.extend(closed.segment_cpu_us);
        m.tally.merge(closed.tally);
        let part = open_loop(conns, wl, a.seed, phase + 1, kind.rate(), stretch, BURST);
        window_p50s.extend(part.window_p50s_us(LATENCY_WINDOW, MIN_WINDOW_SAMPLES));
        open.merge(part);
    }
    let latency = micros(&open.latency_ns);
    // Interference from the shared host only ever slows the program, so
    // the better quartile of segments, and the quietest windows of the
    // open loop, estimate its speed with less of the host's noise; CPU per
    // request is steady enough for the median.
    m.values.insert("throughput_rps", percentile(&rps, 0.75));
    m.values.insert("cpu_us_per_req", median(&cpu));
    let latency_p50 = if window_p50s.is_empty() {
        median(&latency)
    } else {
        lowest_mean(&window_p50s, QUIET_WINDOWS)
    };
    m.values.insert("latency_p50_us", latency_p50);
    m.extra.push(("segment_rps".into(), json_list(&rps)));
    m.extra.push(("segment_cpu_us".into(), json_list(&cpu)));
    m.extra
        .push(("window_latency_p50_us".into(), json_list(&window_p50s)));
    m.extra
        .push(("latency_p50_all_us".into(), num(percentile(&latency, 0.5))));
    m.extra
        .push(("latency_p99_us".into(), num(percentile(&latency, 0.99))));
    m.extra
        .push(("latency_p999_us".into(), num(percentile(&latency, 0.999))));
    m.extra
        .push(("latency_samples".into(), latency.len().to_string()));
    m.tally.merge(open.tally);
    m
}

/// The traced run. Untraced and traced closed-loop stretches alternate
/// (U T T U …) so that drift in the host's speed cancels out of
/// `trace.overhead`; then the open loop runs traced.
fn measure_traced(
    a: &Args,
    live: &Live,
    conns: &mut [adapter::Conn],
    wl: &dyn Workload,
) -> Result<Measured, String> {
    let kind = a.kind;
    let stretch = Duration::from_secs(a.seconds) / (2 * OVERHEAD_STRETCHES as u32);
    let (mut untraced_rps, mut traced_rps) = (Vec::new(), Vec::new());
    let (mut server, mut kv) = (
        adapter::ServerCounters::default(),
        adapter::KvCounters::default(),
    );
    let mut m = Measured::default();
    trace::enable(kind.sample_every());
    trace::set_phase(PHASE_CLOSED_TRACED);
    for piece in 0..OVERHEAD_STRETCHES {
        let traced = matches!(piece % 4, 1 | 2);
        trace::set_enabled(traced);
        let (s0, k0) = (
            live.server().counters(),
            live.kv_counters().unwrap_or_default(),
        );
        let phase = PHASE_STRETCH + piece as u8;
        let closed = closed_loop(
            conns,
            wl,
            a.seed,
            phase,
            SEGMENT,
            segments(stretch),
            kind.batch(),
        );
        if traced {
            server = server.plus(live.server().counters().since(s0));
            kv = kv.plus(live.kv_counters().unwrap_or_default().since(k0));
            traced_rps.extend(closed.segment_rps);
        } else {
            untraced_rps.extend(closed.segment_rps);
        }
        m.tally.merge(closed.tally);
    }
    trace::set_enabled(true);
    trace::set_phase(PHASE_OPEN);
    let open = open_loop(
        conns,
        wl,
        a.seed,
        PHASE_OPEN,
        kind.rate(),
        Duration::from_secs(a.seconds) / 2,
        BURST,
    );
    trace::set_enabled(false);
    let spans = trace::take();
    m.values = layers::compute(&layers::Inputs {
        spans: &spans,
        closed_phase: PHASE_CLOSED_TRACED,
        open_phase: PHASE_OPEN,
        server,
        kv,
        untraced_rps: median(&untraced_rps),
        traced_rps: median(&traced_rps),
        open: &open,
    });
    let err = m.values["trace.reconcile_err"];
    if err > layers::RECONCILE_TOLERANCE {
        m.problems.push(format!(
            "stage times miss the observed latency by {err:.3} on average (tolerance {})",
            layers::RECONCILE_TOLERANCE
        ));
    }
    let path = trace_path(kind, a.seed);
    trace::write_tsv(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    m.extra.push(("spans".into(), spans.len().to_string()));
    m.extra
        .push(("trace_file".into(), quote(&path.display().to_string())));
    m.tally.merge(open.tally);
    Ok(m)
}

fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

fn json_list(values: &[f64]) -> String {
    format!(
        "[{}]",
        values
            .iter()
            .map(|v| num(*v))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn trace_path(kind: Kind, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.tsv", kind.name()))
}

/// Provenance and diagnostics, printed on the line before the result.
fn report_line(a: &Args, extra: &[(String, String)], problems: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = vec![
        ("workload".to_owned(), quote(a.kind.name())),
        ("seed".into(), a.seed.to_string()),
        ("seconds".into(), a.seconds.to_string()),
        ("trace".into(), a.trace.to_string()),
        ("params".into(), a.kind.params()),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), quote(&cpu)),
        ("rustc".into(), quote(env!("PERFBENCH_RUSTC"))),
        ("git_sha".into(), quote(&git_sha())),
        ("profile".into(), quote(profile)),
        ("connections".into(), CONNECTIONS.to_string()),
        ("generator_threads".into(), CONNECTIONS.to_string()),
        ("oversubscribed".into(), (CONNECTIONS > nproc).to_string()),
    ];
    fields.extend(extra.iter().cloned());
    fields.push((
        "problems".into(),
        format!(
            "[{}]",
            problems
                .iter()
                .map(|p| quote(p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"report\": {{{}}}}}", body.join(", "))
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository.
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::Rng;

    fn stream(wl: &dyn Workload, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed);
        (0..300).map(|_| wl.next_payload(&mut rng)).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let p = tao::Params {
            keys: 2_000,
            ..tao::CHURN
        };
        let keys: Vec<_> = (0..p.keys as u32).map(tao::key).collect();
        let tao_traffic = tao::Traffic::new(&p, adapter::stored_values(&keys, tao::DATASET_SEED));
        let feed_traffic = feed::Traffic::new();
        for wl in [&tao_traffic as &dyn Workload, &feed_traffic] {
            assert_eq!(stream(wl, 5), stream(wl, 5));
            assert_ne!(stream(wl, 5), stream(wl, 6));
        }
        assert_eq!(
            adapter::stored_values(&keys, tao::DATASET_SEED),
            adapter::stored_values(&keys, tao::DATASET_SEED)
        );
        assert_eq!(feed::dataset(), feed::dataset());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split(' ').map(str::to_owned));
        let a = args("--workload feed_rank --seed 3 --seconds 2 --trace 1").expect("valid");
        assert!(a.kind == Kind::FeedRank && a.seed == 3 && a.seconds == 2 && a.trace);
        assert!(args("--workload nope --seed 3 --seconds 2 --trace 0").is_err());
        assert!(args("--workload tao_hit --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload tao_hit --seconds 2 --trace 0").is_err());
    }
}
