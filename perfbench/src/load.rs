//! The load generator: a closed loop with a fixed pipelined window per
//! connection, and an open loop at a fixed absolute rate. One thread per
//! connection; request ids, payloads and arrival times come from the seed.

use crate::adapter::{Conn, Reply};
use crate::gen::{derive, Rng};
use crate::trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A traffic mix and its output checker.
pub trait Workload: Sync {
    /// The next request payload of one connection's stream.
    fn next_payload(&self, rng: &mut Rng) -> Vec<u8>;
    /// Checks one reply against what the request should produce.
    fn check(&self, req: u64, payload: &[u8], reply: &[u8]) -> Result<(), String>;
    /// Which replies [`Workload::check`] sees, and when.
    fn checks(&self) -> Checks;
}

/// When replies are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checks {
    /// Every reply, as it arrives: for checks cheap beside the request.
    Inline,
    /// The replies to every `n`-th request of each connection, kept and
    /// checked after the timed window, so that costly checks neither
    /// count as program work nor hold every reply in memory.
    Deferred(u64),
}

/// Requests sent, failed and answered in one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Replies received, checked or not.
    pub replies: u64,
    pub resp_bytes: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    deferred: Vec<(u64, Vec<u8>, Vec<u8>)>,
}

const KEPT_ERRORS: usize = 5;

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(msg);
        }
    }

    fn settle(&mut self, wl: &dyn Workload, req: u64, payload: Vec<u8>, reply: Reply) {
        self.attempted += 1;
        match reply {
            Ok(body) => {
                self.replies += 1;
                self.resp_bytes += body.len() as u64;
                match wl.checks() {
                    Checks::Inline => {
                        if let Err(e) = wl.check(req, &payload, &body) {
                            self.fail(format!("request {req:#x}: {e}"));
                        }
                    }
                    Checks::Deferred(n) if req.is_multiple_of(n) => {
                        self.deferred.push((req, payload, body));
                    }
                    Checks::Deferred(_) => {}
                }
            }
            Err(e) => self.fail(format!("request {req:#x}: rpc error: {e}")),
        }
    }

    /// Runs the checks deferred out of the timed window.
    pub fn check_deferred(&mut self, wl: &dyn Workload) {
        for (req, payload, body) in std::mem::take(&mut self.deferred) {
            if let Err(e) = wl.check(req, &payload, &body) {
                self.fail(format!("request {req:#x}: {e}"));
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.replies += other.replies;
        self.resp_bytes += other.resp_bytes;
        for e in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
        self.deferred.extend(other.deferred);
    }
}

/// The request-id phase of set-up traffic.
pub const PHASE_SETUP: u8 = 0;

/// A request id: phase and connection in the high bytes, a per-connection
/// counter starting at 1 below. Sampling looks at the counter only.
pub fn request_id(phase: u8, conn: usize, n: u64) -> u64 {
    (u64::from(phase) << 56) | ((conn as u64) << 48) | n
}

/// Process CPU time (user + system, all threads, live or exited).
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout of the
    // 64-bit Linux ABI, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// Completed requests per second in each segment.
    pub segment_rps: Vec<f64>,
    /// Process CPU microseconds per completed request in each segment.
    pub segment_cpu_us: Vec<f64>,
    pub tally: Tally,
}

/// Requests completed by time `t`, interpolated between the batch
/// completions of one connection's `(time, cumulative count)` timeline.
fn completed_by(timeline: &[(Instant, u64)], t: Instant) -> f64 {
    let i = timeline.partition_point(|&(at, _)| at < t);
    match (i.checked_sub(1).map(|j| timeline[j]), timeline.get(i)) {
        (Some((t0, c0)), Some(&(t1, c1))) => {
            let span = (t1 - t0).as_secs_f64();
            let frac = if span > 0.0 {
                (t - t0).as_secs_f64() / span
            } else {
                1.0
            };
            c0 as f64 + frac * (c1 - c0) as f64
        }
        (Some((_, c)), None) => c as f64,
        (None, _) => 0.0,
    }
}

/// Keeps every connection's window full for `segments` segments of
/// `segment` each. Each connection sends its stream in batches of
/// `batch` through the pipelined window; throughput per segment is
/// interpolated between batch completions.
pub fn closed_loop(
    conns: &mut [Conn],
    wl: &dyn Workload,
    seed: u64,
    phase: u8,
    segment: Duration,
    segments: usize,
    batch: usize,
) -> Closed {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut out = Closed::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = Rng::new(derive(seed, u64::from(phase) << 8 | c as u64));
                    let mut tally = Tally::default();
                    let mut timeline = vec![(start, 0)];
                    let mut n = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let reqs: Vec<(u64, Vec<u8>)> = (0..batch)
                            .map(|_| {
                                n += 1;
                                (request_id(phase, c, n), wl.next_payload(&mut rng))
                            })
                            .collect();
                        let refs: Vec<(u64, &[u8])> =
                            reqs.iter().map(|(r, p)| (*r, p.as_slice())).collect();
                        let replies = conn.call_many(&refs);
                        timeline.push((Instant::now(), n));
                        for ((req, payload), reply) in reqs.into_iter().zip(replies) {
                            tally.settle(wl, req, payload, reply);
                        }
                    }
                    (tally, timeline)
                })
            })
            .collect();

        let mut marks = vec![(start, process_cpu())];
        for k in 1..=segments {
            std::thread::sleep(
                (start + segment * k as u32).saturating_duration_since(Instant::now()),
            );
            marks.push((Instant::now(), process_cpu()));
        }
        stop.store(true, Ordering::Relaxed);
        let timelines: Vec<Vec<(Instant, u64)>> = workers
            .into_iter()
            .map(|w| {
                let (tally, timeline) = w.join().expect("closed-loop connection thread panicked");
                out.tally.merge(tally);
                timeline
            })
            .collect();
        let done_by = |t| timelines.iter().map(|tl| completed_by(tl, t)).sum::<f64>();
        for pair in marks.windows(2) {
            let ((t0, cpu0), (t1, cpu1)) = (pair[0], pair[1]);
            let done = (done_by(t1) - done_by(t0)).max(1.0);
            out.segment_rps.push(done / (t1 - t0).as_secs_f64());
            out.segment_cpu_us
                .push((cpu1 - cpu0).as_secs_f64() * 1e6 / done);
        }
    });
    out
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct Open {
    /// Latency of each request from its scheduled send, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// When each request was scheduled, in nanoseconds from the start of
    /// its phase.
    pub due_ns: Vec<u64>,
    /// How late each request was sent, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Sampled requests: id and latency from actual send to reply.
    pub sampled: Vec<(u64, u64)>,
    pub tally: Tally,
}

impl Open {
    pub fn merge(&mut self, other: Open) {
        self.latency_ns.extend(other.latency_ns);
        self.due_ns.extend(other.due_ns);
        self.late_ns.extend(other.late_ns);
        self.sampled.extend(other.sampled);
        self.tally.merge(other.tally);
    }

    /// The median latency, in microseconds, of the requests scheduled in
    /// each `window` of one phase; windows with fewer than `min_samples`
    /// requests are left out.
    pub fn window_p50s_us(&self, window: Duration, min_samples: usize) -> Vec<f64> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (&due, &ns) in self.due_ns.iter().zip(&self.latency_ns) {
            let w = (due / window.as_nanos() as u64) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(ns as f64 / 1e3);
        }
        windows
            .iter()
            .filter(|w| w.len() >= min_samples)
            .map(|w| crate::metrics::median(w))
            .collect()
    }
}

/// Sleeps until `due`. The generator threads sleep rather than spin so
/// that the server keeps both processors; see [`tighten_timer_slack`].
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Asks the kernel to wake this thread's sleeps within a microsecond
/// instead of the default 50 µs slack, so arrivals leave on time.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes a nanosecond count by value and
    // touches no memory of ours; a failure leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Offers Poisson arrivals at `rate` requests per second in total, split
/// evenly over the connections, for `duration`. Requests already due go
/// out together as one pipelined burst of at most `burst` requests.
pub fn open_loop(
    conns: &mut [Conn],
    wl: &dyn Workload,
    seed: u64,
    phase: u8,
    rate: f64,
    duration: Duration,
    burst: usize,
) -> Open {
    let mean_gap = conns.len() as f64 / rate;
    let start = Instant::now();
    let end = start + duration;
    let mut out = Open::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    tighten_timer_slack();
                    let mut rng = Rng::new(derive(seed, u64::from(phase) << 8 | c as u64));
                    let mut part = Open::default();
                    let mut n = 0;
                    let mut next_due = start + Duration::from_secs_f64(rng.exp(mean_gap));
                    let mut pending: Vec<(Instant, u64, Vec<u8>)> = Vec::with_capacity(burst);
                    while next_due < end {
                        wait_until(next_due);
                        let now = Instant::now();
                        while pending.len() < burst && next_due <= now && next_due < end {
                            n += 1;
                            pending.push((
                                next_due,
                                request_id(phase, c, n),
                                wl.next_payload(&mut rng),
                            ));
                            next_due += Duration::from_secs_f64(rng.exp(mean_gap));
                        }
                        let refs: Vec<(u64, &[u8])> =
                            pending.iter().map(|(_, r, p)| (*r, p.as_slice())).collect();
                        let sent = Instant::now();
                        let replies = conn.call_many(&refs);
                        let done = Instant::now();
                        for ((due, req, payload), reply) in pending.drain(..).zip(replies) {
                            part.late_ns.push((sent - due).as_nanos() as u64);
                            part.latency_ns.push((done - due).as_nanos() as u64);
                            part.due_ns.push((due - start).as_nanos() as u64);
                            if trace::sampled(req) {
                                part.sampled.push((req, (done - sent).as_nanos() as u64));
                            }
                            part.tally.settle(wl, req, payload, reply);
                        }
                    }
                    part
                })
            })
            .collect();
        for w in workers {
            out.merge(w.join().expect("open-loop connection thread panicked"));
        }
    });
    out
}
