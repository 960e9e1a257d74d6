//! In-memory spans for the traced run.
//!
//! A span has a name, start, end, parent, and the id of the request it
//! belongs to; the spans of one request share that id. Spans are kept in
//! memory and written out when the run ends. Tracing is off unless
//! [`enable`] is called, and then only requests whose id is a multiple of
//! the sample rate record spans, so the traced run stays close to the
//! untraced one.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// The run phase the span was recorded in.
    pub phase: u8,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    pub end: u64,
    /// Bytes handed to the call.
    pub bytes_in: u64,
    /// Bytes the call produced, where that is meaningful.
    pub bytes_out: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

// The switches below change only between load phases. Every request of a
// phase reaches the server through the pool's channels after the switch was
// set, and those hand-offs order it, so relaxed loads see the phase's value.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static PHASE: AtomicU8 = AtomicU8::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The sampled request this thread is serving and the innermost open
    /// span, which becomes the parent of the next one.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Turns tracing on for every `every`-th request id.
pub fn enable(every: u64) {
    SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing on or off without changing the sample rate.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn set_phase(phase: u8) {
    PHASE.store(phase, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether request `req` records spans.
pub fn sampled(req: u64) -> bool {
    ENABLED.load(Ordering::Relaxed) && req.is_multiple_of(SAMPLE_EVERY.load(Ordering::Relaxed))
}

/// A fresh span id (never 0).
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Stores a span recorded outside [`span`], such as a client call whose
/// id had to travel in the request before the call ended.
pub fn record(req: u64, id: u64, parent: u64, name: &'static str, start: u64, end: u64) {
    push(Span {
        req,
        id,
        parent,
        name,
        phase: PHASE.load(Ordering::Relaxed),
        start,
        end,
        bytes_in: 0,
        bytes_out: 0,
    });
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panicking thread")
        .push(span);
}

/// Makes this thread serve request `req` under `parent` until the guard
/// drops; spans opened meanwhile join that request.
pub fn enter(req: u64, parent: u64) -> Scope {
    if !sampled(req) {
        return Scope(None);
    }
    Scope(Some(CURRENT.replace(Some((req, parent)))))
}

/// Restores the thread's previous request on drop.
pub struct Scope(Option<Option<(u64, u64)>>);

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(prev) = self.0 {
            CURRENT.set(prev);
        }
    }
}

/// The sampled request on this thread and its innermost open span.
pub fn current() -> Option<(u64, u64)> {
    CURRENT.get()
}

/// Times `f` as a child of the innermost open span when this thread is
/// serving a sampled request; otherwise just calls it.
pub fn span<T>(name: &'static str, bytes_in: usize, f: impl FnOnce() -> T) -> T {
    span_with(name, bytes_in, f, |_| 0)
}

/// As [`span`], also recording the length of the bytes `f` returns.
pub fn span_out(name: &'static str, bytes_in: usize, f: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
    span_with(name, bytes_in, f, Vec::len)
}

fn span_with<T>(
    name: &'static str,
    bytes_in: usize,
    f: impl FnOnce() -> T,
    out_len: impl FnOnce(&T) -> usize,
) -> T {
    let Some((req, parent)) = CURRENT.get() else {
        return f();
    };
    let id = new_id();
    CURRENT.set(Some((req, id)));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    CURRENT.set(Some((req, parent)));
    push(Span {
        req,
        id,
        parent,
        name,
        phase: PHASE.load(Ordering::Relaxed),
        start,
        end,
        bytes_in: bytes_in as u64,
        bytes_out: out_len(&out) as u64,
    });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer lock poisoned by a panicking thread"),
    )
}

/// Writes spans as tab-separated lines, one span each.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "req\tid\tparent\tname\tphase\tstart_ns\tend_ns\tbytes_in\tbytes_out"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.phase, s.start, s.end, s.bytes_in, s.bytes_out
        )?;
    }
    out.flush()
}
