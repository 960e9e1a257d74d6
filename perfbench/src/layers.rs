//! Per-layer metrics from the traced run's spans and counters.
//!
//! Layer times come from the traced closed-loop phase; the client-side
//! stages (send → handler entry → handler exit → reply) and the stage
//! reconciliation come from the traced open-loop phase, where each
//! request's client span covers its own burst only.

use crate::adapter::{KvCounters, ServerCounters};
use crate::load::Open;
use crate::metrics::percentile;
use crate::trace::Span;
use std::collections::HashMap;

/// A request's stages may miss its client-observed latency by at most
/// this share before the traced run fails.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// What the traced phases measured besides spans.
pub struct Inputs<'a> {
    pub spans: &'a [Span],
    pub closed_phase: u8,
    pub open_phase: u8,
    /// Server counters over the traced closed-loop phase.
    pub server: ServerCounters,
    /// Cache counters over the same phase; zero without a cache.
    pub kv: KvCounters,
    /// Closed-loop throughput with tracing off and on, in interleaved
    /// stretches.
    pub untraced_rps: f64,
    pub traced_rps: f64,
    pub open: &'a Open,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Length of the part of `[start, end)` covered by `spans`.
fn covered(start: u64, end: u64, spans: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    ivs.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in ivs {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

struct Index<'a> {
    children: HashMap<u64, Vec<&'a Span>>,
}

impl<'a> Index<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(s);
            }
        }
        Self { children }
    }

    fn children(&self, s: &Span) -> &[&'a Span] {
        self.children.get(&s.id).map_or(&[], Vec::as_slice)
    }

    /// Duration minus the part covered by child spans.
    fn self_time(&self, s: &Span) -> u64 {
        s.dur() - covered(s.start, s.end, self.children(s))
    }
}

/// Computes every per-layer metric.
pub fn compute(inp: &Inputs) -> HashMap<&'static str, f64> {
    let idx = Index::new(inp.spans);
    let closed: Vec<&Span> = inp
        .spans
        .iter()
        .filter(|s| s.phase == inp.closed_phase)
        .collect();
    let named = |name: &'static str| closed.iter().copied().filter(move |s| s.name == name);
    let durs = |name: &'static str| named(name).map(|s| us(s.dur())).collect::<Vec<f64>>();
    let mbps = |name: &'static str| {
        let (bytes, ns) = named(name).fold((0, 0), |(b, t), s| (b + s.bytes_in, t + s.dur()));
        ratio(bytes as f64 * 1e3, ns as f64)
    };
    let handlers = named("server.handler").count() as f64;
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    // Client-side stages, from the open-loop phase.
    let mut call = Vec::new();
    let mut inbound = Vec::new();
    let mut outbound = Vec::new();
    let mut client_span: HashMap<u64, (&Span, &Span)> = HashMap::new();
    for c in inp
        .spans
        .iter()
        .filter(|s| s.phase == inp.open_phase && s.name == "rpc.client.call")
    {
        call.push(us(c.dur()));
        if let Some(h) = idx.children(c).iter().find(|s| s.name == "server.handler") {
            inbound.push(us(h.start.saturating_sub(c.start)));
            outbound.push(us(c.end.saturating_sub(h.end)));
            client_span.insert(c.req, (c, h));
        }
    }
    m.insert("rpc.client.call_us.p50", percentile(&call, 0.5));
    m.insert("rpc.client.call_us.p99", percentile(&call, 0.99));
    m.insert("rpc.inbound_us.p50", percentile(&inbound, 0.5));
    m.insert("rpc.inbound_us.p99", percentile(&inbound, 0.99));
    m.insert("rpc.outbound_us.p50", percentile(&outbound, 0.5));
    m.insert("rpc.outbound_us.p99", percentile(&outbound, 0.99));

    // Stage reconciliation: inbound + handler self time + the handler's
    // child spans + outbound against the latency the generator saw.
    // A sampled request without its spans counts as a full miss.
    let errs: Vec<f64> = inp
        .open
        .sampled
        .iter()
        .map(|&(req, latency)| match client_span.get(&req) {
            Some((c, h)) => {
                let kids: u64 = idx.children(h).iter().map(|s| s.dur()).sum();
                let stages = h.start.saturating_sub(c.start)
                    + idx.self_time(h)
                    + kids
                    + c.end.saturating_sub(h.end);
                ratio((stages as f64 - latency as f64).abs(), latency as f64)
            }
            None => 1.0,
        })
        .collect();
    m.insert("trace.reconcile_err", ratio(sum(&errs), errs.len() as f64));

    // RPC server.
    let s = inp.server;
    m.insert(
        "rpc.classify_us.p50",
        percentile(&durs("rpc.classify"), 0.5),
    );
    m.insert(
        "rpc.lane.fast_share",
        ratio(s.fast as f64, (s.fast + s.slow) as f64),
    );
    m.insert(
        "rpc.batch.responses_per_flush",
        ratio(s.flushed_responses as f64, s.flushes as f64),
    );
    m.insert("rpc.pipeline.inflight_peak", s.inflight_peak as f64);
    m.insert("rpc.shed", s.shed as f64);

    // Fan-out and the value codec.
    let fanout = durs("rpc.fanout");
    let fanout_self: Vec<f64> = named("rpc.fanout")
        .map(|f| {
            let slowest = idx.children(f).iter().map(|s| s.dur()).max().unwrap_or(0);
            us(f.dur().saturating_sub(slowest))
        })
        .collect();
    m.insert("rpc.fanout_us.p50", percentile(&fanout, 0.5));
    m.insert("rpc.fanout_us.p99", percentile(&fanout, 0.99));
    m.insert("rpc.fanout.self_us.p50", percentile(&fanout_self, 0.5));
    m.insert(
        "rpc.leaf.handler_us.p50",
        percentile(&durs("rpc.leaf.handler"), 0.5),
    );
    m.insert(
        "rpc.leaf.calls_per_req",
        ratio(named("rpc.leaf.handler").count() as f64, handlers),
    );
    m.insert(
        "rpc.value.decode_us.p50",
        percentile(&durs("rpc.value.decode"), 0.5),
    );
    m.insert("rpc.value.decode_mbps", mbps("rpc.value.decode"));
    m.insert(
        "rpc.value.encode_us.p50",
        percentile(&durs("rpc.value.encode"), 0.5),
    );

    // Cache and fills.
    let gets: Vec<f64> = named("kvstore.get").map(|s| us(idx.self_time(s))).collect();
    m.insert("kvstore.get_us.p50", percentile(&gets, 0.5));
    m.insert("kvstore.get_us.p99", percentile(&gets, 0.99));
    m.insert("kvstore.set_us.p50", percentile(&durs("kvstore.set"), 0.5));
    m.insert("kvstore.set_us.p99", percentile(&durs("kvstore.set"), 0.99));
    m.insert(
        "kvstore.backing.lookup_us.p50",
        percentile(&durs("kvstore.backing.lookup"), 0.5),
    );
    let k = inp.kv;
    let (gets, fills) = (k.gets as f64, k.fills as f64);
    m.insert("kvstore.evictions", k.evictions as f64);
    m.insert("kvstore.expirations", k.expirations as f64);
    m.insert("kvstore.fills", fills);
    m.insert("kvstore.fills_per_miss", ratio(fills, k.misses as f64));
    m.insert("cache_hit_ratio", ratio(gets - fills, gets));

    // Tax primitives.
    let (lz_in, lz_out) =
        named("tax.lz_compress").fold((0, 0), |(i, o), s| (i + s.bytes_in, o + s.bytes_out));
    m.insert(
        "tax.lz_compress_us.p50",
        percentile(&durs("tax.lz_compress"), 0.5),
    );
    m.insert("tax.lz_compress_mbps", mbps("tax.lz_compress"));
    m.insert("tax.compress_ratio", ratio(lz_out as f64, lz_in as f64));
    m.insert(
        "tax.chacha20_us.p50",
        percentile(&durs("tax.chacha20"), 0.5),
    );
    m.insert("tax.chacha20_mbps", mbps("tax.chacha20"));
    m.insert(
        "tax.hmac_sha256_us.p50",
        percentile(&durs("tax.hmac_sha256"), 0.5),
    );
    m.insert("tax.hmac_sha256_mbps", mbps("tax.hmac_sha256"));
    m.insert(
        "tax.dcx64_us_per_req",
        ratio(sum(&durs("tax.dcx64")), handlers),
    );

    // The benchmark's own side.
    let handler_self: Vec<f64> = named("server.handler")
        .map(|s| us(idx.self_time(s)))
        .collect();
    m.insert("server.handler_us.p50", percentile(&handler_self, 0.5));
    m.insert("server.handler_us.p99", percentile(&handler_self, 0.99));
    m.insert("app.rank_us.p50", percentile(&durs("app.rank"), 0.5));
    let late: Vec<f64> = inp.open.late_ns.iter().map(|&ns| us(ns)).collect();
    let latency: Vec<f64> = inp.open.latency_ns.iter().map(|&ns| us(ns)).collect();
    m.insert("gen.late_us.p99", percentile(&late, 0.99));
    m.insert("gen.late_us.max", percentile(&late, 1.0));
    m.insert("client.latency_p99_us", percentile(&latency, 0.99));
    m.insert("client.latency_p999_us", percentile(&latency, 0.999));
    m.insert("client.samples", latency.len() as f64);
    m.insert(
        "trace.overhead",
        ratio(inp.untraced_rps, inp.traced_rps) - 1.0,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: "x",
            phase: 0,
            start,
            end,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
        ];
        let idx = Index::new(&spans);
        // Children cover 10..50 and 90..100 of the parent.
        assert_eq!(idx.self_time(&spans[0]), 50);
    }
}
