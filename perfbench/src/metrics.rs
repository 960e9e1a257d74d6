//! Metric names, units and directions, and the result line. The tables
//! here are the source `BENCHMARK.json` is checked against.

use std::collections::HashMap;

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by untraced runs, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("throughput_rps", "1/s", "higher"),
    m("cpu_us_per_req", "us", "lower"),
    m("latency_p50_us", "us", "lower"),
    m("resp_bytes_per_req", "B", "lower"),
    m("setup_s", "s", "lower"),
];

/// Reported by traced runs, on every workload; a layer a workload does
/// not use reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("rpc.client.call_us.p50", "us", "lower"),
    m("rpc.client.call_us.p99", "us", "lower"),
    m("rpc.inbound_us.p50", "us", "lower"),
    m("rpc.inbound_us.p99", "us", "lower"),
    m("rpc.outbound_us.p50", "us", "lower"),
    m("rpc.outbound_us.p99", "us", "lower"),
    m("rpc.classify_us.p50", "us", "lower"),
    m("rpc.lane.fast_share", "ratio", "higher"),
    m("rpc.batch.responses_per_flush", "count", "higher"),
    m("rpc.pipeline.inflight_peak", "count", "higher"),
    m("rpc.shed", "count", "lower"),
    m("rpc.fanout_us.p50", "us", "lower"),
    m("rpc.fanout_us.p99", "us", "lower"),
    m("rpc.fanout.self_us.p50", "us", "lower"),
    m("rpc.leaf.handler_us.p50", "us", "lower"),
    m("rpc.leaf.calls_per_req", "count", "lower"),
    m("rpc.value.decode_us.p50", "us", "lower"),
    m("rpc.value.decode_mbps", "MB/s", "higher"),
    m("rpc.value.encode_us.p50", "us", "lower"),
    m("kvstore.get_us.p50", "us", "lower"),
    m("kvstore.get_us.p99", "us", "lower"),
    m("kvstore.set_us.p50", "us", "lower"),
    m("kvstore.set_us.p99", "us", "lower"),
    m("kvstore.evictions", "count", "lower"),
    m("kvstore.expirations", "count", "lower"),
    m("kvstore.backing.lookup_us.p50", "us", "lower"),
    m("kvstore.fills", "count", "lower"),
    m("kvstore.fills_per_miss", "ratio", "lower"),
    m("cache_hit_ratio", "ratio", "higher"),
    m("tax.lz_compress_us.p50", "us", "lower"),
    m("tax.lz_compress_mbps", "MB/s", "higher"),
    m("tax.compress_ratio", "ratio", "lower"),
    m("tax.chacha20_us.p50", "us", "lower"),
    m("tax.chacha20_mbps", "MB/s", "higher"),
    m("tax.hmac_sha256_us.p50", "us", "lower"),
    m("tax.hmac_sha256_mbps", "MB/s", "higher"),
    m("tax.dcx64_us_per_req", "us", "lower"),
    m("server.handler_us.p50", "us", "lower"),
    m("server.handler_us.p99", "us", "lower"),
    m("app.rank_us.p50", "us", "lower"),
    m("gen.late_us.p99", "us", "lower"),
    m("gen.late_us.max", "us", "lower"),
    m("client.latency_p99_us", "us", "lower"),
    m("client.latency_p999_us", "us", "lower"),
    m("client.samples", "count", "higher"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.reconcile_err", "ratio", "lower"),
];

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The mean of the lowest `share` of unsorted samples (at least one of
/// them); 0 when there are none.
pub fn lowest_mean(samples: &[f64], share: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = ((share * sorted.len() as f64).round() as usize).clamp(1, sorted.len());
    sorted[..n].iter().sum::<f64>() / n as f64
}

/// A finite JSON number; NaN and infinities, which JSON cannot carry,
/// read 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line, with one value from `values` for each metric of
/// `table`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &HashMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .copied()
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(v),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_mean_averages_the_lowest_share() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(lowest_mean(&v, 0.1), 1.5);
        assert_eq!(lowest_mean(&v[..3], 0.1), 18.0);
        assert_eq!(lowest_mean(&[], 0.1), 0.0);
    }
}
