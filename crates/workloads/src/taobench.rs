//! TaoBench: the TAO-style read-through caching benchmark.
//!
//! "TaoBench is a read-through, in-memory cache modeled after TAO …
//! The server spawns a number of so-called fast and slow threads. When a
//! request encounters a cache hit, a fast thread simply returns the cached
//! object to the client. However, in the case of a cache miss, the request
//! is dispatched to a slow thread, which simulates backend database lookup
//! delay, new object creation, and Memcached insertion using the SET
//! command." (§3.2)
//!
//! This implementation is exactly that architecture on this repo's
//! substrates: a [`dcperf_kvstore::Cache`] served through a
//! [`dcperf_rpc::InProcServer`] whose classifier peeks the cache and
//! routes hits to the fast pool and misses to the slow pool, a
//! [`BackingStore`] paying simulated DB latency on the miss path, and a
//! memtier-style closed-loop client drawing Zipf-distributed keys with
//! production-shaped value sizes. The chaos scenarios run this same
//! server and client behind a resilient transport.

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_rpc::wire::WireError;
use dcperf_rpc::{InProcServer, Lane, PoolConfig, Request, Response, RpcError, Transport};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::Arc;
use std::time::Duration;

/// Tunable parameters; `Default` matches the production-shaped TAO
/// configuration scaled by the run's [`Scale`](dcperf_core::Scale).
#[derive(Debug, Clone)]
pub struct TaoBenchConfig {
    /// Distinct keys in the working set (scaled by the run scale).
    pub base_key_space: u64,
    /// Zipf skew of key popularity.
    pub zipf_exponent: f64,
    /// Cache capacity as a fraction of the expected working-set bytes;
    /// below 1.0 forces a production-like miss rate.
    pub cache_fraction: f64,
    /// GET share of the operation mix (the remainder are SETs).
    pub get_fraction: f64,
    /// Simulated DB latency on the miss path.
    pub db_latency: Duration,
    /// Base measurement duration (scaled by the run scale).
    pub base_duration: Duration,
    /// Requests each load-generator worker keeps in flight per turn. A
    /// turn's GETs travel as one `mget` and its SETs as one `mset`, so 1
    /// sends a one-key `mget` or `mset` per turn; larger values exercise
    /// the pipelined RPC path.
    pub pipeline_depth: usize,
}

impl Default for TaoBenchConfig {
    fn default() -> Self {
        Self {
            base_key_space: 200_000,
            zipf_exponent: 0.99,
            cache_fraction: 0.35,
            get_fraction: 0.95,
            db_latency: Duration::from_micros(150),
            base_duration: Duration::from_millis(400),
            pipeline_depth: 1,
        }
    }
}

/// The TaoBench benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TaoBench {
    config: TaoBenchConfig,
}

/// Marker length for a missing object in an `mget` response slot.
const MGET_MISSING: u32 = u32::MAX;

/// Appends one `mget` response slot: `u32` little-endian length plus the
/// value bytes, with [`MGET_MISSING`] marking an absent object.
fn encode_mget_slot(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(v) => {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => out.extend_from_slice(&MGET_MISSING.to_le_bytes()),
    }
}

/// Splits `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let (head, tail) = rest.split_at_checked(n).ok_or(WireError::UnexpectedEof)?;
    *rest = tail;
    Ok(head)
}

/// Splits a little-endian `u32` length prefix off the front of `rest`.
fn take_len(rest: &mut &[u8]) -> Result<u32, WireError> {
    let (len, tail) = rest.split_first_chunk().ok_or(WireError::UnexpectedEof)?;
    *rest = tail;
    Ok(u32::from_le_bytes(*len))
}

/// Consumes one `mget` response slot from `rest`; `Ok(None)` is a
/// missing object.
fn parse_mget_slot<'a>(rest: &mut &'a [u8]) -> Result<Option<&'a [u8]>, WireError> {
    match take_len(rest)? {
        MGET_MISSING => Ok(None),
        len => take(rest, len as usize).map(Some),
    }
}

/// Appends one `mset` request item: 8-byte key, `u32` little-endian
/// length, value bytes.
fn encode_mset_item(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// One decoded `mset` item: key and value.
type MsetItem = (Vec<u8>, Vec<u8>);

/// Decodes a whole `mset` request body into key/value pairs.
fn parse_mset_items(mut body: &[u8]) -> Result<Vec<MsetItem>, WireError> {
    let mut items = Vec::new();
    while !body.is_empty() {
        let key = take(&mut body, 8)?.to_vec();
        let len = take_len(&mut body)?;
        items.push((key, take(&mut body, len as usize)?.to_vec()));
    }
    Ok(items)
}

impl TaoBench {
    /// Creates the benchmark with an explicit configuration.
    pub fn with_config(config: TaoBenchConfig) -> Self {
        Self { config }
    }
}

/// The server's handler. `mget` bodies are concatenated 8-byte keys and
/// resolve in one shard-grouped cache pass, with misses loaded from
/// `store` through the single-flight fill path; `mset` bodies are
/// [`encode_mset_item`] items, written in one pass per touched shard.
fn handle(cache: &Cache, store: &BackingStore, req: &Request) -> Response {
    match req.method.as_str() {
        "mget" => {
            if !req.body.len().is_multiple_of(8) {
                return Response::error("malformed mget");
            }
            let keys: Vec<&[u8]> = req.body.chunks_exact(8).collect();
            let values = cache.get_or_load_many(&keys, |key| store.lookup(key));
            let mut out = Vec::new();
            for value in &values {
                encode_mget_slot(&mut out, value.as_deref());
            }
            Response::ok(out)
        }
        "mset" => match parse_mset_items(&req.body) {
            Ok(items) => {
                cache.set_many(items);
                Response::ok(Vec::new())
            }
            Err(_) => Response::error("malformed mset"),
        },
        other => Response::error(&format!("unknown method {other}")),
    }
}

/// TAO's dispatch: an `mget` whose keys are all resident goes to the fast
/// pool; misses and writes go to the slow pool. The peek is the stat-less
/// [`Cache::contains`], so classification neither skews the hit/miss
/// counters nor perturbs LRU order.
fn classify(cache: &Cache, req: &Request) -> Lane {
    let all_resident = req.method == "mget"
        && req.body.len().is_multiple_of(8)
        && req.body.chunks_exact(8).all(|key| cache.contains(key));
    if all_resident {
        Lane::Fast
    } else {
        Lane::Slow
    }
}

/// Starts the TaoBench server over `cache`, filling misses from `store`.
pub(crate) fn serve(cache: Arc<Cache>, store: Arc<BackingStore>, pool: PoolConfig) -> InProcServer {
    let classify_cache = Arc::clone(&cache);
    InProcServer::start_with_classifier(
        move |req: &Request| handle(&cache, &store, req),
        move |req: &Request| classify(&classify_cache, req),
        pool,
    )
}

/// Maps an RPC failure onto the load generator's outcome classes: an
/// expired budget is `deadline_exceeded`, a breaker refusal is
/// `rejected`, and anything else is a plain error.
fn service_error(e: &RpcError) -> ServiceError {
    match e {
        RpcError::DeadlineExceeded | RpcError::Timeout => {
            ServiceError::deadline_exceeded("request budget spent")
        }
        RpcError::CircuitOpen => ServiceError::rejected("circuit open"),
        e => ServiceError::new(e.to_string()),
    }
}

/// The client side: memtier-style key/op generation over any RPC
/// transport. Endpoint 0 is GET, anything else SET.
pub(crate) struct TaoClient<C> {
    rpc: C,
    zipf: Zipf,
    seed: u64,
    store: Arc<BackingStore>,
}

impl<C: Transport> TaoClient<C> {
    /// A client over `rpc` drawing keys from `zipf`; SET values are
    /// synthesized by `store`.
    pub(crate) fn new(rpc: C, zipf: Zipf, seed: u64, store: Arc<BackingStore>) -> Self {
        Self {
            rpc,
            zipf,
            seed,
            store,
        }
    }

    fn key_for(&self, seq: u64) -> u64 {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Hash the Zipf rank so hot keys are spread across cache shards.
        let rank = self.zipf.sample(&mut rng);
        SplitMix64::mix(rank) % self.zipf.n()
    }
}

impl<C: Transport + Send + Sync> Service for TaoClient<C> {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        self.call_many(&[(endpoint, seq)])
            .pop()
            .unwrap_or_else(|| Err(ServiceError::new("request dropped from batch")))
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // Fold the burst into at most two multi-key requests — one mget
        // carrying every GET key and one mset carrying every SET (the
        // client supplies the new object, as memtier does) — so the whole
        // burst maps onto one shard-grouped cache pass server-side, then
        // scatter results back in issue order.
        let mut get_slots: Vec<usize> = Vec::new();
        let mut mget_body: Vec<u8> = Vec::new();
        let mut set_slots: Vec<usize> = Vec::new();
        let mut mset_body: Vec<u8> = Vec::new();
        for (idx, &(endpoint, seq)) in batch.iter().enumerate() {
            let key = self.key_for(seq).to_le_bytes();
            if endpoint == 0 {
                get_slots.push(idx);
                mget_body.extend_from_slice(&key);
            } else {
                set_slots.push(idx);
                encode_mset_item(&mut mset_body, &key, &self.store.synthesize_for_key(&key));
            }
        }
        let mut results: Vec<Option<Result<usize, ServiceError>>> = vec![None; batch.len()];
        if !get_slots.is_empty() {
            match self.rpc.call("mget", mget_body, None) {
                Ok(resp) => {
                    let mut rest = resp.body.as_slice();
                    for &idx in &get_slots {
                        results[idx] = Some(match parse_mget_slot(&mut rest) {
                            Ok(Some(value)) => Ok(value.len()),
                            Ok(None) => Err(ServiceError::new("object not found")),
                            Err(_) => Err(ServiceError::new("truncated mget response")),
                        });
                    }
                }
                Err(e) => {
                    let err = service_error(&e);
                    for &idx in &get_slots {
                        results[idx] = Some(Err(err.clone()));
                    }
                }
            }
        }
        if !set_slots.is_empty() {
            let outcome = self.rpc.call("mset", mset_body, None);
            for &idx in &set_slots {
                results[idx] = Some(match &outcome {
                    Ok(resp) => Ok(resp.body.len()),
                    Err(e) => Err(service_error(e)),
                });
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(ServiceError::new("request dropped from batch"))))
            .collect()
    }
}

impl Benchmark for TaoBench {
    fn name(&self) -> &str {
        "taobench"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::DataCaching
    }

    fn description(&self) -> &str {
        "TAO-style read-through in-memory cache with fast/slow thread pools"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let key_space = self.config.base_key_space * scale;
        let seed = ctx.seed();

        // Expected working set: key space × mean object size; cap the
        // cache below it so the slow path stays exercised.
        let store = Arc::new(BackingStore::new(
            BackingStoreConfig {
                lookup_latency: self.config.db_latency,
                ..BackingStoreConfig::tao_like()
            },
            seed,
        ));
        let mean_object = 450usize; // log-normal mean for the TAO shape
        let capacity = (key_space as usize * mean_object) as f64 * self.config.cache_fraction;
        // Record onto the run's registry so the report's telemetry
        // snapshot carries the cache counters.
        let cache = Arc::new(Cache::with_telemetry(
            CacheConfig::with_capacity_bytes(capacity as usize).with_shards(threads * 4),
            ctx.telemetry(),
        ));

        // Server: fast pool for hits, slow pool for misses/SETs.
        let fast_threads = (threads / 2).max(2);
        let slow_threads = (threads / 2).max(2);
        let server = serve(
            Arc::clone(&cache),
            Arc::clone(&store),
            PoolConfig::fast_slow(fast_threads, slow_threads).with_queue_depth(8192),
        );
        let zipf = Zipf::new(key_space, self.config.zipf_exponent)
            .map_err(|e| Error::Config(e.to_string()))?;
        let client = TaoClient::new(server.client(), zipf, seed, store);

        // Warm the cache briefly so the measured phase sees steady state.
        let mix = EndpointMix::new(
            &["get", "set"],
            &[self.config.get_fraction, 1.0 - self.config.get_fraction],
        )
        .map_err(|e| Error::Config(e.to_string()))?;
        ClosedLoop::new(mix.clone())
            .workers(threads)
            .pipeline_depth(self.config.pipeline_depth)
            .duration(self.config.base_duration / 4)
            .run(&client, seed ^ 0xAAAA);
        let warm_hits = cache.stats().hits();
        let warm_misses = cache.stats().misses();

        let mut report = ReportBuilder::new(self.name());
        report.param("key_space", key_space);
        report.param("cache_capacity_bytes", capacity as u64);
        report.param("fast_threads", fast_threads as u64);
        report.param("slow_threads", slow_threads as u64);
        report.param("client_threads", threads as u64);
        report.param("pipeline_depth", self.config.pipeline_depth as u64);
        report.param("zipf_exponent", self.config.zipf_exponent);

        let duration = self.config.base_duration * scale.min(16) as u32;
        // The measured run records onto the run registry (the warmup above
        // kept its own, so warmup traffic stays out of the snapshot).
        let load = ClosedLoop::new(mix)
            .workers(threads)
            .pipeline_depth(self.config.pipeline_depth)
            .duration(duration)
            .telemetry(ctx.telemetry())
            .run(&client, seed);

        // Hit rate over the measured phase only. The classifier's peeks
        // use the stat-less `Cache::contains`, so only handler lookups
        // are counted.
        let hits = cache.stats().hits() - warm_hits;
        let misses = cache.stats().misses() - warm_misses;
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };

        report.metric("requests_per_second", load.throughput_rps());
        report.metric("cache_hit_rate", hit_rate);
        report.metric("total_requests", load.completed);
        report.metric("error_rate", load.error_rate());
        report.metric("response_mb", load.response_bytes as f64 / 1e6);
        report.latency_ms("request", &load.latency_ns);
        let stats = server.stats();
        report.metric("rpc_shed", stats.shed());
        server.shutdown();
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;
    use dcperf_rpc::{InProcClient, Status};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn smoke_config() -> TaoBenchConfig {
        TaoBenchConfig {
            base_key_space: 20_000,
            db_latency: Duration::from_micros(40),
            base_duration: Duration::from_millis(150),
            ..TaoBenchConfig::default()
        }
    }

    #[test]
    fn smoke_run_produces_sane_metrics() {
        let bench = TaoBench::with_config(smoke_config());
        let mut ctx = RunContext::new(RunConfig::smoke_test().with_threads(4), "taobench");
        let report = bench.run(&mut ctx).expect("taobench runs");
        let rps = report.metric_f64("requests_per_second").unwrap();
        assert!(rps > 1_000.0, "rps={rps}");
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(
            (0.3..=0.999).contains(&hit_rate),
            "hit rate {hit_rate} out of expected band"
        );
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        assert!(report.metric_f64("request_p95_ms").unwrap() > 0.0);
    }

    #[test]
    fn pipelined_run_matches_classic_semantics() {
        // Depth 8 batches bursts down the multiplexed RPC path; the mix,
        // hit-rate band, and error-free completion must be unchanged.
        let bench = TaoBench::with_config(TaoBenchConfig {
            pipeline_depth: 8,
            ..smoke_config()
        });
        let mut ctx = RunContext::new(RunConfig::smoke_test().with_threads(4), "taobench");
        let report = bench.run(&mut ctx).expect("pipelined taobench runs");
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(
            (0.3..=0.999).contains(&hit_rate),
            "hit rate {hit_rate} out of expected band"
        );
        assert!(report.metric_f64("requests_per_second").unwrap() > 1_000.0);
    }

    #[test]
    fn hot_keys_hit_cold_keys_miss() {
        // With a capacity-limited cache and Zipf keys, the measured hit
        // rate must be far above the capacity fraction alone (recency
        // keeps the hot head resident).
        let bench = TaoBench::with_config(TaoBenchConfig {
            cache_fraction: 0.2,
            ..smoke_config()
        });
        let mut ctx = RunContext::new(RunConfig::smoke_test().with_threads(4), "taobench");
        let report = bench.run(&mut ctx).unwrap();
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(hit_rate > 0.35, "hit rate {hit_rate}");
    }

    /// A latency-free store in which about 2% of keys are deleted objects.
    fn test_store() -> Arc<BackingStore> {
        Arc::new(BackingStore::new(
            BackingStoreConfig::tao_like()
                .without_latency()
                .with_population(1 << 40),
            9,
        ))
    }

    fn test_cache() -> Arc<Cache> {
        Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(1 << 20).with_shards(4),
        ))
    }

    /// A fresh TaoBench stack over a 1000-key space.
    fn stack() -> (InProcServer, TaoClient<InProcClient>) {
        let store = test_store();
        let server = serve(
            test_cache(),
            Arc::clone(&store),
            PoolConfig::fast_slow(1, 1),
        );
        let zipf = Zipf::new(1000, 0.99).expect("valid zipf");
        let client = TaoClient::new(server.client(), zipf, 77, store);
        (server, client)
    }

    #[test]
    fn deterministic_key_generation() {
        // Same seed → same key sequence (content determinism).
        let (server_a, a) = stack();
        let (server_b, b) = stack();
        for seq in 0..100 {
            assert_eq!(a.key_for(seq), b.key_for(seq));
        }
        server_a.shutdown();
        server_b.shutdown();
    }

    #[test]
    fn call_matches_call_many_per_request() {
        // The last two requests of every 8 are SETs. A burst sends its
        // GETs before its SETs, so bursts of 8 issue in the same order as
        // one call per request, and each request must see the same
        // outcome: value length, empty SET reply, or a deleted object.
        let requests: Vec<(usize, u64)> = (0..512)
            .map(|seq| (usize::from(seq % 8 >= 6), seq))
            .collect();
        let (one_server, one) = stack();
        let (burst_server, burst) = stack();
        let singles: Vec<_> = requests
            .iter()
            .map(|&(endpoint, seq)| one.call(endpoint, seq))
            .collect();
        let bursts: Vec<_> = requests
            .chunks(8)
            .flat_map(|chunk| burst.call_many(chunk))
            .collect();
        assert_eq!(singles, bursts);
        assert!(singles.iter().any(|r| matches!(r, Ok(len) if *len > 0)));
        assert!(singles.iter().any(Result::is_err), "no deleted object hit");
        one_server.shutdown();
        burst_server.shutdown();
    }

    #[test]
    fn rpc_errors_map_onto_outcome_classes() {
        use dcperf_loadgen::ServiceErrorKind::{DeadlineExceeded, Other, Rejected};
        for (err, kind) in [
            (RpcError::DeadlineExceeded, DeadlineExceeded),
            (RpcError::Timeout, DeadlineExceeded),
            (RpcError::CircuitOpen, Rejected),
            (RpcError::Overloaded, Other),
            (RpcError::Disconnected, Other),
            (RpcError::Application("boom".into()), Other),
            (RpcError::Wire(WireError::UnexpectedEof), Other),
            (RpcError::Io(std::io::Error::other("reset")), Other),
            (RpcError::CorrelationMismatch { got: 3 }, Other),
        ] {
            assert_eq!(service_error(&err).kind, kind, "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mget_slot_roundtrip(
            values in vec(
                (any::<bool>(), vec(any::<u8>(), 0..24))
                    .prop_map(|(present, value)| present.then_some(value)),
                0..6,
            ),
        ) {
            let mut body = Vec::new();
            let mut ends = vec![0];
            for value in &values {
                encode_mget_slot(&mut body, value.as_deref());
                ends.push(body.len());
            }
            // Every prefix decodes its whole slots; a cut inside a slot
            // fails typed.
            for cut in 0..=body.len() {
                let mut rest = &body[..cut];
                let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
                for value in &values[..whole] {
                    prop_assert_eq!(parse_mget_slot(&mut rest), Ok(value.as_deref()));
                }
                if !rest.is_empty() {
                    prop_assert_eq!(parse_mget_slot(&mut rest), Err(WireError::UnexpectedEof));
                }
            }
        }

        #[test]
        fn mset_items_roundtrip(
            items in vec((any::<u64>(), vec(any::<u8>(), 0..24)), 0..6),
        ) {
            let mut body = Vec::new();
            let mut ends = vec![0];
            for (key, value) in &items {
                encode_mset_item(&mut body, &key.to_le_bytes(), value);
                ends.push(body.len());
            }
            let expected: Vec<MsetItem> = items
                .iter()
                .map(|(key, value)| (key.to_le_bytes().to_vec(), value.clone()))
                .collect();
            for cut in 0..=body.len() {
                let parsed = parse_mset_items(&body[..cut]);
                match ends.iter().position(|&end| end == cut) {
                    Some(whole) => prop_assert_eq!(parsed, Ok(expected[..whole].to_vec())),
                    None => prop_assert_eq!(parsed, Err(WireError::UnexpectedEof)),
                }
            }
        }

        #[test]
        fn arbitrary_bodies_never_panic(data in vec(any::<u8>(), 0..200)) {
            let mut rest = data.as_slice();
            while !rest.is_empty() && parse_mget_slot(&mut rest).is_ok() {}
            let (cache, store) = (test_cache(), test_store());
            for method in ["mget", "mset", "put"] {
                let req = Request::new(method, data.clone());
                let _ = classify(&cache, &req);
                let malformed = match method {
                    "mget" => !data.len().is_multiple_of(8),
                    "mset" => parse_mset_items(&data).is_err(),
                    _ => true,
                };
                let reply = handle(&cache, &store, &req);
                prop_assert_eq!(reply.status == Status::Error, malformed);
            }
        }
    }
}
