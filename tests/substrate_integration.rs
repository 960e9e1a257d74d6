//! Cross-crate integration: the substrates composed the way the
//! benchmarks compose them — RPC carrying serialized values, the cache in
//! front of the backing store, tax codecs on the response path.

use dcperf::kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf::rpc::{InProcServer, PoolConfig, Request, Response, Transport, Value};
use dcperf::tax::{compress, crypto};
use std::sync::Arc;

/// A miniature TAO stack: RPC → cache → backing store, with compressed
/// and MACed responses. Verifies the full data path end to end.
#[test]
fn rpc_cache_store_pipeline_round_trips() {
    let store = Arc::new(BackingStore::new(
        BackingStoreConfig::tao_like().without_latency(),
        123,
    ));
    let cache = Arc::new(Cache::new(CacheConfig::with_capacity_bytes(4 << 20)));
    let key_for_mac = [9u8; 32];

    let handler_store = Arc::clone(&store);
    let handler_cache = Arc::clone(&cache);
    let server = InProcServer::start(
        move |req: &Request| {
            let Some(object) = handler_cache.get_or_load(&req.body, |k| handler_store.lookup(k))
            else {
                return Response::error("missing");
            };
            // Response path: serialize → compress → MAC, like FeedSim.
            let value = Value::Struct(vec![
                (1, Value::Bin(req.body.to_vec())),
                (2, Value::Bin(object.to_vec())),
            ])
            .encode();
            let mut packed = compress::lz_compress(&value);
            let mac = crypto::hmac_sha256(&key_for_mac, &packed);
            packed.extend_from_slice(&mac);
            Response::ok(packed)
        },
        PoolConfig::fast_slow(2, 1),
    );

    let client = server.client();
    for i in 0..200u64 {
        let key = (i % 50).to_le_bytes().to_vec();
        let resp = client
            .call("get", key.clone(), None)
            .expect("call succeeds");
        // Verify MAC, decompress, decode, compare against the store.
        let (packed, mac) = resp.body.split_at(resp.body.len() - 32);
        assert_eq!(
            mac,
            crypto::hmac_sha256(&key_for_mac, packed),
            "MAC mismatch"
        );
        let value_bytes = compress::lz_decompress(packed).expect("decompresses");
        let value = Value::decode(&value_bytes).expect("decodes");
        assert_eq!(value.field(1).unwrap().as_bin().unwrap(), &key[..]);
        let object = value.field(2).unwrap().as_bin().unwrap();
        assert_eq!(
            object,
            store.lookup(&key).unwrap(),
            "cache served wrong object"
        );
    }
    // 50 distinct keys over 200 requests: 150 hits.
    assert_eq!(cache.stats().misses(), 50);
    assert_eq!(cache.stats().hits(), 150);
    server.shutdown();
}

/// The load generator drives an RPC service and the latency histogram
/// reflects injected service delays.
#[test]
fn loadgen_measures_rpc_service_latency() {
    use dcperf::loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
    use std::time::{Duration, Instant};

    struct SlowRpc {
        client: dcperf::rpc::InProcClient,
    }
    impl Service for SlowRpc {
        fn call(&self, _e: usize, _seq: u64) -> Result<usize, ServiceError> {
            self.client
                .call("work", vec![0u8; 16], None)
                .map(|r| r.body.len())
                .map_err(|e| ServiceError::new(e.to_string()))
        }
    }

    let server = InProcServer::start(
        |_req: &Request| {
            let until = Instant::now() + Duration::from_micros(300);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            Response::ok(vec![1; 8])
        },
        PoolConfig::single_lane(2),
    );
    let service = SlowRpc {
        client: server.client(),
    };
    let report = ClosedLoop::new(EndpointMix::uniform(&["work"]).unwrap())
        .workers(2)
        .duration(Duration::from_millis(150))
        .run(&service, 5);
    assert!(report.completed > 50);
    // P50 must reflect the injected 300µs service time (plus dispatch).
    assert!(
        report.latency_ns.p50() >= 280_000,
        "p50 {}ns below injected service time",
        report.latency_ns.p50()
    );
    server.shutdown();
}
