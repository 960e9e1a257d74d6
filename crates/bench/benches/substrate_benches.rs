//! Criterion benchmarks for the system substrates: the cache, the RPC
//! stack, the histogram recorder, and the wiki renderer — the hot inner
//! loops of the full benchmarks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_rpc::{InProcServer, PoolConfig, Request, Response, Transport, Value};
use dcperf_util::Histogram;
use dcperf_workloads::wiki::{self, TemplateSet};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let cache = Cache::new(CacheConfig::with_capacity_bytes(32 << 20).with_shards(8));
    let store = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 1);
    for i in 0..10_000u64 {
        cache.set(&i.to_le_bytes(), store.synthesize_for_key(&i.to_le_bytes()));
    }
    let mut group = c.benchmark_group("kvstore");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            black_box(cache.get(&i.to_le_bytes()))
        })
    });
    let mut j = 0u64;
    group.bench_function("set", |b| {
        b.iter(|| {
            j += 1;
            cache.set(&(j % 20_000).to_le_bytes(), vec![0u8; 128]);
        })
    });
    let mut k = 0u64;
    group.bench_function("read_through_miss", |b| {
        b.iter(|| {
            k += 1;
            let key = (1_000_000 + k).to_le_bytes();
            black_box(cache.get_or_load(&key, |kb| store.lookup(kb)))
        })
    });
    group.finish();
}

fn bench_rpc(c: &mut Criterion) {
    let server = InProcServer::start(
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(2),
    );
    let client = server.client();
    let mut group = c.benchmark_group("rpc");
    group.throughput(Throughput::Elements(1));
    group.bench_function("inproc_round_trip_64b", |b| {
        b.iter(|| black_box(client.call("echo", vec![7u8; 64], None).unwrap()))
    });
    let value = Value::Struct(vec![
        (1, Value::I64(42)),
        (2, Value::Str("hello world hello world".into())),
        (3, Value::List(vec![Value::F64(1.0); 16])),
    ]);
    let encoded = value.encode();
    group.bench_function("value_encode", |b| b.iter(|| black_box(value.encode())));
    group.bench_function("value_decode", |b| {
        b.iter(|| black_box(Value::decode(black_box(&encoded)).unwrap()))
    });
    group.finish();
    server.shutdown();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    group.throughput(Throughput::Elements(1));
    let mut hist = Histogram::new();
    let mut v = 1u64;
    group.bench_function("record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 30));
        })
    });
    for i in 1..100_000u64 {
        hist.record(i * 37);
    }
    group.bench_function("p99_query", |b| {
        b.iter(|| black_box(hist.value_at_percentile(99.0)))
    });
    group.finish();
}

fn bench_wiki(c: &mut Criterion) {
    let templates = TemplateSet::standard();
    let article = wiki::generate_article(1, 6_000, 7);
    let mut group = c.benchmark_group("wiki");
    group.throughput(Throughput::Bytes(article.len() as u64));
    group.bench_function("render_6k_article", |b| {
        b.iter(|| black_box(wiki::render(black_box(&article), &templates)))
    });
    group.finish();
}

criterion_group!(benches, bench_cache, bench_rpc, bench_histogram, bench_wiki);
criterion_main!(benches);
