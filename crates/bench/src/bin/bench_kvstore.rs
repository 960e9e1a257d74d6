//! Deterministic KV cache read-path and fill-amplification benchmark.
//!
//! Two phases, both seeded so repeat runs replay identical key streams:
//!
//! 1. **Read path.** Sweeps reader thread count x key skew (uniform and
//!    hot-key Zipf 0.99) over a fully resident working set. The traffic
//!    shape is the pipelined-RPC one: each thread issues bursts of
//!    `--depth` keys. The baseline is a faithful reconstruction of the
//!    pre-rewrite cache — mutex-per-shard [`Shard::get`] with a clock
//!    read and hit/miss counters per lookup, and no batch API, so a
//!    burst pays one lock/clock/counter round *per key*. Against it the
//!    current [`Cache`] is measured twice: scalar `get` per key, and one
//!    shard-grouped [`Cache::get_many`] per burst (how the TaoBench
//!    `mget` handler drives it), which amortises those rounds
//!    across the burst. On multi-core hosts the `RwLock` read path adds
//!    reader parallelism on top; this sweep's speedup is the part that
//!    survives even a single-core box.
//! 2. **Fill amplification.** Eight threads race `get_or_load` on a
//!    fresh cold key every round against a slow loader, with
//!    single-flight on and off. The on/off loader-invocation ratio is
//!    the stampede factor the in-flight fill table removes.
//!
//! Usage (also aliased as `cargo bench-kvstore`):
//!
//! ```text
//! bench_kvstore [--ops N] [--threads 1,2,4,8] [--depth D] [--keyspace K]
//!               [--value-bytes B] [--rounds R] [--seed S]
//!               [--out BENCH_kvstore.json]
//! ```

#![forbid(unsafe_code)]

use dcperf_kvstore::shard::Shard;
use dcperf_kvstore::{Cache, CacheConfig};
use dcperf_tax::hash::fnv1a;
use dcperf_util::{Rng, Xoshiro256pp, Zipf};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::hash_map::RandomState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Shard count used by both cache builds in the read-path sweep.
const SHARDS: usize = 4;

/// Hot-key Zipf exponent (the skew the DCPerf cache workloads model).
const ZIPF_S: f64 = 0.99;

/// Timed repetitions per read mode; modes are interleaved round-robin
/// and each mode keeps its fastest repetition, so slow host-frequency
/// drift cancels out of the reported ratios.
const READ_REPS: usize = 9;

#[derive(Debug, Serialize)]
struct ReadPoint {
    threads: usize,
    skew: &'static str,
    burst_depth: usize,
    total_ops: u64,
    baseline_mutex_rps: f64,
    rwlock_scalar_rps: f64,
    rwlock_batched_rps: f64,
    /// Batched `get_many` bursts vs the pre-rewrite scalar mutex path —
    /// the headline regression-tracked ratio.
    speedup: f64,
    scalar_speedup: f64,
}

#[derive(Debug, Serialize)]
struct FillSide {
    single_flight: bool,
    rounds: u64,
    loader_runs: u64,
    /// Loader runs per cold round; 1.0 means every miss burst coalesced.
    amplification: f64,
    singleflight_fills: u64,
    singleflight_waits: u64,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    benchmark: String,
    seed: u64,
    key_space: u64,
    value_bytes: usize,
    shards: usize,
    zipf_s: f64,
    read_reps: usize,
    recency_sample_every: u32,
    read_path: Vec<ReadPoint>,
    fill_threads: usize,
    fill_amplification: Vec<FillSide>,
}

struct Args {
    ops: u64,
    threads: Vec<usize>,
    depth: usize,
    keyspace: u64,
    value_bytes: usize,
    rounds: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ops: 1_200_000,
        threads: vec![1, 2, 4, 8],
        depth: 16,
        keyspace: 4_096,
        value_bytes: 128,
        rounds: 24,
        seed: 42,
        out: "BENCH_kvstore.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--depth" => {
                args.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
            }
            "--keyspace" => {
                args.keyspace = value("--keyspace")?
                    .parse()
                    .map_err(|e| format!("--keyspace: {e}"))?;
            }
            "--value-bytes" => {
                args.value_bytes = value("--value-bytes")?
                    .parse()
                    .map_err(|e| format!("--value-bytes: {e}"))?;
            }
            "--rounds" => {
                args.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                return Err(
                    "usage: bench_kvstore [--ops N] [--threads CSV] [--depth D] \
                     [--keyspace K] [--value-bytes B] [--rounds R] [--seed S] [--out PATH]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.threads.is_empty() || args.threads.contains(&0) {
        return Err("--threads must list at least one nonzero count".to_owned());
    }
    if args.keyspace == 0 || args.ops == 0 || args.rounds == 0 || args.depth == 0 {
        return Err("--keyspace, --ops, --rounds, and --depth must be nonzero".to_owned());
    }
    Ok(args)
}

/// The pre-rewrite read path, reconstructed faithfully: every lookup
/// reads the clock, takes its shard's exclusive lock, refreshes LRU
/// recency inline through [`Shard::get`] over the era's SipHash key map
/// (`RandomState`), and bumps a hit/miss counter — exactly the per-op
/// cost profile `Cache::get` had before the `RwLock` + batched-recency +
/// batch-API + FNV-map change. Kept here (not in the library) so the
/// library carries only the current implementation.
struct MutexShardedCache {
    shards: Vec<Mutex<Shard<RandomState>>>,
    mask: u64,
    epoch: Instant,
    // Boxed like the pre-PR `CacheStats`, which held `Arc<Counter>`
    // telemetry handles — each bump paid a pointer chase.
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl MutexShardedCache {
    fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.next_power_of_two();
        let per_shard = capacity_bytes / shards;
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::with_hasher(per_shard, RandomState::new())))
                .collect(),
            mask: shards as u64 - 1,
            epoch: Instant::now(),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard<RandomState>> {
        // Same FNV-1a shard selection as `Cache`, so both builds see an
        // identical key-to-shard distribution.
        &self.shards[(fnv1a(key) & self.mask) as usize]
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let now = self.now_ms();
        let result = self.shard_for(key).lock().get(key, now);
        match &result {
            // ordering: relaxed stat counter, aggregated after the run
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            // ordering: relaxed stat counter, aggregated after the run
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn set(&self, key: &[u8], value: Vec<u8>) {
        let now = self.now_ms();
        self.shard_for(key).lock().insert(key, value, None, now);
    }
}

fn key_bytes(id: u64) -> [u8; 8] {
    id.to_le_bytes()
}

/// Pre-computes one deterministic key stream per thread. Streams depend
/// only on (seed, skew, thread index), so every cache build replays
/// byte-identical traffic.
fn key_streams(
    seed: u64,
    skew: &str,
    threads: usize,
    ops_per_thread: u64,
    keyspace: u64,
) -> Vec<Vec<[u8; 8]>> {
    let zipf = Zipf::new(keyspace, ZIPF_S).expect("zipf parameters are valid");
    (0..threads)
        .map(|t| {
            let mut rng = Xoshiro256pp::seed_from_u64(
                seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(skew.as_bytes()),
            );
            (0..ops_per_thread)
                .map(|_| {
                    let id = match skew {
                        "uniform" => rng.gen_range(0, keyspace),
                        _ => zipf.sample(&mut rng),
                    };
                    key_bytes(id)
                })
                .collect()
        })
        .collect()
}

/// Runs every thread's lookup pass and returns elapsed wall-clock
/// seconds from barrier release to last completion. Each pass must stay
/// on the hit path (the working set is fully resident) and reports its
/// hit count for verification.
fn timed_reads<C, F>(cache: &Arc<C>, streams: &[Vec<[u8; 8]>], pass: F) -> f64
where
    C: Send + Sync + 'static,
    F: Fn(&C, &[[u8; 8]]) -> u64 + Send + Sync + 'static,
{
    let pass = Arc::new(pass);
    let barrier = Arc::new(Barrier::new(streams.len()));
    // Stamped by whichever worker the scheduler runs first after the
    // barrier trips. Stamping in the coordinating thread instead would
    // undercount on an oversubscribed host: workers can burn whole
    // timeslices before the coordinator gets scheduled again.
    let started: Arc<std::sync::OnceLock<Instant>> = Arc::new(std::sync::OnceLock::new());
    let handles: Vec<_> = streams
        .iter()
        .map(|stream| {
            let cache = Arc::clone(cache);
            let pass = Arc::clone(&pass);
            let barrier = Arc::clone(&barrier);
            let started = Arc::clone(&started);
            let stream = stream.clone();
            std::thread::spawn(move || {
                barrier.wait();
                started.get_or_init(Instant::now);
                let hits = pass(&cache, &stream);
                assert_eq!(hits, stream.len() as u64, "sweep must stay on the hit path");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("reader thread");
    }
    let elapsed = started.get().map(Instant::elapsed).unwrap_or_default();
    elapsed.as_secs_f64()
}

/// Scalar pass: one `get` per key. Generic over the hit payload so the
/// same driver covers the baseline's owned `Vec<u8>` and the current
/// cache's shared `Arc<[u8]>` — each side pays its own representation's
/// hand-out cost (a copy vs a refcount bump).
fn scalar_pass<C, V>(get: impl Fn(&C, &[u8]) -> Option<V>) -> impl Fn(&C, &[[u8; 8]]) -> u64 {
    move |cache, stream| {
        stream
            .iter()
            .filter(|key| get(cache, &key[..]).is_some())
            .count() as u64
    }
}

/// Burst pass: one `get_many` per `depth` keys, as the pipelined RPC
/// handlers issue it.
fn batched_pass(depth: usize) -> impl Fn(&Cache, &[[u8; 8]]) -> u64 {
    move |cache, stream| {
        let mut hits = 0u64;
        let mut refs: Vec<&[u8]> = Vec::with_capacity(depth);
        for burst in stream.chunks(depth) {
            refs.clear();
            refs.extend(burst.iter().map(|k| &k[..]));
            hits += cache
                .get_many(&refs)
                .iter()
                .filter(|found| found.is_some())
                .count() as u64;
        }
        hits
    }
}

/// One read-path sweep point: populates the cache builds with the full
/// key space, replays the same streams against each, and reports rps.
fn run_read_point(args: &Args, threads: usize, skew: &'static str) -> ReadPoint {
    // Ample capacity: every key stays resident, so the sweep measures
    // lock behaviour rather than eviction.
    let capacity = (args.keyspace as usize) * (args.value_bytes + 128) * 2;
    let ops_per_thread = args.ops / threads as u64;
    let total_ops = ops_per_thread * threads as u64;

    let value = vec![0xA5u8; args.value_bytes];
    let streams = key_streams(args.seed, skew, threads, ops_per_thread, args.keyspace);
    let warmup = key_streams(
        args.seed ^ 0xDEAD,
        skew,
        threads,
        (ops_per_thread / 10).max(64),
        args.keyspace,
    );

    // Interleave the three modes and keep each mode's best repetition.
    // Each repetition rebuilds, repopulates, and rewarms both caches:
    // host frequency drift moves all modes together on a seconds scale,
    // and rebuilding resamples allocator layout (which is otherwise
    // frozen per cache build and can skew one mode an entire run), so
    // round-robin min-of-reps keeps the *ratios* stable even when
    // absolute throughput wobbles between runs.
    let mut mutex_elapsed = f64::INFINITY;
    let mut rw_scalar_elapsed = f64::INFINITY;
    let mut rw_batched_elapsed = f64::INFINITY;
    for _ in 0..READ_REPS {
        let mutex_cache = Arc::new(MutexShardedCache::new(capacity, SHARDS));
        let rw_cache = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(capacity).with_shards(SHARDS),
        ));
        for id in 0..args.keyspace {
            mutex_cache.set(&key_bytes(id), value.clone());
            rw_cache.set(&key_bytes(id), value.clone());
        }
        timed_reads(&mutex_cache, &warmup, scalar_pass(MutexShardedCache::get));
        timed_reads(&rw_cache, &warmup, scalar_pass(|c: &Cache, k| c.get(k)));
        timed_reads(&rw_cache, &warmup, batched_pass(args.depth));

        mutex_elapsed = mutex_elapsed.min(timed_reads(
            &mutex_cache,
            &streams,
            scalar_pass(MutexShardedCache::get),
        ));
        rw_scalar_elapsed = rw_scalar_elapsed.min(timed_reads(
            &rw_cache,
            &streams,
            scalar_pass(|c: &Cache, k| c.get(k)),
        ));
        rw_batched_elapsed =
            rw_batched_elapsed.min(timed_reads(&rw_cache, &streams, batched_pass(args.depth)));
    }

    let baseline_mutex_rps = total_ops as f64 / mutex_elapsed;
    let rwlock_scalar_rps = total_ops as f64 / rw_scalar_elapsed;
    let rwlock_batched_rps = total_ops as f64 / rw_batched_elapsed;
    ReadPoint {
        threads,
        skew,
        burst_depth: args.depth,
        total_ops,
        baseline_mutex_rps,
        rwlock_scalar_rps,
        rwlock_batched_rps,
        speedup: rwlock_batched_rps / baseline_mutex_rps,
        scalar_speedup: rwlock_scalar_rps / baseline_mutex_rps,
    }
}

/// Races `fill_threads` callers at a fresh cold key each round against a
/// sleeping loader and counts loader invocations. With single-flight on,
/// each caller runs `get_or_load` and one leader loads per round; off,
/// each caller rebuilds the classic look-aside herd (`get` miss, load,
/// `set`), so every racing miss loads.
fn run_fill_side(args: &Args, fill_threads: usize, single_flight: bool) -> FillSide {
    let cache = Arc::new(Cache::new(
        CacheConfig::with_capacity_bytes(1 << 20).with_shards(1),
    ));
    let loader_runs = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(fill_threads));
    let rounds = args.rounds;
    let tag = u64::from(single_flight);

    let handles: Vec<_> = (0..fill_threads)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let loader_runs = Arc::clone(&loader_runs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 0..rounds {
                    let key = [key_bytes(round), key_bytes(tag)].concat();
                    barrier.wait();
                    let load = |_: &[u8]| {
                        // ordering: relaxed run counter, read only after all threads join
                        loader_runs.fetch_add(1, Ordering::Relaxed);
                        // Slow enough that every racer arrives while the
                        // fill is still in flight, as a stalled backing
                        // store would hold it.
                        std::thread::sleep(Duration::from_millis(2));
                        Some(round.to_le_bytes().to_vec())
                    };
                    let got = if single_flight {
                        cache.get_or_load(&key, load)
                    } else {
                        cache.get(&key).or_else(|| {
                            let value = load(&key)?;
                            cache.set(&key, value.clone());
                            Some(value.into())
                        })
                    };
                    assert_eq!(got.as_deref(), Some(&round.to_le_bytes()[..]));
                    barrier.wait();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("fill thread");
    }

    // ordering: relaxed counter read after join; threads are done
    let loader_runs = loader_runs.load(Ordering::Relaxed);
    FillSide {
        single_flight,
        rounds,
        loader_runs,
        amplification: loader_runs as f64 / rounds as f64,
        singleflight_fills: cache.stats().singleflight_fills(),
        singleflight_waits: cache.stats().singleflight_waits(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "bench_kvstore: {} ops/point, threads {:?}, depth {}, keyspace {}, seed {}",
        args.ops, args.threads, args.depth, args.keyspace, args.seed
    );

    let mut read_path = Vec::new();
    for &threads in &args.threads {
        for skew in ["uniform", "zipf"] {
            let point = run_read_point(&args, threads, skew);
            eprintln!(
                "  read {:>7} x{:>2} threads: mutex {:>9.0}  rw-scalar {:>9.0}  \
                 rw-batched {:>9.0} rps  {:.2}x",
                point.skew,
                point.threads,
                point.baseline_mutex_rps,
                point.rwlock_scalar_rps,
                point.rwlock_batched_rps,
                point.speedup,
            );
            read_path.push(point);
        }
    }

    let fill_threads = 8;
    let fill_amplification: Vec<FillSide> = [true, false]
        .into_iter()
        .map(|on| {
            let side = run_fill_side(&args, fill_threads, on);
            eprintln!(
                "  fill single_flight={:<5}: {} loader runs / {} rounds = {:.2}x amplification",
                side.single_flight, side.loader_runs, side.rounds, side.amplification,
            );
            side
        })
        .collect();

    let output = BenchOutput {
        benchmark: "kvstore_read_path_and_fill_amplification".to_owned(),
        seed: args.seed,
        key_space: args.keyspace,
        value_bytes: args.value_bytes,
        shards: SHARDS,
        zipf_s: ZIPF_S,
        read_reps: READ_REPS,
        recency_sample_every: dcperf_kvstore::DEFAULT_RECENCY_SAMPLE,
        read_path,
        fill_threads,
        fill_amplification,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&args.out, format!("{json}\n")).expect("write bench output");
    eprintln!("wrote {}", args.out);
}
