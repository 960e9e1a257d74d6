//! The only module that calls the program's API (`dcperf-rpc`,
//! `dcperf-kvstore`, `dcperf-tax`). A rename there touches this file
//! alone. Every call into a layer is wrapped in a trace span here, so the
//! traced run times each layer from outside without instrumenting it.
//!
//! Every request body starts with a 16-byte envelope: the request id and
//! the id of the caller's span, both little-endian `u64`. Servers strip it
//! before the service handler sees the payload. It is sent in untraced
//! runs too, so both runs do the same work.

use crate::feed::Story;
use crate::trace;
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_rpc::{
    InProcClient, InProcServer, Lane, PipelineConfig, PoolConfig, Request, Response, TcpClient,
    TcpServer, Value,
};
use dcperf_tax::{compress, crypto, hash};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A service reply: the response payload or an error message.
pub type Reply = Result<Vec<u8>, String>;

const ENVELOPE: usize = 16;
const METHOD: &str = "serve";

fn envelope(req: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(ENVELOPE + payload.len());
    body.extend_from_slice(&req.to_le_bytes());
    body.extend_from_slice(&parent.to_le_bytes());
    body.extend_from_slice(payload);
    body
}

fn open_envelope(body: &[u8]) -> Option<(u64, u64, &[u8])> {
    if body.len() < ENVELOPE {
        return None;
    }
    let req = u64::from_le_bytes(body[..8].try_into().ok()?);
    let parent = u64::from_le_bytes(body[8..16].try_into().ok()?);
    Some((req, parent, &body[ENVELOPE..]))
}

fn to_response(reply: Reply) -> Response {
    match reply {
        Ok(body) => Response::ok(body),
        Err(msg) => Response::error(&msg),
    }
}

/// Server-side counters read at phase boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    /// Requests the classifier sent to the fast lane.
    pub fast: u64,
    pub slow: u64,
    pub shed: u64,
    pub flushes: u64,
    pub flushed_responses: u64,
    pub inflight_peak: u64,
}

impl ServerCounters {
    /// Counts since `earlier`; the in-flight peak stays the lifetime peak.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            fast: self.fast - earlier.fast,
            slow: self.slow - earlier.slow,
            shed: self.shed - earlier.shed,
            flushes: self.flushes - earlier.flushes,
            flushed_responses: self.flushed_responses - earlier.flushed_responses,
            inflight_peak: self.inflight_peak,
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            fast: self.fast + other.fast,
            slow: self.slow + other.slow,
            shed: self.shed + other.shed,
            flushes: self.flushes + other.flushes,
            flushed_responses: self.flushed_responses + other.flushed_responses,
            inflight_peak: self.inflight_peak.max(other.inflight_peak),
        }
    }
}

/// A service served over `TcpServer` on loopback.
pub struct Server {
    inner: TcpServer,
    fast: Arc<AtomicU64>,
    slow: Arc<AtomicU64>,
}

impl Server {
    /// Serves `handler` on an ephemeral loopback port. `classify` routes a
    /// payload to the fast lane (`true`) or the slow lane; with no slow
    /// threads every request runs on the fast lane.
    pub fn start<H, C>(
        handler: H,
        classify: C,
        fast_threads: usize,
        slow_threads: usize,
    ) -> std::io::Result<Self>
    where
        H: Fn(u64, &[u8]) -> Reply + Send + Sync + 'static,
        C: Fn(&[u8]) -> bool + Send + Sync + 'static,
    {
        let fast = Arc::new(AtomicU64::new(0));
        let slow = Arc::new(AtomicU64::new(0));
        let (fast_count, slow_count) = (Arc::clone(&fast), Arc::clone(&slow));
        let pool = if slow_threads == 0 {
            PoolConfig::single_lane(fast_threads)
        } else {
            PoolConfig::fast_slow(fast_threads, slow_threads)
        };
        let inner = TcpServer::bind_full(
            "127.0.0.1:0",
            move |req: &Request| {
                let Some((id, parent, payload)) = open_envelope(&req.body) else {
                    return Response::error("request without envelope");
                };
                let _scope = trace::enter(id, parent);
                to_response(trace::span("server.handler", payload.len(), || {
                    handler(id, payload)
                }))
            },
            move |req: &Request| {
                let Some((id, parent, payload)) = open_envelope(&req.body) else {
                    return Lane::Slow;
                };
                let _scope = trace::enter(id, parent);
                if trace::span("rpc.classify", payload.len(), || classify(payload)) {
                    fast_count.fetch_add(1, Ordering::Relaxed);
                    Lane::Fast
                } else {
                    slow_count.fetch_add(1, Ordering::Relaxed);
                    Lane::Slow
                }
            },
            pool,
            PipelineConfig::default(),
        )?;
        Ok(Self { inner, fast, slow })
    }

    pub fn addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    pub fn counters(&self) -> ServerCounters {
        let pipeline = self.inner.pipeline();
        ServerCounters {
            fast: self.fast.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
            shed: self.inner.stats().shed(),
            flushes: pipeline.flushes(),
            flushed_responses: pipeline.batched_responses(),
            inflight_peak: u64::try_from(pipeline.inflight_peak()).unwrap_or(0),
        }
    }

    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// One client connection with a fixed pipelined window.
pub struct Conn(TcpClient);

impl Conn {
    pub fn connect(addr: SocketAddr, window: usize) -> std::io::Result<Self> {
        Ok(Self(TcpClient::connect(addr)?.with_window(window)))
    }

    /// Sends `(request id, payload)` pairs down the connection, keeping
    /// up to the window in flight, and returns the replies in order. A
    /// sampled request gets a client span covering the whole call.
    pub fn call_many(&mut self, reqs: &[(u64, &[u8])]) -> Vec<Reply> {
        let mut traced = Vec::new();
        let bodies = reqs
            .iter()
            .map(|&(req, payload)| {
                let parent = if trace::sampled(req) {
                    let id = trace::new_id();
                    traced.push((req, id));
                    id
                } else {
                    0
                };
                envelope(req, parent, payload)
            })
            .collect();
        let start = trace::now_ns();
        let results = self.0.call_many(METHOD, bodies);
        let end = trace::now_ns();
        for (req, id) in traced {
            trace::record(req, id, 0, "rpc.client.call", start, end);
        }
        results
            .into_iter()
            .map(|r| r.map(|resp| resp.body).map_err(|e| e.to_string()))
            .collect()
    }
}

/// In-process leaf shards behind one `InProcServer`, reached by
/// `InProcClient::fanout`.
pub struct Leaves {
    /// Owns the leaf workers; they stop when it drops.
    _server: InProcServer,
    client: InProcClient,
}

impl Leaves {
    pub fn start<H>(handler: H, threads: usize) -> Self
    where
        H: Fn(&[u8]) -> Reply + Send + Sync + 'static,
    {
        let server = InProcServer::start(
            move |req: &Request| {
                let Some((id, parent, payload)) = open_envelope(&req.body) else {
                    return Response::error("request without envelope");
                };
                let _scope = trace::enter(id, parent);
                to_response(trace::span("rpc.leaf.handler", payload.len(), || {
                    handler(payload)
                }))
            },
            PoolConfig::single_lane(threads),
        );
        let client = server.client();
        Self {
            _server: server,
            client,
        }
    }

    /// Calls every leaf in parallel on behalf of request `req`.
    pub fn fanout(&self, req: u64, payloads: &[Vec<u8>]) -> Vec<Reply> {
        trace::span("rpc.fanout", 0, || {
            let parent = trace::current().map_or(0, |(_, span)| span);
            let calls = payloads
                .iter()
                .map(|p| (METHOD.to_owned(), envelope(req, parent, p)))
                .collect();
            self.client
                .fanout(calls)
                .responses
                .into_iter()
                .map(|r| r.map(|resp| resp.body).map_err(|e| e.to_string()))
                .collect()
        })
    }
}

/// Cache counters read at phase boundaries. `gets` and `fills` are
/// counted here, in the benchmark's own loader closure.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvCounters {
    pub gets: u64,
    pub fills: u64,
    pub misses: u64,
    pub evictions: u64,
    pub expirations: u64,
}

/// The bytes the backing store of [`Kv::new`] holds for each key.
pub fn stored_values<K: AsRef<[u8]>>(keys: &[K], dataset_seed: u64) -> Vec<Vec<u8>> {
    let store = BackingStore::new(BackingStoreConfig::tao_like(), dataset_seed);
    keys.iter()
        .map(|k| store.synthesize_for_key(k.as_ref()))
        .collect()
}

impl KvCounters {
    pub fn since(self, earlier: Self) -> Self {
        Self {
            gets: self.gets - earlier.gets,
            fills: self.fills - earlier.fills,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            expirations: self.expirations - earlier.expirations,
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            gets: self.gets + other.gets,
            fills: self.fills + other.fills,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            expirations: self.expirations + other.expirations,
        }
    }
}

/// The read-through cache in front of the simulated backing store.
pub struct Kv {
    cache: Cache,
    store: BackingStore,
    gets: AtomicU64,
    fills: AtomicU64,
}

impl Kv {
    pub fn new(capacity_bytes: usize, lookup_latency: Duration, dataset_seed: u64) -> Self {
        let config = BackingStoreConfig {
            lookup_latency,
            ..BackingStoreConfig::tao_like()
        };
        Self {
            cache: Cache::new(CacheConfig::with_capacity_bytes(capacity_bytes)),
            store: BackingStore::new(config, dataset_seed),
            gets: AtomicU64::new(0),
            fills: AtomicU64::new(0),
        }
    }

    /// Read-through GET; a miss loads from the backing store.
    pub fn get(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        trace::span("kvstore.get", key.len(), || {
            self.cache.get_or_load(key, |k| {
                self.fills.fetch_add(1, Ordering::Relaxed);
                trace::span("kvstore.backing.lookup", k.len(), || self.store.lookup(k))
            })
        })
    }

    pub fn set(&self, key: &[u8], value: Vec<u8>) {
        trace::span("kvstore.set", value.len(), || self.cache.set(key, value));
    }

    pub fn contains(&self, key: &[u8]) -> bool {
        self.cache.contains(key)
    }

    pub fn counters(&self) -> KvCounters {
        let stats = self.cache.stats();
        KvCounters {
            gets: self.gets.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            misses: stats.misses(),
            evictions: stats.evictions(),
            expirations: stats.expirations(),
        }
    }
}

fn story_value(story: &Story) -> Value {
    Value::Struct(vec![
        (1, Value::I64(i64::from(story.id))),
        (2, Value::I64(story.author as i64)),
        (3, Value::Str(story.text.clone())),
        (4, Value::Bin(story.block.clone())),
    ])
}

fn story_from(value: Value) -> Option<Story> {
    let Value::Struct(fields) = value else {
        return None;
    };
    let (mut id, mut author, mut text, mut block) = (None, None, None, None);
    for field in fields {
        match field {
            (1, Value::I64(v)) => id = u32::try_from(v).ok(),
            (2, Value::I64(v)) => author = u64::try_from(v).ok(),
            (3, Value::Str(v)) => text = Some(v),
            (4, Value::Bin(v)) => block = Some(v),
            _ => return None,
        }
    }
    Some(Story {
        id: id?,
        author: author?,
        text: text?,
        block: block?,
    })
}

/// Serializes stories as one list value.
pub fn encode_stories(stories: &[&Story]) -> Vec<u8> {
    trace::span_out("rpc.value.encode", 0, || {
        Value::List(stories.iter().map(|s| story_value(s)).collect()).encode()
    })
}

/// Parses a list written by [`encode_stories`].
pub fn decode_stories(buf: &[u8]) -> Result<Vec<Story>, String> {
    let value = trace::span("rpc.value.decode", buf.len(), || Value::decode(buf))
        .map_err(|e| e.to_string())?;
    let Value::List(items) = value else {
        return Err("story list is not a list".into());
    };
    items
        .into_iter()
        .map(|v| story_from(v).ok_or_else(|| "malformed story".to_owned()))
        .collect()
}

/// Serializes a ranked feed: `(score, story)` pairs in rank order.
pub fn encode_feed(ranked: &[(f64, &Story)]) -> Vec<u8> {
    trace::span_out("rpc.value.encode", 0, || {
        Value::List(
            ranked
                .iter()
                .map(|(score, story)| {
                    Value::Struct(vec![(1, Value::F64(*score)), (2, story_value(story))])
                })
                .collect(),
        )
        .encode()
    })
}

/// Parses a feed written by [`encode_feed`].
pub fn decode_feed(buf: &[u8]) -> Result<Vec<(f64, Story)>, String> {
    let Value::List(items) = Value::decode(buf).map_err(|e| e.to_string())? else {
        return Err("feed is not a list".into());
    };
    items
        .into_iter()
        .map(|item| {
            let Value::Struct(mut fields) = item else {
                return Err("feed item is not a struct".to_owned());
            };
            match (fields.pop(), fields.pop(), fields.is_empty()) {
                (Some((2, story)), Some((1, Value::F64(score))), true) => story_from(story)
                    .map(|s| (score, s))
                    .ok_or_else(|| "malformed story in feed".to_owned()),
                _ => Err("malformed feed item".to_owned()),
            }
        })
        .collect()
}

/// Hashes every token with `dcx64`.
pub fn hash_tokens(tokens: &[&[u8]], seed: u64) -> Vec<u64> {
    let bytes = tokens.iter().map(|t| t.len()).sum();
    trace::span("tax.dcx64", bytes, || {
        tokens.iter().map(|t| hash::dcx64(t, seed)).collect()
    })
}

pub fn lz_compress(data: &[u8]) -> Vec<u8> {
    trace::span_out("tax.lz_compress", data.len(), || {
        compress::lz_compress(data)
    })
}

pub fn lz_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    compress::lz_decompress(data).map_err(|e| e.to_string())
}

fn nonce(n: u64) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[4..].copy_from_slice(&n.to_le_bytes());
    out
}

/// Encrypts or decrypts `data` in place under `key` and nonce `n`.
pub fn chacha20(key: &[u8; 32], n: u64, data: &mut [u8]) {
    let len = data.len();
    trace::span("tax.chacha20", len, || {
        crypto::ChaCha20::new(key, &nonce(n), 1).apply(data)
    });
}

pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    trace::span("tax.hmac_sha256", msg.len(), || {
        crypto::hmac_sha256(key, msg)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Known-answer checks of the tax primitives the feed response relies
/// on, so a cipher or MAC that stays self-consistent but stops matching
/// its standard is caught: RFC 8439 §2.4.2 and RFC 4231 test case 2.
pub fn self_test() -> Result<(), String> {
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
    crypto::ChaCha20::new(&key, &nonce, 1).apply(&mut data);
    if hex(&data[..16]) != "6e2e359a2568f98041ba0728dd0d6981" {
        return Err("ChaCha20 does not match RFC 8439".into());
    }
    let mac = crypto::hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    if hex(&mac) != "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" {
        return Err("HMAC-SHA-256 does not match RFC 4231".into());
    }
    Ok(())
}
