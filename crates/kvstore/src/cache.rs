//! The sharded, read-through cache.
//!
//! Two properties distinguish this tier from a textbook locked map:
//!
//! * **Read-scalable hits** — each shard sits behind a
//!   [`parking_lot::RwLock`], so concurrent hits (including hits on the
//!   *same* hot key) take the read lock and proceed in parallel. Hits
//!   are zero-copy: values live in the cache as shared `Arc<[u8]>`
//!   slices, and a hit hands back a reference-counted handle instead of
//!   copying the bytes out under the lock. LRU
//!   recency is not updated inline: hits enqueue a stamped touch token
//!   into a small per-shard buffer, drained under the write lock when the
//!   buffer fills or the next write arrives. Touches are *sampled*: by
//!   default only every 8th hit per shard enqueues one (exactness is a
//!   config knob), and under contention the buffer push is a `try_lock`
//!   — a busy buffer drops the touch rather than ever blocking the hit
//!   path. Expired-entry reclamation tokens are never sampled away.
//! * **Single-flight fills** — concurrent misses on one key are
//!   deduplicated through a per-shard in-flight table: one caller (the
//!   leader) runs the loader, everyone else parks on a condvar and
//!   receives the filled value. A failed (or panicked) loader publishes a
//!   typed `Failed` outcome, so waiters observe the failure *without*
//!   re-running the loader — an injected backing-store stall cannot turn
//!   one miss into N concurrent loads.

use crate::shard::{Peek, Shard, Touch, ENTRY_OVERHEAD};
use crate::stats::CacheStats;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deferred touches buffered per shard before a drain is forced.
/// Recency lag never affects eviction decisions — every write drains the
/// buffer before mutating — so a larger cap only trades memory for fewer
/// write-lock rounds (and gives the drain's duplicate-slot dedup more to
/// collapse under hot-key skew).
const TOUCH_BUFFER_CAP: usize = 64;

thread_local! {
    /// Per-thread scratch for [`Cache::get_many`]: shard tags and the
    /// sampled-touch staging area, reused across calls so the batched
    /// read path's only steady-state allocation is its results vector.
    static GET_MANY_SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<Touch>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The smallest per-shard byte budget worth sharding down to: enough for
/// one typical entry (metadata overhead plus a small key and value).
/// [`Cache::new`] clamps the shard count so no shard falls below this,
/// preventing degenerate configurations where every entry is "oversized"
/// and permanently resident.
pub const MIN_SHARD_CAPACITY: usize = 4 * ENTRY_OVERHEAD;

/// Cache sizing and sharding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total charged capacity across all shards.
    pub capacity_bytes: usize,
    /// Number of independent shards (rounded up to a power of two, then
    /// clamped so each shard holds at least [`MIN_SHARD_CAPACITY`] bytes).
    pub shards: usize,
    /// Default TTL applied by [`Cache::set`] when none is given, in
    /// milliseconds; `None` disables expiry.
    pub default_ttl_ms: Option<u64>,
    /// Recency sampling rate: a hit enqueues an LRU touch only every Nth
    /// time (per shard). `1` makes batched recency exact; the default of
    /// `8` trades a bounded approximation in eviction order for most of
    /// the touch-machinery cost on the hit path — the same trade
    /// production caches make (Memcached suppresses repeat bumps for 60
    /// seconds). Expired entries are exempt: their reclamation tokens are
    /// always enqueued, so TTL accounting never degrades.
    pub recency_sample_every: u32,
}

/// Default [`CacheConfig::recency_sample_every`]: touch every 8th hit.
pub const DEFAULT_RECENCY_SAMPLE: u32 = 8;

impl CacheConfig {
    /// A configuration with the given capacity and a shard count suited to
    /// the host's parallelism.
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            capacity_bytes,
            shards: (parallelism * 4).next_power_of_two(),
            default_ttl_ms: None,
            recency_sample_every: DEFAULT_RECENCY_SAMPLE,
        }
    }

    /// Overrides the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1).next_power_of_two();
        self
    }

    /// Sets the default TTL (builder style).
    pub fn with_default_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.default_ttl_ms = Some(ttl_ms);
        self
    }

    /// Sets the recency sampling rate (builder style); `0` is clamped
    /// to `1` (exact).
    pub fn with_recency_sample_every(mut self, every: u32) -> Self {
        self.recency_sample_every = every.max(1);
        self
    }

    /// Makes LRU recency exact — every hit enqueues a touch (builder
    /// style). Equivalent to `with_recency_sample_every(1)`.
    pub fn with_exact_recency(self) -> Self {
        self.with_recency_sample_every(1)
    }
}

/// Result a leader publishes to parked waiters when its fill completes.
#[derive(Clone)]
enum FillOutcome {
    /// The loader produced a value; every waiter receives a cheap clone
    /// of the same shared slice.
    Filled(Arc<[u8]>),
    /// The loader returned nothing or panicked; waiters observe the
    /// failure without re-running the loader.
    Failed,
}

enum FillState {
    Pending,
    Done(FillOutcome),
}

/// One in-flight fill: waiters park on `done` until the leader publishes.
struct InFlight {
    state: Mutex<FillState>,
    done: Condvar,
}

enum FillRole {
    Leader(Arc<InFlight>),
    Waiter(Arc<InFlight>),
}

/// One shard plus its read-path side tables.
struct CacheShard {
    data: RwLock<Shard>,
    /// Deferred recency touches; drained under the write lock.
    touches: Mutex<Vec<Touch>>,
    /// In-flight fills keyed by the missing key.
    fills: Mutex<HashMap<Box<[u8]>, Arc<InFlight>>>,
    /// Scalar-hit sequence number driving recency sampling.
    hit_seq: AtomicU32,
}

/// Publishes a `Failed` outcome on drop unless the leader completed its
/// fill, so a panicking loader releases its waiters and un-poisons the
/// key instead of wedging every future miss.
struct FillGuard<'a> {
    cache: &'a Cache,
    shard: usize,
    key: &'a [u8],
    flight: Arc<InFlight>,
    published: bool,
}

impl FillGuard<'_> {
    fn publish(&mut self, outcome: FillOutcome) {
        {
            let mut state = self.flight.state.lock();
            *state = FillState::Done(outcome);
        }
        self.flight.done.notify_all();
        self.cache.shards[self.shard].fills.lock().remove(self.key);
        self.published = true;
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(FillOutcome::Failed);
        }
    }
}

/// A concurrent, sharded LRU cache with single-flight read-through fills.
///
/// See the [crate-level documentation](crate) for the architectural
/// rationale and an example.
pub struct Cache {
    shards: Vec<CacheShard>,
    mask: u64,
    stats: CacheStats,
    default_ttl_ms: Option<u64>,
    /// Touch every Nth hit (`1` = exact recency); see
    /// [`CacheConfig::recency_sample_every`].
    recency_sample: u32,
    epoch: Instant,
    /// Test-only skew added to the millisecond clock; lets TTL tests run
    /// deterministically without sleeping.
    clock_skew_ms: AtomicU64,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl Cache {
    /// Creates a cache from `config` with counters in a private registry.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_stats(config, CacheStats::new())
    }

    /// Creates a cache whose counters are registered under
    /// `kvstore.cache.*` in `telemetry`, so a suite-level registry sees
    /// cache traffic alongside every other subsystem.
    pub fn with_telemetry(config: CacheConfig, telemetry: &dcperf_telemetry::Telemetry) -> Self {
        Self::with_stats(
            config,
            CacheStats::with_telemetry(telemetry, dcperf_telemetry::metrics::PREFIX_CACHE),
        )
    }

    fn with_stats(config: CacheConfig, stats: CacheStats) -> Self {
        let mut shard_count = config.shards.max(1).next_power_of_two();
        // Clamp the shard count so every shard can hold at least one
        // typical entry; a 1 KiB cache split 64 ways would otherwise
        // give each shard a budget below the per-entry overhead.
        while shard_count > 1 && config.capacity_bytes / shard_count < MIN_SHARD_CAPACITY {
            shard_count /= 2;
        }
        let per_shard = (config.capacity_bytes / shard_count).max(1);
        Self {
            shards: (0..shard_count)
                .map(|_| CacheShard {
                    data: RwLock::new(Shard::new(per_shard)),
                    touches: Mutex::new(Vec::with_capacity(TOUCH_BUFFER_CAP)),
                    fills: Mutex::new(HashMap::new()),
                    hit_seq: AtomicU32::new(0),
                })
                .collect(),
            mask: (shard_count - 1) as u64,
            stats,
            default_ttl_ms: config.default_ttl_ms,
            recency_sample: config.recency_sample_every.max(1),
            epoch: Instant::now(),
            clock_skew_ms: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        // ordering: test-only skew counter, monotonic, guards nothing
        let skew = self.clock_skew_ms.load(Ordering::Relaxed);
        (self.epoch.elapsed().as_millis() as u64).saturating_add(skew)
    }

    /// Advances the cache's millisecond clock without sleeping — a
    /// deterministic-test hook for TTL behaviour (for example, simulating
    /// a loader that stalls for seconds under fault injection).
    pub fn advance_clock_ms(&self, ms: u64) {
        // ordering: test-only skew counter, monotonic, guards nothing
        self.clock_skew_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Multiply-rotate hash over the key selects the shard — computed
    /// exactly once per operation; every path below carries the index
    /// instead of re-hashing. Starts from a different state than the
    /// shard maps' hasher and folds the high bits into the low ones, so
    /// the masked shard choice stays uncorrelated with bucket choice.
    fn shard_index(&self, key: &[u8]) -> usize {
        let h = crate::shard::key_hash_bytes(0xcbf2_9ce4_8422_2325, key);
        ((h ^ (h >> 32)) & self.mask) as usize
    }

    /// Enqueues a run of deferred recency touches in one buffer lock
    /// round. The push is a `try_lock`: if another thread holds the
    /// buffer the run is dropped (sampled recency) so the hit path never
    /// blocks. A full buffer is drained under the shard write lock by
    /// whichever reader filled it.
    fn push_touches(&self, shard: usize, tokens: &[Touch], now: u64) {
        if tokens.is_empty() {
            return;
        }
        let slot = &self.shards[shard];
        let drained = match slot.touches.try_lock() {
            Some(mut buf) => {
                buf.extend_from_slice(tokens);
                if buf.len() >= TOUCH_BUFFER_CAP {
                    Some(std::mem::replace(
                        &mut *buf,
                        Vec::with_capacity(TOUCH_BUFFER_CAP),
                    ))
                } else {
                    None
                }
            }
            None => None,
        };
        if let Some(batch) = drained {
            let expired = slot.data.write().apply_touches(&batch, now);
            self.stats.record_expirations(expired);
        }
    }

    /// Sampled-recency gate for scalar hits: true for every
    /// `recency_sample`-th hit on `shard`. Expired-entry tokens bypass
    /// this gate — reclamation is never sampled away.
    fn should_touch(&self, shard: usize) -> bool {
        self.recency_sample == 1 || {
            // ordering: relaxed sampling counter; only the rate matters
            let seq = self.shards[shard].hit_seq.fetch_add(1, Ordering::Relaxed);
            seq.is_multiple_of(self.recency_sample)
        }
    }

    /// Read-path lookup on one shard: peek under the read lock, then
    /// enqueue the touch after releasing it. Returns the value on a live
    /// hit; expired entries report `None` (their removal is deferred to
    /// the next drain).
    fn peek_shard(&self, shard: usize, key: &[u8], now: u64) -> Option<Arc<[u8]>> {
        let peeked = self.shards[shard].data.read().peek(key, now);
        match peeked {
            Peek::Hit { value, token } => {
                if self.should_touch(shard) {
                    self.push_touches(shard, &[token], now);
                }
                Some(value)
            }
            Peek::Expired { token } => {
                self.push_touches(shard, &[token], now);
                None
            }
            Peek::Miss => None,
        }
    }

    /// Inserts under the shard write lock, draining pending touches first
    /// so recency order is preserved relative to the hits that preceded
    /// this write.
    fn insert_at(
        &self,
        shard: usize,
        key: &[u8],
        value: impl Into<Arc<[u8]>>,
        ttl_ms: Option<u64>,
        now: u64,
    ) {
        let slot = &self.shards[shard];
        let mut guard = slot.data.write();
        let batch = std::mem::take(&mut *slot.touches.lock());
        let expired = if batch.is_empty() {
            0
        } else {
            guard.apply_touches(&batch, now)
        };
        let evicted = guard.insert(key, value, ttl_ms, now);
        drop(guard);
        self.stats.record_expirations(expired);
        self.stats.record_insertion(evicted);
    }

    /// Looks up `key` without filling on a miss. A hit returns a shared
    /// handle to the cached bytes (zero-copy); call `to_vec()` if an
    /// owned buffer is needed.
    pub fn get(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        let result = self.peek_shard(shard, key, now);
        match &result {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        result
    }

    /// Checks presence without cloning, touching recency, or recording
    /// hit/miss statistics — the classifier's peek.
    pub fn contains(&self, key: &[u8]) -> bool {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        self.shards[shard].data.read().contains(key, now)
    }

    /// The read-through lookup: on a miss, `loader` fetches the value
    /// from the backing system *outside* any shard lock and the result is
    /// inserted before being returned.
    ///
    /// Concurrent misses on the same key are collapsed onto a single
    /// loader run (single-flight): one caller loads, the others park and
    /// receive the filled value — or observe the load's failure without
    /// retrying it. The entry's TTL is measured from insert time, not
    /// lookup time, so a slow loader does not shorten the entry's life.
    pub fn get_or_load<F>(&self, key: &[u8], loader: F) -> Option<Arc<[u8]>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        if let Some(hit) = self.peek_shard(shard, key, now) {
            self.stats.record_hit();
            return Some(hit);
        }
        self.stats.record_miss();
        self.load_path(shard, key, loader)
    }

    /// The miss path shared by [`Cache::get_or_load`] and
    /// [`Cache::get_or_load_many`]; the caller has already recorded the
    /// miss.
    fn load_path<F>(&self, shard: usize, key: &[u8], loader: F) -> Option<Arc<[u8]>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        match self.join_or_lead(shard, key) {
            FillRole::Waiter(flight) => {
                self.stats.record_singleflight_wait();
                match Self::await_fill(&flight) {
                    FillOutcome::Filled(value) => Some(value),
                    FillOutcome::Failed => {
                        self.stats.record_singleflight_failed_wait();
                        None
                    }
                }
            }
            FillRole::Leader(flight) => {
                let mut fill_guard = FillGuard {
                    cache: self,
                    shard,
                    key,
                    flight,
                    published: false,
                };
                // Double-check after winning leadership: the previous
                // fill may have landed between our miss and registering,
                // in which case serving it avoids a redundant load.
                if let Some(existing) = self.peek_shard(shard, key, self.now_ms()) {
                    fill_guard.publish(FillOutcome::Filled(Arc::clone(&existing)));
                    return Some(existing);
                }
                self.stats.record_singleflight_fill();
                // A loader panic unwinds through the guard, which
                // publishes `Failed` and clears the in-flight entry.
                match loader(key) {
                    Some(value) => {
                        // One conversion to a shared slice; the shard,
                        // every waiter, and the caller then alias the
                        // same bytes.
                        let value: Arc<[u8]> = value.into();
                        // Re-sample the clock: the loader may have taken
                        // arbitrarily long, and the TTL belongs to the
                        // insert, not to the lookup that triggered it.
                        let insert_now = self.now_ms();
                        self.insert_at(
                            shard,
                            key,
                            Arc::clone(&value),
                            self.default_ttl_ms,
                            insert_now,
                        );
                        fill_guard.publish(FillOutcome::Filled(Arc::clone(&value)));
                        Some(value)
                    }
                    None => {
                        self.stats.record_load_failure();
                        fill_guard.publish(FillOutcome::Failed);
                        None
                    }
                }
            }
        }
    }

    /// Joins an in-flight fill for `key`, or registers this caller as the
    /// leader.
    fn join_or_lead(&self, shard: usize, key: &[u8]) -> FillRole {
        let mut fills = self.shards[shard].fills.lock();
        match fills.get(key) {
            Some(flight) => FillRole::Waiter(Arc::clone(flight)),
            None => {
                let flight = Arc::new(InFlight {
                    state: Mutex::new(FillState::Pending),
                    done: Condvar::new(),
                });
                fills.insert(key.into(), Arc::clone(&flight));
                FillRole::Leader(flight)
            }
        }
    }

    /// Parks until the leader publishes an outcome.
    fn await_fill(flight: &InFlight) -> FillOutcome {
        let mut state = flight.state.lock();
        loop {
            if let FillState::Done(outcome) = &*state {
                return outcome.clone();
            }
            flight.done.wait(&mut state);
        }
    }

    /// Batched lookup: keys are grouped by shard and each shard is read
    /// exactly once, so a pipelined burst pays one lock round per shard
    /// instead of one per key. Results are returned in input order.
    ///
    /// Grouping is a mark-and-scan over the key list — `O(n · distinct
    /// shards in the batch)` with no sort and no order allocation, which
    /// beats a comparison sort for the burst sizes the pipelined RPC
    /// path produces (tens of keys over a handful of shards).
    pub fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Arc<[u8]>>> {
        // Steady-state batched reads allocate only their results vector:
        // the shard tags and the sampled-token staging area live in a
        // thread-local scratch. The fallback arm only runs if a caller
        // re-enters `get_many` on the same thread, which the cache itself
        // never does (no user code runs inside this call).
        GET_MANY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                let (shard_of, tokens) = &mut *scratch;
                self.get_many_with(keys, shard_of, tokens)
            }
            Err(_) => self.get_many_with(keys, &mut Vec::new(), &mut Vec::new()),
        })
    }

    /// [`Cache::get_many`] with caller-provided scratch buffers.
    fn get_many_with(
        &self,
        keys: &[&[u8]],
        shard_of: &mut Vec<u32>,
        tokens: &mut Vec<Touch>,
    ) -> Vec<Option<Arc<[u8]>>> {
        let now = self.now_ms();
        let n = keys.len();
        let mut results: Vec<Option<Arc<[u8]>>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut hits = 0u64;
        let sample = u64::from(self.recency_sample);
        // Per-key shard tags; `u32::MAX` marks a key already served.
        shard_of.clear();
        shard_of.extend(keys.iter().map(|k| self.shard_index(k) as u32));
        let mut cursor = 0;
        while cursor < n {
            let shard = shard_of[cursor];
            if shard == u32::MAX {
                cursor += 1;
                continue;
            }
            tokens.clear();
            {
                let guard = self.shards[shard as usize].data.read();
                for i in cursor..n {
                    if shard_of[i] != shard {
                        continue;
                    }
                    shard_of[i] = u32::MAX;
                    match guard.peek(keys[i], now) {
                        Peek::Hit { value, token } => {
                            results[i] = Some(value);
                            hits += 1;
                            // Sampled recency on a call-local counter:
                            // every Nth hit in the batch enqueues its
                            // touch; the rest skip the buffer entirely.
                            if hits % sample == 1 || sample == 1 {
                                tokens.push(token);
                            }
                        }
                        Peek::Expired { token } => tokens.push(token),
                        Peek::Miss => {}
                    }
                }
            }
            // One buffer lock round covers the whole shard run.
            self.push_touches(shard as usize, tokens, now);
        }
        self.stats.record_hits(hits);
        self.stats.record_misses(n as u64 - hits);
        results
    }

    /// Batched read-through: one shard-grouped read pass over `keys`
    /// ([`Cache::get_many`]), then each remaining miss is loaded through
    /// the single-flight fill path. `loader` is `Fn` because a batch may
    /// carry several misses.
    pub fn get_or_load_many<F>(&self, keys: &[&[u8]], loader: F) -> Vec<Option<Arc<[u8]>>>
    where
        F: Fn(&[u8]) -> Option<Vec<u8>>,
    {
        let mut results = self.get_many(keys);
        for (pos, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                let key = keys[pos];
                let shard = self.shard_index(key);
                // Re-peek first: a duplicate key earlier in this batch
                // (or a concurrent fill) may have landed it already.
                *slot = self
                    .peek_shard(shard, key, self.now_ms())
                    .or_else(|| self.load_path(shard, key, &loader));
            }
        }
        results
    }

    /// Inserts `key` with the default TTL.
    pub fn set(&self, key: &[u8], value: Vec<u8>) {
        self.set_with_ttl(key, value, self.default_ttl_ms);
    }

    /// Inserts `key` with an explicit TTL (`None` = no expiry).
    pub fn set_with_ttl(&self, key: &[u8], value: Vec<u8>, ttl_ms: Option<u64>) {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        self.insert_at(shard, key, value, ttl_ms, now);
    }

    /// Batched insert with the default TTL: items are grouped by shard
    /// and each shard takes its write lock exactly once. Within a shard,
    /// insertion order follows input order (a later duplicate wins).
    pub fn set_many(&self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        let now = self.now_ms();
        let mut tagged: Vec<(usize, Vec<u8>, Vec<u8>)> = items
            .into_iter()
            .map(|(key, value)| (self.shard_index(&key), key, value))
            .collect();
        tagged.sort_by_key(|(shard, _, _)| *shard);
        let mut start = 0;
        while start < tagged.len() {
            let shard = tagged[start].0;
            let mut end = start;
            while end < tagged.len() && tagged[end].0 == shard {
                end += 1;
            }
            let slot = &self.shards[shard];
            let mut guard = slot.data.write();
            let batch = std::mem::take(&mut *slot.touches.lock());
            let expired = if batch.is_empty() {
                0
            } else {
                guard.apply_touches(&batch, now)
            };
            self.stats.record_expirations(expired);
            for (_, key, value) in tagged[start..end].iter_mut() {
                let evicted = guard.insert(key, std::mem::take(value), self.default_ttl_ms, now);
                self.stats.record_insertion(evicted);
            }
            drop(guard);
            start = end;
        }
    }

    /// Removes `key`, returning whether it was present.
    pub fn delete(&self, key: &[u8]) -> bool {
        let shard = self.shard_index(key);
        self.shards[shard].data.write().remove(key)
    }

    /// Total live entries across shards (entries past their TTL but not
    /// yet drained are still counted; they are reported absent by reads).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.data.read().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total charged bytes across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.data.read().used_bytes()).sum()
    }

    /// Shared counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(4))
    }

    #[test]
    fn get_set_delete() {
        let c = small_cache();
        assert!(c.get(b"k").is_none());
        c.set(b"k", vec![9]);
        assert_eq!(c.get(b"k").as_deref(), Some(&[9u8][..]));
        assert!(c.delete(b"k"));
        assert!(c.get(b"k").is_none());
    }

    #[test]
    fn read_through_fills_once() {
        let c = small_cache();
        let loads = AtomicU64::new(0);
        for _ in 0..10 {
            let v = c.get_or_load(b"key", |_| {
                loads.fetch_add(1, Ordering::Relaxed);
                Some(vec![1, 2, 3])
            });
            assert_eq!(v.as_deref(), Some(&[1u8, 2, 3][..]));
        }
        assert_eq!(loads.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats().hits(), 9);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().singleflight_fills(), 1);
        assert_eq!(c.stats().singleflight_waits(), 0);
    }

    #[test]
    fn loader_failure_counts() {
        let c = small_cache();
        assert!(c.get_or_load(b"gone", |_| None).is_none());
        assert_eq!(c.stats().load_failures(), 1);
        // A later successful load still works.
        assert!(c.get_or_load(b"gone", |_| Some(vec![1])).is_some());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(5));
        assert_eq!(c.shard_count(), 8);
    }

    #[test]
    fn tiny_capacity_clamps_shard_count() {
        // 1 KiB split 64 ways would leave 16 bytes per shard — below the
        // per-entry overhead, where every entry is "oversized" and
        // permanently resident. The clamp shards down until each shard
        // holds at least one typical entry.
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 10).with_shards(64));
        assert_eq!(c.shard_count(), (1 << 10) / MIN_SHARD_CAPACITY);
        // Eviction now works: entries are charged against a real budget.
        for i in 0..100u32 {
            c.set(&i.to_le_bytes(), vec![0; 64]);
        }
        assert!(c.stats().evictions() > 0, "tiny cache must evict");
        assert!(
            c.used_bytes() <= (1 << 10) + c.shard_count() * 200,
            "used {} for a 1 KiB cache",
            c.used_bytes()
        );
        // A single-shard floor always remains.
        let tiny = Cache::new(CacheConfig::with_capacity_bytes(1).with_shards(8));
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn ttl_measured_from_insert_not_lookup() {
        // Regression: `now` used to be sampled before the loader ran, so
        // a slow loader silently shortened the entry's effective TTL by
        // its own duration. The clock here is advanced deterministically
        // inside the loader to simulate a multi-second stall.
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(10_000),
        );
        let v = c.get_or_load(b"slow", |_| {
            // The loader stalls for a simulated minute — far past the TTL.
            c.advance_clock_ms(60_000);
            Some(vec![7])
        });
        assert_eq!(v.as_deref(), Some(&[7u8][..]));
        // With the bug, expires_at = t0 + 10s < t0 + 60s: already expired.
        let live = c.get(b"slow");
        assert_eq!(
            live.as_deref(),
            Some(&[7u8][..]),
            "TTL must start at insert"
        );
        c.advance_clock_ms(9_000);
        let live = c.get(b"slow");
        assert_eq!(live.as_deref(), Some(&[7u8][..]), "9s into a 10s TTL");
        c.advance_clock_ms(2_000);
        assert!(c.get(b"slow").is_none(), "11s into a 10s TTL");
        // Physical removal is deferred until a drain; force one.
        c.set(b"other", vec![0]);
        assert_eq!(c.stats().expirations(), 1);
    }

    #[test]
    fn default_ttl_applies() {
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(1),
        );
        c.set(b"k", vec![1]);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(c.get(b"k").is_none(), "entry should have expired");
    }

    #[test]
    fn expirations_surface_in_stats() {
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(50),
        );
        for i in 0..10u8 {
            c.set(&[i], vec![i]);
        }
        c.advance_clock_ms(100);
        for i in 0..10u8 {
            assert!(c.get(&[i]).is_none(), "entry {i} must be expired");
        }
        // Expired entries are physically removed at the next drain; force
        // one with a write and check the counter caught every removal.
        c.set(b"fresh", vec![1]);
        assert_eq!(c.stats().expirations(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_many_matches_scalar_gets() {
        let c = small_cache();
        for i in 0..32u8 {
            if i % 3 != 0 {
                c.set(&[i], vec![i; 4]);
            }
        }
        let keys: Vec<[u8; 1]> = (0..32u8).map(|i| [i]).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let batched = c.get_many(&key_refs);
        for (i, got) in batched.iter().enumerate() {
            let expected = if i % 3 != 0 {
                Some(vec![i as u8; 4])
            } else {
                None
            };
            assert_eq!(got.as_deref(), expected.as_deref(), "key {i}");
        }
        // Hit/miss accounting matches the scalar path's.
        assert_eq!(c.stats().hits(), 32 - 11);
        assert_eq!(c.stats().misses(), 11);
    }

    #[test]
    fn set_many_inserts_all_and_later_duplicate_wins() {
        let c = small_cache();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..16u8)
            .map(|i| (vec![i], vec![i; 3]))
            .chain(std::iter::once((vec![5u8], vec![99u8])))
            .collect();
        c.set_many(items);
        for i in 0..16u8 {
            let expected = if i == 5 { vec![99u8] } else { vec![i; 3] };
            assert_eq!(c.get(&[i]).as_deref(), Some(&expected[..]), "key {i}");
        }
        assert_eq!(c.stats().insertions(), 17);
    }

    #[test]
    fn get_or_load_many_loads_only_misses() {
        let c = small_cache();
        c.set(b"a", vec![1]);
        c.set(b"c", vec![3]);
        let loads = AtomicU64::new(0);
        let keys: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"b"];
        let got = c.get_or_load_many(&keys, |key| {
            loads.fetch_add(1, Ordering::Relaxed);
            Some(vec![key[0]])
        });
        assert_eq!(got[0].as_deref(), Some(&[1u8][..]));
        assert_eq!(got[1].as_deref(), Some(&[b'b'][..]));
        assert_eq!(got[2].as_deref(), Some(&[3u8][..]));
        assert_eq!(got[3].as_deref(), Some(&[b'd'][..]));
        assert_eq!(got[4].as_deref(), Some(&[b'b'][..]));
        // The duplicate "b" is served by the first fill's re-peek.
        assert_eq!(loads.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let c = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(1 << 22).with_shards(8),
        ));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let key = ((t * 1000 + i) % 500).to_le_bytes();
                    match i % 3 {
                        0 => c.set(&key, key.to_vec()),
                        1 => {
                            if let Some(v) = c.get(&key) {
                                assert_eq!(&v[..], key, "value corruption");
                            }
                        }
                        _ => {
                            let v = c.get_or_load(&key, |k| Some(k.to_vec()));
                            assert_eq!(v.as_deref(), Some(&key[..]));
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 500);
    }

    #[test]
    fn eviction_under_pressure() {
        let c = Cache::new(CacheConfig::with_capacity_bytes(16 << 10).with_shards(2));
        for i in 0..1000u32 {
            c.set(&i.to_le_bytes(), vec![0; 64]);
        }
        assert!(c.stats().evictions() > 0);
        assert!(c.used_bytes() <= (16 << 10) + 2 * 200);
    }

    #[test]
    fn hit_rate_reflects_working_set_vs_capacity() {
        // Working set fits: hit rate should approach 1 after warmup.
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(2));
        for round in 0..10 {
            for i in 0..100u32 {
                let _ = c.get_or_load(&i.to_le_bytes(), |_| Some(vec![0; 32]));
            }
            if round == 0 {
                // After the first pass every lookup was a miss.
                assert_eq!(c.stats().misses(), 100);
            }
        }
        assert!(c.stats().hit_rate() > 0.85, "rate={}", c.stats().hit_rate());
    }

    #[test]
    fn contains_does_not_count_or_touch() {
        let c = small_cache();
        c.set(b"k", vec![1]);
        assert!(c.contains(b"k"));
        assert!(!c.contains(b"absent"));
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 0);
    }
}
