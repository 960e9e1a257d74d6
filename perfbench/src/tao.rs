//! The TaoBench-shaped workloads: a read-through cache served over TCP,
//! with TAO's fast/slow lane split (cache hits on fast threads, misses and
//! writes on slow threads).
//!
//! Protocol: a payload is an op byte (`G` or `S`), a 16-byte key, and for
//! `S` the value. A GET replies with the value; a SET with nothing.

use crate::adapter::{self, Conn, Kv, Reply, Server};
use crate::gen::{permutation, Rng, Zipf};
use crate::load::{request_id, Checks, Workload, PHASE_SETUP};
use std::sync::Arc;
use std::time::Duration;

/// Seeds the key→value dataset. The dataset is fixed so that figures from
/// different traffic seeds compare; `--seed` drives the traffic.
pub const DATASET_SEED: u64 = 0x7A0_DA7A;
const KEY_LEN: usize = 16;
/// Requests each connection keeps in flight, as memtier's pipeline does.
pub const WINDOW: usize = 16;
const ZIPF_S: f64 = 0.99;
const FAST_THREADS: usize = 2;
const SLOW_THREADS: usize = 2;

/// One TAO-shaped traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub keys: usize,
    pub get_fraction: f64,
    /// Cache capacity as a multiple of the bytes of every key and value.
    pub cache_factor: f64,
    pub lookup_latency: Duration,
    /// The fixed open-loop rate, requests per second.
    pub rate: f64,
}

/// GET only; the cache holds twice the working set, so every GET hits.
pub const HIT: Params = Params {
    keys: 50_000,
    get_fraction: 1.0,
    cache_factor: 2.0,
    lookup_latency: Duration::from_micros(20),
    rate: 30_000.0,
};

/// 80% GET / 20% SET over a key space three times the cache.
pub const CHURN: Params = Params {
    keys: 100_000,
    get_fraction: 0.8,
    cache_factor: 0.35,
    lookup_latency: Duration::from_micros(20),
    rate: 15_000.0,
};

/// The key of item `id`.
pub fn key(id: u32) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k.copy_from_slice(format!("tao:{id:012}").as_bytes());
    k
}

fn key_id(key: &[u8]) -> Option<usize> {
    std::str::from_utf8(key.get(4..KEY_LEN)?).ok()?.parse().ok()
}

fn serve(kv: &Kv, payload: &[u8]) -> Reply {
    let (&op, rest) = payload.split_first().ok_or("empty request")?;
    if rest.len() < KEY_LEN {
        return Err("short key".into());
    }
    let (key, value) = rest.split_at(KEY_LEN);
    match op {
        b'G' => kv
            .get(key)
            .map(|v| v.to_vec())
            .ok_or_else(|| "object not found".into()),
        b'S' => {
            kv.set(key, value.to_vec());
            Ok(Vec::new())
        }
        _ => Err(format!("unknown op {op}")),
    }
}

/// TAO's dispatch: a GET whose key is cached runs on a fast thread.
fn classify(kv: &Kv, payload: &[u8]) -> bool {
    payload.first() == Some(&b'G') && payload.get(1..=KEY_LEN).is_some_and(|k| kv.contains(k))
}

/// A running server and its cache.
pub struct Service {
    pub server: Server,
    pub kv: Arc<Kv>,
}

/// Starts the server and SETs every key. Returns the service and the
/// value of every key, which GETs are checked against.
pub fn setup(p: &Params) -> Result<(Service, Vec<Vec<u8>>), String> {
    let keys: Vec<[u8; KEY_LEN]> = (0..p.keys as u32).map(key).collect();
    let values = adapter::stored_values(&keys, DATASET_SEED);
    let bytes: usize = values.iter().map(|v| KEY_LEN + v.len()).sum();
    let kv = Arc::new(Kv::new(
        (bytes as f64 * p.cache_factor) as usize,
        p.lookup_latency,
        DATASET_SEED,
    ));
    let (hk, ck) = (Arc::clone(&kv), Arc::clone(&kv));
    let server = Server::start(
        move |_, payload| serve(&hk, payload),
        move |payload| classify(&ck, payload),
        FAST_THREADS,
        SLOW_THREADS,
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::connect(server.addr(), WINDOW).map_err(|e| format!("connect: {e}"))?;
    let mut n = 0;
    for chunk in keys.iter().zip(&values).collect::<Vec<_>>().chunks(1024) {
        let payloads: Vec<Vec<u8>> = chunk
            .iter()
            .map(|(k, v)| [&b"S"[..], &k[..], v].concat())
            .collect();
        let reqs: Vec<(u64, &[u8])> = payloads
            .iter()
            .map(|p| {
                n += 1;
                (request_id(PHASE_SETUP, 0, n), p.as_slice())
            })
            .collect();
        for reply in conn.call_many(&reqs) {
            reply.map_err(|e| format!("setup SET failed: {e}"))?;
        }
    }
    Ok((Service { server, kv }, values))
}

/// Whether every key is resident, as it must be when the cache holds the
/// whole working set.
pub fn all_resident(kv: &Kv, keys: usize) -> bool {
    (0..keys as u32).all(|id| kv.contains(&key(id)))
}

/// The traffic of one mix and the values to check GETs against.
pub struct Traffic {
    zipf: Zipf,
    rank_to_id: Vec<u32>,
    get_fraction: f64,
    values: Vec<Vec<u8>>,
}

impl Traffic {
    pub fn new(p: &Params, values: Vec<Vec<u8>>) -> Self {
        Self {
            zipf: Zipf::new(p.keys, ZIPF_S),
            rank_to_id: permutation(p.keys, DATASET_SEED),
            get_fraction: p.get_fraction,
            values,
        }
    }
}

impl Workload for Traffic {
    fn next_payload(&self, rng: &mut Rng) -> Vec<u8> {
        let id = self.rank_to_id[self.zipf.sample(rng)];
        let k = key(id);
        if rng.next_f64() < self.get_fraction {
            [&b"G"[..], &k].concat()
        } else {
            [&b"S"[..], &k, &self.values[id as usize]].concat()
        }
    }

    fn check(&self, _req: u64, payload: &[u8], reply: &[u8]) -> Result<(), String> {
        let id = payload
            .get(1..=KEY_LEN)
            .and_then(key_id)
            .ok_or("unparsable key in request")?;
        match payload[0] {
            b'G' if reply == self.values[id].as_slice() => Ok(()),
            b'G' => Err(format!("GET {id}: wrong value ({} bytes)", reply.len())),
            _ if reply.is_empty() => Ok(()),
            _ => Err(format!("SET {id}: unexpected reply body")),
        }
    }

    fn checks(&self) -> Checks {
        Checks::Inline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        assert_eq!(key_id(&key(4321)), Some(4321));
    }

    #[test]
    fn checker_rejects_a_corrupted_value() {
        let p = Params { keys: 4, ..HIT };
        let values = vec![
            b"alpha".to_vec(),
            b"beta".to_vec(),
            b"gamma".to_vec(),
            b"delta".to_vec(),
        ];
        let t = Traffic::new(&p, values);
        let get = [&b"G"[..], &key(2)].concat();
        assert!(t.check(1, &get, b"gamma").is_ok());
        assert!(t.check(1, &get, b"gammb").is_err());
        assert!(t.check(1, &get, b"gamm").is_err());
        let set = [&b"S"[..], &key(2), b"gamma"].concat();
        assert!(t.check(1, &set, b"").is_ok());
        assert!(t.check(1, &set, b"x").is_err());
    }
}
