//! The FeedSim-shaped workload: one TCP call per request reaches the
//! aggregator, which fans out to in-process leaf shards holding story
//! records, decodes and feature-hashes the candidates, ranks them, and
//! composes the response (serialize, compress, encrypt, MAC).
//!
//! Protocol: a payload is the candidate story ids, little-endian `u32`.
//! The reply is `ChaCha20(lz(feed)) || HMAC-SHA-256`, with the request id
//! as the nonce.

use crate::adapter::{self, Leaves, Reply, Server};
use crate::gen::{permutation, Rng, Zipf};
use crate::load::{Checks, Workload};
use crate::trace;

/// Seeds the story dataset, fixed like the TAO dataset; `--seed` drives
/// which candidates each request carries.
pub const DATASET_SEED: u64 = 0xFEED_DA7A;
pub const STORIES: usize = 16_384;
pub const SHARDS: usize = 8;
pub const CANDIDATES: usize = 96;
pub const TOP_K: usize = 24;
/// One request per connection at a time.
pub const WINDOW: usize = 1;
/// The fixed open-loop rate, requests per second.
pub const RATE: f64 = 250.0;
const ZIPF_S: f64 = 0.9;
const FEATURES: usize = 128;
const HASH_SEED: u64 = 0x5EED;
const AGGREGATOR_THREADS: usize = 2;
/// Leaf workers serving the 8 shards: one per processor of the 2-vCPU
/// host, so the leaves add no run-queue contention of their own.
const LEAF_THREADS: usize = 2;
/// The reply to every 8th request of each connection is checked in full
/// after the timed window.
const CHECK_EVERY: u64 = 8;
const CIPHER_KEY: [u8; 32] = *b"perfbench feed_rank cipher key!!";
const MAC_KEY: &[u8] = b"perfbench feed_rank mac key";

/// One story record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Story {
    pub id: u32,
    pub author: u64,
    pub text: String,
    pub block: Vec<u8>,
}

fn make_story(id: u32) -> Story {
    let mut rng = Rng::new(DATASET_SEED ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let len = 80 + rng.below(400) as usize;
    let mut text = String::with_capacity(len + 10);
    while text.len() < len {
        for _ in 0..2 + rng.below(8) {
            text.push(char::from(b'a' + rng.below(26) as u8));
        }
        text.push(' ');
    }
    Story {
        id,
        author: rng.below(1_000_000),
        text,
        block: (0..64).map(|_| rng.next_u64() as u8).collect(),
    }
}

/// Every story, indexed by id.
pub fn dataset() -> Vec<Story> {
    (0..STORIES as u32).map(make_story).collect()
}

fn tokens(story: &Story) -> impl Iterator<Item = &[u8]> {
    story
        .text
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(str::as_bytes)
}

/// The ranking model: a fixed weight vector.
fn weights() -> [f32; FEATURES] {
    let mut rng = Rng::new(DATASET_SEED ^ 0xDE7EC7);
    std::array::from_fn(|_| (rng.next_f64() as f32 - 0.5) * 2.0)
}

/// Scores a story from its token hashes: hashed bag of words plus dense
/// features from the binary block and ids, through a sigmoid.
fn score(story: &Story, hashes: &[u64], w: &[f32; FEATURES]) -> f64 {
    let mut f = [0f32; FEATURES];
    for h in hashes {
        f[(h % FEATURES as u64) as usize] += 1.0;
    }
    for (i, chunk) in story.block.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        f[(i * 7 + 3) % FEATURES] += (u64::from_le_bytes(word) % 1000) as f32 / 1000.0;
    }
    f[0] += (story.id % 97) as f32 / 97.0;
    f[1] += (story.author % 89) as f32 / 89.0;
    let dot: f32 = f.iter().zip(w).map(|(a, b)| a * b).sum();
    f64::from(1.0 / (1.0 + (-dot).exp()))
}

/// Best first; ties go to the lower id.
fn rank_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

fn parse_ids(payload: &[u8]) -> Vec<u32> {
    payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn leaf(shards: &[Vec<Story>], payload: &[u8]) -> Reply {
    let stories = parse_ids(payload)
        .into_iter()
        .map(|id| {
            shards[id as usize % SHARDS]
                .get(id as usize / SHARDS)
                .ok_or_else(|| format!("no story {id}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(adapter::encode_stories(&stories))
}

fn aggregate(leaves: &Leaves, w: &[f32; FEATURES], req: u64, payload: &[u8]) -> Reply {
    let ids = parse_ids(payload);
    if ids.len() != CANDIDATES {
        return Err(format!("{} candidates, expected {CANDIDATES}", ids.len()));
    }
    let mut per_leaf = vec![Vec::new(); SHARDS];
    for id in &ids {
        per_leaf[*id as usize % SHARDS].extend_from_slice(&id.to_le_bytes());
    }
    let mut stories = Vec::with_capacity(CANDIDATES);
    for reply in leaves.fanout(req, &per_leaf) {
        stories.extend(adapter::decode_stories(&reply?)?);
    }
    if stories.len() != CANDIDATES {
        return Err(format!("leaves returned {} stories", stories.len()));
    }
    let mut bounds = Vec::with_capacity(CANDIDATES + 1);
    let mut all_tokens = Vec::new();
    bounds.push(0);
    for story in &stories {
        all_tokens.extend(tokens(story));
        bounds.push(all_tokens.len());
    }
    let hashes = adapter::hash_tokens(&all_tokens, HASH_SEED);
    let ranked = trace::span("app.rank", 0, || {
        let mut scored: Vec<(f64, u32, usize)> = stories
            .iter()
            .enumerate()
            .map(|(i, s)| (score(s, &hashes[bounds[i]..bounds[i + 1]], w), s.id, i))
            .collect();
        scored.sort_by(|a, b| rank_order(&(a.0, a.1), &(b.0, b.1)));
        scored.truncate(TOP_K);
        scored
    });
    let feed: Vec<(f64, &Story)> = ranked.iter().map(|&(s, _, i)| (s, &stories[i])).collect();
    let mut packed = adapter::lz_compress(&adapter::encode_feed(&feed));
    adapter::chacha20(&CIPHER_KEY, req, &mut packed);
    let mac = adapter::hmac_sha256(MAC_KEY, &packed);
    packed.extend_from_slice(&mac);
    Ok(packed)
}

/// Generates the stories, loads them into the leaf shards, and starts the
/// aggregator. The leaves stop when the aggregator's last handle drops.
pub fn setup() -> Result<Server, String> {
    let mut shards: Vec<Vec<Story>> = (0..SHARDS)
        .map(|_| Vec::with_capacity(STORIES / SHARDS))
        .collect();
    for story in dataset() {
        shards[story.id as usize % SHARDS].push(story);
    }
    let leaves = Leaves::start(move |payload| leaf(&shards, payload), LEAF_THREADS);
    let w = weights();
    Server::start(
        move |req, payload| aggregate(&leaves, &w, req, payload),
        |_| true,
        AGGREGATOR_THREADS,
        0,
    )
    .map_err(|e| format!("server start: {e}"))
}

/// Candidate lists and the reference ranking to check replies against.
pub struct Traffic {
    zipf: Zipf,
    rank_to_id: Vec<u32>,
    stories: Vec<Story>,
    /// Each story's score, computed once from the dataset.
    scores: Vec<f64>,
}

impl Traffic {
    pub fn new() -> Self {
        let stories = dataset();
        let w = weights();
        let scores = stories
            .iter()
            .map(|s| {
                score(
                    s,
                    &adapter::hash_tokens(&tokens(s).collect::<Vec<_>>(), HASH_SEED),
                    &w,
                )
            })
            .collect();
        Self {
            zipf: Zipf::new(STORIES, ZIPF_S),
            rank_to_id: permutation(STORIES, DATASET_SEED),
            stories,
            scores,
        }
    }

    /// The ids the reply must list, best first.
    fn expected(&self, ids: &[u32]) -> Vec<(f64, u32)> {
        let mut scored: Vec<(f64, u32)> = ids
            .iter()
            .map(|&id| (self.scores[id as usize], id))
            .collect();
        scored.sort_by(rank_order);
        scored.truncate(TOP_K);
        scored
    }
}

impl Workload for Traffic {
    fn next_payload(&self, rng: &mut Rng) -> Vec<u8> {
        let mut ids: Vec<u32> = Vec::with_capacity(CANDIDATES);
        while ids.len() < CANDIDATES {
            let id = self.rank_to_id[self.zipf.sample(rng)];
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids.iter().flat_map(|id| id.to_le_bytes()).collect()
    }

    fn check(&self, req: u64, payload: &[u8], reply: &[u8]) -> Result<(), String> {
        let (sealed, mac) = reply
            .len()
            .checked_sub(32)
            .map(|n| reply.split_at(n))
            .ok_or("reply shorter than its MAC")?;
        if adapter::hmac_sha256(MAC_KEY, sealed) != mac {
            return Err("MAC mismatch".into());
        }
        let mut packed = sealed.to_vec();
        adapter::chacha20(&CIPHER_KEY, req, &mut packed);
        let feed = adapter::decode_feed(&adapter::lz_decompress(&packed)?)?;
        let want = self.expected(&parse_ids(payload));
        if feed.len() != want.len() {
            return Err(format!(
                "{} stories in feed, expected {}",
                feed.len(),
                want.len()
            ));
        }
        for (rank, ((score, story), (want_score, want_id))) in feed.iter().zip(&want).enumerate() {
            if story.id != *want_id || score != want_score {
                return Err(format!(
                    "rank {rank}: story {} scored {score}, expected {want_id} scored {want_score}",
                    story.id
                ));
            }
            if *story != self.stories[story.id as usize] {
                return Err(format!(
                    "story {} content differs from the dataset",
                    story.id
                ));
            }
        }
        Ok(())
    }

    fn checks(&self) -> Checks {
        Checks::Deferred(CHECK_EVERY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Conn;

    #[test]
    fn checker_accepts_a_served_feed_and_rejects_a_flipped_mac_byte() {
        let server = setup().expect("feed service starts");
        let traffic = Traffic::new();
        let payload = traffic.next_payload(&mut Rng::new(7));
        let mut conn = Conn::connect(server.addr(), WINDOW).expect("connect");
        let reply = conn.call_many(&[(42, &payload)]).remove(0).expect("reply");
        drop(conn);
        server.shutdown();

        assert_eq!(traffic.check(42, &payload, &reply), Ok(()));
        let mut forged = reply.clone();
        *forged.last_mut().expect("non-empty reply") ^= 1;
        assert_eq!(
            traffic.check(42, &payload, &forged),
            Err("MAC mismatch".into())
        );
        // The right bytes under another request's nonce decrypt to garbage.
        assert!(traffic.check(43, &payload, &reply).is_err());
    }
}
