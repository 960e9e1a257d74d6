//! Seeded input generation: the benchmark's own random numbers and key
//! popularity, kept apart from the program's `dcperf-util` so that a
//! change there cannot move the ruler.

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponentially distributed gap with the given mean, for Poisson
    /// arrivals.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Derives an independent stream seed from a base seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut r = Rng::new(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64()
}

/// Zipf-distributed ranks in `[0, n)`, rank 0 the most popular, drawn by
/// binary search over the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity `1 / (rank + 1)^s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        Self { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A fixed shuffle of `0..n`: maps popularity ranks onto item ids so that
/// hot items are spread over the id space (and over cache shards).
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 3];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            if r < 3 {
                counts[r] += 1;
            }
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(500, 9);
        p.sort_unstable();
        assert_eq!(p, (0..500).collect::<Vec<u32>>());
    }
}
