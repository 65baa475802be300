//! Seeded draws for load shaping: splitmix64, shuffles, Poisson
//! inter-arrival gaps, and quotas that keep a sequence's mix exact. Every
//! random choice the benchmark makes goes through here, so one `--seed`
//! fixes the whole request sequence.

/// splitmix64: tiny, seedable, and good enough for load shaping.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A unit-interval draw in `[0, 1)` from the top 53 bits.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// An independent stream seed derived from `seed` and a stream tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d);
    splitmix64(&mut s)
}

/// An exponential gap with mean `1/rate` seconds: Poisson arrivals.
pub fn exp_gap(state: &mut u64, rate: f64) -> f64 {
    -(1.0 - unit(state)).ln() / rate
}

/// Zipf popularity of `n` ranks: `P(i) ∝ 1/(i+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// A fixed sequence of indices in proportion to `weights`: each step takes
/// the index furthest behind its share, so every prefix holds each index
/// in proportion to within one.
pub struct Quota {
    shares: Vec<f64>,
    taken: Vec<usize>,
    steps: usize,
}

impl Quota {
    /// A sequence over `0..weights.len()`; `weights` need not sum to one.
    pub fn new(weights: &[f64]) -> Quota {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "a quota needs a positive weight");
        Quota {
            shares: weights.iter().map(|w| w / total).collect(),
            taken: vec![0; weights.len()],
            steps: 0,
        }
    }

    /// The next index.
    pub fn next_index(&mut self) -> usize {
        self.steps += 1;
        let deficit = |i: usize| self.steps as f64 * self.shares[i] - self.taken[i] as f64;
        let mut pick = 0;
        for i in 1..self.shares.len() {
            if deficit(i) > deficit(pick) {
                pick = i;
            }
        }
        self.taken[pick] += 1;
        pick
    }
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix64(state) % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_keeps_every_prefix_in_proportion() {
        let mut quota = Quota::new(&[1.0, 3.0, 6.0]);
        let seq: Vec<usize> = (0..100).map(|_| quota.next_index()).collect();
        assert_eq!(seq[0], 2, "the largest share goes first");
        for len in [10, 20, 50, 100] {
            let big = seq[..len].iter().filter(|&&i| i == 2).count() as f64;
            assert!((big - 0.6 * len as f64).abs() <= 1.0, "{len}: {big}");
        }
        let zipf = zipf_weights(4, 1.0);
        assert_eq!(zipf, vec![1.0, 0.5, 1.0 / 3.0, 0.25]);
    }

    #[test]
    fn shuffle_is_seeded_and_keeps_every_item() {
        let (mut a, mut b) = ((0..32).collect::<Vec<u32>>(), (0..32).collect::<Vec<u32>>());
        shuffle(&mut a, &mut 9);
        shuffle(&mut b, &mut 9);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, (0..32).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn exp_gaps_average_to_the_rate() {
        let mut s = 7u64;
        let n = 20_000;
        let mean = (0..n).map(|_| exp_gap(&mut s, 50.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean gap {mean}");
    }
}
