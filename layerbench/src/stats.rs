//! The benchmark's pure arithmetic: order statistics, the tail
//! percentile rule, the geometric mean, `stats`-op deltas, and the
//! seeded request draws of `serve-mix`.  Everything here is
//! deterministic and unit-tested.

use std::collections::BTreeMap;

use spi_auth::conformance::rng::Rng;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile of `xs` that still has at least `beyond`
/// samples strictly above its rank, from the ladder p50, p90, p99,
/// p99.9.  Returns `(percentile, value)`; `None` when even the median
/// lacks `beyond` samples above it.
///
/// The rank of percentile `p` is `ceil(n * p / 100)` (nearest rank), so
/// `n - rank` samples lie beyond it.
#[must_use]
pub fn tail_percentile(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    let mut best = None;
    for p in [50.0, 90.0, 99.0, 99.9] {
        let rank = nearest_rank(n, p);
        if rank == 0 || n - rank < beyond {
            break;
        }
        best = Some((p, s[rank - 1]));
    }
    best
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // n is a sample count (far below 2^52), so the float round trip is
    // exact.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (n as f64 * p / 100.0).ceil() as usize;
    rank.min(n)
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
#[must_use]
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / n).exp())
}

/// Per-counter growth between two `stats` snapshots.  A counter that
/// went *down* (a restarted server) is an error, not a negative delta.
///
/// # Errors
///
/// Names the first counter missing from `after` or smaller there.
pub fn counter_deltas(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    keys: &[&str],
) -> Result<BTreeMap<String, u64>, String> {
    keys.iter()
        .map(|&k| {
            let b = before.get(k).copied().unwrap_or(0);
            let a = *after
                .get(k)
                .ok_or_else(|| format!("stats lacks counter {k:?}"))?;
            let d = a
                .checked_sub(b)
                .ok_or_else(|| format!("stats counter {k:?} went down: {b} -> {a}"))?;
            Ok((k.to_string(), d))
        })
        .collect()
}

/// Shuffles `xs` in place (Fisher–Yates) with the repository's seeded
/// SplitMix64 stream.
pub fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
}

/// The per-block multiset of a skewed working set: item `i` (0-based
/// popularity rank) appears `max(1, round(block * w_i / sum w))` times,
/// with Zipf weights `w_i = 1 / (i + 1)^skew`.
#[must_use]
pub fn skewed_counts(items: usize, block: usize, skew: f64) -> Vec<usize> {
    #[allow(clippy::cast_precision_loss)]
    let weights: Vec<f64> = (0..items)
        .map(|i| 1.0 / ((i + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let c = (block as f64 * w / total).round() as usize;
            c.max(1)
        })
        .collect()
}

/// An endless stream of working-set indices: each block holds the
/// [`skewed_counts`] multiset in a seeded shuffled order.  Stratifying
/// by block keeps every run's popularity mix exact, so seeds change the
/// order of requests, not how many of each kind a run sends.
#[derive(Debug, Clone)]
pub struct Draws {
    rng: Rng,
    multiset: Vec<usize>,
    block: Vec<usize>,
}

impl Draws {
    /// Draws over `counts[i]` copies of item `i` per block, ordered by
    /// the stream for `(seed, stream)`.
    #[must_use]
    pub fn new(counts: &[usize], seed: u64, stream: u64) -> Draws {
        let multiset = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect();
        Draws {
            rng: Rng::new(seed, stream),
            multiset,
            block: Vec::new(),
        }
    }
}

impl Iterator for Draws {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block.is_empty() {
            self.block.clone_from(&self.multiset);
            shuffle(&mut self.rng, &mut self.block);
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 has rank 90 and 10 samples beyond; p99 has only 1.
        assert_eq!(tail_percentile(&xs, 10), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 has rank 990 and exactly 10 beyond; p99.9 has 1.
        assert_eq!(tail_percentile(&xs, 10), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((99.9, 9990.0)));
    }

    #[test]
    fn tail_percentile_falls_back_and_gives_up() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90: rank 90 (ceil 89.1), 9 beyond: not enough; p50 is kept.
        assert_eq!(tail_percentile(&xs, 10), Some((50.0, 50.0)));
        // 19 samples: p50 has rank 10 and 9 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), None);
        assert_eq!(tail_percentile(&[], 10), None);
        // Order of input does not matter.
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 10), Some((90.0, 90.0)));
    }

    #[test]
    fn geomean_is_scale_free_and_rejects_zero() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    fn snapshot(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn counter_deltas_subtract_per_key() {
        let before = snapshot(&[("executions", 5), ("evictions", 0), ("shed", 1)]);
        let after = snapshot(&[("executions", 12), ("evictions", 3), ("shed", 1), ("x", 9)]);
        let d = counter_deltas(&before, &after, &["executions", "evictions", "shed"])
            .expect("monotone counters");
        assert_eq!(
            d,
            snapshot(&[("executions", 7), ("evictions", 3), ("shed", 0)])
        );
        // A counter absent before counts from zero.
        let d = counter_deltas(&BTreeMap::new(), &after, &["x"]).expect("fresh counter");
        assert_eq!(d["x"], 9);
    }

    #[test]
    fn counter_deltas_reject_missing_and_shrinking_counters() {
        let before = snapshot(&[("executions", 5)]);
        let after = snapshot(&[("executions", 4)]);
        assert!(counter_deltas(&before, &after, &["executions"]).is_err());
        assert!(counter_deltas(&before, &after, &["collapsed"]).is_err());
    }

    #[test]
    fn skewed_counts_are_monotone_and_cover_every_item() {
        let c = skewed_counts(22, 64, 1.0);
        assert_eq!(c.len(), 22);
        assert!(c.iter().all(|&n| n >= 1));
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert!(c[0] > c[21]);
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_stream() {
        let counts = skewed_counts(22, 64, 1.0);
        let a: Vec<usize> = Draws::new(&counts, 7, 0).take(500).collect();
        let b: Vec<usize> = Draws::new(&counts, 7, 0).take(500).collect();
        assert_eq!(a, b, "same seed, same stream: same sequence");
        let c: Vec<usize> = Draws::new(&counts, 7, 1).take(500).collect();
        let d: Vec<usize> = Draws::new(&counts, 8, 0).take(500).collect();
        assert_ne!(a, c, "streams differ");
        assert_ne!(a, d, "seeds differ");
    }

    #[test]
    fn every_block_is_the_same_multiset() {
        let counts = skewed_counts(22, 64, 1.0);
        let len: usize = counts.iter().sum();
        let seq: Vec<usize> = Draws::new(&counts, 3, 1).take(3 * len).collect();
        for block in seq.chunks(len) {
            let mut tally = vec![0; counts.len()];
            for &i in block {
                tally[i] += 1;
            }
            assert_eq!(tally, counts);
        }
    }
}
