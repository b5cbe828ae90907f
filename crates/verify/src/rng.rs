//! A tiny deterministic RNG.
//!
//! SplitMix64: a well-mixed 64-bit generator whose entire state is one
//! word, so a `(seed, stream)` pair fully determines every draw.  The
//! conformance fuzzer forks one stream per case (a failure replays from
//! its two numbers alone), the fleet's chaos plans expand a seed into a
//! fault schedule, and the benchmarks shuffle their work order with it.
//! Not cryptographic — it only has to be deterministic and reasonably
//! equidistributed.

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`, forked by `stream` (callers pass the
    /// case index so every case draws from an independent stream).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        // Decorrelate the two inputs before mixing them into one state.
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n` must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) has no value to draw");
        // Bias is < 2^-50 for any alphabet size used here.
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u32) -> bool {
        self.below(100) < pct as usize
    }

    /// A uniformly drawn element of `xs` (must be non-empty).
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same (seed, stream) replays identically");
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "different streams diverge");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3, 3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
