//! A host-speed yardstick: a fixed piece of benchmark code, timed in
//! between the measured work of a run, that no change to the program
//! can touch.
//!
//! The hosts this benchmark runs on are shared.  Code that walks large
//! pointer structures, as every workload here does, runs 20-45% slower
//! for stretches of tens of seconds to minutes when the neighbours are
//! busy, so a raw time mostly says which stretch the run fell in.  A
//! time divided by the median yardstick of the same run follows those
//! stretches far less, and still moves in full with any change to the
//! program.  The yardstick allocates nothing while it is timed, so its
//! time does not hang on the heap the measured work left behind.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Entries of the yardstick's map: far more than the caches hold, as
/// the explorer's state tables are.
const ENTRIES: u64 = 400_000;
/// Lookups per sample (90-140 ms on the 2-CPU host measured).
const LOOKUPS: u64 = 500_000;
/// Scatters consecutive integers over the key space.
const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The yardstick's map and the samples of one run.
#[derive(Debug)]
pub struct Yardstick {
    map: BTreeMap<u64, u64>,
    ms: Vec<f64>,
}

impl Yardstick {
    /// Builds the map (untimed).
    #[must_use]
    pub fn build() -> Yardstick {
        Yardstick {
            map: (0..ENTRIES).map(|i| (i.wrapping_mul(SCATTER), i)).collect(),
            ms: Vec::new(),
        }
    }

    /// Times one sample: [`LOOKUPS`] lookups of scattered keys.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut sum = 0u64;
        for i in 0..LOOKUPS {
            sum = sum.wrapping_add(self.map[&(i % ENTRIES).wrapping_mul(SCATTER)]);
        }
        black_box(sum);
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Median sample in ms (0 before any sample).
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        median(&self.ms).unwrap_or(0.0)
    }

    /// `ms` in yardsticks: `ms` divided by the median sample.
    #[must_use]
    pub fn rel(&self, ms: f64) -> f64 {
        ms / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_time_in_yardsticks_is_the_time_over_the_median_sample() {
        let mut y = Yardstick::build();
        assert_eq!(y.map.len(), usize::try_from(ENTRIES).unwrap());
        for _ in 0..3 {
            y.sample();
        }
        let m = y.median_ms();
        assert!(m > 0.0);
        assert!((y.rel(3.0 * m) - 3.0).abs() < 1e-9);
    }
}
