//! Host speed, measured with a fixed unit of work of the benchmark's own.
//!
//! The benchmark shares its cores with other tenants of the host, and the
//! host's speed drifts by a quarter and more over minutes; every pass of a
//! run slows down together, so no statistic over one run's passes removes
//! it. The simulator workloads therefore time this kernel between their
//! cells and scale their host seconds to a reference speed. The kernel
//! uses no code of the repository, so a change to the program cannot move
//! it: it mixes what a simulator step does — a binary-heap event queue, a
//! hash map of per-key state, floating-point rate arithmetic and dependent
//! loads through a buffer the size of a core's cache. It holds under a
//! megabyte, and only while it is timed between cells, so it leaves the
//! run's peak memory alone.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Host seconds of one kernel on the reference host, a 2-core Intel Xeon
/// at 2.1 GHz, whose kernel medians ran 3.2–4.6 ms. It is only a scale,
/// which keeps a scaled figure close to the host figure there.
pub const REFERENCE_KERNEL_S: f64 = 0.0045;

/// Kernels timed per [`Calibration::sample`].
const KERNELS_PER_SAMPLE: usize = 5;
/// `u32`s in the dependent-load buffer: 256 KiB.
const WALK_LEN: usize = 1 << 16;

/// The dependent-load buffer: `walk[j]` is the slot after `j`. The step
/// `j -> a·j + 1 mod 2^k` with `a ≡ 1 (mod 4)` has full period, so the
/// walk visits every slot before it repeats.
fn walk_buffer() -> Vec<u32> {
    (0..WALK_LEN as u64)
        .map(|j| (j.wrapping_mul(2_654_435_761).wrapping_add(1) % WALK_LEN as u64) as u32)
        .collect()
}

/// Kernel times gathered over a run.
#[derive(Debug, Default)]
pub struct Calibration {
    times: Vec<f64>,
}

impl Calibration {
    /// Time a few kernels and keep their host seconds.
    pub fn sample(&mut self) {
        let walk = walk_buffer();
        for round in 0..KERNELS_PER_SAMPLE {
            let t = Instant::now();
            std::hint::black_box(kernel(&walk, round as u64));
            self.times.push(t.elapsed().as_secs_f64());
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.times
    }

    /// Median kernel time over every sample so far.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.times)
    }

    /// Reference seconds per host second: below 1 on a host slower than
    /// the reference. Multiplying a host-time rate by `1 / speed` gives
    /// the rate at reference speed.
    pub fn speed(&self) -> f64 {
        REFERENCE_KERNEL_S / self.median_s()
    }
}

/// One fixed unit of work; the result only keeps it from being optimised
/// away.
fn kernel(walk: &[u32], salt: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Event queue: pushes with random times, then drains it.
    let mut heap = BinaryHeap::with_capacity(16_384);
    for i in 0..16_384u32 {
        heap.push((std::cmp::Reverse(next() >> 20), i));
    }
    let mut acc = 0u64;
    while let Some((std::cmp::Reverse(t), i)) = heap.pop() {
        acc = acc.wrapping_add(t ^ u64::from(i));
    }
    // Per-key state updates.
    let mut state: HashMap<u32, f64> = HashMap::with_capacity(4_096);
    for _ in 0..32_768 {
        let k = (next() % 4_096) as u32;
        *state.entry(k).or_insert(1.0) *= 1.000_1;
    }
    acc = acc.wrapping_add(state.len() as u64);
    // Rate arithmetic: a max-min style share-and-clamp update.
    let mut rate = 1.0f64;
    for i in 0..200_000u32 {
        let cap = 1.0 + f64::from(i % 97);
        rate = (rate * 0.75 + cap / (1.0 + f64::from(i % 13))).min(cap);
    }
    acc = acc.wrapping_add(rate.to_bits());
    // Dependent loads through the buffer.
    let mut j = (next() as usize) % walk.len();
    for _ in 0..200_000 {
        j = walk[j] as usize;
    }
    acc.wrapping_add(j as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_slot_once() {
        let walk = walk_buffer();
        let mut seen = vec![false; WALK_LEN];
        let mut j = 0usize;
        for _ in 0..WALK_LEN {
            assert!(!seen[j], "slot {j} visited twice");
            seen[j] = true;
            j = walk[j] as usize;
        }
        assert_eq!(j, 0, "the walk closes after one cycle");
    }

    #[test]
    fn speed_is_reference_over_median() {
        let cal = Calibration {
            times: vec![
                2.0 * REFERENCE_KERNEL_S,
                4.0 * REFERENCE_KERNEL_S,
                REFERENCE_KERNEL_S,
            ],
        };
        assert_eq!(cal.speed(), 0.5);
    }
}
