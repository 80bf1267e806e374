//! The timed run's clock: host-speed calibration and the best-of estimate.
//!
//! The build host is a shared virtual machine, and a wall-clock median
//! cannot meet a 10 % bound on it. Two things move under our feet
//! (measured with the dumps described in the README):
//!
//! * the core changes speed in stretches of a few seconds — a fixed
//!   compute loop takes 5.0 ms, then 4.0 ms, then 5.0 ms again — and the
//!   simulator's passes move in step;
//! * neighbours take cache and memory bandwidth in bursts of milliseconds
//!   to seconds, which only ever *adds* time: the same cell was measured
//!   at 70 ms and at 120 ms within one run.
//!
//! So every cell is timed on its own, with a fixed compute kernel that
//! shares no code with the repository run between cells. A cell's time is
//! rescaled by how fast the kernel ran around it (`host_s` is seconds on
//! a host that runs the kernel in [`REFERENCE_S`]), and the estimate of a
//! pass is the sum over its cells of each cell's *best* rescaled time over
//! all passes of the run: bursts are one-sided, so the minimum of twenty
//! samples of a 50 ms cell is far steadier than the median of twenty
//! 800 ms passes that each caught some burst (over ten runs on a noisy
//! afternoon: 2–6 % against 8–14 %). A change to the repository cannot
//! move the kernel, so it cannot hide in the rescaling.

use std::time::Instant;

/// Iterations of the kernel's dependent multiply-xor chain.
const ITERS: u64 = 500_000;

/// Seconds the kernel takes on the reference host (the build host in its
/// usual state). Only fixes the scale of `host_s`; comparisons between
/// two commits do not depend on it.
pub const REFERENCE_S: f64 = 0.00125;

/// A sample is rescaled by the quickest kernel run among its own two and
/// this many further readings on either side. Interference slows a kernel
/// run like anything else, and a slow reading would make the cell beside
/// it look fast — exactly the sample a minimum then picks; the quickest
/// of six neighbours is the core's speed without the interference. Where
/// the window straddles a change of speed it errs towards a *slow* cell,
/// which the minimum over passes discards.
const WINDOW: usize = 2;

/// Time one run of the kernel. Each step depends on the one before, so the
/// compiler can neither vectorise nor shorten it.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..ITERS {
        x = (x ^ (x >> 31))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Times units of work (cells) with a kernel reading between every two.
pub struct Clock {
    /// One reading before the first unit, one after every unit.
    readings: Vec<f64>,
    /// `(unit, wall seconds)`; sample `i` ran between readings `i`, `i + 1`.
    samples: Vec<(usize, f64)>,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            readings: vec![kernel_seconds()],
            samples: Vec::new(),
        }
    }

    /// Run `f` as one sample of `unit`.
    pub fn time<R>(&mut self, unit: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.samples.push((unit, start.elapsed().as_secs_f64()));
        self.readings.push(kernel_seconds());
        r
    }

    /// Every sample so far as `(unit, seconds on the reference host)`, and
    /// an empty clock to go on with.
    pub fn take(&mut self) -> Vec<(usize, f64)> {
        let done = std::mem::replace(self, Clock::start());
        rescale(&done.samples, &done.readings)
    }
}

fn rescale(samples: &[(usize, f64)], readings: &[f64]) -> Vec<(usize, f64)> {
    samples
        .iter()
        .enumerate()
        .map(|(i, &(unit, wall_s))| {
            let window = &readings[i.saturating_sub(WINDOW)..(i + 2 + WINDOW).min(readings.len())];
            let kernel_s = window.iter().copied().fold(f64::INFINITY, f64::min);
            (unit, wall_s * REFERENCE_S / kernel_s)
        })
        .collect()
}

/// The best-of estimate: each unit's smallest sample, summed over the
/// units. Panics if a unit below `units` has no sample.
pub fn best_of(samples: &[(usize, f64)], units: usize) -> f64 {
    let mut best = vec![f64::INFINITY; units];
    for &(unit, s) in samples {
        best[unit] = best[unit].min(s);
    }
    assert!(best.iter().all(|b| b.is_finite()), "a unit was never timed");
    best.iter().sum()
}

/// The samples summed round by round: `samples` holds whole rounds of
/// `units` samples each, in order.
pub fn round_totals(samples: &[(usize, f64)], units: usize) -> Vec<f64> {
    samples
        .chunks(units)
        .map(|round| round.iter().map(|&(_, s)| s).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_cancels_a_uniform_slowdown() {
        let usual = rescale(&[(0, 1.0)], &[REFERENCE_S, REFERENCE_S]);
        let slow = rescale(&[(0, 1.5)], &[1.5 * REFERENCE_S, 1.5 * REFERENCE_S]);
        assert!((usual[0].1 - 1.0).abs() < 1e-12);
        assert!((slow[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_disturbed_kernel_reading_does_not_flatter_the_cell_beside_it() {
        // The reading after the second sample caught a burst (3x); the
        // quickest reading in the window still sets the scale.
        let r = REFERENCE_S;
        let got = rescale(&[(0, 1.0), (1, 1.0), (0, 1.0)], &[r, r, 3.0 * r, r]);
        for (_, s) in got {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn best_of_takes_each_units_minimum() {
        let samples = [
            (0, 3.0),
            (1, 10.0),
            (0, 2.0),
            (1, 12.0),
            (0, 4.0),
            (1, 11.0),
        ];
        assert_eq!(best_of(&samples, 2), 12.0);
        assert_eq!(round_totals(&samples, 2), [13.0, 14.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "never timed")]
    fn best_of_refuses_a_unit_without_samples() {
        best_of(&[(0, 1.0)], 2);
    }

    #[test]
    fn clock_hands_back_one_rescaled_sample_per_call() {
        let mut clock = Clock::start();
        assert_eq!(clock.time(0, || 7), 7);
        clock.time(1, || ());
        let samples = clock.take();
        assert_eq!(samples.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1]);
        assert!(samples.iter().all(|s| s.1 >= 0.0 && s.1.is_finite()));
        assert!(clock.take().is_empty());
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel_seconds() > 1e-4);
    }
}
