//! Host-speed probe: a fixed popcount loop timed after every op.
//!
//! The guest shares its host's cores, and the host's load changes this
//! process's speed by up to 2× in phases that last seconds (see
//! `ubench/README.md`). The probe does a fixed amount of throughput-bound
//! work, so its wall time follows that load: on all three workloads the
//! 2 s window means of op time and probe time correlated at 0.89–1.00.
//!
//! The end-to-end times are read on the probe clock: a wall interval is
//! scaled by [`TICK_US`] over the median probe time around it. A change to
//! the program moves its op time and leaves the probe as it is, so it
//! shows on the probe clock in full; a change in the host's load moves
//! both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// One probe lasts this long on the probe clock. On a 2-vCPU Xeon guest
/// the probe took 80–180 µs of wall time as the host's load changed, so
/// probe-clock figures are of the order of wall figures.
pub const TICK_US: f64 = 100.0;

/// An interval's local probe time is the median of the probe that
/// follows it and this many probes on either side of that one: 0.1–0.5 s
/// of ops.
const HALF_WINDOW: usize = 4;

/// 4 KiB of words, L1-resident, popcounted `PASSES` times per probe.
const WORDS: usize = 512;
const PASSES: usize = 200;

pub struct Probe {
    words: Vec<u64>,
}

impl Probe {
    #[must_use]
    pub fn new() -> Self {
        let mut rng = usystolic_unary::rng::SplitMix64::new(0x0b5e_55ed);
        Self {
            words: (0..WORDS).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Runs the probe once; its wall time in microseconds.
    #[must_use]
    pub fn run_us(&self) -> f64 {
        let t0 = Instant::now();
        let mut acc = [0u64; 4];
        for _ in 0..PASSES {
            for c in black_box(&self.words).chunks_exact(4) {
                for (a, w) in acc.iter_mut().zip(c) {
                    *a += u64::from(w.count_ones());
                }
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// The factor that puts a wall interval onto the probe clock, for the
/// interval just before probe `i` of `probes_us` (one probe per op).
///
/// # Panics
///
/// Panics if `probes_us` is empty.
#[must_use]
pub fn scale(probes_us: &[f64], i: usize) -> f64 {
    let i = i.min(probes_us.len() - 1);
    let lo = i.saturating_sub(HALF_WINDOW);
    let hi = (i + HALF_WINDOW + 1).min(probes_us.len());
    TICK_US / crate::median(&probes_us[lo..hi])
}
