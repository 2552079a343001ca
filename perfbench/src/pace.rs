//! Host pace: a fixed reference task, run between measured stretches,
//! that tells how fast the host is running right now.
//!
//! On a shared host the same code runs up to ~1.6x slower for seconds or
//! minutes at a time while other tenants contend for the core and its
//! caches. A stream pass, a compile batch, a simulation set or a replay
//! of server requests follows those swings, so its raw throughput moves
//! more between runs than any change worth measuring. The reference task
//! (float parsing, sorting and hashing, branchy work like the compiler's)
//! slows down with them: on the 2-vCPU reference host its time tracked
//! stream pass times with a correlation of 0.96, where a latency-bound
//! ALU loop tracked them at 0.3-0.45 and a pointer chase at 0-0.77. Rates
//! scaled by `reading / NOMINAL`, and times by its inverse, read as if
//! the host had run at its nominal pace throughout.
//!
//! The task is the benchmark's own and calls nothing in the workspace,
//! so a change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference task's time on a quiet reference host: the unit that
/// scaled figures are expressed in. Any fixed value works for comparing
/// two commits; this one keeps scaled figures near raw ones.
pub const NOMINAL: Duration = Duration::from_micros(65);

/// The reference task's inputs, fixed and independent of the seed.
pub struct Pace {
    text: String,
    keys: Vec<u64>,
}

impl Pace {
    pub fn new() -> Self {
        // A SplitMix64 stream: the inputs never depend on a workspace crate.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut text = String::new();
        for _ in 0..400 {
            let angle = (next() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
            let q = next() % 1000;
            text.push_str(&format!("rz({angle:?}) q[{q}];\n"));
        }
        let keys = (0..1024).map(|_| next()).collect();
        Pace { text, keys }
    }

    /// Runs the reference task once and returns its wall time.
    pub fn sample(&self) -> Duration {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        let mut wires = HashMap::new();
        for line in black_box(&self.text).lines() {
            let (angle, rest) = line[3..].split_once(") q[").unwrap_or(("0", "0]"));
            sum += angle.parse::<f64>().unwrap_or(0.0);
            let q: u32 = rest.trim_end_matches("];").parse().unwrap_or(0);
            *wires.entry(q).or_insert(0u32) += 1;
        }
        let mut keys = black_box(&self.keys).clone();
        keys.sort_unstable();
        black_box((sum, wires.len(), keys[keys.len() / 2]));
        t0.elapsed()
    }

    /// Seconds since `t0`, scaled to the nominal pace by a reading taken
    /// now. Times one setup for `setup_s`.
    pub fn seconds_since(&self, t0: Instant) -> f64 {
        let wall = t0.elapsed().as_secs_f64();
        time_at_nominal(wall, self.reading(3))
    }

    /// Runs the task `n` times and returns the median time: one reading
    /// of the host's pace that a single preemption cannot move.
    pub fn reading(&self, n: usize) -> Duration {
        let mut times: Vec<Duration> = (0..n.max(1)).map(|_| self.sample()).collect();
        times.sort_unstable();
        times[times.len() / 2]
    }
}

/// A rate measured while the reference task took `reference`, scaled to
/// the nominal pace.
pub fn rate_at_nominal(rate: f64, reference: Duration) -> f64 {
    rate * reference.as_secs_f64() / NOMINAL.as_secs_f64()
}

/// A time measured while the reference task took `reference`, scaled to
/// the nominal pace.
pub fn time_at_nominal(time: f64, reference: Duration) -> f64 {
    time * NOMINAL.as_secs_f64() / reference.as_secs_f64()
}
