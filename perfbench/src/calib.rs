//! Scaling CPU time to a reference core.
//!
//! On a shared host a core's speed changes from one stretch of seconds to
//! the next, as other tenants load the caches, the memory bus and the
//! sibling hyperthread. The thread's CPU clock (see `cpu.rs`) leaves steal
//! time out but still runs slow in those stretches: on a 2-vCPU VM the
//! same `suite_cold` session took from 12 to 21 ms of CPU across the
//! passes of a single run, and whole 30-second runs fell in a slow
//! stretch.
//!
//! So the measuring thread runs a fixed calibration kernel
//! ([`kernel_ns`]) between operations, at most every [`EVERY`], and scales
//! each CPU time by how fast the kernel ran around it:
//!
//! ```text
//! reference time = CPU time × REFERENCE_NS / median kernel CPU time nearby
//! ```
//!
//! A reference core is one on which the kernel takes [`REFERENCE_NS`].
//! The kernel belongs to the benchmark, so no change to the program alters
//! it: a program change moves the scaled figures as it moves CPU time,
//! while a slow stretch of the host slows the kernel about as much as the
//! program and cancels out. The kernel does what the program does most:
//! it allocates, hashes and compares short keys and strings in hash and
//! tree maps. A kernel of random memory reads and sorting tracked the
//! program worse: with it the scaled median of two runs of one seed
//! differed by 6%, with this one by under 2%.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Duration;

use crate::cpu::Stamp;
use crate::inputs::splitmix64;
use crate::stats;

/// Kernel CPU time on the reference core; about what it takes on an
/// unloaded 2.1 GHz Xeon core.
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// Wall time between kernel samples.
pub const EVERY: Duration = Duration::from_millis(100);

/// Kernel samples on each side of an operation that scale its time.
const HALF_WINDOW: usize = 4;

/// Runs the calibration kernel once; returns the thread's CPU nanoseconds
/// for it.
pub fn kernel_ns() -> u64 {
    let started = Stamp::now();
    black_box(kernel());
    started.elapsed().1
}

/// The same work on every call: counts over small integer keys in a hash
/// map and a tree map, then interning of symbol-like strings.
fn kernel() -> u64 {
    let mut state = 0x5eed_cafe_u64;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut ordered = BTreeMap::new();
    let mut names = Vec::new();
    for i in 0..8_000u64 {
        let key = splitmix64(&mut state) & 0xfff;
        *counts.entry(key).or_default() += i;
        if i % 4 == 0 {
            ordered.insert(key, i);
            names.push(format!("f{key}"));
        }
    }
    let mut symbols: HashMap<String, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..6_000u64 {
        let k = splitmix64(&mut state) % 3_000;
        let name = format!("com.app.Class{k}.method{}", k % 17);
        let next = symbols.len() as u64;
        acc ^= *symbols.entry(name).or_insert(next) ^ i;
    }
    let mut sorted: Vec<&String> = symbols.keys().collect();
    sorted.sort();
    acc ^ (counts.len() + ordered.len() + names.len() + sorted.len()) as u64
}

/// Median of the samples within [`HALF_WINDOW`] places of `center`; the
/// window is cut at the ends of `samples`. `None` without samples.
pub fn window_median(samples: &[u64], center: usize) -> Option<f64> {
    let center = center.min(samples.len().checked_sub(1)?);
    let from = center.saturating_sub(HALF_WINDOW);
    let to = (center + HALF_WINDOW + 1).min(samples.len());
    let window: Vec<f64> = samples[from..to].iter().map(|&s| s as f64).collect();
    stats::median(&window)
}

/// `cpu_ns` of work, in reference-core nanoseconds, when the kernel took
/// `kernel_ns` around it.
pub fn scale(cpu_ns: u64, kernel_ns: f64) -> f64 {
    cpu_ns as f64 * REFERENCE_NS / kernel_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_median_is_centred_and_cut_at_the_ends() {
        let samples = [9, 1, 2, 3, 4, 5, 6, 7, 8, 100, 100];
        assert_eq!(window_median(&[], 0), None);
        // Places 0..=4 at the start.
        assert_eq!(window_median(&samples, 0), Some(3.0));
        // Places 1..=9 around place 5.
        assert_eq!(window_median(&samples, 5), Some(5.0));
        // Places 6..=10 at the end; a centre past the end is the last place.
        assert_eq!(window_median(&samples, 10), Some(8.0));
        assert_eq!(window_median(&samples, 50), Some(8.0));
    }

    #[test]
    fn scale_divides_out_the_kernel_speed() {
        // On the reference core CPU time is unchanged.
        assert_eq!(scale(5_000_000, REFERENCE_NS), 5_000_000.0);
        // A core half as fast takes twice the CPU time for both the kernel
        // and the work; the scaled time is the same.
        assert_eq!(scale(10_000_000, 2.0 * REFERENCE_NS), 5_000_000.0);
    }

    #[test]
    fn kernel_does_the_same_work_each_call() {
        assert_eq!(kernel(), kernel());
        if crate::cpu::thread_ns().is_some() {
            assert!(kernel_ns() > 0);
        }
    }
}
