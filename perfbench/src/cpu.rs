//! On-CPU time of the calling thread.
//!
//! The end-to-end run times its operations on this clock. On a shared
//! virtual machine the hypervisor takes a virtual core away for stretches
//! (steal time) whose total changes from minute to minute with the other
//! tenants' load, and a wall clock charges every stretch to the program.
//! The kernel keeps steal time and run-queue waits out of a thread's
//! on-CPU time, so with one worker thread this clock reads how long the
//! operation ran on a core. How fast that core ran is `calib.rs`'s part.

use std::time::Instant;

/// Nanoseconds the calling thread has spent on a CPU, read from
/// `/proc/thread-self/schedstat`. `None` where the kernel does not expose
/// it.
pub fn thread_ns() -> Option<u64> {
    // The kernel brings a running thread's total up to date only at
    // scheduler events and timer ticks, every few milliseconds. A yield is
    // a scheduler event, so the total read right after it is exact.
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// A point in time on both the wall clock and the thread's CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
}

impl Stamp {
    /// Now. The CPU reading is 0 where the clock is unavailable, which
    /// `measure` rules out before it times anything.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_ns: thread_ns().unwrap_or(0),
        }
    }

    /// `(wall, cpu)` nanoseconds since `self`.
    pub fn elapsed(&self) -> (u64, u64) {
        let wall = u64::try_from(self.wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu = thread_ns().unwrap_or(0).saturating_sub(self.cpu_ns);
        (wall, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_but_not_sleep() {
        let Some(start) = thread_ns() else {
            return; // no schedstat on this kernel
        };
        let stamp = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (wall, cpu) = stamp.elapsed();
        assert!(wall >= 30_000_000);
        assert!(cpu < 10_000_000, "a sleep costs little CPU, read {cpu} ns");
        // Spin for 20 ms of wall time; the thread is on a CPU for most of it.
        let stamp = Stamp::now();
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (_, cpu) = stamp.elapsed();
        assert!(
            cpu > 1_000_000,
            "spinning registers CPU time, read {cpu} ns"
        );
        assert!(thread_ns().expect("clock readable") > start);
    }
}
