//! Pacing: every in-process cell is timed in CPU seconds, between two runs
//! of a fixed reference loop, and scaled to the speed the machine had at
//! that moment.
//!
//! Why. This sandbox disturbs a measurement in two ways, both seen while
//! the benchmark was written:
//!
//! * Its speed wanders by a quarter on a scale of milliseconds to tens of
//!   seconds (a sibling hyperthread, most likely). The loop below, run back
//!   to back for ten minutes, takes 1.54 ms at best, 2.0 ms at the median
//!   and 3.0 ms at the 95th percentile, and a simulation cell, a BVH build
//!   and a render timed next to it move with it (correlation 0.4–0.85 per
//!   cell). No order statistic of raw times removes that — episodes outlast
//!   a whole run — so ten 20 s runs of one matrix spread 0.05–0.23
//!   (interquartile range over median) whichever of median, lower quartile
//!   or minimum is taken per cell. Dividing each cell by the loop time
//!   measured right before and after it brings the same runs to 0.03–0.06.
//! * For minutes at a time the host takes the CPU away: `/proc/stat` showed
//!   44% of the VM's CPU time stolen, a 0.25 s build took 0.3–1.5 s of wall
//!   clock and a 3.2 s cold sweep 8–12 s. The process's CPU clock does not
//!   run while the VM is descheduled; wall clock does.
//!
//! ISSUE 11 advised against a calibration kernel because one tried at the
//! scale of whole repetitions had not helped; bracketing every cell does,
//! and the acceptance procedure needs it.
//!
//! What it means. A paced second is a CPU second on a machine that runs
//! the reference loop in [`REFERENCE_S`] — this sandbox when nothing
//! contends with it. The in-process workloads are single-threaded
//! computation, so on a quiet machine it is a wall-clock second; a change
//! that made them sleep or block would not show here, but would in the
//! serve workloads, which run the same code in servers and are timed by
//! wall clock. `serve_cold`'s sweep, three seconds of simulation on both
//! CPUs, is wall clock divided by the loop's slowness as a sampler thread
//! saw it during the sweep (its ten runs spread 0.18–0.20 otherwise);
//! `serve_warm` waits on sockets and is left as measured.
//! `bench.speed_factor` reports how much slower than the reference the
//! machine was (median over the run) and `bench.steal_pct` how much of the
//! VM's CPU time the host took; the raw totals are printed beside the
//! paced ones.

use crate::span::Tracer;
use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What the reference loop takes on the reference machine when nothing
/// contends with it: the 5th percentile of 742 runs over seven minutes on
/// the 2-core sandbox the benchmark was defined on.
pub const REFERENCE_S: f64 = 0.0016;

const ROUNDS: u32 = 800_000;

/// How often the sampler thread of [`Pacer::sampled`] runs the loop: a 2%
/// duty cycle, so it takes 1% of a saturated 2-CPU machine.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Eight independent multiply-add chains: bound by arithmetic throughput,
/// as the simulator's and the traversal's inner loops are, and so slowed by
/// whatever shares the core's execution units. (A single dependent chain
/// is latency-bound and barely notices: its correlation with the cells was
/// half as high.) `black_box` once a round keeps the compiler from folding
/// the recurrence; the loop touches no memory beyond its 64 bytes. Returns
/// the CPU seconds the calling thread spent in it.
fn reference_loop() -> f64 {
    let started = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..ROUNDS {
        for lane in &mut lanes {
            *lane = lane
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        black_box(&mut lanes);
    }
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - started
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds used so far by this process (all threads) or this thread,
/// at nanosecond resolution. `std` has no such clock and `/proc/self/stat`
/// ticks at 10 ms, too coarse for a 2 ms loop, hence the foreign call.
fn cpu_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusive for the call; on 64-bit Linux
    // (the only target: the benchmark reads /proc) that struct is two
    // 64-bit integers, as declared above. Both clock ids are Linux's.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// One operation's time: wall clock as measured, and scaled to the
/// reference speed (CPU seconds for a cell, wall clock for a sampled span).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    pub wall: f64,
    pub paced: f64,
}

/// Brackets cells with reference loops. Consecutive cells share the loop
/// between them, so a pass of `n` cells runs `n + 1` loops (2 ms each).
#[derive(Debug, Default)]
pub struct Pacer {
    /// The loop time measured after the previous cell, if nothing but the
    /// benchmark's own bookkeeping ran since.
    last: Option<f64>,
    /// Every operation's speed factor: loop time / [`REFERENCE_S`].
    factors: Vec<f64>,
}

impl Pacer {
    /// Forgets the last loop time: call when something long ran since the
    /// previous cell, so the next cell measures its own "before".
    pub fn rest(&mut self) {
        self.last = None;
    }

    fn sample(tracer: &mut Tracer) -> f64 {
        tracer.timed("bench.pace", "", |_| reference_loop()).0
    }

    /// Runs `f` as a span between two reference loops and paces the CPU
    /// seconds the process used in it.
    pub fn cell<T>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Paced) {
        let before = self.last.take().unwrap_or_else(|| Pacer::sample(tracer));
        let cpu_started = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
        let (out, wall) = tracer.timed(name, label, f);
        let cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_started;
        let after = Pacer::sample(tracer);
        self.last = Some(after);
        let factor = (before + after) / 2.0 / REFERENCE_S;
        self.factors.push(factor);
        (out, Paced { wall, paced: cpu / factor })
    }

    /// Runs `f`, which waits for other processes, while a sampler thread
    /// runs the reference loop every [`SAMPLE_EVERY`], and paces `f`'s wall
    /// clock by the median loop time seen.
    pub fn sampled<T>(&mut self, f: impl FnOnce() -> T) -> (T, Paced) {
        self.last = None;
        let done = AtomicBool::new(false);
        let (out, wall, loops) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut loops = vec![reference_loop()];
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    loops.push(reference_loop());
                }
                loops
            });
            let started = Instant::now();
            let out = f();
            let wall = started.elapsed().as_secs_f64();
            // Relaxed: the flag publishes nothing but itself.
            done.store(true, Ordering::Relaxed);
            (out, wall, sampler.join().expect("sampler thread panicked"))
        });
        let factor = median(&loops) / REFERENCE_S;
        self.factors.push(factor);
        (out, Paced { wall, paced: wall / factor })
    }

    /// The machine's speed over the run: median factor (1 = the reference
    /// machine, 1.25 = a quarter slower).
    pub fn speed_factor(&self) -> f64 {
        median(&self.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_runs_with_work_and_not_with_sleep() {
        let before = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        std::thread::sleep(Duration::from_millis(20));
        let slept = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - before;
        assert!((0.0..0.010).contains(&slept), "{slept} CPU seconds while sleeping");
        let spun = reference_loop();
        assert!(cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - before >= spun);
        assert!(
            cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) >= spun,
            "the process clock covers every thread"
        );
    }

    #[test]
    fn reference_loop_does_real_work() {
        let once = reference_loop();
        assert!(once > 0.0002, "{once} s: the loop was optimised away");
        assert!(once < 0.5, "{once} s: the loop is far slower than the 2 ms it is sized for");
    }

    #[test]
    fn a_cell_is_scaled_by_the_loops_around_it() {
        let mut tracer = Tracer::new(true);
        let mut pacer = Pacer::default();
        let (value, first) = pacer.cell(&mut tracer, "sim.cell", "a", |_| 7);
        assert_eq!(value, 7);
        assert!(first.wall >= 0.0 && first.paced >= 0.0);
        let (_, second) = pacer.cell(&mut tracer, "sim.cell", "b", |_| reference_loop());
        assert!(second.wall > 0.0 && second.paced > 0.0);
        assert_eq!(pacer.factors.len(), 2);
        assert!(pacer.speed_factor() > 0.0);
        // Two cells share the loop between them: 3 loops, 2 cells.
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["bench.pace", "sim.cell", "bench.pace", "sim.cell", "bench.pace"]);
        pacer.rest();
        pacer.cell(&mut tracer, "sim.cell", "c", |_| ());
        assert_eq!(tracer.spans().len(), 8, "after a rest the next cell measures its own before");
    }

    #[test]
    fn a_sampled_span_is_wall_clock_over_the_sampled_factor() {
        let mut pacer = Pacer::default();
        let (value, t) = pacer.sampled(|| {
            std::thread::sleep(Duration::from_millis(250));
            11
        });
        assert_eq!(value, 11);
        assert!(t.wall >= 0.250);
        let factor = pacer.factors[0];
        assert!((t.paced - t.wall / factor).abs() < 1e-12);
        assert!(factor > 0.1, "the sampler ran the loop: factor {factor}");
    }
}
