//! A fixed calibration kernel, timed beside the program so that a change
//! in the host's speed can be divided out of the gated timings.
//!
//! On a shared virtual machine the time an instruction takes drifts by a
//! quarter or more from minute to minute (co-tenants on the sibling
//! hyperthread, contention for caches and memory bandwidth), and the
//! hypervisor steals whole time slices in bursts. The program slows with
//! the host, and so does this kernel, whose code belongs to the benchmark
//! and does not change with the program. A gated timing is a CPU time,
//! reported as measured × (the kernel's reference CPU time / its CPU time
//! in the same phase of the run): the time it would have read on the
//! reference host. A change to the program moves the measurement but not
//! the kernel.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::stats;
use crate::sys;

/// Threads the kernel runs on at once, one per virtual CPU of the
/// reference host, so that it samples the speed of both CPUs the server
/// and the load generator run on.
pub const THREADS: usize = 2;

/// The kernel's mean per-thread CPU time on the reference host (2
/// virtual CPUs of a shared x86-64 VM, release build), in µs; `perfbench
/// --calibrate` prints it for the host it runs on.
pub const REFERENCE_CPU_US: f64 = 2530.0;

/// Times the kernel [`ROUNDS`] times on [`THREADS`] threads at once and
/// returns the host factor: how many times slower than on the reference
/// host the least disturbed round ran, in CPU time. Contention for the
/// core slows the kernel; time the hypervisor steals is not CPU time and
/// does not.
pub fn measure() -> f64 {
    fastest_round_us() / REFERENCE_CPU_US
}

/// The least CPU time in µs one kernel thread took over [`ROUNDS`]
/// rounds.
fn fastest_round_us() -> f64 {
    let fastest = (0..ROUNDS).map(|_| kernel_cpu()).min().expect("at least one round");
    fastest.as_secs_f64() * 1e6
}

/// Kernel rounds per measurement; an interrupt or a migration lengthens
/// one round, drift of the host lengthens all of them.
const ROUNDS: usize = 3;

/// The mean CPU time of one kernel thread.
fn kernel_cpu() -> Duration {
    let cpu: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let before = sys::thread_cpu_time();
                    std::hint::black_box(kernel(t as u64));
                    sys::thread_cpu_time() - before
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).collect()
    });
    cpu.iter().sum::<Duration>() / THREADS as u32
}

/// The work the kernel does: a little of each kind of work the request
/// path does, in fixed amounts. Sorting (branches over a working set
/// larger than the L1 cache), an ordered map (pointer chasing and small
/// allocations), number formatting and parsing (as JSON requests and
/// responses need), and system calls on a socket pair.
fn kernel(salt: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Four sorts of a 64 KiB buffer, below the allocator's mmap
    // threshold: freeing a larger one would raise that process-wide
    // threshold, changing how the program under test allocates and
    // leaving freed memory in each arena a kernel thread touched, which
    // moves the process's peak RSS from run to run.
    let mut values = vec![0u64; 1 << 13];
    let mut acc = 0u64;
    for _ in 0..4 {
        values.iter_mut().for_each(|v| *v = next());
        values.sort_unstable();
        acc = acc.wrapping_add(values[values.len() / 2]);
    }

    let mut map = BTreeMap::new();
    for k in 0..4096u64 {
        map.insert(next() % 65_536, k);
    }
    for _ in 0..4096 {
        acc = acc.wrapping_add(map.range(next() % 65_536..).next().map_or(0, |(_, v)| *v));
    }

    let mut text = String::with_capacity(32 * 1024);
    for _ in 0..2048 {
        let _ = write!(text, "{},", (next() % 10_000_000) as f64 / 100.0);
    }
    for part in text.split(',') {
        if let Ok(v) = part.parse::<f64>() {
            acc = acc.wrapping_add(v as u64);
        }
    }

    let (mut a, mut b) = UnixStream::pair().expect("calibration socket pair");
    let out = [salt as u8; 64];
    let mut back = [0u8; 64];
    for _ in 0..256 {
        a.write_all(&out).expect("calibration socket write");
        b.read_exact(&mut back).expect("calibration socket read");
        acc = acc.wrapping_add(u64::from(back[0]));
    }
    acc
}

/// A timing scaled to the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Normalized {
    /// `raw` divided by `factor`.
    pub value: f64,
    /// The median of the measurements as taken.
    pub raw: f64,
    /// The median of the host factors measured beside them.
    pub factor: f64,
}

/// The median of `values[k]` for each `k` in `chosen`, divided by the
/// median of `factors`. One median over all of a phase's kernel timings
/// follows the host's drift from minute to minute without adding the
/// noise of any single timing.
pub fn normalize(values: &[f64], factors: &[f64], chosen: &[usize]) -> Normalized {
    let mut picked: Vec<f64> = chosen.iter().map(|&k| values[k]).collect();
    let raw = stats::median(&mut picked);
    let factor = stats::median(&mut factors.to_vec());
    Normalized { value: raw / factor, raw, factor }
}

/// Takes `reps` measurements and prints the median and quartiles of
/// their CPU time in µs, the figure [`REFERENCE_CPU_US`] was set from on
/// the reference host.
pub fn print_reference(reps: usize) {
    let mut cpu: Vec<f64> = (0..reps).map(|_| fastest_round_us()).collect();
    println!(
        "{{\"reps\":{reps},\"cpu_us\":{},\"cpu_q1_us\":{},\"cpu_q3_us\":{}}}",
        stats::median(&mut cpu),
        stats::quantile(&mut cpu, 0.25),
        stats::quantile(&mut cpu, 0.75)
    );
}
