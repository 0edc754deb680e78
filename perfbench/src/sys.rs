//! The few OS facilities the load generator needs that `std` lacks:
//! a readiness wait with a sub-millisecond timeout, the thread's timer
//! slack, process and thread CPU clocks, and peak RSS and steal from
//! `/proc`.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Readiness of one polled descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ready {
    pub readable: bool,
    pub writable: bool,
}

/// Waits until one of `fds` (descriptor, wants-write) is ready or
/// `timeout` passes (`None` waits indefinitely). The timeout has
/// nanosecond resolution, unlike `poll(2)`'s milliseconds, so an
/// open-loop generator can sleep exactly until its next send.
pub fn wait(fds: &[(RawFd, bool)], timeout: Option<Duration>, ready: &mut Vec<Ready>) {
    let mut polled: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let spec = timeout
        .map(|d| Timespec { tv_sec: d.as_secs() as i64, tv_nsec: i64::from(d.subsec_nanos()) });
    let spec_ptr = spec.as_ref().map_or(std::ptr::null(), |s| s as *const Timespec);
    // SAFETY: `polled` is a live, correctly laid out `struct pollfd` array
    // of the length passed; `spec_ptr` is null or points at a timespec
    // that outlives the call; a null sigmask leaves the mask unchanged.
    let rc = unsafe { ppoll(polled.as_mut_ptr(), polled.len() as u64, spec_ptr, std::ptr::null()) };
    ready.clear();
    if rc < 0 {
        let err = io::Error::last_os_error();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted, "ppoll failed: {err}");
        ready.resize(fds.len(), Ready::default());
        return;
    }
    // Errors and hang-ups count as readable so the caller's read reports
    // them.
    ready.extend(polled.iter().map(|p| Ready {
        readable: p.revents & !POLLOUT != 0,
        writable: p.revents & POLLOUT != 0,
    }));
}

/// Sets the calling thread's timer slack to 1 ns, so timed waits wake
/// when asked rather than up to the default 50 µs later.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no caller memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

fn cpu_clock(clock: i32) -> Duration {
    let mut spec = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `spec` is a live, correctly laid out timespec the call
    // writes; the CPU-time clocks exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut spec) };
    assert_eq!(rc, 0, "clock_gettime failed: {}", io::Error::last_os_error());
    Duration::new(spec.tv_sec as u64, spec.tv_nsec as u32)
}

/// Process CPU time: user + system time of all threads, the sum of
/// `utime` and `stime` in `/proc/self/stat` at nanosecond rather than
/// clock-tick resolution.
pub fn cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread alone.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant; it touches no caller memory.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU time the hypervisor gave other guests while the virtual CPUs
/// wanted to run (the `steal` column of `/proc/stat`, all CPUs). A run's steal shows
/// how much of its timing noise came from outside the container.
pub fn steal_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / clock_ticks_per_second())
}
