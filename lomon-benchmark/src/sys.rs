//! What the benchmark measures about processes that the standard library
//! does not expose: a child's CPU time and peak RSS at the moment it is
//! reaped (`wait4`), the calling thread's CPU clock, and the benchmark's
//! own peak RSS.

use std::io;
use std::process::Child;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux resource usage with the 64-bit `struct rusage` layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    /// `ixrss` … `nivcsw`; `nvcsw` is index 11 and `nivcsw` index 12.
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A reaped child: how it ended and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// The exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// User plus system CPU of the whole process, every thread included.
    pub cpu_ns: u64,
    /// Peak resident set size in KiB.
    pub maxrss_kib: u64,
    /// Voluntary plus involuntary context switches over the process life.
    pub ctx_switches: u64,
    /// When `wait4` returned.
    pub at: Instant,
}

/// Wait for `child` to end and collect its resource usage. The child must
/// not have been waited for; afterwards it must not be waited for again.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the C
        // layouts `wait4` writes (`int` and 64-bit `struct rusage`), and
        // `pid` names a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &raw mut status, 0, &raw mut usage) };
        if r == pid {
            break;
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let at = Instant::now();
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Ok(Reaped {
        code,
        cpu_ns: (micros(&usage.utime) + micros(&usage.stime)) * 1000,
        maxrss_kib: usage.maxrss as u64,
        ctx_switches: (usage.rest[11] + usage.rest[12]) as u64,
        at,
    })
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, and the clock id
    // is the calling thread's CPU clock, which always exists.
    let r = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(r, 0, "the thread CPU clock is always readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// User plus system CPU a running process (every thread, live or ended)
/// has used so far, from `/proc/<pid>/stat`, in ns. Its resolution is
/// one clock tick (10 ms on most kernels).
pub fn proc_cpu_ns(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("malformed stat"))
    };
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = u64::try_from(hz).ok().filter(|hz| *hz > 0).unwrap_or(100);
    Ok((ticks(11)? + ticks(12)?) * 1_000_000_000 / hz)
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
