//! Process-level measurement: child wall time, CPU and peak memory via
//! `wait4`, thread CPU via `clock_gettime`, and `/proc` readers for `mayad`.
//!
//! std offers no rusage, and the repository has no `libc` dependency, so
//! the three C functions are declared here (x86_64/aarch64 Linux layout).

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn cpu_us(r: &Rusage) -> u64 {
    let us = |t: Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    us(r.ru_utime) + us(r.ru_stime)
}

/// One finished child process.
pub struct ChildRun {
    /// Just before the spawn.
    pub t0: Instant,
    /// Just after the reaped exit.
    pub t1: Instant,
    /// Spawn to reaped exit.
    pub wall_ns: u64,
    /// `Some(code)` on a normal exit, `None` when killed by a signal.
    pub exit_code: Option<i32>,
    /// User + system CPU of the child.
    pub cpu_us: u64,
    /// Peak resident set of the child, in KiB.
    pub maxrss_kb: u64,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `cmd` to completion with stdout and stderr sent to the two files
/// (so no pipe can fill up and stall the child), timing spawn to exit.
pub fn run_child(cmd: &mut Command, out: &Path, err: &Path) -> Result<ChildRun, String> {
    let out_file = File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let err_file = File::create(err).map_err(|e| format!("create {}: {e}", err.display()))?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(out_file))
        .stderr(Stdio::from(err_file));
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std's `Child` never
        // waits on its own), and both out-pointers are valid, exclusively
        // borrowed locals of the types the C prototype names.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 {pid}: {e}"));
        }
    }
    let t1 = Instant::now();
    drop(child);
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let read = |p: &Path| {
        std::fs::read(p)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .map_err(|e| format!("read {}: {e}", p.display()))
    };
    Ok(ChildRun {
        t0,
        t1,
        wall_ns: t1.duration_since(t0).as_nanos() as u64,
        exit_code,
        cpu_us: cpu_us(&usage),
        maxrss_kb: usage.ru_maxrss.max(0) as u64,
        stdout: read(out)?,
        stderr: read(err)?,
    })
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`, and
    // the clock id is a constant Linux always supports.
    let r = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        r, 0,
        "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU of every thread of process `pid`, live or exited,
/// in milliseconds (clock-tick resolution).
pub fn process_cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime 14, stime 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return Err(format!("unexpected /proc/{pid}/stat layout"));
    };
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    Ok((utime + stime) as f64 * 1000.0 / hz as f64)
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process), KiB.
pub fn peak_rss_kb(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Spins (never sleeps) for `us` microseconds: the detector self-test's
/// stand-in for a slower layer.
pub fn busy_wait_us(us: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < us * 1000 {
        std::hint::spin_loop();
    }
}
