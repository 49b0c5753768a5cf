//! Host facts the benchmark reports: process CPU time, peak resident
//! memory and provenance (core count, git revision, compiler).

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's ceiling for its dynamic mmap threshold on 64-bit targets.
const MMAP_THRESHOLD: i32 = 32 << 20;

/// Fixes glibc's malloc thresholds for the whole run.
///
/// By default glibc raises its mmap threshold the first time a large
/// mmapped block is freed, so whether the engine's batch arenas (a little
/// over 128 KiB) come from the heap or from a fresh mmap/munmap pair
/// depends on the process's allocation history. Without this, runs of the
/// same code split into two modes about 1.5x apart on `engine1_pps`.
/// Fixing the threshold at glibc's dynamic ceiling (trim threshold at
/// twice that, as glibc's own adjustment does) gives every run the heap
/// path. Other C libraries ignore the unknown call's result.
pub fn fix_malloc_thresholds() {
    // SAFETY: `mallopt` takes two plain integers and only changes the
    // allocator's tuning; it is called before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD);
    }
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call (64-bit Linux layout: two i64 fields), and the clock id is a
    // constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The unit of `/proc/stat`'s time columns: Linux reports them in
/// USER_HZ ticks, 100 per second on every architecture it ships.
pub const USER_HZ: f64 = 100.0;

/// Time the hypervisor has stolen from all of the host's vCPUs since
/// boot, in USER_HZ ticks (the `steal` column of `/proc/stat`'s `cpu`
/// line); 0 where the file or the column is missing.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (never searching parent directories); "none" outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == refname).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PPBENCH_RUSTC_VERSION")
}
