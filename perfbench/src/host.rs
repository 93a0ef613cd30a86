//! The host side of a run: the speed witness, its contention guard, and
//! everything read from `/proc` (memory, I/O counters, CPU model, mounts).

use std::ffi::{OsStr, OsString};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of the witness kernel: about 1.4 ms on the reference host
/// (2-vCPU KVM guest, "Intel Xeon Processor") in its fast phases and
/// 2.5–3 ms in its slow ones.
const WITNESS_REPS: usize = 14_400;

/// `W₀`: the witness time, in seconds, that adjusted times are scaled
/// to. A constant, so an adjusted time reads as "this op on a host whose
/// witness takes `W₀`".
pub const W0_S: f64 = 2.5e-3;

/// How much harder the host's phases hit real work than the
/// single-thread witness: between slow and fast phases of the reference
/// host, raw op times moved as the witness ratio to the power 1.20–1.26
/// (2.1–2.5× against 1.9–2.1×), so that ratio is raised to this power.
pub const ALPHA: f64 = 1.2;

/// The factor that scales an op's raw time to its adjusted time, from
/// the witness samples taken just before and just after the op:
/// `(W₀ ÷ w)^alpha` with `w` their mean.
pub fn factor(before: f64, after: f64, alpha: f64) -> f64 {
    (W0_S / ((before + after) / 2.0)).powf(alpha)
}

/// Attempts at one clean witness sample before the sample is dropped.
const WITNESS_TRIES: usize = 3;

/// Share of dropped witness samples above which a run fails: contention
/// the program causes itself must not hide behind the adjustment.
pub const MAX_DROPPED_SHARE: f64 = 0.1;

/// The benchmark's own fixed max-plus loop: 8 rows of 64 lanes (2 KiB,
/// L1-resident), nothing from the program under test. The host's fast
/// and slow phases move it and the measured ops alike.
fn witness_kernel() -> f32 {
    let mut x = [[0.0f32; 64]; 8];
    for (k, row) in x.iter_mut().enumerate() {
        for (i, v) in row.iter_mut().enumerate() {
            *v = ((k * 64 + i) % 37) as f32 * 0.25;
        }
    }
    let mut y = [f32::NEG_INFINITY; 64];
    for rep in 0..WITNESS_REPS {
        let x = black_box(&x);
        for (k, row) in x.iter().enumerate() {
            let a = (k as f32) * 0.5 - (rep % 7) as f32;
            for (yi, xi) in y.iter_mut().zip(row) {
                *yi = yi.max(a + xi);
            }
        }
        black_box(&mut y);
    }
    y.iter().sum()
}

/// Witness samples of one run and the rule that turns them into
/// adjusted times.
#[derive(Default)]
pub struct Witness {
    /// Accepted samples, seconds, in the order taken.
    pub samples: Vec<f64>,
    /// Samples dropped because another thread of the process ran.
    pub dropped: usize,
}

impl Witness {
    /// Time the witness on this thread and return its seconds. A sample
    /// during which any other thread of this process ran is retaken;
    /// after [`WITNESS_TRIES`] contaminated attempts it is dropped and the
    /// last accepted sample stands in.
    pub fn sample(&mut self) -> f64 {
        self.sample_beside(None)
    }

    /// [`Witness::sample`] while thread `partner` (a `/proc` task id)
    /// times its own witness at the same moment; the guard ignores it.
    pub fn sample_beside(&mut self, partner: Option<&OsStr>) -> f64 {
        for _ in 0..WITNESS_TRIES {
            let before = other_threads_cpu_ns(partner);
            let t = Instant::now();
            black_box(witness_kernel());
            let w = t.elapsed().as_secs_f64();
            if other_threads_cpu_ns(partner) == before {
                self.samples.push(w);
                return w;
            }
        }
        self.dropped += 1;
        self.samples.last().copied().unwrap_or(W0_S)
    }

    /// Share of samples dropped.
    pub fn dropped_share(&self) -> f64 {
        self.dropped as f64 / (self.dropped + self.samples.len()).max(1) as f64
    }

    /// Fold another thread's samples into this record.
    pub fn merge(&mut self, other: Witness) {
        self.samples.extend(other.samples);
        self.dropped += other.dropped;
    }

    /// `(median, min, max)` of the accepted samples, milliseconds.
    pub fn summary_ms(&self) -> (f64, f64, f64) {
        let ms: Vec<f64> = self.samples.iter().map(|s| s * 1e3).collect();
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ms.iter().copied().fold(0.0, f64::max);
        (crate::stats::median(&ms), min, max)
    }
}

/// The calling thread's task id, as named under `/proc/self/task`.
pub fn thread_id() -> Option<OsString> {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(OsStr::to_os_string))
}

/// CPU time, in nanoseconds, of every thread of this process except the
/// calling one and `partner` (first field of
/// `/proc/self/task/*/schedstat`).
fn other_threads_cpu_ns(partner: Option<&OsStr>) -> u64 {
    let me = thread_id();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| Some(t.file_name()) != me && Some(t.file_name().as_os_str()) != partner)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// A `Key:   value ...` field of a `/proc` text file, as a number.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// `(wchar, syscw)` of this process: bytes handed to `write`-family
/// calls and the number of those calls.
pub fn io_counters() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "wchar").unwrap_or(0),
        proc_field("/proc/self/io", "syscw").unwrap_or(0),
    )
}

/// The CPU model string of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Filesystem type of the mount holding `path` (the longest mount point
/// in `/proc/self/mountinfo` that prefixes its canonical form).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mnt), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-")) else {
            continue;
        };
        let mnt = mnt.replace("\\040", " ");
        if abs.starts_with(&mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            if let Some(fstype) = fields.get(dash + 1) {
                best = Some((mnt.len(), (*fstype).to_string()));
            }
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// True for filesystems whose files live in memory.
pub fn memory_backed(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}

/// Make `dir` memory-backed for the rest of this process: when it is not
/// already, mount a tmpfs on it inside a private mount namespace, so the
/// mount is invisible outside this process and vanishes with it. Must run
/// while the process is still single-threaded. Returns the resulting
/// filesystem type; the caller refuses to go on unless it is memory-backed.
pub fn private_tmpfs(dir: &Path) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let now = fs_type(dir);
    if memory_backed(&now) {
        return Ok(now);
    }
    ns::enter_private_mount_namespace()?;
    ns::mount_tmpfs(dir)?;
    Ok(fs_type(dir))
}

/// The two system calls behind [`private_tmpfs`], which the standard
/// library does not wrap.
#[allow(unsafe_code)]
mod ns {
    use std::ffi::{c_char, c_int, c_ulong, c_void, CString};
    use std::io::{Error, Result};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    const CLONE_NEWNS: c_int = 0x0002_0000;
    const CLONE_NEWUSER: c_int = 0x1000_0000;
    const MS_NOSUID: c_ulong = 2;
    const MS_NODEV: c_ulong = 4;
    const MS_REC: c_ulong = 16_384;
    const MS_PRIVATE: c_ulong = 1 << 18;

    extern "C" {
        fn unshare(flags: c_int) -> c_int;
        fn mount(
            source: *const c_char,
            target: *const c_char,
            fstype: *const c_char,
            flags: c_ulong,
            data: *const c_void,
        ) -> c_int;
        fn getuid() -> u32;
        fn getgid() -> u32;
    }

    fn check(rc: c_int) -> Result<()> {
        if rc == 0 {
            Ok(())
        } else {
            Err(Error::last_os_error())
        }
    }

    /// Detach this process's mount table from the host's. A privileged
    /// process needs only a new mount namespace; otherwise a new user
    /// namespace maps the caller to root inside it first.
    pub(super) fn enter_private_mount_namespace() -> Result<()> {
        // SAFETY: unshare(2) takes flags only and touches no memory of
        // ours; the caller runs it before any other thread exists.
        if check(unsafe { unshare(CLONE_NEWNS) }).is_err() {
            // SAFETY: getuid/getgid cannot fail and read no memory.
            let (uid, gid) = unsafe { (getuid(), getgid()) };
            // SAFETY: as above, flags only.
            check(unsafe { unshare(CLONE_NEWUSER | CLONE_NEWNS) })?;
            std::fs::write("/proc/self/setgroups", "deny")?;
            std::fs::write("/proc/self/uid_map", format!("0 {uid} 1"))?;
            std::fs::write("/proc/self/gid_map", format!("0 {gid} 1"))?;
        }
        let root = CString::new("/").expect("no NUL in a literal");
        // SAFETY: `root` is a valid NUL-terminated string that outlives
        // the call; NULL source, fstype and data are allowed for a
        // propagation change.
        check(unsafe {
            mount(
                std::ptr::null(),
                root.as_ptr(),
                std::ptr::null(),
                MS_REC | MS_PRIVATE,
                std::ptr::null(),
            )
        })
    }

    /// Mount a fresh tmpfs on `dir` (in the private namespace).
    pub(super) fn mount_tmpfs(dir: &Path) -> Result<()> {
        let target = CString::new(dir.as_os_str().as_bytes())?;
        let fstype = CString::new("tmpfs").expect("no NUL in a literal");
        let data = CString::new("size=256m,mode=0700").expect("no NUL in a literal");
        // SAFETY: every pointer is a valid NUL-terminated string that
        // outlives the call; the source name is ignored for tmpfs.
        check(unsafe {
            mount(
                fstype.as_ptr(),
                target.as_ptr(),
                fstype.as_ptr(),
                MS_NOSUID | MS_NODEV,
                data.as_ptr().cast(),
            )
        })
    }
}
