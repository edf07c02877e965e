//! What the benchmark needs to know about the machine it runs on: cores,
//! peak resident memory, last-level cache size, sustainable memory
//! bandwidth (a STREAM-style triad), and the git state of the checkout.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Pin the calling thread — and every thread started from it afterwards —
/// to the CPU it is running on. The untraced pass does this before it
/// starts anything, so that the reference work (`refwork`) samples the very
/// CPU the program runs on: on the shared reference host the two CPUs are
/// disturbed independently. Returns the CPU, or `None` where pinning is
/// not possible (the run then goes ahead unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // glibc's own wrappers; std already links libc.
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16;
        // SAFETY: no arguments, no memory touched.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; WORDS];
        *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
        // SAFETY: `mask` is WORDS × 8 readable bytes, as the size says;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// A `kB` field of a `/proc` status file, in KiB.
fn proc_kib(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB. `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    proc_kib("/proc/self/status", "VmHWM:").map(|k| k as f64 / 1024.0)
}

pub fn mem_available_mib() -> Option<f64> {
    proc_kib("/proc/meminfo", "MemAvailable:").map(|k| k as f64 / 1024.0)
}

/// Size of the largest (last-level) cache cpu0 sees, from sysfs, in MiB.
pub fn llc_mib() -> Option<f64> {
    let mut best: Option<(u32, f64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(mib)) = (level.trim().parse::<u32>(), parse_size_mib(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, mib));
        }
    }
    best.map(|(_, mib)| mib)
}

/// `"2048K"` / `"32M"` → MiB.
fn parse_size_mib(s: &str) -> Option<f64> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: f64 = digits.parse().ok()?;
    match unit {
        "K" | "k" => Some(n / 1024.0),
        "M" | "m" => Some(n),
        "G" | "g" => Some(n * 1024.0),
        "" => Some(n / (1024.0 * 1024.0)),
        _ => None,
    }
}

/// Outcome of the bandwidth probe.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best of the timed passes, counting 24 bytes per element (two reads,
    /// one write; write-allocate traffic is not counted, as in STREAM).
    pub gbs: f64,
    /// Size of each of the three arrays, MiB.
    pub array_mib: f64,
    /// Last-level cache the arrays were sized against, MiB.
    pub llc_mib: f64,
}

impl Triad {
    /// The roofline rule asks for arrays of at least four times the LLC.
    pub fn arrays_clear_llc(&self) -> bool {
        self.array_mib >= 4.0 * self.llc_mib
    }
}

/// STREAM triad `a = b + s·c` on one thread. The target is `4 × LLC` per
/// array (at least 64 MiB), within a quarter of the available memory. The
/// arrays are touched progressively under a time budget: inside a VM a
/// first touch can cost tens of microseconds per page, and three arrays of
/// four times a 260 MiB "LLC" would take half a minute to fault in. What
/// was touched in time is what the triad runs on; when that is less than
/// `4 × LLC`, [`Triad::arrays_clear_llc`] is false, the number is still
/// printed with both sizes, and no fraction-of-peak is derived from it.
pub fn triad_probe(touch_budget_s: f64) -> Triad {
    let llc = llc_mib().unwrap_or(32.0);
    let want_mib = (4.0 * llc).max(64.0);
    let budget_mib = mem_available_mib().unwrap_or(4096.0) / 4.0;
    let target = ((want_mib.min(budget_mib / 3.0)).max(8.0) * 1024.0 * 1024.0 / 8.0) as usize;
    // `vec![0.0; n]` maps lazily: no page is backed until it is written.
    let mut a = vec![0.0f64; target];
    let mut b = vec![0.0f64; target];
    let mut c = vec![0.0f64; target];
    const CHUNK: usize = 1 << 20; // 8 MiB of f64 per array per step
    let t0 = Instant::now();
    let mut n = 0;
    while n < target && (n == 0 || t0.elapsed().as_secs_f64() < touch_budget_s) {
        let end = (n + CHUNK).min(target);
        a[n..end].fill(0.0);
        b[n..end].fill(1.5);
        c[n..end].fill(0.25);
        n = end;
    }
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        for ((av, bv), cv) in a[..n].iter_mut().zip(&b[..n]).zip(&c[..n]) {
            *av = *bv + s * *cv;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Triad {
        gbs: 24.0 * n as f64 / best / 1e9,
        array_mib: n as f64 * 8.0 / (1024.0 * 1024.0),
        llc_mib: llc,
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Where a result came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Abbreviated HEAD, or "unknown" outside a git checkout (the accepting
    /// driver runs the benchmark from an exported tree).
    pub commit: String,
    /// Paths `git status` lists that are neither the benchmark's own
    /// (`bench_e2e/`, `BENCHMARK.json`, `.gitignore`) nor root-level notes
    /// (`*.md`). Non-empty means the measured program differs from HEAD.
    pub dirty_outside_bench: Vec<String>,
    pub nproc: usize,
    pub simd: &'static str,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let commit = git(&["rev-parse", "--short=12", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let dirty_outside_bench = git(&["status", "--porcelain"])
            .map(|s| {
                s.lines()
                    .filter_map(|l| l.get(3..))
                    .map(|p| p.rsplit(" -> ").next().unwrap_or(p).trim_matches('"'))
                    .filter(|p| !is_benchmark_or_note(p))
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Provenance {
            commit,
            dirty_outside_bench,
            nproc: nproc(),
            simd: pop_simd::mode().name(),
        }
    }

    pub fn in_git(&self) -> bool {
        self.commit != "unknown"
    }
}

/// The benchmark's own files and root-level notes do not change the
/// measured program.
fn is_benchmark_or_note(path: &str) -> bool {
    path.starts_with("bench_e2e/")
        || path == "BENCHMARK.json"
        || path == ".gitignore"
        || (!path.contains('/') && path.ends_with(".md"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size_mib("2048K"), Some(2.0));
        assert_eq!(parse_size_mib("32M"), Some(32.0));
        assert_eq!(parse_size_mib("1G"), Some(1024.0));
        assert_eq!(parse_size_mib("x"), None);
    }

    #[test]
    fn dirty_filter_keeps_program_paths_only() {
        assert!(is_benchmark_or_note("bench_e2e/src/main.rs"));
        assert!(is_benchmark_or_note("BENCHMARK.json"));
        assert!(is_benchmark_or_note("CHANGES.md"));
        assert!(!is_benchmark_or_note("crates/core/src/lib.rs"));
        assert!(!is_benchmark_or_note("crates/bench/README.md"));
        assert!(!is_benchmark_or_note("Cargo.toml"));
    }
}
