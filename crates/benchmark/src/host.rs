//! What produced the numbers: host, build and revision, plus the
//! process's peak resident set.

use crate::json::Json;

/// Give the allocator's free memory back to the kernel, then reset the
/// peak-RSS mark (`VmHWM`) to the current RSS, so the next
/// [`peak_rss_mb`] covers only live memory and what runs in between.
///
/// glibc keeps freed pages mapped: without the trim, one workload's
/// peak would include whatever the workloads before it left behind.
/// Returns false where `/proc/self/clear_refs` is unavailable; the
/// peak then covers the whole process so far.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it locks the
    // allocator's arenas and returns their free pages to the kernel,
    // which is sound at any point of the program.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident set (`VmHWM`) in MiB since the last reset, or `None`
/// off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the checkout in the working directory, read
/// from `.git` directly (loose ref, then `packed-refs`); "unknown"
/// outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("AQT_BENCHMARK_RUSTC")
}

/// Revision, host cores, CPU model and compiler as one JSON object.
pub fn provenance() -> Json {
    Json::object()
        .with("rev", git_revision())
        .with("host_cores", cores())
        .with("cpu", cpu_model())
        .with("rustc", rustc_version())
}
