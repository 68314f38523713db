//! Host readings: memory high-water mark, per-thread CPU time, and the run
//! metadata printed with every result. Linux `/proc` only; CPU times need
//! the per-task `sched` files.

use std::path::Path;

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

/// CPU seconds a task has run, from the scheduler's `se.sum_exec_runtime`
/// (milliseconds with microsecond digits) in `<task>/sched`.
fn task_cpu_s(task: &Path) -> Option<f64> {
    let sched = std::fs::read_to_string(task.join("sched")).ok()?;
    let line = sched.lines().find(|l| l.starts_with("se.sum_exec_runtime"))?;
    let ms: f64 = line.rsplit(':').next()?.trim().parse().ok()?;
    Some(ms / 1e3)
}

/// CPU seconds the calling thread has used.
pub fn this_thread_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self")).expect("/proc/thread-self/sched is readable")
}

/// CPU seconds used so far by each live thread of this process, keyed by
/// thread name. Threads that exited are not listed.
pub fn cpu_by_thread() -> Vec<(String, f64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| {
            let dir = t.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?.trim().to_string();
            Some((name, task_cpu_s(&dir)?))
        })
        .collect()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// Build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Commit checked out in the current directory, read from `.git` without
/// running git; "unavailable" outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let commit = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    });
    commit.unwrap_or_else(|| "unavailable".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = this_thread_cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(this_thread_cpu_s() > before);
        assert!(!cpu_by_thread().is_empty());
    }
}
