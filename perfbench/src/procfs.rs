//! Process and thread counters read from `/proc` (Linux). Every reader
//! returns `None` where the file is missing or unparsable.

use std::fs;

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Process high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kib = field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")?;
    Some(kib as f64 / 1024.0)
}

/// Voluntary context switches of the calling thread.
pub fn thread_voluntary_switches() -> Option<u64> {
    field(
        &fs::read_to_string("/proc/thread-self/status").ok()?,
        "voluntary_ctxt_switches:",
    )
}

/// On-CPU nanoseconds of one task (`/proc/self/task/<tid>/schedstat`).
fn task_cpu_ns(tid: &str) -> Option<u64> {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn tasks() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| Some(e.ok()?.file_name().to_str()?.to_string()))
                .collect()
        })
        .unwrap_or_default()
}

/// On-CPU nanoseconds summed over the live threads of this process.
pub fn process_cpu_ns() -> Option<u64> {
    tasks().iter().map(|tid| task_cpu_ns(tid)).sum()
}

/// On-CPU nanoseconds of the threads whose name starts with `prefix` (the
/// kernel keeps the first 15 bytes of a thread name).
pub fn named_threads_cpu_ns(prefix: &str) -> Option<u64> {
    tasks()
        .iter()
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.starts_with(prefix))
        })
        .map(|tid| task_cpu_ns(tid))
        .sum()
}
