//! The host and build facts every result record carries.

use std::fmt::Write as _;
use std::path::Path;

/// Host/build description of a run.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub nproc: usize,
    pub cpu_model: String,
    pub dispatch_class: &'static str,
    pub pool_width: usize,
    pub profile: &'static str,
    pub git_commit: String,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Width of every thread pool the workloads build: all available CPUs.
pub fn pool_width() -> usize {
    nproc()
}

fn cpu_model() -> String {
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

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..40.min(l.len())].to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

impl RunRecord {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        RunRecord {
            workload: workload.to_string(),
            seed,
            trace,
            nproc: nproc(),
            cpu_model: cpu_model(),
            dispatch_class: nnet::gemm::dispatch::active_class().tag(),
            pool_width: pool_width(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_commit: git_commit(),
        }
    }

    /// The record as one JSON object, plus any extra string fields.
    pub fn to_json(&self, extra: &[(String, String)]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":\"{}\",\
             \"dispatch_class\":\"{}\",\"pool_width\":{},\"profile\":\"{}\",\"git_commit\":\"{}\"",
            self.workload,
            self.seed,
            self.trace,
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.dispatch_class,
            self.pool_width,
            self.profile,
            self.git_commit
        );
        for (k, v) in extra {
            let _ = write!(s, ",\"{k}\":\"{}\"", v.replace('"', "'"));
        }
        s.push_str("}}");
        s
    }
}
