//! The environment stamp: enough about the machine, the toolchain and the
//! inputs for two result files to be told apart — or proved comparable.

use crate::workloads::authority_scan::service_workers;

pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub git_dirty: String,
    pub features: &'static str,
    pub seed: u64,
    pub reps: String,
    pub service_workers: usize,
    pub mode: &'static str,
}

/// A value `run.sh` hands over in the environment; the binary starts no
/// process of its own.
fn handed_over(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Stamp {
    pub fn collect(seed: u64, reps: &str, trace: bool, smoke: bool) -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: handed_over("YARDSTICK_RUSTC"),
            git_rev: handed_over("YARDSTICK_GIT_REV"),
            git_dirty: handed_over("YARDSTICK_GIT_DIRTY"),
            features: "naming-resolver[parallel,telemetry], no recorder installed",
            seed,
            reps: reps.to_string(),
            service_workers: service_workers(),
            mode: match (smoke, trace) {
                (true, _) => "smoke",
                (false, true) => "traced",
                (false, false) => "full",
            },
        }
    }
}
