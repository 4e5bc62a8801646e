//! Host fingerprint, memory readings and the host-speed probe, recorded
//! with every result so a number is only ever compared against one taken
//! on matching hardware.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the host-speed probe's dependent integer chain.
const PROBE_STEPS: u64 = 20_000_000;

/// The probe's duration on the reference host (`available_parallelism=2`,
/// `Intel(R) Xeon(R) Processor`, release profile), in seconds. Host times
/// are reported scaled by `PROBE_REF_S / probe`, i.e. as they would read on
/// that host at the speed the probe saw there.
pub const PROBE_REF_S: f64 = 0.047;

/// Time a fixed chain of dependent xorshift steps: pure integer latency,
/// no memory traffic, and none of the repository's code, so nothing a
/// change to the simulator does can move it. A shared host's speed drifts
/// over tens of seconds (frequency, a busy sibling thread, steal); the
/// probe run between repetitions follows that drift, and dividing by it
/// keeps the drift out of the results.
pub fn speed_probe() -> f64 {
    let steps = black_box(PROBE_STEPS);
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let t = Instant::now();
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub threads: usize,
}

impl Fingerprint {
    pub fn take(threads: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            threads,
        }
    }

    /// More worker threads than the host runs in parallel.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.parallelism
    }

    pub fn line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "available_parallelism={} cpu=\"{}\" profile={} worker_threads={}",
            self.parallelism, self.cpu_model, self.profile, self.threads
        );
        if self.oversubscribed() {
            s.push_str(" OVERSUBSCRIBED");
        }
        s
    }
}

/// A `/proc/self/status` field in MiB; 0 where it is unavailable.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This process's resident set (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// This process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Restart the peak resident set from the current one (Linux
/// `clear_refs` 5). Where that is refused the peak stays process-wide, so
/// a peak taken after it can only read high, never low.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
