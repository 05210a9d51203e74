//! The result line, percentiles and peak memory. Metric names and units
//! come from `BENCHMARK.json` (see [`crate::contract`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked outputs (trees, overlay snapshots, protocol reports) and
    /// membership events attempted.
    pub attempted: u64,
    /// Attempts that returned an error or failed their output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result: knobs, sample
    /// counts, determinism fingerprints, failure reasons.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the result of one checked attempt.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED {what}: {e}"));
            }
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The notes, one `name = value unit` line per metric of `table`, and
    /// last the one-line JSON result. Metrics of `table` the run did not
    /// set read 0; a non-finite value reads 0 and marks the run incorrect.
    pub fn render(&self, table: &[(String, String)]) -> String {
        let mut text = String::new();
        for n in &self.notes {
            let _ = writeln!(text, "# {n}");
        }
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                let _ = writeln!(text, "# FAILED metric {name} is not finite");
                correct = false;
                v = 0.0;
            }
            let _ = writeln!(text, "{name} = {v} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            text,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        );
        text
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The tail latency reported as `op_p99_us`: the 99th percentile once at
/// least 1000 samples leave ten beyond it, else the largest sample.
pub fn tail(v: &[f64]) -> f64 {
    if v.len() >= 1000 {
        percentile(v, 99.0)
    } else {
        v.iter().copied().fold(0.0, f64::max)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads, in nanoseconds.
///
/// The benchmark times its ops with this clock rather than the wall
/// clock. On a KVM guest with paravirtual steal accounting, it leaves out
/// the time the host gives the guest's virtual CPUs to other guests, which
/// the wall clock counts and which changes with the host's load from one
/// run to the next. It counts the work of every worker thread, so at two
/// threads it measures the total work, not the parallel speed-up. A read
/// costs a system call (about 0.3 µs), so it suits ops of a millisecond or
/// more.
pub fn cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the `VmHWM` high-water mark to the current resident set, so
/// [`peak_rss_mb`] covers only what runs afterwards. Where the kernel does
/// not allow it, the peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(tail(&v), 990.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_check_marks_the_result_incorrect() {
        let mut o = Outcome::default();
        o.check("good", Ok(()));
        o.check("bad", Err("degree 7 > 6".into()));
        o.set("setup_s", 0.5);
        let text = o.render(&contract::metrics("end_to_end"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(text.contains("# FAILED bad: degree 7 > 6"));
    }
}
