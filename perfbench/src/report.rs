//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `stat` of each `window`-second slice of `(t, value)` samples, for the
/// slices that lie wholly within `[0, end)`; empty slices are skipped.
pub fn per_window(
    t: &[f64],
    values: &[f64],
    window: f64,
    end: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let slices = (end / window).floor() as usize;
    let mut buckets = vec![Vec::new(); slices];
    for (&t, &v) in t.iter().zip(values) {
        let i = (t / window).floor();
        if i >= 0.0 && (i as usize) < slices {
            buckets[i as usize].push(v);
        }
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect()
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics, failure tallies and notes of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures named by what failed (session, round, check).
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one failed check that was attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks, from
/// the `cpu` line of `/proc/stat`; `(0, 0)` where it cannot be read.
/// Steal is time the hypervisor gave this VM's CPUs to someone else while
/// they had work: noise from outside the VM, not load from the program.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time stolen since `from` (a [`cpu_ticks`]).
pub fn steal_since(from: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    let total = total.saturating_sub(from.1);
    if total == 0 {
        return 0.0;
    }
    steal.saturating_sub(from.0) as f64 / total as f64
}

/// `VmHWM` and `Threads` of a process, from `/proc/<pid>/status`.
pub fn proc_status(pid: u32) -> Result<(f64, u64), String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let field = |key: &str| -> Result<u64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/status has no {key}"))
    };
    Ok((field("VmHWM:")? as f64 / 1024.0, field("Threads:")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.metric("p50_ms", 1.25, "ms");
        o.check(true, || unreachable!());
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
