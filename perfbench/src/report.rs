//! Measurement helpers and the result line: percentiles, process CPU and
//! peak memory from `/proc`, the end-to-end metric set, and JSON rendering.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run produced: the gate verdict, op counts, metrics, metadata.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form facts printed on the metadata line (already JSON values).
    pub meta: Vec<(String, String)>,
}

impl RunOutput {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    pub fn meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_string(), value.into()));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta(key, json_str(value));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    pub fn meta_json(&self) -> String {
        let body: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"meta\": {{{}}}}}", body.join(", "))
    }
}

/// A finite number as JSON (shortest round-trip form).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Percentiles the tail latency may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, with its value (p50 when fewer than 11 samples exist).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n.saturating_sub(rank) >= 10 {
            return (p, sorted[rank - 1]);
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// User + system CPU time of this process, in ms (`/proc/self/stat`,
/// clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// spawning a process; `unknown` outside a git work tree.
pub fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Closed-loop measurements of one untraced run.
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    pub wall: Duration,
    pub cpu_ms: f64,
    pub setup_s: Vec<f64>,
    /// `(seconds, CPU ms, ops completed)` since the start of timing, taken
    /// at window boundaries (whole passes over the corpus, or whole
    /// seconds); the first mark is the start.
    pub marks: Vec<(f64, f64, u64)>,
}

/// Fewest whole windows for which throughput and CPU per op are taken as
/// the median over windows rather than over the whole run.
const MIN_WINDOWS: usize = 3;

impl Measured {
    /// Ops per second and CPU ms per op: medians over whole windows, so a
    /// burst of outside load in one window does not move them; the whole
    /// run when it has fewer than [`MIN_WINDOWS`] windows.
    fn rates(&self) -> (f64, f64, usize) {
        let windows: Vec<(f64, f64)> = self
            .marks
            .windows(2)
            .filter(|w| w[1].2 > w[0].2 && w[1].0 > w[0].0)
            .map(|w| {
                let ops = (w[1].2 - w[0].2) as f64;
                (ops / (w[1].0 - w[0].0), (w[1].1 - w[0].1) / ops)
            })
            .collect();
        if windows.len() < MIN_WINDOWS {
            let ops = self.latencies_ms.len() as f64;
            return (ops / self.wall.as_secs_f64(), self.cpu_ms / ops.max(1.0), 1);
        }
        let rate: Vec<f64> = windows.iter().map(|w| w.0).collect();
        let cpu: Vec<f64> = windows.iter().map(|w| w.1).collect();
        (median(&rate), median(&cpu), windows.len())
    }
}

/// Fills in every end-to-end metric.
pub fn end_to_end(out: &mut RunOutput, m: &Measured) {
    let mut lat = m.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (tail_p, tail_v) = tail(&lat);
    let (ops_per_s, cpu_per_op, windows) = m.rates();
    out.metric("setup_s", median(&m.setup_s), "s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("latency_p50_ms", percentile(&lat, 50.0), "ms");
    out.metric("latency_tail_ms", tail_v, "ms");
    out.metric(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("cpu_ms_per_op", cpu_per_op, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.meta("tail_percentile", num(tail_p));
    out.meta("latency_samples", lat.len().to_string());
    out.meta("rate_windows", windows.to_string());
    out.meta(
        "whole_run",
        format!(
            "{{\"ops_per_s\": {}, \"cpu_ms_per_op\": {}}}",
            num(lat.len() as f64 / m.wall.as_secs_f64()),
            num(m.cpu_ms / lat.len().max(1) as f64)
        ),
    );
    out.meta(
        "fail_ratio",
        num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    let setups: Vec<String> = m.setup_s.iter().map(|s| num(*s)).collect();
    out.meta("setup_runs_s", format!("[{}]", setups.join(", ")));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        out.metric("latency_p50_ms", 1.25, "ms");
        assert_eq!(
            out.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
