//! The metric catalog, the per-run report and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`. Every
/// workload reports every one of them; BENCHMARK.json lists the same
/// names with their regression bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A metric
/// whose layer a workload does not exercise reads 0 there (README.md
/// names the workloads each one applies to).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("stats.analyze_s", "s"),
    ("server.subscribe_ms", "ms"),
    ("opt.plan_ms", "ms"),
    ("exec.build_ms", "ms"),
    ("exec.run_ms.q1", "ms"),
    ("exec.run_ms.q3", "ms"),
    ("exec.run_ms.q6", "ms"),
    ("exec.run_ms.range01", "ms"),
    ("exec.run_ms.range10", "ms"),
    ("exec.ns_per_row.q1", "ns"),
    ("exec.ns_per_row.q6", "ns"),
    ("exec.ns_per_row.range01", "ns"),
    ("exec.ns_per_row.range10", "ns"),
    ("exec.cost_units.q1", "units"),
    ("exec.cost_units.q3", "units"),
    ("exec.cost_units.q6", "units"),
    ("exec.cost_units.range01", "units"),
    ("exec.cost_units.range10", "units"),
    ("exec.ns_per_cost_unit", "ns"),
    ("net.submit_ms", "ms"),
    ("net.fetch_ms", "ms"),
    ("server.solo_ms", "ms"),
    ("server.submit_join_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.codec_us_per_row", "us"),
    ("net.bytes_per_query", "bytes"),
    ("net.pages_per_query", "count"),
    ("server.plan_cache_hit_ratio", "ratio"),
    ("server.peak_concurrency", "count"),
    ("storage.append_ms.p50", "ms"),
    ("storage.append_ms.p99", "ms"),
    ("stream.poll_ms.p50", "ms"),
    ("stream.poll_ms.p99", "ms"),
    ("stream.delta_p50_ms", "ms"),
    ("stream.delta_p99_ms", "ms"),
    ("stream.delta_rows_per_poll", "count"),
    ("stream.max_lag_records", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_refaults", "count"),
    ("storage.pool_evictions", "count"),
    ("net.protocol_errors", "count"),
    ("stream.view_divergence", "count"),
    ("self_frac.bench", "ratio"),
    ("self_frac.opt", "ratio"),
    ("self_frac.exec", "ratio"),
    ("self_frac.net", "ratio"),
    ("self_frac.server", "ratio"),
    ("self_frac.storage", "ratio"),
    ("self_frac.stream", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.generator_late_ms", "ms"),
    ("bench.failed_ops_frac", "ratio"),
    ("process.peak_rss_mb", "MB"),
];

/// Nearest-rank quantile `q` of `samples`, or `None` when fewer than ten
/// samples lie beyond it (too few to say where the tail is).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (queries, reads, appends, polls, checks).
    pub attempted: u64,
    /// Of those, failed, refused or wrong-answer operations.
    pub failed: u64,
    /// One line per failure, for the log.
    pub problems: Vec<String>,
    /// Metrics too thin to report (too few samples past a percentile).
    pub shortfalls: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing.
    pub samples: BTreeMap<&'static str, usize>,
    /// Run metadata (data sizes and workload shape).
    pub meta: Vec<(&'static str, String)>,
}

impl Report {
    /// Count one attempted operation, failed when `outcome` is an error.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record the `q` quantile of `samples` as `name`. An empty sample
    /// set means the workload does not exercise the layer (the metric is
    /// left unset, reading 0); a thin one is a shortfall.
    pub fn quantile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        if samples.is_empty() {
            return;
        }
        self.samples.insert(name, samples.len());
        match quantile(samples, q) {
            Some(v) => self.set(name, v),
            None => self.shortfalls.push(format!(
                "{name}: {} samples leave fewer than 10 past the p{}",
                samples.len(),
                q * 100.0
            )),
        }
    }

    /// Record the mean of `samples` as `name` (unset when empty).
    pub fn mean(&mut self, name: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        self.samples.insert(name, samples.len());
        self.set(name, samples.iter().sum::<f64>() / samples.len() as f64);
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// Set the end-to-end latency and throughput metrics from the
    /// operations completed in `window_s` seconds.
    pub fn throughput(&mut self, latencies_ms: &[f64], window_s: f64) {
        self.set("qps", latencies_ms.len() as f64 / window_s);
        self.quantile("latency_p50_ms", latencies_ms, 0.5);
        self.quantile("latency_p90_ms", latencies_ms, 0.9);
        self.samples.insert("qps", latencies_ms.len());
    }
}

/// Set-up times of one run, in seconds: the whole set-up, data generation,
/// and statistics (analyze).
#[derive(Default)]
pub struct Setups {
    total: Vec<f64>,
    gen: Vec<f64>,
    analyze: Vec<f64>,
}

impl Setups {
    /// One set-up that started at `t0`, had generated its data at `t1`,
    /// had its statistics at `t2` and was done at `t3`.
    pub fn push(&mut self, t0: Instant, t1: Instant, t2: Instant, t3: Instant) {
        self.total.push(t3.duration_since(t0).as_secs_f64());
        self.gen.push(t1.duration_since(t0).as_secs_f64());
        self.analyze.push(t2.duration_since(t1).as_secs_f64());
    }

    /// `setup_s` is the median set-up; the layer times are means.
    pub fn report(&self, rep: &mut Report) {
        let mut sorted = self.total.clone();
        sorted.sort_by(f64::total_cmp);
        if let Some(&median) = sorted.get(sorted.len() / 2) {
            rep.set("setup_s", median);
            rep.samples.insert("setup_s", sorted.len());
        }
        rep.mean("workload.gen_s", &self.gen);
        rep.mean("stats.analyze_s", &self.analyze);
    }
}

/// JSON string literal for `s` (metadata values are plain ASCII text).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalog` with its unit. Unset metrics read 0.
pub fn result_line(rep: &Report, correct: bool, catalog: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = rep.values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), None);
        assert_eq!(quantile(&xs[..19], 0.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
