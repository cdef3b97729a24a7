//! The cross-run scoreboard: one JSON document summarizing every
//! experiment's robustness numbers.
//!
//! A [`Scoreboard`] folds a directory of [`RunReport`]s into one entry per
//! experiment. Its metrics are the seminar's paper metrics (`rqp-metrics`),
//! computed from the spans and the reserved `paper.*` gauges the reports
//! carry (see [`Source`]), plus adaptive-decision event counts.
//!
//! [`GATES`] is the whole gate policy: one row per metric, naming its JSON
//! key, its source and its limit. Folding, serialization and
//! [`Scoreboard::diff`] — the CI regression gate — are loops over it.
//!
//! Folding is exactly order-independent: every sample pool is sorted (or
//! reduced by a total order) first, so any permutation of the same reports
//! produces a byte-identical scoreboard.

use crate::json::Json;
use crate::metrics::MetricValue;
use crate::report::RunReport;
use rqp_metrics::{cardinality_error_geomean, metric1, metric3, smoothness, VariabilityReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version stamped into `scoreboard.json`; bump whenever a [`GATES`] row is
/// added, removed or renamed. Version 9 has the rows listed there.
pub const SCOREBOARD_VERSION: u32 = 9;

/// Reserved gauge names through which experiments publish the raw samples
/// behind the paper metrics the scoreboard derives. Every other gauge the
/// scoreboard reads is named in its [`GATES`] row.
pub mod samples {
    /// Gauge: `RunTimeOpt` for Metric3.
    pub const M3_OPT: &str = "paper.m3.opt";
    /// Gauge: `RunTimeBest` for Metric3.
    pub const M3_BEST: &str = "paper.m3.best";
    /// Gauge-family prefix: per-query performance gaps `P(qᵢ)` of a sweep,
    /// e.g. `paper.perf_gap.007`. Smoothness `S(Q)` is their CV.
    pub const PERF_GAP_PREFIX: &str = "paper.perf_gap.";
    /// Gauge-family prefix for per-environment costs: `paper.env.<k>.chosen`
    /// and `paper.env.<k>.ideal` feed the variability decomposition.
    pub const ENV_PREFIX: &str = "paper.env.";
    /// Suffix of the chosen-plan cost gauge in an environment pair.
    pub const ENV_CHOSEN: &str = ".chosen";
    /// Suffix of the ideal-plan cost gauge in an environment pair.
    pub const ENV_IDEAL: &str = ".ideal";
}

/// Where a scoreboard metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A reserved `paper.*` gauge, folded as the worst value across runs:
    /// the minimum under a [`Limit::Floor`], the maximum otherwise.
    Gauge(&'static str),
    /// Nica et al. Metric1: Σ |est − act| / act over estimated spans.
    M1,
    /// Nica et al. Metric3, averaged over runs, from the `paper.m3.*` gauges.
    M3,
    /// Sattler et al. smoothness S(Q), from the `paper.perf_gap.*` gauges.
    Smoothness,
    /// Intrinsic variability, from the `paper.env.*` gauge pairs.
    Intrinsic,
    /// Extrinsic variability, from the `paper.env.*` gauge pairs.
    Extrinsic,
    /// Worst per-span q-error.
    MaxQError,
    /// Sattler et al. C(Q): geometric mean of relative cardinality errors.
    CardErrorGeomean,
    /// Cost-clock totals summed across runs.
    TotalCost,
    /// Spilled rows summed across all spans.
    SpilledRows,
}

/// How [`Scoreboard::diff`] bounds a metric relative to its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// The metric regresses upward: it may not exceed `base·ratio + slack`.
    Ceiling {
        /// Multiplicative growth allowed.
        ratio: f64,
        /// Absolute growth allowed on top (for baselines near zero).
        slack: f64,
    },
    /// The metric regresses downward: it may not fall below `base − slack`.
    Floor {
        /// Absolute shrinkage allowed.
        slack: f64,
    },
}

impl Limit {
    /// The bound a current value is held to, given the baseline value.
    fn bound(self, base: f64) -> f64 {
        match self {
            Limit::Ceiling { ratio, slack } => base * ratio + slack,
            Limit::Floor { slack } => base - slack,
        }
    }
}

/// One scoreboard metric: its JSON key, where its value comes from, and
/// the limit the regression gate holds it to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Key in `scoreboard.json` and in [`ScoreboardEntry::metrics`].
    pub key: &'static str,
    /// Where the folded value comes from.
    pub source: Source,
    /// The gate; `None` for metrics the scoreboard reports but never gates.
    pub limit: Option<Limit>,
}

const fn ceiling(key: &'static str, source: Source, ratio: f64, slack: f64) -> Gate {
    Gate { key, source, limit: Some(Limit::Ceiling { ratio, slack }) }
}

const fn floor(key: &'static str, source: Source, slack: f64) -> Gate {
    Gate { key, source, limit: Some(Limit::Floor { slack }) }
}

const fn ungated(key: &'static str, source: Source) -> Gate {
    Gate { key, source, limit: None }
}

/// The gate policy: every scoreboard metric in `scoreboard.json` key order.
/// Adding a gate is adding one row here (plus a [`SCOREBOARD_VERSION`]
/// bump) and publishing its gauge from the experiment.
pub const GATES: &[Gate] = &[
    ceiling("m1", Source::M1, 1.25, 0.5),
    ceiling("m3", Source::M3, 1.0, 0.25),
    ceiling("smoothness", Source::Smoothness, 1.0, 0.25),
    ungated("intrinsic", Source::Intrinsic),
    ceiling("extrinsic", Source::Extrinsic, 1.0, 0.25),
    ceiling("max_q_error", Source::MaxQError, 1.5, 0.0),
    ungated("card_error_geomean", Source::CardErrorGeomean),
    ceiling("total_cost", Source::TotalCost, 1.10, 0.0),
    ungated("spilled_rows", Source::SpilledRows),
    // a04: total work / critical path; critical path / a balanced split.
    floor("parallel_speedup", Source::Gauge("paper.parallel.speedup"), 0.25),
    ceiling("parallel_skew", Source::Gauge("paper.parallel.skew"), 1.0, 0.5),
    // a05: steepest cost ratio between adjacent memory fractions; share of
    // chaos-injected queries that completed.
    ceiling("degradation_cliff", Source::Gauge("paper.chaos.degradation_cliff"), 1.0, 0.25),
    floor("recovery_rate", Source::Gauge("paper.chaos.recovery_rate"), 0.02),
    // a06: p99 over solo p99; p99 admission wait in cost units.
    ceiling("tail_amplification", Source::Gauge("paper.service.tail_amplification"), 1.0, 0.5),
    ceiling("admission_wait", Source::Gauge("paper.service.admission_wait"), 1.5, 1.0),
    // a07: p99 and p99.9 over solo; share of disconnected queries reaped;
    // peak encoded-but-unsent pages of one stalled query.
    ceiling("wire_tail_p99", Source::Gauge("paper.wire.tail_p99"), 1.25, 0.5),
    ceiling("wire_tail_p999", Source::Gauge("paper.wire.tail_p999"), 1.25, 0.5),
    floor("wire_churn_recovery", Source::Gauge("paper.wire.churn_recovery"), 0.02),
    ceiling("wire_backpressure_pages", Source::Gauge("paper.wire.backpressure_pages"), 1.0, 0.5),
    // a08: observed over unobserved p99; events lost to ring overwrite.
    ceiling("observer_overhead_p99", Source::Gauge("paper.observer.overhead_p99"), 1.25, 0.5),
    ceiling("observer_event_loss", Source::Gauge("paper.observer.event_loss"), 1.0, 0.5),
    // a09: wall-clock batch over row-at-a-time speedup; wall clocks jitter
    // more than charged costs.
    floor("batch_speedup", Source::Gauge("paper.batch.speedup"), 0.5),
    // a10: steepest cost ratio between adjacent page budgets; share of
    // queries completed.
    ceiling("paged_cliff", Source::Gauge("paper.paged.degradation_cliff"), 1.0, 0.25),
    floor("paged_completion", Source::Gauge("paper.paged.completion_rate"), 0.02),
    // a11: p99 per-delta maintenance cost; maintained views that diverged
    // from a cold re-run. View consistency is a contract, not a budget:
    // zero slack, so ANY diverged view is a regression.
    ceiling("stream_delta_p99", Source::Gauge("paper.stream.delta_p99"), 1.25, 1.0),
    ceiling("stream_view_divergence", Source::Gauge("paper.stream.view_divergence"), 1.0, 0.0),
];

/// One experiment's folded robustness numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreboardEntry {
    /// Number of run reports folded in.
    pub runs: u64,
    /// Folded values keyed by [`Gate::key`]. Metrics whose samples the
    /// experiment did not publish are NaN (serialized as `null`).
    pub metrics: BTreeMap<String, f64>,
    /// Adaptive-decision events by kind, summed across all spans.
    pub events: BTreeMap<String, u64>,
}

impl ScoreboardEntry {
    /// The folded value of metric `key`; NaN when absent.
    pub fn metric(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(f64::NAN)
    }
}

/// Per-experiment sample pools, accumulated before any float reduction.
#[derive(Debug, Default)]
struct SamplePool {
    runs: u64,
    est_act: Vec<(f64, f64)>,
    q_errors: Vec<f64>,
    perf_gaps: Vec<(String, f64)>,
    env_chosen: Vec<(String, f64)>,
    env_ideal: Vec<(String, f64)>,
    m3_pairs: Vec<(f64, f64)>,
    costs: Vec<f64>,
    spilled: Vec<f64>,
    /// Every other gauge's samples, by gauge name.
    gauges: BTreeMap<String, Vec<f64>>,
    events: BTreeMap<String, u64>,
}

impl SamplePool {
    fn absorb(&mut self, report: &RunReport) {
        self.runs += 1;
        self.costs.push(report.cost.total());
        for s in &report.spans {
            if !s.est_rows.is_nan() {
                self.est_act.push((s.est_rows, s.rows_out as f64));
                self.q_errors.push(s.q_error());
            }
            self.spilled.push(s.spilled_rows);
            for e in &s.events {
                *self.events.entry(e.kind.clone()).or_insert(0) += 1;
            }
        }
        let mut m3 = (f64::NAN, f64::NAN);
        for (name, value) in &report.metrics {
            let MetricValue::Gauge(x) = value else { continue };
            if name == samples::M3_OPT {
                m3.0 = *x;
            } else if name == samples::M3_BEST {
                m3.1 = *x;
            } else if let Some(key) = name.strip_prefix(samples::PERF_GAP_PREFIX) {
                self.perf_gaps.push((key.to_string(), *x));
            } else if let Some(rest) = name.strip_prefix(samples::ENV_PREFIX) {
                if let Some(key) = rest.strip_suffix(samples::ENV_CHOSEN) {
                    self.env_chosen.push((key.to_string(), *x));
                } else if let Some(key) = rest.strip_suffix(samples::ENV_IDEAL) {
                    self.env_ideal.push((key.to_string(), *x));
                }
            } else {
                self.gauges.entry(name.clone()).or_default().push(*x);
            }
        }
        if !m3.0.is_nan() && !m3.1.is_nan() {
            self.m3_pairs.push(m3);
        }
    }

    /// Reduce the pools to an entry. Every pool is sorted first, so the
    /// entry is identical for any absorption order.
    fn entry(mut self) -> ScoreboardEntry {
        let by_key =
            |a: &(String, f64), b: &(String, f64)| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1));
        let by_pair =
            |a: &(f64, f64), b: &(f64, f64)| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1));
        self.est_act.sort_by(by_pair);
        self.q_errors.sort_by(f64::total_cmp);
        self.perf_gaps.sort_by(by_key);
        self.env_chosen.sort_by(by_key);
        self.env_ideal.sort_by(by_key);
        self.m3_pairs.sort_by(by_pair);
        self.costs.sort_by(f64::total_cmp);
        self.spilled.sort_by(f64::total_cmp);
        let metrics = GATES.iter().map(|g| (g.key.to_string(), self.value(g))).collect();
        ScoreboardEntry { runs: self.runs, metrics, events: self.events }
    }

    /// One gate's folded value from the sorted pools.
    fn value(&self, gate: &Gate) -> f64 {
        match gate.source {
            Source::Gauge(name) => {
                let xs = self.gauges.get(name).into_iter().flatten().copied();
                let worst = match gate.limit {
                    Some(Limit::Floor { .. }) => xs.min_by(f64::total_cmp),
                    _ => xs.max_by(f64::total_cmp),
                };
                worst.unwrap_or(f64::NAN)
            }
            Source::M1 => unless_empty(&self.est_act, metric1),
            Source::CardErrorGeomean => unless_empty(&self.est_act, cardinality_error_geomean),
            Source::MaxQError => {
                unless_empty(&self.q_errors, |qs| qs.iter().copied().fold(1.0, f64::max))
            }
            // Mean Metric3 across runs.
            Source::M3 => unless_empty(&self.m3_pairs, |runs| {
                runs.iter().map(|&(o, b)| metric3(o, b)).sum::<f64>() / runs.len() as f64
            }),
            Source::Smoothness => unless_empty(&self.perf_gaps, |gaps| {
                smoothness(&gaps.iter().map(|(_, g)| *g).collect::<Vec<_>>())
            }),
            Source::Intrinsic => {
                unless_empty(&self.env_pairs(), |p| VariabilityReport::from_costs(p).intrinsic())
            }
            Source::Extrinsic => {
                unless_empty(&self.env_pairs(), |p| VariabilityReport::from_costs(p).extrinsic())
            }
            Source::TotalCost => self.costs.iter().sum(),
            Source::SpilledRows => self.spilled.iter().sum(),
        }
    }

    /// (chosen, ideal) cost pairs of environments paired up by key; a
    /// chosen without an ideal (or vice versa) is dropped.
    fn env_pairs(&self) -> Vec<(f64, f64)> {
        let ideals: BTreeMap<&str, f64> =
            self.env_ideal.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        self.env_chosen
            .iter()
            .filter_map(|(k, chosen)| ideals.get(k.as_str()).map(|ideal| (*chosen, *ideal)))
            .collect()
    }
}

/// `value(pool)`, or NaN for an empty pool: the experiment did not publish
/// the samples.
fn unless_empty<T>(pool: &[T], value: impl FnOnce(&[T]) -> f64) -> f64 {
    if pool.is_empty() {
        f64::NAN
    } else {
        value(pool)
    }
}

/// The cross-run scoreboard: one [`ScoreboardEntry`] per experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scoreboard {
    /// Entries keyed by experiment name.
    pub entries: BTreeMap<String, ScoreboardEntry>,
}

impl Scoreboard {
    /// Fold reports into a scoreboard. Any permutation of the same reports
    /// produces an identical scoreboard.
    pub fn fold(reports: &[RunReport]) -> Scoreboard {
        let mut pools: BTreeMap<String, SamplePool> = BTreeMap::new();
        for r in reports {
            pools.entry(r.experiment.clone()).or_default().absorb(r);
        }
        Scoreboard {
            entries: pools.into_iter().map(|(name, pool)| (name, pool.entry())).collect(),
        }
    }

    /// Fold every `*.json` run report under `dir` (skipping
    /// `scoreboard.json` itself). A report that fails to parse is an error —
    /// a gate must not silently ignore corrupt evidence.
    pub fn from_dir(dir: &Path) -> Result<Scoreboard, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|ext| ext == "json")
                    && p.file_name().is_some_and(|n| n != "scoreboard.json")
            })
            .collect();
        paths.sort();
        let mut reports = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("read {}: {e}", p.display()))?;
            reports.push(
                RunReport::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))?,
            );
        }
        Ok(Scoreboard::fold(&reports))
    }

    /// Serialize to a [`Json`] document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scoreboard_version", Json::num(SCOREBOARD_VERSION as f64)),
            (
                "entries",
                Json::Obj(
                    self.entries
                        .iter()
                        .map(|(name, e)| (name.clone(), entry_to_json(e)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a scoreboard back from JSON text.
    pub fn from_json(text: &str) -> Result<Scoreboard, String> {
        let doc = Json::parse(text)?;
        let version = doc
            .get("scoreboard_version")
            .and_then(Json::as_num)
            .ok_or("missing scoreboard_version")?;
        if version as u32 != SCOREBOARD_VERSION {
            return Err(format!(
                "scoreboard version {version} (this build reads {SCOREBOARD_VERSION})"
            ));
        }
        let entries = match doc.get("entries") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, v)| Ok((name.clone(), entry_from_json(v)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("missing entries".to_string()),
        };
        Ok(Scoreboard { entries })
    }

    /// Write to `path` as pretty JSON.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().pretty())
    }

    /// Compare `current` against this baseline under [`GATES`]. Returns
    /// every regression found, per experiment in `GATES` order; empty means
    /// the gate passes. A metric the baseline lacks (NaN) is not gated.
    pub fn diff(&self, current: &Scoreboard) -> Vec<Regression> {
        let mut out = Vec::new();
        for (name, base) in &self.entries {
            let Some(cur) = current.entries.get(name) else {
                out.push(Regression {
                    experiment: name.clone(),
                    metric: "missing".to_string(),
                    baseline: base.runs as f64,
                    current: 0.0,
                    limit: base.runs as f64,
                });
                continue;
            };
            for gate in GATES {
                let Some(limit) = gate.limit else { continue };
                let baseline = base.metric(gate.key);
                if baseline.is_nan() {
                    continue;
                }
                let bound = limit.bound(baseline);
                let current = cur.metric(gate.key);
                let broken = match limit {
                    Limit::Ceiling { .. } => current > bound,
                    Limit::Floor { .. } => current < bound,
                };
                // A metric that vanished is an observability regression.
                if broken || current.is_nan() {
                    out.push(Regression {
                        experiment: name.clone(),
                        metric: gate.key.to_string(),
                        baseline,
                        current,
                        limit: bound,
                    });
                }
            }
        }
        out
    }
}

/// One metric of one experiment exceeding its limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment the regression is in.
    pub experiment: String,
    /// Metric that regressed (a [`Gate::key`] or `"missing"`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The limit the current value broke.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.4} -> {:.4} (limit {:.4})",
            self.experiment, self.metric, self.baseline, self.current, self.limit
        )
    }
}

fn entry_to_json(e: &ScoreboardEntry) -> Json {
    let mut pairs = vec![("runs", Json::num(e.runs as f64))];
    pairs.extend(GATES.iter().map(|g| (g.key, Json::num(e.metric(g.key)))));
    let events = e.events.iter().map(|(kind, n)| (kind.clone(), Json::num(*n as f64)));
    pairs.push(("events", Json::Obj(events.collect())));
    Json::obj(pairs)
}

fn entry_from_json(doc: &Json) -> Result<ScoreboardEntry, String> {
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("entry missing {key}"))
    };
    let events = match doc.get("events") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(kind, v)| {
                Ok((
                    kind.clone(),
                    v.as_num().ok_or("non-numeric event count")? as u64,
                ))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?,
        _ => return Err("entry missing events".to_string()),
    };
    let runs = num("runs")? as u64;
    let metrics = GATES
        .iter()
        .map(|g| Ok((g.key.to_string(), num(g.key)?)))
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    Ok(ScoreboardEntry { runs, metrics, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::Tracer;
    use rqp_common::CostClock;

    /// Every gated metric of the `report("e01", 50.0, 100, 1000.0)` fixture:
    /// its folded value, then its v9 limit written out by hand so that
    /// loosening (or tightening) a `GATES` row fails a test. The fixture
    /// publishes the gauge-sourced values as they stand here.
    const V9: &[(&str, f64, f64)] = &[
        ("m1", 0.5, 1.125),                                     // |50-100|/100; * 1.25 + 0.5
        ("m3", 0.25, 0.5),                                      // |100-80|/80; + 0.25
        ("smoothness", 1.0318757365151616, 1.2818757365151616), // gaps 5, 6, 50; + 0.25
        ("extrinsic", 1.0, 1.25),                               // + 0.25
        ("max_q_error", 2.0, 3.0),                              // * 1.5
        ("total_cost", 15.0, 16.5),                             // * 1.10
        ("parallel_speedup", 3.5, 3.25),                        // floor: - 0.25
        ("parallel_skew", 1.2, 1.7),                            // + 0.5
        ("degradation_cliff", 1.4, 1.65),                       // + 0.25
        ("recovery_rate", 1.0, 0.98),                           // floor: - 0.02
        ("tail_amplification", 2.0, 2.5),                       // + 0.5
        ("admission_wait", 40.0, 61.0),                         // * 1.5 + 1.0
        ("wire_tail_p99", 3.0, 4.25),                           // * 1.25 + 0.5
        ("wire_tail_p999", 4.0, 5.5),                           // * 1.25 + 0.5
        ("wire_churn_recovery", 1.0, 0.98),                     // floor: - 0.02
        ("wire_backpressure_pages", 1.0, 1.5),                  // + 0.5
        ("observer_overhead_p99", 1.0, 1.75),                   // * 1.25 + 0.5
        ("observer_event_loss", 0.0, 0.5),                      // + 0.5
        ("batch_speedup", 2.5, 2.0),                            // floor: - 0.5
        ("paged_cliff", 1.3, 1.55),                             // + 0.25
        ("paged_completion", 1.0, 0.98),                        // floor: - 0.02
        ("stream_delta_p99", 4.0, 6.0),                         // * 1.25 + 1.0
        ("stream_view_divergence", 0.0, 0.0),                   // zero slack
    ];

    fn report(experiment: &str, est: f64, act: u64, cost_rows: f64) -> RunReport {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let reg = MetricsRegistry::new();
        let s = tracer.open("scan", &clock);
        s.set_est_rows(est);
        clock.charge_seq_rows(cost_rows);
        for _ in 0..act {
            s.produced(&clock);
        }
        s.record_event(&clock, "pop.violation", "test");
        s.close(&clock);
        reg.gauge(samples::M3_OPT).set(100.0);
        reg.gauge(samples::M3_BEST).set(80.0);
        for (i, gap) in [5.0, 6.0, 50.0].iter().enumerate() {
            reg.gauge(&format!("{}{i:03}", samples::PERF_GAP_PREFIX)).set(*gap);
        }
        reg.gauge("paper.env.000.chosen").set(30.0);
        reg.gauge("paper.env.000.ideal").set(10.0);
        reg.gauge("paper.env.001.chosen").set(20.0);
        reg.gauge("paper.env.001.ideal").set(20.0);
        for gate in GATES {
            if let Source::Gauge(name) = gate.source {
                reg.gauge(name).set(V9.iter().find(|(k, ..)| *k == gate.key).unwrap().1);
            }
        }
        let mut r = RunReport::new(experiment).with_seed("workload", 7);
        r.cost = clock.breakdown();
        r.spans = tracer.snapshot();
        r.metrics = reg.snapshot();
        r
    }

    /// For each of `keys`, against the fixture as baseline: one ulp past the
    /// pinned v9 limit trips exactly that metric, with exactly that limit,
    /// and so does NaN; the limit itself and a value one unit better than
    /// the baseline pass.
    fn assert_gates_hold_at_v9_limits(keys: &[&str]) {
        let baseline = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let diff_with = |key: &str, v: f64| {
            let mut current = baseline.clone();
            current.entries.get_mut("e01").unwrap().metrics.insert(key.to_string(), v);
            baseline.diff(&current)
        };
        for &key in keys {
            let &(_, base, limit) = V9.iter().find(|(k, ..)| *k == key).expect("pinned");
            let gate = GATES.iter().find(|g| g.key == key).expect("gated");
            let (past, better) = match gate.limit {
                Some(Limit::Floor { .. }) => (limit.next_down(), base + 1.0),
                _ => (limit.next_up(), base - 1.0),
            };
            for bad in [past, f64::NAN] {
                let regs = diff_with(key, bad);
                assert_eq!(regs.len(), 1, "{key} = {bad} must trip alone: {regs:?}");
                assert_eq!((regs[0].metric.as_str(), regs[0].limit), (key, limit));
            }
            for good in [limit, better] {
                assert_eq!(diff_with(key, good), vec![], "{key} = {good} must pass");
            }
        }
    }

    #[test]
    fn every_gate_trips_just_past_its_v9_limit() {
        let gated: Vec<&str> =
            GATES.iter().filter(|g| g.limit.is_some()).map(|g| g.key).collect();
        let pinned: Vec<&str> = V9.iter().map(|(k, ..)| *k).collect();
        assert_eq!(gated, pinned, "every gate needs a pinned limit");
        assert_eq!(gated.len(), 23);
        assert_gates_hold_at_v9_limits(&gated);
    }

    /// Per-family slices of the same table, so that a failure names the
    /// family.
    macro_rules! family_tests {
        ($($test:ident: $keys:expr;)+) => {$(
            #[test]
            fn $test() {
                assert_gates_hold_at_v9_limits(&$keys);
            }
        )+};
    }

    family_tests! {
        diff_trips_on_speedup_collapse_and_skew_growth: ["parallel_speedup", "parallel_skew"];
        diff_trips_on_degradation_cliff_and_recovery_collapse:
            ["degradation_cliff", "recovery_rate"];
        diff_trips_on_tail_amplification_and_admission_wait_growth:
            ["tail_amplification", "admission_wait"];
        diff_trips_on_wire_tail_growth_churn_collapse_and_page_buildup:
            ["wire_tail_p99", "wire_tail_p999", "wire_churn_recovery", "wire_backpressure_pages"];
        diff_trips_on_observer_overhead_and_event_loss:
            ["observer_overhead_p99", "observer_event_loss"];
        diff_trips_on_batch_speedup_collapse: ["batch_speedup"];
        diff_trips_on_paged_cliff_and_completion_collapse: ["paged_cliff", "paged_completion"];
        diff_trips_on_stream_delta_growth_and_any_view_divergence:
            ["stream_delta_p99", "stream_view_divergence"];
    }

    #[test]
    fn fold_computes_paper_metrics() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let e = &board.entries["e01"];
        assert_eq!(e.runs, 1);
        for &(key, value, _) in V9 {
            assert_eq!(e.metric(key), value, "{key}");
        }
        assert!(e.metric("intrinsic") > 0.0);
        assert_eq!(e.events["pop.violation"], 1);
        assert!(e.metric("no_such_metric").is_nan());
    }

    #[test]
    fn gauges_fold_to_the_worst_run_in_the_gate_direction() {
        // A second run with a lower speedup (floor: worse) and a lower skew
        // (ceiling: better) folds to its speedup and the first run's skew.
        let mut second = report("a04", 50.0, 100, 1000.0);
        for (name, value) in &mut second.metrics {
            match (name.as_str(), value) {
                ("paper.parallel.speedup", MetricValue::Gauge(x)) => *x = 1.5,
                ("paper.parallel.skew", MetricValue::Gauge(x)) => *x = 1.0,
                _ => {}
            }
        }
        let board = Scoreboard::fold(&[report("a04", 50.0, 100, 1000.0), second]);
        let e = &board.entries["a04"];
        assert_eq!((e.metric("parallel_speedup"), e.metric("parallel_skew")), (1.5, 1.2));
    }

    #[test]
    fn fold_is_order_independent() {
        let reports = vec![
            report("e01", 50.0, 100, 1000.0),
            report("e01", 10.0, 90, 500.0),
            report("e02", 700.0, 7, 2000.0),
            report("e01", 33.0, 33, 250.0),
        ];
        let a = Scoreboard::fold(&reports);
        let mut rev = reports.clone();
        rev.reverse();
        let b = Scoreboard::fold(&rev);
        let mut rotated = reports;
        rotated.rotate_left(2);
        let c = Scoreboard::fold(&rotated);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert_eq!(a.to_json().pretty(), c.to_json().pretty());
        assert_eq!(a.entries["e01"].runs, 3);
    }

    #[test]
    fn json_round_trip() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let text = board.to_json().pretty();
        let back = Scoreboard::from_json(&text).expect("parse");
        assert_eq!(back.to_json().pretty(), text);
        // NaN-bearing entries survive too (a report with no paper gauges).
        let mut bare = RunReport::new("e09");
        bare.spans = Vec::new();
        let board = Scoreboard::fold(&[bare]);
        assert!(board.entries["e09"].metric("m1").is_nan());
        let text = board.to_json().pretty();
        let back = Scoreboard::from_json(&text).expect("parse");
        assert!(back.entries["e09"].metric("m1").is_nan());
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn diff_passes_on_identical_boards() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        assert!(board.diff(&board).is_empty());
    }

    #[test]
    fn diff_trips_on_inflated_actuals() {
        let baseline = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        // The regression fixture: same experiment, but the span's actual
        // cardinality came out 50x higher — the estimate is now badly wrong.
        let bad = Scoreboard::fold(&[report("e01", 50.0, 5000, 1000.0)]);
        let regressions = baseline.diff(&bad);
        assert!(
            regressions.iter().any(|r| r.metric == "max_q_error"),
            "q-error blow-up must trip: {regressions:?}"
        );
        // And the reverse direction is fine (improvement, not regression).
        assert!(bad.diff(&baseline).is_empty());
    }

    #[test]
    fn diff_trips_on_missing_experiment_and_cost_growth() {
        let baseline = Scoreboard::fold(&[
            report("e01", 50.0, 100, 1000.0),
            report("e02", 50.0, 100, 1000.0),
        ]);
        let current = Scoreboard::fold(&[report("e01", 50.0, 100, 2000.0)]);
        let regressions = baseline.diff(&current);
        assert!(regressions.iter().any(|r| r.experiment == "e02" && r.metric == "missing"));
        assert!(regressions.iter().any(|r| r.experiment == "e01" && r.metric == "total_cost"));
    }

    #[test]
    fn from_dir_folds_and_skips_the_scoreboard_itself() {
        let dir = std::env::temp_dir().join("rqp_scoreboard_from_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        report("e01", 50.0, 100, 1000.0).write_to(&dir).unwrap();
        report("e02", 10.0, 90, 500.0).write_to(&dir).unwrap();
        let board = Scoreboard::fold(&[
            report("e01", 50.0, 100, 1000.0),
            report("e02", 10.0, 90, 500.0),
        ]);
        board.write_to(&dir.join("scoreboard.json")).unwrap();
        let folded = Scoreboard::from_dir(&dir).expect("fold dir");
        assert_eq!(folded, board);
        // A corrupt report is an error, not a silent skip.
        std::fs::write(dir.join("e03.json"), "{broken").unwrap();
        assert!(Scoreboard::from_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
