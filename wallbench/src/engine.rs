//! Static-mode execution split into its layer calls, and the executor
//! metrics drawn from their spans.

use crate::report::Report;
use crate::trace::{self, Span, Tracer};
use rqp::{Database, ExecContext, QuerySpec, Row};
use std::collections::BTreeMap;

/// Query kinds with per-kind executor metrics: kind, `BuiltPlan::run`
/// span, `exec.run_ms.*` (median), `exec.ns_per_row.*` (median; single-table
/// kinds only) and `exec.cost_units.*` (mean of an exact count).
pub const KINDS: [(&str, &str, &str, Option<&str>, &str); 5] = [
    (
        "q1",
        "exec.run.q1",
        "exec.run_ms.q1",
        Some("exec.ns_per_row.q1"),
        "exec.cost_units.q1",
    ),
    (
        "q3",
        "exec.run.q3",
        "exec.run_ms.q3",
        None,
        "exec.cost_units.q3",
    ),
    (
        "q6",
        "exec.run.q6",
        "exec.run_ms.q6",
        Some("exec.ns_per_row.q6"),
        "exec.cost_units.q6",
    ),
    (
        "range01",
        "exec.run.range01",
        "exec.run_ms.range01",
        Some("exec.ns_per_row.range01"),
        "exec.cost_units.range01",
    ),
    (
        "range10",
        "exec.run.range10",
        "exec.run_ms.range10",
        Some("exec.ns_per_row.range10"),
        "exec.cost_units.range10",
    ),
];

/// The `BuiltPlan::run` span name of `kind`.
pub fn run_span(kind: &str) -> &'static str {
    KINDS
        .iter()
        .find(|k| k.0 == kind)
        .map_or("exec.run.other", |k| k.1)
}

/// What `Database::execute` does in static mode, one layer call at a
/// time: plan, build, run. Returns the rows and the cost-clock reading.
pub fn execute_split(
    tr: &mut Tracer,
    op: u64,
    db: &Database,
    spec: &QuerySpec,
    kind: &str,
) -> Result<(Vec<Row>, f64), String> {
    let plan = tr
        .call(op, "opt.plan", || db.plan(spec))
        .map_err(|e| e.to_string())?;
    let ctx = ExecContext::with_memory(db.planner_config.memory_rows);
    let mut built = tr
        .call(op, "exec.build", || plan.build(db.catalog(), &ctx, None))
        .map_err(|e| e.to_string())?;
    let rows = tr.call(op, run_span(kind), || built.run());
    Ok((rows, ctx.clock.now()))
}

/// Planner and executor metrics from the spans of [`execute_split`] calls
/// over a `lineitem_rows`-row lineitem; `costs` holds the cost-clock
/// readings per kind.
pub fn exec_metrics(
    rep: &mut Report,
    spans: &[Span],
    costs: &BTreeMap<&str, Vec<f64>>,
    lineitem_rows: usize,
) {
    rep.quantile("opt.plan_ms", &trace::durations_ms(spans, "opt.plan"), 0.5);
    rep.quantile(
        "exec.build_ms",
        &trace::durations_ms(spans, "exec.build"),
        0.5,
    );
    let (mut run_ns, mut units) = (0.0, 0.0);
    for (kind, span, run_metric, row_metric, cost_metric) in KINDS {
        let runs = trace::durations_ms(spans, span);
        let cost = costs.get(kind).cloned().unwrap_or_default();
        run_ns += runs.iter().sum::<f64>() * 1e6;
        units += cost.iter().sum::<f64>();
        rep.quantile(run_metric, &runs, 0.5);
        if let Some(row_metric) = row_metric {
            let per_row: Vec<f64> = runs
                .iter()
                .map(|ms| ms * 1e6 / lineitem_rows as f64)
                .collect();
            rep.quantile(row_metric, &per_row, 0.5);
        }
        rep.mean(cost_metric, &cost);
    }
    if units > 0.0 {
        rep.set("exec.ns_per_cost_unit", run_ns / units);
    }
}
