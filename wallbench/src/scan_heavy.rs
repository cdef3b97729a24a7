//! `scan_heavy`: an in-process `Database` in static mode over a 200k-row
//! lineitem that fits in memory, one thread in a closed loop over Q1, Q3,
//! Q6, `range_query(0.1)` and `range_query(1.0)`.
//!
//! Why: execution is nearly all of the time, so scan, filter, aggregate
//! and join kernels show; the network, admission and paging are bypassed.

use crate::engine;
use crate::reference::{self, Shape};
use crate::report::{Report, Setups};
use crate::trace::{Trace, Tracer};
use crate::RunCfg;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{Database, QuerySpec, Row};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const LINEITEM_ROWS: usize = 200_000;

/// One query of the loop: its kind, spec and expected rows.
struct Query {
    kind: &'static str,
    spec: QuerySpec,
    expected: Vec<Row>,
}

const QUERIES: [(&str, Shape); 5] = [
    ("q1", Shape::Q1 { delta_days: 90 }),
    (
        "q3",
        Shape::Q3 {
            segment: 1,
            date: 1200,
        },
    ),
    (
        "q6",
        Shape::Q6 {
            date_lo: 100,
            discount_mid: 0.05,
            quantity_max: 30,
        },
    ),
    ("range01", Shape::Range { sel: 0.1 }),
    ("range10", Shape::Range { sel: 1.0 }),
];

/// Generate the data and analyze it.
fn set_up(seed: u64, setups: &mut Setups) -> (TpchDb, Database) {
    let t0 = Instant::now();
    let tpch = TpchDb::build(
        TpchParams {
            lineitem_rows: LINEITEM_ROWS,
            ..Default::default()
        },
        seed,
    );
    let t1 = Instant::now();
    let mut db = Database::from_catalog(tpch.catalog.clone());
    db.analyze();
    let t2 = Instant::now();
    setups.push(t0, t1, t2, t2);
    (tpch, db)
}

pub fn run(cfg: &RunCfg) -> (Report, Trace) {
    let mut rep = Report::default();
    let mut setups = Setups::default();
    let mut built = None;
    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_before, done, start) {
        done += 1;
        drop(built.take());
        built = Some(set_up(cfg.seed, &mut setups));
    }
    let (tpch, db) = built.expect("at least one set-up");
    rep.meta("lineitem_rows", tpch.lineitem_rows);
    rep.meta(
        "orders_rows",
        db.catalog().table("orders").map_or(0, |t| t.nrows()),
    );
    rep.meta(
        "customer_rows",
        db.catalog().table("customer").map_or(0, |t| t.nrows()),
    );
    rep.meta("load", "closed loop, 1 thread");

    let mut queries = Vec::new();
    for (kind, shape) in QUERIES {
        match shape.reference(db.catalog()) {
            Ok(expected) => queries.push(Query {
                kind,
                spec: shape.spec(&tpch),
                expected,
            }),
            Err(e) => {
                rep.check(Err(format!("reference for {kind}: {e}")));
                return (rep, Trace::default());
            }
        }
    }

    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    let deadline = epoch + Duration::from_secs_f64(cfg.seconds);
    let mut latencies = Vec::new();
    let mut costs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut i = 0;
    while Instant::now() < deadline {
        let q = &queries[i % queries.len()];
        // Untraced, this is `Database::execute`; traced, the same steps
        // one layer call at a time.
        let (out, ms) = tr.op("op.query", |tr, op| {
            if tr.enabled() {
                engine::execute_split(tr, op, &db, &q.spec, q.kind).map(|(rows, cost)| {
                    costs.entry(q.kind).or_default().push(cost);
                    rows
                })
            } else {
                db.execute(&q.spec)
                    .map(|r| r.rows)
                    .map_err(|e| e.to_string())
            }
        });
        latencies.push(ms);
        rep.check(out.and_then(|rows| {
            reference::check_rows(&rows, &q.expected, reference::order_col(q.kind))
                .map_err(|e| format!("{}: {e}", q.kind))
        }));
        i += 1;
    }
    let window = epoch.elapsed().as_secs_f64();
    rep.throughput(&latencies, window);

    let trace = tr.into_trace();
    engine::exec_metrics(&mut rep, &trace.spans, &costs, LINEITEM_ROWS);
    drop((tpch, db));
    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_after, done, start) {
        done += 1;
        drop(set_up(cfg.seed, &mut setups));
    }
    setups.report(&mut rep);
    (rep, trace)
}
