//! `wire_short`: a `QueryService` behind `WireServer::start` on loopback
//! over a 4000-row lineitem (the `rqp-netserver` default), driven by two
//! client threads, each holding one `WireClient` in a closed loop over the
//! loadgen menu.
//!
//! Why: each query executes in about a millisecond, so the fixed costs per
//! query dominate: framing, paging credits, a thread per query, the
//! snapshot rebuild, the plan-cache lookup and the recorder. About a
//! quarter of the queries carry fresh parameters, so the plan cache both
//! hits and misses. Scan kernels barely move this workload.

use crate::engine;
use crate::reference::{self, Shape};
use crate::report::{Report, Setups};
use crate::trace::{self, Trace, Tracer};
use crate::RunCfg;
use rqp::server::{QueryOptions, QueryService, ServiceConfig};
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{Database, QuerySpec, Row};
use rqp_net::frame::{Frame, HEADER_LEN};
use rqp_net::loadgen::{menu, menu_index};
use rqp_net::{
    rows_checksum, RemoteOutcome, ServerMsg, WireClient, WireQueryOptions, WireServer, PAGE_ROWS,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LINEITEM_ROWS: usize = 4_000;
const CLIENTS: usize = 2;
/// Kinds of the loadgen menu entries, in menu order.
const MENU_KINDS: [&str; 4] = ["q1", "q3", "q6", "q1"];
/// Keeps the fresh-parameter draws independent of the menu draw.
const FRESH_SALT: u64 = 0x5eed_f4e5_0000_0000;

/// One completed wire query.
struct Done {
    spec: QuerySpec,
    kind: &'static str,
    fresh: bool,
    latency_ms: f64,
    result: Result<RemoteOutcome, String>,
}

/// Client `c`'s `i`-th query: the menu entry `menu_index` picks, or for
/// about a quarter of queries the same template with fresh parameters.
fn pick(
    seed: u64,
    tpch: &TpchDb,
    menu: &[QuerySpec],
    c: usize,
    i: usize,
) -> (QuerySpec, &'static str, bool) {
    let m = menu_index(seed, c, i, menu.len());
    let draw = |salt: u64, n: usize| menu_index(seed ^ FRESH_SALT ^ salt, c, i, n) as i64;
    let kind = MENU_KINDS[m];
    if draw(1, 4) != 0 {
        return (menu[m].clone(), kind, false);
    }
    let shape = match kind {
        "q1" => Shape::Q1 {
            delta_days: draw(2, 1500),
        },
        "q3" => Shape::Q3 {
            segment: draw(3, 5),
            date: 300 + draw(4, 1500),
        },
        _ => Shape::Q6 {
            date_lo: draw(5, 2000),
            discount_mid: 0.02 + draw(6, 61) as f64 * 0.001,
            quantity_max: 24 + draw(7, 26),
        },
    };
    (shape.spec(tpch), kind, true)
}

/// The serving side plus the connected clients.
struct Stack {
    tpch: TpchDb,
    svc: Arc<QueryService>,
    server: WireServer,
    clients: Vec<WireClient>,
}

/// Build the stack: data, service (which analyzes), server and clients.
fn set_up(seed: u64, setups: &mut Setups) -> Result<Stack, String> {
    let t0 = Instant::now();
    let tpch = TpchDb::build(
        TpchParams {
            lineitem_rows: LINEITEM_ROWS,
            ..Default::default()
        },
        seed,
    );
    let t1 = Instant::now();
    let svc = Arc::new(QueryService::new(&tpch.catalog, ServiceConfig::default()));
    let t2 = Instant::now();
    let server = WireServer::start(Arc::clone(&svc), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = format!("127.0.0.1:{}", server.port());
    let clients = (0..CLIENTS)
        .map(|_| WireClient::connect(&addr, 1).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    setups.push(t0, t1, t2, Instant::now());
    Ok(Stack {
        tpch,
        svc,
        server,
        clients,
    })
}

/// Say GOODBYE on every connection, then stop the server: shutdown joins
/// the connection threads, so it would block on a peer left connected.
fn tear_down(stack: Stack) -> Result<(), String> {
    let Stack {
        mut server,
        clients,
        ..
    } = stack;
    let byes: Result<Vec<()>, _> = clients.into_iter().map(WireClient::goodbye).collect();
    server.shutdown();
    byes.map(|_| ()).map_err(|e| format!("goodbye: {e}"))
}

pub fn run(cfg: &RunCfg) -> (Report, Trace) {
    let mut rep = Report::default();
    let mut setups = Setups::default();
    let mut stack = None;
    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_before, done, start) {
        done += 1;
        if let Some(Err(e)) = stack.take().map(tear_down) {
            rep.check(Err(e));
        }
        match set_up(cfg.seed, &mut setups) {
            Ok(s) => stack = Some(s),
            Err(e) => {
                rep.check(Err(format!("set-up: {e}")));
                return (rep, Trace::default());
            }
        }
    }
    let Stack {
        tpch,
        svc,
        server,
        clients,
    } = stack.expect("at least one set-up");
    rep.meta("lineitem_rows", tpch.lineitem_rows);
    rep.meta(
        "load",
        format!("closed loop, {CLIENTS} wire clients on loopback"),
    );
    let menu = menu();
    if menu.len() != MENU_KINDS.len() {
        rep.check(Err(format!(
            "loadgen menu has {} entries, expected {}",
            menu.len(),
            MENU_KINDS.len()
        )));
        return (rep, Trace::default());
    }

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(cfg.seconds);
    let cache = svc.plan_cache();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let runs: Vec<(WireClient, Vec<Done>, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let menu = &menu;
                s.spawn(move || {
                    // Spec construction needs only the template parameters;
                    // the catalog is not shared across threads.
                    let factory = TpchDb::build(
                        TpchParams {
                            lineitem_rows: 64,
                            ..Default::default()
                        },
                        1,
                    );
                    let mut tr = Tracer::new(cfg.trace, epoch, c as u64);
                    let mut done = Vec::new();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let (spec, kind, fresh) = pick(cfg.seed, &factory, menu, c, i);
                        let (result, latency_ms) = tr.op("op.query", |tr, op| {
                            tr.call(op, "net.submit", || {
                                client.submit(&spec, WireQueryOptions::default())
                            })
                            .and_then(|q| tr.call(op, "net.fetch", || client.fetch(q)))
                        });
                        // A protocol error leaves the connection unusable.
                        let (result, broken) = match result {
                            Ok(Ok(outcome)) => (Ok(outcome), false),
                            Ok(Err(failure)) => (Err(format!("query refused: {failure}")), false),
                            Err(e) => (Err(format!("protocol: {e}")), true),
                        };
                        done.push(Done {
                            spec,
                            kind,
                            fresh,
                            latency_ms,
                            result,
                        });
                        if broken {
                            break;
                        }
                        i += 1;
                    }
                    (client, done, tr.into_trace())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = epoch.elapsed().as_secs_f64();
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    rep.set(
        "server.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.set("server.peak_concurrency", svc.peak_concurrency() as f64);

    let mut clients = Vec::new();
    let mut done = Vec::new();
    let mut trace = Trace::default();
    for (client, d, t) in runs {
        clients.push(client);
        done.extend(d);
        trace.extend(t);
    }
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    rep.throughput(&latencies, window);
    rep.meta(
        "fresh_parameter_queries",
        done.iter().filter(|d| d.fresh).count(),
    );

    // Every answer against `Database::execute` of the same spec, compared
    // by the wire checksum.
    let mut tr = Tracer::new(cfg.trace, epoch, CLIENTS as u64);
    let mut refdb = Database::from_catalog(tpch.catalog.clone());
    refdb.analyze();
    let mut costs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reordered = 0;
    for d in &done {
        let (expected, _) = tr.op("probe.reference", |tr, op| {
            if tr.enabled() {
                engine::execute_split(tr, op, &refdb, &d.spec, d.kind).map(|(rows, cost)| {
                    costs.entry(d.kind).or_default().push(cost);
                    rows
                })
            } else {
                refdb
                    .execute(&d.spec)
                    .map(|r| r.rows)
                    .map_err(|e| e.to_string())
            }
        });
        let verdict = match (&d.result, &expected) {
            (Ok(got), Ok(want)) => same_answer(d.kind, &got.rows, want, &mut reordered),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        rep.check(verdict.map_err(|e| format!("wire vs Database::execute: {e}")));
    }
    let protocol_errors = server.stats().protocol_errors;
    rep.set("net.protocol_errors", protocol_errors as f64);
    if protocol_errors > 0 {
        rep.check(Err(format!(
            "{protocol_errors} protocol errors seen by the server"
        )));
    }
    if cfg.trace {
        probe_server(&mut rep, &mut tr, &svc, &done, &mut reordered);
    }
    rep.meta("answers_equal_within_float_tolerance_only", reordered);
    trace.extend(tr.into_trace());
    engine::exec_metrics(&mut rep, &trace.spans, &costs, LINEITEM_ROWS);
    rep.quantile(
        "net.submit_ms",
        &trace::durations_ms(&trace.spans, "net.submit"),
        0.5,
    );
    rep.quantile(
        "net.fetch_ms",
        &trace::durations_ms(&trace.spans, "net.fetch"),
        0.5,
    );
    rep.check(tear_down(Stack {
        tpch,
        svc,
        server,
        clients,
    }));
    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_after, done, start) {
        done += 1;
        let stack = set_up(cfg.seed, &mut setups).map_err(|e| format!("set-up: {e}"));
        if let Err(e) = stack.and_then(tear_down) {
            rep.check(Err(e));
        }
    }
    setups.report(&mut rep);
    (rep, trace)
}

/// The wire's rows `got` against `want` from another path: equal
/// checksums, or the same rows within the float tolerance. The second case
/// arises when the service's feedback-tuned plan joins in another order
/// than the other path's plan and so adds the floats of a sum in another
/// order; `reordered` counts it.
fn same_answer(kind: &str, got: &[Row], want: &[Row], reordered: &mut u64) -> Result<(), String> {
    if rows_checksum(got) == rows_checksum(want) {
        return Ok(());
    }
    reference::check_rows(got, want, reference::order_col(kind))
        .map_err(|e| format!("{kind}: checksums differ: {e}"))?;
    *reordered += 1;
    Ok(())
}

/// Per completed query, after the window: the same spec through
/// `run_solo` and through `Session::submit` + `join`, and the received rows
/// through the PAGE codec.
fn probe_server(
    rep: &mut Report,
    tr: &mut Tracer,
    svc: &QueryService,
    done: &[Done],
    reordered: &mut u64,
) {
    let session = svc.session(1);
    let (mut solo_ms, mut join_ms, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut codec_ms, mut rows, mut bytes, mut pages) = (0.0, 0usize, Vec::new(), Vec::new());
    for d in done {
        let Ok(got) = &d.result else { continue };
        let mut same = |what: &str, r: rqp::common::Result<Vec<Row>>| {
            r.map_err(|e| e.to_string())
                .and_then(|rows| same_answer(d.kind, &got.rows, &rows, reordered))
                .map_err(|e| format!("wire vs {what}: {e}"))
        };
        let (solo, ms) = tr.op("probe.solo", |tr, op| {
            tr.call(op, "server.solo", || svc.run_solo(&d.spec))
        });
        rep.check(same("run_solo", solo.map(|o| o.rows)));
        solo_ms.push(ms);
        overhead.push(d.latency_ms - ms);
        let (joined, ms) = tr.op("probe.submit_join", |tr, op| {
            tr.call(op, "server.submit_join", || {
                session
                    .submit(d.spec.clone(), QueryOptions::default())
                    .join()
            })
        });
        rep.check(same("Session::submit", joined.map(|o| o.rows)));
        join_ms.push(ms);

        let msgs: Vec<ServerMsg> = got
            .rows
            .chunks(PAGE_ROWS)
            .map(|c| ServerMsg::Page {
                query: got.query,
                rows: c.to_vec(),
            })
            .collect();
        let (sizes, ms) = tr.op("probe.codec", |tr, op| {
            tr.call(op, "net.codec", || {
                msgs.iter()
                    .map(|m| {
                        let (tag, payload) = m.encode()?;
                        let len = HEADER_LEN + payload.len();
                        ServerMsg::decode(&Frame {
                            msg_type: tag,
                            payload,
                        })?;
                        Ok(len)
                    })
                    .collect::<rqp::common::Result<Vec<usize>>>()
            })
        });
        match sizes {
            Ok(sizes) => {
                codec_ms += ms;
                rows += got.rows.len();
                bytes.push(sizes.iter().sum::<usize>() as f64);
                pages.push(sizes.len() as f64);
            }
            Err(e) => rep.check(Err(format!("{}: PAGE codec: {e}", d.kind))),
        }
    }
    rep.quantile("server.solo_ms", &solo_ms, 0.5);
    rep.quantile("server.submit_join_ms", &join_ms, 0.5);
    rep.quantile("net.overhead_ms", &overhead, 0.5);
    if rows > 0 {
        rep.set("net.codec_us_per_row", codec_ms * 1e3 / rows as f64);
        rep.samples.insert("net.codec_us_per_row", rows);
    }
    rep.mean("net.bytes_per_query", &bytes);
    rep.mean("net.pages_per_query", &pages);
}
