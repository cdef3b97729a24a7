//! `append_stream`: writes beside reads on data larger than the buffer
//! pool. A `QueryService` whose page budget is below lineitem's page count
//! holds 64 standing subscriptions over the loadgen menu (ORDER BY and
//! LIMIT stripped). One thread appends fixed-size batches on an open-loop
//! schedule; after each append a second polls every subscription until its
//! lag is zero; a third runs ad-hoc reads in a closed loop. The window is
//! cut into epochs, each on a freshly built service.
//!
//! Why: this is the workload that uses storage (copy-on-write appends, the
//! changelog, page invalidation, pool refaults), the stream circuits, and
//! admission shared between polls and reads. A scan cache that speeds up
//! `scan_heavy` but must be invalidated on every append shows its cost
//! here.

use crate::report::{Report, Setups};
use crate::trace::{self, Trace, Tracer};
use crate::RunCfg;
use rqp::server::{QueryOptions, QueryService, ServiceConfig, SubscribeOptions, Subscription};
use rqp::stream::canonicalize;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{QuerySpec, Row, Value};
use rqp_net::loadgen::{menu, menu_index};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const LINEITEM_ROWS: usize = 4_000;
const SUBSCRIPTIONS: usize = 64;
/// Rows per appended batch; each row is one changelog record.
const BATCH_ROWS: usize = 16;
/// The open-loop schedule: batch `b` is due `b` periods into its epoch.
const BATCH_PERIOD: Duration = Duration::from_millis(20);
/// The measured window is cut into epochs of about this length, each on a
/// freshly built service. Lineitem grows from 40 to about 80 pages within
/// an epoch however long the run, so the figures do not depend on the
/// window's length, and each epoch's views are checked.
const EPOCH: Duration = Duration::from_secs(5);
/// Set-ups timed between epochs. Spread over the whole run, they see the
/// host's fast and slow phases in the same mix as the window does; the
/// set-ups before and after the window each fall within one phase.
const SETUPS_PER_EPOCH: usize = 3;
/// Buffer-pool frames: lineitem alone spans 40 pages of 100 rows before
/// the first append.
const PAGE_BUDGET: usize = 24;
/// Keeps the appended-row draws independent of the read-menu draw.
const ROW_SALT: u64 = 0xa99e_0d00_0000_0000;

/// The subscription menu: the loadgen menu with ORDER BY and LIMIT
/// stripped, since a maintained view is an unordered multiset.
fn sub_menu() -> Vec<QuerySpec> {
    menu()
        .into_iter()
        .map(|mut s| {
            s.order_by.clear();
            s.limit = None;
            s
        })
        .collect()
}

/// Row `r` of batch `b`, drawn from the seed. Floats are dyadic (exact in
/// an f64), so maintained sums do not drift from a cold re-run.
fn fresh_row(seed: u64, b: usize, r: usize) -> Row {
    let d = |col: u64, n: usize| menu_index(seed ^ ROW_SALT ^ col, b, r, n) as i64;
    vec![
        Value::Int(d(1, LINEITEM_ROWS / 4)),               // orderkey
        Value::Int(d(2, LINEITEM_ROWS / 30)),              // partkey
        Value::Int(d(3, LINEITEM_ROWS / 500)),             // suppkey
        Value::Int(1 + d(4, 50)),                          // quantity
        Value::Float(900.0 + d(5, 416_000) as f64 * 0.25), // extendedprice
        Value::Float(d(6, 13) as f64 * 0.007_812_5),       // discount
        Value::Int(d(7, 2557)),                            // shipdate
        Value::Int(d(8, 3)),                               // returnflag
    ]
}

/// A subscription with its menu entry.
struct Sub {
    id: u64,
    menu: usize,
    handle: Arc<Subscription>,
}

/// Poll-side bookkeeping for one epoch: which batch each subscription
/// has seen, and the delta latencies measured so far.
struct Poller {
    epoch: Instant,
    /// Changelog length before the first append.
    base: u64,
    /// Per subscription, the first batch its view does not yet hold.
    next: Vec<usize>,
    delta_ms: Vec<f64>,
    /// Delta rows and duration (ms) of each poll that folded records;
    /// polls that find nothing new are not counted.
    delta_rows: Vec<f64>,
    fold_ms: Vec<f64>,
    /// (seconds into the epoch, lag the poll returned).
    lags: Vec<(f64, u64)>,
}

impl Poller {
    fn new(epoch: Instant, base: u64, subs: usize) -> Poller {
        Poller {
            epoch,
            base,
            next: vec![0; subs],
            delta_ms: Vec::new(),
            delta_rows: Vec::new(),
            fold_ms: Vec::new(),
            lags: Vec::new(),
        }
    }

    /// Poll subscription `s` until its lag is zero, one batch per poll.
    /// Each batch's delta latency runs from its due time to the return of
    /// the poll that folds it.
    fn catch_up(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        svc: &QueryService,
        s: usize,
        sub: &Sub,
    ) -> Result<(), String> {
        loop {
            let before = sub.handle.cursor();
            let start = Instant::now();
            let polled = tr.call(op, "stream.poll", || {
                svc.poll_subscription(sub.id, BATCH_ROWS)
            });
            let now = Instant::now();
            let (packet, lag) =
                polled.map_err(|e| format!("poll of subscription {}: {e}", sub.id))?;
            let cursor = sub.handle.cursor();
            self.lags
                .push((now.duration_since(self.epoch).as_secs_f64(), lag));
            if cursor > before {
                self.delta_rows.push(packet.delta_rows() as f64);
                self.fold_ms
                    .push(now.duration_since(start).as_secs_f64() * 1e3);
            }
            while self.base + ((self.next[s] + 1) * BATCH_ROWS) as u64 <= cursor {
                let due = self.epoch + BATCH_PERIOD * self.next[s] as u32;
                self.delta_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                self.next[s] += 1;
            }
            if lag == 0 {
                return Ok(());
            }
        }
    }
}

/// What the appending thread saw.
struct Appended {
    batches: usize,
    late_ms: Vec<f64>,
    errors: Vec<String>,
    trace: Trace,
}

/// Append one batch per period until the epoch closes, each at its due
/// time (or as soon after it as the previous append allows), and tell the
/// poller after each. Batches are numbered from `first` across the run, so
/// every epoch appends new rows.
fn append_loop(
    svc: &QueryService,
    seed: u64,
    mut tr: Tracer,
    (epoch, deadline): (Instant, Instant),
    (base, first): (u64, usize),
    wake: mpsc::Sender<()>,
) -> Appended {
    let (mut late_ms, mut errors) = (Vec::new(), Vec::new());
    let mut b = 0;
    loop {
        let due = epoch + BATCH_PERIOD * b as u32;
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let rows: Vec<Row> = (0..BATCH_ROWS)
            .map(|r| fresh_row(seed, first + b, r))
            .collect();
        let (appended, _) = tr.op("op.append", |tr, op| {
            tr.call(op, "storage.append", || svc.append_rows("lineitem", rows))
        });
        let want = base + ((b + 1) * BATCH_ROWS) as u64;
        match appended {
            Ok(epoch_after) if epoch_after == want => {}
            Ok(epoch_after) => errors.push(format!(
                "batch {b}: changelog at {epoch_after}, expected {want}"
            )),
            Err(e) => errors.push(format!("batch {b}: append: {e}")),
        }
        // The poller only stops early when it failed; that is reported.
        let _ = wake.send(());
        b += 1;
    }
    Appended {
        batches: b,
        late_ms,
        errors,
        trace: tr.into_trace(),
    }
}

/// Generate the data, start the service (which analyzes) and register
/// the subscriptions, recording each `subscribe` call in `subscribe_ms`.
fn set_up(
    seed: u64,
    specs: &[QuerySpec],
    setups: &mut Setups,
    subscribe_ms: &mut Vec<f64>,
) -> Result<(TpchDb, QueryService, Vec<Sub>), String> {
    let t0 = Instant::now();
    let tpch = TpchDb::build(
        TpchParams {
            lineitem_rows: LINEITEM_ROWS,
            ..Default::default()
        },
        seed,
    );
    let t1 = Instant::now();
    // The page budget goes through the config only; the environment knob
    // is refused at start-up.
    let config = ServiceConfig {
        page_budget: Some(PAGE_BUDGET),
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&tpch.catalog, config);
    let t2 = Instant::now();
    let mut subs = Vec::new();
    for i in 0..SUBSCRIPTIONS {
        let menu = i % specs.len();
        let t = Instant::now();
        let id = svc
            .subscribe(&specs[menu], SubscribeOptions::default())
            .map_err(|e| format!("subscribe: {e}"))?;
        subscribe_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let handle = svc
            .subscriptions()
            .get(id)
            .ok_or_else(|| format!("subscription {id} not registered"))?;
        subs.push(Sub { id, menu, handle });
    }
    setups.push(t0, t1, t2, Instant::now());
    Ok((tpch, svc, subs))
}

/// What the epochs of one run measured, pooled.
#[derive(Default)]
struct Totals {
    /// Seconds inside the epochs' windows.
    window: f64,
    /// Reads started so far; drives the read-menu draw across epochs.
    rounds: usize,
    read_ms: Vec<f64>,
    batches: usize,
    late_ms: Vec<f64>,
    /// Largest lineitem size an epoch reached.
    max_rows: usize,
    delta_ms: Vec<f64>,
    delta_rows: Vec<f64>,
    fold_ms: Vec<f64>,
    max_lag: u64,
    /// Polls that returned (failed ones are counted where they fail).
    polls: u64,
    solo_ms: Vec<f64>,
    diverged: usize,
    pool_hits: u64,
    pool_faults: u64,
    pool_refaults: u64,
    pool_evictions: u64,
    trace: Trace,
}

/// One epoch on a freshly built service: appends, polls and reads for
/// `len`, then drain every subscription and check every view.
fn run_epoch(
    cfg: &RunCfg,
    rep: &mut Report,
    tr: &mut Tracer,
    tot: &mut Totals,
    specs: &[QuerySpec],
    (tpch, svc, subs): (TpchDb, QueryService, Vec<Sub>),
    (origin, len, index): (Instant, Duration, usize),
) {
    let Some(pool) = svc.pager().cloned() else {
        rep.check(Err("service has no buffer pool".into()));
        return;
    };
    let reads = menu();
    let pool0 = pool.stats();
    let epoch = Instant::now();
    let deadline = epoch + len;
    let base = svc.changelog().len();
    let mut poller = Poller::new(epoch, base, subs.len());
    // Slot 1 is the reader's; each epoch's appender and poller take the
    // next two.
    let appender_tr = Tracer::new(cfg.trace, origin, 2 + 2 * index as u64);
    let mut poller_tr = Tracer::new(cfg.trace, origin, 3 + 2 * index as u64);
    let first = tot.batches;
    let (tx, rx) = mpsc::channel();
    let (appended, polled) = std::thread::scope(|s| {
        let appender = s.spawn(|| {
            append_loop(&svc, cfg.seed, appender_tr, (epoch, deadline), (base, first), tx)
        });
        // One round per appended batch: poll every subscription until its
        // lag is zero. Batches that arrived during a round are folded by
        // it, so their wake-ups are skipped.
        let (svc, subs) = (&svc, &subs);
        let (poller, poller_tr) = (&mut poller, &mut poller_tr);
        let poller = s.spawn(move || {
            for () in &rx {
                while rx.try_recv().is_ok() {}
                let (caught_up, _) = poller_tr.op("op.poll_round", |tr, op| {
                    subs.iter()
                        .enumerate()
                        .try_for_each(|(i, sub)| poller.catch_up(tr, op, svc, i, sub))
                });
                caught_up?;
            }
            Ok(())
        });
        let session = svc.session(1);
        while Instant::now() < deadline {
            let spec = reads[menu_index(cfg.seed, 0, tot.rounds, reads.len())].clone();
            let (read, ms) = tr.op("op.query", |tr, op| {
                tr.call(op, "server.submit_join", || {
                    session.submit(spec, QueryOptions::default()).join()
                })
            });
            tot.read_ms.push(ms);
            rep.check(read.map(|_| ()).map_err(|e| format!("ad-hoc read: {e}")));
            tot.rounds += 1;
        }
        tot.window += epoch.elapsed().as_secs_f64();
        (
            appender.join().expect("append thread panicked"),
            poller.join().expect("poll thread panicked"),
        )
    });
    if polled.is_err() {
        rep.check(polled);
    }
    let pool1 = pool.stats();
    tot.pool_hits += pool1.hits - pool0.hits;
    tot.pool_faults += pool1.faults() - pool0.faults();
    tot.pool_refaults += pool1.refaults - pool0.refaults;
    tot.pool_evictions += pool1.evictions - pool0.evictions;
    tot.batches += appended.batches;
    tot.max_rows = tot
        .max_rows
        .max(tpch.lineitem_rows + appended.batches * BATCH_ROWS);
    tot.late_ms.extend(appended.late_ms);
    rep.attempted += appended.batches as u64;
    rep.failed += appended.errors.len() as u64;
    rep.problems.extend(appended.errors);
    tot.trace.extend(appended.trace);
    tot.trace.extend(poller_tr.into_trace());
    lag_growth(rep, &poller.lags, len.as_secs_f64());

    // Drain what the window left behind, then check every batch reached
    // every view and every view equals a cold re-run of its spec.
    for (i, sub) in subs.iter().enumerate() {
        let (drained, _) = tr.op("probe.drain", |tr, op| {
            poller.catch_up(tr, op, &svc, i, sub)
        });
        if drained.is_err() {
            rep.check(drained);
        }
        let seen = poller.next[i];
        rep.check(if seen == appended.batches {
            Ok(())
        } else {
            Err(format!(
                "subscription {} folded {seen} of {} batches",
                sub.id, appended.batches
            ))
        });
    }
    for sub in &subs {
        let (cold, ms) = tr.op("probe.solo", |tr, op| {
            tr.call(op, "server.solo", || svc.run_solo(&specs[sub.menu]))
        });
        tot.solo_ms.push(ms);
        let verdict = cold
            .map_err(|e| format!("cold re-run: {e}"))
            .and_then(|cold| {
                if canonicalize(cold.rows) == canonicalize(sub.handle.view()) {
                    Ok(())
                } else {
                    tot.diverged += 1;
                    Err(format!(
                        "subscription {} view differs from a cold re-run",
                        sub.id
                    ))
                }
            });
        rep.check(verdict);
    }
    if svc.shutdown_subscriptions() != subs.len() {
        rep.check(Err("not every subscription tore down".into()));
    }
    tot.polls += poller.lags.len() as u64;
    tot.max_lag = poller.lags.iter().map(|l| l.1).fold(tot.max_lag, u64::max);
    tot.delta_ms.extend(poller.delta_ms);
    tot.delta_rows.extend(poller.delta_rows);
    tot.fold_ms.extend(poller.fold_ms);
}

pub fn run(cfg: &RunCfg) -> (Report, Trace) {
    let mut rep = Report::default();
    let specs = sub_menu();
    let mut setups = Setups::default();
    let mut subscribe = Vec::new();
    let mut built = None;
    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_before, done, start) {
        done += 1;
        drop(built.take());
        match set_up(cfg.seed, &specs, &mut setups, &mut subscribe) {
            Ok(b) => built = Some(b),
            Err(e) => {
                rep.check(Err(format!("set-up: {e}")));
                return (rep, Trace::default());
            }
        }
    }
    let epochs = ((cfg.seconds / EPOCH.as_secs_f64()).round() as usize).max(1);
    let len = Duration::from_secs_f64(cfg.seconds / epochs as f64);
    rep.meta("lineitem_rows", LINEITEM_ROWS);
    rep.meta("subscriptions", SUBSCRIPTIONS);
    rep.meta("page_budget", PAGE_BUDGET);
    rep.meta("batch_rows", BATCH_ROWS);
    rep.meta("batch_period_ms", BATCH_PERIOD.as_millis());
    rep.meta("epochs", epochs);
    rep.meta("epoch_seconds", len.as_secs_f64());
    rep.meta(
        "load",
        "open-loop appends on 1 thread; polls after each append on 1 thread; closed-loop reads on 1 thread",
    );

    let origin = Instant::now();
    let mut tr = Tracer::new(cfg.trace, origin, 1);
    let mut tot = Totals::default();
    for index in 0..epochs {
        // The first epoch runs on the last state built above. Each later
        // one builds its state SETUPS_PER_EPOCH times, timed like the
        // others, and runs on the last.
        let builds = if built.is_some() { 0 } else { SETUPS_PER_EPOCH };
        if builds > 0 {
            release_free_memory();
        }
        for _ in 0..builds {
            drop(built.take());
            match set_up(cfg.seed, &specs, &mut setups, &mut subscribe) {
                Ok(b) => built = Some(b),
                Err(e) => {
                    rep.check(Err(format!("set-up: {e}")));
                    return (rep, Trace::default());
                }
            }
        }
        let state = built.take().expect("state built for the epoch");
        run_epoch(
            cfg,
            &mut rep,
            &mut tr,
            &mut tot,
            &specs,
            state,
            (origin, len, index),
        );
    }
    rep.throughput(&tot.read_ms, tot.window);
    rep.meta("batches", tot.batches);
    rep.meta("lineitem_rows_at_epoch_end", tot.max_rows);
    rep.set("stream.max_lag_records", tot.max_lag as f64);
    rep.set(
        "storage.pool_hit_ratio",
        tot.pool_hits as f64 / (tot.pool_hits + tot.pool_faults).max(1) as f64,
    );
    rep.set("storage.pool_refaults", tot.pool_refaults as f64);
    rep.set("storage.pool_evictions", tot.pool_evictions as f64);
    rep.set(
        "bench.generator_late_ms",
        tot.late_ms.iter().copied().fold(0.0, f64::max),
    );
    rep.samples.insert("bench.generator_late_ms", tot.late_ms.len());
    // Every successful poll is an operation too.
    rep.attempted += tot.polls;
    rep.set("stream.view_divergence", tot.diverged as f64);
    rep.quantile("stream.delta_p50_ms", &tot.delta_ms, 0.5);
    rep.quantile("stream.delta_p99_ms", &tot.delta_ms, 0.99);
    rep.mean("stream.delta_rows_per_poll", &tot.delta_rows);

    let (start, mut done) = (Instant::now(), 0);
    while cfg.more_setups(cfg.setups_after, done, start) {
        done += 1;
        if let Err(e) = set_up(cfg.seed, &specs, &mut setups, &mut subscribe) {
            rep.check(Err(format!("set-up: {e}")));
        }
    }
    setups.report(&mut rep);
    rep.quantile("server.subscribe_ms", &subscribe, 0.5);

    let mut trace = std::mem::take(&mut tot.trace);
    trace.extend(tr.into_trace());
    let spans = &trace.spans;
    if cfg.trace {
        rep.quantile("server.solo_ms", &tot.solo_ms, 0.5);
        let appends = trace::durations_ms(spans, "storage.append");
        rep.quantile("storage.append_ms.p50", &appends, 0.5);
        rep.quantile("storage.append_ms.p99", &appends, 0.99);
        rep.quantile("stream.poll_ms.p50", &tot.fold_ms, 0.5);
        rep.quantile("stream.poll_ms.p99", &tot.fold_ms, 0.99);
        rep.quantile(
            "server.submit_join_ms",
            &trace::durations_ms(spans, "server.submit_join"),
            0.5,
        );
    }
    (rep, trace)
}

/// Hand the heap's free pages back to the kernel, so the next epoch starts
/// from the memory a fresh process would have. Without this, how much of
/// the last epoch's freed memory the allocator's per-thread arenas keep
/// depends on how the threads interleaved, and `rss_mb` of the same code
/// moved by a sixth between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers; it only releases
    // unused heap pages.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// An open loop is only meaningful at a rate the system keeps up with: a
/// lag that grows from the middle of an epoch's window to its end means
/// the backlog would grow without bound, so the run fails.
fn lag_growth(rep: &mut Report, lags: &[(f64, u64)], seconds: f64) {
    let max_in = |lo: f64, hi: f64| {
        lags.iter()
            .filter(|(t, _)| *t >= lo * seconds && *t < hi * seconds)
            .map(|l| l.1)
            .max()
            .unwrap_or(0)
    };
    let (middle, end) = (max_in(0.25, 0.5), max_in(0.75, 1.0));
    let allowed = (2 * middle).max(middle + 4 * BATCH_ROWS as u64);
    rep.check(if end <= allowed {
        Ok(())
    } else {
        Err(format!("lag grew from {middle} records mid-epoch to {end} at its end: the append rate is unsustainable"))
    });
}
