//! Spans recorded around the benchmark's own calls into each layer.
//!
//! An end-to-end operation is a root span named `op.<kind>`; every timed
//! call it makes into a layer is a child span named `<layer>.<call>`, and
//! the spans of one operation share its id. Checks and probes that run
//! outside the measured window are roots named `probe.<kind>`: their spans
//! feed the per-layer timings but not the coverage split.
//!
//! With tracing off nothing is recorded. With tracing on, every other
//! `op.query` is left untraced, so traced and untraced queries share the
//! same stretch of time and their latencies give the tracing overhead free
//! of the machine's drift between runs. Other operations are all traced.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id shared by the root span of an operation and all of its calls.
    pub op: u64,
    /// `op.<kind>` / `probe.<kind>` for roots, `<layer>.<call>` otherwise.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn is_root(&self) -> bool {
        self.name.starts_with("op.") || self.name.starts_with("probe.")
    }

    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Latency of one operation of a traced run, and whether it was traced.
#[derive(Debug, Clone, Copy)]
pub struct OpLatency {
    pub kind: &'static str,
    pub traced: bool,
    pub ms: f64,
}

/// What a traced run recorded.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub ops: Vec<OpLatency>,
}

impl Trace {
    pub fn extend(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.ops.extend(other.ops);
    }
}

/// A per-thread span recorder. Operation ids are drawn from a disjoint
/// range per tracer so several threads' spans merge without clashes.
pub struct Tracer {
    on: bool,
    /// Whether the operation in progress is traced.
    enabled: bool,
    epoch: Instant,
    next_op: u64,
    /// `op.query` operations started so far.
    queries: u64,
    trace: Trace,
}

impl Tracer {
    /// A recorder for thread `slot`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant, slot: u64) -> Tracer {
        Tracer {
            on,
            enabled: false,
            epoch,
            next_op: slot << 40,
            queries: 0,
            trace: Trace::default(),
        }
    }

    /// Whether the operation in progress is traced (calls inside it are
    /// split into layer spans).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run one operation (`kind` is `op.*` or `probe.*`). Returns its
    /// result and its latency in milliseconds, measured with tracing on or
    /// off.
    pub fn op<T>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer, u64) -> T) -> (T, f64) {
        self.next_op += 1;
        let op = self.next_op;
        if kind == "op.query" {
            self.queries += 1;
        }
        self.enabled = self.on && (kind != "op.query" || self.queries % 2 == 1);
        let start = Instant::now();
        let out = f(self, op);
        let end = Instant::now();
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        if self.on {
            self.trace.ops.push(OpLatency {
                kind,
                traced: self.enabled,
                ms,
            });
        }
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.trace.spans.push(Span {
                op,
                name: kind,
                start_ns,
                end_ns,
            });
        }
        self.enabled = false;
        (out, ms)
    }

    /// Time one call into a layer as a child span of operation `op`.
    pub fn call<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.trace.spans.push(Span {
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// What was recorded, consuming the tracer.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Where the traced end-to-end time went.
pub struct Split {
    /// Share of `op.*` time spent inside calls to a layer.
    pub coverage: f64,
    /// Self time per layer as a share of `op.*` time; `bench` is the
    /// benchmark's own glue (root self time). The shares sum to 1.
    pub self_frac: BTreeMap<&'static str, f64>,
}

/// Self time per layer over the `op.*` operations. Calls within one
/// operation run one after another on its thread, so a root's self time is
/// its duration minus its children's.
pub fn split(spans: &[Span]) -> Split {
    let ops: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .map(|s| (s.op, s))
        .collect();
    let total: f64 = ops.values().map(|s| s.ms()).sum();
    let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut inside = 0.0;
    for s in spans
        .iter()
        .filter(|s| !s.is_root() && ops.contains_key(&s.op))
    {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *self_ms.entry(layer).or_default() += s.ms();
        inside += s.ms();
    }
    self_ms.insert("bench", total - inside);
    let share = |ms: f64| if total > 0.0 { ms / total } else { 0.0 };
    Split {
        coverage: share(inside),
        self_frac: self_ms.into_iter().map(|(k, v)| (k, share(v))).collect(),
    }
}

/// Median latency of the traced `op.query` operations over that of the
/// untraced ones, minus one.
pub fn overhead(ops: &[OpLatency]) -> Option<f64> {
    let p50 = |traced: bool| {
        let ms: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == "op.query" && o.traced == traced)
            .map(|o| o.ms)
            .collect();
        crate::report::quantile(&ms, 0.5)
    };
    Some(p50(true)? / p50(false)? - 1.0)
}

/// The spans as JSON lines, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
