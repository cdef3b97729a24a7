//! Wall-clock benchmark of rqp. Three workloads each put a different layer
//! at the centre: `scan_heavy` the executor, `wire_short` the per-query
//! fixed costs of the service and wire protocol, `append_stream` storage
//! appends and standing-subscription maintenance. README.md has the metric
//! table and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload scan_heavy --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).

mod append_stream;
mod engine;
mod reference;
mod report;
mod scan_heavy;
mod trace;
mod wire_short;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// Knobs that `ServiceConfig::default()`, `ChaosPolicy::from_env` and the
/// planner read from the environment. The benchmark measures the default
/// configuration only, so it refuses to run while any of them is set.
const GUARDED_ENV: [&str; 4] = [
    "RQP_BATCH",
    "RQP_THREADS",
    "RQP_CHAOS_SEED",
    "RQP_PAGE_BUDGET",
];

/// Set-ups per untraced run, before and after the measured window: at
/// least these many, and more until each side has spent `SETUP_SECONDS`
/// (at most `MAX_SETUPS`), so a quick set-up is sampled often enough for a
/// steady median. The host's load drifts over seconds, so samples half a
/// minute apart see different phases of it; `setup_s` is the median of
/// all of them.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUPS: usize = 500;

/// How one workload run is driven.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Least times to build the workload's state before the window (the
    /// last build is measured) and after it (built only to be timed).
    pub setups_before: usize,
    pub setups_after: usize,
    /// Seconds of set-up to fill on each side of the window.
    pub setup_seconds: f64,
}

impl RunCfg {
    /// Whether a set-up phase that began at `start` and has done `done`
    /// set-ups runs another: until it has done `min` and spent
    /// `setup_seconds`.
    pub fn more_setups(&self, min: usize, done: usize, start: Instant) -> bool {
        done < min || (done < MAX_SETUPS && start.elapsed().as_secs_f64() < self.setup_seconds)
    }
}

type Workload = fn(&RunCfg) -> (Report, Trace);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{flag}: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: match trace {
            Some(0) => false,
            Some(1) => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload scan_heavy|wire_short|append_stream --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = GUARDED_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "refusing to run: {knob} is set, and the benchmark measures the default configuration"
        );
        return ExitCode::from(2);
    }
    let run: Workload = match args.workload.as_str() {
        "scan_heavy" => scan_heavy::run,
        "wire_short" => wire_short::run,
        "append_stream" => append_stream::run,
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (setups_before, setups_after, setup_seconds) = if args.trace {
        (1, 0, 0.0)
    } else {
        (SETUPS_BEFORE, SETUPS_AFTER, SETUP_SECONDS)
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        setups_before,
        setups_after,
        setup_seconds,
    };
    let sampler = RssSampler::start();
    let (mut rep, trace) = run(&cfg);
    let rss = sampler.stop();
    rep.quantile("rss_mb", &rss, 0.5);
    if args.trace {
        traced_metrics(&mut rep, &trace);
        dump_spans(&args, &trace);
    }
    rep.set("process.peak_rss_mb", status_mb("VmHWM:"));
    rep.set(
        "bench.failed_ops_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    finish(&args, rep)
}

/// Coverage, self time per layer and tracing overhead of a traced run.
fn traced_metrics(rep: &mut Report, trace: &Trace) {
    let split = trace::split(&trace.spans);
    rep.set("bench.layer_coverage", split.coverage);
    for (name, _) in PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("self_frac."))
    {
        let layer = &name["self_frac.".len()..];
        rep.set(name, split.self_frac.get(layer).copied().unwrap_or(0.0));
    }
    if let Some(overhead) = trace::overhead(&trace.ops) {
        rep.set("bench.trace_overhead_frac", overhead);
    }
}

/// Keep the spans of a traced run for inspection, one JSON object a line.
fn dump_spans(args: &Args, trace: &Trace) {
    let dir = Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, trace::to_json_lines(&trace.spans)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Print the metric table, the metadata line and the result line.
fn finish(args: &Args, mut rep: Report) -> ExitCode {
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = vec![
        ("workload", args.workload.clone()),
        ("rev", source_rev()),
        ("nproc", nproc.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    meta.append(&mut rep.meta);
    for (name, unit) in catalog {
        let v = rep.values.get(name).copied().unwrap_or(0.0);
        let n = rep
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("n={n}"));
        println!("{name:<30} {v:>16.6} {unit:<6} {n}");
    }
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
        .collect();
    let samples_json: Vec<String> = rep
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", report::json_str(k)))
        .collect();
    println!(
        "{{\"meta\": {{{}}}, \"samples\": {{{}}}}}",
        meta_json.join(", "),
        samples_json.join(", ")
    );
    for p in &rep.problems {
        eprintln!("FAILED: {p}");
    }
    if !rep.shortfalls.is_empty() {
        for s in &rep.shortfalls {
            eprintln!("too few samples: {s}");
        }
        eprintln!("run more seconds; no result reported");
        return ExitCode::from(1);
    }
    let correct = rep.failed == 0;
    println!("{}", report::result_line(&rep, correct, catalog));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A field of `/proc/self/status` given in kB (`VmRSS:`, `VmHWM:`), in
/// MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples the resident set every `RSS_PERIOD` while a run executes.
/// `rss_mb` is the median sample: the peak (`VmHWM`) of the same code
/// moves by a fifth between runs, with how much freed memory the
/// allocator's per-thread arenas happen to hold at one instant.
struct RssSampler {
    stop: std::sync::mpsc::Sender<()>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

const RSS_PERIOD: std::time::Duration = std::time::Duration::from_millis(100);

impl RssSampler {
    fn start() -> RssSampler {
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut samples = vec![status_mb("VmRSS:")];
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(RSS_PERIOD)
            {
                samples.push(status_mb("VmRSS:"));
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling and return the samples, in MiB.
    fn stop(self) -> Vec<f64> {
        drop(self.stop);
        self.thread.join().expect("RSS sampler panicked")
    }
}

/// A revision id for checkouts that are not git repositories: an FNV-1a
/// hash over the paths and contents of the Rust sources and manifests of
/// the crates and this benchmark.
fn source_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "wallbench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-{h:016x} ({} files)", files.len())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() && !p.ends_with("target") {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
            out.push(p);
        }
    }
}
