//! `vrmbench` — the repository's benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path vrmbench/Cargo.toml -- \
//!       --workload litmus-batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three seeded, closed-loop workloads (`litmus-batch`,
//! `machine-walks`, `serve-mixed`), each loading a different tier of
//! the workspace; see `vrmbench/README.md` for why each exists and
//! which layer metric should move which end-to-end metric. The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress, sample counts and determinism anchors go to
//! standard error. Exit code 0 on a complete run, 1 when a verdict
//! contradicted its reference or the run could not be measured, 2 on a
//! usage error.

mod check;
mod litmus_batch;
mod machine_walks;
mod rng;
mod serve_mixed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Judgement, Tally};
use rng::Orders;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: vrmbench --workload litmus-batch|machine-walks|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the final result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back for the result line.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

fn render(report: &Report) -> String {
    let mut metrics = vrm_obs::json::ObjWriter::new();
    for m in &report.metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        metrics.field_raw(
            m.name,
            &format!("{{\"value\": {value:?}, \"unit\": \"{}\"}}", m.unit),
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.tally.correct(),
        report.tally.attempted,
        report.tally.failed,
        metrics.finish()
    )
}

/// Every per-layer metric of the traced run, with its unit, in the
/// order `BENCHMARK.json` lists them. A layer that does no work on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.busy_ms", "ms"),
    ("sc.busy_ms", "ms"),
    ("sc.states", "count"),
    ("promising.busy_ms", "ms"),
    ("promising.states", "count"),
    ("promising.cert_refused_ratio", "ratio"),
    ("axiomatic.busy_ms", "ms"),
    ("axiomatic.accept_ratio", "ratio"),
    ("wdrf.busy_ms", "ms"),
    ("wdrf.states", "count"),
    ("explore.popped", "count"),
    ("explore.pushed", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.sleep_pruned", "count"),
    ("explore.persistent_cut", "count"),
    ("explore.orbit_collapsed", "count"),
    ("explore.states_per_s", "1/s"),
    ("machine.sched_ms", "ms"),
    ("machine.states", "count"),
    ("machine.ms_per_state.asym", "ms"),
    ("machine.ms_per_state.sym", "ms"),
    ("machine.refine_ms", "ms"),
    ("spec.refine_extra_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.parse_request_us", "us"),
    ("serve.digest_us", "us"),
    ("store.replay_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The traced run's per-layer values, filled in by each workload.
#[derive(Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// The exploration-engine counters summed over the `verdict` spans,
    /// and the rate at which those spans popped states over `busy_ms`
    /// of walking.
    pub fn explore(&mut self, t: &trace::Tracer, busy_ms: f64) {
        let count = |c: &str| t.counter("verdict", c);
        let popped = count("explore.states_popped");
        let pushed = count("explore.states_pushed");
        let dedup = count("explore.dedup_hits");
        self.set("explore.popped", popped as f64);
        self.set("explore.pushed", pushed as f64);
        self.set("explore.dedup_ratio", stats::ratio(dedup, dedup + pushed));
        self.set("explore.sleep_pruned", count("explore/sleep_pruned") as f64);
        self.set(
            "explore.persistent_cut",
            count("explore/persistent_cut") as f64,
        );
        self.set(
            "explore.orbit_collapsed",
            count("explore/orbit_collapsed") as f64,
        );
        if busy_ms > 0.0 {
            self.set("explore.states_per_s", popped as f64 / (busy_ms / 1e3));
        }
    }

    /// Tracing overhead: how much longer a verdict takes traced than
    /// untraced over the same inputs — equivalently, how much lower
    /// traced `verdicts_per_s` is.
    pub fn overhead(&mut self, untraced_mean_ms: f64, traced_mean_ms: f64) {
        if untraced_mean_ms > 0.0 {
            self.set(
                "trace.overhead_pct",
                (traced_mean_ms / untraced_mean_ms - 1.0) * 100.0,
            );
        }
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Samples of one closed-loop phase.
#[derive(Default)]
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    /// The input each sample ran; empty when inputs do not recur.
    pub keys: Vec<usize>,
    /// Inputs per pass; 0 when the phase did not run passes.
    pub pass_len: usize,
    pub elapsed_s: f64,
    pub tally: Tally,
    /// Set-up times probed between verdicts, spread over the phase.
    pub setup_s: Vec<f64>,
}

impl Timed {
    /// The latencies the percentiles are taken over: with recurring
    /// inputs, each sample's input floor ([`stats::floors`]).
    pub fn latencies(&self) -> Vec<f64> {
        if self.keys.is_empty() {
            self.latencies_ms.clone()
        } else {
            stats::floors(&self.latencies_ms, &self.keys)
        }
    }

    /// Verdicts per second: with passes, a pass's verdicts over the sum
    /// of its inputs' floors; else replies over the whole phase.
    pub fn verdicts_per_s(&self) -> f64 {
        if self.keys.is_empty() {
            self.latencies_ms.len() as f64 / self.elapsed_s
        } else {
            let pass_ms: f64 = self.latencies()[..self.pass_len].iter().sum();
            self.pass_len as f64 / (pass_ms / 1e3)
        }
    }
}

/// Longest a timed loop may run while it still lacks
/// [`stats::MIN_SAMPLES`], so the process ends well inside its limit.
const HARD_STOP: Duration = Duration::from_secs(110);

/// Set-up probes per timed loop, one every `seconds / SETUP_PROBES`:
/// the host's speed drifts over seconds, and set-ups timed back to back
/// would all see one moment of it.
const SETUP_PROBES: u32 = 10;

/// Runs the inputs `orders` names, `op(input, id)` for the `id`-th
/// verdict, back to back until `seconds` have passed, at least
/// [`stats::MIN_SAMPLES`] verdicts completed, and the last pass is
/// whole — so every run measures the same mix, whatever its speed, and
/// every input recurs once per pass. `op` returns its judgement, or
/// `None` when it errored. Stops at the first wrong verdict. Between
/// verdicts, outside their times, `probe` times a set-up
/// [`SETUP_PROBES`] times, spread over the loop.
pub fn closed_loop(
    seconds: u64,
    orders: &Orders,
    mut probe: impl FnMut() -> Result<f64, String>,
    mut op: impl FnMut(usize, u64) -> Option<Judgement>,
) -> Result<Timed, String> {
    let pass_len = orders.pass_len();
    let mut t = Timed {
        pass_len,
        ..Timed::default()
    };
    let budget = Duration::from_secs(seconds);
    let probe_every = budget / SETUP_PROBES;
    let start = Instant::now();
    for i in 0.. {
        let elapsed = start.elapsed();
        let done = elapsed >= budget && i >= stats::MIN_SAMPLES && i % pass_len == 0;
        if done || elapsed >= HARD_STOP {
            break;
        }
        let probes = t.setup_s.len() as u32;
        if probes < SETUP_PROBES && elapsed >= probe_every * probes {
            t.setup_s.push(probe()?);
        }
        let input = orders.at(i);
        let t0 = Instant::now();
        let j = op(input, i as u64);
        t.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.keys.push(input);
        if !t.tally.outcome(j) {
            break;
        }
    }
    t.elapsed_s = start.elapsed().as_secs_f64();
    Ok(t)
}

/// Untimed warm-up of `n` operations; `Err` carries the tally when a
/// verdict was wrong and the run must stop.
pub fn warm_up(n: usize, mut op: impl FnMut(usize) -> Option<Judgement>) -> Result<(), Tally> {
    let mut tally = Tally::default();
    for i in 0..n {
        if !tally.outcome(op(i)) {
            return Err(tally);
        }
    }
    Ok(())
}

/// The traced run's slice: every item run untraced (timed), then
/// traced, so both see the same inputs in the same state. Returns the
/// untraced times and the tally of both runs.
pub fn paired<T>(
    items: &[T],
    tracer: &mut trace::Tracer,
    mut run: impl FnMut(&T, u64, &mut trace::Tracer) -> Option<Judgement>,
) -> (Vec<f64>, Tally) {
    let mut off = trace::Tracer::new(false);
    let mut plain_ms = Vec::with_capacity(items.len());
    let mut tally = Tally::default();
    for (i, item) in items.iter().enumerate() {
        let t0 = Instant::now();
        let untraced = run(item, i as u64, &mut off);
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let traced = run(item, i as u64, tracer);
        tally.outcome(untraced);
        tally.outcome(traced);
    }
    (plain_ms, tally)
}

/// The untraced run's report: the five end-to-end metrics shared by
/// every workload — or none, when a verdict was wrong and the run
/// stopped. `setup_s`, unless given, is the floor of the loop's set-up
/// probes.
pub fn end_to_end(setup_s: Option<f64>, timed: Timed, peak_rss_mb: f64) -> Result<Report, String> {
    if !timed.tally.correct() {
        return Ok(Report {
            tally: timed.tally,
            metrics: Vec::new(),
        });
    }
    let n = timed.latencies_ms.len();
    eprintln!(
        "samples: {n} verdicts in {:.2}s; {} lie beyond the p90; {} set-up samples",
        timed.elapsed_s,
        stats::beyond(n, 0.9),
        timed.setup_s.len()
    );
    if n < timed.pass_len {
        return Err(format!("only {n} verdicts, short of one pass"));
    }
    let setup_s = setup_s
        .or_else(|| timed.setup_s.iter().copied().reduce(f64::min))
        .ok_or("no set-up was timed")?;
    let latencies = timed.latencies();
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("verdicts_per_s", timed.verdicts_per_s(), "1/s"),
        metric("latency_p50_ms", stats::percentile(&latencies, 0.5)?, "ms"),
        metric("latency_p90_ms", stats::percentile(&latencies, 0.9)?, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Ok(Report {
        tally: timed.tally,
        metrics,
    })
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time, in seconds, of `reps` runs of `f`, and the last
/// run's result. Earlier results are dropped outside the timed calls.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (stats::median(&samples), last.expect("at least one run"))
}

/// One set-up probe of a single-caller workload: a fresh process
/// (`vrmbench setup WORKLOAD SEED`) that times repeated set-ups and
/// prints their median, so the probe's memory neither counts towards
/// nor inherits the heap of the measured process.
pub fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["setup", &args.workload, &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let secs = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
    match (out.status.success(), secs) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("set-up process failed: {}", out.status)),
    }
}

/// `vrmbench setup WORKLOAD SEED`: prints the median set-up time, in
/// seconds, of repeated set-ups in this process.
fn setup_main(argv: &[String]) -> ExitCode {
    let seed = argv.get(1).and_then(|s| s.parse::<u64>().ok());
    let secs = match (argv.first().map(String::as_str), seed) {
        (Some("litmus-batch"), Some(seed)) => litmus_batch::setup_secs(seed),
        (Some("machine-walks"), Some(seed)) => Ok(machine_walks::setup_secs(seed)),
        _ => {
            eprintln!("usage: vrmbench setup litmus-batch|machine-walks SEED");
            return ExitCode::from(2);
        }
    };
    match secs {
        Ok(s) => {
            println!("{s:?}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vrmbench setup: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where a run writes its scratch state and trace, under the directory
/// it runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".vrmbench")
}

/// The committed litmus corpus, read at run time.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../litmus"))
}

/// Writes the traced run's spans next to the run's other output.
pub fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let path = out_dir().join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: writing {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => return serve_mixed::daemon_main(&argv[1..]),
        Some("setup") => return setup_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "litmus-batch" => litmus_batch::run(&args),
        "machine-walks" => machine_walks::run(&args),
        "serve-mixed" => serve_mixed::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(report) => {
            println!("{}", render(&report));
            if report.tally.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("a verdict contradicted its reference; run aborted");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("vrmbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = "--workload serve-mixed --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 3, 10, true)
        );
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
    }

    #[test]
    fn closed_loop_counts_failures_and_stops_on_wrong() {
        let one = Orders::new(&mut rng::Rng::new(0, 0), 1, 1);
        let t = closed_loop(
            0,
            &one,
            || Ok(0.0),
            |_, id| match id {
                0 => Some(Judgement::Ok),
                1 => None,
                2 => Some(Judgement::Unresolved),
                _ => Some(Judgement::Wrong),
            },
        )
        .unwrap();
        assert_eq!(t.latencies_ms.len(), 4);
        assert_eq!(
            (t.tally.attempted, t.tally.failed, t.tally.wrong),
            (4, 3, 1)
        );
    }

    #[test]
    fn closed_loop_ends_on_a_whole_pass() {
        let seven = Orders::new(&mut rng::Rng::new(0, 0), 7, 2);
        let mut probes = 0;
        let t = closed_loop(
            0,
            &seven,
            || {
                probes += 1;
                Ok(0.5 - f64::from(probes) / 100.0)
            },
            |_, _| Some(Judgement::Ok),
        )
        .unwrap();
        // The first pass boundary at or past MIN_SAMPLES.
        assert_eq!(t.latencies_ms.len(), 105);
        assert_eq!(t.keys[..7], t.keys[14..21]);
        assert!(t.verdicts_per_s() > 0.0);
        assert_eq!((probes, t.setup_s.len()), (10, 10));
        let report = end_to_end(None, t, 1.0).unwrap();
        assert_eq!(report.metrics[0].value, 0.4);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(Judgement::Ok);
        let line = render(&Report {
            tally,
            metrics: vec![metric("setup_s", 0.25, "s")],
        });
        let v = vrm_obs::json::parse(&line).expect("result line is JSON");
        assert!(matches!(
            v.get("correct"),
            Some(vrm_obs::json::Json::Bool(true))
        ));
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
