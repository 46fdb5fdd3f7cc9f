//! `serve-mixed`: two `vrm_serve::Client` connections over TCP loopback
//! drive a durable `vrm-serve` daemon (default `ServeConfig` plus a
//! state dir), each in a closed loop.
//!
//! The seeded mix: 70% repeats drawn from a pool of [`POOL`] programs —
//! larger than the verdict cache's 256-entry LRU cap, so entries are
//! evicted and some repeats miss again; 15% the named wdrf, schedules
//! and refinement jobs, warmed before timing; 15% novel generated
//! litmus programs — four in five fresh two-thread cycles, one in five
//! a [`THREE_PANEL`] three-thread cycle under a fresh name — which
//! always miss, run `run_litmus` and append to the write-ahead log.
//! The daemon runs in its own process
//! (this binary's `daemon` mode), so its peak memory and start-up time
//! are its own.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vrm_memmodel::gen::{self, GenConfig};
use vrm_memmodel::parser::parse;
use vrm_obs::json::{Json, ObjWriter};
use vrm_serve::protocol::{parse_request, Request};
use vrm_serve::server::{serve, Endpoint};
use vrm_serve::store::{replay, StoreOptions, WAL_FILE};
use vrm_serve::{Client, Reply, ServeConfig, Service};

use crate::check::{judge, Judgement, Tally, Tri};
use crate::rng::{Digest, Rng};
use crate::trace::Tracer;
use crate::{end_to_end, stats, Args, Layers, Report, Timed, HARD_STOP};

/// Distinct programs the repeats draw from (the verdict cache holds 256).
const POOL: usize = 320;
/// Generated page-table walks in the pool; the rest beyond the corpus
/// are generated two-thread cycles.
const POOL_WALKS: usize = 40;
const CLIENTS: usize = 2;
/// Daemon restarts per run; the median restart-to-first-status time is
/// `setup_s`.
const SETUP_REPS: usize = 7;
/// Untimed warm-up requests per client.
const WARMUP: usize = 10;
/// Requests per client in each slice of the traced run.
const TRACE_SLICE: usize = 60;
const STATE_BUDGET: u64 = 1 << 18;
/// Three-thread novel programs are generator seeds `0..THREE_PANEL` at
/// 3 threads under fresh names: each is a miss that runs the full
/// promise search, at a cost that does not depend on the draw (fresh
/// 3-thread shapes cost 20 ms to 3 s each and made throughput and the
/// daemon's peak memory follow the seed).
const THREE_PANEL: u64 = 4;

/// Where a request came from, which fixes its reference verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Pool(usize),
    Named(usize),
    Novel,
}

struct Req {
    line: String,
    source: Source,
    /// The litmus text, for litmus submissions.
    program: Option<String>,
}

/// The litmus text of the generated critical cycle `seed` at `threads`.
fn cycle(threads: usize, seed: u64) -> String {
    let cfg = GenConfig {
        min_threads: threads,
        max_threads: threads,
        ..GenConfig::default()
    };
    gen::render_text(&gen::sample_cycle(seed, &cfg), &cfg)
}

/// `text` with its `litmus <name>` header line replaced. The name is
/// part of the content digest, so the daemon has never seen the result.
fn renamed(text: &str, name: &str) -> String {
    let body = text.split_once('\n').map_or("", |(_, body)| body);
    format!("litmus {name}\n{body}")
}

fn litmus_line(text: &str) -> String {
    let mut w = ObjWriter::new();
    w.field_str("op", "submit")
        .field_str("kind", "litmus")
        .field_str("program", text)
        .field_u64("jobs", 1);
    w.finish()
}

/// The named jobs, with their references. `ticket-lock` is Unknown at
/// the daemon's budget, so any verdict on it is accepted.
fn named() -> Vec<(String, Tri)> {
    let mut out = Vec::new();
    for (name, reference) in [
        ("example1", Tri::Pass),
        ("example3", Tri::Pass),
        ("ticket-lock", Tri::Unknown),
    ] {
        let mut w = ObjWriter::new();
        w.field_str("op", "submit")
            .field_str("kind", "wdrf")
            .field_str("name", name)
            .field_u64("jobs", 1);
        out.push((w.finish(), reference));
    }
    for kind in ["schedules", "refinement"] {
        for workload in vrm_sekvm::workloads::NAMES {
            let mut w = ObjWriter::new();
            w.field_str("op", "submit")
                .field_str("kind", kind)
                .field_str("workload", workload)
                .field_u64("max_states", STATE_BUDGET)
                .field_u64("jobs", 1);
            out.push((w.finish(), Tri::Pass));
        }
    }
    out
}

struct Inputs {
    /// Pool programs: corpus files, walks, two-thread cycles.
    pool: Vec<String>,
    named: Vec<(String, Tri)>,
    digest: Digest,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut files: Vec<_> = std::fs::read_dir(crate::corpus_dir())
        .map_err(|e| format!("reading the litmus corpus: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    let mut pool = Vec::with_capacity(POOL);
    for f in &files {
        pool.push(std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    let mut rng = Rng::new(seed, 3);
    for _ in 0..POOL_WALKS {
        pool.push(gen::sample_walk(rng.next_u64()).parsed.to_string());
    }
    while pool.len() < POOL {
        pool.push(cycle(2, rng.next_u64()));
    }
    let mut digest = Digest::default();
    for text in &pool {
        digest.add(text.as_bytes());
    }
    Ok(Inputs {
        pool,
        named: named(),
        digest,
    })
}

/// One client's seeded request stream.
struct Stream {
    rng: Rng,
}

impl Stream {
    fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, 10 + client as u64),
        }
    }

    fn next(&mut self, inp: &Inputs) -> Req {
        let roll = self.rng.below(100);
        if roll < 70 {
            let i = self.rng.below(inp.pool.len() as u64) as usize;
            Req {
                line: litmus_line(&inp.pool[i]),
                source: Source::Pool(i),
                program: Some(inp.pool[i].clone()),
            }
        } else if roll < 85 {
            let i = self.rng.below(inp.named.len() as u64) as usize;
            Req {
                line: inp.named[i].0.clone(),
                source: Source::Named(i),
                program: None,
            }
        } else {
            let text = if self.rng.below(5) == 0 {
                let i = self.rng.below(THREE_PANEL);
                renamed(
                    &cycle(3, i),
                    &format!("gen-cc3-s{i:x}-n{:x}", self.rng.next_u64()),
                )
            } else {
                cycle(2, self.rng.next_u64())
            };
            Req {
                line: litmus_line(&text),
                source: Source::Novel,
                program: Some(text),
            }
        }
    }
}

/// First computed verdict of every pool and named request; cached
/// replies must equal it.
struct References {
    pool: Vec<Tri>,
    named: Vec<Tri>,
}

impl References {
    fn of(&self, source: Source) -> Tri {
        match source {
            Source::Pool(i) => self.pool[i],
            Source::Named(i) => self.named[i],
            // Generated programs pass (the differential fuzzer's invariant).
            Source::Novel => Tri::Pass,
        }
    }
}

/// How one reply compared with its reference; `None` for an error
/// reply, a refused submit or a broken connection.
fn judge_reply(reply: &std::io::Result<Reply>, reference: Tri) -> Option<Judgement> {
    let r = reply.as_ref().ok()?;
    if r.status != "done" {
        return None;
    }
    Some(judge(Tri::parse(r.verdict.as_deref()?)?, reference))
}

/// The daemon process: this binary in `daemon` mode.
struct Daemon {
    child: Child,
    tcp: Endpoint,
    uds: Endpoint,
}

impl Daemon {
    fn start(state_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        if !matches!(read, Some(Ok(n)) if n > 0) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the daemon exited before listening".into());
        }
        Ok(Daemon {
            child,
            tcp: Endpoint::Tcp(line.trim().to_string()),
            uds: Endpoint::Unix(state_dir.join("fill.sock")),
        })
    }

    fn status(&self) -> Result<Reply, String> {
        let mut c = Client::connect(&self.tcp).map_err(|e| format!("connect: {e}"))?;
        c.request(r#"{"op":"status"}"#)
            .map_err(|e| format!("status: {e}"))
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Protocol shutdown, then waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let sent = Client::connect(&self.tcp).and_then(|mut c| c.request(r#"{"op":"shutdown"}"#));
        if sent.is_err() {
            let _ = self.child.kill();
        }
        self.child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `vrmbench daemon STATE_DIR`: a durable daemon with the default
/// configuration, listening on a TCP loopback port (printed on the
/// first line of standard output) for the measured clients and on
/// `STATE_DIR/fill.sock` for the untimed fill pass. Exits after a
/// protocol `shutdown` on the TCP port.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().map(PathBuf::from) else {
        eprintln!("usage: vrmbench daemon STATE_DIR");
        return ExitCode::from(2);
    };
    let svc = Service::start(ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let bound = serve(svc.clone(), &Endpoint::Tcp("127.0.0.1:0".into())).and_then(|tcp| {
        serve(svc.clone(), &Endpoint::Unix(dir.join("fill.sock"))).map(|uds| (tcp, uds))
    });
    let (tcp, uds) = match bound {
        Ok(b) => b,
        Err(e) => {
            eprintln!("daemon: bind: {e}");
            return ExitCode::from(1);
        }
    };
    let Endpoint::Tcp(addr) = tcp.local().clone() else {
        unreachable!("bound a TCP endpoint")
    };
    let mut out = std::io::stdout();
    if writeln!(out, "{addr}").and_then(|()| out.flush()).is_err() {
        return ExitCode::from(1);
    }
    tcp.join();
    uds.stop();
    svc.shutdown();
    ExitCode::SUCCESS
}

/// One answered request.
struct Sample {
    rtt_ms: f64,
    cached: bool,
    exec_ms: f64,
    judgement: Option<Judgement>,
}

/// Runs `per_client` requests (or, with `None`, until the deadline and
/// [`stats::MIN_SAMPLES`]) on each of the two clients concurrently.
/// Traced requests record spans, plus the side calls into the
/// protocol parser, the digest and the litmus parser.
fn drive(
    endpoint: &Endpoint,
    inp: &Inputs,
    refs: &References,
    streams: &mut [Stream],
    per_client: Option<usize>,
    seconds: u64,
    trace: bool,
) -> Result<(Vec<Sample>, f64, Tracer), String> {
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let results: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let (done, stop) = (&done, &stop);
                scope.spawn(move || {
                    let mut client =
                        Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
                    let mut tracer = Tracer::new(trace);
                    let mut samples = Vec::new();
                    for n in 0.. {
                        let more = match per_client {
                            Some(k) => n < k,
                            None => {
                                let elapsed = start.elapsed();
                                elapsed < HARD_STOP
                                    && (elapsed < budget
                                        || done.load(Ordering::SeqCst) < stats::MIN_SAMPLES)
                            }
                        };
                        if !more || stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let req = stream.next(inp);
                        let id = (c as u64) << 32 | n as u64;
                        let t0 = Instant::now();
                        let reply = tracer.call("request", id, |t| {
                            t.call("serve.request", id, |_| client.request(&req.line))
                        });
                        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
                        done.fetch_add(1, Ordering::SeqCst);
                        let judgement = judge_reply(&reply, refs.of(req.source));
                        if judgement == Some(Judgement::Wrong) {
                            stop.store(true, Ordering::SeqCst);
                        }
                        // A cached reply repeats the original run's
                        // wall_ns; nothing executed for it.
                        let (cached, exec_ms) = match &reply {
                            Ok(r) if r.cached => (true, 0.0),
                            Ok(r) => (false, r.wall_ns as f64 / 1e6),
                            Err(_) => (false, 0.0),
                        };
                        if trace {
                            side_calls(&mut tracer, id, &req, cached);
                        }
                        samples.push(Sample {
                            rtt_ms,
                            cached,
                            exec_ms,
                            judgement,
                        });
                        if reply.is_err() {
                            client =
                                Client::connect(endpoint).map_err(|e| format!("reconnect: {e}"))?;
                        }
                    }
                    Ok((samples, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut tracer = Tracer::new(trace);
    for r in results {
        let (s, t) = r?;
        samples.extend(s);
        tracer.merge(t);
    }
    Ok((samples, elapsed_s, tracer))
}

/// The traced run's side calls on one request line: the daemon's
/// request parser and content digest, and — for a litmus miss — the
/// litmus parser the miss ran.
fn side_calls(tracer: &mut Tracer, id: u64, req: &Req, cached: bool) {
    let parsed = tracer.call("serve.parse_request", id, |_| parse_request(&req.line));
    if let Ok(Request::Submit { spec, cfg, .. }) = parsed {
        let _ = tracer.call("serve.job_digest", id, |_| {
            vrm_serve::digest::job_digest(&spec, &cfg, true)
        });
    }
    if let (false, Some(text)) = (cached, &req.program) {
        let _ = tracer.call("parser.parse", id, |_| parse(text));
    }
}

fn tally(samples: &[Sample]) -> Tally {
    let mut t = Tally::default();
    for s in samples {
        t.outcome(s.judgement);
    }
    t
}

fn counter_of(status: &Reply, name: &str) -> u64 {
    vrm_obs::json::parse(&status.raw)
        .and_then(|v| {
            v.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
        })
        .unwrap_or(0)
}

/// One fill-pass reply: its source, its verdict, whether it was cached,
/// and its judgement against the static reference.
type FillReply = (Source, Option<Tri>, bool, Option<Judgement>);

/// Submits the whole pool, then the named jobs, over the Unix socket
/// with two clients; returns each request's first computed verdict
/// after checking it against the static references.
fn fill(daemon: &Daemon, inp: &Inputs) -> Result<(References, Tally, u64), String> {
    let mut lines: Vec<(String, Source, Tri)> = inp
        .pool
        .iter()
        .enumerate()
        .map(|(i, text)| (litmus_line(text), Source::Pool(i), Tri::Pass))
        .collect();
    lines.extend(
        inp.named
            .iter()
            .enumerate()
            .map(|(i, (line, r))| (line.clone(), Source::Named(i), *r)),
    );
    let results: Vec<Result<Vec<FillReply>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let lines = &lines;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(&daemon.uds).map_err(|e| format!("connect (fill): {e}"))?;
                    let mut out = Vec::new();
                    for (line, source, reference) in lines.iter().skip(c).step_by(CLIENTS) {
                        let reply = client.request(line);
                        let observed = reply
                            .as_ref()
                            .ok()
                            .and_then(|r| r.verdict.as_deref().and_then(Tri::parse));
                        let cached = reply.as_ref().is_ok_and(|r| r.cached);
                        out.push((*source, observed, cached, judge_reply(&reply, *reference)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fill client"))
            .collect()
    });
    let mut refs = References {
        pool: vec![Tri::Unknown; inp.pool.len()],
        named: vec![Tri::Unknown; inp.named.len()],
    };
    let mut tally = Tally::default();
    let mut hits = 0;
    for r in results {
        for (source, observed, cached, judgement) in r? {
            hits += u64::from(cached);
            tally.outcome(judgement);
            let slot = match source {
                Source::Pool(i) => &mut refs.pool[i],
                Source::Named(i) => &mut refs.named[i],
                Source::Novel => continue,
            };
            *slot = observed.unwrap_or(Tri::Unknown);
        }
    }
    Ok((refs, tally, hits))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let inp = inputs(args.seed)?;
    let state_dir = crate::out_dir().join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
    let result = run_in(args, &inp, &state_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
    result
}

fn run_in(args: &Args, inp: &Inputs, state_dir: &Path) -> Result<Report, String> {
    // Untimed fill pass: every pool program and named job once, so the
    // WAL holds them for the restarts below.
    let filler = Daemon::start(state_dir)?;
    let (refs, fill_tally, fill_hits) = fill(&filler, inp)?;
    filler.stop()?;
    if !fill_tally.correct() {
        return Ok(Report {
            tally: fill_tally,
            metrics: Vec::new(),
        });
    }

    // Set-up: daemon start (including WAL replay) to first status reply.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut replayed = 0;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::start(state_dir)?;
        let status = d.status()?;
        setups.push(t0.elapsed().as_secs_f64());
        replayed = counter_of(&status, vrm_obs::serve::WAL_REPLAYED);
        if rep + 1 == SETUP_REPS {
            daemon = Some(d);
        } else {
            d.stop()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    eprintln!(
        "anchor serve-mixed seed={} inputs={} pool={} named={} fill_misses={} fill_hits={fill_hits} \
         wal_replayed={replayed}",
        args.seed,
        inp.digest.hex(),
        inp.pool.len(),
        inp.named.len(),
        fill_tally.attempted - fill_hits,
    );

    // Warm-up: every named job once (refreshing its cache recency);
    // every three-thread panel program under fresh names on both
    // clients at once, so the daemon's peak memory already holds the
    // largest misses overlapping on its two workers rather than hanging
    // on whether the timed stream overlaps them; then a slice of each
    // client's stream.
    let mut warm = Client::connect(&daemon.tcp).map_err(|e| format!("connect: {e}"))?;
    let mut warm_tally = Tally::default();
    for (i, (line, _)) in inp.named.iter().enumerate() {
        let reply = warm.request(line);
        warm_tally.outcome(judge_reply(&reply, refs.of(Source::Named(i))));
    }
    drop(warm);
    let (tcp, novel) = (&daemon.tcp, refs.of(Source::Novel));
    let panel: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(tcp).map_err(|e| format!("connect: {e}"))?;
                    let mut tally = Tally::default();
                    for i in 0..THREE_PANEL {
                        let name = format!("gen-cc3-s{i:x}-w{:x}-c{c}", args.seed);
                        let reply = client.request(&litmus_line(&renamed(&cycle(3, i), &name)));
                        tally.outcome(judge_reply(&reply, novel));
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a warm-up client panicked"))
            .collect()
    });
    for tally in panel {
        warm_tally.absorb(&tally?);
    }
    if !warm_tally.correct() {
        return Ok(Report {
            tally: warm_tally,
            metrics: Vec::new(),
        });
    }
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(args.seed, c)).collect();
    drive(
        &daemon.tcp,
        inp,
        &refs,
        &mut streams,
        Some(WARMUP),
        0,
        false,
    )?;

    if !args.trace {
        let (samples, elapsed_s, _) = drive(
            &daemon.tcp,
            inp,
            &refs,
            &mut streams,
            None,
            args.seconds,
            false,
        )?;
        let timed = Timed {
            latencies_ms: samples.iter().map(|s| s.rtt_ms).collect(),
            elapsed_s,
            tally: tally(&samples),
            ..Timed::default()
        };
        let hits = samples.iter().filter(|s| s.cached).count();
        eprintln!(
            "serve-mixed: {hits} hits, {} misses (these vary with how the clients interleave)",
            samples.len() - hits
        );
        let rss = daemon.peak_rss_mb();
        daemon.stop()?;
        return end_to_end(Some(stats::median(&setups)), timed, rss);
    }

    // Traced run: one slice untraced, the next traced.
    let (plain, _, _) = drive(
        &daemon.tcp,
        inp,
        &refs,
        &mut streams,
        Some(TRACE_SLICE),
        0,
        false,
    )?;
    let (samples, _, tracer) = drive(
        &daemon.tcp,
        inp,
        &refs,
        &mut streams,
        Some(TRACE_SLICE),
        0,
        true,
    )?;
    daemon.stop()?;
    crate::write_trace(&tracer, args);

    let wal =
        std::fs::read(state_dir.join(WAL_FILE)).map_err(|e| format!("reading the WAL: {e}"))?;
    let (replay_s, _) = crate::median_secs(5, || replay(&wal, &StoreOptions::default()));
    let replay_ms = replay_s * 1e3;

    let mut tally = tally(&samples);
    tally.absorb(&self::tally(&plain));
    let hits: Vec<&Sample> = samples.iter().filter(|s| s.cached).collect();
    let misses: Vec<&Sample> = samples.iter().filter(|s| !s.cached).collect();
    let per_call_us = |name: &str| {
        let n = tracer.spans().iter().filter(|s| s.name == name).count();
        if n == 0 {
            0.0
        } else {
            tracer.busy_ms(name) * 1e3 / n as f64
        }
    };
    let mut out = Layers::default();
    out.set("parser.busy_ms", tracer.busy_ms("parser.parse"));
    out.set(
        "serve.hit_ms",
        stats::mean(&hits.iter().map(|s| s.rtt_ms).collect::<Vec<_>>()),
    );
    out.set(
        "serve.miss_ms",
        stats::mean(&misses.iter().map(|s| s.rtt_ms).collect::<Vec<_>>()),
    );
    out.set(
        "serve.exec_ms",
        stats::mean(&misses.iter().map(|s| s.exec_ms).collect::<Vec<_>>()),
    );
    out.set(
        "serve.overhead_ms",
        stats::mean(
            &samples
                .iter()
                .map(|s| s.rtt_ms - s.exec_ms)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "serve.hit_ratio",
        stats::ratio(hits.len() as u64, samples.len() as u64),
    );
    out.set("serve.parse_request_us", per_call_us("serve.parse_request"));
    out.set("serve.digest_us", per_call_us("serve.job_digest"));
    out.set("store.replay_ms", replay_ms);
    // The two slices carry different requests; hits cost the same in
    // both, so the overhead compares hits only.
    let hit_rtt = |s: &[Sample]| {
        stats::mean(
            &s.iter()
                .filter(|s| s.cached)
                .map(|s| s.rtt_ms)
                .collect::<Vec<_>>(),
        )
    };
    out.overhead(hit_rtt(&plain), hit_rtt(&samples));
    eprintln!(
        "serve-mixed traced slice: {} requests, {} hits, {} misses (interleaving-dependent)",
        samples.len(),
        hits.len(),
        misses.len()
    );
    Ok(Report {
        tally,
        metrics: out.into_metrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renamed_cycle_is_the_same_program_under_a_new_name() {
        let text = cycle(3, 1);
        let copy = renamed(&text, "gen-cc3-s1-n2a");
        let a = parse(&text).expect("generated text parses");
        let b = parse(&copy).expect("renamed text parses");
        assert_eq!(b.program.name, "gen-cc3-s1-n2a");
        assert_eq!(a.program.threads, b.program.threads);
        assert_ne!(text, copy);
    }

    #[test]
    fn request_streams_are_seeded() {
        let inp = Inputs {
            pool: vec![cycle(2, 0), cycle(2, 1)],
            named: named(),
            digest: Digest::default(),
        };
        let lines = |seed| {
            let mut s = Stream::new(seed, 0);
            (0..20).map(|_| s.next(&inp).line).collect::<Vec<_>>()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
    }
}
