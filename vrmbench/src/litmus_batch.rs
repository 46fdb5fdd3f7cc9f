//! `litmus-batch`: one caller runs litmus programs through
//! `runner::run_litmus` and the paper's kernel programs through
//! `theorem::check_wdrf`, in a seeded order.
//!
//! Every pass holds the 31 committed corpus files, the three
//! `wdrf_catalog` programs at the serve daemon's budget, the fixed
//! [`PANELS`] of generated 2-, 3- and 4-thread cycles, and [`WALKS`]
//! seeded page-table walks. Each pass runs them all in its own seeded
//! order. The memory models and the exploration engine do nearly all
//! the work; serve and the machine layer do none.

use vrm_core::paper_examples::wdrf_catalog;
use vrm_core::{check_wdrf, KernelSpec, WdrfCheckConfig};
use vrm_memmodel::axiomatic::{enumerate_axiomatic_with, AxConfig};
use vrm_memmodel::gen::{self, GenConfig};
use vrm_memmodel::ir::Program;
use vrm_memmodel::parser::{parse, ParsedLitmus};
use vrm_memmodel::promising::enumerate_promising_with;
use vrm_memmodel::runner::{run_litmus, RunOverrides};
use vrm_memmodel::sc::{enumerate_sc_with, ScConfig};
use vrm_obs::Counter;

use crate::check::{judge, Judgement, Tri};
use crate::rng::{Digest, Orders, Rng};
use crate::trace::Tracer;
use crate::{closed_loop, end_to_end, median_secs, paired, stats, warm_up, Args, Layers, Report};

/// Seeded page-table walks.
const WALKS: usize = 36;
/// Fixed panels of generated cycles, in every pass and for every seed:
/// generator seeds `0..n` at 2, 3 and 4 threads. Three-thread cycles
/// run the full promise search and cost from 20 ms to 3 s each;
/// four-thread cycles run promise-free. Even two-thread cycles cost
/// from 1 to 14 ms, straddling gaps in the batch's spread of costs, so
/// a seeded draw of them moved the reported percentiles by a quarter
/// from seed to seed. Like the corpus, they are fixed.
const PANELS: [(usize, u64); 3] = [(2, 12), (3, 4), (4, 8)];
/// Pass orders drawn at set-up; the timed loop wraps around them.
const PASSES: usize = 24;
/// Set-up repetitions per set-up process.
const SETUP_REPS: usize = 9;

const RUN: RunOverrides = RunOverrides {
    jobs: Some(1),
    max_states: None,
};

enum Job {
    Litmus(ParsedLitmus),
    Wdrf(Program),
}

struct Input {
    job: Job,
    reference: Tri,
}

/// The wDRF budget the serve daemon applies to its `wdrf` jobs.
fn wdrf_config() -> WdrfCheckConfig {
    let mut cfg = WdrfCheckConfig {
        skip_sync_conditions: true,
        ..Default::default()
    };
    cfg.jobs = 1;
    cfg.promising.max_promises_per_thread = 1;
    cfg.promising.value_cfg.max_rounds = 3;
    cfg.promising.max_states = 1 << 18;
    cfg.sc.max_states = 1 << 18;
    cfg
}

/// Reference verdicts: committed corpus files and generated programs
/// pass (the differential fuzzer's invariant); `ticket-lock` is
/// Unknown at this budget, so any verdict on it is accepted.
fn wdrf_reference(name: &str) -> Tri {
    match name {
        "ticket-lock" => Tri::Unknown,
        _ => Tri::Pass,
    }
}

/// Reads and parses the corpus, generates the seeded programs, and
/// draws the pass orders.
fn build(seed: u64, tracer: &mut Tracer) -> Result<(Vec<Input>, Orders, Digest), String> {
    let mut files: Vec<_> = std::fs::read_dir(crate::corpus_dir())
        .map_err(|e| format!("reading the litmus corpus: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("the litmus corpus is empty".into());
    }
    let mut digest = Digest::default();
    let mut inputs = Vec::new();
    let mut litmus = |text: &str, digest: &mut Digest| -> Result<Input, String> {
        digest.add(text.as_bytes());
        let parsed = tracer
            .call("parser.parse", 0, |_| parse(text))
            .map_err(|e| e.to_string())?;
        Ok(Input {
            job: Job::Litmus(parsed),
            reference: Tri::Pass,
        })
    };
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        inputs.push(litmus(&text, &mut digest).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    for (threads, gen_seed) in PANELS
        .iter()
        .flat_map(|&(threads, n)| (0..n).map(move |s| (threads, s)))
    {
        let cfg = GenConfig {
            min_threads: threads,
            max_threads: threads,
            ..GenConfig::default()
        };
        let text = gen::render_text(&gen::sample_cycle(gen_seed, &cfg), &cfg);
        inputs.push(litmus(&text, &mut digest).map_err(|e| format!("generated cycle: {e}"))?);
    }
    let mut rng = Rng::new(seed, 1);
    for _ in 0..WALKS {
        let w = gen::sample_walk(rng.next_u64());
        digest.add(w.parsed.program.name.as_bytes());
        inputs.push(Input {
            job: Job::Litmus(w.parsed),
            reference: Tri::Pass,
        });
    }
    for (name, prog) in wdrf_catalog() {
        inputs.push(Input {
            job: Job::Wdrf(prog),
            reference: wdrf_reference(name),
        });
    }
    let orders = Orders::new(&mut rng, inputs.len(), PASSES);
    Ok((inputs, orders, digest))
}

/// State counts the traced run gathers from the per-layer side calls.
#[derive(Default)]
struct LayerStates {
    sc: u64,
    promising: u64,
    wdrf: u64,
}

/// Runs one input's verdict. In a traced run, litmus inputs are then
/// re-run layer by layer — SC, promising, axiomatic, under the same
/// configurations `run_litmus` applies — in side calls outside the
/// verdict's span, so each layer's busy time is measured where the
/// work happens.
fn verdict(
    input: &Input,
    id: u64,
    tracer: &mut Tracer,
    layers: &mut LayerStates,
    wcfg: &WdrfCheckConfig,
) -> Option<Judgement> {
    let observed = tracer.call("verdict", id, |t| match &input.job {
        Job::Litmus(p) => t
            .call("runner.run_litmus", id, |_| run_litmus(p, &RUN))
            .ok()
            .map(|r| Tri::of(&r.verdict)),
        Job::Wdrf(prog) => {
            let spec = KernelSpec::for_kernel_threads(0..prog.threads.len());
            t.call("theorem.check_wdrf", id, |_| check_wdrf(prog, &spec, wcfg))
                .ok()
                .map(|v| {
                    layers.wdrf += v.stats.states as u64;
                    Tri::of(&v.verdict())
                })
        }
    })?;
    if let (true, Job::Litmus(p)) = (tracer.is_on(), &input.job) {
        tracer.call("layers", id, |t| {
            let prog = &p.program;
            let sc_cfg = ScConfig {
                jobs: 1,
                ..ScConfig::default()
            };
            if let Ok(sc) = t.call("sc.enumerate", id, |_| enumerate_sc_with(prog, &sc_cfg)) {
                layers.sc += sc.stats.states as u64;
            }
            let mut pm_cfg = p.promising.clone();
            pm_cfg.jobs = 1;
            if let Ok(rm) = t.call("promising.enumerate", id, |_| {
                enumerate_promising_with(prog, &pm_cfg)
            }) {
                layers.promising += rm.outcomes.stats.states as u64;
            }
            if p.run_axiomatic {
                let ax_cfg = AxConfig {
                    jobs: 1,
                    ..AxConfig::default()
                };
                let _ = t.call("axiomatic.enumerate", id, |_| {
                    enumerate_axiomatic_with(prog, &ax_cfg)
                });
            }
        });
    }
    Some(judge(observed, input.reference))
}

/// Median time of [`SETUP_REPS`] set-ups in this process.
pub fn setup_secs(seed: u64) -> Result<f64, String> {
    let (secs, built) = median_secs(SETUP_REPS, || build(seed, &mut Tracer::new(false)));
    built.map(|_| secs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let wcfg = wdrf_config();
    let mut off = Tracer::new(false);
    let mut unused = LayerStates::default();

    // The traced run records the parser calls of its one set-up.
    let mut tracer = Tracer::new(args.trace);
    let (inputs, orders, digest) = build(args.seed, &mut tracer)?;
    let pass_len = orders.pass_len();

    // Warm-up: one whole untimed pass.
    let popped0 = Counter::new("explore.states_popped").get();
    let warm = warm_up(pass_len, |i| {
        verdict(
            &inputs[orders.at(i)],
            i as u64,
            &mut off,
            &mut unused,
            &wcfg,
        )
    });
    if let Err(tally) = warm {
        return Ok(Report {
            tally,
            metrics: Vec::new(),
        });
    }
    eprintln!(
        "anchor litmus-batch seed={} inputs={} pass_len={pass_len} passes={PASSES} \
         warmup_verdicts={pass_len} warmup_explore_popped={}",
        args.seed,
        digest.hex(),
        Counter::new("explore.states_popped").get() - popped0
    );

    if !args.trace {
        let timed = closed_loop(
            args.seconds,
            &orders,
            || crate::setup_in_child(args),
            |input, id| verdict(&inputs[input], id, &mut off, &mut unused, &wcfg),
        )?;
        return end_to_end(None, timed, crate::peak_rss_mb(None));
    }

    let mut layers = LayerStates::default();
    let pass0: Vec<&Input> = (0..pass_len).map(|i| &inputs[orders.at(i)]).collect();
    let (plain_ms, tally) = paired(&pass0, &mut tracer, |input, id, t| {
        let acc = if t.is_on() { &mut layers } else { &mut unused };
        verdict(input, id, t, acc, &wcfg)
    });
    crate::write_trace(&tracer, args);

    let t = &tracer;
    let count = |span: &str, c: &str| t.counter(span, c);
    let ax_accepted = count("axiomatic.enumerate", "axiomatic.candidates_accepted");
    let ax_rejected: u64 = ["atomicity", "external", "internal"]
        .iter()
        .map(|r| count("axiomatic.enumerate", &format!("axiomatic.rejected_{r}")))
        .sum();
    let mut out = Layers::default();
    out.set("parser.busy_ms", t.busy_ms("parser.parse"));
    out.set("sc.busy_ms", t.busy_ms("sc.enumerate"));
    out.set("sc.states", layers.sc as f64);
    out.set("promising.busy_ms", t.busy_ms("promising.enumerate"));
    out.set("promising.states", layers.promising as f64);
    out.set(
        "promising.cert_refused_ratio",
        stats::ratio(
            count("promising.enumerate", "promising.cert_refused"),
            count("promising.enumerate", "promising.certifications"),
        ),
    );
    out.set("axiomatic.busy_ms", t.busy_ms("axiomatic.enumerate"));
    out.set(
        "axiomatic.accept_ratio",
        stats::ratio(ax_accepted, ax_accepted + ax_rejected),
    );
    out.set("wdrf.busy_ms", t.busy_ms("theorem.check_wdrf"));
    out.set("wdrf.states", layers.wdrf as f64);
    out.explore(
        t,
        t.busy_ms("runner.run_litmus") + t.busy_ms("theorem.check_wdrf"),
    );
    out.overhead(stats::mean(&plain_ms), t.mean_ms("verdict"));
    eprintln!(
        "anchor litmus-batch seed={} traced_pass_verdicts={pass_len} explore_popped={}",
        args.seed,
        count("verdict", "explore.states_popped")
    );
    Ok(Report {
        tally,
        metrics: out.into_metrics(),
    })
}
