//! `machine-walks`: one caller runs `Machine::explore_schedules` and
//! then `Machine::check_refinement`, both with default reduction, on
//! every script set of a graded family.
//!
//! The family takes per-CPU prefixes of three two-CPU bases: the
//! asymmetric `workloads::unmap`, the symmetric `workloads::mirror`, and
//! a `lifecycle_script` pair (symmetric for two ops, asymmetric after).
//! Every (k0, k1) prefix-length pair with at most [`MAX_OPS`] ops in
//! total, or with equal lengths up to [`MAX_EQUAL`], is one item. Equal
//! prefixes of identical scripts are symmetric and pay for orbit
//! canonicalization; the rest show the base cost per state. The seed
//! draws the lifecycle pair's pool frames and written values and the
//! order of every pass.

use vrm_obs::Counter;
use vrm_sekvm::layout::VM_POOL_PFN;
use vrm_sekvm::machine::{lifecycle_script, ExhaustiveConfig, Machine, Script};
use vrm_sekvm::{workloads, KCoreConfig};

use crate::check::{judge, Judgement, Tri};
use crate::rng::{Digest, Orders, Rng};
use crate::trace::Tracer;
use crate::{closed_loop, end_to_end, median_secs, paired, stats, warm_up, Args, Layers, Report};

/// Most ops (over both CPUs) in an item of the family.
const MAX_OPS: usize = 3;
/// Longest equal prefix pair in the family: `mirror` (2, 2) is the
/// costliest symmetric walk, about half of a pass. Longer or more
/// asymmetric pairs would leave a 30-second run too few passes for
/// each item's floor.
const MAX_EQUAL: usize = 2;
/// Pass orders drawn at set-up.
const PASSES: usize = 16;
/// Set-up repetitions per set-up process (one takes about 1 ms).
const SETUP_REPS: usize = 21;
/// Untimed warm-up verdicts before measuring.
const WARMUP: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    Sched,
    Refine,
}

struct Item {
    scripts: Vec<Script>,
    walk: Walk,
    /// Both CPUs run identical scripts.
    symmetric: bool,
}

fn bases(rng: &mut Rng) -> Vec<(&'static str, Vec<Script>)> {
    let slot0 = rng.below(512);
    let slot1 = 512 + rng.below(512);
    let value = 1 + rng.below(1 << 20);
    let life = |cpu: u64, slot: u64| {
        let image = VM_POOL_PFN.0 + slot * 8;
        lifecycle_script(value + cpu, image, image + 4)
    };
    vec![
        ("unmap", workloads::unmap()),
        ("mirror", workloads::mirror()),
        ("lifecycle", vec![life(0, slot0), life(1, slot1)]),
    ]
}

/// Every distinct script set of prefix pairs `(k0, k1)` with
/// `1 <= k0 + k1 <= MAX_OPS` or `k0 == k1 <= MAX_EQUAL` (a prefix
/// longer than its script is the whole script), as a schedule walk and
/// a refinement walk.
fn family(bases: &[(&'static str, Vec<Script>)]) -> Vec<Item> {
    let pairs: Vec<(usize, usize)> = (0..=MAX_OPS)
        .flat_map(|k0| (0..=MAX_OPS - k0).map(move |k1| (k0, k1)))
        .chain((1..=MAX_EQUAL).map(|k| (k, k)))
        .filter(|&p| p != (0, 0))
        .collect();
    let mut items: Vec<Item> = Vec::new();
    for (_, base) in bases {
        for &(k0, k1) in &pairs {
            let scripts = vec![
                base[0][..k0.min(base[0].len())].to_vec(),
                base[1][..k1.min(base[1].len())].to_vec(),
            ];
            if items.iter().any(|it| it.scripts == scripts) {
                continue;
            }
            let symmetric = scripts[0] == scripts[1];
            for walk in [Walk::Sched, Walk::Refine] {
                items.push(Item {
                    scripts: scripts.clone(),
                    walk,
                    symmetric,
                });
            }
        }
    }
    items
}

struct Family {
    items: Vec<Item>,
    orders: Orders,
    digest: Digest,
}

/// Builds the family and boots the first machine.
fn build(seed: u64) -> Family {
    let mut rng = Rng::new(seed, 2);
    let bases = bases(&mut rng);
    let mut digest = Digest::default();
    for (name, scripts) in &bases {
        digest.add(format!("{name}{scripts:?}").as_bytes());
    }
    let items = family(&bases);
    let orders = Orders::new(&mut rng, items.len(), PASSES);
    let first = Machine::new(
        KCoreConfig::default(),
        items[orders.at(0)].scripts.clone(),
        seed,
    );
    std::hint::black_box(&first);
    Family {
        items,
        orders,
        digest,
    }
}

/// Per-item results the traced run aggregates.
#[derive(Default)]
struct Walked {
    states: u64,
    /// (ms, states) of symmetric and of asymmetric items.
    sym: (f64, u64),
    asym: (f64, u64),
}

/// One verdict: the item's walk must PASS (for a refinement walk, PASS
/// means exhaustive with no violations).
fn verdict(item: &Item, id: u64, tracer: &mut Tracer, walked: &mut Walked) -> Option<Judgement> {
    let ecfg = ExhaustiveConfig {
        jobs: 1,
        ..ExhaustiveConfig::default()
    };
    let cfg = KCoreConfig::default();
    let t0 = std::time::Instant::now();
    let (observed, states) = tracer.call("verdict", id, |t| match item.walk {
        Walk::Sched => t
            .call("machine.explore_schedules", id, |_| {
                Machine::explore_schedules(cfg, item.scripts.clone(), &ecfg)
            })
            .ok()
            .map(|r| (Tri::of(&r.verdict()), r.stats.states as u64)),
        Walk::Refine => t
            .call("machine.check_refinement", id, |_| {
                Machine::check_refinement(cfg, item.scripts.clone(), &ecfg)
            })
            .ok()
            .map(|r| (Tri::of(&r.verdict()), r.stats.states as u64)),
    })?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    walked.states += states;
    let bucket = if item.symmetric {
        &mut walked.sym
    } else {
        &mut walked.asym
    };
    bucket.0 += ms;
    bucket.1 += states;
    Some(judge(observed, Tri::Pass))
}

/// Median time of [`SETUP_REPS`] set-ups in this process.
pub fn setup_secs(seed: u64) -> f64 {
    median_secs(SETUP_REPS, || build(seed)).0
}

pub fn run(args: &Args) -> Result<Report, String> {
    let fam = build(args.seed);
    let mut off = Tracer::new(false);
    let mut walked = Walked::default();

    let popped0 = Counter::new("explore.states_popped").get();
    let warm = warm_up(WARMUP, |i| {
        verdict(
            &fam.items[fam.orders.at(i)],
            i as u64,
            &mut off,
            &mut walked,
        )
    });
    if let Err(tally) = warm {
        return Ok(Report {
            tally,
            metrics: Vec::new(),
        });
    }
    eprintln!(
        "anchor machine-walks seed={} inputs={} family={} warmup_verdicts={WARMUP} \
         warmup_states={} warmup_explore_popped={}",
        args.seed,
        fam.digest.hex(),
        fam.items.len(),
        walked.states,
        Counter::new("explore.states_popped").get() - popped0
    );

    if !args.trace {
        let timed = closed_loop(
            args.seconds,
            &fam.orders,
            || crate::setup_in_child(args),
            |input, id| verdict(&fam.items[input], id, &mut off, &mut walked),
        )?;
        return end_to_end(None, timed, crate::peak_rss_mb(None));
    }

    let mut tracer = Tracer::new(true);
    let mut traced = Walked::default();
    let (plain_ms, tally) = paired(&fam.items, &mut tracer, |item, id, t| {
        let acc = if t.is_on() { &mut traced } else { &mut walked };
        verdict(item, id, t, acc)
    });
    crate::write_trace(&tracer, args);

    let t = &tracer;
    let per_state = |(ms, states): (f64, u64)| if states == 0 { 0.0 } else { ms / states as f64 };
    let sched_ms = t.busy_ms("machine.explore_schedules");
    let refine_ms = t.busy_ms("machine.check_refinement");
    let mut out = Layers::default();
    out.set("machine.sched_ms", sched_ms);
    out.set("machine.refine_ms", refine_ms);
    out.set("spec.refine_extra_ms", refine_ms - sched_ms);
    out.set("machine.states", traced.states as f64);
    out.set("machine.ms_per_state.sym", per_state(traced.sym));
    out.set("machine.ms_per_state.asym", per_state(traced.asym));
    out.explore(t, sched_ms + refine_ms);
    out.overhead(stats::mean(&plain_ms), t.mean_ms("verdict"));
    eprintln!(
        "anchor machine-walks seed={} traced_verdicts={} machine_states={} explore_popped={}",
        args.seed,
        fam.items.len(),
        traced.states,
        t.counter("verdict", "explore.states_popped")
    );
    Ok(Report {
        tally,
        metrics: out.into_metrics(),
    })
}
