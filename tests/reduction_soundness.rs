//! Differential soundness gates for the reduced exploration drivers
//! (`docs/REDUCTION.md`): every reduced walk — sleep sets, ample
//! singletons, orbit canonicalization — must produce exactly the same
//! outcome sets and verdicts as the exhaustive walk it replaces, across
//! the whole litmus corpus, pinned-seed generated cycles, and the
//! machine-layer schedule workloads, at every driver (jobs 1/2/4).

use vrm::memmodel::gen::{generate, GenConfig};
use vrm::memmodel::parser::parse;
use vrm::memmodel::promising::enumerate_promising_with;
use vrm::memmodel::sc::{enumerate_sc_with, ScConfig};
use vrm::obs::Counter;
use vrm::sekvm::machine::{ExhaustiveConfig, Machine};
use vrm::sekvm::workloads;
use vrm::sekvm::KCoreConfig;

const JOBS: [usize; 3] = [1, 2, 4];

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("litmus/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    assert!(files.len() >= 31, "expected a corpus, found {files:?}");
    files
        .into_iter()
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

/// SC: the reduced walk (sleep sets + ample + orbits) must be
/// outcome-identical to the exhaustive one on every corpus program and
/// every driver.
#[test]
fn corpus_sc_reduction_preserves_outcomes() {
    for (name, text) in corpus() {
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for jobs in JOBS {
            let on = enumerate_sc_with(
                &parsed.program,
                &ScConfig {
                    jobs,
                    reduction: true,
                    ..ScConfig::default()
                },
            )
            .unwrap();
            let off = enumerate_sc_with(
                &parsed.program,
                &ScConfig {
                    jobs,
                    reduction: false,
                    ..ScConfig::default()
                },
            )
            .unwrap();
            assert_eq!(on, off, "{name}: SC outcome sets differ at jobs={jobs}");
            assert!(
                on.stats.states <= off.stats.states,
                "{name}: reduction grew the SC walk at jobs={jobs}"
            );
        }
    }
}

/// Promising: same gate, including the truncation flag — a reduced walk
/// must never claim more (or less) completeness than the full one.
#[test]
fn corpus_promising_reduction_preserves_outcomes() {
    for (name, text) in corpus() {
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for jobs in JOBS {
            let mut on = parsed.promising.clone();
            on.jobs = jobs;
            on.reduction = true;
            let mut off = on.clone();
            off.reduction = false;
            let a = enumerate_promising_with(&parsed.program, &on).unwrap();
            let b = enumerate_promising_with(&parsed.program, &off).unwrap();
            assert_eq!(
                a.outcomes, b.outcomes,
                "{name}: promising outcome sets differ at jobs={jobs}"
            );
            assert_eq!(
                a.truncated, b.truncated,
                "{name}: promising truncation flags differ at jobs={jobs}"
            );
        }
    }
}

/// Generated litmus cycles at pinned seeds: the generator reaches
/// symmetric shapes the curated corpus does not (identical threads in
/// a cycle), which is exactly where orbit collapse fires.
#[test]
fn generated_cycles_reduction_preserves_outcomes() {
    let cfg = GenConfig::default();
    for seed in 0..12u64 {
        let parsed = generate(seed, &cfg);
        for jobs in JOBS {
            let on = enumerate_sc_with(
                &parsed.program,
                &ScConfig {
                    jobs,
                    reduction: true,
                    ..ScConfig::default()
                },
            )
            .unwrap();
            let off = enumerate_sc_with(
                &parsed.program,
                &ScConfig {
                    jobs,
                    reduction: false,
                    ..ScConfig::default()
                },
            )
            .unwrap();
            assert_eq!(on, off, "gen seed {seed}: SC sets differ at jobs={jobs}");
            let mut pon = parsed.promising.clone();
            pon.jobs = jobs;
            pon.reduction = true;
            let mut poff = pon.clone();
            poff.reduction = false;
            let a = enumerate_promising_with(&parsed.program, &pon).unwrap();
            let b = enumerate_promising_with(&parsed.program, &poff).unwrap();
            assert_eq!(
                a.outcomes, b.outcomes,
                "gen seed {seed}: promising sets differ at jobs={jobs}"
            );
        }
    }
}

/// The symmetric two-CPU `mirror` workload must actually collapse
/// orbits (the counter moves, 137 states become 69) without changing a
/// single outcome or verdict; the asymmetric `unmap` workload must be
/// left untouched by the reduction machinery (117 states either way).
#[test]
fn machine_reduction_collapses_mirror_orbits_and_preserves_unmap() {
    let orbit = Counter::new("explore/orbit_collapsed");
    for name in ["mirror", "unmap"] {
        let scripts = workloads::by_name(name).expect("workload");
        for jobs in JOBS {
            let on = ExhaustiveConfig {
                jobs,
                reduction: true,
                ..ExhaustiveConfig::default()
            };
            let off = ExhaustiveConfig {
                jobs,
                reduction: false,
                ..ExhaustiveConfig::default()
            };
            let before = orbit.get();
            let a =
                Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &on).unwrap();
            let collapsed = orbit.get() - before;
            let b =
                Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &off).unwrap();
            assert_eq!(
                a.outcomes, b.outcomes,
                "{name}: schedule outcome sets differ at jobs={jobs}"
            );
            assert_eq!(a.verdict(), b.verdict(), "{name}: verdicts differ");
            match name {
                "mirror" => {
                    assert!(
                        collapsed > 0,
                        "mirror: symmetric workload collapsed no orbits at jobs={jobs}"
                    );
                    // The anchors: 137 states unreduced, 69 orbits.
                    assert_eq!(
                        (a.stats.states, b.stats.states),
                        (69, 137),
                        "mirror: reduced/unreduced states moved at jobs={jobs}"
                    );
                }
                _ => {
                    // No symmetry: the reduced walk is the same graph.
                    assert_eq!(
                        (a.stats.states, b.stats.states),
                        (117, 117),
                        "unmap: asymmetric workload changed size at jobs={jobs}"
                    );
                }
            }
            let ra =
                Machine::check_refinement(KCoreConfig::default(), scripts.clone(), &on).unwrap();
            let rb =
                Machine::check_refinement(KCoreConfig::default(), scripts.clone(), &off).unwrap();
            assert_eq!(ra.outcomes, rb.outcomes, "{name}: refinement outcomes");
            assert_eq!(
                ra.violations.is_empty(),
                rb.violations.is_empty(),
                "{name}: refinement verdict inputs diverged"
            );
            assert_eq!(ra.verdict(), rb.verdict(), "{name}: refinement verdicts");
        }
    }
}
