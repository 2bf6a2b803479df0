//! Probes the traced run makes from outside the program: each times direct
//! calls into one layer's public functions at the scale a workload uses
//! them.

use crate::median;
use crate::workload::{compile_leader, plurality_inputs};
use pp_engine::counts::CountPopulation;
use pp_engine::fenwick::Fenwick;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use pp_lang::enumerate::{collect_rulesets, EnumExecutor};
use pp_lang::interp::Executor;
use pp_rules::{FlagProtocol, Ruleset};
use std::hint::black_box;
use std::time::Instant;

/// Draws per kernel probe.
const DRAWS: u32 = 200_000;
/// Repetitions of the slower set-up probes.
const SETUP_REPEATS: usize = 5;

fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
}

/// Median seconds of [`SETUP_REPEATS`] calls of `f`.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let mut once = || {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    median((0..SETUP_REPEATS).map(|_| once()).collect())
}

/// `SimRng` pmf inversion at the scale of a collision epoch at population
/// `n`: an epoch draws `2ℓ ≈ √n` agents, margins are hypergeometric over
/// the three species of about `n/3` agents each, and a cell's outcomes are
/// split by binomials over about `ℓ/3` interactions.
#[must_use]
pub fn rng(n: u64) -> Vec<(&'static str, f64)> {
    let mut rng = SimRng::seed_from(n);
    let draws = (n as f64).sqrt() as u64;
    let cell = draws / 6;
    vec![
        (
            "rng.binomial_ns",
            ns_per_call(DRAWS, || {
                black_box(rng.binomial(black_box(cell), 0.5));
            }),
        ),
        (
            "rng.hypergeometric_ns",
            ns_per_call(DRAWS, || {
                black_box(rng.hypergeometric(black_box(n), n / 3, draws));
            }),
        ),
    ]
}

/// The program layer of `plurality(3, 2)` at population `n`:
/// - `fenwick.find_ns`: a weighted sample over its 512 states;
/// - `interp.site_setup_us`: what the interpreter rebuilds at every
///   scheduler run (`Ruleset::compose`, `FlagProtocol::new`,
///   `CountPopulation::from_counts` and the first `step_batch`), per
///   `execute` site;
/// - `enumerate.plan_s`: building the enumerated executor.
#[must_use]
pub fn program(n: u64) -> Vec<(&'static str, f64)> {
    let (program, groups) = plurality_inputs(n);
    let counts = Executor::new(&program, &groups, 0).counts().to_vec();
    let mut rng = SimRng::seed_from(n);

    let weights: Vec<u64> = (0..counts.len()).map(|_| 1 + rng.below(n)).collect();
    let fenwick = Fenwick::from_weights(&weights);
    let find_ns = ns_per_call(DRAWS, || {
        black_box(fenwick.find(rng.below(fenwick.total())));
    });

    let raws: Vec<Ruleset> = program.raw_threads().map(|(_, rs)| rs.clone()).collect();
    let sites = collect_rulesets(&program);
    let site_setup_s = median_seconds(|| {
        for site in &sites {
            let mut threads = vec![(*site).clone()];
            threads.extend(raws.iter().cloned());
            let protocol =
                FlagProtocol::new(program.vars.clone(), Ruleset::compose(&threads), "probe");
            let mut pop = CountPopulation::from_counts(&protocol, &counts);
            black_box(pop.step_batch(&mut rng, 1));
        }
    });
    let plan_s = median_seconds(|| {
        black_box(EnumExecutor::new(&program, &groups, 0).expect("plurality enumerates"));
    });
    vec![
        ("fenwick.find_ns", find_ns),
        (
            "interp.site_setup_us",
            site_setup_s * 1e6 / sites.len() as f64,
        ),
        ("enumerate.plan_s", plan_s),
    ]
}

/// Seconds to compile E13's leader election onto the clock hierarchy.
#[must_use]
pub fn compile_s() -> f64 {
    median_seconds(|| {
        black_box(compile_leader());
    })
}
