//! Statistical exactness of `CountPopulation::step_batch` at large dense
//! scale.
//!
//! At n = 48 000 a whole-round batch runs ≈ 350 collision epochs as one
//! sequential chain (DESIGN §12). This is the scale where an earlier
//! sharded super-epoch layer used to take over; the test keeps its name and
//! workload and now pins the exact engine that replaced it: per-run
//! observables under batching match per-interaction stepping by
//! chi-square, and a batched run is a pure function of its seed.

use population_protocols::core::engine::counts::CountPopulation;
use population_protocols::core::engine::protocol::TableProtocol;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::{Simulator, StepOutcome};
use population_protocols::core::engine::stats::{chi_square_p_value, chi_square_two_sample};

/// 3-state cycle: keeps every state populated, so the chi-square
/// categories stay nontrivial.
fn cycle3() -> TableProtocol {
    TableProtocol::new(3, "cycle3")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

/// Initial counts, n = 48 000.
const LARGE_N: [u64; 3] = [20_000, 14_000, 14_000];

/// Runs per driving mode. 60 runs in 6 bins keep expected bin counts ≈ 10.
const CHI_RUNS: u64 = 60;

/// Per-run observable: the state-0 count after one parallel round (n
/// interactions), driven either per-interaction or through `step_batch`
/// chunks of 2 971 (which does not divide the target, so batch-boundary
/// truncation is exercised).
fn chi_observations(seed_base: u64, batched: bool) -> Vec<f64> {
    let target: u64 = LARGE_N.iter().sum(); // one parallel round
    (0..CHI_RUNS)
        .map(|run| {
            let mut pop = CountPopulation::from_counts(cycle3(), &LARGE_N);
            let mut rng = SimRng::seed_from(seed_base + run);
            if batched {
                while pop.steps() < target {
                    let out = pop.step_batch(&mut rng, (target - pop.steps()).min(2_971));
                    assert!(!(out.silent || out.executed == 0));
                }
            } else {
                while pop.steps() < target {
                    assert_ne!(pop.step(&mut rng), StepOutcome::Silent);
                }
            }
            pop.count(0) as f64
        })
        .collect()
}

/// Bins two samples on a shared equal-width grid over their pooled range
/// and chi-squares the histograms. The observable sits near 16 000, so a
/// `[0, max]` grid would lump every run into one or two bins.
fn binned_chi_square(a: &[f64], b: &[f64], bins: usize) -> (f64, usize, f64) {
    let lo = a.iter().chain(b).fold(f64::INFINITY, |m, &v| m.min(v));
    let hi = a.iter().chain(b).fold(0.0f64, |m, &v| m.max(v));
    let width = (hi - lo + 1e-9) / bins as f64;
    let hist = |data: &[f64]| {
        let mut h = vec![0u64; bins];
        for &v in data {
            h[(((v - lo) / width) as usize).min(bins - 1)] += 1;
        }
        h
    };
    let (stat, dof) = chi_square_two_sample(&hist(a), &hist(b));
    let p = chi_square_p_value(stat, dof);
    (stat, dof, p)
}

#[test]
fn sharded_step_batch_matches_stepwise_distribution() {
    let stepwise = chi_observations(9_000, false);
    let batched = chi_observations(77_000, true);
    let (stat, dof, p) = binned_chi_square(&stepwise, &batched, 6);
    assert!(
        p > 0.001,
        "stepwise vs step_batch differ at n = 48 000 \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
    // The batched trajectory depends on the seed alone, so a second pass
    // over the same seeds must give the *same* sample.
    assert_eq!(
        batched,
        chi_observations(77_000, true),
        "batched observables must be identical on the same seeds"
    );
}
