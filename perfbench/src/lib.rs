//! The repository's benchmark: time to a checked answer and interaction
//! throughput on four workloads, plus a traced run that attributes time
//! and work to each layer. See `README.md` beside this crate for the
//! workloads, the metrics and the layer map.

pub mod host;
pub mod probe;
pub mod workload;

use pp_engine::json::Json;
use pp_engine::metrics::{self, MetricsReport};
use pp_engine::prof;
use pp_engine::rng::SimRng;
use std::time::Instant;
use workload::{Kind, Layers, Rep, Spec};

/// End-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("answer_s", "s"),
    ("interactions_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_answer_share", "share"),
];

/// Per-layer metrics of a traced run: name and unit. A layer the workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("rng.binomial_ns", "ns"),
    ("rng.hypergeometric_ns", "ns"),
    ("fenwick.find_ns", "ns"),
    ("counts.step_batch_s", "s"),
    ("counts.batches", "count"),
    ("counts.batch_cache_rebuilds", "count"),
    ("counts.noop_leaps", "count"),
    ("counts.changed_ratio", "ratio"),
    ("collision.epochs", "count"),
    ("collision.steps_per_epoch", "steps"),
    ("pardense.shard_rounds", "count"),
    ("pardense.merge_conflicts", "count"),
    ("pardense.cpu_per_wall", "ratio"),
    ("detect.observe_s", "s"),
    ("oscillator.period_rounds", "rounds"),
    ("obj.run_rounds_s", "s"),
    ("hierarchy.interaction_ns", "ns"),
    ("hierarchy.distinct_states", "count"),
    ("hierarchy.leader_rounds", "rounds"),
    ("hierarchy.leader_rises", "count"),
    ("interp.run_iteration_s", "s"),
    ("interp.site_setup_us", "us"),
    ("enumerate.plan_s", "s"),
    ("compile.build_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups timed before the reps: at least the first count, then more
/// until the time budget or the second count is spent.
const SETUP_SAMPLES: (usize, usize) = (21, 1001);
const SETUP_SECONDS: f64 = 0.2;
/// Reps (pairs of reps when tracing) run however long they take.
const MIN_REPS: usize = 2;

/// Checked answers: how many were attempted and how many were wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed their check.
    pub failed: u64,
}

impl Tally {
    /// Checks `answer` and counts it; returns whether it held.
    pub fn check(&mut self, answer: &workload::Answer) -> bool {
        let ok = answer.holds();
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Wrong answers over answers attempted (0 when nothing was checked).
    #[must_use]
    pub fn wrong_answer_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer checked.
    pub tally: Tally,
    /// Metric name, value and unit, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Whether every answer held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `spec` for about `seconds` of timed reps, seeded from `seed`, and
/// reports the end-to-end metrics, or with `trace` the per-layer ones.
/// Progress and each answer go to stdout as they happen.
#[must_use]
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Rep seeds depend on the run seed only, so both oscillator workloads
    // simulate the same trajectories.
    let mut seeds = SimRng::seed_from(seed);
    let mut tally = Tally::default();
    if !trace {
        let mut setups = setup_samples(spec);
        let mut reps = Vec::new();
        repeat(seconds, || {
            reps.push(checked_rep(spec, seeds.next_u64(), None, &mut tally))
        });
        setups.extend(reps.iter().map(|r| r.setup_s));
        let median_of = |f: fn(&Rep) -> f64| median(reps.iter().map(f).collect());
        return Outcome {
            metrics: vec![
                ("answer_s", median_of(|r| r.answer_s), "s"),
                (
                    "interactions_per_s",
                    median_of(|r| r.interactions / r.answer_s),
                    "1/s",
                ),
                ("cpu_s", median_of(|r| r.cpu_s), "s"),
                ("setup_s", median(setups), "s"),
                ("peak_rss_mb", host::peak_rss_mb(), "MB"),
                (
                    "correct_answer_share",
                    1.0 - tally.wrong_answer_share(),
                    "share",
                ),
            ],
            tally,
        };
    }

    // The traced run: each traced rep follows an untraced rep on the same
    // seed, so the pair differs only by the layer timers and the engine
    // counters, and both reps see the same phase of the host's speed.
    let (mut plain, mut traced, mut counters) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    repeat(seconds, || {
        let seed = seeds.next_u64();
        plain.push(checked_rep(spec, seed, None, &mut tally));
        let (rep, report) = counted(|| checked_rep(spec, seed, Some(&mut layers), &mut tally));
        traced.push(rep);
        counters.push(report);
    });
    let mut values = layer_metrics(spec, &traced, &layers, &counters);
    let overheads = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| 100.0 * (t.answer_s / p.answer_s - 1.0));
    values.extend(overheads.map(|pct| ("trace.overhead_pct", pct)));
    for rep in &traced {
        values.extend(rep.answer.statistics());
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = values.iter().filter(|v| v.0 == name).map(|v| v.1).collect();
            let value = if samples.is_empty() {
                0.0
            } else {
                median(samples)
            };
            (name, value, unit)
        })
        .collect();
    Outcome { tally, metrics }
}

fn setup_samples(spec: &Spec) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_SAMPLES.0
        || (samples.len() < SETUP_SAMPLES.1 && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        samples.push(spec.setup_s());
    }
    samples
}

/// Calls `step` until the next call would likely end past `seconds`, and
/// at least [`MIN_REPS`] times.
fn repeat(seconds: f64, mut step: impl FnMut()) {
    let start = Instant::now();
    let (mut calls, mut last) = (0, 0.0);
    while calls < MIN_REPS || start.elapsed().as_secs_f64() + last <= seconds {
        let step_start = Instant::now();
        step();
        last = step_start.elapsed().as_secs_f64();
        calls += 1;
    }
}

/// Runs one rep, checks and counts its answer and prints it. Untraced reps
/// assert that the engine's telemetry is off.
fn checked_rep(spec: &Spec, seed: u64, layers: Option<&mut Layers>, tally: &mut Tally) -> Rep {
    let traced = layers.is_some();
    if !traced {
        assert!(
            !metrics::enabled() && !prof::enabled(),
            "engine telemetry must be off while timing"
        );
    }
    let rep = spec.rep(seed, layers);
    let ok = tally.check(&rep.answer);
    println!(
        "rep {} seed={seed} traced={traced} setup_s={:.6} answer_s={:.4} cpu_s={:.3} {}: {:?}",
        tally.attempted,
        rep.setup_s,
        rep.answer_s,
        rep.cpu_s,
        if ok { "ok" } else { "WRONG" },
        rep.answer,
    );
    rep
}

/// Runs `f` with the engine's global counter registry on and returns what
/// it counted. The benchmark's only access to that registry.
fn counted<T>(f: impl FnOnce() -> T) -> (T, MetricsReport) {
    metrics::reset();
    metrics::enable();
    let out = f();
    metrics::disable();
    (out, metrics::snapshot())
}

/// The per-layer values of the traced reps, per rep where they are sums.
fn layer_metrics(
    spec: &Spec,
    traced: &[Rep],
    layers: &Layers,
    counters: &[MetricsReport],
) -> Vec<(&'static str, f64)> {
    let reps = traced.len() as f64;
    let wall: f64 = traced.iter().map(|r| r.answer_s).sum();
    let cpu: f64 = traced.iter().map(|r| r.cpu_s).sum();
    let c = |name: &str| counters.iter().map(|r| r.counter(name) as f64).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut values = vec![
        ("counts.step_batch_s", layers.step_batch_s / reps),
        ("detect.observe_s", layers.observe_s / reps),
        ("obj.run_rounds_s", layers.run_rounds_s / reps),
        ("interp.run_iteration_s", layers.run_iteration_s / reps),
    ];
    values.extend(
        layers
            .hierarchy_interaction_ns
            .iter()
            .map(|&ns| ("hierarchy.interaction_ns", ns)),
    );
    match spec.kind {
        Kind::OscillatorDense | Kind::OscillatorParallel => {
            values.extend(probe::rng(spec.n));
            values.push(("pardense.cpu_per_wall", cpu / wall));
        }
        Kind::ProgramPlurality => values.extend(probe::program(spec.n)),
        Kind::FullstackLeader => {
            values.push(("compile.build_s", probe::compile_s()));
            values.push(("hierarchy.distinct_states", layers.distinct_states as f64));
        }
    }
    // Every workload but the leader election runs on `CountPopulation`.
    if spec.kind != Kind::FullstackLeader {
        values.extend([
            ("counts.batches", c("batches") / reps),
            (
                "counts.batch_cache_rebuilds",
                c("batch_cache_rebuilds") / reps,
            ),
            ("counts.noop_leaps", c("noop_leaps") / reps),
            (
                "counts.changed_ratio",
                ratio(c("interactions_changed"), c("interactions_executed")),
            ),
            ("collision.epochs", c("collision_epochs") / reps),
            (
                "collision.steps_per_epoch",
                ratio(c("collision_batched_steps"), c("collision_epochs")),
            ),
            ("pardense.shard_rounds", c("shard_rounds") / reps),
            (
                "pardense.merge_conflicts",
                c("shard_merge_conflicts") / reps,
            ),
        ]);
    }
    values
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
