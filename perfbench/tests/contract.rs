//! The benchmark's own checks: the metric names it promises, the resource
//! readers, a tiny run of every workload and the counting of wrong answers.

use perfbench::workload::{Answer, Kind, Layers, Spec};
use perfbench::{host, run, Outcome, Tally, END_TO_END, PER_LAYER};
use pp_engine::json::Json;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(kind: Kind, trace: bool) -> Vec<(String, String)> {
    let outcome = run(&Spec::smoke(kind), 7, 0.01, trace);
    assert!(
        outcome.correct(),
        "{} smoke run answered wrongly",
        kind.name()
    );
    outcome
        .metrics
        .iter()
        .map(|&(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let as_owned = |l: &[(&str, &str)]| {
        l.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
    assert_eq!(
        emitted(Kind::ProgramPlurality, false),
        as_owned(&END_TO_END)
    );
    assert_eq!(emitted(Kind::ProgramPlurality, true), as_owned(&PER_LAYER));
}

#[test]
fn cpu_and_rss_readers_are_sane() {
    let cpu0 = host::cpu_seconds();
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed().as_secs_f64() < 0.3 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let busy = host::cpu_seconds() - cpu0;
    assert!(
        (0.15..=5.0).contains(&busy),
        "0.3 s busy loop read as {busy} CPU s"
    );

    let before = host::peak_rss_mb();
    assert!(before > 0.5, "peak RSS {before} MB");
    let block = vec![1u8; 64 << 20];
    std::hint::black_box(&block);
    let after = host::peak_rss_mb();
    assert!(
        after >= before + 48.0,
        "touching 64 MiB moved peak RSS {before} -> {after} MB"
    );
}

#[test]
fn every_workload_answers_correctly_at_tiny_n() {
    for kind in Kind::ALL {
        let spec = Spec::smoke(kind);
        let plain = spec.rep(3, None);
        assert!(plain.answer.holds(), "{}: {:?}", kind.name(), plain.answer);
        let mut layers = Layers::default();
        let traced = spec.rep(3, Some(&mut layers));
        assert_eq!(
            traced.answer,
            plain.answer,
            "{}: tracing changed the answer",
            kind.name()
        );
        assert!(plain.answer_s > 0.0 && plain.interactions > 0.0);
    }
}

#[test]
fn a_wrong_answer_counts_against_the_share() {
    let mut tally = Tally::default();
    let right = Spec::smoke(Kind::ProgramPlurality).rep(5, None).answer;
    assert!(tally.check(&right));
    let wrong = match right {
        Answer::Plurality { expected, .. } => Answer::Plurality {
            winner: Some(1),
            expected,
        },
        other => panic!("plurality answered {other:?}"),
    };
    assert!(!tally.check(&wrong));
    assert!(!tally.check(&Answer::Leader {
        first_unique: None,
        leaders: 2,
        rises: 0
    }));
    assert_eq!(
        tally,
        Tally {
            attempted: 3,
            failed: 2
        }
    );
    assert!((tally.wrong_answer_share() - 2.0 / 3.0).abs() < 1e-12);
    let result = Outcome {
        tally,
        metrics: Vec::new(),
    };
    assert!(!result.correct());
    assert_eq!(
        result.to_json().get("failed").and_then(Json::as_u64),
        Some(2)
    );
}
