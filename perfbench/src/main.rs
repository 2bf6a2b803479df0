//! Runs the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host facts, each rep's checked answer and every metric by
//! name with its unit; the last line is the result as one JSON object.
//! Exits 1 when any answer is wrong, 2 on bad arguments.

use perfbench::workload::{Kind, Spec};
use perfbench::{host, run, Outcome, Tally};
use pp_engine::json::Json;
use std::process::ExitCode;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.kinds = Kind::ALL.to_vec(),
            "--workload" => {
                args.kinds = vec![Kind::parse(&value).ok_or_else(|| bad(&"unknown workload"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.kinds.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!("workloads: {} or all", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let mut all = Outcome {
        tally: Tally::default(),
        metrics: Vec::new(),
    };
    let mut last = None;
    for &kind in &args.kinds {
        let spec = Spec::standard(kind);
        println!(
            "workload {} n={} horizon={} trace={}",
            kind.name(),
            spec.n,
            spec.horizon,
            args.trace
        );
        println!("host {}", host::facts(spec.threads).render());
        let outcome = run(&spec, args.seed, args.seconds, args.trace);
        println!(
            "wrong_answer_share = {} share",
            outcome.tally.wrong_answer_share()
        );
        for &(name, value, unit) in &outcome.metrics {
            println!("{name} = {value} {unit}");
        }
        all.tally.attempted += outcome.tally.attempted;
        all.tally.failed += outcome.tally.failed;
        if args.kinds.len() > 1 {
            println!("result {} {}", kind.name(), outcome.to_json().render());
        }
        last = Some(outcome);
    }
    // One workload: its own result. All: the answer tally, with each
    // workload's metrics on its `result` line above.
    let outcome = if args.kinds.len() == 1 {
        last.expect("one workload ran")
    } else {
        all
    };
    let json: Json = outcome.to_json();
    println!("{}", json.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
