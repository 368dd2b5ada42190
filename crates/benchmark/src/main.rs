//! The benchmark's command line.
//!
//! ```text
//! aqt-benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
//! aqt-benchmark compare OLD.json NEW.json
//! ```
//!
//! Without `--workload` every workload runs (11 measured repetitions
//! each, unless `--seconds` sets a time budget), the
//! traced pass follows (unless `--trace 0`), and the last stdout line
//! is a history row for `history.jsonl`. With `--workload` the last
//! line is that workload's one-line summary: its end-to-end metrics,
//! or with `--trace 1` its per-layer metrics. Results go to
//! `target/aqt-benchmark/seed-<N>.json`, the trace to
//! `target/aqt-benchmark/trace-<N>.json`.

use std::path::Path;
use std::process::ExitCode;

use aqt_benchmark::harness::{self, Budget, Options};
use aqt_benchmark::json::Json;
use aqt_benchmark::{compare, Scale, WorkloadKind};

const OUT_DIR: &str = "target/aqt-benchmark";

fn usage() -> String {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: aqt-benchmark [--seed N] [--workload {}] [--seconds S] [--trace 0|1]\n\
         \x20      aqt-benchmark compare OLD.json NEW.json",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        seed: 1,
        scale: Scale::Full,
        budget: Budget::Reps,
        trace: true,
        workloads: WorkloadKind::ALL.to_vec(),
    };
    let mut single = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--workload" => {
                let w = WorkloadKind::parse(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                opts.workloads = vec![w];
                single = true;
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
                opts.budget = Budget::Seconds(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((opts, single))
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(old: &str, new: &str) -> Result<bool, String> {
    let (table, pass) = compare::compare(&read(old)?, &read(new)?)?;
    print!("{table}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [old, new] => match run_compare(old, new) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let (opts, single) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let (results, tracer) = harness::run(&opts);
    print!("{}", harness::report(&results, tracer.as_ref()));

    let seed = opts.seed;
    let results_path = format!("{OUT_DIR}/seed-{seed}.json");
    let mut files = vec![(results_path, harness::results_json(seed, &results))];
    if let Some(t) = &tracer {
        let other = Json::object().with("seed", seed);
        files.push((
            format!("{OUT_DIR}/trace-{seed}.json"),
            t.chrome_trace(other),
        ));
    }
    for (path, doc) in &files {
        match write(path, doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = results.iter().all(|r| r.correct());
    let last = if single {
        harness::summary_line(&results[0], opts.trace)
    } else {
        harness::history_row(seed, &results)
    };
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
