//! The experiment tables of `EXPERIMENTS.md` from one command.
//!
//! ```sh
//! cargo run --release --example full_report              # reduced tour: E1–E14, E16, E17
//! cargo run --release --example full_report -- --full    # full-scale E1–E13 tables
//! cargo run --release --example full_report -- --full E5 # one experiment
//! ```
//!
//! Each section is printed as soon as it is built; progress (with an
//! ETA) streams to stderr as the same schema-versioned JSONL records the
//! telemetry files hold (`job_*` and `sweep_progress`; job indices are
//! 0-based).

use std::io::Write;

use adversarial_queuing::core::report::{self, Scale};
use adversarial_queuing::sim::{JsonlSink, SharedSink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.first().is_some_and(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Reduced };
    let only = match &args[usize::from(full)..] {
        [] => None,
        [id] if report::sections(scale)
            .iter()
            .any(|(known, _)| known.eq_ignore_ascii_case(id)) =>
        {
            Some(id.as_str())
        }
        _ => {
            let ids: Vec<_> = report::sections(scale).iter().map(|(id, _)| *id).collect();
            eprintln!("usage: full_report [--full] [ID]   (ID at this scale: {ids:?})");
            std::process::exit(2);
        }
    };

    let t0 = std::time::Instant::now();
    let progress = SharedSink::new(JsonlSink::from_writer(std::io::stderr()));
    let mut count = 0;
    report::run(scale, only, Some(&progress), |_, section| {
        print!("{}", section.render());
        std::io::stdout().flush().expect("stdout");
        count += 1;
    })
    .expect("legal adversaries");
    eprintln!("[{count} sections in {:.1}s]", t0.elapsed().as_secs_f64());
}
