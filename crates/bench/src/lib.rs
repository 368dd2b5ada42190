//! # aqt-bench
//!
//! Criterion benchmark harness. One bench target per experiment of
//! `EXPERIMENTS.md` (E1–E13); each bench also *prints* the
//! experiment's paper-vs-measured table, so
//! `cargo bench | tee bench_output.txt` regenerates every number
//! quoted there. Engine throughput is measured by the repository
//! benchmark in `crates/benchmark`.

#![forbid(unsafe_code)]

use aqt_analysis::Table;

/// Render any experiment table to stdout with a separating banner —
/// Criterion interleaves its own output, so make ours easy to grep.
pub fn print_table(table: &Table) {
    println!("\n{}", table.render());
}
