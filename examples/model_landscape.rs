//! Experiment E16: the threshold mapping re-run under each composed
//! adversary-constraint model.
//!
//! The paper's stability results (Theorems 4.1/4.3) are stated for the
//! `(w, r)` windowed adversary. The constraint algebra lets us ask
//! which of those results survive when the adversary is constrained
//! differently but comparably: a strict rate-`r` member, a locally
//! bursty `(ρ, σ, L)` member, a buffer-bound-`B` member, and the
//! three-way composition of window ∘ burst-local ∘ buffer-bound.
//!
//! ```sh
//! cargo run --release --example model_landscape [steps]
//! ```
//!
//! Writes the per-run telemetry (every record's provenance carries the
//! model fingerprint printed in the table) to
//! `target/telemetry_model_landscape.jsonl`.

use adversarial_queuing::core::experiments::e16_model_landscape;
use adversarial_queuing::core::report::e16_section;
use adversarial_queuing::sim::{JsonlSink, SharedSink};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4000);
    let (d, w) = (3, 12);

    println!(
        "E16: saturating each adversary model on torus-4x4 (d={d}, w={w}) for {steps} steps, \
         nominal rate r = f·1/(d+1), engine re-validating the same model…\n"
    );
    std::fs::create_dir_all("target").expect("create target/");
    let sink = SharedSink::new(
        JsonlSink::create("target/telemetry_model_landscape.jsonl")
            .expect("create telemetry JSONL"),
    );
    let rows = e16_model_landscape(d, w, steps, Some(&sink)).expect("legal adversaries");
    sink.flush();

    print!("{}", e16_section(&rows).render());
    println!(
        "Expected shape: the identity (w, r) composition reproduces the paper's \
         thresholds at f ≤ 1; rate and burst-local share its long-run rate and \
         survive; buffer-bound alone caps bursts but admits long-run rate 1, so \
         the threshold result does not transfer; the composition is strictly \
         tighter than the identity. telemetry: target/telemetry_model_landscape.jsonl"
    );
}
