//! The stability side (Section 4): every greedy protocol against
//! saturating `(w,r)` adversaries, bound vs. measurement.
//!
//! Prints one row per (protocol × topology) cell at `r = 1/(d+1)`
//! (Theorem 4.1), then the time-priority protocols at `r = 1/d`
//! (Theorem 4.3).
//!
//! ```sh
//! cargo run --release --example stability_certificates
//! ```

use adversarial_queuing::core::experiments::{e5_greedy_stability, e6_time_priority};
use adversarial_queuing::core::report::{e5_section, e6_section};

fn main() {
    let (d, w, steps) = (3usize, 12u64, 30_000u64);

    println!(
        "Theorem 4.1 — any greedy protocol, r = 1/(d+1) = 1/{}, w = {w}, {steps} steps:\n",
        d + 1
    );
    let rows = e5_greedy_stability(d, w, steps).expect("legal adversaries");
    println!("{}", e5_section(&rows).render());

    println!(
        "Theorem 4.3 — time-priority protocols at the higher rate r = 1/d = 1/{d} \
         (plus non-time-priority controls, for which the theorems are silent):\n"
    );
    let rows = e6_time_priority(d, w, steps).expect("legal adversaries");
    println!("{}", e6_section(&rows).render());
    println!("FIFO and LIS must respect their bound; LIFO/NTG have no guarantee at this rate.");
}
