//! Experiment E10: replay the FIFO-tuned instability adversary against
//! every protocol in the library.
//!
//! The Theorem 3.17 adversary exploits FIFO's arrival-order scheduling
//! (its thinning stage only works because short packets that arrive
//! interleaved with old packets are served interleaved). Universally
//! stable protocols such as LIS and FTG dismantle it: LIS always
//! prefers the old packets, so the thinning never bites.
//!
//! ```sh
//! cargo run --release --example protocol_landscape [eps_num eps_den]
//! ```

use adversarial_queuing::core::experiments::e10_landscape;
use adversarial_queuing::core::report::e10_table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let den: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    println!(
        "Recording the Theorem 3.17 adversary against FIFO at r = 1/2 + {num}/{den}, \
         then replaying the identical injection/reroute sequence against every protocol.\n\
         Every replay engine re-validates the injections against the identity model \
         rate(1/2 + {num}/{den}) (EngineConfig::validate); the stream is legal by \
         construction, so validation changes nothing — pinned by \
         e10_identity_model_reproduces_the_unvalidated_landscape.\n"
    );
    let rows = e10_landscape(num, den, 2).expect("legal adversary");
    println!("{}", e10_table(&rows).render());
}
