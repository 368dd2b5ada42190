//! Explore the construction's parameter algebra (Section 3 +
//! Appendix): for a sweep of ε, print the derived `r`, `n`, `S₀`, `M`,
//! the per-gadget amplification `2(1−R_n)`, and the thinning rates
//! `R_1 … R_n`.
//!
//! ```sh
//! cargo run --example parameter_explorer
//! ```

use adversarial_queuing::adversary::GadgetParams;
use adversarial_queuing::analysis::Table;
use adversarial_queuing::sim::AdversaryModelSpec;

fn main() {
    let mut t = Table::new(
        "Instability construction parameters (Section 3; asymptotics per the Appendix)",
        &[
            "ε",
            "r = 1/2+ε",
            "n",
            "S₀",
            "M (margin 2)",
            "amp 2(1−R_n)",
            "edges of G_ε",
            "validated model",
        ],
    );
    for (num, den) in [
        (2u64, 5u64),
        (3, 10),
        (1, 4),
        (1, 5),
        (1, 10),
        (1, 20),
        (1, 50),
        (1, 100),
    ] {
        let p = GadgetParams::new(num, den);
        let m = p.choose_m(2.0);
        let edges = m * (2 * p.n + 1) + 2;
        // The adversary model the construction's engine validates
        // against (`EngineConfig::validate`): the identity rate model
        // at exactly the derived `r`. Its sustained rate must agree
        // with the parameter algebra — the spec is derived data, so
        // adding it cannot change any other column.
        let model = AdversaryModelSpec::rate(p.rate);
        assert_eq!(
            model.long_run_rate(),
            Some(p.rate),
            "the identity model's sustained rate must equal the derived r"
        );
        t.row(&[
            format!("{num}/{den}"),
            format!("{} ≈ {:.3}", p.rate, p.rate.as_f64()),
            p.n.to_string(),
            p.s0.to_string(),
            m.to_string(),
            format!("{:.4}", p.amplification()),
            edges.to_string(),
            format!("{model} [{:#018x}]", model.fingerprint()),
        ]);
    }
    println!("{}", t.render());

    // The thinning ladder for one ε, with identity (3.1) checked.
    let p = GadgetParams::new(1, 4);
    println!(
        "thinning rates for ε = 1/4 (r = {:.2}): R_i = (1−r)/(1−r^i), and R_i/(r+R_i) = R_(i+1):",
        p.rate.as_f64()
    );
    for i in 1..=p.n {
        let lhs = p.r_i(i) / (p.rate.as_f64() + p.r_i(i));
        println!(
            "  R_{i:<2} = {:.5}   (R_{i}/(r+R_{i}) = {:.5} = R_{})",
            p.r_i(i),
            lhs,
            i + 1
        );
    }
    println!(
        "\nThe queue surviving the e-path thins to 2S·R_n per gadget — two populations \
         of S·(1−R_n) each;\nthe adversary tops the a-buffer back up to S' = 2S(1−R_n) \
         ≥ S(1+ε). That inequality is why FIFO loses."
    );
}
