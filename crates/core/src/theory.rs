//! The stability theorems of Section 4 — Theorems 4.1/4.3,
//! Observation 4.4 and Corollaries 4.5/4.6 — as one exact bound
//! calculator, [`StabilityCertificate`]. It lives in `aqt-sim`, beside
//! the sentinel's [`aqt_sim::CertificateSpec`] that enforces the same
//! bound online, and is re-exported here; experiments E5–E7, E13 and
//! E14 compare its bounds against the measured `max_buffer_wait`.

pub use aqt_sim::StabilityCertificate;

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_protocols::{Fifo, Ntg};
    use aqt_sim::Ratio;

    #[test]
    fn theorem_4_1_bound_is_ceil_wr() {
        // d = 3, r = 1/4 = 1/(d+1), w = 10 -> ⌈10/4⌉ = 3
        let c = StabilityCertificate::new(10, Ratio::new(1, 4), 3);
        assert_eq!(c.greedy_bound(), Some(3));
        // r slightly above 1/(d+1): theorem does not apply
        let c = StabilityCertificate::new(10, Ratio::new(26, 100), 3);
        assert_eq!(c.greedy_bound(), None);
    }

    #[test]
    fn theorem_4_3_extends_to_inv_d() {
        // d = 3, r = 1/3: time-priority OK, greedy not
        let c = StabilityCertificate::new(9, Ratio::new(1, 3), 3);
        assert_eq!(c.time_priority_bound(), Some(3));
        assert_eq!(c.greedy_bound(), None);
    }

    #[test]
    fn bound_for_dispatches_on_protocol_class() {
        let c = StabilityCertificate::new(9, Ratio::new(1, 3), 3);
        assert_eq!(c.bound_for(&Fifo), Some(3));
        assert_eq!(c.bound_for(&Ntg), None);
    }

    #[test]
    fn corollary_4_5_initial_configuration() {
        // d = 2, r = 1/4 < 1/3, w = 5, S = 20:
        // w* = ⌈(20+5+1)/(1/3 − 1/4)⌉ = ⌈26·12⌉ = 312; bound = ⌈312/3⌉ = 104
        let c = StabilityCertificate::with_initial(5, Ratio::new(1, 4), 2, 20);
        assert_eq!(c.greedy_bound(), Some(104));
        // r = 1/3 exactly: strict inequality required -> None
        let c = StabilityCertificate::with_initial(5, Ratio::new(1, 3), 2, 20);
        assert_eq!(c.greedy_bound(), None);
    }

    #[test]
    fn corollary_4_6_initial_configuration() {
        // d = 2, r = 1/4 < 1/2, w = 5, S = 20:
        // w* = ⌈26/(1/2 − 1/4)⌉ = 104; bound = ⌈104/2⌉ = 52
        let c = StabilityCertificate::with_initial(5, Ratio::new(1, 4), 2, 20);
        assert_eq!(c.time_priority_bound(), Some(52));
    }

    #[test]
    fn empty_start_bounds_do_not_depend_on_s() {
        let a = StabilityCertificate::new(12, Ratio::new(1, 5), 4);
        assert_eq!(a.greedy_bound(), Some(3)); // ⌈12/5⌉
                                               // The bound is independent of any network parameter other than
                                               // d — the paper highlights this ("independent of network
                                               // parameters, depending only on the parameters of the
                                               // adversary").
        let b = StabilityCertificate::new(12, Ratio::new(1, 5), 3);
        assert_eq!(b.greedy_bound(), Some(3));
    }

    #[test]
    fn recovery_horizon_matches_w_star() {
        // d = 2, r = 1/4, w = 5, S = 20 (the Corollary 4.5/4.6 cases):
        // greedy r* = 1/3: w* = ⌈26/(1/12)⌉ = 312
        // time-priority r* = 1/2: w* = ⌈26/(1/4)⌉ = 104
        let c = StabilityCertificate::with_initial(5, Ratio::new(1, 4), 2, 20);
        assert_eq!(c.recovery_horizon(false), Some(312));
        assert_eq!(c.recovery_horizon(true), Some(104));
        // The bounds are exactly ⌈w*/k⌉ of those horizons.
        assert_eq!(c.greedy_bound(), Some(312u64.div_ceil(3)));
        assert_eq!(c.time_priority_bound(), Some(104u64.div_ceil(2)));
        // r at the threshold: no recovery guarantee.
        let c = StabilityCertificate::with_initial(5, Ratio::new(1, 3), 2, 20);
        assert_eq!(c.recovery_horizon(false), None);
        // ...but a time-priority protocol still recovers (r < 1/d).
        assert!(c.recovery_horizon(true).is_some());
    }

    #[test]
    fn degenerate_d_zero() {
        let c = StabilityCertificate::new(5, Ratio::new(1, 2), 0);
        assert_eq!(c.time_priority_bound(), None);
        // greedy: d+1 = 1, r <= 1 always true
        assert_eq!(c.greedy_bound(), Some(3));
    }
}
