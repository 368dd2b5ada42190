//! Protocol classification report — the paper's taxonomy as data.

use aqt_sim::{CertificateSpec, Protocol, Ratio, StabilityCertificate};

/// Static facts about a protocol, as used by the paper's theorems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Protocol display name.
    pub name: String,
    /// All protocols in this crate are greedy (work-conserving) — the
    /// engine enforces it. Kept explicit for reporting.
    pub greedy: bool,
    /// Historic per Definition 3.1 (rerouting of Lemma 3.3 applies).
    pub historic: bool,
    /// Time-priority per Definition 4.2 (stability threshold improves
    /// from `1/(d+1)` to `1/d`, Theorem 4.3).
    pub time_priority: bool,
}

impl Classification {
    /// The sentinel certificate this classification licenses for a
    /// `(window, rate)` adversary, routes of length at most `d`, and an
    /// `S = initial` starting configuration. Feed the result to
    /// `SentinelConfig::with_certificate` to have the engine enforce
    /// the matching theorem bound at runtime ([`CertificateSpec::bound`]
    /// is `None` when the rate is above the class threshold).
    pub fn certificate_spec(
        &self,
        window: u64,
        rate: Ratio,
        d: usize,
        initial: u64,
    ) -> CertificateSpec {
        StabilityCertificate::with_initial(window, rate, d, initial).spec(self.time_priority)
    }
}

/// Classify a protocol instance.
pub fn classify<P: Protocol>(p: &P) -> Classification {
    Classification {
        name: p.name().to_string(),
        greedy: true,
        historic: p.is_historic(),
        time_priority: p.is_time_priority(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ffs, Fifo, Ftg, Lifo, Lis, Nis, Ntg, Nts, Random};

    #[test]
    fn paper_taxonomy() {
        // Definition 3.1's examples: FIFO, LIFO, LIS, NIS, FFS are
        // historic; FTG and NTG are not.
        assert!(classify(&Fifo).historic);
        assert!(classify(&Lifo).historic);
        assert!(classify(&Lis).historic);
        assert!(classify(&Nis).historic);
        assert!(classify(&Ffs).historic);
        assert!(classify(&Nts).historic);
        assert!(classify(&Random::default()).historic);
        assert!(!classify(&Ftg).historic);
        assert!(!classify(&Ntg).historic);

        // Theorem 4.3's remark: FIFO and LIS are time-priority.
        assert!(classify(&Fifo).time_priority);
        assert!(classify(&Lis).time_priority);
        for c in [
            classify(&Lifo),
            classify(&Nis),
            classify(&Ffs),
            classify(&Nts),
            classify(&Ftg),
            classify(&Ntg),
            classify(&Random::default()),
        ] {
            assert!(!c.time_priority, "{} should not be time-priority", c.name);
        }
    }

    #[test]
    fn certificate_spec_carries_the_class() {
        let spec = classify(&Fifo).certificate_spec(9, Ratio::new(1, 3), 3, 0);
        assert!(spec.time_priority);
        assert_eq!(spec.bound(), Some(3)); // Theorem 4.3: ⌈9/3⌉
        let spec = classify(&Ntg).certificate_spec(9, Ratio::new(1, 3), 3, 0);
        assert!(!spec.time_priority);
        assert_eq!(spec.bound(), None); // 1/3 > 1/(d+1) = 1/4
    }
}
