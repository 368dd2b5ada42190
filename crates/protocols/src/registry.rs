//! Name-based protocol construction, for sweeps and CLI examples.

use aqt_sim::Protocol;

use crate::{Ffs, Fifo, Ftg, Lifo, Lis, Nis, Ntg, Nts, Random};

/// Names of all bundled protocols, in canonical order.
pub fn protocol_names() -> &'static [&'static str] {
    &[
        "FIFO", "LIFO", "LIS", "NIS", "FTG", "NTG", "FFS", "NTS", "RANDOM",
    ]
}

/// Construct a protocol by (case-insensitive) name. `seed` is used only
/// by randomized protocols.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Protocol>> {
    let p: Box<dyn Protocol> = match name.to_ascii_uppercase().as_str() {
        "FIFO" => Box::new(Fifo),
        "LIFO" => Box::new(Lifo),
        "LIS" => Box::new(Lis),
        "NIS" | "SIS" => Box::new(Nis),
        "FTG" => Box::new(Ftg),
        "NTG" => Box::new(Ntg),
        "FFS" => Box::new(Ffs),
        "NTS" => Box::new(Nts),
        "RANDOM" => Box::new(Random::seeded(seed)),
        _ => return None,
    };
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_constructs() {
        for &n in protocol_names() {
            let p = by_name(n, 1).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(p.name(), n);
        }
        assert!(by_name("nope", 0).is_none());
    }

    #[test]
    fn sis_aliases_nis() {
        assert_eq!(by_name("sis", 0).unwrap().name(), "NIS");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(by_name("fifo", 0).unwrap().name(), "FIFO");
    }

    /// The paper's taxonomy. Definition 3.1's examples: FIFO, LIFO,
    /// LIS, NIS and FFS are historic; FTG and NTG are not. Theorem
    /// 4.3's remark: FIFO and LIS are time-priority.
    #[test]
    fn paper_taxonomy() {
        for &n in protocol_names() {
            let p = by_name(n, 0).expect("registry names are constructible");
            assert_eq!(p.is_historic(), !matches!(n, "FTG" | "NTG"), "{n}");
            assert_eq!(p.is_time_priority(), matches!(n, "FIFO" | "LIS"), "{n}");
        }
    }

    /// The sentinel spec carries the protocol's class: `w = 9`,
    /// `r = 1/3`, `d = 3` licenses Theorem 4.3's `⌈9/3⌉ = 3` for FIFO
    /// and nothing for NTG (`1/3 > 1/(d+1) = 1/4`).
    #[test]
    fn certificate_spec_carries_the_class() {
        use aqt_sim::{Ratio, StabilityCertificate};

        let cert = StabilityCertificate::new(9, Ratio::new(1, 3), 3);
        let spec = cert.spec(by_name("FIFO", 0).unwrap().is_time_priority());
        assert!(spec.time_priority);
        assert_eq!(spec.bound(), Some(3));
        let spec = cert.spec(by_name("NTG", 0).unwrap().is_time_priority());
        assert!(!spec.time_priority);
        assert_eq!(spec.bound(), None);
    }

    /// The [`aqt_sim::Discipline`] contract: on every queue, a declared
    /// fast path must pick exactly the index `select` picks. Exercised
    /// over queues with heavy key collisions so the tie-breaks are hit.
    #[test]
    fn declared_disciplines_agree_with_select() {
        use aqt_graph::EdgeId;
        use aqt_sim::Packet;
        use std::collections::VecDeque;

        let g = aqt_graph::topologies::line(1);
        let mut lcg: u64 = 0x243F6A8885A308D3;
        let mut next = |m: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };
        for trial in 0..200 {
            let len = 1 + next(12) as usize;
            let q: VecDeque<Packet> = (0..len)
                .map(|i| {
                    // small value ranges => plenty of ties
                    let injected = next(4);
                    let arrived = injected + next(4);
                    let route_len = 1 + next(4) as usize;
                    let hop = next(route_len as u64) as u32;
                    Packet::synthetic(
                        i as u64,
                        injected,
                        arrived,
                        0,
                        (0..route_len).map(|k| EdgeId(k as u32)).collect(),
                        hop,
                    )
                })
                .collect();
            for mut p in protocol_names().iter().filter_map(|n| by_name(n, 7)) {
                if let Some(fast) = p.discipline().index_in(&q) {
                    let slow = p.select(100 + trial, EdgeId(0), &q, &g);
                    assert_eq!(
                        fast,
                        slow,
                        "{} discipline disagrees with select on trial {trial}",
                        p.name()
                    );
                }
            }
        }
    }
}
