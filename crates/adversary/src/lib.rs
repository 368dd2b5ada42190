//! # aqt-adversary
//!
//! Adversary constructions for adversarial queuing experiments:
//!
//! * [`params`] — the parameter algebra of the paper's Section 3:
//!   `ε → (r, n, S₀, R_i, t_i, S′, X, M)` with the exact identities the
//!   proofs rely on (equation (3.1), Claim 3.7, the appendix
//!   asymptotics).
//! * [`lemma36`], [`lemma315`], [`lemma316`] — schedule builders for
//!   the three sub-adversaries of the instability proof: the
//!   gadget-step amplifier, the bootstrap, and the stitch.
//! * [`stochastic`] — saturating `(w,r)` adversaries for the stability
//!   side (Section 4): random-route generators that inject as much as
//!   Definition 2.1 permits.
//! * [`baselines`] — the prior-art comparison adversary of E9: a FIFO
//!   pumping adversary on the baseball graph (the network of the
//!   earlier FIFO instability results \[4, 11, 15\]).
//!
//! Every builder produces schedules that are replayed through the
//! engine's exact validators — legality is *checked*, never assumed.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod lemma315;
pub mod lemma316;
pub mod lemma36;
pub mod params;
pub mod stochastic;

pub use params::GadgetParams;
