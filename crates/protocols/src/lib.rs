//! # aqt-protocols
//!
//! The greedy contention-resolution scheduling policies studied in the
//! adversarial queuing literature, implemented against
//! [`aqt_sim::Protocol`].
//!
//! | Protocol | Selects | Historic (Def. 3.1) | Time-priority (Def. 4.2) | Known behaviour |
//! |----------|---------|--------------------|--------------------------|-----------------|
//! | [`Fifo`] | earliest arrival at buffer | yes | yes | unstable for every `r > 1/2` (this paper, Thm 3.17); stable for `r ≤ 1/d` (Thm 4.3) |
//! | [`Lifo`] | latest arrival at buffer | yes | no | unstable at arbitrarily low rates \[7\] |
//! | [`Lis`]  | longest in system (earliest injection) | yes | yes | universally stable \[4\] |
//! | [`Nis`]  | newest in system (latest injection) | yes | no | not universally stable \[4\] |
//! | [`Ftg`]  | furthest to go | no | no | universally stable \[4\] |
//! | [`Ntg`]  | nearest to go | no | no | unstable at arbitrarily low rates \[7\] |
//! | [`Ffs`]  | furthest from source | yes | no | not universally stable \[4\] |
//! | [`Nts`]  | nearest to source | yes | no | counterpart of FFS |
//! | [`Random`] | uniformly random | yes | no | baseline |
//!
//! The historic and time-priority columns are each protocol's
//! [`Protocol::is_historic`](aqt_sim::Protocol::is_historic) and
//! [`Protocol::is_time_priority`](aqt_sim::Protocol::is_time_priority);
//! [`registry`] constructs a protocol by name.
//!
//! Ties are always broken deterministically (documented per protocol),
//! so simulation runs are reproducible.

#![forbid(unsafe_code)]

pub mod fifo;
pub mod lifo;
pub mod ordering;
pub mod random;
pub mod registry;
pub mod route_position;
pub mod system_age;

pub use fifo::Fifo;
pub use lifo::Lifo;
pub use random::Random;
pub use registry::{by_name, protocol_names};
pub use route_position::{Ffs, Ftg, Ntg, Nts};
pub use system_age::{Lis, Nis};
