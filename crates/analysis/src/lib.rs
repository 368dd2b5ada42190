//! # aqt-analysis
//!
//! Verdicts, statistics and reporting for adversarial queuing
//! experiments:
//!
//! * [`stats`] — summary statistics, linear regression, geometric
//!   growth estimation.
//! * [`stability`] — classify a backlog series as diverging / bounded
//!   (the empirical counterpart of the paper's stability definition).
//! * [`report`] — fixed-width ASCII tables and CSV output for the
//!   experiment harness.
//! * [`series`] — sparklines and peak-preserving downsampling for
//!   terminal output.
//! * [`trend`] — the Mann–Kendall nonparametric trend test (a second
//!   opinion for noisy backlog series).
//! * [`histogram`] — power-of-two bucket histograms for wait/latency
//!   distributions.

#![forbid(unsafe_code)]

pub mod histogram;
pub mod report;
pub mod series;
pub mod stability;
pub mod stats;
pub mod trend;

pub use report::Table;
pub use stability::{classify_series, Verdict};
