//! # aqt-analysis
//!
//! Verdicts, statistics and reporting for adversarial queuing
//! experiments:
//!
//! * [`stats`] — summary statistics, linear regression, geometric
//!   growth estimation.
//! * [`stability`] — classify a backlog series as diverging / bounded
//!   (the empirical counterpart of the paper's stability definition).
//! * [`report`] — fixed-width ASCII tables for the experiment
//!   harness.
//! * [`series`] — sparklines and peak-preserving downsampling for
//!   terminal output.

#![forbid(unsafe_code)]

pub mod report;
pub mod series;
pub mod stability;
pub mod stats;

pub use report::Table;
pub use stability::{classify_series, Verdict};
