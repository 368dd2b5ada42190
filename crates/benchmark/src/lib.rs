//! # aqt-benchmark
//!
//! The repository's benchmark: five workloads drawn from the paper and
//! the models the repository simulates, each timed end to end with
//! tracing off and then once more with spans around every call into a
//! layer, so a change that moves an end-to-end number can be traced to
//! the layer that moved it.
//!
//! | workload   | what runs                                            |
//! |------------|------------------------------------------------------|
//! | `thm317`   | the Theorem 3.17 construction at ε = 1/4, validated  |
//! | `sweep`    | the E16 threshold grid (5 models × 3 protocols × 3 f) |
//! | `storm`    | the E17 closed-loop retry-storm grid (32 cells)      |
//! | `campaign` | `run_campaign` over 20,000 fuzzed scenarios          |
//! | `ring`     | E18's every-buffer-busy ring, 65,536 edges           |
//!
//! The benchmark calls only the public entry points of the library
//! crates. See `README.md` for how each workload and bound was chosen.

pub mod compare;
pub mod harness;
pub mod host;
pub mod json;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use workloads::{Scale, WorkloadKind};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, reported for every workload. Kept equal to
/// `BENCHMARK.json` (the rot check compares them).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Every per-layer metric of the traced run, with its unit. A traced
/// run reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("graph.route_new_s", "s"),
    ("sim.seed_s", "s"),
    ("sim.quiet_ns_per_step", "ns"),
    ("sim.replay_ns_per_step", "ns"),
    ("sim.validate_ns_per_step", "ns"),
    ("sim.bytes_per_packet", "B/packet"),
    ("sim.sentinel_ns_per_step", "ns"),
    ("sim.telemetry_ns_per_step", "ns"),
    ("sim.observe_ns_per_step", "ns"),
    ("core.instability_self_s", "s"),
    ("protocols.fifo.step_ns", "ns"),
    ("protocols.lis.step_ns", "ns"),
    ("protocols.ntg.step_ns", "ns"),
    ("adversary.inject_ns_per_step", "ns"),
    ("analysis.classify_ms", "ms"),
    ("sim.openloop_ns_per_step", "ns"),
    ("workload.self_ns_per_step", "ns"),
    ("workload.goodput_share", "ratio"),
    ("campaign.generate_us", "us"),
    ("campaign.coverage_us", "us"),
    ("campaign.run_us", "us"),
    ("campaign.run_p99_us", "us"),
    ("campaign.steps_per_run", "count"),
    ("campaign.novel_share", "ratio"),
    ("trace_overhead", "ratio"),
];
