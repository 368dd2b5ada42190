//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public API: name, start, end and the enclosing span. Calls
//! made once per simulated step (or once per edge while seeding) would
//! swamp the trace, so those are aggregated into count, total and max
//! instead. Everything stays in memory until [`Tracer::chrome_trace`]
//! renders it in Chrome `trace_event` format, which Perfetto loads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.replay.bare`.
    pub name: &'static str,
    /// The workload that made the call.
    pub workload: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and maximum of an aggregated per-step call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Calls recorded.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    /// Per span: time its aggregated calls took.
    aggregated_ns: Vec<u64>,
    open: Vec<usize>,
    aggregates: BTreeMap<(&'static str, &'static str), Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            aggregated_ns: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    /// Attribute the following spans and aggregates to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.aggregated_ns.push(0);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Time `f` as one call of the aggregated `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed());
        out
    }

    /// Fold one call of `took` into the aggregate `name` (and into the
    /// enclosing span's child time).
    pub fn record(&mut self, name: &'static str, took: Duration) {
        let ns = took.as_nanos() as u64;
        if let Some(&open) = self.open.last() {
            self.aggregated_ns[open] += ns;
        }
        let a = self.aggregates.entry((self.workload, name)).or_default();
        a.count += 1;
        a.total_ns += ns;
        a.max_ns = a.max_ns.max(ns);
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The aggregate `name` of the current workload (zero if never
    /// recorded).
    pub fn aggregate(&self, name: &'static str) -> Aggregate {
        self.aggregates
            .get(&(self.workload, name))
            .copied()
            .unwrap_or_default()
    }

    /// Summed duration of the current workload's spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// Durations of the current workload's spans named `name`, in
    /// order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.workload == self.workload && s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part its child
    /// spans and aggregated calls cover (children never overlap — the
    /// benchmark is single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .zip(&self.aggregated_ns)
            .map(|(s, agg)| s.duration_ns().saturating_sub(*agg))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self time summed per (workload, span or aggregate name),
    /// largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut by: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by.entry((s.workload, s.name)).or_default() += own;
        }
        for (key, a) in &self.aggregates {
            *by.entry(*key).or_default() += a.total_ns;
        }
        let mut rows: Vec<_> = by.into_iter().map(|((w, n), t)| (w, n, t)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)).then(a.1.cmp(b.1)));
        rows
    }

    /// The trace in Chrome `trace_event` JSON: one complete (`X`)
    /// event per span on a thread per workload, with its parent and
    /// self time in `args`; aggregates and `other` go under
    /// `otherData`.
    pub fn chrome_trace(&self, other: Json) -> Json {
        let mut tids: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !tids.contains(&s.workload) {
                tids.push(s.workload);
            }
        }
        let tid = |w: &str| tids.iter().position(|t| *t == w).unwrap_or(0) + 1;
        let mut events: Vec<Json> = tids
            .iter()
            .map(|w| {
                Json::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 1u64)
                    .with("tid", tid(w))
                    .with("args", Json::object().with("name", *w))
            })
            .collect();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let mut args = Json::object()
                .with("id", i)
                .with("self_us", own as f64 / 1e3);
            if let Some(p) = s.parent {
                args.push("parent", p);
            }
            events.push(
                Json::object()
                    .with("name", s.name)
                    .with("cat", s.workload)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.duration_ns() as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", tid(s.workload))
                    .with("args", args),
            );
        }
        let aggregates: Vec<Json> = self
            .aggregates
            .iter()
            .map(|((w, n), a)| {
                Json::object()
                    .with("workload", *w)
                    .with("name", *n)
                    .with("count", a.count)
                    .with("total_ns", a.total_ns)
                    .with("max_ns", a.max_ns)
            })
            .collect();
        Json::object()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ns")
            .with(
                "otherData",
                Json::object()
                    .with("aggregates", aggregates)
                    .with("benchmark", other),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_workload("w");
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(3)));
            t.time("per_step", || ());
            t.time("per_step", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_times_ns();
        let per_step = t.aggregate("per_step");
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - per_step.total_ns
        );
        assert!(own[1] >= 3_000_000);
        assert_eq!(per_step.count, 2);
        assert!(t.self_time_by_name().iter().any(|r| r.1 == "per_step"));
        let trace = t.chrome_trace(Json::object());
        let parsed = Json::parse(&trace.render()).expect("trace parses");
        // Metadata event + two spans.
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );
    }
}
