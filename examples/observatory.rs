//! The queue observatory: record a run's telemetry to JSONL, then
//! analyze it offline.
//!
//! ```sh
//! cargo run --release --example observatory              # demo run + analysis
//! cargo run --release --example observatory <file.jsonl> # analyze existing
//! ```
//!
//! With no argument, runs a demo — FIFO on `ring(64)`, every edge
//! seeded with a 3-packet cohort on an 8-edge wrap-around route, an
//! all-halt sentinel carrying the S-degraded certificate of
//! Observation 4.4 — with the observatory attached (backlog ticks
//! every 2 steps, 1-in-16 span sampling) and writes the record stream
//! to `target/observatory.jsonl` before analyzing it.
//!
//! The analysis covers every record kind the observatory emits:
//!
//! - **backlog** — per-edge queue-depth percentiles (top-k hot edges),
//!   the total `Q(t)` trajectory, and the certificate-margin series
//!   (`bound − max_wait`; a negative margin is a refuted certificate);
//! - **span** — packet-lifecycle waterfalls for the sampled packets
//!   (inject → per-hop send/enqueue → absorb, with per-buffer waits);
//! - **workload_window** — when the stream comes from a closed-loop
//!   run (`retry_storm`), goodput windows joined against mean `Q(t)`
//!   on the shared time axis.
//!
//! It also writes `target/observatory_trace.json` in Chrome
//! `trace_event` format — open it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing` to see the span slices per sampled packet and
//! the backlog/margin counter tracks. One engine step maps to 1 µs of
//! trace time.

use std::fs::File;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adversarial_queuing::analysis::Table;
use adversarial_queuing::prelude::{topologies, EdgeId, Fifo, Route};
use adversarial_queuing::sim::{
    CertificateSpec, Engine, EngineConfig, JsonlSink, ObserveConfig, Provenance, Ratio,
    SentinelConfig, TelemetryConfig, TelemetryLevel, TELEMETRY_SCHEMA_VERSION,
};

// ---------------------------------------------------------------- demo

/// Run the demo and write its telemetry to `target/observatory.jsonl`.
/// Returns the path written.
fn run_demo() -> PathBuf {
    const EDGES: usize = 64;
    const ROUTE_LEN: usize = 8;
    const COHORT: u64 = 3;
    const STEPS: u64 = 48;

    std::fs::create_dir_all("target").expect("create target/");
    let path = PathBuf::from("target/observatory.jsonl");

    let g = Arc::new(topologies::ring(EDGES));
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());

    // Observation 4.4's S-degraded certificate for the seeded start:
    // S = 64·3 = 192 packets, w = 16, r = 1/16 < 1/(d+1) = 1/9.
    let cert = CertificateSpec {
        window: 16,
        rate: Ratio::new(1, 16),
        d: ROUTE_LEN as u64,
        initial: (EDGES as u64) * COHORT,
        time_priority: false,
    };
    eng.attach_sentinel(
        SentinelConfig::all_halt()
            .with_cadence(8)
            .with_certificate(cert)
            .with_seed(7),
    );
    eng.attach_telemetry(TelemetryConfig {
        level: TelemetryLevel::Counters,
        window: 16,
        provenance: Provenance {
            seed: Some(7),
            protocol: "FIFO".into(),
            ..Provenance::default()
        },
        ..TelemetryConfig::default()
    });
    // Attached after the sentinel, so the margin tracker inherits the
    // certificate bound.
    eng.attach_observatory(
        ObserveConfig::default()
            .with_cadence(2)
            .with_span_sample_every(16),
    );
    eng.set_telemetry_sink(Box::new(
        JsonlSink::create(&path).expect("create observatory JSONL"),
    ));

    for e in 0..EDGES {
        let ids: Vec<EdgeId> = (0..ROUTE_LEN)
            .map(|k| EdgeId(((e + k) % EDGES) as u32))
            .collect();
        let route = Route::new(&g, ids).expect("contiguous ring edges");
        eng.seed_cohort(route, e as u32, COHORT)
            .expect("seed before step");
    }
    eng.run_quiet(STEPS).expect("demo run stays certified");
    eng.finish_telemetry();

    let obs = eng.observatory();
    println!(
        "demo run: ring({EDGES}), {} seeded packets, {STEPS} steps — \
         {} backlog ticks, {} spans emitted ({} dropped), min margin {:?}\n",
        (EDGES as u64) * COHORT,
        obs.ticks(),
        obs.spans_emitted(),
        obs.spans_dropped(),
        obs.min_margin(),
    );
    path
}

// ------------------------------------------------------- JSONL parsing

/// The raw text of `"key":<value>` in a one-line JSON object, with
/// bracket balancing so array values keep their commas. `None` when
/// the key is absent.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let bytes = line.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut i = start;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if b == b'\\' {
                i += 2;
                continue;
            }
            if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'[' | b'{' => depth += 1,
                b']' | b'}' if depth > 0 => depth -= 1,
                b',' | b'}' if depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    Some(&line[start..i])
}

/// The number at `key`; `None` when absent or not a number.
fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    raw_field(line, key)?.parse().ok()
}

/// A nullable number: `Some(None)` for an explicit `null`, `None` when
/// the key is absent or the value is neither `null` nor a number.
fn nullable_field<T: std::str::FromStr>(line: &str, key: &str) -> Option<Option<T>> {
    match raw_field(line, key)? {
        "null" => Some(None),
        raw => raw.parse().ok().map(Some),
    }
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    raw_field(line, key)?
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
}

/// `Some(())` when `line` is a whole `{…}` object; `None` when it was
/// cut short.
fn closed(line: &str) -> Option<()> {
    (line.starts_with('{') && line.ends_with('}')).then_some(())
}

/// Parse `[[e,d],...]` pairs (the `depths` field); `None` when the
/// field is absent or any pair fails to parse.
fn pairs_field(line: &str, key: &str) -> Option<Vec<(u32, u32)>> {
    let inner = raw_field(line, key)?.strip_prefix('[')?.strip_suffix(']')?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .strip_prefix('[')?
        .strip_suffix(']')?
        .split("],[")
        .map(|p| {
            let (a, b) = p.split_once(',')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

/// One `kind:"backlog"` record.
struct BacklogTick {
    time: u64,
    total: u64,
    max_wait: u64,
    bound: Option<u64>,
    margin: Option<i64>,
    depths: Vec<(u32, u32)>,
}

/// One `kind:"span"` record.
struct Span {
    time: u64,
    packet: u64,
    op: String,
    edge: u32,
    hop: u32,
    wait: u64,
}

/// One `kind:"workload_window"` record (closed-loop streams only).
struct GoodputWindow {
    start: u64,
    end: u64,
    goodput: u64,
    offered: u64,
}

impl BacklogTick {
    fn parse(line: &str) -> Option<Self> {
        closed(line)?;
        Some(BacklogTick {
            time: num_field(line, "time")?,
            total: num_field(line, "total")?,
            max_wait: num_field(line, "max_wait")?,
            bound: nullable_field(line, "bound")?,
            margin: nullable_field(line, "margin")?,
            depths: pairs_field(line, "depths")?,
        })
    }
}

impl Span {
    fn parse(line: &str) -> Option<Self> {
        closed(line)?;
        Some(Span {
            time: num_field(line, "time")?,
            packet: num_field(line, "packet")?,
            op: str_field(line, "op")?.to_string(),
            edge: num_field(line, "edge")?,
            hop: num_field(line, "hop")?,
            wait: num_field(line, "wait")?,
        })
    }
}

impl GoodputWindow {
    fn parse(line: &str) -> Option<Self> {
        closed(line)?;
        Some(GoodputWindow {
            start: num_field(line, "start")?,
            end: num_field(line, "end")?,
            goodput: num_field(line, "goodput")?,
            offered: num_field(line, "offered")?,
        })
    }
}

#[derive(Default)]
struct TraceData {
    ticks: Vec<BacklogTick>,
    spans: Vec<Span>,
    windows: Vec<GoodputWindow>,
    records: usize,
    skipped: usize,
    /// Records of a kept kind that are cut short or miss (or fail to
    /// parse) a field the analysis reads; excluded from every table.
    malformed: usize,
}

/// Read every record of `path`, keeping the observatory kinds. Fails
/// closed: a kept record that is not a whole `{…}` object or lacks a
/// field the analysis reads is counted as malformed, never defaulted.
fn parse(path: &Path) -> std::io::Result<TraceData> {
    let mut data = TraceData::default();
    for line in BufReader::new(File::open(path)?).lines() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        data.records += 1;
        if num_field(&line, "schema") != Some(TELEMETRY_SCHEMA_VERSION) {
            data.skipped += 1;
            continue;
        }
        let kept = match str_field(&line, "kind") {
            Some("backlog") => BacklogTick::parse(&line).map(|t| data.ticks.push(t)),
            Some("span") => Span::parse(&line).map(|s| data.spans.push(s)),
            Some("workload_window") => GoodputWindow::parse(&line).map(|w| data.windows.push(w)),
            _ => continue,
        };
        if kept.is_none() {
            data.malformed += 1;
        }
    }
    Ok(data)
}

// ------------------------------------------------------------ analysis

/// The `p`-quantile of a per-edge depth history: `samples` holds the
/// nonzero observations, the edge was implicitly 0 on the other
/// `ticks - samples.len()` ticks.
fn percentile(sorted: &[u32], zeros: usize, p: f64) -> u32 {
    let n = zeros + sorted.len();
    if n == 0 {
        return 0;
    }
    let idx = ((n - 1) as f64 * p).round() as usize;
    if idx < zeros {
        0
    } else {
        sorted[idx - zeros]
    }
}

fn backlog_tables(ticks: &[BacklogTick]) {
    // Per-edge depth histories from the sparse (edge, depth) pairs.
    let mut by_edge: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for tick in ticks {
        for &(e, d) in &tick.depths {
            by_edge.entry(e).or_default().push(d);
        }
    }
    let mut rows: Vec<(u32, u32, u32, u32, u32)> = by_edge
        .into_iter()
        .map(|(e, mut samples)| {
            samples.sort_unstable();
            let zeros = ticks.len() - samples.len();
            (
                e,
                percentile(&samples, zeros, 0.50),
                percentile(&samples, zeros, 0.90),
                percentile(&samples, zeros, 0.99),
                *samples.last().unwrap_or(&0),
            )
        })
        .collect();
    rows.sort_by_key(|&(e, _, _, p99, max)| (std::cmp::Reverse((max, p99)), e));

    let shown = rows.len().min(10);
    let mut t = Table::new(
        format!(
            "hot edges: queue-depth percentiles over {} backlog ticks (top {shown} of {})",
            ticks.len(),
            rows.len()
        ),
        &["edge", "p50", "p90", "p99", "max"],
    );
    for &(e, p50, p90, p99, max) in rows.iter().take(shown) {
        t.row(&[
            e.to_string(),
            p50.to_string(),
            p90.to_string(),
            p99.to_string(),
            max.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn margin_table(ticks: &[BacklogTick]) {
    let certified: Vec<&BacklogTick> = ticks.iter().filter(|t| t.bound.is_some()).collect();
    if certified.is_empty() {
        println!("no certificate attached: margin series empty\n");
        return;
    }
    let stride = certified.len().div_ceil(12).max(1);
    let mut t = Table::new(
        "certificate margin: bound − max_wait (negative = certificate refuted)",
        &["time", "Q(t)", "max_wait", "bound", "margin"],
    );
    for tick in certified.iter().step_by(stride) {
        t.row(&[
            tick.time.to_string(),
            tick.total.to_string(),
            tick.max_wait.to_string(),
            tick.bound.unwrap().to_string(),
            tick.margin.map_or("—".into(), |m| m.to_string()),
        ]);
    }
    println!("{}", t.render());
    let min = certified.iter().filter_map(|t| t.margin).min();
    if let Some(min) = min {
        println!(
            "min margin {min} — certificate {}\n",
            if min >= 0 { "held" } else { "REFUTED" }
        );
    }
}

fn waterfalls(spans: &[Span]) {
    let mut by_packet: std::collections::BTreeMap<u64, Vec<&Span>> =
        std::collections::BTreeMap::new();
    for s in spans {
        by_packet.entry(s.packet).or_default().push(s);
    }
    let mut packets: Vec<(u64, Vec<&Span>)> = by_packet.into_iter().collect();
    packets.sort_by_key(|(id, spans)| (std::cmp::Reverse(spans.len()), *id));
    println!(
        "span waterfalls: {} spans across {} sampled packets; showing 3",
        spans.len(),
        packets.len()
    );
    for (id, spans) in packets.iter().take(3) {
        println!("  packet {id}:");
        for s in spans {
            let wait = if s.wait > 0 {
                format!(" wait={}", s.wait)
            } else {
                String::new()
            };
            println!(
                "    t={:<5} {:<7} edge={:<4} hop={}{wait}",
                s.time, s.op, s.edge, s.hop
            );
        }
    }
    println!();
}

fn goodput_join(windows: &[GoodputWindow], ticks: &[BacklogTick]) {
    if windows.is_empty() {
        return;
    }
    let mut t = Table::new(
        "goodput windows joined against mean Q(t) on the shared step clock",
        &["window", "offered", "goodput", "mean Q"],
    );
    for w in windows {
        let q: Vec<u64> = ticks
            .iter()
            .filter(|t| t.time >= w.start && t.time < w.end)
            .map(|t| t.total)
            .collect();
        let mean_q = if q.is_empty() {
            "—".to_string()
        } else {
            format!("{:.1}", q.iter().sum::<u64>() as f64 / q.len() as f64)
        };
        t.row(&[
            format!("[{}, {})", w.start, w.end),
            w.offered.to_string(),
            w.goodput.to_string(),
            mean_q,
        ]);
    }
    println!("{}", t.render());
}

// -------------------------------------------------------- Chrome trace

/// Write the stream as Chrome `trace_event` JSON (Perfetto-loadable).
/// One engine step = 1 µs. Each sampled packet gets its own thread
/// track of per-buffer wait slices; `Q(t)` and the certificate margin
/// become counter tracks.
fn write_chrome_trace(path: &Path, data: &TraceData) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&s);
    };

    push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"queue observatory\"}}"
            .into(),
        &mut out,
        &mut first,
    );
    for tick in &data.ticks {
        push(
            format!(
                "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"name\":\"backlog\",\
                 \"args\":{{\"Q\":{}}}}}",
                tick.time, tick.total
            ),
            &mut out,
            &mut first,
        );
        if let Some(m) = tick.margin {
            push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"name\":\"margin\",\
                     \"args\":{{\"margin\":{m}}}}}",
                    tick.time
                ),
                &mut out,
                &mut first,
            );
        }
    }
    for s in &data.spans {
        let ev = match s.op.as_str() {
            // A send closes a wait-in-buffer interval: slice
            // [t − wait, t] on the packet's track.
            "send" => format!(
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"edge {}\",\"cat\":\"wait\",\
                 \"args\":{{\"hop\":{}}}}}",
                s.packet,
                s.time.saturating_sub(s.wait),
                s.wait.max(1),
                s.edge,
                s.hop
            ),
            // Lifecycle milestones render as instant markers.
            op => format!(
                "{{\"ph\":\"i\",\"pid\":2,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{op} edge {}\",\"cat\":\"lifecycle\",\
                 \"args\":{{\"hop\":{},\"wait\":{}}}}}",
                s.packet, s.time, s.edge, s.hop, s.wait
            ),
        };
        push(ev, &mut out, &mut first);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    File::create(path)?.write_all(out.as_bytes())
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => run_demo(),
    };
    let data = parse(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    println!(
        "{}: {} records ({} backlog ticks, {} spans, {} goodput windows{})\n",
        path.display(),
        data.records,
        data.ticks.len(),
        data.spans.len(),
        data.windows.len(),
        [
            (data.skipped, "skipped on schema mismatch"),
            (data.malformed, "malformed")
        ]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, what)| format!(", {n} {what}"))
        .collect::<String>()
    );
    assert!(
        data.records > data.skipped,
        "no records at schema {TELEMETRY_SCHEMA_VERSION} in {}",
        path.display()
    );

    if !data.ticks.is_empty() {
        backlog_tables(&data.ticks);
        margin_table(&data.ticks);
    }
    if !data.spans.is_empty() {
        waterfalls(&data.spans);
    }
    goodput_join(&data.windows, &data.ticks);

    std::fs::create_dir_all("target").expect("create target/");
    let trace = PathBuf::from("target/observatory_trace.json");
    write_chrome_trace(&trace, &data).expect("write Chrome trace");
    println!(
        "Chrome trace written to {} — load it at ui.perfetto.dev (1 step = 1 µs).",
        trace.display()
    );
}
