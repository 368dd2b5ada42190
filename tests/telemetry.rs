//! Integration tests for the telemetry subsystem: window accounting
//! against the batch metrics, JSONL export shape, level gating, and
//! sweep progress event sequences.

use std::sync::{Arc, Mutex};

use aqt_graph::{topologies, Route};
use aqt_protocols::Fifo;
use aqt_sim::{
    run_sim_sweep, Engine, EngineConfig, Injection, JobOutcome, Provenance, SharedSink, SimError,
    TelemetryConfig, TelemetryCounters, TelemetryEvent, TelemetrySink, Time,
    TELEMETRY_SCHEMA_VERSION,
};

/// `(start, end, per-edge crossing deltas)` of one emitted window.
type WindowRecord = (Time, Time, Vec<u64>);

/// A sink that copies every record out through shared handles, so the
/// test can inspect what was emitted after the engine (which owns the
/// boxed sink) is done with it.
#[derive(Clone, Default)]
struct Capture {
    kinds: Arc<Mutex<Vec<&'static str>>>,
    windows: Arc<Mutex<Vec<WindowRecord>>>,
    window_counters: Arc<Mutex<Vec<TelemetryCounters>>>,
}

impl TelemetrySink for Capture {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        self.kinds.lock().unwrap().push(event.kind());
        if let TelemetryEvent::Window {
            start,
            end,
            counters,
            crossings,
            ..
        } = event
        {
            self.windows
                .lock()
                .unwrap()
                .push((*start, *end, crossings.to_vec()));
            self.window_counters.lock().unwrap().push(*counters);
        }
    }
}

/// An in-memory JSONL destination the test can read back after the
/// sink that writes into it has been boxed away.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A small non-trivial workload: packets walking the full length of
/// `line(4)`, injected every other step for `steps` steps.
fn run_line_workload(eng: &mut Engine<Fifo>, graph: &Arc<aqt_graph::Graph>, steps: Time) {
    let edges: Vec<_> = graph.edge_ids().collect();
    let route = Route::new(graph, edges).expect("full line route");
    for t in 1..=steps {
        if t % 2 == 1 {
            eng.step([Injection::new(route.clone(), 0)]).expect("step");
        } else {
            eng.step::<[Injection; 0]>([]).expect("step");
        }
    }
}

/// The acceptance identity: per-window per-edge crossings, summed over
/// every window of the run (finish emits the last partial one), equal
/// the batch `Metrics::crossings_per_edge` totals.
#[test]
fn window_crossings_sum_to_batch_totals() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    let capture = Capture::default();
    // A window that does not divide the horizon, so the final window
    // is partial and only `finish_telemetry` can close the books.
    eng.attach_telemetry(TelemetryConfig::default().with_window(7));
    eng.set_telemetry_sink(Box::new(capture.clone()));
    run_line_workload(&mut eng, &graph, 100);
    eng.finish_telemetry();

    let windows = capture.windows.lock().unwrap();
    assert!(windows.len() >= 14, "100 steps / window 7");
    // Windows partition (0, 100]: contiguous, no overlap.
    let mut prev_end = 0;
    for (start, end, _) in windows.iter() {
        assert_eq!(*start, prev_end, "windows are contiguous");
        assert!(end > start);
        prev_end = *end;
    }
    assert_eq!(prev_end, 100, "final partial window reaches the horizon");

    let mut summed = vec![0u64; graph.edge_count()];
    for (_, _, crossings) in windows.iter() {
        assert_eq!(crossings.len(), summed.len());
        for (acc, c) in summed.iter_mut().zip(crossings) {
            *acc += c;
        }
    }
    assert_eq!(
        summed,
        eng.metrics().crossings_per_edge().to_vec(),
        "window crossing deltas must sum to the batch totals"
    );
    assert!(summed.iter().sum::<u64>() > 0, "the workload moved packets");

    let kinds = capture.kinds.lock().unwrap();
    assert_eq!(kinds.first(), Some(&"run_start"));
    assert_eq!(kinds.last(), Some(&"run_end"));
}

/// Counter totals reported at `run_end` match the engine's own batch
/// metrics for the quantities both sides count.
#[test]
fn counters_match_batch_metrics() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_telemetry(TelemetryConfig::default());
    run_line_workload(&mut eng, &graph, 60);
    eng.finish_telemetry();

    let c = eng.telemetry_counters();
    assert_eq!(c.steps, 60);
    assert_eq!(c.packets_injected, eng.metrics().injected());
    assert_eq!(c.packets_absorbed, eng.metrics().absorbed());
    assert_eq!(
        c.packets_sent,
        eng.metrics().crossings_per_edge().iter().sum::<u64>()
    );
}

/// Initial-configuration seeds placed after the attach count in
/// `packets_injected`, as the batch metrics count them.
#[test]
fn seeds_count_as_injected() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_telemetry(TelemetryConfig::default());
    let route = Route::new(&graph, graph.edge_ids().collect::<Vec<_>>()).expect("full line route");
    eng.seed_cohort(route, 0, 5)
        .expect("seed before the first step");
    eng.run_quiet(3).expect("quiet steps");

    let c = eng.telemetry_counters();
    assert_eq!(eng.metrics().injected(), 5);
    assert_eq!(c.packets_injected, 5, "the seeds are injected packets");
    assert_eq!(c.steps, 3);
}

/// Counter totals carry across a snapshot restore and a checkpoint
/// restore: they continue from their pre-restore values and grow by
/// the flow after the restore, while the window baseline restarts at
/// the restored clock.
#[test]
fn counter_totals_survive_restores() {
    use aqt_sim::{checkpoint, snapshot};

    let graph = Arc::new(topologies::line(4));
    let flow = |e: &Engine<Fifo>| {
        let m = e.metrics();
        let sent: u64 = m.crossings_per_edge().iter().sum();
        (sent, m.absorbed(), m.injected())
    };
    for via_checkpoint in [false, true] {
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        let capture = Capture::default();
        eng.attach_telemetry(TelemetryConfig::default().with_window(8));
        eng.set_telemetry_sink(Box::new(capture.clone()));
        run_line_workload(&mut eng, &graph, 20);
        let snap = snapshot::capture(&eng);
        let ck = checkpoint::checkpoint(&eng);
        run_line_workload(&mut eng, &graph, 10);
        let before = eng.telemetry_counters();
        assert_eq!(before.steps, 30);

        if via_checkpoint {
            checkpoint::restore(&mut eng, &ck).expect("checkpoint restore");
        } else {
            snapshot::restore(&mut eng, &snap).expect("snapshot restore");
        }
        assert_eq!(eng.time(), 20);
        assert_eq!(eng.telemetry_counters(), before, "a restore moves no total");

        let (sent0, absorbed0, injected0) = flow(&eng);
        run_line_workload(&mut eng, &graph, 12);
        let (sent, absorbed, injected) = flow(&eng);
        let after = eng.telemetry_counters();
        assert_eq!(after.steps, before.steps + 12);
        assert_eq!(after.packets_sent, before.packets_sent + sent - sent0);
        assert_eq!(
            after.packets_absorbed,
            before.packets_absorbed + absorbed - absorbed0
        );
        assert_eq!(
            after.packets_injected,
            before.packets_injected + injected - injected0
        );
        assert!(after.packets_sent > before.packets_sent, "packets moved");

        // Windows closed at 8, 16 and 24 before the restore; the next
        // one spans (20, 28] of the restored clock.
        let windows = capture.windows.lock().unwrap();
        let (start, end, crossings) = windows.last().expect("windows emitted");
        assert_eq!(
            (*start, *end),
            (20, 28),
            "the window restarts at the restore"
        );
        let last = *capture.window_counters.lock().unwrap().last().unwrap();
        assert_eq!(last.steps, 8);
        assert_eq!(last.packets_sent, crossings.iter().sum::<u64>());
    }
}

/// `TelemetryLevel::Off` keeps every counter at zero and emits no
/// windows — the disabled path is genuinely inert.
#[test]
fn off_level_counts_nothing() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    let capture = Capture::default();
    eng.attach_telemetry(TelemetryConfig::off());
    eng.set_telemetry_sink(Box::new(capture.clone()));
    run_line_workload(&mut eng, &graph, 50);
    eng.finish_telemetry();

    assert_eq!(eng.telemetry_counters().steps, 0);
    assert_eq!(eng.telemetry_counters().packets_sent, 0);
    assert!(capture.windows.lock().unwrap().is_empty());
    assert!(eng.metrics().absorbed() > 0, "the run itself still ran");
}

/// `TelemetryLevel::Timing` populates the stage histograms: the first
/// step after the attach is measured, then every 512th.
#[test]
fn timing_level_fills_histograms() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_telemetry(TelemetryConfig::timing());
    run_line_workload(&mut eng, &graph, 1100);
    eng.finish_telemetry();

    let t = eng.telemetry().timings();
    assert_eq!(t.step.count(), 3, "steps 1, 513 and 1025 are sampled");
    assert_eq!(t.send.count(), 3);
    assert_eq!(t.receive.count(), 3);
    assert!(t.step.mean_nanos() > 0.0);
    assert!(t.step.quantile_bound(0.5).is_some());
}

/// At the default stride, timing is sampled — far fewer clock reads
/// than steps, but the histograms are still populated over a long run.
#[test]
fn timing_default_stride_samples_sparsely() {
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_telemetry(TelemetryConfig::timing());
    run_line_workload(&mut eng, &graph, 2048);
    eng.finish_telemetry();

    let t = eng.telemetry().timings();
    assert!(
        t.step.count() >= 2,
        "a 2048-step run yields several samples"
    );
    assert!(
        t.step.count() <= 8,
        "default stride 512 keeps sampling sparse, got {}",
        t.step.count()
    );
    assert_eq!(t.send.count(), t.step.count(), "substages sample together");
}

/// JSONL export: every line is schema-stamped, carries the provenance,
/// and the window lines carry the crossings array.
#[test]
fn jsonl_lines_are_complete_records() {
    let buf = SharedBuf::default();
    let graph = Arc::new(topologies::line(4));
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_telemetry(
        TelemetryConfig::default()
            .with_window(16)
            .with_provenance(Provenance {
                seed: Some(42),
                protocol: "FIFO".to_string(),
                ..Provenance::default()
            }),
    );
    eng.set_telemetry_sink(Box::new(aqt_sim::JsonlSink::from_writer(buf.clone())));
    run_line_workload(&mut eng, &graph, 40);
    eng.finish_telemetry();

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "run_start + windows + run_end");
    let stamp = format!("{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\"kind\":\"");
    for line in &lines {
        assert!(line.starts_with(&stamp), "schema-stamped: {line}");
        assert!(line.ends_with('}'), "complete object: {line}");
        assert!(line.contains("\"protocol\":\"FIFO\""), "provenance: {line}");
        assert!(line.contains("\"seed\":42"), "provenance: {line}");
    }
    assert!(lines[0].contains("\"kind\":\"run_start\""));
    assert!(lines.last().unwrap().contains("\"kind\":\"run_end\""));
    assert!(
        lines[1].contains("\"crossings\":[") && lines[1].contains("\"kind\":\"window\""),
        "window line carries the per-edge array: {}",
        lines[1]
    );
}

/// Golden pin of the closed-loop telemetry surface: the JSONL layout
/// of a `workload_window` record — schema stamp, kind, and every
/// request-ledger field name — then every other non-observatory kind
/// byte for byte:
/// `run_start`, `window` and `run_end` (with a hand-built `timings`
/// block, so count, total, mean and the p50/p99 bounds are fixed) and
/// the sweep's `job_started`, `job_finished`, `job_quarantined` and
/// `sweep_progress`. Downstream consumers key on these exact strings;
/// renaming any of them must bump `TELEMETRY_SCHEMA_VERSION` and this
/// pin deliberately.
#[test]
fn workload_window_jsonl_layout_is_pinned() {
    use aqt_sim::{StageTimings, TelemetryCounters, WorkloadCounters};

    assert_eq!(
        TELEMETRY_SCHEMA_VERSION, 8,
        "the golden lines below were pinned at version 8 (counter blocks \
         of six counters); a bump means they must be re-pinned"
    );

    let buf = SharedBuf::default();
    let mut sink = aqt_sim::JsonlSink::from_writer(buf.clone());
    let provenance = Provenance {
        seed: Some(7),
        protocol: "FIFO".to_string(),
        ..Provenance::default()
    };
    sink.record(&TelemetryEvent::WorkloadWindow {
        start: 0,
        end: 64,
        counters: WorkloadCounters {
            requests_issued: 10,
            requests_completed: 5,
            requests_abandoned: 2,
            requests_shed: 1,
            requests_in_flight: 2,
            attempts_issued: 17,
            attempts_retried: 7,
            attempts_shed: 4,
            completions_wasted: 3,
        },
        goodput: 5,
        wasted: 3,
        offered: 13,
        provenance: &provenance,
    });
    let engine_run = Provenance {
        seed: Some(7),
        schedule_hash: Some(99),
        protocol: "NTG".to_string(),
        fault_plan_id: Some(13),
        model_fingerprint: Some(11),
    };
    let counters = TelemetryCounters {
        steps: 1,
        packets_sent: 2,
        packets_absorbed: 4,
        packets_injected: 5,
        sentinel_rounds: 10,
        windows_emitted: 12,
    };
    let mut timings = StageTimings::default();
    timings.send.record(100); // bucket 6: [64, 128)
    timings.send.record(300); // bucket 8: [256, 512)
    for ns in [1, 2, 4] {
        timings.compact.record(ns); // buckets 0, 1, 2; mean 7/3
    }
    timings.step.record(1000); // bucket 9: [512, 1024)
    sink.record(&TelemetryEvent::RunStart {
        time: 0,
        provenance: &engine_run,
    });
    sink.record(&TelemetryEvent::Window {
        start: 0,
        end: 16,
        counters,
        crossings: &[3, 0, 5],
        provenance: &engine_run,
    });
    sink.record(&TelemetryEvent::RunEnd {
        time: 16,
        counters,
        timings: &timings,
        provenance: &engine_run,
    });
    sink.record(&TelemetryEvent::JobStarted { index: 0, total: 3 });
    sink.record(&TelemetryEvent::JobFinished {
        index: 0,
        secs: 1.25,
    });
    sink.record(&TelemetryEvent::JobQuarantined { index: 1 });
    sink.record(&TelemetryEvent::SweepProgress {
        done: 2,
        total: 3,
        elapsed_secs: 2.5,
        eta_secs: 1.25,
    });

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8);

    // The full workload_window line, byte for byte (absent provenance
    // fields serialize as explicit nulls).
    assert_eq!(
        lines[0],
        "{\"schema\":8,\"kind\":\"workload_window\",\"start\":0,\"end\":64,\
         \"requests_issued\":10,\"requests_completed\":5,\
         \"requests_abandoned\":2,\"requests_shed\":1,\
         \"requests_in_flight\":2,\"attempts_issued\":17,\
         \"attempts_retried\":7,\"attempts_shed\":4,\
         \"completions_wasted\":3,\"goodput\":5,\"wasted\":3,\
         \"offered\":13,\"seed\":7,\"schedule_hash\":null,\
         \"protocol\":\"FIFO\",\"fault_plan_id\":null,\
         \"model_fingerprint\":null}"
    );
    assert_eq!(
        lines[1],
        "{\"schema\":8,\"kind\":\"run_start\",\"time\":0,\
         \"seed\":7,\"schedule_hash\":99,\"protocol\":\"NTG\",\
         \"fault_plan_id\":13,\"model_fingerprint\":11}"
    );
    assert_eq!(
        lines[2],
        "{\"schema\":8,\"kind\":\"window\",\"start\":0,\"end\":16,\
         \"steps\":1,\"packets_sent\":2,\"packets_absorbed\":4,\
         \"packets_injected\":5,\"sentinel_rounds\":10,\"windows_emitted\":12,\
         \"crossings\":[3,0,5],\
         \"seed\":7,\"schedule_hash\":99,\"protocol\":\"NTG\",\
         \"fault_plan_id\":13,\"model_fingerprint\":11}"
    );
    assert_eq!(
        lines[3],
        "{\"schema\":8,\"kind\":\"run_end\",\"time\":16,\
         \"steps\":1,\"packets_sent\":2,\"packets_absorbed\":4,\
         \"packets_injected\":5,\"sentinel_rounds\":10,\"windows_emitted\":12,\
         \"timings\":{\
         \"send\":{\"count\":2,\"total_ns\":400,\"mean_ns\":200.0,\
         \"p50_ns_le\":128,\"p99_ns_le\":512},\
         \"compact\":{\"count\":3,\"total_ns\":7,\"mean_ns\":2.3,\
         \"p50_ns_le\":4,\"p99_ns_le\":8},\
         \"receive\":{\"count\":0,\"total_ns\":0,\"mean_ns\":0.0,\
         \"p50_ns_le\":0,\"p99_ns_le\":0},\
         \"inject\":{\"count\":0,\"total_ns\":0,\"mean_ns\":0.0,\
         \"p50_ns_le\":0,\"p99_ns_le\":0},\
         \"oracle\":{\"count\":0,\"total_ns\":0,\"mean_ns\":0.0,\
         \"p50_ns_le\":0,\"p99_ns_le\":0},\
         \"sentinel\":{\"count\":0,\"total_ns\":0,\"mean_ns\":0.0,\
         \"p50_ns_le\":0,\"p99_ns_le\":0},\
         \"step\":{\"count\":1,\"total_ns\":1000,\"mean_ns\":1000.0,\
         \"p50_ns_le\":1024,\"p99_ns_le\":1024}},\
         \"seed\":7,\"schedule_hash\":99,\"protocol\":\"NTG\",\
         \"fault_plan_id\":13,\"model_fingerprint\":11}"
    );
    assert_eq!(
        lines[4],
        "{\"schema\":8,\"kind\":\"job_started\",\"index\":0,\"total\":3}"
    );
    assert_eq!(
        lines[5],
        "{\"schema\":8,\"kind\":\"job_finished\",\"index\":0,\
         \"secs\":1.250}"
    );
    assert_eq!(
        lines[6],
        "{\"schema\":8,\"kind\":\"job_quarantined\",\"index\":1}"
    );
    assert_eq!(
        lines[7],
        "{\"schema\":8,\"kind\":\"sweep_progress\",\"done\":2,\"total\":3,\
         \"elapsed_secs\":2.500,\"eta_secs\":1.250}"
    );
}

/// Golden pin of the observatory's JSONL surface (schema 7): the full
/// `backlog` record — tick scalars, nullable bound/margin, the sparse
/// per-edge depth array — and a `span` record.
/// The offline analyzer (`examples/observatory.rs`) keys on these
/// exact field names; renaming any of them must bump
/// `TELEMETRY_SCHEMA_VERSION` and this pin deliberately.
#[test]
fn observatory_jsonl_layout_is_pinned() {
    use aqt_sim::SpanKind;

    let buf = SharedBuf::default();
    let mut sink = aqt_sim::JsonlSink::from_writer(buf.clone());
    let provenance = Provenance {
        seed: Some(7),
        protocol: "FIFO".to_string(),
        ..Provenance::default()
    };
    sink.record(&TelemetryEvent::Backlog {
        time: 256,
        total: 40,
        max_queue: 9,
        max_wait: 3,
        bound: Some(12),
        margin: Some(9),
        depths: &[(0, 5), (3, 2)],
        provenance: &provenance,
    });
    sink.record(&TelemetryEvent::Backlog {
        time: 512,
        total: 0,
        max_queue: 9,
        max_wait: 3,
        bound: None,
        margin: None,
        depths: &[],
        provenance: &provenance,
    });
    sink.record(&TelemetryEvent::Span {
        time: 300,
        packet: 64,
        op: SpanKind::Send,
        edge: 3,
        hop: 1,
        wait: 2,
        provenance: &provenance,
    });

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(
        lines[0],
        "{\"schema\":8,\"kind\":\"backlog\",\"time\":256,\"total\":40,\
         \"max_queue\":9,\"max_wait\":3,\"bound\":12,\"margin\":9,\
         \"depths\":[[0,5],[3,2]],\
         \"seed\":7,\"schedule_hash\":null,\"protocol\":\"FIFO\",\
         \"fault_plan_id\":null,\"model_fingerprint\":null}"
    );
    assert_eq!(
        lines[1],
        "{\"schema\":8,\"kind\":\"backlog\",\"time\":512,\"total\":0,\
         \"max_queue\":9,\"max_wait\":3,\"bound\":null,\"margin\":null,\
         \"depths\":[],\"seed\":7,\
         \"schedule_hash\":null,\"protocol\":\"FIFO\",\
         \"fault_plan_id\":null,\"model_fingerprint\":null}"
    );
    assert_eq!(
        lines[2],
        "{\"schema\":8,\"kind\":\"span\",\"time\":300,\"packet\":64,\
         \"op\":\"send\",\"edge\":3,\"hop\":1,\"wait\":2,\
         \"seed\":7,\"schedule_hash\":null,\"protocol\":\"FIFO\",\
         \"fault_plan_id\":null,\"model_fingerprint\":null}"
    );
}

/// Sweep progress: every job starts and finishes, and the
/// `sweep_progress` line follows each one.
#[test]
fn sweep_progress_reports_every_job() {
    let capture = Capture::default();
    let progress = SharedSink::new(capture.clone());
    let report = run_sim_sweep(vec![10u64, 20, 30], 1, Some(&progress), |_, &x| Ok(x * 2));
    assert_eq!(report.results().count(), 3);

    let kinds = capture.kinds.lock().unwrap();
    let count = |k: &str| kinds.iter().filter(|s| **s == k).count();
    assert_eq!(count("job_started"), 3);
    assert_eq!(count("job_finished"), 3);
    assert_eq!(count("job_quarantined"), 0);
    assert_eq!(count("sweep_progress"), 3, "one progress line per job");
}

/// A deterministic `SimError` quarantines through the sim sweep and
/// emits `job_quarantined`.
#[test]
fn sim_sweep_quarantine_is_reported() {
    let capture = Capture::default();
    let progress = SharedSink::new(capture.clone());
    let report = run_sim_sweep(vec![1u64, 2], 1, Some(&progress), |_, &x| {
        if x == 2 {
            Err(SimError::Checkpoint("synthetic failure".into()))
        } else {
            Ok(x)
        }
    });
    assert_eq!(report.results().count(), 1);
    let quarantined = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Quarantined(_)))
        .count();
    assert_eq!(quarantined, 1);

    let kinds = capture.kinds.lock().unwrap();
    assert_eq!(kinds.iter().filter(|s| **s == "job_quarantined").count(), 1);
}

/// A job settles once: each emits `job_started`, then exactly one of
/// `job_finished` or `job_quarantined`, then its `sweep_progress`
/// line, whether it returns, panics or returns `Err`. The whole
/// sequence of a 3-job sweep on one thread, byte for byte, with the
/// wall-clock fields zeroed.
#[test]
fn sweep_settles_each_job_once() {
    struct Lines(Arc<Mutex<Vec<String>>>);
    impl TelemetrySink for Lines {
        fn record(&mut self, event: &TelemetryEvent<'_>) {
            let event = match *event {
                TelemetryEvent::JobFinished { index, .. } => {
                    TelemetryEvent::JobFinished { index, secs: 0.0 }
                }
                TelemetryEvent::SweepProgress { done, total, .. } => {
                    TelemetryEvent::SweepProgress {
                        done,
                        total,
                        elapsed_secs: 0.0,
                        eta_secs: 0.0,
                    }
                }
                ref other => other.clone(),
            };
            let mut line = String::new();
            event.write_jsonl(&mut line);
            self.0.lock().unwrap().push(line.trim_end().to_string());
        }
    }
    let lines = Arc::new(Mutex::new(Vec::new()));
    let progress = SharedSink::new(Lines(Arc::clone(&lines)));
    let report = run_sim_sweep(vec![0u8, 1, 2], 1, Some(&progress), |_, &x| match x {
        1 => panic!("deliberate panic"),
        2 => Err(SimError::Checkpoint("synthetic failure".into())),
        _ => Ok(x),
    });
    assert_eq!(report.results().count(), 1);
    assert_eq!(report.quarantined().len(), 2);

    let progress_line = |done: usize| {
        format!(
            "{{\"schema\":8,\"kind\":\"sweep_progress\",\"done\":{done},\"total\":3,\
             \"elapsed_secs\":0.000,\"eta_secs\":0.000}}"
        )
    };
    let started =
        |i: usize| format!("{{\"schema\":8,\"kind\":\"job_started\",\"index\":{i},\"total\":3}}");
    assert_eq!(
        *lines.lock().unwrap(),
        [
            started(0),
            "{\"schema\":8,\"kind\":\"job_finished\",\"index\":0,\"secs\":0.000}".into(),
            progress_line(1),
            started(1),
            "{\"schema\":8,\"kind\":\"job_quarantined\",\"index\":1}".into(),
            progress_line(2),
            started(2),
            "{\"schema\":8,\"kind\":\"job_quarantined\",\"index\":2}".into(),
            progress_line(3),
        ]
    );
}

/// Whole-stream pin of one small engine run with every probe attached:
/// sentinel (cadence 16, halting on any violation), oracle every 4
/// steps, `Counters` telemetry with a 16-step window, and the
/// observatory ticking every 8 steps with 1-in-1 spans, over a seeded
/// cohort, scheduled injections and a drop plus a duplicate fault.
/// The JSONL bytes — how `span`, `backlog` and `window` records
/// interleave within and across steps — are pinned by line count,
/// per-kind counts and an FNV-1a hash, so any change to the order in
/// which the probes fire shows up here.
#[test]
fn engine_stream_is_pinned() {
    use aqt_graph::EdgeId;
    use aqt_sim::{FaultPlan, JsonlSink, ObserveConfig, SentinelConfig};

    let g = Arc::new(topologies::ring(6));
    let route = |start: u32, len: u32| {
        let ids: Vec<EdgeId> = (0..len).map(|k| EdgeId((start + k) % 6)).collect();
        Route::new(&g, ids).expect("contiguous ring edges")
    };
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.attach_sentinel(SentinelConfig::default().with_cadence(16).with_seed(5));
    eng.attach_oracle(Box::new(Fifo), 4);
    eng.install_faults(
        FaultPlan::new()
            .with_drop(EdgeId(1), 3)
            .with_duplicate(EdgeId(2), 5),
    )
    .unwrap();
    eng.attach_telemetry(
        TelemetryConfig::default()
            .with_window(16)
            .with_provenance(Provenance {
                seed: Some(5),
                protocol: "FIFO".to_string(),
                ..Provenance::default()
            }),
    );
    eng.attach_observatory(
        ObserveConfig::default()
            .with_cadence(8)
            .with_span_sample_every(1),
    );
    let buf = SharedBuf::default();
    eng.set_telemetry_sink(Box::new(JsonlSink::from_writer(buf.clone())));
    eng.seed_cohort(route(0, 4), 1, 5).unwrap();
    for t in 1..=64u32 {
        let injections: Vec<Injection> = match t % 5 {
            0 => vec![Injection::cohort(route(t % 6, 3), 2, 2)],
            2 => vec![Injection::new(route((t + 3) % 6, 2), 3)],
            _ => Vec::new(),
        };
        eng.step(injections).expect("step");
    }
    eng.finish_telemetry();

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes.clone()).expect("utf8");
    let kinds: Vec<&str> = text
        .lines()
        .map(|l| {
            let rest = l.split("\"kind\":\"").nth(1).expect("kind field");
            rest.split('"').next().unwrap()
        })
        .collect();
    let count = |k: &str| kinds.iter().filter(|s| **s == k).count();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (
            kinds.len(),
            count("run_start"),
            count("span"),
            count("backlog"),
            count("window"),
            count("run_end"),
        ),
        (292, 1, 278, 8, 4, 1),
        "record counts"
    );
    assert!(text.contains("\"op\":\"drop\""), "the drop fault fired");
    assert!(text.contains("\"op\":\"dup\""), "the duplicate fault fired");
    assert_eq!(hash, 0x23c0_0b75_f822_29ec, "stream hash");
}
