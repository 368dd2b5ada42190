//! The probes watching a run — the sentinel ([`crate::sentinel`]),
//! telemetry ([`crate::telemetry`]) and the observatory
//! ([`crate::observe`]) — behind one schedule. With the
//! [`crate::EngineConfig::sample_every`] backlog series they share one
//! gate, [`Probes::next_due`]: the earliest step at whose end a backlog
//! sample, sentinel round, observatory tick or telemetry window is due,
//! or the step before the next timing sample (whose flag must be
//! armed). [`Engine::step`] compares against it once; only then does
//! the cold runner look at the individual schedules. Everything that
//! moves a schedule — an attach, a restore, a cadence change — ends in
//! [`Engine::reschedule`].

use crate::engine::{Engine, EngineError};
use crate::metrics::BacklogSample;
use crate::observe::{Observe, ObserveConfig};
use crate::oracle::ReferenceModel;
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::sentinel::{
    self, InvariantKind, ReproBundle, Sentinel, SentinelConfig, SentinelState, Violation,
    ViolationReport,
};
use crate::telemetry::{
    Telemetry, TelemetryConfig, TelemetryCounters, TelemetryEvent, TelemetrySink,
    TIMING_SAMPLE_EVERY,
};

/// The engine's probes and their shared schedule.
pub(crate) struct Probes {
    /// Earliest step at whose end some probe is due (`Time::MAX` when
    /// nothing is attached and sampling is off): the only schedule
    /// compare on the step's hot path.
    pub(crate) next_due: Time,
    /// Attached runtime invariant sentinel, if any.
    pub(crate) sentinel: Option<Sentinel>,
    /// Telemetry state (disabled by default).
    pub(crate) telemetry: Telemetry,
    /// The queue observatory (detached by default).
    pub(crate) observe: Observe,
}

impl Probes {
    /// Nothing attached; [`Engine::reschedule`] fills in `next_due`.
    pub(crate) fn detached() -> Self {
        Probes {
            next_due: Time::MAX,
            sentinel: None,
            telemetry: Telemetry::disabled(),
            observe: Observe::disabled(),
        }
    }
}

impl<P: Protocol> Engine<P> {
    /// Attach a runtime invariant sentinel. The check baseline (the
    /// unit-speed crossing counters) is taken from the engine's current
    /// state, so attaching mid-run is legal.
    pub fn attach_sentinel(&mut self, cfg: SentinelConfig) {
        self.probes.sentinel = Some(Sentinel::new(
            cfg,
            self.time,
            &self.metrics.crossings_per_edge,
        ));
        self.reschedule();
    }

    /// The attached sentinel, if any.
    pub fn sentinel(&self) -> Option<&Sentinel> {
        self.probes.sentinel.as_ref()
    }

    /// Attach (or reconfigure) telemetry. Counters restart at zero and
    /// the counter and window baselines are taken from the engine's
    /// current state, so attaching mid-run is legal — counters and
    /// window records then cover only what happens after the attach.
    /// When the config leaves `provenance.fault_plan_id` unset and a
    /// fault plan is installed, the plan's
    /// [`crate::FaultPlan::plan_id`] is filled in automatically.
    pub fn attach_telemetry(&mut self, mut cfg: TelemetryConfig) {
        if cfg.provenance.fault_plan_id.is_none() {
            cfg.provenance.fault_plan_id = self.faults.as_ref().map(|f| f.plan_id());
        }
        if cfg.provenance.model_fingerprint.is_none() {
            cfg.provenance.model_fingerprint = self.model.as_ref().map(|m| m.spec().fingerprint());
        }
        self.probes
            .telemetry
            .configure(cfg, self.time, &self.metrics);
        self.reschedule();
    }

    /// Attach a telemetry sink; emits a [`TelemetryEvent::RunStart`]
    /// immediately. Call after [`Engine::attach_telemetry`] so the
    /// announced provenance is the configured one.
    pub fn set_telemetry_sink(&mut self, mut sink: Box<dyn TelemetrySink>) {
        let tel = &mut self.probes.telemetry;
        sink.record(&TelemetryEvent::RunStart {
            time: self.time,
            provenance: &tel.provenance,
        });
        tel.sink = Some(sink);
    }

    /// The telemetry state: level, timing histograms, provenance.
    pub fn telemetry(&self) -> &Telemetry {
        &self.probes.telemetry
    }

    /// The telemetry counter totals since the attach (all zero below
    /// [`crate::TelemetryLevel::Counters`]). Steps and packets are
    /// read off the clock and [`crate::Metrics`], so they include
    /// initial-configuration seeds placed after the attach and a step
    /// that ended in an error; they carry across snapshot and
    /// checkpoint restores.
    pub fn telemetry_counters(&self) -> TelemetryCounters {
        self.probes.telemetry.totals(self.time, &self.metrics)
    }

    /// Attach (or reconfigure) the queue observatory: fixed-cadence
    /// backlog ticks and deterministic 1-in-N packet-lifecycle span
    /// sampling. All preallocation happens here; the step loop stays
    /// heap-free. When a sentinel with an enforceable
    /// [`crate::CertificateSpec`] is attached, the ticks also track the
    /// margin to its theorem bound — attach the sentinel first. Records
    /// and spans reach the sink attached via
    /// [`Engine::set_telemetry_sink`].
    pub fn attach_observatory(&mut self, cfg: ObserveConfig) {
        let bound = self
            .probes
            .sentinel
            .as_ref()
            .and_then(|s| s.config().certificate_spec)
            .and_then(|spec| spec.bound());
        self.probes
            .observe
            .configure(cfg, self.time, self.graph.edge_count(), bound);
        self.reschedule();
    }

    /// The observatory state: tick count, smallest margin and span
    /// tallies.
    pub fn observatory(&self) -> &Observe {
        &self.probes.observe
    }

    /// Close out telemetry for the run: emit the final partial window
    /// (if any steps ran since the last window boundary) and a
    /// [`TelemetryEvent::RunEnd`] unless the level is off, then flush
    /// the sink (at every level: an observatory-only run's records
    /// reach the writer here). Call once when the run is over. The
    /// per-window crossing records plus this final partial window sum
    /// exactly to [`crate::Metrics::crossings_per_edge`] when telemetry
    /// was attached before the first step.
    pub fn finish_telemetry(&mut self) {
        self.probes.telemetry.finish(self.time, &self.metrics);
    }

    /// Checkpoint support (crate-only): the sentinel's dynamic state.
    pub(crate) fn sentinel_state(&self) -> Option<&SentinelState> {
        self.probes.sentinel.as_ref().map(|s| s.state())
    }

    /// Checkpoint support (crate-only): restore a checkpointed sentinel
    /// state (the caller has already verified a sentinel is attached).
    pub(crate) fn restore_sentinel_state(&mut self, state: SentinelState) {
        if let Some(s) = self.probes.sentinel.as_mut() {
            s.set_state(state);
        }
        self.reschedule();
    }

    /// Recompute [`Probes::next_due`] from the probes' state at the
    /// current clock, and arm the timing-sample flag for the next step.
    /// Idempotent; called by every attach, restore and cadence change,
    /// and at the end of every step that reached the gate.
    pub(crate) fn reschedule(&mut self) {
        let now = self.time;
        let every = self.cfg.sample_every;
        let sample = now
            .checked_div(every)
            .map_or(Time::MAX, |k| (k + 1).saturating_mul(every));
        let sentinel = match &self.probes.sentinel {
            Some(s) if s.config().cadence > 0 => {
                s.state().last_check.saturating_add(s.config().cadence)
            }
            _ => Time::MAX,
        };
        let tel = &mut self.probes.telemetry;
        // `timing_next` is never behind the next step, so the flag is
        // set exactly when the next step is the sample; the runner must
        // then look again at that step's end, otherwise at the end of
        // the step before the sample.
        tel.timing_this_step = now.saturating_add(1) >= tel.timing_next;
        let timing = match tel.timing_next {
            Time::MAX => Time::MAX,
            next if tel.timing_this_step => next,
            next => next - 1,
        };
        self.probes.next_due = sample
            .min(sentinel)
            .min(timing)
            .min(tel.window_end())
            .min(self.probes.observe.next);
    }

    /// Fold the telemetry flow so far into its totals. The restore
    /// path calls this before it replaces the clock and metrics;
    /// [`Engine::restart_probes`] then rebaselines the flow, so counter
    /// totals carry across a restore.
    pub(crate) fn fold_telemetry(&mut self) {
        let tel = &mut self.probes.telemetry;
        tel.counters = tel.totals(self.time, &self.metrics);
    }

    /// Re-anchor every probe at the engine's current clock and crossing
    /// totals, then reschedule. A snapshot or checkpoint restore moves
    /// both discontinuously: the sentinel's interval checks, the
    /// telemetry window and the observatory's tick cadence restart
    /// here (a checkpointed sentinel state, reinstated afterwards,
    /// overrides the sentinel's part).
    pub(crate) fn restart_probes(&mut self) {
        let now = self.time;
        let crossings = &self.metrics.crossings_per_edge;
        if let Some(s) = self.probes.sentinel.as_mut() {
            s.state.last_check = now;
            s.state.crossings_at_last_check.clear();
            s.state.crossings_at_last_check.extend_from_slice(crossings);
        }
        self.probes.telemetry.rebaseline(now, &self.metrics);
        self.probes.observe.restart(now);
        self.reschedule();
    }

    /// End-of-step bookkeeping behind the telemetry and observatory
    /// flags: the sampled step's clock (`step_t0`), the span flush.
    #[inline]
    pub(crate) fn end_step(&mut self, step_t0: Option<std::time::Instant>) {
        if let Some(t0) = step_t0 {
            self.probes
                .telemetry
                .timings
                .step
                .record_duration(t0.elapsed());
        }
        if self.probes.observe.spans_on && !self.probes.observe.span_scratch.is_empty() {
            self.flush_spans();
        }
    }

    /// The end of a step that reached [`Probes::next_due`]: run what is
    /// due, in model order — backlog sample, sentinel round (a halt
    /// returns before the step's timing sample and span flush), the
    /// end-of-step bookkeeping, observatory tick, telemetry window —
    /// then advance the timing sampler and reschedule.
    #[cold]
    #[inline(never)]
    pub(crate) fn run_due_probes(
        &mut self,
        t: Time,
        step_t0: Option<std::time::Instant>,
    ) -> Result<(), EngineError> {
        let every = self.cfg.sample_every;
        if every > 0 && t.is_multiple_of(every) {
            // max_len scans the active set; every nonempty buffer is
            // active, so this equals the max over all buffers.
            let max_queue = self.buffers.max_len();
            self.metrics.series.push(BacklogSample {
                time: t,
                backlog: self.metrics.backlog(),
                max_queue,
            });
        }
        if self.probes.sentinel.as_ref().is_some_and(|s| s.due(t)) {
            self.run_sentinel_checks(t)?;
        }
        self.end_step(step_t0);
        if t >= self.probes.observe.next {
            self.observe_tick(t);
        }
        let tel = &mut self.probes.telemetry;
        if t >= tel.window_end() {
            tel.emit_window(t, &self.metrics);
        }
        if tel.timing_this_step {
            tel.timing_next = t.saturating_add(TIMING_SAMPLE_EVERY);
        }
        self.reschedule();
        Ok(())
    }

    /// Flush the step's staged observatory spans through the telemetry
    /// sink. The scratch is cleared either way, so a sink attached
    /// mid-run starts clean.
    fn flush_spans(&mut self) {
        let Probes {
            telemetry, observe, ..
        } = &mut self.probes;
        if let Some(sink) = telemetry.sink.as_mut() {
            for rec in &observe.span_scratch {
                sink.record(&TelemetryEvent::Span {
                    time: rec.time,
                    packet: rec.packet,
                    op: rec.op,
                    edge: rec.edge,
                    hop: rec.hop,
                    wait: rec.wait,
                    provenance: &telemetry.provenance,
                });
            }
            observe.spans_emitted += observe.span_scratch.len() as u64;
        }
        observe.span_scratch.clear();
    }

    /// One observatory backlog tick: record the certificate margin,
    /// then capture total-Q(t), the running queue/wait peaks, and
    /// (within the edge cap) the sparse per-edge depths into the
    /// `backlog` record.
    fn observe_tick(&mut self, t: Time) {
        let max_wait = self.metrics.max_buffer_wait;
        let Probes {
            telemetry, observe, ..
        } = &mut self.probes;
        let margin = observe.record_tick(t, max_wait);
        let Some(sink) = telemetry.sink.as_mut() else {
            return;
        };
        observe.depth_scratch.clear();
        if observe.track_depths {
            for ei in 0..self.buffers.edge_count() {
                let depth = self.buffers.len(ei);
                if depth > 0 {
                    observe.depth_scratch.push((ei as u32, depth as u32));
                }
            }
        }
        sink.record(&TelemetryEvent::Backlog {
            time: t,
            total: self.metrics.backlog(),
            max_queue: self.metrics.max_queue(),
            max_wait,
            bound: observe.bound(),
            margin,
            depths: &observe.depth_scratch,
            provenance: &telemetry.provenance,
        });
    }

    /// One sentinel check round. Cheap O(E) checks run every round;
    /// the O(backlog) per-packet checks and the snapshot round trip
    /// run at their configured strides.
    fn run_sentinel_checks(&mut self, t: Time) -> Result<(), EngineError> {
        let round_t0 = self
            .probes
            .telemetry
            .timing_this_step
            .then(std::time::Instant::now);
        self.probes.telemetry.counters.sentinel_rounds += 1;
        let (deep, roundtrip, unit_detail, cert) = {
            let s = self.probes.sentinel.as_ref().expect("gated by the runner");
            let elapsed = t.saturating_sub(s.state().last_check);
            (
                s.deep_due(t),
                s.roundtrip_due(t),
                sentinel::unit_speed_violation(
                    &s.state().crossings_at_last_check,
                    &self.metrics.crossings_per_edge,
                    elapsed,
                ),
                s.config().certificate_spec,
            )
        };

        // Conservation: recount the live packets from the buffers —
        // never trust the cached backlog to audit itself.
        let live: u64 = (0..self.buffers.edge_count())
            .map(|ei| self.buffers.len(ei) as u64)
            .sum();
        if let Some(detail) = sentinel::conservation_violation(&self.metrics, live) {
            return Err(self.raise(InvariantKind::Conservation, t, detail));
        }
        if let Some(detail) = unit_detail {
            return Err(self.raise(InvariantKind::UnitSpeed, t, detail));
        }

        if let Some(bound) = cert.and_then(|spec| spec.bound()) {
            if self.metrics.max_buffer_wait > bound {
                let detail = format!(
                    "observed buffer wait {} exceeds the theorem bound {}",
                    self.metrics.max_buffer_wait, bound
                );
                return Err(self.raise(InvariantKind::Certificate, t, detail));
            }
            if deep {
                // In-buffer waits: a packet already queued longer than
                // the bound can only exceed it further when sent.
                let routes = &self.routes;
                let overdue = self.buffers.packets().find_map(|p| {
                    let waited = t.saturating_sub(p.arrived_at);
                    (waited > bound).then(|| {
                        format!(
                            "packet {:?} has waited {waited} steps at edge {:?} \
                             (theorem bound {bound})",
                            p.id,
                            routes.get(p.route)[p.hop as usize]
                        )
                    })
                });
                if let Some(detail) = overdue {
                    return Err(self.raise(InvariantKind::Certificate, t, detail));
                }
            }
        }

        if deep {
            if let Some(detail) = self.route_progress_violation(t) {
                return Err(self.raise(InvariantKind::RouteProgress, t, detail));
            }
        }

        if roundtrip {
            let snap = crate::snapshot::capture(self);
            if let Err(detail) = crate::snapshot::validate_payload(&snap, self.graph.edge_count()) {
                return Err(self.raise(InvariantKind::SnapshotRoundTrip, t, detail));
            } else if ReferenceModel::from_snapshot(&snap).to_snapshot() != snap {
                return Err(self.raise(
                    InvariantKind::SnapshotRoundTrip,
                    t,
                    "snapshot does not survive a reference-model round trip".into(),
                ));
            }
        }

        let crossings = &self.metrics.crossings_per_edge;
        let s = self.probes.sentinel.as_mut().expect("gated by the runner");
        s.state.last_check = t;
        // Copy in place: reallocating O(E) every round is measurable
        // on nanosecond-scale steps.
        s.state.crossings_at_last_check.clear();
        s.state.crossings_at_last_check.extend_from_slice(crossings);
        s.state.checks_run += 1;
        if let Some(t0) = round_t0 {
            self.probes
                .telemetry
                .timings
                .sentinel
                .record_duration(t0.elapsed());
        }
        Ok(())
    }

    /// First route-progress violation among the queued packets:
    /// resolvable route id with consistent interned contents, in-range
    /// hop, packet stored at its current route edge, coherent
    /// timestamps, id below the allocation watermark. Also re-verifies
    /// the route table itself: interning is trusted on the hot path, so
    /// the deep cadence is where a corrupted intern (duplicate entries,
    /// a mis-filed hash chain) would surface.
    fn route_progress_violation(&self, t: Time) -> Option<String> {
        if let Err(detail) = self.routes.verify_integrity() {
            return Some(format!("route table corrupt: {detail}"));
        }
        for ei in 0..self.buffers.edge_count() {
            for p in self.buffers.iter(ei) {
                let Some(route) = self.routes.try_get(p.route) else {
                    return Some(format!(
                        "packet {:?} references unknown route id {:?}",
                        p.id, p.route
                    ));
                };
                if p.route_len as usize != route.len() {
                    return Some(format!(
                        "packet {:?} claims route length {} but its interned route has {} edges",
                        p.id,
                        p.route_len,
                        route.len()
                    ));
                }
                if p.hop as usize >= route.len() {
                    return Some(format!(
                        "packet {:?} has hop {} on a route of length {}",
                        p.id,
                        p.hop,
                        route.len()
                    ));
                }
                if route[p.hop as usize].index() != ei {
                    return Some(format!(
                        "packet {:?} is queued at edge {ei} but its route edge is {:?}",
                        p.id, route[p.hop as usize]
                    ));
                }
                if p.arrived_at > t || p.injected_at > p.arrived_at {
                    return Some(format!(
                        "packet {:?} has incoherent timestamps (injected {}, arrived {}, now {t})",
                        p.id, p.injected_at, p.arrived_at
                    ));
                }
                if p.id.0 >= self.next_id {
                    return Some(format!(
                        "packet {:?} is at or above the id watermark {}",
                        p.id, self.next_id
                    ));
                }
            }
        }
        None
    }

    /// The error that halts the run on a violation of `kind` observed
    /// at `t`, with its reproduction bundle.
    pub(crate) fn raise(&self, kind: InvariantKind, t: Time, detail: String) -> EngineError {
        EngineError::Invariant(Box::new(ViolationReport {
            violation: Violation {
                kind,
                time: t,
                detail,
            },
            bundle: self.repro_bundle(t),
        }))
    }

    /// The minimal reproduction bundle for a violation observed at `t`.
    fn repro_bundle(&self, t: Time) -> ReproBundle {
        ReproBundle {
            seed: self.probes.sentinel.as_ref().and_then(|s| s.config().seed),
            step: t,
            snapshot: crate::snapshot::capture(self),
            fault_plan: self.faults.clone(),
            backlog: self.metrics.series.clone(),
        }
    }
}
