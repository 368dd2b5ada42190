//! **Theorem 3.17** — FIFO is unstable at every rate `r = 1/2 + ε` —
//! as an executable, self-validating construction.
//!
//! For a given `ε` this driver:
//!
//! 1. derives `(r, n, S₀)` via [`GadgetParams`] and the chain length
//!    `M` (`r³(1+ε)^{M-1}/4 > margin`);
//! 2. builds `G_ε = F_n^M + e_0` and seeds `S*` unit-route packets at
//!    the ingress of `F(1)` (the theorem's initial configuration);
//! 3. per iteration, composes and replays the adversaries of
//!    Lemma 3.15 (bootstrap), Lemma 3.6 × (M−1) (the chain walk of
//!    Lemma 3.13), a quiet drain, and Lemma 3.16 (stitch) — exactly the
//!    three steps of the theorem's iterative construction;
//! 4. measures the queue of fresh packets after each stitch. Growth
//!    across iterations is the theorem's conclusion.
//!
//! Everything runs under the engine's **exact rate-r validator**
//! (including the effective adversary `A'` induced by the Lemma 3.3
//! reroutes, and the lemma's historic/common-edge/new-edge
//! preconditions), so the run certifies both halves of the claim: the
//! adversary is legal, and the backlog diverges.
//!
//! ## Floors, ceilings, and the safety factor
//!
//! The paper ignores floors/ceilings and notes the discrepancy "would
//! add only additive terms that can be compensated for by using a
//! larger S₀ value". This driver is exact, so those additive terms are
//! real; `InstabilityConfig::s0_safety` (default 3×) is that larger
//! `S₀`. The per-gadget amplification is *measured* and reported
//! against the ideal `2(1 − R_n) ≥ 1 + ε`.

use std::sync::Arc;

use aqt_adversary::{lemma315, lemma316, lemma36, GadgetParams};
use aqt_graph::{GEpsilon, Route};
use aqt_protocols::Fifo;
use aqt_sim::metrics::BacklogSample;
use aqt_sim::{
    checkpoint, AdversaryModelSpec, Engine, EngineConfig, EngineError, Schedule, SimError, Time,
};

use crate::verify::{check_c_invariant, CInvariantReport};

/// Configuration of the construction.
#[derive(Debug, Clone)]
pub struct InstabilityConfig {
    /// `ε` numerator.
    pub eps_num: u64,
    /// `ε` denominator.
    pub eps_den: u64,
    /// Multiplier on the paper's `S₀` absorbing floor/ceiling slop.
    pub s0_safety: f64,
    /// Margin for the growth condition `r³(1+ε)^{M-1}/4 > margin`.
    pub m_margin: f64,
    /// Override the chain length `M` (None = derive from `m_margin`).
    pub m_override: Option<usize>,
    /// Closed-loop iterations to run.
    pub iterations: usize,
    /// Run with exact rate validation and Lemma 3.3 precondition
    /// checks (recommended; costs ~10%).
    pub validate: bool,
    /// Record every adversary operation for later replay (experiment
    /// E10). Off by default — at large scale the record holds tens of
    /// millions of operations.
    pub record_ops: bool,
    /// Inter-stage boundary settling (see the module docs on floors
    /// and ceilings). On by default; the ablation experiment E12 turns
    /// it off to demonstrate the compounding-lag effect.
    pub settle: bool,
    /// Backlog sampling interval (0 = auto: ~1000 samples).
    pub sample_every: Time,
    /// Divergence watchdog: stop (with a structured report) once the
    /// backlog exceeds this ceiling. `None` = unbounded. For a
    /// construction whose *purpose* is divergence, the ceiling is the
    /// success criterion turned into a resource bound: there is no
    /// reason to keep simulating a queue that has already blown past
    /// the target.
    pub backlog_ceiling: Option<u64>,
    /// Divergence watchdog: stop (with a structured report) once the
    /// simulated clock exceeds this step budget. `None` = unbounded.
    /// Guards against a mis-parameterized run crawling forever.
    pub step_budget: Option<Time>,
    /// Capture a full engine checkpoint at every iteration boundary
    /// (kept in [`InstabilityRun::last_checkpoint`]); a killed run can
    /// then [`InstabilityConstruction::resume`] from the last completed
    /// iteration instead of starting over. Off by default — a
    /// checkpoint clones every live packet.
    pub checkpoint_iterations: bool,
}

impl InstabilityConfig {
    /// Defaults for a given `ε = eps_num/eps_den`.
    pub fn new(eps_num: u64, eps_den: u64) -> Self {
        InstabilityConfig {
            eps_num,
            eps_den,
            s0_safety: 3.0,
            m_margin: 2.0,
            m_override: None,
            iterations: 3,
            validate: true,
            record_ops: false,
            settle: true,
            sample_every: 0,
            backlog_ceiling: None,
            step_budget: None,
            checkpoint_iterations: false,
        }
    }
}

/// Which watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogKind {
    /// The backlog exceeded [`InstabilityConfig::backlog_ceiling`].
    BacklogCeiling {
        /// The configured ceiling.
        ceiling: u64,
    },
    /// The clock exceeded [`InstabilityConfig::step_budget`].
    StepBudget {
        /// The configured budget.
        budget: Time,
    },
}

/// Structured early-exit report from a divergence watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Which limit fired.
    pub kind: WatchdogKind,
    /// Engine time at the trip.
    pub time: Time,
    /// Backlog at the trip.
    pub backlog: u64,
    /// 0-based iteration in progress when the watchdog fired.
    pub iteration: usize,
    /// Stage that had just finished.
    pub stage: String,
}

/// Loop state at an iteration boundary: everything needed to continue
/// the construction in a fresh process.
#[derive(Debug, Clone)]
pub struct InstabilityCheckpoint {
    /// Full engine state (buffers, clock, metrics, validators).
    pub engine: checkpoint::Checkpoint,
    /// Completed iterations.
    pub iteration: usize,
    /// Fresh queue feeding the next iteration.
    pub s_cur: u64,
    /// Next free cohort tag.
    pub tag_next: u32,
    /// Adversary record so far (empty unless `record_ops`).
    pub recorded: Schedule,
    /// Per-iteration reports so far.
    pub iterations_so_far: Vec<IterationReport>,
    /// Divergence verdict so far.
    pub diverged_so_far: bool,
}

/// Per-stage measurement.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage label (`bootstrap`, `gadget 3`, `drain`, `stitch`).
    pub stage: String,
    /// Engine time when the stage finished.
    pub finish: Time,
    /// Queue the stage started from.
    pub s_in: u64,
    /// Queue the stage produced (measured).
    pub s_out: u64,
    /// Invariant measurement at stage end, where applicable.
    pub invariant: Option<CInvariantReport>,
}

/// Per-iteration measurement.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Fresh queue at iteration start (`S₁` in the theorem's proof).
    pub s_start: u64,
    /// Fresh queue after the stitch (`S₄`).
    pub s_end: u64,
    /// The stages.
    pub stages: Vec<StageReport>,
}

impl IterationReport {
    /// `S₄ / S₁` — must exceed 1 for instability.
    pub fn growth(&self) -> f64 {
        if self.s_start == 0 {
            0.0
        } else {
            self.s_end as f64 / self.s_start as f64
        }
    }
}

/// Result of a full run.
#[derive(Debug, Clone)]
pub struct InstabilityRun {
    /// Parameters used.
    pub params: GadgetParams,
    /// Chain length.
    pub m: usize,
    /// Initial seed queue `S*`.
    pub s_star: u64,
    /// Per-iteration reports.
    pub iterations: Vec<IterationReport>,
    /// Did the fresh queue grow in every iteration?
    pub diverged: bool,
    /// Total steps simulated.
    pub total_steps: Time,
    /// Peak backlog observed.
    pub max_backlog: u64,
    /// Sampled backlog series.
    pub series: Vec<BacklogSample>,
    /// Every adversary operation performed, with absolute times —
    /// replayable against other protocols (experiment E10).
    pub recorded: Schedule,
    /// Set when a divergence watchdog ended the run early.
    pub watchdog: Option<WatchdogReport>,
    /// The newest iteration-boundary checkpoint (only with
    /// [`InstabilityConfig::checkpoint_iterations`]).
    pub last_checkpoint: Option<Box<InstabilityCheckpoint>>,
}

/// The Theorem 3.17 construction.
pub struct InstabilityConstruction {
    /// The parameter algebra for this `ε`.
    pub params: GadgetParams,
    /// The network `G_ε`.
    pub geps: GEpsilon,
    /// Chain length `M`.
    pub m: usize,
    cfg: InstabilityConfig,
}

impl InstabilityConstruction {
    /// Build the construction for the given configuration.
    pub fn new(cfg: InstabilityConfig) -> Self {
        let params = GadgetParams::new(cfg.eps_num, cfg.eps_den);
        let m = cfg
            .m_override
            .unwrap_or_else(|| params.choose_m(cfg.m_margin));
        let geps = GEpsilon::new(params.n, m);
        InstabilityConstruction {
            params,
            geps,
            m,
            cfg,
        }
    }

    /// Effective seed floor: `⌈S₀ · safety⌉`, even.
    pub fn s0_effective(&self) -> u64 {
        let s = (self.params.s0 as f64 * self.cfg.s0_safety).ceil() as u64;
        s + (s & 1)
    }

    /// Rough horizon estimate (for auto sample intervals).
    fn estimate_horizon(&self) -> Time {
        let amp = self.params.amplification();
        let r = self.params.rate.as_f64();
        let s0 = self.s0_effective() as f64;
        // per iteration: sum over M stages of ~2S·amp^k, plus stitch
        let per_iter = 2.0 * s0 * (amp.powi(self.m as i32) - 1.0) / (amp - 1.0) + 4.0 * s0;
        let iter_growth = (r.powi(3) * amp.powi(self.m as i32 - 1) / 4.0).max(1.1);
        let total: f64 = (0..self.cfg.iterations)
            .map(|i| per_iter * iter_growth.powi(i as i32))
            .sum();
        total as Time + 1000
    }

    /// Run the closed loop from the initial configuration and measure.
    pub fn run(&self) -> Result<InstabilityRun, SimError> {
        self.run_from(None)
    }

    /// Continue an interrupted run from an iteration-boundary
    /// checkpoint (see [`InstabilityConfig::checkpoint_iterations`]).
    /// The construction must be configured identically to the one that
    /// produced the checkpoint; the resumed trajectory is then
    /// step-for-step identical to the uninterrupted one.
    pub fn resume(&self, ck: &InstabilityCheckpoint) -> Result<InstabilityRun, SimError> {
        self.run_from(Some(ck))
    }

    fn run_from(&self, from: Option<&InstabilityCheckpoint>) -> Result<InstabilityRun, SimError> {
        let params = &self.params;
        let rate = params.rate;
        let n = params.n;
        let graph = Arc::new(self.geps.graph.clone());
        let sample_every = if self.cfg.sample_every > 0 {
            self.cfg.sample_every
        } else {
            (self.estimate_horizon() / 1000).max(1)
        };
        let mut eng = Engine::new(
            Arc::clone(&graph),
            Fifo,
            EngineConfig {
                validate: self.cfg.validate.then(|| AdversaryModelSpec::rate(rate)),
                validate_reroutes: self.cfg.validate,
                sample_every,
            },
        );

        let s_star = 2 * self.s0_effective();
        let ingress = self.geps.ingress();
        let unit = Route::single(&graph, ingress).map_err(aqt_sim::EngineError::from)?;

        let (mut recorded, mut tag_next, mut iterations, mut s_cur, mut diverged, first_iter);
        match from {
            Some(ck) => {
                checkpoint::restore(&mut eng, &ck.engine)?;
                recorded = ck.recorded.clone();
                tag_next = ck.tag_next;
                iterations = ck.iterations_so_far.clone();
                s_cur = ck.s_cur;
                diverged = ck.diverged_so_far;
                first_iter = ck.iteration;
            }
            None => {
                // Initial configuration: S* unit-route packets at
                // ingress(F(1)), admitted as one cohort.
                eng.seed_cohort(unit.clone(), 0, s_star)?;
                recorded = Schedule::new();
                tag_next = 16;
                iterations = Vec::with_capacity(self.cfg.iterations);
                s_cur = s_star;
                diverged = true;
                first_iter = 0;
            }
        }
        // Each stage consumes a block of 4 cohort tags. (A plain
        // variable, not a closure, so the current value can travel
        // with iteration checkpoints.)
        macro_rules! alloc_tags {
            () => {{
                let t = tag_next;
                tag_next += 4;
                t
            }};
        }
        let tripped = |eng: &Engine<Fifo>| -> Option<WatchdogKind> {
            if let Some(ceiling) = self.cfg.backlog_ceiling {
                if eng.backlog() > ceiling {
                    return Some(WatchdogKind::BacklogCeiling { ceiling });
                }
            }
            if let Some(budget) = self.cfg.step_budget {
                if eng.time() > budget {
                    return Some(WatchdogKind::StepBudget { budget });
                }
            }
            None
        };
        let mut watchdog: Option<WatchdogReport> = None;
        let mut last_checkpoint: Option<Box<InstabilityCheckpoint>> = None;

        for iter in first_iter..self.cfg.iterations {
            let mut stages = Vec::new();
            let s_iter_start = s_cur;
            // The iteration's stages. The block ends early when the
            // fresh queue falls below `S₀` (the run stops diverging) or
            // when a watchdog trips at the end of a stage; its value
            // says whether the stitch finished, and which watchdog
            // tripped.
            let (stitched, trip) = 'stages: {
                // --- Step (1): bootstrap (Lemma 3.15). ---
                let s_half = s_cur / 2;
                if s_half < params.s0 {
                    diverged = false;
                    break 'stages (false, None);
                }
                let boot = lemma315::build(
                    &graph,
                    &self.geps.gadgets[0],
                    params,
                    s_half,
                    eng.time(),
                    alloc_tags!(),
                )?;
                record(&mut recorded, &boot.schedule, self.cfg.record_ops);
                boot.schedule.replay(&mut eng, boot.finish)?;
                if self.cfg.settle {
                    settle_boundary(&mut eng, &self.geps.gadgets[0], 4 * s_half)?;
                }
                let inv = check_c_invariant(&eng, &self.geps.gadgets[0]);
                let mut s = inv.s_effective();
                stages.push(StageReport {
                    stage: "bootstrap".into(),
                    finish: eng.time(),
                    s_in: s_cur,
                    s_out: s,
                    invariant: Some(inv),
                });
                if let Some(kind) = tripped(&eng) {
                    break 'stages (false, Some(kind));
                }

                // --- Step (2): walk the chain (Lemma 3.13 = (M-1) × Lemma 3.6). ---
                for k in 0..self.m - 1 {
                    if s < params.s0 {
                        diverged = false;
                        break 'stages (false, None);
                    }
                    let step = lemma36::build(
                        &graph,
                        &self.geps.gadgets[k],
                        &self.geps.gadgets[k + 1],
                        params,
                        s,
                        eng.time(),
                        alloc_tags!(),
                    )?;
                    record(&mut recorded, &step.schedule, self.cfg.record_ops);
                    step.schedule.replay(&mut eng, step.finish)?;
                    if self.cfg.settle {
                        settle_boundary(&mut eng, &self.geps.gadgets[k + 1], 4 * s)?;
                    }
                    let inv = check_c_invariant(&eng, &self.geps.gadgets[k + 1]);
                    let s_out = inv.s_effective();
                    stages.push(StageReport {
                        stage: format!("gadget {}", k + 1),
                        finish: eng.time(),
                        s_in: s,
                        s_out,
                        invariant: Some(inv),
                    });
                    s = s_out;
                    if let Some(kind) = tripped(&eng) {
                        break 'stages (false, Some(kind));
                    }
                }
                if s < params.s0 {
                    diverged = false;
                    break 'stages (false, None);
                }

                // --- Drain: no injections for S + n steps; 2S packets
                // funnel into the egress of F(M), leaving >= S - n there
                // (end of the proof of Lemma 3.13). ---
                let egress = self.geps.egress();
                eng.run_quiet(s + n as u64)?;
                let q_egress = eng
                    .queue_iter(egress)
                    .filter(|p| p.remaining() == 1)
                    .count() as u64;
                stages.push(StageReport {
                    stage: "drain".into(),
                    finish: eng.time(),
                    s_in: s,
                    s_out: q_egress,
                    invariant: None,
                });
                if let Some(kind) = tripped(&eng) {
                    break 'stages (false, Some(kind));
                }

                // --- Step (3): stitch (Lemma 3.16) over
                //     (egress(F(M)), e0, ingress(F(1))). ---
                let [a0, a1, a2] = self.geps.stitch_path();
                let stitch = lemma316::build(
                    &graph,
                    a0,
                    a1,
                    a2,
                    rate,
                    q_egress,
                    eng.time(),
                    alloc_tags!(),
                )?;
                let fresh_tag = stitch.tags.fresh;
                record(&mut recorded, &stitch.schedule, self.cfg.record_ops);
                stitch.schedule.replay(&mut eng, stitch.finish)?;
                // Settle until only fresh packets remain. Mixed packets all
                // precede the fresh cohort in the ingress queue (they were
                // injected earlier into the same buffer), so "everything is
                // fresh" reduces to two O(1) checks: nothing lives outside
                // the ingress buffer, and its front packet is fresh.
                let mut settle = 0u64;
                while settle < 4 * q_egress + 16 {
                    let only_ingress = eng.backlog() == eng.queue_len(ingress) as u64;
                    let front_fresh = eng
                        .queue_iter(ingress)
                        .next()
                        .is_none_or(|p| p.tag == fresh_tag);
                    if only_ingress && front_fresh {
                        break;
                    }
                    eng.run_quiet(1)?;
                    settle += 1;
                }
                // The next iteration's flat queue: every unit-route packet
                // at the ingress. Almost all are stitch-fresh; a handful of
                // carrier/mixer packets can interleave behind the first
                // fresh arrivals (they too have unit remaining routes and
                // behave identically — draining them would cost the fresh
                // packets queued ahead of them for no benefit). They are
                // counted in, with a purity floor asserted.
                let total = eng
                    .queue_iter(ingress)
                    .filter(|p| p.remaining() == 1)
                    .count() as u64;
                let fresh = eng
                    .queue_iter(ingress)
                    .filter(|p| p.tag == fresh_tag && p.remaining() == 1)
                    .count() as u64;
                debug_assert_eq!(
                    total,
                    eng.backlog(),
                    "the stitch must leave unit-route packets only, all at the ingress"
                );
                debug_assert!(
                    fresh as f64 >= 0.97 * total as f64,
                    "stitch cohort must be almost entirely fresh ({fresh}/{total})"
                );
                stages.push(StageReport {
                    stage: "stitch".into(),
                    finish: eng.time(),
                    s_in: q_egress,
                    s_out: total,
                    invariant: None,
                });
                (true, tripped(&eng))
            };

            let stop = !stitched || trip.is_some();
            if let Some(kind) = trip {
                watchdog = Some(WatchdogReport {
                    kind,
                    time: eng.time(),
                    backlog: eng.backlog(),
                    iteration: iter,
                    stage: stages
                        .last()
                        .expect("a watchdog trips after a stage")
                        .stage
                        .clone(),
                });
            }
            // A stopped iteration is reported with the stages it ran
            // (none when it could not bootstrap).
            let Some(s_end) = stages.last().map(|st| st.s_out) else {
                break;
            };
            iterations.push(IterationReport {
                s_start: s_iter_start,
                s_end,
                stages,
            });
            if stitched {
                if s_end <= s_iter_start {
                    diverged = false;
                }
                s_cur = s_end;
                // An iteration boundary is the natural resume point: the
                // whole queue is flat at the ingress, so the checkpoint is
                // as small as it ever gets.
                if self.cfg.checkpoint_iterations {
                    last_checkpoint = Some(Box::new(InstabilityCheckpoint {
                        engine: checkpoint::checkpoint(&eng),
                        iteration: iter + 1,
                        s_cur,
                        tag_next,
                        recorded: recorded.clone(),
                        iterations_so_far: iterations.clone(),
                        diverged_so_far: diverged,
                    }));
                }
            }
            if stop {
                break;
            }
        }

        let max_backlog = eng
            .metrics()
            .series()
            .iter()
            .map(|p| p.backlog)
            .max()
            .unwrap_or(eng.backlog());
        Ok(InstabilityRun {
            params: params.clone(),
            m: self.m,
            s_star,
            diverged: diverged && !iterations.is_empty(),
            total_steps: eng.time(),
            max_backlog: max_backlog.max(eng.backlog()),
            series: eng.metrics().series().to_vec(),
            recorded,
            iterations,
            watchdog,
            last_checkpoint,
        })
    }
}

/// Append every op of `s` to the master record (when recording), in
/// its per-packet form: readers of the record slice its ops by time,
/// and a stream op spans many steps.
fn record(master: &mut Schedule, s: &Schedule, enabled: bool) {
    if !enabled {
        return;
    }
    for op in s.per_packet_ops() {
        master.push(op);
    }
}

/// Drain lagging *old* packets out of a gadget's ingress boundary
/// buffer before measuring `C(S', F')` and starting the next stage.
///
/// The paper's exact accounting ("we ignore floors and ceilings…")
/// leaves every old packet across `a'` by time `2S + n`. The exact
/// integer simulation accumulates an O(n) lag per stage; left alone it
/// contaminates the FIFO order at the next boundary and *compounds*
/// geometrically down the chain (measured ≈ ×1.3 per gadget —
/// eventually collapsing long chains). A few quiet steps let the
/// stragglers clear into the e-buffers, at the cost of a handful of
/// top-up packets absorbed early — an additive loss the `S₀` safety
/// factor absorbs, exactly the compensation the paper prescribes.
///
/// Returns the number of quiet steps taken.
fn settle_boundary(
    eng: &mut Engine<Fifo>,
    g: &aqt_graph::GadgetHandles,
    cap: u64,
) -> Result<u64, EngineError> {
    let mut proper_prefix: Vec<aqt_graph::EdgeId> = vec![g.ingress];
    proper_prefix.extend_from_slice(&g.f_path);
    proper_prefix.push(g.egress);
    // Each quiet step crosses at most one packet out of the boundary
    // buffer, so after counting F foreigners we can run F steps before
    // rescanning — O(queue) scans happen only once per block instead of
    // once per step.
    let mut steps = 0u64;
    while steps < cap {
        let foreign = {
            let routes = eng.routes();
            eng.queue_iter(g.ingress)
                .filter(|p| {
                    let rem = &routes.get(p.route_id())[p.traversed()..];
                    rem.len() < proper_prefix.len()
                        || rem[..proper_prefix.len()] != proper_prefix[..]
                })
                .count() as u64
        };
        if foreign == 0 {
            break;
        }
        let block = foreign.min(cap - steps).max(1);
        eng.run_quiet(block)?;
        steps += block;
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full iteration at ε = 1/4 with validation on — the core
    /// end-to-end check of the reproduction. (~10^5 steps; runs in
    /// seconds with the test profile's opt-level.)
    #[test]
    fn one_iteration_grows_the_queue() {
        let mut cfg = InstabilityConfig::new(1, 4);
        cfg.iterations = 1;
        cfg.s0_safety = 2.0;
        cfg.m_margin = 1.5;
        let c = InstabilityConstruction::new(cfg);
        let run = c.run().expect("legal adversary");
        assert_eq!(run.iterations.len(), 1);
        let it = &run.iterations[0];
        assert!(
            it.s_end > it.s_start,
            "fresh queue must grow: {} -> {} (stages: {:?})",
            it.s_start,
            it.s_end,
            it.stages
                .iter()
                .map(|s| (s.stage.clone(), s.s_in, s.s_out))
                .collect::<Vec<_>>()
        );
        assert!(run.diverged);
    }

    #[test]
    fn bootstrap_amplifies_by_one_plus_eps() {
        // Check the first stage alone: C(S', F(1)) with S' >= S(1+eps)·(1-slop).
        let mut cfg = InstabilityConfig::new(1, 4);
        cfg.iterations = 1;
        cfg.s0_safety = 2.0;
        cfg.m_margin = 1.5;
        let c = InstabilityConstruction::new(cfg);
        let run = c.run().expect("legal adversary");
        let boot = &run.iterations[0].stages[0];
        assert_eq!(boot.stage, "bootstrap");
        let s_half = (boot.s_in / 2) as f64;
        assert!(
            boot.s_out as f64 >= s_half * (1.0 + 0.25) * 0.97,
            "bootstrap amplification too small: {} from S={}",
            boot.s_out,
            s_half
        );
        // the invariant should hold essentially exactly
        let inv = boot.invariant.as_ref().unwrap();
        assert!(inv.e_all_nonempty, "every e-buffer nonempty: {inv:?}");
        assert_eq!(inv.stragglers, 0);
    }
}
