//! The experiment tables of `EXPERIMENTS.md`, one renderer per section.
//!
//! Each renderer runs its experiment at a [`Scale`] and returns the
//! tables and note lines `examples/full_report.rs` prints. [`Scale::Full`]
//! regenerates the E1–E13 tables `EXPERIMENTS.md` quotes;
//! [`Scale::Reduced`] is the quick tour CI runs, which adds the E14,
//! E16 and E17 sections (each also has its own example:
//! `fault_recovery`, `model_landscape`, `retry_storm`, which print
//! their tables through the same builders).

use std::panic::{catch_unwind, resume_unwind};
use std::sync::{Mutex, PoisonError};

use aqt_analysis::report::f3;
use aqt_analysis::Table;
use aqt_sim::{run_sim_sweep, SharedSink, SimError};

use crate::experiments::*;
use crate::instability::InstabilityConfig;

/// How large a run each renderer makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The quick tour CI runs: seconds per section, at about the
    /// scale of each experiment's integration test.
    Reduced,
    /// The parameters of the `EXPERIMENTS.md` tables. E1 and E9 take
    /// minutes and a few GiB each (see `EXPERIMENTS.md`).
    Full,
}

/// One rendered experiment: its tables, then its note lines.
#[derive(Debug, Clone)]
pub struct Section {
    /// The experiment's tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed after the tables.
    pub notes: Vec<String>,
}

impl Section {
    fn table(table: Table) -> Self {
        Section {
            tables: vec![table],
            notes: Vec::new(),
        }
    }

    fn note(mut self, line: String) -> Self {
        self.notes.push(line);
        self
    }

    /// Each table after a blank line, then the notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// A section renderer.
pub type Render = fn(Scale) -> Result<Section, SimError>;

/// Every section, in tour order. [`Scale::Full`] covers the first 13.
pub const SECTIONS: [(&str, Render); 16] = [
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E4", e4),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("E14", e14),
    ("E16", e16),
    ("E17", e17),
];

/// The sections `scale` covers: all of [`SECTIONS`] when reduced,
/// E1–E13 when full.
pub fn sections(scale: Scale) -> &'static [(&'static str, Render)] {
    match scale {
        Scale::Reduced => &SECTIONS,
        Scale::Full => &SECTIONS[..13],
    }
}

/// The longest sections of the reduced tour, longest first. Workers
/// claim these before the rest (which follow in tour order), so no
/// worker starts a long section when the others are nearly done.
const CLAIM_FIRST: [&str; 4] = ["E1", "E12", "E9", "E10"];

/// Render the sections `scale` covers — only the one named `only`
/// (case-insensitive) when given — on the sweep harness, one job per
/// section on every available core, the longest sections (E1, E12,
/// E9, E10) claimed first. Each section goes to `emit` once it and
/// every section before it have settled, so the output is in tour
/// order whatever the thread count. A section that panics or
/// fails is quarantined: the others still render, and the error names
/// it. With a `progress` sink, each section is reported as a sweep job,
/// indexed in claim order (`job_started`, then `job_finished` or
/// `job_quarantined`, then a `sweep_progress` record with an ETA).
pub fn run(
    scale: Scale,
    only: Option<&str>,
    progress: Option<&SharedSink>,
    emit: impl FnMut(&'static str, Section) + Send,
) -> Result<(), Quarantined> {
    let jobs: Vec<_> = sections(scale)
        .iter()
        .filter(|(id, _)| only.is_none_or(|o| id.eq_ignore_ascii_case(o)))
        .copied()
        .collect();
    run_sections(jobs, 0, scale, progress, emit)
}

/// Sections that did not render: each id with its panic message or
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined(pub Vec<(&'static str, String)>);

impl std::fmt::Display for Quarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quarantined sections:")?;
        for (id, message) in &self.0 {
            write!(f, " {id} ({message})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Quarantined {}

/// [`run`] over an explicit section list on `threads` workers.
fn run_sections(
    jobs: Vec<(&'static str, Render)>,
    threads: usize,
    scale: Scale,
    progress: Option<&SharedSink>,
    emit: impl FnMut(&'static str, Section) + Send,
) -> Result<(), Quarantined> {
    let release = Mutex::new(InOrder {
        next: 0,
        settled: (0..jobs.len()).map(|_| None).collect(),
        emit,
    });
    // Each job keeps its tour slot; the stable sort leaves the sections
    // outside `CLAIM_FIRST` in tour order.
    let mut claims: Vec<_> = jobs.into_iter().enumerate().collect();
    claims.sort_by_key(|(_, (id, _))| {
        CLAIM_FIRST
            .iter()
            .position(|c| c == id)
            .unwrap_or(CLAIM_FIRST.len())
    });
    let report = run_sim_sweep(
        claims.clone(),
        threads,
        progress,
        |_, &(slot, (id, render))| {
            // `settle` leaves the release valid at every step, so a panic in
            // `emit` loses only the section it was printing.
            let settle = |section| {
                release
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .settle(slot, section)
            };
            // Settle a failed section as a gap before the harness
            // quarantines it, so the sections after it are not held back.
            match catch_unwind(|| render(scale)) {
                Ok(Ok(section)) => {
                    settle(Some((id, section)));
                    Ok(())
                }
                Ok(Err(e)) => {
                    settle(None);
                    Err(e)
                }
                Err(panic) => {
                    settle(None);
                    resume_unwind(panic)
                }
            }
        },
    );
    let mut failed: Vec<_> = report
        .quarantined()
        .into_iter()
        .map(|q| (claims[q.index].0, claims[q.index].1 .0, q.message.clone()))
        .collect();
    failed.sort_unstable_by_key(|&(slot, ..)| slot);
    if failed.is_empty() {
        Ok(())
    } else {
        Err(Quarantined(
            failed
                .into_iter()
                .map(|(_, id, message)| (id, message))
                .collect(),
        ))
    }
}

/// The in-order release: slot `i` goes to `emit` once every slot up to
/// it has settled. A quarantined section settles as a gap.
struct InOrder<F> {
    next: usize,
    settled: Vec<Option<Option<(&'static str, Section)>>>,
    emit: F,
}

impl<F: FnMut(&'static str, Section)> InOrder<F> {
    fn settle(&mut self, index: usize, section: Option<(&'static str, Section)>) {
        self.settled[index] = Some(section);
        while let Some(slot) = self.settled.get_mut(self.next).and_then(Option::take) {
            self.next += 1;
            if let Some((id, section)) = slot {
                (self.emit)(id, section);
            }
        }
    }
}

/// A bound, or `silent` where it does not apply.
fn bound_or(bound: Option<u64>, silent: &str) -> String {
    bound.map_or(silent.into(), |b| b.to_string())
}

fn e1(scale: Scale) -> Result<Section, SimError> {
    let (eps, iterations): (&[_], _) = match scale {
        Scale::Reduced => (&[(1, 4)], 2),
        Scale::Full => (&[(1, 10), (1, 5), (1, 4), (3, 10)], 3),
    };
    let mut t = Table::new(
        "E1 / Theorem 3.17 — FIFO instability at r = 1/2 + ε (paper: unstable for every ε > 0)",
        &[
            "ε",
            "r",
            "n",
            "M",
            "S*",
            "queue per iteration",
            "growth/iter",
            "diverged",
            "steps",
        ],
    );
    for r in &e1_fifo_instability(eps, iterations)? {
        t.row(&[
            format!("{}/{}", r.eps.0, r.eps.1),
            f3(r.rate),
            r.n.to_string(),
            r.m.to_string(),
            r.s_star.to_string(),
            format!("{:?}", r.s_series),
            f3(r.growth),
            r.diverged.to_string(),
            r.steps.to_string(),
        ]);
    }
    Ok(Section::table(t))
}

/// E2 and E3 share their sweep and their columns.
fn amplify_table(title: &str, invariant: &str, rows: &[AmplifyRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "ε",
            "S",
            "S' measured",
            "S' theory",
            "amp measured",
            "amp promised",
            invariant,
        ],
    );
    for r in rows {
        t.row(&[
            format!("{}/{}", r.eps.0, r.eps.1),
            r.s.to_string(),
            r.s_prime_measured.to_string(),
            r.s_prime_theory.to_string(),
            f3(r.amp_measured),
            f3(r.amp_promised),
            r.invariant_exact.to_string(),
        ]);
    }
    t
}

const AMPLIFY_EPS: [(u64, u64); 4] = [(1, 10), (1, 5), (1, 4), (3, 10)];
const AMPLIFY_S: [f64; 3] = [1.0, 2.0, 4.0];

fn e2(scale: Scale) -> Result<Section, SimError> {
    let rows = match scale {
        Scale::Reduced => e2_gadget_amplification(&[(1, 4)], &[1.5])?,
        Scale::Full => e2_gadget_amplification(&AMPLIFY_EPS, &AMPLIFY_S)?,
    };
    Ok(Section::table(amplify_table(
        "E2 / Lemma 3.6 — gadget-step amplification (paper: S' ≥ S(1+ε))",
        "C(S',F') exact",
        &rows,
    )))
}

fn e3(scale: Scale) -> Result<Section, SimError> {
    let rows = match scale {
        Scale::Reduced => e3_bootstrap(&[(1, 4), (1, 5)], &[1.0, 2.0])?,
        Scale::Full => e3_bootstrap(&AMPLIFY_EPS, &AMPLIFY_S)?,
    };
    Ok(Section::table(amplify_table(
        "E3 / Lemma 3.15 — bootstrap from a flat queue (paper: S' ≥ S(1+ε))",
        "C(S',F) exact",
        &rows,
    )))
}

fn e4(scale: Scale) -> Result<Section, SimError> {
    let rows = match scale {
        Scale::Reduced => e4_stitch(&[(3, 4)], 800)?,
        Scale::Full => e4_stitch(&[(11, 20), (3, 5), (7, 10), (3, 4), (4, 5), (9, 10)], 2000)?,
    };
    let mut t = Table::new(
        "E4 / Lemma 3.16 — stitch retention (paper: r³·S fresh packets)",
        &[
            "r",
            "S",
            "fresh measured",
            "fresh scheduled",
            "retention",
            "r³",
        ],
    );
    for r in &rows {
        t.row(&[
            f3(r.rate),
            r.s.to_string(),
            r.fresh_measured.to_string(),
            r.fresh_scheduled.to_string(),
            f3(r.retention),
            f3(r.r_cubed),
        ]);
    }
    Ok(Section::table(t))
}

/// Steps of the E5–E7 stability sweeps.
fn stability_steps(scale: Scale, reduced: u64) -> u64 {
    match scale {
        Scale::Reduced => reduced,
        Scale::Full => 60_000,
    }
}

/// The E5/E7 table: one row per protocol × topology cell, then the
/// violation count.
fn bounded_stability(title: &str, rows: &[StabilityRow], with_d: bool) -> Section {
    let mut headers = vec!["protocol", "topology", "d", "bound"];
    if !with_d {
        headers.remove(2);
    }
    headers.extend(["max wait", "peak queue", "verdict", "bound ok"]);
    let mut t = Table::new(title, &headers);
    for r in rows {
        let mut cells = vec![r.protocol.clone(), r.topology.clone()];
        if with_d {
            cells.push(r.d.to_string());
        }
        cells.extend([
            bound_or(r.bound, "—"),
            r.max_wait.to_string(),
            r.max_queue.to_string(),
            r.verdict.to_string(),
            r.bound_respected.to_string(),
        ]);
        t.row(&cells);
    }
    let violations = rows.iter().filter(|r| !r.bound_respected).count();
    Section::table(t).note(format!(
        "bound violations: {violations} / {} (paper promises 0)",
        rows.len()
    ))
}

fn e5(scale: Scale) -> Result<Section, SimError> {
    Ok(e5_section(&e5_greedy_stability(
        3,
        12,
        stability_steps(scale, 4000),
    )?))
}

/// The E5 table (at `d = 3`, `w = 12`) and its violation count.
pub fn e5_section(rows: &[StabilityRow]) -> Section {
    bounded_stability(
        "E5 / Theorem 4.1 — greedy stability at r = 1/(d+1) (paper: max wait ≤ ⌈wr⌉, here 3)",
        rows,
        true,
    )
}

fn e6(scale: Scale) -> Result<Section, SimError> {
    Ok(e6_section(&e6_time_priority(
        3,
        12,
        stability_steps(scale, 6000),
    )?))
}

/// The E6 table (at `d = 3`, `w = 12`) and the FIFO/LIS violation
/// count.
pub fn e6_section(rows: &[StabilityRow]) -> Section {
    let mut t = Table::new(
        "E6 / Theorem 4.3 — time-priority stability at r = 1/d (FIFO & LIS bound = ⌈wr⌉ = 4)",
        &[
            "protocol",
            "topology",
            "bound",
            "max wait",
            "peak queue",
            "verdict",
        ],
    );
    for r in rows {
        t.row(&[
            r.protocol.clone(),
            r.topology.clone(),
            bound_or(r.bound, "(theorem silent)"),
            r.max_wait.to_string(),
            r.max_queue.to_string(),
            r.verdict.to_string(),
        ]);
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.protocol.as_str(), "FIFO" | "LIS") && !r.bound_respected)
        .count();
    Section::table(t).note(format!("FIFO/LIS violations: {bad} (paper promises 0)"))
}

fn e7(scale: Scale) -> Result<Section, SimError> {
    let s = match scale {
        Scale::Reduced => 100,
        Scale::Full => 200,
    };
    let rows = e7_initial_config(3, 12, s, stability_steps(scale, 6000))?;
    Ok(bounded_stability(
        &format!("E7 / Corollaries 4.5-4.6 — S-initial-configuration (S={s}, r=1/(d+2) < 1/(d+1))"),
        &rows,
        false,
    ))
}

fn e8(scale: Scale) -> Result<Section, SimError> {
    let rows = match scale {
        Scale::Reduced => e8_asymptotics(&[8, 32, 128]),
        Scale::Full => e8_asymptotics(&[4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    };
    let mut t = Table::new(
        "E8 / Appendix — parameter asymptotics (paper: n = Θ(log 1/ε), S₀ = Θ((1/ε)log(1/ε)))",
        &[
            "ε",
            "n",
            "S₀",
            "log₂(1/ε)",
            "n / log₂(1/ε)",
            "S₀ / ((1/ε)log₂(1/ε))",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.5}", r.eps),
            r.n.to_string(),
            r.s0.to_string(),
            f3(r.log_inv_eps),
            f3(r.n_ratio),
            f3(r.s0_ratio),
        ]);
    }
    Ok(Section::table(t)
        .note("both ratio columns must stay Θ(1) as ε → 0 — the sandwich of (5.5)/(5.9).".into()))
}

fn e9(scale: Scale) -> Result<Section, SimError> {
    let rows = match scale {
        Scale::Reduced => e9_comparison(&[(3, 5), (3, 4)], 200, 2, 1)?,
        Scale::Full => e9_comparison(
            &[
                (11, 20),
                (3, 5),
                (13, 20),
                (7, 10),
                (3, 4),
                (4, 5),
                (17, 20),
                (9, 10),
            ],
            600,
            4,
            2,
        )?,
    };
    let mut t = Table::new(
        "E9 — who destabilizes FIFO at which rate (growth > 1 = diverging)",
        &[
            "rate",
            "baseball pump growth/round",
            "our G_ε growth/iteration",
        ],
    );
    for r in &rows {
        t.row(&[
            f3(r.rate),
            f3(r.baseline_growth),
            r.ours_growth.map_or("n/a".into(), f3),
        ]);
    }
    Ok(Section::table(t).note(
        "shape check: our construction grows at every r > 1/2; the pump family needs far \
         higher rates (prior art: 0.749–0.85)."
            .into(),
    ))
}

fn e10(scale: Scale) -> Result<Section, SimError> {
    // Replays against priority protocols scan whole buffers per step
    // (quadratic in queue size), so even the full landscape uses a
    // moderate construction — the behavioral contrast is identical.
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    match scale {
        Scale::Reduced => {
            cfg.s0_safety = 1.0;
            cfg.m_override = Some(4);
        }
        Scale::Full => cfg.s0_safety = 2.0,
    }
    Ok(Section::table(e10_table(&e10_landscape_with(cfg)?)))
}

/// The E10 table.
pub fn e10_table(rows: &[E10Row]) -> Table {
    let mut t = Table::new(
        "E10 — the 1/2+ε adversary vs. every protocol (FIFO should diverge; LIS/FTG should not)",
        &["protocol", "final backlog", "peak backlog", "verdict"],
    );
    for r in rows {
        t.row(&[
            r.protocol.clone(),
            r.final_backlog.to_string(),
            r.max_backlog.to_string(),
            r.verdict.to_string(),
        ]);
    }
    t
}

fn e11(scale: Scale) -> Result<Section, SimError> {
    let (eps, s_multiplier): (&[(u64, u64)], _) = match scale {
        Scale::Reduced => (&[(1, 4)], 1.5),
        Scale::Full => (&[(1, 4), (1, 10)], 2.0),
    };
    let mut tables = Vec::new();
    for &(num, den) in eps {
        let mut t = Table::new(
            format!("E11 / Claim 3.9 — thinning rates at ε = {num}/{den} (measured vs R_i)"),
            &["i", "R_i (paper)", "measured rate", "rel. error"],
        );
        for r in &e11_thinning_rates(num, den, s_multiplier)? {
            t.row(&[
                r.i.to_string(),
                f3(r.r_i),
                f3(r.measured),
                format!("{:+.2}%", 100.0 * (r.measured - r.r_i) / r.r_i),
            ]);
        }
        tables.push(t);
    }
    Ok(Section {
        tables,
        notes: Vec::new(),
    })
}

fn e12(scale: Scale) -> Result<Section, SimError> {
    let ((num, den), iterations, chain) = match scale {
        Scale::Reduced => ((3, 10), 1, "M is short: lag has little room to compound"),
        Scale::Full => ((1, 10), 2, "M is long: lag has room to compound"),
    };
    let mut t = Table::new(
        format!("E12 — settling ablation at ε = {num}/{den} ({chain})"),
        &["settling", "S₀ safety", "queue per iteration", "diverged"],
    );
    for r in &e12_settling_ablation(num, den, iterations)? {
        t.row(&[
            r.settle.to_string(),
            format!("{:.1}", r.s0_safety),
            format!("{:?}", r.s_series),
            r.diverged.to_string(),
        ]);
    }
    Ok(Section::table(t))
}

fn e13(scale: Scale) -> Result<Section, SimError> {
    let steps = match scale {
        Scale::Reduced => 8000,
        Scale::Full => 60_000,
    };
    let mut t = Table::new(
        "E13 — FIFO wait vs rate around r = 1/d (d = 3, w = 12; bound applies iff r ≤ 1/d)",
        &["r / (1/d)", "r", "bound ⌈wr⌉", "max wait", "peak queue"],
    );
    for r in &e13_threshold_sharpness(3, 12, steps)? {
        t.row(&[
            f3(r.rate_over_threshold),
            f3(r.rate),
            bound_or(r.bound, "(silent)"),
            r.max_wait.to_string(),
            r.max_queue.to_string(),
        ]);
    }
    Ok(Section::table(t))
}

fn e14(_: Scale) -> Result<Section, SimError> {
    Ok(e14_section(&e14_fault_recovery(3, 8)?))
}

/// The E14 table and its violation count.
pub fn e14_section(rows: &[E14Row]) -> Section {
    let mut t = Table::new(
        "E14 / Observation 4.4 — fault recovery (burst: wait ≤ ⌈w*/k⌉; outage: resettle ≤ w*)",
        &[
            "protocol",
            "topology",
            "scenario",
            "S",
            "w*",
            "bound",
            "wait",
            "resettle",
            "conservation",
            "bound ok",
        ],
    );
    for r in rows {
        t.row(&[
            r.protocol.clone(),
            r.topology.clone(),
            r.scenario.clone(),
            r.s_fault.to_string(),
            bound_or(r.recovery_horizon, "—"),
            bound_or(r.recovery_bound, "—"),
            r.post_fault_max_wait.to_string(),
            bound_or(r.resettle_delay, "—"),
            r.conservation_ok.to_string(),
            r.bound_respected.to_string(),
        ]);
    }
    let violations = rows
        .iter()
        .filter(|r| !r.bound_respected || !r.conservation_ok)
        .count();
    Section::table(t).note(format!(
        "recovery-bound/conservation violations: {violations} / {} (theory: 0)",
        rows.len()
    ))
}

fn e16(_: Scale) -> Result<Section, SimError> {
    Ok(e16_section(&e16_model_landscape(3, 12, 1500, None)?))
}

/// The E16 table and the survival count at `f ≤ 1`.
pub fn e16_section(rows: &[E16Row]) -> Section {
    let mut t = Table::new(
        "E16 — threshold survival across adversary models (r = f·1/(d+1))",
        &[
            "model",
            "fingerprint",
            "protocol",
            "f",
            "long-run r",
            "bound",
            "max wait",
            "verdict",
            "survives",
        ],
    );
    for r in rows {
        t.row(&[
            r.model.clone(),
            format!("{:016x}", r.model_fingerprint),
            r.protocol.clone(),
            format!("{:.1}", r.rate_factor),
            f3(r.long_run_rate),
            bound_or(r.bound, "—"),
            r.max_wait.to_string(),
            r.verdict.to_string(),
            r.survives.to_string(),
        ]);
    }
    let at_threshold: Vec<_> = rows.iter().filter(|r| r.rate_factor <= 1.0).collect();
    let survived = at_threshold.iter().filter(|r| r.survives).count();
    Section::table(t).note(format!(
        "threshold survives in {survived} / {} cells at f ≤ 1 (buffer-bound alone admits \
         long-run rate 1 — its waits escape the ⌈wr⌉ bound)",
        at_threshold.len()
    ))
}

fn e17(_: Scale) -> Result<Section, SimError> {
    let (rows, reproducible) = e17_collapse_demo(600)?;
    let t = e17_table(
        "E17 — closed-loop congestion collapse and recovery: the shed discipline decides",
        &rows,
    );
    Ok(Section::table(t).note(format!(
        "bit-identical re-run and open-loop replay: {reproducible}"
    )))
}

/// An E17 table of closed-loop cells under `title`.
pub fn e17_table(title: &str, rows: &[E17Row]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "timeout", "cap", "retry", "shed", "offered", "goodput", "wasted", "ratio", "verdict",
        ],
    );
    for r in rows {
        t.row(&[
            r.timeout.to_string(),
            r.capacity.to_string(),
            r.retry.to_string(),
            r.shed.to_string(),
            r.offered.to_string(),
            r.goodput.to_string(),
            r.wasted.to_string(),
            format!("{:.0}%", r.goodput_ratio * 100.0),
            if r.collapsed { "COLLAPSED" } else { "healthy" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A section whose one note is `id`, after `ms` of work.
    fn fake(id: &str, ms: u64) -> Result<Section, SimError> {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(Section {
            tables: Vec::new(),
            notes: vec![id.to_string()],
        })
    }

    /// Run `jobs` on 4 threads; the ids emitted, in emit order, and the
    /// result.
    fn tour(jobs: Vec<(&'static str, Render)>) -> (Vec<String>, Result<(), Quarantined>) {
        let mut emitted = Vec::new();
        let result = run_sections(jobs, 4, Scale::Reduced, None, |id, section| {
            assert_eq!(section.notes, [id], "a section is emitted under its id");
            emitted.push(id.to_string());
        });
        (emitted, result)
    }

    #[test]
    fn sections_finishing_in_reverse_are_emitted_in_tour_order() {
        let (emitted, result) = tour(vec![
            ("A", |_| fake("A", 300)),
            ("B", |_| fake("B", 200)),
            ("C", |_| fake("C", 100)),
            ("D", |_| fake("D", 0)),
        ]);
        assert_eq!(result, Ok(()));
        assert_eq!(emitted, ["A", "B", "C", "D"]);
    }

    #[test]
    fn longest_sections_are_claimed_first_and_emitted_in_tour_order() {
        static CLAIMED: Mutex<Vec<&str>> = Mutex::new(Vec::new());
        fn claim(id: &'static str) -> Result<Section, SimError> {
            CLAIMED.lock().unwrap().push(id);
            fake(id, 0)
        }
        let jobs: Vec<(&'static str, Render)> = vec![
            ("E2", |_| claim("E2")),
            ("E9", |_| claim("E9")),
            ("E10", |_| claim("E10")),
            ("E11", |_| claim("E11")),
            ("E12", |_| claim("E12")),
        ];
        let mut emitted = Vec::new();
        let result = run_sections(jobs, 1, Scale::Reduced, None, |id, _| emitted.push(id));
        assert_eq!(result, Ok(()));
        assert_eq!(*CLAIMED.lock().unwrap(), ["E12", "E9", "E10", "E2", "E11"]);
        assert_eq!(emitted, ["E2", "E9", "E10", "E11", "E12"]);
    }

    #[test]
    fn a_failing_section_is_quarantined_under_its_id() {
        let (emitted, result) = tour(vec![
            ("A", |_| fake("A", 100)),
            ("B", |_| panic!("deliberate panic in B")),
            ("C", |_| Err(SimError::Checkpoint("C failed".into()))),
            ("D", |_| fake("D", 0)),
        ]);
        assert_eq!(emitted, ["A", "D"], "every other section still prints");
        let err = result.unwrap_err();
        assert_eq!(
            err,
            Quarantined(vec![
                ("B", "deliberate panic in B".into()),
                ("C", "checkpoint restore failed: C failed".into()),
            ])
        );
        assert_eq!(
            err.to_string(),
            "quarantined sections: B (deliberate panic in B) \
             C (checkpoint restore failed: C failed)"
        );
    }
}
