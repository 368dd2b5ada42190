//! Typed runners for every reproduced claim (`EXPERIMENTS.md` E1–E17).
//!
//! The integration tests run these at reduced scale; [`crate::report`]
//! renders their tables at either scale.

use std::sync::Arc;

use aqt_adversary::baselines::run_baseball_pump;
use aqt_adversary::stochastic::{random_routes, InjectionStyle, SaturatingAdversary};
use aqt_adversary::{lemma315, lemma316, lemma36, GadgetParams};
use aqt_analysis::stability::{classify_series, Verdict};
use aqt_graph::{topologies, DaisyChain, EdgeId, FnGadget, Graph, Route};
use aqt_protocols::{by_name, protocol_names, Fifo};
use aqt_sim::{
    AdversaryModelSpec, ConstraintSpec, Engine, EngineConfig, FaultPlan, Injection, Protocol,
    Provenance, Ratio, SharedSink, SimError, TelemetryConfig, Time,
};
use aqt_workload::{
    ClientConfig, ClosedLoop, ClosedLoopConfig, GoodputMeter, RetryPolicy, ServicePolicy, Shed,
};

use crate::instability::{InstabilityConfig, InstabilityConstruction};
use crate::theory::StabilityCertificate;
use crate::verify::check_c_invariant;

// ---------------------------------------------------------------------
// E1 — Theorem 3.17: FIFO unstable at r = 1/2 + ε.
// ---------------------------------------------------------------------

/// One row of experiment E1.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// `ε` as (num, den).
    pub eps: (u64, u64),
    /// The rate `r = 1/2 + ε`.
    pub rate: f64,
    /// Gadget length `n`, chain length `M`, seed `S*`.
    pub n: usize,
    /// Chain length `M`.
    pub m: usize,
    /// Initial queue `S*`.
    pub s_star: u64,
    /// Fresh-queue sizes at iteration boundaries (`S₁, S₄, S₄', …`).
    pub s_series: Vec<u64>,
    /// Geometric-mean per-iteration growth.
    pub growth: f64,
    /// Did every iteration grow?
    pub diverged: bool,
    /// Steps simulated.
    pub steps: Time,
}

/// Run E1 for each `ε`, `iterations` closed-loop iterations each.
pub fn e1_fifo_instability(
    eps_list: &[(u64, u64)],
    iterations: usize,
) -> Result<Vec<E1Row>, SimError> {
    let mut rows = Vec::new();
    for &(num, den) in eps_list {
        let mut cfg = InstabilityConfig::new(num, den);
        cfg.iterations = iterations;
        let c = InstabilityConstruction::new(cfg);
        let run = c.run()?;
        let mut s_series = vec![run.s_star];
        s_series.extend(run.iterations.iter().map(|it| it.s_end));
        let growth = aqt_analysis::stats::geometric_growth(
            &s_series.iter().map(|&s| s as f64).collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        rows.push(E1Row {
            eps: (num, den),
            rate: run.params.rate.as_f64(),
            n: run.params.n,
            m: run.m,
            s_star: run.s_star,
            s_series,
            growth,
            diverged: run.diverged,
            steps: run.total_steps,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E2 — Lemma 3.6: one gadget step amplifies by ≥ (1 + ε).
// ---------------------------------------------------------------------

/// One row of experiment E2 (and E3, which shares the shape).
#[derive(Debug, Clone)]
pub struct AmplifyRow {
    /// `ε` as (num, den).
    pub eps: (u64, u64),
    /// Input queue size `S`.
    pub s: u64,
    /// Measured output queue `S'` (the `min` of the two invariant
    /// populations).
    pub s_prime_measured: u64,
    /// Theoretical `S' = ⌊2S(1−R_n)⌋`.
    pub s_prime_theory: u64,
    /// Measured amplification `S'/S`.
    pub amp_measured: f64,
    /// `1 + ε` — the bound the lemma promises.
    pub amp_promised: f64,
    /// Did `C(S', F')` hold exactly at the predicted finish time?
    pub invariant_exact: bool,
}

/// Seed an exact `C(s, F)` state into `eng` for gadget `g`.
fn seed_c_invariant(
    eng: &mut Engine<Fifo>,
    graph: &Graph,
    g: &aqt_graph::GadgetHandles,
    s: u64,
) -> Result<(), SimError> {
    let n = g.n();
    for k in 0..s {
        let i = (k as usize) % n;
        let mut edges: Vec<_> = g.e_path[i..].to_vec();
        edges.push(g.egress);
        eng.seed(Route::new(graph, edges)?, 1)?;
    }
    let mut a_edges = vec![g.ingress];
    a_edges.extend_from_slice(&g.f_path);
    a_edges.push(g.egress);
    let a_route = Route::new(graph, a_edges)?;
    for _ in 0..s {
        eng.seed(a_route.clone(), 2)?;
    }
    Ok(())
}

/// Run E2 for each `ε` and each `S = ⌈S₀·mult⌉`.
///
/// Seeds `C(S, F)` directly (an initial configuration per Observation
/// 4.4), applies the Lemma 3.6 adversary, and measures `C(S', F')`.
pub fn e2_gadget_amplification(
    eps_list: &[(u64, u64)],
    s_multipliers: &[f64],
) -> Result<Vec<AmplifyRow>, SimError> {
    let mut rows = Vec::new();
    for &(num, den) in eps_list {
        let params = GadgetParams::new(num, den);
        let chain = DaisyChain::new(params.n, 2);
        let graph = Arc::new(chain.graph.clone());
        for &mult in s_multipliers {
            let s = ((params.s0 as f64) * mult).ceil() as u64;
            let mut eng = Engine::new(
                Arc::clone(&graph),
                Fifo,
                EngineConfig {
                    validate: Some(AdversaryModelSpec::rate(params.rate)),
                    validate_reroutes: true,
                    ..Default::default()
                },
            );
            seed_c_invariant(&mut eng, &graph, &chain.gadgets[0], s)?;
            let step = lemma36::build(
                &graph,
                &chain.gadgets[0],
                &chain.gadgets[1],
                &params,
                s,
                0,
                8,
            )?;
            step.schedule.replay(&mut eng, step.finish)?;
            let inv = check_c_invariant(&eng, &chain.gadgets[1]);
            // F must be empty (Lemma 3.6's second conclusion).
            let f_empty = check_c_invariant(&eng, &chain.gadgets[0]);
            let measured = inv.s_effective();
            rows.push(AmplifyRow {
                eps: (num, den),
                s,
                s_prime_measured: measured,
                s_prime_theory: step.s_prime,
                amp_measured: measured as f64 / s as f64,
                amp_promised: 1.0 + Ratio::new(num, den).as_f64(),
                invariant_exact: inv.holds().is_some()
                    && f_empty.e_total == 0
                    && f_empty.a_count + f_empty.a_foreign == 0,
            });
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E3 — Lemma 3.15: bootstrap from a flat queue.
// ---------------------------------------------------------------------

/// Run E3: seed `2S` unit-route packets at the ingress, apply the
/// bootstrap adversary, measure `C(S', F)`.
pub fn e3_bootstrap(
    eps_list: &[(u64, u64)],
    s_multipliers: &[f64],
) -> Result<Vec<AmplifyRow>, SimError> {
    let mut rows = Vec::new();
    for &(num, den) in eps_list {
        let params = GadgetParams::new(num, den);
        let gadget = FnGadget::new(params.n);
        let graph = Arc::new(gadget.graph.clone());
        for &mult in s_multipliers {
            let s = ((params.s0 as f64) * mult).ceil() as u64;
            let mut eng = Engine::new(
                Arc::clone(&graph),
                Fifo,
                EngineConfig {
                    validate: Some(AdversaryModelSpec::rate(params.rate)),
                    validate_reroutes: true,
                    ..Default::default()
                },
            );
            let unit = Route::single(&graph, gadget.handles.ingress)?;
            for _ in 0..2 * s {
                eng.seed(unit.clone(), 0)?;
            }
            let boot = lemma315::build(&graph, &gadget.handles, &params, s, 0, 8)?;
            boot.schedule.replay(&mut eng, boot.finish)?;
            let inv = check_c_invariant(&eng, &gadget.handles);
            let measured = inv.s_effective();
            rows.push(AmplifyRow {
                eps: (num, den),
                s,
                s_prime_measured: measured,
                s_prime_theory: boot.s_prime,
                amp_measured: measured as f64 / s as f64,
                amp_promised: 1.0 + Ratio::new(num, den).as_f64(),
                invariant_exact: inv.holds().is_some(),
            });
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E4 — Lemma 3.16: the stitch retains ≈ r³ of the queue, fresh.
// ---------------------------------------------------------------------

/// One row of experiment E4.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Rate used.
    pub rate: f64,
    /// Input queue `S`.
    pub s: u64,
    /// Fresh packets measured at `a_2` when the network quiesces.
    pub fresh_measured: u64,
    /// `⌊r⌊r⌊rS⌋⌋⌋` — the scheduled fresh count.
    pub fresh_scheduled: u64,
    /// `r³` (the paper's retention factor).
    pub r_cubed: f64,
    /// Measured retention `fresh/S`.
    pub retention: f64,
}

/// Run E4 on a 3-edge line for each rate.
pub fn e4_stitch(rates: &[(u64, u64)], s: u64) -> Result<Vec<E4Row>, SimError> {
    let mut rows = Vec::new();
    for &(num, den) in rates {
        let rate = Ratio::new(num, den);
        let graph = Arc::new(topologies::line(3));
        let e: Vec<_> = graph.edge_ids().collect();
        let mut eng = Engine::new(
            Arc::clone(&graph),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(rate)),
                ..Default::default()
            },
        );
        let unit = Route::single(&graph, e[0])?;
        for _ in 0..s {
            eng.seed(unit.clone(), 0)?;
        }
        let stitch = lemma316::build(&graph, e[0], e[1], e[2], rate, s, 0, 8)?;
        let fresh_tag = stitch.tags.fresh;
        let scheduled = stitch.fresh_count;
        stitch.schedule.replay(&mut eng, stitch.finish)?;
        // settle until everything but fresh is absorbed
        let mut settle = 0;
        loop {
            let only_a2 = eng.backlog() == eng.queue_len(e[2]) as u64;
            let front_fresh = eng
                .queue_iter(e[2])
                .next()
                .is_none_or(|p| p.tag == fresh_tag);
            if (only_a2 && front_fresh) || settle > 4 * s {
                break;
            }
            eng.run_quiet(1)?;
            settle += 1;
        }
        let fresh = eng.queue_iter(e[2]).filter(|p| p.tag == fresh_tag).count() as u64;
        let r = rate.as_f64();
        rows.push(E4Row {
            rate: r,
            s,
            fresh_measured: fresh,
            fresh_scheduled: scheduled,
            r_cubed: r * r * r,
            retention: fresh as f64 / s as f64,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E5/E6/E7 — Theorems 4.1/4.3, Corollaries 4.5/4.6.
// ---------------------------------------------------------------------

/// Topologies used by the stability experiments.
pub fn stability_topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("ring-8", topologies::ring(8)),
        ("grid-4x4", topologies::grid(4, 4)),
        ("torus-4x4", topologies::torus(4, 4)),
        ("hypercube-3", topologies::hypercube(3)),
        ("baseball", topologies::baseball().0),
    ]
}

/// One row of experiments E5/E6/E7.
#[derive(Debug, Clone)]
pub struct StabilityRow {
    /// Protocol name.
    pub protocol: String,
    /// Topology name.
    pub topology: String,
    /// Longest route length `d` of the adversary's pool.
    pub d: usize,
    /// Adversary window `w` and rate `r`.
    pub w: u64,
    /// The rate.
    pub rate: f64,
    /// The theorem's per-buffer delay bound (`None` = theorem silent).
    pub bound: Option<u64>,
    /// Measured maximum per-buffer wait.
    pub max_wait: u64,
    /// Measured peak queue length.
    pub max_queue: u64,
    /// Backlog verdict over the run.
    pub verdict: Verdict,
    /// `max_wait <= bound` (vacuously true when the theorem is silent).
    pub bound_respected: bool,
}

/// Core stability run: one (protocol, topology) cell.
#[allow(clippy::too_many_arguments)] // internal helper; the experiment fns are the API
fn stability_cell(
    proto_name: &str,
    topo_name: &str,
    graph: &Graph,
    d: usize,
    w: u64,
    rate: Ratio,
    initial: u64,
    steps: u64,
    seed: u64,
) -> Result<StabilityRow, SimError> {
    let graph = Arc::new(graph.clone());
    let protocol = by_name(proto_name, seed).expect("known protocol");
    let time_priority = protocol.is_time_priority();
    let mut eng = Engine::new(
        Arc::clone(&graph),
        protocol,
        EngineConfig {
            validate: Some(AdversaryModelSpec::window(w, rate)),
            sample_every: (steps / 256).max(1),
            ..Default::default()
        },
    );
    let routes = random_routes(&graph, d, 64, seed);
    let d_actual = routes.iter().map(Route::len).max().unwrap_or(1);
    // Optional S-initial-configuration (E7): `initial` packets on the
    // first candidate route.
    for _ in 0..initial {
        eng.seed(routes[0].clone(), 0)?;
    }
    let mut adv = SaturatingAdversary::new(
        &graph,
        w,
        rate,
        routes,
        InjectionStyle::Burst,
        seed ^ 0x5eed,
    );
    for t in 1..=steps {
        let inj = adv.injections_for(t);
        eng.step(inj)?;
    }
    let bound = StabilityCertificate::with_initial(w, rate, d_actual, initial).bound(time_priority);
    let max_wait = eng.metrics().max_buffer_wait();
    let verdict = classify_series(
        &eng.metrics()
            .series()
            .iter()
            .map(|p| p.backlog)
            .collect::<Vec<_>>(),
    );
    Ok(StabilityRow {
        protocol: proto_name.to_string(),
        topology: topo_name.to_string(),
        d: d_actual,
        w,
        rate: rate.as_f64(),
        bound,
        max_wait,
        max_queue: eng.metrics().max_queue(),
        verdict,
        bound_respected: bound.is_none_or(|b| max_wait <= b),
    })
}

/// E5 — every greedy protocol × topology at `r = 1/(d+1)`: the
/// `⌈wr⌉` bound of Theorem 4.1 must hold.
pub fn e5_greedy_stability(d: usize, w: u64, steps: u64) -> Result<Vec<StabilityRow>, SimError> {
    let rate = Ratio::new(1, d as u64 + 1);
    let mut rows = Vec::new();
    for (topo_name, graph) in stability_topologies() {
        for &p in protocol_names() {
            rows.push(stability_cell(
                p, topo_name, &graph, d, w, rate, 0, steps, 42,
            )?);
        }
    }
    Ok(rows)
}

/// E6 — time-priority protocols (FIFO, LIS) at the higher rate
/// `r = 1/d` (Theorem 4.3), plus non-time-priority controls at the
/// same rate (for which the theorems are silent).
pub fn e6_time_priority(d: usize, w: u64, steps: u64) -> Result<Vec<StabilityRow>, SimError> {
    let rate = Ratio::new(1, d as u64);
    let mut rows = Vec::new();
    for (topo_name, graph) in stability_topologies() {
        for p in ["FIFO", "LIS", "LIFO", "NTG"] {
            rows.push(stability_cell(
                p, topo_name, &graph, d, w, rate, 0, steps, 43,
            )?);
        }
    }
    Ok(rows)
}

/// E7 — S-initial-configurations at `r` strictly below the threshold
/// (Corollaries 4.5/4.6).
pub fn e7_initial_config(
    d: usize,
    w: u64,
    initial: u64,
    steps: u64,
) -> Result<Vec<StabilityRow>, SimError> {
    let rate = Ratio::new(1, d as u64 + 2); // strictly below 1/(d+1)
    let mut rows = Vec::new();
    for (topo_name, graph) in stability_topologies() {
        for p in ["FIFO", "LIS", "FTG", "RANDOM"] {
            rows.push(stability_cell(
                p, topo_name, &graph, d, w, rate, initial, steps, 44,
            )?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E8 — Appendix asymptotics.
// ---------------------------------------------------------------------

/// One row of experiment E8.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// `ε`.
    pub eps: f64,
    /// Chosen gadget length.
    pub n: usize,
    /// Chosen seed floor.
    pub s0: u64,
    /// `log₂(1/ε)` — `n`'s predicted scale (×1…×2 + O(1), eq. (5.5)).
    pub log_inv_eps: f64,
    /// `(1/ε)·log₂(1/ε)` — `S₀`'s predicted scale.
    pub s0_scale: f64,
    /// `n / log₂(1/ε)`.
    pub n_ratio: f64,
    /// `S₀ / ((1/ε) log₂(1/ε))`.
    pub s0_ratio: f64,
}

/// Run E8 over a sweep of `ε = 1/k`.
pub fn e8_asymptotics(denominators: &[u64]) -> Vec<E8Row> {
    denominators
        .iter()
        .map(|&k| {
            let p = GadgetParams::new(1, k);
            let eps = 1.0 / k as f64;
            let log_inv = (k as f64).log2();
            let scale = k as f64 * log_inv;
            E8Row {
                eps,
                n: p.n,
                s0: p.s0,
                log_inv_eps: log_inv,
                s0_scale: scale,
                n_ratio: p.n as f64 / log_inv,
                s0_ratio: p.s0 as f64 / scale,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E9 — our construction vs the baseball-pump baseline.
// ---------------------------------------------------------------------

/// One row of experiment E9.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Rate swept.
    pub rate: f64,
    /// Per-round growth of the baseball pump at this rate.
    pub baseline_growth: f64,
    /// Per-iteration growth of our `G_ε` construction at this rate
    /// (`None` when `r ≤ 1/2`: the construction needs `ε > 0`).
    pub ours_growth: Option<f64>,
}

/// Run E9: sweep rates; at each rate measure the baseline pump's
/// per-round growth and (for `r > 1/2`) our construction's
/// per-iteration growth.
pub fn e9_comparison(
    rates: &[(u64, u64)],
    pump_seed: u64,
    pump_rounds: usize,
    ours_iterations: usize,
) -> Result<Vec<E9Row>, SimError> {
    let mut rows = Vec::new();
    for &(num, den) in rates {
        let rate = Ratio::new(num, den);
        let pump = run_baseball_pump(rate, pump_seed, pump_rounds)?;
        // ours: rate = 1/2 + eps => eps = rate - 1/2
        let ours_growth = if rate > Ratio::new(1, 2) {
            let eps = rate.sub(Ratio::new(1, 2));
            let mut cfg = InstabilityConfig::new(eps.num(), eps.den());
            cfg.iterations = ours_iterations;
            let run = InstabilityConstruction::new(cfg).run()?;
            let series: Vec<f64> = std::iter::once(run.s_star)
                .chain(run.iterations.iter().map(|it| it.s_end))
                .map(|s| s as f64)
                .collect();
            aqt_analysis::stats::geometric_growth(&series)
        } else {
            None
        };
        rows.push(E9Row {
            rate: rate.as_f64(),
            baseline_growth: pump.growth,
            ours_growth,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E13 — sharpness of the ⌈wr⌉ bound around the 1/d threshold.
// ---------------------------------------------------------------------

/// One row of experiment E13.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Longest route length in the pool.
    pub d: usize,
    /// Rate as a multiple of `1/d` (0.6, 0.8, 1.0, 1.2, …).
    pub rate_over_threshold: f64,
    /// The exact rate.
    pub rate: f64,
    /// Theorem 4.3's bound when it applies (`r ≤ 1/d`).
    pub bound: Option<u64>,
    /// Measured max per-buffer wait under FIFO.
    pub max_wait: u64,
    /// Measured peak queue.
    pub max_queue: u64,
}

/// Run E13: FIFO on a torus under bursty saturating `(w,r)` adversaries
/// with `r` swept across the `1/d` threshold. At or below the threshold
/// the `⌈wr⌉` bound must hold (Theorem 4.3); above it the theorems are
/// silent and the measured waits show how the guarantee erodes — the
/// paper's Section 5 argues the `1/d`-type thresholds are within a
/// small constant factor of optimal for route length `d`.
pub fn e13_threshold_sharpness(d: usize, w: u64, steps: u64) -> Result<Vec<E13Row>, SimError> {
    let mut rows = Vec::new();
    // r = f·(1/d) for f ∈ {0.6, 0.8, 1.0, 1.2, 1.5, 2.0} (f = f10/10).
    for f10 in [6u64, 8, 10, 12, 15, 20] {
        let rate = Ratio::new(f10, 10 * d as u64);
        if rate >= Ratio::ONE {
            continue;
        }
        let graph = Arc::new(topologies::torus(4, 4));
        let routes = random_routes(&graph, d, 64, 77);
        let d_actual = routes.iter().map(Route::len).max().unwrap_or(1);
        let mut adv = SaturatingAdversary::new(&graph, w, rate, routes, InjectionStyle::Burst, 78);
        let mut eng = Engine::new(
            Arc::clone(&graph),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::window(w, rate)),
                ..Default::default()
            },
        );
        for t in 1..=steps {
            eng.step(adv.injections_for(t))?;
        }
        let cert = StabilityCertificate::new(w, rate, d_actual);
        let m = eng.metrics();
        rows.push(E13Row {
            d: d_actual,
            rate_over_threshold: f10 as f64 / 10.0,
            rate: rate.as_f64(),
            bound: cert.time_priority_bound(),
            max_wait: m.max_buffer_wait(),
            max_queue: m.max_queue(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E11 — Claim 3.9: old packets cross the thinned path at rates R_i.
// ---------------------------------------------------------------------

/// One row of experiment E11.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Edge index `i` (1-based, as in the paper).
    pub i: usize,
    /// The paper's predicted arrival rate `R_i = (1−r)/(1−r^i)`.
    pub r_i: f64,
    /// Measured old-packet throughput onto `e'_i`'s tail, as a rate
    /// over the stage (old arrivals ÷ 2S).
    pub measured: f64,
}

/// Run E11: seed `C(S, F)` on `F_n²`, run the Lemma 3.6 adversary, and
/// measure — per internal edge `e'_i` — how many *old* packets arrived
/// at its tail during the stage. Claim 3.9 predicts `2S·R_i` arrivals
/// (rate `R_i` during `[i+1, 2S+i]`).
///
/// Old arrivals at the tail of `e'_i` equal the crossings of the
/// predecessor edge (`a'` for `i = 1`, else `e'_{i-1}`) minus the
/// thinning singles that crossed it — and singles cross exactly once
/// each, so their count is the number injected on that edge.
pub fn e11_thinning_rates(
    eps_num: u64,
    eps_den: u64,
    s_multiplier: f64,
) -> Result<Vec<E11Row>, SimError> {
    let params = GadgetParams::new(eps_num, eps_den);
    let chain = DaisyChain::new(params.n, 2);
    let graph = Arc::new(chain.graph.clone());
    let s = ((params.s0 as f64) * s_multiplier).ceil() as u64;
    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::rate(params.rate)),
            validate_reroutes: true,
            ..Default::default()
        },
    );
    seed_c_invariant(&mut eng, &graph, &chain.gadgets[0], s)?;
    let step = lemma36::build(
        &graph,
        &chain.gadgets[0],
        &chain.gadgets[1],
        &params,
        s,
        0,
        8,
    )?;
    step.schedule.replay(&mut eng, step.finish)?;

    let from = &chain.gadgets[0];
    let to = &chain.gadgets[1];
    let mut rows = Vec::with_capacity(params.n);
    for i in 1..=params.n {
        // predecessor of e'_i on the old packets' path
        let pred = if i == 1 {
            from.egress
        } else {
            to.e_path[i - 2]
        };
        let crossings = eng.metrics().crossings(pred);
        let singles_crossed = if i == 1 {
            0 // a' carries no thinning singles
        } else {
            params.rate.floor_mul(params.t_i(s, i - 1) + 1)
        };
        let old_arrivals = crossings.saturating_sub(singles_crossed);
        rows.push(E11Row {
            i,
            r_i: params.r_i(i),
            measured: old_arrivals as f64 / (2.0 * s as f64),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E12 — ablation: the boundary-settling design choice.
// ---------------------------------------------------------------------

/// One row of experiment E12.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Was inter-stage settling enabled?
    pub settle: bool,
    /// `S₀` safety factor used.
    pub s0_safety: f64,
    /// Fresh-queue series across iterations.
    pub s_series: Vec<u64>,
    /// Did the run diverge (every iteration grew)?
    pub diverged: bool,
}

/// Run E12: the same construction with and without the inter-stage
/// settling pass (and across `S₀` safety factors). Without settling,
/// the exact-arithmetic lag compounds down the chain and long chains
/// collapse — the measured justification for the design choice
/// documented in `aqt_core::instability`.
pub fn e12_settling_ablation(
    eps_num: u64,
    eps_den: u64,
    iterations: usize,
) -> Result<Vec<E12Row>, SimError> {
    let mut rows = Vec::new();
    for (settle, s0_safety) in [(true, 2.0), (true, 3.0), (false, 2.0), (false, 3.0)] {
        let mut cfg = InstabilityConfig::new(eps_num, eps_den);
        cfg.iterations = iterations;
        cfg.settle = settle;
        cfg.s0_safety = s0_safety;
        let run = InstabilityConstruction::new(cfg).run()?;
        let mut s_series = vec![run.s_star];
        s_series.extend(run.iterations.iter().map(|it| it.s_end));
        rows.push(E12Row {
            settle,
            s0_safety,
            s_series,
            diverged: run.diverged,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E10 — protocol landscape: replay the FIFO-tuned adversary.
// ---------------------------------------------------------------------

/// One row of experiment E10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E10Row {
    /// Protocol the recorded adversary was replayed against.
    pub protocol: String,
    /// Final backlog.
    pub final_backlog: u64,
    /// Peak backlog.
    pub max_backlog: u64,
    /// Verdict over the backlog series.
    pub verdict: Verdict,
}

/// Run E10: record the Theorem 3.17 adversary against FIFO, then
/// replay the identical operation sequence against every protocol.
///
/// The replay is mechanical: injections are identical; the Lemma 3.3
/// route extensions are re-applied to whatever packets sit in the same
/// buffers (for non-historic protocols the lemma gives no legality
/// guarantee, so the replays run without *reroute* validation — the
/// point is the *behavioral* contrast: the adversary is tuned to
/// FIFO's scheduling rule and universally stable protocols shrug it
/// off). The injection stream, however, is protocol-independent, so
/// every replay engine re-validates it against the construction's
/// identity model `rate(1/2 + ε)` — the `EngineConfig::validate`
/// convention every other experiment follows.
///
/// `cfg` sets the construction's scale. Replays against LIS/NIS/FTG/…
/// scan whole buffers per step, so large constructions are quadratic
/// for them; tests pass a reduced config.
///
/// Replays carry the construction's identity model `rate(1/2 + ε)` in
/// `EngineConfig::validate`; validation can only reject illegal
/// injections, and the recorded stream is legal by construction, so
/// the rows are identical to an unvalidated replay
/// ([`e10_landscape_with_model`] with `None` — pinned by
/// `tests/instability.rs`).
pub fn e10_landscape_with(cfg: InstabilityConfig) -> Result<Vec<E10Row>, SimError> {
    let rate = GadgetParams::new(cfg.eps_num, cfg.eps_den).rate;
    e10_landscape_with_model(cfg, Some(AdversaryModelSpec::rate(rate)))
}

/// [`e10_landscape_with`], with explicit control over the adversary
/// model the replay engines validate injections against (`None` = no
/// validation — the pre-model behavior, kept for the identity
/// comparison).
pub fn e10_landscape_with_model(
    mut cfg: InstabilityConfig,
    validate: Option<AdversaryModelSpec>,
) -> Result<Vec<E10Row>, SimError> {
    cfg.record_ops = true;
    let construction = InstabilityConstruction::new(cfg);
    let run = construction.run()?;
    let horizon = run.total_steps;
    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();

    let mut rows = Vec::new();
    for &p in protocol_names() {
        let protocol = by_name(p, 7).expect("known protocol");
        let mut eng = Engine::new(
            Arc::clone(&graph),
            protocol,
            EngineConfig {
                sample_every: (horizon / 256).max(1),
                validate: validate.clone(),
                ..Default::default()
            },
        );
        let unit = Route::single(&graph, ingress)?;
        for _ in 0..run.s_star {
            eng.seed(unit.clone(), 0)?;
        }
        run.recorded.replay(&mut eng, horizon)?;
        let series: Vec<u64> = eng.metrics().series().iter().map(|s| s.backlog).collect();
        rows.push(E10Row {
            protocol: p.to_string(),
            final_backlog: eng.backlog(),
            max_backlog: series.iter().copied().max().unwrap_or(eng.backlog()),
            verdict: classify_series(&series),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E14 — fault injection & recovery (Observation 4.4, Cor. 4.5/4.6).
// ---------------------------------------------------------------------

/// One row of experiment E14.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Protocol name.
    pub protocol: String,
    /// Topology name.
    pub topology: String,
    /// Fault scenario (`"burst"` or `"outage"`).
    pub scenario: String,
    /// Backlog right after the fault window — the corollary's `S`.
    pub s_fault: u64,
    /// Observation 4.4's `w*` for this protocol class (`None` = the
    /// rate is not strictly below the class threshold).
    pub recovery_horizon: Option<u64>,
    /// The Corollary 4.5/4.6 per-buffer wait bound `⌈w*/k⌉`.
    pub recovery_bound: Option<u64>,
    /// Max per-buffer wait measured after the fault window (the peak
    /// metrics are reset when the window closes).
    pub post_fault_max_wait: u64,
    /// Steps after the fault window until the backlog first returned
    /// to its pre-fault level (`None` = not within the horizon run).
    pub resettle_delay: Option<u64>,
    /// Conservation books balance: `injected + duplicated` equals
    /// `absorbed + dropped +` live packets summed over the buffers.
    pub conservation_ok: bool,
    /// Fault events the engine actually logged.
    pub faults_logged: usize,
    /// The scenario's bound check — burst: post-fault max wait within
    /// `⌈w*/k⌉`; outage: re-settling delay within `w*`.
    pub bound_respected: bool,
}

/// One E14 cell: drive `protocol` on `graph` under a validated `(w,r)`
/// adversary with the fault `plan` installed, and measure recovery
/// after the fault window `[fault_start, fault_end]` closes.
#[allow(clippy::too_many_arguments)] // internal helper; the experiment fn is the API
fn e14_cell(
    proto_name: &str,
    topo_name: &str,
    graph: &Graph,
    scenario: &str,
    plan: FaultPlan,
    fault_start: Time,
    fault_end: Time,
    d: usize,
    w: u64,
    rate: Ratio,
    post_steps: u64,
    seed: u64,
) -> Result<E14Row, SimError> {
    let graph = Arc::new(graph.clone());
    let protocol = by_name(proto_name, seed).expect("known protocol");
    let time_priority = protocol.is_time_priority();
    let mut eng = Engine::new(
        Arc::clone(&graph),
        protocol,
        EngineConfig {
            validate: Some(AdversaryModelSpec::window(w, rate)),
            ..Default::default()
        },
    );
    eng.install_faults(plan)?;
    let routes = random_routes(&graph, d, 64, seed);
    let d_actual = routes.iter().map(Route::len).max().unwrap_or(1);
    let mut adv = SaturatingAdversary::new(
        &graph,
        w,
        rate,
        routes,
        InjectionStyle::Burst,
        seed ^ 0x5eed,
    );

    // Steady state, then through the fault window (the adversary keeps
    // injecting at its legal rate throughout).
    let mut baseline = 0u64;
    for t in 1..=fault_end {
        if t == fault_start {
            baseline = eng.backlog();
        }
        eng.step(adv.injections_for(t))?;
    }
    // The fault window just closed: the surviving backlog is the
    // corollary's S-initial-configuration. Reset the peak metrics so
    // the post-fault waits are measured in isolation.
    let s_fault = eng.backlog();
    eng.reset_peak_metrics();

    let mut resettle_delay = None;
    for k in 1..=post_steps {
        eng.step(adv.injections_for(fault_end + k))?;
        if resettle_delay.is_none() && eng.backlog() <= baseline {
            resettle_delay = Some(k);
        }
    }

    let cert = StabilityCertificate::with_initial(w, rate, d_actual, s_fault);
    let recovery_horizon = cert.recovery_horizon(time_priority);
    let recovery_bound = cert.bound(time_priority);
    let post_fault_max_wait = eng.metrics().max_buffer_wait();
    let live: u64 = graph.edge_ids().map(|e| eng.queue_len(e) as u64).sum();
    let m = eng.metrics();
    let conservation_ok = m.injected() + m.duplicated() == m.absorbed() + m.dropped() + live;
    let bound_respected = match scenario {
        "burst" => recovery_bound.is_none_or(|b| post_fault_max_wait <= b),
        _ => recovery_horizon.is_none_or(|h| resettle_delay.is_some_and(|delay| delay <= h)),
    };
    Ok(E14Row {
        protocol: proto_name.to_string(),
        topology: topo_name.to_string(),
        scenario: scenario.to_string(),
        s_fault,
        recovery_horizon,
        recovery_bound,
        post_fault_max_wait,
        resettle_delay,
        conservation_ok,
        faults_logged: eng.fault_log().len(),
        bound_respected,
    })
}

/// E14 — fault recovery. A system running stably at `r = 1/(d+2)`
/// (strictly below both class thresholds) is hit mid-run by faults;
/// Observation 4.4 with `S` = the post-fault backlog then promises the
/// system re-settles within `w* = ⌈(S+w+1)/(r*−r)⌉` steps, with
/// per-buffer waits inside the Corollary 4.5/4.6 bound `⌈w*/k⌉`.
///
/// Two scenarios per (protocol, topology) cell, each also carrying a
/// drop and a duplication fault so the conservation law
/// (`injected + duplicated = absorbed + dropped + backlog`) is
/// exercised:
///
/// * **burst** — an `S`-burst materializes mid-run (validator
///   bypassed); the post-fault *max buffer wait* must respect
///   `⌈w*/k⌉`.
/// * **outage** — an edge goes silent for a window, backing traffic
///   up behind it; the *re-settling delay* (backlog back at its
///   pre-fault level) must respect `w*`.
pub fn e14_fault_recovery(d: usize, w: u64) -> Result<Vec<E14Row>, SimError> {
    let rate = Ratio::new(1, d as u64 + 2);
    let t_fault: Time = 600;
    let outage_len: Time = 40;
    let post_steps = 6000;
    let mut rows = Vec::new();
    for (topo_name, graph) in [
        ("ring-8", topologies::ring(8)),
        ("grid-4x4", topologies::grid(4, 4)),
    ] {
        let edges: Vec<EdgeId> = graph.edge_ids().collect();
        for p in ["FIFO", "LIS", "FTG"] {
            let routes = random_routes(&graph, d, 64, 7);
            let burst: Vec<Injection> = (0..48)
                .map(|i| Injection::new(routes[i % routes.len()].clone(), 9000))
                .collect();
            let plan = FaultPlan::new()
                .with_burst(t_fault, burst)
                .with_drop(edges[0], t_fault)
                .with_duplicate(edges[1 % edges.len()], t_fault);
            rows.push(e14_cell(
                p, topo_name, &graph, "burst", plan, t_fault, t_fault, d, w, rate, post_steps, 7,
            )?);

            let plan = FaultPlan::new()
                .with_outage(edges[0], t_fault, t_fault + outage_len - 1)
                .with_drop(edges[1 % edges.len()], t_fault + 5)
                .with_duplicate(edges[2 % edges.len()], t_fault + 6);
            rows.push(e14_cell(
                p,
                topo_name,
                &graph,
                "outage",
                plan,
                t_fault,
                t_fault + outage_len - 1,
                d,
                w,
                rate,
                post_steps,
                7,
            )?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E16 — threshold survival across composed adversary models.
// ---------------------------------------------------------------------

/// One row of experiment E16.
#[derive(Debug, Clone)]
pub struct E16Row {
    /// Human-readable model (the `Display` of its spec).
    pub model: String,
    /// [`AdversaryModelSpec::fingerprint`] of the model — the same
    /// value stamped into the provenance of every telemetry record the
    /// run emitted, so the JSONL stream joins back to this row.
    pub model_fingerprint: u64,
    /// Protocol name.
    pub protocol: String,
    /// Rate factor `f`: the nominal rate is `r = f · 1/(d+1)`.
    pub rate_factor: f64,
    /// The model's tightest long-run per-edge rate (1.0 for a pure
    /// buffer-bound model, which caps bursts but not throughput).
    pub long_run_rate: f64,
    /// Theorem 4.1's `⌈wr⌉` bound when it applies to this model —
    /// i.e. when the model contains the `(w, r)` member with
    /// `r ≤ 1/(d+1)`. `None` where the theorems are silent.
    pub bound: Option<u64>,
    /// Measured max per-buffer wait.
    pub max_wait: u64,
    /// Measured peak queue length.
    pub max_queue: u64,
    /// Backlog verdict over the run.
    pub verdict: Verdict,
    /// Whether the paper's threshold result survives under this model:
    /// the backlog did not diverge and the bound (when one applies)
    /// held.
    pub survives: bool,
}

/// The adversary-constraint models E16 sweeps at window `w` and
/// nominal rate `r`: the identity `(w, r)` composition (exactly the
/// model every earlier stability experiment validated against), each
/// of the three new members alone, and the full three-way composition.
pub fn e16_models(w: u64, rate: Ratio) -> Vec<(&'static str, AdversaryModelSpec)> {
    let burst = ConstraintSpec::BurstLocal {
        rho: rate,
        sigma: 2,
        locality: w,
    };
    let buffer = ConstraintSpec::BufferBound { bound: 2 };
    vec![
        ("window", AdversaryModelSpec::window(w, rate)),
        ("rate", AdversaryModelSpec::rate(rate)),
        ("burst-local", AdversaryModelSpec::new(vec![burst])),
        ("buffer-bound", AdversaryModelSpec::new(vec![buffer])),
        (
            "composed",
            AdversaryModelSpec::window(w, rate).and(burst).and(buffer),
        ),
    ]
}

/// Run E16: the protocol-landscape threshold mapping re-run under each
/// constraint model of [`e16_models`]. For every model × protocol ×
/// rate-factor cell a saturating adversary drives the model to its
/// admissible ceiling (the engine re-validates the same spec), and the
/// row reports whether the paper's `r ≤ 1/(d+1)` stability result
/// survives.
///
/// Expected shape: the identity `(w, r)` composition reproduces the
/// paper's thresholds; `rate` and `burst-local` keep the same long-run
/// rate and stay stable at `f ≤ 1`; `buffer-bound` alone bounds bursts
/// but not throughput (long-run rate 1), so the threshold result does
/// *not* survive; the three-way composition is strictly tighter than
/// the identity and survives wherever it does.
///
/// When `sink` is given, every run streams counter telemetry into it;
/// each record's provenance carries the model fingerprint (filled in
/// by [`Engine::attach_telemetry`] from the validating model), so the
/// JSONL stream is a per-model threshold table keyed by
/// `model_fingerprint`.
pub fn e16_model_landscape(
    d: usize,
    w: u64,
    steps: u64,
    sink: Option<&SharedSink>,
) -> Result<Vec<E16Row>, SimError> {
    let graph = Arc::new(topologies::torus(4, 4));
    let mut rows = Vec::new();
    // f = f10/10 sweeps the nominal rate across the 1/(d+1) threshold.
    for f10 in [8u64, 10, 12] {
        let rate = Ratio::new(f10, 10 * (d as u64 + 1));
        if rate >= Ratio::ONE {
            continue;
        }
        for (name, spec) in e16_models(w, rate) {
            for proto in ["FIFO", "LIS", "NTG"] {
                let seed = 1600 + f10;
                let protocol = by_name(proto, seed).expect("known protocol");
                let mut eng = Engine::new(
                    Arc::clone(&graph),
                    protocol,
                    EngineConfig {
                        validate: Some(spec.clone()),
                        sample_every: (steps / 256).max(1),
                        ..Default::default()
                    },
                );
                if let Some(sink) = sink {
                    eng.attach_telemetry(TelemetryConfig {
                        window: steps,
                        provenance: Provenance {
                            seed: Some(seed),
                            protocol: proto.to_string(),
                            ..Default::default()
                        },
                        ..Default::default()
                    });
                    eng.set_telemetry_sink(Box::new(sink.clone()));
                }
                // A modest pool keeps the buffer-bound arm (long-run
                // rate 1) from swamping the run.
                let routes = random_routes(&graph, d, 24, seed);
                let d_actual = routes.iter().map(Route::len).max().unwrap_or(1);
                let mut adv = SaturatingAdversary::with_model(
                    &graph,
                    &spec,
                    routes,
                    InjectionStyle::Burst,
                    seed ^ 0xe16,
                );
                for t in 1..=steps {
                    eng.step(adv.injections_for(t))?;
                }
                let has_window_member = spec
                    .members
                    .iter()
                    .any(|m| matches!(m, ConstraintSpec::Window { .. }));
                let bound = (has_window_member && f10 <= 10)
                    .then(|| StabilityCertificate::new(w, rate, d_actual).greedy_bound())
                    .flatten();
                let m = eng.metrics();
                let max_wait = m.max_buffer_wait();
                let verdict =
                    classify_series(&m.series().iter().map(|p| p.backlog).collect::<Vec<_>>());
                rows.push(E16Row {
                    model: name.to_string(),
                    model_fingerprint: spec.fingerprint(),
                    protocol: proto.to_string(),
                    rate_factor: f10 as f64 / 10.0,
                    long_run_rate: spec.long_run_rate().map_or(1.0, |r| r.as_f64()),
                    bound,
                    max_wait,
                    max_queue: m.max_queue(),
                    verdict,
                    survives: verdict != Verdict::Diverging && bound.is_none_or(|b| max_wait <= b),
                });
            }
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E17 — closed-loop congestion collapse: timeout × retry × queue bound.
// ---------------------------------------------------------------------

/// One cell of the E17 closed-loop sweep.
#[derive(Debug, Clone)]
pub struct E17Row {
    /// Shed / service-order discipline of the admission queue.
    pub shed: &'static str,
    /// Client retry policy.
    pub retry: &'static str,
    /// Client timeout (steps).
    pub timeout: Time,
    /// Admission-queue bound.
    pub capacity: u32,
    /// Attempts issued in the measurement window (post-outage).
    pub offered: u64,
    /// On-time completions in the measurement window.
    pub goodput: u64,
    /// Stale completions (work done for clients that moved on).
    pub wasted: u64,
    /// Requests terminally shed or abandoned in the window.
    pub failed: u64,
    /// `goodput / offered` over the window (1.0 when nothing was
    /// offered).
    pub goodput_ratio: f64,
    /// The collapse verdict: less than half the offered load became
    /// goodput.
    pub collapsed: bool,
}

/// The closed-loop configuration E17 sweeps: a fixed healthy client
/// population (the open-loop demand is ~0.6 of the path's unit
/// capacity) hit by a deterministic service outage, with `timeout`,
/// `retry`, queue `capacity`, and `shed` as the swept knobs.
pub fn e17_config(
    timeout: Time,
    capacity: u32,
    retry: RetryPolicy,
    shed: Shed,
    seed: u64,
) -> ClosedLoopConfig {
    ClosedLoopConfig {
        seed,
        clients: ClientConfig {
            num_clients: 8,
            think_time: 8,
            timeout,
            max_attempts: 8,
            retry,
        },
        service: ServicePolicy {
            capacity,
            shed,
            // The spark: a 30-step outage. Whether the system returns
            // to health afterwards — or stays collapsed serving stale
            // work forever — is exactly what the cell measures.
            pause: Some((40, 70)),
        },
        path_len: 2,
        // The realized closed-loop injections are validated like any
        // open-loop adversary: at most one dispatch per step, i.e.
        // within the rate-1 model.
        validate: Some(AdversaryModelSpec::rate(Ratio::ONE)),
        window: 0,
    }
}

/// Run E17: map the goodput-collapse frontier over timeout ×
/// retry-policy × queue-bound × shed-discipline. Each cell runs the
/// same deterministic outage scenario; goodput is measured from step
/// `horizon/4` (well after the outage clears) to `horizon`, so the
/// ratio captures the *steady state* the feedback loop settles into,
/// not the transient.
///
/// Expected shape (the congestion-collapse frontier): with FIFO
/// service and immediate retries, any timeout below the full-queue
/// round trip (`capacity + path`) locks the system into serving only
/// stale work — goodput collapses below 50% of offered load and stays
/// there. LIFO service or deadline-drop shedding break the loop
/// (fresh work is served within its deadline) and recover ≥ 90%.
/// Every run enforces the request-conservation sentinel invariant.
pub fn e17_closed_loop(horizon: Time) -> Result<Vec<E17Row>, SimError> {
    let mut rows = Vec::new();
    let retries = [
        RetryPolicy::Immediate,
        RetryPolicy::ExpBackoff { base: 4, cap: 32 },
    ];
    let sheds = [
        Shed::RejectNewest,
        Shed::RejectOldest,
        Shed::LifoFlip,
        Shed::DeadlineDrop,
    ];
    for &timeout in &[5u64, 12] {
        for &capacity in &[8u32, 16] {
            for &retry in &retries {
                for &shed in &sheds {
                    rows.push(e17_cell(
                        e17_config(timeout, capacity, retry, shed, 1700),
                        horizon,
                    )?);
                }
            }
        }
    }
    Ok(rows)
}

/// Run one E17 cell and measure its steady-state goodput split.
fn e17_cell(cfg: ClosedLoopConfig, horizon: Time) -> Result<E17Row, SimError> {
    let measure_from = horizon / 4;
    let mut cl = ClosedLoop::on_line(cfg.clone());
    cl.run(measure_from)?;
    let base = cl.counters();
    cl.run(horizon)?;
    let end = cl.counters();
    let offered = GoodputMeter::offered_delta(&base, &end);
    let goodput = GoodputMeter::goodput_delta(&base, &end);
    let wasted = GoodputMeter::wasted_delta(&base, &end);
    let failed = (end.requests_abandoned - base.requests_abandoned)
        + (end.requests_shed - base.requests_shed);
    let goodput_ratio = if offered == 0 {
        1.0
    } else {
        goodput as f64 / offered as f64
    };
    Ok(E17Row {
        shed: cfg.service.shed.name(),
        retry: cfg.clients.retry.name(),
        timeout: cfg.clients.timeout,
        capacity: cfg.service.capacity,
        offered,
        goodput,
        wasted,
        failed,
        goodput_ratio,
        collapsed: goodput_ratio < 0.5,
    })
}

/// The E17 headline in one call: the collapse cell (short timeout,
/// FIFO, immediate retry) next to the two recovery disciplines at
/// identical parameters, plus the determinism evidence — the collapse
/// run repeated from its seed is bit-identical, and its realized
/// injection schedule replayed open-loop reproduces the same absorbed
/// count.
pub fn e17_collapse_demo(horizon: Time) -> Result<(Vec<E17Row>, bool), SimError> {
    let cell = |shed| e17_config(5, 16, RetryPolicy::Immediate, shed, 1700);
    let rows = vec![
        e17_cell(cell(Shed::RejectNewest), horizon)?,
        e17_cell(cell(Shed::LifoFlip), horizon)?,
        e17_cell(cell(Shed::DeadlineDrop), horizon)?,
    ];

    // Determinism evidence for the collapse cell.
    let mut a = ClosedLoop::on_line(cell(Shed::RejectNewest));
    let mut b = ClosedLoop::on_line(cell(Shed::RejectNewest));
    a.run(horizon)?;
    b.run(horizon)?;
    let bit_identical = a.counters() == b.counters()
        && a.state() == b.state()
        && a.realized().content_hash() == b.realized().content_hash();

    // Open-loop replay: the realized schedule drives a fresh engine to
    // the same absorption count.
    let graph = Arc::new(topologies::line(a.config().path_len as usize));
    let mut open = Engine::new(
        graph,
        Fifo,
        EngineConfig {
            validate: a.config().validate.clone(),
            ..Default::default()
        },
    );
    a.realized().replay(&mut open, a.engine().time())?;
    let replay_identical = open.metrics().absorbed() == a.engine().metrics().absorbed()
        && open.metrics().injected() == a.engine().metrics().injected();

    Ok((rows, bit_identical && replay_identical))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_covers_the_headlines() {
        let mut sections = Vec::new();
        crate::report::run(crate::report::Scale::Reduced, None, None, |id, s| {
            sections.push((id, s))
        })
        .expect("legal");
        let ids: Vec<_> = sections.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 16, "E1–E14, E16, E17: {ids:?}");
        assert!(sections
            .iter()
            .all(|(_, s)| s.tables.iter().all(|t| !t.is_empty())));
        // E1's one row: `diverged` is the only boolean column.
        let e1 = sections[0].1.render();
        assert!(e1.contains("Theorem 3.17"));
        let row = e1.lines().nth(4).expect("E1 row");
        assert!(row.split_whitespace().any(|cell| cell == "true"), "{e1}");
    }

    #[test]
    fn e8_runs_and_scales() {
        let rows = e8_asymptotics(&[8, 16, 32, 64]);
        assert_eq!(rows.len(), 4);
        // n grows with 1/eps
        assert!(rows.windows(2).all(|w| w[1].n >= w[0].n));
        assert!(rows.windows(2).all(|w| w[1].s0 > w[0].s0));
    }

    #[test]
    fn e4_stitch_retains_about_r_cubed() {
        let rows = e4_stitch(&[(3, 5), (3, 4), (9, 10)], 400).expect("legal");
        for row in &rows {
            assert_eq!(row.fresh_measured, row.fresh_scheduled);
            let rel = row.retention / row.r_cubed;
            assert!(
                (0.9..=1.1).contains(&rel),
                "retention {} vs r³ {} at r={}",
                row.retention,
                row.r_cubed,
                row.rate
            );
        }
    }

    #[test]
    fn e5_bounds_hold_small() {
        let rows = e5_greedy_stability(3, 12, 4000).expect("legal");
        for row in &rows {
            assert!(
                row.bound_respected,
                "{} on {}: wait {} > bound {:?}",
                row.protocol, row.topology, row.max_wait, row.bound
            );
            assert_ne!(row.verdict, Verdict::Diverging, "{row:?}");
        }
    }

    #[test]
    fn e16_identity_model_reproduces_thresholds() {
        use std::io::Write;
        use std::sync::Mutex;

        use aqt_sim::JsonlSink;

        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = SharedSink::new(JsonlSink::from_writer(Shared(Arc::clone(&buf))));
        let rows = e16_model_landscape(3, 12, 1200, Some(&sink)).expect("legal");
        sink.flush();
        // 5 models × 3 protocols × 3 rate factors.
        assert_eq!(rows.len(), 45);
        for row in rows.iter().filter(|r| r.rate_factor <= 1.0) {
            // The paper's threshold results survive under the identity
            // (w, r) composition and under every model at least as
            // tight with the same long-run rate.
            if row.model != "buffer-bound" {
                assert!(
                    row.survives,
                    "{} under {} at f={}: wait {} vs bound {:?} ({:?})",
                    row.protocol, row.model, row.rate_factor, row.max_wait, row.bound, row.verdict
                );
            }
            // Buffer-bound alone has no throughput cap.
            if row.model == "buffer-bound" {
                assert_eq!(row.long_run_rate, 1.0);
            } else {
                assert!(row.long_run_rate < 0.5);
            }
        }
        // Models carry distinct fingerprints per rate factor — except
        // buffer-bound, which is rate-independent: 4 models × 3 rates
        // + 1.
        let fps: std::collections::BTreeSet<u64> =
            rows.iter().map(|r| r.model_fingerprint).collect();
        assert_eq!(fps.len(), 13);
        // The JSONL stream is a per-model table: every emitted record
        // carries the fingerprint of the model its run validated
        // against (auto-filled by `attach_telemetry`), so the stream
        // joins back to the rows.
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(!text.is_empty());
        for fp in &fps {
            assert!(
                text.contains(&format!("\"model_fingerprint\":{fp}")),
                "telemetry stream is missing model fingerprint {fp:#x}"
            );
        }
        assert!(!text.contains("\"model_fingerprint\":null"));
    }

    #[test]
    fn e2_amplifies_small() {
        let rows = e2_gadget_amplification(&[(1, 4)], &[2.0]).expect("legal");
        let row = &rows[0];
        assert!(
            row.amp_measured >= row.amp_promised * 0.97,
            "measured amplification {} below promised {} (S={}, S'={})",
            row.amp_measured,
            row.amp_promised,
            row.s,
            row.s_prime_measured
        );
    }

    #[test]
    fn e3_bootstrap_small() {
        let rows = e3_bootstrap(&[(1, 4)], &[2.0]).expect("legal");
        let row = &rows[0];
        assert!(
            row.amp_measured >= row.amp_promised * 0.97,
            "bootstrap amplification {} below promised {}",
            row.amp_measured,
            row.amp_promised
        );
    }
}
