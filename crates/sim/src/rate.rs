//! The adversary-constraint algebra: exact, composable validation of
//! injection sequences.
//!
//! The paper states its results against two adversary classes — the
//! rate-r adversary (Section 2, following \[4\]) and the `(w,r)`
//! adversary (Definition 2.1) — but the related work this repository
//! tracks adds more: the locally bursty `(ρ,σ,L)` adversary of
//! Rosenbaum and the buffer-bounded adversary of Miller–Patt-Shamir.
//! Each is "one more constraint on the injection sequence", so this
//! module treats them as such: a [`Constraint`] is an exact,
//! incremental checker of one constraint class, a [`ConstraintSpec`]
//! is its plain-data description, and an [`AdversaryModel`] is the
//! conjunction (`All` / `∘` composition) of any number of members. An
//! injection sequence is legal for a model iff it is legal for every
//! member.
//!
//! The members:
//!
//! * **`Rate(r)`** — for every time interval of length `ℓ` and every
//!   edge `e`, at most `⌈r·ℓ⌉` injected packets require `e`.
//! * **`Window(w, r)`** — for every window of `w` consecutive steps and
//!   every edge, at most `⌊w·r⌋` injected packets require it.
//! * **`BurstLocal(ρ, σ, L)`** — for every interval `I` and every edge,
//!   at most `ρ·max(|I|, L) + σ` injected packets require it
//!   (Rosenbaum's locally bursty refinement of the classic `(ρ,σ)`
//!   leaky bucket; `L = 1` degenerates to `(ρ,σ)`).
//! * **`BufferBound(B)`** — for every interval `I` and every edge, at
//!   most `|I| + B` injected packets require it: the rate-1,
//!   additive-slack-`B` class under which Miller–Patt-Shamir study
//!   `B`-bounded buffers.
//!
//! All validators are *exact* (integer arithmetic via [`Ratio`]) and
//! *incremental*: `O(1)` amortized per (edge, injection) event, which
//! lets every experiment in this repository run with validation on.
//! Each has a brute-force all-intervals reference checker, and the
//! `tests/validators.rs` proptests pin the equivalence.
//!
//! ## How the rate-r check is O(1)
//!
//! Fix an edge and let `t_0 ≤ t_1 ≤ …` be the injection times of
//! packets requiring it. The constraint is
//!
//! ```text
//! ∀ i ≤ j :  (j − i + 1) ≤ ⌈r·(t_j − t_i + 1)⌉.
//! ```
//!
//! For an integer `c` and real `x`, `c ≤ ⌈x⌉ ⇔ x > c − 1`; with
//! `r = num/den` the constraint becomes
//! `num·(t_j − t_i + 1) > den·(j − i)`, i.e. with the potential
//! `H_k = den·k − num·t_k`:
//!
//! ```text
//! ∀ i ≤ j :  H_j − H_i < num.
//! ```
//!
//! So it suffices to maintain `min_{i ≤ j} H_i` per edge.
//!
//! ## How the `(ρ,σ,L)` check is O(1) amortized
//!
//! It suffices to check intervals whose endpoints are injection times
//! (shrinking an interval to its first/last injection keeps the count
//! and never raises the budget). Those pairs split exactly in two:
//!
//! * **`t_i ≥ t_j − L + 1`** (interval length ≤ `L`): the budget is
//!   the constant `⌊ρL⌋ + σ`, so a sliding window of length `L`
//!   suffices — identical machinery to [`WindowValidator`].
//! * **`t_i ≤ t_j − L`** (length > `L`): with `ρ = num/den` and the
//!   same potential `H_k = den·k − num·t_k`, the constraint
//!   `den·(j−i+1) ≤ num·(t_j−t_i+1) + den·σ` rearranges to
//!   `H_j − H_i ≤ den·(σ−1) + num`. Entries older than the sliding
//!   window migrate into a running `min H` as they age out, so each
//!   entry is touched twice — `O(1)` amortized.
//!
//! The [`BufferBoundValidator`] is the `ρ = 1, σ = B, L = 1` corner:
//! `N ≤ |I| + B ⇔ G_j − G_i ≤ B` for `G_k = k − t_k`, one running
//! minimum per edge.

use aqt_graph::EdgeId;

use crate::packet::Time;
use crate::ratio::Ratio;
use crate::routes::fnv1a_u64s;

/// A detected violation of an adversary constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateViolation {
    /// The overloaded edge.
    pub edge: EdgeId,
    /// Time of the injection that broke the constraint.
    pub time: Time,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for RateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "adversary constraint violated on edge {} at time {}: {}",
            self.edge, self.time, self.detail
        )
    }
}

impl std::error::Error for RateViolation {}

/// One incremental adversary-constraint checker.
///
/// Implementations observe the stream of (edge, time) injection events
/// — one event per route edge per injected packet — and reject the
/// first event that breaks their constraint. Times must be
/// non-decreasing **per edge** (the engine guarantees this; the
/// rerouting path sorts its cohorts).
///
/// The contract shared by every implementation:
///
/// * `observe` is exact: it accepts precisely the prefixes its
///   brute-force reference accepts (pinned per member by the
///   `tests/validators.rs` proptests);
/// * `observe` is `O(1)` amortized per event;
/// * `headroom(e, t)` is the largest `m` such that `m` further
///   `observe(e, t)` calls would all succeed — the saturating
///   adversary builders inject exactly this much.
pub trait Constraint {
    /// Record that a packet requiring `edge` was injected at `time`.
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation>;

    /// Record an entire route injected at `time`.
    fn observe_route(&mut self, route: &[EdgeId], time: Time) -> Result<(), RateViolation> {
        for &e in route {
            self.observe(e, time)?;
        }
        Ok(())
    }

    /// How many more packets requiring `edge` could be injected at
    /// `time` without breaking the constraint.
    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64;
}

// ---------------------------------------------------------------------
// Specs: the plain-data algebra.
// ---------------------------------------------------------------------

/// A plain-data description of one constraint member. Copyable,
/// hashable (via [`ConstraintSpec::words`]), buildable into its
/// incremental validator — the form in which constraints travel
/// through engine configuration, checkpoints, and campaign scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSpec {
    /// The rate-`r` adversary: `≤ ⌈r·ℓ⌉` per interval of length `ℓ`.
    Rate(Ratio),
    /// The `(w, r)` adversary of Definition 2.1: `≤ ⌊w·r⌋` per window
    /// of `w` consecutive steps.
    Window {
        /// Window length `w ≥ 1`.
        window: u64,
        /// Rate `r ∈ (0, 1]`.
        rate: Ratio,
    },
    /// Rosenbaum's locally bursty `(ρ, σ, L)` adversary:
    /// `≤ ρ·max(|I|, L) + σ` per interval `I`.
    BurstLocal {
        /// Long-run rate `ρ ∈ (0, 1]`.
        rho: Ratio,
        /// Burst allowance `σ`.
        sigma: u64,
        /// Locality scale `L ≥ 1` (`L = 1` is the plain `(ρ,σ)` leaky
        /// bucket).
        locality: u64,
    },
    /// The Miller–Patt-Shamir buffer-bound class: `≤ |I| + B` per
    /// interval `I` (rate 1 with additive slack `B`).
    BufferBound {
        /// Additive slack `B`.
        bound: u64,
    },
}

impl ConstraintSpec {
    /// Canonical word encoding, the unit of [`AdversaryModelSpec`]
    /// fingerprints and campaign scenario hashes: a variant tag
    /// followed by the parameters (rationals in lowest terms, unused
    /// slots zero). Pinned by the golden-value tests in
    /// `tests/checkpoint_schema.rs` — changing this encoding silently
    /// would re-key every stored fingerprint.
    pub fn words(&self) -> [u64; 5] {
        match *self {
            ConstraintSpec::Rate(r) => [1, r.num(), r.den(), 0, 0],
            ConstraintSpec::Window { window, rate } => [2, window, rate.num(), rate.den(), 0],
            ConstraintSpec::BurstLocal {
                rho,
                sigma,
                locality,
            } => [3, rho.num(), rho.den(), sigma, locality],
            ConstraintSpec::BufferBound { bound } => [4, bound, 0, 0, 0],
        }
    }

    /// Build the incremental validator enforcing this member over a
    /// graph with `edge_count` edges.
    pub fn build(&self, edge_count: usize) -> ConstraintValidator {
        match *self {
            ConstraintSpec::Rate(r) => ConstraintValidator::Rate(RateValidator::new(r, edge_count)),
            ConstraintSpec::Window { window, rate } => {
                ConstraintValidator::Window(WindowValidator::new(window, rate, edge_count))
            }
            ConstraintSpec::BurstLocal {
                rho,
                sigma,
                locality,
            } => ConstraintValidator::BurstLocal(BurstLocalValidator::new(
                rho, sigma, locality, edge_count,
            )),
            ConstraintSpec::BufferBound { bound } => {
                ConstraintValidator::BufferBound(BufferBoundValidator::new(bound, edge_count))
            }
        }
    }

    /// The member's long-run per-edge injection rate: the densest
    /// sustained stream it admits. `Rate`/`Window` → `r`, `BurstLocal`
    /// → `ρ`, `BufferBound` → 1. A *necessary* legality condition for
    /// any sustained stream (bursts are governed by the member's own
    /// slack), used by the deterministic builders for their static
    /// oversubscription checks.
    pub fn long_run_rate(&self) -> Ratio {
        match *self {
            ConstraintSpec::Rate(r) => r,
            ConstraintSpec::Window { rate, .. } => rate,
            ConstraintSpec::BurstLocal { rho, .. } => rho,
            ConstraintSpec::BufferBound { .. } => Ratio::ONE,
        }
    }

    /// Render as the Rust expression that reconstructs this spec —
    /// used by the campaign's regression-test generator.
    pub fn to_rust(&self) -> String {
        match *self {
            ConstraintSpec::Rate(r) => {
                format!("ConstraintSpec::Rate(Ratio::new({}, {}))", r.num(), r.den())
            }
            ConstraintSpec::Window { window, rate } => format!(
                "ConstraintSpec::Window {{ window: {}, rate: Ratio::new({}, {}) }}",
                window,
                rate.num(),
                rate.den()
            ),
            ConstraintSpec::BurstLocal {
                rho,
                sigma,
                locality,
            } => format!(
                "ConstraintSpec::BurstLocal {{ rho: Ratio::new({}, {}), sigma: {}, locality: {} }}",
                rho.num(),
                rho.den(),
                sigma,
                locality
            ),
            ConstraintSpec::BufferBound { bound } => {
                format!("ConstraintSpec::BufferBound {{ bound: {bound} }}")
            }
        }
    }
}

impl std::fmt::Display for ConstraintSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConstraintSpec::Rate(r) => write!(f, "rate({r})"),
            ConstraintSpec::Window { window, rate } => write!(f, "window(w={window}, r={rate})"),
            ConstraintSpec::BurstLocal {
                rho,
                sigma,
                locality,
            } => write!(f, "burst_local(rho={rho}, sigma={sigma}, L={locality})"),
            ConstraintSpec::BufferBound { bound } => write!(f, "buffer_bound(B={bound})"),
        }
    }
}

/// The composed adversary model: the conjunction of its members. An
/// injection sequence is legal iff every member accepts it — the `All`
/// composer of the constraint algebra.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdversaryModelSpec {
    /// The member constraints, in composition order.
    pub members: Vec<ConstraintSpec>,
}

impl AdversaryModelSpec {
    /// The model with exactly these members.
    pub fn new(members: Vec<ConstraintSpec>) -> Self {
        AdversaryModelSpec { members }
    }

    /// The single-member rate-`r` model — the paper's Section 3
    /// adversary, and the identity element of the threshold-mapping
    /// comparisons (experiment E16).
    pub fn rate(rate: Ratio) -> Self {
        AdversaryModelSpec::new(vec![ConstraintSpec::Rate(rate)])
    }

    /// The single-member `(w, r)` model (Definition 2.1).
    pub fn window(window: u64, rate: Ratio) -> Self {
        AdversaryModelSpec::new(vec![ConstraintSpec::Window { window, rate }])
    }

    /// The single-member `(ρ, σ, L)` locally bursty model.
    pub fn burst_local(rho: Ratio, sigma: u64, locality: u64) -> Self {
        AdversaryModelSpec::new(vec![ConstraintSpec::BurstLocal {
            rho,
            sigma,
            locality,
        }])
    }

    /// The single-member buffer-bound-`B` model.
    pub fn buffer_bound(bound: u64) -> Self {
        AdversaryModelSpec::new(vec![ConstraintSpec::BufferBound { bound }])
    }

    /// Compose: this model AND `member`. Chainable —
    /// `AdversaryModelSpec::rate(r).and(ConstraintSpec::BufferBound { bound: 8 })`.
    pub fn and(mut self, member: ConstraintSpec) -> Self {
        self.members.push(member);
        self
    }

    /// True for the degenerate model with no members (accepts every
    /// sequence).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// FNV-1a fingerprint over the members' canonical words. Stamped
    /// into telemetry provenance so a JSONL record names the exact
    /// model its run validated under.
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![self.members.len() as u64];
        for m in &self.members {
            words.extend_from_slice(&m.words());
        }
        fnv1a_u64s(words)
    }

    /// The rate parameter the Lemma 3.3 reroute check needs: the first
    /// `Rate` member's `r` (the definition of a "new" edge depends on
    /// the rate through `⌈1/r⌉`). `None` when the model has no plain
    /// rate member.
    pub fn reroute_rate(&self) -> Option<Ratio> {
        self.members.iter().find_map(|m| match m {
            ConstraintSpec::Rate(r) => Some(*r),
            _ => None,
        })
    }

    /// The tightest long-run per-edge rate over the members (`None`
    /// for an empty model). A sustained stream faster than this is
    /// illegal under some member; see [`ConstraintSpec::long_run_rate`].
    pub fn long_run_rate(&self) -> Option<Ratio> {
        self.members
            .iter()
            .map(ConstraintSpec::long_run_rate)
            .min_by(|a, b| a.partial_cmp(b).expect("Ratio is totally ordered"))
    }

    /// Build the runtime model over `edge_count` edges.
    pub fn build(&self, edge_count: usize) -> AdversaryModel {
        AdversaryModel {
            spec: self.clone(),
            members: self.members.iter().map(|m| m.build(edge_count)).collect(),
        }
    }

    /// Render as the Rust expression reconstructing this spec.
    pub fn to_rust(&self) -> String {
        let members: Vec<String> = self.members.iter().map(ConstraintSpec::to_rust).collect();
        format!("AdversaryModelSpec::new(vec![{}])", members.join(", "))
    }
}

impl std::fmt::Display for AdversaryModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.members.is_empty() {
            return write!(f, "unconstrained");
        }
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, " ∘ ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Member validators.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct EdgeState {
    /// Number of injections recorded so far.
    count: u64,
    /// `min_k H_k` over recorded injections.
    min_h: i128,
    /// Last recorded time (monotonicity guard).
    last_time: Time,
}

/// Exact incremental validator for the rate-r adversary.
#[derive(Debug, Clone)]
pub struct RateValidator {
    rate: Ratio,
    /// Lazily grown per-edge state; `None` until an edge sees traffic.
    states: Vec<Option<EdgeState>>,
}

impl RateValidator {
    /// A validator for injection rate `rate` over a graph with
    /// `edge_count` edges.
    pub fn new(rate: Ratio, edge_count: usize) -> Self {
        assert!(
            rate > Ratio::ZERO && rate <= Ratio::ONE,
            "rate must be in (0, 1]"
        );
        RateValidator {
            rate,
            states: vec![None; edge_count],
        }
    }

    /// The validated rate.
    pub fn rate(&self) -> Ratio {
        self.rate
    }

    /// The member spec describing this validator.
    pub fn spec(&self) -> ConstraintSpec {
        ConstraintSpec::Rate(self.rate)
    }

    /// Total number of injections recorded for `edge`.
    pub fn count(&self, edge: EdgeId) -> u64 {
        self.states[edge.index()].map_or(0, |s| s.count)
    }
}

impl Constraint for RateValidator {
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        let num = self.rate.num() as i128;
        let den = self.rate.den() as i128;
        let slot = &mut self.states[edge.index()];
        // The potential H_k = den·k − num·t_k is computed in checked
        // i128: with num, den, k, t all up to 2^64 the products reach
        // 2^128, which i128 cannot hold. Overflow is reported as a
        // violation (exact validation is impossible) rather than
        // wrapping into a bogus accept/reject.
        let overflow = |time| RateViolation {
            edge,
            time,
            detail: "arithmetic overflow computing the rate potential \
                     (injection times or counts too large for exact validation)"
                .to_string(),
        };
        match slot {
            None => {
                // k = 0, so H_0 = −num·t
                let h = num
                    .checked_mul(time as i128)
                    .map(|v| -v)
                    .ok_or_else(|| overflow(time))?;
                *slot = Some(EdgeState {
                    count: 1,
                    min_h: h,
                    last_time: time,
                });
                Ok(())
            }
            Some(st) => {
                if time < st.last_time {
                    return Err(RateViolation {
                        edge,
                        time,
                        detail: format!(
                            "non-monotone record: last recorded time {} > {}",
                            st.last_time, time
                        ),
                    });
                }
                let k = st.count as i128;
                let h = den
                    .checked_mul(k)
                    .and_then(|dk| {
                        num.checked_mul(time as i128)
                            .and_then(|nt| dk.checked_sub(nt))
                    })
                    .ok_or_else(|| overflow(time))?;
                if h.checked_sub(st.min_h).ok_or_else(|| overflow(time))? >= num {
                    // Reconstruct a human-readable bound for the report.
                    return Err(RateViolation {
                        edge,
                        time,
                        detail: format!(
                            "rate {} exceeded: some interval ending at {} holds more \
                             than ceil(r*len) injections",
                            self.rate, time
                        ),
                    });
                }
                st.count = st.count.saturating_add(1);
                st.min_h = st.min_h.min(h);
                st.last_time = time;
                Ok(())
            }
        }
    }

    /// At most `⌈r·1⌉ = 1` injection per edge per step (for `r ≤ 1`),
    /// so the rate headroom is 0 or 1: a dry run of the `observe` check.
    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        let num = self.rate.num() as i128;
        let den = self.rate.den() as i128;
        match self.states[edge.index()] {
            None => u64::from(num.checked_mul(time as i128).is_some()),
            Some(st) => {
                if time < st.last_time {
                    return 0;
                }
                let Some(h) = den.checked_mul(st.count as i128).and_then(|dk| {
                    num.checked_mul(time as i128)
                        .and_then(|nt| dk.checked_sub(nt))
                }) else {
                    return 0;
                };
                match h.checked_sub(st.min_h) {
                    Some(d) if d < num => 1,
                    _ => 0,
                }
            }
        }
    }
}

/// Reference implementation of the rate-r constraint: checks **all**
/// interval pairs. `O(k²)` per edge — for tests only.
pub fn brute_force_rate_check(rate: Ratio, times_per_edge: &[(EdgeId, Vec<Time>)]) -> bool {
    let num = rate.num() as u128;
    let den = rate.den() as u128;
    for (_, times) in times_per_edge {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for i in 0..sorted.len() {
            for j in i..sorted.len() {
                let count = (j - i + 1) as u128;
                let len = (sorted[j] - sorted[i]) as u128 + 1;
                // need: count <= ceil(r*len) <=> num*len > den*(count-1)
                if num * len <= den * (count - 1) {
                    return false;
                }
            }
        }
    }
    true
}

/// Exact sliding-window validator for the `(w,r)` adversary of
/// Definition 2.1: in any `w` consecutive steps, every edge appears in
/// the injected routes at most `⌊w·r⌋` times.
#[derive(Debug, Clone)]
pub struct WindowValidator {
    window: u64,
    rate: Ratio,
    /// Per-window per-edge budget: `⌊w·r⌋`.
    budget: usize,
    /// Recent injection times per edge (only those within the last
    /// window are retained).
    recent: Vec<std::collections::VecDeque<Time>>,
}

impl WindowValidator {
    /// A validator for a `(w, r)` adversary over `edge_count` edges.
    pub fn new(window: u64, rate: Ratio, edge_count: usize) -> Self {
        assert!(window >= 1, "window must be positive");
        assert!(
            rate > Ratio::ZERO && rate <= Ratio::ONE,
            "rate must be in (0, 1]"
        );
        let budget = rate.floor_mul(window) as usize;
        WindowValidator {
            window,
            rate,
            budget,
            recent: vec![std::collections::VecDeque::new(); edge_count],
        }
    }

    /// The per-window per-edge budget `⌊w·r⌋`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The window size `w`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The rate `r`.
    pub fn rate(&self) -> Ratio {
        self.rate
    }

    /// The member spec describing this validator.
    pub fn spec(&self) -> ConstraintSpec {
        ConstraintSpec::Window {
            window: self.window,
            rate: self.rate,
        }
    }
}

impl Constraint for WindowValidator {
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        let dq = &mut self.recent[edge.index()];
        if let Some(&last) = dq.back() {
            if time < last {
                return Err(RateViolation {
                    edge,
                    time,
                    detail: format!("non-monotone record: {} after {}", time, last),
                });
            }
        }
        let cutoff = time.saturating_sub(self.window - 1);
        while dq.front().is_some_and(|&t| t < cutoff) {
            dq.pop_front();
        }
        if dq.len() >= self.budget {
            return Err(RateViolation {
                edge,
                time,
                detail: format!(
                    "(w={}, r={}) budget {} exceeded in window ending at {}",
                    self.window, self.rate, self.budget, time
                ),
            });
        }
        dq.push_back(time);
        Ok(())
    }

    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        let dq = &mut self.recent[edge.index()];
        let cutoff = time.saturating_sub(self.window - 1);
        while dq.front().is_some_and(|&t| t < cutoff) {
            dq.pop_front();
        }
        self.budget.saturating_sub(dq.len()) as u64
    }
}

/// Reference implementation of the `(w,r)` constraint — tests only.
pub fn brute_force_window_check(
    window: u64,
    rate: Ratio,
    times_per_edge: &[(EdgeId, Vec<Time>)],
) -> bool {
    let budget = rate.floor_mul(window);
    for (_, times) in times_per_edge {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for (i, &t) in sorted.iter().enumerate() {
            // window [t, t+w-1]
            let end = t.saturating_add(window - 1);
            let count = sorted[i..].iter().take_while(|&&u| u <= end).count() as u64;
            if count > budget {
                return false;
            }
        }
    }
    true
}

/// Per-edge state of the `(ρ,σ,L)` validator.
#[derive(Debug, Clone, Default)]
struct BurstLocalEdge {
    /// Injections within the last `L` steps: `(time, H)` in time order.
    recent: std::collections::VecDeque<(Time, i128)>,
    /// `min H` over entries that aged out of `recent`.
    min_h_old: Option<i128>,
    /// Number of injections recorded so far (the `k` of `H_k`).
    count: u64,
    /// Last recorded time (monotonicity guard).
    last_time: Time,
}

/// Exact incremental validator for Rosenbaum's locally bursty
/// `(ρ, σ, L)` adversary: for every interval `I` and every edge, at
/// most `ρ·max(|I|, L) + σ` injected packets require the edge. See the
/// module docs for the split into a sliding window (intervals of
/// length ≤ `L`) and an aged potential minimum (length > `L`).
#[derive(Debug, Clone)]
pub struct BurstLocalValidator {
    rho: Ratio,
    sigma: u64,
    locality: u64,
    /// Budget for intervals of length ≤ `L`: `⌊ρL⌋ + σ`.
    short_budget: u64,
    states: Vec<BurstLocalEdge>,
}

impl BurstLocalValidator {
    /// A validator for a `(ρ, σ, L)` adversary over `edge_count`
    /// edges.
    pub fn new(rho: Ratio, sigma: u64, locality: u64, edge_count: usize) -> Self {
        assert!(
            rho > Ratio::ZERO && rho <= Ratio::ONE,
            "rho must be in (0, 1]"
        );
        assert!(locality >= 1, "locality must be positive");
        let short_budget = rho.floor_mul(locality).saturating_add(sigma);
        BurstLocalValidator {
            rho,
            sigma,
            locality,
            short_budget,
            states: vec![BurstLocalEdge::default(); edge_count],
        }
    }

    /// The long-run rate `ρ`.
    pub fn rho(&self) -> Ratio {
        self.rho
    }

    /// The burst allowance `σ`.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// The locality scale `L`.
    pub fn locality(&self) -> u64 {
        self.locality
    }

    /// The member spec describing this validator.
    pub fn spec(&self) -> ConstraintSpec {
        ConstraintSpec::BurstLocal {
            rho: self.rho,
            sigma: self.sigma,
            locality: self.locality,
        }
    }

    /// `den·(σ−1) + num`: the bound on `H_j − H_i` for long pairs.
    /// `None` on arithmetic overflow (reported as a violation).
    fn long_slack(&self) -> Option<i128> {
        let num = self.rho.num() as i128;
        let den = self.rho.den() as i128;
        den.checked_mul(self.sigma as i128)?
            .checked_sub(den)?
            .checked_add(num)
    }

    /// Age entries older than `time − L + 1` out of the sliding window
    /// into the running old-entry minimum.
    fn age_out(st: &mut BurstLocalEdge, cutoff: Time) {
        while st.recent.front().is_some_and(|&(t, _)| t < cutoff) {
            let (_, h) = st.recent.pop_front().expect("front checked");
            st.min_h_old = Some(st.min_h_old.map_or(h, |m| m.min(h)));
        }
    }
}

impl Constraint for BurstLocalValidator {
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        let num = self.rho.num() as i128;
        let den = self.rho.den() as i128;
        let overflow = || RateViolation {
            edge,
            time,
            detail: "arithmetic overflow computing the burst-locality potential \
                     (injection times or counts too large for exact validation)"
                .to_string(),
        };
        let slack = self.long_slack().ok_or_else(overflow)?;
        let st = &mut self.states[edge.index()];
        if st.count > 0 && time < st.last_time {
            return Err(RateViolation {
                edge,
                time,
                detail: format!(
                    "non-monotone record: last recorded time {} > {}",
                    st.last_time, time
                ),
            });
        }
        Self::age_out(st, time.saturating_sub(self.locality - 1));
        // Short intervals (length ≤ L): constant budget ⌊ρL⌋ + σ over
        // the sliding window of length L.
        if st.recent.len() as u64 >= self.short_budget {
            return Err(RateViolation {
                edge,
                time,
                detail: format!(
                    "(rho={}, sigma={}, L={}) short-interval budget {} exceeded \
                     in the L-window ending at {}",
                    self.rho, self.sigma, self.locality, self.short_budget, time
                ),
            });
        }
        // Long intervals (length > L): H_j − min H_i ≤ den·(σ−1) + num
        // over entries that aged out of the window.
        let h = den
            .checked_mul(st.count as i128)
            .and_then(|dk| {
                num.checked_mul(time as i128)
                    .and_then(|nt| dk.checked_sub(nt))
            })
            .ok_or_else(overflow)?;
        if let Some(min_old) = st.min_h_old {
            if h.checked_sub(min_old).ok_or_else(overflow)? > slack {
                return Err(RateViolation {
                    edge,
                    time,
                    detail: format!(
                        "(rho={}, sigma={}, L={}) exceeded: some interval longer \
                         than L ending at {} holds more than rho*len + sigma \
                         injections",
                        self.rho, self.sigma, self.locality, time
                    ),
                });
            }
        }
        st.recent.push_back((time, h));
        st.count = st.count.saturating_add(1);
        st.last_time = time;
        Ok(())
    }

    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        let num = self.rho.num() as i128;
        let den = self.rho.den() as i128;
        let Some(slack) = self.long_slack() else {
            return 0;
        };
        let short_budget = self.short_budget;
        let locality = self.locality;
        let st = &mut self.states[edge.index()];
        if st.count > 0 && time < st.last_time {
            return 0;
        }
        Self::age_out(st, time.saturating_sub(locality - 1));
        let short = short_budget.saturating_sub(st.recent.len() as u64);
        // Repeated observes at `time` raise H by den each; the old-entry
        // minimum is fixed (new entries stay inside the window), so the
        // m-th succeeds iff H + (m−1)·den − min_old ≤ slack.
        let long = match st.min_h_old {
            None => u64::MAX,
            Some(min_old) => {
                let Some(h) = den.checked_mul(st.count as i128).and_then(|dk| {
                    num.checked_mul(time as i128)
                        .and_then(|nt| dk.checked_sub(nt))
                }) else {
                    return 0;
                };
                let avail = slack - (h - min_old);
                if avail < 0 {
                    0
                } else {
                    u64::try_from(avail / den + 1).unwrap_or(u64::MAX)
                }
            }
        };
        short.min(long)
    }
}

/// Reference implementation of the `(ρ,σ,L)` constraint: checks all
/// interval pairs. `O(k²)` per edge — tests only.
pub fn brute_force_burst_local_check(
    rho: Ratio,
    sigma: u64,
    locality: u64,
    times_per_edge: &[(EdgeId, Vec<Time>)],
) -> bool {
    let num = rho.num() as u128;
    let den = rho.den() as u128;
    for (_, times) in times_per_edge {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for i in 0..sorted.len() {
            for j in i..sorted.len() {
                let count = (j - i + 1) as u128;
                let len = ((sorted[j] - sorted[i]) as u128 + 1).max(locality as u128);
                // need: den*count <= num*max(len, L) + den*sigma
                let budget = num
                    .saturating_mul(len)
                    .saturating_add(den.saturating_mul(sigma as u128));
                if den * count > budget {
                    return false;
                }
            }
        }
    }
    true
}

#[derive(Debug, Clone, Copy)]
struct BufferBoundEdge {
    /// Number of injections recorded so far.
    count: u64,
    /// `min_k G_k` for `G_k = k − t_k` over recorded injections.
    min_g: i128,
    /// Last recorded time (monotonicity guard).
    last_time: Time,
}

/// Exact incremental validator for the Miller–Patt-Shamir buffer-bound
/// class: for every interval `I` and every edge, at most `|I| + B`
/// injected packets require the edge (rate 1 with additive slack `B`).
/// With the potential `G_k = k − t_k` the constraint is
/// `G_j − G_i ≤ B`, so one running minimum per edge suffices.
#[derive(Debug, Clone)]
pub struct BufferBoundValidator {
    bound: u64,
    states: Vec<Option<BufferBoundEdge>>,
}

impl BufferBoundValidator {
    /// A validator with additive slack `bound` over `edge_count`
    /// edges.
    pub fn new(bound: u64, edge_count: usize) -> Self {
        BufferBoundValidator {
            bound,
            states: vec![None; edge_count],
        }
    }

    /// The additive slack `B`.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The member spec describing this validator.
    pub fn spec(&self) -> ConstraintSpec {
        ConstraintSpec::BufferBound { bound: self.bound }
    }

    /// `G_k = k − t_k`, exact in i128 (both operands fit in 64 bits,
    /// so the difference cannot overflow).
    fn g(count: u64, time: Time) -> i128 {
        count as i128 - time as i128
    }
}

impl Constraint for BufferBoundValidator {
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        let bound = self.bound as i128;
        let slot = &mut self.states[edge.index()];
        match slot {
            None => {
                *slot = Some(BufferBoundEdge {
                    count: 1,
                    min_g: Self::g(0, time),
                    last_time: time,
                });
                Ok(())
            }
            Some(st) => {
                if time < st.last_time {
                    return Err(RateViolation {
                        edge,
                        time,
                        detail: format!(
                            "non-monotone record: last recorded time {} > {}",
                            st.last_time, time
                        ),
                    });
                }
                let g = Self::g(st.count, time);
                if g - st.min_g > bound {
                    return Err(RateViolation {
                        edge,
                        time,
                        detail: format!(
                            "buffer bound B={} exceeded: some interval ending at {} \
                             holds more than len + B injections",
                            self.bound, time
                        ),
                    });
                }
                st.count = st.count.saturating_add(1);
                st.min_g = st.min_g.min(g);
                st.last_time = time;
                Ok(())
            }
        }
    }

    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        let bound = self.bound as i128;
        match self.states[edge.index()] {
            // Fresh edge: the first entry sets the minimum, so B + 1
            // fit in one step (count ≤ len + B with len = 1).
            None => self.bound.saturating_add(1),
            Some(st) => {
                if time < st.last_time {
                    return 0;
                }
                // The m-th extra observe at `time` has G + (m−1); the
                // minimum is min(st.min_g, G) from the first on.
                let g = Self::g(st.count, time);
                let avail = bound - (g - st.min_g.min(g));
                if avail < 0 {
                    0
                } else {
                    u64::try_from(avail + 1).unwrap_or(u64::MAX)
                }
            }
        }
    }
}

/// Reference implementation of the buffer-bound constraint — tests
/// only.
pub fn brute_force_buffer_bound_check(bound: u64, times_per_edge: &[(EdgeId, Vec<Time>)]) -> bool {
    for (_, times) in times_per_edge {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for i in 0..sorted.len() {
            for j in i..sorted.len() {
                let count = (j - i + 1) as u128;
                let len = (sorted[j] - sorted[i]) as u128 + 1;
                if count > len.saturating_add(bound as u128) {
                    return false;
                }
            }
        }
    }
    true
}

// ---------------------------------------------------------------------
// Dispatch and composition.
// ---------------------------------------------------------------------

/// One member validator, dispatching over the four constraint classes.
#[derive(Debug, Clone)]
pub enum ConstraintValidator {
    /// A [`RateValidator`].
    Rate(RateValidator),
    /// A [`WindowValidator`].
    Window(WindowValidator),
    /// A [`BurstLocalValidator`].
    BurstLocal(BurstLocalValidator),
    /// A [`BufferBoundValidator`].
    BufferBound(BufferBoundValidator),
}

impl ConstraintValidator {
    /// The member spec describing this validator.
    pub fn spec(&self) -> ConstraintSpec {
        match self {
            ConstraintValidator::Rate(v) => v.spec(),
            ConstraintValidator::Window(v) => v.spec(),
            ConstraintValidator::BurstLocal(v) => v.spec(),
            ConstraintValidator::BufferBound(v) => v.spec(),
        }
    }
}

impl Constraint for ConstraintValidator {
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        match self {
            ConstraintValidator::Rate(v) => v.observe(edge, time),
            ConstraintValidator::Window(v) => v.observe(edge, time),
            ConstraintValidator::BurstLocal(v) => v.observe(edge, time),
            ConstraintValidator::BufferBound(v) => v.observe(edge, time),
        }
    }

    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        match self {
            ConstraintValidator::Rate(v) => v.headroom(edge, time),
            ConstraintValidator::Window(v) => v.headroom(edge, time),
            ConstraintValidator::BurstLocal(v) => v.headroom(edge, time),
            ConstraintValidator::BufferBound(v) => v.headroom(edge, time),
        }
    }
}

/// The runtime composed model: every member observes every event, and
/// the first member to reject wins. This is the one validation object
/// the engine, checkpoints, and the adversary builders all share.
#[derive(Debug, Clone)]
pub struct AdversaryModel {
    spec: AdversaryModelSpec,
    members: Vec<ConstraintValidator>,
}

impl AdversaryModel {
    /// Build the model described by `spec` over `edge_count` edges.
    pub fn new(spec: &AdversaryModelSpec, edge_count: usize) -> Self {
        spec.build(edge_count)
    }

    /// The spec this model enforces.
    pub fn spec(&self) -> &AdversaryModelSpec {
        &self.spec
    }

    /// The member validators, in composition order.
    pub fn members(&self) -> &[ConstraintValidator] {
        &self.members
    }
}

impl Constraint for AdversaryModel {
    /// A partially applied observe is possible on rejection (members
    /// before the rejecting one have recorded the event), but the
    /// engine treats any violation as fatal, so the model is never
    /// consulted again after a reject.
    fn observe(&mut self, edge: EdgeId, time: Time) -> Result<(), RateViolation> {
        for m in &mut self.members {
            m.observe(edge, time)?;
        }
        Ok(())
    }

    fn headroom(&mut self, edge: EdgeId, time: Time) -> u64 {
        self.members
            .iter_mut()
            .map(|m| m.headroom(edge, time))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Reference implementation of one member — dispatches to the
/// per-class brute-force checkers. Tests only.
pub fn brute_force_member_check(
    spec: ConstraintSpec,
    times_per_edge: &[(EdgeId, Vec<Time>)],
) -> bool {
    match spec {
        ConstraintSpec::Rate(r) => brute_force_rate_check(r, times_per_edge),
        ConstraintSpec::Window { window, rate } => {
            brute_force_window_check(window, rate, times_per_edge)
        }
        ConstraintSpec::BurstLocal {
            rho,
            sigma,
            locality,
        } => brute_force_burst_local_check(rho, sigma, locality, times_per_edge),
        ConstraintSpec::BufferBound { bound } => {
            brute_force_buffer_bound_check(bound, times_per_edge)
        }
    }
}

/// Reference implementation of a composed model: legal iff every
/// member's brute-force check accepts. Tests only.
pub fn brute_force_model_check(
    spec: &AdversaryModelSpec,
    times_per_edge: &[(EdgeId, Vec<Time>)],
) -> bool {
    spec.members
        .iter()
        .all(|m| brute_force_member_check(*m, times_per_edge))
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: EdgeId = EdgeId(0);

    #[test]
    fn rate_validator_accepts_floor_pattern() {
        // inject at times where floor(k*r) increases: the canonical
        // "rate r stream" used by all adversary builders
        let r = Ratio::new(3, 5);
        let mut v = RateValidator::new(r, 1);
        let mut injected = 0u64;
        for k in 1..=1000u64 {
            let want = r.floor_mul(k);
            if want > injected {
                v.observe(E, k).expect("floor pattern must validate");
                injected = want;
            }
        }
        assert_eq!(injected, 600);
    }

    #[test]
    fn rate_validator_rejects_two_per_step() {
        let mut v = RateValidator::new(Ratio::new(3, 5), 1);
        v.observe(E, 5).unwrap();
        // a second injection in the same step violates ceil(r*1)=1
        assert!(v.observe(E, 5).is_err());
    }

    #[test]
    fn rate_validator_rejects_sustained_overrate() {
        // rate 1/2: alternating steps fine, consecutive not (after the
        // first ceil slack is used up)
        let mut v = RateValidator::new(Ratio::new(1, 2), 1);
        v.observe(E, 1).unwrap();
        // interval [1,2]: 2 injections, ceil(1/2*2)=1 -> violation
        assert!(v.observe(E, 2).is_err());
    }

    #[test]
    fn rate_validator_allows_ceiling_slack() {
        // rate 1/2, times 1,3,5,...: any interval [t_i, t_j] has
        // j-i+1 injections in 2(j-i)+1 steps; ceil((2(j-i)+1)/2) = j-i+1. OK.
        let mut v = RateValidator::new(Ratio::new(1, 2), 1);
        for k in 0..500u64 {
            v.observe(E, 1 + 2 * k).expect("odd steps at rate 1/2");
        }
    }

    #[test]
    fn rate_validator_independent_edges() {
        let mut v = RateValidator::new(Ratio::new(1, 2), 2);
        v.observe(EdgeId(0), 1).unwrap();
        // same step, different edge: fine
        v.observe(EdgeId(1), 1).unwrap();
        assert_eq!(v.count(EdgeId(0)), 1);
        assert_eq!(v.count(EdgeId(1)), 1);
    }

    #[test]
    fn rate_validator_rejects_non_monotone() {
        let mut v = RateValidator::new(Ratio::new(1, 2), 1);
        v.observe(E, 10).unwrap();
        assert!(v.observe(E, 9).is_err());
    }

    #[test]
    fn rate_headroom_predicts_record() {
        let mut v = RateValidator::new(Ratio::new(1, 2), 1);
        assert_eq!(v.headroom(E, 1), 1);
        v.observe(E, 1).unwrap();
        assert_eq!(v.headroom(E, 1), 0, "ceil(r*1) = 1 per step");
        assert_eq!(v.headroom(E, 2), 0, "interval [1,2] is full at r=1/2");
        assert_eq!(v.headroom(E, 3), 1);
    }

    #[test]
    fn rate_validator_matches_brute_force_on_random_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..200 {
            let r = Ratio::new(1 + rng.gen_range(0..10u64), 11);
            let mut v = RateValidator::new(r, 1);
            let mut times = Vec::new();
            let mut t = 0u64;
            let mut incremental_ok = true;
            for _ in 0..40 {
                t += rng.gen_range(0..4u64);
                if v.observe(E, t).is_err() {
                    incremental_ok = false;
                    break;
                }
                times.push(t);
            }
            if incremental_ok {
                assert!(
                    brute_force_rate_check(r, &[(E, times.clone())]),
                    "trial {trial}: incremental accepted, brute force rejected (r={r}, {times:?})"
                );
            } else {
                times.push(t);
                assert!(
                    !brute_force_rate_check(r, &[(E, times.clone())]),
                    "trial {trial}: incremental rejected, brute force accepted (r={r}, {times:?})"
                );
            }
        }
    }

    #[test]
    fn window_validator_allows_bursts() {
        // (w=10, r=1/2): bursts of 5 in one step are legal
        let mut v = WindowValidator::new(10, Ratio::new(1, 2), 1);
        for _ in 0..5 {
            v.observe(E, 3).unwrap();
        }
        assert!(v.observe(E, 3).is_err());
        // after the window slides past, capacity returns
        for _ in 0..5 {
            v.observe(E, 13).unwrap();
        }
        assert!(v.observe(E, 13).is_err());
    }

    #[test]
    fn window_validator_sliding_boundary() {
        let mut v = WindowValidator::new(4, Ratio::new(1, 2), 1); // budget 2
        v.observe(E, 1).unwrap();
        v.observe(E, 2).unwrap();
        assert!(v.observe(E, 4).is_err()); // window [1,4] would hold 3
        v.observe(E, 5).unwrap(); // window [2,5] holds 2
    }

    #[test]
    fn window_headroom() {
        let mut v = WindowValidator::new(10, Ratio::new(3, 10), 1); // budget 3
        assert_eq!(v.headroom(E, 1), 3);
        v.observe(E, 1).unwrap();
        assert_eq!(v.headroom(E, 1), 2);
        assert_eq!(v.headroom(E, 11), 3); // window slid past time 1
    }

    #[test]
    fn burst_local_allows_sigma_burst_then_throttles() {
        // (rho=1/4, sigma=3, L=8): short budget floor(8/4)+3 = 5.
        let mut v = BurstLocalValidator::new(Ratio::new(1, 4), 3, 8, 1);
        for _ in 0..5 {
            v.observe(E, 1).unwrap();
        }
        assert!(v.observe(E, 1).is_err(), "short budget is 5");
        // After the L-window slides past, the long-run rate governs:
        // interval [1, 9] has len 9 > L, budget floor? rho*9 + 3 =
        // 9/4 + 3 = 5.25 -> count 6 > 5.25 is illegal, so time 9 must
        // still refuse; by time 13 the budget is 13/4 + 3 = 6.25.
        assert!(v.observe(E, 9).is_err(), "interval [1,9]: 6 > 9/4 + 3");
        v.observe(E, 13).unwrap();
    }

    #[test]
    fn burst_local_degenerates_to_leaky_bucket_at_l1() {
        // (rho=1/2, sigma=2, L=1): the plain (rho, sigma) bound
        // N <= len/2 + 2 for every interval.
        let mut v = BurstLocalValidator::new(Ratio::new(1, 2), 2, 1, 1);
        v.observe(E, 1).unwrap();
        v.observe(E, 1).unwrap(); // [1,1]: 2 <= 1/2 + 2 ✓
        assert!(v.observe(E, 1).is_err(), "[1,1]: 3 > 2.5");
        v.observe(E, 2).unwrap(); // [1,2]: 3 <= 1 + 2 ✓
        assert!(v.observe(E, 2).is_err(), "[1,2]: 4 > 3");
    }

    #[test]
    fn burst_local_rejects_non_monotone() {
        let mut v = BurstLocalValidator::new(Ratio::new(1, 2), 1, 4, 1);
        v.observe(E, 10).unwrap();
        assert!(v.observe(E, 9).is_err());
    }

    #[test]
    fn burst_local_headroom_predicts_record() {
        let mut v = BurstLocalValidator::new(Ratio::new(1, 4), 3, 8, 1);
        for t in [1u64, 1, 9, 30, 31] {
            let h = v.headroom(E, t);
            let mut probe = v.clone();
            for _ in 0..h {
                probe.observe(E, t).expect("headroom-many records succeed");
            }
            assert!(probe.observe(E, t).is_err(), "h+1-th at t={t} must fail");
            // advance the real validator by one legal record when
            // possible, so later probes see nontrivial history
            if h > 0 {
                v.observe(E, t).unwrap();
            }
        }
    }

    #[test]
    fn burst_local_matches_brute_force_on_random_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for trial in 0..300 {
            let rho = Ratio::new(1 + rng.gen_range(0..6u64), 7);
            let sigma = rng.gen_range(0..4u64);
            let locality = rng.gen_range(1..8u64);
            let mut v = BurstLocalValidator::new(rho, sigma, locality, 1);
            let mut times = Vec::new();
            let mut t = 0u64;
            let mut ok = true;
            for _ in 0..40 {
                t += rng.gen_range(0..3u64);
                if v.observe(E, t).is_err() {
                    ok = false;
                    break;
                }
                times.push(t);
            }
            if ok {
                assert!(
                    brute_force_burst_local_check(rho, sigma, locality, &[(E, times.clone())]),
                    "trial {trial}: incremental accepted, brute rejected \
                     (rho={rho} sigma={sigma} L={locality} {times:?})"
                );
            } else {
                times.push(t);
                assert!(
                    !brute_force_burst_local_check(rho, sigma, locality, &[(E, times.clone())]),
                    "trial {trial}: incremental rejected, brute accepted \
                     (rho={rho} sigma={sigma} L={locality} {times:?})"
                );
            }
        }
    }

    #[test]
    fn buffer_bound_allows_b_plus_one_burst() {
        // B=3: a single step holds at most len + B = 4.
        let mut v = BufferBoundValidator::new(3, 1);
        for _ in 0..4 {
            v.observe(E, 5).unwrap();
        }
        assert!(v.observe(E, 5).is_err());
        // one step later one more slot opens ([5,6]: 5 <= 2 + 3)
        v.observe(E, 6).unwrap();
        assert!(v.observe(E, 6).is_err());
    }

    #[test]
    fn buffer_bound_zero_is_unit_rate() {
        let mut v = BufferBoundValidator::new(0, 1);
        v.observe(E, 1).unwrap();
        assert!(v.observe(E, 1).is_err(), "B=0: at most one per step");
        v.observe(E, 2).unwrap();
        v.observe(E, 3).unwrap();
    }

    #[test]
    fn buffer_bound_headroom_predicts_record() {
        let mut v = BufferBoundValidator::new(2, 1);
        assert_eq!(v.headroom(E, 4), 3, "fresh edge: len 1 + B");
        for t in [4u64, 4, 4, 5, 9] {
            let h = v.headroom(E, t);
            let mut probe = v.clone();
            for _ in 0..h {
                probe.observe(E, t).expect("headroom-many records succeed");
            }
            assert!(probe.observe(E, t).is_err());
            if h > 0 {
                v.observe(E, t).unwrap();
            }
        }
    }

    #[test]
    fn buffer_bound_matches_brute_force_on_random_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for trial in 0..300 {
            let bound = rng.gen_range(0..5u64);
            let mut v = BufferBoundValidator::new(bound, 1);
            let mut times = Vec::new();
            let mut t = 0u64;
            let mut ok = true;
            for _ in 0..40 {
                t += rng.gen_range(0..2u64);
                if v.observe(E, t).is_err() {
                    ok = false;
                    break;
                }
                times.push(t);
            }
            if ok {
                assert!(
                    brute_force_buffer_bound_check(bound, &[(E, times.clone())]),
                    "trial {trial}: incremental accepted, brute rejected (B={bound} {times:?})"
                );
            } else {
                times.push(t);
                assert!(
                    !brute_force_buffer_bound_check(bound, &[(E, times.clone())]),
                    "trial {trial}: incremental rejected, brute accepted (B={bound} {times:?})"
                );
            }
        }
    }

    #[test]
    fn model_composes_members_as_conjunction() {
        // rate(1/2) ∘ buffer_bound(4): the rate member forbids the
        // burst the buffer member would allow.
        let spec = AdversaryModelSpec::rate(Ratio::new(1, 2))
            .and(ConstraintSpec::BufferBound { bound: 4 });
        let mut m = spec.build(1);
        m.observe(E, 1).unwrap();
        assert!(m.observe(E, 1).is_err(), "rate member rejects");

        // buffer_bound(0) ∘ window(10, 1/2): the buffer member forbids
        // the burst the window member would allow.
        let spec = AdversaryModelSpec::buffer_bound(0).and(ConstraintSpec::Window {
            window: 10,
            rate: Ratio::new(1, 2),
        });
        let mut m = spec.build(1);
        m.observe(E, 1).unwrap();
        assert!(m.observe(E, 1).is_err(), "buffer member rejects");
    }

    #[test]
    fn model_headroom_is_member_minimum() {
        let spec = AdversaryModelSpec::window(10, Ratio::new(1, 2))
            .and(ConstraintSpec::BufferBound { bound: 1 });
        let mut m = spec.build(1);
        // window allows 5 in a burst, buffer bound allows 2
        assert_eq!(m.headroom(E, 1), 2);
    }

    #[test]
    fn model_fingerprint_tracks_members_and_order() {
        let a = AdversaryModelSpec::rate(Ratio::new(1, 2));
        let b = AdversaryModelSpec::window(2, Ratio::new(1, 2));
        let ab = AdversaryModelSpec::rate(Ratio::new(1, 2)).and(ConstraintSpec::Window {
            window: 2,
            rate: Ratio::new(1, 2),
        });
        let ba = AdversaryModelSpec::window(2, Ratio::new(1, 2))
            .and(ConstraintSpec::Rate(Ratio::new(1, 2)));
        let prints = [
            a.fingerprint(),
            b.fingerprint(),
            ab.fingerprint(),
            ba.fingerprint(),
            AdversaryModelSpec::default().fingerprint(),
        ];
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "specs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn model_helpers() {
        let spec = AdversaryModelSpec::window(8, Ratio::new(1, 4))
            .and(ConstraintSpec::Rate(Ratio::new(1, 3)))
            .and(ConstraintSpec::BufferBound { bound: 9 });
        assert_eq!(spec.reroute_rate(), Some(Ratio::new(1, 3)));
        assert_eq!(spec.long_run_rate(), Some(Ratio::new(1, 4)));
        assert!(AdversaryModelSpec::default().is_empty());
        assert_eq!(AdversaryModelSpec::default().long_run_rate(), None);
        assert_eq!(
            spec.to_string(),
            "window(w=8, r=1/4) ∘ rate(1/3) ∘ buffer_bound(B=9)"
        );
    }

    #[test]
    fn rate_validator_handles_times_near_u64_max() {
        // Small numerator: the potential stays well inside i128 even
        // at the largest representable times.
        let mut v = RateValidator::new(Ratio::new(1, 2), 1);
        v.observe(E, u64::MAX - 4).unwrap();
        v.observe(E, u64::MAX - 2).unwrap();
        v.observe(E, u64::MAX).unwrap();
        // A genuine breach at the very end of time is still detected.
        assert!(v.observe(E, u64::MAX).is_err());
    }

    #[test]
    fn rate_validator_reports_overflow_instead_of_wrapping() {
        // num ≈ 2^64 and time ≈ 2^64 push num·t past i128::MAX. The
        // old unchecked math wrapped silently; now it reports.
        let r = Ratio::new(u64::MAX - 2, u64::MAX); // coprime, stays huge
        let mut v = RateValidator::new(r, 1);
        let err = v.observe(E, u64::MAX).unwrap_err();
        assert!(err.detail.contains("overflow"), "got: {}", err.detail);
    }

    #[test]
    fn window_validator_handles_times_near_u64_max() {
        let mut v = WindowValidator::new(10, Ratio::new(1, 2), 1); // budget 5
        for _ in 0..5 {
            v.observe(E, u64::MAX).unwrap();
        }
        assert!(v.observe(E, u64::MAX).is_err());
        // The brute-force reference saturates instead of overflowing
        // on the window end `t + w - 1`.
        assert!(brute_force_window_check(
            10,
            Ratio::new(1, 2),
            &[(E, vec![u64::MAX - 1; 5])]
        ));
    }

    mod overflow_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Near-u64::MAX rates and times: observe() always returns
            /// a Result (accept, breach, or overflow report) — it
            /// never panics or wraps into a bogus potential. Covers
            /// all four members composed.
            #[test]
            fn observe_is_total_near_u64_max(
                den in (1u64 << 62)..=u64::MAX,
                num_off in 0u64..(1 << 16),
                sigma in 0u64..=u64::MAX,
                t0 in (u64::MAX - (1 << 20))..=u64::MAX,
                gaps in prop::collection::vec(0u64..3, 1..20),
            ) {
                let num = den.saturating_sub(num_off).max(1);
                let r = Ratio::new(num, den);
                let spec = AdversaryModelSpec::rate(r)
                    .and(ConstraintSpec::Window { window: 8, rate: r })
                    .and(ConstraintSpec::BurstLocal { rho: r, sigma, locality: u64::MAX })
                    .and(ConstraintSpec::BufferBound { bound: sigma });
                let mut m = spec.build(1);
                let mut t = t0;
                for g in gaps {
                    t = t.saturating_add(g);
                    let _ = m.observe(E, t);
                    let _ = m.headroom(E, t);
                }
            }
        }
    }

    #[test]
    fn window_matches_brute_force_on_random_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let w = rng.gen_range(2..8);
            let r = Ratio::new(rng.gen_range(1..=7), 7);
            let mut v = WindowValidator::new(w, r, 1);
            let mut times = Vec::new();
            let mut t = 0u64;
            let mut ok = true;
            for _ in 0..30 {
                t += rng.gen_range(0..3u64);
                if v.observe(E, t).is_err() {
                    ok = false;
                    break;
                }
                times.push(t);
            }
            if ok {
                assert!(brute_force_window_check(w, r, &[(E, times)]));
            } else {
                times.push(t);
                assert!(!brute_force_window_check(w, r, &[(E, times)]));
            }
        }
    }
}
