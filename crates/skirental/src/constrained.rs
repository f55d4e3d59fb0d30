//! The constrained ski-rental problem and its minimax solution
//! (Sections 3–4 of the paper).
//!
//! Given the break-even interval `B` and the pair of statistics
//! `(μ_B⁻, q_B⁺)`, the designer's threshold distribution that minimizes the
//! worst-case expected competitive ratio has the form of eq. (18): a
//! continuous exponential part plus probability atoms at `ε` (TOI), `B`
//! (DET), and `b` (b-DET). The augmented-Lagrangian / LP reduction of
//! Section 4 shows the optimum sits at a vertex of the `(α, β, γ)`
//! polytope, i.e. the best online algorithm is simply the cheapest of four
//! candidate strategies, DET, TOI, b-DET and N-Rand ([`numeric::vertex`]
//! tabulates their costs and defines the rule).
//!
//! [`ConstrainedStats`] exposes the vertex costs, the selected strategy,
//! the resulting worst-case CR (eq. (38) when b-DET wins), and an
//! independent cross-check that solves the Section-4.4 LP with a general
//! simplex solver.

use crate::cost::BreakEven;
use crate::policy::{BDet, Det, NRand, Policy, Toi};
use crate::summary::StopSummary;
use crate::{e_ratio, Error};
use numeric::simplex::{LinearProgram, Relation};
use numeric::vertex::{self, Vertex};
use rand::RngCore;
use stopmodel::{ConstrainedMoments, StopDistribution};

/// Which of the four vertex strategies the constrained solver selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyChoice {
    /// Deterministic threshold at `B`.
    Det,
    /// Turn off immediately.
    Toi,
    /// Deterministic threshold at `b < B`.
    BDet {
        /// The minimax-optimal threshold `b* = √(μ_B⁻·B / q_B⁺)`.
        b: f64,
    },
    /// The e/(e−1) randomized strategy.
    NRand,
}

impl StrategyChoice {
    /// Short display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Det => "DET",
            Self::Toi => "TOI",
            Self::BDet { .. } => "b-DET",
            Self::NRand => "N-Rand",
        }
    }
}

/// The b-DET vertex, when it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BDetVertex {
    /// The optimal threshold `b* = √(μ_B⁻·B / q_B⁺)`.
    pub b: f64,
    /// Its worst-case expected cost `(√μ_B⁻ + √(q_B⁺·B))²`.
    pub cost: f64,
}

/// Worst-case expected costs of the four vertex strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexCosts {
    /// `e/(e−1)·(μ_B⁻ + q_B⁺·B)`.
    pub n_rand: f64,
    /// `B`.
    pub toi: f64,
    /// `μ_B⁻ + 2·q_B⁺·B`.
    pub det: f64,
    /// The b-DET vertex, or `None` when eq. (36) fails or `b* > B` (in
    /// which regimes b-DET is dominated by DET/TOI).
    pub b_det: Option<BDetVertex>,
}

/// Fractional masses from solving the Section-4.4 LP with a general simplex
/// solver — the cross-check path for the closed-form vertex selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpSolution {
    /// Mass on the TOI atom (`α`).
    pub alpha: f64,
    /// Mass on the DET atom (`β`).
    pub beta: f64,
    /// Mass on the b-DET atom (`γ`).
    pub gamma: f64,
    /// The resulting worst-case expected online cost (objective (32)
    /// including its constant term).
    pub expected_cost: f64,
}

/// The constrained ski-rental instance: break-even interval plus the pair
/// `(μ_B⁻, q_B⁺)`.
///
/// This is the paper's central object: construct it from known statistics,
/// from a stop trace, or from an analytic distribution, then ask for the
/// minimax-optimal online strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedStats {
    moments: ConstrainedMoments,
}

impl ConstrainedStats {
    /// Creates an instance from the break-even interval and the statistics
    /// `μ_B⁻` (seconds) and `q_B⁺` (probability).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidMoments`] for a pair no distribution
    /// realizes (`μ_B⁻ > (1 − q_B⁺)·B`, probabilities outside `[0,1]`, …).
    pub fn new(break_even: BreakEven, mu_b_minus: f64, q_b_plus: f64) -> Result<Self, Error> {
        let moments = ConstrainedMoments::new(break_even.seconds(), mu_b_minus, q_b_plus)?;
        Ok(Self { moments })
    }

    /// Wraps an already-validated moment pair.
    #[must_use]
    pub fn from_moments(moments: ConstrainedMoments) -> Self {
        Self { moments }
    }

    /// Plug-in estimation from an observed stop trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrace`] if `stops` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any stop is negative or non-finite.
    pub fn from_samples(stops: &[f64], break_even: BreakEven) -> Result<Self, Error> {
        if stops.is_empty() {
            return Err(Error::EmptyTrace);
        }
        Ok(Self { moments: ConstrainedMoments::from_samples(stops, break_even.seconds()) })
    }

    /// Analytic moments from a stop-length distribution.
    #[must_use]
    pub fn from_distribution<D: StopDistribution + ?Sized>(
        dist: &D,
        break_even: BreakEven,
    ) -> Self {
        Self { moments: ConstrainedMoments::from_distribution(dist, break_even.seconds()) }
    }

    /// The underlying `(μ_B⁻, q_B⁺)` pair.
    #[must_use]
    pub fn moments(&self) -> &ConstrainedMoments {
        &self.moments
    }

    /// The break-even interval.
    #[must_use]
    pub fn break_even(&self) -> BreakEven {
        BreakEven::new(self.moments.break_even)
            .unwrap_or_else(|_| unreachable!("validated at construction"))
    }

    /// Expected offline cost `μ_B⁻ + q_B⁺·B` (eq. (13)) — the denominator
    /// of every CR here.
    #[must_use]
    pub fn expected_offline_cost(&self) -> f64 {
        self.moments.expected_offline_cost()
    }

    /// The four vertex costs and `b*`, from [`numeric::vertex`].
    fn costs(&self) -> vertex::Costs {
        vertex::costs(self.moments.mu_b_minus, self.moments.q_b_plus, self.moments.break_even)
    }

    /// Worst-case expected costs of the four vertex strategies.
    #[must_use]
    pub fn vertex_costs(&self) -> VertexCosts {
        let c = self.costs();
        VertexCosts { n_rand: c.n_rand, toi: c.toi, det: c.det, b_det: self.b_det_vertex() }
    }

    /// The b-DET vertex `b* = √(μ_B⁻·B/q_B⁺)` with cost eq. (35), when
    /// the feasibility condition (36) holds and `b* ≤ B`; `None` otherwise
    /// (then b-DET is dominated and never selected, as argued in
    /// Section 4.4).
    #[must_use]
    pub fn b_det_vertex(&self) -> Option<BDetVertex> {
        let c = self.costs();
        c.b_det.is_finite().then_some(BDetVertex { b: c.b_star, cost: c.b_det })
    }

    /// Selects the vertex with the smallest worst-case expected cost.
    ///
    /// Ties are resolved in the order DET, TOI, b-DET, N-Rand (preferring
    /// the simpler deterministic strategies).
    #[must_use]
    pub fn optimal_choice(&self) -> StrategyChoice {
        let c = self.costs();
        match c.argmin().0 {
            Vertex::Det => StrategyChoice::Det,
            Vertex::Toi => StrategyChoice::Toi,
            Vertex::BDet => StrategyChoice::BDet { b: c.b_star },
            Vertex::NRand => StrategyChoice::NRand,
        }
    }

    /// The smallest worst-case expected online cost achievable with the
    /// given statistics.
    #[must_use]
    pub fn worst_case_cost(&self) -> f64 {
        self.costs().argmin().1
    }

    /// The minimax worst-case expected competitive ratio — the value
    /// plotted in Figure 1(b) (and eq. (38) in the b-DET region). Defined
    /// as `1` when the expected offline cost is zero (all stops have zero
    /// length).
    #[must_use]
    pub fn worst_case_cr(&self) -> f64 {
        let offline = self.expected_offline_cost();
        if offline == 0.0 {
            return 1.0;
        }
        self.worst_case_cost() / offline
    }

    /// Worst-case expected CR of one specific strategy under these
    /// statistics (the four curves of Figure 2). Defined as `1` when the
    /// expected offline cost is zero.
    #[must_use]
    pub fn worst_case_cr_of(&self, choice: StrategyChoice) -> f64 {
        let offline = self.expected_offline_cost();
        if offline == 0.0 {
            return 1.0;
        }
        let v = self.vertex_costs();
        let cost = match choice {
            StrategyChoice::Det => v.det,
            StrategyChoice::Toi => v.toi,
            StrategyChoice::NRand => v.n_rand,
            StrategyChoice::BDet { b } => {
                // Worst-case cost of an arbitrary b (eq. (34)): the
                // adversary puts the short mass at {0, b}.
                let bb = self.moments.break_even;
                let mu = self.moments.mu_b_minus;
                let q = self.moments.q_b_plus;
                if b <= 0.0 {
                    bb // degenerates to TOI
                } else {
                    (b + bb) * (mu / b + q)
                }
            }
        };
        cost / offline
    }

    /// Builds the minimax-optimal online policy.
    #[must_use]
    pub fn optimal_policy(&self) -> ProposedPolicy {
        ProposedPolicy::new(*self)
    }

    /// Builds the concrete policy for a given vertex choice.
    #[must_use]
    pub fn policy_for(&self, choice: StrategyChoice) -> Box<dyn Policy + Send + Sync> {
        let be = self.break_even();
        match choice {
            StrategyChoice::Det => Box::new(Det::new(be)),
            StrategyChoice::Toi => Box::new(Toi::new(be)),
            StrategyChoice::NRand => Box::new(NRand::new(be)),
            StrategyChoice::BDet { b } => Box::new(
                BDet::new(be, b.min(be.seconds()))
                    .unwrap_or_else(|_| unreachable!("b* <= B by construction")),
            ),
        }
    }

    /// Independently re-derives the vertex selection by solving the
    /// Section-4.4 linear program (objective (32), constraints (33)) with
    /// the general-purpose simplex solver, instead of the closed-form
    /// argmin.
    ///
    /// The returned masses are the atom weights `(α, β, γ)` of eq. (18);
    /// the remaining `1 − α − β − γ` goes to the continuous N-Rand-shaped
    /// density. `expected_cost` equals [`Self::worst_case_cost`] up to
    /// solver tolerance — asserted by tests and the `ablation_lp` bench.
    #[must_use]
    pub fn solve_lp(&self) -> LpSolution {
        let b = self.moments.break_even;
        let mu = self.moments.mu_b_minus;
        let q = self.moments.q_b_plus;
        let offline = mu + q * b;
        let base = e_ratio() * offline;

        // K coefficients of objective (32).
        let k_alpha = b - base;
        let k_beta = (mu + 2.0 * q * b) - base;
        let k_gamma = match self.b_det_vertex() {
            Some(v) => v.cost - base,
            // No feasible b-DET atom: bar γ from entering by pricing it
            // like DET at b = B (dominated, so it never improves the LP).
            None => (2.0 * mu + 2.0 * q * b) - base,
        };

        let mut lp = LinearProgram::minimize(vec![k_alpha, k_beta, k_gamma]);
        lp.constrain(vec![1.0, 1.0, 1.0], Relation::Le, 1.0);
        let sol = lp.solve().unwrap_or_else(|_| unreachable!("vertex LP is bounded and feasible"));
        LpSolution {
            alpha: sol.x[0],
            beta: sol.x[1],
            gamma: sol.x[2],
            expected_cost: base + sol.objective,
        }
    }
}

/// Result of solving the full constrained minimax as a matrix game
/// (see [`ConstrainedStats::solve_minimax_game`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MinimaxSolution {
    /// The game value: the minimax worst-case expected online cost over
    /// the discretized strategy spaces.
    pub value: f64,
    /// The optimal threshold distribution: `(threshold, probability)`
    /// pairs with non-negligible mass, sorted by threshold.
    pub threshold_distribution: Vec<(f64, f64)>,
}

impl ConstrainedStats {
    /// Solves the paper's minimax problem (eq. (16)) *numerically*, with
    /// no structural assumptions: both players are discretized onto grids
    /// (thresholds on `[0, B]`, adversary support on `[0, B)` ∪ `{B}`,
    /// each enriched with the closed-form `b*`), the adversary's moment
    /// constraints are dualized, and the resulting single LP is solved
    /// with the general simplex solver.
    ///
    /// Formulation: with cost matrix `C[i][j] = cost_online(x_i, y_j)`
    /// and adversary polytope `Q = {q ≥ 0 : 1ᵀq = 1, Σ_{y<B} y·q = μ_B⁻,
    /// Σ_{y≥B} q = q_B⁺}`, LP duality on the inner maximization gives
    ///
    /// ```text
    /// min_{p ≥ 0, w}  w·(1, μ, q)   s.t.  Aᵀw ≥ Cᵀp,  1ᵀp = 1
    /// ```
    ///
    /// The value is an *achievable* worst-case expected cost: the optimal
    /// `p` is supported on the adversary grid, and against a finite mixed
    /// threshold policy the continuum adversary gains nothing over the
    /// grid (its worst response concentrates on `{0} ∪ supp(p) ∪ {B}`).
    /// It therefore never exceeds the paper's four-vertex
    /// [`Self::worst_case_cost`] — and, notably, it is **strictly below
    /// it** in parts of the b-DET and N-Rand regions: the paper's
    /// solution family (eq. (18), derived by forcing the cost curve to be
    /// affine in `y`) is not fully general, and a richer threshold
    /// mixture can do better against moment-constrained adversaries. In
    /// the DET and TOI regions the game recovers the pure vertex exactly.
    /// See the `minimax_game_*` tests, which certify the improved
    /// strategies through the independent
    /// [`crate::adversary::worst_distribution_lp`] path.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 4`, or if `μ_B⁻` is so close to its cap
    /// `(1 − q_B⁺)·B` that no distribution on the adversary grid realizes
    /// it (the grid's largest short-stop support point is
    /// `B·(grid−1)/grid`; stay below that fraction of the cap).
    #[must_use]
    pub fn solve_minimax_game(&self, grid: usize) -> MinimaxSolution {
        assert!(grid >= 4, "grid must have at least 4 points");
        let b = self.moments.break_even;
        let mu = self.moments.mu_b_minus;
        let q = self.moments.q_b_plus;
        let grid_cap = (1.0 - q) * b * (grid as f64 - 1.0) / grid as f64;
        assert!(
            mu <= grid_cap + 1e-12,
            "mu_B- = {mu} not representable on a {grid}-point adversary grid \
             (cap {grid_cap}); refine the grid or move off the boundary"
        );

        // Threshold grid on [0, B] and adversary grid on [0, B) ∪ {B},
        // both enriched with b* so the vertex optimum is representable.
        let mut xs: Vec<f64> = (0..=grid).map(|i| b * i as f64 / grid as f64).collect();
        let mut ys: Vec<f64> = (0..grid).map(|i| b * i as f64 / grid as f64).collect();
        ys.push(b);
        if let Some(v) = self.b_det_vertex() {
            xs.push(v.b);
            ys.push(v.b);
        }
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        ys.sort_by(f64::total_cmp);
        ys.dedup();

        let be = self.break_even();
        let n_p = xs.len();
        // Variables: p_0..p_{n_p−1}, then w⁺ (3), then w⁻ (3).
        let n_vars = n_p + 6;
        let mut objective = vec![0.0; n_vars];
        let d = [1.0, mu, q];
        for r in 0..3 {
            objective[n_p + r] = d[r];
            objective[n_p + 3 + r] = -d[r];
        }
        let mut lp = numeric::simplex::LinearProgram::minimize(objective);
        // For each adversary point y_j: Σ_r A[r][j]·w_r − Σ_i C[i][j]·p_i ≥ 0.
        for &y in &ys {
            let mut row = vec![0.0; n_vars];
            for (i, &x) in xs.iter().enumerate() {
                row[i] = -be.online_cost(x, y);
            }
            // A rows: total mass, short partial mean, long mass.
            let a = [1.0, if y < b { y } else { 0.0 }, if y >= b { 1.0 } else { 0.0 }];
            for r in 0..3 {
                row[n_p + r] = a[r];
                row[n_p + 3 + r] = -a[r];
            }
            lp.constrain(row, numeric::simplex::Relation::Ge, 0.0);
        }
        // Probability normalization of the online player.
        let mut norm = vec![0.0; n_vars];
        norm[..n_p].fill(1.0);
        lp.constrain(norm, numeric::simplex::Relation::Eq, 1.0);

        let sol =
            lp.solve().unwrap_or_else(|_| unreachable!("minimax game LP is feasible and bounded"));
        let threshold_distribution = xs
            .iter()
            .zip(&sol.x[..n_p])
            .filter(|&(_, &p)| p > 1e-9)
            .map(|(&x, &p)| (x, p))
            .collect();
        MinimaxSolution { value: sol.objective, threshold_distribution }
    }
}

/// One adversary moment constraint for [`moment_constrained_cr_game`]:
/// `E[yᵖ] = value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentConstraint {
    /// The moment order `p > 0` (1 = mean, 2 = second raw moment, …).
    pub power: f64,
    /// The prescribed value of `E[yᵖ]`.
    pub value: f64,
}

/// Solves the Appendix-B style problem numerically for an arbitrary set
/// of raw-moment constraints:
/// `min_P max_q E[cost]/E[offline]` over all stop-length distributions
/// with `E[y^{p_k}] = v_k` for every constraint (or over *all*
/// distributions if none are given), with thresholds restricted to
/// `[0, B]` (Appendix A).
///
/// The inner maximization has a ratio objective; the Charnes–Cooper
/// transformation makes it an LP, whose dual folds into a single
/// minimization jointly with the threshold distribution:
///
/// ```text
/// min  w₁  s.t.  offline(y)·w₁ + Σₖ y^{p_k}·uₖ + w₀ ≥ Σᵢ pᵢ·cost(xᵢ, y) ∀y
///                −Σₖ vₖ·uₖ − w₀ ≥ 0,   Σᵢ pᵢ = 1,  p ≥ 0
/// ```
///
/// The value `w₁` is the worst-case expected CR directly. With no
/// constraints this recovers Karlin et al.'s `e/(e−1)` (a strong check of
/// the machinery). Appendix B claims neither the first nor the second
/// moment can improve on N-Rand; this solver tests those claims instance
/// by instance — and (like the eq.-(18) family restriction, see
/// [`ConstrainedStats::solve_minimax_game`]) finds they hold only for
/// large moments: small ones admit tailored mixtures that beat `e/(e−1)`.
///
/// # Panics
///
/// Panics if `grid < 4`, any power is non-positive, or any value is
/// non-positive/non-finite or unrealizable on the capped adversary
/// support (`y ≤ 50·B`).
#[must_use]
pub fn moment_constrained_cr_game(
    break_even: BreakEven,
    constraints: &[MomentConstraint],
    grid: usize,
) -> MinimaxSolution {
    use numeric::simplex::{LinearProgram, Relation};
    assert!(grid >= 4, "grid must have at least 4 points");
    let b = break_even.seconds();
    for c in constraints {
        assert!(c.power.is_finite() && c.power > 0.0, "moment power must be positive");
        assert!(
            c.value.is_finite() && c.value > 0.0,
            "moment value must be positive, got {}",
            c.value
        );
        assert!(
            c.value < (50.0 * b).powf(c.power),
            "moment E[y^{}] = {} exceeds the adversary support cap of (50B)^p",
            c.power,
            c.value
        );
    }
    let xs: Vec<f64> = (0..=grid).map(|i| b * i as f64 / grid as f64).collect();
    // Adversary support: (0, B] grid (y = 0 contributes nothing to either
    // cost and only relaxes the moment constraints, which mass at the
    // smallest grid point approximates), plus a geometric tail beyond B —
    // needed to realize moments larger than the support on [0, B] allows
    // (cost and offline are flat past B, the moment budgets are not).
    let mut ys: Vec<f64> = (1..=grid).map(|i| b * i as f64 / grid as f64).collect();
    for &mult in &[1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0] {
        ys.push(mult * b);
    }
    ys.sort_by(f64::total_cmp);
    ys.dedup();

    let n_p = xs.len();
    let n_c = constraints.len();
    // Variables: p…, then (w1, u_1..u_k, w0) split into ± parts.
    let n_w = 2 + n_c;
    let n_vars = n_p + 2 * n_w;
    let mut objective = vec![0.0; n_vars];
    objective[n_p] = 1.0; // w1+
    objective[n_p + n_w] = -1.0; // w1−
    let mut lp = LinearProgram::minimize(objective);
    for &y in &ys {
        let mut row = vec![0.0; n_vars];
        for (i, &x) in xs.iter().enumerate() {
            row[i] = -break_even.online_cost(x, y);
        }
        let offline = break_even.offline_cost(y);
        row[n_p] = offline;
        row[n_p + n_w] = -offline;
        for (k, c) in constraints.iter().enumerate() {
            let moment = y.powf(c.power);
            row[n_p + 1 + k] = moment;
            row[n_p + n_w + 1 + k] = -moment;
        }
        row[n_p + 1 + n_c] = 1.0;
        row[n_p + n_w + 1 + n_c] = -1.0;
        lp.constrain(row, Relation::Ge, 0.0);
    }
    // Dual feasibility of the Charnes–Cooper scale variable t.
    let mut t_row = vec![0.0; n_vars];
    for (k, c) in constraints.iter().enumerate() {
        t_row[n_p + 1 + k] = -c.value;
        t_row[n_p + n_w + 1 + k] = c.value;
    }
    t_row[n_p + 1 + n_c] = -1.0;
    t_row[n_p + n_w + 1 + n_c] = 1.0;
    lp.constrain(t_row, Relation::Ge, 0.0);
    // Normalize p.
    let mut norm = vec![0.0; n_vars];
    norm[..n_p].fill(1.0);
    lp.constrain(norm, Relation::Eq, 1.0);

    let sol = lp
        .solve()
        .unwrap_or_else(|_| unreachable!("moment-constrained CR game is feasible and bounded"));
    let threshold_distribution =
        xs.iter().zip(&sol.x[..n_p]).filter(|&(_, &p)| p > 1e-9).map(|(&x, &p)| (x, p)).collect();
    MinimaxSolution { value: sol.objective, threshold_distribution }
}

/// [`moment_constrained_cr_game`] with just a first-moment (mean)
/// constraint — the exact Appendix-B setting — or unconstrained if `mean`
/// is `None`.
///
/// # Panics
///
/// Same conditions as [`moment_constrained_cr_game`].
#[must_use]
pub fn mean_constrained_cr_game(
    break_even: BreakEven,
    mean: Option<f64>,
    grid: usize,
) -> MinimaxSolution {
    match mean {
        None => moment_constrained_cr_game(break_even, &[], grid),
        Some(m) => {
            assert!(m.is_finite() && m > 0.0, "mean must be positive, got {m}");
            assert!(
                m < 50.0 * break_even.seconds(),
                "mean {m} exceeds the adversary support cap of 50·B = {}",
                50.0 * break_even.seconds()
            );
            moment_constrained_cr_game(
                break_even,
                &[MomentConstraint { power: 1.0, value: m }],
                grid,
            )
        }
    }
}

/// The paper's proposed online algorithm: the minimax-optimal vertex
/// strategy for the instance's `(μ_B⁻, q_B⁺)`.
///
/// Implements [`Policy`] by delegating to the selected concrete strategy,
/// so it can be dropped anywhere a DET/TOI/N-Rand policy is used (fleet
/// evaluation, the engine controller, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedPolicy {
    stats: ConstrainedStats,
    choice: StrategyChoice,
    inner: Inner,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Inner {
    Det(Det),
    Toi(Toi),
    BDet(BDet),
    NRand(NRand),
}

impl ProposedPolicy {
    /// Builds the optimal policy for the given constrained instance.
    #[must_use]
    pub fn new(stats: ConstrainedStats) -> Self {
        let choice = stats.optimal_choice();
        let be = stats.break_even();
        let inner = match choice {
            StrategyChoice::Det => Inner::Det(Det::new(be)),
            StrategyChoice::Toi => Inner::Toi(Toi::new(be)),
            StrategyChoice::NRand => Inner::NRand(NRand::new(be)),
            StrategyChoice::BDet { b } => Inner::BDet(
                BDet::new(be, b.min(be.seconds()))
                    .unwrap_or_else(|_| unreachable!("b* <= B by construction")),
            ),
        };
        Self { stats, choice, inner }
    }

    /// Which vertex strategy was selected.
    #[must_use]
    pub fn choice(&self) -> StrategyChoice {
        self.choice
    }

    /// The constrained instance the policy was derived from.
    #[must_use]
    pub fn stats(&self) -> &ConstrainedStats {
        &self.stats
    }

    /// Guaranteed worst-case expected cost over all distributions
    /// consistent with the instance's statistics.
    #[must_use]
    pub fn worst_case_cost(&self) -> f64 {
        self.stats.worst_case_cost()
    }

    /// Guaranteed worst-case expected competitive ratio.
    #[must_use]
    pub fn worst_case_cr(&self) -> f64 {
        self.stats.worst_case_cr()
    }

    /// The decision-trace event for a threshold drawn from this policy:
    /// the selected vertex, the `(μ_B⁻, q_B⁺)` statistics it was derived
    /// from, and its worst-case cost bound. Instrumentation sites share
    /// this so every `StopDecision` in a trace carries the same payload
    /// shape.
    #[must_use]
    pub fn trace_decision(&self, threshold_b: f64) -> obsv::TraceEvent {
        let m = self.stats.moments();
        obsv::TraceEvent::StopDecision {
            vertex: self.choice.name().into(),
            threshold_b,
            mu_b_minus: Some(m.mu_b_minus),
            q_b_plus: Some(m.q_b_plus),
            chosen_cost_bound: Some(self.worst_case_cost()),
        }
    }

    fn as_policy(&self) -> &dyn Policy {
        match &self.inner {
            Inner::Det(p) => p,
            Inner::Toi(p) => p,
            Inner::BDet(p) => p,
            Inner::NRand(p) => p,
        }
    }
}

impl Policy for ProposedPolicy {
    fn name(&self) -> &'static str {
        "Proposed"
    }

    fn break_even(&self) -> BreakEven {
        self.stats.break_even()
    }

    fn expected_cost(&self, y: f64) -> f64 {
        self.as_policy().expected_cost(y)
    }

    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64 {
        self.as_policy().sample_threshold(rng)
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        self.as_policy().threshold_cdf(x)
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        self.as_policy().total_cost_on(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    fn stats(b: f64, mu: f64, q: f64) -> ConstrainedStats {
        ConstrainedStats::new(BreakEven::new(b).unwrap(), mu, q).unwrap()
    }

    #[test]
    fn vertex_costs_formulas() {
        let s = stats(28.0, 5.0, 0.3);
        let v = s.vertex_costs();
        let offline = 5.0 + 0.3 * 28.0;
        assert!(approx_eq(v.n_rand, e_ratio() * offline, 1e-12));
        assert_eq!(v.toi, 28.0);
        assert!(approx_eq(v.det, 5.0 + 2.0 * 0.3 * 28.0, 1e-12));
        let bd = v.b_det.expect("feasible here");
        assert!(approx_eq(bd.b, (5.0 * 28.0 / 0.3f64).sqrt(), 1e-12));
        assert!(approx_eq(bd.cost, (5.0f64.sqrt() + (0.3 * 28.0f64).sqrt()).powi(2), 1e-12));
    }

    #[test]
    fn bdet_vertex_requires_condition_36() {
        // μ/B >= (1−q)²/q → no b-DET.
        // With B=28, q=0.5: cap is 0.5·28 = 14 for condition.
        let s = stats(28.0, 14.0, 0.5); // μ/B = 0.5, (1−q)²/q = 0.5 → equal, fails (strict)
        assert!(s.b_det_vertex().is_none());
        let s2 = stats(28.0, 13.0, 0.5);
        // μ/B = 0.464 < 0.5 → condition holds; b* = sqrt(13·28/0.5) = 26.98 ≤ 28 ✓
        assert!(s2.b_det_vertex().is_some());
    }

    #[test]
    fn bdet_vertex_requires_b_star_below_b() {
        // b* > B ⟺ μ > qB. With μ=10, q=0.2, B=28: qB=5.6 < 10 → b*>B.
        let s = stats(28.0, 10.0, 0.2);
        assert!(s.b_det_vertex().is_none());
    }

    #[test]
    fn bdet_vertex_degenerate_moments() {
        assert!(stats(28.0, 0.0, 0.3).b_det_vertex().is_none());
        assert!(stats(28.0, 5.0, 0.0).b_det_vertex().is_none());
        assert!(stats(28.0, 0.0, 1.0).b_det_vertex().is_none());
    }

    #[test]
    fn light_traffic_selects_det() {
        // q → 0: offline ≈ μ, DET cost ≈ μ → CR ≈ 1; nothing beats it.
        let s = stats(28.0, 10.0, 0.01);
        assert_eq!(s.optimal_choice(), StrategyChoice::Det);
        assert!(s.worst_case_cr() < 1.1);
    }

    #[test]
    fn heavy_traffic_selects_toi() {
        // q → 1: TOI cost B = offline → CR → 1.
        let s = stats(28.0, 0.05, 0.95);
        assert_eq!(s.optimal_choice(), StrategyChoice::Toi);
        assert!(s.worst_case_cr() < 1.1);
    }

    #[test]
    fn moderate_traffic_selects_nrand() {
        // Mid-range μ, q (μ ≈ 0.3·q·B): the randomized e/(e−1) bound wins
        // over TOI (cost 28 > 20.2), DET (22.5), and b-DET (23.5).
        let s = stats(28.0, 2.94, 0.35);
        assert_eq!(s.optimal_choice(), StrategyChoice::NRand);
        assert!(approx_eq(s.worst_case_cr(), e_ratio(), 1e-12));
    }

    #[test]
    fn tiny_short_stops_select_bdet() {
        // The Figure-2(c) regime: μ = 0.02·B.
        let s = stats(28.0, 0.02 * 28.0, 0.3);
        match s.optimal_choice() {
            StrategyChoice::BDet { b } => {
                assert!(b > 0.0 && b < 28.0);
            }
            other => panic!("expected b-DET, got {other:?}"),
        }
        // And it strictly beats the other three.
        let v = s.vertex_costs();
        let bd = v.b_det.unwrap();
        assert!(bd.cost < v.n_rand && bd.cost < v.det && bd.cost < v.toi);
    }

    #[test]
    fn proposed_cr_never_exceeds_e_ratio_or_two() {
        // The proposed algorithm combines the best of all candidates, so
        // its worst-case CR is at most min(e/(e−1), CR_DET) ≤ e/(e−1).
        for qi in 0..=20 {
            let q = qi as f64 / 20.0;
            for mi in 0..=20 {
                let mu = mi as f64 / 20.0 * (1.0 - q) * 28.0;
                let s = stats(28.0, mu, q);
                let cr = s.worst_case_cr();
                assert!(cr <= e_ratio() + 1e-12, "cr {cr} at mu={mu}, q={q}");
                assert!(cr >= 1.0 - 1e-12, "cr {cr} < 1 at mu={mu}, q={q}");
            }
        }
    }

    #[test]
    fn proposed_is_min_of_vertex_crs() {
        for &(mu, q) in &[(1.0, 0.1), (5.0, 0.3), (0.5, 0.6), (20.0, 0.05), (0.0, 0.5)] {
            let s = stats(28.0, mu, q);
            let v = s.vertex_costs();
            let mut min = v.n_rand.min(v.toi).min(v.det);
            if let Some(bd) = v.b_det {
                min = min.min(bd.cost);
            }
            assert!(approx_eq(s.worst_case_cost(), min, 1e-12));
        }
    }

    #[test]
    fn eq38_in_bdet_region() {
        let s = stats(28.0, 0.05 * 28.0, 0.6);
        if let StrategyChoice::BDet { .. } = s.optimal_choice() {
            let mu = 0.05f64 * 28.0;
            let qb = 0.6f64 * 28.0;
            let want = (mu.sqrt() + qb.sqrt()).powi(2) / (mu + qb);
            assert!(approx_eq(s.worst_case_cr(), want, 1e-12));
        } else {
            panic!("expected b-DET region");
        }
    }

    #[test]
    fn zero_offline_cost_edge_case() {
        let s = stats(28.0, 0.0, 0.0);
        assert_eq!(s.worst_case_cr(), 1.0);
        assert_eq!(s.optimal_choice(), StrategyChoice::Det); // cost 0 tie → DET
        assert_eq!(s.worst_case_cost(), 0.0);
    }

    #[test]
    fn lp_matches_closed_form_on_grid() {
        for qi in 0..=10 {
            let q = qi as f64 / 10.0;
            for mi in 0..=10 {
                let mu = mi as f64 / 10.0 * (1.0 - q) * 28.0;
                let s = stats(28.0, mu, q);
                let lp = s.solve_lp();
                assert!(
                    approx_eq(lp.expected_cost, s.worst_case_cost(), 1e-7),
                    "LP {} vs closed form {} at mu={mu}, q={q}",
                    lp.expected_cost,
                    s.worst_case_cost()
                );
                // Masses are a valid sub-probability vector.
                assert!(lp.alpha >= -1e-9 && lp.beta >= -1e-9 && lp.gamma >= -1e-9);
                assert!(lp.alpha + lp.beta + lp.gamma <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn lp_vertex_identifies_choice() {
        // In the b-DET regime the LP puts all mass on γ.
        let s = stats(28.0, 0.02 * 28.0, 0.3);
        let lp = s.solve_lp();
        assert!(approx_eq(lp.gamma, 1.0, 1e-9), "gamma = {}", lp.gamma);
        // In the N-Rand regime, no atoms at all.
        let s2 = stats(28.0, 2.94, 0.35);
        let lp2 = s2.solve_lp();
        assert!(lp2.alpha + lp2.beta + lp2.gamma < 1e-9);
    }

    #[test]
    fn from_samples_and_distribution_agree() {
        use stopmodel::dist::Empirical;
        let stops = [3.0, 5.0, 40.0, 12.0, 80.0, 7.0];
        let be = BreakEven::new(28.0).unwrap();
        let a = ConstrainedStats::from_samples(&stops, be).unwrap();
        let e = Empirical::from_samples(&stops).unwrap();
        let b = ConstrainedStats::from_distribution(&e, be);
        assert!(approx_eq(a.moments().mu_b_minus, b.moments().mu_b_minus, 1e-12));
        assert!(approx_eq(a.moments().q_b_plus, b.moments().q_b_plus, 1e-12));
    }

    #[test]
    fn from_samples_rejects_empty() {
        let be = BreakEven::new(28.0).unwrap();
        assert_eq!(ConstrainedStats::from_samples(&[], be), Err(Error::EmptyTrace));
    }

    #[test]
    fn proposed_policy_delegates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = stats(28.0, 2.94, 0.35); // N-Rand region
        let p = s.optimal_policy();
        assert_eq!(p.name(), "Proposed");
        assert_eq!(p.choice(), StrategyChoice::NRand);
        assert!(approx_eq(p.expected_cost(10.0), e_ratio() * 10.0, 1e-12));
        let mut rng = StdRng::seed_from_u64(1);
        let x = p.sample_threshold(&mut rng);
        assert!((0.0..=28.0).contains(&x));
        assert!(approx_eq(p.worst_case_cr(), e_ratio(), 1e-12));
    }

    #[test]
    fn policy_for_builds_each_kind() {
        let s = stats(28.0, 5.0, 0.3);
        assert_eq!(s.policy_for(StrategyChoice::Det).name(), "DET");
        assert_eq!(s.policy_for(StrategyChoice::Toi).name(), "TOI");
        assert_eq!(s.policy_for(StrategyChoice::NRand).name(), "N-Rand");
        assert_eq!(s.policy_for(StrategyChoice::BDet { b: 10.0 }).name(), "b-DET");
    }

    #[test]
    fn worst_case_cr_of_matches_vertices() {
        let s = stats(28.0, 5.0, 0.3);
        let off = s.expected_offline_cost();
        assert!(approx_eq(s.worst_case_cr_of(StrategyChoice::NRand), e_ratio(), 1e-12));
        assert!(approx_eq(s.worst_case_cr_of(StrategyChoice::Toi), 28.0 / off, 1e-12));
        assert!(approx_eq(
            s.worst_case_cr_of(StrategyChoice::Det),
            (5.0 + 2.0 * 0.3 * 28.0) / off,
            1e-12
        ));
        // eq. (34) at the optimal b equals eq. (35)/offline.
        let bd = s.b_det_vertex().unwrap();
        assert!(approx_eq(
            s.worst_case_cr_of(StrategyChoice::BDet { b: bd.b }),
            bd.cost / off,
            1e-12
        ));
        // b = 0 degenerates to TOI.
        assert!(approx_eq(s.worst_case_cr_of(StrategyChoice::BDet { b: 0.0 }), 28.0 / off, 1e-12));
    }

    #[test]
    fn optimal_b_minimizes_eq34() {
        // Scan b over (0, B] and confirm the closed-form b* is the argmin.
        let s = stats(28.0, 1.0, 0.3);
        let bd = s.b_det_vertex().unwrap();
        let best_scan = (1..=2800)
            .map(|i| {
                let b = i as f64 / 100.0;
                (b, s.worst_case_cr_of(StrategyChoice::BDet { b }))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((best_scan.0 - bd.b).abs() < 0.02, "scan argmin {} vs b* {}", best_scan.0, bd.b);
    }

    #[test]
    fn minimax_game_matches_closed_form_det_region() {
        // Light traffic: closed form picks DET; the game LP must find the
        // same value with all mass at x = B.
        let s = stats(28.0, 10.0, 0.01);
        let sol = s.solve_minimax_game(40);
        assert!(
            approx_eq(sol.value, s.worst_case_cost(), 0.01),
            "game {} vs closed form {}",
            sol.value,
            s.worst_case_cost()
        );
        let mass_at_b: f64 = sol
            .threshold_distribution
            .iter()
            .filter(|(x, _)| (*x - 28.0).abs() < 1e-9)
            .map(|(_, p)| p)
            .sum();
        assert!(mass_at_b > 0.99, "mass at B: {mass_at_b}");
    }

    #[test]
    fn minimax_game_matches_closed_form_toi_region() {
        let s = stats(28.0, 0.05, 0.95);
        let sol = s.solve_minimax_game(40);
        assert!(approx_eq(sol.value, s.worst_case_cost(), 0.01));
        // All mass at the smallest thresholds.
        let low_mass: f64 = sol
            .threshold_distribution
            .iter()
            .filter(|(x, _)| *x < 28.0 / 40.0 + 1e-9)
            .map(|(_, p)| p)
            .sum();
        assert!(low_mass > 0.99, "mass near 0: {low_mass}");
    }

    /// Certifies a game solution through the independent adversary-LP
    /// path: builds the mixed policy and lets `worst_distribution_lp`
    /// attack it on a fine grid.
    fn certify_game_value(s: &ConstrainedStats, sol: &MinimaxSolution) -> f64 {
        use crate::adversary::worst_distribution_lp;
        use crate::policy::MixedThreshold;
        let policy =
            MixedThreshold::new(s.break_even(), sol.threshold_distribution.clone()).unwrap();
        let (_, certified) = worst_distribution_lp(&policy, s.moments(), 1120).unwrap();
        certified
    }

    #[test]
    fn minimax_game_beats_paper_vertices_in_bdet_region() {
        // FINDING: the paper's four-vertex solution is not minimax-optimal
        // here — a general threshold mixture achieves a strictly lower
        // worst-case expected cost against the same adversary class.
        let s = stats(28.0, 0.02 * 28.0, 0.3);
        let sol = s.solve_minimax_game(40);
        assert!(
            sol.value < s.worst_case_cost() * 0.95,
            "game {} vs paper's four-vertex {}",
            sol.value,
            s.worst_case_cost()
        );
        // Independent certification: attacking the mixed policy with the
        // adversary LP on a much finer grid cannot push its cost
        // meaningfully above the game value.
        let certified = certify_game_value(&s, &sol);
        assert!(
            certified <= sol.value * (1.0 + 0.02),
            "certified {certified} vs game value {}",
            sol.value
        );
    }

    #[test]
    fn minimax_game_at_most_e_ratio_in_nrand_region() {
        // In the N-Rand regime the moment-constrained adversary is weaker
        // than the unconstrained one, so the true game value sits at or
        // below e/(e−1)·offline; the optimal strategy is a genuine spread.
        let s = stats(28.0, 2.94, 0.35);
        let sol = s.solve_minimax_game(80);
        let paper = s.worst_case_cost();
        assert!(sol.value <= paper * (1.0 + 1e-9), "game {} vs paper {paper}", sol.value);
        assert!(sol.value > 0.9 * paper, "game {} suspiciously low vs {paper}", sol.value);
        assert!(
            sol.threshold_distribution.len() > 5,
            "support size {}",
            sol.threshold_distribution.len()
        );
        let certified = certify_game_value(&s, &sol);
        assert!(certified <= sol.value * (1.0 + 0.02), "certified {certified}");
    }

    #[test]
    fn mean_game_unconstrained_recovers_e_ratio() {
        let sol = mean_constrained_cr_game(BreakEven::SSV, None, 64);
        assert!(
            (sol.value - e_ratio()).abs() < 0.02,
            "unconstrained game CR {} vs e/(e-1)",
            sol.value
        );
        // The optimal strategy is a genuine mixture (discretized N-Rand).
        assert!(sol.threshold_distribution.len() > 10);
    }

    #[test]
    fn mean_game_appendix_b_claim_fails_for_small_means() {
        let b = BreakEven::SSV;
        let unconstrained = mean_constrained_cr_game(b, None, 48);
        let small = mean_constrained_cr_game(b, Some(2.0), 48);
        assert!(
            small.value < unconstrained.value - 0.03,
            "small-mean game {} vs unconstrained {}",
            small.value,
            unconstrained.value
        );
    }

    #[test]
    fn mean_game_constraint_worthless_for_large_means() {
        let b = BreakEven::SSV;
        let unconstrained = mean_constrained_cr_game(b, None, 48);
        for &m in &[25.0, 40.0, 200.0] {
            let sol = mean_constrained_cr_game(b, Some(m), 48);
            assert!(
                (sol.value - unconstrained.value).abs() < 1e-6,
                "mean {m}: {} vs {}",
                sol.value,
                unconstrained.value
            );
        }
    }

    #[test]
    fn mean_game_monotone_in_mean() {
        let b = BreakEven::SSV;
        let mut prev = 0.0;
        for &m in &[1.0, 3.0, 8.0, 15.0] {
            let v = mean_constrained_cr_game(b, Some(m), 48).value;
            assert!(v + 1e-9 >= prev, "not monotone at mean {m}");
            prev = v;
        }
    }

    #[test]
    fn second_moment_game_matches_appendix_b_shape() {
        // Appendix B also claims the second moment yields N-Rand; like the
        // first moment, that holds only for large values.
        let b = BreakEven::SSV;
        let unconstrained = moment_constrained_cr_game(b, &[], 48);
        let small =
            moment_constrained_cr_game(b, &[MomentConstraint { power: 2.0, value: 25.0 }], 48);
        assert!(
            small.value < unconstrained.value - 0.05,
            "small second moment: {} vs {}",
            small.value,
            unconstrained.value
        );
        let large =
            moment_constrained_cr_game(b, &[MomentConstraint { power: 2.0, value: 4000.0 }], 48);
        assert!((large.value - unconstrained.value).abs() < 1e-6);
    }

    #[test]
    fn joint_moment_constraints_help_more_than_single() {
        let b = BreakEven::SSV;
        let mean_only =
            moment_constrained_cr_game(b, &[MomentConstraint { power: 1.0, value: 5.0 }], 48);
        let joint = moment_constrained_cr_game(
            b,
            &[
                MomentConstraint { power: 1.0, value: 5.0 },
                MomentConstraint { power: 2.0, value: 100.0 },
            ],
            48,
        );
        assert!(
            joint.value <= mean_only.value + 1e-9,
            "joint {} vs mean-only {}",
            joint.value,
            mean_only.value
        );
        assert!(joint.value < mean_only.value - 0.01, "joint should strictly help here");
    }

    #[test]
    #[should_panic(expected = "moment value must be positive")]
    fn moment_game_rejects_bad_value() {
        let _ = moment_constrained_cr_game(
            BreakEven::SSV,
            &[MomentConstraint { power: 2.0, value: -1.0 }],
            16,
        );
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn mean_game_rejects_bad_mean() {
        let _ = mean_constrained_cr_game(BreakEven::SSV, Some(-1.0), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds the adversary support cap")]
    fn mean_game_rejects_unrepresentable_mean() {
        let _ = mean_constrained_cr_game(BreakEven::SSV, Some(28.0 * 60.0), 16);
    }

    #[test]
    fn strategy_choice_names() {
        assert_eq!(StrategyChoice::Det.name(), "DET");
        assert_eq!(StrategyChoice::Toi.name(), "TOI");
        assert_eq!(StrategyChoice::NRand.name(), "N-Rand");
        assert_eq!(StrategyChoice::BDet { b: 1.0 }.name(), "b-DET");
    }
}
