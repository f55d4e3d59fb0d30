//! The paper's vertex rule (Section 4.4, eqs. (33)–(36)) has one
//! definition, `numeric::vertex`, which the scalar solver, the batch
//! kernel and the monitor all call. These tests pin it to independent
//! references over the whole feasible `(μ_B⁻, q_B⁺)` region and its
//! boundaries:
//!
//! * the equation index `skirental::theory` (eqs. (13), (14), (35), (36)),
//!   written from the paper's text;
//! * the Section-4.4 LP solved by the general simplex solver
//!   (`ConstrainedStats::solve_lp`);
//! * the batch kernel's `VertexKind` on lanes whose observed stops land
//!   on each point, against `ConstrainedStats::optimal_choice` of the
//!   lane's own plug-in moments.

use automotive_idling::numeric::approx_eq;
use automotive_idling::numeric::vertex::{self, Vertex};
use automotive_idling::skirental::batch::{BatchStore, CounterRng, VertexKind};
use automotive_idling::skirental::theory::{
    eq13_expected_offline_cost, eq14_expected_det_cost, eq35_b_det_optimal_cost,
    eq36_b_det_condition,
};
use automotive_idling::skirental::{e_ratio, BreakEven, ConstrainedStats, StrategyChoice};

const B: f64 = 28.0;
const GRID: u32 = 40;

/// The 41 × 41 feasible grid `q = i/40`, `μ = (1−q)·B·j/40`, then the
/// boundary points: eq. (36) at equality, `b* = B` (`μ = q·B`), and the
/// corners `q ∈ {0, 1}`, `μ = 0`.
fn points() -> Vec<(f64, f64)> {
    let mut pts = Vec::new();
    for qi in 0..=GRID {
        let q = f64::from(qi) / f64::from(GRID);
        for mi in 0..=GRID {
            pts.push(((1.0 - q) * B * f64::from(mi) / f64::from(GRID), q));
        }
    }
    pts.push((14.0, 0.5));
    for q in [0.05, 0.1, 0.25, 0.4, 0.5] {
        pts.push((q * B, q));
    }
    pts.extend([(0.0, 0.0), (0.0, 1.0), (B, 0.0), (0.0, 0.5), (1e-9, 0.5)]);
    pts
}

fn stats(mu: f64, q: f64) -> ConstrainedStats {
    ConstrainedStats::new(BreakEven::new(B).unwrap(), mu, q).unwrap()
}

#[test]
fn vertex_rule_matches_the_paper_equations_and_the_lp() {
    for (mu, q) in points() {
        let s = stats(mu, q);
        let (mu, q) = (s.moments().mu_b_minus, s.moments().q_b_plus);
        let at = format!("mu={mu} q={q}");
        let c = vertex::costs(mu, q, B);

        // Vertex costs against the equation index.
        assert_eq!(c.toi, B, "{at}");
        assert!(approx_eq(c.det, eq14_expected_det_cost(mu, q, B), 1e-12), "{at}");
        let offline = eq13_expected_offline_cost(mu, q, B);
        assert!(approx_eq(c.n_rand, e_ratio() * offline, 1e-12), "{at}");
        // b-DET exists iff μ > 0 (at μ = 0 the threshold b* = 0 is TOI),
        // eq. (36) holds, and b* ≤ B.
        let feasible = mu > 0.0 && eq36_b_det_condition(mu, q, B) && {
            let (b_star, _) = eq35_b_det_optimal_cost(mu, q, B);
            b_star <= B
        };
        assert_eq!(c.b_det.is_finite(), feasible, "{at}");
        if feasible {
            let (b_star, cost) = eq35_b_det_optimal_cost(mu, q, B);
            assert!(approx_eq(c.b_star, b_star, 1e-12), "{at}");
            assert!(approx_eq(c.b_det, cost, 1e-12), "{at}");
        }

        // The argmin: the cheapest cost, and no earlier vertex in the tie
        // order DET → TOI → b-DET → N-Rand ties it.
        let (v, cost) = c.argmin();
        let ordered = [(Vertex::Det, c.det), (Vertex::Toi, c.toi), (Vertex::BDet, c.b_det)];
        let ordered = ordered.into_iter().chain([(Vertex::NRand, c.n_rand)]);
        let mut seen_winner = false;
        for (u, other) in ordered {
            assert!(cost <= other, "{at}: {v:?} costs {cost} > {u:?} {other}");
            if u == v {
                seen_winner = true;
                assert_eq!(other, cost, "{at}");
            } else if !seen_winner {
                assert!(other > cost, "{at}: {u:?} ties {v:?} and comes first");
            }
        }

        // The scalar solver is a thin adapter over the same rule.
        assert_eq!(s.optimal_choice().name(), v.name(), "{at}");
        assert_eq!(s.worst_case_cost(), cost, "{at}");
        if let StrategyChoice::BDet { b } = s.optimal_choice() {
            assert_eq!(b, c.b_star, "{at}");
        }

        // The LP over the (α, β, γ) polytope reaches the same optimum.
        let lp = s.solve_lp();
        assert!(
            (lp.expected_cost - cost).abs() <= 1e-7 * cost.max(1.0),
            "{at}: LP {} vs vertex {cost}",
            lp.expected_cost
        );
    }
}

#[test]
fn batch_kernel_vertex_matches_optimal_choice_on_every_point() {
    const STOPS: u32 = GRID;
    let pts = points();
    let be = BreakEven::new(B).unwrap();
    let mut store = BatchStore::new(be, pts.len());
    for (lane, &(mu, q)) in pts.iter().enumerate() {
        // `q·40` long stops at 2B, the rest short with mean μ/(1−q),
        // kept just under B so they stay short.
        let long = (q * f64::from(STOPS)).round() as u32;
        let short_len = if long < STOPS { (mu / (1.0 - q)).min(B * (1.0 - 1e-12)) } else { 0.0 };
        for i in 0..STOPS {
            store.observe(lane, if i < long { 2.0 * B } else { short_len });
        }
    }
    let mut rngs: Vec<CounterRng> =
        (0..pts.len()).map(|lane| CounterRng::for_stream(7, lane as u64)).collect();
    let mut thresholds = vec![0.0; pts.len()];
    let mut vertices = vec![VertexKind::ColdStart; pts.len()];
    store.decide_batch(&mut rngs, &mut thresholds, &mut vertices).unwrap();

    let mut seen = [false; 4];
    for lane in 0..pts.len() {
        let (mu, q) = store.lane_moments(lane).expect("observed lane");
        let choice = stats(mu, q).optimal_choice();
        let at = format!("lane {lane} at {:?}: mu={mu} q={q}", pts[lane]);
        assert_eq!(vertices[lane].name(), choice.name(), "{at}");
        let expected = match choice {
            StrategyChoice::Det => Some(B),
            StrategyChoice::Toi => Some(0.0),
            StrategyChoice::BDet { b } => Some(b.min(B)),
            StrategyChoice::NRand => None,
        };
        if let Some(x) = expected {
            assert_eq!(thresholds[lane], x, "{at}");
        }
        seen[(vertices[lane] as usize).checked_sub(1).expect("not a cold start")] = true;
    }
    assert_eq!(seen, [true; 4], "every vertex wins somewhere on the grid");
}
