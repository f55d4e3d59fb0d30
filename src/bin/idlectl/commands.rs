//! `idlectl` subcommand implementations.
//!
//! Each command renders its result into a `String` (so the logic is unit
//! testable); `main` only prints. Errors are strings — the CLI boundary is
//! where typed errors become messages.

use crate::args::Args;
use automotive_idling::drivesim::{persist, Area, FleetConfig, VehicleTrace};
use automotive_idling::powertrain::savings::annual_savings;
use automotive_idling::powertrain::{StopStartController, VehicleSpec};
use automotive_idling::skirental::fleet_eval::evaluate_fleet;
use automotive_idling::skirental::{BreakEven, ConstrainedStats, Policy, Strategy, StrategyChoice};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

type CmdResult = Result<String, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn parse_area(name: &str) -> Result<Area, String> {
    Area::ALL
        .iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| format!("unknown area {name:?} (california, chicago, atlanta)"))
}

fn load_stops(path: &str) -> Result<Vec<f64>, String> {
    let trace = persist::load_csv(&PathBuf::from(path)).map_err(err)?;
    let stops = trace.stop_lengths();
    if stops.is_empty() {
        return Err(format!("trace {path} has no stops"));
    }
    Ok(stops)
}

fn break_even_flag(args: &Args) -> Result<BreakEven, String> {
    let b = args.opt_or::<f64>("b", "number of seconds", 28.0).map_err(err)?;
    BreakEven::new(b).map_err(err)
}

/// `idlectl breakeven [--kind ssv|conventional] [--fuel-price $]`
pub fn breakeven(args: &Args) -> CmdResult {
    args.expect_only(&["kind", "fuel-price"]).map_err(err)?;
    let kind = args.get("kind").unwrap_or("ssv").to_ascii_lowercase();
    let mut spec = match kind.as_str() {
        "ssv" | "stop-start" => VehicleSpec::stop_start_vehicle(),
        "conventional" | "conv" => VehicleSpec::conventional_vehicle(),
        other => return Err(format!("unknown vehicle kind {other:?} (ssv, conventional)")),
    };
    if let Some(price) = args.opt::<f64>("fuel-price", "dollars per gallon").map_err(err)? {
        use automotive_idling::powertrain::breakeven::VehicleKind;
        use automotive_idling::powertrain::fuel::IdleFuelModel;
        use automotive_idling::powertrain::restart::{BatteryModel, StarterModel};
        let (k, starter) = match kind.as_str() {
            "conventional" | "conv" => {
                (VehicleKind::Conventional, StarterModel::conventional_paper_min())
            }
            _ => (VehicleKind::StopStart, StarterModel::stop_start()),
        };
        spec = VehicleSpec::new(
            k,
            IdleFuelModel::ford_fusion(),
            price,
            starter,
            BatteryModel::paper_min(),
            true,
        );
    }
    let bd = spec.break_even_breakdown();
    let mut out = String::new();
    writeln!(out, "{bd}").expect("write to string");
    writeln!(
        out,
        "idling cost: {:.4} cents/s at the configured fuel price",
        spec.idling_cost_per_s() * 100.0
    )
    .expect("write to string");
    Ok(out)
}

/// `idlectl policy (--mu S --q P | --trace file.csv) [--b 28]`
pub fn policy(args: &Args) -> CmdResult {
    args.expect_only(&["b", "mu", "q", "trace"]).map_err(err)?;
    let b = break_even_flag(args)?;
    let stats = if let Some(path) = args.get("trace") {
        let stops = load_stops(path)?;
        ConstrainedStats::from_samples(&stops, b).map_err(err)?
    } else {
        let mu: f64 = args.required("mu", "number of seconds").map_err(err)?;
        let q: f64 = args.required("q", "probability").map_err(err)?;
        ConstrainedStats::new(b, mu, q).map_err(err)?
    };
    let v = stats.vertex_costs();
    let choice = stats.optimal_choice();
    let mut out = String::new();
    writeln!(
        out,
        "statistics: mu_B- = {:.3} s, q_B+ = {:.4}  ({b})",
        stats.moments().mu_b_minus,
        stats.moments().q_b_plus
    )
    .expect("write to string");
    writeln!(out, "\nworst-case expected cost per stop (idle-equivalent seconds):").expect("w");
    writeln!(out, "  N-Rand : {:.3}", v.n_rand).expect("w");
    writeln!(out, "  TOI    : {:.3}", v.toi).expect("w");
    writeln!(out, "  DET    : {:.3}", v.det).expect("w");
    match v.b_det {
        Some(bd) => writeln!(out, "  b-DET  : {:.3} (b* = {:.2} s)", bd.cost, bd.b).expect("w"),
        None => writeln!(out, "  b-DET  : not applicable here").expect("w"),
    }
    writeln!(
        out,
        "\nproposed strategy: {}  (worst-case CR {:.4})",
        choice.name(),
        stats.worst_case_cr()
    )
    .expect("write to string");
    if let StrategyChoice::BDet { b: bb } = choice {
        writeln!(out, "rule: idle up to {bb:.1} s, then shut the engine off").expect("w");
    }
    Ok(out)
}

/// `idlectl evaluate --trace file.csv [--b 28] [--hindsight]`
pub fn evaluate(args: &Args) -> CmdResult {
    args.expect_only(&["b", "trace", "hindsight"]).map_err(err)?;
    let b = break_even_flag(args)?;
    let path: String = args.required("trace", "path").map_err(err)?;
    let stops = load_stops(&path)?;
    let strategies: &[Strategy] =
        if args.has("hindsight") { &Strategy::WITH_HINDSIGHT } else { &Strategy::ALL };
    let report = evaluate_fleet(&[stops], b, strategies).map_err(err)?;
    let mut out = String::new();
    writeln!(out, "expected competitive ratio on {path} ({b}):").expect("w");
    for (s, v) in report.strategies.iter().zip(&report.vehicles[0].crs) {
        writeln!(out, "  {:<10} {v:.4}", s.name()).expect("w");
    }
    let best = report.strategies[report.vehicles[0].best];
    writeln!(out, "best: {}", best.name()).expect("w");
    Ok(out)
}

/// `idlectl synthesize --area chicago [--vehicles N] [--days 7] [--seed 42] --out DIR`
pub fn synthesize(args: &Args) -> CmdResult {
    args.expect_only(&["area", "vehicles", "days", "seed", "out"]).map_err(err)?;
    let area = parse_area(&args.required::<String>("area", "area name").map_err(err)?)?;
    let out_dir: String = args.required("out", "directory").map_err(err)?;
    let vehicles = args.opt_or::<usize>("vehicles", "count", 5).map_err(err)?;
    let days = args.opt_or::<u32>("days", "count", 7).map_err(err)?;
    let seed = args.opt_or::<u64>("seed", "integer", 2014).map_err(err)?;
    if vehicles == 0 || days == 0 {
        return Err("vehicles and days must be positive".to_string());
    }
    let dir = PathBuf::from(&out_dir);
    std::fs::create_dir_all(&dir).map_err(err)?;
    let fleet = FleetConfig::new(area).vehicles(vehicles).days(days).synthesize(seed);
    let mut total_stops = 0;
    for trace in &fleet {
        let path =
            dir.join(format!("{}_{:04}.csv", area.name().to_ascii_lowercase(), trace.vehicle_id));
        persist::save_csv(trace, &path).map_err(err)?;
        total_stops += trace.num_stops();
    }
    Ok(format!(
        "wrote {vehicles} vehicle trace(s) ({total_stops} stops, {days} day(s), seed {seed}) to {out_dir}\n"
    ))
}

/// `idlectl simulate --trace file.csv [--b via kind] [--policy proposed]`
pub fn simulate(args: &Args) -> CmdResult {
    args.expect_only(&["trace", "policy", "kind", "seed"]).map_err(err)?;
    let path: String = args.required("trace", "path").map_err(err)?;
    let stops = load_stops(&path)?;
    let kind = args.get("kind").unwrap_or("ssv").to_ascii_lowercase();
    let spec = match kind.as_str() {
        "ssv" | "stop-start" => VehicleSpec::stop_start_vehicle(),
        "conventional" | "conv" => VehicleSpec::conventional_vehicle(),
        other => return Err(format!("unknown vehicle kind {other:?}")),
    };
    let b = spec.break_even();
    let name = args.get("policy").unwrap_or("proposed").to_ascii_lowercase();
    let policy: Box<dyn Policy> = match name.as_str() {
        "nev" => Box::new(automotive_idling::skirental::policy::Nev::new(b)),
        "toi" => Box::new(automotive_idling::skirental::policy::Toi::new(b)),
        "det" => Box::new(automotive_idling::skirental::policy::Det::new(b)),
        "nrand" | "n-rand" => Box::new(automotive_idling::skirental::policy::NRand::new(b)),
        "proposed" => {
            Box::new(ConstrainedStats::from_samples(&stops, b).map_err(err)?.optimal_policy())
        }
        other => return Err(format!("unknown policy {other:?} (nev, toi, det, nrand, proposed)")),
    };
    let seed = args.opt_or::<u64>("seed", "integer", 7).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let out =
        StopStartController::new(policy.as_ref(), spec).drive(&stops, &mut rng).map_err(err)?;
    let mut rng2 = StdRng::seed_from_u64(seed);
    let baseline =
        StopStartController::new(&automotive_idling::skirental::policy::Nev::new(b), spec)
            .drive(&stops, &mut rng2)
            .map_err(err)?;
    let days = persist::load_csv(&PathBuf::from(&path)).map_err(err)?.days;
    let savings = annual_savings(&baseline, &out, f64::from(days));
    Ok(format!("{out}\nvs never-turning-off, projected annually: {savings}\n"))
}

/// `idlectl fit --trace file.csv [--mixture K]`
pub fn fit(args: &Args) -> CmdResult {
    use automotive_idling::stopmodel::fit::{fit_best, fit_lognormal_mixture};
    args.expect_only(&["trace", "mixture"]).map_err(err)?;
    let path: String = args.required("trace", "path").map_err(err)?;
    let stops = load_stops(&path)?;
    let mut out = String::new();
    writeln!(out, "parametric fits for {path} ({} stops):", stops.len()).expect("w");
    writeln!(out, "{:<44} {:>8} {:>11}", "model", "K-S D", "p-value").expect("w");
    let ranked = fit_best(&stops).map_err(err)?;
    for r in &ranked {
        writeln!(
            out,
            "{:<44} {:>8.4} {:>11.3e}",
            r.model.to_string(),
            r.ks.statistic,
            r.ks.p_value
        )
        .expect("w");
    }
    if let Some(k) = args.opt::<usize>("mixture", "component count").map_err(err)? {
        let fit = fit_lognormal_mixture(&stops, k, 300).map_err(err)?;
        writeln!(out, "\n{k}-component log-normal mixture (EM, {} iterations):", fit.iterations)
            .expect("w");
        for c in &fit.components {
            writeln!(
                out,
                "  weight {:.3}: lognormal(mu = {:.3}, sigma = {:.3})",
                c.weight,
                c.dist.mu(),
                c.dist.sigma()
            )
            .expect("w");
        }
        let mix = fit.to_mixture();
        let ks = automotive_idling::stopmodel::kstest::ks_test(&stops, &mix);
        writeln!(out, "  mixture K-S D = {:.4} (p = {:.3e})", ks.statistic, ks.p_value).expect("w");
    }
    Ok(out)
}

/// `idlectl table --area chicago [--vehicles N] [--b 28]` — mini Figure-4.
pub fn table(args: &Args) -> CmdResult {
    args.expect_only(&["area", "vehicles", "b", "seed"]).map_err(err)?;
    let area = parse_area(&args.required::<String>("area", "area name").map_err(err)?)?;
    let vehicles = args.opt_or::<usize>("vehicles", "count", 40).map_err(err)?;
    let seed = args.opt_or::<u64>("seed", "integer", 2014).map_err(err)?;
    let b = break_even_flag(args)?;
    if vehicles == 0 {
        return Err("vehicles must be positive".to_string());
    }
    let traces = FleetConfig::new(area).vehicles(vehicles).synthesize(seed);
    let stops: Vec<Vec<f64>> = traces.iter().map(VehicleTrace::stop_lengths).collect();
    let report = evaluate_fleet(&stops, b, &Strategy::ALL).map_err(err)?;
    Ok(format!("{area}, {b}:\n{report}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(ToString::to_string)).unwrap()
    }

    fn temp_trace() -> (tempdir::TempDirGuard, String) {
        let dir = tempdir::guard("idlectl_cmd_test");
        let a = args(&[
            "synthesize",
            "--area",
            "chicago",
            "--vehicles",
            "1",
            "--seed",
            "3",
            "--out",
            dir.path.to_str().unwrap(),
        ]);
        synthesize(&a).unwrap();
        let file = std::fs::read_dir(&dir.path)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path()
            .to_str()
            .unwrap()
            .to_string();
        (dir, file)
    }

    /// Minimal scoped temp dir (std-only).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Distinguishes guards within one process: tests run on parallel
        /// threads, and a shared directory would let one guard's `Drop`
        /// delete another test's files.
        static NEXT: AtomicUsize = AtomicUsize::new(0);

        pub struct TempDirGuard {
            pub path: PathBuf,
        }

        impl Drop for TempDirGuard {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }

        pub fn guard(name: &str) -> TempDirGuard {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("{name}_{}_{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("can create temp dir");
            TempDirGuard { path }
        }
    }

    #[test]
    fn breakeven_command() {
        let out = breakeven(&args(&["breakeven"])).unwrap();
        assert!(out.contains("battery") && out.contains("B "));
        let conv = breakeven(&args(&["breakeven", "--kind", "conventional"])).unwrap();
        assert!(conv.contains("starter"));
        assert!(breakeven(&args(&["breakeven", "--kind", "hovercraft"])).is_err());
        // Typo in a flag is an error, not silently ignored.
        assert!(breakeven(&args(&["breakeven", "--knd", "ssv"])).is_err());
    }

    #[test]
    fn policy_command_from_moments() {
        let out = policy(&args(&["policy", "--b", "28", "--mu", "5", "--q", "0.3"])).unwrap();
        assert!(out.contains("proposed strategy"));
        assert!(out.contains("b-DET"));
        assert!(policy(&args(&["policy", "--b", "28", "--mu", "99", "--q", "0.9"])).is_err());
        assert!(policy(&args(&["policy", "--b", "28"])).is_err()); // missing mu/q
    }

    #[test]
    fn synthesize_evaluate_simulate_roundtrip() {
        let (_guard, file) = temp_trace();
        let eval = evaluate(&args(&["evaluate", "--trace", &file])).unwrap();
        assert!(eval.contains("Proposed") && eval.contains("best:"));
        let eval_h = evaluate(&args(&["evaluate", "--trace", &file, "--hindsight"])).unwrap();
        assert!(eval_h.contains("Bayes-OPT"));
        let pol = policy(&args(&["policy", "--trace", &file])).unwrap();
        assert!(pol.contains("statistics"));
        let sim = simulate(&args(&["simulate", "--trace", &file])).unwrap();
        assert!(sim.contains("restarts") && sim.contains("annually"));
        assert!(simulate(&args(&["simulate", "--trace", &file, "--policy", "warp"])).is_err());
    }

    #[test]
    fn fit_command() {
        let (_guard, file) = temp_trace();
        let out = fit(&args(&["fit", "--trace", &file])).unwrap();
        assert!(out.contains("lognormal") && out.contains("K-S D"));
        let with_mix = fit(&args(&["fit", "--trace", &file, "--mixture", "2"])).unwrap();
        assert!(with_mix.contains("2-component"));
        assert!(fit(&args(&["fit"])).is_err()); // missing trace
    }

    #[test]
    fn table_command() {
        let out = table(&args(&["table", "--area", "california", "--vehicles", "5"])).unwrap();
        assert!(out.contains("California") && out.contains("Proposed"));
        assert!(table(&args(&["table", "--area", "mars"])).is_err());
    }

    #[test]
    fn missing_trace_is_an_error() {
        assert!(evaluate(&args(&["evaluate", "--trace", "/no/such/file.csv"])).is_err());
    }
}
