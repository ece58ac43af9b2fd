//! The distributed database system case study (paper §5.1, Table 1).
//!
//! Run with `cargo run --release --example dds`.
//!
//! Reproduces Table 1: steady-state availability and 5-week reliability of
//! the DDS, computed three ways — the Arcade I/O-IMC pipeline (modular),
//! the analytic static fault tree (the Galileo column's role), and the
//! Monte-Carlo simulator (the SAN column's role).

use arcade::analytic;
use arcade::cases::dds::{dds, FIVE_WEEKS_H};
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::sim;
use arcade::{ArcadeError, Measure};

fn main() -> Result<(), ArcadeError> {
    let def = dds();
    let t = FIVE_WEEKS_H;

    println!("=== DDS (paper §5.1) — Table 1 ===");
    println!("mission time: {t} h (5 weeks)");
    println!();

    // Arcade pipeline, modularized over the 9 independent subsystems.
    let modular = modular_analysis(&def, &EngineOptions::new())?;
    let v = modular.evaluate(&[Measure::SteadyStateAvailability, Measure::Reliability(t)])?;
    let (a, r) = (v[0], v[1]);
    println!("Arcade (this work):   A = {a:.6}    R(5 weeks) = {r:.6}");

    // Analytic static fault tree (Galileo's role for the reliability).
    let r_static = analytic::static_reliability(&def.without_repair(), t)?;
    let a_indep = analytic::independent_availability(&def)?;
    println!("analytic (Galileo'):  A ≈ {a_indep:.6}    R(5 weeks) = {r_static:.6}");

    // Monte-Carlo simulation (the SAN column's role).
    let mc = sim::simulate_unreliability(&def, t, 40_000, 2008, false)?;
    println!(
        "simulation (SAN'):    R(5 weeks) = {:.4} ± {:.4}",
        1.0 - mc.mean,
        mc.half_width
    );

    println!();
    println!("paper Table 1:        A = 0.999997  R(5 weeks) = 0.402018 (Arcade, Galileo)");
    println!("                      R(5 weeks) = 0.425082 (SAN [19]; the paper flags the gap)");
    println!();
    for m in &modular.modules {
        println!(
            "  {}: {} components, CTMC {}",
            m.name,
            m.components.len(),
            m.session.availability_model()?.ctmc_stats
        );
    }
    Ok(())
}
