//! Experiment T1 — regenerates **Table 1** of the paper: steady-state
//! availability and 5-week reliability of the distributed database system,
//! in three tool columns (Arcade pipeline / analytic static fault tree in
//! the Galileo role / Monte-Carlo simulation in the SAN role).
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_table1`

use arcade::analytic;
use arcade::cases::dds::{dds, FIVE_WEEKS_H};
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::sim;
use arcade::Measure;
use arcade_bench::{fmt6, Table};

fn main() {
    let def = dds();
    let t = FIVE_WEEKS_H;

    let v = modular_analysis(&def, &EngineOptions::new())
        .expect("DDS analysis")
        .evaluate(&[Measure::SteadyStateAvailability, Measure::Reliability(t)])
        .expect("DDS measures");
    let (a, r) = (v[0], v[1]);

    let r_static = analytic::static_reliability(&def.without_repair(), t).expect("static FT");
    let a_indep = analytic::independent_availability(&def).expect("independent availability");

    let mc = sim::simulate_unreliability(&def, t, 60_000, 2008, false).expect("simulation");

    let mut table = Table::new(&[
        "Measure",
        "Arcade",
        "MC-sim (SAN role)",
        "analytic (Galileo role)",
    ]);
    table.row(&["A".into(), fmt6(a), "-".into(), fmt6(a_indep)]);
    table.row(&[
        "R(5 weeks)".into(),
        fmt6(r),
        format!("{:.4} ± {:.4}", 1.0 - mc.mean, mc.half_width),
        fmt6(r_static),
    ]);
    println!("Table 1 — dependability analysis for DDS (t = {t} h)");
    println!("{}", table.render());
    println!("paper:  A = 0.999997 (Arcade, SAN)   R = 0.402018 (Arcade, Galileo), 0.425082 (SAN)");
    println!();

    let ok_a = (a - 0.999997).abs() < 5e-7;
    let ok_r = (r - 0.402018).abs() < 5e-4;
    let ok_mc = ((1.0 - mc.mean) - r).abs() <= mc.half_width + 1e-12;
    println!("availability matches paper to 6 decimals: {ok_a}");
    println!("reliability matches paper (±5e-4):        {ok_r}");
    println!("MC interval contains the Arcade value:    {ok_mc}");
    assert!(ok_a && ok_r && ok_mc, "Table 1 reproduction drifted");
}
