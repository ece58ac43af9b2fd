//! Experiment: RCS inventory sensitivity. The paper's source \[7\] does not
//! publish the number of control valves per pump line; this sweep shows
//! how the 50-hour measures move with that choice and which inventory best
//! matches the published values (unavailability 6.52100e-10, unreliability
//! 5.29242e-9).
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_rcs_inventory`

use arcade::cases::rcs::rcs_with_valves;
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::Measure;
use arcade_bench::Table;

fn main() {
    let t = 50.0;
    let mut table = Table::new(&[
        "valves/line",
        "unavailability(50h)",
        "x paper",
        "unreliability(50h)",
        "x paper",
    ]);
    for v in 1..=4usize {
        let def = rcs_with_valves(v);
        let m = modular_analysis(&def, &EngineOptions::new())
            .expect("rcs")
            .evaluate(&[
                Measure::PointUnavailability(t),
                Measure::UnreliabilityWithRepair(t),
            ])
            .expect("rcs measures");
        let (ua, ur) = (m[0], m[1]);
        table.row(&[
            v.to_string(),
            format!("{ua:.5e}"),
            format!("{:.2}", ua / 6.52100e-10),
            format!("{ur:.5e}"),
            format!("{:.2}", ur / 5.29242e-9),
        ]);
    }
    println!("RCS valve-inventory sweep (paper: 6.52100e-10 / 5.29242e-9):");
    println!("{}", table.render());
    println!("the measures scale smoothly with the unpublished valve count; the");
    println!("same multiplier appears on both measures for every inventory, which");
    println!("is why the x0.83 offset of the default model is attributed to the");
    println!("inventory rather than to the semantics.");
}
