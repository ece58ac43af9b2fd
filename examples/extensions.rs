//! The paper's §3.6/§6 extensions, working together: the Priority-AND gate
//! (footnote 8) and CSL-style queries (future work §6).
//!
//! Run with `cargo run --release --example extensions`.
//!
//! Scenario: a cooling fan and a CPU. The *order* of failures matters: if
//! the fan dies first and the CPU dies while unventilated, the damage is
//! permanent (the PAND fires); if the CPU happens to die first, the fan
//! failure afterwards is harmless downtime. A plain AND cannot tell these
//! apart.

use arcade::prelude::*;
use ctmc::csl::StateFormula;

fn build(pand: bool) -> SystemDef {
    let mut sys = SystemDef::new("pand-demo");
    sys.add_component(BcDef::new("fan", Dist::exp(0.002), Dist::exp(0.2)));
    sys.add_component(BcDef::new("cpu", Dist::exp(0.001), Dist::exp(0.2)));
    for c in ["fan", "cpu"] {
        sys.add_repair_unit(RuDef::new(
            format!("{c}.rep"),
            [c],
            RepairStrategy::Dedicated,
        ));
    }
    let children = [Expr::down("fan"), Expr::down("cpu")];
    sys.set_system_down(if pand {
        Expr::pand(children)
    } else {
        Expr::and(children)
    });
    sys
}

fn main() -> Result<(), ArcadeError> {
    let t = 1000.0;
    println!("=== Priority-AND vs AND (paper footnote 8) ===");
    let batch = [
        Measure::UnreliabilityWithRepair(t),
        Measure::SteadyStateUnavailability,
        Measure::Mttf,
    ];
    let and = Session::new(&build(false))?.evaluate(&batch)?;
    let pand_session = Session::new(&build(true))?;
    let pand = pand_session.evaluate(&batch)?;

    println!(
        "{:<6} {:>16} {:>16} {:>14}",
        "gate", "unrel w/ repair", "unavailability", "MTTF (h)"
    );
    for (name, v) in [("AND", &and), ("PAND", &pand)] {
        println!("{:<6} {:>16.6e} {:>16.6e} {:>14.0}", name, v[0], v[1], v[2]);
    }
    // Both components down happens either order; fan-then-cpu is one of the
    // two orders, so the PAND events are a strict subset of the AND events.
    assert!(pand[0] < and[0], "PAND must be rarer than AND");
    assert!(pand[2] > and[2]);

    println!();
    println!("=== CSL-style queries (paper §6 future work) ===");
    let until = |t| Measure::BoundedUntil {
        phi: StateFormula::up(),
        psi: StateFormula::down(),
        t,
    };
    for &h in &[100.0, 1000.0] {
        let v = pand_session.evaluate(&[until(h), Measure::IntervalAvailability(h)])?;
        println!(
            "P[ up U<={h} down ]      = {:.6e}   (first dangerous-order failure)",
            v[0]
        );
        println!("interval availability({h}) = {:.10}", v[1]);
    }
    // consistency: P[up U<=t down] from the initial (up) state equals the
    // first-passage unreliability
    let v = pand_session.evaluate(&[until(t), Measure::UnreliabilityWithRepair(t)])?;
    let (q, fp) = (v[0], v[1]);
    assert!(
        (q - fp).abs() < 1e-12,
        "CSL until vs first passage: {q} vs {fp}"
    );
    println!();
    println!("CSL 'until' equals the first-passage unreliability — consistent.");
    Ok(())
}
