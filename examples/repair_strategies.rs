//! Comparing the four repair strategies of §3.2.
//!
//! Run with `cargo run --release --example repair_strategies`.
//!
//! Three components with very different failure rates and one repair
//! shop. The strategy decides who gets served when several components are
//! down at once; the example reports availability, MTTF and the size of
//! the repair unit's I/O-IMC (dedicated is small; FCFS/PP/PNP must track
//! arrival orders, the state growth the paper warns about).

use arcade::model::SystemModel;
use arcade::prelude::*;

fn build(strategy: Option<RepairStrategy>) -> SystemDef {
    let mut sys = SystemDef::new("strategies");
    // c1 fails often, c3 rarely; c3 is the most critical (highest priority).
    sys.add_component(BcDef::new("c1", Dist::exp(0.05), Dist::exp(0.5)));
    sys.add_component(BcDef::new("c2", Dist::exp(0.02), Dist::exp(0.5)));
    sys.add_component(BcDef::new("c3", Dist::exp(0.01), Dist::exp(0.5)));
    match strategy {
        None => {
            // dedicated: one RU per component
            for c in ["c1", "c2", "c3"] {
                sys.add_repair_unit(RuDef::new(
                    format!("{c}.rep"),
                    [c],
                    RepairStrategy::Dedicated,
                ));
            }
        }
        Some(s) => {
            let mut ru = RuDef::new("shop", ["c1", "c2", "c3"], s);
            if matches!(
                s,
                RepairStrategy::PreemptivePriority | RepairStrategy::NonPreemptivePriority
            ) {
                ru = ru.with_priorities([1, 2, 3]); // c3 most important
            }
            sys.add_repair_unit(ru);
        }
    }
    // the system needs c3 and at least one of c1/c2
    sys.set_system_down(Expr::or([
        Expr::down("c3"),
        Expr::and([Expr::down("c1"), Expr::down("c2")]),
    ]));
    sys
}

fn main() -> Result<(), ArcadeError> {
    println!("=== repair strategies (§3.2) ===");
    println!(
        "{:<12} {:>14} {:>12} {:>10} {:>12}",
        "strategy", "unavailability", "MTTF (h)", "RU states", "CTMC states"
    );
    let cases: [(&str, Option<RepairStrategy>); 4] = [
        ("dedicated", None),
        ("FCFS", Some(RepairStrategy::Fcfs)),
        ("PNP", Some(RepairStrategy::NonPreemptivePriority)),
        ("PP", Some(RepairStrategy::PreemptivePriority)),
    ];
    for (name, strategy) in cases {
        let def = build(strategy);
        let model = SystemModel::build(&def)?;
        let ru_states: usize = model
            .blocks
            .iter()
            .filter(|b| b.name.contains("rep") || b.name == "shop")
            .map(|b| b.imc.num_states())
            .sum();
        let session = Session::new(&def)?;
        let v = session.evaluate(&[Measure::SteadyStateUnavailability, Measure::Mttf])?;
        println!(
            "{:<12} {:>14.6e} {:>12.1} {:>10} {:>12}",
            name,
            v[0],
            v[1],
            ru_states,
            session.availability_model()?.ctmc_stats.states,
        );
    }
    println!();
    println!("dedicated repair gives the best availability (three repairmen);");
    println!("among the single-shop strategies, prioritizing the critical c3");
    println!("shortens system downtime — preemption (PP) beats PNP beats FCFS.");
    println!("MTTF is strategy-independent here: the *first* system failure");
    println!("happens the moment the failure condition is met, before repair");
    println!("order can make a difference.");
    Ok(())
}
