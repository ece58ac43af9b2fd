//! Experiment: the multi-spare SMU configuration (§3.3, "one primary and
//! two or more spares", which the paper sketches but does not evaluate).
//! Sweeps the number of cold spares behind the DDS primary processor and
//! reports how availability and MTTF improve, with and without a failover
//! delay (§3.6).
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_smu_spares`

use arcade::prelude::*;
use arcade_bench::Table;

fn processors(n_spares: usize, failover: Option<Dist>) -> SystemDef {
    let mut def = SystemDef::new(format!("procs-{n_spares}sp"));
    def.add_component(BcDef::new("pp", Dist::exp(1.0 / 2000.0), Dist::exp(1.0)));
    let mut all = vec!["pp".to_owned()];
    for i in 0..n_spares {
        let name = format!("ps{i}");
        def.add_component(
            BcDef::new(&name, Dist::exp(1.0 / 2000.0), Dist::exp(1.0))
                .with_om_group(OmGroup::ActiveInactive)
                // cold spares: cannot fail while inactive
                .with_ttf([Dist::Never, Dist::exp(1.0 / 2000.0)]),
        );
        all.push(name);
    }
    def.add_repair_unit(RuDef::new("p.rep", all.clone(), RepairStrategy::Fcfs));
    if n_spares > 0 {
        let mut smu = SmuDef::new("p.smu", "pp", all[1..].to_vec());
        if let Some(f) = failover {
            smu = smu.with_failover(f);
        }
        def.add_smu(smu);
    }
    def.set_system_down(Expr::And(all.iter().map(Expr::down).collect()));
    def
}

fn main() {
    let mut table = Table::new(&[
        "spares",
        "failover",
        "unavailability",
        "MTTF (h)",
        "CTMC states",
    ]);
    for n in 0..=3usize {
        for failover in [None, Some(Dist::exp(60.0))] {
            if n == 0 && failover.is_some() {
                continue;
            }
            let def = processors(n, failover.clone());
            let session = Session::new(&def).expect("valid");
            let v = session
                .evaluate(&[Measure::SteadyStateUnavailability, Measure::Mttf])
                .expect("analysis");
            let agg = session.availability_model().expect("aggregated");
            table.row(&[
                n.to_string(),
                failover
                    .as_ref()
                    .map_or("instant".to_owned(), ToString::to_string),
                format!("{:.3e}", v[0]),
                format!("{:.3e}", v[1]),
                agg.ctmc_stats.states.to_string(),
            ]);
        }
    }
    println!("cold-spare chain behind the DDS primary (λ = 1/2000 h, µ = 1/h):");
    println!("{}", table.render());
    println!("each spare buys roughly a µ/λ = 2000x MTTF factor; a one-minute");
    println!("failover delay (exp(60/h)) barely dents it because repairs are");
    println!("three orders of magnitude slower than the failover.");
}
