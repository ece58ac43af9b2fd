//! Experiment S1 — regenerates the state-space numbers of §5.1.2: the size
//! of the final DDS CTMC, the largest intermediate I/O-IMC encountered
//! during compositional aggregation, and the flat-composition comparison
//! (the paper compares against the 16,695-state flat SAN model of \[19\]) —
//! plus the batched unavailability curve over the mission time, answered
//! by one `Session` sweep instead of a per-point scalar loop.
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_dds_statespace`

use arcade::cases::dds::{dds, FIVE_WEEKS_H};
use arcade::engine::EngineOptions;
use arcade::model::SystemModel;
use arcade::query::{Measure, Session};
use arcade_bench::{run_engine, Table};
use bisim::Strategy;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{MeasureContext, TransientOptions};

fn main() {
    let def = dds();
    let model = SystemModel::build(&def).expect("DDS model");
    println!(
        "DDS model: {} blocks ({} components, {} repair units, {} SMU, gates + observer)",
        model.blocks.len(),
        def.components.len(),
        def.repair_units.len(),
        def.smus.len(),
    );
    println!();

    // Full compositional aggregation of the entire system (no
    // modularization) — the configuration the paper reports.
    let agg = run_engine(&def, &EngineOptions::new()).expect("aggregation");

    // Step-by-step log of the aggregation.
    println!("composition steps (composed -> reduced):");
    for s in &agg.steps {
        println!(
            "  + {:<14} {:>8} st / {:>9} tr  ->  {:>7} st / {:>8} tr",
            s.block,
            s.composed.states,
            s.composed.transitions(),
            s.reduced.states,
            s.reduced.transitions()
        );
    }
    println!();

    let mut table = Table::new(&["quantity", "this work", "paper"]);
    table.row(&[
        "final CTMC states".into(),
        agg.ctmc_stats.states.to_string(),
        "2,100".into(),
    ]);
    table.row(&[
        "final CTMC transitions".into(),
        agg.ctmc_stats.transitions().to_string(),
        "15,120".into(),
    ]);
    table.row(&[
        "largest intermediate states".into(),
        agg.largest_intermediate.states.to_string(),
        "6,522".into(),
    ]);
    table.row(&[
        "largest intermediate transitions".into(),
        agg.largest_intermediate.transitions().to_string(),
        "33,486".into(),
    ]);
    println!("{}", table.render());
    println!("flat SAN model of [19]: 16,695 states (no compositional reduction)");
    println!();

    // Ablation: composing *without* intermediate reduction explodes
    // combinatorially — exactly the state-space explosion the paper's
    // compositional aggregation combats. The full DDS is intractable flat
    // (the true product exceeds 10^12 states), so the ablation runs on the
    // processor subsystem alone, where the flat product is still
    // enumerable, and reports the peak ratio.
    let mini = processor_subsystem();
    let comp = run_engine(&mini, &EngineOptions::new()).expect("mini compositional");
    let flat = run_engine(
        &mini,
        &EngineOptions {
            strategy: Strategy::Branching,
            reduce_intermediate: false,
            ..EngineOptions::new()
        },
    )
    .expect("mini flat");
    println!(
        "ablation (processor subsystem only): flat peak {} st / {} tr vs \
         compositional peak {} st / {} tr ({:.1}x)",
        flat.largest_intermediate.states,
        flat.largest_intermediate.transitions(),
        comp.largest_intermediate.states,
        comp.largest_intermediate.transitions(),
        flat.largest_intermediate.states as f64 / comp.largest_intermediate.states as f64
    );
    println!("(the full 33-block DDS cannot be composed flat at all — the paper's point)");
    println!();

    // Unavailability curve over the 5-week mission, answered as ONE
    // batched query: the session reuses the aggregation above's
    // configuration work lazily and runs a single uniformization sweep
    // for the whole 50-point grid.
    let session = Session::new(&def).expect("valid DDS");
    let grid: Vec<f64> = (1..=50)
        .map(|k| FIVE_WEEKS_H * f64::from(k) / 50.0)
        .collect();
    let batch: Vec<Measure> = grid
        .iter()
        .map(|&t| Measure::PointUnavailability(t))
        .collect();
    let curve = session.evaluate(&batch).expect("curve");
    let batched_steps = session.stats().dtmc_steps;
    println!("unavailability curve over [0, 5 weeks] (50 points, one batched sweep):");
    for (i, (&t, &u)) in grid.iter().zip(&curve).enumerate() {
        if i % 10 == 9 {
            println!("  U({t:>6.1} h) = {u:.6e}");
        }
    }
    let ctmc = &session.availability_model().expect("built").ctmc;
    let scalar = MeasureContext::new();
    let pi0 = ctmc.initial_distribution();
    for &t in &grid {
        let _ = transient_many_from_ctx(ctmc, &pi0, &[t], &TransientOptions::default(), &scalar);
    }
    let scalar_steps = scalar.counters.dtmc_steps();
    println!(
        "batched sweep: {batched_steps} DTMC steps vs scalar loop: {scalar_steps} \
         ({:.1}x less work)",
        scalar_steps as f64 / batched_steps as f64
    );
}

/// The DDS processor subsystem: pp + spare ps + SMU + shared FCFS RU.
fn processor_subsystem() -> arcade::ast::SystemDef {
    use arcade::ast::{BcDef, OmGroup, RepairStrategy, RuDef, SmuDef, SystemDef};
    use arcade::dist::Dist;
    use arcade::expr::Expr;
    let mut def = SystemDef::new("dds-procs");
    def.add_component(BcDef::new("pp", Dist::exp(1.0 / 2000.0), Dist::exp(1.0)));
    def.add_component(
        BcDef::new("ps", Dist::exp(1.0 / 2000.0), Dist::exp(1.0))
            .with_om_group(OmGroup::ActiveInactive)
            .with_ttf([Dist::exp(1.0 / 2000.0), Dist::exp(1.0 / 2000.0)]),
    );
    def.add_smu(SmuDef::new("p.smu", "pp", ["ps"]));
    def.add_repair_unit(RuDef::new("p.rep", ["pp", "ps"], RepairStrategy::Fcfs));
    def.set_system_down(Expr::and([Expr::down("pp"), Expr::down("ps")]));
    def
}
