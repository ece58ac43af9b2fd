//! Benchmarks of the pipeline stages: block construction, parallel
//! composition, bisimulation reduction and CTMC solving — including the
//! batched uniformization kernels against their scalar per-point loops.
//!
//! Run: `cargo bench -p arcade-bench --bench pipeline`

use arcade::ast::{BcDef, RepairStrategy, RuDef, SystemDef};
use arcade::dist::Dist;
use arcade::expr::Expr;
use arcade::model::SystemModel;
use arcade_bench::bench;
use bisim::pipeline::{reduce, ReduceOptions, Strategy};
use ctmc::transient::transient_many_from_ctx;
use ctmc::{measures, Ctmc, MeasureContext, TransientOptions};
use ioimc::compose::parallel_all;

/// A chain of n repairable components sharing one FCFS repair unit, failing
/// as a k-of-n system — a tunable stress model.
fn chain(n: usize) -> SystemDef {
    let mut def = SystemDef::new(format!("chain{n}"));
    let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
    for name in &names {
        def.add_component(BcDef::new(name, Dist::exp(0.01), Dist::exp(1.0)));
    }
    def.add_repair_unit(RuDef::new("shop", names.clone(), RepairStrategy::Fcfs));
    def.set_system_down(Expr::k_of_n(
        (n as u32).div_ceil(2),
        names.iter().map(|n| Expr::down(n.clone())),
    ));
    def
}

/// Birth-death chain of `n` states for the solver benchmarks.
fn birth_death(n: u32) -> Ctmc {
    let rows: Vec<Vec<(f64, u32)>> = (0..n)
        .map(|i| {
            let mut row = Vec::new();
            if i + 1 < n {
                row.push((0.4, i + 1));
            }
            if i > 0 {
                row.push((1.0, i - 1));
            }
            row
        })
        .collect();
    let labels: Vec<u64> = (0..n).map(|i| u64::from(i > n / 2)).collect();
    Ctmc::new(rows, labels, 0).expect("ctmc")
}

fn main() {
    for n in [2usize, 3, 4] {
        let def = chain(n);
        bench(
            &format!("block-construction/elaborate-chain/{n}"),
            20,
            || SystemModel::build(&def).expect("build"),
        );
    }

    for n in [2usize, 3, 4] {
        let model = SystemModel::build(&chain(n)).expect("build");
        let automata: Vec<ioimc::IoImc> = model.blocks.iter().map(|b| b.imc.clone()).collect();
        bench(&format!("composition/parallel-all/{n}"), 10, || {
            parallel_all(&automata).expect("compose")
        });
    }

    let model = SystemModel::build(&chain(3)).expect("build");
    let automata: Vec<ioimc::IoImc> = model.blocks.iter().map(|b| b.imc.clone()).collect();
    let flat = parallel_all(&automata).expect("compose");
    for strategy in [Strategy::Strong, Strategy::Branching] {
        let opts = ReduceOptions {
            strategy,
            tau: model.tau,
        };
        bench(&format!("reduction/strategy/{strategy:?}"), 10, || {
            reduce(&flat, &opts)
        });
    }

    let chain500 = birth_death(500);
    bench("ctmc-solvers/steady-state-500", 10, || {
        measures::steady_state_availability(&chain500, 1)
    });
    bench("ctmc-solvers/transient-500-t100", 10, || {
        measures::point_availability(&chain500, 1, 100.0)
    });
    bench("ctmc-solvers/first-passage-500-t100", 10, || {
        measures::unreliability(&chain500, 1, 100.0)
    });

    // Batched curve kernels vs the scalar per-point loop: the win the
    // query engine's `Session` builds on. Wall time on this chain
    // understates it — scalar sweeps restart from a sparse unit vector
    // while the batched sweep carries a spread distribution, so the DTMC
    // step count is the honest hardware-independent metric.
    let grid: Vec<f64> = (1..=50).map(|k| f64::from(k) * 2.0).collect();
    let pi0 = chain500.initial_distribution();
    let opts = TransientOptions::default();
    let scalar_ctx = MeasureContext::new();
    let scalar = bench("curve/transient-scalar-50pts", 5, || {
        grid.iter()
            .map(|&t| transient_many_from_ctx(&chain500, &pi0, &[t], &opts, &scalar_ctx))
            .collect::<Vec<_>>()
    });
    let scalar_steps = scalar_ctx.counters.dtmc_steps() / 6; // warm-up + 5 iters
    let batched_ctx = MeasureContext::new();
    let batched = bench("curve/transient-batched-50pts", 5, || {
        transient_many_from_ctx(&chain500, &pi0, &grid, &opts, &batched_ctx)
    });
    let batched_steps = batched_ctx.counters.dtmc_steps() / 6;
    println!(
        "curve: {:.1}x wall, {:.1}x fewer DTMC steps ({batched_steps} vs {scalar_steps}) \
         for the batched sweep",
        scalar / batched,
        scalar_steps as f64 / batched_steps as f64,
    );
}
