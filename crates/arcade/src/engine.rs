//! Compositional aggregation (paper §4).
//!
//! The engine is the reproduction of the paper's `Composer` tool: it
//! evaluates a composition [`Plan`] — by default a hierarchical plan along
//! the fault-tree structure — and after every pairwise composition
//!
//! 1. **hides** the accumulated outputs that no block outside the current
//!    accumulation listens to,
//! 2. **prunes** the accumulated inputs that no outside block can drive
//!    (such transitions can never fire in the closed system),
//! 3. **aggregates** — minimizes modulo branching bisimulation with
//!    Markovian lumping.
//!
//! Groups are composed *in isolation*: inside a module group everything
//! that is module-internal can be hidden as soon as the module is
//! complete, so only a tiny quotient joins the parent fold. The final
//! closed automaton is converted into a labelled CTMC by eliminating the
//! vanishing (zero-sojourn) states.

use std::collections::HashSet;

use bisim::pipeline::{
    reduce_legacy, reduce_threaded, ReduceOptions, Reduced, RefineStats, Strategy,
};
use bisim::vanishing::eliminate_vanishing;
use ctmc::Ctmc;
use ioimc::compose::parallel;
use ioimc::hide::{hide_outputs, prune_inputs};
use ioimc::{ActionId, IoImc, Stats};

use crate::error::ArcadeError;
use crate::model::SystemModel;
use crate::order::{resolve_plan, OrderPolicy, Plan};

/// Which refinement loop each reduction runs. Both start from the label
/// partition of the automaton being reduced and build the same quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefineMode {
    /// The worklist refiners ([`bisim::pipeline::reduce_threaded`]): only
    /// states whose signature can have changed are re-signed, and the
    /// signatures fan out over [`EngineOptions::threads`]. The default:
    /// measured on `rcs_scaled(2)` it beats the legacy recompute-all loop
    /// ~2.7×.
    #[default]
    Fresh,
    /// The pre-worklist recompute-all refinement loops
    /// ([`bisim::pipeline::reduce_legacy`]), serial only. Kept as the
    /// differential-testing oracle: it must build the same CTMC, step log
    /// and peak as [`RefineMode::Fresh`].
    Legacy,
}

/// Options controlling the aggregation.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Bisimulation strategy for intermediate and final reductions.
    pub strategy: Strategy,
    /// Refinement engine for the per-step reductions.
    pub refine: RefineMode,
    /// Composition order policy.
    pub order: OrderPolicy,
    /// When `false`, skip the intermediate reductions (compose everything
    /// flat, reduce once at the end) — the "no compositional aggregation"
    /// ablation. Default `true`.
    pub reduce_intermediate: bool,
    /// Worker threads for aggregating independent plan groups (and, in the
    /// callers that honor it, independent modules/configurations). `0`
    /// means one worker per available core; `1` forces the sequential
    /// path. Results are bitwise identical for every value — sibling
    /// groups are evaluated by the same code either way and their step
    /// reports are merged back in plan order.
    pub threads: usize,
    /// Configuration of the CTMC numerics the downstream measure layers
    /// ([`crate::query::Session`], [`crate::modular::modular_analysis`])
    /// run on the aggregated chain: the dense-vs-iterative solver
    /// crossover, the iterative tolerance/sweep-cap, and the transient kernels
    /// ([`ctmc::SolverOptions::transient`] — kernel selection,
    /// steady-state detection, support truncation). Aggregation itself
    /// ignores it.
    pub solver: ctmc::SolverOptions,
    /// Ceiling on the states of any intermediate model built during
    /// aggregation (`0` = unlimited, the default). When exceeded the
    /// aggregation aborts with [`ArcadeError::Budget`] instead of
    /// exhausting memory — the containment the server's `--max-states`
    /// flag relies on for wire-loaded models. Layered *under* any ambient
    /// request budget ([`ioimc::budget`]), so a per-request deadline still
    /// applies on top.
    pub max_states: u64,
    /// Ceiling on the transitions of any intermediate model (`0` =
    /// unlimited). See [`EngineOptions::max_states`].
    pub max_transitions: u64,
}

impl Default for EngineOptions {
    /// The default configuration: branching bisimulation, hierarchical
    /// bottom-up order, intermediate reductions on, auto thread count.
    fn default() -> Self {
        Self {
            strategy: Strategy::Branching,
            refine: RefineMode::Fresh,
            order: OrderPolicy::BottomUp,
            reduce_intermediate: true,
            threads: 0,
            solver: ctmc::SolverOptions::default(),
            max_states: 0,
            max_transitions: 0,
        }
    }
}

impl EngineOptions {
    /// The default configuration (see [`EngineOptions::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with the given worker thread count (see
    /// [`EngineOptions::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with an intermediate-model state ceiling (see
    /// [`EngineOptions::max_states`]; `0` disables).
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Returns a copy with an intermediate-model transition ceiling (see
    /// [`EngineOptions::max_transitions`]; `0` disables).
    pub fn with_max_transitions(mut self, max_transitions: u64) -> Self {
        self.max_transitions = max_transitions;
        self
    }
}

/// The record of one composition step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Name of the block (or `"<group>"`) composed in this step.
    pub block: String,
    /// Size right after composition (before hiding/reduction).
    pub composed: Stats,
    /// Size after hiding, pruning and reduction.
    pub reduced: Stats,
}

/// The result of compositional aggregation.
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// The final labelled CTMC (label bit 0 = system down).
    pub ctmc: Ctmc,
    /// Size of the final CTMC.
    pub ctmc_stats: Stats,
    /// The largest intermediate I/O-IMC encountered (the number the paper
    /// reports for the case studies).
    pub largest_intermediate: Stats,
    /// Per-step size log.
    pub steps: Vec<StepReport>,
    /// Aggregation-phase breakdown summed over every reduction of the run
    /// (intermediate folds plus the final close). Zeroed under
    /// [`RefineMode::Legacy`].
    pub refine: RefineStats,
}

/// Runs compositional aggregation on `model` and extracts the CTMC.
///
/// # Errors
///
/// Returns an error if composition fails (signature clash) or the closed
/// model is not weakly deterministic.
pub fn aggregate(model: &SystemModel, opts: &EngineOptions) -> Result<Aggregation, ArcadeError> {
    // Layer the per-call size ceiling (if any) under the ambient request
    // budget, so a wire `--max-states` and a request deadline compose.
    if opts.max_states > 0 || opts.max_transitions > 0 {
        let mut child = ioimc::budget::Budget::unlimited()
            .with_max_states(opts.max_states)
            .with_max_transitions(opts.max_transitions);
        if let Some(parent) = ioimc::budget::current() {
            child = child.with_parent(parent);
        }
        return ioimc::budget::scope(Some(std::sync::Arc::new(child)), || {
            aggregate_inner(model, opts)
        });
    }
    aggregate_inner(model, opts)
}

fn aggregate_inner(model: &SystemModel, opts: &EngineOptions) -> Result<Aggregation, ArcadeError> {
    let plan = resolve_plan(model, &opts.order)?;
    let env = EvalEnv {
        model,
        ropts: ReduceOptions {
            strategy: opts.strategy,
            tau: model.tau,
        },
        refine: opts.refine,
        reduce_intermediate: opts.reduce_intermediate,
        threads: ioimc::par::effective_threads(opts.threads),
    };
    let out = eval_plan(&env, &plan, &Interface::default())?;
    let mut acc = out.imc;
    let mut largest = out.largest;
    let mut refine = out.refine;

    // Close the system completely and reduce.
    let outs = acc.outputs().to_vec();
    acc = hide_outputs(acc, &outs);
    let ins = acc.inputs().to_vec();
    acc = prune_inputs(acc, &ins);
    let red = reduce_step(env.refine, &acc, &env.ropts, env.threads);
    refine.merge(&red.refine);
    acc = red.imc;
    largest = largest.max(Stats::of(&acc));
    let markovian_only = eliminate_vanishing(&acc)?;
    let ctmc = Ctmc::from_ioimc(&markovian_only)?;
    let ctmc_stats = Stats::of(&markovian_only);
    Ok(Aggregation {
        ctmc,
        ctmc_stats,
        largest_intermediate: largest,
        steps: out.steps,
        refine,
    })
}

/// Dispatches one reduction to the configured refinement engine.
fn reduce_step(mode: RefineMode, imc: &IoImc, ropts: &ReduceOptions, threads: usize) -> Reduced {
    match mode {
        RefineMode::Fresh => reduce_threaded(imc, ropts, threads),
        RefineMode::Legacy => reduce_legacy(imc, ropts),
    }
}

/// Read-only evaluation environment shared by every (possibly concurrent)
/// plan evaluation.
#[derive(Clone, Copy)]
struct EvalEnv<'m> {
    model: &'m SystemModel,
    ropts: ReduceOptions,
    refine: RefineMode,
    reduce_intermediate: bool,
    /// Worker budget for sibling groups at this level (already resolved
    /// via [`ioimc::par::effective_threads`]).
    threads: usize,
}

/// Result of evaluating one plan node: the aggregated automaton plus the
/// node's own step log and peak sizes, merged into the parent in
/// deterministic plan order.
struct EvalOut {
    imc: IoImc,
    steps: Vec<StepReport>,
    largest: Stats,
    refine: RefineStats,
}

/// The externally visible signals of everything *outside* the automaton
/// being built: the accumulated automaton may only hide outputs no
/// external input listens to, and prune inputs no external output drives.
#[derive(Debug, Clone, Default)]
struct Interface {
    inputs: HashSet<ActionId>,
    outputs: HashSet<ActionId>,
}

impl Interface {
    fn union(&self, other: &Interface) -> Interface {
        Interface {
            inputs: self.inputs.union(&other.inputs).copied().collect(),
            outputs: self.outputs.union(&other.outputs).copied().collect(),
        }
    }
}

/// The visible signature of a plan subtree (over the original blocks — a
/// safe overapproximation of the signature after internal hiding).
fn plan_interface(model: &SystemModel, plan: &Plan) -> Interface {
    let mut iface = Interface::default();
    for i in plan.blocks() {
        let imc = &model.blocks[i].imc;
        iface.inputs.extend(imc.inputs().iter().copied());
        iface.outputs.extend(imc.outputs().iter().copied());
    }
    iface
}

fn eval_plan(env: &EvalEnv<'_>, plan: &Plan, external: &Interface) -> Result<EvalOut, ArcadeError> {
    match plan {
        Plan::Block(i) => Ok(EvalOut {
            imc: env.model.blocks[*i].imc.clone(),
            steps: Vec::new(),
            largest: Stats::default(),
            refine: RefineStats::default(),
        }),
        Plan::Group(items) => {
            assert!(!items.is_empty(), "empty plan group");
            let ifaces: Vec<Interface> =
                items.iter().map(|p| plan_interface(env.model, p)).collect();
            // Everything outside item `k`: the external context plus the
            // other items of this group (composed or still pending).
            let item_externals: Vec<Interface> = (0..items.len())
                .map(|k| {
                    let mut ext = external.clone();
                    for (j, other) in ifaces.iter().enumerate() {
                        if j != k {
                            ext = ext.union(other);
                        }
                    }
                    ext
                })
                .collect();

            // Sibling groups are aggregated in isolation (each only reads
            // the shared model and its own external interface), so they
            // are embarrassingly parallel. Pre-evaluate them on worker
            // threads; the fold below then consumes the results in plan
            // order, which keeps the composition sequence — and therefore
            // every automaton and measure — identical to the sequential
            // path. The thread budget is split across the workers so a
            // dominant child still gets multi-threaded reductions without
            // oversubscribing the machine.
            let group_jobs: Vec<usize> = items
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p, Plan::Group(_)))
                .map(|(k, _)| k)
                .collect();
            let mut pre: Vec<Option<Result<EvalOut, ArcadeError>>> =
                items.iter().map(|_| None).collect();
            if env.threads > 1 && group_jobs.len() > 1 {
                let worker_env = EvalEnv {
                    threads: ioimc::par::split_budget(env.threads, group_jobs.len()),
                    ..*env
                };
                // The ambient budget is a thread-local: carry it across
                // the fan-out so workers stay under the caller's limits.
                let budget = ioimc::budget::current();
                let results = ioimc::par::par_map(env.threads, &group_jobs, |_, &k| {
                    ioimc::budget::scope(budget.clone(), || {
                        eval_plan(&worker_env, &items[k], &item_externals[k])
                    })
                });
                for (&k, r) in group_jobs.iter().zip(results) {
                    pre[k] = Some(r);
                }
            }

            let mut acc: Option<IoImc> = None;
            let mut steps: Vec<StepReport> = Vec::new();
            let mut largest = Stats::default();
            let mut refine = RefineStats::default();
            for (k, item) in items.iter().enumerate() {
                let part = match pre[k].take() {
                    Some(out) => out?,
                    None => eval_plan(env, item, &item_externals[k])?,
                };
                // Deterministic merge: the child's own step log and peaks
                // land right before the fold step that consumes it.
                steps.extend(part.steps);
                largest = largest.max(part.largest);
                refine.merge(&part.refine);
                let part = part.imc;
                acc = Some(match acc {
                    None => part,
                    Some(prev) => {
                        let mut composed = parallel(&prev, &part)?;
                        let composed_stats = Stats::of(&composed);
                        largest = largest.max(composed_stats);
                        // Outside of the accumulation: external plus the
                        // pending items of this group.
                        let mut outside = external.clone();
                        for iface in ifaces.iter().skip(k + 1) {
                            outside = outside.union(iface);
                        }
                        composed = hide_and_prune(composed, &outside);
                        composed = if env.reduce_intermediate {
                            let red = reduce_step(env.refine, &composed, &env.ropts, env.threads);
                            refine.merge(&red.refine);
                            red.imc
                        } else {
                            ioimc::reach::restrict_reachable(&composed)
                        };
                        steps.push(StepReport {
                            block: match item {
                                Plan::Block(i) => env.model.blocks[*i].name.clone(),
                                Plan::Group(_) => "<group>".to_owned(),
                            },
                            composed: composed_stats,
                            reduced: Stats::of(&composed),
                        });
                        composed
                    }
                });
            }
            Ok(EvalOut {
                imc: acc.expect("non-empty group"),
                steps,
                largest,
                refine,
            })
        }
    }
}

/// Hides accumulated outputs nobody outside listens to; prunes accumulated
/// inputs nobody outside can drive. Both edits are in place (signature
/// move + CSR compaction) — no copy of the transition arrays.
fn hide_and_prune(acc: IoImc, outside: &Interface) -> IoImc {
    let hide: Vec<ActionId> = acc
        .outputs()
        .iter()
        .copied()
        .filter(|a| !outside.inputs.contains(a))
        .collect();
    let prune: Vec<ActionId> = acc
        .inputs()
        .iter()
        .copied()
        .filter(|a| !outside.outputs.contains(a))
        .collect();
    prune_inputs(hide_outputs(acc, &hide), &prune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BcDef, RepairStrategy, RuDef, SystemDef};
    use crate::dist::Dist;
    use crate::expr::Expr;
    use ctmc::measures;

    /// One component with dedicated repair: the CTMC is the two-state
    /// machine with availability µ/(λ+µ).
    #[test]
    fn single_component_availability() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("x", Dist::exp(0.01), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("r", ["x"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::down("x"));
        let model = SystemModel::build(&def).unwrap();
        let agg = aggregate(&model, &EngineOptions::new()).unwrap();
        assert_eq!(agg.ctmc.num_states(), 2);
        let a = measures::steady_state_availability(&agg.ctmc, 1);
        assert!((a - 2.0 / 2.01).abs() < 1e-12, "availability {a}");
    }

    /// Two redundant components, no repair: reliability matches
    /// (1 - (1-e^{-λt})²).
    #[test]
    fn parallel_pair_reliability() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.1), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.1), Dist::exp(1.0)));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        let model = SystemModel::build(&def.without_repair()).unwrap();
        let agg = aggregate(&model, &EngineOptions::new()).unwrap();
        let t = 5.0;
        let r = measures::reliability(&agg.ctmc, 1, t);
        let p = 1.0 - (-0.1f64 * t).exp();
        assert!((r - (1.0 - p * p)).abs() < 1e-9, "reliability {r}");
    }

    /// All order policies and strategies produce the same measure.
    #[test]
    fn orders_and_strategies_agree() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.02), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.05), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("r", ["a", "b"], RepairStrategy::Fcfs));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));
        let model = SystemModel::build(&def).unwrap();

        let reference = {
            let agg = aggregate(&model, &EngineOptions::new()).unwrap();
            measures::steady_state_availability(&agg.ctmc, 1)
        };
        for order in [
            OrderPolicy::Affinity,
            OrderPolicy::Declaration,
            OrderPolicy::Reverse,
        ] {
            for strategy in [Strategy::None, Strategy::Strong, Strategy::Branching] {
                let opts = EngineOptions {
                    strategy,
                    order: order.clone(),
                    ..EngineOptions::new()
                };
                let agg = aggregate(&model, &opts).unwrap();
                let a = measures::steady_state_availability(&agg.ctmc, 1);
                assert!(
                    (a - reference).abs() < 1e-10,
                    "{order:?}/{strategy:?}: {a} vs {reference}"
                );
            }
        }
    }

    /// The flat (non-compositional) ablation agrees but visits larger
    /// intermediate models.
    #[test]
    fn flat_ablation_agrees_and_is_larger() {
        let mut def = SystemDef::new("t");
        for n in ["a", "b", "c"] {
            def.add_component(BcDef::new(n, Dist::exp(0.02), Dist::exp(1.0)));
        }
        def.add_repair_unit(RuDef::new("r", ["a", "b", "c"], RepairStrategy::Fcfs));
        def.set_system_down(Expr::k_of_n(
            2,
            [Expr::down("a"), Expr::down("b"), Expr::down("c")],
        ));
        let model = SystemModel::build(&def).unwrap();
        let comp = aggregate(&model, &EngineOptions::new()).unwrap();
        let flat = aggregate(
            &model,
            &EngineOptions {
                reduce_intermediate: false,
                ..EngineOptions::new()
            },
        )
        .unwrap();
        let a1 = measures::steady_state_availability(&comp.ctmc, 1);
        let a2 = measures::steady_state_availability(&flat.ctmc, 1);
        assert!((a1 - a2).abs() < 1e-10);
        assert!(
            flat.largest_intermediate.states >= comp.largest_intermediate.states,
            "flat {:?} vs comp {:?}",
            flat.largest_intermediate,
            comp.largest_intermediate
        );
    }

    /// A cause-specific literal goes false when the down-cause changes
    /// without the component ever coming up: repaired under a still-active
    /// destructive dependency, the component re-fails urgently as `df`,
    /// and `c2.down.m2` must hand over to false even though no `up` was
    /// ever emitted in between. Reference value hand-solved from the
    /// 7-state product chain.
    #[test]
    fn mode_literal_hands_over_on_df_refailure() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("c0", Dist::exp(1.0), Dist::exp(1.0)));
        def.add_component(
            BcDef::new("c2", Dist::exp(1.0), Dist::exp(1.0))
                .with_failure_modes([0.375, 0.625], [Dist::exp(1.0), Dist::exp(1.0)])
                .with_df(Expr::down("c0"), Dist::exp(0.0013)),
        );
        def.add_repair_unit(RuDef::new("r0", ["c0"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("r2", ["c2"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::down_mode("c2", 2));
        let model = SystemModel::build(&def).unwrap();
        let agg = aggregate(&model, &EngineOptions::new()).unwrap();
        let u = 1.0 - measures::steady_state_availability(&agg.ctmc, 1);
        assert!(
            (u - 3.041_931_860_726_e-4).abs() < 1e-12,
            "unavailability {u}"
        );
    }

    /// A spare managed by an SMU takes over when the primary fails.
    #[test]
    fn smu_keeps_system_up() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("pp", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(
            BcDef::new("ps", Dist::exp(0.01), Dist::exp(1.0))
                .with_om_group(crate::ast::OmGroup::ActiveInactive)
                .with_ttf([Dist::exp(0.01), Dist::exp(0.01)]),
        );
        def.add_repair_unit(RuDef::new("r", ["pp", "ps"], RepairStrategy::Fcfs));
        def.add_smu(crate::ast::SmuDef::new("smu", "pp", ["ps"]));
        def.set_system_down(Expr::and([Expr::down("pp"), Expr::down("ps")]));
        let model = SystemModel::build(&def).unwrap();
        let agg = aggregate(&model, &EngineOptions::new()).unwrap();
        let a = measures::steady_state_availability(&agg.ctmc, 1);
        // both must be down simultaneously: availability very high
        assert!(a > 0.999, "availability {a}");
        assert!(a < 1.0);
    }

    /// Parallel group aggregation is a pure scheduling change: the CTMC,
    /// the step log and every measure must be *bitwise* identical to the
    /// single-threaded path, for any worker count.
    #[test]
    fn parallel_aggregation_is_bitwise_deterministic() {
        let mut def = SystemDef::new("t");
        for n in ["a", "b", "c", "d", "e", "f"] {
            def.add_component(BcDef::new(n, Dist::exp(0.02), Dist::exp(1.0)));
        }
        def.add_repair_unit(RuDef::new("r1", ["a", "b"], RepairStrategy::Fcfs));
        def.add_repair_unit(RuDef::new("r2", ["c", "d"], RepairStrategy::Fcfs));
        def.add_repair_unit(RuDef::new("r3", ["e", "f"], RepairStrategy::Fcfs));
        def.set_system_down(Expr::or([
            Expr::and([Expr::down("a"), Expr::down("b")]),
            Expr::and([Expr::down("c"), Expr::down("d")]),
            Expr::and([Expr::down("e"), Expr::down("f")]),
        ]));
        let model = SystemModel::build(&def).unwrap();
        let seq = aggregate(&model, &EngineOptions::new().with_threads(1)).unwrap();
        for threads in [2, 4, 8] {
            let par = aggregate(&model, &EngineOptions::new().with_threads(threads)).unwrap();
            assert_eq!(par.ctmc, seq.ctmc, "{threads} threads: CTMC differs");
            assert_eq!(par.largest_intermediate, seq.largest_intermediate);
            assert_eq!(par.steps, seq.steps, "{threads} threads: step log differs");
            let a_seq = measures::steady_state_availability(&seq.ctmc, 1);
            let a_par = measures::steady_state_availability(&par.ctmc, 1);
            assert_eq!(
                a_par.to_bits(),
                a_seq.to_bits(),
                "measure not bitwise equal"
            );
        }
    }

    /// `EngineOptions::default()` is the configuration `new()` documents:
    /// compositional aggregation with intermediate reductions, not the
    /// flat no-reduction ablation.
    #[test]
    fn default_is_the_documented_configuration() {
        let opts = EngineOptions::default();
        assert_eq!(format!("{opts:?}"), format!("{:?}", EngineOptions::new()));
        assert!(opts.reduce_intermediate);
        assert_eq!(opts.strategy, Strategy::Branching);
        assert_eq!(opts.refine, RefineMode::Fresh);
        assert_eq!(opts.order, OrderPolicy::BottomUp);
        assert_eq!(opts.threads, 0);
        assert_eq!((opts.max_states, opts.max_transitions), (0, 0));
        assert_eq!(opts.solver, ctmc::SolverOptions::default());
    }

    /// The legacy recompute-all refiners, kept as the oracle, build the
    /// same CTMC, step log and peak as the default worklist refiners on
    /// a DDS and a stiff RCS.
    #[test]
    fn legacy_refinement_matches_fresh() {
        for def in [crate::cases::dds_scaled(2), crate::cases::rcs_stiff(2)] {
            let model = SystemModel::build(&def).unwrap();
            let fresh = aggregate(&model, &EngineOptions::new()).unwrap();
            let legacy = aggregate(
                &model,
                &EngineOptions {
                    refine: RefineMode::Legacy,
                    ..EngineOptions::new()
                },
            )
            .unwrap();
            assert_eq!(legacy.ctmc, fresh.ctmc, "{}: CTMC differs", def.name);
            assert_eq!(legacy.steps, fresh.steps, "{}: step log differs", def.name);
            assert_eq!(legacy.largest_intermediate, fresh.largest_intermediate);
        }
    }

    /// A state ceiling turns a too-large aggregation into a structured
    /// [`ArcadeError::Budget`] instead of an ever-growing composition.
    #[test]
    fn state_ceiling_aborts_aggregation() {
        let mut def = SystemDef::new("t");
        for n in ["a", "b", "c", "d", "e", "f"] {
            def.add_component(BcDef::new(n, Dist::exp(0.02), Dist::exp(1.0)));
        }
        def.add_repair_unit(RuDef::new(
            "r",
            ["a", "b", "c", "d", "e", "f"],
            RepairStrategy::Fcfs,
        ));
        def.set_system_down(Expr::and([
            Expr::down("a"),
            Expr::down("b"),
            Expr::down("c"),
            Expr::down("d"),
            Expr::down("e"),
            Expr::down("f"),
        ]));
        let model = SystemModel::build(&def).unwrap();
        // Flat, unreduced composition of six components blows through a
        // tiny ceiling long before the final model exists.
        let opts = EngineOptions {
            reduce_intermediate: false,
            ..EngineOptions::new()
        }
        .with_max_states(16);
        match aggregate(&model, &opts) {
            Err(ArcadeError::Budget(e)) => {
                assert_eq!(e.kind, ioimc::budget::BudgetKind::States);
                assert_eq!(e.limit, 16);
            }
            other => panic!("expected budget abort, got {other:?}"),
        }
        // The same aggregation under a generous ceiling completes.
        let ok = aggregate(&model, &EngineOptions::new().with_max_states(1_000_000));
        assert!(ok.is_ok());
    }

    /// Hierarchical (grouped) plans beat flat orders on the peak size for
    /// modular systems.
    #[test]
    fn hierarchical_plan_shrinks_peak() {
        let mut def = SystemDef::new("t");
        for n in ["a", "b", "c", "d", "e", "f"] {
            def.add_component(BcDef::new(n, Dist::exp(0.02), Dist::exp(1.0)));
        }
        def.add_repair_unit(RuDef::new("r1", ["a", "b"], RepairStrategy::Fcfs));
        def.add_repair_unit(RuDef::new("r2", ["c", "d"], RepairStrategy::Fcfs));
        def.add_repair_unit(RuDef::new("r3", ["e", "f"], RepairStrategy::Fcfs));
        def.set_system_down(Expr::or([
            Expr::and([Expr::down("a"), Expr::down("b")]),
            Expr::and([Expr::down("c"), Expr::down("d")]),
            Expr::and([Expr::down("e"), Expr::down("f")]),
        ]));
        let model = SystemModel::build(&def).unwrap();
        let tree = aggregate(&model, &EngineOptions::new()).unwrap();
        let flat = aggregate(
            &model,
            &EngineOptions {
                order: OrderPolicy::Declaration,
                ..EngineOptions::new()
            },
        )
        .unwrap();
        let a1 = measures::steady_state_availability(&tree.ctmc, 1);
        let a2 = measures::steady_state_availability(&flat.ctmc, 1);
        assert!((a1 - a2).abs() < 1e-10);
        assert!(
            tree.largest_intermediate.states <= flat.largest_intermediate.states,
            "tree {:?} vs flat {:?}",
            tree.largest_intermediate,
            flat.largest_intermediate
        );
    }
}
