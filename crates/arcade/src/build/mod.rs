//! I/O-IMC semantics of the Arcade building blocks (paper §3, Figs. 2–9).
//!
//! Every block type translates to an input-enabled I/O-IMC over the signal
//! vocabulary of [`crate::model::Signals`]:
//!
//! * [`bc`] — basic components: operational-mode groups, phase-type
//!   failure/repair, multiple failure modes, destructive dependencies,
//! * [`ru`] — repair units with dedicated/FCFS/priority strategies,
//! * [`smu`] — spare management units with optional failover delay,
//! * [`gate`] — fault-tree gates for the `SYSTEM DOWN` expression,
//! * [`observer`] — the two-state block that turns the top gate's signals
//!   into the CTMC's "system down" label bit.
//!
//! All builders share one discipline, enforced by the internal `explore`
//! driver: a block is a deterministic reactive machine whose abstract
//! states expose **at most one urgent output** (the pending
//! announcement), react to every input, and race Markovian transitions
//! only when no announcement is pending. This guarantees the composed
//! system is weakly deterministic (up to the confluent interleaving
//! diamonds the reduction pipeline resolves), which
//! `bisim::vanishing::eliminate_vanishing` requires.

pub mod bc;
pub mod gate;
pub mod observer;
pub mod ru;
pub mod smu;

use std::collections::HashMap;
use std::hash::Hash;

use ioimc::builder::IoImcBuilder;
use ioimc::{ActionId, IoImc, RateForm};

use crate::ast::SystemDef;
use crate::error::ArcadeError;

/// Maps raw distribution rates to declared parameters by bit-equality of
/// the base value (see [`crate::ast::RateParam`]). An empty pool means the
/// model is concrete and blocks carry no rate forms at all — the legacy,
/// zero-overhead path.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParamPool {
    /// `(base bits, parameter id)` per declared parameter.
    bound: Vec<(u64, u32)>,
}

impl ParamPool {
    pub(crate) fn from_def(def: &SystemDef) -> Self {
        Self {
            bound: def
                .params
                .iter()
                .enumerate()
                .map(|(i, p)| (p.base.to_bits(), i as u32))
                .collect(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    /// The parameter bound to `raw`, if any.
    pub(crate) fn lookup(&self, raw: f64) -> Option<u32> {
        let bits = raw.to_bits();
        self.bound
            .iter()
            .find(|&&(b, _)| b == bits)
            .map(|&(_, pid)| pid)
    }
}

/// A block's behaviour as a deterministic reactive machine over abstract
/// states. Implementations must be *canonical*: states that should be
/// indistinguishable must compare equal (normalize eagerly).
pub(crate) trait Behaviour {
    /// The abstract state type.
    type State: Clone + Eq + Hash;

    /// The pending urgent output of `s`, if any, with its successor.
    /// At most one announcement may be pending per state.
    fn output(&self, s: &Self::State) -> Option<(ActionId, Self::State)>;

    /// The reaction to input `a` (must be defined for every declared
    /// input; return a clone of `s` for "ignore").
    fn on_input(&self, s: &Self::State, a: ActionId) -> Self::State;

    /// The Markovian races of `s` as `(raw, mult, successor)` triples:
    /// `raw` is the declared distribution rate (what parameters bind to,
    /// see [`ParamPool`]) and `mult` a branching multiplier (failure-mode
    /// probability; `1.0` otherwise). The effective transition rate is
    /// `raw * mult`. Only consulted when no output is pending (maximal
    /// progress — an unstable state cannot let time pass, so offering its
    /// rates would only inflate the automaton).
    fn markovian(&self, s: &Self::State) -> Vec<(f64, f64, Self::State)>;
}

/// Explores the reachable abstract states of `b` and assembles the
/// I/O-IMC with the given signature.
///
/// # Errors
///
/// Returns [`ArcadeError::Build`] if the automaton fails validation
/// (which would indicate a bug in a behaviour implementation).
pub(crate) fn explore<B: Behaviour>(
    b: &B,
    initial: B::State,
    inputs: &[ActionId],
    outputs: &[ActionId],
    pool: &ParamPool,
) -> Result<IoImc, ArcadeError> {
    let mut builder = IoImcBuilder::new();
    builder.set_inputs(inputs.iter().copied());
    builder.set_outputs(outputs.iter().copied());

    let mut index: HashMap<B::State, u32> = HashMap::new();
    let mut todo: Vec<B::State> = Vec::new();
    let intern = |s: B::State,
                  builder: &mut IoImcBuilder,
                  todo: &mut Vec<B::State>,
                  index: &mut HashMap<B::State, u32>|
     -> u32 {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = builder.add_state();
        index.insert(s.clone(), id);
        todo.push(s);
        id
    };
    let init_id = intern(initial, &mut builder, &mut todo, &mut index);
    debug_assert_eq!(init_id, 0);

    let mut next = 0usize;
    while next < todo.len() {
        let state = todo[next].clone();
        let src = index[&state];
        next += 1;
        let pending = b.output(&state);
        if let Some((a, succ)) = &pending {
            let t = intern(succ.clone(), &mut builder, &mut todo, &mut index);
            builder.interactive(src, *a, t);
        }
        for &a in inputs {
            let succ = b.on_input(&state, a);
            let t = intern(succ, &mut builder, &mut todo, &mut index);
            builder.interactive(src, a, t);
        }
        if pending.is_none() {
            for (raw, mult, succ) in b.markovian(&state) {
                let t = intern(succ, &mut builder, &mut todo, &mut index);
                // `raw * 1.0 == raw` bitwise, so concrete models see the
                // exact rates they always did.
                let rate = raw * mult;
                if pool.is_empty() {
                    builder.markovian(src, rate, t);
                } else {
                    let form = match pool.lookup(raw) {
                        Some(pid) => RateForm::scaled(pid, mult),
                        None => RateForm::constant(rate),
                    };
                    builder.markovian_formed(src, rate, t, form);
                }
            }
        }
    }
    builder
        .build()
        .map_err(|e| ArcadeError::build(format!("block automaton invalid: {e}")))
}
