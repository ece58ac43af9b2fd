//! Input/Output Interactive Markov Chains (I/O-IMCs).
//!
//! This crate implements the semantic substrate of the Arcade dependability
//! framework (Boudali et al., DSN 2008): I/O-IMCs are labeled transition
//! systems that combine
//!
//! * **interactive transitions** labeled with *input* (`a?`), *output*
//!   (`a!`) or *internal* (`a;`) actions, and
//! * **Markovian transitions** labeled with rates `λ` of exponential delays.
//!
//! Key operations provided here:
//!
//! * [`compose::parallel`] — the parallel composition operator `||` with
//!   input/output synchronization (outputs broadcast to all inputs),
//! * [`hide`] — turning output actions into internal ones once no further
//!   synchronization over them is needed,
//! * [`mp::maximal_progress_cut`] — removal of Markovian transitions from
//!   states with urgent (output/internal) transitions enabled,
//! * [`reach::restrict_reachable`] — reachability restriction,
//! * [`scc::collapse_tau_sccs`] — collapsing cycles of internal transitions,
//! * [`dot`] — Graphviz export for inspection.
//!
//! States are identified by [`StateId`], actions by [`ActionId`] interned in
//! an [`Alphabet`]. Every I/O-IMC carries its *action signature* (disjoint
//! input/output/internal sets) and is **input-enabled**: every state has at
//! least one transition for every input action (validated at build time; the
//! [`builder::IoImcBuilder::complete_inputs`] helper adds the self-loops the
//! paper elides "for readability").
//!
//! # Example
//!
//! Build the I/O-IMC of Fig. 1 of the paper and compose it with a trivial
//! environment that outputs `a`:
//!
//! ```
//! use ioimc::{Alphabet, builder::IoImcBuilder, compose::parallel};
//!
//! let mut ab = Alphabet::new();
//! let a = ab.intern("a");
//! let b = ab.intern("b");
//!
//! // Fig. 1: S1 -λ-> S2, S1 -a?-> S3 -µ-> S4 -b!-> S5
//! let mut fig1 = IoImcBuilder::new();
//! fig1.set_inputs([a]).set_outputs([b]);
//! let s: Vec<_> = (0..5).map(|_| fig1.add_state()).collect();
//! fig1.markovian(s[0], 1.0, s[1])
//!     .interactive(s[0], a, s[2])
//!     .markovian(s[2], 2.0, s[3])
//!     .interactive(s[3], b, s[4]);
//! let fig1 = fig1.complete_inputs().build().unwrap();
//!
//! // Environment: outputs a after a delay.
//! let mut env = IoImcBuilder::new();
//! env.set_outputs([a]);
//! let e0 = env.add_state();
//! let e1 = env.add_state();
//! let e2 = env.add_state();
//! env.markovian(e0, 3.0, e1).interactive(e1, a, e2);
//! let env = env.build().unwrap();
//!
//! let product = parallel(&fig1, &env).unwrap();
//! assert!(product.num_states() > 0);
//! assert!(product.outputs().contains(&a)); // a! stays an output
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod automaton;
pub mod budget;
pub mod builder;
pub mod compose;
pub mod dot;
pub mod failpoint;
pub mod form;
pub mod fxhash;
pub mod hide;
pub mod mp;
pub mod par;
pub mod reach;
pub mod scc;
pub mod stats;
pub mod validate;

pub use alphabet::{ActionId, Alphabet};
pub use automaton::{ActionKind, IoImc, StateId, StateLabel};
pub use form::{FormId, FormTable, Leaf, RateForms, CONST_PARAM};
pub use stats::Stats;
pub use validate::ValidationError;
