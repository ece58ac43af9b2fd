//! Bisimulation minimization for I/O-IMCs.
//!
//! This crate provides the *aggregation* step of Arcade's compositional
//! state-space generation (the role played by CADP's `bcg_min` in the
//! paper's toolchain):
//!
//! * [`strong`] — strong bisimulation with exact Markovian lumping,
//! * [`branching`] — branching (weak) bisimulation with Markovian lumping,
//!   implemented as signature-based partition refinement (Blom–Orzan style)
//!   on top of a maximal-progress cut and tau-SCC collapse,
//! * [`quotient`] — construction of the quotient automaton,
//! * [`vanishing`] — elimination of vanishing (zero-sojourn) states in
//!   closed models, the last step before CTMC extraction,
//! * [`pipeline::reduce`] — the one-call bundle used by the Arcade engine.
//!
//! All reductions are **label-respecting**: states with different labels
//! (e.g. the observer's "system down" bit) are never merged, so the measures
//! computed on the reduced model equal those of the original.
//!
//! # The worklist refiner
//!
//! Both refiners are implemented by a single splitter-driven worklist loop
//! (the crate-internal `worklist` module), starting from the label
//! partition of the automaton being reduced. The first round signs every
//! state; afterwards only *dirty* states are re-signed: the states moved
//! by the previous round's splits plus their predecessors (over all
//! transitions, via the transposed CSR from [`ioimc::IoImc::incoming`]),
//! closed under tau-predecessors for branching signatures (which embed
//! the signatures of inert successors). Splits use a retained-id
//! discipline — the sub-block containing a block's first member keeps the
//! block's id — so signature entries of untouched states stay valid
//! across rounds. Signatures are hash-consed in a
//! [`signature::SigTable`]; split comparisons are interned `u32` ids, not
//! structural.
//!
//! # Determinism discipline
//!
//! Threaded refinement is **bitwise identical** to serial at every thread
//! count: worker threads only evaluate the pure function
//! `(imc, partition, state) -> signature`, while interning, splitting, and
//! worklist ordering happen on the coordinating thread in a fixed order
//! (blocks ascending id, states ascending id within a block; tau-topological
//! order for branching). At the fixpoint the partition is renumbered
//! canonically by first occurrence in ascending state order, which
//! reproduces the legacy refiners' numbering exactly — the legacy loops
//! ([`strong::refine_strong_legacy`], [`branching::refine_branching_legacy`])
//! are kept as differential-testing oracles.
//!
//! # Example
//!
//! A Markovian diamond whose completion is observable reduces only where
//! rates allow:
//!
//! ```
//! use ioimc::{Alphabet, builder::IoImcBuilder};
//! use bisim::pipeline::{reduce, ReduceOptions, Strategy};
//!
//! let mut ab = Alphabet::new();
//! let tau = ab.intern("tau");
//! let mut b = IoImcBuilder::new();
//! // diamond: s0 branches to s1 and s2, both fall into s3 at rate 2
//! let s = [b.add_state(), b.add_state(), b.add_state(), b.add_labeled_state(1)];
//! b.markovian(s[0], 1.0, s[1])
//!     .markovian(s[0], 2.0, s[2])
//!     .markovian(s[1], 2.0, s[3])
//!     .markovian(s[2], 2.0, s[3]);
//! let imc = b.build().unwrap();
//! let red = reduce(&imc, &ReduceOptions { strategy: Strategy::Branching, tau }).imc;
//! assert_eq!(red.num_states(), 3); // s1 and s2 are lumped (equal rate vectors)
//! // ... and s0 now enters the merged class at total rate 3
//! let total: f64 = red.markovian_from(red.initial()).iter().map(|t| t.0).sum();
//! assert!((total - 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branching;
pub mod partition;
pub mod pipeline;
pub mod quotient;
pub mod signature;
pub mod strong;
pub mod vanishing;
pub(crate) mod worklist;

pub use partition::Partition;
pub use pipeline::{
    reduce, reduce_legacy, reduce_threaded, ReduceOptions, Reduced, RefineStats, Strategy,
};
pub use vanishing::NondeterminismError;

/// Minimum number of states (or states per tau layer) before the
/// refinement loops fan signature computation out to worker threads;
/// below this the per-iteration spawn overhead outweighs the work.
pub(crate) const PAR_STATE_THRESHOLD: usize = 4096;
