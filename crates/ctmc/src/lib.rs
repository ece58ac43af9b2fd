//! Continuous-time Markov chain representation and solvers.
//!
//! The last stage of the Arcade pipeline converts the fully composed and
//! reduced I/O-IMC into a labelled CTMC ([`Ctmc::from_ioimc`]) and computes
//! dependability measures on it:
//!
//! * [`steady::steady_state`] — long-run distribution, giving the
//!   steady-state availability of Table 1,
//! * [`transient::transient`] — point availability from one grid solver
//!   that picks, per solve, between adaptive uniformization with
//!   Fox–Glynn-style Poisson truncation and subtraction-free scaling and
//!   squaring for small stiff chains ([`transient::select_kernel`]),
//! * [`absorbing`] — first-passage ("unreliability") analysis by making the
//!   down states absorbing, and mean time to failure as a renewal ratio on
//!   the steady-state solvers,
//! * [`measures`] — the dependability measures expressed over state labels.
//!
//! # Storage and solvers
//!
//! A [`Ctmc`] is flat CSR: one `num_states + 1` offset array plus one
//! contiguous `(rate, target)` transition array (rows sorted by target,
//! parallel edges merged, self-loops dropped), with per-state exit rates
//! cached at construction. Every kernel — the uniformization sweep and the
//! steady-state solvers — iterates these contiguous slices; solvers that
//! sweep column-wise build the transposed adjacency once via
//! [`Ctmc::incoming`]. Chains can be built
//! from per-state rows ([`Ctmc::new`]), directly from CSR arrays
//! ([`Ctmc::from_csr`]) or zero-conversion from a reduced I/O-IMC's own
//! CSR storage ([`Ctmc::from_ioimc`]).
//!
//! The dense-vs-iterative crossover and the iteration controls are
//! configured by [`SolverOptions`]. Chains up to its `dense_limit`
//! (default 3 000 states) are solved directly by subtraction-free GTH
//! state elimination, which skips structural zeros so that its cost
//! follows the chain's fill pattern rather than `n³`. Larger chains are
//! solved by Gauss–Seidel, stopped by a certified geometric-tail bound
//! (default 1e-14) and residual-checked; an iterate that fails either
//! check is re-solved by GTH on chains of at most 8,192 states and is a
//! [`CtmcError::Uncertified`] above that: see
//! [`steady::steady_state_with`]. Mean
//! times to absorption have no solver of their own: the targets are merged
//! into one renewal state that restarts the chain, and
//! [`absorbing::mean_time_to_absorption_with`] reads the answer off that
//! regenerative chain's steady state without a subtraction. The defaults
//! reproduce the historical behavior, so plain [`steady::steady_state`]
//! etc. are unchanged. Every solver loop polls the ambient [`budget`] (at
//! each elimination pivot, iterative sweep and transient segment), so a
//! deadline or cancellation stops a steady-state, MTTF or transient solve
//! part-way.
//!
//! # Transient kernels and steady-state detection
//!
//! Small chains whose uniformization rate times horizon is large go to a
//! dense kernel: `e^{QΔt}` by scaling and squaring of the uniformized
//! matrix, at `O(n³·log Λt)` whatever the stiffness. Everything else is
//! uniformized. The uniformization engines ([`transient`]) compute the
//! DTMC step as a serial gather over the transposed CSR, configured by
//! [`TransientOptions`] (inside [`SolverOptions::transient`]). Steady-state
//! detection (on by default, `steady_tol = 1e-13`) stops stepping once
//! the uniformized chain has converged and answers all later grid points
//! of a batched query from the converged vector; Poisson weight vectors
//! are memoized per `Λ·Δt` through [`poisson::PoissonCache`]. See the
//! [`transient`] module docs for the full semantics.
//!
//! # Example
//!
//! The classic two-state machine (failure rate λ, repair rate µ) has
//! steady-state availability µ/(λ+µ):
//!
//! ```
//! use ctmc::{Ctmc, measures};
//! let (lambda, mu) = (0.001, 0.5);
//! let ctmc = Ctmc::new(
//!     vec![vec![(lambda, 1)], vec![(mu, 0)]],
//!     vec![0, 1], // bit 0 marks "down"
//!     0,
//! ).unwrap();
//! let a = measures::steady_state_availability(&ctmc, 1);
//! assert!((a - mu / (lambda + mu)).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorbing;
pub mod chain;
pub mod context;
pub mod csl;
mod expm;
pub mod measures;
pub mod poisson;
pub mod solver;
pub mod steady;
pub mod transient;

pub use chain::{Ctmc, CtmcError, Incoming};
pub use context::{MeasureContext, SolveCounters};
pub use ioimc::budget;
pub use poisson::PoissonCache;
pub use solver::{SolverOptions, TransientOptions};
