//! Differential fuzzing: generation, oracles, shrinking, evidence.
//!
//! This module is the shared substrate of the repository's randomized
//! testing. The property-test suites (`tests/proptest_roundtrip.rs`,
//! `tests/proptest_laws.rs`) draw their models from [`gen::gen_system`];
//! the `fuzz_diff` binary drives the same generator through the four
//! differential [`oracle::OraclePair`]s, reduces any disagreement with
//! [`shrink::shrink_system`], and commits the result as a
//! schema-versioned [`evidence::Evidence`] artifact.
//!
//! Everything here is deterministic for a fixed seed — including the
//! Monte-Carlo oracle, whose simulation stream is seeded — so any
//! failure a fuzz run reports can be replayed exactly from its artifact
//! and committed seeds can never flake in CI.

pub mod evidence;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use evidence::{Evidence, SCHEMA_VERSION};
pub use gen::{gen_system, GenConfig};
pub use oracle::{check_all, check_pair, Disagreement, OraclePair, PairCheck};
pub use shrink::{shrink_system, ShrinkOutcome};
