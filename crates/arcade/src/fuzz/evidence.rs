//! Machine-readable disagreement evidence.
//!
//! When `fuzz_diff` finds and shrinks an oracle disagreement it commits
//! an [`Evidence`] record under `artifacts/fuzz/` so the failure is
//! reproducible offline: the seed, the original and minimal model texts,
//! both oracle outputs and the tolerance they broke, plus shrink
//! statistics. The JSON layout is versioned by [`SCHEMA_VERSION`];
//! consumers must reject records whose `schema` field they don't know.

use crate::fuzz::oracle::Disagreement;
use crate::serve::Json;

/// Version of the evidence JSON layout. Version 2 added the transient
/// `kernel` of each record and the per-kernel check counts of the
/// `fuzz_diff` summary.
pub const SCHEMA_VERSION: u32 = 2;

/// One committed disagreement: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// The iteration's generator/simulation seed.
    pub seed: u64,
    /// Iteration index within the fuzz run.
    pub iteration: u64,
    /// The disagreement (pair, measure, both values, tolerance).
    pub disagreement: Disagreement,
    /// Textual syntax of the originally generated model.
    pub original: String,
    /// Textual syntax of the shrunk (minimal) model.
    pub minimal: String,
    /// Accepted shrink edits.
    pub shrink_steps: usize,
    /// Predicate evaluations spent shrinking.
    pub shrink_checks: usize,
}

impl Evidence {
    /// The record as a JSON value (serialize with `to_string()`).
    pub fn to_json(&self) -> Json {
        let d = &self.disagreement;
        Json::obj([
            ("schema", Json::Num(f64::from(SCHEMA_VERSION))),
            ("seed", Json::Num(self.seed as f64)),
            ("iteration", Json::Num(self.iteration as f64)),
            ("pair", Json::str(d.pair.name())),
            ("measure", Json::str(d.measure.clone())),
            ("primary", Json::Num(d.primary)),
            ("oracle", Json::Num(d.oracle)),
            ("tolerance", Json::Num(d.tolerance)),
            (
                "kernel",
                d.kernel.map_or(Json::Null, |k| Json::str(k.name())),
            ),
            ("original_model", Json::str(self.original.clone())),
            ("minimal_model", Json::str(self.minimal.clone())),
            ("shrink_steps", Json::Num(self.shrink_steps as f64)),
            ("shrink_checks", Json::Num(self.shrink_checks as f64)),
        ])
    }

    /// Canonical artifact file name: unique per pair and seed, stable
    /// across reruns so a committed artifact overwrites its predecessor.
    pub fn file_name(&self) -> String {
        format!(
            "disagreement-{}-seed{}.json",
            self.disagreement.pair.name(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::oracle::OraclePair;

    fn sample() -> Evidence {
        Evidence {
            seed: 42,
            iteration: 7,
            disagreement: Disagreement {
                pair: OraclePair::Modular,
                measure: "steady_state_unavailability".to_owned(),
                primary: 0.25,
                oracle: 0.5,
                tolerance: 1e-7,
                kernel: None,
            },
            original: "SYSTEM DOWN c0.down".to_owned(),
            minimal: "SYSTEM DOWN c0.down".to_owned(),
            shrink_steps: 3,
            shrink_checks: 19,
        }
    }

    #[test]
    fn evidence_round_trips_through_json() {
        let e = sample();
        let text = e.to_json().to_string();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            back.get("schema").and_then(Json::as_f64),
            Some(f64::from(SCHEMA_VERSION))
        );
        assert_eq!(back.get("pair").and_then(Json::as_str), Some("modular"));
        assert_eq!(back.get("primary").and_then(Json::as_f64), Some(0.25));
        assert_eq!(back.get("shrink_steps").and_then(Json::as_f64), Some(3.0));
        assert_eq!(back.get("kernel"), Some(&Json::Null));
        let mut dense = sample();
        dense.disagreement.kernel = Some(ctmc::transient::TransientKernel::Dense);
        let back = Json::parse(&dense.to_json().to_string()).expect("valid JSON");
        assert_eq!(back.get("kernel").and_then(Json::as_str), Some("dense"));
    }

    #[test]
    fn file_names_identify_pair_and_seed() {
        assert_eq!(sample().file_name(), "disagreement-modular-seed42.json");
    }
}
