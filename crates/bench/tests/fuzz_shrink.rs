//! Planted-bug regression for the fuzzing pipeline: a deterministic
//! stand-in for a buggy oracle drives [`shrink_system`] end to end —
//! generation, reduction to a known minimal shape, and the committed
//! evidence artifact — without depending on any real engine defect
//! (those get fixed, and the test must keep running afterwards).
//!
//! The planted predicate declares a "disagreement" whenever the model
//! contains a multi-failure-mode component, mimicking an oracle that
//! mis-rates mode-split transitions. Shrinking under it must strip
//! everything else and leave exactly one multi-mode component.

use arcade::ast::SystemDef;
use arcade::fuzz::{
    gen_system, shrink_system, Disagreement, Evidence, GenConfig, OraclePair, SCHEMA_VERSION,
};
use arcade::model::validate;
use arcade::parser::parse_system;
use arcade::printer::to_arcade_text;
use arcade::serve::Json;
use arcade_bench::write_atomic;
use smallrand::SmallRng;

/// The planted bug: "the oracles disagree" iff some component splits its
/// failures over more than one mode.
fn planted(def: &SystemDef) -> bool {
    def.components
        .iter()
        .any(|bc| bc.failure_mode_probs.len() > 1)
}

/// Deterministic walk to the first seed whose generated model trips the
/// planted predicate.
fn first_failing_model() -> (u64, SystemDef) {
    let cfg = GenConfig::engine();
    for seed in 0x5EED0..0x5EED0 + 256 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let def = gen_system(&mut rng, &cfg);
        if planted(&def) {
            return (seed, def);
        }
    }
    panic!("no generated model with a multi-mode component in 256 seeds");
}

#[test]
fn planted_bug_shrinks_to_one_multi_mode_component() {
    let (_, def) = first_failing_model();
    let outcome = shrink_system(&def, planted);

    // The minimum the candidate set admits: one component carrying the
    // predicate-relevant feature, everything orthogonal stripped.
    assert_eq!(outcome.def.components.len(), 1, "{:#?}", outcome.def);
    let bc = &outcome.def.components[0];
    assert!(
        bc.failure_mode_probs.len() > 1,
        "shrink lost the planted feature"
    );
    assert!(bc.df.is_none(), "FDEP not stripped");
    assert!(bc.om_groups.is_empty(), "OM groups not stripped");
    assert!(outcome.def.smus.is_empty(), "SMUs not stripped");
    assert!(outcome.def.params.is_empty(), "params not stripped");
    assert!(outcome.steps > 0, "nothing was reduced");
    assert!(outcome.checks >= outcome.steps);
    validate(&outcome.def).expect("minimal model still valid");
}

#[test]
fn planted_bug_minimum_is_deterministic() {
    let (_, def) = first_failing_model();
    let a = shrink_system(&def, planted);
    let b = shrink_system(&def, planted);
    assert_eq!(a.def, b.def, "minimal model differs between runs");
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.checks, b.checks);
    // The minimal model survives a text round trip bitwise (up to the
    // system name, which the printer emits only as a comment).
    let text = to_arcade_text(&a.def);
    let mut back = parse_system(&text).expect("minimal model parses back");
    back.name = a.def.name.clone();
    assert_eq!(to_arcade_text(&back), text);
}

#[test]
fn evidence_artifact_writes_atomically_and_reparses() {
    let (seed, def) = first_failing_model();
    let outcome = shrink_system(&def, planted);
    let evidence = Evidence {
        seed,
        iteration: 0,
        disagreement: Disagreement {
            pair: OraclePair::Modular,
            measure: "steady_state_unavailability".to_owned(),
            primary: 0.25,
            oracle: 0.5,
            tolerance: 1e-7,
            kernel: None,
        },
        original: to_arcade_text(&def),
        minimal: to_arcade_text(&outcome.def),
        shrink_steps: outcome.steps,
        shrink_checks: outcome.checks,
    };

    let dir = std::env::temp_dir().join(format!("fuzz_shrink_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join(evidence.file_name());
    let path = path.to_str().expect("utf-8 temp path");
    write_atomic(path, &evidence.to_json().to_string()).expect("commit evidence");

    let raw = std::fs::read_to_string(path).expect("read evidence back");
    let back = Json::parse(&raw).expect("evidence is valid JSON");
    assert_eq!(
        back.get("schema").and_then(Json::as_f64),
        Some(f64::from(SCHEMA_VERSION)),
        "consumers key on the schema version"
    );
    assert_eq!(back.get("seed").and_then(Json::as_f64), Some(seed as f64));
    let minimal = back
        .get("minimal_model")
        .and_then(Json::as_str)
        .expect("minimal model text");
    let reparsed = parse_system(minimal).expect("minimal model text parses");
    assert!(
        planted(&reparsed),
        "re-parsed minimal model no longer trips the planted predicate"
    );
    std::fs::remove_dir_all(&dir).ok();
}
