//! Output checks: the invariants every answer meets, the paper's pinned
//! DDS values, and the closed form for independent components.

use crate::deck::{Batch, Comp, Expect, Kind, Op, Structure};
use crate::json::Value;

/// The paper's DDS at its published rates, as pinned in the repository's
/// regression tests (`tests/paper_numbers.rs`): steady-state
/// unavailability, MTTF, unreliability with repair at 840 h, and
/// unreliability without repair at 84, 420 and 840 h.
pub const DDS_STEADY_UNAVAILABILITY: f64 = 3.497828562245593e-6;
pub const DDS_MTTF: f64 = 286089.3108182308;
pub const DDS_UNRELIABILITY_WITH_REPAIR_840: f64 = 0.0029283693822186605;
pub const DDS_UNRELIABILITY: [(f64, f64); 3] = [
    (84.0, 0.011842306106247698),
    (420.0, 0.23018712382599893),
    (840.0, 0.5979824289215058),
];
/// The paper's DDS chain: 2,100 states and 15,120 transitions.
pub const DDS_STATES: usize = 2_100;
pub const DDS_TRANSITIONS: usize = 15_120;

/// Relative agreement with the pinned DDS values.
const PINNED_REL: f64 = 1e-10;
/// Slack for the monotonicity invariants (round-off on flat stretches).
const INVARIANT_ABS: f64 = 1e-12;
/// Agreement with the closed form: relative, plus an absolute floor for
/// probabilities far below uniformization's truncation error.
const CLOSED_REL: f64 = 1e-6;
const CLOSED_ABS: f64 = 1e-13;

/// Probability that a structure over independent components is down,
/// given each component's probability of being down.
pub fn down_probability(structure: Structure, q: &[f64]) -> f64 {
    let n = q.len();
    (0..1u32 << n)
        .filter(|&mask| structure.is_down(n, mask))
        .map(|mask| {
            q.iter()
                .enumerate()
                .map(|(i, &qi)| if mask >> i & 1 == 1 { qi } else { 1.0 - qi })
                .product::<f64>()
        })
        .sum()
}

/// Point unavailability at `t` of independent components with dedicated
/// repair, all up at time 0: each is a two-state chain with
/// `q(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})`.
pub fn closed_unavailability(comps: &[Comp], structure: Structure, t: f64) -> f64 {
    let q: Vec<f64> = comps
        .iter()
        .map(|c| {
            let s = c.fail + c.repair;
            c.fail / s * -(-s * t).exp_m1()
        })
        .collect();
    down_probability(structure, &q)
}

/// Reliability at `t` without repair: a coherent structure of
/// non-repairable components has failed by `t` exactly when it is down
/// at `t`, with `q(t) = 1 − e^{−λt}`.
pub fn closed_reliability(comps: &[Comp], structure: Structure, t: f64) -> f64 {
    let q: Vec<f64> = comps.iter().map(|c| -(-c.fail * t).exp_m1()).collect();
    1.0 - down_probability(structure, &q)
}

fn close(got: f64, want: f64, rel: f64, abs: f64) -> bool {
    (got - want).abs() <= rel * want.abs() + abs
}

/// The response rows of an answer: one row for a query, one per point
/// for a sweep.
pub fn rows(op: &Op, answer: &Value) -> Result<Vec<Vec<f64>>, String> {
    if !answer.is_ok() {
        return Err(format!("error response: {:?}", answer.get("error")));
    }
    let values = answer.get("values").ok_or("response has no values")?;
    let rows = match &op.sweep {
        None => vec![values.numbers().ok_or("values are not numbers")?],
        Some(points) => {
            let rows: Vec<Vec<f64>> = values
                .as_arr()
                .ok_or("sweep values are not rows")?
                .iter()
                .map(|r| r.numbers().ok_or("sweep row is not numbers"))
                .collect::<Result<_, _>>()?;
            if rows.len() != points.len() {
                return Err(format!("{} rows for {} points", rows.len(), points.len()));
            }
            rows
        }
    };
    for row in &rows {
        if row.len() != op.batch.width() {
            return Err(format!(
                "{} values, expected {}",
                row.len(),
                op.batch.width()
            ));
        }
    }
    Ok(rows)
}

/// Checks every row of an answer against the invariants and the op's
/// expectation. `reference` is the set-up answer for the same request
/// (or for the base model of a sweep).
pub fn check(op: &Op, rows: &[Vec<f64>], reference: Option<&[f64]>) -> Result<(), String> {
    for row in rows {
        invariants(&op.batch, row)?;
    }
    let row = &rows[0];
    let b = &op.batch;
    match &op.expect {
        Expect::Invariants => Ok(()),
        Expect::SameAsSetup | Expect::BaseRowAsSetup => {
            let want = reference.ok_or("no set-up answer to compare with")?;
            let same = want.len() == row.len()
                && want
                    .iter()
                    .zip(row)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if same {
                Ok(())
            } else {
                Err(format!("{row:?} differs from the set-up answer {want:?}"))
            }
        }
        Expect::PaperDds => {
            let get = |k: Kind| b.slice(k, row).ok_or("batch lacks a pinned measure");
            let mut pairs = vec![
                (
                    get(Kind::SteadyUnavailability)?[0],
                    DDS_STEADY_UNAVAILABILITY,
                ),
                (get(Kind::Mttf)?[0], DDS_MTTF),
            ];
            let rel = get(Kind::Reliability)?;
            let urr = get(Kind::UnreliabilityWithRepair)?;
            for (i, &t) in b.times.iter().enumerate() {
                if let Some(&(_, u)) = DDS_UNRELIABILITY.iter().find(|(pt, _)| *pt == t) {
                    pairs.push((1.0 - rel[i], u));
                }
                if t == 840.0 {
                    pairs.push((urr[i], DDS_UNRELIABILITY_WITH_REPAIR_840));
                }
            }
            for (got, want) in pairs {
                if !close(got, want, PINNED_REL, 0.0) {
                    return Err(format!(
                        "paper DDS value {got:e} differs from pinned {want:e}"
                    ));
                }
            }
            Ok(())
        }
        Expect::ClosedForm(comps, structure) => {
            let unav = b
                .slice(Kind::Unavailability, row)
                .ok_or("no unavailability")?;
            let rel = b.slice(Kind::Reliability, row).ok_or("no reliability")?;
            for (i, &t) in b.times.iter().enumerate() {
                let (u, r) = (
                    closed_unavailability(comps, *structure, t),
                    closed_reliability(comps, *structure, t),
                );
                if !close(unav[i], u, CLOSED_REL, CLOSED_ABS) {
                    return Err(format!("U({t}) = {:e}, closed form {u:e}", unav[i]));
                }
                if !close(rel[i], r, CLOSED_REL, CLOSED_ABS) {
                    return Err(format!("R({t}) = {:e}, closed form {r:e}", rel[i]));
                }
            }
            Ok(())
        }
    }
}

/// Values lie in [0, 1] (MTTF is positive and finite), reliability does
/// not increase with t, and unreliability with repair is at most
/// 1 − reliability.
fn invariants(b: &Batch, row: &[f64]) -> Result<(), String> {
    for &k in &b.kinds {
        let vs = b.slice(k, row).ok_or("short row")?;
        for &v in vs {
            let ok = match k {
                Kind::Mttf => v.is_finite() && v > 0.0,
                _ => (0.0..=1.0).contains(&v),
            };
            if !ok {
                return Err(format!("{} value {v:e} out of range", k.wire()));
            }
        }
    }
    if let Some(rel) = b.slice(Kind::Reliability, row) {
        for w in rel.windows(2) {
            if w[1] > w[0] + INVARIANT_ABS {
                return Err(format!("reliability rises from {:e} to {:e}", w[0], w[1]));
            }
        }
        if let Some(urr) = b.slice(Kind::UnreliabilityWithRepair, row) {
            for (u, r) in urr.iter().zip(rel) {
                if *u > 1.0 - r + INVARIANT_ABS {
                    return Err(format!(
                        "unreliability with repair {u:e} > 1 - R = {:e}",
                        1.0 - r
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components in parallel (down when both are down), solved by
    /// hand: each is up with probability μ/(λ+μ) + λ/(λ+μ)·e^{−(λ+μ)t}.
    #[test]
    fn closed_form_matches_a_hand_solved_pair() {
        let comps = [
            Comp {
                fail: 0.1,
                repair: 0.9,
            },
            Comp {
                fail: 0.5,
                repair: 1.5,
            },
        ];
        let t = 2.0;
        // Component 1: λ+μ = 1, q = 0.1·(1 − e^{−2}); component 2: λ+μ
        // = 2, q = 0.25·(1 − e^{−4}).
        let q1 = 0.1 * (1.0 - (-2.0f64).exp());
        let q2 = 0.25 * (1.0 - (-4.0f64).exp());
        let u = closed_unavailability(&comps, Structure::Parallel, t);
        assert!((u - q1 * q2).abs() < 1e-15, "{u} vs {}", q1 * q2);
        // Without repair: R = 1 − (1 − e^{−0.2})(1 − e^{−1}).
        let r = closed_reliability(&comps, Structure::Parallel, t);
        let want = 1.0 - (1.0 - (-0.2f64).exp()) * (1.0 - (-1.0f64).exp());
        assert!((r - want).abs() < 1e-15);
        // Long-run limit of the pair: product of λ/(λ+μ).
        let limit = closed_unavailability(&comps, Structure::Parallel, 1e6);
        assert!((limit - 0.1 * 0.25).abs() < 1e-15);
    }

    #[test]
    fn structures_count_down_sets() {
        let q = [0.5; 4];
        assert_eq!(down_probability(Structure::Parallel, &q), 0.0625);
        assert_eq!(down_probability(Structure::Parallel, &q[..2]), 0.25);
        // Pairs: 1 − (1 − 1/4)^2.
        assert_eq!(down_probability(Structure::Pairs, &q), 7.0 / 16.0);
    }
}
