//! Dependability measures over labelled CTMCs.
//!
//! Arcade labels system-down states with bit 0; all measures here take the
//! label mask explicitly so other propositions can be queried the same way.
//! Each function is a one-shot computation over one chain; batched curves
//! over one chain go through `arcade`'s `Session`, which keeps the
//! steady-state vector and the absorbing transformations between queries.

use ioimc::StateLabel;

use crate::absorbing::{first_passage_probability, mean_time_to_absorption};
use crate::chain::Ctmc;
use crate::steady::steady_state;
use crate::transient::transient;

/// The states matching `mask`.
fn targets(ctmc: &Ctmc, mask: StateLabel) -> Vec<u32> {
    ctmc.states_with_label(mask).collect()
}

/// Steady-state availability: long-run probability of *not* being in a
/// state matching `down_mask`.
pub fn steady_state_availability(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    1.0 - steady_state_unavailability(ctmc, down_mask)
}

/// Steady-state unavailability: complement of
/// [`steady_state_availability`], computed directly to preserve precision
/// for very small values.
pub fn steady_state_unavailability(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    state_mass(&targets(ctmc, down_mask), &steady_state(ctmc))
}

/// Point availability `A(t)`: probability of being up at time `t`.
pub fn point_availability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    1.0 - point_unavailability(ctmc, down_mask, t)
}

/// Point unavailability `1 - A(t)`, computed directly.
pub fn point_unavailability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    state_mass(&targets(ctmc, down_mask), &transient(ctmc, t))
}

/// Reliability `R(t)`: probability that no down state has been entered up
/// to time `t` (down states made absorbing).
pub fn reliability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    1.0 - unreliability(ctmc, down_mask, t)
}

/// Unreliability `1 - R(t)`: first-passage probability into the down
/// states, computed directly (the RCS case study reports values around
/// 1e-9 where `1 - R` would lose all precision).
pub fn unreliability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    let down = targets(ctmc, down_mask);
    if down.is_empty() {
        return 0.0;
    }
    first_passage_probability(ctmc, &down, t)
}

/// Mean time to failure: expected time until the first down state is
/// entered.
pub fn mttf(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    let down = targets(ctmc, down_mask);
    if down.is_empty() {
        return f64::INFINITY;
    }
    mean_time_to_absorption(ctmc, &down)
}

/// Probability mass of `pi` on `targets`, clamped to `[0, 1]` (sums of a
/// numerically computed distribution can stray by rounding). Shared by
/// every measure layer so clamping policy lives in one place.
pub fn state_mass(targets: &[u32], pi: &[f64]) -> f64 {
    targets
        .iter()
        .map(|&s| pi[s as usize])
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(l: f64, m: f64) -> Ctmc {
        Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
    }

    #[test]
    fn availability_pair_is_consistent() {
        let c = machine(0.01, 1.0);
        let a = steady_state_availability(&c, 1);
        let u = steady_state_unavailability(&c, 1);
        assert!((a + u - 1.0).abs() < 1e-12);
        assert!((u - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn reliability_ignores_repair() {
        let c = machine(0.1, 100.0);
        // first failure is exp(0.1) regardless of the huge repair rate
        let r = reliability(&c, 1, 5.0);
        assert!((r - (-0.5f64).exp()).abs() < 1e-10);
        let u = unreliability(&c, 1, 5.0);
        assert!((r + u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_availability_interpolates() {
        let c = machine(0.5, 0.5);
        let a0 = point_availability(&c, 1, 0.0);
        let ainf = point_availability(&c, 1, 1e3);
        assert!((a0 - 1.0).abs() < 1e-12);
        assert!((ainf - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mttf_of_machine() {
        let c = machine(0.25, 1.0);
        assert!((mttf(&c, 1) - 4.0).abs() < 1e-10);
    }

    #[test]
    fn no_down_states_is_perfect() {
        let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 0], 0).unwrap();
        assert_eq!(unreliability(&c, 1, 10.0), 0.0);
        assert_eq!(mttf(&c, 1), f64::INFINITY);
        assert!((steady_state_availability(&c, 1) - 1.0).abs() < 1e-12);
    }
}
