//! Incremental construction of I/O-IMCs.

use crate::alphabet::ActionId;
use crate::automaton::{IoImc, StateId, StateLabel};
use crate::form::{FormId, FormTable, Leaf, RateForms};
use crate::validate::{validate, ValidationError};

/// A builder for [`IoImc`] values.
///
/// Typical flow: declare the action signature, add states and transitions,
/// call [`IoImcBuilder::complete_inputs`] to add the input self-loops the
/// paper omits "for readability", then [`IoImcBuilder::build`].
///
/// # Example
///
/// ```
/// use ioimc::{Alphabet, builder::IoImcBuilder};
/// let mut ab = Alphabet::new();
/// let go = ab.intern("go");
/// let mut b = IoImcBuilder::new();
/// b.set_inputs([go]);
/// let s0 = b.add_state();
/// let s1 = b.add_state();
/// b.interactive(s0, go, s1).markovian(s1, 0.5, s0);
/// let imc = b.complete_inputs().build()?;
/// assert_eq!(imc.num_states(), 2);
/// # Ok::<(), ioimc::ValidationError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct IoImcBuilder {
    initial: StateId,
    inputs: Vec<ActionId>,
    outputs: Vec<ActionId>,
    internals: Vec<ActionId>,
    interactive: Vec<Vec<(ActionId, StateId)>>,
    markovian: Vec<Vec<(f64, StateId)>>,
    /// The form table and per-state form ids, parallel to `markovian`
    /// rows. Allocated lazily by the first
    /// [`IoImcBuilder::markovian_formed`] call (backfilling constant
    /// leaves for earlier transitions); stays `None` — and costs nothing —
    /// for non-parametric builds.
    forms: Option<(FormTable, Vec<Vec<FormId>>)>,
    labels: Vec<StateLabel>,
}

impl IoImcBuilder {
    /// Creates an empty builder (initial state defaults to state 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the input actions (replaces any previous declaration).
    pub fn set_inputs(&mut self, actions: impl IntoIterator<Item = ActionId>) -> &mut Self {
        self.inputs = sorted_dedup(actions);
        self
    }

    /// Declares the output actions (replaces any previous declaration).
    pub fn set_outputs(&mut self, actions: impl IntoIterator<Item = ActionId>) -> &mut Self {
        self.outputs = sorted_dedup(actions);
        self
    }

    /// Declares the internal actions (replaces any previous declaration).
    pub fn set_internals(&mut self, actions: impl IntoIterator<Item = ActionId>) -> &mut Self {
        self.internals = sorted_dedup(actions);
        self
    }

    /// Adds a state with label 0 and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.add_labeled_state(0)
    }

    /// Adds a state with the given label and returns its id.
    pub fn add_labeled_state(&mut self, label: StateLabel) -> StateId {
        let id = u32::try_from(self.labels.len()).expect("more than u32::MAX states");
        self.interactive.push(Vec::new());
        self.markovian.push(Vec::new());
        if let Some((_, rows)) = &mut self.forms {
            rows.push(Vec::new());
        }
        self.labels.push(label);
        id
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Sets the initial state (defaults to 0).
    pub fn set_initial(&mut self, s: StateId) -> &mut Self {
        self.initial = s;
        self
    }

    /// Adds an interactive transition `src --a--> tgt`.
    pub fn interactive(&mut self, src: StateId, a: ActionId, tgt: StateId) -> &mut Self {
        self.interactive[src as usize].push((a, tgt));
        self
    }

    /// Adds a Markovian transition `src --rate--> tgt`.
    pub fn markovian(&mut self, src: StateId, rate: f64, tgt: StateId) -> &mut Self {
        self.markovian[src as usize].push((rate, tgt));
        if let Some((table, rows)) = &mut self.forms {
            rows[src as usize].push(table.leaf(Leaf::constant(rate)));
        }
        self
    }

    /// Adds a Markovian transition carrying an explicit symbolic rate
    /// form, a leaf (parametric builds). Transitions added through
    /// [`IoImcBuilder::markovian`] before or after this call get constant
    /// leaves, so the finished automaton's forms always cover every
    /// transition.
    pub fn markovian_formed(
        &mut self,
        src: StateId,
        rate: f64,
        tgt: StateId,
        form: Leaf,
    ) -> &mut Self {
        let (table, rows) = self.forms.get_or_insert_with(|| {
            // Backfill: every transition added so far was constant.
            let mut table = FormTable::new();
            let rows = self
                .markovian
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&(r, _)| table.leaf(Leaf::constant(r)))
                        .collect()
                })
                .collect();
            (table, rows)
        });
        self.markovian[src as usize].push((rate, tgt));
        rows[src as usize].push(table.leaf(form));
        self
    }

    /// Adds a self-loop `s --a--> s` for every input action `a` that has no
    /// transition out of `s`, making the automaton input-enabled.
    pub fn complete_inputs(&mut self) -> &mut Self {
        for s in 0..self.labels.len() {
            for &a in &self.inputs {
                if !self.interactive[s].iter().any(|&(b, _)| b == a) {
                    self.interactive[s].push((a, s as StateId));
                }
            }
        }
        self
    }

    /// Validates and finishes the automaton.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the automaton has no states, the
    /// signature sets overlap, a transition uses an undeclared action or an
    /// out-of-range state, a rate is not finite and positive, or some state
    /// is not input-enabled.
    pub fn build(&mut self) -> Result<IoImc, ValidationError> {
        let forms = std::mem::take(&mut self.forms);
        let mut imc = IoImc::from_parts_unchecked(
            self.initial,
            std::mem::take(&mut self.inputs),
            std::mem::take(&mut self.outputs),
            std::mem::take(&mut self.internals),
            std::mem::take(&mut self.interactive),
            std::mem::take(&mut self.markovian),
            std::mem::take(&mut self.labels),
        );
        if let Some((table, rows)) = forms {
            imc.attach_forms(RateForms {
                table,
                ids: rows.into_iter().flatten().collect(),
            });
        }
        imc.normalize();
        validate(&imc)?;
        Ok(imc)
    }
}

fn sorted_dedup(actions: impl IntoIterator<Item = ActionId>) -> Vec<ActionId> {
    let mut v: Vec<ActionId> = actions.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alphabet;

    #[test]
    fn complete_inputs_adds_missing_self_loops_only() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_inputs([a]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, a, s1); // s0 already handles a
        let imc = b.complete_inputs().build().unwrap();
        assert_eq!(imc.interactive_from(0), &[(a, 1)]);
        assert_eq!(imc.interactive_from(1), &[(a, 1)]);
    }

    #[test]
    fn build_rejects_non_input_enabled() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_inputs([a]);
        b.add_state();
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_bad_rate() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.markovian(s0, -1.0, s1);
        assert!(b.build().is_err());
        let mut b = IoImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.markovian(s0, f64::NAN, s1);
        assert!(b.build().is_err());
    }

    #[test]
    fn markovian_self_loops_are_cancelled() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.markovian(s0, 3.0, s0).markovian(s0, 1.0, s1);
        let imc = b.build().unwrap();
        assert_eq!(imc.markovian_from(0), &[(1.0, 1)]);
    }

    #[test]
    fn build_rejects_overlapping_signature() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_inputs([a]).set_outputs([a]);
        let s = b.add_state();
        b.interactive(s, a, s);
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_undeclared_action() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        let s = b.add_state();
        b.interactive(s, a, s);
        assert!(b.build().is_err());
    }

    #[test]
    fn labels_are_kept() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_labeled_state(0b10);
        let _ = s0;
        let imc = b.build().unwrap();
        assert_eq!(imc.label(0), 0b10);
    }

    #[test]
    fn empty_automaton_is_rejected() {
        assert!(IoImcBuilder::new().build().is_err());
    }
}
