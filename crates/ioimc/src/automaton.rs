//! The I/O-IMC automaton type.

use crate::alphabet::ActionId;
use crate::form::{FormId, RateForms};

/// Index of a state in an [`IoImc`].
pub type StateId = u32;

/// A state label: a bitmask of atomic propositions.
///
/// Arcade uses bit 0 for "system down" (set by the observer component);
/// other bits are free for user-defined propositions. Labels of composed
/// states are the bitwise OR of the component labels.
pub type StateLabel = u64;

/// The three kinds of interactive actions of an I/O-IMC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// `a?` — controlled by the environment; input-enabled in every state.
    Input,
    /// `a!` — controlled by the automaton; cannot be delayed (urgent).
    Output,
    /// `a;` — invisible; cannot be delayed (urgent).
    Internal,
}

/// An Input/Output Interactive Markov Chain.
///
/// Transitions are stored in flat CSR (compressed sparse row) form: one
/// contiguous transition array per kind plus an `n + 1` offset array, so
/// that a state's transitions are a slice of a single allocation. The
/// aggregation pipeline iterates these slices millions of times per
/// composition step; keeping them contiguous (instead of one heap `Vec`
/// per state) is what makes the hot loops cache-friendly and the
/// per-automaton allocation count O(1).
///
/// Mostly immutable after construction (see
/// [`crate::builder::IoImcBuilder`]); the transformation passes either
/// return new automata ([`crate::compose::parallel`],
/// [`crate::reach::restrict_reachable`]) or edit in place without
/// copying the transition arrays ([`crate::hide::hide_outputs`],
/// [`crate::hide::prune_inputs`], [`crate::mp::maximal_progress_cut`]).
///
/// Invariants (checked by [`crate::validate::validate`]):
///
/// * the input, output and internal action sets are disjoint and sorted,
/// * every transition's action belongs to the signature,
/// * every state has at least one transition for every input action
///   (input-enabledness),
/// * all Markovian rates are finite and strictly positive,
/// * all transition targets are valid states.
#[derive(Debug, Clone, PartialEq)]
pub struct IoImc {
    pub(crate) initial: StateId,
    pub(crate) inputs: Vec<ActionId>,
    pub(crate) outputs: Vec<ActionId>,
    pub(crate) internals: Vec<ActionId>,
    /// CSR offsets into `inter`: state `s` owns `inter[inter_off[s]..inter_off[s+1]]`.
    pub(crate) inter_off: Vec<u32>,
    /// All interactive transitions `(action, target)`, grouped by source.
    pub(crate) inter: Vec<(ActionId, StateId)>,
    /// CSR offsets into `mark`.
    pub(crate) mark_off: Vec<u32>,
    /// All Markovian transitions `(rate, target)`, grouped by source.
    pub(crate) mark: Vec<(f64, StateId)>,
    /// Optional symbolic rate forms (parametric builds only — `None` for
    /// ordinary automata, with zero overhead): this automaton's own node
    /// table and one node id per entry of `mark`. Every pass that
    /// permutes, merges or drops `mark` entries mirrors the operation on
    /// the ids, so `forms.ids[i]` always describes `mark[i].0`.
    pub(crate) forms: Option<RateForms>,
    pub(crate) labels: Vec<StateLabel>,
}

impl IoImc {
    /// Assembles an I/O-IMC from per-state transition lists without
    /// validation.
    ///
    /// Prefer [`crate::builder::IoImcBuilder`]; this is the escape hatch used
    /// by the transformation passes. Signature sets must be sorted and
    /// disjoint and `interactive`, `markovian`, `labels` must have one entry
    /// per state. The lists are flattened into CSR storage.
    pub fn from_parts_unchecked(
        initial: StateId,
        inputs: Vec<ActionId>,
        outputs: Vec<ActionId>,
        internals: Vec<ActionId>,
        interactive: Vec<Vec<(ActionId, StateId)>>,
        markovian: Vec<Vec<(f64, StateId)>>,
        labels: Vec<StateLabel>,
    ) -> Self {
        debug_assert_eq!(interactive.len(), markovian.len());
        debug_assert_eq!(interactive.len(), labels.len());
        let (inter_off, inter) = flatten(interactive);
        let (mark_off, mark) = flatten(markovian);
        Self {
            initial,
            inputs,
            outputs,
            internals,
            inter_off,
            inter,
            mark_off,
            mark,
            forms: None,
            labels,
        }
    }

    /// Assembles an I/O-IMC directly from CSR arrays without validation.
    ///
    /// `inter_off`/`mark_off` must be monotone, have `labels.len() + 1`
    /// entries, start at 0 and end at the respective transition count.
    /// Used by the passes that discover states in order (composition, BFS
    /// renumbering) and can therefore emit CSR without an intermediate
    /// per-state `Vec`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_csr_unchecked(
        initial: StateId,
        inputs: Vec<ActionId>,
        outputs: Vec<ActionId>,
        internals: Vec<ActionId>,
        inter_off: Vec<u32>,
        inter: Vec<(ActionId, StateId)>,
        mark_off: Vec<u32>,
        mark: Vec<(f64, StateId)>,
        labels: Vec<StateLabel>,
    ) -> Self {
        debug_assert_eq!(inter_off.len(), labels.len() + 1);
        debug_assert_eq!(mark_off.len(), labels.len() + 1);
        debug_assert_eq!(*inter_off.last().unwrap_or(&0) as usize, inter.len());
        debug_assert_eq!(*mark_off.last().unwrap_or(&0) as usize, mark.len());
        debug_assert!(inter_off.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(mark_off.windows(2).all(|w| w[0] <= w[1]));
        Self {
            initial,
            inputs,
            outputs,
            internals,
            inter_off,
            inter,
            mark_off,
            mark,
            forms: None,
            labels,
        }
    }

    /// Attaches symbolic rate forms: a node table and one node id per
    /// Markovian transition in storage order. Call before
    /// [`IoImc::normalize`] — normalization keeps the forms aligned from
    /// then on.
    ///
    /// # Panics
    ///
    /// Panics if `forms.ids.len()` differs from the Markovian transition
    /// count.
    pub fn attach_forms(&mut self, forms: RateForms) {
        assert_eq!(
            forms.ids.len(),
            self.mark.len(),
            "one rate form per Markovian transition"
        );
        debug_assert!(
            forms
                .ids
                .iter()
                .all(|&id| (id as usize) < forms.table.len()),
            "form id outside the table"
        );
        self.forms = Some(forms);
    }

    /// The symbolic rate forms: the node table and the node ids, parallel
    /// to the flat Markovian transition array of
    /// [`IoImc::markovian_csr`] (`None` for non-parametric automata).
    pub fn forms(&self) -> Option<&RateForms> {
        self.forms.as_ref()
    }

    /// The form ids of state `s`'s Markovian transitions, parallel to
    /// [`IoImc::markovian_from`].
    pub fn markovian_forms_from(&self, s: StateId) -> Option<&[FormId]> {
        self.forms.as_ref().map(|f| &f.ids[self.mark_range(s)])
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Sorted input action set.
    pub fn inputs(&self) -> &[ActionId] {
        &self.inputs
    }

    /// Sorted output action set.
    pub fn outputs(&self) -> &[ActionId] {
        &self.outputs
    }

    /// Sorted internal action set.
    pub fn internals(&self) -> &[ActionId] {
        &self.internals
    }

    /// The kind of `a` in this automaton's signature, if present.
    pub fn kind_of(&self, a: ActionId) -> Option<ActionKind> {
        if self.inputs.binary_search(&a).is_ok() {
            Some(ActionKind::Input)
        } else if self.outputs.binary_search(&a).is_ok() {
            Some(ActionKind::Output)
        } else if self.internals.binary_search(&a).is_ok() {
            Some(ActionKind::Internal)
        } else {
            None
        }
    }

    /// Whether `a` is a *visible* action (input or output) of this automaton.
    ///
    /// Visible actions are the ones that synchronize in parallel composition.
    pub fn is_visible(&self, a: ActionId) -> bool {
        matches!(
            self.kind_of(a),
            Some(ActionKind::Input) | Some(ActionKind::Output)
        )
    }

    /// Whether `a` is urgent (output or internal): urgent actions cannot be
    /// delayed, so an enabled urgent action preempts Markovian transitions
    /// (maximal progress).
    pub fn is_urgent(&self, a: ActionId) -> bool {
        matches!(
            self.kind_of(a),
            Some(ActionKind::Output) | Some(ActionKind::Internal)
        )
    }

    /// Interactive transitions of `s` as `(action, target)` pairs.
    pub fn interactive_from(&self, s: StateId) -> &[(ActionId, StateId)] {
        let s = s as usize;
        &self.inter[self.inter_off[s] as usize..self.inter_off[s + 1] as usize]
    }

    /// Markovian transitions of `s` as `(rate, target)` pairs.
    pub fn markovian_from(&self, s: StateId) -> &[(f64, StateId)] {
        &self.mark[self.mark_range(s)]
    }

    /// The index range of `s`'s Markovian transitions in the flat
    /// transition array.
    pub(crate) fn mark_range(&self, s: StateId) -> std::ops::Range<usize> {
        let s = s as usize;
        self.mark_off[s] as usize..self.mark_off[s + 1] as usize
    }

    /// The Markovian transitions in raw CSR form: the `num_states + 1`
    /// offset array and the flat `(rate, target)` transition array it
    /// indexes. Lets downstream consumers (CTMC extraction) copy the
    /// storage wholesale instead of re-collecting per-state rows.
    pub fn markovian_csr(&self) -> (&[u32], &[(f64, StateId)]) {
        (&self.mark_off, &self.mark)
    }

    /// Transposed adjacency over *all* transitions (interactive and
    /// Markovian alike) in flat CSR form: `preds[off[t]..off[t + 1]]`
    /// lists the sources of every edge into `t`, in ascending source
    /// order. Parallel edges are kept (one entry per transition), which
    /// is what the worklist refiner in the `bisim` crate wants — it marks
    /// predecessors dirty and duplicates are absorbed by the dirty mask.
    pub fn incoming(&self) -> (Vec<u32>, Vec<StateId>) {
        let n = self.num_states();
        let mut off = vec![0u32; n + 1];
        for &(_, t) in &self.inter {
            off[t as usize + 1] += 1;
        }
        for &(_, t) in &self.mark {
            off[t as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut preds: Vec<StateId> = vec![0; off[n] as usize];
        let mut cursor: Vec<u32> = off[..n].to_vec();
        // Scanning sources in ascending order keeps each target's
        // predecessor slice sorted by source.
        for s in 0..n {
            for &(_, t) in &self.inter[self.inter_off[s] as usize..self.inter_off[s + 1] as usize] {
                preds[cursor[t as usize] as usize] = s as StateId;
                cursor[t as usize] += 1;
            }
            for &(_, t) in &self.mark[self.mark_off[s] as usize..self.mark_off[s + 1] as usize] {
                preds[cursor[t as usize] as usize] = s as StateId;
                cursor[t as usize] += 1;
            }
        }
        (off, preds)
    }

    /// The label of state `s`.
    pub fn label(&self, s: StateId) -> StateLabel {
        self.labels[s as usize]
    }

    /// All state labels.
    pub fn labels(&self) -> &[StateLabel] {
        &self.labels
    }

    /// Whether state `s` has an enabled urgent (output or internal)
    /// transition. Such states are *unstable*: time cannot pass in them.
    pub fn is_unstable(&self, s: StateId) -> bool {
        self.interactive_from(s)
            .iter()
            .any(|&(a, _)| self.is_urgent(a))
    }

    /// Total exit rate of state `s` (sum of Markovian rates).
    pub fn exit_rate(&self, s: StateId) -> f64 {
        self.markovian_from(s).iter().map(|&(r, _)| r).sum()
    }

    /// Total number of interactive transitions.
    pub fn num_interactive(&self) -> usize {
        self.inter.len()
    }

    /// Total number of Markovian transitions.
    pub fn num_markovian(&self) -> usize {
        self.mark.len()
    }

    /// Total number of transitions (interactive + Markovian).
    pub fn num_transitions(&self) -> usize {
        self.num_interactive() + self.num_markovian()
    }

    /// Iterates over all interactive transitions as `(src, action, tgt)`.
    pub fn iter_interactive(&self) -> impl Iterator<Item = (StateId, ActionId, StateId)> + '_ {
        (0..self.num_states() as StateId).flat_map(move |s| {
            self.interactive_from(s)
                .iter()
                .map(move |&(a, t)| (s, a, t))
        })
    }

    /// Iterates over all Markovian transitions as `(src, rate, tgt)`.
    pub fn iter_markovian(&self) -> impl Iterator<Item = (StateId, f64, StateId)> + '_ {
        (0..self.num_states() as StateId)
            .flat_map(move |s| self.markovian_from(s).iter().map(move |&(r, t)| (s, r, t)))
    }

    /// Returns a copy with the given state labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.num_states()`.
    pub fn with_labels(mut self, labels: Vec<StateLabel>) -> Self {
        assert_eq!(labels.len(), self.num_states(), "label count mismatch");
        self.labels = labels;
        self
    }

    /// Keeps only the interactive transitions for which `keep` returns
    /// `true`, compacting the CSR storage in place (no reallocation).
    pub(crate) fn retain_interactive(
        &mut self,
        mut keep: impl FnMut(StateId, ActionId, StateId) -> bool,
    ) {
        let n = self.num_states();
        let mut w = 0usize;
        let mut r = 0usize;
        for s in 0..n {
            let end = self.inter_off[s + 1] as usize;
            self.inter_off[s] = w as u32;
            while r < end {
                let (a, t) = self.inter[r];
                if keep(s as StateId, a, t) {
                    self.inter[w] = (a, t);
                    w += 1;
                }
                r += 1;
            }
        }
        self.inter_off[n] = w as u32;
        self.inter.truncate(w);
    }

    /// Drops every Markovian transition of the states for which `drop_row`
    /// returns `true`, compacting in place. Returns the number of
    /// transitions removed.
    pub(crate) fn clear_markovian_rows(
        &mut self,
        mut drop_row: impl FnMut(StateId) -> bool,
    ) -> usize {
        let n = self.num_states();
        let before = self.mark.len();
        let mut w = 0usize;
        let mut r = 0usize;
        for s in 0..n {
            let end = self.mark_off[s + 1] as usize;
            self.mark_off[s] = w as u32;
            if drop_row(s as StateId) {
                r = end;
            } else {
                while r < end {
                    self.mark[w] = self.mark[r];
                    if let Some(forms) = &mut self.forms {
                        forms.ids[w] = forms.ids[r];
                    }
                    w += 1;
                    r += 1;
                }
            }
        }
        self.mark_off[n] = w as u32;
        self.mark.truncate(w);
        if let Some(forms) = &mut self.forms {
            forms.ids.truncate(w);
        }
        before - w
    }

    /// Normalizes transition storage in place: sorts each state's rows,
    /// deduplicates identical interactive transitions, merges parallel
    /// Markovian transitions to the same target by summing their rates,
    /// and drops Markovian self-loops (an exponential race against oneself
    /// is unobservable — CTMC generators cancel self-loops).
    pub fn normalize(&mut self) {
        let n = self.num_states();
        // Interactive: per-row sort + dedup, compacted left-to-right (the
        // write cursor never overtakes the read cursor, so this is safe
        // in place).
        let mut w = 0usize;
        for s in 0..n {
            let (start, end) = (self.inter_off[s] as usize, self.inter_off[s + 1] as usize);
            self.inter[start..end].sort_unstable();
            self.inter_off[s] = w as u32;
            let row_start = w;
            for r in start..end {
                let item = self.inter[r];
                if w == row_start || self.inter[w - 1] != item {
                    self.inter[w] = item;
                    w += 1;
                }
            }
        }
        self.inter_off[n] = w as u32;
        self.inter.truncate(w);

        // Markovian: per-row sort by target, drop self-loops, merge
        // parallel edges.
        if self.forms.is_some() {
            self.normalize_markovian_with_forms();
            return;
        }
        let mut w = 0usize;
        for s in 0..n {
            let (start, end) = (self.mark_off[s] as usize, self.mark_off[s + 1] as usize);
            self.mark[start..end].sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
            self.mark_off[s] = w as u32;
            let row_start = w;
            for r in start..end {
                let (rate, t) = self.mark[r];
                if t as usize == s {
                    continue;
                }
                if w > row_start && self.mark[w - 1].1 == t {
                    self.mark[w - 1].0 += rate;
                } else {
                    self.mark[w] = (rate, t);
                    w += 1;
                }
            }
        }
        self.mark_off[n] = w as u32;
        self.mark.truncate(w);
    }

    /// The Markovian half of [`IoImc::normalize`] when rate forms are
    /// attached: same sort key, self-loop drop and merge rule as the
    /// formless path, in place, with the form ids moved alongside. Where
    /// two edges merge, the merged edge's form is `Sum(acc, next)` in the
    /// order the rates are added. Tied entries have bitwise-equal rates,
    /// so tie order cannot change a rate sum, but it does decide which
    /// forms a sum groups; a stable sort breaks ties by storage order, so
    /// the grouping is reproducible.
    fn normalize_markovian_with_forms(&mut self) {
        let n = self.num_states();
        let mut forms = self.forms.take().expect("checked by caller");
        let mut row: Vec<(f64, StateId, FormId)> = Vec::new();
        let mut w = 0usize;
        for s in 0..n {
            let (start, end) = (self.mark_off[s] as usize, self.mark_off[s + 1] as usize);
            row.clear();
            row.extend((start..end).map(|r| (self.mark[r].0, self.mark[r].1, forms.ids[r])));
            row.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
            self.mark_off[s] = w as u32;
            let row_start = w;
            for &(rate, t, id) in &row {
                if t as usize == s {
                    continue;
                }
                if w > row_start && self.mark[w - 1].1 == t {
                    self.mark[w - 1].0 += rate;
                    forms.ids[w - 1] = forms.table.sum(forms.ids[w - 1], id);
                } else {
                    self.mark[w] = (rate, t);
                    forms.ids[w] = id;
                    w += 1;
                }
            }
        }
        self.mark_off[n] = w as u32;
        self.mark.truncate(w);
        forms.ids.truncate(w);
        self.forms = Some(forms);
    }
}

/// Flattens per-state transition lists into a CSR (offsets, data) pair.
fn flatten<T: Copy>(rows: Vec<Vec<T>>) -> (Vec<u32>, Vec<T>) {
    let total: usize = rows.iter().map(Vec::len).sum();
    let mut off = Vec::with_capacity(rows.len() + 1);
    let mut data = Vec::with_capacity(total);
    off.push(0u32);
    for row in rows {
        data.extend_from_slice(&row);
        off.push(u32::try_from(data.len()).expect("more than u32::MAX transitions"));
    }
    (off, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::Alphabet;

    fn two_state() -> (Alphabet, IoImc) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut bld = IoImcBuilder::new();
        bld.set_inputs([a]).set_outputs([b]);
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        bld.interactive(s0, a, s1)
            .interactive(s1, b, s0)
            .markovian(s0, 2.5, s1);
        let imc = bld.complete_inputs().build().unwrap();
        (ab, imc)
    }

    #[test]
    fn signature_queries() {
        let (mut ab, imc) = two_state();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        assert_eq!(imc.kind_of(a), Some(ActionKind::Input));
        assert_eq!(imc.kind_of(b), Some(ActionKind::Output));
        assert_eq!(imc.kind_of(c), None);
        assert!(imc.is_visible(a) && imc.is_visible(b));
        assert!(imc.is_urgent(b) && !imc.is_urgent(a));
    }

    #[test]
    fn stability_and_rates() {
        let (_, imc) = two_state();
        assert!(!imc.is_unstable(0)); // only input + markovian enabled
        assert!(imc.is_unstable(1)); // output b! enabled
        assert!((imc.exit_rate(0) - 2.5).abs() < 1e-12);
        assert_eq!(imc.exit_rate(1), 0.0);
    }

    #[test]
    fn counts_and_iterators() {
        let (_, imc) = two_state();
        // a-self-loop added on s1 by complete_inputs
        assert_eq!(imc.num_interactive(), 3);
        assert_eq!(imc.num_markovian(), 1);
        assert_eq!(imc.num_transitions(), 4);
        assert_eq!(imc.iter_interactive().count(), 3);
        assert_eq!(imc.iter_markovian().count(), 1);
    }

    #[test]
    fn normalize_merges_parallel_markovian() {
        let mut ab = Alphabet::new();
        let _ = ab.intern("x");
        let mut bld = IoImcBuilder::new();
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        bld.markovian(s0, 1.0, s1).markovian(s0, 2.0, s1);
        let mut imc = bld.build().unwrap();
        imc.normalize();
        assert_eq!(imc.markovian_from(0), &[(3.0, 1)]);
    }

    #[test]
    fn normalize_is_row_local() {
        // Three states with interleaved duplicates and self-loops; rows
        // must stay independent when the CSR arrays are compacted.
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut bld = IoImcBuilder::new();
        bld.set_outputs([a]);
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        let s2 = bld.add_state();
        bld.interactive(s0, a, s2)
            .interactive(s0, a, s1)
            .interactive(s0, a, s1)
            .interactive(s1, a, s2)
            .markovian(s1, 1.0, s1) // self-loop, cancelled
            .markovian(s1, 2.0, s2)
            .markovian(s2, 1.5, s0)
            .markovian(s2, 0.5, s0);
        let imc = bld.build().unwrap(); // build() normalizes
        assert_eq!(imc.interactive_from(0), &[(a, 1), (a, 2)]);
        assert_eq!(imc.interactive_from(1), &[(a, 2)]);
        assert_eq!(imc.markovian_from(1), &[(2.0, 2)]);
        assert_eq!(imc.markovian_from(2), &[(2.0, 0)]);
    }

    #[test]
    fn retain_and_clear_compact_csr() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut bld = IoImcBuilder::new();
        bld.set_outputs([a, b]);
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        bld.interactive(s0, a, s1)
            .interactive(s0, b, s1)
            .interactive(s1, a, s0)
            .markovian(s0, 1.0, s1)
            .markovian(s1, 2.0, s0);
        let mut imc = bld.build().unwrap();
        imc.retain_interactive(|_, act, _| act != a);
        assert_eq!(imc.interactive_from(0), &[(b, 1)]);
        assert!(imc.interactive_from(1).is_empty());
        let removed = imc.clear_markovian_rows(|s| s == 1);
        assert_eq!(removed, 1);
        assert_eq!(imc.markovian_from(0), &[(1.0, 1)]);
        assert!(imc.markovian_from(1).is_empty());
    }

    #[test]
    fn normalize_keeps_forms_aligned() {
        use crate::form::Leaf;
        let mut bld = IoImcBuilder::new();
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        let s2 = bld.add_state();
        // Two parallel edges to s2 (merged), one self-loop (dropped), one
        // plain edge to s1 (constant form synthesized).
        bld.markovian_formed(s0, 0.6, s2, Leaf::scaled(0, 2.0))
            .markovian_formed(s0, 0.3, s2, Leaf::scaled(1, 1.0))
            .markovian_formed(s0, 1.0, s0, Leaf::scaled(0, 1.0))
            .markovian(s0, 4.0, s1);
        let imc = bld.build().unwrap();
        assert_eq!(imc.markovian_from(0), &[(4.0, 1), (0.3 + 0.6, 2)]);
        let table = &imc.forms().unwrap().table;
        let ids = imc.markovian_forms_from(0).unwrap();
        // Evaluating at the base point reproduces the merged rates, and
        // off the base each edge follows its own parameters.
        let at_base = table.eval_all(&[0.3, 0.3]);
        assert_eq!(at_base[ids[0] as usize], 4.0);
        assert_eq!(at_base[ids[1] as usize].to_bits(), (0.3f64 + 0.6).to_bits());
        let moved = table.eval_all(&[10.0, 1.0]);
        assert_eq!(moved[ids[0] as usize], 4.0);
        assert_eq!(moved[ids[1] as usize], 1.0 + 20.0);
        assert!(imc.markovian_forms_from(1).unwrap().is_empty());
    }

    #[test]
    fn with_labels_replaces() {
        let (_, imc) = two_state();
        let relabeled = imc.with_labels(vec![0, 1]);
        assert_eq!(relabeled.label(1), 1);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn with_labels_wrong_len_panics() {
        let (_, imc) = two_state();
        let _ = imc.with_labels(vec![0]);
    }
}
