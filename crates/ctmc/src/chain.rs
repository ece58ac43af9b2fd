//! The labelled CTMC type, stored in flat CSR form.

use std::fmt;

use ioimc::{IoImc, RateForms, StateLabel};

/// Errors when constructing or solving a [`Ctmc`].
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// The chain has no states.
    Empty,
    /// A rate is not finite and strictly positive.
    BadRate {
        /// Source state of the offending transition.
        state: u32,
        /// The offending rate.
        rate: f64,
    },
    /// A transition target is out of range.
    BadTarget {
        /// Source state of the offending transition.
        state: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// The initial state is out of range.
    BadInitial(u32),
    /// The CSR offset array is malformed (wrong length, not monotone, or
    /// not covering the transition array).
    BadOffsets,
    /// The source I/O-IMC still has interactive transitions (it is not a
    /// CTMC yet — run the reduction/vanishing-elimination pipeline first).
    NotMarkovian {
        /// A state with a leftover interactive transition.
        state: u32,
    },
    /// [`Ctmc::rerate`] was called on a chain without rate forms (built
    /// from a non-parameterized model, or already re-rated).
    NotParametric,
    /// An iterative steady-state solve (a mean time to absorption's
    /// included) ended without a certified iterate on a chain too large
    /// for the exact rescue. Raised as a typed panic payload, see
    /// [`crate::steady`].
    Uncertified {
        /// States of the chain the solve ran on.
        states: usize,
        /// Max relative balance residual of the rejected iterate.
        residual: f64,
    },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "chain has no states"),
            Self::BadRate { state, rate } => write!(f, "state {state} has invalid rate {rate}"),
            Self::BadTarget { state, target } => {
                write!(f, "state {state} has transition to invalid state {target}")
            }
            Self::BadInitial(s) => write!(f, "initial state {s} out of range"),
            Self::BadOffsets => write!(f, "malformed CSR offset array"),
            Self::NotMarkovian { state } => write!(
                f,
                "state {state} still has interactive transitions; reduce the model first"
            ),
            Self::NotParametric => write!(f, "chain carries no rate forms to re-rate"),
            Self::Uncertified { states, residual } => write!(
                f,
                "the iterative steady-state solve of {states} states ended uncertified \
                 (balance residual {residual:e}), and the chain is too large for the exact rescue"
            ),
        }
    }
}

impl std::error::Error for CtmcError {}

/// A labelled continuous-time Markov chain in flat CSR storage.
///
/// All transitions live in one contiguous `(rate, target)` array; state
/// `s` owns the slice `off[s]..off[s + 1]`. Within a row, transitions are
/// sorted by target with parallel edges merged and self-loops dropped
/// (they do not affect the stochastic process). Exit rates are cached at
/// construction, so the uniformization and steady-state kernels never
/// re-sum a row. Solvers that consume the chain column-wise build the
/// transposed adjacency once via [`Ctmc::incoming`].
///
/// Labels are the same proposition bitmasks as in [`ioimc`]; Arcade uses
/// bit 0 for "system down".
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    /// CSR row offsets (`num_states + 1` entries).
    off: Vec<u32>,
    /// All transitions `(rate, target)`, grouped by source state.
    tr: Vec<(f64, u32)>,
    /// Cached per-state exit rates (row sums).
    exit: Vec<f64>,
    labels: Vec<StateLabel>,
    initial: u32,
    /// Parametric rate forms: the chain's own node table and one node id
    /// per entry of `tr` (see [`Ctmc::rerate`]). `None` for chains built
    /// from non-parameterized models.
    forms: Option<RateForms>,
}

/// The incoming (transposed) adjacency of a [`Ctmc`] in CSR form: state
/// `s` owns a contiguous `(rate, source)` slice. Built on demand by
/// [`Ctmc::incoming`] — the steady-state and first-passage solvers sweep
/// the balance equations column-wise and want the transpose contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct Incoming {
    off: Vec<u32>,
    tr: Vec<(f64, u32)>,
}

impl Incoming {
    /// Incoming transitions `(rate, source)` of `s`, ordered by source.
    pub fn row(&self, s: u32) -> &[(f64, u32)] {
        &self.tr[self.off[s as usize] as usize..self.off[s as usize + 1] as usize]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.off.len() - 1
    }
}

impl Ctmc {
    /// Creates a CTMC from outgoing transition lists.
    ///
    /// # Errors
    ///
    /// Returns a [`CtmcError`] for empty chains, invalid rates/targets or an
    /// out-of-range initial state.
    pub fn new(
        rows: Vec<Vec<(f64, u32)>>,
        labels: Vec<StateLabel>,
        initial: u32,
    ) -> Result<Self, CtmcError> {
        let n = rows.len();
        Self::check_shape(n, &labels, initial)?;
        let mut builder = CsrBuilder::new(n, rows.iter().map(Vec::len).sum());
        for (s, row) in rows.into_iter().enumerate() {
            builder.push_row(s as u32, n, row)?;
        }
        Ok(builder.finish(labels, initial))
    }

    /// Creates a CTMC directly from CSR arrays: `off` must have
    /// `labels.len() + 1` monotone entries starting at 0 and ending at
    /// `tr.len()`; `tr[off[s]..off[s + 1]]` are the outgoing transitions
    /// of `s`. Rows need not be sorted or merged — the constructor
    /// normalizes them (drops self-loops, merges parallel edges) without
    /// an intermediate per-state `Vec`.
    ///
    /// # Errors
    ///
    /// Returns a [`CtmcError`] for empty chains, malformed offsets,
    /// invalid rates/targets or an out-of-range initial state.
    pub fn from_csr(
        off: Vec<u32>,
        tr: Vec<(f64, u32)>,
        labels: Vec<StateLabel>,
        initial: u32,
    ) -> Result<Self, CtmcError> {
        let n = labels.len();
        Self::check_shape(n, &labels, initial)?;
        if off.len() != n + 1
            || off[0] != 0
            || off[n] as usize != tr.len()
            || off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(CtmcError::BadOffsets);
        }
        let mut builder = CsrBuilder::new(n, tr.len());
        for s in 0..n {
            let row = &tr[off[s] as usize..off[s + 1] as usize];
            builder.push_row(s as u32, n, row.iter().copied())?;
        }
        Ok(builder.finish(labels, initial))
    }

    fn check_shape(n: usize, labels: &[StateLabel], initial: u32) -> Result<(), CtmcError> {
        if n == 0 {
            return Err(CtmcError::Empty);
        }
        assert_eq!(labels.len(), n, "one label per state required");
        if initial as usize >= n {
            return Err(CtmcError::BadInitial(initial));
        }
        Ok(())
    }

    /// Converts a purely Markovian I/O-IMC (e.g. the output of
    /// `bisim::vanishing::eliminate_vanishing`) into a CTMC, reading the
    /// automaton's CSR transition arrays directly — no per-state `Vec`
    /// round trip.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotMarkovian`] if any interactive transition
    /// remains.
    pub fn from_ioimc(imc: &IoImc) -> Result<Self, CtmcError> {
        for s in 0..imc.num_states() as u32 {
            if !imc.interactive_from(s).is_empty() {
                return Err(CtmcError::NotMarkovian { state: s });
            }
        }
        let (off, tr) = imc.markovian_csr();
        let mut out = Self::from_csr(
            off.to_vec(),
            tr.to_vec(),
            imc.labels().to_vec(),
            imc.initial(),
        )?;
        if let Some(forms) = imc.forms() {
            // A normalized I/O-IMC already has rows sorted by target,
            // parallel edges merged and self-loops dropped, so the CSR
            // constructor's cleanup pass is an identity and the source
            // transition array (which the form ids parallel) survives
            // verbatim.
            debug_assert_eq!(out.tr, tr, "forms carried from a non-normalized automaton");
            out.forms = Some(forms.clone());
        }
        Ok(out)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Number of (merged) transitions.
    pub fn num_transitions(&self) -> usize {
        self.tr.len()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// Outgoing transitions of `s`: a contiguous `(rate, target)` slice,
    /// sorted by target, parallel edges merged, self-loops dropped.
    pub fn row(&self, s: u32) -> &[(f64, u32)] {
        &self.tr[self.off[s as usize] as usize..self.off[s as usize + 1] as usize]
    }

    /// The CSR row offsets (`num_states + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.off
    }

    /// The flat transition array (all rows back to back).
    pub fn transitions(&self) -> &[(f64, u32)] {
        &self.tr
    }

    /// Total exit rate of `s` (cached at construction).
    pub fn exit_rate(&self, s: u32) -> f64 {
        self.exit[s as usize]
    }

    /// The cached per-state exit rates.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// Maximum exit rate over all states (the uniformization constant base).
    pub fn max_exit_rate(&self) -> f64 {
        self.exit.iter().copied().fold(0.0, f64::max)
    }

    /// Builds the incoming (transposed) CSR adjacency: for each state the
    /// contiguous `(rate, source)` slice, ordered by source. One counting
    /// pass plus one scatter pass over the flat transition array.
    pub fn incoming(&self) -> Incoming {
        let n = self.num_states();
        let mut counts = vec![0u32; n + 1];
        for &(_, t) in &self.tr {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let off = counts.clone();
        let mut cursor = counts;
        let mut tr = vec![(0.0f64, 0u32); self.tr.len()];
        for s in 0..n as u32 {
            for &(r, t) in self.row(s) {
                let slot = cursor[t as usize] as usize;
                tr[slot] = (r, s);
                cursor[t as usize] += 1;
            }
        }
        Incoming { off, tr }
    }

    /// The label of `s`.
    pub fn label(&self, s: u32) -> StateLabel {
        self.labels[s as usize]
    }

    /// All labels.
    pub fn labels(&self) -> &[StateLabel] {
        &self.labels
    }

    /// States whose label has all bits of `mask` set.
    pub fn states_with_label(&self, mask: StateLabel) -> impl Iterator<Item = u32> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter(move |(_, &l)| l & mask == mask)
            .map(|(s, _)| s as u32)
    }

    /// Returns a copy where the given states are absorbing (all outgoing
    /// transitions removed). Used for first-passage ("unreliability")
    /// analysis. The copy is rebuilt as compact CSR in one pass.
    pub fn make_absorbing(&self, states: impl IntoIterator<Item = u32>) -> Self {
        let n = self.num_states();
        let mut clear = vec![false; n];
        for s in states {
            clear[s as usize] = true;
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut tr = Vec::with_capacity(self.tr.len());
        let mut exit = Vec::with_capacity(n);
        let mut forms = self
            .forms
            .as_ref()
            .map(|f| f.with_ids(Vec::with_capacity(f.ids.len())));
        off.push(0u32);
        for s in 0..n as u32 {
            if !clear[s as usize] {
                tr.extend_from_slice(self.row(s));
                exit.push(self.exit[s as usize]);
                if let (Some(out), Some(src)) = (&mut forms, &self.forms) {
                    let lo = self.off[s as usize] as usize;
                    let hi = self.off[s as usize + 1] as usize;
                    out.ids.extend_from_slice(&src.ids[lo..hi]);
                }
            } else {
                exit.push(0.0);
            }
            off.push(tr.len() as u32);
        }
        Self {
            off,
            tr,
            exit,
            labels: self.labels.clone(),
            initial: self.initial,
            forms,
        }
    }

    /// The parametric rate forms: the node table and one node id per
    /// entry of [`Ctmc::transitions`], or `None` for chains built from
    /// non-parameterized models.
    pub fn forms(&self) -> Option<&RateForms> {
        self.forms.as_ref()
    }

    /// Whether the chain carries rate forms and can be re-rated.
    pub fn is_parametric(&self) -> bool {
        self.forms.is_some()
    }

    /// Re-evaluates every transition rate from its form at the given
    /// parameter values, reusing the CSR layout verbatim: the offsets,
    /// targets, labels and initial state are copied, only the rates (and
    /// the cached exit rates, re-summed in row order) change. Each node of
    /// the form table is evaluated once, and the rates are gathered from
    /// the node values by id. The result is formless — evaluating the
    /// same chain at another point starts from the original again.
    ///
    /// Evaluating at the model's declared base values reproduces the
    /// aggregated rates and exit rates bitwise: every form records the
    /// exact sums the aggregation pipeline computed (see [`ioimc::form`]).
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotParametric`] if the chain has no forms,
    /// or [`CtmcError::BadRate`] naming the first transition, in row
    /// order, whose form evaluates to a non-positive or non-finite rate
    /// at the given point.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the largest parameter id
    /// referenced by a form.
    pub fn rerate(&self, values: &[f64]) -> Result<Self, CtmcError> {
        let forms = self.forms.as_ref().ok_or(CtmcError::NotParametric)?;
        let node_rates = forms.table.eval_all(values);
        let n = self.num_states();
        let mut tr = Vec::with_capacity(self.tr.len());
        let mut exit = Vec::with_capacity(n);
        for s in 0..n {
            let lo = self.off[s] as usize;
            let hi = self.off[s + 1] as usize;
            for (&id, &(_, target)) in forms.ids[lo..hi].iter().zip(&self.tr[lo..hi]) {
                let rate = node_rates[id as usize];
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(CtmcError::BadRate {
                        state: s as u32,
                        rate,
                    });
                }
                tr.push((rate, target));
            }
            exit.push(tr[lo..hi].iter().map(|&(r, _)| r).sum());
        }
        Ok(Self {
            off: self.off.clone(),
            tr,
            exit,
            labels: self.labels.clone(),
            initial: self.initial,
            forms: None,
        })
    }

    /// The initial distribution as a dense vector (unit mass on
    /// [`Ctmc::initial`]).
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.num_states()];
        d[self.initial as usize] = 1.0;
        d
    }

    /// Breadth-first locality ordering from a set of root states: states
    /// are renumbered in BFS visit order (roots in the order given, ties
    /// within a frontier by outgoing-adjacency order), so every state at
    /// BFS distance `l` occupies a contiguous index range ("level") and
    /// all out-neighbors of levels `0..=l` lie within levels `0..=l + 1`
    /// — the property the windowed transient engine relies on to keep
    /// its active row window a contiguous, cache-resident prefix. States
    /// unreachable from the roots are appended after the last level in
    /// ascending original order (they can never carry probability mass
    /// flowing out of the roots).
    ///
    /// # Panics
    ///
    /// Panics if a root is out of range or `roots` is empty.
    pub fn bfs_order(&self, roots: impl IntoIterator<Item = u32>) -> BfsOrder {
        let n = self.num_states();
        let mut perm = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut level_off = vec![0u32];
        for r in roots {
            assert!((r as usize) < n, "BFS root {r} out of range");
            if !seen[r as usize] {
                seen[r as usize] = true;
                perm.push(r);
            }
        }
        assert!(!perm.is_empty(), "BFS needs at least one root");
        level_off.push(perm.len() as u32);
        let mut frontier_start = 0usize;
        while frontier_start < perm.len() {
            let frontier_end = perm.len();
            for k in frontier_start..frontier_end {
                for &(_, t) in self.row(perm[k]) {
                    if !seen[t as usize] {
                        seen[t as usize] = true;
                        perm.push(t);
                    }
                }
            }
            if perm.len() > frontier_end {
                level_off.push(perm.len() as u32);
            }
            frontier_start = frontier_end;
        }
        let reachable = perm.len();
        for s in 0..n as u32 {
            if !seen[s as usize] {
                perm.push(s);
            }
        }
        BfsOrder {
            perm,
            level_off,
            reachable,
        }
    }
}

/// A breadth-first state renumbering of a [`Ctmc`] (see
/// [`Ctmc::bfs_order`]): `perm[new] = old`, with BFS level `l` occupying
/// the contiguous new-index range `level_off[l]..level_off[l + 1]` and
/// unreachable states packed after index `reachable`.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsOrder {
    /// New index → original state id; roots first, then level by level,
    /// then the unreachable states.
    pub perm: Vec<u32>,
    /// Level boundaries in new indices (`levels + 1` entries, starting at
    /// 0 and ending at [`BfsOrder::reachable`]).
    pub level_off: Vec<u32>,
    /// Number of states reachable from the roots; `perm[reachable..]` are
    /// the unreachable states.
    pub reachable: usize,
}

impl BfsOrder {
    /// Number of BFS levels (root level included).
    pub fn num_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// The inverse permutation: original state id → new index.
    pub fn inverse(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        inv
    }
}

/// Incremental CSR assembly: rows arrive in state order, are validated,
/// cleaned (self-loops dropped, parallel edges merged, sorted by target)
/// in a reused scratch buffer, and appended to the flat arrays.
struct CsrBuilder {
    off: Vec<u32>,
    tr: Vec<(f64, u32)>,
    exit: Vec<f64>,
    scratch: Vec<(f64, u32)>,
}

impl CsrBuilder {
    fn new(n: usize, transitions_hint: usize) -> Self {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        Self {
            off,
            tr: Vec::with_capacity(transitions_hint),
            exit: Vec::with_capacity(n),
            scratch: Vec::new(),
        }
    }

    fn push_row(
        &mut self,
        s: u32,
        n: usize,
        row: impl IntoIterator<Item = (f64, u32)>,
    ) -> Result<(), CtmcError> {
        self.scratch.clear();
        for (r, t) in row {
            if !(r.is_finite() && r > 0.0) {
                return Err(CtmcError::BadRate { state: s, rate: r });
            }
            if t as usize >= n {
                return Err(CtmcError::BadTarget {
                    state: s,
                    target: t,
                });
            }
            if t != s {
                self.scratch.push((r, t));
            }
        }
        self.scratch.sort_unstable_by_key(|a| a.1);
        let row_start = self.tr.len();
        for &(r, t) in &self.scratch {
            if self.tr.len() > row_start {
                let last = self.tr.last_mut().expect("row is non-empty");
                if last.1 == t {
                    last.0 += r;
                    continue;
                }
            }
            self.tr.push((r, t));
        }
        // Cache the exit rate as the sum over the *merged* row, matching
        // what summing `row(s)` on demand would give bit for bit.
        let exit = self.tr[row_start..].iter().map(|&(r, _)| r).sum();
        self.exit.push(exit);
        self.off.push(self.tr.len() as u32);
        Ok(())
    }

    fn finish(self, labels: Vec<StateLabel>, initial: u32) -> Ctmc {
        Ctmc {
            off: self.off,
            tr: self.tr,
            exit: self.exit,
            labels,
            initial,
            forms: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Ctmc::new(vec![], vec![], 0), Err(CtmcError::Empty));
        assert!(matches!(
            Ctmc::new(vec![vec![(0.0, 0)]], vec![0], 0),
            Err(CtmcError::BadRate { .. })
        ));
        assert!(matches!(
            Ctmc::new(vec![vec![(1.0, 5)]], vec![0], 0),
            Err(CtmcError::BadTarget { .. })
        ));
        assert_eq!(
            Ctmc::new(vec![vec![]], vec![0], 3),
            Err(CtmcError::BadInitial(3))
        );
    }

    #[test]
    fn drops_self_loops_and_merges_parallel() {
        let c = Ctmc::new(
            vec![vec![(1.0, 0), (2.0, 1), (3.0, 1)], vec![]],
            vec![0, 0],
            0,
        )
        .unwrap();
        assert_eq!(c.row(0), &[(5.0, 1)]);
        assert!((c.exit_rate(0) - 5.0).abs() < 1e-12);
        assert_eq!(c.num_transitions(), 1);
    }

    #[test]
    fn csr_layout_is_flat_and_offsets_cover_rows() {
        let c = Ctmc::new(
            vec![vec![(1.0, 2), (0.5, 1)], vec![(2.0, 0)], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        assert_eq!(c.offsets(), &[0, 2, 3, 3]);
        // rows are sorted by target within the flat array
        assert_eq!(c.transitions(), &[(0.5, 1), (1.0, 2), (2.0, 0)]);
        assert_eq!(c.row(0), &[(0.5, 1), (1.0, 2)]);
        assert_eq!(c.row(2), &[] as &[(f64, u32)]);
        assert_eq!(c.exit_rates(), &[1.5, 2.0, 0.0]);
    }

    #[test]
    fn from_csr_matches_from_rows() {
        // unsorted, with a self-loop and a parallel edge
        let rows = vec![vec![(1.0, 2), (2.0, 1), (0.5, 0), (3.0, 1)], vec![], vec![]];
        let from_rows = Ctmc::new(rows, vec![0, 0, 1], 0).unwrap();
        let off = vec![0u32, 4, 4, 4];
        let tr = vec![(1.0, 2), (2.0, 1), (0.5, 0), (3.0, 1)];
        let from_csr = Ctmc::from_csr(off, tr, vec![0, 0, 1], 0).unwrap();
        assert_eq!(from_rows, from_csr);
        assert_eq!(from_csr.row(0), &[(5.0, 1), (1.0, 2)]);
    }

    #[test]
    fn from_csr_rejects_malformed_offsets() {
        let tr = vec![(1.0, 1)];
        // too short, wrong tail, non-monotone
        for off in [vec![0u32, 1], vec![0, 1, 2], vec![0, 1, 0]] {
            assert!(matches!(
                Ctmc::from_csr(off, tr.clone(), vec![0, 0, 0], 0),
                Err(CtmcError::BadOffsets)
            ));
        }
    }

    #[test]
    fn incoming_is_the_exact_transpose() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (2.0, 2)], vec![(0.5, 2)], vec![(3.0, 0)]],
            vec![0, 0, 0],
            0,
        )
        .unwrap();
        let inc = c.incoming();
        assert_eq!(inc.num_states(), 3);
        assert_eq!(inc.row(0), &[(3.0, 2)]);
        assert_eq!(inc.row(1), &[(1.0, 0)]);
        assert_eq!(inc.row(2), &[(2.0, 0), (0.5, 1)]);
    }

    #[test]
    fn from_ioimc_requires_markovian_only() {
        let mut ab = ioimc::Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_outputs([a]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, a, s1);
        let imc = b.build().unwrap();
        assert!(matches!(
            Ctmc::from_ioimc(&imc),
            Err(CtmcError::NotMarkovian { state: 0 })
        ));
    }

    #[test]
    fn from_ioimc_copies_structure() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1);
        b.markovian(s0, 0.25, s1).markovian(s1, 4.0, s0);
        let imc = b.build().unwrap();
        let c = Ctmc::from_ioimc(&imc).unwrap();
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.label(1), 1);
        assert_eq!(c.states_with_label(1).collect::<Vec<_>>(), vec![1]);
        assert!((c.max_exit_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rerate_reuses_layout_and_reevaluates_rates() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1);
        b.markovian_formed(s0, 0.5, s1, ioimc::Leaf::scaled(0, 1.0));
        b.markovian(s1, 4.0, s0);
        let imc = b.build().unwrap();
        let c = Ctmc::from_ioimc(&imc).unwrap();
        assert!(c.is_parametric());
        assert_eq!(c.forms().map(|f| f.ids.len()), Some(2));
        // At the base value the re-rated chain is bitwise the original.
        let base = c.rerate(&[0.5]).unwrap();
        assert_eq!(base.transitions(), c.transitions());
        assert_eq!(base.exit_rates(), c.exit_rates());
        assert!(!base.is_parametric());
        // At another point only the parameterized rate moves.
        let moved = c.rerate(&[2.0]).unwrap();
        assert_eq!(moved.offsets(), c.offsets());
        assert_eq!(moved.row(0), &[(2.0, 1)]);
        assert_eq!(moved.row(1), &[(4.0, 0)]);
        assert_eq!(moved.exit_rates(), &[2.0, 4.0]);
        assert_eq!(moved.initial(), c.initial());
        assert_eq!(moved.labels(), c.labels());
        // Degenerate points and formless chains are rejected.
        assert!(matches!(
            c.rerate(&[0.0]),
            Err(CtmcError::BadRate { state: 0, .. })
        ));
        assert_eq!(base.rerate(&[1.0]), Err(CtmcError::NotParametric));
    }

    #[test]
    fn make_absorbing_keeps_forms_aligned() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1);
        b.markovian_formed(s0, 0.25, s1, ioimc::Leaf::scaled(0, 0.5))
            .markovian(s1, 3.0, s0);
        let imc = b.build().unwrap();
        let c = Ctmc::from_ioimc(&imc).unwrap();
        let absorbing = c.make_absorbing([s1]);
        assert!(absorbing.is_parametric());
        let moved = absorbing.rerate(&[4.0]).unwrap();
        assert_eq!(moved.row(0), &[(2.0, 1)]);
        assert!(moved.row(1).is_empty());
    }

    #[test]
    fn make_absorbing_clears_rows() {
        let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 1], 0).unwrap();
        let a = c.make_absorbing([1]);
        assert!(a.row(1).is_empty());
        assert_eq!(a.row(0), c.row(0));
        assert_eq!(a.exit_rate(1), 0.0);
        assert_eq!(a.num_transitions(), 1);
    }

    #[test]
    fn initial_distribution_is_unit_mass() {
        let c = Ctmc::new(vec![vec![(1.0, 1)], vec![]], vec![0, 0], 1).unwrap();
        assert_eq!(c.initial_distribution(), vec![0.0, 1.0]);
    }

    #[test]
    fn bfs_order_levels_are_distances() {
        // 0 -> 1 -> 2 -> 3, plus a back edge 3 -> 0 and an unreachable 4.
        let c = Ctmc::new(
            vec![
                vec![(1.0, 1)],
                vec![(1.0, 2)],
                vec![(1.0, 3)],
                vec![(1.0, 0)],
                vec![(1.0, 0)],
            ],
            vec![0; 5],
            0,
        )
        .unwrap();
        let order = c.bfs_order([0]);
        assert_eq!(order.perm, vec![0, 1, 2, 3, 4]);
        assert_eq!(order.level_off, vec![0, 1, 2, 3, 4]);
        assert_eq!(order.reachable, 4);
        assert_eq!(order.num_levels(), 4);
        assert_eq!(order.inverse(), vec![0, 1, 2, 3, 4]);
    }

    /// The level property the windowed engine needs: every out-neighbor
    /// of a state in level `l` sits in a level `<= l + 1`.
    #[test]
    fn bfs_order_neighbors_stay_within_one_level() {
        // A denser chain: star + ring + some shortcuts.
        let n = 23usize;
        let rows: Vec<Vec<(f64, u32)>> = (0..n)
            .map(|i| {
                let mut row = vec![(1.0, ((i + 1) % n) as u32)];
                if i % 3 == 0 {
                    row.push((0.5, ((i + 7) % n) as u32));
                }
                if i != 0 {
                    row.push((0.2, 0));
                }
                row
            })
            .collect();
        let c = Ctmc::new(rows, vec![0; n], 0).unwrap();
        let order = c.bfs_order([0]);
        assert_eq!(order.reachable, n);
        let inv = order.inverse();
        let level_of = |new: usize| -> usize {
            order
                .level_off
                .partition_point(|&o| o as usize <= new)
                .saturating_sub(1)
        };
        for s in 0..n as u32 {
            let ls = level_of(inv[s as usize] as usize);
            for &(_, t) in c.row(s) {
                let lt = level_of(inv[t as usize] as usize);
                assert!(lt <= ls + 1, "{s}(level {ls}) -> {t}(level {lt})");
            }
        }
    }

    #[test]
    fn bfs_order_multi_root_and_unreachable_tail() {
        let c = Ctmc::new(
            vec![vec![(1.0, 2)], vec![(1.0, 2)], vec![], vec![(1.0, 0)]],
            vec![0; 4],
            0,
        )
        .unwrap();
        let order = c.bfs_order([1, 0]);
        // Roots in the order given, then their joint frontier, then the
        // unreachable state 3.
        assert_eq!(order.perm, vec![1, 0, 2, 3]);
        assert_eq!(order.level_off, vec![0, 2, 3]);
        assert_eq!(order.reachable, 3);
    }
}
