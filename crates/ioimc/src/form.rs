//! Symbolic rate forms: the metadata that makes a reduced model
//! re-ratable.
//!
//! A parametric build tags every Markovian transition with a *form*: its
//! numeric rate as a function of the parameter vector `θ`. Forms are
//! hash-consed per automaton. Each automaton (and each CTMC) owns one
//! [`FormTable`] of distinct nodes and stores one [`FormId`] per
//! Markovian transition, parallel to its `(rate, target)` array
//! ([`RateForms`]). A node is either
//!
//! * a [`Leaf`]: `coeff · θ_pid`, or the constant `coeff`, or
//! * a `Sum` of two earlier nodes of the same table.
//!
//! Interning makes each distinct node exist once, so a table stays a few
//! dozen nodes long even when a million transitions point into it.
//!
//! The aggregation pipeline never *reads* forms — all numeric rate
//! arithmetic is exactly the non-parametric code path — it only
//! *carries* them. Passes that permute or drop transitions copy ids.
//! Wherever two transitions merge and the pipeline computes
//! `acc + next`, it interns `Sum(acc, next)` for the merged transition.
//! The final quotient CTMC therefore knows each lumped rate as an
//! explicit function of the parameter vector, and can be re-rated at any
//! point without re-running composition or bisimulation.
//!
//! # Exact at the base point
//!
//! A leaf evaluates to the product the block builder computed (`raw ·
//! mult`, with the declared base value as `θ_pid`), and a `Sum`
//! evaluates to the sum of its children, the same addition the pipeline
//! performed (IEEE addition commutes, so the operand order inside one
//! sum does not matter; the grouping of a chain of sums does, and the
//! nodes record it). By induction, evaluating a table at the base values
//! reproduces every aggregated rate bitwise.
//!
//! # Why one table per automaton
//!
//! Tables are per automaton, never shared: a pass that builds a new
//! automaton copies or imports its inputs' tables in a fixed order (a
//! composition imports its left factor first). Node numbering is then a
//! deterministic function of the pipeline, so automata and chains built
//! at different thread counts compare equal, forms included. A table
//! shared across worker threads would number its nodes in race order.

use crate::automaton::StateId;
use crate::fxhash::FxHashMap;

/// The pseudo-parameter id of a constant leaf: `Leaf { pid: CONST_PARAM,
/// coeff }` evaluates to `coeff` regardless of the parameter values.
pub const CONST_PARAM: u32 = u32::MAX;

/// The index of a node in a [`FormTable`].
pub type FormId = u32;

/// A leaf form: `coeff · θ_pid`, or the constant `coeff` when `pid` is
/// [`CONST_PARAM`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leaf {
    /// The parameter id, or [`CONST_PARAM`] for a constant.
    pub pid: u32,
    /// The coefficient (the constant's value for a constant leaf).
    pub coeff: f64,
}

impl Leaf {
    /// A leaf with no parameter dependence: evaluates to `value`.
    pub fn constant(value: f64) -> Self {
        Self {
            pid: CONST_PARAM,
            coeff: value,
        }
    }

    /// The single-parameter leaf `coeff · θ_pid`.
    pub fn scaled(pid: u32, coeff: f64) -> Self {
        Self { pid, coeff }
    }

    fn eval(self, values: &[f64]) -> f64 {
        if self.pid == CONST_PARAM {
            self.coeff
        } else {
            self.coeff * values[self.pid as usize]
        }
    }
}

/// One node of a [`FormTable`]. A leaf keeps its coefficient as bits, so
/// that two leaves share a node only if they evaluate alike everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// A [`Leaf`]: its parameter id and the bits of its coefficient.
    Leaf(u32, u64),
    /// The sum of two earlier nodes of the same table.
    Sum(FormId, FormId),
}

/// The distinct form nodes of one automaton, each stored once. A `Sum`
/// only refers to earlier nodes, so evaluating the nodes in order sees
/// every child before its parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FormTable {
    nodes: Vec<Node>,
    index: FxHashMap<Node, FormId>,
}

impl FormTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The id of `leaf`, added if the table does not hold it yet.
    pub fn leaf(&mut self, leaf: Leaf) -> FormId {
        self.intern(Node::Leaf(leaf.pid, leaf.coeff.to_bits()))
    }

    /// The id of the sum of nodes `a` and `b`, added if the table does
    /// not hold it yet. IEEE addition commutes, so `Sum(a, b)` and
    /// `Sum(b, a)` evaluate alike at every point and share one node.
    pub fn sum(&mut self, a: FormId, b: FormId) -> FormId {
        debug_assert!(
            (a.max(b) as usize) < self.nodes.len(),
            "sum of unknown nodes"
        );
        self.intern(Node::Sum(a.min(b), a.max(b)))
    }

    fn intern(&mut self, node: Node) -> FormId {
        let next = FormId::try_from(self.nodes.len()).expect("more than u32::MAX form nodes");
        let id = *self.index.entry(node).or_insert(next);
        if id == next {
            self.nodes.push(node);
        }
        id
    }

    /// Interns every node of `src`, in `src`'s order, and returns the map
    /// from `src`'s ids to this table's.
    pub fn import(&mut self, src: &FormTable) -> Vec<FormId> {
        let mut map: Vec<FormId> = Vec::with_capacity(src.len());
        for &node in &src.nodes {
            map.push(match node {
                Node::Leaf(..) => self.intern(node),
                Node::Sum(a, b) => self.sum(map[a as usize], map[b as usize]),
            });
        }
        map
    }

    /// Evaluates every node at the parameter vector `values` (indexed by
    /// pid), each node once: entry `i` of the result is node `i`'s value.
    ///
    /// # Panics
    ///
    /// Panics if a leaf references a pid outside `values`.
    pub fn eval_all(&self, values: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::with_capacity(self.nodes.len());
        for &node in &self.nodes {
            let v = match node {
                Node::Leaf(pid, bits) => Leaf {
                    pid,
                    coeff: f64::from_bits(bits),
                }
                .eval(values),
                Node::Sum(a, b) => out[a as usize] + out[b as usize],
            };
            out.push(v);
        }
        out
    }
}

/// The rate forms of one automaton or chain: its node table and one node
/// id per Markovian transition, in transition storage order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateForms {
    /// The distinct nodes.
    pub table: FormTable,
    /// `ids[i]` is the form of transition `i`.
    pub ids: Vec<FormId>,
}

impl RateForms {
    /// Forms over the same table with new `ids`: what a pass that drops
    /// or reorders transitions attaches to its output.
    pub fn with_ids(&self, ids: Vec<FormId>) -> Self {
        Self {
            table: self.table.clone(),
            ids,
        }
    }

    /// Constant forms for `transitions`: each rate becomes a constant
    /// leaf, in order.
    pub(crate) fn constants(transitions: &[(f64, StateId)]) -> Self {
        let mut table = FormTable::new();
        let ids = transitions
            .iter()
            .map(|&(r, _)| table.leaf(Leaf::constant(r)))
            .collect();
        Self { table, ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_stores_each_node_once() {
        let mut t = FormTable::new();
        let a = t.leaf(Leaf::scaled(0, 2.0));
        let c = t.leaf(Leaf::constant(1.5));
        assert_eq!(t.leaf(Leaf::scaled(0, 2.0)), a);
        assert_ne!(t.leaf(Leaf::scaled(1, 2.0)), a);
        let s = t.sum(a, c);
        assert_eq!(t.sum(c, a), s, "sums commute");
        assert_eq!(t.len(), 4);
        assert_eq!(t.nodes[s as usize], Node::Sum(a, c));
    }

    #[test]
    fn sums_evaluate_as_grouped() {
        let mut t = FormTable::new();
        let a = t.leaf(Leaf::scaled(0, 0.1));
        let b = t.leaf(Leaf::scaled(0, 0.2));
        let c = t.leaf(Leaf::constant(0.3));
        let left = t.sum(a, b);
        let left = t.sum(left, c);
        let right = t.sum(b, c);
        let right = t.sum(a, right);
        let v = t.eval_all(&[1.0]);
        assert_eq!(v[left as usize].to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
        assert_eq!(
            v[right as usize].to_bits(),
            (0.1 + (0.2 + 0.3f64)).to_bits()
        );
        assert_ne!(v[left as usize], v[right as usize]);
    }

    #[test]
    fn leaves_reproduce_their_products() {
        let mut t = FormTable::new();
        let c = t.leaf(Leaf::constant(0.125));
        let s = t.leaf(Leaf::scaled(0, 0.3));
        let v = t.eval_all(&[0.007]);
        assert_eq!(v[c as usize].to_bits(), 0.125f64.to_bits());
        assert_eq!(v[s as usize].to_bits(), (0.007f64 * 0.3).to_bits());
    }

    #[test]
    fn import_keeps_structure_and_dedups() {
        let mut src = FormTable::new();
        let a = src.leaf(Leaf::scaled(1, 1.0));
        let b = src.leaf(Leaf::constant(4.0));
        let s = src.sum(a, b);
        let mut dst = FormTable::new();
        let b2 = dst.leaf(Leaf::constant(4.0));
        let map = dst.import(&src);
        assert_eq!(map[b as usize], b2);
        assert_eq!(dst.len(), 3);
        let at = [0.0, 0.5];
        assert_eq!(
            dst.eval_all(&at)[map[s as usize] as usize],
            src.eval_all(&at)[s as usize]
        );
        assert_eq!(dst.import(&src), map, "importing again adds nothing");
    }
}
