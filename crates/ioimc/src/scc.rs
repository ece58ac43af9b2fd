//! Collapsing cycles of internal transitions.
//!
//! States on a cycle of internal (tau) transitions are weakly bisimilar:
//! each can silently reach every other in zero time. Collapsing these
//! strongly-connected components first makes the inert-tau graph acyclic,
//! which the signature-refinement algorithm in the `bisim` crate relies on,
//! and removes divergence (tau self-loops disappear).

use crate::automaton::{IoImc, StateId};

/// Computes the SCCs of the graph restricted to internal-action transitions
/// (iterative Tarjan) and merges each SCC into a single state.
///
/// Transitions are re-targeted to SCC representatives; internal self-loops
/// created by the merge disappear (they are inert), and Markovian
/// self-loops are cancelled by normalization. Divergence is treated
/// *insensitively*, as in branching bisimulation: a state on a tau cycle
/// is equivalent to the same state without the cycle, so cross-SCC
/// Markovian transitions survive the merge. The result is normalized; when
/// anything merges it is also reachability-restricted (when nothing merges
/// the input comes back unchanged — callers restrict beforehand).
pub fn collapse_tau_sccs(imc: &IoImc) -> IoImc {
    let n = imc.num_states();
    // Tau adjacency in flat CSR form (counting pass + fill pass).
    let is_tau = |a| imc.internals().binary_search(&a).is_ok();
    let mut tau_off: Vec<u32> = vec![0; n + 1];
    for s in 0..n as u32 {
        let taus = imc.interactive_from(s).iter().filter(|&&(a, _)| is_tau(a));
        tau_off[s as usize + 1] = tau_off[s as usize] + taus.count() as u32;
    }
    let mut tau_next: Vec<StateId> = vec![0; tau_off[n] as usize];
    let mut tau_self_loop = false;
    {
        let mut cursor: Vec<u32> = tau_off[..n].to_vec();
        for s in 0..n as u32 {
            for &(a, t) in imc.interactive_from(s) {
                if is_tau(a) {
                    tau_self_loop |= t == s;
                    tau_next[cursor[s as usize] as usize] = t;
                    cursor[s as usize] += 1;
                }
            }
        }
    }

    let comp = tarjan(n, &tau_off, &tau_next);
    let num_comp = comp.iter().copied().max().map_or(0, |m| m + 1) as usize;

    // Every SCC a singleton and no divergent self-loop: nothing merges and
    // nothing is dropped, so the collapse is a renumbering of an automaton
    // the caller will renumber again anyway. Skip both rebuilds (the
    // component permutation and the internal reachability restriction) and
    // hand back the input; normalize mirrors what the rebuild path applies
    // and is cheap on already-normalized input.
    if num_comp == n && !tau_self_loop {
        let mut out = imc.clone();
        out.normalize();
        return out;
    }

    let mut interactive: Vec<Vec<(crate::ActionId, StateId)>> = vec![Vec::new(); num_comp];
    let mut markovian: Vec<Vec<(f64, StateId)>> = vec![Vec::new(); num_comp];
    let mut form_rows: Vec<Vec<crate::form::RateForm>> = if imc.forms().is_some() {
        vec![Vec::new(); num_comp]
    } else {
        Vec::new()
    };
    let mut labels: Vec<u64> = vec![0; num_comp];
    for s in 0..n as u32 {
        let c = comp[s as usize];
        labels[c as usize] |= imc.label(s);
        for &(a, t) in imc.interactive_from(s) {
            let tc = comp[t as usize];
            let is_tau = imc.internals().binary_search(&a).is_ok();
            if is_tau && tc == c {
                continue; // inert within the merged component
            }
            interactive[c as usize].push((a, tc));
        }
        for &(r, t) in imc.markovian_from(s) {
            markovian[c as usize].push((r, comp[t as usize]));
        }
        if let Some(f) = imc.markovian_forms_from(s) {
            form_rows[c as usize].extend_from_slice(f);
        }
    }

    let mut out = IoImc::from_parts_unchecked(
        comp[imc.initial() as usize],
        imc.inputs().to_vec(),
        imc.outputs().to_vec(),
        imc.internals().to_vec(),
        interactive,
        markovian,
        labels,
    );
    if imc.forms().is_some() {
        out.attach_forms(form_rows.into_iter().flatten().collect());
    }
    out.normalize();
    crate::reach::restrict_reachable(&out)
}

/// Iterative Tarjan SCC over a CSR adjacency (`next[next_off[v]..next_off[v+1]]`
/// are `v`'s successors); returns the component id of each node, numbered so
/// that every edge goes from a higher or equal component id to a lower one
/// (reverse topological order of discovery).
fn tarjan(n: usize, next_off: &[u32], next: &[StateId]) -> Vec<StateId> {
    let succ = |v: u32| &next[next_off[v as usize] as usize..next_off[v as usize + 1] as usize];
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp = vec![UNSEEN; n];
    let mut counter = 0u32;
    let mut num_comp = 0u32;

    // frame: (node, next child index)
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = counter;
        low[root as usize] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci < succ(v).len() {
                let w = succ(v)[*ci];
                *ci += 1;
                if index[w as usize] == UNSEEN {
                    index[w as usize] = counter;
                    low[w as usize] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = num_comp;
                        if w == v {
                            break;
                        }
                    }
                    num_comp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::Alphabet;

    #[test]
    fn collapses_tau_cycle() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let out = ab.intern("done");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]).set_outputs([out]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.interactive(s0, tau, s1)
            .interactive(s1, tau, s0)
            .interactive(s1, out, s2);
        let imc = b.build().unwrap();
        let c = collapse_tau_sccs(&imc);
        assert_eq!(c.num_states(), 2);
        // the remaining transition is done!
        assert_eq!(c.num_interactive(), 1);
    }

    #[test]
    fn tau_self_loop_removed_rate_survives() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, tau, s0) // divergence, treated insensitively
            .markovian(s0, 5.0, s1);
        let imc = b.build().unwrap();
        let c = collapse_tau_sccs(&imc);
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_interactive(), 0);
        assert_eq!(c.num_markovian(), 1);
    }

    #[test]
    fn keeps_acyclic_taus() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, tau, s1);
        let imc = b.build().unwrap();
        let c = collapse_tau_sccs(&imc);
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_interactive(), 1);
    }

    #[test]
    fn merges_labels() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_labeled_state(0b01);
        let s1 = b.add_labeled_state(0b10);
        b.interactive(s0, tau, s1).interactive(s1, tau, s0);
        let imc = b.build().unwrap();
        let c = collapse_tau_sccs(&imc);
        assert_eq!(c.num_states(), 1);
        assert_eq!(c.label(0), 0b11);
    }
}
