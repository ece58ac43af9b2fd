//! Reachability restriction.

use crate::automaton::{IoImc, StateId};

/// Restricts `imc` to the states reachable from the initial state and
/// renumbers them in BFS discovery order (the initial state becomes 0).
///
/// Transformation passes such as the maximal-progress cut or input pruning
/// can disconnect parts of the state space; call this afterwards to keep
/// state counts honest.
pub fn restrict_reachable(imc: &IoImc) -> IoImc {
    let n = imc.num_states();
    let mut map: Vec<Option<StateId>> = vec![None; n];
    let mut order: Vec<StateId> = Vec::new();
    map[imc.initial() as usize] = Some(0);
    order.push(imc.initial());
    let mut next = 0usize;
    while next < order.len() {
        let s = order[next];
        next += 1;
        for &(_, t) in imc.interactive_from(s) {
            if map[t as usize].is_none() {
                map[t as usize] = Some(order.len() as StateId);
                order.push(t);
            }
        }
        for &(_, t) in imc.markovian_from(s) {
            if map[t as usize].is_none() {
                map[t as usize] = Some(order.len() as StateId);
                order.push(t);
            }
        }
    }
    // Composition products and quotients are typically emitted in BFS
    // order already, making the restriction a renumbering no-op; detect
    // that and clone the CSR arrays instead of remapping every transition.
    // (Normalize still runs — it is what the rebuild path applies on top
    // of the identity remap, and it is cheap on already-normalized input.)
    if order.len() == n && order.iter().enumerate().all(|(i, &s)| i as StateId == s) {
        let mut out = imc.clone();
        out.normalize();
        return out;
    }
    // Emit the renumbered transitions straight into CSR form: the states
    // are visited in their new order, so each state's slice is contiguous.
    let remap = |t: StateId| map[t as usize].expect("target of reachable state is reachable");
    let mut inter_off: Vec<u32> = Vec::with_capacity(order.len() + 1);
    let mut mark_off: Vec<u32> = Vec::with_capacity(order.len() + 1);
    let mut inter: Vec<(crate::ActionId, StateId)> = Vec::new();
    let mut mark: Vec<(f64, StateId)> = Vec::new();
    let mut forms: Vec<crate::form::RateForm> = Vec::new();
    inter_off.push(0);
    mark_off.push(0);
    for &s in &order {
        inter.extend(imc.interactive_from(s).iter().map(|&(a, t)| (a, remap(t))));
        mark.extend(imc.markovian_from(s).iter().map(|&(r, t)| (r, remap(t))));
        if let Some(f) = imc.markovian_forms_from(s) {
            forms.extend_from_slice(f);
        }
        inter_off.push(u32::try_from(inter.len()).expect("more than u32::MAX transitions"));
        mark_off.push(u32::try_from(mark.len()).expect("more than u32::MAX transitions"));
    }
    let labels = order.iter().map(|&s| imc.label(s)).collect();
    let mut out = IoImc::from_csr_unchecked(
        0,
        imc.inputs().to_vec(),
        imc.outputs().to_vec(),
        imc.internals().to_vec(),
        inter_off,
        inter,
        mark_off,
        mark,
        labels,
    );
    if imc.forms().is_some() {
        out.attach_forms(forms);
    }
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::Alphabet;

    #[test]
    fn drops_unreachable_states() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut bld = IoImcBuilder::new();
        bld.set_outputs([a]);
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        let s2 = bld.add_labeled_state(7); // unreachable
        bld.interactive(s0, a, s1).markovian(s2, 1.0, s0);
        let imc = bld.build().unwrap();
        let r = restrict_reachable(&imc);
        assert_eq!(r.num_states(), 2);
        assert_eq!(r.initial(), 0);
        assert!(r.labels().iter().all(|&l| l != 7));
    }

    #[test]
    fn identity_on_fully_reachable() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut bld = IoImcBuilder::new();
        bld.set_outputs([a]);
        let s0 = bld.add_state();
        let s1 = bld.add_state();
        bld.interactive(s0, a, s1).markovian(s1, 1.0, s0);
        let imc = bld.build().unwrap();
        let r = restrict_reachable(&imc);
        assert_eq!(r, imc);
    }
}
