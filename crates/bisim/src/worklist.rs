//! Worklist/splitter-driven partition refinement.
//!
//! The legacy refinement loops in [`crate::strong`] and
//! [`crate::branching`] recompute every state's signature on every round.
//! This module implements the same fixpoint with a dirty-set discipline in
//! the spirit of Paige–Tarjan/Valmari splitter refinement, adapted to
//! signature-based (Blom–Orzan) refinement:
//!
//! * **Only touched states are re-signed.** When a block splits, exactly
//!   the states whose signature *could* have changed are marked dirty for
//!   the next round: the states that moved into a fresh block, plus every
//!   predecessor (interactive or Markovian, via
//!   [`ioimc::IoImc::incoming`]) of a moved state. For branching
//!   refinement the dirty set is additionally closed under internal-action
//!   predecessor edges, because a branching signature embeds the
//!   signatures of its inert tau successors.
//! * **Retained-id splits.** When a block splits, the sub-group containing
//!   the block's first member (ascending state id) keeps the block's id;
//!   only the other sub-groups get fresh ids. A signature entry referencing
//!   block `B` therefore stays valid for every clean state: had any of its
//!   successors left the retained group, the state would be dirty.
//! * **Hash-consed signatures.** Signatures are interned in a
//!   [`SigTable`], so "same signature?" during a split is an integer
//!   compare instead of hashing a `Vec<SigEntry>`.
//!
//! # Determinism discipline
//!
//! The refinement is bitwise identical to the legacy loop:
//!
//! * dirty states are re-signed and interned in a fixed order (ascending
//!   state id for strong, the precomputed tau-topological order for
//!   branching);
//! * touched blocks are split in ascending block id, members grouped by
//!   first occurrence in ascending state order, fresh block ids allocated
//!   in that order;
//! * at the fixpoint, blocks are renumbered canonically by first
//!   occurrence in ascending state order and signatures are materialized
//!   against that numbering — which reproduces, entry for entry, what the
//!   legacy recompute-all loop returns for the same initial partition.
//!
//! Rounds run on the calling thread. A round is milliseconds of
//! hash-consed work, and fanning its signatures out over worker threads
//! cost more in starting and joining workers than it saved (whole
//! aggregations ran at 0.79–0.84× at 2 threads). Parallelism sits above
//! whole aggregations instead.

use std::time::Instant;

use ioimc::{IoImc, StateId};

use crate::branching::{branching_signature_into, conservative_signature_into, tau_graph};
use crate::partition::Partition;
use crate::signature::{canonicalize, SigEntry, SigTable, Signature};
use crate::strong::strong_signature_into;

/// Counters describing one refinement run; summed into
/// [`crate::pipeline::RefineStats`] by the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefineCounters {
    /// Refinement rounds until the fixpoint (≥ 1).
    pub rounds: u64,
    /// Total number of per-state signature computations.
    pub states_resigned: u64,
    /// Wall time spent computing and interning signatures.
    pub signature_secs: f64,
    /// Wall time spent splitting blocks and propagating dirtiness.
    pub split_secs: f64,
}

/// Which signature the refinement fixpoint is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Strong,
    Branching,
}

/// Refines `initial` to the coarsest stable partition of `imc` under
/// `mode`, returning the canonical partition (blocks numbered by first
/// occurrence in ascending state order) and the fixpoint signature of
/// every state w.r.t. that numbering. Bitwise identical to the legacy
/// recompute-all loops.
pub(crate) fn refine_worklist(
    imc: &IoImc,
    initial: &Partition,
    mode: Mode,
    counters: &mut RefineCounters,
) -> (Partition, Vec<Signature>) {
    let (partition, block_sigs) = refine_worklist_blocks(imc, initial, mode, counters);
    // Per-state view: states in a block share the block's fixpoint
    // signature (that is what "stable" means).
    let sigs = partition
        .blocks()
        .iter()
        .map(|&b| block_sigs[b as usize].clone())
        .collect();
    (partition, sigs)
}

/// [`refine_worklist`] returning one fixpoint signature per *canonical
/// block* instead of per state. The pipeline quotients straight off this
/// (a quotient only reads block representatives), skipping the per-state
/// materialization entirely.
pub(crate) fn refine_worklist_blocks(
    imc: &IoImc,
    initial: &Partition,
    mode: Mode,
    counters: &mut RefineCounters,
) -> (Partition, Vec<Signature>) {
    let n = imc.num_states();
    if n == 0 {
        return (Partition::from_blocks(Vec::new(), 0), Vec::new());
    }

    // --- block storage: states grouped contiguously per block id -------
    // `elems[start[b]..end[b]]` are the members of block `b`, ascending.
    // Block ids grow as splits allocate fresh ids; they are *not* dense
    // during refinement and are canonically renumbered at the fixpoint.
    let mut part: Vec<u32> = initial.blocks().to_vec();
    let members = initial.members_csr();
    let k0 = members.num_blocks();
    let mut elems: Vec<StateId> = Vec::with_capacity(n);
    let mut start: Vec<u32> = Vec::with_capacity(k0);
    let mut end: Vec<u32> = Vec::with_capacity(k0);
    for b in 0..k0 {
        start.push(elems.len() as u32);
        elems.extend_from_slice(members.of(b));
        end.push(elems.len() as u32);
    }

    // --- transposed adjacency for dirtiness propagation ----------------
    let (pred_off, preds) = imc.incoming();
    let preds_of =
        |s: StateId| &preds[pred_off[s as usize] as usize..pred_off[s as usize + 1] as usize];

    // --- branching-only structure: tau topology ------------------------
    let tg = if mode == Mode::Branching {
        Some(tau_graph(imc))
    } else {
        None
    };
    // States on unexpected tau cycles (absent from the topological order)
    // fall back to a conservative signature, exactly like the legacy loop.
    let in_order: Vec<bool> = match &tg {
        Some(tg) if tg.order.len() < n => {
            let mut mask = vec![false; n];
            for &s in &tg.order {
                mask[s as usize] = true;
            }
            mask
        }
        _ => Vec::new(),
    };
    // Position of each state in the tau topological order (`u32::MAX` for
    // states on unexpected tau cycles): the sort key that keeps the dirty
    // list in re-signing order between rounds.
    let topo_pos: Vec<u32> = match &tg {
        Some(tg) => {
            let mut pos = vec![u32::MAX; n];
            for (i, &s) in tg.order.iter().enumerate() {
                pos[s as usize] = i as u32;
            }
            pos
        }
        None => Vec::new(),
    };

    let mut table = SigTable::new();
    const UNSIGNED: u32 = u32::MAX;
    let mut sig_of: Vec<u32> = vec![UNSIGNED; n];

    // The dirty set is kept twice: as a membership bitmap and as an
    // explicit list sorted in re-signing order (ascending state id for
    // strong, tau-topological — cycle states last, ascending — for
    // branching), so a round's cost scales with the dirty set, not `n`.
    let mut dirty: Vec<bool> = vec![true; n];
    let mut dirty_list: Vec<StateId> = (0..n as StateId).collect();
    if mode == Mode::Branching {
        dirty_list.sort_unstable_by_key(|&s| (topo_pos[s as usize], s));
    }
    let mut changed: Vec<StateId> = Vec::new();
    let mut moved: Vec<StateId> = Vec::new();
    let mut scratch: Vec<StateId> = Vec::new();

    loop {
        counters.rounds += 1;
        // Cooperative cancellation at round granularity.
        ioimc::budget::checkpoint();

        // ---- phase 1: re-sign dirty states ----------------------------
        let t0 = Instant::now();
        changed.clear();
        resign(
            imc,
            mode,
            &in_order,
            &part,
            &dirty_list,
            &mut table,
            &mut sig_of,
            &mut changed,
            counters,
        );
        counters.signature_secs += t0.elapsed().as_secs_f64();

        // ---- phase 2: split the blocks holding changed signatures -----
        let t0 = Instant::now();
        moved.clear();
        let mut touched: Vec<u32> = changed.iter().map(|&s| part[s as usize]).collect();
        touched.sort_unstable();
        touched.dedup();
        for &b in &touched {
            split_block(
                b,
                &sig_of,
                &mut part,
                &mut elems,
                &mut start,
                &mut end,
                &mut moved,
                &mut scratch,
            );
        }
        if moved.is_empty() {
            counters.split_secs += t0.elapsed().as_secs_f64();
            break;
        }

        // ---- phase 3: seed the next dirty set -------------------------
        // Moved states changed their own block id; their predecessors see
        // a successor in a new block. The *inert* tau-predecessor closure
        // covers the inert-signature embedding of branching refinement: a
        // predecessor over a non-inert tau edge only references the
        // successor's block id (covered by `preds(moved)` already), while
        // an inert predecessor embeds the successor's whole signature, so
        // any signature change propagates through it. Refinement only
        // splits, so a non-inert edge can never become inert again —
        // restricting the closure to currently-inert edges is sound and
        // keeps the dirty set from swallowing entire tau basins. Closed
        // states are re-signed in the same round *after* their successors
        // (topological order), so in-round cascades resolve without extra
        // rounds.
        for &s in &dirty_list {
            dirty[s as usize] = false;
        }
        dirty_list.clear();
        for &s in &moved {
            if !dirty[s as usize] {
                dirty[s as usize] = true;
                dirty_list.push(s);
            }
            for &p in preds_of(s) {
                if !dirty[p as usize] {
                    dirty[p as usize] = true;
                    dirty_list.push(p);
                }
            }
        }
        if let Some(tg) = &tg {
            // Cursor-as-frontier: states appended during the closure are
            // themselves closed over before the round ends.
            let mut i = 0;
            while i < dirty_list.len() {
                let s = dirty_list[i];
                i += 1;
                let lo = tg.pred_off[s as usize] as usize;
                let hi = tg.pred_off[s as usize + 1] as usize;
                for &p in &tg.preds[lo..hi] {
                    if part[p as usize] == part[s as usize] && !dirty[p as usize] {
                        dirty[p as usize] = true;
                        dirty_list.push(p);
                    }
                }
            }
        }
        match mode {
            Mode::Strong => dirty_list.sort_unstable(),
            Mode::Branching => {
                dirty_list.sort_unstable_by_key(|&s| (topo_pos[s as usize], s));
            }
        }
        counters.split_secs += t0.elapsed().as_secs_f64();
    }

    // ---- fixpoint: canonical renumbering + signature materialization --
    // First-occurrence numbering in ascending state order is exactly the
    // numbering the legacy `split` assigns at its fixpoint, so downstream
    // quotients are bitwise identical to the legacy path.
    const UNSET: u32 = u32::MAX;
    let mut canon: Vec<u32> = vec![UNSET; start.len()];
    let mut blocks: Vec<u32> = vec![0; n];
    let mut block_sig_id: Vec<u32> = Vec::new();
    let mut num = 0u32;
    for s in 0..n {
        let b = part[s] as usize;
        if canon[b] == UNSET {
            canon[b] = num;
            block_sig_id.push(sig_of[s]);
            num += 1;
        }
        blocks[s] = canon[b];
    }
    let partition = Partition::from_blocks(blocks, num as usize);
    let remap = |e: &SigEntry| -> SigEntry {
        let fix = |b: u32| {
            debug_assert_ne!(
                canon[b as usize], UNSET,
                "signature references a dead block"
            );
            canon[b as usize]
        };
        match *e {
            SigEntry::Act { action, block } => SigEntry::Act {
                action,
                block: fix(block),
            },
            SigEntry::Tau { block } => SigEntry::Tau { block: fix(block) },
            SigEntry::Rate { block, qrate } => SigEntry::Rate {
                block: fix(block),
                qrate,
            },
        }
    };
    let block_sigs: Vec<Signature> = block_sig_id
        .iter()
        .map(|&id| {
            let mut sig: Signature = table.get(id).iter().map(remap).collect();
            canonicalize(&mut sig);
            sig
        })
        .collect();
    (partition, block_sigs)
}

/// Re-signs the dirty states in `list` order — ascending state id for
/// strong; for branching tau-topological, successors before predecessors
/// (so in-round signature cascades along inert tau edges resolve
/// immediately), states on unexpected tau cycles last — and records the
/// states whose interned signature id changed.
#[allow(clippy::too_many_arguments)]
fn resign(
    imc: &IoImc,
    mode: Mode,
    in_order: &[bool],
    part: &[u32],
    list: &[StateId],
    table: &mut SigTable,
    sig_of: &mut [u32],
    changed: &mut Vec<StateId>,
    counters: &mut RefineCounters,
) {
    const UNSIGNED: u32 = u32::MAX;
    counters.states_resigned += list.len() as u64;
    let mut sig: Signature = Vec::new();
    let mut rates: Vec<(u32, f64)> = Vec::new();
    for &s in list {
        match mode {
            Mode::Strong => strong_signature_into(imc, part, s, &mut sig, &mut rates),
            Mode::Branching if in_order.is_empty() || in_order[s as usize] => {
                let succ = |t: StateId| {
                    debug_assert_ne!(sig_of[t as usize], UNSIGNED);
                    table.get(sig_of[t as usize])
                };
                branching_signature_into(imc, part, succ, s, &mut sig, &mut rates);
            }
            // Unexpected tau cycle: conservative fallback, reached after
            // every in-order state (`topo_pos == u32::MAX` sorts last).
            Mode::Branching => conservative_signature_into(imc, part, s, &mut sig, &mut rates),
        }
        intern_slice_and_track(table, sig_of, changed, s, &sig);
    }
}

/// Interns `s`'s new signature from a borrowed scratch buffer (no
/// allocation on a table hit) and records `s` in `changed` if its
/// interned id moved. Most dirty states are conservative margin whose
/// signature did not actually change, so an equality check against the
/// state's previous interned signature short-circuits the hash + probe.
fn intern_slice_and_track(
    table: &mut SigTable,
    sig_of: &mut [u32],
    changed: &mut Vec<StateId>,
    s: StateId,
    sig: &[SigEntry],
) {
    let old = sig_of[s as usize];
    if old != u32::MAX && table.get(old) == sig {
        return;
    }
    let id = table.intern_slice(sig);
    if id != old {
        sig_of[s as usize] = id;
        changed.push(s);
    }
}

/// Splits block `b` by interned signature id. The sub-group holding the
/// block's first member retains id `b` (so signature entries referencing
/// `b` stay valid for clean states); the other sub-groups get fresh ids in
/// first-occurrence order and their states are recorded in `moved`.
#[allow(clippy::too_many_arguments)]
fn split_block(
    b: u32,
    sig_of: &[u32],
    part: &mut [u32],
    elems: &mut [StateId],
    start: &mut Vec<u32>,
    end: &mut Vec<u32>,
    moved: &mut Vec<StateId>,
    scratch: &mut Vec<StateId>,
) {
    let st = start[b as usize] as usize;
    let en = end[b as usize] as usize;
    if en - st <= 1 {
        return;
    }
    let members = &elems[st..en];
    // Group members by signature id, groups ordered by first occurrence,
    // members inside a group staying in ascending state order.
    let mut gid: ioimc::fxhash::FxHashMap<u32, u32> = ioimc::fxhash::FxHashMap::default();
    let mut group_of: Vec<u32> = Vec::with_capacity(members.len());
    let mut group_len: Vec<u32> = Vec::new();
    for &s in members {
        let next = group_len.len() as u32;
        let g = *gid.entry(sig_of[s as usize]).or_insert(next);
        if g == group_len.len() as u32 {
            group_len.push(0);
        }
        group_len[g as usize] += 1;
        group_of.push(g);
    }
    if group_len.len() == 1 {
        return;
    }
    // Scatter members into their group's slice of the block range.
    scratch.clear();
    scratch.extend_from_slice(members);
    let mut group_base: Vec<u32> = Vec::with_capacity(group_len.len());
    let mut acc = st as u32;
    for &len in &group_len {
        group_base.push(acc);
        acc += len;
    }
    let mut cursor = group_base.clone();
    for (i, &s) in scratch.iter().enumerate() {
        let g = group_of[i] as usize;
        elems[cursor[g] as usize] = s;
        cursor[g] += 1;
    }
    // Group 0 keeps id `b`; the rest get fresh ids in group order.
    end[b as usize] = group_base[1];
    for g in 1..group_len.len() {
        let nb = start.len() as u32;
        start.push(group_base[g]);
        end.push(group_base[g] + group_len[g]);
        let lo = group_base[g] as usize;
        let hi = (group_base[g] + group_len[g]) as usize;
        for &s in &elems[lo..hi] {
            part[s as usize] = nb;
            moved.push(s);
        }
    }
}
