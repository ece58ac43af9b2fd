//! State partitions.

use ioimc::{IoImc, StateId, StateLabel};
use std::collections::HashMap;

/// A partition of the states of an automaton into blocks `0..num_blocks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    block: Vec<u32>,
    num_blocks: usize,
}

impl Partition {
    /// The trivial partition: all states in block 0.
    pub fn trivial(num_states: usize) -> Self {
        Self {
            block: vec![0; num_states],
            num_blocks: if num_states == 0 { 0 } else { 1 },
        }
    }

    /// The initial partition for label-respecting reduction: one block per
    /// distinct state label.
    pub fn by_label(imc: &IoImc) -> Self {
        let mut ids: HashMap<StateLabel, u32> = HashMap::new();
        let block = imc
            .labels()
            .iter()
            .map(|&l| {
                let next = ids.len() as u32;
                *ids.entry(l).or_insert(next)
            })
            .collect();
        Self {
            block,
            num_blocks: ids.len(),
        }
    }

    /// Builds a partition from explicit block ids (must be dense `0..k`).
    pub fn from_blocks(block: Vec<u32>, num_blocks: usize) -> Self {
        debug_assert!(block.iter().all(|&b| (b as usize) < num_blocks));
        Self { block, num_blocks }
    }

    /// The block of state `s`.
    pub fn block_of(&self, s: StateId) -> u32 {
        self.block[s as usize]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.block.len()
    }

    /// The block id of every state.
    pub fn blocks(&self) -> &[u32] {
        &self.block
    }

    /// Groups the states of each block: `result[b]` lists the members of
    /// block `b`.
    ///
    /// Allocates one `Vec` per block; hot paths should use
    /// [`Partition::members_csr`] instead, which groups the same
    /// information into two flat arrays with a single counting sort.
    pub fn members(&self) -> Vec<Vec<StateId>> {
        let mut m = vec![Vec::new(); self.num_blocks];
        for (s, &b) in self.block.iter().enumerate() {
            m[b as usize].push(s as StateId);
        }
        m
    }

    /// Groups the members of every block in flat CSR form (counting sort,
    /// two allocations total): `result.of(b)` is the ascending member
    /// slice of block `b`.
    pub fn members_csr(&self) -> BlockMembers {
        let mut offsets = vec![0u32; self.num_blocks + 1];
        for &b in &self.block {
            offsets[b as usize + 1] += 1;
        }
        for i in 0..self.num_blocks {
            offsets[i + 1] += offsets[i];
        }
        let mut states: Vec<StateId> = vec![0; self.block.len()];
        let mut cursor: Vec<u32> = offsets[..self.num_blocks].to_vec();
        for (s, &b) in self.block.iter().enumerate() {
            states[cursor[b as usize] as usize] = s as StateId;
            cursor[b as usize] += 1;
        }
        BlockMembers { offsets, states }
    }

    /// Whether two states are in the same block.
    pub fn same_block(&self, a: StateId, b: StateId) -> bool {
        self.block[a as usize] == self.block[b as usize]
    }
}

/// Flat (CSR-style) block membership produced by
/// [`Partition::members_csr`]: member lists of all blocks concatenated,
/// plus per-block offsets.
#[derive(Debug, Clone)]
pub struct BlockMembers {
    offsets: Vec<u32>,
    states: Vec<StateId>,
}

impl BlockMembers {
    /// The members of block `b`, in ascending state order.
    pub fn of(&self, b: usize) -> &[StateId] {
        &self.states[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;

    #[test]
    fn by_label_separates_labels() {
        let mut b = IoImcBuilder::new();
        b.add_labeled_state(0);
        b.add_labeled_state(1);
        b.add_labeled_state(0);
        let imc = b.build().unwrap();
        let p = Partition::by_label(&imc);
        assert_eq!(p.num_blocks(), 2);
        assert!(p.same_block(0, 2));
        assert!(!p.same_block(0, 1));
        assert_eq!(p.members()[p.block_of(1) as usize], vec![1]);
    }

    #[test]
    fn trivial_is_one_block() {
        let p = Partition::trivial(5);
        assert_eq!(p.num_blocks(), 1);
        assert!(p.same_block(0, 4));
        assert_eq!(p.num_states(), 5);
    }
}
