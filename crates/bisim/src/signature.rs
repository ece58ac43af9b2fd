//! Signature entries for partition refinement.

use ioimc::{ActionId, IoImc, StateId};

/// Number of low mantissa bits dropped when comparing Markovian rate sums.
///
/// Summation order can perturb the last few bits of a rate sum; dropping 20
/// bits (~2⁻³² relative, i.e. agreement to ~9 decimal digits) makes states
/// with mathematically equal rate sums hash identically while still
/// distinguishing genuinely different rates.
const RATE_DROP_BITS: u32 = 20;

/// Quantizes a rate for hashing/equality in signatures.
pub fn quantize_rate(r: f64) -> u64 {
    debug_assert!(r.is_finite());
    let bits = r.to_bits();
    let half = 1u64 << (RATE_DROP_BITS - 1);
    ((bits.saturating_add(half)) >> RATE_DROP_BITS) << RATE_DROP_BITS
}

/// One observation a state can make about the current partition.
///
/// Signatures are sorted, deduplicated `Vec<SigEntry>`; two states get the
/// same refined block iff they are in the same current block and have equal
/// signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SigEntry {
    /// A visible interactive step `--a-->` into block `b`.
    Act {
        /// The action taken.
        action: ActionId,
        /// The target block.
        block: u32,
    },
    /// An internal step into a *different* block (inert steps are elided).
    /// All internal actions are interchangeable, hence no action id.
    Tau {
        /// The target block.
        block: u32,
    },
    /// A Markovian move into block `b` with the quantized total rate.
    Rate {
        /// The target block.
        block: u32,
        /// Quantized rate sum (see [`quantize_rate`]).
        qrate: u64,
    },
}

/// A state's full signature: sorted and deduplicated entries.
pub type Signature = Vec<SigEntry>;

/// Sorts and deduplicates `sig` in place.
pub fn canonicalize(sig: &mut Signature) {
    sig.sort_unstable();
    sig.dedup();
}

/// Appends the Rate entries of `s` to `sig`: one entry per target block
/// with the quantized lumped rate, skipping the state's own block
/// (lumpability only constrains cross-block rates; intra-block rates are
/// unobservable quotient self-loops). `rates` is caller-provided scratch
/// so hot refinement loops avoid a per-state allocation; per-block sums
/// accumulate in transition order, exactly like the hash-map accumulation
/// this replaces, so rate sums are bit-identical.
pub(crate) fn push_rate_entries(
    imc: &IoImc,
    block_of: &[u32],
    s: StateId,
    sig: &mut Signature,
    rates: &mut Vec<(u32, f64)>,
) {
    let own = block_of[s as usize];
    rates.clear();
    for &(r, t) in imc.markovian_from(s) {
        let block = block_of[t as usize];
        if block == own {
            continue;
        }
        // Markovian out-degrees are small; a linear scan beats hashing.
        match rates.iter_mut().find(|&&mut (b, _)| b == block) {
            Some(&mut (_, ref mut acc)) => *acc += r,
            None => rates.push((block, r)),
        }
    }
    for &(block, r) in rates.iter() {
        sig.push(SigEntry::Rate {
            block,
            qrate: quantize_rate(r),
        });
    }
}

/// Hash-consed signature storage for the worklist refiner.
///
/// Every distinct (canonicalized) signature is stored once and identified
/// by a dense `u32` id, so "do these two states currently look alike?"
/// is an integer compare instead of a structural hash + compare of a
/// `Vec<SigEntry>`. Ids are assigned in interning order; the refiner
/// interns sequentially in a deterministic state order, so the table —
/// and everything derived from it — is identical across runs. Entries are
/// `Arc`-shared slices, held by both the lookup map and the id-indexed
/// list without a second copy; the branching signature of a state
/// extends the entries of its inert successors straight from the table.
#[derive(Default)]
pub struct SigTable {
    map: ioimc::fxhash::FxHashMap<std::sync::Arc<[SigEntry]>, u32>,
    sigs: Vec<std::sync::Arc<[SigEntry]>>,
}

impl std::fmt::Debug for SigTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigTable")
            .field("len", &self.sigs.len())
            .finish()
    }
}

impl SigTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `sig` (must already be canonicalized), returning its id.
    /// Equal signatures always receive equal ids. The entries are copied
    /// into a fresh `Arc` only on a table miss: hot loops compute each
    /// signature into a reusable scratch buffer and intern it from there,
    /// so the common case (signature already interned) allocates nothing.
    pub fn intern_slice(&mut self, sig: &[SigEntry]) -> u32 {
        debug_assert!(sig.windows(2).all(|w| w[0] < w[1]), "not canonicalized");
        if let Some(&id) = self.map.get(sig) {
            return id;
        }
        let arc: std::sync::Arc<[SigEntry]> = sig.into();
        let id = u32::try_from(self.sigs.len()).expect("more than u32::MAX signatures");
        self.sigs.push(arc.clone());
        self.map.insert(arc, id);
        id
    }

    /// The entries of the signature with the given id.
    pub fn get(&self, id: u32) -> &[SigEntry] {
        &self.sigs[id as usize]
    }

    /// Number of distinct signatures interned so far.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_merges_nearby() {
        let a = 0.1 + 0.2; // 0.30000000000000004
        let b = 0.3;
        assert_eq!(quantize_rate(a), quantize_rate(b));
    }

    #[test]
    fn quantize_distinguishes_distinct() {
        assert_ne!(quantize_rate(1.0), quantize_rate(1.0001));
        assert_ne!(quantize_rate(5.44e-6), quantize_rate(10.88e-6));
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let mut sig = vec![
            SigEntry::Tau { block: 2 },
            SigEntry::Act {
                action: ActionId(1),
                block: 0,
            },
            SigEntry::Tau { block: 2 },
        ];
        canonicalize(&mut sig);
        assert_eq!(sig.len(), 2);
        assert!(sig.windows(2).all(|w| w[0] <= w[1]));
    }
}
