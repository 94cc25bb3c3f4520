//! A single Path ORAM tree: buckets, stash, path read/write, eviction.
//!
//! [`TreeOram`] implements the mechanics of one tree. Position management
//! lives *outside* (in [`crate::RecursivePathOram`] or the caller): every
//! access is told which leaf the block is currently mapped to and which
//! leaf it is being remapped to, mirroring how a hardware controller's
//! datapath is driven by the position-map lookup pipeline.
//!
//! Storage mirrors a hardware controller's split. The top
//! `DENSE_LEVELS` levels live in a flat array (the on-chip tree-top
//! buffer). Below them only *occupied* buckets are stored: a deep bucket
//! is all dummies unless it holds a real block, so a dummy access stores
//! nothing there and paper-scale trees (2^25 leaves) stay cheap however
//! long they serve. A deep bucket's re-encryption counter is not stored
//! either: it equals the number of path write-backs through it, derived
//! on demand from an append-only log of write-back leaves (8 B per
//! write-back, against ~40 B per empty bucket a counter map would hold).

use crate::bucket::{Bucket, StoredBlock};
use crate::geometry::{PathTable, TreeGeometry};
use crate::stash::Stash;
use crate::types::{BlockId, Leaf, NodeIndex};
use otc_crypto::Prf;
use std::collections::HashMap;

/// Synthesizes the payload of a block that has never been written.
///
/// * The data ORAM returns zeroed cache lines (fresh memory).
/// * Recursive position-map ORAMs return PRF-derived default positions, so
///   the position map is lazily materializable (see `DESIGN.md` §3).
#[derive(Clone)]
pub enum DefaultPayload {
    /// All-zero payload of the tree's block size.
    Zeros,
    /// Position-map default: entry `j` of block `b` is
    /// `PRF(b * entries + j) mod child_leaf_count`, encoded little-endian
    /// as fixed-width `u32`s.
    PosmapPrf {
        /// PRF used to derive default child positions.
        prf: Prf,
        /// Number of position entries packed per block.
        entries_per_block: usize,
        /// Leaf count of the ORAM whose positions this map stores.
        child_leaf_count: u64,
    },
}

impl std::fmt::Debug for DefaultPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefaultPayload::Zeros => write!(f, "DefaultPayload::Zeros"),
            DefaultPayload::PosmapPrf {
                entries_per_block,
                child_leaf_count,
                ..
            } => write!(
                f,
                "DefaultPayload::PosmapPrf {{ entries_per_block: {entries_per_block}, \
                 child_leaf_count: {child_leaf_count} }}"
            ),
        }
    }
}

impl DefaultPayload {
    fn synthesize(&self, id: BlockId, block_bytes: usize) -> Vec<u8> {
        match self {
            DefaultPayload::Zeros => vec![0u8; block_bytes],
            DefaultPayload::PosmapPrf {
                prf,
                entries_per_block,
                child_leaf_count,
            } => {
                let mut out = vec![0u8; block_bytes];
                for j in 0..*entries_per_block {
                    let idx = id.0 * *entries_per_block as u64 + j as u64;
                    let pos = prf.eval_below(idx, *child_leaf_count) as u32;
                    out[j * 4..j * 4 + 4].copy_from_slice(&pos.to_le_bytes());
                }
                out
            }
        }
    }
}

/// Statistics for one tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Path accesses performed (real + dummy).
    pub path_accesses: u64,
    /// Bytes moved through the pins by this tree (read + write).
    pub bytes_moved: u64,
    /// Peak stash occupancy.
    pub stash_peak: usize,
}

/// Tree levels held in the dense top-of-tree array. Every access
/// rewrites its path's top levels, so these buckets are hot on *every*
/// access and (for any realistic access count) all materialize anyway;
/// storing them as a flat heap-indexed array turns the hottest
/// `DENSE_LEVELS` of every path read/write into direct indexing with no
/// hashing and no probing. 2^14 − 1 buckets ≈ 0.5 MB per tree — the
/// on-chip tree-top buffer of the Ren et al. [26] controller designs,
/// in host-memory form.
const DENSE_LEVELS: u32 = 14;

/// Fast node-index hasher for the deep (sparse) bucket map.
///
/// Bucket keys are heap indices — structured, dense-per-level integers —
/// and the map is probed ~2 x levels times per access, so SipHash is
/// pure overhead here (there is no attacker-controlled key material:
/// node indices derive from PRNG-drawn leaves). A SplitMix64-style
/// finalizer mixes all 64 bits into the low bits hashbrown indexes by.
#[derive(Clone, Copy, Default)]
struct NodeIndexHasher(u64);

impl std::hash::Hasher for NodeIndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, Default)]
struct BuildNodeIndexHasher;

impl std::hash::BuildHasher for BuildNodeIndexHasher {
    type Hasher = NodeIndexHasher;

    fn build_hasher(&self) -> NodeIndexHasher {
        NodeIndexHasher::default()
    }
}

/// One Path ORAM tree.
pub struct TreeOram {
    geom: TreeGeometry,
    /// Per-level path-node constants, computed once per geometry — the
    /// path read/write hot loops index this instead of re-deriving
    /// bucket indices per access.
    path: PathTable,
    /// Top [`DENSE_LEVELS`] levels, heap-indexed (`node.0` directly):
    /// the tree-top buffer. Always allocated; `encryption_counter == 0`
    /// means "never written".
    dense: Vec<Bucket>,
    /// The real blocks of every occupied bucket below the dense levels.
    /// A path read removes its deep buckets and the write-back inserts
    /// only the non-empty ones, so no entry is ever empty.
    deep: HashMap<NodeIndex, Vec<StoredBlock>, BuildNodeIndexHasher>,
    /// Emptied deep-bucket vectors, recycled into the eviction scratch
    /// so moving blocks between the map and the scratch never allocates
    /// in steady state. Holds at most one path's worth.
    spare: Vec<Vec<StoredBlock>>,
    /// Leaf of every path write-back, oldest first; empty for a tree with
    /// no deep levels. A deep bucket's encryption counter is the number
    /// of logged leaves whose path passes through it.
    writebacks: Vec<Leaf>,
    stash: Stash,
    /// Per-level eviction scratch (root first), recycled across
    /// accesses: the single-pass stash eviction fills these, then each
    /// vector's contents move into the corresponding path bucket.
    evict_scratch: Vec<Vec<StoredBlock>>,
    default_payload: DefaultPayload,
    /// Fingerprint PRF: models what ciphertext an adversary would see for
    /// a bucket (changes on every write-back).
    fingerprint_prf: Prf,
    accesses: u64,
}

impl std::fmt::Debug for TreeOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeOram")
            .field("geom", &self.geom)
            .field("materialized_buckets", &self.materialized_buckets())
            .field("stash_len", &self.stash.len())
            .field("accesses", &self.accesses)
            .finish()
    }
}

impl TreeOram {
    /// Creates an empty tree.
    pub fn new(geom: TreeGeometry, default_payload: DefaultPayload, fingerprint_prf: Prf) -> Self {
        Self {
            geom,
            path: geom.path_table(),
            dense: {
                let levels = geom.levels().min(DENSE_LEVELS);
                vec![Bucket::empty(); ((1u64 << levels) - 1) as usize]
            },
            deep: HashMap::default(),
            spare: Vec::new(),
            writebacks: Vec::new(),
            stash: Stash::new(),
            evict_scratch: Vec::new(),
            default_payload,
            fingerprint_prf,
            accesses: 0,
        }
    }

    /// The tree's geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geom
    }

    /// Performs one real access.
    ///
    /// Reads the path to `leaf` into the stash, applies `update` to the
    /// payload of `id` (synthesizing a default payload if the block was
    /// never written), remaps the block to `new_leaf`, then evicts and
    /// writes the path back. Returns the payload *after* `update` ran.
    ///
    /// # Panics
    ///
    /// Panics if `leaf`/`new_leaf` are out of range, or if the invariant
    /// "the block is on the claimed path or in the stash" is violated —
    /// which would mean the caller's position map is inconsistent.
    pub fn access_update<F>(
        &mut self,
        id: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        update: F,
    ) -> Vec<u8>
    where
        F: FnOnce(&mut Vec<u8>),
    {
        let result = self.access_update_deferred(id, leaf, new_leaf, update);
        // The deferred variant just emptied the path's buckets, so the
        // immediate write-back is exactly the serial eviction.
        self.write_path_from_stash(leaf);
        result
    }

    /// Convenience read (no modification).
    pub fn read(&mut self, id: BlockId, leaf: Leaf, new_leaf: Leaf) -> Vec<u8> {
        self.access_update(id, leaf, new_leaf, |_| {})
    }

    /// Convenience write (payload replaced).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `block_bytes` long.
    pub fn write(&mut self, id: BlockId, leaf: Leaf, new_leaf: Leaf, data: &[u8]) -> Vec<u8> {
        assert_eq!(
            data.len(),
            self.geom.block_bytes(),
            "payload must be block-sized"
        );
        self.access_update(id, leaf, new_leaf, |p| p.copy_from_slice(data))
    }

    /// Performs a dummy access: read and write back the path to `leaf`
    /// without touching any logical block (§1.1.2 footnote 1, §3).
    /// Indistinguishable from a real access by construction — the same
    /// bytes move and every bucket is re-encrypted.
    pub fn dummy_access(&mut self, leaf: Leaf) {
        self.dummy_access_deferred(leaf);
        self.write_path_from_stash(leaf);
    }

    /// As [`TreeOram::access_update`], but with the path write-back
    /// *deferred*: the path's blocks stay in the stash and the caller
    /// must later call [`TreeOram::evict_path`] with the same `leaf` to
    /// complete the eviction. Until then the Path ORAM invariant still
    /// holds (stash residency is always legal) and reads of any staged
    /// block keep working — only the write-back bandwidth and the
    /// re-encryption of the path's buckets are postponed.
    pub fn access_update_deferred<F>(
        &mut self,
        id: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        update: F,
    ) -> Vec<u8>
    where
        F: FnOnce(&mut Vec<u8>),
    {
        self.access_update_deferred_quiet(id, leaf, new_leaf, update);
        self.stash
            .get(id)
            .expect("block staged in stash")
            .payload
            .clone()
    }

    /// As [`TreeOram::access_update_deferred`], but without materializing
    /// a copy of the updated payload. The serving datapath discards the
    /// result of most accesses (every posmap hop, every write, every
    /// host-level read whose payload nobody consumes), so the quiet
    /// variants keep the per-access hot path allocation-free; callers
    /// that do want the payload read it through `update` or use the
    /// cloning wrappers.
    pub fn access_update_deferred_quiet<F>(
        &mut self,
        id: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        update: F,
    ) where
        F: FnOnce(&mut Vec<u8>),
    {
        assert!(new_leaf.0 < self.geom.leaf_count(), "new_leaf out of range");
        self.read_path_into_stash(leaf);

        // The block must now be in the stash: either it came off the path,
        // it was already waiting in the stash, or it has never been
        // written and we synthesize it.
        if !self.stash.contains(id) {
            let payload = self.default_payload.synthesize(id, self.geom.block_bytes());
            self.stash.insert(StoredBlock { id, leaf, payload });
        }

        let block = self.stash.get_mut(id).expect("block staged in stash");
        block.leaf = new_leaf;
        update(&mut block.payload);
        self.accesses += 1;
    }

    /// Quiet counterpart of [`TreeOram::access_update`]: full access
    /// (read path, update, immediate write-back) with no payload copy.
    pub fn access_update_quiet<F>(&mut self, id: BlockId, leaf: Leaf, new_leaf: Leaf, update: F)
    where
        F: FnOnce(&mut Vec<u8>),
    {
        self.access_update_deferred_quiet(id, leaf, new_leaf, update);
        self.write_path_from_stash(leaf);
    }

    /// Dummy-access counterpart of [`TreeOram::access_update_deferred`]:
    /// reads the path to `leaf` into the stash and leaves the write-back
    /// to a later [`TreeOram::evict_path`].
    pub fn dummy_access_deferred(&mut self, leaf: Leaf) {
        self.read_path_into_stash(leaf);
        self.accesses += 1;
    }

    /// Completes a deferred eviction: gathers the current contents of the
    /// path to `leaf` back into the stash (interleaved earlier evictions
    /// may have re-filled shared buckets — the root is on every path) and
    /// writes the path back with greedy eviction. Exactly one bucket
    /// re-encryption per path bucket, the same as the write-back half of
    /// a serial access, so ciphertext fingerprints after all pending
    /// evictions drain match serial mode bit for bit.
    ///
    /// Timing-model note: the gather is *functional bookkeeping*, not
    /// modeled DRAM traffic — callers charge a drain the path-write cost
    /// only ([`crate::AccessPlan::eviction`]). The buckets a drain can
    /// find non-empty are exactly the path prefix shared with an earlier
    /// pending eviction (deeper buckets were emptied by this path's own
    /// read and FIFO order keeps them empty), and a hardware controller
    /// holds those top-of-tree levels in its on-chip tree-top buffer
    /// (standard in the Ren et al. [26] designs this models), so the
    /// write-back re-reads nothing from DRAM. Worst case outside the
    /// buffered depth — two pending paths to nearby leaves — the model
    /// is optimistic by the shared suffix; bytes_moved accounting is
    /// unaffected (each access still moves read + write once).
    pub fn evict_path(&mut self, leaf: Leaf) {
        self.read_path_into_stash(leaf);
        self.write_path_from_stash(leaf);
    }

    /// The ciphertext fingerprint of a bucket, as an adversary snapshotting
    /// DRAM would see it (§3.2). Changes on every write-back because
    /// buckets are re-encrypted probabilistically.
    ///
    /// O(1) for a tree-top node; below the dense levels the counter is
    /// counted from the write-back log, so the cost is linear in the
    /// tree's write-backs (probes and tests only — no serving path asks).
    pub fn bucket_fingerprint(&self, node: NodeIndex) -> u64 {
        let counter = match self.dense.get(node.0 as usize) {
            Some(bucket) => bucket.encryption_counter,
            None => self.deep_encryption_counter(node),
        };
        self.fingerprint_prf.eval2(node.0, counter)
    }

    /// Write-backs of a path through deep `node`: the node at level `l`
    /// is `(2^l − 1) + prefix`, and the path to `leaf` passes through it
    /// iff `leaf >> (height − l) == prefix`. Zero for a node outside
    /// the tree.
    fn deep_encryption_counter(&self, node: NodeIndex) -> u64 {
        let level = node.0.saturating_add(1).ilog2();
        if level >= self.geom.levels() {
            return 0;
        }
        let prefix = node.0 + 1 - (1u64 << level);
        let shift = self.geom.height() - level;
        self.writebacks
            .iter()
            .filter(|leaf| leaf.0 >> shift == prefix)
            .count() as u64
    }

    /// Fingerprint of the root bucket (§3.2's probe target: the root is on
    /// *every* path, so it is rewritten by *every* access).
    pub fn root_fingerprint(&self) -> u64 {
        self.bucket_fingerprint(self.geom.root())
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            path_accesses: self.accesses,
            bytes_moved: self.accesses * 2 * self.geom.path_bytes(),
            stash_peak: self.stash.peak(),
        }
    }

    /// Dense buckets ever written plus deep buckets resident (host-memory
    /// footprint diagnostic). A dense tree-top bucket counts once its
    /// encryption counter is non-zero; a deep bucket counts while it
    /// holds at least one real block.
    pub fn materialized_buckets(&self) -> usize {
        let dense_written = self
            .dense
            .iter()
            .filter(|b| b.encryption_counter > 0)
            .count();
        dense_written + self.deep.len()
    }

    /// Deep (below the tree top) buckets resident now; each holds at
    /// least one real block.
    #[cfg(test)]
    pub(crate) fn deep_buckets_resident(&self) -> usize {
        self.deep.len()
    }

    fn read_path_into_stash(&mut self, leaf: Leaf) {
        self.path.assert_leaf(leaf);
        let dense_levels = self.dense_levels();
        for level in 0..dense_levels {
            let node = self.path.node_at(leaf, level);
            // Drain in place: the bucket keeps its block vector's
            // allocation for the write-back half of the access.
            for block in self.dense[node.0 as usize].blocks.drain(..) {
                self.stash.insert(block);
            }
        }
        for level in dense_levels..self.path.levels() {
            let node = self.path.node_at(leaf, level);
            if let Some(mut blocks) = self.deep.remove(&node) {
                for block in blocks.drain(..) {
                    self.stash.insert(block);
                }
                if self.spare.len() < self.path.levels() {
                    self.spare.push(blocks);
                }
            }
        }
    }

    /// How many of this tree's levels live in the dense top array.
    #[inline]
    fn dense_levels(&self) -> usize {
        self.geom.levels().min(DENSE_LEVELS) as usize
    }

    fn write_path_from_stash(&mut self, leaf: Leaf) {
        // Evict greedily from the leaf upward: deeper placements free more
        // stash space and are strictly harder to satisfy, so fill them
        // first (standard Path ORAM eviction). The whole path is filled
        // in ONE id-ordered stash pass — placements provably identical
        // to the per-bucket reference scan (see
        // [`Stash::evict_path_into`]) at O(stash + levels) instead of
        // O(stash x levels) per access.
        let geom = self.geom;
        let levels = self.path.levels();
        if self.evict_scratch.len() != levels {
            self.evict_scratch.resize_with(levels, Vec::new);
        }
        self.stash.evict_path_into(
            geom.z(),
            |block_leaf| geom.deepest_shared_level(leaf, block_leaf) as usize,
            &mut self.evict_scratch,
        );
        let dense_levels = self.dense_levels();
        for level in 0..dense_levels {
            let bucket = &mut self.dense[self.path.node_at(leaf, level).0 as usize];
            debug_assert!(bucket.blocks.is_empty(), "path was read before write");
            bucket.blocks.append(&mut self.evict_scratch[level]);
            // Probabilistic re-encryption of every bucket on the path.
            bucket.encryption_counter += 1;
        }
        for level in dense_levels..levels {
            if self.evict_scratch[level].is_empty() {
                continue; // an all-dummy bucket stores nothing
            }
            let spare = self.spare.pop().unwrap_or_default();
            let blocks = std::mem::replace(&mut self.evict_scratch[level], spare);
            let prev = self.deep.insert(self.path.node_at(leaf, level), blocks);
            debug_assert!(prev.is_none(), "path was read before write");
        }
        if levels > dense_levels {
            // Re-encryption of the deep half of the path: one log entry
            // stands for one counter increment on every deep bucket.
            self.writebacks.push(leaf);
        }
    }

    /// Verifies the Path ORAM invariant for every materialized block:
    /// a block mapped to leaf `l` must lie on the path to `l` (or in the
    /// stash), and no empty bucket is stored below the tree top. Returns
    /// the number of blocks checked.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if the invariant is violated. Intended
    /// for tests and debug assertions, not production paths.
    pub fn check_invariant(&self) -> usize {
        let mut checked = 0;
        for (node, blocks) in self.deep.iter() {
            assert!(!blocks.is_empty(), "empty deep bucket {node:?} stored");
        }
        let dense = self
            .dense
            .iter()
            .enumerate()
            .map(|(i, b)| (NodeIndex(i as u64), &b.blocks));
        for (node, blocks) in dense.chain(self.deep.iter().map(|(n, b)| (*n, b))) {
            assert!(
                blocks.len() <= self.geom.z(),
                "bucket {node:?} over capacity"
            );
            for block in blocks {
                let on_path = self.geom.path_nodes(block.leaf).any(|n| n == node);
                assert!(
                    on_path,
                    "block {} mapped to {} stored off-path at node {:?}",
                    block.id, block.leaf, node
                );
                checked += 1;
            }
        }
        checked + self.stash.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_crypto::{Prf, SymmetricKey};
    use proptest::prelude::*;

    fn test_tree(levels: u32) -> TreeOram {
        let key = SymmetricKey::from_seed(1234);
        TreeOram::new(
            TreeGeometry::new(levels, 3, 64, 16),
            DefaultPayload::Zeros,
            Prf::new(key, b"fingerprint"),
        )
    }

    /// Deterministic "random" leaf sequence for tests.
    fn leaf_seq(geom: &TreeGeometry, seed: u64) -> impl FnMut() -> Leaf + '_ {
        let mut rng = otc_crypto::SplitMix64::new(seed);
        move || Leaf(rng.next_below(geom.leaf_count()))
    }

    #[test]
    fn fresh_block_reads_zero() {
        let mut t = test_tree(4);
        let data = t.read(BlockId(5), Leaf(2), Leaf(3));
        assert_eq!(data, vec![0u8; 64]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = test_tree(4);
        let payload = vec![0xAB; 64];
        t.write(BlockId(7), Leaf(1), Leaf(4), &payload);
        // Must read via the *new* leaf.
        let got = t.read(BlockId(7), Leaf(4), Leaf(0));
        assert_eq!(got, payload);
        t.check_invariant();
    }

    #[test]
    fn root_fingerprint_changes_every_access() {
        let mut t = test_tree(4);
        let f0 = t.root_fingerprint();
        t.dummy_access(Leaf(0));
        let f1 = t.root_fingerprint();
        t.dummy_access(Leaf(7));
        let f2 = t.root_fingerprint();
        assert_ne!(f0, f1);
        assert_ne!(f1, f2);
    }

    #[test]
    fn off_path_bucket_fingerprint_stable() {
        let mut t = test_tree(4);
        // Access leaf 0 repeatedly; the leaf-level bucket of leaf 7 is
        // never on that path, so its ciphertext never changes.
        let node7 = t.geometry().node_at(Leaf(7), 3);
        let before = t.bucket_fingerprint(node7);
        for _ in 0..5 {
            t.dummy_access(Leaf(0));
        }
        assert_eq!(t.bucket_fingerprint(node7), before);
    }

    #[test]
    fn dummy_access_preserves_contents() {
        let mut t = test_tree(4);
        t.write(BlockId(3), Leaf(6), Leaf(6), &[9u8; 64]);
        for leaf in 0..8 {
            t.dummy_access(Leaf(leaf));
        }
        assert_eq!(t.read(BlockId(3), Leaf(6), Leaf(1)), vec![9u8; 64]);
        t.check_invariant();
    }

    #[test]
    fn access_counts_and_bytes() {
        let mut t = test_tree(4);
        t.dummy_access(Leaf(0));
        t.read(BlockId(0), Leaf(0), Leaf(0));
        let s = t.stats();
        assert_eq!(s.path_accesses, 2);
        assert_eq!(s.bytes_moved, 2 * 2 * t.geometry().path_bytes());
    }

    #[test]
    fn posmap_default_payload_is_prf_derived() {
        let key = SymmetricKey::from_seed(9);
        let prf = Prf::new(key, b"posmap");
        let dp = DefaultPayload::PosmapPrf {
            prf,
            entries_per_block: 8,
            child_leaf_count: 16,
        };
        let payload = dp.synthesize(BlockId(2), 32);
        for j in 0..8usize {
            let v = u32::from_le_bytes(payload[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
            assert_eq!(u64::from(v), prf.eval_below(2 * 8 + j as u64, 16));
            assert!(u64::from(v) < 16);
        }
    }

    #[test]
    fn paper_scale_tree_is_cheap_to_instantiate() {
        // 26 levels = 2^26-1 buckets; lazy materialization means only the
        // touched paths cost memory.
        let mut t = test_tree(26);
        let geom = *t.geometry();
        let (l, l2) = {
            let mut next = leaf_seq(&geom, 42);
            (next(), next())
        };
        assert!(l.0 < geom.leaf_count());
        t.write(BlockId(123_456), l, l2, &[1u8; 64]);
        assert!(t.materialized_buckets() <= 26);
    }

    #[test]
    fn deep_levels_store_only_occupied_buckets() {
        // A 20-level tree has six levels below the dense top. Dummy
        // traffic over an empty tree must store nothing there, and with
        // blocks resident every stored deep bucket holds one.
        let mut t = test_tree(20);
        let geom = *t.geometry();
        let mut next = leaf_seq(&geom, 9);
        for _ in 0..500 {
            t.dummy_access(next());
        }
        assert_eq!(t.deep_buckets_resident(), 0);
        let mut leaves = Vec::new();
        for id in 0..40u64 {
            let leaf = next();
            t.write(BlockId(id), next(), leaf, &[id as u8; 64]);
            leaves.push(leaf);
        }
        for _ in 0..500 {
            t.dummy_access(next());
            assert!(t.deep_buckets_resident() <= 40);
        }
        assert!(t.deep_buckets_resident() > 0, "deep levels hold blocks");
        assert_eq!(t.check_invariant(), 40);
        for (id, leaf) in leaves.into_iter().enumerate() {
            assert_eq!(t.read(BlockId(id as u64), leaf, next()), vec![id as u8; 64]);
        }
    }

    #[test]
    #[should_panic(expected = "payload must be block-sized")]
    fn wrong_payload_size_panics() {
        test_tree(4).write(BlockId(0), Leaf(0), Leaf(0), &[1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Read-your-writes under random interleavings, with the invariant
        /// checked continuously and the stash staying bounded.
        #[test]
        fn prop_read_your_writes(seed in any::<u64>(), ops in 1usize..60) {
            let mut t = test_tree(5); // 16 leaves
            let geom = *t.geometry();
            let mut rng = otc_crypto::SplitMix64::new(seed);
            // Model of truth: block id -> (expected payload, current leaf).
            let mut model: std::collections::HashMap<u64, (Vec<u8>, Leaf)> =
                std::collections::HashMap::new();
            for step in 0..ops {
                let id = rng.next_below(12); // ≤ 12 distinct blocks in 16-leaf tree
                let new_leaf = Leaf(rng.next_below(geom.leaf_count()));
                let entry = model.get(&id).cloned();
                let cur_leaf = entry
                    .as_ref()
                    .map(|(_, l)| *l)
                    .unwrap_or(Leaf(rng.next_below(geom.leaf_count())));
                if rng.next_below(2) == 0 {
                    // write
                    let payload = vec![(step as u8).wrapping_mul(31); 64];
                    t.write(BlockId(id), cur_leaf, new_leaf, &payload);
                    model.insert(id, (payload, new_leaf));
                } else {
                    // read
                    let got = t.read(BlockId(id), cur_leaf, new_leaf);
                    if let Some((expect, _)) = entry {
                        prop_assert_eq!(&got, &expect);
                    } else {
                        prop_assert_eq!(&got, &vec![0u8; 64]);
                    }
                    model
                        .entry(id)
                        .and_modify(|e| e.1 = new_leaf)
                        .or_insert((vec![0u8; 64], new_leaf));
                }
                t.check_invariant();
                prop_assert!(t.stash_len() <= 40, "stash grew to {}", t.stash_len());
            }
        }

        /// Deep fingerprints derived from the write-back log equal the
        /// per-bucket re-encryption counters the tree once stored. The
        /// oracle keeps that representation — one counter per node, bumped
        /// on every node of each written-back path — while the test plays
        /// the controller: it owns the position map and a FIFO of deferred
        /// evictions, and mixes inline and deferred reads, writes and
        /// dummies with drains on an 18-level tree (four levels below the
        /// dense top). Sampled paths lead to written-back leaves and their
        /// near neighbours, so deep buckets with non-zero counters are hit.
        #[test]
        fn prop_fingerprints_match_counter_oracle(seed in any::<u64>(), ops in 1usize..120) {
            let mut t = test_tree(18);
            let geom = *t.geometry();
            let prf = Prf::new(SymmetricKey::from_seed(1234), b"fingerprint");
            let mut rng = otc_crypto::SplitMix64::new(seed);
            let mut counters: std::collections::HashMap<NodeIndex, u64> =
                std::collections::HashMap::new();
            // Write-backs so far, oldest first: sampling targets.
            let mut written_back = Vec::new();
            let write_back = |counters: &mut std::collections::HashMap<NodeIndex, u64>,
                                  written_back: &mut Vec<Leaf>,
                                  leaf: Leaf| {
                for node in geom.path_nodes(leaf) {
                    *counters.entry(node).or_insert(0) += 1;
                }
                written_back.push(leaf);
            };
            let mut model: std::collections::HashMap<u64, (Vec<u8>, Leaf)> =
                std::collections::HashMap::new();
            let mut pending = std::collections::VecDeque::new();
            for step in 0..ops {
                let id = rng.next_below(24);
                let new_leaf = Leaf(rng.next_below(geom.leaf_count()));
                let cur_leaf = model
                    .get(&id)
                    .map(|(_, l)| *l)
                    .unwrap_or(Leaf(rng.next_below(geom.leaf_count())));
                let defer = rng.next_below(2) == 0;
                match rng.next_below(4) {
                    0 => {
                        let payload = vec![(step as u8) ^ 0xA5; 64];
                        let update = |p: &mut Vec<u8>| p.copy_from_slice(&payload);
                        if defer {
                            t.access_update_deferred_quiet(BlockId(id), cur_leaf, new_leaf, update);
                        } else {
                            t.access_update_quiet(BlockId(id), cur_leaf, new_leaf, update);
                        }
                        model.insert(id, (payload, new_leaf));
                    }
                    1 => {
                        let got = if defer {
                            t.access_update_deferred(BlockId(id), cur_leaf, new_leaf, |_| {})
                        } else {
                            t.read(BlockId(id), cur_leaf, new_leaf)
                        };
                        let expect = model.get(&id).map(|(p, _)| p.clone()).unwrap_or(vec![0u8; 64]);
                        prop_assert_eq!(got, expect.clone());
                        model.insert(id, (expect, new_leaf));
                    }
                    2 => {
                        if defer {
                            t.dummy_access_deferred(cur_leaf);
                        } else {
                            t.dummy_access(cur_leaf);
                        }
                    }
                    _ => {
                        if let Some(leaf) = pending.pop_front() {
                            t.evict_path(leaf);
                            write_back(&mut counters, &mut written_back, leaf);
                        }
                        continue;
                    }
                }
                if defer {
                    pending.push_back(cur_leaf);
                } else {
                    write_back(&mut counters, &mut written_back, cur_leaf);
                }
                t.check_invariant();
                let mut samples = vec![Leaf(rng.next_below(geom.leaf_count()))];
                if let Some(&leaf) = written_back.get(rng.next_below(step as u64 + 1) as usize) {
                    samples.push(leaf);
                    samples.push(Leaf(leaf.0 ^ (1 + rng.next_below(7))));
                }
                for leaf in samples {
                    for node in geom.path_nodes(leaf) {
                        let counter = counters.get(&node).copied().unwrap_or(0);
                        prop_assert_eq!(
                            t.bucket_fingerprint(node),
                            prf.eval2(node.0, counter),
                            "node {:?} after step {}", node, step
                        );
                    }
                }
            }
        }
    }
}
