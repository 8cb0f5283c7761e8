//! Compressed block posting lists with compressed-domain intersection.
//!
//! Posting lists are the dominant memory cost of the unified triple index
//! at scale, and plain sorted `Vec<EntityId>` postings are a cache-miss
//! machine during galloping intersection (every probe touches 8 bytes per
//! candidate). Following the compressed-adjacency-matrix result of
//! Arroyuelo et al. (compressed representations can *speed up*
//! graph-pattern evaluation, not just shrink it), this module replaces the
//! flat vectors with a three-tier hybrid:
//!
//! * a **tiny** list (≤ [`TINY_MAX`] ids — the singleton reverse-edge and
//!   rare-token lists that dominate list *count*) is one delta+varint
//!   byte run over the full ids, ~2–3 bytes per id instead of 8, with an
//!   `O(1)` append fast path for the ascending inserts replay produces.
//!   A run of at most [`INLINE_MAX`] bytes — every singleton, and most
//!   lists of two or three ids — is stored **inline** in the 16-byte list
//!   header with no allocation; a longer run sits behind one `Box`;
//! * past that, the id space is cut into **blocks** of [`BLOCK_SPAN`]
//!   consecutive ids (`block key = id >> 12`):
//!   * a **dense** block stores membership as a 64-word (4096-bit)
//!     bitmap — 512 bytes regardless of cardinality;
//!   * a **sparse** block stores its in-block offsets as
//!     delta+varint-encoded runs — ~1 byte per id for clustered ids,
//!     ≤2 bytes worst case;
//! * a per-list **block directory** (`BlockMeta`: key, min/max offset,
//!   cardinality) sits in front of the containers, so intersection can
//!   skip whole blocks without touching container bytes.
//!
//! Intersection ([`intersect_views`]) operates in the compressed domain:
//! directories are galloped to find common block keys, dense×dense blocks
//! combine with 64-bit bitmap `AND`s, and sparse blocks decode at most
//! [`SPARSE_MAX`] offsets into a scratch buffer that is membership-tested
//! against the other containers. Full lists are never materialized. A
//! conjunction involving a tiny list short-circuits to candidate testing —
//! at most [`TINY_MAX`] point probes.
//!
//! # Maintenance cost model
//!
//! [`BlockPostings::insert`]/[`remove`](BlockPostings::remove) update one
//! block in place: a dense bit set/clear is `O(1)`, a sparse re-encode is
//! `O(block cardinality)` ≤ [`SPARSE_MAX`], a tiny re-encode is
//! `O(`[`TINY_MAX`]`)` (and `O(1)` for ascending appends) — all
//! *independent of list length*, unlike `Vec::insert`'s `O(n)` memmove.
//! Representation switches are hysteretic at both tiers (tiny→blocks
//! above [`TINY_MAX`], back below [`TINY_MIN`]; sparse→dense above
//! [`SPARSE_MAX`], back below [`DENSE_MIN`]), so a run of mutations must
//! land on a list/block between two conversions — the amortized
//! split/merge policy that keeps write-heavy oplog replay cheap.
//!
//! See `docs/index.md` for the full format contract.

use std::cell::RefCell;

use crate::binary::{
    push_varint, put_varint, take_count, take_slice, take_u8, take_varint, varint_len,
};
use crate::EntityId;

/// Ids per block: `4096 = 2^12`, so a dense bitmap is 64 `u64` words.
pub const BLOCK_SPAN: u64 = 4096;
/// Bits of an id below the block key.
const BLOCK_SHIFT: u32 = 12;
/// `u64` words in a dense bitmap container.
const WORDS: usize = (BLOCK_SPAN as usize) / 64;
/// A sparse container exceeding this cardinality is promoted to dense.
/// 512 offsets at ~1 byte each ≈ the 512-byte bitmap — past this point the
/// bitmap is both smaller and faster.
pub const SPARSE_MAX: usize = 512;
/// A dense container falling below this cardinality is demoted to sparse.
/// Strictly below [`SPARSE_MAX`] so conversions are hysteretic: a block
/// oscillating at one threshold cannot thrash between representations.
pub const DENSE_MIN: usize = 256;
/// Largest list kept in the tiny (single varint run) tier. Below this
/// size the block machinery's fixed cost (~48 B of directory + container
/// header per block, over lists whose ids spread thinly across many
/// blocks) exceeds the encoded ids; above it the blocks win on both
/// memory and intersection skipping. Mutation cost in the tiny tier is a
/// bounded `O(TINY_MAX)` re-encode (and `O(1)` for ascending appends).
pub const TINY_MAX: usize = 256;
/// A blocked list shrinking below this length collapses back to tiny
/// (hysteretic against [`TINY_MAX`], like the dense/sparse pair).
pub const TINY_MIN: usize = 128;
/// Longest tiny run (in encoded bytes) stored inline in the list header.
/// The header's 16-byte representation is a tag, an id count, a byte
/// count and these bytes; 13 holds any single `u64` id (≤ 10 bytes).
/// Storage follows the run's length alone — no hysteresis — so a list
/// restored from its checkpoint bytes lands in the tier it was written
/// from.
pub const INLINE_MAX: usize = 13;

thread_local! {
    /// Scratch decode buffer for in-place sparse updates (one mutation
    /// decodes at most [`SPARSE_MAX`] offsets; reused to avoid a per-write
    /// allocation on the oplog replay path).
    static SCRATCH_OFFSETS: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
    /// Scratch decode buffer for tiny-tier updates (≤ [`TINY_MAX`] ids).
    static SCRATCH_IDS: RefCell<Vec<EntityId>> = const { RefCell::new(Vec::new()) };
}

/// Re-encode a tiny run in place, trimming pathological slack (shrinking
/// lists would otherwise pin their peak capacity forever).
fn reencode_tiny(ids: &[EntityId], bytes: &mut Vec<u8>) {
    encode_tiny_into(ids, bytes);
    if bytes.capacity() > bytes.len() * 2 {
        bytes.shrink_to_fit();
    }
}

// ---------------------------------------------------------------------
// Varint coding
// ---------------------------------------------------------------------

#[inline]
fn push_varint16(buf: &mut Vec<u8>, mut v: u16) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn read_varint16(bytes: &[u8], at: &mut usize) -> u16 {
    let mut v = 0u16;
    let mut shift = 0u32;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u16::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn read_varint64(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Delta+varint-encode sorted, deduplicated in-block offsets: the first
/// offset is stored raw, each successor as `gap - 1` (offsets strictly
/// increase, so gaps are ≥ 1 and runs of consecutive ids encode as zeros).
fn encode_sparse(offsets: &[u16]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(offsets.len() + offsets.len() / 4);
    let mut prev = 0u16;
    for (i, &off) in offsets.iter().enumerate() {
        if i == 0 {
            push_varint16(&mut buf, off);
        } else {
            push_varint16(&mut buf, off - prev - 1);
        }
        prev = off;
    }
    buf
}

fn decode_sparse_into(bytes: &[u8], out: &mut Vec<u16>) {
    out.clear();
    let mut at = 0usize;
    let mut prev = 0u16;
    let mut first = true;
    while at < bytes.len() {
        let v = read_varint16(bytes, &mut at);
        let off = if first { v } else { prev + v + 1 };
        first = false;
        prev = off;
        out.push(off);
    }
}

/// The varints of a tiny run over sorted full ids: first id raw,
/// successors as `gap - 1`.
fn tiny_varints(ids: &[EntityId]) -> impl Iterator<Item = u64> + '_ {
    ids.iter().scan(None, |prev: &mut Option<u64>, id| {
        let v = prev.map_or(id.0, |p| id.0 - p - 1);
        *prev = Some(id.0);
        Some(v)
    })
}

/// Delta+varint-encode sorted full ids (the tiny tier).
fn encode_tiny_into(ids: &[EntityId], out: &mut Vec<u8>) {
    out.clear();
    for v in tiny_varints(ids) {
        push_varint(out, v);
    }
}

/// Membership scan over a tiny run: decode until an id `>= id`.
fn tiny_contains(bytes: &[u8], id: EntityId) -> bool {
    let mut at = 0usize;
    let mut prev = 0u64;
    let mut first = true;
    while at < bytes.len() {
        let v = read_varint64(bytes, &mut at);
        let cur = if first { v } else { prev + v + 1 };
        first = false;
        if cur >= id.0 {
            return cur == id.0;
        }
        prev = cur;
    }
    false
}

fn decode_tiny_into(bytes: &[u8], out: &mut Vec<EntityId>) {
    out.clear();
    let mut at = 0usize;
    let mut prev = 0u64;
    let mut first = true;
    while at < bytes.len() {
        let v = read_varint64(bytes, &mut at);
        let id = if first { v } else { prev + v + 1 };
        first = false;
        prev = id;
        out.push(EntityId(id));
    }
}

// ---------------------------------------------------------------------
// Containers and the block directory
// ---------------------------------------------------------------------

/// One block's membership payload.
#[derive(Clone, Debug, PartialEq)]
enum Container {
    /// Delta+varint-encoded sorted offsets (cardinality ≤ [`SPARSE_MAX`]).
    Sparse(Vec<u8>),
    /// 4096-bit bitmap (cardinality ≥ [`DENSE_MIN`]).
    Dense(Box<[u64; WORDS]>),
}

impl Container {
    fn contains(&self, off: u16) -> bool {
        match self {
            Container::Dense(words) => words[(off >> 6) as usize] & (1u64 << (off & 63)) != 0,
            Container::Sparse(bytes) => {
                let mut at = 0usize;
                let mut prev = 0u16;
                let mut first = true;
                while at < bytes.len() {
                    let v = read_varint16(bytes, &mut at);
                    let cur = if first { v } else { prev + v + 1 };
                    first = false;
                    if cur >= off {
                        return cur == off;
                    }
                    prev = cur;
                }
                false
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Container::Sparse(bytes) => bytes.capacity(),
            Container::Dense(_) => WORDS * 8,
        }
    }
}

/// One directory entry: everything block skipping needs without touching
/// the container — the key, the offset bounds, and the cardinality.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BlockMeta {
    /// `id >> 12` of every member.
    key: u64,
    /// Smallest in-block offset.
    min: u16,
    /// Largest in-block offset.
    max: u16,
    /// Number of members (1..=4096).
    card: u16,
}

#[inline]
fn split_id(id: EntityId) -> (u64, u16) {
    (id.0 >> BLOCK_SHIFT, (id.0 & (BLOCK_SPAN - 1)) as u16)
}

#[inline]
fn join_id(key: u64, off: u16) -> EntityId {
    EntityId((key << BLOCK_SHIFT) | u64::from(off))
}

/// A tiny run short enough to live in the list header: no allocation.
#[derive(Clone, Copy, Debug, Default)]
struct InlineRun {
    /// Number of encoded ids.
    len: u8,
    /// Bytes of `bytes` in use.
    used: u8,
    /// The encoded run, `used` bytes long.
    bytes: [u8; INLINE_MAX],
}

impl InlineRun {
    /// Encode sorted ids inline, or `None` if the run is too long.
    fn from_ids(ids: &[EntityId]) -> Option<Self> {
        let mut run = InlineRun::default();
        tiny_varints(ids).all(|v| run.push(v)).then_some(run)
    }

    /// Copy an already-encoded run of `len` ids, or `None` if it is too
    /// long.
    fn from_run(bytes: &[u8], len: u8) -> Option<Self> {
        if bytes.len() > INLINE_MAX {
            return None;
        }
        let mut run = InlineRun {
            len,
            used: bytes.len() as u8,
            bytes: [0; INLINE_MAX],
        };
        run.bytes[..bytes.len()].copy_from_slice(bytes);
        Some(run)
    }

    /// Append one id's varint; false (and unchanged) if it does not fit.
    fn push(&mut self, v: u64) -> bool {
        let Some(n) = put_varint(&mut self.bytes[usize::from(self.used)..], v) else {
            return false;
        };
        self.used += n as u8;
        self.len += 1;
        true
    }

    fn run(&self) -> &[u8] {
        &self.bytes[..usize::from(self.used)]
    }

    /// Largest encoded id (0 while empty): a decode of at most
    /// [`INLINE_MAX`] bytes.
    fn last(&self) -> u64 {
        PostingsIter::tiny(self.run()).last().map_or(0, |id| id.0)
    }
}

/// A tiny run too long to store inline.
#[derive(Clone, Debug)]
struct TinyRun {
    /// The encoded run (more than [`INLINE_MAX`] bytes).
    bytes: Vec<u8>,
    /// Number of encoded ids (≤ [`TINY_MAX`]).
    len: u16,
    /// Largest encoded id, so ascending inserts append in `O(1)` — the
    /// hot shape during log replay, where ids arrive mostly in order.
    last: u64,
}

/// The blocked tier: block directory + containers.
#[derive(Clone, Debug)]
struct Blocked {
    /// Sorted by `key`; parallel to `containers`.
    dir: Vec<BlockMeta>,
    /// Per-block payloads.
    containers: Vec<Container>,
    /// Total cardinality across blocks.
    len: usize,
}

/// The representation ladder of one posting list: 16 bytes.
#[derive(Clone, Debug)]
enum Repr {
    /// A tiny run of at most [`INLINE_MAX`] bytes, held in place.
    Inline(InlineRun),
    /// A longer tiny run (≤ [`TINY_MAX`] ids).
    Tiny(Box<TinyRun>),
    /// Past [`TINY_MAX`] ids (> [`TINY_MIN`] after hysteresis).
    Blocks(Box<Blocked>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline(InlineRun::default())
    }
}

/// A sorted, deduplicated subject posting list in hybrid block-compressed
/// form. See the module docs for the representation and cost model.
#[derive(Clone, Debug, Default)]
pub struct BlockPostings {
    repr: Repr,
}

// Every index slot holds one header: keep it at two words.
const _: () = assert!(std::mem::size_of::<BlockPostings>() == 16);

/// Equality is by content (the id set), not representation — a tiny list
/// and a blocked list holding the same ids are equal.
impl PartialEq for BlockPostings {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl BlockPostings {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from sorted, deduplicated ids (bulk path: one encode per
    /// block, no incremental re-encoding).
    pub fn from_sorted(ids: &[EntityId]) -> Self {
        let mut list = BlockPostings::new();
        list.store_sorted(ids);
        list
    }

    /// Replace the contents with sorted, deduplicated ids, in the tier
    /// their size picks: blocked past [`TINY_MAX`] ids, inline when the
    /// run fits in [`INLINE_MAX`] bytes, else one boxed run — re-encoded
    /// in place when the list already holds one.
    fn store_sorted(&mut self, ids: &[EntityId]) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
        if ids.len() > TINY_MAX {
            self.repr = blocks_from_sorted(ids);
            return;
        }
        if let Some(run) = InlineRun::from_ids(ids) {
            self.repr = Repr::Inline(run);
            return;
        }
        let len = ids.len() as u16;
        let last = ids.last().expect("an empty run is inline").0;
        if let Repr::Tiny(run) = &mut self.repr {
            reencode_tiny(ids, &mut run.bytes);
            run.len = len;
            run.last = last;
            return;
        }
        let mut bytes = Vec::new();
        encode_tiny_into(ids, &mut bytes);
        bytes.shrink_to_fit();
        self.repr = Repr::Tiny(Box::new(TinyRun { bytes, len, last }));
    }

    /// Decode the tiny run into scratch, let `edit` change the ids, and
    /// store the result if it reports a change.
    fn edit_tiny(&mut self, edit: impl FnOnce(&mut Vec<EntityId>) -> bool) -> bool {
        SCRATCH_IDS.with(|scratch| {
            let mut ids = scratch.borrow_mut();
            decode_tiny_into(self.tiny_run().expect("tiny tier"), &mut ids);
            if !edit(&mut ids) {
                return false;
            }
            self.store_sorted(&ids);
            true
        })
    }

    /// The encoded run of a tiny-tier list (`None` once blocked).
    fn tiny_run(&self) -> Option<&[u8]> {
        match &self.repr {
            Repr::Inline(run) => Some(run.run()),
            Repr::Tiny(run) => Some(&run.bytes),
            Repr::Blocks(_) => None,
        }
    }

    /// Number of ids in the list.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(run) => usize::from(run.len),
            Repr::Tiny(run) => usize::from(run.len),
            Repr::Blocks(blocks) => blocks.len,
        }
    }

    /// True if no ids are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks (0 while the list is tiny).
    pub fn block_count(&self) -> usize {
        match &self.repr {
            Repr::Blocks(blocks) => blocks.dir.len(),
            _ => 0,
        }
    }

    /// Number of blocks currently in dense (bitmap) form.
    pub fn dense_block_count(&self) -> usize {
        match &self.repr {
            Repr::Blocks(blocks) => blocks
                .containers
                .iter()
                .filter(|c| matches!(c, Container::Dense(_)))
                .count(),
            _ => 0,
        }
    }

    /// True while the list is in the tiny (single varint run) tier,
    /// inline or boxed.
    pub fn is_tiny(&self) -> bool {
        !matches!(self.repr, Repr::Blocks(_))
    }

    /// True while the tiny run is stored inline (no heap allocation).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Heap bytes owned by the list beyond its header: 0 inline; the box
    /// and its run; or the box, directory and containers once blocked.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline(_) => 0,
            Repr::Tiny(_) => std::mem::size_of::<TinyRun>() + self.payload_bytes(),
            Repr::Blocks(_) => std::mem::size_of::<Blocked>() + self.payload_bytes(),
        }
    }

    /// Bytes of encoded payload: the run (its bytes inline, its capacity
    /// boxed), or the directory and containers once blocked. Headers and
    /// boxes are not counted — this is what
    /// [`TripleIndex::index_bytes`](crate::TripleIndex::index_bytes) sums.
    pub(crate) fn payload_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline(run) => usize::from(run.used),
            Repr::Tiny(run) => run.bytes.capacity(),
            Repr::Blocks(blocks) => {
                blocks.dir.capacity() * std::mem::size_of::<BlockMeta>()
                    + blocks.containers.capacity() * std::mem::size_of::<Container>()
                    + blocks
                        .containers
                        .iter()
                        .map(Container::heap_bytes)
                        .sum::<usize>()
            }
        }
    }

    /// Membership test: a bounded decode-scan (tiny), or directory binary
    /// search plus one container probe (blocked).
    pub fn contains(&self, id: EntityId) -> bool {
        match &self.repr {
            Repr::Inline(run) => tiny_contains(run.run(), id),
            Repr::Tiny(run) => id.0 <= run.last && tiny_contains(&run.bytes, id),
            Repr::Blocks(blocks) => {
                let (key, off) = split_id(id);
                match blocks.dir.binary_search_by_key(&key, |m| m.key) {
                    Err(_) => false,
                    Ok(at) => {
                        let meta = blocks.dir[at];
                        off >= meta.min && off <= meta.max && blocks.containers[at].contains(off)
                    }
                }
            }
        }
    }

    /// The smallest id, if any.
    pub fn first(&self) -> Option<EntityId> {
        match &self.repr {
            Repr::Blocks(blocks) => blocks.dir.first().map(|m| join_id(m.key, m.min)),
            _ => self.iter().next(),
        }
    }

    /// The largest id, if any.
    pub fn last(&self) -> Option<EntityId> {
        match &self.repr {
            Repr::Inline(run) => (run.len > 0).then(|| EntityId(run.last())),
            Repr::Tiny(run) => Some(EntityId(run.last)),
            Repr::Blocks(blocks) => blocks.dir.last().map(|m| join_id(m.key, m.max)),
        }
    }

    /// Insert `id`; returns whether the list changed.
    pub fn insert(&mut self, id: EntityId) -> bool {
        // Ascending appends — replay's dominant shape, ids arrive mostly
        // in order — add one varint without decoding the run.
        match &mut self.repr {
            Repr::Inline(run) => {
                let appended = match run.len {
                    0 => run.push(id.0),
                    _ => {
                        let last = run.last();
                        id.0 > last && run.push(id.0 - last - 1)
                    }
                };
                if appended {
                    return true;
                }
            }
            Repr::Tiny(run) => {
                if id.0 > run.last && usize::from(run.len) < TINY_MAX {
                    // Runs stay exactly-sized while small — the slack on
                    // many near-singleton lists is what exactness buys —
                    // and switch to amortized doubling once the run is big
                    // enough that per-append reallocation would make
                    // "O(1) append" a lie.
                    let delta = id.0 - run.last - 1;
                    let need = varint_len(delta);
                    if run.bytes.capacity() - run.bytes.len() < need {
                        if run.bytes.len() < 32 {
                            run.bytes.reserve_exact(need);
                        } else {
                            run.bytes.reserve(need);
                        }
                    }
                    push_varint(&mut run.bytes, delta);
                    run.len += 1;
                    run.last = id.0;
                    return true;
                }
            }
            Repr::Blocks(blocks) => {
                let changed = blocks_insert(&mut blocks.dir, &mut blocks.containers, id);
                if changed {
                    blocks.len += 1;
                }
                return changed;
            }
        }
        // Out of order, or the run outgrew its storage: decode, insert
        // and store again (inline → boxed past INLINE_MAX bytes, boxed →
        // blocked past TINY_MAX ids).
        self.edit_tiny(|ids| match ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                ids.insert(pos, id);
                true
            }
        })
    }

    /// Remove `id`; returns whether the list changed.
    pub fn remove(&mut self, id: EntityId) -> bool {
        if let Repr::Blocks(blocks) = &mut self.repr {
            if !blocks_remove(&mut blocks.dir, &mut blocks.containers, id) {
                return false;
            }
            blocks.len -= 1;
            if blocks.len < TINY_MIN {
                // Merge: collapse back to the tiny tier.
                let ids = self.to_vec();
                self.store_sorted(&ids);
            }
            return true;
        }
        if self.last().is_none_or(|last| id > last) {
            return false;
        }
        self.edit_tiny(|ids| match ids.binary_search(&id) {
            Ok(pos) => {
                ids.remove(pos);
                true
            }
            Err(_) => false,
        })
    }

    /// Iterate ids in ascending order, decoding block by block.
    pub fn iter(&self) -> PostingsIter<'_> {
        match &self.repr {
            Repr::Inline(run) => PostingsIter::tiny(run.run()),
            Repr::Tiny(run) => PostingsIter::tiny(&run.bytes),
            Repr::Blocks(blocks) => PostingsIter(IterInner::Blocks {
                blocks,
                block: 0,
                state: BlockCursor::Unloaded,
            }),
        }
    }

    /// Materialize the full sorted id list (the decompression boundary —
    /// serving paths should prefer [`iter`](Self::iter) or the
    /// compressed-domain [`intersect_views`]).
    pub fn to_vec(&self) -> Vec<EntityId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// The directory and containers of a list the caller has already
    /// checked is past the tiny tier.
    fn blocks(&self) -> (&[BlockMeta], &[Container]) {
        match &self.repr {
            Repr::Blocks(blocks) => (&blocks.dir, &blocks.containers),
            _ => unreachable!("caller checked the list is blocked"),
        }
    }

    /// A borrowed view of this list.
    pub fn as_view(&self) -> PostingsView<'_> {
        PostingsView { list: Some(self) }
    }

    /// Append this list's compressed form to `out` block-wise: tiny runs
    /// (inline or boxed alike) and sparse containers are copied
    /// byte-for-byte, dense bitmaps as little-endian words. Nothing is
    /// decompressed — a checkpoint writes exactly the bytes the in-memory
    /// tiers already hold. Stamps are process-local and deliberately not
    /// serialized.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let Repr::Blocks(blocks) = &self.repr else {
            let run = self.tiny_run().expect("not blocked");
            out.push(WIRE_TINY);
            push_varint(out, self.len() as u64);
            push_varint(out, run.len() as u64);
            out.extend_from_slice(run);
            return;
        };
        out.push(WIRE_BLOCKS);
        push_varint(out, blocks.dir.len() as u64);
        push_varint(out, blocks.len as u64);
        for (meta, container) in blocks.dir.iter().zip(&blocks.containers) {
            push_varint(out, meta.key);
            push_varint(out, u64::from(meta.min));
            push_varint(out, u64::from(meta.max));
            push_varint(out, u64::from(meta.card));
            match container {
                Container::Sparse(bytes) => {
                    out.push(WIRE_SPARSE);
                    push_varint(out, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                }
                Container::Dense(words) => {
                    out.push(WIRE_DENSE);
                    for w in words.iter() {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decode one list previously appended by
    /// [`write_bytes`](Self::write_bytes), advancing `at` past it. Every
    /// structural invariant (tier sizes, directory order, per-block
    /// min/max/cardinality against the container bytes) is re-verified so
    /// a corrupt artifact surfaces as an error, never a malformed list.
    /// A tiny run is stored inline when its bytes fit, exactly as the
    /// mutation paths would store it.
    pub fn read_bytes(bytes: &[u8], at: &mut usize) -> crate::Result<Self> {
        match take_u8(bytes, at)? {
            WIRE_TINY => {
                let len = take_varint(bytes, at)?;
                if len > TINY_MAX as u64 {
                    return Err(wire_err("tiny run larger than TINY_MAX"));
                }
                let nbytes = take_varint(bytes, at)? as usize;
                let run = take_slice(bytes, at, nbytes)?;
                // Walk the run to count ids and recover `last`.
                let mut pos = 0usize;
                let mut prev = 0u64;
                let mut count = 0u64;
                while pos < run.len() {
                    let v = take_varint(run, &mut pos)?;
                    prev = if count == 0 {
                        v
                    } else {
                        prev.checked_add(v)
                            .and_then(|s| s.checked_add(1))
                            .ok_or_else(|| wire_err("tiny run id overflow"))?
                    };
                    count += 1;
                }
                if count != len {
                    return Err(wire_err("tiny run length mismatch"));
                }
                // Every varint is at least one byte, so an inline run's
                // id count fits its `u8`.
                let repr = match InlineRun::from_run(run, len as u8) {
                    Some(inline) => Repr::Inline(inline),
                    None => Repr::Tiny(Box::new(TinyRun {
                        bytes: run.to_vec(),
                        len: len as u16,
                        last: prev,
                    })),
                };
                Ok(BlockPostings { repr })
            }
            WIRE_BLOCKS => {
                // A block is at least key, min, max, card and a tag.
                let nblocks = take_count(bytes, at, 5)?;
                let total = take_varint(bytes, at)? as usize;
                let mut dir: Vec<BlockMeta> = Vec::with_capacity(nblocks);
                let mut containers: Vec<Container> = Vec::with_capacity(nblocks);
                let mut cards = 0usize;
                for _ in 0..nblocks {
                    let key = take_varint(bytes, at)?;
                    let min = take_varint(bytes, at)?;
                    let max = take_varint(bytes, at)?;
                    let card = take_varint(bytes, at)?;
                    if dir.last().is_some_and(|m| m.key >= key) {
                        return Err(wire_err("block directory out of order"));
                    }
                    if min > max || max >= BLOCK_SPAN || card == 0 || card > BLOCK_SPAN {
                        return Err(wire_err("block meta out of range"));
                    }
                    let (min, max, card) = (min as u16, max as u16, card as u16);
                    let container = match take_u8(bytes, at)? {
                        WIRE_SPARSE => {
                            let nbytes = take_varint(bytes, at)? as usize;
                            let payload = take_slice(bytes, at, nbytes)?;
                            verify_sparse(payload, min, max, card)?;
                            Container::Sparse(payload.to_vec())
                        }
                        WIRE_DENSE => {
                            let raw = take_slice(bytes, at, WORDS * 8)?;
                            let mut words = Box::new([0u64; WORDS]);
                            for (w, chunk) in words.iter_mut().zip(raw.chunks_exact(8)) {
                                *w = u64::from_le_bytes(chunk.try_into().unwrap());
                            }
                            let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
                            if ones != u32::from(card)
                                || dense_first(&words) != min
                                || dense_last(&words) != max
                            {
                                return Err(wire_err("dense bitmap disagrees with meta"));
                            }
                            Container::Dense(words)
                        }
                        _ => return Err(wire_err("unknown container tag")),
                    };
                    cards += usize::from(card);
                    dir.push(BlockMeta {
                        key,
                        min,
                        max,
                        card,
                    });
                    containers.push(container);
                }
                if cards != total {
                    return Err(wire_err("block cardinality sum mismatch"));
                }
                Ok(BlockPostings {
                    repr: Repr::Blocks(Box::new(Blocked {
                        dir,
                        containers,
                        len: total,
                    })),
                })
            }
            _ => Err(wire_err("unknown representation tag")),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint wire form (block-wise, no decompression)
// ---------------------------------------------------------------------

/// Representation tag: tiny varint run.
const WIRE_TINY: u8 = 0;
/// Representation tag: block directory + containers.
const WIRE_BLOCKS: u8 = 1;
/// Container tag: delta+varint sparse offsets.
const WIRE_SPARSE: u8 = 0;
/// Container tag: 4096-bit bitmap.
const WIRE_DENSE: u8 = 1;

fn wire_err(msg: &str) -> crate::SagaError {
    crate::SagaError::Storage(format!("postings decode: {msg}"))
}

/// Verify a sparse container's encoded offsets against its directory
/// entry without allocating: count, first, last, and in-range.
fn verify_sparse(payload: &[u8], min: u16, max: u16, card: u16) -> crate::Result<()> {
    let mut at = 0usize;
    let mut prev = 0u64;
    let mut count = 0u64;
    while at < payload.len() {
        let v = take_varint(payload, &mut at)?;
        prev = if count == 0 { v } else { prev + v + 1 };
        if prev >= BLOCK_SPAN {
            return Err(wire_err("sparse offset out of range"));
        }
        if count == 0 && prev != u64::from(min) {
            return Err(wire_err("sparse min disagrees with meta"));
        }
        count += 1;
    }
    if count != u64::from(card) || (count > 0 && prev != u64::from(max)) {
        return Err(wire_err("sparse container disagrees with meta"));
    }
    Ok(())
}

/// Append a block built from sorted offsets (bulk builds only; `key` must
/// be greater than every existing key).
fn push_block(
    dir: &mut Vec<BlockMeta>,
    containers: &mut Vec<Container>,
    key: u64,
    offsets: &[u16],
) {
    debug_assert!(!offsets.is_empty());
    debug_assert!(dir.last().is_none_or(|m| m.key < key));
    let container = if offsets.len() > SPARSE_MAX {
        let mut words = Box::new([0u64; WORDS]);
        for &off in offsets {
            words[(off >> 6) as usize] |= 1u64 << (off & 63);
        }
        Container::Dense(words)
    } else {
        Container::Sparse(encode_sparse(offsets))
    };
    dir.push(BlockMeta {
        key,
        min: offsets[0],
        max: *offsets.last().unwrap(),
        card: offsets.len() as u16,
    });
    containers.push(container);
}

/// Blocked `Repr` from sorted, deduplicated ids.
fn blocks_from_sorted(ids: &[EntityId]) -> Repr {
    let mut dir: Vec<BlockMeta> = Vec::new();
    let mut containers: Vec<Container> = Vec::new();
    let mut offsets: Vec<u16> = Vec::new();
    let mut cur_key: Option<u64> = None;
    for &id in ids {
        let (key, off) = split_id(id);
        if cur_key != Some(key) {
            if let Some(k) = cur_key {
                push_block(&mut dir, &mut containers, k, &offsets);
            }
            offsets.clear();
            cur_key = Some(key);
        }
        offsets.push(off);
    }
    if let Some(k) = cur_key {
        push_block(&mut dir, &mut containers, k, &offsets);
    }
    Repr::Blocks(Box::new(Blocked {
        dir,
        containers,
        len: ids.len(),
    }))
}

/// Insert into the blocked tier; true if membership changed.
fn blocks_insert(dir: &mut Vec<BlockMeta>, containers: &mut Vec<Container>, id: EntityId) -> bool {
    let (key, off) = split_id(id);
    let at = match dir.binary_search_by_key(&key, |m| m.key) {
        Err(at) => {
            dir.insert(
                at,
                BlockMeta {
                    key,
                    min: off,
                    max: off,
                    card: 1,
                },
            );
            let mut buf = Vec::with_capacity(2);
            push_varint16(&mut buf, off);
            containers.insert(at, Container::Sparse(buf));
            return true;
        }
        Ok(at) => at,
    };
    match &mut containers[at] {
        Container::Dense(words) => {
            let slot = &mut words[(off >> 6) as usize];
            let bit = 1u64 << (off & 63);
            if *slot & bit != 0 {
                return false;
            }
            *slot |= bit;
        }
        Container::Sparse(_) => {
            // Decode, insert, re-encode in scratch; promotion to dense
            // (the split threshold) is applied after the borrow ends.
            let promoted = SCRATCH_OFFSETS.with(|scratch| {
                let mut offsets = scratch.borrow_mut();
                let Container::Sparse(bytes) = &mut containers[at] else {
                    unreachable!("matched sparse above");
                };
                decode_sparse_into(bytes, &mut offsets);
                let pos = match offsets.binary_search(&off) {
                    Ok(_) => return None,
                    Err(pos) => pos,
                };
                offsets.insert(pos, off);
                if offsets.len() > SPARSE_MAX {
                    let mut words = Box::new([0u64; WORDS]);
                    for &o in offsets.iter() {
                        words[(o >> 6) as usize] |= 1u64 << (o & 63);
                    }
                    Some(Some(words))
                } else {
                    *bytes = encode_sparse(&offsets);
                    Some(None)
                }
            });
            match promoted {
                None => return false,
                Some(Some(words)) => containers[at] = Container::Dense(words),
                Some(None) => {}
            }
        }
    }
    let meta = &mut dir[at];
    meta.card += 1;
    meta.min = meta.min.min(off);
    meta.max = meta.max.max(off);
    true
}

/// Remove from the blocked tier; true if membership changed.
fn blocks_remove(dir: &mut Vec<BlockMeta>, containers: &mut Vec<Container>, id: EntityId) -> bool {
    let (key, off) = split_id(id);
    let Ok(at) = dir.binary_search_by_key(&key, |m| m.key) else {
        return false;
    };
    let meta = dir[at];
    if off < meta.min || off > meta.max {
        return false;
    }
    match &mut containers[at] {
        Container::Dense(words) => {
            let slot = &mut words[(off >> 6) as usize];
            let bit = 1u64 << (off & 63);
            if *slot & bit == 0 {
                return false;
            }
            *slot &= !bit;
            let card = meta.card - 1;
            if usize::from(card) < DENSE_MIN {
                // Demote: the block fell through the merge threshold.
                let mut offsets = Vec::with_capacity(usize::from(card));
                for_each_set_bit(words, |off| offsets.push(off));
                let m = &mut dir[at];
                m.card = card;
                m.min = offsets[0];
                m.max = *offsets.last().unwrap();
                containers[at] = Container::Sparse(encode_sparse(&offsets));
            } else {
                let m = &mut dir[at];
                m.card = card;
                if off == m.min {
                    m.min = dense_first(words);
                }
                if off == m.max {
                    m.max = dense_last(words);
                }
            }
            true
        }
        Container::Sparse(_) => {
            let removed = SCRATCH_OFFSETS.with(|scratch| {
                let mut offsets = scratch.borrow_mut();
                let Container::Sparse(bytes) = &mut containers[at] else {
                    unreachable!("matched sparse above");
                };
                decode_sparse_into(bytes, &mut offsets);
                let Ok(pos) = offsets.binary_search(&off) else {
                    return None;
                };
                offsets.remove(pos);
                if offsets.is_empty() {
                    return Some(None);
                }
                *bytes = encode_sparse(&offsets);
                Some(Some((offsets[0], *offsets.last().unwrap())))
            });
            match removed {
                None => false,
                Some(None) => {
                    dir.remove(at);
                    containers.remove(at);
                    true
                }
                Some(Some((min, max))) => {
                    let m = &mut dir[at];
                    m.card -= 1;
                    m.min = min;
                    m.max = max;
                    true
                }
            }
        }
    }
}

/// Visit every set bit of a dense bitmap as its in-block offset, in
/// ascending order — the one word-walk shared by every dense decode/emit
/// path.
#[inline]
fn for_each_set_bit(words: &[u64; WORDS], mut f: impl FnMut(u16)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let tz = bits.trailing_zeros();
            f((w as u16) << 6 | tz as u16);
            bits &= bits - 1;
        }
    }
}

fn dense_first(words: &[u64; WORDS]) -> u16 {
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            return (w as u16) << 6 | word.trailing_zeros() as u16;
        }
    }
    unreachable!("dense container with no bits set")
}

fn dense_last(words: &[u64; WORDS]) -> u16 {
    for (w, &word) in words.iter().enumerate().rev() {
        if word != 0 {
            return (w as u16) << 6 | (63 - word.leading_zeros()) as u16;
        }
    }
    unreachable!("dense container with no bits set")
}

impl<'a> IntoIterator for &'a BlockPostings {
    type Item = EntityId;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

impl FromIterator<EntityId> for BlockPostings {
    /// Collect from an id stream in any order (sorts + dedups first).
    fn from_iter<I: IntoIterator<Item = EntityId>>(iter: I) -> Self {
        let mut ids: Vec<EntityId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        BlockPostings::from_sorted(&ids)
    }
}

/// Decode state of the ordered iterator within one block.
enum BlockCursor {
    Unloaded,
    Sparse { at: usize, prev: u16, first: bool },
    Dense { word: usize, bits: u64 },
}

/// Ordered iterator over a [`BlockPostings`] (streaming decode; no full
/// materialization).
pub struct PostingsIter<'a>(IterInner<'a>);

enum IterInner<'a> {
    /// Tiny tier: one varint run over full ids.
    Tiny {
        /// Encoded run.
        bytes: &'a [u8],
        /// Byte position.
        at: usize,
        /// Previously decoded id.
        prev: u64,
        /// True before the first id is decoded.
        first: bool,
    },
    /// Blocked tier: directory walk with per-block decode state.
    Blocks {
        /// The blocks being decoded.
        blocks: &'a Blocked,
        /// Current directory position.
        block: usize,
        /// Decode state within the current block.
        state: BlockCursor,
    },
}

impl<'a> PostingsIter<'a> {
    /// An iterator over nothing.
    fn empty() -> Self {
        PostingsIter::tiny(&[])
    }

    /// An iterator over one encoded tiny run.
    fn tiny(bytes: &'a [u8]) -> Self {
        PostingsIter(IterInner::Tiny {
            bytes,
            at: 0,
            prev: 0,
            first: true,
        })
    }
}

impl Iterator for PostingsIter<'_> {
    type Item = EntityId;

    fn next(&mut self) -> Option<EntityId> {
        let (blocks, block, state) = match &mut self.0 {
            IterInner::Tiny {
                bytes,
                at,
                prev,
                first,
            } => {
                if *at >= bytes.len() {
                    return None;
                }
                let v = read_varint64(bytes, at);
                let id = if *first { v } else { *prev + v + 1 };
                *first = false;
                *prev = id;
                return Some(EntityId(id));
            }
            IterInner::Blocks {
                blocks,
                block,
                state,
            } => (*blocks, block, state),
        };
        let Blocked {
            dir, containers, ..
        } = blocks;
        loop {
            if *block >= dir.len() {
                return None;
            }
            let key = dir[*block].key;
            match state {
                BlockCursor::Unloaded => {
                    *state = match &containers[*block] {
                        Container::Sparse(_) => BlockCursor::Sparse {
                            at: 0,
                            prev: 0,
                            first: true,
                        },
                        Container::Dense(words) => BlockCursor::Dense {
                            word: 0,
                            bits: words[0],
                        },
                    };
                }
                BlockCursor::Sparse { at, prev, first } => {
                    let Container::Sparse(bytes) = &containers[*block] else {
                        unreachable!("cursor/container mismatch");
                    };
                    if *at >= bytes.len() {
                        *block += 1;
                        *state = BlockCursor::Unloaded;
                        continue;
                    }
                    let v = read_varint16(bytes, at);
                    let off = if *first { v } else { *prev + v + 1 };
                    *first = false;
                    *prev = off;
                    return Some(join_id(key, off));
                }
                BlockCursor::Dense { word, bits } => {
                    let Container::Dense(words) = &containers[*block] else {
                        unreachable!("cursor/container mismatch");
                    };
                    while *bits == 0 {
                        *word += 1;
                        if *word >= WORDS {
                            break;
                        }
                        *bits = words[*word];
                    }
                    if *word >= WORDS {
                        *block += 1;
                        *state = BlockCursor::Unloaded;
                        continue;
                    }
                    let tz = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some(join_id(key, (*word as u16) << 6 | tz as u16));
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            // ≥1 byte per remaining id.
            IterInner::Tiny { bytes, at, .. } => (0, Some(bytes.len().saturating_sub(*at))),
            // Exact only at the start; a cheap upper bound afterwards.
            IterInner::Blocks { blocks, .. } => (0, Some(blocks.len)),
        }
    }
}

// ---------------------------------------------------------------------
// Views and cursors — the serving API surface
// ---------------------------------------------------------------------

/// A borrowed, possibly-empty view of one probe's posting list — what the
/// [`TripleIndex`](crate::TripleIndex) hands out without copying.
///
/// The empty view (probe missed the index entirely) is a first-class
/// value, so callers never branch on `Option`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PostingsView<'a> {
    list: Option<&'a BlockPostings>,
}

impl<'a> PostingsView<'a> {
    /// The view of a posting list that does not exist.
    pub fn empty() -> Self {
        PostingsView { list: None }
    }

    /// View a concrete list.
    pub fn of(list: &'a BlockPostings) -> Self {
        PostingsView { list: Some(list) }
    }

    /// Number of ids behind the view.
    pub fn len(&self) -> usize {
        self.list.map_or(0, BlockPostings::len)
    }

    /// True if the view holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (directory search + one container probe).
    pub fn contains(&self, id: EntityId) -> bool {
        self.list.is_some_and(|l| l.contains(id))
    }

    /// Number of blocks behind the view (0 for tiny/empty lists).
    pub fn block_count(&self) -> usize {
        self.list.map_or(0, BlockPostings::block_count)
    }

    /// Number of dense (bitmap) blocks behind the view.
    pub fn dense_block_count(&self) -> usize {
        self.list.map_or(0, BlockPostings::dense_block_count)
    }

    /// Ordered id iterator (streaming decode).
    pub fn iter(&self) -> PostingsIter<'a> {
        match self.list {
            Some(list) => list.iter(),
            None => PostingsIter::empty(),
        }
    }

    /// Materialize the sorted id list.
    pub fn to_vec(&self) -> Vec<EntityId> {
        self.list.map_or_else(Vec::new, BlockPostings::to_vec)
    }

    /// Snapshot into an owned [`PostingsCursor`] (clones the *compressed*
    /// blocks — the cheap way to carry a posting list out of a lock).
    pub fn to_cursor(&self) -> PostingsCursor {
        PostingsCursor {
            list: self.list.cloned().unwrap_or_default(),
        }
    }

    /// Approximate heap bytes behind the view.
    pub fn heap_bytes(&self) -> usize {
        self.list.map_or(0, BlockPostings::heap_bytes)
    }
}

impl<'a> IntoIterator for PostingsView<'a> {
    type Item = EntityId;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

impl PartialEq for PostingsView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<&[EntityId]> for PostingsView<'_> {
    fn eq(&self, other: &&[EntityId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<&[EntityId; N]> for PostingsView<'_> {
    fn eq(&self, other: &&[EntityId; N]) -> bool {
        self.len() == N && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<EntityId>> for PostingsView<'_> {
    fn eq(&self, other: &Vec<EntityId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// An owned snapshot of one probe's posting list in compressed form — the
/// unit [`GraphRead`](crate::GraphRead) backends serve postings through.
///
/// Locked backends cannot hand out borrowed views (the borrow would
/// outlive the read lock, and a partitioned store unions its partitions'
/// views into a new list anyway); a cursor owns the compressed blocks,
/// which is far cheaper than materializing `Vec<EntityId>` on dense lists
/// and carries the block directory along for compressed-domain
/// intersection on the caller's side.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PostingsCursor {
    list: BlockPostings,
}

impl PostingsCursor {
    /// The empty cursor.
    pub fn empty() -> Self {
        PostingsCursor::default()
    }

    /// Wrap an owned list.
    pub fn from_list(list: BlockPostings) -> Self {
        PostingsCursor { list }
    }

    /// Build from sorted, deduplicated ids.
    pub fn from_sorted(ids: Vec<EntityId>) -> Self {
        PostingsCursor {
            list: BlockPostings::from_sorted(&ids),
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no ids are present.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: EntityId) -> bool {
        self.list.contains(id)
    }

    /// Ordered id iterator.
    pub fn iter(&self) -> PostingsIter<'_> {
        self.list.iter()
    }

    /// Materialize the sorted id list.
    pub fn to_vec(&self) -> Vec<EntityId> {
        self.list.to_vec()
    }

    /// Borrow as a view (for [`intersect_views`]).
    pub fn as_view(&self) -> PostingsView<'_> {
        self.list.as_view()
    }

    /// Approximate heap bytes held by the snapshot.
    pub fn heap_bytes(&self) -> usize {
        self.list.heap_bytes()
    }
}

impl<'a> IntoIterator for &'a PostingsCursor {
    type Item = EntityId;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

impl PartialEq<Vec<EntityId>> for PostingsCursor {
    fn eq(&self, other: &Vec<EntityId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[EntityId]> for PostingsCursor {
    fn eq(&self, other: &&[EntityId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

// ---------------------------------------------------------------------
// Compressed-domain set algebra
// ---------------------------------------------------------------------

/// First directory position in `dir[from..]` whose key is `>= key`, found
/// by doubling steps then binary search — the "gallop into the directory"
/// skip path of sparse intersection.
fn gallop_dir(dir: &[BlockMeta], from: usize, key: u64) -> usize {
    if from >= dir.len() || dir[from].key >= key {
        return from;
    }
    let mut step = 1;
    let mut lo = from;
    let mut hi = from + 1;
    while hi < dir.len() && dir[hi].key < key {
        lo = hi;
        step *= 2;
        hi = (hi + step).min(dir.len());
        if hi == dir.len() {
            break;
        }
    }
    lo + dir[lo..hi].partition_point(|m| m.key < key)
}

/// Intersect posting lists **in the compressed domain**: gallop the block
/// directories to find common keys, `AND` dense×dense blocks word-wise,
/// and decode sparse blocks (≤ [`SPARSE_MAX`] offsets) into scratch for
/// membership tests — full lists are never materialized. A conjunction
/// involving a tiny list short-circuits to candidate testing: at most
/// [`TINY_MAX`] point probes against the other lists.
///
/// Complexity: `O(common blocks · block work)` plus
/// `O(|smallest dir| · Σ log |other dir|)` directory galloping; block work
/// is 64 word-`AND`s (dense) or `O(smallest block card)` probes (mixed).
pub fn intersect_views(lists: &[PostingsView]) -> Vec<EntityId> {
    intersect_views_limit(lists, usize::MAX)
}

/// The first `limit` ids (ascending) of [`intersect_views`], at a cost
/// that follows `limit`, not the answer: evaluation stops inside the block
/// that yields the `limit`-th id — mid-word for dense×dense blocks — and
/// no later block's directory entry or container is touched.
/// `usize::MAX` means "no budget" and is exactly [`intersect_views`].
pub fn intersect_views_limit(lists: &[PostingsView], limit: usize) -> Vec<EntityId> {
    intersect_counting_blocks(lists, limit).0
}

/// [`intersect_views_limit`], also returning how many driver blocks the
/// block loop examined (0 on the tiny path) — what the tests pin "`LIMIT
/// k` costs `k`" with, instead of a stopwatch.
fn intersect_counting_blocks(lists: &[PostingsView], limit: usize) -> (Vec<EntityId>, usize) {
    let mut out = Vec::new();
    let Some(driver_at) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return (out, 0);
    };
    // The driver is the shortest list, so an empty view anywhere lands here.
    let Some(driver) = lists[driver_at].list.filter(|l| !l.is_empty()) else {
        return (out, 0);
    };
    if limit == 0 {
        return (out, 0);
    }
    let others: Vec<&BlockPostings> = lists
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != driver_at)
        .filter_map(|(_, v)| v.list)
        .collect();

    // Any tiny participant bounds the driver at TINY_MAX candidates:
    // point probes beat block alignment at that size.
    if driver.is_tiny() || others.iter().any(|l| l.is_tiny()) {
        out.extend(
            driver
                .iter()
                .filter(|&id| others.iter().all(|l| l.contains(id)))
                .take(limit),
        );
        return (out, 0);
    }

    let (driver_dir, driver_containers) = driver.blocks();
    let others: Vec<(&[BlockMeta], &[Container])> = others.iter().map(|l| l.blocks()).collect();

    let mut cursors = vec![0usize; others.len()];
    // Scratch reused across blocks: this block's containers with their
    // cardinalities (the smallest swapped to the front), its decoded
    // offsets, and one decode buffer per remaining sparse container.
    let mut block: Vec<(u16, &Container)> = Vec::with_capacity(lists.len());
    let mut decoded: Vec<u16> = Vec::new();
    let mut rest_decoded: Vec<Vec<u16>> = vec![Vec::new(); others.len()];
    let mut visited = 0usize;

    'blocks: for (meta, container) in driver_dir.iter().zip(driver_containers) {
        visited += 1;
        // Locate this block key in every other directory, galloping from
        // the previous match (directories are both sorted by key).
        let mut lo = meta.min;
        let mut hi = meta.max;
        block.clear();
        block.push((meta.card, container));
        for (&(dir, containers), cursor) in others.iter().zip(cursors.iter_mut()) {
            let at = gallop_dir(dir, *cursor, meta.key);
            if at >= dir.len() {
                // This and every later driver block miss this list.
                break 'blocks;
            }
            *cursor = at;
            if dir[at].key != meta.key {
                continue 'blocks;
            }
            lo = lo.max(dir[at].min);
            hi = hi.min(dir[at].max);
            block.push((dir[at].card, &containers[at]));
        }
        if lo > hi {
            continue; // Directory-only reject: offset ranges don't overlap.
        }

        // The smallest container in this block is the in-block driver.
        let smallest_at = (0..block.len())
            .min_by_key(|&i| block[i].0)
            .expect("the driver's own container is always present");
        block.swap(0, smallest_at);
        let (smallest, rest) = (block[0].1, &block[1..]);

        if block.iter().all(|(_, c)| matches!(c, Container::Dense(_))) {
            // Dense × dense: AND word by word, emitting set bits as they
            // appear, so a met budget skips the rest of the bitmap.
            let Container::Dense(words) = smallest else {
                unreachable!("all dense")
            };
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                for (_, c) in rest {
                    let Container::Dense(other) = c else {
                        unreachable!("all dense")
                    };
                    bits &= other[w];
                }
                while bits != 0 {
                    let off = (w as u16) << 6 | bits.trailing_zeros() as u16;
                    out.push(join_id(meta.key, off));
                    if out.len() == limit {
                        break 'blocks;
                    }
                    bits &= bits - 1;
                }
            }
            continue;
        }

        // Mixed block: decode the smallest container once, and decode each
        // sparse rest container once too (a linear `Container::contains`
        // per candidate would make sparse×sparse blocks quadratic) — dense
        // rest containers stay O(1) bit tests.
        decode_container(smallest, &mut decoded);
        for ((_, c), buf) in rest.iter().zip(rest_decoded.iter_mut()) {
            if let Container::Sparse(bytes) = c {
                decode_sparse_into(bytes, buf);
            }
        }
        for &off in decoded.iter().filter(|&&off| off >= lo && off <= hi) {
            let hit = rest
                .iter()
                .zip(&rest_decoded)
                .all(|((_, c), sorted)| match c {
                    Container::Dense(words) => {
                        words[(off >> 6) as usize] & (1u64 << (off & 63)) != 0
                    }
                    Container::Sparse(_) => sorted.binary_search(&off).is_ok(),
                });
            if hit {
                out.push(join_id(meta.key, off));
                if out.len() == limit {
                    break 'blocks;
                }
            }
        }
    }
    (out, visited)
}

fn decode_container(container: &Container, out: &mut Vec<u16>) {
    match container {
        Container::Sparse(bytes) => decode_sparse_into(bytes, out),
        Container::Dense(words) => {
            out.clear();
            for_each_set_bit(words, |off| out.push(off));
        }
    }
}

/// Union posting lists into one owned [`BlockPostings`] — the cross-shard
/// merge path (shards partition the id space, so inputs are disjoint, but
/// the merge is correct for overlapping inputs too).
///
/// Works per block: all blocked containers sharing a key are OR-ed
/// through one dense scratch bitmap, then stored dense or re-encoded
/// sparse by the steady-state thresholds. Tiny inputs are decoded once
/// into a sorted side list that joins the block-wise merge as one more
/// (blocked) input — the whole union is linear in total input size, with
/// no per-id re-encoding.
pub fn union_views(lists: &[PostingsView]) -> BlockPostings {
    let present: Vec<&BlockPostings> = lists.iter().filter_map(|v| v.list).collect();
    let (tiny, mut blocked): (Vec<&BlockPostings>, Vec<&BlockPostings>) =
        present.into_iter().partition(|l| l.is_tiny());
    let mut extra: Vec<EntityId> = tiny.iter().flat_map(|l| l.iter()).collect();
    extra.sort_unstable();
    extra.dedup();
    if blocked.is_empty() {
        return BlockPostings::from_sorted(&extra);
    }
    // Force the side list into blocked form so it can join the block-wise
    // merge regardless of its size.
    let extra_list = (!extra.is_empty()).then(|| BlockPostings {
        repr: blocks_from_sorted(&extra),
    });
    if let Some(list) = &extra_list {
        blocked.push(list);
    }
    let out = match blocked.len() {
        1 => blocked[0].clone(),
        _ => union_blocked(&blocked),
    };
    // Normalize tiny unions back to the tiny tier.
    if out.len() <= TINY_MAX {
        let ids = out.to_vec();
        return BlockPostings::from_sorted(&ids);
    }
    out
}

fn union_blocked(lists: &[&BlockPostings]) -> BlockPostings {
    let dirs: Vec<(&[BlockMeta], &[Container])> = lists.iter().map(|l| l.blocks()).collect();
    let mut dir: Vec<BlockMeta> = Vec::new();
    let mut containers: Vec<Container> = Vec::new();
    let mut len = 0usize;
    let mut cursors = vec![0usize; dirs.len()];
    let mut acc = [0u64; WORDS];
    let mut offsets: Vec<u16> = Vec::new();
    // Walk block keys in ascending order across all inputs.
    while let Some(key) = cursors
        .iter()
        .zip(dirs.iter())
        .filter_map(|(&c, (d, _))| d.get(c).map(|m| m.key))
        .min()
    {
        acc.fill(0);
        for (cursor, (d, c)) in cursors.iter_mut().zip(dirs.iter()) {
            let Some(meta) = d.get(*cursor) else {
                continue;
            };
            if meta.key != key {
                continue;
            }
            match &c[*cursor] {
                Container::Dense(words) => {
                    for (a, b) in acc.iter_mut().zip(words.iter()) {
                        *a |= *b;
                    }
                }
                Container::Sparse(bytes) => {
                    decode_sparse_into(bytes, &mut offsets);
                    for &off in offsets.iter() {
                        acc[(off >> 6) as usize] |= 1u64 << (off & 63);
                    }
                }
            }
            *cursor += 1;
        }
        let card = acc.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if card == 0 {
            continue;
        }
        let container = if card > SPARSE_MAX {
            Container::Dense(Box::new(acc))
        } else {
            offsets.clear();
            for_each_set_bit(&acc, |off| offsets.push(off));
            Container::Sparse(encode_sparse(&offsets))
        };
        dir.push(BlockMeta {
            key,
            min: dense_first(&acc),
            max: dense_last(&acc),
            card: card as u16,
        });
        containers.push(container);
        len += card;
    }
    BlockPostings {
        repr: Repr::Blocks(Box::new(Blocked {
            dir,
            containers,
            len,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: impl IntoIterator<Item = u64>) -> Vec<EntityId> {
        v.into_iter().map(EntityId).collect()
    }

    #[test]
    fn insert_remove_contains_roundtrip_tiny() {
        let mut list = BlockPostings::new();
        let sample = ids([0, 1, 63, 64, 4095, 4096, 4097, 40_000, 1 << 40]);
        for &id in &sample {
            assert!(list.insert(id));
            assert!(!list.insert(id), "duplicate insert is a no-op");
        }
        assert!(list.is_tiny(), "9 ids stay tiny");
        assert_eq!(list.len(), sample.len());
        assert_eq!(list.to_vec(), sample);
        for &id in &sample {
            assert!(list.contains(id));
        }
        assert!(!list.contains(EntityId(2)));
        assert!(!list.contains(EntityId(5000)));
        // Tiny lists cost a few bytes per id, not 8.
        assert!(
            list.heap_bytes() < sample.len() * std::mem::size_of::<EntityId>(),
            "tiny heap {} vs plain {}",
            list.heap_bytes(),
            sample.len() * 8
        );
        for &id in &sample {
            assert!(list.remove(id));
            assert!(!list.remove(id), "double remove is a no-op");
        }
        assert!(list.is_empty());
        assert_eq!(list.block_count(), 0);
    }

    #[test]
    fn wire_roundtrip_preserves_every_tier() {
        // Inline, boxed tiny, sparse-only, mixed sparse+dense, and empty
        // lists all survive write_bytes → read_bytes byte-identically.
        let shapes: Vec<Vec<EntityId>> = vec![
            ids([]),
            ids([7]),
            ids([u64::MAX]),
            ids([1 << 62, (1 << 62) + 201, (1 << 62) + 402]), // 9 + 2 + 2 bytes: inline
            ids([1 << 62, (1 << 62) + 201, (1 << 62) + 402, (1 << 62) + 403]), // 14: boxed
            ids([0, 1, 63, 64, 4095, 4096, 40_000, 1 << 40]),
            ids((0u64..600).map(|i| i * 97)), // sparse blocks
            ids(0u64..3000),                  // one dense block
            ids((0u64..5000).filter(|i| i % 3 != 0)), // mixed containers
        ];
        let mut buf = Vec::new();
        let inline: Vec<bool> = shapes
            .iter()
            .map(|sample| BlockPostings::from_sorted(sample).is_inline())
            .collect();
        assert_eq!(&inline[..5], &[true, true, true, true, false]);
        for sample in &shapes {
            let list = BlockPostings::from_sorted(sample);
            buf.clear();
            list.write_bytes(&mut buf);
            let mut at = 0usize;
            let back = BlockPostings::read_bytes(&buf, &mut at).unwrap();
            assert_eq!(at, buf.len(), "decode consumes the full payload");
            assert_eq!(back.to_vec(), *sample);
            assert_eq!(back.len(), list.len());
            assert_eq!(back.block_count(), list.block_count());
            assert_eq!(back.dense_block_count(), list.dense_block_count());
            assert_eq!(back.is_tiny(), list.is_tiny());
            assert_eq!(back.is_inline(), list.is_inline());
            let mut again = Vec::new();
            back.write_bytes(&mut again);
            assert_eq!(again, buf, "re-encode is byte-identical");
            // Mutations still work on a restored list.
            let mut back = back;
            back.insert(EntityId(123_456_789));
            assert!(back.contains(EntityId(123_456_789)));
        }
        // Several lists concatenated in one buffer decode in sequence.
        buf.clear();
        for sample in &shapes {
            BlockPostings::from_sorted(sample).write_bytes(&mut buf);
        }
        let mut at = 0usize;
        for sample in &shapes {
            let back = BlockPostings::read_bytes(&buf, &mut at).unwrap();
            assert_eq!(back.to_vec(), *sample);
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        let list = BlockPostings::from_sorted(&ids(0u64..3000));
        let mut buf = Vec::new();
        list.write_bytes(&mut buf);
        // Truncation at any prefix must error, never panic.
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            let mut at = 0usize;
            assert!(
                BlockPostings::read_bytes(&buf[..cut], &mut at).is_err(),
                "truncated at {cut}"
            );
        }
        // A flipped byte in the container area is caught by the meta
        // cross-checks (cardinality / bounds).
        let mut bad = buf.clone();
        let at_payload = bad.len() - 10;
        bad[at_payload] ^= 0xff;
        let mut at = 0usize;
        assert!(BlockPostings::read_bytes(&bad, &mut at).is_err());
        // An unknown representation tag errors.
        let mut at = 0usize;
        assert!(BlockPostings::read_bytes(&[9], &mut at).is_err());
    }

    #[test]
    fn out_of_order_tiny_inserts_re_encode() {
        let mut list = BlockPostings::new();
        for id in ids([500, 3, 90_000, 41, 4_096]) {
            assert!(list.insert(id));
        }
        assert_eq!(list.to_vec(), ids([3, 41, 500, 4_096, 90_000]));
        assert!(list.remove(EntityId(500)));
        assert_eq!(list.to_vec(), ids([3, 41, 4_096, 90_000]));
        assert_eq!(list.last(), Some(EntityId(90_000)));
        assert!(list.remove(EntityId(90_000)));
        assert_eq!(list.last(), Some(EntityId(4_096)));
    }

    #[test]
    fn tiny_to_blocks_split_and_merge_are_hysteretic() {
        let mut list = BlockPostings::new();
        let sample = ids((0..=(TINY_MAX as u64)).map(|i| i * 1000));
        for &id in &sample {
            list.insert(id);
        }
        assert!(!list.is_tiny(), "split past TINY_MAX");
        assert_eq!(list.to_vec(), sample);
        // Shrinking toward TINY_MIN keeps the blocked form…
        for &id in &sample[TINY_MIN..] {
            list.remove(id);
        }
        assert!(!list.is_tiny(), "hysteresis: still blocked at TINY_MIN");
        // …one more removal merges back to tiny.
        assert!(list.remove(sample[0]));
        assert!(list.is_tiny(), "merged below TINY_MIN");
        assert_eq!(list.to_vec(), sample[1..TINY_MIN].to_vec());
    }

    #[test]
    fn dense_promotion_and_demotion_are_hysteretic() {
        let mut list = BlockPostings::new();
        // Fill one block past the promote threshold.
        for i in 0..=(SPARSE_MAX as u64) {
            list.insert(EntityId(i * 2)); // 2·512 < 4096: one block
        }
        assert_eq!(list.block_count(), 1);
        assert_eq!(list.dense_block_count(), 1, "promoted past SPARSE_MAX");
        let expected: Vec<EntityId> = ids((0..=(SPARSE_MAX as u64)).map(|i| i * 2));
        assert_eq!(list.to_vec(), expected);
        // Removing back below SPARSE_MAX but above DENSE_MIN stays dense.
        for i in (DENSE_MIN as u64 + 1)..=(SPARSE_MAX as u64) {
            assert!(list.remove(EntityId(i * 2)));
        }
        assert_eq!(list.dense_block_count(), 1, "hysteresis: still dense");
        // Exactly DENSE_MIN members is still dense; one below demotes.
        assert!(list.remove(EntityId(0)));
        assert_eq!(list.dense_block_count(), 1, "at DENSE_MIN: still dense");
        assert!(list.remove(EntityId(2)));
        assert_eq!(list.dense_block_count(), 0, "demoted below DENSE_MIN");
        let expected: Vec<EntityId> = ids((2..=(DENSE_MIN as u64)).map(|i| i * 2));
        assert_eq!(list.to_vec(), expected);
    }

    #[test]
    fn from_sorted_matches_incremental_build() {
        let sample: Vec<EntityId> = ids((0..10_000).filter(|i| i % 3 != 0));
        let bulk = BlockPostings::from_sorted(&sample);
        let mut incremental = BlockPostings::new();
        for &id in &sample {
            incremental.insert(id);
        }
        assert_eq!(bulk.to_vec(), sample);
        assert_eq!(incremental.to_vec(), sample);
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk, incremental, "content equality across build paths");
    }

    #[test]
    fn min_max_directory_tracks_removals() {
        let n = (TINY_MAX + 44) as u64; // blocked: past the tiny tier
        let sample = ids((0..n).map(|i| i * 10));
        let mut list = BlockPostings::from_sorted(&sample);
        assert!(!list.is_tiny());
        list.remove(EntityId(0));
        assert_eq!(list.first(), Some(EntityId(10)));
        list.remove(EntityId((n - 1) * 10));
        assert_eq!(list.last(), Some(EntityId((n - 2) * 10)));
    }

    #[test]
    fn intersect_views_matches_naive() {
        let a = BlockPostings::from_sorted(&ids((0..30_000).step_by(3)));
        let b = BlockPostings::from_sorted(&ids((0..30_000).step_by(5)));
        let c = BlockPostings::from_sorted(&ids(0..30_000)); // dense blocks
        let got = intersect_views(&[a.as_view(), b.as_view(), c.as_view()]);
        let expected: Vec<EntityId> = ids((0..30_000).filter(|i| i % 15 == 0));
        assert_eq!(got, expected);
        // Empty and singleton cases.
        assert!(intersect_views(&[]).is_empty());
        assert!(intersect_views(&[a.as_view(), PostingsView::empty()]).is_empty());
        assert_eq!(intersect_views(&[a.as_view()]), a.to_vec());
    }

    #[test]
    fn intersections_with_tiny_lists_candidate_test() {
        let tiny = BlockPostings::from_sorted(&ids([5, 4_000, 4_096, 29_999]));
        let evens: Vec<EntityId> = ids((0..30_000).step_by(2));
        let big = BlockPostings::from_sorted(&evens);
        assert!(tiny.is_tiny());
        let got = intersect_views(&[tiny.as_view(), big.as_view()]);
        assert_eq!(got, ids([4_000, 4_096]));
        let got = intersect_views(&[big.as_view(), tiny.as_view()]);
        assert_eq!(got, ids([4_000, 4_096]));
    }

    #[test]
    fn dense_by_dense_intersection_uses_bitmap_blocks() {
        let a = BlockPostings::from_sorted(&ids((0..20_000).filter(|i| i % 2 == 0)));
        let b = BlockPostings::from_sorted(&ids((0..20_000).filter(|i| i % 3 == 0)));
        assert!(a.dense_block_count() > 0);
        assert!(b.dense_block_count() > 0);
        let got = intersect_views(&[a.as_view(), b.as_view()]);
        let expected: Vec<EntityId> = ids((0..20_000).filter(|i| i % 6 == 0));
        assert_eq!(got, expected);
    }

    /// `intersect_views_limit(lists, k)` against the prefix of the
    /// unlimited answer, for budgets around every interesting edge.
    fn assert_prefix_law(lists: &[PostingsView], budgets: &[usize]) {
        let full = intersect_views(lists);
        for &k in budgets
            .iter()
            .chain(&[0, 1, full.len(), full.len() + 1, usize::MAX])
        {
            assert_eq!(
                intersect_views_limit(lists, k),
                full[..k.min(full.len())],
                "limit {k} of {} hits",
                full.len()
            );
        }
    }

    #[test]
    fn limit_stops_mid_block_in_dense_by_dense() {
        let a = BlockPostings::from_sorted(&ids((0..20_000).filter(|i| i % 2 == 0)));
        let b = BlockPostings::from_sorted(&ids((0..20_000).filter(|i| i % 3 == 0)));
        assert_eq!(a.dense_block_count(), a.block_count());
        assert_eq!(b.dense_block_count(), b.block_count());
        // 683 hits per block: 100 lands mid-word-walk in block 0, 683/684
        // straddle the first block boundary, 1000 lands inside block 1.
        assert_prefix_law(&[a.as_view(), b.as_view()], &[100, 682, 683, 684, 1000]);
        // One dense list alone runs the same loop.
        assert_prefix_law(&[a.as_view()], &[100, 2047, 2048, 2049]);
    }

    #[test]
    fn limit_stops_mid_block_in_mixed_blocks() {
        let dense = BlockPostings::from_sorted(&ids(0..20_000));
        let sparse = BlockPostings::from_sorted(&ids((0..20_000).step_by(13)));
        let sparser = BlockPostings::from_sorted(&ids((0..20_000).step_by(39)));
        assert_eq!(sparse.dense_block_count(), 0);
        assert!(!sparser.is_tiny());
        // Sparse × dense, sparse × sparse, and all three together; 316
        // multiples of 13 per block, so 300 is mid-block and 316/317
        // straddle the boundary.
        assert_prefix_law(&[dense.as_view(), sparse.as_view()], &[300, 315, 316, 317]);
        assert_prefix_law(&[sparse.as_view(), sparser.as_view()], &[50, 105, 106]);
        assert_prefix_law(
            &[dense.as_view(), sparse.as_view(), sparser.as_view()],
            &[50, 105, 106],
        );
        assert_prefix_law(&[sparse.as_view()], &[300, 316, 317]);
    }

    #[test]
    fn limit_applies_on_the_tiny_path() {
        let tiny = BlockPostings::from_sorted(&ids((0..200).map(|i| i * 150)));
        let evens = BlockPostings::from_sorted(&ids((0..30_000).step_by(2)));
        assert!(tiny.is_tiny() && !evens.is_tiny());
        assert_prefix_law(&[tiny.as_view(), evens.as_view()], &[2, 99, 199]);
        assert_prefix_law(&[evens.as_view(), tiny.as_view()], &[2, 99, 199]);
        assert_prefix_law(&[tiny.as_view()], &[2, 199, 200, 201]);
    }

    #[test]
    fn limit_k_visits_the_blocks_k_needs() {
        // A 100-block list: the first 10 ids all sit in block 0.
        let long = BlockPostings::from_sorted(&ids((0..100 * BLOCK_SPAN).step_by(8)));
        assert_eq!(long.block_count(), 100);
        let (hits, visited) = intersect_counting_blocks(&[long.as_view()], 10);
        assert_eq!(hits, ids((0..80).step_by(8)));
        assert_eq!(visited, 1, "LIMIT 10 reads one block of 100");
        let (hits, visited) = intersect_counting_blocks(&[long.as_view()], usize::MAX);
        assert_eq!((hits.len(), visited), (long.len(), 100));
        // One id past block 0's 512 needs exactly one more block.
        let (_, visited) = intersect_counting_blocks(&[long.as_view()], 513);
        assert_eq!(visited, 2);

        // A 2-probe conjunction whose first 10 hits sit in block 0.
        let other = BlockPostings::from_sorted(&ids((0..100 * BLOCK_SPAN).step_by(24)));
        let lists = [long.as_view(), other.as_view()];
        let (hits, visited) = intersect_counting_blocks(&lists, 10);
        assert_eq!(hits, ids((0..240).step_by(24)));
        assert_eq!(visited, 1, "the budget is met inside block 0");
        assert_eq!(intersect_counting_blocks(&lists, usize::MAX).1, 100);
        // An empty budget touches nothing.
        assert_eq!(intersect_counting_blocks(&lists, 0), (Vec::new(), 0));
    }

    #[test]
    fn disjoint_blocks_short_circuit() {
        let a = BlockPostings::from_sorted(&ids(0..100));
        let b = BlockPostings::from_sorted(&ids(1_000_000..1_000_100));
        assert!(intersect_views(&[a.as_view(), b.as_view()]).is_empty());
        // Same block, disjoint offset ranges: directory min/max rejects.
        let c = BlockPostings::from_sorted(&ids(0..100));
        let d = BlockPostings::from_sorted(&ids(200..300));
        assert!(intersect_views(&[c.as_view(), d.as_view()]).is_empty());
    }

    #[test]
    fn union_views_merges_disjoint_shards() {
        let shard0 = BlockPostings::from_sorted(&ids((0..10_000).filter(|i| i % 2 == 0)));
        let shard1 = BlockPostings::from_sorted(&ids((0..10_000).filter(|i| i % 2 == 1)));
        let merged = union_views(&[shard0.as_view(), shard1.as_view()]);
        assert_eq!(merged.to_vec(), ids(0..10_000));
        assert_eq!(merged.len(), 10_000);
        // Overlapping inputs dedup.
        let overlap = union_views(&[shard0.as_view(), shard0.as_view()]);
        assert_eq!(overlap.to_vec(), shard0.to_vec());
        // Tiny inputs fold in; tiny unions normalize back to tiny.
        let tiny_a = BlockPostings::from_sorted(&ids([1, 3]));
        let tiny_b = BlockPostings::from_sorted(&ids([2, 9_999_999]));
        let tiny = union_views(&[tiny_a.as_view(), tiny_b.as_view()]);
        assert!(tiny.is_tiny());
        assert_eq!(tiny.to_vec(), ids([1, 2, 3, 9_999_999]));
        let mixed = union_views(&[shard0.as_view(), tiny_a.as_view()]);
        assert_eq!(mixed.len(), 5_002, "5000 evens + ids 1 and 3");
        assert!(mixed.contains(EntityId(3)));
    }

    #[test]
    fn compressed_footprint_beats_plain_vec() {
        // Dense sequential list: bitmap blocks, ~64x.
        let dense: Vec<EntityId> = ids(0..100_000);
        let list = BlockPostings::from_sorted(&dense);
        let plain_bytes = dense.len() * std::mem::size_of::<EntityId>();
        assert!(
            list.heap_bytes() * 3 <= plain_bytes,
            "compressed {} vs plain {plain_bytes}",
            list.heap_bytes()
        );
        // Tiny clustered list: varint runs, ~3x, held inline.
        let tiny = ids([50_001, 50_007, 50_020, 50_031]);
        let list = BlockPostings::from_sorted(&tiny);
        let plain_bytes = tiny.len() * std::mem::size_of::<EntityId>();
        assert!(list.is_inline());
        assert_eq!(list.heap_bytes(), 0, "an inline run owns no heap");
        assert!(
            list.payload_bytes() * 3 <= plain_bytes,
            "tiny compressed {} vs plain {plain_bytes}",
            list.payload_bytes()
        );
    }

    #[test]
    fn singleton_of_any_id_is_inline() {
        let max = EntityId(u64::MAX);
        let mut list = BlockPostings::new();
        assert!(list.insert(max));
        for list in [&list, &BlockPostings::from_sorted(&[max])] {
            assert!(list.is_inline() && list.is_tiny());
            assert_eq!(list.heap_bytes(), 0);
            assert_eq!(list.payload_bytes(), 10, "u64::MAX is a 10-byte varint");
            assert_eq!((list.first(), list.last()), (Some(max), Some(max)));
            assert!(list.contains(max) && !list.contains(EntityId(0)));
            assert_eq!(list.to_vec(), vec![max]);
        }
        assert!(list.remove(max));
        assert!(list.is_empty() && list.is_inline());
    }

    #[test]
    fn runs_move_between_inline_and_boxed_at_inline_max() {
        // Gaps of 300 encode in two bytes: a 1-byte first id plus six
        // gaps is 13 bytes (inline), a seventh gap is 15 (boxed).
        let sample = ids((0..8).map(|i| i * 300));
        let mut list = BlockPostings::new();
        for (n, &id) in sample.iter().enumerate() {
            assert!(list.insert(id));
            assert_eq!(list.is_inline(), n < 7, "{} ids", n + 1);
        }
        assert!(list.heap_bytes() > 0);
        // Removing the last id returns the run to the header.
        assert!(list.remove(sample[7]));
        assert!(list.is_inline());
        assert_eq!(list.to_vec(), sample[..7].to_vec());
        // An out-of-order insert that overflows the header spills too:
        // 150 splits one 2-byte gap into two.
        assert!(list.insert(EntityId(150)));
        assert!(!list.is_inline() && list.is_tiny());
        assert!(list.remove(EntityId(150)));
        assert!(list.is_inline());
        // Non-ascending duplicates are no-ops in both storages.
        assert!(!list.insert(sample[3]));
        assert!(!list.remove(EntityId(2)));
    }

    #[test]
    fn cursor_snapshots_compare_and_roundtrip() {
        let sample = ids([1, 5, 9000, 123_456]);
        let cursor = PostingsCursor::from_sorted(sample.clone());
        assert_eq!(cursor, sample);
        assert_eq!(cursor.len(), 4);
        assert!(cursor.contains(EntityId(9000)));
        assert!(!cursor.contains(EntityId(2)));
        assert_eq!(cursor.as_view().to_vec(), sample);
        assert_eq!(PostingsCursor::empty().len(), 0);
    }

    #[test]
    fn view_equality_is_by_content() {
        let a = BlockPostings::from_sorted(&ids([1, 2, 3]));
        let mut b = BlockPostings::new();
        for id in ids([3, 2, 1]) {
            // insertion order must not matter
            b.insert(id);
        }
        assert_eq!(a.as_view(), b.as_view());
        assert_eq!(a.as_view(), &[EntityId(1), EntityId(2), EntityId(3)]);
        // Tiny and blocked lists with equal content compare equal.
        let long = ids(0..=(TINY_MAX as u64));
        let mut blocked = BlockPostings::from_sorted(&long);
        assert!(!blocked.is_tiny());
        // Trim the blocked list down to tiny *content* without triggering
        // the merge (stay above TINY_MIN), then compare against a
        // from_sorted tiny... the merge threshold makes that impossible,
        // so compare two equal-content blocked/tiny pairs directly.
        blocked.remove(EntityId(TINY_MAX as u64));
        let same = BlockPostings::from_sorted(&ids(0..(TINY_MAX as u64)));
        assert!(same.is_tiny());
        assert_eq!(blocked, same, "cross-representation content equality");
    }
}
