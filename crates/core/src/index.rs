//! The unified interned triple index — the single source of truth that the
//! paper's Graph Engine stores derive from.
//!
//! §3.1 of the paper describes a federation of stores — the analytics
//! warehouse, the entity/text indexes, the live serving index — all derived
//! from one canonical KG and kept consistent through the shared operation
//! log. This module is the in-process analogue: one columnar, fully
//! interned index over the extended triples that
//!
//! * the canonical [`KnowledgeGraph`](crate::KnowledgeGraph) maintains
//!   incrementally on every upsert / retraction / volatile overwrite,
//! * the Graph Engine's analytics store and View Manager consume through
//!   the [`Delta`] change feed (incremental view maintenance in the style
//!   of Kara et al., *CQs with Free Access Patterns under Updates*),
//! * each live replica serves one under one lock for low-latency
//!   serving, with KGQ probes lowered directly to [`ProbeKey`] posting
//!   lookups.
//!
//! # Representation
//!
//! Everything is interned: predicates, ontology types and name tokens are
//! [`Symbol`]s; object values are mapped to [`ObjId`]s through a
//! per-index dictionary. A value that fits in an id has no dictionary
//! slot: an `Int` in −2²⁹ … 2²⁹−1 or an entity id below 2³⁰ is an
//! *immediate* `ObjId` (bit 31 set), read and written by arithmetic. A fact
//! is therefore a few machine words, and the three access paths of a
//! triple store are:
//!
//! * **SPO** — per-subject sorted columns of `(predicate, object)` pairs
//!   ([`TripleIndex::facts_of`]), the row view used for delta diffing;
//! * **POS** — `(predicate, object) → sorted posting list of subjects`
//!   ([`TripleIndex::postings`]), the probe path shared by stable and live
//!   serving;
//! * **OSP** — `object entity → sorted posting list of referencing
//!   subjects` ([`TripleIndex::referencing`]), the reverse-edge path used
//!   by graph analytics.
//!
//! Posting lists are hybrid block-compressed [`BlockPostings`] (dense
//! 4096-bit bitmap blocks, sparse delta+varint runs, per-list block
//! directory — see [`crate::postings`]); conjunctive probes intersect them
//! **in the compressed domain** (bitmap `AND` for dense×dense blocks,
//! directory galloping for sparse), cf. the compressed adjacency-matrix
//! evaluation of Arroyuelo et al. Probe reads lend `&BlockPostings` — the
//! stored list, or one shared empty list when the probe misses — and
//! nothing is decompressed until a caller materializes ids. Composite
//! facets are flattened to `predicate.facet` symbols — the same
//! extended-triple trick (§2.1) the analytics store uses, so both share
//! one schema.

use std::borrow::Cow;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

use rustc_hash::FxBuildHasher;

use crate::postings::{intersect_views_limit, BlockPostings};
use crate::well_known;
use crate::{intern, EntityId, ExtendedTriple, FxHashMap, Symbol, Value};

/// The list every probe that misses its map lends: one shared empty list,
/// so a miss needs no `Option` and no allocation.
static EMPTY: BlockPostings = BlockPostings::new();

/// Id of an object value in a [`TripleIndex`]: a dictionary slot below
/// 2³¹, or an *immediate* that is the value itself. An immediate sets bit
/// 31; bit 30 marks an entity rather than an `Int`, and the low 30 bits
/// hold the payload: a zig-zag `Int` in −2²⁹ … 2²⁹−1, or an entity id
/// below 2³⁰.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjId(pub(crate) u32);

/// Bit 31 of an [`ObjId`]: the id is its value.
const IMMEDIATE: u32 = 1 << 31;

/// Bit 30 of an immediate: an entity id rather than an `Int`.
const IMMEDIATE_ENTITY: u32 = 1 << 30;

/// The payload bits of an immediate.
const PAYLOAD: u32 = IMMEDIATE_ENTITY - 1;

impl ObjId {
    /// The immediate with this payload, if it fits in 30 bits: an entity
    /// id when `entity`, else a zig-zag `Int`.
    pub(crate) fn immediate(entity: bool, payload: u64) -> Option<ObjId> {
        let tag = if entity { IMMEDIATE_ENTITY } else { 0 };
        (payload <= u64::from(PAYLOAD)).then_some(ObjId(IMMEDIATE | tag | payload as u32))
    }

    /// The immediate that is `value`, if it has one.
    fn of(value: &Value) -> Option<ObjId> {
        match *value {
            Value::Int(i) => ObjId::immediate(false, ((i << 1) ^ (i >> 63)) as u64),
            Value::Entity(EntityId(e)) => ObjId::immediate(true, e),
            _ => None,
        }
    }

    /// `(is an entity, payload)` of an immediate; `None` for a slot.
    pub(crate) fn as_immediate(self) -> Option<(bool, u32)> {
        (self.0 & IMMEDIATE != 0).then_some((self.0 & IMMEDIATE_ENTITY != 0, self.0 & PAYLOAD))
    }

    /// The dictionary slot of a non-immediate.
    pub(crate) fn slot(self) -> Option<usize> {
        (self.0 & IMMEDIATE == 0).then_some(self.0 as usize)
    }
}

/// One flattened fact of a [`Delta`]: the (possibly `pred.facet`-flattened)
/// predicate and the object value.
#[derive(Clone, PartialEq, Debug)]
pub struct DeltaFact {
    /// Flattened predicate symbol.
    pub predicate: Symbol,
    /// Object value.
    pub object: Value,
}

/// One entity's index change: the unit of the change feed.
///
/// Replaying every delta (in order) onto an empty index reproduces the full
/// index; consumers like the analytics store apply them to keep derived
/// rows in sync without rescanning the KG.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Delta {
    /// The entity whose facts changed.
    pub entity: EntityId,
    /// Facts now asserted that were not before (with multiplicity).
    pub added: Vec<DeltaFact>,
    /// Facts retracted (with multiplicity).
    pub removed: Vec<DeltaFact>,
}

impl Delta {
    /// True if the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The entities a delta feed touches, sorted and deduplicated: the keys
/// derived state refreshes on, read off a commit receipt and off the
/// logged op of the same commit alike.
pub fn changed_entities(deltas: &[Delta]) -> Vec<EntityId> {
    let mut ids: Vec<EntityId> = deltas.iter().map(|d| d.entity).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// A lowered index probe — the one probe vocabulary shared by the stable
/// KG, the Graph Engine and live serving.
#[derive(Clone, PartialEq, Debug)]
pub enum ProbeKey {
    /// Lowercased name/alias token or full phrase.
    Name(String),
    /// Exact literal fact `(predicate, value)`.
    Literal(Symbol, Value),
    /// Edge `(predicate, target entity)`.
    Edge(Symbol, EntityId),
    /// Ontology type.
    Type(Symbol),
}

/// The unified interned triple index. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct TripleIndex {
    /// Object-value dictionary.
    pub(crate) objects: ObjDict,
    /// SPO: per-subject sorted `(predicate, object)` columns (multiset).
    pub(crate) spo: FxHashMap<EntityId, Vec<(Symbol, ObjId)>>,
    /// POS: `(predicate, object)` block-compressed posting lists.
    pub(crate) pos: FxHashMap<(Symbol, ObjId), BlockPostings>,
    /// OSP: reverse-edge block-compressed posting lists.
    pub(crate) osp: FxHashMap<EntityId, BlockPostings>,
    /// Derived name-token postings (lowercased tokens and full phrases).
    pub(crate) tokens: FxHashMap<Arc<str>, BlockPostings>,
    /// Total indexed facts (with multiplicity).
    pub(crate) facts: usize,
}

/// The name and alias predicates, interned once per process: the global
/// interner is append-only, so a symbol never changes, and the delta path
/// need not take its lock on every apply.
fn name_predicates() -> [Symbol; 2] {
    static NAMES: OnceLock<[Symbol; 2]> = OnceLock::new();
    *NAMES.get_or_init(|| [intern(well_known::NAME), intern(well_known::ALIAS)])
}

/// The `type` predicate, interned once per process for the same reason:
/// a type probe need not take the interner's lock to find it.
fn type_predicate() -> Symbol {
    static TYPE: OnceLock<Symbol> = OnceLock::new();
    *TYPE.get_or_init(|| intern(well_known::TYPE))
}

/// Flatten one extended triple to its indexed `(predicate, value)` form:
/// composite facets become `predicate.facet`, `Null` and unresolved
/// source-namespace objects are not indexed.
pub fn flatten(triple: &ExtendedTriple) -> Option<(Symbol, Value)> {
    match &triple.object {
        Value::Null | Value::SourceRef(_) => None,
        obj => {
            let pred = match triple.rel {
                None => triple.predicate,
                Some(rel) => intern(&format!("{}.{}", triple.predicate, rel.rel_predicate)),
            };
            Some((pred, obj.clone()))
        }
    }
}

/// Lowercased name tokens (plus the full phrase) of a name/alias string —
/// the tokenization rule shared by every serving index.
pub fn name_tokens(name: &str) -> Vec<String> {
    let mut out: Vec<String> = name
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect();
    out.push(name.to_lowercase());
    out.sort_unstable();
    out.dedup();
    out
}

impl TripleIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed facts (with multiplicity).
    pub fn fact_count(&self) -> usize {
        self.facts
    }

    /// Number of subjects with at least one indexed fact.
    pub fn entity_count(&self) -> usize {
        self.spo.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.facts == 0
    }

    /// Number of *live* object-dictionary slots (values currently
    /// referenced by at least one indexed fact). An immediate `Int` or
    /// `Entity` takes none.
    pub fn obj_dict_len(&self) -> usize {
        self.objects.len()
    }

    /// Total dictionary slots ever allocated (live + recycled). Bounded by
    /// the peak number of distinct concurrently-indexed non-immediate
    /// values, not by churn — the invariant the volatile-overwrite churn
    /// tests assert.
    pub fn obj_dict_slots(&self) -> usize {
        self.objects.slots()
    }

    /// Diff `record` against the indexed state of its subject and apply the
    /// difference, returning the [`Delta`] for downstream consumers.
    /// Test-only: production writes stage exact deltas and land them
    /// through [`apply`](Self::apply); this O(record) re-diff is the
    /// reference the delta path is checked against.
    #[cfg(test)]
    pub fn update_entity(&mut self, record: &crate::EntityRecord) -> Delta {
        let new_facts: Vec<(Symbol, ObjId)> = {
            let mut v: Vec<(Symbol, ObjId)> = record
                .triples
                .iter()
                .filter_map(flatten)
                .map(|(p, o)| (p, self.objects.intern(&o)))
                .collect();
            v.sort_unstable();
            v
        };
        let old_facts = self.spo.get(&record.id).cloned().unwrap_or_default();
        let delta = self.diff_to_delta(record.id, &old_facts, &new_facts);
        self.apply(&delta);
        delta
    }

    /// Drop every fact of `entity`, returning the retraction [`Delta`].
    /// Test-only, like [`update_entity`](Self::update_entity).
    #[cfg(test)]
    pub fn remove_entity(&mut self, entity: EntityId) -> Delta {
        let old = self.spo.get(&entity).cloned().unwrap_or_default();
        let delta = self.diff_to_delta(entity, &old, &[]);
        self.apply(&delta);
        delta
    }

    /// Retract a batch of facts for `entity` without a full diff.
    /// Test-only: the reference mutators the write-path properties
    /// compare against are its only callers.
    #[cfg(test)]
    pub(crate) fn remove_facts<'a>(
        &mut self,
        entity: EntityId,
        triples: impl IntoIterator<Item = &'a ExtendedTriple>,
    ) {
        let removed: Vec<DeltaFact> = triples
            .into_iter()
            .filter_map(flatten)
            .map(|(predicate, object)| DeltaFact { predicate, object })
            .collect();
        self.apply(&Delta {
            entity,
            removed,
            added: Vec::new(),
        });
    }

    #[cfg(test)]
    fn diff_to_delta(
        &self,
        entity: EntityId,
        old: &[(Symbol, ObjId)],
        new: &[(Symbol, ObjId)],
    ) -> Delta {
        let (added, removed) = sorted_multiset_diff(old, new);
        Delta {
            entity,
            added: added.into_iter().map(|f| self.fact_of(f)).collect(),
            removed: removed.into_iter().map(|f| self.fact_of(f)).collect(),
        }
    }

    #[cfg(test)]
    fn fact_of(&self, (predicate, obj): (Symbol, ObjId)) -> DeltaFact {
        DeltaFact {
            predicate,
            object: self.objects.value(obj).into_owned(),
        }
    }

    /// Apply a [`Delta`] — the replay path. Applying every delta a KG ever
    /// emitted onto an empty index reproduces that KG's index exactly.
    pub fn apply(&mut self, delta: &Delta) {
        if delta.is_empty() {
            return;
        }
        let entity = delta.entity;
        // Token postings derive from name and alias facts alone, so only a
        // delta that touches one re-tokenizes the subject's names.
        let names = name_predicates();
        let tokens_before = delta
            .added
            .iter()
            .chain(&delta.removed)
            .any(|fact| names.contains(&fact.predicate))
            .then(|| self.token_set(entity, names));

        let subject_facts = self.spo.entry(entity).or_default();
        // Multiset row maintenance first…
        let mut touched: Vec<(Symbol, ObjId)> = Vec::new();
        // Slots whose refcount hit zero — candidates for recycling once the
        // posting fixups below are done reading their values.
        let mut drained: Vec<ObjId> = Vec::new();
        for fact in &delta.removed {
            let Some(obj) = self.objects.get(&fact.object) else {
                continue;
            };
            let key = (fact.predicate, obj);
            if let Ok(at) = subject_facts.binary_search(&key) {
                subject_facts.remove(at);
                self.facts -= 1;
                touched.push(key);
                if self.objects.release(obj) {
                    drained.push(obj);
                }
            }
        }
        for fact in &delta.added {
            let obj = self.objects.intern(&fact.object);
            let key = (fact.predicate, obj);
            let at = subject_facts.binary_search(&key).unwrap_or_else(|e| e);
            subject_facts.insert(at, key);
            self.facts += 1;
            self.objects.acquire(obj);
            touched.push(key);
        }
        // …then set-level posting membership for every touched key.
        touched.sort_unstable();
        touched.dedup();
        let still_present: Vec<bool> = touched
            .iter()
            .map(|key| subject_facts.binary_search(key).is_ok())
            .collect();
        if self.spo.get(&entity).is_some_and(Vec::is_empty) {
            self.spo.remove(&entity);
        }
        for (key, present) in touched.into_iter().zip(still_present) {
            let (_, obj) = key;
            if present {
                self.pos.entry(key).or_default().insert(entity);
                if let Some(target) = self.objects.entity(obj) {
                    self.osp.entry(target).or_default().insert(entity);
                }
            } else {
                if let Some(list) = self.pos.get_mut(&key) {
                    list.remove(entity);
                    if list.is_empty() {
                        self.pos.remove(&key);
                    }
                }
                if let Some(target) = self.objects.entity(obj) {
                    // The same target may be referenced under another
                    // predicate; only drop OSP membership when none remain.
                    let any_left = self
                        .spo
                        .get(&entity)
                        .is_some_and(|facts| facts.iter().any(|&(_, o)| o == obj));
                    if !any_left {
                        if let Some(list) = self.osp.get_mut(&target) {
                            list.remove(entity);
                            if list.is_empty() {
                                self.osp.remove(&target);
                            }
                        }
                    }
                }
            }
        }
        // Token postings re-derive from the subject's current name facts.
        if let Some(tokens_before) = tokens_before {
            let tokens_after = self.token_set(entity, names);
            for gone in tokens_before.iter().filter(|t| !tokens_after.contains(*t)) {
                if let Some(list) = self.tokens.get_mut(gone) {
                    list.remove(entity);
                    if list.is_empty() {
                        self.tokens.remove(gone);
                    }
                }
            }
            for fresh in tokens_after.iter().filter(|t| !tokens_before.contains(*t)) {
                self.tokens
                    .entry(Arc::clone(fresh))
                    .or_default()
                    .insert(entity);
            }
        }
        // Recycle dictionary slots whose last reference was retracted (and
        // was not re-added by this same delta). Runs last: the posting and
        // token fixups above still read the retracted values.
        for obj in drained {
            self.objects.reclaim(obj);
        }
    }

    /// The subject's name tokens, drawn from its `names` (name and alias)
    /// facts.
    fn token_set(&self, entity: EntityId, names: [Symbol; 2]) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        if let Some(facts) = self.spo.get(&entity) {
            for &(pred, obj) in facts {
                if !names.contains(&pred) {
                    continue;
                }
                if let Some(Value::Str(s)) = self.objects.slot_value(obj) {
                    for tok in name_tokens(s) {
                        out.push(Arc::from(tok.as_str()));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // Probe paths (POS / derived postings)
    // ------------------------------------------------------------------

    /// Subjects asserting the literal fact `(predicate, value)`.
    pub fn by_literal(&self, predicate: Symbol, value: &Value) -> &BlockPostings {
        self.objects
            .get(value)
            .and_then(|obj| self.pos.get(&(predicate, obj)))
            .unwrap_or(&EMPTY)
    }

    /// Subjects of ontology type `ty` (a literal probe on the `type`
    /// predicate — types need no separate store).
    pub fn by_type(&self, ty: Symbol) -> &BlockPostings {
        self.by_literal(type_predicate(), &Value::Str(ty.text()))
    }

    /// Subjects whose name/alias contains token (or equals phrase)
    /// `needle`, lowercased by the caller.
    pub fn by_name(&self, needle: &str) -> &BlockPostings {
        self.tokens.get(needle).unwrap_or(&EMPTY)
    }

    /// Subjects referencing `target` through any predicate (OSP).
    pub fn referencing(&self, target: EntityId) -> &BlockPostings {
        self.osp.get(&target).unwrap_or(&EMPTY)
    }

    /// Posting list of one lowered probe, lent without copying the
    /// compressed blocks.
    pub fn postings(&self, probe: &ProbeKey) -> &BlockPostings {
        match probe {
            ProbeKey::Name(n) => self.by_name(n),
            ProbeKey::Literal(p, v) => self.by_literal(*p, v),
            ProbeKey::Edge(p, t) => self.by_literal(*p, &Value::Entity(*t)),
            ProbeKey::Type(t) => self.by_type(*t),
        }
    }

    /// The first `limit` ids of a conjunction of probes, via
    /// compressed-domain intersection (bitmap `AND` on dense blocks,
    /// directory galloping on sparse ones) that stops once the budget is
    /// met — see [`intersect_views_limit`].
    pub fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        let lists: Vec<&BlockPostings> = probes.iter().map(|p| self.postings(p)).collect();
        intersect_views_limit(&lists, limit)
    }

    /// The whole conjunction: [`probe_all_limit`](Self::probe_all_limit)
    /// with no budget.
    pub fn probe_all(&self, probes: &[ProbeKey]) -> Vec<EntityId> {
        self.probe_all_limit(&probes.iter().collect::<Vec<_>>(), usize::MAX)
    }

    /// Encoded payload bytes of all posting lists (POS + OSP + token) —
    /// runs, directories and containers, an inline run counting its bytes.
    /// Slots, list headers and boxes are not counted: for the whole heap
    /// see [`heap_bytes`](Self::heap_bytes).
    pub fn index_bytes(&self) -> usize {
        self.pos
            .values()
            .chain(self.osp.values())
            .chain(self.tokens.values())
            .map(BlockPostings::payload_bytes)
            .sum()
    }

    /// Estimated heap bytes of the whole index, by family: each posting
    /// family's hash slots (key + list header) plus what its lists own,
    /// the object dictionary, and the SPO rows.
    pub fn heap_bytes(&self) -> IndexHeap {
        fn lists<'a>(lists: impl Iterator<Item = &'a BlockPostings>) -> usize {
            lists.map(BlockPostings::heap_bytes).sum()
        }
        IndexHeap {
            pos: table_bytes(&self.pos) + lists(self.pos.values()),
            osp: table_bytes(&self.osp) + lists(self.osp.values()),
            tokens: table_bytes(&self.tokens)
                + lists(self.tokens.values())
                + self.tokens.keys().map(arc_str_bytes).sum::<usize>(),
            objects: self.objects.heap_bytes(),
            spo: table_bytes(&self.spo) + self.spo.values().map(vec_bytes).sum::<usize>(),
        }
    }

    /// What the same postings would occupy as plain sorted
    /// `Vec<EntityId>`s — the before/after denominator of the gauge.
    pub fn plain_postings_bytes(&self) -> usize {
        let id = std::mem::size_of::<EntityId>();
        (self.pos.values().map(BlockPostings::len).sum::<usize>()
            + self.osp.values().map(BlockPostings::len).sum::<usize>()
            + self.tokens.values().map(BlockPostings::len).sum::<usize>())
            * id
    }

    // ------------------------------------------------------------------
    // Row path (SPO)
    // ------------------------------------------------------------------

    /// The flattened `(predicate, value)` facts of one subject, in sorted
    /// column order (with multiplicity). A slot's value is borrowed; an
    /// immediate's is built in place, with no allocation.
    pub fn facts_of(
        &self,
        entity: EntityId,
    ) -> impl Iterator<Item = (Symbol, Cow<'_, Value>)> + '_ {
        self.spo
            .get(&entity)
            .into_iter()
            .flatten()
            .map(|&(pred, obj)| (pred, self.objects.value(obj)))
    }

    /// True if the subject has any indexed fact.
    pub fn contains(&self, entity: EntityId) -> bool {
        self.spo.contains_key(&entity)
    }

    /// All indexed subjects, in arbitrary order.
    pub fn subjects(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.spo.keys().copied()
    }
}

/// Estimated heap bytes of a [`TripleIndex`] by family (see
/// [`TripleIndex::heap_bytes`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexHeap {
    /// POS slots plus the boxed runs and blocks their lists own.
    pub pos: usize,
    /// OSP slots plus their lists' boxed runs and blocks.
    pub osp: usize,
    /// Token slots, their lists' boxed runs and blocks, and the token
    /// strings.
    pub tokens: usize,
    /// The object dictionary: its values, refcounts, free list and bucket
    /// table, and the strings its values own.
    pub objects: usize,
    /// SPO slots and per-subject `(predicate, object)` rows.
    pub spo: usize,
}

impl IndexHeap {
    /// Sum over every family.
    pub fn total(&self) -> usize {
        self.pos + self.osp + self.tokens + self.objects + self.spo
    }
}

impl std::ops::Add for IndexHeap {
    type Output = IndexHeap;
    fn add(self, other: IndexHeap) -> IndexHeap {
        IndexHeap {
            pos: self.pos + other.pos,
            osp: self.osp + other.osp,
            tokens: self.tokens + other.tokens,
            objects: self.objects + other.objects,
            spo: self.spo + other.spo,
        }
    }
}

/// Heap bytes of a hash table's slots, from the SwissTable layout the
/// standard map uses: a power-of-two bucket count holding at most 7/8 of
/// it in use (all but one bucket below 8), one `(K, V)` slot and one
/// control byte per bucket, and a 16-byte control-group tail.
fn table_bytes<K, V, S>(map: &std::collections::HashMap<K, V, S>) -> usize {
    let cap = map.capacity();
    let buckets = match cap {
        0 => return 0,
        1..=7 => cap + 1,
        _ => cap / 7 * 8,
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// An `Arc<str>` allocation: two reference counts and the bytes.
fn arc_str_bytes(s: &Arc<str>) -> usize {
    2 * std::mem::size_of::<usize>() + s.len()
}

/// Live entries may fill at most this many eighths of an [`ObjDict`]'s
/// buckets before the table doubles.
const MAX_LOAD_EIGHTHS: usize = 7;

/// The smallest non-empty [`ObjDict`] table.
const MIN_BUCKETS: usize = 8;

/// The object-value dictionary: each value is held once, in `values`, and
/// a table of 8-byte buckets finds its slot. An `Int` or `Entity` that
/// fits an immediate [`ObjId`] takes no slot, no count and no bucket: its
/// id is computed from the value and back.
///
/// `table` is open-addressed with linear probing over a power-of-two
/// number of buckets. A bucket is `0` (empty) or `tag << 32 | (slot + 1)`,
/// where `tag` is the high 32 bits of the value's Fx hash and the tag's top
/// `log2(table.len())` bits are the home bucket. A lookup compares tags
/// before values. Removal shifts the rest of the probe run back, so churn
/// leaves no tombstones, and growth re-homes buckets by their stored tags
/// without hashing a value again.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjDict {
    /// Values by slot. Freed slots hold `Value::Null` until reused.
    values: Vec<Value>,
    /// Per-slot reference counts: total fact occurrences (across all
    /// subjects) whose object is this slot. A slot whose count returns to
    /// zero is reclaimed through `free`, so high-churn volatile values stop
    /// accumulating dead dictionary entries.
    refs: Vec<u32>,
    /// Reclaimed slots awaiting reuse.
    free: Vec<u32>,
    /// The buckets: none until a value arrives or a checkpoint load sizes
    /// them.
    table: Vec<u64>,
}

/// The high 32 bits of `value`'s Fx hash.
fn tag_of(value: &Value) -> u32 {
    (FxBuildHasher::default().hash_one(value) >> 32) as u32
}

/// The slot a non-empty bucket points at.
fn bucket_slot(bucket: u64) -> u32 {
    bucket as u32 - 1
}

/// The table length that holds `n` live values without growing.
fn buckets_for(n: usize) -> usize {
    match n {
        0 => 0,
        _ => MIN_BUCKETS.max((n * 8).div_ceil(MAX_LOAD_EIGHTHS).next_power_of_two()),
    }
}

impl ObjDict {
    /// An empty dictionary whose table holds `n` values without growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        ObjDict {
            values: Vec::with_capacity(n),
            refs: Vec::with_capacity(n),
            free: Vec::new(),
            table: vec![0; buckets_for(n)],
        }
    }

    /// Live values.
    fn len(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// Slots ever allocated, live and free.
    pub(crate) fn slots(&self) -> usize {
        self.values.len()
    }

    /// The value of `id`: borrowed from its slot, or built from an
    /// immediate.
    fn value(&self, id: ObjId) -> Cow<'_, Value> {
        match id.as_immediate() {
            None => Cow::Borrowed(&self.values[id.0 as usize]),
            Some((true, payload)) => Cow::Owned(Value::Entity(EntityId(payload.into()))),
            Some((false, payload)) => {
                let zigzag = i64::from(payload);
                Cow::Owned(Value::Int((zigzag >> 1) ^ -(zigzag & 1)))
            }
        }
    }

    /// The value in `id`'s slot; `None` for an immediate.
    fn slot_value(&self, id: ObjId) -> Option<&Value> {
        id.slot().map(|slot| &self.values[slot])
    }

    /// The entity `id` refers to, if it is one: arithmetic for an
    /// immediate.
    fn entity(&self, id: ObjId) -> Option<EntityId> {
        self.value(id).as_entity()
    }

    /// The home bucket of `tag`: its top `log2(table.len())` bits.
    fn home(&self, tag: u32) -> usize {
        (u64::from(tag) << 32 >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The id of `value` (whose tag is `tag`), if it has one.
    fn find(&self, value: &Value, tag: u32) -> Option<ObjId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut at = self.home(tag);
        loop {
            let (bucket_tag, slot) = match self.table[at] {
                0 => return None,
                b => ((b >> 32) as u32, bucket_slot(b)),
            };
            if bucket_tag == tag && self.values[slot as usize] == *value {
                return Some(ObjId(slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// The first empty bucket from `tag`'s home.
    fn vacancy(&self, tag: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut at = self.home(tag);
        while self.table[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, value: &Value) -> Option<ObjId> {
        ObjId::of(value).or_else(|| self.find(value, tag_of(value)))
    }

    /// The id of `value`: its immediate, or else its slot, which it takes
    /// (with no references) if it has none: a recycled one before a new
    /// one.
    pub(crate) fn intern(&mut self, value: &Value) -> ObjId {
        if let Some(id) = ObjId::of(value) {
            return id;
        }
        let tag = tag_of(value);
        if let Some(id) = self.find(value, tag) {
            return id;
        }
        if (self.len() + 1) * 8 > self.table.len() * MAX_LOAD_EIGHTHS {
            let grown = vec![0; buckets_for(self.len() + 1)];
            for bucket in std::mem::replace(&mut self.table, grown) {
                if bucket != 0 {
                    let at = self.vacancy((bucket >> 32) as u32);
                    self.table[at] = bucket;
                }
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.values[slot as usize] = value.clone();
                slot
            }
            None => {
                // A slot id must leave bit 31 to the immediates.
                let slot = u32::try_from(self.values.len())
                    .ok()
                    .filter(|&slot| slot < IMMEDIATE)
                    .expect("object dictionary overflow");
                self.values.push(value.clone());
                self.refs.push(0);
                slot
            }
        };
        let at = self.vacancy(tag);
        self.table[at] = u64::from(tag) << 32 | u64::from(slot + 1);
        ObjId(slot)
    }

    /// Count one more fact occurrence of `id` (an immediate is not
    /// counted).
    pub(crate) fn acquire(&mut self, id: ObjId) {
        if let Some(slot) = id.slot() {
            self.refs[slot] += 1;
        }
    }

    /// Count one fewer; true when a slot has none left.
    fn release(&mut self, id: ObjId) -> bool {
        let Some(slot) = id.slot() else {
            return false;
        };
        let refs = &mut self.refs[slot];
        *refs -= 1;
        *refs == 0
    }

    /// Free `id`'s slot if no fact references it.
    fn reclaim(&mut self, id: ObjId) {
        if id.slot().is_none_or(|slot| self.refs[slot] != 0) {
            return;
        }
        let value = std::mem::replace(&mut self.values[id.0 as usize], Value::Null);
        let mask = self.table.len() - 1;
        let mut hole = self.home(tag_of(&value));
        while bucket_slot(self.table[hole]) != id.0 {
            hole = (hole + 1) & mask;
        }
        // Backward shift: each later bucket of the run moves into the hole
        // unless the hole lies before its home.
        let mut next = (hole + 1) & mask;
        while self.table[next] != 0 {
            let home = self.home((self.table[next] >> 32) as u32);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = 0;
        self.free.push(id.0);
    }

    /// Referenced slots and their values, in slot order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (ObjId, &Value)> {
        (0..)
            .zip(self.refs.iter().zip(&self.values))
            .filter_map(|(slot, (&refs, value))| (refs > 0).then_some((ObjId(slot), value)))
    }

    /// Heap bytes: the four vectors' capacities and the strings the
    /// values own.
    fn heap_bytes(&self) -> usize {
        let strings = |value: &Value| match value {
            Value::Str(s) | Value::SourceRef(s) => arc_str_bytes(s),
            _ => 0,
        };
        vec_bytes(&self.values)
            + vec_bytes(&self.refs)
            + vec_bytes(&self.free)
            + vec_bytes(&self.table)
            + self.values.iter().map(strings).sum::<usize>()
    }

    /// Panic unless every live slot sits in exactly one bucket, reachable
    /// from its home with no empty bucket on the way, under its own tag;
    /// returns how many buckets wrapped past the table's end.
    #[cfg(test)]
    fn check_invariants(&self) -> usize {
        let mask = self.table.len().wrapping_sub(1);
        let mut seen = vec![false; self.values.len()];
        let (mut occupied, mut wrapped) = (0, 0);
        for (at, &bucket) in self.table.iter().enumerate().filter(|&(_, &b)| b != 0) {
            occupied += 1;
            let (tag, slot) = ((bucket >> 32) as u32, bucket_slot(bucket) as usize);
            assert_eq!(
                tag,
                tag_of(&self.values[slot]),
                "bucket {at} keeps its value's tag"
            );
            assert!(
                !std::mem::replace(&mut seen[slot], true),
                "slot {slot} in two buckets"
            );
            let mut probe = self.home(tag);
            wrapped += usize::from(probe > at);
            while probe != at {
                assert_ne!(
                    self.table[probe], 0,
                    "empty bucket {probe} cuts slot {slot}'s run"
                );
                probe = (probe + 1) & mask;
            }
        }
        assert_eq!(occupied, self.len(), "occupied buckets are the live values");
        assert!(self.free.iter().all(|&slot| !seen[slot as usize]));
        assert!(occupied * 8 <= self.table.len() * MAX_LOAD_EIGHTHS);
        wrapped
    }
}

/// Multiset difference of two sorted fact lists by a two-cursor merge
/// walk: returns `(added, removed)` — the elements only in `new` and only
/// in `old`, with multiplicity. The reference diff behind the test-only
/// [`TripleIndex::update_entity`].
#[cfg(test)]
fn sorted_multiset_diff<T: Clone + Ord>(old: &[T], new: &[T]) -> (Vec<T>, Vec<T>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let take_old = match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => {
                if o == n {
                    i += 1;
                    j += 1;
                    continue;
                }
                o < n
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_old {
            removed.push(old[i].clone());
            i += 1;
        } else {
            added.push(new[j].clone());
            j += 1;
        }
    }
    (added, removed)
}

/// Intersect sorted, deduplicated posting lists with galloping
/// (exponential) search: iterate the smallest list, gallop in the rest.
/// Complexity `O(|smallest| · Σ log |other|)` — the classic fast path for
/// skewed posting sizes.
pub fn intersect_sorted(lists: &[&[EntityId]]) -> Vec<EntityId> {
    let Some(smallest_idx) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return Vec::new();
    };
    let smallest = lists[smallest_idx];
    if smallest.is_empty() {
        return Vec::new();
    }
    let others: Vec<&[EntityId]> = lists
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != smallest_idx)
        .map(|(_, l)| *l)
        .collect();
    let mut cursors = vec![0usize; others.len()];
    let mut out = Vec::with_capacity(smallest.len());
    'candidates: for &id in smallest {
        for (list, cursor) in others.iter().zip(cursors.iter_mut()) {
            match gallop_to(list, *cursor, id) {
                Some(found_at) => *cursor = found_at + 1,
                None => {
                    // Advance the cursor past smaller ids for the next probe.
                    *cursor = lower_bound(list, *cursor, id);
                    if *cursor >= list.len() {
                        break 'candidates;
                    }
                    continue 'candidates;
                }
            }
        }
        out.push(id);
    }
    out
}

/// Galloping search for `id` in `list[from..]`; `Some(position)` on a hit.
fn gallop_to(list: &[EntityId], from: usize, id: EntityId) -> Option<usize> {
    let at = lower_bound(list, from, id);
    (at < list.len() && list[at] == id).then_some(at)
}

/// First position in `list[from..]` whose value is `>= id`, found by
/// doubling steps then binary search within the bracketed window.
fn lower_bound(list: &[EntityId], from: usize, id: EntityId) -> usize {
    if from >= list.len() || list[from] >= id {
        return from;
    }
    let mut step = 1;
    let mut lo = from;
    let mut hi = from + 1;
    while hi < list.len() && list[hi] < id {
        lo = hi;
        step *= 2;
        hi = (hi + step).min(list.len());
        if hi == list.len() {
            break;
        }
    }
    // Invariant: list[lo] < id and the answer lies in (lo, hi].
    lo + list[lo..hi].partition_point(|&x| x < id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityRecord, FactMeta, KnowledgeGraph, RelId, SourceId};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    fn record(id: u64, facts: &[(&str, Value)]) -> EntityRecord {
        let mut r = EntityRecord::new(EntityId(id));
        for (pred, value) in facts {
            r.triples.push(ExtendedTriple::simple(
                EntityId(id),
                intern(pred),
                value.clone(),
                meta(),
            ));
        }
        r
    }

    #[test]
    fn update_entity_builds_all_three_access_paths() {
        let mut idx = TripleIndex::new();
        idx.update_entity(&record(
            1,
            &[
                ("name", Value::str("Golden State Warriors")),
                ("type", Value::str("sports_team")),
                ("arena", Value::Entity(EntityId(9))),
                ("founded", Value::Int(1946)),
            ],
        ));
        // POS probes.
        assert_eq!(
            idx.by_literal(intern("founded"), &Value::Int(1946))
                .to_vec(),
            &[EntityId(1)]
        );
        assert_eq!(
            idx.postings(&ProbeKey::Edge(intern("arena"), EntityId(9)))
                .to_vec(),
            [EntityId(1)]
        );
        assert_eq!(idx.by_type(intern("sports_team")).to_vec(), &[EntityId(1)]);
        assert_eq!(idx.by_name("warriors").to_vec(), &[EntityId(1)]);
        assert_eq!(
            idx.by_name("golden state warriors").to_vec(),
            &[EntityId(1)]
        );
        // OSP.
        assert_eq!(idx.referencing(EntityId(9)).to_vec(), &[EntityId(1)]);
        // SPO.
        assert_eq!(idx.facts_of(EntityId(1)).count(), 4);
        assert_eq!(idx.fact_count(), 4);
    }

    #[test]
    fn update_entity_diffs_and_cleans_up() {
        let mut idx = TripleIndex::new();
        idx.update_entity(&record(
            1,
            &[("name", Value::str("Old Name")), ("x", Value::Int(1))],
        ));
        let delta = idx.update_entity(&record(
            1,
            &[("name", Value::str("New Name")), ("x", Value::Int(1))],
        ));
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.removed.len(), 1);
        assert!(idx.by_name("old").is_empty());
        assert_eq!(idx.by_name("new").to_vec(), &[EntityId(1)]);
        assert_eq!(
            idx.by_literal(intern("x"), &Value::Int(1)).to_vec(),
            &[EntityId(1)],
            "unchanged kept"
        );
        assert_eq!(idx.fact_count(), 2);
    }

    #[test]
    fn remove_entity_empties_every_posting() {
        let mut idx = TripleIndex::new();
        idx.update_entity(&record(
            1,
            &[
                ("name", Value::str("X")),
                ("friend", Value::Entity(EntityId(2))),
            ],
        ));
        let delta = idx.remove_entity(EntityId(1));
        assert_eq!(delta.removed.len(), 2);
        assert!(idx.is_empty());
        assert!(idx.by_name("x").is_empty());
        assert!(idx.referencing(EntityId(2)).is_empty());
        assert!(!idx.contains(EntityId(1)));
    }

    #[test]
    fn deltas_replay_onto_an_empty_index() {
        let mut source = TripleIndex::new();
        let mut replayed = TripleIndex::new();
        let feed = vec![
            source.update_entity(&record(
                1,
                &[
                    ("name", Value::str("Alpha")),
                    ("knows", Value::Entity(EntityId(2))),
                ],
            )),
            source.update_entity(&record(2, &[("name", Value::str("Beta"))])),
            source.update_entity(&record(
                1,
                &[
                    ("name", Value::str("Alpha Prime")),
                    ("knows", Value::Entity(EntityId(2))),
                ],
            )),
            source.remove_entity(EntityId(2)),
        ];
        for delta in &feed {
            replayed.apply(delta);
        }
        assert_eq!(replayed.fact_count(), source.fact_count());
        for id in [1u64, 2] {
            let a: Vec<(Symbol, Value)> = source
                .facts_of(EntityId(id))
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            let b: Vec<(Symbol, Value)> = replayed
                .facts_of(EntityId(id))
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            assert_eq!(a, b, "SPO agrees for entity {id}");
        }
        assert_eq!(replayed.by_name("alpha"), source.by_name("alpha"));
        assert_eq!(
            replayed.referencing(EntityId(2)),
            source.referencing(EntityId(2))
        );
    }

    #[test]
    fn composite_facets_flatten_to_dotted_predicates() {
        let mut idx = TripleIndex::new();
        let mut r = EntityRecord::new(EntityId(1));
        r.triples.push(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(),
        ));
        idx.update_entity(&r);
        assert_eq!(
            idx.by_literal(intern("educated_at.school"), &Value::str("UW"))
                .to_vec(),
            &[EntityId(1)]
        );
    }

    #[test]
    fn duplicate_flattened_facts_keep_multiplicity() {
        let mut idx = TripleIndex::new();
        let mut r = EntityRecord::new(EntityId(1));
        for rel in [RelId(1), RelId(2)] {
            r.triples.push(ExtendedTriple::composite(
                EntityId(1),
                intern("educated_at"),
                rel,
                intern("degree"),
                Value::str("PhD"),
                meta(),
            ));
        }
        idx.update_entity(&r);
        assert_eq!(idx.fact_count(), 2);
        // Dropping one occurrence keeps the posting alive…
        r.triples.pop();
        idx.update_entity(&r);
        assert_eq!(idx.fact_count(), 1);
        assert_eq!(
            idx.by_literal(intern("educated_at.degree"), &Value::str("PhD"))
                .to_vec(),
            &[EntityId(1)]
        );
        // …dropping the last removes it.
        r.triples.pop();
        idx.update_entity(&r);
        assert!(idx
            .by_literal(intern("educated_at.degree"), &Value::str("PhD"))
            .is_empty());
    }

    #[test]
    fn probe_all_intersects_conjunctively() {
        let mut idx = TripleIndex::new();
        for i in 1..=100u64 {
            let mut facts = vec![("type", Value::str("song"))];
            if i % 2 == 0 {
                facts.push(("artist", Value::Entity(EntityId(1000))));
            }
            if i % 3 == 0 {
                facts.push(("explicit", Value::Bool(true)));
            }
            idx.update_entity(&record(i, &facts));
        }
        let hits = idx.probe_all(&[
            ProbeKey::Type(intern("song")),
            ProbeKey::Edge(intern("artist"), EntityId(1000)),
            ProbeKey::Literal(intern("explicit"), Value::Bool(true)),
        ]);
        let expected: Vec<EntityId> = (1..=100u64).filter(|i| i % 6 == 0).map(EntityId).collect();
        assert_eq!(hits, expected);
        assert!(idx
            .probe_all(&[
                ProbeKey::Name("nope".into()),
                ProbeKey::Type(intern("song"))
            ])
            .is_empty());
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        let a: Vec<EntityId> = (0..1000).step_by(3).map(EntityId).collect();
        let b: Vec<EntityId> = (0..1000).step_by(5).map(EntityId).collect();
        let c: Vec<EntityId> = (0..1000).map(EntityId).collect();
        let got = intersect_sorted(&[&a, &b, &c]);
        let expected: Vec<EntityId> = (0..1000u64).filter(|i| i % 15 == 0).map(EntityId).collect();
        assert_eq!(got, expected);
        assert!(intersect_sorted(&[&a, &[]]).is_empty());
        assert!(intersect_sorted(&[]).is_empty());
        assert_eq!(intersect_sorted(&[&a]), a);
    }

    /// An `Int` just past the immediate range: it takes a slot.
    const SLOTTED_INT: i64 = 1 << 29;

    #[test]
    fn volatile_churn_does_not_grow_the_object_dictionary() {
        let mut idx = TripleIndex::new();
        idx.update_entity(&record(
            1,
            &[
                ("name", Value::str("Song A")),
                ("popularity", Value::Int(SLOTTED_INT)),
                ("rank", Value::Int(0)),
            ],
        ));
        let baseline = idx.obj_dict_slots();
        assert_eq!(baseline, 2, "the immediate rank takes no slot");
        for i in 1..=1_000i64 {
            // Every cycle retracts the old popularity int and asserts a new
            // one — the §2.4 volatile-overwrite shape that used to leak a
            // dictionary entry per cycle. The rank churns as an immediate.
            idx.update_entity(&record(
                1,
                &[
                    ("name", Value::str("Song A")),
                    ("popularity", Value::Int(SLOTTED_INT + i)),
                    ("rank", Value::Int(i)),
                ],
            ));
            assert_eq!(idx.obj_dict_len(), 2, "cycle {i}: name + current int");
        }
        // One transient slot: the fresh int is interned before the old one
        // is recycled, after which the freed slot is reused forever.
        assert!(
            idx.obj_dict_slots() <= baseline + 1,
            "dictionary grew with churn: {} slots vs baseline {baseline}",
            idx.obj_dict_slots()
        );
        // Retraction returns every slot to the free list.
        idx.remove_entity(EntityId(1));
        assert_eq!(idx.obj_dict_len(), 0);
    }

    #[test]
    fn shared_values_survive_partial_retraction() {
        let mut idx = TripleIndex::new();
        // Two subjects assert the same value; retracting one keeps it.
        idx.update_entity(&record(1, &[("genre", Value::str("jazz"))]));
        idx.update_entity(&record(2, &[("genre", Value::str("jazz"))]));
        assert_eq!(idx.obj_dict_len(), 1);
        idx.remove_entity(EntityId(1));
        assert_eq!(idx.obj_dict_len(), 1);
        assert_eq!(
            idx.by_literal(intern("genre"), &Value::str("jazz"))
                .to_vec(),
            &[EntityId(2)]
        );
        idx.remove_entity(EntityId(2));
        assert_eq!(idx.obj_dict_len(), 0);
        assert!(idx
            .by_literal(intern("genre"), &Value::str("jazz"))
            .is_empty());
    }

    #[test]
    fn recycled_slots_are_reused_for_new_values() {
        let mut idx = TripleIndex::new();
        let x = |i: i64| Value::Int(SLOTTED_INT + i);
        idx.update_entity(&record(1, &[("x", x(1)), ("y", x(2))]));
        let slots = idx.obj_dict_slots();
        assert_eq!(slots, 2);
        idx.remove_entity(EntityId(1));
        assert_eq!(idx.obj_dict_len(), 0);
        // Two new values fit entirely in the recycled slots.
        idx.update_entity(&record(2, &[("x", x(3)), ("y", x(4))]));
        assert_eq!(idx.obj_dict_slots(), slots, "free list reused");
        assert_eq!(idx.by_literal(intern("x"), &x(3)).to_vec(), &[EntityId(2)]);
        assert!(idx.by_literal(intern("x"), &x(1)).is_empty());
    }

    /// Two distinct ints whose values hash to the same 32-bit tag, found
    /// by brute force over seeded random ints: by the birthday bound about
    /// 2^17 of them hold a pair. (Consecutive ints hold none: the Fx
    /// multiply spreads a run of keys with no repeat in the top bits.)
    fn ints_with_equal_tags() -> (i64, i64) {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x7a9);
        let mut by_tag: FxHashMap<u32, i64> = FxHashMap::default();
        for _ in 0..1 << 22 {
            let i = rng.next_u64() as i64;
            if ObjId::of(&Value::Int(i)).is_some() {
                continue;
            }
            match by_tag.insert(tag_of(&Value::Int(i)), i) {
                Some(j) if j != i => return (j, i),
                _ => {}
            }
        }
        panic!("no two of 2^22 random ints share a tag")
    }

    #[test]
    fn obj_dict_matches_a_map_model_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (a, b) = ints_with_equal_tags();
        assert_ne!(a, b);
        assert_eq!(tag_of(&Value::Int(a)), tag_of(&Value::Int(b)));
        // Each side of each immediate boundary, with whether it is one.
        let edge = 1i64 << 29;
        let boundaries = [
            (Value::Int(edge - 1), true),
            (Value::Int(edge), false),
            (Value::Int(-edge), true),
            (Value::Int(-edge - 1), false),
            (Value::Entity(EntityId((1 << 30) - 1)), true),
            (Value::Entity(EntityId(1 << 30)), false),
        ];
        for (value, immediate) in &boundaries {
            assert_eq!(ObjId::of(value).is_some(), *immediate, "{value:?}");
        }
        let pool: Vec<Value> = (0..200)
            .map(|i| match i % 5 {
                0 => Value::str(format!("value {i}")),
                1 => Value::Entity(EntityId(i)),
                2 => Value::Float(i as f64 / 4.0),
                3 => Value::Int(i as i64 * 7_919),
                _ => Value::Int(-(i as i64) << 40),
            })
            .chain([Value::Int(a), Value::Int(b), Value::Bool(true), Value::Null])
            .chain(boundaries.iter().map(|(value, _)| value.clone()))
            .collect();

        let mut rng = StdRng::seed_from_u64(0x0b1d);
        let (mut grows, mut wrapped, mut twins_live, mut immediates_live) = (0, 0, 0, 0);
        for round in 0..40 {
            // Every round starts from an empty table, fills to a random
            // size and drains again, so the table grows from nothing and
            // its runs wrap in every small size on the way.
            let mut dict = ObjDict::default();
            let mut model: FxHashMap<Value, (ObjId, u32)> = FxHashMap::default();
            let target = rng.gen_range(1..pool.len());
            for step in 0..6 * target {
                let filling = step < 3 * target;
                let buckets = dict.table.len();
                if rng.gen_bool(if filling { 0.7 } else { 0.3 }) {
                    let value = &pool[rng.gen_range(0..pool.len())];
                    let id = dict.intern(value);
                    dict.acquire(id);
                    match model.get_mut(value) {
                        Some((known, refs)) => {
                            assert_eq!(id, *known, "round {round}: {value:?} kept its id");
                            *refs += 1;
                        }
                        None => {
                            assert!(
                                model.values().all(|&(other, _)| other != id),
                                "round {round}: {value:?} took a live slot"
                            );
                            model.insert(value.clone(), (id, 1));
                        }
                    }
                } else if !model.is_empty() {
                    let mut live: Vec<&Value> = model.keys().collect();
                    live.sort_unstable();
                    let value = live[rng.gen_range(0..live.len())].clone();
                    let (id, refs) = model.get_mut(&value).unwrap();
                    let id = *id;
                    *refs -= 1;
                    assert_eq!(dict.release(id), *refs == 0 && id.slot().is_some());
                    if *refs == 0 {
                        model.remove(&value);
                    }
                    dict.reclaim(id);
                }
                grows += usize::from(dict.table.len() > buckets);
                wrapped += dict.check_invariants();
                twins_live += usize::from(
                    model.contains_key(&Value::Int(a)) && model.contains_key(&Value::Int(b)),
                );
                // An immediate is its own id, live or not, and takes no
                // slot; the table holds exactly the live slotted values.
                let slotted = model.values().filter(|(id, _)| id.slot().is_some());
                assert_eq!(dict.len(), slotted.count());
                immediates_live += model.len() - dict.len();
                for value in &pool {
                    assert_eq!(
                        dict.get(value),
                        model.get(value).map(|&(id, _)| id).or(ObjId::of(value)),
                        "round {round} step {step}: lookup of {value:?}"
                    );
                }
                for (value, &(id, _)) in &model {
                    assert_eq!(dict.value(id).as_ref(), value, "{id:?} reads back");
                    assert_eq!(dict.entity(id), value.as_entity(), "{id:?}'s target");
                }
                for (id, value) in dict.live() {
                    assert_eq!(model[value].0, id);
                }
            }
        }
        assert!(grows >= 100, "only {grows} grows");
        assert!(
            immediates_live >= 1_000,
            "only {immediates_live} live immediates seen"
        );
        assert!(wrapped >= 100, "only {wrapped} wrapped buckets seen");
        assert!(
            twins_live >= 100,
            "the equal-tag ints were live together {twins_live} times"
        );
    }

    #[test]
    fn heap_bytes_counts_slots_lists_dictionary_and_rows() {
        let mut idx = TripleIndex::new();
        assert_eq!(idx.heap_bytes(), IndexHeap::default());
        // One literal fact: its POS list is an inline singleton, so the
        // POS family is exactly its slots, and the gauge is one byte. The
        // int lies outside the immediate range, so it takes a slot.
        let founded = Value::Int(SLOTTED_INT + 1946);
        idx.update_entity(&record(1, &[("founded", founded.clone())]));
        let heap = idx.heap_bytes();
        assert!(idx.pos.values().all(BlockPostings::is_inline));
        assert_eq!(heap.pos, table_bytes(&idx.pos));
        assert!(heap.pos > std::mem::size_of::<((Symbol, ObjId), BlockPostings)>());
        assert_eq!((heap.osp, heap.tokens), (0, 0));
        assert_eq!(idx.index_bytes(), 1, "the inline run's one byte");
        let row = std::mem::size_of::<(Symbol, ObjId)>();
        assert_eq!(
            heap.spo,
            table_bytes(&idx.spo) + idx.spo[&EntityId(1)].capacity() * row
        );
        // The dictionary is its four vectors' capacities; an int owns no
        // heap of its own.
        let dict_vectors = |d: &ObjDict| {
            d.values.capacity() * std::mem::size_of::<Value>()
                + d.refs.capacity() * 4
                + d.free.capacity() * 4
                + d.table.capacity() * 8
        };
        assert_eq!(idx.objects.table.len(), MIN_BUCKETS);
        assert_eq!(heap.objects, dict_vectors(&idx.objects));
        // An immediate takes no slot and adds nothing to the dictionary.
        idx.update_entity(&record(7, &[("founded", Value::Int(1946))]));
        assert_eq!(idx.obj_dict_slots(), 1);
        assert_eq!(idx.heap_bytes().objects, heap.objects);
        idx.remove_entity(EntityId(7));
        assert_eq!(
            heap.total(),
            heap.pos + heap.osp + heap.tokens + heap.objects + heap.spo
        );

        // Forty subjects share the value: the run outgrows the header and
        // its box and bytes join the POS family.
        for id in 2..=40 {
            idx.update_entity(&record(id * 1_000, &[("founded", founded.clone())]));
        }
        let list = idx.by_literal(intern("founded"), &founded);
        assert_eq!(list.len(), 40);
        let boxed = list.heap_bytes();
        assert!(
            boxed > idx.index_bytes(),
            "the box is counted beside the run"
        );
        let heap = idx.heap_bytes();
        assert_eq!(heap.pos, table_bytes(&idx.pos) + boxed);

        // A name and an edge add token slots, token strings and an OSP
        // list; the name string is counted once in the dictionary, and the
        // edge's immediate target not at all.
        idx.update_entity(&record(
            1,
            &[
                ("founded", founded.clone()),
                ("name", Value::str("Ada")),
                ("knows", Value::Entity(EntityId(2_000))),
            ],
        ));
        let heap = idx.heap_bytes();
        assert_eq!(heap.osp, table_bytes(&idx.osp));
        let token_strings: usize = idx.tokens.keys().map(arc_str_bytes).sum();
        assert_eq!(heap.tokens, table_bytes(&idx.tokens) + token_strings);
        assert_eq!(idx.obj_dict_len(), 2);
        assert_eq!(
            heap.objects,
            dict_vectors(&idx.objects) + arc_str_bytes(&Arc::from("Ada"))
        );
        let rows: usize = idx.spo.values().map(|r| r.capacity() * row).sum();
        assert_eq!(heap.spo, table_bytes(&idx.spo) + rows);
    }

    #[test]
    fn kg_integration_keeps_index_live() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(1),
            "Billie Eilish",
            "music_artist",
            SourceId(1),
            0.9,
        );
        assert_eq!(kg.index().by_name("billie").to_vec(), &[EntityId(1)]);
        assert_eq!(
            kg.index().by_type(intern("music_artist")).to_vec(),
            &[EntityId(1)]
        );
    }
}
