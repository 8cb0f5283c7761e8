//! The transactional, log-first write API.
//!
//! The paper's platform has **one** write pipeline feeding many derived
//! serving stores (§3.1). Producers *stage* mutations in a [`WriteBatch`]
//! (or interactively in a [`KgTransaction`]) and then commit them
//! atomically, receiving one [`CommitReceipt`] that carries everything the
//! fan-out needs — the exact [`Delta`] payloads in wire-ready form, the
//! fact counts and the removal set. Each staging method returns its own
//! op's result (fresh or merged, facts dropped, hit or miss); the receipt
//! repeats none of it. The raw `KnowledgeGraph`
//! mutators (`upsert_fact`, `retract_source*`, `overwrite_volatile_partition`,
//! `mutate_entity`) are crate-internal; the receipt is the only delta
//! channel — there is no in-process changelog to drain, appending the
//! receipt's deltas to the oplog is the whole fan-out.
//!
//! # Stage in place, then commit
//!
//! A commit against the stable [`KnowledgeGraph`] runs in two phases:
//!
//! 1. **Stage** ([`KgTransaction`]) — ops edit the graph's records and
//!    `same_as` links in place, through an exclusive borrow, and push an
//!    undo entry per edit. Every fact an op adds or removes is folded into
//!    its entity's one net [`Delta`]: an add and a remove of the same fact
//!    cancel, multiset-exact. Later ops read earlier ops' effects (a link
//!    recorded in the batch is visible to a retraction staged after it).
//!    The index and the generation do not move.
//! 2. **Commit** ([`KgTransaction::commit`]) — each net delta is applied
//!    to the index (the same [`TripleIndex::apply`] path log replicas
//!    use), the generation bumps once per delta, and the undo log is
//!    discarded. A transaction dropped without committing — a failed log
//!    append, an armed failpoint, a panic while staging — replays its undo
//!    log newest-first and leaves the graph as it found it.
//!
//! The split is what makes **write-ahead logging** possible: the Graph
//! Engine's `LoggedWriter` appends [`KgTransaction::deltas`] to the
//! durable `OperationLog` *before* committing them, so the log — not the
//! store — is the source of truth. A producer that crashes between append
//! and commit loses nothing: the logged deltas replay into any follower.
//!
//! There are exactly two ways to commit: [`WriteBatch::commit`] against a
//! bare `&mut KnowledgeGraph` (unlogged — oracles, fixtures, tests), and
//! the Graph Engine's `LoggedWriter` (the write-ahead door every served
//! graph goes through).
//!
//! [`TripleIndex::apply`]: crate::TripleIndex::apply

use std::collections::hash_map::Entry;
use std::fmt;
use std::mem;
use std::sync::Arc;

use crate::index::flatten;
use crate::{
    changed_entities, Delta, DeltaFact, EntityId, EntityRecord, ExtendedTriple, FactMeta,
    FxHashMap, FxHashSet, KnowledgeGraph, SourceId, Symbol,
};

/// One staged write operation — the op vocabulary mirrors the §2.3/§2.4
/// integration primitives plus the `same_as` link table and direct record
/// curation.
pub enum WriteOp {
    /// Non-destructive fact upsert (outer-join fusion semantics). The
    /// subject must be a linked KG entity.
    Upsert(ExtendedTriple),
    /// Record a `same_as` link from a source entity to a KG entity.
    Link {
        /// The source namespace.
        source: SourceId,
        /// Source-local entity id.
        local_id: String,
        /// The KG entity it resolves to.
        entity: EntityId,
    },
    /// Remove every attribution of a source (license revocation, §1).
    RetractSource(SourceId),
    /// Drop one source entity's contribution (`Deleted` partition, §2.4).
    RetractSourceEntity {
        /// The source namespace.
        source: SourceId,
        /// Source-local entity id (resolved through the link table).
        local_id: String,
    },
    /// Replace a source's volatile partition in one pass (§2.4).
    OverwriteVolatile {
        /// The source whose volatile facts are replaced.
        source: SourceId,
        /// The ontology's volatile predicate set.
        volatile: FxHashSet<Symbol>,
        /// The replacement facts (subjects must be linked KG entities;
        /// facts about unknown entities are skipped).
        fresh: Vec<ExtendedTriple>,
    },
    /// Mutate one entity record in place (curation hot-fixes). The delta
    /// is derived by diffing the record before/after the closure, so the
    /// edit is visible to log followers like any other op.
    Mutate {
        /// The entity to edit.
        entity: EntityId,
        /// The edit; not called if the entity is unknown.
        edit: Box<dyn FnOnce(&mut EntityRecord) + Send>,
    },
}

impl fmt::Debug for WriteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOp::Upsert(t) => f.debug_tuple("Upsert").field(t).finish(),
            WriteOp::Link {
                source,
                local_id,
                entity,
            } => f
                .debug_struct("Link")
                .field("source", source)
                .field("local_id", local_id)
                .field("entity", entity)
                .finish(),
            WriteOp::RetractSource(s) => f.debug_tuple("RetractSource").field(s).finish(),
            WriteOp::RetractSourceEntity { source, local_id } => f
                .debug_struct("RetractSourceEntity")
                .field("source", source)
                .field("local_id", local_id)
                .finish(),
            WriteOp::OverwriteVolatile { source, fresh, .. } => f
                .debug_struct("OverwriteVolatile")
                .field("source", source)
                .field("fresh", &fresh.len())
                .finish(),
            WriteOp::Mutate { entity, .. } => {
                f.debug_struct("Mutate").field("entity", entity).finish()
            }
        }
    }
}

/// An ordered batch of staged writes. Build one with the consuming
/// combinators (or [`push`](Self::push) in loops), then
/// [`commit`](Self::commit) it — nothing touches the store until commit.
#[derive(Debug, Default)]
pub struct WriteBatch {
    ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage a fact upsert.
    pub fn upsert(mut self, triple: ExtendedTriple) -> Self {
        self.ops.push(WriteOp::Upsert(triple));
        self
    }

    /// Stage a `same_as` link.
    pub fn link(mut self, source: SourceId, local_id: impl Into<String>, entity: EntityId) -> Self {
        self.ops.push(WriteOp::Link {
            source,
            local_id: local_id.into(),
            entity,
        });
        self
    }

    /// Stage a whole-source retraction.
    pub fn retract_source(mut self, source: SourceId) -> Self {
        self.ops.push(WriteOp::RetractSource(source));
        self
    }

    /// Stage a single source-entity retraction.
    pub fn retract_source_entity(mut self, source: SourceId, local_id: impl Into<String>) -> Self {
        self.ops.push(WriteOp::RetractSourceEntity {
            source,
            local_id: local_id.into(),
        });
        self
    }

    /// Stage a volatile-partition overwrite.
    pub fn overwrite_volatile(
        mut self,
        source: SourceId,
        volatile: FxHashSet<Symbol>,
        fresh: Vec<ExtendedTriple>,
    ) -> Self {
        self.ops.push(WriteOp::OverwriteVolatile {
            source,
            volatile,
            fresh,
        });
        self
    }

    /// Stage an in-place record edit.
    pub fn mutate(
        mut self,
        entity: EntityId,
        edit: impl FnOnce(&mut EntityRecord) + Send + 'static,
    ) -> Self {
        self.ops.push(WriteOp::Mutate {
            entity,
            edit: Box::new(edit),
        });
        self
    }

    /// Stage a named, typed entity (the test/workload convenience that
    /// mirrors `KnowledgeGraph::add_named_entity`).
    pub fn named_entity(
        self,
        id: EntityId,
        name: &str,
        entity_type: &str,
        source: SourceId,
        trust: f32,
    ) -> Self {
        use crate::{intern, well_known, FactMeta, Value};
        self.upsert(ExtendedTriple::simple(
            id,
            intern(well_known::NAME),
            Value::str(name),
            FactMeta::from_source(source, trust),
        ))
        .upsert(ExtendedTriple::simple(
            id,
            intern(well_known::TYPE),
            Value::str(entity_type),
            FactMeta::from_source(source, trust),
        ))
    }

    /// Append one op (loop-friendly form of the combinators).
    pub fn push(&mut self, op: WriteOp) {
        self.ops.push(op);
    }

    /// Number of staged ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The staged ops, in order (consumed by `commit`).
    pub fn into_ops(self) -> Vec<WriteOp> {
        self.ops
    }

    /// Stage this batch against `kg`, then commit it atomically — the
    /// unlogged commit. A served graph commits through the Graph Engine's
    /// `LoggedWriter` instead, which appends the staged deltas to its log
    /// before committing them.
    pub fn commit(self, kg: &mut KnowledgeGraph) -> CommitReceipt {
        let mut txn = KgTransaction::new(kg);
        for op in self.ops {
            txn.apply_op(op);
        }
        txn.commit()
    }
}

/// The result of one atomic commit: the change payload and everything a
/// fan-out consumer (oplog append, curation, metrics) needs.
///
/// `deltas` are in the same self-contained vocabulary the
/// [`wire`](crate::wire) module serializes — hand them to
/// `OperationLog::append_op` untouched.
#[derive(Debug, Default)]
pub struct CommitReceipt {
    /// One net delta per touched entity, in entity order (an entity whose
    /// edits cancel out emits none).
    pub deltas: Vec<Delta>,
    /// Index facts added across the batch.
    pub facts_added: usize,
    /// Index facts removed across the batch.
    pub facts_removed: usize,
    /// Entities dropped entirely by this commit (sorted) — curation reads
    /// it to tell whether a `BlockEntity` action hit.
    pub entities_removed: Vec<EntityId>,
}

impl CommitReceipt {
    /// True if the commit changed nothing observable.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Entities whose derived state must refresh (sorted, deduplicated) —
    /// what a log follower reads off the logged op for the same commit.
    pub fn changed_entities(&self) -> Vec<EntityId> {
        changed_entities(&self.deltas)
    }
}

/// One staged edit's inverse. A [`KgTransaction`] dropped without
/// committing replays its entries newest-first.
enum Undo {
    /// A fresh upsert appended a fact to the record: pop it.
    Pop(EntityId),
    /// A provenance merge rewrote one fact's metadata: restore it.
    Meta(EntityId, usize, FactMeta),
    /// The op created the record: remove it.
    Remove(EntityId),
    /// A record-rewriting op (retraction, volatile overwrite, mutate)
    /// changed or dropped the record: put the prior one back.
    Record(EntityId, EntityRecord),
    /// A link was set or removed: restore its prior target.
    Link((SourceId, Arc<str>), Option<EntityId>),
}

/// An interactive staging transaction holding the graph exclusively.
///
/// Ops edit records and links in place under an undo log, so reads
/// ([`record`](Self::record), [`lookup_link`](Self::lookup_link),
/// [`contains`](Self::contains)) see every earlier op of the transaction:
/// multi-step producers (fusion's relationship-node matching, the
/// pipeline's link-then-retract update path) behave exactly as they would
/// op by op. The upsert path never clones a record. The index and the
/// generation move only in [`commit`](Self::commit); dropping the
/// transaction instead rolls every edit back.
pub struct KgTransaction<'a> {
    kg: &'a mut KnowledgeGraph,
    undo: Vec<Undo>,
    /// One net delta per touched entity; [`deltas`](Self::deltas) and
    /// [`commit`](Self::commit) hand them out in entity order.
    deltas: Vec<Delta>,
    /// Each touched entity's slot in `deltas`.
    slots: FxHashMap<EntityId, usize>,
}

/// Flatten a record into its indexed fact multiset.
fn record_facts(record: &EntityRecord) -> Vec<DeltaFact> {
    record
        .triples
        .iter()
        .filter_map(flatten)
        .map(|(predicate, object)| DeltaFact { predicate, object })
        .collect()
}

/// Drop the deltas whose edits cancelled out and put the rest in entity
/// order, so the same edits staged in any order log the same bytes.
fn settle(deltas: &mut Vec<Delta>) {
    deltas.retain(|d| !d.is_empty());
    deltas.sort_unstable_by_key(|d| d.entity);
}

/// Fold one fact into a net [`Delta`], multiset-exact (matching
/// [`TripleIndex`](crate::TripleIndex) row maintenance): adding a fact the
/// delta removes, or removing one it adds, cancels the pair.
fn fold(delta: &mut Delta, fact: DeltaFact, add: bool) {
    let (same, opposite) = if add {
        (&mut delta.added, &mut delta.removed)
    } else {
        (&mut delta.removed, &mut delta.added)
    };
    match opposite.iter().position(|f| *f == fact) {
        Some(at) => {
            opposite.swap_remove(at);
        }
        None => same.push(fact),
    }
}

impl<'a> KgTransaction<'a> {
    /// Begin staging against `kg`.
    pub fn new(kg: &'a mut KnowledgeGraph) -> Self {
        KgTransaction {
            kg,
            undo: Vec::new(),
            deltas: Vec::new(),
            slots: FxHashMap::default(),
        }
    }

    // ---- staged reads -------------------------------------------------

    /// One entity record, as staged so far.
    pub fn record(&self, id: EntityId) -> Option<&EntityRecord> {
        self.kg.entity(id)
    }

    /// True if the entity exists, as staged so far.
    pub fn contains(&self, id: EntityId) -> bool {
        self.kg.contains(id)
    }

    /// The `same_as` link table, as staged so far.
    pub fn lookup_link(&self, source: SourceId, local_id: &str) -> Option<EntityId> {
        self.kg.lookup_link(source, local_id)
    }

    /// Fold one fact into `id`'s net delta.
    fn emit(&mut self, id: EntityId, fact: DeltaFact, add: bool) {
        let next = self.deltas.len();
        let at = *self.slots.entry(id).or_insert(next);
        if at == next {
            self.deltas.push(Delta {
                entity: id,
                ..Delta::default()
            });
        }
        fold(&mut self.deltas[at], fact, add);
    }

    /// Fold the indexed form of retracted facts into `id`'s net delta.
    fn emit_removed(&mut self, id: EntityId, dropped: &[ExtendedTriple]) {
        for (predicate, object) in dropped.iter().filter_map(flatten) {
            self.emit(id, DeltaFact { predicate, object }, false);
        }
    }

    /// Upsert into `id`'s record in place; `true` if the fact is new.
    fn stage_upsert(&mut self, id: EntityId, triple: ExtendedTriple) -> bool {
        let record = match self.kg.entities.entry(id) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                self.undo.push(Undo::Remove(id));
                slot.insert(EntityRecord::new(id))
            }
        };
        if let Some(at) = record.merge_slot(&triple) {
            let meta = &mut record.triples[at].meta;
            self.undo.push(Undo::Meta(id, at, meta.clone()));
            meta.merge(&triple.meta);
            return false;
        }
        let fact = flatten(&triple);
        record.triples.push(triple);
        self.undo.push(Undo::Pop(id));
        if let Some((predicate, object)) = fact {
            self.emit(id, DeltaFact { predicate, object }, true);
        }
        true
    }

    /// A record a rewriting op is about to change, its prior state saved
    /// on the undo log.
    fn rewrite(&mut self, id: EntityId) -> Option<&mut EntityRecord> {
        let record = self.kg.entities.get_mut(&id)?;
        self.undo.push(Undo::Record(id, record.clone()));
        Some(record)
    }

    /// Drop `id`'s record if a rewrite left it without facts.
    fn drop_if_empty(&mut self, id: EntityId) -> bool {
        let empty = self.record(id).is_some_and(|r| r.triples.is_empty());
        if empty {
            self.kg.entities.remove(&id);
        }
        empty
    }

    /// Set (`Some`) or remove (`None`) one link, its prior target saved on
    /// the undo log.
    fn set_link(&mut self, key: (SourceId, Arc<str>), entity: Option<EntityId>) {
        let prior = match entity {
            Some(entity) => self.kg.links.insert(key.clone(), entity),
            None => self.kg.links.remove(&key),
        };
        self.undo.push(Undo::Link(key, prior));
    }

    /// Ids of the records `keep` selects, sorted — retraction scans rewrite
    /// them in this order so their deltas come out deterministically.
    fn ids_where(&self, keep: impl Fn(&EntityRecord) -> bool) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self
            .kg
            .entities
            .iter()
            .filter(|(_, r)| keep(r))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    // ---- staged writes ------------------------------------------------

    /// Stage a non-destructive fact upsert; returns `true` if the fact is
    /// brand-new (otherwise its provenance merged into an identical one).
    ///
    /// # Panics
    /// Panics if the triple's subject is not a KG entity — only linked
    /// payloads may be fused.
    pub fn upsert(&mut self, triple: ExtendedTriple) -> bool {
        let id = triple
            .subject
            .as_kg()
            .expect("only linked (KG-subject) facts can be fused into the graph");
        self.stage_upsert(id, triple)
    }

    /// Stage a `same_as` link.
    pub fn link(&mut self, source: SourceId, local_id: &str, entity: EntityId) {
        self.set_link((source, Arc::from(local_id)), Some(entity));
    }

    /// Stage a whole-source retraction; returns `(facts, entities)`
    /// dropped, mirroring the direct mutator.
    pub fn retract_source(&mut self, source: SourceId) -> (usize, usize) {
        let mut facts_dropped = 0;
        let mut entities_dropped = 0;
        // Only records citing the source — or empty ones, which this op
        // garbage-collects like the direct mutator — are rewritten.
        let ids = self.ids_where(|r| {
            r.triples.is_empty() || r.triples.iter().any(|t| t.meta.has_source(source))
        });
        for id in ids {
            let dropped = self
                .rewrite(id)
                .map(|r| r.retract_source_facts(source, None))
                .unwrap_or_default();
            facts_dropped += dropped.len();
            entities_dropped += usize::from(self.drop_if_empty(id));
            self.emit_removed(id, &dropped);
        }
        let keys: Vec<(SourceId, Arc<str>)> = self
            .kg
            .links
            .keys()
            .filter(|(s, _)| *s == source)
            .cloned()
            .collect();
        for key in keys {
            self.set_link(key, None);
        }
        (facts_dropped, entities_dropped)
    }

    /// Stage one source entity's retraction; returns facts dropped.
    pub fn retract_source_entity(&mut self, source: SourceId, local_id: &str) -> usize {
        let Some(kg_id) = self.lookup_link(source, local_id) else {
            return 0;
        };
        let dropped = self
            .rewrite(kg_id)
            .map(|r| r.retract_source_facts(source, None))
            .unwrap_or_default();
        self.drop_if_empty(kg_id);
        self.emit_removed(kg_id, &dropped);
        self.set_link((source, Arc::from(local_id)), None);
        dropped.len()
    }

    /// Stage a volatile-partition overwrite; returns old facts dropped.
    ///
    /// Fresh facts about entities unknown to the staged view are skipped,
    /// and fresh facts whose subject is still a source reference are
    /// skipped too — resolve them through
    /// [`lookup_link`](Self::lookup_link) first (the construction pipeline
    /// does), exactly like the direct mutator required.
    pub fn overwrite_volatile(
        &mut self,
        source: SourceId,
        volatile: &FxHashSet<Symbol>,
        fresh: Vec<ExtendedTriple>,
    ) -> usize {
        let mut dropped_total = 0;
        let ids = self.ids_where(|r| {
            r.triples
                .iter()
                .any(|t| volatile.contains(&t.predicate) && t.meta.has_source(source))
        });
        for id in ids {
            // Records left empty are kept, matching the direct mutator:
            // the entity stays visible for the fresh facts below.
            let gone = self
                .rewrite(id)
                .map(|r| r.retract_source_facts(source, Some(volatile)))
                .unwrap_or_default();
            dropped_total += gone.len();
            self.emit_removed(id, &gone);
        }
        for t in fresh {
            // Same path as a staged upsert; the overwrite is one op.
            if let Some(id) = t.subject.as_kg().filter(|id| self.contains(*id)) {
                self.stage_upsert(id, t);
            }
        }
        dropped_total
    }

    /// Stage an in-place record edit; returns `false` if the entity is
    /// unknown (the closure does not run). A record left without facts is
    /// dropped, matching the retraction paths.
    pub fn mutate(&mut self, id: EntityId, edit: impl FnOnce(&mut EntityRecord)) -> bool {
        let Some(record) = self.rewrite(id) else {
            return false;
        };
        let mut diff = Delta {
            entity: id,
            added: Vec::new(),
            removed: record_facts(record),
        };
        edit(record);
        for fact in record_facts(record) {
            fold(&mut diff, fact, true);
        }
        self.drop_if_empty(id);
        for fact in diff.removed {
            self.emit(id, fact, false);
        }
        for fact in diff.added {
            self.emit(id, fact, true);
        }
        true
    }

    /// Dispatch one batch op to its typed staging method.
    pub fn apply_op(&mut self, op: WriteOp) {
        match op {
            WriteOp::Upsert(t) => {
                self.upsert(t);
            }
            WriteOp::Link {
                source,
                local_id,
                entity,
            } => self.link(source, &local_id, entity),
            WriteOp::RetractSource(s) => {
                self.retract_source(s);
            }
            WriteOp::RetractSourceEntity { source, local_id } => {
                self.retract_source_entity(source, &local_id);
            }
            WriteOp::OverwriteVolatile {
                source,
                volatile,
                fresh,
            } => {
                self.overwrite_volatile(source, &volatile, fresh);
            }
            WriteOp::Mutate { entity, edit } => {
                self.mutate(entity, edit);
            }
        }
    }

    /// The net deltas staged so far — one per touched entity, in entity
    /// order, entities whose edits cancelled out left out. What a
    /// write-ahead logger appends *before* [`commit`](Self::commit), which
    /// returns the same deltas in the same order.
    pub fn deltas(&mut self) -> &[Delta] {
        let settled = self.deltas.is_sorted_by_key(|d| d.entity);
        if !settled || self.deltas.iter().any(Delta::is_empty) {
            settle(&mut self.deltas);
            self.slots = self
                .deltas
                .iter()
                .enumerate()
                .map(|(at, d)| (d.entity, at))
                .collect();
        }
        &self.deltas
    }

    /// Make the staged edits stand: apply each net delta to the index,
    /// bump the generation once per delta, and return the receipt. The
    /// deltas leave only through the receipt — producers append them to
    /// the oplog; nothing is retained in-process.
    pub fn commit(mut self) -> CommitReceipt {
        let mut deltas = mem::take(&mut self.deltas);
        settle(&mut deltas);
        let undo = mem::take(&mut self.undo);
        let kg = &mut *self.kg;
        // An entity is gone for good if the transaction rewrote it away
        // and did not create it in the first place.
        let mut created = FxHashSet::default();
        let mut entities_removed = Vec::new();
        for entry in &undo {
            match entry {
                Undo::Remove(id) => {
                    created.insert(*id);
                }
                Undo::Record(id, _) if !created.contains(id) && !kg.contains(*id) => {
                    entities_removed.push(*id);
                }
                _ => {}
            }
        }
        entities_removed.sort_unstable();
        entities_removed.dedup();
        let (mut facts_added, mut facts_removed) = (0, 0);
        for delta in &deltas {
            kg.index_mut().apply(delta);
            kg.note_delta(delta);
            facts_added += delta.added.len();
            facts_removed += delta.removed.len();
        }
        CommitReceipt {
            deltas,
            facts_added,
            facts_removed,
            entities_removed,
        }
    }
}

impl Drop for KgTransaction<'_> {
    /// Roll back whatever [`commit`](KgTransaction::commit) did not
    /// consume, newest edit first.
    fn drop(&mut self) {
        let kg = &mut *self.kg;
        while let Some(entry) = self.undo.pop() {
            match entry {
                Undo::Pop(id) => {
                    if let Some(record) = kg.entities.get_mut(&id) {
                        record.triples.pop();
                    }
                }
                Undo::Meta(id, at, meta) => {
                    if let Some(t) = kg.entities.get_mut(&id).and_then(|r| r.triples.get_mut(at)) {
                        t.meta = meta;
                    }
                }
                Undo::Remove(id) => {
                    kg.entities.remove(&id);
                }
                Undo::Record(id, record) => {
                    kg.entities.insert(id, record);
                }
                Undo::Link(key, Some(entity)) => {
                    kg.links.insert(key, entity);
                }
                Undo::Link(key, None) => {
                    kg.links.remove(&key);
                }
            }
        }
    }
}

impl KnowledgeGraph {
    /// Commit one upsert, unlogged — the single-op convenience tests,
    /// examples and workload generators build fixtures with.
    pub fn commit_upsert(&mut self, triple: ExtendedTriple) -> CommitReceipt {
        WriteBatch::new().upsert(triple).commit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{intern, FactMeta, GraphRead, Value};

    fn meta(src: u32) -> FactMeta {
        FactMeta::from_source(SourceId(src), 0.9)
    }

    fn fact(e: u64, p: &str, v: Value, src: u32) -> ExtendedTriple {
        ExtendedTriple::simple(EntityId(e), intern(p), v, meta(src))
    }

    #[test]
    fn batch_commit_stages_then_applies_atomically() {
        let mut kg = KnowledgeGraph::new();
        let receipt = WriteBatch::new()
            .named_entity(
                EntityId(1),
                "Billie Eilish",
                "music_artist",
                SourceId(1),
                0.9,
            )
            .upsert(fact(1, "born", Value::Int(2001), 1))
            .link(SourceId(1), "a1", EntityId(1))
            .commit(&mut kg);

        assert_eq!(receipt.facts_added, 3);
        assert_eq!(receipt.facts_removed, 0);
        assert_eq!(receipt.changed_entities(), vec![EntityId(1)]);
        assert!(receipt.entities_removed.is_empty());
        assert_eq!(kg.generation(), 1, "one bump per delta");
        assert_eq!(kg.entity(EntityId(1)).unwrap().fact_count(), 3);
        assert_eq!(kg.lookup_link(SourceId(1), "a1"), Some(EntityId(1)));
        assert_eq!(kg.find_by_name("Billie Eilish"), vec![EntityId(1)]);
    }

    #[test]
    fn later_ops_read_earlier_staged_state() {
        // Link → retract-source-entity → re-link + upsert, in ONE batch:
        // the retraction must see the link staged before it.
        let mut kg = KnowledgeGraph::new();
        kg.commit_upsert(fact(1, "name", Value::str("Old"), 1));

        let mut txn = KgTransaction::new(&mut kg);
        txn.link(SourceId(1), "x", EntityId(1));
        assert_eq!(
            txn.retract_source_entity(SourceId(1), "x"),
            1,
            "staged link visible to the staged retraction"
        );
        assert_eq!(txn.retract_source_entity(SourceId(1), "unlinked"), 0);
        let receipt = txn.commit();
        assert!(!kg.contains(EntityId(1)));
        assert_eq!(receipt.entities_removed, vec![EntityId(1)]);
        assert_eq!(kg.lookup_link(SourceId(1), "x"), None);
    }

    #[test]
    fn upsert_merge_is_provenance_only_and_emits_no_delta() {
        let mut kg = KnowledgeGraph::new();
        let mut txn = KgTransaction::new(&mut kg);
        assert!(txn.upsert(fact(1, "name", Value::str("X"), 1)), "fresh");
        txn.commit();
        let g0 = kg.generation();
        let mut txn = KgTransaction::new(&mut kg);
        assert!(!txn.upsert(fact(1, "name", Value::str("X"), 2)), "merged");
        let receipt = txn.commit();
        assert!(receipt.is_empty());
        assert_eq!(kg.generation(), g0, "merge bumps nothing");
        assert_eq!(
            kg.entity(EntityId(1)).unwrap().triples[0]
                .meta
                .source_count(),
            2
        );
    }

    #[test]
    fn mutate_edits_enter_the_receipt() {
        // The old mutate_entity returned its delta to the caller only —
        // invisible to log followers. Committed through a batch, the edit
        // is a first-class delta like any other op.
        let mut kg = KnowledgeGraph::new();
        kg.commit_upsert(fact(1, "population", Value::Int(-5), 1));
        let g0 = kg.generation();
        let pred = intern("population");
        let mut txn = KgTransaction::new(&mut kg);
        assert!(txn.mutate(EntityId(1), |rec| {
            for t in &mut rec.triples {
                if t.predicate == pred {
                    t.object = Value::Int(120_000);
                }
            }
        }));
        let receipt = txn.commit();
        assert_eq!((receipt.facts_added, receipt.facts_removed), (1, 1));
        assert_eq!(receipt.deltas.len(), 1);
        assert_eq!(receipt.deltas[0].added[0].object, Value::Int(120_000));
        assert_eq!(receipt.deltas[0].removed[0].object, Value::Int(-5));
        assert!(kg.generation() > g0, "edit is read-visible");
        assert_eq!(
            kg.postings(&crate::ProbeKey::Literal(pred, Value::Int(120_000))),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn mutate_unknown_entity_is_a_counted_miss() {
        let mut kg = KnowledgeGraph::new();
        let mut txn = KgTransaction::new(&mut kg);
        assert!(!txn.mutate(EntityId(404), |rec| rec.triples.clear()));
        let receipt = txn.commit();
        assert!(receipt.is_empty());
    }

    #[test]
    fn volatile_overwrite_in_batch_matches_direct_semantics() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Song", "song", SourceId(1), 0.9);
        kg.commit_upsert(fact(1, "popularity", Value::Int(10), 1));
        let mut volatile = FxHashSet::default();
        volatile.insert(intern("popularity"));
        let mut txn = KgTransaction::new(&mut kg);
        let dropped = txn.overwrite_volatile(
            SourceId(1),
            &volatile,
            vec![
                fact(1, "popularity", Value::Int(99), 1),
                // Unknown entity: skipped, like the direct mutator.
                fact(7, "popularity", Value::Int(1), 1),
            ],
        );
        assert_eq!(dropped, 1);
        txn.commit();
        assert!(!kg.contains(EntityId(7)));
        assert_eq!(
            kg.entity(EntityId(1)).unwrap().values(intern("popularity")),
            vec![&Value::Int(99)]
        );
    }

    #[test]
    fn retract_source_receipt_names_dropped_entities() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Keep", "person", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Gone", "person", SourceId(5), 0.9);
        kg.commit_upsert(fact(1, "note", Value::str("from 5"), 5));
        let mut txn = KgTransaction::new(&mut kg);
        assert_eq!(txn.retract_source(SourceId(5)), (3, 1), "(facts, entities)");
        let receipt = txn.commit();
        assert_eq!(receipt.entities_removed, vec![EntityId(2)]);
        assert_eq!(receipt.changed_entities(), vec![EntityId(1), EntityId(2)]);
        assert!(kg.contains(EntityId(1)));
        assert!(!kg.contains(EntityId(2)));
    }

    #[test]
    fn receipt_deltas_replay_into_an_identical_index() {
        let mut kg = KnowledgeGraph::new();
        let mut feed: Vec<Delta> = Vec::new();
        feed.extend(
            WriteBatch::new()
                .named_entity(EntityId(1), "A", "person", SourceId(1), 0.9)
                .named_entity(EntityId(2), "B", "person", SourceId(2), 0.9)
                .upsert(fact(1, "knows", Value::Entity(EntityId(2)), 1))
                .commit(&mut kg)
                .deltas,
        );
        feed.extend(
            WriteBatch::new()
                .retract_source(SourceId(2))
                .commit(&mut kg)
                .deltas,
        );
        let mut replayed = crate::TripleIndex::new();
        for delta in &feed {
            replayed.apply(delta);
        }
        assert_eq!(replayed.fact_count(), kg.index().fact_count());
        assert_eq!(replayed.entity_count(), kg.index().entity_count());
        assert_eq!(
            replayed.referencing(EntityId(2)),
            kg.index().referencing(EntityId(2))
        );
    }

    #[test]
    fn staging_leaves_the_graph_untouched_until_apply() {
        // Staging edits records in place but moves neither the index nor
        // the generation; dropping the transaction undoes the edits.
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "A", "person", SourceId(1), 0.9);
        let (g0, facts0) = (kg.generation(), kg.index().fact_count());
        let before = kg.entity(EntityId(1)).cloned();
        {
            let mut txn = KgTransaction::new(&mut kg);
            txn.upsert(fact(1, "born", Value::Int(1990), 1));
            txn.upsert(fact(2, "born", Value::Int(1991), 1));
            txn.retract_source(SourceId(1));
            assert!(
                !txn.contains(EntityId(1)),
                "staged reads see the retraction"
            );
            // Entity 2 was added and retracted: its delta cancels out.
            assert_eq!(txn.deltas().len(), 1);
            assert_eq!(txn.deltas()[0].removed.len(), 2);
        }
        assert_eq!(kg.generation(), g0);
        assert_eq!(kg.index().fact_count(), facts0);
        assert_eq!(kg.entity(EntityId(1)).cloned(), before, "rolled back");
        assert!(!kg.contains(EntityId(2)));
    }

    #[test]
    fn churn_batch_nets_to_nothing() {
        // The churn shape: link a source entity, retract its facts, and
        // re-upsert the same facts in one batch. Nothing changed, so the
        // entity emits no delta and the generation stays put.
        let mut kg = KnowledgeGraph::new();
        let mut shared = fact(1, "alias", Value::str("Ace"), 1);
        shared.meta.merge_source(SourceId(2), 0.8);
        let facts = [
            fact(1, "name", Value::str("Ada"), 1),
            shared,
            fact(1, "knows", Value::Entity(EntityId(2)), 1),
        ];
        let mut batch = WriteBatch::new();
        for f in &facts {
            batch = batch.upsert(f.clone());
        }
        batch.commit(&mut kg);
        let spo = |kg: &KnowledgeGraph| {
            let mut facts: Vec<(Symbol, Value)> = (kg.index().facts_of(EntityId(1)))
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            facts.sort_unstable();
            facts
        };
        let (g0, facts0, spo0) = (kg.generation(), kg.index().fact_count(), spo(&kg));

        let mut churn = KgTransaction::new(&mut kg);
        churn.link(SourceId(1), "ada", EntityId(1));
        assert_eq!(churn.retract_source_entity(SourceId(1), "ada"), 2);
        for f in &facts {
            churn.upsert(f.clone());
        }
        churn.upsert(fact(3, "name", Value::str("Cy"), 1));
        let receipt = churn.commit();
        assert_eq!(receipt.deltas.len(), 1, "only entity 3 changed");
        assert_eq!(receipt.deltas[0].entity, EntityId(3));
        assert_eq!(kg.generation(), g0 + 1);
        assert_eq!(kg.index().fact_count(), facts0 + 1);
        assert_eq!(spo(&kg), spo0, "index unchanged for the churned entity");
        assert_eq!(
            kg.postings(&crate::ProbeKey::Edge(intern("knows"), EntityId(2))),
            vec![EntityId(1)]
        );
        assert!(receipt.entities_removed.is_empty());
    }
}
