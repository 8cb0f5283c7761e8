//! The transactional, log-first write API.
//!
//! The paper's platform has **one** write pipeline feeding many derived
//! serving stores (§3.1). Producers *stage* mutations in a [`WriteBatch`]
//! (or interactively in a [`KgTransaction`]) and then commit them
//! atomically, receiving one [`CommitReceipt`] that carries everything the
//! fan-out needs — the exact [`Delta`] payloads in wire-ready form, the
//! store's new generation, and per-op outcomes. The raw `KnowledgeGraph`
//! mutators (`upsert_fact`, `retract_source*`, `overwrite_volatile_partition`,
//! `mutate_entity`) are crate-internal; the receipt is the only delta
//! channel — there is no in-process changelog to drain, appending the
//! receipt's deltas to the oplog is the whole fan-out.
//!
//! # Staging vs applying
//!
//! A commit against the stable [`KnowledgeGraph`] runs in two phases:
//!
//! 1. **Stage** ([`KgTransaction`]) — ops are applied to a copy-on-write
//!    *shadow* of only the touched entity records and `same_as` links,
//!    against an immutable borrow of the graph. Staging computes the exact
//!    per-op [`Delta`]s and [`OpOutcome`]s, and later ops read earlier
//!    ops' staged effects (a link recorded in the batch is visible to a
//!    retraction staged after it).
//! 2. **Apply** ([`KnowledgeGraph::apply_staged`]) — the staged deltas are
//!    replayed onto the live index (the same [`TripleIndex::apply`]
//!    path log replicas use), the shadow records and links are swapped in,
//!    and the generation is bumped per non-empty delta exactly as the
//!    direct mutators do.
//!
//! The split is what makes **write-ahead logging** possible: the Graph
//! Engine's `LoggedWriter` appends the staged deltas to the durable
//! `OperationLog` *before* applying them, so the log — not the store — is
//! the source of truth. A producer that crashes between append and apply
//! loses nothing: the logged deltas replay into any follower.
//!
//! There are exactly two ways to commit: [`WriteBatch::commit`] against a
//! bare `&mut KnowledgeGraph` (unlogged — oracles, fixtures, tests), and
//! the Graph Engine's `LoggedWriter` (the write-ahead door every served
//! graph goes through).
//!
//! [`TripleIndex::apply`]: crate::TripleIndex::apply

use std::fmt;
use std::sync::Arc;

use crate::index::flatten;
use crate::{
    Delta, DeltaFact, EntityId, EntityRecord, ExtendedTriple, FxHashMap, FxHashSet, KnowledgeGraph,
    SourceId, Symbol,
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

    /// Stage this batch against `kg`, then apply it atomically — the
    /// unlogged commit. A served graph commits through the Graph Engine's
    /// `LoggedWriter` instead, which appends the staged deltas to its log
    /// before applying them.
    pub fn commit(self, kg: &mut KnowledgeGraph) -> CommitReceipt {
        let staged = {
            let mut txn = KgTransaction::new(kg);
            for op in self.ops {
                txn.apply_op(op);
            }
            txn.into_staged()
        };
        kg.apply_staged(staged)
    }
}

/// What one staged op did, in batch order — the per-op feedback fusion and
/// curation counters are built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// An upsert landed; `fresh` is true if a brand-new fact was added
    /// (false: provenance merged into an identical existing fact).
    Upserted {
        /// True if the fact was new knowledge.
        fresh: bool,
    },
    /// A `same_as` link was recorded.
    Linked,
    /// A whole source was retracted.
    RetractedSource {
        /// Facts dropped (left without any provenance).
        facts: usize,
        /// Entities dropped (left without any facts).
        entities: usize,
    },
    /// One source entity's contribution was retracted.
    RetractedEntity {
        /// Facts dropped.
        facts: usize,
    },
    /// A volatile partition was overwritten.
    VolatileOverwritten {
        /// Old volatile facts dropped before the fresh ones were fused.
        dropped: usize,
    },
    /// A record edit ran (or missed).
    Mutated {
        /// True if the entity existed and the closure ran.
        found: bool,
        /// Index facts the edit added.
        added: usize,
        /// Index facts the edit removed.
        removed: usize,
    },
}

/// The result of one atomic commit: the change payload and everything a
/// fan-out consumer (oplog append, overlay pruning, metrics) needs.
///
/// `deltas` are in the same self-contained vocabulary the
/// [`wire`](crate::wire) module serializes — hand them to
/// `OperationLog::append_op` untouched.
#[derive(Debug, Default)]
pub struct CommitReceipt {
    /// Per-op deltas, in staging order (ops that changed nothing emit no
    /// delta; multi-entity ops emit one delta per touched entity).
    pub deltas: Vec<Delta>,
    /// Per-op outcomes, aligned with the batch (one entry per staged op).
    pub outcomes: Vec<OpOutcome>,
    /// The store's generation after the commit — the plan-cache signal
    /// readers compare against.
    pub generation: u64,
    /// Index facts added across the batch.
    pub facts_added: usize,
    /// Index facts removed across the batch.
    pub facts_removed: usize,
    /// Entities whose derived state must refresh (sorted, deduplicated).
    pub entities_changed: Vec<EntityId>,
    /// Entities dropped entirely by this commit (sorted) — the signal
    /// overlay serving uses to prune shadowed tombstones.
    pub entities_removed: Vec<EntityId>,
}

impl CommitReceipt {
    /// True if the commit changed nothing observable.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Count of upsert ops that added brand-new facts.
    pub fn fresh_upserts(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, OpOutcome::Upserted { fresh: true }))
            .count()
    }
}

/// Staged writes, transactional: the transport between
/// [`KgTransaction::into_staged`] and [`KnowledgeGraph::apply_staged`].
///
/// A `StagedCommit` is only meaningful against the graph state it was
/// staged from — apply it to that same graph (under the same exclusive
/// access) or drop it.
#[derive(Debug, Default)]
pub struct StagedCommit {
    pub(crate) deltas: Vec<Delta>,
    pub(crate) outcomes: Vec<OpOutcome>,
    /// Final staged state of every touched record (`None` = deleted).
    pub(crate) records: FxHashMap<EntityId, Option<EntityRecord>>,
    /// Final staged state of every touched link (`None` = removed).
    pub(crate) links: FxHashMap<(SourceId, Arc<str>), Option<EntityId>>,
}

impl StagedCommit {
    /// The exact per-op deltas this commit will emit — what a write-ahead
    /// logger appends *before* applying.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// True if applying would change nothing observable.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// An interactive staging transaction over an immutable
/// [`KnowledgeGraph`] borrow.
///
/// Writes apply to a copy-on-write shadow of the touched records/links;
/// reads ([`record`](Self::record), [`lookup_link`](Self::lookup_link),
/// [`contains`](Self::contains)) observe staged state, so multi-step
/// producers (fusion's relationship-node matching, the pipeline's
/// link-then-retract update path) behave exactly as they did against the
/// live graph. Finish with [`into_staged`](Self::into_staged) and apply
/// via [`KnowledgeGraph::apply_staged`].
pub struct KgTransaction<'a> {
    kg: &'a KnowledgeGraph,
    staged: StagedCommit,
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

/// The exact index [`Delta`] between two fact multisets of one entity
/// (multiset semantics, matching [`TripleIndex`](crate::TripleIndex) row
/// maintenance).
fn multiset_delta(entity: EntityId, old: Vec<DeltaFact>, new: &[DeltaFact]) -> Delta {
    let mut removed = old;
    let mut added = Vec::new();
    for fact in new {
        match removed.iter().position(|f| f == fact) {
            Some(at) => {
                removed.swap_remove(at);
            }
            None => added.push(fact.clone()),
        }
    }
    Delta {
        entity,
        added,
        removed,
    }
}

impl<'a> KgTransaction<'a> {
    /// Begin staging against `kg`.
    pub fn new(kg: &'a KnowledgeGraph) -> Self {
        KgTransaction {
            kg,
            staged: StagedCommit::default(),
        }
    }

    // ---- staged reads -------------------------------------------------

    /// The staged view of one entity record.
    pub fn record(&self, id: EntityId) -> Option<&EntityRecord> {
        match self.staged.records.get(&id) {
            Some(staged) => staged.as_ref(),
            None => self.kg.entities.get(&id),
        }
    }

    /// True if the entity exists in the staged view.
    pub fn contains(&self, id: EntityId) -> bool {
        self.record(id).is_some()
    }

    /// The staged view of the `same_as` link table.
    pub fn lookup_link(&self, source: SourceId, local_id: &str) -> Option<EntityId> {
        match self.staged.links.get(&(source, Arc::from(local_id))) {
            Some(staged) => *staged,
            None => self.kg.lookup_link(source, local_id),
        }
    }

    /// Every entity id visible in the staged view, sorted — retraction
    /// scans iterate this so multi-entity deltas are emitted in a
    /// deterministic order.
    fn staged_entity_ids(&self) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self
            .kg
            .entities
            .keys()
            .copied()
            .filter(|id| !matches!(self.staged.records.get(id), Some(None)))
            .chain(
                self.staged
                    .records
                    .iter()
                    .filter_map(|(id, r)| r.as_ref().map(|_| *id)),
            )
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Copy-on-write handle to one record's staged state.
    fn staged_record(&mut self, id: EntityId) -> &mut Option<EntityRecord> {
        let base = self.kg.entities.get(&id);
        self.staged
            .records
            .entry(id)
            .or_insert_with(|| base.cloned())
    }

    fn emit(&mut self, delta: Delta) {
        if !delta.is_empty() {
            self.staged.deltas.push(delta);
        }
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
        let flat = flatten(&triple);
        let slot = self.staged_record(id);
        let record = slot.get_or_insert_with(|| EntityRecord::new(id));
        let fresh = record.upsert(triple);
        if fresh {
            let delta = Delta {
                entity: id,
                added: flat
                    .map(|(predicate, object)| DeltaFact { predicate, object })
                    .into_iter()
                    .collect(),
                removed: Vec::new(),
            };
            self.emit(delta);
        }
        self.staged.outcomes.push(OpOutcome::Upserted { fresh });
        fresh
    }

    /// Stage a `same_as` link.
    pub fn link(&mut self, source: SourceId, local_id: &str, entity: EntityId) {
        self.staged
            .links
            .insert((source, Arc::from(local_id)), Some(entity));
        self.staged.outcomes.push(OpOutcome::Linked);
    }

    /// Stage a whole-source retraction; returns `(facts, entities)`
    /// dropped, mirroring the direct mutator.
    pub fn retract_source(&mut self, source: SourceId) -> (usize, usize) {
        let mut facts_dropped = 0;
        let mut entities_dropped = 0;
        for id in self.staged_entity_ids() {
            // Read-only probe first: only records that actually cite the
            // source (or are empty, which this op garbage-collects like
            // the direct mutator) take the copy-on-write handle —
            // untouched records must not be cloned into the shadow.
            let touched = self.record(id).is_some_and(|r| {
                r.triples.is_empty() || r.triples.iter().any(|t| t.meta.has_source(source))
            });
            if !touched {
                continue;
            }
            let slot = self.staged_record(id);
            let Some(record) = slot.as_mut() else {
                continue;
            };
            let dropped = record.retract_source_facts(source, None);
            facts_dropped += dropped.len();
            let empty = record.triples.is_empty();
            if empty {
                *slot = None;
                entities_dropped += 1;
            }
            if !dropped.is_empty() {
                let removed: Vec<DeltaFact> = dropped
                    .iter()
                    .filter_map(flatten)
                    .map(|(predicate, object)| DeltaFact { predicate, object })
                    .collect();
                self.emit(Delta {
                    entity: id,
                    added: Vec::new(),
                    removed,
                });
            }
        }
        // Drop every link the source contributed (staged links included).
        let mut keys: Vec<(SourceId, Arc<str>)> = self
            .kg
            .links
            .keys()
            .filter(|(s, _)| *s == source)
            .cloned()
            .chain(
                self.staged
                    .links
                    .iter()
                    .filter(|((s, _), v)| *s == source && v.is_some())
                    .map(|(k, _)| k.clone()),
            )
            .collect();
        keys.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        keys.dedup();
        for key in keys {
            self.staged.links.insert(key, None);
        }
        self.staged.outcomes.push(OpOutcome::RetractedSource {
            facts: facts_dropped,
            entities: entities_dropped,
        });
        (facts_dropped, entities_dropped)
    }

    /// Stage one source entity's retraction; returns facts dropped.
    pub fn retract_source_entity(&mut self, source: SourceId, local_id: &str) -> usize {
        let Some(kg_id) = self.lookup_link(source, local_id) else {
            self.staged
                .outcomes
                .push(OpOutcome::RetractedEntity { facts: 0 });
            return 0;
        };
        let mut dropped = Vec::new();
        let slot = self.staged_record(kg_id);
        if let Some(record) = slot.as_mut() {
            dropped = record.retract_source_facts(source, None);
            if record.triples.is_empty() {
                *slot = None;
            }
        }
        if !dropped.is_empty() {
            let removed: Vec<DeltaFact> = dropped
                .iter()
                .filter_map(flatten)
                .map(|(predicate, object)| DeltaFact { predicate, object })
                .collect();
            self.emit(Delta {
                entity: kg_id,
                added: Vec::new(),
                removed,
            });
        }
        self.staged
            .links
            .insert((source, Arc::from(local_id)), None);
        self.staged.outcomes.push(OpOutcome::RetractedEntity {
            facts: dropped.len(),
        });
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
        for id in self.staged_entity_ids() {
            // Read-only probe first (see `retract_source`): only records
            // holding a volatile fact from this source are shadow-cloned.
            let touched = self.record(id).is_some_and(|r| {
                r.triples
                    .iter()
                    .any(|t| volatile.contains(&t.predicate) && t.meta.has_source(source))
            });
            if !touched {
                continue;
            }
            let slot = self.staged_record(id);
            let Some(record) = slot.as_mut() else {
                continue;
            };
            let gone = record.retract_source_facts(source, Some(volatile));
            if gone.is_empty() {
                continue;
            }
            dropped_total += gone.len();
            // Records left empty are kept, matching the direct mutator:
            // the entity stays visible for the fresh facts below.
            let removed: Vec<DeltaFact> = gone
                .iter()
                .filter_map(flatten)
                .map(|(predicate, object)| DeltaFact { predicate, object })
                .collect();
            self.emit(Delta {
                entity: id,
                added: Vec::new(),
                removed,
            });
        }
        for t in fresh {
            if let Some(id) = t.subject.as_kg() {
                if self.contains(id) {
                    // Same path as a staged upsert, but without a per-fact
                    // outcome entry — the overwrite is one op.
                    let flat = flatten(&t);
                    let slot = self.staged_record(id);
                    let record = slot.get_or_insert_with(|| EntityRecord::new(id));
                    if record.upsert(t) {
                        let delta = Delta {
                            entity: id,
                            added: flat
                                .map(|(predicate, object)| DeltaFact { predicate, object })
                                .into_iter()
                                .collect(),
                            removed: Vec::new(),
                        };
                        self.emit(delta);
                    }
                }
            }
        }
        self.staged.outcomes.push(OpOutcome::VolatileOverwritten {
            dropped: dropped_total,
        });
        dropped_total
    }

    /// Stage an in-place record edit; returns `false` if the entity is
    /// unknown (the closure does not run). A record left without facts is
    /// dropped, matching the retraction paths.
    pub fn mutate(&mut self, id: EntityId, edit: impl FnOnce(&mut EntityRecord)) -> bool {
        let slot = self.staged_record(id);
        let Some(record) = slot.as_mut() else {
            self.staged.outcomes.push(OpOutcome::Mutated {
                found: false,
                added: 0,
                removed: 0,
            });
            return false;
        };
        let before = record_facts(record);
        edit(record);
        let after = record_facts(record);
        if record.triples.is_empty() {
            *slot = None;
        }
        let delta = multiset_delta(id, before, &after);
        let (added, removed) = (delta.added.len(), delta.removed.len());
        self.emit(delta);
        self.staged.outcomes.push(OpOutcome::Mutated {
            found: true,
            added,
            removed,
        });
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

    /// Ops staged so far.
    pub fn ops_staged(&self) -> usize {
        self.staged.outcomes.len()
    }

    /// Finish staging.
    pub fn into_staged(self) -> StagedCommit {
        self.staged
    }
}

impl KnowledgeGraph {
    /// Apply a [`StagedCommit`] produced by a [`KgTransaction`] over this
    /// graph — the single commit point every producer funnels through.
    ///
    /// The staged deltas are replayed onto the live index (bumping the
    /// generation per non-empty delta, exactly like the direct mutators)
    /// and the staged records and links are swapped in. The deltas leave
    /// only through the returned receipt — producers append them to the
    /// oplog; nothing is retained in-process.
    pub fn apply_staged(&mut self, staged: StagedCommit) -> CommitReceipt {
        let StagedCommit {
            deltas,
            outcomes,
            records,
            links,
        } = staged;
        let mut entities_removed = Vec::new();
        for delta in &deltas {
            self.index_mut().apply(delta);
        }
        for (id, record) in records {
            match record {
                Some(record) => {
                    self.entities.insert(id, record);
                }
                None => {
                    if self.entities.remove(&id).is_some() {
                        entities_removed.push(id);
                    }
                }
            }
        }
        for (key, link) in links {
            match link {
                Some(entity) => {
                    self.links.insert(key, entity);
                }
                None => {
                    self.links.remove(&key);
                }
            }
        }
        entities_removed.sort_unstable();
        let mut facts_added = 0;
        let mut facts_removed = 0;
        let mut entities_changed: Vec<EntityId> = Vec::new();
        for delta in &deltas {
            facts_added += delta.added.len();
            facts_removed += delta.removed.len();
            entities_changed.push(delta.entity);
        }
        entities_changed.sort_unstable();
        entities_changed.dedup();
        for delta in &deltas {
            self.note_delta(delta);
        }
        CommitReceipt {
            deltas,
            outcomes,
            generation: self.generation(),
            facts_added,
            facts_removed,
            entities_changed,
            entities_removed,
        }
    }

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

        assert_eq!(receipt.outcomes.len(), 4);
        assert_eq!(receipt.fresh_upserts(), 3);
        assert_eq!(receipt.facts_added, 3);
        assert_eq!(receipt.facts_removed, 0);
        assert_eq!(receipt.entities_changed, vec![EntityId(1)]);
        assert!(receipt.entities_removed.is_empty());
        assert_eq!(receipt.generation, kg.generation());
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

        let receipt = WriteBatch::new()
            .link(SourceId(1), "x", EntityId(1))
            .retract_source_entity(SourceId(1), "x")
            .commit(&mut kg);
        assert_eq!(
            receipt.outcomes[1],
            OpOutcome::RetractedEntity { facts: 1 },
            "staged link visible to the staged retraction"
        );
        assert!(!kg.contains(EntityId(1)));
        assert_eq!(receipt.entities_removed, vec![EntityId(1)]);
        assert_eq!(kg.lookup_link(SourceId(1), "x"), None);
    }

    #[test]
    fn upsert_merge_is_provenance_only_and_emits_no_delta() {
        let mut kg = KnowledgeGraph::new();
        kg.commit_upsert(fact(1, "name", Value::str("X"), 1));
        let g0 = kg.generation();
        let receipt = kg.commit_upsert(fact(1, "name", Value::str("X"), 2));
        assert_eq!(receipt.outcomes, vec![OpOutcome::Upserted { fresh: false }]);
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
        let receipt = WriteBatch::new()
            .mutate(EntityId(1), move |rec| {
                for t in &mut rec.triples {
                    if t.predicate == pred {
                        t.object = Value::Int(120_000);
                    }
                }
            })
            .commit(&mut kg);
        assert_eq!(
            receipt.outcomes,
            vec![OpOutcome::Mutated {
                found: true,
                added: 1,
                removed: 1
            }]
        );
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
        let receipt = WriteBatch::new()
            .mutate(EntityId(404), |rec| rec.triples.clear())
            .commit(&mut kg);
        assert_eq!(
            receipt.outcomes,
            vec![OpOutcome::Mutated {
                found: false,
                added: 0,
                removed: 0
            }]
        );
        assert!(receipt.is_empty());
    }

    #[test]
    fn volatile_overwrite_in_batch_matches_direct_semantics() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Song", "song", SourceId(1), 0.9);
        kg.commit_upsert(fact(1, "popularity", Value::Int(10), 1));
        let mut volatile = FxHashSet::default();
        volatile.insert(intern("popularity"));
        let receipt = WriteBatch::new()
            .overwrite_volatile(
                SourceId(1),
                volatile,
                vec![
                    fact(1, "popularity", Value::Int(99), 1),
                    // Unknown entity: skipped, like the direct mutator.
                    fact(7, "popularity", Value::Int(1), 1),
                ],
            )
            .commit(&mut kg);
        assert_eq!(
            receipt.outcomes,
            vec![OpOutcome::VolatileOverwritten { dropped: 1 }]
        );
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
        let receipt = WriteBatch::new()
            .retract_source(SourceId(5))
            .commit(&mut kg);
        assert_eq!(
            receipt.outcomes,
            vec![OpOutcome::RetractedSource {
                facts: 3,
                entities: 1
            }]
        );
        assert_eq!(receipt.entities_removed, vec![EntityId(2)]);
        assert_eq!(receipt.entities_changed, vec![EntityId(1), EntityId(2)]);
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
        let kg = {
            let mut kg = KnowledgeGraph::new();
            kg.add_named_entity(EntityId(1), "A", "person", SourceId(1), 0.9);
            kg
        };
        let g0 = kg.generation();
        let staged = {
            let mut txn = KgTransaction::new(&kg);
            txn.upsert(fact(1, "born", Value::Int(1990), 1));
            txn.retract_source(SourceId(1));
            txn.into_staged()
        };
        assert!(!staged.is_empty());
        assert_eq!(kg.generation(), g0, "staging is read-only");
        assert!(kg.contains(EntityId(1)), "nothing applied yet");
        assert_eq!(staged.deltas().len(), 2);
    }
}
