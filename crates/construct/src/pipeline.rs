//! The incremental knowledge-construction pipeline (§2.4, Fig. 5).
//!
//! Knowledge construction "is designed as a continuously running delta-based
//! framework; it always operates by consuming source diffs". Each source's
//! Added / Updated / Deleted / volatile payloads are processed with:
//!
//! * **Sources in turn** — sources link in turn, each fused and committed
//!   as one op, so a source links against a KG that already holds the
//!   sources committed before it and shared entities merge in the cycle
//!   they first meet.
//! * **Intra-source parallelism** — Added needs the full linking pipeline;
//!   Updated/Deleted use the `same_as` id-lookup fast path; the volatile
//!   payload is fused last via partition overwrite.
//!
//! A brand-new source is simply a batch with a full Added payload and empty
//! Updated/Deleted partitions.

use std::time::Instant;

use saga_core::{
    EntityId, EntityPayload, FxHashSet, IdGenerator, KgTransaction, KnowledgeGraph, Lsn, Result,
    SourceId, SubjectRef, Symbol,
};
use saga_graph::{LoggedWriter, OpKind};
use saga_ingest::SourceDelta;

use crate::fusion::{fuse_payload, FusionConfig, FusionReport};
use crate::linking::{LinkOutcome, Linker, LinkerConfig};
use crate::matching::MatchingModel;
use crate::obr::ObjectResolver;

/// One source's delta payload entering construction.
#[derive(Clone, Debug)]
pub struct SourceBatch {
    /// The source.
    pub source: SourceId,
    /// Provider name (reporting only).
    pub name: String,
    /// The Added/Updated/Deleted/volatile partitions from ingestion.
    pub delta: SourceDelta,
}

/// Aggregate counters for one construction cycle.
#[derive(Clone, Debug, Default)]
pub struct ConstructionReport {
    /// Sources consumed.
    pub sources: usize,
    /// Source entities linked to brand-new KG entities.
    pub new_entities: usize,
    /// Source entities linked to existing KG entities.
    pub matched_existing: usize,
    /// Updated entities re-fused via the id-lookup fast path.
    pub updated: usize,
    /// Updated entities that had no link and went through full linking.
    pub updated_relinked: usize,
    /// Deleted source entities retracted.
    pub deleted: usize,
    /// Volatile facts overwritten.
    pub volatile_facts: usize,
    /// Candidate pairs scored across all sources.
    pub pairs_scored: usize,
    /// Sum of per-payload fusion counters.
    pub fusion: FusionReport,
    /// Wall-clock milliseconds spent linking, summed over the sources.
    pub linking_ms: u128,
    /// Wall-clock milliseconds spent fusing and committing, summed over
    /// the sources.
    pub fusion_ms: u128,
    /// The log positions of the cycle's commits, one per source, in
    /// order. The change payload itself lives only in the writer's log,
    /// in the ops at these LSNs.
    pub lsns: Vec<Lsn>,
}

/// The construction pipeline executor.
pub struct KnowledgeConstructor {
    /// Linking configuration.
    pub linker: LinkerConfig,
    /// Fusion configuration.
    pub fusion: FusionConfig,
    /// Volatile predicates (from the ontology) for partition overwrite.
    pub volatile_predicates: FxHashSet<Symbol>,
}

impl KnowledgeConstructor {
    /// A constructor with the given volatile-predicate set and defaults
    /// elsewhere.
    pub fn new(volatile_predicates: FxHashSet<Symbol>) -> Self {
        KnowledgeConstructor {
            linker: LinkerConfig::default(),
            fusion: FusionConfig::default(),
            volatile_predicates,
        }
    }

    /// Consume one cycle of source batches through the writer. Sources go
    /// in turn: each links against the KG as the sources before it left
    /// it, then commits as one op, appended to the writer's operation log
    /// *before* it is applied to the KG, so derived stores follow the
    /// construction stream from the log. A log I/O error ends the cycle
    /// with `Err` and the failed commit unapplied; the sources committed
    /// before it stay committed.
    pub fn consume(
        &self,
        writer: &LoggedWriter,
        id_gen: &IdGenerator,
        batches: Vec<SourceBatch>,
        matcher: &dyn MatchingModel,
        resolver: &dyn ObjectResolver,
    ) -> Result<ConstructionReport> {
        let mut report = ConstructionReport {
            sources: batches.len(),
            ..Default::default()
        };
        let linker = Linker::new(self.linker.clone());
        for batch in batches {
            let link_start = Instant::now();
            let prep = {
                let kg = writer.read();
                prepare_source(&kg, id_gen, &linker, batch, matcher)
            };
            report.linking_ms += link_start.elapsed().as_millis();
            let fuse_start = Instant::now();
            let (_, commit) = writer.with_txn(OpKind::Upsert, |txn| {
                self.fuse_prepared(txn, prep, resolver, &mut report);
            })?;
            report.lsns.push(commit.lsn);
            report.fusion_ms += fuse_start.elapsed().as_millis();
        }
        Ok(report)
    }

    fn fuse_prepared(
        &self,
        txn: &mut KgTransaction<'_>,
        prep: PreparedSource,
        resolver: &dyn ObjectResolver,
        report: &mut ConstructionReport,
    ) {
        {
            report.new_entities += prep.added.new_entities;
            report.matched_existing += prep.added.matched_existing;
            report.pairs_scored += prep.added.pairs_scored + prep.relinked_updates.pairs_scored;
            report.updated_relinked += prep.relinked_updates.linked.len();

            // same_as links first: OBR's link-table path depends on them
            // (staged read-your-writes makes them visible immediately).
            for (src, local, id) in prep
                .added
                .links
                .iter()
                .chain(prep.relinked_updates.links.iter())
            {
                txn.link(*src, local, *id);
            }
            // Fuse Added (including re-linked updates).
            for p in prep
                .added
                .linked
                .into_iter()
                .chain(prep.relinked_updates.linked)
            {
                merge_fusion(
                    &mut report.fusion,
                    fuse_payload(txn, p, resolver, &self.fusion),
                );
            }
            // Updated fast path: retract the source's old contribution to
            // the entity, then fuse the fresh payload.
            for (kg_id, mut payload, local) in prep.updated {
                txn.retract_source_entity(prep.source, &local);
                txn.link(prep.source, &local, kg_id);
                payload.relink(kg_id);
                merge_fusion(
                    &mut report.fusion,
                    fuse_payload(txn, payload, resolver, &self.fusion),
                );
                report.updated += 1;
            }
            // Deleted.
            for local in prep.deleted {
                txn.retract_source_entity(prep.source, &local);
                report.deleted += 1;
            }
            // Volatile overwrite, last (§2.4: after added/deleted are
            // fused). Subjects resolve through the staged link table, so
            // volatile facts about entities linked earlier in this very
            // transaction are kept.
            let mut volatile = Vec::new();
            for mut t in prep.volatile {
                if let SubjectRef::Source(src, local) = &t.subject {
                    match txn.lookup_link(*src, local) {
                        Some(id) => t.subject = SubjectRef::Kg(id),
                        None => continue, // entity not (yet) in the KG
                    }
                }
                volatile.push(t);
            }
            report.volatile_facts += volatile.len();
            txn.overwrite_volatile(prep.source, &self.volatile_predicates, volatile);
        }
    }
}

struct PreparedSource {
    source: SourceId,
    added: LinkOutcome,
    /// Updated entities with a known link: `(kg id, payload, local id)`.
    updated: Vec<(EntityId, EntityPayload, String)>,
    /// Updated entities whose link was missing — sent through full linking.
    relinked_updates: LinkOutcome,
    deleted: Vec<String>,
    volatile: Vec<saga_core::ExtendedTriple>,
}

/// Per-source linking work: runs against an immutable KG snapshot.
fn prepare_source(
    kg: &KnowledgeGraph,
    id_gen: &IdGenerator,
    linker: &Linker,
    batch: SourceBatch,
    matcher: &dyn MatchingModel,
) -> PreparedSource {
    let SourceBatch { source, delta, .. } = batch;
    let added = linker.link(kg, id_gen, delta.added, matcher);

    // Intra-source: Updated takes the id-lookup fast path.
    let mut updated = Vec::new();
    let mut needs_linking = Vec::new();
    for p in delta.updated {
        let local = p
            .local_id()
            .expect("updated payloads are unlinked")
            .to_string();
        match kg.lookup_link(source, &local) {
            Some(id) => updated.push((id, p, local)),
            None => needs_linking.push(p),
        }
    }
    let relinked_updates = if needs_linking.is_empty() {
        LinkOutcome::default()
    } else {
        linker.link(kg, id_gen, needs_linking, matcher)
    };

    PreparedSource {
        source,
        added,
        updated,
        relinked_updates,
        deleted: delta.deleted,
        volatile: delta.volatile,
    }
}

fn merge_fusion(total: &mut FusionReport, one: FusionReport) {
    total.facts_added += one.facts_added;
    total.facts_merged += one.facts_merged;
    total.rel_nodes_merged += one.rel_nodes_merged;
    total.rel_nodes_added += one.rel_nodes_added;
    total.resolution.resolved += one.resolution.resolved;
    total.resolution.unresolved += one.resolution.unresolved;
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::matching::RuleMatcher;
    use crate::obr::LinkTableResolver;
    use saga_core::{intern, FactMeta, Value};
    use saga_graph::OperationLog;
    use saga_ingest::SourceDelta;

    fn volatile_set() -> FxHashSet<Symbol> {
        let mut s = FxHashSet::default();
        s.insert(intern("popularity"));
        s
    }

    fn artist(src: u32, id: &str, name: &str) -> EntityPayload {
        let mut p = EntityPayload::new(SourceId(src), id, intern("music_artist"));
        let meta = FactMeta::from_source(SourceId(src), 0.9);
        p.push_simple(intern("type"), Value::str("music_artist"), meta.clone());
        p.push_simple(intern("name"), Value::str(name), meta);
        p
    }

    fn batch(src: u32, delta: SourceDelta) -> SourceBatch {
        SourceBatch {
            source: SourceId(src),
            name: format!("src{src}"),
            delta,
        }
    }

    fn added(src: u32, payloads: Vec<EntityPayload>) -> SourceBatch {
        batch(
            src,
            SourceDelta {
                added: payloads,
                ..Default::default()
            },
        )
    }

    fn writer() -> LoggedWriter {
        LoggedWriter::new(
            Arc::new(parking_lot::RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        )
    }

    fn consume(
        ctor: &KnowledgeConstructor,
        writer: &LoggedWriter,
        gen: &IdGenerator,
        batches: Vec<SourceBatch>,
    ) -> ConstructionReport {
        ctor.consume(
            writer,
            gen,
            batches,
            &RuleMatcher::default(),
            &LinkTableResolver,
        )
        .unwrap()
    }

    #[test]
    fn full_added_payload_builds_the_graph() {
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        let report = consume(
            &ctor,
            &w,
            &gen,
            vec![added(
                1,
                vec![artist(1, "a1", "Billie Eilish"), artist(1, "a2", "Jay-Z")],
            )],
        );
        assert_eq!(report.new_entities, 2);
        assert_eq!(report.lsns, vec![Lsn(1)], "one source batch, one commit");
        let kg = w.read();
        assert_eq!(kg.entity_count(), 2);
        assert_eq!(kg.find_by_name("Billie Eilish").len(), 1);
        assert_eq!(
            kg.lookup_link(SourceId(1), "a1"),
            Some(kg.find_by_name("Billie Eilish")[0])
        );
        // The logged change feed names both new entities…
        let ops = w.log().read_after(Lsn::ZERO);
        let mut changed: Vec<EntityId> = ops.iter().flat_map(|op| op.changed_entities()).collect();
        changed.sort_unstable();
        changed.dedup();
        let mut ids: Vec<EntityId> = kg.entity_ids().collect();
        ids.sort_unstable();
        assert_eq!(changed, ids);
        // …and replaying its deltas onto an empty index rebuilds the KG's
        // index — the contract derived stores rely on.
        let mut replayed = saga_core::TripleIndex::new();
        for d in ops.iter().flat_map(|op| &op.deltas) {
            replayed.apply(d);
        }
        assert_eq!(replayed.fact_count(), kg.index().fact_count());
    }

    #[test]
    fn two_sources_merge_on_shared_entities() {
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        // Cycle 1: source 1 creates the artist.
        consume(
            &ctor,
            &w,
            &gen,
            vec![added(1, vec![artist(1, "a1", "Billie Eilish")])],
        );
        // Cycle 2: source 2 mentions the same artist (typo'd).
        let report = consume(
            &ctor,
            &w,
            &gen,
            vec![added(2, vec![artist(2, "z9", "Bilie Eilish")])],
        );
        assert_eq!(report.matched_existing, 1);
        assert_eq!(report.new_entities, 0);
        let kg = w.read();
        assert_eq!(kg.entity_count(), 1, "one canonical entity across sources");
        let id = kg.find_by_name("Billie Eilish")[0];
        assert_eq!(kg.lookup_link(SourceId(2), "z9"), Some(id));
    }

    #[test]
    fn updated_partition_uses_fast_path_and_replaces_facts() {
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        consume(
            &ctor,
            &w,
            &gen,
            vec![added(1, vec![artist(1, "a1", "Old Name")])],
        );
        let id = w.read().find_by_name("Old Name")[0];
        let report = consume(
            &ctor,
            &w,
            &gen,
            vec![batch(
                1,
                SourceDelta {
                    updated: vec![artist(1, "a1", "New Name")],
                    ..Default::default()
                },
            )],
        );
        assert_eq!(report.updated, 1);
        assert_eq!(report.new_entities, 0, "no re-linking for known entities");
        let kg = w.read();
        let rec = kg.entity(id).unwrap();
        assert_eq!(rec.name(), Some("New Name"));
        assert!(
            kg.find_by_name("Old Name").is_empty(),
            "old fact retracted with the update"
        );
    }

    #[test]
    fn deleted_partition_retracts_entities() {
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        consume(
            &ctor,
            &w,
            &gen,
            vec![added(1, vec![artist(1, "a1", "Ghost")])],
        );
        let report = consume(
            &ctor,
            &w,
            &gen,
            vec![batch(
                1,
                SourceDelta {
                    deleted: vec!["a1".into()],
                    ..Default::default()
                },
            )],
        );
        assert_eq!(report.deleted, 1);
        assert_eq!(w.read().entity_count(), 0);
    }

    #[test]
    fn volatile_payload_overwrites_without_touching_stable() {
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        // First cycle: stable + volatile arrive together (volatile split by
        // ingestion, but construction also tolerates inline volatile facts).
        let vol_fact = {
            let mut p = EntityPayload::new(SourceId(1), "a1", intern("music_artist"));
            p.push_simple(
                intern("popularity"),
                Value::Int(999),
                FactMeta::from_source(SourceId(1), 0.9),
            );
            p.triples[0].clone()
        };
        consume(
            &ctor,
            &w,
            &gen,
            vec![batch(
                1,
                SourceDelta {
                    added: vec![artist(1, "a1", "Billie Eilish")],
                    volatile: vec![vol_fact],
                    ..Default::default()
                },
            )],
        );
        let kg = w.read();
        let id = kg.find_by_name("Billie Eilish")[0];
        let rec = kg.entity(id).unwrap();
        assert_eq!(rec.values(intern("popularity")), vec![&Value::Int(999)]);
        assert_eq!(rec.name(), Some("Billie Eilish"));
    }

    #[test]
    fn consume_appends_each_commit_before_applying() {
        // One op per source, in order.
        let w = writer();
        let gen = IdGenerator::starting_at(1);
        let ctor = KnowledgeConstructor::new(volatile_set());
        let report = consume(
            &ctor,
            &w,
            &gen,
            vec![
                added(1, vec![artist(1, "a1", "Billie Eilish")]),
                added(2, vec![artist(2, "z9", "Jay-Z")]),
            ],
        );
        assert_eq!(report.lsns, vec![Lsn(1), Lsn(2)]);
        assert_eq!(w.log().head(), Lsn(2));
        assert_eq!(w.read().entity_count(), 2);
    }

    /// Four sources, each naming ten artists: `Artist {s}x{i}` when
    /// `disjoint`, else the same `Artist {i}` in every source.
    fn four_sources(disjoint: bool) -> Vec<SourceBatch> {
        (1..=4u32)
            .map(|s| {
                let payloads = (0..10)
                    .map(|i| {
                        let name = if disjoint {
                            format!("Artist {s}x{i}")
                        } else {
                            format!("Artist {i}")
                        };
                        artist(s, &format!("e{i}"), &name)
                    })
                    .collect();
                added(s, payloads)
            })
            .collect()
    }

    #[test]
    fn one_cycle_equals_one_source_per_cycle() {
        // A source consumed beside others links exactly as if it came in
        // its own cycle: it sees every source committed before it.
        let totals = |w: &LoggedWriter, new_entities: usize| {
            let kg = w.read();
            (kg.entity_count(), kg.fact_count(), new_entities)
        };
        for (disjoint, entities) in [(true, 40), (false, 10)] {
            let ctor = KnowledgeConstructor::new(volatile_set());

            let w = writer();
            let gen = IdGenerator::starting_at(1);
            let r = consume(&ctor, &w, &gen, four_sources(disjoint));
            let one_cycle = totals(&w, r.new_entities);

            let w = writer();
            let gen = IdGenerator::starting_at(1);
            let new_entities = four_sources(disjoint)
                .into_iter()
                .map(|b| consume(&ctor, &w, &gen, vec![b]).new_entities)
                .sum();
            let per_cycle = totals(&w, new_entities);

            assert_eq!(one_cycle, per_cycle, "disjoint={disjoint}");
            assert_eq!(one_cycle.0, entities, "disjoint={disjoint}");
        }
    }
}
