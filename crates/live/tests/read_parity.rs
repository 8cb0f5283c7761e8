//! Backend-parity property tests for the `GraphRead` serving API.
//!
//! One KGQ engine executes against the stable `KnowledgeGraph` and the
//! `ReplicaKg`. For any generated fact world the two must return
//! identical postings, conjunctions, flattened records and answers when
//! they hold the same data, and a `LiveReplica` rebuilt from a writer's
//! log must serve exactly the writer's graph.

use proptest::prelude::*;
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, GraphRead, KnowledgeGraph, ProbeKey, SourceId,
    Value,
};
use saga_live::{QueryEngine, ReplicaKg};

const PREDS: [&str; 3] = ["genre", "year", "rating"];
const TYPES: [&str; 2] = ["song", "album"];

/// One generated fact world: `(subject, type_idx, pred_idx, value, edge_target)`.
type FactSpec = Vec<(u64, u8, u8, i64, u64)>;

fn build_stable(facts: &FactSpec) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    for &(subject, ty, pred, value, target) in facts {
        let id = EntityId(subject);
        if !kg.contains(id) {
            kg.add_named_entity(
                id,
                &format!("Entity {subject}"),
                TYPES[ty as usize % TYPES.len()],
                SourceId(1),
                0.9,
            );
        }
        kg.commit_upsert(ExtendedTriple::simple(
            id,
            intern(PREDS[pred as usize % PREDS.len()]),
            Value::Int(value),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            id,
            intern("related_to"),
            Value::Entity(EntityId(target)),
            meta(),
        ));
    }
    kg
}

/// The probe vocabulary a generated world can be interrogated with.
fn probe_set(facts: &FactSpec) -> Vec<ProbeKey> {
    let mut probes: Vec<ProbeKey> = Vec::new();
    for ty in TYPES {
        probes.push(ProbeKey::Type(intern(ty)));
    }
    probes.push(ProbeKey::Name("entity".into()));
    for &(subject, _, pred, value, target) in facts.iter().take(8) {
        probes.push(ProbeKey::Literal(
            intern(PREDS[pred as usize % PREDS.len()]),
            Value::Int(value),
        ));
        probes.push(ProbeKey::Edge(intern("related_to"), EntityId(target)));
        probes.push(ProbeKey::Name(format!("entity {subject}")));
    }
    probes
}

fn fact_strategy() -> impl Strategy<Value = FactSpec> {
    proptest::collection::vec(
        (1u64..=24, any::<u8>(), (any::<u8>(), 0i64..8, 1u64..=24))
            .prop_map(|(subject, ty, (pred, value, target))| (subject, ty, pred, value, target)),
        1..40,
    )
}

proptest! {
    /// Stable and live backends loaded with the same data return identical
    /// postings, selectivities, conjunctions, and records for every probe.
    #[test]
    fn backends_return_identical_results(facts in fact_strategy()) {
        let kg = build_stable(&facts);
        let live = ReplicaKg::from_index(kg.index().clone());

        let probes = probe_set(&facts);
        for probe in &probes {
            let expected = kg.postings(probe);
            prop_assert_eq!(&live.postings(probe), &expected);
            // The compressed cursor path (the primary serving surface)
            // agrees with the materialized path on every backend.
            prop_assert_eq!(&kg.postings_cursor(probe).to_vec(), &expected);
            prop_assert_eq!(&live.postings_cursor(probe).to_vec(), &expected);
            prop_assert_eq!(kg.postings_cursor(probe).len(), expected.len());
            prop_assert_eq!(live.selectivity(probe), kg.selectivity(probe));
            for &id in expected.iter().take(4) {
                prop_assert!(live.probe_contains(probe, id));
                prop_assert!(live.postings_cursor(probe).contains(id));
            }
        }
        // Pairwise conjunctions agree (including empty intersections).
        for pair in probes.windows(2).take(12) {
            let expected = kg.probe_all(pair);
            prop_assert_eq!(&live.probe_all(pair), &expected);
        }
        // Point reads agree fact-for-fact.
        for &(subject, ..) in facts.iter().take(6) {
            let id = EntityId(subject);
            let a = flat_record(&kg, id);
            prop_assert_eq!(&a, &flat_record(&live, id));
        }
    }

    /// The same KGQ text produces the same answers through the one generic
    /// engine regardless of backend.
    #[test]
    fn kgq_queries_agree_across_backends(facts in fact_strategy()) {
        let kg = build_stable(&facts);
        let live = ReplicaKg::from_index(kg.index().clone());

        let stable_engine = QueryEngine::new(kg.clone());
        let live_engine = QueryEngine::new(live);

        let (subject, _, pred, value, target) = facts[0];
        let pred = PREDS[pred as usize % PREDS.len()];
        let queries = [
            format!("FIND {} WHERE {pred} = {value}", TYPES[0]),
            format!("FIND {} WHERE related_to -> AKG:{target}", TYPES[1]),
            format!(r#"FIND song WHERE name = "Entity {subject}""#),
            format!("GET AKG:{subject} . related_to . name"),
            format!(r#"GET "Entity {subject}" . {pred}"#),
        ];
        // In order: a FIND answers ascending ids and a GET emits values
        // in record order, which every backend shares.
        for q in &queries {
            let a = stable_engine.query(q).unwrap();
            let b = live_engine.query(q).unwrap();
            prop_assert_eq!(&a, &b, "stable vs live: {}", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Log-shipped replica parity
// ---------------------------------------------------------------------------

use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::{FxHashSet, WriteBatch};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_live::LiveReplica;

/// Build the stable KG from `facts` through a write-ahead `LoggedWriter`
/// over `log` — the producer side of the §3.1 log-shipping loop, now with
/// no hand-paired changelog-drain/`append_op` anywhere: every commit appends
/// its batch to the log *before* applying it. The world deliberately
/// includes the awkward ops: popularity facts from a second source are
/// volatile-overwritten each "cycle", and the second source is finally
/// retracted wholesale.
fn build_stable_shipping(facts: &FactSpec, log: Arc<OperationLog>) -> KnowledgeGraph {
    let writer = LoggedWriter::new(Arc::new(RwLock::new(KnowledgeGraph::new())), log);
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let pop = intern("popularity");
    for chunk in facts.chunks(5) {
        writer
            .with_txn(OpKind::Upsert, |txn| {
                for &(subject, ty, pred, value, target) in chunk {
                    let id = EntityId(subject);
                    if !txn.contains(id) {
                        txn.upsert(ExtendedTriple::simple(
                            id,
                            intern("name"),
                            Value::str(format!("Entity {subject}")),
                            meta(),
                        ));
                        txn.upsert(ExtendedTriple::simple(
                            id,
                            intern("type"),
                            Value::str(TYPES[ty as usize % TYPES.len()]),
                            meta(),
                        ));
                    }
                    txn.upsert(ExtendedTriple::simple(
                        id,
                        intern(PREDS[pred as usize % PREDS.len()]),
                        Value::Int(value),
                        meta(),
                    ));
                    txn.upsert(ExtendedTriple::simple(
                        id,
                        intern("related_to"),
                        Value::Entity(EntityId(target)),
                        meta(),
                    ));
                }
            })
            .unwrap();

        // A volatile cycle from source 2: overwrite every known subject's
        // popularity with a value derived from the chunk.
        let mut volatile = FxHashSet::default();
        volatile.insert(pop);
        let fresh: Vec<ExtendedTriple> = chunk
            .iter()
            .map(|&(subject, _, _, value, _)| {
                ExtendedTriple::simple(
                    EntityId(subject),
                    pop,
                    Value::Int(value + 1000),
                    FactMeta::from_source(SourceId(2), 0.8),
                )
            })
            .collect();
        writer
            .commit(
                OpKind::VolatileOverwrite(SourceId(2)),
                WriteBatch::new().overwrite_volatile(SourceId(2), volatile, fresh),
            )
            .unwrap();
    }
    // One targeted per-entity retraction (the Deleted-payload path)…
    if let Some(&(subject, ..)) = facts.first() {
        writer
            .commit(
                OpKind::Delete,
                WriteBatch::new()
                    .link(SourceId(1), "first", EntityId(subject))
                    .retract_source_entity(SourceId(1), "first"),
            )
            .unwrap();
    }
    // …then the wholesale license revocation of source 2.
    writer
        .commit(
            OpKind::RetractSource(SourceId(2)),
            WriteBatch::new().retract_source(SourceId(2)),
        )
        .unwrap();
    let kg = writer.read().clone();
    kg
}

/// An entity's facts in the flattened index vocabulary the log ships —
/// the record-level parity the wire form guarantees (provenance and
/// composite-node structure deliberately stay construction-side).
fn flat_record<G: GraphRead>(graph: &G, id: EntityId) -> Option<Vec<(String, Value)>> {
    graph.record(id).map(|r| {
        let mut facts: Vec<(String, Value)> = r
            .triples
            .iter()
            .filter_map(saga_core::index::flatten)
            .map(|(p, v)| (p.to_string(), v))
            .collect();
        facts.sort_unstable();
        facts
    })
}

proptest! {
    /// A replica constructed *only* from oplog replay — never touching the
    /// producing `KnowledgeGraph` — is parity-equal to the directly-built
    /// KG: postings, selectivities, conjunctions, flattened records, and
    /// KGQ answers, across upserts, volatile overwrites, per-entity
    /// retraction and whole-source retraction.
    #[test]
    fn log_shipped_replica_matches_directly_built_kg(facts in fact_strategy()) {
        let log = Arc::new(OperationLog::in_memory());
        // The replica exists before the KG and only ever sees the log.
        let mut replica = LiveReplica::new(4, Arc::clone(&log));
        let kg = build_stable_shipping(&facts, Arc::clone(&log));
        replica.catch_up().unwrap();
        prop_assert_eq!(replica.watermark(), log.head());
        prop_assert_eq!(replica.lag(), 0);

        let mut probes = probe_set(&facts);
        probes.push(ProbeKey::Literal(intern("popularity"), Value::Int(facts[0].3 + 1000)));
        for probe in &probes {
            let expected = kg.postings(probe);
            prop_assert_eq!(&replica.postings(probe), &expected, "probe {:?}", probe);
            prop_assert_eq!(
                &replica.postings_cursor(probe).to_vec(),
                &expected,
                "cursor probe {:?}",
                probe
            );
            prop_assert_eq!(replica.selectivity(probe), kg.selectivity(probe));
            for &id in expected.iter().take(4) {
                prop_assert!(replica.probe_contains(probe, id));
            }
        }
        for pair in probes.windows(2).take(12) {
            prop_assert_eq!(&replica.probe_all(pair), &kg.probe_all(pair));
        }
        // Record-level parity in the flattened vocabulary, including
        // entities the retraction ops dropped entirely.
        let mut ids: Vec<EntityId> = facts.iter().map(|&(s, ..)| EntityId(s)).collect();
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            prop_assert_eq!(
                flat_record(&replica, id),
                flat_record(&kg, id),
                "record {:?}",
                id
            );
            prop_assert_eq!(GraphRead::contains(&replica, id), kg.contains(id));
        }
        // The one generic KGQ engine answers identically over both.
        let kg_engine = QueryEngine::new(kg.clone());
        let replica_engine = QueryEngine::new(replica.live().clone());
        let (subject, _, pred, value, target) = facts[0];
        let pred = PREDS[pred as usize % PREDS.len()];
        for q in [
            format!("FIND {} WHERE {pred} = {value}", TYPES[0]),
            format!("FIND {} WHERE related_to -> AKG:{target}", TYPES[1]),
            format!(r#"FIND song WHERE name = "Entity {subject}""#),
            format!("GET AKG:{subject} . related_to . name"),
        ] {
            prop_assert_eq!(
                kg_engine.query(&q).unwrap(),
                replica_engine.query(&q).unwrap(),
                "KGQ parity: {}",
                q
            );
        }
    }
}
