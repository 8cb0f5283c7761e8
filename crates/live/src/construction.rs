//! Live Graph Construction (§4.1).
//!
//! "Live sources do not require the complex linking and fusion process of
//! our full KG construction pipeline — sports games, stock prices, and
//! flights are uniquely identifiable across sources … These sources do
//! contain potentially ambiguous references to stable entities which we
//! want to link to the stable graph" via the Entity Resolution service
//! (NERD, §5.2). The result is a KG of continuously-updating streaming
//! facts whose entity references point into the stable graph.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, FxHashMap, Lsn, Result, SourceId,
    Value,
};
use saga_graph::{LoggedWriter, OpKind};
use saga_ml::NerdStack;
use saga_ontology::TypeRegistry;

/// Live entity ids live above this floor so they never collide with stable
/// KG ids.
pub const LIVE_ID_FLOOR: u64 = 1 << 40;

/// One streaming update from a live source.
#[derive(Clone, Debug)]
pub struct LiveEvent {
    /// The live source (scores feed, stocks feed…).
    pub source: SourceId,
    /// Unique event/entity key within the source — uniqueness across
    /// updates is what lets live construction skip linking.
    pub event_id: String,
    /// Ontology type (e.g. `sports_game`).
    pub entity_type: String,
    /// Literal facts: `(predicate, value)`.
    pub facts: Vec<(String, Value)>,
    /// Text references to *stable* entities to resolve through NERD:
    /// `(predicate, mention, optional type hint)`.
    pub mentions: Vec<(String, String, Option<String>)>,
    /// Source timestamp (monotone per event id; stale updates are dropped).
    pub timestamp: u64,
}

/// Builds and continuously updates the live KG by committing through a
/// [`LoggedWriter`], so live facts are logged, durable and replicated like
/// every other write.
pub struct LiveGraphBuilder {
    writer: LoggedWriter,
    nerd: Option<Arc<NerdStack>>,
    types: TypeRegistry,
    next_id: AtomicU64,
    known: parking_lot::Mutex<FxHashMap<(SourceId, String), (EntityId, u64)>>,
}

/// Counters from applying one batch of events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveIngestReport {
    /// Events applied (new or updated).
    pub applied: usize,
    /// Events dropped because a newer update was already applied.
    pub stale_dropped: usize,
    /// Mentions resolved to stable entities.
    pub mentions_resolved: usize,
    /// Mentions left unresolved (kept as literals).
    pub mentions_unresolved: usize,
    /// The batch's log position — build a session token from it. `None`
    /// when every event was stale and nothing was appended.
    pub lsn: Option<Lsn>,
}

impl LiveGraphBuilder {
    /// A builder committing through `writer`; `nerd` enables stable-entity
    /// resolution.
    pub fn new(writer: LoggedWriter, types: TypeRegistry, nerd: Option<Arc<NerdStack>>) -> Self {
        LiveGraphBuilder {
            writer,
            nerd,
            types,
            next_id: AtomicU64::new(LIVE_ID_FLOOR),
            known: parking_lot::Mutex::new(FxHashMap::default()),
        }
    }

    /// The writer the live KG is committed through.
    pub fn writer(&self) -> &LoggedWriter {
        &self.writer
    }

    /// Apply a batch of streaming events as one logged operation. Each
    /// fresh event replaces its entity's facts exactly: a predicate missing
    /// from the newer event disappears.
    pub fn apply(&self, events: &[LiveEvent]) -> Result<LiveIngestReport> {
        let mut report = LiveIngestReport::default();
        let fresh: Vec<EntityRecord> = events
            .iter()
            .filter_map(|event| self.record_of(event, &mut report))
            .collect();
        if fresh.is_empty() {
            return Ok(report);
        }
        let (_, commit) = self.writer.with_txn(OpKind::Upsert, |txn| {
            for EntityRecord { id, triples } in fresh {
                if txn.contains(id) {
                    txn.mutate(id, |rec| rec.triples = triples);
                } else {
                    for triple in triples {
                        txn.upsert(triple);
                    }
                }
            }
        })?;
        report.lsn = Some(commit.lsn);
        Ok(report)
    }

    /// The record one event asserts, or `None` if a newer update of the
    /// same key was already applied.
    fn record_of(&self, event: &LiveEvent, report: &mut LiveIngestReport) -> Option<EntityRecord> {
        let id = {
            let mut known = self.known.lock();
            let (id, seen) = known
                .entry((event.source, event.event_id.clone()))
                .or_insert_with(|| (EntityId(self.next_id.fetch_add(1, Ordering::Relaxed)), 0));
            if *seen > event.timestamp {
                report.stale_dropped += 1;
                return None;
            }
            *seen = event.timestamp;
            *id
        };

        let mut record = EntityRecord::new(id);
        let mut fact = |pred: &str, value: Value| {
            record.upsert(ExtendedTriple::simple(
                id,
                intern(pred),
                value,
                FactMeta::from_source(event.source, 0.95),
            ));
        };
        fact("type", Value::str(&event.entity_type));
        fact("name", Value::str(&event.event_id));
        for (pred, value) in &event.facts {
            fact(pred, value.clone());
        }
        // Resolve text references against the stable graph.
        let context: String = event
            .mentions
            .iter()
            .map(|(_, m, _)| m.as_str())
            .chain(std::iter::once(event.event_id.as_str()))
            .collect::<Vec<_>>()
            .join(" ");
        for (pred, mention, hint) in &event.mentions {
            let resolved = self.nerd.as_ref().and_then(|nerd| {
                let hint_sym = hint.as_deref().map(intern);
                nerd.resolve_mention(&self.types, mention, &context, hint_sym)
            });
            match resolved {
                Some((stable_id, _conf)) => {
                    report.mentions_resolved += 1;
                    fact(pred, Value::Entity(stable_id));
                }
                None => {
                    report.mentions_unresolved += 1;
                    fact(pred, Value::str(mention));
                }
            }
        }
        report.applied += 1;
        Some(record)
    }

    /// The live entity id a source event maps to, if seen.
    pub fn entity_of(&self, source: SourceId, event_id: &str) -> Option<EntityId> {
        self.known
            .lock()
            .get(&(source, event_id.to_string()))
            .map(|&(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use saga_core::{KnowledgeGraph, WriteBatch};
    use saga_graph::OperationLog;
    use saga_ml::{ContextualDisambiguator, NerdConfig, NerdEntityView, StringEncoder};
    use saga_ontology::default_ontology;

    /// The stable teams and venue live events refer to.
    fn stable_batch() -> WriteBatch {
        WriteBatch::new()
            .named_entity(
                EntityId(1),
                "Golden State Warriors",
                "sports_team",
                SourceId(1),
                0.9,
            )
            .named_entity(
                EntityId(2),
                "Los Angeles Lakers",
                "sports_team",
                SourceId(1),
                0.9,
            )
            .named_entity(EntityId(3), "Chase Center", "venue", SourceId(1), 0.9)
    }

    fn stable_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        stable_batch().commit(&mut kg);
        kg
    }

    fn writer_over(kg: KnowledgeGraph) -> LoggedWriter {
        LoggedWriter::new(
            Arc::new(RwLock::new(kg)),
            Arc::new(OperationLog::in_memory()),
        )
    }

    fn nerd_over(kg: &KnowledgeGraph) -> Arc<NerdStack> {
        Arc::new(NerdStack::new(
            NerdEntityView::build(kg, None),
            StringEncoder::new(16, 512, 3, 2),
            ContextualDisambiguator::default(),
            NerdConfig {
                max_candidates: 8,
                confidence_threshold: 0.25,
            },
        ))
    }

    /// A builder whose writer already holds the stable graph its NERD
    /// resolves against.
    fn builder_with_nerd() -> LiveGraphBuilder {
        let kg = stable_kg();
        let nerd = nerd_over(&kg);
        LiveGraphBuilder::new(
            writer_over(kg),
            default_ontology().types().clone(),
            Some(nerd),
        )
    }

    fn record(b: &LiveGraphBuilder, id: EntityId) -> EntityRecord {
        b.writer().read().entity(id).unwrap().clone()
    }

    fn score_event(ts: u64, home: i64, away: i64) -> LiveEvent {
        LiveEvent {
            source: SourceId(50),
            event_id: "gsw-lal-2026-06-11".into(),
            entity_type: "sports_game".into(),
            facts: vec![
                ("status".into(), Value::str("Q3")),
                ("home_score".into(), Value::Int(home)),
                ("away_score".into(), Value::Int(away)),
            ],
            mentions: vec![
                (
                    "home_team".into(),
                    "Golden State Warriors".into(),
                    Some("sports_team".into()),
                ),
                (
                    "away_team".into(),
                    "Los Angeles Lakers".into(),
                    Some("sports_team".into()),
                ),
                ("venue".into(), "Chase Center".into(), Some("venue".into())),
            ],
            timestamp: ts,
        }
    }

    #[test]
    fn events_create_live_entities_linked_to_stable_graph() {
        use saga_core::{GraphRead, ProbeKey};
        let b = builder_with_nerd();
        let report = b.apply(&[score_event(1, 55, 51)]).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(
            report.mentions_resolved, 3,
            "teams and venue resolved to stable ids"
        );
        assert_eq!(report.lsn, Some(b.writer().log().head()), "one logged op");
        let id = b.entity_of(SourceId(50), "gsw-lal-2026-06-11").unwrap();
        assert!(id.0 >= LIVE_ID_FLOOR);
        let rec = record(&b, id);
        assert_eq!(
            rec.values(intern("home_team")),
            vec![&Value::Entity(EntityId(1))]
        );
        assert_eq!(
            rec.values(intern("venue")),
            vec![&Value::Entity(EntityId(3))]
        );
        // The game is findable through the edge index.
        assert_eq!(
            b.writer()
                .read()
                .postings(&ProbeKey::Edge(intern("home_team"), EntityId(1))),
            vec![id]
        );
    }

    #[test]
    fn updates_replace_and_stale_events_are_dropped() {
        let b = builder_with_nerd();
        b.apply(&[score_event(1, 55, 51)]).unwrap();
        let id = b.entity_of(SourceId(50), "gsw-lal-2026-06-11").unwrap();
        // Fresh update within seconds (the freshness SLA scenario).
        let r2 = b.apply(&[score_event(2, 60, 58)]).unwrap();
        assert_eq!(r2.applied, 1);
        assert_eq!(
            record(&b, id).values(intern("home_score")),
            vec![&Value::Int(60)]
        );
        // An out-of-order stale event must not regress the score, and
        // appends nothing.
        let head = b.writer().log().head();
        let r3 = b.apply(&[score_event(1, 55, 51)]).unwrap();
        assert_eq!(r3.stale_dropped, 1);
        assert_eq!(r3.lsn, None);
        assert_eq!(b.writer().log().head(), head);
        assert_eq!(
            record(&b, id).values(intern("home_score")),
            vec![&Value::Int(60)]
        );
    }

    #[test]
    fn unresolvable_mentions_stay_literal() {
        let b = builder_with_nerd();
        let mut ev = score_event(1, 0, 0);
        ev.mentions = vec![(
            "home_team".into(),
            "Team Nobody Knows".into(),
            Some("sports_team".into()),
        )];
        let report = b.apply(&[ev]).unwrap();
        assert_eq!(report.mentions_unresolved, 1);
        let id = b.entity_of(SourceId(50), "gsw-lal-2026-06-11").unwrap();
        assert_eq!(
            record(&b, id).values(intern("home_team")),
            vec![&Value::str("Team Nobody Knows")]
        );
    }

    #[test]
    fn without_nerd_everything_is_literal() {
        let b = LiveGraphBuilder::new(
            writer_over(KnowledgeGraph::new()),
            default_ontology().types().clone(),
            None,
        );
        let report = b.apply(&[score_event(1, 1, 1)]).unwrap();
        assert_eq!(report.mentions_resolved, 0);
        assert_eq!(report.mentions_unresolved, 3);
    }

    #[test]
    fn overlay_serves_live_events_and_stable_entities_together() {
        use crate::kgq::{QueryBuilder, QueryEngine};
        use crate::LiveReplica;
        // §4.1's union of stable graph and live sources is one log: the
        // stable graph is committed through the writer the live builder
        // then commits through, and one replica of that log serves both.
        let writer = writer_over(KnowledgeGraph::new());
        writer.commit(OpKind::Upsert, stable_batch()).unwrap();
        let nerd = nerd_over(&writer.read());
        let mut replica = LiveReplica::new(4, Arc::clone(writer.log()));
        let b = LiveGraphBuilder::new(writer, default_ontology().types().clone(), Some(nerd));
        b.apply(&[score_event(1, 55, 51)]).unwrap();
        replica.catch_up().unwrap();
        let game = b.entity_of(SourceId(50), "gsw-lal-2026-06-11").unwrap();
        let engine = QueryEngine::new(replica);
        // The streaming game resolves through the replica…
        let q = QueryBuilder::find()
            .of_type("sports_game")
            .edge_to_name("home_team", "Golden State Warriors")
            .build()
            .unwrap();
        assert_eq!(engine.run(&q).unwrap().entities(), &[game]);
        // …and the stable entity it references is served by the same one.
        let get = QueryBuilder::get(game)
            .hop("home_team")
            .hop("name")
            .build()
            .unwrap();
        assert_eq!(
            engine.run(&get).unwrap().values(),
            &[saga_core::Value::str("Golden State Warriors")]
        );
    }

    #[test]
    fn distinct_event_ids_get_distinct_live_entities() {
        let b = builder_with_nerd();
        let mut e2 = score_event(1, 0, 0);
        e2.event_id = "another-game".into();
        let report = b.apply(&[score_event(1, 0, 0), e2]).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(b.writer().log().head(), Lsn(1), "one batch, one op");
        let a = b.entity_of(SourceId(50), "gsw-lal-2026-06-11").unwrap();
        let c = b.entity_of(SourceId(50), "another-game").unwrap();
        assert_ne!(a, c);
    }
}
