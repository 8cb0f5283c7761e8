//! Live construction and curation write through the log.
//!
//! One sequence of live events and curations commits through a single
//! `LoggedWriter`; a `LiveReplica` that sees nothing but the log must end
//! up serving exactly what the writer's graph serves.

use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::{intern, EntityId, GraphRead, KnowledgeGraph, Lsn, ProbeKey, SourceId, Value};
use saga_graph::{LoggedWriter, OperationLog};
use saga_live::{CurationAction, CurationPipeline, LiveEvent, LiveGraphBuilder, LiveReplica};
use saga_ontology::default_ontology;

const FEED: SourceId = SourceId(50);

fn event(key: &str, timestamp: u64, facts: &[(&str, Value)]) -> LiveEvent {
    LiveEvent {
        source: FEED,
        event_id: key.into(),
        entity_type: "sports_game".into(),
        facts: facts
            .iter()
            .map(|(p, v)| (p.to_string(), v.clone()))
            .collect(),
        mentions: Vec::new(),
        timestamp,
    }
}

fn score(v: i64) -> Value {
    Value::Int(v)
}

/// Every probe the sequence below touches.
fn probes() -> Vec<ProbeKey> {
    let mut probes = vec![
        ProbeKey::Type(intern("sports_game")),
        ProbeKey::Literal(intern("status"), Value::str("Q1")),
    ];
    for key in ["game-a", "game-b", "game-c"] {
        probes.push(ProbeKey::Name(key.into()));
    }
    for v in [10, 12, 15, 20, 30, 33] {
        probes.push(ProbeKey::Literal(intern("home_score"), score(v)));
    }
    probes
}

/// What a backend answers for `probes` and for the records of `ids`, in
/// the flattened vocabulary the log ships.
type Answers = (Vec<Vec<EntityId>>, Vec<Option<Vec<(String, Value)>>>);

fn answers<G: GraphRead>(graph: &G, ids: &[EntityId]) -> Answers {
    let postings = probes().iter().map(|p| graph.postings(p)).collect();
    let records = ids
        .iter()
        .map(|&id| {
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
        })
        .collect();
    (postings, records)
}

#[test]
fn live_events_and_curations_replicate_through_the_log() {
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let mut replica = LiveReplica::new(4, Arc::clone(writer.log()));
    let builder = LiveGraphBuilder::new(writer.clone(), default_ontology().types().clone(), None);
    let curation = CurationPipeline::new(writer.clone(), SourceId(99));

    // A three-event batch is one logged op.
    let report = builder
        .apply(&[
            event(
                "game-a",
                1,
                &[("home_score", score(10)), ("status", Value::str("Q1"))],
            ),
            event("game-b", 1, &[("home_score", score(20))]),
            event("game-c", 1, &[("home_score", score(30))]),
        ])
        .unwrap();
    assert_eq!(report.applied, 3);
    assert_eq!(report.lsn, Some(Lsn(1)));
    assert_eq!(writer.log().head(), Lsn(1));
    let [a, b, c] = ["game-a", "game-b", "game-c"].map(|key| builder.entity_of(FEED, key).unwrap());
    let ids = [a, b, c];

    // A newer event that drops a predicate removes it.
    builder
        .apply(&[event("game-a", 2, &[("home_score", score(12))])])
        .unwrap();
    {
        let kg = writer.read();
        let game = kg.entity(a).unwrap();
        assert!(game.values(intern("status")).is_empty(), "status dropped");
        assert_eq!(game.values(intern("home_score")), vec![&score(12)]);
    }

    // An all-stale batch appends nothing.
    let head = writer.log().head();
    let stale = builder
        .apply(&[
            event("game-a", 1, &[("home_score", score(10))]),
            event("game-b", 0, &[("home_score", score(1))]),
        ])
        .unwrap();
    assert_eq!(stale.stale_dropped, 2);
    assert_eq!(stale.lsn, None);
    assert_eq!(writer.log().head(), head);

    // Curations hot-fix the same graph through the same log.
    for action in [
        CurationAction::BlockFact {
            entity: b,
            predicate: "home_score".into(),
            value: score(20),
        },
        CurationAction::EditFact {
            entity: c,
            predicate: "home_score".into(),
            old: score(30),
            new: score(33),
        },
        CurationAction::BlockEntity { entity: a },
    ] {
        let commit = curation.apply(action).unwrap().expect("a hit");
        assert_eq!(commit.lsn, writer.log().head());
    }
    assert!(!writer.read().contains(a), "blocked");

    // A miss (the value was already corrected) is not queued and changes
    // no answer.
    let before = answers(&*writer.read(), &ids);
    let miss = curation
        .apply(CurationAction::EditFact {
            entity: c,
            predicate: "home_score".into(),
            old: score(30),
            new: score(31),
        })
        .unwrap();
    assert!(miss.is_none());
    assert_eq!(answers(&*writer.read(), &ids), before);
    assert_eq!(curation.drain_pending().len(), 3, "only hits are queued");

    // A re-event of the blocked key brings it back with that event's facts.
    builder
        .apply(&[event("game-a", 3, &[("home_score", score(15))])])
        .unwrap();
    assert_eq!(
        writer
            .read()
            .entity(a)
            .unwrap()
            .values(intern("home_score")),
        vec![&score(15)]
    );

    // A replica that only ever saw the log serves the same graph.
    replica.catch_up().unwrap();
    assert_eq!(replica.watermark(), writer.log().head());
    assert_eq!(answers(&replica, &ids), answers(&*writer.read(), &ids));
}
