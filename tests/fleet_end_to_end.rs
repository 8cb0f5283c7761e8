//! Umbrella smoke tests for the serving fleet: writer → log → fleet of
//! replicas → lag-aware router, with a checkpointing controller in the
//! loop and a kill/respawn cycle mid-traffic; and live writes — curation
//! hot fixes and live events — read back through a session token.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use saga::core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SessionToken, SourceId, Value,
    WriteBatch,
};
use saga::fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga::graph::{CheckpointWriter, LoggedWriter, OpKind, OperationLog};
use saga::live::{CurationAction, CurationPipeline, LiveEvent, LiveGraphBuilder};
use saga::ontology::default_ontology;

#[test]
fn fleet_serves_sessions_checkpoints_and_survives_a_kill() {
    let dir = std::env::temp_dir().join(format!("saga-fleet-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let w = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let cfg = FleetConfig {
        replicas: 2,
        poll_interval: Duration::from_micros(500),
        checkpoint_every: 25,
        ..FleetConfig::default()
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller =
        FleetController::with_checkpointer(Arc::clone(&pool), CheckpointWriter::new(&w, &dir));

    let mut checkpointed = false;
    for i in 1..=60u64 {
        let commit = w
            .commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(i),
                    &format!("Song {i}"),
                    "song",
                    SourceId(1),
                    0.9,
                ),
            )
            .unwrap();
        let hits = router
            .query_with_session(
                &format!("FIND song WHERE name = \"Song {i}\""),
                &commit.session_token(),
            )
            .unwrap();
        assert_eq!(
            hits.entities(),
            vec![EntityId(i)],
            "read-your-writes at {i}"
        );
        if i == 30 {
            // Hard-kill a replica mid-traffic; the controller brings it
            // back from the checkpoint its own cadence produced.
            pool.kill(0).unwrap();
        }
        let report = controller.tick();
        assert!(report.errors.is_empty(), "tick failed: {:?}", report.errors);
        checkpointed |= report.checkpointed.is_some();
    }

    assert!(checkpointed, "the checkpoint cadence never fired");
    router
        .wait_for_lsn(w.log().head(), Duration::from_secs(5))
        .unwrap();
    let stats = controller.stats();
    assert_eq!(stats.replicas[0].respawns, 1, "killed replica respawned");
    assert!(stats.checkpoints >= 1);
    assert!(
        w.log().compacted_through().0 > 0,
        "checkpoint_and_compact pruned the replayed prefix"
    );

    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_hot_fixes_and_events_are_visible_to_a_session_read() {
    let dir = std::env::temp_dir().join(format!("saga-fleet-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let w = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    w.commit(
        OpKind::Upsert,
        WriteBatch::new()
            .named_entity(EntityId(1), "Springfield", "city", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(1),
                intern("population"),
                Value::Int(-5),
                FactMeta::from_source(SourceId(1), 0.9),
            )),
    )
    .unwrap();
    let cfg = FleetConfig {
        replicas: 2,
        poll_interval: Duration::from_micros(500),
        ..FleetConfig::default()
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    // A curation hot fix, read back on the first call.
    let curation = CurationPipeline::new(w.clone(), SourceId(99));
    let commit = curation
        .apply(CurationAction::EditFact {
            entity: EntityId(1),
            predicate: "population".into(),
            old: Value::Int(-5),
            new: Value::Int(120_000),
        })
        .unwrap()
        .expect("the fix hits");
    let fixed = router
        .query_with_session("GET AKG:1 . population", &commit.session_token())
        .unwrap();
    assert_eq!(fixed.values(), &[Value::Int(120_000)]);

    // A live event, read back the same way.
    let builder = LiveGraphBuilder::new(w.clone(), default_ontology().types().clone(), None);
    let report = builder
        .apply(&[LiveEvent {
            source: SourceId(50),
            event_id: "Warriors vs Lakers".into(),
            entity_type: "sports_game".into(),
            facts: vec![("home_score".into(), Value::Int(55))],
            mentions: Vec::new(),
            timestamp: 1,
        }])
        .unwrap();
    let game = builder
        .entity_of(SourceId(50), "Warriors vs Lakers")
        .unwrap();
    let score = router
        .query_with_session(
            &format!("GET AKG:{} . home_score", game.0),
            &SessionToken::at(report.lsn.unwrap()),
        )
        .unwrap();
    assert_eq!(score.values(), &[Value::Int(55)]);

    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
