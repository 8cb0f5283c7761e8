//! A failed step does not end a `FleetController::tick` pass: a dead
//! replica respawns even while checkpoints fail.
//!
//! `checkpoint::publish` is an unscoped failpoint: armed beside the
//! concurrently running `fleet_faults` tests, it could fire in one of
//! their checkpoints instead. So this drill has a test binary of its own.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use saga_core::fail::{self, sites, FailAction};
use saga_core::{EntityId, KnowledgeGraph, SourceId, WriteBatch};
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool, ReplicaState};
use saga_graph::{CheckpointWriter, LoggedCommit, LoggedWriter, OpKind, OperationLog};

fn commit_person(w: &LoggedWriter, i: u64) -> LoggedCommit {
    w.commit(
        OpKind::Upsert,
        WriteBatch::new().named_entity(
            EntityId(i),
            &format!("Tick Person {i}"),
            "person",
            SourceId(1),
            0.9,
        ),
    )
    .unwrap()
}

/// Clears the registry even if the drill panics.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

#[test]
fn a_failed_checkpoint_does_not_stop_a_dead_replica_respawning() {
    let w = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let dir = std::env::temp_dir().join(format!("saga-fleet-tick-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetConfig {
        replicas: 1,
        shards: 2,
        poll_interval: Duration::from_micros(500),
        checkpoint_every: 10,
        ..FleetConfig::default()
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller =
        FleetController::with_checkpointer(Arc::clone(&pool), CheckpointWriter::new(&w, &dir));

    pool.kill(0).unwrap();
    let _disarm = Disarm;
    fail::configure(sites::CHECKPOINT_PUBLISH, FailAction::error().times(1));
    let mut token = None;
    for i in 1..=12u64 {
        token = Some(commit_person(&w, i).session_token());
    }
    let token = token.unwrap();
    assert_eq!(controller.stats().replicas[0].state, ReplicaState::Down);

    // The checkpoint fails, and the pass still respawns slot 0: the
    // report says both.
    let report = controller.tick();
    assert_eq!(report.respawned, [0]);
    assert_eq!(report.checkpointed, None);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    let err = &report.errors[0];
    assert!(err.to_string().contains("checkpoint::publish"), "{err}");
    let hits = router
        .query_with_session("FIND person WHERE name = \"Tick Person 12\"", &token)
        .unwrap();
    assert_eq!(hits.entities(), vec![EntityId(12)]);

    // The failpoint is spent: the next pass checkpoints.
    let report = controller.tick();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.checkpointed, Some(token.lsn()));
    assert!(report.respawned.is_empty());
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
