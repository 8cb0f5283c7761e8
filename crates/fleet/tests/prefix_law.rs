//! The prefix law of the limit-aware conjunction — the live / fleet half.
//!
//! `saga-core`'s `index_properties` suite checks
//! `probe_all_limit(p, k) == probe_all(p)[..min(k, len)]` on the backends
//! it can see; this suite runs the **same** seeded check (the shared
//! `crates/core/src/prefix_law.rs`, included by path) on the rest —
//! [`ReplicaKg`] (replayed and bootstrapped),
//! [`LiveReplica`], the [`LoggedWriter`]'s
//! own graph read through its lock, and [`FleetRouter`] — and checks that
//! `FIND … LIMIT k` through a [`QueryEngine`] is the first `k` answers of
//! `LIMIT 1000`. All of them are built from one write-ahead producer, so
//! they hold the same corpus, and each answers `record(id)` identically
//! for every corpus id and two absent ones.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_core::postings::BLOCK_SPAN;
use saga_core::read::intersect_postings;
use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, GraphRead, KnowledgeGraph, ProbeKey,
    SourceId, Value, WriteBatch,
};
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga_graph::{CheckpointWriter, LoggedWriter, OpKind, OperationLog};
use saga_live::{LiveReplica, QueryEngine, ReplicaKg};

#[path = "../../core/src/prefix_law.rs"]
mod law;

use law::check_prefix_law;

/// `FIND … LIMIT k` is the first `k` answers of the widest served query.
fn check_kgq_limits(query: impl Fn(&str) -> Vec<EntityId>, backend: &str) {
    for find in [
        "FIND thing",
        "FIND thing WHERE bucket = 0",
        "FIND WHERE parent -> AKG:1 AND flag = true",
    ] {
        let widest = query(&format!("{find} LIMIT 1000"));
        assert!(widest.len() > 20, "{backend}: `{find}` is too narrow");
        for k in [1, 2, 10, widest.len() - 1, widest.len(), 999] {
            assert_eq!(
                query(&format!("{find} LIMIT {k}")),
                widest[..k.min(widest.len())],
                "{backend}: `{find} LIMIT {k}`"
            );
        }
    }
}

/// `record(id)` for every corpus id and two absent ones.
fn records<G: GraphRead>(graph: &G) -> Vec<Option<EntityRecord>> {
    law::corpus_ids()
        .chain([0, 1_000_000])
        .map(|id| graph.record(EntityId(id)))
        .collect()
}

#[test]
fn prefix_law_holds_on_every_live_and_fleet_backend() {
    for seed in law::SEEDS {
        let writer = LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        );
        for chunk in law::corpus(seed).chunks(512) {
            let batch = chunk
                .iter()
                .cloned()
                .fold(WriteBatch::new(), WriteBatch::upsert);
            writer.commit(OpKind::Upsert, batch).unwrap();
        }

        let mut replica = LiveReplica::new(2, Arc::clone(writer.log()));
        replica.catch_up().unwrap();
        check_prefix_law(&replica, seed, "LiveReplica");

        check_prefix_law(&*writer.read(), seed, "LoggedWriter::read");
        let expected = records(&*writer.read());
        assert!(expected[0].is_some() && expected.last().unwrap().is_none());
        assert!(records(&replica) == expected, "LiveReplica records");

        let dir = std::env::temp_dir().join(format!(
            "saga-fleet-prefix-law-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // The store fleet engines serve, built both ways a replica starts.
        let ckpt_dir = dir.join("replica-ckpt");
        CheckpointWriter::new(&writer, &ckpt_dir)
            .checkpoint()
            .unwrap();
        let mut replayed = LiveReplica::new(1, Arc::clone(writer.log()));
        replayed.catch_up().unwrap();
        let booted = LiveReplica::bootstrap(1, &ckpt_dir, Arc::clone(writer.log())).unwrap();
        for (replica, built) in [(&replayed, "replay"), (&booted, "bootstrap")] {
            let store: &ReplicaKg = replica.live();
            let backend = format!("ReplicaKg/{built}");
            check_prefix_law(store, seed, &backend);
            assert!(records(store) == expected, "{backend} records");
            let engine = QueryEngine::new(store.clone());
            check_kgq_limits(
                |text| engine.query(text).unwrap().entities().to_vec(),
                &format!("QueryEngine<{backend}>"),
            );
        }
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let config = FleetConfig {
            replicas: 2,
            shards: 2,
            poll_interval: Duration::from_micros(500),
            ..FleetConfig::default()
        };
        let pool = ReplicaPool::start(config, Arc::clone(writer.log()), &dir).unwrap();
        let router = FleetRouter::new(Arc::clone(&pool));
        // Both replicas at the head: consecutive reads then agree
        // whichever replica each one is routed to.
        let controller = FleetController::new(Arc::clone(&pool));
        let deadline = Instant::now() + Duration::from_secs(30);
        while {
            let stats = controller.stats();
            stats.replicas.iter().any(|r| r.watermark < stats.head)
        } {
            assert!(Instant::now() < deadline, "fleet never caught up");
            std::thread::sleep(Duration::from_millis(1));
        }
        check_prefix_law(&router, seed, "FleetRouter");
        assert!(records(&router) == expected, "FleetRouter records");
        check_kgq_limits(
            |text| router.query(text).unwrap().entities().to_vec(),
            "FleetRouter::query",
        );
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
