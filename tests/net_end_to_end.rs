//! Umbrella smoke test for saga-as-a-server: writer → log → fleet →
//! router → TCP endpoint → client, asserting over-the-wire parity with
//! the in-process surfaces and read-your-writes across the network.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use saga::core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Value, WriteBatch,
};
use saga::fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga::graph::{LoggedWriter, OpKind, OperationLog};
use saga::net::{SagaClient, SagaServer, ServerConfig, WireBatch};
use saga_core::GraphRead;

#[test]
fn the_wire_preserves_queries_probes_and_read_your_writes() {
    let dir = std::env::temp_dir().join(format!("saga-net-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let writer = Arc::new(LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    ));
    let src = SourceId(1);
    let meta = FactMeta::from_source(src, 0.9);
    let mut batch = WriteBatch::new();
    for i in 1..=20u64 {
        batch = batch.named_entity(EntityId(i), &format!("Song {i}"), "song", src, 0.9);
        batch = batch.upsert(ExtendedTriple::simple(
            EntityId(i),
            intern("released"),
            Value::Int(2000 + (i % 5) as i64),
            meta.clone(),
        ));
    }
    writer.commit(OpKind::Upsert, batch).unwrap();

    let pool = ReplicaPool::start(
        FleetConfig {
            replicas: 2,
            poll_interval: Duration::from_micros(200),
            ..FleetConfig::default()
        },
        Arc::clone(writer.log()),
        &dir,
    )
    .unwrap();
    let router = Arc::new(FleetRouter::new(Arc::clone(&pool)));
    let server = SagaServer::start(
        Arc::clone(&router),
        Arc::clone(&writer),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = SagaClient::connect(server.local_addr().to_string()).unwrap();
    router
        .wait_for_lsn(writer.log().head(), Duration::from_secs(5))
        .unwrap();

    // -- KGQ over the wire is identical to KGQ in-process ----------------
    for query in [
        "FIND song WHERE released = 2003",
        "FIND song WHERE name = \"Song 7\"",
        "GET AKG:7 . name",
        "FIND song WHERE released = 2001 LIMIT 3",
    ] {
        let in_process = router.query(query).unwrap();
        let over_wire = client.query(query).unwrap();
        assert_eq!(over_wire, in_process, "wire parity for {query}");
    }

    // -- Names, records and the fleet's version cross the wire unchanged --
    assert_eq!(
        client.resolve_name("song 7").unwrap(),
        router.resolve_name("song 7")
    );
    let wire_record = client.record(EntityId(7)).unwrap().expect("record");
    let local_record = router.record(EntityId(7)).expect("record");
    assert_eq!(wire_record.id, local_record.id);
    assert_eq!(wire_record.triples, local_record.triples);
    // The version is the highest watermark a replica has published: with
    // the log still, the head.
    let highest = FleetController::new(Arc::clone(&pool))
        .stats()
        .replicas
        .iter()
        .map(|r| r.watermark.0)
        .max()
        .unwrap();
    assert_eq!(highest, writer.log().head().0);
    assert_eq!(router.generation(), highest);
    assert_eq!(client.generation().unwrap(), highest);

    // -- Read-your-writes over TCP ---------------------------------------
    // A batch committed over the wire must be visible to a subsequent
    // session query from the same client, routed only to replicas that
    // already replayed it.
    for round in 1..=10u64 {
        let id = EntityId(100 + round);
        let committed = client
            .commit(WireBatch::new().named_entity(
                id,
                &format!("Wire Song {round}"),
                "song",
                SourceId(2),
                0.9,
            ))
            .unwrap();
        assert_eq!(committed.token.lsn(), committed.lsn);
        let hits = client
            .query_with_session(&format!("FIND song WHERE name = \"Wire Song {round}\""))
            .unwrap();
        assert_eq!(hits.entities(), vec![id], "read-your-writes at {round}");
    }

    // -- Pipelined mixed traffic on one connection ------------------------
    let ids: Vec<u64> = (0..16)
        .map(|i| {
            client
                .send_buffered(&saga::net::Request::Query {
                    text: format!("FIND song WHERE released = {}", 2000 + (i % 5)),
                    session: None,
                })
                .unwrap()
        })
        .collect();
    client.flush().unwrap();
    for id in ids.into_iter().rev() {
        // Collect in reverse send order to force the parking path.
        let response = client.recv_by_id(id).unwrap();
        assert!(matches!(response, saga::net::Response::Result(_)));
    }

    drop(server);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
