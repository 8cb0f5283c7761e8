//! A runnable saga serving endpoint: writer → log → replica fleet →
//! router → TCP.
//!
//! ```text
//! cargo run --release -p saga-net --example saga-server -- [addr] [replicas]
//! ```
//!
//! Binds `addr` (default `127.0.0.1:7407`), seeds a small demo world, and
//! serves until killed. A [`FleetController`] ticks every 100 ms: it
//! respawns a replica whose worker died and publishes a checkpoint into
//! the replicas' directory every `checkpoint_every` ops, which lets the
//! in-memory log drop the ops the checkpoint covers. The replicas'
//! directory is `$TMPDIR/saga-server-<pid>/` (`/tmp` when `TMPDIR` is
//! unset); nothing removes it, so it outlives the process: delete it
//! after killing the server. Point the companion CLI at it:
//!
//! ```text
//! cargo run --release -p saga-net --example saga-cli -- 127.0.0.1:7407 query 'FIND song WHERE name = "Bad Guy"'
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Value, WriteBatch,
};
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga_graph::{CheckpointWriter, LoggedWriter, OpKind, OperationLog};
use saga_net::{SagaServer, ServerConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7407".to_string());
    let replicas: usize = match args.next().map(|r| r.parse()) {
        None => 2,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("usage: saga-server [addr] [replicas]  (replicas: a number above 0)");
            std::process::exit(2);
        }
    };

    let writer = Arc::new(LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    ));
    seed_demo_world(&writer);

    let ckpt_dir = std::env::temp_dir().join(format!("saga-server-{}", std::process::id()));
    let fleet_cfg = FleetConfig {
        replicas,
        ..FleetConfig::default()
    };
    let pool = ReplicaPool::start(fleet_cfg, Arc::clone(writer.log()), &ckpt_dir)
        .expect("start replica fleet");
    let router = Arc::new(FleetRouter::new(Arc::clone(&pool)));
    let controller =
        FleetController::with_checkpointer(pool, CheckpointWriter::new(&writer, &ckpt_dir));

    let cfg = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    let server = SagaServer::start(router, writer, cfg).expect("bind server");
    println!(
        "saga-server listening on {} ({replicas} replicas); ctrl-c to stop",
        server.local_addr()
    );
    let mut last_stats = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        for e in controller.tick().errors {
            eprintln!("fleet tick: {e}");
        }
        if last_stats.elapsed() < Duration::from_secs(60) {
            continue;
        }
        last_stats = Instant::now();
        let stats = server.stats();
        println!(
            "served={} shed={} conns={} frame_rejects={}",
            stats.requests_served,
            stats.requests_shed,
            stats.connections_accepted,
            stats.frame_rejects
        );
    }
}

/// A handful of entities so a fresh server answers something.
fn seed_demo_world(writer: &LoggedWriter) {
    let src = SourceId(1);
    let meta = FactMeta::from_source(src, 0.9);
    let fact = |id, pred: &str, value| {
        ExtendedTriple::simple(EntityId(id), intern(pred), value, meta.clone())
    };
    let batch = WriteBatch::new()
        .named_entity(EntityId(1), "Billie Eilish", "artist", src, 0.95)
        .named_entity(EntityId(2), "Bad Guy", "song", src, 0.95)
        .named_entity(EntityId(3), "Los Angeles", "city", src, 0.95)
        .upsert(fact(2, "performed_by", Value::Entity(EntityId(1))))
        .upsert(fact(1, "born_in", Value::Entity(EntityId(3))))
        .upsert(fact(2, "released", Value::Int(2019)));
    writer
        .commit(OpKind::Upsert, batch)
        .expect("seed demo world");
}
