//! Fleet health gauge: boot a small fleet, drive traffic through the
//! router, print the per-replica health table, then crash a replica and
//! watch the controller respawn it from a checkpoint.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use saga_core::{EntityId, KnowledgeGraph, SourceId, WriteBatch};
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaFault, ReplicaPool};
use saga_graph::{CheckpointWriter, LoggedWriter, OpKind, OperationLog};

fn print_stats(tag: &str, controller: &FleetController) {
    let stats = controller.stats();
    println!("\n[{tag}] log head {:?}, median watermark {:?}, lag_skips {}, session_skips {}, checkpoints {}",
        stats.head, stats.median_watermark, stats.lag_skips, stats.session_skips, stats.checkpoints);
    println!("  replica  state     watermark  lag  inflight  served  errors  respawns");
    for r in &stats.replicas {
        println!(
            "  {:>7}  {:<8}  {:>9}  {:>3}  {:>8}  {:>6}  {:>6}  {:>8}",
            r.replica,
            format!("{:?}", r.state),
            r.watermark.0,
            r.lag,
            r.inflight,
            r.served,
            r.errors,
            r.respawns
        );
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("saga-fleet-gauge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let cfg = FleetConfig {
        replicas: 3,
        checkpoint_every: 50,
        ..FleetConfig::default()
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(writer.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller = Arc::new(FleetController::with_checkpointer(
        Arc::clone(&pool),
        CheckpointWriter::new(&writer, &dir),
    ));
    let ticker = controller.spawn_ticker(Duration::from_millis(5));

    // Mixed traffic: commit, session-read your own write, spot-read old.
    for i in 1..=120u64 {
        let commit = writer
            .commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(i),
                    &format!("Gauge Entity {i}"),
                    "thing",
                    SourceId(1),
                    0.9,
                ),
            )
            .unwrap();
        let hits = router
            .query_with_session(
                &format!("FIND thing WHERE name = \"Gauge Entity {i}\""),
                &commit.session_token(),
            )
            .unwrap();
        assert_eq!(hits.entities(), vec![EntityId(i)]);
        if i == 60 {
            print_stats("steady state, pre-crash", &controller);
            println!("\n  !! injecting panic into replica 1");
            pool.inject_fault(1, ReplicaFault::Panic).unwrap();
        }
    }
    router
        .wait_for_lsn(writer.log().head(), Duration::from_secs(5))
        .unwrap();
    // Give the background ticker a moment to respawn and reconverge.
    std::thread::sleep(Duration::from_millis(100));
    print_stats("after crash + respawn", &controller);
    println!("\nticker errors: {}", ticker.errors());
    drop(ticker);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
