//! Fleet fault drills: kill and wedge replicas under traffic and prove
//! the routing, session and respawn contracts hold.
//!
//! * session reads never observe pre-commit state, even while replicas
//!   lag or die (read-your-writes);
//! * a panicked replica is detected, respawned from the newest
//!   checkpoint and converges back to parity with a directly-built
//!   replica of the same log;
//! * a wedged replica is excluded from routing by the lag bound, then
//!   detected by the controller, stopped and respawned;
//! * a replica wedged while a durable log moves more than its decoded
//!   tail ahead catches up from the log's file once released;
//! * an all-stale fleet fails session reads with a timeout instead of a
//!   stale answer, and a session read never blocks on a worker holding
//!   its replica;
//! * session readers racing on their own threads catch replicas up
//!   correctly — with no help from the workers, through a respawn, and
//!   without a slot's watermark ever moving backwards;
//! * a respawn refills a slot's store in place: the engine keeps its
//!   plan cache, and a read pinned before it answers from the new store;
//! * the fleet's version — the highest watermark a slot has published —
//!   never moves backwards across a respawn, and does not move at all
//!   when the head stands still;
//! * a read through the router sees whole ops, never one half applied.
//!
//! Faults are injected at the `fleet::worker_poll` failpoint, which a
//! worker checks with its replica held, armed for one drill's fleet
//! through its `fail_scope`. An action with `.times(1)`
//! lands on whichever worker reaches the site first, so drills read the
//! struck replica from `FleetController::stats()`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard, RwLock};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, GraphRead, KnowledgeGraph, Lsn,
    ProbeKey, SagaError, SessionToken, SourceId, Value, WriteBatch,
};
use saga_fleet::{
    FleetConfig, FleetController, FleetRouter, ReplicaPool, ReplicaState, RoutedRead,
};
use saga_graph::oplog::DECODED_TAIL;
use saga_graph::{CheckpointWriter, LoggedCommit, LoggedWriter, OpKind, OperationLog};
use saga_live::LiveReplica;

/// The failpoint registry is process-global; drills that arm it must not
/// overlap.
static DRILL_GATE: Mutex<()> = Mutex::new(());

/// Holds the gate and leaves the registry clean on both ends, even if the
/// drill panics. Taken after the fleet is up, so on unwind it drops first
/// and a wedged worker is released before the pool joins it.
struct DrillGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

/// Take the gate and arm `fleet::worker_poll` for the fleet under `scope`.
fn arm(scope: &str, action: FailAction) -> DrillGuard {
    let guard = DRILL_GATE.lock();
    fail::clear_all();
    fail::configure_scoped(sites::FLEET_WORKER_POLL, scope, action);
    DrillGuard(guard)
}

impl Drop for DrillGuard {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saga-fleet-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn producer() -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    )
}

fn commit_person(w: &LoggedWriter, i: u64) -> LoggedCommit {
    w.commit(
        OpKind::Upsert,
        WriteBatch::new().named_entity(
            EntityId(i),
            &format!("Fleet Person {i}"),
            "person",
            SourceId(1),
            0.9,
        ),
    )
    .unwrap()
}

/// [`fast_config`] for a drill that arms failpoints: `scope` keeps its
/// faults out of every other fleet in this process.
fn drill_config(replicas: usize, scope: &str) -> FleetConfig {
    FleetConfig {
        fail_scope: scope.to_string(),
        ..fast_config(replicas)
    }
}

/// A fast-polling test config: short enough that convergence waits are
/// milliseconds, long enough that nothing busy-spins.
fn fast_config(replicas: usize) -> FleetConfig {
    FleetConfig {
        replicas,
        shards: 2,
        poll_interval: Duration::from_micros(500),
        lag_bound: 4,
        session_timeout: Duration::from_secs(5),
        wedge_timeout: Duration::from_millis(50),
        ..FleetConfig::default()
    }
}

fn wait_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    check()
}

#[test]
fn session_reads_never_observe_pre_commit_state() {
    let w = producer();
    let dir = temp_dir("sessions");
    let pool = ReplicaPool::start(fast_config(3), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    // Commit → token → read, back to back: every read must see the
    // client's own write no matter which replica has caught up.
    for i in 1..=100u64 {
        let commit = commit_person(&w, i);
        let token = commit.session_token();
        let hits = router
            .query_with_session(
                &format!("FIND person WHERE name = \"Fleet Person {i}\""),
                &token,
            )
            .unwrap();
        assert_eq!(
            hits.entities(),
            vec![EntityId(i)],
            "session read {i} missed its own committed write"
        );
        // The pinned replica really was at-or-past the token.
        let read = router.read_with_session(&token).unwrap();
        assert!(read.watermark() >= token.lsn());
    }

    let controller = FleetController::new(Arc::clone(&pool));
    let stats = controller.stats();
    assert_eq!(stats.head, Lsn(100));
    let served: u64 = stats.replicas.iter().map(|r| r.served).sum();
    assert_eq!(served, 100, "every query was served by some replica");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_reads_barriers_and_shutdown_do_not_wait_for_the_poll_interval() {
    let w = producer();
    let dir = temp_dir("demand-wake");
    let cfg = FleetConfig {
        poll_interval: Duration::from_millis(500),
        ..fast_config(2)
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let prompt = Duration::from_millis(100);

    // The workers are parked for up to half a second (one of them still
    // in its stagger offset); a waiting reader must catch a replica up
    // itself.
    for i in 1..=50u64 {
        let token = commit_person(&w, i).session_token();
        let t0 = Instant::now();
        let hits = router
            .query_with_session(
                &format!("FIND person WHERE name = \"Fleet Person {i}\""),
                &token,
            )
            .unwrap();
        assert_eq!(hits.entities(), vec![EntityId(i)]);
        assert!(
            t0.elapsed() < prompt,
            "session read {i} waited {:?} for a 500 ms poll",
            t0.elapsed()
        );
    }

    let commit = commit_person(&w, 51);
    let t0 = Instant::now();
    router
        .wait_for_lsn(commit.lsn, Duration::from_secs(5))
        .unwrap();
    assert!(
        t0.elapsed() < prompt,
        "wait_for_lsn waited {:?} for a 500 ms poll",
        t0.elapsed()
    );

    let t0 = Instant::now();
    pool.shutdown();
    assert!(
        t0.elapsed() < prompt,
        "shutdown waited {:?} for parked workers",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unobserved_commits_reach_plain_reads_through_the_fallback_timeout() {
    let w = producer();
    let dir = temp_dir("fallback");
    let cfg = FleetConfig {
        poll_interval: Duration::from_millis(20),
        ..fast_config(2)
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    // No session token and no barrier: no caller applies this commit, so
    // only the workers' own timeout can.
    commit_person(&w, 1);
    assert!(
        wait_until(Duration::from_secs(2), || {
            router
                .query("FIND person WHERE name = \"Fleet Person 1\"")
                .unwrap()
                .entities()
                == vec![EntityId(1)]
        }),
        "a commit nobody waited on never became visible"
    );
    let stats = FleetController::new(Arc::clone(&pool)).stats();
    assert_eq!(stats.session_skips, 0, "no reader asked for an LSN");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_replica_respawns_from_checkpoint_and_converges_to_parity() {
    let w = producer();
    let dir = temp_dir("respawn");
    // Reference replica: tails the same log from the very beginning.
    let mut reference = LiveReplica::new(2, Arc::clone(w.log()));
    for i in 1..=40u64 {
        commit_person(&w, i);
    }
    reference.catch_up().unwrap();

    // Checkpoint and compact: the log prefix is gone, so any respawn
    // from here on *must* go through the checkpoint artifact.
    let ckpt = CheckpointWriter::new(&w, &dir);
    ckpt.checkpoint_and_compact().unwrap();
    assert!(w.log().compacted_through() >= Lsn(40));

    let scope = "fleet-respawn";
    let pool = ReplicaPool::start(drill_config(2, scope), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller = FleetController::new(Arc::clone(&pool));

    // Panic one replica mid-traffic: whichever polls first.
    let _drill = arm(scope, FailAction::panic().times(1));
    for i in 41..=60u64 {
        let commit = commit_person(&w, i);
        let hits = router
            .query_with_session(
                &format!("FIND person WHERE name = \"Fleet Person {i}\""),
                &commit.session_token(),
            )
            .unwrap();
        assert_eq!(
            hits.entities(),
            vec![EntityId(i)],
            "fleet served through the crash"
        );
    }
    let down = || {
        controller
            .stats()
            .replicas
            .iter()
            .position(|r| r.state == ReplicaState::Down)
    };
    assert!(
        wait_until(Duration::from_secs(5), || down().is_some()),
        "panicked worker was never marked down"
    );
    let struck = down().unwrap();

    // One controller pass respawns it from the checkpoint + log tail.
    let report = controller.tick();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.respawned, vec![struck]);
    router
        .wait_for_lsn(w.log().head(), Duration::from_secs(5))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            controller
                .stats()
                .replicas
                .iter()
                .all(|r| r.state == ReplicaState::Serving && r.lag == 0)
        }),
        "respawned replica never converged"
    );

    // Parity with the directly-built replica of the same log. The pin is
    // scoped: a held RoutedRead counts as load and would (correctly)
    // steer the round-robin check below away from its replica.
    reference.catch_up().unwrap();
    {
        let read = router.read().unwrap();
        assert_eq!(read.graph().len(), reference.live().len());
    }
    for i in [1u64, 20, 40, 41, 60] {
        let hits = router
            .query(&format!("FIND person WHERE name = \"Fleet Person {i}\""))
            .unwrap();
        assert_eq!(
            hits.entities(),
            reference.resolve_name(&format!("Fleet Person {i}"))
        );
    }

    // The reborn replica rejoins routing: sequential queries round-robin
    // across equally-loaded fresh replicas, so both serve.
    let before: Vec<u64> = controller
        .stats()
        .replicas
        .iter()
        .map(|r| r.served)
        .collect();
    for _ in 0..10 {
        router
            .query("FIND person WHERE name = \"Fleet Person 1\"")
            .unwrap();
    }
    let after = controller.stats();
    for (replica, served_before) in before.iter().enumerate() {
        assert!(
            after.replicas[replica].served > *served_before,
            "replica {replica} took no traffic after the respawn"
        );
    }
    assert_eq!(after.replicas[struck].respawns, 1);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedged_replica_is_skipped_then_detected_and_respawned() {
    let w = producer();
    let dir = temp_dir("wedge");
    let scope = "fleet-wedge";
    let pool = ReplicaPool::start(drill_config(2, scope), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller = FleetController::new(Arc::clone(&pool));

    for i in 1..=10u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(10), Duration::from_secs(5))
        .unwrap();

    // Wedge one replica — whichever polls first — for far longer than the
    // drill runs, then advance the log well past the lag bound (4).
    let _drill = arm(scope, FailAction::delay(Duration::from_secs(30)).times(1));
    for i in 11..=30u64 {
        commit_person(&w, i);
    }
    // Wait until the healthy replica is visibly ahead of the wedged one.
    let lagging = || controller.stats().replicas.iter().position(|r| r.lag > 4);
    assert!(
        wait_until(Duration::from_secs(5), || {
            lagging().is_some_and(|w| controller.stats().replicas[1 - w].lag == 0)
        }),
        "healthy replica never pulled ahead"
    );
    let wedged = lagging().unwrap();
    let healthy = 1 - wedged;

    // Routed reads must all land on the healthy replica now.
    let skips_before = controller.stats().lag_skips;
    for _ in 0..20 {
        let read = router.read().unwrap();
        assert_eq!(
            read.replica(),
            healthy,
            "router picked a replica beyond the lag bound"
        );
    }
    assert!(
        controller.stats().lag_skips > skips_before,
        "lag-bound skips were not counted"
    );

    // The controller notices the frozen watermark and respawns the slot.
    // A respawn marks the slot `Down`, then joins the old worker, and a
    // delay does not see the kill flag: release the wedge once the
    // controller has marked it.
    std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            wait_until(Duration::from_secs(5), || {
                let report = controller.tick();
                assert!(report.errors.is_empty(), "{:?}", report.errors);
                controller.stats().replicas[wedged].respawns == 1
            })
        });
        assert!(
            wait_until(Duration::from_secs(5), || {
                controller.stats().replicas[wedged].state == ReplicaState::Down
            }),
            "wedged replica was never detected"
        );
        fail::clear(sites::FLEET_WORKER_POLL);
        assert!(ticker.join().unwrap(), "wedged replica was never respawned");
    });
    router
        .wait_for_lsn(Lsn(30), Duration::from_secs(5))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            controller.stats().replicas.iter().all(|r| r.lag == 0)
        }),
        "fleet never reconverged after the wedge respawn"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every other drill runs on an in-memory log, which keeps every op
/// decoded. A durable one keeps only its newest `DECODED_TAIL`, so a
/// replica that falls further behind replays the older ops from frames
/// read back out of the file.
#[test]
fn replica_wedged_past_the_decoded_tail_catches_up_from_the_file() {
    let dir = temp_dir("durable-wedge");
    std::fs::create_dir_all(&dir).unwrap();
    let w = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::durable(&dir.join("ops.oplog")).unwrap()),
    );
    let scope = "fleet-durable-wedge";
    let pool = ReplicaPool::start(
        drill_config(2, scope),
        Arc::clone(w.log()),
        dir.join("ckpt"),
    )
    .unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller = FleetController::new(Arc::clone(&pool));

    for i in 1..=10u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(10), Duration::from_secs(5))
        .unwrap();

    // Wedge one replica, then commit more than the log keeps decoded.
    let _drill = arm(scope, FailAction::delay(Duration::from_secs(30)).times(1));
    let n = 10 + DECODED_TAIL as u64 + 200;
    for i in 11..=n {
        commit_person(&w, i);
    }
    let lagging = || {
        let replicas = controller.stats().replicas;
        let wedged = replicas.iter().position(|r| r.lag > DECODED_TAIL as u64)?;
        (replicas[1 - wedged].lag == 0).then_some(wedged)
    };
    assert!(
        wait_until(Duration::from_secs(5), || lagging().is_some()),
        "no replica fell behind the decoded tail while the other kept up"
    );
    let wedged = lagging().unwrap();

    // Released, it replays the older ops from the file and converges.
    fail::clear(sites::FLEET_WORKER_POLL);
    assert!(
        wait_until(Duration::from_secs(10), || {
            controller.stats().replicas.iter().all(|r| r.lag == 0)
        }),
        "the wedged replica never caught up"
    );
    let health = &controller.stats().replicas[wedged];
    assert_eq!(
        (health.errors, health.respawns),
        (0, 0),
        "caught up by replay, not by respawn"
    );

    // With the other replica down, every read is served by this one.
    pool.kill(1 - wedged).unwrap();
    let read = router.read_with_session(&SessionToken::at(Lsn(n))).unwrap();
    assert_eq!(read.replica(), wedged);
    assert_matches_writer(&read, &w, n);
    drop(read);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_stale_session_reads_time_out_rather_than_serve_stale() {
    let w = producer();
    let dir = temp_dir("stale");
    let scope = "fleet-stale";
    let mut cfg = drill_config(1, scope);
    let cfg_timeout = Duration::from_millis(50);
    cfg.session_timeout = cfg_timeout;
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    commit_person(&w, 1);
    router.wait_for_lsn(Lsn(1), Duration::from_secs(5)).unwrap();

    // Wedge the only replica, then commit: nothing can reach the token.
    // The wedged worker holds its replica, so the reader cannot catch it
    // up either.
    let _drill = arm(scope, FailAction::delay(Duration::from_secs(30)));
    assert!(
        wait_until(Duration::from_secs(5), || {
            fail::fired(sites::FLEET_WORKER_POLL, scope) == 1
        }),
        "the worker never reached its wedge"
    );
    let commit = commit_person(&w, 2);
    let token = commit.session_token();
    let t0 = Instant::now();
    let err = router
        .query_with_session("FIND person WHERE name = \"Fleet Person 2\"", &token)
        .unwrap_err();
    let waited = t0.elapsed();
    assert!(err.to_string().contains("timed out"), "{err}");
    assert!(
        err.is_retryable(),
        "session timeout must be the typed retryable error, got {err:?}"
    );
    // A reader that blocked on the held replica instead of trying it
    // would sit out the 30 s wedge.
    assert!(
        waited < cfg_timeout + Duration::from_millis(250),
        "the typed timeout took {waited:?} against a {cfg_timeout:?} session timeout"
    );

    // Un-wedge: the worker resumes on its own and the read goes through.
    fail::clear(sites::FLEET_WORKER_POLL);
    let hits = router
        .query_with_session("FIND person WHERE name = \"Fleet Person 2\"", &token)
        .unwrap();
    assert_eq!(hits.entities(), vec![EntityId(2)]);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_generation_is_monotone_across_respawns() {
    let w = producer();
    let dir = temp_dir("gen");
    let pool = ReplicaPool::start(fast_config(2), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    for i in 1..=20u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(20), Duration::from_secs(5))
        .unwrap();
    let before = router.generation();
    assert_eq!(before, 20, "the highest published watermark");

    // A respawn refills the slot's store from replay in place; the slot's
    // watermark must go on from where it was, not restart.
    pool.kill(0).unwrap();
    pool.respawn(0).unwrap();
    router
        .wait_for_lsn(Lsn(20), Duration::from_secs(5))
        .unwrap();
    assert!(
        router.generation() >= before,
        "fleet generation went backwards across a respawn"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_generation_never_decreases_while_a_slot_respawns() {
    let w = producer();
    let dir = temp_dir("gen-window");
    let pool = ReplicaPool::start(fast_config(2), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    // Replay takes each slot's watermark into the thousands, and a fresh
    // replica starts at 0 before it loads the checkpoint: the respawns
    // below must store the slot's watermark only once the fresh replica
    // is at or past the old one.
    for i in 1..=2000u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(2000), Duration::from_secs(5))
        .unwrap();
    CheckpointWriter::new(&w, &dir).checkpoint().unwrap();

    // Sample the fleet generation throughout the respawns, not only
    // before and after: no moment of a refill may read lower.
    let stop = AtomicBool::new(false);
    let drops = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut drops = Vec::new();
            let mut last = router.generation();
            while !stop.load(Ordering::Relaxed) {
                let now = router.generation();
                if now < last {
                    drops.push((last, now));
                }
                last = now;
            }
            drops
        });
        for _ in 0..5 {
            pool.respawn(0).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });
    assert!(
        drops.is_empty(),
        "fleet generation went backwards during a respawn: {drops:?}"
    );
    router
        .wait_for_lsn(Lsn(2000), Duration::from_secs(5))
        .unwrap();
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_respawn_at_an_unchanged_head_leaves_the_fleet_generation_unchanged() {
    let w = producer();
    let dir = temp_dir("gen-still");
    let pool = ReplicaPool::start(fast_config(2), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    for i in 1..=20u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(20), Duration::from_secs(5))
        .unwrap();
    let head = w.log().head().0;
    assert_eq!(router.generation(), head);

    // Down slots count: killing every slot moves nothing, and neither
    // does refilling them at the same head.
    pool.kill(0).unwrap();
    pool.kill(1).unwrap();
    assert_eq!(router.generation(), head, "after the kills");
    for id in 0..2 {
        pool.respawn(id).unwrap();
        assert_eq!(router.generation(), head, "after respawning {id}");
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entity's facts in the flattened index vocabulary the log ships.
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

/// The pinned replica serves exactly the writer's records and postings
/// for persons `1..=n`.
fn assert_matches_writer(read: &RoutedRead, w: &LoggedWriter, n: u64) {
    let kg = w.read();
    let person = ProbeKey::Type(intern("person"));
    assert_eq!(read.graph().postings(&person), kg.postings(&person));
    for i in 1..=n {
        let id = EntityId(i);
        assert_eq!(
            flat_record(read.graph(), id),
            flat_record(&*kg, id),
            "replica {} record {i}",
            read.replica()
        );
        let name = ProbeKey::Name(format!("Fleet Person {i}"));
        assert_eq!(read.graph().postings(&name), kg.postings(&name));
    }
}

#[test]
fn racing_session_readers_catch_replicas_up_on_their_own_threads() {
    const READERS: u64 = 4;
    const PAIRS: u64 = 200;
    let w = producer();
    let dir = temp_dir("racing");
    // The workers poll every 10 s, so within the drill only the readers'
    // own catch-up can meet the 1 s session timeout.
    let cfg = FleetConfig {
        poll_interval: Duration::from_secs(10),
        session_timeout: Duration::from_secs(1),
        ..fast_config(2)
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let controller = FleetController::new(Arc::clone(&pool));

    let stop = AtomicBool::new(false);
    let decreases = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut last = vec![Lsn::ZERO; pool.replicas()];
            let mut decreases = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for r in controller.stats().replicas {
                    if r.watermark < last[r.replica] {
                        decreases.push((r.replica, last[r.replica], r.watermark));
                    }
                    last[r.replica] = r.watermark;
                }
            }
            decreases
        });
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (w, router) = (&w, &router);
                s.spawn(move || {
                    for k in 0..PAIRS {
                        let id = 1 + t * PAIRS + k;
                        let token = commit_person(w, id).session_token();
                        let hits = router
                            .query_with_session(
                                &format!("FIND person WHERE name = \"Fleet Person {id}\""),
                                &token,
                            )
                            .unwrap();
                        assert_eq!(
                            hits.entities(),
                            vec![EntityId(id)],
                            "session read {id} missed its own committed write"
                        );
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });
    assert!(
        decreases.is_empty(),
        "a slot watermark moved backwards: {decreases:?}"
    );
    let caller_applied: u64 = controller
        .stats()
        .replicas
        .iter()
        .map(|r| r.caller_applied)
        .sum();
    assert!(caller_applied > 0, "no request thread applied an op");

    // Every replica ends equal to the writer: the one the readers caught
    // up, then — with it killed — the other, caught up by the barrier.
    let n = READERS * PAIRS;
    let head = w.log().head();
    assert_eq!(head, Lsn(n));
    let at_head = SessionToken::at(head);
    router.wait_for_lsn(head, Duration::from_secs(5)).unwrap();
    let first = {
        let read = router.read_with_session(&at_head).unwrap();
        assert_matches_writer(&read, &w, n);
        read.replica()
    };
    pool.kill(first).unwrap();
    router.wait_for_lsn(head, Duration::from_secs(5)).unwrap();
    let read = router.read_with_session(&at_head).unwrap();
    assert_eq!(read.replica(), 1 - first);
    assert_matches_writer(&read, &w, n);
    drop(read);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_reads_stay_fresh_and_typed_while_a_slot_respawns() {
    let w = producer();
    let dir = temp_dir("respawn-sessions");
    let pool = ReplicaPool::start(fast_config(2), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));

    // As in the generation drill: each respawn refills a slot thousands
    // of ops along from a fresh replica that starts at 0.
    for i in 1..=2000u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(2000), Duration::from_secs(5))
        .unwrap();
    CheckpointWriter::new(&w, &dir).checkpoint().unwrap();

    // Session readers commit and read back while slot 0 respawns under
    // them, catching replicas up on their own threads throughout.
    let stop = AtomicBool::new(false);
    let next = AtomicU64::new(2001);
    let (drops, outcomes) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut drops = Vec::new();
            let mut last = router.generation();
            while !stop.load(Ordering::Relaxed) {
                let now = router.generation();
                if now < last {
                    drops.push((last, now));
                }
                last = now;
            }
            drops
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let (mut served, mut stale, mut errors) = (0u64, Vec::new(), Vec::new());
                    while !stop.load(Ordering::Relaxed) {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let token = commit_person(&w, id).session_token();
                        match router.read_with_session(&token) {
                            Ok(read) => {
                                if read.watermark() < token.lsn() {
                                    stale.push((read.replica(), read.watermark(), token.lsn()));
                                }
                                let hits = read
                                    .query(&format!(
                                        "FIND person WHERE name = \"Fleet Person {id}\""
                                    ))
                                    .unwrap();
                                assert_eq!(hits.entities(), vec![EntityId(id)]);
                                served += 1;
                            }
                            Err(e) => errors.push(e),
                        }
                    }
                    (served, stale, errors)
                })
            })
            .collect();
        // Let a few session reads land before each respawn and after the
        // last, so the readers overlap every refill.
        let reads_land = || {
            let mark = next.load(Ordering::Relaxed);
            assert!(
                wait_until(Duration::from_secs(5), || next.load(Ordering::Relaxed)
                    > mark + 4),
                "session readers stalled"
            );
        };
        for _ in 0..5 {
            reads_land();
            pool.respawn(0).unwrap();
        }
        reads_land();
        stop.store(true, Ordering::Relaxed);
        let outcomes: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (sampler.join().unwrap(), outcomes)
    });
    assert!(
        drops.is_empty(),
        "fleet generation went backwards during a respawn: {drops:?}"
    );
    for (served, stale, errors) in &outcomes {
        assert!(*served > 0, "a reader was never served");
        assert!(
            stale.is_empty(),
            "routed reads below their session token: {stale:?}"
        );
        assert!(
            errors
                .iter()
                .all(|e| matches!(e, SagaError::Unavailable(_))),
            "a session read failed with an untyped error: {errors:?}"
        );
    }
    router
        .wait_for_lsn(w.log().head(), Duration::from_secs(5))
        .unwrap();
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A respawn refills the slot's store in place: the slot's engine, and a
/// read pinned to it before the respawn, serve the refilled store, and
/// the plan cache survives.
#[test]
fn a_respawn_keeps_the_slot_engine_and_its_plan_cache() {
    let w = producer();
    let dir = temp_dir("refill");
    let pool = ReplicaPool::start(fast_config(1), Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    for i in 1..=10u64 {
        commit_person(&w, i);
    }
    router
        .wait_for_lsn(Lsn(10), Duration::from_secs(5))
        .unwrap();
    let find = "FIND person LIMIT 100";
    assert_eq!(router.query(find).unwrap().entities().len(), 10);

    let pinned = router.read().unwrap();
    pool.respawn(0).unwrap();
    let mut token = SessionToken::default();
    for i in 11..=20u64 {
        token = commit_person(&w, i).session_token();
    }
    let person = ProbeKey::Type(intern("person"));
    let expected = w.read().postings(&person);
    assert_eq!(expected.len(), 20);

    let read = router.read_with_session(&token).unwrap();
    assert!(
        read.engine().cached_plans() >= 1,
        "the respawn dropped the plan cache"
    );
    let hits = read.engine().plan_cache_stats().0;
    assert_eq!(read.query(find).unwrap().entities(), expected);
    assert_eq!(
        read.engine().plan_cache_stats().0,
        hits + 1,
        "the query after the respawn was not a plan-cache hit"
    );
    assert_eq!(
        pinned.query(find).unwrap().entities(),
        expected,
        "a read pinned before the respawn kept the old store"
    );
    drop((read, pinned));
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer moves `tag = "x"` between two things in different partitions,
/// one op per move (drop it from one, upsert it on the other), while a
/// reader asks the router for its holders: every `FIND` and every
/// postings read must see exactly one, never the state inside an op.
#[test]
fn router_reads_never_see_half_an_op() {
    const MOVES: u64 = 20_000;
    let w = producer();
    let dir = temp_dir("whole-ops");
    // One replica, so every read lands where the ops apply: its worker
    // wakes every 20 ms to replay the moves committed meanwhile, and the
    // closing barrier replays the rest on this thread.
    let cfg = FleetConfig {
        poll_interval: Duration::from_millis(20),
        ..fast_config(1)
    };
    let pool = ReplicaPool::start(cfg, Arc::clone(w.log()), &dir).unwrap();
    let router = FleetRouter::new(Arc::clone(&pool));
    let tag = intern("tag");
    let meta = FactMeta::from_source(SourceId(1), 0.9);
    let tagged = |id: u64| ExtendedTriple::simple(EntityId(id), tag, Value::str("x"), meta.clone());
    w.commit(
        OpKind::Upsert,
        WriteBatch::new()
            .named_entity(EntityId(1), "Thing One", "thing", SourceId(1), 0.9)
            .named_entity(EntityId(2), "Thing Two", "thing", SourceId(1), 0.9)
            .upsert(tagged(1)),
    )
    .unwrap();
    router.wait_for_lsn(Lsn(1), Duration::from_secs(5)).unwrap();

    let probe = ProbeKey::Literal(tag, Value::str("x"));
    let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let (reads, torn) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut torn) = (0u64, 0u64);
            while !done.load(Ordering::Acquire) {
                let found = router
                    .query("FIND thing WHERE tag = \"x\" LIMIT 10")
                    .unwrap();
                let holders = [found.entities().len(), router.postings(&probe).len()];
                reads += 2;
                torn += holders.iter().filter(|&&n| n != 1).count() as u64;
                started.store(true, Ordering::Release);
            }
            (reads, torn)
        });
        while !started.load(Ordering::Acquire) && !reader.is_finished() {
            std::thread::yield_now();
        }
        for k in 0..MOVES {
            let (from, to) = if k % 2 == 0 { (1, 2) } else { (2, 1) };
            let untag = move |rec: &mut EntityRecord| rec.triples.retain(|t| t.predicate != tag);
            w.commit(
                OpKind::Upsert,
                WriteBatch::new()
                    .mutate(EntityId(from), untag)
                    .upsert(tagged(to)),
            )
            .unwrap();
        }
        router
            .wait_for_lsn(w.log().head(), Duration::from_secs(5))
            .unwrap();
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    eprintln!("{torn} torn reads of {reads}");
    assert_eq!(torn, 0, "{torn} of {reads} reads saw half an op");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
