//! Deterministic resilience drills: three in-process saga-servers over
//! **one** operation log, a [`SagaPool`] in front, and scoped failpoints
//! ([`saga_core::fail`]) killing, wedging, and muting individual servers
//! mid-workload. The invariants under drill:
//!
//! * a killed or wedged endpoint costs the client **zero visible
//!   errors** — reads and fenced commits fail over transparently;
//! * read-your-writes holds **across** the failover (the pool session
//!   token is honored by whichever endpoint answers);
//! * the circuit breaker opens on the dead endpoint and re-admits it
//!   after "respawn" (failpoint cleared) via a half-open probe;
//! * a lost commit acknowledgement surfaces as the typed, non-retryable
//!   [`SagaError::MaybeCommitted`] — never a silent double-apply.
//!
//! "Kill" here is a scoped `net::server_read` error failpoint: the
//! server drops the connection with the request unexecuted, which is
//! exactly what a `kill -9` looks like from the client's side of the
//! socket — while keeping the drill free of port-rebind races a real
//! process respawn would bring. One drill uses a true
//! [`SagaServer::shutdown`] for the honest-TCP variant.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{EntityId, KnowledgeGraph, SagaError, SourceId, WriteBatch};
use saga_fleet::{FleetConfig, FleetRouter, ReplicaPool};
use saga_graph::{LogFollower, LoggedWriter, OpKind, OperationLog};
use saga_net::protocol::{encode_frame, opcode, read_frame};
use saga_net::{
    BreakerConfig, BreakerState, ClientConfig, PoolConfig, RetryPolicy, SagaPool, SagaServer,
    ServerConfig, WireBatch,
};

/// The failpoint registry is process-global; drills must not overlap.
static DRILL_GATE: Mutex<()> = Mutex::new(());

/// Holds the gate and guarantees a clean registry on both ends, even if
/// the drill panics.
struct DrillGuard<'a>(#[allow(dead_code)] parking_lot::MutexGuard<'a, ()>);

impl<'a> DrillGuard<'a> {
    fn acquire() -> DrillGuard<'a> {
        let guard = DRILL_GATE.lock();
        fail::clear_all();
        DrillGuard(guard)
    }
}

impl Drop for DrillGuard<'_> {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

/// Three servers, one log: every fleet tails the same `OperationLog`
/// behind one `LoggedWriter`, so any endpoint can serve any session.
struct Trio {
    servers: Vec<SagaServer>,
    fleets: Vec<Arc<ReplicaPool>>,
    writer: Arc<LoggedWriter>,
    dirs: Vec<std::path::PathBuf>,
}

impl Trio {
    fn addrs(&self) -> Vec<String> {
        self.servers
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    }

    /// The scope label a drill uses to kill server `i`'s socket loops.
    fn scope(i: usize) -> String {
        format!("srv{i}")
    }
}

impl Drop for Trio {
    fn drop(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
        for fleet in &self.fleets {
            fleet.shutdown();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn boot_trio(tag: &str, count: usize) -> Trio {
    let writer = Arc::new(LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    ));
    writer
        .commit(
            OpKind::Upsert,
            WriteBatch::new().named_entity(EntityId(1), "Seed Song", "song", SourceId(1), 0.9),
        )
        .expect("seed");
    let mut servers = Vec::new();
    let mut fleets = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..count {
        let dir = std::env::temp_dir().join(format!("saga-pool-{tag}-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet_cfg = FleetConfig {
            replicas: 2,
            poll_interval: Duration::from_micros(200),
            session_timeout: Duration::from_millis(500),
            fail_scope: format!("fleet{i}"),
            ..FleetConfig::default()
        };
        let fleet =
            ReplicaPool::start(fleet_cfg, Arc::clone(writer.log()), &dir).expect("start fleet");
        let router = Arc::new(FleetRouter::new(Arc::clone(&fleet)));
        let cfg = ServerConfig {
            fail_scope: Trio::scope(i),
            ..ServerConfig::default()
        };
        let server = SagaServer::start(router, Arc::clone(&writer), cfg).expect("start server");
        servers.push(server);
        fleets.push(fleet);
        dirs.push(dir);
    }
    Trio {
        servers,
        fleets,
        writer,
        dirs,
    }
}

/// Drill-tuned pool: tight timeouts so a dead endpoint is detected in
/// milliseconds, deterministic jitter, fenced commits.
fn drill_pool(addrs: Vec<String>) -> SagaPool {
    SagaPool::new(
        addrs,
        PoolConfig {
            retry: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                jitter: 0.5,
                deadline: Duration::from_secs(10),
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(150),
            },
            client: ClientConfig {
                connect_timeout: Duration::from_millis(500),
                read_timeout: Duration::from_millis(1_500),
                write_timeout: Duration::from_millis(500),
            },
            seed: 0xD41,
            fence_commits: true,
        },
    )
}

fn commit_song(pool: &mut SagaPool, id: u64, name: &str) {
    let committed = pool
        .commit(WireBatch::new().named_entity(EntityId(id), name, "song", SourceId(2), 0.9))
        .unwrap_or_else(|e| panic!("commit {name} must survive the drill: {e}"));
    assert!(committed.lsn.0 > 0);
}

fn assert_session_sees(pool: &mut SagaPool, id: u64, name: &str) {
    let hits = pool
        .query_with_session(&format!("FIND song WHERE name = \"{name}\""))
        .unwrap_or_else(|e| panic!("session read of {name} must survive the drill: {e}"));
    assert_eq!(
        hits.entities(),
        vec![EntityId(id)],
        "read-your-writes violated for {name}"
    );
}

#[test]
fn reads_and_commits_fail_over_a_killed_server_with_zero_errors() {
    let _guard = DrillGuard::acquire();
    let trio = boot_trio("kill", 3);
    let mut pool = drill_pool(trio.addrs());

    // Healthy warm-up: every endpoint serves at least once.
    for i in 0..3 {
        commit_song(&mut pool, 100 + i, &format!("Warmup Song {i}"));
        assert_session_sees(&mut pool, 100 + i, &format!("Warmup Song {i}"));
    }

    // Kill server 1 mid-workload: every frame its reader decodes from
    // now on drops the connection with the request unexecuted.
    fail::configure_scoped(sites::NET_SERVER_READ, &Trio::scope(1), FailAction::error());

    // The mixed workload continues; not one call is allowed to fail,
    // and every commit must be readable immediately through the session
    // token, whichever surviving endpoint answers.
    for i in 0..6 {
        commit_song(&mut pool, 200 + i, &format!("Failover Song {i}"));
        assert_session_sees(&mut pool, 200 + i, &format!("Failover Song {i}"));
        pool.ping().expect("ping during failover");
    }

    // The dead endpoint was actually exercised and quarantined.
    let stats = pool.endpoint_stats();
    assert!(
        stats[1].transport_failures > 0,
        "the killed endpoint should have been tried: {stats:?}"
    );
    assert_eq!(
        stats[1].state,
        BreakerState::Open,
        "two consecutive failures open the breaker: {stats:?}"
    );
    assert!(
        stats[0].responses > 0 && stats[2].responses > 0,
        "survivors carried the load: {stats:?}"
    );
}

#[test]
fn breaker_readmits_a_respawned_server() {
    let _guard = DrillGuard::acquire();
    let trio = boot_trio("respawn", 3);
    let mut pool = drill_pool(trio.addrs());

    fail::configure_scoped(sites::NET_SERVER_READ, &Trio::scope(2), FailAction::error());
    for _ in 0..6 {
        pool.ping().expect("ping while one endpoint is down");
    }
    assert_eq!(pool.endpoint_stats()[2].state, BreakerState::Open);
    let failures_while_down = pool.endpoint_stats()[2].transport_failures;
    assert!(failures_while_down > 0);

    // "Respawn": the process comes back (failpoint cleared). The
    // breaker must re-admit it on its own — cooldown, half-open probe,
    // closed — with no client-visible hiccup at any point.
    fail::clear(sites::NET_SERVER_READ);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        pool.ping().expect("ping during re-admission");
        let stats = pool.endpoint_stats();
        if stats[2].state == BreakerState::Closed && stats[2].consecutive_failures == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never re-admitted the respawned endpoint: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        pool.endpoint_stats()[2].transport_failures,
        failures_while_down,
        "no further failures after the respawn"
    );
    // And it serves again: drive enough reads to rotate onto it.
    let responses_at_readmit = pool.endpoint_stats()[2].responses;
    for _ in 0..4 {
        pool.ping().expect("post-respawn ping");
    }
    assert!(
        pool.endpoint_stats()[2].responses > responses_at_readmit,
        "re-admitted endpoint takes traffic again"
    );
}

#[test]
fn wedged_server_times_out_and_reads_fail_over() {
    let _guard = DrillGuard::acquire();
    let trio = boot_trio("wedge", 3);
    let mut pool = drill_pool(trio.addrs());
    // Tighten the read timeout below the wedge so the drill stays fast.
    pool = {
        drop(pool);
        SagaPool::new(
            trio.addrs(),
            PoolConfig {
                client: ClientConfig {
                    read_timeout: Duration::from_millis(200),
                    ..ClientConfig::default()
                },
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(30),
                },
                retry: RetryPolicy {
                    max_attempts: 6,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    jitter: 0.5,
                    deadline: Duration::from_secs(10),
                },
                seed: 0xD42,
                fence_commits: true,
            },
        )
    };

    // Wedge server 0: its reader sleeps far past the client timeout on
    // every frame — the accepted-but-silent pathology, mid-pipeline.
    fail::configure_scoped(
        sites::NET_SERVER_READ,
        &Trio::scope(0),
        FailAction::delay(Duration::from_secs(2)),
    );
    let t0 = Instant::now();
    for i in 0..4 {
        commit_song(&mut pool, 300 + i, &format!("Wedge Song {i}"));
        assert_session_sees(&mut pool, 300 + i, &format!("Wedge Song {i}"));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "timeouts bounded the wedge, not the 2s sleeps: {:?}",
        t0.elapsed()
    );
    let stats = pool.endpoint_stats();
    assert_eq!(stats[0].state, BreakerState::Open, "{stats:?}");
    // Un-wedge before teardown so the parked reader exits promptly.
    fail::clear_all();
}

#[test]
fn lost_commit_ack_surfaces_maybe_committed_not_a_double_apply() {
    let _guard = DrillGuard::acquire();
    let trio = boot_trio("lostack", 1);
    let mut pool = SagaPool::new(
        trio.addrs(),
        PoolConfig {
            client: ClientConfig {
                read_timeout: Duration::from_millis(200),
                ..ClientConfig::default()
            },
            // No fence: the drill targets the ack-loss window itself.
            fence_commits: false,
            seed: 0xD43,
            ..PoolConfig::default()
        },
    );
    pool.ping().expect("warm up the connection");

    // The next response write is dropped *after* the request executes:
    // the commit applies server-side, the acknowledgement never leaves.
    fail::configure_scoped(
        sites::NET_SERVER_WRITE,
        &Trio::scope(0),
        FailAction::error().times(1),
    );
    let err = pool
        .commit(WireBatch::new().named_entity(
            EntityId(400),
            "Ambiguous Song",
            "song",
            SourceId(2),
            0.9,
        ))
        .expect_err("a lost ack must not report success");
    assert!(
        matches!(err, SagaError::MaybeCommitted(_)),
        "lost ack is the typed ambiguous outcome, got: {err}"
    );
    assert!(
        !err.is_retryable(),
        "MaybeCommitted must never be blindly retried"
    );

    // Reconcile exactly as the contract prescribes: read the intended
    // write back. It *did* apply — and exactly once, proving the pool
    // did not re-send the ambiguous commit.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match pool.resolve_name("ambiguous song") {
            Ok(ids) if !ids.is_empty() => {
                assert_eq!(ids, vec![EntityId(400)], "applied exactly once");
                break;
            }
            _ if Instant::now() >= deadline => panic!("committed write never became readable"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut pool_commits = 0;
    LogFollower::new(Arc::clone(trio.writer.log()))
        .poll_with(usize::MAX, |op| {
            pool_commits += usize::from(format!("{op:?}").contains("Ambiguous Song"));
        })
        .unwrap();
    assert_eq!(
        pool_commits, 1,
        "the ambiguous commit landed in the log exactly once"
    );
}

#[test]
fn true_shutdown_fails_over_without_client_errors() {
    let _guard = DrillGuard::acquire();
    let mut trio = boot_trio("shutdown", 3);
    let mut pool = drill_pool(trio.addrs());
    for i in 0..3 {
        commit_song(&mut pool, 500 + i, &format!("Pre Shutdown Song {i}"));
    }

    // An honest kill: the listener closes, established connections
    // reset, later connects are refused. No failpoints involved.
    trio.servers[1].shutdown();

    for i in 0..5 {
        commit_song(&mut pool, 510 + i, &format!("Post Shutdown Song {i}"));
        assert_session_sees(&mut pool, 510 + i, &format!("Post Shutdown Song {i}"));
    }
    let stats = pool.endpoint_stats();
    assert_eq!(stats[1].state, BreakerState::Open, "{stats:?}");
}

#[test]
fn exhausted_pool_fails_typed_retryable_and_bounded() {
    let _guard = DrillGuard::acquire();
    // Two endpoints that refuse every connect: bind, harvest the port,
    // drop the listener.
    let dead_addr = || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let mut pool = SagaPool::new(
        [dead_addr(), dead_addr()],
        PoolConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                jitter: 0.0,
                deadline: Duration::from_millis(800),
            },
            ..PoolConfig::default()
        },
    );
    let t0 = Instant::now();
    let err = pool.ping().expect_err("no endpoint can serve");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "failure is bounded by the deadline budget: {:?}",
        t0.elapsed()
    );
    assert!(
        err.is_retryable(),
        "total unavailability stays a retryable condition: {err}"
    );
    assert!(
        err.to_string().contains("attempts exhausted") || err.to_string().contains("unhealthy"),
        "the error names what the pool tried: {err}"
    );
}

/// A pool that gives up after `max_attempts` with a fixed, jitter-free
/// backoff and a breaker that never opens inside the drill, so every
/// attempt reaches an endpoint.
fn fixed_pool(addrs: Vec<String>, max_attempts: u32, backoff: Duration, fence: bool) -> SagaPool {
    SagaPool::new(
        addrs,
        PoolConfig {
            retry: RetryPolicy {
                max_attempts,
                base_backoff: backoff,
                max_backoff: backoff,
                jitter: 0.0,
                deadline: Duration::from_secs(10),
            },
            breaker: BreakerConfig {
                failure_threshold: 100,
                ..BreakerConfig::default()
            },
            fence_commits: fence,
            ..PoolConfig::default()
        },
    )
}

/// A peer that answers every frame with a result of an unknown tag: the
/// answer arrives, but it cannot be decoded. A read retries it like any
/// failed receive and fails typed once the attempts are spent; a commit
/// cannot know whether it ran, so it is `MaybeCommitted` and sent once.
#[test]
fn garbled_answers_fail_typed_without_panicking() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind garbling peer");
    let addr = listener.local_addr().expect("peer addr").to_string();
    // One connection at a time: every failed receive drops the pool's
    // connection, so the four attempts below dial four times.
    let peer = std::thread::spawn(move || {
        for stream in listener.incoming().take(4) {
            let mut stream = stream.expect("accept");
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                let garbage = encode_frame(frame.request_id, opcode::RESULT, &[0xff, 0xff, 0xff]);
                if stream.write_all(&garbage).is_err() {
                    break;
                }
            }
        }
    });
    let mut pool = fixed_pool(vec![addr], 3, Duration::from_millis(1), false);

    let err = pool
        .query("FIND song")
        .expect_err("garbage is not an answer");
    assert!(
        err.to_string().contains("unknown result tag"),
        "the last failure names the garbage: {err}"
    );
    let stats = pool.endpoint_stats()[0].clone();
    assert_eq!(stats.transport_failures, 3, "one per attempt: {stats:?}");
    assert_eq!(stats.responses, 0, "{stats:?}");

    let err = pool
        .commit(WireBatch::new().named_entity(
            EntityId(600),
            "Garbled Song",
            "song",
            SourceId(2),
            0.9,
        ))
        .expect_err("a garbled ack must not report success");
    assert!(
        matches!(err, SagaError::MaybeCommitted(_)),
        "a garbled ack is the typed ambiguous outcome, got: {err}"
    );
    let stats = pool.endpoint_stats()[0].clone();
    assert_eq!(stats.requests, 4, "the commit was sent once: {stats:?}");
    assert_eq!(stats.transport_failures, 4, "{stats:?}");
    peer.join().expect("garbling peer");
}

/// Exhaustion costs a commit what it costs a read: one backoff between
/// two attempts, and no sleep after the last, fenced or not.
#[test]
fn a_commit_exhausts_in_the_same_time_as_a_read() {
    let _guard = DrillGuard::acquire();
    let dead_addr = || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let backoff = Duration::from_millis(300);
    for fence in [false, true] {
        let mut pool = fixed_pool(vec![dead_addr(), dead_addr()], 2, backoff, fence);
        let t0 = Instant::now();
        pool.ping().expect_err("no endpoint can serve");
        let ping = t0.elapsed();
        let t0 = Instant::now();
        let err = pool
            .commit(WireBatch::new().named_entity(
                EntityId(700),
                "Lost Song",
                "song",
                SourceId(2),
                0.9,
            ))
            .expect_err("no endpoint can commit");
        let commit = t0.elapsed();
        assert!(
            err.is_retryable(),
            "a refused connect sends nothing, so the commit stays retryable: {err}"
        );
        for (what, took) in [("ping", ping), ("commit", commit)] {
            assert!(
                (backoff..Duration::from_millis(500)).contains(&took),
                "{what} (fence {fence}) sleeps one backoff, not one per attempt: {took:?}"
            );
        }
    }
}
