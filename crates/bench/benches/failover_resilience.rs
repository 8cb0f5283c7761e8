//! Failover resilience: what the `SagaPool` layer costs when nothing is
//! failing, and what a client perceives when something is.
//!
//! Three measurements over a three-server trio fronting one log:
//!
//! * **steady-state overhead** — ping round trips through a
//!   single-endpoint `SagaPool` vs the same pings on a bare
//!   `SagaClient`. Ping is the strictest possible base (the smallest
//!   request the protocol has), so the pool's per-request bookkeeping
//!   (endpoint pick, breaker accounting, deadline clock) shows up at
//!   its worst. Acceptance bar: ≤ 5% overhead. The three-endpoint
//!   query throughput is also recorded for context.
//! * **failover blip** — kill one of the three servers mid-workload
//!   (scoped read-loop failpoint: every accepted frame drops the
//!   connection, exactly what a died-mid-request process looks like to
//!   a client) and run 600 queries through the pool. Recorded: the
//!   worst single-request latency (the blip), how long until the
//!   breaker quarantines the dead endpoint, how long until a healed
//!   endpoint is readmitted, and the client-visible error count —
//!   which must be zero.
//! * **disarmed failpoint overhead** — the registry's fast path is one
//!   relaxed atomic load; this measures it directly (ns/check) against
//!   the cost of the oplog append it guards (µs/append). Acceptance
//!   bar: ≤ 1% of the append hot path.
//!
//! Run with `cargo bench -p saga-bench --bench failover_resilience`;
//! stdout is the JSON body recorded in `BENCH_resilience.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_bench::{ambiguous_world, percentile};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{EntityId, KnowledgeGraph, SourceId, WriteBatch, WriteOp};
use saga_fleet::{FleetConfig, FleetRouter, ReplicaPool};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_net::{
    BreakerConfig, BreakerState, ClientConfig, PoolConfig, RetryPolicy, SagaClient, SagaPool,
    SagaServer, ServerConfig,
};

/// Pings per measured round in the steady-state comparison.
const OPS: usize = 500;
/// Rounds per mode; best round recorded (the container shares one
/// hardware thread across client, servers and poll workers — best-of
/// shaves scheduler noise equally from both sides of the comparison).
const ROUNDS: usize = 7;
/// Queries pushed through the pool while one server is dead.
const BLIP_OPS: usize = 600;
/// Iterations for the disarmed failpoint-check microbench.
const CHECK_ITERS: u64 = 2_000_000;

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
}

impl Drop for Trio {
    fn drop(&mut self) {
        fail::clear_all();
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

fn preload(writer: &LoggedWriter, corpus: &KnowledgeGraph) {
    let mut records: Vec<&saga_core::EntityRecord> = corpus.entities().collect();
    records.sort_unstable_by_key(|r| r.id);
    for chunk in records.chunks(200) {
        let mut batch = WriteBatch::new();
        for record in chunk {
            for t in &record.triples {
                batch.push(WriteOp::Upsert(t.clone()));
            }
        }
        writer.commit(OpKind::Upsert, batch).unwrap();
    }
}

fn boot_trio(corpus: &KnowledgeGraph) -> Trio {
    let writer = Arc::new(LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    ));
    preload(&writer, corpus);
    let mut servers = Vec::new();
    let mut fleets = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..3 {
        let dir = std::env::temp_dir().join(format!("saga-resil-bench-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FleetConfig {
            replicas: 2,
            poll_interval: Duration::from_millis(10),
            session_timeout: Duration::from_millis(500),
            ..FleetConfig::default()
        };
        let fleet = ReplicaPool::start(cfg, Arc::clone(writer.log()), &dir).unwrap();
        let router = Arc::new(FleetRouter::new(Arc::clone(&fleet)));
        router
            .wait_for_lsn(writer.log().head(), Duration::from_secs(30))
            .unwrap();
        let server = SagaServer::start(
            router,
            Arc::clone(&writer),
            ServerConfig {
                fail_scope: format!("srv{i}"),
                ..ServerConfig::default()
            },
        )
        .unwrap();
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

fn bench_pool(addrs: Vec<String>) -> SagaPool {
    SagaPool::new(
        addrs,
        PoolConfig {
            retry: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                jitter: 0.5,
                deadline: Duration::from_secs(10),
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(250),
            },
            client: ClientConfig {
                connect_timeout: Duration::from_millis(500),
                read_timeout: Duration::from_millis(1_000),
                write_timeout: Duration::from_millis(500),
            },
            seed: 0xBE9C11,
            fence_commits: true,
        },
    )
}

/// Best-of-rounds throughput through `tick`, one call per op.
fn best_qps(mut tick: impl FnMut()) -> f64 {
    let mut best = 0f64;
    for _ in 0..ROUNDS {
        best = best.max(round_qps(&mut tick));
    }
    best
}

fn round_qps(tick: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..OPS {
        tick();
    }
    OPS as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-rounds for two contenders with *interleaved* rounds, so
/// machine-load drift over the measurement window (one shared hardware
/// thread, background poll workers) hits both sides equally instead of
/// whichever happened to run second.
fn paired_qps(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (0f64, 0f64);
    for _ in 0..ROUNDS {
        best_a = best_a.max(round_qps(&mut a));
        best_b = best_b.max(round_qps(&mut b));
    }
    (best_a, best_b)
}

struct BlipResult {
    max_latency_us: u128,
    p50_us: u128,
    p99_us: u128,
    quarantine_ms: f64,
    readmit_ms: f64,
    client_errors: u64,
}

/// Kill server 1 with a scoped read-loop failpoint, run the query
/// workload, then heal it and time readmission.
fn failover_blip(pool: &mut SagaPool, query: &str) -> BlipResult {
    fail::configure_scoped(sites::NET_SERVER_READ, "srv1", FailAction::error());
    let mut lat_us = Vec::with_capacity(BLIP_OPS);
    let mut client_errors = 0u64;
    let mut quarantine_ms = f64::NAN;
    let killed_at = Instant::now();
    for _ in 0..BLIP_OPS {
        let q0 = Instant::now();
        match pool.query(query) {
            Ok(result) => assert!(!result.entities().is_empty()),
            Err(_) => client_errors += 1,
        }
        lat_us.push(q0.elapsed().as_micros());
        if quarantine_ms.is_nan() && pool.endpoint_stats()[1].state != BreakerState::Closed {
            quarantine_ms = killed_at.elapsed().as_secs_f64() * 1e3;
        }
    }
    // Heal the server and measure how long the breaker takes to readmit
    // it (cooldown expiry + one successful half-open probe).
    fail::clear(sites::NET_SERVER_READ);
    let healed_at = Instant::now();
    let readmit_deadline = healed_at + Duration::from_secs(10);
    while pool.endpoint_stats()[1].state != BreakerState::Closed {
        pool.ping().expect("ping while waiting for readmission");
        assert!(
            Instant::now() < readmit_deadline,
            "endpoint never readmitted"
        );
    }
    BlipResult {
        max_latency_us: lat_us.iter().copied().max().unwrap(),
        p50_us: percentile(&mut lat_us, 50.0),
        p99_us: percentile(&mut lat_us, 99.0),
        quarantine_ms,
        readmit_ms: healed_at.elapsed().as_secs_f64() * 1e3,
        client_errors,
    }
}

/// The disarmed fast path of a failpoint check, in ns per call.
fn disarmed_check_ns() -> f64 {
    fail::clear_all();
    let mut ok = 0u64;
    let t0 = Instant::now();
    for _ in 0..CHECK_ITERS {
        if fail::check(sites::OPLOG_APPEND_WRITE).is_ok() {
            ok += 1;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / CHECK_ITERS as f64;
    assert_eq!(ok, CHECK_ITERS);
    ns
}

/// The oplog append hot path the check guards, in µs per append.
fn append_us() -> f64 {
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    const APPENDS: u64 = 3_000;
    let t0 = Instant::now();
    for i in 0..APPENDS {
        writer
            .commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(10_000 + i),
                    &format!("Bench Song {i}"),
                    "song",
                    SourceId(7),
                    0.9,
                ),
            )
            .unwrap();
    }
    t0.elapsed().as_micros() as f64 / APPENDS as f64
}

fn main() {
    let world = ambiguous_world(42, 120);
    let corpus = world.kg;
    let query = "FIND city WHERE description = \"Major city in Germany known worldwide\" LIMIT 50";

    let trio = boot_trio(&corpus);
    let addrs = trio.addrs();

    // -- steady state: bare client vs single-endpoint pool ------------
    let mut bare = SagaClient::connect(addrs[0].clone()).unwrap();
    let mut pool1 = bench_pool(vec![addrs[0].clone()]);
    for _ in 0..64 {
        bare.ping().unwrap();
        pool1.ping().unwrap();
    }
    let (bare_qps, pool_qps) = paired_qps(|| bare.ping().unwrap(), || pool1.ping().unwrap());
    let overhead_pct = (bare_qps / pool_qps - 1.0) * 100.0;

    // Three-endpoint query throughput, for context.
    let mut pool3 = bench_pool(addrs.clone());
    for _ in 0..16 {
        pool3.query(query).unwrap();
    }
    let pool3_query_qps = best_qps(|| {
        pool3.query(query).unwrap();
    });

    // -- failover blip -------------------------------------------------
    let blip = failover_blip(&mut pool3, query);

    // -- disarmed failpoint overhead on the append hot path ------------
    let check_ns = disarmed_check_ns();
    let append = append_us();
    let failpoint_pct = check_ns / (append * 1e3) * 100.0;

    let log_head = trio.writer.log().head().0;
    drop(pool1);
    drop(pool3);
    drop(bare);
    drop(trio);

    eprintln!(
        "failover_resilience: bare {bare_qps:.0} qps vs pool {pool_qps:.0} qps \
         ({overhead_pct:+.2}% overhead); 3-endpoint query {pool3_query_qps:.0} qps"
    );
    eprintln!(
        "failover_resilience: blip max {} us (p50 {} / p99 {} us), quarantine {:.1} ms, \
         readmit {:.1} ms, client errors {}",
        blip.max_latency_us,
        blip.p50_us,
        blip.p99_us,
        blip.quarantine_ms,
        blip.readmit_ms,
        blip.client_errors
    );
    eprintln!(
        "failover_resilience: disarmed check {check_ns:.1} ns vs append {append:.1} us \
         = {failpoint_pct:.3}% of the hot path"
    );

    assert!(
        overhead_pct <= 5.0,
        "acceptance bar: pool steady-state overhead must be <= 5%, got {overhead_pct:.2}%"
    );
    assert_eq!(
        blip.client_errors, 0,
        "acceptance bar: killing one of three servers must be invisible to clients"
    );
    assert!(
        failpoint_pct <= 1.0,
        "acceptance bar: disarmed failpoint check must cost <= 1% of an append, \
         got {failpoint_pct:.3}%"
    );

    println!("{{");
    println!(
        "  \"workload\": {{ \"generator\": \"ambiguous_world(42, 120)\", \"corpus_entities\": {}, \"corpus_facts\": {}, \"pings_per_round\": {}, \"rounds\": {}, \"blip_queries\": {}, \"log_head\": {} }},",
        corpus.entity_count(),
        corpus.fact_count(),
        OPS,
        ROUNDS,
        BLIP_OPS,
        log_head
    );
    println!("  \"steady_state\": {{");
    println!("    \"bare_client_ping_qps\": {bare_qps:.0},");
    println!("    \"pool_ping_qps\": {pool_qps:.0},");
    println!("    \"pool_overhead_pct\": {overhead_pct:.2},");
    println!("    \"three_endpoint_query_qps\": {pool3_query_qps:.0}");
    println!("  }},");
    println!("  \"failover_blip\": {{");
    println!(
        "    \"killed\": \"1 of 3 servers (scoped NET_SERVER_READ failpoint: every read drops the connection)\","
    );
    println!("    \"max_latency_us\": {},", blip.max_latency_us);
    println!("    \"p50_us\": {},", blip.p50_us);
    println!("    \"p99_us\": {},", blip.p99_us);
    println!("    \"quarantine_ms\": {:.1},", blip.quarantine_ms);
    println!("    \"readmit_ms\": {:.1},", blip.readmit_ms);
    println!("    \"client_visible_errors\": {}", blip.client_errors);
    println!("  }},");
    println!("  \"failpoint_overhead\": {{");
    println!("    \"disarmed_check_ns\": {check_ns:.1},");
    println!("    \"oplog_append_us\": {append:.1},");
    println!("    \"pct_of_append_hot_path\": {failpoint_pct:.3}");
    println!("  }}");
    println!("}}");
}
