//! Fault injection against a live [`SagaServer`]: torn frames, oversized
//! length prefixes, garbage magic and opcodes, pipelined interleaving,
//! pipelined commit order, a blocking connection going solo and back to a
//! team, reconnect-with-session, saturation, a client that stops
//! reading, the connection cap, and shutdown. The invariant under test is always
//! the same: a hostile or unlucky connection hurts only itself — the
//! acceptor and every other connection's team keep serving.
//!
//! Slow requests and wedged replicas are injected through the
//! `saga_core::fail` registry, armed for one drill's server or fleet
//! through its `fail_scope`. The registry is process-global, so every
//! test that boots a [`Harness`] holds one gate while it lives: nothing
//! a drill arms reaches another test, and [`fail::hits`] counts the
//! drill's own traffic only — which makes it a barrier.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard, RwLock};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SagaError, SourceId, SubjectRef,
    Value, WriteBatch,
};
use saga_fleet::{FleetConfig, FleetRouter, ReplicaPool};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_net::protocol::{self, opcode, read_frame, MAX_PAYLOAD};
use saga_net::{
    ClientConfig, ErrorKind, PoolConfig, Request, Response, RetryPolicy, SagaClient, SagaPool,
    SagaServer, ServerConfig, WireBatch,
};

/// Serializes the tests that boot a [`Harness`]; see the module docs.
static DRILL_GATE: Mutex<()> = Mutex::new(());

struct Harness {
    server: SagaServer,
    writer: Arc<LoggedWriter>,
    pool: Arc<ReplicaPool>,
    dir: std::path::PathBuf,
    /// Declared last: released after `drop` has shut everything down.
    _gate: MutexGuard<'static, ()>,
}

impl Harness {
    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    fn client(&self) -> SagaClient {
        SagaClient::connect(self.addr()).expect("connect")
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // First, so a team thread a failed drill left wedged is released
        // before shutdown joins it.
        fail::clear_all();
        self.server.shutdown();
        self.pool.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Boot a two-replica fleet behind one server. `tag` names the scratch
/// directory and is the `fail_scope` of both, so a drill arms its own
/// harness and no other test's; `tune` adjusts either config before
/// anything starts.
fn boot(tag: &str, tune: impl FnOnce(&mut FleetConfig, &mut ServerConfig)) -> Harness {
    let gate = DRILL_GATE.lock();
    fail::clear_all();
    let dir = std::env::temp_dir().join(format!("saga-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    let mut fleet_cfg = FleetConfig {
        replicas: 2,
        poll_interval: Duration::from_micros(200),
        session_timeout: Duration::from_secs(5),
        fail_scope: tag.to_string(),
        ..FleetConfig::default()
    };
    let mut cfg = ServerConfig {
        fail_scope: tag.to_string(),
        ..ServerConfig::default()
    };
    tune(&mut fleet_cfg, &mut cfg);
    let pool = ReplicaPool::start(fleet_cfg, Arc::clone(writer.log()), &dir).expect("start fleet");
    let router = Arc::new(FleetRouter::new(Arc::clone(&pool)));
    let server = SagaServer::start(router, Arc::clone(&writer), cfg).expect("start server");
    Harness {
        server,
        writer,
        pool,
        dir,
        _gate: gate,
    }
}

/// Poll until `done` holds; five seconds without it fails the test.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "no {what} in 5 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A healthy request on a fresh connection — the canary proving the
/// server survived whatever the test just did to it.
fn assert_serving(h: &Harness) {
    let mut client = h.client();
    client.ping().expect("server no longer serving");
    let hits = client.resolve_name("seed song").expect("resolve over wire");
    assert_eq!(hits, vec![EntityId(1)]);
}

#[test]
fn torn_mid_frame_disconnect_kills_only_that_connection() {
    let h = boot("torn", |_, _| {});
    // A long-lived healthy connection that must outlive the abuse.
    let mut bystander = h.client();
    bystander.ping().expect("bystander ping");

    for cut in [3usize, 10, protocol::HEADER_LEN + 2] {
        let bytes = Request::ResolveName("seed song".into()).encode(7);
        let mut raw = TcpStream::connect(h.addr()).expect("connect raw");
        raw.write_all(&bytes[..cut]).expect("write partial frame");
        drop(raw); // disconnect mid-frame
    }

    // The torn connections are gone; everyone else is unaffected.
    bystander.ping().expect("bystander survived torn peers");
    assert_serving(&h);
    // Each reject is counted by the torn connection's own team thread
    // when it observes the close; give the last of them a moment.
    wait_for("frame reject per torn frame", || {
        h.server.stats().frame_rejects >= 3
    });
}

#[test]
fn oversized_length_prefix_is_rejected_then_disconnected() {
    let h = boot("oversized", |_, _| {});
    let mut raw = TcpStream::connect(h.addr()).expect("connect raw");

    // A valid header whose length field is rewritten to declare a payload
    // past MAX_PAYLOAD.
    let mut frame = protocol::encode_frame(99, opcode::PING, &[]);
    frame[protocol::HEADER_LEN - 4..protocol::HEADER_LEN]
        .copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    raw.write_all(&frame).expect("write oversized header");

    // The server answers the offending request id with a typed error...
    let reply = read_frame(&mut raw)
        .expect("read reject")
        .expect("reject frame");
    assert_eq!(reply.request_id, 99);
    match protocol::decode_response(&reply).expect("decode reject") {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(message.contains("oversized"), "{message}");
        }
        other => panic!("expected BadRequest error, got {other:?}"),
    }
    // ...then closes the connection (the stream cannot be resynced).
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("read to close");
    assert!(
        rest.is_empty(),
        "no further frames after an oversized reject"
    );

    assert_serving(&h);
}

#[test]
fn garbage_magic_closes_the_connection_silently() {
    let h = boot("magic", |_, _| {});
    let mut raw = TcpStream::connect(h.addr()).expect("connect raw");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "no response frames to a non-saga client");
    assert_serving(&h);
}

#[test]
fn garbage_opcode_errors_but_keeps_the_connection() {
    let h = boot("opcode", |_, _| {});
    let mut raw = TcpStream::connect(h.addr()).expect("connect raw");

    // Unknown opcode in a perfectly framed message: payload-level error.
    raw.write_all(&protocol::encode_frame(5, 0x6F, b"{}"))
        .expect("write garbage opcode");
    let reply = read_frame(&mut raw)
        .expect("read error")
        .expect("error frame");
    assert_eq!(reply.request_id, 5);
    assert!(matches!(
        protocol::decode_response(&reply).expect("decode"),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        }
    ));

    // Same connection, next request: still served.
    raw.write_all(&Request::Ping.encode(6))
        .expect("write ping after garbage");
    let reply = read_frame(&mut raw)
        .expect("read pong")
        .expect("pong frame");
    assert_eq!(reply.request_id, 6);
    assert!(matches!(
        protocol::decode_response(&reply).expect("decode"),
        Response::Pong
    ));
}

/// Payload garbage in well-formed frames — valid bodies cut at every
/// offset, unknown tags, counts no body could honour — is answered
/// `BadRequest` on its own id, and the connection serves the next ping.
#[test]
fn garbage_payloads_answer_bad_request_and_keep_the_connection() {
    let h = boot("garbage", |_, _| {});
    let mut raw = TcpStream::connect(h.addr()).expect("connect raw");

    let mut garbage: Vec<(u8, Vec<u8>)> = Vec::new();
    let valid = [
        Request::Query {
            text: "FIND song WHERE name = \"Seed Song\"".into(),
            session: Some(saga_core::SessionToken::at(saga_core::Lsn(1))),
        },
        Request::Commit(WireBatch::new().named_entity(
            EntityId(70),
            "Never Committed",
            "song",
            SourceId(2),
            0.9,
        )),
        Request::Record(EntityId(u64::MAX)),
    ];
    for request in &valid {
        let frame = request.encode(0);
        let body = &frame[protocol::HEADER_LEN..];
        for cut in 0..body.len() {
            garbage.push((request.opcode(), body[..cut].to_vec()));
        }
        garbage.push((request.opcode(), [body, &[0]].concat())); // trailing byte
    }
    // 2⁶⁴−1 as a varint: an op count, an op tag's worth of nonsense, a
    // provenance count.
    let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    garbage.push((opcode::COMMIT, max.to_vec()));
    garbage.push((opcode::COMMIT, vec![1, 0x7f]));
    garbage.push((
        opcode::COMMIT,
        [&[1, 0, 0, 5, 1, b'p', 0, 0][..], &max].concat(),
    ));
    // Retired opcodes, each with a body it once carried.
    garbage.push((0x04, vec![0, 4, b's', b'e', b'e', b'd']));
    garbage.push((0x05, vec![3, 4, b's', b'o', b'n', b'g']));
    garbage.push((0x06, vec![0, 4, b's', b'e', b'e', b'd', 1]));
    garbage.push((opcode::QUERY, b"{\"q\":\"FIND song\"}".to_vec()));

    for (id, (op, payload)) in garbage.iter().enumerate() {
        let id = id as u64 + 100;
        raw.write_all(&protocol::encode_frame(id, *op, payload))
            .expect("write garbage");
        let reply = read_frame(&mut raw)
            .expect("read reply")
            .expect("reply frame");
        assert_eq!(reply.request_id, id);
        match protocol::decode_response(&reply).expect("decode reply") {
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            } => {}
            other => panic!("{op:#04x} {payload:02x?}: expected BadRequest, got {other:?}"),
        }
    }

    raw.write_all(&Request::Ping.encode(7))
        .expect("write ping after garbage");
    let reply = read_frame(&mut raw)
        .expect("read pong")
        .expect("pong frame");
    assert_eq!(reply.request_id, 7);
    assert!(matches!(
        protocol::decode_response(&reply).expect("decode"),
        Response::Pong
    ));
    // Nothing above committed: the cut commit bodies never decoded.
    let mut client = h.client();
    assert!(client.record(EntityId(70)).expect("record").is_none());
    wait_for("release of every admission slot", || {
        h.server.inflight() == 0
    });
}

/// A commit holding an upsert about a source reference (not a KG entity)
/// is refused whole with `BadRequest` before anything is staged or
/// logged. Staged, it would panic the connection's team thread and leak
/// the request's admission slot and the connection's registry entry.
#[test]
fn unlinked_upsert_commit_answers_bad_request_and_keeps_the_connection() {
    let h = boot("unlinked", |_, _| {});
    let head = h.writer.log().head();
    // A short read timeout: a dead team fails the drill in seconds.
    let mut client = SagaClient::connect_with(
        h.addr(),
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let unlinked = ExtendedTriple::simple(
        SubjectRef::source(SourceId(3), "local-7"),
        intern("name"),
        Value::str("Unlinked Song"),
        FactMeta::from_source(SourceId(3), 0.9),
    );
    let batch = WireBatch::new()
        .named_entity(EntityId(80), "Linked Song", "song", SourceId(3), 0.9)
        .upsert(unlinked);
    match client
        .call(&Request::Commit(batch))
        .expect("an answer on the same connection")
    {
        Response::Error {
            kind: ErrorKind::BadRequest,
            message,
        } => assert!(message.contains("KG entity"), "{message}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    client
        .ping()
        .expect("the connection serves its next request");

    assert_eq!(h.writer.log().head(), head, "nothing was logged");
    assert!(
        client.record(EntityId(80)).expect("record").is_none(),
        "the batch's linked upserts were refused with it"
    );
    wait_for("release of every admission slot", || {
        h.server.inflight() == 0
    });
    drop(client);
    wait_for("drained connection registry", || {
        h.server.open_connections() == 0
    });
    assert_serving(&h);
}

#[test]
fn pipelined_responses_interleave_across_request_ids() {
    let h = boot("pipeline", |_, cfg| cfg.workers = 4);
    let mut client = h.client();
    // Send a ping whose team thread parks for `ms`; returns once it is
    // parked. The next request arrives after that read, so another team
    // thread reads and runs it.
    let send_slow = |client: &mut SagaClient, ms: u64| {
        let seen = fail::hits(sites::NET_SERVER_EXECUTE);
        fail::configure_scoped(
            sites::NET_SERVER_EXECUTE,
            "pipeline",
            FailAction::delay(Duration::from_millis(ms)).times(1),
        );
        let id = client.send(&Request::Ping).expect("send slow");
        wait_for("parked slow ping", || {
            fail::hits(sites::NET_SERVER_EXECUTE) > seen
        });
        id
    };

    // Slow request first, fast request second: the fast response must
    // overtake the slow one on the same connection.
    let slow = send_slow(&mut client, 300);
    let fast = client
        .send(&Request::ResolveName("seed song".into()))
        .expect("send fast");
    let (first_id, first) = client.recv_any().expect("first response");
    assert_eq!(
        first_id, fast,
        "fast pipelined response should overtake the slow one"
    );
    assert!(matches!(first, Response::Entities(ids) if ids == vec![EntityId(1)]));

    // The slow response is still delivered, addressed by its own id.
    let slow_reply = client.recv_by_id(slow).expect("slow response");
    assert!(matches!(slow_reply, Response::Pong));

    // recv_by_id parks out-of-order arrivals instead of dropping them.
    let a = send_slow(&mut client, 150);
    let b = client.send(&Request::Generation).expect("send b");
    let a_reply = client.recv_by_id(a).expect("a");
    assert!(matches!(a_reply, Response::Pong));
    let b_reply = client.recv_by_id(b).expect("b parked and recovered");
    assert!(matches!(b_reply, Response::Count(_)));
}

#[test]
fn pipelined_commits_apply_in_send_order() {
    let h = boot("commit-order", |_, cfg| cfg.workers = 4);
    let mut client = h.client();
    // A burst of commits in flight at once on one connection: a batch ends
    // at its first commit and runs before the socket is handed on, so the
    // log takes them in send order however many threads the team has.
    let ids: Vec<u64> = (0..64u64)
        .map(|k| {
            let batch = WireBatch::new().named_entity(
                EntityId(100 + k),
                &format!("Order Song {k}"),
                "song",
                SourceId(2),
                0.9,
            );
            client
                .send_buffered(&Request::Commit(batch))
                .expect("send commit")
        })
        .collect();
    client.flush().expect("flush burst");
    let lsns: Vec<u64> = ids
        .into_iter()
        .map(|id| match client.recv_by_id(id).expect("commit response") {
            Response::Committed(committed) => committed.lsn.0,
            other => panic!("unexpected commit response {other:?}"),
        })
        .collect();
    assert!(
        lsns.windows(2).all(|pair| pair[1] == pair[0] + 1),
        "commits applied out of send order: {lsns:?}"
    );
}

/// More lone requests than the server's warm-up (16 admissions): enough
/// for a connection that never pipelined to go solo.
const PAST_WARM_UP: usize = 32;

/// Send a ping whose server thread parks for `ms` on `scope`'s execute
/// failpoint; returns its id once it is parked.
fn send_parked(client: &mut SagaClient, scope: &str, ms: u64) -> u64 {
    let seen = fail::hits(sites::NET_SERVER_EXECUTE);
    fail::configure_scoped(
        sites::NET_SERVER_EXECUTE,
        scope,
        FailAction::delay(Duration::from_millis(ms)).times(1),
    );
    let id = client.send(&Request::Ping).expect("send parked ping");
    wait_for("parked ping", || {
        fail::hits(sites::NET_SERVER_EXECUTE) > seen
    });
    id
}

/// A connection that has only ever had one request in flight goes solo
/// after the warm-up: its reader keeps the read half while it executes,
/// so a request sent behind a parked one is answered after it. Two frames
/// in one read mark the connection pipelined for good, and a request sent
/// behind a parked one overtakes it again.
#[test]
fn a_connection_that_never_pipelined_runs_in_order_until_it_does() {
    let h = boot("solo", |_, _| {});
    let mut client = h.client();
    for _ in 0..PAST_WARM_UP {
        client.ping().expect("lone ping");
    }
    let parked = send_parked(&mut client, "solo", 150);
    let behind = client.send(&Request::Generation).expect("send behind");
    let (first_id, first) = client.recv_any().expect("first response");
    assert_eq!(
        first_id, parked,
        "a solo connection answers in send order, got {first:?} first"
    );
    assert!(matches!(first, Response::Pong));
    assert!(matches!(
        client.recv_by_id(behind).expect("behind"),
        Response::Count(_)
    ));

    // A two-frame burst in one write: both frames arrive in one read.
    let burst: Vec<u64> = (0..2)
        .map(|_| client.send_buffered(&Request::Ping).expect("send burst"))
        .collect();
    client.flush().expect("flush burst");
    for id in burst {
        assert!(matches!(
            client.recv_by_id(id).expect("burst"),
            Response::Pong
        ));
    }

    let parked = send_parked(&mut client, "solo", 300);
    let fast = client
        .send(&Request::ResolveName("seed song".into()))
        .expect("send fast");
    let (first_id, first) = client.recv_any().expect("first response");
    assert_eq!(
        first_id, fast,
        "a pipelined connection is a team again, got {first:?} first"
    );
    assert!(matches!(first, Response::Entities(ids) if ids == vec![EntityId(1)]));
    assert!(matches!(
        client.recv_by_id(parked).expect("parked"),
        Response::Pong
    ));
}

#[test]
fn client_reconnect_keeps_read_your_writes() {
    let h = boot("reconnect", |_, _| {});
    let mut client = h.client();

    let committed = client
        .commit(WireBatch::new().named_entity(
            EntityId(50),
            "Reconnect Song",
            "song",
            SourceId(2),
            0.9,
        ))
        .expect("commit over wire");
    assert!(committed.lsn.0 > 0);
    assert_eq!(client.session().lsn(), committed.lsn);

    // Drop the TCP connection entirely; the session token survives.
    client.reconnect().expect("reconnect");
    assert_eq!(client.session().lsn(), committed.lsn);
    let hits = client
        .query_with_session("FIND song WHERE name = \"Reconnect Song\"")
        .expect("session query after reconnect");
    assert_eq!(hits.entities(), vec![EntityId(50)]);
}

#[test]
fn saturation_sheds_with_typed_overloaded_and_recovers() {
    // A deliberately tiny server: one thread per connection, three
    // admitted requests total — one executing, two waiting in its batch.
    let h = boot("saturate", |_, cfg| {
        cfg.workers = 1;
        cfg.max_inflight = 3;
    });
    let mut client = h.client();

    // Flood with slow pings far past capacity, all pipelined: every
    // request the team thread executes parks it for 40 ms.
    fail::configure_scoped(
        sites::NET_SERVER_EXECUTE,
        "saturate",
        FailAction::delay(Duration::from_millis(40)),
    );
    let ids: Vec<u64> = (0..24)
        .map(|_| client.send_buffered(&Request::Ping).expect("send ping"))
        .collect();
    client.flush().expect("flush flood");

    let mut pongs = 0u32;
    let mut shed = 0u32;
    for id in ids {
        match client.recv_by_id(id).expect("flood response") {
            Response::Pong => pongs += 1,
            Response::Overloaded {
                message,
                backoff_hint_ms,
            } => {
                shed += 1;
                assert!(message.contains("in-flight"), "{message}");
                assert!(backoff_hint_ms > 0, "sheds carry the server's hint");
            }
            other => panic!("unexpected flood response {other:?}"),
        }
    }
    assert!(shed > 0, "saturation must shed with typed Overloaded");
    assert!(pongs > 0, "admitted requests still complete");
    assert_eq!(h.server.stats().requests_shed, u64::from(shed));

    // Overload is transient: once drained, the same connection serves.
    client.ping().expect("ping after drain");
    assert_serving(&h);
    // A batch is answered *before* its admission slots are released, so the
    // client can observe the last response a beat ahead of the release;
    // wait out that window instead of racing it.
    wait_for("release of every admission slot", || {
        h.server.inflight() == 0
    });
}

/// A bare client's shed ping keeps its type, as every other helper's
/// does: `Overloaded` with the server's hint, retryable.
#[test]
fn a_shed_ping_is_typed_overloaded_with_the_hint() {
    let h = boot("shed_ping", |_, cfg| cfg.max_inflight = 0);
    let err = h.client().ping().expect_err("an empty gate admits nothing");
    assert!(
        matches!(
            err,
            SagaError::Overloaded {
                backoff_hint_ms: 25,
                ..
            }
        ),
        "a shed ping is typed Overloaded with the default hint, got: {err}"
    );
    assert!(err.is_retryable(), "{err}");
}

/// A commit fence answered with anything but `Pong` fails its endpoint
/// retryably and the commit frame never goes out: against a server that
/// sheds everything, each attempt spends one fence and nothing else.
#[test]
fn a_shed_fence_spends_the_attempt_and_never_sends_the_commit() {
    let h = boot("shed_fence", |_, cfg| cfg.max_inflight = 0);
    let head = h.writer.log().head();
    let mut pool = SagaPool::new(
        [h.addr()],
        PoolConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            fence_commits: true,
            ..PoolConfig::default()
        },
    );
    let err = pool
        .commit(WireBatch::new().named_entity(EntityId(9), "Fenced Song", "song", SourceId(2), 0.9))
        .expect_err("every fence is shed");
    assert!(
        matches!(
            err,
            SagaError::Overloaded {
                backoff_hint_ms: 25,
                ..
            }
        ),
        "the last shed surfaces typed with its hint, got: {err}"
    );
    let stats = pool.endpoint_stats()[0].clone();
    assert_eq!(stats.requests, 3, "only the fences were sent: {stats:?}");
    assert_eq!(stats.responses, 3, "{stats:?}");
    assert_eq!(h.server.stats().requests_shed, 3);
    assert_eq!(h.writer.log().head(), head, "no commit reached the log");
}

/// A client that pipelines large reads and never reads a response parks
/// only its own connection's team, on its own socket: a bystander on
/// another connection is still answered. (A write timeout that would free
/// the stalled team is not part of this drill.)
#[test]
fn a_client_that_stops_reading_stalls_only_itself() {
    let h = boot("stall", |_, cfg| {
        cfg.workers = 2;
        cfg.max_inflight = 1 << 16;
    });
    // One entity whose `Record` response is about 27 KB.
    let aliases = (0..400).fold(WriteBatch::new(), |batch, i| {
        batch.upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("alias"),
            Value::str(format!(
                "Seed Song, also released worldwide under alias number {i:03}"
            )),
            FactMeta::from_source(SourceId(1), 0.9),
        ))
    });
    h.writer
        .commit(OpKind::Upsert, aliases)
        .expect("seed aliases");
    let mut client = h.client();
    wait_for("replicated aliases", || {
        client
            .record(EntityId(1))
            .expect("record")
            .is_some_and(|record| record.triples.len() > 400)
    });
    let record = client.record(EntityId(1)).expect("record");
    let bytes = Response::Record(record).encode(0).len();
    assert!(bytes > 25_000, "{bytes}");

    // 4000 pipelined `Record` requests on a socket that never reads. The
    // burst is written from its own thread: once the server stops reading
    // it may not fit in the socket buffers.
    let stalled = TcpStream::connect(h.addr()).expect("connect stalled");
    let burst: Vec<u8> = (0..4000u64)
        .flat_map(|id| Request::Record(EntityId(1)).encode(id))
        .collect();
    let mut sender = stalled.try_clone().expect("clone stalled");
    let sender = std::thread::spawn(move || {
        let _ = sender.write_all(&burst);
    });
    // Parked: slots are held and none has been released for 100 ms.
    let mut held = 0;
    wait_for("parked stalled connection", || {
        let before = h.server.inflight();
        std::thread::sleep(Duration::from_millis(100));
        held = h.server.inflight();
        before > 0 && before == held
    });

    let mut bystander = SagaClient::connect_with(
        h.addr(),
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    )
    .expect("connect bystander");
    bystander
        .ping()
        .unwrap_or_else(|err| panic!("bystander starved, {held} slots held: {err}"));

    let _ = stalled.shutdown(std::net::Shutdown::Both);
    drop(h);
    sender.join().expect("burst sender");
}

/// `shutdown` joins every connection's team, not only the acceptor: a
/// commit parked mid-execution when it is called has landed or never will
/// by the time it returns. A solo connection's team, its reader blocked
/// in `read()` and its follower parked behind it, is joined too.
#[test]
fn no_server_thread_commits_after_shutdown_returns() {
    let mut h = boot("shutdown", |_, _| {});
    let mut solo = h.client();
    for _ in 0..PAST_WARM_UP {
        solo.ping().expect("lone ping");
    }
    let mut client = h.client();
    let seen = fail::hits(sites::NET_SERVER_EXECUTE);
    fail::configure_scoped(
        sites::NET_SERVER_EXECUTE,
        "shutdown",
        FailAction::delay(Duration::from_millis(300)).times(1),
    );
    client
        .send(&Request::Commit(WireBatch::new().named_entity(
            EntityId(90),
            "Late Song",
            "song",
            SourceId(2),
            0.9,
        )))
        .expect("send commit");
    wait_for("parked commit", || {
        fail::hits(sites::NET_SERVER_EXECUTE) > seen
    });

    h.server.shutdown();
    let head = h.writer.log().head();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        h.writer.log().head(),
        head,
        "a server thread committed after shutdown returned"
    );
}

#[test]
fn closed_connections_are_deregistered_not_leaked() {
    let h = boot("churn", |_, _| {});
    // Churn: connect, serve past the warm-up (the connection goes solo),
    // disconnect — repeatedly. Every closed connection must leave the
    // server's registry (it holds a duplicated fd), or a reconnect loop
    // exhausts the fd limit: a solo reader's exit must release the
    // follower parked behind it.
    for _ in 0..20 {
        let mut client = h.client();
        for _ in 0..PAST_WARM_UP {
            client.ping().expect("ping on churn connection");
        }
    }
    // Deregistration runs in each connection thread's epilogue; give the
    // last of them a moment to observe the close.
    wait_for("drained connection registry", || {
        h.server.open_connections() == 0
    });
    assert!(h.server.stats().connections_accepted >= 20);
    assert_serving(&h);
}

#[test]
fn the_connection_cap_closes_the_excess_and_a_closed_connection_frees_its_slot() {
    let h = boot("conn-cap", |_, cfg| cfg.max_connections = 1);
    let mut first = h.client();
    first.ping().expect("the first connection is served");

    // Past the cap: accepted by the kernel, then closed by the server
    // before anything is read — never answered.
    let mut excess = TcpStream::connect(h.addr()).expect("connect past the cap");
    excess
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let _ = excess.write_all(&Request::Ping.encode(5));
    let mut rest = Vec::new();
    match excess.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "a connection past the cap was answered"),
        // The ping may arrive before the close, which then resets.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    first.ping().expect("the first connection is still served");
    assert_eq!(h.server.stats().connections_accepted, 1);

    // Closing the first connection gives its slot back.
    drop(first);
    wait_for("drained connection registry", || {
        h.server.open_connections() == 0
    });
    assert_serving(&h);
    assert_eq!(h.server.stats().connections_accepted, 2);
}

#[test]
fn a_legacy_ping_payload_is_ignored_and_answered_at_once() {
    let h = boot("legacy-ping", |_, _| {});
    // What an old client sent to ask the server to sleep ten seconds.
    let frame = protocol::encode_frame(11, opcode::PING, br#"{"delay_ms":10000}"#);
    let decoded = read_frame(&mut frame.as_slice())
        .expect("read legacy frame")
        .expect("legacy frame");
    assert_eq!(
        protocol::decode_request(&decoded).expect("decode legacy ping"),
        Request::Ping
    );

    let mut raw = TcpStream::connect(h.addr()).expect("connect raw");
    let t0 = std::time::Instant::now();
    raw.write_all(&frame).expect("write legacy ping");
    let reply = read_frame(&mut raw)
        .expect("read pong")
        .expect("pong frame");
    assert_eq!(reply.request_id, 11);
    assert!(matches!(
        protocol::decode_response(&reply).expect("decode"),
        Response::Pong
    ));
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "nothing a client sends asks the server to sleep: {:?}",
        t0.elapsed()
    );
}

#[test]
fn session_wait_timeout_maps_to_typed_unavailable_on_the_wire() {
    let timeout = Duration::from_millis(50);
    let h = boot("stale", |fleet, _| fleet.session_timeout = timeout);
    let mut client = h.client();

    // Wedge every replica, then commit: no replica can reach the
    // commit's LSN, so a session read must time out with the retryable
    // response.
    fail::configure_scoped(
        sites::FLEET_WORKER_POLL,
        "stale",
        FailAction::delay(Duration::from_secs(30)),
    );
    // Each worker's next poll wedges it holding its replica, so no
    // session read can catch that replica up; two hits are two wedged
    // workers.
    wait_for("wedged fleet", || fail::hits(sites::FLEET_WORKER_POLL) >= 2);
    client
        .commit(WireBatch::new().named_entity(
            EntityId(60),
            "Unreplicated Song",
            "song",
            SourceId(2),
            0.9,
        ))
        .expect("commit");
    let t0 = std::time::Instant::now();
    let err = client
        .query_with_session("FIND song WHERE name = \"Unreplicated Song\"")
        .expect_err("stale fleet must not serve the session");
    let waited = t0.elapsed();
    assert!(
        err.is_retryable(),
        "wire Unavailable stays retryable: {err}"
    );
    // The server waits the fleet's session timeout, not a default of its
    // own (2 s).
    assert!(
        waited >= timeout && waited < Duration::from_secs(2),
        "wire session wait took {waited:?}, the fleet allows {timeout:?}"
    );

    // Un-wedge; the same session query now succeeds.
    fail::clear(sites::FLEET_WORKER_POLL);
    let hits = client
        .query_with_session("FIND song WHERE name = \"Unreplicated Song\"")
        .expect("session query after resume");
    assert_eq!(hits.entities(), vec![EntityId(60)]);
}

/// A server that accepts the connection and then goes silent must not
/// hang the client forever: the bounded read timeout surfaces a typed,
/// retryable `Unavailable` — the signal a pool needs to fail over.
#[test]
fn silent_server_times_out_with_typed_unavailable() {
    // Not a SagaServer at all: a bare listener that accepts and reads
    // nothing — the TCP half of a wedged process or a dead VM.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind mute listener");
    let addr = listener.local_addr().expect("mute addr").to_string();
    let mute = std::thread::spawn(move || {
        // Hold the accepted sockets open so the client sees an
        // established-but-silent peer, not a reset.
        let mut held = Vec::new();
        while let Ok((sock, _)) = listener.accept() {
            held.push(sock);
            if held.len() >= 2 {
                break;
            }
        }
        std::thread::sleep(Duration::from_secs(2));
    });

    let mut client = SagaClient::connect_with(
        &addr,
        ClientConfig {
            read_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        },
    )
    .expect("connect to mute listener");
    let t0 = std::time::Instant::now();
    let err = client.ping().expect_err("mute server must not pong");
    assert!(
        err.is_retryable(),
        "socket timeout should surface as retryable unavailability: {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "the bounded read timeout must fire, not block: {:?}",
        t0.elapsed()
    );

    // Second connection, same contract — proves the timeout setting
    // survives the connect path, not just one lucky socket.
    let mut again = SagaClient::connect_with(
        &addr,
        ClientConfig {
            read_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        },
    )
    .expect("reconnect to mute listener");
    assert!(again.ping().is_err());
    mute.join().expect("mute listener thread");
}
