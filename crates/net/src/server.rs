//! The serving endpoint: a thread-pool TCP acceptor in front of the fleet.
//!
//! Every connection gets a *reader* thread that decodes frames and admits
//! them; decoded reads execute on a shared, bounded *worker* pool and
//! answer out of order under each request's id (the pipelining contract).
//! Commits execute on the reader itself: they serialize on the writer's
//! lock, so a worker would add a thread hand-off and no parallelism, and
//! executing them in arrival order applies one connection's pipelined
//! commits in the order they were sent. Requests pipelined behind a
//! commit on the same connection are read once it is answered. Reads
//! route through the
//! [`FleetRouter`] — never a bare replica — so
//! lag bounds, session filters and the session wait (the fleet's
//! `session_timeout`) hold for networked traffic exactly as they do
//! in-process; writes commit through the write-ahead
//! [`LoggedWriter`] and return the session
//! token that makes them readable by their writer.
//!
//! # Admission control
//!
//! One limit guards the pool: a global in-flight cap (`max_inflight`)
//! across all connections. An admission slot is acquired when a frame is
//! accepted and released after its response is written; a frame that
//! finds no slot is answered with the typed [`Response::Overloaded`] (the
//! request was *not* executed) — the reader never blocks, it sheds. The
//! job queue between readers and workers holds `max_inflight` entries:
//! every queued job holds a slot, so the queue cannot fill first and
//! pipelined floods cannot queue without bound.
//!
//! Frame-level garbage (bad magic/version, oversized declared length,
//! torn frames) closes the offending connection only — see the policy in
//! [`protocol`](crate::protocol).

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use saga_core::{GraphRead, SagaError};
use saga_fleet::FleetRouter;
use saga_graph::{LoggedWriter, OpKind};

use crate::protocol::{
    decode_request, opcode, Committed, ErrorKind, Frame, FrameError, Request, Response, WireOp,
};

/// Tuning for one [`SagaServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing requests (shared across connections).
    pub workers: usize,
    /// Global cap on admitted-but-unanswered requests — queued or
    /// executing — across all connections; the admission semaphore. A
    /// request past it sheds with `Overloaded`.
    pub max_inflight: usize,
    /// Maximum simultaneous connections; excess accepts are closed.
    pub max_connections: usize,
    /// Minimum backoff hint (milliseconds) attached to `Overloaded`
    /// sheds, so retrying clients pace themselves off the server's own
    /// estimate instead of guessing.
    pub shed_backoff_hint_ms: u64,
    /// Failpoint scope for this server's socket loops and workers: chaos
    /// drills running several in-process servers arm `net::server_read` /
    /// `net::server_execute` / `net::server_write` for one server by
    /// matching this label (see `saga_core::fail`). Empty — the default —
    /// matches only unscoped configurations.
    pub fail_scope: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight: 512,
            max_connections: 256,
            shed_backoff_hint_ms: 25,
            fail_scope: String::new(),
        }
    }
}

/// Monotone serving counters, snapshot via [`SagaServer::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (not counting over-capacity rejects).
    pub connections_accepted: u64,
    /// Requests executed to completion (any response except shed).
    pub requests_served: u64,
    /// Requests shed by admission control (`Overloaded` responses).
    pub requests_shed: u64,
    /// Connections dropped for frame-level protocol violations.
    pub frame_rejects: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    requests_served: AtomicU64,
    requests_shed: AtomicU64,
    frame_rejects: AtomicU64,
}

/// One admitted request travelling from a reader to the worker pool.
struct Job {
    conn: Arc<ConnHandle>,
    frame: Frame,
}

/// The shared write half of one connection. Workers answer out of order,
/// so every response write serializes on the stream lock; a full frame is
/// a single `write_all`, so responses never interleave mid-frame.
struct ConnHandle {
    stream: Mutex<TcpStream>,
    /// Failpoint scope, copied from `ServerConfig::fail_scope`.
    fail_scope: String,
}

impl ConnHandle {
    fn respond(&self, request_id: u64, response: &Response) {
        // The write-loop failpoint: an injected error here drops the
        // response *after* the request executed — the lost-ack fault
        // that makes a commit's outcome ambiguous to its client.
        if saga_core::fail::check_scoped(saga_core::fail::sites::NET_SERVER_WRITE, &self.fail_scope)
            .is_err()
        {
            return;
        }
        let frame = response.encode(request_id);
        let mut stream = self.stream.lock();
        // A dead peer surfaces as a write error; the reader thread owns
        // connection teardown, so the failed write is simply dropped.
        let _ = stream.write_all(&frame);
        let _ = stream.flush();
    }
}

struct Inner {
    router: Arc<FleetRouter>,
    writer: Arc<LoggedWriter>,
    cfg: ServerConfig,
    jobs: SyncSender<Job>,
    inflight: AtomicUsize,
    open_conns: AtomicUsize,
    counters: Counters,
    shutdown: AtomicBool,
    /// Read halves of live connections keyed by connection id, kept so
    /// shutdown can unblock their reader threads with a socket shutdown.
    /// Each connection thread deregisters itself on exit; otherwise a
    /// long-running server would leak one duplicated fd per connection
    /// ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Inner {
    /// Try to take one admission slot; `false` means the global in-flight
    /// cap is reached and the request must be shed.
    fn admit(&self) -> bool {
        let mut now = self.inflight.load(Ordering::Relaxed);
        loop {
            if now >= self.cfg.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                now,
                now + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => now = actual,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Refuse one request unexecuted: count it and answer the typed
    /// `Overloaded` with the server's backoff hint.
    fn shed(&self, conn: &ConnHandle, request_id: u64) {
        self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
        conn.respond(
            request_id,
            &Response::Overloaded {
                message: format!("in-flight cap reached ({})", self.cfg.max_inflight),
                backoff_hint_ms: self.cfg.shed_backoff_hint_ms,
            },
        );
    }

    /// Execute one admitted request, answer it on `conn`, and give its
    /// admission slot back.
    fn serve(&self, conn: &ConnHandle, frame: &Frame) {
        // The execute failpoint: an injected delay parks the executing
        // thread with the request admitted and unanswered, an injected
        // error answers `Internal` with it unexecuted.
        let response = match saga_core::fail::check_scoped(
            saga_core::fail::sites::NET_SERVER_EXECUTE,
            &self.cfg.fail_scope,
        ) {
            Err(err) => error_response(err),
            Ok(()) => match decode_request(frame) {
                Ok(request) => self.execute(request),
                Err(err) => Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: err.to_string(),
                },
            },
        };
        conn.respond(frame.request_id, &response);
        self.counters
            .requests_served
            .fetch_add(1, Ordering::Relaxed);
        self.release();
    }

    fn execute(&self, request: Request) -> Response {
        let result = match request {
            Request::Ping => Ok(Response::Pong),
            Request::Query { text, session } => match session {
                None => self.router.query(&text),
                Some(token) => self.router.query_with_session(&text, &token),
            }
            .map(Response::Result),
            // Staging an upsert about a source reference panics (only
            // linked facts fuse), so such a batch is refused whole, before
            // anything is staged or logged.
            Request::Commit(batch) if batch.ops().iter().any(is_unlinked_upsert) => {
                Ok(Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: "upsert subject is not a KG entity".into(),
                })
            }
            Request::Commit(batch) => self
                .writer
                .commit(OpKind::Upsert, batch.into_write_batch())
                .map(|commit| {
                    Response::Committed(Committed {
                        lsn: commit.lsn,
                        token: commit.session_token(),
                        facts_added: commit.receipt.facts_added as u64,
                        facts_removed: commit.receipt.facts_removed as u64,
                    })
                }),
            Request::Postings(probe) => Ok(Response::Entities(self.router.postings(&probe))),
            Request::Selectivity(probe) => {
                Ok(Response::Count(self.router.selectivity(&probe) as u64))
            }
            Request::ProbeContains(probe, id) => {
                Ok(Response::Bool(self.router.probe_contains(&probe, id)))
            }
            Request::ResolveName(name) => Ok(Response::Entities(self.router.resolve_name(&name))),
            Request::Record(id) => Ok(Response::Record(self.router.record(id))),
            Request::Generation => Ok(Response::Count(self.router.generation())),
        };
        result.unwrap_or_else(error_response)
    }
}

fn is_unlinked_upsert(op: &WireOp) -> bool {
    matches!(op, WireOp::Upsert(t) if t.subject.as_kg().is_none())
}

/// Map an execution error onto the wire: retryable conditions get their
/// typed response, everything else a classified [`Response::Error`].
fn error_response(err: SagaError) -> Response {
    match err {
        SagaError::Unavailable(message) => Response::Unavailable { message },
        SagaError::Query(message) => Response::Error {
            kind: ErrorKind::Query,
            message,
        },
        other => Response::Error {
            kind: ErrorKind::Internal,
            message: other.to_string(),
        },
    }
}

/// A running saga serving endpoint. Dropping the server shuts it down
/// (idempotent with an explicit [`shutdown`](Self::shutdown) call).
pub struct SagaServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SagaServer {
    /// Bind and start serving `router` (reads) and `writer` (commits)
    /// under `cfg`. Returns once the listener is bound and the worker
    /// pool is up; the bound address is [`local_addr`](Self::local_addr).
    pub fn start(
        router: Arc<FleetRouter>,
        writer: Arc<LoggedWriter>,
        cfg: ServerConfig,
    ) -> std::io::Result<SagaServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let (jobs, job_rx) = std::sync::mpsc::sync_channel::<Job>(cfg.max_inflight.max(1));
        let inner = Arc::new(Inner {
            router,
            writer,
            cfg,
            jobs,
            inflight: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let job_rx = Arc::new(Mutex::new(job_rx));
        let worker_handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let job_rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("saga-net-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &job_rx))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("saga-net-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn acceptor thread")
        };

        Ok(SagaServer {
            inner,
            local_addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.inner.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            frame_rejects: c.frame_rejects.load(Ordering::Relaxed),
        }
    }

    /// Currently admitted-but-unanswered requests.
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// Currently open connections (each reader thread deregisters itself
    /// on exit, so closed connections do not accumulate here).
    pub fn open_connections(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Stop accepting, unblock every connection, drain the workers, and
    /// join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock reader threads stuck in read_frame.
        for (_, conn) in self.inner.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the shutdown flag per accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers poll the shutdown flag between queue timeouts.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SagaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if inner.open_conns.load(Ordering::Relaxed) >= inner.cfg.max_connections {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        inner.open_conns.fetch_add(1, Ordering::AcqRel);
        inner
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Registration is best-effort — it only exists so shutdown can
        // unblock reader threads with a socket shutdown. The connection
        // thread removes its own entry on exit so the registry (and its
        // duplicated fd) never outlives the connection.
        let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = read_half.try_clone() {
            inner.conns.lock().insert(conn_id, clone);
        }
        let spawned = {
            let inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name("saga-net-conn".to_string())
                .spawn(move || {
                    connection_loop(&inner, read_half, stream);
                    inner.conns.lock().remove(&conn_id);
                    inner.open_conns.fetch_sub(1, Ordering::AcqRel);
                })
        };
        if spawned.is_err() {
            // The thread never ran, so its epilogue never will: give back
            // the capacity taken above or the slot leaks forever.
            inner.conns.lock().remove(&conn_id);
            inner.open_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Per-connection reader: frame decoding + admission, and commits. Reads
/// execute on the worker pool so one slow read never blocks the other
/// requests pipelined behind it on the same connection. A commit runs
/// here instead (see the module docs).
fn connection_loop(inner: &Arc<Inner>, read_half: TcpStream, write_half: TcpStream) {
    let conn = Arc::new(ConnHandle {
        stream: Mutex::new(write_half),
        fail_scope: inner.cfg.fail_scope.clone(),
    });
    let mut reader = BufReader::new(read_half);
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        match crate::protocol::read_frame(&mut reader) {
            Ok(None) => break, // clean close
            Ok(Some(frame)) => {
                // The read-loop failpoint, checked per decoded frame
                // before admission: an injected error drops the whole
                // connection with the request unexecuted (what a killed
                // process looks like from the client), an injected delay
                // wedges the reader mid-pipeline.
                if saga_core::fail::check_scoped(
                    saga_core::fail::sites::NET_SERVER_READ,
                    &inner.cfg.fail_scope,
                )
                .is_err()
                {
                    break;
                }
                if !inner.admit() {
                    inner.shed(&conn, frame.request_id);
                    continue;
                }
                if frame.opcode == opcode::COMMIT {
                    inner.serve(&conn, &frame);
                    continue;
                }
                let job = Job {
                    conn: Arc::clone(&conn),
                    frame,
                };
                match inner.jobs.try_send(job) {
                    Ok(()) => {}
                    // Every queued job holds one of `max_inflight` slots,
                    // so the queue never fills first (see the module docs);
                    // should it ever, shed exactly as a failed `admit` does.
                    Err(TrySendError::Full(job)) => {
                        inner.release();
                        inner.shed(&job.conn, job.frame.request_id);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        inner.release();
                        break;
                    }
                }
            }
            Err(FrameError::Oversized {
                declared,
                request_id,
            }) => {
                // The header parsed, so the reject can be addressed — but
                // the stream cannot be resynchronized past an untrusted
                // length, so the connection closes after the response.
                inner.counters.frame_rejects.fetch_add(1, Ordering::Relaxed);
                conn.respond(
                    request_id,
                    &Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: format!(
                            "oversized frame: declared payload {declared} exceeds {}",
                            crate::protocol::MAX_PAYLOAD
                        ),
                    },
                );
                break;
            }
            Err(_) => {
                // Torn / bad magic / bad version / transport error: the
                // stream is unsynchronizable and unaddressable. Drop this
                // connection; the pool and every other connection live on.
                inner.counters.frame_rejects.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    let _ = conn.stream.lock().shutdown(Shutdown::Both);
}

fn worker_loop(inner: &Arc<Inner>, jobs: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only while dequeuing, never while
        // executing, so the pool drains concurrently.
        let job = {
            let rx = jobs.lock();
            rx.recv_timeout(Duration::from_millis(50))
        };
        match job {
            Ok(job) => inner.serve(&job.conn, &job.frame),
            Err(RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}
