//! The serving endpoint: a TCP acceptor in front of the fleet, and a small
//! team of threads per connection.
//!
//! The team shares its connection's socket, leader/follower style. The
//! thread holding the read half reads a *batch*: every whole frame already
//! buffered, at least one, ending after the first commit. It admits each
//! frame, hands the read half to the next team thread, then executes its
//! batch in arrival order, writing each response as soon as it is ready.
//! A request therefore runs on the thread that read it, and the next
//! reader wakes while it executes rather than before it.
//!
//! Responses are not held back to share one write with the rest of their
//! batch. That saves syscalls, but a pipelining client then idles while
//! the batch runs and gets its answers in one burst, so the sizes of later
//! batches follow whenever threads happen to wake: on a 2-vCPU host,
//! pipelined throughput swung by up to ×1.9 from one run to the next (see
//! `docs/network.md`). One write per response keeps the client fed at the
//! pace the team executes.
//!
//! Responses carry their request's id (the pipelining contract). While a
//! connection is a team, the overtaking rule is exact: a request may
//! overtake one from an earlier batch — a request that arrives while a
//! batch executes is read and run by another team thread — but never one
//! in its own batch, so requests that arrived in the same read as a slow
//! one wait for it. A batch that holds a commit executes *before* the
//! read half is handed on, and its thread reads next: commits serialize
//! on the writer's lock anyway, one connection's commits take LSNs in the
//! order they were sent, and whatever was pipelined behind a commit is
//! read once it is answered. With one thread per connection
//! (`workers = 1`) the reader executes everything strictly in order. A
//! client that stops reading parks only its own team on its own socket.
//! Reads route through the [`FleetRouter`] — never a bare replica — so
//! lag bounds, session filters and the session wait (the fleet's
//! `session_timeout`) hold for networked traffic exactly as they do
//! in-process; writes commit through the write-ahead [`LoggedWriter`] and
//! return the session token that makes them readable by their writer.
//!
//! # Solo connections
//!
//! A blocking client has one request in flight, so a follower that takes
//! the read half only blocks in `read()` until the answer is out — a
//! second thread woken per request for nothing. Each connection therefore
//! counts its admitted-but-unanswered frames, uncounting each one just
//! *before* its response is written, so a blocking client's next request
//! always finds the count at zero. A frame admitted while another is
//! unanswered marks the connection *pipelined* for good, and the counting
//! stops. After a warm-up of `WARM_UP` admissions served as a team, a
//! connection that has not pipelined goes *solo*: its reader runs each
//! batch with the read half still held and reads the next one itself, so
//! no follower is woken. A solo connection executes strictly in order
//! until one read finds two frames buffered; from that batch on it is a
//! team again, for good.
//!
//! # Admission control
//!
//! One global in-flight cap (`max_inflight`) across all connections. A
//! frame takes an admission slot as it is read and gives it back once its
//! whole batch is answered; a frame that finds no slot is answered at
//! once with the typed [`Response::Overloaded`], unexecuted — the reader
//! never blocks, it sheds. A whole batch is admitted before any of it
//! runs, so one pipelined burst can fill the gate by itself.
//!
//! Frame-level garbage (bad magic/version, oversized declared length,
//! torn frames) closes the offending connection only — see the policy in
//! [`protocol`](crate::protocol).

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use saga_core::fail::{check_scoped, sites};
use saga_core::{GraphRead, SagaError};
use saga_fleet::FleetRouter;
use saga_graph::{LoggedWriter, OpKind};

use crate::protocol::{
    decode_request, frame_buffered, opcode, read_frame, Committed, ErrorKind, Frame, FrameError,
    Request, Response, WireOp,
};

/// Tuning for one [`SagaServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (tests).
    pub addr: String,
    /// Threads serving one connection (its team, at least one). Each
    /// reads a batch, hands the socket on and executes what it read; with
    /// 1 the connection's reader executes everything strictly in order.
    /// A connection that never pipelines is served by one of them after
    /// a short warm-up (see the module docs), the rest stay parked.
    pub workers: usize,
    /// Global cap on admitted-but-unanswered requests across all
    /// connections; the admission semaphore. A request past it sheds
    /// with `Overloaded`.
    pub max_inflight: usize,
    /// Maximum simultaneous connections; excess accepts are closed.
    pub max_connections: usize,
    /// Minimum backoff hint (milliseconds) attached to `Overloaded`
    /// sheds, so retrying clients pace themselves off the server's own
    /// estimate instead of guessing.
    pub shed_backoff_hint_ms: u64,
    /// Failpoint scope for this server's connection teams: chaos drills
    /// running several in-process servers arm `net::server_read` /
    /// `net::server_execute` / `net::server_write` for one server by
    /// matching this label (see `saga_core::fail`). Empty — the default —
    /// matches only unscoped configurations.
    pub fail_scope: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
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

/// One connection's socket, shared by its team.
struct Conn {
    /// The read half. The team thread holding it is the one reading.
    reader: Mutex<BufReader<TcpStream>>,
    /// The write half; one whole frame per `write_all`, so frames never
    /// interleave mid-frame.
    writer: Mutex<TcpStream>,
    /// Set by the thread that saw the connection end; the team exits.
    closed: AtomicBool,
    /// Admitted frames not yet answered, counted until `pipelined`. Its
    /// read-modify-writes are `AcqRel`: a decrement precedes the response's
    /// write, and the socket orders that write before the client's next
    /// request is read and counted.
    unanswered: AtomicUsize,
    /// Frames admitted while counting, up to [`WARM_UP`].
    admitted: AtomicUsize,
    /// Set for good by a frame admitted while another was unanswered.
    /// It and `admitted` are written only under the read half, whose lock
    /// orders them (hence `Relaxed`); `note_answering` may see `pipelined`
    /// late, which costs one decrement nothing reads any more.
    pipelined: AtomicBool,
}

/// Admissions a connection is served as a team before it may go solo.
const WARM_UP: usize = 16;

impl Conn {
    /// Count one admitted frame (called under the read half).
    fn note_admitted(&self) {
        if self.pipelined.load(Ordering::Relaxed) {
            return;
        }
        if self.unanswered.fetch_add(1, Ordering::AcqRel) > 0 {
            self.pipelined.store(true, Ordering::Relaxed);
        } else if self.admitted.load(Ordering::Relaxed) < WARM_UP {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Uncount a frame whose response is about to be written — before the
    /// write, so the client's next request cannot find it unanswered.
    fn note_answering(&self) {
        if !self.pipelined.load(Ordering::Relaxed) {
            self.unanswered.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Whether the batch just read runs with the read half still held
    /// (called under the read half).
    fn solo(&self) -> bool {
        !self.pipelined.load(Ordering::Relaxed) && self.admitted.load(Ordering::Relaxed) >= WARM_UP
    }
}

/// Live connections by id: a duplicate of the socket and the thread.
type Registry = HashMap<u64, (TcpStream, Option<JoinHandle<()>>)>;

struct Inner {
    router: Arc<FleetRouter>,
    writer: Arc<LoggedWriter>,
    cfg: ServerConfig,
    inflight: AtomicUsize,
    open_conns: AtomicUsize,
    counters: Counters,
    shutdown: AtomicBool,
    /// Kept so shutdown can unblock every team (the socket) and join it
    /// (the thread). Each connection deregisters itself on exit; otherwise
    /// a long-running server would leak one duplicated fd per connection
    /// ever accepted.
    conns: Mutex<Registry>,
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

    /// Write `response`'s frame, unless the write failpoint drops it: an
    /// injected error loses the response *after* the request executed —
    /// the lost-ack fault that makes a commit's outcome ambiguous to its
    /// client.
    fn respond(&self, conn: &Conn, request_id: u64, response: &Response) {
        if check_scoped(sites::NET_SERVER_WRITE, &self.cfg.fail_scope).is_ok() {
            // A dead peer surfaces as a write error; the team sees the
            // close on its next read, so the failed write is simply dropped.
            let _ = conn.writer.lock().write_all(&response.encode(request_id));
        }
    }

    /// Read one batch into `batch` (see the module docs), admitting each
    /// frame and answering each shed at once. `false` means the
    /// connection is done; frames already admitted still run.
    fn read_batch(
        &self,
        conn: &Conn,
        reader: &mut BufReader<TcpStream>,
        batch: &mut Vec<Frame>,
    ) -> bool {
        loop {
            let frame = match read_frame(reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return false, // clean close
                Err(FrameError::Oversized {
                    declared,
                    request_id,
                }) => {
                    // The header parsed, so the reject can be addressed —
                    // but the stream cannot be resynchronized past an
                    // untrusted length, so the connection closes after it.
                    self.counters.frame_rejects.fetch_add(1, Ordering::Relaxed);
                    let message = format!(
                        "oversized frame: declared payload {declared} exceeds {}",
                        crate::protocol::MAX_PAYLOAD
                    );
                    let kind = ErrorKind::BadRequest;
                    self.respond(conn, request_id, &Response::Error { kind, message });
                    return false;
                }
                Err(_) => {
                    // Torn / bad magic / bad version / transport error:
                    // the stream is unsynchronizable and unaddressable.
                    // Only this connection dies.
                    self.counters.frame_rejects.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            };
            // The read failpoint, per decoded frame before admission: an
            // injected error drops the connection with the request
            // unexecuted (what a killed process looks like from the
            // client), an injected delay wedges the reader mid-pipeline.
            if check_scoped(sites::NET_SERVER_READ, &self.cfg.fail_scope).is_err() {
                return false;
            }
            if !self.admit() {
                self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
                let shed = Response::Overloaded {
                    message: format!("in-flight cap reached ({})", self.cfg.max_inflight),
                    backoff_hint_ms: self.cfg.shed_backoff_hint_ms,
                };
                self.respond(conn, frame.request_id, &shed);
            } else {
                conn.note_admitted();
                let commit = frame.opcode == opcode::COMMIT;
                batch.push(frame);
                if commit {
                    return true;
                }
            }
            if !frame_buffered(reader.buffer()) {
                return true;
            }
        }
    }

    /// Execute an admitted batch in order, answering each request as it
    /// completes, then give the batch's admission slots back.
    fn run_batch(&self, conn: &Conn, batch: &[Frame]) {
        for frame in batch {
            // The execute failpoint: an injected delay parks the executing
            // thread with the request admitted and unanswered, an injected
            // error answers `Internal` with it unexecuted.
            let response = match check_scoped(sites::NET_SERVER_EXECUTE, &self.cfg.fail_scope) {
                Err(err) => error_response(err),
                Ok(()) => match decode_request(frame) {
                    Ok(request) => self.execute(request),
                    Err(err) => Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: err.to_string(),
                    },
                },
            };
            conn.note_answering();
            self.respond(conn, frame.request_id, &response);
        }
        self.counters
            .requests_served
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.inflight.fetch_sub(batch.len(), Ordering::AcqRel);
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
}

impl SagaServer {
    /// Bind and start serving `router` (reads) and `writer` (commits)
    /// under `cfg`. Returns once the listener is bound and the acceptor
    /// is up; the bound address is [`local_addr`](Self::local_addr).
    pub fn start(
        router: Arc<FleetRouter>,
        writer: Arc<LoggedWriter>,
        cfg: ServerConfig,
    ) -> std::io::Result<SagaServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            router,
            writer,
            cfg,
            inflight: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("saga-net-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))?
        };
        Ok(SagaServer {
            inner,
            local_addr,
            acceptor: Some(acceptor),
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

    /// Currently open connections (each connection deregisters itself on
    /// exit, so closed connections do not accumulate here).
    pub fn open_connections(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Stop accepting, unblock every connection and join every thread the
    /// server started: once this returns, no request of its can still
    /// execute. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the shutdown flag per accept, and once joined registers nothing.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Drained before joining: a connection's epilogue takes the
        // registry lock, so joining under it could deadlock.
        let conns: Vec<_> = self.inner.conns.lock().drain().map(|(_, c)| c).collect();
        for (socket, _) in &conns {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for thread in conns.into_iter().filter_map(|(_, thread)| thread) {
            let _ = thread.join();
        }
    }
}

impl Drop for SagaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A connection's place in the registry and its capacity slot, given back
/// when dropped — when its thread ends, by unwinding too, or with the
/// closure a failed spawn drops unrun — so neither can leak.
struct Registration {
    inner: Arc<Inner>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.inner.conns.lock().remove(&self.id);
        self.inner.open_conns.fetch_sub(1, Ordering::AcqRel);
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
        let (Ok(read_half), Ok(registered)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        inner.open_conns.fetch_add(1, Ordering::AcqRel);
        inner
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        inner.conns.lock().insert(id, (registered, None));
        let registration = Registration {
            inner: Arc::clone(inner),
            id,
        };
        let spawned = std::thread::Builder::new()
            .name("saga-net-conn".to_string())
            .spawn(move || serve_connection(&registration.inner, read_half, stream));
        // A connection that already ended has deregistered; its thread
        // is past its last request, so its handle is simply dropped.
        if let (Ok(thread), Some(entry)) = (spawned, inner.conns.lock().get_mut(&id)) {
            entry.1 = Some(thread);
        }
    }
}

/// Serve one connection with its team: this thread plus up to
/// `workers - 1` scoped followers (fewer if a spawn fails), all running
/// [`team_loop`]. The socket closes once the whole team is done.
fn serve_connection(inner: &Inner, read_half: TcpStream, write_half: TcpStream) {
    let conn = Conn {
        reader: Mutex::new(BufReader::new(read_half)),
        writer: Mutex::new(write_half),
        closed: AtomicBool::new(false),
        unanswered: AtomicUsize::new(0),
        admitted: AtomicUsize::new(0),
        pipelined: AtomicBool::new(false),
    };
    std::thread::scope(|team| {
        for _ in 1..inner.cfg.workers {
            let follower = std::thread::Builder::new().name("saga-net-conn".to_string());
            if follower
                .spawn_scoped(team, || team_loop(inner, &conn))
                .is_err()
            {
                break;
            }
        }
        team_loop(inner, &conn);
    });
    let _ = conn.writer.lock().shutdown(Shutdown::Both);
}

/// One team thread: take the read half, read a batch, hand the read half
/// on, run the batch — until the connection ends. A solo connection's
/// batch and a batch holding a commit run with the read half still held,
/// and their thread reads next without letting go of it.
fn team_loop(inner: &Inner, conn: &Conn) {
    let mut batch = Vec::new();
    let mut held = None;
    loop {
        let mut reader = held.take().unwrap_or_else(|| conn.reader.lock());
        if conn.closed.load(Ordering::Acquire) || inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        if !inner.read_batch(conn, &mut reader, &mut batch) {
            conn.closed.store(true, Ordering::Release);
        }
        // Not kept, the read half is handed on here, before the batch runs.
        let keep = conn.solo() || batch.last().is_some_and(|f| f.opcode == opcode::COMMIT);
        held = keep.then_some(reader);
        inner.run_batch(conn, &batch);
        batch.clear();
    }
}
