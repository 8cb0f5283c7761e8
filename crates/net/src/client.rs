//! The client: blocking calls, explicit pipelining, session threading.
//!
//! [`SagaClient`] speaks the [`protocol`](crate::protocol) over one TCP
//! connection. Two styles compose:
//!
//! * **Blocking** — [`call`](SagaClient::call) and the typed helpers
//!   ([`query`](SagaClient::query), [`commit`](SagaClient::commit), ...)
//!   send one request and wait for its response.
//! * **Pipelined** — [`send`](SagaClient::send) returns the request id
//!   immediately; any number may be in flight, and
//!   [`recv_by_id`](SagaClient::recv_by_id) /
//!   [`recv_any`](SagaClient::recv_any) collect responses in whatever
//!   order the server produced them (out-of-order responses for other
//!   ids are parked, never lost).
//!
//! The client carries a [`SessionToken`] that every [`commit`] advances
//! and every [`query_with_session`](SagaClient::query_with_session)
//! threads into the request — read-your-writes over the wire. The token
//! survives [`reconnect`](SagaClient::reconnect), so a client that
//! reconnects mid-session still refuses stale serves.
//!
//! [`commit`]: SagaClient::commit

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use saga_core::{EntityId, EntityRecord, Result, SagaError, SessionToken};
use saga_live::QueryResult;

use crate::protocol::{
    decode_response, read_frame, Committed, ErrorKind, Request, Response, WireBatch, HEADER_LEN,
    MAX_PAYLOAD,
};

/// Transport failures are *unavailability of this endpoint*, not data
/// corruption: connect refusals, resets, and socket timeouts all mean
/// "this server cannot answer right now" — the retryable condition a
/// pool fails over on. Payload-level garbage stays `Storage`.
fn net_err(context: &str, err: impl std::fmt::Display) -> SagaError {
    SagaError::Unavailable(format!("net: {context}: {err}"))
}

/// Socket behavior for a [`SagaClient`].
///
/// Every timeout is *bounded by default*: a server that accepts the
/// connection and then goes silent (wedged reader, paused VM, half-dead
/// NIC) surfaces as a typed [`SagaError::Unavailable`] after
/// `read_timeout` instead of hanging the caller forever. A zero
/// duration disables that bound (blocks indefinitely) — only drills
/// should want it.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Bound on any single socket read while waiting for a response.
    pub read_timeout: Duration,
    /// Bound on any single socket write while sending a request.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

fn opt(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

/// A connection to a [`SagaServer`](crate::SagaServer).
pub struct SagaClient {
    addr: String,
    cfg: ClientConfig,
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    parked: HashMap<u64, Response>,
    session: SessionToken,
}

impl SagaClient {
    /// Connect to a server with default (bounded) timeouts. The address
    /// is kept for [`reconnect`](Self::reconnect).
    pub fn connect(addr: impl Into<String>) -> Result<SagaClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit socket behavior.
    pub fn connect_with(addr: impl Into<String>, cfg: ClientConfig) -> Result<SagaClient> {
        let addr = addr.into();
        let (writer, reader) = Self::open(&addr, &cfg)?;
        Ok(SagaClient {
            addr,
            cfg,
            writer,
            reader,
            next_id: 1,
            parked: HashMap::new(),
            session: SessionToken::default(),
        })
    }

    fn open(
        addr: &str,
        cfg: &ClientConfig,
    ) -> Result<(BufWriter<TcpStream>, BufReader<TcpStream>)> {
        let stream = match opt(cfg.connect_timeout) {
            None => TcpStream::connect(addr).map_err(|e| net_err("connect", e))?,
            Some(bound) => {
                // `connect_timeout` needs resolved addresses; try each
                // and keep the last failure for the error message.
                let addrs = addr.to_socket_addrs().map_err(|e| net_err("resolve", e))?;
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for sock_addr in addrs {
                    match TcpStream::connect_timeout(&sock_addr, bound) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| match last {
                    Some(e) => net_err("connect", e),
                    None => net_err("resolve", "address resolved to nothing"),
                })?
            }
        };
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(opt(cfg.read_timeout))
            .map_err(|e| net_err("set read timeout", e))?;
        stream
            .set_write_timeout(opt(cfg.write_timeout))
            .map_err(|e| net_err("set write timeout", e))?;
        let read_half = stream.try_clone().map_err(|e| net_err("clone stream", e))?;
        Ok((BufWriter::new(stream), BufReader::new(read_half)))
    }

    /// Drop the connection and dial the same address again. The session
    /// token is *kept*: queries after a reconnect still demand every
    /// write this client has observed. Parked responses from the old
    /// connection are discarded (their requests died with it).
    pub fn reconnect(&mut self) -> Result<()> {
        let (writer, reader) = Self::open(&self.addr, &self.cfg)?;
        self.writer = writer;
        self.reader = reader;
        self.parked.clear();
        Ok(())
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// This client's read-your-writes token.
    pub fn session(&self) -> SessionToken {
        self.session
    }

    // -- pipelined API ----------------------------------------------------

    /// Send one request without waiting; returns its request id. Any
    /// number of requests may be in flight on the connection.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let id = self.send_buffered(request)?;
        self.flush()?;
        Ok(id)
    }

    /// Send without flushing — for batching many sends into few syscalls;
    /// pair with [`flush`](Self::flush) (or any `recv_*`, which flushes).
    pub fn send_buffered(&mut self, request: &Request) -> Result<u64> {
        let id = self.next_id;
        let frame = request.encode(id);
        // The server would refuse the header and close the connection;
        // refuse here, before a byte is written.
        if frame.len() - HEADER_LEN > MAX_PAYLOAD as usize {
            return Err(SagaError::Storage(format!(
                "net: request body of {} bytes exceeds MAX_PAYLOAD",
                frame.len() - HEADER_LEN
            )));
        }
        self.next_id += 1;
        self.writer
            .write_all(&frame)
            .map_err(|e| net_err("send", e))?;
        Ok(id)
    }

    /// Flush buffered sends to the socket.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| net_err("flush", e))
    }

    /// Receive the response for a specific request id, parking any
    /// responses for other in-flight ids along the way.
    pub fn recv_by_id(&mut self, id: u64) -> Result<Response> {
        if let Some(found) = self.parked.remove(&id) {
            return Ok(found);
        }
        self.flush()?;
        loop {
            let (got_id, response) = self.read_one()?;
            if got_id == id {
                return Ok(response);
            }
            self.parked.insert(got_id, response);
        }
    }

    /// Receive whichever response arrives next (parked ones first).
    pub fn recv_any(&mut self) -> Result<(u64, Response)> {
        if let Some(id) = self.parked.keys().next().copied() {
            let response = self.parked.remove(&id).expect("key just observed");
            return Ok((id, response));
        }
        self.flush()?;
        self.read_one()
    }

    fn read_one(&mut self) -> Result<(u64, Response)> {
        let frame = read_frame(&mut self.reader)
            .map_err(|e| net_err("read frame", e))?
            .ok_or_else(|| SagaError::Unavailable("server closed the connection".to_string()))?;
        let response = decode_response(&frame)?;
        Ok((frame.request_id, response))
    }

    // -- blocking API -----------------------------------------------------

    /// Send one request and wait for its response. Returns the raw
    /// [`Response`] — including typed `Overloaded` / `Unavailable` /
    /// `Error` variants — so callers owning their retry policy can see
    /// exactly what the server said.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        let id = self.send(request)?;
        self.recv_by_id(id)
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(response_error(other)),
        }
    }

    /// One KGQ query with no freshness constraint.
    pub fn query(&mut self, text: &str) -> Result<QueryResult> {
        let request = Request::Query {
            text: text.to_string(),
            session: None,
        };
        match self.call(&request)? {
            Response::Result(result) => Ok(result),
            other => Err(response_error(other)),
        }
    }

    /// One KGQ query constrained by this client's session token: the
    /// server must serve it from a replica at or past every commit this
    /// client has made (read-your-writes over the wire).
    pub fn query_with_session(&mut self, text: &str) -> Result<QueryResult> {
        let request = Request::Query {
            text: text.to_string(),
            session: Some(self.session),
        };
        match self.call(&request)? {
            Response::Result(result) => Ok(result),
            other => Err(response_error(other)),
        }
    }

    /// Commit a batch through the server's write-ahead log. On success
    /// the client's session token advances to the commit's LSN, so
    /// subsequent [`query_with_session`](Self::query_with_session) calls
    /// observe the write.
    pub fn commit(&mut self, batch: WireBatch) -> Result<Committed> {
        match self.call(&Request::Commit(batch))? {
            Response::Committed(committed) => {
                self.session.observe(committed.lsn);
                Ok(committed)
            }
            other => Err(response_error(other)),
        }
    }

    /// `GraphRead::resolve_name` over the wire.
    pub fn resolve_name(&mut self, name: &str) -> Result<Vec<EntityId>> {
        match self.call(&Request::ResolveName(name.to_string()))? {
            Response::Entities(ids) => Ok(ids),
            other => Err(response_error(other)),
        }
    }

    /// `GraphRead::record` over the wire.
    pub fn record(&mut self, id: EntityId) -> Result<Option<EntityRecord>> {
        match self.call(&Request::Record(id))? {
            Response::Record(record) => Ok(record),
            other => Err(response_error(other)),
        }
    }

    /// The fleet's version over the wire: the highest LSN any of its
    /// replicas has applied.
    pub fn generation(&mut self) -> Result<u64> {
        match self.call(&Request::Generation)? {
            Response::Count(n) => Ok(n),
            other => Err(response_error(other)),
        }
    }
}

/// Lift a non-success wire response into the typed error a blocking
/// helper reports: sheds become the retryable [`SagaError::Overloaded`]
/// (hint included), freshness misses the retryable
/// [`SagaError::Unavailable`], query failures stay [`SagaError::Query`].
pub(crate) fn response_error(response: Response) -> SagaError {
    match response {
        Response::Overloaded {
            message,
            backoff_hint_ms,
        } => SagaError::Overloaded {
            message,
            backoff_hint_ms,
        },
        Response::Unavailable { message } => SagaError::Unavailable(message),
        Response::Error { kind, message } => match kind {
            ErrorKind::Query => SagaError::Query(message),
            ErrorKind::BadRequest => SagaError::Storage(format!("bad request: {message}")),
            ErrorKind::Internal => SagaError::Storage(format!("server error: {message}")),
        },
        other => unexpected("success response", &other),
    }
}

fn unexpected(wanted: &str, got: &Response) -> SagaError {
    SagaError::Storage(format!("net: expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::opcode;

    /// The retry contract, checked over *every* error-range opcode and
    /// through the real codec: each response is encoded to wire bytes,
    /// read back as a frame, decoded, and lifted by [`response_error`].
    /// Retryability must survive the round trip — a client deciding to
    /// retry sees exactly what the server sent, nothing typed is lost.
    #[test]
    fn retryability_matrix_over_every_wire_error_opcode() {
        let cases: Vec<(Response, bool, Option<u64>)> = vec![
            (
                Response::Overloaded {
                    message: "job queue full".into(),
                    backoff_hint_ms: 40,
                },
                true,
                Some(40),
            ),
            (
                Response::Unavailable {
                    message: "session wait timed out".into(),
                },
                true,
                None,
            ),
            (
                Response::Error {
                    kind: ErrorKind::Query,
                    message: "parse error".into(),
                },
                false,
                None,
            ),
            (
                Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: "unknown opcode".into(),
                },
                false,
                None,
            ),
            (
                Response::Error {
                    kind: ErrorKind::Internal,
                    message: "replay failed".into(),
                },
                false,
                None,
            ),
        ];
        let mut opcodes_seen = std::collections::BTreeSet::new();
        for (resp, retryable, hint) in cases {
            opcodes_seen.insert(resp.opcode());
            let bytes = resp.encode(7);
            let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
            let err = response_error(decode_response(&frame).unwrap());
            assert_eq!(err.is_retryable(), retryable, "{err}");
            assert_eq!(err.backoff_hint_ms(), hint, "{err}");
        }
        // The matrix covers the whole error range (0xE0..): if a new
        // error opcode is added without a row here, this fails.
        assert_eq!(
            opcodes_seen.into_iter().collect::<Vec<_>>(),
            vec![opcode::ERROR, opcode::OVERLOADED, opcode::UNAVAILABLE],
        );
    }
}
