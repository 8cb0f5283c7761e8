//! The wire protocol: length-prefixed binary frames with binary payloads.
//!
//! # Frame format
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +-------+---------+--------+-------------+-------------+-----------+
//! | magic | version | opcode | request id  | payload len | payload   |
//! | 4 B   | 1 B     | 1 B    | 8 B (LE)    | 4 B (LE)    | len bytes |
//! +-------+---------+--------+-------------+-------------+-----------+
//! ```
//!
//! The magic is `SGNT`, the version is 2. The request id is
//! chosen by the client and echoed verbatim on the response — that is the
//! whole pipelining contract: a client may have any number of requests in
//! flight on one connection, the server may answer them in any order, and
//! the id is what reunites them.
//!
//! # Payloads
//!
//! A payload is the message body in the [`saga_core::binary`] vocabulary
//! the checkpoint sections use — varints, length-prefixed UTF-8, tagged
//! [`Value`]s — plus one shape of its own: an entity-id list is a count
//! followed by zig-zag varint deltas (wrapping, so unsorted and duplicated
//! lists and ids up to `u64::MAX` survive). The per-opcode layout is the
//! table in `docs/network.md`. Encoders append to the frame buffer behind a
//! reserved header whose length is patched last; decoders walk
//! [`Frame::payload`] in place, interning predicate names from the borrowed
//! bytes. Every count, tag and length is checked against the bytes that
//! remain, so nothing read off a socket sizes an allocation or reaches a
//! panic.
//!
//! There is one version and no negotiation: client, server, CLI and bench
//! harness compile from this crate, and a frame of any other version is
//! [`FrameError::BadVersion`].
//!
//! # Rejection policy
//!
//! Decoding failures split into two tiers, so a bad request cannot take
//! down a connection and a bad connection cannot take down the server:
//!
//! * **Payload-level garbage** (unknown opcode, an undecodable body,
//!   trailing bytes) still arrived in a well-formed frame. The server
//!   answers that request id with a typed [`Response::Error`] and the
//!   connection keeps serving.
//! * **Frame-level garbage** (wrong magic, unsupported version, a
//!   declared payload length over [`MAX_PAYLOAD`], a peer that
//!   disconnects mid-frame) leaves the byte stream unsynchronizable —
//!   there is no trustworthy length to skip. The server sends a final
//!   error frame when it still knows the request id (oversized lengths
//!   arrive with a parsed header) and closes *that connection only*;
//!   the acceptor and every other connection are unaffected. The fault
//!   suite in `tests/protocol_faults.rs` drills exactly these paths.

use std::io::Read;

use saga_core::binary::{
    push_str, push_value, push_varint, take_count, take_slice, take_str, take_u32, take_u8,
    take_value, take_varint, unzigzag, zigzag,
};
use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, Lsn, Provenance, RelId, RelPart,
    Result, SagaError, SessionToken, SourceId, SourceTrust, SubjectRef, Value, WriteBatch,
};
use saga_live::QueryResult;

/// Frame magic: the first four bytes of every saga-net frame. Private, so
/// only this module's codec can write or check a frame header.
const MAGIC: [u8; 4] = *b"SGNT";
/// Protocol version carried in every frame header (private, like
/// [`MAGIC`]).
const VERSION: u8 = 2;
/// Fixed header size in bytes (magic + version + opcode + id + length).
pub const HEADER_LEN: usize = 18;
/// Hard cap on a frame's payload. A declared length above this is a
/// frame-level protocol violation: the stream cannot be resynchronized
/// (the length cannot be trusted enough to skip), so the connection is
/// rejected after a best-effort error response.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Request and response opcodes. Requests use the low range, responses
/// the high range; the split is cosmetic (frames are direction-typed by
/// who sent them) but makes captures self-describing. Retired numbers
/// (`0x04`–`0x06`, `0x86`) are never reused: a peer that sends one gets
/// the same typed `BadRequest` as for any unknown opcode.
pub mod opcode {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// KGQ query, optionally session-constrained.
    pub const QUERY: u8 = 0x02;
    /// `WriteBatch` commit through the write-ahead log.
    pub const COMMIT: u8 = 0x03;
    /// `GraphRead::resolve_name`.
    pub const RESOLVE_NAME: u8 = 0x07;
    /// `GraphRead::record`.
    pub const RECORD: u8 = 0x08;
    /// `FleetRouter::generation`: the fleet's version.
    pub const GENERATION: u8 = 0x09;

    /// Reply to [`PING`].
    pub const PONG: u8 = 0x81;
    /// KGQ result (entities or values).
    pub const RESULT: u8 = 0x82;
    /// Commit acknowledgement (LSN + session token).
    pub const COMMITTED: u8 = 0x83;
    /// Entity id list (resolve_name).
    pub const ENTITIES: u8 = 0x84;
    /// Scalar count (the fleet's version).
    pub const COUNT: u8 = 0x85;
    /// Optional entity record.
    pub const RECORD_HIT: u8 = 0x87;
    /// Typed failure for this request id; the connection stays usable.
    pub const ERROR: u8 = 0xE0;
    /// Admission control shed this request; retry after a backoff.
    pub const OVERLOADED: u8 = 0xE1;
    /// Retryable freshness/capacity miss (e.g. session wait timed out).
    pub const UNAVAILABLE: u8 = 0xE2;
}

/// Frame-level decode failures (see the module docs for the policy).
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed mid-frame: a header or payload was cut short.
    Torn {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The first four bytes were not the `SGNT` magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`]. Carries the
    /// parsed header so the server can still address its final error
    /// response to the offending request.
    Oversized {
        /// The declared payload length.
        declared: u32,
        /// Request id from the (well-formed) header.
        request_id: u64,
    },
    /// Underlying transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn { expected, got } => {
                write!(f, "torn frame: expected {expected} more bytes, got {got}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized { declared, .. } => write!(
                f,
                "oversized frame: declared payload {declared} exceeds {MAX_PAYLOAD}"
            ),
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: the header fields plus the raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen id, echoed on the response (the pipelining key).
    pub request_id: u64,
    /// Message opcode (see [`opcode`]).
    pub opcode: u8,
    /// Raw payload bytes (the opcode's binary body).
    pub payload: Vec<u8>,
}

/// Start a frame: the header with its length field still zero, and room
/// for a body of about `body_hint` bytes. Bodies are appended in place and
/// [`finish_frame`] patches the length.
fn begin_frame(request_id: u64, op: u8, body_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body_hint);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(op);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out
}

/// Patch the length of the body appended since [`begin_frame`]. A body
/// past `u32::MAX` declares `u32::MAX`: any reader refuses both as
/// [`FrameError::Oversized`].
fn finish_frame(mut out: Vec<u8>) -> Vec<u8> {
    let len = u32::try_from(out.len() - HEADER_LEN).unwrap_or(u32::MAX);
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encode one frame around raw payload bytes.
pub fn encode_frame(request_id: u64, op: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(request_id, op, payload.len());
    out.extend_from_slice(payload);
    finish_frame(out)
}

/// Most a reader reserves for a payload before any of it has arrived.
const READ_RESERVE: usize = 64 * 1024;

/// Read one frame. `Ok(None)` is a clean close (EOF on a frame
/// boundary); every other shortfall or malformation is a [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> std::result::Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if got == 0 {
        return Ok(None);
    }
    if got < HEADER_LEN {
        return Err(FrameError::Torn {
            expected: HEADER_LEN - got,
            got,
        });
    }
    let magic: [u8; 4] = header[0..4].try_into().expect("slice length");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let op = header[5];
    let request_id = u64::from_le_bytes(header[6..14].try_into().expect("slice length"));
    let len = u32::from_le_bytes(header[14..18].try_into().expect("slice length"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            declared: len,
            request_id,
        });
    }
    // The declared length is only a claim until the bytes arrive: the
    // buffer grows with what was received, not with what was announced.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    let got = r
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(FrameError::Io)?;
    if got < len {
        return Err(FrameError::Torn {
            expected: len - got,
            got,
        });
    }
    Ok(Some(Frame {
        request_id,
        opcode: op,
        payload,
    }))
}

/// Whether `buf` starts with a whole frame: [`read_frame`] over these
/// bytes returns without reading more. A header `read_frame` refuses
/// outright (bad magic or version, a declared length over
/// [`MAX_PAYLOAD`]) counts as whole, so the refusal never waits for bytes.
pub(crate) fn frame_buffered(buf: &[u8]) -> bool {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return false;
    };
    let len = u32::from_le_bytes(header[14..18].try_into().expect("slice length"));
    header[0..4] != MAGIC
        || header[4] != VERSION
        || len > MAX_PAYLOAD
        || buf.len() - HEADER_LEN >= len as usize
}

fn bad(msg: impl Into<String>) -> SagaError {
    SagaError::Storage(format!("bad wire payload: {}", msg.into()))
}

/// A presence/boolean byte: 0 or 1, anything else is garbage.
fn take_flag(bytes: &[u8], at: &mut usize) -> Result<bool> {
    match take_u8(bytes, at)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(format!("flag byte {other:#04x}"))),
    }
}

/// Entity-id list: count, then each id as the zig-zag varint of its
/// wrapping difference from the previous one (the first from 0).
fn push_ids(buf: &mut Vec<u8>, ids: &[EntityId]) {
    push_varint(buf, ids.len() as u64);
    let mut prev = 0u64;
    for id in ids {
        push_varint(buf, zigzag(id.0.wrapping_sub(prev) as i64));
        prev = id.0;
    }
}

fn take_ids(bytes: &[u8], at: &mut usize) -> Result<Vec<EntityId>> {
    let n = take_count(bytes, at, 1)?;
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(take_varint(bytes, at)?) as u64);
        ids.push(EntityId(prev));
    }
    Ok(ids)
}

// ---------------------------------------------------------------------------
// Triples and batches
// ---------------------------------------------------------------------------

/// Flag bits of an encoded triple.
const TRIPLE_HAS_REL: u8 = 1;
const TRIPLE_HAS_LOCALE: u8 = 2;
/// Fewest bytes an encoded triple occupies (subject tag + id, predicate,
/// flags, value tag, provenance count).
const MIN_TRIPLE_BYTES: usize = 6;
/// Bytes of one provenance entry at its smallest (source varint + trust).
const MIN_PROVENANCE_BYTES: usize = 5;

fn push_triple(buf: &mut Vec<u8>, triple: &ExtendedTriple) {
    match &triple.subject {
        SubjectRef::Kg(id) => {
            buf.push(0);
            push_varint(buf, id.0);
        }
        SubjectRef::Source(source, local) => {
            buf.push(1);
            push_varint(buf, u64::from(source.0));
            push_str(buf, local);
        }
    }
    push_str(buf, &triple.predicate.text());
    let mut flags = 0;
    if triple.rel.is_some() {
        flags |= TRIPLE_HAS_REL;
    }
    if triple.meta.locale.is_some() {
        flags |= TRIPLE_HAS_LOCALE;
    }
    buf.push(flags);
    if let Some(rel) = &triple.rel {
        push_varint(buf, u64::from(rel.rel_id.0));
        push_str(buf, &rel.rel_predicate.text());
    }
    push_value(buf, &triple.object);
    push_varint(buf, triple.meta.provenance.len() as u64);
    for st in &triple.meta.provenance {
        push_varint(buf, u64::from(st.source.0));
        buf.extend_from_slice(&st.trust.to_bits().to_le_bytes());
    }
    if let Some(locale) = triple.meta.locale {
        push_str(buf, &locale.text());
    }
}

fn take_triple(bytes: &[u8], at: &mut usize) -> Result<ExtendedTriple> {
    let subject = match take_u8(bytes, at)? {
        0 => SubjectRef::Kg(EntityId(take_varint(bytes, at)?)),
        1 => {
            let source = SourceId(take_u32(bytes, at)?);
            SubjectRef::source(source, take_str(bytes, at)?)
        }
        other => return Err(bad(format!("unknown subject tag {other}"))),
    };
    let predicate = intern(take_str(bytes, at)?);
    let flags = take_u8(bytes, at)?;
    if flags & !(TRIPLE_HAS_REL | TRIPLE_HAS_LOCALE) != 0 {
        return Err(bad(format!("unknown triple flags {flags:#04x}")));
    }
    let rel = if flags & TRIPLE_HAS_REL != 0 {
        Some(RelPart {
            rel_id: RelId(take_u32(bytes, at)?),
            rel_predicate: intern(take_str(bytes, at)?),
        })
    } else {
        None
    };
    let object = take_value(bytes, at)?;
    let n = take_count(bytes, at, MIN_PROVENANCE_BYTES)?;
    let provenance = (0..n)
        .map(|_| {
            let source = SourceId(take_u32(bytes, at)?);
            let trust: [u8; 4] = take_slice(bytes, at, 4)?
                .try_into()
                .expect("take_slice returned 4 bytes");
            Ok(SourceTrust {
                source,
                trust: f32::from_bits(u32::from_le_bytes(trust)),
            })
        })
        .collect::<Result<Provenance>>()?;
    let locale = if flags & TRIPLE_HAS_LOCALE != 0 {
        Some(intern(take_str(bytes, at)?))
    } else {
        None
    };
    Ok(ExtendedTriple {
        subject,
        predicate,
        rel,
        object,
        meta: FactMeta { provenance, locale },
    })
}

/// One serializable write operation — the subset of
/// [`WriteOp`](saga_core::WriteOp) that can cross a process boundary
/// (record-mutation closures and volatile overwrites stay in-process;
/// curation services own the former, ingest pipelines the latter).
#[derive(Clone, Debug, PartialEq)]
pub enum WireOp {
    /// Non-destructive fact upsert.
    Upsert(ExtendedTriple),
    /// Record a `same_as` link from a source entity to a KG entity.
    Link {
        /// The source namespace.
        source: SourceId,
        /// Source-local entity id.
        local_id: String,
        /// The KG entity it resolves to.
        entity: EntityId,
    },
    /// Remove every attribution of a source.
    RetractSource(SourceId),
    /// Drop one source entity's contribution.
    RetractSourceEntity {
        /// The source namespace.
        source: SourceId,
        /// Source-local entity id.
        local_id: String,
    },
}

/// Fewest bytes an encoded op occupies (`RetractSource`: tag + source).
const MIN_OP_BYTES: usize = 2;

fn push_wire_op(buf: &mut Vec<u8>, op: &WireOp) {
    match op {
        WireOp::Upsert(triple) => {
            buf.push(0);
            push_triple(buf, triple);
        }
        WireOp::Link {
            source,
            local_id,
            entity,
        } => {
            buf.push(1);
            push_varint(buf, u64::from(source.0));
            push_str(buf, local_id);
            push_varint(buf, entity.0);
        }
        WireOp::RetractSource(source) => {
            buf.push(2);
            push_varint(buf, u64::from(source.0));
        }
        WireOp::RetractSourceEntity { source, local_id } => {
            buf.push(3);
            push_varint(buf, u64::from(source.0));
            push_str(buf, local_id);
        }
    }
}

fn take_wire_op(bytes: &[u8], at: &mut usize) -> Result<WireOp> {
    Ok(match take_u8(bytes, at)? {
        0 => WireOp::Upsert(take_triple(bytes, at)?),
        1 => WireOp::Link {
            source: SourceId(take_u32(bytes, at)?),
            local_id: take_str(bytes, at)?.to_string(),
            entity: EntityId(take_varint(bytes, at)?),
        },
        2 => WireOp::RetractSource(SourceId(take_u32(bytes, at)?)),
        3 => WireOp::RetractSourceEntity {
            source: SourceId(take_u32(bytes, at)?),
            local_id: take_str(bytes, at)?.to_string(),
        },
        other => return Err(bad(format!("unknown wire op tag {other}"))),
    })
}

/// A serializable write batch: the networked twin of
/// [`WriteBatch`], built with the same consuming
/// combinators and lowered into one on the server side (where it commits
/// through the write-ahead `LoggedWriter` like any in-process producer).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireBatch {
    ops: Vec<WireOp>,
}

impl WireBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage a fact upsert.
    pub fn upsert(mut self, triple: ExtendedTriple) -> Self {
        self.ops.push(WireOp::Upsert(triple));
        self
    }

    /// Stage a `same_as` link.
    pub fn link(mut self, source: SourceId, local_id: impl Into<String>, entity: EntityId) -> Self {
        self.ops.push(WireOp::Link {
            source,
            local_id: local_id.into(),
            entity,
        });
        self
    }

    /// Stage a whole-source retraction.
    pub fn retract_source(mut self, source: SourceId) -> Self {
        self.ops.push(WireOp::RetractSource(source));
        self
    }

    /// Stage a single source-entity retraction.
    pub fn retract_source_entity(mut self, source: SourceId, local_id: impl Into<String>) -> Self {
        self.ops.push(WireOp::RetractSourceEntity {
            source,
            local_id: local_id.into(),
        });
        self
    }

    /// Stage a named, typed entity (mirrors `WriteBatch::named_entity`).
    pub fn named_entity(
        self,
        id: EntityId,
        name: &str,
        entity_type: &str,
        source: SourceId,
        trust: f32,
    ) -> Self {
        use saga_core::well_known;
        let meta = FactMeta::from_source(source, trust);
        self.upsert(ExtendedTriple::simple(
            id,
            intern(well_known::NAME),
            Value::str(name),
            meta.clone(),
        ))
        .upsert(ExtendedTriple::simple(
            id,
            intern(well_known::TYPE),
            Value::str(entity_type),
            meta,
        ))
    }

    /// Push one op (loop-friendly form of the combinators).
    pub fn push(&mut self, op: WireOp) {
        self.ops.push(op);
    }

    /// Number of staged ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The staged ops.
    pub fn ops(&self) -> &[WireOp] {
        &self.ops
    }

    /// Lower into the in-process [`WriteBatch`] the server commits.
    pub fn into_write_batch(self) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for op in self.ops {
            match op {
                WireOp::Upsert(t) => batch = batch.upsert(t),
                WireOp::Link {
                    source,
                    local_id,
                    entity,
                } => batch = batch.link(source, local_id, entity),
                WireOp::RetractSource(s) => batch = batch.retract_source(s),
                WireOp::RetractSourceEntity { source, local_id } => {
                    batch = batch.retract_source_entity(source, local_id)
                }
            }
        }
        batch
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. Each variant maps to one opcode; the payload is
/// the variant's binary body.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe. The payload is empty; whatever bytes a peer puts
    /// there are ignored.
    Ping,
    /// One KGQ query, optionally constrained by a session token
    /// (read-your-writes over the wire).
    Query {
        /// KGQ text.
        text: String,
        /// Serve only at or past this token's LSN.
        session: Option<SessionToken>,
    },
    /// Commit a batch through the server's write-ahead `LoggedWriter`.
    Commit(WireBatch),
    /// `GraphRead::resolve_name` on the routed fleet.
    ResolveName(String),
    /// `GraphRead::record` on the routed fleet.
    Record(EntityId),
    /// `FleetRouter::generation`: the fleet's version, the highest
    /// watermark any replica has published.
    Generation,
}

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => opcode::PING,
            Request::Query { .. } => opcode::QUERY,
            Request::Commit(_) => opcode::COMMIT,
            Request::ResolveName(_) => opcode::RESOLVE_NAME,
            Request::Record(_) => opcode::RECORD,
            Request::Generation => opcode::GENERATION,
        }
    }

    fn push_body(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query { text, session } => {
                push_str(buf, text);
                buf.push(u8::from(session.is_some()));
                if let Some(token) = session {
                    push_varint(buf, token.lsn().0);
                }
            }
            Request::Commit(batch) => {
                push_varint(buf, batch.len() as u64);
                for op in batch.ops() {
                    push_wire_op(buf, op);
                }
            }
            Request::ResolveName(name) => push_str(buf, name),
            Request::Record(id) => push_varint(buf, id.0),
            Request::Ping | Request::Generation => {}
        }
    }

    /// Encode into a full frame under `request_id`. A body past
    /// [`MAX_PAYLOAD`] still encodes; a reader refuses it as
    /// [`FrameError::Oversized`] (the client checks before sending).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let body_hint = match self {
            Request::Commit(batch) => 8 + 48 * batch.len(),
            Request::Query { text, .. } => 16 + text.len(),
            _ => 64,
        };
        let mut out = begin_frame(request_id, self.opcode(), body_hint);
        self.push_body(&mut out);
        finish_frame(out)
    }
}

/// Payload-level garbage includes bytes left over after a whole body.
fn expect_end(bytes: &[u8], at: usize) -> Result<()> {
    if at == bytes.len() {
        Ok(())
    } else {
        Err(bad(format!("{} trailing bytes", bytes.len() - at)))
    }
}

/// Decode a request frame (the server side of the codec). Unknown
/// opcodes and malformed payloads are payload-level errors: the caller
/// answers them with [`Response::Error`] and keeps the connection.
pub fn decode_request(frame: &Frame) -> Result<Request> {
    let (bytes, at) = (frame.payload.as_slice(), &mut 0usize);
    let request = match frame.opcode {
        // Ping ignores its body.
        opcode::PING => return Ok(Request::Ping),
        opcode::QUERY => Request::Query {
            text: take_str(bytes, at)?.to_string(),
            session: if take_flag(bytes, at)? {
                Some(SessionToken::at(Lsn(take_varint(bytes, at)?)))
            } else {
                None
            },
        },
        opcode::COMMIT => {
            let n = take_count(bytes, at, MIN_OP_BYTES)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(take_wire_op(bytes, at)?);
            }
            Request::Commit(WireBatch { ops })
        }
        opcode::RESOLVE_NAME => Request::ResolveName(take_str(bytes, at)?.to_string()),
        opcode::RECORD => Request::Record(EntityId(take_varint(bytes, at)?)),
        opcode::GENERATION => Request::Generation,
        other => return Err(bad(format!("unknown request opcode {other:#04x}"))),
    };
    expect_end(bytes, *at)?;
    Ok(request)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A successful commit acknowledgement: where the batch landed in the
/// log and the session token that makes it readable-by-its-writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Committed {
    /// The commit's log sequence number.
    pub lsn: Lsn,
    /// Read-your-writes token (`SessionToken::at(lsn)`), ready to thread
    /// into subsequent [`Request::Query`] calls.
    pub token: SessionToken,
    /// Facts the commit added.
    pub facts_added: u64,
    /// Facts the commit removed.
    pub facts_removed: u64,
}

/// Classified request failure carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame decoded but the request was malformed (unknown opcode,
    /// bad payload). Not retryable as-is.
    BadRequest,
    /// KGQ parse/compile/execution failure. Not retryable as-is.
    Query,
    /// Server-side failure executing a well-formed request.
    Internal,
}

impl ErrorKind {
    fn tag(self) -> u8 {
        match self {
            ErrorKind::BadRequest => 0,
            ErrorKind::Query => 1,
            ErrorKind::Internal => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<ErrorKind> {
        match tag {
            0 => Ok(ErrorKind::BadRequest),
            1 => Ok(ErrorKind::Query),
            2 => Ok(ErrorKind::Internal),
            other => Err(bad(format!("unknown error kind {other}"))),
        }
    }
}

/// One server response. The overload/unavailable variants are *typed* so
/// clients can implement backoff without string-matching messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// KGQ result.
    Result(QueryResult),
    /// Commit acknowledgement.
    Committed(Committed),
    /// Entity id list (resolve_name).
    Entities(Vec<EntityId>),
    /// Scalar count (the fleet's version).
    Count(u64),
    /// Optional record (None: entity unknown to the routed replica).
    Record(Option<EntityRecord>),
    /// The request failed; the connection remains usable.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control shed the request (queue full or the global
    /// in-flight cap reached). Retryable after a backoff; the server did
    /// *not* execute anything.
    Overloaded {
        /// Human-readable detail (which limit tripped).
        message: String,
        /// Server-suggested minimum backoff in milliseconds. The
        /// shedding side knows its congestion better than any client
        /// schedule; pools floor their exponential backoff at this.
        backoff_hint_ms: u64,
    },
    /// Retryable freshness/capacity miss — the wire form of
    /// [`SagaError::Unavailable`] (e.g. a session wait that timed out
    /// because no replica reached the token's LSN in time).
    Unavailable {
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// This response's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Pong => opcode::PONG,
            Response::Result(_) => opcode::RESULT,
            Response::Committed(_) => opcode::COMMITTED,
            Response::Entities(_) => opcode::ENTITIES,
            Response::Count(_) => opcode::COUNT,
            Response::Record(_) => opcode::RECORD_HIT,
            Response::Error { .. } => opcode::ERROR,
            Response::Overloaded { .. } => opcode::OVERLOADED,
            Response::Unavailable { .. } => opcode::UNAVAILABLE,
        }
    }

    fn push_body(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong => {}
            Response::Result(QueryResult::Entities(ids)) => {
                buf.push(0);
                push_ids(buf, ids);
            }
            Response::Result(QueryResult::Values(values)) => {
                buf.push(1);
                push_varint(buf, values.len() as u64);
                for value in values {
                    push_value(buf, value);
                }
            }
            Response::Committed(c) => {
                push_varint(buf, c.lsn.0);
                push_varint(buf, c.token.lsn().0);
                push_varint(buf, c.facts_added);
                push_varint(buf, c.facts_removed);
            }
            Response::Entities(ids) => push_ids(buf, ids),
            Response::Count(n) => push_varint(buf, *n),
            Response::Record(None) => buf.push(0),
            Response::Record(Some(record)) => {
                buf.push(1);
                push_varint(buf, record.id.0);
                push_varint(buf, record.triples.len() as u64);
                for triple in &record.triples {
                    push_triple(buf, triple);
                }
            }
            Response::Error { kind, message } => {
                buf.push(kind.tag());
                push_str(buf, message);
            }
            Response::Overloaded {
                message,
                backoff_hint_ms,
            } => {
                push_str(buf, message);
                push_varint(buf, *backoff_hint_ms);
            }
            Response::Unavailable { message } => push_str(buf, message),
        }
    }

    /// Encode into a full frame under `request_id`. A body past
    /// [`MAX_PAYLOAD`] cannot be framed; the request is answered with a
    /// typed `Internal` error instead, so the worker that produced it
    /// still responds and gives back its admission slot.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let body_hint = match self {
            Response::Result(QueryResult::Entities(ids)) | Response::Entities(ids) => {
                16 + 2 * ids.len()
            }
            Response::Record(Some(record)) => 16 + 48 * record.triples.len(),
            _ => 64,
        };
        let mut out = begin_frame(request_id, self.opcode(), body_hint);
        self.push_body(&mut out);
        if out.len() - HEADER_LEN > MAX_PAYLOAD as usize {
            return Response::Error {
                kind: ErrorKind::Internal,
                message: "response exceeds MAX_PAYLOAD".to_string(),
            }
            .encode(request_id);
        }
        finish_frame(out)
    }
}

/// Decode a response frame (the client side of the codec).
pub fn decode_response(frame: &Frame) -> Result<Response> {
    let (bytes, at) = (frame.payload.as_slice(), &mut 0usize);
    let response = match frame.opcode {
        opcode::PONG => Response::Pong,
        opcode::RESULT => Response::Result(match take_u8(bytes, at)? {
            0 => QueryResult::Entities(take_ids(bytes, at)?),
            1 => {
                let n = take_count(bytes, at, 1)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(take_value(bytes, at)?);
                }
                QueryResult::Values(values)
            }
            other => return Err(bad(format!("unknown result tag {other}"))),
        }),
        opcode::COMMITTED => Response::Committed(Committed {
            lsn: Lsn(take_varint(bytes, at)?),
            token: SessionToken::at(Lsn(take_varint(bytes, at)?)),
            facts_added: take_varint(bytes, at)?,
            facts_removed: take_varint(bytes, at)?,
        }),
        opcode::ENTITIES => Response::Entities(take_ids(bytes, at)?),
        opcode::COUNT => Response::Count(take_varint(bytes, at)?),
        opcode::RECORD_HIT => Response::Record(if take_flag(bytes, at)? {
            let mut record = EntityRecord::new(EntityId(take_varint(bytes, at)?));
            let n = take_count(bytes, at, MIN_TRIPLE_BYTES)?;
            record.triples.reserve(n);
            for _ in 0..n {
                record.triples.push(take_triple(bytes, at)?);
            }
            Some(record)
        } else {
            None
        }),
        opcode::ERROR => Response::Error {
            kind: ErrorKind::from_tag(take_u8(bytes, at)?)?,
            message: take_str(bytes, at)?.to_string(),
        },
        opcode::OVERLOADED => Response::Overloaded {
            message: take_str(bytes, at)?.to_string(),
            backoff_hint_ms: take_varint(bytes, at)?,
        },
        opcode::UNAVAILABLE => Response::Unavailable {
            message: take_str(bytes, at)?.to_string(),
        },
        other => return Err(bad(format!("unknown response opcode {other:#04x}"))),
    };
    expect_end(bytes, *at)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(bytes: &[u8]) -> Frame {
        read_frame(&mut &bytes[..]).unwrap().unwrap()
    }

    /// Values the JSON payloads could not carry (anything ≥ 2⁶³ panicked
    /// their encoder) are ordinary varints now.
    #[test]
    fn the_whole_u64_range_roundtrips() {
        let max = EntityId(u64::MAX);
        let requests = [
            Request::Record(max),
            Request::Query {
                text: String::new(),
                session: Some(SessionToken::at(Lsn(u64::MAX))),
            },
            Request::Commit(WireBatch::new().link(SourceId(u32::MAX), "m", max).upsert(
                ExtendedTriple::simple(max, intern("p"), Value::Entity(max), FactMeta::default()),
            )),
        ];
        for req in requests {
            assert_eq!(
                decode_request(&frame_of(&req.encode(u64::MAX))).unwrap(),
                req
            );
        }
        let responses = [
            Response::Count(u64::MAX),
            Response::Entities(vec![max, EntityId(0), max, max]),
            Response::Result(QueryResult::Entities(vec![EntityId(1), max])),
            Response::Record(Some(EntityRecord::new(max))),
            Response::Committed(Committed {
                lsn: Lsn(u64::MAX),
                token: SessionToken::at(Lsn(u64::MAX)),
                facts_added: u64::MAX,
                facts_removed: u64::MAX,
            }),
            Response::Overloaded {
                message: String::new(),
                backoff_hint_ms: u64::MAX,
            },
        ];
        for resp in responses {
            assert_eq!(
                decode_response(&frame_of(&resp.encode(u64::MAX))).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn wire_batch_lowers_to_the_same_ops() {
        use saga_core::WriteOp;
        let triple = ExtendedTriple::composite(
            EntityId(7),
            intern("educated_at"),
            RelId(2),
            intern("school"),
            Value::str("UW"),
            FactMeta::localized(SourceId(3), 0.75, "en"),
        );
        let batch = WireBatch::new()
            .upsert(triple.clone())
            .link(SourceId(2), "m42", EntityId(1))
            .retract_source(SourceId(5));
        let lowered = batch.into_write_batch();
        let ops = lowered.into_ops();
        assert_eq!(ops.len(), 3);
        assert!(matches!(&ops[0], WriteOp::Upsert(t) if *t == triple));
        assert!(matches!(&ops[1], WriteOp::Link { source, local_id, entity }
                if *source == SourceId(2) && local_id == "m42" && *entity == EntityId(1)));
        assert!(matches!(&ops[2], WriteOp::RetractSource(SourceId(5))));
    }

    // -- frames ------------------------------------------------------------

    #[test]
    fn clean_eof_is_none_not_an_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &empty[..]).unwrap().is_none());
    }

    #[test]
    fn a_frame_cut_at_any_byte_is_torn() {
        let bytes = Request::ResolveName("seed song".into()).encode(1);
        for cut in 1..bytes.len() {
            match read_frame(&mut &bytes[..cut]).unwrap_err() {
                FrameError::Torn { expected, got } => {
                    let whole = if cut < HEADER_LEN {
                        HEADER_LEN
                    } else {
                        bytes.len()
                    };
                    let start = if cut < HEADER_LEN { 0 } else { HEADER_LEN };
                    assert_eq!((expected, got), (whole - cut, cut - start), "cut {cut}");
                }
                other => panic!("cut {cut}: expected Torn, got {other}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let mut bytes = Request::Ping.encode(1);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()).unwrap_err(),
            FrameError::BadMagic(_)
        ));
        // The JSON-payload version 1 is as foreign as any other.
        for version in [1, 99] {
            let mut bytes = Request::Ping.encode(1);
            bytes[4] = version;
            assert!(matches!(
                read_frame(&mut bytes.as_slice()).unwrap_err(),
                FrameError::BadVersion(v) if v == version
            ));
        }
    }

    #[test]
    fn oversized_length_is_detected_with_the_request_id() {
        let mut bytes = Request::Ping.encode(77);
        let huge = (MAX_PAYLOAD + 1).to_le_bytes();
        bytes[14..18].copy_from_slice(&huge);
        match read_frame(&mut bytes.as_slice()).unwrap_err() {
            FrameError::Oversized {
                declared,
                request_id,
            } => {
                assert_eq!(declared, MAX_PAYLOAD + 1);
                assert_eq!(
                    request_id, 77,
                    "header parsed far enough to address a reject"
                );
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    /// A response too large to frame is answered, typed, on its own id —
    /// the worker that built it neither panics nor keeps its slot.
    #[test]
    fn a_response_past_max_payload_encodes_as_a_typed_internal_error() {
        // Alternating extremes: every delta is a ten-byte varint.
        let ids: Vec<EntityId> = (0..MAX_PAYLOAD as u64 / 10 + 2)
            .map(|i| EntityId(if i % 2 == 0 { 0 } else { u64::MAX / 2 }))
            .collect();
        for resp in [
            Response::Entities(ids.clone()),
            Response::Result(QueryResult::Entities(ids)),
        ] {
            let frame = frame_of(&resp.encode(31));
            assert_eq!(frame.request_id, 31);
            match decode_response(&frame).unwrap() {
                Response::Error { kind, message } => {
                    assert_eq!(kind, ErrorKind::Internal);
                    assert!(message.contains("MAX_PAYLOAD"), "{message}");
                }
                other => panic!("expected Internal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn pipelined_frames_parse_back_to_back_from_one_stream() {
        let mut stream = Vec::new();
        stream.extend(Request::Ping.encode(1));
        stream.extend(Request::ResolveName("x".into()).encode(2));
        stream.extend(Request::Generation.encode(3));
        let mut cursor = stream.as_slice();
        let ids: Vec<u64> = std::iter::from_fn(|| read_frame(&mut cursor).unwrap())
            .map(|f| f.request_id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    /// Two frames cut at every offset: walking the buffered prefix the way
    /// a server batch does — read while a whole frame is buffered — stops
    /// exactly at the last frame boundary the cut passed.
    #[test]
    fn a_whole_frame_is_buffered_exactly_at_frame_boundaries() {
        let first = Request::ResolveName("seed song".into()).encode(1);
        let stream = [first.clone(), Request::Ping.encode(2)].concat();
        for cut in 0..=stream.len() {
            let mut rest = &stream[..cut];
            let mut ids = Vec::new();
            while frame_buffered(rest) {
                ids.push(read_frame(&mut rest).unwrap().unwrap().request_id);
            }
            let (whole, boundary) = if cut == stream.len() {
                (vec![1, 2], stream.len())
            } else if cut >= first.len() {
                (vec![1], first.len())
            } else {
                (vec![], 0)
            };
            assert_eq!((ids, cut - rest.len()), (whole, boundary), "cut {cut}");
        }
    }

    /// A header `read_frame` refuses is "whole": the refusal comes from the
    /// header alone, so nothing waits for a body that will never arrive.
    #[test]
    fn a_refused_header_counts_as_a_whole_frame() {
        let mut oversized = Request::Ping.encode(9);
        oversized[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut bad_magic = Request::ResolveName("x".into()).encode(9);
        bad_magic[0] = b'X';
        for header in [oversized, bad_magic] {
            let header = &header[..HEADER_LEN];
            assert!(frame_buffered(header));
            assert!(read_frame(&mut &header[..]).is_err());
        }
        let honest = Request::ResolveName("x".into()).encode(9);
        assert!(!frame_buffered(&honest[..HEADER_LEN]));
    }

    // -- garbage -----------------------------------------------------------

    #[test]
    fn garbage_opcode_is_a_payload_level_error() {
        let frame = Frame {
            request_id: 5,
            opcode: 0x7F,
            payload: b"{}".to_vec(),
        };
        assert!(decode_request(&frame).is_err());
        assert!(decode_response(&frame).is_err());
        // The frame itself reads fine — only the decode rejects it.
        let bytes = encode_frame(5, 0x7F, b"{}");
        let read = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(read.opcode, 0x7F);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for (op, payload) in [
            (opcode::QUERY, &[][..]),
            (opcode::QUERY, &[1, b'q'][..]),    // no session flag
            (opcode::QUERY, &[1, b'q', 2][..]), // flag neither 0 nor 1
            (opcode::QUERY, &[1, 0xff, 0][..]), // text is not UTF-8
            (opcode::QUERY, b"{\"q\":\"x\"}"),  // a version-1 body
            (opcode::COMMIT, &[1, 9][..]),      // unknown op tag
            (opcode::COMMIT, &[1, 2, 0x80, 0x80, 0x80, 0x80, 0x10][..]), // source > u32
            (opcode::RECORD, &[][..]),
            (opcode::GENERATION, &[0][..]), // trailing byte
            (opcode::RECORD, &[4, 0][..]),  // trailing byte
            // Retired opcodes, each with the body it once carried.
            (0x04, &[0, 1, b'x'][..]),    // postings of a name probe
            (0x05, &[3, 1, b't'][..]),    // selectivity of a type probe
            (0x06, &[0, 1, b'x', 1][..]), // membership of an id
        ] {
            let frame = Frame {
                request_id: 1,
                opcode: op,
                payload: payload.to_vec(),
            };
            assert!(
                decode_request(&frame).is_err(),
                "accepted {op:#04x} {payload:02x?}"
            );
        }
    }
}
