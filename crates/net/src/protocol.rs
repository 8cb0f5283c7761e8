//! The wire protocol: length-prefixed binary frames with JSON payloads.
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
//! The magic is `SGNT`, the version is [`VERSION`]. The request id is
//! chosen by the client and echoed verbatim on the response — that is the
//! whole pipelining contract: a client may have any number of requests in
//! flight on one connection, the server may answer them in any order, and
//! the id is what reunites them. Payloads are compact JSON over
//! [`saga_core::json`], reusing the [`saga_core::wire`] codecs for values
//! and session tokens — no new serialization registry.
//!
//! # Rejection policy
//!
//! Decoding failures split into two tiers, so a bad request cannot take
//! down a connection and a bad connection cannot take down the server:
//!
//! * **Payload-level garbage** (unknown opcode, undecodable JSON, a
//!   request payload that fails validation) still arrived in a
//!   well-formed frame. The server answers that request id with a typed
//!   [`Response::Error`] and the connection keeps serving.
//! * **Frame-level garbage** (wrong magic, unsupported version, a
//!   declared payload length over [`MAX_PAYLOAD`], a peer that
//!   disconnects mid-frame) leaves the byte stream unsynchronizable —
//!   there is no trustworthy length to skip. The server sends a final
//!   error frame when it still knows the request id (oversized lengths
//!   arrive with a parsed header) and closes *that connection only*;
//!   the acceptor, the worker pool and every other connection are
//!   unaffected. The fault suite in `tests/protocol_faults.rs` drills
//!   exactly these paths.

use std::io::{Read, Write};

use saga_core::json::{self, Json};
use saga_core::wire::{
    session_token_from_json, session_token_to_json, value_from_json, value_to_json,
};
use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, Lsn, ProbeKey, RelId, RelPart,
    Result, SagaError, SessionToken, SourceId, SourceTrust, SubjectRef, Value, WriteBatch,
};
use saga_live::QueryResult;

/// Frame magic: the first four bytes of every saga-net frame.
pub const MAGIC: [u8; 4] = *b"SGNT";
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes (magic + version + opcode + id + length).
pub const HEADER_LEN: usize = 18;
/// Hard cap on a frame's payload. A declared length above this is a
/// frame-level protocol violation: the stream cannot be resynchronized
/// (the length cannot be trusted enough to skip), so the connection is
/// rejected after a best-effort error response.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Request and response opcodes. Requests use the low range, responses
/// the high range; the split is cosmetic (frames are direction-typed by
/// who sent them) but makes captures self-describing.
pub mod opcode {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// KGQ query, optionally session-constrained.
    pub const QUERY: u8 = 0x02;
    /// `GraphWrite` batch commit through the write-ahead log.
    pub const COMMIT: u8 = 0x03;
    /// `GraphRead::postings`.
    pub const POSTINGS: u8 = 0x04;
    /// `GraphRead::selectivity`.
    pub const SELECTIVITY: u8 = 0x05;
    /// `GraphRead::probe_contains`.
    pub const PROBE_CONTAINS: u8 = 0x06;
    /// `GraphRead::resolve_name`.
    pub const RESOLVE_NAME: u8 = 0x07;
    /// `GraphRead::record`.
    pub const RECORD: u8 = 0x08;
    /// `GraphRead::generation`.
    pub const GENERATION: u8 = 0x09;

    /// Reply to [`PING`].
    pub const PONG: u8 = 0x81;
    /// KGQ result (entities or values).
    pub const RESULT: u8 = 0x82;
    /// Commit acknowledgement (LSN + session token).
    pub const COMMITTED: u8 = 0x83;
    /// Entity id list (postings / resolve_name).
    pub const ENTITIES: u8 = 0x84;
    /// Scalar count (selectivity / generation).
    pub const COUNT: u8 = 0x85;
    /// Boolean (probe_contains).
    pub const BOOL: u8 = 0x86;
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
    /// The first four bytes were not [`MAGIC`].
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
    /// Raw payload bytes (compact JSON).
    pub payload: Vec<u8>,
}

/// Encode one frame into its wire bytes.
pub fn encode_frame(request_id: u64, op: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payload exceeds u32 range");
    assert!(len <= MAX_PAYLOAD, "refusing to encode an oversized frame");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(op);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w` (single `write_all`, so a frame is never
/// interleaved with another writer's bytes as long as callers serialize
/// on the stream — the server's per-connection write lock does exactly
/// that).
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    op: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(&encode_frame(request_id, op, payload))
}

/// Read exactly `buf.len()` bytes, reporting how many arrived before EOF.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Read one frame. `Ok(None)` is a clean close (EOF on a frame
/// boundary); every other shortfall or malformation is a [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> std::result::Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_full(r, &mut header).map_err(FrameError::Io)?;
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
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload).map_err(FrameError::Io)?;
    if got < payload.len() {
        return Err(FrameError::Torn {
            expected: payload.len() - got,
            got,
        });
    }
    Ok(Some(Frame {
        request_id,
        opcode: op,
        payload,
    }))
}

fn bad(msg: impl Into<String>) -> SagaError {
    SagaError::Storage(format!("bad wire payload: {}", msg.into()))
}

fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn get_str(json: &Json, key: &str) -> Result<String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string field {key}")))
}

fn get_u64(json: &Json, key: &str) -> Result<u64> {
    let raw = json
        .get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| bad(format!("missing integer field {key}")))?;
    u64::try_from(raw).map_err(|_| bad(format!("negative field {key}")))
}

fn entity_ids_to_json(ids: &[EntityId]) -> Json {
    Json::Array(
        ids.iter()
            .map(|id| Json::Int(i64::try_from(id.0).expect("entity id exceeds wire range")))
            .collect(),
    )
}

fn entity_ids_from_json(json: &Json) -> Result<Vec<EntityId>> {
    json.as_array()
        .ok_or_else(|| bad("entity list is not an array"))?
        .iter()
        .map(|j| {
            let raw = j.as_i64().ok_or_else(|| bad("entity id is not an int"))?;
            u64::try_from(raw)
                .map(EntityId)
                .map_err(|_| bad("negative entity id"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Triples and batches
// ---------------------------------------------------------------------------

fn subject_to_json(subject: &SubjectRef) -> Json {
    match subject {
        SubjectRef::Kg(id) => Json::Int(i64::try_from(id.0).expect("entity id exceeds wire range")),
        SubjectRef::Source(source, local) => obj([
            ("src", Json::Int(i64::from(source.0))),
            ("local", Json::str(local.as_ref())),
        ]),
    }
}

fn subject_from_json(json: &Json) -> Result<SubjectRef> {
    match json {
        Json::Int(raw) => {
            let id = u64::try_from(*raw).map_err(|_| bad("negative subject id"))?;
            Ok(SubjectRef::Kg(EntityId(id)))
        }
        Json::Object(_) => {
            let source = get_u64(json, "src")?;
            let source = u32::try_from(source).map_err(|_| bad("subject source exceeds u32"))?;
            Ok(SubjectRef::source(
                SourceId(source),
                get_str(json, "local")?,
            ))
        }
        _ => Err(bad("subject is neither id nor source ref")),
    }
}

/// Encode one [`ExtendedTriple`] into its wire JSON form. Object values
/// reuse the oplog's [`value_to_json`] codec; provenance ships as aligned
/// `[source, trust]` pairs.
pub fn triple_to_json(triple: &ExtendedTriple) -> Json {
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("s", subject_to_json(&triple.subject)),
        ("p", Json::str(triple.predicate.text())),
        ("o", value_to_json(&triple.object)),
    ];
    if let Some(rel) = &triple.rel {
        fields.push((
            "rel",
            obj([
                ("id", Json::Int(i64::from(rel.rel_id.0))),
                ("pred", Json::str(rel.rel_predicate.text())),
            ]),
        ));
    }
    fields.push((
        "prov",
        Json::Array(
            triple
                .meta
                .provenance
                .iter()
                .map(|st| {
                    Json::Array(vec![
                        Json::Int(i64::from(st.source.0)),
                        Json::Float(f64::from(st.trust)),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(locale) = triple.meta.locale {
        fields.push(("locale", Json::str(locale.text())));
    }
    obj(fields)
}

/// Decode an [`ExtendedTriple`] from its wire JSON form.
pub fn triple_from_json(json: &Json) -> Result<ExtendedTriple> {
    let subject = subject_from_json(json.get("s").ok_or_else(|| bad("triple missing subject"))?)?;
    let predicate = intern(&get_str(json, "p")?);
    let object = value_from_json(json.get("o").ok_or_else(|| bad("triple missing object"))?)?;
    let rel = match json.get("rel") {
        None => None,
        Some(rel) => {
            let id = get_u64(rel, "id")?;
            let id = u32::try_from(id).map_err(|_| bad("rel id exceeds u32"))?;
            Some(RelPart {
                rel_id: RelId(id),
                rel_predicate: intern(&get_str(rel, "pred")?),
            })
        }
    };
    let provenance = json
        .get("prov")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("triple missing prov"))?
        .iter()
        .map(|pair| {
            let [source, trust] = pair
                .as_array()
                .ok_or_else(|| bad("prov entry is not an array"))?
            else {
                return Err(bad("prov entry is not a 2-array"));
            };
            let source = source.as_i64().ok_or_else(|| bad("prov source"))?;
            let source = u32::try_from(source).map_err(|_| bad("prov source exceeds u32"))?;
            let trust = trust.as_f64().ok_or_else(|| bad("prov trust"))? as f32;
            Ok(SourceTrust {
                source: SourceId(source),
                trust,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let locale = match json.get("locale") {
        None => None,
        Some(l) => Some(intern(
            l.as_str().ok_or_else(|| bad("locale is not a string"))?,
        )),
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

fn wire_op_to_json(op: &WireOp) -> Json {
    match op {
        WireOp::Upsert(t) => obj([("op", Json::str("upsert")), ("triple", triple_to_json(t))]),
        WireOp::Link {
            source,
            local_id,
            entity,
        } => obj([
            ("op", Json::str("link")),
            ("source", Json::Int(i64::from(source.0))),
            ("local", Json::str(local_id)),
            (
                "entity",
                Json::Int(i64::try_from(entity.0).expect("entity id exceeds wire range")),
            ),
        ]),
        WireOp::RetractSource(source) => obj([
            ("op", Json::str("retract_source")),
            ("source", Json::Int(i64::from(source.0))),
        ]),
        WireOp::RetractSourceEntity { source, local_id } => obj([
            ("op", Json::str("retract_entity")),
            ("source", Json::Int(i64::from(source.0))),
            ("local", Json::str(local_id)),
        ]),
    }
}

fn source_from(json: &Json) -> Result<SourceId> {
    let raw = get_u64(json, "source")?;
    u32::try_from(raw)
        .map(SourceId)
        .map_err(|_| bad("source id exceeds u32"))
}

fn wire_op_from_json(json: &Json) -> Result<WireOp> {
    match get_str(json, "op")?.as_str() {
        "upsert" => Ok(WireOp::Upsert(triple_from_json(
            json.get("triple")
                .ok_or_else(|| bad("upsert missing triple"))?,
        )?)),
        "link" => Ok(WireOp::Link {
            source: source_from(json)?,
            local_id: get_str(json, "local")?,
            entity: EntityId(get_u64(json, "entity")?),
        }),
        "retract_source" => Ok(WireOp::RetractSource(source_from(json)?)),
        "retract_entity" => Ok(WireOp::RetractSourceEntity {
            source: source_from(json)?,
            local_id: get_str(json, "local")?,
        }),
        other => Err(bad(format!("unknown wire op {other}"))),
    }
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
// Probes
// ---------------------------------------------------------------------------

/// Encode a [`ProbeKey`] into its wire JSON form.
pub fn probe_to_json(probe: &ProbeKey) -> Json {
    match probe {
        ProbeKey::Name(n) => obj([("kind", Json::str("name")), ("name", Json::str(n))]),
        ProbeKey::Literal(pred, value) => obj([
            ("kind", Json::str("literal")),
            ("pred", Json::str(pred.text())),
            ("value", value_to_json(value)),
        ]),
        ProbeKey::Edge(pred, target) => obj([
            ("kind", Json::str("edge")),
            ("pred", Json::str(pred.text())),
            (
                "target",
                Json::Int(i64::try_from(target.0).expect("entity id exceeds wire range")),
            ),
        ]),
        ProbeKey::Type(ty) => obj([("kind", Json::str("type")), ("type", Json::str(ty.text()))]),
    }
}

/// Decode a [`ProbeKey`] from its wire JSON form.
pub fn probe_from_json(json: &Json) -> Result<ProbeKey> {
    match get_str(json, "kind")?.as_str() {
        "name" => Ok(ProbeKey::Name(get_str(json, "name")?)),
        "literal" => Ok(ProbeKey::Literal(
            intern(&get_str(json, "pred")?),
            value_from_json(
                json.get("value")
                    .ok_or_else(|| bad("literal probe missing value"))?,
            )?,
        )),
        "edge" => Ok(ProbeKey::Edge(
            intern(&get_str(json, "pred")?),
            EntityId(get_u64(json, "target")?),
        )),
        "type" => Ok(ProbeKey::Type(intern(&get_str(json, "type")?))),
        other => Err(bad(format!("unknown probe kind {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. Each variant maps to one opcode; the payload is
/// the variant's JSON form.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe. The payload is an empty object; whatever fields a
    /// peer puts there are ignored.
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
    /// `GraphRead::postings` on the routed fleet.
    Postings(ProbeKey),
    /// `GraphRead::selectivity` on the routed fleet.
    Selectivity(ProbeKey),
    /// `GraphRead::probe_contains` on the routed fleet.
    ProbeContains(ProbeKey, EntityId),
    /// `GraphRead::resolve_name` on the routed fleet.
    ResolveName(String),
    /// `GraphRead::record` on the routed fleet.
    Record(EntityId),
    /// `GraphRead::generation` of the fleet (sum of slot generations).
    Generation,
}

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => opcode::PING,
            Request::Query { .. } => opcode::QUERY,
            Request::Commit(_) => opcode::COMMIT,
            Request::Postings(_) => opcode::POSTINGS,
            Request::Selectivity(_) => opcode::SELECTIVITY,
            Request::ProbeContains(..) => opcode::PROBE_CONTAINS,
            Request::ResolveName(_) => opcode::RESOLVE_NAME,
            Request::Record(_) => opcode::RECORD,
            Request::Generation => opcode::GENERATION,
        }
    }

    /// This request's JSON payload.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query { text, session } => {
                let mut fields = vec![("q", Json::str(text))];
                if let Some(token) = session {
                    fields.push(("session", session_token_to_json(token)));
                }
                obj(fields)
            }
            Request::Commit(batch) => obj([(
                "ops",
                Json::Array(batch.ops().iter().map(wire_op_to_json).collect()),
            )]),
            Request::Postings(probe) | Request::Selectivity(probe) => {
                obj([("probe", probe_to_json(probe))])
            }
            Request::ProbeContains(probe, id) => obj([
                ("probe", probe_to_json(probe)),
                (
                    "id",
                    Json::Int(i64::try_from(id.0).expect("entity id exceeds wire range")),
                ),
            ]),
            Request::ResolveName(name) => obj([("name", Json::str(name))]),
            Request::Record(id) => obj([(
                "id",
                Json::Int(i64::try_from(id.0).expect("entity id exceeds wire range")),
            )]),
            Request::Ping | Request::Generation => obj([]),
        }
    }

    /// Encode into a full frame under `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        encode_frame(
            request_id,
            self.opcode(),
            self.to_json().to_string_compact().as_bytes(),
        )
    }
}

fn parse_payload(frame: &Frame) -> Result<Json> {
    let text = std::str::from_utf8(&frame.payload).map_err(|_| bad("payload is not UTF-8"))?;
    json::parse(text).map_err(|e| bad(e.to_string()))
}

// ---------------------------------------------------------------------------
// Entity-list fast path
// ---------------------------------------------------------------------------
//
// Entity-id lists are the protocol's hottest payload (every FIND result,
// postings snapshot and name resolution is one), and for wide scans they
// reach hundreds of ids per response. Building a `Json` tree per id —
// then walking it back on the client — costs more than executing the
// query. These two functions produce and consume the *same* compact JSON
// the tree path emits (`{"<key>":[1,2,3]}`), just without the tree: the
// encoder formats digits straight into the payload string, the decoder
// parses digits straight out of it. On any shape mismatch the decoder
// returns `None` and the caller falls back to the general JSON parser,
// so foreign (tree-encoded) peers interoperate unchanged.

fn ids_payload(key: &str, ids: &[EntityId]) -> String {
    let mut out = Vec::with_capacity(key.len() + 6 + ids.len() * 8);
    out.extend_from_slice(b"{\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":[");
    let mut digits = [0u8; 20];
    for (at, id) in ids.iter().enumerate() {
        if at > 0 {
            out.push(b',');
        }
        // Manual itoa: digits emitted right-to-left into a stack buffer.
        let mut n = id.0;
        let mut pos = digits.len();
        loop {
            pos -= 1;
            digits[pos] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[pos..]);
    }
    out.extend_from_slice(b"]}");
    // Only ASCII was appended.
    String::from_utf8(out).expect("ascii payload")
}

fn parse_ids_payload(payload: &[u8], key: &str) -> Option<Vec<EntityId>> {
    let body = payload
        .strip_prefix(b"{\"")?
        .strip_prefix(key.as_bytes())?
        .strip_prefix(b"\":[")?
        .strip_suffix(b"]}")?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    // Manual digit scan — this is the client's hottest loop for wide
    // entity results; str::parse per token measurably lags it.
    let mut ids = Vec::with_capacity(body.len() / 4 + 1);
    let mut cur: u64 = 0;
    let mut len = 0u8;
    for &b in body {
        match b {
            b'0'..=b'9' => {
                // A value over u64::MAX is not ours; the checked math
                // catches 20-digit overflows the length guard can't.
                if len >= 20 {
                    return None;
                }
                cur = cur.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                len += 1;
            }
            b',' if len > 0 => {
                ids.push(EntityId(cur));
                cur = 0;
                len = 0;
            }
            _ => return None,
        }
    }
    if len == 0 {
        return None; // trailing comma
    }
    ids.push(EntityId(cur));
    Some(ids)
}

/// Decode a request frame (the server side of the codec). Unknown
/// opcodes and malformed payloads are payload-level errors: the caller
/// answers them with [`Response::Error`] and keeps the connection.
pub fn decode_request(frame: &Frame) -> Result<Request> {
    let json = parse_payload(frame)?;
    match frame.opcode {
        opcode::PING => Ok(Request::Ping),
        opcode::QUERY => Ok(Request::Query {
            text: get_str(&json, "q")?,
            session: match json.get("session") {
                None => None,
                Some(token) => Some(session_token_from_json(token)?),
            },
        }),
        opcode::COMMIT => {
            let ops = json
                .get("ops")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("commit missing ops"))?
                .iter()
                .map(wire_op_from_json)
                .collect::<Result<Vec<_>>>()?;
            Ok(Request::Commit(WireBatch { ops }))
        }
        opcode::POSTINGS => Ok(Request::Postings(probe_from_json(
            json.get("probe").ok_or_else(|| bad("missing probe"))?,
        )?)),
        opcode::SELECTIVITY => Ok(Request::Selectivity(probe_from_json(
            json.get("probe").ok_or_else(|| bad("missing probe"))?,
        )?)),
        opcode::PROBE_CONTAINS => Ok(Request::ProbeContains(
            probe_from_json(json.get("probe").ok_or_else(|| bad("missing probe"))?)?,
            EntityId(get_u64(&json, "id")?),
        )),
        opcode::RESOLVE_NAME => Ok(Request::ResolveName(get_str(&json, "name")?)),
        opcode::RECORD => Ok(Request::Record(EntityId(get_u64(&json, "id")?))),
        opcode::GENERATION => Ok(Request::Generation),
        other => Err(bad(format!("unknown request opcode {other:#04x}"))),
    }
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
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Query => "query",
            ErrorKind::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Result<ErrorKind> {
        match s {
            "bad_request" => Ok(ErrorKind::BadRequest),
            "query" => Ok(ErrorKind::Query),
            "internal" => Ok(ErrorKind::Internal),
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
    /// Entity id list (postings / resolve_name).
    Entities(Vec<EntityId>),
    /// Scalar count (selectivity / generation).
    Count(u64),
    /// Boolean (probe_contains).
    Bool(bool),
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
            Response::Bool(_) => opcode::BOOL,
            Response::Record(_) => opcode::RECORD_HIT,
            Response::Error { .. } => opcode::ERROR,
            Response::Overloaded { .. } => opcode::OVERLOADED,
            Response::Unavailable { .. } => opcode::UNAVAILABLE,
        }
    }

    /// This response's JSON payload.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong => obj([]),
            Response::Result(QueryResult::Entities(ids)) => {
                obj([("entities", entity_ids_to_json(ids))])
            }
            Response::Result(QueryResult::Values(values)) => obj([(
                "values",
                Json::Array(values.iter().map(value_to_json).collect()),
            )]),
            Response::Committed(c) => obj([
                (
                    "lsn",
                    Json::Int(i64::try_from(c.lsn.0).expect("lsn exceeds wire range")),
                ),
                ("token", session_token_to_json(&c.token)),
                (
                    "facts_added",
                    Json::Int(i64::try_from(c.facts_added).expect("count exceeds wire range")),
                ),
                (
                    "facts_removed",
                    Json::Int(i64::try_from(c.facts_removed).expect("count exceeds wire range")),
                ),
            ]),
            Response::Entities(ids) => obj([("ids", entity_ids_to_json(ids))]),
            Response::Count(n) => obj([(
                "n",
                Json::Int(i64::try_from(*n).expect("count exceeds wire range")),
            )]),
            Response::Bool(b) => obj([("v", Json::Bool(*b))]),
            Response::Record(rec) => obj([(
                "record",
                match rec {
                    None => Json::Null,
                    Some(rec) => obj([
                        (
                            "id",
                            Json::Int(
                                i64::try_from(rec.id.0).expect("entity id exceeds wire range"),
                            ),
                        ),
                        (
                            "triples",
                            Json::Array(rec.triples.iter().map(triple_to_json).collect()),
                        ),
                    ]),
                },
            )]),
            Response::Error { kind, message } => obj([
                ("kind", Json::str(kind.as_str())),
                ("message", Json::str(message)),
            ]),
            Response::Overloaded {
                message,
                backoff_hint_ms,
            } => obj([
                ("message", Json::str(message)),
                (
                    "backoff_hint_ms",
                    Json::Int(i64::try_from(*backoff_hint_ms).expect("hint exceeds wire range")),
                ),
            ]),
            Response::Unavailable { message } => obj([("message", Json::str(message))]),
        }
    }

    /// Encode into a full frame under `request_id`. Entity-list payloads
    /// skip the `Json` tree (see the fast-path functions above); the
    /// bytes are identical either way.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let payload = match self {
            Response::Result(QueryResult::Entities(ids)) => ids_payload("entities", ids),
            Response::Entities(ids) => ids_payload("ids", ids),
            other => other.to_json().to_string_compact(),
        };
        encode_frame(request_id, self.opcode(), payload.as_bytes())
    }
}

/// Decode a response frame (the client side of the codec).
pub fn decode_response(frame: &Frame) -> Result<Response> {
    // Entity-list fast path first; fall through to the tree parser for
    // every other shape (including value results on the same opcode).
    match frame.opcode {
        opcode::RESULT => {
            if let Some(ids) = parse_ids_payload(&frame.payload, "entities") {
                return Ok(Response::Result(QueryResult::Entities(ids)));
            }
        }
        opcode::ENTITIES => {
            if let Some(ids) = parse_ids_payload(&frame.payload, "ids") {
                return Ok(Response::Entities(ids));
            }
        }
        _ => {}
    }
    let json = parse_payload(frame)?;
    match frame.opcode {
        opcode::PONG => Ok(Response::Pong),
        opcode::RESULT => {
            if let Some(entities) = json.get("entities") {
                Ok(Response::Result(QueryResult::Entities(
                    entity_ids_from_json(entities)?,
                )))
            } else if let Some(values) = json.get("values") {
                let values = values
                    .as_array()
                    .ok_or_else(|| bad("values is not an array"))?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<Value>>>()?;
                Ok(Response::Result(QueryResult::Values(values)))
            } else {
                Err(bad("result has neither entities nor values"))
            }
        }
        opcode::COMMITTED => Ok(Response::Committed(Committed {
            lsn: Lsn(get_u64(&json, "lsn")?),
            token: session_token_from_json(json.get("token").ok_or_else(|| bad("missing token"))?)?,
            facts_added: get_u64(&json, "facts_added")?,
            facts_removed: get_u64(&json, "facts_removed")?,
        })),
        opcode::ENTITIES => Ok(Response::Entities(entity_ids_from_json(
            json.get("ids").ok_or_else(|| bad("missing ids"))?,
        )?)),
        opcode::COUNT => Ok(Response::Count(get_u64(&json, "n")?)),
        opcode::BOOL => Ok(Response::Bool(
            json.get("v")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("missing bool"))?,
        )),
        opcode::RECORD_HIT => {
            let rec = json.get("record").ok_or_else(|| bad("missing record"))?;
            match rec {
                Json::Null => Ok(Response::Record(None)),
                rec => {
                    let id = EntityId(get_u64(rec, "id")?);
                    let triples = rec
                        .get("triples")
                        .and_then(Json::as_array)
                        .ok_or_else(|| bad("record missing triples"))?
                        .iter()
                        .map(triple_from_json)
                        .collect::<Result<Vec<_>>>()?;
                    let mut record = EntityRecord::new(id);
                    record.triples = triples;
                    Ok(Response::Record(Some(record)))
                }
            }
        }
        opcode::ERROR => Ok(Response::Error {
            kind: ErrorKind::parse(&get_str(&json, "kind")?)?,
            message: get_str(&json, "message")?,
        }),
        opcode::OVERLOADED => Ok(Response::Overloaded {
            message: get_str(&json, "message")?,
            // Optional on decode: version-1 peers without the field get
            // hint 0 (meaning "no hint", client schedule applies).
            backoff_hint_ms: get_u64(&json, "backoff_hint_ms").unwrap_or(0),
        }),
        opcode::UNAVAILABLE => Ok(Response::Unavailable {
            message: get_str(&json, "message")?,
        }),
        other => Err(bad(format!("unknown response opcode {other:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple() -> ExtendedTriple {
        ExtendedTriple::composite(
            EntityId(7),
            intern("educated_at"),
            RelId(2),
            intern("school"),
            Value::str("UW"),
            FactMeta::localized(SourceId(3), 0.75, "en"),
        )
    }

    fn roundtrip_request(req: Request) -> Request {
        let bytes = req.encode(42);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.opcode, req.opcode());
        decode_request(&frame).unwrap()
    }

    fn roundtrip_response(resp: Response) -> Response {
        let bytes = resp.encode(9);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.request_id, 9);
        decode_response(&frame).unwrap()
    }

    #[test]
    fn every_request_kind_roundtrips() {
        let requests = vec![
            Request::Ping,
            Request::Query {
                text: "FIND song WHERE name = \"x\"".into(),
                session: Some(SessionToken::at(Lsn(12))),
            },
            Request::Query {
                text: "GET AKG:1 . name".into(),
                session: None,
            },
            Request::Commit(
                WireBatch::new()
                    .named_entity(EntityId(1), "Billie", "artist", SourceId(1), 0.9)
                    .upsert(triple())
                    .link(SourceId(2), "m42", EntityId(1))
                    .retract_source(SourceId(5))
                    .retract_source_entity(SourceId(2), "m43"),
            ),
            Request::Postings(ProbeKey::Name("springfield".into())),
            Request::Selectivity(ProbeKey::Literal(intern("born"), Value::Int(2001))),
            Request::ProbeContains(
                ProbeKey::Edge(intern("located_in"), EntityId(9)),
                EntityId(4),
            ),
            Request::ResolveName("Billie Eilish".into()),
            Request::Record(EntityId(17)),
            Request::Generation,
        ];
        for req in requests {
            assert_eq!(roundtrip_request(req.clone()), req, "{req:?}");
        }
    }

    #[test]
    fn ping_encodes_to_an_empty_object_and_roundtrips() {
        let bytes = Request::Ping.encode(3);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.opcode, opcode::PING);
        assert_eq!(frame.payload, b"{}");
        assert_eq!(decode_request(&frame).unwrap(), Request::Ping);
    }

    #[test]
    fn every_response_kind_roundtrips() {
        let mut record = EntityRecord::new(EntityId(7));
        record.triples.push(triple());
        let responses = vec![
            Response::Pong,
            Response::Result(QueryResult::Entities(vec![EntityId(1), EntityId(2)])),
            Response::Result(QueryResult::Values(vec![
                Value::str("x"),
                Value::Float(f64::NAN),
                Value::Entity(EntityId(3)),
            ])),
            Response::Committed(Committed {
                lsn: Lsn(88),
                token: SessionToken::at(Lsn(88)),
                facts_added: 5,
                facts_removed: 1,
            }),
            Response::Entities(vec![EntityId(4)]),
            Response::Count(1234),
            Response::Bool(true),
            Response::Record(None),
            Response::Record(Some(record)),
            Response::Error {
                kind: ErrorKind::Query,
                message: "parse error".into(),
            },
            Response::Overloaded {
                message: "queue full".into(),
                backoff_hint_ms: 25,
            },
            Response::Unavailable {
                message: "session wait timed out".into(),
            },
        ];
        for resp in responses {
            assert_eq!(roundtrip_response(resp.clone()), resp, "{resp:?}");
        }
    }

    #[test]
    fn wire_batch_lowers_to_the_same_ops() {
        use saga_core::WriteOp;
        let batch = WireBatch::new()
            .upsert(triple())
            .link(SourceId(2), "m42", EntityId(1))
            .retract_source(SourceId(5));
        let lowered = batch.into_write_batch();
        let ops = lowered.into_ops();
        assert_eq!(ops.len(), 3);
        assert!(matches!(&ops[0], WriteOp::Upsert(t) if *t == triple()));
        assert!(matches!(&ops[1], WriteOp::Link { source, local_id, entity }
                if *source == SourceId(2) && local_id == "m42" && *entity == EntityId(1)));
        assert!(matches!(&ops[2], WriteOp::RetractSource(SourceId(5))));
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &empty[..]).unwrap().is_none());
    }

    #[test]
    fn torn_header_and_payload_are_detected() {
        let bytes = Request::ResolveName("seed song".into()).encode(1);
        // Cut inside the header.
        let err = read_frame(&mut &bytes[..7]).unwrap_err();
        assert!(matches!(err, FrameError::Torn { .. }), "{err}");
        // Cut inside the payload.
        let err = read_frame(&mut &bytes[..HEADER_LEN + 2]).unwrap_err();
        assert!(matches!(err, FrameError::Torn { .. }), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let mut bytes = Request::Ping.encode(1);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()).unwrap_err(),
            FrameError::BadMagic(_)
        ));
        let mut bytes = Request::Ping.encode(1);
        bytes[4] = 99;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()).unwrap_err(),
            FrameError::BadVersion(99)
        ));
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

    #[test]
    fn garbage_opcode_is_a_payload_level_error() {
        let frame = Frame {
            request_id: 5,
            opcode: 0x7F,
            payload: b"{}".to_vec(),
        };
        assert!(decode_request(&frame).is_err());
        // The frame itself reads fine — only the decode rejects it.
        let bytes = encode_frame(5, 0x7F, b"{}");
        let read = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(read.opcode, 0x7F);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for (op, payload) in [
            (opcode::QUERY, "{}"),
            (opcode::QUERY, "not json"),
            (opcode::COMMIT, r#"{"ops":[{"op":"mutate"}]}"#),
            (opcode::POSTINGS, r#"{"probe":{"kind":"warp"}}"#),
            (opcode::RECORD, r#"{"id":-4}"#),
            (
                opcode::PROBE_CONTAINS,
                r#"{"probe":{"kind":"name","name":"x"}}"#,
            ),
        ] {
            let frame = Frame {
                request_id: 1,
                opcode: op,
                payload: payload.as_bytes().to_vec(),
            };
            assert!(
                decode_request(&frame).is_err(),
                "accepted {op:#04x} {payload}"
            );
        }
    }

    #[test]
    fn entity_list_fast_path_matches_the_tree_codec() {
        for ids in [
            vec![],
            vec![EntityId(0)],
            vec![
                EntityId(1),
                EntityId(42),
                EntityId(u64::from(u32::MAX)),
                EntityId(1 << 60),
                EntityId(i64::MAX as u64), // largest wire-representable id
            ],
            (0..777).map(EntityId).collect(),
        ] {
            // Fast-path bytes are identical to the Json-tree bytes.
            for (resp, key) in [
                (
                    Response::Result(QueryResult::Entities(ids.clone())),
                    "entities",
                ),
                (Response::Entities(ids.clone()), "ids"),
            ] {
                let fast = resp.encode(1);
                let tree = encode_frame(
                    1,
                    resp.opcode(),
                    resp.to_json().to_string_compact().as_bytes(),
                );
                assert_eq!(fast, tree, "wire bytes diverge for {key} x{}", ids.len());
                assert_eq!(roundtrip_response(resp.clone()), resp);
            }
        }
        // Garbage near-miss payloads fall back (and then fail in the
        // tree parser) instead of mis-decoding.
        for bad in [
            "{\"entities\":[1,,2]}",
            "{\"entities\":[1,2,]}",
            "{\"entities\":[99999999999999999999999]}",
            // Exactly 20 digits, one past u64::MAX: must not wrap to 0.
            "{\"entities\":[18446744073709551616]}",
            "{\"entities\":[1 ,2]}",
        ] {
            assert!(
                parse_ids_payload(bad.as_bytes(), "entities").is_none(),
                "{bad}"
            );
        }
        // Whitespace variants from a foreign encoder still decode via
        // the general parser.
        let frame = Frame {
            request_id: 1,
            opcode: opcode::RESULT,
            payload: b"{ \"entities\" : [ 1 , 2 ] }".to_vec(),
        };
        assert_eq!(
            decode_response(&frame).unwrap(),
            Response::Result(QueryResult::Entities(vec![EntityId(1), EntityId(2)]))
        );
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
}
