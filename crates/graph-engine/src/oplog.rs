//! The durable, delta-carrying operation log (§3.1).
//!
//! "A distributed shared log is used to coordinate continuous ingest,
//! ensuring that all stores eventually index the same KG updates in the
//! same order. … Log sequence numbers (LSN) are used as a distributed
//! synchronization primitive."
//!
//! The log is append-only; every operation gets the next LSN and LSNs are
//! **dense**: operation *k* carries `Lsn(k)`, gaps and reordering are
//! rejected at load time. Each [`IngestOp`] carries the full
//! [`Delta`] payloads of the mutation in the
//! self-contained [`wire`](saga_core::wire) form (predicate names + typed
//! object values), so a follower can rebuild a derived store **from the log
//! alone** — no consultation of the producing `KnowledgeGraph`. The
//! id-level `changed` list is retained as a cheap summary for consumers
//! that only need invalidation keys.
//!
//! # Durability
//!
//! An optional file sink makes operations durable as JSON lines. The
//! [`FlushPolicy`] decides how hard an append lands before `append`
//! returns: [`FlushPolicy::Flush`] pushes the line to the OS (survives
//! process crash), [`FlushPolicy::Fsync`] additionally `fsync`s (survives
//! power loss, at a per-append latency cost). A restart tolerates a torn
//! *final* line — the tail a crashed writer half-wrote is truncated away
//! with a warning instead of poisoning the whole log — while corruption
//! anywhere else, and any LSN gap or reordering, fails the restart loudly.
//!
//! # Following
//!
//! [`LogFollower`] is the cursor API derived stores replay through: it
//! tracks a watermark LSN (everything at or below it has been consumed),
//! polls contiguous batches, and verifies density so a replica can never
//! silently skip an operation. Bulk replay uses
//! [`LogFollower::poll_with`], which shares the log's entries instead of
//! cloning every delta payload out of the log. The log's one lock covers
//! appends, compaction and the pointer copies that hand a batch out —
//! never a follower's apply, so producers do not wait for replicas and
//! replicas do not wait for each other.
//!
//! # Compaction
//!
//! The log grows without bound until a checkpoint
//! ([`saga_core::checkpoint`]) durably covers a prefix;
//! [`OperationLog::compact_to`] then drops that prefix, leaving a marker
//! line so a reopened log still knows its first retained LSN
//! ([`OperationLog::compacted_through`]). LSNs never restart — a follower
//! whose watermark has fallen behind the compaction point gets a loud
//! contiguity error and must re-bootstrap from a checkpoint. See
//! `docs/checkpoint.md` for the retention contract.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use saga_core::json::Json;
use saga_core::wire::{delta_from_json, delta_to_json};
use saga_core::{Delta, EntityId, Lsn, Result, SagaError, SourceId};

/// What happened in one ingest operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Entities were created or had facts fused.
    Upsert,
    /// Entities were deleted.
    Delete,
    /// A whole source was retracted (license revocation / data deletion).
    RetractSource(SourceId),
    /// A source's volatile partition was overwritten.
    VolatileOverwrite(SourceId),
}

/// One entry of the operation log.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestOp {
    /// Sequence number (assigned by the log).
    pub lsn: Lsn,
    /// Operation kind.
    pub kind: OpKind,
    /// The entities whose derived state must be refreshed — the id-level
    /// summary (cheap invalidation keys).
    pub changed: Vec<EntityId>,
    /// The full change payload: what the operation did to the index, in
    /// replayable form. Log-shipped stores apply these directly.
    pub deltas: Vec<Delta>,
}

impl IngestOp {
    /// The ids this op touches: `changed` when populated, otherwise derived
    /// from the delta payloads (sorted, deduplicated).
    pub fn changed_entities(&self) -> Vec<EntityId> {
        if !self.changed.is_empty() {
            return self.changed.clone();
        }
        let mut ids: Vec<EntityId> = self.deltas.iter().map(|d| d.entity).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Serialize to the durable JSON-line format, e.g.
    /// `{"changed":[1],"deltas":[{"add":[["name","X"]],"del":[],"entity":1}],"kind":"Upsert","lsn":7}`.
    /// The `deltas` key is omitted when empty, which keeps id-only entries
    /// byte-compatible with logs written before deltas were carried.
    pub fn to_json(&self) -> String {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("lsn".to_string(), Json::Int(self.lsn.0 as i64));
        let kind = match self.kind {
            OpKind::Upsert => Json::str("Upsert"),
            OpKind::Delete => Json::str("Delete"),
            OpKind::RetractSource(src) => {
                Json::Object([("RetractSource".to_string(), Json::Int(src.0 as i64))].into())
            }
            OpKind::VolatileOverwrite(src) => {
                Json::Object([("VolatileOverwrite".to_string(), Json::Int(src.0 as i64))].into())
            }
        };
        obj.insert("kind".to_string(), kind);
        obj.insert(
            "changed".to_string(),
            Json::Array(self.changed.iter().map(|e| Json::Int(e.0 as i64)).collect()),
        );
        if !self.deltas.is_empty() {
            obj.insert(
                "deltas".to_string(),
                Json::Array(self.deltas.iter().map(delta_to_json).collect()),
            );
        }
        Json::Object(obj).to_string_compact()
    }

    /// Parse the format produced by [`to_json`](Self::to_json).
    pub fn from_json(line: &str) -> Result<IngestOp> {
        let bad = |m: &str| SagaError::Storage(format!("bad op entry: {m}"));
        let v = saga_core::json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let lsn = v
            .get("lsn")
            .and_then(Json::as_i64)
            .ok_or_else(|| bad("missing lsn"))?;
        let kind = match v.get("kind").ok_or_else(|| bad("missing kind"))? {
            Json::Str(s) => match s.as_str() {
                "Upsert" => OpKind::Upsert,
                "Delete" => OpKind::Delete,
                other => return Err(bad(&format!("unknown kind {other}"))),
            },
            Json::Object(map) => {
                let (tag, value) = map.iter().next().ok_or_else(|| bad("empty kind"))?;
                let src = value.as_i64().ok_or_else(|| bad("kind source id"))?;
                let src = SourceId(u32::try_from(src).map_err(|_| bad("source id range"))?);
                match tag.as_str() {
                    "RetractSource" => OpKind::RetractSource(src),
                    "VolatileOverwrite" => OpKind::VolatileOverwrite(src),
                    other => return Err(bad(&format!("unknown kind {other}"))),
                }
            }
            _ => return Err(bad("kind shape")),
        };
        let changed = v
            .get("changed")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing changed"))?
            .iter()
            .map(|item| item.as_i64().map(|i| EntityId(i as u64)))
            .collect::<Option<Vec<EntityId>>>()
            .ok_or_else(|| bad("changed ids"))?;
        let deltas = match v.get("deltas") {
            None => Vec::new(),
            Some(json) => json
                .as_array()
                .ok_or_else(|| bad("deltas shape"))?
                .iter()
                .map(delta_from_json)
                .collect::<Result<Vec<Delta>>>()?,
        };
        Ok(IngestOp {
            lsn: Lsn(lsn as u64),
            kind,
            changed,
            deltas,
        })
    }
}

/// How hard an append lands in the durable sink before returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Flush the line to the OS on every append: survives a process crash.
    /// The default.
    #[default]
    Flush,
    /// Flush **and** `fsync` on every append: survives power loss, at a
    /// per-append latency cost. Use for the system-of-record deployment;
    /// batch producers can stay on [`Flush`](FlushPolicy::Flush) and call
    /// [`OperationLog::sync`] at batch boundaries.
    Fsync,
}

struct LogInner {
    /// Retained entries: `entries[i]` carries `Lsn(base + i + 1)`. Shared
    /// so a follower's batch outlives the lock (and a racing compaction).
    entries: Vec<Arc<IngestOp>>,
    /// Operations compacted away from the front of the log: the first
    /// retained LSN is `base + 1`. Every op `<= base` is covered by a
    /// durable checkpoint (see [`OperationLog::compact_to`]).
    base: u64,
    sink: Option<BufWriter<fs::File>>,
}

/// The append-only, optionally durable operation log.
pub struct OperationLog {
    inner: Mutex<LogInner>,
    path: Option<PathBuf>,
    policy: FlushPolicy,
    /// Bytes discarded from the tail of the durable file at open because
    /// the final line was torn (half-written by a crashed producer).
    truncated_tail_bytes: u64,
}

impl std::fmt::Debug for OperationLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperationLog")
            .field("head", &self.head())
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish()
    }
}

impl OperationLog {
    /// An in-memory log (tests, benchmarks).
    pub fn in_memory() -> Self {
        OperationLog {
            inner: Mutex::new(LogInner {
                entries: Vec::new(),
                base: 0,
                sink: None,
            }),
            path: None,
            policy: FlushPolicy::Flush,
            truncated_tail_bytes: 0,
        }
    }

    /// A file-backed log at `path` with the default [`FlushPolicy::Flush`]
    /// (appends if the file exists).
    pub fn durable(path: &Path) -> Result<Self> {
        Self::durable_with(path, FlushPolicy::default())
    }

    /// A file-backed log at `path` with an explicit flush policy.
    ///
    /// Replay tolerates a torn final line: the tail is truncated away (and
    /// counted in [`truncated_tail_bytes`](Self::truncated_tail_bytes))
    /// instead of failing the restart. Corruption before the final line,
    /// and any LSN gap or reordering, is a hard error.
    pub fn durable_with(path: &Path, policy: FlushPolicy) -> Result<Self> {
        let mut entries: Vec<Arc<IngestOp>> = Vec::new();
        let mut base = 0u64;
        let mut truncated_tail_bytes = 0u64;
        if path.exists() {
            let text = fs::read_to_string(path)?;
            let mut offset = 0usize; // byte offset of the current line
            let mut line_no = 0usize;
            let mut saw_op = false;
            for line in text.split_inclusive('\n') {
                line_no += 1;
                let start = offset;
                offset += line.len();
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                // A compacted log opens with a marker recording how many
                // operations the dropped prefix held. Only valid before
                // any op (compaction rewrites the whole file atomically).
                if let Some(compacted) = parse_compaction_marker(trimmed) {
                    if saw_op || base != 0 {
                        return Err(SagaError::Storage(format!(
                            "compaction marker at line {line_no} is not the log head"
                        )));
                    }
                    base = compacted;
                    continue;
                }
                let op = match IngestOp::from_json(trimmed) {
                    Ok(op) => op,
                    Err(e) => {
                        // Only a torn *tail* is recoverable: everything
                        // after this line must be whitespace.
                        if text[offset..].trim().is_empty() {
                            truncated_tail_bytes = (text.len() - start) as u64;
                            eprintln!(
                                "oplog: truncating torn final line {line_no} of {} \
                                 ({truncated_tail_bytes} bytes): {e}",
                                path.display()
                            );
                            let file = fs::OpenOptions::new().write(true).open(path)?;
                            file.set_len(start as u64)?;
                            file.sync_data()?;
                            break;
                        }
                        return Err(SagaError::Storage(format!(
                            "corrupt log line {line_no}: {e}"
                        )));
                    }
                };
                saw_op = true;
                let expected = Lsn(base + entries.len() as u64 + 1);
                if op.lsn != expected {
                    return Err(SagaError::Storage(format!(
                        "LSN discontinuity at line {line_no}: expected {expected:?}, found {:?} \
                         (log entries must be dense and ordered)",
                        op.lsn
                    )));
                }
                entries.push(Arc::new(op));
            }
        }
        let sink = BufWriter::new(
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        Ok(OperationLog {
            inner: Mutex::new(LogInner {
                entries,
                base,
                sink: Some(sink),
            }),
            path: Some(path.to_path_buf()),
            policy,
            truncated_tail_bytes,
        })
    }

    /// Append an id-only operation (no delta payload); returns its LSN.
    /// Prefer [`append_op`](Self::append_op) — id-only entries cannot feed
    /// log-shipped replicas.
    pub fn append(&self, kind: OpKind, changed: Vec<EntityId>) -> Result<Lsn> {
        self.append_with(kind, changed, Vec::new())
    }

    /// Append an operation carrying its full delta payload; the id-level
    /// `changed` summary is derived from the deltas.
    pub fn append_op(&self, kind: OpKind, deltas: Vec<Delta>) -> Result<Lsn> {
        let mut changed: Vec<EntityId> = deltas.iter().map(|d| d.entity).collect();
        changed.sort_unstable();
        changed.dedup();
        self.append_with(kind, changed, deltas)
    }

    /// Append with explicit `changed` summary and delta payload.
    pub fn append_with(
        &self,
        kind: OpKind,
        changed: Vec<EntityId>,
        deltas: Vec<Delta>,
    ) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        // Fires before any byte lands: an injected failure here is the
        // clean "append never happened" fault.
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_WRITE);
        let lsn = Lsn(inner.base + inner.entries.len() as u64 + 1);
        let op = IngestOp {
            lsn,
            kind,
            changed,
            deltas,
        };
        if let Some(sink) = inner.sink.as_mut() {
            writeln!(sink, "{}", op.to_json())?;
            sink.flush()?;
            if self.policy == FlushPolicy::Fsync {
                // Fires after the line is written but before it is made
                // durable — the power-loss-window fault.
                saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_FSYNC);
                sink.get_ref().sync_data()?;
            }
        }
        inner.entries.push(Arc::new(op));
        Ok(lsn)
    }

    /// Force buffered bytes to stable storage (a batch-boundary `fsync`
    /// for producers running [`FlushPolicy::Flush`]).
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_FSYNC);
        if let Some(sink) = inner.sink.as_mut() {
            sink.flush()?;
            sink.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// The LSN of the newest operation (`Lsn::ZERO` when empty).
    pub fn head(&self) -> Lsn {
        let inner = self.inner.lock();
        Lsn(inner.base + inner.entries.len() as u64)
    }

    /// The highest LSN removed by [`compact_to`](Self::compact_to)
    /// (`Lsn::ZERO` when nothing was ever compacted). Retained operations
    /// start at `compacted_through + 1`; a follower must resume at or
    /// above this watermark, which a checkpoint at the compaction LSN
    /// guarantees.
    pub fn compacted_through(&self) -> Lsn {
        Lsn(self.inner.lock().base)
    }

    /// All operations with `lsn > after`, in order — what an agent replays.
    pub fn read_after(&self, after: Lsn) -> Vec<IngestOp> {
        self.read_batch(after, usize::MAX)
    }

    /// At most `max` operations with `lsn > after`, in order, cloned out
    /// of the log. LSNs are dense, so this is a direct slice of the entry
    /// array. When `after` precedes the compaction point the result
    /// starts at the first *retained* op — followers detect the hole
    /// through their contiguity check. Bulk replay should prefer
    /// [`visit_batch`](Self::visit_batch), which does not clone payloads.
    pub fn read_batch(&self, after: Lsn, max: usize) -> Vec<IngestOp> {
        let (_, batch) = self.shared_batch(after, max);
        batch.iter().map(|op| IngestOp::clone(op)).collect()
    }

    /// Visit (at most `max` of) the operations with `lsn > after` in
    /// order, **without cloning them**: `f` borrows each entry. Returns
    /// how many were visited. This is the bulk-replay path — a
    /// `read_batch` clone of every delta payload costs an allocation stampede
    /// at 100k+ ops, all of it thrown away the moment the batch is
    /// applied. The log's lock is held only while the batch's pointers
    /// are copied out (O(batch)); `f` runs after it is released, so
    /// appenders and other followers never wait for an apply.
    pub fn visit_batch(&self, after: Lsn, max: usize, mut f: impl FnMut(&IngestOp)) -> usize {
        let (_, batch) = self.shared_batch(after, max);
        for op in &batch {
            f(op);
        }
        batch.len()
    }

    /// The compaction point and (at most `max` of) the entries with
    /// `lsn > after`, both read under one acquisition of the lock. The
    /// entries are shared, not copied: a batch stays valid after the lock
    /// is released, even if `compact_to` drops its ops from the log.
    fn shared_batch(&self, after: Lsn, max: usize) -> (Lsn, Vec<Arc<IngestOp>>) {
        let inner = self.inner.lock();
        let from = (after.0.saturating_sub(inner.base) as usize).min(inner.entries.len());
        let to = from.saturating_add(max).min(inner.entries.len());
        (Lsn(inner.base), inner.entries[from..to].to_vec())
    }

    /// Drop every operation with `lsn <= upto` — the retention step after
    /// a checkpoint at `upto` is durably published. Returns how many
    /// operations were removed (0 when `upto` is at or below the current
    /// compaction point). Compacting beyond the head is an error.
    ///
    /// Runs under the same lock as appends, so it is safe to call while
    /// producers are writing: an appender either lands before the rewrite
    /// (and is retained — its LSN is above `upto`) or after it. For
    /// durable logs the file is rewritten atomically (temp + rename) with
    /// a leading marker line recording the dropped prefix, mirroring the
    /// checkpoint artifact discipline; a crash mid-compaction leaves the
    /// old file intact.
    pub fn compact_to(&self, upto: Lsn) -> Result<u64> {
        let mut inner = self.inner.lock();
        if upto.0 <= inner.base {
            return Ok(0);
        }
        let head = inner.base + inner.entries.len() as u64;
        if upto.0 > head {
            return Err(SagaError::Storage(format!(
                "cannot compact through {upto:?}: head is {:?}",
                Lsn(head)
            )));
        }
        // Fires before the rewrite starts: an injected failure leaves the
        // old file intact, exactly like a crash mid-compaction.
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_COMPACT);
        let drop_count = upto.0 - inner.base;
        let new_base = upto.0;
        if let Some(path) = &self.path {
            // Settle buffered appends, then rewrite marker + tail beside
            // the live file and swap it in.
            if let Some(sink) = inner.sink.as_mut() {
                sink.flush()?;
            }
            let tmp = path.with_extension("compact.tmp");
            {
                let mut out = BufWriter::new(fs::File::create(&tmp)?);
                writeln!(out, "{}", compaction_marker(new_base))?;
                for op in &inner.entries[drop_count as usize..] {
                    writeln!(out, "{}", op.to_json())?;
                }
                out.flush()?;
                out.get_ref().sync_data()?;
            }
            // Swap under the lock: drop the old sink first so no buffered
            // bytes land on the unlinked file, then reopen on the new one.
            inner.sink = None;
            fs::rename(&tmp, path)?;
            inner.sink = Some(BufWriter::new(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ));
        }
        inner.entries.drain(..drop_count as usize);
        inner.base = new_base;
        Ok(drop_count)
    }

    /// The backing file, if durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Bytes discarded from a torn final line at open (0 for clean logs).
    pub fn truncated_tail_bytes(&self) -> u64 {
        self.truncated_tail_bytes
    }
}

/// Render the first-line marker of a compacted log file.
fn compaction_marker(compacted_through: u64) -> String {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert(
        "compacted_through".to_string(),
        Json::Int(compacted_through as i64),
    );
    Json::Object(obj).to_string_compact()
}

/// Parse a compaction marker line; `None` for anything else (including
/// regular op entries, which always carry an `lsn` key).
fn parse_compaction_marker(line: &str) -> Option<u64> {
    let v = saga_core::json::parse(line).ok()?;
    let obj = v.as_object()?;
    if obj.len() != 1 {
        return None;
    }
    let compacted = obj.get("compacted_through")?.as_i64()?;
    u64::try_from(compacted).ok()
}

/// A lock-free, cheaply cloneable view of one follower's replay progress.
///
/// The replay loop owns its [`LogFollower`] mutably (often on a dedicated
/// thread), which used to make freshness unobservable from outside without
/// a lock around the whole follower. The handle shares the follower's
/// watermark through an atomic cell instead: health probes, routers and
/// gauges read [`lsn`](Self::lsn)/[`lag`](Self::lag) with a single atomic
/// load — nothing on the replay or serving path blocks.
///
/// The cell is published with `Release` ordering after a poll advances the
/// follower and read with `Acquire`. Under [`LogFollower::poll_with`] —
/// the bulk-replay path — the batch is applied *before* the publish,
/// so an observer that sees watermark `w` is guaranteed the effects of
/// every op `<= w` are visible too. (Plain [`LogFollower::poll`] hands the
/// batch back for the caller to apply, so there the handle tracks fetch
/// progress, not apply progress.)
#[derive(Clone)]
pub struct WatermarkHandle {
    cell: Arc<std::sync::atomic::AtomicU64>,
    log: Arc<OperationLog>,
}

impl WatermarkHandle {
    /// The highest LSN the follower has fully consumed.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.cell.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Operations appended to the log but not yet consumed by the
    /// follower.
    pub fn lag(&self) -> u64 {
        self.log.head().0.saturating_sub(self.lsn().0)
    }

    /// The followed log.
    pub fn log(&self) -> &Arc<OperationLog> {
        &self.log
    }
}

/// A watermark-tracking cursor over an [`OperationLog`] — the follower
/// protocol log-shipped stores replay through.
///
/// The watermark is the highest LSN the follower has consumed; a poll
/// returns the next contiguous batch and advances it. Density is verified
/// on every poll, so a replica can never silently skip an operation even
/// if the log implementation changes underneath.
pub struct LogFollower {
    log: Arc<OperationLog>,
    watermark: Lsn,
    /// Mirror of `watermark` shared with [`WatermarkHandle`]s.
    shared: Arc<std::sync::atomic::AtomicU64>,
}

impl LogFollower {
    /// A follower starting from the beginning of the log.
    pub fn new(log: Arc<OperationLog>) -> Self {
        Self::resume_at(log, Lsn::ZERO)
    }

    /// A follower resuming after `watermark` (e.g. from a metadata-store
    /// checkpoint).
    pub fn resume_at(log: Arc<OperationLog>, watermark: Lsn) -> Self {
        LogFollower {
            log,
            watermark,
            shared: Arc::new(std::sync::atomic::AtomicU64::new(watermark.0)),
        }
    }

    /// The highest LSN this follower has consumed.
    pub fn watermark(&self) -> Lsn {
        self.watermark
    }

    /// Operations appended but not yet consumed.
    pub fn lag(&self) -> u64 {
        self.log.head().0.saturating_sub(self.watermark.0)
    }

    /// The followed log.
    pub fn log(&self) -> &Arc<OperationLog> {
        &self.log
    }

    /// A lock-free progress view other threads can poll while the replay
    /// loop owns this follower mutably. See [`WatermarkHandle`].
    pub fn watermark_handle(&self) -> WatermarkHandle {
        WatermarkHandle {
            cell: Arc::clone(&self.shared),
            log: Arc::clone(&self.log),
        }
    }

    /// Advance the watermark over `ops` consumed operations and publish
    /// it to the shared cell — called after a batch is fully applied so
    /// handle readers never observe a watermark ahead of the applied
    /// state.
    fn advance(&mut self, ops: usize) {
        self.watermark = Lsn(self.watermark.0 + ops as u64);
        self.shared
            .store(self.watermark.0, std::sync::atomic::Ordering::Release);
    }

    /// Fetch the next batch and the compaction point under one lock
    /// acquisition and verify the batch continues the watermark densely
    /// (so it ends at `watermark + len`). Errors when the watermark
    /// has fallen behind the compaction point — the ops this follower
    /// still needs were dropped, so the caller must re-bootstrap from a
    /// checkpoint (the per-op contiguity check alone cannot catch this
    /// when the retained tail is empty: there would be no op to fail on)
    /// — or when the batch is not dense from the watermark.
    fn next_batch(&self, max: usize) -> Result<Vec<Arc<IngestOp>>> {
        let (compacted, batch) = self.log.shared_batch(self.watermark, max);
        if self.watermark < compacted {
            return Err(SagaError::Storage(format!(
                "follower at {:?} has fallen behind the compaction point {compacted:?}: \
                 the prefix is gone, re-bootstrap from a checkpoint",
                self.watermark
            )));
        }
        let mut expected = self.watermark;
        for op in &batch {
            expected = expected.next();
            if op.lsn != expected {
                return Err(SagaError::Storage(format!(
                    "follower at {:?} got non-contiguous batch: expected {expected:?}, found {:?}",
                    self.watermark, op.lsn
                )));
            }
        }
        Ok(batch)
    }

    /// Fetch up to `max` operations past the watermark and advance it.
    /// Returns an empty batch when caught up; errors (without advancing)
    /// if the batch is not contiguous from the watermark or the watermark
    /// precedes the compaction point.
    pub fn poll(&mut self, max: usize) -> Result<Vec<IngestOp>> {
        let batch = self.next_batch(max)?;
        self.advance(batch.len());
        Ok(batch.iter().map(|op| IngestOp::clone(op)).collect())
    }

    /// Like [`poll`](Self::poll) but applies `f` to each operation
    /// without cloning the batch out of the log — the bulk-replay fast
    /// path (see [`OperationLog::visit_batch`]). `f` runs **outside** the
    /// log's lock. Contiguity is verified before any op is handed to `f`;
    /// the watermark advances — and is published — only after `f` has
    /// seen the whole batch. Returns how many were applied.
    ///
    /// A watermark behind [`OperationLog::compacted_through`] (or a
    /// non-contiguous batch) errors without applying anything — the
    /// caller must re-bootstrap from a checkpoint.
    pub fn poll_with(&mut self, max: usize, mut f: impl FnMut(&IngestOp)) -> Result<usize> {
        let batch = self.next_batch(max)?;
        for op in &batch {
            f(op);
        }
        self.advance(batch.len());
        Ok(batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, DeltaFact, Value};

    fn delta(entity: u64, pred: &str, value: i64) -> Delta {
        Delta {
            entity: EntityId(entity),
            added: vec![DeltaFact {
                predicate: intern(pred),
                object: Value::Int(value),
            }],
            removed: Vec::new(),
        }
    }

    #[test]
    fn lsns_are_dense_and_ordered() {
        let log = OperationLog::in_memory();
        let a = log.append(OpKind::Upsert, vec![EntityId(1)]).unwrap();
        let b = log.append(OpKind::Delete, vec![EntityId(2)]).unwrap();
        assert_eq!(a, Lsn(1));
        assert_eq!(b, Lsn(2));
        assert_eq!(log.head(), Lsn(2));
    }

    #[test]
    fn read_after_replays_exactly_the_suffix() {
        let log = OperationLog::in_memory();
        for i in 1..=5u64 {
            log.append(OpKind::Upsert, vec![EntityId(i)]).unwrap();
        }
        let suffix = log.read_after(Lsn(3));
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].lsn, Lsn(4));
        assert_eq!(suffix[1].lsn, Lsn(5));
        assert!(log.read_after(Lsn(5)).is_empty());
        assert_eq!(log.read_after(Lsn::ZERO).len(), 5);
        // Bounded batches slice the same sequence.
        let batch = log.read_batch(Lsn(1), 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].lsn, Lsn(2));
    }

    #[test]
    fn append_op_carries_deltas_and_derives_changed() {
        let log = OperationLog::in_memory();
        log.append_op(
            OpKind::Upsert,
            vec![delta(4, "x", 1), delta(2, "y", 2), delta(4, "z", 3)],
        )
        .unwrap();
        let op = &log.read_after(Lsn::ZERO)[0];
        assert_eq!(op.changed, vec![EntityId(2), EntityId(4)]);
        assert_eq!(op.deltas.len(), 3);
        assert_eq!(op.changed_entities(), vec![EntityId(2), EntityId(4)]);
    }

    /// Unique temp-file path per call: the process id alone is not enough
    /// because the test harness runs tests of one binary in parallel
    /// threads of a single process, which used to clobber the shared file.
    fn unique_log_path() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "saga_oplog_{}_{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn durable_log_survives_reopen_with_deltas() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        {
            let log = OperationLog::durable(&path).unwrap();
            log.append_op(
                OpKind::Upsert,
                vec![delta(1, "name", 7), delta(2, "name", 9)],
            )
            .unwrap();
            log.append(OpKind::RetractSource(SourceId(3)), vec![])
                .unwrap();
            log.sync().unwrap();
        }
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(2));
        assert_eq!(reopened.truncated_tail_bytes(), 0);
        let ops = reopened.read_after(Lsn::ZERO);
        assert_eq!(ops[0].changed, vec![EntityId(1), EntityId(2)]);
        assert_eq!(
            ops[0].deltas,
            vec![delta(1, "name", 7), delta(2, "name", 9)],
            "delta payloads survive the reopen"
        );
        assert_eq!(ops[1].kind, OpKind::RetractSource(SourceId(3)));
        // Appending continues the sequence.
        let next = reopened.append(OpKind::Upsert, vec![]).unwrap();
        assert_eq!(next, Lsn(3));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fsync_policy_logs_are_replayable() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        {
            let log = OperationLog::durable_with(&path, FlushPolicy::Fsync).unwrap();
            log.append_op(OpKind::Upsert, vec![delta(1, "x", 1)])
                .unwrap();
            log.append_op(OpKind::Upsert, vec![delta(2, "x", 2)])
                .unwrap();
        }
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(2));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_truncated_and_counted() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        {
            let log = OperationLog::durable(&path).unwrap();
            log.append_op(OpKind::Upsert, vec![delta(1, "x", 1)])
                .unwrap();
            log.append_op(OpKind::Upsert, vec![delta(2, "x", 2)])
                .unwrap();
        }
        // Simulate a crash mid-append: half a JSON line at the tail.
        let torn = r#"{"changed":[3],"deltas":[{"add":[["x","#;
        {
            use std::io::Write as _;
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{torn}").unwrap();
        }
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(2), "intact prefix kept");
        assert_eq!(reopened.truncated_tail_bytes(), torn.len() as u64);
        // The torn bytes are gone from disk: appends restart cleanly and a
        // third open sees a clean log.
        reopened
            .append_op(OpKind::Upsert, vec![delta(3, "x", 3)])
            .unwrap();
        drop(reopened);
        let third = OperationLog::durable(&path).unwrap();
        assert_eq!(third.head(), Lsn(3));
        assert_eq!(third.truncated_tail_bytes(), 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        fs::write(
            &path,
            "not json at all\n{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":1}\n",
        )
        .unwrap();
        let err = OperationLog::durable(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt log line 1"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn lsn_gaps_and_reordering_are_rejected() {
        for (name, lines) in [
            (
                "gap",
                "{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":1}\n{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":3}\n",
            ),
            (
                "reorder",
                "{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":2}\n{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":1}\n",
            ),
            ("wrong start", "{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":5}\n"),
        ] {
            let path = unique_log_path();
            fs::write(&path, lines).unwrap();
            let err = OperationLog::durable(&path).unwrap_err();
            assert!(
                err.to_string().contains("LSN discontinuity"),
                "{name}: {err}"
            );
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn legacy_id_only_lines_still_parse() {
        let op =
            IngestOp::from_json(r#"{"changed":[1,2],"kind":{"RetractSource":3},"lsn":7}"#).unwrap();
        assert_eq!(op.kind, OpKind::RetractSource(SourceId(3)));
        assert!(op.deltas.is_empty());
        assert_eq!(op.changed_entities(), vec![EntityId(1), EntityId(2)]);
    }

    #[test]
    fn follower_polls_contiguous_batches_and_tracks_watermark() {
        let log = Arc::new(OperationLog::in_memory());
        for i in 1..=7u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
        let mut follower = LogFollower::new(Arc::clone(&log));
        assert_eq!(follower.watermark(), Lsn::ZERO);
        assert_eq!(follower.lag(), 7);

        let batch = follower.poll(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(follower.watermark(), Lsn(3));
        let batch = follower.poll(100).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(follower.watermark(), Lsn(7));
        assert!(follower.poll(10).unwrap().is_empty(), "caught up");
        assert_eq!(follower.lag(), 0);

        // New appends are picked up from the watermark.
        log.append_op(OpKind::Upsert, vec![delta(9, "x", 9)])
            .unwrap();
        let batch = follower.poll(10).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].lsn, Lsn(8));

        // Resuming from a checkpoint replays exactly the suffix.
        let mut resumed = LogFollower::resume_at(log, Lsn(6));
        let batch = resumed.poll(100).unwrap();
        assert_eq!(batch.first().unwrap().lsn, Lsn(7));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn compaction_drops_the_prefix_and_preserves_lsns() {
        let log = OperationLog::in_memory();
        for i in 1..=10u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
        assert_eq!(log.compacted_through(), Lsn::ZERO);
        assert_eq!(log.compact_to(Lsn(6)).unwrap(), 6);
        assert_eq!(log.compacted_through(), Lsn(6));
        assert_eq!(log.head(), Lsn(10), "head is unchanged");
        // The tail keeps its original LSNs…
        let tail = log.read_after(Lsn(6));
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].lsn, Lsn(7));
        // …appends continue the global sequence…
        assert_eq!(log.append(OpKind::Upsert, vec![]).unwrap(), Lsn(11));
        // …re-compacting at or below the point is a no-op, beyond head errors.
        assert_eq!(log.compact_to(Lsn(3)).unwrap(), 0);
        assert!(log.compact_to(Lsn(99)).is_err());
        // A reader below the compaction point sees a non-contiguous batch.
        let stale = log.read_batch(Lsn(2), 100);
        assert_eq!(stale.first().unwrap().lsn, Lsn(7), "hole is visible");
        let mut follower = LogFollower::resume_at(Arc::new(log), Lsn(2));
        assert!(follower.poll(10).is_err(), "stale follower errors loudly");
    }

    #[test]
    fn durable_compaction_survives_reopen() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        {
            let log = OperationLog::durable(&path).unwrap();
            for i in 1..=8u64 {
                log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                    .unwrap();
            }
            assert_eq!(log.compact_to(Lsn(5)).unwrap(), 5);
            // Appends after compaction land in the rewritten file.
            log.append_op(OpKind::Upsert, vec![delta(9, "x", 9)])
                .unwrap();
            log.sync().unwrap();
        }
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.compacted_through(), Lsn(5));
        assert_eq!(reopened.head(), Lsn(9));
        let ops = reopened.read_after(Lsn(5));
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0].lsn, Lsn(6));
        assert_eq!(ops[3].deltas, vec![delta(9, "x", 9)]);
        // Compacting again over the reopened log also works.
        assert_eq!(reopened.compact_to(Lsn(8)).unwrap(), 3);
        drop(reopened);
        let third = OperationLog::durable(&path).unwrap();
        assert_eq!(third.compacted_through(), Lsn(8));
        assert_eq!(third.head(), Lsn(9));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn compact_to_races_an_appender_without_losing_ops() {
        // One thread appends while another repeatedly compacts to the
        // current head: every op must end up either retained or covered
        // by the compaction point, with LSNs globally dense.
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let log = Arc::new(OperationLog::durable(&path).unwrap());
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 1..=200u64 {
                    log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                        .unwrap();
                }
            })
        };
        let compactor = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let head = log.head();
                    log.compact_to(head).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        appender.join().unwrap();
        compactor.join().unwrap();
        assert_eq!(log.head(), Lsn(200));
        let base = log.compacted_through();
        let tail = log.read_after(base);
        assert_eq!(tail.len() as u64, 200 - base.0);
        for (i, op) in tail.iter().enumerate() {
            assert_eq!(op.lsn, Lsn(base.0 + i as u64 + 1), "dense tail");
        }
        // The durable file reopens to the same state.
        log.sync().unwrap();
        drop(log);
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(200));
        assert_eq!(reopened.compacted_through(), base);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn marker_anywhere_but_the_head_is_rejected() {
        let path = unique_log_path();
        fs::write(
            &path,
            "{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":1}\n{\"compacted_through\":5}\n",
        )
        .unwrap();
        let err = OperationLog::durable(&path).unwrap_err();
        assert!(err.to_string().contains("not the log head"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn visit_batch_and_poll_with_replay_without_cloning() {
        let log = Arc::new(OperationLog::in_memory());
        for i in 1..=9u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
        let mut seen: Vec<Lsn> = Vec::new();
        assert_eq!(log.visit_batch(Lsn(2), 3, |op| seen.push(op.lsn)), 3);
        assert_eq!(seen, vec![Lsn(3), Lsn(4), Lsn(5)]);

        let mut follower = LogFollower::new(Arc::clone(&log));
        let mut applied: Vec<u64> = Vec::new();
        assert_eq!(
            follower.poll_with(4, |op| applied.push(op.lsn.0)).unwrap(),
            4
        );
        assert_eq!(follower.watermark(), Lsn(4));
        assert_eq!(
            follower
                .poll_with(100, |op| applied.push(op.lsn.0))
                .unwrap(),
            5
        );
        assert_eq!(applied, (1..=9).collect::<Vec<u64>>());
        assert_eq!(follower.poll_with(10, |_| {}).unwrap(), 0, "caught up");

        // After compaction, a stale poll_with errors without applying.
        log.compact_to(Lsn(6)).unwrap();
        let mut stale = LogFollower::resume_at(Arc::clone(&log), Lsn(2));
        let mut touched = 0usize;
        assert!(stale.poll_with(10, |_| touched += 1).is_err());
        assert_eq!(touched, 0, "nothing applied past the hole");
        assert_eq!(stale.watermark(), Lsn(2), "watermark unchanged on error");
        // A follower at or above the compaction point resumes cleanly.
        let mut fresh = LogFollower::resume_at(log, Lsn(6));
        assert_eq!(fresh.poll_with(10, |_| {}).unwrap(), 3);
    }

    #[test]
    fn appends_and_compaction_do_not_wait_for_a_followers_apply() {
        use std::sync::mpsc;
        use std::time::Duration;

        let log = Arc::new(OperationLog::in_memory());
        log.append_op(OpKind::Upsert, vec![delta(1, "x", 1)])
            .unwrap();

        // The follower's apply callback parks mid-batch on a channel.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let follower = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut follower = LogFollower::new(log);
                let mut seen = Vec::new();
                let applied = follower.poll_with(10, |op| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    seen.push((op.lsn, op.deltas.clone()));
                });
                (applied, seen)
            })
        };
        entered_rx.recv().unwrap();

        // While it is parked, a producer appends and compacts the very op
        // the callback holds. If the log lock were held across the apply
        // both would block; the timeout turns that deadlock into a failure.
        let (done_tx, done_rx) = mpsc::channel();
        let producer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let lsn = log.append_op(OpKind::Upsert, vec![delta(2, "x", 2)]);
                let dropped = log.compact_to(Lsn(1));
                done_tx.send((lsn, dropped)).unwrap();
            })
        };
        let produced = done_rx.recv_timeout(Duration::from_secs(2));
        release_tx.send(()).unwrap();
        producer.join().unwrap();
        let (applied, seen) = follower.join().unwrap();

        let (lsn, dropped) = produced.expect("append waited for a follower's apply");
        assert_eq!(lsn.unwrap(), Lsn(2));
        assert_eq!(dropped.unwrap(), 1);
        // The batch was taken before the append and survived the compaction.
        assert_eq!(applied.unwrap(), 1);
        assert_eq!(seen, vec![(Lsn(1), vec![delta(1, "x", 1)])]);
        assert_eq!(log.compacted_through(), Lsn(1));
    }

    #[test]
    fn watermark_handle_tracks_progress_without_the_follower() {
        let log = Arc::new(OperationLog::in_memory());
        for i in 1..=6u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
        let mut follower = LogFollower::resume_at(Arc::clone(&log), Lsn(2));
        let handle = follower.watermark_handle();
        assert_eq!(handle.lsn(), Lsn(2), "handle starts at the resume point");
        assert_eq!(handle.lag(), 4);

        // The handle observes poll_with progress while the follower is
        // owned elsewhere — e.g. from a monitoring thread.
        let watcher = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                while handle.lag() > 0 {
                    std::thread::yield_now();
                }
                handle.lsn()
            })
        };
        follower.poll_with(2, |_| {}).unwrap();
        assert_eq!(handle.lsn(), Lsn(4));
        follower.poll_with(100, |_| {}).unwrap();
        assert_eq!(watcher.join().unwrap(), Lsn(6));
        assert_eq!(handle.lag(), 0);

        // Plain poll publishes too.
        log.append_op(OpKind::Upsert, vec![delta(7, "x", 7)])
            .unwrap();
        follower.poll(10).unwrap();
        assert_eq!(handle.lsn(), Lsn(7));
        assert!(Arc::ptr_eq(handle.log(), follower.log()));
    }

    #[test]
    fn concurrent_appends_get_unique_lsns() {
        let log = Arc::new(OperationLog::in_memory());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|_| log.append(OpKind::Upsert, vec![]).unwrap().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }
}
