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
//! [`Delta`] payloads of the mutation in a self-contained form (predicate
//! names + typed object values), so a follower can rebuild a derived store
//! **from the log alone** — no consultation of the producing
//! `KnowledgeGraph`. The deltas are the op's only payload: consumers that
//! need just invalidation keys derive them
//! ([`IngestOp::changed_entities`]).
//!
//! # Durability
//!
//! An optional file sink makes operations durable as checksummed binary
//! frames in the [`saga_core::binary`] vocabulary (the layout is in
//! `docs/oplog.md`): a file header carrying the compaction point, then
//! one frame per operation, each landing with a single `write`. The
//! [`FlushPolicy`] decides how hard an append lands before
//! [`OperationLog::append_op`] returns: [`FlushPolicy::Flush`] hands the
//! frame to the OS (survives process crash), [`FlushPolicy::Fsync`]
//! additionally `fsync`s (survives power loss, at a per-append latency
//! cost). An append that fails after its bytes began to reach the file
//! cuts them back off, so the file always ends at the last acknowledged
//! frame. A restart tolerates a torn *final* frame — the tail a crashed
//! writer half-wrote is truncated away with a warning instead of
//! poisoning the whole log — while corruption anywhere else, and any LSN
//! gap or reordering, fails the restart loudly.
//!
//! # Following
//!
//! [`LogFollower`] is the cursor API derived stores replay through: it
//! tracks a watermark LSN (everything at or below it has been applied)
//! and [`LogFollower::poll_with`] applies contiguous batches, verifying
//! density so a replica can never silently skip an operation. A batch
//! shares the log's decoded ops instead of cloning every delta payload
//! out of the log. A durable log keeps only its newest [`DECODED_TAIL`]
//! ops decoded; a follower further behind gets the older ones read back
//! from the file — one positional read per batch, each frame checked
//! again (header self-check, body checksum, LSN) and decoded — so the
//! history a caught-up fleet has already applied costs its bytes on disk
//! and one offset each, not its decoded form. An in-memory log has no
//! file to read back and keeps every op decoded. The log's one lock
//! covers appends, compaction and the copies that hand a batch out (the
//! `Arc`s of tail ops, the file handle and offsets for the rest) — never
//! the read-back or a follower's apply, so producers do not wait for
//! replicas and replicas do not wait for each other.
//!
//! # Compaction
//!
//! The log grows without bound until a checkpoint
//! ([`saga_core::checkpoint`]) durably covers a prefix;
//! [`OperationLog::compact_to`] then drops that prefix: the retained
//! frames are copied byte for byte into a new file whose header records
//! the compaction point, so a reopened log still knows its first retained
//! LSN ([`OperationLog::compacted_through`]). LSNs never restart — a
//! follower whose watermark has fallen behind the compaction point gets
//! a loud contiguity error and must re-bootstrap from a checkpoint. See
//! `docs/checkpoint.md` for the retention contract.

use std::collections::VecDeque;
use std::fs;
use std::io::{BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use saga_core::binary::{
    fnv1a, push_str, push_value_payload, push_varint, take_count, take_str, take_u32, take_u8,
    take_value_payload, take_varint, unzigzag, zigzag,
};
use saga_core::json::Json;
use saga_core::wire::{delta_from_json, delta_to_json};
use saga_core::{intern, Delta, DeltaFact, EntityId, Lsn, Result, SagaError, SourceId, Symbol};

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
    /// The full change payload: what the operation did to the index, in
    /// replayable form. Log-shipped stores apply these directly.
    pub deltas: Vec<Delta>,
}

impl IngestOp {
    /// The entities whose derived state must be refreshed: the delta
    /// entities, sorted and deduplicated.
    pub fn changed_entities(&self) -> Vec<EntityId> {
        saga_core::changed_entities(&self.deltas)
    }

    /// Render as one JSON line — the human-readable dump form, e.g.
    /// `{"deltas":[{"add":[["name","X"]],"del":[],"entity":1}],"kind":"Upsert","lsn":7}`
    /// (`deltas` is omitted when empty). The durable file holds binary
    /// frames, not this: `log.read_after(Lsn::ZERO)` mapped through
    /// `to_json` is how to look at one. Ids print as `i64`, and an entity
    /// id above `i64::MAX` inside a delta is a panic — dump form only.
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
        if !self.deltas.is_empty() {
            obj.insert(
                "deltas".to_string(),
                Json::Array(self.deltas.iter().map(delta_to_json).collect()),
            );
        }
        Json::Object(obj).to_string_compact()
    }

    /// Parse the dump form produced by [`to_json`](Self::to_json).
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
            deltas,
        })
    }
}

/// How hard an append lands in the durable sink before returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Hand the frame to the OS on every append: survives a process
    /// crash. The default.
    #[default]
    Flush,
    /// Flush **and** `fsync` on every append: survives power loss, at a
    /// per-append latency cost. Use for the system-of-record deployment;
    /// batch producers can stay on [`Flush`](FlushPolicy::Flush) and call
    /// [`OperationLog::sync`] at batch boundaries.
    Fsync,
}

/// How many of a durable log's newest operations stay decoded in memory.
/// A follower within this many ops of the head is handed ops already
/// decoded and shared; one further behind gets the older ones read back
/// from the file. A fleet worker's replay batch
/// (`saga_live::replica::REPLAY_BATCH`) is defined as this constant, so a
/// caught-up fleet never reads the file. An in-memory log keeps every op
/// decoded.
pub const DECODED_TAIL: usize = 1024;

struct LogInner {
    /// The newest retained ops, decoded and shared so a follower's batch
    /// outlives the lock (and a racing compaction): every retained op of
    /// an in-memory log, at most [`DECODED_TAIL`] of a durable one. The
    /// last one carries the head's LSN.
    decoded: VecDeque<Arc<IngestOp>>,
    /// Operations compacted away from the front of the log: the first
    /// retained LSN is `base + 1`. Every op `<= base` is covered by a
    /// durable checkpoint (see [`OperationLog::compact_to`]).
    base: u64,
    file: Option<LogFile>,
}

impl LogInner {
    /// How many operations the log retains past its compaction point.
    fn retained(&self) -> usize {
        self.file
            .as_ref()
            .map_or(self.decoded.len(), |file| file.offsets.len())
    }

    fn head(&self) -> u64 {
        self.base + self.retained() as u64
    }
}

/// A durable log's file: where its frames are and how far it is good.
struct LogFile {
    /// Opened to read and to append, and written one whole frame per
    /// `write_all`, so nothing is buffered in the process. A batch that
    /// copies the `Arc` reads its frames back from this inode, even after
    /// compaction has swapped in a new file.
    handle: Arc<fs::File>,
    /// One per retained op: `offsets[i]` is where the frame carrying
    /// `Lsn(base + i + 1)` starts.
    offsets: Vec<u64>,
    /// Bytes of the header and the acknowledged frames, which is where
    /// the next frame lands: no append returns with the file longer.
    len: u64,
    /// A failed append could not be cut back off the file: the file may
    /// hold a frame no LSN was acknowledged for, so every later append
    /// is refused.
    poisoned: bool,
}

impl LogFile {
    /// Write one sealed frame at the end of the file and record where it
    /// starts. On a failure after the write began — a short write, a
    /// failed `fsync` — the file is cut back to its acknowledged frames,
    /// so the next append's LSN is the one the file expects.
    fn append(&mut self, frame: &[u8], policy: FlushPolicy, path: &Path) -> Result<()> {
        if self.poisoned {
            return Err(SagaError::Storage(format!(
                "{} refuses appends: a failed append could not be cut back off the file",
                path.display()
            )));
        }
        if let Err(e) = self.write(frame, policy) {
            if self.truncate().is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.offsets.push(self.len);
        self.len += frame.len() as u64;
        Ok(())
    }

    fn write(&self, frame: &[u8], policy: FlushPolicy) -> Result<()> {
        (&*self.handle).write_all(frame)?;
        if policy == FlushPolicy::Fsync {
            // Fires after the frame is written but before it is made
            // durable — the power-loss-window fault.
            saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_FSYNC);
            self.handle.sync_data()?;
        }
        Ok(())
    }

    /// Cut the file back to its acknowledged frames, durably.
    fn truncate(&self) -> Result<()> {
        self.handle.set_len(self.len)?;
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_FSYNC);
        self.handle.sync_data()?;
        Ok(())
    }

    /// Replace the file at `path` with one whose header records `base`
    /// and which holds every frame but the first `drop_count`, copied
    /// from this file byte for byte. The rename is the only step that
    /// changes what a reopen sees, and a failure before it leaves file
    /// and state as they were. Nothing fails after it: the handle, the
    /// offsets and the length move with the rename. The caller syncs the
    /// directory.
    fn compact(&mut self, path: &Path, drop_count: usize, base: u64) -> Result<()> {
        let keep_from = self.offsets.get(drop_count).copied().unwrap_or(self.len);
        let tmp = path.with_extension("compact.tmp");
        {
            let mut out = fs::File::create(&tmp)?;
            out.write_all(&file_header(base))?;
            let mut chunk = vec![0u8; 1 << 16];
            let mut at = keep_from;
            while at < self.len {
                let n = chunk.len().min((self.len - at) as usize);
                self.handle.read_exact_at(&mut chunk[..n], at)?;
                out.write_all(&chunk[..n])?;
                at += n as u64;
            }
            out.sync_data()?;
        }
        let handle = open_log_file(&tmp)?;
        fs::rename(&tmp, path)?;
        self.handle = Arc::new(handle);
        let shift = keep_from - FILE_HEADER as u64;
        self.offsets.drain(..drop_count);
        for offset in &mut self.offsets {
            *offset -= shift;
        }
        self.len -= shift;
        Ok(())
    }
}

/// The append-only, optionally durable operation log.
pub struct OperationLog {
    inner: Mutex<LogInner>,
    /// The last append's frame buffer, taken by the next appender before
    /// it encodes (outside `inner`) and put back after its write.
    spare_frame: Mutex<Vec<u8>>,
    path: Option<PathBuf>,
    policy: FlushPolicy,
    /// Bytes discarded from the tail of the durable file at open because
    /// the final frame was torn (half-written by a crashed producer).
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
                decoded: VecDeque::new(),
                base: 0,
                file: None,
            }),
            spare_frame: Mutex::new(Vec::new()),
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
    /// Every frame is verified and decoded; the newest [`DECODED_TAIL`]
    /// stay decoded. Replay tolerates a torn final frame: the tail is
    /// truncated away (and counted in
    /// [`truncated_tail_bytes`](Self::truncated_tail_bytes)) instead of
    /// failing the restart. Corruption before the final frame, any LSN
    /// gap or reordering, and a file that is not a log at all are hard
    /// errors.
    pub fn durable_with(path: &Path, policy: FlushPolicy) -> Result<Self> {
        let loaded = read_log(path)?;
        let handle = open_log_file(path)?;
        let truncated_tail_bytes = loaded.file_len - loaded.good_len;
        if truncated_tail_bytes > 0 {
            eprintln!(
                "oplog: truncating the torn tail of {} after frame {} ({truncated_tail_bytes} bytes)",
                path.display(),
                loaded.offsets.len(),
            );
            handle.set_len(loaded.good_len)?;
            handle.sync_data()?;
        }
        let mut len = loaded.good_len;
        if len == 0 {
            // A new log: its header, and its name in the directory, so a
            // frame acknowledged under `Fsync` cannot vanish with the file.
            (&handle).write_all(&file_header(0))?;
            sync_dir(path)?;
            len = FILE_HEADER as u64;
        }
        Ok(OperationLog {
            inner: Mutex::new(LogInner {
                decoded: loaded.decoded,
                base: loaded.base,
                file: Some(LogFile {
                    handle: Arc::new(handle),
                    offsets: loaded.offsets,
                    len,
                    poisoned: false,
                }),
            }),
            spare_frame: Mutex::new(Vec::new()),
            path: Some(path.to_path_buf()),
            policy,
            truncated_tail_bytes,
        })
    }

    /// Append an operation carrying its full delta payload; returns its
    /// LSN.
    ///
    /// An append that fails after its frame began to reach the file cuts
    /// the file back to the last acknowledged frame, so a later append
    /// takes the same LSN and a reopen sees a dense log. If even that
    /// fails, the log refuses every later append with a `Storage` error.
    pub fn append_op(&self, kind: OpKind, deltas: Vec<Delta>) -> Result<Lsn> {
        // Everything but the LSN is encoded and checksummed before the
        // log lock is taken (the caller may hold the KG write lock too).
        let mut frame = Vec::new();
        if self.path.is_some() {
            frame = std::mem::take(&mut *self.spare_frame.lock());
            encode_frame(&mut frame, &kind, &deltas)?;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // Fires before any byte lands: an injected failure here is the
        // clean "append never happened" fault.
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_WRITE);
        let lsn = Lsn(inner.head() + 1);
        let mut evicted = None;
        if let (Some(file), Some(path)) = (inner.file.as_mut(), &self.path) {
            seal_frame(&mut frame, lsn);
            file.append(&frame, self.policy, path)?;
            if inner.decoded.len() == DECODED_TAIL {
                evicted = inner.decoded.pop_front();
            }
        }
        inner
            .decoded
            .push_back(Arc::new(IngestOp { lsn, kind, deltas }));
        drop(guard);
        // The op that left the tail is freed outside the lock.
        drop(evicted);
        if self.path.is_some() {
            *self.spare_frame.lock() = frame;
        }
        Ok(lsn)
    }

    /// Force written frames to stable storage (a batch-boundary `fsync`
    /// for producers running [`FlushPolicy::Flush`]).
    pub fn sync(&self) -> Result<()> {
        let inner = self.inner.lock();
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_APPEND_FSYNC);
        if let Some(file) = &inner.file {
            file.handle.sync_data()?;
        }
        Ok(())
    }

    /// The LSN of the newest operation (`Lsn::ZERO` when empty).
    pub fn head(&self) -> Lsn {
        Lsn(self.inner.lock().head())
    }

    /// The highest LSN removed by [`compact_to`](Self::compact_to)
    /// (`Lsn::ZERO` when nothing was ever compacted). Retained operations
    /// start at `compacted_through + 1`; a follower must resume at or
    /// above this watermark, which a checkpoint at the compaction LSN
    /// guarantees.
    pub fn compacted_through(&self) -> Lsn {
        Lsn(self.inner.lock().base)
    }

    /// How many retained operations are held decoded: every one of an
    /// in-memory log, at most [`DECODED_TAIL`] of a durable one.
    #[cfg(test)]
    pub(crate) fn decoded_len(&self) -> usize {
        self.inner.lock().decoded.len()
    }

    /// All retained operations with `lsn > after`, in order, cloned out of
    /// the log — what a dump prints and a test inspects. This is not a
    /// replay path: when `after` precedes the compaction point the result
    /// starts at the first *retained* op, without an error, and it ends
    /// early, again without an error, at the first frame that cannot be
    /// read back from the file. Derived stores replay through
    /// [`LogFollower::poll_with`], which clones no payloads and fails on
    /// a hole or an unreadable frame.
    pub fn read_after(&self, after: Lsn) -> Vec<IngestOp> {
        let (_, batch, _) = self.shared_batch(after, usize::MAX);
        batch.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// The compaction point and (at most `max` of) the ops with
    /// `lsn > after`. One acquisition of the lock reads the compaction
    /// point and copies the `Arc`s of the ops in the decoded tail and,
    /// for older ones, the file handle and their offsets; the older
    /// frames are read back after the lock is released. The ops are
    /// shared or freshly decoded, never cloned, and stay valid even if
    /// `compact_to` drops them from the log. The `Result` says why a
    /// batch is short: it ends at the first frame that could not be read
    /// back, and the tail ops after that frame are left out too.
    fn shared_batch(&self, after: Lsn, max: usize) -> (Lsn, Vec<Arc<IngestOp>>, Result<()>) {
        let inner = self.inner.lock();
        let retained = inner.retained();
        let from = (after.0.saturating_sub(inner.base) as usize).min(retained);
        let to = from.saturating_add(max).min(retained);
        // Retained ops before index `older` are held only in the file.
        let older = retained - inner.decoded.len();
        let run = inner.file.as_ref().filter(|_| from < older).map(|file| {
            let end = to.min(older);
            let mut bounds = file.offsets[from..end].to_vec();
            bounds.push(file.offsets.get(end).copied().unwrap_or(file.len));
            FrameRun {
                handle: Arc::clone(&file.handle),
                first: inner.base + from as u64 + 1,
                bounds,
            }
        });
        let tail: Vec<Arc<IngestOp>> = inner
            .decoded
            .range(from.max(older) - older..to.max(older) - older)
            .cloned()
            .collect();
        let compacted = Lsn(inner.base);
        drop(inner);
        let Some(run) = run else {
            return (compacted, tail, Ok(()));
        };
        let mut batch = Vec::with_capacity(to - from);
        let read = run.read_into(&mut batch);
        if read.is_ok() {
            batch.extend(tail);
        }
        (compacted, batch, read)
    }

    /// Drop every operation with `lsn <= upto` — the retention step after
    /// a checkpoint at `upto` is durably published. Returns how many
    /// operations were removed (0 when `upto` is at or below the current
    /// compaction point). Compacting beyond the head is an error.
    ///
    /// Runs under the same lock as appends, so it is safe to call while
    /// producers are writing: an appender either lands before the rewrite
    /// (and is retained — its LSN is above `upto`) or after it. For
    /// durable logs the retained frames are copied byte for byte into a
    /// new file, with the dropped prefix recorded in its header, which
    /// replaces the old one atomically (temp + rename), mirroring the
    /// checkpoint artifact discipline; a crash mid-compaction leaves the
    /// old file intact. The directory is synced after the rename, under
    /// the lock, so no append is acknowledged into a file whose name a
    /// power cut could take back. An error from that sync comes after the
    /// swap: the log is compacted in memory and in the file alike. A batch
    /// copied out before the swap keeps reading the old file.
    pub fn compact_to(&self, upto: Lsn) -> Result<u64> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if upto.0 <= inner.base {
            return Ok(0);
        }
        let head = inner.head();
        if upto.0 > head {
            return Err(SagaError::Storage(format!(
                "cannot compact through {upto:?}: head is {:?}",
                Lsn(head)
            )));
        }
        // Fires before the rewrite starts: an injected failure leaves the
        // old file intact, exactly like a crash mid-compaction.
        saga_core::failpoint!(saga_core::fail::sites::OPLOG_COMPACT);
        let drop_count = (upto.0 - inner.base) as usize;
        let older = inner.retained() - inner.decoded.len();
        if let (Some(file), Some(path)) = (inner.file.as_mut(), &self.path) {
            file.compact(path, drop_count, upto.0)?;
        }
        let dropped: Vec<Arc<IngestOp>> = inner
            .decoded
            .drain(..drop_count.saturating_sub(older))
            .collect();
        inner.base = upto.0;
        let synced = self.path.as_deref().map_or(Ok(()), sync_dir);
        drop(guard);
        drop(dropped);
        synced?;
        Ok(drop_count as u64)
    }

    /// The backing file, if durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Bytes discarded from a torn final frame at open (0 for clean logs).
    pub fn truncated_tail_bytes(&self) -> u64 {
        self.truncated_tail_bytes
    }
}

/// Frames behind the decoded tail that one batch reads back from the
/// file, copied out under the log lock.
struct FrameRun {
    handle: Arc<fs::File>,
    /// The LSN of the first frame.
    first: u64,
    /// Where each frame starts, then where the last one ends.
    bounds: Vec<u64>,
}

impl FrameRun {
    /// Read the run with one positional read and decode it onto `out`,
    /// checking each frame as the open did. Stops at the first frame
    /// that cannot be read back.
    fn read_into(self, out: &mut Vec<Arc<IngestOp>>) -> Result<()> {
        let start = self.bounds[0];
        let mut bytes = vec![0u8; (self.bounds[self.bounds.len() - 1] - start) as usize];
        self.handle.read_exact_at(&mut bytes, start).map_err(|e| {
            SagaError::Storage(format!(
                "cannot read log frames back from byte {start}: {e}"
            ))
        })?;
        for (i, ends) in self.bounds.windows(2).enumerate() {
            let lsn = Lsn(self.first + i as u64);
            let frame = &bytes[(ends[0] - start) as usize..(ends[1] - start) as usize];
            let op = reread_frame(frame, lsn).map_err(|what| {
                SagaError::Storage(format!(
                    "log frame {lsn:?} at byte {} cannot be read back: {what}",
                    ends[0]
                ))
            })?;
            out.push(Arc::new(op));
        }
        Ok(())
    }
}

/// Decode one whole frame read back from the file after the open
/// verified it, checking it again: its header, its length, its body
/// checksum and that it carries `lsn`.
fn reread_frame(frame: &[u8], lsn: Lsn) -> std::result::Result<IngestOp, String> {
    if frame.len() < FRAME_HEADER {
        return Err("shorter than a frame header".to_string());
    }
    let (head, body) = frame.split_at(FRAME_HEADER);
    if head_sum(head) != u32_at(head, 20) {
        return Err("the frame header fails its self-check".to_string());
    }
    if u32_at(head, 0) as usize != body.len() {
        return Err("the frame length disagrees with the offset table".to_string());
    }
    if fnv1a(body) != u64_at(head, 12) {
        return Err("body checksum mismatch".to_string());
    }
    if u64_at(head, 4) != lsn.0 {
        return Err(format!("it carries lsn:{}", u64_at(head, 4)));
    }
    decode_body(lsn, body).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// File format (`docs/oplog.md` has the tables)
// ---------------------------------------------------------------------

/// First bytes of every log file.
const MAGIC: [u8; 8] = *b"SAGAOPLG";
/// File format version this module writes and understands.
const VERSION: u32 = 2;
/// File header: magic, version (u32), `compacted_through` base (u64),
/// FNV-1a of those 20 bytes (u64); integers little-endian.
pub(crate) const FILE_HEADER: usize = 28;
/// Frame header: body length (u32), LSN (u64), FNV-1a of the body (u64),
/// folded FNV-1a of those 20 bytes (u32); integers little-endian. The
/// last field is what makes a corrupted length an error rather than a
/// frame that "runs past the end of the file" and reads as a torn tail.
pub(crate) const FRAME_HEADER: usize = 24;

pub(crate) fn file_header(base: u64) -> [u8; FILE_HEADER] {
    let mut h = [0u8; FILE_HEADER];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base.to_le_bytes());
    let sum = fnv1a(&h[..20]);
    h[20..].copy_from_slice(&sum.to_le_bytes());
    h
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// The compaction base a verified file header records.
fn parse_file_header(h: &[u8; FILE_HEADER], path: &Path) -> Result<u64> {
    if h[..8] != MAGIC {
        return Err(not_a_log(path));
    }
    let version = u32_at(h, 8);
    if version != VERSION {
        return Err(SagaError::Storage(format!(
            "{} is an operation log of format version {version}; this build reads version {VERSION}",
            path.display()
        )));
    }
    if fnv1a(&h[..20]) != u64_at(h, 20) {
        return Err(SagaError::Storage(format!(
            "corrupt log header in {}: checksum mismatch",
            path.display()
        )));
    }
    Ok(u64_at(h, 12))
}

fn not_a_log(path: &Path) -> SagaError {
    SagaError::Storage(format!(
        "{} is not a saga operation log: it does not start with the frame-format magic \
         (JSON-lines logs from before the binary record are not read)",
        path.display()
    ))
}

fn head_sum(header: &[u8]) -> u32 {
    let h = fnv1a(&header[..20]);
    (h >> 32) as u32 ^ h as u32
}

/// Encode everything of a frame that does not depend on its LSN into
/// `frame` (cleared first): the body, its length and its checksum. The
/// appender does this before it takes the log lock; [`seal_frame`]
/// finishes the header under it.
///
/// Predicates index a name table local to the record, so a frame decodes
/// from its own bytes alone. Each delta is its entity as the zig-zag of
/// the wrapping difference from the previous delta's entity, one fact
/// count, then each fact as one [`fact_code`] and its value's payload,
/// added facts first.
fn encode_frame(frame: &mut Vec<u8>, kind: &OpKind, deltas: &[Delta]) -> Result<()> {
    frame.clear();
    frame.resize(FRAME_HEADER, 0);
    let (tag, source) = match kind {
        OpKind::Upsert => (0, None),
        OpKind::Delete => (1, None),
        OpKind::RetractSource(src) => (2, Some(src)),
        OpKind::VolatileOverwrite(src) => (3, Some(src)),
    };
    frame.push(tag);
    if let Some(src) = source {
        push_varint(frame, u64::from(src.0));
    }
    // A record touches a handful of predicates: a scan of this table
    // beats hashing, and its order (first use) is the index on disk.
    let mut names: Vec<Symbol> = Vec::new();
    for fact in deltas.iter().flat_map(|d| d.added.iter().chain(&d.removed)) {
        if !names.contains(&fact.predicate) {
            names.push(fact.predicate);
        }
    }
    push_varint(frame, names.len() as u64);
    for name in &names {
        push_str(frame, &name.text());
    }
    push_varint(frame, deltas.len() as u64);
    let mut prev = 0u64;
    for delta in deltas {
        push_varint(frame, zigzag(delta.entity.0.wrapping_sub(prev) as i64));
        prev = delta.entity.0;
        push_varint(frame, (delta.added.len() + delta.removed.len()) as u64);
        let added = delta.added.iter().map(|fact| (fact, false));
        for (fact, removed) in added.chain(delta.removed.iter().map(|fact| (fact, true))) {
            let index = names
                .iter()
                .position(|name| *name == fact.predicate)
                .expect("every predicate was tabled above");
            push_varint(frame, fact_code(index, removed, fact.object.kind_tag()));
            push_value_payload(frame, &fact.object);
        }
    }
    let len = u32::try_from(frame.len() - FRAME_HEADER).map_err(|_| {
        SagaError::Storage("operation exceeds the 4 GiB log frame limit".to_string())
    })?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let body_sum = fnv1a(&frame[FRAME_HEADER..]);
    frame[12..20].copy_from_slice(&body_sum.to_le_bytes());
    Ok(())
}

/// One fact's code: its predicate's index in the record's name table,
/// whether the delta removes it, and its value's tag, in one varint —
/// one byte for the first eight names.
fn fact_code(name_index: usize, removed: bool, value_tag: u8) -> u64 {
    (name_index as u64) << 4 | u64::from(removed) << 3 | u64::from(value_tag)
}

/// Fill in the LSN and the header's self-check of an
/// [`encode_frame`]d frame.
fn seal_frame(frame: &mut [u8], lsn: Lsn) {
    frame[4..12].copy_from_slice(&lsn.0.to_le_bytes());
    let sum = head_sum(frame);
    frame[20..FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// One complete frame for `op`, as the tests assemble files by hand.
#[cfg(test)]
pub(crate) fn write_frame(frame: &mut Vec<u8>, op: &IngestOp) -> Result<()> {
    encode_frame(frame, &op.kind, &op.deltas)?;
    seal_frame(frame, op.lsn);
    Ok(())
}

/// Decode a frame body whose checksum has been verified. Every count is
/// bounded by the bytes that remain before anything is reserved for it.
pub(crate) fn decode_body(lsn: Lsn, body: &[u8]) -> Result<IngestOp> {
    let bad = |m: &str| SagaError::Storage(format!("bad log record: {m}"));
    let at = &mut 0usize;
    let kind = match take_u8(body, at)? {
        0 => OpKind::Upsert,
        1 => OpKind::Delete,
        2 => OpKind::RetractSource(SourceId(take_u32(body, at)?)),
        3 => OpKind::VolatileOverwrite(SourceId(take_u32(body, at)?)),
        other => return Err(bad(&format!("unknown kind tag {other}"))),
    };
    let n = take_count(body, at, 1)?;
    let mut names: Vec<Symbol> = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(intern(take_str(body, at)?));
    }
    // A delta is at least its entity gap and its fact count.
    let n = take_count(body, at, 2)?;
    let mut deltas = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let entity = prev.wrapping_add(unzigzag(take_varint(body, at)?) as u64);
        prev = entity;
        // A fact is at least its code.
        let count = take_count(body, at, 1)?;
        let mut delta = Delta {
            entity: EntityId(entity),
            ..Delta::default()
        };
        for read in 0..count {
            // Name index, removed bit, value tag: see `fact_code`.
            let code = take_varint(body, at)?;
            let predicate = *usize::try_from(code >> 4)
                .ok()
                .and_then(|i| names.get(i))
                .ok_or_else(|| bad("predicate index outside the record's name table"))?;
            let object = take_value_payload((code & 7) as u8, body, at)?;
            let facts = if code & 8 != 0 {
                &mut delta.removed
            } else if delta.removed.is_empty() {
                &mut delta.added
            } else {
                return Err(bad("an added fact after a removed one"));
            };
            if facts.is_empty() {
                facts.reserve_exact(count - read);
            }
            facts.push(DeltaFact { predicate, object });
        }
        deltas.push(delta);
    }
    if *at != body.len() {
        return Err(bad("bytes left over after the last delta"));
    }
    Ok(IngestOp { lsn, kind, deltas })
}

/// What [`read_log`] found in a file.
#[derive(Default)]
struct Loaded {
    /// The newest [`DECODED_TAIL`] ops.
    decoded: VecDeque<Arc<IngestOp>>,
    /// Where each frame starts.
    offsets: Vec<u64>,
    base: u64,
    /// Bytes of the file that hold the header and whole, verified frames;
    /// anything past them is a torn tail.
    good_len: u64,
    file_len: u64,
}

/// Stream the frames of the log at `path` (a missing file is an empty
/// log), verifying and decoding every one; only the newest
/// [`DECODED_TAIL`] are kept decoded. Only a *final* frame may be damaged — short, or whole with a
/// failing body checksum; everything else that does not verify is an
/// error, because a log that silently lost an operation would
/// desynchronize every replica built from it.
fn read_log(path: &Path) -> Result<Loaded> {
    let file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Loaded::default()),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut loaded = Loaded {
        file_len,
        ..Loaded::default()
    };
    let mut header = [0u8; FILE_HEADER];
    if file_len < FILE_HEADER as u64 {
        // A crash while the log was being created: no append was ever
        // acknowledged, so a prefix of a fresh header is an empty log.
        let short = &mut header[..file_len as usize];
        reader.read_exact(short)?;
        if file_header(0).starts_with(&*short) {
            return Ok(loaded);
        }
        return Err(not_a_log(path));
    }
    reader.read_exact(&mut header)?;
    loaded.base = parse_file_header(&header, path)?;
    loaded.good_len = FILE_HEADER as u64;

    let mut head = [0u8; FRAME_HEADER];
    let mut body = Vec::new();
    while loaded.good_len < file_len {
        let start = loaded.good_len;
        let frame_no = loaded.offsets.len() + 1;
        let corrupt = |what: &str| {
            SagaError::Storage(format!(
                "corrupt log frame {frame_no} at byte {start} of {}: {what}",
                path.display()
            ))
        };
        if file_len - start < FRAME_HEADER as u64 {
            break;
        }
        reader.read_exact(&mut head)?;
        if head_sum(&head) != u32_at(&head, 20) {
            return Err(corrupt("the frame header fails its self-check"));
        }
        let len = u32_at(&head, 0);
        let end = start + FRAME_HEADER as u64 + u64::from(len);
        if end > file_len {
            break;
        }
        body.resize(len as usize, 0);
        reader.read_exact(&mut body)?;
        if fnv1a(&body) != u64_at(&head, 12) {
            if end == file_len {
                break;
            }
            return Err(corrupt("body checksum mismatch"));
        }
        let lsn = Lsn(u64_at(&head, 4));
        // `checked`: the base is input, and a header may claim `u64::MAX`.
        let expected = loaded.base.checked_add(frame_no as u64).map(Lsn);
        if Some(lsn) != expected {
            return Err(SagaError::Storage(format!(
                "LSN discontinuity at frame {frame_no}: expected {expected:?}, found {lsn:?} \
                 (log entries must be dense and ordered)"
            )));
        }
        let op = decode_body(lsn, &body).map_err(|e| corrupt(&e.to_string()))?;
        if loaded.decoded.len() == DECODED_TAIL {
            loaded.decoded.pop_front();
        }
        loaded.decoded.push_back(Arc::new(op));
        loaded.offsets.push(start);
        loaded.good_len = end;
    }
    Ok(loaded)
}

/// The one handle a durable log writes its frames through (append mode)
/// and reads them back through (positional reads).
fn open_log_file(path: &Path) -> std::io::Result<fs::File> {
    fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// Sync the directory holding `path`, so a file created or renamed there
/// keeps its name across a power cut.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

/// A watermark-tracking cursor over an [`OperationLog`] — the follower
/// protocol log-shipped stores replay through.
///
/// The watermark is the highest LSN the follower has applied;
/// [`poll_with`](Self::poll_with) applies the next contiguous batch and
/// advances it. Density is verified on every poll, so a replica can never
/// silently skip an operation even if the log implementation changes
/// underneath.
pub struct LogFollower {
    log: Arc<OperationLog>,
    watermark: Lsn,
}

impl LogFollower {
    /// A follower starting from the beginning of the log.
    pub fn new(log: Arc<OperationLog>) -> Self {
        Self::resume_at(log, Lsn::ZERO)
    }

    /// A follower resuming after `watermark`: the LSN of the checkpoint
    /// its store was restored from. A store that lives only in memory
    /// restarts from [`new`](Self::new) instead.
    pub fn resume_at(log: Arc<OperationLog>, watermark: Lsn) -> Self {
        LogFollower { log, watermark }
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

    /// Apply `f` to each of up to `max` operations past the watermark,
    /// then advance the watermark over them; returns how many were
    /// applied (0 when caught up). The batch and the compaction point are
    /// copied out under one acquisition of the log's lock, which is
    /// released before any frame is read back from the file and before
    /// `f` runs: ops in the decoded tail are shared, not cloned, and
    /// older ones are decoded from their frames, so bulk replay costs no
    /// payload copies and never stalls an appender. The watermark
    /// advances only after `f` has seen the whole batch.
    ///
    /// Errors without applying anything when the watermark has fallen
    /// behind [`OperationLog::compacted_through`] — the ops this follower
    /// still needs were dropped, so the caller must re-bootstrap from a
    /// checkpoint (a per-op contiguity check alone cannot catch this when
    /// the retained tail is empty) — when a frame of the batch cannot be
    /// read back from the file or fails its checks there, or when the
    /// batch is not dense from the watermark.
    pub fn poll_with(&mut self, max: usize, mut f: impl FnMut(&IngestOp)) -> Result<usize> {
        let (compacted, batch, read) = self.log.shared_batch(self.watermark, max);
        if self.watermark < compacted {
            return Err(SagaError::Storage(format!(
                "follower at {:?} has fallen behind the compaction point {compacted:?}: \
                 the prefix is gone, re-bootstrap from a checkpoint",
                self.watermark
            )));
        }
        read?;
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
        for op in &batch {
            f(op);
        }
        self.watermark = expected;
        Ok(batch.len())
    }
}

/// Unique temp-file path per call: the process id alone is not enough
/// because the test harness runs tests of one binary in parallel threads
/// of a single process, which used to clobber the shared file.
#[cfg(test)]
pub(crate) fn unique_log_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "saga_oplog_{}_{}.oplog",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
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
        let a = log
            .append_op(OpKind::Upsert, vec![delta(1, "x", 1)])
            .unwrap();
        let b = log
            .append_op(OpKind::Delete, vec![delta(2, "x", 2)])
            .unwrap();
        assert_eq!(a, Lsn(1));
        assert_eq!(b, Lsn(2));
        assert_eq!(log.head(), Lsn(2));
    }

    #[test]
    fn read_after_replays_exactly_the_suffix() {
        let log = OperationLog::in_memory();
        for i in 1..=5u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
        let suffix = log.read_after(Lsn(3));
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].lsn, Lsn(4));
        assert_eq!(suffix[1].lsn, Lsn(5));
        assert_eq!(suffix[1].deltas, vec![delta(5, "x", 5)]);
        assert!(log.read_after(Lsn(5)).is_empty());
        assert_eq!(log.read_after(Lsn::ZERO).len(), 5);
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
        assert_eq!(op.deltas.len(), 3);
        assert_eq!(op.changed_entities(), vec![EntityId(2), EntityId(4)]);
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
            log.append_op(OpKind::RetractSource(SourceId(3)), Vec::new())
                .unwrap();
            log.sync().unwrap();
        }
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(2));
        assert_eq!(reopened.truncated_tail_bytes(), 0);
        let ops = reopened.read_after(Lsn::ZERO);
        assert_eq!(ops[0].changed_entities(), vec![EntityId(1), EntityId(2)]);
        assert_eq!(
            ops[0].deltas,
            vec![delta(1, "name", 7), delta(2, "name", 9)],
            "delta payloads survive the reopen"
        );
        assert_eq!(ops[1].kind, OpKind::RetractSource(SourceId(3)));
        // Appending continues the sequence.
        let next = reopened.append_op(OpKind::Upsert, Vec::new()).unwrap();
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

    /// A crash can cut the file anywhere inside the frame being written,
    /// the middle of a multi-byte character and the last byte included.
    #[test]
    fn torn_tail_at_every_byte_offset() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let (intact, whole) = {
            let log = OperationLog::durable(&path).unwrap();
            log.append_op(OpKind::Upsert, vec![delta(1, "x", 1)])
                .unwrap();
            log.append_op(OpKind::Upsert, vec![delta(2, "x", 2)])
                .unwrap();
            let intact = fs::metadata(&path).unwrap().len() as usize;
            let mut last = delta(3, "name", 3);
            last.added[0].object = Value::str("Beyoncé 日本 🎵");
            log.append_op(OpKind::Upsert, vec![last]).unwrap();
            (intact, fs::read(&path).unwrap())
        };
        for cut in intact..whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            let reopened = OperationLog::durable(&path).unwrap();
            assert_eq!(reopened.head(), Lsn(2), "cut at {cut}: intact prefix kept");
            assert_eq!(reopened.truncated_tail_bytes(), (cut - intact) as u64);
            // The torn bytes are gone from disk: the next append starts a
            // frame of its own and a third open sees a clean log.
            reopened
                .append_op(OpKind::Upsert, vec![delta(3, "x", 3)])
                .unwrap();
            drop(reopened);
            let third = OperationLog::durable(&path).unwrap();
            assert_eq!(third.head(), Lsn(3), "cut at {cut}");
            assert_eq!(third.truncated_tail_bytes(), 0);
        }
        let _ = fs::remove_file(&path);
    }

    /// The file format, pinned: what `append_op` writes to a durable log
    /// for a multi-delta `Upsert` (entities out of order, several
    /// predicates, an entity reference, a removal) and a `RetractSource`
    /// with an empty payload — header included, byte for byte.
    #[test]
    fn append_op_frames_are_pinned_byte_for_byte() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        {
            let log = OperationLog::durable(&path).unwrap();
            let mut upsert = vec![delta(4, "name", 7), delta(2, "born", 2001)];
            upsert[0].added.push(DeltaFact {
                predicate: intern("related_to"),
                object: Value::Entity(EntityId(2)),
            });
            upsert[0].removed.push(DeltaFact {
                predicate: intern("name"),
                object: Value::str("Beyoncé"),
            });
            log.append_op(OpKind::Upsert, upsert).unwrap();
            log.append_op(OpKind::RetractSource(SourceId(3)), Vec::new())
                .unwrap();
        }
        let golden: &[&[u8]] = &[
            // File header: magic, version 2, base 0, checksum.
            b"SAGAOPLG\x02\0\0\0\0\0\0\0\0\0\0\0",
            &[161, 159, 198, 191, 5, 58, 240, 30],
            // Frame 1 header: body length 45, LSN 1, body sum, head sum.
            &[45, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            &[58, 157, 177, 1, 245, 78, 112, 83, 56, 17, 170, 3],
            // Frame 1 body: kind 0, a three-name table, two deltas.
            &[0, 3, 4],
            b"name",
            &[10],
            b"related_to",
            &[4],
            b"born",
            &[2],
            // Entity 4 (zig-zag gap +4 from 0), three facts: code 2 =
            // name, added, Int 7 (zig-zag 14); code 21 = related_to (1 << 4),
            // added, Entity 2; code 12 = name, removed (8), Str of 8 bytes.
            &[8, 3, 2, 14, 21, 2, 12, 8],
            "Beyoncé".as_bytes(),
            // Entity 2 (gap −2, zig-zag 3), one fact: code 34 = born
            // (2 << 4), added, Int 2001 (zig-zag 4002 = [162, 31]).
            &[3, 1, 34, 162, 31],
            // Frame 2: body length 4, LSN 2, sums; kind 2, source 3, no
            // names, no deltas.
            &[4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
            &[194, 139, 33, 79, 144, 73, 196, 149, 115, 91, 50, 216],
            &[2, 3, 0, 0],
        ];
        assert_eq!(fs::read(&path).unwrap(), golden.concat());
        let _ = fs::remove_file(&path);
    }

    /// The header of a file this build wrote, with another version and
    /// the checksum that version would carry.
    fn header_of_version(version: u32) -> Vec<u8> {
        let mut header = file_header(0).to_vec();
        header[8..12].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a(&header[..20]);
        header[20..].copy_from_slice(&sum.to_le_bytes());
        header
    }

    #[test]
    fn a_version_1_log_is_refused_naming_both_versions() {
        let path = unique_log_path();
        let bytes = header_of_version(1);
        fs::write(&path, &bytes).unwrap();
        match OperationLog::durable(&path).unwrap_err() {
            SagaError::Storage(msg) => assert!(
                msg.contains("format version 1; this build reads version 2"),
                "{msg}"
            ),
            other => panic!("expected a Storage error, got {other}"),
        }
        assert_eq!(fs::read(&path).unwrap(), bytes, "left untouched");
        let _ = fs::remove_file(&path);
    }

    /// A body with one name (`x`) and one delta for entity 1 whose facts
    /// are `facts`, each a code and its payload.
    fn body_with_facts(count: u8, facts: &[u8]) -> Vec<u8> {
        let mut body = vec![0, 1, 1, b'x', 1, 2, count];
        body.extend_from_slice(facts);
        body
    }

    #[test]
    fn a_fact_code_that_breaks_the_format_is_refused() {
        let int = |code: u8, v: u8| [code, v];
        // Added Int 1, then removed Int 2: the one encoding.
        let op = decode_body(
            Lsn(1),
            &body_with_facts(2, &[int(2, 2), int(10, 4)].concat()),
        );
        let delta = &op.unwrap().deltas[0];
        assert_eq!(delta.entity, EntityId(1));
        assert_eq!(delta.added[0].object, Value::Int(1));
        assert_eq!(delta.removed[0].object, Value::Int(2));
        for (what, facts, count) in [
            (
                "an added fact after a removed one",
                [int(10, 4), int(2, 2)].concat(),
                2,
            ),
            ("unknown value tag", vec![7], 1),
            ("unknown value tag", vec![15], 1),
            (
                "outside the record's name table",
                int(1 << 4 | 2, 2).to_vec(),
                1,
            ),
        ] {
            match decode_body(Lsn(1), &body_with_facts(count, &facts)) {
                Err(SagaError::Storage(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    /// Entity gaps wrap: ids at both ends of `u64` next to each other cost
    /// a byte each and come back exactly.
    #[test]
    fn entity_gaps_round_trip_across_the_ends_of_u64() {
        let ids = [u64::MAX, 0, 1, u64::MAX - 1];
        let op = IngestOp {
            lsn: Lsn(1),
            kind: OpKind::Delete,
            deltas: ids.iter().map(|&id| delta(id, "x", 1)).collect(),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &op).unwrap();
        let body = &frame[FRAME_HEADER..];
        // Kind, the name table, the delta count, then per delta its gap,
        // one fact and that fact's code and payload.
        assert_eq!(body[..5], [1, 1, 1, b'x', 4]);
        let gaps: Vec<u8> = body[5..].chunks(4).map(|d| d[0]).collect();
        // Gaps −1, +1, +1 and −3 as zig-zag varints.
        assert_eq!(gaps, [1, 2, 2, 5]);
        assert_eq!(decode_body(op.lsn, body).unwrap(), op);
    }

    fn empty_op(lsn: u64) -> IngestOp {
        IngestOp {
            lsn: Lsn(lsn),
            kind: OpKind::Upsert,
            deltas: Vec::new(),
        }
    }

    /// A log file assembled by hand: header, then one frame per op.
    fn file_of(base: u64, ops: &[IngestOp]) -> Vec<u8> {
        let mut bytes = file_header(base).to_vec();
        let mut frame = Vec::new();
        for op in ops {
            write_frame(&mut frame, op).unwrap();
            bytes.extend_from_slice(&frame);
        }
        bytes
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let path = unique_log_path();
        let mut bytes = file_of(0, &[empty_op(1), empty_op(2)]);
        bytes[FILE_HEADER + FRAME_HEADER] ^= 0x40; // first body byte of frame 1
        fs::write(&path, &bytes).unwrap();
        let err = OperationLog::durable(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt log frame 1"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "nothing was truncated");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn lsn_gaps_and_reordering_are_rejected() {
        for (name, lsns) in [
            ("gap", &[1u64, 3][..]),
            ("reorder", &[2, 1]),
            ("wrong start", &[5]),
        ] {
            let ops: Vec<IngestOp> = lsns.iter().map(|&lsn| empty_op(lsn)).collect();
            let path = unique_log_path();
            fs::write(&path, file_of(0, &ops)).unwrap();
            let err = OperationLog::durable(&path).unwrap_err();
            assert!(
                err.to_string().contains("LSN discontinuity"),
                "{name}: {err}"
            );
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn json_lines_file_is_refused_with_a_typed_error() {
        for text in [
            "{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":1}\n{\"changed\":[],\"kind\":\"Upsert\",\"lsn\":2}\n",
            "{\"lsn\":1}\n", // shorter than a header
        ] {
            let path = unique_log_path();
            fs::write(&path, text).unwrap();
            match OperationLog::durable(&path).unwrap_err() {
                SagaError::Storage(msg) => {
                    assert!(msg.contains("not a saga operation log"), "{msg}")
                }
                other => panic!("expected a Storage error, got {other}"),
            }
            assert_eq!(fs::read_to_string(&path).unwrap(), text, "left untouched");
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn json_dump_form_round_trips() {
        let mut with_deltas = empty_op(7);
        with_deltas.deltas = vec![delta(1, "name", 7), delta(2, "x", 9)];
        let mut retract = empty_op(8);
        retract.kind = OpKind::RetractSource(SourceId(3));
        for op in [with_deltas, retract] {
            assert_eq!(IngestOp::from_json(&op.to_json()).unwrap(), op);
        }
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

        let mut applied: Vec<Lsn> = Vec::new();
        assert_eq!(follower.poll_with(3, |op| applied.push(op.lsn)).unwrap(), 3);
        assert_eq!(follower.watermark(), Lsn(3));
        assert_eq!(
            follower.poll_with(100, |op| applied.push(op.lsn)).unwrap(),
            4
        );
        assert_eq!(follower.watermark(), Lsn(7));
        assert_eq!(follower.poll_with(10, |_| {}).unwrap(), 0, "caught up");
        assert_eq!(follower.lag(), 0);
        assert_eq!(applied, (1..=7).map(Lsn).collect::<Vec<_>>());

        // New appends are picked up from the watermark.
        log.append_op(OpKind::Upsert, vec![delta(9, "x", 9)])
            .unwrap();
        let mut fresh = Vec::new();
        follower.poll_with(10, |op| fresh.push(op.clone())).unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].lsn, Lsn(8));
        assert_eq!(fresh[0].deltas, vec![delta(9, "x", 9)]);

        // Resuming from a checkpoint replays exactly the suffix.
        let mut resumed = LogFollower::resume_at(log, Lsn(6));
        let mut suffix = Vec::new();
        resumed.poll_with(100, |op| suffix.push(op.lsn)).unwrap();
        assert_eq!(suffix, vec![Lsn(7), Lsn(8)]);
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
        assert_eq!(log.append_op(OpKind::Upsert, Vec::new()).unwrap(), Lsn(11));
        // …re-compacting at or below the point is a no-op, beyond head errors.
        assert_eq!(log.compact_to(Lsn(3)).unwrap(), 0);
        assert!(log.compact_to(Lsn(99)).is_err());
        // A reader below the compaction point sees a non-contiguous batch.
        let stale = log.read_after(Lsn(2));
        assert_eq!(stale.first().unwrap().lsn, Lsn(7), "hole is visible");
        let mut follower = LogFollower::resume_at(Arc::new(log), Lsn(2));
        assert!(
            follower.poll_with(10, |_| {}).is_err(),
            "stale follower errors loudly"
        );
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
    fn header_anywhere_but_the_head_is_rejected() {
        // The compaction point lives in the file header and nowhere else:
        // a second header after an op is not a frame.
        let path = unique_log_path();
        let mut bytes = file_of(0, &[empty_op(1)]);
        bytes.extend_from_slice(&file_of(5, &[empty_op(6)]));
        fs::write(&path, bytes).unwrap();
        let err = OperationLog::durable(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt log frame 2"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn poll_with_replays_without_cloning() {
        let log = Arc::new(OperationLog::in_memory());
        for i in 1..=9u64 {
            log.append_op(OpKind::Upsert, vec![delta(i, "x", i as i64)])
                .unwrap();
        }
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

    /// Op `i` of the follower tests: every kind, several predicates, a
    /// string, an entity reference and a removal.
    fn varied_op(i: u64) -> (OpKind, Vec<Delta>) {
        let kind = match i % 7 {
            3 => OpKind::Delete,
            5 => OpKind::RetractSource(SourceId((i % 4) as u32)),
            6 => OpKind::VolatileOverwrite(SourceId(1)),
            _ => OpKind::Upsert,
        };
        let mut first = delta(i, "x", i as i64);
        first.added.push(DeltaFact {
            predicate: intern("name"),
            object: Value::str(format!("Person {i} é")),
        });
        first.removed.push(DeltaFact {
            predicate: intern("knows"),
            object: Value::Entity(EntityId(i / 2)),
        });
        let deltas = match i % 3 {
            0 => Vec::new(),
            1 => vec![first],
            _ => vec![first, delta(i + 1, "y", -(i as i64))],
        };
        (kind, deltas)
    }

    /// Everything a follower starting after `after` sees, polled in
    /// batches of `batch`.
    fn follow(log: &Arc<OperationLog>, after: Lsn, batch: usize) -> Vec<IngestOp> {
        let mut follower = LogFollower::resume_at(Arc::clone(log), after);
        let mut seen = Vec::new();
        while follower
            .poll_with(batch, |op| seen.push(op.clone()))
            .unwrap()
            > 0
        {}
        seen
    }

    /// A durable log and its in-memory twin, both holding `n` varied ops,
    /// and what a follower that polled after every append saw.
    fn durable_and_twin(
        path: &Path,
        n: u64,
    ) -> (Arc<OperationLog>, Arc<OperationLog>, Vec<IngestOp>) {
        let durable = Arc::new(OperationLog::durable(path).unwrap());
        let twin = Arc::new(OperationLog::in_memory());
        let mut caught_up = LogFollower::new(Arc::clone(&durable));
        let mut seen = Vec::new();
        for i in 1..=n {
            let (kind, deltas) = varied_op(i);
            durable.append_op(kind.clone(), deltas.clone()).unwrap();
            twin.append_op(kind, deltas).unwrap();
            assert_eq!(
                caught_up.poll_with(10, |op| seen.push(op.clone())).unwrap(),
                1
            );
        }
        (durable, twin, seen)
    }

    #[test]
    fn a_lagging_follower_sees_what_a_caught_up_one_sees() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let n = 3 * DECODED_TAIL as u64;
        let (durable, twin, caught_up) = durable_and_twin(&path, n);
        assert!(
            durable.decoded_len() < n as usize,
            "most ops are behind the tail"
        );
        let lagging = follow(&durable, Lsn::ZERO, 100);
        assert_eq!(lagging.len() as u64, n);
        assert_eq!(lagging, caught_up, "lagging vs caught-up follower");
        assert_eq!(
            lagging,
            follow(&twin, Lsn::ZERO, 100),
            "durable vs in-memory"
        );
        assert_eq!(durable.read_after(Lsn(n / 2)), twin.read_after(Lsn(n / 2)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_lagging_follower_reads_through_compaction_and_reopen() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let n = 3 * DECODED_TAIL as u64;
        let (durable, twin, expected) = durable_and_twin(&path, n);

        // Five polls in, the prefix the follower has applied is compacted
        // away; it goes on reading frames from the rewritten file.
        let mut follower = LogFollower::new(Arc::clone(&durable));
        let mut seen = Vec::new();
        for _ in 0..5 {
            follower.poll_with(100, |op| seen.push(op.clone())).unwrap();
        }
        assert_eq!(durable.compact_to(Lsn(300)).unwrap(), 300);
        assert_eq!(twin.compact_to(Lsn(300)).unwrap(), 300);
        while follower.poll_with(100, |op| seen.push(op.clone())).unwrap() > 0 {}
        assert_eq!(seen, expected);
        assert_eq!(
            follow(&durable, Lsn(300), 100),
            follow(&twin, Lsn(300), 100)
        );

        // A compaction that leaves fewer ops than the tail holds.
        let cut = Lsn(n - DECODED_TAIL as u64 / 2);
        durable.compact_to(cut).unwrap();
        twin.compact_to(cut).unwrap();
        assert_eq!(follow(&durable, cut, 100), follow(&twin, cut, 100));
        drop(durable);

        // Reopened, and appended to, the log serves the same ops again.
        let reopened = Arc::new(OperationLog::durable(&path).unwrap());
        assert_eq!(reopened.compacted_through(), cut);
        for i in n + 1..=n + DECODED_TAIL as u64 {
            let (kind, deltas) = varied_op(i);
            reopened.append_op(kind.clone(), deltas.clone()).unwrap();
            twin.append_op(kind, deltas).unwrap();
        }
        assert_eq!(follow(&reopened, cut, 100), follow(&twin, cut, 100));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_frame_damaged_behind_the_tail_fails_the_poll_not_the_process() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let n = 2 * DECODED_TAIL as u64;
        let (durable, twin, _) = durable_and_twin(&path, n);

        // A quarter into the file is a frame no follower is handed decoded.
        let at = fs::metadata(&path).unwrap().len() / 4;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0x20], at).unwrap();

        let mut follower = LogFollower::new(Arc::clone(&durable));
        let mut applied = 0u64;
        let err = loop {
            let before = follower.watermark();
            match follower.poll_with(100, |_| applied += 1) {
                Ok(0) => panic!("the follower reached the head past a damaged frame"),
                Ok(_) => continue,
                Err(err) => {
                    assert_eq!(follower.watermark(), before, "watermark unmoved");
                    assert_eq!(applied, before.0, "nothing of the failed batch applied");
                    break err;
                }
            }
        };
        assert!(matches!(err, SagaError::Storage(_)), "{err}");
        assert!(follower.watermark().0 < n - DECODED_TAIL as u64);

        // The dump stops at the damaged frame.
        let dumped = durable.read_after(Lsn::ZERO);
        assert!((dumped.len() as u64) < n - DECODED_TAIL as u64);
        assert!(dumped.len() as u64 >= follower.watermark().0);
        assert_eq!(dumped, twin.read_after(Lsn::ZERO)[..dumped.len()]);
        // The tail is still served.
        assert_eq!(follow(&durable, Lsn(n - 10), 100).len(), 10);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_durable_log_holds_at_most_the_tail_decoded() {
        let path = unique_log_path();
        let _ = fs::remove_file(&path);
        let durable = OperationLog::durable(&path).unwrap();
        let in_memory = OperationLog::in_memory();
        let n = 10 * DECODED_TAIL;
        for i in 1..=n as u64 {
            durable
                .append_op(OpKind::Upsert, vec![delta(i, "x", 1)])
                .unwrap();
            in_memory
                .append_op(OpKind::Upsert, vec![delta(i, "x", 1)])
                .unwrap();
        }
        assert!(durable.decoded_len() <= DECODED_TAIL);
        assert_eq!(in_memory.decoded_len(), n);
        drop(durable);
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.head(), Lsn(n as u64));
        assert!(reopened.decoded_len() <= DECODED_TAIL);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_get_unique_lsns() {
        let log = Arc::new(OperationLog::in_memory());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|_| log.append_op(OpKind::Upsert, Vec::new()).unwrap().0)
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
