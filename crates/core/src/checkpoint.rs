//! Checkpoint artifacts: a serialized [`TripleIndex`] snapshot at a
//! watermark LSN.
//!
//! §3.1 of the paper keeps every derived store consistent by replaying one
//! shared operation log — but replay alone makes bootstrap `O(all
//! history)`. A checkpoint bounds that: it captures everything a
//! `GraphRead`-serving store derives from the log *up to* a watermark, so
//! a fresh replica loads `latest checkpoint + log tail` in time
//! proportional to live data. See `docs/checkpoint.md` for the full
//! contract.
//!
//! # Artifact format (version 2)
//!
//! ```text
//! SAGACKPT 2\n                      magic + format version (text line)
//! {"version":2,...}\n               manifest (one compact JSON line)
//! <binary section bytes…>           concatenated, in manifest order
//! ```
//!
//! The manifest names each section with its byte length and FNV-1a 64
//! checksum (hex); the sections are `symbols` (predicate/dictionary
//! strings), `objects` (the live values that take a dictionary slot),
//! `records` (the SPO columns), and the three posting families `pos`,
//! `osp`, `tokens`. `records` and `pos` write each object as one varint
//! reference: `i << 1` for `objects` entry `i`, `payload << 2 | 0b01` for
//! an immediate `Int` and `payload << 2 | 0b11` for an immediate entity
//! (see [`ObjId`]). An immediate never appears in `objects`, and an
//! artifact of another version fails to load. All
//! posting lists are written **block-wise** through
//! [`BlockPostings::write_bytes`] — the compressed containers are copied
//! byte-for-byte, never decompressed. Counts, strings and object values
//! inside a section use the [`crate::binary`] vocabulary the wire
//! protocol shares.
//!
//! # Durability and torn-write recovery
//!
//! [`publish`] writes to a temporary name, fsyncs, then atomically renames
//! into `ckpt-<watermark>.sagackpt` and fsyncs the directory — mirroring
//! the oplog's torn-tail discipline at the artifact level. A publish that
//! fails before the rename leaves a `.tmp` straggler, which [`prune`]
//! deletes once a newer artifact is published. A reader
//! ([`load`]) re-verifies the magic, the manifest, every section length
//! and checksum, and every structural invariant of the decoded postings;
//! a torn or corrupt artifact is an error, and [`load_latest`] skips it in
//! favor of the newest artifact that does verify.
//!
//! Checkpoints are pure functions of the log prefix they cover, so any
//! number of them may coexist; retention ([`prune`]) keeps the newest N.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::binary::{
    fnv1a, push_str, push_value, push_varint, take_count, take_str, take_value, take_varint,
};
use crate::index::{ObjDict, ObjId};
use crate::json::{self, Json};
use crate::postings::BlockPostings;
use crate::{intern, EntityId, FxHashMap, Lsn, Result, SagaError, Symbol, TripleIndex, Value};

/// Artifact format version this module writes and understands.
pub const FORMAT_VERSION: u64 = 2;

/// Magic first line of every artifact: `SAGACKPT ` and the format version.
const MAGIC: &str = "SAGACKPT 2";

/// File extension of a published artifact.
const EXTENSION: &str = "sagackpt";

/// Section names, in artifact order.
const SECTIONS: [&str; 6] = ["symbols", "objects", "records", "pos", "osp", "tokens"];

fn err(msg: impl Into<String>) -> SagaError {
    SagaError::Storage(format!("checkpoint: {}", msg.into()))
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// A fully rendered artifact, ready to [`publish`]. Encoding happens
/// in-memory so a producer can snapshot under its read lock and do the
/// file IO after releasing it.
pub struct CheckpointImage {
    watermark: Lsn,
    bytes: Vec<u8>,
}

impl CheckpointImage {
    /// The LSN this image covers (every op `<= watermark` is baked in).
    pub fn watermark(&self) -> Lsn {
        self.watermark
    }

    /// Rendered artifact size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the artifact is empty (it never is — magic + manifest).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Serialize `index` as a checkpoint image at `watermark`. Pure in-memory
/// assembly: posting lists are copied block-wise in their compressed form.
pub fn encode(watermark: Lsn, index: &TripleIndex) -> CheckpointImage {
    // Symbol table: every predicate of a posting key (each column fact has
    // one), sorted by text so the artifact is deterministic for a given
    // index content regardless of interning order. `sym_index` is indexed
    // by symbol id: a fact costs an array load, not a hash.
    let mut sym_index: Vec<u64> = Vec::new();
    for &(pred, _) in index.pos.keys() {
        let at = pred.0 as usize;
        if at >= sym_index.len() {
            sym_index.resize(at + 1, u64::MAX);
        }
        sym_index[at] = 0;
    }
    let mut symbols: Vec<Symbol> = (0..)
        .zip(&sym_index)
        .filter(|&(_, &at)| at != u64::MAX)
        .map(|(id, _)| Symbol(id))
        .collect();
    // `text()` takes the interner's lock: once per symbol, not per compare.
    symbols.sort_by_cached_key(|s| s.text());
    for (i, sym) in symbols.iter().enumerate() {
        sym_index[sym.0 as usize] = i as u64;
    }

    // Object table: live dictionary slots only, in slot order (immediates
    // have none); `obj_index` maps a source slot to its dense position in
    // the artifact.
    let mut obj_index: Vec<u64> = vec![u64::MAX; index.objects.slots()];
    let mut objects: Vec<&Value> = Vec::new();
    for (obj, value) in index.objects.live() {
        obj_index[obj.0 as usize] = objects.len() as u64;
        objects.push(value);
    }
    let obj_ref = |obj: ObjId| match obj.as_immediate() {
        None => obj_index[obj.0 as usize] << 1,
        Some((entity, payload)) => u64::from(payload) << 2 | u64::from(entity) << 1 | 1,
    };

    let mut sections: Vec<(&str, Vec<u8>)> = Vec::with_capacity(SECTIONS.len());

    let mut buf = Vec::new();
    push_varint(&mut buf, symbols.len() as u64);
    for sym in &symbols {
        push_str(&mut buf, &sym.text());
    }
    sections.push(("symbols", std::mem::take(&mut buf)));

    push_varint(&mut buf, objects.len() as u64);
    for value in &objects {
        push_value(&mut buf, value);
    }
    sections.push(("objects", std::mem::take(&mut buf)));

    // Records: SPO columns, entities ascending (delta-encoded ids).
    let mut entities: Vec<EntityId> = index.spo.keys().copied().collect();
    entities.sort_unstable();
    push_varint(&mut buf, entities.len() as u64);
    let mut prev = 0u64;
    for (i, &entity) in entities.iter().enumerate() {
        push_varint(&mut buf, if i == 0 { entity.0 } else { entity.0 - prev });
        prev = entity.0;
        let facts = &index.spo[&entity];
        push_varint(&mut buf, facts.len() as u64);
        for &(pred, obj) in facts {
            push_varint(&mut buf, sym_index[pred.0 as usize]);
            push_varint(&mut buf, obj_ref(obj));
        }
    }
    sections.push(("records", std::mem::take(&mut buf)));

    // POS postings, sorted by (symbol index, object reference).
    let mut pos: Vec<(u64, u64, &BlockPostings)> = index
        .pos
        .iter()
        .map(|(&(pred, obj), list)| (sym_index[pred.0 as usize], obj_ref(obj), list))
        .collect();
    pos.sort_unstable_by_key(|&(s, o, _)| (s, o));
    push_varint(&mut buf, pos.len() as u64);
    for (sym, obj, list) in pos {
        push_varint(&mut buf, sym);
        push_varint(&mut buf, obj);
        list.write_bytes(&mut buf);
    }
    sections.push(("pos", std::mem::take(&mut buf)));

    // OSP postings, sorted by target id.
    let mut osp: Vec<(EntityId, &BlockPostings)> =
        index.osp.iter().map(|(&t, list)| (t, list)).collect();
    osp.sort_unstable_by_key(|&(t, _)| t);
    push_varint(&mut buf, osp.len() as u64);
    for (target, list) in osp {
        push_varint(&mut buf, target.0);
        list.write_bytes(&mut buf);
    }
    sections.push(("osp", std::mem::take(&mut buf)));

    // Token postings, sorted by token text.
    let mut tokens: Vec<(&Arc<str>, &BlockPostings)> = index.tokens.iter().collect();
    tokens.sort_unstable_by_key(|&(t, _)| t);
    push_varint(&mut buf, tokens.len() as u64);
    for (token, list) in tokens {
        push_str(&mut buf, token);
        list.write_bytes(&mut buf);
    }
    sections.push(("tokens", std::mem::take(&mut buf)));

    // Manifest + concatenated payload.
    let mut section_meta = Vec::new();
    for (name, bytes) in &sections {
        let mut m = std::collections::BTreeMap::new();
        m.insert("name".to_string(), Json::str(*name));
        m.insert("len".to_string(), Json::Int(bytes.len() as i64));
        m.insert(
            "crc".to_string(),
            Json::Str(format!("{:016x}", fnv1a(bytes))),
        );
        section_meta.push(Json::Object(m));
    }
    let mut manifest = std::collections::BTreeMap::new();
    manifest.insert("version".to_string(), Json::Int(FORMAT_VERSION as i64));
    manifest.insert("watermark".to_string(), Json::Int(watermark.0 as i64));
    manifest.insert(
        "entities".to_string(),
        Json::Int(index.entity_count() as i64),
    );
    manifest.insert("facts".to_string(), Json::Int(index.fact_count() as i64));
    manifest.insert("sections".to_string(), Json::Array(section_meta));

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(Json::Object(manifest).to_string_compact().as_bytes());
    out.push(b'\n');
    for (_, bytes) in sections {
        out.extend_from_slice(&bytes);
    }
    CheckpointImage {
        watermark,
        bytes: out,
    }
}

// ---------------------------------------------------------------------
// Publish / enumerate / prune
// ---------------------------------------------------------------------

/// Artifact file name for a watermark (zero-padded so lexical order is
/// numeric order).
fn artifact_name(watermark: Lsn) -> String {
    format!("ckpt-{:020}.{}", watermark.0, EXTENSION)
}

/// Watermark parsed back out of an artifact file name.
fn parse_artifact_name(name: &str) -> Option<Lsn> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{EXTENSION}"))?;
    digits.parse::<u64>().ok().map(Lsn)
}

/// Atomically publish an image into `dir` (created if missing): write a
/// temporary file, fsync it, rename into place, fsync the directory. A
/// crash at any point leaves either no artifact or a complete one — the
/// torn-write discipline [`load`] assumes.
pub fn publish(dir: &Path, image: &CheckpointImage) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(artifact_name(image.watermark));
    let tmp_path = dir.join(format!("{}.tmp", artifact_name(image.watermark)));
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&image.bytes)?;
        f.sync_all()?;
    }
    // Fires after the temp write but before the rename: an injected
    // failure leaves a `.tmp` straggler and no new artifact — the torn
    // publish that discovery must skip.
    crate::failpoint!(crate::fail::sites::CHECKPOINT_PUBLISH);
    fs::rename(&tmp_path, &final_path)?;
    // Until the directory is synced the new name may not survive a crash,
    // so a caller must not compact the log to this watermark before then.
    fs::File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// One published artifact, by watermark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Watermark from the artifact file name (verified again on load).
    pub watermark: Lsn,
    /// Full path of the artifact.
    pub path: PathBuf,
}

/// Enumerate published artifacts in `dir`, watermark-ascending. Temporary
/// and foreign files are ignored; a missing directory is simply empty.
pub fn artifacts(dir: &Path) -> Result<Vec<CheckpointInfo>> {
    Ok(scan(dir)?.0)
}

/// The published artifacts of `dir` and the `.tmp` stragglers that failed
/// publishes left, each watermark-ascending.
fn scan(dir: &Path) -> Result<(Vec<CheckpointInfo>, Vec<CheckpointInfo>)> {
    let (mut published, mut stragglers) = (Vec::new(), Vec::new());
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((published, stragglers)),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let (list, name) = match name.strip_suffix(".tmp") {
            Some(name) => (&mut stragglers, name),
            None => (&mut published, name),
        };
        if let Some(watermark) = parse_artifact_name(name) {
            list.push(CheckpointInfo {
                watermark,
                path: entry.path(),
            });
        }
    }
    published.sort_by_key(|info| info.watermark);
    stragglers.sort_by_key(|info| info.watermark);
    Ok((published, stragglers))
}

/// Delete all but the newest `keep_last` artifacts, and every `.tmp`
/// straggler at or below the newest artifact's watermark (one above it
/// may be a publish in flight); returns the removed paths.
/// `keep_last == 0` removes every artifact.
pub fn prune(dir: &Path, keep_last: usize) -> Result<Vec<PathBuf>> {
    let (all, stragglers) = scan(dir)?;
    let newest = all.last().map(|info| info.watermark);
    let cut = all.len().saturating_sub(keep_last);
    let stale = stragglers
        .iter()
        .filter(|tmp| newest.is_some_and(|newest| tmp.watermark <= newest));
    let mut removed = Vec::new();
    for info in all[..cut].iter().chain(stale) {
        fs::remove_file(&info.path)?;
        removed.push(info.path.clone());
    }
    Ok(removed)
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// A verified, decoded checkpoint.
pub struct Checkpoint {
    /// The LSN the snapshot covers: replay resumes at `watermark + 1`.
    pub watermark: Lsn,
    /// The restored index.
    pub index: TripleIndex,
}

/// Load and fully verify one artifact. Every failure mode — truncation,
/// bit rot, manifest/section disagreement, malformed postings — is a
/// `SagaError::Storage`, never a panic or a silently wrong index.
pub fn load(path: &Path) -> Result<Checkpoint> {
    let mut raw = Vec::new();
    fs::File::open(path)?.read_to_end(&mut raw)?;

    // Header: magic line + manifest line.
    let magic_end = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| err("missing magic line"))?;
    let magic = &raw[..magic_end];
    if magic != MAGIC.as_bytes() {
        // Another version's artifact reports its version, like a manifest
        // that names one.
        return Err(match magic.strip_prefix(b"SAGACKPT ") {
            Some(version) => err(format!(
                "unsupported format version {}",
                String::from_utf8_lossy(version)
            )),
            None => err("bad magic (not a checkpoint)"),
        });
    }
    let manifest_end = raw[magic_end + 1..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| magic_end + 1 + i)
        .ok_or_else(|| err("missing manifest line"))?;
    let manifest_text = std::str::from_utf8(&raw[magic_end + 1..manifest_end])
        .map_err(|_| err("manifest not utf-8"))?;
    let manifest = json::parse(manifest_text).map_err(|e| err(format!("manifest: {e}")))?;

    let version = manifest
        .get("version")
        .and_then(Json::as_i64)
        .ok_or_else(|| err("manifest missing version"))?;
    if version != FORMAT_VERSION as i64 {
        return Err(err(format!("unsupported format version {version}")));
    }
    let watermark = manifest
        .get("watermark")
        .and_then(Json::as_i64)
        .ok_or_else(|| err("manifest missing watermark"))?;
    let watermark = Lsn(u64::try_from(watermark).map_err(|_| err("negative watermark"))?);
    let declared = manifest
        .get("sections")
        .and_then(Json::as_array)
        .ok_or_else(|| err("manifest missing sections"))?;
    if declared.len() != SECTIONS.len() {
        return Err(err("unexpected section count"));
    }

    // Slice and checksum each section.
    let mut sections: FxHashMap<&str, &[u8]> = FxHashMap::default();
    let mut at = manifest_end + 1;
    for (decl, &expected_name) in declared.iter().zip(SECTIONS.iter()) {
        let name = decl
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("section missing name"))?;
        if name != expected_name {
            return Err(err(format!("unexpected section order: {name}")));
        }
        let len = decl
            .get("len")
            .and_then(Json::as_i64)
            .and_then(|l| usize::try_from(l).ok())
            .ok_or_else(|| err("section missing len"))?;
        let crc = decl
            .get("crc")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| err("section missing crc"))?;
        let end = at
            .checked_add(len)
            .filter(|&end| end <= raw.len())
            .ok_or_else(|| err(format!("section {expected_name} truncated")))?;
        let bytes = &raw[at..end];
        if fnv1a(bytes) != crc {
            return Err(err(format!("section {expected_name} checksum mismatch")));
        }
        sections.insert(expected_name, bytes);
        at = end;
    }
    if at != raw.len() {
        return Err(err("trailing bytes after last section"));
    }

    // Decode into a fresh index. Interning is per-process, so symbols and
    // object ids are rebuilt from the tables; the artifact's dense object
    // index doubles as the restored dictionary slot, and an immediate
    // reference is its own id.
    let mut index = TripleIndex::new();

    let bytes = sections["symbols"];
    let mut at = 0usize;
    let nsyms = take_count(bytes, &mut at, 1)?;
    let mut symbols: Vec<Symbol> = Vec::with_capacity(nsyms);
    for _ in 0..nsyms {
        symbols.push(intern(take_str(bytes, &mut at)?));
    }
    if at != bytes.len() {
        return Err(err("symbols section length mismatch"));
    }

    let bytes = sections["objects"];
    let mut at = 0usize;
    let nobjs = take_count(bytes, &mut at, 1)?;
    // Slot ids leave bit 31 to the immediates.
    if nobjs > 1 << 31 {
        return Err(err("object table too large"));
    }
    // `take_count` has bounded `nobjs` by the section's length, so the
    // table is sized once; no slot is free, so value `i` takes slot `i`
    // unless it repeats an earlier one. An immediate in the table would
    // load under a second id beside its own and split its postings.
    index.objects = ObjDict::with_capacity(nobjs);
    for i in 0..nobjs {
        let value = take_value(bytes, &mut at)?;
        let id = index.objects.intern(&value);
        if id.slot().is_none() {
            return Err(err("immediate value in object table"));
        }
        if id.0 as usize != i {
            return Err(err("duplicate object value in table"));
        }
    }
    if at != bytes.len() {
        return Err(err("objects section length mismatch"));
    }

    let sym_at = |i: u64| -> Result<Symbol> {
        symbols
            .get(i as usize)
            .copied()
            .ok_or_else(|| err("symbol index out of range"))
    };
    // `i << 1` is table entry `i`; `payload << 2 | 0b01` an immediate
    // `Int`, `payload << 2 | 0b11` an immediate entity.
    let obj_at = |r: u64| -> Result<ObjId> {
        if r & 1 == 1 {
            ObjId::immediate(r & 0b10 != 0, r >> 2)
                .ok_or_else(|| err("immediate object reference out of range"))
        } else if ((r >> 1) as usize) < nobjs {
            Ok(ObjId((r >> 1) as u32))
        } else {
            Err(err("object index out of range"))
        }
    };

    let bytes = sections["records"];
    let mut at = 0usize;
    let nents = take_varint(bytes, &mut at)? as usize;
    let mut prev = 0u64;
    for i in 0..nents {
        let delta = take_varint(bytes, &mut at)?;
        let entity = EntityId(if i == 0 { delta } else { prev + delta });
        prev = entity.0;
        let nfacts = take_count(bytes, &mut at, 2)?;
        if nfacts == 0 {
            return Err(err("empty record column"));
        }
        let mut column: Vec<(Symbol, ObjId)> = Vec::with_capacity(nfacts);
        for _ in 0..nfacts {
            let pred = sym_at(take_varint(bytes, &mut at)?)?;
            let obj = obj_at(take_varint(bytes, &mut at)?)?;
            index.objects.acquire(obj);
            column.push((pred, obj));
        }
        // Symbol/ObjId orderings are process-local — re-sort the column.
        column.sort_unstable();
        index.facts += column.len();
        if index.spo.insert(entity, column).is_some() {
            return Err(err("duplicate entity in records section"));
        }
    }
    if at != bytes.len() {
        return Err(err("records section length mismatch"));
    }
    if index.objects.live().count() != nobjs {
        return Err(err("object table entry referenced by no record"));
    }

    let bytes = sections["pos"];
    let mut at = 0usize;
    let nlists = take_varint(bytes, &mut at)? as usize;
    for _ in 0..nlists {
        let pred = sym_at(take_varint(bytes, &mut at)?)?;
        let obj = obj_at(take_varint(bytes, &mut at)?)?;
        let list = BlockPostings::read_bytes(bytes, &mut at)?;
        if list.is_empty() {
            return Err(err("empty posting list in pos section"));
        }
        if index.pos.insert((pred, obj), list).is_some() {
            return Err(err("duplicate pos key"));
        }
    }
    if at != bytes.len() {
        return Err(err("pos section length mismatch"));
    }

    let bytes = sections["osp"];
    let mut at = 0usize;
    let nlists = take_varint(bytes, &mut at)? as usize;
    for _ in 0..nlists {
        let target = EntityId(take_varint(bytes, &mut at)?);
        let list = BlockPostings::read_bytes(bytes, &mut at)?;
        if list.is_empty() || index.osp.insert(target, list).is_some() {
            return Err(err("bad osp entry"));
        }
    }
    if at != bytes.len() {
        return Err(err("osp section length mismatch"));
    }

    let bytes = sections["tokens"];
    let mut at = 0usize;
    let nlists = take_varint(bytes, &mut at)? as usize;
    for _ in 0..nlists {
        let token: Arc<str> = Arc::from(take_str(bytes, &mut at)?);
        let list = BlockPostings::read_bytes(bytes, &mut at)?;
        if list.is_empty() || index.tokens.insert(token, list).is_some() {
            return Err(err("bad token entry"));
        }
    }
    if at != bytes.len() {
        return Err(err("tokens section length mismatch"));
    }

    Ok(Checkpoint { watermark, index })
}

/// Load the newest artifact in `dir` that fully verifies, skipping torn
/// or corrupt ones. Returns the checkpoint and its path, or `None` when
/// no valid artifact exists (including a missing directory).
pub fn load_latest(dir: &Path) -> Result<Option<(Checkpoint, PathBuf)>> {
    for info in artifacts(dir)?.into_iter().rev() {
        match load(&info.path) {
            Ok(ckpt) => {
                if ckpt.watermark != info.watermark {
                    // Name/manifest disagreement: treat as corrupt.
                    continue;
                }
                return Ok(Some((ckpt, info.path)));
            }
            Err(_) => continue,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityRecord, ExtendedTriple, FactMeta, ProbeKey, SourceId};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    fn sample_index(n: u64) -> TripleIndex {
        let mut idx = TripleIndex::new();
        for i in 1..=n {
            let mut r = EntityRecord::new(EntityId(i));
            let mut push = |pred: &str, value: Value| {
                r.triples.push(ExtendedTriple::simple(
                    EntityId(i),
                    intern(pred),
                    value,
                    meta(),
                ));
            };
            push("name", Value::str(format!("Entity Number {i}")));
            push(
                "type",
                Value::str(if i % 2 == 0 { "song" } else { "album" }),
            );
            push("rank", Value::Int((i % 17) as i64));
            push("score", Value::Float(i as f64 / 3.0));
            push("related_to", Value::Entity(EntityId(i % 50 + 1)));
            idx.update_entity(&r);
        }
        idx
    }

    fn probes(idx: &TripleIndex) -> Vec<ProbeKey> {
        let mut out = vec![
            ProbeKey::Type(intern("song")),
            ProbeKey::Type(intern("album")),
            ProbeKey::Name("entity".into()),
            ProbeKey::Name("number".into()),
        ];
        for i in 0..17i64 {
            out.push(ProbeKey::Literal(intern("rank"), Value::Int(i)));
        }
        for t in 1..=50u64 {
            out.push(ProbeKey::Edge(intern("related_to"), EntityId(t)));
        }
        assert!(!idx.is_empty());
        out
    }

    fn assert_index_parity(a: &TripleIndex, b: &TripleIndex) {
        assert_eq!(a.fact_count(), b.fact_count());
        assert_eq!(a.entity_count(), b.entity_count());
        for probe in probes(a) {
            assert_eq!(
                a.postings(&probe).to_vec(),
                b.postings(&probe).to_vec(),
                "probe {probe:?}"
            );
        }
        let mut subjects: Vec<EntityId> = a.subjects().collect();
        subjects.sort_unstable();
        for id in subjects {
            let mut fa: Vec<(String, Value)> = a
                .facts_of(id)
                .map(|(p, v)| (p.to_string(), v.into_owned()))
                .collect();
            let mut fb: Vec<(String, Value)> = b
                .facts_of(id)
                .map(|(p, v)| (p.to_string(), v.into_owned()))
                .collect();
            fa.sort_unstable_by(|x, y| x.partial_cmp(y).unwrap());
            fb.sort_unstable_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(fa, fb, "facts of {id:?}");
        }
    }

    #[test]
    fn encode_publish_load_roundtrip() {
        let idx = sample_index(300);
        let dir = std::env::temp_dir().join(format!("saga-ckpt-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let image = encode(Lsn(42), &idx);
        let path = publish(&dir, &image).unwrap();
        assert!(path.ends_with("ckpt-00000000000000000042.sagackpt"));

        let ckpt = load(&path).unwrap();
        assert_eq!(ckpt.watermark, Lsn(42));
        assert_index_parity(&idx, &ckpt.index);

        // The restored index keeps evolving correctly.
        let mut restored = ckpt.index;
        let mut r = EntityRecord::new(EntityId(9999));
        r.triples.push(ExtendedTriple::simple(
            EntityId(9999),
            intern("name"),
            Value::str("Late Arrival"),
            meta(),
        ));
        restored.update_entity(&r);
        assert_eq!(restored.by_name("late").to_vec(), vec![EntityId(9999)]);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioned_restore_matches_source_shards() {
        let idx = sample_index(200);
        let image = encode(Lsn(7), &idx);
        let dir = std::env::temp_dir().join(format!("saga-ckpt-part-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = publish(&dir, &image).unwrap();
        let restored = load(&path).unwrap().index;
        let shards = restored.partition(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(
            shards.iter().map(TripleIndex::fact_count).sum::<usize>(),
            idx.fact_count()
        );
        for probe in probes(&idx) {
            let mut union: Vec<EntityId> = shards
                .iter()
                .flat_map(|s| s.postings(&probe).to_vec())
                .collect();
            union.sort_unstable();
            assert_eq!(union, idx.postings(&probe).to_vec(), "probe {probe:?}");
        }
        for shard in &shards {
            for id in shard.subjects() {
                assert_eq!(
                    (id.0 as usize) % 4,
                    shards.iter().position(|s| s.contains(id)).unwrap()
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_artifacts_are_rejected_and_skipped() {
        let dir = std::env::temp_dir().join(format!("saga-ckpt-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let old = sample_index(50);
        let old_path = publish(&dir, &encode(Lsn(10), &old)).unwrap();

        // A newer artifact that was torn mid-write (truncated payload).
        let newer = encode(Lsn(20), &sample_index(80));
        let newer_path = publish(&dir, &newer).unwrap();
        let full = fs::read(&newer_path).unwrap();
        fs::write(&newer_path, &full[..full.len() - 7]).unwrap();
        assert!(load(&newer_path).is_err(), "torn artifact must not load");

        // load_latest falls back to the older valid artifact.
        let (ckpt, path) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(ckpt.watermark, Lsn(10));
        assert_eq!(path, old_path);
        assert_index_parity(&old, &ckpt.index);

        // A single flipped payload byte is caught by the section checksum.
        fs::write(&newer_path, &full).unwrap();
        assert!(load(&newer_path).is_ok());
        let mut corrupt = full.clone();
        let at = corrupt.len() - 3;
        corrupt[at] ^= 0x01;
        fs::write(&newer_path, &corrupt).unwrap();
        assert!(load(&newer_path).is_err(), "bit rot must not load");
        assert_eq!(load_latest(&dir).unwrap().unwrap().0.watermark, Lsn(10));

        // Garbage that is not an artifact at all.
        fs::write(&newer_path, b"not a checkpoint").unwrap();
        assert!(load(&newer_path).is_err());

        let _ = fs::remove_dir_all(&dir);
    }

    /// `full` with section `name`'s bytes replaced by `edit`'s, and that
    /// section's length and checksum in the manifest rewritten to match,
    /// so only the decoder can object to the edit.
    fn rewrite_section(full: &[u8], name: &str, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let mut lines = full.splitn(3, |&b| b == b'\n');
        let (magic, manifest, mut payload) = (
            lines.next().unwrap(),
            lines.next().unwrap(),
            lines.next().unwrap(),
        );
        let mut manifest = json::parse(std::str::from_utf8(manifest).unwrap()).unwrap();
        let Json::Object(fields) = &mut manifest else {
            panic!("manifest is an object")
        };
        let Some(Json::Array(sections)) = fields.get_mut("sections") else {
            panic!("manifest lists its sections")
        };
        let mut body = Vec::new();
        let mut edit = Some(edit);
        for section in sections {
            let Json::Object(meta) = section else {
                panic!("a section is an object")
            };
            let len = meta["len"].as_i64().unwrap() as usize;
            let (bytes, rest) = payload.split_at(len);
            payload = rest;
            if meta["name"].as_str() != Some(name) {
                body.extend_from_slice(bytes);
                continue;
            }
            let edited = edit.take().unwrap()(bytes);
            meta.insert("len".to_string(), Json::Int(edited.len() as i64));
            meta.insert(
                "crc".to_string(),
                Json::Str(format!("{:016x}", fnv1a(&edited))),
            );
            body.extend_from_slice(&edited);
        }
        assert!(edit.is_none(), "no section {name}");
        let mut out = magic.to_vec();
        out.push(b'\n');
        out.extend_from_slice(manifest.to_string_compact().as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&body);
        out
    }

    /// An `objects` section with one more entry, `extra`, after the rest.
    fn append_object(bytes: &[u8], extra: impl FnOnce(&[u8]) -> Value) -> Vec<u8> {
        let mut at = 0;
        let count = take_varint(bytes, &mut at).unwrap();
        let mut out = Vec::new();
        push_varint(&mut out, count + 1);
        out.extend_from_slice(&bytes[at..]);
        push_value(&mut out, &extra(&bytes[at..]));
        out
    }

    /// Publish a good artifact with section `name` replaced by `edit`'s
    /// bytes, and load it.
    fn load_edited(
        dir_name: &str,
        name: &str,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<Checkpoint> {
        let dir = std::env::temp_dir().join(format!("{dir_name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = publish(&dir, &encode(Lsn(5), &sample_index(40))).unwrap();
        let full = fs::read(&path).unwrap();
        // The rewrite alone, with nothing edited, still loads.
        fs::write(&path, rewrite_section(&full, name, <[u8]>::to_vec)).unwrap();
        assert!(load(&path).is_ok(), "an identity rewrite loads");
        fs::write(&path, rewrite_section(&full, name, edit)).unwrap();
        let loaded = load(&path);
        let _ = fs::remove_dir_all(&dir);
        loaded
    }

    fn assert_rejected(loaded: Result<Checkpoint>, reason: &str) {
        match loaded {
            Ok(_) => panic!("an artifact with {reason} loaded"),
            Err(e) => assert!(e.to_string().contains(reason), "{e}"),
        }
    }

    #[test]
    fn an_objects_section_that_repeats_a_value_is_rejected() {
        let loaded = load_edited("saga-ckpt-dup", "objects", |bytes| {
            append_object(bytes, |values| take_value(values, &mut 0).unwrap())
        });
        assert_rejected(loaded, "duplicate object value in table");
    }

    #[test]
    fn an_object_that_no_record_references_is_rejected() {
        let loaded = load_edited("saga-ckpt-orphan", "objects", |bytes| {
            append_object(bytes, |_| Value::str("referenced by nothing"))
        });
        assert_rejected(loaded, "object table entry referenced by no record");
    }

    #[test]
    fn an_immediate_in_the_objects_section_is_rejected() {
        // `rank` 3 is on a record as an immediate; a table entry for it too
        // would load the value under a second id.
        let loaded = load_edited("saga-ckpt-imm", "objects", |bytes| {
            append_object(bytes, |_| Value::Int(3))
        });
        assert_rejected(loaded, "immediate value in object table");
    }

    #[test]
    fn an_immediate_reference_past_30_bits_is_rejected() {
        // The first record's first object reference becomes an `Int`
        // immediate whose payload needs a 31st bit.
        let loaded = load_edited("saga-ckpt-wide", "records", |bytes| {
            let mut at = 0;
            for _ in 0..4 {
                // Entity count, id, fact count, predicate.
                take_varint(bytes, &mut at).unwrap();
            }
            let start = at;
            take_varint(bytes, &mut at).unwrap();
            let mut out = bytes[..start].to_vec();
            push_varint(&mut out, (1 << 30) << 2 | 0b01);
            out.extend_from_slice(&bytes[at..]);
            out
        });
        assert_rejected(loaded, "immediate object reference out of range");
    }

    #[test]
    fn immediates_round_trip_at_the_range_boundaries() {
        let edge = 1i64 << 29;
        let values = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(edge - 1),
            Value::Int(edge),
            Value::Int(-edge),
            Value::Int(-edge - 1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Entity(EntityId(0)),
            Value::Entity(EntityId((1 << 30) - 1)),
            Value::Entity(EntityId(1 << 30)),
            Value::Entity(EntityId(u64::MAX)),
        ];
        let mut idx = TripleIndex::new();
        let pred = intern("boundary");
        for (i, value) in (1u64..).zip(&values) {
            let mut r = EntityRecord::new(EntityId(i));
            for v in [value, &values[i as usize % values.len()]] {
                r.triples
                    .push(ExtendedTriple::simple(EntityId(i), pred, v.clone(), meta()));
            }
            idx.update_entity(&r);
        }
        // Only the values past each boundary take slots.
        assert_eq!(idx.obj_dict_len(), 6);

        let dir = std::env::temp_dir().join(format!("saga-ckpt-edge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = publish(&dir, &encode(Lsn(3), &idx)).unwrap();
        let restored = load(&path).unwrap().index;
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            restored.obj_dict_len(),
            6,
            "the table holds the slotted six"
        );
        assert_eq!(restored.fact_count(), idx.fact_count());
        for (i, value) in (1u64..).zip(&values) {
            let facts = |index: &TripleIndex| -> Vec<Value> {
                index
                    .facts_of(EntityId(i))
                    .map(|(_, v)| v.into_owned())
                    .collect()
            };
            let mut want = facts(&idx);
            let mut got = facts(&restored);
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "facts of {i}");
            assert!(got.contains(value));
            assert_eq!(
                restored.by_literal(pred, value).to_vec(),
                idx.by_literal(pred, value).to_vec(),
                "postings of {value:?}"
            );
            if let Some(target) = value.as_entity() {
                assert_eq!(
                    restored.referencing(target).to_vec(),
                    idx.referencing(target).to_vec(),
                    "referrers of {target:?}"
                );
                assert!(!restored.referencing(target).is_empty());
            }
        }
    }

    #[test]
    fn a_version_1_artifact_is_unsupported_and_skipped() {
        let dir = std::env::temp_dir().join(format!("saga-ckpt-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let old = publish(&dir, &encode(Lsn(4), &sample_index(20))).unwrap();
        let newer = publish(&dir, &encode(Lsn(8), &sample_index(30))).unwrap();
        let full = fs::read(&newer).unwrap();
        let body = &full[MAGIC.len()..];
        fs::write(&newer, [b"SAGACKPT 1".as_slice(), body].concat()).unwrap();
        assert_rejected(load(&newer), "unsupported format version 1");
        let (ckpt, path) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((ckpt.watermark, path), (Lsn(4), old));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_and_prune_enforce_retention() {
        let dir = std::env::temp_dir().join(format!("saga-ckpt-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(artifacts(&dir).unwrap().is_empty(), "missing dir is empty");
        let idx = sample_index(10);
        for w in [5u64, 1, 9, 3] {
            publish(&dir, &encode(Lsn(w), &idx)).unwrap();
        }
        // A stray temp file and a foreign file are ignored.
        let in_flight = dir.join("ckpt-00000000000000000099.sagackpt.tmp");
        let straggler = dir.join("ckpt-00000000000000000004.sagackpt.tmp");
        fs::write(&in_flight, b"x").unwrap();
        fs::write(&straggler, b"x").unwrap();
        fs::write(dir.join("README"), b"x").unwrap();
        let listed: Vec<u64> = artifacts(&dir)
            .unwrap()
            .iter()
            .map(|i| i.watermark.0)
            .collect();
        assert_eq!(listed, vec![1, 3, 5, 9], "watermark-ascending");

        // Pruning also deletes the straggler below the newest artifact,
        // but not the one above it, which may be a publish in flight.
        let removed = prune(&dir, 2).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(removed.contains(&straggler) && !straggler.exists());
        assert!(in_flight.exists());
        let listed: Vec<u64> = artifacts(&dir)
            .unwrap()
            .iter()
            .map(|i| i.watermark.0)
            .collect();
        assert_eq!(listed, vec![5, 9], "newest two kept");
        assert_eq!(load_latest(&dir).unwrap().unwrap().0.watermark, Lsn(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_index_checkpoints_cleanly() {
        let dir = std::env::temp_dir().join(format!("saga-ckpt-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let idx = TripleIndex::new();
        let path = publish(&dir, &encode(Lsn(0), &idx)).unwrap();
        let ckpt = load(&path).unwrap();
        assert_eq!(ckpt.watermark, Lsn::ZERO);
        assert!(ckpt.index.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
