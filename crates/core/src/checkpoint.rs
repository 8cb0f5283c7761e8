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
//! # Artifact format (version 3)
//!
//! ```text
//! SAGACKPT 3 <manifest fnv1a>\n    magic, format version, FNV-1a 64 of the manifest line (hex)
//! {"version":3,...}\n               manifest (one compact JSON line)
//! <binary section bytes…>           concatenated, in manifest order
//! ```
//!
//! The manifest names each section with its byte length and FNV-1a 64
//! checksum (hex), beside the watermark and the index's entity and fact
//! counts, which the loader checks against what it decoded; the magic
//! line's checksum covers the manifest itself, so no byte of the header
//! goes unchecked. The sections are `symbols` (predicate/dictionary
//! strings), `objects` (the live values that take a dictionary slot),
//! `records` (the SPO columns), and the three posting families `pos`,
//! `osp`, `tokens`. `records` and `pos` write each object as one varint
//! reference: `i << 1` for `objects` entry `i`, `payload << 2 | 0b01` for
//! an immediate `Int` and `payload << 2 | 0b11` for an immediate entity
//! (see [`ObjId`]). An immediate never appears in `objects`, and an
//! artifact of another version fails to load.
//!
//! The posting families are keyed in ascending order and write their keys
//! compactly: `pos` once per predicate (its symbol index, its entry count,
//! then each entry's object reference), `osp` by target id, both as
//! ascending-id columns (the first raw, each later one as `gap − 1`, so a
//! decoded column ascends by construction); `tokens` front-coded (the
//! byte length of the prefix shared with the previous token, cut back to
//! a char boundary, then the rest as a string). All posting lists are
//! written **block-wise** through [`BlockPostings::write_bytes`] — the
//! compressed containers are copied byte-for-byte, never decompressed.
//! Counts, strings and object values inside a section use the
//! [`crate::binary`] vocabulary the wire protocol shares.
//!
//! # Durability and torn-write recovery
//!
//! [`publish`] writes to a temporary name, fsyncs, then atomically renames
//! into `ckpt-<watermark>.sagackpt` and fsyncs the directory — mirroring
//! the oplog's torn-tail discipline at the artifact level. A publish that
//! fails before the rename leaves a `.tmp` straggler, which [`prune`]
//! deletes once a newer artifact is published. A reader
//! ([`load`]) re-verifies the magic, the manifest's checksum, every
//! section length and checksum, every structural invariant of the decoded
//! keys and postings, and the manifest's counts; a torn or corrupt
//! artifact is an error. [`CheckpointInfo::load`] also rejects an artifact
//! whose manifest watermark is not the one its file name carries, and
//! both [`load_latest`] and a replica's bootstrap select through it,
//! skipping a failing artifact in favor of the newest one that verifies.
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
pub const FORMAT_VERSION: u64 = 3;

/// Start of every artifact's first line: `SAGACKPT ` and the format
/// version. The line goes on with a space and the manifest's checksum.
const MAGIC: &str = "SAGACKPT 3";

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

    // POS postings, sorted by (symbol index, object reference) and
    // written one group per predicate.
    let mut pos: Vec<(u64, u64, &BlockPostings)> = index
        .pos
        .iter()
        .map(|(&(pred, obj), list)| (sym_index[pred.0 as usize], obj_ref(obj), list))
        .collect();
    pos.sort_unstable_by_key(|&(s, o, _)| (s, o));
    let same_pred = |a: &(u64, u64, _), b: &(u64, u64, _)| a.0 == b.0;
    push_varint(&mut buf, pos.chunk_by(same_pred).count() as u64);
    let mut preds = Ascending::default();
    for group in pos.chunk_by(same_pred) {
        preds.push(&mut buf, group[0].0);
        push_varint(&mut buf, group.len() as u64);
        let mut objs = Ascending::default();
        for &(_, obj, list) in group {
            objs.push(&mut buf, obj);
            list.write_bytes(&mut buf);
        }
    }
    sections.push(("pos", std::mem::take(&mut buf)));

    // OSP postings, sorted by target id.
    let mut osp: Vec<(EntityId, &BlockPostings)> =
        index.osp.iter().map(|(&t, list)| (t, list)).collect();
    osp.sort_unstable_by_key(|&(t, _)| t);
    push_varint(&mut buf, osp.len() as u64);
    let mut targets = Ascending::default();
    for (target, list) in osp {
        targets.push(&mut buf, target.0);
        list.write_bytes(&mut buf);
    }
    sections.push(("osp", std::mem::take(&mut buf)));

    // Token postings, sorted by token text and front-coded.
    let mut tokens: Vec<(&Arc<str>, &BlockPostings)> = index.tokens.iter().collect();
    tokens.sort_unstable_by_key(|&(t, _)| t);
    push_varint(&mut buf, tokens.len() as u64);
    let mut last = "";
    for (token, list) in tokens {
        push_front_coded(&mut buf, last, token);
        last = token;
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

    let manifest = Json::Object(manifest).to_string_compact();
    let mut out = Vec::new();
    out.extend_from_slice(magic_line(manifest.as_bytes()).as_bytes());
    out.push(b'\n');
    out.extend_from_slice(manifest.as_bytes());
    out.push(b'\n');
    for (_, bytes) in sections {
        out.extend_from_slice(&bytes);
    }
    CheckpointImage {
        watermark,
        bytes: out,
    }
}

/// The first line of an artifact whose manifest line is `manifest`.
fn magic_line(manifest: &[u8]) -> String {
    format!("{MAGIC} {:016x}", fnv1a(manifest))
}

/// The ascending-id column codec of `pos` and `osp` keys: a strictly
/// ascending run of `u64`s, the first written raw and each later one as
/// its `gap − 1` from the one before — so a column that decodes ascends.
/// It holds the last value pushed or taken.
#[derive(Default)]
struct Ascending(Option<u64>);

impl Ascending {
    /// Append `v`, which must exceed the last value.
    fn push(&mut self, buf: &mut Vec<u8>, v: u64) {
        push_varint(buf, self.0.map_or(v, |last| v - last - 1));
        self.0 = Some(v);
    }

    /// Read the next value at `*at`, advancing past it.
    fn take(&mut self, bytes: &[u8], at: &mut usize) -> Result<u64> {
        let gap = take_varint(bytes, at)?;
        let v = match self.0 {
            None => gap,
            Some(last) => last
                .checked_add(gap)
                .and_then(|v| v.checked_add(1))
                .ok_or_else(|| err("key gap overflows"))?,
        };
        self.0 = Some(v);
        Ok(v)
    }
}

/// Append `key` front-coded against `last`, the key before it (`""` for
/// the first): the byte length of their shared prefix, cut back to a char
/// boundary, then the rest of `key` as a string.
fn push_front_coded(buf: &mut Vec<u8>, last: &str, key: &str) {
    let mut shared = last
        .bytes()
        .zip(key.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    while !key.is_char_boundary(shared) {
        shared -= 1;
    }
    push_varint(buf, shared as u64);
    push_str(buf, &key[shared..]);
}

/// Read one front-coded key at `*at` into `key`, which holds the key
/// before it (empty for the first, `first`). A key must ascend past the
/// one before, and its shared prefix must end inside that key and on a
/// char boundary.
fn take_front_coded(bytes: &[u8], at: &mut usize, key: &mut String, first: bool) -> Result<()> {
    let shared = take_varint(bytes, at)?;
    let shared = usize::try_from(shared)
        .ok()
        .filter(|&n| n <= key.len())
        .ok_or_else(|| err("token prefix longer than the previous token"))?;
    if !key.is_char_boundary(shared) {
        return Err(err("token prefix off a char boundary"));
    }
    let rest = take_str(bytes, at)?;
    if !first && rest.as_bytes() <= &key.as_bytes()[shared..] {
        return Err(err("tokens do not ascend"));
    }
    key.truncate(shared);
    key.push_str(rest);
    Ok(())
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
    decode(&raw)
}

/// The next `\n`-terminated line of `raw` at `*at`, advancing past it.
fn take_line<'a>(raw: &'a [u8], at: &mut usize, what: &str) -> Result<&'a [u8]> {
    let rest = &raw[*at..];
    let len = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| err(format!("missing {what} line")))?;
    *at += len + 1;
    Ok(&rest[..len])
}

/// A manifest field that must be a non-negative integer.
fn manifest_count(manifest: &Json, field: &str) -> Result<u64> {
    manifest
        .get(field)
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| err(format!("manifest missing {field}")))
}

/// Verify and decode one artifact's bytes: [`load`] after the file read.
fn decode(raw: &[u8]) -> Result<Checkpoint> {
    // Header: magic line + manifest line.
    let mut at = 0usize;
    let magic = take_line(raw, &mut at, "magic")?;
    let rest = magic
        .strip_prefix(b"SAGACKPT ")
        .ok_or_else(|| err("bad magic (not a checkpoint)"))?;
    let version = &rest[..rest.iter().position(|&b| b == b' ').unwrap_or(rest.len())];
    // Another version's artifact reports its version, like a manifest
    // that names one.
    if version != FORMAT_VERSION.to_string().as_bytes() {
        return Err(err(format!(
            "unsupported format version {}",
            String::from_utf8_lossy(version)
        )));
    }
    let manifest_bytes = take_line(raw, &mut at, "manifest")?;
    if magic != magic_line(manifest_bytes).as_bytes() {
        return Err(err("manifest checksum mismatch"));
    }
    let manifest_text =
        std::str::from_utf8(manifest_bytes).map_err(|_| err("manifest not utf-8"))?;
    let manifest = json::parse(manifest_text).map_err(|e| err(format!("manifest: {e}")))?;

    let version = manifest_count(&manifest, "version")?;
    if version != FORMAT_VERSION {
        return Err(err(format!("unsupported format version {version}")));
    }
    let watermark = Lsn(manifest_count(&manifest, "watermark")?);
    let entities = manifest_count(&manifest, "entities")?;
    let facts = manifest_count(&manifest, "facts")?;
    let declared = manifest
        .get("sections")
        .and_then(Json::as_array)
        .ok_or_else(|| err("manifest missing sections"))?;
    if declared.len() != SECTIONS.len() {
        return Err(err("unexpected section count"));
    }

    // Slice and checksum each section.
    let mut sections: FxHashMap<&str, &[u8]> = FxHashMap::default();
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
    // An entity is at least an id delta, a fact count and one fact.
    let nents = take_count(bytes, &mut at, 4)?;
    let mut prev = 0u64;
    for _ in 0..nents {
        let delta = take_varint(bytes, &mut at)?;
        let entity = EntityId(
            prev.checked_add(delta)
                .ok_or_else(|| err("records entity id overflows"))?,
        );
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

    // A posting list is at least a tag and two varints.
    const MIN_LIST: usize = 3;

    let bytes = sections["pos"];
    let mut at = 0usize;
    let ngroups = take_count(bytes, &mut at, 2)?;
    let mut preds = Ascending::default();
    for _ in 0..ngroups {
        let pred = sym_at(preds.take(bytes, &mut at)?)?;
        let nlists = take_count(bytes, &mut at, 1 + MIN_LIST)?;
        if nlists == 0 {
            return Err(err("empty pos group"));
        }
        let mut objs = Ascending::default();
        for _ in 0..nlists {
            let obj = obj_at(objs.take(bytes, &mut at)?)?;
            let list = BlockPostings::read_bytes(bytes, &mut at)?;
            if list.is_empty() {
                return Err(err("empty posting list in pos section"));
            }
            if index.pos.insert((pred, obj), list).is_some() {
                return Err(err("duplicate pos key"));
            }
        }
    }
    if at != bytes.len() {
        return Err(err("pos section length mismatch"));
    }

    let bytes = sections["osp"];
    let mut at = 0usize;
    let nlists = take_count(bytes, &mut at, 1 + MIN_LIST)?;
    let mut targets = Ascending::default();
    for _ in 0..nlists {
        let target = EntityId(targets.take(bytes, &mut at)?);
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
    let nlists = take_count(bytes, &mut at, 2 + MIN_LIST)?;
    let mut token = String::new();
    for i in 0..nlists {
        take_front_coded(bytes, &mut at, &mut token, i == 0)?;
        let list = BlockPostings::read_bytes(bytes, &mut at)?;
        if list.is_empty()
            || index
                .tokens
                .insert(Arc::from(token.as_str()), list)
                .is_some()
        {
            return Err(err("bad token entry"));
        }
    }
    if at != bytes.len() {
        return Err(err("tokens section length mismatch"));
    }

    if index.entity_count() as u64 != entities || index.fact_count() as u64 != facts {
        return Err(err("manifest counts disagree with the decoded index"));
    }
    Ok(Checkpoint { watermark, index })
}

impl CheckpointInfo {
    /// [`load`] this artifact, and reject it when its manifest's watermark
    /// is not the one its file name carries — the one selection check of
    /// [`load_latest`] and a replica's bootstrap.
    pub fn load(&self) -> Result<Checkpoint> {
        let ckpt = load(&self.path)?;
        if ckpt.watermark != self.watermark {
            return Err(err(format!(
                "{} holds watermark {}",
                self.path.display(),
                ckpt.watermark.0
            )));
        }
        Ok(ckpt)
    }
}

/// Load the newest artifact in `dir` that fully verifies, skipping torn
/// or corrupt ones. Returns the checkpoint and its path, or `None` when
/// no valid artifact exists (including a missing directory).
pub fn load_latest(dir: &Path) -> Result<Option<(Checkpoint, PathBuf)>> {
    for info in artifacts(dir)?.into_iter().rev() {
        if let Ok(ckpt) = info.load() {
            return Ok(Some((ckpt, info.path)));
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

    /// Entity `i` named `name`, with a string type, an `Int` rank, a float
    /// score and an entity edge.
    fn sample_record(i: u64, name: &str) -> EntityRecord {
        let mut r = EntityRecord::new(EntityId(i));
        let mut push = |pred: &str, value: Value| {
            r.triples.push(ExtendedTriple::simple(
                EntityId(i),
                intern(pred),
                value,
                meta(),
            ));
        };
        push("name", Value::str(name));
        push(
            "type",
            Value::str(if i.is_multiple_of(2) { "song" } else { "album" }),
        );
        push("rank", Value::Int((i % 17) as i64));
        push("score", Value::Float(i as f64 / 3.0));
        push("related_to", Value::Entity(EntityId(i % 50 + 1)));
        r
    }

    fn sample_index(n: u64) -> TripleIndex {
        let mut idx = TripleIndex::new();
        for i in 1..=n {
            idx.update_entity(&sample_record(i, &format!("Entity Number {i}")));
        }
        idx
    }

    /// `sample_index(12)` plus two entities whose names hold a multi-byte
    /// character, so the front-coded tokens share prefixes that end both
    /// beside and after one; `pos` holds table references (strings,
    /// floats), `Int` immediates and entity immediates under several
    /// predicates.
    fn mixed_sample() -> TripleIndex {
        let mut idx = sample_index(12);
        idx.update_entity(&sample_record(13, "Entité Numéro 13"));
        idx.update_entity(&sample_record(14, "Entités Numéro 14"));
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
    /// section's length and checksum in the manifest, and the manifest's
    /// checksum, rewritten to match, so only the decoder can object to
    /// the edit.
    fn rewrite_section(full: &[u8], name: &str, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let mut lines = full.splitn(3, |&b| b == b'\n');
        let (manifest, mut payload) = (lines.nth(1).unwrap(), lines.next().unwrap());
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
        let manifest = manifest.to_string_compact();
        let mut out = magic_line(manifest.as_bytes()).into_bytes();
        out.push(b'\n');
        out.extend_from_slice(manifest.as_bytes());
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

    /// Decode an artifact of [`mixed_sample`] with section `name` replaced
    /// by `edit`'s bytes.
    fn decode_edited(name: &str, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Result<Checkpoint> {
        let full = encode(Lsn(5), &mixed_sample()).bytes;
        // The rewrite alone, with nothing edited, still loads.
        assert!(
            decode(&rewrite_section(&full, name, <[u8]>::to_vec)).is_ok(),
            "an identity rewrite loads"
        );
        decode(&rewrite_section(&full, name, edit))
    }

    fn assert_rejected(loaded: Result<Checkpoint>, reason: &str) {
        match loaded {
            Ok(_) => panic!("an artifact with {reason} loaded"),
            Err(e) => assert!(e.to_string().contains(reason), "{e}"),
        }
    }

    #[test]
    fn an_objects_section_that_repeats_a_value_is_rejected() {
        let loaded = decode_edited("objects", |bytes| {
            append_object(bytes, |values| take_value(values, &mut 0).unwrap())
        });
        assert_rejected(loaded, "duplicate object value in table");
    }

    #[test]
    fn an_object_that_no_record_references_is_rejected() {
        let loaded = decode_edited("objects", |bytes| {
            append_object(bytes, |_| Value::str("referenced by nothing"))
        });
        assert_rejected(loaded, "object table entry referenced by no record");
    }

    #[test]
    fn an_immediate_in_the_objects_section_is_rejected() {
        // `rank` 3 is on a record as an immediate; a table entry for it too
        // would load the value under a second id.
        let loaded = decode_edited("objects", |bytes| append_object(bytes, |_| Value::Int(3)));
        assert_rejected(loaded, "immediate value in object table");
    }

    #[test]
    fn an_immediate_reference_past_30_bits_is_rejected() {
        // The first record's first object reference becomes an `Int`
        // immediate whose payload needs a 31st bit.
        let loaded = decode_edited("records", |bytes| {
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

    /// An artifact of format 1 or 2 (its magic line names the version)
    /// fails to load and is skipped.
    #[test]
    fn a_version_1_artifact_is_unsupported_and_skipped() {
        let dir = std::env::temp_dir().join(format!("saga-ckpt-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let old = publish(&dir, &encode(Lsn(4), &sample_index(20))).unwrap();
        let newer = publish(&dir, &encode(Lsn(8), &sample_index(30))).unwrap();
        let full = fs::read(&newer).unwrap();
        let body = &full[MAGIC.len()..];
        for version in [1, 2] {
            let magic = format!("SAGACKPT {version}");
            fs::write(&newer, [magic.as_bytes(), body].concat()).unwrap();
            assert_rejected(
                load(&newer),
                &format!("unsupported format version {version}"),
            );
            let (ckpt, path) = load_latest(&dir).unwrap().unwrap();
            assert_eq!((ckpt.watermark, path), (Lsn(4), old.clone()));
        }
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

    #[test]
    fn a_records_id_that_overflows_is_rejected() {
        // The second entity's id delta becomes `u64::MAX`: added to the
        // first id it leaves the `u64` range.
        let loaded = decode_edited("records", |bytes| {
            let mut at = 0;
            take_varint(bytes, &mut at).unwrap(); // entity count
            take_varint(bytes, &mut at).unwrap(); // first id
            let nfacts = take_varint(bytes, &mut at).unwrap();
            for _ in 0..2 * nfacts {
                take_varint(bytes, &mut at).unwrap(); // predicate, object
            }
            let start = at;
            take_varint(bytes, &mut at).unwrap();
            let mut out = bytes[..start].to_vec();
            push_varint(&mut out, u64::MAX);
            out.extend_from_slice(&bytes[at..]);
            out
        });
        assert_rejected(loaded, "entity id overflows");
    }

    /// Section `name`'s bytes in an artifact.
    fn section(full: &[u8], name: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        rewrite_section(full, name, |b| {
            bytes = b.to_vec();
            bytes.clone()
        });
        bytes
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `bytes` with the varint at `start` replaced by `v`.
    fn splice_varint(bytes: &[u8], start: usize, v: u64) -> Vec<u8> {
        let mut end = start;
        take_varint(bytes, &mut end).unwrap();
        let mut out = bytes[..start].to_vec();
        push_varint(&mut out, v);
        out.extend_from_slice(&bytes[end..]);
        out
    }

    /// Format 3, byte for byte. Predicates sort by text (`name rank
    /// related_to type`), and `objects` stay in slot order; `pos` writes one
    /// group per predicate with its object references ascending as
    /// `gap − 1`, `osp` its targets the same way, and `tokens` front-codes
    /// `caf café café ole cafés ole` as `(0, caf) (3, é) (5, " ole") (5, s)
    /// (0, ole)`.
    #[test]
    fn encode_format_is_pinned() {
        let mut idx = TripleIndex::new();
        for (i, name, ty, rank, edge) in [
            (1, "Café Ole", "song", 3, 2),
            (2, "Cafés", "song", -1, 1),
            (5, "Caf", "album", 3, 1),
        ] {
            let mut r = EntityRecord::new(EntityId(i));
            for (pred, value) in [
                ("name", Value::str(name)),
                ("type", Value::str(ty)),
                ("rank", Value::Int(rank)),
                ("related_to", Value::Entity(EntityId(edge))),
            ] {
                r.triples.push(ExtendedTriple::simple(
                    EntityId(i),
                    intern(pred),
                    value,
                    meta(),
                ));
            }
            idx.update_entity(&r);
        }
        let image = encode(Lsn(11), &idx);
        let mut lines = image.bytes.splitn(3, |&b| b == b'\n');
        let (magic, manifest) = (lines.next().unwrap(), lines.next().unwrap());
        assert_eq!(magic, magic_line(manifest).as_bytes());
        assert!(magic.starts_with(b"SAGACKPT 3 "));
        let pinned = [
            ("symbols", "04046e616d650472616e6b0a72656c617465645f746f0474797065"),
            ("objects", "050409436166c3a9204f6c650404736f6e670406436166c3a97304034361660405616c62756d"),
            ("records", "030104000003020119020b0104000403020105020703040006030801190207"),
            ("pos", "040003000001010103000101020100010105000205000101021300020201030002070002020202030001010100020200020201000500010105"),
            ("osp", "020100020202020000010101"),
            ("tokens", "050003636166000101050302c3a9000101010504206f6c65000101010501730001010200036f6c6500010101"),
        ];
        for (name, want) in pinned {
            assert_eq!(hex(&section(&image.bytes, name)), want, "section {name}");
        }
        let ckpt = decode(&image.bytes).unwrap();
        assert_eq!(ckpt.watermark, Lsn(11));
        assert_eq!(ckpt.index.fact_count(), 12);
        for token in ["caf", "café", "café ole", "cafés", "ole"] {
            let probe = ProbeKey::Name(token.into());
            assert_eq!(
                ckpt.index.postings(&probe).to_vec(),
                idx.postings(&probe).to_vec(),
                "{token}"
            );
        }
        for (rank, want) in [(3, vec![1, 5]), (-1, vec![2])] {
            assert_eq!(
                ckpt.index
                    .by_literal(intern("rank"), &Value::Int(rank))
                    .to_vec(),
                want.into_iter().map(EntityId).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            ckpt.index.referencing(EntityId(1)).to_vec(),
            [EntityId(2), EntityId(5)]
        );
    }

    /// Each token entry of a `tokens` section: the bytes of its shared
    /// prefix length and rest, and the key they decode to.
    fn token_entries(bytes: &[u8]) -> Vec<(std::ops::Range<usize>, String)> {
        let mut at = 0;
        let n = take_varint(bytes, &mut at).unwrap();
        let mut key = String::new();
        (0..n)
            .map(|i| {
                let start = at;
                take_front_coded(bytes, &mut at, &mut key, i == 0).unwrap();
                let entry = (start..at, key.clone());
                BlockPostings::read_bytes(bytes, &mut at).unwrap();
                entry
            })
            .collect()
    }

    /// A `tokens` section in which the entry after the first token that
    /// holds a multi-byte character is replaced by the `(shared prefix
    /// length, rest)` that `rewrite` makes from that token.
    fn edit_token_after_utf8(bytes: &[u8], rewrite: impl FnOnce(&str) -> (u64, String)) -> Vec<u8> {
        let entries = token_entries(bytes);
        let at = entries
            .iter()
            .position(|(_, key)| !key.is_ascii())
            .expect("a token holds a multi-byte character");
        let (shared, rest) = rewrite(&entries[at].1);
        let range = entries[at + 1].0.clone();
        let mut out = bytes[..range.start].to_vec();
        push_varint(&mut out, shared);
        push_str(&mut out, &rest);
        out.extend_from_slice(&bytes[range.end..]);
        out
    }

    #[test]
    fn a_token_prefix_past_the_previous_token_is_rejected() {
        let loaded = decode_edited("tokens", |bytes| {
            edit_token_after_utf8(bytes, |prev| (prev.len() as u64 + 1, "x".into()))
        });
        assert_rejected(loaded, "token prefix longer than the previous token");
    }

    #[test]
    fn a_token_prefix_off_a_char_boundary_is_rejected() {
        let loaded = decode_edited("tokens", |bytes| {
            edit_token_after_utf8(bytes, |prev| {
                let inside = (1..prev.len())
                    .find(|&i| !prev.is_char_boundary(i))
                    .unwrap();
                (inside as u64, "x".into())
            })
        });
        assert_rejected(loaded, "token prefix off a char boundary");
    }

    #[test]
    fn a_token_that_does_not_ascend_is_rejected() {
        let loaded = decode_edited("tokens", |bytes| {
            edit_token_after_utf8(bytes, |prev| (prev.len() as u64, String::new()))
        });
        assert_rejected(loaded, "tokens do not ascend");
    }

    #[test]
    fn a_pos_group_with_no_entries_is_rejected() {
        let loaded = decode_edited("pos", |bytes| {
            let mut at = 0;
            take_varint(bytes, &mut at).unwrap(); // group count
            take_varint(bytes, &mut at).unwrap(); // first predicate
            splice_varint(bytes, at, 0)
        });
        assert_rejected(loaded, "empty pos group");
    }

    #[test]
    fn a_pos_object_gap_that_overflows_is_rejected() {
        let loaded = decode_edited("pos", |bytes| {
            let mut at = 0;
            take_varint(bytes, &mut at).unwrap(); // group count
            take_varint(bytes, &mut at).unwrap(); // first predicate
            assert!(take_varint(bytes, &mut at).unwrap() > 1, "two entries");
            take_varint(bytes, &mut at).unwrap(); // first object
            BlockPostings::read_bytes(bytes, &mut at).unwrap();
            splice_varint(bytes, at, u64::MAX)
        });
        assert_rejected(loaded, "key gap overflows");
    }

    #[test]
    fn an_osp_target_gap_that_overflows_is_rejected() {
        let loaded = decode_edited("osp", |bytes| {
            let mut at = 0;
            take_varint(bytes, &mut at).unwrap(); // target count
            take_varint(bytes, &mut at).unwrap(); // first target
            BlockPostings::read_bytes(bytes, &mut at).unwrap();
            splice_varint(bytes, at, u64::MAX)
        });
        assert_rejected(loaded, "key gap overflows");
    }

    /// With no checksum rewritten, every byte of an artifact is covered:
    /// each single-byte flip (XOR 0xff, and one seeded bit) and each proper
    /// prefix fails to decode.
    #[test]
    fn every_raw_flip_and_cut_of_an_artifact_is_rejected() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let full = encode(Lsn(20), &mixed_sample()).bytes;
        assert!(decode(&full).is_ok());
        let mut rng = StdRng::seed_from_u64(0xF11B);
        let mut edited = full.clone();
        for i in 0..full.len() {
            for mask in [0xff, 1u8 << rng.gen_range(0..8u32)] {
                edited[i] ^= mask;
                assert!(decode(&edited).is_err(), "byte {i} ^ {mask:#04x} loaded");
                edited[i] ^= mask;
            }
        }
        for len in 0..full.len() {
            assert!(decode(&full[..len]).is_err(), "a {len}-byte prefix loaded");
        }
    }

    /// With each section's checksums rewritten, only the decoder stands
    /// between an edit and the index: each single-byte flip (XOR 0xff, and
    /// one seeded bit) and each proper prefix of each section decodes to
    /// an `Err` or an index, and never panics.
    #[test]
    fn section_flips_and_cuts_err_or_load_and_never_panic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let full = encode(Lsn(20), &mixed_sample()).bytes;
        let mut rng = StdRng::seed_from_u64(0x5EC7);
        let (mut edits, mut loaded, mut panicked) = (0usize, 0usize, Vec::new());
        for name in SECTIONS {
            let bytes = section(&full, name);
            let mut edited: Vec<Vec<u8>> = Vec::new();
            for i in 0..bytes.len() {
                for mask in [0xff, 1u8 << rng.gen_range(0..8u32)] {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= mask;
                    edited.push(flipped);
                }
            }
            edited.extend((0..bytes.len()).map(|len| bytes[..len].to_vec()));
            for (n, section) in edited.into_iter().enumerate() {
                let artifact = rewrite_section(&full, name, |_| section);
                edits += 1;
                match std::panic::catch_unwind(|| decode(&artifact)) {
                    Ok(Ok(_)) => loaded += 1,
                    Ok(Err(_)) => {}
                    Err(_) => panicked.push((name, n)),
                }
            }
        }
        eprintln!(
            "{edits} section edits: {loaded} loaded, {} rejected, {} panicked",
            edits - loaded - panicked.len(),
            panicked.len()
        );
        assert!(panicked.is_empty(), "edits that panicked: {panicked:?}");
    }
}
