//! `CheckpointWriter` — exact-watermark checkpoint production and the
//! checkpoint + compaction retention loop.
//!
//! A checkpoint is only trustworthy if its watermark is *exact*: the
//! artifact must contain precisely the state produced by ops `1..=W` and
//! nothing else. [`LoggedWriter`] makes that easy to guarantee — every
//! commit holds the KG's write lock across the log append *and* the
//! apply, so any reader holding the KG's read lock observes a graph whose
//! state equals the log prefix up to [`OperationLog::head`]. The writer
//! here snapshots under exactly that shared lock: take `kg.read()`, read
//! `log.head()` as the watermark, encode the image in memory, release the
//! lock, then do the file IO ([`saga_core::checkpoint::publish`])
//! outside it.
//!
//! [`CheckpointWriter::checkpoint_and_compact`] closes the retention
//! loop of `docs/checkpoint.md`: publish a fresh artifact, prune to the
//! newest N, then [`OperationLog::compact_to`] the oldest retained
//! watermark — so the log tail always suffices to roll forward from any
//! retained checkpoint, and disk usage is `O(live data + tail)` instead
//! of `O(all history)`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::checkpoint;
use saga_core::{KnowledgeGraph, Lsn, Result};

use crate::oplog::OperationLog;
use crate::writer::LoggedWriter;

/// How many checkpoints [`CheckpointWriter::checkpoint_and_compact`]
/// retains by default: the newest plus one fallback in case the newest
/// turns out torn on a later bootstrap.
pub const DEFAULT_KEEP_LAST: usize = 2;

/// What one checkpoint round did.
#[derive(Debug)]
pub struct CheckpointReceipt {
    /// Where the artifact landed.
    pub path: PathBuf,
    /// The exact LSN the artifact covers.
    pub watermark: Lsn,
    /// Artifacts removed by retention (empty for plain `checkpoint`).
    pub pruned: Vec<PathBuf>,
    /// Log operations dropped by compaction (0 for plain `checkpoint`).
    pub compacted_ops: u64,
}

/// Produces checkpoint artifacts of a logged KG with exact watermarks.
/// Cheap to clone; clones share the graph, log and directory config.
#[derive(Clone)]
pub struct CheckpointWriter {
    kg: Arc<RwLock<KnowledgeGraph>>,
    log: Arc<OperationLog>,
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointWriter {
    /// A checkpoint writer over the same graph + log a [`LoggedWriter`]
    /// commits through, publishing into `dir`.
    pub fn new(writer: &LoggedWriter, dir: impl Into<PathBuf>) -> Self {
        CheckpointWriter {
            kg: writer.shared(),
            log: Arc::clone(writer.log()),
            dir: dir.into(),
            keep_last: DEFAULT_KEEP_LAST,
        }
    }

    /// Override how many artifacts retention keeps (min 1).
    pub fn keep_last(mut self, n: usize) -> Self {
        self.keep_last = n.max(1);
        self
    }

    /// The directory artifacts are published into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot the graph at an exact watermark and publish one artifact.
    /// The encode runs under the KG's shared read lock (commits are
    /// blocked, concurrent reads are not); the file IO runs after the
    /// lock is released.
    pub fn checkpoint(&self) -> Result<CheckpointReceipt> {
        let image = {
            let kg = self.kg.read();
            // Exact: every commit holds the write lock across append +
            // apply, so under the read lock head() == applied state.
            let watermark = self.log.head();
            checkpoint::encode(watermark, kg.index())
        };
        let watermark = image.watermark();
        let path = checkpoint::publish(&self.dir, &image)?;
        Ok(CheckpointReceipt {
            path,
            watermark,
            pruned: Vec::new(),
            compacted_ops: 0,
        })
    }

    /// One full retention round: checkpoint, prune to the newest
    /// [`keep_last`](Self::keep_last) artifacts, then compact the log
    /// through the oldest *retained* watermark — every surviving
    /// checkpoint can still roll forward from the compacted log.
    pub fn checkpoint_and_compact(&self) -> Result<CheckpointReceipt> {
        let mut receipt = self.checkpoint()?;
        receipt.pruned = checkpoint::prune(&self.dir, self.keep_last)?;
        let retained = checkpoint::artifacts(&self.dir)?;
        if let Some(oldest) = retained.first() {
            receipt.compacted_ops = self.log.compact_to(oldest.watermark)?;
        }
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::OpKind;
    use saga_core::{
        intern, EntityId, ExtendedTriple, FactMeta, GraphRead, ProbeKey, SourceId, Value,
        WriteBatch,
    };

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "saga-ckptw-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn writer() -> LoggedWriter {
        LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        )
    }

    fn commit_entities(w: &LoggedWriter, range: std::ops::RangeInclusive<u64>) {
        for i in range {
            w.commit(
                OpKind::Upsert,
                WriteBatch::new()
                    .named_entity(
                        EntityId(i),
                        &format!("Entity {i}"),
                        "song",
                        SourceId(1),
                        0.9,
                    )
                    .upsert(ExtendedTriple::simple(
                        EntityId(i),
                        intern("rank"),
                        Value::Int((i % 5) as i64),
                        FactMeta::from_source(SourceId(1), 0.9),
                    )),
            )
            .unwrap();
        }
    }

    #[test]
    fn checkpoint_watermark_matches_log_head_and_content() {
        let w = writer();
        commit_entities(&w, 1..=20);
        let dir = temp_dir("exact");
        let ckptw = CheckpointWriter::new(&w, &dir);
        let receipt = ckptw.checkpoint().unwrap();
        assert_eq!(receipt.watermark, w.log().head());
        let (loaded, _) = checkpoint::load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.watermark, receipt.watermark);
        assert_eq!(
            loaded
                .index
                .postings(&ProbeKey::Type(intern("song")))
                .to_vec(),
            w.read().postings(&ProbeKey::Type(intern("song"))),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_artifacts_and_compacts_the_log() {
        let w = writer();
        let dir = temp_dir("retain");
        let ckptw = CheckpointWriter::new(&w, &dir).keep_last(2);

        commit_entities(&w, 1..=10);
        let r1 = ckptw.checkpoint_and_compact().unwrap();
        assert_eq!(r1.watermark, Lsn(10));
        assert!(r1.pruned.is_empty());
        assert_eq!(r1.compacted_ops, 10, "single artifact covers everything");
        assert_eq!(w.log().compacted_through(), Lsn(10));

        commit_entities(&w, 11..=15);
        let r2 = ckptw.checkpoint_and_compact().unwrap();
        assert_eq!(r2.watermark, Lsn(15));
        assert!(r2.pruned.is_empty(), "two artifacts fit keep_last=2");
        assert_eq!(
            w.log().compacted_through(),
            Lsn(10),
            "log still serves the oldest retained artifact's tail"
        );

        commit_entities(&w, 16..=18);
        let r3 = ckptw.checkpoint_and_compact().unwrap();
        assert_eq!(r3.pruned.len(), 1, "oldest artifact pruned");
        assert_eq!(w.log().compacted_through(), Lsn(15));
        let listed = checkpoint::artifacts(&dir).unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].watermark, Lsn(15));
        assert_eq!(listed[1].watermark, Lsn(18));
        // The tail from the oldest retained artifact is fully replayable.
        let tail = w.log().read_after(Lsn(15));
        assert_eq!(tail.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_compose_with_concurrent_commits() {
        // A checkpoint raced by committers still gets an exact watermark:
        // whatever head it observed under the read lock is what the
        // artifact contains.
        let w = writer();
        commit_entities(&w, 1..=50);
        let dir = temp_dir("race");
        let ckptw = CheckpointWriter::new(&w, &dir);
        let committer = {
            let w = w.clone();
            std::thread::spawn(move || commit_entities(&w, 51..=80))
        };
        let receipt = ckptw.checkpoint().unwrap();
        committer.join().unwrap();
        let (loaded, _) = checkpoint::load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.watermark, receipt.watermark);
        // The artifact's entity count equals the number of named-entity
        // commits at its watermark (one commit per entity).
        assert_eq!(loaded.index.entity_count() as u64, receipt.watermark.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
