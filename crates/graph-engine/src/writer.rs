//! `LoggedWriter` — the Graph Engine's write-ahead entry point.
//!
//! §3.1's contract is that *the shared log* is what keeps every store
//! "eventually indexing the same KG updates in the same order" — which
//! only holds if nothing reaches the canonical KG without first reaching
//! the log. `LoggedWriter` enforces that ordering mechanically:
//!
//! 1. the batch is **staged** in place on the KG's records and links
//!    under an undo log, folding one net [`Delta`](saga_core::Delta) per
//!    touched entity — see [`KgTransaction`],
//! 2. the net deltas are **appended** to the durable [`OperationLog`] (the
//!    write-ahead point — an `Err` here drops the transaction, which rolls
//!    the staged edits back),
//! 3. the transaction **commits**: the deltas move the KG's index and
//!    generation, and the [`CommitReceipt`] is returned alongside the
//!    assigned [`Lsn`].
//!
//! All three steps run under one exclusive lock, so log order equals
//! apply order equals read-visibility order, and no reader ever sees a
//! staged edit. A producer that dies between 2 and 3 has lost nothing:
//! the logged deltas replay into any `LogFollower`-driven store (the
//! `fail::sites::WRITER_BEFORE_APPLY` failpoint sits between 2 and 3 so
//! tests can prove exactly that). A panic while staging rolls back too:
//! the log and the graph stay as they were.
//!
//! This replaces the old footgun where every producer hand-paired a
//! changelog drain with `log.append_op(...)` — forget one and you lose
//! durability, repeat one and followers double-apply. The in-process
//! changelog has since been retired entirely: the commit receipt is the
//! only delta channel, and CI rejects new `append_op` call sites outside
//! the core internals.
//!
//! [`LoggedWriter::commit`] and [`LoggedWriter::with_txn`] are the only
//! public ways to change the writer's graph, and both are fallible: a log
//! I/O error comes back as `Err` with the graph as it was. The infallible
//! [`WriteBatch::commit`] is for bare, unlogged graphs only.

use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};
use saga_core::{
    CommitReceipt, KgTransaction, KnowledgeGraph, Lsn, Result, SessionToken, WriteBatch,
};

use crate::oplog::{OpKind, OperationLog};

/// A successful logged commit: where it landed in the log and what it did.
#[derive(Debug)]
pub struct LoggedCommit {
    /// The operation's log sequence number: a derived store has this
    /// commit once its follower's watermark reaches it.
    pub lsn: Lsn,
    /// The commit receipt — deltas, fact counts, removal set. Per-op
    /// results come back as [`with_txn`](LoggedWriter::with_txn)'s
    /// closure value.
    pub receipt: CommitReceipt,
}

impl LoggedCommit {
    /// The read-your-writes token for this commit: hand it to a
    /// replica router (`saga_fleet::FleetRouter`) so the client's
    /// subsequent reads are served only by replicas that have replayed at
    /// least this commit.
    pub fn session_token(&self) -> SessionToken {
        SessionToken::at(self.lsn)
    }
}

/// The write-ahead writer over a shared stable KG and the operation log.
///
/// Cheap to clone; clones share the graph, the log and the commit lock.
pub struct LoggedWriter {
    kg: Arc<RwLock<KnowledgeGraph>>,
    log: Arc<OperationLog>,
}

impl Clone for LoggedWriter {
    fn clone(&self) -> Self {
        LoggedWriter {
            kg: Arc::clone(&self.kg),
            log: Arc::clone(&self.log),
        }
    }
}

impl LoggedWriter {
    /// A writer over a shared KG handle and a log.
    pub fn new(kg: Arc<RwLock<KnowledgeGraph>>, log: Arc<OperationLog>) -> Self {
        LoggedWriter { kg, log }
    }

    /// The followed log (hand it to `LogFollower`s / replicas).
    pub fn log(&self) -> &Arc<OperationLog> {
        &self.log
    }

    /// The shared graph handle ([`CheckpointWriter`](crate::CheckpointWriter)
    /// snapshots through it).
    pub(crate) fn shared(&self) -> Arc<RwLock<KnowledgeGraph>> {
        Arc::clone(&self.kg)
    }

    /// Shared read access to the graph (snapshot linking, serving).
    pub fn read(&self) -> RwLockReadGuard<'_, KnowledgeGraph> {
        self.kg.read()
    }

    /// Stage, write-ahead, commit: a batch as one `kind` operation.
    pub fn commit(&self, kind: OpKind, batch: WriteBatch) -> Result<LoggedCommit> {
        self.with_txn(kind, |txn| {
            for op in batch.into_ops() {
                txn.apply_op(op);
            }
        })
        .map(|(_, commit)| commit)
    }

    /// Interactive form of [`commit`](Self::commit): the closure stages
    /// ops through a [`KgTransaction`] (with staged read-your-writes —
    /// what fusion's relationship-node matching needs), then its net
    /// deltas are appended to the log and it commits as one operation.
    pub fn with_txn<R>(
        &self,
        kind: OpKind,
        stage: impl FnOnce(&mut KgTransaction<'_>) -> R,
    ) -> Result<(R, LoggedCommit)> {
        let mut kg = self.kg.write();
        // Every early exit below — a panic in `stage`, an append error,
        // the failpoint — drops `txn` uncommitted, which rolls the staged
        // edits back before the lock is released.
        let mut txn = KgTransaction::new(&mut kg);
        let out = stage(&mut txn);
        // Write-ahead point: the log is the source of truth.
        let lsn = self.log.append_op(kind, txn.deltas().to_vec())?;
        // Armed, the commit fails here like a producer that died after
        // the write-ahead point: the op is in the log, the graph as found.
        saga_core::failpoint!(saga_core::fail::sites::WRITER_BEFORE_APPLY);
        let receipt = txn.commit();
        Ok((out, LoggedCommit { lsn, receipt }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::LogFollower;
    use saga_core::{
        intern, EntityId, ExtendedTriple, FactMeta, GraphRead, ProbeKey, SourceId, Value,
    };

    fn fact(e: u64, p: &str, v: Value) -> ExtendedTriple {
        ExtendedTriple::simple(
            EntityId(e),
            intern(p),
            v,
            FactMeta::from_source(SourceId(1), 0.9),
        )
    }

    fn writer() -> LoggedWriter {
        LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        )
    }

    #[test]
    fn commit_appends_before_apply_and_returns_one_receipt() {
        let w = writer();
        let commit = w
            .commit(
                OpKind::Upsert,
                WriteBatch::new()
                    .named_entity(
                        EntityId(1),
                        "Billie Eilish",
                        "music_artist",
                        SourceId(1),
                        0.9,
                    )
                    .upsert(fact(1, "born", Value::Int(2001))),
            )
            .unwrap();
        assert_eq!(commit.lsn, Lsn(1));
        assert_eq!(commit.receipt.facts_added, 3);
        assert!(w.read().contains(EntityId(1)));

        // The logged op carries exactly the receipt's deltas.
        let op = &w.log().read_after(Lsn::ZERO)[0];
        assert_eq!(op.deltas, commit.receipt.deltas);
        assert_eq!(op.changed_entities(), commit.receipt.changed_entities());

        // So does a batch staged out of entity order: both hand the
        // deltas out in entity order.
        let commit = w
            .commit(
                OpKind::Upsert,
                WriteBatch::new()
                    .upsert(fact(9, "name", Value::str("Nine")))
                    .upsert(fact(3, "name", Value::str("Three")))
                    .upsert(fact(1, "born", Value::Int(1999)))
                    .upsert(fact(9, "born", Value::Int(1990))),
            )
            .unwrap();
        assert_eq!(commit.lsn, Lsn(2));
        let op = &w.log().read_after(Lsn(1))[0];
        assert_eq!(op.deltas, commit.receipt.deltas);
        let entities: Vec<EntityId> = op.deltas.iter().map(|d| d.entity).collect();
        assert_eq!(entities, [EntityId(1), EntityId(3), EntityId(9)]);
        assert_eq!(op.deltas[2].added.len(), 2);
    }

    #[test]
    fn log_order_equals_apply_order() {
        let w = writer();
        for i in 1..=5u64 {
            let commit = w
                .commit(
                    OpKind::Upsert,
                    WriteBatch::new().upsert(fact(i, "name", Value::str(format!("E{i}")))),
                )
                .unwrap();
            assert_eq!(commit.lsn, Lsn(i));
        }
        let mut follower = LogFollower::new(Arc::clone(w.log()));
        let mut changed = Vec::new();
        let applied = follower
            .poll_with(100, |op| changed.extend(op.changed_entities()))
            .unwrap();
        assert_eq!(applied, 5);
        assert_eq!(changed, (1..=5).map(EntityId).collect::<Vec<_>>());
    }

    #[test]
    fn record_edits_are_visible_to_log_followers() {
        // The mutate_entity hazard, closed: a curation-style record edit
        // committed through the writer lands in the log like any other op.
        let w = writer();
        w.commit(
            OpKind::Upsert,
            WriteBatch::new().upsert(fact(1, "population", Value::Int(-5))),
        )
        .unwrap();
        let pred = intern("population");
        let commit = w
            .commit(
                OpKind::Upsert,
                WriteBatch::new().mutate(EntityId(1), move |rec| {
                    for t in &mut rec.triples {
                        if t.predicate == pred {
                            t.object = Value::Int(120_000);
                        }
                    }
                }),
            )
            .unwrap();
        assert_eq!(commit.receipt.deltas.len(), 1);
        let op = &w.log().read_after(Lsn(1))[0];
        assert_eq!(op.deltas[0].added[0].object, Value::Int(120_000));
        assert_eq!(op.deltas[0].removed[0].object, Value::Int(-5));
    }

    fn city(i: u64) -> WriteBatch {
        WriteBatch::new().named_entity(EntityId(i), &format!("City {i}"), "city", SourceId(1), 0.9)
    }

    fn cities(w: &LoggedWriter) -> usize {
        w.read().postings(&ProbeKey::Type(intern("city"))).len()
    }

    #[test]
    fn readers_see_each_commit_through_graph_read() {
        let w = writer();
        for i in 1..=10u64 {
            w.commit(OpKind::Upsert, city(i)).unwrap();
        }
        assert_eq!(cities(&w), 10);
        assert_eq!(w.read().resolve_name("City 3"), vec![EntityId(3)]);

        let g0 = GraphRead::generation(&*w.read());
        let commit = w.commit(OpKind::Upsert, city(11)).unwrap();
        let g1 = GraphRead::generation(&*w.read());
        assert!(g1 > g0);
        assert_eq!(g1 - g0, commit.receipt.deltas.len() as u64);
        assert_eq!(cities(&w), 11);
    }

    #[test]
    fn a_panic_while_staging_rolls_back() {
        let w = writer();
        w.commit(OpKind::Upsert, city(1)).unwrap();
        let head = w.log().head();
        let g0 = GraphRead::generation(&*w.read());
        let before = w.read().entity(EntityId(1)).cloned();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.with_txn(OpKind::Upsert, |txn| {
                txn.upsert(fact(1, "born", Value::Int(1990)));
                txn.upsert(fact(2, "name", Value::str("Ghost")));
                panic!("producer died mid-batch");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(w.log().head(), head, "nothing appended");
        assert_eq!(GraphRead::generation(&*w.read()), g0);
        assert_eq!(w.read().entity(EntityId(1)).cloned(), before);
        assert!(!w.read().contains(EntityId(2)));
        let next = w.commit(OpKind::Upsert, city(3)).unwrap();
        assert_eq!(next.lsn, Lsn(head.0 + 1));
        assert!(w.read().contains(EntityId(3)));
    }

    #[test]
    fn clones_share_one_graph() {
        let w = writer();
        w.clone().commit(OpKind::Upsert, city(99)).unwrap();
        assert!(w.read().contains(EntityId(99)));
        assert_eq!(w.log().head(), Lsn(1));
    }

    #[test]
    fn concurrent_readers_progress_under_writes() {
        let w = writer();
        for i in 1..=10u64 {
            w.commit(OpKind::Upsert, city(i)).unwrap();
        }
        let reader = w.clone();
        let t = std::thread::spawn(move || {
            let mut hits = 0usize;
            for _ in 0..200 {
                hits += reader
                    .read()
                    .probe_all(&[ProbeKey::Type(intern("city"))])
                    .len();
            }
            hits
        });
        for i in 100..150u64 {
            w.commit(OpKind::Upsert, city(i)).unwrap();
        }
        assert!(t.join().unwrap() >= 200 * 10);
        assert_eq!(cities(&w), 60);
    }
}
