//! The log-shipped serving replica.
//!
//! §3.1: "all stores eventually index the same KG updates in the same
//! order" — the shared log is the only coordination channel. This module
//! closes that loop for serving: [`LiveReplica`] is a [`ReplicaKg`] — a
//! partitioned index and nothing else — built **purely** by replaying the
//! delta payloads the durable [`OperationLog`] carries. There is no code
//! path from the replica into the construction-side `KnowledgeGraph`; a
//! replica can run in another process or on another machine with nothing
//! but the log stream, which is the prerequisite for replicated and
//! sharded serving ("the indexes are sharded and can be replicated to
//! support scale-out", §4.1).
//!
//! # What a replica holds
//!
//! Deltas ship the *index vocabulary*: flattened `(predicate, value)`
//! facts per entity (names + typed objects). Each one lands on the index
//! as it arrived ([`TripleIndex::apply`](saga_core::TripleIndex::apply),
//! O(delta)), one op's deltas under one write lock so no read sees half
//! an op ([`ReplicaKg::apply`]), and the index is the whole store: a
//! point read materialises the entity's record from its SPO row, as
//! simple triples ordered by predicate name, then value, with default
//! metadata. Postings, conjunctions, name resolution and KGQ answers are
//! identical to the source graph's; per-fact provenance and
//! composite-relationship node structure are construction-side concerns
//! that deliberately do not ride the log (composite facets arrive
//! pre-flattened as `pred.facet` predicates, exactly as every index
//! stores them).
//!
//! # Bootstrap
//!
//! Replaying all history makes startup `O(everything that ever happened)`.
//! [`LiveReplica::bootstrap`] instead loads the newest usable
//! [`saga_core::checkpoint`] artifact — skipping torn or corrupt ones —
//! splits its index into the replica's partitions under one lock
//! ([`ReplicaKg::from_index`]; nothing is rebuilt beside it), and resumes
//! the follower at the checkpoint watermark so only the log *tail*
//! replays: startup proportional to live data. This is also what makes
//! [`OperationLog::compact_to`] safe to run on the producer side — a
//! compacted log plus a retained checkpoint reconstructs the same store.

use std::path::Path;
use std::sync::Arc;

use saga_core::{checkpoint, EntityId, EntityRecord, GraphRead, Lsn, ProbeKey, Result, SagaError};
use saga_graph::{LogFollower, OperationLog};

use crate::store::ReplicaKg;

/// How many operations one [`LiveReplica::catch_up`] poll pulls at a time;
/// bounds peak memory while replaying a long backlog. Fleet replay workers
/// pass the same bound to [`LiveReplica::catch_up_batch`]. It *is* a
/// durable log's [`DECODED_TAIL`](saga_graph::oplog::DECODED_TAIL), so a
/// fleet that keeps up is always served ops the log holds decoded.
pub const REPLAY_BATCH: usize = saga_graph::oplog::DECODED_TAIL;

/// A [`ReplicaKg`] maintained solely from oplog replay. See the module docs.
pub struct LiveReplica {
    live: ReplicaKg,
    follower: LogFollower,
}

impl LiveReplica {
    /// An empty replica in `shards` partitions under one lock, following
    /// `log` from the beginning.
    pub fn new(shards: usize, log: Arc<OperationLog>) -> Self {
        LiveReplica {
            live: ReplicaKg::new(shards),
            follower: LogFollower::new(log),
        }
    }

    /// Bootstrap from the newest usable checkpoint in `dir`, then replay
    /// only the log tail past its watermark: startup `O(live data + tail)`
    /// instead of `O(all history)`.
    ///
    /// Artifacts are tried newest-first. Torn/corrupt ones (they fail
    /// [`checkpoint::load`]'s verification) and ones the log cannot roll
    /// forward from — watermark ahead of the log head (wrong log) or
    /// behind its compaction point (tail gone) — are skipped in favor of
    /// the next-newest. With no usable artifact the replica falls back to
    /// full replay from LSN 0; if the log is compacted that history no
    /// longer exists and bootstrap fails instead of serving a silent gap.
    pub fn bootstrap(shards: usize, dir: &Path, log: Arc<OperationLog>) -> Result<Self> {
        let compacted = log.compacted_through();
        let head = log.head();
        let mut restored = None;
        for info in checkpoint::artifacts(dir)?.into_iter().rev() {
            if info.watermark > head || info.watermark < compacted {
                continue;
            }
            if let Ok(ckpt) = checkpoint::load(&info.path) {
                restored = Some(ckpt);
                break;
            }
        }
        let mut replica = match restored {
            Some(ckpt) => LiveReplica {
                live: ReplicaKg::from_index(shards, ckpt.index),
                follower: LogFollower::resume_at(log, ckpt.watermark),
            },
            None if compacted == Lsn::ZERO => LiveReplica::new(shards, log),
            None => {
                return Err(SagaError::Storage(format!(
                    "cannot bootstrap replica: log is compacted through lsn {} \
                     and {} holds no usable checkpoint at or past it",
                    compacted.0,
                    dir.display()
                )))
            }
        };
        replica.catch_up()?;
        Ok(replica)
    }

    /// Replay every operation past the current watermark; returns how many
    /// were applied. Call again whenever the log advances (or drive it
    /// from a scheduler — the follower is the pace-keeping cursor).
    ///
    /// Each batch's entries are shared out of the log, or decoded from its
    /// file behind a durable log's decoded tail
    /// ([`LogFollower::poll_with`]), and applied **outside** its lock —
    /// bulk catch-up clones no payloads and never stalls an appender or
    /// another replica.
    pub fn catch_up(&mut self) -> Result<usize> {
        let mut applied = 0;
        loop {
            let n = self
                .follower
                .poll_with(REPLAY_BATCH, |op| self.live.apply(&op.deltas))?;
            if n == 0 {
                return Ok(applied);
            }
            applied += n;
        }
    }

    /// Replay at most `max` operations past the current watermark in a
    /// single bounded poll; returns how many were applied (0 when caught
    /// up). This is the pace-controlled variant of
    /// [`catch_up`](Self::catch_up) for replay loops that interleave
    /// other work — shutdown checks, health publication — between
    /// batches. The log's lock is held only to copy out at most `max`
    /// entry pointers or frame offsets; reading frames back and the apply
    /// run after it is released.
    pub fn catch_up_batch(&mut self, max: usize) -> Result<usize> {
        self.follower
            .poll_with(max, |op| self.live.apply(&op.deltas))
    }

    /// Move `fresh`'s index and log position into this replica, in place:
    /// every handle on this replica's store — a serving engine's, with
    /// its plan cache — now serves `fresh`'s index, swapped in under one
    /// write lock, and the store's generation goes up by one. Returns
    /// `fresh` holding this replica's old index and follower, for the
    /// caller to drop outside any lock it holds.
    pub fn replace_with(&mut self, mut fresh: LiveReplica) -> LiveReplica {
        self.live.swap_index(&fresh.live);
        std::mem::swap(&mut self.follower, &mut fresh.follower);
        fresh
    }

    /// The highest LSN fully applied to this replica.
    pub fn watermark(&self) -> Lsn {
        self.follower.watermark()
    }

    /// Operations appended to the log but not yet applied here.
    pub fn lag(&self) -> u64 {
        self.follower.lag()
    }

    /// The serving store (cheaply cloneable; shares the replica's index).
    pub fn live(&self) -> &ReplicaKg {
        &self.live
    }
}

/// A replica reads through the same backend-agnostic API as every other
/// store. Serving engines hold the [`ReplicaKg`] itself
/// ([`live`](LiveReplica::live)); this impl forwards what the trait
/// requires, and the provided methods derive the rest from the same
/// cursor.
impl GraphRead for LiveReplica {
    fn postings_cursor(&self, probe: &ProbeKey) -> saga_core::BlockPostings {
        self.live.postings_cursor(probe)
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        self.live.record(id)
    }

    fn generation(&self) -> u64 {
        self.live.generation()
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        self.live.probe_all_limit(probes, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    use parking_lot::RwLock;
    use saga_core::{
        intern, Delta, DeltaFact, ExtendedTriple, FactMeta, FxHashSet, KnowledgeGraph, SourceId,
        Value, WriteBatch,
    };
    use saga_graph::{LoggedWriter, OpKind};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    /// The producer side: a write-ahead writer over an in-memory log.
    fn producer() -> LoggedWriter {
        LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        )
    }

    #[test]
    fn replica_follows_upserts_and_retractions() {
        let w = producer();
        let mut replica = LiveReplica::new(4, Arc::clone(w.log()));

        w.commit(
            OpKind::Upsert,
            WriteBatch::new()
                .named_entity(
                    EntityId(1),
                    "Golden State Warriors",
                    "team",
                    SourceId(1),
                    0.9,
                )
                .upsert(ExtendedTriple::simple(
                    EntityId(1),
                    intern("arena"),
                    Value::Entity(EntityId(9)),
                    meta(),
                )),
        )
        .unwrap();
        assert_eq!(replica.lag(), 1);
        assert_eq!(replica.catch_up().unwrap(), 1);
        assert_eq!(replica.watermark(), Lsn(1));

        assert_eq!(
            replica.postings(&ProbeKey::Name("warriors".into())),
            vec![EntityId(1)]
        );
        assert_eq!(
            replica.postings(&ProbeKey::Edge(intern("arena"), EntityId(9))),
            vec![EntityId(1)]
        );
        assert!(GraphRead::contains(&replica, EntityId(1)));

        // Retraction empties the replica too.
        w.commit(
            OpKind::Delete,
            WriteBatch::new()
                .link(SourceId(1), "w", EntityId(1))
                .retract_source_entity(SourceId(1), "w"),
        )
        .unwrap();
        replica.catch_up().unwrap();
        assert!(!GraphRead::contains(&replica, EntityId(1)));
        assert!(replica
            .postings(&ProbeKey::Name("warriors".into()))
            .is_empty());
    }

    #[test]
    fn replica_applies_volatile_overwrites_in_order() {
        let w = producer();
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));

        let pop = intern("popularity");
        w.commit(
            OpKind::Upsert,
            WriteBatch::new()
                .named_entity(EntityId(1), "Song", "song", SourceId(1), 0.9)
                .upsert(ExtendedTriple::simple(
                    EntityId(1),
                    pop,
                    Value::Int(10),
                    meta(),
                )),
        )
        .unwrap();

        for round in 0..5i64 {
            let mut volatile = FxHashSet::default();
            volatile.insert(pop);
            w.commit(
                OpKind::VolatileOverwrite(SourceId(1)),
                WriteBatch::new().overwrite_volatile(
                    SourceId(1),
                    volatile,
                    vec![ExtendedTriple::simple(
                        EntityId(1),
                        pop,
                        Value::Int(100 + round),
                        meta(),
                    )],
                ),
            )
            .unwrap();
        }
        replica.catch_up().unwrap();
        let rec = GraphRead::record(&replica, EntityId(1)).unwrap();
        assert_eq!(rec.values(pop), vec![&Value::Int(104)], "last write wins");
        assert!(replica
            .postings(&ProbeKey::Literal(pop, Value::Int(10)))
            .is_empty());
        assert_eq!(
            replica.postings(&ProbeKey::Literal(pop, Value::Int(104))),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn retracting_an_absent_fact_changes_nothing() {
        let w = producer();
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        let genre = intern("genre");
        w.commit(
            OpKind::Upsert,
            WriteBatch::new()
                .named_entity(EntityId(1), "Song", "song", SourceId(1), 0.9)
                .upsert(ExtendedTriple::simple(
                    EntityId(1),
                    genre,
                    Value::str("jazz"),
                    meta(),
                )),
        )
        .unwrap();
        replica.catch_up().unwrap();
        let probes = [
            ProbeKey::Literal(genre, Value::str("jazz")),
            ProbeKey::Literal(genre, Value::str("rock")),
            ProbeKey::Type(intern("song")),
            ProbeKey::Name("song".into()),
        ];
        let postings = |r: &LiveReplica| -> Vec<Vec<EntityId>> {
            probes.iter().map(|p| r.postings(p)).collect()
        };
        let before = postings(&replica);
        let record = GraphRead::record(&replica, EntityId(1));

        // Retract facts the replica does not hold: a value it has never
        // seen on a present entity, a value it holds on an absent one.
        let absent = |entity: u64, value: &str| Delta {
            entity: EntityId(entity),
            added: Vec::new(),
            removed: vec![DeltaFact {
                predicate: genre,
                object: Value::str(value),
            }],
        };
        w.log()
            .append_op(OpKind::Delete, vec![absent(1, "rock"), absent(2, "jazz")])
            .unwrap();
        assert_eq!(replica.catch_up().unwrap(), 1);

        assert_eq!(postings(&replica), before);
        assert_eq!(GraphRead::record(&replica, EntityId(1)), record);
        assert!(GraphRead::contains(&replica, EntityId(1)));
        assert!(!GraphRead::contains(&replica, EntityId(2)));
        assert_eq!(GraphRead::record(&replica, EntityId(2)), None);
        assert_eq!(replica.live().len(), 1);
    }

    #[test]
    fn catch_up_is_incremental_and_idempotent_when_caught_up() {
        let w = producer();
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        for i in 1..=10u64 {
            w.commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(i),
                    &format!("E{i}"),
                    "person",
                    SourceId(1),
                    0.9,
                ),
            )
            .unwrap();
        }
        assert_eq!(replica.catch_up().unwrap(), 10);
        assert_eq!(replica.catch_up().unwrap(), 0);
        assert_eq!(replica.live().len(), 10);
        assert_eq!(replica.watermark(), w.log().head());
    }

    #[test]
    fn bounded_catch_up_tracks_progress() {
        let w = producer();
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        for i in 1..=5u64 {
            w.commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(i),
                    &format!("E{i}"),
                    "person",
                    SourceId(1),
                    0.9,
                ),
            )
            .unwrap();
        }
        assert_eq!(replica.lag(), 5, "the backlog is visible before replay");
        assert_eq!(replica.catch_up_batch(2).unwrap(), 2);
        assert_eq!(replica.watermark(), Lsn(2), "replay stops at max");
        assert_eq!(replica.lag(), 3);
        assert_eq!(replica.live().len(), 2, "only the polled prefix is applied");
        assert_eq!(replica.catch_up_batch(100).unwrap(), 3);
        assert_eq!(replica.catch_up_batch(100).unwrap(), 0, "caught up");
        assert_eq!(replica.watermark(), Lsn(5));
        assert_eq!(replica.lag(), 0);
    }

    /// Each op moves `tag = "x"` from one of entities 1 and 2 — two
    /// partitions — to the other, as one remove and one add. A reader
    /// probing the tag while the replica applies them must always find
    /// exactly one holder: never the state between an op's two deltas.
    #[test]
    fn reads_never_see_half_an_op() {
        const MOVES: u64 = 10_000;
        let w = producer();
        let tag = intern("tag");
        let tagged = |id: u64| ExtendedTriple::simple(EntityId(id), tag, Value::str("x"), meta());
        w.commit(OpKind::Upsert, WriteBatch::new().upsert(tagged(1)))
            .unwrap();
        for k in 0..MOVES {
            let (from, to) = if k % 2 == 0 { (1, 2) } else { (2, 1) };
            let untag = move |rec: &mut EntityRecord| rec.triples.retain(|t| t.predicate != tag);
            w.commit(
                OpKind::Upsert,
                WriteBatch::new()
                    .mutate(EntityId(from), untag)
                    .upsert(tagged(to)),
            )
            .unwrap();
        }
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        assert_eq!(replica.catch_up_batch(1).unwrap(), 1, "the first holder");
        let live = replica.live().clone();
        let probe = ProbeKey::Literal(tag, Value::str("x"));
        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (reads, torn) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut reads, mut torn) = (0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    let holders = [
                        live.postings_cursor(&probe).len(),
                        live.probe_all_limit(&[&probe], 10).len(),
                    ];
                    reads += 2;
                    torn += holders.iter().filter(|&&n| n != 1).count() as u64;
                    started.store(true, Ordering::Release);
                }
                (reads, torn)
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert_eq!(replica.catch_up().unwrap() as u64, MOVES);
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        eprintln!("{torn} torn reads of {reads}");
        assert_eq!(torn, 0, "{torn} of {reads} reads saw half an op");
    }

    #[test]
    fn replace_with_refills_the_store_every_handle_serves() {
        let w = producer();
        let person = |i: u64| {
            w.commit(
                OpKind::Upsert,
                WriteBatch::new().named_entity(
                    EntityId(i),
                    &format!("E{i}"),
                    "person",
                    SourceId(1),
                    0.9,
                ),
            )
            .unwrap();
        };
        person(1);
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        replica.catch_up().unwrap();
        let engine = crate::QueryEngine::new(replica.live().clone());
        let find = "FIND person";
        assert_eq!(engine.query(find).unwrap().entities(), vec![EntityId(1)]);

        person(2);
        let mut fresh = LiveReplica::new(4, Arc::clone(w.log()));
        fresh.catch_up().unwrap();
        let g0 = replica.live().generation();
        let old = replica.replace_with(fresh);
        assert_eq!(replica.watermark(), Lsn(2));
        assert_eq!(replica.live().generation(), g0 + 1, "one bump, forward");
        assert_eq!((old.watermark(), old.live().len()), (Lsn(1), 1));
        // The engine built before the swap answers from the new index,
        // out of the plan it cached.
        let hits_before = engine.plan_cache_stats().0;
        assert_eq!(
            engine.query(find).unwrap().entities(),
            vec![EntityId(1), EntityId(2)]
        );
        assert_eq!(engine.plan_cache_stats().0, hits_before + 1);

        // The follower moved too: the replica goes on from the new
        // position.
        person(3);
        assert_eq!(replica.catch_up().unwrap(), 1);
        assert_eq!(engine.query(find).unwrap().entities().len(), 3);
    }

    #[test]
    fn replica_serves_through_graph_read_generation() {
        let w = producer();
        let mut replica = LiveReplica::new(2, Arc::clone(w.log()));
        let g0 = GraphRead::generation(&replica);
        w.commit(
            OpKind::Upsert,
            WriteBatch::new().named_entity(EntityId(1), "A", "person", SourceId(1), 0.9),
        )
        .unwrap();
        replica.catch_up().unwrap();
        assert!(GraphRead::generation(&replica) > g0, "replay bumps plans");
    }
}
