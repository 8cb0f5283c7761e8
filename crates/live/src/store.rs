//! The live serving substrate (§4.1): "The live KG is indexed using a
//! scalable inverted index and key value store. Both indexes are optimized
//! for low latency retrieval under high degrees of concurrent requests.
//! The indexes are sharded and can be replicated to support scale-out."
//!
//! [`ReplicaKg`] serves the *same* [`TripleIndex`] the stable KG
//! maintains, so stable and live serving share one probe path
//! ([`ProbeKey`](saga_core::ProbeKey)) and one posting representation. §4.1's sharding is
//! across machines — the parked multi-process constellation — so a
//! replica holds one whole index, not partitions of one.
//!
//! The store is that index under one lock, nothing else: its version is
//! the log position its follower has applied. An op lands whole under the
//! write lock and every [`GraphRead::read_state`] takes the read lock
//! once, so each read — a whole KGQ query included — sees the store
//! between two ops, never inside one. Every fact the store learns arrives as a [`Delta`] in the
//! index vocabulary — replayed from the log or restored from a
//! checkpoint — so a record is materialised from the index's SPO row on
//! read rather than kept twice. Live construction and curation commit
//! through the log like every other producer, so the live graph is
//! served by the same store.

use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};
use saga_core::{Delta, GraphRead, TripleIndex};

/// A log replica's serving store: one [`TripleIndex`] under one lock,
/// nothing else — cheaply shareable. An op's deltas land together
/// ([`apply`](Self::apply)); records are materialised from the index on
/// read.
#[derive(Clone, Default)]
pub struct ReplicaKg {
    index: Arc<RwLock<TripleIndex>>,
}

impl ReplicaKg {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store over a checkpoint-restored index, adopted as it is: postings
    /// keep their compressed containers and nothing is re-encoded.
    pub fn from_index(index: TripleIndex) -> Self {
        ReplicaKg {
            index: Arc::new(RwLock::new(index)),
        }
    }

    /// Land one op's deltas under one write lock, so a read sees all of
    /// the op or none of it. Each delta takes the index's own O(delta)
    /// replay path — no record edit and no re-diff.
    pub fn apply(&self, deltas: &[Delta]) {
        let mut index = self.index.write();
        for delta in deltas.iter().filter(|d| !d.is_empty()) {
            index.apply(delta);
        }
    }

    /// Swap this store's index with `other`'s under this store's write
    /// lock, the way an op lands: a read sees the old index or the new,
    /// never a mix. `other` must be a different store.
    pub(crate) fn swap_index(&self, other: &ReplicaKg) {
        let mut index = self.index.write();
        std::mem::swap(&mut *index, &mut *other.index.write());
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.index.read().entity_count()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index, read-locked. No [`GraphRead`] call on this store may run
    /// while the guard is held: std's `RwLock` may queue a second read
    /// behind a waiting writer, and that writer waits for this guard — a
    /// deadlock.
    pub fn index(&self) -> RwLockReadGuard<'_, TripleIndex> {
        self.index.read()
    }
}

/// The store lends its index under one read lock, so each read — a whole
/// KGQ query included — answers from one state between two ops.
impl GraphRead for ReplicaKg {
    fn read_state<R>(&self, f: impl FnOnce(&TripleIndex) -> R) -> R {
        f(&self.index.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, DeltaFact, EntityId, ProbeKey, Value};

    fn fact(predicate: &str, object: Value) -> DeltaFact {
        DeltaFact {
            predicate: intern(predicate),
            object,
        }
    }

    /// The delta that asserts a named, typed entity.
    fn named(id: u64, name: &str, ty: &str) -> Delta {
        Delta {
            entity: EntityId(id),
            added: vec![fact("name", Value::str(name)), fact("type", Value::str(ty))],
            removed: Vec::new(),
        }
    }

    /// The delta that takes `delta` back.
    fn undo(delta: &Delta) -> Delta {
        Delta {
            entity: delta.entity,
            added: delta.removed.clone(),
            removed: delta.added.clone(),
        }
    }

    fn name(probe: &str) -> ProbeKey {
        ProbeKey::Name(probe.into())
    }

    #[test]
    fn heap_bytes_are_the_index_s_by_family() {
        let deltas = [
            named(1, "Warriors", "sports_team"),
            named(2, "Lakers", "sports_team"),
        ];
        let live = ReplicaKg::new();
        let mut direct = TripleIndex::new();
        for delta in &deltas {
            live.apply(std::slice::from_ref(delta));
            direct.apply(delta);
        }
        let index = live.index();
        let heap = index.heap_bytes();
        assert_eq!(heap, direct.heap_bytes());
        assert_eq!(index.index_bytes(), direct.index_bytes());
        assert!(heap.pos > 0 && heap.tokens > 0 && heap.objects > 0 && heap.spo > 0);
        assert_eq!(heap.osp, 0, "no edges");
        // The slots and headers dwarf the encoded ids they hold.
        assert!(heap.total() > 10 * index.index_bytes());
    }

    #[test]
    fn upsert_get_remove_roundtrip() {
        let live = ReplicaKg::new();
        let warriors = named(1, "Warriors", "sports_team");
        live.apply(std::slice::from_ref(&warriors));
        assert!(live.contains(EntityId(1)));
        assert_eq!(live.record(EntityId(1)).unwrap().name(), Some("Warriors"));
        live.apply(&[undo(&warriors)]);
        assert!(!live.contains(EntityId(1)));
        assert!(live.record(EntityId(1)).is_none());
        assert!(live.postings(&name("warriors")).is_empty(), "index cleaned");
    }

    #[test]
    fn name_index_tokenizes_and_keeps_full_phrase() {
        let live = ReplicaKg::new();
        live.apply(&[named(1, "Golden State Warriors", "sports_team")]);
        assert_eq!(live.postings(&name("warriors")), vec![EntityId(1)]);
        assert_eq!(
            live.postings(&name("golden state warriors")),
            vec![EntityId(1)]
        );
        assert!(live.postings(&name("lakers")).is_empty());
    }

    #[test]
    fn literal_edge_and_type_postings() {
        let live = ReplicaKg::new();
        let mut game = named(1, "Game 7", "sports_game");
        game.added
            .push(fact("home_team", Value::Entity(EntityId(50))));
        game.added.push(fact("carrier", Value::str("UA")));
        live.apply(&[game]);
        assert_eq!(
            live.postings(&ProbeKey::Edge(intern("home_team"), EntityId(50))),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.postings(&ProbeKey::Literal(intern("carrier"), Value::str("UA"))),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_game"))),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn replacing_a_record_reindexes() {
        let live = ReplicaKg::new();
        live.apply(&[named(1, "Old Name", "person")]);
        live.apply(&[Delta {
            entity: EntityId(1),
            added: vec![fact("name", Value::str("New Name"))],
            removed: vec![fact("name", Value::str("Old Name"))],
        }]);
        assert!(live.postings(&name("old")).is_empty());
        assert_eq!(live.postings(&name("new")), vec![EntityId(1)]);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn graph_read_api_over_the_live_store() {
        let live = ReplicaKg::new();
        let warriors = named(1, "Golden State Warriors", "sports_team");
        live.apply(std::slice::from_ref(&warriors));
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_team"))),
            vec![EntityId(1)]
        );
        assert!(live.probe_contains(&name("warriors"), EntityId(1)));
        assert_eq!(
            live.resolve_name("Golden State Warriors"),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.record(EntityId(1)).unwrap().name(),
            Some("Golden State Warriors")
        );
        live.apply(&[undo(&warriors)]);
        assert!(!live.contains(EntityId(1)));
    }

    #[test]
    fn an_op_lands_whole_and_skips_empty_deltas() {
        let live = ReplicaKg::new();
        let tag = || fact("tag", Value::str("x"));
        let on = |id: u64| Delta {
            entity: EntityId(id),
            added: vec![tag()],
            removed: Vec::new(),
        };
        live.apply(&[on(1)]);
        // The empty delta changes nothing.
        live.apply(&[undo(&on(1)), Delta::default(), on(2)]);
        let probe = ProbeKey::Literal(intern("tag"), Value::str("x"));
        assert_eq!(live.postings(&probe), vec![EntityId(2)]);
        assert_eq!(live.probe_all_limit(&[&probe], 10), vec![EntityId(2)]);
        assert!(!live.contains(EntityId(1)));
    }

    #[test]
    fn concurrent_reads_under_writes_are_safe() {
        let live = ReplicaKg::new();
        for i in 0..100u64 {
            live.apply(&[named(i, &format!("E{i}"), "person")]);
        }
        let l2 = live.clone();
        let reader = std::thread::spawn(move || {
            let mut hits = 0;
            for _ in 0..1000 {
                for i in 0..100u64 {
                    if l2.record(EntityId(i)).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        });
        for i in 100..200u64 {
            live.apply(&[named(i, &format!("E{i}"), "person")]);
        }
        let hits = reader.join().unwrap();
        assert!(hits > 0);
        assert_eq!(live.len(), 200);
    }
}
