//! The Graph Engine's stable serving entry point.
//!
//! The canonical [`KnowledgeGraph`] is owned by construction — a single
//! writer that upserts, retracts and overwrites partitions. Serving needs
//! concurrent read access to the *same* graph through the backend-agnostic
//! [`GraphRead`] API. [`StableRead`] bridges the two: it wraps the KG in a
//! shared reader-writer lock, hands construction a scoped write path, and
//! implements [`GraphRead`] so any query engine (KGQ's `QueryEngine`, an
//! [`OverlayRead`](saga_core::OverlayRead) stacking a live layer on top)
//! can serve it directly.
//!
//! Point reads clone records out of the store and posting reads copy id
//! lists, so read locks are held only for the duration of one index
//! lookup — the same snapshot-style discipline as the live store.

use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};
use saga_core::{EntityId, EntityRecord, GraphRead, KnowledgeGraph, PostingsCursor, ProbeKey};

/// A shared, concurrently-readable handle to the stable KG.
pub struct StableRead {
    kg: Arc<RwLock<KnowledgeGraph>>,
}

impl Clone for StableRead {
    fn clone(&self) -> Self {
        StableRead {
            kg: Arc::clone(&self.kg),
        }
    }
}

impl StableRead {
    /// Take ownership of a KG and make it servable.
    pub fn new(kg: KnowledgeGraph) -> Self {
        StableRead {
            kg: Arc::new(RwLock::new(kg)),
        }
    }

    /// Wrap an already-shared KG.
    pub fn from_shared(kg: Arc<RwLock<KnowledgeGraph>>) -> Self {
        StableRead { kg }
    }

    /// The shared inner handle (for wiring into construction pipelines).
    pub fn shared(&self) -> Arc<RwLock<KnowledgeGraph>> {
        Arc::clone(&self.kg)
    }

    /// Shared read access to the underlying KG (held for the guard's
    /// lifetime — keep scopes short on serving paths).
    pub fn read(&self) -> RwLockReadGuard<'_, KnowledgeGraph> {
        self.kg.read()
    }

    /// Scoped exclusive access — the construction-side write path. Cached
    /// query plans self-invalidate afterwards through the KG's generation
    /// counter.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut KnowledgeGraph) -> R) -> R {
        f(&mut self.kg.write())
    }
}

impl GraphRead for StableRead {
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        // Clones the compressed blocks under the read lock — the cheap
        // way to carry a posting list out of the lock scope.
        self.kg.read().index().postings(probe).to_cursor()
    }

    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.kg.read().index().postings(probe).to_vec()
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.kg.read().index().selectivity(probe)
    }

    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.kg.read().index().postings(probe).contains(id)
    }

    fn probe_fingerprint(&self, probe: &ProbeKey) -> u64 {
        self.kg.read().index().probe_fingerprint(probe)
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        self.kg.read().entity(id).cloned()
    }

    fn contains(&self, id: EntityId) -> bool {
        self.kg.read().contains(id)
    }

    fn generation(&self) -> u64 {
        self.kg.read().generation()
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        // One lock acquisition for the whole conjunction: zero-copy
        // galloping intersection against the borrowed index.
        self.kg.read().index().probe_all_limit(probes, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, SourceId};

    fn handle() -> StableRead {
        let mut kg = KnowledgeGraph::new();
        for i in 1..=10u64 {
            kg.add_named_entity(EntityId(i), &format!("City {i}"), "city", SourceId(1), 0.9);
        }
        StableRead::new(kg)
    }

    #[test]
    fn serves_reads_and_accepts_scoped_writes() {
        let serving = handle();
        assert_eq!(serving.postings(&ProbeKey::Type(intern("city"))).len(), 10);
        assert_eq!(serving.resolve_name("City 3"), vec![EntityId(3)]);
        assert!(serving.contains(EntityId(1)));

        let g0 = serving.generation();
        serving.with_write(|kg| {
            kg.add_named_entity(EntityId(11), "City 11", "city", SourceId(1), 0.9);
        });
        assert!(serving.generation() > g0);
        assert_eq!(serving.postings(&ProbeKey::Type(intern("city"))).len(), 11);
    }

    #[test]
    fn clones_share_one_graph() {
        let serving = handle();
        let other = serving.clone();
        other.with_write(|kg| {
            kg.add_named_entity(EntityId(99), "Elsewhere", "city", SourceId(1), 0.9);
        });
        assert!(serving.contains(EntityId(99)));
    }

    #[test]
    fn concurrent_readers_progress_under_writes() {
        let serving = handle();
        let reader = serving.clone();
        let t = std::thread::spawn(move || {
            let mut hits = 0usize;
            for _ in 0..200 {
                hits += reader.probe_all(&[ProbeKey::Type(intern("city"))]).len();
            }
            hits
        });
        for i in 100..150u64 {
            serving.with_write(|kg| {
                kg.add_named_entity(EntityId(i), &format!("City {i}"), "city", SourceId(1), 0.9);
            });
        }
        assert!(t.join().unwrap() >= 200 * 10);
        assert_eq!(serving.postings(&ProbeKey::Type(intern("city"))).len(), 60);
    }
}
