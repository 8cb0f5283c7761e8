//! Compact identifiers used throughout the platform.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a canonical entity in the knowledge graph.
///
/// The paper renders these as `AKG:123`; we keep the numeric part. Ids are
/// assigned by the construction pipeline (via [`IdGenerator`]) when the
/// resolution step decides that a cluster of source entities corresponds to
/// a real-world entity that does not yet exist in the KG (§2.3, step 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EntityId(pub u64);

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AKG:{}", self.0)
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AKG:{}", self.0)
    }
}

impl EntityId {
    /// Parse the `AKG:<n>` textual form produced by [`Display`](fmt::Display).
    pub fn parse(text: &str) -> Option<EntityId> {
        text.strip_prefix("AKG:")?.parse().ok().map(EntityId)
    }
}

/// Identifier of an upstream data source (a provider feed).
///
/// Every fact in the KG carries an array of `SourceId`s for provenance
/// (§2.1); licensing views and on-demand deletion are keyed by it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl fmt::Debug for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// Identifier of a composite relationship node, scoped to its subject entity.
///
/// In Table 1 of the paper this is the `r_id` column (`r1`, `r2`, …): all
/// extended triples that share `(subject, predicate, r_id)` describe the same
/// relationship node (e.g. one `education` object with `school`, `degree`
/// and `year` facets).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Log sequence number of the Graph Engine's durable operation log (§3.1).
///
/// LSNs are the distributed synchronization primitive: each derived store's
/// log follower holds the highest LSN it has replayed (its watermark),
/// which lets a consumer decide whether a store is fresh enough for its SLA.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN before any operation has been appended.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN in sequence.
    #[must_use]
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Thread-safe monotonically increasing [`EntityId`] allocator.
///
/// The construction pipeline runs source pipelines in parallel (Fig. 5);
/// new-entity creation during resolution must therefore be race-free.
#[derive(Debug)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Create a generator that will hand out ids starting at `first`.
    pub fn starting_at(first: u64) -> Self {
        IdGenerator {
            next: AtomicU64::new(first),
        }
    }

    /// Allocate a fresh, never-before-returned entity id.
    pub fn allocate(&self) -> EntityId {
        EntityId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// The id the next call to [`allocate`](Self::allocate) would return.
    pub fn peek(&self) -> EntityId {
        EntityId(self.next.load(Ordering::Relaxed))
    }

    /// Bump the generator so it never allocates an id `<= floor`.
    ///
    /// Used when loading an existing KG snapshot: the generator must stay
    /// ahead of every id already present.
    pub fn ensure_above(&self, floor: EntityId) {
        self.next.fetch_max(floor.0 + 1, Ordering::Relaxed);
    }
}

impl Default for IdGenerator {
    fn default() -> Self {
        IdGenerator::starting_at(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn entity_id_display_and_parse_roundtrip() {
        let id = EntityId(42);
        assert_eq!(id.to_string(), "AKG:42");
        assert_eq!(EntityId::parse("AKG:42"), Some(id));
        assert_eq!(EntityId::parse("42"), None);
        assert_eq!(EntityId::parse("AKG:x"), None);
    }

    #[test]
    fn lsn_next_is_monotone() {
        let l = Lsn::ZERO;
        assert!(l.next() > l);
        assert_eq!(l.next(), Lsn(1));
    }

    #[test]
    fn id_generator_is_monotone_and_unique_across_threads() {
        let gen = Arc::new(IdGenerator::starting_at(100));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&gen);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.allocate().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "ids must be unique");
        assert_eq!(*all.first().unwrap(), 100);
    }

    #[test]
    fn id_generator_ensure_above_prevents_reuse() {
        let gen = IdGenerator::starting_at(1);
        gen.ensure_above(EntityId(500));
        assert_eq!(gen.allocate(), EntityId(501));
        // Lower floors are ignored.
        gen.ensure_above(EntityId(10));
        assert_eq!(gen.allocate(), EntityId(502));
    }
}
