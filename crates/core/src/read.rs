//! `GraphRead` — the backend-agnostic serving API.
//!
//! The paper serves the *live* graph as "the union of a view of the stable
//! graph with real-time live sources" (§4.1). Here that union is one log:
//! stable construction, live sources and curation all commit through one
//! `LoggedWriter`, and a replica following that log serves stable and live
//! facts alike. Every backend maintains the same [`ProbeKey`] posting
//! vocabulary in a [`TripleIndex`](crate::TripleIndex); this module
//! captures that vocabulary as a trait so one KGQ engine can execute
//! unchanged against any backend:
//!
//! * the writer's [`KnowledgeGraph`] (single
//!   [`TripleIndex`](crate::TripleIndex), zero-copy galloping
//!   intersection),
//! * the replica store (`saga_live::ReplicaKg`, partitions under one
//!   lock, probed partition by partition and merged — what log replicas
//!   serve),
//!   and the fleet and view surfaces that forward to one.
//!
//! The trait is deliberately small — posting retrieval (an owned
//! [`BlockPostings`], the compressed list itself), membership tests,
//! selectivity, one limit-aware conjunction
//! ([`probe_all_limit`](GraphRead::probe_all_limit)), name resolution,
//! point record reads, and a monotone
//! [`generation`](GraphRead::generation) counter.

use std::ops::Deref;

use crate::index::intersect_sorted;
use crate::postings::BlockPostings;
use crate::{EntityId, EntityRecord, KnowledgeGraph, ProbeKey};

/// Uniform read access to a served knowledge graph.
///
/// Implementations must keep posting lists **sorted and deduplicated** —
/// the intersection paths rely on it. All methods take
/// `&self`: serving backends are concurrently readable by construction.
///
/// Postings are served as owned [`BlockPostings`]: a snapshot of the
/// block-compressed list itself (see [`crate::postings`]), cheap to carry
/// out of a lock and intersectable without decompression.
/// [`postings`](GraphRead::postings) is the materializing convenience on
/// top.
pub trait GraphRead {
    /// Snapshot one probe's posting list in compressed block form — the
    /// primary postings entry point. Implementations clone compressed
    /// blocks (or build them from a merged partition view); they never
    /// materialize a full `Vec<EntityId>` unless merging forces it.
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings;

    /// The sorted posting list of one probe, materialized. Prefer
    /// [`postings_cursor`](Self::postings_cursor) on hot paths — this is
    /// the decompression boundary.
    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.postings_cursor(probe).to_vec()
    }

    /// Posting-list length of a probe. May be an upper-bound estimate, but
    /// must be zero only when the posting is certainly empty.
    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.postings_cursor(probe).len()
    }

    /// True if `id` is in the probe's posting list. Backends with
    /// in-memory postings should override with a direct block probe
    /// instead of snapshotting the list.
    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.postings_cursor(probe).contains(id)
    }

    /// Entities whose name/alias matches `name` as a full (lowercased)
    /// phrase — the shared name-resolution path of every backend.
    fn resolve_name(&self, name: &str) -> Vec<EntityId> {
        self.postings(&ProbeKey::Name(name.to_lowercase()))
    }

    /// Point read of one entity record (serving reads are snapshot-style:
    /// the record is cloned out of the store).
    fn record(&self, id: EntityId) -> Option<EntityRecord>;

    /// True if the entity is visible to this backend.
    fn contains(&self, id: EntityId) -> bool {
        self.record(id).is_some()
    }

    /// Monotone counter bumped on every mutation that can change what any
    /// read returns: the wire `Generation` op reports it, and the fleet
    /// sums it across replicas. Plan caches do not read it — a cached
    /// plan re-checks only the edge targets it resolved.
    fn generation(&self) -> u64;

    /// The first `limit` ids (ascending) of the conjunction of `probes` —
    /// the one conjunction primitive every backend implements. Two things
    /// are part of this method's contract, so executors never need a pass
    /// of their own for either:
    ///
    /// * **selectivity planning** — drive the evaluation from the
    ///   cheapest posting and short-circuit when any probe is certainly
    ///   empty;
    /// * **the budget** — the answer is exactly the first
    ///   `min(limit, |answer|)` ids of the unlimited answer, and the work
    ///   done follows `limit`, not `|answer|`: stop evaluating once the
    ///   budget is met instead of computing the whole conjunction and
    ///   truncating. `usize::MAX` means "no budget".
    ///
    /// Backends with compressed postings intersect **in the compressed
    /// domain** ([`intersect_views_limit`](crate::postings::intersect_views_limit)).
    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId>;

    /// The whole conjunction:
    /// [`probe_all_limit`](Self::probe_all_limit) with no budget. Provided
    /// — backends implement only the limit-aware primitive.
    fn probe_all(&self, probes: &[ProbeKey]) -> Vec<EntityId> {
        self.probe_all_limit(&probes.iter().collect::<Vec<_>>(), usize::MAX)
    }
}

/// Any pointer to a backend is a backend — `&T`, `Arc<T>`, `Box<T>` and
/// lock guards alike. Every method forwards, so a backend's overrides
/// survive the indirection.
impl<P> GraphRead for P
where
    P: Deref,
    P::Target: GraphRead,
{
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
        (**self).postings_cursor(probe)
    }
    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        (**self).postings(probe)
    }
    fn selectivity(&self, probe: &ProbeKey) -> usize {
        (**self).selectivity(probe)
    }
    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        (**self).probe_contains(probe, id)
    }
    fn resolve_name(&self, name: &str) -> Vec<EntityId> {
        (**self).resolve_name(name)
    }
    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        (**self).record(id)
    }
    fn contains(&self, id: EntityId) -> bool {
        (**self).contains(id)
    }
    fn generation(&self) -> u64 {
        (**self).generation()
    }
    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        (**self).probe_all_limit(probes, limit)
    }
}

/// The stable KG serves directly from its unified
/// [`TripleIndex`](crate::TripleIndex) — borrowed posting lists,
/// compressed-domain intersection.
impl GraphRead for KnowledgeGraph {
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
        self.index().postings(probe).clone()
    }

    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.index().postings(probe).to_vec()
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.index().selectivity(probe)
    }

    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.index().postings(probe).contains(id)
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        self.entity(id).cloned()
    }

    fn contains(&self, id: EntityId) -> bool {
        KnowledgeGraph::contains(self, id)
    }

    fn generation(&self) -> u64 {
        KnowledgeGraph::generation(self)
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        // Zero-copy: intersect borrowed compressed views in place.
        self.index().probe_all_limit(probes, limit)
    }
}

/// Reference conjunction for [`GraphRead`] backends: galloping
/// intersection over each probe's materialized posting list. The prefix
/// law and the read tests compare `probe_all` against it.
pub fn intersect_postings<G: GraphRead>(graph: &G, probes: &[ProbeKey]) -> Vec<EntityId> {
    let lists: Vec<Vec<EntityId>> = probes.iter().map(|p| graph.postings(p)).collect();
    if lists.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let refs: Vec<&[EntityId]> = lists.iter().map(Vec::as_slice).collect();
    intersect_sorted(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{intern, ExtendedTriple, FactMeta, SourceId, Value};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    fn stable_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Alpha", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Beta", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Gamma", "artist", SourceId(1), 0.9);
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("performed_by"),
            Value::Entity(EntityId(3)),
            meta(),
        ));
        kg
    }

    #[test]
    fn stable_kg_implements_the_read_api() {
        let kg = stable_kg();
        let probe = ProbeKey::Type(intern("song"));
        assert_eq!(kg.postings(&probe), vec![EntityId(1), EntityId(2)]);
        assert_eq!(kg.selectivity(&probe), 2);
        assert!(kg.probe_contains(&probe, EntityId(2)));
        assert!(!kg.probe_contains(&probe, EntityId(3)));
        assert_eq!(kg.resolve_name("Alpha"), vec![EntityId(1)]);
        assert_eq!(kg.record(EntityId(3)).unwrap().name(), Some("Gamma"));
        assert_eq!(
            kg.probe_all(&[probe, ProbeKey::Edge(intern("performed_by"), EntityId(3))]),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn generation_bumps_on_mutation_only() {
        let mut kg = stable_kg();
        let g0 = GraphRead::generation(&kg);
        // Reads don't bump.
        let _ = kg.postings(&ProbeKey::Type(intern("song")));
        assert_eq!(GraphRead::generation(&kg), g0);
        kg.add_named_entity(EntityId(9), "Delta", "song", SourceId(1), 0.9);
        assert!(GraphRead::generation(&kg) > g0);
    }

    #[test]
    fn default_probe_all_short_circuits_unsatisfiable_probes() {
        let kg = stable_kg();
        let hits = kg.probe_all(&[
            ProbeKey::Type(intern("song")),
            ProbeKey::Name("no such entity".into()),
        ]);
        assert!(hits.is_empty());
        // And matches the reference intersection on satisfiable ones.
        let probes = [
            ProbeKey::Type(intern("song")),
            ProbeKey::Edge(intern("performed_by"), EntityId(3)),
        ];
        assert_eq!(kg.probe_all(&probes), intersect_postings(&kg, &probes));
    }
}
