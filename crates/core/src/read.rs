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
//! * the replica store (`saga_live::ReplicaKg`, one
//!   [`TripleIndex`](crate::TripleIndex) under one lock, probed with the
//!   same calls — what log replicas serve),
//!   and the fleet and view surfaces that forward to one.
//!
//! The trait is one required method: [`read_state`](GraphRead::read_state)
//! lends the backend's [`TripleIndex`] to one closure — under one read
//! lock on a locked store, so everything the closure reads comes from one
//! state between two ops. Every other read — the lent posting list, point
//! records, membership, the limit-aware conjunction, an owned cursor, the
//! materialized list, selectivity, probe membership, name resolution, the
//! unlimited conjunction — is a provided method, each one `read_state`,
//! defined once here and overridden by no backend. A caller that needs
//! several reads to agree (a KGQ query) makes them inside one
//! `read_state`. The trait carries no version counter: a store's version
//! is the log sequence number it has applied — a replica's follower
//! watermark, the writer's log head.

use std::ops::Deref;
use std::sync::Arc;

use crate::index::intersect_sorted;
use crate::postings::BlockPostings;
use crate::{
    EntityId, EntityRecord, ExtendedTriple, FactMeta, KnowledgeGraph, ProbeKey, Symbol,
    TripleIndex, Value,
};

/// Uniform read access to a served knowledge graph.
///
/// Implementations must keep posting lists **sorted and deduplicated** —
/// the intersection paths rely on it. All methods take
/// `&self`: serving backends are concurrently readable by construction.
///
/// A backend implements [`read_state`](Self::read_state); the rest is
/// provided, and each provided read is one `read_state`.
pub trait GraphRead {
    /// Run `f` on the backend's index — the one read primitive. A store
    /// behind a lock runs `f` under one read lock, so `f` sees one state
    /// between two ops and nothing is copied out; `f` must not call back
    /// into any store.
    fn read_state<R>(&self, f: impl FnOnce(&TripleIndex) -> R) -> R;

    /// Run `f` on one probe's posting list, lent in its block-compressed
    /// form (see [`crate::postings`]).
    fn with_postings<R>(&self, probe: &ProbeKey, f: impl FnOnce(&BlockPostings) -> R) -> R {
        self.read_state(|state| f(state.postings(probe)))
    }

    /// Point read of one entity record, materialised from its indexed
    /// facts: simple triples ordered by predicate name, then value — an
    /// order that depends on the log alone, so every backend holding the
    /// same facts answers alike, in any process, however it was built.
    /// Provenance does not ride the log: each fact carries
    /// `FactMeta::default()`. The facts are copied out in the state and
    /// sorted after it.
    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        let mut facts: Vec<(Arc<str>, Symbol, Value)> = self.read_state(|state| {
            state.contains(id).then(|| {
                state
                    .facts_of(id)
                    .map(|(p, v)| (p.text(), p, v.into_owned()))
                    .collect()
            })
        })?;
        facts.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        let triples = facts
            .into_iter()
            .map(|(_, p, v)| ExtendedTriple::simple(id, p, v, FactMeta::default()))
            .collect();
        Some(EntityRecord { id, triples })
    }

    /// True if the entity has an indexed fact: exactly when
    /// [`record`](Self::record) is `Some`, without building the record.
    fn contains(&self, id: EntityId) -> bool {
        self.read_state(|state| state.contains(id))
    }

    /// The first `limit` ids (ascending) of the conjunction of `probes` —
    /// the one conjunction primitive. Two things are part of its contract,
    /// so executors never need a pass of their own for either:
    ///
    /// * **selectivity planning** — drive the evaluation from the
    ///   cheapest posting and short-circuit when any probe is certainly
    ///   empty;
    /// * **the budget** — the answer is exactly the first
    ///   `min(limit, |answer|)` ids of the unlimited answer, and the work
    ///   done follows `limit`, not `|answer|`: evaluation stops once the
    ///   budget is met instead of computing the whole conjunction and
    ///   truncating. `usize::MAX` means "no budget".
    ///
    /// The intersection runs **in the compressed domain**
    /// ([`intersect_views_limit`](crate::postings::intersect_views_limit)),
    /// inline on the calling thread.
    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        self.read_state(|state| state.probe_all_limit(probes, limit))
    }

    /// One probe's posting list as an owned snapshot in compressed block
    /// form: a clone of the lent list, never a materialized
    /// `Vec<EntityId>`.
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
        self.with_postings(probe, BlockPostings::clone)
    }

    /// The sorted posting list of one probe, materialized — the
    /// decompression boundary.
    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.with_postings(probe, BlockPostings::to_vec)
    }

    /// Posting-list length of a probe: exact, zero exactly when the
    /// posting is empty.
    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.with_postings(probe, BlockPostings::len)
    }

    /// True if `id` is in the probe's posting list: a block probe on the
    /// lent list.
    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.with_postings(probe, |list| list.contains(id))
    }

    /// Entities whose name/alias matches `name` as a full (lowercased)
    /// phrase — the shared name-resolution path of every backend.
    fn resolve_name(&self, name: &str) -> Vec<EntityId> {
        self.postings(&ProbeKey::Name(name.to_lowercase()))
    }

    /// The whole conjunction:
    /// [`probe_all_limit`](Self::probe_all_limit) with no budget.
    fn probe_all(&self, probes: &[ProbeKey]) -> Vec<EntityId> {
        self.probe_all_limit(&probes.iter().collect::<Vec<_>>(), usize::MAX)
    }
}

/// Any pointer to a backend is a backend — `&T`, `Arc<T>`, `Box<T>` and
/// lock guards alike — lending the pointee's state.
impl<P> GraphRead for P
where
    P: Deref,
    P::Target: GraphRead,
{
    fn read_state<R>(&self, f: impl FnOnce(&TripleIndex) -> R) -> R {
        (**self).read_state(f)
    }
}

/// The writer's graph lends its unified [`TripleIndex`]; it answers every
/// read from the index, like a replica of its log. Its records with
/// provenance stay [`KnowledgeGraph::entity`].
impl GraphRead for KnowledgeGraph {
    fn read_state<R>(&self, f: impl FnOnce(&TripleIndex) -> R) -> R {
        f(self.index())
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
