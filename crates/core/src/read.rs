//! `GraphRead` — the backend-agnostic serving API.
//!
//! The paper serves queries against a *live* graph overlaid on the *stable*
//! KG so fresh facts are visible without waiting for batch construction
//! (§4.1). Both layers maintain the same [`ProbeKey`] posting vocabulary in
//! a [`TripleIndex`](crate::TripleIndex); this module captures that shared
//! vocabulary as a trait so one KGQ engine can execute unchanged against
//! any backend:
//!
//! * the stable [`KnowledgeGraph`] (single [`TripleIndex`](crate::TripleIndex), zero-copy
//!   galloping intersection),
//! * the sharded replica store (`saga_live::ReplicaKg`, lock-striped
//!   indexes probed shard by shard and merged — what log replicas and the
//!   live graph serve),
//! * [`OverlayRead`] — live-over-stable federation with tombstone
//!   semantics: live upserts win over stable facts, live retractions
//!   (tombstones) shadow them entirely.
//!
//! The trait is deliberately small — posting retrieval, membership tests,
//! selectivity for plan ordering, one limit-aware conjunction
//! ([`probe_all_limit`](GraphRead::probe_all_limit)), name resolution,
//! point record reads, and a monotone
//! [`generation`](GraphRead::generation) counter.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::index::intersect_sorted;
use crate::postings::PostingsCursor;
use crate::{EntityId, EntityRecord, FxHashSet, KnowledgeGraph, ProbeKey};

/// Uniform read access to a served knowledge graph.
///
/// Implementations must keep posting lists **sorted and deduplicated** —
/// the intersection and overlay-merge paths rely on it. All methods take
/// `&self`: serving backends are concurrently readable by construction.
///
/// Postings are served as [`PostingsCursor`]s: owned snapshots of the
/// block-compressed lists (see [`crate::postings`]), cheap to carry out of
/// a lock and intersectable without decompression.
/// [`postings`](GraphRead::postings) is the materializing convenience on
/// top.
pub trait GraphRead {
    /// Snapshot one probe's posting list in compressed block form — the
    /// primary postings entry point. Implementations clone compressed
    /// blocks (or build them from a merged layer view); they never
    /// materialize a full `Vec<EntityId>` unless merging forces it.
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor;

    /// The sorted posting list of one probe, materialized. Prefer
    /// [`postings_cursor`](Self::postings_cursor) on hot paths — this is
    /// the decompression boundary.
    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.postings_cursor(probe).to_vec()
    }

    /// Posting-list length of a probe — the plan-ordering signal. May be an
    /// upper-bound estimate (the overlay reports the sum of its layers),
    /// but must be zero only when the posting is certainly empty.
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
    /// domain** ([`intersect_views_limit`](crate::postings::intersect_views_limit));
    /// layered backends may instead drive candidates through
    /// [`probe_contains`](Self::probe_contains).
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
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
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
/// [`TripleIndex`](crate::TripleIndex) — zero-copy borrowed views,
/// compressed-domain intersection.
impl GraphRead for KnowledgeGraph {
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        self.index().postings(probe).to_cursor()
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

/// Live-over-stable federation with tombstone semantics (§4.1: "the live
/// KG is the union of a view of the stable graph with real-time live
/// sources").
///
/// The effective record of an entity is decided per *entity*, not per
/// fact:
///
/// * present in the live layer → the live record wins entirely (its stable
///   facts are shadowed, even ones the live record no longer asserts);
/// * tombstoned → invisible (a live retraction shadows the stable fact
///   set);
/// * otherwise → the stable record.
///
/// Upserting an entity into the live layer after tombstoning it resurrects
/// it with the live facts — tombstones only ever shadow the stable layer.
pub struct OverlayRead<L, S> {
    live: L,
    stable: S,
    tombstones: RwLock<FxHashSet<EntityId>>,
    tombstone_gen: AtomicU64,
}

impl<L: GraphRead, S: GraphRead> OverlayRead<L, S> {
    /// An overlay of `live` over `stable` with no tombstones.
    pub fn new(live: L, stable: S) -> Self {
        OverlayRead {
            live,
            stable,
            tombstones: RwLock::new(FxHashSet::default()),
            tombstone_gen: AtomicU64::new(0),
        }
    }

    /// The live (winning) layer.
    pub fn live(&self) -> &L {
        &self.live
    }

    /// The stable (shadowed) layer.
    pub fn stable(&self) -> &S {
        &self.stable
    }

    /// Retract `id` from serving: the stable record (if any) is shadowed.
    /// Returns `false` if the tombstone was already set.
    pub fn tombstone(&self, id: EntityId) -> bool {
        let fresh = self.tombstones.write().insert(id);
        if fresh {
            self.tombstone_gen.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Remove a tombstone, making the stable record visible again.
    pub fn resurrect(&self, id: EntityId) -> bool {
        let removed = self.tombstones.write().remove(&id);
        if removed {
            self.tombstone_gen.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// True if `id` carries a tombstone (regardless of live presence).
    pub fn is_tombstoned(&self, id: EntityId) -> bool {
        self.tombstones.read().contains(&id)
    }

    /// Number of tombstones currently set.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.read().len()
    }

    /// Drop tombstones made redundant by stable-side retractions: a
    /// tombstone only shadows a *stable* record, so once the stable layer
    /// no longer asserts the entity the tombstone is dead weight.
    ///
    /// `stable_removed` is the set of entities a stable-side commit
    /// dropped — take it straight from
    /// [`CommitReceipt::entities_removed`](crate::CommitReceipt); each id
    /// is re-checked against the stable layer before pruning, so a stale
    /// signal can never unshadow a live record. Returns the number of
    /// tombstones pruned. The retention loop for the ROADMAP's unbounded
    /// tombstone set: wire every `LoggedWriter` commit's receipt through
    /// here and the set shrinks as construction compacts retractions in.
    pub fn prune_tombstones(&self, stable_removed: &[EntityId]) -> usize {
        let mut pruned = 0;
        let mut tombstones = self.tombstones.write();
        for id in stable_removed {
            if !self.stable.contains(*id) && tombstones.remove(id) {
                // No generation bump: the entity was invisible before
                // (tombstoned) and stays invisible (gone from stable), so
                // no read's answer changes.
                pruned += 1;
            }
        }
        pruned
    }
}

impl<L: GraphRead, S: GraphRead> GraphRead for OverlayRead<L, S> {
    /// The overlay's effective posting only exists merged: build the
    /// cursor from the shadow-filtered union.
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        PostingsCursor::from_sorted(self.postings(probe))
    }

    fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        // Shadow-filter the stable postings *before* fetching the live
        // list: the two layers lock independently, so an entity upserted
        // into the live layer mid-read is then guaranteed to appear in at
        // least one of the two lists (the dedup below collapses both).
        // Live retractions go through tombstones (one lock, no window);
        // only a direct live-layer removal can still transiently hide a
        // stable entity from one probe.
        let stable = self.stable.postings(probe);
        let mut out: Vec<EntityId> = if stable.is_empty() {
            Vec::new()
        } else {
            let tombstones = self.tombstones.read();
            stable
                .into_iter()
                .filter(|id| !tombstones.contains(id) && !self.live.contains(*id))
                .collect()
        };
        out.extend(self.live.postings(probe));
        out.sort_unstable();
        out.dedup();
        out
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        // Upper-bound estimate: cheap, and only zero when both layers are
        // certainly empty — exactly what plan ordering needs.
        self.live.selectivity(probe) + self.stable.selectivity(probe)
    }

    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        if self.live.contains(id) {
            self.live.probe_contains(probe, id)
        } else {
            !self.is_tombstoned(id) && self.stable.probe_contains(probe, id)
        }
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        if let Some(record) = self.live.record(id) {
            return Some(record);
        }
        if self.is_tombstoned(id) {
            return None;
        }
        self.stable.record(id)
    }

    fn contains(&self, id: EntityId) -> bool {
        self.live.contains(id) || (!self.is_tombstoned(id) && self.stable.contains(id))
    }

    fn generation(&self) -> u64 {
        // Each component is monotone, so the sum is.
        self.live.generation()
            + self.stable.generation()
            + self.tombstone_gen.load(Ordering::Relaxed)
    }

    /// Candidate-driven conjunction: materializing every merged overlay
    /// posting just to intersect would pay the two-layer merge per probe,
    /// so the overlay instead walks the cheapest probe's two layer cursors
    /// in ascending id order — their union is a superset of its effective
    /// posting — and keeps the ids that pass every probe's per-layer
    /// [`probe_contains`](GraphRead::probe_contains), the driver's
    /// included (that is where shadowing is applied). The walk is lazy and
    /// stops at `limit`: `O(candidates examined · probes)` point lookups,
    /// no merged lists.
    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        let Some((driver, driver_sel)) = probes
            .iter()
            .map(|&p| (p, self.selectivity(p)))
            .min_by_key(|&(_, sel)| sel)
        else {
            return Vec::new();
        };
        if driver_sel == 0 {
            return Vec::new();
        }
        let stable = self.stable.postings_cursor(driver);
        let live = self.live.postings_cursor(driver);
        let (mut stable, mut live) = (stable.iter().peekable(), live.iter().peekable());
        let candidates = std::iter::from_fn(|| match (stable.peek(), live.peek()) {
            (Some(&s), Some(&l)) => {
                if s <= l {
                    stable.next();
                }
                if l <= s {
                    live.next();
                }
                Some(s.min(l))
            }
            (Some(_), None) => stable.next(),
            (None, _) => live.next(),
        });
        candidates
            .filter(|&id| probes.iter().all(|probe| self.probe_contains(probe, id)))
            .take(limit)
            .collect()
    }
}

/// Reference conjunction for [`GraphRead`] backends whose effective posting
/// lists are already materialized: selectivity-ordered galloping
/// intersection over owned lists. Shared by tests and by backends that
/// prefer full materialization over membership probes.
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
    fn overlay_merges_and_live_wins() {
        let stable = stable_kg();
        // The live layer re-asserts entity 1 with different facts.
        let mut live = KnowledgeGraph::new();
        live.add_named_entity(EntityId(1), "Renamed Track", "song", SourceId(2), 0.9);
        live.add_named_entity(EntityId(7), "Live Only", "song", SourceId(2), 0.9);
        let overlay = OverlayRead::new(live, stable);

        // Union of both layers, live winning on entity 1.
        assert_eq!(
            overlay.postings(&ProbeKey::Type(intern("song"))),
            vec![EntityId(1), EntityId(2), EntityId(7)]
        );
        assert_eq!(
            overlay.record(EntityId(1)).unwrap().name(),
            Some("Renamed Track")
        );
        // Entity 1's stable name posting is shadowed by the live record.
        assert!(overlay.resolve_name("Alpha").is_empty());
        assert_eq!(overlay.resolve_name("Renamed Track"), vec![EntityId(1)]);
        // Stable-only entities pass through untouched.
        assert_eq!(overlay.record(EntityId(3)).unwrap().name(), Some("Gamma"));
    }

    #[test]
    fn tombstones_shadow_stable_facts() {
        let overlay = OverlayRead::new(KnowledgeGraph::new(), stable_kg());
        assert!(overlay.contains(EntityId(2)));
        let g0 = overlay.generation();
        assert!(overlay.tombstone(EntityId(2)));
        assert!(!overlay.tombstone(EntityId(2)), "idempotent");
        assert!(overlay.generation() > g0, "tombstones bump the generation");

        assert!(!overlay.contains(EntityId(2)));
        assert!(overlay.record(EntityId(2)).is_none());
        assert_eq!(
            overlay.postings(&ProbeKey::Type(intern("song"))),
            vec![EntityId(1)]
        );
        assert!(!overlay.probe_contains(&ProbeKey::Type(intern("song")), EntityId(2)));

        assert!(overlay.resurrect(EntityId(2)));
        assert!(overlay.contains(EntityId(2)));
    }

    #[test]
    fn prune_tombstones_drops_only_stable_side_retractions() {
        use crate::{SourceId, WriteBatch};
        let mut stable = stable_kg();
        stable.commit_upsert(ExtendedTriple::simple(
            EntityId(9),
            intern("name"),
            Value::str("Niner"),
            FactMeta::from_source(SourceId(9), 0.9),
        ));
        let overlay = OverlayRead::new(KnowledgeGraph::new(), stable);
        overlay.tombstone(EntityId(2));
        overlay.tombstone(EntityId(9));
        assert_eq!(overlay.tombstone_count(), 2);

        // Entity 2 still lives in the stable layer: its tombstone is
        // load-bearing and must survive even if named in the signal.
        assert_eq!(overlay.prune_tombstones(&[EntityId(2)]), 0);
        assert_eq!(overlay.tombstone_count(), 2);
        assert!(!overlay.contains(EntityId(2)), "still shadowed");

        // Retract entity 9 on the stable side, then feed the commit
        // receipt's removal set through the pruning hook.
        let receipt = {
            // Re-borrowing the stable layer mutably is test-only surgery;
            // production wires `LoggedWriter` receipts through here.
            let mut fresh = stable_kg();
            fresh.commit_upsert(ExtendedTriple::simple(
                EntityId(9),
                intern("name"),
                Value::str("Niner"),
                FactMeta::from_source(SourceId(9), 0.9),
            ));
            let receipt = WriteBatch::new()
                .retract_source(SourceId(9))
                .commit(&mut fresh);
            let overlay = OverlayRead::new(KnowledgeGraph::new(), fresh);
            overlay.tombstone(EntityId(2));
            overlay.tombstone(EntityId(9));
            assert_eq!(receipt.entities_removed, vec![EntityId(9)]);
            assert_eq!(overlay.prune_tombstones(&receipt.entities_removed), 1);
            assert_eq!(overlay.tombstone_count(), 1, "only the dead one pruned");
            assert!(!overlay.contains(EntityId(9)), "stays invisible");
            assert!(!overlay.contains(EntityId(2)), "live tombstone kept");
            receipt
        };
        assert!(!receipt.is_empty());
    }

    #[test]
    fn default_probe_all_short_circuits_unsatisfiable_probes() {
        let overlay = OverlayRead::new(KnowledgeGraph::new(), stable_kg());
        let hits = overlay.probe_all(&[
            ProbeKey::Type(intern("song")),
            ProbeKey::Name("no such entity".into()),
        ]);
        assert!(hits.is_empty());
        // And matches the reference intersection on satisfiable ones.
        let probes = [
            ProbeKey::Type(intern("song")),
            ProbeKey::Edge(intern("performed_by"), EntityId(3)),
        ];
        assert_eq!(
            overlay.probe_all(&probes),
            intersect_postings(&overlay, &probes)
        );
    }
}
