//! Fusion (§2.3): merge linked source payloads into a consistent KG state.
//!
//! * Simple facts fuse by an outer join with the KG triples — either the
//!   provenance of an existing fact is extended, or a new fact is added
//!   ([`KgTransaction::upsert`] implements exactly this).
//! * Composite facts are more elaborate: a source relationship node merges
//!   into a KG relationship node when their underlying facts intersect
//!   sufficiently; otherwise it is added as a brand-new relationship node.
//! * Object resolution runs first so cross-references are standardized
//!   before the join.

use saga_core::{
    EntityPayload, EntityRecord, ExtendedTriple, FxHashMap, KgTransaction, RelId, Symbol, Value,
};

use crate::obr::{ObjectResolver, ResolutionStats};

/// Fusion configuration.
#[derive(Clone, Copy, Debug)]
pub struct FusionConfig {
    /// Fraction of a source relationship node's facets that must match an
    /// existing KG relationship node for the two to merge.
    pub rel_merge_overlap: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            rel_merge_overlap: 0.5,
        }
    }
}

/// Counters for one fused payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionReport {
    /// Facts newly added to the KG.
    pub facts_added: usize,
    /// Facts whose provenance was extended (outer-join hit).
    pub facts_merged: usize,
    /// Source relationship nodes merged into existing KG nodes.
    pub rel_nodes_merged: usize,
    /// Source relationship nodes added as new KG nodes.
    pub rel_nodes_added: usize,
    /// Object-resolution counters.
    pub resolution: ResolutionStats,
}

/// Fuse one linked payload into a staging transaction.
///
/// Fusion *stages* — nothing is visible to readers until the transaction
/// commits — but every read it performs (relationship-node matching,
/// fresh rel-id minting, object resolution) observes the staged state, so
/// payloads fused earlier in the same cycle behave exactly as if they had
/// already been applied.
///
/// # Panics
/// Panics if the payload was not linked (subject still in a source
/// namespace) — fusion is only defined over linked payloads.
pub fn fuse_payload(
    txn: &mut KgTransaction<'_>,
    mut payload: EntityPayload,
    resolver: &dyn ObjectResolver,
    config: &FusionConfig,
) -> FusionReport {
    let entity_id = payload
        .subject
        .as_kg()
        .expect("fusion requires a linked payload");
    let mut report = FusionReport {
        resolution: resolver.resolve(txn, &mut payload),
        ..Default::default()
    };

    // Split simple vs composite facts.
    let mut simple = Vec::new();
    let mut composite: FxHashMap<(Symbol, RelId), Vec<ExtendedTriple>> = FxHashMap::default();
    for t in payload.triples {
        match t.rel {
            None => simple.push(t),
            Some(rel) => composite
                .entry((t.predicate, rel.rel_id))
                .or_default()
                .push(t),
        }
    }

    // Simple facts: outer join.
    for t in simple {
        if txn.upsert(t) {
            report.facts_added += 1;
        } else {
            report.facts_merged += 1;
        }
    }

    // Composite facts: relationship-node matching.
    let mut keys: Vec<(Symbol, RelId)> = composite.keys().copied().collect();
    keys.sort_unstable_by_key(|(p, r)| (p.0, r.0)); // deterministic order
    for key in keys {
        let facets = composite.remove(&key).expect("key exists");
        let (predicate, _) = key;
        let record = txn.record(entity_id);
        let target_rel = match find_mergeable_rel_node(record, predicate, &facets, config) {
            Some(existing) => {
                report.rel_nodes_merged += 1;
                existing
            }
            None => {
                report.rel_nodes_added += 1;
                record
                    .and_then(|r| r.max_rel_id(predicate))
                    .map(|r| RelId(r.0 + 1))
                    .unwrap_or(RelId(1))
            }
        };
        for mut t in facets {
            t.rel = Some(saga_core::RelPart {
                rel_id: target_rel,
                rel_predicate: t.rel.expect("composite fact").rel_predicate,
            });
            if txn.upsert(t) {
                report.facts_added += 1;
            } else {
                report.facts_merged += 1;
            }
        }
    }
    report
}

/// Find an existing relationship node of the record under `predicate`
/// whose facts sufficiently intersect the incoming facets.
fn find_mergeable_rel_node(
    record: Option<&EntityRecord>,
    predicate: Symbol,
    facets: &[ExtendedTriple],
    config: &FusionConfig,
) -> Option<RelId> {
    let record = record?;
    let incoming: Vec<(Symbol, &Value)> = facets
        .iter()
        .map(|t| (t.rel.expect("composite fact").rel_predicate, &t.object))
        .collect();
    if incoming.is_empty() {
        return None;
    }
    let mut best: Option<(RelId, f64)> = None;
    for rel_id in record.rel_ids(predicate) {
        let existing = record.rel_facets(predicate, rel_id);
        let matches = incoming
            .iter()
            .filter(|(f, v)| existing.iter().any(|(ef, ev)| ef == f && ev == v))
            .count();
        let overlap = matches as f64 / incoming.len() as f64;
        if overlap >= config.rel_merge_overlap && best.map(|(_, b)| overlap > b).unwrap_or(true) {
            best = Some((rel_id, overlap));
        }
    }
    best.map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obr::LinkTableResolver;
    use saga_core::{intern, EntityId, FactMeta, KnowledgeGraph, SourceId};

    fn meta(src: u32) -> FactMeta {
        FactMeta::from_source(SourceId(src), 0.9)
    }

    /// Stage one payload and commit it — the per-payload form of what the
    /// construction pipeline does per cycle.
    fn fuse_into(
        kg: &mut KnowledgeGraph,
        payload: EntityPayload,
        resolver: &dyn ObjectResolver,
        config: &FusionConfig,
    ) -> FusionReport {
        let mut txn = KgTransaction::new(kg);
        let report = fuse_payload(&mut txn, payload, resolver, config);
        txn.commit();
        report
    }

    fn linked_payload(id: u64) -> EntityPayload {
        let mut p = EntityPayload::new(SourceId(1), "x", intern("person"));
        p.relink(EntityId(id));
        p
    }

    #[test]
    fn simple_facts_outer_join() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "J. Smith", "person", SourceId(9), 0.9);
        let mut p = linked_payload(1);
        p.push_simple(intern("name"), Value::str("J. Smith"), meta(1)); // dup → merge
        p.push_simple(intern("birthdate"), Value::str("1980-01-01"), meta(1)); // new
        let report = fuse_into(&mut kg, p, &LinkTableResolver, &FusionConfig::default());
        assert_eq!(report.facts_added, 1);
        assert_eq!(report.facts_merged, 1);
        let rec = kg.entity(EntityId(1)).unwrap();
        let name_fact = rec
            .triples
            .iter()
            .find(|t| t.predicate == intern("name"))
            .unwrap();
        assert_eq!(
            name_fact.meta.source_count(),
            2,
            "provenance extended, not duplicated"
        );
    }

    #[test]
    fn composite_nodes_merge_on_sufficient_overlap() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "J. Smith", "person", SourceId(9), 0.9);
        // KG already has education r1 = {school: UW, degree: PhD}.
        kg.commit_upsert(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(9),
        ));
        kg.commit_upsert(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(1),
            intern("degree"),
            Value::str("PhD"),
            meta(9),
        ));
        // Source asserts {school: UW, year: 2005} — 1/2 facets match (0.5).
        let mut p = linked_payload(1);
        p.push_composite(
            intern("educated_at"),
            RelId(77),
            intern("school"),
            Value::str("UW"),
            meta(1),
        );
        p.push_composite(
            intern("educated_at"),
            RelId(77),
            intern("year"),
            Value::Int(2005),
            meta(1),
        );
        let report = fuse_into(&mut kg, p, &LinkTableResolver, &FusionConfig::default());
        assert_eq!(report.rel_nodes_merged, 1);
        assert_eq!(report.rel_nodes_added, 0);
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(
            rec.rel_ids(intern("educated_at")),
            vec![RelId(1)],
            "merged into r1"
        );
        let facets = rec.rel_facets(intern("educated_at"), RelId(1));
        assert_eq!(facets.len(), 3, "year added to the merged node");
    }

    #[test]
    fn dissimilar_composite_nodes_are_added_fresh() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "J. Smith", "person", SourceId(9), 0.9);
        kg.commit_upsert(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(9),
        ));
        // Totally different education.
        let mut p = linked_payload(1);
        p.push_composite(
            intern("educated_at"),
            RelId(5),
            intern("school"),
            Value::str("MIT"),
            meta(1),
        );
        p.push_composite(
            intern("educated_at"),
            RelId(5),
            intern("degree"),
            Value::str("BSc"),
            meta(1),
        );
        let report = fuse_into(&mut kg, p, &LinkTableResolver, &FusionConfig::default());
        assert_eq!(report.rel_nodes_added, 1);
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(rec.rel_ids(intern("educated_at")), vec![RelId(1), RelId(2)]);
    }

    #[test]
    fn two_source_rel_nodes_stay_distinct() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "J. Smith", "person", SourceId(9), 0.9);
        let mut p = linked_payload(1);
        p.push_composite(
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(1),
        );
        p.push_composite(
            intern("educated_at"),
            RelId(2),
            intern("school"),
            Value::str("MIT"),
            meta(1),
        );
        let report = fuse_into(&mut kg, p, &LinkTableResolver, &FusionConfig::default());
        assert_eq!(report.rel_nodes_added, 2);
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(rec.rel_ids(intern("educated_at")).len(), 2);
    }

    #[test]
    fn refusing_creates_no_duplicates() {
        // Fusing the identical payload twice must be idempotent on facts.
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "X", "person", SourceId(9), 0.9);
        let build = || {
            let mut p = linked_payload(1);
            p.push_simple(intern("birthdate"), Value::str("1990"), meta(1));
            p.push_composite(
                intern("educated_at"),
                RelId(1),
                intern("school"),
                Value::str("UW"),
                meta(1),
            );
            p
        };
        fuse_into(
            &mut kg,
            build(),
            &LinkTableResolver,
            &FusionConfig::default(),
        );
        let facts_before = kg.fact_count();
        let report = fuse_into(
            &mut kg,
            build(),
            &LinkTableResolver,
            &FusionConfig::default(),
        );
        assert_eq!(kg.fact_count(), facts_before, "idempotent re-fuse");
        assert_eq!(report.facts_added, 0);
        assert!(report.facts_merged > 0);
    }

    #[test]
    #[should_panic(expected = "linked payload")]
    fn unlinked_payload_panics() {
        let mut kg = KnowledgeGraph::new();
        let p = EntityPayload::new(SourceId(1), "x", intern("person"));
        fuse_into(&mut kg, p, &LinkTableResolver, &FusionConfig::default());
    }
}
