//! The NERD Entity View (§5.2).
//!
//! "The goal of each record in the NERD entity view is to provide a
//! comprehensive summary that can act as a discriminative definition for
//! each entity in the KG": names and aliases, ontology types, description,
//! important one-hop relationships, neighbour entity types, and the entity
//! importance score. The view also owns the retrieval indexes (exact alias
//! and q-gram) used by candidate retrieval, and supports incremental
//! refresh by changed entity ids — "entity additions are reflected by
//! updating the NERD Entity View" without retraining models.

use saga_core::{EntityId, FxHashMap, KnowledgeGraph, Symbol};

use crate::text::{normalize, qgrams};

/// A discriminative summary of one KG entity.
#[derive(Clone, Debug, Default)]
pub struct EntitySummary {
    /// The entity.
    pub id: EntityId,
    /// Primary name followed by aliases.
    pub names: Vec<String>,
    /// Ontology types.
    pub types: Vec<Symbol>,
    /// Free-text description, if any.
    pub description: Option<String>,
    /// Salient one-hop relationships: `(predicate, neighbour name)`.
    pub relations: Vec<(Symbol, String)>,
    /// Types of the entity's neighbours.
    pub neighbor_types: Vec<Symbol>,
    /// Entity importance (graph-structural score, §3.3).
    pub importance: f64,
}

/// The materialized NERD Entity View with retrieval indexes.
#[derive(Clone, Debug, Default)]
pub struct NerdEntityView {
    summaries: FxHashMap<EntityId, EntitySummary>,
    alias_exact: FxHashMap<String, Vec<EntityId>>,
    gram_index: FxHashMap<String, Vec<EntityId>>,
}

impl NerdEntityView {
    /// Build the view over the whole KG.
    ///
    /// `importance` optionally injects the Graph Engine's entity-importance
    /// view (§3.3); entities not present fall back to a degree+identities
    /// heuristic so the view is usable standalone.
    pub fn build(kg: &KnowledgeGraph, importance: Option<&FxHashMap<EntityId, f64>>) -> Self {
        let mut view = NerdEntityView::default();
        for record in kg.entities() {
            view.insert_summary(Self::summarize(kg, record.id, importance));
        }
        view
    }

    /// Refresh the summaries of `changed` entities (insert, update or drop).
    pub fn refresh(
        &mut self,
        kg: &KnowledgeGraph,
        changed: &[EntityId],
        importance: Option<&FxHashMap<EntityId, f64>>,
    ) {
        for &id in changed {
            self.remove_summary(id);
            if kg.contains(id) {
                self.insert_summary(Self::summarize(kg, id, importance));
            }
        }
    }

    fn summarize(
        kg: &KnowledgeGraph,
        id: EntityId,
        importance: Option<&FxHashMap<EntityId, f64>>,
    ) -> EntitySummary {
        let record = kg.entity(id).expect("summarize requires existing entity");
        let mut names: Vec<String> = record.all_names().iter().map(|s| s.to_string()).collect();
        names.dedup();
        let mut relations = Vec::new();
        let mut neighbor_types = Vec::new();
        for (pred, dst) in record.out_edges() {
            if let Some(n) = kg.entity(dst) {
                if let Some(name) = n.name() {
                    relations.push((pred, name.to_string()));
                }
                neighbor_types.extend(n.types());
            }
        }
        neighbor_types.sort_unstable();
        neighbor_types.dedup();
        let imp = importance
            .and_then(|m| m.get(&id).copied())
            .unwrap_or_else(|| {
                // Standalone fallback: ln(1+degree) + identities.
                let degree = record.out_edges().count();
                ((1 + degree) as f64).ln() + record.identity_count() as f64 * 0.5
            });
        EntitySummary {
            id,
            names,
            types: record.types(),
            description: record.description().map(str::to_string),
            relations,
            neighbor_types,
            importance: imp,
        }
    }

    fn insert_summary(&mut self, summary: EntitySummary) {
        let id = summary.id;
        for name in &summary.names {
            let norm = normalize(name);
            if norm.is_empty() {
                continue;
            }
            push_unique(self.alias_exact.entry(norm.clone()).or_default(), id);
            for g in qgrams(&norm, 3) {
                push_unique(self.gram_index.entry(g).or_default(), id);
            }
        }
        self.summaries.insert(id, summary);
    }

    fn remove_summary(&mut self, id: EntityId) {
        let Some(old) = self.summaries.remove(&id) else {
            return;
        };
        for name in &old.names {
            let norm = normalize(name);
            if let Some(v) = self.alias_exact.get_mut(&norm) {
                v.retain(|&e| e != id);
                if v.is_empty() {
                    self.alias_exact.remove(&norm);
                }
            }
            for g in qgrams(&norm, 3) {
                if let Some(v) = self.gram_index.get_mut(&g) {
                    v.retain(|&e| e != id);
                    if v.is_empty() {
                        self.gram_index.remove(&g);
                    }
                }
            }
        }
    }

    /// The summary for `id`.
    pub fn summary(&self, id: EntityId) -> Option<&EntitySummary> {
        self.summaries.get(&id)
    }

    /// Entities whose normalized name/alias equals `normalized`.
    pub fn exact_matches(&self, normalized: &str) -> &[EntityId] {
        self.alias_exact
            .get(normalized)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Entities sharing the q-gram `gram` in any name.
    pub fn gram_postings(&self, gram: &str) -> &[EntityId] {
        self.gram_index.get(gram).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of summarized entities.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Iterate all summaries.
    pub fn iter(&self) -> impl Iterator<Item = &EntitySummary> {
        self.summaries.values()
    }
}

fn push_unique(v: &mut Vec<EntityId>, id: EntityId) {
    if !v.contains(&id) {
        v.push(id);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use saga_core::{intern, ExtendedTriple, FactMeta, SourceId, Value, WriteBatch};

    /// The paper's running example: two Hanovers, one near Dartmouth.
    pub(crate) fn hanover_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        // Hanover, Germany — popular (many facts / high importance).
        kg.add_named_entity(EntityId(1), "Hanover", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("description"),
            Value::str("Capital city of Lower Saxony, Germany"),
            meta(),
        ));
        kg.add_named_entity(EntityId(10), "Germany", "place", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("located_in"),
            Value::Entity(EntityId(10)),
            meta(),
        ));
        // Hanover, New Hampshire — tail entity, near Dartmouth College.
        kg.add_named_entity(EntityId(2), "Hanover", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("description"),
            Value::str("Town in New Hampshire, home of Dartmouth College"),
            meta(),
        ));
        kg.add_named_entity(
            EntityId(20),
            "Dartmouth College",
            "school",
            SourceId(1),
            0.9,
        );
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(20),
            intern("located_in"),
            Value::Entity(EntityId(2)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("located_in"),
            Value::Entity(EntityId(21)),
            meta(),
        ));
        kg.add_named_entity(EntityId(21), "New Hampshire", "place", SourceId(1), 0.9);
        kg
    }

    #[test]
    fn build_summarizes_names_types_relations() {
        let kg = hanover_kg();
        let view = NerdEntityView::build(&kg, None);
        assert_eq!(view.len(), 5);
        let s = view.summary(EntityId(2)).unwrap();
        assert_eq!(s.names, vec!["Hanover"]);
        assert_eq!(s.types, vec![intern("city")]);
        assert!(s.description.as_deref().unwrap().contains("Dartmouth"));
        assert!(s
            .relations
            .iter()
            .any(|(p, n)| *p == intern("located_in") && n == "New Hampshire"));
        assert!(s.neighbor_types.contains(&intern("place")));
    }

    #[test]
    fn exact_index_is_case_insensitive_and_multivalued() {
        let kg = hanover_kg();
        let view = NerdEntityView::build(&kg, None);
        let hits = view.exact_matches(&normalize("HANOVER"));
        assert_eq!(hits.len(), 2, "both Hanovers share the alias");
        assert!(view.exact_matches("nonexistent").is_empty());
    }

    #[test]
    fn gram_index_finds_fuzzy_candidates() {
        let kg = hanover_kg();
        let view = NerdEntityView::build(&kg, None);
        // Some 3-gram of "hanover" must post both cities.
        let g = &qgrams("hanover", 3)[2];
        let postings = view.gram_postings(g);
        assert!(postings.contains(&EntityId(1)));
        assert!(postings.contains(&EntityId(2)));
    }

    #[test]
    fn injected_importance_overrides_heuristic() {
        let kg = hanover_kg();
        let mut imp = FxHashMap::default();
        imp.insert(EntityId(1), 42.0);
        let view = NerdEntityView::build(&kg, Some(&imp));
        assert_eq!(view.summary(EntityId(1)).unwrap().importance, 42.0);
        // Missing entries fall back to heuristic (> 0).
        assert!(view.summary(EntityId(2)).unwrap().importance > 0.0);
    }

    #[test]
    fn refresh_handles_update_and_delete() {
        let mut kg = hanover_kg();
        let mut view = NerdEntityView::build(&kg, None);
        // Update: new alias for Hanover NH.
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("alias"),
            Value::str("Hanover NH"),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        view.refresh(&kg, &[EntityId(2)], None);
        assert_eq!(view.exact_matches(&normalize("Hanover NH")), &[EntityId(2)]);
        // Delete: retract the whole source drops entities from the view.
        WriteBatch::new()
            .retract_source(SourceId(1))
            .commit(&mut kg);
        let all: Vec<EntityId> = view.iter().map(|s| s.id).collect();
        view.refresh(&kg, &all, None);
        assert!(view.is_empty());
        assert!(
            view.exact_matches("hanover").is_empty(),
            "indexes cleaned up"
        );
    }
}
