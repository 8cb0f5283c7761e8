//! Entity-centric groupings of extended triples.
//!
//! Two flavours exist, mirroring the construction pipeline's phases:
//!
//! * [`EntityPayload`] — one *source* entity (subject still in the source
//!   namespace) as produced by ingestion's export stage (§2.2). These flow
//!   through blocking / matching / linking.
//! * [`EntityRecord`] — one *canonical KG* entity after fusion, owning all
//!   its extended triples keyed by its [`EntityId`].

use std::sync::Arc;

use crate::well_known;
use crate::{intern, EntityId, ExtendedTriple, RelId, SourceId, SubjectRef, Symbol, Value};

/// One source entity's payload: all extended triples sharing a subject in a
/// source namespace.
#[derive(Clone, Debug, PartialEq)]
pub struct EntityPayload {
    /// The subject — always [`SubjectRef::Source`] at ingestion time; the
    /// linker rewrites it to [`SubjectRef::Kg`] once resolved.
    pub subject: SubjectRef,
    /// The ontology type of the entity (e.g. `music_artist`), as assigned by
    /// ontology alignment. Linking groups payloads by this type.
    pub entity_type: Symbol,
    /// All facts about the entity.
    pub triples: Vec<ExtendedTriple>,
}

impl EntityPayload {
    /// Create an empty payload for a source entity.
    pub fn new(source: SourceId, local_id: impl AsRef<str>, entity_type: Symbol) -> Self {
        EntityPayload {
            subject: SubjectRef::source(source, local_id),
            entity_type,
            triples: Vec::new(),
        }
    }

    /// The source-local id, if the payload is still unlinked.
    pub fn local_id(&self) -> Option<&str> {
        match &self.subject {
            SubjectRef::Source(_, local) => Some(local),
            SubjectRef::Kg(_) => None,
        }
    }

    /// The source, if the payload is still unlinked.
    pub fn source(&self) -> Option<SourceId> {
        match &self.subject {
            SubjectRef::Source(s, _) => Some(*s),
            SubjectRef::Kg(_) => None,
        }
    }

    /// Append a simple fact; the stored subject is forced to this payload's.
    pub fn push_simple(&mut self, predicate: Symbol, object: Value, meta: crate::FactMeta) {
        self.triples.push(ExtendedTriple::simple(
            self.subject.clone(),
            predicate,
            object,
            meta,
        ));
    }

    /// Append a composite-relationship facet.
    pub fn push_composite(
        &mut self,
        predicate: Symbol,
        rel_id: RelId,
        rel_predicate: Symbol,
        object: Value,
        meta: crate::FactMeta,
    ) {
        self.triples.push(ExtendedTriple::composite(
            self.subject.clone(),
            predicate,
            rel_id,
            rel_predicate,
            object,
            meta,
        ));
    }

    /// First string value of `predicate`, if any.
    pub fn first_str(&self, predicate: Symbol) -> Option<&str> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate && t.rel.is_none())
            .find_map(|t| t.object.as_str())
    }

    /// The entity's primary name (`name` predicate).
    pub fn name(&self) -> Option<&str> {
        self.first_str(intern(well_known::NAME))
    }

    /// All alias strings (`alias` predicate).
    pub fn aliases(&self) -> Vec<&str> {
        let alias = intern(well_known::ALIAS);
        self.triples
            .iter()
            .filter(|t| t.predicate == alias)
            .filter_map(|t| t.object.as_str())
            .collect()
    }

    /// All values of a predicate (simple facts only).
    pub fn values(&self, predicate: Symbol) -> Vec<&Value> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate && t.rel.is_none())
            .map(|t| &t.object)
            .collect()
    }

    /// Rewrite the payload's subject (used by the linker after resolution).
    pub fn relink(&mut self, kg_id: EntityId) {
        let new_subject = SubjectRef::Kg(kg_id);
        for t in &mut self.triples {
            t.subject = new_subject.clone();
        }
        self.subject = new_subject;
    }
}

/// A canonical KG entity: its id and every extended triple about it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EntityRecord {
    /// Canonical id.
    pub id: EntityId,
    /// All facts; subjects are always `SubjectRef::Kg(self.id)`.
    pub triples: Vec<ExtendedTriple>,
}

impl EntityRecord {
    /// An empty record for `id`.
    pub fn new(id: EntityId) -> Self {
        EntityRecord {
            id,
            triples: Vec::new(),
        }
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.triples.len()
    }

    /// First string value of a predicate.
    pub fn first_str(&self, predicate: Symbol) -> Option<&str> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate && t.rel.is_none())
            .find_map(|t| t.object.as_str())
    }

    /// Primary name.
    pub fn name(&self) -> Option<&str> {
        self.first_str(intern(well_known::NAME))
    }

    /// All alias strings.
    pub fn aliases(&self) -> Vec<&str> {
        let alias = intern(well_known::ALIAS);
        self.triples
            .iter()
            .filter(|t| t.predicate == alias)
            .filter_map(|t| t.object.as_str())
            .collect()
    }

    /// All ontology types asserted for this entity.
    pub fn types(&self) -> Vec<Symbol> {
        let ty = intern(well_known::TYPE);
        self.triples
            .iter()
            .filter(|t| t.predicate == ty)
            .filter_map(|t| t.object.as_str().map(intern))
            .collect()
    }

    /// All values of a predicate (simple facts only).
    pub fn values(&self, predicate: Symbol) -> Vec<&Value> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate && t.rel.is_none())
            .map(|t| &t.object)
            .collect()
    }

    /// All outgoing entity references (resolved objects), with predicates.
    pub fn out_edges(&self) -> impl Iterator<Item = (Symbol, EntityId)> + '_ {
        self.triples
            .iter()
            .filter_map(|t| t.object.as_entity().map(|e| (t.predicate, e)))
    }

    /// Distinct relationship-node ids under `predicate`.
    pub fn rel_ids(&self, predicate: Symbol) -> Vec<RelId> {
        let mut ids: Vec<RelId> = self
            .triples
            .iter()
            .filter(|t| t.predicate == predicate)
            .filter_map(|t| t.rel.map(|r| r.rel_id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The facets of one relationship node, as `(facet predicate, value)`.
    pub fn rel_facets(&self, predicate: Symbol, rel_id: RelId) -> Vec<(Symbol, &Value)> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate && t.rel.map(|r| r.rel_id) == Some(rel_id))
            .map(|t| (t.rel.unwrap().rel_predicate, &t.object))
            .collect()
    }

    /// The largest relationship-node id in use for `predicate`, so fusion can
    /// mint fresh ones when adding new relationship nodes.
    pub fn max_rel_id(&self, predicate: Symbol) -> Option<RelId> {
        self.triples
            .iter()
            .filter(|t| t.predicate == predicate)
            .filter_map(|t| t.rel.map(|r| r.rel_id))
            .max()
    }

    /// Number of distinct sources contributing any fact (the "identities"
    /// importance signal, §3.3).
    pub fn identity_count(&self) -> usize {
        let mut sources: Vec<SourceId> =
            self.triples.iter().flat_map(|t| t.meta.sources()).collect();
        sources.sort_unstable();
        sources.dedup();
        sources.len()
    }

    /// Convert into an [`EntityPayload`] view (used when combining the KG
    /// view with source payloads for record linking, §2.3 step 2).
    pub fn to_payload(&self, entity_type: Symbol) -> EntityPayload {
        EntityPayload {
            subject: SubjectRef::Kg(self.id),
            entity_type,
            triples: self.triples.clone(),
        }
    }

    /// Free-text description, if any.
    pub fn description(&self) -> Option<&str> {
        self.first_str(intern(well_known::DESCRIPTION))
    }

    /// Non-destructive record-level upsert (fusion's outer-join semantics,
    /// §2.3): a fact with the same key *and the same object* absorbs the
    /// new provenance; otherwise the triple is appended as new knowledge.
    /// Returns `true` if appended.
    ///
    /// This is the one merge rule shared by the stable KG's commit path
    /// and the live store's record-level commits — a detached record is
    /// not indexed, so mutating one is always safe.
    pub fn upsert(&mut self, triple: ExtendedTriple) -> bool {
        let Some(at) = self.merge_slot(&triple) else {
            self.triples.push(triple);
            return true;
        };
        self.triples[at].meta.merge(&triple.meta);
        false
    }

    /// Position of the fact `triple` would merge into under
    /// [`upsert`](Self::upsert)'s rule, if any.
    pub(crate) fn merge_slot(&self, triple: &ExtendedTriple) -> Option<usize> {
        self.triples.iter().position(|existing| {
            existing.predicate == triple.predicate
                && existing.rel == triple.rel
                && existing.object == triple.object
        })
    }

    /// Remove `source` from the provenance of every matching fact; facts
    /// left without any provenance are removed and returned. With a
    /// predicate `filter`, only facts whose predicate is in the set are
    /// considered (the volatile-partition rule, §2.4).
    pub fn retract_source_facts(
        &mut self,
        source: SourceId,
        filter: Option<&crate::FxHashSet<Symbol>>,
    ) -> Vec<ExtendedTriple> {
        let mut dropped = Vec::new();
        self.triples.retain_mut(|t| {
            if filter.is_some_and(|preds| !preds.contains(&t.predicate)) {
                return true;
            }
            if t.meta.has_source(source) && t.meta.retract_source(source) {
                dropped.push(t.clone());
                return false;
            }
            true
        });
        dropped
    }

    /// Name plus aliases as owned strings (used by index builders).
    pub fn all_names(&self) -> Vec<Arc<str>> {
        let name = intern(well_known::NAME);
        let alias = intern(well_known::ALIAS);
        self.triples
            .iter()
            .filter(|t| t.predicate == name || t.predicate == alias)
            .filter_map(|t| match &t.object {
                Value::Str(s) => Some(Arc::clone(s)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactMeta;

    fn meta(src: u32) -> FactMeta {
        FactMeta::from_source(SourceId(src), 0.9)
    }

    fn sample_record() -> EntityRecord {
        let mut r = EntityRecord::new(EntityId(1));
        let id = EntityId(1);
        r.triples.push(ExtendedTriple::simple(
            id,
            intern("name"),
            Value::str("J. Smith"),
            meta(1),
        ));
        r.triples.push(ExtendedTriple::simple(
            id,
            intern("alias"),
            Value::str("John Smith"),
            meta(2),
        ));
        r.triples.push(ExtendedTriple::simple(
            id,
            intern("type"),
            Value::str("person"),
            meta(1),
        ));
        r.triples.push(ExtendedTriple::composite(
            id,
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(2),
        ));
        r.triples.push(ExtendedTriple::composite(
            id,
            intern("educated_at"),
            RelId(1),
            intern("degree"),
            Value::str("PhD"),
            meta(2),
        ));
        r.triples.push(ExtendedTriple::composite(
            id,
            intern("educated_at"),
            RelId(2),
            intern("school"),
            Value::str("MIT"),
            meta(3),
        ));
        r.triples.push(ExtendedTriple::simple(
            id,
            intern("spouse"),
            Value::Entity(EntityId(2)),
            meta(1),
        ));
        r
    }

    #[test]
    fn record_accessors() {
        let r = sample_record();
        assert_eq!(r.name(), Some("J. Smith"));
        assert_eq!(r.aliases(), vec!["John Smith"]);
        assert_eq!(r.types(), vec![intern("person")]);
        assert_eq!(r.fact_count(), 7);
        assert_eq!(r.identity_count(), 3);
        let edges: Vec<_> = r.out_edges().collect();
        assert_eq!(edges, vec![(intern("spouse"), EntityId(2))]);
    }

    #[test]
    fn relationship_nodes_are_grouped_by_rel_id() {
        let r = sample_record();
        let edu = intern("educated_at");
        assert_eq!(r.rel_ids(edu), vec![RelId(1), RelId(2)]);
        let facets = r.rel_facets(edu, RelId(1));
        assert_eq!(facets.len(), 2);
        assert!(facets
            .iter()
            .any(|(p, v)| *p == intern("school") && v.as_str() == Some("UW")));
        assert!(facets
            .iter()
            .any(|(p, v)| *p == intern("degree") && v.as_str() == Some("PhD")));
        assert_eq!(r.max_rel_id(edu), Some(RelId(2)));
        assert_eq!(r.max_rel_id(intern("name")), None);
    }

    #[test]
    fn payload_relink_rewrites_all_subjects() {
        let mut p = EntityPayload::new(SourceId(4), "a17", intern("music_artist"));
        p.push_simple(intern("name"), Value::str("Billie Eilish"), meta(4));
        p.push_composite(
            intern("member_of"),
            RelId(1),
            intern("band"),
            Value::source_ref("b3"),
            meta(4),
        );
        assert_eq!(p.local_id(), Some("a17"));
        assert_eq!(p.source(), Some(SourceId(4)));

        p.relink(EntityId(99));
        assert_eq!(p.subject, SubjectRef::Kg(EntityId(99)));
        assert!(p
            .triples
            .iter()
            .all(|t| t.subject == SubjectRef::Kg(EntityId(99))));
        assert_eq!(p.local_id(), None);
        assert_eq!(p.source(), None);
    }

    #[test]
    fn payload_accessors() {
        let mut p = EntityPayload::new(SourceId(1), "x", intern("person"));
        p.push_simple(intern("name"), Value::str("Ada"), meta(1));
        p.push_simple(intern("alias"), Value::str("A. Lovelace"), meta(1));
        p.push_simple(intern("born"), Value::Int(1815), meta(1));
        assert_eq!(p.name(), Some("Ada"));
        assert_eq!(p.aliases(), vec!["A. Lovelace"]);
        assert_eq!(p.values(intern("born")), vec![&Value::Int(1815)]);
        assert_eq!(p.first_str(intern("missing")), None);
    }

    #[test]
    fn all_names_includes_name_and_aliases() {
        let r = sample_record();
        let names = r.all_names();
        let texts: Vec<&str> = names.iter().map(|s| &**s).collect();
        assert_eq!(texts, vec!["J. Smith", "John Smith"]);
    }
}
