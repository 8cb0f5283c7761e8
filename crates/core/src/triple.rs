//! The extended-triples representation (§2.1, Table 1).
//!
//! A plain RDF triple is `<subject, predicate, object>`. Saga extends it in
//! two ways:
//!
//! 1. **Composite relationships**: a one-hop relationship node (e.g. the
//!    `education` object linking a person to `school`/`degree`/`year`) is
//!    flattened into the subject's own records via the `(r_id, r_predicate)`
//!    columns, so frequently-used one-hop data is retrievable without a
//!    self-join or graph traversal.
//! 2. **Metadata**: provenance (`sources`), `locale` and `trust`, carried in
//!    [`FactMeta`].

use std::fmt;
use std::sync::Arc;

use crate::{EntityId, FactMeta, RelId, SourceId, Symbol, Value};

/// The subject of a triple: either a canonical KG entity or an entity still
/// in an upstream source's namespace (pre-linking).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum SubjectRef {
    /// A canonical KG entity.
    Kg(EntityId),
    /// A source entity, identified by `(source, local id)`. The local id is
    /// the mandatory unique ID predicate enforced by the data transformer
    /// (§2.2) — it is what makes incremental construction possible.
    Source(SourceId, Arc<str>),
}

impl SubjectRef {
    /// Shorthand for a source-namespace subject.
    pub fn source(source: SourceId, local: impl AsRef<str>) -> SubjectRef {
        SubjectRef::Source(source, Arc::from(local.as_ref()))
    }

    /// The KG entity id, if already linked.
    pub fn as_kg(&self) -> Option<EntityId> {
        match self {
            SubjectRef::Kg(id) => Some(*id),
            SubjectRef::Source(..) => None,
        }
    }

    /// True if this subject still lives in a source namespace.
    pub fn is_source(&self) -> bool {
        matches!(self, SubjectRef::Source(..))
    }
}

impl fmt::Display for SubjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubjectRef::Kg(id) => write!(f, "{id}"),
            SubjectRef::Source(s, l) => write!(f, "{s}:{l}"),
        }
    }
}

impl From<EntityId> for SubjectRef {
    fn from(id: EntityId) -> SubjectRef {
        SubjectRef::Kg(id)
    }
}

/// The relationship-node part of an extended triple: which composite node
/// (`r_id`) the fact belongs to and which facet (`r_predicate`) it fills.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RelPart {
    /// Relationship node id, scoped to `(subject, predicate)`.
    pub rel_id: RelId,
    /// Facet predicate inside the relationship node (e.g. `school`).
    pub rel_predicate: Symbol,
}

/// One row of the extended-triples table (Table 1 of the paper).
#[derive(Clone, PartialEq, Debug)]
pub struct ExtendedTriple {
    /// The entity the fact is about.
    pub subject: SubjectRef,
    /// Top-level predicate (e.g. `name`, `educated_at`).
    pub predicate: Symbol,
    /// Present iff the fact is a facet of a composite relationship node.
    pub rel: Option<RelPart>,
    /// Literal value or entity reference.
    pub object: Value,
    /// Provenance / locale / trust metadata.
    pub meta: FactMeta,
}

// Records, wire batches and undo logs hold these by the hundred thousand.
const _: () = assert!(std::mem::size_of::<ExtendedTriple>() == 88);

impl ExtendedTriple {
    /// A simple (non-composite) fact.
    pub fn simple(
        subject: impl Into<SubjectRef>,
        predicate: Symbol,
        object: Value,
        meta: FactMeta,
    ) -> ExtendedTriple {
        ExtendedTriple {
            subject: subject.into(),
            predicate,
            rel: None,
            object,
            meta,
        }
    }

    /// A facet of a composite relationship node.
    pub fn composite(
        subject: impl Into<SubjectRef>,
        predicate: Symbol,
        rel_id: RelId,
        rel_predicate: Symbol,
        object: Value,
        meta: FactMeta,
    ) -> ExtendedTriple {
        ExtendedTriple {
            subject: subject.into(),
            predicate,
            rel: Some(RelPart {
                rel_id,
                rel_predicate,
            }),
            object,
            meta,
        }
    }

    /// The logical identity of the fact, excluding object and metadata.
    ///
    /// Fusion's outer join matches KG facts and source facts on this key
    /// plus the object value.
    pub fn key(&self) -> TripleKey {
        TripleKey {
            subject: self.subject.clone(),
            predicate: self.predicate,
            rel: self.rel,
        }
    }

    /// True if the fact is a facet of a composite relationship.
    pub fn is_composite(&self) -> bool {
        self.rel.is_some()
    }

    /// Render as a Table 1-style row: `subj | predicate | r_id | r_pred | obj`.
    pub fn render_row(&self) -> String {
        let (rid, rpred) = match self.rel {
            Some(RelPart {
                rel_id,
                rel_predicate,
            }) => (rel_id.to_string(), rel_predicate.to_string()),
            None => (String::new(), String::new()),
        };
        let locale = self.meta.locale.map(|l| l.to_string()).unwrap_or_default();
        let sources: Vec<String> = self.meta.sources().map(|s| s.to_string()).collect();
        let trust: Vec<String> = self
            .meta
            .provenance
            .iter()
            .map(|st| format!("{:.1}", st.trust))
            .collect();
        format!(
            "{} | {} | {} | {} | {} | {} | [{}] | [{}]",
            self.subject,
            self.predicate,
            rid,
            rpred,
            self.object.render(),
            locale,
            sources.join(", "),
            trust.join(", ")
        )
    }
}

/// Logical fact identity used by fusion and delta computation: subject,
/// predicate and (for composite facts) the relationship facet.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TripleKey {
    /// Subject of the fact.
    pub subject: SubjectRef,
    /// Top-level predicate.
    pub predicate: Symbol,
    /// Relationship facet, if composite.
    pub rel: Option<RelPart>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;

    fn meta() -> FactMeta {
        FactMeta::localized(SourceId(2), 0.8, "en")
    }

    /// Reproduces the exact example of Table 1 / Figure 2 of the paper.
    #[test]
    fn table1_example_renders_as_in_the_paper() {
        let e1 = EntityId(1);
        let name = ExtendedTriple::simple(
            e1,
            intern("name"),
            Value::str("J. Smith"),
            FactMeta {
                provenance: vec![
                    crate::SourceTrust {
                        source: SourceId(1),
                        trust: 0.9,
                    },
                    crate::SourceTrust {
                        source: SourceId(2),
                        trust: 0.8,
                    },
                ]
                .into(),
                locale: Some(intern("en")),
            },
        );
        let school = ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(),
        );
        let degree = ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("degree"),
            Value::str("PhD"),
            meta(),
        );
        let year = ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("year"),
            Value::Int(2005),
            meta(),
        );

        assert_eq!(
            name.render_row(),
            "AKG:1 | name |  |  | J. Smith | en | [src1, src2] | [0.9, 0.8]"
        );
        assert_eq!(
            school.render_row(),
            "AKG:1 | educated_at | r1 | school | UW | en | [src2] | [0.8]"
        );
        assert_eq!(
            degree.render_row(),
            "AKG:1 | educated_at | r1 | degree | PhD | en | [src2] | [0.8]"
        );
        assert_eq!(
            year.render_row(),
            "AKG:1 | educated_at | r1 | year | 2005 | en | [src2] | [0.8]"
        );
        // All three facets share one relationship node.
        assert_eq!(school.rel.unwrap().rel_id, degree.rel.unwrap().rel_id);
        assert_eq!(degree.rel.unwrap().rel_id, year.rel.unwrap().rel_id);
    }

    #[test]
    fn key_ignores_object_and_meta() {
        let e1 = EntityId(1);
        let a = ExtendedTriple::simple(e1, intern("name"), Value::str("A"), meta());
        let b = ExtendedTriple::simple(e1, intern("name"), Value::str("B"), FactMeta::default());
        assert_eq!(a.key(), b.key());
        let c = ExtendedTriple::simple(e1, intern("alias"), Value::str("A"), meta());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn composite_and_simple_have_distinct_keys() {
        let e1 = EntityId(1);
        let simple = ExtendedTriple::simple(e1, intern("p"), Value::Int(1), meta());
        let comp = ExtendedTriple::composite(
            e1,
            intern("p"),
            RelId(1),
            intern("facet"),
            Value::Int(1),
            meta(),
        );
        assert_ne!(simple.key(), comp.key());
        assert!(comp.is_composite());
        assert!(!simple.is_composite());
    }

    #[test]
    fn subject_ref_accessors() {
        let kg = SubjectRef::Kg(EntityId(5));
        assert_eq!(kg.as_kg(), Some(EntityId(5)));
        assert!(!kg.is_source());
        let src = SubjectRef::source(SourceId(1), "m42");
        assert_eq!(src.as_kg(), None);
        assert!(src.is_source());
        assert_eq!(src.to_string(), "src1:m42");
    }
}
