//! Typed, programmatic construction of KGQ queries.
//!
//! Library callers — the intent handler, context follow-ups, embedding
//! pipelines — used to *format KGQ strings* and feed them back through the
//! parser. [`QueryBuilder`] removes that round-trip: it produces the same
//! [`Query`] AST the parser does, with the language's bounds (path depth,
//! limit clamp) enforced at build time instead of parse time, and no
//! escaping hazards when names contain quotes.
//!
//! ```
//! use saga_live::kgq::QueryBuilder;
//! use saga_core::{EntityId, Value};
//!
//! let find = QueryBuilder::find()
//!     .of_type("song")
//!     .literal("duration_s", Value::Int(261))
//!     .edge_to_id("performed_by", EntityId(1))
//!     .limit(5)
//!     .build()
//!     .unwrap();
//!
//! let get = QueryBuilder::get(EntityId(1))
//!     .hop("spouse")
//!     .hop("name")
//!     .build()
//!     .unwrap();
//! # let _ = (find, get);
//! ```

use saga_core::{EntityId, Result, SagaError, Value};

use crate::kgq::parser::{Condition, Query, Target, MAX_LIMIT, MAX_PATH_DEPTH};

/// Entry points for building [`Query`] values programmatically.
pub struct QueryBuilder;

impl QueryBuilder {
    /// Start a `FIND` (entity search) query.
    pub fn find() -> FindBuilder {
        FindBuilder {
            entity_type: None,
            conditions: Vec::new(),
            limit: 10,
        }
    }

    /// Start a `GET` (path walk) query from an entity selector.
    pub fn get(start: impl Into<Target>) -> GetBuilder {
        GetBuilder {
            start: start.into(),
            path: Vec::new(),
        }
    }
}

impl From<EntityId> for Target {
    fn from(id: EntityId) -> Target {
        Target::Id(id)
    }
}

impl From<&str> for Target {
    fn from(name: &str) -> Target {
        Target::Name(name.to_string())
    }
}

impl From<String> for Target {
    fn from(name: String) -> Target {
        Target::Name(name)
    }
}

/// Builds `FIND` queries (conjunctive entity search).
#[derive(Clone, Debug)]
pub struct FindBuilder {
    entity_type: Option<String>,
    conditions: Vec<Condition>,
    limit: usize,
}

impl FindBuilder {
    /// Restrict to an ontology type.
    #[must_use]
    pub fn of_type(mut self, ty: impl Into<String>) -> Self {
        self.entity_type = Some(ty.into());
        self
    }

    /// Full-phrase name equality (`name = "..."`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.conditions.push(Condition::NameIs(name.into()));
        self
    }

    /// Exact literal condition (`<pred> = <value>`).
    #[must_use]
    pub fn literal(mut self, pred: impl Into<String>, value: Value) -> Self {
        self.conditions.push(Condition::HasLiteral {
            pred: pred.into(),
            value,
        });
        self
    }

    /// Edge condition to a resolved entity (`<pred> -> AKG:n`).
    #[must_use]
    pub fn edge_to_id(mut self, pred: impl Into<String>, target: EntityId) -> Self {
        self.conditions.push(Condition::RelTo {
            pred: pred.into(),
            target: Target::Id(target),
        });
        self
    }

    /// Edge condition to a named entity (`<pred> -> entity("...")`),
    /// resolved at compile time against the serving backend.
    #[must_use]
    pub fn edge_to_name(mut self, pred: impl Into<String>, target: impl Into<String>) -> Self {
        self.conditions.push(Condition::RelTo {
            pred: pred.into(),
            target: Target::Name(target.into()),
        });
        self
    }

    /// Virtual-operator condition (`Op(args…)`), expanded by the engine's
    /// registry at compile time.
    #[must_use]
    pub fn virtual_op(
        mut self,
        name: impl Into<String>,
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.conditions.push(Condition::VirtualOp {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Result budget (clamped to the language bound, minimum 1).
    #[must_use]
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit.clamp(1, MAX_LIMIT);
        self
    }

    /// Finish the query. Fails on an unbounded `FIND` (no type and no
    /// conditions) — the same rule the parser enforces.
    pub fn build(self) -> Result<Query> {
        if self.entity_type.is_none() && self.conditions.is_empty() {
            return Err(SagaError::Query(
                "FIND requires a type or conditions".into(),
            ));
        }
        Ok(Query::Find {
            entity_type: self.entity_type,
            conditions: self.conditions,
            limit: self.limit,
        })
    }
}

/// Builds `GET` queries (bounded multi-hop path walks).
#[derive(Clone, Debug)]
pub struct GetBuilder {
    start: Target,
    path: Vec<String>,
}

impl GetBuilder {
    /// Append one predicate hop.
    #[must_use]
    pub fn hop(mut self, pred: impl Into<String>) -> Self {
        self.path.push(pred.into());
        self
    }

    /// Append several predicate hops.
    #[must_use]
    pub fn hops(mut self, preds: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.path.extend(preds.into_iter().map(Into::into));
        self
    }

    /// Finish the query. Fails when the path exceeds KGQ's depth bound —
    /// the same rule the parser enforces.
    pub fn build(self) -> Result<Query> {
        if self.path.len() > MAX_PATH_DEPTH {
            return Err(SagaError::Query(format!(
                "path depth {} exceeds KGQ bound {MAX_PATH_DEPTH}",
                self.path.len()
            )));
        }
        Ok(Query::Get {
            start: self.start,
            path: self.path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kgq::{parse, QueryEngine};
    use crate::store::ReplicaKg;
    use saga_core::{intern, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId};

    #[test]
    fn built_queries_match_parsed_queries() {
        let built = QueryBuilder::find()
            .of_type("city")
            .name("Springfield")
            .edge_to_name("located_in", "Illinois")
            .literal("population", Value::Int(120))
            .limit(5)
            .build()
            .unwrap();
        let parsed = parse(
            r#"FIND city WHERE name = "Springfield" AND located_in -> entity("Illinois") AND population = 120 LIMIT 5"#,
        )
        .unwrap();
        assert_eq!(built, parsed);

        let built = QueryBuilder::get(EntityId(12))
            .hop("spouse")
            .hop("name")
            .build()
            .unwrap();
        assert_eq!(built, parse("GET AKG:12 . spouse . name").unwrap());

        let built = QueryBuilder::get("Beyoncé").hop("spouse").build().unwrap();
        assert_eq!(built, parse(r#"GET "Beyoncé" . spouse"#).unwrap());
    }

    #[test]
    fn bounds_are_enforced_at_build_time() {
        assert!(QueryBuilder::find().build().is_err(), "unbounded FIND");
        let deep = QueryBuilder::get(EntityId(1))
            .hops(["a", "b", "c", "d", "e"])
            .build();
        assert!(deep.is_err(), "path depth bound");
        match QueryBuilder::find().of_type("x").limit(999_999).build() {
            Ok(Query::Find { limit, .. }) => assert_eq!(limit, MAX_LIMIT),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quotes_in_names_need_no_escaping() {
        // The string round-trip would mangle this name; the builder can't.
        let tricky = r#"The "Best" Band"#;
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), tricky, "band", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("founded"),
            Value::Int(1999),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let engine = QueryEngine::new(ReplicaKg::from_index(kg.index().clone()));
        let q = QueryBuilder::find().of_type("band").name(tricky).build();
        // Token postings are lowercased full phrases; exact-phrase lookup
        // resolves through the same posting the parser path uses.
        let r = engine.run(&q.unwrap()).unwrap();
        assert_eq!(r.entities(), &[EntityId(1)]);
        let get = QueryBuilder::get(tricky).hop("founded").build().unwrap();
        assert_eq!(engine.run(&get).unwrap().values(), &[Value::Int(1999)]);
    }

    #[test]
    fn virtual_ops_compose_with_the_builder() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Halo", "song", SourceId(1), 0.9);
        let engine = QueryEngine::new(ReplicaKg::from_index(kg.index().clone()));
        engine
            .register_virtual_op("Named", |args| Ok(vec![Condition::NameIs(args[0].clone())]))
            .unwrap();
        let q = QueryBuilder::find()
            .of_type("song")
            .virtual_op("Named", ["Halo"])
            .build()
            .unwrap();
        assert_eq!(engine.run(&q).unwrap().entities(), &[EntityId(1)]);
    }
}
