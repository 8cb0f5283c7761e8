//! KGQ compilation and execution over any [`GraphRead`] backend.
//!
//! Compilation expands virtual operators, resolves edge targets to entity
//! ids, and lowers conditions directly to the unified triple index's
//! [`ProbeKey`] vocabulary — the probe path every backend (the writer's
//! graph, the replica store) lends through
//! [`read_state`](GraphRead::read_state). Execution hands a `FIND`
//! conjunction to the index's limit-aware
//! [`probe_all_limit`](TripleIndex::probe_all_limit), which plans it by
//! selectivity: an unsatisfiable probe short-circuits to an empty result
//! before any posting is materialized, and the cheapest posting drives the
//! intersection. A `GET` hop reads one predicate's values off each
//! frontier entity's indexed facts, in record order.
//!
//! Everything here past [`compile`] and [`execute`] reads one lent
//! [`TripleIndex`]: the engine runs a whole query — revalidation, compile
//! and execute — inside one `read_state`, so one answer reads one state.

use std::borrow::Cow;

use saga_core::{
    intern, EntityId, GraphRead, ProbeKey, Result, SagaError, Symbol, TripleIndex, Value,
};

use crate::kgq::parser::{Condition, Query, Target};
use crate::kgq::QueryEngine;

/// One lowered index probe: a shared [`ProbeKey`], or a condition known at
/// compile time to match nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum Probe {
    /// A satisfiable probe, lowered to the shared index vocabulary.
    Key(ProbeKey),
    /// An edge whose target did not resolve — always empty.
    Unsatisfiable,
}

impl Probe {
    /// Full-phrase name posting (lowercased).
    pub fn name(n: impl Into<String>) -> Probe {
        Probe::Key(ProbeKey::Name(n.into()))
    }

    /// Exact literal fact posting.
    pub fn literal(pred: Symbol, value: Value) -> Probe {
        Probe::Key(ProbeKey::Literal(pred, value))
    }

    /// Edge posting.
    pub fn edge(pred: Symbol, target: EntityId) -> Probe {
        Probe::Key(ProbeKey::Edge(pred, target))
    }

    /// Type posting.
    pub fn type_of(ty: Symbol) -> Probe {
        Probe::Key(ProbeKey::Type(ty))
    }
}

/// A compiled physical plan.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Probe-intersection entity search.
    Find {
        /// Lowered probes (conjunctive).
        probes: Vec<Probe>,
        /// Result budget.
        limit: usize,
    },
    /// Path walk.
    Get {
        /// Start selector.
        start: Target,
        /// Interned predicate path.
        path: Vec<Symbol>,
    },
}

/// Query results: entity hits or terminal values.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// Matching entities (FIND, or GET ending on an entity hop).
    Entities(Vec<EntityId>),
    /// Terminal literal values (GET ending on a literal predicate).
    Values(Vec<Value>),
}

impl QueryResult {
    /// The entity hits, if any.
    pub fn entities(&self) -> &[EntityId] {
        match self {
            QueryResult::Entities(e) => e,
            QueryResult::Values(_) => &[],
        }
    }

    /// The terminal values, if any.
    pub fn values(&self) -> &[Value] {
        match self {
            QueryResult::Values(v) => v,
            QueryResult::Entities(_) => &[],
        }
    }

    /// Total result cardinality.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Entities(e) => e.len(),
            QueryResult::Values(v) => v.len(),
        }
    }

    /// True if nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The edge targets a plan resolved at compile time, each with the id it
/// resolved to — the only part of a compiled plan that can go stale.
pub(crate) type Resolved = Vec<(Target, Option<EntityId>)>;

/// The first entity (lowest id) named `name` as a full phrase. A budget
/// of one reads one id, where `resolve_name(name).first()` would union
/// and materialize the whole posting; the prefix law makes the two agree.
pub(crate) fn first_named(state: &TripleIndex, name: &str) -> Option<EntityId> {
    let probe = ProbeKey::Name(name.to_lowercase());
    state.probe_all_limit(&[&probe], 1).first().copied()
}

fn resolve_target(state: &TripleIndex, target: &Target) -> Option<EntityId> {
    match target {
        Target::Id(id) => state.contains(*id).then_some(*id),
        Target::Name(name) => first_named(state, name),
    }
}

/// True if every target in `resolved` still resolves to the same id — the
/// one revalidation rule of the plan cache and of materialized views.
pub(crate) fn still_resolves(state: &TripleIndex, resolved: &[(Target, Option<EntityId>)]) -> bool {
    resolved
        .iter()
        .all(|(target, id)| resolve_target(state, target) == *id)
}

/// Compile a parsed query against the engine (expands virtual operators,
/// resolves edge targets against one state of the engine's backend).
pub fn compile<G: GraphRead>(engine: &QueryEngine<G>, query: &Query) -> Result<Plan> {
    engine
        .graph()
        .read_state(|state| compile_resolved(engine, state, query))
        .map(|(plan, _)| plan)
}

/// [`compile`] on a lent state, also returning the edge targets it
/// resolved. Everything else a `FIND` plan reads, it reads live at
/// execute time, and a `GET` resolves its start at execute time: a plan
/// with no edge targets is never stale. `engine` serves only its virtual
/// operators; its store is not read.
pub(crate) fn compile_resolved<G: GraphRead>(
    engine: &QueryEngine<G>,
    state: &TripleIndex,
    query: &Query,
) -> Result<(Plan, Resolved)> {
    let mut resolved = Resolved::new();
    let plan = match query {
        Query::Get { start, path } => Plan::Get {
            start: start.clone(),
            path: path.iter().map(|p| intern(p)).collect(),
        },
        Query::Find {
            entity_type,
            conditions,
            limit,
        } => {
            let mut probes = Vec::new();
            if let Some(ty) = entity_type {
                probes.push(Probe::type_of(intern(ty)));
            }
            // Expand virtual operators to primitive conditions first.
            let mut flat: Vec<Condition> = Vec::new();
            for c in conditions {
                match c {
                    Condition::VirtualOp { name, args } => {
                        let expanded = engine.expand_virtual(name, args)?;
                        for e in &expanded {
                            if matches!(e, Condition::VirtualOp { .. }) {
                                return Err(SagaError::Query(
                                    "virtual operators must expand to primitives".into(),
                                ));
                            }
                        }
                        flat.extend(expanded);
                    }
                    other => flat.push(other.clone()),
                }
            }
            for c in flat {
                match c {
                    Condition::NameIs(n) => probes.push(Probe::name(n.to_lowercase())),
                    Condition::HasLiteral { pred, value } => {
                        probes.push(Probe::literal(intern(&pred), value))
                    }
                    Condition::RelTo { pred, target } => {
                        let id = resolve_target(state, &target);
                        probes.push(match id {
                            Some(id) => Probe::edge(intern(&pred), id),
                            None => Probe::Unsatisfiable,
                        });
                        resolved.push((target, id));
                    }
                    Condition::VirtualOp { .. } => unreachable!("expanded above"),
                }
            }
            Plan::Find {
                probes,
                limit: *limit,
            }
        }
    };
    Ok((plan, resolved))
}

/// Execute a compiled plan against one state of a [`GraphRead`] backend.
pub fn execute<G: GraphRead>(graph: &G, plan: &Plan) -> Result<QueryResult> {
    graph.read_state(|state| execute_on(state, plan))
}

/// [`execute`] on a lent state.
pub(crate) fn execute_on(state: &TripleIndex, plan: &Plan) -> Result<QueryResult> {
    match plan {
        Plan::Find { probes, limit } => {
            if probes.is_empty() {
                return Err(SagaError::Query("unbounded FIND rejected".into()));
            }
            let keys: Option<Vec<&ProbeKey>> = probes
                .iter()
                .map(|p| match p {
                    Probe::Key(k) => Some(k),
                    Probe::Unsatisfiable => None,
                })
                .collect();
            let Some(keys) = keys else {
                return Ok(QueryResult::Entities(Vec::new()));
            };
            // Selectivity planning and the result budget are both the
            // index's contract: `probe_all_limit` drives from the
            // cheapest posting, short-circuits certainly-empty probes and
            // stops once `limit` ids are out, so neither a selectivity
            // pass nor a truncate belongs here.
            Ok(QueryResult::Entities(state.probe_all_limit(&keys, *limit)))
        }
        Plan::Get { start, path } => {
            let Some(start_id) = resolve_target(state, start) else {
                return Ok(QueryResult::Entities(Vec::new()));
            };
            if path.is_empty() {
                return Ok(QueryResult::Entities(vec![start_id]));
            }
            let mut frontier = vec![start_id];
            let mut values: Vec<Cow<'_, Value>> = Vec::new();
            for (depth, &pred) in path.iter().enumerate() {
                values.clear();
                for &id in &frontier {
                    let from = values.len();
                    values.extend(
                        state
                            .facts_of(id)
                            .filter(|&(p, _)| p == pred)
                            .map(|(_, v)| v),
                    );
                    // Record order: one predicate's values by value.
                    values[from..].sort_unstable();
                }
                if depth + 1 < path.len() {
                    frontier = values.iter().filter_map(|v| v.as_entity()).collect();
                    if frontier.is_empty() {
                        return Ok(QueryResult::Values(Vec::new()));
                    }
                }
            }
            // If every terminal value is an entity, surface entities.
            if !values.is_empty() && values.iter().all(|v| matches!(**v, Value::Entity(_))) {
                let ids = values.iter().filter_map(|v| v.as_entity()).collect();
                return Ok(QueryResult::Entities(ids));
            }
            Ok(QueryResult::Values(
                values.into_iter().map(Cow::into_owned).collect(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ReplicaKg;
    use saga_core::{Delta, DeltaFact, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId};

    fn demo_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        kg.add_named_entity(EntityId(1), "Beyoncé", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Jay-Z", "music_artist", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("spouse"),
            Value::Entity(EntityId(2)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("spouse"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg.add_named_entity(EntityId(3), "Halo", "song", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("duration_s"),
            Value::Int(261),
            meta(),
        ));
        kg.add_named_entity(EntityId(4), "Hollywood", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("birthplace"),
            Value::Entity(EntityId(4)),
            meta(),
        ));
        kg
    }

    fn demo_store() -> ReplicaKg {
        ReplicaKg::from_index(demo_kg().index().clone())
    }

    fn demo_engine() -> QueryEngine {
        QueryEngine::new(demo_store())
    }

    fn fact(predicate: &str, object: &str) -> DeltaFact {
        DeltaFact {
            predicate: intern(predicate),
            object: Value::str(object),
        }
    }

    /// The delta that asserts a named, typed entity.
    fn named(id: u64, name: &str, ty: &str) -> Delta {
        Delta {
            entity: EntityId(id),
            added: vec![fact("name", name), fact("type", ty)],
            removed: Vec::new(),
        }
    }

    /// The §4.2 KGQ scenarios executed against every backend through the
    /// one generic engine: the stable KG and the replica store.
    fn on_every_backend(check: impl Fn(&str, &dyn Fn(&str) -> Result<QueryResult>)) {
        let kg = demo_kg();
        let stable_engine = QueryEngine::new(kg.clone());
        check("stable", &|q| stable_engine.query(q));

        let live = ReplicaKg::from_index(kg.index().clone());
        let live_engine = QueryEngine::new(live);
        check("live", &|q| live_engine.query(q));
    }

    #[test]
    fn find_by_name_and_type_on_all_backends() {
        on_every_backend(|backend, query| {
            let r = query(r#"FIND music_artist WHERE name = "Beyoncé""#).unwrap();
            assert_eq!(r.entities(), &[EntityId(1)], "{backend}");
            let r2 = query(r#"FIND song WHERE performed_by -> entity("Beyoncé")"#).unwrap();
            assert_eq!(r2.entities(), &[EntityId(3)], "{backend}");
        });
    }

    #[test]
    fn find_with_literal_and_edge_conjunction_on_all_backends() {
        on_every_backend(|backend, query| {
            let r = query(r#"FIND song WHERE duration_s = 261 AND performed_by -> AKG:1"#).unwrap();
            assert_eq!(r.entities(), &[EntityId(3)], "{backend}");
            let none =
                query(r#"FIND song WHERE duration_s = 100 AND performed_by -> AKG:1"#).unwrap();
            assert!(none.is_empty(), "{backend}");
        });
    }

    #[test]
    fn get_multi_hop_paths_on_all_backends() {
        on_every_backend(|backend, query| {
            // GET "Beyoncé" . spouse → Jay-Z (entity result).
            let r = query(r#"GET "Beyoncé" . spouse"#).unwrap();
            assert_eq!(r.entities(), &[EntityId(2)], "{backend}");
            // Two hops ending on a literal.
            let r2 = query(r#"GET "Beyoncé" . spouse . name"#).unwrap();
            assert_eq!(r2.values(), &[Value::str("Jay-Z")], "{backend}");
            // Three hops: spouse → birthplace → name.
            let r3 = query(r#"GET AKG:1 . spouse . birthplace . name"#).unwrap();
            assert_eq!(r3.values(), &[Value::str("Hollywood")], "{backend}");
        });
    }

    #[test]
    fn unresolved_targets_yield_empty_not_error() {
        let eng = demo_engine();
        let r = eng
            .query(r#"FIND song WHERE performed_by -> entity("Nobody Here")"#)
            .unwrap();
        assert!(r.is_empty());
        let r2 = eng.query(r#"GET "Nobody Here" . name"#).unwrap();
        assert!(r2.is_empty());
    }

    #[test]
    fn virtual_operators_expand_and_execute() {
        let eng = demo_engine();
        eng.register_virtual_op("ByArtist", |args| {
            let artist = args
                .first()
                .ok_or_else(|| SagaError::Query("ByArtist needs an artist".into()))?;
            Ok(vec![Condition::RelTo {
                pred: "performed_by".into(),
                target: Target::Name(artist.clone()),
            }])
        })
        .unwrap();
        let r = eng.query(r#"FIND song WHERE ByArtist("Beyoncé")"#).unwrap();
        assert_eq!(r.entities(), &[EntityId(3)]);
        // Unknown operator is a query error.
        assert!(eng.query(r#"FIND song WHERE Nope("x")"#).is_err());
    }

    #[test]
    fn a_registered_virtual_op_cannot_be_overwritten() {
        // Cached plans hold the expansion of the definition they were
        // compiled with, so a second definition under the same name would
        // leave them answering with the first one.
        let eng = demo_engine();
        let songs = |_: &[String]| Ok(vec![Condition::NameIs("Halo".into())]);
        eng.register_virtual_op("Pick", songs).unwrap();
        let q = r#"FIND song WHERE Pick("x")"#;
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        let err = eng
            .register_virtual_op("Pick", |_| Ok(vec![Condition::NameIs("Jay-Z".into())]))
            .unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(
            eng.run(&crate::kgq::parse(q).unwrap()).unwrap().entities(),
            &[EntityId(3)],
            "a fresh compile expands the one definition too"
        );
    }

    #[test]
    fn plan_cache_hits_and_invalidation() {
        let eng = demo_engine();
        assert_eq!(eng.cached_plans(), 0);
        eng.query(r#"FIND song WHERE duration_s = 261"#).unwrap();
        eng.query(r#"FIND song WHERE duration_s = 261"#).unwrap();
        assert_eq!(eng.cached_plans(), 1, "identical text compiles once");
        eng.invalidate_plans();
        assert_eq!(eng.cached_plans(), 0);
    }

    #[test]
    fn unrelated_writes_keep_plans_warm() {
        // A cached plan re-checks only the edge targets it resolved: its
        // postings are read live at execute time, so no write to them
        // can make it stale.
        let live = demo_store();
        let eng = QueryEngine::new(live.clone());
        let q = r#"FIND song WHERE performed_by -> entity("Beyoncé")"#;
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(eng.plan_cache_stats(), (0, 1), "cold compile");
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(eng.plan_cache_stats(), (1, 1), "warm hit");

        // An unrelated upsert: different name, type and predicates.
        live.apply(&[named(99, "Zed", "city")]);
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(
            eng.plan_cache_stats(),
            (2, 1),
            "unrelated write left the plan warm"
        );

        // A write into a posting the plan reads (the song type probe)
        // keeps it warm too; execution sees the new member live.
        live.apply(&[named(98, "Encore", "song")]);
        live.apply(&[Delta {
            entity: EntityId(98),
            added: vec![DeltaFact {
                predicate: intern("performed_by"),
                object: Value::Entity(EntityId(1)),
            }],
            removed: Vec::new(),
        }]);
        assert_eq!(
            eng.query(q).unwrap().entities(),
            &[EntityId(3), EntityId(98)]
        );
        assert_eq!(eng.plan_cache_stats(), (3, 1), "no recompile");
    }

    #[test]
    fn stale_plans_recompile_after_writes() {
        // A plan that resolved an edge target by name must see a renamed
        // target: the hit re-resolves the name and finds it moved.
        let live = demo_store();
        let eng = QueryEngine::new(live.clone());
        let q = r#"FIND song WHERE performed_by -> entity("Beyoncé")"#;
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        // Rename the target: the cached compile-time resolution is stale.
        live.apply(&[Delta {
            entity: EntityId(1),
            added: vec![fact("name", "Queen B")],
            removed: vec![fact("name", "Beyoncé")],
        }]);
        assert!(
            eng.query(q).unwrap().is_empty(),
            "the old name no longer resolves"
        );
        assert_eq!(
            eng.query(r#"FIND song WHERE performed_by -> entity("Queen B")"#)
                .unwrap()
                .entities(),
            &[EntityId(3)]
        );
    }

    #[test]
    fn id_targets_recheck_that_the_entity_exists() {
        let live = demo_store();
        let eng = QueryEngine::new(live.clone());
        let q = r#"FIND song WHERE performed_by -> AKG:1"#;
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        // Entity 1 goes: the edge from song 3 stays, but `AKG:1` no longer
        // resolves, so the plan recompiles to an unsatisfiable probe.
        let beyonce = Delta {
            entity: EntityId(1),
            added: Vec::new(),
            removed: live
                .record(EntityId(1))
                .unwrap()
                .triples
                .iter()
                .map(|t| DeltaFact {
                    predicate: t.predicate,
                    object: t.object.clone(),
                })
                .collect(),
        };
        live.apply(std::slice::from_ref(&beyonce));
        assert!(eng.query(q).unwrap().is_empty());
        assert_eq!(
            eng.plan_cache_stats(),
            (0, 2),
            "moved resolution recompiled"
        );
        live.apply(&[Delta {
            entity: EntityId(1),
            added: beyonce.removed.clone(),
            removed: Vec::new(),
        }]);
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(eng.plan_cache_stats(), (0, 3));
        assert_eq!(eng.query(q).unwrap().entities(), &[EntityId(3)]);
        assert_eq!(eng.plan_cache_stats(), (1, 3));
    }

    #[test]
    fn first_named_is_the_head_of_resolve_name_on_every_backend() {
        let kg = demo_kg();
        // A second "Jay-Z" (a name added to Halo) above the first in id
        // order, so that name's posting holds two ids.
        let mut two_named = kg.clone();
        two_named.add_named_entity(EntityId(3), "Jay-Z", "song", SourceId(2), 0.9);
        let live = ReplicaKg::from_index(two_named.index().clone());
        let names = ["Beyoncé", "jay-z", "Halo", "Hollywood", "Nobody"];
        for name in names {
            assert_eq!(
                first_named(kg.index(), name),
                kg.resolve_name(name).first().copied()
            );
            assert_eq!(
                live.read_state(|state| first_named(state, name)),
                live.resolve_name(name).first().copied(),
                "{name}"
            );
        }
        assert_eq!(live.resolve_name("Jay-Z"), vec![EntityId(2), EntityId(3)]);
        assert_eq!(
            live.read_state(|state| first_named(state, "Jay-Z")),
            Some(EntityId(2))
        );
    }

    #[test]
    fn get_without_path_returns_the_entity() {
        let eng = demo_engine();
        let r = eng.query(r#"GET AKG:1"#).unwrap();
        assert_eq!(r.entities(), &[EntityId(1)]);
    }
}
