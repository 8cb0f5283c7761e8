//! Query-intent handling (§4.2).
//!
//! "The intent handler processes annotated natural language queries by
//! routing intents to potential KGQ queries based on the annotations. …
//! 'Who is the leader of Canada?' and 'Who is the leader of Chicago?' share
//! the high-level query intent … the graph queries needed to answer these
//! two queries are different. Intent routing solves this problem by
//! choosing the correct execution based on the semantics of the entities":
//! each intent maps to an ordered list of candidate predicates, and the
//! first predicate the argument entity actually carries wins.

use saga_core::{intern, EntityId, FxHashMap, GraphRead, Result, SagaError};

use crate::kgq::exec::first_named;
use crate::kgq::{QueryBuilder, QueryEngine, QueryResult};
use crate::store::ReplicaKg;

/// An annotated query intent: a name and its entity argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Intent {
    /// Intent name, e.g. `HeadOfState`, `SpouseOf`, `Birthplace`.
    pub name: String,
    /// The argument entity, by surface name or resolved id.
    pub arg: IntentArg,
}

/// How the intent's argument is given.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntentArg {
    /// Surface name to resolve through the live index.
    Name(String),
    /// Already-resolved entity.
    Id(EntityId),
}

impl Intent {
    /// Intent with a named argument.
    pub fn named(name: &str, arg: &str) -> Intent {
        Intent {
            name: name.into(),
            arg: IntentArg::Name(arg.into()),
        }
    }

    /// Intent with a resolved argument.
    pub fn resolved(name: &str, id: EntityId) -> Intent {
        Intent {
            name: name.into(),
            arg: IntentArg::Id(id),
        }
    }
}

/// Routes intents to KGQ executions over any [`GraphRead`] backend
/// (defaults to the replica store).
pub struct IntentHandler<G: GraphRead = ReplicaKg> {
    engine: QueryEngine<G>,
    routes: FxHashMap<String, Vec<String>>,
}

impl<G: GraphRead> IntentHandler<G> {
    /// A handler with the built-in intent routes.
    pub fn new(engine: QueryEngine<G>) -> Self {
        let mut routes = FxHashMap::default();
        let mut add = |intent: &str, preds: &[&str]| {
            routes.insert(
                intent.to_string(),
                preds.iter().map(|p| p.to_string()).collect(),
            );
        };
        // The paper's running example: leader-of routes by entity semantics.
        add("HeadOfState", &["prime_minister", "mayor"]);
        add("SpouseOf", &["spouse"]);
        add("Birthplace", &["birthplace"]);
        add("AgeOf", &["birthdate"]);
        add("ScoreOf", &["home_score"]);
        add("StatusOf", &["status"]);
        IntentHandler { engine, routes }
    }

    /// Register/override a route: the ordered candidate predicates.
    pub fn register_route(&mut self, intent: &str, predicates: &[&str]) {
        self.routes.insert(
            intent.to_string(),
            predicates.iter().map(|p| p.to_string()).collect(),
        );
    }

    /// The underlying query engine.
    pub fn engine(&self) -> &QueryEngine<G> {
        &self.engine
    }

    /// Resolve an intent argument to an entity.
    pub fn resolve_arg(&self, arg: &IntentArg) -> Option<EntityId> {
        self.engine.graph().read_state(|state| match arg {
            IntentArg::Id(id) => state.contains(*id).then_some(*id),
            IntentArg::Name(name) => first_named(state, name),
        })
    }

    /// Route and execute an intent. Returns the KGQ result plus the entity
    /// the argument resolved to (for context tracking).
    pub fn handle(&self, intent: &Intent) -> Result<(QueryResult, EntityId)> {
        let candidates = self.routes.get(&intent.name).ok_or_else(|| {
            SagaError::Query(format!("no route registered for intent {}", intent.name))
        })?;
        let entity = self.resolve_arg(&intent.arg).ok_or_else(|| {
            SagaError::Query(format!("intent argument {:?} did not resolve", intent.arg))
        })?;
        let record = self
            .engine
            .graph()
            .record(entity)
            .ok_or_else(|| SagaError::Query("argument entity vanished".into()))?;
        // "Only one interpretation is meaningful according to the semantics
        // encoded in the KG": pick the first predicate the entity carries.
        let predicate = candidates
            .iter()
            .find(|p| !record.values(intern(p)).is_empty())
            .ok_or_else(|| {
                SagaError::Query(format!(
                    "no meaningful interpretation of {} for {entity}",
                    intent.name
                ))
            })?;
        // Typed construction — no KGQ-string formatting round-trip.
        let query = QueryBuilder::get(entity).hop(predicate).build()?;
        Ok((self.engine.run(&query)?, entity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Value};

    fn engine() -> QueryEngine {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        kg.add_named_entity(EntityId(1), "Canada", "place", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Chicago", "city", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "The PM", "person", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(4), "The Mayor", "person", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("prime_minister"),
            Value::Entity(EntityId(3)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("mayor"),
            Value::Entity(EntityId(4)),
            meta(),
        ));
        QueryEngine::new(ReplicaKg::from_index(kg.index().clone()))
    }

    #[test]
    fn head_of_state_routes_by_entity_semantics() {
        let handler = IntentHandler::new(engine());
        // Canada → prime_minister.
        let (r1, arg1) = handler
            .handle(&Intent::named("HeadOfState", "Canada"))
            .unwrap();
        assert_eq!(arg1, EntityId(1));
        assert_eq!(r1.entities(), &[EntityId(3)]);
        // Chicago → mayor, same intent.
        let (r2, _) = handler
            .handle(&Intent::named("HeadOfState", "Chicago"))
            .unwrap();
        assert_eq!(r2.entities(), &[EntityId(4)]);
    }

    #[test]
    fn meaningless_interpretations_are_rejected() {
        let handler = IntentHandler::new(engine());
        // The PM has neither prime_minister nor mayor facts.
        let err = handler
            .handle(&Intent::named("HeadOfState", "The PM"))
            .unwrap_err();
        assert!(err.to_string().contains("no meaningful interpretation"));
    }

    #[test]
    fn unknown_intents_and_arguments_error() {
        let handler = IntentHandler::new(engine());
        assert!(handler
            .handle(&Intent::named("FavouriteColor", "Canada"))
            .is_err());
        assert!(handler
            .handle(&Intent::named("HeadOfState", "Atlantis"))
            .is_err());
    }

    #[test]
    fn resolved_id_arguments_work() {
        let handler = IntentHandler::new(engine());
        let (r, _) = handler
            .handle(&Intent::resolved("HeadOfState", EntityId(2)))
            .unwrap();
        assert_eq!(r.entities(), &[EntityId(4)]);
    }

    #[test]
    fn intents_route_over_the_stable_backend_too() {
        // Same handler logic, no live store: the stable KG serves directly.
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Canada", "place", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "The PM", "person", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("prime_minister"),
            Value::Entity(EntityId(3)),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let handler = IntentHandler::new(QueryEngine::new(kg));
        let (r, arg) = handler
            .handle(&Intent::named("HeadOfState", "Canada"))
            .unwrap();
        assert_eq!(arg, EntityId(1));
        assert_eq!(r.entities(), &[EntityId(3)]);
    }

    #[test]
    fn custom_routes_can_be_registered() {
        let mut handler = IntentHandler::new(engine());
        handler.register_route("LeaderOf", &["mayor", "prime_minister"]);
        let (r, _) = handler
            .handle(&Intent::named("LeaderOf", "Canada"))
            .unwrap();
        assert_eq!(
            r.entities(),
            &[EntityId(3)],
            "falls through mayor to prime_minister"
        );
    }
}
