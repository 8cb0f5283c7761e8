//! The context graph for multi-turn interactions (§4.2).
//!
//! "The Live KG Query Engine also maintains a context graph and intents
//! from previous queries to support follow-up queries." The engine can
//! bind a follow-up's parameters from prior turns:
//!
//! * "How about Tom Hanks?" — reuse the previous *intent* with a new
//!   argument;
//! * "Where is she from?" — new intent whose argument is the previous
//!   *answer* entity.

use saga_core::{EntityId, GraphRead, Result, SagaError};

use crate::intent::{Intent, IntentArg, IntentHandler};
use crate::kgq::QueryResult;

/// One completed interaction turn.
#[derive(Clone, Debug)]
pub struct Turn {
    /// The executed intent name.
    pub intent: String,
    /// The resolved argument entity.
    pub arg: EntityId,
    /// Answer entities (empty when the answer was literal values).
    pub answers: Vec<EntityId>,
}

/// Rolling multi-turn context.
#[derive(Clone, Debug, Default)]
pub struct ContextGraph {
    turns: Vec<Turn>,
}

impl ContextGraph {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded turns.
    pub fn len(&self) -> usize {
        self.turns.len()
    }

    /// True if no turns yet.
    pub fn is_empty(&self) -> bool {
        self.turns.is_empty()
    }

    /// The most recent turn.
    pub fn last(&self) -> Option<&Turn> {
        self.turns.last()
    }

    /// The most recent *answer* entity — what pronouns refer to.
    pub fn last_answer(&self) -> Option<EntityId> {
        self.turns
            .iter()
            .rev()
            .find_map(|t| t.answers.first().copied())
    }

    /// The most recent intent name.
    pub fn last_intent(&self) -> Option<&str> {
        self.turns.last().map(|t| t.intent.as_str())
    }

    /// Execute a fresh intent, recording the turn. Generic over the
    /// handler's [`GraphRead`] backend — multi-turn context works the same
    /// over the writer's graph, a replica, or the fleet.
    pub fn ask<G: GraphRead>(
        &mut self,
        handler: &IntentHandler<G>,
        intent: Intent,
    ) -> Result<QueryResult> {
        let (result, arg) = handler.handle(&intent)?;
        self.turns.push(Turn {
            intent: intent.name,
            arg,
            answers: result.entities().to_vec(),
        });
        Ok(result)
    }

    /// "How about X?" — previous intent, new argument.
    pub fn ask_same_intent<G: GraphRead>(
        &mut self,
        handler: &IntentHandler<G>,
        arg: &str,
    ) -> Result<QueryResult> {
        let intent_name = self
            .last_intent()
            .ok_or_else(|| SagaError::Query("no prior intent in context".into()))?
            .to_string();
        self.ask(handler, Intent::named(&intent_name, arg))
    }

    /// "Where is she from?" — new intent, argument bound to the previous
    /// answer entity from the context graph.
    pub fn ask_about_last_answer<G: GraphRead>(
        &mut self,
        handler: &IntentHandler<G>,
        intent_name: &str,
    ) -> Result<QueryResult> {
        let referent = self
            .last_answer()
            .ok_or_else(|| SagaError::Query("no referent entity in context".into()))?;
        self.ask(
            handler,
            Intent {
                name: intent_name.into(),
                arg: IntentArg::Id(referent),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kgq::QueryEngine;
    use crate::store::ReplicaKg;
    use saga_core::{intern, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Value};

    /// The exact multi-turn example of §4.2.
    fn handler() -> IntentHandler {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        kg.add_named_entity(EntityId(1), "Beyoncé", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Jay-Z", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Tom Hanks", "person", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(4), "Rita Wilson", "person", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(5), "Hollywood", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("spouse"),
            Value::Entity(EntityId(2)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("spouse"),
            Value::Entity(EntityId(4)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(4),
            intern("birthplace"),
            Value::Entity(EntityId(5)),
            meta(),
        ));
        IntentHandler::new(QueryEngine::new(ReplicaKg::from_index(kg.index().clone())))
    }

    #[test]
    fn the_papers_beyonce_tom_hanks_rita_wilson_sequence() {
        let handler = handler();
        let mut ctx = ContextGraph::new();
        // Q: Who is Beyoncé married to?  → SpouseOf(Beyoncé) → Jay-Z
        let a1 = ctx
            .ask(&handler, Intent::named("SpouseOf", "Beyoncé"))
            .unwrap();
        assert_eq!(a1.entities(), &[EntityId(2)]);
        // Q: How about Tom Hanks?       → SpouseOf(Tom Hanks) → Rita Wilson
        let a2 = ctx.ask_same_intent(&handler, "Tom Hanks").unwrap();
        assert_eq!(a2.entities(), &[EntityId(4)]);
        // Q: Where is she from?         → Birthplace(Rita Wilson) → Hollywood
        let a3 = ctx.ask_about_last_answer(&handler, "Birthplace").unwrap();
        assert_eq!(a3.entities(), &[EntityId(5)]);
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.last().unwrap().intent, "Birthplace");
    }

    #[test]
    fn multi_turn_context_works_over_an_overlay_backend() {
        use crate::LiveReplica;
        use parking_lot::RwLock;
        use saga_core::WriteBatch;
        use saga_graph::{LoggedWriter, OpKind, OperationLog};
        use std::sync::Arc;
        // The stable graph knows the spouse; a live hot fix adds the
        // birthplace. Both commit through one writer, and the same context
        // flow spans them on a replica of its log.
        let writer = LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::new(OperationLog::in_memory()),
        );
        let stable = WriteBatch::new()
            .named_entity(EntityId(3), "Tom Hanks", "person", SourceId(1), 0.9)
            .named_entity(EntityId(4), "Rita Wilson", "person", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(3),
                intern("spouse"),
                Value::Entity(EntityId(4)),
                FactMeta::from_source(SourceId(1), 0.9),
            ));
        writer.commit(OpKind::Upsert, stable).unwrap();
        let fix = WriteBatch::new()
            .upsert(ExtendedTriple::simple(
                EntityId(4),
                intern("birthplace"),
                Value::Entity(EntityId(5)),
                FactMeta::from_source(SourceId(2), 0.95),
            ))
            .named_entity(EntityId(5), "Hollywood", "city", SourceId(2), 0.95);
        writer.commit(OpKind::Upsert, fix).unwrap();
        let mut replica = LiveReplica::new(2, Arc::clone(writer.log()));
        replica.catch_up().unwrap();

        let handler = IntentHandler::new(QueryEngine::new(replica));
        let mut ctx = ContextGraph::new();
        let a1 = ctx
            .ask(&handler, Intent::named("SpouseOf", "Tom Hanks"))
            .unwrap();
        assert_eq!(a1.entities(), &[EntityId(4)]);
        // The birthplace exists only in the live hot fix.
        let a2 = ctx.ask_about_last_answer(&handler, "Birthplace").unwrap();
        assert_eq!(a2.entities(), &[EntityId(5)]);
    }

    #[test]
    fn followups_without_context_error() {
        let handler = handler();
        let mut ctx = ContextGraph::new();
        assert!(ctx.ask_same_intent(&handler, "Tom Hanks").is_err());
        assert!(ctx.ask_about_last_answer(&handler, "Birthplace").is_err());
    }

    #[test]
    fn last_answer_skips_valueless_turns() {
        let handler = handler();
        let mut ctx = ContextGraph::new();
        ctx.ask(&handler, Intent::named("SpouseOf", "Beyoncé"))
            .unwrap();
        // A failing ask must not corrupt context.
        assert!(ctx
            .ask(&handler, Intent::named("SpouseOf", "Nobody"))
            .is_err());
        assert_eq!(ctx.last_answer(), Some(EntityId(2)));
        assert_eq!(ctx.len(), 1);
    }
}
