//! Live sports + question answering: the Live Graph end to end (§4, §6.1).
//!
//! Builds a stable KG (teams, venues, people) through a write-ahead
//! `LoggedWriter`, assembles the NERD stack, streams live score events
//! whose text references resolve against the stable graph, then serves
//! KGQ queries, intents and the paper's multi-turn context example —
//! including a curation hot fix. Stable construction, live events and
//! curations all commit through the one writer, and serving reads a
//! replica that follows its log.
//!
//! Run with: `cargo run --example live_sports_qa`

use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, GraphRead, KnowledgeGraph, Result, SourceId, Value,
    WriteBatch,
};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_live::{
    ContextGraph, CurationAction, CurationPipeline, Intent, IntentHandler, LiveEvent,
    LiveGraphBuilder, LiveReplica, QueryEngine,
};
use saga_ml::{ContextualDisambiguator, NerdConfig, NerdEntityView, NerdStack, StringEncoder};
use saga_ontology::default_ontology;

fn stable_graph() -> WriteBatch {
    let mut batch = WriteBatch::new();
    for (id, name, ty) in [
        (1u64, "Golden State Warriors", "sports_team"),
        (2, "Los Angeles Lakers", "sports_team"),
        (3, "Chase Center", "venue"),
        (4, "Beyoncé", "music_artist"),
        (5, "Jay-Z", "music_artist"),
        (6, "Tom Hanks", "person"),
        (7, "Rita Wilson", "person"),
        (8, "Hollywood", "city"),
    ] {
        batch = batch.named_entity(EntityId(id), name, ty, SourceId(1), 0.9);
    }
    for (s, p, o) in [
        (1u64, "venue", 3u64),
        (4, "spouse", 5),
        (5, "spouse", 4),
        (6, "spouse", 7),
        (7, "spouse", 6),
        (7, "birthplace", 8),
    ] {
        batch = batch.upsert(ExtendedTriple::simple(
            EntityId(s),
            intern(p),
            Value::Entity(EntityId(o)),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
    }
    batch
}

fn main() -> Result<()> {
    let ontology = default_ontology();

    // One log: stable construction, live sources and curations all commit
    // through this writer (§3.1).
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    writer.commit(OpKind::Upsert, stable_graph())?;

    // Serving reads a replica following that log: the live KG is the
    // union of a stable-graph view with live sources (§4.1).
    let mut replica = LiveReplica::new(16, Arc::clone(writer.log()));

    // NERD links live text references to stable entities (§4.1).
    let nerd = Arc::new(NerdStack::new(
        NerdEntityView::build(&writer.read(), None),
        StringEncoder::new(16, 1024, 3, 5),
        ContextualDisambiguator::default(),
        NerdConfig {
            max_candidates: 8,
            confidence_threshold: 0.25,
        },
    ));
    let builder = LiveGraphBuilder::new(writer.clone(), ontology.types().clone(), Some(nerd));

    // A stream of score updates (seconds-level freshness, §1).
    println!("— streaming live score events —");
    for (ts, home, away, period) in [
        (1u64, 12i64, 9i64, "Q1"),
        (2, 55, 51, "Q2"),
        (3, 98, 92, "Q4"),
    ] {
        let report = builder.apply(&[LiveEvent {
            source: SourceId(50),
            event_id: "Warriors vs Lakers".into(),
            entity_type: "sports_game".into(),
            facts: vec![
                ("home_score".into(), Value::Int(home)),
                ("away_score".into(), Value::Int(away)),
                ("status".into(), Value::str(period)),
            ],
            mentions: vec![
                (
                    "home_team".into(),
                    "Golden State Warriors".into(),
                    Some("sports_team".into()),
                ),
                (
                    "away_team".into(),
                    "Los Angeles Lakers".into(),
                    Some("sports_team".into()),
                ),
                ("venue".into(), "Chase Center".into(), Some("venue".into())),
            ],
            timestamp: ts,
        }])?;
        println!(
            "  t={ts}: applied={} resolved_mentions={}",
            report.applied, report.mentions_resolved
        );
    }
    replica.catch_up()?;

    // Ad-hoc KGQ: "Who's winning the Warriors game?" (§6.1).
    let engine = QueryEngine::new(replica.live().clone());
    let game =
        engine.query(r#"FIND sports_game WHERE home_team -> entity("Golden State Warriors")"#)?;
    assert_eq!(game.len(), 1, "the Warriors game is served");
    let game_id = game.entities()[0];
    let score = engine.query(&format!("GET AKG:{} . home_score", game_id.0))?;
    println!(
        "\nKGQ: Warriors game {} → home score {:?}",
        game_id,
        score.values()
    );

    // Virtual operators: encapsulate the lookup for reuse (§4.2).
    engine.register_virtual_op("GamesAt", |args| {
        let venue = args.first().cloned().unwrap_or_default();
        Ok(vec![saga_live::kgq::Condition::RelTo {
            pred: "venue".into(),
            target: saga_live::kgq::Target::Name(venue),
        }])
    })?;
    let at_chase = engine.query(r#"FIND sports_game WHERE GamesAt("Chase Center")"#)?;
    println!(
        "virtual operator GamesAt(\"Chase Center\") → {} game(s)",
        at_chase.len()
    );

    // The paper's multi-turn context sequence (§4.2).
    println!("\n— multi-turn QA (context graph) —");
    let handler = IntentHandler::new(engine.clone());
    let mut ctx = ContextGraph::new();
    let a1 = ctx.ask(&handler, Intent::named("SpouseOf", "Beyoncé"))?;
    println!(
        "  Who is Beyoncé married to?  → {}",
        name_of(&engine, a1.entities()[0])
    );
    let a2 = ctx.ask_same_intent(&handler, "Tom Hanks")?;
    println!(
        "  How about Tom Hanks?        → {}",
        name_of(&engine, a2.entities()[0])
    );
    let a3 = ctx.ask_about_last_answer(&handler, "Birthplace")?;
    println!(
        "  Where is she from?          → {}",
        name_of(&engine, a3.entities()[0])
    );

    // Curation hot fix (§4.3): a vandalised score is corrected live.
    println!("\n— curation hot fix —");
    let curation = CurationPipeline::new(writer, SourceId(99));
    let commit = curation.apply(CurationAction::EditFact {
        entity: game_id,
        predicate: "home_score".into(),
        old: Value::Int(98),
        new: Value::Int(99),
    })?;
    replica.catch_up()?;
    let fixed = engine.query(&format!("GET AKG:{} . home_score", game_id.0))?;
    println!(
        "  applied={}; corrected home score → {:?}",
        commit.is_some(),
        fixed.values()
    );
    let queued = curation.drain_pending().len();
    println!("  {queued} curation(s) queued for stable construction");
    assert_eq!(fixed.values(), &[Value::Int(99)], "the hot fix is served");
    assert_eq!(queued, 1, "the hit is queued for stable construction");
    Ok(())
}

fn name_of(engine: &QueryEngine, id: EntityId) -> String {
    engine
        .graph()
        .record(id)
        .and_then(|r| r.name().map(str::to_string))
        .unwrap_or_else(|| id.to_string())
}
