//! Live sports + question answering: the Live Graph end to end (§4, §6.1).
//!
//! Builds a stable KG (teams, venues, people), assembles the NERD stack,
//! streams live score events whose text references resolve against the
//! stable graph, then serves KGQ queries, intents and the paper's
//! multi-turn context example — including a curation hot fix.
//!
//! Run with: `cargo run --example live_sports_qa`

use std::sync::Arc;

use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, GraphWriteExt, KnowledgeGraph, SourceId, Value,
};
use saga_live::{
    ContextGraph, CurationAction, CurationPipeline, Intent, IntentHandler, LiveEvent,
    LiveGraphBuilder, LiveKg, QueryEngine,
};
use saga_ml::{ContextualDisambiguator, NerdConfig, NerdEntityView, NerdStack, StringEncoder};
use saga_ontology::default_ontology;

fn stable_kg() -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    kg.add_named_entity(
        EntityId(1),
        "Golden State Warriors",
        "sports_team",
        SourceId(1),
        0.9,
    );
    kg.add_named_entity(
        EntityId(2),
        "Los Angeles Lakers",
        "sports_team",
        SourceId(1),
        0.9,
    );
    kg.add_named_entity(EntityId(3), "Chase Center", "venue", SourceId(1), 0.9);
    kg.add_named_entity(EntityId(4), "Beyoncé", "music_artist", SourceId(1), 0.9);
    kg.add_named_entity(EntityId(5), "Jay-Z", "music_artist", SourceId(1), 0.9);
    kg.add_named_entity(EntityId(6), "Tom Hanks", "person", SourceId(1), 0.9);
    kg.add_named_entity(EntityId(7), "Rita Wilson", "person", SourceId(1), 0.9);
    kg.add_named_entity(EntityId(8), "Hollywood", "city", SourceId(1), 0.9);
    let facts = [
        (1u64, "venue", 3u64),
        (4, "spouse", 5),
        (5, "spouse", 4),
        (6, "spouse", 7),
        (7, "spouse", 6),
        (7, "birthplace", 8),
    ];
    for (s, p, o) in facts {
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(s),
            intern(p),
            Value::Entity(EntityId(o)),
            meta(),
        ));
    }
    kg
}

fn main() {
    let ontology = default_ontology();
    let kg = stable_kg();

    // The live KG is the union of a stable-graph view with live sources.
    let live = LiveKg::new(16);
    live.load_stable(&kg);

    // NERD links live text references to stable entities (§4.1).
    let nerd = Arc::new(NerdStack::new(
        NerdEntityView::build(&kg, None),
        StringEncoder::new(16, 1024, 3, 5),
        ContextualDisambiguator::default(),
        NerdConfig {
            max_candidates: 8,
            confidence_threshold: 0.25,
        },
    ));
    let builder = LiveGraphBuilder::new(live.clone(), ontology.types().clone(), Some(nerd));

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
        }]);
        println!(
            "  t={ts}: applied={} resolved_mentions={}",
            report.applied, report.mentions_resolved
        );
    }

    // Ad-hoc KGQ: "Who's winning the Warriors game?" (§6.1).
    let engine = QueryEngine::new(live);
    let game = engine
        .query(r#"FIND sports_game WHERE home_team -> entity("Golden State Warriors")"#)
        .expect("KGQ executes");
    let game_id = game.entities()[0];
    let score = engine
        .query(&format!("GET AKG:{} . home_score", game_id.0))
        .expect("score lookup");
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
    });
    let at_chase = engine
        .query(r#"FIND sports_game WHERE GamesAt("Chase Center")"#)
        .unwrap();
    println!(
        "virtual operator GamesAt(\"Chase Center\") → {} game(s)",
        at_chase.len()
    );

    // The paper's multi-turn context sequence (§4.2).
    println!("\n— multi-turn QA (context graph) —");
    let handler = IntentHandler::new(engine.clone());
    let mut ctx = ContextGraph::new();
    let a1 = ctx
        .ask(&handler, Intent::named("SpouseOf", "Beyoncé"))
        .unwrap();
    println!(
        "  Who is Beyoncé married to?  → {}",
        name_of(&engine, a1.entities()[0])
    );
    let a2 = ctx.ask_same_intent(&handler, "Tom Hanks").unwrap();
    println!(
        "  How about Tom Hanks?        → {}",
        name_of(&engine, a2.entities()[0])
    );
    let a3 = ctx.ask_about_last_answer(&handler, "Birthplace").unwrap();
    println!(
        "  Where is she from?          → {}",
        name_of(&engine, a3.entities()[0])
    );

    // Curation hot fix (§4.3): a vandalised score is corrected live.
    println!("\n— curation hot fix —");
    let curation = CurationPipeline::new(engine.graph().clone(), SourceId(99));
    let ok = curation.apply(CurationAction::EditFact {
        entity: game_id,
        predicate: "home_score".into(),
        old: Value::Int(98),
        new: Value::Int(99),
    });
    let fixed = engine
        .query(&format!("GET AKG:{} . home_score", game_id.0))
        .unwrap();
    println!(
        "  applied={ok}; corrected home score → {:?}",
        fixed.values()
    );
    println!(
        "  {} curation(s) queued for stable construction",
        curation.drain_pending().len()
    );
}

fn name_of(engine: &QueryEngine, id: EntityId) -> String {
    engine
        .graph()
        .get(id)
        .and_then(|r| r.name().map(str::to_string))
        .unwrap_or_else(|| id.to_string())
}
