//! Multi-source music catalog: the full continuous-construction loop.
//!
//! Two providers (one clean, one noisy with typos/nicknames/duplicates)
//! publish overlapping artist catalogs. We run two ingestion+construction
//! cycles — onboarding, then an incremental update — and then compute
//! Graph Engine views (importance, production views) over the result.
//!
//! Run with: `cargo run --example music_catalog`

use std::sync::Arc;

use parking_lot::RwLock;
use saga_construct::{KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch};
use saga_core::{IdGenerator, KnowledgeGraph, SourceId};
use saga_graph::production_views::ProductionView;
use saga_graph::{
    compute_importance, AnalyticsStore, ImportanceConfig, LegacyEngine, LoggedWriter, OperationLog,
};
use saga_ingest::synth::{artist_alignment, provider_datasets, MusicWorld, ProviderSpec};
use saga_ingest::{DataTransformer, SourceIngestionPipeline, TransformSpec};
use saga_ontology::default_ontology;

fn main() {
    let ontology = default_ontology();
    let mut world = MusicWorld::generate(42, 120, 3);
    println!(
        "ground truth: {} artists, {} songs",
        world.artists.len(),
        world.songs.len()
    );

    // Two providers over the same ground truth, different noise profiles.
    let providers = vec![
        (ProviderSpec::clean(1, "clean_"), SourceId(1), "clean-feed"),
        (ProviderSpec::noisy(2, "noisy_"), SourceId(2), "noisy-feed"),
    ];
    // Each provider publishes two artifacts sharing one source namespace:
    // artists (joined with popularity) and songs referencing artists.
    let mut pipelines: Vec<(
        ProviderSpec,
        SourceIngestionPipeline,
        SourceIngestionPipeline,
    )> = providers
        .into_iter()
        .map(|(spec, source, name)| {
            let artists = SourceIngestionPipeline::new(
                source,
                format!("{name}/artists"),
                DataTransformer::new(TransformSpec::simple("artist_id").join(
                    1,
                    "artist_id",
                    "artist_id",
                )),
                artist_alignment(0.9),
            );
            let songs = SourceIngestionPipeline::new(
                source,
                format!("{name}/songs"),
                DataTransformer::new(TransformSpec::simple("song_id")),
                saga_ingest::synth::song_alignment(0.85),
            );
            (spec, artists, songs)
        })
        .collect();

    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let id_gen = IdGenerator::starting_at(1);
    let constructor = KnowledgeConstructor::new(ontology.volatile_predicates());

    for cycle in 0..2 {
        if cycle > 0 {
            // The world evolves: new artists appear, songs are retitled.
            world.evolve(10, 0.05, 0.02);
        }
        let mut batches = Vec::new();
        for (spec, artist_pipe, song_pipe) in &mut pipelines {
            let (artists, songs, pops) = provider_datasets(&world, spec);
            let (a_delta, report) = artist_pipe
                .ingest(&ontology, &[artists, pops])
                .expect("ingest artists");
            println!(
                "cycle {cycle} [{}]: +{} ~{} -{} entities ({} volatile facts)",
                artist_pipe.name(),
                report.added,
                report.updated,
                report.deleted,
                report.volatile_facts
            );
            // Artist batch first: the songs' performed_by references resolve
            // through the same-source link table during fusion.
            batches.push(SourceBatch {
                source: artist_pipe.source(),
                name: artist_pipe.name().to_string(),
                delta: a_delta,
            });
            let (s_delta, _) = song_pipe.ingest(&ontology, &[songs]).expect("ingest songs");
            batches.push(SourceBatch {
                source: song_pipe.source(),
                name: song_pipe.name().to_string(),
                delta: s_delta,
            });
        }
        let report = constructor
            .consume(
                &writer,
                &id_gen,
                batches,
                &RuleMatcher::default(),
                &LinkTableResolver,
            )
            .expect("construction commits");
        let kg = writer.read();
        println!(
            "cycle {cycle} construction: {} matched existing, {} new, {} updated → KG {} entities / {} facts\n",
            report.matched_existing,
            report.new_entities,
            report.updated,
            kg.entity_count(),
            kg.fact_count()
        );
        if cycle == 0 {
            // Both providers publish the same world: onboarding must merge
            // the second source's artists into the first's.
            assert!(
                report.matched_existing > 0,
                "cycle 0 merges the two sources"
            );
        }
    }

    let kg = writer.read();
    // Cross-source corroboration: entities seen by both providers.
    let corroborated = kg.entities().filter(|r| r.identity_count() >= 2).count();
    println!(
        "{} of {} entities are corroborated by both sources (fusion merged them)",
        corroborated,
        kg.entity_count()
    );

    // Entity importance (§3.3) — the ranking signal for tail entities.
    let scores = compute_importance(&kg, &ImportanceConfig::default());
    let mut top: Vec<_> = scores.score.iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(a.1));
    println!("\ntop-3 entities by structural importance:");
    for (id, score) in top.into_iter().take(3) {
        let name = kg
            .entity(*id)
            .and_then(|r| r.name().map(str::to_string))
            .unwrap_or_default();
        println!("  {id} {name:<28} {score:.3}");
    }

    // Production views on both engines (Fig. 8's subject matter).
    let store = AnalyticsStore::build(&kg);
    let legacy = LegacyEngine::build(&kg);
    // This catalog has artists + songs (no labels/playlists), so the Songs
    // view is the relevant production view here.
    println!("\nview row counts (analytics == legacy):");
    let view = ProductionView::Songs;
    let a = view.compute_analytics(&store);
    let l = view.compute_legacy(&legacy);
    assert_eq!(a, l);
    assert!(a > 0, "songs joined to resolved artists");
    println!("  {:<10} {a}", view.label());
}
