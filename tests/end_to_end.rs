//! Cross-crate integration tests: the full platform loop.
//!
//! These exercise the paths the examples demonstrate, with assertions:
//! ingestion → construction → graph engine (log/followers/views) → live
//! serving → curation feedback, across multiple cycles.

use std::sync::Arc;

use saga::construct::{
    ConstructionReport, KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch,
};
use saga::core::{
    intern, EntityId, GraphRead, IdGenerator, KnowledgeGraph, Lsn, ProbeKey, SourceId, Value,
    WriteBatch,
};
use saga::graph::{AnalyticsStore, LogFollower, LoggedWriter, OpKind, OperationLog};
use saga::ingest::synth::{artist_alignment, provider_datasets, MusicWorld, ProviderSpec};
use saga::ingest::{DataTransformer, SourceIngestionPipeline, TransformSpec};
use saga::live::{LiveReplica, QueryEngine, ReplicaKg};
use saga::ontology::default_ontology;

fn ingest_cycle(
    world: &MusicWorld,
    pipes: &mut [(ProviderSpec, SourceIngestionPipeline)],
) -> Vec<SourceBatch> {
    let ontology = default_ontology();
    pipes
        .iter_mut()
        .map(|(spec, pipe)| {
            let (artists, _songs, pops) = provider_datasets(world, spec);
            let (delta, _) = pipe.ingest(&ontology, &[artists, pops]).expect("ingest");
            SourceBatch {
                source: pipe.source(),
                name: pipe.name().to_string(),
                delta,
            }
        })
        .collect()
}

fn make_pipes() -> Vec<(ProviderSpec, SourceIngestionPipeline)> {
    [
        (ProviderSpec::clean(1, "a_"), 1u32),
        (ProviderSpec::noisy(2, "b_"), 2u32),
    ]
    .into_iter()
    .map(|(spec, sid)| {
        let pipe = SourceIngestionPipeline::new(
            SourceId(sid),
            format!("provider-{sid}"),
            DataTransformer::new(TransformSpec::simple("artist_id").join(
                1,
                "artist_id",
                "artist_id",
            )),
            artist_alignment(0.9),
        );
        (spec, pipe)
    })
    .collect()
}

/// A fresh, empty graph behind an in-memory log.
fn writer() -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(parking_lot::RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    )
}

fn consume(
    ctor: &KnowledgeConstructor,
    writer: &LoggedWriter,
    id_gen: &IdGenerator,
    batches: Vec<SourceBatch>,
) -> ConstructionReport {
    ctor.consume(
        writer,
        id_gen,
        batches,
        &RuleMatcher::default(),
        &LinkTableResolver,
    )
    .expect("logged construction cycle")
}

#[test]
fn continuous_construction_deduplicates_across_sources_and_cycles() {
    let ontology = default_ontology();
    let mut world = MusicWorld::generate(11, 80, 2);
    let mut pipes = make_pipes();
    let writer = writer();
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(ontology.volatile_predicates());

    // Cycle 1: onboarding.
    let batches = ingest_cycle(&world, &mut pipes);
    let r1 = consume(&ctor, &writer, &id_gen, batches);
    assert!(r1.new_entities > 0);
    let before = {
        let kg = writer.read();
        // Cross-source dedup: far fewer canonical entities than payloads.
        assert!(
            kg.entity_count() < 80 + 40,
            "two overlapping sources must merge: {} entities",
            kg.entity_count()
        );
        let corroborated = kg.entities().filter(|r| r.identity_count() >= 2).count();
        assert!(
            corroborated > 20,
            "fusion merged cross-source entities: {corroborated}"
        );
        kg.entity_count()
    };

    // Cycle 2: world evolves, only diffs flow.
    world.evolve(8, 0.1, 0.05);
    let batches2 = ingest_cycle(&world, &mut pipes);
    let r2 = consume(&ctor, &writer, &id_gen, batches2);
    assert!(r2.updated + r2.deleted + r2.new_entities + r2.matched_existing > 0);
    let kg = writer.read();
    assert!(
        kg.entity_count() >= before.saturating_sub(20),
        "incremental cycle keeps the graph coherent"
    );
    // Popularity facts came through the volatile path.
    let pop = intern("popularity");
    assert!(
        kg.triples().any(|t| t.predicate == pop),
        "volatile facts fused"
    );
}

#[test]
fn operation_log_drives_agents_and_freshness() {
    // Each derived store follows the log through its own cursor: the
    // serving replica and the analytics warehouse. Neither reads the
    // writer's graph, and each one's freshness is its watermark.
    let log = Arc::new(OperationLog::in_memory());
    let writer = LoggedWriter::new(
        Arc::new(parking_lot::RwLock::new(KnowledgeGraph::new())),
        Arc::clone(&log),
    );
    let mut replica = LiveReplica::new(4, Arc::clone(&log));
    let mut follower = LogFollower::new(Arc::clone(&log));
    let mut warehouse = AnalyticsStore::default();

    writer
        .commit(
            OpKind::Upsert,
            WriteBatch::new()
                .named_entity(
                    EntityId(1),
                    "Billie Eilish",
                    "music_artist",
                    SourceId(1),
                    0.9,
                )
                .named_entity(EntityId(2), "Halo", "song", SourceId(1), 0.9),
        )
        .unwrap();
    assert_eq!(replica.catch_up().unwrap(), 1);
    assert_eq!(replica.watermark(), log.head());
    assert_eq!(follower.lag(), 1, "each store keeps its own pace");

    writer
        .commit(
            OpKind::Upsert,
            WriteBatch::new().named_entity(EntityId(3), "Bad Guy", "song", SourceId(1), 0.9),
        )
        .unwrap();
    assert_eq!(replica.lag(), 1);
    assert_eq!(replica.catch_up().unwrap(), 1, "suffix only");
    let applied = follower
        .poll_with(usize::MAX, |op| warehouse.apply_deltas(&op.deltas))
        .unwrap();
    assert_eq!(applied, 2, "the lagging store catches up");
    assert_eq!(replica.watermark(), Lsn(2));
    assert_eq!(follower.watermark(), log.head());

    // Point records and name postings come from the log alone.
    let live = replica.live();
    let billie = live.record(EntityId(1)).expect("record replayed");
    assert_eq!(billie.name(), Some("Billie Eilish"));
    assert_eq!(live.resolve_name("Bad Guy"), vec![EntityId(3)]);
    assert_eq!(
        live.postings(&ProbeKey::Name("billie".into())),
        vec![EntityId(1)]
    );
    let mut songs = warehouse.entities_of_type(intern("song")).to_vec();
    songs.sort_unstable();
    assert_eq!(songs, vec![2, 3]);
}

#[test]
fn constructed_kg_serves_live_queries() {
    // Build a small KG through real construction, then serve it live.
    let ontology = default_ontology();
    let world = MusicWorld::generate(3, 30, 2);
    let mut pipes = make_pipes();
    let writer = writer();
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(ontology.volatile_predicates());
    let batches = ingest_cycle(&world, &mut pipes);
    consume(&ctor, &writer, &id_gen, batches);

    let engine = QueryEngine::new(ReplicaKg::from_index(writer.read().index().clone()));

    // Every ground-truth artist covered by the clean provider is findable.
    let artist = &world.artists[0];
    let hits = engine
        .query(&format!(
            r#"FIND music_artist WHERE name = "{}""#,
            artist.name
        ))
        .expect("query runs");
    assert!(!hits.is_empty(), "artist {} served", artist.name);
    // And the popularity fact is retrievable by path.
    let id = hits.entities()[0];
    let pop = engine
        .query(&format!("GET AKG:{} . popularity", id.0))
        .unwrap();
    assert!(!pop.values().is_empty(), "volatile fact served live");
}

#[test]
fn construction_commits_write_ahead_through_the_log_to_a_replica() {
    // The full §3.1 loop, log-first: real construction commits through a
    // LoggedWriter (batch staged → deltas appended to the durable log →
    // applied to the KG), and a serving replica that never touches the
    // KnowledgeGraph catches up and answers the same KGQ queries. No
    // hand-paired changelog-drain/append_op exists anywhere in this loop.
    let ontology = default_ontology();
    let world = MusicWorld::generate(7, 40, 2);
    let mut pipes = make_pipes();
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(ontology.volatile_predicates());

    let writer = writer();
    let log = Arc::clone(writer.log());
    let mut replica = LiveReplica::new(8, Arc::clone(&log));

    let batches = ingest_cycle(&world, &mut pipes);
    let sources = batches.len();
    let report = consume(&ctor, &writer, &id_gen, batches);
    assert_eq!(report.lsns.len(), sources, "one commit per source");
    assert!(
        log.read_after(Lsn::ZERO)
            .iter()
            .any(|op| !op.deltas.is_empty()),
        "construction emitted deltas"
    );

    let kg = writer.read().clone();
    let applied = replica.catch_up().unwrap();
    assert_eq!(applied, sources);
    assert_eq!(replica.watermark(), log.head());
    assert_eq!(replica.live().len(), kg.entity_count());

    // Same KGQ answers from the stable KG and the log-shipped replica.
    let stable_engine = QueryEngine::new(kg.clone());
    let replica_engine = QueryEngine::new(replica.live().clone());
    let artist = &world.artists[0];
    let q = format!(r#"FIND music_artist WHERE name = "{}""#, artist.name);
    let a = stable_engine.query(&q).expect("stable query");
    let b = replica_engine.query(&q).expect("replica query");
    assert!(!a.entities().is_empty());
    assert_eq!(a.entities(), b.entities(), "replica parity for {q}");
}

#[test]
fn analytics_store_tracks_incremental_updates() {
    let mut kg = KnowledgeGraph::new();
    kg.add_named_entity(EntityId(1), "A", "music_artist", SourceId(1), 0.9);
    let mut store = AnalyticsStore::build(&kg);
    assert_eq!(store.entities_of_type(intern("music_artist")).len(), 1);

    let receipt = WriteBatch::new()
        .named_entity(EntityId(2), "B", "music_artist", SourceId(1), 0.9)
        .upsert(saga::core::ExtendedTriple::simple(
            EntityId(2),
            intern("popularity"),
            Value::Int(5),
            saga::core::FactMeta::from_source(SourceId(1), 0.9),
        ))
        .commit(&mut kg);
    store.apply_deltas(&receipt.deltas);
    assert_eq!(store.entities_of_type(intern("music_artist")).len(), 2);
    assert_eq!(store.frame_ints(intern("popularity"), "pop").len(), 1);
}
