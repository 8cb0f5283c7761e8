//! Experiment E10 — §2.4/Fig. 5: scalability of parallel, incremental
//! knowledge construction.
//!
//! Two claims to verify: (1) inter-source parallel linking beats serial
//! processing (fusion stays the only synchronization point); (2) delta
//! consumption is far cheaper than full re-construction for small change
//! rates — the reason construction is "a continuously running delta-based
//! framework".

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use saga_construct::{
    ConstructionReport, KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch,
};
use saga_core::{IdGenerator, KnowledgeGraph};
use saga_graph::{LoggedWriter, OperationLog};
use saga_ingest::synth::{
    artist_alignment, provider_datasets, song_alignment, MusicWorld, ProviderSpec,
};
use saga_ingest::{DataTransformer, SourceIngestionPipeline, TransformSpec};
use saga_ontology::default_ontology;

/// A fresh, empty graph behind an in-memory log.
fn writer() -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
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
    .expect("in-memory log append")
}

fn build_pipelines(n_sources: u32) -> (Vec<SourceIngestionPipeline>, Vec<SourceIngestionPipeline>) {
    let artists = (1..=n_sources)
        .map(|s| {
            SourceIngestionPipeline::new(
                saga_core::SourceId(s),
                format!("artists-{s}"),
                DataTransformer::new(TransformSpec::simple("artist_id").join(
                    1,
                    "artist_id",
                    "artist_id",
                )),
                artist_alignment(0.9),
            )
        })
        .collect();
    let songs = (1..=n_sources)
        .map(|s| {
            SourceIngestionPipeline::new(
                saga_core::SourceId(100 + s),
                format!("songs-{s}"),
                DataTransformer::new(TransformSpec::simple("song_id")),
                song_alignment(0.85),
            )
        })
        .collect();
    (artists, songs)
}

fn main() {
    let ont = default_ontology();
    let n_sources = 4u32;
    let world = MusicWorld::generate(5, 800, 4);

    // ---------- Claim 1: inter-source parallelism ----------
    println!("# §2.4 — inter-source parallel linking (4 sources × ~800 artists)");
    for parallel in [false, true] {
        let (mut artist_pipes, _) = build_pipelines(n_sources);
        let w = writer();
        let id_gen = IdGenerator::starting_at(1);
        let mut ctor = KnowledgeConstructor::new(ont.volatile_predicates());
        ctor.parallel = parallel;
        let mut batches = Vec::new();
        for (i, pipe) in artist_pipes.iter_mut().enumerate() {
            let spec = ProviderSpec::noisy(40 + i as u64, &format!("p{i}_"));
            let (a, _s, pops) = provider_datasets(&world, &spec);
            let (delta, _) = pipe.ingest(&ont, &[a, pops]).expect("ingest");
            batches.push(SourceBatch {
                source: pipe.source(),
                name: pipe.name().into(),
                delta,
            });
        }
        let t0 = Instant::now();
        let report = consume(&ctor, &w, &id_gen, batches);
        let ms = t0.elapsed().as_millis();
        println!(
            "  parallel={parallel:<5} total={ms:>5} ms (linking {} ms, fusion {} ms) — {} entities, {} pairs scored",
            report.linking_ms, report.fusion_ms, w.read().entity_count(), report.pairs_scored,
        );
    }

    // ---------- Claim 2: delta vs full reconstruction ----------
    println!("\n# §2.4 — incremental (delta) vs full re-construction, 5 update cycles");
    let spec = ProviderSpec::clean(7, "d_");
    // Incremental: consume diffs each cycle.
    let mut world_inc = MusicWorld::generate(9, 1200, 4);
    let mut pipe = SourceIngestionPipeline::new(
        saga_core::SourceId(1),
        "delta-source",
        DataTransformer::new(TransformSpec::simple("song_id")),
        song_alignment(0.9),
    );
    let w = writer();
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(ont.volatile_predicates());
    let mut delta_total_ms = 0u128;
    let mut delta_linked = 0usize;
    for cycle in 0..5 {
        if cycle > 0 {
            world_inc.evolve(10, 0.02, 0.01);
        }
        let (_a, songs, _p) = provider_datasets(&world_inc, &spec);
        let (delta, _) = pipe.ingest(&ont, &[songs]).expect("ingest");
        let changes = delta.change_count();
        let t0 = Instant::now();
        let r = consume(
            &ctor,
            &w,
            &id_gen,
            vec![SourceBatch {
                source: pipe.source(),
                name: "delta".into(),
                delta,
            }],
        );
        let ms = t0.elapsed().as_millis();
        if cycle > 0 {
            delta_total_ms += ms;
            delta_linked += changes;
        }
        println!(
            "  cycle {cycle}: {changes:>5} changed entities, {ms:>5} ms ({} pairs)",
            r.pairs_scored
        );
    }

    // Full: re-link the entire snapshot each cycle.
    let mut world_full = MusicWorld::generate(9, 1200, 4);
    let mut full_total_ms = 0u128;
    for cycle in 1..5 {
        world_full.evolve(10, 0.02, 0.01);
        let (_a, songs, _p) = provider_datasets(&world_full, &spec);
        let mut fresh_pipe = SourceIngestionPipeline::new(
            saga_core::SourceId(1),
            "full-source",
            DataTransformer::new(TransformSpec::simple("song_id")),
            song_alignment(0.9),
        );
        let (delta, _) = fresh_pipe.ingest(&ont, &[songs]).expect("ingest");
        let w_full = writer();
        let idg = IdGenerator::starting_at(1);
        let t0 = Instant::now();
        consume(
            &ctor,
            &w_full,
            &idg,
            vec![SourceBatch {
                source: fresh_pipe.source(),
                name: "full".into(),
                delta,
            }],
        );
        full_total_ms += t0.elapsed().as_millis();
        let _ = cycle;
    }
    println!(
        "\n  incremental cycles 1-4: {delta_total_ms} ms total ({delta_linked} changed entities)"
    );
    println!("  full re-construction:   {full_total_ms} ms total");
    println!(
        "  delta speedup: {:.1}x (the hybrid batch-incremental design's payoff)",
        full_total_ms as f64 / delta_total_ms.max(1) as f64
    );
}
