//! Experiment E10 — §2.4/Fig. 5: scalability of incremental knowledge
//! construction.
//!
//! Two claims: (1) inter-source parallel linking beats serial processing
//! (fusion stays the only synchronization point); (2) delta consumption is
//! far cheaper than full re-construction for small change rates — the
//! reason construction is "a continuously running delta-based framework".
//!
//! Claim 1 is **not reproduced.** Sources that link in parallel against
//! one snapshot each mint their own entity for a shared artist, and no
//! fusion step reconciles them. On this corpus (four noisy providers over
//! `MusicWorld::generate(5, 800, 4)`, ≈ 794 true artists) a parallel mode
//! made 2,096 entities against 1,107 for sources linked in turn. It ran in
//! 754–1,454 ms against 1,740–1,766 ms (three runs on 2 vCPUs) only because
//! it scored 139,736 candidate pairs instead of 177,977: the skipped pairs
//! are the cross-source comparisons that find the duplicates. Construction
//! now has one mode, sources in turn, and this binary prints that mode's
//! single run as the baseline a correct parallel mode has to beat.

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

    // ---------- Claim 1: one cycle of four sources, linked in turn ----------
    println!("# §2.4 — four sources × ~800 artists in one cycle (claim 1 not reproduced)");
    let (mut artist_pipes, _) = build_pipelines(n_sources);
    let w = writer();
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(ont.volatile_predicates());
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
    let report = consume(&ctor, &w, &id_gen, batches);
    println!(
        "  {} entities, {} pairs scored, linking {} ms, fusion {} ms",
        w.read().entity_count(),
        report.pairs_scored,
        report.linking_ms,
        report.fusion_ms,
    );

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
