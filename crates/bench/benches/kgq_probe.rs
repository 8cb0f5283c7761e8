//! KGQ probe bench: index-backed posting intersection — on the stable
//! `KnowledgeGraph` and on the sharded `ReplicaKg` a log replica serves —
//! vs. the naive full-scan path, at ≥100k facts of NerdWorld ambiguity
//! workload.
//!
//! Tracks the speedup the unified `TripleIndex` buys the serving path. The
//! acceptance bar for the refactor that introduced it was ≥5× over the
//! scan path at 100k facts; in practice the gap is orders of magnitude.

use criterion::{criterion_group, criterion_main, Criterion};
use saga_bench::nerdworld::ambiguous_world;
use saga_core::index::{flatten, intersect_sorted};
use saga_core::postings::{intersect_views, BlockPostings};
use saga_core::{intern, EntityId, GraphRead, KnowledgeGraph, ProbeKey, Value};
use saga_live::{QueryEngine, ReplicaKg};

/// The old pre-index serving path: scan every record, test every probe.
fn naive_find(kg: &KnowledgeGraph, ty: &str, pred: &str, target: EntityId) -> Vec<EntityId> {
    let ty_sym = intern("type");
    let pred_sym = intern(pred);
    let ty_val = Value::str(ty);
    let target_val = Value::Entity(target);
    let mut hits: Vec<EntityId> = kg
        .entities()
        .filter(|r| {
            let mut has_type = false;
            let mut has_edge = false;
            for (p, v) in r.triples.iter().filter_map(flatten) {
                has_type |= p == ty_sym && v == ty_val;
                has_edge |= p == pred_sym && v == target_val;
            }
            has_type && has_edge
        })
        .map(|r| r.id)
        .collect();
    hits.sort_unstable();
    hits
}

fn bench_probe(c: &mut Criterion) {
    // Enough homonym groups to land the corpus above the 100k-fact bar.
    let world = ambiguous_world(42, 1_500);
    let kg = world.kg;
    assert!(
        kg.fact_count() >= 100_000,
        "workload too small: {}",
        kg.fact_count()
    );

    let live = ReplicaKg::from_index(16, kg.index().clone());
    let engine = QueryEngine::new(live.clone());

    // A conjunctive probe on the serving path: cities located in one
    // specific country entity.
    let country = kg.find_by_name("Germany")[0];
    let probes = [
        ProbeKey::Type(intern("city")),
        ProbeKey::Edge(intern("located_in"), country),
    ];
    let expected = kg.index().probe_all(&probes);
    assert!(!expected.is_empty(), "probe must select something");
    assert_eq!(
        naive_find(&kg, "city", "located_in", country),
        expected,
        "paths agree"
    );

    // Postings memory gauge: the compressed block representation vs what
    // the same postings would cost as plain sorted `Vec<EntityId>`s. The
    // acceptance bar for the compressed-postings refactor is ≥3× reduction
    // on this (dense sequential-id) workload.
    let compressed_bytes = kg.index().index_bytes();
    let plain_bytes = kg.index().plain_postings_bytes();
    println!(
        "postings_memory: compressed {} KiB vs plain {} KiB ({:.2}x reduction) at {} facts",
        compressed_bytes / 1024,
        plain_bytes / 1024,
        plain_bytes as f64 / compressed_bytes as f64,
        kg.fact_count(),
    );

    // Compressed-domain vs plain-Vec intersection, on the selective probe
    // above and on a dense×dense conjunction (two large postings — the
    // bitmap-AND fast path). Both sides intersect pre-fetched lists (views
    // of the compressed blocks vs materialized sorted vectors with the
    // galloping merge the index used before the block refactor), so the
    // comparison isolates the intersection algorithm itself.
    let plain_selective: Vec<Vec<EntityId>> = probes.iter().map(|p| kg.postings(p)).collect();
    let dense_probes = [
        ProbeKey::Type(intern("place")),
        ProbeKey::Name("ward".into()),
    ];
    let dense_expected = kg.index().probe_all(&dense_probes);
    assert!(
        dense_expected.len() > 5_000,
        "dense conjunction should hit every district: {}",
        dense_expected.len()
    );
    let plain_dense: Vec<Vec<EntityId>> = dense_probes.iter().map(|p| kg.postings(p)).collect();
    {
        let refs: Vec<&[EntityId]> = plain_dense.iter().map(Vec::as_slice).collect();
        assert_eq!(intersect_sorted(&refs), dense_expected, "paths agree");
    }

    let mut group = c.benchmark_group("kgq_probe");
    group.bench_function("index_intersection_stable", |b| {
        b.iter(|| kg.index().probe_all(&probes))
    });
    group.bench_function("selective_intersection_compressed", |b| {
        let lists: Vec<&BlockPostings> = probes.iter().map(|p| kg.index().postings(p)).collect();
        b.iter(|| intersect_views(&lists))
    });
    group.bench_function("selective_intersection_plain_vec", |b| {
        let refs: Vec<&[EntityId]> = plain_selective.iter().map(Vec::as_slice).collect();
        b.iter(|| intersect_sorted(&refs))
    });
    group.bench_function("dense_intersection_compressed", |b| {
        let lists: Vec<&BlockPostings> = dense_probes
            .iter()
            .map(|p| kg.index().postings(p))
            .collect();
        b.iter(|| intersect_views(&lists))
    });
    group.bench_function("dense_intersection_plain_vec", |b| {
        let refs: Vec<&[EntityId]> = plain_dense.iter().map(Vec::as_slice).collect();
        b.iter(|| intersect_sorted(&refs))
    });
    group.bench_function("index_intersection_live_sharded", |b| {
        b.iter(|| live.probe_all(&probes))
    });
    group.bench_function("naive_full_scan", |b| {
        b.iter(|| naive_find(&kg, "city", "located_in", country))
    });
    let query = format!("FIND city WHERE located_in -> AKG:{} LIMIT 100", country.0);
    engine.query(&query).unwrap(); // warm the plan cache
    group.bench_function("kgq_find_end_to_end", |b| {
        b.iter(|| engine.query(&query).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_probe
}
criterion_main!(benches);
