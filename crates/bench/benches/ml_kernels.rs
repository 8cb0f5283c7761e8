//! Criterion micro-benchmarks for E8/E9 kernels: string similarities
//! (deterministic vs learned), encoder training step and embedding SGD.

use criterion::{criterion_group, criterion_main, Criterion};
use saga_ml::embeddings::{train_in_memory, EdgeList, EmbeddingConfig};
use saga_ml::simlib::{jaro_winkler, levenshtein, qgram_jaccard};
use saga_ml::StringEncoder;

fn bench_ml(c: &mut Criterion) {
    let a = "Katherine Lindqvist";
    let b = "Kate Lindqvist";
    let encoder = StringEncoder::new(32, 4096, 3, 7);

    let mut group = c.benchmark_group("string_sim");
    group.bench_function("levenshtein", |bch| bch.iter(|| levenshtein(a, b)));
    group.bench_function("jaro_winkler", |bch| bch.iter(|| jaro_winkler(a, b)));
    group.bench_function("qgram_jaccard", |bch| bch.iter(|| qgram_jaccard(a, b, 3)));
    group.bench_function("learned_encoder", |bch| {
        bch.iter(|| encoder.similarity(a, b))
    });
    group.finish();

    let mut group = c.benchmark_group("embeddings");
    // A small dense edge list.
    let mut el = EdgeList::default();
    el.relations.push(saga_core::intern("related_to"));
    for i in 0..200u32 {
        el.entities.push(saga_core::EntityId(u64::from(i) + 1));
    }
    for i in 0..800u32 {
        el.edges.push((i % 200, 0, (i * 7 + 3) % 200));
    }
    group.bench_function("transe_epoch_200n_800e", |bch| {
        let cfg = EmbeddingConfig {
            epochs: 1,
            dim: 16,
            ..Default::default()
        };
        bch.iter(|| train_in_memory(&el, &cfg).1.steps)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ml
}
criterion_main!(benches);
