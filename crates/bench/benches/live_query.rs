//! Criterion micro-benchmarks for E7: KGQ query latency on the live graph
//! (point lookups, traversals, filtered search, plan-cache effect).

use criterion::{criterion_group, criterion_main, Criterion};
use saga_bench::workload::{media_world, MediaWorldConfig};
use saga_live::{QueryEngine, ReplicaKg};

fn bench_live(c: &mut Criterion) {
    let kg = media_world(&MediaWorldConfig::small(3));
    let engine = QueryEngine::new(ReplicaKg::from_index(kg.index().clone()));
    // Warm the plan cache.
    let get = r#"GET "Artist 5" . signed_to . name"#;
    let find = r#"FIND song WHERE performed_by -> entity("Artist 5") LIMIT 10"#;
    let hop2 = r#"GET "Person 9" . spouse . birthplace . name"#;
    for q in [get, find, hop2] {
        engine.query(q).unwrap();
    }

    let mut group = c.benchmark_group("kgq");
    group.bench_function("get_2hop_cached", |b| b.iter(|| engine.query(get).unwrap()));
    group.bench_function("find_edge_filtered", |b| {
        b.iter(|| engine.query(find).unwrap())
    });
    group.bench_function("get_3hop", |b| b.iter(|| engine.query(hop2).unwrap()));
    group.bench_function("parse_compile_uncached", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // Unique text defeats the plan cache → measures parse+compile.
            engine
                .query(&format!(
                    r#"FIND song WHERE duration_s = {} LIMIT 3"#,
                    i % 400
                ))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_live
}
criterion_main!(benches);
