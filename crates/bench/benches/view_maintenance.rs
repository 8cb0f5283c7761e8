//! Criterion micro-benchmarks for §3.2 incremental view maintenance:
//! per-commit refresh (commit + `update_changed`) vs a
//! full `refresh_all` recompute, swept across churn levels. The 20% level
//! crosses the importance view's churn threshold, so its numbers include
//! the declared full-rebuild fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saga_bench::workload::{media_world, MediaWorldConfig};
use saga_core::{intern, EntityId, KnowledgeGraph, Value, WriteBatch};
use saga_graph::views::ViewManager;
use saga_graph::{FactCountView, ImportanceConfig, ImportanceView};
use saga_live::MaterializedKgqView;

fn registered_manager() -> ViewManager {
    let mut vm = ViewManager::new();
    vm.register(Box::new(ImportanceView::new(ImportanceConfig::default())))
        .unwrap();
    vm.register(Box::new(FactCountView)).unwrap();
    vm.register(Box::new(
        MaterializedKgqView::new(
            "city0_people",
            r#"FIND person WHERE birthplace -> entity("City 0")"#,
        )
        .unwrap(),
    ))
    .unwrap();
    vm
}

fn of_type(kg: &KnowledgeGraph, ty: &str) -> Vec<EntityId> {
    let sym = intern(ty);
    let mut ids: Vec<EntityId> = kg
        .entities()
        .filter(|r| r.types().contains(&sym))
        .map(|r| r.id)
        .collect();
    ids.sort_unstable();
    ids
}

fn bench_maintenance(c: &mut Criterion) {
    let kg = media_world(&MediaWorldConfig::standard(7));
    let persons = of_type(&kg, "person");
    let cities = of_type(&kg, "city");
    let n = kg.entity_count();
    let birthplace = intern("birthplace");

    let mut group = c.benchmark_group("view_maintenance");

    group.bench_function("full_recompute", |b| {
        b.iter(|| {
            let mut vm = registered_manager();
            vm.refresh_all(&kg).unwrap()
        })
    });

    for churn_pct in [1usize, 5, 20] {
        let k = (n * churn_pct) / 100;
        let mut kg = kg.clone();
        let mut vm = registered_manager();
        vm.refresh_all(&kg).unwrap();
        let mut round = 0usize;
        group.bench_with_input(
            BenchmarkId::new("per_commit_refresh", format!("churn_{churn_pct}pct")),
            &k,
            |b, &k| {
                b.iter(|| {
                    // A real commit each iteration: rewire k birthplace
                    // edges, then run the maintenance pass a log follower runs.
                    round += 1;
                    let start = (round * k) % persons.len().max(1);
                    let mut batch = WriteBatch::new();
                    for (i, &p) in persons.iter().cycle().skip(start).take(k).enumerate() {
                        let city = cities[(i + round) % cities.len()];
                        batch = batch.mutate(p, move |rec| {
                            for t in &mut rec.triples {
                                if t.predicate == birthplace {
                                    t.object = Value::Entity(city);
                                }
                            }
                        });
                    }
                    let receipt = batch.commit(&mut kg);
                    vm.update_changed(&kg, &receipt.changed_entities()).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_maintenance
}
criterion_main!(benches);
