//! Materialized-KGQ-view parity suite (seeded, deterministic).
//!
//! The invariant: **after any interleaving of committed write batches, a
//! [`MaterializedKgqView`] maintained per-delta holds exactly the entity
//! set a fresh compile-and-execute of the same query returns.** The
//! interleavings include edge rewires, literal flips, entity appearance /
//! departure, and renames of the query's resolved target — the last
//! moving the target's resolution into a declared full
//! re-materialization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{
    intern, CommitReceipt, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Value,
    WriteBatch,
};
use saga_graph::views::ViewManager;
use saga_graph::RefreshKind;
use saga_live::{MaterializedKgqView, QueryEngine};

const PEOPLE: u64 = 30;
const CITY_A: EntityId = EntityId(1001);
const CITY_B: EntityId = EntityId(1002);

const VIEWS: [(&str, &str); 2] = [
    (
        "in_city_a",
        r#"FIND person WHERE lives_in -> entity("City A") LIMIT 500"#,
    ),
    ("five_stars", r#"FIND person WHERE rating = 5 LIMIT 500"#),
];

fn meta() -> FactMeta {
    FactMeta::from_source(SourceId(1), 0.9)
}

fn seed_kg() -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    kg.add_named_entity(CITY_A, "City A", "city", SourceId(1), 0.9);
    kg.add_named_entity(CITY_B, "City B", "city", SourceId(1), 0.9);
    for i in 1..=PEOPLE {
        kg.add_named_entity(EntityId(i), &format!("P{i}"), "person", SourceId(1), 0.9);
        if i % 2 == 0 {
            kg.commit_upsert(ExtendedTriple::simple(
                EntityId(i),
                intern("lives_in"),
                Value::Entity(CITY_A),
                meta(),
            ));
        }
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(i),
            intern("rating"),
            Value::Int((i % 6) as i64),
            meta(),
        ));
    }
    kg
}

/// One random commit over the person population.
fn random_commit(rng: &mut StdRng, kg: &mut KnowledgeGraph) -> CommitReceipt {
    let mut batch = WriteBatch::new();
    for _ in 0..rng.gen_range(1..6) {
        let p = EntityId(rng.gen_range(1..=PEOPLE + 8));
        match rng.gen_range(0..6) {
            // Move between cities (or gain the edge for the first time).
            0..=1 => {
                let city = if rng.gen_bool(0.5) { CITY_A } else { CITY_B };
                let lives_in = intern("lives_in");
                batch = batch
                    .mutate(p, move |rec| {
                        rec.triples.retain(|t| t.predicate != lives_in);
                    })
                    .upsert(ExtendedTriple::simple(
                        p,
                        intern("lives_in"),
                        Value::Entity(city),
                        meta(),
                    ));
            }
            // Flip the rating literal.
            2..=3 => {
                let rating = intern("rating");
                let v = rng.gen_range(0..6i64);
                batch = batch
                    .mutate(p, move |rec| {
                        rec.triples.retain(|t| t.predicate != rating);
                    })
                    .upsert(ExtendedTriple::simple(
                        p,
                        intern("rating"),
                        Value::Int(v),
                        meta(),
                    ));
            }
            // A fresh person (ids past the seed population appear here).
            4 => {
                batch = batch
                    .named_entity(p, &format!("P{}", p.0), "person", SourceId(1), 0.9)
                    .upsert(ExtendedTriple::simple(
                        p,
                        intern("lives_in"),
                        Value::Entity(CITY_A),
                        meta(),
                    ));
            }
            // Departure: drop every fact, emptying the record.
            _ => {
                batch = batch.mutate(p, |rec| rec.triples.clear());
            }
        }
    }
    batch.commit(kg)
}

/// Fresh compile-and-execute of a view's query text, sorted.
fn fresh_hits(kg: &KnowledgeGraph, query: &str) -> Vec<EntityId> {
    let engine = QueryEngine::new(kg);
    let result = engine.query(query).unwrap();
    let mut hits = result.entities().to_vec();
    hits.sort_unstable();
    hits
}

fn assert_parity(kg: &KnowledgeGraph, vm: &ViewManager, label: &str) {
    for (name, query) in VIEWS {
        let maintained = vm.get(name).and_then(|d| d.as_entities()).unwrap();
        let fresh = fresh_hits(kg, query);
        assert_eq!(maintained, fresh, "{label}: view {name} diverged");
    }
}

#[test]
fn maintained_membership_equals_fresh_execution_across_interleavings() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED + seed);
        let mut kg = seed_kg();
        let mut vm = ViewManager::new();
        for (name, query) in VIEWS {
            vm.register(Box::new(MaterializedKgqView::new(name, query).unwrap()))
                .unwrap();
        }
        vm.refresh_all(&kg).unwrap();
        assert_parity(&kg, &vm, &format!("seed {seed} initial"));

        for round in 0..15 {
            let receipt = random_commit(&mut rng, &mut kg);
            let report = vm.update_changed(&kg, &receipt.changed_entities()).unwrap();
            for (name, _) in VIEWS {
                assert_eq!(
                    report.kind_of(name),
                    Some(RefreshKind::Incremental),
                    "seed {seed} round {round}: no resolution moved, so \
                     maintenance must stay on the delta channel"
                );
            }
            assert_parity(&kg, &vm, &format!("seed {seed} round {round}"));
        }
    }
}

/// Renaming the query's resolved target moves its compile-time resolution:
/// the view must notice, re-materialize (declared full), and re-converge —
/// then keep maintaining incrementally against the *new* resolution.
#[test]
fn target_rename_crosses_into_full_rematerialization_and_back() {
    let mut rng = StdRng::seed_from_u64(0xC17);
    let mut kg = seed_kg();
    let mut vm = ViewManager::new();
    for (name, query) in VIEWS {
        vm.register(Box::new(MaterializedKgqView::new(name, query).unwrap()))
            .unwrap();
    }
    vm.refresh_all(&kg).unwrap();

    // Swap the two city names: "City A" now resolves to the *other* node.
    let name_sym = intern(saga_core::well_known::NAME);
    let receipt = WriteBatch::new()
        .mutate(CITY_A, move |rec| {
            for t in &mut rec.triples {
                if t.predicate == name_sym {
                    t.object = Value::str("City B");
                }
            }
        })
        .mutate(CITY_B, move |rec| {
            for t in &mut rec.triples {
                if t.predicate == name_sym {
                    t.object = Value::str("City A");
                }
            }
        })
        .commit(&mut kg);
    let report = vm.update_changed(&kg, &receipt.changed_entities()).unwrap();
    assert_eq!(
        report.kind_of("in_city_a"),
        Some(RefreshKind::Full),
        "moved resolution must re-materialize"
    );
    assert_parity(&kg, &vm, "after rename");

    // And the maintenance loop keeps converging incrementally afterwards.
    for round in 0..8 {
        let receipt = random_commit(&mut rng, &mut kg);
        vm.update_changed(&kg, &receipt.changed_entities()).unwrap();
        assert_parity(&kg, &vm, &format!("post-rename round {round}"));
    }
}
