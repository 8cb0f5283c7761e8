//! Maintenance-equivalence property suite (seeded, deterministic).
//!
//! The invariant the incremental view path rests on: **after any
//! interleaving of committed write batches, a view maintained through
//! [`ViewManager::update_changed`] is indistinguishable from the same view
//! materialized from scratch** — for the stateful importance view within a
//! float epsilon, for fact counts exactly. The interleavings deliberately
//! straddle the importance view's churn threshold so both the push-based
//! incremental path and the declared full-rebuild fallback are exercised
//! (and the suite asserts both actually fired).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{
    intern, CommitReceipt, EntityId, ExtendedTriple, FactMeta, SourceId, Value, WriteBatch,
};
use saga_graph::views::ViewManager;
use saga_graph::{
    AnalyticsStore, FactCountView, ImportanceConfig, ImportanceView, RefreshKind, View, ViewData,
};

const EPS: f64 = 1e-6;
const UNIVERSE: u64 = 40;

/// Deterministic per-fact provenance. A provenance-only merge (same fact
/// re-asserted from a *new* source) deliberately emits no delta (the index
/// is object-level), so it is invisible to every log-derived store — the
/// identity signal tolerates it until the entity's next visible change.
/// Pinning each fact's source makes re-upserts merge identical provenance,
/// keeping the interleavings within the delta channel's contract.
fn edge_meta(subject: EntityId, target: EntityId) -> FactMeta {
    FactMeta::from_source(SourceId(1 + ((subject.0 + target.0) % 3) as u32), 0.9)
}

/// Seed KG: a ring of typed entities.
fn seed_kg() -> saga_core::KnowledgeGraph {
    let mut kg = saga_core::KnowledgeGraph::new();
    for i in 1..=UNIVERSE {
        kg.add_named_entity(
            EntityId(i),
            &format!("Node {i}"),
            if i % 3 == 0 { "city" } else { "person" },
            SourceId(1),
            0.9,
        );
    }
    for i in 1..=UNIVERSE {
        let next = i % UNIVERSE + 1;
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(i),
            intern("knows"),
            Value::Entity(EntityId(next)),
            edge_meta(EntityId(i), EntityId(next)),
        ));
    }
    kg
}

/// One random commit; breadth varies from a single edit to well past the
/// importance view's churn threshold.
fn random_commit(rng: &mut StdRng, kg: &mut saga_core::KnowledgeGraph) -> CommitReceipt {
    let breadth = match rng.gen_range(0..4) {
        0 => 1,
        1 => rng.gen_range(1..4),
        2 => rng.gen_range(4..10),
        // Wide: guaranteed past a 0.1 churn fraction of the ~40-node model.
        _ => rng.gen_range(10..20),
    };
    let mut batch = WriteBatch::new();
    for _ in 0..breadth {
        let subject = EntityId(rng.gen_range(1..=UNIVERSE + 5));
        match rng.gen_range(0..6) {
            // New or moved edge.
            0..=2 => {
                let target = EntityId(rng.gen_range(1..=UNIVERSE + 5));
                batch = batch.upsert(ExtendedTriple::simple(
                    subject,
                    intern("knows"),
                    Value::Entity(target),
                    edge_meta(subject, target),
                ));
            }
            // Fresh entity (possibly outside the seed universe).
            3 => {
                // Source 1 throughout: re-asserting an existing name/type
                // fact then merges identical provenance (no silent
                // identity change — see `edge_meta`).
                batch = batch.named_entity(
                    subject,
                    &format!("Fresh {}", subject.0),
                    "person",
                    SourceId(1),
                    0.9,
                );
            }
            // Identity churn.
            4 => {
                batch = batch.link(SourceId(3), format!("src-{}", subject.0), subject);
            }
            // Drop a random stored triple (possibly emptying the record).
            _ => {
                let at = rng.gen_range(0..6);
                batch = batch.mutate(subject, move |rec| {
                    if at < rec.triples.len() {
                        rec.triples.remove(at);
                    }
                });
            }
        }
    }
    batch.commit(kg)
}

/// The named view freshly materialized by a new manager.
fn fresh(kg: &saga_core::KnowledgeGraph, view: impl View + 'static, name: &str) -> ViewData {
    let mut vm = ViewManager::new();
    vm.register(Box::new(view)).unwrap();
    vm.refresh_all(kg).unwrap();
    vm.get(name).unwrap().clone()
}

/// A maintained score view is within `EPS` of a fresh one, key for key.
fn assert_scores_match(maintained: &ViewData, fresh: &ViewData, label: &str) {
    let maintained = maintained.as_scores().unwrap();
    let fresh = fresh.as_scores().unwrap();
    let missing: Vec<_> = fresh
        .keys()
        .filter(|k| !maintained.contains_key(k))
        .collect();
    let extra: Vec<_> = maintained
        .keys()
        .filter(|k| !fresh.contains_key(k))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{label}: score-map key sets diverged (missing {missing:?}, extra {extra:?})"
    );
    for (id, score) in fresh {
        let got = maintained[id];
        assert!(
            (got - score).abs() < EPS,
            "{label}: {id:?} maintained {got} vs fresh {score}"
        );
    }
}

fn assert_scores_match_fresh(kg: &saga_core::KnowledgeGraph, vm: &ViewManager, label: &str) {
    let fresh = fresh(
        kg,
        ImportanceView::new(ImportanceConfig::default()),
        "entity_importance",
    );
    assert_scores_match(vm.get("entity_importance").unwrap(), &fresh, label);
}

fn assert_counts_match_fresh(kg: &saga_core::KnowledgeGraph, vm: &ViewManager, label: &str) {
    let fresh = fresh(kg, FactCountView, "entity_fact_counts");
    let maintained = vm.get("entity_fact_counts").unwrap();
    assert_eq!(
        maintained.as_scores(),
        fresh.as_scores(),
        "{label}: fact counts diverged"
    );
}

/// The delta-fed warehouse equals one built from scratch: the same rows in
/// every partition the interleavings touch, the same typed subjects and the
/// same total.
fn assert_warehouse_matches_fresh(
    kg: &saga_core::KnowledgeGraph,
    maintained: &AnalyticsStore,
    label: &str,
) {
    let fresh = AnalyticsStore::build(kg);
    for predicate in ["knows", "name", saga_core::well_known::TYPE] {
        let p = intern(predicate);
        assert_eq!(
            sorted_rows(maintained, p),
            sorted_rows(&fresh, p),
            "{label}: `{predicate}` rows diverged"
        );
    }
    let person = intern("person");
    let mut got = maintained.entities_of_type(person).to_vec();
    let mut want = fresh.entities_of_type(person).to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{label}: entities_of_type(person) diverged");
    assert_eq!(
        maintained.row_count(),
        fresh.row_count(),
        "{label}: row_count diverged"
    );
}

/// A partition's `(subject, value)` rows, sorted (row order is not part of
/// the store's contract).
fn sorted_rows(store: &AnalyticsStore, predicate: saga_core::Symbol) -> Vec<(u64, Value)> {
    let Some(t) = store.table(predicate) else {
        return Vec::new();
    };
    let ents = t.ent_rows.0.iter().zip(&t.ent_rows.1);
    let strs = t.str_rows.0.iter().zip(&t.str_rows.1);
    let mut rows: Vec<(u64, Value)> = ents
        .map(|(&s, &o)| (s, Value::Entity(EntityId(o))))
        .chain(strs.map(|(&s, o)| (s, Value::Str(o.clone()))))
        .collect();
    rows.sort();
    rows
}

/// The tentpole invariant: incrementally maintained views equal fresh
/// materialization after every commit of every seeded interleaving, and
/// the sweep exercises both sides of the churn-fallback threshold.
#[test]
fn maintained_views_equal_fresh_recompute_across_interleavings() {
    let mut kinds = (0usize, 0usize); // (incremental, full)
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xB00 + seed);
        let mut kg = seed_kg();
        let mut store = AnalyticsStore::build(&kg);
        let mut vm = ViewManager::new();
        vm.register(Box::new(ImportanceView::new(ImportanceConfig::default())))
            .unwrap();
        vm.register(Box::new(FactCountView)).unwrap();
        vm.refresh_all(&kg).unwrap();

        for round in 0..12 {
            let receipt = random_commit(&mut rng, &mut kg);
            store.apply_deltas(&receipt.deltas);
            let report = vm.update_changed(&kg, &receipt.changed_entities()).unwrap();
            match report.kind_of("entity_importance") {
                Some(RefreshKind::Incremental) => kinds.0 += 1,
                Some(RefreshKind::Full) => kinds.1 += 1,
                None => {}
            }
            let label = format!("seed {seed} round {round}");
            assert_scores_match_fresh(&kg, &vm, &label);
            assert_counts_match_fresh(&kg, &vm, &label);
            assert_warehouse_matches_fresh(&kg, &store, &label);
        }
    }
    assert!(kinds.0 > 0, "sweep never took the incremental path");
    assert!(
        kinds.1 > 0,
        "sweep never crossed the churn-fallback threshold"
    );
}

/// A tightened threshold forces the fallback every round; parity must hold
/// there too (the fallback is a declared full rebuild, not a special case).
#[test]
fn always_fallback_threshold_stays_correct() {
    let tight = || {
        ImportanceView::new(ImportanceConfig {
            max_churn_fraction: 0.0,
            ..Default::default()
        })
    };
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let mut kg = seed_kg();
    let mut vm = ViewManager::new();
    vm.register(Box::new(tight())).unwrap();
    vm.refresh_all(&kg).unwrap();
    let mut fulls = 0usize;
    for round in 0..6 {
        let receipt = random_commit(&mut rng, &mut kg);
        let report = vm.update_changed(&kg, &receipt.changed_entities()).unwrap();
        // A zero threshold forces fallback whenever any contribution row
        // is affected (row-neutral commits may still refresh in place).
        if report.kind_of("entity_importance") == Some(RefreshKind::Full) {
            fulls += 1;
        }
        // Fallback parity: against the *same* tightened config, fresh.
        let fresh = fresh(&kg, tight(), "entity_importance");
        let maintained = vm.get("entity_importance").unwrap();
        assert_scores_match(maintained, &fresh, &format!("round {round}"));
    }
    assert!(fulls > 0, "zero threshold never forced a fallback");
}
