//! Commit-equivalence property tests (seeded, deterministic).
//!
//! The invariant the staged write path rests on: **any interleaving of
//! staged ops committed through [`WriteBatch`]es is indistinguishable from
//! the same ops applied through the crate-internal direct mutators** — the
//! records, the `same_as` link table, the index (every probe family) and
//! the emitted wire deltas all agree. The direct mutators are the
//! reference semantics; staging in place must never drift from them. The
//! one deliberate difference is the delta shape: a commit hands out one
//! net delta per touched entity, not one per op. And a transaction that
//! never commits leaves the graph exactly as it found it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::index::{flatten, name_tokens};
use crate::{
    intern, Delta, EntityId, ExtendedTriple, FactMeta, FxHashSet, KgTransaction, KnowledgeGraph,
    RelId, SourceId, Symbol, Value, WriteBatch, WriteOp,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const PREDICATES: [&str; 6] = ["name", "alias", "type", "knows", "founded", "score"];
const TYPES: [&str; 3] = ["person", "song", "city"];
const NAMES: [&str; 4] = ["Ada Lovelace", "Grace Hopper", "Hedy Lamarr", "A-1 B2"];

/// A write op in replayable description form: applicable both through the
/// direct mutators and as a staged [`WriteOp`].
#[derive(Clone, Debug)]
enum SimOp {
    Upsert(ExtendedTriple),
    Link(SourceId, String, EntityId),
    RetractSource(SourceId),
    RetractSourceEntity(SourceId, String),
    Overwrite(SourceId, Vec<ExtendedTriple>),
    /// Deterministic record edit: drop the triple at an index (if any).
    MutateDrop(EntityId, usize),
}

fn volatile_set() -> FxHashSet<Symbol> {
    let mut set = FxHashSet::default();
    set.insert(intern("score"));
    set
}

/// Metadata from one source, or — for a seeded quarter of facts — from
/// two or three distinct ones, so merges, commits and rollbacks also run
/// through the spilled provenance form and its shrink back to one entry.
fn random_meta(rng: &mut StdRng) -> FactMeta {
    let mut sources = [1, 2, 3];
    sources.shuffle(rng);
    let n = if rng.gen_bool(0.25) {
        rng.gen_range(2..=3)
    } else {
        1
    };
    let mut meta = FactMeta::default();
    for (at, &source) in sources[..n].iter().enumerate() {
        meta.merge_source(SourceId(source), 0.9 - 0.1 * at as f32);
    }
    meta
}

fn random_triple(rng: &mut StdRng, subject: EntityId) -> ExtendedTriple {
    let meta = random_meta(rng);
    let pred = intern(PREDICATES[rng.gen_range(0..PREDICATES.len())]);
    let object = if pred == intern("type") {
        Value::str(TYPES[rng.gen_range(0..TYPES.len())])
    } else if pred == intern("name") || pred == intern("alias") {
        Value::str(NAMES[rng.gen_range(0..NAMES.len())])
    } else {
        match rng.gen_range(0..5) {
            0 => Value::Int(rng.gen_range(-5..40)),
            1 => Value::Entity(EntityId(rng.gen_range(1..12))),
            2 => Value::Bool(rng.gen_bool(0.5)),
            3 => Value::Null,
            _ => Value::str(NAMES[rng.gen_range(0..NAMES.len())]),
        }
    };
    if rng.gen_bool(0.2) {
        ExtendedTriple::composite(
            subject,
            pred,
            RelId(rng.gen_range(1..3)),
            intern("facet"),
            object,
            meta,
        )
    } else {
        ExtendedTriple::simple(subject, pred, object, meta)
    }
}

fn random_sim_op(rng: &mut StdRng) -> SimOp {
    match rng.gen_range(0..12) {
        0..=5 => {
            let subject = EntityId(rng.gen_range(1..12));
            SimOp::Upsert(random_triple(rng, subject))
        }
        // Links and source-entity retractions name any source, so a
        // retraction often drops one source out of several on a fact.
        6 => {
            let id = rng.gen_range(1..12u64);
            SimOp::Link(
                SourceId(rng.gen_range(1..4)),
                format!("e{id}"),
                EntityId(id),
            )
        }
        7 => SimOp::RetractSource(SourceId(rng.gen_range(1..4))),
        8 => SimOp::RetractSourceEntity(
            SourceId(rng.gen_range(1..4)),
            format!("e{}", rng.gen_range(1..12)),
        ),
        9 => {
            let fresh: Vec<ExtendedTriple> = (0..rng.gen_range(0..4))
                .map(|_| {
                    ExtendedTriple::simple(
                        EntityId(rng.gen_range(1..12)),
                        intern("score"),
                        Value::Int(rng.gen_range(0..100)),
                        FactMeta::from_source(SourceId(2), 0.8),
                    )
                })
                .collect();
            SimOp::Overwrite(SourceId(2), fresh)
        }
        _ => SimOp::MutateDrop(EntityId(rng.gen_range(1..12)), rng.gen_range(0..5)),
    }
}

/// Reference semantics: the crate-internal direct mutators.
fn apply_direct(kg: &mut KnowledgeGraph, op: &SimOp) {
    match op {
        SimOp::Upsert(t) => {
            kg.upsert_fact(t.clone());
        }
        SimOp::Link(source, local, id) => kg.record_link(*source, local, *id),
        SimOp::RetractSource(source) => {
            kg.retract_source(*source);
        }
        SimOp::RetractSourceEntity(source, local) => {
            kg.retract_source_entity(*source, local);
        }
        SimOp::Overwrite(source, fresh) => {
            kg.overwrite_volatile_partition(*source, &volatile_set(), fresh.clone());
        }
        SimOp::MutateDrop(id, at) => {
            let at = *at;
            kg.mutate_entity(*id, |rec| {
                if at < rec.triples.len() {
                    rec.triples.remove(at);
                }
            });
        }
    }
}

fn as_write_op(op: &SimOp) -> WriteOp {
    match op.clone() {
        SimOp::Upsert(t) => WriteOp::Upsert(t),
        SimOp::Link(source, local_id, entity) => WriteOp::Link {
            source,
            local_id,
            entity,
        },
        SimOp::RetractSource(source) => WriteOp::RetractSource(source),
        SimOp::RetractSourceEntity(source, local_id) => {
            WriteOp::RetractSourceEntity { source, local_id }
        }
        SimOp::Overwrite(source, fresh) => WriteOp::OverwriteVolatile {
            source,
            volatile: volatile_set(),
            fresh,
        },
        SimOp::MutateDrop(entity, at) => WriteOp::Mutate {
            entity,
            edit: Box::new(move |rec| {
                if at < rec.triples.len() {
                    rec.triples.remove(at);
                }
            }),
        },
    }
}

fn assert_same_graph(direct: &KnowledgeGraph, batched: &KnowledgeGraph, label: &str) {
    // Records: same entities, same triples in the same order.
    let mut ids: Vec<EntityId> = direct.entity_ids().chain(batched.entity_ids()).collect();
    ids.sort_unstable();
    ids.dedup();
    for id in &ids {
        assert_eq!(
            direct.entity(*id).map(|r| &r.triples),
            batched.entity(*id).map(|r| &r.triples),
            "{label}: record mismatch for {id}"
        );
    }
    // Link table.
    for src in 1..4u32 {
        let mut a = direct.links_for_source(SourceId(src));
        let mut b = batched.links_for_source(SourceId(src));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{label}: links mismatch for source {src}");
    }
    // Index: SPO rows, literal postings, reverse edges, name tokens, fact
    // totals.
    assert_eq!(
        direct.index().fact_count(),
        batched.index().fact_count(),
        "{label}: fact counts"
    );
    for id in &ids {
        let mut a: Vec<(Symbol, Value)> = direct
            .index()
            .facts_of(*id)
            .map(|(p, v)| (p, v.into_owned()))
            .collect();
        let mut b: Vec<(Symbol, Value)> = batched
            .index()
            .facts_of(*id)
            .map(|(p, v)| (p, v.into_owned()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{label}: SPO mismatch for {id}");
        for (p, v) in &a {
            assert_eq!(
                direct.index().by_literal(*p, v),
                batched.index().by_literal(*p, v),
                "{label}: POS mismatch for ({p}, {v:?})"
            );
        }
        assert_eq!(
            direct.index().referencing(*id),
            batched.index().referencing(*id),
            "{label}: OSP mismatch for {id}"
        );
    }
    for name in NAMES {
        for token in name_tokens(name) {
            assert_eq!(
                direct.index().by_name(&token),
                batched.index().by_name(&token),
                "{label}: token posting {token:?}"
            );
        }
    }
}

/// The delta law of one commit: no net delta is empty, and the deltas
/// strictly ascend by entity — one per entity, in the order the log
/// writes their ids as gaps.
fn assert_one_delta_per_entity(receipt_deltas: &[Delta], label: &str) {
    for delta in receipt_deltas {
        assert!(!delta.is_empty(), "{label}: empty delta {:?}", delta.entity);
    }
    for pair in receipt_deltas.windows(2) {
        assert!(
            pair[0].entity < pair[1].entity,
            "{label}: {:?} then {:?}",
            pair[0].entity,
            pair[1].entity
        );
    }
}

#[test]
fn batched_commits_equal_direct_mutators() {
    let mut multi_source_facts = 0;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ seed);
        let ops: Vec<SimOp> = (0..100).map(|_| random_sim_op(&mut rng)).collect();

        // Reference: direct mutators, one at a time.
        let mut direct = KnowledgeGraph::new();
        for op in &ops {
            apply_direct(&mut direct, op);
        }

        // Candidate: the same ops staged into randomly-sized batches and
        // committed through the one `WriteBatch::commit` commit point.
        let mut batched = KnowledgeGraph::new();
        let mut receipt_deltas: Vec<Delta> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let span = rng.gen_range(1..=8usize).min(ops.len() - i);
            let mut batch = WriteBatch::new();
            for op in &ops[i..i + span] {
                batch.push(as_write_op(op));
            }
            let receipt = batch.commit(&mut batched);
            assert_one_delta_per_entity(&receipt.deltas, &format!("seed {seed} at op {i}"));
            receipt_deltas.extend(receipt.deltas);
            i += span;
        }

        assert_same_graph(&direct, &batched, &format!("seed {seed}"));
        multi_source_facts += batched
            .triples()
            .filter(|t| t.meta.source_count() > 1)
            .count();

        // The receipt's delta feed — the only delta channel since the
        // changelog retirement — replays into the reference index.
        let mut replayed = crate::TripleIndex::new();
        for delta in &receipt_deltas {
            replayed.apply(delta);
        }
        assert_eq!(
            replayed.fact_count(),
            direct.index().fact_count(),
            "seed {seed}: receipt replay"
        );
        for id in (1..12).map(EntityId) {
            let mut a: Vec<(Symbol, Value)> = replayed
                .facts_of(id)
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            let mut b: Vec<(Symbol, Value)> = direct
                .index()
                .facts_of(id)
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed}: replayed SPO for {id}");
        }
    }
    assert!(
        multi_source_facts > 0,
        "the generator must reach the spilled provenance form"
    );
}

#[test]
fn one_giant_batch_equals_per_op_commits() {
    // The atomicity-boundary check: committing everything at once equals
    // committing op-by-op (staged read-your-writes must be exact).
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x0A70 ^ seed);
        let ops: Vec<SimOp> = (0..80).map(|_| random_sim_op(&mut rng)).collect();

        let mut one = KnowledgeGraph::new();
        let mut giant = WriteBatch::new();
        for op in &ops {
            giant.push(as_write_op(op));
        }
        let receipt = giant.commit(&mut one);
        assert_one_delta_per_entity(&receipt.deltas, &format!("seed {seed}"));

        let mut many = KnowledgeGraph::new();
        for op in &ops {
            let mut batch = WriteBatch::new();
            batch.push(as_write_op(op));
            batch.commit(&mut many);
        }

        assert_same_graph(&many, &one, &format!("seed {seed} giant-vs-per-op"));
    }
}

#[test]
fn commuting_ops_staged_in_any_order_give_equal_receipts() {
    // Upserts on distinct entities commute: shuffled, they stage the same
    // records and hand out the same deltas in the same (entity) order,
    // so the log receives the same op.
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed);
        let mut base = KnowledgeGraph::new();
        let mut preload = WriteBatch::new();
        for _ in 0..30 {
            preload.push(as_write_op(&random_sim_op(&mut rng)));
        }
        preload.commit(&mut base);
        let mut ids: Vec<u64> = (0..rng.gen_range(2..24))
            .map(|_| rng.gen_range(1..400))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut ops: Vec<SimOp> = ids
            .iter()
            .map(|&id| SimOp::Upsert(random_triple(&mut rng, EntityId(id))))
            .collect();
        let receipt_of = |ops: &[SimOp]| {
            let mut kg = base.clone();
            let mut batch = WriteBatch::new();
            for op in ops {
                batch.push(as_write_op(op));
            }
            let receipt = batch.commit(&mut kg);
            (kg, receipt)
        };
        let (sorted_kg, sorted) = receipt_of(&ops);
        ops.shuffle(&mut rng);
        let (shuffled_kg, shuffled) = receipt_of(&ops);
        let label = format!("seed {seed}");
        assert_eq!(sorted.deltas, shuffled.deltas, "{label}");
        assert_eq!(
            (sorted.facts_added, sorted.facts_removed),
            (shuffled.facts_added, shuffled.facts_removed),
            "{label}"
        );
        assert_eq!(
            sorted.entities_removed, shuffled.entities_removed,
            "{label}"
        );
        assert_same_graph(&sorted_kg, &shuffled_kg, &label);
        assert_one_delta_per_entity(&shuffled.deltas, &label);
    }
}

#[test]
fn abandoned_transactions_leave_the_graph_as_found() {
    // The undo path: a transaction dropped uncommitted, or unwound by a
    // panic while staging (once per seed, half-way through a record
    // edit), restores every record, link and index family.
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xAB0 ^ seed);
        let mut kg = KnowledgeGraph::new();
        let mut base = WriteBatch::new();
        for _ in 0..60 {
            base.push(as_write_op(&random_sim_op(&mut rng)));
        }
        base.commit(&mut kg);
        let found = kg.clone();
        let ops: Vec<SimOp> = (0..40).map(|_| random_sim_op(&mut rng)).collect();

        {
            let mut txn = KgTransaction::new(&mut kg);
            for op in &ops {
                txn.apply_op(as_write_op(op));
            }
            txn.deltas();
        }
        assert_same_graph(&found, &kg, &format!("seed {seed} dropped"));

        let at = rng.gen_range(0..ops.len());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut txn = KgTransaction::new(&mut kg);
            for op in &ops[..at] {
                txn.apply_op(as_write_op(op));
            }
            if let Some(id) = (1..12).map(EntityId).find(|id| txn.contains(*id)) {
                txn.mutate(id, |rec| {
                    rec.triples.truncate(1);
                    panic!("edit died half-way");
                });
            }
            panic!("staging died");
        }));
        assert!(unwound.is_err());
        assert_same_graph(&found, &kg, &format!("seed {seed} unwound at {at}"));
    }
}

// Keep the flatten import exercised even if predicates shift: the wire
// vocabulary of this test must match the index's.
#[test]
fn sim_triples_flatten_like_the_index() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let t = random_triple(&mut rng, EntityId(1));
        if let Some((pred, _)) = flatten(&t) {
            if t.rel.is_some() {
                assert!(pred.to_string().contains('.'), "facet flattening");
            }
        }
    }
}
