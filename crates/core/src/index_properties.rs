//! Index-consistency property tests (seeded, deterministic).
//!
//! Three invariants of the unified triple index, checked over random
//! interleavings of upserts, retractions, volatile overwrites and direct
//! record mutations:
//!
//! 1. **Scan equivalence** — every SPO / POS / OSP probe answered by the
//!    index equals a naive full scan over the `KnowledgeGraph` records,
//!    and every `probe_all` conjunction equals the naive intersection of
//!    those scans.
//! 2. **Replay equivalence** — the [`Delta`] feed carried by commit
//!    receipts (the payloads the oplog ships), replayed onto an empty
//!    index, reproduces the KG's index exactly.
//! 3. **Compression equivalence** — the block-compressed
//!    [`BlockPostings`] behaves exactly like a plain sorted
//!    `Vec<EntityId>` reference under churn-heavy op streams, including
//!    across the inline/block and sparse/dense split-merge boundaries.
//! 4. **The prefix law** — `probe_all_limit(p, k)` is the first `k` ids
//!    of `probe_all(p)` on every [`GraphRead`] backend this crate can
//!    see (`prefix_law.rs`, shared with `saga-fleet`'s suite for the
//!    rest).

use crate::index::{flatten, name_tokens};
use crate::postings::{
    intersect_views, BlockPostings, BLOCK_SPAN, DENSE_MIN, INLINE_MAX, SPARSE_MAX, TINY_MAX,
    TINY_MIN,
};
use crate::read::intersect_postings;
use crate::{
    intern, Delta, EntityId, ExtendedTriple, FactMeta, FxHashSet, GraphRead, KnowledgeGraph,
    ProbeKey, RelId, SourceId, Symbol, TripleIndex, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "prefix_law.rs"]
mod prefix_law;

const PREDICATES: [&str; 6] = ["name", "alias", "type", "knows", "founded", "score"];
const TYPES: [&str; 3] = ["person", "song", "city"];
const NAMES: [&str; 5] = [
    "Ada Lovelace",
    "Grace Hopper",
    "Hedy Lamarr",
    "Noether",
    "A-1 B2",
];

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::str(NAMES[rng.gen_range(0..NAMES.len())]),
        1 => Value::Int(rng.gen_range(-5..50)),
        2 => Value::Float(f64::from(rng.gen_range(0..8)) / 2.0),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::Entity(EntityId(rng.gen_range(1..16))),
        _ => Value::Null,
    }
}

fn random_triple(rng: &mut StdRng, subject: EntityId) -> ExtendedTriple {
    let meta = FactMeta::from_source(SourceId(rng.gen_range(1..4)), 0.9);
    let pred = intern(PREDICATES[rng.gen_range(0..PREDICATES.len())]);
    let object = if pred == intern("type") {
        Value::str(TYPES[rng.gen_range(0..TYPES.len())])
    } else if pred == intern("name") || pred == intern("alias") {
        Value::str(NAMES[rng.gen_range(0..NAMES.len())])
    } else {
        random_value(rng)
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

/// One random mutation against the KG through the direct mutators.
fn random_op(rng: &mut StdRng, kg: &mut KnowledgeGraph) {
    match rng.gen_range(0..10) {
        // Mostly upserts.
        0..=5 => {
            let subject = EntityId(rng.gen_range(1..16));
            let triple = random_triple(rng, subject);
            if let Value::Str(local) = Value::str(format!("e{}", subject.0)) {
                // Links enable the per-entity retraction path below.
                kg.record_link(SourceId(1), &local, subject);
            }
            kg.upsert_fact(triple);
        }
        6 => {
            kg.retract_source(SourceId(rng.gen_range(1..4)));
        }
        7 => {
            let local = format!("e{}", rng.gen_range(1..16));
            kg.retract_source_entity(SourceId(1), &local);
        }
        8 => {
            let mut volatile = FxHashSet::default();
            volatile.insert(intern("score"));
            let fresh: Vec<ExtendedTriple> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let subject = EntityId(rng.gen_range(1..16));
                    ExtendedTriple::simple(
                        subject,
                        intern("score"),
                        Value::Int(rng.gen_range(0..100)),
                        FactMeta::from_source(SourceId(2), 0.8),
                    )
                })
                .collect();
            kg.overwrite_volatile_partition(SourceId(2), &volatile, fresh);
        }
        _ => {
            // Direct record mutation through the reconciling API.
            let id = EntityId(rng.gen_range(1..16));
            let drop_at = rng.gen_range(0..4usize);
            kg.mutate_entity(id, |rec| {
                if drop_at < rec.triples.len() {
                    rec.triples.remove(drop_at);
                }
            });
        }
    }
}

/// The same op distribution as [`random_op`], staged through the
/// [`WriteBatch::commit`](crate::WriteBatch::commit) commit point. Returns
/// the commit receipt's [`Delta`]s — the exact payloads the write-ahead log
/// ships to replicas (there is no other delta channel).
fn random_commit(rng: &mut StdRng, kg: &mut KnowledgeGraph) -> Vec<Delta> {
    use crate::WriteBatch;
    let batch = match rng.gen_range(0..10) {
        0..=5 => {
            let subject = EntityId(rng.gen_range(1..16));
            let triple = random_triple(rng, subject);
            WriteBatch::new()
                .link(SourceId(1), format!("e{}", subject.0), subject)
                .upsert(triple)
        }
        6 => WriteBatch::new().retract_source(SourceId(rng.gen_range(1..4))),
        7 => {
            let local = format!("e{}", rng.gen_range(1..16));
            WriteBatch::new().retract_source_entity(SourceId(1), local)
        }
        8 => {
            let mut volatile = FxHashSet::default();
            volatile.insert(intern("score"));
            let fresh: Vec<ExtendedTriple> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let subject = EntityId(rng.gen_range(1..16));
                    ExtendedTriple::simple(
                        subject,
                        intern("score"),
                        Value::Int(rng.gen_range(0..100)),
                        FactMeta::from_source(SourceId(2), 0.8),
                    )
                })
                .collect();
            WriteBatch::new().overwrite_volatile(SourceId(2), volatile, fresh)
        }
        _ => {
            let id = EntityId(rng.gen_range(1..16));
            let drop_at = rng.gen_range(0..4usize);
            WriteBatch::new().mutate(id, move |rec| {
                if drop_at < rec.triples.len() {
                    rec.triples.remove(drop_at);
                }
            })
        }
    };
    batch.commit(kg).deltas
}

// ---------------------------------------------------------------------
// Naive full-scan oracles
// ---------------------------------------------------------------------

fn naive_facts(kg: &KnowledgeGraph, id: EntityId) -> Vec<(Symbol, Value)> {
    let mut out: Vec<(Symbol, Value)> = kg
        .entity(id)
        .map(|r| r.triples.iter().filter_map(flatten).collect())
        .unwrap_or_default();
    out.sort_unstable();
    out
}

fn naive_pos(kg: &KnowledgeGraph, pred: Symbol, value: &Value) -> Vec<EntityId> {
    let mut out: Vec<EntityId> = kg
        .entities()
        .filter(|r| {
            r.triples
                .iter()
                .filter_map(flatten)
                .any(|(p, v)| p == pred && &v == value)
        })
        .map(|r| r.id)
        .collect();
    out.sort_unstable();
    out
}

fn naive_osp(kg: &KnowledgeGraph, target: EntityId) -> Vec<EntityId> {
    let mut out: Vec<EntityId> = kg
        .entities()
        .filter(|r| {
            r.triples
                .iter()
                .filter_map(flatten)
                .any(|(_, v)| v == Value::Entity(target))
        })
        .map(|r| r.id)
        .collect();
    out.sort_unstable();
    out
}

fn naive_tokens(kg: &KnowledgeGraph, needle: &str) -> Vec<EntityId> {
    let name_sym = intern("name");
    let alias_sym = intern("alias");
    let mut out: Vec<EntityId> = kg
        .entities()
        .filter(|r| {
            r.triples
                .iter()
                .filter_map(flatten)
                .filter(|(p, _)| *p == name_sym || *p == alias_sym)
                .any(|(_, v)| match v {
                    Value::Str(s) => name_tokens(&s).iter().any(|t| t == needle),
                    _ => false,
                })
        })
        .map(|r| r.id)
        .collect();
    out.sort_unstable();
    out
}

fn assert_index_matches_naive_scan(kg: &KnowledgeGraph, seed_label: &str) {
    let index = kg.index();
    // SPO: per-subject flattened multisets agree.
    for id in (1..16).map(EntityId) {
        let mut got: Vec<(Symbol, Value)> = index
            .facts_of(id)
            .map(|(p, v)| (p, v.into_owned()))
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            naive_facts(kg, id),
            "{seed_label}: SPO mismatch for {id}"
        );
    }
    // POS: probe every (predicate, value) pair that occurs anywhere, plus a
    // few guaranteed misses.
    let mut pairs: Vec<(Symbol, Value)> = kg
        .entities()
        .flat_map(|r| r.triples.iter().filter_map(flatten))
        .collect();
    pairs.push((intern("name"), Value::str("No Such Name")));
    pairs.push((intern("never_used"), Value::Int(0)));
    pairs.sort_unstable();
    pairs.dedup();
    for (pred, value) in &pairs {
        assert_eq!(
            index.by_literal(*pred, value).to_vec(),
            naive_pos(kg, *pred, value),
            "{seed_label}: POS mismatch for ({pred}, {value})"
        );
    }
    // OSP: reverse references for every possible target.
    for target in (1..16).map(EntityId) {
        assert_eq!(
            index.referencing(target).to_vec(),
            naive_osp(kg, target),
            "{seed_label}: OSP mismatch for {target}"
        );
    }
    // Derived name-token postings.
    for name in NAMES {
        for token in name_tokens(name) {
            assert_eq!(
                index.by_name(&token).to_vec(),
                naive_tokens(kg, &token),
                "{seed_label}: token mismatch for {token:?}"
            );
        }
    }
    // Type postings.
    for ty in TYPES {
        assert_eq!(
            index.by_type(intern(ty)).to_vec(),
            naive_pos(kg, intern("type"), &Value::str(ty)),
            "{seed_label}: type mismatch for {ty}"
        );
    }
    // Selectivity is the posting length.
    for (pred, value) in &pairs {
        let probe = ProbeKey::Literal(*pred, value.clone());
        assert_eq!(
            index.postings(&probe).len(),
            naive_pos(kg, *pred, value).len(),
            "{seed_label}: selectivity mismatch for ({pred}, {value})"
        );
    }
    // probe_all conjunctions (compressed-domain intersection) equal the
    // naive intersection of the naive scans.
    for ty in TYPES {
        for name in NAMES {
            for token in name_tokens(name) {
                let probes = [ProbeKey::Type(intern(ty)), ProbeKey::Name(token.clone())];
                let expected: Vec<EntityId> = naive_pos(kg, intern("type"), &Value::str(ty))
                    .into_iter()
                    .filter(|id| naive_tokens(kg, &token).contains(id))
                    .collect();
                assert_eq!(
                    index.probe_all(&probes),
                    expected,
                    "{seed_label}: probe_all mismatch for ({ty}, {token:?})"
                );
            }
        }
    }
}

#[test]
fn random_interleavings_match_naive_scans() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let mut kg = KnowledgeGraph::new();
        for step in 0..120 {
            random_op(&mut rng, &mut kg);
            // Check at a sampled cadence (every op would be O(n²) overall).
            if step % 30 == 29 {
                assert_index_matches_naive_scan(&kg, &format!("seed {seed} step {step}"));
            }
        }
        assert_index_matches_naive_scan(&kg, &format!("seed {seed} final"));
    }
}

#[test]
fn delta_feed_replay_reproduces_the_index() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD417A ^ seed);
        let mut kg = KnowledgeGraph::new();
        let mut feed: Vec<Delta> = Vec::new();
        for _ in 0..150 {
            feed.extend(random_commit(&mut rng, &mut kg));
        }
        let mut replayed = TripleIndex::new();
        for delta in &feed {
            replayed.apply(delta);
        }
        let index = kg.index();
        assert_eq!(
            replayed.fact_count(),
            index.fact_count(),
            "seed {seed}: fact counts"
        );
        assert_eq!(
            replayed.entity_count(),
            index.entity_count(),
            "seed {seed}: entity counts"
        );
        for id in (1..16).map(EntityId) {
            let mut a: Vec<(Symbol, Value)> = replayed
                .facts_of(id)
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            let mut b: Vec<(Symbol, Value)> = index
                .facts_of(id)
                .map(|(p, v)| (p, v.into_owned()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed}: replayed SPO for {id}");
            assert_eq!(
                replayed.referencing(id),
                index.referencing(id),
                "seed {seed}: replayed OSP for {id}"
            );
        }
        for name in NAMES {
            for token in name_tokens(name) {
                assert_eq!(
                    replayed.by_name(&token),
                    index.by_name(&token),
                    "seed {seed}: replayed token {token:?}"
                );
            }
        }
        // POS postings agree pair-by-pair after replay.
        let pairs: Vec<(Symbol, Value)> = kg
            .entities()
            .flat_map(|r| r.triples.iter().filter_map(flatten))
            .collect();
        for (pred, value) in &pairs {
            assert_eq!(
                replayed.by_literal(*pred, value),
                index.by_literal(*pred, value),
                "seed {seed}: replayed POS for ({pred}, {value})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Compressed postings ≡ plain Vec reference
// ---------------------------------------------------------------------

/// The plain-`Vec` reference implementation the compressed list must be
/// indistinguishable from.
#[derive(Default)]
struct PlainPostings(Vec<EntityId>);

impl PlainPostings {
    fn insert(&mut self, id: EntityId) -> bool {
        match self.0.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, id);
                true
            }
        }
    }

    fn remove(&mut self, id: EntityId) -> bool {
        match self.0.binary_search(&id) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

/// Random id biased toward representation boundaries: block edges
/// (multiples of 4096 ± a few), one hot block that crosses the
/// sparse→dense split and back, and a far block that keeps the directory
/// multi-entry.
fn boundary_id(rng: &mut StdRng) -> EntityId {
    match rng.gen_range(0..5) {
        // Hot block 0: enough distinct ids (0..2048) to cross SPARSE_MAX.
        0 | 1 => EntityId(rng.gen_range(0..2048)),
        // Block boundary straddle: 4090..4102.
        2 => EntityId(4090 + rng.gen_range(0..12)),
        // Sparse far block.
        3 => EntityId((1 << 20) + rng.gen_range(0..64)),
        // Tiny tail that keeps the list hopping over INLINE_MAX.
        _ => EntityId(rng.gen_range(0..40) * 97),
    }
}

#[test]
fn compressed_list_matches_plain_vec_reference_under_churn() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xB10C ^ seed);
        let mut plain = PlainPostings::default();
        let mut compressed = BlockPostings::new();
        let mut crossed_dense = false;
        let mut crossed_tiny = false;
        for step in 0..6_000 {
            let id = boundary_id(&mut rng);
            // Phase-biased churn: mostly inserts early (push the hot block
            // through the dense split), mostly removals late (pull it back
            // through the merge thresholds).
            let insert = if step < 3_000 {
                rng.gen_bool(0.8)
            } else {
                rng.gen_bool(0.2)
            };
            if insert {
                assert_eq!(
                    compressed.insert(id),
                    plain.insert(id),
                    "seed {seed} step {step}: insert({id}) disagreed"
                );
            } else {
                assert_eq!(
                    compressed.remove(id),
                    plain.remove(id),
                    "seed {seed} step {step}: remove({id}) disagreed"
                );
            }
            crossed_dense |= compressed.dense_block_count() > 0;
            crossed_tiny |= compressed.is_tiny();
            assert_eq!(compressed.len(), plain.0.len(), "seed {seed} step {step}");
            if step % 500 == 499 {
                assert_eq!(
                    compressed.to_vec(),
                    plain.0,
                    "seed {seed} step {step}: contents diverged"
                );
                assert_wire_roundtrip(&compressed, &format!("seed {seed} step {step}"));
                for probe in [0u64, 1, 4_095, 4_096, 4_100, 1 << 20, 97 * 13] {
                    let id = EntityId(probe);
                    assert_eq!(
                        compressed.contains(id),
                        plain.0.binary_search(&id).is_ok(),
                        "seed {seed} step {step}: contains({id}) disagreed"
                    );
                }
            }
        }
        assert_eq!(compressed.to_vec(), plain.0, "seed {seed}: final contents");
        assert!(
            crossed_dense,
            "seed {seed}: churn never promoted a dense block — thresholds untested"
        );
        assert!(
            crossed_tiny,
            "seed {seed}: churn never passed through the tiny tier"
        );
    }
}

/// `read_bytes(write_bytes(l))` holds the same ids in the same tier and
/// writes back the same bytes.
fn assert_wire_roundtrip(list: &BlockPostings, label: &str) {
    let mut buf = Vec::new();
    list.write_bytes(&mut buf);
    let mut at = 0usize;
    let back = BlockPostings::read_bytes(&buf, &mut at).expect("decodes");
    assert_eq!(at, buf.len(), "{label}: consumed the payload");
    assert_eq!(back, *list, "{label}: restored contents");
    assert_eq!(
        (back.is_tiny(), back.is_inline()),
        (list.is_tiny(), list.is_inline()),
        "{label}: restored tier"
    );
    let mut again = Vec::new();
    back.write_bytes(&mut again);
    assert_eq!(again, buf, "{label}: re-encode is byte-identical");
}

/// Encoded length of the tiny run over sorted `ids`: one varint for the
/// first id, then one per `gap - 1`.
fn tiny_run_bytes(ids: &[EntityId]) -> usize {
    let varint = |v: u64| (64 - v.leading_zeros() as usize).max(1).div_ceil(7);
    ids.iter()
        .enumerate()
        .map(|(i, id)| {
            varint(if i == 0 {
                id.0
            } else {
                id.0 - ids[i - 1].0 - 1
            })
        })
        .sum()
}

/// Churn that hovers around the tiny tier's two edges — runs of 12, 13
/// and 14 bytes (inline ↔ boxed) and lists of 128 and 256 ids (tiny ↔
/// blocked) — checked step by step against the plain reference, with
/// the storage each edge implies and a wire round trip in every tier.
#[test]
fn tiny_tier_edges_match_plain_vec_reference() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x1A11 ^ seed);

        // Inline ↔ boxed: ids whose varints are 1, 2 or 3 bytes, with
        // inserts favoured below 13 bytes and removals (mostly of present
        // ids) above.
        let mut plain = PlainPostings::default();
        let mut list = BlockPostings::new();
        let mut run_sizes = [false; 3];
        let (mut spilled, mut returned) = (false, false);
        for step in 0..3_000 {
            let mut id = EntityId(match rng.gen_range(0..4) {
                0 | 1 => rng.gen_range(0..128),
                2 => rng.gen_range(0..4_000),
                _ => rng.gen_range(0..300_000),
            });
            let was_inline = list.is_inline();
            let grow = tiny_run_bytes(&plain.0) < INLINE_MAX;
            if rng.gen_bool(if grow { 0.8 } else { 0.2 }) {
                assert_eq!(list.insert(id), plain.insert(id), "seed {seed} step {step}");
            } else {
                if !plain.0.is_empty() && rng.gen_bool(0.8) {
                    id = plain.0[rng.gen_range(0..plain.0.len())];
                }
                assert_eq!(list.remove(id), plain.remove(id), "seed {seed} step {step}");
            }
            let bytes = tiny_run_bytes(&plain.0);
            assert_eq!(list.len(), plain.0.len(), "seed {seed} step {step}");
            assert_eq!(
                list.is_inline(),
                bytes <= INLINE_MAX,
                "seed {seed} step {step}: a {bytes}-byte run in the wrong storage"
            );
            if let Some(seen) = bytes
                .checked_sub(INLINE_MAX - 1)
                .and_then(|i| run_sizes.get_mut(i))
            {
                *seen = true;
            }
            spilled |= was_inline && !list.is_inline();
            returned |= !was_inline && list.is_inline();
            assert_eq!(list.to_vec(), plain.0, "seed {seed} step {step}");
            let probe = plain.0.get(step % plain.0.len().max(1)).copied();
            if let Some(probe) = probe {
                assert!(list.contains(probe), "seed {seed} step {step}");
            }
            assert_eq!(
                list.last(),
                plain.0.last().copied(),
                "seed {seed} step {step}"
            );
            if step % 50 == 0 {
                assert_wire_roundtrip(&list, &format!("seed {seed} step {step}"));
            }
        }
        assert_eq!(run_sizes, [true; 3], "seed {seed}: 12/13/14-byte runs");
        assert!(spilled && returned, "seed {seed}: inline ↔ boxed both ways");

        // Tiny ↔ blocked: the length walks past TINY_MAX and back below
        // TINY_MIN twice, across several blocks.
        let mut plain = PlainPostings::default();
        let mut list = BlockPostings::new();
        let (mut split, mut merged) = (0, 0);
        let mut target_up = true;
        for step in 0..4_000 {
            if plain.0.len() > TINY_MAX + 8 {
                target_up = false;
            } else if plain.0.len() < TINY_MIN - 8 {
                target_up = true;
            }
            let mut id = EntityId(rng.gen_range(0..3 * BLOCK_SPAN));
            let was_tiny = list.is_tiny();
            if rng.gen_bool(if target_up { 0.75 } else { 0.25 }) {
                assert_eq!(list.insert(id), plain.insert(id), "seed {seed} step {step}");
            } else {
                if !plain.0.is_empty() && rng.gen_bool(0.8) {
                    id = plain.0[rng.gen_range(0..plain.0.len())];
                }
                assert_eq!(list.remove(id), plain.remove(id), "seed {seed} step {step}");
            }
            let len = plain.0.len();
            assert_eq!(list.len(), len, "seed {seed} step {step}");
            if len > TINY_MAX {
                assert!(!list.is_tiny(), "seed {seed} step {step}: {len} ids tiny");
            }
            if len < TINY_MIN {
                assert!(list.is_tiny(), "seed {seed} step {step}: {len} ids blocked");
            }
            split += usize::from(was_tiny && !list.is_tiny());
            merged += usize::from(!was_tiny && list.is_tiny());
            if step % 100 == 0 || was_tiny != list.is_tiny() {
                assert_eq!(list.to_vec(), plain.0, "seed {seed} step {step}");
                assert_wire_roundtrip(&list, &format!("seed {seed} step {step}"));
            }
        }
        assert_eq!(list.to_vec(), plain.0, "seed {seed}: final contents");
        assert!(
            split >= 2 && merged >= 2,
            "seed {seed}: {split} splits, {merged} merges"
        );
    }
}

#[test]
fn compressed_set_algebra_matches_plain_reference() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xA15E ^ seed);
        // Three lists of very different densities, sharing the id space.
        let mut lists: Vec<Vec<EntityId>> = Vec::new();
        for density in [2usize, 7, 31] {
            let mut ids: Vec<EntityId> = (0..30_000u64)
                .filter(|_| rng.gen_range(0..density) == 0)
                .map(EntityId)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            lists.push(ids);
        }
        let compressed: Vec<BlockPostings> = lists
            .iter()
            .map(|ids| BlockPostings::from_sorted(ids))
            .collect();
        let views: Vec<&BlockPostings> = compressed.iter().collect();
        // Intersection ≡ naive.
        let expected: Vec<EntityId> = lists[0]
            .iter()
            .filter(|id| lists[1].binary_search(id).is_ok() && lists[2].binary_search(id).is_ok())
            .copied()
            .collect();
        assert_eq!(intersect_views(&views), expected, "seed {seed}: intersect");
    }
}

/// KG-scale split/merge: enough same-type entities (ids straddling a
/// block boundary) to promote the type posting into dense blocks, then a
/// source retraction that pulls it back through demotion — with scan
/// equivalence asserted on both sides.
#[test]
fn dense_type_posting_promotes_and_demotes_at_kg_scale() {
    let mut kg = KnowledgeGraph::new();
    let lo = 3_500u64;
    let hi = 4_800u64; // straddles the 4096 block boundary
    for id in lo..hi {
        // Two thirds of the entities come from the churn source.
        let source = if id % 3 == 0 {
            SourceId(1)
        } else {
            SourceId(2)
        };
        kg.add_named_entity(EntityId(id), &format!("Node {id}"), "person", source, 0.9);
    }
    let ty = ProbeKey::Type(intern("person"));
    {
        let view = kg.index().postings(&ty);
        assert_eq!(view.len(), (hi - lo) as usize);
        assert_eq!(view.block_count(), 2, "ids straddle one block boundary");
        assert!(
            view.dense_block_count() >= 1,
            "per-block cardinality {} crossed SPARSE_MAX={SPARSE_MAX}",
            view.len() / 2
        );
        let expected: Vec<EntityId> = (lo..hi).map(EntityId).collect();
        assert_eq!(view.to_vec(), expected);
    }
    // Retract the churn source: cardinality drops to ~433, under the
    // DENSE_MIN=256 per-block demotion threshold.
    kg.retract_source(SourceId(2));
    {
        let view = kg.index().postings(&ty);
        let expected: Vec<EntityId> = (lo..hi).filter(|id| id % 3 == 0).map(EntityId).collect();
        assert_eq!(view.len(), expected.len());
        assert!(
            expected.len() / 2 < DENSE_MIN,
            "workload sized to cross the demote threshold"
        );
        assert_eq!(view.dense_block_count(), 0, "demoted after retraction");
        assert_eq!(view.to_vec(), expected);
        // And the conjunction with a (dense-ish) token posting agrees
        // with the naive intersection.
        let hits = kg
            .index()
            .probe_all(&[ty.clone(), ProbeKey::Name("node".into())]);
        assert_eq!(hits, expected);
    }
    // Retracting everything empties the postings and the directories.
    kg.retract_source(SourceId(1));
    let view = kg.index().postings(&ty);
    assert!(view.is_empty());
    assert_eq!(view.block_count(), 0);
    assert!(kg.index().is_empty());
}

/// The prefix law on the stable KG and through both blanket forwards.
#[test]
fn probe_all_limit_is_a_prefix_of_probe_all() {
    use prefix_law::{check_prefix_law, corpus};
    for seed in prefix_law::SEEDS {
        let mut kg = KnowledgeGraph::new();
        for fact in corpus(seed) {
            kg.upsert_fact(fact);
        }
        check_prefix_law(&kg, seed, "KnowledgeGraph");
        check_prefix_law(&&kg, seed, "&KnowledgeGraph");
        check_prefix_law(&std::sync::Arc::new(kg), seed, "Arc<KnowledgeGraph>");
    }
}
