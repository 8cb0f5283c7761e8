//! Checkpoint/restore parity and fault-injection tests for replica
//! bootstrap.
//!
//! The contract under test: `LiveReplica::bootstrap` (newest valid
//! checkpoint + oplog tail) serves results identical to a replica that
//! replayed the entire history from LSN 0 — across generated fact
//! worlds, after oplog compaction, and in the presence of torn or
//! corrupt checkpoint artifacts left by a crashed checkpointer.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use proptest::prelude::*;
use saga_core::{
    checkpoint, intern, EntityId, ExtendedTriple, FactMeta, FxHashSet, GraphRead, KnowledgeGraph,
    Lsn, ProbeKey, SourceId, Value, WriteBatch,
};
use saga_graph::{CheckpointWriter, LoggedWriter, OpKind, OperationLog};
use saga_live::{LiveReplica, QueryEngine};

const PREDS: [&str; 3] = ["genre", "year", "rating"];
const TYPES: [&str; 2] = ["song", "album"];

/// One generated fact world: `(subject, type_idx, pred_idx, value, edge_target)`.
type FactSpec = Vec<(u64, u8, u8, i64, u64)>;

fn fact_strategy() -> impl Strategy<Value = FactSpec> {
    proptest::collection::vec(
        (1u64..=24, any::<u8>(), (any::<u8>(), 0i64..8, 1u64..=24))
            .prop_map(|(subject, ty, (pred, value, target))| (subject, ty, pred, value, target)),
        1..40,
    )
}

/// A fresh scratch directory for checkpoint artifacts.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saga-bootstrap-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn writer_over(log: &Arc<OperationLog>) -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::clone(log),
    )
}

/// Commit a slice of the fact world through the write-ahead path,
/// including the awkward ops: each chunk is one upsert transaction
/// followed by a volatile popularity overwrite from a second source.
fn commit_facts(writer: &LoggedWriter, facts: &[(u64, u8, u8, i64, u64)]) {
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let pop = intern("popularity");
    for chunk in facts.chunks(5) {
        writer
            .with_txn(OpKind::Upsert, |txn| {
                for &(subject, ty, pred, value, target) in chunk {
                    let id = EntityId(subject);
                    if !txn.contains(id) {
                        txn.upsert(ExtendedTriple::simple(
                            id,
                            intern("name"),
                            Value::str(format!("Entity {subject}")),
                            meta(),
                        ));
                        txn.upsert(ExtendedTriple::simple(
                            id,
                            intern("type"),
                            Value::str(TYPES[ty as usize % TYPES.len()]),
                            meta(),
                        ));
                    }
                    txn.upsert(ExtendedTriple::simple(
                        id,
                        intern(PREDS[pred as usize % PREDS.len()]),
                        Value::Int(value),
                        meta(),
                    ));
                    txn.upsert(ExtendedTriple::simple(
                        id,
                        intern("related_to"),
                        Value::Entity(EntityId(target)),
                        meta(),
                    ));
                }
            })
            .unwrap();
        let mut volatile = FxHashSet::default();
        volatile.insert(pop);
        let fresh: Vec<ExtendedTriple> = chunk
            .iter()
            .map(|&(subject, _, _, value, _)| {
                ExtendedTriple::simple(
                    EntityId(subject),
                    pop,
                    Value::Int(value + 1000),
                    FactMeta::from_source(SourceId(2), 0.8),
                )
            })
            .collect();
        writer
            .commit(
                OpKind::VolatileOverwrite(SourceId(2)),
                WriteBatch::new().overwrite_volatile(SourceId(2), volatile, fresh),
            )
            .unwrap();
    }
}

/// The probe vocabulary a generated world can be interrogated with.
fn probe_set(facts: &FactSpec) -> Vec<ProbeKey> {
    let mut probes: Vec<ProbeKey> = Vec::new();
    for ty in TYPES {
        probes.push(ProbeKey::Type(intern(ty)));
    }
    probes.push(ProbeKey::Name("entity".into()));
    for &(subject, _, pred, value, target) in facts.iter().take(8) {
        probes.push(ProbeKey::Literal(
            intern(PREDS[pred as usize % PREDS.len()]),
            Value::Int(value),
        ));
        probes.push(ProbeKey::Edge(intern("related_to"), EntityId(target)));
        probes.push(ProbeKey::Name(format!("entity {subject}")));
    }
    probes
}

/// An entity's facts in the flattened index vocabulary the log ships.
fn flat_record<G: GraphRead>(graph: &G, id: EntityId) -> Option<Vec<(String, Value)>> {
    graph.record(id).map(|r| {
        let mut facts: Vec<(String, Value)> = r
            .triples
            .iter()
            .filter_map(saga_core::index::flatten)
            .map(|(p, v)| (p.to_string(), v))
            .collect();
        facts.sort_unstable();
        facts
    })
}

/// Full read parity between two replicas of the same world: postings
/// (materialized and cursor paths), selectivities, conjunctions,
/// flattened records, and KGQ answers.
fn assert_replica_parity(booted: &LiveReplica, reference: &LiveReplica, facts: &FactSpec) {
    let probes = probe_set(facts);
    for probe in &probes {
        let expected = reference.postings(probe);
        prop_assert_eq!(&booted.postings(probe), &expected, "probe {:?}", probe);
        prop_assert_eq!(
            &booted.postings_cursor(probe).to_vec(),
            &expected,
            "cursor probe {:?}",
            probe
        );
        prop_assert_eq!(booted.selectivity(probe), reference.selectivity(probe));
        for &id in expected.iter().take(4) {
            prop_assert!(booted.probe_contains(probe, id));
        }
    }
    for pair in probes.windows(2).take(12) {
        prop_assert_eq!(&booted.probe_all(pair), &reference.probe_all(pair));
    }
    let mut ids: Vec<EntityId> = facts.iter().map(|&(s, ..)| EntityId(s)).collect();
    ids.sort_unstable();
    ids.dedup();
    for &id in &ids {
        prop_assert_eq!(
            flat_record(booted, id),
            flat_record(reference, id),
            "record {:?}",
            id
        );
        prop_assert_eq!(
            GraphRead::contains(booted, id),
            GraphRead::contains(reference, id)
        );
    }
    // The one generic KGQ engine answers identically over both.
    let booted_engine = QueryEngine::new(booted.live().clone());
    let reference_engine = QueryEngine::new(reference.live().clone());
    let (subject, _, pred, value, target) = facts[0];
    let pred = PREDS[pred as usize % PREDS.len()];
    for q in [
        format!("FIND {} WHERE {pred} = {value}", TYPES[0]),
        format!("FIND {} WHERE related_to -> AKG:{target}", TYPES[1]),
        format!(r#"FIND song WHERE name = "Entity {subject}""#),
        format!("GET AKG:{subject} . related_to . name"),
    ] {
        // Multi-hop GETs emit values in record order; that order is pinned
        // exactly by `replayed_and_bootstrapped_replicas_serve_identical_records`,
        // so this property compares as sets.
        let a = booted_engine.query(&q).unwrap();
        let b = reference_engine.query(&q).unwrap();
        let mut entities = (a.entities().to_vec(), b.entities().to_vec());
        entities.0.sort_unstable();
        entities.1.sort_unstable();
        prop_assert_eq!(entities.0, entities.1, "KGQ entity parity: {}", q);
        let mut values = (a.values().to_vec(), b.values().to_vec());
        values.0.sort_unstable();
        values.1.sort_unstable();
        prop_assert_eq!(values.0, values.1, "KGQ value parity: {}", q);
    }
}

proptest! {
    /// For any generated world split at any point into "checkpointed
    /// prefix" + "log tail", a replica bootstrapped from the newest
    /// checkpoint plus tail replay is parity-equal to a replica that
    /// replayed the whole history from LSN 0.
    #[test]
    fn bootstrap_from_checkpoint_plus_tail_matches_full_replay(
        facts in fact_strategy(),
        split in 0usize..40,
    ) {
        let dir = temp_dir("prop");
        let log = Arc::new(OperationLog::in_memory());
        let writer = writer_over(&log);
        let ckpt = CheckpointWriter::new(&writer, &dir);

        let split = split % (facts.len() + 1);
        commit_facts(&writer, &facts[..split]);
        let receipt = ckpt.checkpoint().unwrap();
        prop_assert_eq!(receipt.watermark, log.head(), "exact watermark");
        commit_facts(&writer, &facts[split..]);
        // Finish with the wholesale retraction of the volatile source, so
        // the tail exercises the Deleted payload path too.
        writer
            .commit(
                OpKind::RetractSource(SourceId(2)),
                WriteBatch::new().retract_source(SourceId(2)),
            )
            .unwrap();

        // Reference: full replay from LSN 0, untouched by checkpoints.
        let mut replayed = LiveReplica::new(4, Arc::clone(&log));
        replayed.catch_up().unwrap();

        let booted = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).unwrap();
        prop_assert_eq!(booted.watermark(), log.head());
        prop_assert_eq!(booted.lag(), 0);
        assert_replica_parity(&booted, &replayed, &facts);
        fs::remove_dir_all(&dir).ok();
    }

    /// Compaction does not change what a bootstrapped replica serves: a
    /// replica restored from checkpoint + compacted tail equals one that
    /// replayed the full, uncompacted history — and once the prefix is
    /// gone, a from-zero replay is correctly refused rather than served
    /// with a silent gap.
    #[test]
    fn post_compaction_bootstrap_matches_uncompacted_replay(
        facts in fact_strategy(),
        split in 0usize..40,
    ) {
        let dir = temp_dir("compact");
        let log = Arc::new(OperationLog::in_memory());
        let writer = writer_over(&log);
        let ckpt = CheckpointWriter::new(&writer, &dir).keep_last(1);

        let split = split % (facts.len() + 1);
        commit_facts(&writer, &facts[..split]);
        // Reference replica replays the full history while it still exists.
        let mut replayed = LiveReplica::new(4, Arc::clone(&log));
        replayed.catch_up().unwrap();

        let receipt = ckpt.checkpoint_and_compact().unwrap();
        prop_assert_eq!(log.compacted_through(), receipt.watermark);
        commit_facts(&writer, &facts[split..]);
        replayed.catch_up().unwrap();

        let booted = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).unwrap();
        prop_assert_eq!(booted.watermark(), log.head());
        assert_replica_parity(&booted, &replayed, &facts);

        // A naive from-zero replay must now fail loudly (the prefix is
        // compacted away), not serve a partial view.
        if log.compacted_through() > Lsn::ZERO {
            let mut naive = LiveReplica::new(2, Arc::clone(&log));
            prop_assert!(naive.catch_up().is_err(), "gap must be detected");
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// Every replica of one log serves the same record — fact order included —
/// however it started: one replayed from LSN 0 and one bootstrapped from a
/// checkpoint plus the tail answer point reads, and the multi-hop `GET`s
/// built on them, identically.
#[test]
fn replayed_and_bootstrapped_replicas_serve_identical_records() {
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let fact =
        |s: u64, p: &str, v: Value| ExtendedTriple::simple(EntityId(s), intern(p), v, meta());
    let edge = |s: u64, target: u64| fact(s, "related_to", Value::Entity(EntityId(target)));
    let ids = [1u64, 2, 3, 4, 5, 9];
    let dir = temp_dir("order");
    let log = Arc::new(OperationLog::in_memory());
    let writer = writer_over(&log);
    let commit = |batch: WriteBatch| {
        writer.commit(OpKind::Upsert, batch).unwrap();
    };
    let named = ids.iter().fold(WriteBatch::new(), |batch, &i| {
        batch.named_entity(
            EntityId(i),
            &format!("Entity {i}"),
            "song",
            SourceId(1),
            0.9,
        )
    });
    // Entity 4 references 9 first, so the index interns 9 ahead of
    // the values entity 1 gains below.
    commit(named.upsert(edge(4, 9)));
    // Entity 1 gains several facts under one predicate, out of value
    // order, one commit each — some before the checkpoint, one after.
    for (target, genre) in [(5, "rock"), (2, "jazz"), (9, "blues")] {
        commit(WriteBatch::new().upsert(edge(1, target)).upsert(fact(
            1,
            "genre",
            Value::str(genre),
        )));
    }
    CheckpointWriter::new(&writer, &dir).checkpoint().unwrap();
    commit(
        WriteBatch::new()
            .upsert(edge(1, 3))
            .upsert(fact(1, "genre", Value::str("ambient"))),
    );

    let mut replayed = LiveReplica::new(1, Arc::clone(&log));
    replayed.catch_up().unwrap();
    let booted = LiveReplica::bootstrap(1, &dir, Arc::clone(&log)).unwrap();
    assert_eq!(booted.watermark(), replayed.watermark());
    for id in ids.map(EntityId) {
        assert_eq!(
            GraphRead::record(&booted, id),
            GraphRead::record(&replayed, id),
            "record {id:?}"
        );
    }
    let q = "GET AKG:1 . related_to . name";
    let answer = |replica: &LiveReplica| QueryEngine::new(replica.live().clone()).query(q).unwrap();
    let expected = answer(&replayed);
    assert_eq!(expected.values().len(), 4, "{q}");
    assert_eq!(answer(&booted), expected, "{q}");
    fs::remove_dir_all(&dir).ok();
}

/// Commit entity `i`, a named song with an `Int` rank, as one op.
fn commit_entity(writer: &LoggedWriter, i: u64) {
    writer
        .commit(
            OpKind::Upsert,
            WriteBatch::new()
                .named_entity(
                    EntityId(i),
                    &format!("Entity {i}"),
                    "song",
                    SourceId(1),
                    0.9,
                )
                .upsert(ExtendedTriple::simple(
                    EntityId(i),
                    intern("rank"),
                    Value::Int((i % 7) as i64),
                    FactMeta::from_source(SourceId(1), 0.9),
                )),
        )
        .unwrap();
}

/// A checkpointer that crashes mid-write leaves a torn artifact: the
/// newest file fails verification, and bootstrap falls back to the
/// previous valid checkpoint, replaying the longer tail instead.
#[test]
fn torn_newest_checkpoint_falls_back_to_previous_valid_one() {
    let dir = temp_dir("torn");
    let log = Arc::new(OperationLog::in_memory());
    let writer = writer_over(&log);
    let ckpt = CheckpointWriter::new(&writer, &dir);

    for i in 1..=10 {
        commit_entity(&writer, i);
    }
    let good = ckpt.checkpoint().unwrap();
    for i in 11..=20 {
        commit_entity(&writer, i);
    }
    let newest = ckpt.checkpoint().unwrap();
    for i in 21..=25 {
        commit_entity(&writer, i);
    }

    // Tear the newest artifact as a crashed writer would: a prefix of
    // the file exists, the tail (including the trailing manifest) is gone.
    let bytes = fs::read(&newest.path).unwrap();
    fs::write(&newest.path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(
        checkpoint::load(&newest.path).is_err(),
        "torn artifact must fail verification"
    );

    let booted = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).unwrap();
    assert_eq!(booted.watermark(), log.head());
    let mut replayed = LiveReplica::new(4, Arc::clone(&log));
    replayed.catch_up().unwrap();
    let probe = ProbeKey::Type(intern("song"));
    assert_eq!(booted.postings(&probe), replayed.postings(&probe));
    for i in 1..=25 {
        assert_eq!(
            flat_record(&booted, EntityId(i)),
            flat_record(&replayed, EntityId(i)),
            "record parity for entity {i}"
        );
    }
    // Sanity: the fallback really was the older artifact, not a replay
    // from zero — it is still valid and at the expected watermark.
    let loaded = checkpoint::load(&good.path).unwrap();
    assert_eq!(loaded.watermark, good.watermark);

    // With every artifact torn, bootstrap degrades to full replay (the
    // log still holds the whole history).
    fs::write(&good.path, &bytes[..bytes.len() / 3]).unwrap();
    let full = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).unwrap();
    assert_eq!(full.watermark(), log.head());
    assert_eq!(full.postings(&probe), replayed.postings(&probe));
    fs::remove_dir_all(&dir).ok();
}

/// One flipped bit in the newest artifact's manifest turns its
/// `"watermark":20` into `21`. Its sections still verify, so only the
/// manifest's checksum, or its disagreement with the file name, keeps
/// bootstrap from resuming at op 22 over an index that lacks op 21: the
/// booted replica must equal a full replay.
#[test]
fn a_flipped_manifest_watermark_is_not_trusted() {
    let dir = temp_dir("flip");
    let log = Arc::new(OperationLog::in_memory());
    let writer = writer_over(&log);
    let ckpt = CheckpointWriter::new(&writer, &dir);
    for i in 1..=10 {
        commit_entity(&writer, i);
    }
    ckpt.checkpoint().unwrap();
    for i in 11..=20 {
        commit_entity(&writer, i);
    }
    let newest = ckpt.checkpoint().unwrap();
    assert_eq!(newest.watermark, Lsn(20));
    for i in 21..=25 {
        commit_entity(&writer, i);
    }

    let mut bytes = fs::read(&newest.path).unwrap();
    let field = b"\"watermark\":20";
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("the manifest names its watermark")
        + field.len()
        - 1;
    bytes[at] ^= 1;
    fs::write(&newest.path, &bytes).unwrap();

    let booted = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).unwrap();
    let mut replayed = LiveReplica::new(4, Arc::clone(&log));
    replayed.catch_up().unwrap();
    assert_eq!(booted.watermark(), log.head());
    let probe = ProbeKey::Type(intern("song"));
    assert_eq!(booted.postings(&probe), replayed.postings(&probe));
    for i in 1..=25 {
        assert_eq!(
            flat_record(&booted, EntityId(i)),
            flat_record(&replayed, EntityId(i)),
            "record parity for entity {i}"
        );
    }
    assert!(
        checkpoint::load(&newest.path).is_err(),
        "a flipped manifest must fail verification"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A compacted log whose checkpoints were all lost cannot be
/// bootstrapped — that is a hard error, never a silently truncated
/// replica.
#[test]
fn compacted_log_without_usable_checkpoint_is_a_hard_error() {
    let dir = temp_dir("lost");
    let log = Arc::new(OperationLog::in_memory());
    let writer = writer_over(&log);
    let ckpt = CheckpointWriter::new(&writer, &dir).keep_last(1);
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    for i in 1..=8u64 {
        writer
            .commit(
                OpKind::Upsert,
                WriteBatch::new().upsert(ExtendedTriple::simple(
                    EntityId(i),
                    intern("name"),
                    Value::str(format!("E{i}")),
                    meta(),
                )),
            )
            .unwrap();
    }
    ckpt.checkpoint_and_compact().unwrap();
    assert!(log.compacted_through() > Lsn::ZERO);
    for path in checkpoint::artifacts(&dir)
        .unwrap()
        .into_iter()
        .map(|info| info.path)
    {
        fs::remove_file(path).unwrap();
    }
    let err = LiveReplica::bootstrap(4, &dir, Arc::clone(&log)).map(|_| ());
    assert!(
        err.is_err(),
        "compacted history with no checkpoint: {err:?}"
    );
    fs::remove_dir_all(&dir).ok();
}
