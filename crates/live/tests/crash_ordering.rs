//! Crash ordering: the log is the source of truth.
//!
//! `LoggedWriter` appends to the log *before* applying, so a producer
//! that dies between the two loses nothing. The drills arm the
//! `writer::before_apply` failpoint, which fails a commit exactly there.
//! That site is unscoped — armed, it fires in whichever writer of the
//! process commits next — so these tests have a binary to themselves.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, GraphRead, KnowledgeGraph, Lsn, ProbeKey, SourceId,
    Value, WriteBatch,
};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_live::LiveReplica;

/// The failpoint registry is process-global; drills must not overlap.
/// Each arms one `.times(1)` error that its own next commit consumes, so
/// the registry needs no clearing behind a drill.
static DRILL_GATE: Mutex<()> = Mutex::new(());

fn writer() -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    )
}

/// Commit `batch` through a writer that "crashes" after the write-ahead
/// append: the commit fails and its apply never runs.
fn crash_after_append(writer: &LoggedWriter, batch: WriteBatch) {
    fail::configure(sites::WRITER_BEFORE_APPLY, FailAction::error().times(1));
    writer
        .commit(OpKind::Upsert, batch)
        .expect_err("the armed commit dies between append and apply");
}

#[test]
fn crashed_apply_is_still_in_the_log() {
    let _gate = DRILL_GATE.lock();
    let song = |e: u64, name: &str| {
        WriteBatch::new().named_entity(EntityId(e), name, "song", SourceId(1), 0.9)
    };
    let w = writer();
    w.commit(OpKind::Upsert, song(1, "Survivor")).unwrap();
    crash_after_append(&w, song(2, "Logged Only"));
    assert_eq!(w.log().head(), Lsn(2));
    assert!(!w.read().contains(EntityId(2)), "apply was skipped");
    let op = &w.log().read_after(Lsn(1))[0];
    assert_eq!(
        op.changed_entities(),
        vec![EntityId(2)],
        "log has the batch anyway"
    );
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

/// The logged batch replays into a parity-checked `LiveReplica` even
/// though the producer's own KG never saw the apply.
#[test]
fn crashed_apply_still_replays_from_the_log_into_a_replica() {
    let _gate = DRILL_GATE.lock();
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let batch_one = || {
        WriteBatch::new()
            .named_entity(EntityId(1), "Alpha", "song", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(1),
                intern("year"),
                Value::Int(2020),
                meta(),
            ))
    };
    let batch_two = || {
        WriteBatch::new()
            .named_entity(EntityId(2), "Beta", "song", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(2),
                intern("related_to"),
                Value::Entity(EntityId(1)),
                meta(),
            ))
            .mutate(EntityId(1), |rec| {
                for t in &mut rec.triples {
                    if t.predicate == intern("year") {
                        t.object = Value::Int(2021);
                    }
                }
            })
    };

    let writer = writer();
    let log = Arc::clone(writer.log());
    writer.commit(OpKind::Upsert, batch_one()).unwrap();
    crash_after_append(&writer, batch_two());
    assert!(
        !writer.read().contains(EntityId(2)),
        "apply really was skipped"
    );

    // A replica fed from the log alone sees BOTH commits…
    let mut replica = LiveReplica::new(2, Arc::clone(&log));
    replica.catch_up().unwrap();
    assert_eq!(replica.watermark(), log.head());

    // …and is parity-equal to a reference graph where nothing crashed.
    let mut reference = KnowledgeGraph::new();
    batch_one().commit(&mut reference);
    batch_two().commit(&mut reference);
    for id in [EntityId(1), EntityId(2)] {
        assert_eq!(
            flat_record(&replica, id),
            flat_record(&reference, id),
            "record parity for {id:?}"
        );
    }
    for probe in [
        ProbeKey::Type(intern("song")),
        ProbeKey::Name("beta".into()),
        ProbeKey::Edge(intern("related_to"), EntityId(1)),
        ProbeKey::Literal(intern("year"), Value::Int(2021)),
        ProbeKey::Literal(intern("year"), Value::Int(2020)),
    ] {
        assert_eq!(
            replica.postings(&probe),
            reference.postings(&probe),
            "posting parity for {probe:?}"
        );
    }
}
