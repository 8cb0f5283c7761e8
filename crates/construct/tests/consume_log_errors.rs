//! Construction surfaces a log I/O error.
//!
//! `KnowledgeConstructor::consume` commits through a `LoggedWriter`, so a
//! failed write-ahead append must come back as `Err` with nothing logged
//! and nothing applied, and the next cycle must go through. The drill arms
//! `oplog::append_write`, which is unscoped — armed, it fires in whichever
//! log of the process appends next — so it has a binary to itself.

use std::sync::Arc;

use parking_lot::RwLock;
use saga_construct::{KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{
    intern, EntityPayload, FactMeta, FxHashSet, IdGenerator, KnowledgeGraph, Lsn, SourceId, Value,
};
use saga_graph::{LoggedWriter, OperationLog};
use saga_ingest::SourceDelta;

/// One source onboarding one artist.
fn cycle() -> Vec<SourceBatch> {
    let source = SourceId(1);
    let meta = FactMeta::from_source(source, 0.9);
    let mut artist = EntityPayload::new(source, "a1", intern("music_artist"));
    artist.push_simple(intern("type"), Value::str("music_artist"), meta.clone());
    artist.push_simple(intern("name"), Value::str("Billie Eilish"), meta);
    vec![SourceBatch {
        source,
        name: "src1".into(),
        delta: SourceDelta {
            added: vec![artist],
            ..Default::default()
        },
    }]
}

#[test]
fn a_failed_append_fails_the_cycle_and_a_retry_commits() {
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let id_gen = IdGenerator::starting_at(1);
    let ctor = KnowledgeConstructor::new(FxHashSet::default());
    let consume = || {
        ctor.consume(
            &writer,
            &id_gen,
            cycle(),
            &RuleMatcher::default(),
            &LinkTableResolver,
        )
    };

    fail::configure(sites::OPLOG_APPEND_WRITE, FailAction::error().times(1));
    consume().expect_err("the injected append error reaches the caller");
    assert_eq!(writer.read().entity_count(), 0, "nothing applied");
    assert_eq!(writer.log().head(), Lsn::ZERO, "nothing logged");

    let report = consume().expect("the retry commits");
    assert_eq!(report.new_entities, 1);
    assert_eq!(report.lsns, vec![Lsn(1)]);
    assert_eq!(writer.read().entity_count(), 1);
    assert_eq!(writer.log().head(), Lsn(1));
}
