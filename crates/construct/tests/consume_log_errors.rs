//! Construction surfaces a log I/O error.
//!
//! `KnowledgeConstructor::consume` commits through a `LoggedWriter`, one op
//! per source, so a failed write-ahead append must come back as `Err` with
//! the failed source neither logged nor applied, the sources committed
//! before it still committed, and the next cycle must go through. The
//! drill arms `oplog::append_write`, which is unscoped — armed, it fires in
//! whichever log of the process appends next — so it has a binary, and a
//! single test, to itself.

use std::sync::Arc;

use parking_lot::RwLock;
use saga_construct::{KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch};
use saga_core::fail::{self, sites, FailAction};
use saga_core::{
    intern, EntityPayload, FactMeta, FxHashSet, IdGenerator, KnowledgeGraph, Lsn, SourceId, Value,
};
use saga_graph::{LoggedWriter, OperationLog};
use saga_ingest::SourceDelta;

/// Source `src` onboarding one artist.
fn onboard(src: u32, local: &str, name: &str) -> SourceBatch {
    let source = SourceId(src);
    let meta = FactMeta::from_source(source, 0.9);
    let mut artist = EntityPayload::new(source, local, intern("music_artist"));
    artist.push_simple(intern("type"), Value::str("music_artist"), meta.clone());
    artist.push_simple(intern("name"), Value::str(name), meta);
    SourceBatch {
        source,
        name: format!("src{src}"),
        delta: SourceDelta {
            added: vec![artist],
            ..Default::default()
        },
    }
}

fn writer() -> LoggedWriter {
    LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    )
}

#[test]
fn a_failed_append_fails_the_cycle_and_a_retry_commits() {
    let ctor = KnowledgeConstructor::new(FxHashSet::default());
    let consume = |writer: &LoggedWriter, id_gen: &IdGenerator, batches| {
        ctor.consume(
            writer,
            id_gen,
            batches,
            &RuleMatcher::default(),
            &LinkTableResolver,
        )
    };

    // One source: its append fails, then the retry commits.
    let w = writer();
    let id_gen = IdGenerator::starting_at(1);
    let cycle = || vec![onboard(1, "a1", "Billie Eilish")];
    fail::configure(sites::OPLOG_APPEND_WRITE, FailAction::error().times(1));
    consume(&w, &id_gen, cycle()).expect_err("the injected append error reaches the caller");
    assert_eq!(w.read().entity_count(), 0, "nothing applied");
    assert_eq!(w.log().head(), Lsn::ZERO, "nothing logged");

    let report = consume(&w, &id_gen, cycle()).expect("the retry commits");
    assert_eq!(report.new_entities, 1);
    assert_eq!(report.lsns, vec![Lsn(1)]);
    assert_eq!(w.read().entity_count(), 1);
    assert_eq!(w.log().head(), Lsn(1));

    // Two sources naming one artist: source 1 commits, source 2's append
    // fails. Source 1 stays committed; source 2 is neither linked nor
    // logged, and consuming it again merges it into source 1's entity.
    let w = writer();
    let id_gen = IdGenerator::starting_at(1);
    fail::configure(
        sites::OPLOG_APPEND_WRITE,
        FailAction::error().after(1).times(1),
    );
    let cycle = vec![
        onboard(1, "a1", "Billie Eilish"),
        onboard(2, "z9", "Bilie Eilish"),
    ];
    consume(&w, &id_gen, cycle).expect_err("source 2's append error reaches the caller");
    assert_eq!(w.log().head(), Lsn(1), "source 1 logged, source 2 not");
    {
        let kg = w.read();
        assert_eq!(kg.entity_count(), 1);
        assert!(
            kg.lookup_link(SourceId(1), "a1").is_some(),
            "source 1 stays committed"
        );
        assert_eq!(
            kg.lookup_link(SourceId(2), "z9"),
            None,
            "source 2 unapplied"
        );
    }

    let report = consume(&w, &id_gen, vec![onboard(2, "z9", "Bilie Eilish")])
        .expect("source 2 commits on its own");
    assert_eq!(report.lsns, vec![Lsn(2)]);
    assert_eq!(report.matched_existing, 1);
    let kg = w.read();
    assert_eq!(kg.entity_count(), 1, "one entity across both sources");
    assert_eq!(
        kg.lookup_link(SourceId(2), "z9"),
        kg.lookup_link(SourceId(1), "a1")
    );
}
