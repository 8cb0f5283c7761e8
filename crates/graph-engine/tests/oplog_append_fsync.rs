//! A durable log survives a failed append.
//!
//! An append can fail after its frame reached the file: the `fsync` of
//! `FlushPolicy::Fsync` fails, or the write is short. The log then cuts
//! the file back to its last acknowledged frame, so the next append takes
//! the same LSN and a reopen sees a dense log; a log that cannot cut the
//! file back refuses every later append. The drill arms
//! `oplog::append_fsync`, which is unscoped — armed, it fires in whichever
//! log of the process syncs next — so it has a binary, and a single test,
//! to itself.

use std::fs;

use saga_core::fail::{self, sites, FailAction};
use saga_core::{intern, Delta, DeltaFact, EntityId, Lsn, SagaError, Value};
use saga_graph::{FlushPolicy, OpKind, OperationLog};

fn upsert(entity: u64) -> Vec<Delta> {
    vec![Delta {
        entity: EntityId(entity),
        added: vec![DeltaFact {
            predicate: intern("name"),
            object: Value::str(format!("Entity {entity}")),
        }],
        removed: Vec::new(),
    }]
}

#[test]
fn a_failed_fsync_leaves_no_frame_behind() {
    let path = std::env::temp_dir().join(format!("saga_append_fsync_{}.oplog", std::process::id()));
    let _ = fs::remove_file(&path);
    let log = OperationLog::durable_with(&path, FlushPolicy::Fsync).unwrap();
    assert_eq!(log.append_op(OpKind::Upsert, upsert(1)).unwrap(), Lsn(1));
    let acknowledged = fs::metadata(&path).unwrap().len();

    // The frame is written, its fsync fails: the append is an error and
    // its bytes are cut back off the file.
    fail::configure(sites::OPLOG_APPEND_FSYNC, FailAction::error().times(1));
    log.append_op(OpKind::Upsert, upsert(2))
        .expect_err("the injected fsync error reaches the caller");
    assert_eq!(fs::metadata(&path).unwrap().len(), acknowledged);
    assert_eq!(log.head(), Lsn(1));
    assert_eq!(log.append_op(OpKind::Upsert, upsert(3)).unwrap(), Lsn(2));
    drop(log);

    let reopened = OperationLog::durable_with(&path, FlushPolicy::Fsync)
        .expect("a log whose append failed reopens");
    assert_eq!(reopened.head(), Lsn(2));
    assert_eq!(reopened.truncated_tail_bytes(), 0);
    let deltas: Vec<Vec<Delta>> = reopened
        .read_after(Lsn::ZERO)
        .into_iter()
        .map(|op| op.deltas)
        .collect();
    assert_eq!(deltas, vec![upsert(1), upsert(3)], "the failed op is gone");

    // The fsync that would make the cut durable fails too: the log can no
    // longer vouch for its file and refuses every later append.
    fail::configure(sites::OPLOG_APPEND_FSYNC, FailAction::error().times(2));
    reopened
        .append_op(OpKind::Upsert, upsert(4))
        .expect_err("the injected fsync error reaches the caller");
    fail::clear_all();
    match reopened.append_op(OpKind::Upsert, upsert(5)) {
        Err(SagaError::Storage(msg)) => assert!(msg.contains("refuses appends"), "{msg}"),
        other => panic!("a poisoned log must refuse appends, got {other:?}"),
    }
    assert_eq!(reopened.head(), Lsn(2));
    drop(reopened);

    // A fresh open reads whatever the file holds and appends again.
    let third = OperationLog::durable(&path).unwrap();
    assert_eq!(third.head(), Lsn(2));
    assert_eq!(third.append_op(OpKind::Upsert, upsert(6)).unwrap(), Lsn(3));
    let _ = fs::remove_file(&path);
}
