//! The restart: with the server and the fleet gone, cold-start a replica
//! from what the run left on disk — by replaying the full log from LSN 0
//! and by bootstrapping from the newest checkpoint plus the log tail —
//! and check that both reach the state the oracle predicts.
//!
//! Repeatability rule 1: no restart timing is reported from one shot.
//! The two paths alternate in a quiesced process, each replica is dropped
//! before the next starts, the first rep of each is discarded and the
//! median of the rest is reported.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saga_core::{checkpoint, EntityId, GraphRead, Lsn, Result, SagaError};
use saga_graph::OperationLog;
use saga_live::LiveReplica;

use crate::drive::Ledger;
use crate::run::Checks;
use crate::script::FinalState;
use crate::stack::{CKPT_DIR, LOG_FILE, SHARDS};

/// Timed reps of each path in the traced run, after one discarded.
pub const REPS: usize = 5;
/// The newest checkpoint must cover at least this share of the history,
/// so that a bootstrap replays a tail of at most the rest.
pub const CHECKPOINT_MIN_PERCENT: u64 = 95;

/// What the restart measured: one entry per timed rep.
pub struct Restart {
    /// `OperationLog::durable(full)`: reading and parsing every line.
    pub open: Vec<Duration>,
    /// An empty replica applying the history up to the newest
    /// checkpoint's watermark.
    pub apply: Vec<Duration>,
    /// The same replica applying the tail past that watermark.
    pub tail: Vec<Duration>,
    /// `checkpoint::load_latest`, on its own.
    pub load: Vec<Duration>,
    /// `OperationLog::durable(compacted)` + `LiveReplica::bootstrap`
    /// (newest checkpoint + tail) to serving.
    pub bootstrap: Vec<Duration>,
    /// Operations in the full log.
    pub ops: u64,
    /// Fact-deltas in the full log.
    pub deltas: u64,
    /// The replica the last replay built.
    pub replica: Option<LiveReplica>,
}

impl Restart {
    /// Open + apply + tail of each rep: a cold start by replay from LSN 0.
    pub fn replay(&self) -> Vec<Duration> {
        (0..self.open.len())
            .map(|i| self.open[i] + self.apply[i] + self.tail[i])
            .collect()
    }
}

/// What a restarted replica serves, for comparing the two paths.
#[derive(PartialEq, Debug)]
struct Served {
    entities: usize,
    watermark: Lsn,
    postings: Vec<Vec<EntityId>>,
}

fn served(replica: &LiveReplica, expect: &FinalState) -> Served {
    Served {
        entities: replica.live().len(),
        watermark: replica.watermark(),
        postings: expect
            .postings
            .iter()
            .map(|(probe, _)| replica.postings(probe))
            .collect(),
    }
}

/// Cold-start from the state under `dir`: one untimed rep each way,
/// whose replicas are checked against the acknowledgements and the
/// oracle, then `reps` timed reps each way.
pub fn restart(
    dir: &Path,
    ledger: &Ledger,
    expect: &FinalState,
    reps: usize,
    checks: &mut Checks,
) -> Result<Restart> {
    let full = dir.join(LOG_FILE);
    let ckpt_dir = dir.join(CKPT_DIR);
    let newest = checkpoint::artifacts(&ckpt_dir)?
        .last()
        .map(|info| info.watermark)
        .ok_or_else(|| SagaError::Storage("restart found no checkpoint".to_string()))?;
    // The compacted twin of the log: a copy with the prefix the newest
    // checkpoint covers dropped. The live log is never compacted.
    let compacted = dir.join("compacted.jsonl");
    std::fs::copy(&full, &compacted)?;
    OperationLog::durable(&compacted)?.compact_to(newest)?;

    let mut out = Restart {
        open: Vec::with_capacity(reps),
        apply: Vec::with_capacity(reps),
        tail: Vec::with_capacity(reps),
        load: Vec::with_capacity(reps),
        bootstrap: Vec::with_capacity(reps),
        ops: 0,
        deltas: 0,
        replica: None,
    };
    for rep in 0..=reps {
        let t0 = Instant::now();
        drop(checkpoint::load_latest(&ckpt_dir)?);
        let t1 = Instant::now();
        let log = Arc::new(OperationLog::durable(&compacted)?);
        let booted = LiveReplica::bootstrap(SHARDS, &ckpt_dir, log)?;
        let t2 = Instant::now();
        let booted_serves = (rep == 0).then(|| served(&booted, expect));
        drop(booted);

        let t3 = Instant::now();
        let log = Arc::new(OperationLog::durable(&full)?);
        let t4 = Instant::now();
        let mut replica = LiveReplica::new(SHARDS, Arc::clone(&log));
        while replica.watermark() < newest {
            let room = (newest.0 - replica.watermark().0).min(1024) as usize;
            replica.catch_up_batch(room)?;
        }
        let t5 = Instant::now();
        replica.catch_up()?;
        let t6 = Instant::now();

        if let Some(booted) = booted_serves {
            // Acked ⇒ durable: LSNs are dense from 1, so a reopened head
            // equal to both the highest acked LSN and the ack count
            // means every acknowledged commit is in the file.
            let head = log.head();
            checks.check(head == ledger.last_lsn && head.0 == ledger.commits, || {
                format!(
                    "reopened log head {} but {} commits were acked through lsn {}",
                    head.0, ledger.commits, ledger.last_lsn.0
                )
            });
            checks.check(newest.0 * 100 >= head.0 * CHECKPOINT_MIN_PERCENT, || {
                format!(
                    "newest checkpoint at lsn {} covers less than {CHECKPOINT_MIN_PERCENT} % of {} ops",
                    newest.0, head.0
                )
            });
            let replayed = served(&replica, expect);
            checks.check(replayed.entities == expect.entities, || {
                format!(
                    "replayed replica holds {} entities, the oracle {}",
                    replayed.entities, expect.entities
                )
            });
            for ((probe, want), got) in expect.postings.iter().zip(&replayed.postings) {
                checks.check(got == want, || {
                    format!("replayed postings of {probe:?} differ from the oracle's")
                });
            }
            checks.check(booted == replayed, || {
                format!(
                    "bootstrapped replica ({} entities at lsn {}) differs from the replayed one \
                     ({} entities at lsn {})",
                    booted.entities, booted.watermark.0, replayed.entities, replayed.watermark.0
                )
            });
            let ops = log.read_after(Lsn::ZERO);
            out.ops = ops.len() as u64;
            out.deltas = ops
                .iter()
                .flat_map(|op| &op.deltas)
                .map(|d| (d.added.len() + d.removed.len()) as u64)
                .sum();
        } else {
            out.load.push(t1 - t0);
            out.bootstrap.push(t2 - t1);
            out.open.push(t4 - t3);
            out.apply.push(t5 - t4);
            out.tail.push(t6 - t5);
        }
        // Each replica is dropped before the next rep allocates; the
        // last one is handed back.
        out.replica = (rep == reps).then_some(replica);
    }
    Ok(out)
}
