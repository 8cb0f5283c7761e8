//! The closed-loop clients: run a script's steps against the server,
//! verify every answer against the oracle's, and record what happened.
//! Closed loop, because every caller modelled here waits for its reply.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use saga_core::{EntityId, Lsn};
use saga_live::QueryResult;
use saga_net::{PoolConfig, Request, Response, SagaClient, SagaPool, WireBatch};

use crate::script::{ReadOp, Script, Step, WriteStep};
use crate::trace::Tracer;

/// Requests in flight on the pipelined connection of `read_wide`.
pub const WINDOW: usize = 32;
/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 5;

/// What the server acknowledged, counted exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Commits acknowledged.
    pub commits: u64,
    /// Highest acknowledged LSN.
    pub last_lsn: Lsn,
    /// Index facts the acknowledged commits added.
    pub added: u64,
    /// Index facts the acknowledged commits removed.
    pub removed: u64,
}

impl Ledger {
    /// Count one acknowledged commit.
    pub fn ack(&mut self, lsn: Lsn, facts_added: u64, facts_removed: u64) {
        self.commits += 1;
        self.last_lsn = self.last_lsn.max(lsn);
        self.added += facts_added;
        self.removed += facts_removed;
    }

    /// Fact-deltas shipped through the log.
    pub fn deltas(&self) -> u64 {
        self.added + self.removed
    }

    /// Net facts these commits left alive (a phase that retracts more
    /// than it adds is negative).
    pub fn live(&self) -> i64 {
        self.added as i64 - self.removed as i64
    }

    /// Fold another client's ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.commits += other.commits;
        self.last_lsn = self.last_lsn.max(other.last_lsn);
        self.added += other.added;
        self.removed += other.removed;
    }
}

/// One completed step.
#[derive(Clone, Copy, Debug)]
pub struct StepSample {
    /// Completion time since the phase began.
    pub done: Duration,
    /// Client-side latency, call to verified answer.
    pub latency: Duration,
}

/// Everything one client observed during one phase.
#[derive(Debug, Default)]
pub struct Recorder {
    /// One sample per step, in completion order.
    pub steps: Vec<StepSample>,
    /// Round trips of 1-entity commits.
    pub commits: Vec<Duration>,
    /// Commit-ack → session read returning the committed entity.
    pub visibles: Vec<Duration>,
    /// Requests the bench asked its pool for (a commit is two: the
    /// fence ping and the commit). What the pool sent beyond is retries.
    pub pool_requests: u64,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that errored, were shed, or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Acknowledged commits.
    pub ledger: Ledger,
}

impl Recorder {
    /// A recorder with room for `steps` samples, so recording never
    /// reallocates inside a measured phase.
    pub fn with_capacity(steps: usize) -> Recorder {
        Recorder {
            steps: Vec::with_capacity(steps),
            ..Recorder::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Fold another client's observations into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.steps.extend(other.steps);
        self.commits.extend(other.commits);
        self.visibles.extend(other.visibles);
        self.pool_requests += other.pool_requests;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(KEPT_FAILURES);
        self.ledger.merge(&other.ledger);
    }
}

fn check_ids(got: &[EntityId], expect: &[EntityId]) -> Result<(), String> {
    if got == expect {
        Ok(())
    } else {
        Err(format!("expected ids {expect:?}, got {got:?}"))
    }
}

fn read_blocking(pool: &mut SagaPool, read: &ReadOp, rec: &mut Recorder) -> Result<(), String> {
    rec.pool_requests += 1;
    match read {
        ReadOp::Query { text, expect } => {
            let result = pool.query(text).map_err(|e| e.to_string())?;
            check_ids(result.entities(), expect)
        }
        ReadOp::Resolve { name, expect } => {
            let ids = pool.resolve_name(name).map_err(|e| e.to_string())?;
            check_ids(&ids, expect)
        }
        ReadOp::Record { id, facts } => match pool.record(*id).map_err(|e| e.to_string())? {
            Some(record) if record.id == *id && record.triples.len() == *facts => Ok(()),
            other => Err(format!(
                "record {}: expected {facts} facts, got {:?}",
                id.0,
                other.map(|r| r.triples.len())
            )),
        },
    }
}

/// Commit `batch`; on success the ledger sees it.
fn commit_blocking(
    pool: &mut SagaPool,
    batch: WireBatch,
    rec: &mut Recorder,
) -> Result<(), String> {
    rec.pool_requests += 1 + u64::from(PoolConfig::default().fence_commits);
    let committed = pool.commit(batch).map_err(|e| e.to_string())?;
    rec.ledger.ack(
        committed.lsn,
        committed.facts_added,
        committed.facts_removed,
    );
    Ok(())
}

fn write_blocking(
    pool: &mut SagaPool,
    write: &WriteStep,
    rec: &mut Recorder,
    tracer: &mut Tracer,
    parent: Option<u32>,
    request: u64,
) -> Result<(), String> {
    let t0 = Instant::now();
    commit_blocking(pool, write.batch.clone(), rec)?;
    let acked = Instant::now();
    tracer.span("net.pool.commit", request, parent, t0, acked);
    rec.pool_requests += 1;
    let result = pool
        .query_with_session(&write.query)
        .map_err(|e| e.to_string())?;
    // Every session read must contain its own write — and nothing else.
    check_ids(result.entities(), &[write.id])?;
    let seen = Instant::now();
    tracer.span("net.pool.session_query", request, parent, acked, seen);
    rec.commits.push(acked - t0);
    rec.visibles.push(seen - acked);
    Ok(())
}

/// Commit `batches` in order (the preload), one sample per batch.
pub fn run_batches(pool: &mut SagaPool, batches: &[WireBatch], epoch: Instant, rec: &mut Recorder) {
    for (i, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = commit_blocking(pool, batch.clone(), rec);
        let t1 = Instant::now();
        rec.attempted += 1;
        match outcome {
            Ok(()) => rec.steps.push(StepSample {
                done: t1 - epoch,
                latency: t1 - t0,
            }),
            Err(what) => rec.fail(format!("preload batch {i}: {what}")),
        }
    }
}

/// Run `steps` one at a time through `pool`, each verified before the
/// next is sent. `request_base` numbers the steps for the trace.
pub fn run_blocking(
    pool: &mut SagaPool,
    script: &Script,
    steps: &[Step],
    epoch: Instant,
    rec: &mut Recorder,
    tracer: &mut Tracer,
    request_base: u64,
) {
    for (i, step) in steps.iter().enumerate() {
        let request = request_base + i as u64;
        let t0 = Instant::now();
        let parent = tracer.reserve();
        let outcome = match step {
            Step::Read(at) => read_blocking(pool, &script.reads[*at as usize], rec),
            Step::Write(write) => write_blocking(pool, write, rec, tracer, parent, request),
            Step::Ingest(at) => commit_blocking(pool, script.churn[*at as usize].clone(), rec),
        };
        let t1 = Instant::now();
        tracer.fill(parent, "net.pool.call", request, t0, t1);
        rec.attempted += 1;
        match outcome {
            Ok(()) => rec.steps.push(StepSample {
                done: t1 - epoch,
                latency: t1 - t0,
            }),
            Err(what) => rec.fail(format!("step {request}: {what}")),
        }
    }
}

/// Run read `steps` with [`WINDOW`] requests in flight on one
/// connection; latency is send to verified answer.
pub fn run_pipelined(
    client: &mut SagaClient,
    script: &Script,
    steps: &[Step],
    epoch: Instant,
    rec: &mut Recorder,
    tracer: &mut Tracer,
    request_base: u64,
) {
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut next = 0usize;
    let read_of = |i: usize| match &steps[i] {
        Step::Read(at) => &script.reads[*at as usize],
        other => panic!("pipelined phases hold only reads, found {other:?}"),
    };
    while next < steps.len() || !inflight.is_empty() {
        while next < steps.len() && inflight.len() < WINDOW {
            let ReadOp::Query { text, .. } = read_of(next) else {
                panic!("pipelined phases hold only queries");
            };
            let request = Request::Query {
                text: text.clone(),
                session: None,
            };
            match client.send_buffered(&request) {
                Ok(id) => inflight.push_back((id, next, Instant::now())),
                Err(e) => {
                    rec.attempted += 1;
                    rec.fail(format!("step {}: send: {e}", request_base + next as u64));
                }
            }
            next += 1;
        }
        if inflight.is_empty() {
            continue;
        }
        let (id, response) = match client.flush().and_then(|()| client.recv_any()) {
            Ok(got) => got,
            Err(e) => {
                // The connection is gone: everything in flight and
                // everything not yet sent failed.
                let lost = (inflight.len() + steps.len() - next) as u64;
                rec.attempted += lost;
                rec.failed += lost - 1;
                rec.fail(format!("recv: {e}"));
                return;
            }
        };
        let t1 = Instant::now();
        let Some(at) = inflight.iter().position(|(sent, _, _)| *sent == id) else {
            rec.fail(format!("response for unknown request id {id}"));
            continue;
        };
        let (_, step, t0) = inflight.remove(at).expect("position just found");
        let request = request_base + step as u64;
        rec.attempted += 1;
        let ReadOp::Query { expect, .. } = read_of(step) else {
            unreachable!("checked at send");
        };
        let outcome = match response {
            Response::Result(QueryResult::Entities(ids)) => check_ids(&ids, expect),
            other => Err(format!("unexpected response {other:?}")),
        };
        tracer.span("net.client.pipelined_call", request, None, t0, t1);
        match outcome {
            Ok(()) => rec.steps.push(StepSample {
                done: t1 - epoch,
                latency: t1 - t0,
            }),
            Err(what) => rec.fail(format!("step {request}: {what}")),
        }
    }
}
