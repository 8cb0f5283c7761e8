//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The harness may not edit the crates it measures, so a layer is timed
//! from outside by **replaying the same requests at each boundary
//! in-process**: a sample of the workload's own requests goes through
//! the client (`net.pool`), then through `Request::encode` …
//! `decode_response` (`net.protocol`), `FleetRouter` (`fleet.router`), a
//! pinned replica, a bare `LiveReplica`'s `QueryEngine` (`live.kgq`) and
//! the raw postings (`core.postings`); commits likewise through a twin
//! `LoggedWriter` (`graph.writer`) and a bare durable `OperationLog`
//! (`graph.oplog`). A layer's self time is its median span minus the
//! median span of the boundary below it for the same requests. Every
//! replay records a span whose `parent` is the outer boundary's span of
//! the same request; all spans land in `trace-<workload>.json`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_core::{
    intersect_views, Delta, GraphRead, KnowledgeGraph, Lsn, PostingsCursor, PostingsView, ProbeKey,
    Result, SagaError,
};
use saga_fleet::{FleetController, FleetRouter, RoutedRead};
use saga_graph::{IngestOp, LoggedWriter, OpKind, OperationLog};
use saga_live::{kgq, LiveReplica, Plan, QueryEngine};
use saga_net::protocol::{decode_request, decode_response, read_frame};
use saga_net::{Committed, Request, Response, WireBatch};

use crate::cold::{self, Restart};
use crate::run::{self, Checks, Live, Metric, Report, RunConfig};
use crate::script::{self, ReadOp, Script, Step, Workload};
use crate::stack::FLUSH_POLICY;
use crate::stats::{median, micros, percentile};
use crate::trace::Tracer;

/// Requests replayed at each inner boundary.
pub const LAYER_SAMPLE: usize = 2_000;
/// Ingest batches replayed at the writer and log boundaries.
pub const LAYER_COMMITS: usize = 400;
/// Pings timed on the bare client and on the pool.
pub const PINGS: usize = 2_000;
/// Times the restart checkpoint is published; with those of the phases,
/// the median stall is reported.
pub const CHECKPOINT_REPS: usize = 3;
/// Trace request ids of the in-process session waits.
const SESSION_REQUEST_BASE: u64 = 1 << 41;

/// One read to replay: which request it was, the span of the client call
/// that made it (if one did), and the read.
struct ReadSample<'a> {
    request: u64,
    parent: Option<u32>,
    read: &'a ReadOp,
}

/// One commit to replay.
struct CommitSample<'a> {
    request: u64,
    parent: Option<u32>,
    batch: &'a WireBatch,
}

/// Time one call into a layer and record its span.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    request: u64,
    parent: Option<u32>,
    into: &mut Vec<Duration>,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    let t1 = Instant::now();
    tracer.span(name, request, parent, t0, t1);
    into.push(t1 - t0);
    out
}

fn median_us(samples: &[Duration]) -> f64 {
    median(&micros(samples))
}

fn median_ns(samples: &[Duration]) -> f64 {
    median_us(samples) * 1e3
}

fn median_ms(samples: &[Duration]) -> f64 {
    median_us(samples) / 1e3
}

fn request_of(read: &ReadOp) -> Request {
    match read {
        ReadOp::Query { text, .. } => Request::Query {
            text: text.clone(),
            session: None,
        },
        ReadOp::Resolve { name, .. } => Request::ResolveName(name.clone()),
        ReadOp::Record { id, .. } => Request::Record(*id),
    }
}

/// What the server answers a read with, computed at the router boundary.
fn route(router: &FleetRouter, read: &ReadOp) -> Result<Response> {
    Ok(match read {
        ReadOp::Query { text, .. } => Response::Result(router.query(text)?),
        ReadOp::Resolve { name, .. } => Response::Entities(router.resolve_name(name)),
        ReadOp::Record { id, .. } => Response::Record(router.record(*id)),
    })
}

/// The same read on a replica that is already picked and pinned.
fn route_pinned(pinned: &RoutedRead, read: &ReadOp) -> Result<Response> {
    Ok(match read {
        ReadOp::Query { text, .. } => Response::Result(pinned.query(text)?),
        ReadOp::Resolve { name, .. } => Response::Entities(pinned.graph().resolve_name(name)),
        ReadOp::Record { id, .. } => Response::Record(pinned.graph().record(*id)),
    })
}

/// `n` pings on every connection at once, one thread per connection;
/// returns each ping's start and end.
fn ping_together<C: Send>(
    conns: &mut [C],
    n: usize,
    ping: impl Fn(&mut C) -> Result<()> + Sync,
) -> Result<Vec<(Instant, Instant)>> {
    let ping = &ping;
    let per_conn: Vec<Result<Vec<(Instant, Instant)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    (0..n)
                        .map(|_| {
                            let t0 = Instant::now();
                            ping(conn)?;
                            Ok((t0, Instant::now()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(n * conns.len());
    for pings in per_conn {
        all.extend(pings?);
    }
    Ok(all)
}

/// Encode/decode timings of request/response pairs.
#[derive(Default)]
struct Codec {
    req_encode: Vec<Duration>,
    req_decode: Vec<Duration>,
    resp_encode: Vec<Duration>,
    resp_decode: Vec<Duration>,
    resp_bytes: u64,
}

impl Codec {
    /// Run one captured pair through the four codec calls.
    fn pair(
        &mut self,
        tracer: &mut Tracer,
        request_id: u64,
        parent: Option<u32>,
        request: &Request,
        response: &Response,
    ) -> Result<()> {
        let bytes = timed(
            tracer,
            "net.protocol.req_encode",
            request_id,
            parent,
            &mut self.req_encode,
            || request.encode(request_id),
        );
        let decoded = timed(
            tracer,
            "net.protocol.req_decode",
            request_id,
            parent,
            &mut self.req_decode,
            || {
                let frame = read_frame(&mut bytes.as_slice())
                    .map_err(|e| SagaError::Storage(e.to_string()))?
                    .ok_or_else(|| SagaError::Storage("empty request frame".to_string()))?;
                decode_request(&frame)
            },
        )?;
        if decoded != *request {
            return Err(SagaError::Storage(
                "request did not survive its own codec".to_string(),
            ));
        }
        let bytes = timed(
            tracer,
            "net.protocol.resp_encode",
            request_id,
            parent,
            &mut self.resp_encode,
            || response.encode(request_id),
        );
        self.resp_bytes += bytes.len() as u64;
        let decoded = timed(
            tracer,
            "net.protocol.resp_decode",
            request_id,
            parent,
            &mut self.resp_decode,
            || {
                let frame = read_frame(&mut bytes.as_slice())
                    .map_err(|e| SagaError::Storage(e.to_string()))?
                    .ok_or_else(|| SagaError::Storage("empty response frame".to_string()))?;
                decode_response(&frame)
            },
        )?;
        if decoded != *response {
            return Err(SagaError::Storage(
                "response did not survive its own codec".to_string(),
            ));
        }
        Ok(())
    }

    /// Sum of the four medians, in microseconds.
    fn total_us(&self) -> f64 {
        median_us(&self.req_encode)
            + median_us(&self.req_decode)
            + median_us(&self.resp_encode)
            + median_us(&self.resp_decode)
    }
}

/// Everything measured while the stack was still up.
struct Online {
    ping_rtt: Vec<Duration>,
    pool_ping: Vec<Duration>,
    read_codec: Codec,
    commit_codec: Codec,
    router_query: Vec<Duration>,
    pinned_query: Vec<Duration>,
    session_wait: Vec<Duration>,
    lag_skips: u64,
    session_skips: u64,
    requests_served: u64,
    requests_shed: u64,
    pool_requests: u64,
    transport_failures: u64,
    plan_hits: u64,
    plan_compiles: u64,
    index_bytes: usize,
}

fn online(
    live: &mut Live,
    script: &Script,
    reads: &[ReadSample<'_>],
    commits: &[CommitSample<'_>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Online> {
    let router = Arc::clone(&live.stack.router);
    let clients = script.workload.clients();

    // Round trips with nothing to do, under the workload's own
    // concurrency (one connection per client thread, all pinging at
    // once): bare clients first, then the pools.
    let mut bare = (0..clients)
        .map(|_| live.stack.client())
        .collect::<Result<Vec<_>>>()?;
    let per_client = PINGS / bare.len();
    let mut ping_rtt = Vec::with_capacity(PINGS);
    let mut pool_ping = Vec::with_capacity(PINGS);
    for (i, (t0, t1)) in ping_together(&mut bare, per_client, |c| c.ping())?
        .into_iter()
        .enumerate()
    {
        tracer.span("net.client.ping", i as u64, None, t0, t1);
        ping_rtt.push(t1 - t0);
    }
    drop(bare);
    for (i, (t0, t1)) in ping_together(&mut live.pools[..clients], per_client, |p| p.ping())?
        .into_iter()
        .enumerate()
    {
        tracer.span("net.pool.ping", i as u64, None, t0, t1);
        pool_ping.push(t1 - t0);
    }

    // The read sample at the router boundary, at a pinned replica, and
    // through the codec on the captured request/response pairs.
    let mut read_codec = Codec::default();
    let mut router_query = Vec::with_capacity(reads.len());
    let mut pinned_query = Vec::with_capacity(reads.len());
    for sample in reads {
        let response = timed(
            tracer,
            "fleet.router.query",
            sample.request,
            sample.parent,
            &mut router_query,
            || route(&router, sample.read),
        )?;
        let pinned = router.read()?;
        let again = timed(
            tracer,
            "fleet.routed_read.query",
            sample.request,
            sample.parent,
            &mut pinned_query,
            || route_pinned(&pinned, sample.read),
        )?;
        drop(pinned);
        checks.check(again == response, || {
            format!(
                "request {}: router and pinned replica disagree",
                sample.request
            )
        });
        read_codec.pair(
            tracer,
            sample.request,
            sample.parent,
            &request_of(sample.read),
            &response,
        )?;
    }

    // The commit sample through the codec (the acknowledgement's numbers
    // do not change its encoded shape).
    let mut commit_codec = Codec::default();
    for sample in commits {
        let response = Response::Committed(Committed {
            lsn: live.stack.head(),
            token: saga_core::SessionToken::at(live.stack.head()),
            facts_added: sample.batch.len() as u64,
            facts_removed: 0,
        });
        commit_codec.pair(
            tracer,
            sample.request,
            sample.parent,
            &Request::Commit(sample.batch.clone()),
            &response,
        )?;
    }

    // Commit → session read with no wire in between: what the session
    // wait costs at the router. These commits are the log tail past the
    // restart checkpoint.
    let mut session_wait = Vec::with_capacity(script.session_waits.len());
    for (k, write) in script.session_waits.iter().enumerate() {
        let commit = live
            .stack
            .writer
            .commit(OpKind::Upsert, write.batch.clone().into_write_batch())?;
        live.ledger.ack(
            commit.lsn,
            commit.receipt.facts_added as u64,
            commit.receipt.facts_removed as u64,
        );
        let token = commit.session_token();
        let result = timed(
            tracer,
            "fleet.router.query_with_session",
            SESSION_REQUEST_BASE + k as u64,
            None,
            &mut session_wait,
            || router.query_with_session(&write.query, &token),
        )?;
        checks.check(result.entities() == [write.id], || {
            format!("in-process session read {k} missed its own write")
        });
    }

    // Counters the layers keep themselves.
    let fleet = FleetController::new(Arc::clone(&live.stack.fleet)).stats();
    let server = live.stack.server.stats();
    let (mut pool_requests, mut transport_failures) = (0, 0);
    for pool in &live.pools {
        for endpoint in pool.endpoint_stats() {
            pool_requests += endpoint.requests;
            transport_failures += endpoint.transport_failures;
        }
    }
    // Plan-cache telemetry of every serving engine; pins rotate over
    // the replicas, so a few tries see them all.
    let mut seen = vec![None; fleet.replicas.len()];
    let mut index_bytes = 0;
    for _ in 0..64 {
        let pinned = router.read()?;
        seen[pinned.replica()] = Some(pinned.engine().plan_cache_stats());
        index_bytes = pinned.graph().index().index_bytes();
        if seen.iter().all(Option::is_some) {
            break;
        }
    }
    let (plan_hits, plan_compiles) = seen
        .iter()
        .flatten()
        .fold((0, 0), |(h, c), (hits, compiles)| (h + hits, c + compiles));

    Ok(Online {
        ping_rtt,
        pool_ping,
        read_codec,
        commit_codec,
        router_query,
        pinned_query,
        session_wait,
        lag_skips: fleet.lag_skips,
        session_skips: fleet.session_skips,
        requests_served: server.requests_served,
        requests_shed: server.requests_shed,
        pool_requests,
        transport_failures,
        plan_hits,
        plan_compiles,
        index_bytes,
    })
}

/// Everything replayed in-process once the stack is gone.
#[derive(Default)]
struct Offline {
    kgq_query: Vec<Duration>,
    kgq_parse: Vec<Duration>,
    kgq_compile: Vec<Duration>,
    kgq_execute: Vec<Duration>,
    ids_examined: u64,
    ids_returned: u64,
    cursor: Vec<Duration>,
    intersect: Vec<Duration>,
    blocks: u64,
    dense_blocks: u64,
    writer_commit: Vec<Duration>,
    log_append: Vec<Duration>,
    append_bytes_per_op: f64,
    op_to_json: Vec<Duration>,
    op_from_json: Vec<Duration>,
}

fn offline(
    dir: &Path,
    script: &Script,
    replica: LiveReplica,
    reads: &[ReadSample<'_>],
    commits: &[CommitSample<'_>],
    tracer: &mut Tracer,
) -> Result<Offline> {
    // live.kgq and core.postings: the sample's queries on the engine of
    // the bare replica the restart replayed, then probe by probe on its
    // postings.
    let engine = QueryEngine::new(replica.live().clone());
    let mut off = Offline::default();
    for sample in reads {
        let ReadOp::Query { text, .. } = sample.read else {
            continue;
        };
        let (request, parent) = (sample.request, sample.parent);
        // Serving engines answer from a warm plan cache; so does this one.
        engine.query(text)?;
        let result = timed(
            tracer,
            "live.kgq.query",
            request,
            parent,
            &mut off.kgq_query,
            || engine.query(text),
        )?;
        let ast = timed(
            tracer,
            "live.kgq.parse",
            request,
            parent,
            &mut off.kgq_parse,
            || kgq::parse(text),
        )?;
        let plan = timed(
            tracer,
            "live.kgq.compile",
            request,
            parent,
            &mut off.kgq_compile,
            || kgq::compile(&engine, &ast),
        )?;
        timed(
            tracer,
            "live.kgq.execute",
            request,
            parent,
            &mut off.kgq_execute,
            || kgq::execute(engine.graph(), &plan),
        )?;
        let Plan::Find { probes, .. } = &plan else {
            continue;
        };
        let keys: Vec<&ProbeKey> = probes
            .iter()
            .filter_map(|p| match p {
                kgq::exec::Probe::Key(key) => Some(key),
                kgq::exec::Probe::Unsatisfiable => None,
            })
            .collect();
        let cursors: Vec<PostingsCursor> = timed(
            tracer,
            "core.postings.cursor",
            request,
            parent,
            &mut off.cursor,
            || {
                keys.iter()
                    .map(|key| engine.graph().postings_cursor(key))
                    .collect()
            },
        );
        let views: Vec<PostingsView> = cursors.iter().map(PostingsCursor::as_view).collect();
        timed(
            tracer,
            "core.postings.intersect",
            request,
            parent,
            &mut off.intersect,
            || intersect_views(&views),
        );
        for view in &views {
            off.ids_examined += view.len() as u64;
            off.blocks += view.block_count() as u64;
            off.dense_blocks += view.dense_block_count() as u64;
        }
        off.ids_returned += result.len() as u64;
    }
    drop(engine);
    drop(replica);

    // graph.writer: the commit sample on a twin writer (same corpus,
    // own durable log), in-process. graph.oplog: the receipts' deltas
    // appended to a bare durable log.
    let twin_log = Arc::new(OperationLog::durable_with(
        &dir.join("twin.jsonl"),
        FLUSH_POLICY,
    )?);
    let twin = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::clone(&twin_log),
    );
    for batch in &script.preload {
        twin.commit(OpKind::Upsert, batch.clone().into_write_batch())?;
    }
    let mut shipped: Vec<Vec<Delta>> = Vec::with_capacity(commits.len());
    for sample in commits {
        let batch = sample.batch.clone().into_write_batch();
        let commit = timed(
            tracer,
            "graph.writer.commit",
            sample.request,
            sample.parent,
            &mut off.writer_commit,
            || twin.commit(OpKind::Upsert, batch),
        )?;
        shipped.push(commit.receipt.deltas);
    }
    drop(twin);
    drop(twin_log);
    let bare_path = dir.join("append.jsonl");
    let bare = OperationLog::durable_with(&bare_path, FLUSH_POLICY)?;
    for (sample, deltas) in commits.iter().zip(shipped) {
        timed(
            tracer,
            "graph.oplog.append_op",
            sample.request,
            sample.parent,
            &mut off.log_append,
            || bare.append_op(OpKind::Upsert, deltas),
        )?;
    }
    let ops: Vec<IngestOp> = bare.read_after(Lsn::ZERO);
    drop(bare);
    off.append_bytes_per_op = std::fs::metadata(&bare_path)?.len() as f64 / ops.len().max(1) as f64;
    for (sample, op) in commits.iter().zip(&ops) {
        let line = timed(
            tracer,
            "graph.oplog.op_to_json",
            sample.request,
            sample.parent,
            &mut off.op_to_json,
            || op.to_json(),
        );
        timed(
            tracer,
            "graph.oplog.op_from_json",
            sample.request,
            sample.parent,
            &mut off.op_from_json,
            || IngestOp::from_json(&line),
        )?;
    }

    Ok(off)
}

/// The two halves of client `client`'s traced script: (spans off, spans
/// on), equal and disjoint.
fn shares(script: &Script, client: usize) -> (&[Step], &[Step]) {
    let steps = &script.measured[client];
    steps.split_at(steps.len() / 2)
}

/// The traced run.
pub fn per_layer(cfg: &RunConfig) -> Result<Report> {
    let script = script::build(cfg.workload, cfg.seed, cfg.seconds, cfg.scale, true);
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let dir = cfg.work_dir.join(format!(
        "{}-{}-{}-traced",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let mut live = run::setup(&dir, &script, &mut checks)?;

    // The same share of the script twice over disjoint steps: spans off,
    // then spans on.
    let clients = cfg.workload.clients();
    let untraced: Vec<&[Step]> = (0..clients).map(|c| shares(&script, c).0).collect();
    let traced: Vec<&[Step]> = (0..clients).map(|c| shares(&script, c).1).collect();
    let traced_steps: usize = traced.iter().map(|s| s.len()).sum();
    let mut tracer = Tracer::recording(
        (traced_steps + script.layer_mix.len()) * 3
            + (LAYER_SAMPLE + LAYER_COMMITS) * 16
            + PINGS * 2,
    );
    let plain = run::drive_phase(&mut live, &script, &untraced, &mut Tracer::disabled())?;
    checks.absorb(&plain);
    let mut rec = run::drive_phase(&mut live, &script, &traced, &mut tracer)?;
    checks.absorb(&rec);
    let overhead_ratio = run::ops_rate(&rec) / run::ops_rate(&plain);
    if !script.layer_mix.is_empty() {
        let mixed = run::layer_mix_phase(&mut live, &script, &mut tracer);
        checks.absorb(&mixed);
        rec.commits = mixed.commits;
        rec.visibles = mixed.visibles;
    }

    // The samples replayed at the inner boundaries: client 0's traced
    // requests, then the layer mix's for what the workload does not
    // send, so every replay has the client call's span as parent.
    let call_name = match cfg.workload {
        Workload::ReadWide => "net.client.pipelined_call",
        _ => "net.pool.call",
    };
    let calls = tracer.index_of(call_name);
    let mix_calls = tracer.index_of("net.pool.call");
    let commit_spans = tracer.index_of("net.pool.commit");
    let own = traced[0]
        .iter()
        .enumerate()
        .map(|(i, step)| (i as u64, step, &calls));
    let mix = script
        .layer_mix
        .iter()
        .enumerate()
        .map(|(i, step)| (run::LAYER_MIX_REQUEST_BASE + i as u64, step, &mix_calls));
    let reads: Vec<ReadSample<'_>> = own
        .clone()
        .chain(mix.clone())
        .filter_map(|(request, step, calls)| match step {
            Step::Read(at) => Some(ReadSample {
                request,
                parent: calls.get(&request).copied(),
                read: &script.reads[*at as usize],
            }),
            _ => None,
        })
        .take(LAYER_SAMPLE)
        .collect();
    let commits: Vec<CommitSample<'_>> = own
        .chain(mix)
        .filter_map(|(request, step, calls)| match step {
            Step::Write(w) => Some(CommitSample {
                request,
                parent: commit_spans.get(&request).copied(),
                batch: &w.batch,
            }),
            Step::Ingest(at) => Some(CommitSample {
                request,
                parent: calls.get(&request).copied(),
                batch: &script.churn[*at as usize],
            }),
            Step::Read(_) => None,
        })
        .take(LAYER_COMMITS)
        .collect();
    notes.push(format!(
        "traced phase: {traced_steps} steps; layer mix: {} steps; boundary replays: {} reads, {} commits",
        script.layer_mix.len(),
        reads.len(),
        commits.len()
    ));

    // The restart checkpoint, from the bench thread; the in-process
    // session waits that follow are the tail a bootstrap replays.
    for _ in 0..CHECKPOINT_REPS {
        live.checkpoint()?;
    }
    let on = online(
        &mut live,
        &script,
        &reads,
        &commits,
        &mut tracer,
        &mut checks,
    )?;
    let ledger = live.ledger;
    let publish = std::mem::take(&mut live.publish);
    let preload_facts_per_s = live.preload_facts_per_s;
    let (ckpt_bytes, _) = live
        .newest_ckpt
        .ok_or_else(|| SagaError::Storage("no checkpoint was taken during the run".to_string()))?;
    let dir = run::teardown_keep(live);

    // Restart in the quiesced process, then the replays that need a
    // bare replica, a twin writer and a bare log.
    let mut restart: Restart =
        cold::restart(&dir, &ledger, &script.final_state, cold::REPS, &mut checks)?;
    let replica = restart.replica.take().expect("the last rep's replica");
    let off = offline(&dir, &script, replica, &reads, &commits, &mut tracer)?;
    let _ = std::fs::remove_dir_all(&dir);

    let trace_path = cfg
        .work_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    tracer.write_json(&trace_path, cfg.workload.name(), cfg.seed)?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    ));

    // net.pool: the client-side call, as the traced phase saw it. A
    // pipelined connection overlaps its calls, so there the cost of one
    // call is the wall time per completed call, not its latency.
    let latencies = run::latencies_us(&rec);
    let call_us = match cfg.workload {
        Workload::ReadWide => 1e6 / run::ops_rate(&rec),
        _ => median(&latencies),
    };
    // The pool call that carried the commit sample's batches: the step
    // itself for ingest batches, else the 1-entity commits.
    let commit_call_us = match cfg.workload {
        Workload::IngestRestart => call_us,
        _ => median_us(&rec.commits),
    };
    let codec_us = on.read_codec.total_us();
    let ping_rtt_us = median_us(&on.ping_rtt);
    let router_query_us = median_us(&on.router_query);
    let writer_commit_us = median_us(&off.writer_commit);
    let append_us = median_us(&off.log_append);
    let load_ms = median_ms(&restart.load);
    let tail_replay_ms = median_ms(&restart.tail);
    let bootstrap_ms = median_ms(&restart.bootstrap);
    // Applying the whole history, per timed rep.
    let apply_s: Vec<f64> = restart
        .apply
        .iter()
        .zip(&restart.tail)
        .map(|(apply, tail)| (*apply + *tail).as_secs_f64())
        .collect();
    let apply_s = median(&apply_s);
    // Requests the pools sent beyond those the bench asked them for.
    let pinged = (PINGS / clients * clients) as u64;
    let retries = on
        .pool_requests
        .saturating_sub(checks.pool_requests + pinged);

    let read_closure = (codec_us + ping_rtt_us + router_query_us) / call_us;
    // A pool commit is a fence ping, then the commit round trip.
    let commit_closure =
        (on.commit_codec.total_us() + 2.0 * ping_rtt_us + writer_commit_us) / commit_call_us;
    if cfg.workload == Workload::ReadPoint && !(0.8..=1.2).contains(&read_closure) {
        notes.push(format!(
            "WARNING: budget.read_closure = {read_closure:.2}: the parts do not sum to the whole within 0.8..1.2"
        ));
    }

    let metrics = vec![
        Metric::new("net.pool.call_us", call_us, "us"),
        Metric::new("net.pool.p99_us", percentile(&latencies, 99.0), "us"),
        Metric::new("net.pool.samples", latencies.len() as f64, "count"),
        Metric::new("net.pool.commit_call_us", commit_call_us, "us"),
        Metric::new("net.pool.session_query_us", median_us(&rec.visibles), "us"),
        Metric::new("net.pool.ingest_facts_per_s", preload_facts_per_s, "1/s"),
        Metric::new("net.pool.retries", retries as f64, "count"),
        Metric::new(
            "net.pool.transport_failures",
            on.transport_failures as f64,
            "count",
        ),
        Metric::new(
            "net.pool.overhead_ns",
            median_ns(&on.pool_ping) - median_ns(&on.ping_rtt),
            "ns",
        ),
        Metric::new("net.server.ping_rtt_us", ping_rtt_us, "us"),
        Metric::new(
            "net.server.requests_served",
            on.requests_served as f64,
            "count",
        ),
        Metric::new("net.server.requests_shed", on.requests_shed as f64, "count"),
        Metric::new(
            "net.server.self_us",
            call_us - router_query_us - codec_us,
            "us",
        ),
        Metric::new(
            "net.protocol.req_encode_ns",
            median_ns(&on.read_codec.req_encode),
            "ns",
        ),
        Metric::new(
            "net.protocol.req_decode_ns",
            median_ns(&on.read_codec.req_decode),
            "ns",
        ),
        Metric::new(
            "net.protocol.resp_encode_ns",
            median_ns(&on.read_codec.resp_encode),
            "ns",
        ),
        Metric::new(
            "net.protocol.resp_decode_ns",
            median_ns(&on.read_codec.resp_decode),
            "ns",
        ),
        Metric::new("net.protocol.codec_us", codec_us, "us"),
        Metric::new(
            "net.protocol.resp_bytes_per_op",
            on.read_codec.resp_bytes as f64 / reads.len() as f64,
            "B",
        ),
        Metric::new("fleet.router.query_us", router_query_us, "us"),
        Metric::new(
            "fleet.router.self_ns",
            median_ns(&on.router_query) - median_ns(&on.pinned_query),
            "ns",
        ),
        Metric::new("fleet.router.lag_skips", on.lag_skips as f64, "count"),
        Metric::new(
            "fleet.router.session_skips",
            on.session_skips as f64,
            "count",
        ),
        Metric::new(
            "fleet.router.session_wait_us",
            median_us(&on.session_wait),
            "us",
        ),
        Metric::new("live.kgq.query_us", median_us(&off.kgq_query), "us"),
        Metric::new("live.kgq.parse_ns", median_ns(&off.kgq_parse), "ns"),
        Metric::new("live.kgq.compile_ns", median_ns(&off.kgq_compile), "ns"),
        Metric::new("live.kgq.execute_us", median_us(&off.kgq_execute), "us"),
        Metric::new(
            "live.kgq.plan_cache_hit_ratio",
            on.plan_hits as f64 / (on.plan_hits + on.plan_compiles).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "live.kgq.ids_examined_per_result",
            off.ids_examined as f64 / off.ids_returned.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.postings.cursor_us", median_us(&off.cursor), "us"),
        Metric::new(
            "core.postings.intersect_us",
            median_us(&off.intersect),
            "us",
        ),
        Metric::new(
            "core.postings.dense_block_ratio",
            off.dense_blocks as f64 / off.blocks.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "core.postings.index_bytes_per_fact",
            on.index_bytes as f64 / ledger.live().max(1) as f64,
            "B",
        ),
        Metric::new("graph.writer.commit_us", writer_commit_us, "us"),
        Metric::new("graph.writer.self_us", writer_commit_us - append_us, "us"),
        Metric::new("graph.oplog.append_us", append_us, "us"),
        Metric::new("graph.oplog.bytes_per_op", off.append_bytes_per_op, "B"),
        Metric::new(
            "graph.oplog.op_to_json_ns",
            median_ns(&off.op_to_json),
            "ns",
        ),
        Metric::new(
            "graph.oplog.op_from_json_ns",
            median_ns(&off.op_from_json),
            "ns",
        ),
        Metric::new("graph.oplog.open_parse_ms", median_ms(&restart.open), "ms"),
        Metric::new(
            "live.replica.apply_us_per_op",
            apply_s * 1e6 / restart.ops.max(1) as f64,
            "us",
        ),
        Metric::new(
            "live.replica.apply_facts_per_s",
            restart.deltas as f64 / apply_s,
            "1/s",
        ),
        Metric::new(
            "live.replica.restore_ms",
            bootstrap_ms - load_ms - tail_replay_ms,
            "ms",
        ),
        Metric::new("live.replica.tail_replay_ms", tail_replay_ms, "ms"),
        Metric::new("live.replica.bootstrap_ms", bootstrap_ms, "ms"),
        Metric::new(
            "live.replica.replay_from_zero_ms",
            median_ms(&restart.replay()),
            "ms",
        ),
        Metric::new("graph.checkpoint.publish_ms", median_ms(&publish), "ms"),
        Metric::new("graph.checkpoint.count", publish.len() as f64, "count"),
        Metric::new("graph.checkpoint.bytes", ckpt_bytes as f64, "B"),
        Metric::new("core.checkpoint.load_ms", load_ms, "ms"),
        Metric::new("budget.read_closure", read_closure, "ratio"),
        Metric::new("budget.commit_closure", commit_closure, "ratio"),
        Metric::new("trace.overhead_ratio", overhead_ratio, "ratio"),
    ];
    Ok(Report {
        checks,
        metrics,
        notes,
    })
}
