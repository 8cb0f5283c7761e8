//! One run: build the script from the seed, set the stack up (several
//! times — set-up time is itself a gated metric), drive the workload's
//! measured phase, checkpoint, shut down, check every answer, and report
//! the metrics by name. A workload measures only what it sends: restart
//! timings and the commit/visible split are the traced run's.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use saga_core::{Result, SagaError};
use saga_net::{SagaClient, SagaPool};

use crate::cold;
use crate::drive::{self, Ledger, Recorder};
use crate::script::{self, Scale, Script, Step, Workload};
use crate::stack::{Stack, LOG_FILE};
use crate::stats::{median, SLICES};
use crate::trace::Tracer;

/// Times the stack is set up per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Trace request ids: step `i` of client `c` is `c << 32 | i`.
pub const CLIENT_REQUEST_SHIFT: u32 = 32;
/// Trace request ids of the layer mix start here.
pub const LAYER_MIX_REQUEST_BASE: u64 = 1 << 40;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of corpus, draws, churn and script order.
    pub seed: u64,
    /// Seconds of measurement the op counts are sized for.
    pub seconds: u64,
    /// Corpus and op-count scale.
    pub scale: Scale,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where scratch state and `trace-<workload>.json` go.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Verification tally over everything a run attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Requests the bench asked its pools for.
    pub pool_requests: u64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that errored, were shed, or disagreed with the oracle.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Fold a client's tally in.
    pub fn absorb(&mut self, rec: &Recorder) {
        self.pool_requests += rec.pool_requests;
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.failures.extend(rec.failures.iter().cloned());
        self.failures.truncate(8);
    }

    /// Record one named check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Verification tally.
    pub checks: Checks,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Sample counts and other context for the human-readable header.
    pub notes: Vec<String>,
}

/// A stack that is up, preloaded, caught up and warm, with the client
/// connections the measured phase will reuse.
pub struct Live {
    /// The stack.
    pub stack: Stack,
    /// One blocking pool per client thread.
    pub pools: Vec<SagaPool>,
    /// The pipelined connection of `read_wide`.
    pub wide: Option<SagaClient>,
    /// Every commit acknowledged so far.
    pub ledger: Ledger,
    /// Newest checkpoint: (file bytes, live facts at its watermark).
    pub newest_ckpt: Option<(u64, u64)>,
    /// Foreground stall of each checkpoint so far.
    pub publish: Vec<Duration>,
    /// Fact-deltas acknowledged per second of the preload.
    pub preload_facts_per_s: f64,
}

impl Live {
    /// Checkpoint the writer's graph from the bench thread, between two
    /// phases: no commit is in flight, so the artifact's watermark is the
    /// last acknowledged LSN and the ledger counts its live facts exactly.
    pub fn checkpoint(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let receipt = self.stack.checkpoints.checkpoint()?;
        self.publish.push(t0.elapsed());
        if receipt.watermark != self.ledger.last_lsn {
            return Err(SagaError::Storage(format!(
                "checkpoint watermark {} is not the last acknowledged lsn {}",
                receipt.watermark.0, self.ledger.last_lsn.0
            )));
        }
        let facts = u64::try_from(self.ledger.live()).map_err(|_| {
            SagaError::Storage(
                "acknowledged commits removed more facts than they added".to_string(),
            )
        })?;
        self.newest_ckpt = Some((std::fs::metadata(&receipt.path)?.len(), facts));
        Ok(())
    }

    /// Replace every client connection with a fresh one.
    pub fn reconnect(&mut self) -> Result<()> {
        for pool in &mut self.pools {
            *pool = self.stack.pool();
        }
        if self.wide.is_some() {
            self.wide = Some(self.stack.client()?);
        }
        Ok(())
    }
}

/// Run the clients' steps concurrently (one thread per client beyond the
/// first; a single client runs on the calling thread) and merge what
/// they recorded.
fn run_clients(
    live: &mut Live,
    script: &Script,
    steps: &[&[Step]],
    tracer: &mut Tracer,
) -> Recorder {
    let epoch = Instant::now();
    let total: usize = steps.iter().map(|s| s.len()).sum();
    let mut merged = Recorder::with_capacity(total);
    if steps.len() == 1 {
        let pool = &mut live.pools[0];
        drive::run_blocking(pool, script, steps[0], epoch, &mut merged, tracer, 0);
        return merged;
    }
    let tracing = tracer.enabled();
    let results: Vec<(Recorder, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .pools
            .iter_mut()
            .zip(steps)
            .enumerate()
            .map(|(client, (pool, steps))| {
                scope.spawn(move || {
                    let mut rec = Recorder::with_capacity(steps.len());
                    let mut tracer = if tracing {
                        Tracer::recording(steps.len() * 3)
                    } else {
                        Tracer::disabled()
                    };
                    let base = (client as u64) << CLIENT_REQUEST_SHIFT;
                    drive::run_blocking(pool, script, steps, epoch, &mut rec, &mut tracer, base);
                    (rec, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (rec, thread_tracer) in results {
        merged.merge(rec);
        tracer.absorb(thread_tracer);
    }
    merged
}

/// Bring a stack up over `dir`: start, preload over the wire, wait for
/// every replica, warm up.
pub fn setup(dir: &Path, script: &Script, checks: &mut Checks) -> Result<Live> {
    let _ = std::fs::remove_dir_all(dir);
    let stack = Stack::start(dir)?;
    let mut pools: Vec<SagaPool> = (0..script.workload.clients())
        .map(|_| stack.pool())
        .collect();

    // Preload through the same door every later commit uses.
    let mut rec = Recorder::with_capacity(script.preload.len());
    let epoch = Instant::now();
    drive::run_batches(&mut pools[0], &script.preload, epoch, &mut rec);
    checks.absorb(&rec);
    if rec.failed > 0 {
        return Err(SagaError::Storage(format!(
            "preload failed: {:?}",
            rec.failures
        )));
    }
    let preload_facts_per_s = rec.ledger.deltas() as f64 / epoch.elapsed().as_secs_f64();
    stack.wait_caught_up()?;

    let wide = match script.workload {
        Workload::ReadWide => Some(stack.client()?),
        _ => None,
    };
    let mut live = Live {
        newest_ckpt: None,
        publish: Vec::new(),
        stack,
        pools,
        wide,
        ledger: rec.ledger,
        preload_facts_per_s,
    };
    let warm: Vec<&[Step]> = script.warmup.iter().map(Vec::as_slice).collect();
    let warmed = drive_phase(&mut live, script, &warm, &mut Tracer::disabled())?;
    checks.absorb(&warmed);
    Ok(live)
}

/// Steps completed per second of a phase that began at its recorder's
/// epoch: count over the last completion time.
pub(crate) fn ops_rate(rec: &Recorder) -> f64 {
    let end = rec.steps.iter().map(|s| s.done).max().unwrap_or_default();
    rec.steps.len() as f64 / end.as_secs_f64().max(1e-9)
}

/// Slice `k` of [`SLICES`] equal slices of a client's script (the last
/// takes the remainder).
fn slice_of(steps: &[Step], k: usize) -> &[Step] {
    let per = steps.len() / SLICES;
    let end = if k + 1 == SLICES {
        steps.len()
    } else {
        (k + 1) * per
    };
    &steps[k * per..end]
}

pub(crate) fn latencies_us(rec: &Recorder) -> Vec<f64> {
    rec.steps
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e6)
        .collect()
}

/// `VmHWM` of this process in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One phase of the workload's script: drive `steps` (one slice per
/// client) and, on `ingest_restart`, checkpoint when the last of them is
/// acknowledged — count-triggered from the committing thread, so the
/// same ops meet the same stall every run (repeatability rule 2), and
/// inside the phase, so the stall shows in its rate. The returned
/// recorder's ledger holds this phase's commits; `live.ledger` is
/// advanced by them.
pub(crate) fn drive_phase(
    live: &mut Live,
    script: &Script,
    steps: &[&[Step]],
    tracer: &mut Tracer,
) -> Result<Recorder> {
    let rec = match live.wide.as_mut() {
        Some(client) => {
            let mut rec = Recorder::with_capacity(steps[0].len());
            let epoch = Instant::now();
            drive::run_pipelined(client, script, steps[0], epoch, &mut rec, tracer, 0);
            rec
        }
        None => run_clients(live, script, steps, tracer),
    };
    live.ledger.merge(&rec.ledger);
    if script.workload == Workload::IngestRestart {
        live.checkpoint()?;
    }
    Ok(rec)
}

/// The traced run's layer mix, sent by client 0 alone.
pub(crate) fn layer_mix_phase(live: &mut Live, script: &Script, tracer: &mut Tracer) -> Recorder {
    let mut rec = Recorder::with_capacity(script.layer_mix.len());
    drive::run_blocking(
        &mut live.pools[0],
        script,
        &script.layer_mix,
        Instant::now(),
        &mut rec,
        tracer,
        LAYER_MIX_REQUEST_BASE,
    );
    live.ledger.merge(&rec.ledger);
    rec
}

/// Latencies of the workload's primary op in `rec`, in microseconds:
/// the commit → session-read pair on `mixed_rw` (call of the commit to
/// the read that returns it, verified), every step elsewhere.
pub(crate) fn primary_latencies_us(workload: Workload, rec: &Recorder) -> Vec<f64> {
    match workload {
        Workload::MixedRw => rec
            .commits
            .iter()
            .zip(&rec.visibles)
            .map(|(commit, visible)| (*commit + *visible).as_secs_f64() * 1e6)
            .collect(),
        _ => latencies_us(rec),
    }
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end(cfg: &RunConfig) -> Result<Report> {
    let t0 = Instant::now();
    let script = script::build(cfg.workload, cfg.seed, cfg.seconds, cfg.scale, false);
    let generated = t0.elapsed();
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let dir = cfg.work_dir.join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));

    // Set-up. The first stack is the one measured, so that peak memory
    // is that of one deployment's life; the remaining reps follow it, on
    // a fresh directory each.
    let mut bring_up = Vec::with_capacity(SETUP_REPS);
    let t = Instant::now();
    let mut live = setup(&dir, &script, &mut checks)?;
    bring_up.push(t.elapsed().as_secs_f64());

    // Measured phase, in SLICES equal slices. Each slice starts on fresh
    // connections and fresh client threads: where the kernel places a
    // connection's threads decides how much a hand-off costs, and one
    // placement would otherwise hold for the whole phase and make the
    // run's numbers one draw of a coin. Rates and latencies are medians
    // over the slices (repeatability rule 3).
    let mut rec = Recorder::default();
    let mut slice_ops_per_s = Vec::with_capacity(SLICES);
    let mut slice_p50_us = Vec::with_capacity(SLICES);
    for k in 0..SLICES {
        let steps: Vec<&[Step]> = script.measured.iter().map(|s| slice_of(s, k)).collect();
        if k > 0 {
            live.reconnect()?;
        }
        let t = Instant::now();
        let slice = drive_phase(&mut live, &script, &steps, &mut Tracer::disabled())?;
        let elapsed = t.elapsed().as_secs_f64();
        slice_ops_per_s.push(slice.steps.len() as f64 / elapsed);
        slice_p50_us.push(median(&primary_latencies_us(cfg.workload, &slice)));
        rec.merge(slice);
    }
    checks.absorb(&rec);
    notes.push(format!(
        "measured phase: {} steps from {} client(s) in {SLICES} slices; p50_us over {} samples; slice ops/s {:?}",
        rec.steps.len(),
        cfg.workload.clients(),
        primary_latencies_us(cfg.workload, &rec).len(),
        slice_ops_per_s
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>(),
    ));
    let rss_peak_mb = rss_peak_mb();

    // What the deployment leaves on disk. `ingest_restart` checkpointed
    // at the end of every slice; the others checkpoint once, now.
    if cfg.workload != Workload::IngestRestart {
        live.checkpoint()?;
    }
    let ledger = live.ledger;
    let (ckpt_bytes, ckpt_facts) = live
        .newest_ckpt
        .ok_or_else(|| SagaError::Storage("no checkpoint was taken during the run".to_string()))?;
    let dir = teardown_keep(live);
    let log_bytes = std::fs::metadata(dir.join(LOG_FILE))?.len();
    if cfg.workload == Workload::IngestRestart {
        // Restart, untimed: acked ⇒ durable, replayed = oracle,
        // bootstrapped = replayed.
        cold::restart(&dir, &ledger, &script.final_state, 0, &mut checks)?;
    }
    let _ = std::fs::remove_dir_all(&dir);

    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let again = setup(&dir, &script, &mut checks)?;
        bring_up.push(t.elapsed().as_secs_f64());
        teardown(again);
    }

    let metrics = vec![
        Metric::new("setup_s", generated.as_secs_f64() + median(&bring_up), "s"),
        Metric::new("ops_per_s", median(&slice_ops_per_s), "1/s"),
        Metric::new("p50_us", median(&slice_p50_us), "us"),
        Metric::new("rss_peak_mb", rss_peak_mb, "MiB"),
        Metric::new(
            "log_bytes_per_fact",
            log_bytes as f64 / ledger.deltas() as f64,
            "B",
        ),
        Metric::new(
            "ckpt_bytes_per_fact",
            ckpt_bytes as f64 / ckpt_facts as f64,
            "B",
        ),
    ];
    Ok(Report {
        checks,
        metrics,
        notes,
    })
}

/// Stop a stack and delete its directory.
pub fn teardown(live: Live) {
    let dir = teardown_keep(live);
    let _ = std::fs::remove_dir_all(dir);
}

/// Stop a stack, keeping what it left on disk.
pub fn teardown_keep(live: Live) -> PathBuf {
    let Live {
        stack, pools, wide, ..
    } = live;
    drop(pools);
    drop(wide);
    stack.shutdown()
}
