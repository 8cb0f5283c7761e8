//! The resilient client: a multi-endpoint pool with retry, backoff,
//! circuit breaking, and transparent failover.
//!
//! [`SagaPool`] fronts several saga-servers that all serve **one
//! operation log** (a [`saga_fleet`] fleet per process, every fleet
//! tailing the same log). That single fact is what makes failover
//! *transparent*: any endpoint can answer any read, and the pool-wide
//! [`SessionToken`] — advanced by every commit, threaded into every
//! session read — keeps read-your-writes intact across a mid-session
//! endpoint switch. A session read that lands on a lagging server
//! either waits (server-side session wait) or comes back as a typed
//! retryable miss and is retried elsewhere; it is never served stale.
//!
//! # Retry contract
//!
//! Every request — read or commit — goes through one retry loop. Each
//! try picks an endpoint, runs the request there (a fenced commit pings
//! first), and either returns what the caller should see or reports a
//! failure of that endpoint, which the loop retries elsewhere. Retryable
//! outcomes ([`SagaError::is_retryable`]) are transport-level
//! unavailability (dead socket, timeout, refused connect) and typed wire
//! sheds (`Overloaded` — which carries the server's own backoff hint —
//! and `Unavailable`). Query errors, bad requests and server-side
//! storage failures surface immediately: the server *answered*, the
//! answer just wasn't success, and sending the same request again buys
//! nothing.
//!
//! Retries follow capped exponential backoff with deterministic seeded
//! jitter ([`RetryPolicy`]): retry `k` waits
//! `min(base·2^k, max) · uniform[1−j, 1+j]`, floored at the server's
//! backoff hint when one arrived, and always bounded by the request's
//! remaining [`deadline`](RetryPolicy::deadline) budget, whose clock
//! starts at the first failure. No sleep follows the final attempt.
//!
//! # Idempotency and `MaybeCommitted`
//!
//! Reads are idempotent — the pool re-sends them freely on other
//! endpoints, whichever phase failed. A commit is not. The pool splits a
//! commit's failure modes by *phase*:
//!
//! * **Send-phase** transport error: the request frame was torn — the
//!   server never decodes it, so nothing executed. Safe to retry.
//! * **Typed `Overloaded` / `Unavailable` response**: the server states
//!   the request did not run. Safe to retry.
//! * **Receive-phase** transport error: the frame was delivered but the
//!   acknowledgement was lost (or arrived garbled). The commit may or
//!   may not have applied — the pool surfaces the typed
//!   [`SagaError::MaybeCommitted`] instead of guessing, because a blind
//!   re-send could apply the batch twice. Callers reconcile (read back
//!   the write, or re-issue only semantically idempotent ops).
//!
//! [`PoolConfig::fence_commits`] narrows the ambiguous window: a ping
//! round-trip on the chosen endpoint immediately before the commit
//! proves the connection live, so an endpoint that died *between*
//! requests fails the cheap idempotent fence instead of the commit. Any
//! fence outcome but `Pong` is a retryable failure of that endpoint and
//! uses up one attempt; the commit frame is never sent after it.
//!
//! # Circuit breaker
//!
//! Each endpoint carries a breaker: `Closed` (healthy) → `Open` after
//! [`failure_threshold`](BreakerConfig::failure_threshold) consecutive
//! transport failures (skipped by routing entirely) → `HalfOpen` after
//! [`cooldown`](BreakerConfig::cooldown) (eligible again; the next
//! request is the probe) → `Closed` on probe success, re-`Open` on
//! probe failure. Typed sheds do **not** trip the breaker — a shedding
//! server is alive and telling us so; only transport failures are
//! evidence of death. Reads rotate round-robin across eligible
//! endpoints, which both spreads load and guarantees a recovering
//! endpoint gets its probe without any background thread.

use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use saga_core::{EntityId, EntityRecord, Result, SagaError, SessionToken};
use saga_live::QueryResult;

use crate::client::{response_error, ClientConfig, SagaClient};
use crate::protocol::{Committed, Request, Response, WireBatch};

/// When and how the pool retries retryable failures.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total tries per request (first attempt included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter fraction `j`: each backoff is scaled by a deterministic
    /// uniform draw from `[1−j, 1+j]`. Zero disables jitter.
    pub jitter: f64,
    /// Wall-clock budget for one logical request, measured from its
    /// first failed attempt: later attempts and backoff sleeps count
    /// against it. Exhausting it surfaces the last failure.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            deadline: Duration::from_secs(5),
        }
    }
}

/// Per-endpoint circuit-breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(500),
        }
    }
}

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Retry/backoff schedule.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Socket behavior for every per-endpoint connection.
    pub client: ClientConfig,
    /// Seed for the jitter stream — same seed, same endpoints, same
    /// failures ⇒ same retry timing. Drills rely on this.
    pub seed: u64,
    /// Ping the chosen endpoint immediately before each commit (an
    /// idempotent liveness fence). Costs one round-trip per commit;
    /// turns "endpoint died since we last talked" from a
    /// [`SagaError::MaybeCommitted`] into a cheap retryable fence
    /// failure.
    pub fence_commits: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            client: ClientConfig::default(),
            seed: 0x5a6a_9001,
            fence_commits: true,
        }
    }
}

/// Observable breaker state of one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests route here normally.
    Closed,
    /// Tripped: routing skips this endpoint until the cooldown passes.
    Open,
    /// Cooldown elapsed: eligible again, next request is the probe.
    HalfOpen,
}

/// A point-in-time snapshot of one endpoint's health accounting.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// The endpoint's address.
    pub addr: String,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive transport failures (resets on success).
    pub consecutive_failures: u32,
    /// Requests attempted on this endpoint.
    pub requests: u64,
    /// Requests that got *any* response (success or typed failure).
    pub responses: u64,
    /// Transport failures (connect/send/receive).
    pub transport_failures: u64,
    /// Times the breaker opened.
    pub breaker_opens: u64,
}

struct Endpoint {
    addr: String,
    client: Option<SagaClient>,
    consecutive_failures: u32,
    /// `Some(when)` while the breaker is open / half-open.
    opened_at: Option<Instant>,
    requests: u64,
    responses: u64,
    transport_failures: u64,
    breaker_opens: u64,
}

impl Endpoint {
    fn state(&self, cfg: &BreakerConfig) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if at.elapsed() >= cfg.cooldown => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// Eligible for routing: closed, or open long enough to probe.
    fn eligible(&self, cfg: &BreakerConfig) -> bool {
        self.state(cfg) != BreakerState::Open
    }

    /// Time until this endpoint becomes eligible (zero if it already is).
    fn eligible_in(&self, cfg: &BreakerConfig) -> Duration {
        match self.opened_at {
            None => Duration::ZERO,
            Some(at) => cfg.cooldown.saturating_sub(at.elapsed()),
        }
    }
}

/// What one attempt on one endpoint produced.
enum Attempt {
    /// The server answered (any typed response, success or failure).
    Answered(Response),
    /// Transport failure before the request could have executed.
    SendFailed(SagaError),
    /// Transport failure, or an answer that does not decode, after the
    /// request was handed to the transport.
    RecvFailed(SagaError),
}

/// A failover client pool over several saga-servers fronting one log.
pub struct SagaPool {
    endpoints: Vec<Endpoint>,
    cfg: PoolConfig,
    /// Round-robin cursor over eligible endpoints.
    cursor: usize,
    /// Pool-wide read-your-writes high-water mark.
    session: SessionToken,
    /// Deterministic jitter stream.
    rng: StdRng,
}

impl SagaPool {
    /// Build a pool over the given endpoints. Connections are dialed
    /// lazily — an endpoint that is down at construction time simply
    /// fails its first attempt and trips its breaker like any other
    /// failure, so a pool can outlive every one of its servers.
    pub fn new<S: Into<String>>(
        endpoints: impl IntoIterator<Item = S>,
        cfg: PoolConfig,
    ) -> SagaPool {
        let endpoints: Vec<Endpoint> = endpoints
            .into_iter()
            .map(|addr| Endpoint {
                addr: addr.into(),
                client: None,
                consecutive_failures: 0,
                opened_at: None,
                requests: 0,
                responses: 0,
                transport_failures: 0,
                breaker_opens: 0,
            })
            .collect();
        assert!(!endpoints.is_empty(), "a pool needs at least one endpoint");
        let rng = StdRng::seed_from_u64(cfg.seed);
        SagaPool {
            endpoints,
            cfg,
            cursor: 0,
            session: SessionToken::default(),
            rng,
        }
    }

    /// The pool's read-your-writes token: the high-water mark of every
    /// commit made through this pool.
    pub fn session(&self) -> SessionToken {
        self.session
    }

    /// Health snapshot of every endpoint, in construction order.
    pub fn endpoint_stats(&self) -> Vec<EndpointStats> {
        self.endpoints
            .iter()
            .map(|e| EndpointStats {
                addr: e.addr.clone(),
                state: e.state(&self.cfg.breaker),
                consecutive_failures: e.consecutive_failures,
                requests: e.requests,
                responses: e.responses,
                transport_failures: e.transport_failures,
                breaker_opens: e.breaker_opens,
            })
            .collect()
    }

    // -- routing ----------------------------------------------------------

    /// Next eligible endpoint index (round-robin), or the shortest wait
    /// until one becomes eligible.
    fn pick(&mut self) -> std::result::Result<usize, Duration> {
        let n = self.endpoints.len();
        for step in 0..n {
            let at = (self.cursor + step) % n;
            if self.endpoints[at].eligible(&self.cfg.breaker) {
                self.cursor = (at + 1) % n;
                return Ok(at);
            }
        }
        Err(self
            .endpoints
            .iter()
            .map(|e| e.eligible_in(&self.cfg.breaker))
            .min()
            .unwrap_or(Duration::ZERO))
    }

    fn on_response(&mut self, at: usize) {
        let e = &mut self.endpoints[at];
        e.responses += 1;
        e.consecutive_failures = 0;
        e.opened_at = None;
    }

    fn on_transport_failure(&mut self, at: usize) {
        let threshold = self.cfg.breaker.failure_threshold;
        let e = &mut self.endpoints[at];
        e.transport_failures += 1;
        e.consecutive_failures = e.consecutive_failures.saturating_add(1);
        // A dead connection never heals; force a fresh dial next time.
        e.client = None;
        let reopen_probe = e.opened_at.is_some();
        if e.consecutive_failures >= threshold || reopen_probe {
            if e.opened_at.is_none() {
                e.breaker_opens += 1;
            }
            // (Re)start the cooldown — a failed half-open probe waits a
            // full cooldown again.
            e.opened_at = Some(Instant::now());
        }
    }

    /// One try of `request` on endpoint `at`, classified by phase. The
    /// breaker is booked here and nowhere else: an answer closes it, a
    /// transport failure counts toward opening it.
    fn attempt(&mut self, at: usize, request: &Request) -> Attempt {
        let e = &mut self.endpoints[at];
        e.requests += 1;
        let dialed = match e.client.take() {
            Some(client) => Ok(client),
            None => SagaClient::connect_with(e.addr.clone(), self.cfg.client.clone()),
        };
        let outcome = match dialed {
            Err(err) => Attempt::SendFailed(err),
            Ok(client) => {
                let client = e.client.insert(client);
                match client.send(request) {
                    Err(err) => Attempt::SendFailed(err),
                    Ok(id) => match client.recv_by_id(id) {
                        Ok(response) => Attempt::Answered(response),
                        Err(err) => Attempt::RecvFailed(err),
                    },
                }
            }
        };
        match outcome {
            Attempt::Answered(_) => self.on_response(at),
            Attempt::SendFailed(_) | Attempt::RecvFailed(_) => self.on_transport_failure(at),
        }
        outcome
    }

    /// Jittered exponential backoff for retry number `retry` (0-based),
    /// floored at the server's hint when one arrived.
    fn backoff(&mut self, retry: u32, hint_ms: Option<u64>) -> Duration {
        let base = self.cfg.retry.base_backoff.as_secs_f64();
        let cap = self.cfg.retry.max_backoff.as_secs_f64();
        let exp = base * f64::from(2u32.saturating_pow(retry.min(20)));
        let mut secs = exp.min(cap);
        let j = self.cfg.retry.jitter;
        if j > 0.0 {
            secs *= self.rng.gen_range((1.0 - j).max(0.0)..=(1.0 + j));
        }
        let mut delay = Duration::from_secs_f64(secs.max(0.0));
        if let Some(hint) = hint_ms {
            delay = delay.max(Duration::from_millis(hint));
        }
        delay
    }

    /// Sleep for `delay`, clipped to the deadline budget counted from
    /// `started`. Returns false when the budget is spent (caller gives up).
    fn sleep_within(&self, started: Instant, delay: Duration) -> bool {
        let remaining = self.cfg.retry.deadline.saturating_sub(started.elapsed());
        std::thread::sleep(delay.min(remaining));
        delay < remaining
    }

    fn exhausted(attempts: u32, last: SagaError) -> SagaError {
        match last {
            // Keep typed errors intact (hints survive); annotate the
            // plain unavailability message with what the pool tried.
            SagaError::Unavailable(m) => {
                SagaError::Unavailable(format!("pool: {attempts} attempts exhausted; last: {m}"))
            }
            other => other,
        }
    }

    // -- the retry loop ---------------------------------------------------

    /// Run one request with failover: every failure `try_at` reports
    /// rotates to the next eligible endpoint under the backoff schedule,
    /// except `MaybeCommitted`, which no re-send can settle.
    fn run(&mut self, request: &Request) -> Result<Response> {
        let commit = matches!(request, Request::Commit(_));
        // The deadline clock starts at the first *failure*: the healthy
        // fast path (attempt once, answered) never reads the clock, so
        // pool steady-state overhead over a bare client stays in the
        // bookkeeping-only range the resilience bench holds it to.
        let mut started: Option<Instant> = None;
        let mut last: Option<SagaError> = None;
        let mut retries = 0u32;
        for attempt_no in 1..=self.cfg.retry.max_attempts {
            let (err, delay) = match self.pick() {
                Ok(at) => match self.try_at(at, request, commit) {
                    Ok(response) => return Ok(response),
                    Err(err @ SagaError::MaybeCommitted(_)) => return Err(err),
                    Err(err) => {
                        let delay = self.backoff(retries, err.backoff_hint_ms());
                        retries += 1;
                        (err, delay)
                    }
                },
                // Every breaker is open. Waiting out the shortest
                // cooldown is the only route to a probe.
                Err(wait) => (
                    SagaError::Unavailable("all endpoints unhealthy (breakers open)".to_string()),
                    wait,
                ),
            };
            last = Some(err);
            let t0 = *started.get_or_insert_with(Instant::now);
            if attempt_no == self.cfg.retry.max_attempts || !self.sleep_within(t0, delay) {
                break;
            }
        }
        Err(Self::exhausted(
            retries.max(1),
            last.unwrap_or_else(|| SagaError::Unavailable("pool: no attempt made".to_string())),
        ))
    }

    /// One try on endpoint `at`, fence first for a fenced commit. `Ok` is
    /// an answer for the caller (success or a final typed error); `Err`
    /// is a failure of this endpoint that [`run`](Self::run) retries
    /// elsewhere, unless it is `MaybeCommitted`.
    fn try_at(&mut self, at: usize, request: &Request, commit: bool) -> Result<Response> {
        // The fence: an idempotent round-trip proving the endpoint alive
        // *now*, so a stale-dead connection fails here — in either phase,
        // with any answer but `Pong` — instead of inside the commit.
        if commit && self.cfg.fence_commits {
            match self.attempt(at, &Request::Ping) {
                Attempt::Answered(Response::Pong) => {}
                Attempt::Answered(other) => return Err(response_error(other)),
                Attempt::SendFailed(e) | Attempt::RecvFailed(e) => return Err(e),
            }
        }
        match self.attempt(at, request) {
            // Typed shed/miss: the server states nothing ran, so even a
            // commit is safe to re-send; another endpoint may be less
            // loaded or more caught-up.
            Attempt::Answered(
                shed @ (Response::Overloaded { .. } | Response::Unavailable { .. }),
            ) => Err(response_error(shed)),
            Attempt::Answered(success_or_final) => Ok(success_or_final),
            // The request frame never went out whole; a torn frame is
            // dropped by the server without executing.
            Attempt::SendFailed(e) => Err(e),
            // The commit reached the transport and the ack was lost (or
            // came back garbled): its outcome is unknown.
            Attempt::RecvFailed(e) if commit => Err(SagaError::MaybeCommitted(format!(
                "commit sent to {} but the acknowledgement was lost: {e}",
                self.endpoints[at].addr
            ))),
            // A read is idempotent: both phases retry freely.
            Attempt::RecvFailed(e) => Err(e),
        }
    }

    /// Commit with phase-split failure handling (see the module docs).
    pub fn commit(&mut self, batch: WireBatch) -> Result<Committed> {
        match self.run(&Request::Commit(batch))? {
            Response::Committed(committed) => {
                self.session.observe(committed.lsn);
                Ok(committed)
            }
            other => Err(response_error(other)),
        }
    }

    // -- idempotent surface ----------------------------------------------

    /// Liveness round-trip against any eligible endpoint.
    pub fn ping(&mut self) -> Result<()> {
        match self.run(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(response_error(other)),
        }
    }

    /// One KGQ query with no freshness constraint.
    pub fn query(&mut self, text: &str) -> Result<QueryResult> {
        let request = Request::Query {
            text: text.to_string(),
            session: None,
        };
        match self.run(&request)? {
            Response::Result(result) => Ok(result),
            other => Err(response_error(other)),
        }
    }

    /// One KGQ query constrained by the pool session: served only at or
    /// past every commit this pool has acknowledged, **whichever
    /// endpoint answers**. This is the read-your-writes-across-failover
    /// guarantee.
    pub fn query_with_session(&mut self, text: &str) -> Result<QueryResult> {
        let request = Request::Query {
            text: text.to_string(),
            session: Some(self.session),
        };
        match self.run(&request)? {
            Response::Result(result) => Ok(result),
            other => Err(response_error(other)),
        }
    }

    /// `GraphRead::resolve_name` with failover.
    pub fn resolve_name(&mut self, name: &str) -> Result<Vec<EntityId>> {
        match self.run(&Request::ResolveName(name.to_string()))? {
            Response::Entities(ids) => Ok(ids),
            other => Err(response_error(other)),
        }
    }

    /// `GraphRead::record` with failover.
    pub fn record(&mut self, id: EntityId) -> Result<Option<EntityRecord>> {
        match self.run(&Request::Record(id))? {
            Response::Record(record) => Ok(record),
            other => Err(response_error(other)),
        }
    }

    /// The serving fleet's version (any endpoint's view): the highest
    /// LSN a replica of that fleet has applied.
    pub fn generation(&mut self) -> Result<u64> {
        match self.run(&Request::Generation)? {
            Response::Count(n) => Ok(n),
            other => Err(response_error(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(addr: &str) -> Endpoint {
        Endpoint {
            addr: addr.to_string(),
            client: None,
            consecutive_failures: 0,
            opened_at: None,
            requests: 0,
            responses: 0,
            transport_failures: 0,
            breaker_opens: 0,
        }
    }

    #[test]
    fn breaker_lifecycle_closed_open_halfopen() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(20),
        };
        let mut e = endpoint("x");
        assert_eq!(e.state(&cfg), BreakerState::Closed);
        e.consecutive_failures = 2;
        e.opened_at = Some(Instant::now());
        assert_eq!(e.state(&cfg), BreakerState::Open);
        assert!(!e.eligible(&cfg));
        assert!(e.eligible_in(&cfg) > Duration::ZERO);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(e.state(&cfg), BreakerState::HalfOpen);
        assert!(e.eligible(&cfg), "half-open endpoints take a probe");
        e.opened_at = None;
        e.consecutive_failures = 0;
        assert_eq!(e.state(&cfg), BreakerState::Closed);
    }

    #[test]
    fn backoff_grows_caps_and_respects_the_hint() {
        let mut pool = SagaPool::new(
            ["127.0.0.1:1"],
            PoolConfig {
                retry: RetryPolicy {
                    base_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(100),
                    jitter: 0.0,
                    ..RetryPolicy::default()
                },
                ..PoolConfig::default()
            },
        );
        assert_eq!(pool.backoff(0, None), Duration::from_millis(10));
        assert_eq!(pool.backoff(1, None), Duration::from_millis(20));
        assert_eq!(pool.backoff(2, None), Duration::from_millis(40));
        assert_eq!(
            pool.backoff(6, None),
            Duration::from_millis(100),
            "capped at max_backoff"
        );
        assert_eq!(
            pool.backoff(0, Some(75)),
            Duration::from_millis(75),
            "floored at the server hint"
        );
        assert_eq!(
            pool.backoff(6, Some(75)),
            Duration::from_millis(100),
            "hint below the schedule changes nothing"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let cfg = |seed| PoolConfig {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_millis(100),
                jitter: 0.5,
                ..RetryPolicy::default()
            },
            seed,
            ..PoolConfig::default()
        };
        let mut a = SagaPool::new(["127.0.0.1:1"], cfg(7));
        let mut b = SagaPool::new(["127.0.0.1:1"], cfg(7));
        let mut c = SagaPool::new(["127.0.0.1:1"], cfg(8));
        let draws_a: Vec<Duration> = (0..32).map(|_| a.backoff(0, None)).collect();
        let draws_b: Vec<Duration> = (0..32).map(|_| b.backoff(0, None)).collect();
        let draws_c: Vec<Duration> = (0..32).map(|_| c.backoff(0, None)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same jitter stream");
        assert_ne!(draws_a, draws_c, "different seed, different stream");
        for d in draws_a {
            assert!(
                (Duration::from_millis(50)..=Duration::from_millis(150)).contains(&d),
                "jitter 0.5 keeps delays within [0.5x, 1.5x]: {d:?}"
            );
        }
    }

    #[test]
    fn round_robin_skips_open_breakers() {
        let mut pool = SagaPool::new(
            ["a:1", "b:1", "c:1"],
            PoolConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_secs(60),
                },
                ..PoolConfig::default()
            },
        );
        assert_eq!(pool.pick().unwrap(), 0);
        assert_eq!(pool.pick().unwrap(), 1);
        assert_eq!(pool.pick().unwrap(), 2);
        assert_eq!(pool.pick().unwrap(), 0, "wraps around");
        // Trip endpoint 1: rotation must skip it.
        pool.on_transport_failure(1);
        assert_eq!(pool.endpoint_stats()[1].state, BreakerState::Open);
        let picks: Vec<usize> = (0..4).map(|_| pool.pick().unwrap()).collect();
        assert!(
            !picks.contains(&1),
            "open breaker is never routed: {picks:?}"
        );
        // Trip everything: picking reports the wait instead.
        pool.on_transport_failure(0);
        pool.on_transport_failure(2);
        assert!(pool.pick().is_err(), "no eligible endpoint");
    }

    #[test]
    fn transport_failures_open_the_breaker_and_responses_close_it() {
        let mut pool = SagaPool::new(
            ["a:1"],
            PoolConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(5),
                },
                ..PoolConfig::default()
            },
        );
        pool.on_transport_failure(0);
        pool.on_transport_failure(0);
        assert_eq!(pool.endpoint_stats()[0].state, BreakerState::Closed);
        pool.on_transport_failure(0);
        assert_eq!(pool.endpoint_stats()[0].state, BreakerState::Open);
        assert_eq!(pool.endpoint_stats()[0].breaker_opens, 1);
        std::thread::sleep(Duration::from_millis(6));
        assert_eq!(pool.endpoint_stats()[0].state, BreakerState::HalfOpen);
        // A failed probe re-opens (full cooldown again) without
        // recounting an open.
        pool.on_transport_failure(0);
        assert_eq!(pool.endpoint_stats()[0].state, BreakerState::Open);
        assert_eq!(pool.endpoint_stats()[0].breaker_opens, 1);
        std::thread::sleep(Duration::from_millis(6));
        // A successful probe closes and resets the failure run.
        pool.on_response(0);
        let stats = &pool.endpoint_stats()[0];
        assert_eq!(stats.state, BreakerState::Closed);
        assert_eq!(stats.consecutive_failures, 0);
    }
}
