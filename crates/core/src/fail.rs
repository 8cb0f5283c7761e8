//! Deterministic failpoints: named fault-injection sites for chaos drills.
//!
//! Production code marks the places where the platform touches something
//! that can fail in the real world — an fsync, a checkpoint publish, a
//! replica's replay poll, a server's socket loop — with a *failpoint*: a
//! named site that is a no-op branch on one relaxed atomic load until a
//! test arms it. An armed site can inject an error, a delay (a wedge), or
//! a panic, on a precise hit schedule (`after` skips, `times` firings), so
//! "the third fsync fails" or "replica 2's poll loop wedges for 200 ms"
//! becomes a deterministic, repeatable test instead of ad-hoc scaffolding.
//!
//! # Usage
//!
//! Sites are declared with the [`failpoint!`](crate::failpoint) macro (in
//! code whose enclosing function returns [`Result`]) or a direct
//! [`check`]/[`check_scoped`] call (in loops that handle the error
//! themselves). Every entry point takes a [`Site`], and the only `Site`s
//! are the constants of the [`sites`] catalog — the single place to see
//! what can be made to fail.
//!
//! ```
//! use saga_core::fail::{self, sites, FailAction};
//!
//! // Arm: the second hit (and only the second) of the fsync site errors.
//! fail::configure(sites::OPLOG_APPEND_FSYNC, FailAction::error().after(1).times(1));
//! assert!(fail::check(sites::OPLOG_APPEND_FSYNC).is_ok()); // hit 1: skipped
//! assert!(fail::check(sites::OPLOG_APPEND_FSYNC).is_err()); // hit 2: fires
//! assert!(fail::check(sites::OPLOG_APPEND_FSYNC).is_ok()); // hit 3: exhausted
//! fail::clear_all();
//! ```
//!
//! # Scopes
//!
//! Several instances of one component may run in a single process (three
//! in-process `saga-server`s in a failover drill, N fleet workers). A
//! *scope* string — typically a server or fleet label — lets a drill arm
//! a site for one instance only: [`configure_scoped`] registers under
//! `(site, scope)`, and a [`check_scoped`] call matches its own scope
//! first, then the unscoped configuration. Unscoped [`configure`] arms
//! the site for every scope.
//!
//! # Determinism
//!
//! The registry itself has no randomness: a site fires on exactly the
//! configured hits, in the order the instrumented code reaches them.
//! Randomized chaos drills get their nondeterminism from a *seeded*
//! schedule generator on the test side, so any failing schedule replays
//! from its seed. Delays sleep in short slices and re-check the registry
//! epoch, so [`clear_all`] promptly releases wedged threads.
//!
//! # Cost when disarmed
//!
//! The `failpoint!` macro compiles to one relaxed atomic load and a
//! never-taken branch while nothing is configured (the registry lock is
//! not touched). The `failover_resilience` bench holds this below 1% of
//! the oplog append hot path. Hit counters ([`hits`]) tick only while at
//! least one site is armed, for the same reason.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{Result, SagaError};

/// A failpoint site: one of the [`sites`] constants. The name inside is
/// private, so code outside this module cannot mint a site of its own —
/// an inline literal does not compile:
///
/// ```compile_fail,E0308
/// use saga_core::fail::{self, FailAction};
/// fail::configure("oplog::append_fsync", FailAction::error());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Site(&'static str);

/// The catalog of failpoint sites threaded through the platform. Every
/// `failpoint!`/[`check`] call names one of these constants, so this
/// list is the complete fault surface a chaos drill can drive.
pub mod sites {
    use super::Site;

    /// Oplog: serializing + writing one appended operation line.
    pub const OPLOG_APPEND_WRITE: Site = Site("oplog::append_write");
    /// Oplog: the per-append fsync under `FlushPolicy::Fsync`-style
    /// durability (fires for explicit `sync()` batch fsyncs too).
    pub const OPLOG_APPEND_FSYNC: Site = Site("oplog::append_fsync");
    /// Oplog: the atomic rewrite inside log compaction.
    pub const OPLOG_COMPACT: Site = Site("oplog::compact");
    /// Writer: between the write-ahead append and the apply of one
    /// `LoggedWriter` commit. An error fails the commit with the op in the
    /// log and the graph untouched — a producer that died there. Unscoped:
    /// armed, it fires in whichever writer of the process commits next, so
    /// its drills live in a test binary of their own.
    pub const WRITER_BEFORE_APPLY: Site = Site("writer::before_apply");
    /// Checkpoint: the temp-write/fsync/rename publish of one artifact.
    pub const CHECKPOINT_PUBLISH: Site = Site("checkpoint::publish");
    /// Fleet: top of a replica worker's replay poll loop (scoped by
    /// `FleetConfig::fail_scope`). An error kills the worker the way a
    /// replay failure would; a panic exercises the drop-guard death
    /// path; a delay wedges it.
    pub const FLEET_WORKER_POLL: Site = Site("fleet::worker_poll");
    /// Net server: the per-connection read loop, checked after each
    /// decoded frame and before admission (scoped by
    /// `ServerConfig::fail_scope`). An error drops the connection with
    /// the request unexecuted — the kill -9 a remote client observes; a
    /// delay wedges the reader.
    pub const NET_SERVER_READ: Site = Site("net::server_read");
    /// Net server: the connection-team thread that read an admitted
    /// request, before it decodes it (scoped by
    /// `ServerConfig::fail_scope`). A delay parks that thread holding the
    /// request's admission slot — the slow request of the interleave and
    /// saturation drills; an error answers `ErrorKind::Internal` with the
    /// request unexecuted.
    pub const NET_SERVER_EXECUTE: Site = Site("net::server_execute");
    /// Net server: the response write path (scoped by
    /// `ServerConfig::fail_scope`). An error drops the response after
    /// the request executed — the ack-lost half-failure that makes a
    /// commit's outcome ambiguous to its client.
    pub const NET_SERVER_WRITE: Site = Site("net::server_write");
}

/// What an armed site does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailKind {
    /// Return a typed error (`SagaError::Storage`) from the site.
    Error,
    /// Sleep for the given duration, then proceed normally. Sleeps in
    /// short slices and aborts early if the registry changes, so
    /// [`clear_all`] un-wedges parked threads promptly.
    Delay(Duration),
    /// Panic at the site (exercises drop-guard / supervisor paths).
    Panic,
}

/// One site's armed behaviour: the action plus its hit schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailAction {
    /// What happens on a firing hit.
    pub kind: FailKind,
    /// Hits to pass through unharmed before the first firing.
    pub after: u64,
    /// Firings before the site exhausts (`u64::MAX` = unlimited).
    pub times: u64,
}

impl FailAction {
    /// An error action firing on every hit until cleared.
    pub fn error() -> Self {
        FailAction {
            kind: FailKind::Error,
            after: 0,
            times: u64::MAX,
        }
    }

    /// A delay (wedge) action firing on every hit until cleared.
    pub fn delay(d: Duration) -> Self {
        FailAction {
            kind: FailKind::Delay(d),
            after: 0,
            times: u64::MAX,
        }
    }

    /// A panic action firing on every hit until cleared.
    pub fn panic() -> Self {
        FailAction {
            kind: FailKind::Panic,
            after: 0,
            times: u64::MAX,
        }
    }

    /// Pass `n` hits through unharmed before the first firing.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fire at most `n` times, then let hits pass again.
    pub fn times(mut self, n: u64) -> Self {
        self.times = n;
        self
    }
}

/// Live state of one armed `(site, scope)` entry.
struct SiteState {
    action: FailAction,
    /// Hits still to skip before firing.
    skip: u64,
    /// Firings left (`u64::MAX` = unlimited).
    left: u64,
}

struct Registry {
    /// Armed entries keyed by `(site, scope)`; the unscoped entry uses
    /// an empty scope and matches every scoped check.
    entries: HashMap<(Site, String), SiteState>,
    /// Hits per site (any scope), counted while the registry is armed.
    hits: HashMap<Site, u64>,
}

/// Number of armed entries; the disarmed fast path is one relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);
/// Bumped on every configure/clear; delay slices watch it to abort early.
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            entries: HashMap::new(),
            hits: HashMap::new(),
        })
    })
}

/// True while at least one site is armed. The `failpoint!` macro checks
/// this before touching anything else; instrumented hot paths pay one
/// relaxed atomic load when the registry is empty.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// Arm `site` for every scope.
pub fn configure(site: Site, action: FailAction) {
    configure_scoped(site, "", action);
}

/// Arm `site` for checks carrying exactly `scope` (an empty scope arms
/// it for every scope). Re-configuring a live entry replaces it and
/// resets its hit schedule.
pub fn configure_scoped(site: Site, scope: &str, action: FailAction) {
    let mut reg = registry().lock();
    let state = SiteState {
        skip: action.after,
        left: action.times,
        action,
    };
    if reg
        .entries
        .insert((site, scope.to_string()), state)
        .is_none()
    {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Disarm `site` (every scope).
pub fn clear(site: Site) {
    let mut reg = registry().lock();
    let before = reg.entries.len();
    reg.entries.retain(|(s, _), _| *s != site);
    let removed = before - reg.entries.len();
    if removed > 0 {
        ARMED.fetch_sub(removed, Ordering::Relaxed);
    }
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Disarm everything and reset hit counters. Wedged delays notice the
/// epoch change and return within one sleep slice.
pub fn clear_all() {
    let mut reg = registry().lock();
    let removed = reg.entries.len();
    reg.entries.clear();
    reg.hits.clear();
    if removed > 0 {
        ARMED.fetch_sub(removed, Ordering::Relaxed);
    }
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Times `site` has been checked (any scope) since the registry was last
/// cleared. Counted only while armed — the disarmed fast path does not
/// touch the registry.
pub fn hits(site: Site) -> u64 {
    registry().lock().hits.get(&site).copied().unwrap_or(0)
}

/// Check an unscoped site. Equivalent to [`check_scoped`] with `""`.
pub fn check(site: Site) -> Result<()> {
    check_scoped(site, "")
}

/// Check a scoped site: fires if the site is armed for this scope, or
/// armed unscoped. Returns the injected error on an `Error` firing,
/// sleeps through a `Delay`, panics on a `Panic`; otherwise `Ok(())`.
pub fn check_scoped(site: Site, scope: &str) -> Result<()> {
    if !armed() {
        return Ok(());
    }
    let fired = {
        let mut reg = registry().lock();
        *reg.hits.entry(site).or_insert(0) += 1;
        let state = match lookup(&mut reg, site, scope) {
            Some(state) => state,
            None => return Ok(()),
        };
        if state.skip > 0 {
            state.skip -= 1;
            return Ok(());
        }
        if state.left == 0 {
            return Ok(());
        }
        if state.left != u64::MAX {
            state.left -= 1;
        }
        state.action.kind.clone()
        // Lock drops here: delays must never sleep under the registry
        // lock, or clear_all() could not un-wedge them.
    };
    match fired {
        FailKind::Error => Err(SagaError::Storage(format!(
            "failpoint {}: injected error",
            site.0
        ))),
        FailKind::Delay(total) => {
            sliced_sleep(total);
            Ok(())
        }
        FailKind::Panic => panic!("failpoint {}: injected panic", site.0),
    }
}

fn lookup<'a>(reg: &'a mut Registry, site: Site, scope: &str) -> Option<&'a mut SiteState> {
    // Borrow-checker friendly two-phase lookup: decide the key, then
    // take the single mutable borrow.
    let scoped = (site, scope.to_string());
    let key = if reg.entries.contains_key(&scoped) {
        scoped
    } else {
        (site, String::new())
    };
    reg.entries.get_mut(&key)
}

/// Sleep `total` in short slices, returning early if the registry is
/// reconfigured (so a cleared wedge releases its thread promptly).
fn sliced_sleep(total: Duration) {
    const SLICE: Duration = Duration::from_millis(5);
    let epoch = EPOCH.load(Ordering::Relaxed);
    let mut remaining = total;
    while !remaining.is_zero() {
        let nap = remaining.min(SLICE);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
        if EPOCH.load(Ordering::Relaxed) != epoch {
            return;
        }
    }
}

/// Declare a failpoint site in code whose enclosing function returns
/// [`Result`](crate::Result): a no-op branch on one relaxed atomic load
/// until the site is armed, then whatever the armed action injects.
///
/// Takes a [`Site`] constant from [`fail::sites`](sites) and optionally
/// a scope expression:
///
/// ```ignore
/// saga_core::failpoint!(fail::sites::OPLOG_APPEND_FSYNC);
/// saga_core::failpoint!(fail::sites::NET_SERVER_READ, &self.scope);
/// ```
///
/// Loops that handle injected errors themselves call
/// [`fail::check`](check) / [`fail::check_scoped`](check_scoped)
/// directly instead.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::fail::armed() {
            $crate::fail::check($site)?;
        }
    };
    ($site:expr, $scope:expr) => {
        if $crate::fail::armed() {
            $crate::fail::check_scoped($site, $scope)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The registry is process-global; tests in this module serialize on
    /// one lock so their schedules cannot interleave.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = GATE.get_or_init(|| Mutex::new(())).lock();
        clear_all();
        guard
    }

    const SITE: Site = sites::OPLOG_APPEND_FSYNC;

    #[test]
    fn disarmed_sites_are_free_and_ok() {
        let _g = serial();
        assert!(!armed());
        assert!(check(SITE).is_ok());
        assert_eq!(hits(SITE), 0, "disarmed checks do not count hits");
    }

    #[test]
    fn error_fires_on_the_exact_schedule() {
        let _g = serial();
        configure(SITE, FailAction::error().after(2).times(2));
        assert!(check(SITE).is_ok());
        assert!(check(SITE).is_ok());
        assert!(check(SITE).is_err());
        let err = check(SITE).unwrap_err();
        assert!(err.to_string().contains(SITE.0), "{err}");
        assert!(!err.is_retryable(), "injected storage errors are hard");
        assert!(check(SITE).is_ok(), "exhausted after `times` firings");
        assert_eq!(hits(SITE), 5);
        clear_all();
        assert!(!armed());
    }

    #[test]
    fn scoped_config_hits_only_its_scope_and_unscoped_hits_all() {
        let _g = serial();
        configure_scoped(SITE, "s1", FailAction::error());
        assert!(check_scoped(SITE, "s0").is_ok());
        assert!(check_scoped(SITE, "s1").is_err());
        assert!(check(SITE).is_ok(), "unscoped check misses scoped config");
        configure(SITE, FailAction::error());
        assert!(check_scoped(SITE, "s0").is_err(), "unscoped arms all");
        // The scoped entry wins for its own scope (still armed).
        assert!(check_scoped(SITE, "s1").is_err());
        clear(SITE);
        assert!(check_scoped(SITE, "s1").is_ok());
        assert!(!armed());
        clear_all();
    }

    #[test]
    fn delay_sleeps_and_clear_all_unwedges_early() {
        let _g = serial();
        configure(SITE, FailAction::delay(Duration::from_millis(40)).times(1));
        let start = Instant::now();
        assert!(check(SITE).is_ok());
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "delay should sleep close to its budget: {:?}",
            start.elapsed()
        );
        // A long wedge released mid-sleep by clear_all from another thread.
        configure(SITE, FailAction::delay(Duration::from_secs(30)));
        let start = Instant::now();
        let waker = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            clear_all();
        });
        assert!(check(SITE).is_ok());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "clear_all must release the wedge early, took {:?}",
            start.elapsed()
        );
        waker.join().unwrap();
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _g = serial();
        configure(SITE, FailAction::panic().times(1));
        let caught = std::panic::catch_unwind(|| {
            let _ = check(SITE);
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(SITE.0), "panic names the site: {msg}");
        clear_all();
    }

    #[test]
    fn reconfigure_resets_the_schedule() {
        let _g = serial();
        configure(SITE, FailAction::error().times(1));
        assert!(check(SITE).is_err());
        assert!(check(SITE).is_ok());
        configure(SITE, FailAction::error().times(1));
        assert!(check(SITE).is_err(), "re-arm resets the times budget");
        clear_all();
    }
}
