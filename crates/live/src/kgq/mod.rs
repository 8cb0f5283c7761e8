//! KGQ: the live graph query language (§4.2).
//!
//! "Clients can specify queries using a specially designed graph query
//! language called KGQ. KGQ is expressive enough to capture the semantics
//! of natural language queries … while limiting expressiveness (compared
//! to more general graph query languages) in order to bound query
//! performance. The queries primarily express graph traversal constraints
//! for entity search, including multi-hop traversals. KGQ is an extensible
//! language, allowing users to implement virtual operators."
//!
//! Surface syntax (bounded by construction — no recursion, fixed-depth
//! paths):
//!
//! ```text
//! FIND city WHERE name = "Springfield" AND located_in -> entity("Illinois") LIMIT 5
//! FIND sports_game WHERE home_team -> AKG:17
//! FIND song WHERE ByArtist("Billie Eilish")          -- virtual operator
//! GET AKG:12 . spouse . name                          -- multi-hop path
//! GET "Beyoncé" . spouse . name
//! ```
//!
//! Library callers skip the text round-trip entirely and build the same
//! [`Query`] AST through the typed [`QueryBuilder`].
//!
//! The engine is generic over [`GraphRead`], so the same parser, compiler,
//! executor and plan cache serve the writer's graph, a log replica, or the
//! fleet. Queries compile to physical plans (index probes — operator
//! pushdown) that are cached per query text; the index's
//! [`probe_all_limit`](saga_core::TripleIndex::probe_all_limit) orders a
//! plan's probes by selectivity and stops at its `LIMIT`. A cached plan
//! re-resolves the edge targets it bound at compile time and recompiles
//! only if one of them moved.
//!
//! A query reads one state: revalidation, compile and execute all run
//! inside one [`read_state`](GraphRead::read_state), so a GET path or a
//! named edge target never reads two op boundaries in one answer.

pub mod builder;
pub mod exec;
pub mod materialized;
pub mod parser;

pub use builder::{FindBuilder, GetBuilder, QueryBuilder};
pub use exec::{compile, execute, Plan, QueryResult};
pub use materialized::MaterializedKgqView;
pub use parser::{parse, Condition, Query, Target};

use exec::{compile_resolved, execute_on, still_resolves, Resolved};
use parking_lot::RwLock;
use saga_core::{FxHashMap, GraphRead, Result, SagaError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::store::ReplicaKg;

/// A virtual operator: expands `Op(args)` into primitive conditions at
/// compile time, "facilitating easy reuse of complex expressions".
pub type VirtualOp = Arc<dyn Fn(&[String]) -> Result<Vec<Condition>> + Send + Sync>;

/// One cached physical plan and the edge targets it resolved at compile
/// time. The plan's postings are read live at execute time, so only a
/// moved resolution can make it stale.
struct CachedPlan {
    resolved: Resolved,
    plan: Plan,
}

/// The KG Query Engine: parser + compiler + executor + plan cache, generic
/// over the [`GraphRead`] backend it serves (defaults to the replica store).
pub struct QueryEngine<G: GraphRead = ReplicaKg> {
    graph: G,
    virtual_ops: Arc<RwLock<FxHashMap<String, VirtualOp>>>,
    plan_cache: Arc<RwLock<FxHashMap<String, Arc<CachedPlan>>>>,
    /// Cache lookups that revalidated and executed a cached plan.
    plan_hits: Arc<AtomicU64>,
    /// Full compiles (cold misses plus moved edge-target resolutions).
    plan_compiles: Arc<AtomicU64>,
}

impl<G: GraphRead + Clone> Clone for QueryEngine<G> {
    fn clone(&self) -> Self {
        QueryEngine {
            graph: self.graph.clone(),
            virtual_ops: Arc::clone(&self.virtual_ops),
            plan_cache: Arc::clone(&self.plan_cache),
            plan_hits: Arc::clone(&self.plan_hits),
            plan_compiles: Arc::clone(&self.plan_compiles),
        }
    }
}

impl<G: GraphRead> QueryEngine<G> {
    /// An engine over any [`GraphRead`] backend.
    pub fn new(graph: G) -> Self {
        QueryEngine {
            graph,
            virtual_ops: Arc::new(RwLock::new(FxHashMap::default())),
            plan_cache: Arc::new(RwLock::new(FxHashMap::default())),
            plan_hits: Arc::new(AtomicU64::new(0)),
            plan_compiles: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The backend being served.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Register a virtual operator under `name`. A name is registered
    /// once: cached plans hold the expansion they were compiled with, so
    /// a second definition would leave them answering with the first.
    pub fn register_virtual_op(
        &self,
        name: &str,
        op: impl Fn(&[String]) -> Result<Vec<Condition>> + Send + Sync + 'static,
    ) -> Result<()> {
        let mut ops = self.virtual_ops.write();
        if ops.contains_key(name) {
            return Err(SagaError::Query(format!(
                "virtual operator {name} already registered"
            )));
        }
        ops.insert(name.to_string(), Arc::new(op));
        Ok(())
    }

    /// Expand a virtual operator (compiler hook).
    pub(crate) fn expand_virtual(&self, name: &str, args: &[String]) -> Result<Vec<Condition>> {
        let ops = self.virtual_ops.read();
        let op = ops
            .get(name)
            .ok_or_else(|| SagaError::Query(format!("unknown virtual operator {name}")))?;
        op(args)
    }

    /// Parse, compile (with plan caching) and execute a KGQ query, all on
    /// one state of the backend. A cached plan is reused iff every edge
    /// target it resolved still resolves to the same id; a plan with none
    /// is always reused.
    ///
    /// The cache is looked up before the state is lent and written inside
    /// it only to insert a recompiled plan, so no thread waits for the
    /// store while it holds the cache: a guard held across execution would
    /// queue every recompile's `write()` behind all in-flight reads, and
    /// new readers behind that writer.
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        let cached = self.plan_cache.read().get(text).cloned();
        // A miss parses before the state is lent, so a store's writer
        // never waits on the parser; only a stale hit parses inside it.
        let parsed = match cached {
            None => Some(parse(text)?),
            Some(_) => None,
        };
        self.graph.read_state(|state| {
            if let Some(cached) = cached.filter(|c| still_resolves(state, &c.resolved)) {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                return execute_on(state, &cached.plan);
            }
            let ast = match parsed {
                Some(ast) => ast,
                None => parse(text)?,
            };
            let (plan, resolved) = compile_resolved(self, state, &ast)?;
            self.plan_compiles.fetch_add(1, Ordering::Relaxed);
            let result = execute_on(state, &plan);
            self.plan_cache
                .write()
                .insert(text.to_string(), Arc::new(CachedPlan { resolved, plan }));
            result
        })
    }

    /// Plan-cache telemetry: `(hits, compiles)` — cache lookups whose edge
    /// targets still resolved and that executed without recompiling, vs.
    /// full compiles (cold misses + moved resolutions).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_compiles.load(Ordering::Relaxed),
        )
    }

    /// Compile and execute a programmatically built [`Query`] (see
    /// [`QueryBuilder`]). Built queries skip the text plan cache — callers
    /// that reuse one repeatedly should hold the compiled [`Plan`] via
    /// [`compile`] + [`execute`].
    pub fn run(&self, query: &Query) -> Result<QueryResult> {
        self.graph.read_state(|state| {
            let (plan, _) = compile_resolved(self, state, query)?;
            execute_on(state, &plan)
        })
    }

    /// Number of cached plans (observability/tests).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.read().len()
    }

    /// Drop every cached plan. Never needed for correctness: a hit
    /// re-resolves the plan's edge targets and recompiles if one moved.
    pub fn invalidate_plans(&self) {
        self.plan_cache.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{
        intern, Delta, DeltaFact, EntityId, KnowledgeGraph, ProbeKey, SourceId, TripleIndex, Value,
    };
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// A backend that counts every `read_state` and parks each one, inside
    /// the lent state, between two rendezvous points — so a test can hold
    /// a thread inside a query. Barriers of one party never park.
    struct Gated {
        inner: ReplicaKg,
        reads: AtomicUsize,
        entered: Barrier,
        release: Barrier,
    }

    impl Gated {
        fn new(kg: &KnowledgeGraph, parties: usize) -> Self {
            Gated {
                inner: ReplicaKg::from_index(kg.index().clone()),
                reads: AtomicUsize::new(0),
                entered: Barrier::new(parties),
                release: Barrier::new(parties),
            }
        }

        /// How many states `f` reads.
        fn reads_of(&self, f: impl FnOnce()) -> usize {
            let before = self.reads.load(Ordering::SeqCst);
            f();
            self.reads.load(Ordering::SeqCst) - before
        }
    }

    impl GraphRead for Gated {
        fn read_state<R>(&self, f: impl FnOnce(&TripleIndex) -> R) -> R {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.read_state(|state| {
                self.entered.wait();
                self.release.wait();
                f(state)
            })
        }
    }

    #[test]
    fn plan_cache_is_unlocked_while_a_cached_plan_executes() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Alpha", "song", SourceId(1), 0.9);
        let engine = QueryEngine::new(Gated::new(&kg, 2));
        let text = "FIND song LIMIT 5";
        std::thread::scope(|scope| {
            // First call compiles and caches; the second takes the hit path.
            for expected_hits in [0, 1] {
                let reader = scope.spawn(|| engine.query(text).unwrap());
                engine.graph().entered.wait();
                // The reader is parked inside `read_state`, past its cache
                // lookup, right now. Sample, then let it go before
                // asserting, so a failure cannot leave it parked.
                let writable = engine.plan_cache.try_write().is_some();
                engine.graph().release.wait();
                assert_eq!(reader.join().unwrap().entities(), &[EntityId(1)]);
                assert_eq!(engine.plan_cache_stats().0, expected_hits);
                assert!(
                    writable,
                    "a recompile must not queue behind an in-flight execute"
                );
            }
        });
    }

    /// Every query and every provided read takes exactly one state: the
    /// count that makes "a query reads one state" hold on any backend.
    #[test]
    fn each_query_and_read_takes_one_state() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Alpha", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Beta", "artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Gamma", "artist", SourceId(1), 0.9);
        kg.commit_upsert(saga_core::ExtendedTriple::simple(
            EntityId(1),
            intern("performed_by"),
            Value::Entity(EntityId(2)),
            saga_core::FactMeta::from_source(SourceId(1), 0.9),
        ));
        let engine = QueryEngine::new(Gated::new(&kg, 1));
        let graph = engine.graph();
        let one_state = |what: &str, f: &dyn Fn()| assert_eq!(graph.reads_of(f), 1, "{what}");
        let find = r#"FIND song WHERE performed_by -> entity("Beta")"#;
        let answer = || engine.query(find).unwrap().entities().to_vec();

        one_state("a cold FIND with a named edge target", &|| {
            assert_eq!(answer(), [EntityId(1)]);
        });
        one_state("a cached FIND", &|| assert_eq!(answer(), [EntityId(1)]));
        assert_eq!(engine.plan_cache_stats(), (1, 1));

        // "Beta" moves from entity 2 to entity 3.
        let rename = |id: u64, from: &str, to: &str| Delta {
            entity: EntityId(id),
            added: vec![DeltaFact {
                predicate: intern("name"),
                object: Value::str(to),
            }],
            removed: vec![DeltaFact {
                predicate: intern("name"),
                object: Value::str(from),
            }],
        };
        graph
            .inner
            .apply(&[rename(2, "Beta", "Delta"), rename(3, "Gamma", "Beta")]);
        one_state("a cache hit whose edge target moved", &|| {
            assert!(answer().is_empty());
        });
        assert_eq!(engine.plan_cache_stats(), (1, 2), "recompiled");

        one_state("a GET path", &|| {
            let names = engine.query("GET AKG:1 . performed_by . name").unwrap();
            assert_eq!(names.values(), [Value::str("Delta")]);
        });
        one_state("resolve_name", &|| {
            assert_eq!(graph.resolve_name("BETA"), [EntityId(3)]);
        });
        one_state("record", &|| {
            assert_eq!(graph.record(EntityId(3)).unwrap().name(), Some("Beta"));
        });
        one_state("probe_all", &|| {
            let artists = graph.probe_all(&[ProbeKey::Type(intern("artist"))]);
            assert_eq!(artists, [EntityId(2), EntityId(3)]);
        });
    }
}
