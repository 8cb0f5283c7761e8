//! KG views: catalog, dependency DAG, View Manager (§3.2, Fig. 7).
//!
//! "A view can be any transformation of the graph … We want to manage the
//! lifecycle of KG views alongside the KG base data itself." View
//! definitions provide procedures for creating the view and for updating
//! it given a list of changed entity IDs; definitions live in a central
//! catalog together with their dependencies. The View Manager executes the
//! dependency graph, reusing shared intermediate views — the multi-query
//! optimization that yielded the paper's 26% run-time improvement
//! (experiment E3 reproduces this by toggling
//! [`ViewManager::reuse_dependencies`]).

use std::time::Instant;

use saga_core::{EntityId, FxHashMap, KnowledgeGraph, Result, SagaError, TripleIndex, Value};

use crate::analytics::{AnalyticsStore, Frame};

/// Materialized view contents. Different engines produce different shapes
/// (the polystore reality of Fig. 6).
#[derive(Clone, Debug)]
pub enum ViewData {
    /// A columnar relation (analytics engine).
    Frame(Frame),
    /// Per-entity scores (importance, ranking features).
    Scores(FxHashMap<EntityId, f64>),
    /// Generic rows (legacy engine / exports).
    Rows(Vec<(u64, Value, Value)>),
    /// A sorted entity set (materialized KGQ conjunctions).
    Entities(Vec<EntityId>),
}

impl ViewData {
    /// The frame, if this is a columnar view.
    pub fn as_frame(&self) -> Option<&Frame> {
        match self {
            ViewData::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// The score map, if this is a score view.
    pub fn as_scores(&self) -> Option<&FxHashMap<EntityId, f64>> {
        match self {
            ViewData::Scores(s) => Some(s),
            _ => None,
        }
    }

    /// The entity set, if this is an entity-set view.
    pub fn as_entities(&self) -> Option<&[EntityId]> {
        match self {
            ViewData::Entities(e) => Some(e),
            _ => None,
        }
    }

    /// Row count of the materialization.
    pub fn len(&self) -> usize {
        match self {
            ViewData::Frame(f) => f.len(),
            ViewData::Scores(s) => s.len(),
            ViewData::Rows(r) => r.len(),
            ViewData::Entities(e) => e.len(),
        }
    }

    /// True if the materialization is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a view's procedures may read: the KG base data, the unified
/// triple index, the analytics store, and already-materialized dependency
/// views.
pub struct ViewContext<'a> {
    /// The KG base data.
    pub kg: &'a KnowledgeGraph,
    /// The unified triple index over the KG (SPO/POS/OSP probes) — the
    /// store incremental `update` procedures read instead of rescanning.
    pub index: &'a TripleIndex,
    /// The columnar analytics store.
    pub analytics: &'a AnalyticsStore,
    /// Materialized dependencies, by view name.
    pub deps: &'a FxHashMap<String, ViewData>,
}

impl ViewContext<'_> {
    /// Fetch a dependency's materialization.
    pub fn dep(&self, name: &str) -> Result<&ViewData> {
        self.deps
            .get(name)
            .ok_or_else(|| SagaError::View(format!("dependency view {name} not materialized")))
    }
}

/// How a view satisfied a maintenance request: by consuming the changed-id
/// set (touching work proportional to churn) or by falling back to a full
/// re-materialization (work proportional to graph size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshKind {
    /// The view rebuilt from scratch (initial create, fallback, or a view
    /// with no incremental procedure).
    Full,
    /// The view consumed the changed-id / delta information and touched
    /// only affected state.
    Incremental,
}

/// The result of a maintenance call: the new materialization plus the
/// view's own declaration of whether it actually consumed the change set.
/// `ViewManager` surfaces the declaration in [`RefreshReport`] so callers
/// (and the freshness gauges) can tell incremental refreshes from silent
/// full recomputes — the hazard that motivated this contract.
#[derive(Clone, Debug)]
pub struct Maintained {
    /// The new materialization.
    pub data: ViewData,
    /// Whether the change set was consumed.
    pub kind: RefreshKind,
}

impl Maintained {
    /// An incremental maintenance result.
    pub fn incremental(data: ViewData) -> Self {
        Maintained {
            data,
            kind: RefreshKind::Incremental,
        }
    }

    /// A full-recompute maintenance result.
    pub fn full(data: ViewData) -> Self {
        Maintained {
            data,
            kind: RefreshKind::Full,
        }
    }
}

/// A view definition: name, dependencies, create/update procedures.
pub trait View: Send + Sync {
    /// Unique view name.
    fn name(&self) -> &str;

    /// Names of views this view reads.
    fn dependencies(&self) -> Vec<String> {
        Vec::new()
    }

    /// Materialize from scratch.
    fn create(&self, ctx: &ViewContext<'_>) -> Result<ViewData>;

    /// Incrementally maintain given changed entity ids, declaring in the
    /// returned [`Maintained`] whether the change set was consumed. The
    /// default is a full re-create (always correct; views override when
    /// profitable).
    fn update(
        &self,
        ctx: &ViewContext<'_>,
        _current: ViewData,
        _changed: &[EntityId],
    ) -> Result<Maintained> {
        Ok(Maintained::full(self.create(ctx)?))
    }
}

/// A built-in incrementally-maintained view: per-entity fact counts (a
/// ranking feature), kept fresh by touching only the changed ids against
/// the unified triple index — the canonical shape of a §3.2 "update
/// procedure given a list of changed entity IDs".
pub struct FactCountView;

impl View for FactCountView {
    fn name(&self) -> &str {
        "entity_fact_counts"
    }

    fn create(&self, ctx: &ViewContext<'_>) -> Result<ViewData> {
        let mut scores: FxHashMap<EntityId, f64> = FxHashMap::default();
        let subjects = ctx.index.subjects(); // fallback: full rebuild of the count map
        for id in subjects {
            scores.insert(id, ctx.index.facts_of(id).count() as f64);
        }
        Ok(ViewData::Scores(scores))
    }

    fn update(
        &self,
        ctx: &ViewContext<'_>,
        current: ViewData,
        changed: &[EntityId],
    ) -> Result<Maintained> {
        let ViewData::Scores(mut scores) = current else {
            return Ok(Maintained::full(self.create(ctx)?)); // shape drifted: rebuild
        };
        for &id in changed {
            let count = ctx.index.facts_of(id).count();
            if count == 0 {
                scores.remove(&id);
            } else {
                scores.insert(id, count as f64);
            }
        }
        Ok(Maintained::incremental(ViewData::Scores(scores)))
    }
}

/// Catalog entry metadata.
pub struct ViewRegistration {
    /// The definition.
    pub view: Box<dyn View>,
    /// Freshness SLA in "cycles": refresh at least every N refresh calls
    /// (1 = every cycle). Views may specify different freshness SLAs.
    pub freshness_cycles: u64,
}

/// One view computation inside a refresh: which view, how long, and whether
/// it was incremental or a full recompute.
#[derive(Clone, Debug)]
pub struct Computation {
    /// The view name.
    pub view: String,
    /// Microseconds spent.
    pub micros: u128,
    /// How the view satisfied the request.
    pub kind: RefreshKind,
}

/// Per-refresh timing report.
#[derive(Clone, Debug, Default)]
pub struct RefreshReport {
    /// Per-view computations, in execution order. A view recomputed k times
    /// (reuse off) appears k times.
    pub computations: Vec<Computation>,
    /// Total wall-clock microseconds.
    pub total_us: u128,
}

impl RefreshReport {
    /// How the named view satisfied its most recent computation in this
    /// refresh, if it ran.
    pub fn kind_of(&self, name: &str) -> Option<RefreshKind> {
        self.computations
            .iter()
            .rev()
            .find(|c| c.view == name)
            .map(|c| c.kind)
    }

    /// Number of computations that consumed the change set.
    pub fn incremental_count(&self) -> usize {
        self.computations
            .iter()
            .filter(|c| c.kind == RefreshKind::Incremental)
            .count()
    }

    /// Number of computations that fell back to (or started as) a full
    /// recompute.
    pub fn full_count(&self) -> usize {
        self.computations
            .iter()
            .filter(|c| c.kind == RefreshKind::Full)
            .count()
    }
}

/// The View Manager: owns the catalog and materializations, coordinates
/// execution of the dependency graph.
pub struct ViewManager {
    catalog: Vec<ViewRegistration>,
    materialized: FxHashMap<String, ViewData>,
    /// Reuse shared dependency views (multi-query optimization). Toggled
    /// off for the E3 ablation: every consumer recomputes its dependencies.
    pub reuse_dependencies: bool,
    cycle: u64,
}

impl Default for ViewManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ViewManager {
    /// An empty manager with dependency reuse on.
    pub fn new() -> Self {
        ViewManager {
            catalog: Vec::new(),
            materialized: FxHashMap::default(),
            reuse_dependencies: true,
            cycle: 0,
        }
    }

    /// Register a view with a per-cycle freshness SLA.
    pub fn register(&mut self, view: Box<dyn View>, freshness_cycles: u64) -> Result<()> {
        if self.catalog.iter().any(|r| r.view.name() == view.name()) {
            return Err(SagaError::View(format!(
                "view {} already registered",
                view.name()
            )));
        }
        self.catalog.push(ViewRegistration {
            view,
            freshness_cycles: freshness_cycles.max(1),
        });
        // Validate the dependency graph eagerly (missing deps, cycles).
        self.topo_order()?;
        Ok(())
    }

    /// The materialization of a view.
    pub fn get(&self, name: &str) -> Option<&ViewData> {
        self.materialized.get(name)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.catalog.iter().position(|r| r.view.name() == name)
    }

    /// Kahn topological order over the catalog; errors on unknown
    /// dependencies or cycles.
    fn topo_order(&self) -> Result<Vec<usize>> {
        let n = self.catalog.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, reg) in self.catalog.iter().enumerate() {
            for dep in reg.view.dependencies() {
                let d = self.position(&dep).ok_or_else(|| {
                    SagaError::View(format!(
                        "view {} depends on unregistered view {dep}",
                        reg.view.name()
                    ))
                })?;
                indegree[i] += 1;
                consumers[d].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() != n {
            return Err(SagaError::View("view dependency cycle detected".into()));
        }
        order.sort_by_key(|&i| (self.depth(i), i)); // stable, deps-first, catalog order within depth
        Ok(order)
    }

    fn depth(&self, i: usize) -> usize {
        let mut max = 0;
        for dep in self.catalog[i].view.dependencies() {
            if let Some(d) = self.position(&dep) {
                max = max.max(1 + self.depth(d));
            }
        }
        max
    }

    /// Materialize all due views from scratch (a new KG construction).
    pub fn refresh_all(
        &mut self,
        kg: &KnowledgeGraph,
        analytics: &AnalyticsStore,
    ) -> Result<RefreshReport> {
        self.cycle += 1;
        let cycle = self.cycle;
        let order = self.topo_order()?;
        let start = Instant::now();
        let mut report = RefreshReport::default();

        if self.reuse_dependencies {
            let mut fresh: FxHashMap<String, ViewData> = FxHashMap::default();
            for &i in &order {
                let reg = &self.catalog[i];
                let due = cycle.is_multiple_of(reg.freshness_cycles)
                    || !self.materialized.contains_key(reg.view.name());
                if !due {
                    if let Some(old) = self.materialized.get(reg.view.name()) {
                        fresh.insert(reg.view.name().to_string(), old.clone());
                    }
                    continue;
                }
                let ctx = ViewContext {
                    kg,
                    index: kg.index(),
                    analytics,
                    deps: &fresh,
                };
                let t0 = Instant::now();
                let data = reg.view.create(&ctx)?;
                report.computations.push(Computation {
                    view: reg.view.name().to_string(),
                    micros: t0.elapsed().as_micros(),
                    kind: RefreshKind::Full,
                });
                fresh.insert(reg.view.name().to_string(), data);
            }
            self.materialized = fresh;
        } else {
            // No multi-query optimization: every view recomputes its whole
            // dependency closure privately.
            let mut final_results: FxHashMap<String, ViewData> = FxHashMap::default();
            for &i in &order {
                let name = self.catalog[i].view.name().to_string();
                let data = self.compute_closure(i, kg, analytics, &mut report)?;
                final_results.insert(name, data);
            }
            self.materialized = final_results;
        }
        report.total_us = start.elapsed().as_micros();
        Ok(report)
    }

    fn compute_closure(
        &self,
        i: usize,
        kg: &KnowledgeGraph,
        analytics: &AnalyticsStore,
        report: &mut RefreshReport,
    ) -> Result<ViewData> {
        let mut deps = FxHashMap::default();
        for dep in self.catalog[i].view.dependencies() {
            let d = self
                .position(&dep)
                .ok_or_else(|| SagaError::View(format!("unknown dependency {dep}")))?;
            let data = self.compute_closure(d, kg, analytics, report)?;
            deps.insert(dep, data);
        }
        let ctx = ViewContext {
            kg,
            index: kg.index(),
            analytics,
            deps: &deps,
        };
        let t0 = Instant::now();
        let data = self.catalog[i].view.create(&ctx)?;
        report.computations.push(Computation {
            view: self.catalog[i].view.name().to_string(),
            micros: t0.elapsed().as_micros(),
            kind: RefreshKind::Full,
        });
        Ok(data)
    }

    /// Incrementally maintain all views for `changed` entities.
    pub fn update_changed(
        &mut self,
        kg: &KnowledgeGraph,
        analytics: &AnalyticsStore,
        changed: &[EntityId],
    ) -> Result<RefreshReport> {
        let order = self.topo_order()?;
        let start = Instant::now();
        let mut report = RefreshReport::default();
        let mut fresh: FxHashMap<String, ViewData> = FxHashMap::default();
        for &i in &order {
            let reg = &self.catalog[i];
            let name = reg.view.name().to_string();
            let ctx = ViewContext {
                kg,
                index: kg.index(),
                analytics,
                deps: &fresh,
            };
            let t0 = Instant::now();
            let maintained = match self.materialized.remove(&name) {
                Some(current) => reg.view.update(&ctx, current, changed)?,
                None => Maintained::full(reg.view.create(&ctx)?),
            };
            report.computations.push(Computation {
                view: name.clone(),
                micros: t0.elapsed().as_micros(),
                kind: maintained.kind,
            });
            fresh.insert(name, maintained.data);
        }
        self.materialized = fresh;
        report.total_us = start.elapsed().as_micros();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, SourceId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A counting view: records how many times create() ran.
    struct CountingView {
        name: String,
        deps: Vec<String>,
        runs: Arc<AtomicUsize>,
    }

    impl View for CountingView {
        fn name(&self) -> &str {
            &self.name
        }
        fn dependencies(&self) -> Vec<String> {
            self.deps.clone()
        }
        fn create(&self, ctx: &ViewContext<'_>) -> Result<ViewData> {
            for d in &self.deps {
                ctx.dep(d)?; // deps must be materialized first
            }
            self.runs.fetch_add(1, Ordering::SeqCst);
            Ok(ViewData::Scores(FxHashMap::default()))
        }
    }

    fn counting(name: &str, deps: &[&str], runs: &Arc<AtomicUsize>) -> Box<CountingView> {
        Box::new(CountingView {
            name: name.into(),
            deps: deps.iter().map(|s| s.to_string()).collect(),
            runs: Arc::clone(runs),
        })
    }

    fn tiny_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(saga_core::EntityId(1), "A", "person", SourceId(1), 0.9);
        kg
    }

    #[test]
    fn dependency_reuse_computes_shared_views_once() {
        // Fig. 7 shape: features feeds both ranked-index and neighbourhood.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("entity_features", &[], &runs), 1)
            .unwrap();
        let r2 = Arc::new(AtomicUsize::new(0));
        vm.register(
            counting("ranked_entity_index", &["entity_features"], &r2),
            1,
        )
        .unwrap();
        let r3 = Arc::new(AtomicUsize::new(0));
        vm.register(
            counting("entity_neighbourhood", &["entity_features"], &r3),
            1,
        )
        .unwrap();

        let kg = tiny_kg();
        let store = AnalyticsStore::build(&kg);
        vm.refresh_all(&kg, &store).unwrap();
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "shared dep computed once with reuse"
        );

        vm.reuse_dependencies = false;
        vm.refresh_all(&kg, &store).unwrap();
        // entity_features recomputed: once for itself + once per consumer.
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1 + 3,
            "each consumer recomputes the dep"
        );
    }

    #[test]
    fn missing_dependency_is_rejected_at_registration() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        let err = vm
            .register(counting("v", &["ghost"], &runs), 1)
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn cycles_are_rejected() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("a", &[], &runs), 1).unwrap();
        vm.register(counting("b", &["a"], &runs), 1).unwrap();
        // Replace a's deps is impossible; instead register c -> c self-cycle.
        let err = vm.register(counting("c", &["c"], &runs), 1).unwrap_err();
        assert!(err.to_string().contains("cycle") || err.to_string().contains("unregistered"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("v", &[], &runs), 1).unwrap();
        assert!(vm.register(counting("v", &[], &runs), 1).is_err());
    }

    #[test]
    fn freshness_sla_skips_undue_views() {
        let hourly = Arc::new(AtomicUsize::new(0));
        let daily = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("hourly", &[], &hourly), 1).unwrap();
        vm.register(counting("daily", &[], &daily), 3).unwrap();
        let kg = tiny_kg();
        let store = AnalyticsStore::build(&kg);
        for _ in 0..6 {
            vm.refresh_all(&kg, &store).unwrap();
        }
        assert_eq!(hourly.load(Ordering::SeqCst), 6);
        // Due on first touch (cycle 1, not yet materialized) then on cycles
        // 3 and 6 → three computations over six refreshes.
        assert_eq!(daily.load(Ordering::SeqCst), 3);
        assert!(
            vm.get("daily").is_some(),
            "stale materialization retained between refreshes"
        );
    }

    #[test]
    fn fact_count_view_updates_incrementally_from_the_index() {
        use saga_core::{ExtendedTriple, FactMeta, Value};
        let mut kg = tiny_kg();
        kg.add_named_entity(saga_core::EntityId(2), "B", "person", SourceId(1), 0.9);
        let mut vm = ViewManager::new();
        vm.register(Box::new(FactCountView), 1).unwrap();
        let store = AnalyticsStore::build(&kg);
        vm.refresh_all(&kg, &store).unwrap();
        let scores = vm.get("entity_fact_counts").unwrap().as_scores().unwrap();
        assert_eq!(scores[&saga_core::EntityId(1)], 2.0, "name + type");

        // One new fact on entity 1; entity 2 untouched.
        kg.commit_upsert(ExtendedTriple::simple(
            saga_core::EntityId(1),
            intern("alias"),
            Value::str("Ace"),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let report = vm
            .update_changed(&kg, &store, &[saga_core::EntityId(1)])
            .unwrap();
        assert_eq!(
            report.kind_of("entity_fact_counts"),
            Some(RefreshKind::Incremental),
            "fact-count view declares it consumed the change set"
        );
        let scores = vm.get("entity_fact_counts").unwrap().as_scores().unwrap();
        assert_eq!(scores[&saga_core::EntityId(1)], 3.0);
        assert_eq!(scores[&saga_core::EntityId(2)], 2.0);

        // Retraction drops the entity from the view.
        saga_core::WriteBatch::new()
            .link(SourceId(1), "b", saga_core::EntityId(2))
            .retract_source_entity(SourceId(1), "b")
            .commit(&mut kg);
        vm.update_changed(&kg, &store, &[saga_core::EntityId(2)])
            .unwrap();
        let scores = vm.get("entity_fact_counts").unwrap().as_scores().unwrap();
        assert!(!scores.contains_key(&saga_core::EntityId(2)));
    }

    #[test]
    fn update_changed_runs_update_procedures_in_dep_order() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("base", &[], &runs), 1).unwrap();
        vm.register(counting("derived", &["base"], &runs), 1)
            .unwrap();
        let kg = tiny_kg();
        let store = AnalyticsStore::build(&kg);
        vm.refresh_all(&kg, &store).unwrap();
        let report = vm
            .update_changed(&kg, &store, &[saga_core::EntityId(1)])
            .unwrap();
        assert_eq!(report.computations.len(), 2);
        assert_eq!(
            report.computations[0].view, "base",
            "dependencies update first"
        );
        // CountingView has no incremental procedure: both fall back to Full
        // and the report says so.
        assert_eq!(report.full_count(), 2);
        assert_eq!(report.incremental_count(), 0);
        let _ = intern("x");
    }
}
