//! KG views: catalog and View Manager (§3.2, Fig. 7).
//!
//! "A view can be any transformation of the graph … We want to manage the
//! lifecycle of KG views alongside the KG base data itself." View
//! definitions provide procedures for creating the view and for updating
//! it given a list of changed entity IDs; definitions live in a central
//! catalog together with their dependencies. A view may depend only on
//! views registered before it, so the catalog runs in registration order,
//! and each view is computed once per refresh however many views read it
//! — the shared-dependency reuse behind the paper's 26% run-time
//! improvement.
//!
//! Only [`View::create`] receives the [`KnowledgeGraph`]: an update sees
//! the graph through [`ViewContext`]'s point reads, so its cost follows
//! the change set, not the graph.

use std::borrow::Cow;

use saga_core::{
    BlockPostings, EntityId, EntityRecord, FxHashMap, GraphRead, KnowledgeGraph, ProbeKey, Result,
    SagaError, Symbol, Value,
};

pub use context::ViewContext;

/// Materialized view contents.
#[derive(Clone, Debug)]
pub enum ViewData {
    /// Per-entity scores (importance, ranking features).
    Scores(FxHashMap<EntityId, f64>),
    /// A sorted entity set (materialized KGQ conjunctions).
    Entities(Vec<EntityId>),
}

impl ViewData {
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
            ViewData::Scores(s) => s.len(),
            ViewData::Entities(e) => e.len(),
        }
    }

    /// True if the materialization is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A module of its own, so that not even the views in this file can reach
/// a context's fields.
mod context {
    use super::*;

    /// What a view's procedures read besides the graph handed to
    /// `create`: point reads of the KG and the already-materialized
    /// dependency views. Only the [`ViewManager`] builds one, and nothing
    /// on it hands out the whole graph or its index, so an
    /// [`update`](View::update) cannot scan.
    pub struct ViewContext<'a> {
        kg: &'a KnowledgeGraph,
        deps: &'a FxHashMap<String, ViewData>,
    }

    impl<'a> ViewContext<'a> {
        pub(super) fn new(kg: &'a KnowledgeGraph, deps: &'a FxHashMap<String, ViewData>) -> Self {
            ViewContext { kg, deps }
        }

        /// A dependency's materialization.
        pub fn dep(&self, name: &str) -> Result<&'a ViewData> {
            self.deps
                .get(name)
                .ok_or_else(|| SagaError::View(format!("dependency view {name} not materialized")))
        }

        /// One entity's record.
        pub fn entity(&self, id: EntityId) -> Option<&'a EntityRecord> {
            self.kg.entity(id)
        }

        /// One entity's indexed `(predicate, object)` facts: a value is
        /// borrowed from the index, or built in place for an immediate.
        pub fn facts_of(
            &self,
            id: EntityId,
        ) -> impl Iterator<Item = (Symbol, Cow<'a, Value>)> + 'a {
            self.kg.index().facts_of(id)
        }

        /// The subjects with an edge to `target` (its OSP postings).
        pub fn referencing(&self, target: EntityId) -> &'a BlockPostings {
            self.kg.index().referencing(target)
        }
    }

    /// Probes and point reads forward to the KG.
    impl GraphRead for ViewContext<'_> {
        fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
            self.kg.postings_cursor(probe)
        }
        fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
            self.kg.postings(probe)
        }
        fn selectivity(&self, probe: &ProbeKey) -> usize {
            self.kg.selectivity(probe)
        }
        fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
            self.kg.probe_contains(probe, id)
        }
        fn record(&self, id: EntityId) -> Option<EntityRecord> {
            self.kg.record(id)
        }
        fn contains(&self, id: EntityId) -> bool {
            self.kg.contains(id)
        }
        fn generation(&self) -> u64 {
            self.kg.generation()
        }
        fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
            self.kg.probe_all_limit(probes, limit)
        }
    }
}

/// How a view satisfied a maintenance request: by consuming the changed-id
/// set (touching work proportional to churn) or by a full
/// re-materialization (work proportional to graph size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshKind {
    /// The view ran `create` (first materialization, `refresh_all`, or an
    /// `update` that declined the change set).
    Full,
    /// The view's `update` consumed the changed ids.
    Incremental,
}

/// A view definition: name, dependencies, create/update procedures. A view
/// owns whatever model it maintains between calls.
pub trait View: Send {
    /// Unique view name.
    fn name(&self) -> &str;

    /// Names of views this view reads; each must be registered first.
    fn dependencies(&self) -> Vec<String> {
        Vec::new()
    }

    /// Materialize from scratch. The only procedure handed the whole
    /// graph, so the only one that may scan it:
    ///
    /// ```
    /// use saga_core::{EntityId, KnowledgeGraph, Result, SourceId};
    /// use saga_graph::{View, ViewContext, ViewData, ViewManager};
    ///
    /// struct AllEntities;
    ///
    /// impl View for AllEntities {
    ///     fn name(&self) -> &str {
    ///         "all_entities"
    ///     }
    ///     fn create(&mut self, kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
    ///         let mut ids: Vec<EntityId> = kg.entities().map(|r| r.id).collect();
    ///         ids.sort_unstable();
    ///         Ok(ViewData::Entities(ids))
    ///     }
    /// }
    ///
    /// let mut kg = KnowledgeGraph::new();
    /// kg.add_named_entity(EntityId(1), "A", "person", SourceId(1), 0.9);
    /// let mut views = ViewManager::new();
    /// views.register(Box::new(AllEntities))?;
    /// views.refresh_all(&kg)?;
    /// assert_eq!(views.get("all_entities").unwrap().len(), 1);
    /// # Ok::<(), saga_core::SagaError>(())
    /// ```
    fn create(&mut self, kg: &KnowledgeGraph, ctx: &ViewContext<'_>) -> Result<ViewData>;

    /// Maintain `current` given the changed entity ids: `Some` is the new
    /// materialization ([`RefreshKind::Incremental`]); `None` declines the
    /// change set and the manager calls [`create`](Self::create) instead
    /// ([`RefreshKind::Full`]). The default declines.
    ///
    /// An update reads the graph only through `ctx`'s point reads; it
    /// cannot reach a scan such as `entities()`:
    ///
    /// ```compile_fail,E0599
    /// use saga_core::{EntityId, KnowledgeGraph, Result};
    /// use saga_graph::{View, ViewContext, ViewData};
    ///
    /// struct AllEntities;
    ///
    /// impl View for AllEntities {
    ///     fn name(&self) -> &str {
    ///         "all_entities"
    ///     }
    ///     fn create(&mut self, kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
    ///         Ok(ViewData::Entities(kg.entities().map(|r| r.id).collect()))
    ///     }
    ///     fn update(
    ///         &mut self,
    ///         ctx: &ViewContext<'_>,
    ///         _current: ViewData,
    ///         _changed: &[EntityId],
    ///     ) -> Result<Option<ViewData>> {
    ///         Ok(Some(ViewData::Entities(ctx.entities().map(|r| r.id).collect())))
    ///     }
    /// }
    /// ```
    fn update(
        &mut self,
        _ctx: &ViewContext<'_>,
        _current: ViewData,
        _changed: &[EntityId],
    ) -> Result<Option<ViewData>> {
        Ok(None)
    }
}

/// A built-in incrementally-maintained view: per-entity fact counts (a
/// ranking feature), kept fresh by touching only the changed ids — the
/// canonical shape of a §3.2 "update procedure given a list of changed
/// entity IDs".
pub struct FactCountView;

impl View for FactCountView {
    fn name(&self) -> &str {
        "entity_fact_counts"
    }

    fn create(&mut self, kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
        let index = kg.index();
        let scores = index
            .subjects()
            .map(|id| (id, index.facts_of(id).count() as f64))
            .collect();
        Ok(ViewData::Scores(scores))
    }

    fn update(
        &mut self,
        ctx: &ViewContext<'_>,
        current: ViewData,
        changed: &[EntityId],
    ) -> Result<Option<ViewData>> {
        let ViewData::Scores(mut scores) = current else {
            return Ok(None);
        };
        for &id in changed {
            let count = ctx.facts_of(id).count();
            if count == 0 {
                scores.remove(&id);
            } else {
                scores.insert(id, count as f64);
            }
        }
        Ok(Some(ViewData::Scores(scores)))
    }
}

/// One view computation inside a refresh: which view, and whether it was
/// incremental or a full recompute.
#[derive(Clone, Debug)]
pub struct Computation {
    /// The view name.
    pub view: String,
    /// How the view satisfied the request.
    pub kind: RefreshKind,
}

/// What one refresh computed.
#[derive(Clone, Debug, Default)]
pub struct RefreshReport {
    /// Per-view computations, in execution (registration) order.
    pub computations: Vec<Computation>,
}

impl RefreshReport {
    /// How the named view satisfied this refresh, if it ran.
    pub fn kind_of(&self, name: &str) -> Option<RefreshKind> {
        self.computations
            .iter()
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

    /// Number of computations that ran `create`.
    pub fn full_count(&self) -> usize {
        self.computations
            .iter()
            .filter(|c| c.kind == RefreshKind::Full)
            .count()
    }
}

/// The View Manager: owns the catalog and the materializations, and runs
/// the catalog in registration order.
#[derive(Default)]
pub struct ViewManager {
    catalog: Vec<Box<dyn View>>,
    materialized: FxHashMap<String, ViewData>,
}

impl ViewManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view. Its name must be new and its dependencies already
    /// registered, so registration order is a dependency order and no
    /// cycle can form.
    pub fn register(&mut self, view: Box<dyn View>) -> Result<()> {
        let registered = |name: &str| self.catalog.iter().any(|v| v.name() == name);
        if registered(view.name()) {
            return Err(SagaError::View(format!(
                "view {} already registered",
                view.name()
            )));
        }
        if let Some(dep) = view.dependencies().into_iter().find(|d| !registered(d)) {
            return Err(SagaError::View(format!(
                "view {} depends on unregistered view {dep}",
                view.name()
            )));
        }
        self.catalog.push(view);
        Ok(())
    }

    /// The materialization of a view.
    pub fn get(&self, name: &str) -> Option<&ViewData> {
        self.materialized.get(name)
    }

    /// Materialize every view from scratch (a new KG construction). A
    /// failure is handled as in [`update_changed`](Self::update_changed).
    pub fn refresh_all(&mut self, kg: &KnowledgeGraph) -> Result<RefreshReport> {
        self.run(kg, None)
    }

    /// Maintain every view for the `changed` entities. A view with no
    /// materialization, or whose `update` declines, is recreated. If a
    /// view fails, the others are still maintained and keep their
    /// materializations; the failed view loses its own and is recreated by
    /// the next call. The first error is returned.
    pub fn update_changed(
        &mut self,
        kg: &KnowledgeGraph,
        changed: &[EntityId],
    ) -> Result<RefreshReport> {
        self.run(kg, Some(changed))
    }

    fn run(&mut self, kg: &KnowledgeGraph, changed: Option<&[EntityId]>) -> Result<RefreshReport> {
        let mut report = RefreshReport::default();
        let mut first_err = None;
        for view in &mut self.catalog {
            let name = view.name().to_string();
            let current = self.materialized.remove(&name);
            let ctx = ViewContext::new(kg, &self.materialized);
            let updated = match (current, changed) {
                (Some(current), Some(changed)) => view.update(&ctx, current, changed),
                _ => Ok(None),
            };
            let computed = updated.and_then(|updated| match updated {
                Some(data) => Ok((data, RefreshKind::Incremental)),
                None => view.create(kg, &ctx).map(|data| (data, RefreshKind::Full)),
            });
            match computed {
                Ok((data, kind)) => {
                    report.computations.push(Computation {
                        view: name.clone(),
                        kind,
                    });
                    self.materialized.insert(name, data);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(report), Err)
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
        fn create(&mut self, _kg: &KnowledgeGraph, ctx: &ViewContext<'_>) -> Result<ViewData> {
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

    /// A view whose `update` always fails.
    struct FailingView;

    impl View for FailingView {
        fn name(&self) -> &str {
            "failing"
        }
        fn create(&mut self, _kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
            Ok(ViewData::Entities(Vec::new()))
        }
        fn update(
            &mut self,
            _ctx: &ViewContext<'_>,
            _current: ViewData,
            _changed: &[EntityId],
        ) -> Result<Option<ViewData>> {
            Err(SagaError::View("update failed".into()))
        }
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
        vm.register(counting("entity_features", &[], &runs))
            .unwrap();
        let r2 = Arc::new(AtomicUsize::new(0));
        vm.register(counting("ranked_entity_index", &["entity_features"], &r2))
            .unwrap();
        let r3 = Arc::new(AtomicUsize::new(0));
        vm.register(counting("entity_neighbourhood", &["entity_features"], &r3))
            .unwrap();

        vm.refresh_all(&tiny_kg()).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "shared dep computed once");
        assert_eq!(r2.load(Ordering::SeqCst), 1);
        assert_eq!(r3.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn missing_dependency_is_rejected_at_registration() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        let err = vm.register(counting("v", &["ghost"], &runs)).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn cycles_are_rejected() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("a", &[], &runs)).unwrap();
        vm.register(counting("b", &["a"], &runs)).unwrap();
        // A view can only name views registered before it, so the one cycle
        // left to try is a self-dependency.
        let err = vm.register(counting("c", &["c"], &runs)).unwrap_err();
        assert!(err.to_string().contains("unregistered"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("v", &[], &runs)).unwrap();
        assert!(vm.register(counting("v", &[], &runs)).is_err());
    }

    #[test]
    fn failed_update_keeps_other_views_materialized() {
        let kg = tiny_kg();
        let mut vm = ViewManager::new();
        vm.register(Box::new(FactCountView)).unwrap();
        vm.register(Box::new(FailingView)).unwrap();
        vm.refresh_all(&kg).unwrap();

        let changed = [saga_core::EntityId(1)];
        assert!(vm.update_changed(&kg, &changed).is_err());
        assert!(
            vm.get("entity_fact_counts").is_some(),
            "a failing view must not drop the others' materializations"
        );
        assert!(vm.get("failing").is_none());

        // The failed view has nothing to update, so the next call recreates it.
        let report = vm.update_changed(&kg, &changed).unwrap();
        assert_eq!(report.kind_of("failing"), Some(RefreshKind::Full));
        assert_eq!(
            report.kind_of("entity_fact_counts"),
            Some(RefreshKind::Incremental)
        );
        assert!(vm.get("failing").is_some());
    }

    #[test]
    fn fact_count_view_updates_incrementally_from_the_index() {
        use saga_core::{ExtendedTriple, FactMeta, Value};
        let mut kg = tiny_kg();
        kg.add_named_entity(saga_core::EntityId(2), "B", "person", SourceId(1), 0.9);
        let mut vm = ViewManager::new();
        vm.register(Box::new(FactCountView)).unwrap();
        vm.refresh_all(&kg).unwrap();
        let scores = vm.get("entity_fact_counts").unwrap().as_scores().unwrap();
        assert_eq!(scores[&saga_core::EntityId(1)], 2.0, "name + type");

        // One new fact on entity 1; entity 2 untouched.
        kg.commit_upsert(ExtendedTriple::simple(
            saga_core::EntityId(1),
            intern("alias"),
            Value::str("Ace"),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let report = vm.update_changed(&kg, &[saga_core::EntityId(1)]).unwrap();
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
        vm.update_changed(&kg, &[saga_core::EntityId(2)]).unwrap();
        let scores = vm.get("entity_fact_counts").unwrap().as_scores().unwrap();
        assert!(!scores.contains_key(&saga_core::EntityId(2)));
    }

    #[test]
    fn update_changed_runs_update_procedures_in_dep_order() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut vm = ViewManager::new();
        vm.register(counting("base", &[], &runs)).unwrap();
        vm.register(counting("derived", &["base"], &runs)).unwrap();
        let kg = tiny_kg();
        vm.refresh_all(&kg).unwrap();
        let report = vm.update_changed(&kg, &[saga_core::EntityId(1)]).unwrap();
        assert_eq!(report.computations.len(), 2);
        assert_eq!(
            report.computations[0].view, "base",
            "dependencies update first"
        );
        // CountingView has no incremental procedure: both fall back to Full
        // and the report says so.
        assert_eq!(report.full_count(), 2);
        assert_eq!(report.incremental_count(), 0);
    }
}
