//! Entity importance (§3.3).
//!
//! "We incorporate four structural metrics to score the importance of an
//! entity in the graph: in-degree, out-degree, number of identities, and
//! PageRank … We then aggregate these metrics into a single score."
//! Registered as a view so it is automatically maintained as the graph
//! changes (see [`ImportanceView`]).
//!
//! Maintenance is incremental: the view keeps a push-based PageRank model
//! (`PrState`) and, per commit, re-derives only the rows of the changed
//! entities (point reads) plus the rows of entities referencing an
//! appeared/departed node (reverse edges through the OSP postings),
//! propagating the injected residual mass until it falls below
//! [`ImportanceConfig::push_tolerance`]. When the affected set exceeds
//! [`ImportanceConfig::max_churn_fraction`] of the node set the view falls
//! back to a full rebuild and says so in the refresh report.

use std::collections::VecDeque;

use saga_core::{EntityId, FxHashMap, FxHashSet, KnowledgeGraph, Result};

use crate::views::{View, ViewContext, ViewData};

/// Weights and PageRank parameters for the aggregate score.
#[derive(Clone, Copy, Debug)]
pub struct ImportanceConfig {
    /// PageRank damping factor.
    pub damping: f64,
    /// PageRank iterations (reference power-iteration path only; the
    /// incremental path iterates to `push_tolerance` instead).
    pub iterations: usize,
    /// Weight of (log) in-degree.
    pub w_in: f64,
    /// Weight of (log) out-degree.
    pub w_out: f64,
    /// Weight of identity count (distinct contributing sources).
    pub w_identities: f64,
    /// Weight of normalized PageRank.
    pub w_pagerank: f64,
    /// Incremental maintenance falls back to a full rebuild when a commit's
    /// affected entity set exceeds this fraction of the node set.
    pub max_churn_fraction: f64,
    /// Absolute residual tolerance of the push solver.
    pub push_tolerance: f64,
}

impl Default for ImportanceConfig {
    fn default() -> Self {
        ImportanceConfig {
            damping: 0.85,
            iterations: 30,
            w_in: 0.25,
            w_out: 0.15,
            w_identities: 0.2,
            w_pagerank: 0.4,
            max_churn_fraction: 0.1,
            push_tolerance: 1e-9,
        }
    }
}

/// Per-entity structural metrics and the aggregate score.
#[derive(Clone, Debug, Default)]
pub struct ImportanceScores {
    /// In-degree per entity.
    pub in_degree: FxHashMap<EntityId, usize>,
    /// Out-degree per entity.
    pub out_degree: FxHashMap<EntityId, usize>,
    /// Identity (source) count per entity.
    pub identities: FxHashMap<EntityId, usize>,
    /// PageRank per entity.
    pub pagerank: FxHashMap<EntityId, f64>,
    /// The aggregate importance score.
    pub score: FxHashMap<EntityId, f64>,
}

/// Compute all four structural metrics plus the aggregate score.
pub fn compute_importance(kg: &KnowledgeGraph, config: &ImportanceConfig) -> ImportanceScores {
    let adjacency = kg.adjacency();
    let n = adjacency.len().max(1);

    let mut scores = ImportanceScores::default();
    for (src, dsts) in &adjacency {
        scores.out_degree.insert(*src, dsts.len());
        for d in dsts {
            *scores.in_degree.entry(*d).or_insert(0) += 1;
        }
    }
    for record in kg.entities() {
        scores.identities.insert(record.id, record.identity_count());
        scores.in_degree.entry(record.id).or_insert(0);
        scores.out_degree.entry(record.id).or_insert(0);
    }

    // PageRank with dangling-mass redistribution.
    let ids: Vec<EntityId> = adjacency.keys().copied().collect();
    let mut rank: FxHashMap<EntityId, f64> = ids.iter().map(|&id| (id, 1.0 / n as f64)).collect();
    for _ in 0..config.iterations {
        let mut next: FxHashMap<EntityId, f64> = ids
            .iter()
            .map(|&id| (id, (1.0 - config.damping) / n as f64))
            .collect();
        let mut dangling = 0.0;
        for (&src, dsts) in &adjacency {
            let r = rank[&src];
            // Only edges to entities that still exist carry rank.
            let live: Vec<EntityId> = dsts
                .iter()
                .copied()
                .filter(|d| rank.contains_key(d))
                .collect();
            if live.is_empty() {
                dangling += r;
            } else {
                let share = config.damping * r / live.len() as f64;
                for d in live {
                    *next.get_mut(&d).expect("dst exists") += share;
                }
            }
        }
        let dangle_share = config.damping * dangling / n as f64;
        for v in next.values_mut() {
            *v += dangle_share;
        }
        rank = next;
    }
    scores.pagerank = rank;

    // Aggregate: weighted sum of log-degrees, identities and normalized PR.
    let max_pr = scores
        .pagerank
        .values()
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    for &id in scores.in_degree.keys() {
        // Dangling references (edges to retracted entities) appear in
        // in-degree only; every lookup tolerates them.
        let pr = scores.pagerank.get(&id).copied().unwrap_or(0.0) / max_pr;
        let ind = (1.0 + scores.in_degree.get(&id).copied().unwrap_or(0) as f64).ln();
        let outd = (1.0 + scores.out_degree.get(&id).copied().unwrap_or(0) as f64).ln();
        let idents = scores.identities.get(&id).copied().unwrap_or(0) as f64;
        let s = config.w_in * ind
            + config.w_out * outd
            + config.w_identities * idents
            + config.w_pagerank * pr;
        scores.score.insert(id, s);
    }
    scores
}

/// The incremental PageRank model behind [`ImportanceView`].
///
/// The reference PageRank satisfies, at its fixed point,
/// `π(v) = c + d·Σ_{u→v} π(u)·m(u,v)/deg(u)` where edges are filtered to
/// live targets, `m` is edge multiplicity, and `c` bundles the teleport
/// term with the uniformly-redistributed dangling mass — a constant that is
/// the same for every node. By linearity `π` is therefore a scalar multiple
/// of the solution `x` of `x = (1−d)·1 + d·Âᵀx` (dangling rows zeroed),
/// whose teleport term is independent of the node count. The aggregate
/// score only consumes `pr/max_pr = x/max_x`, so the scalar never needs to
/// be known and node appearance/departure never forces a global rescale of
/// the model — that is what makes per-commit maintenance sound.
///
/// Maintenance keeps the residual invariant `r = (1−d)·1 + d·Âᵀx − x`: a
/// changed out-edge row subtracts the row's old contributions from `r` and
/// adds the new ones, then Gauss–Southwell pushes (`x(v) += r(v)`, forward
/// `d·r(v)·m/deg` to live out-neighbours) drain the injected residual mass
/// below `push_tolerance`. Reverse edges of appeared/departed nodes come
/// from the OSP postings via [`ViewContext::referencing`] — no full scan.
struct PrState {
    /// Raw out-edge row (with multiplicity, sorted) per live node. Keys are
    /// the node set `N`.
    out_edges: FxHashMap<EntityId, Vec<EntityId>>,
    /// Unnormalized PageRank `x` per live node.
    x: FxHashMap<EntityId, f64>,
    /// Residual per live node.
    r: FxHashMap<EntityId, f64>,
    /// Raw in-degree (edges to dead targets included), for every live
    /// entity and every referenced target — the score-map key set.
    in_degree: FxHashMap<EntityId, i64>,
    /// Identity (source) count per live entity.
    identities: FxHashMap<EntityId, usize>,
    /// Cached `max(x)` and the node attaining it.
    max_x: f64,
    argmax: EntityId,
}

/// An absorbed delta: rescore `rescore` ids (or everything when
/// `rescore_all` — the max-x normalizer moved), drop `removed` ids.
struct Applied {
    rescore: FxHashSet<EntityId>,
    removed: Vec<EntityId>,
    rescore_all: bool,
}

impl PrState {
    /// Build the model from scratch and solve to tolerance.
    fn build(kg: &KnowledgeGraph, config: &ImportanceConfig) -> PrState {
        let base = 1.0 - config.damping;
        let mut st = PrState {
            out_edges: FxHashMap::default(),
            x: FxHashMap::default(),
            r: FxHashMap::default(),
            in_degree: FxHashMap::default(),
            identities: FxHashMap::default(),
            max_x: f64::MIN_POSITIVE,
            argmax: EntityId(0),
        };
        for record in kg.entities() {
            let mut row: Vec<EntityId> = record.out_edges().map(|(_, d)| d).collect();
            row.sort_unstable();
            for &t in &row {
                *st.in_degree.entry(t).or_insert(0) += 1;
            }
            st.in_degree.entry(record.id).or_insert(0);
            st.identities.insert(record.id, record.identity_count());
            st.x.insert(record.id, 0.0);
            st.r.insert(record.id, base);
            st.out_edges.insert(record.id, row);
        }
        let seed: Vec<EntityId> = st.x.keys().copied().collect();
        st.push(seed, config);
        st.refresh_max();
        st
    }

    /// Gauss–Southwell push loop: drain residuals above tolerance, forward
    /// damped shares along live out-edges. Returns the nodes whose `x`
    /// changed. Terminates because every push removes `(1−d)·|r(v)|` of
    /// total residual mass.
    fn push(&mut self, seed: Vec<EntityId>, config: &ImportanceConfig) -> FxHashSet<EntityId> {
        let tol = config.push_tolerance.max(f64::EPSILON);
        let d = config.damping;
        let mut queue: VecDeque<EntityId> = VecDeque::new();
        let mut queued: FxHashSet<EntityId> = FxHashSet::default();
        let mut touched: FxHashSet<EntityId> = FxHashSet::default();
        for v in seed {
            if self.r.get(&v).is_some_and(|r| r.abs() > tol) && queued.insert(v) {
                queue.push_back(v);
            }
        }
        let PrState {
            out_edges, x, r, ..
        } = self;
        while let Some(v) = queue.pop_front() {
            queued.remove(&v);
            let Some(&rv) = r.get(&v) else { continue };
            if rv.abs() <= tol {
                continue;
            }
            *x.get_mut(&v).expect("node has x") += rv;
            r.insert(v, 0.0);
            touched.insert(v);
            let row = out_edges.get(&v).expect("node has row");
            let deg = row.iter().filter(|t| x.contains_key(t)).count();
            if deg == 0 {
                continue; // dangling row: mass handled by the shared constant
            }
            let share = d * rv / deg as f64;
            for t in row {
                let Some(rt) = r.get_mut(t) else { continue };
                *rt += share;
                if rt.abs() > tol && queued.insert(*t) {
                    queue.push_back(*t);
                }
            }
        }
        touched
    }

    /// Recompute the cached maximum of `x` from scratch.
    fn refresh_max(&mut self) {
        self.max_x = f64::MIN_POSITIVE;
        self.argmax = EntityId(0);
        for (&id, &v) in &self.x {
            if v > self.max_x {
                self.max_x = v;
                self.argmax = id;
            }
        }
    }

    /// The aggregate score of one id (same formula as the reference path).
    fn score_one(&self, id: EntityId, config: &ImportanceConfig) -> f64 {
        let pr = self.x.get(&id).copied().unwrap_or(0.0) / self.max_x;
        let ind = (1.0 + self.in_degree.get(&id).copied().unwrap_or(0).max(0) as f64).ln();
        let outd = (1.0 + self.out_edges.get(&id).map_or(0, Vec::len) as f64).ln();
        let idents = self.identities.get(&id).copied().unwrap_or(0) as f64;
        config.w_in * ind
            + config.w_out * outd
            + config.w_identities * idents
            + config.w_pagerank * pr
    }

    /// Score every id in the score-map key set.
    fn score_all(&self, config: &ImportanceConfig) -> FxHashMap<EntityId, f64> {
        self.in_degree
            .keys()
            .map(|&id| (id, self.score_one(id, config)))
            .collect()
    }

    /// Absorb one commit's changed-entity set. `changed` must cover every
    /// subject whose facts were touched since the last refresh — exactly
    /// what [`CommitReceipt`](saga_core::CommitReceipt) and the oplog's
    /// `changed_entities` provide.
    ///
    /// Provenance-only merges (the same fact re-asserted from a new
    /// source) emit no delta by design, so they are invisible here — the
    /// identity signal lags such a merge until the entity next changes
    /// visibly or the view is fully rebuilt. Every log-derived store
    /// shares this bound.
    ///
    /// `None` when the affected set crosses the churn threshold: the model
    /// is left untouched and must be rebuilt.
    fn apply(
        &mut self,
        ctx: &ViewContext<'_>,
        changed: &[EntityId],
        config: &ImportanceConfig,
    ) -> Option<Applied> {
        let base = 1.0 - config.damping;
        let d = config.damping;
        let mut uniq: Vec<EntityId> = changed.to_vec();
        uniq.sort_unstable();
        uniq.dedup();

        // Classify each changed id against the model's node set and pull
        // its new out-edge row / identity count via point reads.
        let mut appeared: Vec<EntityId> = Vec::new();
        let mut departed: Vec<EntityId> = Vec::new();
        let mut new_rows: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        let mut new_idents: FxHashMap<EntityId, usize> = FxHashMap::default();
        for &e in &uniq {
            let existed = self.out_edges.contains_key(&e);
            match ctx.entity(e) {
                Some(record) => {
                    let mut row: Vec<EntityId> = record.out_edges().map(|(_, t)| t).collect();
                    row.sort_unstable();
                    new_rows.insert(e, row);
                    new_idents.insert(e, record.identity_count());
                    if !existed {
                        appeared.push(e);
                    }
                }
                None => {
                    if existed {
                        departed.push(e);
                    }
                }
            }
        }

        // Contribution-affected subjects: changed rows that actually differ,
        // plus everything referencing a node whose liveness flipped (their
        // live-filtered degree changes even though their raw row does not).
        let mut ca: FxHashSet<EntityId> = FxHashSet::default();
        for &e in &uniq {
            let old = self.out_edges.get(&e);
            let new = new_rows.get(&e);
            match (old, new) {
                (Some(o), Some(n)) if o == n => {} // row unchanged; liveness handled below
                (None, None) => {}
                _ => {
                    ca.insert(e);
                }
            }
        }
        for &e in appeared.iter().chain(departed.iter()) {
            for s in ctx.referencing(e).iter() {
                ca.insert(s);
            }
        }

        let n = self.x.len().max(1);
        if ca.len() as f64 > config.max_churn_fraction * n as f64 {
            return None;
        }

        let mut r_touched: FxHashSet<EntityId> = FxHashSet::default();
        let mut degree_touched: FxHashSet<EntityId> = FxHashSet::default();

        // Pass 1: retract the old contributions (and raw in-degree) of every
        // affected row, live-filtered against the *old* node set.
        {
            let PrState {
                out_edges,
                x,
                r,
                in_degree,
                ..
            } = &mut *self;
            for &u in &ca {
                let Some(row) = out_edges.get(&u) else {
                    continue;
                };
                for t in row {
                    *in_degree.entry(*t).or_insert(0) -= 1;
                    degree_touched.insert(*t);
                }
                let xu = x.get(&u).copied().unwrap_or(0.0);
                let deg = row.iter().filter(|t| x.contains_key(t)).count();
                if deg == 0 || xu == 0.0 {
                    continue;
                }
                let share = d * xu / deg as f64;
                for t in row {
                    if let Some(rt) = r.get_mut(t) {
                        *rt -= share;
                        r_touched.insert(*t);
                    }
                }
            }
        }

        // Mutate the node set and swap in the new rows / identity counts.
        for &e in &appeared {
            self.out_edges
                .insert(e, new_rows.get(&e).cloned().unwrap_or_default());
            self.x.insert(e, 0.0);
            self.r.insert(e, base);
            self.in_degree.entry(e).or_insert(0);
            r_touched.insert(e);
        }
        for &e in &departed {
            self.out_edges.remove(&e);
            self.x.remove(&e);
            self.r.remove(&e);
            self.identities.remove(&e);
        }
        for (&e, idents) in &new_idents {
            self.identities.insert(e, *idents);
        }
        for &e in &ca {
            if let Some(row) = new_rows.get(&e) {
                if self.out_edges.contains_key(&e) {
                    self.out_edges.insert(e, row.clone());
                }
            }
        }

        // Pass 2: add the new contributions (and raw in-degree) of every
        // affected row, live-filtered against the *new* node set.
        {
            let PrState {
                out_edges,
                x,
                r,
                in_degree,
                ..
            } = &mut *self;
            for &u in &ca {
                let Some(row) = out_edges.get(&u) else {
                    continue;
                };
                for t in row {
                    *in_degree.entry(*t).or_insert(0) += 1;
                    degree_touched.insert(*t);
                }
                let xu = x.get(&u).copied().unwrap_or(0.0);
                let deg = row.iter().filter(|t| x.contains_key(t)).count();
                if deg == 0 || xu == 0.0 {
                    continue;
                }
                let share = d * xu / deg as f64;
                for t in row {
                    if let Some(rt) = r.get_mut(t) {
                        *rt += share;
                        r_touched.insert(*t);
                    }
                }
            }
        }

        // Drop score-map entries for ids that are neither live nor
        // referenced any more.
        let mut removed: Vec<EntityId> = Vec::new();
        for &t in degree_touched.iter().chain(uniq.iter()) {
            if self.in_degree.get(&t).copied().unwrap_or(0) <= 0 && !self.x.contains_key(&t) {
                self.in_degree.remove(&t);
                removed.push(t);
            }
        }

        // Drain the injected residual mass.
        let seed: Vec<EntityId> = r_touched.iter().copied().collect();
        let touched_x = self.push(seed, config);

        // Maintain the cached max without a full walk when possible.
        let old_max = self.max_x;
        if !self.x.contains_key(&self.argmax) || touched_x.contains(&self.argmax) {
            self.refresh_max();
        } else {
            for &t in &touched_x {
                let v = self.x.get(&t).copied().unwrap_or(0.0);
                if v > self.max_x {
                    self.max_x = v;
                    self.argmax = t;
                }
            }
        }
        let rescore_all = self.max_x != old_max;

        let mut rescore = touched_x;
        rescore.extend(degree_touched);
        rescore.extend(uniq);
        Some(Applied {
            rescore,
            removed,
            rescore_all,
        })
    }
}

/// The entity-importance view registered with the view automation (§3.3:
/// "The computation of entity importance is modelled as a view over the
/// KG … and is automatically maintained as the graph changes").
///
/// `create` builds the push-based model from scratch; `update` absorbs the
/// commit's changed-id set incrementally, and declines it — so the
/// manager rebuilds through `create` — when the churn threshold is
/// crossed or the model is missing.
pub struct ImportanceView {
    /// Score configuration.
    pub config: ImportanceConfig,
    state: Option<PrState>,
}

impl ImportanceView {
    /// A view with the given configuration and no model yet (built on the
    /// first `create`).
    pub fn new(config: ImportanceConfig) -> Self {
        ImportanceView {
            config,
            state: None,
        }
    }
}

impl View for ImportanceView {
    fn name(&self) -> &str {
        "entity_importance"
    }

    fn create(&mut self, kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
        let st = self.state.insert(PrState::build(kg, &self.config));
        Ok(ViewData::Scores(st.score_all(&self.config)))
    }

    fn update(
        &mut self,
        ctx: &ViewContext<'_>,
        current: ViewData,
        changed: &[EntityId],
    ) -> Result<Option<ViewData>> {
        let (Some(st), ViewData::Scores(mut scores)) = (self.state.as_mut(), current) else {
            return Ok(None);
        };
        let Some(applied) = st.apply(ctx, changed, &self.config) else {
            return Ok(None);
        };
        if applied.rescore_all {
            return Ok(Some(ViewData::Scores(st.score_all(&self.config))));
        }
        for id in applied.removed {
            scores.remove(&id);
        }
        for id in applied.rescore {
            if st.in_degree.contains_key(&id) {
                scores.insert(id, st.score_one(id, &self.config));
            } else {
                scores.remove(&id);
            }
        }
        Ok(Some(ViewData::Scores(scores)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, ExtendedTriple, FactMeta, SourceId, Value};

    /// A star graph: hub ← spokes, plus an isolated node.
    fn star_kg(spokes: u64) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        kg.add_named_entity(EntityId(1), "Hub", "person", SourceId(1), 0.9);
        for i in 0..spokes {
            let id = EntityId(10 + i);
            kg.add_named_entity(id, &format!("Spoke{i}"), "person", SourceId(1), 0.9);
            kg.commit_upsert(ExtendedTriple::simple(
                id,
                intern("member_of"),
                Value::Entity(EntityId(1)),
                meta(),
            ));
        }
        kg.add_named_entity(EntityId(99), "Loner", "person", SourceId(1), 0.9);
        kg
    }

    #[test]
    fn hub_dominates_every_metric_that_matters() {
        let kg = star_kg(8);
        let s = compute_importance(&kg, &ImportanceConfig::default());
        assert_eq!(s.in_degree[&EntityId(1)], 8);
        assert_eq!(s.out_degree[&EntityId(1)], 0);
        assert!(s.pagerank[&EntityId(1)] > s.pagerank[&EntityId(10)] * 3.0);
        assert!(s.score[&EntityId(1)] > s.score[&EntityId(10)]);
        assert!(s.score[&EntityId(1)] > s.score[&EntityId(99)]);
    }

    #[test]
    fn pagerank_mass_is_conserved() {
        let kg = star_kg(5);
        let s = compute_importance(&kg, &ImportanceConfig::default());
        let total: f64 = s.pagerank.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "PR sums to 1: {total}");
    }

    #[test]
    fn identities_count_contributing_sources() {
        let mut kg = star_kg(2);
        // A second source corroborates the hub's name.
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("name"),
            Value::str("Hub"),
            FactMeta::from_source(SourceId(2), 0.8),
        ));
        let s = compute_importance(&kg, &ImportanceConfig::default());
        assert_eq!(s.identities[&EntityId(1)], 2);
        assert_eq!(s.identities[&EntityId(10)], 1);
    }

    #[test]
    fn importance_view_registers_and_computes() {
        use crate::views::ViewManager;
        let kg = star_kg(4);
        let mut vm = ViewManager::new();
        vm.register(Box::new(ImportanceView::new(ImportanceConfig::default())))
            .unwrap();
        vm.refresh_all(&kg).unwrap();
        let data = vm.get("entity_importance").unwrap();
        let scores = data.as_scores().unwrap();
        assert!(scores[&EntityId(1)] > scores[&EntityId(99)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let kg = KnowledgeGraph::new();
        let s = compute_importance(&kg, &ImportanceConfig::default());
        assert!(s.score.is_empty());
    }

    /// Scores from the incremental path must match a from-scratch rebuild
    /// of the same view (both sides use the push solver, so the comparison
    /// is exact up to float noise) and the reference power iteration run to
    /// convergence (epsilon-close).
    fn assert_view_matches_fresh(kg: &KnowledgeGraph, vm: &crate::views::ViewManager) {
        let scores = vm.get("entity_importance").unwrap().as_scores().unwrap();
        let mut fresh_vm = crate::views::ViewManager::new();
        fresh_vm
            .register(Box::new(ImportanceView::new(ImportanceConfig::default())))
            .unwrap();
        fresh_vm.refresh_all(kg).unwrap();
        let fresh = fresh_vm
            .get("entity_importance")
            .unwrap()
            .as_scores()
            .unwrap();
        assert_eq!(scores.len(), fresh.len(), "score key sets diverged");
        for (id, s) in fresh {
            let got = scores.get(id).copied().unwrap_or(f64::NAN);
            assert!(
                (got - s).abs() < 1e-6,
                "score of {id:?}: incremental {got} vs fresh {s}"
            );
        }
        let reference = compute_importance(
            kg,
            &ImportanceConfig {
                iterations: 300,
                ..ImportanceConfig::default()
            },
        );
        for (id, s) in &reference.score {
            let got = scores.get(id).copied().unwrap_or(f64::NAN);
            assert!(
                (got - s).abs() < 1e-6,
                "score of {id:?}: incremental {got} vs reference {s}"
            );
        }
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        use crate::views::{RefreshKind, ViewManager};
        let mut kg = star_kg(8);
        let mut vm = ViewManager::new();
        vm.register(Box::new(ImportanceView::new(ImportanceConfig::default())))
            .unwrap();
        vm.refresh_all(&kg).unwrap();

        // A new spoke→hub edge plus a spoke→spoke edge.
        let meta = || FactMeta::from_source(SourceId(2), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(10),
            intern("knows"),
            Value::Entity(EntityId(11)),
            meta(),
        ));
        let report = vm.update_changed(&kg, &[EntityId(10)]).unwrap();
        assert_eq!(
            report.kind_of("entity_importance"),
            Some(RefreshKind::Incremental),
            "single-entity churn stays incremental"
        );
        assert_view_matches_fresh(&kg, &vm);

        // A brand-new entity referencing the hub (node appears).
        kg.add_named_entity(EntityId(200), "Newcomer", "person", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(200),
            intern("member_of"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        vm.update_changed(&kg, &[EntityId(200)]).unwrap();
        assert_view_matches_fresh(&kg, &vm);

        // Retract a spoke entirely (node departs; hub loses an in-edge and
        // entity 10 keeps a dangling reference to it).
        saga_core::WriteBatch::new()
            .link(SourceId(1), "spoke11", EntityId(11))
            .retract_source_entity(SourceId(1), "spoke11")
            .commit(&mut kg);
        vm.update_changed(&kg, &[EntityId(11), EntityId(10)])
            .unwrap();
        assert_view_matches_fresh(&kg, &vm);
    }

    #[test]
    fn broad_churn_falls_back_to_full_rebuild() {
        use crate::views::{RefreshKind, ViewManager};
        let mut kg = star_kg(8);
        let mut vm = ViewManager::new();
        vm.register(Box::new(ImportanceView::new(ImportanceConfig {
            max_churn_fraction: 0.0,
            ..ImportanceConfig::default()
        })))
        .unwrap();
        vm.refresh_all(&kg).unwrap();
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(10),
            intern("knows"),
            Value::Entity(EntityId(12)),
            FactMeta::from_source(SourceId(2), 0.9),
        ));
        let report = vm.update_changed(&kg, &[EntityId(10)]).unwrap();
        assert_eq!(
            report.kind_of("entity_importance"),
            Some(RefreshKind::Full),
            "zero churn budget forces the declared fallback"
        );
        assert_view_matches_fresh(&kg, &vm);
    }
}
