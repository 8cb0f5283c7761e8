//! Materialized KGQ conjunctions as managed views.
//!
//! A [`MaterializedKgqView`] compiles a KGQ `FIND` conjunction once,
//! materializes its full membership, and registers with the
//! [`ViewManager`](saga_graph::ViewManager) like any other view. Per
//! commit it is maintained in the delta-query shape of Kara et al.
//! ("Conjunctive Queries with Free Access Patterns under Updates"): a
//! changed fact can only flip the membership of its own subject, so the
//! update probes exactly the changed ids against the compiled probe set —
//! `O(changed × probes)` point lookups instead of re-running the query.
//!
//! Compiled probes can themselves go stale: an edge condition resolved a
//! target to an id at compile time, and a rename (or a delete) moves that
//! resolution. Per commit the view re-resolves exactly those targets, by
//! the same rule as the [`QueryEngine`] plan cache; if one moved, the
//! update declines and the manager recompiles through `create` — reported
//! as a full refresh through [`RefreshKind`](saga_graph::RefreshKind).
//!
//! The materialization is the **full** membership (sorted): KGQ's `LIMIT`
//! is a serve-time truncation (see [`MaterializedKgqView::limit`]), not a
//! property of the set being maintained — maintaining a truncated prefix
//! incrementally would need the discarded tail on every removal.

use saga_core::{EntityId, GraphRead, KnowledgeGraph, ProbeKey, Result, SagaError};
use saga_graph::views::{View, ViewContext, ViewData};

use crate::kgq::exec::{compile_resolved, still_resolves, Plan, Probe, Resolved};
use crate::kgq::parser::{parse, Condition, Query};
use crate::kgq::QueryEngine;

/// The compiled shape of the current materialization.
struct MatState {
    /// Lowered probes (conjunctive).
    probes: Vec<Probe>,
    /// The edge targets `probes` bound, each with the id it resolved to.
    resolved: Resolved,
}

/// A registered, incrementally-maintained KGQ `FIND` view.
pub struct MaterializedKgqView {
    name: String,
    query: Query,
    limit: usize,
    state: Option<MatState>,
}

impl MaterializedKgqView {
    /// Parse and validate a KGQ `FIND` for materialization. Rejected:
    /// `GET` (point lookups have nothing to materialize), virtual
    /// operators (expansion needs a registered operator environment the
    /// view outlives), and unbounded `FIND` (no probes at all).
    pub fn new(name: impl Into<String>, query_text: &str) -> Result<Self> {
        let query = parse(query_text)?;
        let limit = match &query {
            Query::Get { .. } => {
                return Err(SagaError::Query(
                    "only FIND queries can be materialized".into(),
                ));
            }
            Query::Find {
                entity_type,
                conditions,
                limit,
            } => {
                if conditions
                    .iter()
                    .any(|c| matches!(c, Condition::VirtualOp { .. }))
                {
                    return Err(SagaError::Query(
                        "materialized KGQ views support primitive conditions only".into(),
                    ));
                }
                if entity_type.is_none() && conditions.is_empty() {
                    return Err(SagaError::Query("unbounded FIND rejected".into()));
                }
                *limit
            }
        };
        Ok(MaterializedKgqView {
            name: name.into(),
            query,
            limit,
            state: None,
        })
    }

    /// The query's serve-time result budget. The materialization holds the
    /// full membership; callers truncate to this when serving.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The first `limit` members of a materialization of this view.
    pub fn serve<'a>(&self, data: &'a ViewData) -> &'a [EntityId] {
        let members = data.as_entities().unwrap_or(&[]);
        &members[..members.len().min(self.limit)]
    }
}

impl View for MaterializedKgqView {
    fn name(&self) -> &str {
        &self.name
    }

    /// Compile the stored AST against the KG and run the probe
    /// intersection to full membership (sorted).
    fn create(&mut self, kg: &KnowledgeGraph, _ctx: &ViewContext<'_>) -> Result<ViewData> {
        let engine = QueryEngine::new(kg);
        let (Plan::Find { probes, .. }, resolved) =
            compile_resolved(&engine, kg.index(), &self.query)?
        else {
            return Err(SagaError::Query("materialized view must be FIND".into()));
        };
        let keys: Option<Vec<&ProbeKey>> = probes
            .iter()
            .map(|p| match p {
                Probe::Key(k) => Some(k),
                Probe::Unsatisfiable => None,
            })
            .collect();
        let members = keys.map_or_else(Vec::new, |keys| {
            kg.index().probe_all_limit(&keys, usize::MAX)
        });
        self.state = Some(MatState { probes, resolved });
        Ok(ViewData::Entities(members))
    }

    fn update(
        &mut self,
        ctx: &ViewContext<'_>,
        current: ViewData,
        changed: &[EntityId],
    ) -> Result<Option<ViewData>> {
        let (Some(st), ViewData::Entities(mut members)) = (&self.state, current) else {
            return Ok(None);
        };
        // One state answers both the revalidation and the probes.
        ctx.read_state(|state| {
            // A moved resolution changes the probes themselves: the
            // membership is rebuilt, not maintained.
            if !still_resolves(state, &st.resolved) {
                return Ok(None);
            }
            if st.probes.iter().any(|p| matches!(p, Probe::Unsatisfiable)) {
                return Ok(Some(ViewData::Entities(Vec::new())));
            }
            // Kara et al.'s delta-query shape: a changed fact only affects
            // its own subject's membership, so probe exactly the changed
            // ids.
            let mut uniq: Vec<EntityId> = changed.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            for e in uniq {
                let is_member = st.probes.iter().all(|p| match p {
                    Probe::Key(key) => state.postings(key).contains(e),
                    Probe::Unsatisfiable => false,
                });
                match (members.binary_search(&e), is_member) {
                    (Ok(_), true) | (Err(_), false) => {}
                    (Ok(at), false) => {
                        members.remove(at);
                    }
                    (Err(at), true) => {
                        members.insert(at, e);
                    }
                }
            }
            Ok(Some(ViewData::Entities(members)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, ExtendedTriple, FactMeta, SourceId, Value, WriteBatch};
    use saga_graph::views::{RefreshKind, ViewManager};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    fn demo_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Beyoncé", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Halo", "song", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg
    }

    fn fresh_query(kg: &KnowledgeGraph, text: &str) -> Vec<EntityId> {
        let engine = QueryEngine::new(kg);
        let result = engine.query(text).unwrap();
        let mut hits = result.entities().to_vec();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn rejects_get_virtual_ops_and_unbounded_find() {
        assert!(MaterializedKgqView::new("v", r#"GET AKG:1 . name"#).is_err());
        assert!(MaterializedKgqView::new("v", r#"FIND song WHERE ByArtist("x")"#).is_err());
        assert!(MaterializedKgqView::new("v", r#"FIND WHERE"#).is_err());
    }

    #[test]
    fn membership_tracks_commits_incrementally() {
        let mut kg = demo_kg();
        let mut vm = ViewManager::new();
        vm.register(Box::new(
            MaterializedKgqView::new(
                "songs_by_beyonce",
                r#"FIND song WHERE performed_by -> entity("Beyoncé") LIMIT 100"#,
            )
            .unwrap(),
        ))
        .unwrap();
        vm.refresh_all(&kg).unwrap();
        assert_eq!(
            vm.get("songs_by_beyonce").unwrap().as_entities().unwrap(),
            &[EntityId(3)]
        );

        // A new matching song: only the changed id is probed.
        let receipt = WriteBatch::new()
            .named_entity(EntityId(5), "Formation", "song", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(5),
                intern("performed_by"),
                Value::Entity(EntityId(1)),
                meta(),
            ))
            .commit(&mut kg);
        let changed: Vec<EntityId> = receipt.deltas.iter().map(|d| d.entity).collect();
        let report = vm.update_changed(&kg, &changed).unwrap();
        assert_eq!(
            report.kind_of("songs_by_beyonce"),
            Some(RefreshKind::Incremental)
        );
        assert_eq!(
            vm.get("songs_by_beyonce").unwrap().as_entities().unwrap(),
            &[EntityId(3), EntityId(5)]
        );

        // Retracting the edge drops membership.
        let receipt = WriteBatch::new()
            .link(SourceId(1), "f", EntityId(5))
            .retract_source_entity(SourceId(1), "f")
            .commit(&mut kg);
        let changed: Vec<EntityId> = receipt.deltas.iter().map(|d| d.entity).collect();
        vm.update_changed(&kg, &changed).unwrap();
        assert_eq!(
            vm.get("songs_by_beyonce").unwrap().as_entities().unwrap(),
            &[EntityId(3)]
        );
    }

    #[test]
    fn rename_of_resolved_target_rematerializes() {
        let mut kg = demo_kg();
        let mut vm = ViewManager::new();
        vm.register(Box::new(
            MaterializedKgqView::new(
                "songs_by_beyonce",
                r#"FIND song WHERE performed_by -> entity("Beyoncé")"#,
            )
            .unwrap(),
        ))
        .unwrap();
        vm.refresh_all(&kg).unwrap();

        // Rename the artist: the compile-time name→id resolution is stale,
        // the old name no longer resolves, and the view must notice by
        // re-resolving it — reported as a full refresh.
        let name_sym = intern(saga_core::well_known::NAME);
        let receipt = WriteBatch::new()
            .mutate(EntityId(1), move |rec| {
                for t in &mut rec.triples {
                    if t.predicate == name_sym {
                        t.object = Value::str("Queen B");
                    }
                }
            })
            .commit(&mut kg);
        let changed: Vec<EntityId> = receipt.deltas.iter().map(|d| d.entity).collect();
        let report = vm.update_changed(&kg, &changed).unwrap();
        assert_eq!(
            report.kind_of("songs_by_beyonce"),
            Some(RefreshKind::Full),
            "resolution moved: re-materialized"
        );
        assert!(
            vm.get("songs_by_beyonce")
                .unwrap()
                .as_entities()
                .unwrap()
                .is_empty(),
            "old name no longer resolves"
        );
        assert_eq!(
            fresh_query(&kg, r#"FIND song WHERE performed_by -> entity("Beyoncé")"#),
            Vec::<EntityId>::new()
        );
    }

    #[test]
    fn serve_truncates_to_the_query_limit() {
        let mut kg = KnowledgeGraph::new();
        for i in 0..8u64 {
            kg.add_named_entity(EntityId(i + 1), &format!("S{i}"), "song", SourceId(1), 0.9);
        }
        let query = r#"FIND song LIMIT 3"#;
        let view = MaterializedKgqView::new("songs", query).unwrap();
        let mut vm = ViewManager::new();
        vm.register(Box::new(MaterializedKgqView::new("songs", query).unwrap()))
            .unwrap();
        vm.refresh_all(&kg).unwrap();
        let data = vm.get("songs").unwrap();
        assert_eq!(data.len(), 8, "materialization holds full membership");
        assert_eq!(view.serve(data).len(), 3, "serving truncates");
    }
}
