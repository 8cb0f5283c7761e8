//! Live graph curation (§4.3).
//!
//! "Facts containing potential errors or vandalism are detected and are
//! quarantined for human curation. A team can block or edit particular
//! facts or entities … These curations are treated as a streaming data
//! source by the live graph construction which allows us to hot fix the
//! live indexes directly … The curations are also sent to the stable KG
//! construction as a source, so that corrections are incorporated into the
//! stable graph."

use saga_core::{intern, EntityId, FactMeta, Result, SourceId, Value, WriteBatch};
use saga_graph::{LoggedCommit, LoggedWriter, OpKind};

/// One curation decision from the human-in-the-loop tooling.
#[derive(Clone, Debug, PartialEq)]
pub enum CurationAction {
    /// Remove a specific fact (vandalism, licensing, correctness).
    BlockFact {
        /// Target entity.
        entity: EntityId,
        /// Predicate of the offending fact.
        predicate: String,
        /// The exact object value to remove.
        value: Value,
    },
    /// Replace a fact's value.
    EditFact {
        /// Target entity.
        entity: EntityId,
        /// Predicate.
        predicate: String,
        /// Value being corrected.
        old: Value,
        /// Corrected value.
        new: Value,
    },
    /// Remove a whole entity from serving.
    BlockEntity {
        /// The blocked entity.
        entity: EntityId,
    },
}

/// Simple anomaly detector used to *quarantine* suspicious live facts:
/// numeric score jumps beyond a plausibility bound.
pub fn detect_suspicious_scores(old: Option<i64>, new: i64, max_jump: i64) -> bool {
    match old {
        Some(o) => new < o || new.abs_diff(o) > u64::try_from(max_jump).unwrap_or(0),
        None => new < 0,
    }
}

/// The curation pipeline: hot-fixes the live KG through its writer — so
/// the fix is logged and replicated like any other write — and accumulates
/// a stream for stable construction.
pub struct CurationPipeline {
    writer: LoggedWriter,
    /// The curation source id (curations are "a streaming data source").
    pub source: SourceId,
    pending: parking_lot::Mutex<Vec<CurationAction>>,
}

impl CurationPipeline {
    /// A pipeline hot-fixing through `writer`, emitting under `source`.
    pub fn new(writer: LoggedWriter, source: SourceId) -> Self {
        CurationPipeline {
            writer,
            source,
            pending: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Commit one curation as a hot fix and, on a hit, queue it for the
    /// stable graph. Returns the commit on a hit — its session token makes
    /// the fix visible to the caller's next read — and `None` on a miss
    /// (the entity or fact is absent). The receipt decides: a blocked fact
    /// hits if a fact left the index, an edit if one entered it, a blocked
    /// entity if the entity was dropped.
    pub fn apply(&self, action: CurationAction) -> Result<Option<LoggedCommit>> {
        let batch = Self::stable_batch(self.source, std::slice::from_ref(&action));
        let commit = self.writer.commit(OpKind::Upsert, batch)?;
        let receipt = &commit.receipt;
        let hit = match action {
            CurationAction::BlockFact { .. } => receipt.facts_removed > 0,
            CurationAction::EditFact { .. } => receipt.facts_added > 0,
            CurationAction::BlockEntity { entity } => receipt.entities_removed.contains(&entity),
        };
        if !hit {
            return Ok(None);
        }
        self.pending.lock().push(action);
        Ok(Some(commit))
    }

    /// Drain curations queued for stable construction ("sent to the stable
    /// KG construction as a source").
    pub fn drain_pending(&self) -> Vec<CurationAction> {
        std::mem::take(&mut self.pending.lock())
    }

    /// The one definition of the curation edits: one
    /// [`WriteOp::Mutate`](saga_core::WriteOp) per action, for the live
    /// hot fix ([`apply`](Self::apply)) and for a stable construction that
    /// commits drained curations through its own writer alike. An edited
    /// fact gains `source` in its provenance on either side.
    pub fn stable_batch(source: SourceId, actions: &[CurationAction]) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for action in actions.iter().cloned() {
            batch = match action {
                CurationAction::BlockFact {
                    entity,
                    predicate,
                    value,
                } => batch.mutate(entity, move |rec| {
                    let pred = intern(&predicate);
                    rec.triples
                        .retain(|t| !(t.predicate == pred && t.object == value));
                }),
                CurationAction::EditFact {
                    entity,
                    predicate,
                    old,
                    new,
                } => batch.mutate(entity, move |rec| {
                    let pred = intern(&predicate);
                    for t in &mut rec.triples {
                        if t.predicate == pred && t.object == old {
                            t.object = new.clone();
                            t.meta.merge(&FactMeta::from_source(source, 0.99));
                        }
                    }
                }),
                // Direct removal: curation overrides provenance.
                CurationAction::BlockEntity { entity } => {
                    batch.mutate(entity, |rec| rec.triples.clear())
                }
            };
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use saga_core::{ExtendedTriple, GraphRead, KnowledgeGraph, ProbeKey};
    use saga_graph::OperationLog;
    use std::sync::Arc;

    /// A writer over a graph whose one city has a vandalised population.
    fn vandalised() -> LoggedWriter {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Springfield", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("population"),
            Value::Int(-5),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        LoggedWriter::new(
            Arc::new(RwLock::new(kg)),
            Arc::new(OperationLog::in_memory()),
        )
    }

    fn setup() -> (CurationPipeline, EntityId) {
        (
            CurationPipeline::new(vandalised(), SourceId(99)),
            EntityId(1),
        )
    }

    fn fix_population(id: EntityId) -> CurationAction {
        CurationAction::EditFact {
            entity: id,
            predicate: "population".into(),
            old: Value::Int(-5),
            new: Value::Int(120_000),
        }
    }

    /// The population is corrected, and the curation source is in its
    /// provenance.
    fn assert_fixed_by_curation(writer: &LoggedWriter, id: EntityId) {
        let kg = writer.read();
        let fact = kg
            .entity(id)
            .unwrap()
            .triples
            .iter()
            .find(|t| t.predicate == intern("population"))
            .unwrap();
        assert_eq!(fact.object, Value::Int(120_000));
        assert!(fact.meta.has_source(SourceId(99)));
    }

    #[test]
    fn edit_fact_hot_fixes_the_live_index() {
        let (pipeline, id) = setup();
        let commit = pipeline.apply(fix_population(id)).unwrap().unwrap();
        assert_eq!(
            commit.lsn,
            pipeline.writer.log().head(),
            "the fix is logged"
        );
        assert_fixed_by_curation(&pipeline.writer, id);
        // Hot fix is immediately visible in the literal index.
        assert_eq!(
            pipeline.writer.read().postings(&ProbeKey::Literal(
                intern("population"),
                Value::Int(120_000)
            )),
            vec![id]
        );
    }

    #[test]
    fn block_fact_and_entity() {
        let (pipeline, id) = setup();
        assert!(pipeline
            .apply(CurationAction::BlockFact {
                entity: id,
                predicate: "population".into(),
                value: Value::Int(-5),
            })
            .unwrap()
            .is_some());
        assert!(pipeline
            .writer
            .read()
            .entity(id)
            .unwrap()
            .values(intern("population"))
            .is_empty());
        let block = CurationAction::BlockEntity { entity: id };
        assert!(pipeline.apply(block.clone()).unwrap().is_some());
        assert!(!pipeline.writer.read().contains(id));
        // Blocking again is a no-op.
        assert!(pipeline.apply(block).unwrap().is_none());
    }

    #[test]
    fn curations_flow_to_stable_construction() {
        let (pipeline, id) = setup();
        pipeline.apply(fix_population(id)).unwrap();
        let drained = pipeline.drain_pending();
        assert_eq!(drained.len(), 1);
        assert!(
            pipeline.drain_pending().is_empty(),
            "drain empties the queue"
        );

        // Stable construction commits the same edits through its own log.
        let stable = vandalised();
        let commit = stable
            .commit(
                OpKind::Upsert,
                CurationPipeline::stable_batch(pipeline.source, &drained),
            )
            .unwrap();
        assert_eq!(commit.receipt.deltas.len(), 1, "the edit rides the receipt");
        assert_eq!(
            commit.receipt.deltas[0].added[0].object,
            Value::Int(120_000)
        );
        // The curation source reaches stable provenance too.
        assert_fixed_by_curation(&stable, id);
    }

    /// Per action: a hit returns the commit, queues the action and changes
    /// the record; a miss returns `None`, queues nothing and leaves the
    /// record as it was.
    #[test]
    fn misses_are_not_queued() {
        let population = |v: i64| CurationAction::BlockFact {
            entity: EntityId(1),
            predicate: "population".into(),
            value: Value::Int(v),
        };
        let edit = |old: i64| CurationAction::EditFact {
            entity: EntityId(1),
            predicate: "population".into(),
            old: Value::Int(old),
            new: Value::Int(120_000),
        };
        // (action, hit, entity 1's population afterwards; `None`: gone)
        let cases = [
            (population(-5), true, Some(vec![])),
            (edit(-5), true, Some(vec![Value::Int(120_000)])),
            (
                CurationAction::BlockEntity {
                    entity: EntityId(1),
                },
                true,
                None,
            ),
            (population(7), false, Some(vec![Value::Int(-5)])),
            (edit(7), false, Some(vec![Value::Int(-5)])),
            (
                CurationAction::BlockEntity {
                    entity: EntityId(404),
                },
                false,
                Some(vec![Value::Int(-5)]),
            ),
        ];
        for (action, hit, want) in cases {
            let (pipeline, id) = setup();
            let before = pipeline.writer.read().entity(id).cloned();
            let head = pipeline.writer.log().head();
            let commit = pipeline.apply(action.clone()).unwrap();
            assert_eq!(commit.is_some(), hit, "{action:?}: commit");
            if let Some(commit) = commit {
                assert!(commit.lsn > head, "{action:?}: the hit is logged");
            }
            let queued = pipeline.drain_pending();
            let want_queued = if hit { vec![action.clone()] } else { vec![] };
            assert_eq!(queued, want_queued, "{action:?}: pending queue");
            let after = pipeline.writer.read().entity(id).cloned();
            let got = after.as_ref().map(|r| {
                r.values(intern("population"))
                    .into_iter()
                    .cloned()
                    .collect()
            });
            assert_eq!(got, want, "{action:?}: record");
            if !hit {
                assert_eq!(after, before, "{action:?}: a miss edits nothing");
            }
            assert!(!pipeline.writer.read().contains(EntityId(404)));
        }
    }

    #[test]
    fn anomaly_detector_flags_jumps_and_regressions() {
        // Scores only increase in basketball; big jumps are suspicious.
        assert!(detect_suspicious_scores(Some(50), 40, 20), "regression");
        assert!(detect_suspicious_scores(Some(50), 90, 20), "jump");
        assert!(!detect_suspicious_scores(Some(50), 55, 20));
        assert!(detect_suspicious_scores(None, -1, 20), "negative initial");
        assert!(!detect_suspicious_scores(None, 0, 20));
        // Extreme outside input: the jump does not overflow.
        assert!(detect_suspicious_scores(Some(-1), i64::MAX, 20));
        assert!(detect_suspicious_scores(Some(i64::MIN), i64::MAX, 20));
    }
}
