//! Live graph curation (§4.3).
//!
//! "Facts containing potential errors or vandalism are detected and are
//! quarantined for human curation. A team can block or edit particular
//! facts or entities … These curations are treated as a streaming data
//! source by the live graph construction which allows us to hot fix the
//! live indexes directly … The curations are also sent to the stable KG
//! construction as a source, so that corrections are incorporated into the
//! stable graph."

use saga_core::{
    intern, CommitReceipt, EntityId, FactMeta, GraphWrite, OpOutcome, SourceId, Value, WriteBatch,
};

use crate::store::LiveKg;

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
        Some(o) => (new - o).abs() > max_jump || new < o,
        None => new < 0,
    }
}

/// The curation pipeline: hot-fixes the live KG and accumulates a stream
/// for stable construction.
pub struct CurationPipeline {
    live: LiveKg,
    /// The curation source id (curations are "a streaming data source").
    pub source: SourceId,
    pending: parking_lot::Mutex<Vec<CurationAction>>,
}

impl CurationPipeline {
    /// A pipeline hot-fixing `live`, emitting under `source`.
    pub fn new(live: LiveKg, source: SourceId) -> Self {
        CurationPipeline {
            live,
            source,
            pending: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Apply one curation as a hot fix to the live indexes, and queue it
    /// for the stable graph.
    pub fn apply(&self, action: CurationAction) -> bool {
        let applied = match &action {
            CurationAction::BlockFact {
                entity,
                predicate,
                value,
            } => self.rewrite(*entity, |rec| {
                let pred = intern(predicate);
                let before = rec.triples.len();
                rec.triples
                    .retain(|t| !(t.predicate == pred && &t.object == value));
                rec.triples.len() != before
            }),
            CurationAction::EditFact {
                entity,
                predicate,
                old,
                new,
            } => self.rewrite(*entity, |rec| {
                let pred = intern(predicate);
                let mut hit = false;
                for t in &mut rec.triples {
                    if t.predicate == pred && &t.object == old {
                        t.object = new.clone();
                        t.meta.merge(&FactMeta::from_source(self.source, 0.99));
                        hit = true;
                    }
                }
                hit
            }),
            CurationAction::BlockEntity { entity } => self.live.remove(*entity),
        };
        if applied {
            self.pending.lock().push(action);
        }
        applied
    }

    fn rewrite(&self, id: EntityId, f: impl FnOnce(&mut saga_core::EntityRecord) -> bool) -> bool {
        let Some(mut rec) = self.live.get(id) else {
            return false;
        };
        let changed = f(&mut rec);
        if changed {
            self.live.upsert(rec);
        }
        changed
    }

    /// Drain curations queued for stable construction ("sent to the stable
    /// KG construction as a source").
    pub fn drain_pending(&self) -> Vec<CurationAction> {
        std::mem::take(&mut self.pending.lock())
    }

    /// Stage drained curations as one [`WriteBatch`] of record edits —
    /// the "curations are a streaming data source" contract in op form.
    /// Each action becomes a [`WriteOp::Mutate`](saga_core::WriteOp), so
    /// committing the batch folds every hot fix into the commit receipt
    /// (and, through a `LoggedWriter`, into the operation log) like any
    /// other construction write — closing the old hole where record edits
    /// were invisible to log followers.
    pub fn stable_batch(actions: &[CurationAction]) -> WriteBatch {
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

    /// Apply drained curations to the stable KG (the construction-side
    /// consumer of the curation source) through [`GraphWrite`]. Returns
    /// the number of fact-level hits alongside the commit receipt. A
    /// write-ahead producer commits [`stable_batch`](Self::stable_batch)
    /// through `LoggedWriter::commit` instead.
    pub fn apply_to_stable<W: GraphWrite + ?Sized>(
        target: &mut W,
        actions: &[CurationAction],
    ) -> (usize, CommitReceipt) {
        let receipt = Self::stable_batch(actions).commit(target);
        let mut applied = 0;
        for (action, outcome) in actions.iter().zip(&receipt.outcomes) {
            let &OpOutcome::Mutated {
                found,
                added,
                removed,
            } = outcome
            else {
                continue;
            };
            applied += match action {
                CurationAction::BlockFact { .. } => usize::from(removed > 0),
                CurationAction::EditFact { .. } => added,
                CurationAction::BlockEntity { .. } => usize::from(found),
            };
        }
        (applied, receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{ExtendedTriple, GraphWriteExt, KnowledgeGraph};

    fn setup() -> (CurationPipeline, EntityId) {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Springfield", "city", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("population"),
            Value::Int(-5), // vandalised value
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let live = LiveKg::new(2);
        live.load_stable(&kg);
        (CurationPipeline::new(live, SourceId(99)), EntityId(1))
    }

    #[test]
    fn edit_fact_hot_fixes_the_live_index() {
        let (pipeline, id) = setup();
        let ok = pipeline.apply(CurationAction::EditFact {
            entity: id,
            predicate: "population".into(),
            old: Value::Int(-5),
            new: Value::Int(120_000),
        });
        assert!(ok);
        let rec = pipeline.live.get(id).unwrap();
        assert_eq!(rec.values(intern("population")), vec![&Value::Int(120_000)]);
        // The curation source is recorded in provenance.
        let fact = rec
            .triples
            .iter()
            .find(|t| t.predicate == intern("population"))
            .unwrap();
        assert!(fact.meta.has_source(SourceId(99)));
        // Hot fix is immediately visible in the literal index.
        assert_eq!(
            pipeline
                .live
                .index()
                .by_literal(intern("population"), &Value::Int(120_000)),
            vec![id]
        );
    }

    #[test]
    fn block_fact_and_entity() {
        let (pipeline, id) = setup();
        assert!(pipeline.apply(CurationAction::BlockFact {
            entity: id,
            predicate: "population".into(),
            value: Value::Int(-5),
        }));
        assert!(pipeline
            .live
            .get(id)
            .unwrap()
            .values(intern("population"))
            .is_empty());
        assert!(pipeline.apply(CurationAction::BlockEntity { entity: id }));
        assert!(pipeline.live.get(id).is_none());
        // Blocking again is a no-op.
        assert!(!pipeline.apply(CurationAction::BlockEntity { entity: id }));
    }

    #[test]
    fn curations_flow_to_stable_construction() {
        let (pipeline, id) = setup();
        pipeline.apply(CurationAction::EditFact {
            entity: id,
            predicate: "population".into(),
            old: Value::Int(-5),
            new: Value::Int(120_000),
        });
        let drained = pipeline.drain_pending();
        assert_eq!(drained.len(), 1);
        assert!(
            pipeline.drain_pending().is_empty(),
            "drain empties the queue"
        );

        let mut stable = KnowledgeGraph::new();
        stable.add_named_entity(EntityId(1), "Springfield", "city", SourceId(1), 0.9);
        stable.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("population"),
            Value::Int(-5),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        let (applied, receipt) = CurationPipeline::apply_to_stable(&mut stable, &drained);
        assert_eq!(applied, 1);
        assert_eq!(receipt.deltas.len(), 1, "the edit rides the receipt");
        assert_eq!(receipt.deltas[0].added[0].object, Value::Int(120_000));
        assert_eq!(
            stable
                .entity(EntityId(1))
                .unwrap()
                .values(intern("population")),
            vec![&Value::Int(120_000)]
        );
    }

    #[test]
    fn misses_are_not_queued() {
        let (pipeline, _) = setup();
        let ok = pipeline.apply(CurationAction::BlockFact {
            entity: EntityId(404),
            predicate: "population".into(),
            value: Value::Int(1),
        });
        assert!(!ok);
        assert!(pipeline.drain_pending().is_empty());
    }

    #[test]
    fn anomaly_detector_flags_jumps_and_regressions() {
        // Scores only increase in basketball; big jumps are suspicious.
        assert!(detect_suspicious_scores(Some(50), 40, 20), "regression");
        assert!(detect_suspicious_scores(Some(50), 90, 20), "jump");
        assert!(!detect_suspicious_scores(Some(50), 55, 20));
        assert!(detect_suspicious_scores(None, -1, 20), "negative initial");
        assert!(!detect_suspicious_scores(None, 0, 20));
    }
}
