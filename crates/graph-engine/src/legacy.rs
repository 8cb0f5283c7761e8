//! The legacy row-at-a-time view executor.
//!
//! Fig. 8 compares the Graph Engine's analytics store against "a legacy
//! implementation of the views as custom Spark jobs" running on ~10× the
//! hardware. We stand in for that system with an engine that exhibits the
//! same *inefficiencies relative to the columnar store*:
//!
//! * the whole KG lives in one generic `(subject, predicate, value)` row
//!   table — every access re-scans and re-materializes boxed rows;
//! * joins are sort-merge over cloned row vectors, with per-row `Value`
//!   comparisons (no typed columns, no Fx hash tables, no predicate
//!   partitioning).
//!
//! Correctness is identical — `production_views` asserts both engines
//! produce the same view contents.

use saga_core::{intern, KnowledgeGraph, Value};

/// A generic row table: `(subject, predicate, value)` triples.
#[derive(Clone, Debug, Default)]
pub struct RowTable {
    /// The rows.
    pub rows: Vec<(u64, String, Value)>,
}

impl RowTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The legacy engine: one big row table, scan-everything execution.
#[derive(Clone, Debug, Default)]
pub struct LegacyEngine {
    table: RowTable,
}

impl LegacyEngine {
    /// Materialize the KG into the generic row table.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let mut table = RowTable::default();
        for record in kg.entities() {
            for t in &record.triples {
                let pred = match t.rel {
                    None => t.predicate.to_string(),
                    Some(rel) => format!("{}.{}", t.predicate, rel.rel_predicate),
                };
                table.rows.push((record.id.0, pred, t.object.clone()));
            }
        }
        LegacyEngine { table }
    }

    /// Total rows.
    pub fn row_count(&self) -> usize {
        self.table.len()
    }

    /// Full-scan predicate filter, materializing `(subject, value)` rows.
    pub fn scan_predicate(&self, predicate: &str) -> Vec<(u64, Value)> {
        self.table
            .rows
            .iter()
            .filter(|(_, p, _)| p == predicate)
            .map(|(s, _, v)| (*s, v.clone()))
            .collect()
    }

    /// Subjects of a given ontology type (full scan of `type` rows).
    pub fn scan_type(&self, ty: &str) -> Vec<u64> {
        let type_pred = intern("type").to_string();
        let mut out: Vec<u64> = self
            .table
            .rows
            .iter()
            .filter(|(_, p, v)| *p == type_pred && v.as_str() == Some(ty))
            .map(|(s, _, _)| *s)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Sort-merge join of two row sets on their `u64` keys, producing
    /// cloned value pairs — the legacy engine's only join strategy.
    pub fn merge_join(left: &[(u64, Value)], right: &[(u64, Value)]) -> Vec<(u64, Value, Value)> {
        let mut l: Vec<(u64, Value)> = left.to_vec();
        let mut r: Vec<(u64, Value)> = right.to_vec();
        l.sort_by_key(|a| a.0);
        r.sort_by_key(|a| a.0);
        let mut out = Vec::new();
        let mut j0 = 0usize;
        for (k, lv) in &l {
            while j0 < r.len() && r[j0].0 < *k {
                j0 += 1;
            }
            let mut j = j0;
            while j < r.len() && r[j].0 == *k {
                out.push((*k, lv.clone(), r[j].1.clone()));
                j += 1;
            }
        }
        out
    }

    /// Join where the *left value* (an entity reference) matches the right
    /// subject: re-keys the left side row-at-a-time first.
    pub fn join_value_to_subject(
        left: &[(u64, Value)],
        right: &[(u64, Value)],
    ) -> Vec<(u64, Value, Value)> {
        // Re-key: (ref-target, original-subject-as-value)
        let rekeyed: Vec<(u64, Value)> = left
            .iter()
            .filter_map(|(s, v)| v.as_entity().map(|e| (e.0, Value::Int(*s as i64))))
            .collect();
        // merge_join yields (ref_target, subject, right_value); re-shape to
        // (subject, ref_target_value, right_value).
        Self::merge_join(&rekeyed, right)
            .into_iter()
            .map(|(k, subj, rv)| {
                let s = subj.as_int().expect("rekeyed subject") as u64;
                (s, Value::Entity(saga_core::EntityId(k)), rv)
            })
            .collect()
    }

    /// Group-count rows by key (sorting, not hashing).
    pub fn group_count(rows: &[(u64, Value)]) -> Vec<(u64, i64)> {
        let mut keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let mut out: Vec<(u64, i64)> = Vec::new();
        for k in keys {
            match out.last_mut() {
                Some((lk, c)) if *lk == k => *c += 1,
                _ => out.push((k, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{EntityId, ExtendedTriple, FactMeta, SourceId};

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        kg.add_named_entity(EntityId(1), "Artist A", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Song X", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Song Y", "song", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            saga_core::intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            saga_core::intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg
    }

    #[test]
    fn scan_predicate_and_type() {
        let eng = LegacyEngine::build(&kg());
        assert_eq!(eng.scan_predicate("performed_by").len(), 2);
        assert_eq!(eng.scan_type("song"), vec![2, 3]);
        assert!(eng.scan_predicate("nope").is_empty());
    }

    #[test]
    fn merge_join_matches_on_keys() {
        let left = vec![
            (1u64, Value::str("a")),
            (2, Value::str("b")),
            (2, Value::str("b2")),
        ];
        let right = vec![(2u64, Value::Int(20)), (3, Value::Int(30))];
        let joined = LegacyEngine::merge_join(&left, &right);
        assert_eq!(joined.len(), 2, "two left rows with key 2 each match once");
        assert!(joined.iter().all(|(k, _, _)| *k == 2));
    }

    #[test]
    fn join_value_to_subject_follows_references() {
        let eng = LegacyEngine::build(&kg());
        let performed = eng.scan_predicate("performed_by");
        let names = eng.scan_predicate("name");
        let joined = LegacyEngine::join_value_to_subject(&performed, &names);
        // Each song joins to the artist's name row.
        assert_eq!(joined.len(), 2);
        assert!(joined
            .iter()
            .all(|(_, _, n)| n.as_str() == Some("Artist A")));
        let subjects: Vec<u64> = joined.iter().map(|(s, _, _)| *s).collect();
        assert!(subjects.contains(&2) && subjects.contains(&3));
    }

    #[test]
    fn group_count_by_sorting() {
        let rows = vec![(5u64, Value::Null), (5, Value::Null), (7, Value::Null)];
        assert_eq!(LegacyEngine::group_count(&rows), vec![(5, 2), (7, 1)]);
        assert!(LegacyEngine::group_count(&[]).is_empty());
    }
}
