//! The read-optimized columnar analytics engine (§3.1.1).
//!
//! "The analytics engine is a relational data warehouse that stores the KG
//! extended triples … The engine is read optimized." Storage is
//! predicate-partitioned: for each predicate, parallel column vectors of
//! `(subject, value)` pairs, typed by the value kind (entity refs as dense
//! `u64`, strings interned behind `Arc`, ints/floats unboxed). Composite
//! facets are flattened to `predicate.facet` columns — exactly the
//! extended-triples trick that avoids self-joins (§2.1).
//!
//! The store is a log follower: [`AnalyticsStore::build`] bootstraps it
//! from a KG snapshot, and from then on it learns only from
//! [`Delta`](saga_core::Delta)s ([`AnalyticsStore::apply_deltas`]),
//! touching only the partitions each delta names.
//!
//! Queries compose through [`Frame`], a small columnar relational algebra
//! (hash join / semi join / group-count / project) whose join keys are
//! unboxed ids hashed with Fx — the "optimized join processing" behind the
//! Fig. 8 comparison.

use std::sync::Arc;

use saga_core::{intern, FxHashMap, KnowledgeGraph, Symbol, Value};

/// Typed-column discriminator for the subject→row index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowKind {
    Ent,
    Str,
    Int,
    Float,
}

/// One subject's row positions per typed column of a partition — the index
/// that makes delta-driven row removal amortized O(1) instead of a linear
/// partition scan.
#[derive(Clone, Debug, Default)]
struct SubjectRows {
    ent: Vec<u32>,
    str_: Vec<u32>,
    int: Vec<u32>,
    float: Vec<u32>,
}

impl SubjectRows {
    fn of(&self, kind: RowKind) -> &Vec<u32> {
        match kind {
            RowKind::Ent => &self.ent,
            RowKind::Str => &self.str_,
            RowKind::Int => &self.int,
            RowKind::Float => &self.float,
        }
    }

    fn of_mut(&mut self, kind: RowKind) -> &mut Vec<u32> {
        match kind {
            RowKind::Ent => &mut self.ent,
            RowKind::Str => &mut self.str_,
            RowKind::Int => &mut self.int,
            RowKind::Float => &mut self.float,
        }
    }

    fn is_empty(&self) -> bool {
        self.ent.is_empty() && self.str_.is_empty() && self.int.is_empty() && self.float.is_empty()
    }
}

/// The position of the first row of `pair` whose subject is `subject` and
/// whose value satisfies `eq`, located through the subject→row index.
fn find_indexed_row<T>(
    pair: &(Vec<u64>, Vec<T>),
    index: &FxHashMap<u64, SubjectRows>,
    kind: RowKind,
    subject: u64,
    eq: impl Fn(&T) -> bool,
) -> Option<u32> {
    let rows = index.get(&subject)?;
    rows.of(kind)
        .iter()
        .copied()
        .find(|&p| eq(&pair.1[p as usize]))
}

/// Remove the first row of `pair` whose subject is `subject` and whose
/// value satisfies `eq`, repairing the subject→row index after the
/// `swap_remove` (the row moved into the hole gets its recorded position
/// rewritten).
fn remove_indexed_row<T>(
    pair: &mut (Vec<u64>, Vec<T>),
    index: &mut FxHashMap<u64, SubjectRows>,
    kind: RowKind,
    subject: u64,
    eq: impl Fn(&T) -> bool,
) -> bool {
    let Some(pos) = find_indexed_row(pair, index, kind, subject, eq) else {
        return false;
    };
    let i = pos as usize;
    let last = pair.0.len() - 1;
    pair.0.swap_remove(i);
    pair.1.swap_remove(i);
    let rows = index.get_mut(&subject).expect("found through the index");
    let list = rows.of_mut(kind);
    let at = list
        .iter()
        .position(|&p| p == pos)
        .expect("found position is listed");
    list.swap_remove(at);
    if rows.is_empty() {
        index.remove(&subject);
    }
    if i != last {
        // The former last row now lives at `i`; its subject's entry still
        // says `last` (even when that subject is `subject` itself, whose
        // list then provably still exists).
        let moved_subject = pair.0[i];
        let list = index
            .get_mut(&moved_subject)
            .expect("moved row's subject is indexed")
            .of_mut(kind);
        let at = list
            .iter()
            .position(|&p| p as usize == last)
            .expect("moved row's old position is listed");
        list[at] = i as u32;
    }
    true
}

/// One predicate's columnar partition.
///
/// The row vectors are public for zero-copy frame construction but must
/// only be *read* externally — every mutation goes through the private
/// `push`/`remove_row` pair so the subject→row index stays consistent.
#[derive(Clone, Debug, Default)]
pub struct PredTable {
    /// `(subject, object-entity)` rows.
    pub ent_rows: (Vec<u64>, Vec<u64>),
    /// `(subject, string)` rows.
    pub str_rows: (Vec<u64>, Vec<Arc<str>>),
    /// `(subject, int)` rows.
    pub int_rows: (Vec<u64>, Vec<i64>),
    /// `(subject, float)` rows.
    pub float_rows: (Vec<u64>, Vec<f64>),
    /// Lazily-built dictionary snapshot of the string column, shared by
    /// dictionary-encoded frames (reset on mutation).
    str_dict: std::sync::OnceLock<Arc<Vec<Arc<str>>>>,
    /// subject → row positions per typed column, maintained in lockstep
    /// with the row vectors.
    subject_rows: FxHashMap<u64, SubjectRows>,
}

impl PredTable {
    fn push(&mut self, subject: u64, value: &Value) {
        let (kind, at) = match value {
            Value::Entity(e) => {
                self.ent_rows.0.push(subject);
                self.ent_rows.1.push(e.0);
                (RowKind::Ent, self.ent_rows.0.len() - 1)
            }
            Value::Str(s) => {
                self.str_rows.0.push(subject);
                self.str_rows.1.push(Arc::clone(s));
                self.str_dict = std::sync::OnceLock::new();
                (RowKind::Str, self.str_rows.0.len() - 1)
            }
            Value::Int(i) => {
                self.int_rows.0.push(subject);
                self.int_rows.1.push(*i);
                (RowKind::Int, self.int_rows.0.len() - 1)
            }
            Value::Float(f) => {
                self.float_rows.0.push(subject);
                self.float_rows.1.push(*f);
                (RowKind::Float, self.float_rows.0.len() - 1)
            }
            // Unresolved refs, bools and nulls are not analytics-relevant.
            _ => return,
        };
        self.subject_rows
            .entry(subject)
            .or_default()
            .of_mut(kind)
            .push(u32::try_from(at).expect("partition row overflow"));
    }

    /// Remove one `(subject, value)` row of the matching typed column.
    /// Returns `false` if no such row exists. The subject→row index
    /// locates the row in O(rows of this subject) — amortized O(1) delta
    /// replay instead of a linear partition scan. Rows are `swap_remove`d:
    /// frame consumers (joins, group-bys, semi joins) are
    /// row-order-insensitive, and shifting a large partition per removal
    /// would turn bulk retraction quadratic.
    fn remove_row(&mut self, subject: u64, value: &Value) -> bool {
        let index = &mut self.subject_rows;
        match value {
            Value::Entity(e) => {
                remove_indexed_row(&mut self.ent_rows, index, RowKind::Ent, subject, |x| {
                    *x == e.0
                })
            }
            Value::Str(s) => {
                let hit =
                    remove_indexed_row(&mut self.str_rows, index, RowKind::Str, subject, |x| {
                        x == s
                    });
                if hit {
                    self.str_dict = std::sync::OnceLock::new();
                }
                hit
            }
            Value::Int(i) => {
                remove_indexed_row(&mut self.int_rows, index, RowKind::Int, subject, |x| x == i)
            }
            Value::Float(f) => {
                remove_indexed_row(&mut self.float_rows, index, RowKind::Float, subject, |x| {
                    x.to_bits() == f.to_bits()
                })
            }
            _ => false,
        }
    }

    /// The shared dictionary snapshot of this partition's string column.
    pub fn str_dict(&self) -> Arc<Vec<Arc<str>>> {
        Arc::clone(
            self.str_dict
                .get_or_init(|| Arc::new(self.str_rows.1.clone())),
        )
    }

    /// Total rows across value kinds.
    pub fn len(&self) -> usize {
        self.ent_rows.0.len()
            + self.str_rows.0.len()
            + self.int_rows.0.len()
            + self.float_rows.0.len()
    }

    /// True if the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// True if the analytics store materializes rows for this value kind
/// (booleans, nulls and unresolved references are not analytics-relevant).
fn stored(value: &Value) -> bool {
    matches!(
        value,
        Value::Entity(_) | Value::Str(_) | Value::Int(_) | Value::Float(_)
    )
}

/// The columnar analytics store.
///
/// [`build`](Self::build) bootstraps it from a KG snapshot; after that it
/// learns only from [`Delta`](saga_core::Delta)s —
/// [`apply_delta`](Self::apply_delta) /
/// [`apply_deltas`](Self::apply_deltas), fed from commit receipts or the
/// shared log — and each delta touches only the partitions it names.
/// Rows use the KG's [`TripleIndex`](saga_core::TripleIndex)
/// `predicate.facet` flattening, so a delta lands here exactly as it lands
/// on the index.
#[derive(Clone, Debug, Default)]
pub struct AnalyticsStore {
    tables: FxHashMap<Symbol, PredTable>,
    by_type: FxHashMap<Symbol, Vec<u64>>,
}

impl AnalyticsStore {
    /// Build the store from a KG snapshot — the bootstrap the delta feed
    /// continues from.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let mut store = AnalyticsStore::default();
        for record in kg.entities() {
            store.index_entity(record);
        }
        store
    }

    fn index_entity(&mut self, record: &saga_core::EntityRecord) {
        let delta = saga_core::Delta {
            entity: record.id,
            added: record
                .triples
                .iter()
                .filter_map(saga_core::index::flatten)
                .map(|(predicate, object)| saga_core::DeltaFact { predicate, object })
                .collect(),
            removed: Vec::new(),
        };
        self.apply_delta(&delta);
    }

    /// Apply one [`Delta`](saga_core::Delta) from the KG's change feed:
    /// row-level removals and inserts against exactly the partitions the
    /// delta names. A removed fact the store never materialized (replay
    /// from mid-stream) is skipped.
    pub fn apply_delta(&mut self, delta: &saga_core::Delta) {
        let subject = delta.entity.0;
        let type_sym = intern(saga_core::well_known::TYPE);
        for fact in &delta.removed {
            let removed = self
                .tables
                .get_mut(&fact.predicate)
                .is_some_and(|table| table.remove_row(subject, &fact.object));
            if !removed {
                continue;
            }
            if fact.predicate == type_sym {
                if let Value::Str(name) = &fact.object {
                    if !self.has_type(subject, name) {
                        if let Some(subjects) = self.by_type.get_mut(&intern(name)) {
                            if let Some(i) = subjects.iter().position(|&s| s == subject) {
                                subjects.remove(i);
                            }
                        }
                    }
                }
            }
        }
        for fact in &delta.added {
            if !stored(&fact.object) {
                continue;
            }
            if fact.predicate == type_sym {
                if let Value::Str(name) = &fact.object {
                    if !self.has_type(subject, name) {
                        self.by_type.entry(intern(name)).or_default().push(subject);
                    }
                }
            }
            self.tables
                .entry(fact.predicate)
                .or_default()
                .push(subject, &fact.object);
        }
    }

    /// Apply a batch of deltas (shipped in log entries or commit receipts).
    pub fn apply_deltas(&mut self, deltas: &[saga_core::Delta]) {
        for delta in deltas {
            self.apply_delta(delta);
        }
    }

    /// True if `subject` still has a `type = name` row — asked of the
    /// `type` partition's subject→row index.
    fn has_type(&self, subject: u64, name: &str) -> bool {
        self.tables
            .get(&intern(saga_core::well_known::TYPE))
            .is_some_and(|types| {
                let (rows, index) = (&types.str_rows, &types.subject_rows);
                find_indexed_row(rows, index, RowKind::Str, subject, |x| &**x == name).is_some()
            })
    }

    /// The columnar partition of a predicate (empty table if absent).
    pub fn table(&self, predicate: Symbol) -> Option<&PredTable> {
        self.tables.get(&predicate)
    }

    /// Subjects having ontology type `ty`.
    pub fn entities_of_type(&self, ty: Symbol) -> &[u64] {
        self.by_type.get(&ty).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rows across all partitions.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(PredTable::len).sum()
    }

    /// `Frame[subject, <name>]` over a predicate's entity-ref rows.
    pub fn frame_ents(&self, predicate: Symbol, value_name: &str) -> Frame {
        match self.tables.get(&predicate) {
            Some(t) => Frame::new(vec![
                ("subject".into(), FrameCol::Ids(t.ent_rows.0.clone())),
                (value_name.into(), FrameCol::Ids(t.ent_rows.1.clone())),
            ]),
            None => Frame::empty2("subject", value_name),
        }
    }

    /// `Frame[subject, <name>]` over a predicate's string rows
    /// (dictionary-encoded: the frame shares the partition's dictionary).
    pub fn frame_strs(&self, predicate: Symbol, value_name: &str) -> Frame {
        match self.tables.get(&predicate) {
            Some(t) => Frame::new(vec![
                ("subject".into(), FrameCol::Ids(t.str_rows.0.clone())),
                (
                    value_name.into(),
                    FrameCol::DictStrs {
                        codes: (0..t.str_rows.1.len() as u32).collect(),
                        dict: t.str_dict(),
                    },
                ),
            ]),
            None => Frame::empty2("subject", value_name),
        }
    }

    /// `Frame[subject, <name>]` over a predicate's int rows.
    pub fn frame_ints(&self, predicate: Symbol, value_name: &str) -> Frame {
        match self.tables.get(&predicate) {
            Some(t) => Frame::new(vec![
                ("subject".into(), FrameCol::Ids(t.int_rows.0.clone())),
                (value_name.into(), FrameCol::Ints(t.int_rows.1.clone())),
            ]),
            None => Frame::empty2("subject", value_name),
        }
    }
}

/// A prebuilt hash index over one of a frame's id columns (see
/// [`Frame::index_on`]).
#[derive(Clone, Debug)]
pub struct JoinIndex {
    on: String,
    first: FxHashMap<u64, u32>,
    overflow: FxHashMap<u64, Vec<u32>>,
}

/// A column of a [`Frame`].
#[derive(Clone, Debug, PartialEq)]
pub enum FrameCol {
    /// Entity ids (join keys).
    Ids(Vec<u64>),
    /// Strings (small, materialized).
    Strs(Vec<Arc<str>>),
    /// Dictionary-encoded strings: per-row codes into a shared dictionary.
    /// Gathers copy only the `u32` codes — no per-row refcount traffic —
    /// which is what makes string-carrying join chains cheap.
    DictStrs {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared dictionary.
        dict: Arc<Vec<Arc<str>>>,
    },
    /// Integers.
    Ints(Vec<i64>),
    /// Floats.
    Floats(Vec<f64>),
}

impl FrameCol {
    fn len(&self) -> usize {
        match self {
            FrameCol::Ids(v) => v.len(),
            FrameCol::Strs(v) => v.len(),
            FrameCol::DictStrs { codes, .. } => codes.len(),
            FrameCol::Ints(v) => v.len(),
            FrameCol::Floats(v) => v.len(),
        }
    }

    fn gather(&self, idx: &[usize]) -> FrameCol {
        match self {
            FrameCol::Ids(v) => FrameCol::Ids(idx.iter().map(|&i| v[i]).collect()),
            FrameCol::Strs(v) => FrameCol::Strs(idx.iter().map(|&i| Arc::clone(&v[i])).collect()),
            FrameCol::DictStrs { codes, dict } => FrameCol::DictStrs {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
            },
            FrameCol::Ints(v) => FrameCol::Ints(idx.iter().map(|&i| v[i]).collect()),
            FrameCol::Floats(v) => FrameCol::Floats(idx.iter().map(|&i| v[i]).collect()),
        }
    }

    /// The ids, if this is an id column.
    pub fn as_ids(&self) -> Option<&[u64]> {
        match self {
            FrameCol::Ids(v) => Some(v),
            _ => None,
        }
    }

    /// Row `i` as a string, for string-typed columns.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            FrameCol::Strs(v) => v.get(i).map(|s| &**s),
            FrameCol::DictStrs { codes, dict } => codes.get(i).map(|&c| &*dict[c as usize]),
            _ => None,
        }
    }
}

/// A small columnar relation: named columns of equal length.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    cols: Vec<(String, FrameCol)>,
    len: usize,
}

impl Frame {
    /// Build from named columns (must agree on length).
    pub fn new(cols: Vec<(String, FrameCol)>) -> Frame {
        let len = cols.first().map(|(_, c)| c.len()).unwrap_or(0);
        for (name, c) in &cols {
            assert_eq!(c.len(), len, "column {name} length mismatch");
        }
        Frame { cols, len }
    }

    fn empty2(a: &str, b: &str) -> Frame {
        Frame::new(vec![
            (a.into(), FrameCol::Ids(Vec::new())),
            (b.into(), FrameCol::Ids(Vec::new())),
        ])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column by name.
    pub fn col(&self, name: &str) -> Option<&FrameCol> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Rename a column in place (returns self for chaining).
    #[must_use]
    pub fn rename(mut self, from: &str, to: &str) -> Frame {
        for (n, _) in &mut self.cols {
            if n == from {
                *n = to.to_string();
            }
        }
        self
    }

    /// Build a reusable hash index over an id column — the dimension-table
    /// pattern: build once, probe from many joins (the view definitions
    /// reuse one `name` index across all their name lookups).
    pub fn index_on(&self, on: &str) -> JoinIndex {
        let keys = self
            .col(on)
            .and_then(FrameCol::as_ids)
            .unwrap_or_else(|| panic!("index column {on} must be ids"));
        // Unique keys are stored inline; duplicates spill into per-key
        // overflow vectors, keeping the common case allocation-free.
        let mut first: FxHashMap<u64, u32> = FxHashMap::default();
        first.reserve(keys.len());
        let mut overflow: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (i, &k) in keys.iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(e) = first.entry(k) {
                e.insert(i as u32);
            } else {
                overflow.entry(k).or_default().push(i as u32);
            }
        }
        JoinIndex {
            on: on.to_string(),
            first,
            overflow,
        }
    }

    /// Inner hash join on id columns `self.left_on == other.right_on`.
    ///
    /// The build side is `other`; probe is `self`. Output columns: all of
    /// `self`, then all of `other` except its join column. Name collisions
    /// on the right get a `r_` prefix.
    pub fn hash_join(&self, left_on: &str, other: &Frame, right_on: &str) -> Frame {
        let index = other.index_on(right_on);
        self.hash_join_with(left_on, other, &index)
    }

    /// Inner hash join probing a prebuilt [`JoinIndex`] over `other`.
    pub fn hash_join_with(&self, left_on: &str, other: &Frame, index: &JoinIndex) -> Frame {
        let left_keys = self
            .col(left_on)
            .and_then(FrameCol::as_ids)
            .unwrap_or_else(|| panic!("left join column {left_on} must be ids"));
        let mut left_idx = Vec::new();
        let mut right_idx = Vec::new();
        for (i, &k) in left_keys.iter().enumerate() {
            if let Some(&f) = index.first.get(&k) {
                left_idx.push(i);
                right_idx.push(f as usize);
                if let Some(extra) = index.overflow.get(&k) {
                    for &j in extra {
                        left_idx.push(i);
                        right_idx.push(j as usize);
                    }
                }
            }
        }
        let mut cols: Vec<(String, FrameCol)> = self
            .cols
            .iter()
            .map(|(n, c)| (n.clone(), c.gather(&left_idx)))
            .collect();
        for (n, c) in &other.cols {
            if n == &index.on {
                continue;
            }
            let name = if self.col(n).is_some() {
                format!("r_{n}")
            } else {
                n.clone()
            };
            cols.push((name, c.gather(&right_idx)));
        }
        Frame::new(cols)
    }

    /// Semi join: keep rows of `self` whose `on` id appears in `keys`.
    #[must_use]
    pub fn semi_join(&self, on: &str, keys: &[u64]) -> Frame {
        let key_set: saga_core::FxHashSet<u64> = keys.iter().copied().collect();
        let col = self
            .col(on)
            .and_then(FrameCol::as_ids)
            .expect("semi join needs id column");
        let idx: Vec<usize> = col
            .iter()
            .enumerate()
            .filter(|(_, k)| key_set.contains(k))
            .map(|(i, _)| i)
            .collect();
        Frame::new(
            self.cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(&idx)))
                .collect(),
        )
    }

    /// Group by an id column, counting rows: returns `Frame[<by>, count]`.
    pub fn group_count(&self, by: &str) -> Frame {
        let keys = self
            .col(by)
            .and_then(FrameCol::as_ids)
            .expect("group_count needs id column");
        let mut counts: FxHashMap<u64, i64> = FxHashMap::default();
        for &k in keys {
            *counts.entry(k).or_insert(0) += 1;
        }
        let mut pairs: Vec<(u64, i64)> = counts.into_iter().collect();
        pairs.sort_unstable();
        Frame::new(vec![
            (
                by.into(),
                FrameCol::Ids(pairs.iter().map(|(k, _)| *k).collect()),
            ),
            (
                "count".into(),
                FrameCol::Ints(pairs.iter().map(|(_, c)| *c).collect()),
            ),
        ])
    }

    /// Keep only the named columns (projection).
    #[must_use]
    pub fn project(&self, names: &[&str]) -> Frame {
        Frame::new(
            names
                .iter()
                .map(|n| {
                    let c = self.col(n).unwrap_or_else(|| panic!("no column {n}"));
                    ((*n).to_string(), c.clone())
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::{LogFollower, OpKind, OperationLog};
    use crate::views::{FactCountView, ViewManager};
    use crate::writer::LoggedWriter;
    use saga_core::{EntityId, ExtendedTriple, FactMeta, Lsn, RelId, SourceId, WriteBatch};

    fn meta() -> FactMeta {
        FactMeta::from_source(SourceId(1), 0.9)
    }

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Artist A", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Song X", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "Song Y", "song", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("performed_by"),
            Value::Entity(EntityId(1)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern("duration_s"),
            Value::Int(194),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(),
        ));
        kg
    }

    #[test]
    fn build_partitions_by_predicate_and_type() {
        let store = AnalyticsStore::build(&kg());
        assert_eq!(
            store
                .table(intern("performed_by"))
                .unwrap()
                .ent_rows
                .0
                .len(),
            2
        );
        assert_eq!(
            store.table(intern("duration_s")).unwrap().int_rows.0.len(),
            1
        );
        assert_eq!(store.entities_of_type(intern("song")).len(), 2);
        // Composite facet flattened to predicate.facet.
        let edu = store.table(intern("educated_at.school")).unwrap();
        assert_eq!(edu.str_rows.1[0].as_ref(), "UW");
    }

    #[test]
    fn hash_join_produces_expected_rows() {
        let store = AnalyticsStore::build(&kg());
        let songs = store.frame_ents(intern("performed_by"), "artist");
        let names = store.frame_strs(intern("name"), "artist_name");
        let joined = songs.hash_join("artist", &names, "subject");
        assert_eq!(joined.len(), 2, "both songs join to the artist's name");
        let col = joined.col("artist_name").unwrap();
        for i in 0..joined.len() {
            assert_eq!(col.str_at(i), Some("Artist A"));
        }
    }

    #[test]
    fn group_count_and_semi_join() {
        let store = AnalyticsStore::build(&kg());
        let per_artist = store
            .frame_ents(intern("performed_by"), "artist")
            .group_count("artist");
        assert_eq!(per_artist.len(), 1);
        assert_eq!(per_artist.col("count").unwrap(), &FrameCol::Ints(vec![2]));

        let names = store.frame_strs(intern("name"), "n");
        let only_songs = names.semi_join("subject", store.entities_of_type(intern("song")));
        assert_eq!(only_songs.len(), 2);
    }

    #[test]
    fn duplicate_rows_and_second_types_survive_a_partial_retraction() {
        let mut g = kg();
        let school = intern("educated_at.school");
        // A second rel node whose facet flattens to the same row as RelId(1).
        g.commit_upsert(ExtendedTriple::composite(
            EntityId(1),
            intern("educated_at"),
            RelId(2),
            intern("school"),
            Value::str("UW"),
            meta(),
        ));
        g.commit_upsert(ExtendedTriple::simple(
            EntityId(2),
            intern(saga_core::well_known::TYPE),
            Value::str("single"),
            meta(),
        ));
        let mut store = AnalyticsStore::build(&g);
        assert_eq!(store.table(school).unwrap().str_rows.0, vec![1, 1]);
        assert_eq!(store.entities_of_type(intern("single")), &[2]);

        let type_sym = intern(saga_core::well_known::TYPE);
        let receipt = WriteBatch::new()
            .mutate(EntityId(1), |rec| {
                rec.triples
                    .retain(|t| t.rel.as_ref().map(|r| r.rel_id) != Some(RelId(1)));
            })
            .mutate(EntityId(2), move |rec| {
                rec.triples
                    .retain(|t| t.predicate != type_sym || t.object != Value::str("single"));
            })
            .commit(&mut g);
        store.apply_deltas(&receipt.deltas);

        // One of two equal rows went; the other stays.
        assert_eq!(store.table(school).unwrap().str_rows.0, vec![1]);
        // The retracted type leaves; the one the subject still holds stays.
        assert!(store.entities_of_type(intern("single")).is_empty());
        assert_eq!(store.entities_of_type(intern("song")), &[2, 3]);
    }

    #[test]
    fn commit_receipt_deltas_replay_into_the_store() {
        let mut g = KnowledgeGraph::new();
        g.add_named_entity(EntityId(1), "Artist A", "music_artist", SourceId(1), 0.9);
        let mut store = AnalyticsStore::build(&g);

        // New entity + edge arrive; the commit receipt carries them.
        let receipt = WriteBatch::new()
            .named_entity(EntityId(2), "Song X", "song", SourceId(1), 0.9)
            .upsert(ExtendedTriple::simple(
                EntityId(2),
                intern("performed_by"),
                Value::Entity(EntityId(1)),
                meta(),
            ))
            .commit(&mut g);
        assert!(!receipt.deltas.is_empty());
        store.apply_deltas(&receipt.deltas);
        assert_eq!(
            store
                .table(intern("performed_by"))
                .unwrap()
                .ent_rows
                .0
                .len(),
            1
        );
        assert_eq!(store.entities_of_type(intern("song")), &[2]);

        // Retraction flows through the same receipt channel.
        let receipt = WriteBatch::new()
            .link(SourceId(1), "x", EntityId(2))
            .retract_source_entity(SourceId(1), "x")
            .commit(&mut g);
        store.apply_deltas(&receipt.deltas);
        assert!(store.entities_of_type(intern("song")).is_empty());
        assert!(store.table(intern("performed_by")).unwrap().is_empty());
        assert_eq!(
            store.entities_of_type(intern("music_artist")),
            &[1],
            "untouched"
        );
    }

    #[test]
    fn subject_row_index_survives_interleaved_removals() {
        // Hammer one partition with out-of-order removals so every
        // swap_remove relocates a row the index must re-point; any drift
        // between the index and the columns would surface as a missed or
        // phantom removal.
        let mut table = PredTable::default();
        let n = 500u64;
        for s in 0..n {
            table.push(s, &Value::Int(s as i64));
            table.push(s, &Value::Int((s as i64) + 10_000));
            table.push(s, &Value::Entity(EntityId(s % 7)));
        }
        // Remove in an order unrelated to insertion order.
        for s in (0..n).rev().step_by(3) {
            assert!(table.remove_row(s, &Value::Int(s as i64)), "int row {s}");
            assert!(
                !table.remove_row(s, &Value::Int(s as i64)),
                "already gone {s}"
            );
        }
        for s in (0..n).step_by(2) {
            assert!(
                table.remove_row(s, &Value::Entity(EntityId(s % 7))),
                "ent row {s}"
            );
        }
        // Every surviving row is still reachable through removal, and the
        // bookkeeping matches the raw column lengths.
        assert_eq!(
            table.int_rows.0.len(),
            2 * n as usize - n.div_ceil(3) as usize
        );
        for s in 0..n {
            assert!(
                table.remove_row(s, &Value::Int((s as i64) + 10_000)),
                "second int row {s} survives"
            );
        }
        // Only the first-loop survivors' Int(s) rows remain.
        assert_eq!(table.int_rows.0.len(), n as usize - n.div_ceil(3) as usize);
        assert_eq!(table.ent_rows.0.len(), n as usize - n.div_ceil(2) as usize);
    }

    #[test]
    fn join_name_collisions_get_prefixed() {
        let a = Frame::new(vec![
            ("k".into(), FrameCol::Ids(vec![1, 2])),
            ("v".into(), FrameCol::Ints(vec![10, 20])),
        ]);
        let b = Frame::new(vec![
            ("k".into(), FrameCol::Ids(vec![1, 2])),
            ("v".into(), FrameCol::Ints(vec![100, 200])),
        ]);
        let j = a.hash_join("k", &b, "k");
        assert_eq!(j.names(), vec!["k", "v", "r_v"]);
    }

    #[test]
    fn one_to_many_join_fans_out() {
        let left = Frame::new(vec![("k".into(), FrameCol::Ids(vec![7]))]);
        let right = Frame::new(vec![
            ("k".into(), FrameCol::Ids(vec![7, 7, 8])),
            ("x".into(), FrameCol::Ints(vec![1, 2, 3])),
        ]);
        let j = left.hash_join("k", &right, "k");
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn missing_predicate_yields_empty_frame() {
        let store = AnalyticsStore::build(&kg());
        let f = store.frame_ents(intern("never_used"), "x");
        assert!(f.is_empty());
        assert_eq!(f.names(), vec!["subject", "x"]);
    }

    fn writer() -> (LoggedWriter, Arc<OperationLog>) {
        let log = Arc::new(OperationLog::in_memory());
        let kg = Arc::new(parking_lot::RwLock::new(KnowledgeGraph::new()));
        (LoggedWriter::new(kg, Arc::clone(&log)), log)
    }

    fn views() -> ViewManager {
        let mut views = ViewManager::new();
        views.register(Box::new(FactCountView)).unwrap();
        views
    }

    /// The follower loop that keeps the derived stores current: each
    /// op past the watermark goes into the warehouse, then the views
    /// are maintained on the entities those ops changed. Returns how
    /// many ops were applied.
    fn follow(
        follower: &mut LogFollower,
        warehouse: &mut AnalyticsStore,
        views: &mut ViewManager,
        kg: &KnowledgeGraph,
    ) -> usize {
        let mut changed = Vec::new();
        let applied = follower
            .poll_with(usize::MAX, |op| {
                warehouse.apply_deltas(&op.deltas);
                changed.extend(op.changed_entities());
            })
            .unwrap();
        changed.sort_unstable();
        changed.dedup();
        views.update_changed(kg, &changed).unwrap();
        applied
    }

    /// Every partition's rows, order-insensitive and keyed by name.
    type Rows = (
        Vec<(u64, u64)>,
        Vec<(u64, Arc<str>)>,
        Vec<(u64, i64)>,
        Vec<(u64, u64)>,
    );

    fn rows(store: &AnalyticsStore) -> std::collections::BTreeMap<String, Rows> {
        fn pairs<T: Clone + Ord>(col: &(Vec<u64>, Vec<T>)) -> Vec<(u64, T)> {
            let mut v: Vec<(u64, T)> = col.0.iter().copied().zip(col.1.clone()).collect();
            v.sort();
            v
        }
        let floats = |t: &PredTable| {
            let bits = t.float_rows.1.iter().map(|f| f.to_bits()).collect();
            pairs(&(t.float_rows.0.clone(), bits))
        };
        store
            .tables
            .iter()
            .map(|(p, t)| {
                let rows = (
                    pairs(&t.ent_rows),
                    pairs(&t.str_rows),
                    pairs(&t.int_rows),
                    floats(t),
                );
                (p.text().to_string(), rows)
            })
            .collect()
    }

    fn add_person(writer: &LoggedWriter, id: u64) {
        let batch = WriteBatch::new().named_entity(EntityId(id), "P", "person", SourceId(1), 0.9);
        writer.commit(OpKind::Upsert, batch).unwrap();
    }

    /// The warehouse follows the log with no runner and learns only
    /// from the ops' deltas: replayed beside an empty decoy graph it
    /// holds the same rows, while the views, which read the graph they
    /// are handed, hold nothing there.
    #[test]
    fn the_warehouse_follows_the_log_without_the_kg() {
        let (writer, log) = writer();
        let popularity = |v: i64| {
            ExtendedTriple::simple(EntityId(1), intern("popularity"), Value::Int(v), meta())
        };
        let batch = WriteBatch::new()
            .named_entity(EntityId(1), "A", "music_artist", SourceId(1), 0.9)
            .upsert(popularity(10));
        writer.commit(OpKind::Upsert, batch).unwrap();
        // The second op replaces the popularity fact.
        let volatile = [intern("popularity")].into_iter().collect();
        let batch = WriteBatch::new()
            .link(SourceId(1), "a", EntityId(1))
            .overwrite_volatile(SourceId(1), volatile, vec![popularity(99)]);
        writer
            .commit(OpKind::VolatileOverwrite(SourceId(1)), batch)
            .unwrap();

        let decoy = KnowledgeGraph::new();
        let mut follower = LogFollower::new(Arc::clone(&log));
        let (mut warehouse, mut decoy_views) = (AnalyticsStore::default(), views());
        let applied = follow(&mut follower, &mut warehouse, &mut decoy_views, &decoy);
        assert_eq!(applied, 2);
        assert_eq!(
            follower.watermark(),
            log.head(),
            "freshness is the watermark"
        );
        assert_eq!(warehouse.entities_of_type(intern("music_artist")), &[1u64]);
        let pop = warehouse.table(intern("popularity")).unwrap();
        assert_eq!(pop.int_rows.1, vec![99], "overwrite replayed from the log");
        let counts = decoy_views.get("entity_fact_counts").unwrap();
        assert!(counts.is_empty(), "the views read the decoy");

        let mut follower = LogFollower::new(Arc::clone(&log));
        let mut beside_kg = AnalyticsStore::default();
        follow(&mut follower, &mut beside_kg, &mut views(), &writer.read());
        assert_eq!(
            rows(&beside_kg),
            rows(&warehouse),
            "the graph is never read"
        );
    }

    /// The views follow the log behind the warehouse, in the same loop:
    /// each poll maintains them on the entities its ops changed.
    #[test]
    fn views_follow_the_log_behind_the_warehouse() {
        let (writer, log) = writer();
        let mut follower = LogFollower::new(Arc::clone(&log));
        let (mut warehouse, mut views) = (AnalyticsStore::default(), views());
        add_person(&writer, 1);
        assert_eq!(
            follow(&mut follower, &mut warehouse, &mut views, &writer.read()),
            1
        );
        assert_eq!(
            follower.watermark(),
            log.head(),
            "freshness is the watermark"
        );

        let alias = ExtendedTriple::simple(EntityId(1), intern("alias"), Value::str("Ace"), meta());
        writer
            .commit(OpKind::Upsert, WriteBatch::new().upsert(alias))
            .unwrap();
        assert_eq!(
            follow(&mut follower, &mut warehouse, &mut views, &writer.read()),
            1
        );
        let scores = views
            .get("entity_fact_counts")
            .unwrap()
            .as_scores()
            .unwrap();
        assert_eq!(scores[&EntityId(1)], 3.0, "name + type + alias");
        assert_eq!(follower.watermark(), log.head());
        assert_eq!(
            follow(&mut follower, &mut warehouse, &mut views, &writer.read()),
            0,
            "caught up"
        );
    }

    /// A warehouse lives only in memory, so a restarted one replays
    /// the log from LSN 0: resuming it at the watermark its previous
    /// incarnation reached would leave out everything before it.
    #[test]
    fn a_restarted_warehouse_replays_the_log_from_lsn_zero() {
        let (writer, log) = writer();
        add_person(&writer, 1);
        add_person(&writer, 2);
        let mut follower = LogFollower::new(Arc::clone(&log));
        let mut warehouse = AnalyticsStore::default();
        follow(&mut follower, &mut warehouse, &mut views(), &writer.read());
        assert_eq!(follower.watermark(), Lsn(2));
        drop((follower, warehouse));

        // One more op lands while the store is down.
        add_person(&writer, 3);

        let mut follower = LogFollower::new(Arc::clone(&log));
        let mut warehouse = AnalyticsStore::default();
        let applied = follow(&mut follower, &mut warehouse, &mut views(), &writer.read());
        assert_eq!(applied, 3, "the whole log, not the suffix");
        assert_eq!(follower.watermark(), log.head());
        let built = AnalyticsStore::build(&writer.read());
        let mut persons = warehouse.entities_of_type(intern("person")).to_vec();
        persons.sort_unstable();
        assert_eq!(persons, vec![1, 2, 3], "every entity");
        let mut built_persons = built.entities_of_type(intern("person")).to_vec();
        built_persons.sort_unstable();
        assert_eq!(persons, built_persons);
        assert_eq!(rows(&warehouse), rows(&built));
    }
}
