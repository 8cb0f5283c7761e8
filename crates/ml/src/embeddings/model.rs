//! Embedding model definitions: edge lists, parameter tables, scoring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{EntityId, FxHashMap, KnowledgeGraph, Symbol};

/// Which embedding model to train (§5.3 names both).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// Translational: `h + r ≈ t`, scored by −‖h+r−t‖².
    TransE,
    /// Bilinear-diagonal: scored by `Σ h·r·t`.
    DistMult,
}

/// Hyperparameters for embedding training.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingConfig {
    /// Model family.
    pub kind: ModelKind,
    /// Embedding dimensionality (the paper uses 400; tests use 16–32).
    pub dim: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Margin for TransE's ranking loss.
    pub margin: f32,
    /// Negative samples per positive edge.
    pub negatives: usize,
    /// Epochs over the edge list.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            kind: ModelKind::TransE,
            dim: 32,
            lr: 0.05,
            margin: 1.0,
            negatives: 4,
            epochs: 20,
            seed: 11,
        }
    }
}

/// The relationship-only view of the KG, dense-indexed for training.
///
/// §5.3: "we … register a specialized view that filters unnecessary
/// metadata facts from the KG to retain only facts that describe
/// relationships between entities."
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    /// Dense-index → entity id.
    pub entities: Vec<EntityId>,
    /// Dense-index → relation symbol.
    pub relations: Vec<Symbol>,
    /// Edges as `(head, relation, tail)` dense indices.
    pub edges: Vec<(u32, u32, u32)>,
    entity_index: FxHashMap<EntityId, u32>,
}

impl EdgeList {
    /// Extract the relationship view from the KG.
    pub fn from_kg(kg: &KnowledgeGraph) -> Self {
        let mut el = EdgeList::default();
        let mut rel_index: FxHashMap<Symbol, u32> = FxHashMap::default();
        for record in kg.entities() {
            for (pred, dst) in record.out_edges() {
                if !kg.contains(dst) {
                    continue; // dangling references carry no training signal
                }
                let h = el.entity_idx(record.id);
                let t = el.entity_idx(dst);
                let r = *rel_index.entry(pred).or_insert_with(|| {
                    el.relations.push(pred);
                    (el.relations.len() - 1) as u32
                });
                el.edges.push((h, r, t));
            }
        }
        el
    }

    fn entity_idx(&mut self, id: EntityId) -> u32 {
        if let Some(&i) = self.entity_index.get(&id) {
            return i;
        }
        let i = self.entities.len() as u32;
        self.entities.push(id);
        self.entity_index.insert(id, i);
        i
    }

    /// Number of distinct entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of distinct relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Dense index of a KG entity, if present.
    pub fn index_of(&self, id: EntityId) -> Option<u32> {
        self.entity_index.get(&id).copied()
    }
}

/// Learnable parameters: entity and relation embedding tables.
#[derive(Clone, Debug)]
pub struct EmbeddingTable {
    /// Dimensionality.
    pub dim: usize,
    /// Entity embeddings, row-major (`num_entities × dim`).
    pub entities: Vec<f32>,
    /// Relation embeddings, row-major.
    pub relations: Vec<f32>,
}

impl EmbeddingTable {
    /// Uniform Xavier-style initialization.
    pub fn init(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = 6.0f32.sqrt() / (dim as f32).sqrt();
        let mut gen =
            |n: usize| -> Vec<f32> { (0..n * dim).map(|_| rng.gen_range(-bound..bound)).collect() };
        EmbeddingTable {
            dim,
            entities: gen(num_entities),
            relations: gen(num_relations),
        }
    }

    /// Entity row.
    #[inline]
    pub fn ent(&self, i: u32) -> &[f32] {
        &self.entities[i as usize * self.dim..(i as usize + 1) * self.dim]
    }

    /// Relation row.
    #[inline]
    pub fn rel(&self, r: u32) -> &[f32] {
        &self.relations[r as usize * self.dim..(r as usize + 1) * self.dim]
    }

    /// Score an edge under `kind` (larger = more plausible).
    pub fn score(&self, kind: ModelKind, h: u32, r: u32, t: u32) -> f32 {
        score_rows(kind, self.ent(h), self.rel(r), self.ent(t))
    }
}

/// Score raw embedding rows under `kind`.
#[inline]
pub fn score_rows(kind: ModelKind, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    match kind {
        ModelKind::TransE => {
            let mut d = 0.0f32;
            for i in 0..h.len() {
                let x = h[i] + r[i] - t[i];
                d += x * x;
            }
            -d
        }
        ModelKind::DistMult => {
            let mut s = 0.0f32;
            for i in 0..h.len() {
                s += h[i] * r[i] * t[i];
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, ExtendedTriple, FactMeta, SourceId, Value};

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        for i in 1..=4u64 {
            kg.add_named_entity(EntityId(i), &format!("E{i}"), "person", SourceId(1), 0.9);
        }
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(1),
            intern("spouse"),
            Value::Entity(EntityId(2)),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("member_of"),
            Value::Entity(EntityId(4)),
            meta(),
        ));
        // Dangling reference: must be filtered.
        kg.commit_upsert(ExtendedTriple::simple(
            EntityId(3),
            intern("spouse"),
            Value::Entity(EntityId(99)),
            meta(),
        ));
        kg
    }

    #[test]
    fn edge_list_filters_metadata_and_dangling() {
        let el = EdgeList::from_kg(&kg());
        assert_eq!(
            el.edges.len(),
            2,
            "only resolved entity-entity facts are edges"
        );
        assert_eq!(el.num_relations(), 2);
        assert_eq!(el.num_entities(), 4);
        assert!(el.index_of(EntityId(99)).is_none());
    }

    #[test]
    fn transe_scores_translation_consistency() {
        let mut table = EmbeddingTable::init(2, 1, 4, 1);
        // Force h + r == t exactly.
        table.entities[0..4].copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        table.relations[0..4].copy_from_slice(&[0.5, 0.5, 0.5, 0.5]);
        table.entities[4..8].copy_from_slice(&[0.6, 0.7, 0.8, 0.9]);
        let perfect = table.score(ModelKind::TransE, 0, 0, 1);
        assert!((perfect - 0.0).abs() < 1e-9);
        let imperfect = table.score(ModelKind::TransE, 1, 0, 0);
        assert!(imperfect < perfect);
    }

    #[test]
    fn distmult_is_symmetric_in_h_t() {
        let table = EmbeddingTable::init(3, 2, 8, 5);
        let s1 = table.score(ModelKind::DistMult, 0, 1, 2);
        let s2 = table.score(ModelKind::DistMult, 2, 1, 0);
        assert!(
            (s1 - s2).abs() < 1e-6,
            "DistMult models symmetric relations"
        );
    }

    #[test]
    fn init_is_seeded() {
        let a = EmbeddingTable::init(5, 2, 16, 9);
        let b = EmbeddingTable::init(5, 2, 16, 9);
        assert_eq!(a.entities, b.entities);
        let c = EmbeddingTable::init(5, 2, 16, 10);
        assert_ne!(a.entities, c.entities);
    }
}
