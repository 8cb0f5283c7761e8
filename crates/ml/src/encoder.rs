//! Learned (neural) string similarity (§5.1).
//!
//! A character-n-gram encoder maps a string to a dense vector; similarity
//! of two strings is the cosine of their encodings. Trained with a triplet
//! loss over distant-supervision pairs bootstrapped from the KG (entities
//! carry multiple names/aliases → positives; names of *unlinked* entities →
//! negatives; typo augmentation adds robustness), the encoder captures
//! semantic equivalences such as nicknames ("Robert" ≈ "Bob") that pure
//! edit-distance functions cannot.
//!
//! The implementation is a from-scratch SGD trainer: the only learnable
//! parameters are the n-gram bucket embeddings (hashing trick), the pooled
//! representation is the mean of bucket vectors, and gradients flow through
//! the cosine exactly (`∂cos(A,B)/∂A = (B̂ − cos·Â)/|A|`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::KnowledgeGraph;
use std::hash::{Hash, Hasher};

use crate::text::qgrams;

/// A trained (or freshly initialized) char-n-gram string encoder.
#[derive(Clone, Debug)]
pub struct StringEncoder {
    dim: usize,
    vocab: usize,
    q: usize,
    emb: Vec<f32>,
}

fn bucket_of(gram: &str, vocab: usize) -> usize {
    let mut h = rustc_hash::FxHasher::default();
    gram.hash(&mut h);
    (h.finish() as usize) % vocab
}

impl StringEncoder {
    /// A randomly initialized encoder: `dim`-dimensional embeddings over
    /// `vocab` hash buckets of character `q`-grams.
    pub fn new(dim: usize, vocab: usize, q: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dim as f32).sqrt();
        let emb = (0..dim * vocab)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        StringEncoder {
            dim,
            vocab,
            q: q.max(2),
            emb,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn gram_buckets(&self, s: &str) -> Vec<usize> {
        qgrams(s, self.q)
            .iter()
            .map(|g| bucket_of(g, self.vocab))
            .collect()
    }

    /// Unnormalized pooled representation (mean of bucket embeddings).
    fn pool(&self, s: &str) -> (Vec<f32>, Vec<usize>) {
        let buckets = self.gram_buckets(s);
        let mut v = vec![0.0f32; self.dim];
        if buckets.is_empty() {
            return (v, buckets);
        }
        for &b in &buckets {
            let row = &self.emb[b * self.dim..(b + 1) * self.dim];
            for (x, e) in v.iter_mut().zip(row) {
                *x += e;
            }
        }
        let inv = 1.0 / buckets.len() as f32;
        for x in &mut v {
            *x *= inv;
        }
        (v, buckets)
    }

    /// Encode a string to a unit-length vector.
    pub fn encode(&self, s: &str) -> Vec<f32> {
        let (mut v, _) = self.pool(s);
        saga_vector::metric::normalize(&mut v);
        v
    }

    /// Learned similarity of two strings (cosine of encodings, in `[-1, 1]`).
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        saga_vector::metric::cosine(&self.encode(a), &self.encode(b))
    }
}

/// One training triplet: anchor should be closer to positive than negative.
#[derive(Clone, Debug)]
pub struct Triplet {
    /// Anchor string.
    pub anchor: String,
    /// A string naming the same real-world entity.
    pub positive: String,
    /// A string naming a different entity.
    pub negative: String,
}

/// Training hyperparameters for [`TripletTrainer`].
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// SGD epochs over the triplet set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Triplet margin in cosine space.
    pub margin: f32,
    /// Shuffle/negative-sampling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr: 0.35,
            margin: 0.4,
            seed: 17,
        }
    }
}

/// SGD triplet-loss trainer for [`StringEncoder`].
pub struct TripletTrainer {
    config: TrainConfig,
}

impl TripletTrainer {
    /// A trainer with the given hyperparameters.
    pub fn new(config: TrainConfig) -> Self {
        TripletTrainer { config }
    }

    /// Train `encoder` in place; returns the mean loss of the final epoch.
    pub fn train(&self, encoder: &mut StringEncoder, triplets: &[Triplet]) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        let mut last_epoch_loss = 0.0;
        for _ in 0..self.config.epochs {
            // Fisher-Yates shuffle with our own rng for determinism.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for &idx in &order {
                epoch_loss += self.step(encoder, &triplets[idx]);
            }
            last_epoch_loss = if triplets.is_empty() {
                0.0
            } else {
                epoch_loss / triplets.len() as f32
            };
        }
        last_epoch_loss
    }

    /// One SGD step; returns the triplet loss before the update.
    fn step(&self, enc: &mut StringEncoder, t: &Triplet) -> f32 {
        let (a, a_buckets) = enc.pool(&t.anchor);
        let (p, p_buckets) = enc.pool(&t.positive);
        let (n, n_buckets) = enc.pool(&t.negative);
        if a_buckets.is_empty() || p_buckets.is_empty() || n_buckets.is_empty() {
            return 0.0;
        }
        let na = saga_vector::metric::norm(&a).max(1e-8);
        let np = saga_vector::metric::norm(&p).max(1e-8);
        let nn = saga_vector::metric::norm(&n).max(1e-8);
        let ah: Vec<f32> = a.iter().map(|x| x / na).collect();
        let ph: Vec<f32> = p.iter().map(|x| x / np).collect();
        let nh: Vec<f32> = n.iter().map(|x| x / nn).collect();
        let s_p = saga_vector::metric::dot(&ah, &ph);
        let s_n = saga_vector::metric::dot(&ah, &nh);
        let loss = (self.config.margin - s_p + s_n).max(0.0);
        if loss <= 0.0 {
            return 0.0;
        }
        let dim = enc.dim;
        // ∂loss/∂A = −(P̂ − s_p·Â)/|A| + (N̂ − s_n·Â)/|A|
        let mut grad_a = vec![0.0f32; dim];
        let mut grad_p = vec![0.0f32; dim];
        let mut grad_n = vec![0.0f32; dim];
        for i in 0..dim {
            grad_a[i] = (-(ph[i] - s_p * ah[i]) + (nh[i] - s_n * ah[i])) / na;
            grad_p[i] = -(ah[i] - s_p * ph[i]) / np;
            grad_n[i] = (ah[i] - s_n * nh[i]) / nn;
        }
        let lr = self.config.lr;
        let mut apply = |buckets: &[usize], grad: &[f32]| {
            let share = lr / buckets.len() as f32;
            for &b in buckets {
                let row = &mut enc.emb[b * dim..(b + 1) * dim];
                for (w, g) in row.iter_mut().zip(grad) {
                    *w -= share * g;
                }
            }
        };
        apply(&a_buckets, &grad_a);
        apply(&p_buckets, &grad_p);
        apply(&n_buckets, &grad_n);
        loss
    }
}

/// Distant-supervision triplet generation from the KG (§5.1: "We bootstrap
/// the information in the KG to obtain a collection of training points").
pub struct DistantSupervision {
    /// Additional typo-augmentation positives per entity.
    pub typo_augment: usize,
    /// Negatives sampled per positive pair.
    pub negatives_per_positive: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for DistantSupervision {
    fn default() -> Self {
        DistantSupervision {
            typo_augment: 1,
            negatives_per_positive: 2,
            seed: 23,
        }
    }
}

impl DistantSupervision {
    /// Build triplets from every KG entity that has at least two names.
    pub fn triplets(&self, kg: &KnowledgeGraph) -> Vec<Triplet> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let name_sets: Vec<Vec<String>> = kg
            .entities()
            .map(|r| {
                r.all_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            })
            .filter(|names: &Vec<String>| !names.is_empty())
            .collect();
        if name_sets.len() < 2 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, names) in name_sets.iter().enumerate() {
            let mut positives: Vec<(String, String)> = Vec::new();
            for a in 0..names.len() {
                for b in (a + 1)..names.len() {
                    positives.push((names[a].clone(), names[b].clone()));
                }
            }
            for _ in 0..self.typo_augment {
                let base = &names[rng.gen_range(0..names.len())];
                positives.push((base.clone(), typo_string(&mut rng, base)));
            }
            for (anchor, positive) in positives {
                for _ in 0..self.negatives_per_positive.max(1) {
                    // Names of entities that are *not linked* to this one.
                    let mut j = rng.gen_range(0..name_sets.len());
                    if j == i {
                        j = (j + 1) % name_sets.len();
                    }
                    let negs = &name_sets[j];
                    let negative = negs[rng.gen_range(0..negs.len())].clone();
                    out.push(Triplet {
                        anchor: anchor.clone(),
                        positive: positive.clone(),
                        negative,
                    });
                }
            }
        }
        out
    }
}

fn typo_string(rng: &mut StdRng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return s.to_string();
    }
    let i = rng.gen_range(1..chars.len() - 1);
    let mut out = chars.clone();
    match rng.gen_range(0..3u8) {
        0 => out.swap(i, i - 1),
        1 => {
            out.remove(i);
        }
        _ => out.insert(i, chars[i]),
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, EntityId, ExtendedTriple, FactMeta, SourceId, Value};

    const NICKS: &[(&str, &str)] = &[
        ("Robert", "Bob"),
        ("William", "Bill"),
        ("Elizabeth", "Liz"),
        ("Katherine", "Kate"),
        ("Michael", "Mike"),
        ("Richard", "Rick"),
        ("Margaret", "Peggy"),
        ("Christopher", "Chris"),
    ];
    const LASTS: &[&str] = &[
        "Smith", "Chen", "Garcia", "Novak", "Okafor", "Tanaka", "Rossi", "Kim", "Silva", "Moreau",
    ];

    fn nickname_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let mut id = 1u64;
        for last in LASTS {
            for (first, nick) in NICKS {
                let e = EntityId(id);
                id += 1;
                kg.add_named_entity(e, &format!("{first} {last}"), "person", SourceId(1), 0.9);
                kg.commit_upsert(ExtendedTriple::simple(
                    e,
                    intern("alias"),
                    Value::str(format!("{nick} {last}")),
                    FactMeta::from_source(SourceId(1), 0.9),
                ));
            }
        }
        kg
    }

    #[test]
    fn encode_is_unit_length_and_deterministic() {
        let enc = StringEncoder::new(16, 512, 3, 1);
        let v1 = enc.encode("Billie Eilish");
        let v2 = enc.encode("Billie Eilish");
        assert_eq!(v1, v2);
        assert!((saga_vector::metric::norm(&v1) - 1.0).abs() < 1e-5);
        assert_eq!(
            enc.encode("").iter().filter(|x| **x != 0.0).count(),
            0,
            "empty string → 0"
        );
    }

    #[test]
    fn identical_strings_have_similarity_one() {
        let enc = StringEncoder::new(16, 512, 3, 1);
        assert!((enc.similarity("abc def", "abc def") - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distant_supervision_generates_triplets_from_aliases() {
        let kg = nickname_kg();
        let ds = DistantSupervision::default();
        let triplets = ds.triplets(&kg);
        assert!(!triplets.is_empty());
        // Anchors and positives name the same entity by construction:
        // positives either share the surname (alias pair) or are typo variants.
        let sample = &triplets[0];
        assert_ne!(sample.anchor, sample.negative);
    }

    #[test]
    fn training_teaches_nicknames_beyond_edit_distance() {
        let kg = nickname_kg();
        let triplets = DistantSupervision {
            typo_augment: 1,
            negatives_per_positive: 2,
            seed: 5,
        }
        .triplets(&kg);
        let mut enc = StringEncoder::new(24, 1024, 3, 7);
        // Held-out pair: a surname never seen in training with this first name
        // combination is hard; instead hold out by measuring the *margin*
        // between linked and unlinked pairs after training.
        let trainer = TripletTrainer::new(TrainConfig {
            epochs: 10,
            lr: 0.3,
            margin: 0.4,
            seed: 3,
        });
        let before_gap = nickname_gap(&enc);
        let final_loss = trainer.train(&mut enc, &triplets);
        let after_gap = nickname_gap(&enc);
        assert!(
            after_gap > before_gap + 0.1,
            "training must widen the nickname-vs-random margin: before={before_gap:.3} after={after_gap:.3} loss={final_loss:.3}"
        );
        assert!(
            enc.similarity("Robert Chen", "Bob Chen")
                > enc.similarity("Robert Chen", "Margaret Rossi"),
            "nickname pair must beat unrelated pair"
        );
    }

    fn nickname_gap(enc: &StringEncoder) -> f32 {
        let pos: f32 = NICKS
            .iter()
            .map(|(f, n)| enc.similarity(&format!("{f} Smith"), &format!("{n} Smith")))
            .sum::<f32>()
            / NICKS.len() as f32;
        let neg: f32 = NICKS
            .iter()
            .zip(NICKS.iter().rev())
            .map(|((f, _), (g, _))| enc.similarity(&format!("{f} Smith"), &format!("{g} Chen")))
            .sum::<f32>()
            / NICKS.len() as f32;
        pos - neg
    }

    #[test]
    fn trainer_handles_empty_input() {
        let mut enc = StringEncoder::new(8, 64, 3, 1);
        let loss = TripletTrainer::new(TrainConfig::default()).train(&mut enc, &[]);
        assert_eq!(loss, 0.0);
    }
}
