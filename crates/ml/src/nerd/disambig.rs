//! Contextual entity disambiguation with rejection (§5.2, Fig. 11).
//!
//! Disambiguation is cast as one-vs-all classification over the retrieved
//! candidate set with an explicit NIL/rejection option. Where the paper's
//! model is a transformer attending over per-view encodings
//! (mention↔names, mention↔description, mention↔types, mention↔relations,
//! mention↔neighbour names/types), this reproduction computes one scalar
//! interaction feature per view pair and learns a logistic layer on top —
//! the same decision structure at laptop scale. The
//! model is trained offline by weak supervision: pseudo-mentions generated
//! by applying templates over KG facts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{EntityId, FxHashSet, KnowledgeGraph, Symbol};

use crate::encoder::StringEncoder;
use crate::nerd::candidates::Candidate;
use crate::nerd::entity_view::{EntitySummary, NerdEntityView};
use crate::simlib::jaro_winkler;
use crate::text::{normalize, tokens};

/// The per-(mention, candidate) interaction features, one per "view" of the
/// Fig. 11 architecture.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Features {
    /// mention ↔ candidate names/aliases (deterministic + learned sim).
    pub name_sim: f64,
    /// context ↔ candidate description token overlap.
    pub description_overlap: f64,
    /// context ↔ candidate relation (neighbour-name) overlap.
    pub relation_overlap: f64,
    /// context ↔ candidate neighbour-type overlap.
    pub neighbor_type_overlap: f64,
    /// context ↔ candidate own-type overlap.
    pub type_overlap: f64,
    /// normalized importance prior.
    pub importance: f64,
    /// 1.0 when a type hint is supplied and the candidate satisfies it.
    pub type_hint_match: f64,
}

impl Features {
    const DIM: usize = 7;

    fn as_array(&self) -> [f64; Self::DIM] {
        [
            self.name_sim,
            self.description_overlap,
            self.relation_overlap,
            self.neighbor_type_overlap,
            self.type_overlap,
            self.importance,
            self.type_hint_match,
        ]
    }
}

/// Compute interaction features for one candidate.
pub fn featurize(
    summary: &EntitySummary,
    encoder: &StringEncoder,
    mention: &str,
    context: &str,
    max_importance: f64,
    type_hint_match: bool,
) -> Features {
    let norm_mention = normalize(mention);
    let ctx_tokens: FxHashSet<String> = tokens(context).into_iter().collect();
    // Remove the mention's own tokens from the context: overlap should come
    // from *surrounding* evidence, not the mention itself.
    let mention_tokens: FxHashSet<String> = tokens(mention).into_iter().collect();
    let ctx: FxHashSet<&str> = ctx_tokens
        .iter()
        .filter(|t| !mention_tokens.contains(*t))
        .map(String::as_str)
        .collect();

    let mut name_sim = 0.0f64;
    for name in &summary.names {
        let det = jaro_winkler(&norm_mention, &normalize(name));
        let learned = f64::from(encoder.similarity(mention, name));
        name_sim = name_sim.max(0.5 * det + 0.5 * learned);
    }

    let overlap_frac = |words: &FxHashSet<String>| -> f64 {
        if words.is_empty() {
            0.0
        } else {
            words.iter().filter(|w| ctx.contains(w.as_str())).count() as f64 / words.len() as f64
        }
    };

    let desc_tokens: FxHashSet<String> = summary
        .description
        .as_deref()
        .map(|d| tokens(d).into_iter().collect())
        .unwrap_or_default();
    // Count how many *context* words the description explains, too — a long
    // description should not dilute a strong hit.
    let description_overlap = if desc_tokens.is_empty() || ctx.is_empty() {
        0.0
    } else {
        let hits = ctx.iter().filter(|w| desc_tokens.contains(**w)).count();
        (hits as f64 / ctx.len() as f64).max(overlap_frac(&desc_tokens))
    };

    let rel_tokens: FxHashSet<String> = summary
        .relations
        .iter()
        .flat_map(|(_, name)| tokens(name))
        .collect();
    let relation_overlap = if rel_tokens.is_empty() {
        0.0
    } else {
        // Fraction of relation-name tokens corroborated by the context,
        // boosted when any full neighbour name appears.
        let tok = overlap_frac(&rel_tokens);
        let full = summary.relations.iter().any(|(_, name)| {
            let n = normalize(name);
            !n.is_empty() && normalize(context).contains(&n)
        });
        if full {
            tok.max(0.8)
        } else {
            tok
        }
    };

    let ntype_tokens: FxHashSet<String> = summary
        .neighbor_types
        .iter()
        .flat_map(|t| tokens(&t.to_string()))
        .collect();
    let neighbor_type_overlap = overlap_frac(&ntype_tokens);

    let own_type_tokens: FxHashSet<String> = summary
        .types
        .iter()
        .flat_map(|t| tokens(&t.to_string()))
        .collect();
    let type_overlap = overlap_frac(&own_type_tokens);

    let importance = if max_importance > 0.0 {
        (summary.importance / max_importance).clamp(0.0, 1.0)
    } else {
        0.0
    };

    Features {
        name_sim,
        description_overlap,
        relation_overlap,
        neighbor_type_overlap,
        type_overlap,
        importance,
        type_hint_match: f64::from(u8::from(type_hint_match)),
    }
}

/// A weakly-supervised training example: features plus a match/no-match label.
#[derive(Clone, Debug)]
pub struct DisambigExample {
    /// Interaction features.
    pub features: Features,
    /// 1.0 if the candidate is the true entity for the mention.
    pub label: f64,
}

/// The logistic disambiguation model with rejection.
#[derive(Clone, Debug)]
pub struct ContextualDisambiguator {
    weights: [f64; Features::DIM],
    bias: f64,
}

impl Default for ContextualDisambiguator {
    /// Sensible untrained weights: name similarity and contextual relation
    /// evidence dominate; importance is a weak prior.
    fn default() -> Self {
        ContextualDisambiguator {
            weights: [6.0, 3.0, 4.0, 1.0, 0.5, 0.8, 2.0],
            bias: -6.5,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl ContextualDisambiguator {
    /// A model with explicit weights (for tests / ablations).
    pub fn with_weights(weights: [f64; 7], bias: f64) -> Self {
        ContextualDisambiguator { weights, bias }
    }

    /// The calibrated match probability for one candidate's features.
    pub fn probability(&self, f: &Features) -> f64 {
        let x: f64 = self
            .weights
            .iter()
            .zip(f.as_array())
            .map(|(w, v)| w * v)
            .sum::<f64>()
            + self.bias;
        sigmoid(x)
    }

    /// Train by logistic-regression SGD over weakly-labeled examples.
    /// Returns the final-epoch mean log-loss.
    pub fn train(
        &mut self,
        examples: &[DisambigExample],
        epochs: usize,
        lr: f64,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut last = 0.0;
        for _ in 0..epochs.max(1) {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut loss_sum = 0.0;
            for &i in &order {
                let ex = &examples[i];
                let p = self.probability(&ex.features);
                let err = p - ex.label;
                let x = ex.features.as_array();
                for (w, v) in self.weights.iter_mut().zip(x) {
                    *w -= lr * err * v;
                }
                self.bias -= lr * err;
                let p_c = p.clamp(1e-9, 1.0 - 1e-9);
                loss_sum += -(ex.label * p_c.ln() + (1.0 - ex.label) * (1.0 - p_c).ln());
            }
            last = if examples.is_empty() {
                0.0
            } else {
                loss_sum / examples.len() as f64
            };
        }
        last
    }

    /// One-vs-all disambiguation with rejection: score every candidate,
    /// return the arg-max if its probability clears `threshold`, else NIL.
    #[allow(clippy::too_many_arguments)]
    pub fn disambiguate(
        &self,
        view: &NerdEntityView,
        encoder: &StringEncoder,
        mention: &str,
        context: &str,
        candidates: &[Candidate],
        type_hint: Option<Symbol>,
        threshold: f64,
    ) -> Option<(EntityId, f64)> {
        let max_imp = candidates
            .iter()
            .map(|c| c.importance)
            .fold(0.0f64, f64::max);
        let mut best: Option<(EntityId, f64)> = None;
        for c in candidates {
            let Some(summary) = view.summary(c.id) else {
                continue;
            };
            let hint_match = type_hint.is_some();
            let f = featurize(summary, encoder, mention, context, max_imp, hint_match);
            let p = self.probability(&f);
            if best.map(|(_, bp)| p > bp).unwrap_or(true) {
                best = Some((c.id, p));
            }
        }
        best.filter(|(_, p)| *p >= threshold)
    }

    /// Weak-supervision bootstrap (Fig. 10: "text snippets generated by
    /// applying templates over a selection of facts present in the KG"):
    /// for each entity, emit a positive example whose context is built from
    /// its neighbours, and negatives pairing that context with same-name or
    /// random other entities.
    pub fn weak_supervision(
        kg: &KnowledgeGraph,
        view: &NerdEntityView,
        encoder: &StringEncoder,
        seed: u64,
    ) -> Vec<DisambigExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<EntityId> = kg.entity_ids().collect();
        if ids.len() < 2 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in view.iter() {
            let Some(name) = s.names.first() else {
                continue;
            };
            // Template context from the entity's own relations.
            let neighbour_bits: Vec<&str> = s
                .relations
                .iter()
                .map(|(_, n)| n.as_str())
                .take(3)
                .collect();
            if neighbour_bits.is_empty() {
                continue;
            }
            let context = format!(
                "We talked about {} together with {}.",
                name,
                neighbour_bits.join(" and ")
            );
            let max_imp = view.iter().map(|x| x.importance).fold(0.0, f64::max);
            out.push(DisambigExample {
                features: featurize(s, encoder, name, &context, max_imp, false),
                label: 1.0,
            });
            // Negative: another entity scored against this context.
            for _ in 0..2 {
                let other = ids[rng.gen_range(0..ids.len())];
                if other == s.id {
                    continue;
                }
                if let Some(os) = view.summary(other) {
                    out.push(DisambigExample {
                        features: featurize(os, encoder, name, &context, max_imp, false),
                        label: 0.0,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nerd::candidates::retrieve_candidates;
    use crate::nerd::entity_view::tests::hanover_kg;
    use saga_ontology::default_ontology;

    fn setup() -> (NerdEntityView, StringEncoder) {
        let kg = hanover_kg();
        let view = NerdEntityView::build(&kg, None);
        let encoder = StringEncoder::new(16, 512, 3, 9);
        (view, encoder)
    }

    #[test]
    fn paper_example_dartmouth_context_selects_hanover_nh() {
        let (view, encoder) = setup();
        let ont = default_ontology();
        let model = ContextualDisambiguator::default();
        let cands = retrieve_candidates(&view, ont.types(), "Hanover", 10, None, Some(&encoder));
        assert_eq!(cands.len(), 2);
        let ctx = "We visited downtown Hanover after spending time at Dartmouth College";
        let (winner, p) = model
            .disambiguate(&view, &encoder, "Hanover", ctx, &cands, None, 0.3)
            .expect("should resolve");
        assert_eq!(
            winner,
            saga_core::EntityId(2),
            "Dartmouth context → Hanover, NH"
        );
        assert!(p > 0.3);
    }

    #[test]
    fn germany_context_selects_the_other_hanover() {
        let (view, encoder) = setup();
        let ont = default_ontology();
        let model = ContextualDisambiguator::default();
        let cands = retrieve_candidates(&view, ont.types(), "Hanover", 10, None, Some(&encoder));
        let ctx = "Hanover is the capital of Lower Saxony in Germany";
        let (winner, _) = model
            .disambiguate(&view, &encoder, "Hanover", ctx, &cands, None, 0.3)
            .expect("should resolve");
        assert_eq!(winner, saga_core::EntityId(1));
    }

    #[test]
    fn rejection_below_threshold_returns_nil() {
        let (view, encoder) = setup();
        let ont = default_ontology();
        let model = ContextualDisambiguator::default();
        let cands = retrieve_candidates(&view, ont.types(), "Germany", 10, None, Some(&encoder));
        // High threshold + weak context → NIL.
        let out = model.disambiguate(
            &view,
            &encoder,
            "Germany",
            "random words",
            &cands,
            None,
            0.999,
        );
        assert!(out.is_none());
    }

    #[test]
    fn featurize_strips_mention_tokens_from_context() {
        let (view, encoder) = setup();
        let s = view.summary(saga_core::EntityId(1)).unwrap();
        // Context that only repeats the mention gives no relation evidence.
        let f = featurize(
            s,
            &encoder,
            "Hanover",
            "Hanover Hanover Hanover",
            1.0,
            false,
        );
        assert_eq!(f.relation_overlap, 0.0);
        assert_eq!(f.description_overlap, 0.0);
        assert!(f.name_sim > 0.9);
    }

    #[test]
    fn training_reduces_log_loss_and_separates_labels() {
        let kg = hanover_kg();
        let view = NerdEntityView::build(&kg, None);
        let encoder = StringEncoder::new(16, 512, 3, 9);
        let examples = ContextualDisambiguator::weak_supervision(&kg, &view, &encoder, 3);
        assert!(!examples.is_empty());
        let mut model = ContextualDisambiguator::with_weights([0.0; 7], 0.0);
        let first = model.train(&examples, 1, 0.5, 1);
        let last = model.train(&examples, 60, 0.5, 2);
        assert!(last < first, "log-loss should fall: {first:.4} → {last:.4}");
        // Positives now outscore negatives on average.
        let (mut pos, mut np, mut neg, mut nn) = (0.0, 0, 0.0, 0);
        for ex in &examples {
            let p = model.probability(&ex.features);
            if ex.label > 0.5 {
                pos += p;
                np += 1;
            } else {
                neg += p;
                nn += 1;
            }
        }
        assert!(pos / np as f64 > neg / nn.max(1) as f64);
    }

    #[test]
    fn type_hint_match_contributes_positive_mass() {
        let model = ContextualDisambiguator::default();
        let base = Features {
            name_sim: 0.9,
            ..Default::default()
        };
        let hinted = Features {
            type_hint_match: 1.0,
            ..base
        };
        assert!(model.probability(&hinted) > model.probability(&base));
    }
}
