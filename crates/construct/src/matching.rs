//! Matching models (§2.3 step 4): calibrated match probabilities for
//! candidate entity pairs.
//!
//! "The matching model emits a calibrated probability that can be used to
//! determine if a pair of entities corresponds to a true match or not. The
//! platform allows for both machine learning-based and rule-based matching
//! models." Features come from the deterministic and learned similarity
//! functions of `saga-ml`.

use saga_core::{intern, EntityPayload, FxHashSet, Symbol, Value};
use saga_ml::simlib::{jaro_winkler, levenshtein, numeric_closeness, qgram_jaccard};
use saga_ml::StringEncoder;

/// Similarity features for one candidate pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MatchFeatures {
    /// Jaro-Winkler over primary names.
    pub name_jw: f64,
    /// Levenshtein similarity over primary names.
    pub name_lev: f64,
    /// 3-gram Jaccard over primary names.
    pub name_qgram: f64,
    /// Best learned (neural) similarity over all name/alias combinations;
    /// falls back to `name_jw` when no encoder is supplied.
    pub name_neural: f64,
    /// Agreement over shared scalar attributes (fraction equal/close).
    pub attr_agreement: f64,
    /// Fraction of shared predicates (schema overlap).
    pub predicate_overlap: f64,
}

impl MatchFeatures {
    /// Compute features for a pair, optionally using a learned encoder.
    pub fn compute(
        a: &EntityPayload,
        b: &EntityPayload,
        encoder: Option<&StringEncoder>,
    ) -> MatchFeatures {
        let name_a = a.name().unwrap_or("");
        let name_b = b.name().unwrap_or("");
        let name_jw = jaro_winkler(name_a, name_b);
        let name_lev = levenshtein(name_a, name_b);
        let name_qgram = qgram_jaccard(name_a, name_b, 3);
        let name_neural = match encoder {
            Some(enc) => {
                let mut names_a = vec![name_a.to_string()];
                names_a.extend(a.aliases().iter().map(|s| s.to_string()));
                let mut names_b = vec![name_b.to_string()];
                names_b.extend(b.aliases().iter().map(|s| s.to_string()));
                let mut best = 0.0f64;
                for na in &names_a {
                    for nb in &names_b {
                        best = best.max(f64::from(enc.similarity(na, nb)));
                    }
                }
                best
            }
            None => name_jw,
        };

        // Attribute agreement over shared simple predicates.
        let name_sym = intern("name");
        let alias_sym = intern("alias");
        let type_sym = intern("type");
        let preds_a: FxHashSet<Symbol> = a
            .triples
            .iter()
            .filter(|t| t.rel.is_none())
            .map(|t| t.predicate)
            .filter(|p| *p != name_sym && *p != alias_sym && *p != type_sym)
            .collect();
        let preds_b: FxHashSet<Symbol> = b
            .triples
            .iter()
            .filter(|t| t.rel.is_none())
            .map(|t| t.predicate)
            .filter(|p| *p != name_sym && *p != alias_sym && *p != type_sym)
            .collect();
        let shared: Vec<Symbol> = preds_a.intersection(&preds_b).copied().collect();
        let union = preds_a.union(&preds_b).count();
        let predicate_overlap = if union == 0 {
            0.0
        } else {
            shared.len() as f64 / union as f64
        };

        let mut agree = 0.0;
        for &p in &shared {
            let va = a.values(p);
            let vb = b.values(p);
            agree += value_agreement(&va, &vb);
        }
        let attr_agreement = if shared.is_empty() {
            0.0
        } else {
            agree / shared.len() as f64
        };

        MatchFeatures {
            name_jw,
            name_lev,
            name_qgram,
            name_neural,
            attr_agreement,
            predicate_overlap,
        }
    }

    fn as_array(&self) -> [f64; 6] {
        [
            self.name_jw,
            self.name_lev,
            self.name_qgram,
            self.name_neural,
            self.attr_agreement,
            self.predicate_overlap,
        ]
    }
}

fn value_agreement(va: &[&Value], vb: &[&Value]) -> f64 {
    if va.is_empty() || vb.is_empty() {
        return 0.0;
    }
    let mut best = 0.0f64;
    for x in va {
        for y in vb {
            let s = match (x, y) {
                (Value::Str(a), Value::Str(b)) => jaro_winkler(a, b),
                (Value::Int(a), Value::Int(b)) => numeric_closeness(*a as f64, *b as f64, 10.0),
                (Value::Float(a), Value::Float(b)) => numeric_closeness(*a, *b, 1.0),
                (a, b) if a == b => 1.0,
                _ => 0.0,
            };
            best = best.max(s);
        }
    }
    best
}

/// A matching model: calibrated probability that a pair is a true match.
pub trait MatchingModel {
    /// Probability in `[0, 1]` that `a` and `b` denote the same entity.
    fn score(&self, a: &EntityPayload, b: &EntityPayload) -> f64;
}

/// Rule-based matcher: thresholded feature combination (the NADEEF/ER-style
/// deterministic option the platform must also support).
#[derive(Clone, Debug)]
pub struct RuleMatcher {
    /// Accept if blended name similarity exceeds this.
    pub name_threshold: f64,
    /// Attribute agreement needed when names are borderline.
    pub attr_threshold: f64,
}

impl Default for RuleMatcher {
    fn default() -> Self {
        RuleMatcher {
            name_threshold: 0.88,
            attr_threshold: 0.7,
        }
    }
}

impl MatchingModel for RuleMatcher {
    fn score(&self, a: &EntityPayload, b: &EntityPayload) -> f64 {
        let f = MatchFeatures::compute(a, b, None);
        let name = 0.45 * f.name_jw + 0.25 * f.name_lev + 0.3 * f.name_qgram;
        if name >= self.name_threshold {
            // Strong name evidence: calibrate into the high range.
            0.9 + 0.1 * (name - self.name_threshold) / (1.0 - self.name_threshold).max(1e-9)
        } else if name >= self.name_threshold - 0.12 && f.attr_agreement >= self.attr_threshold {
            0.75
        } else {
            // Weak evidence: scale into the low range.
            0.5 * name
        }
    }
}

/// Learned matcher: logistic regression over [`MatchFeatures`], optionally
/// blending the neural string encoder's similarity (§5.1's "out-of-the-box"
/// featurization).
#[derive(Clone, Debug)]
pub struct LearnedMatcher {
    weights: [f64; 6],
    bias: f64,
    encoder: Option<StringEncoder>,
}

impl LearnedMatcher {
    /// A matcher with hand-calibrated default weights.
    pub fn with_default_weights(encoder: Option<StringEncoder>) -> Self {
        LearnedMatcher {
            weights: [4.0, 2.0, 3.0, 4.0, 1.5, 0.5],
            bias: -8.2,
            encoder,
        }
    }

    /// Train by logistic SGD on labeled pairs `(a, b, is_match)`.
    pub fn train(
        &mut self,
        pairs: &[(EntityPayload, EntityPayload, bool)],
        epochs: usize,
        lr: f64,
    ) {
        let feats: Vec<([f64; 6], f64)> = pairs
            .iter()
            .map(|(a, b, y)| {
                (
                    MatchFeatures::compute(a, b, self.encoder.as_ref()).as_array(),
                    f64::from(u8::from(*y)),
                )
            })
            .collect();
        for _ in 0..epochs.max(1) {
            for (x, y) in &feats {
                let z: f64 =
                    self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.bias;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y;
                for (w, v) in self.weights.iter_mut().zip(x) {
                    *w -= lr * err * v;
                }
                self.bias -= lr * err;
            }
        }
    }
}

impl MatchingModel for LearnedMatcher {
    fn score(&self, a: &EntityPayload, b: &EntityPayload) -> f64 {
        let f = MatchFeatures::compute(a, b, self.encoder.as_ref());
        let z: f64 = self
            .weights
            .iter()
            .zip(f.as_array())
            .map(|(w, v)| w * v)
            .sum::<f64>()
            + self.bias;
        1.0 / (1.0 + (-z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{FactMeta, SourceId};

    fn payload(src: u32, id: &str, name: &str, year: Option<i64>) -> EntityPayload {
        let mut p = EntityPayload::new(SourceId(src), id, intern("music_artist"));
        let meta = FactMeta::from_source(SourceId(src), 0.9);
        p.push_simple(intern("name"), Value::str(name), meta.clone());
        if let Some(y) = year {
            p.push_simple(intern("release_year"), Value::Int(y), meta);
        }
        p
    }

    #[test]
    fn features_reflect_similarity() {
        let a = payload(1, "a", "Billie Eilish", Some(2019));
        let b = payload(2, "b", "Bilie Eilish", Some(2019));
        let c = payload(2, "c", "Jay-Z", Some(1996));
        let fab = MatchFeatures::compute(&a, &b, None);
        let fac = MatchFeatures::compute(&a, &c, None);
        assert!(fab.name_jw > 0.85 && fac.name_jw < 0.6);
        assert!(fab.attr_agreement > 0.99, "same year agrees");
        assert!(fab.name_qgram > fac.name_qgram);
        assert_eq!(fab.predicate_overlap, 1.0);
    }

    #[test]
    fn rule_matcher_separates_dup_from_distinct() {
        let m = RuleMatcher::default();
        let a = payload(1, "a", "Billie Eilish", None);
        let b = payload(2, "b", "Bilie Eilish", None);
        let c = payload(2, "c", "Billie Holiday", None);
        assert!(m.score(&a, &b) > 0.85, "typo duplicate scores high");
        assert!(
            m.score(&a, &c) < 0.6,
            "different artist scores low: {}",
            m.score(&a, &c)
        );
    }

    #[test]
    fn rule_matcher_uses_attributes_for_borderline_names() {
        let a = payload(1, "a", "The Midnight", Some(2014));
        let b = payload(2, "b", "The Midnights", Some(2014));
        // Derive the blended name score, then pick a threshold that makes
        // this pair borderline (inside the threshold−0.12 window).
        let f = MatchFeatures::compute(&a, &b, None);
        let blended = 0.45 * f.name_jw + 0.25 * f.name_lev + 0.3 * f.name_qgram;
        let m = RuleMatcher {
            name_threshold: blended + 0.05,
            attr_threshold: 0.5,
        };
        let s = m.score(&a, &b);
        assert!(
            s >= 0.7,
            "attribute corroboration rescues borderline names: {s}"
        );
        // Without the matching year the same pair stays low.
        let c = payload(2, "c", "The Midnights", Some(1971));
        let s2 = m.score(&a, &c);
        assert!(s2 < s, "no corroboration → lower score: {s2} vs {s}");
    }

    #[test]
    fn learned_matcher_improves_with_training() {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let names = [
            "Golden River",
            "Neon Thunder",
            "Silent Ocean",
            "Broken Glass",
            "Velvet Echo",
        ];
        for (i, n) in names.iter().enumerate() {
            let a = payload(1, &format!("a{i}"), n, Some(2000 + i as i64));
            let mut tweaked = n.to_string();
            tweaked.remove(1);
            let b = payload(2, &format!("b{i}"), &tweaked, Some(2000 + i as i64));
            pos.push((a.clone(), b, true));
            let other = names[(i + 1) % names.len()];
            let c = payload(2, &format!("c{i}"), other, Some(1900));
            neg.push((a, c, false));
        }
        let mut all = pos.clone();
        all.extend(neg.clone());
        let mut m = LearnedMatcher {
            weights: [0.0; 6],
            bias: 0.0,
            encoder: None,
        };
        m.train(&all, 200, 0.5);
        let avg_pos: f64 =
            pos.iter().map(|(a, b, _)| m.score(a, b)).sum::<f64>() / pos.len() as f64;
        let avg_neg: f64 =
            neg.iter().map(|(a, b, _)| m.score(a, b)).sum::<f64>() / neg.len() as f64;
        assert!(
            avg_pos > avg_neg + 0.3,
            "trained separation: {avg_pos:.3} vs {avg_neg:.3}"
        );
    }

    #[test]
    fn default_learned_matcher_is_sane_untrained() {
        let m = LearnedMatcher::with_default_weights(None);
        let a = payload(1, "a", "Billie Eilish", None);
        let b = payload(2, "b", "Billie Eilish", None);
        let c = payload(2, "c", "Thunder Paper", None);
        assert!(m.score(&a, &b) > 0.8);
        assert!(m.score(&a, &c) < 0.3);
    }
}
