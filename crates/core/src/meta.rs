//! Per-fact metadata: provenance, trust and locale (§2.1 of the paper).
//!
//! Every KG record carries an array of source references and an aligned
//! array of per-source trustworthiness scores. The arrays are updated
//! non-destructively as facts from multiple sources are fused into one
//! record, which is what lets Saga (a) attribute every fact, (b) serve
//! license-conformant views, and (c) honour on-demand deletion.
//!
//! Nearly every fact has one contributor, so a [`Provenance`] keeps one
//! entry inline and spills to a box on the second: a one-source fact
//! allocates nothing for its attribution.

use std::fmt;
use std::ops::Deref;

use crate::{intern, SourceId, Symbol};

/// One provenance entry: the contributing source and its trust score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceTrust {
    /// The contributing source.
    pub source: SourceId,
    /// Source trustworthiness in `[0, 1]`, from truth-discovery (§2.3 Fusion).
    pub trust: f32,
}

/// A fact's provenance entries, one per contributing source, in insertion
/// order. Derefs to `[SourceTrust]`; build one with
/// [`FactMeta::from_source`], `From<Vec<SourceTrust>>` or `collect`.
#[derive(Clone, Default)]
pub struct Provenance(Repr);

/// Canonical: exactly one entry is always `One`, so two provenances with
/// equal slices have equal representations.
#[derive(Clone)]
enum Repr {
    One([SourceTrust; 1]),
    /// Zero entries, or two or more. An empty box does not allocate.
    Many(Box<[SourceTrust]>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Many(Box::default())
    }
}

// The box pointer's niche holds the tag: two words, like a `Box<[_]>`.
const _: () = assert!(std::mem::size_of::<Provenance>() == 16);

impl Provenance {
    fn one(entry: SourceTrust) -> Provenance {
        Provenance(Repr::One([entry]))
    }

    fn as_mut_slice(&mut self) -> &mut [SourceTrust] {
        match &mut self.0 {
            Repr::One(one) => one,
            Repr::Many(all) => all,
        }
    }

    /// Append an entry; only a second or later entry allocates.
    fn push(&mut self, entry: SourceTrust) {
        *self = self.iter().copied().chain([entry]).collect();
    }

    /// Drop `source`'s entry, if it has one.
    fn remove(&mut self, source: SourceId) {
        if self.iter().any(|st| st.source == source) {
            *self = self
                .iter()
                .filter(|st| st.source != source)
                .copied()
                .collect();
        }
    }
}

impl Deref for Provenance {
    type Target = [SourceTrust];

    fn deref(&self) -> &[SourceTrust] {
        match &self.0 {
            Repr::One(one) => one,
            Repr::Many(all) => all,
        }
    }
}

impl<'a> IntoIterator for &'a Provenance {
    type Item = &'a SourceTrust;
    type IntoIter = std::slice::Iter<'a, SourceTrust>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<SourceTrust> for Provenance {
    fn from_iter<I: IntoIterator<Item = SourceTrust>>(entries: I) -> Provenance {
        let mut entries = entries.into_iter();
        let Some(first) = entries.next() else {
            return Provenance::default();
        };
        let Some(second) = entries.next() else {
            return Provenance::one(first);
        };
        let mut all = Vec::with_capacity(2 + entries.size_hint().0);
        all.extend([first, second]);
        all.extend(entries);
        Provenance(Repr::Many(all.into_boxed_slice()))
    }
}

impl From<Vec<SourceTrust>> for Provenance {
    fn from(entries: Vec<SourceTrust>) -> Provenance {
        entries.into_iter().collect()
    }
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Provenance) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Metadata attached to every [`ExtendedTriple`](crate::ExtendedTriple).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactMeta {
    /// Aligned provenance + trust entries, one per contributing source.
    pub provenance: Provenance,
    /// Locale of literal/string objects (e.g. `en`, `fr`), for multi-lingual
    /// knowledge; `None` for locale-independent facts.
    pub locale: Option<Symbol>,
}

// Every fact carries one: keep it at three words.
const _: () = assert!(std::mem::size_of::<FactMeta>() == 24);

impl FactMeta {
    /// Metadata for a fact first observed in `source` with trust `trust`.
    pub fn from_source(source: SourceId, trust: f32) -> FactMeta {
        FactMeta {
            provenance: Provenance::one(SourceTrust { source, trust }),
            locale: None,
        }
    }

    /// Same as [`from_source`](Self::from_source) with a locale tag.
    pub fn localized(source: SourceId, trust: f32, locale: &str) -> FactMeta {
        FactMeta {
            provenance: Provenance::one(SourceTrust { source, trust }),
            locale: Some(intern(locale)),
        }
    }

    /// All contributing sources, in insertion order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.provenance.iter().map(|st| st.source)
    }

    /// Whether `source` contributed to this fact.
    pub fn has_source(&self, source: SourceId) -> bool {
        self.provenance.iter().any(|st| st.source == source)
    }

    /// Record that `source` (re-)asserted this fact with trust `trust`.
    ///
    /// If the source is already present its trust is refreshed (sources can
    /// recalibrate over time); otherwise it is appended. This is the
    /// non-destructive merge used by fusion's outer join (§2.3).
    pub fn merge_source(&mut self, source: SourceId, trust: f32) {
        let entries = self.provenance.as_mut_slice();
        match entries.iter_mut().find(|st| st.source == source) {
            Some(st) => st.trust = trust,
            None => self.provenance.push(SourceTrust { source, trust }),
        }
    }

    /// Merge all provenance entries of `other` into `self`.
    pub fn merge(&mut self, other: &FactMeta) {
        for st in &other.provenance {
            self.merge_source(st.source, st.trust);
        }
        if self.locale.is_none() {
            self.locale = other.locale;
        }
    }

    /// Remove a source's attribution. Returns `true` if the fact is now
    /// orphaned (no remaining sources) and should be dropped from the KG —
    /// the mechanism behind on-demand data deletion.
    pub fn retract_source(&mut self, source: SourceId) -> bool {
        self.provenance.remove(source);
        self.provenance.is_empty()
    }

    /// Aggregated confidence that the fact is correct, combining independent
    /// source trusts with a noisy-OR: `1 - Π (1 - trust_i)`.
    ///
    /// The paper stores a per-record confidence used for accuracy SLAs and
    /// fact-auditing decisions; noisy-OR is the standard independence
    /// combiner for "at least one source is right".
    pub fn confidence(&self) -> f32 {
        let mut not_p = 1.0f32;
        for st in &self.provenance {
            not_p *= 1.0 - st.trust.clamp(0.0, 1.0);
        }
        1.0 - not_p
    }

    /// Number of distinct contributing sources (the "number of identities"
    /// structural signal used by entity importance, §3.3).
    pub fn source_count(&self) -> usize {
        self.provenance.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_source_records_single_provenance() {
        let m = FactMeta::from_source(SourceId(1), 0.9);
        assert_eq!(m.source_count(), 1);
        assert!(m.has_source(SourceId(1)));
        assert!(!m.has_source(SourceId(2)));
        assert!(m.locale.is_none());
    }

    #[test]
    fn localized_interns_locale() {
        let m = FactMeta::localized(SourceId(1), 0.9, "en");
        assert_eq!(m.locale, Some(intern("en")));
    }

    #[test]
    fn merge_source_appends_or_refreshes() {
        let mut m = FactMeta::from_source(SourceId(1), 0.9);
        m.merge_source(SourceId(2), 0.8);
        assert_eq!(m.source_count(), 2);
        m.merge_source(SourceId(1), 0.5); // refresh, not duplicate
        assert_eq!(m.source_count(), 2);
        assert_eq!(m.provenance[0].trust, 0.5);
    }

    #[test]
    fn retract_source_signals_orphaned_fact() {
        let mut m = FactMeta::from_source(SourceId(1), 0.9);
        m.merge_source(SourceId(2), 0.8);
        assert!(!m.retract_source(SourceId(1)));
        assert!(
            m.retract_source(SourceId(2)),
            "last source removed → orphan"
        );
    }

    #[test]
    fn confidence_is_noisy_or() {
        let mut m = FactMeta::from_source(SourceId(1), 0.9);
        assert!((m.confidence() - 0.9).abs() < 1e-6);
        m.merge_source(SourceId(2), 0.8);
        // 1 - 0.1*0.2 = 0.98
        assert!((m.confidence() - 0.98).abs() < 1e-6);
    }

    #[test]
    fn confidence_clamps_out_of_range_trust() {
        let m = FactMeta::from_source(SourceId(1), 1.5);
        assert!((m.confidence() - 1.0).abs() < 1e-6);
        let m2 = FactMeta::from_source(SourceId(1), -0.5);
        assert!(m2.confidence().abs() < 1e-6);
    }

    #[test]
    fn merge_unions_provenance_and_keeps_first_locale() {
        let mut a = FactMeta::localized(SourceId(1), 0.9, "en");
        let b = FactMeta::localized(SourceId(2), 0.7, "fr");
        a.merge(&b);
        assert_eq!(a.source_count(), 2);
        assert_eq!(a.locale, Some(intern("en")));

        let mut c = FactMeta::from_source(SourceId(3), 0.5);
        c.merge(&b);
        assert_eq!(
            c.locale,
            Some(intern("fr")),
            "missing locale adopted from other"
        );
    }

    /// The reference semantics: a plain `Vec`, merged and retracted the
    /// way `FactMeta` documents.
    fn model_merge(model: &mut Vec<SourceTrust>, entry: SourceTrust) {
        match model.iter_mut().find(|st| st.source == entry.source) {
            Some(st) => st.trust = entry.trust,
            None => model.push(entry),
        }
    }

    fn random_entry(rng: &mut StdRng) -> SourceTrust {
        SourceTrust {
            source: SourceId(rng.gen_range(1..6)),
            trust: rng.gen_range(0..=10u32) as f32 / 10.0,
        }
    }

    fn assert_matches_model(meta: &FactMeta, model: &[SourceTrust], label: &str) {
        assert_eq!(&*meta.provenance, model, "{label}: slice");
        assert_eq!(meta.source_count(), model.len(), "{label}: count");
        let not_p: f32 = model
            .iter()
            .map(|st| 1.0 - st.trust.clamp(0.0, 1.0))
            .product();
        assert_eq!(
            meta.confidence().to_bits(),
            (1.0 - not_p).to_bits(),
            "{label}: confidence"
        );
        for source in (0..7).map(SourceId) {
            assert_eq!(
                meta.has_source(source),
                model.iter().any(|st| st.source == source),
                "{label}: has_source({source})"
            );
        }
        // Canonical form: one entry is inline, whatever path built it, so
        // a meta rebuilt from the model's slice is equal and prints alike.
        assert_eq!(
            matches!(meta.provenance.0, Repr::One(_)),
            model.len() == 1,
            "{label}: representation"
        );
        let rebuilt = FactMeta {
            provenance: model.to_vec().into(),
            locale: meta.locale,
        };
        assert_eq!(*meta, rebuilt, "{label}: equality");
        assert_eq!(
            format!("{meta:?}"),
            format!("{rebuilt:?}"),
            "{label}: debug"
        );
    }

    #[test]
    fn provenance_matches_a_vec_model() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x9A0E ^ seed);
            let first = random_entry(&mut rng);
            let mut meta = FactMeta::from_source(first.source, first.trust);
            let mut model = vec![first];
            for step in 0..48 {
                let label = format!("seed {seed} step {step}");
                match rng.gen_range(0..3) {
                    0 => {
                        let entry = random_entry(&mut rng);
                        meta.merge_source(entry.source, entry.trust);
                        model_merge(&mut model, entry);
                    }
                    1 => {
                        let source = SourceId(rng.gen_range(1..6));
                        let orphan = meta.retract_source(source);
                        model.retain(|st| st.source != source);
                        assert_eq!(orphan, model.is_empty(), "{label}: orphan");
                    }
                    _ => {
                        let mut other = FactMeta::default();
                        for _ in 0..rng.gen_range(0..4) {
                            let entry = random_entry(&mut rng);
                            other.merge_source(entry.source, entry.trust);
                            model_merge(&mut model, entry);
                        }
                        // `model` now holds self's merge with other's
                        // entries, in other's order — what `merge` does.
                        meta.merge(&other);
                    }
                }
                assert_matches_model(&meta, &model, &label);
            }
        }
    }

    #[test]
    fn equal_slices_compare_equal_whatever_the_path() {
        let mut grown = FactMeta::from_source(SourceId(1), 0.9);
        grown.merge_source(SourceId(2), 0.8);
        grown.merge_source(SourceId(3), 0.7);
        assert!(!grown.retract_source(SourceId(2)));
        assert!(!grown.retract_source(SourceId(3)));
        let fresh = FactMeta::from_source(SourceId(1), 0.9);
        assert_eq!(grown, fresh, "1 → 3 → 1 sources");
        assert_eq!(format!("{grown:?}"), format!("{fresh:?}"));

        let mut emptied = FactMeta::from_source(SourceId(1), 0.9);
        emptied.merge_source(SourceId(2), 0.8);
        emptied.retract_source(SourceId(1));
        emptied.retract_source(SourceId(2));
        assert_eq!(emptied, FactMeta::default(), "2 → 0 sources");
        assert_ne!(grown, emptied);
    }
}
