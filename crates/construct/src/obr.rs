//! Object Resolution (OBR, §2.3): standardize `object` fields to KG ids.
//!
//! Two resolvers compose:
//!
//! * [`LinkTableResolver`] — a `SourceRef` naming another entity *of the
//!   same source* resolves through the KG's `same_as` link table (the
//!   id-lookup fast path of §2.4).
//! * [`NerdObjectResolver`] — string literals / unresolved mentions go
//!   through the NERD stack (§5.2), with the ontology supplying an entity
//!   type hint from the predicate's declared range (the "NERD + Type Hints"
//!   variant of Fig. 14(b)).

use saga_core::{EntityPayload, KgTransaction, SourceId, Value};
use saga_ml::NerdStack;
use saga_ontology::TypeRegistry;

/// Counters describing one resolution pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Objects rewritten to KG entity references.
    pub resolved: usize,
    /// Objects left untouched (no confident resolution).
    pub unresolved: usize,
}

/// Rewrites unresolved object references inside a linked payload.
///
/// Resolution reads the *staged* transaction view, so `same_as` links
/// recorded earlier in the same construction cycle (even earlier in the
/// same uncommitted batch) are visible — the read-your-writes guarantee
/// fusion's ordering depends on.
pub trait ObjectResolver: Send + Sync {
    /// Resolve in place; returns counters.
    fn resolve(&self, txn: &KgTransaction<'_>, payload: &mut EntityPayload) -> ResolutionStats;
}

/// Same-source reference resolution through the `same_as` link table.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkTableResolver;

impl ObjectResolver for LinkTableResolver {
    fn resolve(&self, txn: &KgTransaction<'_>, payload: &mut EntityPayload) -> ResolutionStats {
        let mut stats = ResolutionStats::default();
        for t in &mut payload.triples {
            if let Value::SourceRef(local) = &t.object {
                // The referencing source is recorded in the fact's provenance.
                let source: Option<SourceId> = t.meta.sources().next();
                let hit = source.and_then(|s| txn.lookup_link(s, local));
                match hit {
                    Some(id) => {
                        t.object = Value::Entity(id);
                        stats.resolved += 1;
                    }
                    None => stats.unresolved += 1,
                }
            }
        }
        stats
    }
}

/// NERD-backed resolution of string-literal mentions for reference-typed
/// predicates, with ontology type hints.
pub struct NerdObjectResolver<'a> {
    /// The assembled NERD stack.
    pub nerd: &'a NerdStack,
    /// Type lattice for hint subsumption.
    pub types: &'a TypeRegistry,
    /// Ontology used to find each predicate's expected range type; the
    /// range doubles as the NERD type hint.
    pub ontology: &'a saga_ontology::Ontology,
    /// Use type hints (the Fig. 14(b) ablation toggles this).
    pub use_type_hints: bool,
    /// Confidence required to accept a resolution (0.9 during construction,
    /// per §6.3: "accurate entity disambiguation is a requirement").
    pub confidence: f64,
}

impl NerdObjectResolver<'_> {
    fn hint_for(&self, predicate: saga_core::Symbol) -> Option<saga_core::Symbol> {
        if !self.use_type_hints {
            return None;
        }
        // Only predicates the ontology knows get a hint; the hint itself is
        // the predicate's conventional range type.
        self.ontology.predicate(predicate)?;
        range_hint(&predicate.to_string())
    }
}

/// Built-in range hints for the default ontology's reference predicates.
fn range_hint(predicate: &str) -> Option<saga_core::Symbol> {
    use saga_core::intern;
    let ty = match predicate {
        "performed_by" | "curated_by" => "music_artist",
        "on_album" => "album",
        "track_of" => "song",
        "signed_to" => "record_label",
        "directed_by" | "spouse" | "actor" => "person",
        "school" => "school",
        "birthplace" | "located_in" => "place",
        "home_team" | "away_team" | "plays_for" => "sports_team",
        "venue" => "venue",
        _ => return None,
    };
    Some(intern(ty))
}

impl ObjectResolver for NerdObjectResolver<'_> {
    fn resolve(&self, txn: &KgTransaction<'_>, payload: &mut EntityPayload) -> ResolutionStats {
        // First pass: cheap same-source link-table hits.
        let mut stats = LinkTableResolver.resolve(txn, payload);
        // Second pass: NERD for whatever is left, using the payload's own
        // facts as disambiguation context (a "semi-structured record").
        let context: String = payload
            .triples
            .iter()
            .filter_map(|t| t.object.as_str().map(str::to_string))
            .collect::<Vec<_>>()
            .join(" ");
        let mut newly = 0usize;
        for t in &mut payload.triples {
            let mention = match &t.object {
                Value::SourceRef(m) => m.to_string(),
                _ => continue,
            };
            let facet_pred = t.rel.map(|r| r.rel_predicate).unwrap_or(t.predicate);
            let hint = self.hint_for(facet_pred);
            if let Some((id, conf)) = self
                .nerd
                .resolve_mention(self.types, &mention, &context, hint)
            {
                if conf >= self.confidence {
                    t.object = Value::Entity(id);
                    newly += 1;
                }
            }
        }
        stats.resolved += newly;
        stats.unresolved -= newly.min(stats.unresolved);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, EntityId, FactMeta, KnowledgeGraph, Value, WriteBatch};
    use saga_ml::{ContextualDisambiguator, NerdConfig, NerdEntityView, StringEncoder};
    use saga_ontology::default_ontology;

    fn meta(src: u32) -> FactMeta {
        FactMeta::from_source(SourceId(src), 0.9)
    }

    #[test]
    fn link_table_resolver_rewrites_same_source_refs() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(5),
            "Billie Eilish",
            "music_artist",
            SourceId(1),
            0.9,
        );
        WriteBatch::new()
            .link(SourceId(1), "artist_9", EntityId(5))
            .commit(&mut kg);

        let mut p = EntityPayload::new(SourceId(1), "song_1", intern("song"));
        p.relink(EntityId(50));
        p.triples.push(saga_core::ExtendedTriple::simple(
            EntityId(50),
            intern("performed_by"),
            Value::source_ref("artist_9"),
            meta(1),
        ));
        p.triples.push(saga_core::ExtendedTriple::simple(
            EntityId(50),
            intern("on_album"),
            Value::source_ref("album_404"),
            meta(1),
        ));
        let stats = LinkTableResolver.resolve(&KgTransaction::new(&mut kg), &mut p);
        assert_eq!(
            stats,
            ResolutionStats {
                resolved: 1,
                unresolved: 1
            }
        );
        assert_eq!(p.triples[0].object, Value::Entity(EntityId(5)));
        assert_eq!(
            p.triples[1].object,
            Value::source_ref("album_404"),
            "unknown ref untouched"
        );
    }

    #[test]
    fn nerd_resolver_uses_mention_text_and_type_hint() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(5),
            "Billie Eilish",
            "music_artist",
            SourceId(2),
            0.9,
        );
        kg.add_named_entity(EntityId(6), "Billie Eilish", "song", SourceId(2), 0.9);
        let view = NerdEntityView::build(&kg, None);
        let encoder = StringEncoder::new(16, 512, 3, 1);
        let nerd = saga_ml::NerdStack::new(
            view,
            encoder,
            ContextualDisambiguator::default(),
            NerdConfig {
                max_candidates: 8,
                confidence_threshold: 0.2,
            },
        );
        let ont = default_ontology();
        let resolver = NerdObjectResolver {
            nerd: &nerd,
            types: ont.types(),
            ontology: &ont,
            use_type_hints: true,
            confidence: 0.2,
        };
        let mut p = EntityPayload::new(SourceId(1), "s1", intern("song"));
        p.relink(EntityId(70));
        p.triples.push(saga_core::ExtendedTriple::simple(
            EntityId(70),
            intern("performed_by"),
            Value::source_ref("Billie Eilish"),
            meta(1),
        ));
        let stats = resolver.resolve(&KgTransaction::new(&mut kg), &mut p);
        assert_eq!(stats.resolved, 1);
        // With the hint, the artist (not the homonymous song) is chosen.
        assert_eq!(p.triples[0].object, Value::Entity(EntityId(5)));
    }

    #[test]
    fn low_confidence_leaves_object_unresolved() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(5),
            "Completely Different",
            "music_artist",
            SourceId(2),
            0.9,
        );
        let view = NerdEntityView::build(&kg, None);
        let nerd = saga_ml::NerdStack::new(
            view,
            StringEncoder::new(16, 512, 3, 1),
            ContextualDisambiguator::default(),
            NerdConfig::default(),
        );
        let ont = default_ontology();
        let resolver = NerdObjectResolver {
            nerd: &nerd,
            types: ont.types(),
            ontology: &ont,
            use_type_hints: true,
            confidence: 0.9,
        };
        let mut p = EntityPayload::new(SourceId(1), "s1", intern("song"));
        p.relink(EntityId(70));
        p.triples.push(saga_core::ExtendedTriple::simple(
            EntityId(70),
            intern("performed_by"),
            Value::source_ref("Unknown Artist XYZ"),
            meta(1),
        ));
        let stats = resolver.resolve(&KgTransaction::new(&mut kg), &mut p);
        assert_eq!(stats.resolved, 0);
        assert!(matches!(p.triples[0].object, Value::SourceRef(_)));
    }

    #[test]
    fn range_hints_cover_reference_predicates() {
        assert_eq!(range_hint("performed_by"), Some(intern("music_artist")));
        assert_eq!(range_hint("located_in"), Some(intern("place")));
        assert_eq!(range_hint("name"), None);
    }
}
