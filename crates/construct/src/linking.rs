//! The Linking stage (§2.3): in-source deduplication + subject linking.
//!
//! Steps, exactly as the paper lists them:
//! 1. group input by entity type and extract the relevant KG view;
//! 2. combine source payload (which may include duplicates) with the view;
//! 3. blocking;
//! 4. pair generation + matching model scores;
//! 5. correlation clustering; each cluster keeps at most one KG entity,
//!    source entities inherit its id or a freshly minted one; `same_as`
//!    links record the decisions for provenance.

use saga_core::{
    EntityId, EntityPayload, FxHashMap, IdGenerator, KnowledgeGraph, SourceId, Symbol,
};

use crate::blocking::{block_payloads, generate_pairs, BlockingStrategy};
use crate::cluster::{correlation_cluster, ClusterNode, LinkageGraph};
use crate::matching::MatchingModel;

/// Linker configuration.
#[derive(Clone, Debug)]
pub struct LinkerConfig {
    /// Blocking strategy for candidate generation.
    pub blocking: BlockingStrategy,
    /// Blocks above this size generate no pairs.
    pub max_block_size: usize,
    /// Match probability at/above which a +1 edge is added.
    pub hi_threshold: f64,
    /// Pivot-clustering seed.
    pub seed: u64,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            blocking: BlockingStrategy::NameQGrams(3),
            max_block_size: 64,
            hi_threshold: 0.7,
            seed: 17,
        }
    }
}

/// The result of linking one source's Added payloads.
#[derive(Clone, Debug, Default)]
pub struct LinkOutcome {
    /// Payloads rewritten to KG subjects (duplicates share an id).
    pub linked: Vec<EntityPayload>,
    /// `same_as` records to persist: `(source, local id, KG entity)`.
    pub links: Vec<(SourceId, String, EntityId)>,
    /// How many payloads matched an existing KG entity.
    pub matched_existing: usize,
    /// How many new KG entities were minted.
    pub new_entities: usize,
    /// Candidate pairs scored by the matching model (cost accounting).
    pub pairs_scored: usize,
}

/// The Linking stage executor.
pub struct Linker {
    config: LinkerConfig,
}

impl Linker {
    /// A linker with the given configuration.
    pub fn new(config: LinkerConfig) -> Self {
        Linker { config }
    }

    /// A linker with default configuration.
    pub fn with_defaults() -> Self {
        Linker {
            config: LinkerConfig::default(),
        }
    }

    /// Link `payloads` (one source's Added partition) against the KG.
    ///
    /// `kg` is read-only: fusion applies the outcome later, in the source's
    /// own commit, so the next source links against a KG that holds it.
    /// New ids come from the shared atomic `id_gen`.
    pub fn link(
        &self,
        kg: &KnowledgeGraph,
        id_gen: &IdGenerator,
        payloads: Vec<EntityPayload>,
        matcher: &dyn MatchingModel,
    ) -> LinkOutcome {
        let mut outcome = LinkOutcome::default();
        // Step 1: group by entity type.
        let mut by_type: FxHashMap<Symbol, Vec<EntityPayload>> = FxHashMap::default();
        for p in payloads {
            by_type.entry(p.entity_type).or_default().push(p);
        }
        let mut type_keys: Vec<Symbol> = by_type.keys().copied().collect();
        type_keys.sort_unstable(); // deterministic processing order
        for ty in type_keys {
            let group = by_type.remove(&ty).expect("key exists");
            self.link_type_group(kg, id_gen, ty, group, matcher, &mut outcome);
        }
        outcome
    }

    fn link_type_group(
        &self,
        kg: &KnowledgeGraph,
        id_gen: &IdGenerator,
        entity_type: Symbol,
        source_payloads: Vec<EntityPayload>,
        matcher: &dyn MatchingModel,
        outcome: &mut LinkOutcome,
    ) {
        // Step 1b/2: KG view for this type, combined with the source payload.
        let kg_view: Vec<EntityPayload> = kg
            .entities_of_type(entity_type)
            .into_iter()
            .map(|r| r.to_payload(entity_type))
            .collect();
        let n_src = source_payloads.len();
        let mut combined: Vec<EntityPayload> = source_payloads;
        combined.extend(kg_view);

        // Step 3: blocking over the combined payload.
        let blocks = block_payloads(&combined, self.config.blocking);
        // Step 4: pair generation + matching.
        let pairs = generate_pairs(&blocks, self.config.max_block_size);
        let mut graph = LinkageGraph::new();
        let node_of = |i: usize| -> ClusterNode {
            if i < n_src {
                ClusterNode::Source(i)
            } else {
                ClusterNode::Kg(
                    combined[i]
                        .subject
                        .as_kg()
                        .expect("KG view payloads are linked"),
                )
            }
        };
        // Every source payload is a node even if it pairs with nothing.
        for i in 0..n_src {
            graph.add_node(ClusterNode::Source(i));
        }
        for (i, j) in pairs {
            // KG-KG pairs carry no work: existing entities never merge here.
            if i >= n_src && j >= n_src {
                continue;
            }
            outcome.pairs_scored += 1;
            let p = matcher.score(&combined[i], &combined[j]);
            if p >= self.config.hi_threshold {
                graph.add_positive(node_of(i), node_of(j));
            }
        }

        // Step 5: resolution.
        let clusters = correlation_cluster(&graph, self.config.seed);
        for cluster in clusters {
            let kg_id = cluster.iter().find_map(|n| match n {
                ClusterNode::Kg(id) => Some(*id),
                ClusterNode::Source(_) => None,
            });
            let members: Vec<usize> = cluster
                .iter()
                .filter_map(|n| match n {
                    ClusterNode::Source(i) => Some(*i),
                    ClusterNode::Kg(_) => None,
                })
                .collect();
            if members.is_empty() {
                continue;
            }
            let id = match kg_id {
                Some(id) => {
                    outcome.matched_existing += members.len();
                    id
                }
                None => {
                    outcome.new_entities += 1;
                    id_gen.allocate()
                }
            };
            for m in members {
                let mut p = combined[m].clone();
                if let (Some(src), Some(local)) = (p.source(), p.local_id().map(str::to_string)) {
                    outcome.links.push((src, local, id));
                }
                p.relink(id);
                outcome.linked.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::RuleMatcher;
    use saga_core::{intern, FactMeta, Value};

    fn payload(src: u32, id: &str, name: &str) -> EntityPayload {
        let mut p = EntityPayload::new(SourceId(src), id, intern("music_artist"));
        p.push_simple(
            intern("name"),
            Value::str(name),
            FactMeta::from_source(SourceId(src), 0.9),
        );
        p.push_simple(
            intern("type"),
            Value::str("music_artist"),
            FactMeta::from_source(SourceId(src), 0.9),
        );
        p
    }

    #[test]
    fn new_entities_are_minted_for_unseen_names() {
        let kg = KnowledgeGraph::new();
        let gen = IdGenerator::starting_at(100);
        let linker = Linker::with_defaults();
        let out = linker.link(
            &kg,
            &gen,
            vec![payload(1, "a", "Billie Eilish"), payload(1, "b", "Jay-Z")],
            &RuleMatcher::default(),
        );
        assert_eq!(out.new_entities, 2);
        assert_eq!(out.matched_existing, 0);
        assert_eq!(out.linked.len(), 2);
        assert_eq!(out.links.len(), 2);
        let ids: Vec<EntityId> = out
            .linked
            .iter()
            .map(|p| p.subject.as_kg().unwrap())
            .collect();
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn in_source_duplicates_share_one_new_id() {
        let kg = KnowledgeGraph::new();
        let gen = IdGenerator::starting_at(100);
        let linker = Linker::with_defaults();
        let out = linker.link(
            &kg,
            &gen,
            vec![
                payload(1, "a", "Billie Eilish"),
                payload(1, "a_dup", "Bilie Eilish"),
            ],
            &RuleMatcher::default(),
        );
        assert_eq!(out.new_entities, 1, "typo duplicates deduplicate in-source");
        let ids: Vec<EntityId> = out
            .linked
            .iter()
            .map(|p| p.subject.as_kg().unwrap())
            .collect();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(out.links.len(), 2, "both local ids recorded as same_as");
    }

    #[test]
    fn source_entities_link_to_existing_kg_entities() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(7),
            "Billie Eilish",
            "music_artist",
            SourceId(9),
            0.95,
        );
        let gen = IdGenerator::starting_at(100);
        let linker = Linker::with_defaults();
        let out = linker.link(
            &kg,
            &gen,
            vec![payload(1, "a", "Billie Eilish")],
            &RuleMatcher::default(),
        );
        assert_eq!(out.matched_existing, 1);
        assert_eq!(out.new_entities, 0);
        assert_eq!(out.linked[0].subject.as_kg(), Some(EntityId(7)));
        assert_eq!(out.links, vec![(SourceId(1), "a".to_string(), EntityId(7))]);
    }

    #[test]
    fn homonym_kg_entities_never_merge_via_a_source() {
        // Two distinct KG "Hanover" cities; a new source mention of Hanover
        // must attach to at most one of them.
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Hanover", "music_artist", SourceId(9), 0.9);
        kg.add_named_entity(EntityId(2), "Hanover", "music_artist", SourceId(9), 0.9);
        let gen = IdGenerator::starting_at(100);
        let linker = Linker::with_defaults();
        let out = linker.link(
            &kg,
            &gen,
            vec![payload(1, "h", "Hanover")],
            &RuleMatcher::default(),
        );
        assert_eq!(out.linked.len(), 1);
        let id = out.linked[0].subject.as_kg().unwrap();
        assert!(id == EntityId(1) || id == EntityId(2));
        assert_eq!(out.new_entities, 0);
    }

    #[test]
    fn types_are_linked_independently() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Echo", "song", SourceId(9), 0.9);
        let gen = IdGenerator::starting_at(100);
        let linker = Linker::with_defaults();
        // Same name, different type: must NOT link to the song.
        let out = linker.link(
            &kg,
            &gen,
            vec![payload(1, "a", "Echo")],
            &RuleMatcher::default(),
        );
        assert_eq!(
            out.new_entities, 1,
            "artist Echo is a new entity, not the song"
        );
        assert_ne!(out.linked[0].subject.as_kg(), Some(EntityId(1)));
    }

    #[test]
    fn pair_scoring_cost_is_reported() {
        let kg = KnowledgeGraph::new();
        let gen = IdGenerator::starting_at(1);
        let linker = Linker::with_defaults();
        let payloads: Vec<EntityPayload> = (0..6)
            .map(|i| payload(1, &format!("p{i}"), "Exact Same Name"))
            .collect();
        let out = linker.link(&kg, &gen, payloads, &RuleMatcher::default());
        assert_eq!(out.pairs_scored, 15, "6 choose 2");
        assert_eq!(out.new_entities, 1);
    }
}
