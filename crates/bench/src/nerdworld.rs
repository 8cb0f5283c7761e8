//! The ambiguity workload behind Fig. 14 (E5, E6).
//!
//! The corpus is built to exhibit the phenomenon §6.3 describes: a
//! popularity-prior disambiguator is strong on *head* entities but fails on
//! *tail* entities that share surface names with popular ones, while a
//! context-aware stack (NERD) can exploit the KG's relational information.
//!
//! Composition, mirroring production annotation traffic:
//!
//! * **unambiguous cases** (the majority) — distinctive names both systems
//!   resolve; they anchor absolute precision/recall.
//! * **homonym head cases** — the popular reading of a shared name.
//! * **homonym tail cases with context** — the tail reading, where the
//!   context names the tail's distinctive neighbours (only NERD can win).
//! * **homonym tail cases without context** — weak evidence; confident
//!   systems should *reject* these at high cutoffs.
//! * **mega-head groups** — extremely popular heads whose popularity makes
//!   the baseline *confidently wrong* on tail mentions (its precision
//!   loss).
//!
//! Object-resolution cases (Fig. 14b) are artist/song homonyms across
//! ontology types, where the predicate's declared range (the type hint)
//! disambiguates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId, Symbol, Value,
};

/// One evaluation case for text annotation.
#[derive(Clone, Debug)]
pub struct NerdCase {
    /// The surface mention.
    pub mention: String,
    /// The surrounding context.
    pub context: String,
    /// Ground-truth entity.
    pub truth: EntityId,
    /// Whether the truth is a tail entity.
    pub tail: bool,
}

/// One evaluation case for object resolution (with a type hint).
#[derive(Clone, Debug)]
pub struct ObrCase {
    /// The object mention (e.g. an artist name in a song record).
    pub mention: String,
    /// Record context (other fields of the payload).
    pub context: String,
    /// The ontology type hint from the predicate's range.
    pub hint: Symbol,
    /// Ground-truth entity.
    pub truth: EntityId,
}

/// The generated world: KG plus labeled cases.
pub struct NerdWorld {
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
    /// Text-annotation cases (Fig. 14a).
    pub text_cases: Vec<NerdCase>,
    /// Object-resolution cases (Fig. 14b).
    pub obr_cases: Vec<ObrCase>,
}

const ONSETS: &[&str] = &[
    "Br", "K", "V", "Thr", "M", "Gr", "D", "Sel", "Har", "W", "Quin", "F",
];
const NUCLEI: &[&str] = &["an", "el", "or", "ie", "u", "ay", "ex", "ol", "ar", "en"];
const CODAS: &[&str] = &[
    "ford", "holm", "wick", "bury", "gate", "mere", "stead", "ton", "dale", "field",
];

const COUNTRIES: &[&str] = &[
    "Germany",
    "Australia",
    "Canada",
    "Jamaica",
    "Ireland",
    "Portugal",
    "Norway",
    "Chile",
];

const COLLEGES: &[&str] = &[
    "Dartmouth College",
    "Mirefield Institute",
    "Oakhaven University",
    "Bryner Academy",
    "Tellwick College",
    "Northgate Polytechnic",
    "Harrowgate School",
    "Vexford University",
];

/// Distinct pronounceable place stems (deterministic, collision-free).
fn stem(i: usize) -> String {
    let onset = ONSETS[i % ONSETS.len()];
    let nucleus = NUCLEI[(i / ONSETS.len()) % NUCLEI.len()];
    let coda = CODAS[(i / (ONSETS.len() * NUCLEI.len())) % CODAS.len()];
    format!("{onset}{nucleus}{coda}")
}

/// Generate the ambiguity world: `groups` homonym pairs with unambiguous
/// fillers, plus `groups` OBR cases.
pub fn ambiguous_world(seed: u64, groups: usize) -> NerdWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kg = KnowledgeGraph::new();
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let mut next = 1u64;
    let mut fresh = || {
        let id = EntityId(next);
        next += 1;
        id
    };
    let mut text_cases = Vec::new();
    let mut obr_cases = Vec::new();

    // ---------------- Fig. 14a world ----------------
    for g in 0..groups {
        let name = stem(g);
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        let college = COLLEGES[rng.gen_range(0..COLLEGES.len())];
        // Head popularity varies: every 9th group has a *mega* head whose
        // popularity makes a popularity-prior system confidently wrong on
        // tail mentions; the rest mix moderately and mildly popular heads,
        // producing a smooth confidence gradient across cutoffs.
        let mega = g % 9 == 0;
        let head_districts = if mega {
            40
        } else if g % 2 == 0 {
            8
        } else {
            4
        };

        // Head city.
        let head = fresh();
        kg.add_named_entity(head, &name, "city", SourceId(1), 0.9);
        let country_id = fresh();
        kg.add_named_entity(country_id, country, "place", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            head,
            intern("located_in"),
            Value::Entity(country_id),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            head,
            intern("description"),
            Value::str(format!("Major city in {country} known worldwide")),
            meta(),
        ));
        for d in 0..head_districts {
            let district = fresh();
            kg.add_named_entity(
                district,
                &format!("{name} Ward {d}"),
                "place",
                SourceId(1),
                0.9,
            );
            kg.commit_upsert(ExtendedTriple::simple(
                head,
                intern("member_of"),
                Value::Entity(district),
                meta(),
            ));
        }

        // Tail town: same name, distinctive college neighbour.
        let tail = fresh();
        kg.add_named_entity(tail, &name, "city", SourceId(1), 0.9);
        let college_id = fresh();
        kg.add_named_entity(college_id, college, "school", SourceId(1), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            college_id,
            intern("located_in"),
            Value::Entity(tail),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            tail,
            intern("member_of"),
            Value::Entity(college_id),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            tail,
            intern("description"),
            Value::str(format!("Small town, home of {college}")),
            meta(),
        ));

        // Homonym cases: heads with context (head mentions dominate real
        // traffic), tail with context, tail without.
        for v in 0..3 {
            let ctx = [
                format!("{name} is a major city in {country} known worldwide"),
                format!("Flights to {name}, the {country} metropolis, resume today"),
                format!("The {name} mayor addressed {country} reporters downtown"),
            ];
            text_cases.push(NerdCase {
                mention: name.clone(),
                context: ctx[v].clone(),
                truth: head,
                tail: false,
            });
        }
        text_cases.push(NerdCase {
            mention: name.clone(),
            context: format!("We visited downtown {name} after spending time at {college}"),
            truth: tail,
            tail: true,
        });
        text_cases.push(NerdCase {
            mention: name.clone(),
            context: format!("Passing through {name} on the long drive home"),
            truth: tail,
            tail: true,
        });

        // Unambiguous fillers: three distinctive towns with contexts that
        // mention their region — the easy majority of annotation traffic.
        for f in 0..3 {
            let k = g * 3 + f;
            // Two independent stems keep filler names lexically far apart.
            let town_name = format!("{} {}", stem(1000 + k), stem(2000 + (k * 7 + 3) % 900));
            let town = fresh();
            kg.add_named_entity(town, &town_name, "city", SourceId(1), 0.9);
            let region = fresh();
            let region_name = format!("{} Region", stem(5000 + g * 3 + f));
            kg.add_named_entity(region, &region_name, "place", SourceId(1), 0.9);
            kg.commit_upsert(ExtendedTriple::simple(
                town,
                intern("located_in"),
                Value::Entity(region),
                meta(),
            ));
            kg.commit_upsert(ExtendedTriple::simple(
                town,
                intern("description"),
                Value::str(format!("Town in the {region_name}")),
                meta(),
            ));
            text_cases.push(NerdCase {
                mention: town_name.clone(),
                context: format!("The council of {town_name} in the {region_name} met today"),
                truth: town,
                tail: false,
            });
        }
    }

    // ---------------- Fig. 14b world: artist references ----------------
    // Most object references are unambiguous artists; a fraction collide
    // with songs of the same name (cross-type homonyms), split between
    // mega-popular songs (the baseline is confidently wrong) and moderate
    // ones (the baseline abstains at high confidence).
    for g in 0..groups {
        let base = format!("{} {}", stem(900 + g), stem(3000 + (g * 11 + 5) % 900));
        let homonym = g % 10 >= 7;
        if homonym {
            let song = fresh();
            kg.add_named_entity(song, &base, "song", SourceId(2), 0.9);
            let remixes = if g % 3 == 0 { 40 } else { 6 };
            for d in 0..remixes {
                let p = fresh();
                kg.add_named_entity(p, &format!("{base} Remix {d}"), "song", SourceId(2), 0.9);
                kg.commit_upsert(ExtendedTriple::simple(
                    song,
                    intern("member_of"),
                    Value::Entity(p),
                    meta(),
                ));
            }
        }
        let artist = fresh();
        kg.add_named_entity(artist, &base, "music_artist", SourceId(2), 0.9);
        let label = fresh();
        let label_name = format!("Label House {g}");
        kg.add_named_entity(label, &label_name, "record_label", SourceId(2), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            artist,
            intern("signed_to"),
            Value::Entity(label),
            meta(),
        ));

        // A new song record referencing the artist by name; the record's
        // other fields mention the label (context), and the ontology says
        // performed_by ranges over music_artist (hint). Half the cases have
        // helpful context; half rely on the type hint alone.
        let context = if g % 2 == 0 {
            format!("New single under {label_name} performed by {base}")
        } else {
            format!("Track 7 performed by {base}")
        };
        obr_cases.push(ObrCase {
            mention: base.clone(),
            context,
            hint: intern("music_artist"),
            truth: artist,
        });
    }

    NerdWorld {
        kg,
        text_cases,
        obr_cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic_and_labeled() {
        let w1 = ambiguous_world(5, 10);
        let w2 = ambiguous_world(5, 10);
        assert_eq!(w1.kg.fact_count(), w2.kg.fact_count());
        assert_eq!(w1.text_cases.len(), 80, "8 cases per group");
        assert_eq!(w1.obr_cases.len(), 10);
        for c in &w1.text_cases {
            assert!(w1.kg.contains(c.truth));
        }
        for c in &w1.obr_cases {
            assert!(w1.kg.contains(c.truth));
        }
    }

    #[test]
    fn stems_are_unique_at_experiment_scale() {
        let mut seen = saga_core::FxHashSet::default();
        for i in 0..200 {
            assert!(seen.insert(stem(i)), "stem({i}) collides");
        }
    }

    #[test]
    fn homonyms_share_names_but_not_ids() {
        let w = ambiguous_world(1, 4);
        for c in w.text_cases.chunks(8) {
            let head = &c[0];
            let tail = &c[3];
            assert_eq!(head.mention, tail.mention);
            assert_ne!(head.truth, tail.truth);
            assert!(!head.tail && tail.tail && c[4].tail);
            // Fillers are unambiguous.
            for filler in &c[5..8] {
                assert_eq!(w.kg.find_by_name(&filler.mention), vec![filler.truth]);
            }
        }
        let hits = w.kg.find_by_name(&w.text_cases[0].mention);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn mega_head_groups_have_dominant_popularity() {
        let w = ambiguous_world(2, 8);
        // Group 0 and 7 are mega (g % 7 == 0).
        let mega_head = w.text_cases[0].truth;
        let normal_head = w.text_cases[8].truth;
        let mega_deg = w.kg.entity(mega_head).unwrap().out_edges().count();
        let normal_deg = w.kg.entity(normal_head).unwrap().out_edges().count();
        assert!(mega_deg > normal_deg * 3, "{mega_deg} vs {normal_deg}");
    }
}
