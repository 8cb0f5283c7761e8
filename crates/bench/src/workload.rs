//! Media-world KG generator (Fig. 8 / E2, E7, E10) and the Fig. 12
//! growth schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, RelId, SourceId, Value,
};

/// Size knobs for [`media_world`].
#[derive(Clone, Copy, Debug)]
pub struct MediaWorldConfig {
    /// Random seed.
    pub seed: u64,
    /// Number of persons (spouse pairs, birthplaces).
    pub persons: usize,
    /// Number of music artists.
    pub artists: usize,
    /// Songs per artist.
    pub songs_per_artist: usize,
    /// Number of playlists (each sampling songs).
    pub playlists: usize,
    /// Tracks per playlist.
    pub tracks_per_playlist: usize,
    /// Number of movies (cast drawn from persons).
    pub movies: usize,
    /// Cast size per movie.
    pub cast_per_movie: usize,
}

impl MediaWorldConfig {
    /// The default benchmark scale (~40k facts).
    pub fn standard(seed: u64) -> Self {
        MediaWorldConfig {
            seed,
            persons: 2_000,
            artists: 600,
            songs_per_artist: 8,
            playlists: 400,
            tracks_per_playlist: 12,
            movies: 900,
            cast_per_movie: 8,
        }
    }

    /// A small scale for tests.
    pub fn small(seed: u64) -> Self {
        MediaWorldConfig {
            seed,
            persons: 60,
            artists: 20,
            songs_per_artist: 3,
            playlists: 10,
            tracks_per_playlist: 4,
            movies: 12,
            cast_per_movie: 3,
        }
    }
}

/// Generate the media-domain KG exercising all six Fig. 8 views.
pub fn media_world(cfg: &MediaWorldConfig) -> KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut kg = KnowledgeGraph::new();
    let meta = |rng: &mut StdRng| FactMeta::from_source(SourceId(rng.gen_range(1..5)), 0.9);
    let mut next = 1u64;
    let mut fresh = || {
        let id = EntityId(next);
        next += 1;
        id
    };

    // Cities.
    let cities: Vec<EntityId> = (0..50)
        .map(|i| {
            let id = fresh();
            kg.add_named_entity(id, &format!("City {i}"), "city", SourceId(1), 0.9);
            id
        })
        .collect();
    // Persons with birthplaces and spouses.
    let persons: Vec<EntityId> = (0..cfg.persons)
        .map(|i| {
            let id = fresh();
            kg.add_named_entity(id, &format!("Person {i}"), "person", SourceId(1), 0.9);
            id
        })
        .collect();
    for (i, &p) in persons.iter().enumerate() {
        let city = cities[rng.gen_range(0..cities.len())];
        kg.commit_upsert(ExtendedTriple::simple(
            p,
            intern("birthplace"),
            Value::Entity(city),
            meta(&mut rng),
        ));
        if i % 2 == 1 {
            let partner = persons[i - 1];
            kg.commit_upsert(ExtendedTriple::simple(
                p,
                intern("spouse"),
                Value::Entity(partner),
                meta(&mut rng),
            ));
            kg.commit_upsert(ExtendedTriple::simple(
                partner,
                intern("spouse"),
                Value::Entity(p),
                meta(&mut rng),
            ));
        }
    }
    // Labels and artists.
    let labels: Vec<EntityId> = (0..20)
        .map(|i| {
            let id = fresh();
            kg.add_named_entity(id, &format!("Label {i}"), "record_label", SourceId(2), 0.9);
            id
        })
        .collect();
    let artists: Vec<EntityId> = (0..cfg.artists)
        .map(|i| {
            let id = fresh();
            kg.add_named_entity(id, &format!("Artist {i}"), "music_artist", SourceId(2), 0.9);
            let label = labels[rng.gen_range(0..labels.len())];
            kg.commit_upsert(ExtendedTriple::simple(
                id,
                intern("signed_to"),
                Value::Entity(label),
                meta(&mut rng),
            ));
            id
        })
        .collect();
    // Songs.
    let mut songs = Vec::new();
    for (ai, &artist) in artists.iter().enumerate() {
        for s in 0..cfg.songs_per_artist {
            let id = fresh();
            kg.add_named_entity(id, &format!("Song {ai}-{s}"), "song", SourceId(2), 0.9);
            kg.commit_upsert(ExtendedTriple::simple(
                id,
                intern("performed_by"),
                Value::Entity(artist),
                meta(&mut rng),
            ));
            kg.commit_upsert(ExtendedTriple::simple(
                id,
                intern("duration_s"),
                Value::Int(rng.gen_range(90..420)),
                meta(&mut rng),
            ));
            songs.push(id);
        }
    }
    // Playlists.
    for i in 0..cfg.playlists {
        let id = fresh();
        kg.add_named_entity(id, &format!("Playlist {i}"), "playlist", SourceId(3), 0.9);
        for _ in 0..cfg.tracks_per_playlist {
            let song = songs[rng.gen_range(0..songs.len())];
            kg.commit_upsert(ExtendedTriple::simple(
                id,
                intern("track_of"),
                Value::Entity(song),
                meta(&mut rng),
            ));
        }
    }
    // Movies with cast + directors.
    for i in 0..cfg.movies {
        let id = fresh();
        kg.add_named_entity(id, &format!("Movie {i}"), "movie", SourceId(4), 0.9);
        kg.commit_upsert(ExtendedTriple::simple(
            id,
            intern("full_title"),
            Value::str(format!("Movie {i}: The Feature")),
            meta(&mut rng),
        ));
        let dir = persons[rng.gen_range(0..persons.len())];
        kg.commit_upsert(ExtendedTriple::simple(
            id,
            intern("directed_by"),
            Value::Entity(dir),
            meta(&mut rng),
        ));
        for c in 0..cfg.cast_per_movie {
            let actor = persons[rng.gen_range(0..persons.len())];
            kg.commit_upsert(ExtendedTriple::composite(
                id,
                intern("cast"),
                RelId(c as u32 + 1),
                intern("actor"),
                Value::Entity(actor),
                meta(&mut rng),
            ));
        }
    }
    kg
}

/// One quarter of the Fig. 12 growth schedule.
#[derive(Clone, Copy, Debug)]
pub struct GrowthQuarter {
    /// Quarter index (0-based; the paper's x-axis starts in 2018).
    pub quarter: usize,
    /// New sources onboarded this quarter.
    pub new_sources: usize,
    /// Entities contributed per source per quarter.
    pub entities_per_source: usize,
    /// Facts contributed per entity.
    pub facts_per_entity: usize,
    /// Whether Saga-style delta ingestion is active.
    pub saga_active: bool,
}

/// The onboarding schedule behind Fig. 12: before Saga, onboarding is slow
/// (manual pipelines, full reconstruction); after the dashed line,
/// self-serve onboarding + incremental construction let sources and fact
/// enrichment compound. Entities grow slower than facts because later
/// sources mostly *corroborate and enrich* existing entities (fusion merges
/// them) rather than introduce new ones.
pub fn growth_schedule(quarters: usize, saga_at: usize) -> Vec<GrowthQuarter> {
    (0..quarters)
        .map(|q| {
            let saga_active = q >= saga_at;
            if saga_active {
                let ramp = q - saga_at + 1;
                GrowthQuarter {
                    quarter: q,
                    new_sources: if ramp == 1 { 3 } else { 2 },
                    entities_per_source: 200,
                    facts_per_entity: 7 + ramp.min(6),
                    saga_active,
                }
            } else {
                GrowthQuarter {
                    quarter: q,
                    new_sources: if q == 0 { 2 } else { usize::from(q % 3 == 0) },
                    entities_per_source: 150,
                    facts_per_entity: 4,
                    saga_active,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_graph::production_views::compute_all;
    use saga_graph::{AnalyticsStore, LegacyEngine};

    #[test]
    fn media_world_is_deterministic_and_populated() {
        let a = media_world(&MediaWorldConfig::small(1));
        let b = media_world(&MediaWorldConfig::small(1));
        assert_eq!(a.fact_count(), b.fact_count());
        assert!(a.entity_count() > 100);
        assert!(a.fact_count() > 400);
    }

    #[test]
    fn all_six_views_are_nonempty_and_engines_agree() {
        let kg = media_world(&MediaWorldConfig::small(7));
        let store = AnalyticsStore::build(&kg);
        let legacy = LegacyEngine::build(&kg);
        for (label, a, l) in compute_all(&store, &legacy) {
            assert_eq!(a, l, "{label}");
            assert!(a > 0, "{label} must be non-empty");
        }
    }

    #[test]
    fn growth_schedule_has_inflection_at_saga() {
        let sched = growth_schedule(16, 6);
        assert_eq!(sched.len(), 16);
        assert!(!sched[5].saga_active);
        assert!(sched[6].saga_active);
        let pre: usize = sched[..6].iter().map(|q| q.new_sources).sum();
        let post: usize = sched[6..12].iter().map(|q| q.new_sources).sum();
        assert!(
            post > pre * 3,
            "onboarding accelerates after Saga: {pre} vs {post}"
        );
    }
}
