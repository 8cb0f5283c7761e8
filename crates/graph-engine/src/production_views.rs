//! The six schematized entity-centric production views of Fig. 8, defined
//! on *both* engines.
//!
//! Fig. 8 reports the latency ratio legacy/GraphEngine for People, Artists,
//! Playlists, Playlist Artists, Songs and Media People views. The views
//! differ in join-heaviness: Songs is a single join (the paper's smallest
//! gain, +5%), Media People chains four (the 14.53× best case). Each view
//! is implemented once over the columnar [`AnalyticsStore`] and once over
//! the [`LegacyEngine`]; unit tests assert both produce identical row
//! counts, benches time them (experiment E2).

use saga_core::intern;

use crate::analytics::AnalyticsStore;
use crate::legacy::LegacyEngine;

/// One of the six Fig. 8 views.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProductionView {
    /// person ⋈ birthplace name ⋈ spouse name (2 joins).
    People,
    /// artist ⋈ song count ⋈ label name (2 joins + aggregation).
    Artists,
    /// playlist ⋈ tracks ⋈ durations (2 joins, fan-out).
    Playlists,
    /// playlist ⋈ tracks ⋈ performed_by ⋈ artist name (3 joins).
    PlaylistArtists,
    /// song ⋈ artist name (1 join — the paper's smallest gain).
    Songs,
    /// movie cast ⋈ titles ⋈ directors ⋈ names (4 joins — best case).
    MediaPeople,
}

impl ProductionView {
    /// All six, in Fig. 8's x-axis order.
    pub const ALL: [ProductionView; 6] = [
        ProductionView::People,
        ProductionView::Artists,
        ProductionView::Playlists,
        ProductionView::PlaylistArtists,
        ProductionView::Songs,
        ProductionView::MediaPeople,
    ];

    /// Display label matching the paper's x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            ProductionView::People => "People",
            ProductionView::Artists => "Artists",
            ProductionView::Playlists => "Playlists",
            ProductionView::PlaylistArtists => "Playlist Artists",
            ProductionView::Songs => "Songs",
            ProductionView::MediaPeople => "Media People",
        }
    }

    /// Compute on the Graph Engine's analytics store; returns the view's
    /// row count (the full relation is materialized internally).
    pub fn compute_analytics(&self, store: &AnalyticsStore) -> usize {
        // All views look names up; build the dimension index once.
        let names = store.frame_strs(intern("name"), "n");
        let names_idx = names.index_on("subject");
        match self {
            ProductionView::People => {
                let bp = store
                    .frame_ents(intern("birthplace"), "place")
                    .hash_join_with("place", &names, &names_idx)
                    .rename("n", "place_name");
                let sp = store
                    .frame_ents(intern("spouse"), "partner")
                    .hash_join_with("partner", &names, &names_idx)
                    .rename("n", "partner_name");
                bp.hash_join("subject", &sp, "subject").len()
            }
            ProductionView::Artists => {
                let per_artist = store
                    .frame_ents(intern("performed_by"), "artist")
                    .group_count("artist");
                let with_names = per_artist
                    .hash_join_with("artist", &names, &names_idx)
                    .rename("n", "artist_name");
                let labels = store
                    .frame_ents(intern("signed_to"), "label")
                    .hash_join_with("label", &names, &names_idx)
                    .rename("n", "label_name");
                with_names.hash_join("artist", &labels, "subject").len()
            }
            ProductionView::Playlists => {
                let tracks = store.frame_ents(intern("track_of"), "song");
                let durations = store.frame_ints(intern("duration_s"), "secs");
                let with_dur = tracks.hash_join("song", &durations, "subject");
                with_dur
                    .hash_join_with("subject", &names, &names_idx)
                    .rename("n", "playlist_name")
                    .len()
            }
            ProductionView::PlaylistArtists => {
                let tracks = store.frame_ents(intern("track_of"), "song");
                let performed = store.frame_ents(intern("performed_by"), "artist");
                let song_artists = tracks.hash_join("song", &performed, "subject");
                let with_names = song_artists
                    .hash_join_with("artist", &names, &names_idx)
                    .rename("n", "artist_name");
                with_names
                    .hash_join_with("subject", &names, &names_idx)
                    .rename("n", "playlist_name")
                    .len()
            }
            ProductionView::Songs => {
                // One join, then heavy per-row string manipulation — the
                // workload profile where the paper saw only a 5% gain
                // ("Spark-based execution is well suited for … views with a
                // large amounts of string manipulation").
                let performed = store.frame_ents(intern("performed_by"), "artist");
                let joined = performed
                    .hash_join_with("artist", &names, &names_idx)
                    .rename("n", "artist_name");
                let full = joined
                    .hash_join_with("subject", &names, &names_idx)
                    .rename("n", "title");
                if full.is_empty() {
                    return 0;
                }
                let titles = full.col("title").unwrap();
                let artists = full.col("artist_name").unwrap();
                (0..full.len())
                    .map(|i| {
                        localized_display_titles(
                            titles.str_at(i).unwrap_or(""),
                            artists.str_at(i).unwrap_or(""),
                        )
                    })
                    .filter(|s| !s.is_empty())
                    .count()
            }
            ProductionView::MediaPeople => {
                // Join reordering (the optimizer's job): assemble the small
                // per-movie metadata first, then fan out over cast, keeping
                // intermediate relations minimal; name lookups reuse the
                // prebuilt dimension index.
                let titles = store.frame_strs(intern("full_title"), "title");
                let directed = store.frame_ents(intern("directed_by"), "director");
                let movie_meta = titles
                    .hash_join("subject", &directed, "subject")
                    .hash_join_with("director", &names, &names_idx)
                    .rename("n", "director_name")
                    .project(&["subject", "title", "director_name"]);
                let cast = store.frame_ents(intern("cast.actor"), "person");
                let with_movie = cast.hash_join("subject", &movie_meta, "subject");
                let an = with_movie
                    .hash_join_with("person", &names, &names_idx)
                    .rename("n", "actor_name");
                // Actor home town: two more hops (birthplace → city name).
                let bp = store.frame_ents(intern("birthplace"), "city");
                let with_bp = an.hash_join("person", &bp, "subject");
                with_bp
                    .hash_join_with("city", &names, &names_idx)
                    .rename("n", "city_name")
                    .len()
            }
        }
    }

    /// Same view over the legacy row engine; returns the row count.
    pub fn compute_legacy(&self, engine: &LegacyEngine) -> usize {
        match self {
            ProductionView::People => {
                let names = engine.scan_predicate("name");
                let bp = LegacyEngine::join_value_to_subject(
                    &engine.scan_predicate("birthplace"),
                    &names,
                );
                let sp =
                    LegacyEngine::join_value_to_subject(&engine.scan_predicate("spouse"), &names);
                // join bp ⋈ sp on subject
                let bp_rows: Vec<(u64, saga_core::Value)> =
                    bp.into_iter().map(|(s, _, pn)| (s, pn)).collect();
                let sp_rows: Vec<(u64, saga_core::Value)> =
                    sp.into_iter().map(|(s, _, pn)| (s, pn)).collect();
                LegacyEngine::merge_join(&bp_rows, &sp_rows).len()
            }
            ProductionView::Artists => {
                let performed = engine.scan_predicate("performed_by");
                let by_artist: Vec<(u64, saga_core::Value)> = performed
                    .iter()
                    .filter_map(|(_, v)| v.as_entity().map(|e| (e.0, saga_core::Value::Null)))
                    .collect();
                let counts: Vec<(u64, saga_core::Value)> = LegacyEngine::group_count(&by_artist)
                    .into_iter()
                    .map(|(k, c)| (k, saga_core::Value::Int(c)))
                    .collect();
                let names = engine.scan_predicate("name");
                let with_names = LegacyEngine::merge_join(&counts, &names);
                let labels = LegacyEngine::join_value_to_subject(
                    &engine.scan_predicate("signed_to"),
                    &names,
                );
                let label_rows: Vec<(u64, saga_core::Value)> =
                    labels.into_iter().map(|(s, _, n)| (s, n)).collect();
                let wn: Vec<(u64, saga_core::Value)> =
                    with_names.into_iter().map(|(s, c, _)| (s, c)).collect();
                LegacyEngine::merge_join(&wn, &label_rows).len()
            }
            ProductionView::Playlists => {
                let tracks = engine.scan_predicate("track_of");
                let durations = engine.scan_predicate("duration_s");
                let with_dur = LegacyEngine::join_value_to_subject(&tracks, &durations);
                let names = engine.scan_predicate("name");
                let wd: Vec<(u64, saga_core::Value)> =
                    with_dur.into_iter().map(|(s, _, d)| (s, d)).collect();
                LegacyEngine::merge_join(&wd, &names).len()
            }
            ProductionView::PlaylistArtists => {
                let tracks = engine.scan_predicate("track_of");
                let performed = engine.scan_predicate("performed_by");
                let song_artists = LegacyEngine::join_value_to_subject(&tracks, &performed);
                let names = engine.scan_predicate("name");
                // (playlist, song, artist) ⋈ artist names
                let rekeyed: Vec<(u64, saga_core::Value)> = song_artists
                    .iter()
                    .filter_map(|(playlist, _, artist)| {
                        artist
                            .as_entity()
                            .map(|a| (a.0, saga_core::Value::Int(*playlist as i64)))
                    })
                    .collect();
                let with_artist_names = LegacyEngine::merge_join(&rekeyed, &names);
                let back: Vec<(u64, saga_core::Value)> = with_artist_names
                    .into_iter()
                    .map(|(_, playlist, an)| (playlist.as_int().unwrap() as u64, an))
                    .collect();
                LegacyEngine::merge_join(&back, &names).len()
            }
            ProductionView::Songs => {
                let performed = engine.scan_predicate("performed_by");
                let names = engine.scan_predicate("name");
                let with_artist = LegacyEngine::join_value_to_subject(&performed, &names);
                // (song, artist, artist_name) ⋈ song titles, then the same
                // per-row string manipulation as the Graph Engine side.
                let keyed: Vec<(u64, saga_core::Value)> =
                    with_artist.into_iter().map(|(s, _, an)| (s, an)).collect();
                LegacyEngine::merge_join(&keyed, &names)
                    .into_iter()
                    .map(|(_, artist_name, title)| {
                        localized_display_titles(
                            title.as_str().unwrap_or(""),
                            artist_name.as_str().unwrap_or(""),
                        )
                    })
                    .filter(|s| !s.is_empty())
                    .count()
            }
            ProductionView::MediaPeople => {
                let cast = engine.scan_predicate("cast.actor");
                let titles = engine.scan_predicate("full_title");
                let with_titles = LegacyEngine::merge_join(&cast, &titles);
                let directed = engine.scan_predicate("directed_by");
                let wt: Vec<(u64, saga_core::Value)> = with_titles
                    .into_iter()
                    .map(|(s, actor, _)| (s, actor))
                    .collect();
                // (movie, actor, director)
                let with_directors = LegacyEngine::merge_join(&wt, &directed);
                let names = engine.scan_predicate("name");
                // Actor names: key by actor, carry the director through.
                let akeyed: Vec<(u64, saga_core::Value)> = with_directors
                    .iter()
                    .filter_map(|(_, a, d)| a.as_entity().map(|ae| (ae.0, d.clone())))
                    .collect();
                let with_actor_names = LegacyEngine::merge_join(&akeyed, &names);
                // Director names: key by director, carry the actor entity so
                // the home-town hops below can continue from it.
                let actor_keyed: Vec<(u64, saga_core::Value)> = with_directors
                    .iter()
                    .filter_map(|(_, a, d)| d.as_entity().map(|de| (de.0, a.clone())))
                    .collect();
                let with_director_names = LegacyEngine::merge_join(&actor_keyed, &names);
                let _ = with_actor_names;
                // Actor home town: birthplace hop + city-name hop.
                let bp = engine.scan_predicate("birthplace");
                let by_actor: Vec<(u64, saga_core::Value)> = with_director_names
                    .iter()
                    .filter_map(|(_, a, _)| a.as_entity().map(|ae| (ae.0, saga_core::Value::Null)))
                    .collect();
                let with_bp = LegacyEngine::merge_join(&by_actor, &bp);
                let by_city: Vec<(u64, saga_core::Value)> = with_bp
                    .iter()
                    .filter_map(|(_, _, c)| c.as_entity().map(|ce| (ce.0, saga_core::Value::Null)))
                    .collect();
                LegacyEngine::merge_join(&by_city, &names).len()
            }
        }
    }
}

/// The Songs view ships display strings for every serving locale; this is
/// the per-row string-manipulation workload that dominates the view on
/// *both* engines (hence the paper's tiny Fig. 8 gain for Songs).
const SONG_LOCALES: &[&str] = &["en", "fr", "de", "ja", "es", "pt", "it", "ko"];

/// Build all per-locale display strings for one song row; returns the
/// concatenation (empty when inputs are empty).
pub fn localized_display_titles(title: &str, artist: &str) -> String {
    let mut out = String::new();
    for locale in SONG_LOCALES {
        let one = format_display_title(title, artist);
        if one.is_empty() {
            return String::new();
        }
        out.push_str(locale);
        out.push(':');
        out.push_str(&one);
        out.push('\n');
    }
    out
}

/// Per-row string manipulation shared by both engines' Songs view: build
/// the display title "Title — by ARTIST (title-case)".
pub fn format_display_title(title: &str, artist: &str) -> String {
    if title.is_empty() || artist.is_empty() {
        return String::new();
    }
    // Title-case the title.
    let mut out = String::with_capacity(title.len() * 3 + artist.len() * 2 + 24);
    for (i, w) in title.split_whitespace().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let mut chars = w.chars();
        if let Some(c) = chars.next() {
            out.extend(c.to_uppercase());
            out.push_str(chars.as_str());
        }
    }
    out.push_str(" — by ");
    out.push_str(&artist.to_uppercase());
    // URL slug (lowercase, dash-separated, alphanumeric only).
    out.push_str(" [");
    let mut dash = false;
    for c in title.chars().chain(" ".chars()).chain(artist.chars()) {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
            dash = false;
        } else if !dash {
            out.push('-');
            dash = true;
        }
    }
    out.push(']');
    // Search key: "lastword, rest" inversion of the artist name.
    if let Some(last) = artist.split_whitespace().next_back() {
        out.push_str(" {");
        out.push_str(&last.to_lowercase());
        out.push_str(", ");
        for w in artist.split_whitespace() {
            if w != last {
                out.push_str(&w.to_lowercase());
                out.push(' ');
            }
        }
        out.push('}');
    }
    out
}

/// Convenience: compute every view on both engines, returning
/// `(label, analytics rows, legacy rows)` — used by correctness tests.
pub fn compute_all(
    store: &AnalyticsStore,
    legacy: &LegacyEngine,
) -> Vec<(&'static str, usize, usize)> {
    ProductionView::ALL
        .iter()
        .map(|v| {
            (
                v.label(),
                v.compute_analytics(store),
                v.compute_legacy(legacy),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{EntityId, ExtendedTriple, FactMeta, KnowledgeGraph, RelId, SourceId, Value};

    /// A small but complete media world exercising all six views.
    pub(crate) fn media_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let meta = || FactMeta::from_source(SourceId(1), 0.9);
        let mut next = 1u64;
        let mut add = |kg: &mut KnowledgeGraph, name: &str, ty: &str| {
            let id = EntityId(next);
            next += 1;
            kg.add_named_entity(id, name, ty, SourceId(1), 0.9);
            id
        };
        // People.
        let p1 = add(&mut kg, "J. Smith", "person");
        let p2 = add(&mut kg, "A. Jones", "person");
        let city = add(&mut kg, "Springfield", "city");
        kg.commit_upsert(ExtendedTriple::simple(
            p1,
            saga_core::intern("birthplace"),
            Value::Entity(city),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            p2,
            saga_core::intern("birthplace"),
            Value::Entity(city),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            p1,
            saga_core::intern("spouse"),
            Value::Entity(p2),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            p2,
            saga_core::intern("spouse"),
            Value::Entity(p1),
            meta(),
        ));
        // Music.
        let artist = add(&mut kg, "Billie Eilish", "music_artist");
        let label = add(&mut kg, "Darkroom", "record_label");
        kg.commit_upsert(ExtendedTriple::simple(
            artist,
            saga_core::intern("signed_to"),
            Value::Entity(label),
            meta(),
        ));
        let s1 = add(&mut kg, "Bad Guy", "song");
        let s2 = add(&mut kg, "Bury a Friend", "song");
        for s in [s1, s2] {
            kg.commit_upsert(ExtendedTriple::simple(
                s,
                saga_core::intern("performed_by"),
                Value::Entity(artist),
                meta(),
            ));
            kg.commit_upsert(ExtendedTriple::simple(
                s,
                saga_core::intern("duration_s"),
                Value::Int(200),
                meta(),
            ));
        }
        let pl = add(&mut kg, "My Mix", "playlist");
        kg.commit_upsert(ExtendedTriple::simple(
            pl,
            saga_core::intern("track_of"),
            Value::Entity(s1),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::simple(
            pl,
            saga_core::intern("track_of"),
            Value::Entity(s2),
            meta(),
        ));
        // Movies.
        let m = add(&mut kg, "Knives Out", "movie");
        kg.commit_upsert(ExtendedTriple::simple(
            m,
            saga_core::intern("full_title"),
            Value::str("Knives Out"),
            meta(),
        ));
        let dir = add(&mut kg, "R. Johnson", "person");
        kg.commit_upsert(ExtendedTriple::simple(
            m,
            saga_core::intern("directed_by"),
            Value::Entity(dir),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::composite(
            m,
            saga_core::intern("cast"),
            RelId(1),
            saga_core::intern("actor"),
            Value::Entity(p1),
            meta(),
        ));
        kg.commit_upsert(ExtendedTriple::composite(
            m,
            saga_core::intern("cast"),
            RelId(2),
            saga_core::intern("actor"),
            Value::Entity(p2),
            meta(),
        ));
        kg
    }

    #[test]
    fn both_engines_agree_on_every_view() {
        let kg = media_kg();
        let store = AnalyticsStore::build(&kg);
        let legacy = LegacyEngine::build(&kg);
        for (label, a, l) in compute_all(&store, &legacy) {
            assert_eq!(a, l, "view {label}: analytics={a} legacy={l}");
        }
    }

    #[test]
    fn view_row_counts_are_as_expected() {
        let kg = media_kg();
        let store = AnalyticsStore::build(&kg);
        // People: both persons have birthplace+spouse.
        assert_eq!(ProductionView::People.compute_analytics(&store), 2);
        // Songs: two songs join to the artist name.
        assert_eq!(ProductionView::Songs.compute_analytics(&store), 2);
        // Artists: one artist with count=2 and a label.
        assert_eq!(ProductionView::Artists.compute_analytics(&store), 1);
        // Playlists: two tracks with durations.
        assert_eq!(ProductionView::Playlists.compute_analytics(&store), 2);
        // Playlist Artists: two tracks → artist.
        assert_eq!(ProductionView::PlaylistArtists.compute_analytics(&store), 2);
        // Media People: 2 cast rows × 1 director.
        assert_eq!(ProductionView::MediaPeople.compute_analytics(&store), 2);
    }

    #[test]
    fn views_are_empty_on_empty_graphs() {
        let kg = KnowledgeGraph::new();
        let store = AnalyticsStore::build(&kg);
        let legacy = LegacyEngine::build(&kg);
        for (label, a, l) in compute_all(&store, &legacy) {
            assert_eq!(a, 0, "{label}");
            assert_eq!(l, 0, "{label}");
        }
    }
}
