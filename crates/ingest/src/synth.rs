//! Seeded synthetic source generators.
//!
//! The paper's deployment ingests licensed music/movies/sports feeds we do
//! not have; these generators produce the same *statistical phenomena* the
//! construction pipeline has to cope with:
//!
//! * multiple providers covering overlapping slices of one ground truth,
//!   each in its own id namespace;
//! * in-source duplicates, typos, nickname aliases, missing fields;
//! * volatile popularity columns churning every version;
//! * version-to-version evolution (adds / updates / deletes) driving the
//!   delta pipeline and the Fig. 12 growth experiment.
//!
//! Everything is deterministic under a caller-supplied seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saga_core::Dataset;
use saga_core::Value;

use crate::align::{AlignmentConfig, Pgf};

/// First names with common nicknames — the synonym phenomenon §5.1's
/// learned string similarities are built to capture.
pub const NICKNAMES: &[(&str, &str)] = &[
    ("Robert", "Bob"),
    ("William", "Bill"),
    ("Elizabeth", "Liz"),
    ("Katherine", "Kate"),
    ("Michael", "Mike"),
    ("Jennifer", "Jen"),
    ("Richard", "Rick"),
    ("Margaret", "Peggy"),
    ("Christopher", "Chris"),
    ("Alexandra", "Sasha"),
    ("Anthony", "Tony"),
    ("Patricia", "Trish"),
    ("Theodore", "Ted"),
    ("Josephine", "Jo"),
    ("Benjamin", "Ben"),
    ("Victoria", "Vicky"),
];

const LAST_NAMES: &[&str] = &[
    "Smith",
    "Okafor",
    "Tanaka",
    "Rossi",
    "Novak",
    "Eilish",
    "Carter",
    "Nguyen",
    "Haddad",
    "Kowalski",
    "Ibrahim",
    "Silva",
    "Moreau",
    "Schmidt",
    "Larsen",
    "Petrov",
    "Yamada",
    "Garcia",
    "Chen",
    "Osei",
    "Lindqvist",
    "Marino",
    "Dubois",
    "Farah",
    "Novotna",
    "Kim",
    "Adeyemi",
    "Castillo",
    "Bergström",
    "Halloran",
];

const GENRES: &[&str] = &[
    "pop",
    "rock",
    "hip hop",
    "jazz",
    "electronic",
    "folk",
    "r&b",
    "metal",
];

const TITLE_WORDS: &[&str] = &[
    "Midnight", "Golden", "Echoes", "River", "Neon", "Silent", "Summer", "Broken", "Electric",
    "Wild", "Paper", "Crimson", "Hollow", "Dancing", "Fading", "Glass", "Thunder", "Velvet",
    "Lonely", "Rising", "Ocean", "Static", "Burning", "Frozen", "Distant",
];

/// Ground-truth artist.
#[derive(Clone, Debug)]
pub struct GroundArtist {
    /// Stable ground-truth key (shared across providers).
    pub key: usize,
    /// Canonical full name.
    pub name: String,
    /// Known aliases (nickname variants).
    pub aliases: Vec<String>,
    /// Primary genre.
    pub genre: String,
}

/// Ground-truth song.
#[derive(Clone, Debug)]
pub struct GroundSong {
    /// Stable ground-truth key.
    pub key: usize,
    /// Ground-truth key of the performing artist.
    pub artist_key: usize,
    /// Canonical title.
    pub title: String,
    /// Duration in seconds.
    pub duration: i64,
}

/// A versioned ground-truth music world.
#[derive(Clone, Debug)]
pub struct MusicWorld {
    /// Current artists.
    pub artists: Vec<GroundArtist>,
    /// Current songs.
    pub songs: Vec<GroundSong>,
    /// Version counter (bumped by [`evolve`](Self::evolve)).
    pub version: u64,
    rng: StdRng,
    next_artist_key: usize,
    next_song_key: usize,
}

fn make_name(rng: &mut StdRng) -> (String, Vec<String>) {
    let (first, nick) = NICKNAMES[rng.gen_range(0..NICKNAMES.len())];
    let last = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())];
    let name = format!("{first} {last}");
    let alias = format!("{nick} {last}");
    (name, vec![alias])
}

fn make_title(rng: &mut StdRng) -> String {
    let a = TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())];
    let b = TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())];
    if rng.gen_bool(0.3) {
        a.to_string()
    } else {
        format!("{a} {b}")
    }
}

/// Apply a realistic typo: swap, drop or double one character.
pub fn typo(rng: &mut StdRng, s: &str) -> String {
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

impl MusicWorld {
    /// Generate a fresh world with `n_artists` artists and roughly
    /// `songs_per_artist` songs each.
    pub fn generate(seed: u64, n_artists: usize, songs_per_artist: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut artists = Vec::with_capacity(n_artists);
        let mut songs = Vec::new();
        let mut song_key = 0usize;
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for key in 0..n_artists {
            // Ground-truth artists are distinct people: redraw colliding
            // names, falling back to generational suffixes.
            let (mut name, mut aliases) = make_name(&mut rng);
            let mut attempt = 0;
            while !used.insert(name.clone()) {
                attempt += 1;
                let (base, base_aliases) = make_name(&mut rng);
                if attempt > 4 {
                    name = format!("{base} {attempt}");
                    aliases = base_aliases
                        .iter()
                        .map(|a| format!("{a} {attempt}"))
                        .collect();
                } else {
                    name = base;
                    aliases = base_aliases;
                }
            }
            let genre = GENRES[rng.gen_range(0..GENRES.len())].to_string();
            artists.push(GroundArtist {
                key,
                name,
                aliases,
                genre,
            });
            let n_songs = rng.gen_range(songs_per_artist.max(1) / 2..=songs_per_artist.max(1));
            for _ in 0..n_songs {
                songs.push(GroundSong {
                    key: song_key,
                    artist_key: key,
                    title: make_title(&mut rng),
                    duration: rng.gen_range(90..420),
                });
                song_key += 1;
            }
        }
        MusicWorld {
            artists,
            songs,
            version: 0,
            rng,
            next_artist_key: n_artists,
            next_song_key: song_key,
        }
    }

    /// Evolve the world one version: add `adds` artists (with songs), retitle
    /// a `update_rate` fraction of songs, delete a `delete_rate` fraction.
    pub fn evolve(&mut self, adds: usize, update_rate: f64, delete_rate: f64) {
        self.version += 1;
        // Deletes.
        let n_del = ((self.songs.len() as f64) * delete_rate) as usize;
        for _ in 0..n_del {
            if self.songs.is_empty() {
                break;
            }
            let idx = self.rng.gen_range(0..self.songs.len());
            self.songs.swap_remove(idx);
        }
        // Updates.
        let n_upd = ((self.songs.len() as f64) * update_rate) as usize;
        for _ in 0..n_upd {
            if self.songs.is_empty() {
                break;
            }
            let idx = self.rng.gen_range(0..self.songs.len());
            let t = make_title(&mut self.rng);
            self.songs[idx].title = t;
        }
        // Adds.
        for _ in 0..adds {
            let key = self.next_artist_key;
            self.next_artist_key += 1;
            let (name, aliases) = make_name(&mut self.rng);
            let genre = GENRES[self.rng.gen_range(0..GENRES.len())].to_string();
            self.artists.push(GroundArtist {
                key,
                name,
                aliases,
                genre,
            });
            let n_songs = self.rng.gen_range(1..=4);
            for _ in 0..n_songs {
                self.songs.push(GroundSong {
                    key: self.next_song_key,
                    artist_key: key,
                    title: make_title(&mut self.rng),
                    duration: self.rng.gen_range(90..420),
                });
                self.next_song_key += 1;
            }
        }
    }
}

/// How a provider distorts the ground truth it publishes.
#[derive(Clone, Debug)]
pub struct ProviderSpec {
    /// Seed for the provider's own noise.
    pub seed: u64,
    /// Id prefix (providers have their own namespaces).
    pub id_prefix: String,
    /// Fraction of ground-truth entities this provider covers.
    pub coverage: f64,
    /// Probability a published name carries a typo.
    pub typo_rate: f64,
    /// Probability the provider publishes the nickname alias instead of the
    /// canonical name.
    pub alias_rate: f64,
    /// Probability an entity is published twice under different local ids
    /// (in-source duplicates, §2.3).
    pub duplicate_rate: f64,
}

impl ProviderSpec {
    /// A clean, full-coverage provider.
    pub fn clean(seed: u64, id_prefix: &str) -> Self {
        ProviderSpec {
            seed,
            id_prefix: id_prefix.into(),
            coverage: 1.0,
            typo_rate: 0.0,
            alias_rate: 0.0,
            duplicate_rate: 0.0,
        }
    }

    /// A noisy, partial provider.
    pub fn noisy(seed: u64, id_prefix: &str) -> Self {
        ProviderSpec {
            seed,
            id_prefix: id_prefix.into(),
            coverage: 0.7,
            typo_rate: 0.15,
            alias_rate: 0.25,
            duplicate_rate: 0.05,
        }
    }
}

/// Datasets a music provider publishes: `(artists, songs, popularity)`.
///
/// * artists: `artist_id, artist_name, genre`
/// * songs: `song_id, title, artist, secs` (artist is a source-namespace ref)
/// * popularity: `artist_id, plays` (volatile enrichment artifact)
pub fn provider_datasets(world: &MusicWorld, spec: &ProviderSpec) -> (Dataset, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ world.version.wrapping_mul(0x9E37_79B9));
    let mut artists = Dataset::with_schema(&["artist_id", "artist_name", "genre"]);
    let mut songs = Dataset::with_schema(&["song_id", "title", "artist", "secs"]);
    let mut pops = Dataset::with_schema(&["artist_id", "plays"]);

    let mut covered: Vec<&GroundArtist> = world
        .artists
        .iter()
        .filter(|_| rng.gen_bool(spec.coverage.clamp(0.0, 1.0)))
        .collect();
    covered.shuffle(&mut rng);

    let emit_name = |rng: &mut StdRng, a: &GroundArtist| -> String {
        let base = if rng.gen_bool(spec.alias_rate) && !a.aliases.is_empty() {
            a.aliases[0].clone()
        } else {
            a.name.clone()
        };
        if rng.gen_bool(spec.typo_rate) {
            typo(rng, &base)
        } else {
            base
        }
    };

    for a in &covered {
        let local = format!("{}a{}", spec.id_prefix, a.key);
        artists.push(vec![
            Value::str(&local),
            Value::str(emit_name(&mut rng, a)),
            Value::str(&a.genre),
        ]);
        pops.push(vec![
            Value::str(&local),
            Value::Int(rng.gen_range(0..1_000_000)),
        ]);
        if rng.gen_bool(spec.duplicate_rate) {
            let dup_local = format!("{}a{}dup", spec.id_prefix, a.key);
            artists.push(vec![
                Value::str(&dup_local),
                Value::str(emit_name(&mut rng, a)),
                Value::str(&a.genre),
            ]);
            pops.push(vec![
                Value::str(&dup_local),
                Value::Int(rng.gen_range(0..1_000_000)),
            ]);
        }
    }
    let covered_keys: std::collections::HashSet<usize> = covered.iter().map(|a| a.key).collect();
    for s in &world.songs {
        if !covered_keys.contains(&s.artist_key) {
            continue;
        }
        let local = format!("{}s{}", spec.id_prefix, s.key);
        let title = if rng.gen_bool(spec.typo_rate) {
            typo(&mut rng, &s.title)
        } else {
            s.title.clone()
        };
        songs.push(vec![
            Value::str(&local),
            Value::str(title),
            Value::str(format!("{}a{}", spec.id_prefix, s.artist_key)),
            Value::Int(s.duration),
        ]);
    }
    (artists, songs, pops)
}

/// Alignment config for a provider's artists artifact.
pub fn artist_alignment(trust: f32) -> AlignmentConfig {
    AlignmentConfig {
        entity_type: "music_artist".into(),
        id_column: "artist_id".into(),
        locale: Some("en".into()),
        trust,
        pgfs: vec![
            Pgf::Map {
                column: "artist_name".into(),
                predicate: "name".into(),
            },
            Pgf::Map {
                column: "genre".into(),
                predicate: "occupation".into(),
            },
            Pgf::Map {
                column: "plays".into(),
                predicate: "popularity".into(),
            },
        ],
    }
}

/// Alignment config for a provider's songs artifact.
pub fn song_alignment(trust: f32) -> AlignmentConfig {
    AlignmentConfig {
        entity_type: "song".into(),
        id_column: "song_id".into(),
        locale: Some("en".into()),
        trust,
        pgfs: vec![
            Pgf::Map {
                column: "title".into(),
                predicate: "name".into(),
            },
            Pgf::MapRef {
                column: "artist".into(),
                predicate: "performed_by".into(),
            },
            Pgf::Map {
                column: "secs".into(),
                predicate: "duration_s".into(),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_under_seed() {
        let w1 = MusicWorld::generate(42, 20, 4);
        let w2 = MusicWorld::generate(42, 20, 4);
        assert_eq!(w1.artists.len(), w2.artists.len());
        assert_eq!(w1.songs.len(), w2.songs.len());
        assert_eq!(w1.artists[5].name, w2.artists[5].name);
        let w3 = MusicWorld::generate(43, 20, 4);
        assert!(
            w1.artists
                .iter()
                .zip(&w3.artists)
                .any(|(a, b)| a.name != b.name),
            "different seeds give different worlds"
        );
    }

    #[test]
    fn every_artist_has_a_nickname_alias() {
        let w = MusicWorld::generate(1, 10, 2);
        for a in &w.artists {
            assert_eq!(a.aliases.len(), 1);
            assert_ne!(a.aliases[0], a.name);
            // Alias shares the surname.
            let last = a.name.split(' ').next_back().unwrap();
            assert!(a.aliases[0].ends_with(last));
        }
    }

    #[test]
    fn evolve_changes_version_and_content() {
        let mut w = MusicWorld::generate(7, 30, 3);
        let before_songs = w.songs.len();
        let before_artists = w.artists.len();
        w.evolve(5, 0.1, 0.1);
        assert_eq!(w.version, 1);
        assert_eq!(w.artists.len(), before_artists + 5);
        assert!(w.songs.len() != before_songs || w.songs.len() == before_songs); // size changed by adds/deletes
                                                                                 // Keys keep increasing — no reuse.
        let max_key = w.artists.iter().map(|a| a.key).max().unwrap();
        assert_eq!(max_key, before_artists + 5 - 1);
    }

    #[test]
    fn clean_provider_publishes_exact_names() {
        let w = MusicWorld::generate(5, 15, 2);
        let (artists, songs, pops) = provider_datasets(&w, &ProviderSpec::clean(9, "p1_"));
        assert_eq!(artists.len(), 15, "full coverage, no duplicates");
        assert_eq!(pops.len(), 15);
        assert!(!songs.is_empty());
        let names: Vec<&str> = artists
            .iter()
            .map(|r| r.get("artist_name").unwrap().as_str().unwrap())
            .collect();
        for a in &w.artists {
            assert!(names.contains(&a.name.as_str()));
        }
    }

    #[test]
    fn noisy_provider_distorts_and_duplicates() {
        let w = MusicWorld::generate(5, 200, 2);
        let (artists, _, _) = provider_datasets(&w, &ProviderSpec::noisy(11, "p2_"));
        // Coverage strictly below 1 plus some duplicates: row count differs from 200.
        assert!(artists.len() < 220);
        assert!(artists.len() > 100);
        let dup_rows = artists.iter().filter(|r| {
            r.get("artist_id")
                .unwrap()
                .as_str()
                .unwrap()
                .ends_with("dup")
        });
        assert!(
            dup_rows.count() > 0,
            "in-source duplicates exist at this size"
        );
    }

    #[test]
    fn typo_changes_but_preserves_length_roughly() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = "Billie Eilish";
        let mut changed = 0;
        for _ in 0..20 {
            let t = typo(&mut rng, s);
            if t != s {
                changed += 1;
            }
            assert!((t.len() as i64 - s.len() as i64).abs() <= 1);
        }
        assert!(changed > 10);
    }

    #[test]
    fn provider_output_is_deterministic() {
        let w = MusicWorld::generate(5, 50, 2);
        let spec = ProviderSpec::noisy(11, "p_");
        let (a1, s1, _) = provider_datasets(&w, &spec);
        let (a2, s2, _) = provider_datasets(&w, &spec);
        assert_eq!(a1.len(), a2.len());
        assert_eq!(s1.len(), s2.len());
        for i in 0..a1.len() {
            assert_eq!(a1.row(i).get("artist_name"), a2.row(i).get("artist_name"));
        }
    }
}
