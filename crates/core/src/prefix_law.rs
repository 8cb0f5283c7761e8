//! The prefix law of the limit-aware conjunction, as one seeded check that
//! runs against any [`GraphRead`] backend:
//!
//! ```text
//! probe_all_limit(p, k) == probe_all(p)[..min(k, |probe_all(p)|)]
//! ```
//!
//! Beside the law, the same pass checks that every read the trait derives
//! agrees with its source on each probe it draws (see
//! `check_derived_reads`).
//!
//! This file is test support shared by source inclusion: `saga-core`'s
//! `index_properties` suite includes it for the backends it can see
//! (`KnowledgeGraph` and the `&T` / `Arc<T>` forwards), `saga-live`'s
//! replica tests include it by `#[path]` for a bootstrapped `ReplicaKg`,
//! and `saga-fleet`'s `prefix_law` integration suite includes it by
//! `#[path]` for the rest (`ReplicaKg`, `LiveReplica`, the graph behind
//! `LoggedWriter::read`, `FleetRouter`) —
//! `saga-live` cannot depend on `saga-fleet`, and a checker exported from
//! the library would ship test code. Every name comes from the including
//! module (`use super::…`), so the same text compiles in both crates.

use super::{
    intern, intersect_postings, EntityId, ExtendedTriple, FactMeta, GraphRead, ProbeKey, SourceId,
    Value, BLOCK_SPAN,
};

/// The seeds tier-1 runs.
pub const SEEDS: [u64; 3] = [11, 42, 20220612];

/// KGQ's served-query cap (`saga_live::kgq::parser::MAX_LIMIT`).
const MAX_LIMIT: usize = 1000;
/// Conjunctions checked per backend per seed.
pub const CONJUNCTIONS: usize = 48;

/// SplitMix64 — the suite's only randomness, so it needs no `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// The corpus's entity ids: a contiguous run (room for a dense block), a
/// run straddling the first block boundary, and a run two blocks up — so
/// long postings are multi-block with dense and sparse containers.
pub fn corpus_ids() -> impl Iterator<Item = u64> {
    (1..=1500).chain(3900..4400).chain(9000..9300)
}

/// One entity's facts. Posting shapes over [`corpus_ids`]:
/// `type thing`, the `node` name token and each `parent` edge are long
/// (dense block 0, sparse blocks after); a `bucket` literal's block 0 sits
/// at the sparse/dense edge; `flag` sits at the tiny/blocked edge; `rare`,
/// the `n{j}` tokens and `type other` are tiny. Membership is seeded.
pub fn entity_facts(rng: &mut Rng, id: u64) -> Vec<ExtendedTriple> {
    let meta = || FactMeta::from_source(SourceId(1), 0.9);
    let fact = |pred: &str, value: Value| {
        ExtendedTriple::simple(EntityId(id), intern(pred), value, meta())
    };
    let ty = if rng.chance(900) { "thing" } else { "other" };
    let mut facts = vec![
        fact("name", Value::str(format!("node n{}", id % 40))),
        fact("type", Value::str(ty)),
        fact("bucket", Value::Int(rng.below(3) as i64)),
        fact("parent", Value::Entity(EntityId(1 + id % 2))),
    ];
    if rng.chance(120) {
        facts.push(fact("flag", Value::Bool(true)));
    }
    if rng.chance(15) {
        facts.push(fact("rare", Value::Int(1)));
    }
    facts
}

/// The whole seeded corpus, in id order.
pub fn corpus(seed: u64) -> Vec<ExtendedTriple> {
    let mut rng = Rng::new(seed);
    corpus_ids()
        .flat_map(|id| entity_facts(&mut rng, id))
        .collect()
}

/// One random probe over the corpus vocabulary (including one that
/// matches nothing).
pub fn random_probe(rng: &mut Rng) -> ProbeKey {
    match rng.below(10) {
        0 | 1 => ProbeKey::Type(intern("thing")),
        2 => ProbeKey::Type(intern("other")),
        3 => ProbeKey::Name("node".into()),
        4 => ProbeKey::Name(format!("n{}", rng.below(40))),
        5 | 6 => ProbeKey::Literal(intern("bucket"), Value::Int(rng.below(3) as i64)),
        7 => ProbeKey::Literal(intern("flag"), Value::Bool(true)),
        8 => match rng.below(4) {
            0 => ProbeKey::Literal(intern("rare"), Value::Int(1)),
            1 => ProbeKey::Name("absent".into()),
            _ => ProbeKey::Name(format!("node n{}", rng.below(40))),
        },
        _ => ProbeKey::Edge(intern("parent"), EntityId(1 + rng.below(2))),
    }
}

/// Check the prefix law on `graph` for [`CONJUNCTIONS`] seeded 1–3-probe
/// conjunctions, each at the budgets `0, 1, 2`, the first block boundary
/// `± 1`, `|answer|`, `|answer| + 1`, `MAX_LIMIT` and `usize::MAX` — and
/// the unlimited answer against the materializing reference
/// ([`intersect_postings`]), so the law is not checked against itself —
/// and `check_derived_reads` on every probe drawn.
pub fn check_prefix_law<G: GraphRead>(graph: &G, seed: u64, backend: &str) {
    let mut rng = Rng::new(seed ^ 0x5AFE);
    let mut answered = 0usize;
    let mut multi_block = 0usize;
    for _ in 0..CONJUNCTIONS {
        let probes: Vec<ProbeKey> = (0..1 + rng.below(3))
            .map(|_| random_probe(&mut rng))
            .collect();
        for probe in &probes {
            check_derived_reads(graph, probe, backend);
        }
        let refs: Vec<&ProbeKey> = probes.iter().collect();
        let full = graph.probe_all(&probes);
        assert_eq!(
            full,
            intersect_postings(graph, &probes),
            "{backend} seed {seed}: unlimited answer for {probes:?}"
        );
        let first_block = full.partition_point(|id| id.0 < BLOCK_SPAN);
        answered += usize::from(!full.is_empty());
        multi_block += usize::from(first_block > 0 && first_block < full.len());
        for k in [
            0,
            1,
            2,
            first_block.saturating_sub(1),
            first_block,
            first_block + 1,
            full.len(),
            full.len() + 1,
            MAX_LIMIT,
            usize::MAX,
        ] {
            assert_eq!(
                graph.probe_all_limit(&refs, k),
                full[..k.min(full.len())],
                "{backend} seed {seed}: limit {k} of {} hits for {probes:?}",
                full.len()
            );
        }
    }
    assert!(
        answered >= CONJUNCTIONS / 2 && multi_block >= CONJUNCTIONS / 4,
        "{backend} seed {seed}: corpus too thin ({answered} non-empty, {multi_block} multi-block)"
    );
}

/// The provided reads of [`GraphRead`] against the four it derives them
/// from, on one probe: the materialized list, the owned cursor and the
/// lent list agree and `selectivity` is their length; `probe_contains`
/// holds for the middle member (past block 0 on a long list) and not for
/// the id past the last;
/// `resolve_name` of an upper-cased name is the lowercased name probe;
/// and `contains` is `record(..).is_some()` for a present and an absent
/// id.
fn check_derived_reads<G: GraphRead>(graph: &G, probe: &ProbeKey, backend: &str) {
    let list = graph.postings(probe);
    assert_eq!(
        graph.postings_cursor(probe).to_vec(),
        list,
        "{backend}: cursor of {probe:?}"
    );
    assert_eq!(
        graph.with_postings(probe, |lent| lent.to_vec()),
        list,
        "{backend}: lent list of {probe:?}"
    );
    assert_eq!(
        graph.selectivity(probe),
        list.len(),
        "{backend}: selectivity of {probe:?}"
    );
    let past_last = EntityId(list.last().map_or(0, |id| id.0 + 1));
    assert!(
        !graph.probe_contains(probe, past_last),
        "{backend}: {past_last:?} is not in {probe:?}"
    );
    let absent = EntityId(0);
    let mut ids = vec![past_last, absent];
    if !list.is_empty() {
        let member = list[list.len() / 2];
        assert!(
            graph.probe_contains(probe, member),
            "{backend}: {member:?} is in {probe:?}"
        );
        assert!(graph.contains(member), "{backend}: {member:?} is present");
        ids.push(member);
    }
    assert!(!graph.contains(absent), "{backend}: {absent:?} is absent");
    for id in ids {
        assert_eq!(
            graph.contains(id),
            graph.record(id).is_some(),
            "{backend}: contains and record disagree on {id:?}"
        );
    }
    if let ProbeKey::Name(name) = probe {
        let shouted = name.to_uppercase();
        assert_eq!(
            graph.resolve_name(&shouted),
            graph.postings(&ProbeKey::Name(shouted.to_lowercase())),
            "{backend}: resolve_name({shouted:?})"
        );
    }
}
