//! Property-based tests for KGQ: the parser must never panic on arbitrary
//! input, accepted queries must respect the language's performance bounds,
//! execution must be safe on any parsed query, and a cached plan must
//! answer exactly what a fresh compile does after any history of writes.

use std::sync::OnceLock;

use proptest::prelude::*;
use saga_core::{
    checkpoint, intern, Delta, DeltaFact, EntityId, GraphRead, KnowledgeGraph, Lsn, SourceId,
    TripleIndex, Value,
};
use saga_live::kgq::{compile, execute, parse, Query};
use saga_live::{QueryEngine, ReplicaKg};

fn demo_engine() -> QueryEngine {
    let mut kg = KnowledgeGraph::new();
    for i in 1..=20u64 {
        kg.add_named_entity(
            EntityId(i),
            &format!("Entity {i}"),
            "song",
            SourceId(1),
            0.9,
        );
    }
    QueryEngine::new(ReplicaKg::from_index(kg.index().clone()))
}

proptest! {
    /// The parser is total: any string either parses or returns an error —
    /// it never panics.
    #[test]
    fn parser_never_panics(input in ".{0,80}") {
        let _ = parse(&input);
    }

    /// Structured fuzz: near-grammatical inputs also never panic, and
    /// anything that parses respects the bounded-language limits.
    #[test]
    fn bounded_language_limits_hold(
        ty in "[a-z_]{1,10}",
        pred in "[a-z_]{1,10}",
        name in "[a-zA-Z0-9 ]{0,16}",
        limit in any::<i64>(),
        hops in proptest::collection::vec("[a-z_]{1,8}", 0..8),
    ) {
        let find = format!(r#"FIND {ty} WHERE {pred} = "{name}" LIMIT {limit}"#);
        if let Ok(Query::Find { limit, .. }) = parse(&find) {
            prop_assert!((1..=saga_live::kgq::parser::MAX_LIMIT).contains(&limit));
        }
        let get = format!(r#"GET "{name}" . {}"#, hops.join(" . "));
        match parse(&get) {
            Ok(Query::Get { path, .. }) => {
                prop_assert!(path.len() <= saga_live::kgq::parser::MAX_PATH_DEPTH);
            }
            Err(_) => {
                // Deep paths must be the reason when hops exceed the bound.
                if hops.len() > saga_live::kgq::parser::MAX_PATH_DEPTH {
                    // rejected as designed
                } // shallow paths may still fail for other lexical reasons
            }
            Ok(_) => prop_assert!(false, "GET parsed as non-GET"),
        }
    }

    /// End-to-end safety: any input that parses also executes without
    /// panicking (returning empty results or a query error is fine).
    #[test]
    fn execution_is_total_for_parsed_queries(
        ty in "[a-z_]{1,8}",
        pred in "[a-z_]{1,8}",
        value in any::<i32>(),
        target in "[a-zA-Z ]{1,12}",
    ) {
        let engine = demo_engine();
        let queries = [
            format!(r#"FIND {ty} WHERE {pred} = {value}"#),
            format!(r#"FIND song WHERE {pred} -> entity("{target}")"#),
            format!(r#"GET "{target}" . {pred}"#),
            format!(r#"GET AKG:{} . {pred} . name"#, value.unsigned_abs()),
        ];
        for q in &queries {
            if parse(q).is_ok() {
                let _ = engine.query(q);
            }
        }
    }
}

/// Entities of the cached-equals-fresh world: 1..=4 are artists, the rest
/// songs, until a history changes that.
const ENTITIES: u64 = 10;
const NAMES: [&str; 5] = ["Alpha", "Beta", "Gamma", "Delta", "Echo"];

/// Texts that every backend state is queried with: name- and id-resolved
/// edge targets, name equality, literals and `LIMIT`.
const TEXTS: [&str; 9] = [
    r#"FIND song WHERE by -> entity("Alpha")"#,
    r#"FIND song WHERE by -> entity("Beta") LIMIT 2"#,
    r#"FIND song WHERE by -> entity("Gamma") AND year = 2001"#,
    r#"FIND song WHERE by -> AKG:1"#,
    r#"FIND song WHERE by -> AKG:2 AND by -> entity("Delta") LIMIT 1"#,
    r#"FIND artist WHERE name = "Echo""#,
    r#"FIND song WHERE year = 2000 LIMIT 3"#,
    r#"FIND artist LIMIT 2"#,
    r#"GET "Alpha" . name"#,
];

fn fact(predicate: &str, object: Value) -> DeltaFact {
    DeltaFact {
        predicate: intern(predicate),
        object,
    }
}

/// The world as restored from a checkpoint: every name is unique, so a
/// rename or a delete empties a restored name posting, and every song
/// has one `by` edge, so removing it empties a restored edge posting.
fn restored_index() -> TripleIndex {
    static INDEX: OnceLock<TripleIndex> = OnceLock::new();
    INDEX
        .get_or_init(|| {
            let mut index = TripleIndex::new();
            for i in 1..=ENTITIES {
                let (name, ty) = match i {
                    1..=4 => (NAMES[i as usize - 1].to_string(), "artist"),
                    _ => (format!("Song {i}"), "song"),
                };
                let mut added = vec![
                    fact("name", Value::str(&name)),
                    fact("type", Value::str(ty)),
                ];
                if ty == "song" {
                    added.push(fact("by", Value::Entity(EntityId(1 + i % 4))));
                    added.push(fact("year", Value::Int(2000 + (i % 2) as i64)));
                }
                index.apply(&Delta {
                    entity: EntityId(i),
                    added,
                    removed: Vec::new(),
                });
            }
            let dir = std::env::temp_dir().join(format!("saga-kgq-props-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let path = checkpoint::publish(&dir, &checkpoint::encode(Lsn(1), &index)).unwrap();
            let restored = checkpoint::load(&path).unwrap().index;
            let _ = std::fs::remove_dir_all(&dir);
            restored
        })
        .clone()
}

/// `entity`'s current facts under `pred`, as they would be retracted.
fn facts_of(graph: &ReplicaKg, entity: EntityId, pred: &str) -> Vec<DeltaFact> {
    let Some(record) = graph.record(entity) else {
        return Vec::new();
    };
    let pred = intern(pred);
    record
        .triples
        .iter()
        .filter(|t| t.predicate == pred)
        .map(|t| DeltaFact {
            predicate: t.predicate,
            object: t.object.clone(),
        })
        .collect()
}

/// The deltas of one history step on entities `a` and `b`.
fn step(graph: &ReplicaKg, kind: u8, a: EntityId, b: EntityId, pick: usize) -> Vec<Delta> {
    let delta = |entity, added, removed| Delta {
        entity,
        added,
        removed,
    };
    let name = Value::str(NAMES[pick % NAMES.len()]);
    match kind {
        // Rename `a`.
        0 => vec![delta(
            a,
            vec![fact("name", name)],
            facts_of(graph, a, "name"),
        )],
        // Two targets swap names, one delta each.
        1 => {
            let (na, nb) = (facts_of(graph, a, "name"), facts_of(graph, b, "name"));
            vec![delta(a, nb.clone(), na.clone()), delta(b, na, nb)]
        }
        // Edge add, edge remove.
        2 => vec![delta(a, vec![fact("by", Value::Entity(b))], Vec::new())],
        3 => vec![delta(a, Vec::new(), facts_of(graph, a, "by"))],
        // Type change.
        4 => {
            let ty = ["song", "artist"][pick % 2];
            vec![delta(
                a,
                vec![fact("type", Value::str(ty))],
                facts_of(graph, a, "type"),
            )]
        }
        // Entity delete: every fact goes.
        5 => {
            let all = ["name", "type", "by", "year"]
                .iter()
                .flat_map(|p| facts_of(graph, a, p))
                .collect();
            vec![delta(a, Vec::new(), all)]
        }
        // Literal change.
        _ => {
            let year = Value::Int(2000 + (pick % 2) as i64);
            vec![delta(
                a,
                vec![fact("year", year)],
                facts_of(graph, a, "year"),
            )]
        }
    }
}

/// Every text, through the engine's plan cache and through a fresh
/// compile of the same text.
fn assert_cached_equals_fresh(engine: &QueryEngine, context: &str) {
    for text in TEXTS {
        let cached = engine.query(text).unwrap();
        let fresh = execute(
            engine.graph(),
            &compile(engine, &parse(text).unwrap()).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(cached, fresh, "{} after {}", text, context);
    }
}

proptest! {
    /// A cached plan answers exactly what a fresh compile does, after
    /// every delta of a history of renames (including two targets
    /// swapping names), edge adds and removes, type changes, entity
    /// deletes and literal changes, on a replica restored from a
    /// checkpoint.
    #[test]
    fn cached_plans_answer_like_fresh_compiles(
        history in proptest::collection::vec(
            (0u8..7, 1u64..=ENTITIES, 1u64..=ENTITIES, 0usize..10),
            1..16,
        ),
    ) {
        let graph = ReplicaKg::from_index(restored_index());
        let engine = QueryEngine::new(graph.clone());
        assert_cached_equals_fresh(&engine, "restore");
        for (at, &(kind, a, b, pick)) in history.iter().enumerate() {
            for delta in step(&graph, kind, EntityId(a), EntityId(b), pick) {
                graph.apply(std::slice::from_ref(&delta));
                assert_cached_equals_fresh(&engine, &format!("step {at}: {delta:?}"));
            }
        }
        let (hits, _) = engine.plan_cache_stats();
        prop_assert!(hits > 0, "the cache served some of the answers");
    }
}
