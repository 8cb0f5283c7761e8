//! Property-based tests for KGQ: the parser must never panic on arbitrary
//! input, accepted queries must respect the language's performance bounds,
//! and execution must be safe on any parsed query.

use proptest::prelude::*;
use saga_core::{EntityId, KnowledgeGraph, SourceId};
use saga_live::kgq::{parse, Query};
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
    QueryEngine::new(ReplicaKg::from_index(4, kg.index().clone()))
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
