//! Experiment E4 — Figure 12: relative growth of the KG under continuous
//! construction.
//!
//! Simulates the onboarding timeline through the *real* construction
//! pipeline: new sources contribute full Added payloads in their
//! onboarding quarter, existing sources contribute enrichment Updates
//! (the delta fast path) every quarter. Before Saga's introduction,
//! onboarding is slow and payloads are thin; after, self-serve onboarding
//! and incremental construction let sources and per-entity fact depth
//! compound. The paper shows >33× facts and 6.5× entities since the first
//! measurement, with the inflection at Saga's introduction.

use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_bench::workload::growth_schedule;
use saga_construct::{
    BlockingStrategy, KnowledgeConstructor, LinkTableResolver, LinkerConfig, RuleMatcher,
    SourceBatch,
};
use saga_core::{intern, EntityPayload, FactMeta, IdGenerator, KnowledgeGraph, SourceId, Value};
use saga_graph::{LoggedWriter, OperationLog};
use saga_ingest::SourceDelta;

/// Nearly-unique entity names keep linking blocks tiny while still letting
/// cross-source mentions of the same ground-truth entity match exactly.
fn entity_name(key: usize) -> String {
    format!("Uniq{key} Entity")
}

fn payload(source: SourceId, key: usize, facts_per_entity: usize, quarter: usize) -> EntityPayload {
    let mut p = EntityPayload::new(source, format!("{}e{key}", source.0), intern("song"));
    let meta = FactMeta::from_source(source, 0.9);
    p.push_simple(intern("type"), Value::str("song"), meta.clone());
    p.push_simple(intern("name"), Value::str(entity_name(key)), meta.clone());
    for f in 0..facts_per_entity {
        p.push_simple(
            intern("genre"),
            Value::str(format!("attr{f} q{quarter} src{} of {key}", source.0)),
            meta.clone(),
        );
    }
    p
}

fn main() {
    let schedule = growth_schedule(16, 6);
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let id_gen = IdGenerator::starting_at(1);
    let mut ctor = KnowledgeConstructor::new(Default::default());
    ctor.linker = LinkerConfig {
        blocking: BlockingStrategy::NameTokens,
        max_block_size: 32,
        ..Default::default()
    };
    let matcher = RuleMatcher::default();
    let mut rng = StdRng::seed_from_u64(99);
    let mut next_source = 1u32;
    let mut base: Option<(f64, f64)> = None;
    // Which ground-truth keys each source covers.
    let mut coverage: Vec<(SourceId, Vec<usize>)> = Vec::new();
    let mut next_new_key = 0usize;

    println!("# Figure 12 — relative growth of facts and entities");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>11} {:>11} ",
        "quarter", "sources", "facts", "entities", "facts_rel", "ents_rel"
    );
    for q in &schedule {
        let mut batches: Vec<SourceBatch> = Vec::new();
        // Existing sources publish enrichment updates (the delta fast path).
        for (source, keys) in &coverage {
            let updates: Vec<EntityPayload> = keys
                .iter()
                .filter(|_| rng.gen_bool(0.15))
                .map(|&k| payload(*source, k, q.facts_per_entity, q.quarter))
                .collect();
            if !updates.is_empty() {
                batches.push(SourceBatch {
                    source: *source,
                    name: format!("src{}", source.0),
                    delta: SourceDelta {
                        updated: updates,
                        ..Default::default()
                    },
                });
            }
        }
        // New sources onboard with full Added payloads. Post-Saga sources
        // mostly corroborate the shared entity pool; pre-Saga ones are
        // mostly disjoint verticals.
        for _ in 0..q.new_sources {
            let source = SourceId(next_source);
            next_source += 1;
            let mut keys = Vec::with_capacity(q.entities_per_source);
            for _ in 0..q.entities_per_source {
                let overlap = if q.saga_active { 0.72 } else { 0.2 };
                let key = if next_new_key > 0 && rng.gen_bool(overlap) {
                    rng.gen_range(0..next_new_key)
                } else {
                    next_new_key += 1;
                    next_new_key - 1
                };
                keys.push(key);
            }
            keys.sort_unstable();
            keys.dedup();
            let added: Vec<EntityPayload> = keys
                .iter()
                .map(|&k| payload(source, k, q.facts_per_entity, q.quarter))
                .collect();
            batches.push(SourceBatch {
                source,
                name: format!("src{}", source.0),
                delta: SourceDelta {
                    added,
                    ..Default::default()
                },
            });
            coverage.push((source, keys));
        }
        ctor.consume(&writer, &id_gen, batches, &matcher, &LinkTableResolver)
            .expect("in-memory log append");

        let stats = writer.read().stats();
        let (f0, e0) = *base.get_or_insert((stats.facts as f64, stats.entities as f64));
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10.1}x {:>10.1}x {}",
            q.quarter,
            coverage.len(),
            stats.facts,
            stats.entities,
            stats.facts as f64 / f0,
            stats.entities as f64 / e0,
            if q.quarter == 6 {
                "← saga introduced"
            } else {
                ""
            }
        );
    }
    let stats = writer.read().stats();
    let (f0, e0) = base.unwrap();
    println!(
        "\nfinal growth: {:.1}x facts (paper: >33x), {:.1}x entities (paper: 6.5x)",
        stats.facts as f64 / f0,
        stats.entities as f64 / e0
    );
}
