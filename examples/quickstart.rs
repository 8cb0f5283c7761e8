//! Quickstart: the extended-triples data model and a minimal
//! ingest → construct → query round trip.
//!
//! Reproduces the paper's Table 1 / Figure 2 example (J. Smith's education)
//! and then runs one real construction cycle over a toy source.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use parking_lot::RwLock;
use saga_construct::{KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, IdGenerator, KnowledgeGraph, RelId, SourceId,
    SourceTrust, Value,
};
use saga_graph::{LoggedWriter, OpKind, OperationLog};
use saga_ingest::{AlignmentConfig, CsvImporter, DataSourceImporter, Pgf, SourceIngestionPipeline};
use saga_ingest::{DataTransformer, TransformSpec};
use saga_ontology::default_ontology;

fn main() {
    // ------------------------------------------------------------------
    // 1. The extended-triples representation (§2.1, Table 1).
    // ------------------------------------------------------------------
    println!("— Table 1: extended triples for the J. Smith example —");
    let e1 = EntityId(1);
    let meta2 = FactMeta::localized(SourceId(2), 0.8, "en");
    let rows = vec![
        ExtendedTriple::simple(
            e1,
            intern("name"),
            Value::str("J. Smith"),
            FactMeta {
                provenance: vec![
                    SourceTrust {
                        source: SourceId(1),
                        trust: 0.9,
                    },
                    SourceTrust {
                        source: SourceId(2),
                        trust: 0.8,
                    },
                ]
                .into(),
                locale: Some(intern("en")),
            },
        ),
        ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta2.clone(),
        ),
        ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("degree"),
            Value::str("PhD"),
            meta2.clone(),
        ),
        ExtendedTriple::composite(
            e1,
            intern("educated_at"),
            RelId(1),
            intern("year"),
            Value::Int(2005),
            meta2,
        ),
    ];
    for t in &rows {
        println!("  {}", t.render_row());
        println!("    confidence: {:.3}", t.meta.confidence());
    }

    // ------------------------------------------------------------------
    // 2. Self-serve source onboarding (§2.2): CSV → transform → align.
    // ------------------------------------------------------------------
    println!("\n— Onboarding a CSV source through the ingestion pipeline —");
    let ontology = default_ontology();
    let csv = "\
id,title,artist_name,secs,plays
s1,Bad Guy,Billie Eilish,194,99000
s2,Bury a Friend,Billie Eilish,193,54000
s3,Halo,Beyonce,261,88000
";
    let artifacts = vec![CsvImporter::new("toy-music", csv)
        .import()
        .expect("csv imports")];
    let alignment = AlignmentConfig {
        entity_type: "song".into(),
        id_column: "id".into(),
        locale: Some("en".into()),
        trust: 0.9,
        pgfs: vec![
            Pgf::Map {
                column: "title".into(),
                predicate: "name".into(),
            },
            Pgf::Map {
                column: "secs".into(),
                predicate: "duration_s".into(),
            },
            Pgf::Map {
                column: "plays".into(),
                predicate: "popularity".into(),
            },
            Pgf::MapRef {
                column: "artist_name".into(),
                predicate: "performed_by".into(),
            },
        ],
    };
    println!(
        "  alignment config (config-driven PGFs):\n{}",
        indent(&alignment.to_json(), 4)
    );
    let mut pipeline = SourceIngestionPipeline::new(
        SourceId(7),
        "toy-music",
        DataTransformer::new(TransformSpec::simple("id")),
        alignment,
    );
    let (delta, report) = pipeline
        .ingest(&ontology, &artifacts)
        .expect("ingestion succeeds");
    println!(
        "  ingestion: {} rows → {} aligned, {} added / {} volatile facts",
        report.transformed_rows, report.aligned_entities, report.added, report.volatile_facts
    );

    // ------------------------------------------------------------------
    // 3. Knowledge construction (§2.3): link + fuse into the KG.
    // ------------------------------------------------------------------
    // Every commit goes through the write-ahead log first.
    let writer = LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(OperationLog::in_memory()),
    );
    let id_gen = IdGenerator::starting_at(100);
    let constructor = KnowledgeConstructor::new(ontology.volatile_predicates());
    let report = constructor
        .consume(
            &writer,
            &id_gen,
            vec![SourceBatch {
                source: SourceId(7),
                name: "toy-music".into(),
                delta,
            }],
            &RuleMatcher::default(),
            &LinkTableResolver,
        )
        .expect("construction commits");
    {
        let kg = writer.read();
        println!(
            "\n— Construction: {} new entities, {} facts added, KG now {} entities / {} facts —",
            report.new_entities,
            report.fusion.facts_added,
            kg.entity_count(),
            kg.fact_count()
        );
        for record in kg.entities() {
            println!(
                "  {} = {:?} ({} facts, {} sources)",
                record.id,
                record.name().unwrap_or("?"),
                record.fact_count(),
                record.identity_count()
            );
        }
    }

    // ------------------------------------------------------------------
    // 4. On-demand deletion (§2.1 provenance): retract the source.
    // ------------------------------------------------------------------
    // One staged transaction, one atomic commit; the retraction's counts
    // come back as the staging closure's value.
    let ((facts, entities), _) = writer
        .with_txn(OpKind::RetractSource(SourceId(7)), |txn| {
            txn.retract_source(SourceId(7))
        })
        .expect("retraction commits");
    println!("\n— License revoked: retracting src7 dropped {facts} facts, {entities} entities —");
    assert_eq!(writer.read().entity_count(), 0);
    println!("  KG is empty again: every fact carried its provenance.");
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
