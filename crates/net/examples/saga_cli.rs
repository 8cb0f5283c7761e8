//! A tiny command-line client for a running `saga-server`.
//!
//! ```text
//! cargo run --release -p saga-net --example saga-cli -- <addr> <command> [args...]
//!
//! commands:
//!   ping
//!   query <kgq>           one KGQ query, e.g. 'FIND song WHERE released = 2019'
//!   resolve <name>        name → entity ids
//!   record <entity-id>    dump one entity record
//!   generation            the fleet's version: the highest LSN a replica
//!                         has applied
//!   demo-commit           commit a demo entity, then read it back through
//!                         the session token (read-your-writes over TCP)
//! ```

use saga_core::{EntityId, SourceId, Value};
use saga_live::QueryResult;
use saga_net::{SagaClient, WireBatch};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, cmd, rest) = match args.as_slice() {
        [addr, cmd, rest @ ..] => (addr.clone(), cmd.clone(), rest.to_vec()),
        _ => usage(),
    };

    let mut client = SagaClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });

    let outcome = run(&mut client, &cmd, &rest);
    if let Err(e) = outcome {
        eprintln!("{cmd} failed: {e}");
        std::process::exit(1);
    }
}

fn run(client: &mut SagaClient, cmd: &str, rest: &[String]) -> saga_core::Result<()> {
    match cmd {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "query" => {
            let text = rest.join(" ");
            print_result(client.query(&text)?);
        }
        "resolve" => {
            let ids = client.resolve_name(&rest.join(" "))?;
            println!("{ids:?}");
        }
        "record" => {
            let Some(id) = rest.first().and_then(|r| r.parse::<u64>().ok()) else {
                eprintln!("record needs a numeric entity id");
                usage();
            };
            match client.record(EntityId(id))? {
                None => println!("no record for AKG:{id}"),
                Some(record) => {
                    println!("AKG:{} ({} facts)", record.id.0, record.triples.len());
                    for t in &record.triples {
                        println!("  {} = {}", t.predicate.text(), t.object.render());
                    }
                }
            }
        }
        "generation" => println!("{}", client.generation()?),
        "demo-commit" => {
            // Commit a fresh entity, then immediately query it back under
            // the session token the commit returned — over TCP, routed
            // only to replicas that already replayed the commit.
            let id = EntityId(9_000_000 + std::process::id() as u64);
            let committed = client.commit(
                WireBatch::new()
                    .named_entity(id, "CLI Demo Entity", "demo", SourceId(42), 0.8)
                    .upsert(saga_core::ExtendedTriple::simple(
                        id,
                        saga_core::intern("written_by"),
                        Value::str("saga-cli"),
                        saga_core::FactMeta::from_source(SourceId(42), 0.8),
                    )),
            )?;
            println!(
                "committed at lsn {} (+{} facts); session token at lsn {}",
                committed.lsn.0,
                committed.facts_added,
                committed.token.lsn().0
            );
            let hits = client.query_with_session("FIND demo WHERE name = \"CLI Demo Entity\"")?;
            print_result(hits);
        }
        other => {
            eprintln!("unknown command {other}");
            usage();
        }
    }
    Ok(())
}

/// Print the usage line and exit 2, the status for a bad command line.
fn usage() -> ! {
    eprintln!(
        "usage: saga-cli <addr> <ping|query|resolve|record|generation|demo-commit> [args...]"
    );
    std::process::exit(2);
}

fn print_result(result: QueryResult) {
    match result {
        QueryResult::Entities(ids) => {
            println!("{} entities:", ids.len());
            for id in ids {
                println!("  AKG:{}", id.0);
            }
        }
        QueryResult::Values(values) => {
            println!("{} values:", values.len());
            for v in values {
                println!("  {}", v.render());
            }
        }
    }
}
