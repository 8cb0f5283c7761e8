//! Experiment E7 — §4.2/§6.1: Live KG Query Engine latency.
//!
//! "The Live KG Query Engine powering these queries serves billions of
//! queries per day while maintaining 20ms latencies in the 95th
//! percentile." Here a multi-threaded closed-loop generator drives a mixed
//! KGQ workload (point lookups, 1–2 hop paths, filtered entity search)
//! against the in-process live graph; we report the latency
//! distribution.

use std::sync::Arc;
use std::time::Instant;

use saga_bench::measure::percentile;
use saga_bench::workload::{media_world, MediaWorldConfig};
use saga_live::{QueryEngine, ReplicaKg};

fn main() {
    let kg = media_world(&MediaWorldConfig::standard(3));
    let engine = Arc::new(QueryEngine::new(ReplicaKg::from_index(kg.index().clone())));
    eprintln!("live KG: {} entities", engine.graph().len());

    // A mixed workload, mirroring QA traffic: entity cards (GET), relation
    // hops, and filtered search.
    let queries: Vec<String> = (0..200)
        .flat_map(|i| {
            let artist = i % 600;
            let person = i % 2000;
            vec![
                format!(r#"GET "Artist {artist}" . signed_to . name"#),
                format!(r#"GET "Person {person}" . birthplace . name"#),
                format!(r#"FIND song WHERE performed_by -> entity("Artist {artist}") LIMIT 10"#),
                format!(r#"GET "Person {person}" . spouse . birthplace . name"#),
            ]
        })
        .collect();

    // Warm plan cache and indexes.
    for q in queries.iter().take(50) {
        let _ = engine.query(q);
    }

    let threads = 8;
    let per_thread = 4_000;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let q = &queries[(i * 7 + t * 13) % queries.len()];
                    let s = Instant::now();
                    let r = engine.query(q).expect("query executes");
                    std::hint::black_box(r);
                    lat.push(s.elapsed().as_micros());
                }
                lat
            })
        })
        .collect();
    let mut all: Vec<u128> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let wall = t0.elapsed();
    let total = all.len();

    println!("# §4.2/§6.1 — Live KG Query Engine latency under concurrency");
    println!(
        "threads: {threads}, queries: {total}, wall: {:.2}s",
        wall.as_secs_f64()
    );
    println!("throughput: {:.0} qps", total as f64 / wall.as_secs_f64());
    for q in [50.0, 90.0, 95.0, 99.0, 99.9] {
        println!(
            "p{q:<5} {:>8.3} ms",
            percentile(&mut all, q) as f64 / 1000.0
        );
    }
    let p95_ms = percentile(&mut all, 95.0) as f64 / 1000.0;
    println!(
        "\np95 = {:.3} ms — SLA \"p95 < 20 ms\" {} (paper: <20 ms at production scale)",
        p95_ms,
        if p95_ms < 20.0 { "HELD" } else { "VIOLATED" }
    );
}
