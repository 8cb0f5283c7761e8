//! Seeded inputs: the corpus, the request script of each workload and
//! the expected answers, all built from `--seed` **before** the stack
//! sees anything. The stack receives only what this module generated;
//! every draw goes through the `rand` shim's `StdRng`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saga_bench::ambiguous_world;
use saga_core::{
    intern, well_known, EntityId, EntityRecord, ExtendedTriple, FactMeta, GraphRead,
    KnowledgeGraph, ProbeKey, SourceId, Value,
};
use saga_net::WireBatch;

/// Facts per preload / ingest commit.
pub const BATCH_FACTS: usize = 25;
/// Distinct texts the point-read Zipf draws over.
pub const POINT_TEXTS: usize = 10_000;
/// Request kinds per point-read entity (FIND, resolve, record).
const POINT_KINDS: usize = 3;
/// Zipf exponent of the point-read popularity curve.
pub const ZIPF_S: f64 = 0.99;
/// Answers longer than this are kept out of the point-read pool.
pub const POINT_MAX_IDS: usize = 10;
/// Postings compared between oracle, replayed and bootstrapped replicas.
pub const RESTART_SAMPLES: usize = 100;
/// Share of write steps in a mixed script.
pub const WRITE_SHARE: f64 = 0.1;
/// Steps of the traced run's layer mix (about a tenth of them writes).
pub const LAYER_MIX_STEPS: usize = 3_000;
/// The traced run drives this share of each client's measured script
/// twice over disjoint steps: spans off, then spans on.
pub const TRACED_SHARE: usize = 5;
/// In-process commit → session-read pairs the traced run times at the
/// router.
pub const SESSION_WAITS: usize = 100;
/// Their id lane, past every scripted client's.
const SESSION_WAIT_LANE: u64 = 9;
/// Point reads touch only records of at most this many facts, so that
/// which entity the seed puts at the head of the Zipf curve does not
/// decide how many bytes the workload moves.
pub const POINT_MAX_FACTS: usize = 8;
/// Ids minted by write steps start here, far above the corpus ids.
const WRITE_ID_BASE: u64 = 10_000_000;
/// Id stride between clients, so two clients never mint the same id.
const WRITE_ID_STRIDE: u64 = 1_000_000;
/// Source namespace of everything the bench writes on top of the corpus.
const BENCH_SOURCE: SourceId = SourceId(7);

/// The four workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf point reads from two blocking clients.
    ReadPoint,
    /// Five wide queries, pipelined on one connection.
    ReadWide,
    /// 90 % point reads beside 10 % commit → session-read pairs.
    MixedRw,
    /// Batch commits of seeded churn, then a cold restart.
    IngestRestart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadPoint,
        Workload::ReadWide,
        Workload::MixedRw,
        Workload::IngestRestart,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadPoint => "read_point",
            Workload::ReadWide => "read_wide",
            Workload::MixedRw => "mixed_rw",
            Workload::IngestRestart => "ingest_restart",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads (= connections) driving the measured phase.
    pub fn clients(self) -> usize {
        match self {
            Workload::ReadPoint | Workload::MixedRw => 2,
            Workload::ReadWide | Workload::IngestRestart => 1,
        }
    }

    /// Measured ops per second of `--seconds`, all clients together:
    /// frozen once on the reference machine (2 hardware threads) so that
    /// a phase ends on an op count, not a clock, and byte and memory
    /// metrics see identical work run to run (repeatability rule 5).
    fn ops_per_second(self) -> usize {
        match self {
            Workload::ReadPoint => 24_000,
            Workload::ReadWide => 24_000,
            Workload::MixedRw => 11_000,
            Workload::IngestRestart => 900,
        }
    }
}

/// How large a run is. `--quick` shrinks the corpus fivefold and the op
/// counts twentyfold (smoke tests); numbers from it mean nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// `ambiguous_world` homonym groups (750 ≈ 61k facts).
    pub groups: usize,
    /// Divisor applied to every op count.
    pub op_divisor: usize,
}

impl Scale {
    /// Half the ROADMAP standard tier (1500 groups ≈ 122k facts): three
    /// set-ups of the full tier do not fit a run of the driver's time cap.
    pub const STANDARD: Scale = Scale {
        groups: 750,
        op_divisor: 1,
    };
    /// The smoke-test tier.
    pub const QUICK: Scale = Scale {
        groups: 150,
        op_divisor: 20,
    };
}

/// One read request with the answer the oracle graph gives.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadOp {
    /// A KGQ query and its expected entity ids.
    Query {
        /// KGQ text.
        text: String,
        /// Oracle answer.
        expect: Vec<EntityId>,
    },
    /// `resolve_name` and its expected entity ids.
    Resolve {
        /// The name, as a client would type it.
        name: String,
        /// Oracle answer.
        expect: Vec<EntityId>,
    },
    /// `record(id)` and the fact count the oracle record has.
    Record {
        /// The entity.
        id: EntityId,
        /// Oracle fact count.
        facts: usize,
    },
}

/// One freshness step: commit a new named entity, then read it back
/// through the session; the read must return exactly `id`.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteStep {
    /// The entity the step mints.
    pub id: EntityId,
    /// The 1-entity commit.
    pub batch: WireBatch,
    /// The session read that must see it.
    pub query: String,
}

/// One step of a client's script.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// `Script::reads[i]`.
    Read(u32),
    /// A commit → session-read pair.
    Write(WriteStep),
    /// `Script::churn[i]`: one ingest batch commit.
    Ingest(u32),
}

/// What the serving graph must look like when the run is over.
#[derive(Clone, Debug, PartialEq)]
pub struct FinalState {
    /// Live entities.
    pub entities: usize,
    /// Sampled probes and their oracle postings.
    pub postings: Vec<(ProbeKey, Vec<EntityId>)>,
}

/// Everything one run feeds the stack, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Script {
    /// The workload this script drives.
    pub workload: Workload,
    /// The corpus as upsert batches of [`BATCH_FACTS`] facts.
    pub preload: Vec<WireBatch>,
    /// Distinct read requests, indexed by [`Step::Read`].
    pub reads: Vec<ReadOp>,
    /// Distinct ingest batches, indexed by [`Step::Ingest`].
    pub churn: Vec<WireBatch>,
    /// Warm-up steps per client (5 % of the measured script, run in set-up).
    pub warmup: Vec<Vec<Step>>,
    /// Measured steps per client.
    pub measured: Vec<Vec<Step>>,
    /// Traced runs only, and empty for `mixed_rw`: a short mixed pass
    /// (the workload's own kind of read beside 10 % writes) that client 0
    /// sends after the traced phase, so that every layer boundary has
    /// both reads and commits to replay whatever the workload sends.
    pub layer_mix: Vec<Step>,
    /// Traced runs only: the commit → session-read pairs timed in-process
    /// at the router. They follow the restart checkpoint, so they are the
    /// log tail a bootstrap replays.
    pub session_waits: Vec<WriteStep>,
    /// The state the replicas must reach.
    pub final_state: FinalState,
}

/// Build the script of `workload` for `seed`, sized for `seconds` of
/// measurement at `scale`. A `traced` script keeps the first two
/// [`TRACED_SHARE`]ths of each client's measured steps and adds the layer
/// mix; its final state is that of what a traced run commits.
pub fn build(workload: Workload, seed: u64, seconds: u64, scale: Scale, traced: bool) -> Script {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a6a_b3c4);
    let mut oracle = ambiguous_world(seed, scale.groups).kg;
    let preload = preload_batches(&oracle);
    let total_ops = (workload.ops_per_second() * seconds as usize / scale.op_divisor)
        .max(20 * workload.clients());
    let per_client = total_ops / workload.clients();
    let warm_per_client = (per_client / 20).max(1);

    let point = point_reads(&oracle, &mut rng);
    let zipf = Zipf::new(point.len() / POINT_KINDS, ZIPF_S);
    let reads = match workload {
        Workload::ReadWide => wide_reads(&oracle),
        _ => point,
    };
    // One seeded read of the workload's kind, for mixed steps. Ingest
    // churn rewrites `popularity` facts, so beside it only the reads
    // whose answers it cannot move are drawn: FIND and resolve, not
    // record.
    let draw = |rng: &mut StdRng| match workload {
        Workload::ReadWide => rng.gen_range(0..reads.len()) as u32,
        Workload::IngestRestart => point_draw(&zipf, rng, POINT_KINDS - 1),
        _ => point_draw(&zipf, rng, POINT_KINDS),
    };
    let mut churn = Vec::new();
    let mut warmup = Vec::new();
    let mut measured = Vec::new();
    match workload {
        Workload::ReadPoint => {
            for _ in 0..workload.clients() {
                warmup.push(zipf_steps(&zipf, &mut rng, warm_per_client));
                measured.push(zipf_steps(&zipf, &mut rng, per_client));
            }
        }
        Workload::ReadWide => {
            let cycle = |n: usize| {
                (0..n)
                    .map(|i| Step::Read((i % reads.len()) as u32))
                    .collect()
            };
            warmup.push(cycle(warm_per_client));
            measured.push(cycle(per_client));
        }
        Workload::MixedRw => {
            for client in 0..workload.clients() as u64 {
                let mut minted = 0;
                warmup.push(mixed_steps(
                    client,
                    &mut minted,
                    warm_per_client,
                    &mut rng,
                    &draw,
                ));
                measured.push(mixed_steps(
                    client,
                    &mut minted,
                    per_client,
                    &mut rng,
                    &draw,
                ));
            }
        }
        Workload::IngestRestart => {
            churn = churn_batches(&oracle, &mut rng, warm_per_client + per_client);
            warmup.push(
                (0..warm_per_client)
                    .map(|i| Step::Ingest(i as u32))
                    .collect(),
            );
            measured.push(
                (warm_per_client..warm_per_client + per_client)
                    .map(|i| Step::Ingest(i as u32))
                    .collect(),
            );
        }
    }
    let mut layer_mix = Vec::new();
    let mut session_waits = Vec::new();
    if traced {
        session_waits = (1..=(SESSION_WAITS / scale.op_divisor).max(10) as u64)
            .map(|k| write_step(SESSION_WAIT_LANE, k))
            .collect();
        for steps in &mut measured {
            steps.truncate(2 * (steps.len() / TRACED_SHARE).max(1));
        }
        if workload != Workload::MixedRw {
            layer_mix = mixed_steps(
                workload.clients() as u64,
                &mut 0,
                (LAYER_MIX_STEPS / scale.op_divisor).max(100),
                &mut rng,
                &draw,
            );
        }
    }

    // The oracle's final state: every batch the run will commit, applied
    // in script order to the same graph the expectations came from.
    for step in warmup.iter().chain(&measured).flatten().chain(&layer_mix) {
        let batch = match step {
            Step::Read(_) => continue,
            Step::Write(w) => &w.batch,
            Step::Ingest(at) => &churn[*at as usize],
        };
        batch.clone().into_write_batch().commit(&mut oracle);
    }
    for write in &session_waits {
        write.batch.clone().into_write_batch().commit(&mut oracle);
    }
    let final_state = final_state(&oracle, &mut rng);

    Script {
        workload,
        preload,
        reads,
        churn,
        warmup,
        measured,
        layer_mix,
        session_waits,
        final_state,
    }
}

/// The corpus as wire batches: records in id order, facts in record
/// order, [`BATCH_FACTS`] upserts per batch.
fn preload_batches(corpus: &KnowledgeGraph) -> Vec<WireBatch> {
    let mut records: Vec<&EntityRecord> = corpus.entities().collect();
    records.sort_unstable_by_key(|r| r.id);
    let triples: Vec<&ExtendedTriple> = records.iter().flat_map(|r| &r.triples).collect();
    triples
        .chunks(BATCH_FACTS)
        .map(|chunk| {
            chunk
                .iter()
                .fold(WireBatch::new(), |batch, t| batch.upsert((*t).clone()))
        })
        .collect()
}

/// The point-read pool: [`POINT_TEXTS`] distinct requests — FIND by
/// type and name, `resolve_name`, `record` — over seeded-shuffled small
/// entities. Request `3 * rank + kind` is entity `rank`'s request of
/// that kind; popularity is Zipf over entities, the kind of each draw
/// uniform (see [`point_draw`]).
fn point_reads(oracle: &KnowledgeGraph, rng: &mut StdRng) -> Vec<ReadOp> {
    let mut records: Vec<&EntityRecord> = oracle
        .entities()
        .filter(|r| {
            r.fact_count() <= POINT_MAX_FACTS
                && r.name()
                    .is_some_and(|n| (1..=POINT_MAX_IDS).contains(&oracle.resolve_name(n).len()))
        })
        .collect();
    records.sort_unstable_by_key(|r| r.id);
    records.shuffle(rng);
    records.truncate(POINT_TEXTS / POINT_KINDS);
    records
        .iter()
        .flat_map(|record| {
            let name = record.name().expect("filtered on name").to_string();
            let ty = record.types()[0];
            [
                ReadOp::Query {
                    text: format!("FIND {} WHERE name = \"{name}\"", ty.text()),
                    expect: oracle
                        .probe_all(&[ProbeKey::Type(ty), ProbeKey::Name(name.to_lowercase())]),
                },
                ReadOp::Resolve {
                    expect: oracle.resolve_name(&name),
                    name,
                },
                ReadOp::Record {
                    id: record.id,
                    facts: record.fact_count(),
                },
            ]
        })
        .collect()
}

/// One point-read draw: a Zipf-ranked entity, and uniformly one of its
/// first `kinds` request kinds.
fn point_draw(zipf: &Zipf, rng: &mut StdRng, kinds: usize) -> u32 {
    (zipf.sample(rng) * POINT_KINDS + rng.gen_range(0..kinds)) as u32
}

/// The five wide texts: three type scans, two literal ∧ type
/// conjunctions with tens-to-hundreds of hits, one dense × dense
/// conjunction (every city carries a `type` literal, so the type posting
/// meets an equally long literal posting).
fn wide_reads(oracle: &KnowledgeGraph) -> Vec<ReadOp> {
    let city = intern("city");
    let description = intern(well_known::DESCRIPTION);
    // The two countries whose head-city count is nearest the expected
    // one-eighth share: the seed moves which countries those are, not how
    // much work the two conjunctions do.
    let mut countries: Vec<(usize, String)> = [
        "Germany",
        "Australia",
        "Canada",
        "Jamaica",
        "Ireland",
        "Portugal",
        "Norway",
        "Chile",
    ]
    .iter()
    .map(|country| {
        let text = format!("Major city in {country} known worldwide");
        let hits = oracle.selectivity(&ProbeKey::Literal(description, Value::str(&text)));
        (hits, text)
    })
    .collect();
    let share = countries.iter().map(|(hits, _)| hits).sum::<usize>() / countries.len();
    countries.sort_by_key(|(hits, text)| (hits.abs_diff(share), text.clone()));

    let mut reads = Vec::new();
    let mut push = |text: String, probes: &[ProbeKey], limit: usize| {
        let mut expect = oracle.probe_all(probes);
        expect.truncate(limit);
        reads.push(ReadOp::Query { text, expect });
    };
    for limit in [300, 400, 500] {
        push(
            format!("FIND city LIMIT {limit}"),
            &[ProbeKey::Type(city)],
            limit,
        );
    }
    for (_, text) in countries.iter().take(2) {
        push(
            format!("FIND city WHERE description = \"{text}\" LIMIT 1000"),
            &[
                ProbeKey::Type(city),
                ProbeKey::Literal(description, Value::str(text)),
            ],
            1000,
        );
    }
    push(
        "FIND city WHERE type = \"city\" LIMIT 500".to_string(),
        &[
            ProbeKey::Type(city),
            ProbeKey::Literal(intern(well_known::TYPE), Value::str("city")),
        ],
        500,
    );
    reads
}

/// `n` steps of the mixed shape: each a write with probability
/// [`WRITE_SHARE`], else one read drawn by `draw`. The random run of
/// reads between two writes is what keeps a closed loop from locking
/// onto one phase of the replicas' poll cycle.
fn mixed_steps(
    client: u64,
    minted: &mut u64,
    n: usize,
    rng: &mut StdRng,
    draw: &dyn Fn(&mut StdRng) -> u32,
) -> Vec<Step> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(WRITE_SHARE) {
                *minted += 1;
                Step::Write(write_step(client, *minted))
            } else {
                Step::Read(draw(rng))
            }
        })
        .collect()
}

fn zipf_steps(zipf: &Zipf, rng: &mut StdRng, n: usize) -> Vec<Step> {
    (0..n)
        .map(|_| Step::Read(point_draw(zipf, rng, POINT_KINDS)))
        .collect()
}

fn write_step(client: u64, k: u64) -> WriteStep {
    let id = EntityId(WRITE_ID_BASE + client * WRITE_ID_STRIDE + k);
    let name = format!("Bench Item {client} {k}");
    WriteStep {
        id,
        batch: WireBatch::new().named_entity(id, &name, "bench_item", BENCH_SOURCE, 0.9),
        query: format!("FIND bench_item WHERE name = \"{name}\""),
    }
}

/// Seeded churn over existing entities, [`BATCH_FACTS`] ops per batch.
/// Even batches overwrite a volatile signal (a fresh `popularity` value
/// on 25 entities); odd batches retract one entity's source contribution
/// and re-add it in the same commit, padded with overwrites.
fn churn_batches(oracle: &KnowledgeGraph, rng: &mut StdRng, n: usize) -> Vec<WireBatch> {
    let mut ids: Vec<EntityId> = oracle.entity_ids().collect();
    ids.sort_unstable();
    let popularity = intern(well_known::POPULARITY);
    let overwrite = |rng: &mut StdRng| {
        let id = ids[rng.gen_range(0..ids.len())];
        ExtendedTriple::simple(
            id,
            popularity,
            Value::Int(rng.gen_range(0..1_000_000)),
            FactMeta::from_source(BENCH_SOURCE, 0.9),
        )
    };
    (0..n)
        .map(|i| {
            let mut batch = WireBatch::new();
            if i % 2 == 1 {
                let record = oracle
                    .entity(ids[rng.gen_range(0..ids.len())])
                    .expect("id drawn from the oracle");
                let source = record.triples[0].meta.provenance[0].source;
                let local = format!("churn-{}", record.id.0);
                batch = batch
                    .link(source, &local, record.id)
                    .retract_source_entity(source, &local);
                for triple in record.triples.iter().take(BATCH_FACTS - 2) {
                    batch = batch.upsert(triple.clone());
                }
            }
            while batch.len() < BATCH_FACTS {
                batch = batch.upsert(overwrite(rng));
            }
            batch
        })
        .collect()
}

fn final_state(oracle: &KnowledgeGraph, rng: &mut StdRng) -> FinalState {
    let mut records: Vec<&EntityRecord> = oracle.entities().collect();
    records.sort_unstable_by_key(|r| r.id);
    let postings = (0..RESTART_SAMPLES)
        .map(|i| {
            let record = records[rng.gen_range(0..records.len())];
            let probe = match (i % 2, record.name()) {
                (0, Some(name)) => ProbeKey::Name(name.to_lowercase()),
                _ => ProbeKey::Type(record.types()[0]),
            };
            let ids = oracle.postings(&probe);
            (probe, ids)
        })
        .collect();
    FinalState {
        entities: oracle.entity_count(),
        postings,
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty pool");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        for workload in Workload::ALL {
            let a = format!("{:?}", build(workload, 11, 1, Scale::QUICK, true));
            let b = format!("{:?}", build(workload, 11, 1, Scale::QUICK, true));
            let c = format!("{:?}", build(workload, 12, 1, Scale::QUICK, true));
            assert_eq!(a.as_bytes(), b.as_bytes(), "{workload:?}: same seed");
            assert_ne!(a.as_bytes(), c.as_bytes(), "{workload:?}: other seed");
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
        assert!(draws.iter().all(|&r| r < 1000));
    }

    #[test]
    fn point_pool_answers_are_short_and_nonempty() {
        let script = build(Workload::ReadPoint, 3, 1, Scale::QUICK, false);
        for read in &script.reads {
            match read {
                ReadOp::Query { expect, .. } | ReadOp::Resolve { expect, .. } => {
                    assert!((1..=POINT_MAX_IDS).contains(&expect.len()), "{read:?}")
                }
                ReadOp::Record { facts, .. } => assert!(*facts > 0),
            }
        }
    }
}
