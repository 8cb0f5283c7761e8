//! Seeded properties of the durable log's file format ([`crate::oplog`]):
//! every operation shape survives write → reopen bit for bit, and no
//! file — flipped, cut or lying about a count — reaches a panic, sizes an
//! allocation, or reopens as a silently shorter log.

use std::fs;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use saga_core::binary::push_varint;
use saga_core::{intern, Delta, DeltaFact, EntityId, Lsn, SagaError, SourceId, Value};

use crate::oplog::{
    decode_body, file_header, unique_log_path, write_frame, IngestOp, OpKind, OperationLog,
    FILE_HEADER, FRAME_HEADER,
};

// -- seeded generators -------------------------------------------------

fn arb_string(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 8] = ["a", "Z", "_", " ", "\"", "é", "日", "🎵"];
    (0..rng.gen_range(0..12usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn arb_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..200u64),
        1 => u64::MAX - rng.gen_range(0..3u64),
        2 => 1 << rng.gen_range(0..64u32),
        _ => rng.next_u64(),
    }
}

fn arb_value(rng: &mut StdRng, kind: u32) -> Value {
    const FLOATS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.0e-310];
    match kind % 7 {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(arb_u64(rng) as i64),
        3 if rng.gen_bool(0.5) => Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        // Any bit pattern, signalling NaNs and NaN payloads included.
        3 => Value::Float(f64::from_bits(rng.next_u64())),
        4 => Value::str(arb_string(rng)),
        5 => Value::Entity(EntityId(arb_u64(rng))),
        _ => Value::source_ref(arb_string(rng)),
    }
}

fn arb_facts(rng: &mut StdRng, n: u32) -> Vec<DeltaFact> {
    const PREDICATES: [&str; 5] = ["name", "popularity", "educated_at.school", "", "日本"];
    (0..n)
        .map(|i| {
            let kind = i + rng.gen_range(0..7u32);
            DeltaFact {
                predicate: intern(PREDICATES[rng.gen_range(0..PREDICATES.len())]),
                object: arb_value(rng, kind),
            }
        })
        .collect()
}

const SHAPES: u32 = 16;

/// Operation shape `shape % SHAPES`: all four kinds crossed with no
/// deltas at all, and with payloads of unsorted, possibly repeated
/// entities whose deltas may be empty.
fn arb_op(rng: &mut StdRng, shape: u32) -> (OpKind, Vec<Delta>) {
    let kind = match shape % 4 {
        0 => OpKind::Upsert,
        1 => OpKind::Delete,
        2 => OpKind::RetractSource(SourceId(rng.next_u32())),
        _ => OpKind::VolatileOverwrite(SourceId(u32::MAX - shape)),
    };
    if shape % SHAPES < 4 {
        return (kind, Vec::new());
    }
    let mut entities = arb_ids(rng);
    entities.push(EntityId(u64::MAX));
    let deltas = entities
        .into_iter()
        .map(|entity| Delta {
            entity,
            added: arb_facts(rng, shape % 5),
            removed: arb_facts(rng, shape % 3),
        })
        .collect();
    (kind, deltas)
}

fn arb_ids(rng: &mut StdRng) -> Vec<EntityId> {
    (0..rng.gen_range(1..6u32))
        .map(|_| EntityId(arb_u64(rng)))
        .collect()
}

/// Append `count` seeded ops of every shape; what the log holds after.
fn fill(log: &OperationLog, rng: &mut StdRng, count: u32) -> Vec<IngestOp> {
    for shape in 0..count {
        let (kind, deltas) = arb_op(rng, shape);
        log.append_op(kind, deltas).unwrap();
    }
    log.read_after(log.compacted_through())
}

fn frame_of(op: &IngestOp) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, op).unwrap();
    frame
}

// -- round trips -------------------------------------------------------

/// Every shape survives the file. Equality is checked twice: `==` (floats
/// inside a `Value` compare by bits) and re-encoding to identical bytes.
/// The log starts just below `u64::MAX`, where the JSON form's `i64`
/// printed LSNs negative.
#[test]
fn every_op_shape_roundtrips_through_the_file_from_seeds() {
    for seed in [42, 20220612] {
        let mut rng = StdRng::seed_from_u64(seed);
        let path = unique_log_path();
        let base = u64::MAX - 10 * u64::from(SHAPES);
        fs::write(&path, file_header(base)).unwrap();
        let written = {
            let log = OperationLog::durable(&path).unwrap();
            assert_eq!(log.compacted_through(), Lsn(base));
            fill(&log, &mut rng, 4 * SHAPES)
        };
        assert_eq!(written[0].lsn, Lsn(base + 1));
        let reopened = OperationLog::durable(&path).unwrap();
        assert_eq!(reopened.truncated_tail_bytes(), 0);
        let read = reopened.read_after(Lsn(base));
        assert_eq!(read, written);
        for (back, op) in read.iter().zip(&written) {
            assert_eq!(frame_of(back), frame_of(op), "{op:?}");
        }
        // Compaction copies the retained frames; they still decode.
        let cut = Lsn(base + u64::from(SHAPES));
        reopened.compact_to(cut).unwrap();
        drop(reopened);
        let compacted = OperationLog::durable(&path).unwrap();
        assert_eq!(compacted.compacted_through(), cut);
        assert_eq!(compacted.read_after(cut), written[SHAPES as usize..]);
        let _ = fs::remove_file(&path);
    }
}

// -- damage ------------------------------------------------------------

/// A seeded log on disk and where each of its frames starts (the last
/// entry is the file's length).
fn log_with_boundaries(rng: &mut StdRng, frames: u32) -> (Vec<u8>, Vec<usize>) {
    let path = unique_log_path();
    let log = OperationLog::durable(&path).unwrap();
    let mut starts = vec![FILE_HEADER];
    for shape in 0..frames {
        let (kind, deltas) = arb_op(rng, 8 + shape);
        log.append_op(kind, deltas).unwrap();
        starts.push(fs::metadata(&path).unwrap().len() as usize);
    }
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(&path);
    (bytes, starts)
}

fn reopen(bytes: &[u8]) -> Result<OperationLog, SagaError> {
    let path = unique_log_path();
    fs::write(&path, bytes).unwrap();
    let log = OperationLog::durable(&path);
    let _ = fs::remove_file(&path);
    log
}

/// Any single flipped byte before the final frame — file header, frame
/// headers and bodies alike — fails the open with a typed error. It never
/// panics and never reads as a torn tail, which would drop every later
/// operation without a word.
#[test]
fn a_flipped_byte_before_the_final_frame_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(7);
    let (bytes, starts) = log_with_boundaries(&mut rng, 5);
    assert_eq!(reopen(&bytes).unwrap().head(), Lsn(5), "intact");
    let final_frame = starts[4];
    for at in 0..final_frame {
        let mut mutant = bytes.clone();
        mutant[at] ^= rng.gen_range(1..=255u32) as u8;
        match reopen(&mutant) {
            Err(SagaError::Storage(_)) => {}
            Err(other) => panic!("byte {at}: untyped error {other}"),
            Ok(log) => panic!("byte {at}: opened with head {:?}", log.head()),
        }
    }
    // In the final frame a flip is either the same error (its header) or
    // indistinguishable from a torn write (its body): that op alone goes.
    for at in final_frame..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[at] ^= rng.gen_range(1..=255u32) as u8;
        match reopen(&mutant) {
            Err(SagaError::Storage(_)) => assert!(at < final_frame + FRAME_HEADER, "byte {at}"),
            Err(other) => panic!("byte {at}: untyped error {other}"),
            Ok(log) => {
                assert!(at >= final_frame + FRAME_HEADER, "byte {at}");
                assert_eq!(log.head(), Lsn(4));
                assert_eq!(
                    log.truncated_tail_bytes(),
                    (bytes.len() - final_frame) as u64
                );
            }
        }
    }
}

/// Counts no body could honour are refused by `take_count` before
/// anything is reserved for them — at every place the format has one. A
/// kind byte outside 0–3 is refused too: each of the four kinds with its
/// `0x80` bit set is a typed error, never an op.
#[test]
fn hostile_counts_are_refused_before_reserving() {
    for lie in [u64::MAX, 1 << 32, 1 << 20] {
        let with = |prefix: &[u8]| {
            let mut body = prefix.to_vec();
            push_varint(&mut body, lie);
            body.extend_from_slice(&[0u8; 8]);
            body
        };
        let cases = [
            ("names", with(&[0])),
            ("deltas", with(&[0, 0])),
            ("facts", with(&[0, 0, 1, 9])),
            ("name bytes", with(&[0, 1])),
        ];
        for (site, body) in cases {
            let err = decode_body(Lsn(1), &body).unwrap_err().to_string();
            let refused = err.contains("count exceeds") || err.contains("truncated");
            assert!(refused, "{site} × {lie}: {err}");
        }
    }
    let mut rng = StdRng::seed_from_u64(5);
    for shape in 4..8 {
        let (kind, deltas) = arb_op(&mut rng, shape);
        let op = IngestOp {
            lsn: Lsn(1),
            kind,
            deltas,
        };
        let mut body = frame_of(&op)[FRAME_HEADER..].to_vec();
        assert_eq!(decode_body(op.lsn, &body).unwrap(), op);
        body[0] |= 0x80;
        match decode_body(op.lsn, &body) {
            Err(SagaError::Storage(msg)) => assert!(msg.contains("unknown kind tag"), "{msg}"),
            other => panic!("kind byte {:#x}: {other:?}", body[0]),
        }
    }
}

/// The body decoder on its own, behind the checksum: every valid body
/// cut at every offset is refused (the format is self-delimiting), and
/// seeded flips may decode to something else but never panic.
#[test]
fn truncated_and_flipped_bodies_never_panic() {
    let mut rng = StdRng::seed_from_u64(11);
    for shape in 0..2 * SHAPES {
        let (kind, deltas) = arb_op(&mut rng, shape);
        let log = OperationLog::in_memory();
        log.append_op(kind, deltas).unwrap();
        let op = log.read_after(Lsn::ZERO).remove(0);
        let frame = frame_of(&op);
        let body = &frame[FRAME_HEADER..];
        assert_eq!(decode_body(op.lsn, body).unwrap(), op);
        for cut in 0..body.len() {
            assert!(decode_body(op.lsn, &body[..cut]).is_err(), "cut at {cut}");
        }
        for _ in 0..64 {
            let mut mutant = body.to_vec();
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..mutant.len());
                mutant[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            let _ = decode_body(op.lsn, &mutant);
        }
    }
}
