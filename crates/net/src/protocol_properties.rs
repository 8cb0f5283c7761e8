//! Seeded properties of the wire codec ([`crate::protocol`]), through its
//! public surface: every request and response kind round-trips bit for
//! bit, and no payload — cut, flipped or lying about a count — reaches a
//! panic or sizes an allocation.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use saga_core::binary::push_varint;
use saga_core::{
    intern, EntityId, EntityRecord, ExtendedTriple, FactMeta, Lsn, RelId, RelPart, SessionToken,
    SourceId, SourceTrust, SubjectRef, Value,
};
use saga_live::QueryResult;

use crate::protocol::{
    decode_request, decode_response, encode_frame, opcode, read_frame, Committed, ErrorKind, Frame,
    FrameError, Request, Response, WireBatch, WireOp, MAX_PAYLOAD,
};

/// Records the largest single allocation a closure makes on this
/// thread — how the suite shows that a hostile length or count never
/// sizes a buffer.
mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    pub struct Probe;

    fn note(size: usize) {
        // `try_with`: allocations made while a thread tears down its
        // locals are not ours to measure.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to
    // `System`, which upholds the `GlobalAlloc` contract; `note` only
    // writes a `Cell<usize>` and never allocates.
    unsafe impl GlobalAlloc for Probe {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `layout` is passed through as is.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    pub fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|l| l.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }
}

#[global_allocator]
static PROBE: alloc_probe::Probe = alloc_probe::Probe;

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
    const FLOATS: [f64; 6] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.0e-310, // subnormal
    ];
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

fn arb_ids(rng: &mut StdRng, shape: u32) -> Vec<EntityId> {
    let mut ids: Vec<EntityId> = (0..rng.gen_range(1..40usize))
        .map(|_| EntityId(arb_u64(rng)))
        .collect();
    match shape % 4 {
        0 => ids.clear(),
        1 => {
            ids.sort_unstable();
            ids.dedup();
        }
        2 => ids.extend_from_within(..), // unsorted, every id twice
        _ => {}
    }
    ids
}

fn arb_triple(rng: &mut StdRng, shape: u32) -> ExtendedTriple {
    let subject = if shape.is_multiple_of(2) {
        SubjectRef::Kg(EntityId(arb_u64(rng)))
    } else {
        SubjectRef::source(SourceId(rng.next_u32()), arb_string(rng))
    };
    let rel = shape.is_multiple_of(3).then(|| RelPart {
        rel_id: RelId(rng.next_u32()),
        rel_predicate: intern(&arb_string(rng)),
    });
    // Exact f32s, not decimal-friendly ones: 0.1 + 0.2, the smallest
    // normal, and anything in [0, 1).
    let provenance = (0..shape % 4)
        .map(|i| SourceTrust {
            source: SourceId(rng.next_u32()),
            trust: match i {
                0 => 0.1f32 + 0.2f32,
                1 => f32::MIN_POSITIVE,
                _ => rng.gen_range(0.0..1.0f64) as f32,
            },
        })
        .collect();
    ExtendedTriple {
        subject,
        predicate: intern(&arb_string(rng)),
        rel,
        object: arb_value(rng, shape),
        meta: FactMeta {
            provenance,
            locale: (shape % 5 < 2).then(|| intern(&arb_string(rng))),
        },
    }
}

const REQUEST_KINDS: u32 = 6;
const RESPONSE_KINDS: u32 = 11;

/// Request kind `kind % REQUEST_KINDS`; `kind / REQUEST_KINDS` walks
/// the shapes inside it, so a run of consecutive kinds covers both.
fn arb_request(rng: &mut StdRng, kind: u32) -> Request {
    let shape = kind / REQUEST_KINDS;
    match kind % REQUEST_KINDS {
        0 => Request::Ping,
        1 => Request::Query {
            text: arb_string(rng),
            session: shape
                .is_multiple_of(2)
                .then(|| SessionToken::at(Lsn(arb_u64(rng)))),
        },
        2 => {
            let mut batch = WireBatch::new();
            for i in 0..shape % 30 {
                batch.push(match i % 6 {
                    0 => WireOp::Link {
                        source: SourceId(rng.next_u32()),
                        local_id: arb_string(rng),
                        entity: EntityId(arb_u64(rng)),
                    },
                    1 => WireOp::RetractSource(SourceId(rng.next_u32())),
                    2 => WireOp::RetractSourceEntity {
                        source: SourceId(rng.next_u32()),
                        local_id: arb_string(rng),
                    },
                    _ => WireOp::Upsert(arb_triple(rng, shape + i)),
                });
            }
            Request::Commit(batch)
        }
        3 => Request::ResolveName(arb_string(rng)),
        4 => Request::Record(EntityId(arb_u64(rng))),
        _ => Request::Generation,
    }
}

fn arb_response(rng: &mut StdRng, kind: u32) -> Response {
    let shape = kind / RESPONSE_KINDS;
    match kind % RESPONSE_KINDS {
        0 => Response::Pong,
        1 => Response::Result(QueryResult::Entities(arb_ids(rng, shape))),
        2 => Response::Result(QueryResult::Values(
            (0..shape % 9).map(|i| arb_value(rng, shape + i)).collect(),
        )),
        3 => Response::Committed(Committed {
            lsn: Lsn(arb_u64(rng)),
            token: SessionToken::at(Lsn(arb_u64(rng))),
            facts_added: arb_u64(rng),
            facts_removed: arb_u64(rng),
        }),
        4 => Response::Entities(arb_ids(rng, shape)),
        5 => Response::Count(arb_u64(rng)),
        6 => Response::Record(None),
        7 => {
            let mut record = EntityRecord::new(EntityId(arb_u64(rng)));
            record.triples = (0..shape % 7).map(|i| arb_triple(rng, shape + i)).collect();
            Response::Record(Some(record))
        }
        8 => Response::Error {
            kind: [ErrorKind::BadRequest, ErrorKind::Query, ErrorKind::Internal]
                [shape as usize % 3],
            message: arb_string(rng),
        },
        9 => Response::Overloaded {
            message: arb_string(rng),
            backoff_hint_ms: arb_u64(rng),
        },
        _ => Response::Unavailable {
            message: arb_string(rng),
        },
    }
}

fn frame_of(bytes: &[u8]) -> Frame {
    read_frame(&mut &bytes[..]).unwrap().unwrap()
}

/// `rounds` of every kind, from `seed`.
fn corpus(seed: u64, rounds: u32) -> (Vec<Request>, Vec<Response>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = (0..rounds * REQUEST_KINDS)
        .map(|kind| arb_request(&mut rng, kind))
        .collect();
    let responses = (0..rounds * RESPONSE_KINDS)
        .map(|kind| arb_response(&mut rng, kind))
        .collect();
    (requests, responses)
}

// -- round trips -------------------------------------------------------

/// Every request and response kind survives its own codec. Equality is
/// checked twice: `==` (floats inside a `Value` compare by bits) and
/// re-encoding to the identical bytes, which also pins `f32` trust.
#[test]
fn every_request_and_response_kind_roundtrips_from_seeds() {
    for seed in [42, 20220612] {
        let (requests, responses) = corpus(seed, 60);
        for (id, req) in requests.iter().enumerate() {
            let bytes = req.encode(id as u64);
            let frame = frame_of(&bytes);
            assert_eq!((frame.request_id, frame.opcode), (id as u64, req.opcode()));
            let back = decode_request(&frame).unwrap();
            assert_eq!(&back, req);
            assert_eq!(back.encode(id as u64), bytes, "{req:?}");
        }
        for (id, resp) in responses.iter().enumerate() {
            let bytes = resp.encode(id as u64);
            let frame = frame_of(&bytes);
            assert_eq!((frame.request_id, frame.opcode), (id as u64, resp.opcode()));
            let back = decode_response(&frame).unwrap();
            assert_eq!(&back, resp);
            assert_eq!(back.encode(id as u64), bytes, "{resp:?}");
        }
    }
}

/// The declared length is a claim: a `MAX_PAYLOAD` header over a
/// ten-byte body reports what is owed without reserving for it.
#[test]
fn a_declared_length_does_not_size_the_read_buffer() {
    let mut bytes = encode_frame(1, opcode::QUERY, &[7u8; 10]);
    bytes[14..18].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let (result, largest) = alloc_probe::largest_during(|| read_frame(&mut bytes.as_slice()));
    match result.unwrap_err() {
        FrameError::Torn { expected, got } => {
            assert_eq!((expected, got), (MAX_PAYLOAD as usize - 10, 10));
        }
        other => panic!("expected Torn, got {other}"),
    }
    assert!(largest < 1 << 20, "reserved {largest} bytes");
}

/// Counts no payload could honour are refused before anything is
/// reserved for them.
#[test]
fn hostile_counts_are_refused_without_allocating_for_them() {
    // Interned up front, so the interner growing is not what is measured.
    intern("p");
    let mut huge = Vec::new();
    push_varint(&mut huge, u64::MAX);
    let mut big = Vec::new();
    push_varint(&mut big, 1 << 32);
    for count in [huge, big] {
        let with = |prefix: &[u8]| [prefix, &count, &[0u8; 8]].concat();
        // One upsert whose provenance count lies.
        let triple_prefix = [1, 0, 0, 5, 1, b'p', 0, 0];
        let cases = [
            (true, opcode::COMMIT, with(&[])),
            (true, opcode::COMMIT, with(&triple_prefix)),
            (false, opcode::ENTITIES, with(&[])),
            (false, opcode::RESULT, with(&[0])),
            (false, opcode::RESULT, with(&[1])),
            (false, opcode::RECORD_HIT, with(&[1, 5])),
            (false, opcode::ERROR, with(&[0])), // string length
        ];
        for (is_request, op, payload) in cases {
            let frame = Frame {
                request_id: 1,
                opcode: op,
                payload,
            };
            let (refused, largest) = alloc_probe::largest_during(|| {
                if is_request {
                    decode_request(&frame).is_err()
                } else {
                    decode_response(&frame).is_err()
                }
            });
            assert!(refused, "accepted {op:#04x} {:02x?}", frame.payload);
            assert!(largest <= 1024, "{op:#04x} allocated {largest} bytes");
        }
    }
}

/// The decoder fuzz loop: every valid payload cut at every offset,
/// then seeded byte flips. Cuts must be refused (every body is
/// self-delimiting); flips may decode to something else — but nothing
/// panics, and no single allocation outgrows what a payload of a few
/// hundred bytes could fill. (The cap is far above that: a flipped
/// predicate is a new string, and the process-wide interner's table
/// doubles on whichever thread adds to it.)
#[test]
fn truncated_and_flipped_payloads_never_panic_or_balloon() {
    const LARGEST_ALLOWED: usize = 1 << 20;
    let mut rng = StdRng::seed_from_u64(7);
    let (requests, responses) = corpus(7, 12);
    let frames = requests
        .iter()
        .map(|r| (true, frame_of(&r.encode(1))))
        .chain(responses.iter().map(|r| (false, frame_of(&r.encode(1)))));
    for (is_request, frame) in frames {
        assert!(frame.payload.len() < 4096, "corpus frames are small");
        let decode = |payload: Vec<u8>| {
            let mutant = Frame {
                payload,
                ..frame.clone()
            };
            let (ok, largest) = alloc_probe::largest_during(|| {
                if is_request {
                    decode_request(&mutant).is_ok()
                } else {
                    decode_response(&mutant).is_ok()
                }
            });
            assert!(
                largest <= LARGEST_ALLOWED,
                "{mutant:?} allocated {largest} bytes"
            );
            ok
        };
        for cut in 0..frame.payload.len() {
            let accepted = decode(frame.payload[..cut].to_vec());
            assert!(
                !accepted || frame.opcode == opcode::PING,
                "accepted {:#04x} cut at {cut} of {:02x?}",
                frame.opcode,
                frame.payload
            );
        }
        if frame.payload.is_empty() {
            continue;
        }
        for _ in 0..64 {
            let mut payload = frame.payload.clone();
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..payload.len());
                payload[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            decode(payload);
        }
    }
}
