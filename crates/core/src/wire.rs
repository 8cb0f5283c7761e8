//! Stable wire representation of the change feed.
//!
//! §3.1's distributed shared log only works as a synchronization substrate
//! if every store can decode what it ships. In-process, a [`Delta`] is
//! compact but *process-local*: predicates are interned
//! [`Symbol`](crate::Symbol)s and object values may reference interner state that
//! another process (or a restarted one) does not share. This module defines
//! the self-contained, human-readable JSON form — predicate *names* plus
//! typed object values — that the oplog's dump form
//! (`IngestOp::to_json`) prints. The durable log itself stores the same
//! names-plus-typed-values content as binary frames in the
//! [`binary`](crate::binary) vocabulary.
//!
//! # Format
//!
//! A [`Delta`] serializes to one JSON object:
//!
//! ```json
//! {"entity":17,"add":[["name","Billie Eilish"],["born",2001]],"del":[["popularity",88]]}
//! ```
//!
//! Each fact is a two-element array `[predicate, object]`. Scalar objects
//! use the natural JSON encoding (string / int / float / bool / null);
//! the two reference kinds and non-finite floats need a tagged object:
//!
//! | value | wire form |
//! |---|---|
//! | `Value::Entity(AKG:9)` | `{"e":9}` |
//! | `Value::SourceRef("m42")` | `{"r":"m42"}` |
//! | `Value::Float(NaN / ±∞)` | `{"f":"nan"}` / `{"f":"inf"}` / `{"f":"-inf"}` |
//!
//! The encoding is lossless for every value the index can carry (deltas
//! never contain `Null` objects — [`flatten`](crate::index::flatten) filters
//! them — but the codec round-trips them anyway). Provenance is *not* part
//! of the wire form: the log records what changed in the index vocabulary,
//! which is exactly what derived stores consume; attribution stays in the
//! canonical KG.

use crate::json::Json;
use crate::{intern, Delta, DeltaFact, EntityId, Result, SagaError, Value};

fn bad(msg: impl Into<String>) -> SagaError {
    SagaError::Storage(format!("bad wire value: {}", msg.into()))
}

/// Encode one object value into its wire JSON form (see module docs).
fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(f) => {
            let tag = if f.is_nan() {
                "nan"
            } else if *f > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            Json::Object([("f".to_string(), Json::str(tag))].into())
        }
        Value::Str(s) => Json::str(s),
        Value::Entity(e) => Json::Object(
            [(
                "e".to_string(),
                Json::Int(i64::try_from(e.0).expect("entity id exceeds wire range")),
            )]
            .into(),
        ),
        Value::SourceRef(s) => Json::Object([("r".to_string(), Json::str(s))].into()),
    }
}

/// Decode an object value from its wire JSON form.
fn value_from_json(json: &Json) -> Result<Value> {
    match json {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Object(map) => {
            let (tag, inner) = map.iter().next().ok_or_else(|| bad("empty tagged value"))?;
            if map.len() != 1 {
                return Err(bad("tagged value with multiple keys"));
            }
            match tag.as_str() {
                "e" => {
                    let id = inner.as_i64().ok_or_else(|| bad("entity tag payload"))?;
                    let id = u64::try_from(id).map_err(|_| bad("negative entity id"))?;
                    Ok(Value::Entity(EntityId(id)))
                }
                "r" => {
                    let s = inner.as_str().ok_or_else(|| bad("source-ref payload"))?;
                    Ok(Value::source_ref(s))
                }
                "f" => match inner.as_str() {
                    Some("nan") => Ok(Value::Float(f64::NAN)),
                    Some("inf") => Ok(Value::Float(f64::INFINITY)),
                    Some("-inf") => Ok(Value::Float(f64::NEG_INFINITY)),
                    _ => Err(bad("non-finite float tag")),
                },
                other => Err(bad(format!("unknown value tag {other}"))),
            }
        }
        Json::Array(_) => Err(bad("array is not a value")),
    }
}

fn fact_to_json(fact: &DeltaFact) -> Json {
    Json::Array(vec![
        Json::str(fact.predicate.text()),
        value_to_json(&fact.object),
    ])
}

fn fact_from_json(json: &Json) -> Result<DeltaFact> {
    let pair = json.as_array().ok_or_else(|| bad("fact is not an array"))?;
    let [pred, object] = pair else {
        return Err(bad("fact is not a 2-array"));
    };
    let pred = pred.as_str().ok_or_else(|| bad("fact predicate"))?;
    Ok(DeltaFact {
        predicate: intern(pred),
        object: value_from_json(object)?,
    })
}

/// Encode a [`Delta`] into its wire JSON object.
pub fn delta_to_json(delta: &Delta) -> Json {
    let facts = |list: &[DeltaFact]| Json::Array(list.iter().map(fact_to_json).collect());
    Json::Object(
        [
            (
                "entity".to_string(),
                Json::Int(i64::try_from(delta.entity.0).expect("entity id exceeds wire range")),
            ),
            ("add".to_string(), facts(&delta.added)),
            ("del".to_string(), facts(&delta.removed)),
        ]
        .into(),
    )
}

/// Decode a [`Delta`] from its wire JSON object, re-interning predicate
/// names into this process's interner.
pub fn delta_from_json(json: &Json) -> Result<Delta> {
    let entity = json
        .get("entity")
        .and_then(Json::as_i64)
        .ok_or_else(|| bad("delta missing entity"))?;
    let entity = u64::try_from(entity).map_err(|_| bad("negative entity id"))?;
    let facts = |key: &str| -> Result<Vec<DeltaFact>> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("delta missing {key}")))?
            .iter()
            .map(fact_from_json)
            .collect()
    };
    Ok(Delta {
        entity: EntityId(entity),
        added: facts("add")?,
        removed: facts("del")?,
    })
}

impl Delta {
    /// This delta as one compact JSON line — what the oplog dump form prints.
    pub fn to_wire(&self) -> String {
        delta_to_json(self).to_string_compact()
    }

    /// Parse a delta from the wire form produced by [`to_wire`](Self::to_wire).
    pub fn from_wire(line: &str) -> Result<Delta> {
        let json = crate::json::parse(line).map_err(|e| bad(e.to_string()))?;
        delta_from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityRecord, ExtendedTriple, FactMeta, SourceId, TripleIndex};

    fn roundtrip(delta: &Delta) -> Delta {
        Delta::from_wire(&delta.to_wire()).expect("wire round-trip")
    }

    #[test]
    fn every_value_kind_roundtrips() {
        let delta = Delta {
            entity: EntityId(7),
            added: vec![
                DeltaFact {
                    predicate: intern("name"),
                    object: Value::str("Billie \"quoted\" Eilish\n"),
                },
                DeltaFact {
                    predicate: intern("born"),
                    object: Value::Int(2001),
                },
                DeltaFact {
                    predicate: intern("score"),
                    object: Value::Float(0.5),
                },
                DeltaFact {
                    predicate: intern("whole"),
                    object: Value::Float(3.0),
                },
                DeltaFact {
                    predicate: intern("explicit"),
                    object: Value::Bool(false),
                },
                DeltaFact {
                    predicate: intern("label"),
                    object: Value::Entity(EntityId(99)),
                },
                DeltaFact {
                    predicate: intern("pending"),
                    object: Value::source_ref("m42"),
                },
                DeltaFact {
                    predicate: intern("void"),
                    object: Value::Null,
                },
            ],
            removed: vec![DeltaFact {
                predicate: intern("popularity"),
                object: Value::Int(88),
            }],
        };
        assert_eq!(roundtrip(&delta), delta);
    }

    #[test]
    fn non_finite_floats_survive_the_wire() {
        // Includes whole floats too large for fractional digits: they must
        // come back as Float, not decay to Int.
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e15, -1e18] {
            let delta = Delta {
                entity: EntityId(1),
                added: vec![DeltaFact {
                    predicate: intern("x"),
                    object: Value::Float(f),
                }],
                removed: vec![],
            };
            let back = roundtrip(&delta);
            // Value's total ordering makes NaN == NaN, so plain Eq works.
            assert_eq!(back, delta, "{f}");
        }
    }

    #[test]
    fn wire_form_is_name_based_not_symbol_based() {
        let delta = Delta {
            entity: EntityId(3),
            added: vec![DeltaFact {
                predicate: intern("educated_at.school"),
                object: Value::str("UW"),
            }],
            removed: vec![],
        };
        let line = delta.to_wire();
        assert!(
            line.contains("educated_at.school"),
            "predicates ship as text: {line}"
        );
        assert!(!line.contains("Symbol"), "no interner internals: {line}");
    }

    #[test]
    fn malformed_wire_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            r#"{"entity":1}"#,
            r#"{"entity":1,"add":[["only_pred"]],"del":[]}"#,
            r#"{"entity":1,"add":[[3,"v"]],"del":[]}"#,
            r#"{"entity":-4,"add":[],"del":[]}"#,
            r#"{"entity":1,"add":[["p",{"zz":1}]],"del":[]}"#,
            r#"{"entity":1,"add":[["p",{"e":1,"r":"x"}]],"del":[]}"#,
            r#"{"entity":1,"add":[["p",{"e":-2}]],"del":[]}"#,
        ] {
            assert!(Delta::from_wire(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn index_deltas_replay_through_the_wire() {
        // The end-to-end property the oplog relies on: serialize every
        // delta a source index emits, parse it back, apply to an empty
        // index — identical state.
        let mut source = TripleIndex::new();
        let mut replica = TripleIndex::new();
        let meta = FactMeta::from_source(SourceId(1), 0.9);
        let mut rec = EntityRecord::new(EntityId(1));
        rec.triples.push(ExtendedTriple::simple(
            EntityId(1),
            intern("name"),
            Value::str("Alpha"),
            meta.clone(),
        ));
        rec.triples.push(ExtendedTriple::simple(
            EntityId(1),
            intern("knows"),
            Value::Entity(EntityId(2)),
            meta.clone(),
        ));
        let d1 = source.update_entity(&rec);
        rec.triples[0].object = Value::str("Alpha Prime");
        let d2 = source.update_entity(&rec);
        let d3 = source.remove_entity(EntityId(1));
        for delta in [&d1, &d2, &d3] {
            replica.apply(&roundtrip(delta));
        }
        assert_eq!(replica.fact_count(), source.fact_count());
        assert!(replica.is_empty());
    }
}
