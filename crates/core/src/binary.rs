//! The binary vocabulary shared by the checkpoint sections, the wire
//! payloads and the operation-log frames: LEB128 varints, length-prefixed
//! UTF-8, the tagged [`Value`] codec and the FNV-1a checksum.
//!
//! Writers append to a `Vec<u8>`; readers walk a `(bytes, &mut at)`
//! cursor over a borrowed slice and hand strings back as `&str` into it,
//! so a caller interns or copies exactly once. Every reader checks what it
//! is about to consume against the bytes that remain — input that lies
//! about a length is an `Err`, never a panic or an allocation sized by
//! the lie. A format that carries a *count* of items bounds it with
//! [`take_count`] before reserving for it.

use crate::{EntityId, Result, SagaError, Value};

fn err(msg: &str) -> SagaError {
    SagaError::Storage(format!("binary codec: {msg}"))
}

/// FNV-1a 64 — the checksum of checkpoint sections and operation-log
/// frames. Hand-rolled and dependency-free; collision resistance is not
/// the goal, torn/bit-rot detection is.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encoded length of `v` as an LEB128 varint.
#[inline]
pub(crate) fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros() as usize).max(1)).div_ceil(7)
}

/// Write `v` as an LEB128 varint at the front of `buf` and return its
/// length, or `None` (nothing written) if `buf` is too short — the
/// fixed-capacity twin of [`push_varint`].
pub(crate) fn put_varint(buf: &mut [u8], mut v: u64) -> Option<usize> {
    let len = varint_len(v);
    let out = buf.get_mut(..len)?;
    for b in out.iter_mut() {
        *b = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
    }
    out[len - 1] &= 0x7f;
    Some(len)
}

/// Read one varint at `*at`, advancing past it.
#[inline]
pub fn take_varint(bytes: &[u8], at: &mut usize) -> Result<u64> {
    // Counts, small ids and id-list deltas are mostly one byte; the id
    // lists of wide answers make this the wire decoder's inner loop.
    match bytes.get(*at) {
        Some(&b) if b < 0x80 => {
            *at += 1;
            Ok(u64::from(b))
        }
        _ => take_varint_multibyte(bytes, at),
    }
}

fn take_varint_multibyte(bytes: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = take_u8(bytes, at)?;
        if shift >= 64 {
            return Err(err("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Read a varint that must fit a `u32` (source and relationship ids).
pub fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32> {
    u32::try_from(take_varint(bytes, at)?).map_err(|_| err("id exceeds u32"))
}

/// Read one byte at `*at`, advancing past it.
#[inline]
pub fn take_u8(bytes: &[u8], at: &mut usize) -> Result<u8> {
    let b = *bytes.get(*at).ok_or_else(|| err("truncated"))?;
    *at += 1;
    Ok(b)
}

/// Borrow the next `n` bytes, advancing past them.
pub fn take_slice<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = at
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| err("truncated"))?;
    let s = &bytes[*at..end];
    *at = end;
    Ok(s)
}

/// Read an item count whose items each occupy at least `min_item_bytes`
/// (≥ 1) of what remains — the bound that makes `Vec::with_capacity(n)`
/// safe on untrusted input.
pub fn take_count(bytes: &[u8], at: &mut usize, min_item_bytes: usize) -> Result<usize> {
    let n = take_varint(bytes, at)?;
    let room = ((bytes.len() - *at) / min_item_bytes) as u64;
    if n > room {
        return Err(err("count exceeds the bytes that remain"));
    }
    Ok(n as usize)
}

/// Append a string as varint byte length + UTF-8.
pub fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Borrow one length-prefixed string, advancing past it.
pub fn take_str<'a>(bytes: &'a [u8], at: &mut usize) -> Result<&'a str> {
    let n = usize::try_from(take_varint(bytes, at)?).map_err(|_| err("truncated"))?;
    std::str::from_utf8(take_slice(bytes, at, n)?).map_err(|_| err("invalid utf-8 string"))
}

/// Map a signed value onto the unsigned varint domain, small magnitudes
/// first.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a [`Value`]: its [`kind_tag`](Value::kind_tag), then the
/// payload (floats as their eight bit-pattern bytes, so NaN payloads,
/// infinities and `-0.0` survive).
pub fn push_value(buf: &mut Vec<u8>, value: &Value) {
    buf.push(value.kind_tag());
    match value {
        Value::Null => {}
        Value::Bool(b) => buf.push(u8::from(*b)),
        Value::Int(i) => push_varint(buf, zigzag(*i)),
        Value::Float(f) => buf.extend_from_slice(&f.to_bits().to_le_bytes()),
        Value::Str(s) => push_str(buf, s),
        Value::Entity(e) => push_varint(buf, e.0),
        Value::SourceRef(s) => push_str(buf, s),
    }
}

/// Read one tagged [`Value`], advancing past it.
pub fn take_value(bytes: &[u8], at: &mut usize) -> Result<Value> {
    Ok(match take_u8(bytes, at)? {
        0 => Value::Null,
        1 => Value::Bool(take_u8(bytes, at)? != 0),
        2 => Value::Int(unzigzag(take_varint(bytes, at)?)),
        3 => {
            let bits: [u8; 8] = take_slice(bytes, at, 8)?
                .try_into()
                .expect("take_slice returned 8 bytes");
            Value::Float(f64::from_bits(u64::from_le_bytes(bits)))
        }
        4 => Value::str(take_str(bytes, at)?),
        5 => Value::Entity(EntityId(take_varint(bytes, at)?)),
        6 => Value::source_ref(take_str(bytes, at)?),
        _ => return Err(err("unknown value tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_and_zigzag_roundtrip_at_the_edges() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX >> 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut at = 0;
            assert_eq!(take_varint(&buf, &mut at).unwrap(), v);
            assert_eq!(at, buf.len());
            assert_eq!(varint_len(v), buf.len());
            // The fixed-capacity writer writes the same bytes, or none.
            let mut fixed = [0xaa; 10];
            assert_eq!(put_varint(&mut fixed, v), Some(buf.len()));
            assert_eq!(&fixed[..buf.len()], &buf[..]);
            let mut short = vec![0xaa; buf.len() - 1];
            assert_eq!(put_varint(&mut short, v), None);
            assert!(short.iter().all(|&b| b == 0xaa), "nothing written");
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Eleven continuation bytes: more than a u64 holds.
        assert!(take_varint(&[0xff; 11], &mut 0).is_err());
        assert!(take_varint(&[0x80], &mut 0).is_err(), "truncated");
    }

    #[test]
    fn lengths_and_counts_are_checked_against_what_remains() {
        let mut buf = Vec::new();
        push_varint(&mut buf, u64::MAX);
        buf.extend_from_slice(b"abc");
        assert!(take_str(&buf, &mut 0).is_err());
        assert!(take_count(&buf, &mut 0, 1).is_err());
        let mut buf = Vec::new();
        push_varint(&mut buf, 3);
        buf.extend_from_slice(b"abcdef");
        assert_eq!(take_count(&buf, &mut 0, 2).unwrap(), 3);
        assert!(take_count(&buf, &mut 0, 3).is_err());
        assert_eq!(take_str(&buf, &mut 0).unwrap(), "abc");
    }
}
