//! Allocation pins for a fact's metadata.
//!
//! Nearly every fact has one contributing source. Building, refreshing,
//! cloning and retracting such a fact must not touch the allocator; only
//! a second source may. A counting global allocator (scoped to this test
//! binary) counts the calls each operation makes on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use saga_core::{intern, EntityId, ExtendedTriple, FactMeta, SourceId, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations made while a thread tears down its locals
    // are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `bump` only writes a
// const-initialised thread-local `Cell` and never allocates. The default
// `alloc_zeroed` calls `alloc`, so it is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocator calls it makes on this thread. The
/// result is returned, so dropping it is not part of the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = black_box(f());
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn one_source_metadata_allocates_nothing() {
    let (_, n) = allocations(|| FactMeta::from_source(SourceId(1), 0.9));
    assert_eq!(n, 0, "FactMeta::from_source");
    let (_, n) = allocations(FactMeta::default);
    assert_eq!(n, 0, "FactMeta::default");

    let mut meta = FactMeta::from_source(SourceId(1), 0.9);
    let ((), n) = allocations(|| meta.merge_source(SourceId(1), 0.5));
    assert_eq!(n, 0, "merge_source refreshing the only source");
    assert_eq!(meta.source_count(), 1);

    let (orphan, n) = allocations(|| meta.retract_source(SourceId(1)));
    assert_eq!(n, 0, "retract_source of the only source");
    assert!(orphan);
}

#[test]
fn cloning_a_one_source_fact_allocates_nothing() {
    let triple = ExtendedTriple::simple(
        EntityId(7),
        intern("score"),
        Value::Int(42),
        FactMeta::from_source(SourceId(1), 0.9),
    );
    let (copy, n) = allocations(|| triple.clone());
    assert_eq!(n, 0, "clone of a one-source Int fact");
    assert_eq!(copy, triple);
}

#[test]
fn only_a_second_source_allocates() {
    let mut meta = FactMeta::from_source(SourceId(1), 0.9);
    let ((), n) = allocations(|| meta.merge_source(SourceId(2), 0.8));
    assert_eq!(n, 1, "adding a second source");
    assert_eq!(meta.source_count(), 2);
}
