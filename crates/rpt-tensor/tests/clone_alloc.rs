//! Cloning a tensor moves an `Arc` and an inline shape: no heap
//! allocation, whatever the rank. A counting allocator proves it for
//! `Tensor::clone` and for `Tape::value`, which clones a node's value on
//! every op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpt_tensor::{Tape, Tensor, MAX_DIMS};

struct Counting;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn tensor_clone_and_tape_value_allocate_nothing() {
    for rank in 1..=MAX_DIMS {
        let shape = vec![2; rank];
        let t = Tensor::zeros(&shape);
        let mut copies = Vec::with_capacity(64);
        assert_eq!(
            allocations(|| copies.extend((0..64).map(|_| t.clone()))),
            0,
            "Tensor::clone at rank {rank}"
        );
        assert!(copies.iter().all(|c| c.shape() == shape.as_slice()));

        let tape = Tape::new();
        let v = tape.leaf(t.clone());
        copies.clear();
        assert_eq!(
            allocations(|| copies.extend((0..64).map(|_| tape.value(v)))),
            0,
            "Tape::value at rank {rank}"
        );
        assert!(copies.iter().all(|c| c.shape() == shape.as_slice()));
    }
}
