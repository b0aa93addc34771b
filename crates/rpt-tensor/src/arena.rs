//! A bump-pointer arena for tape node payloads.
//!
//! Training-mode tapes used to pay two heap allocations per recorded op:
//! a `Box` for the backward closure and a `Vec` for the parent-id list
//! (PR 5's `tensor.tape_nodes` / `tensor.tape_bytes` metrics put this at
//! thousands of mallocs per training step). The [`Arena`] replaces the
//! closure `Box`es with a bump allocator: closures of any size are
//! written into large chunks advanced by pointer arithmetic, and their
//! destructors are replayed (in reverse allocation order) when the arena
//! drops with the tape. Parent lists moved inline into the node (see
//! `tape.rs`), so a recorded op now allocates amortized-zero times.
//!
//! ## Safety model
//!
//! * Chunks are never freed, shrunk, or moved while the arena lives —
//!   growth appends a new chunk — so every pointer handed out stays
//!   valid until `Drop`.
//! * Values are `ptr::write`-moved in; if their type needs dropping, a
//!   type-erased destructor thunk is queued and run exactly once, on
//!   arena drop, in reverse order.
//! * The arena is `!Sync` (interior `RefCell`/`Cell`) and must not be
//!   shared across threads; the tape that owns it is single-threaded by
//!   construction.

use std::alloc::{alloc, dealloc, Layout};
use std::cell::{Cell, RefCell};

/// First chunk size; subsequent chunks double, so an arena of total size
/// `S` performs `O(log S)` real allocations.
const CHUNK_MIN: usize = 64 * 1024;

struct Chunk {
    ptr: *mut u8,
    layout: Layout,
    /// Bytes used (bump offset from `ptr`).
    used: usize,
}

/// Type-erased destructor: the thunk knows the concrete `T`, the pointer
/// is the arena address the value was written to.
type Dropper = (unsafe fn(*mut u8), *mut u8);

/// A bump allocator with drop tracking. See the module docs.
#[derive(Default)]
pub struct Arena {
    chunks: RefCell<Vec<Chunk>>,
    drops: RefCell<Vec<Dropper>>,
    bytes: Cell<usize>,
}

impl Arena {
    /// An empty arena; no memory is reserved until the first allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total payload bytes allocated so far (excluding chunk slack and
    /// alignment padding). This is the `tensor.tape_arena_bytes` metric.
    pub fn allocated_bytes(&self) -> usize {
        self.bytes.get()
    }

    /// Moves `val` into the arena and returns its stable address. The
    /// pointer is valid, and the value alive, until the arena is dropped;
    /// the arena runs the destructor (if any) at that point.
    pub fn alloc<T>(&self, val: T) -> *mut T {
        let layout = Layout::new::<T>();
        if layout.size() == 0 {
            // ZSTs need no storage and no drop data; a well-aligned
            // dangling pointer is the canonical representation.
            std::mem::forget(val);
            return std::ptr::NonNull::<T>::dangling().as_ptr();
        }
        let p = self.alloc_raw(layout) as *mut T;
        // SAFETY: `alloc_raw` returned `layout.size()` bytes aligned to
        // `layout.align()`, unaliased by any earlier allocation.
        unsafe { std::ptr::write(p, val) };
        if std::mem::needs_drop::<T>() {
            unsafe fn dropper<T>(p: *mut u8) {
                // SAFETY: called exactly once, on the address a `T` was
                // written to and never moved from.
                unsafe { std::ptr::drop_in_place(p as *mut T) }
            }
            self.drops.borrow_mut().push((dropper::<T>, p as *mut u8));
        }
        p
    }

    fn alloc_raw(&self, layout: Layout) -> *mut u8 {
        let mut chunks = self.chunks.borrow_mut();
        if let Some(c) = chunks.last_mut() {
            if let Some(p) = bump(c, layout) {
                self.bytes.set(self.bytes.get() + layout.size());
                return p;
            }
        }
        // Need a fresh chunk: double the last size, covering at least the
        // request (plus worst-case alignment padding).
        let want = chunks
            .last()
            .map(|c| c.layout.size().saturating_mul(2))
            .unwrap_or(CHUNK_MIN)
            .max(layout.size() + layout.align());
        let chunk_layout = Layout::from_size_align(want, CHUNK_ALIGN).expect("arena chunk layout");
        // SAFETY: `want` is non-zero (size + align of a non-ZST request).
        let ptr = unsafe { alloc(chunk_layout) };
        assert!(!ptr.is_null(), "arena chunk allocation failed");
        chunks.push(Chunk {
            ptr,
            layout: chunk_layout,
            used: 0,
        });
        let p = bump(chunks.last_mut().expect("just pushed"), layout)
            .expect("fresh chunk must fit the request");
        self.bytes.set(self.bytes.get() + layout.size());
        p
    }
}

/// Chunk base alignment. Individual allocations align their own bump
/// address, so this only has to be a sane floor, not a maximum.
const CHUNK_ALIGN: usize = 16;

/// Tries to carve `layout` out of `c`, advancing its bump offset.
fn bump(c: &mut Chunk, layout: Layout) -> Option<*mut u8> {
    let base = c.ptr as usize;
    let aligned = (base + c.used + layout.align() - 1) & !(layout.align() - 1);
    let end = aligned.checked_add(layout.size())?;
    if end > base + c.layout.size() {
        return None;
    }
    c.used = end - base;
    Some(aligned as *mut u8)
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Reverse order mirrors what nested ownership would do and keeps
        // later allocations (which may reference earlier state by Arc)
        // dying first.
        for (f, p) in self.drops.borrow_mut().drain(..).rev() {
            // SAFETY: each (thunk, ptr) pair was registered by `alloc`
            // for a live, never-moved value and is dropped exactly once.
            unsafe { f(p) };
        }
        for c in self.chunks.borrow_mut().drain(..) {
            // SAFETY: allocated with exactly this layout in `alloc_raw`.
            unsafe { dealloc(c.ptr, c.layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn values_survive_growth_and_bytes_accumulate() {
        let arena = Arena::new();
        let mut ptrs = Vec::new();
        for i in 0..10_000u64 {
            ptrs.push(arena.alloc([i; 4]));
        }
        assert_eq!(arena.allocated_bytes(), 10_000 * 32);
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: arena is alive; pointers are stable across growth.
            assert_eq!(unsafe { (*p)[0] }, i as u64);
        }
    }

    #[test]
    fn destructors_run_exactly_once_on_drop() {
        let witness = Rc::new(());
        {
            let arena = Arena::new();
            for _ in 0..100 {
                arena.alloc(Rc::clone(&witness));
            }
            assert_eq!(Rc::strong_count(&witness), 101);
        }
        assert_eq!(Rc::strong_count(&witness), 1, "arena drop must release");
    }

    #[test]
    fn mixed_alignment_allocations_are_aligned() {
        let arena = Arena::new();
        for i in 0..500 {
            if i % 3 == 0 {
                let p = arena.alloc(0xABu8);
                assert_eq!(unsafe { *p }, 0xAB);
            } else if i % 3 == 1 {
                let p = arena.alloc(0x1122_3344_5566_7788u64);
                assert_eq!(p as usize % std::mem::align_of::<u64>(), 0);
                assert_eq!(unsafe { *p }, 0x1122_3344_5566_7788);
            } else {
                let p = arena.alloc([1.5f64; 7]);
                assert_eq!(p as usize % std::mem::align_of::<[f64; 7]>(), 0);
                assert_eq!(unsafe { (*p)[6] }, 1.5);
            }
        }
    }

    #[test]
    fn oversized_allocation_gets_its_own_chunk() {
        let arena = Arena::new();
        let big = vec![7u8; CHUNK_MIN * 3];
        let p = arena.alloc(big);
        assert_eq!(unsafe { (*p).len() }, CHUNK_MIN * 3);
        // and the arena still serves small allocations afterwards
        let q = arena.alloc(42u32);
        assert_eq!(unsafe { *q }, 42);
    }

    #[test]
    fn zst_allocation_is_free() {
        let arena = Arena::new();
        struct Zst;
        let p = arena.alloc(Zst);
        assert!(!p.is_null());
        assert_eq!(arena.allocated_bytes(), 0);
    }

    #[test]
    fn closures_can_be_stored_and_called_via_raw_pointer() {
        let arena = Arena::new();
        let captured = [1.0f32, 2.0, 3.0];
        let p: *mut _ = arena.alloc(move |x: f32| captured.iter().sum::<f32>() * x);
        // SAFETY: arena alive, pointer stable.
        let f = unsafe { &*p };
        assert_eq!(f(2.0), 12.0);
    }
}
