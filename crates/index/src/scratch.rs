//! Per-thread query scratch arenas: reusable buffers for the query hot path.
//!
//! [`RTree::top2`](crate::RTree::top2) stages its neighbours in a vector before it
//! copies out the two it returns.  [`QueryScratch`] hoists that vector out of the call: it
//! lives in a thread-keyed arena and is reused by every query the thread runs, so once the
//! thread is warm a query performs **zero heap allocations** end to end (see the `*_into`
//! query variants).
//!
//! # Why the scratch is per *thread*
//!
//! A monitoring engine runs every query on the thread that ticks it.  Keying the arena by
//! thread therefore means that thread warms its buffers once and keeps them for the lifetime
//! of the fleet, with no cross-thread synchronisation, because a scratch is only ever
//! touched by the thread that owns it.
//!
//! # What stays on the call stack
//!
//! The candidate walks
//! ([`RTree::candidates_within_user_radii_into`](crate::RTree::candidates_within_user_radii_into)
//! and the sum-radius variant) need a visit stack; it is the program stack — the walk
//! recurses, bounded by the R-tree height (a handful of levels even at millions of POIs).
//! The GNN frontier ([`GnnSearch::top_k_into`](crate::GnnSearch::top_k_into)) is a flat vector
//! of `(level, index)` node names that borrows no tree, so it is per-thread too, kept beside
//! this scratch in `gnn.rs`: [`RTree::top2`](crate::RTree::top2) holds the scratch
//! while its search runs, and a frontier inside it would be the fresh empty one a nested
//! [`with_scratch`] sees.  Every recomputation traverses the tree — the server the
//! repository benchmark runs included — and pays no allocation for it
//! (`tests/alloc_gates.rs`, `uncached_circle_recompute`).

use std::cell::Cell;

use crate::gnn::GnnNeighbor;

/// Reusable per-thread buffers for the query hot path.
///
/// Obtain one via [`with_scratch`]; the buffers keep their capacity between queries, which
/// is the whole point.  All fields are crate-internal — the scratch is plumbing, not API.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// kNN result staging: traversals write here before the caller copies out the prefix it
    /// needs (e.g. the top-2 of Circle-MSR).
    pub(crate) neighbors: Vec<GnnNeighbor>,
}

thread_local! {
    static SCRATCH: Cell<QueryScratch> = Cell::new(QueryScratch::default());
}

/// Runs `f` with this thread's [`QueryScratch`].
///
/// The scratch is taken out of thread-local storage for the duration of the call (a nested
/// `with_scratch` sees a fresh, empty scratch — correct, just unamortised) and put back
/// afterwards with whatever capacity the call grew.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}
