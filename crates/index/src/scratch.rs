//! Per-worker query scratch arenas: reusable buffers for the query hot path.
//!
//! An index query needs a `Vec<u64>` of exact key bits to probe the
//! [`QueryCache`](crate::QueryCache) and a vector to stage its neighbours in.  [`QueryScratch`]
//! hoists those buffers out of the call: they live in a thread-keyed arena and are reused by
//! every query the thread runs, so a warm-cache query — and, once the thread is warm, a
//! query with no cache at all — performs **zero heap allocations** end to end (see
//! [`IndexView::top2`](crate::IndexView::top2) and the `*_into` query variants).
//!
//! # Why the scratch is per *worker*
//!
//! Queries run on the monitoring engine's pool workers, which persist across ticks
//! (`mpn-pool` spawns them once and parks them between scopes).  Keying the arena by thread
//! therefore means each worker warms its buffers once and keeps them for the lifetime of
//! the fleet — there is no per-tick arena churn and no cross-worker synchronisation, because
//! a scratch is only ever touched by the thread that owns it.
//!
//! # What stays on the call stack
//!
//! The candidate walks
//! ([`RTree::candidates_within_user_radii_into`](crate::RTree::candidates_within_user_radii_into)
//! and the sum-radius variant) need a visit stack; it is the program stack — the walk
//! recurses, bounded by the R-tree height (a handful of levels even at millions of POIs).
//! The GNN frontier ([`GnnSearch::top_k_into`](crate::GnnSearch::top_k_into)) is a heap of
//! `(level, index)` node names that borrows no tree, so it is per-thread too, kept beside
//! this scratch in `gnn.rs`: [`IndexView::top2`](crate::IndexView::top2) holds the scratch
//! while its search runs, and a frontier inside it would be the fresh empty one a nested
//! [`with_scratch`] sees.  A traversal is not the rare case: a server without a
//! [`QueryCache`](crate::QueryCache) — the one the repository benchmark runs — traverses on
//! every recomputation, and pays no allocation for it (`tests/alloc_gates.rs`,
//! `uncached_circle_recompute`).

use std::cell::Cell;

use crate::gnn::GnnNeighbor;

/// Reusable per-thread buffers for the query hot path.
///
/// Obtain one via [`with_scratch`]; the buffers keep their capacity between queries, which
/// is the whole point.  All fields are crate-internal — the scratch is plumbing, not API.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Exact scalar bits of the cache probe key (see `cache::ProbeKey`).
    pub(crate) probe: Vec<u64>,
    /// kNN result staging: uncached traversals write here before the caller copies out the
    /// prefix it needs (e.g. the top-2 of Circle-MSR).
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
