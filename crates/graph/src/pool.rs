//! Shared [`BfsScratch`] pooling for concurrent BFS work.
//!
//! The TESC hot path runs thousands of `h`-hop BFS searches, each
//! needing an `O(|V|)` scratch (epoch-stamped visited marks plus a
//! frontier queue). A [`ScratchPool`] keeps a free list of scratches
//! behind a mutex so that any number of worker threads can check one
//! out, run searches, and return it on drop — the pool grows to the
//! high-water mark of concurrent users and never shrinks, so steady-
//! state operation allocates nothing.
//!
//! The lock is held only for the check-out/check-in push/pop, never
//! during a search, so contention is negligible next to BFS cost.
//!
//! Shareability contract: [`CsrGraph`] and
//! [`crate::VicinityIndex`] are immutable after
//! construction and therefore `Sync` — one instance of each can back
//! every thread of a batch run. `ScratchPool` is the mutable
//! counterpart designed for the same sharing (asserted at compile time
//! below).

use crate::adjacency::Adjacency;
use crate::bfs::{BfsScratch, MsBfsScratch};
use crate::csr::CsrGraph;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Below this node count, parallel fan-outs cost more in thread
/// spawn/synchronization than they recover in BFS work:
/// [`crate::VicinityIndex::build_parallel`] falls back to its serial
/// sweep, and `tesc::batch::run_batch` runs its request on the calling
/// thread. One named constant so the two layers' decisions cannot
/// drift apart (results are bit-identical either way — this is purely
/// a scheduling choice).
pub const PARALLEL_MIN_NODES: usize = 1024;

/// A thread-safe free list of [`BfsScratch`] instances for one graph
/// size.
#[derive(Debug)]
pub struct ScratchPool {
    num_nodes: usize,
    free: Mutex<Vec<BfsScratch>>,
    /// Free list for the 64-way multi-source kernel's scratches
    /// ([`MsBfsScratch`]) — separate, because a grouped density sweep
    /// needs *both* kinds at different times and their footprints
    /// differ (lane words vs epoch stamps).
    multi_free: Mutex<Vec<MsBfsScratch>>,
}

impl ScratchPool {
    /// Pool of scratches sized for graphs of up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        ScratchPool {
            num_nodes,
            free: Mutex::new(Vec::new()),
            multi_free: Mutex::new(Vec::new()),
        }
    }

    /// Pool sized for `g` (any adjacency encoding).
    pub fn for_graph<G: Adjacency>(g: &G) -> Self {
        Self::new(g.num_nodes())
    }

    /// The node capacity every pooled scratch is created with.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Check a scratch out of the pool, creating one if the free list
    /// is empty. The scratch returns to the pool when the guard drops.
    pub fn acquire(&self) -> PooledScratch<'_> {
        let scratch = self
            .free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| BfsScratch::new(self.num_nodes));
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Check a multi-source scratch ([`MsBfsScratch`]) out of the
    /// pool, creating one if the free list is empty. The scratch
    /// returns to the pool when the guard drops.
    pub fn acquire_multi(&self) -> PooledMultiScratch<'_> {
        let scratch = self
            .multi_free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| MsBfsScratch::new(self.num_nodes));
        PooledMultiScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Number of scratches currently idle in the pool (diagnostics:
    /// after a batch run this is the high-water mark of concurrency).
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }

    /// Number of idle multi-source scratches.
    pub fn idle_multi(&self) -> usize {
        self.multi_free.lock().expect("scratch pool poisoned").len()
    }
}

/// RAII guard dereferencing to a pooled [`BfsScratch`]; returns the
/// scratch to its [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct PooledScratch<'p> {
    pool: &'p ScratchPool,
    scratch: Option<BfsScratch>,
}

impl Deref for PooledScratch<'_> {
    type Target = BfsScratch;

    #[inline]
    fn deref(&self) -> &BfsScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut BfsScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            // A poisoned pool means another worker panicked; dropping
            // the scratch on the floor is then the right degradation.
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(s);
            }
        }
    }
}

/// RAII guard dereferencing to a pooled [`MsBfsScratch`]; returns the
/// scratch to its [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct PooledMultiScratch<'p> {
    pool: &'p ScratchPool,
    scratch: Option<MsBfsScratch>,
}

impl Deref for PooledMultiScratch<'_> {
    type Target = MsBfsScratch;

    #[inline]
    fn deref(&self) -> &MsBfsScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for PooledMultiScratch<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut MsBfsScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledMultiScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            if let Ok(mut free) = self.pool.multi_free.lock() {
                free.push(s);
            }
        }
    }
}

// Compile-time shareability contract for the batch engine: one graph,
// one vicinity index and one pool serve all worker threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<CsrGraph>();
    assert_sync::<crate::compressed::CompressedCsr>();
    assert_sync::<crate::VicinityIndex>();
    assert_sync::<ScratchPool>();
    assert_sync::<PooledScratch<'_>>();
    assert_sync::<PooledMultiScratch<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    #[test]
    fn acquire_creates_then_reuses() {
        let pool = ScratchPool::new(8);
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.idle(), 0, "both scratches checked out");
        }
        assert_eq!(pool.idle(), 2, "both returned on drop");
        {
            let _c = pool.acquire();
            assert_eq!(pool.idle(), 1, "reused from the free list");
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pooled_scratch_searches_work() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let pool = ScratchPool::for_graph(&g);
        let mut s = pool.acquire();
        assert_eq!(s.vicinity_size(&g, 2, 1), 3);
        assert_eq!(s.vicinity_size(&g, 0, 2), 3);
    }

    #[test]
    fn multi_scratch_acquire_creates_then_reuses() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let pool = ScratchPool::for_graph(&g);
        assert_eq!(pool.idle_multi(), 0);
        {
            let mut a = pool.acquire_multi();
            let _b = pool.acquire_multi();
            a.visit_h_vicinity_multi(&g, &[0, 5], 1, &crate::Budget::unlimited())
                .unwrap();
            assert_eq!(a.union_footprint(), 4);
            assert_eq!(pool.idle_multi(), 0, "both checked out");
        }
        assert_eq!(pool.idle_multi(), 2, "both returned on drop");
        // The two free lists are independent.
        let _s = pool.acquire();
        assert_eq!(pool.idle_multi(), 2);
    }

    #[test]
    fn pool_is_usable_from_scoped_threads() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let pool = ScratchPool::for_graph(&g);
        let sizes: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (pool, g) = (&pool, &g);
                    scope.spawn(move || {
                        let mut s = pool.acquire();
                        s.vicinity_size(g, t as u32, 1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sizes, vec![2, 3, 3, 3]);
        assert!(pool.idle() >= 1);
    }
}
