//! A freelist of reusable wire buffers.
//!
//! Every message encode and every TCP frame write used to allocate a fresh
//! buffer. [`BufPool`] recycles them instead: encode paths draw cleared
//! [`BytesMut`] scratch via [`BufPool::get`], and consumers hand storage back
//! with [`BufPool::put`] (for scratch they own) or [`BufPool::reclaim`] (for
//! frozen [`Bytes`] whose last clone just died). A pooled buffer keeps its
//! allocation, so steady-state hot paths stop touching the allocator.
//!
//! Pooling is purely an optimization: `get` on an empty pool falls back to a
//! fresh allocation, and oversized or surplus buffers are dropped rather than
//! hoarded. The pool the data path uses is per thread ([`thread_pool`]): a buffer
//! released on a thread other than the one that drew it simply joins that
//! thread's freelist.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::{Bytes, BytesMut};

use crate::unpoisoned;

/// Default cap on pooled buffers (per pool).
pub const DEFAULT_MAX_BUFFERS: usize = 64;

/// Default cap on a single pooled buffer's capacity; larger buffers are
/// dropped on return so one jumbo frame cannot pin memory forever.
pub const DEFAULT_MAX_CAPACITY: usize = 1 << 20;

/// Cumulative counters describing how well the pool is working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from the freelist.
    pub hits: u64,
    /// `get` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back into the freelist.
    pub returns: u64,
    /// Buffers rejected on return (pool full, buffer oversized, or storage
    /// still shared).
    pub discards: u64,
}

/// A mutex-guarded freelist of [`BytesMut`] buffers.
#[derive(Debug)]
pub struct BufPool {
    free: Mutex<Vec<BytesMut>>,
    max_buffers: usize,
    max_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_BUFFERS, DEFAULT_MAX_CAPACITY)
    }
}

impl BufPool {
    /// Creates a pool holding at most `max_buffers` buffers of at most
    /// `max_capacity` bytes each.
    pub fn new(max_buffers: usize, max_capacity: usize) -> Self {
        BufPool {
            free: Mutex::new(Vec::new()),
            max_buffers,
            max_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
        }
    }

    /// Takes a cleared buffer from the freelist, allocating if it is empty.
    pub fn get(&self) -> BytesMut {
        let recycled = unpoisoned(self.free.lock()).pop();
        match recycled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::new()
            }
        }
    }

    /// Returns a buffer to the freelist; drops it if the pool is full or the
    /// buffer outgrew the per-buffer capacity cap.
    pub fn put(&self, buf: BytesMut) {
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut free = unpoisoned(self.free.lock());
        if free.len() >= self.max_buffers {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.returns.fetch_add(1, Ordering::Relaxed);
        free.push(buf);
    }

    /// Recovers the storage behind a frozen [`Bytes`] when this was its last
    /// handle; shared or oversized storage is simply dropped.
    pub fn reclaim(&self, bytes: Bytes) {
        match bytes.try_into_mut() {
            Ok(buf) => self.put(buf),
            Err(_still_shared) => {
                self.discards.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Buffers currently parked in the freelist.
    pub fn idle(&self) -> usize {
        unpoisoned(self.free.lock()).len()
    }

    /// Cumulative hit/miss/return/discard counts.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
        }
    }
}

/// Runs `f` with the calling thread's pool, the one its encode paths and
/// transport writers share. A process that hosts several nodes — a
/// simulated cluster, a loopback mesh — runs each on a thread of its own,
/// so each node recycles through a freelist no other thread locks, where
/// one pool per process would have every node's sends and receives contend
/// on its mutex. Returns `None`, without calling `f`, while the thread's
/// locals are being torn down; callers then go unpooled.
pub fn thread_pool<R>(f: impl FnOnce(&BufPool) -> R) -> Option<R> {
    thread_local! {
        static LOCAL: BufPool = BufPool::default();
    }
    LOCAL.try_with(f).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_storage() {
        let pool = BufPool::new(4, 1024);
        let mut buf = pool.get();
        assert_eq!(pool.stats().misses, 1);
        buf.extend_from_slice(&[7u8; 100]);
        pool.put(buf);
        assert_eq!(pool.idle(), 1);

        let recycled = pool.get();
        assert!(recycled.is_empty(), "recycled buffers come back cleared");
        assert!(recycled.capacity() >= 100, "allocation survives the round trip");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn pool_caps_are_enforced() {
        let pool = BufPool::new(2, 64);
        for _ in 0..3 {
            let mut b = BytesMut::with_capacity(32);
            b.extend_from_slice(&[0u8; 8]);
            pool.put(b);
        }
        assert_eq!(pool.idle(), 2, "third buffer dropped, pool full");

        let mut jumbo = BytesMut::with_capacity(128);
        jumbo.extend_from_slice(&[0u8; 65]);
        pool.put(jumbo);
        assert_eq!(pool.idle(), 2, "oversized buffer dropped");
        assert!(pool.stats().discards >= 2);
    }

    #[test]
    fn reclaim_recovers_unique_bytes_only() {
        let pool = BufPool::new(4, 1024);
        pool.reclaim(Bytes::from(vec![1u8; 16]));
        assert_eq!(pool.idle(), 1);

        let shared = Bytes::from(vec![2u8; 16]);
        let _other = shared.clone();
        pool.reclaim(shared);
        assert_eq!(pool.idle(), 1, "shared storage cannot be reclaimed");
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let pool = BufPool::new(4, 1024);
        pool.put(BytesMut::new());
        assert_eq!(pool.idle(), 0);
    }
}
