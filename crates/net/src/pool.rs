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

use std::cell::Cell;

use bytes::{Bytes, BytesMut};

/// Cap on pooled buffers (per pool).
pub const DEFAULT_MAX_BUFFERS: usize = 64;

/// Cap on a single pooled buffer's capacity; larger buffers are dropped on
/// return so one jumbo frame cannot pin memory forever.
pub const DEFAULT_MAX_CAPACITY: usize = 1 << 20;

/// A freelist of [`BytesMut`] buffers, owned by one thread.
#[derive(Default)]
pub struct BufPool {
    free: Cell<Vec<BytesMut>>,
}

impl BufPool {
    /// Creates an empty pool holding at most [`DEFAULT_MAX_BUFFERS`] buffers
    /// of at most [`DEFAULT_MAX_CAPACITY`] bytes each.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Runs `f` on the freelist, taken out of its cell for the call and put
    /// back after: a pool reached again from inside `f` finds it empty
    /// instead of panicking, as a `RefCell` borrowed twice would.
    fn with_free<R>(&self, f: impl FnOnce(&mut Vec<BytesMut>) -> R) -> R {
        let mut free = self.free.take();
        let out = f(&mut free);
        self.free.set(free);
        out
    }

    /// Takes a cleared buffer from the freelist, allocating if it is empty.
    pub fn get(&self) -> BytesMut {
        match self.with_free(Vec::pop) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => BytesMut::new(),
        }
    }

    /// Returns a buffer to the freelist; drops it if the pool is full or the
    /// buffer outgrew the per-buffer capacity cap.
    pub fn put(&self, buf: BytesMut) {
        if buf.capacity() == 0 || buf.capacity() > DEFAULT_MAX_CAPACITY {
            return;
        }
        self.with_free(|free| {
            if free.len() < DEFAULT_MAX_BUFFERS {
                free.push(buf);
            }
        });
    }

    /// Recovers the storage behind a frozen [`Bytes`] when this was its last
    /// handle; shared or oversized storage is simply dropped.
    pub fn reclaim(&self, bytes: Bytes) {
        if let Ok(buf) = bytes.try_into_mut() {
            self.put(buf);
        }
    }

    /// Buffers currently parked in the freelist.
    pub fn idle(&self) -> usize {
        self.with_free(|free| free.len())
    }
}

/// Runs `f` with the calling thread's pool, the one its encode paths and
/// transport writers share. A process that hosts several nodes — a
/// simulated cluster, a loopback mesh — runs each on a thread of its own,
/// so each node recycles through a freelist no other thread touches, where
/// one pool per process would have every node's sends and receives contend
/// on a lock. Returns `None`, without calling `f`, while the thread's
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
        let pool = BufPool::new();
        let mut buf = pool.get();
        assert_eq!(buf.capacity(), 0, "an empty pool allocates nothing up front");
        buf.extend_from_slice(&[7u8; 100]);
        pool.put(buf);
        assert_eq!(pool.idle(), 1);

        let recycled = pool.get();
        assert!(recycled.is_empty(), "recycled buffers come back cleared");
        assert!(recycled.capacity() >= 100, "allocation survives the round trip");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_caps_are_enforced() {
        let pool = BufPool::new();
        for _ in 0..=DEFAULT_MAX_BUFFERS {
            let mut b = BytesMut::with_capacity(32);
            b.extend_from_slice(&[0u8; 8]);
            pool.put(b);
        }
        assert_eq!(pool.idle(), DEFAULT_MAX_BUFFERS, "the buffer past the cap dropped");

        let pool = BufPool::new();
        let mut jumbo = BytesMut::with_capacity(DEFAULT_MAX_CAPACITY + 1);
        jumbo.extend_from_slice(&[0u8; 65]);
        pool.put(jumbo);
        assert_eq!(pool.idle(), 0, "oversized buffer dropped");
    }

    #[test]
    fn reclaim_recovers_unique_bytes_only() {
        let pool = BufPool::new();
        pool.reclaim(Bytes::from(vec![1u8; 16]));
        assert_eq!(pool.idle(), 1);

        let shared = Bytes::from(vec![2u8; 16]);
        let _other = shared.clone();
        pool.reclaim(shared);
        assert_eq!(pool.idle(), 1, "shared storage cannot be reclaimed");
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let pool = BufPool::new();
        pool.put(BytesMut::new());
        assert_eq!(pool.idle(), 0);
    }
}
