//! A reusable pool of unit-sized I/O buffers.
//!
//! The write engine needs up to three scratch units per request (old
//! image, parity, reconstruction accumulator); allocating and zeroing
//! them per call put the allocator on the hot path. [`BufferPool`]
//! keeps a bounded freelist of unit buffers per store: [`BufferPool::get`]
//! pops one (contents arbitrary — every user either overwrites it fully
//! or asks for [`BufferPool::get_zeroed`]), and dropping the returned
//! [`PooledBuf`] pushes it back unless the freelist is full.

use crate::lock;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Buffers kept on the freelist before further returns are dropped;
/// bounds the pool's memory to `POOL_CAP * unit_bytes` per store.
const POOL_CAP: usize = 64;

/// A bounded freelist of `unit_bytes`-sized buffers.
#[derive(Debug)]
pub(crate) struct BufferPool {
    unit_bytes: usize,
    free: Mutex<Vec<Box<[u8]>>>,
}

impl BufferPool {
    pub fn new(unit_bytes: usize) -> BufferPool {
        BufferPool {
            unit_bytes,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Pops a buffer with arbitrary contents; the caller must overwrite
    /// every byte it reads.
    pub fn get(&self) -> PooledBuf<'_> {
        let buf = lock(&self.free)
            .pop()
            .unwrap_or_else(|| vec![0u8; self.unit_bytes].into_boxed_slice());
        PooledBuf {
            pool: self,
            buf: Some(buf),
        }
    }

    /// Pops a buffer and zeroes it — for XOR accumulators.
    pub fn get_zeroed(&self) -> PooledBuf<'_> {
        let mut buf = self.get();
        buf.fill(0);
        buf
    }
}

/// A unit buffer on loan from a [`BufferPool`]; returns itself on drop.
#[derive(Debug)]
pub(crate) struct PooledBuf<'a> {
    pool: &'a BufferPool,
    buf: Option<Box<[u8]>>,
}

impl Deref for PooledBuf<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            let mut free = lock(&self.pool.free);
            if free.len() < POOL_CAP {
                free.push(buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let pool = BufferPool::new(128);
        let first = {
            let buf = pool.get();
            assert_eq!(buf.len(), 128);
            buf.as_ptr()
        };
        // The drop above returned the buffer; the next get reuses it.
        let again = pool.get();
        assert_eq!(first, again.as_ptr());
    }

    #[test]
    fn zeroed_buffers_are_clean_after_reuse() {
        let pool = BufferPool::new(64);
        {
            let mut dirty = pool.get();
            dirty.fill(0xFF);
        }
        let clean = pool.get_zeroed();
        assert!(clean.iter().all(|&b| b == 0));
    }

    #[test]
    fn freelist_is_bounded() {
        let pool = BufferPool::new(8);
        let held: Vec<_> = (0..POOL_CAP + 10).map(|_| pool.get()).collect();
        drop(held);
        assert_eq!(lock(&pool.free).len(), POOL_CAP);
    }
}
