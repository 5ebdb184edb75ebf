//! Recycled pixel storage.
//!
//! A sweep runs thousands of scenarios, and each one historically
//! allocated (and memset) its own framebuffers, surface buffers, and
//! meter snapshots — several megabytes per run that the allocator handed
//! straight back. [`PixelPool`] keeps those `Vec<Pixel>` allocations
//! alive between runs: a finished run *gives* its buffers back, the next
//! run *takes* them, and after the first run on a worker the steady
//! state allocates nothing.
//!
//! Framebuffers are stored per tile (see [`FrameBuffer`]), so the pool
//! keeps their tile allocations apart from the meter's snapshot vectors:
//! a buffer taken from the pool draws its tile storage from the pooled
//! allocations, and a buffer given back returns every allocation it
//! held alone.
//!
//! Recycling never leaks state between runs: [`PixelPool::take`] hands
//! out an empty vector, and [`PixelPool::take_framebuffer`] builds a
//! buffer in exactly the freshly-constructed state (every tile solid
//! black, so the old contents are never read) — results are
//! byte-identical with or without a pool (proven end-to-end by
//! `scratch_determinism` in `ccdem-experiments`).

use crate::buffer::{lock, FrameBuffer, TileReserve};
use crate::geometry::Resolution;
use crate::pixel::Pixel;

/// Stacks of reusable `Vec<Pixel>` and framebuffer tile allocations.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
/// use ccdem_pixelbuf::pool::PixelPool;
///
/// let mut pool = PixelPool::new();
/// let mut fb = pool.take_framebuffer(Resolution::new(8, 8));
/// fb.set_pixel(1, 1, Pixel::WHITE); // gives the buffer's one tile storage
/// pool.give_framebuffer(fb);
/// assert_eq!(pool.len(), 1);
/// // The next buffer draws its tile storage from the pool.
/// let mut fb = pool.take_framebuffer(Resolution::new(8, 8));
/// fb.set_pixel(2, 2, Pixel::WHITE);
/// assert_eq!(pool.len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct PixelPool {
    free: Vec<Vec<Pixel>>,
    /// Framebuffer tile allocations, the reserve of every buffer taken
    /// from the pool: they draw from it while in use, not just when built.
    tiles: TileReserve,
}

impl PixelPool {
    /// Creates an empty pool.
    pub fn new() -> PixelPool {
        PixelPool::default()
    }

    /// Takes one buffer from the pool (empty, capacity preserved), or a
    /// fresh empty vector when the pool is dry.
    pub fn take(&mut self) -> Vec<Pixel> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a buffer to the pool; only the allocation survives. The
    /// contents are discarded when the buffer is taken again, so it is
    /// not cleared here.
    pub fn give(&mut self, buf: Vec<Pixel>) {
        self.free.push(buf);
    }

    /// Builds a fresh-state framebuffer (black RGBA8888, both
    /// generations zero, empty damage) that draws its tile storage from
    /// the pool's tile allocations for as long as it lives, allocating
    /// only when the pool has none left.
    pub fn take_framebuffer(&mut self, resolution: Resolution) -> FrameBuffer {
        FrameBuffer::with_reserve(resolution, self.tiles.clone())
    }

    /// Recycles a framebuffer's tile allocations into this pool: every
    /// one it holds alone, whichever pool (if any) it was taken from.
    /// Tiles another buffer still shares go back with the last buffer
    /// that holds them.
    pub fn give_framebuffer(&mut self, buffer: FrameBuffer) {
        buffer.release_tiles(&self.tiles);
    }

    /// Number of allocations currently pooled: vectors and tiles.
    pub fn len(&self) -> usize {
        self.free.len() + lock(&self.tiles).len()
    }

    /// Whether the pool holds no allocations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    #[test]
    fn take_reuses_the_most_recent_allocation() {
        let mut pool = PixelPool::new();
        let mut buf = Vec::with_capacity(64);
        buf.push(Pixel::WHITE);
        let ptr = buf.as_ptr();
        pool.give(buf);
        let back = pool.take();
        assert_eq!(back.as_ptr(), ptr);
        assert!(back.is_empty(), "give must clear contents");
        assert!(back.capacity() >= 64);
        assert!(pool.is_empty());
    }

    #[test]
    fn dry_pool_hands_out_fresh_vectors() {
        let mut pool = PixelPool::new();
        assert_eq!(pool.len(), 0);
        assert!(pool.take().is_empty());
        let fb = pool.take_framebuffer(Resolution::new(4, 4));
        assert_eq!(fb, FrameBuffer::new(Resolution::new(4, 4)));
    }

    #[test]
    fn framebuffer_round_trip_returns_every_tile() {
        let mut pool = PixelPool::new();
        let res = Resolution::new(130, 70); // 3×2 tiles
        let mut fb = pool.take_framebuffer(res);
        fb.fill_rect(Rect::new(60, 0, 10, 70), Pixel::WHITE); // 4 tiles
        let mut shared = fb.clone();
        shared.set_pixel(0, 0, Pixel::grey(3)); // detaches one tile
        pool.give_framebuffer(fb);
        assert_eq!(pool.len(), 1, "three tiles are still shared");
        pool.give_framebuffer(shared);
        assert_eq!(pool.len(), 5);
        let mut fb2 = pool.take_framebuffer(res);
        assert_eq!(fb2, FrameBuffer::new(res));
        fb2.fill_rect(Rect::new(0, 0, 70, 1), Pixel::WHITE); // 2 tiles
        assert_eq!(pool.len(), 3, "writes draw storage from the pool");
        pool.give_framebuffer(fb2);
        assert_eq!(pool.len(), 5);
        // A buffer from elsewhere gives its tiles to this pool too.
        let mut own = FrameBuffer::new(res);
        own.set_pixel(0, 0, Pixel::WHITE);
        pool.give_framebuffer(own);
        assert_eq!(pool.len(), 6);
    }
}
