//! The software framebuffer.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::damage::DamageRegion;
use crate::geometry::{Rect, Resolution};
use crate::pixel::{Pixel, PixelFormat};
use crate::tile::{Tile, TileMap, TILE_SIZE};

/// Pixels in one tile's storage: [`TILE_SIZE`]², row-major with a stride
/// of [`TILE_SIZE`]. Edge tiles use the top-left part of their storage.
pub(crate) const TILE_AREA: usize = (TILE_SIZE * TILE_SIZE) as usize;

/// Row stride of a tile's storage.
const STRIDE: usize = TILE_SIZE as usize;

/// One tile's pixel storage, shared copy-on-write between buffers.
pub(crate) type TilePixels = Arc<[Pixel; TILE_AREA]>;

/// Spare tile allocations, none of them held by any buffer: a
/// [`PixelPool`](crate::pool::PixelPool)'s, shared by every buffer taken
/// from it, or a buffer's own.
pub(crate) type TileReserve = Arc<Mutex<Vec<TilePixels>>>;

/// The locked contents of `reserve`.
pub(crate) fn lock(reserve: &TileReserve) -> MutexGuard<'_, Vec<TilePixels>> {
    reserve.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A software framebuffer: a grid of [`Pixel`]s with two monotonically
/// increasing generation counters and a damage region.
///
/// The *write generation* bumps on every write batch, including
/// [`touch`](Self::touch) (a hardware write of identical pixels — the
/// paper's redundant frame). The *content generation* bumps only when a
/// draw op may actually have changed pixel values; those ops also record
/// the written rectangle in the buffer's [`DamageRegion`]. The two
/// counters let consumers distinguish "the framebuffer was updated" (the
/// panel's view) from "the pixels may have changed" (the content-rate
/// meter's view) without reading any pixels, and the damage region tells
/// the meter *where* to look when they did.
///
/// The damage region accumulates until [`take_damage`](Self::take_damage)
/// is called; a pixel outside every accumulated rect is guaranteed to
/// hold the same value it had at the last take.
///
/// Alongside the damage region, every draw op also maintains a
/// [`TileMap`] of per-tile content signatures (stamp + provable solid
/// colour) inside the same walks — see [`tiles`](Self::tiles) and the
/// [`tile`](crate::tile) module.
///
/// # Tile storage
///
/// The pixels are stored per [`TILE_SIZE`]² tile, one entry per
/// [`TileMap`] slot. An entry is either *solid* — no storage at all, its
/// pixels by definition the tile signature's solid colour — or *stored*:
/// a tile-sized allocation, shared copy-on-write with any other buffer
/// holding the same tile.
///
/// * A fresh buffer is all solid black, and a write that covers a tile
///   whole with one colour ([`fill`](Self::fill), a tile-covering
///   [`fill_rect`](Self::fill_rect)) makes it solid instead of writing
///   pixels.
/// * A write to part of a tile gives a solid tile storage (filled with
///   its colour) and detaches a shared tile onto storage of its own
///   (a copy of that one tile) before writing.
/// * Copies share: a copy that covers a tile whole clones its entry, so
///   [`copy_from`](Self::copy_from) copies no pixels at all.
///
/// Detaches and new storage draw from a *reserve* of spare tile
/// allocations, and every allocation a write drops goes back to it. A
/// buffer taken from a [`PixelPool`](crate::pool::PixelPool) uses the
/// pool's reserve, shared by every buffer taken from that pool; any other
/// has its own. [`ComposeBatch::share_tiles`] hands the allocations it
/// displaces to the *source's* reserve, so a compositor that shares a
/// surface's tiles every frame and a surface that redraws them trade
/// allocations back and forth and allocate nothing.
///
/// Storage is not observable: pixels, equality, generations, damage and
/// tile signatures are exactly those of a buffer that wrote every pixel
/// of its own.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let mut fb = FrameBuffer::new(Resolution::new(4, 4));
/// fb.fill(Pixel::WHITE);
/// assert_eq!(fb.pixel(2, 3), Pixel::WHITE);
/// assert_eq!(fb.content_generation(), 1);
///
/// fb.touch(); // identical resubmission: a write, but not new content
/// assert_eq!(fb.generation(), 2);
/// assert_eq!(fb.content_generation(), 1);
/// ```
#[derive(Debug)]
pub struct FrameBuffer {
    resolution: Resolution,
    format: PixelFormat,
    store: Store,
    generation: u64,
    content_generation: u64,
    damage: DamageRegion,
    tiles: TileMap,
}

impl FrameBuffer {
    /// Creates a black framebuffer of the given resolution in RGBA8888.
    pub fn new(resolution: Resolution) -> FrameBuffer {
        FrameBuffer::with_format(resolution, PixelFormat::Rgba8888)
    }

    /// Creates a black framebuffer with an explicit pixel format.
    pub fn with_format(resolution: Resolution, format: PixelFormat) -> FrameBuffer {
        FrameBuffer {
            format,
            ..FrameBuffer::with_reserve(resolution, TileReserve::default())
        }
    }

    /// A fresh black RGBA8888 buffer whose writes draw tile storage from
    /// `reserve` (a [`PixelPool`]'s) and give it back there.
    ///
    /// [`PixelPool`]: crate::pool::PixelPool
    pub(crate) fn with_reserve(resolution: Resolution, reserve: TileReserve) -> FrameBuffer {
        let tiles = TileMap::new(resolution);
        FrameBuffer {
            resolution,
            format: PixelFormat::Rgba8888,
            store: Store {
                entries: vec![Entry::Solid; tiles.len()],
                reserve,
            },
            generation: 0,
            content_generation: 0,
            damage: DamageRegion::new(),
            tiles,
        }
    }

    /// Consumes the buffer, handing every tile allocation it holds alone
    /// — stored tiles no other buffer shares — to `into`. Recycling every
    /// buffer that shared tiles therefore returns each allocation exactly
    /// once.
    pub(crate) fn release_tiles(self, into: &TileReserve) {
        let stored = self.store.entries.into_iter().filter_map(|e| match e {
            // No `Weak` is ever made: a strong count of one means no
            // other buffer holds the allocation.
            Entry::Stored(t) if Arc::strong_count(&t) == 1 => Some(t),
            _ => None,
        });
        lock(into).extend(stored);
    }

    /// The buffer's resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The buffer's pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// The write-generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The content-generation counter: bumps only when a draw op may have
    /// changed pixel values. Unchanged content generation between two
    /// observations guarantees the pixels are bit-identical — the
    /// content-rate meter's O(1) redundant-frame fast path.
    pub fn content_generation(&self) -> u64 {
        self.content_generation
    }

    /// The per-tile content signatures, updated by every draw op. Tiles
    /// whose `stamp` is at most an observer's last seen content
    /// generation are provably unchanged since that observation; tiles
    /// with a `solid` colour are provably that exact colour everywhere.
    pub fn tiles(&self) -> &TileMap {
        &self.tiles
    }

    /// Number of solid tiles (see the type docs): tiles held as their
    /// colour alone, with no pixel storage.
    pub fn solid_tile_count(&self) -> usize {
        self.store
            .entries
            .iter()
            .filter(|e| matches!(e, Entry::Solid))
            .count()
    }

    /// Number of tiles this buffer holds in the same storage as `other`:
    /// the same shared allocation, or both solid in the same colour. It
    /// gives no access to the pixels.
    pub fn tiles_shared_with(&self, other: &FrameBuffer) -> usize {
        let entries = self.store.entries.iter().zip(&other.store.entries);
        entries
            .enumerate()
            .filter(|&(i, (a, b))| match (a, b) {
                (Entry::Stored(a), Entry::Stored(b)) => Arc::ptr_eq(a, b),
                (Entry::Solid, Entry::Solid) => self.tiles.solid_at(i) == other.tiles.solid_at(i),
                _ => false,
            })
            .count()
    }

    /// The damage accumulated since the last
    /// [`take_damage`](Self::take_damage): a sound over-approximation of
    /// every pixel written in between.
    pub fn damage(&self) -> &DamageRegion {
        &self.damage
    }

    /// Consumes the accumulated damage, resetting it to empty. The
    /// content-rate meter (via the compositor) calls this once per
    /// composed frame, so the region always describes "what changed since
    /// the meter last looked".
    pub fn take_damage(&mut self) -> DamageRegion {
        self.damage.take()
    }

    /// Marks the buffer as updated without changing pixels. The compositor
    /// calls this when an application submits a frame whose content is
    /// identical to the previous one (a *redundant frame*): the hardware
    /// still performs a framebuffer write. Bumps only the write
    /// generation, never the content generation.
    pub fn touch(&mut self) {
        self.generation += 1;
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is off-screen.
    pub fn pixel(&self, x: u32, y: u32) -> Pixel {
        assert!(
            self.resolution.contains(x, y),
            "pixel ({x},{y}) out of bounds for {}",
            self.resolution
        );
        let i = self.tiles.index_of(x, y);
        self.tile_row(i, y)
            .pixel((x % TILE_SIZE) as usize)
            .unwrap_or(Pixel::BLACK)
    }

    /// All pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = Pixel> + '_ {
        let width = self.resolution.width;
        (0..self.resolution.height)
            .flat_map(move |y| self.row_runs(y, 0, width))
            .flat_map(Run::iter)
    }

    /// Writes the pixel at `(x, y)` (quantized to the buffer format) and
    /// bumps the generation.
    ///
    /// Prefer the batch operations ([`fill`](Self::fill),
    /// [`fill_rect`](Self::fill_rect), [`copy_from`](Self::copy_from)) for
    /// anything larger than a few pixels: they bump the generation once.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is off-screen.
    pub fn set_pixel(&mut self, x: u32, y: u32, p: Pixel) {
        assert!(
            self.resolution.contains(x, y),
            "pixel ({x},{y}) out of bounds for {}",
            self.resolution
        );
        let q = self.format.quantize(p);
        let i = self.tiles.index_of(x, y);
        let solid = self.tiles.solid_at(i);
        // A solid tile of this colour already holds the pixel.
        if !(self.store.is_solid(i) && solid == Some(q)) {
            let at = offset(x % TILE_SIZE, y % TILE_SIZE);
            let tile = self.tiles.tile_rect(x / TILE_SIZE, y / TILE_SIZE);
            if let Some(slot) = self.store.tile_mut(i, tile, Prior::keep(solid)).get_mut(at) {
                *slot = q;
            }
        }
        self.mark(Rect::new(x, y, 1, 1), Some(q));
    }

    /// Fills the whole buffer with one colour. Every tile becomes solid:
    /// no pixel is written.
    pub fn fill(&mut self, p: Pixel) {
        self.fill_rect(self.resolution.bounds(), p);
    }

    /// Fills `rect` (clipped to the screen) with one colour. A fully
    /// off-screen rect still counts as a write (generation bump), matching
    /// hardware behaviour where the draw call is issued regardless. The
    /// tiles `rect` covers whole become solid instead of being written.
    pub fn fill_rect(&mut self, rect: Rect, p: Pixel) {
        let q = self.format.quantize(p);
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            let store = &mut self.store;
            let tiles = &self.tiles;
            tiles.for_each_tile(r, |i, tile| {
                let part = intersect(r, tile);
                let solid = tiles.solid_at(i);
                if part == tile {
                    store.set_solid(i);
                } else if !(store.is_solid(i) && solid == Some(q)) {
                    let pixels = store.tile_mut(i, tile, Prior::keep(solid));
                    for row in rows_mut(pixels, tile, part) {
                        row.fill(q);
                    }
                }
            });
        }
        self.mark(clipped.unwrap_or_default(), Some(q));
    }

    /// Copies the entirety of `src` into this buffer. Tiles are shared,
    /// not copied, unless the formats differ.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_from(&mut self, src: &FrameBuffer) {
        self.copy_rect_from(src, self.resolution.bounds());
    }

    /// Copies `rect` (clipped) from `src` into the same position here.
    /// Tiles the copy covers whole are shared when the formats match.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_rect_from(&mut self, src: &FrameBuffer, rect: Rect) {
        match rect.clipped_to(self.resolution) {
            Some(r) => self.compose_batch(&DamageRegion::of(r)).copy_rect(src, r),
            None => self.mark(Rect::default(), None),
        }
    }

    /// Alpha-blends `rect` (clipped) of `src` over the same position here,
    /// quantizing the blend result to this buffer's format. This is the
    /// compositor's translucent-surface path, expressed as one batch op so
    /// it costs a single generation bump and one damage rect instead of a
    /// per-pixel [`set_pixel`](Self::set_pixel) storm.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn blend_rect_from(&mut self, src: &FrameBuffer, rect: Rect) {
        match rect.clipped_to(self.resolution) {
            Some(r) => self.compose_batch(&DamageRegion::of(r)).blend_rect(src, r),
            None => self.mark(Rect::default(), None),
        }
    }

    /// Opens one compose batch: a single write batch of new content,
    /// whatever the number of tiles it then writes. The write and the
    /// content generation each bump once, now, and `damage` joins the
    /// buffer's damage; the batch's writes stamp the tiles they touch
    /// with the new content generation.
    ///
    /// `damage` must cover every pixel whose value the batch changes.
    /// It need not cover pixels the batch rewrites with their old value,
    /// such as the unchanged parts of a tile it shares whole.
    pub fn compose_batch(&mut self, damage: &DamageRegion) -> ComposeBatch<'_> {
        self.generation += 1;
        self.content_generation += 1;
        for &r in damage.rects() {
            self.damage.add(r);
        }
        ComposeBatch { fb: self }
    }

    /// Shifts the buffer contents up by `dy` pixels (a scroll), filling the
    /// exposed bottom band with `fill`. A shift by a multiple of
    /// [`TILE_SIZE`] moves tile entries; any other builds each tile from
    /// the two tiles it scrolls in from.
    pub fn scroll_up(&mut self, dy: u32, fill: Pixel) {
        let h = self.resolution.height;
        let dy = dy.min(h);
        if dy == 0 {
            self.mark(Rect::default(), None);
            return;
        }
        if dy == h {
            // The whole screen is the fill colour: a provably solid write.
            self.fill(fill);
            return;
        }
        let q = self.format.quantize(fill);
        let bounds = self.resolution.bounds();
        self.generation += 1;
        self.content_generation += 1;
        self.damage.add(bounds);
        let stamp = self.content_generation;
        let cols = self.tiles.cols();
        // Row by row from the top: a tile reads only tiles at or below
        // its own row, none of which has been rewritten yet.
        for ty in 0..self.tiles.rows() {
            for tx in 0..cols {
                let tile = self.tiles.tile_rect(tx, ty);
                let i = (ty * cols + tx) as usize;
                let solid = self.scrolled_solid(tile, dy, q);
                if solid.is_some() {
                    self.store.set_solid(i);
                } else if dy.is_multiple_of(TILE_SIZE) && tile.bottom() + dy <= h {
                    let from = i + (dy / TILE_SIZE * cols) as usize;
                    let entry = self.store.entries.get(from).cloned();
                    self.store
                        .replace_and_keep(i, entry.unwrap_or(Entry::Solid));
                } else {
                    let mut fresh = self.store.fresh();
                    if let Some(pixels) = Arc::get_mut(&mut fresh) {
                        self.scroll_into(pixels, tile, dy, q);
                    }
                    self.store.replace_and_keep(i, Entry::Stored(fresh));
                }
                self.tiles.set(i, Tile { stamp, solid });
            }
        }
    }

    /// Mean luminance of the whole buffer in `[0, 1]`.
    ///
    /// This is an O(pixels) scan; it exists for the OLED power extension
    /// and for tests, not for the per-frame hot path.
    pub fn mean_luminance(&self) -> f64 {
        let n = self.resolution.pixel_count();
        if n == 0 {
            return 0.0;
        }
        self.pixels().map(|p| p.luminance()).sum::<f64>() / n as f64
    }

    /// The stored pixels of the tile at row-major index `i` (row-major
    /// with a stride of [`TILE_SIZE`]; those past an edge tile's width or
    /// height are unspecified), or none when the tile is solid. Solid
    /// tiles are always provably solid, so readers that only descend into
    /// tiles of unknown content always get storage.
    pub(crate) fn tile_pixels(&self, i: usize) -> &[Pixel] {
        match self.store.entries.get(i) {
            Some(Entry::Stored(pixels)) => &pixels[..],
            _ => &[],
        }
    }

    /// Row `y` of the tile at row-major index `i`, from the tile's left
    /// edge: its colour when the tile is solid, else its stored row
    /// ([`TILE_SIZE`] pixels; those past an edge tile's width are
    /// unspecified).
    fn tile_row(&self, i: usize, y: u32) -> Run<'_> {
        match self.store.entries.get(i) {
            Some(Entry::Stored(pixels)) => {
                let at = offset(0, y % TILE_SIZE);
                Run::Stored(pixels.get(at..at + STRIDE).unwrap_or_default())
            }
            _ => Run::Solid(self.tiles.solid_at(i).unwrap_or(Pixel::BLACK), STRIDE),
        }
    }

    /// Row `y` between columns `x0..x1` as runs, one per tile, in order.
    fn row_runs(&self, y: u32, x0: u32, x1: u32) -> impl Iterator<Item = Run<'_>> + '_ {
        let first = self.tiles.index_of(x0, y);
        (x0 / TILE_SIZE..x1.div_ceil(TILE_SIZE))
            .zip(first..)
            .map(move |(tx, i)| {
                let lo = (tx * TILE_SIZE).max(x0);
                let hi = ((tx + 1) * TILE_SIZE).min(x1);
                self.tile_row(i, y)
                    .slice((lo % TILE_SIZE) as usize, (hi - lo) as usize)
            })
    }

    /// The solid colour of tile `tile` after scrolling up by `dy` with
    /// fill colour `q`: `Some(c)` when the fill band and every tile it
    /// scrolls in from are provably solid `c`.
    fn scrolled_solid(&self, tile: Rect, dy: u32, q: Pixel) -> Option<Pixel> {
        let h = self.resolution.height;
        let (lo, hi) = (tile.y + dy, tile.bottom() + dy);
        let fill = (hi > h).then_some(Some(q));
        // The source tile rows, clipped to the screen: none when every
        // row scrolls in as fill.
        let end = hi.min(h).div_ceil(TILE_SIZE);
        let rows = if lo < h {
            lo / TILE_SIZE..end
        } else {
            end..end
        };
        let tx = tile.x / TILE_SIZE;
        let cols = self.tiles.cols();
        let mut colours = fill
            .into_iter()
            .chain(rows.map(|ty| self.tiles.solid_at((ty * cols + tx) as usize)));
        let first = colours.next().flatten()?;
        colours.all(|c| c == Some(first)).then_some(first)
    }

    /// Writes `tile`'s pixels after scrolling up by `dy` with fill
    /// colour `q` into `pixels`, reading the rows from the (not yet
    /// rewritten) tiles below. Every tile's storage has the same stride,
    /// so the rows from one source tile are one block copy.
    fn scroll_into(&self, pixels: &mut [Pixel; TILE_AREA], tile: Rect, dy: u32, q: Pixel) {
        let h = self.resolution.height;
        let tx = tile.x / TILE_SIZE;
        let mut y = tile.y;
        while y < tile.bottom() {
            let at = offset(0, y - tile.y);
            let sy = y + dy;
            if sy >= h {
                let band = Rect::new(0, 0, tile.width, tile.bottom() - y);
                fill_tile(pixels.get_mut(at..).unwrap_or_default(), q, band);
                break;
            }
            // The rows up to the end of the source tile.
            let n = (TILE_SIZE - sy % TILE_SIZE)
                .min(h - sy)
                .min(tile.bottom() - y);
            let band = Rect::new(0, 0, tile.width, n);
            let dst = pixels.get_mut(at..).unwrap_or_default();
            let from = ((sy / TILE_SIZE) * self.tiles.cols() + tx) as usize;
            match self.store.entries.get(from) {
                Some(Entry::Stored(src)) => {
                    let rows = src.get(offset(0, sy % TILE_SIZE)..).unwrap_or_default();
                    copy_tile(dst, rows, band);
                }
                _ => fill_tile(dst, self.tiles.solid_at(from).unwrap_or(Pixel::BLACK), band),
            }
            y += n;
        }
    }

    /// Records one completed write batch: the write generation always
    /// bumps (the hardware write happened), while the content generation,
    /// damage, and tile signatures only advance when pixels may actually
    /// have changed — i.e. when the written region is non-empty. A fully
    /// clipped-out draw call therefore counts as a write but not as
    /// content. `solid` is `Some(q)` when the batch stored the exact
    /// value `q` (already format-quantized) at every written pixel.
    fn mark(&mut self, written: Rect, solid: Option<Pixel>) {
        self.generation += 1;
        if !written.is_empty() {
            self.content_generation += 1;
            self.damage.add(written);
            self.tiles
                .stamp_rect(written, self.content_generation, solid);
        }
    }
}

/// One compose batch on a framebuffer (see
/// [`FrameBuffer::compose_batch`]): tile-granular copies, blends and
/// shares from source buffers of the same resolution.
#[derive(Debug)]
pub struct ComposeBatch<'a> {
    fb: &'a mut FrameBuffer,
}

impl ComposeBatch<'_> {
    /// Makes tiles `txs` of tile row `ty` exact copies of `src`'s by
    /// sharing their storage, and hands each allocation this displaces
    /// that no other buffer holds to `src`'s reserve, for its next writes
    /// to detach into. Falls back to copying when the formats differ.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn share_tiles(&mut self, src: &FrameBuffer, ty: u32, txs: Range<u32>) {
        let fb = &mut *self.fb;
        assert_eq!(
            fb.resolution, src.resolution,
            "share_tiles requires matching resolutions"
        );
        if fb.format != src.format {
            for tx in txs {
                let tile = self.fb.tiles.tile_rect(tx, ty);
                self.copy_rect(src, tile);
            }
            return;
        }
        let first = (ty * fb.tiles.cols() + txs.start) as usize;
        let tiles = first..first + txs.len();
        for i in tiles.clone() {
            let (Some(own), Some(theirs)) = (fb.store.entries.get(i), src.store.entries.get(i))
            else {
                continue;
            };
            let same = match (own, theirs) {
                (Entry::Stored(a), Entry::Stored(b)) => Arc::ptr_eq(a, b),
                (Entry::Solid, Entry::Solid) => true,
                _ => false,
            };
            if !same {
                if let Some(tile) = fb.store.replace(i, theirs.clone()) {
                    src.store.give(tile);
                }
            }
        }
        fb.tiles.inherit(&src.tiles, tiles, fb.content_generation);
    }

    /// Copies `rect` (clipped) from `src` into the same position. Tiles
    /// the copy covers whole are shared when the formats match and take
    /// `src`'s signature (quantized when they differ); tiles it covers
    /// in part have unknown content.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_rect(&mut self, src: &FrameBuffer, rect: Rect) {
        let fb = &mut *self.fb;
        assert_eq!(
            fb.resolution, src.resolution,
            "copy_rect_from requires matching resolutions"
        );
        let Some(r) = rect.clipped_to(fb.resolution) else {
            return;
        };
        let format = fb.format;
        let convert = format != src.format;
        let store = &mut fb.store;
        let tiles = &fb.tiles;
        tiles.for_each_tile(r, |i, tile| {
            let part = intersect(r, tile);
            let covered = part == tile;
            match src.store.entries.get(i) {
                Some(entry) if covered && !convert => {
                    store.replace_and_keep(i, entry.clone());
                    return;
                }
                Some(Entry::Solid) if covered => {
                    store.set_solid(i);
                    return;
                }
                _ => {}
            }
            let prior = if covered {
                Prior::Discard
            } else {
                Prior::keep(tiles.solid_at(i))
            };
            let pixels = store.tile_mut(i, tile, prior);
            for (y, row) in (part.y..).zip(rows_mut(pixels, tile, part)) {
                let from = src
                    .tile_row(i, y)
                    .slice((part.x % TILE_SIZE) as usize, row.len());
                if convert {
                    for (d, s) in row.iter_mut().zip(from.iter()) {
                        *d = format.quantize(s);
                    }
                } else {
                    from.write_to(row);
                }
            }
        });
        let stamp = fb.content_generation;
        fb.tiles
            .inherit_rect(r, stamp, &src.tiles, |c| format.quantize(c));
    }

    /// Alpha-blends `rect` (clipped) of `src` over the same position,
    /// quantizing to this buffer's format. The blended tiles have
    /// unknown content.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn blend_rect(&mut self, src: &FrameBuffer, rect: Rect) {
        let fb = &mut *self.fb;
        assert_eq!(
            fb.resolution, src.resolution,
            "blend_rect_from requires matching resolutions"
        );
        let Some(r) = rect.clipped_to(fb.resolution) else {
            return;
        };
        let format = fb.format;
        let store = &mut fb.store;
        let tiles = &fb.tiles;
        tiles.for_each_tile(r, |i, tile| {
            let part = intersect(r, tile);
            // Blends read the destination: keep the old pixels.
            let pixels = store.tile_mut(i, tile, Prior::keep(tiles.solid_at(i)));
            for (y, row) in (part.y..).zip(rows_mut(pixels, tile, part)) {
                let from = src
                    .tile_row(i, y)
                    .slice((part.x % TILE_SIZE) as usize, row.len());
                for (d, s) in row.iter_mut().zip(from.iter()) {
                    *d = format.quantize(s.over(*d));
                }
            }
        });
        let stamp = fb.content_generation;
        fb.tiles.stamp_rect(r, stamp, None);
    }
}

impl Clone for FrameBuffer {
    /// A cheap clone: the copy shares every tile of this buffer
    /// copy-on-write (see the type docs), and its reserve.
    fn clone(&self) -> FrameBuffer {
        FrameBuffer {
            resolution: self.resolution,
            format: self.format,
            store: Store {
                entries: self.store.entries.clone(),
                reserve: self.store.reserve.clone(),
            },
            generation: self.generation,
            content_generation: self.content_generation,
            damage: self.damage,
            tiles: self.tiles.clone(),
        }
    }
}

impl PartialEq for FrameBuffer {
    /// Compares observable state: pixels, not how they are stored.
    fn eq(&self, other: &FrameBuffer) -> bool {
        self.resolution == other.resolution
            && self.format == other.format
            && self.generation == other.generation
            && self.content_generation == other.content_generation
            && self.damage == other.damage
            && self.tiles == other.tiles
            && (self.tiles_shared_with(other) == self.tiles.len()
                || self.pixels().eq(other.pixels()))
    }
}

/// How one tile's pixels are held (see `FrameBuffer`'s type docs).
#[derive(Debug, Clone)]
enum Entry {
    /// No storage: every pixel is the tile signature's solid colour.
    Solid,
    /// Stored pixels, possibly shared with other buffers.
    Stored(TilePixels),
}

/// What a write needs of a tile's old pixels.
#[derive(Debug, Clone, Copy)]
enum Prior {
    /// Nothing: the write overwrites every pixel of the tile.
    Discard,
    /// All of them; a solid tile's pixels are this colour.
    Keep(Pixel),
}

impl Prior {
    /// Keep the pixels of a tile whose signature is `solid`.
    fn keep(solid: Option<Pixel>) -> Prior {
        Prior::Keep(solid.unwrap_or(Pixel::BLACK))
    }
}

/// A buffer's tile entries and the reserve its writes draw from.
#[derive(Debug)]
struct Store {
    entries: Vec<Entry>,
    reserve: TileReserve,
}

impl Store {
    fn is_solid(&self, i: usize) -> bool {
        matches!(self.entries.get(i), Some(Entry::Solid))
    }

    /// Adds `tile`, which no other buffer holds, to the reserve.
    fn give(&self, tile: TilePixels) {
        lock(&self.reserve).push(tile);
    }

    /// An allocation no other buffer holds, with unspecified contents:
    /// one from the reserve.
    fn fresh(&self) -> TilePixels {
        let spare = lock(&self.reserve).pop();
        // ccdem-lint: allow(alloc-hot-path) — empty-reserve fallback.
        // Steady-state frames never reach it: every allocation a write
        // or a share gives up goes back to a reserve.
        spare.unwrap_or_else(|| Arc::new([Pixel::BLACK; TILE_AREA]))
    }

    /// Sets entry `i` to `entry` and returns the allocation it displaces
    /// when no other buffer holds it.
    fn replace(&mut self, i: usize, entry: Entry) -> Option<TilePixels> {
        let slot = self.entries.get_mut(i)?;
        match std::mem::replace(slot, entry) {
            // No `Weak` is ever made: a strong count of one means no
            // other buffer holds the allocation.
            Entry::Stored(old) if Arc::strong_count(&old) == 1 => Some(old),
            _ => None,
        }
    }

    /// [`replace`](Self::replace), giving the displaced allocation back
    /// to the reserve.
    fn replace_and_keep(&mut self, i: usize, entry: Entry) {
        if let Some(old) = self.replace(i, entry) {
            self.give(old);
        }
    }

    /// Makes tile `i` solid, freeing its storage.
    fn set_solid(&mut self, i: usize) {
        self.replace_and_keep(i, Entry::Solid);
    }

    /// Mutable pixels of tile `i` (whose pixel rect is `tile`) for a
    /// write: a shared tile first detaches onto an allocation of its own
    /// and a solid one gets storage, prepared as `prior` asks.
    fn tile_mut(&mut self, i: usize, tile: Rect, prior: Prior) -> &mut [Pixel] {
        // No `Weak` is ever made: a strong count of one means no other
        // buffer holds the allocation.
        let own = match self.entries.get(i) {
            Some(Entry::Stored(pixels)) => Arc::strong_count(pixels) == 1,
            Some(Entry::Solid) => false,
            None => return &mut [],
        };
        if !own {
            let mut fresh = self.fresh();
            if let (Some(pixels), Prior::Keep(c)) = (Arc::get_mut(&mut fresh), prior) {
                match self.entries.get(i) {
                    Some(Entry::Stored(old)) => copy_tile(pixels, old.as_slice(), tile),
                    _ => fill_tile(pixels, c, tile),
                }
            }
            self.replace(i, Entry::Stored(fresh));
        }
        match self.entries.get_mut(i) {
            Some(Entry::Stored(tile)) => Arc::get_mut(tile).map_or(&mut [][..], |p| &mut p[..]),
            _ => &mut [],
        }
    }
}

/// Copies the rows of tile storage `from` that tile rect `tile` uses
/// into `to`, as one block: columns past a narrow edge tile's width are
/// copied too, which costs less than a copy per row.
fn copy_tile(to: &mut [Pixel], from: &[Pixel], tile: Rect) {
    let n = tile.height as usize * STRIDE;
    if let (Some(to), Some(from)) = (to.get_mut(..n), from.get(..n)) {
        to.copy_from_slice(from);
    }
}

/// Fills the rows of tile storage `to` that tile rect `tile` uses with
/// `c`, as one block.
fn fill_tile(to: &mut [Pixel], c: Pixel, tile: Rect) {
    let n = tile.height as usize * STRIDE;
    to.get_mut(..n).unwrap_or_default().fill(c);
}

/// One stretch of a row inside one tile.
#[derive(Debug, Clone, Copy)]
enum Run<'a> {
    /// Stored pixels.
    Stored(&'a [Pixel]),
    /// This many pixels of a solid tile of this colour.
    Solid(Pixel, usize),
}

impl<'a> Run<'a> {
    /// The `n` pixels from offset `at`.
    fn slice(self, at: usize, n: usize) -> Run<'a> {
        match self {
            Run::Stored(pixels) => Run::Stored(pixels.get(at..at + n).unwrap_or_default()),
            Run::Solid(c, _) => Run::Solid(c, n),
        }
    }

    /// The pixel at offset `at`.
    fn pixel(self, at: usize) -> Option<Pixel> {
        match self {
            Run::Stored(pixels) => pixels.get(at).copied(),
            Run::Solid(c, n) => (at < n).then_some(c),
        }
    }

    /// Copies the run into `dst` (of the same length).
    fn write_to(self, dst: &mut [Pixel]) {
        match self {
            Run::Stored(pixels) => {
                if let Some(src) = pixels.get(..dst.len()) {
                    dst.copy_from_slice(src);
                }
            }
            Run::Solid(c, _) => dst.fill(c),
        }
    }

    fn iter(self) -> impl Iterator<Item = Pixel> + 'a {
        let (stored, c, n) = match self {
            Run::Stored(pixels) => (pixels, Pixel::BLACK, 0),
            Run::Solid(c, n) => (&[][..], c, n),
        };
        stored.iter().copied().chain(std::iter::repeat_n(c, n))
    }
}

/// Offset of tile-local pixel `(x, y)` in a tile's storage.
fn offset(x: u32, y: u32) -> usize {
    y as usize * STRIDE + x as usize
}

/// The part of tile rect `tile` inside `r`, which intersects it.
fn intersect(r: Rect, tile: Rect) -> Rect {
    r.intersection(tile).unwrap_or_default()
}

/// The rows of `part` (inside `tile`) in the tile's storage `pixels`,
/// top to bottom.
fn rows_mut(pixels: &mut [Pixel], tile: Rect, part: Rect) -> impl Iterator<Item = &mut [Pixel]> {
    let x = (part.x - tile.x) as usize;
    let w = part.width as usize;
    let skip = (part.y - tile.y) as usize;
    pixels
        .chunks_mut(STRIDE)
        .skip(skip)
        .take(part.height as usize)
        .filter_map(move |row| row.get_mut(x..x + w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_black_generation_zero() {
        let fb = FrameBuffer::new(Resolution::new(3, 3));
        assert_eq!(fb.generation(), 0);
        assert!(fb.pixels().all(|p| p == Pixel::BLACK));
    }

    #[test]
    fn writes_bump_generation_once_per_batch() {
        let mut fb = FrameBuffer::new(Resolution::new(8, 8));
        fb.fill(Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        fb.fill_rect(Rect::new(0, 0, 4, 4), Pixel::BLACK);
        assert_eq!(fb.generation(), 2);
        fb.touch();
        assert_eq!(fb.generation(), 3);
    }

    #[test]
    fn fill_rect_clips_to_screen() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill_rect(Rect::new(2, 2, 10, 10), Pixel::WHITE);
        assert_eq!(fb.pixel(3, 3), Pixel::WHITE);
        assert_eq!(fb.pixel(1, 1), Pixel::BLACK);
    }

    #[test]
    fn copy_from_round_trips() {
        let mut a = FrameBuffer::new(Resolution::new(5, 5));
        a.fill_rect(Rect::new(1, 1, 2, 2), Pixel::rgb(9, 9, 9));
        let mut b = FrameBuffer::new(Resolution::new(5, 5));
        b.copy_from(&a);
        assert!(a.pixels().eq(b.pixels()));
    }

    #[test]
    #[should_panic(expected = "matching resolutions")]
    fn copy_from_rejects_mismatch() {
        let a = FrameBuffer::new(Resolution::new(2, 2));
        let mut b = FrameBuffer::new(Resolution::new(3, 3));
        b.copy_from(&a);
    }

    #[test]
    fn scroll_up_moves_rows() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 4));
        fb.fill_rect(Rect::new(0, 0, 2, 1), Pixel::WHITE); // top row white
        fb.scroll_up(1, Pixel::grey(7));
        // White row moved off the top; bottom row filled with grey.
        assert!(fb.pixels().take(6).all(|p| p == Pixel::BLACK));
        assert!(fb.pixels().skip(6).all(|p| p == Pixel::grey(7)));
    }

    #[test]
    fn scroll_up_full_height_clears() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.fill(Pixel::WHITE);
        fb.scroll_up(5, Pixel::BLACK);
        assert!(fb.pixels().all(|p| p == Pixel::BLACK));
    }

    #[test]
    fn rgb565_buffer_quantizes_writes() {
        let mut fb = FrameBuffer::with_format(Resolution::new(2, 2), PixelFormat::Rgb565);
        fb.set_pixel(0, 0, Pixel::rgb(0xFF, 0xFF, 0xFF));
        assert_eq!(fb.pixel(0, 0), Pixel::rgb(0xF8, 0xFC, 0xF8));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_oob_panics() {
        let fb = FrameBuffer::new(Resolution::new(2, 2));
        let _ = fb.pixel(2, 0);
    }

    #[test]
    fn touch_bumps_write_generation_only() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill(Pixel::WHITE);
        assert_eq!((fb.generation(), fb.content_generation()), (1, 1));
        fb.touch();
        fb.touch();
        assert_eq!((fb.generation(), fb.content_generation()), (3, 1));
    }

    #[test]
    fn clipped_out_draw_is_a_write_but_not_content() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill_rect(Rect::new(10, 10, 3, 3), Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        assert_eq!(fb.content_generation(), 0);
        assert!(fb.damage().is_empty());
    }

    #[test]
    fn draw_ops_accumulate_damage_until_taken() {
        let mut fb = FrameBuffer::new(Resolution::new(8, 8));
        fb.set_pixel(1, 1, Pixel::WHITE);
        fb.fill_rect(Rect::new(4, 4, 2, 2), Pixel::WHITE);
        let damage = fb.take_damage();
        assert_eq!(damage.area(), 5);
        assert!(damage.contains(1, 1));
        assert!(damage.contains(5, 5));
        assert!(!damage.contains(2, 2));
        assert!(fb.damage().is_empty());
        // Taking damage does not disturb either generation.
        assert_eq!((fb.generation(), fb.content_generation()), (2, 2));
    }

    #[test]
    fn full_buffer_ops_damage_everything() {
        let res = Resolution::new(4, 4);
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::WHITE);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
        fb.scroll_up(1, Pixel::BLACK);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
        let src = FrameBuffer::new(res);
        fb.copy_from(&src);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
    }

    #[test]
    fn scroll_by_zero_is_not_content() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.scroll_up(0, Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        assert_eq!(fb.content_generation(), 0);
    }

    #[test]
    fn blend_rect_from_matches_per_pixel_over() {
        let res = Resolution::new(4, 4);
        let mut overlay = FrameBuffer::new(res);
        overlay.fill(Pixel::rgba(255, 255, 255, 128));
        let mut dst = FrameBuffer::new(res);
        dst.fill(Pixel::BLACK);
        dst.take_damage();

        let mut reference = dst.clone();
        let rect = Rect::new(1, 1, 2, 2);
        for y in rect.y..rect.bottom() {
            for x in rect.x..rect.right() {
                let s = overlay.pixel(x, y);
                let d = reference.pixel(x, y);
                reference.set_pixel(x, y, s.over(d));
            }
        }

        dst.blend_rect_from(&overlay, rect);
        assert!(dst.pixels().eq(reference.pixels()));
        assert_eq!(dst.take_damage().bounding(), rect);
    }

    #[test]
    fn draw_ops_maintain_tile_signatures() {
        let res = Resolution::new(128, 128); // 2×2 tiles
        let mut fb = FrameBuffer::new(res);
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::BLACK));

        fb.fill(Pixel::grey(40));
        assert_eq!(fb.tiles().tile(1, 1).solid, Some(Pixel::grey(40)));
        assert_eq!(fb.tiles().tile(1, 1).stamp, fb.content_generation());

        fb.fill_rect(Rect::new(10, 10, 8, 8), Pixel::WHITE);
        assert_eq!(fb.tiles().tile(0, 0).solid, None);
        assert_eq!(fb.tiles().tile(1, 0).solid, Some(Pixel::grey(40)));

        // A tile-covering fill restores solidity for covered tiles.
        fb.fill_rect(Rect::new(0, 0, 64, 64), Pixel::grey(80));
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::grey(80)));

        fb.set_pixel(100, 100, Pixel::WHITE);
        assert_eq!(fb.tiles().tile(1, 1).solid, None);

        fb.scroll_up(3, Pixel::BLACK);
        for ty in 0..2 {
            for tx in 0..2 {
                assert_eq!(fb.tiles().tile(tx, ty).solid, None);
                assert_eq!(fb.tiles().tile(tx, ty).stamp, fb.content_generation());
            }
        }
        // Scrolling the full height is just a fill: provably solid again.
        fb.scroll_up(200, Pixel::grey(7));
        assert_eq!(fb.tiles().tile(0, 1).solid, Some(Pixel::grey(7)));
    }

    #[test]
    fn copies_inherit_tile_signatures() {
        let res = Resolution::new(128, 64); // 2×1 tiles
        let mut src = FrameBuffer::new(res);
        src.fill_rect(Rect::new(0, 0, 64, 64), Pixel::grey(200));
        src.fill_rect(Rect::new(70, 3, 4, 4), Pixel::WHITE);
        assert_eq!(src.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        assert_eq!(src.tiles().tile(1, 0).solid, None);

        let mut dst = FrameBuffer::new(res);
        dst.copy_from(&src);
        assert_eq!(dst.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        assert_eq!(dst.tiles().tile(1, 0).solid, None);
        assert_eq!(dst.tiles().tile(0, 0).stamp, dst.content_generation());

        // A rect copy covering one tile inherits just that tile; a
        // partial copy degrades to unknown.
        let mut patch = FrameBuffer::new(res);
        patch.copy_rect_from(&src, Rect::new(0, 0, 64, 64));
        assert_eq!(patch.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        patch.copy_rect_from(&src, Rect::new(64, 0, 10, 10));
        assert_eq!(patch.tiles().tile(1, 0).solid, None);

        // Format conversion quantizes the inherited solid colour.
        let mut lo = FrameBuffer::with_format(res, PixelFormat::Rgb565);
        let mut bright = FrameBuffer::new(res);
        bright.fill(Pixel::rgb(201, 117, 33));
        lo.copy_from(&bright);
        assert_eq!(
            lo.tiles().tile(0, 0).solid,
            Some(PixelFormat::Rgb565.quantize(Pixel::rgb(201, 117, 33)))
        );
        assert_eq!(lo.tiles().tile(0, 0).solid, Some(lo.pixel(0, 0)));
    }

    #[test]
    fn blends_degrade_tile_signatures() {
        let res = Resolution::new(64, 64);
        let mut overlay = FrameBuffer::new(res);
        overlay.fill(Pixel::rgba(255, 255, 255, 128));
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(10));
        assert!(fb.tiles().tile(0, 0).solid.is_some());
        fb.blend_rect_from(&overlay, res.bounds());
        assert_eq!(fb.tiles().tile(0, 0).solid, None);
        assert_eq!(fb.tiles().tile(0, 0).stamp, fb.content_generation());
    }

    #[test]
    fn solid_tiles_are_truthful() {
        // Whenever a tile claims a solid colour, every pixel in it holds
        // exactly that value — spot-checked over a mixed op sequence.
        let res = Resolution::new(100, 70); // uneven edge tiles
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(33));
        fb.fill_rect(Rect::new(60, 10, 30, 30), Pixel::WHITE);
        fb.set_pixel(5, 5, Pixel::grey(1));
        fb.fill_rect(Rect::new(64, 64, 100, 100), Pixel::grey(9));
        let tiles = fb.tiles();
        let mut solid_seen = 0;
        for ty in 0..tiles.rows() {
            for tx in 0..tiles.cols() {
                if let Some(c) = tiles.tile(tx, ty).solid {
                    solid_seen += 1;
                    let r = tiles.tile_rect(tx, ty);
                    for y in r.y..r.bottom() {
                        for x in r.x..r.right() {
                            assert_eq!(fb.pixel(x, y), c, "tile ({tx},{ty}) at ({x},{y})");
                        }
                    }
                }
            }
        }
        assert!(solid_seen > 0, "expected at least one solid tile");
    }

    #[test]
    fn whole_tile_fills_stay_solid_and_partial_writes_store() {
        let res = Resolution::new(128, 100); // 2×2 tiles, short bottom row
        let mut fb = FrameBuffer::new(res);
        assert_eq!(fb.solid_tile_count(), 4, "a fresh buffer is all solid");
        fb.set_pixel(1, 1, Pixel::WHITE);
        assert_eq!(fb.solid_tile_count(), 3);
        fb.fill(Pixel::grey(9));
        assert_eq!(fb.solid_tile_count(), 4);
        // Covers the bottom-left tile whole (clipped at the screen edge)
        // and part of the top-left one.
        fb.fill_rect(Rect::new(0, 10, 64, 200), Pixel::WHITE);
        assert_eq!(fb.solid_tile_count(), 3);
        assert_eq!(fb.pixel(0, 9), Pixel::grey(9));
        assert_eq!(fb.pixel(63, 99), Pixel::WHITE);

        // A copy shares the tiles it covers whole: a whole copy all of
        // them.
        let mut copy = FrameBuffer::new(res);
        copy.set_pixel(100, 90, Pixel::WHITE);
        assert_eq!(copy.solid_tile_count(), 3);
        copy.copy_rect_from(&fb, Rect::new(64, 0, 64, 100));
        assert_eq!(
            copy.solid_tile_count(),
            4,
            "both right tiles are solid in fb"
        );
        assert_eq!(copy.tiles_shared_with(&fb), 2);
        assert!(copy.pixels().skip(64).take(64).all(|p| p == Pixel::grey(9)));
        copy.copy_from(&fb);
        assert_eq!(copy.tiles_shared_with(&fb), 4);
        assert!(copy.pixels().eq(fb.pixels()));

        // A write detaches only the tile it touches.
        fb.set_pixel(0, 0, Pixel::BLACK);
        assert_eq!(copy.tiles_shared_with(&fb), 3);
        assert_eq!(copy.pixel(0, 0), Pixel::grey(9));

        // A scroll builds each tile from the tiles below it; one that
        // scrolls in only from solid tiles and fill of one colour stays
        // solid.
        fb.scroll_up(3, Pixel::grey(9));
        assert_eq!(fb.solid_tile_count(), 2, "the right column stays solid");
        assert_eq!(fb.pixel(0, 0), Pixel::grey(9));
        assert_eq!(fb.pixel(0, 6), Pixel::grey(9));
        assert_eq!(fb.pixel(0, 7), Pixel::WHITE);
        assert_eq!(fb.pixel(5, 96), Pixel::WHITE);
        assert_eq!(fb.pixel(5, 97), Pixel::grey(9));
        assert_eq!(fb.tiles().tile(1, 1).solid, Some(Pixel::grey(9)));

        // Blends store every tile they touch.
        copy.blend_rect_from(&fb, Rect::new(64, 0, 64, 64));
        assert_eq!(copy.solid_tile_count(), 2);
    }

    #[test]
    fn tile_aligned_scrolls_move_tiles() {
        let res = Resolution::new(70, 160); // 2×3 tiles, uneven edges
        let mut fb = FrameBuffer::new(res);
        for y in 0..res.height {
            for x in 0..res.width {
                fb.set_pixel(x, y, Pixel::grey((x * 3 + y) as u8));
            }
        }
        fb.fill_rect(Rect::new(0, 64, 64, 64), Pixel::grey(200));
        let before = fb.clone();
        fb.scroll_up(64, Pixel::WHITE);
        for y in 0..res.height {
            for x in 0..res.width {
                let expect = if y + 64 < res.height {
                    before.pixel(x, y + 64)
                } else {
                    Pixel::WHITE
                };
                assert_eq!(fb.pixel(x, y), expect, "({x}, {y})");
            }
        }
        // The solid tile moved up with its signature.
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        assert_eq!(fb.tiles().tile(1, 0).solid, None);
        assert_eq!(fb.tiles().tile(0, 2).solid, Some(Pixel::WHITE));
    }

    #[test]
    fn mean_luminance_of_half_white() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.fill_rect(Rect::new(0, 0, 2, 1), Pixel::WHITE);
        assert!((fb.mean_luminance() - 0.5).abs() < 1e-9);
    }
}
