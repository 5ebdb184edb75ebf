//! The software framebuffer.

use std::sync::Arc;

use crate::damage::DamageRegion;
use crate::geometry::{Rect, Resolution};
use crate::pixel::{Pixel, PixelFormat};
use crate::tile::{TileMap, TILE_SIZE};

/// A software framebuffer: a dense row-major grid of [`Pixel`]s with two
/// monotonically increasing generation counters and a damage region.
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
/// colour) inside the same row walks — see [`tiles`](Self::tiles) and
/// the [`tile`](crate::tile) module.
///
/// # Pending tiles
///
/// A tile that a constant fill covers whole is not written: it becomes
/// *pending*, its storage unspecified and its pixels, by definition, its
/// solid colour. A fresh buffer starts with every tile pending black, so
/// a full-screen [`fill`](Self::fill) records one colour per tile instead
/// of writing every pixel. A write that covers only part of a pending
/// tile first writes the colour into that tile (*materializes* it);
/// copies carry pending state over for the tiles they cover whole; and
/// every reader ([`pixel`](Self::pixel), [`pixels`](Self::pixels),
/// equality, the diff helpers) resolves pending tiles to their colour.
/// Pending state is not observable: pixels, generations, damage and tile
/// signatures are exactly those of a buffer that wrote every pixel.
///
/// # Shared storage
///
/// Pixel storage is copy-on-write. [`clone`](Clone::clone) and
/// [`share_from`](Self::share_from) make two buffers hold the same
/// allocation (and the same pending tiles) without copying a pixel; the
/// first write on either side detaches that side onto storage of its
/// own, so a write on one buffer is never visible through the other.
/// Detaching costs at most one copy of the shared pixels: none for
/// whole-buffer overwrites ([`fill`](Self::fill), a
/// [`copy_from`](Self::copy_from)), one shifted copy for
/// [`scroll_up`](Self::scroll_up), and one plain copy before every other
/// write. A buffer keeps one *spare* allocation to detach into, which
/// [`share_from`](Self::share_from) refills, so a compositor that shares
/// a surface's storage every frame ping-pongs two allocations and
/// allocates nothing. Sharing is not observable: equality, pixels,
/// generations, damage and tile signatures behave exactly as if every
/// share were a deep copy.
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
    /// Copy-on-write pixel storage, possibly shared with other buffers.
    pixels: Arc<Vec<Pixel>>,
    /// A uniquely held allocation to detach into when a write finds
    /// `pixels` shared. Its contents are stale and never observable.
    spare: Option<Arc<Vec<Pixel>>>,
    /// The pending tiles (see the type docs). A pending tile is always
    /// solid, and its storage is never read. Buffers that share storage
    /// have equal pending tiles.
    pending: Pending,
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
            ..FrameBuffer::recycled(resolution, Vec::new())
        }
    }

    /// Rebuilds a framebuffer from recycled pixel `storage`: the
    /// observable state is identical to [`new`](Self::new) (black RGBA8888
    /// pixels, both generations zero, empty damage), but the storage's
    /// allocation is reused. Every tile starts pending black, so the old
    /// contents are never read or overwritten; only storage shorter than
    /// the resolution is extended. This is the steady-state path of
    /// scratch reuse across sweep runs — pair it with
    /// [`into_storages`](Self::into_storages).
    pub fn recycled(resolution: Resolution, mut storage: Vec<Pixel>) -> FrameBuffer {
        let n = resolution.pixel_count();
        storage.truncate(n);
        storage.resize(n, Pixel::BLACK);
        let tiles = TileMap::new(resolution);
        FrameBuffer {
            resolution,
            format: PixelFormat::Rgba8888,
            pixels: Arc::new(storage),
            spare: None,
            pending: Pending::of_all(tiles.len()),
            generation: 0,
            content_generation: 0,
            damage: DamageRegion::new(),
            tiles,
        }
    }

    /// Consumes the buffer, handing back for recycling (see
    /// [`recycled`](Self::recycled)) every allocation it holds alone: its
    /// pixel storage, unless another buffer still shares it (the last
    /// holder hands it back), and its detach spare. Recycling every
    /// buffer that shared storage therefore returns exactly the
    /// allocations they were built from plus any they allocated. The
    /// contents are unspecified.
    pub fn into_storages(self) -> impl Iterator<Item = Vec<Pixel>> {
        let pixels = Arc::try_unwrap(self.pixels).ok();
        let spare = self.spare.and_then(|s| Arc::try_unwrap(s).ok());
        pixels.into_iter().chain(spare)
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

    /// Number of pending tiles (see the type docs): tiles whose colour
    /// is recorded but whose pixels were never written.
    pub fn pending_tile_count(&self) -> usize {
        self.pending.count
    }

    /// An opaque identity of the pixel storage: two buffers report the
    /// same id exactly when they share storage, and a recycled
    /// allocation keeps its id. It gives no access to the pixels.
    pub fn storage_id(&self) -> usize {
        self.pixels.as_ptr() as usize
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
        self.pending_colour(self.tiles.index_of(x, y))
            .or_else(|| self.pixels.get(self.index(x, y)).copied())
            .unwrap_or(Pixel::BLACK)
    }

    /// All pixels in row-major order, pending tiles resolved to their
    /// colour.
    pub fn pixels(&self) -> impl Iterator<Item = Pixel> + '_ {
        let width = self.resolution.width;
        (0..self.resolution.height)
            .flat_map(move |y| self.row_runs(y, 0, width))
            .flat_map(|(_, run)| run.iter())
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
        let i = self.index(x, y);
        let q = self.format.quantize(p);
        let written = Rect::new(x, y, 1, 1);
        if let Some(slot) = self
            .write_target(Detach::Copy, written, Rect::default())
            .get_mut(i)
        {
            *slot = q;
        }
        self.mark(written, Some(q));
    }

    /// Fills the whole buffer with one colour. Every tile becomes
    /// pending: no pixel is written.
    pub fn fill(&mut self, p: Pixel) {
        self.fill_rect(self.resolution.bounds(), p);
    }

    /// Fills `rect` (clipped to the screen) with one colour. A fully
    /// off-screen rect still counts as a write (generation bump), matching
    /// hardware behaviour where the draw call is issued regardless. The
    /// tiles `rect` covers whole become pending instead of being written.
    pub fn fill_rect(&mut self, rect: Rect, p: Pixel) {
        let q = self.format.quantize(p);
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            let width = self.resolution.width as usize;
            let block = self.tiles.covered_block(r);
            let pixels = self.write_target(self.overwrite(r), r, block);
            let mut fill = |y: u32, x0: u32, x1: u32| {
                let row = y as usize * width;
                if let Some(seg) = pixels.get_mut(row + x0 as usize..row + x1 as usize) {
                    seg.fill(q);
                }
            };
            // Whole rows above and below the block, the sides beside it.
            for y in (r.y..block.y).chain(block.bottom()..r.bottom()) {
                fill(y, r.x, r.right());
            }
            if block.width < r.width {
                for y in block.y..block.bottom() {
                    fill(y, r.x, block.x);
                    fill(y, block.right(), r.right());
                }
            }
            self.set_pending(block, |_| true);
        }
        self.mark(clipped.unwrap_or_default(), Some(q));
    }

    /// Copies the entirety of `src` into this buffer.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_from(&mut self, src: &FrameBuffer) {
        assert_eq!(
            self.resolution, src.resolution,
            "copy_from requires matching resolutions"
        );
        // Buffers sharing storage already hold identical pixels.
        if self.format == src.format && Arc::ptr_eq(&self.pixels, &src.pixels) {
            self.mark_copied(self.resolution.bounds(), src);
        } else {
            self.copy_rect_from(src, self.resolution.bounds());
        }
    }

    /// Makes this buffer an exact copy of `src` without copying pixels:
    /// the buffer adopts `src`'s storage and pending tiles (shared
    /// copy-on-write, see the type docs) and hands its own old storage to
    /// `src` as the spare `src` detaches into on its next write.
    /// Observably identical to [`copy_from`](Self::copy_from) — pixels,
    /// generations, damage and tile signatures — and `src` is observably
    /// unchanged. When the formats differ the pixels need quantizing, so
    /// this falls back to [`copy_from`](Self::copy_from).
    ///
    /// This is the compositor's direct-scanout path: a sole opaque
    /// full-screen surface lends its buffer to the framebuffer, and the
    /// two allocations swap roles every frame.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn share_from(&mut self, src: &mut FrameBuffer) {
        assert_eq!(
            self.resolution, src.resolution,
            "share_from requires matching resolutions"
        );
        if self.format != src.format {
            self.copy_from(src);
            return;
        }
        if !Arc::ptr_eq(&self.pixels, &src.pixels) {
            let mut old = std::mem::replace(&mut self.pixels, Arc::clone(&src.pixels));
            // Only storage no other buffer can still read may become a
            // spare; a spare it displaces from `src` stays with us.
            if Arc::get_mut(&mut old).is_some() {
                let displaced = src.spare.replace(old);
                self.spare = self.spare.take().or(displaced);
            }
            self.pending.copy_from(&src.pending);
        }
        self.mark_copied(self.resolution.bounds(), src);
    }

    /// Copies `rect` (clipped) from `src` into the same position here.
    /// Tiles the copy covers whole take over `src`'s pending state; a
    /// pending source tile is copied as its colour, never read.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_rect_from(&mut self, src: &FrameBuffer, rect: Rect) {
        assert_eq!(
            self.resolution, src.resolution,
            "copy_rect_from requires matching resolutions"
        );
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            let convert = self.format != src.format;
            let format = self.format;
            let width = self.resolution.width as usize;
            let block = self.tiles.covered_block(r);
            let pixels = self.write_target(self.overwrite(r), r, block);
            for y in r.y..r.bottom() {
                for (x, run) in src.row_runs(y, r.x, r.right()) {
                    let i = y as usize * width + x as usize;
                    // The runs lie inside `r`, which is clipped to both
                    // buffers (the resolutions match).
                    let Some(dst) = pixels.get_mut(i..i + run.len()) else {
                        continue;
                    };
                    match run {
                        Run::Stored(from) if convert => {
                            for (d, &s) in dst.iter_mut().zip(from) {
                                *d = format.quantize(s);
                            }
                        }
                        Run::Stored(from) => dst.copy_from_slice(from),
                        // A covered tile inherits the pending state below.
                        Run::Pending(..) if block.contains(x, y) => {}
                        Run::Pending(c, _) => dst.fill(format.quantize(c)),
                    }
                }
            }
            self.set_pending(block, |i| src.pending.is(i));
        }
        self.mark_copied(clipped.unwrap_or_default(), src);
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
        assert_eq!(
            self.resolution, src.resolution,
            "blend_rect_from requires matching resolutions"
        );
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            let format = self.format;
            let width = self.resolution.width as usize;
            // Blends read the destination: materialize every tile.
            let pixels = self.write_target(Detach::Copy, r, Rect::default());
            for y in r.y..r.bottom() {
                for (x, run) in src.row_runs(y, r.x, r.right()) {
                    let i = y as usize * width + x as usize;
                    // Same bound as copy_rect_from: clipped to both buffers.
                    let Some(dst) = pixels.get_mut(i..i + run.len()) else {
                        continue;
                    };
                    for (d, s) in dst.iter_mut().zip(run.iter()) {
                        *d = format.quantize(s.over(*d));
                    }
                }
            }
        }
        // Blend results depend on prior destination pixels, so the tiles
        // degrade to unknown content.
        self.mark(clipped.unwrap_or_default(), None);
    }

    /// Shifts the buffer contents up by `dy` pixels (a scroll), filling the
    /// exposed bottom band with `fill`.
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
        let w = self.resolution.width as usize;
        let q = self.format.quantize(fill);
        let bounds = self.resolution.bounds();
        // Pending tiles hold no pixels to move: materialize them first.
        if self.pending.count > 0 {
            self.write_target(Detach::Copy, bounds, Rect::default());
        }
        let start = ((h - dy) as usize) * w;
        if let Some(seg) = self
            .pixels_mut(Detach::Shift(dy as usize * w))
            .get_mut(start..)
        {
            seg.fill(q);
        }
        self.mark(bounds, None);
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

    /// The raw pixel storage, row-major, for the grid gathers. Pixels
    /// under pending tiles are unspecified, so readers must skip them:
    /// `sample_into` takes their colour, and the tiled gather reads only
    /// under tiles whose signature is unknown, which are never pending.
    pub(crate) fn storage(&self) -> &[Pixel] {
        &self.pixels
    }

    /// The colour of the tile at row-major index `i` if it is pending.
    pub(crate) fn pending_colour(&self, i: usize) -> Option<Pixel> {
        if self.pending.is(i) {
            self.tiles.solid_at(i)
        } else {
            None
        }
    }

    fn index(&self, x: u32, y: u32) -> usize {
        (y as usize) * (self.resolution.width as usize) + x as usize
    }

    /// Row `y` between columns `x0..x1` as runs: each stretch of
    /// non-pending tiles as its stored pixels, each pending tile as its
    /// colour. The runs are in order and cover `x0..x1` exactly.
    fn row_runs(&self, y: u32, x0: u32, x1: u32) -> RowRuns<'_> {
        RowRuns {
            fb: self,
            y,
            x: x0,
            end: x1,
        }
    }

    /// Sets the pending flag of every tile in the tile-aligned `block`
    /// to `pending(index)`.
    fn set_pending(&mut self, block: Rect, pending: impl Fn(usize) -> bool) {
        self.tiles
            .for_each_tile(block, |i, _| self.pending.set(i, pending(i)));
    }

    /// How a write that overwrites every pixel of `rect` detaches: with
    /// no copy when `rect` is the whole screen.
    fn overwrite(&self, rect: Rect) -> Detach {
        if rect == self.resolution.bounds() {
            Detach::Overwrite
        } else {
            Detach::Copy
        }
    }

    /// Mutable storage for a write to `rect`, detached from shared
    /// storage as `detach` asks (see [`pixels_mut`](Self::pixels_mut)):
    /// the pending tiles `rect` intersects are materialized, except those
    /// inside `keep`, which the write covers whole and records itself.
    fn write_target(&mut self, detach: Detach, rect: Rect, keep: Rect) -> &mut [Pixel] {
        self.pixels_mut(detach);
        let width = self.resolution.width as usize;
        let Some(pixels) = Arc::get_mut(&mut self.pixels) else {
            return &mut [];
        };
        if self.pending.count == 0 {
            return pixels;
        }
        let tiles = &self.tiles;
        tiles.for_each_tile(rect, |i, tile| {
            if !self.pending.is(i) || keep.contains(tile.x, tile.y) {
                return;
            }
            self.pending.set(i, false);
            let Some(c) = tiles.solid_at(i) else {
                return;
            };
            for y in tile.y..tile.bottom() {
                let row = y as usize * width + tile.x as usize;
                if let Some(seg) = pixels.get_mut(row..row + tile.width as usize) {
                    seg.fill(c);
                }
            }
        });
        pixels
    }

    /// Mutable access to the pixels for a write, detaching from shared
    /// storage first (see the type docs). `detach` says what the write
    /// needs of the old pixels; with [`Detach::Shift`] the rows come back
    /// already moved up, shared or not.
    fn pixels_mut(&mut self, detach: Detach) -> &mut [Pixel] {
        match Arc::get_mut(&mut self.pixels) {
            Some(own) => {
                if let Detach::Shift(shift) = detach {
                    if shift < own.len() {
                        own.copy_within(shift.., 0);
                    }
                }
            }
            None => self.detach(detach),
        }
        Arc::get_mut(&mut self.pixels).map_or(&mut [], |v| v.as_mut_slice())
    }

    /// Moves a buffer whose storage is shared onto storage of its own,
    /// prepared as `detach` asks. It detaches into the spare, so the only
    /// allocation is the fallback for a buffer that has none.
    fn detach(&mut self, detach: Detach) {
        let n = self.resolution.pixel_count();
        // No `Weak` is ever made, so a strong count of one means the
        // spare is held by nobody else.
        let mut own = match self.spare.take() {
            Some(spare) if Arc::strong_count(&spare) == 1 => spare,
            // ccdem-lint: allow(alloc-hot-path) — no-spare fallback for
            // a buffer written while shared with nothing to detach into.
            // The compositor never reaches it in steady state: its sole
            // surface detaches into the spare every share hands it, and
            // nothing writes the framebuffer while it is shared.
            _ => Arc::new(Vec::with_capacity(n)),
        };
        if let Some(v) = Arc::get_mut(&mut own) {
            match detach {
                Detach::Overwrite => {}
                Detach::Shift(shift) => {
                    v.clear();
                    v.extend_from_slice(self.pixels.get(shift..).unwrap_or_default());
                }
                Detach::Copy => {
                    v.clear();
                    v.extend_from_slice(&self.pixels);
                }
            }
            v.resize(n, Pixel::BLACK);
        }
        self.pixels = own;
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
            self.tiles.stamp_rect(written, self.content_generation, solid);
        }
    }

    /// [`mark`](Self::mark) variant for whole-region copies from `src`:
    /// the tile signatures inherit the source tiles' solidity (quantized
    /// when the formats differ) instead of degrading to unknown.
    fn mark_copied(&mut self, written: Rect, src: &FrameBuffer) {
        self.generation += 1;
        if !written.is_empty() {
            self.content_generation += 1;
            self.damage.add(written);
            let convert = self.format != src.format;
            let format = self.format;
            self.tiles
                .inherit_rect(written, self.content_generation, &src.tiles, |c| {
                    if convert {
                        format.quantize(c)
                    } else {
                        c
                    }
                });
        }
    }
}

impl Clone for FrameBuffer {
    /// A cheap clone: the copy shares this buffer's pixel storage
    /// copy-on-write (see the type docs) and starts without a spare.
    fn clone(&self) -> FrameBuffer {
        FrameBuffer {
            resolution: self.resolution,
            format: self.format,
            pixels: Arc::clone(&self.pixels),
            spare: None,
            pending: self.pending.clone(),
            generation: self.generation,
            content_generation: self.content_generation,
            damage: self.damage,
            tiles: self.tiles.clone(),
        }
    }
}

impl PartialEq for FrameBuffer {
    /// Compares observable state: resolved pixels, not how they are
    /// stored (the detach spare and pending tiles are not part of it).
    fn eq(&self, other: &FrameBuffer) -> bool {
        let same_storage =
            Arc::ptr_eq(&self.pixels, &other.pixels) && self.pending == other.pending;
        self.resolution == other.resolution
            && self.format == other.format
            && self.generation == other.generation
            && self.content_generation == other.content_generation
            && self.damage == other.damage
            && self.tiles == other.tiles
            && (same_storage || self.pixels().eq(other.pixels()))
    }
}

/// Which tiles of a buffer are pending, and how many.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending {
    /// Per tile, in [`TileMap`] order.
    flags: Vec<bool>,
    /// The number of set flags.
    count: usize,
}

impl Pending {
    /// `n` tiles, all pending.
    fn of_all(n: usize) -> Pending {
        Pending {
            flags: vec![true; n],
            count: n,
        }
    }

    fn is(&self, i: usize) -> bool {
        self.flags.get(i) == Some(&true)
    }

    fn set(&mut self, i: usize, pending: bool) {
        if let Some(flag) = self.flags.get_mut(i) {
            if *flag != pending {
                *flag = pending;
                self.count = if pending { self.count + 1 } else { self.count - 1 };
            }
        }
    }

    /// Becomes a copy of `other`, reusing this allocation.
    fn copy_from(&mut self, other: &Pending) {
        self.flags.clone_from(&other.flags);
        self.count = other.count;
    }
}

/// What a write needs of a buffer's old pixels when it detaches from
/// shared storage.
#[derive(Debug, Clone, Copy)]
enum Detach {
    /// Nothing: the write overwrites every pixel.
    Overwrite,
    /// The pixels moved up by this many (a scroll); the vacated tail is
    /// overwritten.
    Shift(usize),
    /// All of them: the write touches only some pixels.
    Copy,
}

/// One run of a row (see `FrameBuffer::row_runs`).
#[derive(Debug, Clone, Copy)]
enum Run<'a> {
    /// Stored pixels of tiles that are not pending.
    Stored(&'a [Pixel]),
    /// This many pixels of a pending tile of this colour.
    Pending(Pixel, usize),
}

impl<'a> Run<'a> {
    fn len(&self) -> usize {
        match *self {
            Run::Stored(pixels) => pixels.len(),
            Run::Pending(_, n) => n,
        }
    }

    fn iter(self) -> impl Iterator<Item = Pixel> + 'a {
        let (stored, c, n) = match self {
            Run::Stored(pixels) => (pixels, Pixel::BLACK, 0),
            Run::Pending(c, n) => (&[][..], c, n),
        };
        stored.iter().copied().chain(std::iter::repeat_n(c, n))
    }
}

/// Iterator behind `FrameBuffer::row_runs`, yielding each run with its
/// first column.
struct RowRuns<'a> {
    fb: &'a FrameBuffer,
    y: u32,
    x: u32,
    end: u32,
}

impl<'a> Iterator for RowRuns<'a> {
    type Item = (u32, Run<'a>);

    fn next(&mut self) -> Option<(u32, Run<'a>)> {
        let start = self.x;
        if start >= self.end {
            return None;
        }
        let fb = self.fb;
        let tile_end = |x: u32| ((x / TILE_SIZE + 1) * TILE_SIZE).min(self.end);
        let pending = |x: u32| fb.pending_colour(fb.tiles.index_of(x, self.y));
        if let Some(c) = pending(start) {
            self.x = tile_end(start);
            return Some((start, Run::Pending(c, (self.x - start) as usize)));
        }
        let mut end = tile_end(start);
        while end < self.end && pending(end).is_none() {
            end = tile_end(end);
        }
        self.x = end;
        let row = fb.index(0, self.y);
        let stored = fb
            .pixels
            .get(row + start as usize..row + end as usize)
            .unwrap_or_default();
        Some((start, Run::Stored(stored)))
    }
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
    fn recycled_buffer_is_indistinguishable_from_new() {
        let res = Resolution::new(6, 5);
        let mut used = FrameBuffer::new(res);
        used.fill(Pixel::WHITE);
        used.set_pixel(1, 1, Pixel::grey(3));
        let storage = used.into_storages().next().unwrap();
        let ptr = storage.as_ptr() as usize;
        let recycled = FrameBuffer::recycled(res, storage);
        assert_eq!(recycled, FrameBuffer::new(res));
        assert_eq!(recycled.storage_id(), ptr, "allocation reused");
        // A smaller target resolution also reuses the allocation.
        let shrunk = FrameBuffer::recycled(
            Resolution::new(2, 2),
            recycled.into_storages().next().unwrap(),
        );
        assert_eq!(shrunk, FrameBuffer::new(Resolution::new(2, 2)));
    }

    #[test]
    fn draw_ops_maintain_tile_signatures() {
        let res = Resolution::new(128, 128); // 2×2 tiles
        let mut fb = FrameBuffer::new(res);
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::BLACK));

        fb.fill(Pixel::grey(40));
        assert_eq!(fb.tiles().tile(1, 1).solid, Some(Pixel::grey(40)));
        assert_eq!(fb.tiles().tile(1, 1).stamp, fb.content_generation());

        // Partial fill of one tile degrades only that tile.
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
    fn whole_tile_fills_defer_and_partial_writes_materialize() {
        let res = Resolution::new(128, 100); // 2×2 tiles, short bottom row
        let mut fb = FrameBuffer::new(res);
        assert_eq!(fb.pending_tile_count(), 4, "a fresh buffer is all pending");
        fb.set_pixel(1, 1, Pixel::WHITE);
        assert_eq!(fb.pending_tile_count(), 3);
        fb.fill(Pixel::grey(9));
        assert_eq!(fb.pending_tile_count(), 4);
        // Covers the bottom-left tile whole (clipped at the screen edge)
        // and part of the top-left one.
        fb.fill_rect(Rect::new(0, 10, 64, 200), Pixel::WHITE);
        assert_eq!(fb.pending_tile_count(), 3);
        assert_eq!(fb.pixel(0, 9), Pixel::grey(9));
        assert_eq!(fb.pixel(63, 99), Pixel::WHITE);

        // A copy carries pending state over for the tiles it covers
        // whole, and a share for all of them.
        let mut copy = FrameBuffer::new(res);
        copy.set_pixel(100, 90, Pixel::WHITE);
        assert_eq!(copy.pending_tile_count(), 3);
        copy.copy_rect_from(&fb, Rect::new(64, 0, 64, 100));
        assert_eq!(copy.pending_tile_count(), 4, "both right tiles pend in fb");
        assert!(copy.pixels().skip(64).take(64).all(|p| p == Pixel::grey(9)));
        copy.share_from(&mut fb);
        assert_eq!(copy.pending_tile_count(), fb.pending_tile_count());
        assert!(copy.pixels().eq(fb.pixels()));

        // Scrolls and blends materialize every tile they read.
        fb.scroll_up(3, Pixel::BLACK);
        assert_eq!(fb.pending_tile_count(), 0);
        assert_eq!(fb.pixel(0, 6), Pixel::grey(9));
        assert_eq!(fb.pixel(0, 7), Pixel::WHITE);
        copy.blend_rect_from(&fb, Rect::new(64, 0, 64, 64));
        assert_eq!(copy.pending_tile_count(), 2);
    }

    #[test]
    fn mean_luminance_of_half_white() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.fill_rect(Rect::new(0, 0, 2, 1), Pixel::WHITE);
        assert!((fb.mean_luminance() - 0.5).abs() < 1e-9);
    }
}
