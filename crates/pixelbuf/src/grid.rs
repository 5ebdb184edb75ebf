//! Grid-based framebuffer comparison (paper §3.1).
//!
//! Comparing every pixel of a modern panel is too slow to run per frame
//! (Fig. 6: > 40 ms at 720×1280, against a 16.67 ms frame budget at 60 Hz).
//! The paper instead samples the *centre pixel of each cell* of a coarse
//! grid laid over the screen and treats that pixel as representative of the
//! cell.
//!
//! [`GridSampler`] has one production gather and one reference oracle.
//! [`compare_and_capture_tiled`](GridSampler::compare_and_capture_tiled)
//! compares and refreshes the snapshot in one pass, restricted to the
//! damage and pruned by tile signatures; it reads each damaged row of a
//! tile as one window of that tile's storage and, when the sampled
//! columns are consecutive, compares two pixels per `u64` word and
//! refreshes with a `memcpy`.
//! [`compare`](GridSampler::compare) is the scalar oracle it must agree
//! with: one [`FrameBuffer::pixel`] read per grid point, rect by rect,
//! row-major.

use crate::buffer::FrameBuffer;
use crate::damage::DamageRegion;
use crate::geometry::Resolution;
use crate::pixel::Pixel;
use crate::tile::{TileMap, TILE_SIZE};

/// Row stride of a tile's storage.
const STRIDE: usize = TILE_SIZE as usize;

/// Outcome of one grid comparison: the verdict plus how much work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCompare {
    /// Whether any inspected grid point changed.
    pub differs: bool,
    /// Grid points compared against the snapshot before the early exit
    /// (equals the number of candidate points when nothing differed).
    pub points_compared: usize,
    /// Grid points whose framebuffer pixel was actually read, comparisons
    /// and snapshot refreshes combined. This is the per-frame gather cost:
    /// the oracle [`GridSampler::compare`] reads each compared point once;
    /// [`GridSampler::compare_and_capture_tiled`] reads each point inside
    /// the damage once, except in clean and solid tiles, which it never
    /// reads.
    pub points_read: usize,
}

/// Outcome of a tile-gated comparison
/// ([`GridSampler::compare_and_capture_tiled`]): the grid verdict and
/// accounting plus how far the tile signatures pruned the descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompare {
    /// The verdict and accounting. `differs` and `points_compared` are
    /// bit-identical to what the oracle [`GridSampler::compare`] reports
    /// for the same buffer, damage and snapshot; `points_read` counts
    /// only the framebuffer pixels actually read, which the clean- and
    /// solid-tile paths avoid entirely.
    pub grid: GridCompare,
    /// Tiles whose signature was examined (per damage rect and tile-row
    /// group, so a tile revisited for another rect counts again).
    pub tiles_checked: usize,
    /// Checked tiles whose stamp forced a descent (written since the
    /// last observation).
    pub tiles_descended: usize,
}

/// How a tile's signature resolves for one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileKind {
    /// Stamp at most the last observed content generation: the tile's
    /// pixels are unchanged since the snapshot was captured.
    Clean,
    /// Written since, but provably this exact colour everywhere.
    Solid(Pixel),
    /// Written since, content unknown: descend to pixel compares.
    Unknown,
}

fn tile_kind(tiles: &TileMap, tx: u32, ty: u32, last_content_generation: u64) -> TileKind {
    let t = tiles.tile(tx, ty);
    if t.stamp <= last_content_generation {
        TileKind::Clean
    } else if let Some(c) = t.solid {
        TileKind::Solid(c)
    } else {
        TileKind::Unknown
    }
}

/// Packs two pixels into one comparison word: dense rows compare two
/// pixels per `u64` instead of one at a time. Only equality is ever
/// asked of the word, so byte order inside it is irrelevant.
fn word(pair: &[Pixel]) -> u64 {
    pair.iter()
        .fold(0u64, |w, p| (w << 32) | u64::from(p.to_bits()))
}

/// Index of the first differing sample between a dense (stride-1) window
/// and its snapshot slots. Compares two pixels per `u64` word via
/// `chunks_exact(2)`, handles the odd-length tail scalar, and locates
/// the exact first-differing pixel inside a mismatching word so early
/// exit accounting is bit-identical to a scalar sweep.
fn first_diff_dense(window: &[Pixel], prev: &[Pixel]) -> Option<usize> {
    debug_assert_eq!(window.len(), prev.len());
    if window == prev {
        // Bulk equality is the common (redundant-frame) case and
        // vectorizes to a plain memory compare.
        return None;
    }
    let mut cur = window.chunks_exact(2);
    let mut old = prev.chunks_exact(2);
    let mut n = 0usize;
    for (c, p) in cur.by_ref().zip(old.by_ref()) {
        if word(c) != word(p) {
            // If the words differ but their first pixels agree, the
            // difference sits at the second pixel of the word.
            return Some(n + usize::from(c.first() == p.first()));
        }
        n += 2;
    }
    cur.remainder()
        .iter()
        .zip(old.remainder())
        .position(|(a, b)| a != b)
        .map(|k| n + k)
}

/// Whether the strictly increasing sample columns `xs` are consecutive
/// pixels, so a row window holds exactly the sampled pixels.
fn is_dense(xs: &[u32]) -> bool {
    match (xs.first(), xs.last()) {
        (Some(&first), Some(&last)) => (last - first) as usize == xs.len() - 1,
        _ => false,
    }
}

/// Row `y` of a tile's storage `stored` (row-major with a stride of
/// [`TILE_SIZE`]), empty when the tile has no storage.
fn tile_row(stored: &[Pixel], y: u32) -> Option<&[Pixel; STRIDE]> {
    let at = (y % TILE_SIZE) as usize * STRIDE;
    stored.get(at..at + STRIDE)?.try_into().ok()
}

/// The offset of pixel column `x` in its tile's rows.
fn lane(x: u32) -> usize {
    (x % TILE_SIZE) as usize
}

/// The sampled columns `xs` (consecutive, in one tile) of a tile row.
fn dense_window<'a>(row: &'a [Pixel; STRIDE], xs: &[u32]) -> &'a [Pixel] {
    let (Some(&first), Some(&last)) = (xs.first(), xs.last()) else {
        return &[];
    };
    row.get(lane(first)..=lane(last)).unwrap_or_default()
}

/// Index of the first sampled column `xs` (all in one tile) of a tile
/// row whose pixel differs from its snapshot slot.
fn first_diff_row(row: &[Pixel; STRIDE], xs: &[u32], dense: bool, snap: &[Pixel]) -> Option<usize> {
    if dense {
        return first_diff_dense(dense_window(row, xs), snap);
    }
    xs.iter().zip(snap).position(|(&x, s)| {
        // ccdem-lint: allow(panic) — a lane is below TILE_SIZE, the row's length.
        row[lane(x)] != *s
    })
}

/// Copies the sampled columns `xs` (all in one tile) of a tile row into
/// `dst`: a `memcpy` when the columns are consecutive.
fn capture_row(row: &[Pixel; STRIDE], xs: &[u32], dense: bool, dst: &mut [Pixel]) {
    if dense {
        dst.copy_from_slice(dense_window(row, xs));
        return;
    }
    // A plain index loop: about 1.2× faster than zipped iterators in
    // release builds on the 9K grid, 3.5× in debug.
    let mut i = 0;
    while i < dst.len() {
        // ccdem-lint: allow(panic) — dst and xs have equal lengths, and a
        // lane is below TILE_SIZE, the row's length.
        dst[i] = row[lane(xs[i])];
        i += 1;
    }
}

/// Precomputed sample positions for grid-based comparison.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::grid::GridSampler;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let res = Resolution::GALAXY_S3;
/// // The paper's 9K-pixel configuration: a 72×128 grid.
/// let sampler = GridSampler::new(res, 72, 128);
/// assert_eq!(sampler.sample_count(), 9216);
///
/// let mut fb = FrameBuffer::new(res);
/// let before = sampler.sample(&fb);
/// fb.fill(Pixel::WHITE);
/// assert!(sampler.compare(&fb, fb.damage(), &before).differs);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSampler {
    resolution: Resolution,
    cols: u32,
    rows: u32,
    /// Sample x-coordinate of each grid column, strictly increasing.
    col_xs: Vec<u32>,
    /// Sample y-coordinate of each grid row, strictly increasing.
    row_ys: Vec<u32>,
}

impl GridSampler {
    /// Creates a sampler with a `cols`×`rows` grid over `resolution`,
    /// sampling the centre pixel of each cell.
    ///
    /// # Panics
    ///
    /// Panics if `cols`/`rows` is zero or exceeds the resolution.
    pub fn new(resolution: Resolution, cols: u32, rows: u32) -> GridSampler {
        assert!(cols > 0 && rows > 0, "grid dimensions must be non-zero");
        assert!(
            cols <= resolution.width && rows <= resolution.height,
            "grid {cols}x{rows} exceeds resolution {resolution}"
        );
        // Centre of each cell, in pixel coordinates. Both axes are
        // strictly increasing (the cell pitch is at least one pixel), so
        // damage rectangles map to grid index ranges by binary search.
        let col_xs: Vec<u32> = (0..cols)
            .map(|gx| ((2 * gx + 1) * resolution.width) / (2 * cols))
            .collect();
        let row_ys: Vec<u32> = (0..rows)
            .map(|gy| ((2 * gy + 1) * resolution.height) / (2 * rows))
            .collect();
        GridSampler {
            resolution,
            cols,
            rows,
            col_xs,
            row_ys,
        }
    }

    /// Creates a sampler that compares every pixel (the grid equals the
    /// resolution). This is the Fig. 6 "921K" configuration.
    pub fn full(resolution: Resolution) -> GridSampler {
        GridSampler::new(resolution, resolution.width, resolution.height)
    }

    /// Creates a sampler whose sample count is at most `budget` pixels,
    /// with the grid shaped to the screen's aspect ratio.
    ///
    /// For the Galaxy S3 (720×1280) the paper's budgets map to:
    /// 2304 → 36×64, 9216 → 72×128, 36864 → 144×256.
    ///
    /// Degenerate inputs are handled exactly rather than panicking: a
    /// zero budget yields the minimal 1×1 sampler (one centre point), a
    /// budget of at least the pixel count yields the full-resolution
    /// sampler, and single-row / single-column screens get `budget`
    /// samples along their one axis.
    pub fn for_pixel_budget(resolution: Resolution, budget: usize) -> GridSampler {
        if budget >= resolution.pixel_count() {
            return GridSampler::full(resolution);
        }
        // Even a zero budget needs a usable sampler: one centre point.
        let budget = budget.max(1);
        let aspect = f64::from(resolution.width) / f64::from(resolution.height);
        // Capping cols at the budget makes extreme aspect ratios exact
        // (a 1-pixel-tall screen gets `budget`×1) and guarantees the
        // rounding guard below can never underflow cols past 1.
        let mut cols = ((budget as f64 * aspect).sqrt().floor() as u32)
            .clamp(1, resolution.width)
            .min(budget.min(resolution.width as usize) as u32);
        let mut rows = ((budget / cols as usize) as u32).clamp(1, resolution.height);
        // Guard rounding: never exceed the budget.
        while (cols as usize) * (rows as usize) > budget {
            if rows > 1 {
                rows -= 1;
            } else {
                cols -= 1;
            }
        }
        GridSampler::new(resolution, cols, rows)
    }

    /// The resolution this sampler was built for.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Grid width in cells.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Grid height in cells.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of pixels compared per frame.
    pub fn sample_count(&self) -> usize {
        (self.cols as usize) * (self.rows as usize)
    }

    /// Gathers the sampled pixels of `buffer` into a new vector.
    ///
    /// **Allocation contract:** allocates a fresh vector on every call.
    /// That is fine for tests and one-off setup, but never for per-frame
    /// paths — hot callers hold a reusable scratch vector and call
    /// [`sample_into`](Self::sample_into) instead.
    ///
    /// # Panics
    ///
    /// Panics if the buffer resolution does not match the sampler's.
    pub fn sample(&self, buffer: &FrameBuffer) -> Vec<Pixel> {
        let mut out = vec![Pixel::TRANSPARENT; self.sample_count()];
        self.sample_into(buffer, &mut out);
        out
    }

    /// Gathers the sampled pixels of `buffer` into `out`, resizing it to
    /// [`sample_count`](Self::sample_count). Every slot of `out` is
    /// overwritten, so recycled storage needs no clearing first.
    ///
    /// **Allocation contract:** allocation-free once `out` has reached
    /// capacity — reusing `out` across frames is the double-buffering
    /// "extra buffer" of §3.1, and the only supported way to sample on a
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if the buffer resolution does not match the sampler's.
    pub fn sample_into(&self, buffer: &FrameBuffer, out: &mut Vec<Pixel>) {
        self.check_buffer(buffer);
        let tiles = buffer.tiles();
        out.resize(self.sample_count(), Pixel::TRANSPARENT);
        let xs = &self.col_xs;
        for (&y, dst) in self.row_ys.iter().zip(out.chunks_exact_mut(xs.len())) {
            // Tile by tile: a solid tile's samples are its colour, the
            // rest are read from the tile's stored row.
            let mut s0 = 0;
            for seg in xs.chunk_by(|a, b| a / TILE_SIZE == b / TILE_SIZE) {
                let slots = dst.get_mut(s0..s0 + seg.len()).unwrap_or_default();
                s0 += seg.len();
                let x = seg.first().map_or(0, |&x| x);
                let i = tiles.index_of(x, y);
                match tile_row(buffer.tile_pixels(i), y) {
                    Some(row) => capture_row(row, seg, is_dense(seg), slots),
                    None => slots.fill(
                        tiles
                            .tile(x / TILE_SIZE, y / TILE_SIZE)
                            .solid
                            .unwrap_or(Pixel::BLACK),
                    ),
                }
            }
        }
    }

    /// The scalar reference oracle: compares the grid points inside
    /// `damage` against a previously captured sample, rect by rect in
    /// `damage` order and row-major within each rect, with one
    /// [`FrameBuffer::pixel`] read per point, and stops at the first
    /// difference. Pass the whole screen as `damage` for a full compare.
    /// [`compare_and_capture_tiled`](Self::compare_and_capture_tiled)
    /// must report the same `differs` and `points_compared`.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `previous` has the wrong length.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdem_pixelbuf::buffer::FrameBuffer;
    /// use ccdem_pixelbuf::damage::DamageRegion;
    /// use ccdem_pixelbuf::geometry::Resolution;
    /// use ccdem_pixelbuf::grid::GridSampler;
    /// use ccdem_pixelbuf::pixel::Pixel;
    ///
    /// let res = Resolution::new(100, 100);
    /// let g = GridSampler::new(res, 10, 10);
    /// let mut fb = FrameBuffer::new(res);
    /// let snap = g.sample(&fb);
    /// let screen = DamageRegion::of(res.bounds());
    ///
    /// let unchanged = g.compare(&fb, &screen, &snap);
    /// assert!(!unchanged.differs);
    /// assert_eq!(unchanged.points_compared, g.sample_count());
    ///
    /// fb.fill(Pixel::WHITE);
    /// let changed = g.compare(&fb, &screen, &snap);
    /// assert!(changed.differs);
    /// assert_eq!(changed.points_compared, 1); // first point already differs
    /// ```
    pub fn compare(
        &self,
        buffer: &FrameBuffer,
        damage: &DamageRegion,
        previous: &[Pixel],
    ) -> GridCompare {
        self.check_snapshot(buffer, previous);
        let cols = self.cols as usize;
        let (mut differs, mut compared) = (false, 0);
        'walk: for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            let ys = self.row_ys.get(gy0..gy1).unwrap_or(&[]);
            let xs = self.col_xs.get(gx0..gx1).unwrap_or(&[]);
            for (gy, &y) in (gy0..).zip(ys) {
                for (gx, &x) in (gx0..).zip(xs) {
                    compared += 1;
                    if Some(&buffer.pixel(x, y)) != previous.get(gy * cols + gx) {
                        differs = true;
                        break 'walk;
                    }
                }
            }
        }
        GridCompare {
            differs,
            points_compared: compared,
            points_read: compared,
        }
    }

    /// The production gather: compares the grid points inside `damage`
    /// against `snapshot` and refreshes the snapshot, in one pass.
    ///
    /// Tile signatures gate the descent: tiles unwritten since
    /// `last_content_generation` are skipped, provably-solid tiles are
    /// compared against their colour and refreshed with a `fill` (zero
    /// framebuffer reads), and only unknown tiles read pixels, one row
    /// window at a time. Rows that compared equal are not rewritten.
    ///
    /// Signatures gate *descent only*, never equality: `differs` and
    /// `points_compared` equal the oracle [`compare`](Self::compare)'s on
    /// the same inputs, and the refreshed snapshot equals a fresh
    /// [`sample`](Self::sample). The walk is segment-major within each
    /// tile row, so the row-major early-exit point is recovered as the
    /// lexicographically smallest `(row, column)` difference.
    ///
    /// **Soundness contract:** `damage` must cover every pixel written
    /// since `snapshot` was captured ([`FrameBuffer::take_damage`]), and
    /// `snapshot` must equal the buffer at every grid point as of
    /// `last_content_generation`. The meter keeps both by capturing on
    /// every observation.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `snapshot` has the wrong length.
    pub fn compare_and_capture_tiled(
        &self,
        buffer: &FrameBuffer,
        damage: &DamageRegion,
        last_content_generation: u64,
        snapshot: &mut [Pixel],
    ) -> TileCompare {
        self.check_snapshot(buffer, snapshot);
        let tiles = buffer.tiles();
        let cols = self.cols as usize;
        let mut differs = false;
        let mut points_compared = 0;
        let mut points_read = 0;
        let mut tiles_checked = 0;
        let mut tiles_descended = 0;
        let same_tile = |a: &u32, b: &u32| a / TILE_SIZE == b / TILE_SIZE;
        for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            let xs = self.col_xs.get(gx0..gx1).unwrap_or(&[]);
            let ys = self.row_ys.get(gy0..gy1).unwrap_or(&[]);
            // The row-major first differing point of this rect as (row
            // offset within ys, column offset within xs) — the
            // lexicographic minimum over all segment candidates, from
            // which the early-exit accounting is reconstructed.
            let mut first: Option<(usize, usize)> = None;
            // Whether row `r` may still hold the first difference.
            let live = |first: Option<(usize, usize)>, r: usize| {
                !differs && first.is_none_or(|(fr, _)| r < fr)
            };
            // Group consecutive grid rows sharing a tile row, so each
            // tile column is classified once per group, not per row.
            let mut r0 = 0;
            for rows in ys.chunk_by(same_tile) {
                let ty = rows.first().map_or(0, |&y| y / TILE_SIZE);
                let kind = |x: &u32| tile_kind(tiles, x / TILE_SIZE, ty, last_content_generation);
                // Coalesce the sampled columns of adjacent same-kind
                // tiles into segments handled in one sweep each; tiles
                // of unknown content are read from their own storage,
                // one tile per segment.
                let mut tile_cols = xs
                    .chunk_by(same_tile)
                    .map(|c| (c.first().map_or(TileKind::Clean, kind), c.len()))
                    .peekable();
                let mut s0 = 0;
                while let Some((seg_kind, mut len)) = tile_cols.next() {
                    let mut seg_tiles = 1;
                    while let Some((_, more)) =
                        tile_cols.next_if(|&(k, _)| k == seg_kind && k != TileKind::Unknown)
                    {
                        seg_tiles += 1;
                        len += more;
                    }
                    let seg_xs = xs.get(s0..s0 + len).unwrap_or(&[]);
                    tiles_checked += seg_tiles;
                    // Row `r`'s snapshot slots for this segment.
                    let at = |r: usize| (gy0 + r) * cols + gx0 + s0;
                    let slots = |r: usize| at(r)..at(r) + seg_xs.len();
                    match seg_kind {
                        // Unwritten since the last observation: the pixels
                        // are unchanged and the snapshot is still current
                        // here, so the (equal) outcome is known without
                        // reading or writing.
                        TileKind::Clean => {}
                        TileKind::Solid(c) => {
                            tiles_descended += seg_tiles;
                            // Every framebuffer pixel under this segment
                            // provably holds `c`: compare the snapshot
                            // slots against the constant and refresh with
                            // a fill — zero framebuffer reads.
                            for r in r0..r0 + rows.len() {
                                // ccdem-lint: allow(panic) — snapshot length
                                // is checked against sample_count() and
                                // gx0 + s0 + seg_xs.len() ≤ cols.
                                let snap = &mut snapshot[slots(r)];
                                if live(first, r) {
                                    if let Some(k) = snap.iter().position(|&s| s != c) {
                                        first = Some((r, s0 + k));
                                        snap.fill(c);
                                    }
                                    // Equal: the slots already hold `c`.
                                } else {
                                    snap.fill(c);
                                }
                            }
                        }
                        TileKind::Unknown => {
                            tiles_descended += seg_tiles;
                            // Unknown content: descend to pixel compares
                            // over this segment's columns, row by row.
                            let dense = is_dense(seg_xs);
                            let x = seg_xs.first().map_or(0, |&x| x);
                            // A tile of unknown content is always stored
                            // (only provably solid tiles are held as a
                            // colour); the segment's columns lie in it.
                            let stored = buffer.tile_pixels(tiles.index_of(x, ty * TILE_SIZE));
                            debug_assert!(!stored.is_empty(), "unknown tile without storage");
                            let mut slot = at(r0);
                            for (r, &y) in (r0..).zip(rows) {
                                // ccdem-lint: allow(panic) — see the solid
                                // segment's bound above.
                                let snap = &mut snapshot[slot..slot + seg_xs.len()];
                                slot += cols;
                                let Some(row) = tile_row(stored, y) else {
                                    continue;
                                };
                                points_read += seg_xs.len();
                                if live(first, r) {
                                    if let Some(k) = first_diff_row(row, seg_xs, dense, snap) {
                                        first = Some((r, s0 + k));
                                        capture_row(row, seg_xs, dense, snap);
                                    }
                                    // Equal rows are not rewritten.
                                } else {
                                    capture_row(row, seg_xs, dense, snap);
                                }
                            }
                        }
                    }
                    s0 += len;
                }
                r0 += rows.len();
            }
            // Reconstruct the row-major early-exit accounting from the
            // lexicographically first difference, exactly as the
            // row-major walk would have charged it.
            if !differs {
                match first {
                    Some((r, k)) => {
                        differs = true;
                        points_compared += r * xs.len() + k + 1;
                    }
                    None => points_compared += ys.len() * xs.len(),
                }
            }
        }
        TileCompare {
            grid: GridCompare {
                differs,
                points_compared,
                points_read,
            },
            tiles_checked,
            tiles_descended,
        }
    }

    /// The `(x, y)` screen position of each sample point, in grid order,
    /// without allocating.
    pub fn positions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let cols = &self.col_xs;
        self.row_ys
            .iter()
            .flat_map(move |&y| cols.iter().map(move |&x| (x, y)))
    }

    /// The half-open range of grid indices whose sample coordinate lies in
    /// `[lo, hi)`, on one strictly increasing axis.
    fn axis_range(coords: &[u32], lo: u32, hi: u32) -> (usize, usize) {
        let start = coords.partition_point(|&c| c < lo);
        let end = coords.partition_point(|&c| c < hi);
        (start, end)
    }

    fn check_buffer(&self, buffer: &FrameBuffer) {
        assert_eq!(
            buffer.resolution(),
            self.resolution,
            "buffer resolution does not match sampler"
        );
    }

    fn check_snapshot(&self, buffer: &FrameBuffer, snapshot: &[Pixel]) {
        self.check_buffer(buffer);
        assert_eq!(
            snapshot.len(),
            self.sample_count(),
            "previous sample has wrong length"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    fn screen(res: Resolution) -> DamageRegion {
        DamageRegion::of(res.bounds())
    }

    /// Runs the production gather on `snap` and checks it against the
    /// oracle on the same inputs: the same verdict and early-exit point
    /// over `damage`, the same verdict as a full-screen compare (the
    /// damage is sound), and a refreshed snapshot equal to a fresh
    /// sample.
    fn tiled_vs_oracle(
        g: &GridSampler,
        fb: &FrameBuffer,
        damage: &DamageRegion,
        last_content_generation: u64,
        snap: &mut Vec<Pixel>,
    ) -> TileCompare {
        let oracle = g.compare(fb, damage, snap);
        let full = g.compare(fb, &screen(g.resolution()), snap);
        let tiled = g.compare_and_capture_tiled(fb, damage, last_content_generation, snap);
        assert_eq!(tiled.grid.differs, oracle.differs);
        assert_eq!(tiled.grid.points_compared, oracle.points_compared);
        assert_eq!(full.differs, oracle.differs, "damage must be sound");
        assert_eq!(*snap, g.sample(fb), "snapshot must stay current");
        tiled
    }

    #[test]
    fn paper_grid_dimensions() {
        let res = Resolution::GALAXY_S3;
        assert_eq!(GridSampler::new(res, 36, 64).sample_count(), 2304);
        assert_eq!(GridSampler::new(res, 48, 85).sample_count(), 4080);
        assert_eq!(GridSampler::new(res, 72, 128).sample_count(), 9216);
        assert_eq!(GridSampler::new(res, 144, 256).sample_count(), 36864);
        assert_eq!(GridSampler::full(res).sample_count(), 921_600);
    }

    #[test]
    fn budget_sampler_respects_budget_and_aspect() {
        let res = Resolution::GALAXY_S3;
        for budget in [2304usize, 4080, 9216, 36864, 100_000] {
            let g = GridSampler::for_pixel_budget(res, budget);
            assert!(g.sample_count() <= budget, "budget {budget} exceeded");
            assert!(g.sample_count() * 2 > budget, "budget {budget} underused");
        }
        let full = GridSampler::for_pixel_budget(res, usize::MAX);
        assert_eq!(full.sample_count(), res.pixel_count());
    }

    #[test]
    fn budget_9216_matches_paper_grid() {
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 9216);
        assert_eq!((g.cols(), g.rows()), (72, 128));
    }

    #[test]
    fn positions_are_cell_centres_in_bounds() {
        let res = Resolution::new(100, 200);
        let g = GridSampler::new(res, 10, 20);
        for (x, y) in g.positions() {
            assert!(res.contains(x, y));
        }
        // First cell centre of a 10-col grid over 100px is pixel 5.
        assert_eq!(g.positions().next(), Some((5, 5)));
        assert_eq!(g.positions().count(), g.sample_count());
    }

    #[test]
    fn tiny_change_between_grid_points_is_missed() {
        // This is the Fig. 6 failure mode for coarse grids: a change
        // smaller than a grid cell that avoids every sample point.
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 2, 2); // samples at (25,25),(75,25),...
        let mut fb = FrameBuffer::new(res);
        let snap = g.sample(&fb);
        fb.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        assert!(
            !g.compare(&fb, &screen(res), &snap).differs,
            "coarse grid should miss a 3x3 change"
        );
        // The full sampler never misses.
        let full = GridSampler::full(res);
        let mut fb2 = FrameBuffer::new(res);
        let snap2 = full.sample(&fb2);
        fb2.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        assert!(full.compare(&fb2, &screen(res), &snap2).differs);
    }

    #[test]
    fn sample_into_reuses_allocation() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let fb = FrameBuffer::new(res);
        let mut buf = Vec::new();
        g.sample_into(&fb, &mut buf);
        assert_eq!(buf.len(), g.sample_count());
        let ptr = buf.as_ptr();
        g.sample_into(&fb, &mut buf);
        assert_eq!(buf.as_ptr(), ptr, "no reallocation expected");
    }

    #[test]
    fn tiled_capture_reads_only_damaged_points() {
        let res = Resolution::new(100, 100);
        // Samples at 5, 15, …, 95: a 20×20 write covers exactly a 2×2
        // block of sample points; an 8×8 write at (6, 6) dodges them all.
        let g = GridSampler::new(res, 10, 10);
        for (rect, expect_read) in [(Rect::new(10, 10, 20, 20), 4), (Rect::new(6, 6, 8, 8), 0)] {
            let mut fb = FrameBuffer::new(res);
            let mut snap = g.sample(&fb);
            fb.take_damage();
            let lcg = fb.content_generation();
            fb.fill_rect(rect, Pixel::WHITE);
            let damage = fb.take_damage();
            let r = tiled_vs_oracle(&g, &fb, &damage, lcg, &mut snap);
            assert_eq!(r.grid.differs, expect_read > 0, "{rect:?}");
            assert_eq!(r.grid.points_read, expect_read, "{rect:?}");
        }
    }

    #[test]
    fn multi_rect_early_exit_charges_earlier_rects_in_full() {
        // A 16×16 grid over 128×128 samples at 4, 12, …, 124. Three
        // disjoint rects: the first is rewritten with identical content,
        // the second holds the first difference, the third differs too.
        let res = Resolution::new(128, 128);
        let g = GridSampler::new(res, 16, 16);
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(20));
        let snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();

        let r1 = Rect::new(0, 0, 20, 20); // columns {4, 12} × rows {4, 12}
        let r2 = Rect::new(40, 40, 32, 16); // columns {44, 52, 60, 68} × rows {44, 52}
        let r3 = Rect::new(80, 80, 40, 40); // 5 × 5 points
        fb.fill_rect(r1, Pixel::grey(20));
        fb.fill_rect(r2, Pixel::grey(20));
        fb.set_pixel(60, 52, Pixel::WHITE); // rect 2, row 1, column 2
        fb.fill_rect(r3, Pixel::WHITE);
        let damage = fb.take_damage();
        assert_eq!(damage.rects(), &[r1, r2, r3], "walked in insertion order");

        // All 4 points of rect 1, then in-rect index 1·4 + 2 = 6, plus 1.
        let expected = 4 + 6 + 1;
        assert_eq!(g.compare(&fb, &damage, &snap).points_compared, expected);
        for generation in [lcg, 0] {
            let mut tiled_snap = snap.clone();
            let r = tiled_vs_oracle(&g, &fb, &damage, generation, &mut tiled_snap);
            assert!(r.grid.differs);
            assert_eq!(r.grid.points_compared, expected, "generation {generation}");
        }
    }

    #[test]
    fn degenerate_budgets_and_resolutions_are_exact() {
        // Zero budget: panic-free, minimal one-point sampler.
        let g = GridSampler::for_pixel_budget(Resolution::new(100, 100), 0);
        assert_eq!((g.cols(), g.rows()), (1, 1));
        let g = GridSampler::for_pixel_budget(Resolution::new(1, 1), 0);
        assert_eq!(g.sample_count(), 1);
        // Budget of one: the single centre point.
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 1);
        assert_eq!((g.cols(), g.rows()), (1, 1));
        // Single-row screen: exactly `budget` samples along the row.
        let g = GridSampler::for_pixel_budget(Resolution::new(100, 1), 4);
        assert_eq!((g.cols(), g.rows()), (4, 1));
        // Single-column screen: exactly `budget` samples down the column.
        let g = GridSampler::for_pixel_budget(Resolution::new(1, 100), 4);
        assert_eq!((g.cols(), g.rows()), (1, 4));
        // Budget at or above the pixel count: the full sampler.
        for budget in [100usize, 101, usize::MAX] {
            let g = GridSampler::for_pixel_budget(Resolution::new(10, 10), budget);
            assert_eq!((g.cols(), g.rows()), (10, 10), "budget {budget}");
        }
        // The paper configuration is unchanged by the hardening.
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 9216);
        assert_eq!((g.cols(), g.rows()), (72, 128));
    }

    #[test]
    fn tiled_capture_matches_the_oracle_on_a_mixed_frame() {
        let res = Resolution::new(200, 150); // 4×3 tiles with uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 37, 29)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(20));
            let mut snap = g.sample(&fb);
            fb.take_damage();
            let lcg = fb.content_generation();

            // Mixed frame: a tile-covering solid fill, a small unknown
            // write, and a large untouched (clean) remainder.
            fb.fill_rect(Rect::new(0, 64, 64, 64), Pixel::grey(90));
            fb.fill_rect(Rect::new(130, 10, 17, 9), Pixel::WHITE);
            let damage = fb.take_damage();

            let tiled = tiled_vs_oracle(&g, &fb, &damage, lcg, &mut snap);
            let damaged = g.positions().filter(|&(x, y)| damage.contains(x, y));
            assert!(tiled.grid.points_read < damaged.count());
            assert!(tiled.tiles_descended > 0);
            assert!(tiled.tiles_checked >= tiled.tiles_descended);
        }
    }

    #[test]
    fn tiled_capture_resolves_solid_tiles_with_zero_reads() {
        let res = Resolution::GALAXY_S3;
        let g = GridSampler::for_pixel_budget(res, 9216);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.fill(Pixel::grey(70));
        let damage = fb.take_damage();
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(r.grid.differs);
        assert_eq!(r.grid.points_read, 0, "solid tiles need no pixel reads");
        assert_eq!(r.grid.points_compared, 1, "first point already differs");
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
        assert_eq!(r.tiles_checked, 240); // 12×20 tile grid, all checked
        assert_eq!(r.tiles_descended, 240); // … and all written
    }

    #[test]
    fn tiled_capture_skips_clean_tiles_inside_stale_damage() {
        // Damage may over-approximate (merged rects): tiles no write
        // ever touched stay clean and are skipped outright, so the two
        // pruning mechanisms compose instead of fighting.
        let res = Resolution::new(256, 64); // 4×1 tiles
        let g = GridSampler::full(res);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.set_pixel(0, 0, Pixel::WHITE);
        // Hand the comparator the whole screen as damage: only the one
        // written tile descends.
        let damage = DamageRegion::of(res.bounds());
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(r.grid.differs);
        assert_eq!(r.tiles_checked, 4);
        assert_eq!(r.tiles_descended, 1);
        assert_eq!(r.grid.points_read, 64 * 64, "one tile's points only");
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
    }

    #[test]
    fn same_colour_refill_descends_but_stays_equal() {
        // The closest thing to a "signature collision" in this scheme:
        // the stamp says dirty while the content is identical. The cost
        // is a (read-free) descent; the verdict is still unchanged.
        let res = Resolution::new(128, 128); // 2×2 tiles
        let g = GridSampler::new(res, 16, 16);
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(42));
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.fill(Pixel::grey(42)); // identical refill: stamps advance
        let damage = fb.take_damage();
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(!r.grid.differs, "identical content is never misclassified");
        assert_eq!(r.grid.points_compared, g.sample_count());
        assert_eq!(r.tiles_descended, 4, "the stamp forces a descent");
        assert_eq!(r.grid.points_read, 0, "…but a solid descent reads nothing");
    }

    #[test]
    fn empty_damage_is_free() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        let lcg = fb.content_generation();
        fb.touch();
        let r = g.compare_and_capture_tiled(&fb, &DamageRegion::new(), lcg, &mut snap);
        assert_eq!(g.compare(&fb, &DamageRegion::new(), &snap), r.grid);
        assert_eq!(
            r,
            TileCompare {
                grid: GridCompare {
                    differs: false,
                    points_compared: 0,
                    points_read: 0
                },
                tiles_checked: 0,
                tiles_descended: 0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn compare_rejects_bad_snapshot() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let fb = FrameBuffer::new(res);
        let _ = g.compare(&fb, &screen(res), &[]);
    }

    #[test]
    #[should_panic(expected = "exceeds resolution")]
    fn grid_larger_than_screen_rejected() {
        let _ = GridSampler::new(Resolution::new(10, 10), 11, 10);
    }
}
