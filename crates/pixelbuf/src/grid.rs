//! Grid-based framebuffer comparison (paper §3.1).
//!
//! Comparing every pixel of a modern panel is too slow to run per frame
//! (Fig. 6: > 40 ms at 720×1280, against a 16.67 ms frame budget at 60 Hz).
//! The paper instead samples the *centre pixel of each cell* of a coarse
//! grid laid over the screen and treats that pixel as representative of the
//! cell.
//!
//! [`GridSampler`] stores the sample positions as a **row-run layout**
//! rather than a flat index list: the column centres decompose into a few
//! maximal equal-stride runs (exactly one when the width divides evenly by
//! the column count, as it does for every paper budget on the Galaxy S3),
//! and every sampled row replays the same runs at its own base offset. A
//! per-frame comparison is therefore a sequence of bounds-check-free
//! slice-window sweeps instead of one bounds-checked random gather per
//! point — and *dense* runs (stride 1, i.e. the full-resolution sampler
//! and any budget that samples every column) compare two pixels per `u64`
//! word and refresh the snapshot with a straight `memcpy`.

use crate::buffer::FrameBuffer;
use crate::damage::DamageRegion;
use crate::geometry::Resolution;
use crate::pixel::Pixel;
use crate::tile::{TileMap, TILE_SIZE};

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
    /// [`GridSampler::compare`] reads each compared point once, the fused
    /// [`GridSampler::compare_and_capture`] reads every grid point exactly
    /// once, and the damage-restricted variant reads only the points
    /// inside the damage region.
    pub points_read: usize,
}

/// Outcome of a tile-gated comparison
/// ([`GridSampler::compare_and_capture_tiled`]): the grid verdict and
/// accounting plus how far the tile signatures pruned the descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompare {
    /// The verdict and accounting. `differs` and `points_compared` are
    /// bit-identical to what
    /// [`GridSampler::compare_and_capture_damaged`] reports for the same
    /// inputs; `points_read` counts only the framebuffer pixels actually
    /// read, which the clean- and solid-tile paths avoid entirely.
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

/// A maximal run of equally-spaced sample columns: `count` samples
/// starting at screen column `first_x`, `stride` pixels apart.
///
/// The column centres `((2·gx + 1)·W) / (2·C)` are *not* globally
/// equispaced when `W % C != 0` (consecutive strides alternate between
/// ⌊W/C⌋ and ⌈W/C⌉), so a row decomposes into a handful of runs rather
/// than always exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColRun {
    first_x: u32,
    stride: u32,
    count: u32,
}

/// One column run projected onto a concrete sampled row: a window into
/// the framebuffer's pixel slice plus the matching range of the
/// row-major snapshot.
#[derive(Debug, Clone, Copy)]
struct RunSpan {
    pixel_start: usize,
    snap_start: usize,
    stride: usize,
    count: usize,
}

impl RunSpan {
    /// The window of `pixels` spanned by this run, first sample to last
    /// sample inclusive. Dense runs (stride 1) hold exactly the sampled
    /// pixels; strided runs hold the sampled pixels at multiples of
    /// `stride` from the window start.
    fn window<'a>(&self, pixels: &'a [Pixel]) -> &'a [Pixel] {
        let end = self.pixel_start + (self.count - 1) * self.stride + 1;
        // ccdem-lint: allow(panic) — in-bounds by construction: every
        // run's last sample is a cell centre inside the checked buffer.
        &pixels[self.pixel_start..end]
    }

    /// This run's slots of the row-major snapshot.
    fn snap<'a>(&self, snapshot: &'a [Pixel]) -> &'a [Pixel] {
        // ccdem-lint: allow(panic) — snapshot length is checked against
        // sample_count() before any span is formed.
        &snapshot[self.snap_start..self.snap_start + self.count]
    }

    /// Mutable variant of [`snap`](Self::snap).
    fn snap_mut<'a>(&self, snapshot: &'a mut [Pixel]) -> &'a mut [Pixel] {
        // ccdem-lint: allow(panic) — see `snap`.
        &mut snapshot[self.snap_start..self.snap_start + self.count]
    }
}

/// Decomposes strictly increasing column centres into maximal
/// equal-stride runs, greedily left to right.
fn col_runs_of(col_xs: &[u32]) -> Vec<ColRun> {
    let mut runs: Vec<ColRun> = Vec::new();
    for &x in col_xs {
        match runs.last_mut() {
            // A lone trailing column adopts the next column's spacing.
            Some(run) if run.count == 1 => {
                run.stride = x - run.first_x;
                run.count = 2;
            }
            Some(run) if x == run.first_x + run.stride * run.count => {
                run.count += 1;
            }
            _ => runs.push(ColRun {
                first_x: x,
                stride: 1,
                count: 1,
            }),
        }
    }
    runs
}

/// Packs two pixels into one comparison word: dense runs compare two
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

/// Index of the first differing sample in a run window, dense or strided.
fn first_diff(window: &[Pixel], stride: usize, prev: &[Pixel]) -> Option<usize> {
    if stride == 1 {
        first_diff_dense(window, prev)
    } else {
        window
            .iter()
            .step_by(stride)
            .zip(prev)
            .position(|(a, b)| a != b)
    }
}

/// Copies a run's sampled pixels into `dst`: a `memcpy` for dense runs,
/// a bounds-check-free strided sweep otherwise.
fn capture_run(window: &[Pixel], stride: usize, dst: &mut [Pixel]) {
    if stride == 1 {
        dst.copy_from_slice(window);
    } else {
        for (slot, px) in dst.iter_mut().zip(window.iter().step_by(stride)) {
            *slot = *px;
        }
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
/// assert!(sampler.differs(&fb, &before));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSampler {
    resolution: Resolution,
    cols: u32,
    rows: u32,
    /// Column sample positions decomposed into equal-stride runs; every
    /// sampled row replays the same runs at its own base offset.
    col_runs: Vec<ColRun>,
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
        let col_runs = col_runs_of(&col_xs);
        GridSampler {
            resolution,
            cols,
            rows,
            col_runs,
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

    /// Every run of every sampled row, in snapshot (row-major) order.
    fn run_spans(&self) -> impl Iterator<Item = RunSpan> + '_ {
        let w = self.resolution.width as usize;
        let cols = self.cols as usize;
        let runs = &self.col_runs;
        self.row_ys.iter().enumerate().flat_map(move |(gy, &y)| {
            let row_base = (y as usize) * w;
            let mut snap_off = gy * cols;
            runs.iter().map(move |run| {
                let span = RunSpan {
                    pixel_start: row_base + run.first_x as usize,
                    snap_start: snap_off,
                    stride: run.stride as usize,
                    count: run.count as usize,
                };
                snap_off += run.count as usize;
                span
            })
        })
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
        let pixels = buffer.as_pixels();
        out.resize(self.sample_count(), Pixel::TRANSPARENT);
        for span in self.run_spans() {
            capture_run(span.window(pixels), span.stride, span.snap_mut(out));
        }
    }

    /// Whether the current buffer content differs from a previously
    /// captured sample at any grid point. Early-exits on the first
    /// difference, so redundant frames pay the full scan and changed
    /// frames usually return almost immediately.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `previous` has the wrong length.
    pub fn differs(&self, buffer: &FrameBuffer, previous: &[Pixel]) -> bool {
        self.compare(buffer, previous).differs
    }

    /// Compares the current buffer against a previously captured sample,
    /// reporting both the verdict and how many grid points were actually
    /// inspected before the early exit — the per-frame comparison cost
    /// that grid sampling exists to bound (paper §3.1, Fig. 6).
    ///
    /// A redundant frame inspects every point
    /// ([`sample_count`](Self::sample_count)); a changed frame stops at
    /// the first differing point. Dense runs compare two pixels per
    /// `u64` word but still report the exact first-differing point, so
    /// the accounting is bit-identical to a scalar sweep.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `previous` has the wrong length.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdem_pixelbuf::buffer::FrameBuffer;
    /// use ccdem_pixelbuf::geometry::Resolution;
    /// use ccdem_pixelbuf::grid::GridSampler;
    /// use ccdem_pixelbuf::pixel::Pixel;
    ///
    /// let g = GridSampler::new(Resolution::new(100, 100), 10, 10);
    /// let mut fb = FrameBuffer::new(Resolution::new(100, 100));
    /// let snap = g.sample(&fb);
    ///
    /// let unchanged = g.compare(&fb, &snap);
    /// assert!(!unchanged.differs);
    /// assert_eq!(unchanged.points_compared, g.sample_count());
    ///
    /// fb.fill(Pixel::WHITE);
    /// let changed = g.compare(&fb, &snap);
    /// assert!(changed.differs);
    /// assert_eq!(changed.points_compared, 1); // first point already differs
    /// ```
    pub fn compare(&self, buffer: &FrameBuffer, previous: &[Pixel]) -> GridCompare {
        self.check_snapshot(buffer, previous);
        let pixels = buffer.as_pixels();
        for span in self.run_spans() {
            if let Some(k) = first_diff(span.window(pixels), span.stride, span.snap(previous)) {
                let n = span.snap_start + k + 1;
                return GridCompare {
                    differs: true,
                    points_compared: n,
                    points_read: n,
                };
            }
        }
        GridCompare {
            differs: false,
            points_compared: self.sample_count(),
            points_read: self.sample_count(),
        }
    }

    /// Compares the current buffer against `snapshot` and refreshes the
    /// snapshot to the current content, in a single gather: each grid
    /// point is read exactly once, where a separate
    /// [`compare`](Self::compare) + [`sample_into`](Self::sample_into)
    /// pair reads redundant frames twice. The verdict is identical to
    /// `compare` and the refreshed snapshot is identical to
    /// `sample_into`'s output.
    ///
    /// Comparisons stop at the first difference (`points_compared`
    /// early-exits like `compare`), but every point is still read to keep
    /// the snapshot current, so `points_read` always equals
    /// [`sample_count`](Self::sample_count). Runs that compared equal are
    /// not rewritten (the snapshot already holds exactly those values);
    /// dense runs past the first difference refresh via `memcpy`.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `snapshot` has the wrong length
    /// (prime it first with [`sample_into`](Self::sample_into)).
    pub fn compare_and_capture(
        &self,
        buffer: &FrameBuffer,
        snapshot: &mut [Pixel],
    ) -> GridCompare {
        self.check_snapshot(buffer, snapshot);
        let pixels = buffer.as_pixels();
        let mut differs = false;
        let mut points_compared = 0;
        for span in self.run_spans() {
            let window = span.window(pixels);
            if differs {
                capture_run(window, span.stride, span.snap_mut(snapshot));
            } else {
                match first_diff(window, span.stride, span.snap(snapshot)) {
                    Some(k) => {
                        differs = true;
                        points_compared += k + 1;
                        capture_run(window, span.stride, span.snap_mut(snapshot));
                    }
                    // No difference in this run ⇒ its snapshot slots
                    // already hold exactly the sampled values.
                    None => points_compared += span.count,
                }
            }
        }
        GridCompare {
            differs,
            points_compared,
            points_read: self.sample_count(),
        }
    }

    /// Damage-restricted [`compare_and_capture`](Self::compare_and_capture):
    /// inspects and refreshes only the grid points whose sample position
    /// lies inside `damage`, reading nothing else.
    ///
    /// **Soundness contract:** `damage` must cover every pixel of `buffer`
    /// written since `snapshot` was last captured (the guarantee
    /// [`FrameBuffer::take_damage`] provides). Points outside the damage
    /// are then unchanged, so skipping them cannot alter the verdict and
    /// the snapshot remains current everywhere. Per damage rectangle the
    /// intersecting grid rows/columns are found by binary search, so the
    /// cost is O(points inside the damage), not O(grid). When the damaged
    /// columns are consecutive pixels (always true for the full-resolution
    /// sampler), each damaged row compares as one dense window — two
    /// pixels per word, `memcpy` refresh.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `snapshot` has the wrong length.
    pub fn compare_and_capture_damaged(
        &self,
        buffer: &FrameBuffer,
        damage: &DamageRegion,
        snapshot: &mut [Pixel],
    ) -> GridCompare {
        self.check_snapshot(buffer, snapshot);
        let pixels = buffer.as_pixels();
        let w = self.resolution.width as usize;
        let cols = self.cols as usize;
        let mut differs = false;
        let mut points_compared = 0;
        let mut points_read = 0;
        // Damage rects are disjoint and both coordinate axes are strictly
        // increasing, so each grid point is visited at most once.
        for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            let Some(xs) = self.col_xs.get(gx0..gx1) else {
                continue;
            };
            let (Some(&first_x), Some(&last_x)) = (xs.first(), xs.last()) else {
                continue; // no sampled column inside this rect
            };
            // Consecutive damaged columns form a dense window per row.
            let dense = (last_x - first_x) as usize == xs.len() - 1;
            for (gy, &y) in self.row_ys.iter().enumerate().take(gy1).skip(gy0) {
                let row_start = (y as usize) * w + first_x as usize;
                let row_end = (y as usize) * w + last_x as usize;
                // ccdem-lint: allow(panic) — in-bounds: cell centres lie
                // inside the checked buffer.
                let window = &pixels[row_start..=row_end];
                let snap_start = gy * cols + gx0;
                // ccdem-lint: allow(panic) — snapshot length is checked
                // against sample_count() and gx1 ≤ cols.
                let snap = &mut snapshot[snap_start..snap_start + xs.len()];
                points_read += xs.len();
                if dense {
                    if differs {
                        snap.copy_from_slice(window);
                    } else {
                        match first_diff_dense(window, snap) {
                            Some(k) => {
                                differs = true;
                                points_compared += k + 1;
                                snap.copy_from_slice(window);
                            }
                            None => points_compared += xs.len(),
                        }
                    }
                } else {
                    // Strided damaged columns: scalar sweep over the row
                    // window at the columns' offsets from `first_x`.
                    if differs {
                        for (&x, slot) in xs.iter().zip(snap.iter_mut()) {
                            // ccdem-lint: allow(panic) — x ∈ [first_x,
                            // last_x] by construction of the axis range.
                            *slot = window[(x - first_x) as usize];
                        }
                    } else {
                        let hit = xs.iter().zip(snap.iter()).position(|(&x, s)| {
                            // ccdem-lint: allow(panic) — same bound as
                            // the capture sweep above.
                            window[(x - first_x) as usize] != *s
                        });
                        match hit {
                            Some(k) => {
                                differs = true;
                                points_compared += k + 1;
                                for (&x, slot) in xs.iter().zip(snap.iter_mut()) {
                                    // ccdem-lint: allow(panic) — see above.
                                    *slot = window[(x - first_x) as usize];
                                }
                            }
                            None => points_compared += xs.len(),
                        }
                    }
                }
            }
        }
        GridCompare {
            differs,
            points_compared,
            points_read,
        }
    }

    /// Tile-gated [`compare_and_capture_damaged`][ccd]: consults the
    /// buffer's per-tile content signatures before touching pixels, so
    /// tiles unwritten since the last observation are skipped outright
    /// and provably-solid tiles are compared against their constant
    /// colour with **zero framebuffer reads** (the snapshot refresh is a
    /// `fill`, not a gather). Only tiles with unknown content descend to
    /// the PR 5 row-window pixel path. Both pruning mechanisms compose:
    /// the walk covers the intersection of the damage region with the
    /// dirty tiles.
    ///
    /// Signatures gate *descent only*, never equality: `differs`,
    /// `points_compared` (including the early-exit point), and the
    /// refreshed snapshot bytes are bit-identical to
    /// [`compare_and_capture_damaged`][ccd] on the same inputs. A stale
    /// or overly pessimistic signature can only cost an extra descent.
    /// Internally the per-rect walk is segment-major (each tile-row
    /// group classifies its tile columns once), so the row-major
    /// early-exit point is recovered as the lexicographically smallest
    /// `(row, column)` difference across segments — comparisons have no
    /// side effects, which makes the reordering observationally
    /// invisible.
    ///
    /// **Soundness contract:** in addition to the damage contract of
    /// [`compare_and_capture_damaged`][ccd], `snapshot` must be current
    /// as of `last_content_generation` — every grid point equal to the
    /// buffer's pixel as it stood at that content generation. The meter
    /// maintains exactly this by capturing on every observation; tiles
    /// stamped at or before that generation are then both unchanged and
    /// already correctly snapshotted.
    ///
    /// [ccd]: Self::compare_and_capture_damaged
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
        let pixels = buffer.as_pixels();
        let tiles = buffer.tiles();
        let w = self.resolution.width as usize;
        let cols = self.cols as usize;
        let mut differs = false;
        let mut points_compared = 0;
        let mut points_read = 0;
        let mut tiles_checked = 0;
        let mut tiles_descended = 0;
        for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            let Some(xs) = self.col_xs.get(gx0..gx1) else {
                continue;
            };
            if xs.is_empty() || gy0 >= gy1 {
                continue; // no sampled point inside this rect
            }
            let n_cols = xs.len();
            // The row-major first differing point of this rect as
            // (row offset within [gy0, gy1), column offset within xs) —
            // the lexicographic minimum over all segment candidates,
            // from which the early-exit accounting is reconstructed.
            let mut first: Option<(usize, usize)> = None;
            // Group consecutive grid rows sharing a tile row, so each
            // tile column is classified once per group, not per row.
            let mut g = gy0;
            while g < gy1 {
                // ccdem-lint: allow(panic) — g < gy1 ≤ row_ys.len() by
                // construction of the axis range.
                let ty = self.row_ys[g] / TILE_SIZE;
                let mut g_end = g + 1;
                // ccdem-lint: allow(panic) — same bound as above.
                while g_end < gy1 && self.row_ys[g_end] / TILE_SIZE == ty {
                    g_end += 1;
                }
                // Walk the sampled columns, coalescing runs of same-kind
                // tiles into segments handled in one sweep each.
                let mut s0 = 0usize;
                while s0 < n_cols {
                    // ccdem-lint: allow(panic) — s0 < n_cols = xs.len().
                    let mut last_tx = xs[s0] / TILE_SIZE;
                    let kind = tile_kind(tiles, last_tx, ty, last_content_generation);
                    let mut seg_tiles = 1usize;
                    let mut s1 = s0 + 1;
                    while s1 < n_cols {
                        // ccdem-lint: allow(panic) — s1 < n_cols.
                        let tx = xs[s1] / TILE_SIZE;
                        if tx != last_tx {
                            if tile_kind(tiles, tx, ty, last_content_generation) != kind {
                                break;
                            }
                            seg_tiles += 1;
                            last_tx = tx;
                        }
                        s1 += 1;
                    }
                    tiles_checked += seg_tiles;
                    match kind {
                        TileKind::Clean => {
                            // Unwritten since the last observation: the
                            // pixels are unchanged and the snapshot is
                            // still current here, so the (equal) outcome
                            // is known without reading or writing.
                        }
                        TileKind::Solid(c) => {
                            tiles_descended += seg_tiles;
                            // Every framebuffer pixel under this segment
                            // provably holds `c`: compare the snapshot
                            // slots against the constant and refresh
                            // with a fill — zero framebuffer reads.
                            for gy in g..g_end {
                                let snap_start = gy * cols + gx0 + s0;
                                // ccdem-lint: allow(panic) — snapshot
                                // length is checked against
                                // sample_count() and gx0 + s1 ≤ cols.
                                let snap = &mut snapshot[snap_start..snap_start + (s1 - s0)];
                                if !differs && first.is_none_or(|(r, _)| gy - gy0 < r) {
                                    if let Some(k) = snap.iter().position(|&s| s != c) {
                                        first = Some((gy - gy0, s0 + k));
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
                            // Unknown content: descend to the row-window
                            // pixel path over this segment's columns.
                            // ccdem-lint: allow(panic) — s0 < s1 ≤
                            // n_cols = xs.len() (segment bounds).
                            let seg_xs = &xs[s0..s1];
                            let (Some(&first_x), Some(&last_x)) =
                                (seg_xs.first(), seg_xs.last())
                            else {
                                unreachable!("segments are non-empty");
                            };
                            let dense = (last_x - first_x) as usize == seg_xs.len() - 1;
                            for (gy, &y) in
                                self.row_ys.iter().enumerate().take(g_end).skip(g)
                            {
                                let row_start = (y as usize) * w + first_x as usize;
                                let row_end = (y as usize) * w + last_x as usize;
                                // ccdem-lint: allow(panic) — in-bounds:
                                // cell centres lie inside the buffer.
                                let window = &pixels[row_start..=row_end];
                                let snap_start = gy * cols + gx0 + s0;
                                // ccdem-lint: allow(panic) — see the
                                // solid-segment bound above.
                                let snap = &mut snapshot[snap_start..snap_start + seg_xs.len()];
                                points_read += seg_xs.len();
                                let live =
                                    !differs && first.is_none_or(|(r, _)| gy - gy0 < r);
                                if dense {
                                    if live {
                                        if let Some(k) = first_diff_dense(window, snap) {
                                            first = Some((gy - gy0, s0 + k));
                                            snap.copy_from_slice(window);
                                        }
                                        // Equal runs are not rewritten.
                                    } else {
                                        snap.copy_from_slice(window);
                                    }
                                } else if live {
                                    let hit = seg_xs.iter().zip(snap.iter()).position(
                                        |(&x, s)| {
                                            // ccdem-lint: allow(panic) — x ∈
                                            // [first_x, last_x] by
                                            // construction.
                                            window[(x - first_x) as usize] != *s
                                        },
                                    );
                                    if let Some(k) = hit {
                                        first = Some((gy - gy0, s0 + k));
                                        for (&x, slot) in seg_xs.iter().zip(snap.iter_mut())
                                        {
                                            // ccdem-lint: allow(panic) — see
                                            // above.
                                            *slot = window[(x - first_x) as usize];
                                        }
                                    }
                                } else {
                                    // A plain index loop: about 1.2× faster
                                    // than zipped iterators in release
                                    // builds on the 9K grid, 3.5× in debug.
                                    let base = first_x as usize;
                                    let mut i = 0;
                                    while i < snap.len() {
                                        // ccdem-lint: allow(panic) — see
                                        // above.
                                        snap[i] = window[seg_xs[i] as usize - base];
                                        i += 1;
                                    }
                                }
                            }
                        }
                    }
                    s0 = s1;
                }
                g = g_end;
            }
            // Reconstruct the row-major early-exit accounting from the
            // lexicographically first difference, exactly as the
            // row-major walk would have charged it.
            if !differs {
                match first {
                    Some((r, k)) => {
                        differs = true;
                        points_compared += r * n_cols + k + 1;
                    }
                    None => points_compared += (gy1 - gy0) * n_cols,
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

    /// Number of grid points whose pixel differs from the captured sample.
    pub fn changed_points(&self, buffer: &FrameBuffer, previous: &[Pixel]) -> usize {
        self.check_snapshot(buffer, previous);
        let pixels = buffer.as_pixels();
        self.run_spans()
            .map(|span| {
                span.window(pixels)
                    .iter()
                    .step_by(span.stride)
                    .zip(span.snap(previous))
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .sum()
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
    fn column_runs_collapse_for_divisor_grids() {
        // 720 divides evenly by every paper column count, so each row is
        // exactly one equal-stride run.
        let g = GridSampler::new(Resolution::GALAXY_S3, 36, 64);
        assert_eq!(
            g.col_runs,
            vec![ColRun {
                first_x: 10,
                stride: 20,
                count: 36
            }]
        );
        // The full sampler is one dense run per row.
        let full = GridSampler::full(Resolution::GALAXY_S3);
        assert_eq!(
            full.col_runs,
            vec![ColRun {
                first_x: 0,
                stride: 1,
                count: 720
            }]
        );
    }

    #[test]
    fn column_runs_cover_non_divisor_grids_exactly() {
        // 47 columns over 100 px: strides alternate between 2 and 3, so
        // the decomposition must split — but replaying the runs must
        // reproduce the exact centre list.
        let g = GridSampler::new(Resolution::new(100, 10), 47, 5);
        assert!(g.col_runs.len() > 1, "non-uniform strides must split");
        let replayed: Vec<u32> = g
            .col_runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |k| r.first_x + k * r.stride))
            .collect();
        assert_eq!(replayed, g.col_xs);
        assert_eq!(g.positions().count(), g.sample_count());
    }

    #[test]
    fn dense_compare_locates_every_first_diff_exactly() {
        // Odd width: every full-sampler row window has an odd tail after
        // the two-pixel words, and diffs land on both word halves.
        let res = Resolution::new(7, 3);
        let g = GridSampler::full(res);
        let fb = FrameBuffer::new(res);
        let snap = g.sample(&fb);
        for p in 0..g.sample_count() {
            let (x, y) = ((p % 7) as u32, (p / 7) as u32);
            let mut fb2 = fb.clone();
            fb2.set_pixel(x, y, Pixel::WHITE);
            let r = g.compare(&fb2, &snap);
            assert!(r.differs);
            assert_eq!(r.points_compared, p + 1, "first diff at point {p}");
            assert_eq!(g.changed_points(&fb2, &snap), 1);
            let mut captured = snap.clone();
            let rc = g.compare_and_capture(&fb2, &mut captured);
            assert_eq!(rc.points_compared, p + 1, "fused diff at point {p}");
            assert_eq!(rc.points_read, g.sample_count());
            assert_eq!(captured, g.sample(&fb2), "snapshot current after {p}");
        }
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
    fn identical_buffers_do_not_differ() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 1000);
        let fb = FrameBuffer::new(res);
        let snap = g.sample(&fb);
        assert!(!g.differs(&fb, &snap));
        assert_eq!(g.changed_points(&fb, &snap), 0);
    }

    #[test]
    fn full_screen_change_detected() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 1000);
        let mut fb = FrameBuffer::new(res);
        let snap = g.sample(&fb);
        fb.fill(Pixel::WHITE);
        assert!(g.differs(&fb, &snap));
        assert_eq!(g.changed_points(&fb, &snap), g.sample_count());
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
        assert!(!g.differs(&fb, &snap), "coarse grid should miss a 3x3 change");
        // The full sampler never misses.
        let full = GridSampler::full(res);
        let mut fb2 = FrameBuffer::new(res);
        let snap2 = full.sample(&fb2);
        fb2.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        assert!(full.differs(&fb2, &snap2));
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
    fn fused_capture_matches_compare_then_sample() {
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 10, 10);
        let mut fb = FrameBuffer::new(res);
        let mut fused = g.sample(&fb);
        let mut naive = fused.clone();

        for step in 0..4 {
            match step {
                0 => fb.fill_rect(Rect::new(20, 20, 30, 30), Pixel::WHITE),
                1 => fb.touch(),
                2 => fb.fill(Pixel::grey(40)),
                _ => fb.set_pixel(25, 25, Pixel::WHITE),
            }
            let expected = g.compare(&fb, &naive);
            g.sample_into(&fb, &mut naive);
            let got = g.compare_and_capture(&fb, &mut fused);
            assert_eq!(got.differs, expected.differs, "step {step}");
            assert_eq!(got.points_compared, expected.points_compared, "step {step}");
            assert_eq!(got.points_read, g.sample_count());
            assert_eq!(fused, naive, "snapshots diverged at step {step}");
        }
    }

    #[test]
    fn damaged_capture_reads_only_damaged_points() {
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 10, 10); // samples at 5, 15, …, 95
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);

        // A 20×20 write covers exactly a 2×2 block of sample points.
        fb.fill_rect(Rect::new(10, 10, 20, 20), Pixel::WHITE);
        let damage = fb.take_damage();
        let r = g.compare_and_capture_damaged(&fb, &damage, &mut snap);
        assert!(r.differs);
        assert_eq!(r.points_read, 4);
        assert!(r.points_compared <= 4);
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
    }

    #[test]
    fn damaged_capture_between_sample_points_reads_nothing() {
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 10, 10);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);

        // Damage that dodges every sample point: x in [6, 14), y in [6, 14).
        fb.fill_rect(Rect::new(6, 6, 8, 8), Pixel::WHITE);
        let damage = fb.take_damage();
        let r = g.compare_and_capture_damaged(&fb, &damage, &mut snap);
        assert!(!r.differs, "sub-cell change is invisible to the grid");
        assert_eq!(r.points_read, 0);
        // The full comparison agrees: no sampled point changed.
        assert!(!g.differs(&fb, &snap));
    }

    #[test]
    fn damaged_capture_with_empty_damage_is_free() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.touch();
        let r = g.compare_and_capture_damaged(&fb, &DamageRegion::new(), &mut snap);
        assert_eq!(
            r,
            GridCompare {
                differs: false,
                points_compared: 0,
                points_read: 0
            }
        );
    }

    #[test]
    fn damaged_capture_matches_full_capture_on_multiple_rects() {
        use crate::damage::DamageRegion;
        let res = Resolution::new(64, 64);
        let g = GridSampler::new(res, 8, 8);
        let mut fb_a = FrameBuffer::new(res);
        let mut fb_b = FrameBuffer::new(res);
        let mut snap_full = g.sample(&fb_a);
        let mut snap_damaged = snap_full.clone();

        let rects = [
            Rect::new(0, 0, 12, 12),
            Rect::new(30, 30, 9, 9),
            Rect::new(50, 2, 10, 60),
        ];
        let mut damage = DamageRegion::new();
        for r in rects {
            fb_a.fill_rect(r, Pixel::WHITE);
            fb_b.fill_rect(r, Pixel::WHITE);
            damage.add(r);
        }
        let full = g.compare_and_capture(&fb_a, &mut snap_full);
        let restricted = g.compare_and_capture_damaged(&fb_b, &damage, &mut snap_damaged);
        assert_eq!(full.differs, restricted.differs);
        assert!(restricted.points_read < g.sample_count());
        assert_eq!(snap_full, snap_damaged);
    }

    #[test]
    fn damaged_capture_dense_rows_match_strided_reference() {
        // A full sampler sees every damaged column as one dense row
        // window; a 47-column sampler over the same screen sees strided,
        // split runs. Both must agree with the from-scratch sample.
        let res = Resolution::new(100, 40);
        for g in [GridSampler::full(res), GridSampler::new(res, 47, 13)] {
            let mut fb = FrameBuffer::new(res);
            let mut snap = g.sample(&fb);
            fb.fill_rect(Rect::new(13, 7, 61, 19), Pixel::grey(99));
            let damage = fb.take_damage();
            let r = g.compare_and_capture_damaged(&fb, &damage, &mut snap);
            assert!(r.differs);
            assert_eq!(snap, g.sample(&fb), "snapshot current ({}x{})", g.cols(), g.rows());
            assert!(r.points_compared <= r.points_read);
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
    fn tiled_capture_matches_damaged_reference() {
        let res = Resolution::new(200, 150); // 4×3 tiles with uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 37, 29)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(20));
            let mut snap_ref = g.sample(&fb);
            let mut snap_tiled = snap_ref.clone();
            fb.take_damage();
            let lcg = fb.content_generation();

            // Mixed frame: a tile-covering solid fill, a small unknown
            // write, and a large untouched (clean) remainder.
            fb.fill_rect(Rect::new(0, 64, 64, 64), Pixel::grey(90));
            fb.fill_rect(Rect::new(130, 10, 17, 9), Pixel::WHITE);
            let damage = fb.take_damage();

            let reference = g.compare_and_capture_damaged(&fb, &damage, &mut snap_ref);
            let tiled =
                g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap_tiled);
            assert_eq!(tiled.grid.differs, reference.differs);
            assert_eq!(tiled.grid.points_compared, reference.points_compared);
            assert_eq!(snap_tiled, snap_ref, "snapshot bytes must match");
            assert!(tiled.grid.points_read <= reference.points_read);
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
    fn tiled_capture_with_empty_damage_is_free() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        let lcg = fb.content_generation();
        fb.touch();
        let r = g.compare_and_capture_tiled(&fb, &DamageRegion::new(), lcg, &mut snap);
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
    fn differs_rejects_bad_snapshot() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let fb = FrameBuffer::new(res);
        let _ = g.differs(&fb, &[]);
    }

    #[test]
    #[should_panic(expected = "exceeds resolution")]
    fn grid_larger_than_screen_rejected() {
        let _ = GridSampler::new(Resolution::new(10, 10), 11, 10);
    }
}
