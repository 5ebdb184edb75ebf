//! Per-tile content signatures for hierarchical metering.
//!
//! The framebuffer is partitioned into fixed [`TILE_SIZE`]² tiles (edge
//! tiles are smaller). Every draw op stamps the tiles its written rect
//! intersects with the buffer's new content generation and records what
//! it knows about the tile's content afterwards:
//!
//! * `solid: Some(c)` — **every** pixel of the tile provably holds the
//!   exact stored value `c`. Only a constant fill that fully covers the
//!   tile, or a copy from a source tile that is itself solid, can
//!   establish this; it is an exact content summary, not a hash.
//! * `solid: None` — the tile's content is unknown (partial writes,
//!   blends, scrolls, per-pixel stores).
//!
//! The content-rate meter uses the stamps to skip tiles untouched since
//! its last observation and the solid colours to compare and refresh its
//! snapshot without reading the framebuffer at all. Crucially the
//! signatures only gate *how* a tile is inspected, never whether its
//! grid points count as inspected — a wrong-but-sound `None` merely
//! costs a pixel descent (see `GridSampler::compare_and_capture_tiled`
//! and DESIGN.md §12).

use std::ops::Range;

use crate::geometry::{Rect, Resolution};
use crate::pixel::Pixel;

/// Tile edge length in pixels. 64 keeps the map tiny (240 tiles for the
/// Galaxy S3 framebuffer) while still splitting the screen finely enough
/// that typical partial redraws leave most tiles untouched.
pub const TILE_SIZE: u32 = 64;

/// One tile's rolling content signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// The buffer's content generation when a draw last intersected this
    /// tile. `stamp <= last_observed_generation` proves the tile's
    /// pixels are unchanged since that observation.
    pub stamp: u64,
    /// `Some(c)` iff every pixel of the tile provably equals `c` (the
    /// exact stored, format-quantized value).
    pub solid: Option<Pixel>,
}

/// The per-framebuffer grid of [`Tile`] signatures.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let mut fb = FrameBuffer::new(Resolution::GALAXY_S3);
/// // A fresh buffer is provably solid black everywhere.
/// assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::BLACK));
/// fb.fill(Pixel::WHITE);
/// assert_eq!(fb.tiles().tile(5, 7).solid, Some(Pixel::WHITE));
/// assert_eq!(fb.tiles().tile(5, 7).stamp, fb.content_generation());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMap {
    resolution: Resolution,
    cols: u32,
    rows: u32,
    tiles: Vec<Tile>,
}

impl TileMap {
    /// A map for `resolution` with every tile stamped 0 and provably
    /// solid black — exactly the content of a fresh framebuffer.
    pub fn new(resolution: Resolution) -> TileMap {
        let cols = resolution.width.div_ceil(TILE_SIZE);
        let rows = resolution.height.div_ceil(TILE_SIZE);
        TileMap {
            resolution,
            cols,
            rows,
            tiles: vec![
                Tile {
                    stamp: 0,
                    solid: Some(Pixel::BLACK),
                };
                (cols as usize) * (rows as usize)
            ],
        }
    }

    /// Tile columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Tile rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The signature of tile `(tx, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinate is out of range.
    #[inline]
    pub fn tile(&self, tx: u32, ty: u32) -> Tile {
        assert!(tx < self.cols && ty < self.rows, "tile ({tx},{ty}) out of range");
        // ccdem-lint: allow(panic) — bounds asserted on the line above.
        self.tiles[(ty * self.cols + tx) as usize]
    }

    /// The pixel rectangle covered by tile `(tx, ty)` (edge tiles are
    /// clipped to the resolution).
    #[inline]
    pub fn tile_rect(&self, tx: u32, ty: u32) -> Rect {
        tile_rect(self.resolution, tx, ty)
    }

    /// Stamps every tile intersecting `written` with `stamp` and updates
    /// the solid signatures: when `solid` is `Some(c)` (the write was a
    /// constant fill of the exact stored value `c`), tiles fully covered
    /// by `written` become solid `c`; partially covered tiles keep their
    /// signature only if it already equals the write (filling part of an
    /// all-`c` tile with `c` leaves it all-`c`), and degrade to unknown
    /// otherwise.
    pub fn stamp_rect(&mut self, written: Rect, stamp: u64, solid: Option<Pixel>) {
        each_tile(self.resolution, self.cols, written, |i, rect| {
            if let Some(tile) = self.tiles.get_mut(i) {
                tile.solid = if covers(written, rect) || tile.solid == solid {
                    solid
                } else {
                    None
                };
                tile.stamp = stamp;
            }
        });
    }

    /// Stamps every tile intersecting `written` with `stamp`, inheriting
    /// solidity from the aligned source tile of a whole-region copy:
    /// tiles fully covered by `written` take `map(src_solid)` (`map` is
    /// the destination's pixel quantization), partially covered tiles
    /// degrade to unknown. The tile grids align because copies require
    /// matching resolutions.
    ///
    /// # Panics
    ///
    /// Panics if the source map's resolution differs.
    pub fn inherit_rect(
        &mut self,
        written: Rect,
        stamp: u64,
        src: &TileMap,
        map: impl Fn(Pixel) -> Pixel,
    ) {
        assert_eq!(
            self.resolution, src.resolution,
            "tile inheritance requires matching resolutions"
        );
        each_tile(self.resolution, self.cols, written, |i, rect| {
            let solid = if covers(written, rect) {
                src.solid_at(i).map(&map)
            } else {
                None
            };
            if let Some(tile) = self.tiles.get_mut(i) {
                tile.solid = solid;
                tile.stamp = stamp;
            }
        });
    }

    /// Number of tiles.
    pub(crate) fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Gives the tiles at row-major indices `range` the solid signatures
    /// of `src`'s (a map of the same resolution) and `stamp`.
    pub(crate) fn inherit(&mut self, src: &TileMap, range: Range<usize>, stamp: u64) {
        let (Some(dst), Some(from)) = (self.tiles.get_mut(range.clone()), src.tiles.get(range))
        else {
            return;
        };
        for (d, s) in dst.iter_mut().zip(from) {
            *d = Tile {
                stamp,
                solid: s.solid,
            };
        }
    }

    /// Sets the signature of the tile at row-major index `i`.
    pub(crate) fn set(&mut self, i: usize, tile: Tile) {
        if let Some(t) = self.tiles.get_mut(i) {
            *t = tile;
        }
    }

    /// The solid colour of the tile at row-major index `i`.
    pub(crate) fn solid_at(&self, i: usize) -> Option<Pixel> {
        self.tiles.get(i).and_then(|t| t.solid)
    }

    /// The row-major index of the tile holding pixel `(x, y)`.
    pub(crate) fn index_of(&self, x: u32, y: u32) -> usize {
        ((y / TILE_SIZE) * self.cols + x / TILE_SIZE) as usize
    }

    /// Calls `f` with the row-major index and pixel rect of every tile
    /// intersecting `rect` (clipped to the resolution).
    pub(crate) fn for_each_tile(&self, rect: Rect, f: impl FnMut(usize, Rect)) {
        each_tile(self.resolution, self.cols, rect, f);
    }
}

/// [`TileMap::for_each_tile`] for a map of `cols` tile columns over
/// `resolution`, borrowing nothing of the map.
fn each_tile(resolution: Resolution, cols: u32, rect: Rect, mut f: impl FnMut(usize, Rect)) {
    let Some(r) = rect.clipped_to(resolution) else {
        return;
    };
    for ty in tile_span(r.y, r.bottom()) {
        for tx in tile_span(r.x, r.right()) {
            f((ty * cols + tx) as usize, tile_rect(resolution, tx, ty));
        }
    }
}

/// The pixel rect of tile `(tx, ty)` at `resolution`, clipped at the edge.
fn tile_rect(resolution: Resolution, tx: u32, ty: u32) -> Rect {
    let x = tx * TILE_SIZE;
    let y = ty * TILE_SIZE;
    Rect::new(
        x,
        y,
        TILE_SIZE.min(resolution.width - x),
        TILE_SIZE.min(resolution.height - y),
    )
}

/// Does `written` fully cover the tile rect `tile`?
fn covers(written: Rect, tile: Rect) -> bool {
    written.x <= tile.x
        && written.y <= tile.y
        && written.right() >= tile.right()
        && written.bottom() >= tile.bottom()
}

/// Tile-index span covering pixel range `[lo, hi)` (`hi > lo`).
fn tile_span(lo: u32, hi: u32) -> std::ops::Range<u32> {
    lo / TILE_SIZE..(hi - 1) / TILE_SIZE + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_solid_black() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        assert_eq!((m.cols(), m.rows()), (12, 20));
        for ty in 0..m.rows() {
            for tx in 0..m.cols() {
                assert_eq!(
                    m.tile(tx, ty),
                    Tile {
                        stamp: 0,
                        solid: Some(Pixel::BLACK)
                    }
                );
            }
        }
    }

    #[test]
    fn edge_tiles_are_clipped() {
        let m = TileMap::new(Resolution::GALAXY_S3); // 720 = 11×64 + 16
        assert_eq!(m.tile_rect(11, 0), Rect::new(704, 0, 16, 64));
        assert_eq!(m.tile_rect(0, 0), Rect::new(0, 0, 64, 64));
    }

    #[test]
    fn full_cover_sets_solid_partial_degrades() {
        let mut m = TileMap::new(Resolution::new(128, 128));
        let c = Pixel::grey(9);
        m.stamp_rect(Rect::new(0, 0, 128, 64), 1, Some(c));
        assert_eq!(m.tile(0, 0).solid, Some(c));
        assert_eq!(m.tile(1, 0).solid, Some(c));
        // Untouched row keeps the fresh black signature and stamp 0.
        assert_eq!(m.tile(0, 1), Tile { stamp: 0, solid: Some(Pixel::BLACK) });
        // A partial unknown write degrades only the tiles it touches.
        m.stamp_rect(Rect::new(60, 0, 8, 8), 2, None);
        assert_eq!(m.tile(0, 0), Tile { stamp: 2, solid: None });
        assert_eq!(m.tile(1, 0), Tile { stamp: 2, solid: None });
    }

    #[test]
    fn same_colour_partial_fill_preserves_solidity() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        // Part of an all-black tile filled with black stays all-black.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 1, Some(Pixel::BLACK));
        assert_eq!(m.tile(0, 0), Tile { stamp: 1, solid: Some(Pixel::BLACK) });
        // A different colour degrades it.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 2, Some(Pixel::WHITE));
        assert_eq!(m.tile(0, 0), Tile { stamp: 2, solid: None });
    }

    #[test]
    fn inherit_maps_source_solidity() {
        let res = Resolution::new(128, 64);
        let mut src = TileMap::new(res);
        src.stamp_rect(Rect::new(0, 0, 64, 64), 3, Some(Pixel::grey(200)));
        src.stamp_rect(Rect::new(64, 0, 64, 64), 4, None);
        let mut dst = TileMap::new(res);
        dst.inherit_rect(res.bounds(), 7, &src, |p| p);
        assert_eq!(dst.tile(0, 0), Tile { stamp: 7, solid: Some(Pixel::grey(200)) });
        assert_eq!(dst.tile(1, 0), Tile { stamp: 7, solid: None });
        // A partial copy degrades the partially covered tile.
        let mut partial = TileMap::new(res);
        partial.inherit_rect(Rect::new(0, 0, 32, 64), 9, &src, |p| p);
        assert_eq!(partial.tile(0, 0), Tile { stamp: 9, solid: None });
        assert_eq!(partial.tile(1, 0).stamp, 0, "untouched tile not stamped");
    }

    #[test]
    fn empty_rect_changes_nothing() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        let before = m.clone();
        m.stamp_rect(Rect::new(10, 10, 0, 5), 5, Some(Pixel::WHITE));
        assert_eq!(m, before);
    }
}
