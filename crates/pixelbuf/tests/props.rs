//! Property-based tests for framebuffers, geometry and grid sampling.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::{DamageRegion, MAX_DAMAGE_RECTS};
use ccdem_pixelbuf::diff::buffers_equal;
use ccdem_pixelbuf::draw::draw_noise;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::{Pixel, PixelFormat};
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_pixelbuf::tile::TILE_SIZE;
use ccdem_simkit::rng::SimRng;
use proptest::prelude::*;

fn screen(res: Resolution) -> DamageRegion {
    DamageRegion::of(res.bounds())
}

/// Every grid point's current pixel, read one at a time.
fn fresh_sample(g: &GridSampler, fb: &FrameBuffer) -> Vec<Pixel> {
    g.positions().map(|(x, y)| fb.pixel(x, y)).collect()
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..150, 0u32..150, 0u32..150, 0u32..150).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

/// One arbitrary framebuffer mutation, for exercising the damage
/// accounting across every draw entry point.
#[derive(Debug, Clone, Copy)]
enum DrawOp {
    Touch,
    Fill(u8),
    FillRect(Rect, u8),
    SetPixel(u32, u32, u8),
    Scroll(u32, u8),
}

fn arb_draw_op() -> impl Strategy<Value = DrawOp> {
    prop_oneof![
        Just(DrawOp::Touch),
        any::<u8>().prop_map(DrawOp::Fill),
        (arb_rect(), any::<u8>()).prop_map(|(r, g)| DrawOp::FillRect(r, g)),
        (0u32..64, 0u32..64, any::<u8>()).prop_map(|(x, y, g)| DrawOp::SetPixel(x, y, g)),
        (0u32..70, any::<u8>()).prop_map(|(dy, g)| DrawOp::Scroll(dy, g)),
    ]
}

fn apply(op: DrawOp, fb: &mut FrameBuffer) {
    match op {
        DrawOp::Touch => fb.touch(),
        DrawOp::Fill(g) => fb.fill(Pixel::grey(g)),
        DrawOp::FillRect(r, g) => fb.fill_rect(r, Pixel::grey(g)),
        DrawOp::SetPixel(x, y, g) => {
            let res = fb.resolution();
            fb.set_pixel(x % res.width, y % res.height, Pixel::grey(g));
        }
        DrawOp::Scroll(dy, g) => fb.scroll_up(dy, Pixel::grey(g)),
    }
}

/// A [`DrawOp`] extended with the blit entry points, which need a source
/// buffer and drive the tile-signature inheritance paths.
#[derive(Debug, Clone, Copy)]
enum TileOp {
    Draw(DrawOp),
    CopyFull,
    CopyRect(Rect),
    BlendRect(Rect),
}

fn arb_tile_op() -> impl Strategy<Value = TileOp> {
    prop_oneof![
        arb_draw_op().prop_map(TileOp::Draw),
        arb_draw_op().prop_map(TileOp::Draw),
        arb_draw_op().prop_map(TileOp::Draw),
        Just(TileOp::CopyFull),
        arb_rect().prop_map(TileOp::CopyRect),
        arb_rect().prop_map(TileOp::BlendRect),
    ]
}

fn apply_tile_op(op: TileOp, fb: &mut FrameBuffer, src: &FrameBuffer) {
    match op {
        TileOp::Draw(op) => apply(op, fb),
        TileOp::CopyFull => fb.copy_from(src),
        TileOp::CopyRect(r) => fb.copy_rect_from(src, r),
        TileOp::BlendRect(r) => fb.blend_rect_from(src, r),
    }
}

/// One step of the copy-on-write isolation property: a [`TileOp`] on
/// one of two buffers (blits read the other), or a whole-buffer
/// `copy_from` (which shares every tile) between them in either
/// direction.
#[derive(Debug, Clone, Copy)]
enum CowOp {
    OnA(TileOp),
    OnB(TileOp),
    ShareIntoA,
    ShareIntoB,
}

fn arb_cow_op() -> impl Strategy<Value = CowOp> {
    prop_oneof![
        arb_tile_op().prop_map(CowOp::OnA),
        arb_tile_op().prop_map(CowOp::OnB),
        Just(CowOp::ShareIntoA),
        Just(CowOp::ShareIntoB),
    ]
}

/// Applies `op` to `(a, b)`. With `deep`, shares copy from an
/// [`unshared_copy`] of the source instead — the model the sharing
/// buffers must be indistinguishable from.
fn apply_cow_op(op: CowOp, a: &mut FrameBuffer, b: &mut FrameBuffer, deep: bool) {
    match op {
        CowOp::OnA(op) => apply_tile_op(op, a, b),
        CowOp::OnB(op) => apply_tile_op(op, b, a),
        CowOp::ShareIntoA if deep => a.copy_from(&unshared_copy(b)),
        CowOp::ShareIntoA => a.copy_from(b),
        CowOp::ShareIntoB if deep => b.copy_from(&unshared_copy(a)),
        CowOp::ShareIntoB => b.copy_from(a),
    }
}

/// A copy of `src` with the same pixels and tile signatures that holds
/// no tile storage in common with it: a sharing copy whose every pixel
/// is then rewritten with its own value, which detaches each stored
/// tile.
fn unshared_copy(src: &FrameBuffer) -> FrameBuffer {
    let res = src.resolution();
    let mut copy = FrameBuffer::with_format(res, src.format());
    copy.copy_from(src);
    for y in 0..res.height {
        for x in 0..res.width {
            copy.set_pixel(x, y, copy.pixel(x, y));
        }
    }
    copy
}

/// Assert the [`DamageRegion`] representation invariants: at most
/// [`MAX_DAMAGE_RECTS`] rects, none empty, and all pairwise disjoint
/// (the cascading re-merge in `add` must have reached a fixpoint).
fn assert_disjoint(region: &DamageRegion) {
    let rects = region.rects();
    assert!(rects.len() <= MAX_DAMAGE_RECTS);
    for (i, a) in rects.iter().enumerate() {
        assert!(!a.is_empty(), "stored empty rect {a:?}");
        for b in &rects[i + 1..] {
            assert_eq!(a.intersection(*b), None, "rects {a:?} and {b:?} overlap");
        }
    }
}

proptest! {
    /// Rect intersection is commutative and contained in both operands.
    #[test]
    fn rect_intersection_sound(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        if let Some(i) = a.intersection(b) {
            prop_assert!(i.area() <= a.area());
            prop_assert!(i.area() <= b.area());
            prop_assert!(i.x >= a.x && i.right() <= a.right());
            prop_assert!(i.y >= b.y.min(i.y) && i.bottom() <= b.bottom());
        }
    }

    /// Union contains both operands; intersection (if any) is inside the
    /// union.
    #[test]
    fn rect_union_contains_operands(a in arb_rect(), b in arb_rect()) {
        let u = a.union(b);
        for r in [a, b] {
            if !r.is_empty() {
                prop_assert!(u.contains(r.x, r.y));
                prop_assert!(u.contains(r.right() - 1, r.bottom() - 1));
            }
        }
        if let Some(i) = a.intersection(b) {
            prop_assert_eq!(u.intersection(i), Some(i));
        }
    }

    /// A sampler never exceeds its pixel budget, and all sample
    /// positions are on-screen.
    #[test]
    fn sampler_budget_and_bounds(
        w in 8u32..200,
        h in 8u32..200,
        budget in 1usize..10_000,
    ) {
        let res = Resolution::new(w, h);
        let g = GridSampler::for_pixel_budget(res, budget);
        prop_assert!(g.sample_count() <= budget.max(64).max(g.sample_count().min(budget)));
        prop_assert!(g.sample_count() <= res.pixel_count());
        for (x, y) in g.positions() {
            prop_assert!(res.contains(x, y));
        }
    }

    /// Soundness: if the sampler reports a difference, the buffers truly
    /// differ (no false positives, ever).
    #[test]
    fn sampler_reports_no_false_positives(
        w in 8u32..64,
        h in 8u32..64,
        budget in 1usize..2_000,
        rect in arb_rect(),
        grey in 1u8..255,
    ) {
        let res = Resolution::new(w, h);
        let g = GridSampler::for_pixel_budget(res, budget);
        let before = FrameBuffer::new(res);
        let snapshot = g.sample(&before);
        let mut after = before.clone();
        after.fill_rect(rect, Pixel::grey(grey));
        if g.compare(&after, &screen(res), &snapshot).differs {
            prop_assert!(!buffers_equal(&before, &after));
        }
        // And the full sampler is exact in both directions.
        let full = GridSampler::full(res);
        let full_snapshot = full.sample(&before);
        prop_assert_eq!(
            full.compare(&after, &screen(res), &full_snapshot).differs,
            !buffers_equal(&before, &after)
        );
    }

    /// Scrolling by the full height (or more) is equivalent to a fill.
    #[test]
    fn full_scroll_equals_fill(h in 1u32..40, dy in 0u32..80, grey in 0u8..=255) {
        let res = Resolution::new(8, h);
        let mut scrolled = FrameBuffer::new(res);
        scrolled.fill(Pixel::grey(77));
        scrolled.scroll_up(dy, Pixel::grey(grey));
        if dy >= h {
            let mut filled = FrameBuffer::new(res);
            filled.fill(Pixel::grey(grey));
            prop_assert!(buffers_equal(&scrolled, &filled));
        } else if dy > 0 {
            // The bottom band is the fill colour.
            prop_assert_eq!(scrolled.pixel(0, h - 1), Pixel::grey(grey));
        }
    }

    /// Satellite 1: after every `add` in an arbitrary sequence, the
    /// damage rects are pairwise disjoint, within capacity, non-empty,
    /// and still cover every rect added so far. Disjointness makes
    /// `area()` an exact (not over-counted) pixel count, which the
    /// sampler relies on when pricing the damage-restricted gather.
    #[test]
    fn damage_add_keeps_rects_disjoint_and_covering(
        rects in proptest::collection::vec(arb_rect(), 1..40),
    ) {
        let mut region = DamageRegion::new();
        for (n, &r) in rects.iter().enumerate() {
            region.add(r);
            assert_disjoint(&region);

            // Coverage: spot-check corners, centre, and edge midpoints
            // of everything added so far.
            for &prev in &rects[..=n] {
                if prev.is_empty() {
                    continue;
                }
                let (x1, y1) = (prev.right() - 1, prev.bottom() - 1);
                let (cx, cy) = (prev.x + prev.width / 2, prev.y + prev.height / 2);
                for (x, y) in [
                    (prev.x, prev.y), (x1, prev.y), (prev.x, y1), (x1, y1),
                    (cx, cy), (cx, prev.y), (cx, y1), (prev.x, cy), (x1, cy),
                ] {
                    prop_assert!(region.contains(x, y), "({}, {}) of {:?} lost", x, y, prev);
                }
            }
        }

        // area() must agree with the ground-truth union now that the
        // rects are disjoint.
        let b = region.bounding();
        let mut true_area = 0u64;
        for y in b.y..b.bottom() {
            for x in b.x..b.right() {
                true_area += u64::from(region.contains(x, y));
            }
        }
        prop_assert_eq!(region.area(), true_area);

        // Merging a whole region at once preserves the same invariants.
        let mut merged = DamageRegion::new();
        merged.add_region(&region);
        assert_disjoint(&merged);
        prop_assert_eq!(merged.area(), region.area());
    }

    /// The production gather agrees with the scalar oracle over
    /// arbitrary op sequences — including blits from a second buffer,
    /// which exercise signature inheritance and quantisation — fed
    /// exactly the framebuffer's own accumulated damage: the same
    /// verdict and `points_compared` as the oracle over that damage, the
    /// same verdict as a full-screen compare (the damage is sound), a
    /// snapshot equal to a fresh sample, and never a read outside the
    /// damage.
    #[test]
    fn tiled_gather_matches_scalar_oracle(
        w in 8u32..150,
        h in 8u32..150,
        budget in 16usize..2_000,
        dst_565 in any::<bool>(),
        src_ops in proptest::collection::vec(arb_draw_op(), 1..5),
        ops in proptest::collection::vec(arb_tile_op(), 1..30),
    ) {
        let res = Resolution::new(w, h);
        let format = if dst_565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let g = GridSampler::for_pixel_budget(res, budget);

        let mut src = FrameBuffer::new(res);
        for &op in &src_ops {
            apply(op, &mut src);
        }

        let mut fb = FrameBuffer::with_format(res, format);
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let mut lcg = fb.content_generation();

        for op in ops {
            apply_tile_op(op, &mut fb, &src);
            let damage = fb.take_damage();

            let oracle = g.compare(&fb, &damage, &snap);
            let full = g.compare(&fb, &screen(res), &snap);
            let tiled = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);

            prop_assert_eq!(tiled.grid.differs, oracle.differs);
            prop_assert_eq!(tiled.grid.points_compared, oracle.points_compared);
            prop_assert_eq!(full.differs, oracle.differs);
            prop_assert_eq!(&snap, &fresh_sample(&g, &fb));
            let damaged_points = g.positions().filter(|&(x, y)| damage.contains(x, y)).count();
            prop_assert!(tiled.grid.points_read <= damaged_points);
            prop_assert!(tiled.tiles_descended <= tiled.tiles_checked);
            lcg = fb.content_generation();
        }
    }

    /// Copy-on-write isolation: two buffers that share storage back and
    /// forth through `copy_from`, interleaved with every write entry
    /// point on either side, stay indistinguishable from a model that
    /// copies from unshared copies instead — pixels, tile signatures,
    /// damage and both generations, on both sides, after every step. A
    /// write on one side never leaks into the other.
    #[test]
    fn shared_storage_is_isolated_like_a_deep_copy(
        w in 1u32..80,
        h in 1u32..80,
        b_565 in any::<bool>(),
        ops in proptest::collection::vec(arb_cow_op(), 1..40),
    ) {
        let res = Resolution::new(w, h);
        let b_format = if b_565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let (mut a, mut b) = (FrameBuffer::new(res), FrameBuffer::with_format(res, b_format));
        let (mut model_a, mut model_b) =
            (FrameBuffer::new(res), FrameBuffer::with_format(res, b_format));

        for (step, &op) in ops.iter().enumerate() {
            apply_cow_op(op, &mut a, &mut b, false);
            apply_cow_op(op, &mut model_a, &mut model_b, true);
            for (side, real, model) in [("a", &a, &model_a), ("b", &b, &model_b)] {
                prop_assert!(real.pixels().eq(model.pixels()), "{side} pixels at step {step} ({op:?})");
                prop_assert!(real.tiles() == model.tiles(), "{side} tiles at step {step} ({op:?})");
                prop_assert_eq!(real.damage(), model.damage());
                prop_assert_eq!(real.generation(), model.generation());
                prop_assert_eq!(real.content_generation(), model.content_generation());
            }
        }
    }

    /// Damage soundness: every pixel that changed lies inside the
    /// accumulated damage region, and touch never adds damage.
    #[test]
    fn damage_covers_every_changed_pixel(
        ops in proptest::collection::vec(arb_draw_op(), 1..25),
    ) {
        let res = Resolution::new(24, 24);
        let mut fb = FrameBuffer::new(res);
        fb.take_damage();
        let before = fb.clone();
        let mut touched_only = true;
        for op in ops {
            touched_only &= matches!(op, DrawOp::Touch);
            apply(op, &mut fb);
        }
        if touched_only {
            prop_assert!(fb.damage().is_empty(), "touch must never add damage");
        }
        let damage = fb.take_damage();
        for y in 0..res.height {
            for x in 0..res.width {
                if fb.pixel(x, y) != before.pixel(x, y) {
                    prop_assert!(
                        damage.contains(x, y),
                        "changed pixel ({}, {}) outside damage", x, y
                    );
                }
            }
        }
    }

    /// The dense two-pixels-per-word compare and the strided compare
    /// agree with the scalar oracle on arbitrary buffers: same verdict,
    /// same `points_compared`, and a snapshot equal to a fresh sample.
    /// Generation 0 with full-screen damage forces the tiled gather to
    /// descend into every written, non-solid tile; odd widths exercise
    /// the `chunks_exact` tails.
    #[test]
    fn dense_words_match_scalar_oracle(
        w in 3u32..37,
        h in 3u32..19,
        budget in 1usize..600,
        before in proptest::collection::vec(arb_draw_op(), 1..8),
        after in proptest::collection::vec(arb_draw_op(), 0..8),
    ) {
        let res = Resolution::new(w, h);
        for g in [GridSampler::for_pixel_budget(res, budget), GridSampler::full(res)] {
            let mut fb = FrameBuffer::new(res);
            for &op in &before {
                apply(op, &mut fb);
            }
            let mut snap = g.sample(&fb);
            for &op in &after {
                apply(op, &mut fb);
            }

            let oracle = g.compare(&fb, &screen(res), &snap);
            let r = g.compare_and_capture_tiled(&fb, &screen(res), 0, &mut snap);
            prop_assert_eq!(r.grid.differs, oracle.differs);
            prop_assert_eq!(r.grid.points_compared, oracle.points_compared);
            prop_assert_eq!(snap, fresh_sample(&g, &fb));
        }
    }

    /// Flipping exactly one sampled point makes both the oracle and the
    /// tiled gather locate it exactly: `points_compared == index + 1`
    /// for any index, including ones landing mid-word or in a
    /// `chunks_exact` remainder.
    #[test]
    fn single_flips_are_located_exactly(
        w in 3u32..37,
        h in 3u32..19,
        budget in 1usize..600,
        base in proptest::collection::vec(arb_draw_op(), 0..6),
        slot in 0usize..1_000_000,
    ) {
        let res = Resolution::new(w, h);
        for g in [GridSampler::for_pixel_budget(res, budget), GridSampler::full(res)] {
            let mut fb = FrameBuffer::new(res);
            for &op in &base {
                apply(op, &mut fb);
            }
            let mut snap = g.sample(&fb);
            let idx = slot % g.sample_count();
            let (px, py) = g.positions().nth(idx).expect("index in range");
            let old = fb.pixel(px, py);
            fb.set_pixel(px, py, Pixel::rgba(old.red() ^ 0x80, old.green(), old.blue(), old.alpha()));

            let oracle = g.compare(&fb, &screen(res), &snap);
            prop_assert!(oracle.differs);
            prop_assert_eq!(oracle.points_compared, idx + 1);

            let r = g.compare_and_capture_tiled(&fb, &screen(res), 0, &mut snap);
            prop_assert!(r.grid.differs);
            prop_assert_eq!(r.grid.points_compared, idx + 1);
            prop_assert_eq!(snap.get(idx).copied(), Some(fb.pixel(px, py)));
        }
    }

    /// The row-slice blits (`copy_rect_from`, `blend_rect_from`) match a
    /// per-pixel reference built from `pixel`/`set_pixel`, across clipped
    /// rects, both destination formats, and both opaque and translucent
    /// sources.
    #[test]
    fn row_blits_match_per_pixel_reference(
        rect in arb_rect(),
        src_grey in any::<u8>(),
        src_alpha in any::<u8>(),
        dst_grey in any::<u8>(),
        dst_565 in any::<bool>(),
        blend in any::<bool>(),
        patch in arb_rect(),
        patch_grey in any::<u8>(),
    ) {
        let res = Resolution::new(21, 13);
        let mut src = FrameBuffer::new(res);
        src.fill(Pixel::rgba(src_grey, src_grey.wrapping_add(31), src_grey, src_alpha));
        src.fill_rect(patch, Pixel::rgba(patch_grey, patch_grey, patch_grey.wrapping_mul(3), src_alpha ^ 0x55));
        let format = if dst_565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let mut dst = FrameBuffer::with_format(res, format);
        dst.fill(Pixel::grey(dst_grey));
        let mut reference = dst.clone();

        if blend {
            dst.blend_rect_from(&src, rect);
        } else {
            dst.copy_rect_from(&src, rect);
        }

        if let Some(r) = rect.clipped_to(res) {
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    let s = src.pixel(x, y);
                    let v = if blend { s.over(reference.pixel(x, y)) } else { s };
                    reference.set_pixel(x, y, v);
                }
            }
        }
        prop_assert!(buffers_equal(&dst, &reference));
    }

    /// Pixel channel round trip through the packed word.
    #[test]
    fn pixel_round_trips(r in any::<u8>(), g in any::<u8>(), b in any::<u8>(), a in any::<u8>()) {
        let p = Pixel::rgba(r, g, b, a);
        prop_assert_eq!((p.red(), p.green(), p.blue(), p.alpha()), (r, g, b, a));
        prop_assert_eq!(Pixel::from_bits(p.to_bits()), p);
    }

    /// Alpha blending stays within channel bounds and is exact at the
    /// extremes.
    #[test]
    fn over_is_bounded(src in any::<u32>(), dst in any::<u32>()) {
        let s = Pixel::from_bits(src);
        let d = Pixel::from_bits(dst | 0xFF00_0000);
        let o = s.over(d);
        prop_assert_eq!(o.alpha(), 255);
        for (ch, (a, b)) in [
            (o.red(), (s.red(), d.red())),
            (o.green(), (s.green(), d.green())),
            (o.blue(), (s.blue(), d.blue())),
        ] {
            prop_assert!(ch >= a.min(b).saturating_sub(1));
            prop_assert!(ch <= a.max(b).saturating_add(1));
        }
    }
}

/// An eagerly written framebuffer: every pixel stored. The reference the
/// tile-stored buffers must match pixel for pixel.
#[derive(Debug, Clone)]
struct Model {
    res: Resolution,
    format: PixelFormat,
    px: Vec<Pixel>,
}

impl Model {
    fn new(res: Resolution, format: PixelFormat) -> Model {
        Model {
            res,
            format,
            px: vec![Pixel::BLACK; res.pixel_count()],
        }
    }

    fn at(&self, x: u32, y: u32) -> Pixel {
        self.px[(y * self.res.width + x) as usize]
    }

    fn set(&mut self, x: u32, y: u32, p: Pixel) {
        self.px[(y * self.res.width + x) as usize] = self.format.quantize(p);
    }

    /// Sets every pixel of `rect` (clipped) to `f(x, y, old)`.
    fn map_rect(&mut self, rect: Rect, f: impl Fn(u32, u32, Pixel) -> Pixel) {
        if let Some(r) = rect.clipped_to(self.res) {
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    let v = f(x, y, self.at(x, y));
                    self.set(x, y, v);
                }
            }
        }
    }

    fn scroll_up(&mut self, dy: u32, fill: Pixel) {
        let (w, h) = (self.res.width, self.res.height);
        let dy = dy.min(h);
        for y in 0..h {
            for x in 0..w {
                let v = if y + dy < h { self.at(x, y + dy) } else { fill };
                self.set(x, y, v);
            }
        }
    }
}

/// A colour from a small palette, so fills often repeat a tile's colour
/// (which keeps it solid) and blends see translucent sources.
fn palette(i: u8) -> Pixel {
    let v = i % 6;
    Pixel::rgba(
        v * 50,
        255 - v * 40,
        v * 23,
        if v.is_multiple_of(2) { 255 } else { 128 },
    )
}

/// One step of the tile-storage model test, on buffer `side` (0 or 1);
/// copies and blends read the other buffer.
#[derive(Debug, Clone, Copy)]
enum PendOp {
    Fill(usize, u8),
    FillRect(usize, Rect, u8),
    /// A fill of whole 64×64 tiles `(tx, ty, tw, th)`.
    FillTiles(usize, (u32, u32, u32, u32), u8),
    SetPixel(usize, u32, u32, u8),
    Noise(usize, Rect, u64),
    Scroll(usize, u32, u8),
    CopyFrom(usize),
    CopyRect(usize, Rect),
    Blend(usize, Rect),
    /// Keep a clone of the side (sharing its storage) and check it
    /// after every later step.
    Clone(usize),
    Recycle(usize),
}

fn arb_big_rect() -> impl Strategy<Value = Rect> {
    (0u32..220, 0u32..220, 0u32..220, 0u32..220).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_pend_op() -> impl Strategy<Value = PendOp> {
    let side = 0usize..2;
    prop_oneof![
        (side.clone(), any::<u8>()).prop_map(|(s, c)| PendOp::Fill(s, c)),
        (side.clone(), arb_big_rect(), any::<u8>()).prop_map(|(s, r, c)| PendOp::FillRect(s, r, c)),
        (
            side.clone(),
            (0u32..4, 0u32..4, 1u32..4, 1u32..4),
            any::<u8>()
        )
            .prop_map(|(s, t, c)| PendOp::FillTiles(s, t, c)),
        (side.clone(), 0u32..200, 0u32..200, any::<u8>())
            .prop_map(|(s, x, y, c)| PendOp::SetPixel(s, x, y, c)),
        (
            side.clone(),
            (0u32..220, 0u32..220, 0u32..24, 0u32..24),
            any::<u64>()
        )
            .prop_map(|(s, (x, y, w, h), seed)| PendOp::Noise(
                s,
                Rect::new(x, y, w, h),
                seed
            )),
        (side.clone(), 0u32..220, any::<u8>()).prop_map(|(s, dy, c)| PendOp::Scroll(s, dy, c)),
        side.clone().prop_map(PendOp::CopyFrom),
        (side.clone(), arb_big_rect()).prop_map(|(s, r)| PendOp::CopyRect(s, r)),
        (side.clone(), arb_big_rect()).prop_map(|(s, r)| PendOp::Blend(s, r)),
        side.clone().prop_map(PendOp::Clone),
        side.prop_map(PendOp::Recycle),
    ]
}

/// `(target, other)` for an op on `side`.
fn pair<T>(v: &mut [T; 2], side: usize) -> (&mut T, &mut T) {
    let [a, b] = v;
    if side == 0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// A fresh black buffer in `format` for a side whose recycled storage
/// `pool` holds: drawn from the pool when it is RGBA8888, the format
/// pool buffers have.
fn take_buffer(pool: &mut PixelPool, res: Resolution, format: PixelFormat) -> FrameBuffer {
    match format {
        PixelFormat::Rgba8888 => pool.take_framebuffer(res),
        _ => FrameBuffer::with_format(res, format),
    }
}

/// Applies `op` to the real buffers and to the eager models. A side's
/// buffers are recycled through its pool.
fn apply_pend_op(
    op: PendOp,
    bufs: &mut [FrameBuffer; 2],
    models: &mut [Model; 2],
    pools: &mut [PixelPool; 2],
) {
    let side = match op {
        PendOp::Fill(s, ..)
        | PendOp::FillRect(s, ..)
        | PendOp::FillTiles(s, ..)
        | PendOp::SetPixel(s, ..)
        | PendOp::Noise(s, ..)
        | PendOp::Scroll(s, ..)
        | PendOp::CopyFrom(s)
        | PendOp::CopyRect(s, ..)
        | PendOp::Blend(s, ..)
        | PendOp::Clone(s)
        | PendOp::Recycle(s) => s,
    };
    let (fb, src) = pair(bufs, side);
    let (model, src_model) = pair(models, side);
    let res = fb.resolution();
    match op {
        PendOp::Fill(_, c) => {
            fb.fill(palette(c));
            model.map_rect(res.bounds(), |_, _, _| palette(c));
        }
        PendOp::FillRect(_, r, c) => {
            fb.fill_rect(r, palette(c));
            model.map_rect(r, |_, _, _| palette(c));
        }
        PendOp::FillTiles(_, (tx, ty, tw, th), c) => {
            let r = Rect::new(
                tx * TILE_SIZE,
                ty * TILE_SIZE,
                tw * TILE_SIZE,
                th * TILE_SIZE,
            );
            fb.fill_rect(r, palette(c));
            model.map_rect(r, |_, _, _| palette(c));
        }
        PendOp::SetPixel(_, x, y, c) => {
            let (x, y) = (x % res.width, y % res.height);
            fb.set_pixel(x, y, palette(c));
            model.set(x, y, palette(c));
        }
        PendOp::Noise(_, r, seed) => {
            draw_noise(fb, r, &mut SimRng::seed_from_u64(seed));
            // draw_noise's contract: one word per pixel, row-major.
            let mut rng = SimRng::seed_from_u64(seed);
            if let Some(r) = r.clipped_to(res) {
                for y in r.y..r.bottom() {
                    for x in r.x..r.right() {
                        model.set(x, y, Pixel::from_bits(rng.next_u64() as u32 | 0xFF00_0000));
                    }
                }
            }
        }
        PendOp::Scroll(_, dy, c) => {
            fb.scroll_up(dy, palette(c));
            model.scroll_up(dy, palette(c));
        }
        PendOp::CopyFrom(_) => {
            fb.copy_from(src);
            model.map_rect(res.bounds(), |x, y, _| src_model.at(x, y));
        }
        PendOp::CopyRect(_, r) => {
            fb.copy_rect_from(src, r);
            model.map_rect(r, |x, y, _| src_model.at(x, y));
        }
        PendOp::Blend(_, r) => {
            fb.blend_rect_from(src, r);
            model.map_rect(r, |x, y, d| src_model.at(x, y).over(d));
        }
        PendOp::Clone(_) => {}
        PendOp::Recycle(_) => {
            // The old buffer's tiles, stale contents and all, go to the
            // pool the new buffer draws its storage from.
            let pool = &mut pools[side];
            let old = std::mem::replace(fb, FrameBuffer::new(Resolution::new(1, 1)));
            pool.give_framebuffer(old);
            *fb = pool.take_framebuffer(res);
            *model = Model::new(res, PixelFormat::Rgba8888);
        }
    }
}

/// Every pixel of `fb`, read one at a time and as the resolved
/// iterator, equals the eager model's, and every tile signature that
/// claims a solid colour holds it in the model.
fn assert_matches_model(fb: &FrameBuffer, model: &Model, what: &str) {
    let res = model.res;
    assert_eq!(fb.format(), model.format, "{what}: format");
    for y in 0..res.height {
        for x in 0..res.width {
            assert_eq!(fb.pixel(x, y), model.at(x, y), "{what}: pixel ({x}, {y})");
        }
    }
    assert!(fb.pixels().eq(model.px.iter().copied()), "{what}: pixels()");
    let tiles = fb.tiles();
    for ty in 0..tiles.rows() {
        for tx in 0..tiles.cols() {
            if let Some(c) = tiles.tile(tx, ty).solid {
                let r = tiles.tile_rect(tx, ty);
                for y in r.y..r.bottom() {
                    for x in r.x..r.right() {
                        assert_eq!(model.at(x, y), c, "{what}: solid tile ({tx}, {ty})");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tile storage is unobservable: over arbitrary sequences of every
    /// writer — whole-screen and whole-tile fills (which make tiles
    /// solid), unaligned fills, single pixels, noise, scrolls, copies,
    /// blends, clones and storage recycled through each side's pool — on
    /// two buffers
    /// in either format and at resolutions spanning several tiles and
    /// clipped edge tiles, every pixel equals an eagerly written model
    /// after every step, and so does every solid tile signature's
    /// colour. The production gather, fed each
    /// buffer's own damage, agrees with the scalar oracle, and its
    /// snapshot equals a fresh sample and the model at the grid points.
    #[test]
    fn pending_tiles_match_an_eager_model(
        w in 1u32..200,
        h in 1u32..200,
        budget in 16usize..2_000,
        formats in (any::<bool>(), any::<bool>()),
        ops in proptest::collection::vec(arb_pend_op(), 1..24),
    ) {
        let res = Resolution::new(w, h);
        let format = |rgb565: bool| if rgb565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let (fa, fb) = (format(formats.0), format(formats.1));
        let g = GridSampler::for_pixel_budget(res, budget);
        let mut pools = [PixelPool::new(), PixelPool::new()];
        let mut bufs = [
            take_buffer(&mut pools[0], res, fa),
            take_buffer(&mut pools[1], res, fb),
        ];
        let mut models = [Model::new(res, fa), Model::new(res, fb)];
        let mut snaps = [g.sample(&bufs[0]), g.sample(&bufs[1])];
        let mut lcgs = [0u64; 2];
        let mut kept: Vec<(FrameBuffer, Model)> = Vec::new();

        for (step, &op) in ops.iter().enumerate() {
            apply_pend_op(op, &mut bufs, &mut models, &mut pools);
            match op {
                PendOp::Clone(s) => kept.push((bufs[s].clone(), models[s].clone())),
                PendOp::Recycle(s) => {
                    // A new buffer: capture a new baseline.
                    bufs[s].take_damage();
                    snaps[s] = g.sample(&bufs[s]);
                    lcgs[s] = bufs[s].content_generation();
                }
                _ => {}
            }
            for s in 0..2 {
                let what = format!("side {s} at step {step} ({op:?})");
                let fb = &mut bufs[s];
                assert_matches_model(fb, &models[s], &what);

                let damage = fb.take_damage();
                let oracle = g.compare(fb, &damage, &snaps[s]);
                let tiled = g.compare_and_capture_tiled(fb, &damage, lcgs[s], &mut snaps[s]);
                prop_assert_eq!(tiled.grid.differs, oracle.differs, "{}", what);
                prop_assert_eq!(tiled.grid.points_compared, oracle.points_compared, "{}", what);
                prop_assert_eq!(&snaps[s], &g.sample(fb), "{}", what);
                let at_model: Vec<Pixel> = g.positions().map(|(x, y)| models[s].at(x, y)).collect();
                prop_assert_eq!(&snaps[s], &at_model, "{}", what);
                lcgs[s] = fb.content_generation();
            }
            for (k, (clone, model)) in kept.iter().enumerate() {
                assert_matches_model(clone, model, &format!("clone {k} at step {step} ({op:?})"));
            }
        }
    }
}
