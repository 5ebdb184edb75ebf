//! Property-based tests for the compositor's latching semantics and for
//! the tile-granular compose against a full recompose.

use ccdem_compositor::flinger::{ComposeOutcome, SurfaceFlinger};
use ccdem_compositor::surface::SurfaceId;
use ccdem_core::meter::ContentRateMeter;
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::draw::draw_dot;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::time::SimTime;
use proptest::prelude::*;

/// A scripted interleaving of submissions and V-Sync edges.
#[derive(Debug, Clone)]
enum Step {
    Submit { content: bool },
    Vsync,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            any::<bool>().prop_map(|content| Step::Submit { content }),
            Just(Step::Vsync),
        ],
        1..200,
    )
}

proptest! {
    /// Conservation: every submission is either still pending or was
    /// coalesced into exactly one composition; compositions never exceed
    /// V-Sync edges.
    #[test]
    fn submissions_conserved(steps in arb_steps()) {
        let mut sf = SurfaceFlinger::new(Resolution::new(8, 8));
        let id = sf.create_surface("prop");
        let mut submitted = 0usize;
        let mut coalesced_total = 0usize;
        let mut edges = 0usize;
        let mut composed = 0usize;
        for (i, step) in steps.iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            match step {
                Step::Submit { content } => {
                    if *content {
                        sf.surface_mut(id).unwrap().buffer_mut().fill(Pixel::grey((i % 250) as u8 + 1));
                    }
                    sf.submit(id, t, *content).unwrap();
                    submitted += 1;
                }
                Step::Vsync => {
                    edges += 1;
                    if let ComposeOutcome::Composed { coalesced, .. } = sf.compose(t) {
                        composed += 1;
                        coalesced_total += coalesced;
                    }
                }
            }
        }
        let pending = if sf.has_pending() {
            submitted - coalesced_total
        } else {
            0
        };
        prop_assert_eq!(coalesced_total + pending, submitted);
        prop_assert!(composed <= edges);
        prop_assert_eq!(sf.stats().submissions().count(), submitted);
        prop_assert_eq!(sf.stats().composed().count(), composed);
    }

    /// Content accounting: composed-content frames never exceed content
    /// submissions, and a composed frame carries content iff some
    /// coalesced submission did.
    #[test]
    fn content_flag_accounting(steps in arb_steps()) {
        let mut sf = SurfaceFlinger::new(Resolution::new(8, 8));
        let id = sf.create_surface("prop");
        let mut pending_content = false;
        for (i, step) in steps.iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            match step {
                Step::Submit { content } => {
                    sf.submit(id, t, *content).unwrap();
                    pending_content |= content;
                }
                Step::Vsync => {
                    match sf.compose(t) {
                        ComposeOutcome::Composed { content_changed, .. } => {
                            prop_assert_eq!(content_changed, pending_content);
                            pending_content = false;
                        }
                        ComposeOutcome::Idle => {
                            prop_assert!(!pending_content);
                        }
                    }
                }
            }
        }
        prop_assert!(
            sf.stats().content_composed().count() <= sf.stats().content_submissions().count()
        );
    }

    /// Generation monotonicity: every composition bumps the framebuffer
    /// generation exactly once; idle edges never change it.
    #[test]
    fn generation_tracks_compositions(steps in arb_steps()) {
        let mut sf = SurfaceFlinger::new(Resolution::new(4, 4));
        let id = sf.create_surface("prop");
        let mut last_gen = sf.framebuffer().generation();
        for (i, step) in steps.iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            match step {
                Step::Submit { content } => {
                    // Submission alone never touches the framebuffer.
                    sf.submit(id, t, *content).unwrap();
                    prop_assert_eq!(sf.framebuffer().generation(), last_gen);
                }
                Step::Vsync => {
                    let before = sf.framebuffer().generation();
                    match sf.compose(t) {
                        ComposeOutcome::Composed { .. } => {
                            prop_assert_eq!(sf.framebuffer().generation(), before + 1);
                        }
                        ComposeOutcome::Idle => {
                            prop_assert_eq!(sf.framebuffer().generation(), before);
                        }
                    }
                    last_gen = sf.framebuffer().generation();
                }
            }
        }
    }
}

/// A colour from a small palette, so fills often repeat a tile's colour
/// (which keeps it solid) and translucent surfaces blend.
fn palette(i: u8) -> Pixel {
    let v = i % 6;
    Pixel::rgba(
        v * 50,
        255 - v * 40,
        v * 23,
        if v.is_multiple_of(3) { 128 } else { 255 },
    )
}

/// One step of the compose model test. Surface indices and coordinates
/// are reduced modulo the surface count and the resolution.
#[derive(Debug, Clone, Copy)]
enum ComposeOp {
    Fill(usize, u8),
    FillRect(usize, (u32, u32, u32, u32), u8),
    Dot(usize, (u32, u32, u32), u8),
    /// Ten small dots at spread-out positions, like the dots wallpaper:
    /// scattered damage that collapses to one box with clean tiles.
    Scatter(usize, u32, u8),
    SetPixel(usize, (u32, u32), u8),
    Scroll(usize, u32, u8),
    Bounds(usize, (u32, u32, u32, u32)),
    Z(usize, i32),
    Visible(usize, bool),
    Opaque(usize, bool),
    Submit(usize, bool),
    Compose,
}

fn arb_compose_op() -> impl Strategy<Value = ComposeOp> {
    let s = 0usize..3;
    let rect = (0u32..220, 0u32..220, 0u32..220, 0u32..220);
    prop_oneof![
        (s.clone(), any::<u8>()).prop_map(|(s, c)| ComposeOp::Fill(s, c)),
        (s.clone(), rect.clone(), any::<u8>()).prop_map(|(s, r, c)| ComposeOp::FillRect(s, r, c)),
        (s.clone(), (0u32..220, 0u32..220, 0u32..6), any::<u8>())
            .prop_map(|(s, d, c)| ComposeOp::Dot(s, d, c)),
        (s.clone(), (0u32..220, 0u32..220), any::<u8>())
            .prop_map(|(s, p, c)| ComposeOp::SetPixel(s, p, c)),
        (s.clone(), any::<u32>(), any::<u8>()).prop_map(|(s, k, c)| ComposeOp::Scatter(s, k, c)),
        (s.clone(), 0u32..220, any::<u8>()).prop_map(|(s, dy, c)| ComposeOp::Scroll(s, dy, c)),
        (s.clone(), rect).prop_map(|(s, r)| ComposeOp::Bounds(s, r)),
        (s.clone(), -2i32..3).prop_map(|(s, z)| ComposeOp::Z(s, z)),
        (s.clone(), any::<bool>()).prop_map(|(s, v)| ComposeOp::Visible(s, v)),
        (s.clone(), any::<bool>()).prop_map(|(s, o)| ComposeOp::Opaque(s, o)),
        (s.clone(), any::<bool>()).prop_map(|(s, c)| ComposeOp::Submit(s, c)),
        (s, any::<bool>()).prop_map(|(s, c)| ComposeOp::Submit(s, c)),
        Just(ComposeOp::Compose),
        Just(ComposeOp::Compose),
    ]
}

/// Applies `op` to `sf`; returns the compose outcome for
/// [`ComposeOp::Compose`].
fn apply_compose_op(
    sf: &mut SurfaceFlinger,
    n: usize,
    op: ComposeOp,
    t: SimTime,
) -> Option<ComposeOutcome> {
    let res = sf.resolution();
    let (w, h) = (res.width, res.height);
    let id = |s: usize| SurfaceId::new(s % n);
    fn fb(sf: &mut SurfaceFlinger, id: SurfaceId) -> &mut FrameBuffer {
        sf.surface_mut(id).unwrap().buffer_mut()
    }
    match op {
        ComposeOp::Fill(s, c) => fb(sf, id(s)).fill(palette(c)),
        ComposeOp::FillRect(s, (x, y, rw, rh), c) => {
            fb(sf, id(s)).fill_rect(Rect::new(x, y, rw, rh), palette(c))
        }
        ComposeOp::Dot(s, (x, y, r), c) => draw_dot(fb(sf, id(s)), x % w, y % h, r, palette(c)),
        ComposeOp::SetPixel(s, (x, y), c) => fb(sf, id(s)).set_pixel(x % w, y % h, palette(c)),
        ComposeOp::Scatter(s, k, c) => {
            for i in 0..10u32 {
                let (x, y) = (
                    k.wrapping_add(i * 71) % w,
                    (k / 7).wrapping_add(i * 113) % h,
                );
                draw_dot(fb(sf, id(s)), x, y, 2, palette(c.wrapping_add(i as u8)));
            }
        }
        ComposeOp::Scroll(s, dy, c) => fb(sf, id(s)).scroll_up(dy, palette(c)),
        ComposeOp::Bounds(s, (x, y, rw, rh)) => {
            let (x, y) = (x % w, y % h);
            let bounds = Rect::new(x, y, 1 + rw % (w - x), 1 + rh % (h - y));
            sf.surface_mut(id(s)).unwrap().set_bounds(bounds);
        }
        ComposeOp::Z(s, z) => sf.surface_mut(id(s)).unwrap().set_z_order(z),
        ComposeOp::Visible(s, v) => sf.surface_mut(id(s)).unwrap().set_visible(v),
        ComposeOp::Opaque(s, o) => sf.surface_mut(id(s)).unwrap().set_opaque(o),
        ComposeOp::Submit(s, c) => sf.submit(id(s), t, c).unwrap(),
        ComposeOp::Compose => return Some(sf.compose(t)),
    }
    None
}

/// The reference compose, independent of the compositor's tile logic:
/// every visible surface of `sf` in z-order (ties by slot), copied or
/// blended whole over `model`.
fn recompose_model(sf: &SurfaceFlinger, n: usize, model: &mut FrameBuffer) {
    let mut order: Vec<(i32, usize)> = (0..n)
        .map(|s| (sf.surface(SurfaceId::new(s)).unwrap().z_order(), s))
        .collect();
    order.sort_unstable();
    for (_, s) in order {
        let surface = sf.surface(SurfaceId::new(s)).unwrap();
        if !surface.is_visible() {
            continue;
        }
        if surface.is_opaque() {
            model.copy_rect_from(surface.buffer(), surface.bounds());
        } else {
            model.blend_rect_from(surface.buffer(), surface.bounds());
        }
    }
}

/// Every tile signature that claims a solid colour holds it everywhere.
fn solid_tiles_are_truthful(fb: &FrameBuffer) -> Result<(), String> {
    let tiles = fb.tiles();
    for ty in 0..tiles.rows() {
        for tx in 0..tiles.cols() {
            let Some(c) = tiles.tile(tx, ty).solid else {
                continue;
            };
            let r = tiles.tile_rect(tx, ty);
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    if fb.pixel(x, y) != c {
                        return Err(format!(
                            "tile ({tx}, {ty}) claims {c} but ({x}, {y}) differs"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tile-granular compose is a full recompose, bit for bit: over
    /// arbitrary stacks of one to three surfaces — opaque or translucent,
    /// any bounds, z-order and visibility, changed at any time — and
    /// arbitrary draws, submits and composes, the framebuffer after every
    /// compose holds exactly the pixels of a twin compositor that
    /// recomposes every tile every time (`set_naive_compose`), and of a
    /// model that copies and blends every visible surface whole. Every
    /// solid tile signature of both compositors is truthful, every pixel
    /// a compose changes lies in its damage, and a content-rate meter fed
    /// the compositor's frames and damage classifies them as one that
    /// inspects the whole screen does.
    #[test]
    fn tile_compose_matches_a_full_recompose(
        w in 1u32..200,
        h in 1u32..200,
        n in 1usize..4,
        budget in 16usize..2_000,
        ops in proptest::collection::vec(arb_compose_op(), 1..48),
    ) {
        let res = Resolution::new(w, h);
        let mut fast = SurfaceFlinger::new(res);
        let mut naive = SurfaceFlinger::new(res);
        naive.set_naive_compose(true);
        for sf in [&mut fast, &mut naive] {
            for s in 0..n {
                sf.create_surface(format!("surface {s}"));
            }
        }
        let mut model = FrameBuffer::new(res);
        let sampler = GridSampler::for_pixel_budget(res, budget);
        let mut meters = [ContentRateMeter::new(sampler.clone()), ContentRateMeter::new(sampler)];
        for (step, &op) in ops.iter().enumerate() {
            let t = SimTime::from_millis(step as u64 * 8);
            let before = fast.framebuffer().clone();
            let outcomes = [&mut fast, &mut naive].map(|sf| apply_compose_op(sf, n, op, t));
            let [Some(a), Some(b)] = outcomes else {
                continue;
            };
            let what = format!("step {step} ({op:?})");
            if matches!(a, ComposeOutcome::Composed { content_changed: true, .. }) {
                recompose_model(&fast, n, &mut model);
            }
            prop_assert!(
                fast.framebuffer().pixels().eq(naive.framebuffer().pixels()),
                "framebuffers differ at {}", what
            );
            prop_assert!(
                fast.framebuffer().pixels().eq(model.pixels()),
                "framebuffer differs from the model at {}", what
            );
            for sf in [&fast, &naive] {
                if let Err(e) = solid_tiles_are_truthful(sf.framebuffer()) {
                    panic!("{what}: {e}");
                }
            }
            // The fast compositor's damage must be sound: it holds every
            // pixel the compose changed, and a meter limited to it
            // classifies each frame as one that looks at the whole screen
            // does.
            if let ComposeOutcome::Composed { damage, .. } = a {
                let now = fast.framebuffer();
                for y in 0..h {
                    for x in 0..w {
                        if now.pixel(x, y) != before.pixel(x, y) {
                            prop_assert!(damage.contains(x, y), "({}, {}) changed outside the damage at {}", x, y, what);
                        }
                    }
                }
            }
            let mut classes = Vec::new();
            if let ComposeOutcome::Composed { damage, .. } = a {
                classes.push(meters[0].observe_damaged(fast.framebuffer(), &damage, t));
            }
            if let ComposeOutcome::Composed { .. } = b {
                classes.push(meters[1].observe(naive.framebuffer(), t));
            }
            prop_assert_eq!(classes.first(), classes.last(), "meter verdicts differ at {}", what);
        }
    }
}
