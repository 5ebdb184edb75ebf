//! Steady-state storage of the tile-granular compose path.
//!
//! The compositor shares every tile a surface covers alone with the
//! framebuffer, and each tile allocation the framebuffer gives up goes
//! to the pool's tile reserve, which the surface's next writes draw
//! from. This binary
//! counts tile-sized heap allocations to show that after warm-up no
//! frame allocates pixel storage — for a sole surface, a game's full
//! redraws, a feed scrolling under the status bar, and the dots
//! wallpaper — and checks which tiles each compose shares and
//! recomposes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccdem_compositor::flinger::SurfaceFlinger;
use ccdem_compositor::surface::SurfaceId;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::SimTime;
use ccdem_workloads::wallpaper::{DotsConfig, DotsWallpaper};
use ccdem_workloads::{catalog, AppModel, ContentChange};

/// Bytes of one 64×64 tile's pixels, the smallest pixel allocation;
/// smaller allocations (frame statistics, surface labels, tile entries,
/// the reserve's stack) are not pixel storage.
const TILE_BYTES: usize = 64 * 64 * std::mem::size_of::<Pixel>();

/// Frames drawn before counting: the first frames fill the reserve.
const WARM_UP: u64 = 3;

thread_local! {
    static PIXEL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's pixel-sized allocations
/// (growing reallocations included).
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(size: usize) {
    if size >= TILE_BYTES {
        let _ = PIXEL_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

fn pixel_allocs() -> usize {
    PIXEL_ALLOCS.with(Cell::get)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs 100 frames of `draw` then submit and compose, calling `check`
/// after each compose, and returns the pixel allocations made after the
/// warm-up frames.
fn run_frames(
    sf: &mut SurfaceFlinger,
    id: SurfaceId,
    mut draw: impl FnMut(&mut SurfaceFlinger, u64),
    mut check: impl FnMut(&SurfaceFlinger, u64),
) -> usize {
    let mut before = pixel_allocs();
    for frame in 0..100u64 {
        if frame == WARM_UP {
            before = pixel_allocs();
        }
        draw(sf, frame);
        sf.submit(id, SimTime::from_millis(frame * 16), true)
            .unwrap();
        sf.compose(SimTime::from_millis(frame * 16 + 8));
        check(sf, frame);
    }
    pixel_allocs() - before
}

#[test]
fn sole_surface_trades_tile_allocations() {
    let mut sf = SurfaceFlinger::new(Resolution::new(64, 64));
    let id = sf.create_surface("app");
    let allocs = run_frames(
        &mut sf,
        id,
        |sf, frame| {
            let buffer = sf.surface_mut(id).unwrap().buffer_mut();
            buffer.fill(Pixel::grey(frame as u8));
            buffer.set_pixel(3, 3, Pixel::WHITE);
        },
        |sf, frame| {
            let fb = sf.framebuffer();
            assert_eq!(fb.tiles_shared_with(sf.surface(id).unwrap().buffer()), 1);
            assert_eq!(fb.pixel(5, 9), Pixel::grey(frame as u8));
            assert_eq!(fb.pixel(3, 3), Pixel::WHITE);
        },
    );
    assert_eq!(allocs, 0, "a frame allocated pixel storage");
}

#[test]
fn full_redraws_of_a_game_share_every_tile() {
    let mut sf = SurfaceFlinger::new(Resolution::GALAXY_S3);
    let id = sf.create_surface("game");
    let mut app = catalog::by_name("Jelly Splash")
        .expect("catalog game")
        .instantiate();
    let mut rng = SimRng::seed_from_u64(9);
    let allocs = run_frames(
        &mut sf,
        id,
        |sf, _| {
            let buffer = sf.surface_mut(id).unwrap().buffer_mut();
            app.render(ContentChange::FullRedraw, buffer, &mut rng);
        },
        |sf, frame| {
            let fb = sf.framebuffer();
            assert_eq!(fb.tiles_shared_with(sf.surface(id).unwrap().buffer()), 240);
            assert!(
                fb.solid_tile_count() >= 240 - 12,
                "frame {frame}: only {} of 240 tiles solid",
                fb.solid_tile_count()
            );
        },
    );
    assert_eq!(allocs, 0, "a frame allocated pixel storage");
}

#[test]
fn feed_scrolling_under_the_status_bar_shares_all_other_tiles() {
    let res = Resolution::GALAXY_S3;
    let mut sf = SurfaceFlinger::new(res);
    let id = sf.create_surface("Naver");
    let bar = sf.create_surface("status bar");
    {
        let s = sf.surface_mut(bar).unwrap();
        s.set_z_order(1);
        s.set_bounds(Rect::new(0, 0, res.width, res.height / 40));
    }
    let mut app = catalog::by_name("Naver")
        .expect("catalog app")
        .instantiate();
    let mut rng = SimRng::seed_from_u64(3);
    let allocs = run_frames(
        &mut sf,
        id,
        |sf, frame| {
            let buffer = sf.surface_mut(id).unwrap().buffer_mut();
            app.render(
                ContentChange::Scroll {
                    dy: 7 + frame as u32 % 50,
                },
                buffer,
                &mut rng,
            );
            if frame % 10 == 0 {
                let digits = Rect::new(90, 0, 120, res.height / 40);
                let clock = sf.surface_mut(bar).unwrap().buffer_mut();
                clock.fill_rect(digits, Pixel::grey(100 + frame as u8));
                sf.submit(bar, SimTime::from_millis(frame * 16), true)
                    .unwrap();
            }
        },
        |sf, frame| {
            let fb = sf.framebuffer();
            let app = sf.surface(id).unwrap().buffer();
            let shared = fb.tiles_shared_with(app);
            assert!(shared >= 228, "frame {frame}: {shared} of 240 tiles shared");
            assert_eq!(fb.pixel(300, 600), app.pixel(300, 600));
            assert_eq!(
                fb.pixel(95, 3),
                sf.surface(bar).unwrap().buffer().pixel(95, 3)
            );
        },
    );
    assert_eq!(allocs, 0, "a frame allocated pixel storage");
}

#[test]
fn dots_wallpaper_recomposes_only_stamped_tiles() {
    // The dots keep moving into tiles they never touched, which then
    // need storage: warm up with one whole session returned to a pool,
    // as every run after a worker's first one is.
    let res = Resolution::GALAXY_S3;
    let mut pool = PixelPool::new();
    for session in 0..2 {
        let mut sf = SurfaceFlinger::with_pool(res, pool);
        let id = sf.create_surface("wallpaper");
        let mut rng = SimRng::seed_from_u64(5);
        let mut wallpaper = DotsWallpaper::new(DotsConfig::default(), res, &mut rng);
        let since = Cell::new(0);
        let allocs = run_frames(
            &mut sf,
            id,
            |sf, _| {
                let buffer = sf.surface_mut(id).unwrap().buffer_mut();
                since.set(buffer.content_generation());
                wallpaper.render(ContentChange::Dots, buffer, &mut rng);
            },
            |sf, frame| {
                let fb = sf.framebuffer();
                let surface = sf.surface(id).unwrap().buffer().tiles();
                let mut recomposed = 0;
                for ty in 0..surface.rows() {
                    for tx in 0..surface.cols() {
                        let stamped = surface.tile(tx, ty).stamp > since.get();
                        let composed = fb.tiles().tile(tx, ty).stamp == fb.content_generation();
                        assert_eq!(composed, stamped, "frame {frame}: tile ({tx}, {ty})");
                        recomposed += usize::from(composed);
                    }
                }
                if frame > 0 {
                    assert!(
                        recomposed < 240 / 4,
                        "frame {frame}: {recomposed} tiles recomposed"
                    );
                }
            },
        );
        if session == 1 {
            assert_eq!(allocs, 0, "a frame allocated pixel storage");
        }
        pool = sf.into_pool();
    }
}
