//! Steady-state storage of the direct-scanout compose path.
//!
//! A sole opaque full-screen surface lends its storage to the
//! framebuffer on every compose, and the surface's next redraw detaches
//! into the storage the framebuffer gave up. This binary counts
//! pixel-sized heap allocations to show that the two allocations trade
//! places forever and no frame allocates a third — also when the redraw
//! is an app's full-screen fill with sprites, which records pending
//! tiles and materializes only the few the sprites touch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use ccdem_compositor::flinger::SurfaceFlinger;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::SimTime;
use ccdem_workloads::{catalog, AppModel, ContentChange};

const RESOLUTION: Resolution = Resolution::new(64, 64);

/// Bytes of one 64×64 framebuffer's pixels, the smallest buffer here;
/// smaller allocations (frame statistics, surface labels, tile flags)
/// are not pixel storage.
const PIXEL_BYTES: usize = 64 * 64 * std::mem::size_of::<Pixel>();

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
    if size >= PIXEL_BYTES {
        let _ = PIXEL_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

fn pixel_allocs() -> usize {
    PIXEL_ALLOCS.with(Cell::get)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn sole_surface_ping_pongs_two_allocations() {
    let mut sf = SurfaceFlinger::new(RESOLUTION);
    let id = sf.create_surface("app");
    let before = pixel_allocs();
    let mut seen = BTreeSet::new();
    for frame in 0..100u64 {
        sf.surface_mut(id)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::grey(frame as u8));
        sf.submit(id, SimTime::from_millis(frame * 16), true)
            .unwrap();
        sf.compose(SimTime::from_millis(frame * 16 + 8));

        let fb = sf.framebuffer();
        let surface = sf.surface(id).unwrap().buffer();
        assert_eq!(fb.storage_id(), surface.storage_id());
        assert_eq!(fb.pixel(5, 9), Pixel::grey(frame as u8));
        seen.insert(fb.storage_id());
    }
    assert_eq!(
        pixel_allocs() - before,
        0,
        "a frame allocated pixel storage"
    );
    assert_eq!(seen.len(), 2, "framebuffer storage must ping-pong");
}

#[test]
fn full_redraws_of_a_game_ping_pong_two_allocations() {
    let mut sf = SurfaceFlinger::new(Resolution::GALAXY_S3);
    let id = sf.create_surface("game");
    let mut app = catalog::by_name("Jelly Splash")
        .expect("catalog game")
        .instantiate();
    let mut rng = SimRng::seed_from_u64(9);
    let before = pixel_allocs();
    let mut seen = BTreeSet::new();
    for frame in 0..100u64 {
        let buffer = sf.surface_mut(id).unwrap().buffer_mut();
        app.render(ContentChange::FullRedraw, buffer, &mut rng);
        sf.submit(id, SimTime::from_millis(frame * 16), true)
            .unwrap();
        sf.compose(SimTime::from_millis(frame * 16 + 8));

        let fb = sf.framebuffer();
        assert_eq!(
            fb.storage_id(),
            sf.surface(id).unwrap().buffer().storage_id()
        );
        assert!(
            fb.pending_tile_count() >= 240 - 12,
            "frame {frame}: only {} of 240 tiles pending",
            fb.pending_tile_count()
        );
        seen.insert(fb.storage_id());
    }
    assert_eq!(
        pixel_allocs() - before,
        0,
        "a frame allocated pixel storage"
    );
    assert_eq!(seen.len(), 2, "framebuffer storage must ping-pong");
}
