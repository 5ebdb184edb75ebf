//! The traced replica: the scenario engine's event loop, rebuilt from the
//! layers' public calls in the same order, with a span around each call.
//!
//! `run` must return a `RunResult` identical to `Scenario::run` for the
//! same scenario; every traced workload checks that it does, so the
//! per-layer numbers always describe the program under test.

use ccdem_compositor::flinger::{ComposeOutcome, SurfaceFlinger};
use ccdem_compositor::surface::SurfaceId;
use ccdem_core::governor::Governor;
use ccdem_experiments::scenario::{RunResult, Scenario, Workload};
use ccdem_obs::Obs;
use ccdem_panel::controller::RefreshController;
use ccdem_panel::panel::Panel;
use ccdem_panel::vsync::VsyncScheduler;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_power::meter::PowerMeter;
use ccdem_power::model::DisplayActivity;
use ccdem_simkit::event::EventQueue;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::app::{AppModel, InputContext};
use ccdem_workloads::input::MonkeyScript;
use ccdem_workloads::scrolling::FlingReader;
use ccdem_workloads::switcher::AppSwitcher;
use ccdem_workloads::trace::TraceApp;
use ccdem_workloads::video::VideoApp;
use ccdem_workloads::wallpaper::DotsWallpaper;

use crate::tracer::{Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    AppFrame,
    Vsync,
    ControlTick,
    Touch,
    PowerSample,
    StatusBarTick,
}

const POWER_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(100);
const ACTIVITY_WINDOW: SimDuration = SimDuration::from_secs(1);
const TOUCH_ACTIVE_WINDOW: SimDuration = SimDuration::from_millis(300);

fn instantiate(workload: &Workload, resolution: Resolution, rng: &mut SimRng) -> Box<dyn AppModel> {
    match workload {
        Workload::App(spec) => Box::new(spec.instantiate()),
        Workload::Wallpaper(cfg) => Box::new(DotsWallpaper::new(*cfg, resolution, rng)),
        Workload::Video(cfg) => Box::new(VideoApp::new(*cfg)),
        Workload::Fling(cfg) => Box::new(FlingReader::new(*cfg)),
        Workload::Mixed { apps, segment } => Box::new(AppSwitcher::new(
            apps.iter()
                .map(|a| Box::new(a.instantiate()) as Box<dyn AppModel>)
                .collect(),
            *segment,
        )),
        Workload::Trace(trace) => Box::new(TraceApp::new(trace.clone())),
    }
}

struct Engine<'a, 't> {
    scenario: &'a Scenario,
    tr: &'t mut Tracer,
    end: SimTime,
    queue: EventQueue<Event>,
    app: Box<dyn AppModel>,
    app_rng: SimRng,
    meter_rng: SimRng,
    flinger: SurfaceFlinger,
    surface: SurfaceId,
    status_bar: Option<SurfaceId>,
    status_ticks: u64,
    governor: Governor,
    controller: RefreshController,
    vsync: VsyncScheduler,
    panel: Panel,
    power_meter: PowerMeter,
    input: InputContext,
    script: MonkeyScript,
    obs: Obs,
    screen_pixels: f64,
}

/// Runs `scenario` on the traced replica, recycling buffers through `pool`.
pub fn run(scenario: &Scenario, pool: &mut PixelPool, tr: &mut Tracer) -> RunResult {
    tr.enter(Span::Setup);
    let engine = Engine::new(scenario, pool, tr);
    engine.run(pool)
}

impl<'a, 't> Engine<'a, 't> {
    fn new(scenario: &'a Scenario, scratch: &mut PixelPool, tr: &'t mut Tracer) -> Engine<'a, 't> {
        let device = &scenario.device;
        let resolution = device.resolution();
        let root = SimRng::seed_from_u64(scenario.seed);
        let mut app_rng = root.fork(1);
        let mut script_rng = root.fork(2);
        let meter_rng = root.fork(3);

        let mut pool = std::mem::take(scratch);
        let mut governor = Governor::with_scratch(
            device.rates().clone(),
            resolution,
            scenario.governor,
            &mut pool,
        );
        let mut flinger = SurfaceFlinger::with_pool(resolution, pool);
        flinger.set_naive_compose(scenario.governor.naive_metering());
        let app = instantiate(&scenario.workload, resolution, &mut app_rng);
        let surface = flinger.create_surface(app.name().to_string());
        let status_bar = scenario.status_bar.then(|| {
            let id = flinger.create_surface("status bar");
            let bar = flinger.surface_mut(id).expect("just created");
            bar.set_z_order(1);
            bar.set_bounds(Rect::new(
                0,
                0,
                resolution.width,
                (resolution.height / 40).max(1),
            ));
            id
        });

        governor.attach_obs(scenario.obs.clone());
        let mut controller = RefreshController::new(
            device.rates().clone(),
            device.rates().max(),
            device.rate_switch_latency(),
        );
        controller.attach_obs(scenario.obs.clone());
        let vsync = VsyncScheduler::new(controller.current(), SimTime::ZERO);
        let mut panel = Panel::new(device.clone());
        panel.attach_obs(scenario.obs.clone());
        let power_meter = PowerMeter::new(POWER_SAMPLE_INTERVAL, scenario.meter_noise_mw.max(0.0));
        let script = MonkeyScript::generate(&scenario.monkey, scenario.duration, &mut script_rng);

        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Event::AppFrame);
        queue.schedule(vsync.next_edge(), Event::Vsync);
        queue.schedule(
            SimTime::ZERO + scenario.governor.control_window(),
            Event::ControlTick,
        );
        queue.schedule(SimTime::ZERO, Event::PowerSample);
        if status_bar.is_some() {
            queue.schedule(SimTime::from_secs(1), Event::StatusBarTick);
        }
        for t in script.times() {
            queue.schedule(t, Event::Touch);
        }

        Engine {
            scenario,
            tr,
            end: SimTime::ZERO + scenario.duration,
            queue,
            app,
            app_rng,
            meter_rng,
            flinger,
            surface,
            status_bar,
            status_ticks: 0,
            governor,
            controller,
            vsync,
            panel,
            power_meter,
            input: InputContext::default(),
            script,
            obs: scenario.obs.clone(),
            screen_pixels: resolution.pixel_count() as f64,
        }
    }

    fn run(mut self, scratch: &mut PixelPool) -> RunResult {
        let app_name = self.app.name().to_string();
        self.obs.emit("run.start", SimTime::ZERO, |event| {
            event
                .field("app", app_name.clone())
                .field("policy", format!("{:?}", self.scenario.governor.policy()))
                .field("seed", self.scenario.seed)
                .field("duration_s", self.scenario.duration.as_secs_f64());
        });
        loop {
            self.tr.enter(Span::Queue);
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            if now >= self.end {
                break;
            }
            self.tr.counts.events += 1;
            match event {
                Event::AppFrame => self.on_app_frame(now),
                Event::Vsync => self.on_vsync(),
                Event::ControlTick => self.on_control_tick(now),
                Event::Touch => self.on_touch(now),
                Event::PowerSample => self.on_power_sample(now),
                Event::StatusBarTick => self.on_status_bar_tick(now),
            }
        }
        self.tr.enter(Span::Finish);
        self.finish(scratch)
    }

    fn on_app_frame(&mut self, now: SimTime) {
        self.tr.enter(Span::Tick);
        let tick = self.app.tick(now, &self.input, &mut self.app_rng);
        if tick.change.is_content() {
            self.tr.enter(Span::Render);
            let surface = self
                .flinger
                .surface_mut(self.surface)
                .expect("engine-created surface");
            self.app
                .render(tick.change, surface.buffer_mut(), &mut self.app_rng);
        }
        self.tr.enter(Span::Submit);
        self.flinger
            .submit(self.surface, now, tick.change.is_content())
            .expect("engine-created surface");
        self.tr.enter(Span::Queue);
        self.queue.schedule(now + tick.next_in, Event::AppFrame);
    }

    fn on_vsync(&mut self) {
        self.tr.enter(Span::Switch);
        let edge = self.vsync.advance();
        if let Some(rate) = self.controller.poll(edge) {
            self.vsync.set_rate(rate);
        }
        self.tr.enter(Span::Compose);
        let outcome = self.flinger.compose(edge);
        self.tr.counts.vsyncs += 1;
        if let ComposeOutcome::Composed { damage, .. } = outcome {
            self.tr.counts.composes += 1;
            self.tr.counts.damage_share += damage.area() as f64 / self.screen_pixels;
            let generation = self.flinger.framebuffer().generation();
            self.obs.emit("framebuffer.update", edge, |event| {
                event.field("generation", generation);
            });
            self.tr.enter(Span::Gather);
            self.governor
                .on_framebuffer_update_damaged(self.flinger.framebuffer(), &damage, edge);
        }
        self.tr.enter(Span::Refresh);
        self.panel
            .refresh(edge, self.flinger.framebuffer().generation());
        self.tr.enter(Span::Queue);
        self.queue.schedule(self.vsync.next_edge(), Event::Vsync);
    }

    fn on_control_tick(&mut self, now: SimTime) {
        self.tr.enter(Span::Decide);
        let rate = self.governor.decide(now);
        self.tr.enter(Span::Switch);
        self.controller
            .request(rate, now)
            .expect("governor only emits supported rates");
        self.tr.enter(Span::Queue);
        self.queue.schedule(
            now + self.scenario.governor.control_window(),
            Event::ControlTick,
        );
    }

    fn on_touch(&mut self, now: SimTime) {
        self.obs.emit("input.touch", now, |_| {});
        self.input.last_touch = Some(now);
        self.tr.enter(Span::Decide);
        if let Some(rate) = self.governor.on_touch(now) {
            self.tr.enter(Span::Switch);
            self.controller
                .request(rate, now)
                .expect("governor only emits supported rates");
        }
    }

    fn on_status_bar_tick(&mut self, now: SimTime) {
        let Some(id) = self.status_bar else { return };
        self.tr.enter(Span::Render);
        self.status_ticks += 1;
        let tick = self.status_ticks;
        let bar = self
            .flinger
            .surface_mut(id)
            .expect("engine-created surface");
        let bounds = bar.bounds();
        let digits = Rect::new(
            bounds.width / 8,
            bounds.y,
            (bounds.width / 6).max(1),
            bounds.height,
        );
        bar.buffer_mut()
            .fill_rect(digits, Pixel::grey(100 + (tick % 100) as u8));
        self.tr.enter(Span::Submit);
        self.flinger
            .submit(id, now, true)
            .expect("engine-created surface");
        self.tr.enter(Span::Queue);
        self.queue
            .schedule(now + SimDuration::from_secs(1), Event::StatusBarTick);
    }

    fn on_power_sample(&mut self, now: SimTime) {
        self.tr.enter(Span::Power);
        let window_start = if now.as_micros() >= ACTIVITY_WINDOW.as_micros() {
            now - ACTIVITY_WINDOW
        } else {
            SimTime::ZERO
        };
        let composed_fps = self.flinger.stats().composed().rate_in(window_start, now);
        let activity = DisplayActivity {
            refresh_hz: self.controller.current().hz_f64(),
            composed_fps,
            touch_active: self.input.touched_within(now, TOUCH_ACTIVE_WINDOW),
            mean_luminance: self.governor.meter().mean_sampled_luminance(),
            content_scanout_fps: Some(self.panel.content_scanouts().rate_in(window_start, now)),
        };
        let power = self.scenario.power.power(&activity);
        self.power_meter.sample(now, power, &mut self.meter_rng);
        self.tr.enter(Span::Queue);
        self.queue
            .schedule(now + POWER_SAMPLE_INTERVAL, Event::PowerSample);
    }

    fn finish(self, scratch: &mut PixelPool) -> RunResult {
        let duration = self.scenario.duration;
        let end = self.end;
        let stats = self.flinger.stats();
        let secs = duration.as_secs_f64();

        let actual_fps = stats.content_submissions().count() as f64 / secs;
        let displayed_fps = stats.content_composed().count() as f64 / secs;
        let measured_fps = self.governor.meter().meaningful_frames().count() as f64 / secs;

        let touch_times: Vec<SimTime> = self.script.times().collect();
        let scanouts: Vec<SimTime> = self.panel.content_scanouts().iter().collect();
        let touch_latencies = ccdem_metrics::latency::input_to_photon(&touch_times, &scanouts);

        let avg_power_mw = self.power_meter.average_power(SimTime::ZERO, end).value();
        let avg_refresh_hz = self
            .controller
            .history()
            .time_weighted_mean(SimTime::ZERO, end);
        let refresh_switches = self.controller.switches();
        let quality_pct = ccdem_metrics::quality::display_quality_pct(displayed_fps, actual_fps);
        self.obs.emit("run.end", end, |event| {
            event
                .field("avg_power_mw", avg_power_mw)
                .field("avg_refresh_hz", avg_refresh_hz)
                .field("refresh_switches", refresh_switches)
                .field("quality_pct", quality_pct);
        });

        let result = RunResult {
            app_name: self.app.name().to_string(),
            app_class: self.app.class(),
            policy: self.scenario.governor.policy(),
            duration,
            avg_power_mw,
            power_per_second: self.power_meter.per_second(duration),
            refresh_trace: self.controller.history().clone(),
            refresh_switches,
            avg_refresh_hz,
            submissions_per_second: stats.submissions().per_second(duration),
            frame_rate_per_second: stats.composed().per_second(duration),
            actual_content_per_second: stats.content_submissions().per_second(duration),
            displayed_content_per_second: stats.content_composed().per_second(duration),
            measured_content_per_second: self
                .governor
                .meter()
                .meaningful_frames()
                .per_second(duration),
            touch_times,
            touch_latencies,
            actual_content_fps: actual_fps,
            displayed_content_fps: displayed_fps,
            measured_content_fps: measured_fps,
            panel_refreshes: self.panel.refresh_count(),
        };

        let meter = self.governor.meter();
        let (points_read, fast_path, checked, descended) = (
            meter.points_read(),
            meter.fast_path_frames(),
            meter.tiles_checked(),
            meter.tiles_descended(),
        );
        let mut pool = self.flinger.into_pool();
        self.governor.recycle(&mut pool);
        *scratch = pool;

        self.tr.leave();
        let counts = &mut self.tr.counts;
        counts.points_read += points_read;
        counts.fast_path_frames += fast_path;
        counts.tiles_checked += checked;
        counts.tiles_descended += descended;
        result
    }
}
