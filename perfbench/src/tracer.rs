//! Host-time tracing from outside the program.
//!
//! A [`Tracer`] is a stopwatch over a fixed set of layer spans. The
//! traced replica calls [`Tracer::enter`] right before each public layer
//! call and [`Tracer::leave`] when it steps outside every layer, so one
//! clock read closes the previous span and opens the next. Every span is
//! a leaf: its duration is its self time, and the time no span covers
//! is the `unattributed` residual.

use std::time::Instant;

use ccdem_obs::QuantileSketch;

/// The layer spans, named `<crate>.<layer>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `AppModel::tick`.
    Tick,
    /// `AppModel::render` and the status-bar clock draw.
    Render,
    /// `SurfaceFlinger::submit`.
    Submit,
    /// `SurfaceFlinger::compose`.
    Compose,
    /// `Governor::on_framebuffer_update_damaged` (the meter gather).
    Gather,
    /// `Governor::decide` and `Governor::on_touch`.
    Decide,
    /// `RefreshController::{poll, request}` and the V-Sync scheduler.
    Switch,
    /// `Panel::refresh`.
    Refresh,
    /// Activity window, `PowerCoefficients::power`, `PowerMeter::sample`.
    Power,
    /// `EventQueue::{pop, schedule}` and event dispatch.
    Queue,
    /// Scenario build and engine construction from the scratch pool.
    Setup,
    /// Result assembly and buffer recycling at the end of a run.
    Finish,
    /// `DeviceSpec::sample_from`.
    Sample,
    /// `CampaignStats::{observe_run, merge}`.
    Fold,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 14] = [
        Span::Tick,
        Span::Render,
        Span::Submit,
        Span::Compose,
        Span::Gather,
        Span::Decide,
        Span::Switch,
        Span::Refresh,
        Span::Power,
        Span::Queue,
        Span::Setup,
        Span::Finish,
        Span::Sample,
        Span::Fold,
    ];

    /// The span's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::Tick => "workloads.tick",
            Span::Render => "workloads.render",
            Span::Submit => "compositor.submit",
            Span::Compose => "compositor.compose",
            Span::Gather => "core.gather",
            Span::Decide => "core.decide",
            Span::Switch => "panel.switch",
            Span::Refresh => "panel.refresh",
            Span::Power => "power.sample",
            Span::Queue => "simkit.queue",
            Span::Setup => "experiments.setup",
            Span::Finish => "experiments.finish",
            Span::Sample => "fleet.sample",
            Span::Fold => "campaign.fold",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The nearest-rank `q`-quantile of `sketch` in nanoseconds, or `None`
/// unless at least ten samples lie beyond it.
pub fn quantile(sketch: &QuantileSketch, q: f64) -> Option<f64> {
    let count = sketch.count();
    let rank = ((q * count as f64).ceil() as u64).max(1);
    if count < rank + 10 {
        return None;
    }
    sketch.quantile(q).map(|ns| ns as f64)
}

/// Layer-side counts read at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// V-Sync edges processed.
    pub vsyncs: u64,
    /// Compositions that produced a frame.
    pub composes: u64,
    /// Sum over composes of damaged pixels / screen pixels.
    pub damage_share: f64,
    /// Framebuffer pixels the meter read.
    pub points_read: u64,
    /// Frames the meter classified with zero pixel reads.
    pub fast_path_frames: u64,
    /// Tile signatures the meter checked.
    pub tiles_checked: u64,
    /// Checked tiles that forced a descent.
    pub tiles_descended: u64,
    /// Events popped from the queue.
    pub events: u64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.vsyncs += o.vsyncs;
        self.composes += o.composes;
        self.damage_share += o.damage_share;
        self.points_read += o.points_read;
        self.fast_path_frames += o.fast_path_frames;
        self.tiles_checked += o.tiles_checked;
        self.tiles_descended += o.tiles_descended;
        self.events += o.events;
    }
}

/// Per-thread span stopwatch plus layer counts.
#[derive(Debug, Clone)]
pub struct Tracer {
    current: Option<Span>,
    since: Instant,
    self_ns: [u64; 14],
    hist: Vec<QuantileSketch>,
    /// Layer counts.
    pub counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            current: None,
            since: Instant::now(),
            self_ns: [0; 14],
            hist: vec![QuantileSketch::new(); Span::ALL.len()],
            counts: Counts::default(),
        }
    }
}

impl Tracer {
    /// Closes the open span (if any) and opens `span`. Entering the span
    /// that is already open continues the same call.
    #[inline]
    pub fn enter(&mut self, span: Span) {
        if self.current == Some(span) {
            return;
        }
        let now = Instant::now();
        self.close(now);
        self.current = Some(span);
        self.since = now;
    }

    /// Closes the open span (if any); time until the next `enter` is
    /// unattributed.
    #[inline]
    pub fn leave(&mut self) {
        if self.current.is_some() {
            let now = Instant::now();
            self.close(now);
            self.current = None;
        }
    }

    #[inline]
    fn close(&mut self, now: Instant) {
        if let Some(span) = self.current {
            let ns = now.duration_since(self.since).as_nanos() as u64;
            self.self_ns[span.index()] += ns;
            self.hist[span.index()].record(ns);
        }
    }

    /// Adds `other`'s spans and counts into `self`.
    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.self_ns.iter_mut().zip(&other.self_ns) {
            *a += b;
        }
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            a.merge(b);
        }
        self.counts.merge(&other.counts);
    }

    /// Merges `self` into `dst` and zeroes `self`, keeping its storage.
    pub fn drain_into(&mut self, dst: &mut Tracer) {
        self.leave();
        dst.merge(self);
        self.self_ns = [0; 14];
        self.hist.fill(QuantileSketch::new());
        self.counts = Counts::default();
    }

    /// Self time of `span`, in nanoseconds.
    pub fn self_ns(&self, span: Span) -> u64 {
        self.self_ns[span.index()]
    }

    /// Total self time over every span, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// The per-call durations of `span`, in nanoseconds.
    pub fn durations(&self, span: Span) -> &QuantileSketch {
        &self.hist[span.index()]
    }
}
