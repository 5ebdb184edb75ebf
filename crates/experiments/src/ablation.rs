//! Ablations of the design choices called out in DESIGN.md.
//!
//! The paper fixes several knobs without exploring them; these sweeps
//! quantify each one on a representative interactive workload:
//!
//! * **control window** — shorter windows react faster (quality) but
//!   switch more and measure noisier content rates;
//! * **grid budget** — fewer compared pixels cost less but underestimate
//!   the content rate, dragging the refresh rate (and quality) down;
//! * **boost hold** — longer holds protect quality after a touch at the
//!   cost of extra 60 Hz time;
//! * **mapper rule** — the paper's Eq. 1 section table vs the rejected
//!   naive rate-matching rule.

use std::fmt;

use ccdem_core::governor::{GovernorConfig, Policy};
use ccdem_metrics::table::TextTable;
use ccdem_obs::Obs;
use ccdem_power::model::PowerCoefficients;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::catalog;

use crate::campaign::{run_paired, CampaignStats, GridConfig};
use crate::scenario::{Scenario, Workload};

/// The ablations' default root seed. Every point of every sweep replays
/// the same seeded script, so points differ only in the knob under study.
pub const DEFAULT_SEED: u64 = 77;

/// One configuration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Human-readable configuration label.
    pub label: String,
    /// Power saved vs the fixed-60 Hz baseline. (mW)
    pub saved_mw: f64,
    /// Display quality. [%]
    pub quality_pct: f64,
    /// Dropped content frames per second.
    pub dropped_fps: f64,
    /// Applied refresh-rate switches over the run.
    pub switches: u64,
}

/// A named sweep of configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// What was swept.
    pub name: String,
    /// One point per configuration, in sweep order.
    pub points: Vec<AblationPoint>,
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: {}", self.name)?;
        let mut t = TextTable::new([
            "configuration",
            "saved (mW)",
            "quality (%)",
            "dropped (fps)",
            "switches",
        ]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                format!("{:.0}", p.saved_mw),
                format!("{:.1}", p.quality_pct),
                format!("{:.2}", p.dropped_fps),
                format!("{}", p.switches),
            ]);
        }
        write!(f, "{t}")
    }
}

/// The design knobs the ablations sweep, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Control-window length (paper default: 500 ms).
    ControlWindow,
    /// Grid pixel budget (paper default: 9K of 921K pixels).
    GridBudget,
    /// Touch-boost hold time (default: 400 ms).
    BoostHold,
    /// Rate-mapping rule: paper Eq. 1 vs the rejected naive matcher.
    MapperRule,
    /// EWMA content-rate smoothing weight (extension; 1.0 = the paper's
    /// unsmoothed behaviour).
    Smoothing,
    /// Down-switch dwell count (extension; 1 = the paper's undamped
    /// behaviour).
    DownDwell,
    /// Panel-self-refresh discount of the power model (extension): the
    /// more link traffic a PSR panel already skips for unchanged frames,
    /// the less the refresh-rate governor has left to save — quantifying
    /// how the paper's 2012-era gains shrink on modern command-mode
    /// panels.
    Psr,
}

impl Knob {
    /// Every knob, in report order.
    pub const ALL: [Knob; 7] = [
        Knob::ControlWindow,
        Knob::GridBudget,
        Knob::BoostHold,
        Knob::MapperRule,
        Knob::Smoothing,
        Knob::DownDwell,
        Knob::Psr,
    ];

    /// What the sweep varies, as its report title.
    fn name(self) -> &'static str {
        match self {
            Knob::ControlWindow => "control window length",
            Knob::GridBudget => "grid comparison pixel budget",
            Knob::BoostHold => "touch boost hold time",
            Knob::MapperRule => "rate-mapping rule",
            Knob::Smoothing => "content-rate EWMA smoothing",
            Knob::DownDwell => "down-switch hysteresis dwell",
            Knob::Psr => "panel self-refresh interaction",
        }
    }

    /// The sweep's `(label, scenario)` points at quarter resolution, in
    /// sweep order. Duration and seed come from the [`GridConfig`].
    fn points(self) -> Vec<(String, Scenario)> {
        let boost = || GovernorConfig::new(Policy::SectionWithBoost);
        // Every governor knob runs on Jelly Splash, the representative
        // interactive workload.
        let knob = |label: String, governor: GovernorConfig| {
            let mut scenario =
                Scenario::new(Workload::App(catalog::jelly_splash()), governor.policy());
            scenario.governor = governor;
            (label, scenario.at_quarter_resolution())
        };
        match self {
            Knob::ControlWindow => [125u64, 250, 500, 1_000, 2_000]
                .map(|ms| {
                    knob(
                        format!("{ms} ms window"),
                        boost().with_control_window(SimDuration::from_millis(ms)),
                    )
                })
                .into(),
            Knob::GridBudget => [2_304usize, 4_080, 9_216, 36_864, 921_600]
                .map(|budget| {
                    knob(
                        format!("{budget} px grid"),
                        boost().with_grid_budget(budget),
                    )
                })
                .into(),
            Knob::BoostHold => [0u64, 200, 400, 800, 1_600, 3_200]
                .map(|ms| {
                    knob(
                        format!("{ms} ms hold"),
                        boost().with_boost_hold(SimDuration::from_millis(ms)),
                    )
                })
                .into(),
            Knob::MapperRule => [
                (Policy::NaiveMatch, "naive rate matching"),
                (Policy::SectionOnly, "section table (Eq. 1)"),
                (Policy::SectionWithBoost, "section table + boost"),
            ]
            .map(|(policy, label)| knob(label.to_string(), GovernorConfig::new(policy)))
            .into(),
            Knob::Smoothing => [1.0f64, 0.7, 0.5, 0.3, 0.15]
                .map(|alpha| {
                    knob(
                        format!("alpha {alpha}"),
                        boost().with_smoothing_alpha(alpha),
                    )
                })
                .into(),
            Knob::DownDwell => [1u32, 2, 3, 5]
                .map(|dwell| knob(format!("dwell {dwell}"), boost().with_down_dwell(dwell)))
                .into(),
            // Facebook, not Jelly Splash: PSR only helps on refresh
            // cycles with no new framebuffer write, so a 60 fps-submitting
            // game (every cycle receives a frame, however redundant) is
            // unaffected — the idle app whose panel mostly self-refreshes
            // is where the interaction lives.
            Knob::Psr => [0.0f64, 0.25, 0.5, 0.75, 1.0]
                .map(|discount| {
                    let mut scenario =
                        Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost);
                    scenario.power = PowerCoefficients::galaxy_s3().with_psr_discount(discount);
                    (
                        format!("PSR discount {discount}"),
                        scenario.at_quarter_resolution(),
                    )
                })
                .into(),
        }
    }
}

/// Runs the sweeps of `knobs`, in order: every point of every sweep and
/// its fixed-max baseline twin go through one parallel pass of the
/// campaign runner, and the results are identical for any worker count.
///
/// After the pass, each point emits one `ablation.point` telemetry event
/// on `obs` (sim-time zero: points summarise whole runs rather than
/// moments inside one), folds into a [`CampaignStats`] and emits a
/// `campaign.progress` line (running count plus headline percentiles —
/// `saved_p50_mw` rather than the power percentiles a sweep campaign
/// reports; no `total` field), in input order; one `campaign.end`
/// follows the last point. Telemetry never feeds back into the runs, so
/// the returned ablations are identical whether `obs` is enabled or not.
pub fn run(config: &GridConfig, knobs: &[Knob], obs: &Obs) -> Vec<Ablation> {
    let mut labels = Vec::with_capacity(knobs.len());
    let mut scenarios = Vec::new();
    for knob in knobs {
        let (names, points): (Vec<String>, Vec<Scenario>) = knob.points().into_iter().unzip();
        labels.push(names);
        scenarios.extend(points);
    }
    let mut pairs = run_paired(config, scenarios).into_iter();
    let mut campaign = CampaignStats::new();
    let mut ablations = Vec::with_capacity(knobs.len());
    for (knob, names) in knobs.iter().zip(labels) {
        let mut ablation = Ablation {
            name: knob.name().into(),
            points: Vec::with_capacity(names.len()),
        };
        for (label, (governed, baseline)) in names.into_iter().zip(&mut pairs) {
            let point = AblationPoint {
                label,
                saved_mw: baseline.avg_power_mw - governed.avg_power_mw,
                quality_pct: governed.quality_pct(),
                dropped_fps: governed.dropped_fps(),
                switches: governed.refresh_switches,
            };
            obs.emit("ablation.point", SimTime::ZERO, |event| {
                event
                    .field("sweep", ablation.name.clone())
                    .field("label", point.label.clone())
                    .field("saved_mw", point.saved_mw)
                    .field("quality_pct", point.quality_pct)
                    .field("dropped_fps", point.dropped_fps)
                    .field("switches", point.switches);
            });
            campaign.observe_point(&point);
            campaign.emit_progress(obs, 0);
            ablation.points.push(point);
        }
        ablations.push(ablation);
    }
    campaign.emit_end(obs);
    ablations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sweep of the table, run alone.
    fn sweep(knob: Knob) -> Ablation {
        let config = GridConfig {
            duration: SimDuration::from_secs(10),
            ..GridConfig::new(31)
        };
        let mut ablations = run(&config, &[knob], &Obs::disabled());
        assert_eq!(ablations.len(), 1);
        ablations.remove(0)
    }

    #[test]
    fn window_sweep_runs_all_points() {
        let a = sweep(Knob::ControlWindow);
        assert_eq!(a.points.len(), 5);
        for p in &a.points {
            assert!(p.saved_mw > 0.0, "{}: saved {:.0} mW", p.label, p.saved_mw);
        }
    }

    #[test]
    fn longer_windows_switch_less() {
        let a = sweep(Knob::ControlWindow);
        let first = a.points.first().unwrap().switches;
        let last = a.points.last().unwrap().switches;
        assert!(
            last <= first,
            "2 s window switched {last}× vs {first}× at 125 ms"
        );
    }

    #[test]
    fn budget_sweep_keeps_quality_high_at_9k() {
        let a = sweep(Knob::GridBudget);
        let p9k = &a.points[2];
        assert!(p9k.quality_pct > 90.0, "9K grid quality {:.1}%", p9k.quality_pct);
    }

    #[test]
    fn zero_hold_drops_most_frames() {
        let a = sweep(Knob::BoostHold);
        let zero = a.points.first().unwrap();
        let long = a.points.last().unwrap();
        assert!(
            zero.dropped_fps >= long.dropped_fps,
            "0 ms hold dropped {:.2} fps < {:.2} at 3.2 s",
            zero.dropped_fps,
            long.dropped_fps
        );
        // And longer holds cost savings.
        assert!(zero.saved_mw >= long.saved_mw - 1.0);
    }

    #[test]
    fn mapper_compare_orders_policies() {
        let a = sweep(Knob::MapperRule);
        let naive = &a.points[0];
        let boost = &a.points[2];
        assert!(boost.quality_pct >= naive.quality_pct);
        assert!(naive.saved_mw >= boost.saved_mw - 1.0);
    }

    #[test]
    fn smoothing_reduces_switches() {
        let a = sweep(Knob::Smoothing);
        let raw = a.points.first().unwrap();
        let smooth = a.points.last().unwrap();
        assert!(
            smooth.switches <= raw.switches,
            "alpha 0.15 switched {}× vs {}× unsmoothed",
            smooth.switches,
            raw.switches
        );
    }

    #[test]
    fn dwell_reduces_switches_and_costs_savings() {
        let a = sweep(Knob::DownDwell);
        let undamped = a.points.first().unwrap();
        let damped = a.points.last().unwrap();
        assert!(damped.switches <= undamped.switches);
        assert!(damped.saved_mw <= undamped.saved_mw + 1.0);
        assert!(damped.quality_pct >= undamped.quality_pct - 2.0);
    }

    #[test]
    fn psr_shrinks_but_keeps_savings() {
        let a = sweep(Knob::Psr);
        let no_psr = a.points.first().unwrap();
        let full_psr = a.points.last().unwrap();
        assert!(
            full_psr.saved_mw < no_psr.saved_mw,
            "PSR 1.0 saved {:.0} mW ≥ no-PSR {:.0} mW",
            full_psr.saved_mw,
            no_psr.saved_mw
        );
        // Composition savings remain even on an ideal PSR panel.
        assert!(full_psr.saved_mw > 0.0);
    }

    #[test]
    fn each_point_emits_its_event_and_progress_line_in_order() {
        use ccdem_obs::{RingSink, Value};
        use std::sync::Arc;

        let sink = Arc::new(RingSink::new(64));
        let config = GridConfig {
            duration: SimDuration::from_secs(2),
            ..GridConfig::new(31)
        };
        let ablations = run(
            &config,
            &[Knob::MapperRule, Knob::DownDwell],
            &Obs::to_sink(sink.clone()),
        );
        let names: Vec<&str> = sink.events().iter().map(|e| e.name).collect();
        let point_then_progress = ["ablation.point", "campaign.progress"];
        let expected: Vec<&str> = std::iter::repeat_n(point_then_progress, 3 + 4)
            .flatten()
            .chain(["campaign.end"])
            .collect();
        assert_eq!(names, expected);
        let labels: Vec<Value> = sink
            .events()
            .iter()
            .filter_map(|e| e.get("label").cloned())
            .collect();
        let points = ablations.iter().flat_map(|a| &a.points);
        let in_order: Vec<Value> = points.map(|p| Value::from(p.label.clone())).collect();
        assert_eq!(labels, in_order);
    }

    #[test]
    fn reports_render() {
        let a = sweep(Knob::MapperRule);
        let s = a.to_string();
        assert!(s.contains("naive rate matching"));
        assert!(s.contains("quality"));
    }
}
