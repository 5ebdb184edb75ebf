//! Generalization beyond the Galaxy S3 (paper §3.2's closing note).
//!
//! The paper observes that the section thresholds "should be redefined
//! when the available refresh rates are changed" — Eq. 1 does so
//! mechanically from the rate list. This experiment runs a representative
//! app slice on three devices with different rate ladders and shows the
//! scheme transfers: savings and quality hold without per-device tuning.

use std::fmt;

use ccdem_core::governor::{GovernorConfig, Policy};
use ccdem_metrics::table::TextTable;
use ccdem_panel::device::DeviceProfile;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_workloads::catalog;

use crate::campaign::{run_paired, GridConfig};
use crate::scenario::{scaled_budget, Scenario, Workload};

/// The grid's default root seed, shared by every (device, app) cell so
/// behaviour differs only by device and app.
pub const DEFAULT_SEED: u64 = 55;

/// One (device, app) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRun {
    /// Device name.
    pub device: String,
    /// Application name.
    pub app: String,
    /// Maximum rate of the device's ladder. (Hz)
    pub max_hz: u32,
    /// Power saved vs the device's fixed-max baseline. (mW)
    pub saved_mw: f64,
    /// Saved as a fraction of baseline. [%]
    pub saved_pct: f64,
    /// Display quality. [%]
    pub quality_pct: f64,
    /// Time-weighted mean applied refresh rate. (Hz)
    pub avg_refresh_hz: f64,
}

/// The generalization data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Generalize {
    /// One row per (device, app).
    pub runs: Vec<DeviceRun>,
}

/// The app slice: one idle-ish app, one mid-rate game, one heavy game.
fn app_slice() -> Vec<ccdem_workloads::phased::AppSpec> {
    ["Facebook", "Everypong", "Asphalt 8"]
        .iter()
        .filter_map(|n| catalog::by_name(n))
        .collect()
}

/// The three evaluated devices.
pub fn devices() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile::galaxy_s3(),
        DeviceProfile::ltpo_120(),
        DeviceProfile::tablet_90(),
    ]
}

/// Runs the grid: every (device, app) cell and its fixed-max baseline
/// twin in one parallel pass of the campaign runner. Devices run at
/// quarter-of-their-native resolution to keep the pixel work bounded;
/// temporal behaviour is unchanged.
pub fn run(config: &GridConfig) -> Generalize {
    let scenarios: Vec<Scenario> = devices()
        .into_iter()
        .flat_map(|device| {
            let native = device.resolution();
            let quarter = Resolution::new((native.width / 4).max(32), (native.height / 4).max(32));
            app_slice().into_iter().map(move |spec| {
                let mut scenario = Scenario::new(Workload::App(spec), Policy::SectionWithBoost);
                scenario.device = device.with_resolution(quarter);
                scenario.governor = GovernorConfig::new(Policy::SectionWithBoost)
                    .with_grid_budget(scaled_budget(quarter, 9_216));
                scenario
            })
        })
        .collect();
    let cells: Vec<(String, String, u32)> = scenarios
        .iter()
        .map(|s| {
            let device = &s.device;
            (
                device.name().to_string(),
                s.workload.name().to_string(),
                device.rates().max().hz(),
            )
        })
        .collect();
    let runs = cells
        .into_iter()
        .zip(run_paired(config, scenarios))
        .map(|((device, app, max_hz), (governed, baseline))| DeviceRun {
            device,
            app,
            max_hz,
            saved_mw: baseline.avg_power_mw - governed.avg_power_mw,
            saved_pct: (baseline.avg_power_mw - governed.avg_power_mw) / baseline.avg_power_mw
                * 100.0,
            quality_pct: governed.quality_pct(),
            avg_refresh_hz: governed.avg_refresh_hz,
        })
        .collect();
    Generalize { runs }
}

impl Generalize {
    /// Rows for one device.
    pub fn device(&self, name: &str) -> Vec<&DeviceRun> {
        self.runs.iter().filter(|r| r.device == name).collect()
    }
}

impl fmt::Display for Generalize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Generalization: section table + boost across rate ladders"
        )?;
        let mut t = TextTable::new([
            "device",
            "app",
            "avg refresh (Hz)",
            "saved (mW)",
            "saved (%)",
            "quality (%)",
        ]);
        for r in &self.runs {
            t.row([
                r.device.clone(),
                r.app.clone(),
                format!("{:.1} / {}", r.avg_refresh_hz, r.max_hz),
                format!("{:.0}", r.saved_mw),
                format!("{:.1}", r.saved_pct),
                format!("{:.1}", r.quality_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_simkit::time::SimDuration;

    fn quick() -> Generalize {
        run(&GridConfig {
            duration: SimDuration::from_secs(10),
            ..GridConfig::new(56)
        })
    }

    #[test]
    fn covers_three_devices_by_three_apps() {
        let g = quick();
        assert_eq!(g.runs.len(), 9);
        assert_eq!(g.device("Galaxy S3 LTE (SHV-E210S)").len(), 3);
    }

    #[test]
    fn every_device_saves_on_the_idle_app() {
        // Facebook (mostly idle) must save on every ladder.
        let g = quick();
        for r in g.runs.iter().filter(|r| r.app == "Facebook") {
            assert!(
                r.saved_mw > 0.0,
                "{}: Facebook saved {:.0} mW",
                r.device,
                r.saved_mw
            );
        }
    }

    #[test]
    fn quality_holds_on_every_ladder() {
        let g = quick();
        for r in &g.runs {
            assert!(
                r.quality_pct > 90.0,
                "{} / {}: quality {:.1}%",
                r.device,
                r.app,
                r.quality_pct
            );
        }
    }

    #[test]
    fn heavy_game_pins_near_device_maximum() {
        // Asphalt 8 (~45 fps content) exceeds every S3 threshold but
        // sits comfortably inside the LTPO/tablet ladders: on the S3 it
        // must run at the 60 Hz ceiling, on wider ladders below their
        // maxima.
        let g = quick();
        let s3 = g
            .runs
            .iter()
            .find(|r| r.app == "Asphalt 8" && r.device.contains("S3"))
            .unwrap();
        assert!(
            s3.avg_refresh_hz > 55.0,
            "S3 ran Asphalt 8 at {:.1} Hz",
            s3.avg_refresh_hz
        );
        let ltpo = g
            .runs
            .iter()
            .find(|r| r.app == "Asphalt 8" && r.device.contains("LTPO"))
            .unwrap();
        assert!(
            ltpo.avg_refresh_hz < f64::from(ltpo.max_hz) - 10.0,
            "LTPO pinned its {}-Hz ceiling ({:.1} Hz) for a 45-fps game",
            ltpo.max_hz,
            ltpo.avg_refresh_hz
        );
    }

    #[test]
    fn report_renders_all_rows() {
        let g = quick();
        let s = g.to_string();
        assert_eq!(s.matches("Facebook").count(), 3);
        assert!(s.contains("LTPO"));
    }
}
