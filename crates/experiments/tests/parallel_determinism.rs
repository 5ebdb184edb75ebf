//! A parallel sweep must reproduce a serial sweep exactly.
//!
//! The worker pool's determinism contract (seeds are a pure function of
//! `(root_seed, app_index)`, results collected in input order) means the
//! worker count can never leak into simulation results. These tests pin
//! that down end to end on the real 30-app sweep.

use ccdem_experiments::ablation::{self, Knob};
use ccdem_experiments::campaign::GridConfig;
use ccdem_experiments::generalize;
use ccdem_experiments::sweep::{self, SweepConfig};
use ccdem_obs::Obs;
use ccdem_simkit::time::SimDuration;

fn config(jobs: usize) -> SweepConfig {
    SweepConfig {
        duration: SimDuration::from_secs(8),
        seed: 1234,
        quarter_resolution: true,
        jobs,
        naive_metering: false,
    }
}

#[test]
fn four_workers_reproduce_the_serial_sweep_exactly() {
    let serial = sweep::run(&config(1));
    let parallel = sweep::run(&config(4));

    assert_eq!(serial.apps.len(), parallel.apps.len());
    for (s, p) in serial.apps.iter().zip(&parallel.apps) {
        assert_eq!(s.app, p.app, "app order must match input order");
        // Field-for-field equality of every run, all three policies.
        assert_eq!(s.baseline, p.baseline, "{}: baseline differs", s.app);
        assert_eq!(s.section, p.section, "{}: section differs", s.app);
        assert_eq!(s.boost, p.boost, "{}: boost differs", s.app);
        // And the headline numbers specifically, for a readable failure.
        assert_eq!(s.baseline.avg_power_mw, p.baseline.avg_power_mw);
        assert_eq!(s.section.quality_pct(), p.section.quality_pct());
        assert_eq!(s.boost.panel_refreshes, p.boost.panel_refreshes);
    }

    // Byte-identical reports: the rendered views, which serialize every
    // number that reaches the paper's figures, must match to the byte.
    assert_eq!(serial.fig9(), parallel.fig9());
    assert_eq!(serial.fig10(), parallel.fig10());
    assert_eq!(serial.fig11(), parallel.fig11());
    assert_eq!(serial.table1_text(), parallel.table1_text());
    // ...and so must the full debug serialization of the result set.
    assert_eq!(format!("{:?}", serial.apps), format!("{:?}", parallel.apps));
}

#[test]
fn worker_count_does_not_leak_into_results() {
    // Odd worker counts chunk the queue differently; results must not.
    let two = sweep::run(&config(2));
    let three = sweep::run(&config(3));
    assert_eq!(format!("{:?}", two.apps), format!("{:?}", three.apps));
}

#[test]
fn timing_report_covers_every_run() {
    let (sweep, timing) = sweep::run_timed(&config(0));
    assert_eq!(timing.runs.len(), sweep.apps.len() * 3);
    assert!(timing.total_wall > std::time::Duration::ZERO);
    assert!(timing.jobs >= 1);
    // Timing is measurement about the harness; it must not perturb the
    // simulated results.
    let again = sweep::run(&config(1));
    assert_eq!(format!("{:?}", sweep.apps), format!("{:?}", again.apps));
}

fn grid(jobs: usize) -> GridConfig {
    GridConfig {
        duration: SimDuration::from_secs(5),
        seed: 4321,
        jobs,
    }
}

#[test]
fn four_workers_reproduce_the_serial_ablations_exactly() {
    // Every point of all seven sweeps and its baseline twin share one
    // parallel pass; regrouping them must not depend on completion order.
    let serial = ablation::run(&grid(1), &Knob::ALL, &Obs::disabled());
    let parallel = ablation::run(&grid(4), &Knob::ALL, &Obs::disabled());
    assert_eq!(serial.len(), Knob::ALL.len());
    assert_eq!(serial, parallel, "worker count leaked into the ablations");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.to_string(), p.to_string(), "{}: report differs", s.name);
    }
}

#[test]
fn four_workers_reproduce_the_serial_generalization_grid_exactly() {
    let serial = generalize::run(&grid(1));
    let parallel = generalize::run(&grid(4));
    assert_eq!(serial.runs.len(), 9);
    assert_eq!(serial, parallel, "worker count leaked into the grid");
    assert_eq!(serial.to_string(), parallel.to_string());
}
