//! Seed robustness: the evaluation's qualitative conclusions must not
//! depend on one lucky seed.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::app::AppClass;
use ccdem::workloads::catalog;

/// A small, class-balanced app sample.
fn sample() -> Vec<ccdem::workloads::phased::AppSpec> {
    ["Facebook", "Cash Slide", "MX Player", "Jelly Splash", "Everypong", "Watermargin"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog app"))
        .collect()
}

fn class_means(seed: u64, policy: Policy) -> (f64, f64, f64) {
    let mut general_saved = Vec::new();
    let mut game_saved = Vec::new();
    let mut qualities = Vec::new();
    for spec in sample() {
        let class = spec.class;
        let (governed, baseline) = Scenario::new(Workload::App(spec), policy)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(15))
            .with_seed(seed)
            .run_with_baseline();
        let saved = baseline.avg_power_mw - governed.avg_power_mw;
        match class {
            AppClass::General => general_saved.push(saved),
            AppClass::Game => game_saved.push(saved),
            AppClass::Wallpaper => {}
        }
        qualities.push(governed.quality_pct());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&general_saved), mean(&game_saved), mean(&qualities))
}

#[test]
fn conclusions_hold_across_seeds() {
    for seed in [101u64, 202, 303] {
        let (general, games, quality) = class_means(seed, Policy::SectionWithBoost);
        assert!(
            games > general,
            "seed {seed}: games saved {games:.0} mW ≤ general {general:.0} mW"
        );
        assert!(general > 0.0, "seed {seed}: general apps saved {general:.0} mW");
        assert!(
            quality > 93.0,
            "seed {seed}: mean boosted quality {quality:.1}%"
        );
    }
}

#[test]
fn section_saves_more_than_boost_across_seeds() {
    for seed in [404u64, 505] {
        let (g_section, games_section, _) = class_means(seed, Policy::SectionOnly);
        let (g_boost, games_boost, _) = class_means(seed, Policy::SectionWithBoost);
        assert!(
            g_section + games_section >= g_boost + games_boost - 2.0,
            "seed {seed}: boost out-saved section ({:.0} vs {:.0})",
            g_boost + games_boost,
            g_section + games_section
        );
    }
}

/// Runs `ccdem` with `args` and returns its exit code and stderr, failing
/// the test if it is still running after `budget`.
fn ccdem_within(args: &[&str], budget: std::time::Duration) -> (Option<i32>, String) {
    use std::io::Read;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args(args)
        .arg("-q")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ccdem");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for ccdem") {
            break status;
        }
        if start.elapsed() > budget {
            let _ = child.kill();
            let _ = child.wait();
            panic!("ccdem {args:?} still running after {budget:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        pipe.read_to_string(&mut stderr).expect("read stderr");
    }
    (status.code(), stderr)
}

/// A duration whose microseconds overflow `u64`, and the largest `u64`:
/// both used to wrap silently, spin for ever or abort allocating the
/// per-second result series.
#[test]
fn huge_durations_exit_with_a_message() {
    let verbs: [&[&str]; 3] = [&["simulate", "--app", "Facebook"], &["sweep"], &["fleet"]];
    for verb in verbs {
        for secs in ["18446744073710", "18446744073709551615"] {
            let args: Vec<&str> = verb.iter().copied().chain(["--duration", secs]).collect();
            let (code, stderr) = ccdem_within(&args, std::time::Duration::from_secs(20));
            assert_eq!(code, Some(1), "{args:?}: stderr {stderr:?}");
            assert!(stderr.contains("--duration"), "{args:?}: stderr {stderr:?}");
        }
    }
}

/// A `--jobs` far above any core count used to be taken at face value,
/// and `fleet` starts one OS thread per worker (up to one per batch).
/// Both inputs here stay cheap even without the bound — `--devices 0`
/// has no batch to run and the sweep caps its workers at its 90 runs —
/// and must now exit 1 with a message naming the flag.
#[test]
fn huge_job_counts_exit_with_a_message() {
    let cases: [&[&str]; 2] = [
        &["fleet", "--devices", "0", "--jobs", "1000000"],
        &["sweep", "--duration", "1", "--jobs", "1000000"],
    ];
    for args in cases {
        let (code, stderr) = ccdem_within(args, std::time::Duration::from_secs(60));
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr:?}");
        assert!(stderr.contains("--jobs"), "{args:?}: stderr {stderr:?}");
    }
}
