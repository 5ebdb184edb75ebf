//! The three benchmark workloads.
//!
//! Each workload is built from the run seed and can run one *round*
//! three ways: through the program's own entry point (timed, tracing
//! off), through the traced replica in [`crate::replica`], and as an
//! oracle pass (naive-metering twins) that checks the outputs and yields
//! the simulated power and quality results.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use ccdem_core::governor::Policy;
use ccdem_experiments::campaign::CampaignStats;
use ccdem_experiments::fleet::{self, DeviceSpec, FleetConfig, FleetOutcome};
use ccdem_experiments::scenario::{RunResult, RunScratch, Scenario, Workload};
use ccdem_experiments::sweep::{self, AppSweep, Sweep, SweepConfig};
use ccdem_metrics::timing::{RunTiming, TimingReport};
use ccdem_obs::Obs;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::parallel::{available_parallelism, derive_seed, ParallelRunner};
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::catalog;
use ccdem_workloads::phased::AppSpec;
use ccdem_workloads::wallpaper::DotsConfig;

use crate::replica;
use crate::tracer::{Span, Tracer};

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["fullres_apps", "paper_sweep", "fleet_short"];

/// Simulated length of each `fullres_apps` scenario.
const FULLRES_SECONDS: u64 = 20;
/// Simulated length of each `paper_sweep` session (the paper used ~3 min).
const SWEEP_SECONDS: u64 = 180;
/// Devices per `fleet_short` campaign.
const FLEET_DEVICES: u64 = 1024;
/// Devices per fleet scheduler batch: 64 batches per campaign, so every
/// worker steals work.
const FLEET_BATCH: u64 = 16;
/// Simulated length of each item of the warm-up pass that ends each
/// `fullres_apps` and `paper_sweep` setup.
const WARMUP: SimDuration = SimDuration::from_secs(2);
/// Devices in the warm-up campaign that ends each `fleet_short` setup.
const FLEET_WARMUP_DEVICES: u64 = 128;

/// One round's outputs in two forms: the full `Debug` text (for the
/// byte-for-byte traced-vs-untraced check) and reference lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Full `Debug` rendering of the round's results.
    pub debug: String,
    /// Reference lines with the number of simulated runs each stands for.
    pub lines: Vec<(u64, String)>,
}

impl Output {
    /// Simulated runs this output covers.
    pub fn runs(&self) -> u64 {
        self.lines.iter().map(|(n, _)| n).sum()
    }
}

/// Host-time accounting of one traced round.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Round wall time.
    pub wall_ns: u64,
    /// Thread time available: workers × parallel wall + serial wall.
    pub thread_ns: u64,
    /// Worker time inside work items.
    pub busy_ns: u64,
    /// Worker capacity of the parallel section (workers × its wall).
    pub capacity_ns: u64,
    /// Worker time outside work items during the parallel section.
    pub idle_ns: u64,
    /// Sum over workers of the time after their last item.
    pub tail_idle_ns: u64,
}

/// The simulated results the oracle pass yields.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The oracle's reference lines.
    pub output: Output,
    /// Mean power saved by governed runs against fixed-60 Hz twins. (%)
    pub saved_power_pct: f64,
    /// Mean display quality of governed runs. (%)
    pub display_quality_pct: f64,
}

/// A built workload.
pub enum Bench {
    /// Serial full-resolution governed runs over a content mix.
    FullRes(FullRes),
    /// The paper's 30-app × 3-policy sweep.
    Sweep(PaperSweep),
    /// A short-device fleet campaign.
    Fleet(FleetShort),
}

impl Bench {
    /// Builds workload `name` from `seed`, including its warm-up pass.
    pub fn setup(name: &str, seed: u64) -> Option<Bench> {
        let jobs = available_parallelism();
        match name {
            "fullres_apps" => Some(Bench::FullRes(FullRes::new(seed))),
            "paper_sweep" => Some(Bench::Sweep(PaperSweep::new(seed, jobs))),
            "fleet_short" => Some(Bench::Fleet(FleetShort::new(seed, jobs))),
            _ => None,
        }
    }

    /// Simulated seconds in one round.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Bench::FullRes(b) => b.scenarios.len() as f64 * FULLRES_SECONDS as f64,
            Bench::Sweep(_) => (catalog::all_apps().len() * 3) as f64 * SWEEP_SECONDS as f64,
            Bench::Fleet(b) => b.config.devices as f64 * b.config.duration.as_secs_f64(),
        }
    }

    /// One round through the program's entry point. Returns the host
    /// time of the call and the outputs.
    pub fn round(&mut self) -> (u64, Output) {
        match self {
            Bench::FullRes(b) => {
                let t = Instant::now();
                let runs: Vec<RunResult> = b
                    .scenarios
                    .iter()
                    .map(|s| s.run_with_scratch(&mut b.scratch))
                    .collect();
                let ns = elapsed_ns(t);
                (ns, fullres_output(&runs))
            }
            Bench::Sweep(b) => {
                let t = Instant::now();
                let (sweep, _) = sweep::run_timed(&b.config);
                let ns = elapsed_ns(t);
                (ns, sweep_output(&sweep))
            }
            Bench::Fleet(b) => {
                let t = Instant::now();
                let outcome = fleet::run(&b.config, &Obs::disabled()).expect("no checkpoint path");
                let ns = elapsed_ns(t);
                (ns, fleet_output(&outcome))
            }
        }
    }

    /// One round through the traced replica.
    pub fn traced_round(&mut self, tr: &mut Tracer) -> (Accounting, Output) {
        match self {
            Bench::FullRes(b) => b.traced(tr),
            Bench::Sweep(b) => b.traced(tr),
            Bench::Fleet(b) => b.traced(tr),
        }
    }

    /// The oracle pass: naive-metering governed runs with fixed-60 Hz
    /// twins.
    pub fn verify(&mut self) -> Verdict {
        match self {
            Bench::FullRes(b) => b.verify(),
            Bench::Sweep(b) => b.verify(),
            Bench::Fleet(b) => b.verify(),
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn app(name: &str) -> AppSpec {
    catalog::by_name(name).expect("catalog app")
}

/// The `fullres_apps` workload.
pub struct FullRes {
    scenarios: Vec<Scenario>,
    scratch: RunScratch,
    pool: PixelPool,
}

impl FullRes {
    fn new(seed: u64) -> FullRes {
        let mix = [
            (Workload::App(app("Asphalt 8")), false),
            (Workload::App(app("Jelly Splash")), false),
            (Workload::App(app("MX Player")), false),
            (Workload::App(app("Facebook")), false),
            (Workload::App(app("Naver Webtoon")), false),
            (Workload::App(app("Naver")), true),
            (Workload::Wallpaper(DotsConfig::default()), false),
        ];
        let scenarios: Vec<Scenario> = mix
            .into_iter()
            .enumerate()
            .map(|(i, (workload, status_bar))| {
                let s = Scenario::new(workload, Policy::SectionWithBoost)
                    .with_duration(SimDuration::from_secs(FULLRES_SECONDS))
                    .with_seed(derive_seed(seed, i as u64));
                if status_bar {
                    s.with_status_bar()
                } else {
                    s
                }
            })
            .collect();
        let mut scratch = RunScratch::new();
        for s in &scenarios {
            s.clone()
                .with_duration(WARMUP)
                .run_with_scratch(&mut scratch);
        }
        FullRes {
            scenarios,
            scratch,
            pool: PixelPool::default(),
        }
    }

    fn traced(&mut self, tr: &mut Tracer) -> (Accounting, Output) {
        let start = Instant::now();
        let mut busy_ns = 0;
        let mut runs = Vec::with_capacity(self.scenarios.len());
        for s in &self.scenarios {
            let t = Instant::now();
            runs.push(replica::run(s, &mut self.pool, tr));
            busy_ns += elapsed_ns(t);
        }
        let wall_ns = elapsed_ns(start);
        let acct = Accounting {
            wall_ns,
            thread_ns: wall_ns,
            busy_ns,
            capacity_ns: wall_ns,
            idle_ns: 0,
            tail_idle_ns: 0,
        };
        (acct, fullres_output(&runs))
    }

    fn verify(&mut self) -> Verdict {
        let mut runs = Vec::new();
        let (mut saved, mut quality) = (Vec::new(), Vec::new());
        for s in &self.scenarios {
            let (governed, baseline) = s
                .clone()
                .with_naive_metering(true)
                .run_with_baseline_scratch(&mut self.scratch);
            saved.push(saved_pct(baseline.avg_power_mw, governed.avg_power_mw));
            quality.push(governed.quality_pct());
            runs.push(governed);
        }
        Verdict {
            output: fullres_output(&runs),
            saved_power_pct: mean(&saved),
            display_quality_pct: mean(&quality),
        }
    }
}

/// The `paper_sweep` workload.
pub struct PaperSweep {
    config: SweepConfig,
}

impl PaperSweep {
    fn new(seed: u64, jobs: usize) -> PaperSweep {
        let config = SweepConfig {
            duration: SimDuration::from_secs(SWEEP_SECONDS),
            seed,
            quarter_resolution: true,
            jobs,
            ..SweepConfig::default()
        };
        sweep::run_timed(&SweepConfig {
            duration: WARMUP,
            ..config
        });
        PaperSweep { config }
    }

    /// `sweep::run_timed_with_campaign` on the traced replica (without its
    /// profiling branch: the benchmark never turns profiling on).
    fn traced(&mut self, main: &mut Tracer) -> (Accounting, Output) {
        let config = &self.config;
        let obs = Obs::disabled();
        let round_start = Instant::now();
        let specs = catalog::all_apps();
        let policies = [
            Policy::FixedMax,
            Policy::SectionOnly,
            Policy::SectionWithBoost,
        ];
        let items: Vec<(usize, AppSpec, Policy)> = specs
            .into_iter()
            .enumerate()
            .flat_map(|(app_index, spec)| policies.map(|policy| (app_index, spec.clone(), policy)))
            .collect();

        let runner = ParallelRunner::new(config.jobs);
        let started = Instant::now();
        obs.emit("sweep.start", SimTime::ZERO, |event| {
            event
                .field("apps", items.len() / policies.len())
                .field("runs", items.len())
                .field("jobs", runner.jobs());
        });
        let mut span = obs.span("sweep", SimTime::ZERO);
        span.field("runs", items.len());
        let total = items.len();
        let workers = runner.jobs().min(total).max(1);
        let mut campaign = CampaignStats::new();
        let shared = Mutex::new((Tracer::default(), Vec::<(ThreadId, u64, u64)>::new()));
        let section = Instant::now();
        let runs = runner.run_many_observed(
            items,
            || (PixelPool::default(), Tracer::default()),
            |(pool, tr), _, (app_index, spec, policy)| {
                let t0 = elapsed_ns(section);
                tr.enter(Span::Setup);
                let seed = derive_seed(config.seed, app_index as u64);
                let run_started = Instant::now();
                let mut s = Scenario::new(Workload::App(spec), policy)
                    .with_duration(config.duration)
                    .with_seed(seed)
                    .with_naive_metering(config.naive_metering)
                    .with_obs(obs.clone());
                if config.quarter_resolution {
                    s = s.at_quarter_resolution();
                }
                let result = replica::run(&s, pool, tr);
                let timing = RunTiming::new(
                    format!("{} / {}", result.app_name, policy),
                    run_started.elapsed(),
                );
                let mut guard = shared.lock().expect("no worker panicked");
                tr.drain_into(&mut guard.0);
                let t1 = elapsed_ns(section);
                let id = std::thread::current().id();
                match guard.1.iter_mut().find(|w| w.0 == id) {
                    Some(w) => {
                        w.1 += t1 - t0;
                        w.2 = t1;
                    }
                    None => guard.1.push((id, t1 - t0, t1)),
                }
                (result, timing)
            },
            |_, (result, _)| {
                main.enter(Span::Fold);
                campaign.observe_run(result);
                campaign.emit_progress(&obs, total);
                main.leave();
            },
        );
        let section_ns = elapsed_ns(section);

        let mut report = TimingReport::new(runner.jobs());
        let mut apps = Vec::new();
        let mut runs = runs.into_iter();
        while let (Some((baseline, t0)), Some((section, t1)), Some((boost, t2))) =
            (runs.next(), runs.next(), runs.next())
        {
            for t in [t0, t1, t2] {
                report.push(t);
            }
            apps.push(AppSweep {
                app: baseline.app_name.clone(),
                class: baseline.app_class,
                baseline,
                section,
                boost,
            });
        }
        report.finish(started.elapsed());
        campaign.emit_end(&obs);
        drop(span);
        let sweep = Sweep { apps };
        let wall_ns = elapsed_ns(round_start);

        let (worker_tr, per_worker) = shared.into_inner().expect("no worker panicked");
        main.merge(&worker_tr);
        let per_worker: Vec<(u64, u64)> = per_worker.iter().map(|w| (w.1, w.2)).collect();
        let acct = parallel_accounting(wall_ns, section_ns, workers, &per_worker);
        (acct, sweep_output(&sweep))
    }

    fn verify(&mut self) -> Verdict {
        let sweep = sweep::run(&SweepConfig {
            naive_metering: true,
            ..self.config
        });
        let summaries = sweep.summaries();
        let saved: Vec<f64> = summaries
            .iter()
            .map(|s| saved_pct(s.baseline_power_mw, s.power_mw))
            .collect();
        let quality: Vec<f64> = summaries.iter().map(|s| s.quality_pct).collect();
        Verdict {
            output: sweep_output(&sweep),
            saved_power_pct: mean(&saved),
            display_quality_pct: mean(&quality),
        }
    }
}

/// The `fleet_short` workload.
pub struct FleetShort {
    config: FleetConfig,
}

/// Per-worker state of the traced fleet replica.
struct FleetWorker {
    catalog: Vec<AppSpec>,
    pool: PixelPool,
    stats: CampaignStats,
    tr: Tracer,
    busy_ns: u64,
    last_end_ns: u64,
}

impl FleetShort {
    fn new(seed: u64, jobs: usize) -> FleetShort {
        let config = FleetConfig {
            devices: FLEET_DEVICES,
            seed,
            jobs,
            batch: FLEET_BATCH,
            ..FleetConfig::default()
        };
        fleet::run(
            &FleetConfig {
                devices: FLEET_WARMUP_DEVICES,
                ..config.clone()
            },
            &Obs::disabled(),
        )
        .expect("no checkpoint path");
        FleetShort { config }
    }

    /// `fleet::run` (one wave, no checkpoints) on the traced replica.
    fn traced(&mut self, main: &mut Tracer) -> (Accounting, Output) {
        let config = &self.config;
        let obs = Obs::disabled();
        let round_start = Instant::now();
        let runner = ParallelRunner::new(config.jobs);
        obs.emit("fleet.start", SimTime::ZERO, |event| {
            event
                .field("devices", config.devices)
                .field("jobs", runner.jobs() as u64)
                .field("batch", config.batch.max(1));
        });
        let batch = config.batch.max(1);
        let workers = (runner.jobs() as u64)
            .min(config.devices.div_ceil(batch))
            .max(1) as usize;
        let mut stats = CampaignStats::new();
        let mut outcome = FleetOutcome {
            stats: CampaignStats::new(),
            devices: config.devices,
            next_index: 0,
            devices_run: 0,
            waves: 0,
            partials_merged: 0,
            checkpoints_written: 0,
        };
        let section = Instant::now();
        let partials = runner.run_batches(
            0..config.devices,
            batch,
            || FleetWorker {
                catalog: catalog::all_apps(),
                pool: PixelPool::default(),
                stats: CampaignStats::new(),
                tr: Tracer::default(),
                busy_ns: 0,
                last_end_ns: 0,
            },
            |w, index| {
                let t0 = elapsed_ns(section);
                w.tr.enter(Span::Sample);
                let spec = DeviceSpec::sample_from(&w.catalog, config.seed, index);
                w.tr.enter(Span::Setup);
                let scenario = spec.scenario(config.duration);
                let result = replica::run(&scenario, &mut w.pool, &mut w.tr);
                w.tr.enter(Span::Fold);
                w.stats.observe_run(&result);
                w.tr.leave();
                let t1 = elapsed_ns(section);
                w.busy_ns += t1 - t0;
                w.last_end_ns = t1;
            },
        );
        let section_ns = elapsed_ns(section);
        main.enter(Span::Fold);
        for worker in &partials {
            stats.merge(&worker.stats);
            outcome.partials_merged += 1;
        }
        main.leave();
        outcome.waves += 1;
        outcome.devices_run += config.devices;
        outcome.next_index = config.devices;
        stats.emit_progress(&obs, config.devices as usize);
        stats.emit_end(&obs);
        obs.emit("fleet.end", SimTime::ZERO, |event| {
            event
                .field("devices_run", outcome.devices_run)
                .field("next_index", config.devices)
                .field("runs", stats.runs())
                .field("completed", true);
        });
        outcome.stats = stats;
        let wall_ns = elapsed_ns(round_start);

        let mut per_worker = Vec::new();
        for w in &partials {
            main.merge(&w.tr);
            per_worker.push((w.busy_ns, w.last_end_ns));
        }
        let acct = parallel_accounting(wall_ns, section_ns, workers, &per_worker);
        (acct, fleet_output(&outcome))
    }

    fn verify(&mut self) -> Verdict {
        let config = &self.config;
        let partials = ParallelRunner::new(config.jobs).run_batches(
            0..config.devices,
            config.batch,
            || {
                (
                    catalog::all_apps(),
                    RunScratch::new(),
                    CampaignStats::new(),
                    Vec::new(),
                )
            },
            |(catalog, scratch, stats, points), index| {
                let (governed, baseline) = DeviceSpec::sample_from(catalog, config.seed, index)
                    .scenario(config.duration)
                    .with_naive_metering(true)
                    .run_with_baseline_scratch(scratch);
                stats.observe_run(&governed);
                points.push((
                    index,
                    saved_pct(baseline.avg_power_mw, governed.avg_power_mw),
                    governed.quality_pct(),
                ));
            },
        );
        let mut stats = CampaignStats::new();
        let mut points = Vec::new();
        for (_, _, partial, p) in partials {
            stats.merge(&partial);
            points.extend(p);
        }
        points.sort_by_key(|p| p.0);
        let outcome = FleetOutcome {
            stats,
            devices: config.devices,
            next_index: config.devices,
            devices_run: config.devices,
            waves: 1,
            partials_merged: 0,
            checkpoints_written: 0,
        };
        let saved: Vec<f64> = points.iter().map(|p| p.1).collect();
        let quality: Vec<f64> = points.iter().map(|p| p.2).collect();
        Verdict {
            output: fleet_output(&outcome),
            saved_power_pct: mean(&saved),
            display_quality_pct: mean(&quality),
        }
    }
}

/// Worker accounting of a round with one parallel section of `workers`
/// threads; `per_worker` holds each active worker's busy time and the
/// end of its last item, relative to the section start.
fn parallel_accounting(
    wall_ns: u64,
    section_ns: u64,
    workers: usize,
    per_worker: &[(u64, u64)],
) -> Accounting {
    let capacity_ns = workers as u64 * section_ns;
    let busy_ns: u64 = per_worker.iter().map(|w| w.0).sum();
    let idle_workers = workers.saturating_sub(per_worker.len()) as u64;
    let tail_idle_ns = per_worker
        .iter()
        .map(|w| section_ns.saturating_sub(w.1))
        .sum::<u64>()
        + idle_workers * section_ns;
    Accounting {
        wall_ns,
        thread_ns: capacity_ns + wall_ns.saturating_sub(section_ns),
        busy_ns,
        capacity_ns,
        idle_ns: capacity_ns.saturating_sub(busy_ns),
        tail_idle_ns,
    }
}

fn saved_pct(baseline_mw: f64, governed_mw: f64) -> f64 {
    (baseline_mw - governed_mw) / baseline_mw * 100.0
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// FNV-1a, 64-bit: a digest that is stable across toolchains.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// A 64-bit digest over every simulated statistic of a run, exact to
/// the bit.
fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write(r.app_name.as_bytes());
    h.write(format!("{:?}/{:?}", r.app_class, r.policy).as_bytes());
    h.write_u64(r.duration.as_micros());
    let floats = |h: &mut Fnv, v: &[f64]| {
        h.write_u64(v.len() as u64);
        v.iter().for_each(|x| h.write_u64(x.to_bits()));
    };
    for v in [
        &r.power_per_second,
        &r.submissions_per_second,
        &r.frame_rate_per_second,
        &r.actual_content_per_second,
        &r.displayed_content_per_second,
        &r.measured_content_per_second,
    ] {
        floats(&mut h, v);
    }
    for (t, v) in r.refresh_trace.iter() {
        h.write_u64(t.as_micros());
        h.write_u64(v.to_bits());
    }
    r.touch_times
        .iter()
        .for_each(|t| h.write_u64(t.as_micros()));
    r.touch_latencies
        .iter()
        .for_each(|d| h.write_u64(d.as_micros()));
    floats(
        &mut h,
        &[
            r.avg_power_mw,
            r.avg_refresh_hz,
            r.actual_content_fps,
            r.displayed_content_fps,
            r.measured_content_fps,
        ],
    );
    h.write_u64(r.refresh_switches);
    h.write_u64(r.panel_refreshes as u64);
    h.0
}

fn run_line(key: &str, r: &RunResult) -> String {
    format!(
        "run {key} policy={:?} digest={:016x} avg_power_mw={:?} avg_refresh_hz={:?} \
         switches={} panel_refreshes={} quality_pct={:?}",
        r.policy,
        digest(r),
        r.avg_power_mw,
        r.avg_refresh_hz,
        r.refresh_switches,
        r.panel_refreshes,
        r.quality_pct()
    )
}

fn fullres_output(runs: &[RunResult]) -> Output {
    Output {
        debug: format!("{runs:?}"),
        lines: runs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    1,
                    run_line(&format!("{i}:{}", r.app_name.replace(' ', "_")), r),
                )
            })
            .collect(),
    }
}

fn sweep_output(sweep: &Sweep) -> Output {
    let mut lines = Vec::new();
    for (i, a) in sweep.apps.iter().enumerate() {
        let key = format!("{i}:{}", a.app.replace(' ', "_"));
        for r in [&a.baseline, &a.section, &a.boost] {
            lines.push((1, run_line(&key, r)));
        }
    }
    for row in sweep.table1() {
        lines.push((
            0,
            format!(
                "table1 {}/{} saved_pct={:?}±{:?} saved_mw={:?}±{:?} quality_pct={:?}±{:?}",
                row.class,
                row.policy.replace(' ', "_"),
                row.saved_pct.mean,
                row.saved_pct.std_dev,
                row.saved_mw.mean,
                row.saved_mw.std_dev,
                row.quality_pct.mean,
                row.quality_pct.std_dev
            ),
        ));
    }
    Output {
        debug: format!("{sweep:?}"),
        lines,
    }
}

fn fleet_output(outcome: &FleetOutcome) -> Output {
    let mut json = String::new();
    ccdem_obs::json::write_json(&mut json, &outcome.stats.to_json());
    Output {
        debug: format!(
            "{:?} devices={} devices_run={} next_index={} waves={}",
            outcome.stats, outcome.devices, outcome.devices_run, outcome.next_index, outcome.waves
        ),
        lines: vec![(outcome.devices_run, format!("campaign {json}"))],
    }
}
