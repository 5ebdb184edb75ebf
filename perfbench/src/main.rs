//! ccdem benchmark: end-to-end simulator speed on three workloads, and a
//! traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fullres_apps|paper_sweep|fleet_short|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! `--trace 0` times the program's own entry points with tracing off and
//! prints the end-to-end metrics; `--trace 1` alternates untimed program
//! rounds with rounds of the traced replica and prints the per-layer
//! metrics. Every output is checked (see NOTES.md); the last line of
//! standard output is one JSON object, and the exit code is 1 when any
//! check failed. `--bless` writes the reference file for the seed.

mod replica;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use tracer::{Span, Tracer};
use workloads::{Accounting, Bench, Output, NAMES};

/// The seed used when `--seed` is not given; its references are
/// committed, and every timed run also checks one round against them.
const DEFAULT_SEED: u64 = 1;
/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Rounds a timed run makes at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Traced rounds a traced run makes at least.
const MIN_TRACED_ROUNDS: usize = 2;
/// Host seconds after which a traced run stops even if some percentile
/// still lacks samples.
const TRACE_CAP_SECONDS: f64 = 120.0;

/// Spans of the scenario event loop: every workload runs them, often
/// enough for a p99.
const LOOP_SPANS: [Span; 10] = [
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
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all (got {:?})",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else if args.bless {
        bless(&args)
    } else if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Runs attempted and failed, plus what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Compares `got` with `expected` line by line; each differing line
    /// fails the runs it stands for.
    fn check(&mut self, what: &str, expected: &[(u64, String)], got: &Output) {
        self.attempted += got.runs();
        if expected.len() != got.lines.len() {
            self.fail(
                got.runs(),
                format!(
                    "{what}: {} lines, expected {}",
                    got.lines.len(),
                    expected.len()
                ),
            );
            return;
        }
        for ((_, want), (runs, line)) in expected.iter().zip(&got.lines) {
            if want != line {
                self.fail(*runs, format!("{what}: got `{line}`, expected `{want}`"));
            }
        }
    }

    fn fail(&mut self, runs: u64, problem: String) {
        self.failed += runs.max(1);
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Reference lines: `(simulated runs the line stands for, line)`.
type Lines = Vec<(u64, String)>;

fn refs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("refs")
}

fn ref_path(workload: &str, seed: u64) -> PathBuf {
    refs_dir().join(format!("{workload}.seed{seed}.txt"))
}

/// The committed reference lines for `(workload, seed)`, if any.
fn load_reference(workload: &str, seed: u64) -> Result<Option<Lines>, String> {
    let path = ref_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let lines = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (runs, line) = l
                .split_once(' ')
                .ok_or_else(|| format!("{}: malformed line `{l}`", path.display()))?;
            let runs = runs
                .parse()
                .map_err(|e| format!("{}: run count in `{l}`: {e}", path.display()))?;
            Ok((runs, line.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(lines))
}

fn setup(args: &Args) -> Result<(Bench, Option<Lines>), String> {
    let bench = Bench::setup(&args.workload, args.seed).expect("workload name was checked");
    Ok((bench, load_reference(&args.workload, args.seed)?))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// `--trace 0`: time the program's entry points and check every output.
fn timed(args: &Args) -> Result<bool, String> {
    let t = Instant::now();
    let (mut bench, reference) = setup(args)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let sim_s = bench.sim_seconds();
    let mut tally = Tally::default();
    let mut expected = reference.clone();
    let mut speeds = Vec::new();
    let start = Instant::now();
    while speeds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        match catch_unwind(AssertUnwindSafe(|| bench.round())) {
            Ok((ns, out)) => {
                speeds.push(sim_s / (ns as f64 / 1e9));
                match &expected {
                    Some(e) => tally.check("round", e, &out),
                    None => {
                        tally.attempted += out.runs();
                        expected = Some(out.lines);
                    }
                }
            }
            Err(e) => {
                tally.fail(1, format!("round panicked: {}", panic_message(&*e)));
                break;
            }
        }
    }
    let rss = peak_rss_mib()?;
    // The remaining setups run after the peak is read, so the memory they
    // churn through never counts towards it.
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let extra = setup(args)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    let (saved, quality) = match catch_unwind(AssertUnwindSafe(|| bench.verify())) {
        Ok(verdict) => {
            if let Some(e) = &expected {
                tally.check("oracle", e, &verdict.output);
            }
            (verdict.saved_power_pct, verdict.display_quality_pct)
        }
        Err(e) => {
            tally.fail(1, format!("oracle panicked: {}", panic_message(&*e)));
            (f64::NAN, f64::NAN)
        }
    };
    if reference.is_none() {
        check_default_seed(&args.workload, &mut tally)?;
    }

    let metrics = vec![
        metric("sim_speed", median(&speeds), "sim_s/s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mib", rss, "MiB"),
        metric("saved_power_pct", saved, "%"),
        metric("display_quality_pct", quality, "%"),
    ];
    println!(
        "{}: seed {}, {} timed rounds of {} simulated s, reference {}",
        args.workload,
        args.seed,
        speeds.len(),
        sim_s,
        if reference.is_some() {
            "committed"
        } else {
            "none (oracle and round-to-round checks only)"
        }
    );
    println!(
        "  sim_speed per round (simulated s per host s): {}",
        join(&speeds)
    );
    println!("  setup_s per setup: {}", join(&setups));
    finish(&args.workload, &metrics, &metrics, &tally)
}

/// Runs one program round of the default seed and compares it with the
/// committed reference, so every run checks the program against fixed
/// outputs whatever its own seed (the oracle pass shares the power model
/// and event loop with the program, so it cannot catch changes there).
fn check_default_seed(workload: &str, tally: &mut Tally) -> Result<(), String> {
    let Some(reference) = load_reference(workload, DEFAULT_SEED)? else {
        tally.fail(
            1,
            format!("no committed reference for {workload} seed {DEFAULT_SEED}"),
        );
        return Ok(());
    };
    let round = catch_unwind(|| {
        let mut bench = Bench::setup(workload, DEFAULT_SEED).expect("workload name was checked");
        bench.round().1
    });
    match round {
        Ok(out) => tally.check("default-seed reference", &reference, &out),
        Err(e) => tally.fail(
            1,
            format!("default-seed round panicked: {}", panic_message(&*e)),
        ),
    }
    Ok(())
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `--trace 1`: alternate program rounds with traced-replica rounds,
/// check the traced outputs byte for byte, and report per-layer metrics.
fn traced(args: &Args) -> Result<bool, String> {
    let (mut bench, reference) = setup(args)?;
    let sim_s = bench.sim_seconds();
    let mut tally = Tally::default();
    let mut expected = reference.clone();
    let mut total = Tracer::default();
    let mut accounts: Vec<Accounting> = Vec::new();
    let mut untraced_walls = Vec::new();
    let start = Instant::now();
    loop {
        let untraced = catch_unwind(AssertUnwindSafe(|| bench.round()));
        let (ns, out) = match untraced {
            Ok(r) => r,
            Err(e) => {
                tally.fail(1, format!("round panicked: {}", panic_message(&*e)));
                break;
            }
        };
        untraced_walls.push(ns as f64);
        match &expected {
            Some(e) => tally.check("round", e, &out),
            None => {
                tally.attempted += out.runs();
                expected = Some(out.lines.clone());
            }
        }
        let mut tr = Tracer::default();
        let traced = catch_unwind(AssertUnwindSafe(|| bench.traced_round(&mut tr)));
        let (acct, traced_out) = match traced {
            Ok(r) => r,
            Err(e) => {
                tally.fail(1, format!("traced round panicked: {}", panic_message(&*e)));
                break;
            }
        };
        tr.leave();
        if traced_out.debug != out.debug {
            tally.fail(
                traced_out.runs(),
                "traced replica output differs from the program's".into(),
            );
        }
        tally.check(
            "traced round",
            expected.as_deref().unwrap_or_default(),
            &traced_out,
        );
        total.merge(&tr);
        accounts.push(acct);
        let elapsed = start.elapsed().as_secs_f64();
        let enough = accounts.len() >= MIN_TRACED_ROUNDS
            && elapsed >= args.seconds
            && percentiles_complete(&total);
        if enough || elapsed >= TRACE_CAP_SECONDS {
            break;
        }
    }
    if accounts.is_empty() {
        return finish(&args.workload, &[], &[], &tally);
    }

    let (all, listed) = layer_metrics(&total, &accounts, sim_s, &untraced_walls);
    let thread_ns: u64 = accounts.iter().map(|a| a.thread_ns).sum();
    let idle_ns: u64 = accounts.iter().map(|a| a.idle_ns).sum();
    let self_ns = total.total_self_ns();
    if self_ns + idle_ns > thread_ns {
        tally.fail(
            0,
            format!("span self times ({self_ns} ns) + idle ({idle_ns} ns) exceed thread time ({thread_ns} ns)"),
        );
    }
    println!(
        "{}: seed {}, {} traced rounds of {} simulated s; traced outputs {} the program's",
        args.workload,
        args.seed,
        accounts.len(),
        sim_s,
        if tally.correct() {
            "match"
        } else {
            "DO NOT match"
        }
    );
    println!("{}", layer_table(&total, &accounts, sim_s));
    finish(&args.workload, &all, &listed, &tally)
}

/// Whether every percentile the JSON line lists has enough samples.
fn percentiles_complete(tr: &Tracer) -> bool {
    LOOP_SPANS
        .iter()
        .all(|&s| tracer::quantile(tr.durations(s), 0.99).is_some())
        && [Span::Setup, Span::Finish]
            .iter()
            .all(|&s| tracer::quantile(tr.durations(s), 0.5).is_some())
}

/// Per-layer metrics: every available one, and the subset the JSON
/// line carries (the same set on every workload).
fn layer_metrics(
    tr: &Tracer,
    accounts: &[Accounting],
    sim_s_per_round: f64,
    untraced_walls: &[f64],
) -> (Vec<Metric>, Vec<Metric>) {
    let sim_s = sim_s_per_round * accounts.len() as f64;
    let mut all = Vec::new();
    let mut listed = Vec::new();
    let mut push = |m: Metric, in_json: bool| {
        if in_json {
            listed.push(metric(m.name.clone(), m.value, m.unit));
        }
        all.push(m);
    };
    for span in Span::ALL {
        let name = span.name();
        let h = tr.durations(span);
        let in_loop = LOOP_SPANS.contains(&span);
        let has_p50 = in_loop || matches!(span, Span::Setup | Span::Finish);
        push(
            metric(
                format!("{name}.self_ms_per_sim_s"),
                tr.self_ns(span) as f64 / 1e6 / sim_s,
                "ms/sim_s",
            ),
            true,
        );
        push(
            metric(format!("{name}.calls"), h.count() as f64, "count"),
            true,
        );
        if let Some(p50) = tracer::quantile(h, 0.5) {
            push(metric(format!("{name}.us_p50"), p50 / 1e3, "us"), has_p50);
        }
        if let Some(p99) = tracer::quantile(h, 0.99) {
            push(metric(format!("{name}.us_p99"), p99 / 1e3, "us"), in_loop);
        }
    }
    let sum = |f: fn(&Accounting) -> u64| accounts.iter().map(f).sum::<u64>() as f64;
    let idle = sum(|a| a.idle_ns);
    let thread = sum(|a| a.thread_ns);
    push(
        metric(
            "parallel.idle.self_ms_per_sim_s",
            idle / 1e6 / sim_s,
            "ms/sim_s",
        ),
        true,
    );
    let c = &tr.counts;
    let gathers = tr.durations(Span::Gather).count() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    push(
        metric(
            "compositor.compose_ratio",
            ratio(c.composes as f64, c.vsyncs as f64),
            "ratio",
        ),
        true,
    );
    push(
        metric(
            "compositor.damage_ratio",
            ratio(c.damage_share, c.composes as f64),
            "ratio",
        ),
        true,
    );
    push(
        metric(
            "core.points_read_per_gather",
            ratio(c.points_read as f64, gathers),
            "px",
        ),
        true,
    );
    push(
        metric(
            "core.fast_path_ratio",
            ratio(c.fast_path_frames as f64, gathers),
            "ratio",
        ),
        true,
    );
    push(
        metric(
            "core.tiles_descended_ratio",
            ratio(c.tiles_descended as f64, c.tiles_checked as f64),
            "ratio",
        ),
        true,
    );
    push(metric("simkit.events", c.events as f64, "count"), true);
    push(
        metric(
            "parallel.busy_ratio",
            ratio(sum(|a| a.busy_ns), sum(|a| a.capacity_ns)),
            "ratio",
        ),
        true,
    );
    let tails: Vec<f64> = accounts
        .iter()
        .map(|a| a.tail_idle_ns as f64 / 1e6)
        .collect();
    push(metric("parallel.tail_idle_ms", median(&tails), "ms"), true);
    let unattributed = thread - tr.total_self_ns() as f64 - idle;
    push(
        metric("unattributed.pct", ratio(unattributed, thread) * 100.0, "%"),
        true,
    );
    let traced_walls: Vec<f64> = accounts.iter().map(|a| a.wall_ns as f64).collect();
    push(
        metric(
            "trace.overhead_pct",
            (median(&traced_walls) / median(untraced_walls) - 1.0) * 100.0,
            "%",
        ),
        true,
    );
    (all, listed)
}

/// The human-readable per-layer table: self time per simulated second,
/// share of thread time, and percentiles with their sample counts.
fn layer_table(tr: &Tracer, accounts: &[Accounting], sim_s_per_round: f64) -> String {
    let sim_s = sim_s_per_round * accounts.len() as f64;
    let thread: u64 = accounts.iter().map(|a| a.thread_ns).sum();
    let idle: u64 = accounts.iter().map(|a| a.idle_ns).sum();
    let share = |ns: f64| ns / thread as f64 * 100.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>7} {:>10} {:>12} {:>12}",
        "layer (host time)", "ms/sim_s", "share", "calls", "p50 us", "p99 us"
    );
    let pct = |q: Option<f64>| q.map_or_else(|| "n/a".to_string(), |v| format!("{:.3}", v / 1e3));
    for span in Span::ALL {
        let h = tr.durations(span);
        let ns = tr.self_ns(span) as f64;
        let _ = writeln!(
            out,
            "  {:<22} {:>12.5} {:>6.2}% {:>10} {:>12} {:>12}",
            span.name(),
            ns / 1e6 / sim_s,
            share(ns),
            h.count(),
            pct(tracer::quantile(h, 0.5)),
            pct(tracer::quantile(h, 0.99)),
        );
    }
    let unattributed = thread as f64 - tr.total_self_ns() as f64 - idle as f64;
    for (name, ns) in [
        ("parallel.idle", idle as f64),
        ("unattributed", unattributed),
    ] {
        let _ = writeln!(
            out,
            "  {:<22} {:>12.5} {:>6.2}%",
            name,
            ns / 1e6 / sim_s,
            share(ns)
        );
    }
    let _ = write!(
        out,
        "  span self times + parallel.idle + unattributed = {:.3} s of thread time \
         (workers x parallel wall + serial wall, {} rounds, {:.0} simulated s); \
         percentiles are over `calls` samples, n/a below 10 samples past the quantile",
        thread as f64 / 1e9,
        accounts.len(),
        sim_s
    );
    out
}

/// Prints the metric table, the problems found, and the JSON result
/// line; returns whether every check passed.
fn finish(
    workload: &str,
    all: &[Metric],
    listed: &[Metric],
    tally: &Tally,
) -> Result<bool, String> {
    for m in all {
        println!("  {workload} {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  runs attempted {}, failed {}",
        tally.attempted, tally.failed
    );
    for p in &tally.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = tally.correct();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        if correct { 0 } else { tally.failed.max(1) }
    );
    for (i, m) in listed.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// `--bless`: write the reference file for this workload and seed from
/// one program round, after checking it against the oracle pass.
fn bless(args: &Args) -> Result<bool, String> {
    let mut bench = Bench::setup(&args.workload, args.seed).expect("workload name was checked");
    let (_, out) = bench.round();
    let verdict = bench.verify();
    if verdict.output.lines != out.lines {
        return Err("the oracle pass disagrees with the program; not blessing".into());
    }
    let mut text = format!(
        "# {} seed {}: reference outputs of one round (`<runs> <line>` per line; see NOTES.md)\n",
        args.workload, args.seed
    );
    for (runs, line) in &out.lines {
        let _ = writeln!(text, "{runs} {line}");
    }
    let path = ref_path(&args.workload, args.seed);
    std::fs::create_dir_all(refs_dir())
        .map_err(|e| format!("create {}: {e}", refs_dir().display()))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}

/// `--workload all`: run every workload in its own process (so peak
/// memory is per workload), echo their reports, and total the runs.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.bless {
            cmd.arg("--bless");
        }
        let output = cmd.output().map_err(|e| format!("run {name}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
    }
    println!("all workloads: runs attempted {attempted}, failed {failed}");
    Ok(ok)
}
