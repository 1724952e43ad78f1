//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_synth|reopt_online|dispatch_stream> \
//!     --seed <n> --seconds <s> --trace <0|1> [--selftest]
//! ```
//!
//! Untraced (`--trace 0`): sets the workload up several times, then
//! runs `Campaign::plan` + `Campaign::run_range_with` into a `CsvSink`
//! until `--seconds` are spent and prints the end-to-end metrics.
//! Traced (`--trace 1`): one untraced pass, one pass with every policy
//! and the sink wrapped in probes, an offline replay of the plan's
//! solves and a trace reader loop; prints the per-layer metrics.
//! `--selftest` makes the traced run twice and requires every exact
//! count to repeat. Each run checks the program's outputs and exits 1
//! on a violation; the last stdout line is the result object. See
//! README.md for the metric definitions.

mod outcome;
mod probe;
mod replay;
mod workloads;

use acsched::runtime::{CampaignMeta, CampaignPlans, CsvSink, ResultSink, Tee};
use acsched::scenario::Scenario;
use outcome::{mean, Fnv, Keep, Outcome};
use probe::{probed, SimSpan, SpanLog, TimedSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups before each pass; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 25;

/// Per-layer metrics that must repeat bit for bit between two traced
/// runs of one seed: deterministic counts and shares of the outputs.
/// The reopt carry/cache/resolve split (and `adopted`, which follows
/// it) is left out: at more than one thread the campaign's shared
/// `SolverCache` makes it depend on thread interleaving.
const EXACT: &[&str] = &[
    "runtime.plan_jobs",
    "runtime.records",
    "runtime.failed_share",
    "opt.evaluations",
    "opt.outer_iterations",
    "preempt.sub_instances",
    "sim.runs",
    "sim.dispatches",
    "sim.jobs",
    "reopt.boundaries",
    "reopt.gain_pct",
    "multi.migrations",
    "trace.overload_miss_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2005,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One campaign of the workload, parsed.
struct Loaded {
    label: &'static str,
    scenario: Scenario,
    seeds: usize,
}

/// Set-up times (s) of every repetition: parse, then materialize +
/// `build()`, then both.
#[derive(Default)]
struct SetupTimes {
    parse: Vec<f64>,
    build: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    /// Sets every campaign of the workload up [`SETUP_REPS`] times.
    /// Called before each pass, so the samples span the whole run.
    fn measure(&mut self, w: &workloads::Workload, threads: usize) -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let (mut p, mut b) = (0.0, 0.0);
            for c in &w.campaigns {
                let t = Instant::now();
                let scenario =
                    Scenario::from_text(&c.text).map_err(|e| format!("{}: {e}", c.label))?;
                p += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let campaign = scenario
                    .campaign_builder()
                    .map_err(|e| format!("{}: {e}", c.label))?
                    .threads(threads)
                    .build()
                    .map_err(|e| format!("{}: {e}", c.label))?;
                b += t.elapsed().as_secs_f64();
                drop(std::hint::black_box(campaign));
            }
            self.parse.push(p);
            self.build.push(b);
            self.total.push(p + b);
        }
        Ok(())
    }
}

fn load(w: &workloads::Workload) -> Result<Vec<Loaded>, String> {
    w.campaigns
        .iter()
        .map(|c| {
            let scenario = Scenario::from_text(&c.text).map_err(|e| format!("{}: {e}", c.label))?;
            Ok(Loaded {
                label: c.label,
                seeds: scenario.seeds.len().max(1),
                scenario,
            })
        })
        .collect()
}

/// One pass over every campaign of a workload.
#[derive(Default)]
struct Pass {
    plan_s: f64,
    simulate_s: f64,
    plan_jobs: usize,
    outcome: Outcome,
    /// Simulator spans per campaign label (traced passes only).
    spans: BTreeMap<&'static str, Vec<SimSpan>>,
    /// ns per sink `on_record` (traced passes only).
    sink_ns: Vec<u64>,
    /// The plans of an untraced pass, one per campaign.
    plans: Vec<CampaignPlans>,
}

impl Pass {
    fn runs_per_s(&self) -> f64 {
        self.outcome.runs as f64 / (self.plan_s + self.simulate_s)
    }
}

/// Runs `plan` + `run_range_with` for every campaign.
///
/// A traced pass (`traced` = the plans of an untraced pass) rebuilds
/// each campaign with probed policies and a timed sink and replays the
/// given plans: planning runs no policy or sink code, so it has nothing
/// to trace, and the untraced pass already timed it.
fn pass(
    loaded: &[Loaded],
    threads: usize,
    traced: Option<&[CampaignPlans]>,
) -> Result<Pass, String> {
    let mut out = Pass::default();
    for (i, l) in loaded.iter().enumerate() {
        // A fresh campaign per pass: `reopt` specs own a solver cache,
        // and a cache warmed by an earlier pass would hide solve work.
        let log = SpanLog::default();
        let campaign = if traced.is_some() {
            let mut sc = l.scenario.clone();
            let decls = std::mem::take(&mut sc.policies);
            sc.campaign_builder()
                .map(|b| b.policies(decls.iter().map(|d| probed(d.to_spec(), &log))))
        } else {
            l.scenario.campaign_builder()
        }
        .map_err(|e| format!("{}: {e}", l.label))?
        .threads(threads)
        .build()
        .map_err(|e| format!("{}: {e}", l.label))?;
        let planned = traced.is_none().then(|| {
            let t = Instant::now();
            let p = campaign.plan();
            out.plan_s += t.elapsed().as_secs_f64();
            out.plan_jobs += p.synthesized();
            p
        });
        let plans = match (&planned, traced) {
            (Some(p), _) => p,
            (None, Some(plans)) => &plans[i],
            (None, None) => unreachable!("an untraced pass plans"),
        };

        let mut csv = CsvSink::new(Vec::new());
        let mut keep = Keep::default();
        let mut tee = Tee::new(vec![&mut csv, &mut keep]);
        let meta = CampaignMeta {
            cells: campaign.cell_count(),
            runs: campaign.run_count(),
            seeds: l.seeds,
        };
        let drive = |sink: &mut dyn ResultSink| -> Result<f64, String> {
            let io = |e: std::io::Error| format!("{}: sink: {e}", l.label);
            sink.on_begin(&meta).map_err(io)?;
            let t = Instant::now();
            campaign
                .run_range_with(plans, 0..meta.cells, threads, sink)
                .map_err(io)?;
            let secs = t.elapsed().as_secs_f64();
            sink.on_end().map_err(io)?;
            Ok(secs)
        };
        out.simulate_s += if traced.is_some() {
            let mut timed = TimedSink {
                inner: &mut tee,
                record_ns: Vec::new(),
            };
            let secs = drive(&mut timed)?;
            out.sink_ns.append(&mut timed.record_ns);
            secs
        } else {
            drive(&mut tee)?
        };
        drop(tee);

        // A header line plus one line per cell.
        let csv_lines = csv.into_inner().iter().filter(|&&b| b == b'\n').count();
        if keep.0.len() != meta.cells || csv_lines != meta.cells + 1 {
            out.outcome.violations.push(format!(
                "{}: {} records / {csv_lines} CSV lines for {} cells",
                l.label,
                keep.0.len(),
                meta.cells
            ));
        }
        out.outcome.absorb(l.label, l.seeds, &keep.0);
        if let Some(p) = planned {
            out.plans.push(p);
        } else {
            let spans = std::mem::take(&mut *log.lock().map_err(|_| "span log poisoned")?);
            out.spans.insert(l.label, spans);
        }
    }
    Ok(out)
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Digest of the program's sources (`Cargo.*`, `src/`, `crates/`), so
/// results from checkouts without git history still name their code.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.str(&f.to_string_lossy());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

/// Writes the workload's bursty trace file.
fn write_trace(path: &Path, seed: u64) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let file = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut out = std::io::BufWriter::new(file);
    acsched::trace::generate(
        &acsched::trace::GenConfig {
            profile: acsched::trace::MmppProfile::Bursty,
            jobs: workloads::TRACE_JOBS,
            seed,
            tasks: 4,
        },
        &mut out,
    )
    .map_err(|e| format!("trace generation: {e}"))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("{}: {e}", tmp.display()))?;
    drop(out);
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn run(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench-work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let w = workloads::build(&args.workload, args.seed, &work_dir)?;
    if let Some((path, seed)) = &w.trace {
        write_trace(path, *seed)?;
    }

    let measured = if args.selftest {
        selftest(&w, threads, args.seconds)
    } else if args.trace {
        traced_run(&w, threads, args.seconds)
            .map(|t| (t.correct, t.attempted, t.failed, t.digest, t.metrics))
    } else {
        untraced_run(&w, threads, args.seconds)
    };
    // The trace is regenerated per run (about a second) rather than left
    // behind: each seed's file is tens of MB.
    if let Some((path, _)) = &w.trace {
        let _ = std::fs::remove_file(path);
    }
    let (correct, attempted, failed, digest, metrics) = measured?;

    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    println!(
        "stamp {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {threads}, \
         \"threads\": {threads}, \"cpu\": \"{}\", \"commit\": \"{}\", \"source\": \"{}\", \
         \"digest\": \"{digest:016x}\"}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        cpu_model().replace('"', "'"),
        commit(),
        source_digest()
    );
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

type RunResult = (bool, usize, usize, u64, Vec<Metric>);

fn report(violations: &[String]) -> bool {
    for v in violations {
        eprintln!("perfbench: check failed: {v}");
    }
    violations.is_empty()
}

/// Untraced passes until `seconds` are spent (at least one; another
/// only when the last one's duration still fits).
fn untraced_run(
    w: &workloads::Workload,
    threads: usize,
    seconds: f64,
) -> Result<RunResult, String> {
    let loaded = load(w)?;
    let mut setup = SetupTimes::default();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let t = Instant::now();
        setup.measure(w, threads)?;
        passes.push(pass(&loaded, threads, None)?);
        if passes.len() == 1 {
            // After one pass, so the figure does not depend on how many
            // passes fit into `seconds`.
            rss_mb = peak_rss_mb();
        }
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let first = &passes[0].outcome;
    let mut violations = first.violations.clone();
    if passes.iter().any(|p| p.outcome.digest.0 != first.digest.0) {
        violations.push("repeated passes gave different outputs".into());
    }
    let mut rps: Vec<f64> = passes.iter().map(Pass::runs_per_s).collect();
    let metrics = vec![
        ("setup_s", "s", median(&mut setup.total)),
        ("runs_per_s", "1/s", median(&mut rps)),
        ("peak_rss_mb", "MB", rss_mb),
        ("acs_gain_pct", "%", mean(&first.acs_gains)),
        ("ok_share", "ratio", 1.0 - first.failed_share()),
        ("deadline_met_share", "ratio", first.deadline_met_share()),
    ];
    let attempted = passes.iter().map(|p| p.outcome.runs).sum();
    let failed = passes.iter().map(|p| p.outcome.errored).sum();
    Ok((
        report(&violations),
        attempted,
        failed,
        first.digest.0,
        metrics,
    ))
}

struct Traced {
    correct: bool,
    attempted: usize,
    failed: usize,
    digest: u64,
    metrics: Vec<Metric>,
}

/// Untraced and traced passes in alternation until `seconds` are spent
/// (at least one pair), then the offline replay and the trace reader
/// loop. The per-layer metrics come from the first traced pass; the
/// tracing overhead compares the median simulate times.
fn traced_run(w: &workloads::Workload, threads: usize, seconds: f64) -> Result<Traced, String> {
    let loaded = load(w)?;
    let mut setup = SetupTimes::default();
    let start = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<(Pass, Pass)> = None;
    loop {
        let t = Instant::now();
        setup.measure(w, threads)?;
        let plain = pass(&loaded, threads, None)?;
        let tr = pass(&loaded, threads, Some(&plain.plans))?;
        plain_s.push(plain.simulate_s);
        traced_s.push(tr.simulate_s);
        attempted += plain.outcome.runs + tr.outcome.runs;
        failed += plain.outcome.errored + tr.outcome.errored;
        if tr.outcome.digest.0 != plain.outcome.digest.0 {
            first
                .get_or_insert((plain, tr))
                .1
                .outcome
                .violations
                .push("traced and untraced runs gave different outputs".into());
        } else {
            first.get_or_insert((plain, tr));
        }
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let (plain, tr) = first.expect("at least one pass pair ran");
    let mut violations = tr.outcome.violations.clone();
    if plain.outcome.digest.0 != tr.outcome.digest.0 {
        violations.push("the first untraced and traced passes disagree".into());
    }

    let mut wcs_ms = Vec::new();
    let mut acs_ms = Vec::new();
    let (mut evaluations, mut outer, mut subs, mut replay_jobs) = (0u64, 0u64, 0u64, 0usize);
    for l in &loaded {
        let r =
            replay::replay_plan(&l.scenario, threads).map_err(|e| format!("{}: {e}", l.label))?;
        replay_jobs += r.jobs;
        wcs_ms.extend(r.wcs_ms);
        acs_ms.extend(r.acs_ms);
        evaluations += r.evaluations;
        outer += r.outer_iterations;
        subs += r.sub_instances;
    }
    if replay_jobs != plain.plan_jobs {
        violations.push(format!(
            "offline replay ran {replay_jobs} synthesis jobs, the plan {}",
            plain.plan_jobs
        ));
    }
    let solve_s = (wcs_ms.iter().sum::<f64>() + acs_ms.iter().sum::<f64>()) / 1e3;

    let (read_ns, overload) = match &w.trace {
        Some((path, _)) => {
            let (records, secs) = replay::read_trace(path)?;
            (
                secs * 1e9 / records.max(1) as f64,
                tr.outcome.overload_miss_share(),
            )
        }
        None => (0.0, 0.0),
    };

    let all: Vec<&SimSpan> = tr.spans.values().flatten().collect();
    let span_ms =
        |spans: &[&SimSpan]| -> Vec<f64> { spans.iter().map(|s| s.ns as f64 / 1e6).collect() };
    let of = |label: &str| -> Vec<&SimSpan> {
        tr.spans
            .get(label)
            .map_or(Vec::new(), |v| v.iter().collect())
    };
    let span_total_ns: u64 = all.iter().map(|s| s.ns).sum();
    let dispatches: u64 = all.iter().map(|s| s.dispatches).sum();
    let boundaries: Vec<(probe::BoundaryKind, f64)> = all
        .iter()
        .flat_map(|s| s.boundaries.iter().map(|&(k, ns)| (k, ns as f64 / 1e6)))
        .collect();
    let boundary_total_ns = boundaries.iter().fold(0.0, |a, b| a + b.1 * 1e6);
    let of_kind = |k: probe::BoundaryKind| -> Vec<f64> {
        boundaries
            .iter()
            .filter(|b| b.0 == k)
            .map(|b| b.1)
            .collect()
    };
    let mut b_ms: Vec<f64> = boundaries.iter().map(|b| b.1).collect();
    let mut carry = of_kind(probe::BoundaryKind::Carry);
    let mut cache = of_kind(probe::BoundaryKind::Cache);
    let mut resolve = of_kind(probe::BoundaryKind::Resolve);
    let adopted: u64 = all.iter().map(|s| s.adopted).sum();
    let replay_spans = of("replay");
    let replay_ns: u64 = replay_spans.iter().map(|s| s.ns).sum();
    let mut sink_us: Vec<f64> = tr.sink_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mut run_ms = span_ms(&all);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let metrics: Vec<Metric> = vec![
        ("scenario.parse_ms", "ms", median(&mut setup.parse) * 1e3),
        ("scenario.build_ms", "ms", median(&mut setup.build) * 1e3),
        ("runtime.plan_s", "s", plain.plan_s),
        ("runtime.plan_jobs", "count", plain.plan_jobs as f64),
        (
            "runtime.plan_idle_share",
            "ratio",
            1.0 - ratio(solve_s, threads as f64 * plain.plan_s),
        ),
        ("runtime.simulate_s", "s", tr.simulate_s),
        (
            "runtime.pool_idle_share",
            "ratio",
            1.0 - ratio(span_total_ns as f64 / 1e9, threads as f64 * tr.simulate_s),
        ),
        (
            "runtime.sink_s",
            "s",
            sink_us.iter().fold(0.0, |a, b| a + b) / 1e6,
        ),
        ("runtime.sink_us_p99", "us", percentile(&mut sink_us, 99.0)),
        ("runtime.records", "count", tr.outcome.cells as f64),
        ("runtime.failed_share", "ratio", tr.outcome.failed_share()),
        ("core.wcs_ms_p50", "ms", median(&mut wcs_ms)),
        ("core.wcs_ms_max", "ms", max(&wcs_ms)),
        ("core.acs_ms_p50", "ms", median(&mut acs_ms)),
        ("core.acs_ms_max", "ms", max(&acs_ms)),
        ("opt.evaluations", "count", evaluations as f64),
        ("opt.outer_iterations", "count", outer as f64),
        ("preempt.sub_instances", "count", subs as f64),
        ("sim.runs", "count", all.len() as f64),
        ("sim.run_ms_p50", "ms", median(&mut run_ms)),
        ("sim.run_ms_p99", "ms", percentile(&mut run_ms, 99.0)),
        ("sim.dispatches", "count", dispatches as f64),
        (
            "sim.jobs",
            "count",
            all.iter().map(|s| s.completions).sum::<u64>() as f64,
        ),
        (
            "sim.engine_ns_per_dispatch",
            "ns",
            ratio(span_total_ns as f64 - boundary_total_ns, dispatches as f64),
        ),
        ("reopt.boundaries", "count", b_ms.len() as f64),
        ("reopt.boundary_ms_p50", "ms", median(&mut b_ms)),
        ("reopt.boundary_ms_p99", "ms", percentile(&mut b_ms, 99.0)),
        ("reopt.boundary_ms_max", "ms", max(&b_ms)),
        ("reopt.carry_hits", "count", carry.len() as f64),
        ("reopt.carry_ms_p50", "ms", median(&mut carry)),
        ("reopt.cache_hits", "count", cache.len() as f64),
        ("reopt.cache_ms_p50", "ms", median(&mut cache)),
        ("reopt.resolves", "count", resolve.len() as f64),
        ("reopt.resolve_ms_p50", "ms", median(&mut resolve)),
        ("reopt.resolve_ms_p99", "ms", percentile(&mut resolve, 99.0)),
        ("reopt.adopted", "count", adopted as f64),
        (
            "reopt.adopt_ratio",
            "ratio",
            ratio(adopted as f64, resolve.len() as f64),
        ),
        (
            "reopt.boundary_share",
            "ratio",
            ratio(boundary_total_ns, span_total_ns as f64),
        ),
        ("reopt.gain_pct", "%", mean(&tr.outcome.reopt_gains)),
        ("multi.migrations", "count", tr.outcome.migrations as f64),
        (
            "multi.partitioned_run_ms_p50",
            "ms",
            median(&mut span_ms(&of("partitioned"))),
        ),
        (
            "multi.global_run_ms_p50",
            "ms",
            median(&mut span_ms(&of("global"))),
        ),
        ("trace.read_ns_per_record", "ns", read_ns),
        (
            "trace.replay_ns_per_job",
            "ns",
            ratio(replay_ns as f64, tr.outcome.trace_jobs as f64),
        ),
        ("trace.overload_miss_share", "ratio", overload),
        (
            "bench.trace_overhead_pct",
            "%",
            (ratio(median(&mut traced_s), median(&mut plain_s)) - 1.0) * 100.0,
        ),
    ];
    Ok(Traced {
        correct: report(&violations),
        attempted,
        failed,
        digest: tr.outcome.digest.0,
        metrics,
    })
}

/// Two traced runs; every [`EXACT`] metric and the digest must repeat.
fn selftest(w: &workloads::Workload, threads: usize, seconds: f64) -> Result<RunResult, String> {
    let a = traced_run(w, threads, seconds)?;
    let b = traced_run(w, threads, seconds)?;
    let mut ok = a.correct && b.correct;
    for ((name, _, x), (_, _, y)) in a.metrics.iter().zip(&b.metrics) {
        if EXACT.contains(name) && x.to_bits() != y.to_bits() {
            eprintln!("perfbench: selftest: {name} differs between traced runs: {x} vs {y}");
            ok = false;
        }
    }
    if a.digest != b.digest {
        eprintln!("perfbench: selftest: traced runs gave different outputs");
        ok = false;
    }
    eprintln!(
        "perfbench: selftest {}",
        if ok { "passed" } else { "FAILED" }
    );
    Ok((
        ok,
        a.attempted + b.attempted,
        a.failed + b.failed,
        a.digest,
        a.metrics,
    ))
}
