//! Offline replay and the trace reader loop: the layers a campaign
//! exercises inside opaque calls, re-driven from outside.
//!
//! [`replay_plan`] re-runs the solves `Campaign::plan` runs — the same
//! deduplicated `(set, class, cores, partitioner)` jobs, each through
//! `synthesize_wcs` and then `synthesize_acs_best` (multistart) or
//! `synthesize_acs_warm` — timing every solve and reading each
//! schedule's `SolveDiagnostics`.

use acsched::core::{
    synthesize_acs_best, synthesize_acs_warm, synthesize_wcs, StaticSchedule, SynthesisOptions,
};
use acsched::model::{SchedulingClass, TaskSet};
use acsched::multi::{partition, PartitionHeuristic, Placement};
use acsched::power::Processor;
use acsched::runtime::ScheduleChoice;
use acsched::scenario::{Scenario, SynthProfile};
use acsched::trace::TraceReader;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Solve timings and solver work of one replayed plan.
#[derive(Debug, Default)]
pub struct PlanReplay {
    /// Deduplicated synthesis jobs (must equal `CampaignPlans::synthesized`).
    pub jobs: usize,
    /// Wall time of each WCS solve, ms.
    pub wcs_ms: Vec<f64>,
    /// Wall time of each ACS solve (both starts under multistart), ms.
    pub acs_ms: Vec<f64>,
    /// Σ `SolveDiagnostics::evaluations` over the kept schedules.
    pub evaluations: u64,
    /// Σ `SolveDiagnostics::outer_iterations` over the kept schedules.
    pub outer_iterations: u64,
    /// Σ sub-instances of the expansions solved over (one per core set).
    pub sub_instances: u64,
}

struct Job {
    set: TaskSet,
    cores: usize,
    part: PartitionHeuristic,
}

/// Replays the plan of `sc` on `threads` workers.
///
/// # Errors
///
/// Materialization errors, as text.
pub fn replay_plan(sc: &Scenario, threads: usize) -> Result<PlanReplay, String> {
    let needs_wcs = sc
        .schedules
        .iter()
        .any(|s| *s != ScheduleChoice::Unscheduled);
    if !needs_wcs {
        return Ok(PlanReplay::default());
    }
    let needs_acs = sc.schedules.contains(&ScheduleChoice::Acs);
    let sets = sc.materialize_task_sets().map_err(|e| e.to_string())?;
    let cpus = sc.materialize_processors().map_err(|e| e.to_string())?;
    let [(_, cpu)] = cpus.as_slice() else {
        return Err("the replay expects exactly one processor".into());
    };
    let options = match sc.synthesis {
        Some(SynthProfile::Default) => SynthesisOptions::default(),
        _ => SynthesisOptions::quick(),
    };
    let classes = or_default(&sc.classes, SchedulingClass::FixedPriorityRm);
    let cores = or_default(&sc.cores, 1);
    let parts = or_default(&sc.partitioners, PartitionHeuristic::FirstFitDecreasing);
    let partitioned = sc.placements.is_empty() || sc.placements.contains(&Placement::Partitioned);
    let mut jobs = Vec::new();
    for (_, set) in &sets {
        for &class in &classes {
            for &k in &cores {
                if k == 1 {
                    jobs.push(Job {
                        set: set.clone().with_class(class),
                        cores: 1,
                        part: parts[0],
                    });
                } else if partitioned {
                    for &part in &parts {
                        jobs.push(Job {
                            set: set.clone().with_class(class),
                            cores: k,
                            part,
                        });
                    }
                }
            }
        }
    }

    let out = Mutex::new(PlanReplay {
        jobs: jobs.len(),
        ..PlanReplay::default()
    });
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, jobs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                replay_job(job, cpu, &options, needs_acs, sc.acs_multistart, &out);
            });
        }
    });
    Ok(out.into_inner().expect("replay lock poisoned"))
}

fn or_default<T: Copy>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

/// Replays one job. A failed solve is timed and skipped, as the plan
/// records it as a failed cell; a failed WCS solve leaves no warm start
/// for ACS, so ACS is skipped with it.
fn replay_job(
    job: &Job,
    cpu: &Processor,
    options: &SynthesisOptions,
    needs_acs: bool,
    multistart: bool,
    out: &Mutex<PlanReplay>,
) {
    let core_sets: Vec<TaskSet> = if job.cores == 1 {
        vec![job.set.clone()]
    } else {
        match partition(&job.set, cpu.f_max(), job.cores, job.part) {
            Ok(p) => p.cores.into_iter().filter_map(|c| c.set).collect(),
            Err(_) => return,
        }
    };
    for set in &core_sets {
        let t = Instant::now();
        let wcs = synthesize_wcs(set, cpu, options);
        let wcs_ms = ms_since(t);
        let acs = match (&wcs, needs_acs) {
            (Ok(wcs), true) => {
                let t = Instant::now();
                let acs = if multistart {
                    synthesize_acs_best(set, cpu, options, wcs)
                } else {
                    synthesize_acs_warm(set, cpu, options, wcs)
                };
                Some((acs, ms_since(t)))
            }
            _ => None,
        };
        let mut o = out.lock().expect("replay lock poisoned");
        o.wcs_ms.push(wcs_ms);
        if let Ok(wcs) = &wcs {
            o.sub_instances += wcs.fps().len() as u64;
            absorb(&mut o, wcs);
        }
        if let Some((acs, ms)) = acs {
            o.acs_ms.push(ms);
            if let Ok(acs) = &acs {
                absorb(&mut o, acs);
            }
        }
    }
}

fn absorb(out: &mut PlanReplay, s: &StaticSchedule) {
    let d = s.diagnostics();
    out.evaluations += d.evaluations as u64;
    out.outer_iterations += d.outer_iterations as u64;
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Reads every record of the trace at `path` with
/// `TraceReader::next_record`; returns `(records, seconds)`.
///
/// # Errors
///
/// Trace open or parse errors, as text.
pub fn read_trace(path: &Path) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let mut records = 0u64;
    while let Some(rec) = reader.next_record().map_err(|e| e.to_string())? {
        std::hint::black_box(rec);
        records += 1;
    }
    Ok((records, t.elapsed().as_secs_f64()))
}
