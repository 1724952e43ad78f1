//! The benchmark workloads: scenario texts written from the workload
//! seed. The program only ever sees these generated inputs (and, for
//! `dispatch_stream`, the generated `acsched-trace v1` file).
//!
//! Every workload runs one seed per grid cell, so a cell's outcome is
//! exactly one simulator run's outcome and the failure accounting is
//! per run.

use acsched::scenario::Scenario;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The three workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["offline_synth", "reopt_online", "dispatch_stream"];

/// The processor family every workload shares: linear, κ = 50, 0.3–4 V
/// (so `fmax` = 200 cycles/ms for the random-set generator).
const LINEAR50: &str = "processor linear50 linear kappa=50 vmin=0.3 vmax=4";

/// Task counts of the random-set strata: `offline_synth` spans the
/// paper's 4–10; `reopt_online` shifts to 2–8, because boundary solves
/// grow with the jobs per hyper-period.
const SYNTH_TASKS: std::ops::RangeInclusive<u32> = 4..=10;
const REOPT_TASKS: std::ops::RangeInclusive<u32> = 2..=8;

/// BCEC/WCEC ratios of the random-set strata: one set per (count,
/// ratio) pair. `tasksets random` names rows by count, ratio and index,
/// so two count=1 lines of one stratum would collide: more sets per run
/// come from more ratios.
const RATIOS: [&str; 9] = [
    "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9",
];

/// Hyper-period every random set is drawn with, ms. The generator's
/// period pool gives hyper-periods from 10 to 240 ms, and the NLP size
/// (sub-instances) — hence the solve cost — follows it; fixing it makes
/// every seed pose problems of the same size.
const HYPER_PERIOD_MS: u64 = 60;

/// Generator seeds tried per stratum before giving up.
const MAX_CANDIDATES: u64 = 5000;

/// The `multicore_sweep` hexad set.
const HEXAD: &str = "taskset hexad
task t1 period=10 wcec=400 acec=160 bcec=40
task t2 period=10 wcec=300 acec=120 bcec=30
task t3 period=20 wcec=600 acec=240 bcec=60
task t4 period=20 wcec=400 acec=160 bcec=40
task t5 period=40 wcec=480 acec=192 bcec=48
task t6 period=40 wcec=320 acec=128 bcec=32
end";

/// The `dag_global` churn set: heavy enough that global dispatch
/// migrates jobs.
const CHURN: &str = "taskset churn
task s period=20 wcec=400 acec=160 bcec=40
task l period=20 wcec=1400 acec=560 bcec=140
task w period=60 wcec=1200 acec=480 bcec=120
task c period=60 wcec=2800 acec=1120 bcec=280
end";

/// The `multicore_sweep` leaky processor (same linear κ = 50 family).
const LEAKY: &str = "processor leaky linear kappa=50 vmin=0.3 vmax=4 static_power=40 idle_power=2";

/// Hyper-periods of the hexad dispatch campaigns.
const DISPATCH_HYPER_PERIODS: u32 = 2000;

/// Jobs in the generated bursty trace.
pub const TRACE_JOBS: u64 = 1_000_000;

/// One campaign of a workload.
pub struct CampaignText {
    /// Short label used in the traced attribution (`uni`, `global`, ...).
    pub label: &'static str,
    /// The scenario text handed to `Scenario::from_text`.
    pub text: String,
}

/// A generated workload: its campaigns plus the trace file it replays
/// (if any).
pub struct Workload {
    pub name: &'static str,
    pub campaigns: Vec<CampaignText>,
    /// The `acsched-trace v1` file the replay campaign reads, with its
    /// generator seed.
    pub trace: Option<(PathBuf, u64)>,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `tasksets random` lines, one per task-count × ratio stratum. Each
/// line's generator seed is the first of a seed-derived candidate
/// sequence whose set has a [`HYPER_PERIOD_MS`] hyper-period; the
/// candidates are materialized through the scenario parser, so the
/// program regenerates exactly the set that was checked.
fn random_sets(
    out: &mut String,
    seed: u64,
    tasks: std::ops::RangeInclusive<u32>,
) -> Result<(), String> {
    // Largest sets first: planning hands jobs out in grid order, so the
    // pool's tail is a small solve rather than the largest one.
    for (stratum, (n, r)) in tasks.rev().flat_map(|n| RATIOS.map(|r| (n, r))).enumerate() {
        let line = (0..MAX_CANDIDATES)
            .map(|k| {
                // The generator adds the row index to the seed; keep the
                // value far below `u64::MAX`.
                let s = mix(mix(seed, stratum as u64 + 1), k) % 1_000_000_000_000;
                format!("tasksets random tasks={n} ratio={r} count=1 seed={s} fmax=200")
            })
            .find(|line| {
                Scenario::from_text(&format!("acsched-scenario v1\n{line}\n"))
                    .and_then(|sc| sc.materialize_task_sets())
                    .is_ok_and(|sets| {
                        sets.first()
                            .is_some_and(|(_, set)| set.hyper_period().get() == HYPER_PERIOD_MS)
                    })
            })
            .ok_or_else(|| {
                format!("no {n}-task set with a {HYPER_PERIOD_MS} ms hyper-period found")
            })?;
        writeln!(out, "{line}").expect("writing to a String cannot fail");
    }
    Ok(())
}

/// Builds the named workload from `seed`. `work_dir` receives generated
/// files (the trace); it must already exist.
pub fn build(name: &str, seed: u64, work_dir: &Path) -> Result<Workload, String> {
    let sim_seed = mix(seed, 0x5EED) % 1_000_000;
    match name {
        "offline_synth" => {
            let mut t = String::from("acsched-scenario v1\n");
            random_sets(&mut t, seed, SYNTH_TASKS)?;
            write!(
                t,
                "{LINEAR50}\nschedules wcs acs\npolicy greedy\nworkload paper\n\
                 seeds {sim_seed}\nhyper_periods 2\nsynthesis quick\nacs_multistart on\n"
            )
            .expect("writing to a String cannot fail");
            Ok(Workload {
                name: "offline_synth",
                campaigns: vec![CampaignText {
                    label: "synth",
                    text: t,
                }],
                trace: None,
            })
        }
        "reopt_online" => {
            let mut t = String::from("acsched-scenario v1\n");
            random_sets(&mut t, mix(seed, 0x0E0F), REOPT_TASKS)?;
            write!(
                t,
                "{LINEAR50}\nschedules wcs acs\npolicy greedy\npolicy reopt\nworkload paper\n\
                 seeds {sim_seed}\nhyper_periods 2\nsynthesis quick\n"
            )
            .expect("writing to a String cannot fail");
            Ok(Workload {
                name: "reopt_online",
                campaigns: vec![CampaignText {
                    label: "reopt",
                    text: t,
                }],
                trace: None,
            })
        }
        "dispatch_stream" => {
            // The hexad sweep, split by placement so the traced pass can
            // attribute simulator spans to single-core, partitioned and
            // global dispatch. Together the three grids are the
            // `cores 1 2 4 partition=ffd,wfd` × partitioned+global grid.
            let axes = format!(
                "{LEAKY}\nclass rm,edf\narrivals periodic,sporadic\nschedules wcs acs\n\
                 policy greedy\npolicy ccrm\npolicy no-dvs\nworkload paper\n\
                 seeds {sim_seed}\nhyper_periods {DISPATCH_HYPER_PERIODS}\nsynthesis quick\n"
            );
            let uni = format!("acsched-scenario v5\n{HEXAD}\n{axes}");
            let partitioned = format!(
                "acsched-scenario v5\n{HEXAD}\n{axes}cores 2 4 partition=ffd,wfd\n\
                 placement partitioned\n"
            );
            // Global cells skip schedule-backed policies and run
            // periodic arrivals only; the `dag_global` churn set is added
            // because the light hexad set never migrates a job.
            let global = format!(
                "acsched-scenario v5\n{HEXAD}\n{CHURN}\n{LEAKY}\nclass rm,edf\n\
                 policy ccrm\npolicy no-dvs\nworkload paper\n\
                 seeds {sim_seed}\nhyper_periods {DISPATCH_HYPER_PERIODS}\nsynthesis quick\n\
                 cores 2 4\nplacement global\n"
            );
            let trace_seed = mix(seed, 0x7ACE) % 1_000_000_000;
            let trace_path = work_dir.join(format!("bursty-{trace_seed}.trace"));
            // Trace replay is single-core only, so it is its own grid.
            let replay = format!(
                "acsched-scenario v4\ntaskset bursty trace {}\n{LINEAR50}\nschedules wcs\n\
                 policy greedy\npolicy ccrm\npolicy no-dvs\nworkload paper\nseeds {sim_seed}\n\
                 synthesis quick\n",
                trace_path.display()
            );
            Ok(Workload {
                name: "dispatch_stream",
                campaigns: vec![
                    CampaignText {
                        label: "uni",
                        text: uni,
                    },
                    CampaignText {
                        label: "partitioned",
                        text: partitioned,
                    },
                    CampaignText {
                        label: "global",
                        text: global,
                    },
                    CampaignText {
                        label: "replay",
                        text: replay,
                    },
                ],
                trace: Some((trace_path, trace_seed)),
            })
        }
        _ => Err(format!("unknown workload {name}")),
    }
}
