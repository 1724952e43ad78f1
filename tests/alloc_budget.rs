//! Allocation-budget regression tests: the engine's steady-state loop
//! must be **allocation-free** (docs/PERF.md).
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! test warms the engine for two hyper-periods (the arena fills:
//! `current` + `spare` [`HpState`]s exist and every backing buffer has
//! reached its high-water capacity), then enables counting and runs
//! further hyper-periods. Zero allocations per job — not "few" — is the
//! pinned contract: any new `Vec::new`/`clone`/`format!` on the hot
//! path fails this suite before it can regress the benchmarks.
//!
//! **Exact under the parallel harness.** Only allocations made by the
//! measuring thread count: the switch and the counter are thread-locals,
//! so libtest's own threads and the other tests of this binary, which
//! run at the same time, never reach the count. The engine runs on the
//! measuring thread, so the zero budget stays exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acs_core::{synthesize_wcs, SynthesisOptions};
use acs_model::units::{Cycles, Freq, Ticks, Volt};
use acs_model::{Task, TaskId, TaskSet};
use acs_power::{FreqModel, Processor};
use acs_sim::policy::{DispatchContext, Policy, SolverContext};
use acs_sim::{NoDvs, SimOptions, Simulator, StaticSpeed};

/// System allocator with a switchable, per-thread allocation counter.
/// Deallocations are not counted: freeing retired buffers is fine,
/// *acquiring* new ones in steady state is the regression.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading them
    // never allocates (which would recurse into the allocator);
    // `try_with` covers a thread that is already tearing them down.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// the thread-locals above, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a new acquisition in disguise.
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting enabled on this thread and returns the exact
/// number of allocation acquisitions (alloc/alloc_zeroed/realloc) it
/// performed here.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get), r)
}

fn set() -> TaskSet {
    let mk = |n: &str, p: u64, w: f64| {
        Task::builder(n, Ticks::new(p))
            .wcec(Cycles::from_cycles(w))
            .acec(Cycles::from_cycles(0.5 * w))
            .bcec(Cycles::from_cycles(0.1 * w))
            .build()
            .unwrap()
    };
    TaskSet::new(vec![
        mk("t1", 10, 400.0),
        mk("t2", 20, 900.0),
        mk("t3", 20, 600.0),
    ])
    .unwrap()
}

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.5))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// Steps `run` until its clock reaches `until_ms` (or it finishes).
fn step_until(run: &mut acs_sim::SteppedRun<'_, '_, '_>, until_ms: f64) {
    while run.clock_ms().is_some_and(|t| t < until_ms) {
        run.step().unwrap();
    }
}

/// The deterministic, allocation-free per-job workload used throughout:
/// a pure function of `(task, instance)` spanning the BCEC–WCEC range.
fn draw(task: TaskId, instance: u64) -> Cycles {
    Cycles::from_cycles(60.0 + ((task.0 as u64 * 131 + instance * 37) % 300) as f64)
}

#[test]
fn steady_state_run_allocates_nothing_without_schedule() {
    let set = set();
    let cpu = cpu();
    let hyper = set.hyper_period().get() as f64;
    let jobs_per_hyper = set.total_instances();
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, NoDvs).with_options(SimOptions {
        hyper_periods: 6,
        ..Default::default()
    });
    let mut run = sim.stepped(&mut workload).unwrap();
    // Warm-up: two full hyper-periods fill the engine arena (`current`
    // plus retired `spare` state, all buffers at capacity).
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    assert_eq!(
        allocs,
        0,
        "steady-state engine loop allocated {allocs} times over \
         {} jobs (3 hyper-periods) — the arena leaked a hot-path site",
        3 * jobs_per_hyper
    );
    run.finish().unwrap();
}

#[test]
fn steady_state_run_allocates_nothing_with_schedule() {
    let set = set();
    let cpu = cpu();
    let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    let hyper = set.hyper_period().get() as f64;
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, StaticSpeed)
        .with_schedule(&schedule)
        .with_options(SimOptions {
            hyper_periods: 6,
            ..Default::default()
        });
    let mut run = sim.stepped(&mut workload).unwrap();
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    assert_eq!(
        allocs, 0,
        "schedule-driven steady state allocated {allocs} times"
    );
    let out = run.finish().unwrap();
    assert_eq!(out.report.deadline_misses, 0);
}

/// A policy that requests the per-boundary [`SolverContext`] snapshot
/// (like `ReOpt` does) but performs no solving: isolates the *engine's*
/// boundary cost — the `InstanceProgress` arena — from the policy's.
#[derive(Default)]
struct BoundaryProbe {
    boundaries: usize,
    jobs_seen: usize,
}

impl Policy for BoundaryProbe {
    fn name(&self) -> &str {
        "boundary-probe"
    }
    fn wants_boundaries(&self) -> bool {
        true
    }
    fn on_boundary(&mut self, ctx: &SolverContext<'_>) {
        self.boundaries += 1;
        self.jobs_seen = self.jobs_seen.max(ctx.progress.len());
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        ctx.cpu.f_max()
    }
}

#[test]
fn boundary_snapshots_stay_within_zero_alloc_budget() {
    let set = set();
    let cpu = cpu();
    let hyper = set.hyper_period().get() as f64;
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, BoundaryProbe::default()).with_options(SimOptions {
        hyper_periods: 6,
        ..Default::default()
    });
    let mut run = sim.stepped(&mut workload).unwrap();
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    // The fixed per-boundary budget is zero: the snapshot lives in the
    // reused `HpState::progress` arena. Every hyper-period fires
    // (1 start + jobs releases + jobs completions) boundaries, so any
    // per-boundary allocation would show up many times over.
    assert_eq!(
        allocs, 0,
        "boundary snapshot path allocated {allocs} times in steady state"
    );
    run.finish().unwrap();
}
