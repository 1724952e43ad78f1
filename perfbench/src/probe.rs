//! Layer probes built only from what the public API already accepts:
//! a [`Policy`] wrapper (installed through `PolicySpec::custom`) and a
//! [`ResultSink`] wrapper. Both delegate every call unchanged, so the
//! traced run's records must match the untraced run's bit for bit.

use acsched::model::units::{Cycles, Freq};
use acsched::model::{TaskId, TaskSet};
use acsched::power::Processor;
use acsched::runtime::{CampaignMeta, CellRecord, PolicySpec, ResultSink};
use acsched::sim::{DispatchContext, Policy, SolverContext, SolverStats};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a boundary was answered, from the inner policy's
/// `solver_stats()` delta across the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// No solver lookup happened at this boundary.
    Idle,
    /// Answered by the carried warm solve.
    Carry,
    /// Answered by the shared solver cache.
    Cache,
    /// A multi-start re-solve ran.
    Resolve,
}

/// What one simulator (one policy instance) did.
#[derive(Debug, Default)]
pub struct SimSpan {
    /// Factory call to `Drop`, ns.
    pub ns: u64,
    pub dispatches: u64,
    pub completions: u64,
    /// `(kind, ns)` per `on_boundary` call.
    pub boundaries: Vec<(BoundaryKind, u64)>,
    /// Re-solved candidates the inner policy adopted.
    pub adopted: u64,
}

/// Spans of every simulator of one campaign, pushed on `Drop`.
pub type SpanLog = Arc<Mutex<Vec<SimSpan>>>;

/// Delegates every [`Policy`] method to `inner`, counting dispatches and
/// completions (never timing them — a clock read per dispatch would
/// swamp a dispatch) and timing each boundary.
struct Probe {
    inner: Box<dyn Policy>,
    log: SpanLog,
    born: Instant,
    used: bool,
    span: SimSpan,
}

impl Policy for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn needs_schedule(&self) -> bool {
        self.inner.needs_schedule()
    }

    fn on_start(&mut self, set: &TaskSet, cpu: &Processor) {
        self.used = true;
        self.inner.on_start(set, cpu);
    }

    fn on_release(&mut self, task: TaskId, set: &TaskSet, cpu: &Processor) {
        self.inner.on_release(task, set, cpu);
    }

    fn on_completion(&mut self, task: TaskId, actual: Cycles, set: &TaskSet, cpu: &Processor) {
        self.span.completions += 1;
        self.inner.on_completion(task, actual, set, cpu);
    }

    fn wants_boundaries(&self) -> bool {
        self.inner.wants_boundaries()
    }

    fn on_boundary(&mut self, ctx: &SolverContext<'_>) {
        let before = self.inner.solver_stats().unwrap_or_default();
        let t = Instant::now();
        self.inner.on_boundary(ctx);
        let ns = t.elapsed().as_nanos() as u64;
        let d = self
            .inner
            .solver_stats()
            .unwrap_or_default()
            .delta_since(before);
        let kind = if d.resolves > 0 {
            BoundaryKind::Resolve
        } else if d.cache_hits > 0 {
            BoundaryKind::Cache
        } else if d.warm_carry_hits > 0 {
            BoundaryKind::Carry
        } else {
            BoundaryKind::Idle
        };
        self.span.adopted += d.adopted as u64;
        self.span.boundaries.push((kind, ns));
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        self.inner.solver_stats()
    }

    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        self.used = true;
        self.span.dispatches += 1;
        self.inner.on_dispatch(ctx)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // `PolicySpec::custom` probes one instance for its name; an
        // instance the engine never drove is not a simulator.
        if !self.used {
            return;
        }
        let mut span = std::mem::take(&mut self.span);
        span.ns = self.born.elapsed().as_nanos() as u64;
        if let Ok(mut log) = self.log.lock() {
            log.push(span);
        }
    }
}

/// Wraps `spec` so every instance it makes is probed into `log`.
pub fn probed(spec: PolicySpec, log: &SpanLog) -> PolicySpec {
    let log = Arc::clone(log);
    PolicySpec::custom(move || {
        Box::new(Probe {
            born: Instant::now(),
            inner: spec.instantiate(),
            log: Arc::clone(&log),
            used: false,
            span: SimSpan::default(),
        })
    })
}

/// Times every `on_record` of the wrapped sink.
pub struct TimedSink<'a> {
    pub inner: &'a mut dyn ResultSink,
    /// ns per `on_record` call.
    pub record_ns: Vec<u64>,
}

impl ResultSink for TimedSink<'_> {
    fn on_begin(&mut self, meta: &CampaignMeta) -> io::Result<()> {
        self.inner.on_begin(meta)
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.on_record(record);
        self.record_ns.push(t.elapsed().as_nanos() as u64);
        r
    }

    fn on_end(&mut self) -> io::Result<()> {
        self.inner.on_end()
    }
}
