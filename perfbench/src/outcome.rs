//! What a campaign's records say: the output digest, the quality
//! metrics, the failure accounting and the correctness checks.

use acsched::runtime::{CampaignMeta, CellRecord, CellReport, ResultSink};
use std::collections::BTreeMap;
use std::io;

/// Keeps every record a campaign streams (one per cell).
#[derive(Default)]
pub struct Keep(pub Vec<CellReport>);

impl ResultSink for Keep {
    fn on_begin(&mut self, meta: &CampaignMeta) -> io::Result<()> {
        self.0.reserve(meta.cells);
        Ok(())
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        self.0.push(record.cell.clone());
        Ok(())
    }
}

/// FNV-1a, 64 bit: a stable digest across processes and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The tally of one pass over a workload's campaigns.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Digest of the deterministic record columns, in grid order.
    pub digest: Fnv,
    pub cells: usize,
    /// Simulator runs (cell × seed).
    pub runs: usize,
    /// Runs whose cell reported status `failed` (an error).
    pub errored: usize,
    /// Errored runs plus runs with a deadline miss under `periodic` or
    /// `sporadic` arrivals (both feasible by construction).
    pub failed: usize,
    pub jobs: usize,
    pub misses: usize,
    /// Jobs and misses of trace-replayed cells.
    pub trace_jobs: usize,
    pub trace_misses: usize,
    pub migrations: usize,
    /// Per paired periodic cell: % energy ACS saves over WCS under greedy.
    pub acs_gains: Vec<f64>,
    /// Per paired periodic cell: % energy reopt saves over greedy.
    pub reopt_gains: Vec<f64>,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
}

/// The deterministic columns: coordinates, status, energies, misses,
/// jobs, preemptions, migrations, voltage switches and the other
/// run-level counters. The solver counters are left out: with a solver
/// cache shared across parallel runs the carry/cache/resolve split
/// depends on thread interleaving.
fn digest_cell(h: &mut Fnv, c: &CellReport) {
    for s in [
        c.task_set.as_str(),
        &c.processor,
        &c.partition,
        &c.placement,
        c.class.label(),
        c.schedule.label(),
        &c.policy,
        &c.workload,
        &c.arrivals,
    ] {
        h.str(s);
    }
    h.u64(c.cores as u64);
    match &c.outcome {
        Err(e) => h.str(e),
        Ok(s) => {
            h.u64(s.runs as u64);
            for v in [
                s.mean_energy.as_units(),
                s.std_energy,
                s.p95_energy.as_units(),
                s.mean_dynamic_energy.as_units(),
                s.mean_static_energy.as_units(),
                s.mean_idle_energy.as_units(),
                s.worst_lateness_ms,
            ] {
                h.f64(v);
            }
            for &v in &s.per_core_mean_energy {
                h.f64(v);
            }
            for v in [
                s.deadline_misses,
                s.misses_aperiodic,
                s.jobs_completed,
                s.saturated_dispatches,
                s.voltage_switches,
                s.preemptions,
                s.migrations,
                s.clamped_draws,
            ] {
                h.u64(v as u64);
            }
        }
    }
}

/// A cell's coordinates, ending in `|schedule|policy` so pairs can be
/// matched by suffix.
fn pair_key(c: &CellReport) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        c.task_set,
        c.processor,
        c.cores,
        c.partition,
        c.placement,
        c.class.label(),
        c.workload,
        c.arrivals,
        c.schedule.label(),
        c.policy
    )
}

fn gain_pct(base: f64, cand: f64) -> f64 {
    (base - cand) / base * 100.0
}

impl Outcome {
    /// Folds one campaign's records (`seeds` runs per cell) into the
    /// tally.
    pub fn absorb(&mut self, label: &str, seeds: usize, cells: &[CellReport]) {
        self.digest.str(label);
        let mut energy = BTreeMap::new();
        for c in cells {
            digest_cell(&mut self.digest, c);
            self.cells += 1;
            self.runs += seeds;
            let Ok(s) = &c.outcome else {
                self.errored += seeds;
                self.failed += seeds;
                continue;
            };
            let feasible_arrivals = c.arrivals == "periodic" || c.arrivals == "sporadic";
            if feasible_arrivals && s.deadline_misses > 0 {
                // One seed per cell: a cell with misses is one failed run.
                self.failed += seeds;
            }
            if c.arrivals == "periodic" && s.deadline_misses > 0 {
                self.violations.push(format!(
                    "{label}: {} deadline misses on periodic cell {} {} {} {} cores={} {}",
                    s.deadline_misses,
                    c.task_set,
                    c.schedule.label(),
                    c.policy,
                    c.class.label(),
                    c.cores,
                    c.placement
                ));
            }
            if s.solver_lookups != s.warm_carry_hits + s.solver_cache_hits + s.boundary_resolves {
                self.violations.push(format!(
                    "{label}: solver lookups {} != carry {} + cache {} + resolves {} on {} {} {}",
                    s.solver_lookups,
                    s.warm_carry_hits,
                    s.solver_cache_hits,
                    s.boundary_resolves,
                    c.task_set,
                    c.schedule.label(),
                    c.policy
                ));
            }
            self.jobs += s.jobs_completed;
            self.misses += s.deadline_misses;
            self.migrations += s.migrations;
            if c.arrivals == "trace" {
                self.trace_jobs += s.jobs_completed;
                self.trace_misses += s.deadline_misses;
            }
            if c.arrivals == "periodic" {
                energy.insert(pair_key(c), s.mean_energy.as_units());
            }
        }
        // Pairs differ in one coordinate: the schedule (ACS vs WCS under
        // greedy) or the policy (reopt vs greedy under one schedule).
        for (key, &e) in &energy {
            let Some(rest) = key.strip_suffix("|ACS|greedy") else {
                if let Some(rest) = key.strip_suffix("|reopt") {
                    if let Some(&base) = energy.get(&format!("{rest}|greedy")) {
                        self.reopt_gains.push(gain_pct(base, e));
                    }
                }
                continue;
            };
            if let Some(&base) = energy.get(&format!("{rest}|WCS|greedy")) {
                self.acs_gains.push(gain_pct(base, e));
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.runs.max(1) as f64
    }

    pub fn deadline_met_share(&self) -> f64 {
        1.0 - self.misses as f64 / self.jobs.max(1) as f64
    }

    pub fn overload_miss_share(&self) -> f64 {
        self.trace_misses as f64 / self.trace_jobs.max(1) as f64
    }
}

/// Mean of `v`, 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
