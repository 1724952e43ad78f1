//! The voltage-scheduling NLP (paper §3.2).
//!
//! Decision variables, for the `M` sub-instances of the fully preemptive
//! expansion in total order:
//!
//! * `e_u` — scheduled end time of sub-instance `u` (ms). Shared between
//!   the average- and worst-case scenarios (paper: "the end-times are the
//!   same for both").
//! * `w_u` — worst-case workload share `R̂_u`, *scaled to milliseconds at
//!   maximum speed* (`w_u = R̂_u / f_max`) so every variable is O(window
//!   length) and the problem is well conditioned.
//!
//! Constraints (all linear):
//!
//! * window: `r_u ≤ e_u ≤ L_u`;
//! * non-negativity: `w_u ≥ 0`;
//! * worst-case feasibility: `w_u ≤ e_u − e_{u−1}` and `w_u ≤ e_u − r_u`
//!   — together they guarantee `R̂_u` cycles fit at `f_max` after the
//!   worst-case start `ŝ_u = max(r_u, e_{u−1})` (paper constraint (8));
//! * conservation: `Σ_k w_{(i,j),k} = WCEC_i / f_max` per instance
//!   (paper constraints (10)–(11)).
//!
//! The objective is the energy of the greedy runtime's trace when every
//! instance draws a prescribed workload (ACEC by default): the fill rule
//! (paper (12)–(14), here an exact clamp instead of the indicator-variable
//! encoding), the average start-time recursion `s̄_u = max(r_u, f̄_{u−1})`
//! (paper constraint (9) models this with a slack bound; we use the exact
//! greedy recursion), and the per-cycle energy `C·V(σ_u)²` at the dispatch
//! speed `σ_u`. Piecewise constructs are softened with a temperature the
//! augmented-Lagrangian driver anneals to zero.

use crate::chain::{pull, relu, softplus, Chain, Step};
use crate::quantile::truncated_normal_strata;
use crate::trace::SpeedBasis;
use acs_model::TaskSet;
use acs_opt::problem::{ConstrainedProblem, LinearConstraints, ProblemExprs, SparseLinear};
use acs_opt::tape::{Expr, Graph};
use acs_power::{FreqModel, Processor};
use acs_preempt::FullyPreemptiveSchedule;
use std::cell::RefCell;

/// Objective flavor for schedule synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Energy of the greedy runtime trace when every instance takes its
    /// ACEC — the paper's formulation with the exact greedy start-time
    /// recursion. The default for ACS.
    AcecTrace,
    /// Like [`ObjectiveKind::AcecTrace`] but pretends the runtime
    /// stretches the *average* workload over each window (a literal
    /// reading of the paper's eq. (4)); kept for the objective ablation.
    PaperIdealSpeed,
    /// Energy when every instance takes its WCEC — the classic
    /// worst-case-only static schedule (the paper's WCS baseline).
    WorstCase,
    /// Probability-weighted energy over `n` equal-mass workload quantiles
    /// of each task's truncated normal `N(ACEC, ((WCEC−BCEC)/6)²)`
    /// (paper §3.2's "probability weighted workload" remark; the strata
    /// are coupled comonotonically across tasks).
    Quantiles(usize),
}

/// One deterministic workload scenario entering the objective.
#[derive(Debug, Clone)]
struct Scenario {
    weight: f64,
    /// Per-task instance workload, scaled to ms at `f_max`.
    totals_ms: Vec<f64>,
    basis: SpeedBasis,
}

/// The NLP instance for one (task set, processor, expansion) triple.
#[derive(Debug)]
pub struct ScheduleProblem<'a> {
    set: &'a TaskSet,
    cpu: &'a Processor,
    fps: &'a FullyPreemptiveSchedule,
    scenarios: Vec<Scenario>,
    /// Objective normalization (worst-case all-`vmax` energy).
    norm: f64,
    /// The greedy-chain constants, shared by the tape `build` and the
    /// tape-free kernel.
    chain: Chain<'a>,
    /// Optional warm-start point overriding the built-in heuristic.
    warm_start: Option<Vec<f64>>,
    /// Per sub-instance window start (ms).
    release_ms: Vec<f64>,
    /// Per sub-instance effective switching capacitance.
    c_eff: Vec<f64>,
    /// Fill order of the sub-instances: each instance's chunks, instances
    /// in task-then-index order.
    fill_order: Vec<usize>,
    /// Per instance: its task index and the range of its chunks in
    /// `fill_order`.
    fill_instances: Vec<(usize, usize, usize)>,
    /// Intermediates of [`ConstrainedProblem::objective_grad`], reused
    /// across evaluations.
    scratch: RefCell<Scratch>,
}

/// The forward records one scenario's tape-free evaluation keeps for its
/// reverse sweep, sized once per problem.
#[derive(Debug)]
struct Scratch {
    steps: Vec<Step>,
    fill: Vec<FillStep>,
    exec: Vec<f64>,
    adj_exec: Vec<f64>,
    energies: Vec<f64>,
}

/// Local partials of one [`clamp01`] of the fill rule.
#[derive(Debug, Clone, Copy, Default)]
struct FillStep {
    /// Partial of the `rem` kink (`softplus(rem)` or `relu(rem)`).
    d_rem: f64,
    /// Partial of the `hi` kink (`softplus(w)` or `relu(w)`).
    d_hi: f64,
    /// Smoothed: partial of `softplus(rem − softplus(w))`.
    d_q: f64,
    /// Exact: the `min` took the `rem` branch.
    take_rem: bool,
}

impl<'a> ScheduleProblem<'a> {
    /// Builds the problem for the given objective.
    pub fn new(
        set: &'a TaskSet,
        cpu: &'a Processor,
        fps: &'a FullyPreemptiveSchedule,
        objective: ObjectiveKind,
    ) -> Self {
        let fmax = cpu.f_max().as_cycles_per_ms();
        let scale = |cycles: f64| cycles / fmax;
        let scenarios = match objective {
            ObjectiveKind::AcecTrace => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.acec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::WorstRemaining,
            }],
            ObjectiveKind::PaperIdealSpeed => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.acec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::AverageWork,
            }],
            ObjectiveKind::WorstCase => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.wcec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::WorstRemaining,
            }],
            ObjectiveKind::Quantiles(n) => {
                let n = n.max(1);
                let per_task: Vec<Vec<f64>> = set
                    .tasks()
                    .iter()
                    .map(|t| {
                        let sd = (t.wcec().as_cycles() - t.bcec().as_cycles()) / 6.0;
                        truncated_normal_strata(
                            t.acec().as_cycles(),
                            sd,
                            t.bcec().as_cycles(),
                            t.wcec().as_cycles(),
                            n,
                        )
                        .into_iter()
                        .map(|s| scale(s.value))
                        .collect()
                    })
                    .collect();
                (0..n)
                    .map(|j| Scenario {
                        weight: 1.0 / n as f64,
                        totals_ms: per_task.iter().map(|q| q[j]).collect(),
                        basis: SpeedBasis::WorstRemaining,
                    })
                    .collect()
            }
        };
        let vmax = cpu.vmax().as_volts();
        let norm: f64 = set
            .iter()
            .map(|(id, t)| {
                t.c_eff() * vmax * vmax * t.wcec().as_cycles() * fps.instances_of(id) as f64
            })
            .sum::<f64>()
            .max(1e-12);
        let m = fps.len();
        let mut fill_order = Vec::with_capacity(m);
        let mut fill_instances = Vec::new();
        for (tid, _task) in set.iter() {
            for inst in 0..fps.instances_of(tid) {
                let lo = fill_order.len();
                fill_order.extend(
                    fps.chunks_of(acs_preempt::InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .map(|id| id.0),
                );
                fill_instances.push((tid.0, lo, fill_order.len()));
            }
        }
        let scratch = RefCell::new(Scratch {
            steps: vec![Step::default(); m],
            fill: vec![FillStep::default(); m],
            exec: vec![0.0; m],
            adj_exec: vec![0.0; m],
            energies: vec![0.0; scenarios.len()],
        });
        ScheduleProblem {
            set,
            cpu,
            fps,
            scenarios,
            norm,
            chain: Chain {
                cpu,
                fmax: cpu.f_max().as_cycles_per_ms(),
                eps_t: 1e-6,
                eps_w: 1e-9,
                exact_max_start: true,
            },
            warm_start: None,
            release_ms: fps
                .sub_instances()
                .iter()
                .map(|sub| sub.window_start.as_ms())
                .collect(),
            c_eff: fps
                .sub_instances()
                .iter()
                .map(|sub| set.task(sub.instance.task).c_eff())
                .collect(),
            fill_order,
            fill_instances,
            scratch,
        }
    }

    /// Overrides the starting point of the solve (layout:
    /// `[e_0..e_{M−1}, R̂_0/f_max..R̂_{M−1}/f_max]`). Typically the
    /// solution of a previous (e.g. WCS) synthesis — since the
    /// augmented-Lagrangian driver keeps the best feasible point seen,
    /// warm-starting ACS from a feasible WCS schedule guarantees the
    /// result is no worse than that schedule under the ACS objective.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match `2 · num_subs()`.
    pub fn set_warm_start(&mut self, x0: Vec<f64>) {
        assert_eq!(
            x0.len(),
            2 * self.fps.len(),
            "warm start dimension mismatch"
        );
        self.warm_start = Some(x0);
    }

    /// Number of sub-instances `M` (the problem has `2M` variables).
    pub fn num_subs(&self) -> usize {
        self.fps.len()
    }

    /// Voltage expression for a (non-negative) speed expression, clamped
    /// below at `vmin`.
    fn voltage_expr<'g>(&self, speed: Expr<'g>, tau: f64) -> Expr<'g> {
        voltage_for_speed(self.cpu, speed, tau)
    }

    /// Energy of one scenario's greedy trace, as an expression.
    fn scenario_energy<'g>(
        &self,
        g: &'g Graph,
        e: &[Expr<'g>],
        w: &[Expr<'g>],
        scenario: &Scenario,
        tau: f64,
    ) -> Expr<'g> {
        let m = self.fps.len();
        let fmax = self.cpu.f_max().as_cycles_per_ms();

        // Fill rule: executed share per sub-instance (ms at f_max).
        let mut exec: Vec<Option<Expr<'g>>> = vec![None; m];
        for (tid, _task) in self.set.iter() {
            for inst in 0..self.fps.instances_of(tid) {
                let total = g.constant(scenario.totals_ms[tid.0]);
                let mut prefix = g.constant(0.0);
                for id in self.fps.chunks_of(acs_preempt::InstanceId {
                    task: tid,
                    index: inst,
                }) {
                    let wk = w[id.0];
                    let rem = total - prefix;
                    exec[id.0] = Some(clamp01(rem, wk, tau));
                    prefix = prefix + wk;
                }
            }
        }

        // Greedy start-time recursion along the total order.
        let mut energy = g.constant(0.0);
        let mut f_prev = g.constant(0.0);
        for (u, sub) in self.fps.sub_instances().iter().enumerate() {
            let r = g.constant(sub.window_start.as_ms());
            let s = smax(f_prev, r, tau);
            let a = exec[u].expect("fill visited every sub-instance");
            let gap = e[u] - s;
            let denom = smax_const(gap, self.chain.eps_t, tau) + self.chain.eps_t;
            let basis_w = match scenario.basis {
                SpeedBasis::WorstRemaining => w[u],
                SpeedBasis::AverageWork => a,
            };
            let speed = basis_w * fmax / denom;
            let v = self.voltage_expr(speed, tau);
            let c_eff = self.set.task(sub.instance.task).c_eff();
            energy = energy + c_eff * v.sqr() * (a * fmax);
            let rho = a / (w[u] + self.chain.eps_w);
            f_prev = s + rho * (e[u] - s);
        }
        energy
    }

    /// [`ScheduleProblem::scenario_energy`] without the tape: returns the
    /// scenario's energy and adds its gradient, scaled by `adj_energy`,
    /// into `ge`/`gw` (the end-time and workload halves). Transcribes the
    /// tape's node order exactly ([`crate::chain`]).
    #[allow(clippy::too_many_arguments)]
    fn scenario_grad(
        &self,
        e: &[f64],
        w: &[f64],
        scenario: &Scenario,
        tau: f64,
        adj_energy: f64,
        ge: &mut [f64],
        gw: &mut [f64],
        scratch: &mut Scratch,
    ) -> f64 {
        let Scratch {
            steps,
            fill,
            exec,
            adj_exec,
            ..
        } = scratch;
        let chain = &self.chain;

        // Fill rule, forward.
        for &(task, lo, hi) in &self.fill_instances {
            let total = scenario.totals_ms[task];
            let mut prefix = 0.0;
            for &id in &self.fill_order[lo..hi] {
                exec[id] = clamp01_forward(total - prefix, w[id], tau, &mut fill[id]);
                prefix += w[id];
            }
        }

        // Greedy chain, forward.
        let mut energy = 0.0;
        let mut f_prev = 0.0;
        for u in 0..e.len() {
            let a = exec[u];
            let basis = match scenario.basis {
                SpeedBasis::WorstRemaining => w[u],
                SpeedBasis::AverageWork => a,
            };
            let (term, f) = chain.forward(
                f_prev,
                self.release_ms[u],
                e[u],
                basis,
                a,
                w[u],
                self.c_eff[u],
                tau,
                &mut steps[u],
            );
            energy += term;
            f_prev = f;
        }

        // Greedy chain, reverse.
        let mut adj_f = 0.0;
        for u in (0..e.len()).rev() {
            let back = chain.reverse(&steps[u], adj_energy, adj_f, &mut ge[u]);
            adj_f = back.f_prev;
            gw[u] += back.w;
            let mut adj_a = back.a_rho + back.a_energy;
            match scenario.basis {
                SpeedBasis::WorstRemaining => gw[u] += back.basis,
                SpeedBasis::AverageWork => adj_a += back.basis,
            }
            adj_exec[u] = adj_a;
        }

        // Fill rule, reverse.
        for &(_, lo, hi) in self.fill_instances.iter().rev() {
            let mut adj_prefix = 0.0;
            for &id in self.fill_order[lo..hi].iter().rev() {
                adj_prefix = clamp01_reverse(&fill[id], tau, adj_exec[id], adj_prefix, &mut gw[id]);
            }
        }
        energy
    }
}

/// Voltage expression for a (non-negative) speed expression under `cpu`'s
/// frequency law, clamped below at `vmin`. Shared between the offline
/// [`ScheduleProblem`] and the online remaining-schedule re-optimization
/// ([`crate::reopt`]).
pub(crate) fn voltage_for_speed<'g>(cpu: &Processor, speed: Expr<'g>, tau: f64) -> Expr<'g> {
    let speed = speed.relu();
    let v = match *cpu.freq_model() {
        FreqModel::Linear { kappa } => speed / kappa,
        FreqModel::Alpha { .. } => {
            let model = cpu.freq_model();
            let f_val = speed.value();
            let freq = acs_model::units::Freq::from_cycles_per_ms(f_val.max(0.0));
            let v_val = model.volt_for(freq).as_volts();
            let dv = model.dvolt_dfreq(freq);
            speed.custom_unary(v_val, dv)
        }
    };
    let vmin = cpu.vmin().as_volts();
    smax_const(v, vmin, tau)
}

/// `max(a, b)`: smooth when `tau > 0`, exact otherwise.
pub(crate) fn smax<'g>(a: Expr<'g>, b: Expr<'g>, tau: f64) -> Expr<'g> {
    if tau > 0.0 {
        a.smooth_max(b, tau)
    } else {
        a.max_exact(b)
    }
}

/// `max(a, c)` with a constant — same cost, fewer nodes.
pub(crate) fn smax_const<'g>(a: Expr<'g>, c: f64, tau: f64) -> Expr<'g> {
    if tau > 0.0 {
        (a - c).softplus(tau) + c
    } else {
        (a - c).relu() + c
    }
}

/// `clamp(x, 0, max(hi, 0))`: smooth when `tau > 0`, exact otherwise.
/// The upper bound is sanitized to be non-negative so transiently negative
/// budgets cannot produce negative energy.
fn clamp01<'g>(x: Expr<'g>, hi: Expr<'g>, tau: f64) -> Expr<'g> {
    if tau > 0.0 {
        let hi_pos = hi.softplus(tau);
        x.softplus(tau) - (x - hi_pos).softplus(tau)
    } else {
        x.relu().min_exact(hi.relu())
    }
}

/// [`clamp01`] in plain `f64`: returns the value and records the partials.
fn clamp01_forward(x: f64, hi: f64, tau: f64, st: &mut FillStep) -> f64 {
    if tau > 0.0 {
        let (hi_pos, d_hi) = softplus(hi, tau);
        let (p1, d_rem) = softplus(x, tau);
        let (p2, d_q) = softplus(x - hi_pos, tau);
        (st.d_hi, st.d_rem, st.d_q) = (d_hi, d_rem, d_q);
        p1 - p2
    } else {
        let (r, d_rem) = relu(x);
        let (h, d_hi) = relu(hi);
        (st.d_hi, st.d_rem, st.take_rem) = (d_hi, d_rem, r <= h);
        if r <= h {
            r
        } else {
            h
        }
    }
}

/// Reverse sweep of one fill chunk `exec = clamp01(total − prefix, w)`,
/// `prefix' = prefix + w`, given the adjoints of `exec` and `prefix'`.
/// Adds the workload's contributions to `adj_w`; returns the adjoint of
/// `prefix`.
fn clamp01_reverse(st: &FillStep, tau: f64, adj_exec: f64, adj_next: f64, adj_w: &mut f64) -> f64 {
    let mut adj_prefix = pull(adj_next, 1.0);
    *adj_w += pull(adj_next, 1.0);
    let adj_rem = if tau > 0.0 {
        // exec = softplus(x) − softplus(x − softplus(w))
        let adj_q = pull(pull(adj_exec, -1.0), st.d_q);
        let adj_hi = pull(adj_q, -1.0);
        let adj_rem = pull(adj_q, 1.0) + pull(pull(adj_exec, 1.0), st.d_rem);
        *adj_w += pull(adj_hi, st.d_hi);
        adj_rem
    } else {
        // exec = min(relu(x), relu(w))
        let (sel_rem, sel_hi) = if st.take_rem { (1.0, 0.0) } else { (0.0, 1.0) };
        *adj_w += pull(pull(adj_exec, sel_hi), st.d_hi);
        pull(pull(adj_exec, sel_rem), st.d_rem)
    };
    adj_prefix -= pull(adj_rem, 1.0);
    adj_prefix
}

impl ConstrainedProblem for ScheduleProblem<'_> {
    fn dim(&self) -> usize {
        2 * self.fps.len()
    }

    fn build<'g>(&self, g: &'g Graph, x: &[Expr<'g>], smoothing: f64) -> ProblemExprs<'g> {
        let m = self.fps.len();
        let (e, w) = x.split_at(m);
        let fmax = self.cpu.f_max().as_cycles_per_ms();

        let mut inequalities = Vec::with_capacity(5 * m);
        for (u, sub) in self.fps.sub_instances().iter().enumerate() {
            let r = sub.window_start.as_ms();
            let l = sub.window_end.as_ms();
            inequalities.push(r - e[u]); // e ≥ r
            inequalities.push(e[u] - l); // e ≤ L
            inequalities.push(-w[u]); // w ≥ 0
            let prev_end = if u == 0 { g.constant(0.0) } else { e[u - 1] };
            inequalities.push(w[u] - (e[u] - prev_end)); // fits after prev
            inequalities.push(w[u] - (e[u] - r)); // fits after release
        }

        let mut equalities = Vec::new();
        for (tid, task) in self.set.iter() {
            let budget_ms = task.wcec().as_cycles() / fmax;
            for inst in 0..self.fps.instances_of(tid) {
                let mut sum = g.constant(0.0);
                for id in self.fps.chunks_of(acs_preempt::InstanceId {
                    task: tid,
                    index: inst,
                }) {
                    sum = sum + w[id.0];
                }
                equalities.push(sum - budget_ms);
            }
        }

        let mut objective = g.constant(0.0);
        for scenario in &self.scenarios {
            let energy = self.scenario_energy(g, e, w, scenario, smoothing);
            objective = objective + scenario.weight * energy;
        }
        objective = objective / self.norm;

        ProblemExprs {
            objective,
            inequalities,
            equalities,
        }
    }

    fn linear_constraints(&self) -> Option<LinearConstraints> {
        // Every constraint of the NLP is linear (module docs); the rows
        // mirror `build`'s push order exactly so multiplier vectors are
        // interchangeable between the two evaluation paths.
        let m = self.fps.len();
        let mut ineq = SparseLinear::new();
        for (u, sub) in self.fps.sub_instances().iter().enumerate() {
            let r = sub.window_start.as_ms();
            let l = sub.window_end.as_ms();
            ineq.push_row(&[(u, -1.0)], r); // e ≥ r
            ineq.push_row(&[(u, 1.0)], -l); // e ≤ L
            ineq.push_row(&[(m + u, -1.0)], 0.0); // w ≥ 0
            if u == 0 {
                ineq.push_row(&[(m + u, 1.0), (u, -1.0)], 0.0); // fits after prev
            } else {
                ineq.push_row(&[(m + u, 1.0), (u, -1.0), (u - 1, 1.0)], 0.0);
            }
            ineq.push_row(&[(m + u, 1.0), (u, -1.0)], r); // fits after release
        }
        let fmax = self.cpu.f_max().as_cycles_per_ms();
        let mut eq = SparseLinear::new();
        let mut terms = Vec::new();
        for (tid, task) in self.set.iter() {
            let budget_ms = task.wcec().as_cycles() / fmax;
            for inst in 0..self.fps.instances_of(tid) {
                terms.clear();
                terms.extend(
                    self.fps
                        .chunks_of(acs_preempt::InstanceId {
                            task: tid,
                            index: inst,
                        })
                        .map(|id| (m + id.0, 1.0)),
                );
                eq.push_row(&terms, -budget_ms);
            }
        }
        Some(LinearConstraints { ineq, eq })
    }

    fn objective_grad(&self, x: &[f64], smoothing: f64, grad: &mut [f64]) -> f64 {
        let m = self.fps.len();
        let (e, w) = x.split_at(m);
        grad.fill(0.0);
        let (ge, gw) = grad.split_at_mut(m);
        let scratch = &mut *self.scratch.borrow_mut();
        // The tape sums the scenarios forward and sweeps them backward;
        // each scenario's value is independent of the others, so the
        // sweep runs scenario by scenario in reverse.
        let adj_objective = pull(1.0, 1.0 / self.norm);
        for (j, scenario) in self.scenarios.iter().enumerate().rev() {
            let adj_energy = pull(adj_objective, scenario.weight);
            scratch.energies[j] =
                self.scenario_grad(e, w, scenario, smoothing, adj_energy, ge, gw, scratch);
        }
        let mut objective = 0.0;
        for (scenario, &energy) in self.scenarios.iter().zip(&scratch.energies) {
            objective += energy * scenario.weight;
        }
        objective / self.norm
    }

    fn initial_point(&self) -> Vec<f64> {
        if let Some(x0) = &self.warm_start {
            return x0.clone();
        }
        let m = self.fps.len();
        let fmax = self.cpu.f_max().as_cycles_per_ms();
        let mut x = vec![0.0; 2 * m];
        // End times: stack sub-instances evenly inside each segment.
        for s in 0..self.fps.grid().segment_count() {
            let subs = self.fps.segment_subs(s);
            let n = subs.len().max(1) as f64;
            for (i, sub) in subs.iter().enumerate() {
                let a = sub.window_start.as_ms();
                let b = sub.window_end.as_ms();
                x[sub.id.0] = a + (b - a) * (i as f64 + 1.0) / n;
            }
        }
        // Workloads: split each instance's budget across chunks in
        // proportion to the chunk windows.
        for (tid, task) in self.set.iter() {
            let budget_ms = task.wcec().as_cycles() / fmax;
            for inst in 0..self.fps.instances_of(tid) {
                let ids: Vec<_> = self
                    .fps
                    .chunks_of(acs_preempt::InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .collect();
                let spans: Vec<f64> = ids
                    .iter()
                    .map(|id| self.fps.sub(*id).window_span().as_ms())
                    .collect();
                let total: f64 = spans.iter().sum();
                for (id, span) in ids.iter().zip(&spans) {
                    x[m + id.0] = budget_ms * span / total.max(1e-12);
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Cycles, Ticks, Volt};
    use acs_model::Task;
    use acs_opt::numgrad::max_gradient_error;

    fn fixture() -> (TaskSet, Processor) {
        let set = TaskSet::new(vec![
            Task::builder("a", Ticks::new(4))
                .wcec(Cycles::from_cycles(60.0))
                .acec(Cycles::from_cycles(30.0))
                .bcec(Cycles::from_cycles(6.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(8))
                .wcec(Cycles::from_cycles(80.0))
                .acec(Cycles::from_cycles(40.0))
                .bcec(Cycles::from_cycles(8.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.1))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    #[test]
    fn dimensions_and_counts() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        assert_eq!(p.dim(), 2 * fps.len());
        let g = Graph::new();
        let x0 = p.initial_point();
        let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
        let exprs = p.build(&g, &xs, 1e-3);
        assert_eq!(exprs.inequalities.len(), 5 * fps.len());
        // instances: a has 2, b has 1 => 3 equalities.
        assert_eq!(exprs.equalities.len(), 3);
        assert!(exprs.objective.value().is_finite());
        assert!(exprs.objective.value() > 0.0);
    }

    #[test]
    fn initial_point_satisfies_conservation() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        let x0 = p.initial_point();
        let g = Graph::new();
        let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
        let exprs = p.build(&g, &xs, 0.0);
        for eq in &exprs.equalities {
            assert!(eq.value().abs() < 1e-9, "eq violated: {}", eq.value());
        }
        // Windows respected at the initial point.
        for (i, ineq) in exprs.inequalities.iter().enumerate() {
            // Only the window/non-negativity families are guaranteed.
            if i % 5 < 3 {
                assert!(ineq.value() <= 1e-9, "ineq {i}: {}", ineq.value());
            }
        }
    }

    #[test]
    fn objective_gradient_matches_finite_differences() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        for kind in [
            ObjectiveKind::AcecTrace,
            ObjectiveKind::PaperIdealSpeed,
            ObjectiveKind::WorstCase,
            ObjectiveKind::Quantiles(3),
        ] {
            let p = ScheduleProblem::new(&set, &cpu, &fps, kind);
            let x0 = p.initial_point();
            let smoothing = 1e-2;
            let eval = |xv: &[f64]| {
                let g = Graph::new();
                let xs: Vec<_> = xv.iter().map(|&v| g.input(v)).collect();
                p.build(&g, &xs, smoothing).objective.value()
            };
            let g = Graph::new();
            let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
            let exprs = p.build(&g, &xs, smoothing);
            let grads = g.gradient(exprs.objective);
            let mut analytic = vec![0.0; x0.len()];
            grads.write_wrt(&xs, &mut analytic);
            let err = max_gradient_error(eval, &x0, &analytic, 1e-7);
            assert!(err < 1e-4, "{kind:?}: gradient error {err}");
        }
    }

    #[test]
    fn alpha_model_gradient_matches_finite_differences() {
        let (set, _) = fixture();
        let cpu = Processor::builder(FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.6).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        let x0 = p.initial_point();
        let eval = |xv: &[f64]| {
            let g = Graph::new();
            let xs: Vec<_> = xv.iter().map(|&v| g.input(v)).collect();
            p.build(&g, &xs, 1e-2).objective.value()
        };
        let g = Graph::new();
        let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
        let exprs = p.build(&g, &xs, 1e-2);
        let grads = g.gradient(exprs.objective);
        let mut analytic = vec![0.0; x0.len()];
        grads.write_wrt(&xs, &mut analytic);
        let err = max_gradient_error(eval, &x0, &analytic, 1e-7);
        assert!(err < 1e-3, "alpha gradient error {err}");
    }

    /// The tape-free kernel returns `build().objective`'s value and
    /// gradient bit for bit: every objective kind, both frequency laws,
    /// every temperature, at points that cross each kink (end times
    /// before the start, negative and oversized workloads, finish times
    /// on either side of a release).
    #[test]
    fn kernel_matches_tape_bitwise() {
        use crate::chain::tests::{assert_matches_tape, Rng, TEMPERATURES};
        let (set, linear) = fixture();
        let alpha =
            Processor::builder(FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.6).unwrap())
                .vmin(Volt::from_volts(0.5))
                .vmax(Volt::from_volts(4.0))
                .build()
                .unwrap();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let hyper = set.hyper_period().get() as f64;
        let mut rng = Rng(2005);
        for cpu in [&linear, &alpha] {
            for kind in [
                ObjectiveKind::AcecTrace,
                ObjectiveKind::PaperIdealSpeed,
                ObjectiveKind::WorstCase,
                ObjectiveKind::Quantiles(3),
            ] {
                let p = ScheduleProblem::new(&set, cpu, &fps, kind);
                let m = p.num_subs();
                let x0 = p.initial_point();
                let mut points = vec![x0.clone()];
                // Every end time before its start: gap ≤ 0 everywhere.
                points.push(
                    (0..2 * m)
                        .map(|i| if i < m { -1.0 } else { x0[i] })
                        .collect(),
                );
                // Negative workloads: speed ≤ 0 and negative fill budgets.
                points.push(
                    (0..2 * m)
                        .map(|i| if i < m { x0[i] } else { -x0[i] })
                        .collect(),
                );
                // The first end time on its release: the next start ties
                // `max(f_prev, r)` exactly.
                let mut tie = x0.clone();
                tie[0] = fps.sub_instances()[0].window_start.as_ms();
                points.push(tie);
                for _ in 0..8 {
                    points.push(x0.iter().map(|&v| v + rng.uniform(-0.1, 0.1)).collect());
                }
                for _ in 0..24 {
                    points.push(
                        (0..2 * m)
                            .map(|i| {
                                if i < m {
                                    rng.uniform(-0.25, 1.25) * hyper
                                } else {
                                    rng.uniform(-0.5, 1.5) * x0[i]
                                }
                            })
                            .collect(),
                    );
                }
                for x in &points {
                    for tau in TEMPERATURES {
                        assert_matches_tape(&p, x, tau, &format!("{kind:?} on {cpu:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn worst_case_objective_exceeds_average() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let x0 = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace).initial_point();
        let value = |kind: ObjectiveKind| {
            let p = ScheduleProblem::new(&set, &cpu, &fps, kind);
            let g = Graph::new();
            let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
            p.build(&g, &xs, 0.0).objective.value()
        };
        assert!(value(ObjectiveKind::WorstCase) > value(ObjectiveKind::AcecTrace));
        // The ideal-speed reading can only reduce energy further.
        assert!(value(ObjectiveKind::PaperIdealSpeed) <= value(ObjectiveKind::AcecTrace) + 1e-12);
    }

    #[test]
    fn quantile_objective_brackets_acec() {
        // With a near-symmetric distribution, the quantile-averaged
        // energy is at least the single-ACEC energy (Jensen: energy is
        // convex in the workload) but far below the worst case.
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let x0 = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace).initial_point();
        let value = |kind: ObjectiveKind| {
            let p = ScheduleProblem::new(&set, &cpu, &fps, kind);
            let g = Graph::new();
            let xs: Vec<_> = x0.iter().map(|&v| g.input(v)).collect();
            p.build(&g, &xs, 0.0).objective.value()
        };
        let acec = value(ObjectiveKind::AcecTrace);
        let quant = value(ObjectiveKind::Quantiles(8));
        let worst = value(ObjectiveKind::WorstCase);
        assert!(quant >= acec - 1e-12, "quant={quant} acec={acec}");
        assert!(quant < worst);
    }
}
