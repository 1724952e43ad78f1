//! Tape-free objective + gradient of the greedy-chain energy, shared by
//! the offline [`ScheduleProblem`](crate::formulation::ScheduleProblem)
//! and the boundary NLP of [`crate::reopt`].
//!
//! Both objectives walk the sub-instances in total order. Each step takes
//! the greedy start `s = max(f_prev, r)`, the speed that retires the
//! basis workload by the end time `e`, the voltage of that speed, the
//! energy term `C·V²·a·f_max` and the next finish time
//! `s + a/(w + ε)·(e − s)`. [`Chain::forward`] evaluates one step in plain
//! `f64` and records its local partials; [`Chain::reverse`] sweeps them
//! back.
//!
//! The problems' tape `build` implementations stay the specification.
//! This kernel transcribes their node sequence exactly, so values and
//! gradients are bit-identical to the tape's:
//!
//! * forward, the same `f64` operations in the same order;
//! * reverse, adjoints start at `0.0` and accumulate with `+=` in reverse
//!   node-creation order, each contribution the node's adjoint times the
//!   partial the tape records;
//! * a node whose adjoint is exactly `0.0` contributes nothing ([`pull`]),
//!   as in `Graph::gradient_wrt` — this keeps `0·∞` from turning into NaN.
//!
//! A run of unit-partial nodes (`x − c`, `x + c`) collapses into one
//! [`pull`]: multiplying by `±1.0` is exact, so only the sign of a zero
//! adjoint can change, and a zero adjoint is skipped whatever its sign.
//! The differential tests in `formulation.rs` and `reopt.rs` pin all of
//! this with `to_bits()`; when an objective changes, its `build` and
//! this kernel change together.

use acs_model::units::Freq;
use acs_power::{FreqModel, Processor};

/// The contribution of a node with adjoint `adj` to a parent whose local
/// partial is `partial`; nothing when the adjoint is zero.
#[inline]
pub(crate) fn pull(adj: f64, partial: f64) -> f64 {
    if adj == 0.0 {
        0.0
    } else {
        adj * partial
    }
}

/// The `|x|` beyond which `(-|x|).exp()` is exactly `+0.0`.
const SATURATED: f64 = 746.0;

/// `Expr::softplus` — value and derivative — with one shared exponential:
/// the tape's `(-x).exp()` (for `x ≥ 0`) and `x.exp()` (for `x < 0`) both
/// take the argument `-|x|`.
///
/// Past `|x| = 746` the exponential is exactly `+0.0`: `e^-746 ≈
/// 2^-1076.3` lies below half the smallest subnormal (`2^-1075`), so it
/// rounds to zero. Then `ln_1p(0) = 0`, `1/(1 + 0) = 1` and
/// `0/(1 + 0) = 0`, and the early return yields the full path's bits
/// without calling `exp` or `ln_1p`. NaN fails the comparison and takes
/// the full path. `exp_saturates_to_positive_zero` pins the assumption
/// on the platform's libm.
#[inline]
pub(crate) fn softplus(v: f64, tau: f64) -> (f64, f64) {
    let x = v / tau;
    if x.abs() > SATURATED {
        let d = if x >= 0.0 { 1.0 } else { 0.0 };
        return (tau * (x.max(0.0) + 0.0), d);
    }
    let z = (-x.abs()).exp();
    let val = tau * (x.max(0.0) + z.ln_1p());
    let d = if x >= 0.0 {
        1.0 / (1.0 + z)
    } else {
        z / (1.0 + z)
    };
    (val, d)
}

/// `Expr::relu` — value and derivative.
#[inline]
pub(crate) fn relu(v: f64) -> (f64, f64) {
    if v > 0.0 {
        (v, 1.0)
    } else {
        (0.0, 0.0)
    }
}

/// The `max(x, 0)` piece of `formulation::smax_const`: softplus when
/// smoothing, relu otherwise.
#[inline]
fn kink(x: f64, tau: f64) -> (f64, f64) {
    if tau > 0.0 {
        softplus(x, tau)
    } else {
        relu(x)
    }
}

/// The values and local partials of one chain step that its reverse
/// sweep reads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Step {
    /// `∂s/∂f_prev`.
    ds: f64,
    /// Kink partial of the gap guard `smax_const(gap, ε_t)`.
    d_gap: f64,
    /// `∂speed/∂num = 1/denom`.
    inv_denom: f64,
    /// `∂speed/∂denom = −num/denom²`.
    d_denom: f64,
    /// Relu partial of the speed.
    d_relu: f64,
    /// `∂V/∂f` of the frequency law.
    d_volt: f64,
    /// Kink partial of the `vmin` clamp.
    d_vmin: f64,
    /// `2V`, the partial of `V²`.
    two_v: f64,
    c_eff: f64,
    /// `C·V²`.
    m1: f64,
    /// `a·f_max`.
    af: f64,
    /// `e − s`.
    r1: f64,
    /// `a/(w + ε_w)`.
    rho: f64,
    /// `∂ρ/∂a = 1/(w + ε_w)`.
    inv_wd: f64,
    /// `∂ρ/∂(w + ε_w) = −a/(w + ε_w)²`.
    d_wd: f64,
}

/// Adjoint contributions one step's reverse sweep hands back to nodes
/// outside it. The end time's two contributions are accumulated in place
/// by [`Chain::reverse`], in node order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepBack {
    /// To the previous step's finish time.
    pub f_prev: f64,
    /// To the workload `w`, through `w + ε_w`.
    pub w: f64,
    /// To the executed share `a`, through `ρ`.
    pub a_rho: f64,
    /// To the executed share `a`, through `a·f_max`.
    pub a_energy: f64,
    /// To the speed basis workload, through `basis·f_max`.
    pub basis: f64,
}

/// The constants of one problem's chain.
#[derive(Debug)]
pub(crate) struct Chain<'a> {
    pub cpu: &'a Processor,
    pub fmax: f64,
    /// Guard added to time denominators (ms).
    pub eps_t: f64,
    /// Guard added to workload denominators (ms at `f_max`).
    pub eps_w: f64,
    /// Unsmoothed start rule: the offline NLP takes the exact
    /// `max(f_prev, r)`, the boundary NLP `relu(f_prev − r) + r`. Both
    /// are `r + softplus(f_prev − r)` when smoothing.
    pub exact_max_start: bool,
}

impl Chain<'_> {
    /// One step at temperature `tau`: returns the energy term and the next
    /// finish time, recording the partials in `st`. `basis` is the
    /// workload the speed is sized for, `a` the executed share, `w` the
    /// worst-case share (all ms at `f_max`).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn forward(
        &self,
        f_prev: f64,
        r: f64,
        e: f64,
        basis: f64,
        a: f64,
        w: f64,
        c_eff: f64,
        tau: f64,
        st: &mut Step,
    ) -> (f64, f64) {
        let s = if tau > 0.0 || !self.exact_max_start {
            let (k, dk) = kink(f_prev - r, tau);
            st.ds = dk;
            k + r
        } else if f_prev >= r {
            st.ds = 1.0;
            f_prev
        } else {
            st.ds = 0.0;
            r
        };
        let gap = e - s;
        let (k, d_gap) = kink(gap - self.eps_t, tau);
        st.d_gap = d_gap;
        let denom = k + self.eps_t + self.eps_t;
        let num = basis * self.fmax;
        let speed = num / denom;
        st.inv_denom = 1.0 / denom;
        st.d_denom = -num / (denom * denom);
        let (sp, d_relu) = relu(speed);
        st.d_relu = d_relu;
        let (vv, d_volt) = match *self.cpu.freq_model() {
            FreqModel::Linear { kappa } => (sp / kappa, 1.0 / kappa),
            FreqModel::Alpha { .. } => {
                // `dvolt_dfreq` is `1/dfreq_dvolt(volt_for(f))`: reuse the
                // one voltage inversion.
                let model = self.cpu.freq_model();
                let v = model.volt_for(Freq::from_cycles_per_ms(sp.max(0.0)));
                (v.as_volts(), 1.0 / model.dfreq_dvolt(v))
            }
        };
        st.d_volt = d_volt;
        let vmin = self.cpu.vmin().as_volts();
        let (k, d_vmin) = kink(vv - vmin, tau);
        st.d_vmin = d_vmin;
        let v = k + vmin;
        st.two_v = 2.0 * v;
        st.c_eff = c_eff;
        st.m1 = v * v * c_eff;
        st.af = a * self.fmax;
        let wd = w + self.eps_w;
        st.rho = a / wd;
        st.inv_wd = 1.0 / wd;
        st.d_wd = -a / (wd * wd);
        st.r1 = e - s;
        (st.m1 * st.af, s + st.rho * st.r1)
    }

    /// Reverse sweep of one step, given the adjoints of its energy term and
    /// of its finish time. Adds the end time's contributions to `adj_e`.
    #[inline]
    pub fn reverse(&self, st: &Step, adj_energy: f64, adj_f: f64, adj_e: &mut f64) -> StepBack {
        // f = s + ρ·(e − s). `adj -= c` is the tape's `adj += c·(−1)`
        // exactly.
        let mut adj_s = pull(adj_f, 1.0);
        let adj_r2 = pull(adj_f, 1.0);
        let adj_rho = pull(adj_r2, st.r1);
        let adj_r1 = pull(adj_r2, st.rho);
        *adj_e += pull(adj_r1, 1.0);
        adj_s -= pull(adj_r1, 1.0);
        // ρ = a / (w + ε_w)
        let a_rho = pull(adj_rho, st.inv_wd);
        let w = pull(adj_rho, st.d_wd);
        // energy term = (C·V²)·(a·f_max)
        let adj_m1 = pull(adj_energy, st.af);
        let a_energy = pull(pull(adj_energy, st.m1), self.fmax);
        let adj_v = pull(pull(adj_m1, st.c_eff), st.two_v);
        let adj_speed = pull(pull(pull(adj_v, st.d_vmin), st.d_volt), st.d_relu);
        // speed = basis·f_max / (kink(gap − ε_t) + ε_t + ε_t)
        let basis = pull(pull(adj_speed, st.inv_denom), self.fmax);
        let adj_gap = pull(pull(adj_speed, st.d_denom), st.d_gap);
        *adj_e += pull(adj_gap, 1.0);
        adj_s -= pull(adj_gap, 1.0);
        StepBack {
            f_prev: pull(adj_s, st.ds),
            w,
            a_rho,
            a_energy,
            basis,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use acs_opt::problem::ConstrainedProblem;
    use acs_opt::tape::Graph;

    /// Asserts that `p.objective_grad` returns the tape's
    /// `build().objective` value and gradient at `x`, bit for bit.
    pub(crate) fn assert_matches_tape(
        p: &dyn ConstrainedProblem,
        x: &[f64],
        smoothing: f64,
        what: &str,
    ) {
        let g = Graph::new();
        let xs: Vec<_> = x.iter().map(|&v| g.input(v)).collect();
        let objective = p.build(&g, &xs, smoothing).objective;
        let mut want = vec![0.0; x.len()];
        g.gradient_wrt(objective, &xs, &mut want);
        // Poisoned, so an entry the kernel never writes shows up.
        let mut got = vec![f64::NAN; x.len()];
        let value = p.objective_grad(x, smoothing, &mut got);
        assert_eq!(
            value.to_bits(),
            objective.value().to_bits(),
            "{what} (tau {smoothing}): value {value:e} vs tape {:e}",
            objective.value()
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what} (tau {smoothing}): d/dx[{i}] {g:e} vs tape {w:e}"
            );
        }
    }

    /// The smoothing temperatures the differential tests sweep: the
    /// offline and boundary anneal ranges, plus the exact forms.
    pub(crate) const TEMPERATURES: [f64; 4] = [1e-2, 1e-3, 1e-7, 0.0];

    /// A splitmix64 stream: reproducible test points without a dependency.
    pub(crate) struct Rng(pub u64);

    impl Rng {
        /// Uniform in `[lo, hi)`.
        pub(crate) fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    #[test]
    fn softplus_matches_the_tape_op() {
        let g = Graph::new();
        let mut rng = Rng(3);
        for tau in [1e-2, 1e-7, 2.0] {
            for v in [
                0.0,
                -0.0,
                1e-300,
                -1e-300,
                700.0 * tau,
                -745.0 * tau,
                745.9 * tau,
                -745.9 * tau,
                746.0 * tau,
                -746.0 * tau,
                746.1 * tau,
                -746.1 * tau,
                1e9,
                -1e9,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]
            .into_iter()
            .chain((0..240).map(|i| {
                // 200 around the kink, then 20 each side of the
                // saturation threshold.
                tau * match i {
                    0..200 => rng.uniform(-50.0, 50.0),
                    200..220 => rng.uniform(740.0, 760.0),
                    _ => rng.uniform(-760.0, -740.0),
                }
            })) {
                let x = g.input(v);
                let y = x.softplus(tau);
                let (mut d, (val, dv)) = ([0.0], super::softplus(v, tau));
                g.gradient_wrt(y, &[x], &mut d);
                assert_eq!(val.to_bits(), y.value().to_bits(), "softplus({v}, {tau})");
                assert_eq!(dv.to_bits(), d[0].to_bits(), "softplus'({v}, {tau})");
            }
        }
    }

    /// The saturation shortcut in [`super::softplus`] is exact only if
    /// `exp` returns `+0.0` for every argument below `-746`. A libm that
    /// rounds differently fails here rather than drifting from the tape.
    #[test]
    fn exp_saturates_to_positive_zero() {
        let mut rng = Rng(11);
        let sweep = (0..=1000).map(|i| super::SATURATED + f64::from(i) * 0.01);
        for x in sweep
            .chain((0..1000).map(|_| rng.uniform(super::SATURATED, 1e4)))
            .chain([1e4, 1e300, f64::INFINITY])
        {
            assert_eq!((-x).exp().to_bits(), 0.0f64.to_bits(), "exp(-{x})");
        }
    }
}
