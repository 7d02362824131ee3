//! The `refine` workload: dense `f64` systems solved by LU plus
//! mixed-precision iterative refinement, `mf-solve`'s end-to-end path.

use crate::check::Outcome;
use crate::spans::Recorder;
use crate::stats::{self, Rng};
use crate::{LayerTotals, Metric, Workload};
use mf_solve::refine::residual_extended;
use mf_solve::{lu_factor, qr_factor, refine_with_factors, MatrixF64, RefineOptions, Refinement};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// System order.
const ORDER: usize = 256;
/// Systems per run, on a log-uniform condition-number grid; a round solves
/// each once.
const SYSTEMS: usize = 8;
/// Right-hand sides refined against each factorization.
const RHS: usize = 4;
/// Condition-number range.
const KAPPA: (f64, f64) = (1e6, 1e13);
/// Forward-error tolerance against the `F64x4` reference, relative to its
/// infinity norm: about 45 ulps. Converged `F64x2` refinement matches the
/// reference to the last bit on these systems, while an unrefined `f64`
/// solve is off by `cond * eps >= 1e-10`.
pub const FERR_TOL: f64 = 1e-14;

struct Raw {
    a: Vec<f64>,
    bs: Vec<Vec<f64>>,
}

struct System {
    a: MatrixF64,
    bs: Vec<Vec<f64>>,
}

pub struct Refine {
    raws: Vec<Raw>,
    /// Packed by [`Workload::setup`], parallel to `raws`.
    systems: Vec<System>,
    /// `F64x4` refinement of each stored system, per right-hand side.
    refs: Vec<Vec<Vec<f64>>>,
    /// Iterations and unconverged solves over traced tasks.
    iterations: u64,
    refine_calls: u64,
    unconverged: u64,
}

/// `A = U Σ Vᵀ` with Haar-like orthogonal factors from the QR of Gaussian
/// matrices and singular values spread geometrically from 1 to `1/kappa`.
fn gen_matrix(rng: &mut Rng, kappa: f64) -> Vec<f64> {
    let n = ORDER;
    let mut gaussian = || MatrixF64::from_fn(n, n, |_, _| rng.normal());
    let (u, v) = (
        qr_factor(&gaussian()).expect("Gaussian matrix has full rank"),
        qr_factor(&gaussian()).expect("Gaussian matrix has full rank"),
    );
    // M = Σ Vᵀ, built column by column from Vᵀ e_j.
    let mut m = vec![0.0; n * n];
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        v.apply_qt(&mut e);
        for i in 0..n {
            m[i * n + j] = kappa.powf(-(i as f64) / (n - 1) as f64) * e[i];
        }
    }
    // A = Uᵀ M (Uᵀ is as orthogonal as U).
    let mut a = vec![0.0; n * n];
    let mut col = vec![0.0; n];
    for j in 0..n {
        for i in 0..n {
            col[i] = m[i * n + j];
        }
        u.apply_qt(&mut col);
        for i in 0..n {
            a[i * n + j] = col[i];
        }
    }
    a
}

fn pack(r: &Raw) -> System {
    System {
        a: MatrixF64 {
            rows: ORDER,
            cols: ORDER,
            data: r.a.clone(),
        },
        bs: r.bs.clone(),
    }
}

/// Judge a task's solutions against the reference solutions.
fn judge(sols: &[Refinement], refs: &[Vec<f64>]) -> Outcome {
    for (s, x_ref) in sols.iter().zip(refs) {
        if !s.converged {
            return Outcome::Unconverged;
        }
        let scale = mf_solve::norm_inf(x_ref);
        let err =
            s.x.iter()
                .zip(x_ref)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let accurate = s.x.iter().all(|v| v.is_finite()) && err <= FERR_TOL * scale;
        if !accurate {
            return Outcome::OutOfTolerance;
        }
    }
    Outcome::Pass
}

/// One task: factor, then refine every right-hand side. Spans (traced
/// run only) cover the factorization and each refinement.
fn solve(sys: &System, mut rec: Option<&mut Recorder>) -> Result<Vec<Refinement>, String> {
    let mut span = |name: Option<&'static str>| {
        if let Some(r) = rec.as_deref_mut() {
            match name {
                Some(n) => r.open(n, false),
                None => r.close(),
            }
        }
    };
    span(Some("solve.lu"));
    let f = lu_factor(&sys.a).map_err(|e| e.to_string())?;
    span(None);
    let mut out = Vec::with_capacity(RHS);
    for b in &sys.bs {
        span(Some("solve.refine"));
        out.push(
            refine_with_factors::<2>(&sys.a, &f, b, RefineOptions::default())
                .map_err(|e| e.to_string())?,
        );
        span(None);
    }
    Ok(out)
}

impl Refine {
    pub fn new(rng: &mut Rng) -> Result<Self, String> {
        let kappas = stats::log_grid(KAPPA.0, KAPPA.1, SYSTEMS);
        let raws: Vec<Raw> = kappas
            .iter()
            .map(|&k| Raw {
                a: gen_matrix(rng, k),
                bs: (0..RHS)
                    .map(|_| (0..ORDER).map(|_| rng.normal()).collect())
                    .collect(),
            })
            .collect();
        // Reference solutions, computed once per system outside any timing.
        let mut refs = Vec::with_capacity(SYSTEMS);
        for (r, k) in raws.iter().zip(&kappas) {
            let sys = pack(r);
            let f = lu_factor(&sys.a).map_err(|e| format!("reference LU: {e}"))?;
            let mut xs = Vec::with_capacity(RHS);
            for b in &sys.bs {
                let s = refine_with_factors::<4>(&sys.a, &f, b, RefineOptions::default())
                    .map_err(|e| format!("reference refinement: {e}"))?;
                if !s.converged {
                    return Err(format!("F64x4 reference did not converge at cond {k:.2e}"));
                }
                xs.push(s.x);
            }
            refs.push(xs);
        }
        Ok(Refine {
            raws,
            systems: Vec::new(),
            refs,
            iterations: 0,
            refine_calls: 0,
            unconverged: 0,
        })
    }
}

/// Median wall time of `f` over `reps` calls, in ns.
fn p50_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&v)
}

impl Workload for Refine {
    fn setup(&mut self) {
        // No pool: refinement is single-threaded. ISA selection and the
        // conversion of inputs into library types.
        black_box(mf_blas::simd::active());
        self.systems.clear();
        self.systems = self.raws.iter().map(pack).collect();
    }

    fn verify_all(&mut self) {
        for i in 0..self.systems.len() {
            black_box(self.task(i as u32, None));
        }
    }

    fn round(&self) -> Vec<u32> {
        (0..SYSTEMS as u32).collect()
    }

    fn task(&mut self, slot: u32, rec: Option<&mut Recorder>) -> (u64, Outcome) {
        let sys = &self.systems[slot as usize];
        let traced = rec.is_some();
        let t0 = Instant::now();
        let ran = match rec {
            None => catch_unwind(AssertUnwindSafe(|| solve(sys, None))),
            Some(rec) => {
                rec.open("task", false);
                let depth = rec.depth();
                let ran = catch_unwind(AssertUnwindSafe(|| solve(sys, Some(&mut *rec))));
                // A panic may leave the inner spans open.
                rec.close_to(depth);
                rec.close();
                ran
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let outcome = match ran {
            Err(_) | Ok(Err(_)) => Outcome::Panicked,
            Ok(Ok(sols)) => {
                if traced {
                    self.refine_calls += sols.len() as u64;
                    self.iterations += sols.iter().map(|s| s.iterations as u64).sum::<u64>();
                    self.unconverged += sols.iter().filter(|s| !s.converged).count() as u64;
                }
                judge(&sols, &self.refs[slot as usize])
            }
        };
        (ns, outcome)
    }

    fn negative_control(&mut self) -> Outcome {
        match solve(&self.systems[0], None) {
            Ok(mut sols) => {
                let scale = mf_solve::norm_inf(&sols[0].x);
                sols[0].x[0] += 1e-6 * scale;
                judge(&sols, &self.refs[0])
            }
            Err(_) => Outcome::Panicked,
        }
    }

    fn operands(&self, rng: &mut Rng, width: usize, count: usize) -> Vec<f64> {
        // The residual's operands: stored `f64` matrix entries and
        // solution entries, lifted exactly (zero tails).
        let mut out = Vec::with_capacity(count * width);
        for i in 0..count {
            let head = if i % 2 == 0 {
                let a = &self.raws[rng.below(SYSTEMS)].a;
                a[rng.below(a.len())]
            } else {
                let x = &self.refs[rng.below(SYSTEMS)][0];
                x[rng.below(x.len())]
            };
            out.push(head);
            out.extend(std::iter::repeat_n(0.0, width - 1));
        }
        out
    }

    fn layer_metrics(&mut self, totals: &LayerTotals, out: &mut Vec<Metric>) {
        let task_ns = totals.task_ns as f64;
        for (name, span) in [("solve.lu", "solve.lu"), ("solve.refine", "solve.refine")] {
            let t = totals.by_name.get(span).copied().unwrap_or_default();
            let durs = totals.durations(span);
            out.push(Metric::new(
                format!("{name}.calls"),
                t.calls as f64,
                "count",
            ));
            out.push(Metric::new(
                format!("{name}.ms_p50"),
                if durs.is_empty() {
                    0.0
                } else {
                    stats::median(&durs) / 1e6
                },
                "ms",
            ));
            out.push(Metric::new(
                format!("{name}.share"),
                t.self_ns as f64 / task_ns,
                "fraction",
            ));
        }
        out.push(Metric::new(
            "solve.refine.iterations_mean",
            self.iterations as f64 / self.refine_calls.max(1) as f64,
            "count",
        ));
        out.push(Metric::new(
            "solve.refine.unconverged",
            self.unconverged as f64,
            "count",
        ));
        // The two steps inside `refine_with_factors`, timed on their own.
        let sys = &self.systems[0];
        let (b, x) = (&sys.bs[0], &self.refs[0][0]);
        let f = lu_factor(&sys.a).expect("system 0 factors");
        let residual_ns = p50_ns(60, || {
            black_box(residual_extended::<2>(black_box(&sys.a), b, x));
        });
        let trisolve_ns = p50_ns(400, || {
            black_box(f.solve(black_box(b)));
        });
        out.push(Metric::new(
            "solve.residual.us_p50",
            residual_ns / 1e3,
            "us",
        ));
        out.push(Metric::new(
            "solve.trisolve.us_p50",
            trisolve_ns / 1e3,
            "us",
        ));
        // Each refinement evaluates the residual iterations + 1 times.
        let residual_calls = (self.iterations + self.refine_calls) as f64;
        out.push(Metric::new(
            "solve.residual.share_est",
            residual_calls * residual_ns / task_ns,
            "fraction",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_matrix_has_the_requested_condition() {
        let mut rng = Rng::new(11);
        let a = gen_matrix(&mut rng, 1e8);
        // ||A||_2 = 1 for this construction, so ||A||_inf lies in
        // [1/sqrt(n), sqrt(n)].
        let m = MatrixF64 {
            rows: ORDER,
            cols: ORDER,
            data: a,
        };
        let norm = mf_solve::matrix_norm_inf(&m);
        assert!(norm > 1.0 / 16.0 && norm < 16.0, "{norm}");
        let f = lu_factor(&m).unwrap();
        let b: Vec<f64> = (0..ORDER).map(|_| rng.normal()).collect();
        let s = refine_with_factors::<2>(&m, &f, &b, RefineOptions::default()).unwrap();
        assert!(
            s.converged && s.iterations >= 2,
            "{} iterations",
            s.iterations
        );
    }

    #[test]
    fn judge_flags_unconverged_and_inaccurate_solutions() {
        let x_ref = vec![1.0, -2.0, 3.0];
        let good = Refinement {
            x: vec![1.0, -2.0, 3.0 + 1e-15],
            residual_norms: vec![],
            iterations: 2,
            converged: true,
        };
        let refs = std::slice::from_ref(&x_ref);
        assert_eq!(judge(std::slice::from_ref(&good), refs), Outcome::Pass);
        let mut far = good.clone();
        far.x[1] += 1e-9;
        assert_eq!(judge(&[far], refs), Outcome::OutOfTolerance);
        let mut nan = good.clone();
        nan.x[0] = f64::NAN;
        assert_eq!(judge(&[nan], refs), Outcome::OutOfTolerance);
        let stuck = Refinement {
            converged: false,
            ..good
        };
        assert_eq!(judge(&[stuck], refs), Outcome::Unconverged);
    }
}
