//! Output checking: failure tallies and the `MpFloat` oracle the BLAS
//! outputs are judged against.

use mf_core::MultiFloat;
use mf_mpsoft::MpFloat;

/// Oracle precision. The widest bound under test is `2^-201` (`N = 4`), so
/// oracle rounding never decides a check.
pub const ORACLE_PREC: u32 = 320;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Pass,
    OutOfTolerance,
    Panicked,
    Unconverged,
}

/// Attempted and failed tasks, with the failures split by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub out_of_tolerance: u64,
    pub panicked: u64,
    pub unconverged: u64,
}

impl Tally {
    pub fn record(&mut self, o: Outcome) {
        self.attempted += 1;
        match o {
            Outcome::Pass => return,
            Outcome::OutOfTolerance => self.out_of_tolerance += 1,
            Outcome::Panicked => self.panicked += 1,
            Outcome::Unconverged => self.unconverged += 1,
        }
        self.failed += 1;
    }

    pub fn merged(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
            out_of_tolerance: self.out_of_tolerance + o.out_of_tolerance,
            panicked: self.panicked + o.panicked,
            unconverged: self.unconverged + o.unconverged,
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// log2 of the documented relative error bound of one `MultiFloat<f64, N>`
/// multiplication (the conformance harness's enforced contract).
fn mul_bound_exp(n: usize) -> i32 {
    [-101, -151, -201][n - 2]
}

/// Error bound exponent of an accumulation chain of `terms` products: the
/// conformance harness's backward bound, `|got - exact| <= 2^e * sum|terms|`.
pub fn chain_bound_exp(n: usize, terms: usize) -> i32 {
    mul_bound_exp(n) + (usize::BITS - (terms + 4).leading_zeros()) as i32 + 2
}

pub fn mp<const N: usize>(x: &MultiFloat<f64, N>) -> MpFloat {
    x.to_mp(ORACLE_PREC)
}

/// An exact result and the magnitude sum its error bound scales with.
pub struct Exact {
    pub value: MpFloat,
    pub mag: MpFloat,
    pub terms: usize,
}

impl Exact {
    pub fn zero() -> Self {
        Exact {
            value: MpFloat::zero(ORACLE_PREC),
            mag: MpFloat::zero(ORACLE_PREC),
            terms: 0,
        }
    }

    /// Accumulate the exact term `t`.
    pub fn push(&mut self, t: &MpFloat) {
        self.value = self.value.add(t, ORACLE_PREC);
        self.mag = self.mag.add(&t.abs(), ORACLE_PREC);
        self.terms += 1;
    }

    /// `scale * self` (exact; the bound scales with `|scale|`).
    pub fn scaled(&self, scale: &MpFloat) -> Exact {
        Exact {
            value: self.value.mul(scale, ORACLE_PREC),
            mag: self.mag.mul(&scale.abs(), ORACLE_PREC),
            terms: self.terms + 1,
        }
    }

    /// Whether `got` is within the documented `N`-term bound of `self`.
    pub fn accepts<const N: usize>(&self, got: &MultiFloat<f64, N>) -> bool {
        if !got.is_finite() {
            return false;
        }
        let diff = mp(got).sub(&self.value, ORACLE_PREC).abs();
        if diff.is_zero() {
            return true;
        }
        if self.mag.is_zero() {
            return false;
        }
        let rel = diff.div(&self.mag, 64).to_f64();
        rel <= 2f64.powi(chain_bound_exp(N, self.terms))
    }
}

/// Exact `sum x_i * y_i`.
pub fn exact_dot<const N: usize>(
    x: impl Iterator<Item = MultiFloat<f64, N>>,
    y: impl Iterator<Item = MultiFloat<f64, N>>,
) -> Exact {
    let mut e = Exact::zero();
    for (a, b) in x.zip(y) {
        e.push(&mp(&a).mul(&mp(&b), ORACLE_PREC));
    }
    e
}

/// Exact `alpha * e + beta * y0` for a GEMV/GEMM output element.
pub fn exact_update<const N: usize>(
    e: Exact,
    alpha: &MultiFloat<f64, N>,
    beta: &MultiFloat<f64, N>,
    y0: &MultiFloat<f64, N>,
) -> Exact {
    let mut out = e.scaled(&mp(alpha));
    out.push(&mp(beta).mul(&mp(y0), ORACLE_PREC));
    out
}

/// A copy of `x` with its head moved by a relative `2^-30`: far outside
/// every bound under test. The negative control feeds one through the
/// same check as the real outputs.
pub fn perturbed<const N: usize>(x: MultiFloat<f64, N>) -> MultiFloat<f64, N> {
    let mut c = x.components();
    c[0] += c[0] * 2f64.powi(-30) + f64::MIN_POSITIVE;
    MultiFloat::from_components_renorm(c)
}

/// A stable 64-bit hash of output words. A task whose output hashes like
/// one the oracle already accepted produced that same output bit for bit.
pub fn hash_words(words: impl IntoIterator<Item = f64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, w| {
        let h = (h ^ w.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        h ^ (h >> 29)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::F64x2;

    #[test]
    fn tally_counts_every_failure_cause() {
        let mut t = Tally::default();
        for o in [
            Outcome::Pass,
            Outcome::Pass,
            Outcome::OutOfTolerance,
            Outcome::Panicked,
            Outcome::Pass,
            Outcome::Unconverged,
            Outcome::Pass,
            Outcome::Pass,
        ] {
            t.record(o);
        }
        assert_eq!((t.attempted, t.failed), (8, 3));
        assert_eq!((t.out_of_tolerance, t.panicked, t.unconverged), (1, 1, 1));
        assert_eq!(t.fail_ratio(), 3.0 / 8.0);
        let both = t.merged(t);
        assert_eq!((both.attempted, both.failed, both.panicked), (16, 6, 2));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn oracle_accepts_the_kernel_and_rejects_the_control() {
        let x: Vec<F64x2> = (1..=64).map(|i| F64x2::from(1.0 / i as f64)).collect();
        let y: Vec<F64x2> = (1..=64).map(|i| F64x2::from((i as f64).sqrt())).collect();
        let got = mf_blas::kernels::dot(&x, &y);
        let exact = exact_dot(x.iter().copied(), y.iter().copied());
        assert!(exact.accepts(&got));
        assert!(!exact.accepts(&perturbed(got)));
        assert!(!exact.accepts(&F64x2::from(f64::NAN)));
    }
}
