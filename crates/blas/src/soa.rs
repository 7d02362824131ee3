//! Structure-of-arrays kernels for `MultiFloat` — the vectorization layout.
//!
//! An array of `MultiFloat<f64, N>` stores each element's `N` components
//! contiguously (AoS), so the machine loads of "component 0 of elements
//! i..i+8" are strided and the compiler often gives up on vectorizing the
//! FPAN arithmetic across elements. Storing each *component* in its own
//! array (SoA) makes every load unit-stride, and the branch-free FPAN
//! kernels then run 8 elements in lock-step — two AVX2 registers per
//! network wire. This is the paper's central performance mechanism (§1,
//! §5), and it is *only* available to branch-free algorithms: QD's and
//! CAMPARY's zero-tests and magnitude merges create lane-divergent control
//! flow, which is why their 3/4-term columns collapse in Figure 9.
//!
//! Reductions (DOT, GEMV rows) run the lock-step lane body
//! ([`crate::lanes::dot_lockstep`]: at `T = f64` the explicit-intrinsic
//! realization that `MF_SIMD` selects, see [`crate::simd`]). The streaming
//! AXPY, and the `ikj` GEMM row-range body [`gemm_rows`] built on it, run
//! one element-wise loop at every `N`: inside the AVX2+FMA frame the
//! compiler vectorizes it, and explicit lanes measured slower there
//! (EXPERIMENTS.md ablation 16). [`gemm_rows`] is also the body of the
//! row-parallel [`crate::tile::gemm_tiled`]. Every entry point is
//! dispatched through [`crate::fma_frame!`].

use mf_core::{addition, multiplication, FloatBase, MultiFloat};

/// A vector of `MultiFloat<T, N>` in structure-of-arrays layout.
#[derive(Debug, Clone)]
pub struct SoaVec<T: FloatBase, const N: usize> {
    /// `comps[k][i]` is component `k` of element `i`.
    pub comps: Vec<Vec<T>>,
    len: usize,
}

impl<T: FloatBase, const N: usize> SoaVec<T, N> {
    pub fn zeros(len: usize) -> Self {
        SoaVec {
            comps: (0..N).map(|_| vec![T::ZERO; len]).collect(),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn from_slice(xs: &[MultiFloat<T, N>]) -> Self {
        let mut out = Self::zeros(xs.len());
        for (i, x) in xs.iter().enumerate() {
            let c = x.components();
            for k in 0..N {
                out.comps[k][i] = c[k];
            }
        }
        out
    }

    pub fn get(&self, i: usize) -> MultiFloat<T, N> {
        let mut c = [T::ZERO; N];
        for k in 0..N {
            c[k] = self.comps[k][i];
        }
        MultiFloat::from_components(c)
    }

    pub fn set(&mut self, i: usize, v: MultiFloat<T, N>) {
        let c = v.components();
        for k in 0..N {
            self.comps[k][i] = c[k];
        }
    }

    pub fn to_vec(&self) -> Vec<MultiFloat<T, N>> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// A row-major matrix of `MultiFloat<T, N>` in SoA layout.
#[derive(Debug, Clone)]
pub struct SoaMatrix<T: FloatBase, const N: usize> {
    pub comps: Vec<Vec<T>>,
    pub rows: usize,
    pub cols: usize,
}

impl<T: FloatBase, const N: usize> SoaMatrix<T, N> {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SoaMatrix {
            comps: (0..N).map(|_| vec![T::ZERO; rows * cols]).collect(),
            rows,
            cols,
        }
    }

    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> MultiFloat<T, N>,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    pub fn get(&self, i: usize, j: usize) -> MultiFloat<T, N> {
        let mut c = [T::ZERO; N];
        for k in 0..N {
            c[k] = self.comps[k][i * self.cols + j];
        }
        MultiFloat::from_components(c)
    }

    pub fn set(&mut self, i: usize, j: usize, v: MultiFloat<T, N>) {
        let c = v.components();
        for k in 0..N {
            self.comps[k][i * self.cols + j] = c[k];
        }
    }

    /// Panics unless the storage is `N` component vectors of `rows * cols`
    /// elements. The fields are public, so a caller can break that shape;
    /// `tile::gemm_tiled` writes through raw row views sized from it.
    pub(crate) fn assert_storage(&self, kernel: &str) {
        let want = self.rows * self.cols;
        assert!(
            self.comps.len() == N && self.comps.iter().all(|c| c.len() == want),
            "{kernel}: C is {}x{} ({N} components of {want}) but its component lengths are {:?}",
            self.rows,
            self.cols,
            self.comps.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}

/// Borrow the component vectors as an array of equal-length slices
/// (hoists the `Vec` indirection and lets the optimizer elide per-element
/// bounds checks).
#[inline(always)]
fn slices<T: FloatBase, const N: usize>(comps: &[Vec<T>], lo: usize, hi: usize) -> [&[T]; N] {
    core::array::from_fn(|k| &comps[k][lo..hi])
}

#[inline(always)]
fn slices_mut<T: FloatBase, const N: usize>(
    comps: &mut [Vec<T>],
    lo: usize,
    hi: usize,
) -> [&mut [T]; N] {
    let mut it = comps.iter_mut();
    core::array::from_fn(|_| &mut it.next().unwrap()[lo..hi])
}

/// Streaming AXPY core shared by [`axpy`] and [`gemm_rows`] over component
/// slices at the given offsets: the one element-wise body, so it computes
/// the bits of the scalar AoS kernel.
#[inline(always)]
fn axpy_at<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    xc: &[Vec<T>],
    xoff: usize,
    yc: &mut [Vec<T>],
    yoff: usize,
    n: usize,
) {
    let a = alpha.components();
    let xs: [&[T]; N] = slices(xc, xoff, xoff + n);
    let ys: [&mut [T]; N] = slices_mut(yc, yoff, yoff + n);
    for i in 0..n {
        let xi: [T; N] = core::array::from_fn(|k| xs[k][i]);
        let yi: [T; N] = core::array::from_fn(|k| ys[k][i]);
        let s = addition::add(&multiplication::mul(&a, &xi), &yi);
        for k in 0..N {
            ys[k][i] = s[k];
        }
    }
}

crate::fma_frame! {
    /// `y <- alpha*x + y` over SoA vectors.
    pub fn axpy / axpy_body [T: FloatBase, const N: usize] (
        alpha: MultiFloat<T, N>,
        x: &SoaVec<T, N>,
        y: &mut SoaVec<T, N>,
    ) {
        assert_eq!(x.len(), y.len());
        axpy_at(alpha, &x.comps, 0, &mut y.comps, 0, x.len())
    }
}

crate::fma_frame! {
    /// Dot product through the lock-step lane reduction.
    pub fn dot / dot_body [T: FloatBase, const N: usize] (
        x: &SoaVec<T, N>,
        y: &SoaVec<T, N>,
    ) -> MultiFloat<T, N> {
        assert_eq!(x.len(), y.len());
        crate::lanes::dot_lockstep(&x.comps, 0, &y.comps, 0, x.len())
    }
}

crate::fma_frame! {
    /// `y <- alpha*A*x + beta*y`, `ij` order, SoA layout.
    pub fn gemv / gemv_body [T: FloatBase, const N: usize] (
        alpha: MultiFloat<T, N>,
        a: &SoaMatrix<T, N>,
        x: &SoaVec<T, N>,
        beta: MultiFloat<T, N>,
        y: &mut SoaVec<T, N>,
    ) {
        assert_eq!(a.cols, x.len());
        assert_eq!(a.rows, y.len());
        // beta == 0 overwrites y without reading it (standard BLAS semantics;
        // matches the AoS kernels' fix — no NaN propagation from garbage y).
        let row = |i: usize| crate::lanes::dot_lockstep::<T, N>(&a.comps, i * a.cols, &x.comps, 0, a.cols);
        if beta.is_zero() {
            for i in 0..a.rows {
                y.set(i, alpha.mul(row(i)));
            }
        } else {
            for i in 0..a.rows {
                let yi = y.get(i);
                y.set(i, beta.mul(yi).add(alpha.mul(row(i))));
            }
        }
    }
}

crate::fma_frame! {
    /// GEMM over the output row block `lo..hi`, held in `c` (`N` component
    /// vectors, row-major, `b.cols` wide):
    /// `C[lo..hi] <- alpha * A[lo..hi] * B + beta * C[lo..hi]`, `ikj` order
    /// (the inner `j` loop is the vectorized one). The body of both
    /// [`gemm`] and the row-parallel [`crate::tile::gemm_tiled`], as
    /// `kernels::gemm_rows` is for the AoS GEMMs.
    pub(crate) fn gemm_rows / gemm_rows_body [T: FloatBase, const N: usize] (
        alpha: MultiFloat<T, N>,
        a: &SoaMatrix<T, N>,
        b: &SoaMatrix<T, N>,
        beta: MultiFloat<T, N>,
        c: &mut [Vec<T>],
        lo: usize,
        hi: usize,
    ) {
        let n = b.cols;
        let mut cs: [&mut [T]; N] = slices_mut(c, 0, (hi - lo) * n);
        // Scale C by beta first; beta == 0 overwrites (no read of
        // possibly-garbage C).
        if beta.is_zero() {
            for comp in cs {
                comp.fill(T::ZERO);
            }
        } else {
            for j in 0..(hi - lo) * n {
                let v = beta.mul(MultiFloat::from_components(core::array::from_fn(|k| cs[k][j])));
                for (comp, ck) in cs.iter_mut().zip(v.components()) {
                    comp[j] = ck;
                }
            }
        }
        for (r, i) in (lo..hi).enumerate() {
            for k in 0..a.cols {
                let aik = alpha.mul(a.get(i, k));
                axpy_at(aik, &b.comps, k * n, c, r * n, n);
            }
        }
    }
}

/// `C <- alpha*A*B + beta*C`, `ikj` order, SoA layout.
pub fn gemm<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &mut SoaMatrix<T, N>,
) {
    assert_eq!(a.cols, b.rows);
    assert_eq!(c.rows, a.rows);
    assert_eq!(c.cols, b.cols);
    gemm_rows(alpha, a, b, beta, &mut c.comps, 0, a.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::Matrix;
    use mf_core::{F64x2, F64x4};
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mf(rng: &mut SmallRng) -> F64x4 {
        F64x4::from(rng.gen_range(-1.0..1.0f64))
    }

    #[test]
    fn soa_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(910);
        let xs: Vec<F64x4> = (0..37).map(|_| rand_mf(&mut rng)).collect();
        let soa = SoaVec::from_slice(&xs);
        let back = soa.to_vec();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.components(), b.components());
        }
    }

    /// The one element-wise AXPY body is the AoS kernel's op sequence at
    /// every `N` and length: bitwise `kernels::axpy` around the lane width
    /// (tails shorter than 8 included) and at 203. NaN / infinity inputs
    /// land where the AoS kernel puts them and nowhere else (NaN compared
    /// by position: payload propagation is the one place IEEE 754 leaves
    /// implementations room).
    #[test]
    fn axpy_soa_matches_aos_bitwise() {
        fn check<const N: usize>(rng: &mut SmallRng) {
            for n in [0usize, 1, 2, 3, 5, 7, 8, 9, 11, 15, 17, 23, 203] {
                let mut mk = || -> Vec<MultiFloat<f64, N>> {
                    (0..n)
                        .map(|_| {
                            MultiFloat::from(rng.gen_range(-1.0..1.0f64))
                                .mul(MultiFloat::from(1.0 + rng.gen_range(-1e-9..1e-9f64)))
                        })
                        .collect()
                };
                let (mut xs, ys) = (mk(), mk());
                if n >= 11 {
                    xs[3] = MultiFloat::from(f64::NAN);
                    xs[8] = MultiFloat::from(f64::INFINITY);
                    xs[n - 1] = MultiFloat::from(f64::NEG_INFINITY);
                }
                let alpha = MultiFloat::<f64, N>::from(-0.517).mul(MultiFloat::from(1.000001));
                let mut y_aos = ys.clone();
                kernels::axpy(alpha, &xs, &mut y_aos);
                let mut y_soa = SoaVec::from_slice(&ys);
                axpy(alpha, &SoaVec::from_slice(&xs), &mut y_soa);
                for (i, (w, g)) in y_aos.iter().zip(y_soa.to_vec()).enumerate() {
                    for (wk, gk) in w.components().into_iter().zip(g.components()) {
                        if wk.is_nan() {
                            assert!(gk.is_nan(), "N={N} n={n} i={i}: lost NaN");
                        } else {
                            assert_eq!(gk.to_bits(), wk.to_bits(), "N={N} n={n} i={i}");
                        }
                    }
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(911);
        check::<1>(&mut rng);
        check::<2>(&mut rng);
        check::<3>(&mut rng);
        check::<4>(&mut rng);
    }

    #[test]
    fn dot_soa_matches_oracle() {
        let mut rng = SmallRng::seed_from_u64(912);
        let n = 1000;
        let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
        let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
        let exact = MpFloat::exact_dot(&x64, &y64);
        let soa = dot(&SoaVec::from_slice(&xs), &SoaVec::from_slice(&ys));
        let err = soa.to_mp(400).rel_error_vs(&exact);
        assert!(err <= 2.0f64.powi(-190), "err 2^{:.1}", err.log2());
        // And agrees with the AoS kernel to the format's precision
        // (different association order, same accuracy class).
        let aos = kernels::dot(&xs, &ys);
        let d = soa.sub(aos).abs().to_f64();
        assert!(d <= 2.0f64.powi(-190) * exact.abs().to_f64().max(1e-300));
    }

    #[test]
    fn gemv_and_gemm_match_aos() {
        let mut rng = SmallRng::seed_from_u64(913);
        let (m, k, n) = (17, 13, 19);
        let a_el: Vec<Vec<F64x2>> = (0..m)
            .map(|_| {
                (0..k)
                    .map(|_| F64x2::from(rng.gen_range(-1.0..1.0f64)))
                    .collect()
            })
            .collect();
        let b_el: Vec<Vec<F64x2>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| F64x2::from(rng.gen_range(-1.0..1.0f64)))
                    .collect()
            })
            .collect();
        let alpha = F64x2::from(1.25);
        let beta = F64x2::from(0.5);

        // GEMM: AoS reference.
        let a_aos = Matrix::from_fn(m, k, |i, j| a_el[i][j]);
        let b_aos = Matrix::from_fn(k, n, |i, j| b_el[i][j]);
        let mut c_aos = Matrix::from_fn(m, n, |_, _| F64x2::from(0.125));
        kernels::gemm(alpha, &a_aos, &b_aos, beta, &mut c_aos);

        let a_soa = SoaMatrix::from_fn(m, k, |i, j| a_el[i][j]);
        let b_soa = SoaMatrix::from_fn(k, n, |i, j| b_el[i][j]);
        let mut c_soa = SoaMatrix::from_fn(m, n, |_, _| F64x2::from(0.125));
        gemm(alpha, &a_soa, &b_soa, beta, &mut c_soa);

        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    c_aos.at(i, j).components(),
                    c_soa.get(i, j).components(),
                    "gemm mismatch at ({i},{j})"
                );
            }
        }

        // GEMV: accuracy-level agreement (SoA uses the laned reduction).
        let x: Vec<F64x2> = (0..k)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let mut y_aos: Vec<F64x2> = (0..m).map(|_| F64x2::from(0.5)).collect();
        kernels::gemv(alpha, &a_aos, &x, beta, &mut y_aos);
        let x_soa = SoaVec::from_slice(&x);
        let mut y_soa = SoaVec::from_slice(&vec![F64x2::from(0.5); m]);
        gemv(alpha, &a_soa, &x_soa, beta, &mut y_soa);
        for i in 0..m {
            let d = y_aos[i].sub(y_soa.get(i)).abs().to_f64();
            assert!(d <= 1e-28, "gemv row {i}: d={d:e}");
        }
    }

    /// Same contract as the AoS kernels' dispatch test: the AVX2+FMA
    /// instantiation may not change a single bit vs the portable body.
    #[test]
    fn fma_dispatch_is_bit_identical_to_portable_body() {
        let mut rng = SmallRng::seed_from_u64(915);
        let n = 203;
        let xs: Vec<F64x4> = (0..n).map(|_| rand_mf(&mut rng)).collect();
        let ys: Vec<F64x4> = (0..n).map(|_| rand_mf(&mut rng)).collect();
        let x_soa = SoaVec::from_slice(&xs);
        let y_soa = SoaVec::from_slice(&ys);
        assert_eq!(
            dot(&x_soa, &y_soa).components(),
            dot_body(&x_soa, &y_soa).components()
        );

        let alpha = rand_mf(&mut rng);
        let mut y_disp = SoaVec::from_slice(&ys);
        axpy(alpha, &x_soa, &mut y_disp);
        let mut y_body = SoaVec::from_slice(&ys);
        axpy_body(alpha, &x_soa, &mut y_body);
        for k in 0..4 {
            assert_eq!(y_disp.comps[k], y_body.comps[k], "axpy comp {k}");
        }

        let (m, kk, nn) = (9, 11, 7);
        let a = SoaMatrix::<f64, 2>::from_fn(m, kk, |i, j| {
            F64x2::from((i * kk + j) as f64 * 0.013 - 0.7)
        });
        let b = SoaMatrix::<f64, 2>::from_fn(kk, nn, |i, j| {
            F64x2::from((i * nn + j) as f64 * 0.017 - 0.6)
        });
        let al = F64x2::from(1.5);
        let be = F64x2::from(-0.25);
        let c0 = SoaMatrix::<f64, 2>::from_fn(m, nn, |i, j| F64x2::from((i + j) as f64 * 0.1));
        let mut c_disp = c0.clone();
        gemm(al, &a, &b, be, &mut c_disp);
        let mut c_body = c0.clone();
        gemm_rows_body(al, &a, &b, be, &mut c_body.comps, 0, m);
        for k in 0..2 {
            assert_eq!(c_disp.comps[k], c_body.comps[k], "gemm comp {k}");
        }

        let xv = SoaVec::<f64, 2>::from_slice(
            &(0..kk)
                .map(|j| F64x2::from(j as f64 * 0.05 - 0.2))
                .collect::<Vec<_>>(),
        );
        let y0 = SoaVec::<f64, 2>::from_slice(&vec![F64x2::from(0.5); m]);
        let mut yv_disp = y0.clone();
        gemv(al, &a, &xv, be, &mut yv_disp);
        let mut yv_body = y0.clone();
        gemv_body(al, &a, &xv, be, &mut yv_body);
        for k in 0..2 {
            assert_eq!(yv_disp.comps[k], yv_body.comps[k], "gemv comp {k}");
        }
    }

    #[test]
    fn dot_handles_non_multiple_of_lanes() {
        let mut rng = SmallRng::seed_from_u64(914);
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63] {
            let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xs: Vec<F64x2> = x64.iter().map(|&v| F64x2::from(v)).collect();
            let ys: Vec<F64x2> = y64.iter().map(|&v| F64x2::from(v)).collect();
            let got = dot(&SoaVec::from_slice(&xs), &SoaVec::from_slice(&ys)).to_f64();
            let exact = MpFloat::exact_dot(&x64, &y64).to_f64();
            assert!((got - exact).abs() <= 1e-13 * exact.abs().max(1.0), "n={n}");
        }
    }
}
