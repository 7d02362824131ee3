//! `f64` LU factorization with partial pivoting and triangular solves.
//!
//! The factorization is a right-looking *blocked* elimination with row
//! pivoting, stored packed (`L` strictly below the diagonal with unit
//! diagonal implied, `U` on and above). Each panel of 32 columns is
//! factored with the textbook pivot rule and row swaps; then the panel's
//! `U12` rows are updated in row order, and the trailing matrix takes the
//! panel's rank-32 update through a 4×8 register tile. Every entry
//! still takes its `a -= l·u` updates one at a time, in ascending
//! elimination step, as a plain multiply then subtract — exactly the
//! operations of the unblocked loop — so the permutation, the factor bits
//! and any [`SolveError::SingularPivot`] are those of the textbook
//! algorithm; the blocking only changes *when* each update runs, for
//! cache and register reuse. No `mul_add` is used: fusing would move the
//! factors' bits, and would cost a soft FMA under `MF_SIMD=scalar`.
//!
//! The triangular solves run every row through one dot body with eight
//! independent accumulators, a fixed reduction tree and a serial tail, so
//! their bits are fixed by the source order alone. The factorization and
//! both solves run inside [`mf_blas::fma_frame!`], which only widens the
//! vectors: the bits are the same in and out of the frame, on every ISA.
//!
//! Pivoting *is* data-dependent branching — that is fine here: the
//! paper's branch-free discipline applies to the extended-precision
//! arithmetic kernels, and this solver deliberately keeps the O(n³)
//! factorization in plain hardware `f64` (the mixed-precision pattern;
//! see [`crate::refine`]).

use crate::{MatrixF64, SolveError};
use mf_telemetry::trace;

/// Panel width of the blocked factorization.
const NB: usize = 32;

/// Columns of the trailing-update register tile.
const TILE_COLS: usize = 8;

/// Packed LU factors with the pivoting permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed `L\U` (row-major, `n x n`).
    pub lu: MatrixF64,
    /// Row permutation: elimination step `k` swapped rows `k` and
    /// `perm[k]` of the working matrix (LAPACK `ipiv` convention applied
    /// eagerly — `perm` maps output rows to original rows).
    pub perm: Vec<usize>,
}

/// Factor a square matrix. Returns [`SolveError::SingularPivot`] when the
/// best available pivot at some step is zero or non-finite (singular to
/// working precision).
pub fn lu_factor(a: &MatrixF64) -> Result<LuFactors, SolveError> {
    if a.rows != a.cols {
        return Err(SolveError::Shape(format!(
            "lu_factor needs a square matrix, got {}x{}",
            a.rows, a.cols
        )));
    }
    let n = a.rows;
    let _sp = trace::span("solve.lu", n as u64);
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    factor_in_place(&mut lu.data, n, &mut perm)?;
    Ok(LuFactors { lu, perm })
}

mf_blas::fma_frame! {
    /// Blocked factorization of the row-major `n x n` matrix `a` in place,
    /// one panel of [`NB`] columns at a time.
    fn factor_in_place / factor_body [] (
        a: &mut [f64],
        n: usize,
        perm: &mut [usize],
    ) -> Result<(), SolveError> {
        for k0 in (0..n).step_by(NB) {
            let k1 = (k0 + NB).min(n);
            factor_panel(a, n, perm, k0, k1)?;
            update_u12(a, n, k0, k1);
            update_trailing(a, n, k0, k1);
        }
        Ok(())
    }
}

/// Factor columns `k0..k1` over rows `k0..n`: the textbook step — pivot
/// search, full-row swap, multipliers, elimination — restricted to the
/// panel's columns. The columns right of the panel are left to
/// [`update_u12`] and [`update_trailing`].
#[inline(always)]
fn factor_panel(
    a: &mut [f64],
    n: usize,
    perm: &mut [usize],
    k0: usize,
    k1: usize,
) -> Result<(), SolveError> {
    for k in k0..k1 {
        // Partial pivot: largest |entry| in column k at or below the
        // diagonal; the first one wins a tie.
        let (mut pi, mut pv) = (k, a[k * n + k].abs());
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > pv {
                pi = i;
                pv = v;
            }
        }
        if pv == 0.0 || !pv.is_finite() {
            return Err(SolveError::SingularPivot {
                step: k,
                pivot: a[pi * n + k],
            });
        }
        if pi != k {
            let (upper, lower) = a.split_at_mut(pi * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
            perm.swap(k, pi);
        }
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let urow = &upper[k * n + k..k * n + k1];
        let pivot = urow[0];
        for row in lower.chunks_exact_mut(n) {
            let f = row[k] / pivot;
            row[k] = f;
            for (v, &u) in row[k + 1..k1].iter_mut().zip(&urow[1..]) {
                *v -= f * u;
            }
        }
    }
    Ok(())
}

/// `U12 = L11⁻¹ A12`: rows `k0..k1`, columns `k1..n`, in row order, so
/// each row meets its updates from the panel's earlier (final) rows in
/// ascending step.
#[inline(always)]
fn update_u12(a: &mut [f64], n: usize, k0: usize, k1: usize) {
    for m in k0 + 1..k1 {
        let (done, rest) = a.split_at_mut(m * n);
        let (lrow, urow) = rest[..n].split_at_mut(k1);
        for k in k0..m {
            let l = lrow[k];
            for (v, &u) in urow.iter_mut().zip(&done[k * n + k1..(k + 1) * n]) {
                *v -= l * u;
            }
        }
    }
}

/// `A22 -= L21 · U12` over rows and columns `k1..n`: four rows at a time
/// through [`update_rows`], then the leftover rows one at a time.
#[inline(always)]
fn update_trailing(a: &mut [f64], n: usize, k0: usize, k1: usize) {
    let (upper, lower) = a.split_at_mut(k1 * n);
    let u = &upper[k0 * n..];
    let mut quads = lower.chunks_exact_mut(4 * n);
    for quad in &mut quads {
        let mut rows = quad.chunks_exact_mut(n).map(|r| r.split_at_mut(k1));
        let [r0, r1, r2, r3] = core::array::from_fn(|_| rows.next().expect("four rows"));
        update_rows(
            [&r0.0[k0..], &r1.0[k0..], &r2.0[k0..], &r3.0[k0..]],
            [r0.1, r1.1, r2.1, r3.1],
            u,
            n,
            k1,
        );
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        let (l, c) = row.split_at_mut(k1);
        update_rows([&l[k0..]], [c], u, n, k1);
    }
}

/// Subtract `l[r] · U12` from the trailing-row segments `c[r]` (columns
/// `k1..n`), where `l[r]` holds row `r`'s panel multipliers and `u` the
/// panel's rows from `k0` on, stride `n`. Full column blocks run as an
/// `R`×8 register tile; the column tail runs entry by entry. Either way an
/// entry takes its updates in ascending step, a multiply then a subtract.
#[inline(always)]
fn update_rows<const R: usize>(l: [&[f64]; R], c: [&mut [f64]; R], u: &[f64], n: usize, k1: usize) {
    let nb = l[0].len();
    let l: [&[f64]; R] = l.map(|s| &s[..nb]);
    let width = n - k1;
    let full = width - width % TILE_COLS;
    for j in (0..full).step_by(TILE_COLS) {
        let mut t = [[0.0f64; TILE_COLS]; R];
        for r in 0..R {
            t[r].copy_from_slice(&c[r][j..j + TILE_COLS]);
        }
        for kk in 0..nb {
            let ur: &[f64; TILE_COLS] = u[kk * n + k1 + j..][..TILE_COLS]
                .try_into()
                .expect("full tile");
            for r in 0..R {
                let lv = l[r][kk];
                for q in 0..TILE_COLS {
                    t[r][q] -= lv * ur[q];
                }
            }
        }
        for r in 0..R {
            c[r][j..j + TILE_COLS].copy_from_slice(&t[r]);
        }
    }
    for r in 0..R {
        for j in full..width {
            let mut v = c[r][j];
            for kk in 0..nb {
                v -= l[r][kk] * u[kk * n + k1 + j];
            }
            c[r][j] = v;
        }
    }
}

impl LuFactors {
    /// Solve `A x = b` from the packed factors (permute, forward-, then
    /// back-substitute).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "lu solve: b has {} elements, need {n}", b.len());
        let _sp = trace::span("solve.trisolve", n as u64);
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        forward_substitute_unit(&self.lu, &mut x);
        back_substitute(&self.lu, &mut x);
        x
    }
}

/// `Σ a[j]·x[j]` with eight independent accumulators (`s[j % 8]` takes
/// the full blocks), the fixed tree `((s0+s4)+(s1+s5))+((s2+s6)+(s3+s7))`,
/// then the tail added serially. Plain multiplies and adds, so the order —
/// and therefore the bits — is the same on every ISA.
#[inline(always)]
fn row_dot(a: &[f64], x: &[f64]) -> f64 {
    let (ab, xb) = (a.chunks_exact(8), x.chunks_exact(8));
    let (at, xt) = (ab.remainder(), xb.remainder());
    let mut s = [0.0f64; 8];
    for (pa, px) in ab.zip(xb) {
        for l in 0..8 {
            s[l] += pa[l] * px[l];
        }
    }
    // The value passes through unchanged. Without the barrier the
    // vectorizer lays the accumulators out after the reduction tree,
    // pairing (s0, s2), (s1, s3), ..., and shuffles every step; with it
    // they stay two contiguous 4-lane registers (an n = 256 solve took
    // 26 µs without it and 19 µs with it on a 2-core AVX2 Xeon).
    let s = core::hint::black_box(s);
    let t: [f64; 4] = core::array::from_fn(|l| s[l] + s[l + 4]);
    let mut acc = (t[0] + t[1]) + (t[2] + t[3]);
    for (&p, &q) in at.iter().zip(xt) {
        acc += p * q;
    }
    acc
}

mf_blas::fma_frame! {
    /// In-place `L y = b` with the unit-diagonal `L` packed strictly below
    /// the diagonal of `m`; each row's dot product runs through the
    /// 8-accumulator row dot.
    pub fn forward_substitute_unit / forward_body [] (m: &MatrixF64, x: &mut [f64]) {
        let n = m.rows;
        let x = &mut x[..n];
        for i in 1..n {
            let s = row_dot(&m.row(i)[..i], &x[..i]);
            x[i] -= s;
        }
    }
}

mf_blas::fma_frame! {
    /// In-place `U x = y` with `U` packed on and above the diagonal of
    /// `m`; each row's dot product runs through the 8-accumulator row dot.
    pub fn back_substitute / back_body [] (m: &MatrixF64, x: &mut [f64]) {
        let n = m.rows;
        let x = &mut x[..n];
        for i in (0..n).rev() {
            let row = &m.row(i)[..n];
            let s = row_dot(&row[i + 1..], &x[i + 1..]);
            x[i] = (x[i] - s) / row[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mat_vec(a: &MatrixF64, x: &[f64]) -> Vec<f64> {
        (0..a.rows)
            .map(|i| a.row(i).iter().zip(x).map(|(&aij, &xj)| aij * xj).sum())
            .collect()
    }

    /// The unblocked textbook elimination the blocked factorization must
    /// reproduce bit for bit: for each step, pivot search, full-row swap,
    /// then `a[i][j] - f * a[k][j]` over the whole trailing matrix.
    fn lu_factor_textbook(a: &MatrixF64) -> Result<LuFactors, SolveError> {
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let (mut pi, mut pv) = (k, lu.at(k, k).abs());
            for i in k + 1..n {
                let v = lu.at(i, k).abs();
                if v > pv {
                    pi = i;
                    pv = v;
                }
            }
            if pv == 0.0 || !pv.is_finite() {
                return Err(SolveError::SingularPivot {
                    step: k,
                    pivot: lu.at(pi, k),
                });
            }
            if pi != k {
                for j in 0..n {
                    let t = lu.at(k, j);
                    lu.set(k, j, lu.at(pi, j));
                    lu.set(pi, j, t);
                }
                perm.swap(k, pi);
            }
            let pivot = lu.at(k, k);
            for i in k + 1..n {
                let f = lu.at(i, k) / pivot;
                lu.set(i, k, f);
                for j in k + 1..n {
                    let v = lu.at(i, j) - f * lu.at(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Same bits, NaNs compared as NaN (their payload is not part of the
    /// contract).
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// `lu_factor` against the textbook oracle: the same permutation and
    /// factor bits, or the same singular step and pivot.
    fn assert_matches_textbook(a: &MatrixF64, what: &str) {
        match (lu_factor(a), lu_factor_textbook(a)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.perm, want.perm, "{what}: perm");
                for (idx, (&g, &w)) in got.lu.data.iter().zip(&want.lu.data).enumerate() {
                    let (i, j) = (idx / a.cols, idx % a.cols);
                    assert!(same_bits(g, w), "{what}: factor ({i},{j}) {g:e} vs {w:e}");
                }
            }
            (
                Err(SolveError::SingularPivot {
                    step: gs,
                    pivot: gp,
                }),
                Err(SolveError::SingularPivot {
                    step: ws,
                    pivot: wp,
                }),
            ) => {
                assert_eq!(gs, ws, "{what}: singular step");
                assert!(same_bits(gp, wp), "{what}: singular pivot {gp:e} vs {wp:e}");
            }
            (got, want) => panic!("{what}: got {got:?}, textbook {want:?}"),
        }
    }

    fn random_matrix(rng: &mut SmallRng, n: usize) -> MatrixF64 {
        MatrixF64::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Every panel and tile shape: n below, at and past the panel width
    /// and the tile sizes, random matrices (which pivot at nearly every
    /// step, also inside the trailing blocks), plus rows scaled to force
    /// swaps with rows far below the current panel, and small-integer
    /// matrices, whose pivot searches meet exact ties (the first row
    /// wins).
    #[test]
    fn blocked_lu_matches_textbook_bitwise() {
        let mut rng = SmallRng::seed_from_u64(7102);
        for n in [1usize, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 256] {
            let a = random_matrix(&mut rng, n);
            assert_matches_textbook(&a, &format!("random n={n}"));
            // Growing row scales: the pivot of every column sits in the
            // bottom rows, so each step swaps across the trailing block.
            let a = MatrixF64::from_fn(n, n, |i, j| {
                a.at(i, j) * 2.0f64.powi(i as i32 % 40) + if i == j { 1e-3 } else { 0.0 }
            });
            assert_matches_textbook(&a, &format!("scaled rows n={n}"));
            let a = MatrixF64::from_fn(n, n, |_, _| rng.gen_range(0..5) as f64 - 2.0);
            assert_matches_textbook(&a, &format!("small integers n={n}"));
        }
    }

    /// Singular pivots at steps inside the second and third panels, from
    /// an exactly zero column and from a duplicated column, report the
    /// textbook step and pivot.
    #[test]
    fn blocked_lu_singular_pivot_matches_textbook() {
        let mut rng = SmallRng::seed_from_u64(7103);
        let n = 100;
        for step in [NB + 5, 2 * NB + 17] {
            // A zero column stays exactly zero through the earlier steps,
            // so every candidate pivot at `step` is 0.
            let mut a = random_matrix(&mut rng, n);
            for i in 0..n {
                a.set(i, step, 0.0);
            }
            assert_matches_textbook(&a, &format!("zero column {step}"));
            match lu_factor(&a) {
                Err(SolveError::SingularPivot { step: s, pivot }) => {
                    assert_eq!((s, pivot), (step, 0.0), "zero column");
                }
                other => panic!("zero column {step}: expected SingularPivot, got {other:?}"),
            }
            // Rank deficiency from duplicated columns: rounding decides the
            // step and pivot, which must still be the textbook's.
            let mut a = random_matrix(&mut rng, n);
            for i in 0..n {
                let v = a.at(i, 3);
                a.set(i, step, v);
            }
            assert_matches_textbook(&a, &format!("duplicate column {step}"));
        }
    }

    /// Non-finite entries travel through the same operations in the same
    /// order: the same singular step and pivot, or the same factors.
    #[test]
    fn blocked_lu_non_finite_entries_match_textbook() {
        let mut rng = SmallRng::seed_from_u64(7104);
        let n = 70;
        for (i, j, v) in [
            (0, 0, f64::NAN),
            (5, 40, f64::NAN),
            (40, 5, f64::INFINITY),
            (69, 69, f64::NEG_INFINITY),
            (33, 66, f64::INFINITY),
            (66, 33, f64::NAN),
        ] {
            let mut a = random_matrix(&mut rng, n);
            a.set(i, j, v);
            assert_matches_textbook(&a, &format!("{v} at ({i},{j})"));
        }
    }

    /// `Σ a[j]·x[j]` exactly, and `Σ |a[j]·x[j]|` rounded.
    fn exact_and_magnitude(a: &[f64], x: &[f64]) -> (f64, f64) {
        let abs = |v: &[f64]| v.iter().map(|t| t.abs()).collect::<Vec<_>>();
        (
            MpFloat::exact_dot(a, x).to_f64(),
            MpFloat::exact_dot(&abs(a), &abs(x)).to_f64(),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|t| t.to_bits()).collect()
    }

    /// The row dot's bits are those of its documented order: `s[j % 8]`
    /// accumulates the full blocks in index order, then
    /// `((s0+s4)+(s1+s5))+((s2+s6)+(s3+s7))`, then the tail one term at a
    /// time. Magnitudes spread over 2^±30 so another order rounds
    /// differently.
    #[test]
    fn row_dot_sums_in_the_documented_order() {
        let mut rng = SmallRng::seed_from_u64(7107);
        for len in (0usize..=20).chain([63, 64, 65]) {
            let mut draw = || rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-30..30));
            let a: Vec<f64> = (0..len).map(|_| draw()).collect();
            let x: Vec<f64> = (0..len).map(|_| draw()).collect();
            let full = len - len % 8;
            let mut s = [0.0f64; 8];
            for j in 0..full {
                s[j % 8] += a[j] * x[j];
            }
            let mut want = ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]));
            for j in full..len {
                want += a[j] * x[j];
            }
            assert_eq!(row_dot(&a, &x).to_bits(), want.to_bits(), "len={len}");
        }
    }

    /// Both solves at every 8-lane tail shape. Each solved entry satisfies
    /// its row equation, with the computed entries before it, to within
    /// `(k + 2)·u·Σ|terms|` for `k` products (the summation bound, plus
    /// the subtraction and, for `U`, the division), the residual taken
    /// exactly with `MpFloat`; and the dispatched solve equals its portable
    /// body run outside the frame, bit for bit.
    #[test]
    fn triangular_solves_bounded_and_frame_independent() {
        let mut rng = SmallRng::seed_from_u64(7105);
        let u = f64::EPSILON / 2.0;
        for n in (1usize..=20).chain([63, 64, 65]) {
            let m = MatrixF64::from_fn(n, n, |i, j| {
                if i == j {
                    rng.gen_range(1.0..2.0)
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            });
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

            let (mut y, mut y_portable) = (b.clone(), b.clone());
            forward_substitute_unit(&m, &mut y);
            forward_body(&m, &mut y_portable);
            assert_eq!(
                bits(&y),
                bits(&y_portable),
                "forward n={n}: frame vs portable"
            );
            for i in 0..n {
                // L[i, ..i]·y[..i] + y_i - b_i
                let terms: Vec<f64> = m.row(i)[..i].iter().copied().chain([1.0, -1.0]).collect();
                let vals: Vec<f64> = y[..i].iter().copied().chain([y[i], b[i]]).collect();
                let (res, mag) = exact_and_magnitude(&terms, &vals);
                let bound = (i + 2) as f64 * u * mag;
                assert!(
                    res.abs() <= bound,
                    "forward n={n} i={i}: {res:e} > {bound:e}"
                );
            }

            let (mut x, mut x_portable) = (b.clone(), b.clone());
            back_substitute(&m, &mut x);
            back_body(&m, &mut x_portable);
            assert_eq!(bits(&x), bits(&x_portable), "back n={n}: frame vs portable");
            for i in 0..n {
                // U[i, i..]·x[i..] - b_i
                let terms: Vec<f64> = m.row(i)[i..].iter().copied().chain([-1.0]).collect();
                let vals: Vec<f64> = x[i..].iter().copied().chain([b[i]]).collect();
                let (res, mag) = exact_and_magnitude(&terms, &vals);
                let bound = (n - i + 2) as f64 * u * mag;
                assert!(res.abs() <= bound, "back n={n} i={i}: {res:e} > {bound:e}");
            }
        }
    }

    #[test]
    fn lu_recovers_random_solution() {
        let mut rng = SmallRng::seed_from_u64(7100);
        for n in [1usize, 2, 5, 20, 64] {
            // Diagonally dominant => well-conditioned and non-singular.
            let a = MatrixF64::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 + 1.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            });
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = mat_vec(&a, &x_true);
            let f = lu_factor(&a).expect("non-singular");
            let x = f.solve(&b);
            for i in 0..n {
                assert!(
                    (x[i] - x_true[i]).abs() <= 1e-10 * x_true[i].abs().max(1.0),
                    "n={n} i={i}: {} vs {}",
                    x[i],
                    x_true[i]
                );
            }
        }
    }

    #[test]
    fn lu_pivots_past_zero_leading_entry() {
        // a[0][0] = 0 forces a pivot swap immediately.
        let a = MatrixF64 {
            rows: 2,
            cols: 2,
            data: vec![0.0, 1.0, 1.0, 0.0],
        };
        let f = lu_factor(&a).expect("permutation matrix is non-singular");
        let x = f.solve(&[3.0, 4.0]);
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = MatrixF64 {
            rows: 2,
            cols: 2,
            data: vec![1.0, 2.0, 2.0, 4.0],
        };
        match lu_factor(&a) {
            Err(SolveError::SingularPivot { step, .. }) => assert_eq!(step, 1),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn lu_rejects_non_square() {
        let a = MatrixF64::zeros(2, 3);
        assert!(matches!(lu_factor(&a), Err(SolveError::Shape(_))));
    }

    #[test]
    fn triangular_solves_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(7101);
        let n = 9;
        // A packed L\U with a safely bounded-away diagonal.
        let m = MatrixF64::from_fn(n, n, |i, j| {
            if i == j {
                rng.gen_range(1.0..2.0)
            } else {
                rng.gen_range(-0.5..0.5)
            }
        });
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Forward: compute b = L y, then solve back to y.
        let mut b = y.clone();
        for i in (0..n).rev() {
            for j in 0..i {
                b[i] += m.at(i, j) * b[j]; // b = L y computed in place
            }
        }
        let mut x = b;
        forward_substitute_unit(&m, &mut x);
        for i in 0..n {
            assert!((x[i] - y[i]).abs() <= 1e-12, "forward i={i}");
        }
        // Back: b = U y, solve back.
        let mut b: Vec<f64> = (0..n)
            .map(|i| (i..n).map(|j| m.at(i, j) * y[j]).sum())
            .collect();
        back_substitute(&m, &mut b);
        for i in 0..n {
            assert!((b[i] - y[i]).abs() <= 1e-12, "back i={i}");
        }
    }
}
