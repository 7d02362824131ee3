//! Row-parallel GEMM over SoA matrices.
//!
//! [`gemm_tiled`] splits the rows of `C` into one
//! [`chunk_ranges`](crate::parallel::chunk_ranges) range per thread and
//! runs each range through the one SoA GEMM body, [`soa::gemm_rows`]
//! (`ikj` order, element-wise AXPY inner loop inside the AVX2+FMA frame),
//! on the worker pool. The name is kept from the cache-blocked engine it
//! replaced: packing panels and register-blocking tiles measured slower
//! than the flat body once that body ran inside the FMA frame, even at
//! n = 512 (EXPERIMENTS.md ablations 10 and 16).
//!
//! **Bitwise contract:** every row runs [`soa::gemm_rows`], so the result
//! is bit-identical to [`soa::gemm`] and [`crate::kernels::gemm`] at any
//! thread count, which the conformance harness asserts.
//!
//! **Parallelism & degrade:** the ranges run through the crate's chunk
//! runner, [`crate::parallel::run_chunks`]. Each range computes into a
//! private `N`-component buffer and writes its rows of `C` back only
//! after its last scalar operation, so a panicking range leaves `C`
//! untouched (there is nothing to snapshot) and the runner reruns it
//! serially on the calling thread (`blas.parallel.degraded_*` telemetry;
//! a second panic propagates with the kernel name and the range's rows).
//! Telemetry: the `blas.tile.dispatches` counter (every call), the
//! `blas.parallel.*` dispatch counters, and one `par.gemm.tiled.chunk`
//! span per range (arg = rows) under a `par.gemm.tiled` dispatch span
//! (arg = rows of `C`), as in [`crate::parallel::gemm`].

use crate::parallel::{chunk_ranges, record_dispatch, run_chunks, ChunkedMut};
use crate::soa::{self, SoaMatrix};
use mf_core::{FloatBase, MultiFloat};
use mf_telemetry::{trace, Counter};

static TILE_DISPATCHES: Counter = Counter::new("blas.tile.dispatches");

/// `C <- alpha*A*B + beta*C`, one row range per thread.
/// Bit-identical to [`soa::gemm`] / [`crate::kernels::gemm`] (asserted by
/// the conformance harness) at any thread count.
pub fn gemm_tiled<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &mut SoaMatrix<T, N>,
    threads: usize,
) {
    assert_eq!(
        a.cols, b.rows,
        "gemm_tiled: A is {}x{} but B is {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        c.rows, a.rows,
        "gemm_tiled: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    assert_eq!(
        c.cols, b.cols,
        "gemm_tiled: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    c.assert_storage("gemm_tiled");
    if c.rows == 0 || c.cols == 0 {
        return;
    }
    if mf_telemetry::ENABLED {
        TILE_DISPATCHES.incr();
    }
    if threads <= 1 {
        return soa::gemm_rows(alpha, a, b, beta, &mut c.comps, 0, c.rows);
    }
    let ranges = chunk_ranges(c.rows, threads);
    record_dispatch(&ranges);
    let _sp = trace::span("par.gemm.tiled", c.rows as u64);
    let n = c.cols;
    let comps: Vec<ChunkedMut<T>> = c.comps.iter_mut().map(|v| ChunkedMut::new(v)).collect();
    run_chunks("gemm_tiled", &ranges, &mut [(); 0], 0, &|ci, _| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("par.gemm.tiled.chunk", (hi - lo) as u64);
        // SAFETY: row ranges are disjoint and each runs once (a degraded
        // rerun starts after every worker finished), so the component
        // slices of distinct ranges never alias.
        let rows: Vec<&mut [T]> = comps
            .iter()
            .map(|v| unsafe { v.slice(lo * n, hi * n) })
            .collect();
        let mut buf: Vec<Vec<T>> = rows.iter().map(|r| r.to_vec()).collect();
        soa::gemm_rows(alpha, a, b, beta, &mut buf, lo, hi);
        // The only write to `C`, after every scalar operation of the range.
        for (row, v) in rows.into_iter().zip(&buf) {
            row.copy_from_slice(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, Matrix};
    use core::fmt;
    use core::ops::{Add, Div, Mul, Neg, Sub};
    use mf_core::F64x2;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Mutex;

    fn rand_soa<const N: usize>(rng: &mut SmallRng, rows: usize, cols: usize) -> SoaMatrix<f64, N> {
        SoaMatrix::from_fn(rows, cols, |_, _| {
            MultiFloat::from(rng.gen_range(-1.0..1.0f64))
        })
    }

    /// At every thread count in `threads`, the row-parallel kernel is
    /// bit-identical to the flat SoA kernel and to the AoS kernel.
    fn assert_tiled_matches_flat<const N: usize>(
        (m, k, n): (usize, usize, usize),
        threads: &[usize],
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_soa::<N>(&mut rng, m, k);
        let b = rand_soa::<N>(&mut rng, k, n);
        let c0 = rand_soa::<N>(&mut rng, m, n);
        let alpha = MultiFloat::<f64, N>::from(1.25);
        let beta = MultiFloat::<f64, N>::from(-0.5);

        let mut c_flat = c0.clone();
        soa::gemm(alpha, &a, &b, beta, &mut c_flat);
        let aos = |s: &SoaMatrix<f64, N>| Matrix::from_fn(s.rows, s.cols, |i, j| s.get(i, j));
        let mut c_aos = aos(&c0);
        kernels::gemm(alpha, &aos(&a), &aos(&b), beta, &mut c_aos);
        for &t in threads {
            let mut c_tile = c0.clone();
            gemm_tiled(alpha, &a, &b, beta, &mut c_tile, t);
            for q in 0..N {
                assert_eq!(
                    c_flat.comps[q], c_tile.comps[q],
                    "N={N} {m}x{k}x{n} t={t} comp {q}: tiled != soa::gemm"
                );
            }
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c_tile.get(i, j).components().map(f64::to_bits),
                        c_aos.at(i, j).components().map(f64::to_bits),
                        "N={N} {m}x{k}x{n} t={t} ({i},{j}): tiled != kernels::gemm"
                    );
                }
            }
        }
    }

    /// Property: at awkward shapes (1x1, primes, single rows, rows <
    /// threads, and the old tile-boundary shapes 32x128x128 and one past
    /// them) the row-parallel kernel is bit-identical to `soa::gemm` and
    /// `kernels::gemm` at N = 2, 3 and 4 and threads {1, 2, 3, 8}.
    #[test]
    fn tiled_matches_flat_at_awkward_shapes() {
        let threads = [1usize, 2, 3, 8];
        let shapes: [(usize, usize, usize); 8] = [
            (1, 1, 1),
            (3, 1, 2),
            (7, 13, 11),
            (31, 37, 29),
            (32, 128, 128),
            (33, 131, 133),
            (71, 17, 257),
            (5, 300, 9),
        ];
        for (idx, &shape) in shapes.iter().enumerate() {
            assert_tiled_matches_flat::<2>(shape, &threads, 2000 + idx as u64);
        }
        for (idx, &shape) in [(2, 3, 2), (5, 9, 17), (19, 23, 17)].iter().enumerate() {
            assert_tiled_matches_flat::<3>(shape, &threads, 2100 + idx as u64);
            assert_tiled_matches_flat::<4>(shape, &threads, 2150 + idx as u64);
        }
    }

    #[test]
    fn tiled_beta_zero_overwrites_poisoned_c() {
        let mut rng = SmallRng::seed_from_u64(2200);
        let (m, k, n) = (13, 9, 21);
        let a = rand_soa::<2>(&mut rng, m, k);
        let b = rand_soa::<2>(&mut rng, k, n);
        let alpha = F64x2::from(2.0);
        let beta = F64x2::from(0.0);
        let mut c = SoaMatrix::from_fn(m, n, |_, _| F64x2::from(f64::NAN));
        gemm_tiled(alpha, &a, &b, beta, &mut c, 3);
        let mut c_ref = SoaMatrix::from_fn(m, n, |_, _| F64x2::from(0.0));
        soa::gemm(alpha, &a, &b, beta, &mut c_ref);
        for q in 0..2 {
            assert_eq!(c.comps[q], c_ref.comps[q], "comp {q}");
        }
        for i in 0..m {
            for j in 0..n {
                assert!(c.get(i, j).to_f64().is_finite(), "({i},{j}) kept NaN");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm_tiled: A is")]
    fn tiled_rejects_inner_dim_mismatch() {
        let a = SoaMatrix::<f64, 2>::zeros(3, 4);
        let b = SoaMatrix::<f64, 2>::zeros(5, 2);
        let mut c = SoaMatrix::<f64, 2>::zeros(3, 2);
        gemm_tiled(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }

    /// A malformed output matrix (public fields, component vectors shorter
    /// than `rows * cols`) is rejected before any row view is built.
    #[test]
    #[should_panic(
        expected = "gemm_tiled: C is 64x64 (2 components of 4096) but its component lengths are [64, 64]"
    )]
    fn tiled_rejects_truncated_output_storage() {
        let a = SoaMatrix::<f64, 2>::zeros(64, 64);
        let mut c = SoaMatrix::<f64, 2>::zeros(64, 64);
        for comp in c.comps.iter_mut() {
            comp.truncate(64);
        }
        gemm_tiled(F64x2::from(1.0), &a, &a, F64x2::from(0.0), &mut c, 2);
    }

    /// An `f64` whose `Mul` and `mul_add` panic while the fuse is lit:
    /// injects a scalar fault into whichever tile task runs first, so the
    /// tiled GEMM's degrade path can be exercised at `T: FloatBase` (the
    /// `Scalar`-level `Flaky` type of `parallel.rs` cannot reach it).
    #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
    struct Fused(f64);

    /// Positive: multiplies until a single panic fires (the counter then
    /// disarms by running past zero). At or below `PERSISTENT`: every
    /// multiply panics.
    static FUSE: AtomicI64 = AtomicI64::new(0);
    const PERSISTENT: i64 = i64::MIN / 2;
    /// Serializes the tests that arm the shared fuse.
    static FUSE_LOCK: Mutex<()> = Mutex::new(());

    fn burn() {
        let v = FUSE.fetch_sub(1, Ordering::SeqCst);
        if v == 1 || v <= PERSISTENT {
            panic!("fused scalar blew its fuse");
        }
    }

    impl fmt::Display for Fused {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(&self.0, f)
        }
    }

    impl fmt::LowerExp for Fused {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::LowerExp::fmt(&self.0, f)
        }
    }

    impl Add for Fused {
        type Output = Self;
        fn add(self, o: Self) -> Self {
            Fused(self.0 + o.0)
        }
    }

    impl Sub for Fused {
        type Output = Self;
        fn sub(self, o: Self) -> Self {
            Fused(self.0 - o.0)
        }
    }

    impl Mul for Fused {
        type Output = Self;
        fn mul(self, o: Self) -> Self {
            burn();
            Fused(self.0 * o.0)
        }
    }

    impl Div for Fused {
        type Output = Self;
        fn div(self, o: Self) -> Self {
            Fused(self.0 / o.0)
        }
    }

    impl Neg for Fused {
        type Output = Self;
        fn neg(self) -> Self {
            Fused(-self.0)
        }
    }

    impl FloatBase for Fused {
        const PRECISION: u32 = f64::PRECISION;
        const MIN_EXP: i32 = <f64 as FloatBase>::MIN_EXP;
        const MAX_EXP: i32 = <f64 as FloatBase>::MAX_EXP;
        const ZERO: Self = Fused(0.0);
        const ONE: Self = Fused(1.0);
        const NEG_ONE: Self = Fused(-1.0);
        const HALF: Self = Fused(0.5);
        const TWO: Self = Fused(2.0);
        const EPSILON: Self = Fused(f64::EPSILON);
        const MAX: Self = Fused(f64::MAX);
        const MIN_POSITIVE: Self = Fused(f64::MIN_POSITIVE);
        const INFINITY: Self = Fused(f64::INFINITY);
        const NEG_INFINITY: Self = Fused(f64::NEG_INFINITY);
        const NAN: Self = Fused(f64::NAN);

        fn mul_add(self, a: Self, b: Self) -> Self {
            burn();
            Fused(self.0.mul_add(a.0, b.0))
        }
        fn sqrt(self) -> Self {
            Fused(self.0.sqrt())
        }
        fn abs(self) -> Self {
            Fused(self.0.abs())
        }
        fn recip(self) -> Self {
            Fused(self.0.recip())
        }
        fn floor(self) -> Self {
            Fused(self.0.floor())
        }
        fn ceil(self) -> Self {
            Fused(self.0.ceil())
        }
        fn round(self) -> Self {
            Fused(self.0.round())
        }
        fn trunc(self) -> Self {
            Fused(self.0.trunc())
        }
        fn is_nan(self) -> bool {
            self.0.is_nan()
        }
        fn is_infinite(self) -> bool {
            self.0.is_infinite()
        }
        fn is_finite(self) -> bool {
            self.0.is_finite()
        }
        fn is_sign_negative(self) -> bool {
            self.0.is_sign_negative()
        }
        fn exponent(self) -> i32 {
            FloatBase::exponent(self.0)
        }
        fn exp2i(e: i32) -> Self {
            Fused(<f64 as FloatBase>::exp2i(e))
        }
        fn from_f64(x: f64) -> Self {
            Fused(x)
        }
        fn to_f64(self) -> f64 {
            self.0
        }
        fn copysign(self, sign: Self) -> Self {
            Fused(self.0.copysign(sign.0))
        }
        fn min(self, other: Self) -> Self {
            Fused(self.0.min(other.0))
        }
        fn max(self, other: Self) -> Self {
            Fused(self.0.max(other.0))
        }
    }

    /// Operands with 7 rows of `C`: 2 threads dispatch the row ranges
    /// 0..4 and 4..7, 3 threads 0..3, 3..5 and 5..7.
    fn fused_operands() -> [SoaMatrix<Fused, 2>; 3] {
        let mut rng = SmallRng::seed_from_u64(2400);
        let mut mk = |rows, cols| {
            SoaMatrix::from_fn(rows, cols, |_, _| {
                MultiFloat::from_components([Fused(rng.gen_range(-1.0..1.0f64)), Fused(0.0)])
            })
        };
        [mk(7, 9), mk(9, 13), mk(7, 13)]
    }

    /// A transient scalar panic inside one row range leaves `C` untouched
    /// and the range is rerun serially: the result stays bit-identical to
    /// `soa::gemm`.
    #[test]
    fn tiled_transient_panic_recovers_bit_identical() {
        let _fuse = FUSE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let [a, b, c0] = fused_operands();
        let alpha = MultiFloat::from_components([Fused(1.25), Fused(0.0)]);
        let beta = MultiFloat::from_components([Fused(-0.5), Fused(0.0)]);
        FUSE.store(0, Ordering::SeqCst);
        let mut c_ref = c0.clone();
        soa::gemm(alpha, &a, &b, beta, &mut c_ref);

        // Count the multiplies of one clean tiled run, then light the fuse
        // to blow at 95% of the next: however the pool schedules the
        // ranges, the last one running is then past its first row, so a
        // range that wrote finished rows to `C` before its last scalar op
        // would be rerun from a half-updated `C`.
        FUSE.store(0, Ordering::SeqCst);
        gemm_tiled(alpha, &a, &b, beta, &mut c0.clone(), 3);
        let total = -FUSE.load(Ordering::SeqCst);
        FUSE.store(total - total / 20, Ordering::SeqCst);
        let mut c_tile = c0.clone();
        gemm_tiled(alpha, &a, &b, beta, &mut c_tile, 3);
        let fired = FUSE.swap(0, Ordering::SeqCst) < 0;
        assert!(fired, "the fuse never fired: the test injected no fault");
        for q in 0..2 {
            assert_eq!(
                c_tile.comps[q], c_ref.comps[q],
                "comp {q}: degraded range diverged"
            );
        }
    }

    /// A panic that survives the serial retry propagates with the kernel
    /// name, the failing row range (the first of 2: rows 0..4) and the
    /// scalar's own message. The fuse stays lit after the panic; every
    /// test that uses `Fused` sets it first.
    #[test]
    #[should_panic(
        expected = "mf-blas gemm_tiled: worker and serial retry both panicked on chunk 0..4: \
                    fused scalar blew its fuse"
    )]
    fn tiled_persistent_panic_names_kernel_and_range() {
        let _fuse = FUSE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let [a, b, mut c] = fused_operands();
        let one = MultiFloat::from_components([Fused(1.0), Fused(0.0)]);
        FUSE.store(PERSISTENT, Ordering::SeqCst);
        gemm_tiled(one, &a, &b, one, &mut c, 2);
    }
}
