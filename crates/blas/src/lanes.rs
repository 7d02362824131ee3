//! Explicit SIMD-lane execution of the FPAN kernels.
//!
//! [`Lanes<L>`] is an `[f64; L]` behaving as a single [`FloatBase`] value
//! with **element-wise** arithmetic. Because the extended-precision kernels
//! in `mf-core` are branch-free straight-line code over any `FloatBase`,
//! instantiating them at `T = Lanes<8>` executes 8 *independent*
//! extended-precision operations in lock-step — two AVX2 registers per
//! wire. This is the paper's GPU/SIMT execution model verbatim (§5: each
//! GPU lane runs the same FPAN on its own data), and it removes the need
//! for the autovectorizer to discover the parallelism on its own.
//!
//! The engine is DOT-only. The one lock-step DOT body ([`lockstep_dot`])
//! is written once against the [`VLane`] trait. [`Lanes`] instantiates it
//! as the portable reference path; the intrinsic realizations in
//! [`crate::simd`] (`V8Avx2`, `V8Neon`) instantiate the same body, so
//! every realization runs one gate graph and one reduction structure.
//! Streaming kernels (AXPY, the GEMM inner loop) stay element-wise: inside
//! the AVX2+FMA frame the compiler vectorizes them, and explicit lanes
//! measured slower there (EXPERIMENTS.md ablation 16).
//!
//! Semantics notes:
//!
//! * Arithmetic, `mul_add`, `sqrt`, `abs`, `min`/`max` are lane-wise and
//!   exactly as accurate as scalar `f64` — the kernels compute the same
//!   bits per lane as they would scalar.
//! * Comparisons and predicates (`PartialOrd`, `is_nan`, `exponent`, …)
//!   cannot be lane-wise and still satisfy the trait; they reduce over
//!   lanes conservatively (documented per method). The arithmetic kernels
//!   never branch on them — that is the entire point of branch-free
//!   algorithms — so reductions only affect debug assertions.

use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};
use mf_core::{addition, multiplication, FloatBase, MultiFloat};

/// `L` independent lanes of base type `T` executing in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<T: FloatBase, const L: usize>(pub [T; L]);

impl<T: FloatBase, const L: usize> Lanes<T, L> {
    #[inline(always)]
    fn map(self, f: impl Fn(T) -> T) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = f(*v);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut out = self.0;
        for (v, w) in out.iter_mut().zip(&o.0) {
            *v = f(*v, *w);
        }
        Lanes(out)
    }
}

impl<T: FloatBase, const L: usize> Default for Lanes<T, L> {
    fn default() -> Self {
        Lanes([T::ZERO; L])
    }
}

impl<T: FloatBase, const L: usize> fmt::Display for Lanes<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0[0])
    }
}

impl<T: FloatBase, const L: usize> fmt::LowerExp for Lanes<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:e}", self.0[0])
    }
}

impl<T: FloatBase, const L: usize> PartialOrd for Lanes<T, L> {
    /// A *partial* order consistent with the derived `PartialEq`
    /// (all-lanes equality): `Some(Equal)` iff every lane compares equal,
    /// `Less`/`Greater` by lane-0 when lane 0 strictly orders, and `None`
    /// when lane 0 ties but some other lane differs (no single ordering is
    /// meaningful lane-wise; the arithmetic kernels never branch on
    /// comparisons — that is the entire point of branch-free algorithms —
    /// so this only affects debug assertions and generic callers).
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        match self.0[0].partial_cmp(&other.0[0]) {
            Some(core::cmp::Ordering::Equal) => {
                if self == other {
                    Some(core::cmp::Ordering::Equal)
                } else {
                    None
                }
            }
            ord => ord,
        }
    }
}

impl<T: FloatBase, const L: usize> Add for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
}

impl<T: FloatBase, const L: usize> Sub for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

impl<T: FloatBase, const L: usize> Mul for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
}

impl<T: FloatBase, const L: usize> Div for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
}

impl<T: FloatBase, const L: usize> Neg for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|a| -a)
    }
}

impl<T: FloatBase, const L: usize> FloatBase for Lanes<T, L> {
    const PRECISION: u32 = T::PRECISION;
    const MIN_EXP: i32 = T::MIN_EXP;
    const MAX_EXP: i32 = T::MAX_EXP;
    const ZERO: Self = Lanes([T::ZERO; L]);
    const ONE: Self = Lanes([T::ONE; L]);
    const NEG_ONE: Self = Lanes([T::NEG_ONE; L]);
    const HALF: Self = Lanes([T::HALF; L]);
    const TWO: Self = Lanes([T::TWO; L]);
    const EPSILON: Self = Lanes([T::EPSILON; L]);
    const MAX: Self = Lanes([T::MAX; L]);
    const MIN_POSITIVE: Self = Lanes([T::MIN_POSITIVE; L]);
    const INFINITY: Self = Lanes([T::INFINITY; L]);
    const NEG_INFINITY: Self = Lanes([T::NEG_INFINITY; L]);
    const NAN: Self = Lanes([T::NAN; L]);

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for i in 0..L {
            out[i] = out[i].mul_add(a.0[i], b.0[i]);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(T::sqrt)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        self.map(T::abs)
    }

    #[inline(always)]
    fn recip(self) -> Self {
        self.map(T::recip)
    }

    fn floor(self) -> Self {
        self.map(T::floor)
    }

    fn ceil(self) -> Self {
        self.map(T::ceil)
    }

    fn round(self) -> Self {
        self.map(T::round)
    }

    fn trunc(self) -> Self {
        self.map(T::trunc)
    }

    /// Any-lane reduction (conservative for NaN poisoning checks).
    fn is_nan(self) -> bool {
        self.0.iter().any(|v| v.is_nan())
    }

    fn is_infinite(self) -> bool {
        self.0.iter().any(|v| v.is_infinite())
    }

    fn is_finite(self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    fn is_sign_negative(self) -> bool {
        self.0[0].is_sign_negative()
    }

    /// All-lanes-zero (so `FastTwoSum`'s debug precondition stays sound:
    /// a zero operand means zero in every lane).
    fn is_zero(self) -> bool {
        self.0.iter().all(|&v| v.is_zero())
    }

    /// Max over lanes (conservative for the `FastTwoSum` debug assert on
    /// the *first* operand; checks on the second use the caller's own
    /// lane-0 semantics — lane kernels are validated against scalar runs
    /// in release mode, where the asserts compile out).
    fn exponent(self) -> i32 {
        self.0.iter().map(|&v| v.exponent()).max().unwrap_or(0)
    }

    fn exp2i(e: i32) -> Self {
        Lanes([T::exp2i(e); L])
    }

    fn from_f64(x: f64) -> Self {
        Lanes([T::from_f64(x); L])
    }

    fn to_f64(self) -> f64 {
        self.0[0].to_f64()
    }

    fn copysign(self, sign: Self) -> Self {
        self.zip(sign, T::copysign)
    }

    fn min(self, other: Self) -> Self {
        self.zip(other, T::min)
    }

    fn max(self, other: Self) -> Self {
        self.zip(other, T::max)
    }
}

/// Lane width used by the lock-step kernels (two AVX2 registers of
/// f64). Measured on this container: 8 lanes beat 4 at every expansion
/// width for reductions, despite the register spills at N >= 3 — the
/// spill cost is smaller than the dependency-chain stalls it buys off.
pub const SIMD_LANES: usize = 8;

/// A vector of [`VLane::WIDTH`] lanes of `Elem`, usable as the base type
/// of the generic FPAN networks. [`Lanes`] and the intrinsic realizations
/// in [`crate::simd`] implement it; the lock-step bodies below are written
/// once against it.
pub(crate) trait VLane: FloatBase {
    type Elem: FloatBase;
    const WIDTH: usize;

    fn lanes(&self) -> &[Self::Elem];
    fn lanes_mut(&mut self) -> &mut [Self::Elem];

    /// Full-width load of the first `WIDTH` values of `s`.
    #[inline(always)]
    fn load(s: &[Self::Elem]) -> Self {
        let mut v = Self::ZERO;
        v.lanes_mut().copy_from_slice(&s[..Self::WIDTH]);
        v
    }

    /// Array-of-structs block load of `WIDTH` elements: lane `l` of
    /// vector `k` is component `k` of `src[l]`. Realizations may override
    /// it with a register transpose; every override must produce these
    /// lanes exactly.
    #[inline(always)]
    fn load_aos<const N: usize>(src: &[MultiFloat<Self::Elem, N>]) -> [Self; N] {
        gather_aos(src)
    }
}

/// The lane-by-lane [`VLane::load_aos`]: the portable definition every
/// transposing override must reproduce.
#[inline(always)]
pub(crate) fn gather_aos<V: VLane, const N: usize>(src: &[MultiFloat<V::Elem, N>]) -> [V; N] {
    let mut v = [V::ZERO; N];
    for (l, e) in src[..V::WIDTH].iter().enumerate() {
        let c = e.components();
        for k in 0..N {
            v[k].lanes_mut()[l] = c[k];
        }
    }
    v
}

impl<T: FloatBase, const L: usize> VLane for Lanes<T, L> {
    type Elem = T;
    const WIDTH: usize = L;

    #[inline(always)]
    fn lanes(&self) -> &[T] {
        &self.0
    }

    #[inline(always)]
    fn lanes_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

/// Where a lock-step body reads its `N`-component operands. Every layout
/// maps element `i` of a block to lane `i % WIDTH`, so the layout is a
/// parameter of the load only: the FPAN graph, the lane structure and
/// therefore the bits are the same for SoA and AoS operands.
pub(crate) trait Operand<E: FloatBase, const N: usize> {
    /// Components of elements `i..i + V::WIDTH` as `N` lane vectors.
    fn block<V: VLane<Elem = E>>(&self, i: usize) -> [V; N];

    /// Components of element `i`.
    fn at(&self, i: usize) -> [E; N];
}

/// Structure-of-arrays operand: one slice per component.
pub(crate) struct Soa<'a, E, const N: usize>([&'a [E]; N]);

impl<'a, E: FloatBase, const N: usize> Soa<'a, E, N> {
    /// Elements `off..off + n` of the component vectors `comps`.
    #[inline(always)]
    pub(crate) fn new(comps: &'a [Vec<E>], off: usize, n: usize) -> Self {
        Soa(core::array::from_fn(|k| &comps[k][off..off + n]))
    }
}

impl<E: FloatBase, const N: usize> Operand<E, N> for Soa<'_, E, N> {
    #[inline(always)]
    fn block<V: VLane<Elem = E>>(&self, i: usize) -> [V; N] {
        core::array::from_fn(|k| V::load(&self.0[k][i..]))
    }

    #[inline(always)]
    fn at(&self, i: usize) -> [E; N] {
        core::array::from_fn(|k| self.0[k][i])
    }
}

/// Array-of-structs operand, read in place: a block load gathers the `N`
/// components of `WIDTH` consecutive elements into `N` lane vectors
/// ([`VLane::load_aos`]).
impl<E: FloatBase, const N: usize> Operand<E, N> for [MultiFloat<E, N>] {
    #[inline(always)]
    fn block<V: VLane<Elem = E>>(&self, i: usize) -> [V; N] {
        V::load_aos(&self[i..i + V::WIDTH])
    }

    #[inline(always)]
    fn at(&self, i: usize) -> [E; N] {
        self[i].components()
    }
}

/// The one lock-step DOT body: `WIDTH` elements per step through the
/// generic mul/add FPANs at `T = V`, a ceil-half tree reduction over the
/// accumulator lanes, then a scalar tail. The reduction structure fixes
/// the bits; only the realization of the lane arithmetic varies with `V`,
/// and only the block load varies with the operand layout.
#[inline(always)]
pub(crate) fn lockstep_dot<V, X, Y, const N: usize>(
    x: &X,
    y: &Y,
    n: usize,
) -> MultiFloat<V::Elem, N>
where
    V: VLane,
    X: Operand<V::Elem, N> + ?Sized,
    Y: Operand<V::Elem, N> + ?Sized,
{
    let w = V::WIDTH;
    let mut acc = [V::ZERO; N];
    let chunks = n / w;
    for c in 0..chunks {
        let xi: [V; N] = x.block(c * w);
        let yi: [V; N] = y.block(c * w);
        acc = addition::add(&acc, &multiplication::mul(&xi, &yi));
    }
    // Reduce the lanes in place: lane l absorbs lane l + ceil(width/2),
    // and an odd top lane rides down to the next round unpaired. (A
    // floor-half tree — `width /= 2` then add `l + width` — silently drops
    // the top lane whenever `WIDTH` is not a power of two.)
    let lane =
        |acc: &[V; N], l: usize| -> [V::Elem; N] { core::array::from_fn(|k| acc[k].lanes()[l]) };
    let mut width = w;
    while width > 1 {
        let half = width.div_ceil(2);
        for l in 0..width / 2 {
            let s = addition::add(&lane(&acc, l), &lane(&acc, l + half));
            for k in 0..N {
                acc[k].lanes_mut()[l] = s[k];
            }
        }
        width = half;
    }
    // Scalar tail: reductions are association-order sensitive, so the tail
    // stays serial to keep the bits of the lane structure.
    let mut total = lane(&acc, 0);
    for i in chunks * w..n {
        total = addition::add(&total, &multiplication::mul(&x.at(i), &y.at(i)));
    }
    MultiFloat::from_components(total)
}

/// Lock-step DOT over component slices at [`SIMD_LANES`] lanes.
///
/// At `T = f64` this dispatches to the explicit-intrinsic realization
/// selected by [`crate::simd::active`] (bit-identical by construction:
/// same body, correctly-rounded lane ops); other base types run the
/// portable [`Lanes`] instantiation.
pub fn dot_lockstep<T: FloatBase, const N: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    let (x, y) = (Soa::new(xc, xoff, n), Soa::new(yc, yoff, n));
    if let Some(r) = crate::simd::try_dot_f64::<T, _, _, N>(&x, &y, n) {
        return r;
    }
    lockstep_dot::<Lanes<T, SIMD_LANES>, _, _, N>(&x, &y, n)
}

/// Lock-step DOT at an explicit lane count: the portable [`Lanes`]
/// instantiation of [`lockstep_dot`], and the conformance reference for
/// every realization.
pub fn dot_lockstep_l<T: FloatBase, const N: usize, const L: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    lockstep_dot::<Lanes<T, L>, _, _, N>(&Soa::new(xc, xoff, n), &Soa::new(yc, yoff, n), n)
}

/// Lock-step DOT over array-of-structs slices, read in place: the same
/// body, lane structure and bits as [`dot_lockstep`] over the SoA copy of
/// `x` and `y`. Dispatches like [`dot_lockstep`].
pub fn dot_lockstep_aos<T: FloatBase, const N: usize>(
    x: &[MultiFloat<T, N>],
    y: &[MultiFloat<T, N>],
) -> MultiFloat<T, N> {
    assert_eq!(x.len(), y.len());
    if let Some(r) = crate::simd::try_dot_f64::<T, _, _, N>(x, y, x.len()) {
        return r;
    }
    lockstep_dot::<Lanes<T, SIMD_LANES>, _, _, N>(x, y, x.len())
}

/// [`dot_lockstep_aos`] at an explicit lane count through the portable
/// [`Lanes`] instantiation: the bitwise reference for the AoS entry
/// points that run the lock-step DOT (`parallel::{dot, gemv}`, the
/// adaptive base rung).
pub fn dot_lockstep_aos_l<T: FloatBase, const N: usize, const L: usize>(
    x: &[MultiFloat<T, N>],
    y: &[MultiFloat<T, N>],
) -> MultiFloat<T, N> {
    assert_eq!(x.len(), y.len());
    lockstep_dot::<Lanes<T, L>, _, _, N>(x, y, x.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaVec;
    use mf_core::F64x4;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lanes_arithmetic_matches_scalar_bitwise() {
        let mut rng = SmallRng::seed_from_u64(1700);
        for _ in 0..2_000 {
            let a: [f64; 4] = core::array::from_fn(|_| rng.gen_range(-1.0e10..1.0e10));
            let b: [f64; 4] = core::array::from_fn(|_| rng.gen_range(-1.0e10..1.0e10));
            let la = Lanes::<f64, 4>(a);
            let lb = Lanes::<f64, 4>(b);
            let (s, e) = mf_eft::two_sum(la, lb);
            for l in 0..4 {
                let (ss, es) = mf_eft::two_sum(a[l], b[l]);
                assert_eq!(s.0[l], ss);
                assert_eq!(e.0[l], es);
            }
            let (p, pe) = mf_eft::two_prod(la, lb);
            for l in 0..4 {
                let (ps, pes) = mf_eft::two_prod(a[l], b[l]);
                assert_eq!(p.0[l], ps);
                assert_eq!(pe.0[l], pes);
            }
        }
    }

    #[test]
    fn lockstep_kernel_matches_scalar_kernel_bitwise() {
        // The FPAN kernels at T = Lanes<4> must produce, lane by lane,
        // exactly the scalar kernels' bits.
        let mut rng = SmallRng::seed_from_u64(1701);
        for _ in 0..2_000 {
            let mk = |rng: &mut SmallRng| -> [[f64; 3]; 4] {
                core::array::from_fn(|_| {
                    mf_core::renorm::renorm([
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1e-18..1e-18),
                        rng.gen_range(-1e-36..1e-36),
                    ])
                })
            };
            let xs = mk(&mut rng);
            let ys = mk(&mut rng);
            // Pack into lanes.
            let lx: [Lanes<f64, 4>; 3] =
                core::array::from_fn(|k| Lanes(core::array::from_fn(|l| xs[l][k])));
            let ly: [Lanes<f64, 4>; 3] =
                core::array::from_fn(|k| Lanes(core::array::from_fn(|l| ys[l][k])));
            let lsum = mf_core::addition::add(&lx, &ly);
            let lprod = mf_core::multiplication::mul(&lx, &ly);
            for l in 0..4 {
                let ssum = mf_core::addition::add(&xs[l], &ys[l]);
                let sprod = mf_core::multiplication::mul(&xs[l], &ys[l]);
                for k in 0..3 {
                    assert_eq!(lsum[k].0[l], ssum[k], "add lane {l} comp {k}");
                    assert_eq!(lprod[k].0[l], sprod[k], "mul lane {l} comp {k}");
                }
            }
        }
    }

    #[test]
    fn dot_lockstep_matches_oracle() {
        let mut rng = SmallRng::seed_from_u64(1702);
        for n in [0usize, 5, 8, 64, 1000, 1003] {
            let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
            let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
            let sx = SoaVec::from_slice(&xs);
            let sy = SoaVec::from_slice(&ys);
            let got = dot_lockstep::<f64, 4>(&sx.comps, 0, &sy.comps, 0, n);
            let exact = MpFloat::exact_dot(&x64, &y64);
            if exact.is_zero() {
                assert!(got.is_zero());
                continue;
            }
            let err = got.to_mp(400).rel_error_vs(&exact);
            assert!(err <= 2.0f64.powi(-190), "n={n} err 2^{:.1}", err.log2());
        }
    }

    /// Regression for the non-power-of-two lane reduction: the old
    /// floor-half tree (`width /= 2; add l + width`) never added the top
    /// lane(s) for L ∈ {3, 5, 6}, so with small-integer inputs (where every
    /// summation order is exact and any dropped term shifts the result by
    /// a whole integer) the dot product came out wrong bitwise. Each L is
    /// checked against the scalar AoS kernel.
    #[test]
    fn dot_lockstep_covers_all_lanes_at_odd_l() {
        fn check<const L: usize>() {
            let mut rng = SmallRng::seed_from_u64(1704 + L as u64);
            // n spans several full lane blocks plus a scalar tail.
            for n in [L, 2 * L, 5 * L + L - 1, 64] {
                let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-64..64i32) as f64).collect();
                let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-64..64i32) as f64).collect();
                let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
                let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
                let sx = SoaVec::from_slice(&xs);
                let sy = SoaVec::from_slice(&ys);
                let got = dot_lockstep_l::<f64, 4, L>(&sx.comps, 0, &sy.comps, 0, n);
                let want = crate::kernels::dot(&xs, &ys);
                assert_eq!(
                    got.components(),
                    want.components(),
                    "L={L} n={n}: lane reduction dropped a lane"
                );
            }
        }
        check::<3>();
        check::<5>();
        check::<6>();
        // Power-of-two widths keep their old (already correct) behaviour.
        check::<4>();
        check::<8>();
    }

    /// The layout is a parameter of the load only: the AoS lock-step DOT
    /// read in place gives the SoA lock-step DOT's bits, dispatched and
    /// portable, at every N and at lengths around the lane width.
    #[test]
    fn aos_lockstep_dot_matches_soa_bitwise() {
        fn check<const N: usize>(rng: &mut SmallRng) {
            for n in [0usize, 1, 7, 8, 9, 17, 129] {
                let mk = |rng: &mut SmallRng| -> Vec<MultiFloat<f64, N>> {
                    (0..n)
                        .map(|_| {
                            MultiFloat::from(rng.gen_range(-1.0..1.0f64))
                                .mul(MultiFloat::from(1.0 + rng.gen_range(-1e-9..1e-9f64)))
                        })
                        .collect()
                };
                let (xs, ys) = (mk(rng), mk(rng));
                let (sx, sy) = (SoaVec::from_slice(&xs), SoaVec::from_slice(&ys));
                let bits = |v: MultiFloat<f64, N>| v.components().map(f64::to_bits);
                let soa = dot_lockstep::<f64, N>(&sx.comps, 0, &sy.comps, 0, n);
                let soa_l = dot_lockstep_l::<f64, N, SIMD_LANES>(&sx.comps, 0, &sy.comps, 0, n);
                assert_eq!(bits(soa), bits(soa_l), "N={N} n={n} soa");
                assert_eq!(bits(dot_lockstep_aos(&xs, &ys)), bits(soa), "N={N} n={n}");
                assert_eq!(
                    bits(dot_lockstep_aos_l::<f64, N, SIMD_LANES>(&xs, &ys)),
                    bits(soa),
                    "N={N} n={n} portable"
                );
            }
        }
        let mut rng = SmallRng::seed_from_u64(1706);
        check::<1>(&mut rng);
        check::<2>(&mut rng);
        check::<3>(&mut rng);
        check::<4>(&mut rng);
    }

    /// `PartialOrd` must agree with the derived all-lanes `PartialEq`:
    /// `partial_cmp == Some(Equal)` exactly when `==` holds. Lane-0 ties
    /// with differing tail lanes are unordered, never falsely `Equal`.
    #[test]
    fn partial_ord_consistent_with_partial_eq() {
        let a = Lanes::<f64, 3>([1.0, 2.0, 3.0]);
        let b = Lanes::<f64, 3>([1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.partial_cmp(&b), Some(core::cmp::Ordering::Equal));

        // Lane 0 equal, lane 2 differs: the old lane-0-only ordering
        // returned Some(Equal) here while `==` was false.
        let c = Lanes::<f64, 3>([1.0, 2.0, 99.0]);
        assert_ne!(a, c);
        assert_eq!(a.partial_cmp(&c), None);

        // Lane-0 strict ordering is preserved.
        let d = Lanes::<f64, 3>([0.5, 9.0, 9.0]);
        assert_eq!(d.partial_cmp(&a), Some(core::cmp::Ordering::Less));
        assert_eq!(a.partial_cmp(&d), Some(core::cmp::Ordering::Greater));

        // NaN lanes stay unordered.
        let n = Lanes::<f64, 3>([f64::NAN, 2.0, 3.0]);
        assert_eq!(n.partial_cmp(&a), None);
    }

    /// [`VLane::load`] copies NaN / inf / subnormal / `-0.0` lanes
    /// bitwise.
    #[test]
    fn full_width_load_is_bitwise() {
        const L: usize = SIMD_LANES;
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            -1.5,
            f64::MAX,
        ];
        let v = Lanes::<f64, L>::load(&specials);
        for (i, s) in specials.iter().enumerate() {
            assert_eq!(v.0[i].to_bits(), s.to_bits(), "special {i}");
        }
    }
}
