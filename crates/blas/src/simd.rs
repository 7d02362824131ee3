//! Explicit SIMD lane backend: intrinsic-backed 8-lane vector types
//! running the *same* generic FPAN networks as the scalar kernels.
//!
//! PR 3's fault-injection campaign showed the autovectorizer is fragile —
//! an added guard check silently broke cross-iteration vectorization of
//! `mul` — and [`crate::lanes::Lanes`] only *hopes* the compiler maps its
//! `[f64; L]` zips onto vector registers. This module removes the hope:
//! each realization below is an `[f64; 8]` wrapper whose `+`, `-`, `*`,
//! `mul_add`, … lower to explicit `core::arch` intrinsics, and it
//! implements [`FloatBase`], so the *unchanged* branch-free networks in
//! `mf-core` (`two_sum`/`two_prod` gates, `addition`/`multiplication`
//! FPANs, renorm sweeps) execute 8 independent extended-precision values
//! per instruction.
//!
//! **Bitwise-identity contract.** Every hot operation the networks use
//! (add, sub, mul, div, fma, sqrt, abs, neg) is IEEE-754 correctly rounded
//! in every realization, and every realization runs the *same* lock-step
//! DOT body, [`crate::lanes::lockstep_dot`] — this module only
//! instantiates it (`lanes::dot_lockstep_l::<f64, N, 8>` is its portable
//! instantiation). The lane structure (fixed 8-lane chunks, ceil-half tree
//! reduction, scalar tail) is therefore identical, and each lane
//! computes the same bits whichever realization runs — the forced-ISA CI
//! matrix and the `"blas-simd"` conformance class assert this. Cold
//! predicates (`min`/`max`, `is_*`, `exponent`) are scalar per-lane loops
//! mirroring `Lanes` semantics exactly, because e.g.
//! `_mm256_max_pd` has different NaN behaviour than `f64::max` and the
//! predicates feed `debug_assert!`s that must agree across realizations.
//!
//! **Selection ladder.** [`active`] resolves once per process:
//!
//! 1. `MF_SIMD=scalar|avx2|neon` forces a realization; forcing an ISA
//!    the host cannot run, or naming one that does not exist, is a hard
//!    panic (fail loud, never silently measure the wrong path).
//! 2. `MF_SIMD=auto` (or unset) detects: AVX2+FMA on x86-64, NEON on
//!    aarch64, scalar otherwise. Every realization is one that
//!    auto-selection can pick; there is no opt-in-only ISA (DESIGN.md §12).
//!
//! `MF_SIMD=scalar` also disables the AVX2+FMA `#[target_feature]` frames
//! that every other kernel enters through [`fma_frame!`] (via
//! [`fma_frame_allowed`]), so one env var pins *every* layer to portable
//! codegen — that is what makes the forced-ISA CI matrix a like-for-like
//! bit comparison.

use crate::lanes::{lockstep_dot, Lanes, Operand, Soa, VLane};
use core::any::TypeId;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};
use mf_core::{FloatBase, MultiFloat};
use std::sync::atomic::{AtomicU8, Ordering};

/// Lane width of every realization: two AVX2 registers or four NEON
/// registers per FPAN wire. Fixed at
/// [`crate::lanes::SIMD_LANES`] so the reduction *structure* (and hence
/// the computed bits) never depends on which ISA runs.
pub const LANES: usize = crate::lanes::SIMD_LANES;

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

/// The instruction-set realizations of the 8-lane backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable `[f64; 8]` code ([`Lanes`]), compiled without any
    /// `#[target_feature]` frame: the reference realization.
    Scalar,
    /// x86-64 AVX2+FMA: each lane group is two `__m256d` registers.
    Avx2,
    /// aarch64 NEON: each lane group is four `float64x2_t` registers.
    Neon,
}

impl Isa {
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Neon];

    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    pub fn parse(s: &str) -> Option<Isa> {
        Isa::ALL.iter().copied().find(|i| i.name() == s)
    }

    /// Whether this realization can run here: compiled in *and* the host
    /// CPU has the features its `#[target_feature]` frames enable.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            // NEON is part of the aarch64 baseline: always available there.
            Isa::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Neon => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        Isa::ALL.iter().copied().find(|i| i.to_u8() == v)
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What `auto` resolves to on this host.
fn detect_auto() -> Isa {
    if cfg!(target_arch = "aarch64") {
        Isa::Neon
    } else if Isa::Avx2.supported() {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Cached selection. `u8::MAX` = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

fn resolve_from_env() -> Isa {
    let var = std::env::var("MF_SIMD").ok();
    let req = var.as_deref().map(str::trim).filter(|s| !s.is_empty());
    match req {
        None | Some("auto") => detect_auto(),
        Some(s) => match Isa::parse(s) {
            Some(isa) if isa.supported() => isa,
            // Fail loud: a forced ISA that silently fell back would make
            // the forced-ISA CI matrix (and any benchmark run) measure the
            // wrong path while claiming otherwise.
            Some(isa) => panic!(
                "MF_SIMD={s}: the {isa} realization is not supported on this host/build \
                 (use MF_SIMD=auto for detection)"
            ),
            None => panic!("MF_SIMD={s}: unknown ISA (expected scalar|avx2|neon|auto)"),
        },
    }
}

/// The active realization, resolved once from `MF_SIMD` + host detection
/// (see the module docs for the ladder) and cached for the process.
#[inline]
pub fn active() -> Isa {
    match Isa::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(isa) => isa,
        None => {
            let isa = resolve_from_env();
            ACTIVE.store(isa.to_u8(), Ordering::Relaxed);
            isa
        }
    }
}

/// Force the active realization, bypassing `MF_SIMD`. Panics if `isa` is
/// not [`Isa::supported`]. This is a harness hook — the `simd` bench bin
/// and the forced-ISA tests flip realizations in-process with it; library
/// code must never call it.
pub fn force(isa: Isa) {
    assert!(
        isa.supported(),
        "simd::force({isa}): realization not supported on this host/build"
    );
    ACTIVE.store(isa.to_u8(), Ordering::Relaxed);
}

/// Whether the AVX2+FMA `#[target_feature]` frames of [`fma_frame!`] may
/// be entered: true exactly when the active realization is AVX2 — whose
/// `supported()` detected both features — and false under
/// `MF_SIMD=scalar`, pinning every dispatch layer to portable codegen at
/// once.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // callers are x86-gated
pub(crate) fn fma_frame_allowed() -> bool {
    frames_allowed(active())
}

/// The selection rule behind [`fma_frame_allowed`], pure so the tests can
/// check it for every ISA without flipping the process-wide selection.
#[inline]
fn frames_allowed(isa: Isa) -> bool {
    isa == Isa::Avx2
}

/// Define a kernel as an `#[inline(always)]` body `$body` plus a
/// runtime-dispatching wrapper `$name`. On x86-64, when
/// [`fma_frame_allowed`], the wrapper runs the body inside an AVX2+FMA
/// `#[target_feature]` frame, so the EFT `mul_add`s lower to `vfmadd`
/// instead of soft-float libm calls; otherwise it runs the portable build
/// of the same body. Both lowerings are correctly rounded, so the two
/// paths are bit-identical, and the check is one cached atomic load per
/// call. Generic parameters go in brackets:
/// `fn name / body [S: Scalar] (args) -> Ret { ... }`.
macro_rules! fma_frame {
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $body:ident [$($gen:tt)*]
     ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $code:block) => {
        #[inline(always)]
        fn $body<$($gen)*>($($arg: $ty),*) $(-> $ret)? $code

        $(#[$doc])*
        $vis fn $name<$($gen)*>($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::simd::fma_frame_allowed() {
                /// # Safety
                ///
                /// Caller must ensure the `avx2` and `fma` CPU features
                /// are present.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn frame<$($gen)*>($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: `fma_frame_allowed` returns true only for ISA
                // selections whose avx2+fma features were runtime-detected.
                return unsafe { frame($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use fma_frame;

// ---------------------------------------------------------------------------
// The vector-lane realizations
// ---------------------------------------------------------------------------

/// Implement everything *except* the hot arithmetic for an `[f64; 8]`
/// vector newtype: operator traits forwarding to the type's `v_*` inherent
/// methods, the cold [`FloatBase`] surface as scalar per-lane loops with
/// exactly [`Lanes`]' reduction semantics (any-NaN, all-zero, max-exponent,
/// lane-0 sign/ordering), and [`VLane`]. The hot `v_*` methods are
/// supplied per ISA with intrinsics. Storage is always a plain `[f64; 8]`
/// — the intrinsics load registers on entry to each op and store on exit;
/// inside a `#[target_feature]` frame LLVM's mem2reg keeps the values in
/// registers across the whole network body.
macro_rules! v8_realization {
    ($T:ident) => {
        impl Default for $T {
            fn default() -> Self {
                $T([0.0; LANES])
            }
        }

        impl fmt::Display for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0[0])
            }
        }

        impl fmt::LowerExp for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:e}", self.0[0])
            }
        }

        impl PartialOrd for $T {
            /// Same partial order as [`Lanes`]: `Some(Equal)` iff all lanes
            /// equal, lane-0 ordering when strict, `None` on mixed ties.
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

        impl $T {
            #[inline(always)]
            fn map_scalar(self, f: impl Fn(f64) -> f64) -> Self {
                let mut out = self.0;
                for v in &mut out {
                    *v = f(*v);
                }
                $T(out)
            }

            #[inline(always)]
            fn zip_scalar(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
                let mut out = self.0;
                for (v, w) in out.iter_mut().zip(&o.0) {
                    *v = f(*v, *w);
                }
                $T(out)
            }
        }

        impl Add for $T {
            type Output = Self;
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                self.v_add(o)
            }
        }

        impl Sub for $T {
            type Output = Self;
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                self.v_sub(o)
            }
        }

        impl Mul for $T {
            type Output = Self;
            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                self.v_mul(o)
            }
        }

        impl Div for $T {
            type Output = Self;
            #[inline(always)]
            fn div(self, o: Self) -> Self {
                self.v_div(o)
            }
        }

        impl Neg for $T {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                self.v_neg()
            }
        }

        impl FloatBase for $T {
            const PRECISION: u32 = f64::PRECISION;
            const MIN_EXP: i32 = <f64 as FloatBase>::MIN_EXP;
            const MAX_EXP: i32 = <f64 as FloatBase>::MAX_EXP;
            const ZERO: Self = $T([0.0; LANES]);
            const ONE: Self = $T([1.0; LANES]);
            const NEG_ONE: Self = $T([-1.0; LANES]);
            const HALF: Self = $T([0.5; LANES]);
            const TWO: Self = $T([2.0; LANES]);
            const EPSILON: Self = $T([f64::EPSILON; LANES]);
            const MAX: Self = $T([f64::MAX; LANES]);
            const MIN_POSITIVE: Self = $T([f64::MIN_POSITIVE; LANES]);
            const INFINITY: Self = $T([f64::INFINITY; LANES]);
            const NEG_INFINITY: Self = $T([f64::NEG_INFINITY; LANES]);
            const NAN: Self = $T([f64::NAN; LANES]);

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.v_mul_add(a, b)
            }

            #[inline(always)]
            fn sqrt(self) -> Self {
                self.v_sqrt()
            }

            #[inline(always)]
            fn abs(self) -> Self {
                self.v_abs()
            }

            /// `f64::recip` is exactly `1.0 / self`, so the vector divide
            /// is bit-identical to the scalar reciprocal (no `vrcp14pd`
            /// approximation here).
            #[inline(always)]
            fn recip(self) -> Self {
                Self::ONE / self
            }

            fn floor(self) -> Self {
                self.map_scalar(f64::floor)
            }

            fn ceil(self) -> Self {
                self.map_scalar(f64::ceil)
            }

            fn round(self) -> Self {
                self.map_scalar(f64::round)
            }

            fn trunc(self) -> Self {
                self.map_scalar(f64::trunc)
            }

            /// Any-lane reduction (conservative), as in [`Lanes`].
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

            /// All-lanes-zero, as in [`Lanes`] (keeps `FastTwoSum`'s debug
            /// precondition sound: a zero operand is zero in every lane).
            fn is_zero(self) -> bool {
                self.0.iter().all(|&v| FloatBase::is_zero(v))
            }

            /// Max over lanes, as in [`Lanes`].
            fn exponent(self) -> i32 {
                self.0
                    .iter()
                    .map(|&v| FloatBase::exponent(v))
                    .max()
                    .unwrap_or(0)
            }

            fn exp2i(e: i32) -> Self {
                $T([<f64 as FloatBase>::exp2i(e); LANES])
            }

            fn from_f64(x: f64) -> Self {
                $T([x; LANES])
            }

            fn to_f64(self) -> f64 {
                self.0[0]
            }

            /// Scalar per-lane loops for `copysign`/`min`/`max`: the packed
            /// `min/max` instructions have different NaN semantics than
            /// `f64::min/max`, and these only run on cold paths.
            fn copysign(self, sign: Self) -> Self {
                self.zip_scalar(sign, f64::copysign)
            }

            fn min(self, other: Self) -> Self {
                self.zip_scalar(other, f64::min)
            }

            fn max(self, other: Self) -> Self {
                self.zip_scalar(other, f64::max)
            }
        }

        impl VLane for $T {
            type Elem = f64;
            const WIDTH: usize = LANES;

            #[inline(always)]
            fn lanes(&self) -> &[f64] {
                &self.0
            }

            #[inline(always)]
            fn lanes_mut(&mut self) -> &mut [f64] {
                &mut self.0
            }

            #[inline(always)]
            fn load_aos<const N: usize>(src: &[MultiFloat<f64, N>]) -> [Self; N] {
                $T::v_load_aos(src)
            }
        }
    };
}

/// AVX2+FMA realization: two `__m256d` per value.
///
/// # Safety invariant
///
/// Values of this type are only constructed and operated on inside call
/// trees entered through [`active`]`() == Isa::Avx2` (or an explicit
/// `supported()` check in tests), so the `avx2`/`fma` CPU features are
/// guaranteed present when any `v_*` method executes its intrinsics. The
/// type is `pub(crate)` so no outside code can break the invariant.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{fmt, Add, Div, FloatBase, Mul, MultiFloat, Neg, Sub, VLane, LANES};
    use core::arch::x86_64::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(C, align(32))]
    pub(crate) struct V8Avx2(pub(crate) [f64; LANES]);

    /// Apply a two-operand `__m256d` intrinsic to both halves.
    macro_rules! lanewise2 {
        ($a:expr, $b:expr, $op:ident) => {{
            let (a, b) = ($a, $b);
            // SAFETY: see the module-level safety invariant (avx2+fma were
            // detected before any value of this type was constructed); the
            // pointers cover the 8-f64 backing arrays.
            unsafe {
                let a0 = _mm256_loadu_pd(a.0.as_ptr());
                let a1 = _mm256_loadu_pd(a.0.as_ptr().add(4));
                let b0 = _mm256_loadu_pd(b.0.as_ptr());
                let b1 = _mm256_loadu_pd(b.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), $op(a0, b0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), $op(a1, b1));
                V8Avx2(out)
            }
        }};
    }

    impl V8Avx2 {
        #[inline(always)]
        fn v_add(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_add_pd)
        }

        #[inline(always)]
        fn v_sub(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_sub_pd)
        }

        #[inline(always)]
        fn v_mul(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_mul_pd)
        }

        #[inline(always)]
        fn v_div(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_div_pd)
        }

        /// `self * a + b` with one rounding (`vfmadd`).
        #[inline(always)]
        fn v_mul_add(self, a: Self, b: Self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let s0 = _mm256_loadu_pd(self.0.as_ptr());
                let s1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let a0 = _mm256_loadu_pd(a.0.as_ptr());
                let a1 = _mm256_loadu_pd(a.0.as_ptr().add(4));
                let b0 = _mm256_loadu_pd(b.0.as_ptr());
                let b1 = _mm256_loadu_pd(b.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_fmadd_pd(s0, a0, b0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_fmadd_pd(s1, a1, b1));
                V8Avx2(out)
            }
        }

        /// Sign-bit flip (exact, preserves `-0.0` semantics unlike `0-x`).
        #[inline(always)]
        fn v_neg(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let sign = _mm256_set1_pd(-0.0);
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_xor_pd(a0, sign));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_xor_pd(a1, sign));
                V8Avx2(out)
            }
        }

        /// Sign-bit clear.
        #[inline(always)]
        fn v_abs(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let sign = _mm256_set1_pd(-0.0);
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_andnot_pd(sign, a0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_andnot_pd(sign, a1));
                V8Avx2(out)
            }
        }

        /// AoS block load. Full blocks at `N = 2` and `N = 4` transpose in
        /// registers: four elements per `__m256d` half, unpack pairs of
        /// loads, then a cross-lane permute. Every other shape (tails,
        /// `N = 1, 3`) takes the lane-by-lane gather. Both produce the
        /// lanes of [`crate::lanes::gather_aos`] exactly.
        #[inline(always)]
        fn v_load_aos<const N: usize>(src: &[MultiFloat<f64, N>]) -> [Self; N] {
            if src.len() != LANES || (N != 2 && N != 4) {
                return crate::lanes::gather_aos(src);
            }
            let mut v = [V8Avx2([0.0; LANES]); N];
            // `MultiFloat` is `repr(transparent)` over `[f64; N]`, so the
            // block is `LANES * N` contiguous f64, element-major.
            let p = src.as_ptr() as *const f64;
            // SAFETY: as for `lanewise2`; every load reads inside the
            // `LANES * N` values of `src`, every store inside one `[f64; 8]`.
            unsafe {
                for h in 0..2 {
                    let o = 4 * h;
                    if N == 2 {
                        // [a0 b0 a1 b1] [a2 b2 a3 b3] -> [a0 a1 a2 a3] [b0 b1 b2 b3]
                        let m0 = _mm256_loadu_pd(p.add(2 * o));
                        let m1 = _mm256_loadu_pd(p.add(2 * o + 4));
                        let a = _mm256_permute4x64_pd(_mm256_unpacklo_pd(m0, m1), 0b11_01_10_00);
                        let b = _mm256_permute4x64_pd(_mm256_unpackhi_pd(m0, m1), 0b11_01_10_00);
                        _mm256_storeu_pd(v[0].0.as_mut_ptr().add(o), a);
                        _mm256_storeu_pd(v[1].0.as_mut_ptr().add(o), b);
                    } else {
                        // 4x4 transpose of elements o..o+4.
                        let e: [__m256d; 4] =
                            core::array::from_fn(|j| _mm256_loadu_pd(p.add(4 * (o + j))));
                        let t0 = _mm256_unpacklo_pd(e[0], e[1]);
                        let t1 = _mm256_unpackhi_pd(e[0], e[1]);
                        let t2 = _mm256_unpacklo_pd(e[2], e[3]);
                        let t3 = _mm256_unpackhi_pd(e[2], e[3]);
                        let c = [
                            _mm256_permute2f128_pd(t0, t2, 0x20),
                            _mm256_permute2f128_pd(t1, t3, 0x20),
                            _mm256_permute2f128_pd(t0, t2, 0x31),
                            _mm256_permute2f128_pd(t1, t3, 0x31),
                        ];
                        for k in 0..4 {
                            _mm256_storeu_pd(v[k].0.as_mut_ptr().add(o), c[k]);
                        }
                    }
                }
            }
            v
        }

        #[inline(always)]
        fn v_sqrt(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_sqrt_pd(a0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_sqrt_pd(a1));
                V8Avx2(out)
            }
        }
    }

    v8_realization!(V8Avx2);
}
#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::V8Avx2;

/// NEON realization: four `float64x2_t` per value. NEON is part of the
/// aarch64 baseline, so no runtime detection or `#[target_feature]` frame
/// is needed — the intrinsics are statically available.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{fmt, Add, Div, FloatBase, Mul, MultiFloat, Neg, Sub, VLane, LANES};
    use core::arch::aarch64::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(C, align(16))]
    pub(crate) struct V8Neon(pub(crate) [f64; LANES]);

    macro_rules! neon2 {
        ($a:expr, $b:expr, $op:ident) => {{
            let (a, b) = ($a, $b);
            let mut out = [0.0f64; LANES];
            // SAFETY: pointer loads/stores cover the 8-f64 backing arrays;
            // the arithmetic intrinsics are baseline NEON on aarch64.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    let vb = vld1q_f64(b.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), $op(va, vb));
                }
            }
            V8Neon(out)
        }};
    }

    macro_rules! neon1 {
        ($a:expr, $op:ident) => {{
            let a = $a;
            let mut out = [0.0f64; LANES];
            // SAFETY: as for `neon2`.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), $op(va));
                }
            }
            V8Neon(out)
        }};
    }

    impl V8Neon {
        #[inline(always)]
        fn v_add(self, o: Self) -> Self {
            neon2!(self, o, vaddq_f64)
        }

        #[inline(always)]
        fn v_sub(self, o: Self) -> Self {
            neon2!(self, o, vsubq_f64)
        }

        #[inline(always)]
        fn v_mul(self, o: Self) -> Self {
            neon2!(self, o, vmulq_f64)
        }

        #[inline(always)]
        fn v_div(self, o: Self) -> Self {
            neon2!(self, o, vdivq_f64)
        }

        /// `self * a + b`: `vfmaq_f64(acc, x, y)` computes `acc + x * y`
        /// fused, so the accumulator argument is `b`.
        #[inline(always)]
        fn v_mul_add(self, a: Self, b: Self) -> Self {
            let mut out = [0.0f64; LANES];
            // SAFETY: as for `neon2`.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let vs = vld1q_f64(self.0.as_ptr().add(2 * q));
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    let vb = vld1q_f64(b.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), vfmaq_f64(vb, vs, va));
                }
            }
            V8Neon(out)
        }

        #[inline(always)]
        fn v_neg(self) -> Self {
            neon1!(self, vnegq_f64)
        }

        #[inline(always)]
        fn v_abs(self) -> Self {
            neon1!(self, vabsq_f64)
        }

        #[inline(always)]
        fn v_sqrt(self) -> Self {
            neon1!(self, vsqrtq_f64)
        }

        #[inline(always)]
        fn v_load_aos<const N: usize>(src: &[MultiFloat<f64, N>]) -> [Self; N] {
            crate::lanes::gather_aos(src)
        }
    }

    v8_realization!(V8Neon);
}
#[cfg(target_arch = "aarch64")]
pub(crate) use neon::V8Neon;

// ---------------------------------------------------------------------------
// Per-ISA instantiations of the lock-step DOT
// ---------------------------------------------------------------------------

/// Instantiate [`lockstep_dot`] at one realization, inside the
/// `#[target_feature]` frame that turns its `v_*` intrinsic calls into
/// bare instructions (and lets LLVM keep the plain-array storage in
/// registers across the inlined network bodies). The frame stays generic
/// over the operand layout, so SoA and AoS operands enter the same
/// instantiation.
macro_rules! realization_frames {
    ($m:ident, $V:ty $(, $feat:literal)?) => {
        mod $m {
            use super::*;

            /// # Safety
            ///
            /// Caller must ensure the frame's CPU features are present
            /// (NEON needs none: it is aarch64 baseline).
            $(#[target_feature(enable = $feat)])?
            pub(super) unsafe fn dot<X, Y, const N: usize>(x: &X, y: &Y, n: usize) -> MultiFloat<f64, N>
            where
                X: Operand<f64, N> + ?Sized,
                Y: Operand<f64, N> + ?Sized,
            {
                lockstep_dot::<$V, X, Y, N>(x, y, n)
            }

        }
    };
}

#[cfg(target_arch = "x86_64")]
realization_frames!(avx2_frames, V8Avx2, "avx2,fma");
#[cfg(target_arch = "aarch64")]
realization_frames!(neon_frames, V8Neon);

// ---------------------------------------------------------------------------
// Dispatch: f64 specialization of the generic lock-step entry points
// ---------------------------------------------------------------------------

#[inline(always)]
fn is_f64<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>()
}

/// An operand over base type `T`, viewed as the same operand over `f64`
/// once [`is_f64::<T>()`] has established that the two are one type.
pub(crate) trait AtF64 {
    type View: ?Sized;

    /// # Safety
    ///
    /// The operand's base type must be `f64` (checked by the caller).
    unsafe fn at_f64(&self) -> &Self::View;
}

// SAFETY (both impls): with `T == f64` the source and view are the same
// monomorphic type, so each cast is the identity reinterpretation.
impl<'a, T: FloatBase, const N: usize> AtF64 for Soa<'a, T, N> {
    type View = Soa<'a, f64, N>;
    unsafe fn at_f64(&self) -> &Self::View {
        debug_assert!(is_f64::<T>());
        &*(self as *const Self as *const Self::View)
    }
}

impl<T: FloatBase, const N: usize> AtF64 for [MultiFloat<T, N>] {
    type View = [MultiFloat<f64, N>];
    unsafe fn at_f64(&self) -> &Self::View {
        debug_assert!(is_f64::<T>());
        &*(self as *const Self as *const Self::View)
    }
}

#[inline(always)]
fn mf_from_f64<T: FloatBase, const N: usize>(v: MultiFloat<f64, N>) -> MultiFloat<T, N> {
    debug_assert!(is_f64::<T>());
    // SAFETY: `T == f64` (checked by the caller), so source and target are
    // the same type; `transmute_copy` of a `Copy` value is the identity.
    unsafe { core::mem::transmute_copy(&v) }
}

/// Run the DOT body at an explicit realization (test/bench hook: the
/// forced-ISA bit-identity tests call each supported realization directly
/// without flipping the process-global selection).
pub(crate) fn dot_f64_at<X, Y, const N: usize>(
    isa: Isa,
    x: &X,
    y: &Y,
    n: usize,
) -> MultiFloat<f64, N>
where
    X: Operand<f64, N> + ?Sized,
    Y: Operand<f64, N> + ?Sized,
{
    debug_assert!(isa.supported());
    match isa {
        Isa::Scalar => lockstep_dot::<Lanes<f64, LANES>, X, Y, N>(x, y, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.supported()` (checked by `active()`/`force()`/the
        // caller) established avx2+fma via runtime detection.
        Isa::Avx2 => unsafe { avx2_frames::dot::<X, Y, N>(x, y, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is aarch64 baseline.
        Isa::Neon => unsafe { neon_frames::dot::<X, Y, N>(x, y, n) },
        #[allow(unreachable_patterns)]
        other => unreachable!("dot_f64_at: {other} not compiled into this build"),
    }
}

/// f64 specialization of the lock-step DOT entry points, for either
/// operand layout: `Some(result)` when `T` is `f64` (the intrinsic
/// backend applies), `None` otherwise (caller falls back to the generic
/// portable path). Under `Isa::Scalar` this still goes through the cast
/// layer and the portable body — identical bits to the fallback, but it
/// keeps the whole dispatch surface (TypeId check, operand
/// reinterpretation) exercised under Miri.
#[inline]
pub(crate) fn try_dot_f64<T, X, Y, const N: usize>(
    x: &X,
    y: &Y,
    n: usize,
) -> Option<MultiFloat<T, N>>
where
    T: FloatBase,
    X: AtF64 + ?Sized,
    Y: AtF64 + ?Sized,
    X::View: Operand<f64, N>,
    Y::View: Operand<f64, N>,
{
    if !is_f64::<T>() {
        return None;
    }
    // SAFETY: `T == f64` was just checked.
    let r = unsafe { dot_f64_at::<X::View, Y::View, N>(active(), x.at_f64(), y.at_f64(), n) };
    Some(mf_from_f64(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaVec;
    use mf_core::{F64x2, F64x3, F64x4};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The realizations this build can actually execute. Under Miri only
    /// the portable one: Miri cannot run the host-dispatched
    /// `#[target_feature]` intrinsic frames.
    fn runnable_isas() -> Vec<Isa> {
        if cfg!(miri) {
            return [Isa::Scalar].to_vec();
        }
        Isa::ALL.iter().copied().filter(|i| i.supported()).collect()
    }

    fn soa_pair(seed: u64, n: usize) -> (SoaVec<f64, 3>, SoaVec<f64, 3>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mk = || -> Vec<F64x3> {
            (0..n)
                .map(|_| {
                    F64x3::from(rng.gen_range(-1.0..1.0f64))
                        .mul(F64x3::from(1.0 + rng.gen_range(-1e-14..1e-14)))
                })
                .collect()
        };
        let xs = mk();
        let ys = mk();
        (SoaVec::from_slice(&xs), SoaVec::from_slice(&ys))
    }

    #[test]
    fn isa_parse_and_supported() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("sse9"), None);
        // No opt-in-only realization: `MF_SIMD` turns an unknown name
        // into a loud panic.
        assert_eq!(Isa::parse("avx512"), None);
        assert_eq!(
            Isa::parse("auto"),
            None,
            "auto resolves in active(), not parse()"
        );
        assert!(Isa::Scalar.supported(), "scalar runs everywhere");
    }

    /// The `avx2,fma` frames of `fma_frame!` may only be entered under a
    /// selection whose `supported()` detected both features. Checked per
    /// ISA through the pure rule, without touching the process-wide
    /// selection.
    #[test]
    fn fma_frames_need_detected_avx2_and_fma() {
        for isa in Isa::ALL.into_iter().filter(|&i| frames_allowed(i)) {
            #[cfg(target_arch = "x86_64")]
            if isa.supported() {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma"),
                    "{isa} opens avx2,fma frames without detecting both features"
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            assert!(!isa.supported(), "{isa} opens x86 frames off x86-64");
        }
        assert!(!frames_allowed(Isa::Scalar), "scalar pins portable codegen");
        assert!(!frames_allowed(Isa::Neon));
    }

    /// Every runnable realization must produce the same DOT bits as the
    /// portable one, across sizes straddling the lane width (tails shorter
    /// than L included).
    #[test]
    fn all_runnable_isas_bit_identical() {
        for n in [0usize, 1, 5, 8, 13, 16, 64, 201] {
            let (sx, sy) = soa_pair(0x15A + n as u64, n);
            let want = dot_f64_at::<_, _, 3>(
                Isa::Scalar,
                &Soa::new(&sx.comps, 0, n),
                &Soa::new(&sy.comps, 0, n),
                n,
            );
            for isa in runnable_isas() {
                let got = dot_f64_at::<_, _, 3>(
                    isa,
                    &Soa::new(&sx.comps, 0, n),
                    &Soa::new(&sy.comps, 0, n),
                    n,
                );
                assert_eq!(got.components(), want.components(), "dot {isa} n={n}");
            }
        }
    }

    /// The transposing AoS block load of every runnable realization reads
    /// `MultiFloat` slices in place with the SoA load's lanes: the AoS DOT
    /// equals the SoA DOT bitwise at N = 1..4 (N = 2 and 4 take the
    /// register transpose on AVX2, N = 1 and 3 the lane-by-lane gather).
    #[test]
    fn aos_dot_bit_identical_across_isas() {
        fn check<const N: usize>() {
            let mut rng = SmallRng::seed_from_u64(0xA05 + N as u64);
            for n in [0usize, 1, 7, 8, 9, 17, 129] {
                let xs: Vec<MultiFloat<f64, N>> = (0..n)
                    .map(|_| MultiFloat::from(rng.gen_range(-1.0..1.0f64)) / MultiFloat::from(3.0))
                    .collect();
                let ys: Vec<MultiFloat<f64, N>> = (0..n)
                    .map(|_| MultiFloat::from(rng.gen_range(-1.0..1.0f64)) / MultiFloat::from(7.0))
                    .collect();
                let (sx, sy) = (SoaVec::from_slice(&xs), SoaVec::from_slice(&ys));
                let (x, y) = (Soa::new(&sx.comps, 0, n), Soa::new(&sy.comps, 0, n));
                let want = dot_f64_at::<_, _, N>(Isa::Scalar, &x, &y, n).components();
                for isa in runnable_isas() {
                    let got = dot_f64_at::<_, _, N>(isa, &xs[..], &ys[..], n).components();
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{isa} N={N} n={n}"
                    );
                }
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
    }

    /// Subnormal heads: lane arithmetic must not flush to zero anywhere
    /// (no FTZ/DAZ in any realization) and must stay bit-identical.
    #[test]
    fn subnormal_heads_bit_identical_across_isas() {
        let n = 19;
        let mut rng = SmallRng::seed_from_u64(0x5AB);
        let xs: Vec<F64x2> = (0..n)
            .map(|i| {
                let head = f64::MIN_POSITIVE * 2.0f64.powi(-(i as i32 % 40)) / 3.0;
                F64x2::from(head * if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 })
            })
            .collect();
        let ys: Vec<F64x2> = (0..n)
            .map(|_| {
                let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                F64x2::from(sign * rng.gen_range(0.5..1.0f64))
            })
            .collect();
        let sx = SoaVec::from_slice(&xs);
        let sy = SoaVec::from_slice(&ys);
        let want = dot_f64_at::<_, _, 2>(
            Isa::Scalar,
            &Soa::new(&sx.comps, 0, n),
            &Soa::new(&sy.comps, 0, n),
            n,
        );
        for isa in runnable_isas() {
            let got = dot_f64_at::<_, _, 2>(
                isa,
                &Soa::new(&sx.comps, 0, n),
                &Soa::new(&sy.comps, 0, n),
                n,
            );
            assert_eq!(got.components(), want.components(), "{isa}");
            assert!(!got.is_zero(), "{isa}: subnormal product flushed to zero");
        }
    }

    /// The dispatched generic entry point (what `soa.rs` calls) must agree
    /// bitwise with the portable lockstep reference, whatever `MF_SIMD`
    /// selected for this process.
    #[test]
    fn dispatched_entry_matches_references() {
        let mut rng = SmallRng::seed_from_u64(0xD15);
        let n = 3 * LANES + 5;
        let xs: Vec<F64x4> = (0..n)
            .map(|_| F64x4::from(rng.gen_range(-1.0..1.0f64)))
            .collect();
        let ys: Vec<F64x4> = (0..n)
            .map(|_| F64x4::from(rng.gen_range(-1.0..1.0f64)))
            .collect();
        let sx = SoaVec::from_slice(&xs);
        let sy = SoaVec::from_slice(&ys);
        let got = crate::lanes::dot_lockstep::<f64, 4>(&sx.comps, 0, &sy.comps, 0, n);
        let want = crate::lanes::dot_lockstep_l::<f64, 4, LANES>(&sx.comps, 0, &sy.comps, 0, n);
        assert_eq!(got.components(), want.components());
    }

    /// Non-f64 base types must fall through the specialization untouched.
    #[test]
    fn non_f64_base_declines_dispatch() {
        let xc: Vec<Vec<f32>> = vec![vec![1.0f32; 8]; 2];
        let yc = xc.clone();
        let (x, y) = (Soa::<f32, 2>::new(&xc, 0, 8), Soa::<f32, 2>::new(&yc, 0, 8));
        assert!(try_dot_f64::<f32, _, _, 2>(&x, &y, 8).is_none());
        let aos = [MultiFloat::<f32, 2>::from(1.5f32); 8];
        assert!(try_dot_f64::<f32, _, _, 2>(&aos[..], &aos[..], 8).is_none());
    }
}
