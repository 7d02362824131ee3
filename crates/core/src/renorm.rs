//! Branch-free renormalization of floating-point expansions.
//!
//! Renormalization takes a sequence of values whose exact sum is the number
//! of interest — but whose components may overlap — and redistributes
//! mantissa bits so the result is a *nonoverlapping* expansion (paper
//! Eq. 8). It is built from `TwoSum` sweeps (the "VecSum" error-free vector
//! transformation): a bottom-up sweep that concentrates the value into the
//! head, followed by top-down sweeps that push each rounding error strictly
//! below the ulp of the term above it.
//!
//! Unlike the renormalization loops of QD and CAMPARY, which branch on
//! intermediate zeros, these sweeps are straight-line code: a zero term
//! simply flows through the `TwoSum` gates (TwoSum(x, 0) = (x, 0) exactly).
//!
//! The network kernels in [`crate::gates`] call [`renorm_m_to_n`] on
//! sequences they have already partially ordered; [`renorm`] is the fully
//! general entry point used by `MultiFloat::from_components_renorm`.

use mf_eft::{two_sum, FloatBase};
use mf_telemetry::{Counter, Histogram};

static RENORM_CALLS: Counter = Counter::new("core.renorm.calls");
static RENORM_SWEEPS: Counter = Counter::new("core.renorm.sweeps");
static RENORM_TERMS_ZEROED: Counter = Counter::new("core.renorm.terms_zeroed");
/// How many leading bits cancelled: exponent of the largest input minus the
/// exponent of the renormalized head, clamped at zero. Bucket k therefore
/// covers severities in `[2^(k-1), 2^k)` — a spike in high buckets flags
/// workloads where the branch-free schedule is doing real work.
static RENORM_CANCELLATION_BITS: Histogram = Histogram::new("core.renorm.cancellation_bits");

/// Largest component exponent; only evaluated when telemetry is compiled in.
#[inline]
fn max_exponent<T: FloatBase>(v: &[T]) -> i32 {
    v.iter().map(|t| t.exponent()).max().unwrap_or(i32::MIN)
}

/// Record one renormalization. `in_exp` is [`max_exponent`] of the input,
/// captured before the sweeps ran.
#[inline]
fn record_renorm<T: FloatBase>(in_exp: i32, out: &[T], sweeps: usize) {
    if !mf_telemetry::ENABLED {
        return;
    }
    RENORM_CALLS.incr();
    RENORM_SWEEPS.add(sweeps as u64);
    let zeroed = out.iter().filter(|t| t.is_zero()).count();
    RENORM_TERMS_ZEROED.add(zeroed as u64);
    let head_exp = out.first().map(|t| t.exponent()).unwrap_or(i32::MIN);
    RENORM_CANCELLATION_BITS.record_clamped(in_exp as i64 - head_exp as i64);
}

/// One bottom-up `TwoSum` sweep: after the sweep `v[0]` holds the rounded
/// sum of the whole vector and the exact total is preserved.
#[inline(always)]
pub fn sweep_up<T: FloatBase, const M: usize>(v: &mut [T; M]) {
    for i in (0..M - 1).rev() {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// One top-down `TwoSum` sweep: pushes overlap downward.
#[inline(always)]
pub fn sweep_down<T: FloatBase, const M: usize>(v: &mut [T; M]) {
    for i in 0..M - 1 {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Number of top-down sweeps in the kernel renormalization of `m` values:
/// `m - 2`, but at least 2. The one schedule behind [`renorm_m_to_n`],
/// [`renorm_slice`] and the network renormalization gates
/// ([`crate::gates::renorm_gates`]).
pub const fn down_sweeps(m: usize) -> usize {
    if m > 4 {
        m - 2
    } else {
        2
    }
}

/// Renormalize `M` arbitrary values into an `N`-term nonoverlapping
/// expansion of their exact sum (`M >= N`; terms beyond `N` are the
/// discarded error, bounded by the callers' FPAN error analyses).
///
/// Sweep schedule: **up, up**, then [`down_sweeps`]`(M)` **down** sweeps.
/// The arithmetic kernels need all of it even though their accumulation
/// stages emit weakly ordered sequences: the empirical verifier (`mf-fpan`)
/// rejects every cheaper schedule we tried on multi-level cancellation
/// inputs (both heads *and* second terms cancelling).
///
/// * The first up sweep concentrates the rounded total in the head, but
///   cancellation can bury residual mass below zeros (e.g.
///   `[0, -a, a, tiny]` leaves `tiny` at the bottom); the second up sweep
///   pulls any such straggler the full height in one pass (a down sweep
///   would move it only one slot).
/// * The down sweeps push each remaining overlap strictly below the ulp of
///   the term above. A single pass can leave a value exactly at the
///   overlap boundary when a lower `TwoSum` rounds upward, and for M = 5
///   the empirical verifier found double-cancellation inputs (about 1 in
///   20k adversarial trials) where even two passes leave a ~1.25x boundary
///   overlap in the middle pair — three passes survive 10^6 adversarial
///   trials at every width (see EXPERIMENTS.md E5).
#[inline(always)]
pub fn renorm_m_to_n<T: FloatBase, const M: usize, const N: usize>(mut v: [T; M]) -> [T; N] {
    let in_exp = if mf_telemetry::ENABLED {
        max_exponent(&v)
    } else {
        0
    };
    sweep_up(&mut v);
    sweep_up(&mut v);
    let downs = down_sweeps(M);
    for _ in 0..downs {
        sweep_down(&mut v);
    }
    let mut out = [T::ZERO; N];
    out[..N].copy_from_slice(&v[..N]);
    record_renorm(in_exp, &out, 2 + downs);
    out
}

/// Renormalize in place, same width in as out.
///
/// This is the **general-purpose** entry point
/// (`MultiFloat::from_components_renorm`, tests, arbitrary caller data) and
/// runs one more down sweep than the kernel-internal schedule: kernel
/// inputs arrive pre-conditioned by the accumulation stages (verified at
/// 10^6 adversarial trials in that form), but fully arbitrary component
/// vectors can exhibit a ~1-in-10^4 marginal boundary overlap after only
/// two down sweeps (see `tests/fpan_system.rs::hand_built_sum_network_verifies`).
#[inline(always)]
pub fn renorm<T: FloatBase, const N: usize>(mut v: [T; N]) -> [T; N] {
    let in_exp = if mf_telemetry::ENABLED {
        max_exponent(&v)
    } else {
        0
    };
    sweep_up(&mut v);
    sweep_up(&mut v);
    let downs = down_sweeps(N) + 1;
    for _ in 0..downs {
        sweep_down(&mut v);
    }
    record_renorm(in_exp, &v, 2 + downs);
    v
}

/// Slice variants of the sweeps, for callers whose working width is not a
/// compile-time constant (the generic-N ablation kernels).
pub fn sweep_up_slice<T: FloatBase>(v: &mut [T]) {
    for i in (0..v.len().saturating_sub(1)).rev() {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Top-down slice sweep (see [`sweep_down`]).
pub fn sweep_down_slice<T: FloatBase>(v: &mut [T]) {
    for i in 0..v.len().saturating_sub(1) {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Slice renormalization with the same schedule as [`renorm_m_to_n`].
pub fn renorm_slice<T: FloatBase>(v: &mut [T]) {
    let in_exp = if mf_telemetry::ENABLED {
        max_exponent(v)
    } else {
        0
    };
    sweep_up_slice(v);
    sweep_up_slice(v);
    let downs = down_sweeps(v.len());
    for _ in 0..downs {
        sweep_down_slice(v);
    }
    record_renorm(in_exp, v, 2 + downs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn is_nonoverlapping(v: &[f64]) -> bool {
        for i in 1..v.len() {
            if v[i] == 0.0 {
                continue;
            }
            if v[i - 1] == 0.0 {
                return false;
            }
            if v[i].abs() > FloatBase::ulp(v[i - 1]) * 0.5 {
                return false;
            }
        }
        true
    }

    fn exact_sum_preserved(before: &[f64], after: &[f64], slack_bits: i32) -> bool {
        let a = MpFloat::exact_sum(before);
        let b = MpFloat::exact_sum(after);
        if a.is_zero() {
            return b.is_zero() || b.abs().to_f64() < 1e-290;
        }
        a.rel_error_vs(&b) < 2.0f64.powi(-slack_bits)
    }

    #[test]
    fn renorm_random_overlapping() {
        let mut rng = SmallRng::seed_from_u64(100);
        for _ in 0..20_000 {
            let v: [f64; 4] = core::array::from_fn(|_| {
                let e = rng.gen_range(-30..30);
                let m: f64 = rng.gen_range(-1.0..1.0);
                m * 2.0f64.powi(e)
            });
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            // 4 outputs keep the sum to ~4p bits; demand at least 200.
            assert!(exact_sum_preserved(&v, &out, 200), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_cancellation_patterns() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..20_000 {
            // Massive cancellation: near-equal opposite values plus dust.
            let big: f64 = rng.gen_range(1.0..2.0) * 2.0f64.powi(rng.gen_range(-5..5));
            let dust1 = rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-80..-60));
            let dust2 = rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-120..-100));
            let v = [big, -big + dust1 * 0.0, dust1, dust2];
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 150), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_with_zeros_anywhere() {
        let patterns: [[f64; 4]; 6] = [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1e-40],
            [1.0, 0.0, 1e-20, 0.0],
            [0.0, 0.0, 1e10, -1e-10],
            [1e100, 0.0, 0.0, 1e50],
            [0.0, -3.5, 3.5, 1e-60],
        ];
        for v in patterns {
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 140), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_m_to_n_truncates_low_bits_only() {
        // 5 values renormalized into 4 slots: the dropped part must be below
        // the 4-term precision.
        let mut rng = SmallRng::seed_from_u64(102);
        for _ in 0..10_000 {
            let v: [f64; 5] = core::array::from_fn(|i| {
                let e = -55 * i as i32 + rng.gen_range(-3..3);
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(e)
            });
            let out: [f64; 4] = renorm_m_to_n(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 205), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn sweep_up_preserves_exact_sum() {
        let mut rng = SmallRng::seed_from_u64(103);
        for _ in 0..10_000 {
            let v: [f64; 4] = core::array::from_fn(|_| {
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(rng.gen_range(-40..40))
            });
            let mut w = v;
            sweep_up(&mut w);
            // TwoSum sweeps are exact transformations of the vector sum.
            let a = MpFloat::exact_sum(&v);
            let b = MpFloat::exact_sum(&w);
            assert!(a == b, "in {v:?} out {w:?}");
            let mut w2 = w;
            sweep_down(&mut w2);
            let c = MpFloat::exact_sum(&w2);
            assert!(a == c);
        }
    }

    #[test]
    fn renorm_idempotent_on_valid_expansions() {
        let mut rng = SmallRng::seed_from_u64(104);
        for _ in 0..10_000 {
            let v: [f64; 3] = core::array::from_fn(|_| {
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(rng.gen_range(-20..20))
            });
            let once = renorm(v);
            let twice = renorm(once);
            assert_eq!(once, twice, "renorm must be idempotent: {v:?}");
        }
    }
}
