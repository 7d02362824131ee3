//! Golden bit digest of the shipped `add`/`mul` kernels.
//!
//! Hashes the exact bit patterns that `addition::add` and
//! `multiplication::mul` produce for N = 2..4, on `f64` and `f32`, over a
//! fixed seeded corpus (random nonoverlapping expansions plus signed zeros,
//! subnormal tails and exact cancellations). The pinned digests were
//! computed from the hand-unrolled kernels that preceded the gate-table
//! code generation, so any change to a network's gate list, its wire
//! order or its renormalization schedule that moves a single output bit
//! fails here. A change that is *meant* to move bits must update the
//! digests visibly.

use mf_core::{addition, multiplication, renorm, FloatBase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The raw bit pattern of a base float, widened to `u64`.
trait Bits: FloatBase {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

/// FNV-1a over 64-bit words.
fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Random nonoverlapping expansion: head `m * 2^e0`, each later term
/// below half an ulp of the one above (sometimes exactly at the boundary),
/// occasionally truncated early.
fn rand_expansion<T: FloatBase, const N: usize>(rng: &mut SmallRng, e0: i32) -> [T; N] {
    let p = T::PRECISION as i32;
    let mut c = [T::ZERO; N];
    let mut e = e0;
    for slot in c.iter_mut() {
        if rng.gen_ratio(1, 12) {
            break;
        }
        *slot = T::from_f64(rng.gen_range(-1.0f64..1.0)) * T::exp2i(e);
        let gap = if rng.gen_ratio(1, 8) {
            0
        } else {
            rng.gen_range(0..8)
        };
        e = slot.exponent() - p - gap;
    }
    renorm::renorm(c)
}

/// Hand-picked edge operands: signed zeros, subnormal tails, exact
/// cancellation. Each pair is fed to both `add` and `mul`.
fn edge_pairs<T: FloatBase, const N: usize>() -> Vec<([T; N], [T; N])> {
    let tiny = T::MIN_POSITIVE * T::exp2i(-3); // subnormal
    let zero = [T::ZERO; N];
    let neg_zero = [-T::ZERO; N];
    let mut sub_tail = [T::ZERO; N];
    sub_tail[0] = T::MIN_POSITIVE * T::exp2i(T::PRECISION as i32 + 1);
    sub_tail[N - 1] = tiny;
    let mut x = [T::ZERO; N];
    let mut e = 0;
    for (i, slot) in x.iter_mut().enumerate() {
        *slot = T::from_f64(if i % 2 == 0 { 1.5 } else { -1.25 }) * T::exp2i(e);
        e -= T::PRECISION as i32 + 2;
    }
    let neg_x = x.map(|v| -v);
    let mut head_cancel = neg_x;
    head_cancel[N - 1] = T::ZERO;
    vec![
        (zero, zero),
        (zero, neg_zero),
        (neg_zero, neg_zero),
        (neg_zero, x),
        (x, neg_zero),
        (x, neg_x),
        (neg_x, x),
        (x, head_cancel),
        (sub_tail, sub_tail),
        (sub_tail, sub_tail.map(|v| -v)),
        (sub_tail, x),
        (x, sub_tail),
    ]
}

fn digest_n<T: Bits, const N: usize>(h: &mut u64, rng: &mut SmallRng, cases: usize) {
    let e_span = T::PRECISION as i32;
    let mut pairs = edge_pairs::<T, N>();
    for _ in 0..cases {
        let e0 = rng.gen_range(-e_span..e_span);
        // Half the pairs are close in magnitude (cancellation-prone).
        let e1 = if rng.gen_ratio(1, 2) {
            e0 + rng.gen_range(-2..3)
        } else {
            rng.gen_range(-e_span..e_span)
        };
        let x = rand_expansion::<T, N>(rng, e0);
        let mut y = rand_expansion::<T, N>(rng, e1);
        if rng.gen_ratio(1, 4) {
            y[0] = -x[0];
            y = renorm::renorm(y);
        }
        pairs.push((x, y));
    }
    for (x, y) in &pairs {
        for v in addition::add(x, y)
            .into_iter()
            .chain(multiplication::mul(x, y))
        {
            fnv1a(h, v.bits());
        }
    }
}

fn digest<T: Bits>(seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    digest_n::<T, 2>(&mut h, &mut rng, 4000);
    digest_n::<T, 3>(&mut h, &mut rng, 4000);
    digest_n::<T, 4>(&mut h, &mut rng, 4000);
    h
}

#[test]
fn add_mul_bits_match_golden_digest_f64() {
    assert_eq!(
        digest::<f64>(0x5EED_B175),
        0x4623_7d21_2c32_4d26,
        "f64 add/mul bits drifted"
    );
}

#[test]
fn add_mul_bits_match_golden_digest_f32() {
    assert_eq!(
        digest::<f32>(0x5EED_B175),
        0xd08b_7c92_d5b7_7768,
        "f32 add/mul bits drifted"
    );
}
