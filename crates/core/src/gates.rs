//! The shipped accumulation networks (paper §4.1–4.2), each written once.
//!
//! Every network is a gate table: its input arity, its gates (`ts` =
//! `TwoSum`, `fts` = `FastTwoSum`, `add` = plain add whose `lo` wire
//! dies), and its final step — either a list of output wires or "renormalize
//! these wires to N terms". `fpan_table!` expands each table into
//!
//! * a straight-line `#[inline(always)]` kernel generic over [`FloatBase`]
//!   (what [`crate::addition::add`] and [`crate::multiplication::mul`]
//!   run), in the style of MultiFloats.jl's `_meta_two_sum` codegen; and
//! * a `const` [`GateTable`] that `mf-fpan` turns into an interpretable
//!   network for verification, search and fault injection.
//!
//! The renormalization step is [`renorm_m_to_n`] in the kernels and
//! [`renorm_gates`] in the data, both on the [`down_sweeps`] schedule, so
//! the two forms cannot drift apart. Sizes and depths are measured from
//! the data (`mf_fpan::Fpan::{size, depth}`, EXPERIMENTS.md E7), never
//! restated by hand.
//!
//! Input conventions:
//!
//! * **Addition** (`add2..add4`): inputs interleaved `[x0, y0, x1, y1, …]`;
//!   the leading `TwoSum(x_i, y_i)` pairing layer makes the sum exactly
//!   invariant under operand swap.
//! * **Multiplication** (`mul2..mul4`): inputs are the `n²` values of the
//!   pruned expansion step [`mul_expansion`]. The leading
//!   [`GateTable::commute`] gates are the §4.2 commutativity layer, which
//!   pairs symmetric terms `(p_ij, p_ji)` first so the product is exactly
//!   invariant under operand swap.

use crate::renorm::{down_sweeps, renorm_m_to_n};
use mf_eft::{fast_two_sum, two_prod, two_sum, FloatBase};

/// The three gate kinds of an FPAN diagram (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Plain floating-point addition; discards its rounding error.
    Add,
    /// Error-free `TwoSum` (Algorithm 1).
    TwoSum,
    /// Error-free `FastTwoSum` (Algorithm 3); requires
    /// `exponent(hi) >= exponent(lo)` or a zero operand.
    FastTwoSum,
}

/// One gate: operates on the values currently held by wires `hi` and `lo`.
/// For two-output gates, the sum lands on `hi` and the error on `lo`;
/// for [`GateKind::Add`], the sum lands on `hi` and `lo` becomes dead
/// (zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate {
    pub kind: GateKind,
    pub hi: usize,
    pub lo: usize,
}

impl Gate {
    /// Apply the gate to the wire vector `w` — the interpreter's one step.
    /// Returns `false` when a `FastTwoSum` precondition is violated; the
    /// gate then still computes `s = a + b, e = b - (s - a)` (release-mode
    /// semantics), so callers decide whether a violation is fatal.
    #[inline]
    pub fn apply<T: FloatBase>(self, w: &mut [T]) -> bool {
        let (a, b) = (w[self.hi], w[self.lo]);
        let (s, e, ok) = match self.kind {
            GateKind::Add => (a + b, T::ZERO, true),
            GateKind::TwoSum => {
                let (s, e) = two_sum(a, b);
                (s, e, true)
            }
            GateKind::FastTwoSum => {
                let s = a + b;
                let ok = a.is_zero() || b.is_zero() || a.exponent() >= b.exponent();
                (s, b - (s - a), ok)
            }
        };
        w[self.hi] = s;
        w[self.lo] = e;
        ok
    }
}

/// How a network's result leaves its wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// These wires, most significant first, are the outputs.
    Outputs(&'static [usize]),
    /// Renormalize these wires ([`renorm_m_to_n`]) and keep the leading
    /// `n` terms.
    Renorm(&'static [usize], usize),
}

/// One shipped network as data: what `fpan_table!` emits beside the
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTable {
    /// Input wires; the networks use no scratch wires.
    pub inputs: usize,
    /// Length of the leading commutativity layer (addition: the pairing
    /// layer; multiplication: the §4.2 symmetric-pair layer).
    pub commute: usize,
    /// The accumulation gates, in execution order.
    pub gates: &'static [Gate],
    /// The final step.
    pub tail: Tail,
}

/// The gates of [`renorm_m_to_n`] over `wires`: two bottom-up `TwoSum`
/// sweeps, then [`down_sweeps`] top-down ones.
pub fn renorm_gates(wires: &[usize]) -> Vec<Gate> {
    let ts = |i: usize| Gate {
        kind: GateKind::TwoSum,
        hi: wires[i],
        lo: wires[i + 1],
    };
    let pairs = wires.len() - 1;
    let up = (0..pairs).rev().map(ts);
    let down = (0..pairs).map(ts);
    let downs = down_sweeps(wires.len());
    up.clone()
        .chain(up)
        .chain(std::iter::repeat_n(down, downs).flatten())
        .collect()
}

/// The `(i, j)` of each product `x_i * y_j` the expansion step keeps, in
/// wire order: level `k = i + j` ascending, and within a level
/// `(0,k), (k,0), (1,k-1), (k-1,1), …`. Sized for `n <= 4`.
const fn expansion_pairs(n: usize) -> [(usize, usize); 16] {
    let mut out = [(0, 0); 16];
    let (mut k, mut level) = (0, 0);
    while level < n {
        let mut i = 0;
        while 2 * i <= level {
            out[k] = (i, level - i);
            k += 1;
            if 2 * i != level {
                out[k] = (level - i, i);
                k += 1;
            }
            i += 1;
        }
        level += 1;
    }
    out
}

/// The pruned expansion step of `N`-term multiplication (paper §4.2):
/// exact `TwoProd` pairs `(p_ij, e_ij)` for levels `i + j <= N - 2`, then
/// plain products `r_ij = x_i * y_j` at level `N - 1`; everything deeper is
/// below the `N`-term bound and pruned. The result is the `M = N²` network
/// inputs `[p00, e00, p01, e01, p10, e10, …, r0k, rk0, …]`.
#[inline(always)]
pub fn mul_expansion<T: FloatBase, const N: usize, const M: usize>(
    x: &[T; N],
    y: &[T; N],
) -> [T; M] {
    debug_assert_eq!(M, N * N, "expansion step of {N} terms has {} wires", N * N);
    let pairs = const { expansion_pairs(N) };
    // Flat loops over a constant table unroll fully, so `w` stays in
    // registers.
    let exact = N * (N - 1) / 2;
    let mut w = [T::ZERO; M];
    for (p, &(i, j)) in pairs[..exact].iter().enumerate() {
        (w[2 * p], w[2 * p + 1]) = two_prod(x[i], y[j]);
    }
    for (p, &(i, j)) in pairs[exact..exact + N].iter().enumerate() {
        w[2 * exact + p] = x[i] * y[j];
    }
    w
}

/// Kernel statement for one table gate.
macro_rules! gate_op {
    ($w:ident, ts, $hi:literal, $lo:literal) => {
        ($w[$hi], $w[$lo]) = two_sum($w[$hi], $w[$lo])
    };
    ($w:ident, fts, $hi:literal, $lo:literal) => {
        ($w[$hi], $w[$lo]) = fast_two_sum($w[$hi], $w[$lo])
    };
    ($w:ident, add, $hi:literal, $lo:literal) => {
        ($w[$hi], $w[$lo]) = ($w[$hi] + $w[$lo], T::ZERO)
    };
}

/// [`GateKind`] for one table gate.
macro_rules! gate_kind {
    (ts) => {
        GateKind::TwoSum
    };
    (fts) => {
        GateKind::FastTwoSum
    };
    (add) => {
        GateKind::Add
    };
}

/// Expand one gate table into its `const` [`GateTable`] `$table` and its
/// straight-line kernel `$kernel`. The final step is either
/// `=> out [wires]` or `=> renorm [wires] to n`.
macro_rules! fpan_table {
    (
        $(#[$doc:meta])*
        $kernel:ident, $table:ident: inputs $m:literal, commute $c:literal;
        $($op:ident($hi:literal, $lo:literal))*
        => $tail:ident [$($t:literal),*] $(to $n:literal)?
    ) => {
        $(#[$doc])*
        pub const $table: GateTable = GateTable {
            inputs: $m,
            commute: $c,
            gates: &[$(Gate { kind: gate_kind!($op), hi: $hi, lo: $lo }),*],
            tail: fpan_table!(@tail $tail [$($t),*] $($n)?),
        };

        $(#[$doc])*
        #[inline(always)]
        pub fn $kernel<T: FloatBase>(mut w: [T; $m]) -> [T; fpan_table!(@len $tail [$($t),*] $($n)?)] {
            $(gate_op!(w, $op, $hi, $lo);)*
            fpan_table!(@finish w $tail [$($t),*])
        }
    };
    (@tail out [$($t:literal),*]) => { Tail::Outputs(&[$($t),*]) };
    (@tail renorm [$($t:literal),*] $n:literal) => { Tail::Renorm(&[$($t),*], $n) };
    (@len out [$($t:literal),*]) => { [$($t),*].len() };
    (@len renorm [$($t:literal),*] $n:literal) => { $n };
    (@finish $w:ident out [$($t:literal),*]) => { [$($w[$t]),*] };
    (@finish $w:ident renorm [$($t:literal),*]) => { renorm_m_to_n([$($w[$t]),*]) };
}

fpan_table! {
    /// 2-term addition: `AccurateDWPlusDW` (Joldes, Muller & Popescu 2017,
    /// Algorithm 6), the proven sequence with the size of the paper's
    /// Figure 2 optimum. Discarded error `<= 3u²/(1 - 4u) |x + y|`.
    add2, ADD2: inputs 4, commute 2;
    ts(0, 1) ts(2, 3) // pairing layer: (s, e), (t, f)
    add(1, 2) // e += t
    fts(0, 1)
    add(1, 3) // e += f
    fts(0, 1)
    => out [0, 1]
}

fpan_table! {
    /// 3-term addition (paper Figure 3 class): pairing layer, diagonal
    /// error absorption, tail accumulation, renormalization of the
    /// 4-value carry-save form.
    add3, ADD3: inputs 6, commute 3;
    ts(0, 1) ts(2, 3) ts(4, 5) // pairing layer
    ts(2, 1) ts(4, 3) ts(4, 1) // absorption: errors drop one level
    add(5, 3) add(5, 1) // tail: (e2 + t1) + u0
    => renorm [0, 2, 4, 5] to 3
}

fpan_table! {
    /// 4-term addition (paper Figure 4 class): pairing layer, triangular
    /// absorption, tail accumulation, renormalization of 5 values.
    add4, ADD4: inputs 8, commute 4;
    ts(0, 1) ts(2, 3) ts(4, 5) ts(6, 7) // pairing layer
    ts(2, 1) ts(4, 3) ts(6, 5) // absorption sweep 1
    ts(4, 1) ts(6, 3) // absorption sweep 2
    ts(6, 1) // absorption sweep 3
    add(7, 5) add(7, 3) add(7, 1) // tail: ((e3 + t2) + u1) + v0
    => renorm [0, 2, 4, 6, 7] to 4
}

fpan_table! {
    /// 2-term multiplication accumulation (`DWTimesDW` with FMA), matching
    /// the paper's provably optimal Figure 5. Inputs `[p00, e00, r01, r10]`.
    /// Discarded error `<= 2^-(2p-3) |xy|`.
    mul2, MUL2: inputs 4, commute 1;
    add(2, 3) // cross = r01 + r10
    add(1, 2) // lo = e00 + cross
    fts(0, 1)
    => out [0, 1]
}

fpan_table! {
    /// 3-term multiplication accumulation (paper Figure 6 class). Inputs
    /// `[p00, e00, p01, e01, p10, e10, r02, r20, r11]`.
    mul3, MUL3: inputs 9, commute 3;
    ts(2, 4) // commutativity layer: (a1, b2) = TwoSum(p01, p10)
    add(3, 5) // e01 + e10
    add(6, 7) // r02 + r20
    ts(2, 1) // level 1: (s1, c2) = TwoSum(a1, e00)
    add(3, 6) add(3, 8) // level 2: + r2, + r11
    add(4, 1) // b2 + c2
    add(3, 4) // t2
    => renorm [0, 2, 3] to 3
}

fpan_table! {
    /// 4-term multiplication accumulation (paper Figure 7 class). Inputs
    /// `[p00, e00, p01, e01, p10, e10, p02, e02, p20, e20, p11, e11, r03,
    /// r30, r12, r21]`. The level-2 pair `(e01, e10)` needs a `TwoSum`: a
    /// plain add would discard a level-3 error that the `2^-(4p-4)` bound
    /// cannot absorb.
    mul4, MUL4: inputs 16, commute 6;
    add(12, 13) // commutativity layer: r3a = r03 + r30
    add(14, 15) // r3b = r12 + r21
    ts(2, 4) // (a1, b2) = TwoSum(p01, p10)
    ts(6, 8) // (a2, b3) = TwoSum(p02, p20)
    ts(3, 5) // (cq1, cq1e) = TwoSum(e01, e10)
    add(7, 9) // cq2 = e02 + e20
    ts(2, 1) // level 1: (s1, c2) = TwoSum(a1, e00)
    ts(6, 10) ts(6, 3) ts(6, 4) ts(6, 1) // level 2: t2 absorbs p11, cq1, b2, c2
    add(11, 7) add(12, 14) add(11, 12) // level 3: (e11 + cq2) + (r3a + r3b)
    add(8, 5) add(10, 3) add(8, 10) // + ((b3 + cq1e) + (d3a + d3b)
    add(4, 1) add(8, 4) add(11, 8) //    + (d3c + d3d))
    => renorm [0, 2, 6, 11] to 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_matches_documented_inputs() {
        // Small integers: every product is exact (zero TwoProd errors) and
        // identifies its (i, j).
        let x = [2.0f64, 4.0, 8.0, 16.0];
        let y = [3.0f64, 5.0, 7.0, 11.0];
        let w: [f64; 16] = mul_expansion(&x, &y);
        let p = |i: usize, j: usize| x[i] * y[j];
        let expect = [
            p(0, 0),
            0.0,
            p(0, 1),
            0.0,
            p(1, 0),
            0.0,
            p(0, 2),
            0.0,
            p(2, 0),
            0.0,
            p(1, 1),
            0.0,
            p(0, 3),
            p(3, 0),
            p(1, 2),
            p(2, 1),
        ];
        assert_eq!(w, expect);
        let w: [f64; 4] = mul_expansion(&[x[0], x[1]], &[y[0], y[1]]);
        assert_eq!(w, [p(0, 0), 0.0, p(0, 1), p(1, 0)]);
    }

    #[test]
    fn renorm_gates_follow_the_sweep_schedule() {
        let g = renorm_gates(&[0, 2, 4, 5]);
        let pairs: Vec<(usize, usize)> = g.iter().map(|g| (g.hi, g.lo)).collect();
        let up = [(4, 5), (2, 4), (0, 2)];
        let down = [(0, 2), (2, 4), (4, 5)];
        let expect: Vec<(usize, usize)> = [up, up, down, down].concat();
        assert_eq!(pairs, expect);
        assert!(g.iter().all(|g| g.kind == GateKind::TwoSum));
        assert_eq!(renorm_gates(&[0, 2, 4, 6, 7]).len(), 4 * (2 + 3));
    }
}
