//! The shipped accumulation networks, as data.
//!
//! Each network is built from its gate table in `mf_core::gates` — the
//! same table that generates `mf-core`'s straight-line add/mul kernels, so
//! interpreting a network here and running the kernel are bit-identical
//! by construction (and tested to be). This gives the verification
//! machinery (and the annealing search) a ground-truth object to
//! manipulate, and documents the kernels in the paper's own formalism.
//!
//! Input conventions (see `mf_core::gates`):
//!
//! * **Addition networks** (`add_n(n)`): inputs are interleaved
//!   `[x0, y0, x1, y1, …]` — the initial layer of `TwoSum` gates pairs
//!   `(x_i, y_i)` exactly as the paper's Figures 2–4.
//! * **Multiplication networks** (`mul_n(n)`): inputs are the `n²` values
//!   produced by the pruned expansion step (paper §4.2,
//!   [`mul_expansion_step_generic`]): exact products `p_ij` and their
//!   `TwoProd` errors `e_ij` for `i+j <= n-2`, and plain products `r_ij`
//!   for `i+j = n-1`.

use crate::Fpan;
use mf_core::gates::{self, renorm_gates, GateTable, Tail};
use mf_eft::FloatBase;

const ADD: [GateTable; 3] = [gates::ADD2, gates::ADD3, gates::ADD4];
const MUL: [GateTable; 3] = [gates::MUL2, gates::MUL3, gates::MUL4];

/// Interpretable network for one gate table: its gates, then (for the
/// renormalizing networks) the renormalization sweeps as `TwoSum` gates.
fn from_table(t: &GateTable) -> Fpan {
    let mut net = Fpan::new(t.inputs, Vec::new());
    net.gates = t.gates.to_vec();
    net.outputs = match t.tail {
        Tail::Outputs(wires) => wires.to_vec(),
        Tail::Renorm(wires, n) => {
            net.gates.extend(renorm_gates(wires));
            wires[..n].to_vec()
        }
    };
    net
}

/// Look up the table for `n`-term `op` networks (n in 2..=4).
fn table(tables: &[GateTable; 3], n: usize, op: &str) -> GateTable {
    assert!((2..=4).contains(&n), "no {op} network for n = {n}");
    tables[n - 2]
}

/// Addition network for `n`-term expansions (n in 2..=4).
pub fn add_n(n: usize) -> Fpan {
    from_table(&table(&ADD, n, "addition"))
}

/// Multiplication accumulation network for `n`-term expansions (n in 2..=4).
pub fn mul_n(n: usize) -> Fpan {
    from_table(&table(&MUL, n, "multiplication"))
}

/// The 2-term addition network: `AccurateDWPlusDW`.
pub fn add_2() -> Fpan {
    add_n(2)
}

/// The 3-term addition network.
pub fn add_3() -> Fpan {
    add_n(3)
}

/// The 4-term addition network.
pub fn add_4() -> Fpan {
    add_n(4)
}

/// The 2-term multiplication accumulation network (the paper's provably
/// optimal Figure 5).
pub fn mul_2() -> Fpan {
    mul_n(2)
}

/// The 3-term multiplication accumulation network.
pub fn mul_3() -> Fpan {
    mul_n(3)
}

/// The 4-term multiplication accumulation network.
pub fn mul_4() -> Fpan {
    mul_n(4)
}

/// Compute the pruned expansion step for `n`-term multiplication (paper
/// §4.2) for any base type, producing the input vector for [`mul_n`] in
/// its documented order (`mf_core::gates::mul_expansion`). Exposed for the
/// verifier, the search and the fault campaigns.
pub fn mul_expansion_step_generic<T: FloatBase>(x: &[T], y: &[T]) -> Vec<T> {
    fn step<T: FloatBase, const N: usize, const M: usize>(x: &[T], y: &[T]) -> Vec<T> {
        let x: &[T; N] = x.try_into().expect("length matched below");
        let y: &[T; N] = y.try_into().expect("length matched below");
        gates::mul_expansion::<T, N, M>(x, y).to_vec()
    }
    assert_eq!(x.len(), y.len());
    match x.len() {
        2 => step::<T, 2, 4>(x, y),
        3 => step::<T, 3, 9>(x, y),
        4 => step::<T, 4, 16>(x, y),
        n => panic!("no expansion step for n = {n}"),
    }
}

/// The §4.2 commutativity layer for an `n`-term multiplication
/// accumulation network: the fixed prefix of gates that pair symmetric
/// terms `(p_ij, p_ji)` / `(e_ij, e_ji)` so the product is invariant under
/// operand swap. The paper notes this layer does **not** emerge from
/// search on its own and must be imposed; [`crate::search`] freezes it.
pub fn commutativity_layer(n: usize) -> Vec<crate::Gate> {
    let t = table(&MUL, n, "multiplication");
    t.gates[..t.commute].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::{addition, multiplication, renorm};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_expansion<const N: usize>(rng: &mut SmallRng) -> [f64; N] {
        let mut c = [0.0f64; N];
        let mut e = rng.gen_range(-30..30);
        for slot in c.iter_mut() {
            let m: f64 = rng.gen_range(-1.0f64..1.0);
            *slot = m * 2.0f64.powi(e);
            e -= 53 + rng.gen_range(0..4);
        }
        renorm::renorm(c)
    }

    #[test]
    fn shipped_sizes_and_depths() {
        // E7: our networks' measured size/depth, beside the paper's
        // ((6,4),(14,8),(26,11) add; (3,3),(12,7),(27,10) mul).
        assert_eq!((add_2().size(), add_2().depth()), (6, 5));
        assert_eq!(add_3().size(), 20);
        assert_eq!(add_4().size(), 33);
        assert_eq!((mul_2().size(), mul_2().depth()), (3, 3));
        assert_eq!(mul_3().size(), 16);
        assert_eq!(mul_4().size(), 32);
        // Depths are data, not targets; pin them to catch regressions.
        eprintln!(
            "measured (size, depth): add3={:?} add4={:?} mul3={:?} mul4={:?}",
            (add_3().size(), add_3().depth()),
            (add_4().size(), add_4().depth()),
            (mul_3().size(), mul_3().depth()),
            (mul_4().size(), mul_4().depth()),
        );
    }

    /// Signed zeros, subnormal tails and exact cancellations.
    fn edge_pairs<const N: usize>() -> Vec<([f64; N], [f64; N])> {
        let mut x = [0.0f64; N];
        for (i, v) in x.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.5 } else { -1.25 } * 2.0f64.powi(-55 * i as i32);
        }
        let mut signed_tail = x;
        signed_tail[N - 1] = -0.0;
        let mut sub = [0.0f64; N];
        sub[0] = f64::MIN_POSITIVE * 2.0f64.powi(60);
        sub[1] = -f64::MIN_POSITIVE / 8.0; // subnormal
        let (zero, neg_zero) = ([0.0f64; N], [-0.0f64; N]);
        let neg = |v: [f64; N]| v.map(|c| -c);
        vec![
            (zero, neg_zero),
            (neg_zero, neg_zero),
            (neg_zero, x),
            (signed_tail, neg(signed_tail)),
            (x, neg(x)),
            (neg(x), x),
            (sub, sub),
            (sub, neg(sub)),
            (sub, x),
        ]
    }

    /// Bitwise equality: unlike `==` on `f64`, `-0.0` and `+0.0` differ.
    fn assert_same_bits(net: &[f64], kernel: &[f64], ctx: impl Fn() -> String) {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(net), bits(kernel), "{}", ctx());
    }

    fn check_add<const N: usize>(net: &Fpan, x: [f64; N], y: [f64; N]) {
        let inputs: Vec<f64> = (0..N).flat_map(|i| [x[i], y[i]]).collect();
        let kernel = addition::add(&x, &y);
        assert_same_bits(&net.run(&inputs), &kernel, || {
            format!("n={N} x={x:?} y={y:?}")
        });
    }

    fn check_mul<const N: usize>(net: &Fpan, x: [f64; N], y: [f64; N]) {
        let out = net.run(&mul_expansion_step_generic(&x, &y));
        let kernel = multiplication::mul(&x, &y);
        assert_same_bits(&out, &kernel, || format!("n={N} x={x:?} y={y:?}"));
    }

    #[test]
    fn add_networks_match_kernels_bitwise() {
        let mut rng = SmallRng::seed_from_u64(700);
        let nets = [add_2(), add_3(), add_4()];
        for _ in 0..20_000 {
            check_add::<2>(&nets[0], rand_expansion(&mut rng), rand_expansion(&mut rng));
            check_add::<3>(&nets[1], rand_expansion(&mut rng), rand_expansion(&mut rng));
            check_add::<4>(&nets[2], rand_expansion(&mut rng), rand_expansion(&mut rng));
        }
        for (x, y) in edge_pairs::<2>() {
            check_add(&nets[0], x, y);
        }
        for (x, y) in edge_pairs::<3>() {
            check_add(&nets[1], x, y);
        }
        for (x, y) in edge_pairs::<4>() {
            check_add(&nets[2], x, y);
        }
    }

    #[test]
    fn mul_networks_match_kernels_bitwise() {
        let mut rng = SmallRng::seed_from_u64(701);
        let nets = [mul_2(), mul_3(), mul_4()];
        for _ in 0..20_000 {
            check_mul::<2>(&nets[0], rand_expansion(&mut rng), rand_expansion(&mut rng));
            check_mul::<3>(&nets[1], rand_expansion(&mut rng), rand_expansion(&mut rng));
            check_mul::<4>(&nets[2], rand_expansion(&mut rng), rand_expansion(&mut rng));
        }
        for (x, y) in edge_pairs::<2>() {
            check_mul(&nets[0], x, y);
        }
        for (x, y) in edge_pairs::<3>() {
            check_mul(&nets[1], x, y);
        }
        for (x, y) in edge_pairs::<4>() {
            check_mul(&nets[2], x, y);
        }
    }

    #[test]
    fn commutativity_layer_is_a_prefix_of_mul_n() {
        for n in 2..=4 {
            let layer = commutativity_layer(n);
            assert!(!layer.is_empty());
            assert_eq!(&mul_n(n).gates[..layer.len()], layer.as_slice(), "n={n}");
        }
    }

    #[test]
    fn commutativity_via_input_swap() {
        // Swapping the operands permutes the network inputs; outputs must
        // be bitwise identical (the paper's §4.2 property, network-level).
        let mut rng = SmallRng::seed_from_u64(702);
        let net = add_3();
        for _ in 0..5_000 {
            let x = rand_expansion::<3>(&mut rng);
            let y = rand_expansion::<3>(&mut rng);
            let a = net.run(&[x[0], y[0], x[1], y[1], x[2], y[2]]);
            let b = net.run(&[y[0], x[0], y[1], x[1], y[2], x[2]]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn flop_counts() {
        // Total FLOPs per extended-precision operation — the paper's "each
        // extended-precision operation consists of several dozen machine
        // FLOPs" (§5).
        assert_eq!(add_2().flops(), 2 * 6 + 2 * 3 + 2);
        assert!(add_4().flops() < 200);
        assert_eq!(mul_2().flops(), 2 + 3);
    }
}
