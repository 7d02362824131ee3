//! Per-layer metrics every workload reports: static FPAN network counts,
//! calibration loops for the scalar ops and the serial kernels, and the
//! layer-ledger table.

use crate::stats::{self, Rng};
use crate::{LayerTotals, Metric, Workload};
use mf_blas::soa::SoaVec;
use mf_core::MultiFloat;
use mf_fpan::networks;
use std::hint::black_box;
use std::time::Instant;

/// Elements per calibration vector: 4096 `F64x4` pairs are 256 KiB, well
/// inside L2, like the workloads' own working sets.
const CAL_LEN: usize = 4096;
/// Timed passes per calibration; the median pass is reported.
const CAL_PASSES: usize = 7;
/// Minimum duration of one pass, in ns.
const CAL_PASS_NS: u128 = 15_000_000;

pub fn fpan_counts(out: &mut Vec<Metric>) {
    let nets = [
        ("add2", networks::add_2()),
        ("add3", networks::add_3()),
        ("add4", networks::add_4()),
        ("mul2", networks::mul_2()),
        ("mul3", networks::mul_3()),
        ("mul4", networks::mul_4()),
    ];
    for (name, net) in nets {
        out.push(Metric::new(
            format!("fpan.{name}.gates"),
            net.size() as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("fpan.{name}.depth"),
            net.depth() as f64,
            "count",
        ));
    }
}

/// Median over passes of ns per unit of work, where one call of `f` does
/// `units` units and a pass repeats it for at least [`CAL_PASS_NS`].
fn ns_per_unit(units: usize, mut f: impl FnMut()) -> f64 {
    f();
    let passes: Vec<f64> = (0..CAL_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed().as_nanos() < CAL_PASS_NS {
                f();
                calls += 1;
            }
            t0.elapsed().as_nanos() as f64 / (calls * units as u64) as f64
        })
        .collect();
    stats::median(&passes)
}

fn mf_vec<const N: usize>(flat: &[f64]) -> Vec<MultiFloat<f64, N>> {
    flat.chunks_exact(N)
        .map(|c| MultiFloat::from_components(c.try_into().expect("N comps")))
        .collect()
}

/// Scalar add and mul, ns per independent op, and the serial AoS and SoA
/// kernels in Gop/s, at width `N` over the workload's operands.
fn calibrate_width<const N: usize>(
    w: &dyn Workload,
    rng: &mut Rng,
    tag: &str,
    out: &mut Vec<Metric>,
) {
    let x = mf_vec::<N>(&w.operands(rng, N, CAL_LEN));
    let y = mf_vec::<N>(&w.operands(rng, N, CAL_LEN));
    let mut z = vec![MultiFloat::<f64, N>::ZERO; CAL_LEN];
    let add = ns_per_unit(CAL_LEN, || {
        for ((zi, a), b) in z.iter_mut().zip(black_box(&x)).zip(black_box(&y)) {
            *zi = a.add(*b);
        }
        black_box(&mut z);
    });
    let mul = ns_per_unit(CAL_LEN, || {
        for ((zi, a), b) in z.iter_mut().zip(black_box(&x)).zip(black_box(&y)) {
            *zi = a.mul(*b);
        }
        black_box(&mut z);
    });
    out.push(Metric::new(format!("core.add.ns_{tag}"), add, "ns"));
    out.push(Metric::new(format!("core.mul.ns_{tag}"), mul, "ns"));

    let dot = ns_per_unit(CAL_LEN, || {
        black_box(mf_blas::kernels::dot(black_box(&x), black_box(&y)));
    });
    out.push(Metric::new(
        format!("blas.kernels.dot.gops_{tag}"),
        1.0 / dot,
        "Gop/s",
    ));
    let (sx, sy) = (SoaVec::from_slice(&x), SoaVec::from_slice(&y));
    let sdot = ns_per_unit(CAL_LEN, || {
        black_box(mf_blas::soa::dot(black_box(&sx), black_box(&sy)));
    });
    out.push(Metric::new(
        format!("blas.soa.dot.gops_{tag}"),
        1.0 / sdot,
        "Gop/s",
    ));
    if N == 2 {
        // AXPY accumulates into `z`; alpha in (0.5, 1) and a bounded run
        // keep it finite.
        let alpha = MultiFloat::<f64, N>::from(0.75);
        let axpy = ns_per_unit(CAL_LEN, || {
            mf_blas::kernels::axpy(alpha, black_box(&x), &mut z);
        });
        out.push(Metric::new(
            "blas.kernels.axpy.gops_n2",
            1.0 / axpy,
            "Gop/s",
        ));
        let mut sz = SoaVec::from_slice(&y);
        let saxpy = ns_per_unit(CAL_LEN, || {
            mf_blas::soa::axpy(alpha, black_box(&sx), &mut sz);
        });
        out.push(Metric::new("blas.soa.axpy.gops_n2", 1.0 / saxpy, "Gop/s"));
    }
}

pub fn calibrate(w: &dyn Workload, rng: &mut Rng, out: &mut Vec<Metric>) {
    calibrate_width::<2>(w, rng, "n2", out);
    calibrate_width::<3>(w, rng, "n3", out);
    calibrate_width::<4>(w, rng, "n4", out);
}

/// Value of metric `name` in `m` (0 when absent).
fn get(m: &[Metric], name: &str) -> f64 {
    m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value)
}

/// The layer ledger: where traced task time went, and the `N = 2 -> 3`
/// cliff measured against what the FPAN networks predict.
pub fn ledger(workload: &str, totals: &LayerTotals, m: &[Metric]) -> Vec<String> {
    let task = totals.task_ns as f64;
    let mut lines = vec![
        format!("layer ledger: {workload} ({} traced tasks)", totals.tasks),
        format!(
            "  {:<28} {:>10} {:>12} {:>12} {:>8}",
            "span", "calls", "total ms", "self ms", "share"
        ),
    ];
    for (name, t) in &totals.by_name {
        lines.push(format!(
            "  {:<28} {:>10} {:>12.3} {:>12.3} {:>8.4}",
            if *name == "task" {
                "task (unattributed)"
            } else {
                name
            },
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / task
        ));
    }
    lines.push(format!(
        "  ledger.coverage {:.4}",
        get(m, "ledger.coverage")
    ));
    lines.push(format!(
        "  trace.overhead  {:+.4}",
        get(m, "trace.overhead")
    ));
    let ratio = |a: &str, b: &str| get(m, a) / get(m, b);
    lines.push("  N=2->3 cliff        measured    fpan gates   fpan depth".to_string());
    lines.push(format!(
        "    core.mul ns        {:>8.2}x   {:>8.2}x   {:>8.2}x",
        ratio("core.mul.ns_n3", "core.mul.ns_n2"),
        ratio("fpan.mul3.gates", "fpan.mul2.gates"),
        ratio("fpan.mul3.depth", "fpan.mul2.depth"),
    ));
    lines.push(format!(
        "    core.add ns        {:>8.2}x   {:>8.2}x   {:>8.2}x",
        ratio("core.add.ns_n3", "core.add.ns_n2"),
        ratio("fpan.add3.gates", "fpan.add2.gates"),
        ratio("fpan.add3.depth", "fpan.add2.depth"),
    ));
    let gates =
        |n: u32| get(m, &format!("fpan.add{n}.gates")) + get(m, &format!("fpan.mul{n}.gates"));
    let depth =
        |n: u32| get(m, &format!("fpan.add{n}.depth")) + get(m, &format!("fpan.mul{n}.depth"));
    lines.push(format!(
        "    kernels.dot 1/gops {:>8.2}x   {:>8.2}x   {:>8.2}x   (add+mul)",
        ratio("blas.kernels.dot.gops_n2", "blas.kernels.dot.gops_n3"),
        gates(3) / gates(2),
        depth(3) / depth(2),
    ));
    lines.push(format!(
        "    soa.dot 1/gops     {:>8.2}x",
        ratio("blas.soa.dot.gops_n2", "blas.soa.dot.gops_n3"),
    ));
    lines
}
