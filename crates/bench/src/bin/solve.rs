//! SoA-vs-AoS GEMM, the `f64` solver kernels and mixed-precision
//! iterative-refinement benchmarks (DESIGN.md §10).
//!
//! Three workloads:
//!
//! 1. `MultiFloat<f64, 2>` GEMM at n ∈ {64, 256}: the row-parallel AoS
//!    path (`parallel::gemm`, kernel `flat`) against the row-parallel SoA
//!    path (`tile::gemm_tiled`, kernel `tile`: one row range per thread
//!    through `soa::gemm_rows`). Both split rows the same way; they differ
//!    in layout and inner loop. History kernels `GEMM/<n>/mf/flat` and
//!    `GEMM/<n>/mf/tile` feed the trend gate; the two variants are also
//!    compared *in-process* with the bootstrap machinery (AoS as
//!    baseline, SoA as current — an `improvement` verdict means the SoA
//!    GEMM is confidently faster at that size).
//! 2. Mixed-precision iterative refinement on the n = 64 Hilbert system:
//!    fixed-step `mf_solve::refine_with_factors` with `F64x2` and `F64x4`
//!    residuals (`IR/hilbert64/x2`, `IR/hilbert64/x4`) — the O(n²)
//!    extended-precision residual sweep is the part the paper's kernels
//!    accelerate, so its cost per step is what the history tracks.
//! 3. The `f64` half of refinement at n = 256 on a random matrix:
//!    `mf_solve::lu_factor` (`LU/256/f64`, the blocked register-tiled
//!    factorization, `2n³/3` flops) and one `LuFactors::solve` from its
//!    factors (`TRSV/256/f64`: permute, forward and back substitution,
//!    `2n²` flops). Their rates are Gflop/s.
//!
//! Usage:
//!   cargo run --release -p mf-bench --bin solve -- \
//!       [--threads <n>] [--manifest <json>] [--trace <json>]

use mf_bench::history::{self, HistoryRecord, KernelEntry};
use mf_bench::workloads::rand_f64s;
use mf_bench::{cli, measure_gops_detailed, sink, trend, GopsMeasurement, RunManifest};
use mf_blas::soa::SoaMatrix;
use mf_blas::{parallel, tile, Matrix};
use mf_core::F64x2;
use mf_solve::{hilbert, lu_factor, refine::refine_with_factors, MatrixF64, RefineOptions};
use std::time::Instant;

const USAGE: &str = "[--threads <n>] [--manifest <json>] [--trace <json>] [--profile <folded>]";
const GEMM_SIZES: [usize; 2] = [64, 256];
const IR_N: usize = 64;
/// Fixed refinement steps per timed call (tol 0 disables the convergence
/// early-out so every iteration does identical work).
const IR_STEPS: usize = 2;
/// Order of the `f64` LU and triangular-solve kernels.
const F64_N: usize = 256;

/// Gop/s samples (ops per ns), the same conversion
/// `history::record_measurement` applies.
fn gops_samples(m: &GopsMeasurement) -> Vec<f64> {
    m.iter_ns
        .iter()
        .filter(|&&ns| ns > 0.0)
        .map(|&ns| m.ops_per_iter / ns)
        .collect()
}

/// A comparison-side kernel entry (no sketch quantiles — only the sample
/// pool feeds the bootstrap).
fn entry(name: &str, samples: Vec<f64>, repeats: u64) -> KernelEntry {
    KernelEntry {
        name: name.into(),
        unit: "gops".into(),
        median: history::median(&samples),
        p50_ns: 0,
        p90_ns: 0,
        p99_ns: 0,
        repeats,
        samples,
    }
}

/// Wrap per-variant entries in a synthetic single-record history so
/// [`trend::analyze`] can bootstrap CIs on the tile/flat delta.
fn wrap(rev: &str, kernels: Vec<KernelEntry>) -> Vec<HistoryRecord> {
    vec![HistoryRecord {
        tool: "solve".into(),
        git_rev: rev.into(),
        platform: "in-process".into(),
        features: history::active_features(),
        quick: mf_bench::quick_mode(),
        unix_secs: 0,
        kernels,
    }]
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let mut threads = parallel::default_threads().max(2);
    let mut manifest_path = String::from("results/manifest_solve.json");
    let mut trace_flag: Option<String> = None;
    let mut profile_flag: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let v = cli::flag_value(&args, i, "solve", USAGE);
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = n,
                    _ => cli::usage_error(
                        "solve",
                        USAGE,
                        &format!("--threads must be a positive integer, got '{v}'"),
                    ),
                }
                i += 2;
            }
            "--manifest" => {
                manifest_path = cli::flag_value(&args, i, "solve", USAGE).to_string();
                i += 2;
            }
            "--trace" => {
                trace_flag = Some(cli::flag_value(&args, i, "solve", USAGE).to_string());
                i += 2;
            }
            "--profile" => {
                profile_flag = Some(cli::flag_value(&args, i, "solve", USAGE).to_string());
                i += 2;
            }
            other => cli::usage_error("solve", USAGE, &format!("unknown argument '{other}'")),
        }
    }
    let trace = cli::trace_path(trace_flag);
    cli::trace_arm(&trace);
    let profile = cli::profile_path(profile_flag);
    cli::profile_arm(&profile);
    cli::metrics_init();

    if std::env::var("MF_BLAS_THREADS").is_err() {
        std::env::set_var("MF_BLAS_THREADS", threads.to_string());
    }
    let min_secs = if mf_bench::quick_mode() { 0.02 } else { 0.2 };

    let mut flat_entries: Vec<KernelEntry> = Vec::new();
    let mut tile_entries: Vec<KernelEntry> = Vec::new();

    for &n in &GEMM_SIZES {
        let ops = (n * n * n) as f64; // paper convention: one mf-op per MAC
        let alpha = F64x2::from(1.000000321);
        let beta = F64x2::from(0.999999712);
        let va = rand_f64s(11, n * n);
        let vb = rand_f64s(12, n * n);

        // flat: row-parallel AoS GEMM.
        let a = Matrix {
            rows: n,
            cols: n,
            data: va.iter().map(|&v| F64x2::from(v)).collect(),
        };
        let b = Matrix {
            rows: n,
            cols: n,
            data: vb.iter().map(|&v| F64x2::from(v)).collect(),
        };
        let mut c = Matrix {
            rows: n,
            cols: n,
            data: vec![F64x2::ZERO; n * n],
        };
        let m = measure_gops_detailed(ops, min_secs, || {
            parallel::gemm(alpha, &a, &b, beta, &mut c, threads);
            sink(c.data[0]);
        });
        history::record_measurement(&format!("GEMM/{n}/mf/flat"), &m);
        eprintln!("GEMM n={n:>4} flat {:>9.4} Gop/s", m.gops);
        flat_entries.push(entry(&format!("GEMM/{n}"), gops_samples(&m), m.iters));

        // tile: row-parallel SoA GEMM.
        let sa = SoaMatrix::<f64, 2>::from_fn(n, n, |i, j| F64x2::from(va[i * n + j]));
        let sb = SoaMatrix::<f64, 2>::from_fn(n, n, |i, j| F64x2::from(vb[i * n + j]));
        let mut sc = SoaMatrix::<f64, 2>::zeros(n, n);
        let m = measure_gops_detailed(ops, min_secs, || {
            tile::gemm_tiled(alpha, &sa, &sb, beta, &mut sc, threads);
            sink(sc.comps[0][0]);
        });
        history::record_measurement(&format!("GEMM/{n}/mf/tile"), &m);
        eprintln!("GEMM n={n:>4} tile {:>9.4} Gop/s", m.gops);
        tile_entries.push(entry(&format!("GEMM/{n}"), gops_samples(&m), m.iters));
    }

    // Mixed-precision refinement: factor once, time the fixed-step
    // refinement loop (IR_STEPS corrections + the final residual, each an
    // O(n²) extended-precision sweep).
    let h = hilbert(IR_N);
    let factors = lu_factor(&h).expect("Hilbert matrix is nonsingular in f64");
    let bvec = rand_f64s(13, IR_N);
    let opts = RefineOptions {
        max_iters: IR_STEPS,
        tol_factor: 0.0,
    };
    let ir_ops = ((IR_STEPS + 1) * IR_N * IR_N) as f64;
    for (label, nn) in [("x2", 2usize), ("x4", 4)] {
        let m = measure_gops_detailed(ir_ops, min_secs, || {
            let x0 = match nn {
                2 => {
                    refine_with_factors::<2>(&h, &factors, &bvec, opts)
                        .unwrap()
                        .x[0]
                }
                _ => {
                    refine_with_factors::<4>(&h, &factors, &bvec, opts)
                        .unwrap()
                        .x[0]
                }
            };
            sink(x0);
        });
        history::record_measurement(&format!("IR/hilbert{IR_N}/{label}"), &m);
        eprintln!("IR   n={IR_N:>4} {label:<4} {:>9.4} Gop/s", m.gops);
    }

    // The `f64` half: factor a random (almost surely nonsingular) matrix,
    // then solve from its factors.
    let n = F64_N;
    let va = rand_f64s(14, n * n);
    let a = MatrixF64::from_fn(n, n, |i, j| va[i * n + j]);
    let lu_ops = 2.0 * (n * n * n) as f64 / 3.0;
    let m = measure_gops_detailed(lu_ops, min_secs, || {
        sink(lu_factor(&a).expect("random matrix is nonsingular").lu.data[0]);
    });
    history::record_measurement(&format!("LU/{n}/f64"), &m);
    eprintln!("LU   n={n:>4} f64  {:>9.4} Gflop/s", m.gops);
    let factors = lu_factor(&a).expect("random matrix is nonsingular");
    let bvec = rand_f64s(15, n);
    let m = measure_gops_detailed((2 * n * n) as f64, min_secs, || {
        sink(factors.solve(&bvec)[0]);
    });
    history::record_measurement(&format!("TRSV/{n}/f64"), &m);
    eprintln!("TRSV n={n:>4} f64  {:>9.4} Gflop/s", m.gops);

    // In-process ablation verdicts: AoS (`flat`) is the baseline, SoA
    // (`tile`) the current side, so `improvement` == SoA confidently faster.
    let cfg = trend::TrendConfig::default();
    let trends = trend::analyze(
        &wrap("flat", flat_entries),
        &wrap("tile", tile_entries),
        &cfg,
    );
    println!("\nRow-parallel SoA vs AoS GEMM ({threads} threads; positive change = SoA faster)");
    print!("{}", trend::render_table(&trends));

    let platform = {
        let label = history::platform_label();
        if label.is_empty() {
            format!("solve ({threads} threads)")
        } else {
            format!("{label} ({threads} threads)")
        }
    };
    let manifest = RunManifest::collect("solve", "default", threads, started);
    cli::write_manifest(&manifest, &manifest_path);
    history::append_run("solve", &platform);
    cli::trace_finish(&trace);
    cli::profile_finish(&profile);
}
