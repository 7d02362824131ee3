//! Explicit-SIMD ISA ablation (ISSUE 10; DESIGN.md "Explicit SIMD").
//!
//! Measures `soa::dot` and `soa::axpy` over `MultiFloat<f64, 2>` at every
//! ISA realization this host can run (`mf_blas::simd::force`), and records
//! per-ISA history kernels (`DOT/16384/mf/simd-avx2`,
//! `AXPY/16384/mf/simd-scalar`, ...) for the trend pipeline. `DOT/*` rows
//! time the lock-step DOT on each realization's lane type. `AXPY/*` rows
//! time the one element-wise AXPY body with the AVX2+FMA frame on
//! (`simd-avx2`) or off (`simd-scalar`, soft-float `mul_add`); AXPY has no
//! explicit lanes. The scalar rows double as the no-FMA-frame,
//! no-explicit-SIMD baseline of the EXPERIMENTS ablation.
//!
//! After measuring, scalar (baseline) and avx2 (current) are compared
//! *in-process* with the same bootstrap machinery the `trend` gate uses:
//! an `improvement` verdict means the avx2 selection (explicit lanes for
//! DOT, the FMA frame for both) is confidently faster at that size.
//!
//! `--dump <path>` skips measurement: it runs a fixed seeded workload
//! through the *env-selected* realization (`MF_SIMD`) across every
//! dispatched kernel shape (dot/axpy/gemv/gemm/gemm-tiled, N ∈ {2,3,4},
//! odd tails included; the AoS `parallel::{dot,gemv}` at threads 1 and 2,
//! `dot_adaptive`/`gemv_adaptive` at N = 2, and `tile::gemm_tiled` at
//! threads 1, 2 and 3, so the threaded private-buffer row ranges are
//! covered too) and writes the result bits
//! as hex lines. The
//! forced-ISA CI matrix `cmp`s dumps across `MF_SIMD` values: any
//! realization-dependent bit is a hard diff, with the file as artifact.
//!
//! Usage:
//!   cargo run --release -p mf-bench --bin simd -- \
//!       [--manifest <json>] [--trace <json>] [--profile <folded>] \
//!       [--dump <path>]

use mf_bench::history::{self, HistoryRecord, KernelEntry};
use mf_bench::workloads::rand_f64s;
use mf_bench::{cli, measure_gops_detailed, sink, trend, GopsMeasurement, RunManifest};
use mf_blas::adaptive::{self, ADAPTIVE_CHUNK};
use mf_blas::simd::{self, Isa};
use mf_blas::soa::{self, SoaMatrix, SoaVec};
use mf_blas::{parallel, tile, Matrix};
use mf_core::{EscalationPolicy, F64x2, MultiFloat};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "[--manifest <json>] [--trace <json>] [--profile <folded>] [--dump <path>]";
const SIZES: [usize; 2] = [1024, 16384];

fn gops_samples(m: &GopsMeasurement) -> Vec<f64> {
    m.iter_ns
        .iter()
        .filter(|&&ns| ns > 0.0)
        .map(|&ns| m.ops_per_iter / ns)
        .collect()
}

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

fn wrap(rev: &str, kernels: Vec<KernelEntry>) -> Vec<HistoryRecord> {
    vec![HistoryRecord {
        tool: "simd".into(),
        git_rev: rev.into(),
        platform: "in-process".into(),
        features: history::active_features(),
        quick: mf_bench::quick_mode(),
        unix_secs: 0,
        kernels,
    }]
}

fn soa_from_seed<const N: usize>(seed: u64, n: usize) -> SoaVec<f64, N> {
    let vals: Vec<MultiFloat<f64, N>> = rand_f64s(seed, n)
        .into_iter()
        .map(MultiFloat::from)
        .collect();
    SoaVec::from_slice(&vals)
}

/// Append one result expansion as a `name = hex...` line.
fn dump_mf<const N: usize>(out: &mut String, name: &str, v: MultiFloat<f64, N>) {
    write!(out, "{name} =").unwrap();
    for c in v.components() {
        write!(out, " {:016x}", c.to_bits()).unwrap();
    }
    out.push('\n');
}

/// Deterministic bit-dump of every dispatched kernel shape under the
/// realization `MF_SIMD` selected for this process.
fn dump_bits(path: &str) {
    let mut out = String::new();
    writeln!(
        out,
        "# simd kernel bit dump (lane-structure fixed; ISA-independent by contract)"
    )
    .unwrap();

    fn dump_n<const N: usize>(out: &mut String) {
        // Odd length: full lane blocks plus a tail shorter than the width.
        let n = 4 * simd::LANES + 3;
        let x = soa_from_seed::<N>(11 + N as u64, n);
        let mut y = soa_from_seed::<N>(23 + N as u64, n);
        let alpha = MultiFloat::<f64, N>::from(1.0000004271);
        dump_mf(out, &format!("dot/n{N}"), soa::dot(&x, &y));
        soa::axpy(alpha, &x, &mut y);
        for i in [0usize, 1, n / 2, n - 2, n - 1] {
            dump_mf(out, &format!("axpy/n{N}/{i}"), y.get(i));
        }
    }
    dump_n::<2>(&mut out);
    dump_n::<3>(&mut out);
    dump_n::<4>(&mut out);

    // The AoS entry points that run the lock-step DOT in place.
    fn dump_aos<const N: usize>(out: &mut String) {
        let n = 4 * simd::LANES + 3;
        let x = soa_from_seed::<N>(41 + N as u64, n).to_vec();
        let y = soa_from_seed::<N>(43 + N as u64, n).to_vec();
        let (m, k) = (5usize, 2 * simd::LANES + 1);
        let vals = rand_f64s(47 + N as u64, m * k);
        let a = Matrix {
            rows: m,
            cols: k,
            data: vals.into_iter().map(MultiFloat::<f64, N>::from).collect(),
        };
        let xv = soa_from_seed::<N>(53 + N as u64, k).to_vec();
        let y0 = soa_from_seed::<N>(59 + N as u64, m).to_vec();
        let alpha = MultiFloat::<f64, N>::from(0.75);
        let beta = MultiFloat::<f64, N>::from(-1.25);
        for threads in [1usize, 2] {
            let d = parallel::dot(&x, &y, threads);
            dump_mf(out, &format!("par-dot/n{N}/t{threads}"), d);
            let mut yv = y0.clone();
            parallel::gemv(alpha, &a, &xv, beta, &mut yv, threads);
            for (i, v) in yv.iter().enumerate() {
                dump_mf(out, &format!("par-gemv/n{N}/t{threads}/{i}"), *v);
            }
        }
    }
    dump_aos::<2>(&mut out);
    dump_aos::<3>(&mut out);
    dump_aos::<4>(&mut out);

    // Adaptive entry points at N = 2: several chunks, the last one short.
    let policy = EscalationPolicy::default();
    let n = 2 * ADAPTIVE_CHUNK + 45;
    let x = soa_from_seed::<2>(61, n).to_vec();
    let y = soa_from_seed::<2>(67, n).to_vec();
    let vals = rand_f64s(71, 3 * n);
    let a = Matrix {
        rows: 3,
        cols: n,
        data: vals.into_iter().map(F64x2::from).collect(),
    };
    for threads in [1usize, 2] {
        let (d, _) = adaptive::dot_adaptive(&x, &y, &policy, threads);
        dump_mf(&mut out, &format!("dot-adaptive/t{threads}"), d);
        let (g, _) = adaptive::gemv_adaptive(&a, &x, &policy, threads);
        for (i, v) in g.iter().enumerate() {
            dump_mf(&mut out, &format!("gemv-adaptive/t{threads}/{i}"), *v);
        }
    }

    // Matrix shapes with non-multiple-of-lane dims.
    let (m, k, p) = (9usize, 13, 7);
    let a = SoaMatrix::<f64, 2>::from_fn(m, k, |i, j| F64x2::from(((i * k + j) as f64).sin()));
    let b =
        SoaMatrix::<f64, 2>::from_fn(k, p, |i, j| F64x2::from(((i * p + j) as f64 + 0.5).cos()));
    let alpha = F64x2::from(0.75);
    let beta = F64x2::from(-1.25);
    let xv = soa_from_seed::<2>(31, k);
    let mut yv = soa_from_seed::<2>(37, m);
    soa::gemv(alpha, &a, &xv, beta, &mut yv);
    for i in 0..m {
        dump_mf(&mut out, &format!("gemv/{i}"), yv.get(i));
    }
    let c0 = SoaMatrix::<f64, 2>::from_fn(m, p, |i, j| F64x2::from((i + 2 * j) as f64 * 0.125));
    let mut c = c0.clone();
    soa::gemm(alpha, &a, &b, beta, &mut c);
    let mut ct = c0.clone();
    tile::gemm_tiled(alpha, &a, &b, beta, &mut ct, 1);
    for i in 0..m {
        for j in 0..p {
            dump_mf(&mut out, &format!("gemm/{i}/{j}"), c.get(i, j));
            dump_mf(&mut out, &format!("gemm-tiled/{i}/{j}"), ct.get(i, j));
        }
    }
    // The threaded tiled GEMM: each row range runs into a private buffer.
    for threads in [2usize, 3] {
        let mut ct = c0.clone();
        tile::gemm_tiled(alpha, &a, &b, beta, &mut ct, threads);
        for i in 0..m {
            for j in 0..p {
                dump_mf(
                    &mut out,
                    &format!("gemm-tiled/t{threads}/{i}/{j}"),
                    ct.get(i, j),
                );
            }
        }
    }

    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, &out).unwrap_or_else(|e| {
        eprintln!("simd: cannot write dump {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("simd: wrote bit dump for isa {} to {path}", simd::active());
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let mut manifest_path = String::from("results/manifest_simd.json");
    let mut trace_flag: Option<String> = None;
    let mut profile_flag: Option<String> = None;
    let mut dump_flag: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => {
                manifest_path = cli::flag_value(&args, i, "simd", USAGE).to_string();
                i += 2;
            }
            "--trace" => {
                trace_flag = Some(cli::flag_value(&args, i, "simd", USAGE).to_string());
                i += 2;
            }
            "--profile" => {
                profile_flag = Some(cli::flag_value(&args, i, "simd", USAGE).to_string());
                i += 2;
            }
            "--dump" => {
                dump_flag = Some(cli::flag_value(&args, i, "simd", USAGE).to_string());
                i += 2;
            }
            other => cli::usage_error("simd", USAGE, &format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = dump_flag {
        dump_bits(&path);
        return;
    }

    let trace = cli::trace_path(trace_flag);
    cli::trace_arm(&trace);
    let profile = cli::profile_path(profile_flag);
    cli::profile_arm(&profile);
    cli::metrics_init();

    let min_secs = if mf_bench::quick_mode() { 0.02 } else { 0.2 };
    let isas: Vec<Isa> = Isa::ALL.iter().copied().filter(|i| i.supported()).collect();

    let mut scalar_entries: Vec<KernelEntry> = Vec::new();
    let mut avx2_entries: Vec<KernelEntry> = Vec::new();

    for &n in &SIZES {
        let alpha = F64x2::from(1.000000321);
        let x = soa_from_seed::<2>(1, n);
        let y0 = soa_from_seed::<2>(2, n);

        for &isa in &isas {
            simd::force(isa);
            let mode = format!("simd-{isa}");

            let mut y = y0.clone();
            let m = measure_gops_detailed(n as f64, min_secs, || {
                soa::axpy(alpha, &x, &mut y);
                sink(y.comps[0][0]);
            });
            history::record_measurement(&format!("AXPY/{n}/mf/{mode}"), &m);
            eprintln!("AXPY n={n:>5} {mode:<12} {:>9.4} Gop/s", m.gops);
            let e = entry(&format!("AXPY/{n}"), gops_samples(&m), m.iters);
            match isa {
                Isa::Scalar => scalar_entries.push(e),
                Isa::Avx2 => avx2_entries.push(e),
                _ => {}
            }

            let m = measure_gops_detailed(n as f64, min_secs, || {
                sink(soa::dot(&x, &y0));
            });
            history::record_measurement(&format!("DOT/{n}/mf/{mode}"), &m);
            eprintln!("DOT  n={n:>5} {mode:<12} {:>9.4} Gop/s", m.gops);
            let e = entry(&format!("DOT/{n}"), gops_samples(&m), m.iters);
            match isa {
                Isa::Scalar => scalar_entries.push(e),
                Isa::Avx2 => avx2_entries.push(e),
                _ => {}
            }
        }
    }
    if !avx2_entries.is_empty() {
        let cfg = trend::TrendConfig::default();
        let trends = trend::analyze(
            &wrap("simd-scalar", scalar_entries),
            &wrap("simd-avx2", avx2_entries),
            &cfg,
        );
        println!(
            "\nMF_SIMD avx2 vs scalar: lock-step DOT lanes, AXPY FMA frame (positive change = avx2 faster)"
        );
        print!("{}", trend::render_table(&trends));
    } else {
        println!("\n(avx2 not supported on this host; no in-process ablation verdicts)");
    }

    let platform = {
        let label = history::platform_label();
        if label.is_empty() {
            "simd".to_string()
        } else {
            label
        }
    };
    let manifest = RunManifest::collect("simd", "default", 1, started);
    cli::write_manifest(&manifest, &manifest_path);
    history::append_run("simd", &platform);
    cli::trace_finish(&trace);
    cli::profile_finish(&profile);
}
