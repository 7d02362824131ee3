//! Parallel dispatch trend gauge (DESIGN.md §9).
//!
//! Measures parallel AXPY and DOT over `MultiFloat<f64, 2>` at
//! n ∈ {128, 1024, 16384} on the persistent worker pool and records the
//! history kernels `AXPY/128/mf/pool`, `DOT/16384/mf/pool`, ... for the
//! trend pipeline. Small-n rows are dominated by dispatch latency, which is
//! what the pool amortizes; large-n rows check that the shared-cursor
//! protocol costs nothing when the kernel dominates.
//!
//! Usage:
//!   cargo run --release -p mf-bench --bin pardispatch -- \
//!       [--threads <n>] [--manifest <json>] [--trace <json>]

use mf_bench::history;
use mf_bench::workloads::rand_f64s;
use mf_bench::{cli, measure_gops_detailed, sink, RunManifest};
use mf_blas::parallel;
use mf_core::F64x2;
use std::time::Instant;

const USAGE: &str = "[--threads <n>] [--manifest <json>] [--trace <json>] [--profile <folded>]";
const SIZES: [usize; 3] = [128, 1024, 16384];

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let mut threads = parallel::default_threads().max(2);
    let mut manifest_path = String::from("results/manifest_pardispatch.json");
    let mut trace_flag: Option<String> = None;
    let mut profile_flag: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let v = cli::flag_value(&args, i, "pardispatch", USAGE);
                match v.parse::<usize>() {
                    Ok(n) if n >= 2 => threads = n,
                    _ => cli::usage_error(
                        "pardispatch",
                        USAGE,
                        &format!("--threads must be an integer >= 2, got '{v}'"),
                    ),
                }
                i += 2;
            }
            "--manifest" => {
                manifest_path = cli::flag_value(&args, i, "pardispatch", USAGE).to_string();
                i += 2;
            }
            "--trace" => {
                trace_flag = Some(cli::flag_value(&args, i, "pardispatch", USAGE).to_string());
                i += 2;
            }
            "--profile" => {
                profile_flag = Some(cli::flag_value(&args, i, "pardispatch", USAGE).to_string());
                i += 2;
            }
            other => cli::usage_error("pardispatch", USAGE, &format!("unknown argument '{other}'")),
        }
    }
    let trace = cli::trace_path(trace_flag);
    cli::trace_arm(&trace);
    let profile = cli::profile_path(profile_flag);
    cli::profile_arm(&profile);
    cli::metrics_init();

    // Size the pool like the dispatch: MF_BLAS_THREADS wins if the caller
    // set it, otherwise match --threads.
    if std::env::var("MF_BLAS_THREADS").is_err() {
        std::env::set_var("MF_BLAS_THREADS", threads.to_string());
    }
    let min_secs = if mf_bench::quick_mode() { 0.02 } else { 0.2 };

    for &n in &SIZES {
        let alpha = F64x2::from(1.000000321);
        let x: Vec<F64x2> = rand_f64s(1, n).into_iter().map(F64x2::from).collect();
        let mut y: Vec<F64x2> = rand_f64s(2, n).into_iter().map(F64x2::from).collect();

        let m = measure_gops_detailed(n as f64, min_secs, || {
            parallel::axpy(alpha, &x, &mut y, threads);
            sink(y[0]);
        });
        history::record_measurement(&format!("AXPY/{n}/mf/pool"), &m);
        eprintln!("AXPY n={n:>5} pool {:>9.4} Gop/s", m.gops);

        let m = measure_gops_detailed(n as f64, min_secs, || {
            sink(parallel::dot(&x, &y, threads));
        });
        history::record_measurement(&format!("DOT/{n}/mf/pool"), &m);
        eprintln!("DOT  n={n:>5} pool {:>9.4} Gop/s", m.gops);
    }

    let platform = {
        let label = history::platform_label();
        if label.is_empty() {
            format!("pardispatch ({threads} threads)")
        } else {
            format!("{label} ({threads} threads)")
        }
    };
    let manifest = RunManifest::collect("pardispatch", "default", threads, started);
    cli::write_manifest(&manifest, &manifest_path);
    history::append_run("pardispatch", &platform);
    cli::trace_finish(&trace);
    cli::profile_finish(&profile);
}
