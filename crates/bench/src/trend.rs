//! Benchmark trend analysis: robust change detection between a committed
//! baseline and fresh history records (tentpole b; the `trend` binary is a
//! thin wrapper over [`run`]).
//!
//! For every kernel the *current* records measured, the analyzer
//!
//! 1. pools the per-repeat samples from baseline and current records,
//! 2. bootstraps a confidence interval on the relative median change
//!    (resampling both pools, [`TrendConfig::boot_iters`] times),
//! 3. estimates a noise floor from repeated same-revision records (two
//!    runs of the same commit should agree; their spread is measurement
//!    noise, not signal), and
//! 4. flags a regression only when the whole confidence interval sits
//!    beyond `max(threshold, noise_mult * noise)` on the bad side.
//!
//! Change signs are normalized so **negative is always worse**: for
//! `gops` entries a drop in throughput, for `ms` entries a rise in wall
//! time.

use crate::history::{self, HistoryRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// Minimum relative change considered meaningful (default 5%).
    pub threshold: f64,
    /// Noise-floor multiplier: effective threshold is
    /// `max(threshold, noise_mult * noise)`.
    pub noise_mult: f64,
    /// Bootstrap resamples per kernel.
    pub boot_iters: usize,
    /// Bootstrap RNG seed (fixed: the gate must be reproducible).
    pub seed: u64,
    /// Minimum pooled samples per side for a verdict.
    pub min_samples: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            threshold: 0.05,
            noise_mult: 2.0,
            boot_iters: 300,
            seed: 0x7e4d_11e5,
            min_samples: 3,
        }
    }
}

/// Per-kernel verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Confidently worse than baseline beyond the effective threshold.
    Regression,
    /// Confidently better than baseline beyond the effective threshold.
    Improvement,
    /// Within noise / threshold.
    NoChange,
    /// Too few samples (or no baseline) to judge.
    Insufficient,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::NoChange => "no change",
            Verdict::Insufficient => "insufficient",
        }
    }
}

/// One row of the trend table.
#[derive(Debug, Clone)]
pub struct KernelTrend {
    pub name: String,
    pub unit: String,
    pub baseline_median: f64,
    pub current_median: f64,
    /// Relative median change, sign-normalized so negative is worse.
    pub change: f64,
    /// 95% bootstrap confidence interval on `change`.
    pub ci_lo: f64,
    pub ci_hi: f64,
    /// Same-revision relative noise estimate.
    pub noise: f64,
    /// `max(threshold, noise_mult * noise)`.
    pub effective_threshold: f64,
    /// Pooled baseline samples for this kernel (0 = the baseline has never
    /// measured it — e.g. a newly added per-variant kernel name — which the
    /// gate reports as a data error with a refresh hint, not silence).
    pub baseline_samples: usize,
    pub verdict: Verdict,
}

/// All samples for `name` pooled across `records`, plus the unit.
fn pooled(records: &[HistoryRecord], name: &str) -> (Vec<f64>, Option<String>) {
    let mut samples = Vec::new();
    let mut unit = None;
    for r in records {
        for k in r.kernels.iter().filter(|k| k.name == name) {
            samples.extend(k.samples.iter().copied().filter(|s| s.is_finite()));
            unit.get_or_insert_with(|| k.unit.clone());
        }
    }
    (samples, unit)
}

/// Relative spread of same-revision medians: for every revision with two
/// or more records of `name`, `(max - min) / midpoint` of the per-record
/// medians; the noise estimate is the largest such spread, halved (the
/// +/- excursion around the midpoint).
fn noise_floor(records: &[HistoryRecord], name: &str) -> f64 {
    let mut by_rev: Vec<(&str, Vec<f64>)> = Vec::new();
    for r in records {
        for k in r.kernels.iter().filter(|k| k.name == name) {
            if !k.median.is_finite() || k.median == 0.0 {
                continue;
            }
            match by_rev.iter_mut().find(|(rev, _)| *rev == r.git_rev) {
                Some((_, v)) => v.push(k.median),
                None => by_rev.push((&r.git_rev, vec![k.median])),
            }
        }
    }
    let mut worst: f64 = 0.0;
    for (_, meds) in by_rev.iter().filter(|(_, m)| m.len() >= 2) {
        let max = meds.iter().cloned().fold(f64::MIN, f64::max);
        let min = meds.iter().cloned().fold(f64::MAX, f64::min);
        let mid = 0.5 * (max + min);
        if mid > 0.0 {
            worst = worst.max(0.5 * (max - min) / mid);
        }
    }
    worst
}

/// Bootstrap a 95% CI on the relative median change between two pools.
fn bootstrap_ci(base: &[f64], cur: &[f64], iters: usize, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(iters);
    let mut rb = vec![0.0; base.len()];
    let mut rc = vec![0.0; cur.len()];
    for _ in 0..iters {
        for s in rb.iter_mut() {
            *s = base[rng.gen_range(0..base.len())];
        }
        for s in rc.iter_mut() {
            *s = cur[rng.gen_range(0..cur.len())];
        }
        let mb = history::median(&rb);
        if mb != 0.0 {
            deltas.push((history::median(&rc) - mb) / mb);
        }
    }
    if deltas.is_empty() {
        return (0.0, 0.0);
    }
    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| deltas[((deltas.len() - 1) as f64 * q).round() as usize];
    (pick(0.025), pick(0.975))
}

/// Analyze every kernel the current records measured against the baseline.
pub fn analyze(
    baseline: &[HistoryRecord],
    current: &[HistoryRecord],
    cfg: &TrendConfig,
) -> Vec<KernelTrend> {
    // Kernel names in first-seen order from the current run.
    let mut names: Vec<String> = Vec::new();
    for r in current {
        for k in &r.kernels {
            if !names.contains(&k.name) {
                names.push(k.name.clone());
            }
        }
    }

    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let (cur, unit) = pooled(current, &name);
        let (base, _) = pooled(baseline, &name);
        let unit = unit.unwrap_or_else(|| "gops".into());
        let cur_med = history::median(&cur);
        let base_med = history::median(&base);

        // Noise pools same-rev repeats from both files: two clean runs of
        // this commit appended to fresh history raise the floor exactly
        // when they disagree.
        let mut all: Vec<HistoryRecord> = baseline.to_vec();
        all.extend(current.iter().cloned());
        let noise = noise_floor(&all, &name);
        let eff = cfg.threshold.max(cfg.noise_mult * noise);

        if base.len() < cfg.min_samples || cur.len() < cfg.min_samples || base_med == 0.0 {
            out.push(KernelTrend {
                name,
                unit,
                baseline_median: base_med,
                current_median: cur_med,
                change: 0.0,
                ci_lo: 0.0,
                ci_hi: 0.0,
                noise,
                effective_threshold: eff,
                baseline_samples: base.len(),
                verdict: Verdict::Insufficient,
            });
            continue;
        }

        // Sign normalization: for ms entries lower is better, so flip.
        let sign = if unit == "ms" { -1.0 } else { 1.0 };
        let change = sign * (cur_med - base_med) / base_med;
        let (lo_raw, hi_raw) = bootstrap_ci(&base, &cur, cfg.boot_iters, cfg.seed);
        let (ci_lo, ci_hi) = if sign < 0.0 {
            (-hi_raw, -lo_raw)
        } else {
            (lo_raw, hi_raw)
        };

        let verdict = if ci_hi < -eff {
            Verdict::Regression
        } else if ci_lo > eff {
            Verdict::Improvement
        } else {
            Verdict::NoChange
        };
        out.push(KernelTrend {
            name,
            unit,
            baseline_median: base_med,
            current_median: cur_med,
            change,
            ci_lo,
            ci_hi,
            noise,
            effective_threshold: eff,
            baseline_samples: base.len(),
            verdict,
        });
    }
    out
}

/// Render the per-kernel regression/improvement table.
pub fn render_table(trends: &[KernelTrend]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>10} {:>10} {:>8} {:>17} {:>7}  {}\n",
        "Kernel", "baseline", "current", "change", "95% CI", "floor", "verdict"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for t in trends {
        out.push_str(&format!(
            "{:<34} {:>10.4} {:>10.4} {:>7.1}% [{:>6.1}%,{:>6.1}%] {:>6.1}%  {}\n",
            t.name,
            t.baseline_median,
            t.current_median,
            t.change * 100.0,
            t.ci_lo * 100.0,
            t.ci_hi * 100.0,
            t.effective_threshold * 100.0,
            t.verdict.label()
        ));
    }
    out
}

const USAGE: &str =
    "[--history <jsonl>] [--baseline <jsonl>] [--threshold <frac>] [--min-samples <n>]";

/// The `trend` binary's whole behavior, unit-testable: parse flags, load
/// the baseline and the fresh history, print the table, and return the
/// exit code (0 quiet, 1 regression, 2 usage/data error — including
/// current kernels the baseline has never measured, reported with the
/// `scripts/refresh_baseline.sh` command that fixes it).
pub fn run(args: &[String]) -> i32 {
    let mut cfg = TrendConfig::default();
    let mut history_path =
        history::default_path().unwrap_or_else(|| "results/history/bench_history.jsonl".into());
    let mut baseline_path = std::path::PathBuf::from("results/history/baseline.jsonl");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--history" => {
                history_path = crate::cli::flag_value(args, i, "trend", USAGE).into();
                i += 2;
            }
            "--baseline" => {
                baseline_path = crate::cli::flag_value(args, i, "trend", USAGE).into();
                i += 2;
            }
            "--threshold" => {
                let v = crate::cli::flag_value(args, i, "trend", USAGE);
                match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t.is_finite() => cfg.threshold = t,
                    _ => crate::cli::usage_error(
                        "trend",
                        USAGE,
                        &format!("--threshold must be a positive fraction, got '{v}'"),
                    ),
                }
                i += 2;
            }
            "--min-samples" => {
                let v = crate::cli::flag_value(args, i, "trend", USAGE);
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cfg.min_samples = n,
                    _ => crate::cli::usage_error(
                        "trend",
                        USAGE,
                        &format!("--min-samples must be a positive integer, got '{v}'"),
                    ),
                }
                i += 2;
            }
            other => {
                crate::cli::usage_error("trend", USAGE, &format!("unknown argument '{other}'"))
            }
        }
    }
    run_on_files(&baseline_path, &history_path, &cfg)
}

/// [`run`] after flag parsing (the testable core).
pub fn run_on_files(baseline_path: &Path, history_path: &Path, cfg: &TrendConfig) -> i32 {
    let baseline = history::load(baseline_path);
    let current = history::load(history_path);
    if baseline.is_empty() {
        eprintln!(
            "trend: error: no baseline records in {} (commit one with a quick bench run)",
            baseline_path.display()
        );
        return 2;
    }
    if current.is_empty() {
        eprintln!(
            "trend: error: no fresh history records in {} (run a bench binary first)",
            history_path.display()
        );
        return 2;
    }
    let trends = analyze(&baseline, &current, cfg);
    println!(
        "Benchmark trend: {} fresh record(s) vs {} baseline record(s)",
        current.len(),
        baseline.len()
    );
    print!("{}", render_table(&trends));
    let regressions: Vec<&KernelTrend> = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Regression)
        .collect();
    let improved = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Improvement)
        .count();
    // Kernels the baseline has never measured (e.g. freshly added
    // per-variant names like AXPY/128/mf/pool) make the gate blind to
    // them; that is a data error (exit 2), not a quiet pass — but a
    // confident regression elsewhere still takes precedence below.
    let unbaselined: Vec<&KernelTrend> = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Insufficient && t.baseline_samples == 0)
        .collect();
    if regressions.is_empty() {
        if !unbaselined.is_empty() {
            println!(
                "\n{} kernel(s) missing from the baseline:",
                unbaselined.len()
            );
            for t in &unbaselined {
                println!("  {}", t.name);
            }
            println!(
                "refresh it with:\n  scripts/refresh_baseline.sh {}",
                baseline_path.display()
            );
            return 2;
        }
        println!(
            "\nno regressions ({} kernels, {} improved)",
            trends.len(),
            improved
        );
        0
    } else {
        println!("\n{} kernel(s) REGRESSED:", regressions.len());
        for t in &regressions {
            println!(
                "  {}: {:+.1}% (CI [{:+.1}%, {:+.1}%], floor {:.1}%)",
                t.name,
                t.change * 100.0,
                t.ci_lo * 100.0,
                t.ci_hi * 100.0,
                t.effective_threshold * 100.0
            );
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::KernelEntry;

    /// A record with one `gops` kernel whose samples cluster tightly
    /// around `med` (relative jitter ~0.5%).
    fn rec(rev: &str, name: &str, med: f64) -> HistoryRecord {
        let samples: Vec<f64> = (0..24)
            .map(|i| med * (1.0 + 0.005 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect();
        HistoryRecord {
            tool: "tables".into(),
            git_rev: rev.into(),
            platform: "test".into(),
            features: vec![],
            quick: true,
            unix_secs: 1_700_000_000,
            kernels: vec![KernelEntry {
                name: name.into(),
                unit: "gops".into(),
                median: crate::history::median(&samples),
                p50_ns: 100,
                p90_ns: 120,
                p99_ns: 150,
                repeats: samples.len() as u64,
                samples,
            }],
        }
    }

    #[test]
    fn ten_percent_regression_is_flagged() {
        let baseline = vec![rec("aaaa", "AXPY/103", 2.0), rec("aaaa", "AXPY/103", 2.0)];
        let current = vec![rec("bbbb", "AXPY/103", 1.8)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].verdict, Verdict::Regression, "{:?}", trends[0]);
        assert!(trends[0].change < -0.08 && trends[0].change > -0.12);
        assert!(trends[0].ci_hi < -0.05, "CI must clear the threshold");
    }

    #[test]
    fn clean_same_rev_runs_stay_quiet() {
        let baseline = vec![rec("aaaa", "DOT/208", 1.5)];
        // Two fresh runs of the same revision, unchanged performance.
        let current = vec![rec("aaaa", "DOT/208", 1.5), rec("aaaa", "DOT/208", 1.503)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::NoChange, "{:?}", trends[0]);
    }

    #[test]
    fn improvement_is_reported_not_fatal() {
        let baseline = vec![rec("aaaa", "GEMM/103", 1.0)];
        let current = vec![rec("cccc", "GEMM/103", 1.25)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::Improvement);
        assert!(trends[0].change > 0.2);
    }

    #[test]
    fn noise_floor_suppresses_marginal_regression() {
        // Same-rev baseline repeats disagree by ~16% -> the floor rises to
        // ~16% and a 6% drop must not gate.
        let baseline = vec![rec("aaaa", "GEMV/156", 2.0), rec("aaaa", "GEMV/156", 1.7)];
        let current = vec![rec("dddd", "GEMV/156", 1.74)];
        let cfg = TrendConfig::default();
        let trends = analyze(&baseline, &current, &cfg);
        assert!(trends[0].noise > 0.05, "noise {:?}", trends[0].noise);
        assert!(trends[0].effective_threshold > cfg.threshold);
        assert_ne!(trends[0].verdict, Verdict::Regression, "{:?}", trends[0]);
    }

    #[test]
    fn ms_entries_regress_on_increase() {
        let mk = |rev: &str, ms: f64| {
            let mut r = rec(rev, "faultsim/wall_ms", ms);
            r.kernels[0].unit = "ms".into();
            r
        };
        let baseline = vec![mk("aaaa", 100.0)];
        let slower = vec![mk("bbbb", 130.0)];
        let faster = vec![mk("bbbb", 80.0)];
        let cfg = TrendConfig::default();
        assert_eq!(
            analyze(&baseline, &slower, &cfg)[0].verdict,
            Verdict::Regression
        );
        assert_eq!(
            analyze(&baseline, &faster, &cfg)[0].verdict,
            Verdict::Improvement
        );
    }

    #[test]
    fn missing_baseline_kernel_is_insufficient() {
        let baseline = vec![rec("aaaa", "AXPY/103", 2.0)];
        let current = vec![rec("bbbb", "NEW/kernel", 1.0)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::Insufficient);
        // Distinguishable from "measured but too few samples": the gate
        // turns this into exit 2 with a refresh hint.
        assert_eq!(trends[0].baseline_samples, 0);
    }

    #[test]
    fn run_on_files_exit_codes() {
        let dir = std::env::temp_dir().join("mf_trend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base_p = dir.join("baseline.jsonl");
        let hist_p = dir.join("history.jsonl");
        let cfg = TrendConfig::default();

        let write = |p: &std::path::Path, recs: &[HistoryRecord]| {
            let mut text = String::new();
            for r in recs {
                text.push_str(&r.to_json().render());
                text.push('\n');
            }
            std::fs::write(p, text).unwrap();
        };

        // Synthetic 10% regression in the fresh history -> exit 1.
        write(&base_p, &[rec("aaaa", "AXPY/103", 2.0)]);
        write(&hist_p, &[rec("bbbb", "AXPY/103", 1.8)]);
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 1);

        // Two clean same-rev runs -> exit 0.
        write(
            &hist_p,
            &[rec("aaaa", "AXPY/103", 2.0), rec("aaaa", "AXPY/103", 2.002)],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 0);

        // A kernel only the baseline has (its path was removed, like the
        // scoped-spawn and AVX-512 rows) is skipped, not an error -> exit 0.
        write(
            &base_p,
            &[
                rec("aaaa", "AXPY/103", 2.0),
                rec("aaaa", "AXPY/128/mf/scoped", 0.01),
            ],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 0);
        write(&base_p, &[rec("aaaa", "AXPY/103", 2.0)]);

        // A fresh kernel the baseline never measured -> exit 2 (stale
        // baseline is a data error, fixed by refreshing it).
        write(
            &hist_p,
            &[
                rec("aaaa", "AXPY/103", 2.0),
                rec("aaaa", "AXPY/128/mf/pool", 3.0),
            ],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 2);

        // ...but a confident regression still wins over the stale entry.
        write(
            &hist_p,
            &[
                rec("bbbb", "AXPY/103", 1.8),
                rec("bbbb", "AXPY/128/mf/pool", 3.0),
            ],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 1);

        // Missing files -> exit 2.
        assert_eq!(run_on_files(&dir.join("nope.jsonl"), &hist_p, &cfg), 2);
        assert_eq!(run_on_files(&base_p, &dir.join("nope.jsonl"), &cfg), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
