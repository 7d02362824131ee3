//! End-to-end and per-layer benchmark of the multifloats stack.
//!
//! ```text
//! perfbench --workload <refine|blas-n2|blas-wide> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! One process, one calling thread, closed loop: the next task starts when
//! the previous one returns. `--trace 0` times the workload and prints the
//! end-to-end metrics; `--trace 1` times it untraced, then again with the
//! benchmark's own spans around every library call, and prints the
//! per-layer metrics. Every task's output is checked outside its timing.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod blas;
mod check;
mod fingerprint;
mod layers;
mod refine;
mod spans;
mod stats;
mod sys;

use check::{Outcome, Tally};
use fingerprint::Fingerprint;
use mf_telemetry::json::Json;
use spans::{NameTotals, Recorder, Span};
use stats::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Tail percentile reported as `task_ms_p99`.
const P99: f64 = 0.99;
/// Where result sets and span dumps go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metric names and units (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("tasks_per_s", "1/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p99", "ms"),
    ("cpu_ms_per_task", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics a traced run reports, on every workload. A span
/// metric of a layer the workload never calls reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for op in ["add", "mul"] {
        for n in 2..=4 {
            v.push((format!("fpan.{op}{n}.gates"), "count"));
            v.push((format!("fpan.{op}{n}.depth"), "count"));
        }
    }
    for op in ["add", "mul"] {
        for n in 2..=4 {
            v.push((format!("core.{op}.ns_n{n}"), "ns"));
        }
    }
    for layer in ["kernels", "soa"] {
        for n in 2..=4 {
            v.push((format!("blas.{layer}.dot.gops_n{n}"), "Gop/s"));
        }
        v.push((format!("blas.{layer}.axpy.gops_n2"), "Gop/s"));
    }
    for e in blas::Entry::ALL {
        v.push((format!("{}.calls", e.span()), "count"));
        v.push((format!("{}.share", e.span()), "fraction"));
        v.push((format!("{}.gops", e.span()), "Gop/s"));
    }
    for (name, unit) in [
        ("blas.parallel.dispatch_us_p50", "us"),
        ("blas.parallel.cpu_util", "ratio"),
        ("blas.pool.workers", "count"),
        ("blas.adaptive.escalation_rate", "fraction"),
        ("solve.lu.calls", "count"),
        ("solve.lu.ms_p50", "ms"),
        ("solve.lu.share", "fraction"),
        ("solve.refine.calls", "count"),
        ("solve.refine.ms_p50", "ms"),
        ("solve.refine.share", "fraction"),
        ("solve.refine.iterations_mean", "count"),
        ("solve.refine.unconverged", "count"),
        ("solve.residual.us_p50", "us"),
        ("solve.trisolve.us_p50", "us"),
        ("solve.residual.share_est", "fraction"),
        ("ledger.coverage", "fraction"),
        ("trace.overhead", "fraction"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Span totals of a traced phase.
pub struct LayerTotals<'a> {
    pub spans: &'a [Span],
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Duration of all task spans.
    pub task_ns: u64,
    pub tasks: u64,
    /// Whole rounds the traced phase ran.
    pub rounds: usize,
}

impl LayerTotals<'_> {
    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// One workload: inputs generated from the seed, a fixed round of tasks,
/// and the checks and layer metrics that go with them.
pub trait Workload {
    /// The program's set-up: everything before the first timed task that a
    /// user of the library pays (pool start, ISA selection, packing inputs
    /// into library types). Repeatable.
    fn setup(&mut self);
    /// Run every distinct input once, untimed, and judge it by the oracle.
    fn verify_all(&mut self);
    /// Task slots of one round, in order.
    fn round(&self) -> Vec<u32>;
    /// Run one task; returns its wall time in ns (the library calls only)
    /// and the verdict on its output. With a recorder, wraps the calls in
    /// spans: a `task` span with one child per library call.
    fn task(&mut self, slot: u32, rec: Option<&mut Recorder>) -> (u64, Outcome);
    /// Run a task, corrupt its output and judge it like any other.
    fn negative_control(&mut self) -> Outcome;
    /// `count` operands of width `width` drawn like the workload's own,
    /// flattened component arrays.
    fn operands(&self, rng: &mut Rng, width: usize, count: usize) -> Vec<f64>;
    /// Metrics of the layers only this workload reaches.
    fn layer_metrics(&mut self, totals: &LayerTotals, out: &mut Vec<Metric>);
}

/// Tasks per measurement window: whole rounds are grouped until a window
/// holds at least this many. Throughput, p50 and CPU per task are medians
/// over windows, which keeps a burst of load from a neighbour on a shared
/// host out of the figures.
const WINDOW_TASKS: usize = 200;

struct Phase {
    lat_ns: Vec<u64>,
    tally: Tally,
    /// Per round: tasks run so far and process CPU time at its end.
    round_ends: Vec<(usize, u64)>,
    cpu0: u64,
}

/// One measurement window of whole rounds.
struct Window {
    tasks_per_s: f64,
    p50_ms: f64,
    cpu_ms_per_task: f64,
}

impl Phase {
    fn rounds(&self) -> usize {
        self.round_ends.len()
    }

    /// Median over windows of tasks over their summed wall time.
    fn tasks_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.windows().iter().map(|w| w.tasks_per_s).collect();
        stats::median(&rates)
    }

    /// Windows of whole rounds with at least [`WINDOW_TASKS`] tasks each;
    /// a phase too short for one is a single window.
    fn windows(&self) -> Vec<Window> {
        let window = |start: usize, end: usize, cpu_ns: u64| {
            let lat = &self.lat_ns[start..end];
            let mut ms: Vec<f64> = lat.iter().map(|&n| n as f64 / 1e6).collect();
            ms.sort_by(f64::total_cmp);
            let tasks = lat.len() as f64;
            Window {
                tasks_per_s: tasks / (lat.iter().sum::<u64>() as f64 / 1e9),
                p50_ms: stats::percentile(&ms, 0.5),
                cpu_ms_per_task: cpu_ns as f64 / 1e6 / tasks,
            }
        };
        let mut out = Vec::new();
        let (mut start, mut cpu_start) = (0, self.cpu0);
        for &(end, cpu) in &self.round_ends {
            if end - start >= WINDOW_TASKS {
                out.push(window(start, end, cpu - cpu_start));
                (start, cpu_start) = (end, cpu);
            }
        }
        if out.is_empty() {
            let &(end, cpu) = self.round_ends.last().expect("a phase runs one round");
            out.push(window(0, end, cpu - self.cpu0));
        }
        out
    }
}

/// Run whole rounds until `seconds` have passed and at least `min_tasks`
/// tasks have run (giving up on the count after four times `seconds`).
fn phase(
    w: &mut dyn Workload,
    seconds: f64,
    min_tasks: usize,
    mut rec: Option<&mut Recorder>,
) -> Phase {
    let order = w.round();
    let mut p = Phase {
        lat_ns: Vec::new(),
        tally: Tally::default(),
        round_ends: Vec::new(),
        cpu0: sys::process_cpu_ns(),
    };
    let t0 = Instant::now();
    loop {
        for &slot in &order {
            if let Some(r) = rec.as_deref_mut() {
                r.set_task(p.lat_ns.len() as u32);
            }
            let (ns, outcome) = w.task(slot, rec.as_deref_mut());
            p.lat_ns.push(ns);
            p.tally.record(outcome);
        }
        p.round_ends.push((p.lat_ns.len(), sys::process_cpu_ns()));
        let el = t0.elapsed().as_secs_f64();
        if (el >= seconds && p.lat_ns.len() >= min_tasks) || el >= 4.0 * seconds {
            break;
        }
    }
    p
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["refine", "blas-n2", "blas-wide"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be refine, blas-n2 or blas-wide (got `{}`)",
            a.workload
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", a.seconds));
    }
    Ok(a)
}

struct Report {
    fingerprint: Fingerprint,
    tally: Tally,
    control: Tally,
    metrics: Vec<Metric>,
    table: Vec<String>,
}

fn run(a: &Args) -> Result<Report, String> {
    if mf_telemetry::ENABLED {
        return Err("built with the telemetry feature: it changes the program measured".into());
    }
    // Two executing threads per parallel call: the caller plus one worker.
    std::env::set_var("MF_BLAS_THREADS", "1");
    let mut rng = Rng::new(a.seed);
    let mut w: Box<dyn Workload> = match a.workload.as_str() {
        "refine" => Box::new(refine::Refine::new(&mut rng)?),
        "blas-n2" => Box::new(blas::Blas::new("blas-n2", &mut rng)),
        _ => Box::new(blas::Blas::new("blas-wide", &mut rng)),
    };
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            w.setup();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    w.verify_all();

    let fingerprint = Fingerprint {
        isa: mf_blas::simd::active().name().to_string(),
        pool: mf_blas::pool::enabled(),
        mf_blas_threads: std::env::var("MF_BLAS_THREADS").unwrap_or_default(),
        nproc: sys::nproc() as u64,
        features: "telemetry=off".to_string(),
        workload: a.workload.clone(),
        trace: a.trace,
        git_rev: sys::git_rev(),
        seed: a.seed,
    };

    let mut metrics = Vec::new();
    let mut table = Vec::new();
    let tally;
    if !a.trace {
        let p = phase(w.as_mut(), a.seconds, stats::min_samples_for(P99), None);
        let mut ms: Vec<f64> = p.lat_ns.iter().map(|&n| n as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let p99 = stats::tail_percentile(&ms, P99).unwrap_or_else(|| {
            eprintln!(
                "warning: {} samples leave fewer than {} beyond p99",
                ms.len(),
                stats::TAIL_SAMPLES
            );
            stats::percentile(&ms, P99)
        });
        let win = p.windows();
        let med = |f: fn(&Window) -> f64| stats::median(&win.iter().map(f).collect::<Vec<_>>());
        metrics = vec![
            Metric::new("tasks_per_s", p.tasks_per_s(), "1/s"),
            Metric::new("task_ms_p50", med(|w| w.p50_ms), "ms"),
            Metric::new("task_ms_p99", p99, "ms"),
            Metric::new("cpu_ms_per_task", med(|w| w.cpu_ms_per_task), "ms"),
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        ];
        table.push(format!(
            "{} tasks (latency samples, {} beyond p99) in {} rounds, {} windows; fail_ratio {} ({} of {})",
            ms.len(),
            stats::samples_beyond(ms.len(), P99),
            p.rounds(),
            win.len(),
            p.tally.fail_ratio(),
            p.tally.failed,
            p.tally.attempted
        ));
        table.push(format!("setup_s samples {setups:?}"));
        tally = p.tally;
    } else {
        let plain = phase(w.as_mut(), a.seconds / 2.0, 1, None);
        let mut rec = Recorder::new();
        let traced = phase(w.as_mut(), a.seconds / 2.0, 1, Some(&mut rec));
        let by_name = spans::totals_by_name(rec.spans());
        let task = by_name.get("task").copied().unwrap_or_default();
        let totals = LayerTotals {
            spans: rec.spans(),
            by_name,
            task_ns: task.total_ns,
            tasks: task.calls,
            rounds: traced.rounds(),
        };
        layers::fpan_counts(&mut metrics);
        layers::calibrate(w.as_ref(), &mut rng, &mut metrics);
        w.layer_metrics(&totals, &mut metrics);
        metrics.push(Metric::new(
            "ledger.coverage",
            1.0 - task.self_ns as f64 / task.total_ns.max(1) as f64,
            "fraction",
        ));
        metrics.push(Metric::new(
            "trace.overhead",
            1.0 - traced.tasks_per_s() / plain.tasks_per_s(),
            "fraction",
        ));
        // In declared order; layers this workload never reaches read 0.
        metrics = per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect();
        table = layers::ledger(&a.workload, &totals, &metrics);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}.csv", a.workload));
        rec.write_csv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        table.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        tally = plain.tally.merged(traced.tally);
    }
    let mut control = Tally::default();
    control.record(w.negative_control());
    Ok(Report {
        fingerprint,
        tally,
        control,
        metrics,
        table,
    })
}

fn result_json(r: &Report, correct: bool) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(r.tally.attempted)),
        ("failed".into(), Json::u64(r.tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn compare_files(a: &str, b: &str) -> Result<Vec<String>, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    fingerprint::compare(&load(a)?, &load(b)?)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        match argv.get(1..3).map(|p| compare_files(&p[0], &p[1])) {
            Some(Ok(lines)) => lines.iter().for_each(|l| println!("{l}")),
            Some(Err(e)) => {
                eprintln!("perfbench compare: {e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("usage: perfbench compare <result-a.json> <result-b.json>");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <refine|blas-n2|blas-wide> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let control_ok = report.control.failed == 1;
    let correct = report.tally.failed == 0 && control_ok;

    println!("fingerprint {}", report.fingerprint.to_json().render());
    for line in &report.table {
        println!("{line}");
    }
    println!(
        "negative control: {}",
        if control_ok {
            "perturbed output rejected"
        } else {
            "perturbed output ACCEPTED: the output check is broken"
        }
    );
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let out = result_json(&report, correct);
    let mut saved = out.clone();
    if let Json::Obj(fields) = &mut saved {
        fields.push(("fingerprint".into(), report.fingerprint.to_json()));
        fields.push(("fail_ratio".into(), Json::num(report.tally.fail_ratio())));
    }
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, saved.render_pretty()))
    {
        eprintln!("perfbench: {}: {e}", path.display());
    }
    println!("{}", out.render());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let j = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn args_are_checked() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload refine --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&v("--workload nope --seed 1")).is_err());
        assert!(parse_args(&v("--workload refine --trace 2")).is_err());
        assert!(parse_args(&v("--workload refine --seed")).is_err());
        assert!(parse_args(&v("--workload refine --seconds 0")).is_err());
    }
}
