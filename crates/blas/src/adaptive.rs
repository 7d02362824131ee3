//! Adaptive BLAS entry points: per-chunk precision escalation.
//!
//! The scalar engine (`mf_core::adaptive`) escalates one operation at a
//! time; at BLAS granularity that would put a ladder decision on every
//! element. These entry points instead treat a **fixed-size chunk**
//! ([`ADAPTIVE_CHUNK`] elements; a GEMV row counts its own element chunks)
//! as the escalation unit: each chunk runs the plain branch-free `N=2`
//! kernel first, is judged by the guard layer's slice detectors
//! ([`mf_core::guard::escalated_nonfinite`] / `noncanonical` plus a chunk
//! head-consistency bound), and is recomputed at `N=3 → N=4 → MpFloat
//! exact` only when the judgment fails. A single hostile chunk pays for
//! precision without slowing its neighbours.
//!
//! **Base rung.** DOT (and so every GEMV row) runs the lock-step DOT over
//! the chunk's `F64x2` slices in place ([`lanes::dot_lockstep_aos`], the
//! `MF_SIMD`-selected realization); AXPY runs the element-wise
//! [`kernels::axpy`] update, whose bits the lock-step AXPY also computes.
//! The detector inputs — naive `f64` head sums, magnitudes, finiteness —
//! are gathered in [`SIMD_LANES`] independent lane accumulators (element
//! `i` of a chunk feeds lane `i % 8`, reduced by a fixed tree) with a
//! branch-free finiteness fold, so the clean-input judgment costs a small
//! fraction of the kernel instead of one serial `f64` chain per element.
//! The clean AXPY path allocates nothing: each chunk's pre-kernel `y` is
//! kept in a stack buffer for the rare escalation.
//!
//! **Threads.** Chunk boundaries are fixed by element index — **not** by
//! thread count. The threaded paths hand each thread one range of whole
//! chunks (GEMV: one range of rows) through the crate's chunk runner,
//! [`crate::parallel::run_chunks`], and merge the per-chunk results in
//! chunk order, so results are bitwise identical across `threads`
//! settings. A panicking range is restored from its snapshot and rerun,
//! adaptively, on the calling thread (counted in
//! [`AdaptiveReport::degraded`]).
//!
//! Only the `max_rung` and `tol_bits` knobs of
//! [`EscalationPolicy`] apply here: residency (`sticky`/`decay`) and the
//! escalation budget are properties of the scalar engine's per-value
//! ladder, while a chunk's rung is decided fresh on every call.

use mf_core::adaptive::{EscalationPolicy, Rung};
use mf_core::guard::{escalated_nonfinite, noncanonical};
use mf_core::{F64x2, MultiFloat};
use mf_mpsoft::MpFloat;
use mf_telemetry::audit::{self, OpClass};
use mf_telemetry::{trace, Counter};

use crate::lanes::{self, SIMD_LANES};
use crate::parallel::{chunk_ranges, run_chunks};
use crate::{kernels, Matrix};

static ADAPT_CHUNKS: Counter = Counter::new("blas.adaptive.chunks");
static ADAPT_ESCALATIONS: Counter = Counter::new("blas.adaptive.escalations");
static ADAPT_ORACLE_FALLS: Counter = Counter::new("blas.adaptive.oracle_falls");

/// Elements per escalation unit. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore results — are reproducible.
/// Small enough that one hostile element escalates at most 128 elements of
/// work; large enough to amortize the per-chunk judgment and dispatch.
/// The chunk head-consistency bound tolerates
/// `len · 2^-P` of naive-summation noise, so 128 keeps ~2^-46 of slack
/// under the default `tol_bits = 40`. A multiple of [`SIMD_LANES`], so a
/// chunk's lock-step lanes and detector lanes start at lane 0.
pub const ADAPTIVE_CHUNK: usize = 128;

/// Per-call escalation tally, merged across chunks in chunk order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// Escalation units examined (element chunks; rows count their own
    /// element chunks for GEMV).
    pub chunks: u64,
    /// Units that left the base rung.
    pub escalated: u64,
    /// Units settled at `N=3`.
    pub n3: u64,
    /// Units settled at `N=4`.
    pub n4: u64,
    /// Units that fell through to the `MpFloat` exact evaluation.
    pub oracle: u64,
    /// Units rerun serially after a worker panic (the parallel degrade
    /// contract; the rerun is still adaptive, so results are unchanged).
    pub degraded: u64,
}

impl AdaptiveReport {
    /// Escalated units per unit — the per-workload headline rate.
    pub fn escalation_rate(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.escalated as f64 / self.chunks as f64
        }
    }

    fn tally(&mut self, rung: Rung) {
        self.chunks += 1;
        match rung {
            Rung::N2 => {}
            Rung::N3 => {
                self.escalated += 1;
                self.n3 += 1;
            }
            Rung::N4 => {
                self.escalated += 1;
                self.n4 += 1;
            }
            Rung::Oracle => {
                self.escalated += 1;
                self.oracle += 1;
            }
        }
    }

    fn merge(&mut self, other: &AdaptiveReport) {
        self.chunks += other.chunks;
        self.escalated += other.escalated;
        self.n3 += other.n3;
        self.n4 += other.n4;
        self.oracle += other.oracle;
        self.degraded += other.degraded;
    }

    fn flush_telemetry(&self) {
        if !mf_telemetry::ENABLED {
            return;
        }
        ADAPT_CHUNKS.add(self.chunks);
        ADAPT_ESCALATIONS.add(self.escalated);
        ADAPT_ORACLE_FALLS.add(self.oracle);
    }
}

/// The fixed chunks of the element range `lo..hi` (`lo` on a chunk
/// boundary); an empty range is one empty chunk, mirroring
/// `chunk_ranges`' workers-iterate-it contract.
fn units(lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> {
    let empty = (lo == hi).then_some((lo, hi));
    (lo..hi)
        .step_by(ADAPTIVE_CHUNK)
        .map(move |a| (a, (a + ADAPTIVE_CHUNK).min(hi)))
        .chain(empty)
}

/// Number of escalation units in `lo..hi`.
fn unit_count(lo: usize, hi: usize) -> u64 {
    (hi - lo).div_ceil(ADAPTIVE_CHUNK).max(1) as u64
}

/// One element range of whole chunks per thread, split as evenly as
/// [`chunk_ranges`] splits rows. A single range means a serial call.
fn thread_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    chunk_ranges(len.div_ceil(ADAPTIVE_CHUNK), threads)
        .into_iter()
        .map(|(a, b)| (a * ADAPTIVE_CHUNK, (b * ADAPTIVE_CHUNK).min(len)))
        .collect()
}

/// Test-only fault injection for the degrade path: the threaded range
/// body whose first input element sits at the armed address panics once.
#[cfg(test)]
static PANIC_AT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[inline(always)]
fn fault_point<T>(_first: *const T) {
    #[cfg(test)]
    {
        use std::sync::atomic::Ordering::SeqCst;
        if PANIC_AT
            .compare_exchange(_first as usize, 0, SeqCst, SeqCst)
            .is_ok()
        {
            panic!("injected adaptive range fault");
        }
    }
}

fn widen<const N: usize>(v: F64x2) -> MultiFloat<f64, N> {
    let c2 = v.components();
    let mut c = [0.0f64; N];
    c[0] = c2[0];
    c[1] = c2[1];
    // Renormalize defensively: fault-corrupted inputs may be noncanonical.
    MultiFloat::from_components_renorm(c)
}

fn narrow<const N: usize>(v: MultiFloat<f64, N>) -> F64x2 {
    let c = v.components();
    let mut tail = 0.0f64;
    for i in (1..N).rev() {
        tail += c[i];
    }
    F64x2::from_components_renorm([c[0], tail])
}

/// Post-condition judgment shared by every unit: escalate when a finite
/// input chunk produced a non-finite or noncanonical value, or when the
/// accumulated heads drifted from the naive `f64` evaluation by more than
/// `mag · 2^-tol_bits`. Mirrors the guard layer's `post_flags` +
/// `head_inconsistent` semantics on aggregates; non-finite inputs pass
/// through untouched (§4.4 propagation is not a collapse).
fn aggregate_trip(
    inputs_finite: bool,
    out_bad: bool,
    naive: f64,
    mag: f64,
    head_sum: f64,
    tol_bits: u32,
) -> bool {
    if out_bad {
        return true;
    }
    if !inputs_finite {
        return false;
    }
    if !naive.is_finite() || !mag.is_finite() || !head_sum.is_finite() {
        return false;
    }
    (naive - head_sum).abs() > mag * 2.0f64.powi(-(tol_bits as i32))
}

/// Per-value post flags: non-finite escalation or canonical-form violation.
fn value_bad(inputs_finite: bool, v: &F64x2) -> bool {
    let c = v.components();
    let finite = v.is_finite();
    escalated_nonfinite(inputs_finite, &c) | (noncanonical(&c) & finite)
}

// ---------------------------------------------------------------------------
// Lane-wise detector accumulators
// ---------------------------------------------------------------------------

/// `1` if any component of `v` is NaN or infinite, else `0`: a
/// branch-free `!is_finite()` (exponent field all ones).
#[inline(always)]
fn nonfinite(v: &F64x2) -> u64 {
    const EXP: u64 = 0x7ff0_0000_0000_0000;
    let [a, b] = v.components();
    u64::from(a.to_bits() & EXP == EXP) | u64::from(b.to_bits() & EXP == EXP)
}

/// Sum of [`SIMD_LANES`] lane accumulators through the fixed ceil-half
/// tree of the lock-step reduction.
#[inline(always)]
fn lane_total(mut v: [f64; SIMD_LANES]) -> f64 {
    let mut width = SIMD_LANES;
    while width > 1 {
        let half = width.div_ceil(2);
        for l in 0..width / 2 {
            v[l] += v[l + half];
        }
        width = half;
    }
    v[0]
}

/// Run `f(lane, &a[i], &b[i])` for every element of a chunk, with lane
/// `i % SIMD_LANES`: whole lane blocks as fixed-size arrays (no bounds
/// checks, independent lanes the compiler can keep in vector registers),
/// then the tail.
#[inline(always)]
fn lanewise<A, B>(a: &[A], b: &[B], mut f: impl FnMut(usize, &A, &B)) {
    let ((ab, at), (bb, bt)) = (a.as_chunks::<SIMD_LANES>(), b.as_chunks::<SIMD_LANES>());
    for (ab, bb) in ab.iter().zip(bb) {
        for l in 0..SIMD_LANES {
            f(l, &ab[l], &bb[l]);
        }
    }
    for (l, (ai, bi)) in at.iter().zip(bt).enumerate() {
        f(l, ai, bi);
    }
}

/// `true` if any lane flag is set.
#[inline(always)]
fn any(v: [u64; SIMD_LANES]) -> bool {
    v.iter().fold(0, |m, &b| m | b) != 0
}

/// Lane-wise output judgment of an axpy chunk: whether any value is bad
/// ([`value_bad`], exactly) and the head sum `Σ y.hi`.
///
/// Branch-free on the hot path: the canonical-form bound
/// `|y.lo| <= ulp(y.hi) / 2` is one shift of `y.hi`'s exponent field
/// whenever that field exceeds the precision (the bound is then a normal
/// power of two). A chunk holding a head within 53 binades of the
/// subnormal floor (or zero) is rejudged element by element through
/// [`value_bad`] itself.
#[derive(Default)]
struct Judge {
    nonfinite: [u64; SIMD_LANES],
    noncanonical: [u64; SIMD_LANES],
    low: [u64; SIMD_LANES],
    head: [f64; SIMD_LANES],
}

impl Judge {
    #[inline(always)]
    fn add(&mut self, l: usize, v: &F64x2) {
        const ABS: u64 = 0x7fff_ffff_ffff_ffff;
        const P: u64 = f64::MANTISSA_DIGITS as u64;
        let [h, t] = v.components();
        let raw = (h.to_bits() & ABS) >> 52;
        let bound = raw.saturating_sub(P) << 52;
        let nf = nonfinite(v);
        self.nonfinite[l] |= nf;
        self.noncanonical[l] |= u64::from((t.to_bits() & ABS) > bound) & (nf ^ 1);
        self.low[l] |= u64::from(raw <= P);
        self.head[l] += h;
    }

    /// `(bad, head_sum)` of the judged chunk `y`, given input finiteness.
    #[inline(always)]
    fn finish(&self, finite: bool, y: &[F64x2]) -> (bool, f64) {
        let bad = if any(self.low) {
            y.iter().fold(false, |b, v| b | value_bad(finite, v))
        } else {
            (finite & any(self.nonfinite)) | any(self.noncanonical)
        };
        (bad, lane_total(self.head))
    }
}

crate::fma_frame! {
    /// Detector inputs of one dot chunk: operand finiteness, the naive
    /// `f64` head sum `Σ x.hi·y.hi` and its magnitude `Σ |x.hi·y.hi|`.
    fn dot_detect / dot_detect_body [] (x: &[F64x2], y: &[F64x2]) -> (bool, f64, f64) {
        let mut naive = [0.0f64; SIMD_LANES];
        let mut mag = [0.0f64; SIMD_LANES];
        let mut bad = [0u64; SIMD_LANES];
        lanewise(x, y, |l, xi, yi| {
            let p = xi.hi() * yi.hi();
            naive[l] += p;
            mag[l] += p.abs();
            bad[l] |= nonfinite(xi) | nonfinite(yi);
        });
        (!any(bad), lane_total(naive), lane_total(mag))
    }
}

crate::fma_frame! {
    /// Detector inputs of one axpy chunk before its update: finiteness of
    /// `alpha`, `x` and the pre-kernel `y`, the naive `f64` sum
    /// `Σ (alpha.hi·x.hi + y.hi)` and its magnitude.
    fn axpy_detect / axpy_detect_body [] (
        alpha: F64x2,
        x: &[F64x2],
        y: &[F64x2],
    ) -> (bool, f64, f64) {
        let a_hi = alpha.hi();
        let mut naive = [0.0f64; SIMD_LANES];
        let mut mag = [0.0f64; SIMD_LANES];
        let mut bad = [nonfinite(&alpha); SIMD_LANES];
        lanewise(x, y, |l, xi, yi| {
            let p = a_hi * xi.hi();
            naive[l] += p + yi.hi();
            mag[l] += p.abs() + yi.hi().abs();
            bad[l] |= nonfinite(xi) | nonfinite(yi);
        });
        (!any(bad), lane_total(naive), lane_total(mag))
    }
}

crate::fma_frame! {
    /// The [`Judge`] of one axpy chunk's updated values.
    fn axpy_judge / axpy_judge_body [] (finite: bool, y: &[F64x2]) -> (bool, f64) {
        let mut judge = Judge::default();
        lanewise(y, y, |l, yi, _| judge.add(l, yi));
        judge.finish(finite, y)
    }
}

// ---------------------------------------------------------------------------
// DOT
// ---------------------------------------------------------------------------

/// One dot chunk at one wide rung; `None` selects the MpFloat exact
/// evaluation.
fn dot_at(x: &[F64x2], y: &[F64x2], rung: Rung) -> F64x2 {
    match rung.terms() {
        Some(3) => {
            let wx: Vec<_> = x.iter().map(|&v| widen::<3>(v)).collect();
            let wy: Vec<_> = y.iter().map(|&v| widen::<3>(v)).collect();
            narrow(kernels::dot(&wx, &wy))
        }
        Some(4) => {
            let wx: Vec<_> = x.iter().map(|&v| widen::<4>(v)).collect();
            let wy: Vec<_> = y.iter().map(|&v| widen::<4>(v)).collect();
            narrow(kernels::dot(&wx, &wy))
        }
        _ => {
            // Exact: expand every F64x2·F64x2 product into its four f64
            // cross products and sum them all without rounding.
            let mut xs = Vec::with_capacity(4 * x.len());
            let mut ys = Vec::with_capacity(4 * x.len());
            for (xi, yi) in x.iter().zip(y) {
                let [x0, x1] = xi.components();
                let [y0, y1] = yi.components();
                xs.extend_from_slice(&[x0, x0, x1, x1]);
                ys.extend_from_slice(&[y0, y1, y0, y1]);
            }
            F64x2::from_mp(&MpFloat::exact_dot(&xs, &ys))
        }
    }
}

/// Evaluate one dot chunk up the ladder. Returns the accepted partial and
/// its rung. The base rung is the lock-step DOT read in place.
fn dot_chunk(x: &[F64x2], y: &[F64x2], policy: &EscalationPolicy) -> (F64x2, Rung) {
    let (finite, naive, mag) = dot_detect(x, y);
    let mut rung = Rung::N2;
    let mut v = lanes::dot_lockstep_aos(x, y);
    while rung < policy.max_rung
        && aggregate_trip(
            finite,
            value_bad(finite, &v),
            naive,
            mag,
            v.hi(),
            policy.tol_bits,
        )
    {
        rung = rung.next();
        v = dot_at(x, y, rung);
    }
    (v, rung)
}

/// Serial adaptive dot over the fixed chunks of `x`, tallying into
/// `report`.
fn dot_serial(
    x: &[F64x2],
    y: &[F64x2],
    policy: &EscalationPolicy,
    report: &mut AdaptiveReport,
) -> F64x2 {
    let mut acc = F64x2::ZERO;
    for (lo, hi) in units(0, x.len()) {
        let (v, rung) = dot_chunk(&x[lo..hi], &y[lo..hi], policy);
        report.tally(rung);
        acc += v;
    }
    acc
}

/// Adaptive dot product: per-chunk escalation, chunk-ordered reduce.
/// Results are bitwise identical for every `threads` value.
pub fn dot_adaptive(
    x: &[F64x2],
    y: &[F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> (F64x2, AdaptiveReport) {
    assert_eq!(x.len(), y.len());
    let _sp = trace::span("blas.adaptive.dot", x.len() as u64);
    let ranges = thread_ranges(x.len(), threads);
    let mut report = AdaptiveReport::default();
    if ranges.len() == 1 {
        let v = dot_serial(x, y, policy, &mut report);
        report.flush_telemetry();
        return (v, report);
    }

    let (partials, failed) = run_chunks("adaptive_dot", &ranges, &mut [(); 0], 0, &|ci, _| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("blas.adaptive.dot.chunk", (hi - lo) as u64);
        fault_point(x[lo..].as_ptr());
        units(lo, hi)
            .map(|(a, b)| dot_chunk(&x[a..b], &y[a..b], policy))
            .collect::<Vec<_>>()
    });
    report.degraded = failed
        .iter()
        .map(|&ci| unit_count(ranges[ci].0, ranges[ci].1))
        .sum();
    let mut acc = F64x2::ZERO;
    for (v, rung) in partials.into_iter().flatten() {
        report.tally(rung);
        acc += v;
    }
    report.flush_telemetry();
    (acc, report)
}

// ---------------------------------------------------------------------------
// AXPY
// ---------------------------------------------------------------------------

/// One axpy chunk at one wide rung, recomputed from the pre-kernel
/// snapshot of `y`.
fn axpy_wide<const N: usize>(alpha: F64x2, x: &[F64x2], snap: &[F64x2], y: &mut [F64x2]) {
    let wa = widen::<N>(alpha);
    let wx: Vec<_> = x.iter().map(|&v| widen::<N>(v)).collect();
    let mut wy: Vec<_> = snap.iter().map(|&v| widen::<N>(v)).collect();
    kernels::axpy(wa, &wx, &mut wy);
    for (out, w) in y.iter_mut().zip(wy) {
        *out = narrow(w);
    }
}

/// Exact per-element `alpha·x + y` through `MpFloat`.
fn axpy_exact(alpha: F64x2, x: &[F64x2], snap: &[F64x2], y: &mut [F64x2]) {
    let [a0, a1] = alpha.components();
    for ((out, xi), yi) in y.iter_mut().zip(x).zip(snap) {
        let [x0, x1] = xi.components();
        let [y0, y1] = yi.components();
        let xs = [a0, a0, a1, a1, y0, y1];
        let ys = [x0, x1, x0, x1, 1.0, 1.0];
        *out = F64x2::from_mp(&MpFloat::exact_dot(&xs, &ys));
    }
}

/// Evaluate one axpy chunk up the ladder, in place. Returns the rung.
///
/// Shadow-oracle audit: one element per chunk may be drawn (probability
/// `chunk_len · rate`) and its *settled* value — after any escalation —
/// checked as `y_out[j] ?= alpha·x[j] + y_in[j]` on the background
/// auditor. Sampling reads around the kernel, never inside it, so results
/// stay bitwise identical across thread counts and draws.
fn axpy_chunk(alpha: F64x2, x: &[F64x2], y: &mut [F64x2], policy: &EscalationPolicy) -> Rung {
    let before = audit::should_sample_index(y.len()).map(|j| (j, y[j]));
    let rung = axpy_chunk_run(alpha, x, y, policy);
    if let Some((j, yj)) = before {
        crate::audit_submit(OpClass::Axpy, alpha, x[j], yj, y[j]);
    }
    rung
}

/// The escalation ladder of [`axpy_chunk`]. The base rung is
/// [`kernels::axpy_dispatched`] (the bits of [`kernels::axpy`]) between
/// the [`axpy_detect`] and [`axpy_judge`] passes; the pre-kernel `y` lives in a stack buffer, so a
/// clean chunk allocates nothing, and an escalated rung recomputes every
/// element from it.
fn axpy_chunk_run(alpha: F64x2, x: &[F64x2], y: &mut [F64x2], policy: &EscalationPolicy) -> Rung {
    let mut buf = [F64x2::ZERO; ADAPTIVE_CHUNK];
    let snap = &mut buf[..y.len()];
    snap.copy_from_slice(y);
    let (finite, naive, mag) = axpy_detect(alpha, x, snap);
    kernels::axpy_dispatched(alpha, x, y);
    let (mut bad, mut head_sum) = axpy_judge(finite, y);
    let mut rung = Rung::N2;
    while rung < policy.max_rung
        && aggregate_trip(finite, bad, naive, mag, head_sum, policy.tol_bits)
    {
        rung = rung.next();
        match rung.terms() {
            Some(3) => axpy_wide::<3>(alpha, x, snap, y),
            Some(4) => axpy_wide::<4>(alpha, x, snap, y),
            _ => axpy_exact(alpha, x, snap, y),
        }
        (bad, head_sum) = axpy_judge(finite, y);
    }
    rung
}

/// Adaptive axpy over the fixed chunks of one range (`x` and `y` start on
/// a chunk boundary).
fn axpy_range(
    alpha: F64x2,
    x: &[F64x2],
    y: &mut [F64x2],
    policy: &EscalationPolicy,
) -> AdaptiveReport {
    let mut report = AdaptiveReport::default();
    for (lo, hi) in units(0, y.len()) {
        report.tally(axpy_chunk(alpha, &x[lo..hi], &mut y[lo..hi], policy));
    }
    report
}

/// Adaptive `y <- alpha*x + y`: per-chunk escalation. Results are bitwise
/// identical for every `threads` value.
pub fn axpy_adaptive(
    alpha: F64x2,
    x: &[F64x2],
    y: &mut [F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> AdaptiveReport {
    assert_eq!(x.len(), y.len());
    let _sp = trace::span("blas.adaptive.axpy", y.len() as u64);
    let ranges = thread_ranges(y.len(), threads);
    if ranges.len() == 1 {
        let report = axpy_range(alpha, x, y, policy);
        report.flush_telemetry();
        return report;
    }

    let (reports, failed) = run_chunks("adaptive_axpy", &ranges, y, 1, &|ci, out| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("blas.adaptive.axpy.chunk", (hi - lo) as u64);
        fault_point(x[lo..].as_ptr());
        axpy_range(alpha, &x[lo..hi], out, policy)
    });
    let mut report = AdaptiveReport {
        degraded: failed
            .iter()
            .map(|&ci| unit_count(ranges[ci].0, ranges[ci].1))
            .sum(),
        ..AdaptiveReport::default()
    };
    for local in &reports {
        report.merge(local);
    }
    report.flush_telemetry();
    report
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// Adaptive `y = A·x`: every row is an adaptive dot over fixed element
/// chunks; rows are divided among threads. Results are bitwise identical
/// for every `threads` value.
pub fn gemv_adaptive(
    a: &Matrix<F64x2>,
    x: &[F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> (Vec<F64x2>, AdaptiveReport) {
    assert_eq!(
        a.cols,
        x.len(),
        "gemv_adaptive: A is {}x{} but x has {} elements",
        a.rows,
        a.cols,
        x.len()
    );
    let _sp = trace::span("blas.adaptive.gemv", a.rows as u64);
    let mut y = vec![F64x2::ZERO; a.rows];
    let rows = |lo: usize, out: &mut [F64x2]| {
        let mut local = AdaptiveReport::default();
        for (r, out_y) in (lo..).zip(out.iter_mut()) {
            *out_y = dot_serial(a.row(r), x, policy, &mut local);
        }
        local
    };
    let ranges = chunk_ranges(a.rows, threads);
    if ranges.len() == 1 {
        let report = rows(0, &mut y);
        report.flush_telemetry();
        return (y, report);
    }

    let (reports, failed) = run_chunks("adaptive_gemv", &ranges, &mut y, 1, &|ci, out| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("blas.adaptive.gemv.chunk", (hi - lo) as u64);
        fault_point(a.row(lo).as_ptr());
        rows(lo, out)
    });
    // A failed range held `rows × chunks-per-row` escalation units.
    let per_row = unit_count(0, a.cols);
    let mut report = AdaptiveReport {
        degraded: failed
            .iter()
            .map(|&ci| (ranges[ci].1 - ranges[ci].0) as u64 * per_row)
            .sum(),
        ..AdaptiveReport::default()
    };
    for local in &reports {
        report.merge(local);
    }
    report.flush_telemetry();
    (y, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(rng: &mut SmallRng, n: usize) -> Vec<F64x2> {
        (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)) * F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn policy() -> EscalationPolicy {
        EscalationPolicy::default()
    }

    #[test]
    fn clean_inputs_stay_on_base_rung_and_match_kernels() {
        let mut rng = SmallRng::seed_from_u64(0xADA1);
        let n = 300; // three chunks
        let x = rand_vec(&mut rng, n);
        let y = rand_vec(&mut rng, n);

        let (d, rep) = dot_adaptive(&x, &y, &policy(), 1);
        assert_eq!(rep.chunks, 3);
        assert_eq!(rep.escalated, 0);
        let d_ser = kernels::dot(&x, &y);
        assert!((d.to_f64() - d_ser.to_f64()).abs() <= 1e-25);
        // The base rung is the lock-step DOT per chunk, summed in chunk
        // order: bitwise the portable `Lanes` instantiation.
        let mut want = F64x2::ZERO;
        for lo in (0..n).step_by(ADAPTIVE_CHUNK) {
            let hi = (lo + ADAPTIVE_CHUNK).min(n);
            want += lanes::dot_lockstep_aos_l::<f64, 2, SIMD_LANES>(&x[lo..hi], &y[lo..hi]);
        }
        assert_eq!(
            d.components().map(f64::to_bits),
            want.components().map(f64::to_bits)
        );

        let alpha = F64x2::from(1.5);
        let mut y_ad = y.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y_ad, &policy(), 1);
        assert_eq!(rep.escalated, 0);
        let mut y_ser = y.clone();
        kernels::axpy(alpha, &x, &mut y_ser);
        for i in 0..n {
            assert_eq!(y_ad[i].components(), y_ser[i].components(), "i={i}");
        }
    }

    /// Every entry point gives the same bits (and the same tally) at
    /// threads {1, 2, 3, 8}, at lengths that are not a multiple of the
    /// chunk — so the last range of whole chunks ends short.
    #[test]
    fn results_are_bitwise_identical_across_thread_counts() {
        let mut rng = SmallRng::seed_from_u64(0xADA2);
        let bits = |v: &F64x2| v.components().map(f64::to_bits);
        for n in [1usize, 127, 129, 450, 1000] {
            let x = rand_vec(&mut rng, n);
            let y = rand_vec(&mut rng, n);
            let (d1, r1) = dot_adaptive(&x, &y, &policy(), 1);
            let alpha = F64x2::from(-0.75);
            let mut y1 = y.clone();
            let a1 = axpy_adaptive(alpha, &x, &mut y1, &policy(), 1);
            for threads in [2usize, 3, 8] {
                let (dt, rt) = dot_adaptive(&x, &y, &policy(), threads);
                assert_eq!(bits(&dt), bits(&d1), "dot n={n} t={threads}");
                assert_eq!(rt, r1, "dot n={n} t={threads}");
                let mut yt = y.clone();
                let at = axpy_adaptive(alpha, &x, &mut yt, &policy(), threads);
                assert_eq!(at, a1, "axpy n={n} t={threads}");
                for i in 0..n {
                    assert_eq!(bits(&yt[i]), bits(&y1[i]), "axpy n={n} t={threads} i={i}");
                }
            }
        }

        // Rows of 300 elements: three chunks each, the last one short.
        let (rows, cols) = (19, 300);
        let a = Matrix::from_fn(rows, cols, |i, j| {
            F64x2::from((i * cols + j) as f64 * 0.01 - 2.0)
        });
        let xv = rand_vec(&mut rng, cols);
        let (g1, r1) = gemv_adaptive(&a, &xv, &policy(), 1);
        assert_eq!(r1.chunks, (rows * 3) as u64);
        for threads in [2usize, 3, 8] {
            let (gt, rt) = gemv_adaptive(&a, &xv, &policy(), threads);
            assert_eq!(rt, r1, "gemv t={threads}");
            for i in 0..rows {
                assert_eq!(bits(&gt[i]), bits(&g1[i]), "gemv t={threads} i={i}");
            }
        }
    }

    /// The degrade path: a threaded range that panics is restored and
    /// rerun on the calling thread, with bits identical to the clean run,
    /// and `degraded` counts the escalation units the range held.
    #[test]
    fn panicking_range_is_rerun_and_counts_its_units() {
        use std::sync::atomic::Ordering::SeqCst;
        let arm = |first: *const F64x2| PANIC_AT.store(first as usize, SeqCst);
        let fired = || PANIC_AT.load(SeqCst) == 0;
        let bits = |v: &F64x2| v.components().map(f64::to_bits);
        let mut rng = SmallRng::seed_from_u64(0xADA5);
        // 1000 elements = 8 chunks; two threads take chunks 0..4 and 4..8,
        // so the second range (elements 512..1000) holds 4 units.
        let n = 1000;
        let x = rand_vec(&mut rng, n);
        let y = rand_vec(&mut rng, n);

        let (d_clean, r_clean) = dot_adaptive(&x, &y, &policy(), 2);
        arm(x[512..].as_ptr());
        let (d, r) = dot_adaptive(&x, &y, &policy(), 2);
        assert!(fired(), "dot: the injected fault never ran");
        assert_eq!(bits(&d), bits(&d_clean));
        assert_eq!(r.degraded, 4);
        assert_eq!(AdaptiveReport { degraded: 0, ..r }, r_clean);

        let alpha = F64x2::from(1.25);
        let mut y_clean = y.clone();
        let r_clean = axpy_adaptive(alpha, &x, &mut y_clean, &policy(), 2);
        let mut y_deg = y.clone();
        arm(x[512..].as_ptr());
        let r = axpy_adaptive(alpha, &x, &mut y_deg, &policy(), 2);
        assert!(fired(), "axpy: the injected fault never ran");
        for i in 0..n {
            assert_eq!(bits(&y_deg[i]), bits(&y_clean[i]), "axpy i={i}");
        }
        assert_eq!(r.degraded, 4);
        assert_eq!(AdaptiveReport { degraded: 0, ..r }, r_clean);

        // 10 rows of 300 elements (3 units each) over two threads: the
        // second range holds rows 5..10, 15 units.
        let a = Matrix::from_fn(10, 300, |i, j| {
            F64x2::from((i * 300 + j) as f64 * 0.003 - 1.0)
        });
        let xv = rand_vec(&mut rng, 300);
        let (g_clean, r_clean) = gemv_adaptive(&a, &xv, &policy(), 2);
        arm(a.row(5).as_ptr());
        let (g, r) = gemv_adaptive(&a, &xv, &policy(), 2);
        assert!(fired(), "gemv: the injected fault never ran");
        for i in 0..10 {
            assert_eq!(bits(&g[i]), bits(&g_clean[i]), "gemv row {i}");
        }
        assert_eq!(r.degraded, 15);
        assert_eq!(AdaptiveReport { degraded: 0, ..r }, r_clean);
    }

    /// Transient overflow inside one chunk's accumulation: the plain kernel
    /// returns inf, the adaptive path escalates that chunk to the exact
    /// evaluation and recovers the representable true value.
    #[test]
    fn dot_recovers_transient_overflow_via_oracle() {
        let mut rng = SmallRng::seed_from_u64(0xADA3);
        let n = 300;
        let mut x = rand_vec(&mut rng, n);
        let mut y = rand_vec(&mut rng, n);
        // Chunk 1 accumulates 2^1023 + 2^1023 (inf) before the -1.5·2^1023
        // term could have brought it back in range: exact sum is 2^1022.
        // The three terms sit 8 apart, so they share one lock-step lane
        // and that lane's running sum overflows.
        let big = 2.0f64.powi(512);
        for (i, xv) in [(150, big), (158, big), (166, -1.5 * big)] {
            x[i] = F64x2::from_scalar(xv);
            y[i] = F64x2::from_scalar(big / 2.0);
        }

        assert!(
            !lanes::dot_lockstep_aos(&x[128..256], &y[128..256]).is_finite(),
            "the base rung must collapse for this test to be meaningful"
        );
        for threads in [1usize, 3] {
            let (d, rep) = dot_adaptive(&x, &y, &policy(), threads);
            assert!(d.is_finite(), "t={threads}");
            // 2^1022 dominates the clean elements entirely.
            assert_eq!(d.hi(), 2.0f64.powi(1022), "t={threads}");
            assert_eq!(rep.chunks, 3);
            assert_eq!(rep.escalated, 1, "only the hostile chunk escalates");
            assert_eq!(rep.oracle, 1, "overflow regimes climb to the top");
        }
    }

    #[test]
    fn axpy_recovers_transient_overflow_via_oracle() {
        let n = 200;
        let alpha = F64x2::from_scalar(2.0f64.powi(512));
        let x: Vec<F64x2> = (0..n).map(|i| F64x2::from(i as f64 * 1e-3)).collect();
        let mut y: Vec<F64x2> = (0..n).map(|i| F64x2::from(1.0 - i as f64 * 1e-3)).collect();
        // alpha·x[7] = 2^1024 (inf at N=2); y[7] pulls the exact value back
        // to 2^1023, which is representable.
        let mut x = x;
        x[7] = F64x2::from_scalar(2.0f64.powi(512));
        y[7] = F64x2::from_scalar(-(2.0f64.powi(1023)));

        let mut y_plain = y.clone();
        kernels::axpy(alpha, &x, &mut y_plain);
        assert!(!y_plain[7].is_finite(), "plain kernel must collapse");

        let mut y_ad = y.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y_ad, &policy(), 1);
        assert_eq!(y_ad[7].to_f64(), 2.0f64.powi(1023));
        assert_eq!(rep.chunks, 2);
        assert_eq!(rep.escalated, 1);
        assert_eq!(rep.oracle, 1);
        // The clean chunk is untouched relative to the plain kernel.
        for i in 128..n {
            assert_eq!(y_ad[i].components(), y_plain[i].components(), "i={i}");
        }
    }

    #[test]
    fn gemv_escalates_only_the_hostile_row() {
        let rows = 8;
        let cols = 40;
        let big = 2.0f64.powi(512);
        // Same transient-overflow pattern as the dot test, in one lane.
        let hostile = |j: usize| j.is_multiple_of(8) && j < 24;
        let a = Matrix::from_fn(rows, cols, |i, j| {
            if i == 3 && hostile(j) {
                F64x2::from_scalar([big, big, -1.5 * big][j / 8])
            } else {
                F64x2::from((i + j) as f64 * 0.01 + 0.1)
            }
        });
        let x: Vec<F64x2> = (0..cols)
            .map(|j| {
                if hostile(j) {
                    F64x2::from_scalar(big / 2.0)
                } else {
                    F64x2::from(0.5)
                }
            })
            .collect();
        assert!(
            !lanes::dot_lockstep_aos(a.row(3), &x).is_finite(),
            "the base rung must collapse for this test to be meaningful"
        );

        for threads in [1usize, 4] {
            let (yv, rep) = gemv_adaptive(&a, &x, &policy(), threads);
            assert!(yv.iter().all(|v| v.is_finite()), "t={threads}");
            assert_eq!(yv[3].hi(), 2.0f64.powi(1022), "t={threads}");
            assert_eq!(rep.chunks, rows as u64, "one chunk per 40-element row");
            assert_eq!(rep.escalated, 1);
            assert_eq!(rep.oracle, 1);
        }
    }

    #[test]
    fn max_rung_caps_chunk_escalation() {
        let capped = EscalationPolicy {
            max_rung: Rung::N3,
            ..EscalationPolicy::default()
        };
        let big = 2.0f64.powi(512);
        let x = vec![
            F64x2::from_scalar(big),
            F64x2::from_scalar(big),
            F64x2::from_scalar(-1.5 * big),
        ];
        let y = vec![F64x2::from_scalar(big / 2.0); 3];
        let (d, rep) = dot_adaptive(&x, &y, &capped, 1);
        // N=3 still overflows transiently; the cap accepts the collapsed
        // result and reports where it settled.
        assert!(!d.is_finite());
        assert_eq!(rep.n3, 1);
        assert_eq!(rep.oracle, 0);
    }

    #[test]
    fn nonfinite_inputs_pass_through_without_escalation() {
        let x = vec![F64x2::from_scalar(f64::NAN), F64x2::from(1.0)];
        let y = vec![F64x2::from(2.0), F64x2::from(3.0)];
        let (d, rep) = dot_adaptive(&x, &y, &policy(), 1);
        assert!(d.is_nan());
        assert_eq!(rep.escalated, 0, "§4.4 propagation is not a collapse");
    }

    #[test]
    fn empty_inputs() {
        let (d, rep) = dot_adaptive(&[], &[], &policy(), 4);
        assert_eq!(d.to_f64(), 0.0);
        assert_eq!(rep.chunks, 1);
        assert_eq!(rep.escalated, 0);
        let mut y: Vec<F64x2> = Vec::new();
        let rep = axpy_adaptive(F64x2::ONE, &[], &mut y, &policy(), 4);
        assert_eq!(rep.escalated, 0);
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let v = F64x2::from(1.0) / F64x2::from(3.0);
        assert_eq!(narrow(widen::<3>(v)).components(), v.components());
        assert_eq!(narrow(widen::<4>(v)).components(), v.components());
    }
}
