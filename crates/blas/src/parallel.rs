//! Thread-parallel kernel wrappers (chunked rows on the worker pool).
//!
//! The paper runs every kernel in thread-per-physical-core and
//! thread-per-logical-core configurations and reports the max. These
//! wrappers provide the same knob. On few-core hosts they mostly measure
//! dispatch overhead (recorded as such in EXPERIMENTS.md, substitution
//! T7), but the implementations are real and scale on multi-core hosts.
//!
//! # Executor
//!
//! Chunks run on the **persistent worker pool** ([`crate::pool`], see
//! [`dispatch_chunks`]): workers claim chunk indices from a shared atomic
//! cursor, amortizing thread creation across calls and rebalancing
//! stragglers.
//!
//! # Panic isolation
//!
//! Every dispatching entry point in the crate — the wrappers here, the
//! adaptive entry points and the tiled GEMM — runs its chunks through one
//! runner, [`run_chunks`]. Each chunk's kernel runs under
//! [`std::panic::catch_unwind`]. A panicking chunk does not poison the
//! whole call: the runner snapshots the chunk's output slice first and
//! restores it on panic, then *degrades* the failed chunks to a serial
//! rerun on the calling thread, in chunk order (counted in
//! `blas.parallel.degraded_*` telemetry). Only if the serial retry panics
//! too does the panic propagate — and then with the kernel name and chunk
//! range in the message instead of an opaque `join().unwrap()`. The chunk
//! closure catches its own panics, so the pool never sees one.

use crate::{kernels, Matrix, Scalar};
use mf_telemetry::{trace, Counter, Histogram};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static PAR_DISPATCHES: Counter = Counter::new("blas.parallel.dispatches");
static PAR_TASKS: Counter = Counter::new("blas.parallel.tasks");
static PAR_ROWS: Counter = Counter::new("blas.parallel.rows");
/// Per-dispatch work imbalance: largest minus smallest chunk (rows for
/// GEMV/GEMM, elements for AXPY/DOT). Nonzero buckets mean some threads
/// idle while others finish their remainder rows.
static PAR_CHUNK_IMBALANCE: Histogram = Histogram::new("blas.parallel.chunk_imbalance");
/// Dispatches in which at least one worker panicked and its chunks were
/// degraded to the serial kernel.
static PAR_DEGRADED_DISPATCHES: Counter = Counter::new("blas.parallel.degraded_dispatches");
/// Individual chunks rerun serially after a worker panic.
static PAR_DEGRADED_CHUNKS: Counter = Counter::new("blas.parallel.degraded_chunks");

/// Record one parallel dispatch over `ranges` (one task per chunk).
#[inline]
pub(crate) fn record_dispatch(ranges: &[(usize, usize)]) {
    if !mf_telemetry::ENABLED {
        return;
    }
    PAR_DISPATCHES.incr();
    PAR_TASKS.add(ranges.len() as u64);
    let sizes = ranges.iter().map(|&(lo, hi)| hi - lo);
    PAR_ROWS.add(sizes.clone().sum::<usize>() as u64);
    let max = sizes.clone().max().unwrap_or(0);
    let min = sizes.min().unwrap_or(0);
    PAR_CHUNK_IMBALANCE.record((max - min) as u64);
}

#[inline]
fn record_degraded(chunks: usize) {
    if !mf_telemetry::ENABLED || chunks == 0 {
        return;
    }
    PAR_DEGRADED_DISPATCHES.incr();
    PAR_DEGRADED_CHUNKS.add(chunks as u64);
}

/// Worker count: the `MF_BLAS_THREADS` environment variable when set to a
/// positive integer (reproducible benchmarking), otherwise the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MF_BLAS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let sz = base + usize::from(p < extra);
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// Best-effort description of a panic payload (the `&str`/`String` cases
/// `panic!` produces).
fn describe_panic(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Disjoint mutable chunk access for a shared chunk closure. The pool
/// hands out chunk *indices* (its cursor decides at runtime which thread
/// runs which chunk), so the output slice can't be pre-split with
/// `split_at_mut`. This wrapper shares the raw base pointer instead; every
/// chunk index maps to an element range from [`chunk_ranges`], and those
/// ranges never overlap, so no two concurrently live `slice` views alias.
pub(crate) struct ChunkedMut<'a, S> {
    ptr: *mut S,
    len: usize,
    _life: PhantomData<&'a mut [S]>,
}

// SAFETY: distinct chunk indices address disjoint element ranges (the only
// way `slice` is used), so concurrent access from pool threads is
// data-race-free for any `Send` scalar.
unsafe impl<S: Send> Sync for ChunkedMut<'_, S> {}

impl<'a, S> ChunkedMut<'a, S> {
    pub(crate) fn new(data: &'a mut [S]) -> Self {
        ChunkedMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _life: PhantomData,
        }
    }

    /// # Safety
    ///
    /// `lo..hi` must be disjoint from every other range with a live view;
    /// each chunk index must be executed at most once per dispatch (the
    /// pool's cursor guarantees this). Bounds are checked here, in every
    /// build.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, lo: usize, hi: usize) -> &'a mut [S] {
        assert!(
            lo <= hi && hi <= self.len,
            "chunk {lo}..{hi} out of bounds of {} elements",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }
}

/// Execute `task(ci)` for every chunk index in `0..nchunks` on the pool and
/// return the sorted indices whose task reported failure. `task` must catch
/// its own kernel panics and report them through the return value — the
/// pool treats an unwinding task as a contract violation and swallows it
/// defensively (see `pool.task_panics`).
fn dispatch_chunks(nchunks: usize, task: &(dyn Fn(usize) -> bool + Sync)) -> Vec<usize> {
    let failed = Mutex::new(Vec::new());
    let run = |ci: usize| {
        if !task(ci) {
            failed.lock().unwrap_or_else(|e| e.into_inner()).push(ci);
        }
    };
    crate::pool::run(nchunks, &run);
    let mut failed = failed.into_inner().unwrap_or_else(|e| e.into_inner());
    // The pool's cursor hands chunks out in arbitrary thread order; sort
    // so the degrade path reruns (and reduces) in deterministic chunk
    // order.
    failed.sort_unstable();
    failed
}

/// Serial retry of a degraded chunk. A second (deterministic) panic
/// propagates with the kernel name and chunk range attached.
fn degraded_rerun(kernel: &str, lo: usize, hi: usize, f: impl FnOnce()) {
    // On the timeline a degrade shows as a serial span on the dispatching
    // thread *after* the worker spans — the visual signature of a panic
    // falling back to the serial kernel.
    let _sp = trace::span("par.degraded.rerun", (hi - lo) as u64);
    if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
        panic!(
            "mf-blas {kernel}: worker and serial retry both panicked on chunk {lo}..{hi}: {}",
            describe_panic(p.as_ref())
        );
    }
}

/// The crate's one chunk runner. Runs `body(ci, part)` for every chunk
/// `ci` of `ranges` through [`dispatch_chunks`], where `part` is chunk
/// `ci`'s output slice `out[lo * stride..hi * stride]` (reduce-only
/// dispatches pass an empty `out` and `stride = 0`). Each body runs under
/// `catch_unwind` with a snapshot of `part` that is restored on panic;
/// failed chunks are then recorded ([`record_degraded`]) and rerun
/// serially in chunk order, a second panic propagating with `kernel` and
/// the chunk range in the message. Returns the per-chunk results in chunk
/// order and the sorted indices of the chunks that degraded.
pub(crate) fn run_chunks<S: Copy + Send, R: Send>(
    kernel: &str,
    ranges: &[(usize, usize)],
    out: &mut [S],
    stride: usize,
    body: &(dyn Fn(usize, &mut [S]) -> R + Sync),
) -> (Vec<R>, Vec<usize>) {
    let mut results: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
    let failed = {
        let parts = ChunkedMut::new(out);
        let slots = ChunkedMut::new(&mut results);
        dispatch_chunks(ranges.len(), &|ci| {
            let (lo, hi) = ranges[ci];
            // SAFETY: chunk ranges are disjoint, so the element ranges
            // lo*stride..hi*stride are too (or all empty at stride 0), and
            // each index runs once; slot ci is written only by chunk ci.
            let (part, slot) = unsafe {
                (
                    parts.slice(lo * stride, hi * stride),
                    slots.slice(ci, ci + 1),
                )
            };
            let snapshot = part.to_vec();
            match catch_unwind(AssertUnwindSafe(|| body(ci, &mut *part))) {
                Ok(r) => {
                    slot[0] = Some(r);
                    true
                }
                Err(_) => {
                    part.copy_from_slice(&snapshot);
                    false
                }
            }
        })
    };
    record_degraded(failed.len());
    for &ci in &failed {
        let (lo, hi) = ranges[ci];
        let part = &mut out[lo * stride..hi * stride];
        degraded_rerun(kernel, lo, hi, || results[ci] = Some(body(ci, part)));
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every chunk ran"))
        .collect();
    (results, failed)
}

/// Parallel `y <- alpha*x + y`.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S], threads: usize) {
    assert_eq!(x.len(), y.len());
    if threads <= 1 {
        return kernels::axpy(alpha, x, y);
    }
    let ranges = chunk_ranges(y.len(), threads);
    record_dispatch(&ranges);
    let _sp = trace::span("par.axpy", y.len() as u64);
    run_chunks("axpy", &ranges, y, 1, &|ci, out| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("par.axpy.chunk", (hi - lo) as u64);
        kernels::axpy(alpha, &x[lo..hi], out)
    });
}

/// One DOT chunk: the type's [`Scalar::s_dot_chunk`] body plus the audit
/// draw of [`kernels::dot`].
fn dot_chunk<S: Scalar>(x: &[S], y: &[S]) -> S {
    let acc = S::s_dot_chunk(x, y);
    kernels::audit_dot(x, y);
    acc
}

/// Parallel dot product: per-chunk partials through
/// [`Scalar::s_dot_chunk`] (the lock-step DOT for `MultiFloat<f64, N>`),
/// then a serial reduce in chunk order.
pub fn dot<S: Scalar>(x: &[S], y: &[S], threads: usize) -> S {
    assert_eq!(x.len(), y.len());
    if threads <= 1 {
        return dot_chunk(x, y);
    }
    let ranges = chunk_ranges(x.len(), threads);
    record_dispatch(&ranges);
    let _sp = trace::span("par.dot", x.len() as u64);
    let (partials, _) = run_chunks("dot", &ranges, &mut [(); 0], 0, &|ci, _| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("par.dot.chunk", (hi - lo) as u64);
        dot_chunk(&x[lo..hi], &y[lo..hi])
    });
    partials.into_iter().fold(S::s_zero(), S::s_add)
}

crate::simd::fma_frame! {
    /// GEMV over the row block `lo..lo + y.len()`, each row's dot through
    /// [`Scalar::s_dot_chunk`]: `y[r] <- alpha * A[lo + r] · x + beta * y[r]`,
    /// with `beta == 0` overwriting as in [`kernels::gemv`]. The body of
    /// both the serial and the threaded [`gemv`], so a row's bits never
    /// depend on the thread count.
    fn gemv_rows / gemv_rows_body [S: Scalar] (
        alpha: S,
        a: &Matrix<S>,
        x: &[S],
        beta: S,
        y: &mut [S],
        lo: usize,
    ) {
        if beta.s_is_zero() {
            for (r, yi) in (lo..).zip(y.iter_mut()) {
                *yi = alpha.s_mul(S::s_dot_chunk(a.row(r), x));
            }
        } else {
            for (r, yi) in (lo..).zip(y.iter_mut()) {
                let acc = S::s_dot_chunk(a.row(r), x);
                *yi = beta.s_mul(*yi).s_add(alpha.s_mul(acc));
            }
        }
    }
}

/// Parallel GEMV: rows are divided among threads; serial and threaded
/// calls run the same row-range body (`gemv_rows`), so the result is
/// bitwise identical at every thread count.
pub fn gemv<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S], threads: usize) {
    assert_eq!(
        a.cols,
        x.len(),
        "gemv: A is {}x{} but x has {} elements",
        a.rows,
        a.cols,
        x.len()
    );
    assert_eq!(
        a.rows,
        y.len(),
        "gemv: A is {}x{} but y has {} elements",
        a.rows,
        a.cols,
        y.len()
    );
    if threads <= 1 {
        return gemv_rows(alpha, a, x, beta, y, 0);
    }
    let ranges = chunk_ranges(a.rows, threads);
    record_dispatch(&ranges);
    let _sp = trace::span("par.gemv", a.rows as u64);
    run_chunks("gemv", &ranges, y, 1, &|ci, out| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("par.gemv.chunk", (hi - lo) as u64);
        gemv_rows(alpha, a, x, beta, out, lo)
    });
}

/// Parallel GEMM: output row blocks are divided among threads; each chunk
/// runs the serial kernel's dispatched row-range body.
pub fn gemm<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut Matrix<S>,
    threads: usize,
) {
    // Validate shapes before any chunking: a mismatched `b.rows` would read
    // wrong strides, and a short `c.data` would hand out-of-bounds chunk
    // ranges to the executor.
    assert_eq!(
        a.cols, b.rows,
        "gemm: A is {}x{} but B is {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        c.rows, a.rows,
        "gemm: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    assert_eq!(
        c.cols, b.cols,
        "gemm: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    assert_eq!(
        c.data.len(),
        c.rows * c.cols,
        "gemm: C is {}x{} ({} elements) but its data holds {}",
        c.rows,
        c.cols,
        c.rows * c.cols,
        c.data.len()
    );
    if threads <= 1 {
        return kernels::gemm(alpha, a, b, beta, c);
    }
    let ranges = chunk_ranges(a.rows, threads);
    record_dispatch(&ranges);
    let _sp = trace::span("par.gemm", a.rows as u64);
    run_chunks("gemm", &ranges, &mut c.data, b.cols, &|ci, out| {
        let (lo, hi) = ranges[ci];
        let _t = trace::span("par.gemm.chunk", (hi - lo) as u64);
        kernels::gemm_rows(alpha, a, b, beta, out, lo, hi)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::F64x2;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    #[test]
    fn parallel_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(930);
        let n = 127;
        let alpha = F64x2::from(1.5);
        let x: Vec<F64x2> = (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let y0: Vec<F64x2> = (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();

        for threads in [1usize, 2, 3, 8] {
            let mut y_par = y0.clone();
            axpy(alpha, &x, &mut y_par, threads);
            let mut y_ser = y0.clone();
            kernels::axpy(alpha, &x, &mut y_ser);
            for i in 0..n {
                assert_eq!(
                    y_par[i].components(),
                    y_ser[i].components(),
                    "t={threads} i={i}"
                );
            }

            // dot: partial sums reorder the reduction; compare numerically.
            let d_par = dot(&x, &y0, threads).to_f64();
            let d_ser = kernels::dot(&x, &y0).to_f64();
            assert!((d_par - d_ser).abs() <= 1e-25, "t={threads}");
        }
    }

    /// Zero-length inputs dispatch a single empty chunk through the pool
    /// without touching memory or hanging.
    #[test]
    fn zero_length_inputs() {
        let alpha = F64x2::from(2.0);
        let x: Vec<F64x2> = Vec::new();
        let mut y: Vec<F64x2> = Vec::new();
        axpy(alpha, &x, &mut y, 4);
        assert!(y.is_empty());
        assert_eq!(dot(&x, &y, 4).to_f64(), 0.0);

        // 0-row matrix: gemv/gemm over no rows.
        let a = Matrix::from_fn(0, 3, |_, _| F64x2::from(1.0));
        let xv = vec![F64x2::from(1.0); 3];
        let mut yv: Vec<F64x2> = Vec::new();
        gemv(alpha, &a, &xv, F64x2::from(0.0), &mut yv, 4);
        let b = Matrix::from_fn(3, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(0, 2, |_, _| F64x2::from(0.0));
        gemm(alpha, &a, &b, F64x2::from(0.0), &mut c, 4);
        assert!(c.data.is_empty());
    }

    #[test]
    fn parallel_gemm_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(931);
        let (m, k, n) = (13, 9, 11);
        let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let b = Matrix::from_fn(k, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let c0 = Matrix::from_fn(m, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let alpha = F64x2::from(0.75);
        let beta = F64x2::from(-1.25);
        let mut c_ser = c0.clone();
        kernels::gemm(alpha, &a, &b, beta, &mut c_ser);
        for threads in [2usize, 4, 7] {
            let mut c_par = c0.clone();
            gemm(alpha, &a, &b, beta, &mut c_par, threads);
            for i in 0..m * n {
                assert_eq!(c_par.data[i].components(), c_ser.data[i].components());
            }
        }
    }

    /// GEMV rows run the lock-step DOT at every thread count: bitwise the
    /// portable `Lanes` instantiation of the AoS body, for `beta != 0` and
    /// the `beta == 0` overwrite, at row lengths around the lane width.
    #[test]
    fn parallel_gemv_is_lockstep_at_every_thread_count() {
        use crate::lanes::{dot_lockstep_aos_l, SIMD_LANES};
        let mut rng = SmallRng::seed_from_u64(932);
        let bits = |v: &F64x2| v.components().map(f64::to_bits);
        for k in [1usize, 7, 8, 9, 17, 129] {
            let m = 13;
            let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
            let x: Vec<F64x2> = (0..k)
                .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let y0: Vec<F64x2> = (0..m)
                .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let alpha = F64x2::from(0.75);
            for beta in [F64x2::from(-1.25), F64x2::ZERO] {
                let want: Vec<F64x2> = (0..m)
                    .map(|i| {
                        let d = alpha * dot_lockstep_aos_l::<f64, 2, SIMD_LANES>(a.row(i), &x);
                        if beta.is_zero() {
                            d
                        } else {
                            beta * y0[i] + d
                        }
                    })
                    .collect();
                for threads in [1usize, 2, 3, 8] {
                    let mut y = y0.clone();
                    gemv(alpha, &a, &x, beta, &mut y, threads);
                    for i in 0..m {
                        assert_eq!(bits(&y[i]), bits(&want[i]), "k={k} t={threads} i={i}");
                    }
                }
            }
        }
    }

    /// Serial `dot` is the lock-step DOT, bitwise.
    #[test]
    fn serial_dot_is_lockstep() {
        let mut rng = SmallRng::seed_from_u64(933);
        for n in [0usize, 1, 7, 8, 9, 17, 129] {
            let x: Vec<F64x2> = (0..n)
                .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let y: Vec<F64x2> = (0..n)
                .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let want =
                crate::lanes::dot_lockstep_aos_l::<f64, 2, { crate::lanes::SIMD_LANES }>(&x, &y);
            assert_eq!(
                dot(&x, &y, 1).components().map(f64::to_bits),
                want.components().map(f64::to_bits),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gemm: A is")]
    fn gemm_rejects_inner_dim_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let b = Matrix::from_fn(5, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(3, 2, |_, _| F64x2::from(0.0));
        gemm(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }

    #[test]
    #[should_panic(expected = "gemm: C is")]
    fn gemm_rejects_output_shape_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let b = Matrix::from_fn(4, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(2, 2, |_, _| F64x2::from(0.0));
        gemm(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }

    /// A malformed output matrix (public fields, `data` shorter than
    /// `rows * cols`) is rejected before any chunk view is built.
    #[test]
    #[should_panic(expected = "gemm: C is 64x64 (4096 elements) but its data holds 64")]
    fn gemm_rejects_truncated_output_data() {
        let a = Matrix::from_fn(64, 64, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(64, 64, |_, _| F64x2::from(0.0));
        c.data.truncate(64);
        gemm(F64x2::from(1.0), &a, &a, F64x2::from(0.0), &mut c, 2);
    }

    #[test]
    #[should_panic(expected = "gemv: A is")]
    fn gemv_rejects_x_length_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let x = vec![F64x2::from(1.0); 3]; // needs 4
        let mut y = vec![F64x2::from(0.0); 3];
        gemv(F64x2::from(1.0), &a, &x, F64x2::from(0.0), &mut y, 2);
    }

    #[test]
    fn chunking_covers_everything() {
        for len in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 8, 20] {
                let r = chunk_ranges(len, parts);
                let total: usize = r.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn chunking_edge_cases() {
        // len=0: a single empty range, never an empty vec (workers iterate it).
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(0, 0), vec![(0, 0)]);
        // threads=0 degrades to one chunk.
        assert_eq!(chunk_ranges(5, 0), vec![(0, 5)]);
        // threads > len: one chunk per element, no empty chunks.
        let r = chunk_ranges(3, 8);
        assert_eq!(r, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(r.iter().all(|&(lo, hi)| hi > lo));
    }

    #[test]
    fn default_threads_env_override() {
        // The pool reads this variable on every dispatch; serialize with
        // the pool tests that assert exact worker counts.
        let _env = crate::pool::tests::env_lock();
        std::env::set_var("MF_BLAS_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("MF_BLAS_THREADS", " 12 ");
        assert_eq!(default_threads(), 12);
        // Invalid or non-positive values fall back to the machine default.
        std::env::set_var("MF_BLAS_THREADS", "0");
        assert!(default_threads() >= 1);
        std::env::set_var("MF_BLAS_THREADS", "lots");
        assert!(default_threads() >= 1);
        std::env::remove_var("MF_BLAS_THREADS");
        assert!(default_threads() >= 1);
    }

    /// A scalar whose multiply panics while the global fuse is lit: lets the
    /// tests inject exactly one worker panic, which must degrade that chunk
    /// to the serial kernel instead of poisoning the dispatch.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Flaky(f64);

    /// Positive: number of multiplies until a single panic fires (the
    /// counter then disarms by running past zero). At or below PERSISTENT:
    /// every multiply panics (a deterministic fault that survives the
    /// retry).
    static FUSE: AtomicI64 = AtomicI64::new(0);
    const PERSISTENT: i64 = i64::MIN / 2;
    /// Serializes the tests that arm the shared fuse.
    static FLAKY_LOCK: Mutex<()> = Mutex::new(());

    impl Scalar for Flaky {
        fn s_zero() -> Self {
            Flaky(0.0)
        }
        fn s_add(self, o: Self) -> Self {
            Flaky(self.0 + o.0)
        }
        fn s_mul(self, o: Self) -> Self {
            let v = FUSE.fetch_sub(1, Ordering::SeqCst);
            if v == 1 || v <= PERSISTENT {
                panic!("flaky scalar blew its fuse");
            }
            Flaky(self.0 * o.0)
        }
        fn s_from_f64(x: f64) -> Self {
            Flaky(x)
        }
        fn s_to_f64(self) -> f64 {
            self.0
        }
        fn s_is_zero(self) -> bool {
            self.0 == 0.0
        }
    }

    #[test]
    fn worker_panic_degrades_to_serial() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 64;
        let x: Vec<Flaky> = (0..n).map(|i| Flaky(i as f64 * 0.25)).collect();
        let y0: Vec<Flaky> = (0..n).map(|i| Flaky(1.0 - i as f64 * 0.5)).collect();
        let alpha = Flaky(1.5);

        // Serial reference with the fuse disarmed.
        FUSE.store(0, Ordering::SeqCst);
        let mut y_ref = y0.clone();
        kernels::axpy(alpha, &x, &mut y_ref);
        let d_ref = kernels::dot(&x, &y0);

        // axpy: one worker panics mid-chunk; the result must still match.
        FUSE.store(10, Ordering::SeqCst);
        let mut y_par = y0.clone();
        axpy(alpha, &x, &mut y_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(y_par, y_ref, "degraded axpy dispatch diverged");

        // dot: a panicking partial is recomputed serially.
        FUSE.store(10, Ordering::SeqCst);
        let d_par = dot(&x, &y0, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(d_par, d_ref, "degraded dot dispatch diverged");
    }

    #[test]
    fn worker_panic_degrades_gemv_gemm() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (m, k, n) = (12, 7, 9);
        let a = Matrix::from_fn(m, k, |i, j| Flaky((i * k + j) as f64 * 0.125 - 2.0));
        let b = Matrix::from_fn(k, n, |i, j| Flaky((i * n + j) as f64 * 0.0625 - 1.0));
        let c0 = Matrix::from_fn(m, n, |i, j| Flaky((i + j) as f64 * 0.5));
        let x: Vec<Flaky> = (0..k).map(|i| Flaky(i as f64 - 3.0)).collect();
        let y0: Vec<Flaky> = (0..m).map(|i| Flaky(i as f64 * 0.75)).collect();
        let (alpha, beta) = (Flaky(0.75), Flaky(-1.25));

        FUSE.store(0, Ordering::SeqCst);
        let mut c_ref = c0.clone();
        kernels::gemm(alpha, &a, &b, beta, &mut c_ref);
        let mut y_ref = y0.clone();
        kernels::gemv(alpha, &a, &x, beta, &mut y_ref);

        FUSE.store(25, Ordering::SeqCst);
        let mut c_par = c0.clone();
        gemm(alpha, &a, &b, beta, &mut c_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(c_par.data, c_ref.data, "degraded gemm dispatch diverged");

        FUSE.store(20, Ordering::SeqCst);
        let mut y_par = y0.clone();
        gemv(alpha, &a, &x, beta, &mut y_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(y_par, y_ref, "degraded gemv dispatch diverged");
    }

    #[test]
    fn persistent_panic_propagates_with_context() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A deterministic panic (fuse lit for far more multiplies than the
        // call makes) fails the serial retry too; the propagated message
        // must carry the kernel name and chunk range.
        let x: Vec<Flaky> = (0..16).map(|i| Flaky(i as f64)).collect();
        let y: Vec<Flaky> = (0..16).map(|i| Flaky(i as f64)).collect();
        FUSE.store(PERSISTENT, Ordering::SeqCst);
        let err = catch_unwind(AssertUnwindSafe(|| dot(&x, &y, 2))).unwrap_err();
        FUSE.store(0, Ordering::SeqCst);
        let msg = describe_panic(err.as_ref());
        assert!(msg.contains("mf-blas dot"), "got: {msg}");
        assert!(msg.contains("chunk 0..8"), "got: {msg}");
        assert!(msg.contains("flaky scalar blew its fuse"), "got: {msg}");
    }

    /// Acceptance: a parallel dispatch shows one `par.*.chunk` span per
    /// chunk in the exported Chrome trace (whichever thread — worker or
    /// helping caller — claims a chunk emits its span; the pool's cursor
    /// lets one worker run several chunks), wrapped by the dispatch span on
    /// the calling thread.
    #[cfg(feature = "telemetry")]
    #[test]
    fn pool_dispatch_traces_one_span_per_chunk() {
        use mf_telemetry::json::Json;
        use mf_telemetry::trace;
        trace::arm();
        // 36 rows over 4 threads -> four gemv chunks of exactly 9 rows;
        // 40 rows over 5 threads -> five gemm chunks of exactly 8 rows. No
        // other test in this binary dispatches gemv/gemm with those chunk
        // sizes, so the arg values key this test's events even with tracing
        // armed process-wide.
        let (m, k) = (36, 6);
        let a = Matrix::from_fn(m, k, |i, j| F64x2::from((i + 2 * j) as f64 * 0.25));
        let x: Vec<F64x2> = (0..k).map(|j| F64x2::from(j as f64 - 2.0)).collect();
        let mut y = vec![F64x2::from(0.0); m];
        gemv(F64x2::from(1.0), &a, &x, F64x2::from(0.0), &mut y, 4);
        let (m, k, n) = (40, 6, 5);
        let a = Matrix::from_fn(m, k, |i, j| F64x2::from((i + j) as f64 * 0.5));
        let b = Matrix::from_fn(k, n, |i, j| F64x2::from((i * n + j) as f64 * 0.25));
        let mut c = Matrix::from_fn(m, n, |_, _| F64x2::from(0.0));
        gemm(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 5);

        let doc = trace::chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let arg_of = |e: &Json| {
            e.get("args")
                .and_then(|a| a.get("arg"))
                .and_then(|v| v.as_u64())
        };
        let begins = |name: &str, arg: u64| {
            events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(|v| v.as_str()) == Some(name)
                        && e.get("ph").and_then(|v| v.as_str()) == Some("B")
                        && arg_of(e) == Some(arg)
                })
                .count()
        };
        assert_eq!(begins("par.gemv.chunk", 9), 4, "one gemv span per chunk");
        assert_eq!(begins("par.gemm.chunk", 8), 5, "one gemm span per chunk");
        assert!(begins("par.gemm", 40) >= 1, "gemm dispatch span missing");
    }

    /// Runner, in-place mode: a chunk that writes part of its slice and
    /// then panics is restored from its snapshot and rerun serially, so
    /// every element is transformed exactly once; results come back in
    /// chunk order with the degraded chunk reported.
    #[test]
    fn runner_in_place_restores_and_reruns_failed_chunk() {
        let ranges = chunk_ranges(12, 3);
        let mut out: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let lit = AtomicBool::new(true);
        let (res, failed) = run_chunks("probe", &ranges, &mut out, 2, &|ci, part| {
            assert_eq!(part.len(), 2 * (ranges[ci].1 - ranges[ci].0));
            for (i, v) in part.iter_mut().enumerate() {
                *v = 2.0 * *v + 1.0;
                if ci == 1 && i == 3 && lit.swap(false, Ordering::SeqCst) {
                    panic!("transient fault");
                }
            }
            ci * 10
        });
        assert_eq!(res, vec![0, 10, 20]);
        assert_eq!(failed, vec![1]);
        let want: Vec<f64> = (0..24).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert_eq!(
            out, want,
            "partial writes must be rolled back before the rerun"
        );
    }

    /// Runner, reduce mode: no output slice, per-chunk results in chunk
    /// order, the panicking chunk recomputed serially.
    #[test]
    fn runner_reduce_mode_recomputes_failed_chunk() {
        let ranges = chunk_ranges(10, 4);
        let lit = AtomicBool::new(true);
        let (res, failed) = run_chunks("probe", &ranges, &mut [(); 0], 0, &|ci, part| {
            assert!(part.is_empty());
            if ci == 2 && lit.swap(false, Ordering::SeqCst) {
                panic!("transient fault");
            }
            let (lo, hi) = ranges[ci];
            (lo..hi).sum::<usize>()
        });
        let want: Vec<usize> = ranges.iter().map(|&(lo, hi)| (lo..hi).sum()).collect();
        assert_eq!(res, want);
        assert_eq!(failed, vec![2]);
    }

    /// Runner: a panic that survives the serial retry propagates with the
    /// kernel name, the chunk range and the original payload.
    #[test]
    fn runner_persistent_panic_names_kernel_and_range() {
        let ranges = chunk_ranges(9, 3);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_chunks("probe", &ranges, &mut [0.0f64; 9], 1, &|ci, _| {
                if ci == 1 {
                    panic!("deterministic fault");
                }
            })
        }))
        .unwrap_err();
        let msg = describe_panic(err.as_ref());
        assert!(msg.contains("mf-blas probe"), "got: {msg}");
        assert!(msg.contains("chunk 3..6"), "got: {msg}");
        assert!(msg.contains("deterministic fault"), "got: {msg}");
    }
}
