//! The `blas-n2` and `blas-wide` workloads: a closed-loop stream of calls
//! into every public BLAS entry-point family of `mf-blas`.

use crate::check::{self, exact_dot, exact_update, mp, Exact, Outcome};
use crate::spans::Recorder;
use crate::stats::Rng;
use crate::{Metric, Workload};
use mf_blas::adaptive::{self, AdaptiveReport};
use mf_blas::soa::{SoaMatrix, SoaVec};
use mf_blas::{parallel, soa, tile, Matrix};
use mf_core::{EscalationPolicy, F64x2, MultiFloat};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Chunks per parallel call. The pool's caller helps, so with
/// `MF_BLAS_THREADS=1` two chunks run on exactly two threads.
pub const THREADS: usize = 2;

/// Specs per entry point and width, on a log-uniform size grid.
const SPECS: usize = 8;

/// Output entries of a GEMM checked against the oracle: the full product
/// costs `O(n^3)` `MpFloat` operations per input set.
const GEMM_SAMPLES: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Entry {
    ParAxpy,
    ParDot,
    ParGemv,
    ParGemm,
    SoaAxpy,
    SoaDot,
    SoaGemv,
    TileGemm,
    AdaDot,
    AdaAxpy,
    AdaGemv,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Vector,
    Gemv,
    Gemm,
}

impl Entry {
    pub const ALL: [Entry; 11] = [
        Entry::ParAxpy,
        Entry::ParDot,
        Entry::ParGemv,
        Entry::ParGemm,
        Entry::SoaAxpy,
        Entry::SoaDot,
        Entry::SoaGemv,
        Entry::TileGemm,
        Entry::AdaDot,
        Entry::AdaAxpy,
        Entry::AdaGemv,
    ];

    /// Span name; the per-layer metrics are `<span>.{calls,share,gops}`.
    pub fn span(self) -> &'static str {
        match self {
            Entry::ParAxpy => "blas.parallel.axpy",
            Entry::ParDot => "blas.parallel.dot",
            Entry::ParGemv => "blas.parallel.gemv",
            Entry::ParGemm => "blas.parallel.gemm",
            Entry::SoaAxpy => "blas.soa.axpy",
            Entry::SoaDot => "blas.soa.dot",
            Entry::SoaGemv => "blas.soa.gemv",
            Entry::TileGemm => "blas.tile.gemm_tiled",
            Entry::AdaDot => "blas.adaptive.dot",
            Entry::AdaAxpy => "blas.adaptive.axpy",
            Entry::AdaGemv => "blas.adaptive.gemv",
        }
    }

    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            Entry::ParAxpy | Entry::ParDot | Entry::ParGemv | Entry::ParGemm
        )
    }

    fn is_adaptive(self) -> bool {
        matches!(self, Entry::AdaDot | Entry::AdaAxpy | Entry::AdaGemv)
    }

    fn shape(self) -> Shape {
        match self {
            Entry::ParGemv | Entry::SoaGemv | Entry::AdaGemv => Shape::Gemv,
            Entry::ParGemm | Entry::TileGemm => Shape::Gemm,
            _ => Shape::Vector,
        }
    }
}

/// Size ranges of one workload: vector lengths and square matrix orders.
struct Sizes {
    vector: (f64, f64),
    matrix: (f64, f64),
}

/// Generated inputs of one call, as canonical `f64` component arrays
/// (`width` words per element). Packing them into library types is the
/// program's set-up; generating them is the benchmark's.
pub struct Raw {
    entry: Entry,
    width: usize,
    /// Vector length, or the square matrix order.
    size: usize,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    /// Vector ops: `x`, `y`. GEMV: `A`, `x`, `y`. GEMM: `A`, `B`, `C`.
    arrays: [Vec<f64>; 3],
    gemm_samples: Vec<(usize, usize)>,
}

impl Raw {
    /// Multiply-add pairs one call performs.
    pub fn ops(&self) -> u64 {
        let s = self.size as u64;
        match self.entry.shape() {
            Shape::Vector => s,
            Shape::Gemv => s * s,
            Shape::Gemm => s * s * s,
        }
    }
}

/// One canonical `N`-term expansion with head `head` and a full-length
/// random tail.
fn gen_elem<const N: usize>(rng: &mut Rng, head: f64) -> [f64; N] {
    let mut c = [0.0; N];
    c[0] = head;
    for k in 1..N {
        c[k] = c[k - 1] * 2f64.powi(-53) * rng.uniform(-1.0, 1.0);
    }
    MultiFloat::<f64, N>::from_components_renorm(c).components()
}

/// `count` random expansions with heads in `[-1, 1)`, flattened.
pub fn gen_elems<const N: usize>(rng: &mut Rng, count: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(count * N);
    for _ in 0..count {
        let head = rng.uniform(-1.0, 1.0);
        out.extend_from_slice(&gen_elem::<N>(rng, head));
    }
    out
}

/// A scale factor in `±[0.5, 1)`, so repeated updates stay bounded.
fn gen_scale<const N: usize>(rng: &mut Rng) -> Vec<f64> {
    let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
    let head = sign * rng.uniform(0.5, 1.0);
    gen_elem::<N>(rng, head).to_vec()
}

fn gen_raw<const N: usize>(rng: &mut Rng, entry: Entry, size: usize) -> Raw {
    let (la, lb, lc) = match entry.shape() {
        Shape::Vector => (size, size, 0),
        Shape::Gemv => (size * size, size, size),
        Shape::Gemm => (size * size, size * size, size * size),
    };
    let gemm_samples = if entry.shape() == Shape::Gemm {
        let last = size - 1;
        let mut s = vec![(0, 0), (0, last), (last, 0), (last, last)];
        s.extend((0..GEMM_SAMPLES).map(|_| (rng.below(size), rng.below(size))));
        s
    } else {
        Vec::new()
    };
    Raw {
        entry,
        width: N,
        size,
        alpha: gen_scale::<N>(rng),
        beta: gen_scale::<N>(rng),
        arrays: [
            gen_elems::<N>(rng, la),
            gen_elems::<N>(rng, lb),
            gen_elems::<N>(rng, lc),
        ],
        gemm_samples,
    }
}

type Mf<const N: usize> = MultiFloat<f64, N>;

fn elems<const N: usize>(flat: &[f64]) -> Vec<Mf<N>> {
    flat.chunks_exact(N)
        .map(|c| MultiFloat::from_components(c.try_into().expect("N comps")))
        .collect()
}

fn scalar<const N: usize>(flat: &[f64]) -> Mf<N> {
    elems::<N>(flat)[0]
}

fn matrix<const N: usize>(flat: &[f64], n: usize) -> Matrix<Mf<N>> {
    Matrix {
        rows: n,
        cols: n,
        data: elems::<N>(flat),
    }
}

fn soa_matrix<const N: usize>(flat: &[f64], n: usize) -> SoaMatrix<f64, N> {
    let mut m = SoaMatrix::zeros(n, n);
    for (k, comp) in m.comps.iter_mut().enumerate() {
        for (dst, src) in comp.iter_mut().zip(flat.chunks_exact(N)) {
            *dst = src[k];
        }
    }
    m
}

/// The adaptive entry points exist for `F64x2` only; the generic task
/// code reaches them through these checked casts (`N = 2` is enforced
/// when the workload is built).
fn x2<A: Any, B: Any>(a: &A) -> &B {
    (a as &dyn Any)
        .downcast_ref()
        .expect("adaptive entry points take F64x2")
}

fn x2v<A: Any>(a: &A) -> &Vec<F64x2> {
    x2(a)
}

fn x2_mut<A: Any, B: Any>(a: &mut A) -> &mut B {
    (a as &mut dyn Any)
        .downcast_mut()
        .expect("adaptive entry points take F64x2")
}

/// One packed call, ready to run repeatedly.
trait Task {
    /// Restore the inputs the call overwrites.
    fn reset(&mut self);
    fn run(&mut self, policy: &EscalationPolicy) -> Option<AdaptiveReport>;
    fn hash(&self) -> u64;
    /// Judge the current output against the `MpFloat` oracle.
    fn oracle_accepts(&self) -> bool;
    /// Corrupt the current output (the negative control).
    fn perturb(&mut self);
}

fn hash_aos<const N: usize>(v: &[Mf<N>]) -> u64 {
    check::hash_words(v.iter().flat_map(|x| x.components()))
}

fn hash_soa(comps: &[Vec<f64>]) -> u64 {
    check::hash_words(comps.iter().flatten().copied())
}

/// Oracle check of `y_i = alpha * x_i + y0_i`.
fn accepts_axpy<const N: usize>(
    alpha: Mf<N>,
    x: &[Mf<N>],
    y0: &[Mf<N>],
    got: impl Fn(usize) -> Mf<N>,
) -> bool {
    let a = mp(&alpha);
    (0..x.len()).all(|i| {
        let mut e = Exact::zero();
        e.push(&a.mul(&mp(&x[i]), check::ORACLE_PREC));
        e.push(&mp(&y0[i]));
        e.accepts(&got(i))
    })
}

/// Oracle check of a GEMV output, `y = alpha * A x + beta * y0` (or
/// `y = A x` when `scale` is `None`).
fn accepts_gemv<const N: usize>(
    a: impl Fn(usize, usize) -> Mf<N>,
    x: &[Mf<N>],
    scale: Option<(Mf<N>, Mf<N>, &[Mf<N>])>,
    got: impl Fn(usize) -> Mf<N>,
) -> bool {
    let n = x.len();
    (0..n).all(|i| {
        let e = exact_dot((0..n).map(|j| a(i, j)), x.iter().copied());
        let e = match scale {
            Some((alpha, beta, y0)) => exact_update(e, &alpha, &beta, &y0[i]),
            None => e,
        };
        e.accepts(&got(i))
    })
}

/// Oracle check of sampled entries of `C = alpha * A B + beta * C0`.
fn accepts_gemm<const N: usize>(
    (alpha, beta): (Mf<N>, Mf<N>),
    a: impl Fn(usize, usize) -> Mf<N>,
    b: impl Fn(usize, usize) -> Mf<N>,
    c0: impl Fn(usize, usize) -> Mf<N>,
    n: usize,
    samples: &[(usize, usize)],
    got: impl Fn(usize, usize) -> Mf<N>,
) -> bool {
    samples.iter().all(|&(i, j)| {
        let e = exact_dot((0..n).map(|k| a(i, k)), (0..n).map(|k| b(k, j)));
        exact_update(e, &alpha, &beta, &c0(i, j)).accepts(&got(i, j))
    })
}

struct AosVector<const N: usize> {
    entry: Entry,
    alpha: Mf<N>,
    x: Vec<Mf<N>>,
    y0: Vec<Mf<N>>,
    y: Vec<Mf<N>>,
    dot: Mf<N>,
}

impl<const N: usize> Task for AosVector<N> {
    fn reset(&mut self) {
        if matches!(self.entry, Entry::ParAxpy | Entry::AdaAxpy) {
            self.y.copy_from_slice(&self.y0);
        }
    }

    fn run(&mut self, policy: &EscalationPolicy) -> Option<AdaptiveReport> {
        match self.entry {
            Entry::ParAxpy => parallel::axpy(self.alpha, &self.x, &mut self.y, THREADS),
            Entry::ParDot => self.dot = parallel::dot(&self.x, &self.y, THREADS),
            Entry::AdaDot => {
                let (v, r) = adaptive::dot_adaptive(x2v(&self.x), x2v(&self.y), policy, THREADS);
                *x2_mut::<_, F64x2>(&mut self.dot) = v;
                return Some(r);
            }
            Entry::AdaAxpy => {
                let alpha: F64x2 = *x2(&self.alpha);
                let y: &mut Vec<F64x2> = x2_mut(&mut self.y);
                return Some(adaptive::axpy_adaptive(
                    alpha,
                    x2v(&self.x),
                    y,
                    policy,
                    THREADS,
                ));
            }
            e => unreachable!("{e:?} is not an AoS vector entry"),
        }
        None
    }

    fn hash(&self) -> u64 {
        match self.entry {
            Entry::ParDot | Entry::AdaDot => hash_aos(&[self.dot]),
            _ => hash_aos(&self.y),
        }
    }

    fn oracle_accepts(&self) -> bool {
        match self.entry {
            Entry::ParDot | Entry::AdaDot => {
                exact_dot(self.x.iter().copied(), self.y.iter().copied()).accepts(&self.dot)
            }
            _ => accepts_axpy(self.alpha, &self.x, &self.y0, |i| self.y[i]),
        }
    }

    fn perturb(&mut self) {
        match self.entry {
            Entry::ParDot | Entry::AdaDot => self.dot = check::perturbed(self.dot),
            _ => self.y[0] = check::perturbed(self.y[0]),
        }
    }
}

struct AosGemv<const N: usize> {
    entry: Entry,
    alpha: Mf<N>,
    beta: Mf<N>,
    a: Matrix<Mf<N>>,
    x: Vec<Mf<N>>,
    y0: Vec<Mf<N>>,
    y: Vec<Mf<N>>,
}

impl<const N: usize> Task for AosGemv<N> {
    fn reset(&mut self) {
        if self.entry == Entry::ParGemv {
            self.y.copy_from_slice(&self.y0);
        }
    }

    fn run(&mut self, policy: &EscalationPolicy) -> Option<AdaptiveReport> {
        if self.entry == Entry::AdaGemv {
            let (v, r) = adaptive::gemv_adaptive(x2(&self.a), x2v(&self.x), policy, THREADS);
            *x2_mut::<_, Vec<F64x2>>(&mut self.y) = v;
            return Some(r);
        }
        parallel::gemv(
            self.alpha,
            &self.a,
            &self.x,
            self.beta,
            &mut self.y,
            THREADS,
        );
        None
    }

    fn hash(&self) -> u64 {
        hash_aos(&self.y)
    }

    fn oracle_accepts(&self) -> bool {
        let scale = (self.entry == Entry::ParGemv).then_some((self.alpha, self.beta, &self.y0[..]));
        accepts_gemv(|i, j| self.a.at(i, j), &self.x, scale, |i| self.y[i])
    }

    fn perturb(&mut self) {
        self.y[0] = check::perturbed(self.y[0]);
    }
}

struct AosGemm<const N: usize> {
    alpha: Mf<N>,
    beta: Mf<N>,
    a: Matrix<Mf<N>>,
    b: Matrix<Mf<N>>,
    c0: Matrix<Mf<N>>,
    c: Matrix<Mf<N>>,
    samples: Vec<(usize, usize)>,
}

impl<const N: usize> Task for AosGemm<N> {
    fn reset(&mut self) {
        self.c.data.copy_from_slice(&self.c0.data);
    }

    fn run(&mut self, _: &EscalationPolicy) -> Option<AdaptiveReport> {
        parallel::gemm(
            self.alpha,
            &self.a,
            &self.b,
            self.beta,
            &mut self.c,
            THREADS,
        );
        None
    }

    fn hash(&self) -> u64 {
        hash_aos(&self.c.data)
    }

    fn oracle_accepts(&self) -> bool {
        accepts_gemm(
            (self.alpha, self.beta),
            |i, k| self.a.at(i, k),
            |k, j| self.b.at(k, j),
            |i, j| self.c0.at(i, j),
            self.a.rows,
            &self.samples,
            |i, j| self.c.at(i, j),
        )
    }

    fn perturb(&mut self) {
        let (i, j) = self.samples[0];
        self.c.set(i, j, check::perturbed(self.c.at(i, j)));
    }
}

struct SoaVector<const N: usize> {
    entry: Entry,
    alpha: Mf<N>,
    x: SoaVec<f64, N>,
    y0: SoaVec<f64, N>,
    y: SoaVec<f64, N>,
    dot: Mf<N>,
}

impl<const N: usize> Task for SoaVector<N> {
    fn reset(&mut self) {
        if self.entry == Entry::SoaAxpy {
            for (d, s) in self.y.comps.iter_mut().zip(&self.y0.comps) {
                d.copy_from_slice(s);
            }
        }
    }

    fn run(&mut self, _: &EscalationPolicy) -> Option<AdaptiveReport> {
        match self.entry {
            Entry::SoaAxpy => soa::axpy(self.alpha, &self.x, &mut self.y),
            _ => self.dot = soa::dot(&self.x, &self.y),
        }
        None
    }

    fn hash(&self) -> u64 {
        match self.entry {
            Entry::SoaAxpy => hash_soa(&self.y.comps),
            _ => hash_aos(&[self.dot]),
        }
    }

    fn oracle_accepts(&self) -> bool {
        let x = self.x.to_vec();
        match self.entry {
            Entry::SoaAxpy => accepts_axpy(self.alpha, &x, &self.y0.to_vec(), |i| self.y.get(i)),
            _ => exact_dot(x.into_iter(), self.y.to_vec().into_iter()).accepts(&self.dot),
        }
    }

    fn perturb(&mut self) {
        match self.entry {
            Entry::SoaAxpy => self.y.set(0, check::perturbed(self.y.get(0))),
            _ => self.dot = check::perturbed(self.dot),
        }
    }
}

struct SoaGemv<const N: usize> {
    alpha: Mf<N>,
    beta: Mf<N>,
    a: SoaMatrix<f64, N>,
    x: SoaVec<f64, N>,
    y0: SoaVec<f64, N>,
    y: SoaVec<f64, N>,
}

impl<const N: usize> Task for SoaGemv<N> {
    fn reset(&mut self) {
        for (d, s) in self.y.comps.iter_mut().zip(&self.y0.comps) {
            d.copy_from_slice(s);
        }
    }

    fn run(&mut self, _: &EscalationPolicy) -> Option<AdaptiveReport> {
        soa::gemv(self.alpha, &self.a, &self.x, self.beta, &mut self.y);
        None
    }

    fn hash(&self) -> u64 {
        hash_soa(&self.y.comps)
    }

    fn oracle_accepts(&self) -> bool {
        let y0 = self.y0.to_vec();
        let scale = Some((self.alpha, self.beta, &y0[..]));
        accepts_gemv(
            |i, j| self.a.get(i, j),
            &self.x.to_vec(),
            scale,
            |i| self.y.get(i),
        )
    }

    fn perturb(&mut self) {
        self.y.set(0, check::perturbed(self.y.get(0)));
    }
}

struct TileGemm<const N: usize> {
    alpha: Mf<N>,
    beta: Mf<N>,
    a: SoaMatrix<f64, N>,
    b: SoaMatrix<f64, N>,
    c0: SoaMatrix<f64, N>,
    c: SoaMatrix<f64, N>,
    samples: Vec<(usize, usize)>,
}

impl<const N: usize> Task for TileGemm<N> {
    fn reset(&mut self) {
        for (d, s) in self.c.comps.iter_mut().zip(&self.c0.comps) {
            d.copy_from_slice(s);
        }
    }

    fn run(&mut self, _: &EscalationPolicy) -> Option<AdaptiveReport> {
        tile::gemm_tiled(
            self.alpha,
            &self.a,
            &self.b,
            self.beta,
            &mut self.c,
            THREADS,
        );
        None
    }

    fn hash(&self) -> u64 {
        hash_soa(&self.c.comps)
    }

    fn oracle_accepts(&self) -> bool {
        accepts_gemm(
            (self.alpha, self.beta),
            |i, k| self.a.get(i, k),
            |k, j| self.b.get(k, j),
            |i, j| self.c0.get(i, j),
            self.a.rows,
            &self.samples,
            |i, j| self.c.get(i, j),
        )
    }

    fn perturb(&mut self) {
        let (i, j) = self.samples[0];
        self.c.set(i, j, check::perturbed(self.c.get(i, j)));
    }
}

/// Convert generated inputs into library types: the program's set-up.
fn pack<const N: usize>(r: &Raw) -> Box<dyn Task> {
    let (alpha, beta, n) = (scalar::<N>(&r.alpha), scalar::<N>(&r.beta), r.size);
    let [p, q, s] = &r.arrays;
    match r.entry {
        Entry::ParAxpy | Entry::ParDot | Entry::AdaDot | Entry::AdaAxpy => {
            let y0 = elems::<N>(q);
            Box::new(AosVector {
                entry: r.entry,
                alpha,
                x: elems::<N>(p),
                y: y0.clone(),
                y0,
                dot: Mf::<N>::ZERO,
            })
        }
        Entry::ParGemv | Entry::AdaGemv => {
            let y0 = elems::<N>(s);
            Box::new(AosGemv {
                entry: r.entry,
                alpha,
                beta,
                a: matrix::<N>(p, n),
                x: elems::<N>(q),
                y: y0.clone(),
                y0,
            })
        }
        Entry::ParGemm => {
            let c0 = matrix::<N>(s, n);
            Box::new(AosGemm {
                alpha,
                beta,
                a: matrix::<N>(p, n),
                b: matrix::<N>(q, n),
                c: c0.clone(),
                c0,
                samples: r.gemm_samples.clone(),
            })
        }
        Entry::SoaAxpy | Entry::SoaDot => {
            let y0 = SoaVec::from_slice(&elems::<N>(q));
            Box::new(SoaVector {
                entry: r.entry,
                alpha,
                x: SoaVec::from_slice(&elems::<N>(p)),
                y: y0.clone(),
                y0,
                dot: Mf::<N>::ZERO,
            })
        }
        Entry::SoaGemv => {
            let y0 = SoaVec::from_slice(&elems::<N>(s));
            Box::new(SoaGemv {
                alpha,
                beta,
                a: soa_matrix::<N>(p, n),
                x: SoaVec::from_slice(&elems::<N>(q)),
                y: y0.clone(),
                y0,
            })
        }
        Entry::TileGemm => {
            let c0 = soa_matrix::<N>(s, n);
            Box::new(TileGemm {
                alpha,
                beta,
                a: soa_matrix::<N>(p, n),
                b: soa_matrix::<N>(q, n),
                c: c0.clone(),
                c0,
                samples: r.gemm_samples.clone(),
            })
        }
    }
}

fn pack_any(r: &Raw) -> Box<dyn Task> {
    match r.width {
        2 => pack::<2>(r),
        3 => pack::<3>(r),
        4 => pack::<4>(r),
        w => unreachable!("no width {w}"),
    }
}

struct Spec {
    task: Box<dyn Task>,
    /// Oracle verdicts by output hash. The kernels are deterministic, so
    /// every distinct output of an input set is judged once.
    verdicts: BTreeMap<u64, bool>,
}

impl Spec {
    fn judge(&mut self) -> Outcome {
        let task = &self.task;
        let ok = *self
            .verdicts
            .entry(task.hash())
            .or_insert_with(|| task.oracle_accepts());
        if ok {
            Outcome::Pass
        } else {
            Outcome::OutOfTolerance
        }
    }
}

pub struct Blas {
    raws: Vec<Raw>,
    /// Packed by [`Workload::setup`], parallel to `raws`.
    specs: Vec<Spec>,
    order: Vec<u32>,
    policy: EscalationPolicy,
    adaptive: AdaptiveReport,
}

impl Blas {
    /// `blas-n2`: all eleven entry points at `F64x2`. `blas-wide`: the
    /// eight that exist beyond `N = 2`, at `F64x3` and `F64x4`, on sizes
    /// cut so that a call costs about what it does at `N = 2`.
    pub fn new(name: &'static str, rng: &mut Rng) -> Self {
        let (widths, entries, sizes): (&[usize], Vec<Entry>, Sizes) = match name {
            "blas-n2" => (
                &[2],
                Entry::ALL.to_vec(),
                Sizes {
                    vector: (64.0, 65536.0),
                    matrix: (32.0, 256.0),
                },
            ),
            _ => (
                &[3, 4],
                Entry::ALL
                    .iter()
                    .copied()
                    .filter(|e| !e.is_adaptive())
                    .collect(),
                Sizes {
                    vector: (16.0, 16384.0),
                    matrix: (16.0, 128.0),
                },
            ),
        };
        let mut raws = Vec::new();
        for &w in widths {
            for &e in &entries {
                let mut r = rng.fork((w * 100 + e as usize) as u64);
                let range = if e.shape() == Shape::Vector {
                    sizes.vector
                } else {
                    sizes.matrix
                };
                for size in crate::stats::log_grid(range.0, range.1, SPECS) {
                    let size = size.round() as usize;
                    raws.push(match w {
                        2 => gen_raw::<2>(&mut r, e, size),
                        3 => gen_raw::<3>(&mut r, e, size),
                        _ => gen_raw::<4>(&mut r, e, size),
                    });
                }
            }
        }
        let order = schedule(&raws);
        Blas {
            raws,
            specs: Vec::new(),
            order,
            policy: EscalationPolicy::default(),
            adaptive: AdaptiveReport::default(),
        }
    }
}

/// Seed of the burst order. The order is the same for every workload seed:
/// the first call of a burst runs on a cache the previous burst left, and
/// those calls sit in the latency tail, so a seeded order would move
/// `task_ms_p99` with the seed.
const ORDER_SEED: u64 = 0x0b5e_55ed;

/// One round: every input set's burst of calls, bursts interleaved in a
/// fixed pseudo-random order. Each (entry point, width) group does about
/// as many multiply-adds per round as the costliest group, so every spec
/// of a group repeats `max_ops / group_ops` times. The weights come from
/// operation counts alone, never from measured speed, so they are the same
/// on every commit.
fn schedule(raws: &[Raw]) -> Vec<u32> {
    let mut group_ops = BTreeMap::new();
    for r in raws {
        *group_ops.entry((r.entry, r.width)).or_insert(0u64) += r.ops();
    }
    let target = *group_ops.values().max().expect("at least one spec") as f64;
    let mut bursts: Vec<usize> = (0..raws.len()).collect();
    Rng::new(ORDER_SEED).shuffle(&mut bursts);
    bursts
        .into_iter()
        .flat_map(|i| {
            let r = &raws[i];
            let reps = (target / group_ops[&(r.entry, r.width)] as f64)
                .round()
                .max(1.0);
            std::iter::repeat_n(i as u32, reps as usize)
        })
        .collect()
}

impl Workload for Blas {
    fn setup(&mut self) {
        // Pool start (torn down first, so every repetition pays it), ISA
        // selection, and packing every input into library types.
        mf_blas::pool::shutdown();
        black_box(parallel::dot(&[F64x2::ONE; 2], &[F64x2::ONE; 2], THREADS));
        black_box(mf_blas::simd::active());
        self.specs.clear();
        self.specs = self
            .raws
            .iter()
            .map(|r| Spec {
                task: pack_any(r),
                verdicts: BTreeMap::new(),
            })
            .collect();
    }

    fn verify_all(&mut self) {
        let policy = self.policy;
        for s in &mut self.specs {
            s.task.reset();
            if catch_unwind(AssertUnwindSafe(|| s.task.run(&policy))).is_ok() {
                s.judge();
            }
        }
    }

    fn round(&self) -> Vec<u32> {
        self.order.clone()
    }

    fn task(&mut self, slot: u32, rec: Option<&mut Recorder>) -> (u64, Outcome) {
        let policy = self.policy;
        let entry = self.raws[slot as usize].entry;
        let s = &mut self.specs[slot as usize];
        s.task.reset();
        let (ns, ran) = match rec {
            None => {
                let t0 = Instant::now();
                let ran = catch_unwind(AssertUnwindSafe(|| s.task.run(&policy)));
                (t0.elapsed().as_nanos() as u64, ran)
            }
            Some(rec) => {
                let t0 = Instant::now();
                rec.open("task", false);
                rec.open(entry.span(), entry.is_parallel());
                let ran = catch_unwind(AssertUnwindSafe(|| s.task.run(&policy)));
                rec.close();
                rec.close();
                let ns = t0.elapsed().as_nanos() as u64;
                if let Ok(Some(r)) = ran {
                    self.adaptive.chunks += r.chunks;
                    self.adaptive.escalated += r.escalated;
                }
                (ns, ran)
            }
        };
        let outcome = match ran {
            Err(_) => Outcome::Panicked,
            Ok(_) => self.specs[slot as usize].judge(),
        };
        (ns, outcome)
    }

    fn negative_control(&mut self) -> Outcome {
        let policy = self.policy;
        let s = &mut self.specs[0];
        s.task.reset();
        s.task.run(&policy);
        s.task.perturb();
        s.judge()
    }

    fn operands(&self, rng: &mut Rng, width: usize, count: usize) -> Vec<f64> {
        match width {
            2 => gen_elems::<2>(rng, count),
            3 => gen_elems::<3>(rng, count),
            _ => gen_elems::<4>(rng, count),
        }
    }

    fn layer_metrics(&mut self, totals: &crate::LayerTotals, out: &mut Vec<Metric>) {
        // Per entry point, from the spans around the workload's calls.
        let mut ops = BTreeMap::<&str, u64>::new();
        for &slot in &self.order {
            let r = &self.raws[slot as usize];
            *ops.entry(r.entry.span()).or_default() += r.ops();
        }
        let rounds = totals.rounds as u64;
        for e in Entry::ALL {
            let t = totals.by_name.get(e.span()).copied().unwrap_or_default();
            let gops = if t.total_ns > 0 {
                (ops.get(e.span()).copied().unwrap_or(0) * rounds) as f64 / t.total_ns as f64
            } else {
                0.0
            };
            out.push(Metric::new(
                format!("{}.calls", e.span()),
                t.calls as f64,
                "count",
            ));
            out.push(Metric::new(
                format!("{}.share", e.span()),
                t.self_ns as f64 / totals.task_ns as f64,
                "fraction",
            ));
            out.push(Metric::new(format!("{}.gops", e.span()), gops, "Gop/s"));
        }
        let (mut cpu, mut wall) = (0u64, 0u64);
        for e in Entry::ALL.iter().filter(|e| e.is_parallel()) {
            let t = totals.by_name.get(e.span()).copied().unwrap_or_default();
            cpu += t.cpu_ns;
            wall += t.total_ns;
        }
        out.push(Metric::new(
            "blas.parallel.cpu_util",
            cpu as f64 / wall.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new(
            "blas.parallel.dispatch_us_p50",
            self.dispatch_us_p50(),
            "us",
        ));
        out.push(Metric::new(
            "blas.pool.workers",
            mf_blas::pool::worker_count() as f64,
            "count",
        ));
        out.push(Metric::new(
            "blas.adaptive.escalation_rate",
            self.adaptive.escalation_rate(),
            "fraction",
        ));
    }
}

impl Blas {
    /// Parallel DOT minus serial `kernels::dot` on the smallest vector
    /// length of the workload, at its narrowest width: the pool's
    /// per-call dispatch cost.
    fn dispatch_us_p50(&self) -> f64 {
        let r = self
            .raws
            .iter()
            .filter(|r| r.entry == Entry::ParDot)
            .min_by_key(|r| (r.width, r.size))
            .expect("a parallel dot spec");
        match r.width {
            2 => dispatch_cost::<2>(r),
            3 => dispatch_cost::<3>(r),
            _ => dispatch_cost::<4>(r),
        }
    }
}

fn dispatch_cost<const N: usize>(r: &Raw) -> f64 {
    let (x, y) = (elems::<N>(&r.arrays[0]), elems::<N>(&r.arrays[1]));
    let p50 = |f: &dyn Fn() -> Mf<N>| {
        let mut v: Vec<f64> = (0..4000)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        v.sort_by(f64::total_cmp);
        crate::stats::percentile(&v, 0.5)
    };
    let par = p50(&|| parallel::dot(black_box(&x), black_box(&y), THREADS));
    let ser = p50(&|| mf_blas::kernels::dot(black_box(&x), black_box(&y)));
    (par - ser) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_point_passes_its_oracle_and_fails_the_control() {
        let mut rng = Rng::new(3);
        for (w, entries) in [
            (2, Entry::ALL.to_vec()),
            (3, vec![Entry::SoaGemv, Entry::TileGemm]),
        ] {
            for e in entries {
                let size = if e.shape() == Shape::Vector { 37 } else { 9 };
                let raw = if w == 2 {
                    gen_raw::<2>(&mut rng, e, size)
                } else {
                    gen_raw::<3>(&mut rng, e, size)
                };
                let mut s = Spec {
                    task: pack_any(&raw),
                    verdicts: BTreeMap::new(),
                };
                for _ in 0..2 {
                    s.task.reset();
                    s.task.run(&EscalationPolicy::default());
                    assert_eq!(s.judge(), Outcome::Pass, "{e:?} at N={w}");
                }
                // Repeats are bit-identical, so one oracle verdict covers them.
                assert_eq!(s.verdicts.len(), 1, "{e:?} repeats bit for bit");
                s.task.perturb();
                assert_eq!(s.judge(), Outcome::OutOfTolerance, "{e:?} control");
                assert_eq!(s.verdicts.len(), 2);
            }
        }
    }

    #[test]
    fn weights_balance_groups_by_operation_count() {
        let mut rng = Rng::new(5);
        let b = Blas::new("blas-n2", &mut rng);
        let mut per_group = BTreeMap::<Entry, u64>::new();
        for &slot in &b.order {
            let r = &b.raws[slot as usize];
            *per_group.entry(r.entry).or_default() += r.ops();
        }
        let max = *per_group.values().max().unwrap() as f64;
        for (e, ops) in per_group {
            assert!(ops as f64 > 0.8 * max, "{e:?}: {ops} vs {max}");
        }
    }
}
