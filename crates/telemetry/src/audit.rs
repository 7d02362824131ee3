//! Shadow-oracle audit sampling: live numerical-health telemetry.
//!
//! The conformance harness checks accuracy *offline*; this module closes
//! the loop for a *running* process. Hot paths (guarded scalar ops in
//! `mf-core`, BLAS kernels in `mf-blas`) draw a cheap per-op-class
//! Bernoulli sample; sampled operations are copied — operands and result,
//! as plain `f64` expansion components — into a per-thread bounded SPSC
//! ring and handed to one background **auditor thread**, which recomputes
//! each op against an installed oracle (the `MpFloat` recompute function
//! from `mf-core`; this crate stays dependency-free) and feeds the
//! registry:
//!
//! * `audit.ulp.<class>` — [`Histogram`] of the *scaled* relative error
//!   `rel_err · 2^(bound_bits + ULP_FRAC_BITS)`: a sample exactly at the
//!   documented bound records [`AT_BOUND`] (256); each log2 bucket above
//!   that is one bit *past* the bound, each bucket below is one bit of
//!   headroom. Clean workloads sit in buckets 0–2;
//! * `audit.margin.<class>` — [`Gauge`](crate::Gauge) holding the minimum
//!   observed bound margin in bits (`-log2(rel_err) - bound_bits`, clamped
//!   to ±[`MARGIN_CAP`]); negative means a sampled op *violated* its
//!   documented bound;
//! * counters `audit.sampled` / `audit.dropped` (ring full) /
//!   `audit.audited` / `audit.skipped` (no oracle installed, or the oracle
//!   declined the sample) / `audit.violations`, plus an `audit.violation`
//!   structured event per violation.
//!
//! Cost model: the *not sampled* fast path is two relaxed loads and one
//! xorshift step (~1–2 ns); feature-disabled builds const-fold everything
//! to nothing ([`crate::ENABLED`]). The sampled path copies ~200 bytes
//! into the calling thread's ring; the `MpFloat` recompute runs entirely
//! on the auditor thread. The sampling rate comes from `MF_AUDIT_RATE`
//! (a probability; default [`DEFAULT_RATE`]) or [`set_rate`].
//!
//! Ring discipline mirrors [`crate::trace`]: each producer thread owns a
//! bounded ring (`Release`-published head, `Acquire`-read by the single
//! consumer), full rings drop new samples (never block, never overwrite),
//! and drops are counted.

use crate::{Counter, Gauge, Histogram, ENABLED};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default sampling probability when `MF_AUDIT_RATE` is unset.
pub const DEFAULT_RATE: f64 = 1.0 / 1024.0;

/// Fractional resolution of the scaled-error histograms: an op exactly at
/// its documented bound records `2^ULP_FRAC_BITS`.
pub const ULP_FRAC_BITS: u32 = 8;

/// Scaled-error value of a sample exactly at its documented bound.
pub const AT_BOUND: u64 = 1 << ULP_FRAC_BITS;

/// Margin gauges are clamped to `±MARGIN_CAP` bits (an exact result has
/// unbounded margin; a NaN result has unbounded deficit).
pub const MARGIN_CAP: i64 = 400;

/// Slots per per-thread ring (samples in flight to the auditor).
const RING_SLOTS: usize = 512;

/// The operation classes the audit layer distinguishes. Fixed so the
/// per-class probes can be `static` arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    Add,
    Sub,
    Mul,
    Div,
    Recip,
    Sqrt,
    /// A dot-product element transform (`r ?= a·b + c`).
    Dot,
    /// A fused axpy element (`r ?= a·b + c`).
    Axpy,
}

impl OpClass {
    pub const ALL: [OpClass; 8] = [
        OpClass::Add,
        OpClass::Sub,
        OpClass::Mul,
        OpClass::Div,
        OpClass::Recip,
        OpClass::Sqrt,
        OpClass::Dot,
        OpClass::Axpy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::Add => "add",
            OpClass::Sub => "sub",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::Recip => "recip",
            OpClass::Sqrt => "sqrt",
            OpClass::Dot => "dot",
            OpClass::Axpy => "axpy",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }

    /// True for the unary classes (`b`/`c` unused).
    pub fn is_unary(self) -> bool {
        matches!(self, OpClass::Recip | OpClass::Sqrt)
    }

    /// True for the fused three-operand classes (`r ?= a·b + c`).
    pub fn is_fused(self) -> bool {
        matches!(self, OpClass::Dot | OpClass::Axpy)
    }
}

/// One sampled operation, as plain data: expansion components widened
/// losslessly to `f64` (both hardware bases embed), up to 4 terms.
/// Semantics by class: `Add`/`Sub`/`Mul`/`Div` check `r ?= a ∘ b`;
/// `Recip`/`Sqrt` check `r ?= op(a)`; `Dot`/`Axpy` check `r ?= a·b + c`.
#[derive(Clone, Copy, Debug)]
pub struct AuditSample {
    pub class: OpClass,
    /// Expansion terms per operand (1..=4); unused slots are zero.
    pub n: u8,
    /// Base-format precision in bits (53 for f64 bases, 24 for f32).
    pub prec: u16,
    pub a: [f64; 4],
    pub b: [f64; 4],
    pub c: [f64; 4],
    pub r: [f64; 4],
}

impl AuditSample {
    /// A zeroed sample (ring slot initializer).
    const EMPTY: AuditSample = AuditSample {
        class: OpClass::Add,
        n: 0,
        prec: 0,
        a: [0.0; 4],
        b: [0.0; 4],
        c: [0.0; 4],
        r: [0.0; 4],
    };
}

/// What the oracle found for one sample.
#[derive(Clone, Copy, Debug)]
pub struct AuditFinding {
    /// Backward-style relative error of `r` against the exact recompute
    /// (cancellation-safe denominator; see the oracle in `mf-core`).
    /// `f64::INFINITY` for a non-finite result from finite inputs.
    pub rel_err: f64,
    /// True when `r` contains a non-finite component despite finite inputs.
    pub nonfinite: bool,
}

/// The oracle recompute function, installed once by `mf-core`
/// ([`install_oracle`]). Returns `None` to decline a sample (counted as
/// skipped).
pub type AuditOracle = fn(&AuditSample) -> Option<AuditFinding>;

/// Documented audit tolerance for one op class: the bound (in bits of
/// relative error, `rel_err <= 2^-bound_bits`) the auditor holds sampled
/// results to. Deliberately conservative — several bits looser than the
/// worst case the conformance harness observes — so the margin gauges read
/// positive headroom on clean workloads and alerting never flaps on the
/// paper-bound frontier. `prec` is the base precision (53/24), `n` the
/// expansion length.
pub fn bound_bits(class: OpClass, prec: u32, n: u8) -> u16 {
    let full = prec * n as u32;
    let slack = match class {
        OpClass::Add | OpClass::Sub => 12,
        OpClass::Mul => 14,
        OpClass::Div | OpClass::Recip | OpClass::Sqrt => 16,
        OpClass::Dot | OpClass::Axpy => 18,
    };
    full.saturating_sub(slack).max(8) as u16
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

static SAMPLED: Counter = Counter::new("audit.sampled");
static DROPPED: Counter = Counter::new("audit.dropped");
static RINGS_REAPED: Counter = Counter::new("audit.rings_reaped");
static AUDITED: Counter = Counter::new("audit.audited");
static SKIPPED: Counter = Counter::new("audit.skipped");
static VIOLATIONS: Counter = Counter::new("audit.violations");

static ULP: [Histogram; 8] = [
    Histogram::new("audit.ulp.add"),
    Histogram::new("audit.ulp.sub"),
    Histogram::new("audit.ulp.mul"),
    Histogram::new("audit.ulp.div"),
    Histogram::new("audit.ulp.recip"),
    Histogram::new("audit.ulp.sqrt"),
    Histogram::new("audit.ulp.dot"),
    Histogram::new("audit.ulp.axpy"),
];

static MARGIN: [Gauge; 8] = [
    Gauge::new("audit.margin.add"),
    Gauge::new("audit.margin.sub"),
    Gauge::new("audit.margin.mul"),
    Gauge::new("audit.margin.div"),
    Gauge::new("audit.margin.recip"),
    Gauge::new("audit.margin.sqrt"),
    Gauge::new("audit.margin.dot"),
    Gauge::new("audit.margin.axpy"),
];

// ---------------------------------------------------------------------------
// Sampling decision.
// ---------------------------------------------------------------------------

/// Sampling threshold: sample when the next xorshift draw is below it.
/// `0` = never, `u64::MAX` = (effectively) always.
static THRESHOLD: AtomicU64 = AtomicU64::new(0);
static THRESHOLD_INIT: AtomicBool = AtomicBool::new(false);

fn rate_to_threshold(rate: f64) -> u64 {
    let r = rate.clamp(0.0, 1.0);
    if r >= 1.0 {
        u64::MAX
    } else {
        (r * u64::MAX as f64) as u64
    }
}

/// Set the sampling probability programmatically (overrides
/// `MF_AUDIT_RATE`; tests and the soak harness use this — mutating the
/// environment at runtime is racy).
pub fn set_rate(rate: f64) {
    if !ENABLED {
        return;
    }
    THRESHOLD.store(rate_to_threshold(rate), Ordering::Relaxed);
    THRESHOLD_INIT.store(true, Ordering::Relaxed);
}

/// The current sampling probability.
pub fn rate() -> f64 {
    if !ENABLED {
        return 0.0;
    }
    ensure_threshold() as f64 / u64::MAX as f64
}

#[inline(always)]
fn ensure_threshold() -> u64 {
    if !THRESHOLD_INIT.load(Ordering::Relaxed) {
        init_threshold_slow();
    }
    THRESHOLD.load(Ordering::Relaxed)
}

#[cold]
fn init_threshold_slow() {
    let rate = std::env::var("MF_AUDIT_RATE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|r| r.is_finite() && *r >= 0.0)
        .unwrap_or(DEFAULT_RATE);
    THRESHOLD.store(rate_to_threshold(rate), Ordering::Relaxed);
    THRESHOLD_INIT.store(true, Ordering::Relaxed);
}

thread_local! {
    static RNG: Cell<u64> = const { Cell::new(0) };
}

/// splitmix64 step — used both to seed and to advance the per-thread
/// xorshift state.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline(always)]
fn rng_next() -> u64 {
    RNG.with(|r| {
        let mut s = r.get();
        if s == 0 {
            static SEED_CTR: AtomicU64 = AtomicU64::new(0x5eed);
            s = splitmix64(SEED_CTR.fetch_add(0x9e37_79b9, Ordering::Relaxed));
            s |= 1;
        }
        // xorshift64*
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        r.set(s);
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    })
}

/// One Bernoulli(rate) draw: should this scalar operation be audited?
/// Not-sampled cost: two relaxed loads plus one xorshift step; zero with
/// the feature disabled.
#[inline(always)]
pub fn should_sample() -> bool {
    if !ENABLED {
        return false;
    }
    let t = ensure_threshold();
    if t == 0 {
        return false;
    }
    rng_next() < t
}

/// Vector-op sampling: decide once per kernel call with probability
/// `min(1, rate · len)` and pick a uniform element index, so the
/// *per-element* sampling rate matches [`should_sample`] without a draw
/// per element.
#[inline]
pub fn should_sample_index(len: usize) -> Option<usize> {
    if !ENABLED || len == 0 {
        return None;
    }
    let t = ensure_threshold();
    if t == 0 {
        return None;
    }
    let p = (t as f64 / u64::MAX as f64 * len as f64).min(1.0);
    let draw = rng_next();
    if (draw as f64) < p * u64::MAX as f64 {
        Some((rng_next() % len as u64) as usize)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// SPSC hand-off rings and the auditor thread.
// ---------------------------------------------------------------------------

/// A bounded single-producer (owning thread) / single-consumer (auditor)
/// ring. The producer publishes `head` with `Release` after writing the
/// slot; the consumer reads with `Acquire` and publishes `tail` with
/// `Release` after copying the slot out.
struct Ring {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[UnsafeCell<AuditSample>]>,
}

// SAFETY: the slot at index i is written only by the producer while
// `tail <= i < head + 1` is unpublished, and read only by the consumer
// after the `Release`/`Acquire` pair on `head`; the `tail` hand-back uses
// the symmetric pair, so producer and consumer never touch a slot
// concurrently.
unsafe impl Sync for Ring {}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| UnsafeCell::new(AuditSample::EMPTY))
                .collect(),
        }
    }

    /// Producer side: push or drop-on-full (never blocks).
    fn push(&self, sample: AuditSample) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_SLOTS {
            return false;
        }
        // SAFETY: this slot is outside the consumer's published window
        // (see the `Sync` justification above), and this thread is the
        // only producer.
        unsafe {
            *self.slots[head % RING_SLOTS].get() = sample;
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: drain everything published so far into `f`.
    fn drain(&self, f: &mut impl FnMut(AuditSample)) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let mut i = tail;
        while i != head {
            // SAFETY: `tail <= i < head` is published by the producer and
            // not yet handed back, so the slot is stable.
            let s = unsafe { *self.slots[i % RING_SLOTS].get() };
            f(s);
            i = i.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Release);
        head.wrapping_sub(tail)
    }

    /// Consumer-side emptiness check (used by the reaper).
    fn is_empty(&self) -> bool {
        self.tail.load(Ordering::Relaxed) == self.head.load(Ordering::Acquire)
    }
}

struct AuditState {
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Bumped (under the `rings` lock) whenever the ring list changes, so
    /// the auditor can keep a lock-free cached copy between changes
    /// instead of cloning the list on every sweep.
    rings_gen: AtomicU64,
    oracle: OnceLock<AuditOracle>,
    /// Samples successfully pushed (drops excluded) / processed by the
    /// auditor — the [`flush`] rendezvous.
    pushed: AtomicU64,
    processed: AtomicU64,
    /// Per-class minimum observed margin (auditor-thread-local state would
    /// do, but keeping it here lets tests assert it): `MARGIN_CAP + 1`
    /// means "no sample yet".
    min_margin: [AtomicU64; 8],
}

fn state() -> &'static AuditState {
    static STATE: OnceLock<AuditState> = OnceLock::new();
    STATE.get_or_init(|| AuditState {
        rings: Mutex::new(Vec::new()),
        rings_gen: AtomicU64::new(0),
        oracle: OnceLock::new(),
        pushed: AtomicU64::new(0),
        processed: AtomicU64::new(0),
        min_margin: [const { AtomicU64::new((MARGIN_CAP + 1) as u64) }; 8],
    })
}

/// Install the oracle recompute function (first install wins; `mf-core`
/// does this from its hook layer before submitting any sample).
pub fn install_oracle(f: AuditOracle) {
    if !ENABLED {
        return;
    }
    let _ = state().oracle.set(f);
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// Submit a sampled operation to the auditor thread. Never blocks; drops
/// (and counts) the sample when this thread's ring is full.
pub fn submit(sample: AuditSample) {
    if !ENABLED {
        return;
    }
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring::new());
            let st = state();
            let mut reg = st.rings.lock().unwrap();
            reg.push(Arc::clone(&ring));
            st.rings_gen.fetch_add(1, Ordering::Relaxed);
            drop(reg);
            ensure_auditor();
            ring
        });
        if ring.push(sample) {
            state().pushed.fetch_add(1, Ordering::Relaxed);
            SAMPLED.incr();
        } else {
            DROPPED.incr();
        }
    });
}

/// Idle back-off for the auditor thread between empty sweeps.
const AUDITOR_IDLE: Duration = Duration::from_millis(1);

/// CPU duty-cycle cap for the auditor thread, as an inverse fraction:
/// after a sweep that spent `t` scoring samples, the auditor sleeps
/// `t * (AUDITOR_INVERSE_DUTY - 1)`, bounding oracle recomputation to
/// ~1/32 of one core. This is what keeps the end-to-end audit overhead
/// inside the ≤5% budget *on a single-core host*, where the auditor
/// competes with the workload for the same CPU. Samples arriving during
/// the pause queue in the rings and, past capacity, are dropped and
/// counted (`audit.dropped`) — sampling is best-effort by contract, and
/// the health signal survives subsampling.
const AUDITOR_INVERSE_DUTY: u32 = 32;

/// Upper bound on one duty pause, so a [`flush`] rendezvous after a large
/// burst is never stalled for longer than this per sweep.
const AUDITOR_MAX_PAUSE: Duration = Duration::from_millis(100);

fn ensure_auditor() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        // Detached background thread, same lifecycle as the exposition
        // endpoint's: lives until process exit.
        let _ = std::thread::Builder::new()
            .name("mf-audit".into())
            .spawn(auditor_loop);
    });
}

fn auditor_loop() {
    // Cached copy of the ring list, refreshed only when `rings_gen` moves:
    // the idle sweep (empty rings, 1ms cadence) must not take the lock and
    // clone the list every pass — with many registered rings that turns
    // the idle auditor into a measurable CPU thief on small hosts.
    let mut rings: Vec<Arc<Ring>> = Vec::new();
    let mut seen_gen: u64 = u64::MAX;
    loop {
        let st = state();
        if st.rings_gen.load(Ordering::Relaxed) != seen_gen {
            let reg = st.rings.lock().unwrap();
            rings = reg.clone();
            seen_gen = st.rings_gen.load(Ordering::Relaxed);
        }
        let start = Instant::now();
        let mut drained = 0usize;
        for ring in &rings {
            drained += ring.drain(&mut process_sample);
        }
        // Reap rings whose producer thread has exited: the thread-local
        // handle drops on thread exit, leaving exactly our cache clone and
        // the registry entry (strong count 2). Such a ring was drained
        // just above and can never receive another sample, so an empty one
        // is garbage — without this, workloads that audit from short-lived
        // threads grow the registry (and every sweep) without bound. Only
        // rings already in our cache are candidates, which keeps a freshly
        // registered ring safe even before its first sample is published.
        let dead: Vec<*const Ring> = rings
            .iter()
            .filter(|r| Arc::strong_count(r) == 2 && r.is_empty())
            .map(Arc::as_ptr)
            .collect();
        if !dead.is_empty() {
            let mut reg = st.rings.lock().unwrap();
            reg.retain(|r| !dead.contains(&Arc::as_ptr(r)));
            st.rings_gen.fetch_add(1, Ordering::Relaxed);
            rings = reg.clone();
            seen_gen = st.rings_gen.load(Ordering::Relaxed);
            drop(reg);
            RINGS_REAPED.add(dead.len() as u64);
        }
        if drained == 0 {
            std::thread::sleep(AUDITOR_IDLE);
        } else {
            // Duty-cycle cap (see AUDITOR_INVERSE_DUTY).
            let pause = start.elapsed() * (AUDITOR_INVERSE_DUTY - 1);
            if !pause.is_zero() {
                std::thread::sleep(pause.min(AUDITOR_MAX_PAUSE));
            }
        }
    }
}

/// Auditor-side: recompute one sample against the oracle and record the
/// per-class health metrics.
fn process_sample(sample: AuditSample) {
    let finding = state().oracle.get().and_then(|oracle| oracle(&sample));
    match finding {
        None => SKIPPED.incr(),
        Some(f) => record_finding(sample.class, bound_of(&sample), f),
    }
    state().processed.fetch_add(1, Ordering::Relaxed);
}

fn bound_of(sample: &AuditSample) -> u16 {
    bound_bits(sample.class, sample.prec as u32, sample.n)
}

fn record_finding(class: OpClass, bound: u16, f: AuditFinding) {
    AUDITED.incr();
    let i = class.idx();

    // Scaled error: rel_err · 2^(bound + ULP_FRAC_BITS), so AT_BOUND (256)
    // marks the documented bound and log2 distance reads off in bits.
    let scaled = f.rel_err * exp2(bound as i32 + ULP_FRAC_BITS as i32);
    let scaled = if scaled.is_finite() && scaled < u64::MAX as f64 {
        scaled.round() as u64
    } else {
        u64::MAX
    };
    ULP[i].record(scaled);

    // Margin: bits of headroom below the documented bound (negative =
    // violated). rel_err == 0 means an exact result: maximal headroom.
    let margin = if f.rel_err == 0.0 {
        MARGIN_CAP
    } else if f.rel_err.is_finite() {
        ((-f.rel_err.log2()) - bound as f64).floor() as i64
    } else {
        -MARGIN_CAP
    }
    .clamp(-MARGIN_CAP, MARGIN_CAP);

    // The auditor is the sole writer, so read-modify-write is safe.
    let slot = &state().min_margin[i];
    let prev = slot.load(Ordering::Relaxed) as i64;
    if margin < prev {
        slot.store(margin as u64, Ordering::Relaxed);
        MARGIN[i].set(margin);
    } else if prev <= MARGIN_CAP {
        // Keep the gauge registered/current even when the min stands.
        MARGIN[i].set(prev);
    }

    if f.nonfinite || margin < 0 {
        VIOLATIONS.incr();
        crate::event(
            "audit.violation",
            &[
                ("class", i as f64),
                ("margin_bits", margin as f64),
                ("rel_err", f.rel_err),
                ("nonfinite", f.nonfinite as u8 as f64),
            ],
        );
    }
}

fn exp2(e: i32) -> f64 {
    f64::from_bits(((e.clamp(-1022, 1023) + 1023) as u64) << 52)
}

/// Minimum observed bound margin for one class, if any sample has been
/// audited ([`flush`] first for determinism).
pub fn min_margin(class: OpClass) -> Option<i64> {
    if !ENABLED {
        return None;
    }
    let v = state().min_margin[class.idx()].load(Ordering::Relaxed) as i64;
    (v <= MARGIN_CAP).then_some(v)
}

/// Block until every sample submitted *before this call* has been
/// processed by the auditor (bounded by `timeout`). Returns `true` on a
/// complete drain. The soak harness calls this before its final health
/// evaluation; tests use it for determinism.
pub fn flush(timeout: Duration) -> bool {
    if !ENABLED {
        return true;
    }
    let target = state().pushed.load(Ordering::Relaxed);
    let deadline = Instant::now() + timeout;
    while state().processed.load(Ordering::Relaxed) < target {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    #[cfg(feature = "telemetry")]
    mod enabled {
        use super::super::*;
        use std::sync::Mutex;

        /// Rate and oracle are process-global; serialize the tests that
        /// mutate them.
        static LOCK: Mutex<()> = Mutex::new(());

        /// Test oracle: exact by default, a 2^-94 error when `b[0] == 9.0`,
        /// NaN-violation when `r[0]` is NaN, declined when `b[0] == 7.0`.
        fn test_oracle(s: &AuditSample) -> Option<AuditFinding> {
            if s.b[0] == 7.0 {
                return None;
            }
            if s.r[0].is_nan() {
                return Some(AuditFinding {
                    rel_err: f64::INFINITY,
                    nonfinite: true,
                });
            }
            Some(AuditFinding {
                rel_err: if s.b[0] == 9.0 { exp2(-94) } else { 0.0 },
                nonfinite: false,
            })
        }

        fn sample(class: OpClass, b0: f64, r0: f64) -> AuditSample {
            AuditSample {
                class,
                n: 2,
                prec: 53,
                a: [1.0, 0.0, 0.0, 0.0],
                b: [b0, 0.0, 0.0, 0.0],
                c: [0.0; 4],
                r: [r0, 0.0, 0.0, 0.0],
            }
        }

        #[test]
        fn sampled_ops_flow_to_class_metrics() {
            let _g = LOCK.lock().unwrap();
            install_oracle(test_oracle);
            let before = ULP[OpClass::Mul.idx()].snapshot_data();
            // Exact result: headroom capped, bucket 0 (scaled error 0).
            submit(sample(OpClass::Mul, 1.0, 1.0));
            // 2^-94 error against bound_bits(Mul, 53, 2) = 92: margin 2.
            submit(sample(OpClass::Mul, 9.0, 1.0));
            assert!(flush(Duration::from_secs(5)), "auditor drained");
            let after = ULP[OpClass::Mul.idx()].snapshot_data();
            assert_eq!(after.count - before.count, 2);
            // Scaled error of the 2^-94 sample: 2^(92+8-94) = 64.
            assert_eq!(bound_bits(OpClass::Mul, 53, 2), 92);
            assert_eq!(after.buckets[7] - before.buckets[7], 1, "64 → bucket 7");
            assert_eq!(min_margin(OpClass::Mul), Some(2));
            assert_eq!(MARGIN[OpClass::Mul.idx()].get(), 2);
        }

        #[test]
        fn violations_count_and_fire_events() {
            let _g = LOCK.lock().unwrap();
            install_oracle(test_oracle);
            let before = VIOLATIONS.get();
            submit(sample(OpClass::Div, 1.0, f64::NAN));
            assert!(flush(Duration::from_secs(5)));
            assert_eq!(VIOLATIONS.get() - before, 1);
            assert_eq!(min_margin(OpClass::Div), Some(-MARGIN_CAP));
            assert!(crate::snapshot()
                .events
                .iter()
                .any(|e| e.name == "audit.violation"));
        }

        #[test]
        fn declined_samples_are_skipped() {
            let _g = LOCK.lock().unwrap();
            install_oracle(test_oracle);
            let before = SKIPPED.get();
            submit(sample(OpClass::Add, 7.0, 1.0));
            assert!(flush(Duration::from_secs(5)));
            assert_eq!(SKIPPED.get() - before, 1);
        }

        #[test]
        fn rate_controls_sampling() {
            let _g = LOCK.lock().unwrap();
            set_rate(0.0);
            assert!(!(0..1000).any(|_| should_sample()));
            assert!((0..1000).all(|_| should_sample_index(64).is_none()));
            set_rate(1.0);
            assert!((0..100).all(|_| should_sample()));
            for _ in 0..100 {
                let j = should_sample_index(64).expect("rate 1 always samples");
                assert!(j < 64);
            }
            assert!(should_sample_index(0).is_none(), "empty vectors never");
            set_rate(0.5);
            let hits = (0..4000).filter(|_| should_sample()).count();
            assert!((1500..2500).contains(&hits), "p=0.5 drew {hits}/4000");
            // Restore a quiet default for other tests in this binary.
            set_rate(0.0);
        }

        #[test]
        fn bound_bits_table() {
            assert_eq!(bound_bits(OpClass::Add, 53, 2), 94);
            assert_eq!(bound_bits(OpClass::Div, 53, 2), 90);
            assert_eq!(bound_bits(OpClass::Axpy, 53, 2), 88);
            assert_eq!(bound_bits(OpClass::Mul, 53, 4), 198);
            assert_eq!(bound_bits(OpClass::Mul, 24, 2), 34);
            // Degenerate inputs never underflow to a meaningless bound.
            assert!(bound_bits(OpClass::Dot, 24, 0) >= 8);
        }

        #[test]
        fn concurrent_producers_never_lose_accounting() {
            let _g = LOCK.lock().unwrap();
            install_oracle(test_oracle);
            let pushed_before = state().pushed.load(Ordering::Relaxed);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..200 {
                            submit(sample(OpClass::Sqrt, 1.0, 1.0));
                        }
                    });
                }
            });
            assert!(flush(Duration::from_secs(10)), "auditor kept up");
            let pushed = state().pushed.load(Ordering::Relaxed) - pushed_before;
            // Every push was processed; rings may drop under pressure but
            // drops are not pushes.
            assert!(pushed <= 800);
            assert!(state().processed.load(Ordering::Relaxed) >= pushed);
        }

        /// Rings of exited threads are reaped: without this, workloads
        /// that audit from short-lived threads (a fresh thread per task)
        /// grow the registry without bound, and the auditor's
        /// idle sweep over the dead rings becomes a CPU thief.
        #[test]
        fn dead_thread_rings_are_reaped() {
            let _g = LOCK.lock().unwrap();
            install_oracle(test_oracle);
            let reaped_before = RINGS_REAPED.get();
            for _ in 0..32 {
                // b0 == 7.0: the oracle declines, so these samples leave
                // no margin/violation footprint for sibling tests.
                std::thread::spawn(|| submit(sample(OpClass::Add, 7.0, 1.0)))
                    .join()
                    .unwrap();
            }
            assert!(flush(Duration::from_secs(10)), "auditor drained");
            // The 32 producer threads are dead and their rings drained;
            // the auditor must reap all of them (reaped is monotone, so
            // concurrent tests can only add).
            let deadline = Instant::now() + Duration::from_secs(10);
            while RINGS_REAPED.get() < reaped_before + 32 {
                assert!(Instant::now() < deadline, "rings never reaped");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[cfg(not(feature = "telemetry"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn audit_is_a_noop() {
            const { assert!(!ENABLED) };
            set_rate(1.0);
            assert!(!should_sample());
            assert!(should_sample_index(64).is_none());
            assert_eq!(rate(), 0.0);
            submit(AuditSample::EMPTY);
            install_oracle(|_| None);
            assert!(flush(Duration::from_millis(1)));
            assert_eq!(min_margin(OpClass::Add), None);
            assert_eq!(SAMPLED.get(), 0);
            assert_eq!(VIOLATIONS.get(), 0);
        }
    }
}
