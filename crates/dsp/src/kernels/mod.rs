//! Runtime-dispatched SIMD kernels for the pipeline's hottest inner loops.
//!
//! Every kernel has exactly one semantic definition — its `*_ref` scalar
//! reference — and up to three vectorized implementations selected once per
//! process by [`backend`]: AVX2 and SSE2 on `x86_64` (SSE2 is the
//! architectural baseline, so x86 never falls back to scalar unless forced)
//! and NEON on `aarch64`. Everything else runs the reference directly,
//! except the 3×3 median: every backend but AVX2 runs its scalar selection
//! network (its per-pixel `select_nth` reference is only a test oracle).
//!
//! # Equivalence policy (DESIGN.md §6.7)
//!
//! Kernels come in two accuracy classes, and every vectorized body is pinned
//! to its reference by tests in this module plus the workspace lane-remainder
//! property suite:
//!
//! * **bitwise** — elementwise maps (subtract-and-clamp, threshold,
//!   binarize, absolute difference), the FFT butterfly stages, the RealFFT
//!   split, clamped 1-D convolution, and `axpy` perform *the same
//!   operations in the same per-element order* as the reference; no FMA
//!   contraction, no reassociation. Min/max folds are selections (no
//!   rounding), so they are bitwise on any association. The 3×3 median
//!   ([`median3x3`]) is a min/max selection network, bitwise to its
//!   `select_nth` reference on inputs with no NaN and no `−0.0`.
//! * **1e-9** — reductions that use multiple accumulators for throughput
//!   ([`fir_complex_dot`], [`envelope_charge`]) reassociate the sum and are
//!   pinned to the reference within `1e-9` relative error.
//!
//! # Dispatch
//!
//! The backend is detected once (cached in a `OnceLock`) from CPU features,
//! and can be overridden with the `ECHOWRITE_SIMD` environment variable
//! (`scalar`, `sse2`, `avx2`, `neon`); a request the hardware cannot honour
//! degrades to the best supported backend. CI runs the full tier-1 suite
//! with `ECHOWRITE_SIMD=scalar` so the fallback path stays exercised.
//!
//! `std::arch` intrinsics are confined to this module tree by echolint's
//! `simd-boundary` rule; the submodules carry the only sanctioned
//! `allow(unsafe_code)` override in the workspace, and every pointer access
//! is bounded by the slice lengths asserted in the safe wrappers here.

// SIMD intrinsics require `unsafe`; this module is the workspace's single
// sanctioned exception to the `unsafe_code = deny` wall. All pointer
// arithmetic is bounded by slice-length assertions in the safe wrappers.
#![allow(unsafe_code)]

use crate::complex::Complex;
use std::ops::Range;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// The instruction-set backend the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar implementations: the references, and the 3×3
    /// median's network (always available).
    Scalar,
    /// 128-bit x86 vectors (baseline on `x86_64`).
    Sse2,
    /// 256-bit x86 vectors (runtime-detected).
    Avx2,
    /// 128-bit ARM vectors (baseline on `aarch64`).
    Neon,
}

impl Backend {
    /// Stable lowercase name, as used by `ECHOWRITE_SIMD` and bench
    /// environment blocks.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Number of `f64` lanes a vector register holds on this backend.
    pub fn f64_lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 | Backend::Neon => 2,
            Backend::Avx2 => 4,
        }
    }
}

/// SIMD feature sets the running CPU supports, independent of any
/// `ECHOWRITE_SIMD` override (for bench environment blocks).
pub fn detected_features() -> &'static [&'static str] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &["avx2", "sse2"]
        } else {
            &["sse2"]
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        &["neon"]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &[]
    }
}

/// The best backend the running CPU supports.
fn best_supported() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Backend::Scalar
    }
}

/// Resolves the backend: an `ECHOWRITE_SIMD` override capped by what the
/// hardware supports, otherwise the best detected feature set.
fn resolve_backend() -> Backend {
    let best = best_supported();
    let Ok(requested) = std::env::var("ECHOWRITE_SIMD") else {
        return best;
    };
    match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => Backend::Scalar,
        "sse2" if cfg!(target_arch = "x86_64") => Backend::Sse2,
        // A narrower request than the hardware offers is honoured; a wider
        // or cross-architecture one degrades to the best supported.
        "avx2" if best == Backend::Avx2 => Backend::Avx2,
        "neon" if cfg!(target_arch = "aarch64") => Backend::Neon,
        _ => best,
    }
}

/// The process-wide kernel backend (detected once, then cached).
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(resolve_backend)
}

// ---------------------------------------------------------------------------
// Elementwise maps (bitwise class)
// ---------------------------------------------------------------------------

/// `dst[i] = (dst[i] - sub).max(0.0)` — static-background subtraction with
/// a per-row scalar. Bitwise (the clamp is a select, not an arithmetic op).
pub fn subtract_clamp(dst: &mut [f64], sub: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::subtract_clamp_avx2(dst, sub) },
        Backend::Sse2 => return unsafe { x86::subtract_clamp_sse2(dst, sub) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::subtract_clamp_neon(dst, sub) };
    }
    subtract_clamp_ref(dst, sub);
}

/// Scalar reference for [`subtract_clamp`].
pub fn subtract_clamp_ref(dst: &mut [f64], sub: f64) {
    for v in dst {
        *v = (*v - sub).max(0.0);
    }
}

/// `dst[i] = (dst[i] - bg[i]).max(0.0)` — per-element background
/// subtraction (streaming enhancement columns). Bitwise.
// echolint: hot entry
pub fn subtract_clamp_bg(dst: &mut [f64], bg: &[f64]) {
    assert_eq!(dst.len(), bg.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::subtract_clamp_bg_avx2(dst, bg) },
        Backend::Sse2 => return unsafe { x86::subtract_clamp_bg_sse2(dst, bg) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::subtract_clamp_bg_neon(dst, bg) };
    }
    subtract_clamp_bg_ref(dst, bg);
}

/// Scalar reference for [`subtract_clamp_bg`].
// echolint: hot entry
pub fn subtract_clamp_bg_ref(dst: &mut [f64], bg: &[f64]) {
    for (v, &b) in dst.iter_mut().zip(bg) {
        *v = (*v - b).max(0.0);
    }
}

/// `dst[i] = 0.0 if dst[i] < alpha` — the enhancement noise gate. Bitwise.
pub fn threshold_zero(dst: &mut [f64], alpha: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::threshold_zero_avx2(dst, alpha) },
        Backend::Sse2 => return unsafe { x86::threshold_zero_sse2(dst, alpha) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::threshold_zero_neon(dst, alpha) };
    }
    threshold_zero_ref(dst, alpha);
}

/// Scalar reference for [`threshold_zero`].
pub fn threshold_zero_ref(dst: &mut [f64], alpha: f64) {
    for v in dst {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

/// `dst[i] = if dst[i] >= t { 1.0 } else { 0.0 }` — binarization. Bitwise.
pub fn binarize(dst: &mut [f64], t: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::binarize_avx2(dst, t) },
        Backend::Sse2 => return unsafe { x86::binarize_sse2(dst, t) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::binarize_neon(dst, t) };
    }
    binarize_ref(dst, t);
}

/// Scalar reference for [`binarize`].
pub fn binarize_ref(dst: &mut [f64], t: f64) {
    for v in dst {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

/// `out[j] = (x - b[j]).abs()` — the DTW local-cost row against one query
/// sample. Bitwise (`abs` clears the sign bit; no rounding).
// echolint: hot entry
pub fn abs_diff_broadcast_into(out: &mut [f64], x: f64, b: &[f64]) {
    assert_eq!(out.len(), b.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::abs_diff_broadcast_into_avx2(out, x, b) },
        Backend::Sse2 => return unsafe { x86::abs_diff_broadcast_into_sse2(out, x, b) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::abs_diff_broadcast_into_neon(out, x, b) };
    }
    abs_diff_broadcast_into_ref(out, x, b);
}

/// Scalar reference for [`abs_diff_broadcast_into`].
// echolint: hot entry
pub fn abs_diff_broadcast_into_ref(out: &mut [f64], x: f64, b: &[f64]) {
    for (o, &y) in out.iter_mut().zip(b) {
        *o = (x - y).abs();
    }
}

/// `acc[i] += w * src[i]` — one tap of a separable convolution accumulated
/// across stored columns. Bitwise (same per-element multiply-add order as
/// the reference; no FMA contraction).
// echolint: hot entry
pub fn axpy(acc: &mut [f64], src: &[f64], w: f64) {
    assert_eq!(acc.len(), src.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::axpy_avx2(acc, src, w) },
        Backend::Sse2 => return unsafe { x86::axpy_sse2(acc, src, w) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::axpy_neon(acc, src, w) };
    }
    axpy_ref(acc, src, w);
}

/// Scalar reference for [`axpy`].
// echolint: hot entry
pub fn axpy_ref(acc: &mut [f64], src: &[f64], w: f64) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += w * s;
    }
}

// ---------------------------------------------------------------------------
// Structured passes (bitwise class)
// ---------------------------------------------------------------------------

/// Every radix-2 stage of an in-place FFT whose input is already in
/// bit-reversed order. Stage `m = 2, 4, …, n` runs, on each block of `m`
/// with halves `u` and `v`, the butterflies `t = w·v[k]; (u[k], v[k]) =
/// (u[k]+t, u[k]−t)` with `w = twiddles[m/2 − 1 + k]`, conjugated when
/// `inverse`. `twiddles` is stage-major: for each half-length `h = m/2` the
/// factors `exp(−2πik/m)`, `n − 1` in all.
///
/// One call runs the whole network. The AVX2 and SSE2 bodies fuse stages 2
/// and 4 into one pass over blocks of four, and each later stage pair
/// `(m, 2m)` into one pass over blocks of `2m` (a radix-2² sweep that loads
/// four quarter-block values, runs both stages' butterflies on them in
/// registers and stores them back); an odd last stage runs alone. The NEON
/// body loops its butterfly stage by stage, like the reference. Bitwise:
/// every butterfly keeps the reference's operands, order and rounding (no
/// FMA), and a fused pass only reorders butterflies that touch disjoint
/// elements.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two or `twiddles` holds fewer
/// than `buf.len() − 1` factors.
// echolint: hot entry
pub fn fft_stages(buf: &mut [Complex], twiddles: &[Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    assert!(
        twiddles.len() >= n - 1,
        "{} twiddles for an {n}-point FFT",
        twiddles.len()
    );
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fft_stages_avx2(buf, twiddles, inverse) },
        Backend::Sse2 => return unsafe { x86::fft_stages_sse2(buf, twiddles, inverse) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fft_stages_neon(buf, twiddles, inverse) };
    }
    fft_stages_ref(buf, twiddles, inverse);
}

/// Scalar reference for [`fft_stages`]: one stage at a time, one block at
/// a time.
// echolint: hot entry
pub fn fft_stages_ref(buf: &mut [Complex], twiddles: &[Complex], inverse: bool) {
    let n = buf.len();
    let mut m = 2;
    while m <= n {
        let half = m / 2;
        let tw = &twiddles[half - 1..m - 1];
        for block in buf.chunks_exact_mut(m) {
            let (u, v) = block.split_at_mut(half);
            for ((a, b), &w) in u.iter_mut().zip(v).zip(tw) {
                let w = if inverse { w.conj() } else { w };
                let t = w * *b;
                let ua = *a;
                *a = ua + t;
                *b = ua - t;
            }
        }
        m <<= 1;
    }
}

/// The RealFFT even/odd split for the interior bins `k ∈ bins`
/// (`1 ≤ bins.start`, `bins.end ≤ m`): `out[k − bins.start] = (z_k +
/// conj(z_{m−k}))/2 + tw[k] · odd_k` with `odd_k = (diff.im/2, −diff.re/2)`,
/// `diff = z_k − conj(z_{m−k})`. `packed` holds the `m` half-size complex
/// bins; DC and Nyquist are the caller's business. Splitting only a band
/// is how the STFT skips the bins outside its region of interest. Bitwise:
/// per-`k` independent, operand order preserved.
///
/// # Panics
///
/// Panics if `bins` starts at 0 or ends past `m`, if `out` is not
/// `bins.len()` long, or if `tw` holds fewer than `m` factors.
// echolint: hot entry
pub fn realfft_split(out: &mut [Complex], packed: &[Complex], tw: &[Complex], bins: Range<usize>) {
    let m = packed.len();
    assert!(
        bins.start >= 1 && bins.start <= bins.end && bins.end <= m,
        "split bins {bins:?} outside [1, {m}]"
    );
    assert_eq!(out.len(), bins.len(), "split output length");
    assert!(tw.len() >= m);
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::realfft_split_avx2(out, packed, tw, bins.start) },
        Backend::Sse2 => return unsafe { x86::realfft_split_sse2(out, packed, tw, bins.start) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::realfft_split_neon(out, packed, tw, bins.start) };
    }
    realfft_split_ref(out, packed, tw, bins);
}

/// Scalar reference for [`realfft_split`].
// echolint: hot entry
pub fn realfft_split_ref(
    out: &mut [Complex],
    packed: &[Complex],
    tw: &[Complex],
    bins: Range<usize>,
) {
    let m = packed.len();
    for (o, k) in out.iter_mut().zip(bins) {
        let zk = packed[k];
        let zc = packed[m - k].conj();
        let even = (zk + zc).scale(0.5);
        let diff = zk - zc;
        let odd = Complex::new(diff.im * 0.5, -diff.re * 0.5);
        *o = even + tw[k] * odd;
    }
}

/// Same-size 1-D convolution with clamp-to-edge boundary:
/// `out[i] = Σ_k taps[k] · src[clamp(i + k − taps.len()/2)]`. The interior
/// is vectorized across output positions with a sequential tap loop per
/// lane, so each output keeps the reference's accumulation order — bitwise.
// echolint: hot entry
pub fn conv1d_clamped_into(out: &mut [f64], src: &[f64], taps: &[f64]) {
    assert_eq!(out.len(), src.len());
    assert!(!taps.is_empty());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::conv1d_clamped_into_avx2(out, src, taps) },
        Backend::Sse2 => return unsafe { x86::conv1d_clamped_into_sse2(out, src, taps) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::conv1d_clamped_into_neon(out, src, taps) };
    }
    conv1d_clamped_into_ref(out, src, taps);
}

/// Scalar reference for [`conv1d_clamped_into`].
// echolint: hot entry
pub fn conv1d_clamped_into_ref(out: &mut [f64], src: &[f64], taps: &[f64]) {
    conv1d_clamped_range(out, src, taps, 0, src.len());
}

/// The clamped convolution over output positions `[from, to)` only — the
/// SIMD implementations reuse it for the boundary columns.
// echolint: hot entry
pub(crate) fn conv1d_clamped_range(
    out: &mut [f64],
    src: &[f64],
    taps: &[f64],
    from: usize,
    to: usize,
) {
    let n = src.len();
    let half = taps.len() / 2;
    for (i, o) in out.iter_mut().enumerate().take(to).skip(from) {
        let mut acc = 0.0;
        for (k, &kv) in taps.iter().enumerate() {
            let idx = (i + k).saturating_sub(half).min(n - 1);
            acc += kv * src[idx];
        }
        *o = acc;
    }
}

// ---------------------------------------------------------------------------
// Order statistics (bitwise class)
// ---------------------------------------------------------------------------

/// 3×3 median over three lines: `out[i]` is the median of the nine values
/// `a[j]`, `b[j]`, `c[j]` for `j ∈ {i−1, i, i+1}`, with `j` clamped to
/// `[0, n)` (the ends replicate). A 3×3 window is the same whichever axis
/// is called the line, so a caller passes three neighbouring rows or three
/// neighbouring columns of an image.
///
/// Every output is `med3(max3(lows), med3(mids), min3(highs))` over the
/// sorted triples `(a[j], b[j], c[j])` of its window: a min/max network
/// that selects one of the nine inputs. The AVX2 body spreads `i` across
/// four lanes and sorts each window's triples in registers. Every other
/// backend runs the scalar body, which sorts each triple once for the
/// three windows that share it; a two-lane SSE2 body measured no faster
/// (DESIGN.md §6.7).
///
/// **Domain.** Bitwise equal to [`median3x3_ref`] (`to_bits`) on inputs
/// with no NaN and no `−0.0`: the network treats `±0` as equal, where the
/// reference's `total_cmp` orders `−0.0` first. Spectrogram magnitudes are
/// `+0.0` or greater, and the enhancement stages assert so in debug builds.
///
/// # Panics
///
/// Panics if `a`, `b` or `c` differs in length from `out`.
// echolint: hot entry
pub fn median3x3(out: &mut [f64], lines: [&[f64]; 3]) {
    let n = out.len();
    assert!(lines.iter().all(|l| l.len() == n), "median3x3 line length differs from output");
    // SAFETY: the AVX2 body runs only when backend() has verified AVX2 at
    // runtime — exactly the contract its #[target_feature] requires; the
    // slices pass through unchanged, so the length assertion above keeps
    // every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        return unsafe { x86::median3x3_avx2(out, lines) };
    }
    median3x3_range(out, lines, 0, n);
}

/// Scalar reference for [`median3x3`]: gathers each clamped 3×3 window and
/// selects its fifth value under `total_cmp`.
pub fn median3x3_ref(out: &mut [f64], lines: [&[f64]; 3]) {
    let n = out.len();
    let mut window = [0.0f64; 9];
    for (i, o) in out.iter_mut().enumerate() {
        let mut k = 0;
        for line in lines {
            for j in [i.saturating_sub(1), i, (i + 1).min(n - 1)] {
                window[k] = line[j];
                k += 1;
            }
        }
        let (_, m, _) = window.select_nth_unstable_by(4, |x, y| x.total_cmp(y));
        *o = *m;
    }
}

/// `(lo, mid, hi)` of three values by min/max selection.
#[inline]
fn sort3(a: f64, b: f64, c: f64) -> (f64, f64, f64) {
    let (lo, hi) = (a.min(b), a.max(b));
    let (mid, hi) = (hi.min(c), hi.max(c));
    (lo.min(mid), lo.max(mid), hi)
}

/// Median of three values by min/max selection.
#[inline]
fn med3(a: f64, b: f64, c: f64) -> f64 {
    a.min(b).max(a.max(b).min(c))
}

/// The scalar network of [`median3x3`] over output positions `[from, to)`
/// only — the scalar body, and the AVX2 body's clamped ends and tail.
/// Each triple is sorted once and rolls through the three windows that
/// share it.
// echolint: hot entry
pub(crate) fn median3x3_range(out: &mut [f64], lines: [&[f64]; 3], from: usize, to: usize) {
    if from >= to {
        return;
    }
    let n = out.len();
    let [a, b, c] = lines;
    let triple = |j: usize| sort3(a[j], b[j], c[j]);
    let (mut prev, mut cur) = (triple(from.saturating_sub(1)), triple(from));
    for (i, o) in out.iter_mut().enumerate().take(to).skip(from) {
        let next = triple((i + 1).min(n - 1));
        *o = med3(
            prev.0.max(cur.0).max(next.0),
            med3(prev.1, cur.1, next.1),
            prev.2.min(cur.2).min(next.2),
        );
        (prev, cur) = (cur, next);
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Complex FIR dot product `Σ_t taps[t] · x[t]` (taps complex, signal
/// real) — the downconvert mixer's inner loop. **1e-9 class**: multiple
/// accumulators reassociate the sum.
pub fn fir_complex_dot(taps: &[Complex], x: &[f64]) -> Complex {
    assert_eq!(taps.len(), x.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fir_complex_dot_avx2(taps, x) },
        Backend::Sse2 => return unsafe { x86::fir_complex_dot_sse2(taps, x) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fir_complex_dot_neon(taps, x) };
    }
    fir_complex_dot_ref(taps, x)
}

/// Scalar reference for [`fir_complex_dot`].
pub fn fir_complex_dot_ref(taps: &[Complex], x: &[f64]) -> Complex {
    let mut acc = Complex::ZERO;
    for (&ct, &s) in taps.iter().zip(x) {
        acc += ct.scale(s);
    }
    acc
}

/// Minimum over `xs` (identity `+∞`). Min is a selection — no rounding —
/// so any association yields the same value: bitwise for finite inputs.
pub fn fold_min(xs: &[f64]) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fold_min_avx2(xs) },
        Backend::Sse2 => return unsafe { x86::fold_min_sse2(xs) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fold_min_neon(xs) };
    }
    fold_min_ref(xs)
}

/// Scalar reference for [`fold_min`].
pub fn fold_min_ref(xs: &[f64]) -> f64 {
    let mut m = f64::INFINITY;
    for &v in xs {
        m = m.min(v);
    }
    m
}

/// Maximum over `xs` (identity `−∞`); see [`fold_min`].
pub fn fold_max(xs: &[f64]) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fold_max_avx2(xs) },
        Backend::Sse2 => return unsafe { x86::fold_max_sse2(xs) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fold_max_neon(xs) };
    }
    fold_max_ref(xs)
}

/// Scalar reference for [`fold_max`].
pub fn fold_max_ref(xs: &[f64]) -> f64 {
    let mut m = f64::NEG_INFINITY;
    for &v in xs {
        m = m.max(v);
    }
    m
}

/// LB_Keogh charge against a global envelope: `Σ max(v−hi, 0) + max(lo−v,
/// 0)`. **1e-9 class**: lane accumulators reassociate the sum (each term is
/// identical to the reference's branch arithmetic).
pub fn envelope_charge(xs: &[f64], lo: f64, hi: f64) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::envelope_charge_avx2(xs, lo, hi) },
        Backend::Sse2 => return unsafe { x86::envelope_charge_sse2(xs, lo, hi) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::envelope_charge_neon(xs, lo, hi) };
    }
    envelope_charge_ref(xs, lo, hi)
}

/// Scalar reference for [`envelope_charge`].
pub fn envelope_charge_ref(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let mut total = 0.0;
    for &v in xs {
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values spanning signs and magnitudes.
    fn values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Map to roughly [-2, 2) with plenty of mantissa variety.
                (state as f64 / u64::MAX as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn complexes(n: usize, seed: u64) -> Vec<Complex> {
        let re = values(n, seed);
        let im = values(n, seed ^ 0xabcd);
        re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
    }

    /// Bit patterns of a complex buffer (`==` on floats would let `0.0`
    /// and `-0.0` pass as equal).
    fn bits(zs: &[Complex]) -> Vec<(u64, u64)> {
        zs.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Lengths around every lane boundary (1, lane−1, lane, lane+1) plus
    /// odd ROI-band-like widths.
    const LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 64, 101, 129];

    #[test]
    fn backend_is_cached_and_reports_lanes() {
        let b = backend();
        assert_eq!(b, backend());
        assert!(b.f64_lanes() >= 1);
        assert!(!b.name().is_empty());
        assert!(detected_features().iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn subtract_clamp_variants_match_reference_bitwise() {
        for &n in LENGTHS {
            let base = values(n, 5);
            let bg = values(n, 6);
            let mut fast = base.clone();
            let mut reference = base.clone();
            subtract_clamp(&mut fast, 0.25);
            subtract_clamp_ref(&mut reference, 0.25);
            assert!(fast == reference, "n={n}");

            let mut fast = base.clone();
            let mut reference = base.clone();
            subtract_clamp_bg(&mut fast, &bg);
            subtract_clamp_bg_ref(&mut reference, &bg);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn threshold_and_binarize_match_reference_bitwise() {
        for &n in LENGTHS {
            let base = values(n, 7);
            let mut fast = base.clone();
            let mut reference = base.clone();
            threshold_zero(&mut fast, 0.1);
            threshold_zero_ref(&mut reference, 0.1);
            assert!(fast == reference, "n={n}");

            let mut fast = base.clone();
            let mut reference = base;
            binarize(&mut fast, 0.5);
            binarize_ref(&mut reference, 0.5);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn abs_diff_and_axpy_match_reference_bitwise() {
        for &n in LENGTHS {
            let b = values(n, 8);
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            abs_diff_broadcast_into(&mut fast, 0.7, &b);
            abs_diff_broadcast_into_ref(&mut reference, 0.7, &b);
            assert!(fast == reference, "n={n}");

            let src = values(n, 9);
            let mut fast = values(n, 10);
            let mut reference = fast.clone();
            axpy(&mut fast, &src, -1.37);
            axpy_ref(&mut reference, &src, -1.37);
            assert!(fast == reference, "n={n}");
        }
    }

    /// The fused lane bodies against the stage-at-a-time reference at
    /// every power of two up to the paper's 8 192 points, forward and
    /// inverse, with arbitrary (not unit-circle) twiddles so a misplaced
    /// twiddle index cannot hide behind a symmetry.
    #[test]
    fn fft_stages_matches_reference_bitwise() {
        // Under Miri only the scalar reference runs; small sizes suffice.
        let max_log2 = if cfg!(miri) { 6 } else { 13 };
        for log2 in 0..=max_log2 {
            let n = 1usize << log2;
            let tw = complexes(n - 1, 11 + log2);
            for inverse in [false, true] {
                let input = complexes(n, 12 + log2);
                let mut fast = input.clone();
                let mut reference = input;
                fft_stages(&mut fast, &tw, inverse);
                fft_stages_ref(&mut reference, &tw, inverse);
                assert!(bits(&fast) == bits(&reference), "n={n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn realfft_split_matches_reference_bitwise() {
        for &m in LENGTHS {
            if m < 2 {
                continue;
            }
            let packed = complexes(m, 14);
            let tw = complexes(m, 15);
            for bins in [1..m, 1..2, m - 1..m, m / 2..m, 1..m.div_ceil(2)] {
                let mut fast = vec![Complex::ZERO; bins.len()];
                let mut reference = vec![Complex::ZERO; bins.len()];
                realfft_split(&mut fast, &packed, &tw, bins.clone());
                realfft_split_ref(&mut reference, &packed, &tw, bins.clone());
                assert!(bits(&fast) == bits(&reference), "m={m} bins={bins:?}");
            }
        }
    }

    #[test]
    fn conv1d_matches_reference_bitwise() {
        let taps = [0.1, 0.2, 0.4, 0.2, 0.1];
        for &n in LENGTHS {
            if n == 0 {
                continue;
            }
            let src = values(n, 16);
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            conv1d_clamped_into(&mut fast, &src, &taps);
            conv1d_clamped_into_ref(&mut reference, &src, &taps);
            assert!(fast == reference, "n={n}");
        }
    }

    /// Spread values of both signs, and a tie-heavy pool with `+0.0` in it;
    /// each with distinct lines and with one slice passed as two or three
    /// lines, as the callers' clamped edges do.
    #[test]
    fn median3x3_matches_reference_bitwise() {
        for &n in LENGTHS {
            let pool = [0.0, 0.5, 0.5, 3.0];
            let tied = |seed| -> Vec<f64> {
                values(n, seed).iter().map(|v| pool[(v.to_bits() % 4) as usize]).collect()
            };
            let spread = [values(n, 21), values(n, 22), values(n, 23)];
            for [a, b, c] in [spread, [tied(24), tied(25), tied(26)]] {
                for lines in [[&a, &b, &c], [&a, &a, &b], [&a, &b, &b], [&b, &b, &b]] {
                    let lines = lines.map(|l| l.as_slice());
                    let mut fast = vec![f64::NAN; n];
                    let mut reference = vec![0.0; n];
                    median3x3(&mut fast, lines);
                    median3x3_ref(&mut reference, lines);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&fast) == bits(&reference), "n={n}");
                }
            }
        }
    }

    #[test]
    fn fir_complex_dot_matches_reference_to_1e9() {
        for &n in LENGTHS {
            let taps = complexes(n, 17);
            let x = values(n, 18);
            let fast = fir_complex_dot(&taps, &x);
            let reference = fir_complex_dot_ref(&taps, &x);
            let scale = reference.norm().max(1.0);
            assert!(
                (fast.re - reference.re).abs() / scale < 1e-9
                    && (fast.im - reference.im).abs() / scale < 1e-9,
                "n={n}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn folds_match_reference_bitwise() {
        for &n in LENGTHS {
            let xs = values(n, 19);
            assert!(fold_min(&xs) == fold_min_ref(&xs), "n={n}");
            assert!(fold_max(&xs) == fold_max_ref(&xs), "n={n}");
        }
        assert_eq!(fold_min(&[]), f64::INFINITY);
        assert_eq!(fold_max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn envelope_charge_matches_reference_to_1e9() {
        for &n in LENGTHS {
            let xs = values(n, 20);
            let fast = envelope_charge(&xs, -0.5, 0.5);
            let reference = envelope_charge_ref(&xs, -0.5, 0.5);
            assert!(
                (fast - reference).abs() / reference.max(1.0) < 1e-9,
                "n={n}: {fast} vs {reference}"
            );
        }
    }
}
