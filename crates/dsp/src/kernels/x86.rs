//! x86-64 kernel bodies: AVX2 (4 `f64` lanes) and SSE2 (2 lanes; the
//! architectural baseline, so these are plain safe functions).
//!
//! Every body performs the same per-element operations in the same order as
//! its `*_ref` reference in the parent module — no FMA, no reassociation —
//! except the two documented 1e-9 reductions (`fir_complex_dot`,
//! `envelope_charge`), which split the sum across lane accumulators.
//!
//! Safety: all pointer arithmetic is bounded by the slice-length assertions
//! in the parent module's safe wrappers; loads and stores never cross
//! `len()`. `Complex` is `repr(C)` (`re`, `im`), so a `[Complex]` slice is
//! loaded as interleaved `f64` pairs.

use super::{conv1d_clamped_range, median3x3_range};
use crate::complex::Complex;
use std::arch::x86_64::{
    __m128d, __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_and_pd, _mm256_andnot_pd,
    _mm256_castpd256_pd128, _mm256_cmp_pd, _mm256_extractf128_pd, _mm256_loadu_pd, _mm256_max_pd,
    _mm256_min_pd, _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_permute4x64_pd,
    _mm256_permute_pd, _mm256_set1_pd, _mm256_set_m128d, _mm256_set_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd, _mm_add_pd, _mm_and_pd, _mm_andnot_pd, _mm_cmpge_pd, _mm_cmplt_pd, _mm_cvtsd_f64,
    _mm_loadu_pd, _mm_max_pd, _mm_min_pd, _mm_mul_pd, _mm_set1_pd, _mm_set_pd, _mm_setzero_pd,
    _mm_shuffle_pd, _mm_storeu_pd, _mm_sub_pd, _mm_unpackhi_pd, _mm_unpacklo_pd, _mm_xor_pd,
    _CMP_GE_OQ, _CMP_LT_OQ,
};

/// `_CMP_*` predicates used with `_mm256_cmp_pd` (ordered, quiet: NaN
/// compares false, exactly like the scalar `<` / `>=`).
const LT: i32 = _CMP_LT_OQ;
const GE: i32 = _CMP_GE_OQ;

#[inline]
fn f64_ptr(s: &[Complex]) -> *const f64 {
    s.as_ptr().cast::<f64>()
}

#[inline]
fn f64_ptr_mut(s: &mut [Complex]) -> *mut f64 {
    s.as_mut_ptr().cast::<f64>()
}

// ---------------------------------------------------------------------------
// Complex multiply building blocks
// ---------------------------------------------------------------------------

/// Complex product of two packed pairs, matching `Complex::mul` exactly:
/// `(ar·br − ai·bi, ar·bi + ai·br)` per 128-bit lane, no FMA.
#[inline]
#[target_feature(enable = "avx2")]
fn cmul_avx2(a: __m256d, b: __m256d) -> __m256d {
    let ar = _mm256_movedup_pd(a); // [ar0, ar0, ar1, ar1]
    let ai = _mm256_permute_pd(a, 0b1111); // [ai0, ai0, ai1, ai1]
    let bswap = _mm256_permute_pd(b, 0b0101); // [bi0, br0, bi1, br1]
    // addsub: even lanes subtract, odd lanes add — exactly the scalar
    // (ar·br − ai·bi, ar·bi + ai·br) with one rounding per operation.
    _mm256_addsub_pd(_mm256_mul_pd(ar, b), _mm256_mul_pd(ai, bswap))
}

/// Complex product of one packed pair (SSE2 has no `addsub`: negate the
/// low lane of the cross product — an exact sign flip — and add, which is
/// bitwise `a − b` in IEEE 754).
#[inline]
#[target_feature(enable = "sse2")]
fn cmul_sse2(a: __m128d, b: __m128d) -> __m128d {
    let ar = _mm_unpacklo_pd(a, a);
    let ai = _mm_unpackhi_pd(a, a);
    let bswap = _mm_shuffle_pd(b, b, 0b01);
    let p2 = _mm_xor_pd(_mm_mul_pd(ai, bswap), _mm_set_pd(0.0, -0.0));
    _mm_add_pd(_mm_mul_pd(ar, b), p2)
}

/// Sign mask that conjugates packed complex pairs (flips `im` lanes).
#[inline]
#[target_feature(enable = "avx2")]
fn conj_mask_avx2() -> __m256d {
    _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn subtract_clamp_avx2(dst: &mut [f64], sub: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sv = _mm256_set1_pd(sub);
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_max_pd(_mm256_sub_pd(v, sv), zero));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        *v = (*v - sub).max(0.0);
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn subtract_clamp_sse2(dst: &mut [f64], sub: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sv = _mm_set1_pd(sub);
    let zero = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            _mm_storeu_pd(dp.add(i), _mm_max_pd(_mm_sub_pd(v, sv), zero));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        *v = (*v - sub).max(0.0);
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn subtract_clamp_bg_avx2(dst: &mut [f64], bg: &[f64]) {
    let n = dst.len();
    let (dp, bp) = (dst.as_mut_ptr(), bg.as_ptr());
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == dst.len() == bg.len().
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let b = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_max_pd(_mm256_sub_pd(v, b), zero));
        }
        i += 4;
    }
    while i < n {
        dst[i] = (dst[i] - bg[i]).max(0.0);
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn subtract_clamp_bg_sse2(dst: &mut [f64], bg: &[f64]) {
    let n = dst.len();
    let (dp, bp) = (dst.as_mut_ptr(), bg.as_ptr());
    let zero = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == dst.len() == bg.len().
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let b = _mm_loadu_pd(bp.add(i));
            _mm_storeu_pd(dp.add(i), _mm_max_pd(_mm_sub_pd(v, b), zero));
        }
        i += 2;
    }
    if i < n {
        dst[i] = (dst[i] - bg[i]).max(0.0);
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn threshold_zero_avx2(dst: &mut [f64], alpha: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let below = _mm256_cmp_pd::<LT>(v, av);
            _mm256_storeu_pd(dp.add(i), _mm256_andnot_pd(below, v));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn threshold_zero_sse2(dst: &mut [f64], alpha: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let av = _mm_set1_pd(alpha);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let below = _mm_cmplt_pd(v, av);
            _mm_storeu_pd(dp.add(i), _mm_andnot_pd(below, v));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn binarize_avx2(dst: &mut [f64], t: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let tv = _mm256_set1_pd(t);
    let one = _mm256_set1_pd(1.0);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let at_or_above = _mm256_cmp_pd::<GE>(v, tv);
            _mm256_storeu_pd(dp.add(i), _mm256_and_pd(at_or_above, one));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn binarize_sse2(dst: &mut [f64], t: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let tv = _mm_set1_pd(t);
    let one = _mm_set1_pd(1.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let at_or_above = _mm_cmpge_pd(v, tv);
            _mm_storeu_pd(dp.add(i), _mm_and_pd(at_or_above, one));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn abs_diff_broadcast_into_avx2(out: &mut [f64], x: f64, b: &[f64]) {
    let n = out.len();
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let xv = _mm256_set1_pd(x);
    let absmask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == out.len() == b.len().
        unsafe {
            let d = _mm256_sub_pd(xv, _mm256_loadu_pd(bp.add(i)));
            _mm256_storeu_pd(op.add(i), _mm256_and_pd(d, absmask));
        }
        i += 4;
    }
    while i < n {
        out[i] = (x - b[i]).abs();
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn abs_diff_broadcast_into_sse2(out: &mut [f64], x: f64, b: &[f64]) {
    let n = out.len();
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let xv = _mm_set1_pd(x);
    let absmask = _mm_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == out.len() == b.len().
        unsafe {
            let d = _mm_sub_pd(xv, _mm_loadu_pd(bp.add(i)));
            _mm_storeu_pd(op.add(i), _mm_and_pd(d, absmask));
        }
        i += 2;
    }
    if i < n {
        out[i] = (x - b[i]).abs();
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn axpy_avx2(acc: &mut [f64], src: &[f64], w: f64) {
    let n = acc.len();
    let (ap, sp) = (acc.as_mut_ptr(), src.as_ptr());
    let wv = _mm256_set1_pd(w);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == acc.len() == src.len().
        unsafe {
            let a = _mm256_loadu_pd(ap.add(i));
            let s = _mm256_loadu_pd(sp.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, _mm256_mul_pd(wv, s)));
        }
        i += 4;
    }
    while i < n {
        acc[i] += w * src[i];
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn axpy_sse2(acc: &mut [f64], src: &[f64], w: f64) {
    let n = acc.len();
    let (ap, sp) = (acc.as_mut_ptr(), src.as_ptr());
    let wv = _mm_set1_pd(w);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == acc.len() == src.len().
        unsafe {
            let a = _mm_loadu_pd(ap.add(i));
            let s = _mm_loadu_pd(sp.add(i));
            _mm_storeu_pd(ap.add(i), _mm_add_pd(a, _mm_mul_pd(wv, s)));
        }
        i += 2;
    }
    if i < n {
        acc[i] += w * src[i];
    }
}

// ---------------------------------------------------------------------------
// Structured passes
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn fft_stages_avx2(buf: &mut [Complex], tw: &[Complex], inverse: bool) {
    let n = buf.len();
    if n < 4 {
        return super::fft_stages_ref(buf, tw, inverse);
    }
    let (p, t) = (f64_ptr_mut(buf), f64_ptr(tw));
    // Conjugation flips the `im` sign bits; xor with zero is the identity.
    let conj = if inverse { conj_mask_avx2() } else { _mm256_setzero_pd() };
    // Stages 2 and 4 over each block of four (x0..x3): stage 2 pairs
    // (x0, x1) and (x2, x3) under tw[0], stage 4 pairs (x0, x2) and
    // (x1, x3) under tw[1], tw[2]. One register holds two complexes, so
    // the pairs are gathered with 128-bit lane permutes.
    // SAFETY: the wrapper asserts n is a power of two (here ≥ 4, so every
    // block [b, b+4) lies inside the buffer) and tw.len() >= n − 1 >= 3.
    unsafe {
        let w0 = _mm_loadu_pd(t);
        let w2 = _mm256_xor_pd(_mm256_set_m128d(w0, w0), conj);
        let w4 = _mm256_xor_pd(_mm256_loadu_pd(t.add(2)), conj);
        let mut b = 0;
        while b < n {
            let q = p.add(2 * b);
            let x01 = _mm256_loadu_pd(q);
            let x23 = _mm256_loadu_pd(q.add(4));
            let u = _mm256_permute2f128_pd(x01, x23, 0x20); // [x0, x2]
            let v = _mm256_permute2f128_pd(x01, x23, 0x31); // [x1, x3]
            let tt = cmul_avx2(w2, v);
            let s = _mm256_add_pd(u, tt); // stage-2 [x0, x2]
            let d = _mm256_sub_pd(u, tt); // stage-2 [x1, x3]
            let u = _mm256_permute2f128_pd(s, d, 0x20); // [x0, x1]
            let v = _mm256_permute2f128_pd(s, d, 0x31); // [x2, x3]
            let tt = cmul_avx2(w4, v);
            _mm256_storeu_pd(q, _mm256_add_pd(u, tt));
            _mm256_storeu_pd(q.add(4), _mm256_sub_pd(u, tt));
            b += 4;
        }
    }
    // Stage pairs (m, 2m), one sweep over each block of 2m in quarters of
    // q = m/2: stage m pairs (a, b) and (c, d) under tw_m[j]; stage 2m
    // pairs (a, c) under tw_2m[j] and (b, d) under tw_2m[j + q].
    let mut m = 8;
    while 2 * m <= n {
        let q = m / 2;
        // SAFETY: stage m's factors start at tw[q − 1] and stage 2m's at
        // tw[m − 1]; the largest index read, tw[m − 1 + 2q − 1], is
        // tw[2m − 2] <= tw[n − 2]. Each block [base, base + 2m) lies inside
        // the buffer (n is a multiple of 2m), and j + 2 <= q keeps every
        // two-complex load inside its quarter.
        unsafe {
            let (tm, t2m) = (t.add(2 * (q - 1)), t.add(2 * (m - 1)));
            let mut base = 0;
            while base < n {
                let mut j = 0;
                while j < q {
                    let pa = p.add(2 * (base + j));
                    let (pb, pc) = (pa.add(2 * q), pa.add(2 * m));
                    let pd = pc.add(2 * q);
                    let wm = _mm256_xor_pd(_mm256_loadu_pd(tm.add(2 * j)), conj);
                    let (a, b) = (_mm256_loadu_pd(pa), _mm256_loadu_pd(pb));
                    let (c, d) = (_mm256_loadu_pd(pc), _mm256_loadu_pd(pd));
                    let t1 = cmul_avx2(wm, b);
                    let (a1, b1) = (_mm256_add_pd(a, t1), _mm256_sub_pd(a, t1));
                    let t2 = cmul_avx2(wm, d);
                    let (c1, d1) = (_mm256_add_pd(c, t2), _mm256_sub_pd(c, t2));
                    let wa = _mm256_xor_pd(_mm256_loadu_pd(t2m.add(2 * j)), conj);
                    let wb = _mm256_xor_pd(_mm256_loadu_pd(t2m.add(2 * (j + q))), conj);
                    let t3 = cmul_avx2(wa, c1);
                    _mm256_storeu_pd(pa, _mm256_add_pd(a1, t3));
                    _mm256_storeu_pd(pc, _mm256_sub_pd(a1, t3));
                    let t4 = cmul_avx2(wb, d1);
                    _mm256_storeu_pd(pb, _mm256_add_pd(b1, t4));
                    _mm256_storeu_pd(pd, _mm256_sub_pd(b1, t4));
                    j += 2;
                }
                base += 2 * m;
            }
        }
        m *= 4;
    }
    if m == n {
        // An odd stage count leaves the last stage (m = n) on its own.
        let h = m / 2;
        // SAFETY: stage n's factors are tw[h − 1 .. n − 1]; j + 2 <= h keeps
        // the loads of u = buf[j..], v = buf[j + h..] inside the buffer.
        unsafe {
            let th = t.add(2 * (h - 1));
            let mut j = 0;
            while j < h {
                let (pu, pv) = (p.add(2 * j), p.add(2 * (j + h)));
                let w = _mm256_xor_pd(_mm256_loadu_pd(th.add(2 * j)), conj);
                let a = _mm256_loadu_pd(pu);
                let tt = cmul_avx2(w, _mm256_loadu_pd(pv));
                _mm256_storeu_pd(pu, _mm256_add_pd(a, tt));
                _mm256_storeu_pd(pv, _mm256_sub_pd(a, tt));
                j += 2;
            }
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn fft_stages_sse2(buf: &mut [Complex], tw: &[Complex], inverse: bool) {
    let n = buf.len();
    if n < 4 {
        return super::fft_stages_ref(buf, tw, inverse);
    }
    let (p, t) = (f64_ptr_mut(buf), f64_ptr(tw));
    let conj = if inverse { _mm_set_pd(-0.0, 0.0) } else { _mm_setzero_pd() };
    // Stages 2 and 4 over each block of four; see `fft_stages_avx2`.
    // SAFETY: n is a power of two >= 4, so every block [b, b+4) lies inside
    // the buffer, and tw.len() >= n − 1 >= 3.
    unsafe {
        let w2 = _mm_xor_pd(_mm_loadu_pd(t), conj);
        let w4a = _mm_xor_pd(_mm_loadu_pd(t.add(2)), conj);
        let w4b = _mm_xor_pd(_mm_loadu_pd(t.add(4)), conj);
        let mut b = 0;
        while b < n {
            let q = p.add(2 * b);
            let (x0, x1) = (_mm_loadu_pd(q), _mm_loadu_pd(q.add(2)));
            let (x2, x3) = (_mm_loadu_pd(q.add(4)), _mm_loadu_pd(q.add(6)));
            let t0 = cmul_sse2(w2, x1);
            let (y0, y1) = (_mm_add_pd(x0, t0), _mm_sub_pd(x0, t0));
            let t1 = cmul_sse2(w2, x3);
            let (y2, y3) = (_mm_add_pd(x2, t1), _mm_sub_pd(x2, t1));
            let t2 = cmul_sse2(w4a, y2);
            _mm_storeu_pd(q, _mm_add_pd(y0, t2));
            _mm_storeu_pd(q.add(4), _mm_sub_pd(y0, t2));
            let t3 = cmul_sse2(w4b, y3);
            _mm_storeu_pd(q.add(2), _mm_add_pd(y1, t3));
            _mm_storeu_pd(q.add(6), _mm_sub_pd(y1, t3));
            b += 4;
        }
    }
    let mut m = 8;
    while 2 * m <= n {
        let q = m / 2;
        // SAFETY: as in `fft_stages_avx2`, one complex per load.
        unsafe {
            let (tm, t2m) = (t.add(2 * (q - 1)), t.add(2 * (m - 1)));
            let mut base = 0;
            while base < n {
                for j in 0..q {
                    let pa = p.add(2 * (base + j));
                    let (pb, pc) = (pa.add(2 * q), pa.add(2 * m));
                    let pd = pc.add(2 * q);
                    let wm = _mm_xor_pd(_mm_loadu_pd(tm.add(2 * j)), conj);
                    let (a, b) = (_mm_loadu_pd(pa), _mm_loadu_pd(pb));
                    let (c, d) = (_mm_loadu_pd(pc), _mm_loadu_pd(pd));
                    let t1 = cmul_sse2(wm, b);
                    let (a1, b1) = (_mm_add_pd(a, t1), _mm_sub_pd(a, t1));
                    let t2 = cmul_sse2(wm, d);
                    let (c1, d1) = (_mm_add_pd(c, t2), _mm_sub_pd(c, t2));
                    let wa = _mm_xor_pd(_mm_loadu_pd(t2m.add(2 * j)), conj);
                    let wb = _mm_xor_pd(_mm_loadu_pd(t2m.add(2 * (j + q))), conj);
                    let t3 = cmul_sse2(wa, c1);
                    _mm_storeu_pd(pa, _mm_add_pd(a1, t3));
                    _mm_storeu_pd(pc, _mm_sub_pd(a1, t3));
                    let t4 = cmul_sse2(wb, d1);
                    _mm_storeu_pd(pb, _mm_add_pd(b1, t4));
                    _mm_storeu_pd(pd, _mm_sub_pd(b1, t4));
                }
                base += 2 * m;
            }
        }
        m *= 4;
    }
    if m == n {
        let h = m / 2;
        // SAFETY: as in `fft_stages_avx2`, one complex per load.
        unsafe {
            let th = t.add(2 * (h - 1));
            for j in 0..h {
                let (pu, pv) = (p.add(2 * j), p.add(2 * (j + h)));
                let w = _mm_xor_pd(_mm_loadu_pd(th.add(2 * j)), conj);
                let a = _mm_loadu_pd(pu);
                let tt = cmul_sse2(w, _mm_loadu_pd(pv));
                _mm_storeu_pd(pu, _mm_add_pd(a, tt));
                _mm_storeu_pd(pv, _mm_sub_pd(a, tt));
            }
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn realfft_split_avx2(
    out: &mut [Complex],
    packed: &[Complex],
    tw: &[Complex],
    lo: usize,
) {
    let m = packed.len();
    let hi = lo + out.len();
    let (op, pp, tp) = (f64_ptr_mut(out), f64_ptr(packed), f64_ptr(tw));
    let conj = conj_mask_avx2();
    let halfv = _mm256_set1_pd(0.5);
    // [0.5, −0.5] per complex: odd_k = (diff.im · 0.5, diff.re · −0.5),
    // bitwise equal to the reference's (diff.im · 0.5, −(diff.re · 0.5)).
    let half_neghalf = _mm256_set_pd(-0.5, 0.5, -0.5, 0.5);
    let mut k = lo;
    while k + 2 <= hi {
        // SAFETY: reads packed[k..k+2] and packed[m−k−1..m−k+1] (both in
        // range for 1 <= k <= m−2), tw[k..k+2], writes out[k−lo..k−lo+2];
        // the wrapper asserts 1 <= lo, hi <= m, out.len() == hi − lo and
        // tw.len() >= m.
        unsafe {
            let zk = _mm256_loadu_pd(pp.add(2 * k));
            // [packed[m−k−1], packed[m−k]] → swap halves → [packed[m−k], packed[m−k−1]]
            let zc_raw = _mm256_loadu_pd(pp.add(2 * (m - k - 1)));
            let zc = _mm256_xor_pd(_mm256_permute2f128_pd(zc_raw, zc_raw, 0x01), conj);
            let even = _mm256_mul_pd(_mm256_add_pd(zk, zc), halfv);
            let diff = _mm256_sub_pd(zk, zc);
            // [diff.im, diff.re] per complex, then scale by [0.5, −0.5].
            let odd = _mm256_mul_pd(_mm256_permute_pd(diff, 0b0101), half_neghalf);
            let w = _mm256_loadu_pd(tp.add(2 * k));
            _mm256_storeu_pd(op.add(2 * (k - lo)), _mm256_add_pd(even, cmul_avx2(w, odd)));
        }
        k += 2;
    }
    if k < hi {
        let zk = packed[k];
        let zc = packed[m - k].conj();
        let even = (zk + zc).scale(0.5);
        let diff = zk - zc;
        let odd = Complex::new(diff.im * 0.5, -diff.re * 0.5);
        out[k - lo] = even + tw[k] * odd;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn realfft_split_sse2(
    out: &mut [Complex],
    packed: &[Complex],
    tw: &[Complex],
    lo: usize,
) {
    let m = packed.len();
    let (op, pp, tp) = (f64_ptr_mut(out), f64_ptr(packed), f64_ptr(tw));
    let conj = _mm_set_pd(-0.0, 0.0);
    let halfv = _mm_set1_pd(0.5);
    let half_neghalf = _mm_set_pd(-0.5, 0.5);
    for (i, k) in (lo..lo + out.len()).enumerate() {
        // SAFETY: reads packed[k], packed[m−k], tw[k], writes out[i]; all in
        // range for 1 <= k < m given the wrapper's assertions.
        unsafe {
            let zk = _mm_loadu_pd(pp.add(2 * k));
            let zc = _mm_xor_pd(_mm_loadu_pd(pp.add(2 * (m - k))), conj);
            let even = _mm_mul_pd(_mm_add_pd(zk, zc), halfv);
            let diff = _mm_sub_pd(zk, zc);
            let odd = _mm_mul_pd(_mm_shuffle_pd(diff, diff, 0b01), half_neghalf);
            let w = _mm_loadu_pd(tp.add(2 * k));
            _mm_storeu_pd(op.add(2 * i), _mm_add_pd(even, cmul_sse2(w, odd)));
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn conv1d_clamped_into_avx2(out: &mut [f64], src: &[f64], taps: &[f64]) {
    let n = src.len();
    let t = taps.len();
    let half = t / 2;
    if n < t {
        return conv1d_clamped_range(out, src, taps, 0, n);
    }
    // Clamped boundary columns, then the unclamped interior vectorized
    // across output positions with a sequential tap loop (each lane keeps
    // the reference's accumulation order).
    let hi = n - t + half + 1;
    conv1d_clamped_range(out, src, taps, 0, half);
    conv1d_clamped_range(out, src, taps, hi, n);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    let mut i = half;
    while i + 4 <= hi {
        // SAFETY: lanes [i, i+4) read src[i−half+k .. i−half+k+4) which
        // stays within [0, n) for every tap k in [0, t).
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let base = sp.add(i - half);
            for (k, &kv) in taps.iter().enumerate() {
                let s = _mm256_loadu_pd(base.add(k));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(kv), s));
            }
            _mm256_storeu_pd(op.add(i), acc);
        }
        i += 4;
    }
    conv1d_clamped_range(out, src, taps, i, hi);
}

#[target_feature(enable = "sse2")]
pub(super) fn conv1d_clamped_into_sse2(out: &mut [f64], src: &[f64], taps: &[f64]) {
    let n = src.len();
    let t = taps.len();
    let half = t / 2;
    if n < t {
        return conv1d_clamped_range(out, src, taps, 0, n);
    }
    let hi = n - t + half + 1;
    conv1d_clamped_range(out, src, taps, 0, half);
    conv1d_clamped_range(out, src, taps, hi, n);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    let mut i = half;
    while i + 2 <= hi {
        // SAFETY: lanes [i, i+2) read src[i−half+k .. i−half+k+2) which
        // stays within [0, n) for every tap k in [0, t).
        unsafe {
            let mut acc = _mm_setzero_pd();
            let base = sp.add(i - half);
            for (k, &kv) in taps.iter().enumerate() {
                let s = _mm_loadu_pd(base.add(k));
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(kv), s));
            }
            _mm_storeu_pd(op.add(i), acc);
        }
        i += 2;
    }
    conv1d_clamped_range(out, src, taps, i, hi);
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Lane-wise `(lo, mid, hi)` of three vectors (the scalar `sort3`).
#[inline]
#[target_feature(enable = "avx2")]
fn sort3_avx2(a: __m256d, b: __m256d, c: __m256d) -> (__m256d, __m256d, __m256d) {
    let (lo, hi) = (_mm256_min_pd(a, b), _mm256_max_pd(a, b));
    let (mid, hi) = (_mm256_min_pd(hi, c), _mm256_max_pd(hi, c));
    (_mm256_min_pd(lo, mid), _mm256_max_pd(lo, mid), hi)
}

/// Lane-wise median of three vectors (the scalar `med3`).
#[inline]
#[target_feature(enable = "avx2")]
fn med3_avx2(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    _mm256_max_pd(_mm256_min_pd(a, b), _mm256_min_pd(_mm256_max_pd(a, b), c))
}

#[target_feature(enable = "avx2")]
pub(super) fn median3x3_avx2(out: &mut [f64], lines: [&[f64]; 3]) {
    let n = out.len();
    // Output 0 clamps its left neighbour; the lanes cover [1, n − 1) four
    // outputs at a time, each sorting its three window triples.
    median3x3_range(out, lines, 0, n.min(1));
    let [a, b, c] = lines.map(|l| l.as_ptr());
    let op = out.as_mut_ptr();
    let mut i = 1;
    while i + 4 < n {
        // SAFETY: outputs [i, i+4) read positions [i−1, i+5) of each line,
        // inside [0, n) for i >= 1 and i + 4 < n; the wrapper asserts that
        // every line is n long.
        unsafe {
            let (j0, j1, j2) = (i - 1, i, i + 1);
            let (l0, m0, h0) = sort3_avx2(
                _mm256_loadu_pd(a.add(j0)),
                _mm256_loadu_pd(b.add(j0)),
                _mm256_loadu_pd(c.add(j0)),
            );
            let (l1, m1, h1) = sort3_avx2(
                _mm256_loadu_pd(a.add(j1)),
                _mm256_loadu_pd(b.add(j1)),
                _mm256_loadu_pd(c.add(j1)),
            );
            let (l2, m2, h2) = sort3_avx2(
                _mm256_loadu_pd(a.add(j2)),
                _mm256_loadu_pd(b.add(j2)),
                _mm256_loadu_pd(c.add(j2)),
            );
            let lo = _mm256_max_pd(_mm256_max_pd(l0, l1), l2);
            let hi = _mm256_min_pd(_mm256_min_pd(h0, h1), h2);
            _mm256_storeu_pd(op.add(i), med3_avx2(lo, med3_avx2(m0, m1, m2), hi));
        }
        i += 4;
    }
    median3x3_range(out, lines, i, n);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn fir_complex_dot_avx2(taps: &[Complex], x: &[f64]) -> Complex {
    let n = taps.len();
    let (tp, xp) = (f64_ptr(taps), x.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: taps [i, i+4) span f64 offsets [2i, 2i+8) <= 2n and
        // x[i..i+4) <= n (equal lengths asserted by the wrapper).
        unsafe {
            let t0 = _mm256_loadu_pd(tp.add(2 * i));
            let t1 = _mm256_loadu_pd(tp.add(2 * i + 4));
            let xv = _mm256_loadu_pd(xp.add(i)); // [x0, x1, x2, x3]
            // [x0, x0, x1, x1] and [x2, x2, x3, x3]
            let x01 = _mm256_permute4x64_pd(xv, 0b0101_0000);
            let x23 = _mm256_permute4x64_pd(xv, 0b1111_1010);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(t0, x01));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(t1, x23));
        }
        i += 4;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut sums = [0.0; 2];
    // SAFETY: `sums` is exactly two f64s.
    unsafe { _mm_storeu_pd(sums.as_mut_ptr(), pair) };
    // echolint: allow(no-panic-path) -- `sums` is a fixed-size [f64; 2]
    let mut total = Complex::new(sums[0], sums[1]);
    while i < n {
        total += taps[i].scale(x[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "sse2")]
pub(super) fn fir_complex_dot_sse2(taps: &[Complex], x: &[f64]) -> Complex {
    let n = taps.len();
    let (tp, xp) = (f64_ptr(taps), x.as_ptr());
    let mut acc0 = _mm_setzero_pd();
    let mut acc1 = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: taps [i, i+2) span f64 offsets [2i, 2i+4) <= 2n and
        // x[i..i+2) <= n.
        unsafe {
            let t0 = _mm_loadu_pd(tp.add(2 * i));
            let t1 = _mm_loadu_pd(tp.add(2 * i + 2));
            acc0 = _mm_add_pd(acc0, _mm_mul_pd(t0, _mm_set1_pd(*xp.add(i))));
            acc1 = _mm_add_pd(acc1, _mm_mul_pd(t1, _mm_set1_pd(*xp.add(i + 1))));
        }
        i += 2;
    }
    let acc = _mm_add_pd(acc0, acc1);
    let mut sums = [0.0; 2];
    // SAFETY: `sums` is exactly two f64s.
    unsafe { _mm_storeu_pd(sums.as_mut_ptr(), acc) };
    // echolint: allow(no-panic-path) -- `sums` is a fixed-size [f64; 2]
    let mut total = Complex::new(sums[0], sums[1]);
    while i < n {
        total += taps[i].scale(x[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2")]
pub(super) fn fold_min_avx2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm256_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe { acc = _mm256_min_pd(acc, _mm256_loadu_pd(xp.add(i))) };
        i += 4;
    }
    let pair = _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut m = _mm_cvtsd_f64(_mm_min_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "sse2")]
pub(super) fn fold_min_sse2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = _mm_min_pd(acc, _mm_loadu_pd(xp.add(i))) };
        i += 2;
    }
    let mut m = _mm_cvtsd_f64(_mm_min_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "avx2")]
pub(super) fn fold_max_avx2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe { acc = _mm256_max_pd(acc, _mm256_loadu_pd(xp.add(i))) };
        i += 4;
    }
    let pair = _mm_max_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut m = _mm_cvtsd_f64(_mm_max_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        m = m.max(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "sse2")]
pub(super) fn fold_max_sse2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm_set1_pd(f64::NEG_INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = _mm_max_pd(acc, _mm_loadu_pd(xp.add(i))) };
        i += 2;
    }
    let mut m = _mm_cvtsd_f64(_mm_max_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        m = m.max(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "avx2")]
pub(super) fn envelope_charge_avx2(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let lov = _mm256_set1_pd(lo);
    let hiv = _mm256_set1_pd(hi);
    let zero = _mm256_setzero_pd();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(xp.add(i));
            let over = _mm256_max_pd(_mm256_sub_pd(v, hiv), zero);
            let under = _mm256_max_pd(_mm256_sub_pd(lov, v), zero);
            acc = _mm256_add_pd(acc, _mm256_add_pd(over, under));
        }
        i += 4;
    }
    let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut total = _mm_cvtsd_f64(_mm_add_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        let v = xs[i];
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
        i += 1;
    }
    total
}

#[target_feature(enable = "sse2")]
pub(super) fn envelope_charge_sse2(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let lov = _mm_set1_pd(lo);
    let hiv = _mm_set1_pd(hi);
    let zero = _mm_setzero_pd();
    let mut acc = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(xp.add(i));
            let over = _mm_max_pd(_mm_sub_pd(v, hiv), zero);
            let under = _mm_max_pd(_mm_sub_pd(lov, v), zero);
            acc = _mm_add_pd(acc, _mm_add_pd(over, under));
        }
        i += 2;
    }
    let mut total = _mm_cvtsd_f64(_mm_add_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        let v = xs[i];
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
        i += 1;
    }
    total
}
