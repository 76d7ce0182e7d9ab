//! aarch64 NEON kernel bodies (2 `f64` lanes).
//!
//! NEON is a baseline feature on aarch64, so every function here is a plain
//! safe function; the only `unsafe` is the pointer loads/stores, bounded by
//! the slice-length assertions in the parent module's safe wrappers.
//!
//! Per-element operation order matches the scalar references exactly — no
//! FMA (`vfmaq`) anywhere — so bitwise-pinned kernels stay bitwise. The two
//! 1e-9 reductions (`fir_complex_dot`, `envelope_charge`) split their sums
//! across lane accumulators like the x86 bodies do.

use super::conv1d_clamped_range;
use crate::complex::Complex;
use std::arch::aarch64::{
    float64x2_t, uint64x2_t, vaddq_f64, vaddvq_f64, vbicq_u64, vbslq_f64, vcgeq_f64, vcltq_f64,
    vdupq_n_f64, vextq_f64, vgetq_lane_f64, vld1q_f64, vmaxnmq_f64, vmaxq_f64, vminq_f64,
    vmulq_f64, vreinterpretq_f64_u64, vreinterpretq_u64_f64, vst1q_f64, vsubq_f64,
};

#[inline]
fn f64_ptr(s: &[Complex]) -> *const f64 {
    s.as_ptr().cast::<f64>()
}

#[inline]
fn f64_ptr_mut(s: &mut [Complex]) -> *mut f64 {
    s.as_mut_ptr().cast::<f64>()
}

/// Lane select: `mask ? a : b` per bit (NEON `BSL`).
#[inline]
#[target_feature(enable = "neon")]
fn select(mask: uint64x2_t, a: float64x2_t, b: float64x2_t) -> float64x2_t {
    vbslq_f64(mask, a, b)
}

/// `max(x, 0.0)` matching Rust's `f64::max` (NaN input yields the other
/// operand, i.e. `0.0`): `vmaxnmq` implements IEEE `maxNum`, which does
/// exactly that; plain `vmaxq` would propagate the NaN.
#[inline]
#[target_feature(enable = "neon")]
fn max_zero(v: float64x2_t) -> float64x2_t {
    vmaxnmq_f64(v, vdupq_n_f64(0.0))
}

/// Complex product of one packed pair, matching `Complex::mul` exactly:
/// `(ar·br − ai·bi, ar·bi + ai·br)`, no FMA.
#[inline]
#[target_feature(enable = "neon")]
fn cmul(a: float64x2_t, b: float64x2_t) -> float64x2_t {
    let ar = vdupq_n_f64(vgetq_lane_f64::<0>(a));
    let ai = vdupq_n_f64(vgetq_lane_f64::<1>(a));
    let bswap = vextq_f64::<1>(b, b); // [bi, br]
    let p1 = vmulq_f64(ar, b); // [ar·br, ar·bi]
    let p2 = vmulq_f64(ai, bswap); // [ai·bi, ai·br]
    // Negate lane 0 of p2 (exact sign flip), then add: a + (−b) ≡ a − b.
    let p2s = vreinterpretq_f64_u64(veor(vreinterpretq_u64_f64(p2), neg_lane0_sign()));
    vaddq_f64(p1, p2s)
}

#[inline]
#[target_feature(enable = "neon")]
fn veor(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
    std::arch::aarch64::veorq_u64(a, b)
}

/// Sign bit in lane 0 only — xor flips the sign of the first lane.
#[inline]
#[target_feature(enable = "neon")]
fn neg_lane0_sign() -> uint64x2_t {
    let lanes: [u64; 2] = [0x8000_0000_0000_0000, 0];
    // SAFETY: `lanes` is exactly two u64s.
    unsafe { std::arch::aarch64::vld1q_u64(lanes.as_ptr()) }
}

/// Conjugate mask: flips the sign bit of lane 1 (the `im` lane).
#[inline]
#[target_feature(enable = "neon")]
fn conj_mask() -> uint64x2_t {
    let lanes: [u64; 2] = [0, 0x8000_0000_0000_0000];
    // SAFETY: `lanes` is exactly two u64s.
    unsafe { std::arch::aarch64::vld1q_u64(lanes.as_ptr()) }
}

#[target_feature(enable = "neon")]
pub(super) fn subtract_clamp_neon(dst: &mut [f64], sub: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sv = vdupq_n_f64(sub);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = vld1q_f64(dp.add(i));
            vst1q_f64(dp.add(i), max_zero(vsubq_f64(v, sv)));
        }
        i += 2;
    }
    if i < n {
        dst[i] = (dst[i] - sub).max(0.0);
    }
}

#[target_feature(enable = "neon")]
pub(super) fn subtract_clamp_bg_neon(dst: &mut [f64], bg: &[f64]) {
    let n = dst.len();
    let (dp, bp) = (dst.as_mut_ptr(), bg.as_ptr());
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == dst.len() == bg.len().
        unsafe {
            let v = vld1q_f64(dp.add(i));
            let b = vld1q_f64(bp.add(i));
            vst1q_f64(dp.add(i), max_zero(vsubq_f64(v, b)));
        }
        i += 2;
    }
    if i < n {
        dst[i] = (dst[i] - bg[i]).max(0.0);
    }
}

#[target_feature(enable = "neon")]
pub(super) fn threshold_zero_neon(dst: &mut [f64], alpha: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let av = vdupq_n_f64(alpha);
    let zero = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = vld1q_f64(dp.add(i));
            let below = vcltq_f64(v, av); // NaN compares false, like scalar `<`
            vst1q_f64(dp.add(i), select(below, zero, v));
        }
        i += 2;
    }
    if i < n && dst[i] < alpha {
        dst[i] = 0.0;
    }
}

#[target_feature(enable = "neon")]
pub(super) fn binarize_neon(dst: &mut [f64], t: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let tv = vdupq_n_f64(t);
    let one = vdupq_n_f64(1.0);
    let zero = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = vld1q_f64(dp.add(i));
            let ge = vcgeq_f64(v, tv);
            vst1q_f64(dp.add(i), select(ge, one, zero));
        }
        i += 2;
    }
    if i < n {
        dst[i] = if dst[i] >= t { 1.0 } else { 0.0 };
    }
}

#[target_feature(enable = "neon")]
pub(super) fn abs_diff_broadcast_into_neon(out: &mut [f64], x: f64, b: &[f64]) {
    let n = out.len();
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let xv = vdupq_n_f64(x);
    let signbits = vreinterpretq_u64_f64(vdupq_n_f64(-0.0));
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == out.len() == b.len().
        unsafe {
            let d = vsubq_f64(xv, vld1q_f64(bp.add(i)));
            let a = vreinterpretq_f64_u64(vbicq_u64(vreinterpretq_u64_f64(d), signbits));
            vst1q_f64(op.add(i), a);
        }
        i += 2;
    }
    if i < n {
        out[i] = (x - b[i]).abs();
    }
}

#[target_feature(enable = "neon")]
pub(super) fn axpy_neon(acc: &mut [f64], src: &[f64], w: f64) {
    let n = acc.len();
    let (ap, sp) = (acc.as_mut_ptr(), src.as_ptr());
    let wv = vdupq_n_f64(w);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == acc.len() == src.len().
        unsafe {
            let a = vld1q_f64(ap.add(i));
            let s = vld1q_f64(sp.add(i));
            vst1q_f64(ap.add(i), vaddq_f64(a, vmulq_f64(wv, s)));
        }
        i += 2;
    }
    if i < n {
        acc[i] += w * src[i];
    }
}

/// All stages of a bit-reversed buffer, one stage and one block at a time
/// through [`butterflies`]: the NEON body keeps the pass-at-a-time shape of
/// the scalar reference rather than the fused sweeps of the x86 bodies.
#[target_feature(enable = "neon")]
pub(super) fn fft_stages_neon(buf: &mut [Complex], tw: &[Complex], inverse: bool) {
    let n = buf.len();
    let mut m = 2;
    while m <= n {
        let half = m / 2;
        let stage = &tw[half - 1..m - 1];
        for block in buf.chunks_exact_mut(m) {
            let (u, v) = block.split_at_mut(half);
            butterflies(u, v, stage, inverse);
        }
        m <<= 1;
    }
}

/// One block's radix-2 butterflies: `t = w·v[k]; (u[k], v[k]) = (u[k]+t,
/// u[k]−t)`, `w = tw[k]` conjugated when `inverse`.
#[target_feature(enable = "neon")]
fn butterflies(u: &mut [Complex], v: &mut [Complex], tw: &[Complex], inverse: bool) {
    let n = u.len().min(v.len()).min(tw.len());
    let (up, vp, tp) = (f64_ptr_mut(u), f64_ptr_mut(v), f64_ptr(tw));
    let conj = conj_mask();
    for i in 0..n {
        // SAFETY: complex i spans f64 offsets [2i, 2i+2) <= 2n in all three
        // buffers (n is the shortest of their lengths).
        unsafe {
            let mut w = vld1q_f64(tp.add(2 * i));
            if inverse {
                w = vreinterpretq_f64_u64(veor(vreinterpretq_u64_f64(w), conj));
            }
            let b = vld1q_f64(vp.add(2 * i));
            let a = vld1q_f64(up.add(2 * i));
            let t = cmul(w, b);
            vst1q_f64(up.add(2 * i), vaddq_f64(a, t));
            vst1q_f64(vp.add(2 * i), vsubq_f64(a, t));
        }
    }
}

#[target_feature(enable = "neon")]
pub(super) fn realfft_split_neon(
    out: &mut [Complex],
    packed: &[Complex],
    tw: &[Complex],
    lo: usize,
) {
    let m = packed.len();
    let (op, pp, tp) = (f64_ptr_mut(out), f64_ptr(packed), f64_ptr(tw));
    let conj = conj_mask();
    let halfv = vdupq_n_f64(0.5);
    let half_neghalf = {
        let lanes: [f64; 2] = [0.5, -0.5];
        // SAFETY: `lanes` is exactly two f64s.
        unsafe { vld1q_f64(lanes.as_ptr()) }
    };
    for (i, k) in (lo..lo + out.len()).enumerate() {
        // SAFETY: reads packed[k], packed[m−k], tw[k], writes out[i]; all in
        // range for 1 <= k < m given the wrapper's assertions.
        unsafe {
            let zk = vld1q_f64(pp.add(2 * k));
            let zc = vreinterpretq_f64_u64(veor(
                vreinterpretq_u64_f64(vld1q_f64(pp.add(2 * (m - k)))),
                conj,
            ));
            let even = vmulq_f64(vaddq_f64(zk, zc), halfv);
            let diff = vsubq_f64(zk, zc);
            // [diff.im, diff.re] · [0.5, −0.5] — bitwise equal to the
            // reference's (diff.im · 0.5, −(diff.re · 0.5)).
            let odd = vmulq_f64(vextq_f64::<1>(diff, diff), half_neghalf);
            let w = vld1q_f64(tp.add(2 * k));
            vst1q_f64(op.add(2 * i), vaddq_f64(even, cmul(w, odd)));
        }
    }
}

#[target_feature(enable = "neon")]
pub(super) fn conv1d_clamped_into_neon(out: &mut [f64], src: &[f64], taps: &[f64]) {
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
            let mut acc = vdupq_n_f64(0.0);
            let base = sp.add(i - half);
            for (k, &kv) in taps.iter().enumerate() {
                let s = vld1q_f64(base.add(k));
                acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(kv), s));
            }
            vst1q_f64(op.add(i), acc);
        }
        i += 2;
    }
    conv1d_clamped_range(out, src, taps, i, hi);
}

#[target_feature(enable = "neon")]
pub(super) fn fir_complex_dot_neon(taps: &[Complex], x: &[f64]) -> Complex {
    let n = taps.len();
    let tp = f64_ptr(taps);
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: taps [i, i+2) span f64 offsets [2i, 2i+4) <= 2n and
        // x[i..i+2) <= n (equal lengths asserted by the wrapper).
        unsafe {
            let t0 = vld1q_f64(tp.add(2 * i));
            let t1 = vld1q_f64(tp.add(2 * i + 2));
            acc0 = vaddq_f64(acc0, vmulq_f64(t0, vdupq_n_f64(x[i])));
            acc1 = vaddq_f64(acc1, vmulq_f64(t1, vdupq_n_f64(x[i + 1])));
        }
        i += 2;
    }
    let acc = vaddq_f64(acc0, acc1);
    let mut total = Complex::new(vgetq_lane_f64::<0>(acc), vgetq_lane_f64::<1>(acc));
    while i < n {
        total += taps[i].scale(x[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
pub(super) fn fold_min_neon(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = vdupq_n_f64(f64::INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = vminq_f64(acc, vld1q_f64(xp.add(i))) };
        i += 2;
    }
    let mut m = vgetq_lane_f64::<0>(acc).min(vgetq_lane_f64::<1>(acc));
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "neon")]
pub(super) fn fold_max_neon(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = vdupq_n_f64(f64::NEG_INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = vmaxq_f64(acc, vld1q_f64(xp.add(i))) };
        i += 2;
    }
    let mut m = vgetq_lane_f64::<0>(acc).max(vgetq_lane_f64::<1>(acc));
    while i < n {
        m = m.max(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "neon")]
pub(super) fn envelope_charge_neon(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let lov = vdupq_n_f64(lo);
    let hiv = vdupq_n_f64(hi);
    let mut acc = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = vld1q_f64(xp.add(i));
            let over = max_zero(vsubq_f64(v, hiv));
            let under = max_zero(vsubq_f64(lov, v));
            acc = vaddq_f64(acc, vaddq_f64(over, under));
        }
        i += 2;
    }
    let mut total = vaddvq_f64(acc);
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
