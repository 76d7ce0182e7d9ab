//! Real-input FFT via the packed half-size complex transform.
//!
//! An N-point DFT of a real signal wastes half its butterflies on the
//! conjugate-symmetric upper spectrum. [`RealFft`] instead packs the even
//! samples into the real lane and the odd samples into the imaginary lane of
//! an N/2-point complex FFT, then unpacks the interleaved spectra with one
//! O(N) split pass:
//!
//! ```text
//! z[t]  = x[2t] + i·x[2t+1]                    (packing, t < N/2)
//! Z     = FFT_{N/2}(z)
//! Xe[k] = (Z[k] + conj(Z[N/2−k])) / 2          (even-sample spectrum)
//! Xo[k] = (Z[k] − conj(Z[N/2−k])) / 2i         (odd-sample spectrum)
//! X[k]  = Xe[k] + e^{−2πik/N} · Xo[k]          (k ≤ N/2)
//! ```
//!
//! This halves the butterfly work of the STFT hot path. The packing writes
//! each pair straight to its bit-reversed slot of the half-size transform
//! ([`Fft`]'s load), and the split is computed per bin, so a caller that
//! wants a band of the spectrum (the STFT's region of interest) splits only
//! that band. Callers that need zero allocation per transform thread a
//! [`RealFftScratch`] through [`RealFft::forward_into`]; the planner itself
//! is immutable and can be shared across threads.

use crate::complex::Complex;
use crate::fft::Fft;

/// Bins split per round on the band path: the stack buffer the complex bins
/// pass through on their way to magnitudes.
const SPLIT_CHUNK: usize = 64;

/// A planned FFT for real input of a fixed power-of-two size.
///
/// Produces the lower `size/2 + 1` spectrum bins (DC through Nyquist); the
/// remaining bins of a real signal's spectrum are their conjugates.
///
/// # Example
///
/// ```
/// use echowrite_dsp::RealFft;
///
/// let fft = RealFft::new(8);
/// let signal = [1.0; 8];
/// let spec = fft.forward(&signal);
/// assert_eq!(spec.len(), 5);
/// assert!((spec[0].re - 8.0).abs() < 1e-12);
/// assert!(spec[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    size: usize,
    half: Fft,
    /// Split twiddles `exp(-2πik/N)` for `k < N/2`.
    twiddles: Vec<Complex>,
}

/// Reusable workspace for [`RealFft::forward_into`]: the packed half-size
/// complex buffer.
#[derive(Debug, Clone)]
pub struct RealFftScratch {
    packed: Vec<Complex>,
}

impl RealFft {
    /// Plans a real-input FFT of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two, or is smaller than 2.
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT size must be a power of two, got {size}");
        assert!(size >= 2, "real FFT size must be at least 2, got {size}");
        let half = Fft::new(size / 2);
        let twiddles = (0..size / 2)
            .map(|k| Complex::from_angle(-2.0 * std::f64::consts::PI * k as f64 / size as f64))
            .collect();
        RealFft { size, half, twiddles }
    }

    /// Returns the planned (real input) transform size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns the number of spectrum bins produced: `size/2 + 1`.
    #[inline]
    pub fn output_len(&self) -> usize {
        self.size / 2 + 1
    }

    /// Allocates a scratch buffer sized for this plan.
    pub fn make_scratch(&self) -> RealFftScratch {
        // echolint: allow(alloc-reach) -- deliberate one-time plan allocation; hot paths reuse the scratch
        RealFftScratch { packed: vec![Complex::ZERO; self.size / 2] }
    }

    /// Computes the lower half-spectrum of `signal` into `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != size` or `out.len() != size/2 + 1`.
    pub fn forward_into(
        &self,
        signal: &[f64],
        scratch: &mut RealFftScratch,
        out: &mut [Complex],
    ) {
        assert_eq!(
            signal.len(),
            self.size,
            "signal length {} does not match planned real FFT size {}",
            signal.len(),
            self.size
        );
        assert_eq!(
            out.len(),
            self.output_len(),
            "output length {} does not match spectrum size {}",
            out.len(),
            self.output_len()
        );
        let m = self.size / 2;
        scratch.packed.resize(m, Complex::ZERO);
        let (pairs, _) = signal.as_chunks::<2>();
        self.half.forward_from(
            &mut scratch.packed,
            pairs.iter().map(|&[even, odd]| Complex::new(even, odd)),
        );
        self.split_into(&scratch.packed, 0, out);
    }

    /// Magnitudes of bins `[lo_bin, lo_bin + out.len())` of the spectrum of
    /// the windowed frame `signal[i]·window[i]`, allocating nothing. The
    /// window multiply happens in the bit-reversed load and only the
    /// requested bins are split, so no windowed copy and no full half
    /// spectrum are ever materialized. Bitwise equal to
    /// [`RealFft::forward_into`] on the windowed frame followed by `norm()`
    /// of those bins.
    ///
    /// # Panics
    ///
    /// Panics if `signal` or `window` is not `size` long, or the band runs
    /// past the Nyquist bin.
    pub(crate) fn windowed_band_magnitudes_into(
        &self,
        signal: &[f64],
        window: &[f64],
        lo_bin: usize,
        scratch: &mut RealFftScratch,
        out: &mut [f64],
    ) {
        assert_eq!(signal.len(), self.size, "signal length does not match planned real FFT size");
        assert_eq!(window.len(), self.size, "window length does not match planned real FFT size");
        assert!(lo_bin + out.len() <= self.output_len(), "band runs past the Nyquist bin");
        scratch.packed.resize(self.size / 2, Complex::ZERO);
        let (pairs, _) = signal.as_chunks::<2>();
        let (weights, _) = window.as_chunks::<2>();
        let windowed = pairs
            .iter()
            .zip(weights)
            .map(|(&[x0, x1], &[w0, w1])| Complex::new(x0 * w0, x1 * w1));
        self.half.forward_from(&mut scratch.packed, windowed);
        // The band's complex bins pass through a small stack buffer on their
        // way to magnitudes.
        let mut spectrum = [Complex::ZERO; SPLIT_CHUNK];
        for (i, mags) in out.chunks_mut(SPLIT_CHUNK).enumerate() {
            let bins = &mut spectrum[..mags.len()];
            self.split_into(&scratch.packed, lo_bin + i * SPLIT_CHUNK, bins);
            for (mag, z) in mags.iter_mut().zip(bins.iter()) {
                *mag = z.norm();
            }
        }
    }

    /// Unpacks bins `[lo, lo + out.len())` of the half spectrum from the
    /// transformed packed buffer.
    fn split_into(&self, packed: &[Complex], lo: usize, out: &mut [Complex]) {
        let m = self.size / 2;
        // DC and Nyquist are purely real: the even/odd spectra both equal
        // Z[0]'s components there.
        let z0 = packed.first().copied().unwrap_or(Complex::ZERO);
        let (mut lo, mut out) = (lo, out);
        if lo == 0 {
            if let Some((dc, rest)) = std::mem::take(&mut out).split_first_mut() {
                *dc = Complex::new(z0.re + z0.im, 0.0);
                (lo, out) = (1, rest);
            }
        }
        // Interior bins run through the SIMD-dispatched split kernel,
        // pinned bitwise to the scalar loop it replaced:
        //   odd = diff / 2i = (diff.im - i·diff.re) / 2
        let end = (lo + out.len()).min(m);
        let (interior, nyquist) = out.split_at_mut(end - lo);
        crate::kernels::realfft_split(interior, packed, &self.twiddles, lo..end);
        if let Some(z) = nyquist.first_mut() {
            *z = Complex::new(z0.re - z0.im, 0.0);
        }
    }

    /// Computes the lower half-spectrum of `signal`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != size`.
    pub fn forward(&self, signal: &[f64]) -> Vec<Complex> {
        let mut scratch = self.make_scratch();
        // echolint: allow(alloc-reach) -- allocating convenience wrapper; hot callers use forward_into
        let mut out = vec![Complex::ZERO; self.output_len()];
        self.forward_into(signal, &mut scratch, &mut out);
        out
    }

    /// Computes half-spectrum magnitudes into `mags` without allocating.
    ///
    /// `spectrum` is overwritten as workspace.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length disagrees with the plan.
    pub fn magnitudes_into(
        &self,
        signal: &[f64],
        scratch: &mut RealFftScratch,
        spectrum: &mut [Complex],
        mags: &mut [f64],
    ) {
        assert_eq!(
            mags.len(),
            self.output_len(),
            "magnitude length {} does not match spectrum size {}",
            mags.len(),
            self.output_len()
        );
        self.forward_into(signal, scratch, spectrum);
        for (m, z) in mags.iter_mut().zip(spectrum.iter()) {
            *m = z.norm();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    /// Deterministic pseudo-random real signal (no RNG dependency needed).
    fn noise(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.731 + phase).sin() + 0.4 * (t * 1.934 + 2.0 * phase).cos()
                    + 0.05 * ((t * t * 0.013 + phase).sin())
            })
            .collect()
    }

    #[test]
    fn matches_complex_fft_to_1e9() {
        for &n in &[2usize, 4, 8, 32, 256, 1024, 8192] {
            let real = RealFft::new(n);
            let full = Fft::new(n);
            for trial in 0..3 {
                let signal = noise(n, trial as f64 * 1.7);
                let fast = real.forward(&signal);
                let reference = full.forward_real(&signal);
                assert_eq!(fast.len(), n / 2 + 1);
                for (k, (a, b)) in fast.iter().zip(&reference).enumerate() {
                    assert!(
                        (*a - *b).norm() <= 1e-9,
                        "n={n} trial={trial} bin {k}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 64;
        let real = RealFft::new(n);
        let signal = noise(n, 0.3);
        let input: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let slow = dft_naive(&input);
        for (k, a) in real.forward(&signal).iter().enumerate() {
            assert!((*a - slow[k]).norm() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn forward_into_is_allocation_free_on_reuse() {
        let n = 128;
        let real = RealFft::new(n);
        let mut scratch = real.make_scratch();
        let mut out = vec![Complex::ZERO; real.output_len()];
        let a = noise(n, 0.0);
        let b = noise(n, 5.0);
        real.forward_into(&a, &mut scratch, &mut out);
        let first = out[3];
        real.forward_into(&b, &mut scratch, &mut out);
        real.forward_into(&a, &mut scratch, &mut out);
        // Scratch reuse must not leak state between transforms.
        assert_eq!(out[3], first);
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let real = RealFft::new(n);
        let k0 = 9;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64).cos())
            .collect();
        let mut scratch = real.make_scratch();
        let mut spec = vec![Complex::ZERO; real.output_len()];
        let mut mags = vec![0.0; real.output_len()];
        real.magnitudes_into(&signal, &mut scratch, &mut spec, &mut mags);
        assert!((mags[k0] - n as f64 / 2.0).abs() < 1e-9);
        for (k, &m) in mags.iter().enumerate() {
            if k != k0 {
                assert!(m < 1e-9, "leakage at bin {k}: {m}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 32;
        let real = RealFft::new(n);
        let spec = real.forward(&noise(n, 2.2));
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[n / 2].im, 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        RealFft::new(24);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_size_one() {
        RealFft::new(1);
    }

    #[test]
    #[should_panic(expected = "does not match planned")]
    fn rejects_wrong_signal_length() {
        let real = RealFft::new(16);
        real.forward(&[0.0; 8]);
    }
}
