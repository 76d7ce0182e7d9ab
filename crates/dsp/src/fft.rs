//! Iterative radix-2 fast Fourier transform.
//!
//! The paper performs an 8192-point STFT on every 1024-sample hop, so FFT
//! speed matters. This implementation precomputes bit-reversal permutations
//! and twiddle factors once per size in an [`Fft`] planner, then runs an
//! in-place iterative Cooley–Tukey butterfly network — every stage in one
//! call to the SIMD-dispatched [`crate::kernels::fft_stages`].
//!
//! The network wants its input in bit-reversed order. [`Fft::forward`]
//! takes natural-order data and permutes it with a swap pass; the STFT
//! front-ends instead hand [`Fft::forward_from`] the samples they are
//! computing anyway (a windowed frame), which writes each one straight to
//! its bit-reversed slot, so the permutation costs no pass of its own.

use crate::complex::Complex;

/// A planned radix-2 FFT of a fixed power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and per-stage
/// twiddle factors; [`Fft::forward`] and [`Fft::inverse`] then run without
/// allocation.
///
/// # Example
///
/// ```
/// use echowrite_dsp::{Fft, Complex};
///
/// let fft = Fft::new(4);
/// let mut x = vec![Complex::ONE; 4];
/// fft.forward(&mut x);
/// // The DFT of a constant signal is an impulse at DC.
/// assert!((x[0].re - 4.0).abs() < 1e-12);
/// assert!(x[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    rev: Vec<u32>,
    /// Twiddles for the forward transform, laid out stage-major: for each
    /// butterfly half-length `m/2` the factors `exp(-2πik/m)` (the layout
    /// [`crate::kernels::fft_stages`] reads).
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Plans an FFT of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT size must be a power of two, got {size}");
        let bits = size.trailing_zeros();
        let rev = (0..size as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        // Total twiddle count: sum over stages of m/2 = size - 1.
        let mut twiddles = Vec::with_capacity(size.saturating_sub(1));
        let mut m = 2;
        while m <= size {
            let half = m / 2;
            for k in 0..half {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / m as f64;
                twiddles.push(Complex::from_angle(theta));
            }
            m <<= 1;
        }
        Fft { size, rev, twiddles }
    }

    /// Returns the planned transform size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Computes the forward DFT of `buf` in place (no normalization).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.transform(buf, false);
    }

    /// Computes the inverse DFT of `buf` in place, scaling by `1/N` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.transform(buf, true);
        let scale = 1.0 / self.size as f64;
        for z in buf.iter_mut() {
            *z = z.scale(scale);
        }
    }

    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        assert_eq!(
            buf.len(),
            self.size,
            "buffer length {} does not match planned FFT size {}",
            buf.len(),
            self.size
        );
        if self.size == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..self.size {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        crate::kernels::fft_stages(buf, &self.twiddles, inverse);
    }

    /// Computes the forward DFT of `samples` (natural order, exactly `size`
    /// of them) into `buf`, writing each sample straight to its
    /// bit-reversed slot instead of running [`Fft::forward`]'s swap pass.
    /// Bitwise equal to filling `buf` with `samples` and calling
    /// [`Fft::forward`]: the slots receive the same values the swaps would
    /// have moved there.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub(crate) fn forward_from(
        &self,
        buf: &mut [Complex],
        samples: impl IntoIterator<Item = Complex>,
    ) {
        assert_eq!(
            buf.len(),
            self.size,
            "buffer length {} does not match planned FFT size {}",
            buf.len(),
            self.size
        );
        let mut loaded = 0;
        for (&slot, z) in self.rev.iter().zip(samples) {
            buf[slot as usize] = z;
            loaded += 1;
        }
        debug_assert_eq!(
            loaded, self.size,
            "forward_from needs exactly one sample per slot"
        );
        crate::kernels::fft_stages(buf, &self.twiddles, false);
    }

    /// Computes the forward DFT of a real signal, returning the full complex
    /// spectrum of length `size`.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the planned size.
    pub fn forward_real(&self, signal: &[f64]) -> Vec<Complex> {
        assert_eq!(signal.len(), self.size);
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        self.forward(&mut buf);
        buf
    }

    /// Computes magnitudes of the forward DFT of a real signal.
    ///
    /// Only the first `size/2 + 1` bins are returned since the spectrum of a
    /// real signal is conjugate-symmetric.
    pub fn magnitude_real(&self, signal: &[f64]) -> Vec<f64> {
        let spec = self.forward_real(signal);
        spec[..self.size / 2 + 1].iter().map(|z| z.norm()).collect()
    }
}

/// Computes a naive O(N²) DFT; used as a cross-check oracle in tests and by
/// callers that need arbitrary (non power-of-two) sizes.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += x * Complex::from_angle(theta);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, eps: f64) {
        assert!(
            (a - b).norm() < eps,
            "expected {b:?}, got {a:?} (difference {})",
            (a - b).norm()
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft::new(12);
    }

    #[test]
    fn size_one_is_identity() {
        let fft = Fft::new(1);
        let mut x = vec![Complex::new(5.0, -2.0)];
        fft.forward(&mut x);
        assert_eq!(x[0], Complex::new(5.0, -2.0));
        fft.inverse(&mut x);
        assert_eq!(x[0], Complex::new(5.0, -2.0));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let fft = Fft::new(16);
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        fft.forward(&mut x);
        for z in &x {
            assert_close(*z, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let fft = Fft::new(n);
        let k0 = 5;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64).cos())
            .collect();
        let mags = fft.magnitude_real(&signal);
        // Energy concentrates in bin k0 with amplitude N/2 for a unit cosine.
        assert!((mags[k0] - n as f64 / 2.0).abs() < 1e-9);
        for (k, &m) in mags.iter().enumerate() {
            if k != k0 {
                assert!(m < 1e-9, "leakage at bin {k}: {m}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let fft = Fft::new(n);
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let mut fast = input.clone();
        fft.forward(&mut fast);
        let slow = dft_naive(&input);
        for (a, b) in fast.iter().zip(&slow) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn roundtrip_preserves_signal() {
        let n = 128;
        let fft = Fft::new(n);
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut buf = original.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 256;
        let fft = Fft::new(n);
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.11).sin() + 0.3, 0.0))
            .collect();
        let time_energy: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = signal;
        fft.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let fft = Fft::new(n);
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i as f64).cos())).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();

        let mut fa = a;
        fft.forward(&mut fa);
        let mut fb = b;
        fft.forward(&mut fb);
        let mut fsum = sum;
        fft.forward(&mut fsum);
        for i in 0..n {
            assert_close(fsum[i], fa[i] + fb[i].scale(2.0), 1e-9);
        }
    }

    #[test]
    fn real_spectrum_is_conjugate_symmetric() {
        let n = 32;
        let fft = Fft::new(n);
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let spec = fft.forward_real(&signal);
        for k in 1..n / 2 {
            assert_close(spec[n - k], spec[k].conj(), 1e-9);
        }
    }

    #[test]
    fn forward_from_matches_forward_bitwise() {
        for n in [1usize, 2, 4, 8, 64, 256, 2048] {
            let fft = Fft::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.9).cos() - 0.2))
                .collect();
            let mut swapped = input.clone();
            fft.forward(&mut swapped);
            let mut loaded = vec![Complex::new(7.0, -7.0); n];
            fft.forward_from(&mut loaded, input);
            for (a, b) in loaded.iter().zip(&swapped) {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match planned")]
    fn rejects_wrong_buffer_length() {
        let fft = Fft::new(8);
        let mut x = vec![Complex::ZERO; 4];
        fft.forward(&mut x);
    }

    #[test]
    fn paper_size_8192_roundtrip() {
        let n = 8192;
        let fft = Fft::new(n);
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((2.0 * std::f64::consts::PI * 20_000.0 * i as f64 / 44_100.0).sin(), 0.0))
            .collect();
        let mut buf = signal.clone();
        fft.forward(&mut buf);
        // Peak bin should be near 20 kHz * 8192 / 44100 ≈ 3715.
        let peak = buf[..n / 2]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .map(|(i, _)| i)
            .unwrap();
        assert!((peak as i64 - 3715).abs() <= 1, "peak bin {peak}");
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&signal).step_by(500) {
            assert_close(*a, *b, 1e-8);
        }
    }
}
