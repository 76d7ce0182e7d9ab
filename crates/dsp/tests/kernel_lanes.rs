//! Lane-remainder equivalence for the SIMD kernel layer.
//!
//! Every vectorized kernel processes full lanes and then a scalar tail; the
//! off-by-one bugs live at that boundary. These properties pin each public
//! kernel to its `_ref` scalar reference at exactly the awkward lengths —
//! `1`, `lane−1`, `lane+1`, `2·lane+1`, and odd ROI band widths — under
//! whatever backend the dispatcher selected for this process. Running the
//! binary with `ECHOWRITE_SIMD=scalar` turns the same suite into a
//! scalar-vs-scalar self-check (CI runs both).
//!
//! Bitwise-class kernels are compared by `f64::to_bits`; the two
//! reassociating reductions (`fir_complex_dot`, `envelope_charge`) get the
//! documented 1e-9 tolerance. The FFT stage kernel is pinned at every power
//! of two up to the paper's 8 192 points, and the STFT's band-only split
//! path against the full real transform. The 3×3 median runs on its
//! bitwise domain (no NaN, no `−0.0`), with tie-heavy lines and with one
//! slice passed as several lines.

use echowrite_dsp::kernels;
use echowrite_dsp::{Complex, RealFft, Stft, StftConfig};
use proptest::prelude::*;

/// Upper bound of the length sweep — larger than `2·lane+1` for every
/// backend (AVX2's 4 f64 lanes included) plus the odd ROI band widths.
const MAX_LEN: usize = 34;

/// The lengths where a lane/tail split can go wrong, for the selected
/// backend (scalar reports 1 lane; the widths still cover the SIMD shapes).
fn remainder_lengths() -> Vec<usize> {
    let lane = kernels::backend().f64_lanes().max(2);
    let mut ls = vec![1, lane - 1, lane + 1, 2 * lane + 1, 7, 13, 33];
    ls.sort_unstable();
    ls.dedup();
    ls
}

fn sig() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, MAX_LEN)
}

/// Magnitude-like median lines: `+0.0` or greater, inside the median
/// kernel's bitwise domain.
fn magnitudes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, MAX_LEN)
}

/// Indices into [`POOL`], for tie-heavy median lines.
fn pool_picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..POOL.len(), MAX_LEN)
}

/// Four values, `+0.0` among them: lines drawn from it put ties in almost
/// every 3×3 window.
const POOL: [f64; 4] = [0.0, 1.0, 2.5, 7.0];

fn tied(picks: &[usize]) -> Vec<f64> {
    picks.iter().map(|&k| POOL[k]).collect()
}

/// `median3x3` against its reference on three distinct lines, and with one
/// slice passed as two or all three lines, as both callers' clamped edges
/// pass it. The output starts as NaN, so a lane left unwritten shows.
#[track_caller]
fn check_median3x3(a: &[f64], b: &[f64], c: &[f64], what: &str) {
    for lines in [[a, b, c], [a, a, b], [a, b, b], [c, c, c]] {
        let mut fast = vec![f64::NAN; a.len()];
        let mut slow = vec![0.0; a.len()];
        kernels::median3x3(&mut fast, lines);
        kernels::median3x3_ref(&mut slow, lines);
        assert_bits(&fast, &slow, &format!("median3x3 {what} n={}", a.len()));
    }
}

fn complex(re: &[f64], im: &[f64]) -> Vec<Complex> {
    re.iter().zip(im).map(|(&r, &i)| Complex::new(r, i)).collect()
}

#[track_caller]
fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane mismatch at {i}: {x} vs {y}");
    }
}

#[track_caller]
fn assert_bits_c(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re mismatch at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im mismatch at {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------- Elementwise maps (bitwise) ----------

    #[test]
    fn elementwise_match_ref_at_remainders(
        a in sig(), b in sig(), s in -50.0f64..50.0, alpha in 0.0f64..2.0
    ) {
        for n in remainder_lengths() {
            let (a, b) = (&a[..n], &b[..n]);

            let mut fast = a.to_vec();
            let mut slow = a.to_vec();
            kernels::subtract_clamp(&mut fast, s);
            kernels::subtract_clamp_ref(&mut slow, s);
            assert_bits(&fast, &slow, "subtract_clamp");

            let mut fast = a.to_vec();
            let mut slow = a.to_vec();
            kernels::subtract_clamp_bg(&mut fast, b);
            kernels::subtract_clamp_bg_ref(&mut slow, b);
            assert_bits(&fast, &slow, "subtract_clamp_bg");

            let mut fast = a.to_vec();
            let mut slow = a.to_vec();
            kernels::threshold_zero(&mut fast, alpha);
            kernels::threshold_zero_ref(&mut slow, alpha);
            assert_bits(&fast, &slow, "threshold_zero");

            let mut fast = a.to_vec();
            let mut slow = a.to_vec();
            kernels::binarize(&mut fast, s);
            kernels::binarize_ref(&mut slow, s);
            assert_bits(&fast, &slow, "binarize");

            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            kernels::abs_diff_broadcast_into(&mut fast, s, b);
            kernels::abs_diff_broadcast_into_ref(&mut slow, s, b);
            assert_bits(&fast, &slow, "abs_diff_broadcast_into");

            let mut fast = a.to_vec();
            let mut slow = a.to_vec();
            kernels::axpy(&mut fast, b, s);
            kernels::axpy_ref(&mut slow, b, s);
            assert_bits(&fast, &slow, "axpy");
        }
    }

    // ---------- Structured passes (bitwise) ----------

    #[test]
    fn realfft_split_matches_ref_at_remainders(
        pr in sig(), pi in sig(), tr in sig(), ti in sig()
    ) {
        let (packed, tw) = (complex(&pr, &pi), complex(&tr, &ti));
        for m in remainder_lengths() {
            // The whole interior, and every band starting at each bin.
            for lo in 1..m {
                let bins = lo..m;
                let mut fast = vec![Complex::ZERO; bins.len()];
                let mut slow = vec![Complex::ZERO; bins.len()];
                kernels::realfft_split(&mut fast, &packed[..m], &tw[..m], bins.clone());
                kernels::realfft_split_ref(&mut slow, &packed[..m], &tw[..m], bins);
                assert_bits_c(&fast, &slow, "realfft_split");
            }
        }
    }

    #[test]
    fn conv1d_matches_ref_at_odd_band_widths(src in sig(), taps in sig(), tn in 0usize..3) {
        let taps = &taps[..[1usize, 3, 5][tn]];
        for n in remainder_lengths() {
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            kernels::conv1d_clamped_into(&mut fast, &src[..n], taps);
            kernels::conv1d_clamped_into_ref(&mut slow, &src[..n], taps);
            assert_bits(&fast, &slow, "conv1d_clamped_into");
        }
    }

    // ---------- Order statistics (bitwise) ----------

    #[test]
    fn median3x3_matches_ref_at_remainders(
        a in magnitudes(), b in magnitudes(), c in magnitudes(),
        pa in pool_picks(), pb in pool_picks(), pc in pool_picks()
    ) {
        for n in remainder_lengths() {
            check_median3x3(&a[..n], &b[..n], &c[..n], "spread");
            let [ta, tb, tc] = [&pa, &pb, &pc].map(|p| tied(&p[..n]));
            check_median3x3(&ta, &tb, &tc, "tied");
        }
    }

    // ---------- Reductions ----------

    #[test]
    fn folds_match_ref_at_remainders(x in sig()) {
        for n in remainder_lengths() {
            let x = &x[..n];
            prop_assert_eq!(kernels::fold_min(x).to_bits(), kernels::fold_min_ref(x).to_bits());
            prop_assert_eq!(kernels::fold_max(x).to_bits(), kernels::fold_max_ref(x).to_bits());
        }
    }

    #[test]
    fn fir_complex_dot_matches_ref_within_1e9(tr in sig(), ti in sig(), x in sig()) {
        let taps = complex(&tr, &ti);
        for n in remainder_lengths() {
            let fast = kernels::fir_complex_dot(&taps[..n], &x[..n]);
            let slow = kernels::fir_complex_dot_ref(&taps[..n], &x[..n]);
            let scale = slow.norm_sqr().sqrt().max(1.0);
            prop_assert!((fast.re - slow.re).abs() <= 1e-9 * scale, "re at n={}", n);
            prop_assert!((fast.im - slow.im).abs() <= 1e-9 * scale, "im at n={}", n);
        }
    }

    #[test]
    fn envelope_charge_matches_ref_within_1e9(
        x in sig(), a in -50.0f64..50.0, b in -50.0f64..50.0
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for n in remainder_lengths() {
            let fast = kernels::envelope_charge(&x[..n], lo, hi);
            let slow = kernels::envelope_charge_ref(&x[..n], lo, hi);
            prop_assert!((fast - slow).abs() <= 1e-9 * slow.max(1.0), "n={}", n);
        }
    }
}

/// Deterministic pseudo-random complexes in `[-1, 1)²` for the FFT sweeps
/// (a tiny LCG, so the sizes up to 8 192 need no large strategy).
fn lcg_complexes(n: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 11) as f64) / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// The stage kernel against its stage-at-a-time reference at every power
/// of two from 1 to 8 192 points, forward and inverse. Arbitrary twiddles
/// (not unit-circle ones) leave no symmetry behind which a misplaced
/// twiddle index could hide.
#[test]
fn fft_stages_matches_ref_at_every_power_of_two() {
    for log2 in 0..=13u32 {
        let n = 1usize << log2;
        let tw = lcg_complexes(n - 1, u64::from(log2) + 101);
        for inverse in [false, true] {
            let input = lcg_complexes(n, u64::from(log2) + 202);
            let (mut fast, mut slow) = (input.clone(), input);
            kernels::fft_stages(&mut fast, &tw, inverse);
            kernels::fft_stages_ref(&mut slow, &tw, inverse);
            assert_bits_c(&fast, &slow, &format!("fft_stages n={n} inverse={inverse}"));
        }
    }
}

/// The STFT's band path (window multiply folded into the bit-reversed
/// load, split over the band only) against the whole real transform of the
/// windowed frame followed by `norm()`: bitwise, for a band at DC, a band
/// ending at Nyquist, a single bin, and the paper's region of interest.
#[test]
fn stft_band_path_matches_full_real_fft_bitwise() {
    let config = StftConfig::paper();
    let n = config.fft_size;
    let stft = Stft::new(config);
    let real = RealFft::new(n);
    let window = config.window.coefficients(n);
    let frame: Vec<f64> = lcg_complexes(n / 2, 7).iter().flat_map(|z| [z.re, z.im]).collect();

    let windowed: Vec<f64> = frame.iter().zip(&window).map(|(x, w)| x * w).collect();
    let mut spectrum = vec![Complex::ZERO; real.output_len()];
    real.forward_into(&windowed, &mut real.make_scratch(), &mut spectrum);
    let full: Vec<f64> = spectrum.iter().map(|z| z.norm()).collect();

    let roi = (config.frequency_bin(20_000.0 - 470.6), config.frequency_bin(20_000.0 + 470.6));
    let mut scratch = stft.make_scratch();
    for (lo, hi) in [(0, 200), (n / 2 - 130, n / 2), (0, n / 2), (1234, 1234), roi] {
        let mut band = vec![0.0; hi - lo + 1];
        stft.frame_band_into(&frame, lo, hi, &mut scratch, &mut band);
        assert_bits(&band, &full[lo..=hi], &format!("band [{lo}, {hi}]"));
    }
}

/// Deterministic sweep over every length `0..=33` — the properties above
/// draw from the remainder set, this closes the gap for the lengths in
/// between (and the empty slice, where the folds return their identities).
#[test]
fn elementwise_kernels_match_ref_at_every_small_length() {
    // Tiny LCG so the sweep needs no RNG dependency and never changes.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        ((state >> 33) as f64) / (1u64 << 30) as f64 - 1.0
    };
    for n in 0..=33usize {
        let a: Vec<f64> = (0..n).map(|_| next() * 100.0).collect();
        let b: Vec<f64> = (0..n).map(|_| next() * 100.0).collect();
        let c: Vec<f64> = (0..n).map(|_| next() * 100.0).collect();
        let mut fast = a.clone();
        let mut slow = a.clone();
        kernels::subtract_clamp_bg(&mut fast, &b);
        kernels::subtract_clamp_bg_ref(&mut slow, &b);
        assert_bits(&fast, &slow, "subtract_clamp_bg");

        assert_eq!(
            kernels::fold_min(&a).to_bits(),
            kernels::fold_min_ref(&a).to_bits(),
            "fold_min at n={n}"
        );
        assert_eq!(
            kernels::fold_max(&a).to_bits(),
            kernels::fold_max_ref(&a).to_bits(),
            "fold_max at n={n}"
        );

        check_median3x3(&a, &b, &c, "sweep");
    }
}
