//! The Doppler-enhancement chain (paper Sec. III-A, Fig. 8).

use crate::image;
use crate::spectrogram::Spectrogram;

/// Parameters of the enhancement chain.
///
/// Defaults are the paper's values. The chain opens with the paper's 3×3
/// median filter, which has no parameter. `alpha` is explicitly called
/// hardware-dependent in the paper ("closely related to hardware and set to
/// 8 in our system"); the same is true of any simulator scaling, so
/// [`EnhanceConfig::paper`] keeps 8 and the synthesizer's amplitude scale is
/// calibrated so that finger-echo magnitudes sit well above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnhanceConfig {
    /// Number of initial static frames averaged for spectral subtraction
    /// (paper: 5).
    pub static_frames: usize,
    /// Energy threshold α zeroing bursty hardware-noise residue (paper: 8).
    pub alpha: f64,
    /// Gaussian smoothing kernel size (paper: 5).
    pub gaussian_size: usize,
    /// Binarization threshold after zero-one normalization (paper: 0.15).
    pub binarize_threshold: f64,
    /// How the smoothed magnitudes are normalized before binarization.
    pub normalization: Normalization,
    /// Optional wideband-burst suppression (the paper's Sec. VII-B future
    /// work); `None` reproduces the published pipeline.
    pub burst_suppression: Option<crate::burst::BurstConfig>,
}

/// Pre-binarization normalization strategy.
///
/// The paper normalizes the smoothed spectrogram to `[0, 1]` by its global
/// maximum before applying the 0.15 binarization threshold. That global
/// maximum is only known once the whole session has been observed, which
/// makes the stage non-causal: a truly incremental pipeline cannot reproduce
/// it without revisiting emitted columns. [`Normalization::FixedScale`]
/// replaces the data-dependent maximum with a calibrated constant, making
/// binarization a pointwise (and therefore streamable) operation:
/// `binarize(x / s, t)` is computed as `binarize(x, t·s)` without touching
/// the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Normalization {
    /// Divide by the session-global maximum (the paper's offline behavior).
    GlobalZeroOne,
    /// Assume a fixed full-scale value `s`; the effective binarization
    /// threshold becomes `binarize_threshold · s` on raw smoothed
    /// magnitudes. Calibrated against the synthesizer's amplitude scale the
    /// same way α is.
    FixedScale(f64),
}

impl EnhanceConfig {
    /// The paper's parameter set.
    pub fn paper() -> Self {
        EnhanceConfig {
            static_frames: 5,
            alpha: 8.0,
            gaussian_size: 5,
            binarize_threshold: 0.15,
            normalization: Normalization::GlobalZeroOne,
            burst_suppression: None,
        }
    }

    /// The paper pipeline with causal [`Normalization::FixedScale`]
    /// normalization, as required by the incremental streaming path.
    ///
    /// The full-scale constant 55 is calibrated against the synthesizer's
    /// amplitude scale (observed smoothed-stage maxima span roughly 36–73
    /// across scenes and front-ends), so the effective binarization
    /// threshold `0.15 × 55 = 8.25` sits inside the range the offline
    /// global-max normalization produces.
    pub fn streaming() -> Self {
        EnhanceConfig {
            normalization: Normalization::FixedScale(55.0),
            ..EnhanceConfig::paper()
        }
    }

    /// The paper pipeline plus Sec. VII-B burst suppression.
    pub fn with_burst_suppression() -> Self {
        EnhanceConfig {
            burst_suppression: Some(crate::burst::BurstConfig::nominal()),
            ..EnhanceConfig::paper()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the Gaussian size is even or zero, or a
    /// threshold is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.gaussian_size.is_multiple_of(2) || self.gaussian_size == 0 {
            return Err(format!("gaussian_size must be odd, got {}", self.gaussian_size));
        }
        if self.static_frames == 0 {
            return Err("static_frames must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.binarize_threshold) {
            return Err(format!(
                "binarize_threshold must be in [0,1], got {}",
                self.binarize_threshold
            ));
        }
        if self.alpha < 0.0 {
            return Err(format!("alpha must be non-negative, got {}", self.alpha));
        }
        if let Normalization::FixedScale(s) = self.normalization {
            if !s.is_finite() || s <= 0.0 {
                return Err(format!("fixed normalization scale must be finite and positive, got {s}"));
            }
        }
        if let Some(b) = &self.burst_suppression {
            b.validate()?;
        }
        Ok(())
    }
}

impl Default for EnhanceConfig {
    fn default() -> Self {
        EnhanceConfig::paper()
    }
}

/// Every intermediate stage of the chain — the panels of the paper's Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct EnhanceStages {
    /// (a) Raw ROI spectrogram.
    pub raw: Spectrogram,
    /// After median filtering and spectral subtraction.
    pub subtracted: Spectrogram,
    /// (b) After thresholding and Gaussian smoothing.
    pub smoothed: Spectrogram,
    /// (c) Final binary spectrogram after normalization, binarization, and
    /// hole filling.
    pub binary: Spectrogram,
}

/// Runs the Sec. III-A enhancement chain.
///
/// # Example
///
/// ```
/// use echowrite_spectro::{Enhancer, EnhanceConfig, Spectrogram};
/// let spec = Spectrogram::zeros(32, 10);
/// let out = Enhancer::new(EnhanceConfig::paper()).enhance(&spec);
/// assert!(out.is_binary());
/// ```
#[derive(Debug, Clone)]
pub struct Enhancer {
    config: EnhanceConfig,
}

impl Enhancer {
    /// Creates an enhancer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: EnhanceConfig) -> Self {
        if let Err(msg) = config.validate() {
            // echolint: allow(no-panic-path) -- documented `# Panics` contract of Enhancer::new
            panic!("invalid enhancement config: {msg}");
        }
        Enhancer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnhanceConfig {
        &self.config
    }

    /// Runs the full chain and returns only the final binary spectrogram.
    ///
    /// This is the hot path: after the median filter every stage mutates one
    /// working matrix in place, instead of cloning the full spectrogram at
    /// each step like the diagnostic [`Enhancer::enhance_stages`] does. The
    /// result is element-for-element identical to `enhance_stages(spec).binary`.
    pub fn enhance(&self, spec: &Spectrogram) -> Spectrogram {
        self.enhance_impl(spec, None)
    }

    fn enhance_impl(&self, spec: &Spectrogram, background: Option<&[f64]>) -> Spectrogram {
        let c = &self.config;
        if spec.cols() == 0 {
            return spec.clone();
        }
        let mut work = image::median_filter_2d(spec);
        match background {
            Some(bg) => image::subtract_background_in_place(&mut work, bg),
            None => {
                let n_static = c.static_frames.min(spec.cols().max(1));
                image::subtract_static_in_place(&mut work, n_static);
            }
        }
        image::threshold_in_place(&mut work, c.alpha);
        if let Some(cfg) = &c.burst_suppression {
            work = crate::burst::suppress_bursts(&work, *cfg).0;
        }
        image::gaussian_filter_2d_in_place(&mut work, c.gaussian_size);
        match c.normalization {
            Normalization::GlobalZeroOne => {
                echowrite_dsp::util::normalize_zero_one(work.data_mut());
                image::binarize_in_place(&mut work, c.binarize_threshold);
            }
            Normalization::FixedScale(scale) => {
                image::binarize_in_place(&mut work, c.binarize_threshold * scale);
            }
        }
        image::fill_holes_in_place(&mut work);
        work
    }

    /// Estimates the static background (per-row means over the first
    /// `static_frames` median-filtered columns) for later use with
    /// [`Enhancer::enhance_with_background`]. Returns `None` when the
    /// spectrogram has no columns.
    pub fn estimate_background(&self, spec: &Spectrogram) -> Option<Vec<f64>> {
        if spec.cols() == 0 {
            return None;
        }
        let median = image::median_filter_2d(spec);
        let n = self.config.static_frames.min(spec.cols());
        Some(image::row_means(&median, n))
    }

    /// Runs the chain substituting a frozen background for the in-buffer
    /// static frames — the streaming path, where the buffer's front may no
    /// longer be static.
    pub fn enhance_with_background(&self, spec: &Spectrogram, background: &[f64]) -> Spectrogram {
        self.enhance_impl(spec, Some(background))
    }

    /// Runs the full chain keeping every intermediate (Fig. 8 panels).
    ///
    /// Spectrograms with fewer columns than `static_frames` use all columns
    /// as the static estimate (start-up transient of the streaming path).
    pub fn enhance_stages(&self, spec: &Spectrogram) -> EnhanceStages {
        self.stages_impl(spec, None)
    }

    fn stages_impl(&self, spec: &Spectrogram, background: Option<&[f64]>) -> EnhanceStages {
        let c = &self.config;
        let raw = spec.clone();
        if spec.cols() == 0 {
            return EnhanceStages {
                raw: raw.clone(),
                subtracted: raw.clone(),
                smoothed: raw.clone(),
                binary: raw,
            };
        }
        let median = image::median_filter_2d(&raw);
        let subtracted = match background {
            Some(bg) => image::subtract_background(&median, bg),
            None => {
                let n_static = c.static_frames.min(spec.cols().max(1));
                image::subtract_static(&median, n_static)
            }
        };
        let thresholded = image::threshold(&subtracted, c.alpha);
        let thresholded = match &c.burst_suppression {
            Some(cfg) => crate::burst::suppress_bursts(&thresholded, *cfg).0,
            None => thresholded,
        };
        let smoothed = image::gaussian_filter_2d(&thresholded, c.gaussian_size);
        let binary0 = match c.normalization {
            Normalization::GlobalZeroOne => {
                let normalized = image::normalize_zero_one(&smoothed);
                image::binarize(&normalized, c.binarize_threshold)
            }
            Normalization::FixedScale(scale) => {
                image::binarize(&smoothed, c.binarize_threshold * scale)
            }
        };
        let binary = image::fill_holes(&binary0);
        EnhanceStages { raw, subtracted, smoothed, binary }
    }
}

impl Default for Enhancer {
    fn default() -> Self {
        Enhancer::new(EnhanceConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic ROI spectrogram: a strong static carrier row, a noise
    /// floor, and a moving "stroke" blob wandering above the carrier.
    fn synthetic(rows: usize, cols: usize) -> Spectrogram {
        let mut s = Spectrogram::zeros(rows, cols);
        let cf = s.carrier_row();
        for c in 0..cols {
            for r in 0..rows {
                // Pseudo-random but deterministic noise floor ~1.
                let h = ((r * 31 + c * 17) % 7) as f64 * 0.3;
                s.set(r, c, h);
            }
            s.set(cf, c, 900.0); // carrier line
            if c >= 8 && c < cols - 4 {
                // Stroke blob: rises then falls above the carrier.
                let k = (c - 8) as f64 / (cols - 12) as f64;
                let peak = cf + 3 + (12.0 * (std::f64::consts::PI * k).sin()) as usize;
                for r in cf + 1..=peak.min(rows - 1) {
                    s.set(r, c, 60.0);
                }
            }
        }
        s
    }

    #[test]
    fn paper_config_is_valid() {
        EnhanceConfig::paper().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = EnhanceConfig::paper();
        c.gaussian_size = 0;
        assert!(c.validate().is_err());
        let mut c = EnhanceConfig::paper();
        c.binarize_threshold = 1.5;
        assert!(c.validate().is_err());
        let mut c = EnhanceConfig::paper();
        c.static_frames = 0;
        assert!(c.validate().is_err());
        let mut c = EnhanceConfig::paper();
        c.alpha = -1.0;
        assert!(c.validate().is_err());
        let mut c = EnhanceConfig::paper();
        c.normalization = Normalization::FixedScale(0.0);
        assert!(c.validate().is_err());
        let mut c = EnhanceConfig::paper();
        c.normalization = Normalization::FixedScale(f64::NAN);
        assert!(c.validate().is_err());
        EnhanceConfig::streaming().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid enhancement config")]
    fn enhancer_panics_on_bad_config() {
        Enhancer::new(EnhanceConfig { gaussian_size: 2, ..EnhanceConfig::paper() });
    }

    #[test]
    fn output_is_binary_and_same_shape() {
        let spec = synthetic(64, 40);
        let out = Enhancer::default().enhance(&spec);
        assert!(out.is_binary());
        assert_eq!(out.rows(), spec.rows());
        assert_eq!(out.cols(), spec.cols());
        assert_eq!(out.carrier_row(), spec.carrier_row());
    }

    #[test]
    fn carrier_line_is_removed() {
        let spec = synthetic(64, 40);
        let out = Enhancer::default().enhance(&spec);
        let cf = out.carrier_row();
        // Static columns (before the stroke) must be empty at the carrier.
        for c in 0..6 {
            assert_eq!(out.get(cf, c), 0.0, "carrier residue at column {c}");
        }
    }

    #[test]
    fn stroke_blob_survives() {
        let spec = synthetic(64, 40);
        let out = Enhancer::default().enhance(&spec);
        let cf = out.carrier_row();
        // Mid-stroke columns keep foreground above the carrier.
        let hot: usize = (16..24)
            .map(|c| (cf + 2..cf + 16).filter(|&r| out.get(r, c) == 1.0).count())
            .sum();
        assert!(hot > 10, "stroke energy lost: {hot} hot cells");
    }

    #[test]
    fn noise_floor_is_suppressed() {
        let spec = synthetic(64, 40);
        let out = Enhancer::default().enhance(&spec);
        // Rows far below the carrier (no signal was placed there).
        let bad: usize = (0..out.cols())
            .map(|c| (0..8).filter(|&r| out.get(r, c) == 1.0).count())
            .sum();
        assert_eq!(bad, 0, "noise-floor cells survived enhancement");
    }

    #[test]
    fn stages_expose_all_panels() {
        let spec = synthetic(32, 20);
        let stages = Enhancer::default().enhance_stages(&spec);
        assert_eq!(stages.raw, spec);
        assert!(!stages.subtracted.is_binary() || stages.subtracted.max_value() == 0.0);
        assert!(stages.binary.is_binary());
        // Subtraction must strictly reduce total energy.
        let sum = |s: &Spectrogram| s.data().iter().sum::<f64>();
        assert!(sum(&stages.subtracted) < sum(&stages.raw));
    }

    #[test]
    fn short_streams_use_available_columns() {
        // Fewer columns than static_frames must not panic.
        let spec = synthetic(32, 3);
        let out = Enhancer::default().enhance(&spec);
        assert_eq!(out.cols(), 3);
    }

    /// The in-place hot path must agree with the diagnostic staged path
    /// element for element, with and without a frozen background, with and
    /// without burst suppression.
    #[test]
    fn fast_path_is_identical_to_staged_path() {
        for cfg in [
            EnhanceConfig::paper(),
            EnhanceConfig::with_burst_suppression(),
            EnhanceConfig::streaming(),
        ] {
            let e = Enhancer::new(cfg);
            for (rows, cols) in [(64, 40), (32, 3), (16, 1)] {
                let spec = synthetic(rows, cols);
                assert_eq!(e.enhance(&spec), e.enhance_stages(&spec).binary);
                if let Some(bg) = e.estimate_background(&spec) {
                    assert_eq!(
                        e.enhance_with_background(&spec, &bg),
                        e.stages_impl(&spec, Some(&bg)).binary
                    );
                }
            }
        }
    }

    #[test]
    fn all_zero_input_stays_zero() {
        let spec = Spectrogram::zeros(16, 10);
        let out = Enhancer::default().enhance(&spec);
        assert_eq!(out.occupancy(), 0.0);
    }
}
