//! End-to-end pipeline configuration.

use echowrite_dsp::StftConfig;
use echowrite_dtw::classifier::MatchWeights;
use echowrite_profile::mvce::DEFAULT_GUARD_BINS;
use echowrite_profile::SegmentConfig;
use echowrite_spectro::{EnhanceConfig, Normalization};

/// The spectrogram front-end.
///
/// [`Frontend::FullStft`] is the paper's implementation: 8192-point FFTs on
/// the raw 44.1 kHz stream. [`Frontend::Downconverted`] is the paper's
/// Sec. VII-A proposed optimization implemented: complex down-conversion
/// and decimation by `factor`, then `8192/factor`-point FFTs, producing an
/// identical ROI spectrogram (same bin width, same hop) at roughly
/// `factor`× less arithmetic. "This operation does not need to modify main
/// methods" — and indeed the rest of the pipeline and the stored templates
/// are reused unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// Full-rate STFT (the paper's deployed pipeline).
    FullStft,
    /// Down-converted, decimated front-end (the paper's future-work
    /// optimization).
    Downconverted {
        /// Decimation factor; must divide both the FFT size and the hop,
        /// leaving a power-of-two FFT.
        factor: usize,
    },
}

/// How many worker threads the analysis front-end may use for the
/// frame-parallel STFT.
///
/// The frame loop writes disjoint frame-major chunks, so the spectrogram is
/// bitwise identical for every worker count; [`Parallelism::Threads`]\(1\)
/// additionally takes the plain serial loop with no thread scope at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use [`std::thread::available_parallelism`] workers (the default).
    #[default]
    Auto,
    /// Use exactly `n` workers; `Threads(1)` runs fully serial.
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete worker count for `frames` units of work.
    pub fn workers(self, frames: usize) -> usize {
        let requested = match self {
            Parallelism::Auto => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
            Parallelism::Threads(n) => n,
        };
        requested.max(1).min(frames.max(1))
    }
}

/// How [`StreamingRecognizer`](crate::StreamingRecognizer) processes
/// incoming audio.
///
/// The incremental path does O(chunk) work per push with bounded memory;
/// the replay path re-analyzes the whole buffered window on every push
/// (the original implementation, kept as the differential oracle). The
/// incremental path requires a causal enhancement configuration:
/// [`Normalization::FixedScale`] and no burst suppression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamingMode {
    /// Incremental when the enhancement configuration permits it
    /// (fixed-scale normalization, no burst suppression), replay otherwise.
    #[default]
    Auto,
    /// Always incremental; validation rejects configs that cannot stream
    /// causally.
    Incremental,
    /// Always full-window replay.
    Replay,
}

/// Configuration of the whole EchoWrite pipeline.
///
/// Defaults are the paper's parameters throughout (Sec. III); see each
/// sub-config for the individual values.
///
/// # Example
///
/// ```
/// use echowrite::EchoWriteConfig;
/// let cfg = EchoWriteConfig::paper();
/// assert_eq!(cfg.carrier_hz, 20_000.0);
/// assert_eq!(cfg.stft.fft_size, 8192);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EchoWriteConfig {
    /// STFT parameters (8192-point Hann, 1024 hop at 44.1 kHz).
    pub stft: StftConfig,
    /// Probe-tone carrier frequency in Hz.
    pub carrier_hz: f64,
    /// Half-width of the region of interest around the carrier, Hz
    /// (470.6 Hz from Eq. 1 with v ≤ 4 m/s).
    pub roi_span_hz: f64,
    /// Spectrogram-enhancement parameters (Sec. III-A).
    pub enhance: EnhanceConfig,
    /// Stroke-segmentation parameters (Sec. III-B).
    pub segment: SegmentConfig,
    /// MVCE carrier guard band in bins.
    pub guard_bins: usize,
    /// Number of word candidates offered (paper: 5).
    pub top_k: usize,
    /// Softmin temperature for DTW score → likelihood conversion.
    pub score_temperature: f64,
    /// Composite stroke-matching distance weights.
    pub match_weights: MatchWeights,
    /// The spectrogram front-end.
    pub frontend: Frontend,
    /// Worker threads for the frame-parallel STFT (identical output for
    /// every setting; `Threads(1)` is the bit-for-bit serial reference).
    pub parallelism: Parallelism,
    /// How streaming recognition processes chunks.
    pub streaming: StreamingMode,
}

impl EchoWriteConfig {
    /// The paper's full parameter set.
    pub fn paper() -> Self {
        EchoWriteConfig {
            stft: StftConfig::paper(),
            carrier_hz: 20_000.0,
            roi_span_hz: 470.6,
            enhance: EnhanceConfig::paper(),
            segment: SegmentConfig::paper(),
            guard_bins: DEFAULT_GUARD_BINS,
            top_k: 5,
            score_temperature: 10.0,
            match_weights: MatchWeights::stroke_matching(),
            frontend: Frontend::FullStft,
            parallelism: Parallelism::Auto,
            streaming: StreamingMode::Auto,
        }
    }

    /// The paper configuration with the Sec. VII-A down-sampling
    /// optimization enabled (decimation by `factor`, typically 32).
    pub fn downsampled(factor: usize) -> Self {
        EchoWriteConfig { frontend: Frontend::Downconverted { factor }, ..EchoWriteConfig::paper() }
    }

    /// The paper configuration with causal (streaming-capable) enhancement:
    /// fixed-scale normalization instead of the non-causal global maximum,
    /// so [`StreamingMode::Auto`] resolves to the incremental path.
    pub fn streaming() -> Self {
        EchoWriteConfig { enhance: EnhanceConfig::streaming(), ..EchoWriteConfig::paper() }
    }

    /// [`EchoWriteConfig::streaming`] with the decimating front-end.
    pub fn streaming_downsampled(factor: usize) -> Self {
        EchoWriteConfig {
            enhance: EnhanceConfig::streaming(),
            frontend: Frontend::Downconverted { factor },
            ..EchoWriteConfig::paper()
        }
    }

    /// Whether the enhancement chain is causal enough for the incremental
    /// streaming path (every stage decidable without future context).
    pub fn enhancement_is_causal(&self) -> bool {
        matches!(self.enhance.normalization, Normalization::FixedScale(_))
            && self.enhance.burst_suppression.is_none()
    }

    /// Resolves [`EchoWriteConfig::streaming`] mode to a concrete choice.
    pub fn streaming_is_incremental(&self) -> bool {
        match self.streaming {
            StreamingMode::Replay => false,
            StreamingMode::Incremental => true,
            StreamingMode::Auto => self.enhancement_is_causal(),
        }
    }

    /// Validates all sub-configurations and cross-parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.enhance.validate()?;
        self.segment.validate()?;
        if self.carrier_hz <= 0.0 || self.carrier_hz >= self.stft.sample_rate / 2.0 {
            return Err(format!(
                "carrier {} Hz outside (0, Nyquist {})",
                self.carrier_hz,
                self.stft.sample_rate / 2.0
            ));
        }
        if self.roi_span_hz <= 0.0 {
            return Err("ROI span must be positive".to_string());
        }
        if self.carrier_hz + self.roi_span_hz >= self.stft.sample_rate / 2.0 {
            return Err("ROI exceeds the Nyquist frequency".to_string());
        }
        if self.top_k == 0 {
            return Err("top_k must be positive".to_string());
        }
        if self.score_temperature <= 0.0 {
            return Err("score temperature must be positive".to_string());
        }
        let bin_hz = self.stft.sample_rate / self.stft.fft_size as f64;
        if (self.guard_bins as f64) * bin_hz > self.roi_span_hz / 2.0 {
            return Err("guard band swallows most of the ROI".to_string());
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err("parallelism needs at least one thread".to_string());
        }
        if self.streaming == StreamingMode::Incremental && !self.enhancement_is_causal() {
            return Err(
                "incremental streaming requires Normalization::FixedScale and no burst \
                 suppression (global-max normalization is non-causal)"
                    .to_string(),
            );
        }
        if let Frontend::Downconverted { factor } = self.frontend {
            if factor < 2 {
                return Err("decimation factor must be at least 2".to_string());
            }
            if !self.stft.fft_size.is_multiple_of(factor) || !(self.stft.fft_size / factor).is_power_of_two()
            {
                return Err(format!(
                    "decimation factor {factor} must divide the FFT size into a power of two"
                ));
            }
            if !self.stft.hop.is_multiple_of(factor) {
                return Err(format!("decimation factor {factor} must divide the hop"));
            }
            let out_nyquist = self.stft.sample_rate / factor as f64 / 2.0;
            if out_nyquist < 1.2 * self.roi_span_hz {
                return Err(format!(
                    "decimated band ±{out_nyquist:.0} Hz cannot contain the ±{:.0} Hz ROI",
                    self.roi_span_hz
                ));
            }
        }
        Ok(())
    }
}

impl Default for EchoWriteConfig {
    fn default() -> Self {
        EchoWriteConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        EchoWriteConfig::paper().validate().unwrap();
    }

    #[test]
    fn rejects_carrier_above_nyquist() {
        let mut c = EchoWriteConfig::paper();
        c.carrier_hz = 23_000.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_roi_crossing_nyquist() {
        let mut c = EchoWriteConfig::paper();
        c.roi_span_hz = 3_000.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_top_k_and_bad_temperature() {
        let mut c = EchoWriteConfig::paper();
        c.top_k = 0;
        assert!(c.validate().is_err());
        let mut c = EchoWriteConfig::paper();
        c.score_temperature = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_oversized_guard() {
        let mut c = EchoWriteConfig::paper();
        c.guard_bins = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_threads() {
        let mut c = EchoWriteConfig::paper();
        c.parallelism = Parallelism::Threads(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn parallelism_resolves_workers() {
        assert_eq!(Parallelism::Threads(4).workers(100), 4);
        assert_eq!(Parallelism::Threads(4).workers(2), 2);
        assert_eq!(Parallelism::Threads(0).workers(10), 1);
        assert!(Parallelism::Auto.workers(1_000) >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn streaming_mode_resolution() {
        let paper = EchoWriteConfig::paper();
        assert!(!paper.streaming_is_incremental(), "global-max must fall back to replay");
        let streaming = EchoWriteConfig::streaming();
        streaming.validate().unwrap();
        assert!(streaming.streaming_is_incremental());
        let forced = EchoWriteConfig { streaming: StreamingMode::Replay, ..streaming };
        assert!(!forced.streaming_is_incremental(), "replay override wins");
        EchoWriteConfig::streaming_downsampled(32).validate().unwrap();
    }

    #[test]
    fn rejects_incremental_mode_with_non_causal_enhancement() {
        let c = EchoWriteConfig {
            streaming: StreamingMode::Incremental,
            ..EchoWriteConfig::paper()
        };
        assert!(c.validate().unwrap_err().contains("non-causal"));
        let c = EchoWriteConfig {
            streaming: StreamingMode::Incremental,
            ..EchoWriteConfig::streaming()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn propagates_subconfig_errors() {
        let mut c = EchoWriteConfig::paper();
        c.enhance.gaussian_size = 2;
        assert!(c.validate().is_err());
        let mut c = EchoWriteConfig::paper();
        c.segment.beta_hz_per_s = -5.0;
        assert!(c.validate().is_err());
    }
}
