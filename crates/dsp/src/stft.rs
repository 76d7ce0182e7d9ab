//! Short-time Fourier transform.
//!
//! EchoWrite frames the 44.1 kHz echo stream into 8192-sample FFT frames
//! advanced by a 1024-sample hop (0.186 s frames every 0.023 s), windowed
//! with Hann, and concatenates the per-frame magnitude spectra of every
//! 5 frames into a spectrogram (paper Sec. III-A).

use crate::realfft::{RealFft, RealFftScratch};
use crate::window::WindowKind;

/// Configuration of an STFT analysis.
///
/// # Example
///
/// ```
/// use echowrite_dsp::{StftConfig, WindowKind};
/// let cfg = StftConfig::paper();
/// assert_eq!(cfg.fft_size, 8192);
/// assert_eq!(cfg.hop, 1024);
/// assert_eq!(cfg.window, WindowKind::Hann);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StftConfig {
    /// FFT frame length in samples; must be a power of two.
    pub fft_size: usize,
    /// Hop (window step) between successive frames, in samples.
    pub hop: usize,
    /// Analysis window applied to each frame.
    pub window: WindowKind,
    /// Sample rate in Hz, used only to translate bins to frequencies.
    pub sample_rate: f64,
}

impl StftConfig {
    /// The exact parameters used by the paper: 8192-sample Hann frames at a
    /// 1024-sample hop over 44.1 kHz audio.
    pub fn paper() -> Self {
        StftConfig {
            fft_size: 8192,
            hop: 1024,
            window: WindowKind::Hann,
            sample_rate: 44_100.0,
        }
    }

    /// Frequency in Hz of a given bin index.
    pub fn bin_frequency(&self, bin: usize) -> f64 {
        bin as f64 * self.sample_rate / self.fft_size as f64
    }

    /// The bin index whose centre frequency is closest to `freq_hz`.
    pub fn frequency_bin(&self, freq_hz: f64) -> usize {
        (freq_hz * self.fft_size as f64 / self.sample_rate).round() as usize
    }

    /// Frame duration in seconds.
    pub fn frame_seconds(&self) -> f64 {
        self.fft_size as f64 / self.sample_rate
    }

    /// Hop duration in seconds (the spectrogram's column period).
    pub fn hop_seconds(&self) -> f64 {
        self.hop as f64 / self.sample_rate
    }
}

impl Default for StftConfig {
    fn default() -> Self {
        StftConfig::paper()
    }
}

/// A planned short-time Fourier transform.
///
/// Holds a planned [`RealFft`] (half-size complex transform plus split pass)
/// and window coefficients; reusable across frames without reallocation of
/// the plan, and shareable across threads — per-frame workspace lives in a
/// separate [`StftScratch`].
#[derive(Debug, Clone)]
pub struct Stft {
    config: StftConfig,
    fft: RealFft,
    window: Vec<f64>,
}

/// Reusable per-worker workspace for the zero-allocation STFT entry points:
/// the packed half-size FFT buffer. The window multiply happens as the
/// frame is loaded into it and only the requested band is unpacked, so no
/// windowed copy or full spectrum is kept.
#[derive(Debug, Clone)]
pub struct StftScratch {
    fft: RealFftScratch,
}

impl Stft {
    /// Plans an STFT with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fft_size` is not a power of two or `hop` is zero.
    pub fn new(config: StftConfig) -> Self {
        assert!(config.hop > 0, "hop must be positive");
        let fft = RealFft::new(config.fft_size);
        let window = config.window.coefficients(config.fft_size);
        Stft { config, fft, window }
    }

    /// Returns the configuration this plan was built with.
    pub fn config(&self) -> &StftConfig {
        &self.config
    }

    /// Number of complete frames available in a signal of `len` samples.
    pub fn frame_count(&self, len: usize) -> usize {
        if len < self.config.fft_size {
            0
        } else {
            (len - self.config.fft_size) / self.config.hop + 1
        }
    }

    /// Number of magnitude bins per full frame: `fft_size/2 + 1`.
    #[inline]
    pub fn bins(&self) -> usize {
        self.config.fft_size / 2 + 1
    }

    /// Allocates a scratch arena sized for this plan. One scratch serves any
    /// number of sequential frames; concurrent workers each need their own.
    pub fn make_scratch(&self) -> StftScratch {
        StftScratch { fft: self.fft.make_scratch() }
    }

    /// Computes magnitudes of the bin range `[lo_bin, hi_bin]` (inclusive)
    /// of one frame into `out`, allocating nothing.
    ///
    /// The frame is windowed as it is loaded, in bit-reversed order, into
    /// the half-size transform, and only the band's bins are unpacked from
    /// it; the magnitudes are bitwise those of the full half spectrum of the
    /// windowed frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != fft_size`, the band is invalid, or
    /// `out.len() != hi_bin - lo_bin + 1`.
    pub fn frame_band_into(
        &self,
        frame: &[f64],
        lo_bin: usize,
        hi_bin: usize,
        scratch: &mut StftScratch,
        out: &mut [f64],
    ) {
        assert_eq!(frame.len(), self.config.fft_size, "frame length mismatch");
        assert!(lo_bin <= hi_bin, "lo_bin {lo_bin} > hi_bin {hi_bin}");
        assert!(
            hi_bin <= self.config.fft_size / 2,
            "hi_bin {hi_bin} beyond Nyquist bin {}",
            self.config.fft_size / 2
        );
        assert_eq!(out.len(), hi_bin - lo_bin + 1, "band output length mismatch");
        self.fft
            .windowed_band_magnitudes_into(frame, &self.window, lo_bin, &mut scratch.fft, out);
    }

    /// Computes the full half-spectrum magnitudes of one frame into `out`,
    /// allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != fft_size` or `out.len() != fft_size/2 + 1`.
    pub fn frame_magnitudes_into(&self, frame: &[f64], scratch: &mut StftScratch, out: &mut [f64]) {
        self.frame_band_into(frame, 0, self.config.fft_size / 2, scratch, out);
    }

    /// Computes the magnitude spectrum of a single frame starting at sample 0
    /// of `frame` (which must be exactly `fft_size` samples long).
    ///
    /// Returns `fft_size / 2 + 1` magnitudes. Allocating convenience wrapper
    /// around [`Stft::frame_magnitudes_into`].
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != fft_size`.
    pub fn frame_magnitudes(&self, frame: &[f64]) -> Vec<f64> {
        let mut scratch = self.make_scratch();
        let mut out = vec![0.0; self.bins()];
        self.frame_magnitudes_into(frame, &mut scratch, &mut out);
        out
    }

    /// Computes magnitude spectra for all complete frames of `signal`.
    ///
    /// Returns one `Vec` of `fft_size/2 + 1` magnitudes per frame; an empty
    /// vector if the signal is shorter than one frame. One scratch arena is
    /// reused across all frames.
    pub fn process(&self, signal: &[f64]) -> Vec<Vec<f64>> {
        let frames = self.frame_count(signal.len());
        let mut scratch = self.make_scratch();
        let mut out = Vec::with_capacity(frames);
        for f in 0..frames {
            let start = f * self.config.hop;
            let mut row = vec![0.0; self.bins()];
            self.frame_magnitudes_into(
                &signal[start..start + self.config.fft_size],
                &mut scratch,
                &mut row,
            );
            out.push(row);
        }
        out
    }

    /// Computes magnitude spectra restricted to the bin range
    /// `[lo_bin, hi_bin]` inclusive — the paper's region-of-interest
    /// optimization that cuts the processed column height from 8192 to 350.
    ///
    /// Each frame computes only the requested band; full half-spectrum rows
    /// are never materialized.
    ///
    /// # Panics
    ///
    /// Panics if `lo_bin > hi_bin` or `hi_bin` exceeds `fft_size/2`.
    pub fn process_band(&self, signal: &[f64], lo_bin: usize, hi_bin: usize) -> Vec<Vec<f64>> {
        assert!(lo_bin <= hi_bin, "lo_bin {lo_bin} > hi_bin {hi_bin}");
        assert!(
            hi_bin <= self.config.fft_size / 2,
            "hi_bin {hi_bin} beyond Nyquist bin {}",
            self.config.fft_size / 2
        );
        let frames = self.frame_count(signal.len());
        let band = hi_bin - lo_bin + 1;
        let mut scratch = self.make_scratch();
        let mut out = Vec::with_capacity(frames);
        for f in 0..frames {
            let start = f * self.config.hop;
            let mut row = vec![0.0; band];
            self.frame_band_into(
                &signal[start..start + self.config.fft_size],
                lo_bin,
                hi_bin,
                &mut scratch,
                &mut row,
            );
            out.push(row);
        }
        out
    }

    /// Computes the band `[lo_bin, hi_bin]` of every complete frame into a
    /// flat frame-major buffer: frame `f`'s magnitudes occupy
    /// `out[f*band .. (f+1)*band]` where `band = hi_bin - lo_bin + 1`.
    ///
    /// This is the zero-allocation bulk entry point used by the pipeline;
    /// disjoint sub-slices of `out` can also be filled by parallel workers
    /// via [`Stft::frame_band_into`].
    ///
    /// # Panics
    ///
    /// Panics if the band is invalid or `out.len()` differs from
    /// `frame_count * band`.
    pub fn process_band_into(
        &self,
        signal: &[f64],
        lo_bin: usize,
        hi_bin: usize,
        scratch: &mut StftScratch,
        out: &mut [f64],
    ) {
        assert!(lo_bin <= hi_bin, "lo_bin {lo_bin} > hi_bin {hi_bin}");
        let frames = self.frame_count(signal.len());
        let band = hi_bin - lo_bin + 1;
        assert_eq!(
            out.len(),
            frames * band,
            "flat output length {} != frames {frames} × band {band}",
            out.len()
        );
        for (f, row) in out.chunks_exact_mut(band).enumerate() {
            let start = f * self.config.hop;
            self.frame_band_into(
                &signal[start..start + self.config.fft_size],
                lo_bin,
                hi_bin,
                scratch,
                row,
            );
        }
    }
}

/// A streaming STFT that accepts arbitrary audio chunks and yields frames as
/// soon as they complete, mirroring the Android app's 5-frame ring buffer.
///
/// Consumed samples are tracked by an offset and compacted in bulk, so each
/// pushed sample is moved O(1) times instead of once per emitted frame, and
/// a persistent [`StftScratch`] keeps per-frame FFT work allocation-free.
#[derive(Debug, Clone)]
pub struct StreamingStft {
    /// The immutable plan, behind an [`Arc`](std::sync::Arc) so many
    /// streams (e.g. every session of a serve shard) can share one twiddle
    /// table and window instead of planning per session.
    stft: std::sync::Arc<Stft>,
    buffer: Vec<f64>,
    /// Index of the first unconsumed sample in `buffer`.
    start: usize,
    scratch: StftScratch,
    /// Persistent output row handed to `push_band_into` callbacks.
    band: Vec<f64>,
    /// Absolute samples received since creation/reset (the logical clock
    /// behind trace timestamps).
    total_in: u64,
}

impl StreamingStft {
    /// Creates a streaming wrapper around a planned STFT.
    pub fn new(stft: Stft) -> Self {
        Self::with_shared_plan(std::sync::Arc::new(stft))
    }

    /// Creates a streaming wrapper over an already shared plan, so N
    /// streams amortize one twiddle table and window (the plan is
    /// immutable; sharing cannot change any output bit).
    pub fn with_shared_plan(stft: std::sync::Arc<Stft>) -> Self {
        let scratch = stft.make_scratch();
        StreamingStft { stft, buffer: Vec::new(), start: 0, scratch, band: Vec::new(), total_in: 0 }
    }

    /// The STFT plan driving this stream.
    pub fn stft(&self) -> &Stft {
        &self.stft
    }

    /// Appends samples and invokes `on_frame` with the `[lo_bin, hi_bin]`
    /// magnitudes of every frame that became complete, in order, without
    /// allocating: the callback borrows a persistent internal row that is
    /// overwritten by the next frame.
    ///
    /// The emitted rows are bitwise identical to [`Stft::process_band`] over
    /// the concatenated stream, independent of how the samples are chunked.
    ///
    /// # Panics
    ///
    /// Panics if the band is invalid (see [`Stft::frame_band_into`]).
    pub fn push_band_into(
        &mut self,
        samples: &[f64],
        lo_bin: usize,
        hi_bin: usize,
        mut on_frame: impl FnMut(&[f64]),
    ) {
        let scratch = &mut self.scratch;
        let band = &mut self.band;
        let buffer = &mut self.buffer;
        let start = &mut self.start;
        let total_in = &mut self.total_in;
        drain_frames(
            &self.stft, buffer, start, total_in, band, scratch, samples, lo_bin, hi_bin,
            &mut on_frame,
        );
    }

    /// Like [`StreamingStft::push_band_into`], but frames run through an
    /// externally owned scratch arena instead of the embedded one.
    ///
    /// This is the batched-shard entry point: a serve shard that drains
    /// several sessions' pushes in one pass hands every session the same
    /// scratch, so the packed-FFT buffer stays hot in cache across sessions
    /// instead of ping-ponging between per-session arenas. The emitted rows
    /// are bitwise identical to [`StreamingStft::push_band_into`] — the
    /// scratch is pure workspace and carries no state between frames.
    pub fn push_band_into_with_scratch(
        &mut self,
        samples: &[f64],
        lo_bin: usize,
        hi_bin: usize,
        scratch: &mut StftScratch,
        mut on_frame: impl FnMut(&[f64]),
    ) {
        drain_frames(
            &self.stft,
            &mut self.buffer,
            &mut self.start,
            &mut self.total_in,
            &mut self.band,
            scratch,
            samples,
            lo_bin,
            hi_bin,
            &mut on_frame,
        );
    }

    /// Appends samples and returns magnitude spectra for every frame that
    /// became complete.
    ///
    /// Allocating convenience wrapper around
    /// [`StreamingStft::push_band_into`]; incremental consumers should use
    /// the callback form directly.
    pub fn push(&mut self, samples: &[f64]) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        let hi = self.stft.config.fft_size / 2;
        self.push_band_into(samples, 0, hi, |row| out.push(row.to_vec()));
        out
    }

    /// Number of samples buffered but not yet emitted as a frame.
    pub fn pending(&self) -> usize {
        self.buffer.len() - self.start
    }

    /// Clears the internal buffer (e.g. between text-entry sessions) and
    /// rewinds the logical sample clock.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.start = 0;
        self.total_in = 0;
    }

    /// Captures the dynamic state of this stream — the not-yet-framed
    /// sample tail and the logical sample clock — detached from the plan.
    ///
    /// Frame emission depends only on the pending window content, so a
    /// stream rebuilt from this state over an identical plan emits bitwise
    /// the same frames for any future pushes (see
    /// [`StreamingStft::restore_state`]).
    pub fn export_state(&self) -> StreamingStftState {
        StreamingStftState {
            pending: self.buffer[self.start..].to_vec(),
            total_in: self.total_in,
        }
    }

    /// Overwrites this stream's dynamic state with a previously exported
    /// one. The plan (FFT size, hop, window, sample rate) must match the
    /// plan the state was exported under for the resumed output to be
    /// meaningful; the caller is responsible for that pairing.
    pub fn restore_state(&mut self, state: &StreamingStftState) {
        self.buffer.clear();
        self.buffer.extend_from_slice(&state.pending);
        self.start = 0;
        self.total_in = state.total_in;
    }
}

/// Plan-independent dynamic state of a [`StreamingStft`]: everything a
/// suspended stream needs to resume bitwise-identically once paired with an
/// identical plan. Scratch arenas are intentionally absent — they carry no
/// state between frames.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingStftState {
    /// Samples buffered but not yet consumed by a completed frame.
    pub pending: Vec<f64>,
    /// Absolute samples received since creation/reset (the logical clock).
    pub total_in: u64,
}

/// Shared frame loop behind both [`StreamingStft`] push entry points, split
/// out as a free function so the embedded-scratch and shared-scratch paths
/// borrow disjoint fields without duplicating the drain logic.
#[allow(clippy::too_many_arguments)]
fn drain_frames(
    stft: &Stft,
    buffer: &mut Vec<f64>,
    start: &mut usize,
    total_in: &mut u64,
    band: &mut Vec<f64>,
    scratch: &mut StftScratch,
    samples: &[f64],
    lo_bin: usize,
    hi_bin: usize,
    on_frame: &mut impl FnMut(&[f64]),
) {
    buffer.extend_from_slice(samples);
    *total_in += samples.len() as u64;
    let (size, hop) = (stft.config.fft_size, stft.config.hop);
    band.resize(hi_bin.saturating_sub(lo_bin) + 1, 0.0);
    let mut frames = 0u32;
    while buffer.len() - *start >= size {
        stft.frame_band_into(&buffer[*start..*start + size], lo_bin, hi_bin, scratch, band);
        frames += 1;
        on_frame(band);
        *start += hop;
    }
    if echowrite_trace::enabled() {
        let tick = echowrite_trace::samples_to_us(*total_in, stft.config.sample_rate);
        echowrite_trace::counter(
            echowrite_trace::Stage::Stft,
            "frames_emitted",
            tick,
            f64::from(frames),
        );
    }
    // Compact once the dead prefix dominates the live tail.
    if *start > size.max(buffer.len() - *start) {
        buffer.copy_within(*start.., 0);
        buffer.truncate(buffer.len() - *start);
        *start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin())
            .collect()
    }

    #[test]
    fn paper_config_values() {
        let c = StftConfig::paper();
        assert!((c.frame_seconds() - 0.1857).abs() < 1e-3);
        assert!((c.hop_seconds() - 0.02322).abs() < 1e-4);
        // 20 kHz lands at bin 3715 and the paper's ROI is ~350 bins wide.
        assert_eq!(c.frequency_bin(20_000.0), 3715);
        let lo = c.frequency_bin(19_530.0);
        let hi = c.frequency_bin(20_470.0);
        assert!((hi - lo + 1) as i64 - 350 <= 3 && (hi - lo + 1) >= 170, "roi width {}", hi - lo + 1);
    }

    #[test]
    fn bin_frequency_roundtrip() {
        let c = StftConfig::paper();
        for f in [1000.0, 5000.0, 19_530.0, 20_470.0] {
            let b = c.frequency_bin(f);
            assert!((c.bin_frequency(b) - f).abs() < c.sample_rate / c.fft_size as f64);
        }
    }

    #[test]
    fn frame_count_matches_definition() {
        let stft = Stft::new(StftConfig {
            fft_size: 8,
            hop: 4,
            window: WindowKind::Rectangular,
            sample_rate: 100.0,
        });
        assert_eq!(stft.frame_count(7), 0);
        assert_eq!(stft.frame_count(8), 1);
        assert_eq!(stft.frame_count(11), 1);
        assert_eq!(stft.frame_count(12), 2);
        assert_eq!(stft.frame_count(16), 3);
    }

    #[test]
    fn tone_peaks_in_expected_bin() {
        let cfg = StftConfig {
            fft_size: 1024,
            hop: 256,
            window: WindowKind::Hann,
            sample_rate: 44_100.0,
        };
        let stft = Stft::new(cfg);
        let sig = tone(20_000.0, 44_100.0, 4096);
        let frames = stft.process(&sig);
        assert!(!frames.is_empty());
        for frame in &frames {
            let peak = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(peak, cfg.frequency_bin(20_000.0));
        }
    }

    #[test]
    fn band_processing_equals_slice_of_full() {
        let cfg = StftConfig {
            fft_size: 512,
            hop: 128,
            window: WindowKind::Hann,
            sample_rate: 44_100.0,
        };
        let stft = Stft::new(cfg);
        let sig = tone(10_000.0, 44_100.0, 2048);
        let full = stft.process(&sig);
        let band = stft.process_band(&sig, 100, 150);
        for (f, b) in full.iter().zip(&band) {
            assert_eq!(&f[100..=150], b.as_slice());
        }
    }

    #[test]
    fn band_into_flat_matches_per_frame_rows() {
        let cfg = StftConfig {
            fft_size: 512,
            hop: 128,
            window: WindowKind::Hann,
            sample_rate: 44_100.0,
        };
        let stft = Stft::new(cfg);
        let sig = tone(9_000.0, 44_100.0, 3000);
        let (lo, hi) = (80, 140);
        let rows = stft.process_band(&sig, lo, hi);
        let frames = stft.frame_count(sig.len());
        assert_eq!(rows.len(), frames);
        let band = hi - lo + 1;
        let mut flat = vec![0.0; frames * band];
        let mut scratch = stft.make_scratch();
        stft.process_band_into(&sig, lo, hi, &mut scratch, &mut flat);
        for (f, row) in rows.iter().enumerate() {
            assert_eq!(row.as_slice(), &flat[f * band..(f + 1) * band]);
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let cfg = StftConfig {
            fft_size: 256,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let stft = Stft::new(cfg);
        let a = tone(1000.0, 8000.0, 256);
        let b = tone(2300.0, 8000.0, 256);
        let mut scratch = stft.make_scratch();
        let mut first = vec![0.0; stft.bins()];
        stft.frame_magnitudes_into(&a, &mut scratch, &mut first);
        let mut other = vec![0.0; stft.bins()];
        stft.frame_magnitudes_into(&b, &mut scratch, &mut other);
        let mut again = vec![0.0; stft.bins()];
        stft.frame_magnitudes_into(&a, &mut scratch, &mut again);
        assert_eq!(first, again);
        assert_ne!(first, other);
    }

    #[test]
    #[should_panic(expected = "band output length mismatch")]
    fn frame_band_into_rejects_wrong_output_len() {
        let cfg = StftConfig {
            fft_size: 64,
            hop: 16,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let stft = Stft::new(cfg);
        let mut scratch = stft.make_scratch();
        let mut out = vec![0.0; 3];
        stft.frame_band_into(&[0.0; 64], 0, 10, &mut scratch, &mut out);
    }

    #[test]
    fn streaming_matches_offline() {
        let cfg = StftConfig {
            fft_size: 256,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let stft = Stft::new(cfg);
        let sig = tone(1000.0, 8000.0, 2000);
        let offline = stft.process(&sig);

        let mut streaming = StreamingStft::new(Stft::new(cfg));
        let mut collected = Vec::new();
        for chunk in sig.chunks(97) {
            collected.extend(streaming.push(chunk));
        }
        assert_eq!(collected.len(), offline.len());
        for (a, b) in collected.iter().zip(&offline) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn push_band_into_matches_process_band_bitwise() {
        let cfg = StftConfig {
            fft_size: 256,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let stft = Stft::new(cfg);
        let sig = tone(1000.0, 8000.0, 2317);
        let (lo, hi) = (20usize, 45usize);
        let offline = stft.process_band(&sig, lo, hi);

        for chunk_sizes in [vec![1usize, 13, 97, 500], vec![2317], vec![64]] {
            let mut streaming = StreamingStft::new(Stft::new(cfg));
            let mut collected: Vec<Vec<f64>> = Vec::new();
            let mut pos = 0usize;
            let mut ci = 0usize;
            while pos < sig.len() {
                let len = chunk_sizes[ci % chunk_sizes.len()].min(sig.len() - pos);
                ci += 1;
                streaming.push_band_into(&sig[pos..pos + len], lo, hi, |row| {
                    collected.push(row.to_vec());
                });
                pos += len;
            }
            assert_eq!(collected.len(), offline.len(), "chunking {chunk_sizes:?}");
            for (f, (a, b)) in collected.iter().zip(&offline).enumerate() {
                assert_eq!(a.len(), b.len());
                for (r, (x, y)) in a.iter().zip(b).enumerate() {
                    assert!(x == y, "frame {f} bin {r} diverges: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn shared_scratch_push_matches_embedded_scratch_bitwise() {
        let cfg = StftConfig {
            fft_size: 256,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let sig = tone(1700.0, 8000.0, 1999);
        let (lo, hi) = (20usize, 45usize);

        let mut embedded = StreamingStft::new(Stft::new(cfg));
        let mut want: Vec<Vec<f64>> = Vec::new();
        for chunk in sig.chunks(91) {
            embedded.push_band_into(chunk, lo, hi, |row| want.push(row.to_vec()));
        }

        // One external scratch shared across two interleaved sessions, as the
        // batched serve shard does.
        let plan = Stft::new(cfg);
        let mut shared = plan.make_scratch();
        let mut a = StreamingStft::new(Stft::new(cfg));
        let mut b = StreamingStft::new(Stft::new(cfg));
        let mut got_a: Vec<Vec<f64>> = Vec::new();
        let mut got_b: Vec<Vec<f64>> = Vec::new();
        for chunk in sig.chunks(91) {
            a.push_band_into_with_scratch(chunk, lo, hi, &mut shared, |row| {
                got_a.push(row.to_vec());
            });
            b.push_band_into_with_scratch(chunk, lo, hi, &mut shared, |row| {
                got_b.push(row.to_vec());
            });
        }
        assert_eq!(want, got_a);
        assert_eq!(want, got_b);
    }

    #[test]
    fn streaming_reset_discards_partial_frame() {
        let cfg = StftConfig {
            fft_size: 128,
            hop: 32,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let mut s = StreamingStft::new(Stft::new(cfg));
        s.push(&vec![0.1; 100]);
        assert_eq!(s.pending(), 100);
        s.reset();
        assert_eq!(s.pending(), 0);
        assert!(s.push(&vec![0.1; 100]).is_empty());
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let cfg = StftConfig {
            fft_size: 256,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        };
        let sig = tone(1234.0, 8000.0, 2500);
        let (lo, hi) = (10usize, 40usize);
        // Uninterrupted reference.
        let mut oracle = StreamingStft::new(Stft::new(cfg));
        let mut want: Vec<Vec<f64>> = Vec::new();
        for chunk in sig.chunks(77) {
            oracle.push_band_into(chunk, lo, hi, |row| want.push(row.to_vec()));
        }
        // Suspend mid-stream at an awkward point, restore into a fresh
        // stream, finish: the emitted frames must be bitwise identical.
        let cut = 1003;
        let mut first = StreamingStft::new(Stft::new(cfg));
        let mut got: Vec<Vec<f64>> = Vec::new();
        for chunk in sig[..cut].chunks(77) {
            first.push_band_into(chunk, lo, hi, |row| got.push(row.to_vec()));
        }
        let state = first.export_state();
        assert_eq!(state.total_in, cut as u64);
        drop(first);
        let mut resumed = StreamingStft::new(Stft::new(cfg));
        resumed.restore_state(&state);
        for chunk in sig[cut..].chunks(77) {
            resumed.push_band_into(chunk, lo, hi, |row| got.push(row.to_vec()));
        }
        assert_eq!(want.len(), got.len());
        for (f, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "frame {f} diverged after restore");
        }
    }

    #[test]
    #[should_panic(expected = "hop must be positive")]
    fn zero_hop_rejected() {
        Stft::new(StftConfig {
            fft_size: 64,
            hop: 0,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        });
    }

    #[test]
    #[should_panic(expected = "beyond Nyquist")]
    fn band_beyond_nyquist_rejected() {
        let stft = Stft::new(StftConfig {
            fft_size: 64,
            hop: 16,
            window: WindowKind::Hann,
            sample_rate: 8000.0,
        });
        stft.process_band(&[0.0; 64], 0, 64);
    }
}
