//! The EchoWrite recognition engine — the public facade.

use crate::config::EchoWriteConfig;
use crate::pipeline::{Pipeline, StageTiming};
use crate::templates;
use echowrite_corpus::Lexicon;
use echowrite_dtw::{Classification, ConfusionMatrix, DtwConfig, StrokeClassifier};
use echowrite_gesture::{InputScheme, Stroke};
use echowrite_lang::{Candidate, CorrectionRules, Dictionary, NextWordPredictor, WordDecoder};
use echowrite_profile::{Stopwatch, StrokeSegment};
use std::fmt;

/// Why an engine could not be built from a configuration
/// ([`EchoWrite::try_with_config`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The configuration failed [`EchoWriteConfig::validate`]; the message
    /// names the first violated constraint.
    InvalidConfig(String),
    /// The canonical writer's rendering of this stroke produced no segment,
    /// so the stroke has no template: the configuration's enhancement or
    /// segmentation thresholds do not suit the signal level (for example a
    /// `FixedScale` normalization far above the calibrated one).
    NoTemplateSegment(Stroke),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid EchoWrite config: {msg}"),
            EngineError::NoTemplateSegment(stroke) => {
                write!(f, "template stroke {stroke} produced no segment")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of stroke-level recognition on one audio trace.
#[derive(Debug, Clone)]
pub struct StrokeRecognition {
    /// Detected segments, in time order.
    pub segments: Vec<StrokeSegment>,
    /// Per-segment classification (same order).
    pub classifications: Vec<Classification>,
    /// Per-stage timing, including DTW.
    pub timing: StageTiming,
}

impl StrokeRecognition {
    /// The recognized stroke sequence.
    pub fn strokes(&self) -> Vec<Stroke> {
        self.classifications.iter().map(|c| c.stroke).collect()
    }
}

/// Result of word-level recognition on one audio trace.
#[derive(Debug, Clone)]
pub struct WordRecognition {
    /// The underlying stroke recognition.
    pub strokes: StrokeRecognition,
    /// Ranked word candidates (top-k).
    pub candidates: Vec<Candidate>,
}

impl WordRecognition {
    /// The top-1 word, if any (the paper's 1-second auto-commit).
    pub fn top1(&self) -> Option<&str> {
        self.candidates.first().map(|c| c.word.as_str())
    }

    /// Whether `word` appears within the first `k` candidates.
    pub fn in_top(&self, word: &str, k: usize) -> bool {
        self.candidates
            .iter()
            .take(k)
            .any(|c| c.word == word.to_ascii_lowercase())
    }
}

/// The end-to-end EchoWrite engine.
///
/// Construction generates the six intrinsic stroke templates by simulating
/// the canonical writer through the same physical pipeline — no user
/// training data is involved.
///
/// # Example
///
/// ```
/// use echowrite::EchoWrite;
/// let engine = EchoWrite::new();
/// assert_eq!(engine.decoder().top_k(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct EchoWrite {
    pipeline: Pipeline,
    classifier: StrokeClassifier,
    decoder: WordDecoder,
    predictor: NextWordPredictor,
    scheme: InputScheme,
}

impl EchoWrite {
    /// Builds an engine with the paper's configuration, the embedded
    /// lexicon, and the paper input scheme.
    pub fn new() -> Self {
        EchoWrite::with_config(EchoWriteConfig::paper())
    }

    /// Builds an engine with a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or leaves a stroke without a
    /// template; [`EchoWrite::try_with_config`] returns those as errors.
    pub fn with_config(config: EchoWriteConfig) -> Self {
        match EchoWrite::try_with_config(config) {
            Ok(engine) => engine,
            // echolint: allow(no-panic-path) -- documented `# Panics` contract; try_with_config is the fallible form
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds an engine with a custom configuration, or says why it cannot.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when the configuration fails
    /// validation; [`EngineError::NoTemplateSegment`] when the canonical
    /// rendering of a stroke yields no segment under it, so that stroke
    /// would have no template.
    pub fn try_with_config(config: EchoWriteConfig) -> Result<Self, EngineError> {
        let scheme = InputScheme::paper();
        let lib = templates::generate(&config)?;
        let classifier = StrokeClassifier::new(lib)
            .with_config(DtwConfig::stroke_matching())
            .with_weights(config.match_weights)
            .with_temperature(config.score_temperature);
        let dictionary = Dictionary::build(Lexicon::embedded(), &scheme);
        let decoder = WordDecoder::new(dictionary).with_top_k(config.top_k);
        let pipeline = Pipeline::new(config);
        Ok(EchoWrite {
            pipeline,
            classifier,
            decoder,
            predictor: NextWordPredictor::embedded(),
            scheme,
        })
    }

    /// Replaces the word decoder (custom dictionary, correction rules, or
    /// confusion matrix).
    pub fn with_decoder(mut self, decoder: WordDecoder) -> Self {
        self.decoder = decoder;
        self
    }

    /// Installs an empirical confusion matrix for the decoder's
    /// `P(sᵢ|lᵢ)` terms.
    pub fn with_confusion(mut self, confusion: ConfusionMatrix) -> Self {
        self.decoder = self.decoder.clone().with_confusion(confusion);
        self
    }

    /// Replaces the correction rules (e.g. for the Fig. 15 ablation).
    pub fn with_rules(mut self, rules: CorrectionRules) -> Self {
        self.decoder = self.decoder.clone().with_rules(rules);
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &EchoWriteConfig {
        self.pipeline.config()
    }

    /// The signal pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The stroke classifier (and its template library).
    pub fn classifier(&self) -> &StrokeClassifier {
        &self.classifier
    }

    /// The word decoder.
    pub fn decoder(&self) -> &WordDecoder {
        &self.decoder
    }

    /// The next-word predictor.
    pub fn predictor(&self) -> &NextWordPredictor {
        &self.predictor
    }

    /// The input scheme.
    pub fn scheme(&self) -> &InputScheme {
        &self.scheme
    }

    /// Recognizes all strokes in an audio trace.
    // echolint: entry
    pub fn recognize_strokes(&self, audio: &[f64]) -> StrokeRecognition {
        let analysis = self.pipeline.analyze(audio);
        let mut timing = analysis.timing;
        let t = Stopwatch::start();
        let classifications: Vec<Classification> = analysis
            .segments
            .iter()
            .map(|seg| {
                let sub = analysis.profile.slice(seg.start, seg.end);
                self.classifier.classify(sub.shifts())
            })
            .collect();
        timing.dtw_ms = t.elapsed_ms();
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                echowrite_trace::Stage::Dtw,
                "offline_dtw",
                echowrite_trace::TICK_UNSET,
                (timing.dtw_ms * 1_000.0) as u64,
                classifications.len() as f64,
            );
        }
        StrokeRecognition { segments: analysis.segments, classifications, timing }
    }

    /// Recognizes a whole word: strokes, then Bayesian decoding with the
    /// per-segment DTW soft scores.
    pub fn recognize_word(&self, audio: &[f64]) -> WordRecognition {
        let mut strokes = self.recognize_strokes(audio);
        let t = Stopwatch::start();
        let observed = strokes.strokes();
        let scores: Vec<[f64; 6]> = strokes.classifications.iter().map(|c| c.scores).collect();
        let candidates = if observed.is_empty() {
            Vec::new()
        } else {
            self.decoder.decode_soft(&observed, &scores)
        };
        strokes.timing.decode_ms = t.elapsed_ms();
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                echowrite_trace::Stage::Lang,
                "offline_decode",
                echowrite_trace::TICK_UNSET,
                (strokes.timing.decode_ms * 1_000.0) as u64,
                candidates.len() as f64,
            );
        }
        WordRecognition { strokes, candidates }
    }

    /// Decodes an already-recognized stroke sequence (no audio), using the
    /// confusion-matrix likelihoods.
    pub fn decode_sequence(&self, observed: &[Stroke]) -> Vec<Candidate> {
        let timer = echowrite_trace::enabled().then(Stopwatch::start);
        let candidates = self.decoder.decode(observed);
        if let Some(t) = timer {
            echowrite_trace::span(
                echowrite_trace::Stage::Lang,
                "decode_sequence",
                echowrite_trace::TICK_UNSET,
                (t.elapsed_ms() * 1_000.0) as u64,
                candidates.len() as f64,
            );
        }
        candidates
    }
}

impl Default for EchoWrite {
    fn default() -> Self {
        EchoWrite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite_gesture::{Writer, WriterParams};
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
    use std::sync::OnceLock;

    /// Engine construction renders six template scenes; share one across
    /// tests.
    fn engine() -> &'static EchoWrite {
        static E: OnceLock<EchoWrite> = OnceLock::new();
        E.get_or_init(EchoWrite::new)
    }

    fn render(strokes: &[Stroke], seed: u64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed)
            .render(&perf.trajectory)
    }

    #[test]
    fn recognizes_single_strokes() {
        let e = engine();
        let mut correct = 0;
        for (i, stroke) in Stroke::ALL.iter().enumerate() {
            let rec = e.recognize_strokes(&render(&[*stroke], 40 + i as u64));
            if rec.strokes() == vec![*stroke] {
                correct += 1;
            }
        }
        assert!(correct >= 5, "only {correct}/6 single strokes recognized");
    }

    #[test]
    fn recognizes_a_word_in_top_candidates() {
        let e = engine();
        let seq = e.scheme().encode_word("the").unwrap();
        let rec = e.recognize_word(&render(&seq, 7));
        assert!(
            rec.in_top("the", 5),
            "'the' not in top-5: {:?}",
            rec.candidates
        );
    }

    #[test]
    fn timing_total_under_realtime_budget() {
        let e = engine();
        let audio = render(&[Stroke::S2], 9);
        let rec = e.recognize_word(&audio);
        // The paper achieves < 200 ms on a 2016 phone; a desktop build must
        // stay well under the trace's own duration.
        let trace_ms = audio.len() as f64 / 44.1;
        assert!(
            rec.strokes.timing.total_ms() < trace_ms,
            "pipeline slower than real-time: {} ms for {} ms of audio",
            rec.strokes.timing.total_ms(),
            trace_ms
        );
        assert!(rec.strokes.timing.dtw_ms >= 0.0);
    }

    #[test]
    fn empty_audio_recognizes_nothing() {
        let e = engine();
        let rec = e.recognize_word(&[]);
        assert!(rec.candidates.is_empty());
        assert!(rec.top1().is_none());
    }

    #[test]
    fn decode_sequence_matches_decoder() {
        let e = engine();
        let seq = e.scheme().encode_word("and").unwrap();
        let direct = e.decode_sequence(&seq);
        assert!(direct.iter().any(|c| c.word == "and"));
    }

    #[test]
    fn accessors_are_wired() {
        let e = engine();
        assert_eq!(e.config().top_k, 5);
        assert_eq!(e.decoder().top_k(), 5);
        assert!(e.predictor().is_top_prediction("of", "the"));
        assert_eq!(e.scheme(), &InputScheme::paper());
        assert!(e.classifier().templates().max_len() > 5);
    }

    /// A normalization scale far above the calibrated one passes
    /// `validate()`, but the canonical S6 then yields no segment: the
    /// fallible constructor reports that stroke instead of panicking.
    #[test]
    fn untemplatable_config_is_a_typed_error() {
        let mut config = EchoWriteConfig::streaming_downsampled(32);
        config.enhance.normalization = echowrite_spectro::Normalization::FixedScale(90.0);
        assert!(config.validate().is_ok());
        let err = std::panic::catch_unwind(|| EchoWrite::try_with_config(config))
            .expect("try_with_config must not panic")
            .expect_err("no template for S6");
        assert_eq!(err, EngineError::NoTemplateSegment(Stroke::S6));
        assert_eq!(err.to_string(), "template stroke S6 produced no segment");
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut config = EchoWriteConfig::paper();
        config.top_k = 0;
        let err = EchoWrite::try_with_config(config).expect_err("top_k 0 is invalid");
        assert!(matches!(err, EngineError::InvalidConfig(ref m) if m.contains("top_k")), "{err}");
    }
}
