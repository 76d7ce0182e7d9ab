//! Intrinsic stroke-template generation.
//!
//! The paper's templates are "pre-stored in the system" and are intrinsic
//! to the strokes rather than learned from users (Sec. III-C) — that's what
//! makes EchoWrite training-free. Here the canonical templates are produced
//! by rendering the ideal (jitter-free, tremor-free) writer through the
//! *same* physical channel and signal pipeline used at recognition time, in
//! a silent anechoic scene with no hand/arm clutter, then extracting each
//! stroke's segmented Doppler profile.

use crate::config::EchoWriteConfig;
use crate::engine::EngineError;
use crate::pipeline::Pipeline;
use echowrite_dtw::TemplateLibrary;
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_synth::{scene::BodyModel, DeviceProfile, EnvironmentProfile, Scene};

/// Generates the six canonical stroke templates under a configuration.
///
/// # Errors
///
/// Returns [`EngineError::InvalidConfig`] if the configuration fails
/// validation, and [`EngineError::NoTemplateSegment`] for the first stroke
/// whose canonical rendering yields no segment (thresholds inconsistent
/// with the signal level).
pub fn generate(config: &EchoWriteConfig) -> Result<TemplateLibrary, EngineError> {
    generate_for_writer(config, &WriterParams::canonical())
}

/// Generates templates for a custom canonical writer (e.g. a different
/// writing-plane geometry). Randomness in the writer is ignored — the
/// template writer must be deterministic, so jitter and tremor are zeroed.
///
/// # Errors
///
/// As [`generate`].
pub fn generate_for_writer(
    config: &EchoWriteConfig,
    writer: &WriterParams,
) -> Result<TemplateLibrary, EngineError> {
    config.validate().map_err(EngineError::InvalidConfig)?;
    let params = WriterParams {
        duration_jitter: 0.0,
        amplitude_jitter: 0.0,
        centre_jitter: 0.0,
        tremor: 0.0,
        ..writer.clone()
    };
    // Templates are produced through the *same* pipeline (including the
    // configured front-end) used at recognition time.
    let pipeline = Pipeline::new(config.clone());
    let scene = Scene::new(
        DeviceProfile::mate9(),
        EnvironmentProfile::silent(),
        0,
    )
    .with_body(BodyModel::finger_only());

    let mut pairs = Vec::with_capacity(Stroke::ALL.len());
    for stroke in Stroke::ALL {
        let perf = Writer::new(params.clone(), 0).write_stroke(stroke);
        let mic = scene.render(&perf.trajectory);
        let analysis = pipeline.analyze(&mic);
        let seg = analysis
            .segments
            .iter()
            .max_by_key(|s| s.len())
            .ok_or(EngineError::NoTemplateSegment(stroke))?;
        pairs.push((stroke, analysis.profile.slice(seg.start, seg.end).shifts().to_vec()));
    }
    // echolint: allow(no-panic-path) -- the loop above yields exactly the six required templates
    Ok(TemplateLibrary::new(pairs).expect("all six templates generated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite_dtw::{dtw_distance, DtwConfig};

    #[test]
    fn generates_six_distinct_templates() {
        let lib = generate(&EchoWriteConfig::paper()).expect("paper config");
        for (s, t) in lib.iter() {
            assert!(t.len() >= 5, "{s} template too short: {}", t.len());
        }
        // Every pair of templates must be distinguishable under DTW.
        for a in Stroke::ALL {
            for b in Stroke::ALL {
                if a < b {
                    let d = dtw_distance(lib.template(a), lib.template(b), DtwConfig::default());
                    assert!(d > 2.0, "templates {a} and {b} nearly identical: {d}");
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = EchoWriteConfig::paper();
        let a = generate(&cfg).expect("paper config");
        let b = generate(&cfg).expect("paper config");
        for s in Stroke::ALL {
            assert_eq!(a.template(s), b.template(s));
        }
    }

    #[test]
    fn templates_have_expected_signs() {
        let lib = generate(&EchoWriteConfig::paper()).expect("paper config");
        // S1 recedes (negative), S2 approaches (positive peak dominates).
        let peak = |t: &[f64]| {
            t.iter().fold((0.0f64, 0.0f64), |(mx, mn), &v| (mx.max(v), mn.min(v)))
        };
        let (s1_max, s1_min) = peak(lib.template(Stroke::S1));
        assert!(s1_min.abs() > s1_max, "S1 should be negative-dominant");
        let (s2_max, s2_min) = peak(lib.template(Stroke::S2));
        assert!(s2_max > s2_min.abs(), "S2 should be positive-dominant");
    }

    #[test]
    fn curved_templates_change_sign() {
        let lib = generate(&EchoWriteConfig::paper()).expect("paper config");
        {
            let s = Stroke::S5;
            let t = lib.template(s);
            let has_pos = t.iter().any(|&v| v > 5.0);
            let has_neg = t.iter().any(|&v| v < -5.0);
            assert!(has_pos && has_neg, "{s} arc should cross zero");
        }
    }
}
