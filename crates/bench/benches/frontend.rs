//! Sec. VII-A ablation — full-rate STFT versus the down-converted
//! front-end.
//!
//! The paper proposes decimation to cut the dominant STFT cost; this bench
//! quantifies the saving on identical audio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use echowrite::{EchoWrite, EchoWriteConfig, Pipeline};
use echowrite_bench::stroke_trace;
use echowrite_dsp::{Complex, Fft, StftConfig};
use echowrite_dtw::classifier::StrokeClassifier;
use echowrite_gesture::Stroke;
use echowrite_spectro::Spectrogram;
use echowrite_synth::EnvironmentProfile;
use std::hint::black_box;

fn bench_frontends(c: &mut Criterion) {
    echowrite_bench::print_bench_environment();
    let audio = stroke_trace(Stroke::S3, EnvironmentProfile::meeting_room(), 7);

    let mut g = c.benchmark_group("ablation_frontend");
    g.sample_size(10);
    let full = Pipeline::new(EchoWriteConfig::paper());
    g.bench_function(BenchmarkId::new("roi_spectrogram", "full"), |b| {
        b.iter(|| full.roi_spectrogram(black_box(&audio)))
    });
    for factor in [8usize, 16, 32] {
        let p = Pipeline::new(EchoWriteConfig::downsampled(factor));
        g.bench_with_input(
            BenchmarkId::new("roi_spectrogram", format!("div{factor}")),
            &p,
            |b, p| b.iter(|| p.roi_spectrogram(black_box(&audio))),
        );
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let audio = stroke_trace(Stroke::S3, EnvironmentProfile::meeting_room(), 7);
    let mut g = c.benchmark_group("ablation_frontend_end_to_end");
    g.sample_size(10);
    let full = EchoWrite::new();
    g.bench_function(BenchmarkId::new("recognize", "full"), |b| {
        b.iter(|| full.recognize_strokes(black_box(&audio)))
    });
    let fast = EchoWrite::with_config(EchoWriteConfig::downsampled(32));
    g.bench_function(BenchmarkId::new("recognize", "div32"), |b| {
        b.iter(|| fast.recognize_strokes(black_box(&audio)))
    });
    g.finish();
}

/// The hot-path STFT rewrite: full-size complex FFTs over every bin with a
/// post-hoc ROI crop (the pre-optimization construction) versus the
/// real-input FFT that materializes only the ROI band into a flat buffer.
fn bench_stft(c: &mut Criterion) {
    let audio = stroke_trace(Stroke::S3, EnvironmentProfile::meeting_room(), 7);
    let cfg = EchoWriteConfig::paper();
    let sc = StftConfig::paper();

    let mut g = c.benchmark_group("stft");
    g.sample_size(10);

    let fft = Fft::new(sc.fft_size);
    let window = sc.window.coefficients(sc.fft_size);
    g.bench_function("stft_full_complex", |b| {
        b.iter(|| {
            let audio = black_box(&audio[..]);
            let mut frames = Vec::new();
            let mut start = 0;
            while start + sc.fft_size <= audio.len() {
                let mut buf: Vec<Complex> = audio[start..start + sc.fft_size]
                    .iter()
                    .zip(&window)
                    .map(|(&x, &w)| Complex::new(x * w, 0.0))
                    .collect();
                fft.forward(&mut buf);
                let mags: Vec<f64> = buf[..sc.fft_size / 2 + 1]
                    .iter()
                    .map(|z| z.norm())
                    .collect();
                frames.push(mags);
                start += sc.hop;
            }
            Spectrogram::roi_from_stft(&frames, &sc, cfg.carrier_hz, cfg.roi_span_hz)
        })
    });

    let p = Pipeline::new(cfg.clone());
    g.bench_function("stft_real_roi", |b| {
        b.iter(|| p.roi_spectrogram(black_box(&audio)))
    });

    // The same pair with enhancement included — the legacy enhancement
    // materialized four full-spectrogram clones via the staged path.
    let enhancer = echowrite_spectro::Enhancer::new(echowrite_spectro::EnhanceConfig::paper());
    g.bench_function("stft_enhance_legacy", |b| {
        b.iter(|| {
            let audio = black_box(&audio[..]);
            let mut frames = Vec::new();
            let mut start = 0;
            while start + sc.fft_size <= audio.len() {
                let mut buf: Vec<Complex> = audio[start..start + sc.fft_size]
                    .iter()
                    .zip(&window)
                    .map(|(&x, &w)| Complex::new(x * w, 0.0))
                    .collect();
                fft.forward(&mut buf);
                let mags: Vec<f64> = buf[..sc.fft_size / 2 + 1]
                    .iter()
                    .map(|z| z.norm())
                    .collect();
                frames.push(mags);
                start += sc.hop;
            }
            let spec =
                Spectrogram::roi_from_stft(&frames, &sc, cfg.carrier_hz, cfg.roi_span_hz);
            enhancer.enhance_stages(&spec).binary
        })
    });
    g.bench_function("stft_enhance_fast", |b| {
        b.iter(|| {
            let spec = p.roi_spectrogram(black_box(&audio)).unwrap();
            enhancer.enhance(&spec)
        })
    });
    g.finish();
}

/// Template matching: all six exact DTWs (`classify`) versus the
/// LB_Keogh-ordered, early-abandoning search (`nearest`).
fn bench_dtw(c: &mut Criterion) {
    let lib = echowrite::templates::generate(&EchoWriteConfig::paper()).expect("paper config");
    // A realistic probe: a warped, perturbed copy of one template, long
    // enough that the O(n·m) DTW cost dominates.
    let base = lib.template(Stroke::S5).to_vec();
    let probe: Vec<f64> = echowrite_dsp::util::resample_linear(&base, base.len() * 3 / 2)
        .iter()
        .enumerate()
        .map(|(i, &v)| v + 3.0 * (i as f64 * 0.37).sin())
        .collect();
    let classifier = StrokeClassifier::new(lib);

    let mut g = c.benchmark_group("dtw");
    g.bench_function("dtw_exact", |b| {
        b.iter(|| classifier.classify(black_box(&probe)))
    });
    g.bench_function("dtw_pruned", |b| {
        b.iter(|| classifier.nearest(black_box(&probe)))
    });
    g.finish();
}

criterion_group!(benches, bench_frontends, bench_end_to_end, bench_stft, bench_dtw);
criterion_main!(benches);
