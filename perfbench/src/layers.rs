//! Per-layer measurements taken from outside the program, on the
//! workload's own inputs: each calls one layer's public entry point the
//! way the serving path does and times it with the benchmark's clock. The
//! only in-program data read are the counters `dtw` already emits.

use crate::common::{mean, nproc, quantile, sorted, Clip, Outcome};
use echowrite::{EchoWrite, Parallelism, SharedDspScratch, StageTiming, StreamingSession};
use echowrite_serve::{
    MetricsSnapshot, Request as ServeRequest, ServeConfig, SessionId, SessionManager, SubmitVerdict,
};
use echowrite_snapshot::{restore_session, snapshot_session};
use echowrite_trace::{EventKind, ScopedMode};
use echowrite_wire::{encode_request, FrameDecoder, Request};
use std::hint::black_box;
use std::time::Instant;

/// Rounds each replay is repeated; medians (minima for whole-replay
/// totals) are taken across them.
const ROUNDS: usize = 5;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The layers a streaming push crosses, measured on a pool of clips.
#[derive(Debug, Default)]
pub struct StreamLayers {
    pub encode_us: f64,
    pub decode_us: f64,
    pub frame_bytes: f64,
    pub submit_us: f64,
    pub push_p50_us: f64,
    pub push_p99_us: f64,
    pub finish_us: f64,
    pub dtw_share: f64,
    pub pruned_ratio: f64,
}

/// Snapshot codec costs at the workload's pause points.
#[derive(Debug, Default)]
pub struct SnapLayers {
    pub encode_us: f64,
    pub restore_us: f64,
    pub bytes: f64,
}

/// What the server's own counters and the client's verdict times say
/// about one serving pass.
#[derive(Debug, Default)]
pub struct ServeLayers {
    pub write_stalls: f64,
    pub ack_p99_ms: f64,
    pub queue_p50_ms: f64,
    pub queue_p99_ms: f64,
    pub queue_full_share: f64,
    pub batch_mean: f64,
}

impl ServeLayers {
    pub fn from_pass(m: &MetricsSnapshot, ack_ms: &[f64]) -> Self {
        // The enqueue → processed histogram (queue wait plus service),
        // interpolated within its buckets.
        let queue_ms = |q| {
            echowrite_trace::metrics::quantile_from_buckets(
                &echowrite_serve::metrics::LATENCY_BUCKETS_US,
                &m.push_latency_buckets,
                q,
            )
            .unwrap_or(0.0)
                / 1e3
        };
        ServeLayers {
            write_stalls: m.wire_write_stalls as f64,
            ack_p99_ms: quantile(&sorted(ack_ms.to_vec()), 0.99),
            queue_p50_ms: queue_ms(0.5),
            queue_p99_ms: queue_ms(0.99),
            queue_full_share: m.queue_full as f64 / m.pushes.max(1) as f64,
            batch_mean: m.pushes as f64 / m.batch_drains.max(1) as f64,
        }
    }
}

/// Every per-layer metric a traced run prints; a layer the workload never
/// calls reads 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub lag_p99_ms: f64,
    pub tail_p99_ms: f64,
    pub stream: StreamLayers,
    pub serve: ServeLayers,
    pub snap: SnapLayers,
    pub thaw_ratio: f64,
    pub resume_p90_ms: f64,
    pub scrape_p99_ms: f64,
    /// Mean offline stage timings per word.
    pub stages: StageTiming,
    pub top1: f64,
    pub unexplained_share: f64,
    pub overhead_share: f64,
}

impl LayerReport {
    /// The share of the end-to-end median the outside view cannot
    /// attribute to wire codec, submit, and the server's queue+service.
    pub fn unexplained(latency_p50_ms: f64, stream: &StreamLayers, serve: &ServeLayers) -> f64 {
        let explained =
            (stream.encode_us + stream.decode_us + stream.submit_us) / 1e3 + serve.queue_p50_ms;
        (latency_p50_ms - explained) / latency_p50_ms
    }

    pub fn report(&self, out: &mut Outcome) {
        let (st, sv, sn) = (&self.stream, &self.serve, &self.snap);
        let metrics: [(&'static str, f64, &'static str); 33] = [
            ("gen.lag_p99_ms", self.lag_p99_ms, "ms"),
            ("tail.latency_p99_ms", self.tail_p99_ms, "ms"),
            ("wire.encode_us", st.encode_us, "us"),
            ("wire.decode_us", st.decode_us, "us"),
            ("wire.push_frame_bytes", st.frame_bytes, "bytes"),
            ("wire.write_stalls", sv.write_stalls, "count"),
            ("wire.ack_p99_ms", sv.ack_p99_ms, "ms"),
            ("serve.submit_us", st.submit_us, "us"),
            ("serve.queue_p50_ms", sv.queue_p50_ms, "ms"),
            ("serve.queue_p99_ms", sv.queue_p99_ms, "ms"),
            ("serve.queue_full_share", sv.queue_full_share, "fraction"),
            ("serve.batch_mean", sv.batch_mean, "count"),
            ("core.push_p50_us", st.push_p50_us, "us"),
            ("core.push_p99_us", st.push_p99_us, "us"),
            ("core.finish_us", st.finish_us, "us"),
            ("dtw.share", st.dtw_share, "fraction"),
            ("dtw.pruned_ratio", st.pruned_ratio, "fraction"),
            ("snapshot.encode_us", sn.encode_us, "us"),
            ("snapshot.restore_us", sn.restore_us, "us"),
            ("snapshot.bytes", sn.bytes, "bytes"),
            ("snapshot.thaw_ratio", self.thaw_ratio, "fraction"),
            ("snapshot.resume_p90_ms", self.resume_p90_ms, "ms"),
            ("obs.scrape_ms", self.scrape_p99_ms, "ms"),
            ("pipeline.stft_ms", self.stages.stft_ms, "ms"),
            ("pipeline.enhance_ms", self.stages.enhance_ms, "ms"),
            ("pipeline.profile_ms", self.stages.profile_ms, "ms"),
            ("pipeline.segment_ms", self.stages.segment_ms, "ms"),
            ("pipeline.dtw_ms", self.stages.dtw_ms, "ms"),
            ("lang.decode_ms", self.stages.decode_ms, "ms"),
            ("lang.top1", self.top1, "fraction"),
            (
                "pipeline.sp_fraction",
                self.stages.signal_processing_fraction(),
                "fraction",
            ),
            (
                "ledger.unexplained_share",
                self.unexplained_share,
                "fraction",
            ),
            ("trace.overhead_share", self.overhead_share, "fraction"),
        ];
        for (name, value, unit) in metrics {
            out.push(name, value, unit);
        }
    }
}

/// Push frames of every clip, session `i + 1` for clip `i`, in the
/// round-robin order a loaded server interleaves them.
fn push_order(clips: &[Clip]) -> Vec<(usize, usize)> {
    let rounds = clips.iter().map(Clip::pushes).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|k| {
            clips
                .iter()
                .enumerate()
                .filter(move |(_, c)| k < c.pushes())
                .map(move |(i, _)| (i, k))
        })
        .collect()
}

fn wire_codec(clips: &[Clip], order: &[(usize, usize)], out: &mut StreamLayers) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        for (n, &(i, k)) in order.iter().enumerate() {
            let req = Request::Push {
                session: i as u64 + 1,
                samples: clips[i].chunk(k).to_vec(),
            };
            buf.clear();
            let t = Instant::now();
            encode_request(&mut buf, black_box(&req), n as u64 + 1);
            enc.push(us(t));
            bytes.push(buf.len() as f64);
            let mut decoder = FrameDecoder::new();
            decoder.extend(&buf);
            let t = Instant::now();
            let decoded = decoder.next_request();
            dec.push(us(t));
            assert!(
                matches!(decoded, Ok(Some((_, Request::Push { .. })))),
                "frame round-trips"
            );
        }
    }
    out.encode_us = quantile(&sorted(enc), 0.5);
    out.decode_us = quantile(&sorted(dec), 0.5);
    out.frame_bytes = mean(&bytes);
}

/// `SessionManager::submit(Push)` on an in-process manager with the
/// serving configuration, one round of pushes at a time so the queues stay
/// as shallow as on `live`.
fn serve_submit(engine: &EchoWrite, clips: &[Clip], order: &[(usize, usize)]) -> f64 {
    let config = ServeConfig {
        shards: Parallelism::Threads(nproc()),
        deadline_chunks: None,
        ..ServeConfig::default()
    };
    let manager = SessionManager::new(engine.clone(), config).expect("valid serve config");
    let mut times = Vec::with_capacity(order.len());
    let mut events = Vec::new();
    for i in 0..clips.len() {
        assert_eq!(
            manager.open(SessionId(i as u64 + 1)),
            SubmitVerdict::Enqueued
        );
    }
    for round in order.chunk_by(|a, b| a.1 == b.1) {
        for &(i, k) in round {
            let chunk = clips[i].chunk(k);
            let t = Instant::now();
            let verdict = manager.submit(ServeRequest::Push(SessionId(i as u64 + 1), chunk));
            times.push(us(t));
            assert_eq!(
                verdict,
                SubmitVerdict::Enqueued,
                "one round fits the queues"
            );
        }
        manager.quiesce();
        manager.try_events(&mut events);
        events.clear();
    }
    for i in 0..clips.len() {
        let _ = manager.finish(SessionId(i as u64 + 1));
    }
    manager.quiesce();
    drop(manager.shutdown());
    quantile(&sorted(times), 0.5)
}

/// Replays every clip through `StreamingSession`s sharing one DSP scratch,
/// as a shard runs a batch; returns per-push µs, per-finish µs and the
/// total push time.
fn core_replay(
    engine: &EchoWrite,
    clips: &[Clip],
    order: &[(usize, usize)],
    classify: bool,
) -> (Vec<f64>, Vec<f64>, f64) {
    let mut sessions: Vec<StreamingSession> = clips
        .iter()
        .map(|_| StreamingSession::new(engine))
        .collect();
    let mut scratch = SharedDspScratch::new();
    let mut events = Vec::new();
    let (mut push, mut finish) = (Vec::with_capacity(order.len()), Vec::new());
    for &(i, k) in order {
        let t = Instant::now();
        sessions[i].push_events_shared(
            engine,
            clips[i].chunk(k),
            classify,
            &mut scratch,
            &mut events,
        );
        push.push(us(t));
        events.clear();
    }
    for s in &mut sessions {
        let t = Instant::now();
        s.finish_events(engine, classify, &mut events);
        finish.push(us(t));
        events.clear();
    }
    let total = push.iter().sum();
    (push, finish, total)
}

/// LB_Keogh skips plus early abandons over templates considered, from the
/// counters `StrokeClassifier::nearest` emits, on every stroke segment the
/// engine's offline pipeline finds in `audios`.
pub fn pruned_ratio<'a>(engine: &EchoWrite, audios: impl Iterator<Item = &'a [f64]>) -> f64 {
    let profiles: Vec<Vec<f64>> = audios
        .flat_map(|audio| {
            let a = engine.pipeline().analyze(audio);
            a.segments
                .iter()
                .map(|s| a.profile.slice(s.start, s.end).shifts().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let scope = echowrite_trace::scoped(ScopedMode::Recording(1 << 20));
    for p in &profiles {
        black_box(engine.classifier().nearest(p));
    }
    let events = scope.recording().map(|s| s.events()).unwrap_or_default();
    drop(scope);
    let count = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| e.value)
            .sum()
    };
    let pruned = count("lb_skips") + count("early_abandons");
    pruned / (pruned + count("full_dtws")).max(1.0)
}

pub fn streaming_layers(engine: &EchoWrite, clips: &[Clip]) -> StreamLayers {
    let order = push_order(clips);
    let mut out = StreamLayers::default();
    wire_codec(clips, &order, &mut out);
    out.submit_us = serve_submit(engine, clips, &order);
    let (mut push, mut finish, mut with, mut without) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (p, f, total) = core_replay(engine, clips, &order, true);
        push.extend(p);
        finish.extend(f);
        with.push(total);
        without.push(core_replay(engine, clips, &order, false).2);
    }
    let push = sorted(push);
    out.push_p50_us = quantile(&push, 0.5);
    out.push_p99_us = quantile(&push, 0.99);
    out.finish_us = quantile(&sorted(finish), 0.5);
    out.dtw_share = 1.0 - sorted(without)[0] / sorted(with)[0];
    out.pruned_ratio = pruned_ratio(engine, clips.iter().map(|c| c.audio.as_slice()));
    out
}

/// `snapshot_session` / `restore_session` on each `(clip, push)` session
/// frozen just before that push.
pub fn snapshot_at(engine: &EchoWrite, clips: &[Clip], points: &[(usize, usize)]) -> SnapLayers {
    const REPS: usize = 20;
    let (mut enc, mut rest, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = Vec::new();
    for &(i, k) in points {
        let mut session = StreamingSession::new(engine);
        for j in 0..k {
            session.push_events(engine, clips[i].chunk(j), true, &mut events);
        }
        for _ in 0..REPS {
            let t = Instant::now();
            let snap = snapshot_session(&session, engine);
            enc.push(us(t));
            bytes.push(snap.len() as f64);
            let t = Instant::now();
            let restored = restore_session(&snap, engine).expect("own snapshot restores");
            rest.push(us(t));
            drop(black_box(restored));
        }
    }
    SnapLayers {
        encode_us: quantile(&sorted(enc), 0.5),
        restore_us: quantile(&sorted(rest), 0.5),
        bytes: mean(&bytes),
    }
}
