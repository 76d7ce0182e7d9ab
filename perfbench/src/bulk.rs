//! `bulk`: a closed loop of sessions replaying rendered audio as fast as
//! verdicts allow.
//!
//! Each session keeps at most one request outstanding; a session that
//! finishes is replaced by a fresh one until the run's time is up, then
//! the remaining sessions drain. The generator also keeps the commands it
//! has sent but the server has not yet processed below the shard queue
//! capacity, so `QueueFull` stays a rare, counted event and nothing waits
//! on a fixed backoff. No reaper runs and the admin plane is not bound.

use crate::common::{
    latencies, nproc, ns_since, quantile, render_pool, setup_thrice, stroke_accuracy,
    windowed_quantile, Clip, Outcome, Rng, Row, Sample,
};
use crate::layers;
use crate::live::{self, Setup};
use crate::wireio::{self, FrameReader, FrameWriter, Span};
use echowrite::{EchoWrite, Parallelism};
use echowrite_serve::{MetricsSnapshot, ServeConfig, ServeMetrics, SessionManager};
use echowrite_wire::{Request, Response, WireServer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Concurrent sessions.
pub const SESSIONS: usize = 512;
const POOL: usize = 48;
/// Shard queue depth of the serving configuration.
const QUEUE_CAPACITY: usize = 256;
/// Sent-but-unprocessed commands the generator allows: three quarters of
/// one shard's queue, so no shard can fill whatever the id hash does.
const WINDOW: u64 = (QUEUE_CAPACITY as u64 * 3) / 4;
/// A server that sends nothing for this long has stalled; the run fails.
const GIVE_UP_NS: u64 = 60_000_000_000;

fn bind(engine: &EchoWrite) -> WireServer {
    let config = ServeConfig {
        shards: Parallelism::Threads(nproc()),
        queue_capacity: QUEUE_CAPACITY,
        deadline_chunks: None,
        idle_timeout_samples: None,
        ..ServeConfig::default()
    };
    let manager = SessionManager::new(engine.clone(), config).expect("valid serve config");
    WireServer::bind("127.0.0.1:0", manager).expect("loopback bind")
}

fn timed_setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let engine = live::engine();
    let clips = render_pool(&engine, seed ^ 0xB01C, POOL);
    bind(&engine).shutdown();
    (Setup { engine, clips }, t.elapsed().as_secs_f64())
}

/// Receiver → sender: the slot's outstanding request was enqueued, or
/// must be resent.
enum Msg {
    Ready(usize),
    Retry(usize),
}

/// Sender → receiver, logged before the frame is written:
/// `(session, clip, command, send ns, request id)`.
type Sent = (u64, usize, usize, u64, u64);

fn slot_of(session: u64) -> usize {
    (session as usize - 1) % SESSIONS
}

struct Ctx<'a> {
    clips: &'a [Clip],
    t0: Instant,
    /// Sessions start until this time; strokes sent from the end of the
    /// warm-up until it are measured.
    deadline_ns: u64,
    abort: &'a AtomicBool,
    /// Sessions started, published once the last one has been.
    total: &'a AtomicUsize,
    traced: bool,
}

#[derive(Default)]
struct SenderOut {
    requests: u64,
    spans: Vec<Span>,
    error: Option<String>,
}

#[derive(Default)]
struct ReceiverOut {
    stroke_ms: Vec<Sample>,
    ack_ms: Vec<f64>,
    finished: usize,
    mismatched: usize,
    shed: u64,
    queue_full: u64,
    first_ns: Option<u64>,
    last_finished_ns: u64,
    audio_s: f64,
    spans: Vec<Span>,
    error: Option<String>,
}

/// One session slot's position: session generation, clip, next command
/// (`0` open, `1..=n` pushes, `n + 1` finish).
struct Slot {
    gen: u64,
    clip: usize,
    cmd: usize,
}

/// The sender's view of every slot.
struct Generator {
    rng: Rng,
    slots: Vec<Slot>,
    /// Slots whose next command may be sent.
    ready: VecDeque<usize>,
    started: usize,
    retired: usize,
}

impl Generator {
    fn new(pool: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xB0);
        let slots = (0..SESSIONS)
            .map(|_| Slot {
                gen: 0,
                clip: rng.below(pool),
                cmd: 0,
            })
            .collect();
        Generator {
            rng,
            slots,
            ready: (0..SESSIONS).collect(),
            started: SESSIONS,
            retired: 0,
        }
    }

    /// A finished session's slot starts a fresh session while the run's
    /// time lasts, and retires after it.
    fn handle(&mut self, msg: Msg, ctx: &Ctx<'_>) {
        let slot = match msg {
            Msg::Retry(slot) => slot,
            Msg::Ready(slot) => {
                let s = &mut self.slots[slot];
                s.cmd += 1;
                if s.cmd > ctx.clips[s.clip].pushes() + 1 {
                    if ns_since(ctx.t0) >= ctx.deadline_ns {
                        self.retired += 1;
                        return;
                    }
                    *s = Slot {
                        gen: s.gen + 1,
                        clip: self.rng.below(ctx.clips.len()),
                        cmd: 0,
                    };
                    self.started += 1;
                }
                slot
            }
        };
        self.ready.push_back(slot);
    }
}

impl Ctx<'_> {
    fn processed(m: &ServeMetrics) -> u64 {
        m.sessions_opened.get() + m.pushes.get() + m.sessions_finished.get()
    }

    fn run_sender(
        &self,
        w: &mut FrameWriter,
        rx: &Receiver<Msg>,
        log: &Sender<Sent>,
        metrics: &ServeMetrics,
        seed: u64,
    ) -> SenderOut {
        let mut out = SenderOut::default();
        let mut g = Generator::new(self.clips.len(), seed);
        let mut sent = 0u64;
        while g.retired < SESSIONS && !self.abort.load(Ordering::Relaxed) {
            while let Ok(msg) = rx.try_recv() {
                g.handle(msg, self);
            }
            let Some(slot) = g.ready.pop_front() else {
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(msg) => g.handle(msg, self),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                continue;
            };
            // Flow control: wait for the shards to drain below the window,
            // polling the server's processed-command counters.
            while sent >= Self::processed(metrics) + WINDOW && !self.abort.load(Ordering::Relaxed) {
                if let Ok(msg) = rx.recv_timeout(Duration::from_micros(200)) {
                    g.handle(msg, self);
                }
            }
            let s = &g.slots[slot];
            let session = s.gen * SESSIONS as u64 + slot as u64 + 1;
            let clip = &self.clips[s.clip];
            out.requests += 1;
            let rid = out.requests;
            let start = ns_since(self.t0);
            let _ = log.send((session, s.clip, s.cmd, start, rid));
            let sent_ok = match s.cmd {
                0 => w.send(&Request::Open { session }, rid),
                c if c <= clip.pushes() => w.send_push(session, clip.chunk(c - 1), rid),
                _ => w.send(&Request::Finish { session }, rid),
            };
            match sent_ok {
                Ok(encode_ns) if self.traced => {
                    let done = ns_since(self.t0);
                    out.spans
                        .push(("client_encode", rid, start / 1000, encode_ns / 1000));
                    out.spans
                        .push(("client_send", rid, start / 1000, (done - start) / 1000));
                }
                Ok(_) => {}
                Err(e) => {
                    out.error = Some(format!("send: {e}"));
                    self.abort.store(true, Ordering::Relaxed);
                }
            }
            sent += 1;
        }
        self.total.store(g.started, Ordering::SeqCst);
        out
    }

    fn run_receiver(
        &self,
        r: &mut FrameReader,
        tx: &Sender<Msg>,
        log: &Receiver<Sent>,
        sample_rate: f64,
    ) -> ReceiverOut {
        struct Sess {
            clip: usize,
            /// First send of each command: ns since the run began, and
            /// its request id.
            sent: Vec<(u64, u64)>,
            outstanding: (usize, u64),
            rows: Vec<Row>,
        }
        let mut out = ReceiverOut::default();
        // Kept after `Finished`: the finish verdict may arrive after the
        // session's last event.
        let mut sessions: BTreeMap<u64, Sess> = BTreeMap::new();
        let mut frames = Vec::new();
        let mut last_frame_ns = 0;
        loop {
            let total = self.total.load(Ordering::SeqCst);
            if (total > 0 && out.finished >= total) || self.abort.load(Ordering::Relaxed) {
                break;
            }
            let got = r.read_frames(&mut frames);
            while let Ok((session, clip, cmd, ns, rid)) = log.try_recv() {
                out.first_ns.get_or_insert(ns);
                let s = sessions.entry(session).or_insert_with(|| Sess {
                    clip,
                    sent: vec![(0, 0); self.clips[clip].pushes() + 2],
                    outstanding: (0, 0),
                    rows: Vec::new(),
                });
                if s.sent[cmd].1 == 0 {
                    s.sent[cmd] = (ns, rid);
                }
                s.outstanding = (cmd, rid);
            }
            let now = match got {
                Ok(Some(at)) => at.saturating_duration_since(self.t0).as_nanos() as u64,
                Ok(None) if ns_since(self.t0) > last_frame_ns + GIVE_UP_NS => {
                    out.error = Some("no frames for 60 s".into());
                    self.abort.store(true, Ordering::Relaxed);
                    break;
                }
                Ok(None) => continue,
                Err(e) => {
                    out.error = Some(e);
                    self.abort.store(true, Ordering::Relaxed);
                    break;
                }
            };
            last_frame_ns = now;
            for frame in frames.drain(..) {
                let id = frame.session().0;
                let Some(s) = sessions.get_mut(&id) else {
                    out.error = Some(format!("frame for unknown session {id}"));
                    self.abort.store(true, Ordering::Relaxed);
                    continue;
                };
                match frame {
                    Response::Enqueued { .. } => {
                        let (cmd, rid) = s.outstanding;
                        let since = now.saturating_sub(s.sent[cmd].0);
                        out.ack_ms.push(since as f64 / 1e6);
                        if self.traced {
                            out.spans
                                .push(("ack", rid, s.sent[cmd].0 / 1000, since / 1000));
                        }
                        let _ = tx.send(Msg::Ready(slot_of(id)));
                    }
                    Response::QueueFull { .. } => {
                        out.queue_full += 1;
                        let _ = tx.send(Msg::Retry(slot_of(id)));
                    }
                    Response::Shedding { .. } => {
                        out.shed += 1;
                        out.error = Some(format!("session {id} shed"));
                        self.abort.store(true, Ordering::Relaxed);
                    }
                    Response::Segment {
                        start_frame,
                        end_frame,
                        classification,
                        ..
                    } => {
                        let Some(c) = classification else {
                            out.error = Some(format!("degraded segment on session {id}"));
                            self.abort.store(true, Ordering::Relaxed);
                            continue;
                        };
                        s.rows
                            .push((start_frame, end_frame, c.stroke, c.scores.map(f64::to_bits)));
                        if let Some(&k) = self.clips[s.clip].emit.get(s.rows.len() - 1) {
                            let (sent_ns, rid) = s.sent[k + 1];
                            let since = now.saturating_sub(sent_ns);
                            if (live::WARMUP_NS..self.deadline_ns).contains(&sent_ns) {
                                out.stroke_ms.push((sent_ns, since as f64 / 1e6));
                            }
                            if self.traced {
                                out.spans
                                    .push(("stroke", rid, sent_ns / 1000, since / 1000));
                            }
                        }
                    }
                    Response::Finished { .. } => {
                        let clip = &self.clips[s.clip];
                        out.finished += 1;
                        if s.rows != clip.rows {
                            out.mismatched += 1;
                        }
                        out.audio_s += clip.seconds(sample_rate);
                        out.last_finished_ns = now;
                    }
                    other => {
                        out.error = Some(format!("unexpected frame {other:?}"));
                        self.abort.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        out
    }
}

struct Pass {
    sender: SenderOut,
    receiver: ReceiverOut,
    metrics: MetricsSnapshot,
    sessions: usize,
}

impl Pass {
    fn rtf(&self) -> f64 {
        let r = &self.receiver;
        let wall_s = r.last_finished_ns.saturating_sub(r.first_ns.unwrap_or(0)) as f64 / 1e9;
        r.audio_s / wall_s
    }

    fn check(&self, out: &mut Outcome) {
        let (snd, rcv) = (&self.sender, &self.receiver);
        out.attempted += snd.requests - rcv.queue_full + self.sessions as u64;
        let unfinished = (self.sessions - rcv.finished.min(self.sessions)) as u64;
        out.sessions(
            rcv.shed,
            unfinished,
            rcv.mismatched as u64,
            &[&snd.error, &rcv.error],
        );
    }
}

fn run_pass(s: &Setup, seed: u64, seconds: u64, traced: bool) -> Pass {
    let server = bind(&s.engine);
    let (mut w, mut r) = wireio::connect(server.local_addr()).expect("loopback connect");
    let (abort, total) = (AtomicBool::new(false), AtomicUsize::new(0));
    let ctx = Ctx {
        clips: &s.clips,
        t0: Instant::now(),
        deadline_ns: live::WARMUP_NS + seconds * 1_000_000_000,
        abort: &abort,
        total: &total,
        traced,
    };
    let (msg_tx, msg_rx) = mpsc::channel();
    let (log_tx, log_rx) = mpsc::channel();
    let sample_rate = s.engine.config().stft.sample_rate;
    let metrics = server.metrics();
    let (sender, receiver) = std::thread::scope(|scope| {
        let ctx = &ctx;
        let tx = scope.spawn(move || ctx.run_sender(&mut w, &msg_rx, &log_tx, metrics, seed));
        let rx = scope.spawn(move || ctx.run_receiver(&mut r, &msg_tx, &log_rx, sample_rate));
        (
            tx.join().expect("sender thread"),
            rx.join().expect("receiver thread"),
        )
    });
    let metrics = server.shutdown().metrics;
    Pass {
        sender,
        receiver,
        metrics,
        sessions: total.load(Ordering::SeqCst),
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (s, setup_s) = setup_thrice(|| timed_setup(seed));
    eprintln!("bulk: closed loop, {SESSIONS} sessions, window {WINDOW} commands, pool {POOL}");
    let plain = run_pass(&s, seed, seconds, false);
    let mut out = Outcome::default();
    plain.check(&mut out);
    let r = &plain.receiver;
    let stroke_p50 = windowed_quantile(&r.stroke_ms, 0.5);
    let m = &plain.metrics;
    eprintln!(
        "bulk: {} sessions, {} strokes timed, rtf {:.1}, queue_full={}, batch mean {:.2}",
        plain.sessions,
        r.stroke_ms.len(),
        plain.rtf(),
        m.queue_full,
        m.pushes as f64 / m.batch_drains.max(1) as f64
    );
    if !traced {
        let wall_s = r.audio_s / plain.rtf();
        out.push("latency_p50_ms", stroke_p50, "ms");
        out.push("latency_p90_ms", windowed_quantile(&r.stroke_ms, 0.9), "ms");
        out.push("audio_rtf", plain.rtf(), "audio-s/s");
        // Every session types one word.
        out.push("words_per_s", r.finished as f64 / wall_s, "words/s");
        out.push("accuracy", stroke_accuracy(&s.clips), "fraction");
        out.push("setup_s", setup_s, "s");
        return out;
    }

    let t = run_pass(&s, seed, seconds, true);
    t.check(&mut out);
    let mut spans: Vec<Span> = t.sender.spans.clone();
    spans.extend_from_slice(&t.receiver.spans);
    crate::save_trace("bulk", seed, &mut spans);

    let stream = layers::streaming_layers(&s.engine, &s.clips);
    let serve = layers::ServeLayers::from_pass(&t.metrics, &t.receiver.ack_ms);
    layers::LayerReport {
        tail_p99_ms: quantile(&latencies(&r.stroke_ms), 0.99),
        unexplained_share: layers::LayerReport::unexplained(stroke_p50, &stream, &serve),
        overhead_share: 1.0 - t.rtf() / plain.rtf(),
        stream,
        serve,
        ..layers::LayerReport::default()
    }
    .report(&mut out);
    out
}
