//! `live`: an open loop of typists at real-time cadence.
//!
//! A fixed population of typists each stream a rendered dictionary word as
//! 5120-sample pushes, one per push interval, then finish and start a fresh
//! session. A share of sessions goes quiet for longer than the reap
//! threshold just before a stroke-emitting push, so the server suspends
//! them to its snapshot store and the resume push thaws them. The admin
//! plane is scraped once per second. Every latency runs from the time a
//! request was *due*, so a stalled generator cannot hide queueing.

use crate::common::{
    latencies, nproc, ns_since, quantile, render_pool, setup_thrice, sorted, stroke_accuracy,
    windowed_quantile, Clip, Outcome, Rng, Row, Sample, CHUNK,
};
use crate::layers;
use crate::wireio::{self, FrameReader, FrameWriter, Span};
use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
use echowrite_obs::ObsServer;
use echowrite_serve::{MetricsSnapshot, ReapPolicy, ServeConfig, SessionManager};
use echowrite_snapshot::{MemoryStore, SnapshotStore};
use echowrite_wire::{Request, Response, WireServer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent typists: about a third of `bulk`'s capacity on a 2-core
/// host. Fixed; never adapted at runtime.
pub const TYPISTS: usize = 288;
/// Distinct rendered words the typists draw from.
const POOL: usize = 48;
/// Share of sessions that pause before a stroke-emitting push.
const PAUSE_SHARE: f64 = 0.125;
/// How long a pausing typist stays quiet.
const PAUSE_NS: u64 = 2_500_000_000;
/// Reap threshold on the shard's sample clock: several push intervals of
/// a loaded shard, well under a pause.
const IDLE_TIMEOUT_SAMPLES: u64 = 1_500_000;
/// Typists' first sessions start spread over this window.
const STAGGER_NS: u64 = 1_000_000_000;
/// Ramp-up excluded from every statistic: typists start, shard session
/// pools fill.
pub const WARMUP_NS: u64 = 2_000_000_000;
/// `/metrics` and `/sessions` alternate, so each is scraped once a second
/// and at most one scrape is in flight.
const SCRAPE_EVERY_NS: u64 = 500_000_000;
/// While a scrape is in flight the sender wakes at least this often to
/// poll it, which bounds the error of `obs.scrape_ms`.
const SCRAPE_POLL_NS: u64 = 200_000;

pub fn engine() -> EchoWrite {
    EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32))
}

/// One session a typist runs. Command `0` opens, `1..=n` push chunk
/// `cmd − 1`, `n + 1` finishes.
struct Plan {
    clip: usize,
    open_ns: u64,
    pause_at: Option<usize>,
    /// The schedule index of each command (its wire request id − 1).
    events: Vec<u32>,
}

impl Plan {
    fn due_ns(&self, cmd: usize, interval_ns: u64) -> u64 {
        let paused = self.pause_at.is_some_and(|k| cmd > k);
        self.open_ns + cmd as u64 * interval_ns + if paused { PAUSE_NS } else { 0 }
    }
}

struct Schedule {
    plans: Vec<Plan>,
    /// `(due ns, plan, command)`, ascending by due time.
    events: Vec<(u64, u32, u32)>,
    interval_ns: u64,
    /// Requests due in `[WARMUP_NS, end_ns)` are measured; sessions open
    /// until `end_ns` and then run to completion.
    end_ns: u64,
}

impl Schedule {
    fn measured(&self, due_ns: u64) -> bool {
        (WARMUP_NS..self.end_ns).contains(&due_ns)
    }
}

fn schedule(clips: &[Clip], seed: u64, end_ns: u64, interval_ns: u64) -> Schedule {
    let mut rng = Rng::new(seed ^ 0x11FE);
    let mut plans = Vec::new();
    for _ in 0..TYPISTS {
        let mut t = (rng.unit() * STAGGER_NS as f64) as u64;
        while t < end_ns {
            let clip = rng.below(clips.len());
            let pause_at = if rng.unit() < PAUSE_SHARE {
                clips[clip].pause_push()
            } else {
                None
            };
            let n = clips[clip].pushes();
            let plan = Plan {
                clip,
                open_ns: t,
                pause_at,
                events: vec![0; n + 2],
            };
            // The next session opens on the tick this one finishes.
            t = plan.due_ns(n + 1, interval_ns);
            plans.push(plan);
        }
    }
    let mut events: Vec<(u64, u32, u32)> = Vec::new();
    for (p, plan) in plans.iter().enumerate() {
        for cmd in 0..plan.events.len() {
            events.push((plan.due_ns(cmd, interval_ns), p as u32, cmd as u32));
        }
    }
    events.sort_unstable();
    for (i, &(_, p, cmd)) in events.iter().enumerate() {
        plans[p as usize].events[cmd as usize] = i as u32;
    }
    Schedule {
        plans,
        events,
        interval_ns,
        end_ns,
    }
}

/// Rendered inputs plus their oracle; built once per setup.
pub struct Setup {
    pub engine: EchoWrite,
    pub clips: Vec<Clip>,
}

pub fn setup(seed: u64) -> Setup {
    let engine = engine();
    let clips = render_pool(&engine, seed, POOL);
    Setup { engine, clips }
}

struct Server {
    wire: WireServer,
    obs: ObsServer,
    store: Arc<MemoryStore>,
}

fn bind(engine: &EchoWrite) -> Server {
    let store = Arc::new(MemoryStore::new());
    let config = ServeConfig {
        shards: Parallelism::Threads(nproc()),
        deadline_chunks: None,
        idle_timeout_samples: Some(IDLE_TIMEOUT_SAMPLES),
        reap_policy: ReapPolicy::SuspendToStore,
        ..ServeConfig::default()
    };
    let manager = SessionManager::with_snapshot_store(engine.clone(), config, store.clone())
        .expect("valid serve config");
    let wire = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let obs = ObsServer::bind("127.0.0.1:0", wire.manager_handle()).expect("admin bind");
    Server { wire, obs, store }
}

/// Engine, rendering, oracle and server bind — what `setup_s` times.
pub fn timed_setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let s = setup(seed);
    bind(&s.engine).wire.shutdown();
    (s, t.elapsed().as_secs_f64())
}

#[derive(Default)]
struct SenderOut {
    lag_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    spans: Vec<Span>,
    error: Option<String>,
}

#[derive(Default)]
struct ReceiverOut {
    stroke_ms: Vec<Sample>,
    resume_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    finished: usize,
    mismatched: usize,
    shed: u64,
    queue_full: u64,
    first_ns: u64,
    last_finished_ns: u64,
    audio_s: f64,
    spans: Vec<Span>,
    error: Option<String>,
}

struct Ctx<'a> {
    sched: &'a Schedule,
    clips: &'a [Clip],
    t0: Instant,
    abort: &'a AtomicBool,
    traced: bool,
}

impl Ctx<'_> {
    fn send(&self, w: &mut FrameWriter, rid: u64) -> std::io::Result<u64> {
        let (_, p, cmd) = self.sched.events[rid as usize - 1];
        let clip = &self.clips[self.sched.plans[p as usize].clip];
        let session = u64::from(p) + 1;
        match cmd as usize {
            0 => w.send(&Request::Open { session }, rid),
            c if c <= clip.pushes() => w.send_push(session, clip.chunk(c - 1), rid),
            _ => w.send(&Request::Finish { session }, rid),
        }
    }

    fn run_sender(&self, w: &mut FrameWriter, retry: &Receiver<u64>, obs: SocketAddr) -> SenderOut {
        let mut out = SenderOut::default();
        let mut next_scrape = SCRAPE_EVERY_NS;
        let mut paths = ["/metrics", "/sessions"].into_iter().cycle();
        let mut scrape: Option<wireio::Scrape> = None;
        let mut result = Ok(());
        'events: for (i, &(due, _, _)) in self.sched.events.iter().enumerate() {
            if self.abort.load(Ordering::Relaxed) {
                break;
            }
            // Wait for the due time, resending QueueFull retries and
            // polling the scrape in flight meanwhile.
            loop {
                let done = match scrape.as_mut().map(wireio::Scrape::poll) {
                    None | Some(Ok(None)) => false,
                    Some(Ok(Some(ms))) => {
                        out.scrape_ms.push(ms);
                        true
                    }
                    Some(Err(e)) => {
                        out.error = Some(format!("scrape: {e}"));
                        true
                    }
                };
                if done {
                    scrape = None;
                }
                let now = ns_since(self.t0);
                if now >= due {
                    break;
                }
                let mut wait = due - now;
                if scrape.is_some() {
                    wait = wait.min(SCRAPE_POLL_NS);
                }
                match retry.recv_timeout(Duration::from_nanos(wait)) {
                    Ok(rid) => {
                        if let Err(e) = self.send(w, rid) {
                            result = Err(e);
                            break 'events;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        std::thread::sleep(Duration::from_nanos(wait));
                    }
                }
            }
            let rid = i as u64 + 1;
            let start = ns_since(self.t0);
            match self.send(w, rid) {
                Ok(encode_ns) => {
                    if self.sched.measured(due) {
                        out.lag_ms.push((start - due) as f64 / 1e6);
                    }
                    if self.traced {
                        let sent = ns_since(self.t0);
                        out.spans
                            .push(("client_encode", rid, start / 1000, encode_ns / 1000));
                        out.spans
                            .push(("client_send", rid, start / 1000, (sent - start) / 1000));
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            if start >= next_scrape && start < self.sched.end_ns && scrape.is_none() {
                next_scrape += SCRAPE_EVERY_NS;
                match wireio::Scrape::start(obs, paths.next().expect("cycle")) {
                    Ok(s) => scrape = Some(s),
                    Err(e) => out.error = Some(format!("scrape: {e}")),
                }
            }
        }
        if let Some(s) = scrape {
            match s.wait() {
                Ok(ms) => out.scrape_ms.push(ms),
                Err(e) => out.error = Some(format!("scrape: {e}")),
            }
        }
        if let Err(e) = result {
            out.error = Some(format!("send: {e}"));
            self.abort.store(true, Ordering::Relaxed);
        }
        // Keep serving retries until the receiver has seen every session end.
        while let Ok(rid) = retry.recv() {
            if self.send(w, rid).is_err() {
                break;
            }
        }
        out
    }

    fn run_receiver(
        &self,
        r: &mut FrameReader,
        retry: Sender<u64>,
        sample_rate: f64,
    ) -> ReceiverOut {
        let sched = self.sched;
        let mut out = ReceiverOut {
            first_ns: sched.events[0].0,
            ..ReceiverOut::default()
        };
        let mut rows: Vec<Vec<Row>> = sched.plans.iter().map(|_| Vec::new()).collect();
        let mut frames = Vec::new();
        // Every session ends well before this unless the server stalls.
        let give_up_ns = sched.events.last().map_or(0, |e| e.0) + 60_000_000_000;
        while out.finished < sched.plans.len() {
            if out.error.is_some() {
                self.abort.store(true, Ordering::Relaxed);
            }
            let now = match r.read_frames(&mut frames) {
                Ok(Some(at)) => at.saturating_duration_since(self.t0).as_nanos() as u64,
                Ok(None) if self.abort.load(Ordering::Relaxed) => break,
                Ok(None) if ns_since(self.t0) > give_up_ns => {
                    out.error = Some("no frames for 60 s after the last request".into());
                    break;
                }
                Ok(None) => continue,
                Err(e) => {
                    out.error = Some(e);
                    break;
                }
            };
            for frame in frames.drain(..) {
                match frame {
                    Response::Enqueued { request_id, .. } => {
                        let (due, p, cmd) = sched.events[request_id as usize - 1];
                        let pushes = self.clips[sched.plans[p as usize].clip].pushes();
                        let is_push = (1..=pushes).contains(&(cmd as usize));
                        if is_push && sched.measured(due) {
                            out.ack_ms.push(now.saturating_sub(due) as f64 / 1e6);
                        }
                        if self.traced {
                            out.spans.push((
                                "ack",
                                request_id,
                                due / 1000,
                                now.saturating_sub(due) / 1000,
                            ));
                        }
                    }
                    Response::QueueFull { request_id, .. } => {
                        out.queue_full += 1;
                        let _ = retry.send(request_id);
                    }
                    Response::Shedding { session, .. } => {
                        out.shed += 1;
                        out.error = Some(format!("session {session} shed"));
                        self.abort.store(true, Ordering::Relaxed);
                    }
                    Response::Segment {
                        session,
                        start_frame,
                        end_frame,
                        classification,
                    } => {
                        let p = session as usize - 1;
                        let Some(c) = classification else {
                            out.error = Some(format!("degraded segment on session {session}"));
                            continue;
                        };
                        rows[p].push((
                            start_frame,
                            end_frame,
                            c.stroke,
                            c.scores.map(f64::to_bits),
                        ));
                        let plan = &sched.plans[p];
                        let Some(&k) = self.clips[plan.clip].emit.get(rows[p].len() - 1) else {
                            continue;
                        };
                        let due = plan.due_ns(k + 1, sched.interval_ns);
                        let ms = now.saturating_sub(due) as f64 / 1e6;
                        if sched.measured(due) {
                            out.stroke_ms.push((due, ms));
                            if plan.pause_at == Some(k) {
                                out.resume_ms.push(ms);
                            }
                        }
                        if self.traced {
                            let rid = u64::from(plan.events[k + 1]) + 1;
                            out.spans.push((
                                "stroke",
                                rid,
                                due / 1000,
                                now.saturating_sub(due) / 1000,
                            ));
                        }
                    }
                    Response::Finished { session } => {
                        let p = session as usize - 1;
                        let clip = &self.clips[sched.plans[p].clip];
                        out.finished += 1;
                        if rows[p] != clip.rows {
                            out.mismatched += 1;
                        }
                        out.audio_s += clip.seconds(sample_rate);
                        out.last_finished_ns = now;
                    }
                    other => out.error = Some(format!("unexpected frame {other:?}")),
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
    store_left: usize,
}

fn run_pass(s: &Setup, sched: &Schedule, server: Server, traced: bool) -> Pass {
    let (mut w, mut r) = wireio::connect(server.wire.local_addr()).expect("loopback connect");
    let abort = AtomicBool::new(false);
    let ctx = Ctx {
        sched,
        clips: &s.clips,
        t0: Instant::now(),
        abort: &abort,
        traced,
    };
    let (retry_tx, retry_rx) = mpsc::channel();
    let obs = server.obs.local_addr();
    let sample_rate = s.engine.config().stft.sample_rate;
    let (sender, receiver) = std::thread::scope(|scope| {
        let ctx = &ctx;
        let tx = scope.spawn(move || ctx.run_sender(&mut w, &retry_rx, obs));
        let rx = scope.spawn(move || ctx.run_receiver(&mut r, retry_tx, sample_rate));
        let receiver = rx.join().expect("receiver thread");
        (tx.join().expect("sender thread"), receiver)
    });
    server.obs.shutdown();
    let metrics = server.wire.shutdown().metrics;
    let store_left = server.store.sessions().map_or(usize::MAX, |v| v.len());
    Pass {
        sender,
        receiver,
        metrics,
        store_left,
    }
}

fn check(pass: &Pass, sched: &Schedule, out: &mut Outcome) {
    let (snd, rcv) = (&pass.sender, &pass.receiver);
    let sessions = sched.plans.len() as u64;
    out.attempted += sched.events.len() as u64 + sessions;
    let unfinished = sessions - rcv.finished as u64;
    out.sessions(
        rcv.shed,
        unfinished,
        rcv.mismatched as u64,
        &[&snd.error, &rcv.error],
    );
    let lag_p99 = quantile(&sorted(snd.lag_ms.clone()), 0.99);
    if lag_p99 > sched.interval_ns as f64 / 1e6 {
        out.error(format!(
            "generator lag p99 {lag_p99:.1} ms exceeds one push interval"
        ));
    }
    if pass.store_left != 0 {
        out.error(format!("{} snapshots left in the store", pass.store_left));
    }
}

fn pause_count(sched: &Schedule) -> usize {
    sched.plans.iter().filter(|p| p.pause_at.is_some()).count()
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (s, setup_s) = setup_thrice(|| timed_setup(seed));
    let sample_rate = s.engine.config().stft.sample_rate;
    let interval_ns = (CHUNK as f64 / sample_rate * 1e9) as u64;
    let sched = schedule(
        &s.clips,
        seed,
        WARMUP_NS + seconds * 1_000_000_000,
        interval_ns,
    );
    eprintln!(
        "live: open loop, {TYPISTS} typists, {} sessions, {} pauses, {} requests, push every {:.1} ms",
        sched.plans.len(),
        pause_count(&sched),
        sched.events.len(),
        interval_ns as f64 / 1e6
    );

    let plain = run_pass(&s, &sched, bind(&s.engine), false);
    let mut out = Outcome::default();
    check(&plain, &sched, &mut out);
    let r = &plain.receiver;
    let stroke_p50 = windowed_quantile(&r.stroke_ms, 0.5);
    eprintln!(
        "live: {} strokes timed, {} resumes, {} acks, queue_full={}",
        r.stroke_ms.len(),
        r.resume_ms.len(),
        r.ack_ms.len(),
        r.queue_full
    );
    if !traced {
        let wall_s = (r.last_finished_ns - r.first_ns) as f64 / 1e9;
        out.push("latency_p50_ms", stroke_p50, "ms");
        out.push("latency_p90_ms", windowed_quantile(&r.stroke_ms, 0.9), "ms");
        out.push("audio_rtf", r.audio_s / wall_s, "audio-s/s");
        // Every session types one word.
        out.push("words_per_s", r.finished as f64 / wall_s, "words/s");
        out.push("accuracy", stroke_accuracy(&s.clips), "fraction");
        out.push("setup_s", setup_s, "s");
        return out;
    }

    let t = run_pass(&s, &sched, bind(&s.engine), true);
    check(&t, &sched, &mut out);
    let mut spans: Vec<Span> = t.sender.spans.clone();
    spans.extend_from_slice(&t.receiver.spans);
    crate::save_trace("live", seed, &mut spans);

    let m = &t.metrics;
    let stream = layers::streaming_layers(&s.engine, &s.clips);
    let serve = layers::ServeLayers::from_pass(m, &t.receiver.ack_ms);
    let pauses: Vec<(usize, usize)> = s
        .clips
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, c.pause_push()?)))
        .collect();
    eprintln!(
        "live: suspended={} resumed={} pauses={}",
        m.sessions_suspended,
        m.sessions_resumed,
        pause_count(&sched)
    );
    layers::LayerReport {
        lag_p99_ms: quantile(&sorted(t.sender.lag_ms.clone()), 0.99),
        tail_p99_ms: quantile(&latencies(&r.stroke_ms), 0.99),
        snap: layers::snapshot_at(&s.engine, &s.clips, &pauses),
        thaw_ratio: m.sessions_resumed as f64 / pause_count(&sched).max(1) as f64,
        resume_p90_ms: quantile(&sorted(t.receiver.resume_ms.clone()), 0.9),
        scrape_p99_ms: quantile(&sorted(t.sender.scrape_ms.clone()), 0.99),
        unexplained_share: layers::LayerReport::unexplained(stroke_p50, &stream, &serve),
        overhead_share: windowed_quantile(&t.receiver.stroke_ms, 0.5) / stroke_p50 - 1.0,
        stream,
        serve,
        ..layers::LayerReport::default()
    }
    .report(&mut out);
    out
}
