//! The sharded multi-session manager.
//!
//! N worker shards (the [`Parallelism`](echowrite::Parallelism) knob) each
//! own a `SessionId → StreamingSession` map plus pooled scratch, with
//! sessions pinned to shards by id hash — all DSP state stays
//! thread-local, so per-session output is bitwise identical to an
//! isolated [`StreamingRecognizer`](echowrite::StreamingRecognizer) no
//! matter how many shards run or how sessions interleave.
//!
//! Workers drain their queue in batches (up to [`ServeConfig::batch_max`]
//! commands per round), running every push of a batch through one
//! shard-shared DSP scratch so the FFT workspace stays hot across sessions;
//! commands execute strictly in queue order, so the batch size never
//! changes any output bit.
//!
//! Ingress is a bounded MPSC queue per shard and **never blocks**:
//! [`SessionManager::submit`] returns a [`SubmitVerdict`] — enqueued, queue
//! full (with a drain hint), or shed by the admission controller. A push
//! that waits in a backlog past the configured deadline is degraded to
//! segment-only output (the DTW match is skipped, the DSP state still
//! advances) rather than stalling the shard. An idle reaper driven by the
//! shard's logical sample clock reclaims abandoned sessions; no wall clock
//! is read anywhere on the result path.

use crate::admission::AdmissionController;
use crate::config::{ReapPolicy, ServeConfig};
use crate::metrics::{Counter, ServeMetrics};
use echowrite::{EchoWrite, SegmentEvent, SharedDspScratch, StreamingSession};
use echowrite_profile::Stopwatch;
use echowrite_snapshot::{restore_in_place, snapshot_session, SnapshotStore};
use echowrite_trace::{
    flight_to_chrome_json, EventKind, FlightEntry, FlightRing, SmallStr, Stage, TraceEvent,
    TICK_UNSET,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Scan for idle sessions every this many processed commands.
const REAP_SCAN_EVERY: u64 = 64;

/// Identifies one recognition session. Allocation is the caller's business
/// (connection id, user id hash, …); the manager only requires ids of live
/// sessions to be distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// The manager's answer to a [`SessionManager::submit`] — never a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum SubmitVerdict {
    /// Accepted; the shard will process it in submission order.
    Enqueued,
    /// The session's shard queue is full; try again after roughly this
    /// many queued commands have drained.
    QueueFull {
        /// Current depth of the rejecting shard's queue.
        retry_after_chunks: usize,
    },
    /// Rejected by the admission controller (opens past the high-water
    /// mark or the hard session cap), or the manager is shutting down.
    Shedding,
}

/// One unit of work for [`SessionManager::submit`].
#[derive(Debug)]
pub enum Request<'a> {
    /// Start a session (admission-controlled).
    Open(SessionId),
    /// Append an audio chunk to a live session.
    Push(SessionId, &'a [f64]),
    /// End a session, flushing every remaining segment.
    Finish(SessionId),
}

/// An output produced by a shard worker, drained via
/// [`SessionManager::try_events`]. Events of one session arrive in order;
/// events of different sessions interleave arbitrarily (shards run
/// concurrently).
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A decided stroke segment. `segment.classification` is `None` when
    /// the producing push was degraded by a missed deadline.
    Segment {
        /// The session that produced the segment.
        session: SessionId,
        /// The segment, in the session's absolute frame clock.
        segment: SegmentEvent,
    },
    /// The session finished (explicit [`Request::Finish`]); all its
    /// segments have been emitted.
    Finished {
        /// The finished session.
        session: SessionId,
    },
    /// The idle reaper reclaimed the session.
    Reaped {
        /// The reaped session.
        session: SessionId,
    },
}

/// A command in flight to a shard worker. `req` is the wire-level
/// correlation id the command was submitted under (0 = untagged), threaded
/// through so push spans and flight-ring entries stitch against
/// client-side traces.
enum Cmd {
    Open { id: u64, req: u64 },
    Push { id: u64, chunk: Vec<f64>, seq: u64, req: u64, timer: Stopwatch },
    Finish { id: u64, req: u64 },
    /// Remove the session and reply with its encoded snapshot (migration).
    Export { id: u64, reply: SyncSender<Option<Vec<u8>>> },
    /// Install an exported snapshot under `id`; replies whether it stuck.
    Import { id: u64, bytes: Vec<u8>, reply: SyncSender<bool> },
    /// Snapshot the shard's live-session table (the obs plane's
    /// `/sessions` endpoint).
    Introspect { reply: SyncSender<Vec<SessionInfo>> },
    /// Snapshot the shard's flight ring, optionally one session's rows.
    FlightDump { session: Option<u64>, reply: SyncSender<Vec<FlightEntry>> },
    /// [`SessionManager::quiesce`]'s barrier: the worker replies once it
    /// reaches it, so every command queued ahead of it has run.
    Barrier { reply: SyncSender<()> },
}

/// Why a flight-recorder dump was triggered (DESIGN.md §6.11). The reason
/// names the artifact, so a postmortem directory reads as an anomaly log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightReason {
    /// The admission controller latched into shedding.
    Shed,
    /// A push missed its backlog deadline and was degraded.
    DeadlineDegradation,
    /// The wire front-end rejected a malformed frame.
    MalformedFrame,
    /// Reap/suspend/thaw churn reached the configured threshold within one
    /// reaper scan window.
    ReapChurn,
    /// The manager is shutting down (final dump).
    Shutdown,
    /// An operator asked for a dump (obs plane or tests).
    Manual,
}

impl FlightReason {
    /// Stable artifact-name slug.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightReason::Shed => "shed",
            FlightReason::DeadlineDegradation => "deadline",
            FlightReason::MalformedFrame => "malformed-frame",
            FlightReason::ReapChurn => "reap-churn",
            FlightReason::Shutdown => "shutdown",
            FlightReason::Manual => "manual",
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            FlightReason::Shed => 0,
            FlightReason::DeadlineDegradation => 1,
            FlightReason::MalformedFrame => 2,
            FlightReason::ReapChurn => 3,
            FlightReason::Shutdown => 4,
            FlightReason::Manual => 5,
        }
    }

    fn from_u64(v: u64) -> FlightReason {
        match v {
            0 => FlightReason::Shed,
            1 => FlightReason::DeadlineDegradation,
            2 => FlightReason::MalformedFrame,
            3 => FlightReason::ReapChurn,
            4 => FlightReason::Shutdown,
            _ => FlightReason::Manual,
        }
    }
}

/// Manager→worker flight-dump trigger: a monotone epoch plus the latest
/// reason. Workers poll the epoch once per drained batch (a single load)
/// and dump their ring when it moved; triggers arriving between polls
/// coalesce into one dump.
#[derive(Debug, Default)]
struct FlightControl {
    epoch: AtomicU64,
    reason: AtomicU64,
}

impl FlightControl {
    fn trigger(&self, reason: FlightReason) {
        // ordering: Relaxed — published by the Release bump below.
        // echolint: allow(atomics-order) -- the epoch fetch_add below is the Release edge; the reason rides it
        self.reason.store(reason.as_u64(), Ordering::Relaxed);
        // ordering: Release pairs with the worker's Acquire epoch load, so
        // a worker that sees the new epoch also sees the reason store.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn read(&self) -> (u64, FlightReason) {
        // ordering: Acquire pairs with trigger's Release bump.
        let epoch = self.epoch.load(Ordering::Acquire);
        // ordering: Relaxed — made visible by the Acquire load above.
        (epoch, FlightReason::from_u64(self.reason.load(Ordering::Relaxed)))
    }
}

/// One row of [`SessionManager::introspect`]: a live or suspended session
/// as its owning shard sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session id.
    pub session: u64,
    /// The shard the session is pinned to.
    pub shard: usize,
    /// Audio samples pushed since the session was opened or last resumed
    /// on this shard (0 for suspended sessions — their state lives in the
    /// store, not a shard).
    pub samples_in: u64,
    /// Commands queued on the owning shard when the row was snapshotted.
    pub backlog: usize,
    /// Whether the session is suspended in the snapshot store.
    pub suspended: bool,
    /// Shard logical clock (audio-time µs) of the session's last command.
    pub last_active_tick_us: u64,
}

/// What the manager and every shard worker share, built once by
/// [`SessionManager::build`].
struct Shared {
    engine: EchoWrite,
    config: ServeConfig,
    /// The authoritative live-session count; it moves only through
    /// [`Shared::admit`] and [`Shared::release`].
    admission: AdmissionController,
    metrics: Arc<ServeMetrics>,
    /// The workers' side of the event channel.
    events: Sender<ServeEvent>,
    /// Snapshot store for suspend/thaw/export and the shutdown drain.
    store: Option<Arc<dyn SnapshotStore>>,
    /// Set by [`SessionManager::shutdown_to_store`]: each worker suspends
    /// its remaining live sessions into the store when its queue closes.
    drain_on_exit: AtomicBool,
    /// Flight-dump trigger (shed latch, malformed frames, manual).
    flight_ctl: FlightControl,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Shared {
    /// Reserves one live-session slot; a refusal counts in
    /// `sessions_shed`. The `sessions_live` gauge moves here and in
    /// [`Shared::release`] only, so it equals the admission count
    /// whenever neither call is in flight.
    fn admit(&self) -> bool {
        let admitted = self.admission.try_admit();
        if admitted {
            self.metrics.sessions_live.inc();
        } else {
            self.metrics.sessions_shed.inc();
        }
        admitted
    }

    /// Hands one live-session slot back.
    fn release(&self) {
        self.admission.release();
        self.metrics.sessions_live.dec();
    }
}

/// The counters a shard's submitters and its worker both touch.
#[derive(Debug, Default)]
struct ShardQueue {
    /// Commands sent to the shard that its worker has not taken yet.
    depth: AtomicUsize,
    /// Pushes enqueued to this shard so far (the deadline clock).
    pushes_enqueued: AtomicU64,
    /// Audit log of every push seq the shard worker observed, for the
    /// unique-seq regression test (compiled out of release builds).
    #[cfg(test)]
    seq_log: Mutex<Vec<u64>>,
}

impl ShardQueue {
    /// Takes one command off `depth` and the queue gauge: a send the queue
    /// refused, a command the worker took, or one a panicking worker drops.
    fn untrack(&self, metrics: &ServeMetrics) {
        // ordering: AcqRel keeps every add/sub pair on `depth` totally
        // ordered, so the observed depth never dips below zero mid-handoff.
        self.depth.fetch_sub(1, Ordering::AcqRel);
        metrics.queue_depth.dec();
    }
}

/// Manager-side handle to one shard; derefs to the [`ShardQueue`] it
/// shares with the shard's worker.
#[derive(Debug)]
struct ShardHandle {
    tx: Option<SyncSender<Cmd>>,
    queue: Arc<ShardQueue>,
    join: Option<JoinHandle<()>>,
}

impl std::ops::Deref for ShardHandle {
    type Target = ShardQueue;

    fn deref(&self) -> &ShardQueue {
        &self.queue
    }
}

/// The sharded multi-session recognition service. See the module docs for
/// the architecture; see [`ServeConfig`] for the knobs.
///
/// # Example
///
/// ```
/// use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
/// use echowrite_serve::{ServeConfig, SessionId, SessionManager, SubmitVerdict};
///
/// let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
/// let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
/// let manager = SessionManager::new(engine, cfg).expect("valid config");
/// let id = SessionId(7);
/// assert_eq!(manager.open(id), SubmitVerdict::Enqueued);
/// let _ = manager.push(id, &[0.0; 4096]);
/// let _ = manager.finish(id);
/// manager.quiesce();
/// ```
#[derive(Debug)]
pub struct SessionManager {
    shards: Vec<ShardHandle>,
    shared: Arc<Shared>,
    /// The output side of the event channel; `None` after
    /// [`SessionManager::detach_events`] hands it to an external consumer.
    events: Mutex<Option<Receiver<ServeEvent>>>,
    /// Edge detector for the shed trigger: set on the first shed, cleared
    /// once admission stops shedding, so a shed storm dumps once.
    shed_latched: AtomicBool,
}

/// The detached output side of a manager's event channel (see
/// [`SessionManager::detach_events`]): a *blocking* event consumer for a
/// dedicated dispatcher thread, e.g. the wire front-end's router. Holds no
/// reference to the manager, so the manager can be shut down while a
/// dispatcher still drains the stream — `recv` returns `None` once the
/// manager and every shard worker are gone and the channel is empty.
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<ServeEvent>,
}

impl EventStream {
    /// Blocks for the next event; `None` means the manager has shut down
    /// and every remaining event has been delivered.
    pub fn recv(&self) -> Option<ServeEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking variant of [`EventStream::recv`].
    pub fn try_recv(&self) -> Option<ServeEvent> {
        self.rx.try_recv().ok()
    }
}

/// Everything [`SessionManager::shutdown`] hands back: the final metrics
/// snapshot plus every [`ServeEvent`] still sitting undrained in the
/// channel, so a caller that skipped [`SessionManager::try_events`] loses
/// nothing across shutdown.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final point-in-time copy of every metric.
    pub metrics: crate::metrics::MetricsSnapshot,
    /// Events that were still queued when the manager stopped (empty when
    /// the event receiver was detached — the [`EventStream`] holder owns
    /// the tail in that case).
    pub events: Vec<ServeEvent>,
}

impl SessionManager {
    /// Spawns the shard workers and returns the manager.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfig::validate`] message when the
    /// configuration is invalid, including a
    /// [`ReapPolicy::SuspendToStore`] with no store (use
    /// [`SessionManager::with_snapshot_store`]).
    pub fn new(engine: EchoWrite, config: ServeConfig) -> Result<Self, String> {
        Self::build(engine, config, None)
    }

    /// Like [`SessionManager::new`], with a snapshot store shared by every
    /// shard: enables [`ReapPolicy::SuspendToStore`] eviction, transparent
    /// thaw of suspended sessions on their next `Open`/`Push`/`Finish`,
    /// export of suspended sessions, and the
    /// [`SessionManager::shutdown_to_store`] crash-recovery drain. A store
    /// outliving the manager (e.g. an
    /// [`echowrite_snapshot::FileStore`]) carries the suspended sessions
    /// to the next manager built over it.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfig::validate`] message when the
    /// configuration is invalid.
    pub fn with_snapshot_store(
        engine: EchoWrite,
        config: ServeConfig,
        store: Arc<dyn SnapshotStore>,
    ) -> Result<Self, String> {
        Self::build(engine, config, Some(store))
    }

    fn build(
        engine: EchoWrite,
        config: ServeConfig,
        store: Option<Arc<dyn SnapshotStore>>,
    ) -> Result<Self, String> {
        config.validate()?;
        engine.config().validate()?;
        if config.reap_policy == ReapPolicy::SuspendToStore && store.is_none() {
            return Err(
                "ReapPolicy::SuspendToStore needs a snapshot store; \
                 construct the manager with with_snapshot_store"
                    .to_string(),
            );
        }
        let (events, evt_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            engine,
            admission: AdmissionController::new(config.max_sessions, config.high_water),
            metrics: Arc::new(ServeMetrics::new()),
            events,
            store,
            drain_on_exit: AtomicBool::new(false),
            flight_ctl: FlightControl::default(),
            config,
        });
        let shards = (0..shared.config.shard_count())
            .map(|shard_index| {
                let (tx, rx) = mpsc::sync_channel(shared.config.queue_capacity);
                let queue = Arc::new(ShardQueue::default());
                let worker = Worker {
                    shared: Arc::clone(&shared),
                    queue: Arc::clone(&queue),
                    rx,
                    batch: VecDeque::with_capacity(shared.config.batch_max),
                    opening: None,
                    shard_index,
                    sessions: BTreeMap::new(),
                    unrestorable: BTreeSet::new(),
                    pool: Vec::new(),
                    scratch: Vec::new(),
                    dsp_scratch: SharedDspScratch::new(),
                    clock_samples: 0,
                    commands_done: 0,
                    flight: FlightRing::new(shared.config.flight.capacity),
                    flight_seen: 0,
                    flight_artifacts: 0,
                    churn_window: 0,
                    was_degraded: false,
                };
                let join = std::thread::spawn(move || worker.run());
                ShardHandle { tx: Some(tx), queue, join: Some(join) }
            })
            .collect();
        Ok(SessionManager {
            shards,
            shared,
            events: Mutex::new(Some(evt_rx)),
            shed_latched: AtomicBool::new(false),
        })
    }

    /// The shard a session is pinned to (Fibonacci hash of the id).
    fn shard_of(&self, id: SessionId) -> usize {
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len().max(1)
    }

    /// Submits one request; never blocks. Opens pass admission control;
    /// pushes and finishes go straight to the session's shard queue.
    pub fn submit(&self, request: Request<'_>) -> SubmitVerdict {
        self.submit_tagged(request, 0)
    }

    /// Like [`SessionManager::submit`], tagging the command with a
    /// wire-level correlation id (0 = untagged). The id flows into the
    /// shard's push spans and flight-ring entries, so server-side traces
    /// stitch 1:1 against the client trace that assigned the id.
    pub fn submit_tagged(&self, request: Request<'_>, request_id: u64) -> SubmitVerdict {
        match request {
            Request::Open(id) => {
                if !self.shared.admit() {
                    self.note_shed();
                    trace_session(Stage::Serve, "session_shed", TICK_UNSET, id.0);
                    return SubmitVerdict::Shedding;
                }
                if !self.shared.admission.is_shedding() {
                    // ordering: Relaxed — edge bookkeeping only; a stale
                    // read at worst delays the next shed dump by one open.
                    // echolint: allow(atomics-order) -- gates no data; the latch only dedups dump triggers
                    self.shed_latched.store(false, Ordering::Relaxed);
                }
                let verdict = self.enqueue(id, Cmd::Open { id: id.0, req: request_id });
                if verdict != SubmitVerdict::Enqueued {
                    // The slot reserved above was never used.
                    self.shared.release();
                }
                verdict
            }
            // The one copy of a borrowed chunk.
            Request::Push(id, chunk) => self.submit_push(id, chunk.to_vec(), request_id),
            Request::Finish(id) => self.enqueue(id, Cmd::Finish { id: id.0, req: request_id }),
        }
    }

    /// Submits a push whose chunk the caller owns, tagged like
    /// [`SessionManager::submit_tagged`]: the buffer moves into the shard
    /// queue as it is, so a caller that decoded it (the wire reader) pays
    /// no second copy. Never blocks; a rejected chunk is dropped.
    // echolint: entry
    pub fn submit_push(&self, id: SessionId, chunk: Vec<f64>, request_id: u64) -> SubmitVerdict {
        let Some(shard) = self.shards.get(self.shard_of(id)) else {
            return SubmitVerdict::Shedding;
        };
        // Reserve the seq *before* the send (mirroring the `depth`
        // accounting in `send`): a load-then-increment here would let two
        // concurrent submitters observe the same counter value and stamp
        // duplicate seqs, skewing the backlog `lag` the deadline policy
        // degrades on.
        // ordering: AcqRel — the reservation is both the publish (a later
        // submitter's reservation sees it) and the acquire edge the
        // worker's lag load pairs with.
        let seq = shard.pushes_enqueued.fetch_add(1, Ordering::AcqRel);
        let cmd = Cmd::Push { id: id.0, chunk, seq, req: request_id, timer: Stopwatch::start() };
        let verdict = self.enqueue(id, cmd);
        if verdict != SubmitVerdict::Enqueued {
            // The reservation was never enqueued; return it so the backlog
            // clock does not drift on rejected submissions.
            // ordering: AcqRel — pairs with the reservation above.
            shard.pushes_enqueued.fetch_sub(1, Ordering::AcqRel);
        }
        verdict
    }

    /// First shed after a clean period latches and triggers a flight dump;
    /// the latch clears once admission stops shedding, so a shed storm
    /// produces one postmortem, not thousands.
    fn note_shed(&self) {
        // ordering: AcqRel on success orders the trigger after the latch
        // edge; Acquire on failure just observes an already-set latch.
        if self
            .shed_latched
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.trigger_flight_dump(FlightReason::Shed);
        }
    }

    /// Asks every shard worker to dump its flight ring at its next drain
    /// (DESIGN.md §6.11). Used by the serve layer's own anomaly triggers,
    /// the wire front-end (malformed frames), and the obs plane.
    pub fn trigger_flight_dump(&self, reason: FlightReason) {
        self.shared.flight_ctl.trigger(reason);
    }

    /// [`Request::Open`] shorthand.
    pub fn open(&self, id: SessionId) -> SubmitVerdict {
        self.submit(Request::Open(id))
    }

    /// [`Request::Push`] shorthand.
    // echolint: entry
    pub fn push(&self, id: SessionId, chunk: &[f64]) -> SubmitVerdict {
        self.submit(Request::Push(id, chunk))
    }

    /// [`Request::Finish`] shorthand.
    pub fn finish(&self, id: SessionId) -> SubmitVerdict {
        self.submit(Request::Finish(id))
    }

    /// Removes the session from its shard and returns its encoded
    /// snapshot, for migration to another shard, process, or manager.
    /// Also exports a session currently *suspended* in the snapshot store.
    /// Returns `None` when the id is unknown (or the manager is shutting
    /// down). Blocks until the owning shard reaches the command in queue
    /// order, so the bytes reflect every previously enqueued push.
    pub fn export_session(&self, id: SessionId) -> Option<Vec<u8>> {
        let (reply, rx) = mpsc::sync_channel(1);
        if self.enqueue(id, Cmd::Export { id: id.0, reply }) != SubmitVerdict::Enqueued {
            return None;
        }
        rx.recv().ok().flatten()
    }

    /// Installs an exported session snapshot under `id` (on this manager's
    /// shard for the id — the engine configurations must match, which the
    /// snapshot's config fingerprint enforces). Admission-controlled like
    /// an open. Returns `false` when the id is already live or suspended
    /// in the snapshot store, admission sheds it, or the bytes fail to
    /// decode/restore. Blocks until the owning shard processes the
    /// command.
    pub fn import_session(&self, id: SessionId, bytes: Vec<u8>) -> bool {
        let (reply, rx) = mpsc::sync_channel(1);
        if self.enqueue(id, Cmd::Import { id: id.0, bytes, reply }) != SubmitVerdict::Enqueued {
            return false;
        }
        rx.recv().unwrap_or(false)
    }

    /// Sends a session's command to its shard; a full queue counts in `queue_full`.
    fn enqueue(&self, id: SessionId, cmd: Cmd) -> SubmitVerdict {
        let Some(shard) = self.shards.get(self.shard_of(id)) else {
            return SubmitVerdict::Shedding;
        };
        let verdict = self.send(shard, cmd, false);
        if matches!(verdict, SubmitVerdict::QueueFull { .. }) {
            self.shared.metrics.queue_full.inc();
            trace_session(Stage::Serve, "queue_full", TICK_UNSET, id.0);
        }
        verdict
    }

    /// Sends `cmd` to `shard`, counted in the shard's depth and the queue
    /// gauge until the worker takes it. A full queue rejects the command
    /// unless `block`, which only the quiesce barrier sets; a closed one
    /// (shutdown, or a worker that has exited) always does.
    fn send(&self, shard: &ShardHandle, cmd: Cmd, block: bool) -> SubmitVerdict {
        let Some(tx) = shard.tx.as_ref() else {
            return SubmitVerdict::Shedding;
        };
        // Count before sending so the worker can never observe a drain
        // below zero; undo on rejection.
        // ordering: AcqRel keeps the depth add/sub pairs totally ordered with
        // the worker's drain decrement, and the Acquire load below reports a
        // retry hint no older than this rejected send.
        shard.depth.fetch_add(1, Ordering::AcqRel);
        self.shared.metrics.queue_depth.inc();
        let sent = if block {
            tx.send(cmd).map_err(|err| TrySendError::Disconnected(err.0))
        } else {
            tx.try_send(cmd)
        };
        let Err(err) = sent else {
            return SubmitVerdict::Enqueued;
        };
        shard.untrack(&self.shared.metrics);
        match err {
            TrySendError::Full(_) => SubmitVerdict::QueueFull {
                retry_after_chunks: shard.depth.load(Ordering::Acquire).max(1),
            },
            TrySendError::Disconnected(_) => SubmitVerdict::Shedding,
        }
    }

    /// Sends every shard the command `cmd` wraps around a reply channel
    /// and collects the replies in shard order. A shard that refuses the
    /// command (see [`SessionManager::send`]) or drops the reply unread —
    /// its worker exited — is left out.
    fn fan_out<T>(&self, block: bool, cmd: impl Fn(SyncSender<T>) -> Cmd) -> Vec<T> {
        let replies: Vec<Receiver<T>> = self
            .shards
            .iter()
            .filter_map(|shard| {
                let (reply, rx) = mpsc::sync_channel(1);
                (self.send(shard, cmd(reply), block) == SubmitVerdict::Enqueued).then_some(rx)
            })
            .collect();
        replies.into_iter().filter_map(|rx| rx.recv().ok()).collect()
    }

    /// A point-in-time table of every session the manager knows: live
    /// sessions as their owning shards see them, plus sessions suspended
    /// in the snapshot store. Rows come back ordered by session id.
    /// Best-effort: a shard whose queue is full at scan time is skipped
    /// rather than blocked on, so the admin plane never adds backpressure.
    pub fn introspect(&self) -> Vec<SessionInfo> {
        let mut out: Vec<SessionInfo> =
            self.fan_out(false, |reply| Cmd::Introspect { reply }).into_iter().flatten().collect();
        if let Some(store) = self.shared.store.as_ref() {
            if let Ok(ids) = store.sessions() {
                for id in ids {
                    out.push(SessionInfo {
                        session: id,
                        shard: self.shard_of(SessionId(id)),
                        samples_in: 0,
                        backlog: 0,
                        suspended: true,
                        last_active_tick_us: 0,
                    });
                }
            }
        }
        // Live beats suspended when a session raced a thaw mid-scan.
        out.sort_by_key(|row| (row.session, row.suspended));
        out.dedup_by_key(|row| row.session);
        out
    }

    /// Merges every shard's flight-ring snapshot, optionally filtered to
    /// one session, ordered by logical tick. The rings are always on, so
    /// this works with tracing disabled and needs no restart.
    pub fn flight_snapshot(&self, session: Option<u64>) -> Vec<FlightEntry> {
        let mut out: Vec<FlightEntry> = self
            .fan_out(false, |reply| Cmd::FlightDump { session, reply })
            .into_iter()
            .flatten()
            .collect();
        out.sort_by_key(|e| e.event.tick_us);
        out
    }

    /// Blocks until every command enqueued before the call has been
    /// processed and its events are in the channel. Each shard gets a
    /// barrier command through a blocking send and answers it in queue
    /// order. A shard whose worker has exited can neither take nor answer
    /// the barrier, so it is not waited on.
    pub fn quiesce(&self) {
        self.fan_out(true, |reply| Cmd::Barrier { reply });
    }

    /// Drains every currently available output event into `out`, returning
    /// how many were appended. Never blocks. Returns 0 after
    /// [`SessionManager::detach_events`] (the stream owner gets them).
    pub fn try_events(&self, out: &mut Vec<ServeEvent>) -> usize {
        let guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let Some(rx) = guard.as_ref() else {
            return 0;
        };
        let before = out.len();
        while let Ok(ev) = rx.try_recv() {
            out.push(ev);
        }
        out.len() - before
    }

    /// Moves the event receiver out of the manager, for a dedicated
    /// dispatcher thread that wants *blocking* receives (e.g. the wire
    /// front-end's event router). After this, [`SessionManager::try_events`]
    /// always returns 0 and [`SessionManager::shutdown`] reports no
    /// residual events — the stream owner is responsible for the tail.
    /// Returns `None` if the stream was already detached.
    pub fn detach_events(&self) -> Option<EventStream> {
        let mut guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        guard.take().map(|rx| EventStream { rx })
    }

    /// The manager's metric registry.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// A shared handle to the metric registry, for a thread that records
    /// into it but must not keep the manager itself alive.
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Sessions currently live across all shards.
    pub fn live_sessions(&self) -> usize {
        self.shared.admission.live()
    }

    /// Whether the admission controller is currently shedding new opens.
    pub fn is_shedding(&self) -> bool {
        self.shared.admission.is_shedding()
    }

    /// Shard workers that have exited while the manager is up. A worker
    /// stops early only by panicking; its queue is then closed, so every
    /// later command for its sessions is shed.
    pub fn dead_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.join.as_ref().is_some_and(JoinHandle::is_finished)).count()
    }

    /// The configured backlog deadline, if any.
    pub fn deadline_chunks(&self) -> Option<u64> {
        self.shared.config.deadline_chunks
    }

    /// The snapshot store this manager was built over (see
    /// [`SessionManager::with_snapshot_store`]), e.g. to enumerate
    /// suspended sessions. `None` for a storeless manager.
    pub fn snapshot_store(&self) -> Option<&Arc<dyn SnapshotStore>> {
        self.shared.store.as_ref()
    }

    /// Drains the queues, stops every shard worker, and returns the final
    /// metrics snapshot together with every event still undrained in the
    /// channel. A worker sends a command's events before it takes the
    /// next command, so once [`SessionManager::quiesce`]'s barrier is
    /// answered every event of every earlier command is in the channel —
    /// draining here means a caller that never polled
    /// [`SessionManager::try_events`] still loses no `Segment`/`Finished`
    /// across shutdown.
    pub fn shutdown(self) -> ShutdownReport {
        self.quiesce();
        let metrics = Arc::clone(&self.shared.metrics);
        let rx = self.events.lock().unwrap_or_else(|e| e.into_inner()).take();
        // Dropping joins the workers, so events they emit while exiting
        // (none today, but the drain path reserves the right) and their
        // final metric updates are visible below.
        drop(self);
        let mut events = Vec::new();
        if let Some(rx) = rx {
            while let Ok(ev) = rx.try_recv() {
                events.push(ev);
            }
        }
        ShutdownReport { metrics: metrics.snapshot(), events }
    }

    /// Crash-recovery variant of [`SessionManager::shutdown`]: every
    /// session still live when the workers stop is suspended into the
    /// snapshot store (counted in `sessions_suspended`), so a fresh
    /// manager built over the same store with
    /// [`SessionManager::with_snapshot_store`] thaws them transparently on
    /// their next command and clients resume mid-word, bitwise. Without a
    /// store this is exactly [`SessionManager::shutdown`].
    pub fn shutdown_to_store(self) -> ShutdownReport {
        // ordering: Release pairs with the worker's Acquire load on exit;
        // the quiesce/join inside shutdown() sequences everything else.
        self.shared.drain_on_exit.store(true, Ordering::Release);
        self.shutdown()
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Closing the senders ends each worker's recv loop; then join.
        for shard in &mut self.shards {
            shard.tx = None;
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// A trace instant naming session `id`, formatted only while tracing is on.
fn trace_session(stage: Stage, name: &'static str, tick_us: u64, id: u64) {
    if echowrite_trace::enabled() {
        echowrite_trace::instant(stage, name, tick_us, SmallStr::from_display(id));
    }
}

/// Every way a session moves into or out of a shard. [`Transition::row`]
/// is the one table of what each one counts, records and traces, and
/// [`Worker::book`] the one place that applies it; sessions come in
/// through [`Worker::enter`] and go out through [`Worker::leave`].
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// An admitted `Open` for an id that is neither live nor suspended.
    Open,
    /// An `Open` for a live id: a client retrying an `Open` whose ack it
    /// lost. The session is kept.
    Reopen,
    /// A suspended session thawed by its next `Open`/`Push`/`Finish`.
    Resume,
    /// A snapshot installed by [`SessionManager::import_session`].
    Import,
    /// An explicit `Finish`.
    Finish,
    /// The reaper dropped the session, or could not store it.
    Reap,
    /// The reaper or the shutdown drain stored the session.
    Suspend,
    /// [`SessionManager::export_session`] handed the session over.
    Export,
}

/// What a transition writes into the flight ring: an entry carrying the
/// command's request id, an entry with request id 0, or nothing.
#[derive(Debug, Clone, Copy)]
enum Flight {
    Tagged,
    Untagged,
    Skip,
}

impl Transition {
    /// The transition table. Per transition: the counter it bumps, its
    /// flight-ring and trace label, its trace lane, whether it counts
    /// toward the reap-churn flight trigger, and its flight entry.
    fn row(self, m: &ServeMetrics) -> (&Counter, &'static str, Stage, bool, Flight) {
        use Flight::{Skip, Tagged, Untagged};
        use Stage::{Serve, Snapshot};
        match self {
            Self::Open => (&m.sessions_opened, "session_open", Serve, false, Tagged),
            Self::Reopen => (&m.sessions_reopened, "session_reopen", Serve, false, Tagged),
            Self::Resume => (&m.sessions_resumed, "session_resume", Snapshot, true, Untagged),
            Self::Import => (&m.sessions_resumed, "session_import", Snapshot, false, Untagged),
            Self::Finish => (&m.sessions_finished, "session_finish", Serve, false, Tagged),
            Self::Reap => (&m.sessions_reaped, "session_reaped", Serve, true, Untagged),
            Self::Suspend => (&m.sessions_suspended, "session_suspend", Snapshot, true, Untagged),
            Self::Export => (&m.sessions_suspended, "session_export", Snapshot, false, Skip),
        }
    }
}

/// One live session owned by a shard.
struct Slot {
    session: StreamingSession,
    /// Shard logical-clock stamp (samples processed) of the last command.
    last_active: u64,
    /// Samples pushed since this slot went live (open, thaw, or import).
    samples_in: u64,
}

/// A shard worker: the shard's own state next to the two handles it
/// shares; `run` consumes it on its own thread.
struct Worker {
    shared: Arc<Shared>,
    queue: Arc<ShardQueue>,
    rx: Receiver<Cmd>,
    /// The drained batch's commands not yet taken, in queue order; they
    /// still count in the shard's `depth`.
    batch: VecDeque<Cmd>,
    /// The id of the `Open` being handled. The admission slot `submit`
    /// reserved for it is this worker's until the session enters
    /// `sessions` (or a re-open hands it back).
    opening: Option<u64>,
    /// This worker's shard number, for artifact names and introspection.
    shard_index: usize,
    /// Live sessions pinned to this shard (ordered map: deterministic
    /// iteration for the reaper).
    sessions: BTreeMap<u64, Slot>,
    /// Ids whose stored snapshot failed to restore under this engine. The
    /// bytes stay in the store, but thaw does not retry them until this
    /// shard itself writes or takes that id's bytes (suspend, export).
    unrestorable: BTreeSet<u64>,
    /// Finished/reaped session state kept for reuse — the arena that makes
    /// open/close cheap (a reset touches counters, not allocations).
    pool: Vec<StreamingSession>,
    /// Per-shard scratch for segment events.
    scratch: Vec<SegmentEvent>,
    /// Shard-shared DSP workspace: every push of a batch runs its STFT
    /// frames through this one arena, keeping the packed-FFT buffer hot
    /// across sessions.
    dsp_scratch: SharedDspScratch,
    /// Logical clock: total samples this shard has processed.
    clock_samples: u64,
    /// Commands processed, quiesce barriers aside (the reaper's cadence).
    commands_done: u64,
    /// Always-on flight recorder: a bounded ring of recent events owned
    /// outright by this worker — recording is a plain array store, no
    /// atomics, no locks, independent of the global trace gate.
    flight: FlightRing,
    /// Last trigger epoch this worker acted on.
    flight_seen: u64,
    /// Per-worker dump ordinal, for unique artifact names.
    flight_artifacts: u64,
    /// Reap/suspend/thaw events since the last reaper scan.
    churn_window: u64,
    /// Previous push's degraded flag, so the deadline trigger fires on the
    /// rising edge instead of once per degraded push.
    was_degraded: bool,
}

impl Worker {
    /// Trace timestamp: the shard's logical sample clock, in audio-time µs.
    fn tick_us(&self) -> u64 {
        let sample_rate = self.shared.engine.config().stft.sample_rate;
        echowrite_trace::samples_to_us(self.clock_samples, sample_rate)
    }

    // echolint: entry
    fn run(mut self) {
        // Batched drain: block for the first command, then greedily pull up
        // to `batch_max − 1` more that are already queued. Commands execute
        // strictly in queue order with per-command accounting, so batching
        // changes cache behaviour (one shared DSP scratch pass over N
        // sessions' pushes) but never the output or the quiesce contract.
        let batch_max = self.shared.config.batch_max;
        while let Ok(first) = self.rx.recv() {
            self.batch.push_back(first);
            while self.batch.len() < batch_max {
                match self.rx.try_recv() {
                    Ok(cmd) => self.batch.push_back(cmd),
                    Err(_) => break,
                }
            }
            self.shared.metrics.batch_drains.inc();
            while let Some(cmd) = self.batch.pop_front() {
                self.queue.untrack(&self.shared.metrics);
                match cmd {
                    Cmd::Open { id, req } => {
                        self.opening = Some(id);
                        self.handle_open(id, req);
                        self.opening = None;
                    }
                    Cmd::Push { id, chunk, seq, req, timer } => {
                        self.handle_push(id, &chunk, seq, req, timer);
                    }
                    Cmd::Finish { id, req } => self.handle_finish(id, req),
                    Cmd::Export { id, reply } => self.handle_export(id, &reply),
                    Cmd::Import { id, bytes, reply } => self.handle_import(id, &bytes, &reply),
                    Cmd::Introspect { reply } => self.handle_introspect(&reply),
                    Cmd::FlightDump { session, reply } => {
                        self.handle_flight_dump(session, &reply);
                    }
                    // Every command ahead of the barrier has run. The
                    // barrier does not count toward the reaper's cadence,
                    // so quiescing never changes when the reaper runs.
                    Cmd::Barrier { reply } => {
                        let _ = reply.send(());
                        continue;
                    }
                }
                self.commands_done += 1;
                if self.commands_done.is_multiple_of(REAP_SCAN_EVERY) {
                    self.reap_idle();
                }
            }
            self.check_flight();
        }
        // Crash-recovery drain: the queue closed with the drain flag set,
        // so suspend every remaining live session into the store — a fresh
        // manager over the same store thaws them on their next command.
        // ordering: Acquire pairs with shutdown_to_store's Release store.
        if self.shared.drain_on_exit.load(Ordering::Acquire) && self.shared.store.is_some() {
            let ids: Vec<u64> = self.sessions.keys().copied().collect();
            for id in ids {
                self.evict(id, true);
            }
        }
        // Final postmortem: shutdown always leaves a flight artifact when
        // a dump directory is configured.
        self.dump_flight(FlightReason::Shutdown);
    }

    /// Records one event into the always-on flight ring. Runs regardless
    /// of the global trace gate — the ring is the postmortem of last
    /// resort, and a single array store fits the 5 % per-push budget.
    fn record_flight(
        &mut self,
        session: u64,
        req: u64,
        name: &'static str,
        kind: EventKind,
        wall_us: u64,
        value: f64,
    ) {
        let event = TraceEvent {
            stage: Stage::Serve,
            name,
            kind,
            tick_us: self.tick_us(),
            wall_us,
            value,
            detail: SmallStr::empty(),
        };
        self.flight.record(session, req, event);
    }

    /// Polls the manager-side trigger; dumps when the epoch moved.
    fn check_flight(&mut self) {
        let (epoch, reason) = self.shared.flight_ctl.read();
        if epoch != self.flight_seen {
            self.flight_seen = epoch;
            self.dump_flight(reason);
        }
    }

    /// Writes the ring as a Chrome-trace artifact
    /// `flight-<uptime_ms>ms-<reason>-shard<k>-<n>.json` into the
    /// configured directory. The name uses the metrics registry's
    /// quarantined uptime clock — no new wall-clock read — plus a
    /// per-worker ordinal for uniqueness. No directory, no artifact (the
    /// ring still serves live snapshots through
    /// [`SessionManager::flight_snapshot`]).
    fn dump_flight(&mut self, reason: FlightReason) {
        let Some(dir) = self.shared.config.flight.artifact_dir.as_ref() else {
            return;
        };
        let uptime_ms = (self.shared.metrics.uptime_seconds() * 1_000.0) as u64;
        let name = format!(
            "flight-{uptime_ms}ms-{}-shard{}-{}.json",
            reason.as_str(),
            self.shard_index,
            self.flight_artifacts
        );
        self.flight_artifacts += 1;
        let json = flight_to_chrome_json(&self.flight.snapshot());
        if std::fs::create_dir_all(dir).is_ok() && std::fs::write(dir.join(name), json).is_ok() {
            self.shared.metrics.flight_dumps.inc();
        }
    }

    /// [`Cmd::Introspect`]: the live-session table as this shard sees it.
    fn handle_introspect(&self, reply: &SyncSender<Vec<SessionInfo>>) {
        // ordering: Relaxed — a monitoring snapshot; nothing branches on it.
        let backlog = self.queue.depth.load(Ordering::Relaxed);
        let sample_rate = self.shared.engine.config().stft.sample_rate;
        let rows = self
            .sessions
            .iter()
            .map(|(&id, slot)| SessionInfo {
                session: id,
                shard: self.shard_index,
                samples_in: slot.samples_in,
                backlog,
                suspended: false,
                last_active_tick_us: echowrite_trace::samples_to_us(slot.last_active, sample_rate),
            })
            .collect();
        let _ = reply.send(rows);
    }

    /// [`Cmd::FlightDump`]: a copy of the ring, optionally one session's.
    fn handle_flight_dump(&self, session: Option<u64>, reply: &SyncSender<Vec<FlightEntry>>) {
        let mut entries = self.flight.snapshot();
        if let Some(id) = session {
            entries.retain(|e| e.session == id);
        }
        let _ = reply.send(entries);
    }

    /// Books a transition as its [`Transition::row`] says: the counter,
    /// the churn window, the flight entry and the trace instant.
    fn book(&mut self, how: Transition, id: u64, req: u64) {
        let (counter, label, stage, churn, flight) = how.row(&self.shared.metrics);
        counter.inc();
        self.churn_window += u64::from(churn);
        match flight {
            Flight::Tagged => self.record_flight(id, req, label, EventKind::Instant, 0, 0.0),
            Flight::Untagged => self.record_flight(id, 0, label, EventKind::Instant, 0, 0.0),
            Flight::Skip => {}
        }
        trace_session(stage, label, self.tick_us(), id);
    }

    /// Installs `session` as `id`'s live slot and books how it came in.
    /// Its admission slot was reserved before: by `submit`, thaw or
    /// import.
    fn enter(&mut self, how: Transition, id: u64, req: u64, session: StreamingSession) {
        self.sessions.insert(id, Slot { session, last_active: self.clock_samples, samples_in: 0 });
        self.book(how, id, req);
    }

    /// Pools a session that has left the shard, hands its admission slot
    /// back and books how it left.
    fn leave(&mut self, how: Transition, id: u64, req: u64, session: StreamingSession) {
        self.pool.push(session);
        self.shared.release();
        self.book(how, id, req);
    }

    /// Tries to resurrect a suspended session from the snapshot store.
    ///
    /// `admit` is true on the `Push`/`Finish` path, where no admission slot
    /// is reserved yet; the `Open` path passes false because
    /// [`SessionManager::submit`] already admitted the id. Returns whether
    /// the session is now live. On a decode/restore failure the bytes go
    /// back into the store untouched (a manager restarted under the engine
    /// that wrote them can still resume the session), the failure is
    /// counted in `thaw_failures`, the id is remembered as unrestorable so
    /// later commands do not retry it, and the caller falls through to its
    /// unknown-id behaviour.
    fn thaw(&mut self, id: u64, req: u64, admit: bool) -> bool {
        if self.unrestorable.contains(&id) {
            return false;
        }
        let Some(bytes) = self.take_stored(id) else {
            return false;
        };
        if admit && !self.shared.admit() {
            // Shed exactly like an over-water open; park the bytes back so
            // the session can still thaw once the population drains.
            self.park(id, bytes);
            return false;
        }
        if self.restore(Transition::Resume, id, req, &bytes) {
            return true;
        }
        if admit {
            self.shared.release();
        }
        self.shared.metrics.thaw_failures.inc();
        self.unrestorable.insert(id);
        self.park(id, bytes);
        false
    }

    /// Restores `bytes` into a pooled session and enters it as `id`;
    /// returns whether the restore succeeded. A session that did not
    /// restore goes back to the pool.
    fn restore(&mut self, how: Transition, id: u64, req: u64, bytes: &[u8]) -> bool {
        let mut session = self.pooled_session();
        if restore_in_place(&mut session, bytes, &self.shared.engine).is_err() {
            self.pool.push(session);
            return false;
        }
        self.enter(how, id, req, session);
        true
    }

    /// A fresh session: a pooled one reset here — the only reset a pooled
    /// session gets — or a new one.
    fn pooled_session(&mut self) -> StreamingSession {
        match self.pool.pop() {
            Some(mut s) => {
                s.reset(&self.shared.engine);
                s
            }
            None => StreamingSession::new(&self.shared.engine),
        }
    }

    /// Takes `id`'s snapshot out of the store. A failed read counts in
    /// `thaw_failures` and reads as no snapshot; the id is not marked
    /// unrestorable, since a read error says nothing about the bytes.
    fn take_stored(&self, id: u64) -> Option<Vec<u8>> {
        let taken = self.shared.store.as_ref()?.remove(id);
        if taken.is_err() {
            self.shared.metrics.thaw_failures.inc();
        }
        taken.ok().flatten()
    }

    /// Puts snapshot bytes the thaw path took out of the store back under
    /// their id. A failed write loses them; that is counted in
    /// `thaw_failures` rather than dropped silently.
    fn park(&self, id: u64, bytes: Vec<u8>) {
        if self.shared.store.as_ref().is_none_or(|store| store.put(id, bytes).is_err()) {
            self.shared.metrics.thaw_failures.inc();
        }
    }

    /// Takes an idle session out of the shard (the reaper, and the
    /// shutdown drain). With `suspend` its snapshot goes into the store;
    /// without, or when the store write fails, the session is gone,
    /// exactly as under [`ReapPolicy::Drop`], and the `Reaped` event says
    /// so.
    fn evict(&mut self, id: u64, suspend: bool) {
        let Some(slot) = self.sessions.remove(&id) else {
            return;
        };
        if suspend {
            let bytes = snapshot_session(&slot.session, &self.shared.engine);
            self.unrestorable.remove(&id);
            if self.shared.store.as_ref().is_some_and(|store| store.put(id, bytes).is_ok()) {
                self.leave(Transition::Suspend, id, 0, slot.session);
                return;
            }
        }
        let _ = self.shared.events.send(ServeEvent::Reaped { session: SessionId(id) });
        self.leave(Transition::Reap, id, 0, slot.session);
    }

    /// [`Cmd::Export`]: hand the session's snapshot to the caller and
    /// forget it — live sessions are serialized and released, suspended
    /// ones are pulled straight out of the store.
    fn handle_export(&mut self, id: u64, reply: &SyncSender<Option<Vec<u8>>>) {
        let out = if let Some(slot) = self.sessions.remove(&id) {
            let bytes = snapshot_session(&slot.session, &self.shared.engine);
            self.leave(Transition::Export, id, 0, slot.session);
            Some(bytes)
        } else if let Some(bytes) = self.take_stored(id) {
            // Already suspended: its live-count bookkeeping happened at
            // suspend time, so the bytes just change owners.
            self.unrestorable.remove(&id);
            Some(bytes)
        } else {
            self.shared.metrics.orphan_commands.inc();
            None
        };
        let _ = reply.send(out);
    }

    /// [`Cmd::Import`]: install an exported snapshot as a live session,
    /// admission-controlled like an open. An id that is live, or that the
    /// store holds suspended (or cannot say it does not), is a collision
    /// and is refused: importing over a stored snapshot would leave that
    /// stale snapshot to thaw on the id's next `Open`.
    fn handle_import(&mut self, id: u64, bytes: &[u8], reply: &SyncSender<bool>) {
        let stored = (self.shared.store.as_ref())
            .is_some_and(|store| !matches!(store.contains(id), Ok(false)));
        if self.sessions.contains_key(&id) || stored || !self.shared.admit() {
            let _ = reply.send(false);
            return;
        }
        let imported = self.restore(Transition::Import, id, 0, bytes);
        if !imported {
            self.shared.release();
        }
        let _ = reply.send(imported);
    }

    fn handle_open(&mut self, id: u64, req: u64) {
        if let Some(slot) = self.sessions.get_mut(&id) {
            // Re-open of a live id is idempotent: a wire client retrying an
            // `Open` whose ack was lost must not destroy its own in-flight
            // state (the old `reset()` here wiped the session). Touch the
            // idle clock, keep every buffer, and return the duplicate
            // admission slot reserved by submit().
            slot.last_active = self.clock_samples;
            self.shared.release();
            self.book(Transition::Reopen, id, req);
            return;
        }
        // A suspended session thaws on re-open instead of starting over;
        // submit() already reserved this open's admission slot.
        if !self.thaw(id, req, false) {
            let session = self.pooled_session();
            self.enter(Transition::Open, id, req, session);
        }
    }

    fn handle_push(&mut self, id: u64, chunk: &[f64], seq: u64, req: u64, timer: Stopwatch) {
        #[cfg(test)]
        self.queue.seq_log.lock().unwrap_or_else(|e| e.into_inner()).push(seq);
        // A push racing the reaper: under SuspendToStore the session was
        // parked, not destroyed — thaw it and the push lands as if the
        // reap never happened.
        if !self.sessions.contains_key(&id) && !self.thaw(id, req, true) {
            self.shared.metrics.orphan_commands.inc();
            return;
        }
        let Some(slot) = self.sessions.get_mut(&id) else {
            return;
        };
        // Backlog lag: pushes enqueued to this shard after this one was.
        // ordering: Acquire pairs with the manager's AcqRel enqueue counter,
        // so lag counts every push enqueued before this command was sent.
        let enqueued = self.queue.pushes_enqueued.load(Ordering::Acquire);
        let lag = enqueued.saturating_sub(seq.saturating_add(1));
        let degraded = self.shared.config.deadline_chunks.is_some_and(|d| lag > d);
        self.scratch.clear();
        slot.session.push_events_shared(
            &self.shared.engine,
            chunk,
            !degraded,
            &mut self.dsp_scratch,
            &mut self.scratch,
        );
        self.clock_samples += chunk.len() as u64;
        slot.last_active = self.clock_samples;
        slot.samples_in += chunk.len() as u64;
        self.shared.metrics.pushes.inc();
        if degraded {
            self.shared.metrics.pushes_degraded.inc();
        }
        self.shared.metrics.events.add(self.scratch.len() as u64);
        let emitted = self.scratch.len();
        for segment in self.scratch.drain(..) {
            let _ =
                self.shared.events.send(ServeEvent::Segment { session: SessionId(id), segment });
        }
        let wall_us = (timer.elapsed_ms() * 1_000.0) as u64;
        self.shared.metrics.push_latency_us.observe(wall_us);
        let span_name = if degraded { "push_degraded" } else { "push" };
        self.record_flight(id, req, span_name, EventKind::Span, wall_us, emitted as f64);
        if degraded && !self.was_degraded {
            // Rising edge of deadline degradation: dump the recent context
            // that led into the backlog, once per degradation episode.
            self.dump_flight(FlightReason::DeadlineDegradation);
        }
        self.was_degraded = degraded;
        if echowrite_trace::enabled() {
            // Span over the push's whole queue+process latency, tagged with
            // the wire correlation id so it stitches against the client
            // trace; the lag counter exposes the backlog behind degraded
            // decisions.
            echowrite_trace::span_detailed(
                Stage::Serve,
                span_name,
                self.tick_us(),
                wall_us,
                emitted as f64,
                if req == 0 {
                    SmallStr::empty()
                } else {
                    SmallStr::from_display(format_args!("req {req}"))
                },
            );
            echowrite_trace::counter(Stage::Serve, "backlog_chunks", self.tick_us(), lag as f64);
        }
    }

    fn handle_finish(&mut self, id: u64, req: u64) {
        // Like the push path: a finish for a suspended session thaws it
        // first so the tail segments flush instead of being orphaned.
        if !self.sessions.contains_key(&id) && !self.thaw(id, req, true) {
            self.shared.metrics.orphan_commands.inc();
            return;
        }
        let Some(mut slot) = self.sessions.remove(&id) else {
            return;
        };
        self.scratch.clear();
        slot.session.finish_events(&self.shared.engine, true, &mut self.scratch);
        self.shared.metrics.events.add(self.scratch.len() as u64);
        for segment in self.scratch.drain(..) {
            let _ =
                self.shared.events.send(ServeEvent::Segment { session: SessionId(id), segment });
        }
        let _ = self.shared.events.send(ServeEvent::Finished { session: SessionId(id) });
        self.leave(Transition::Finish, id, req, slot.session);
    }

    /// Reclaims sessions whose last command is older than the idle
    /// timeout on this shard's sample clock.
    fn reap_idle(&mut self) {
        let Some(timeout) = self.shared.config.idle_timeout_samples else {
            return;
        };
        let clock = self.clock_samples;
        let stale: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, slot)| clock.saturating_sub(slot.last_active) > timeout)
            .map(|(&id, _)| id)
            .collect();
        let suspend = self.shared.config.reap_policy == ReapPolicy::SuspendToStore;
        for id in stale {
            self.evict(id, suspend);
        }
        let churn_threshold = self.shared.config.flight.churn_threshold;
        if churn_threshold > 0 && self.churn_window >= churn_threshold {
            // Reap/thaw churn: sessions are thrashing in and out of the
            // store faster than the threshold allows — dump the context.
            self.dump_flight(FlightReason::ReapChurn);
        }
        self.churn_window = 0;
    }
}

/// A worker that panics leaves what it never ran: the rest of its batch,
/// the commands still queued, the `Open` it may have been running, and
/// its live sessions. Unwinding through here takes each of those
/// commands off `depth` and the queue gauge, hands back the admission
/// slot each of those opens reserved, and releases one slot per live
/// session, so a dead shard shows no backlog that will never drain and no
/// sessions that will never finish. A normal exit (shutdown, with or
/// without the store drain) has run every command and leaves its live
/// sessions counted; nothing happens then. A command a racing submitter
/// lands after the last `try_recv` here is dropped with the receiver and
/// stays counted.
impl Drop for Worker {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let (queue, shared) = (&self.queue, &self.shared);
        for cmd in self.batch.drain(..).chain(self.rx.try_iter()) {
            queue.untrack(&shared.metrics);
            if matches!(cmd, Cmd::Open { .. }) {
                shared.release();
            }
        }
        let opening = self.opening.filter(|id| !self.sessions.contains_key(id));
        for _ in 0..self.sessions.len() + usize::from(opening.is_some()) {
            shared.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite::{EchoWriteConfig, Parallelism};

    fn manager(cfg: ServeConfig) -> SessionManager {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        SessionManager::new(engine, cfg).expect("valid test config")
    }

    #[test]
    fn rejects_invalid_config() {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let bad = ServeConfig { shards: Parallelism::Threads(0), ..ServeConfig::default() };
        assert!(SessionManager::new(engine, bad).is_err());
    }

    #[test]
    fn open_push_finish_round_trip() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(2),
            ..ServeConfig::default()
        });
        let id = SessionId(42);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, &vec![0.0; 44_100]), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert!(
            matches!(events.last(), Some(ServeEvent::Finished { session }) if *session == id),
            "expected Finished, got {events:?}"
        );
        let snap = m.shutdown().metrics;
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_finished, 1);
        assert_eq!(snap.sessions_live, 0);
        assert_eq!(snap.pushes, 1);
        assert_eq!(snap.push_latency_count, 1);
    }

    #[test]
    fn admission_sheds_past_high_water() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            max_sessions: 4,
            high_water: 2,
            ..ServeConfig::default()
        });
        assert_eq!(m.open(SessionId(1)), SubmitVerdict::Enqueued);
        assert_eq!(m.open(SessionId(2)), SubmitVerdict::Enqueued);
        assert_eq!(m.open(SessionId(3)), SubmitVerdict::Shedding);
        assert!(m.is_shedding());
        m.quiesce();
        assert_eq!(m.finish(SessionId(1)), SubmitVerdict::Enqueued);
        m.quiesce();
        // Hysteresis: low water for high_water=2 is 1, and 1 ≤ 1 clears it.
        assert_eq!(m.open(SessionId(3)), SubmitVerdict::Enqueued);
        assert_eq!(m.metrics().sessions_shed.get(), 1);
    }

    #[test]
    fn full_queue_returns_queue_full_not_block() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let id = SessionId(5);
        let _ = m.open(id);
        // Saturate the queue with a burst; at least one verdict must be
        // QueueFull (the worker cannot drain a 0.5 s chunk instantly).
        let chunk = vec![0.0; 22_050];
        let mut saw_full = false;
        for _ in 0..64 {
            match m.push(id, &chunk) {
                SubmitVerdict::QueueFull { retry_after_chunks } => {
                    assert!(retry_after_chunks >= 1);
                    saw_full = true;
                    break;
                }
                SubmitVerdict::Enqueued => {}
                SubmitVerdict::Shedding => panic!("push must not shed"),
            }
        }
        assert!(saw_full, "a capacity-2 queue must report QueueFull under a burst");
        assert!(m.metrics().queue_full.get() >= 1);
        m.quiesce();
    }

    #[test]
    fn orphan_commands_are_counted_not_fatal() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let _ = m.push(SessionId(99), &[0.0; 1024]);
        let _ = m.finish(SessionId(99));
        m.quiesce();
        assert_eq!(m.metrics().orphan_commands.get(), 2);
    }

    #[test]
    fn idle_reaper_reclaims_abandoned_sessions() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            idle_timeout_samples: Some(10_000),
            ..ServeConfig::default()
        });
        let idle = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(idle);
        let _ = m.open(busy);
        let _ = m.push(idle, &[0.0; 1024]);
        // Push enough traffic through `busy` to trip a reap scan and age
        // `idle` past the timeout on the shard's sample clock.
        for _ in 0..(REAP_SCAN_EVERY + 8) {
            let _ = m.push(busy, &[0.0; 1024]);
            m.quiesce();
        }
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ServeEvent::Reaped { session } if *session == idle)),
            "idle session must be reaped; events: {events:?}"
        );
        assert_eq!(m.metrics().sessions_reaped.get(), 1);
        assert_eq!(m.live_sessions(), 1, "busy session must survive");
    }

    #[test]
    fn reopen_of_live_id_is_idempotent() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let id = SessionId(8);
        let _ = m.open(id);
        let _ = m.push(id, &[0.0; 4096]);
        let _ = m.open(id); // duplicate open: a retry, not a restart
        m.quiesce();
        assert_eq!(m.live_sessions(), 1, "re-open must not leak an admission slot");
        assert_eq!(m.metrics().sessions_reopened.get(), 1);
        assert_eq!(m.metrics().sessions_opened.get(), 1, "a re-open is not a fresh open");
        let _ = m.finish(id);
        m.quiesce();
        assert_eq!(m.live_sessions(), 0);
    }

    /// Satellite regression (duplicate-`Open` semantics): a client that
    /// retries an `Open` after losing the ack must keep its in-flight
    /// recognition state — the transcript after `push → re-open → push →
    /// finish` must equal one continuous session's, bitwise.
    #[test]
    fn reopen_after_lost_ack_keeps_inflight_state() {
        use echowrite::StreamingRecognizer;
        // A deterministic non-silent signal long enough to freeze the
        // background and segment at least the session lead-in state.
        let audio: Vec<f64> = (0..6 * 4096)
            .map(|i| (f64::from(i as u32) * 0.013).sin() * 0.02)
            .collect();
        let (a, b) = audio.split_at(audio.len() / 2);

        // Oracle: one continuous recognizer over both halves.
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let mut rec = StreamingRecognizer::new(&engine);
        let mut oracle: Vec<(usize, usize)> = Vec::new();
        for ev in rec.push(a) {
            oracle.push((ev.start_frame, ev.end_frame));
        }
        for ev in rec.push(b) {
            oracle.push((ev.start_frame, ev.end_frame));
        }
        for ev in rec.finish() {
            oracle.push((ev.start_frame, ev.end_frame));
        }

        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let id = SessionId(3);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, a), SubmitVerdict::Enqueued);
        // The ack was "lost": the client re-opens, then resumes pushing.
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        let got: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Segment { segment, .. } => {
                    Some((segment.start_frame, segment.end_frame))
                }
                _ => None,
            })
            .collect();
        assert_eq!(got, oracle, "re-open wiped in-flight session state");
        assert_eq!(m.metrics().sessions_reopened.get(), 1);
    }

    /// Satellite regression (push `seq` race): submitters racing on one
    /// shard must never stamp two pushes with the same sequence number —
    /// a load-then-increment let both read the counter before either
    /// published, skewing the backlog lag the deadline policy degrades on.
    #[test]
    fn concurrent_pushes_reserve_unique_seqs_per_shard() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 64;
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            // Deep enough that no push is rejected: the undo path is not
            // under test here, uniqueness of accepted reservations is.
            queue_capacity: THREADS * PER_THREAD + 8,
            ..ServeConfig::default()
        });
        let id = SessionId(1);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        m.quiesce();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        assert_eq!(m.push(id, &[0.0; 16]), SubmitVerdict::Enqueued);
                    }
                });
            }
        });
        m.quiesce();
        let mut seqs: Vec<u64> =
            m.shards[0].seq_log.lock().unwrap_or_else(|e| e.into_inner()).clone();
        seqs.sort_unstable();
        let want: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(seqs, want, "duplicate or skipped push seqs on the shard");
    }

    /// Satellite regression (lossless shutdown): a caller that finishes a
    /// session and never polls `try_events` must still receive every
    /// `Segment` and `Finished` event from `shutdown()`.
    #[test]
    fn shutdown_returns_undrained_events() {
        let audio: Vec<f64> = (0..6 * 4096)
            .map(|i| (f64::from(i as u32) * 0.013).sin() * 0.02)
            .collect();
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(2),
            ..ServeConfig::default()
        });
        let id = SessionId(11);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, &audio), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        // Deliberately no try_events: everything must survive shutdown.
        let report = m.shutdown();
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, ServeEvent::Finished { session } if *session == id)),
            "Finished event lost across shutdown: {:?}",
            report.events
        );
        let emitted = report
            .events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Segment { .. }))
            .count() as u64;
        assert_eq!(
            emitted, report.metrics.events,
            "every counted segment event must be returned by shutdown"
        );
    }

    /// `detach_events` hands the tail to the stream owner: `try_events`
    /// goes quiet, the blocking stream sees every event, and it
    /// disconnects (returns `None`) once the manager is gone.
    #[test]
    fn detached_event_stream_outlives_the_manager() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let stream = m.detach_events().expect("first detach succeeds");
        assert!(m.detach_events().is_none(), "second detach must fail");
        let id = SessionId(2);
        let _ = m.open(id);
        let _ = m.push(id, &[0.0; 4096]);
        let _ = m.finish(id);
        m.quiesce();
        let mut drained = Vec::new();
        assert_eq!(m.try_events(&mut drained), 0, "detached manager yields no events");
        let report = m.shutdown();
        assert!(report.events.is_empty(), "detached manager reports no residual events");
        // The stream still delivers the whole tail, then disconnects.
        let mut finished = false;
        while let Some(ev) = stream.recv() {
            if matches!(ev, ServeEvent::Finished { session } if session == id) {
                finished = true;
            }
        }
        assert!(finished, "detached stream must deliver the Finished event");
    }

    // ---- suspend/resume (echowrite-snapshot integration) ----

    use echowrite::StreamingRecognizer;
    use echowrite_gesture::{Stroke, Writer, WriterParams};
    use echowrite_snapshot::MemoryStore;
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};

    /// A transcript row, DTW score bits included.
    type Row = (usize, usize, Stroke, [f64; 6], [f64; 6]);

    /// The cheap down-converted engine the wire tests also serve with.
    fn snap_engine() -> EchoWrite {
        EchoWrite::with_config(echowrite::EchoWriteConfig::streaming_downsampled(32))
    }

    fn render(strokes: &[Stroke], seed: u64, tail: f64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
        let mut traj = perf.trajectory;
        if tail > 0.0 {
            let last = *traj.points().last().expect("non-empty trajectory");
            traj.hold(last, tail);
        }
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed).render(&traj)
    }

    /// Oracle: one uninterrupted recognizer over `parts` in order.
    fn oracle_rows(engine: &EchoWrite, parts: &[&[f64]]) -> Vec<Row> {
        let mut rec = StreamingRecognizer::new(engine);
        let mut rows = Vec::new();
        for part in parts {
            for ev in rec.push(part) {
                rows.push((
                    ev.start_frame,
                    ev.end_frame,
                    ev.classification.stroke,
                    ev.classification.distances,
                    ev.classification.scores,
                ));
            }
        }
        for ev in rec.finish() {
            rows.push((
                ev.start_frame,
                ev.end_frame,
                ev.classification.stroke,
                ev.classification.distances,
                ev.classification.scores,
            ));
        }
        rows
    }

    fn rows_of(events: &[ServeEvent], id: SessionId) -> Vec<Row> {
        events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Segment { session, segment } if *session == id => {
                    let c = segment.classification.as_ref().expect("classified segment");
                    Some((segment.start_frame, segment.end_frame, c.stroke, c.distances, c.scores))
                }
                _ => None,
            })
            .collect()
    }

    /// Ages `idle` past the reap timeout by pushing silence through `busy`
    /// on the same (single) shard until the reaper has scanned.
    fn age_past_reap(m: &SessionManager, busy: SessionId) {
        for _ in 0..(REAP_SCAN_EVERY + 8) {
            assert_eq!(m.push(busy, &[0.0; 1024]), SubmitVerdict::Enqueued);
            m.quiesce();
        }
    }

    /// Satellite regression (reaper/late-push race, `Drop` policy): a push
    /// that loses the race against the reaper lands on a dead id and must
    /// be counted as an orphan, not crash or resurrect state.
    #[test]
    fn drop_policy_counts_late_push_as_orphan() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            idle_timeout_samples: Some(10_000),
            ..ServeConfig::default()
        });
        let idle = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(idle);
        let _ = m.open(busy);
        let _ = m.push(idle, &[0.0; 1024]);
        age_past_reap(&m, busy);
        assert_eq!(m.metrics().sessions_reaped.get(), 1);
        // The late push arrives after the reap: orphaned under Drop.
        let _ = m.push(idle, &[0.0; 1024]);
        m.quiesce();
        assert_eq!(m.metrics().orphan_commands.get(), 1);
        assert_eq!(m.metrics().sessions_resumed.get(), 0);
    }

    /// Tentpole: under `SuspendToStore` the same race thaws the session
    /// instead — zero orphans, and the resumed transcript is bitwise
    /// identical (frames, stroke, DTW distance and score bits) to a
    /// session that was never suspended.
    #[test]
    fn suspend_policy_thaws_late_push_bitwise() {
        let engine = snap_engine();
        let audio = render(&[Stroke::S2, Stroke::S5], 11, 1.2);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&engine, &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let store = Arc::new(MemoryStore::new());
        let m = SessionManager::with_snapshot_store(
            engine,
            ServeConfig {
                shards: Parallelism::Threads(1),
                idle_timeout_samples: Some(10_000),
                reap_policy: ReapPolicy::SuspendToStore,
                ..ServeConfig::default()
            },
            store.clone(),
        )
        .expect("valid suspend config");
        let id = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(id);
        let _ = m.open(busy);
        assert_eq!(m.push(id, a), SubmitVerdict::Enqueued);
        age_past_reap(&m, busy);
        m.quiesce();
        assert_eq!(m.metrics().sessions_suspended.get(), 1, "idle session must suspend");
        assert!(store.contains(id.0).expect("store read"), "snapshot parked in the store");
        assert_eq!(m.metrics().sessions_reaped.get(), 0, "suspend is not a reap");
        // The late push thaws the session transparently.
        assert_eq!(m.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert_eq!(rows_of(&events, id), oracle, "resumed transcript must be bitwise");
        assert_eq!(m.metrics().orphan_commands.get(), 0);
        assert_eq!(m.metrics().sessions_resumed.get(), 1);
        assert!(!store.contains(id.0).expect("store read"), "thaw consumes the snapshot");
        let _ = m.finish(busy);
        m.quiesce();
        assert_eq!(m.live_sessions(), 0, "admission accounting balanced across suspend/thaw");
    }

    /// Tentpole: `export_session`/`import_session` migrate a mid-word
    /// session across managers (processes, in production) bitwise.
    #[test]
    fn export_import_migrates_mid_word_bitwise() {
        let audio = render(&[Stroke::S3, Stroke::S6], 31, 1.0);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&snap_engine(), &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
        let src = SessionManager::new(snap_engine(), cfg.clone()).expect("src manager");
        let id = SessionId(77);
        let _ = src.open(id);
        assert_eq!(src.push(id, a), SubmitVerdict::Enqueued);
        let bytes = src.export_session(id).expect("live session exports");
        assert_eq!(src.live_sessions(), 0, "export releases the session");
        assert!(src.export_session(id).is_none(), "second export finds nothing");
        let mut events = Vec::new();
        src.try_events(&mut events);
        let head = rows_of(&events, id);
        drop(src.shutdown());

        let dst = SessionManager::new(snap_engine(), cfg).expect("dst manager");
        assert!(!dst.import_session(id, b"garbage".to_vec()), "garbage must not import");
        assert!(dst.import_session(id, bytes.clone()), "exported bytes import");
        assert!(!dst.import_session(id, bytes), "double import of a live id refused");
        assert_eq!(dst.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(dst.finish(id), SubmitVerdict::Enqueued);
        dst.quiesce();
        let mut tail_events = Vec::new();
        dst.try_events(&mut tail_events);
        let mut got = head;
        got.extend(rows_of(&tail_events, id));
        assert_eq!(got, oracle, "migrated transcript must be bitwise");
        assert_eq!(dst.live_sessions(), 0);
    }

    /// Import refuses an id the store holds suspended, as it refuses a live
    /// one: accepted, it would leave the stale snapshot to thaw on the id's
    /// next `Open` once the imported session finished.
    #[test]
    fn import_refuses_an_id_suspended_in_the_store() {
        let store = Arc::new(MemoryStore::new());
        let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        let m = SessionManager::with_snapshot_store(snap_engine(), cfg, store.clone())
            .expect("valid config");
        let id = SessionId(12);
        let _ = m.open(id);
        assert_eq!(m.push(id, &[0.0; 4096]), SubmitVerdict::Enqueued);
        let bytes = m.export_session(id).expect("live session exports");
        store.put(id.0, bytes.clone()).expect("memory put");
        assert!(!m.import_session(id, bytes), "import over a suspended id refused");
        assert_eq!(m.live_sessions(), 0, "a refused import holds no admission slot");
        let _ = m.finish(id);
        let _ = m.open(id);
        m.quiesce();
        let snap = m.metrics().snapshot();
        assert_eq!(snap.sessions_resumed, 1, "the finish thaws the suspended session");
        assert_eq!(snap.sessions_opened, 2, "the next open starts a fresh session");
    }

    /// Tentpole: `shutdown_to_store` drains live sessions into the store;
    /// a fresh manager over the same store thaws them on the next push and
    /// the client finishes its word bitwise.
    #[test]
    fn shutdown_to_store_survives_manager_restart() {
        let audio = render(&[Stroke::S1, Stroke::S2], 47, 1.1);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&snap_engine(), &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let store = Arc::new(MemoryStore::new());
        let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
        let id = SessionId(9);
        let first =
            SessionManager::with_snapshot_store(snap_engine(), cfg.clone(), store.clone())
                .expect("first manager");
        let _ = first.open(id);
        assert_eq!(first.push(id, a), SubmitVerdict::Enqueued);
        first.quiesce();
        let mut events = Vec::new();
        first.try_events(&mut events);
        let head = rows_of(&events, id);
        let report = first.shutdown_to_store();
        assert_eq!(report.metrics.sessions_suspended, 1, "drain suspends the live session");
        assert_eq!(store.sessions().expect("store list"), vec![id.0]);

        let second =
            SessionManager::with_snapshot_store(snap_engine(), cfg, store).expect("second manager");
        // No re-open: the bare push must thaw the drained session.
        assert_eq!(second.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(second.finish(id), SubmitVerdict::Enqueued);
        second.quiesce();
        let mut tail_events = Vec::new();
        second.try_events(&mut tail_events);
        let mut got = head;
        got.extend(rows_of(&tail_events, id));
        assert_eq!(got, oracle, "restart transcript must be bitwise");
        assert_eq!(second.metrics().sessions_resumed.get(), 1);
        assert_eq!(second.metrics().orphan_commands.get(), 0);
        assert_eq!(second.live_sessions(), 0);
    }

    /// A [`MemoryStore`] that counts `put` and `remove` calls.
    #[derive(Debug, Default)]
    struct CountingStore {
        inner: MemoryStore,
        puts: AtomicU64,
        removes: AtomicU64,
    }

    impl SnapshotStore for CountingStore {
        fn put(&self, session: u64, bytes: Vec<u8>) -> Result<(), echowrite_snapshot::StoreError> {
            // ordering: Relaxed — a test tally read after quiesce().
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.inner.put(session, bytes)
        }

        fn remove(&self, session: u64) -> Result<Option<Vec<u8>>, echowrite_snapshot::StoreError> {
            // ordering: Relaxed — a test tally read after quiesce().
            self.removes.fetch_add(1, Ordering::Relaxed);
            self.inner.remove(session)
        }

        fn contains(&self, session: u64) -> Result<bool, echowrite_snapshot::StoreError> {
            self.inner.contains(session)
        }

        fn sessions(&self) -> Result<Vec<u64>, echowrite_snapshot::StoreError> {
            self.inner.sessions()
        }
    }

    /// A snapshot that will not restore is tried once: later commands for
    /// its id neither take the bytes out of the store nor park them back,
    /// until the shard itself takes them (here, by exporting the id).
    #[test]
    fn unrestorable_snapshot_is_not_retried() {
        let store = Arc::new(CountingStore::default());
        let id = SessionId(5);
        let corrupt = b"EWSN torn mid-write".to_vec();
        store.inner.put(id.0, corrupt.clone()).expect("memory put");
        let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        let m = SessionManager::with_snapshot_store(snap_engine(), cfg, store.clone())
            .expect("valid config");
        for _ in 0..3 {
            assert_eq!(m.push(id, &[0.0; 1024]), SubmitVerdict::Enqueued);
        }
        m.quiesce();
        // ordering: Relaxed — the shard finished every command (quiesce).
        let tally = |n: &AtomicU64| n.load(Ordering::Relaxed);
        assert_eq!(tally(&store.removes), 1, "the bytes are taken out once");
        assert_eq!(tally(&store.puts), 1, "and parked back once");
        assert_eq!(m.metrics().thaw_failures.get(), 1);
        assert_eq!(m.metrics().orphan_commands.get(), 3);
        assert!(store.contains(id.0).expect("store read"), "the bytes stay in the store");
        assert_eq!(m.export_session(id), Some(corrupt), "export hands the bytes over");
        let _ = m.push(id, &[0.0; 1024]);
        m.quiesce();
        assert_eq!(tally(&store.removes), 3, "an emptied id is looked up again");
        assert_eq!(m.metrics().thaw_failures.get(), 1);
    }

    /// A store whose reads fail: `remove` returns an I/O error.
    #[derive(Debug)]
    struct BrokenStore;

    impl SnapshotStore for BrokenStore {
        fn put(&self, _: u64, _: Vec<u8>) -> Result<(), echowrite_snapshot::StoreError> {
            Ok(())
        }

        fn remove(&self, _: u64) -> Result<Option<Vec<u8>>, echowrite_snapshot::StoreError> {
            Err(echowrite_snapshot::StoreError::Io(std::io::Error::other("disk gone")))
        }

        fn contains(&self, _: u64) -> Result<bool, echowrite_snapshot::StoreError> {
            Ok(false)
        }

        fn sessions(&self) -> Result<Vec<u64>, echowrite_snapshot::StoreError> {
            Ok(Vec::new())
        }
    }

    /// A store whose `remove` of one id panics once the test has sent
    /// `go`, killing the shard worker mid-command; every other id reads as
    /// "no snapshot".
    #[derive(Debug)]
    struct PanicsOnRead {
        id: u64,
        go: Mutex<Receiver<()>>,
    }

    impl SnapshotStore for PanicsOnRead {
        fn put(&self, _: u64, _: Vec<u8>) -> Result<(), echowrite_snapshot::StoreError> {
            Ok(())
        }

        fn remove(&self, id: u64) -> Result<Option<Vec<u8>>, echowrite_snapshot::StoreError> {
            if id == self.id {
                let _ = self.go.lock().unwrap_or_else(|e| e.into_inner()).recv();
                panic!("store read panicked");
            }
            Ok(None)
        }

        fn contains(&self, _: u64) -> Result<bool, echowrite_snapshot::StoreError> {
            Ok(false)
        }

        fn sessions(&self) -> Result<Vec<u64>, echowrite_snapshot::StoreError> {
            Ok(Vec::new())
        }
    }

    /// A failed store read counts in `thaw_failures` on every command
    /// that tried one, and the id is not marked unrestorable: each later
    /// command reads again.
    #[test]
    fn failed_store_reads_count_as_thaw_failures() {
        let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        let store = Arc::new(BrokenStore);
        let m =
            SessionManager::with_snapshot_store(snap_engine(), cfg, store).expect("valid config");
        let id = SessionId(5);
        for _ in 0..3 {
            assert_eq!(m.push(id, &[0.0; 1024]), SubmitVerdict::Enqueued);
        }
        m.quiesce();
        assert_eq!(m.metrics().thaw_failures.get(), 3, "each failed read is counted");
        assert_eq!(m.metrics().orphan_commands.get(), 3);
        assert_eq!(m.export_session(id), None);
        assert_eq!(m.metrics().thaw_failures.get(), 4, "export's failed read is counted");
    }

    /// A shard whose worker has died does not hang `quiesce`: the barrier
    /// cannot be sent or is never answered, and `quiesce` returns. The
    /// dead shard's commands are shed.
    #[test]
    fn quiesce_returns_when_a_shard_worker_has_died() {
        let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        let (go, wait) = mpsc::channel();
        go.send(()).expect("the store holds the receiver");
        let store = Arc::new(PanicsOnRead { id: 3, go: Mutex::new(wait) });
        let m = Arc::new(
            SessionManager::with_snapshot_store(snap_engine(), cfg, store).expect("valid config"),
        );
        // No session is live, so the push reads the store, which panics.
        assert_eq!(m.push(SessionId(3), &[0.0; 1024]), SubmitVerdict::Enqueued);
        let (done, returned) = mpsc::channel();
        let manager = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            manager.quiesce();
            let _ = done.send(());
        });
        returned
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("quiesce must return when a shard worker has died");
        waiter.join().expect("the quiesce thread does not panic");
        assert_eq!(m.push(SessionId(3), &[0.0; 1024]), SubmitVerdict::Shedding);
    }

    /// A dead shard leaves no phantom backlog and no phantom sessions:
    /// once its worker has panicked — in a push's store read, or in an
    /// open's — the commands it never ran are off the queue gauge, and the
    /// session it held and the opens it never finished no longer hold
    /// admission slots.
    #[test]
    fn a_dead_shard_leaves_no_backlog_and_no_live_sessions() {
        for panics_in_open in [false, true] {
            dies_with_clean_books(panics_in_open);
        }
    }

    fn dies_with_clean_books(panics_in_open: bool) {
        let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        let (go, wait) = mpsc::channel();
        let store = Arc::new(PanicsOnRead { id: 9, go: Mutex::new(wait) });
        let m = Arc::new(
            SessionManager::with_snapshot_store(snap_engine(), cfg, store).expect("valid config"),
        );
        let live = SessionId(1);
        assert_eq!(m.open(live), SubmitVerdict::Enqueued);
        m.quiesce();
        // The worker takes this command and blocks in the store read for
        // id 9; an open has already reserved its admission slot.
        let doomed = SessionId(9);
        let verdict = if panics_in_open { m.open(doomed) } else { m.push(doomed, &[0.0; 1024]) };
        assert_eq!(verdict, SubmitVerdict::Enqueued);
        for _ in 0..3 {
            assert_eq!(m.push(live, &[0.0; 1024]), SubmitVerdict::Enqueued);
        }
        assert_eq!(m.open(SessionId(2)), SubmitVerdict::Enqueued);
        let quiescer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.quiesce())
        };
        let poll = |what: &str, done: &dyn Fn() -> bool| {
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !done() {
                assert!(std::time::Instant::now() < give_up, "timed out waiting for {what}");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        // Three pushes, the open and the quiesce barrier wait behind it.
        poll("the queued commands", &|| m.metrics().queue_depth.get() == 5);
        assert_eq!(m.metrics().sessions_live.get(), 2 + u64::from(panics_in_open));
        go.send(()).expect("the store read is waiting");
        poll("the worker to die", &|| m.dead_shards() == 1);
        quiescer.join().expect("quiesce returns");
        assert_eq!(m.metrics().queue_depth.get(), 0, "no phantom backlog");
        assert_eq!(m.metrics().sessions_live.get(), 0, "no phantom sessions");
        assert_eq!(m.live_sessions(), 0);
    }

    /// `SuspendToStore` without a store is a construction error, not a
    /// silent fallback.
    #[test]
    fn suspend_policy_requires_a_store() {
        let cfg =
            ServeConfig { reap_policy: ReapPolicy::SuspendToStore, ..ServeConfig::default() };
        assert!(SessionManager::new(snap_engine(), cfg).is_err());
    }
}
