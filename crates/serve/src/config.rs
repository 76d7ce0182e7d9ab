//! Serving-layer configuration.

use echowrite::Parallelism;

/// What the idle reaper does with a session it reclaims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReapPolicy {
    /// Discard the session's recognition state (the pre-snapshot
    /// behaviour): a client returning after a reap starts over, and its
    /// late pushes count as orphan commands.
    #[default]
    Drop,
    /// Suspend the session into the manager's
    /// [`SnapshotStore`](echowrite_snapshot::SnapshotStore) instead of
    /// discarding it; the next `Open`/`Push`/`Finish` for the id thaws it
    /// transparently and the session resumes bitwise where it left off.
    /// Requires construction via
    /// [`SessionManager::with_snapshot_store`](crate::SessionManager::with_snapshot_store).
    SuspendToStore,
}

/// Flight-recorder knobs (DESIGN.md §6.11): every shard worker owns an
/// always-on bounded ring of recent trace events; anomalies (shed latch,
/// deadline degradation, malformed wire frames, reap/thaw churn, shutdown)
/// dump the rings as Chrome-trace postmortem artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightOptions {
    /// Per-shard ring capacity, in recorded events.
    pub capacity: usize,
    /// Directory anomaly dumps are written to. `None` keeps the rings
    /// purely in-memory — snapshots are still served on demand via
    /// [`SessionManager::flight_snapshot`](crate::SessionManager::flight_snapshot),
    /// but anomalies leave no artifact.
    pub artifact_dir: Option<std::path::PathBuf>,
    /// Reap/suspend/thaw events within one reaper scan window that count
    /// as churn and trigger a dump; `0` disables the churn trigger.
    pub churn_threshold: u64,
}

impl Default for FlightOptions {
    fn default() -> Self {
        FlightOptions {
            capacity: echowrite_trace::DEFAULT_FLIGHT_CAPACITY,
            artifact_dir: None,
            churn_threshold: 32,
        }
    }
}

/// Tuning knobs for a [`SessionManager`](crate::SessionManager).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker shard count; reuses the workspace [`Parallelism`] knob
    /// (`Auto` resolves to the machine's available parallelism).
    pub shards: Parallelism,
    /// Bounded depth of each shard's ingress queue; a full queue makes
    /// [`submit`](crate::SessionManager::submit) return
    /// [`SubmitVerdict::QueueFull`](crate::SubmitVerdict::QueueFull)
    /// instead of blocking.
    pub queue_capacity: usize,
    /// Hard cap on live sessions across all shards; opens beyond it are
    /// shed unconditionally.
    pub max_sessions: usize,
    /// Admission high-water mark: once live sessions reach it, new opens
    /// are shed until the population drains to ¾ of this mark
    /// (hysteresis, so admission does not flap at the boundary).
    pub high_water: usize,
    /// Backlog deadline, in queued pushes: a push that sees more than this
    /// many pushes enqueued behind it by the time its shard dequeues it is
    /// degraded to segment-only output (DTW matching skipped). `None`
    /// disables degradation — required for bitwise-deterministic output
    /// under load.
    pub deadline_chunks: Option<u64>,
    /// Idle reaping threshold on the shard's logical clock (total samples
    /// the shard has processed): a session whose last command is older
    /// than this many samples is reclaimed. `None` disables the reaper.
    pub idle_timeout_samples: Option<u64>,
    /// Maximum commands a shard worker drains from its queue per batch.
    /// Pushes in one batch run through a single shard-shared DSP scratch
    /// (the packed-FFT buffer stays hot across sessions);
    /// commands still execute strictly in queue order, so output is
    /// independent of the batch size. `1` disables batching.
    pub batch_max: usize,
    /// What the idle reaper does with sessions it reclaims: drop them
    /// (default) or suspend them into the snapshot store for transparent
    /// resumption.
    pub reap_policy: ReapPolicy,
    /// Flight-recorder configuration (always-on per-shard event rings and
    /// their anomaly dump triggers).
    pub flight: FlightOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: Parallelism::Auto,
            queue_capacity: 256,
            max_sessions: 4096,
            high_water: 3072,
            deadline_chunks: None,
            idle_timeout_samples: None,
            batch_max: 8,
            reap_policy: ReapPolicy::Drop,
            flight: FlightOptions::default(),
        }
    }
}

impl ServeConfig {
    /// Resolves the shard count ([`Parallelism::Auto`] queries the
    /// machine; an explicit `Threads(n)` is used as-is).
    pub fn shard_count(&self) -> usize {
        // `workers` caps by the work-unit count; shards are long-lived
        // workers, so the count is not work-bounded.
        self.shards.workers(usize::MAX)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == Parallelism::Threads(0) {
            return Err("serve needs at least one shard".to_string());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be positive".to_string());
        }
        if self.max_sessions == 0 {
            return Err("max_sessions must be positive".to_string());
        }
        if self.high_water == 0 || self.high_water > self.max_sessions {
            return Err(format!(
                "high_water {} must be in 1..=max_sessions ({})",
                self.high_water, self.max_sessions
            ));
        }
        if self.idle_timeout_samples == Some(0) {
            return Err("idle_timeout_samples of 0 would reap every session instantly".to_string());
        }
        if self.batch_max == 0 {
            return Err("batch_max must be at least 1 (1 disables batching)".to_string());
        }
        if self.flight.capacity == 0 {
            return Err("flight ring capacity must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    /// The `Parallelism::Threads(0)` rejection mirrors
    /// `EchoWriteConfig::validate` — zero shards, like zero STFT workers,
    /// is a configuration error, not a silent clamp.
    #[test]
    fn rejects_zero_shards() {
        let cfg = ServeConfig { shards: Parallelism::Threads(0), ..ServeConfig::default() };
        assert!(cfg.validate().is_err());
        let one = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
        assert!(one.validate().is_ok());
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn rejects_degenerate_limits() {
        let zero_q = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
        assert!(zero_q.validate().is_err());
        let zero_max = ServeConfig { max_sessions: 0, high_water: 0, ..ServeConfig::default() };
        assert!(zero_max.validate().is_err());
        let hw = ServeConfig { max_sessions: 8, high_water: 9, ..ServeConfig::default() };
        assert!(hw.validate().is_err());
        let reap0 = ServeConfig { idle_timeout_samples: Some(0), ..ServeConfig::default() };
        assert!(reap0.validate().is_err());
        let batch0 = ServeConfig { batch_max: 0, ..ServeConfig::default() };
        assert!(batch0.validate().is_err());
        let batch1 = ServeConfig { batch_max: 1, ..ServeConfig::default() };
        assert!(batch1.validate().is_ok(), "batch_max of 1 (batching off) is valid");
        let flight0 = ServeConfig {
            flight: FlightOptions { capacity: 0, ..FlightOptions::default() },
            ..ServeConfig::default()
        };
        assert!(flight0.validate().is_err());
    }

    #[test]
    fn auto_resolves_to_at_least_one_shard() {
        assert!(ServeConfig::default().shard_count() >= 1);
    }
}
