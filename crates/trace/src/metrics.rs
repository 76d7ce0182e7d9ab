//! Lock-free metric primitives — counters, gauges, fixed-bound histograms —
//! and the Prometheus text-exposition writer. One registry vocabulary
//! shared by the serving layer (`echowrite-serve`) and the offline
//! evaluation harness (`crates/bench`), so the two never drift.
//!
//! Everything here is plain atomics: recording an observation never takes
//! a lock, so pipeline and shard-worker threads can't contend.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that moves both ways (stored non-negative; `dec` saturates at
/// zero rather than wrapping, so a racy transient can never explode the
/// reported depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Sets the value outright.
    pub fn set(&self, v: u64) {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        // echolint: allow(atomics-order) -- Relaxed store publishes a standalone gauge value; it gates no other data
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bound histogram over caller-supplied finite bucket upper bounds
/// plus an explicit `+Inf` bucket (cumulative-bucket semantics at snapshot
/// time, Prometheus style).
///
/// Over-range observations are *counted*, not dropped: they land in the
/// `+Inf` bucket, and the running sum saturates at `u64::MAX` instead of
/// wrapping.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over `bounds` (finite upper bounds, ascending);
    /// one extra `+Inf` bucket is always appended.
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w.first() <= w.last()), "bounds must ascend");
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The finite bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Records one observation. Values above the last finite bound go to
    /// the `+Inf` bucket; the sum saturates rather than wrapping.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        if let Some(b) = self.buckets.get(idx) {
            // ordering: Relaxed — an independent statistic; no other data is
            // synchronized through it, and snapshot skew across metrics is fine.
            b.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self
            .sum
            // ordering: Relaxed — an independent statistic; no other data is
            // synchronized through it, and snapshot skew across metrics is fine.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(v)));
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), the `+Inf` bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Observations that exceeded every finite bound (the `+Inf` bucket).
    pub fn overflow_count(&self) -> u64 {
        // ordering: Relaxed — an independent statistic; no other data is
        // synchronized through it, and snapshot skew across metrics is fine.
        self.buckets.last().map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket containing the `q`-quantile observation,
    /// or `None` when empty. The `+Inf` bucket reports `u64::MAX`. `q` is
    /// clamped to [0, 1].
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            // ordering: Relaxed — an independent statistic; no other data is
            // synchronized through it, and snapshot skew across metrics is fine.
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Linear-interpolated `q`-quantile estimate from the bucket counts,
    /// or `None` when empty — the classic Prometheus `histogram_quantile`
    /// estimator. The rank is located in its bucket and the estimate
    /// interpolated between the bucket's lower and upper bound by the
    /// rank's fractional position inside it. Observations in the `+Inf`
    /// bucket clamp to the last finite bound (there is nothing to
    /// interpolate toward). `q` is clamped to [0, 1].
    pub fn quantile_interpolated(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(self.bounds, &self.bucket_counts(), q)
    }
}

/// Linear-interpolated quantile over non-cumulative `bucket_counts`
/// (layout [`Histogram::bucket_counts`]: one count per finite bound plus
/// the trailing `+Inf` bucket). `None` when the counts sum to zero.
/// Shared by [`Histogram::quantile_interpolated`] and snapshot consumers
/// that hold only the copied-out counts.
pub fn quantile_from_buckets(bounds: &[u64], bucket_counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = bucket_counts.iter().take(bounds.len() + 1).sum();
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0u64;
    for i in 0..=bounds.len() {
        let n = bucket_counts.get(i).copied().unwrap_or(0);
        if n == 0 {
            continue;
        }
        let lower = if i == 0 { 0 } else { bounds.get(i - 1).copied().unwrap_or(0) };
        if (seen + n) as f64 >= rank {
            // +Inf bucket: clamp to the last finite bound.
            let Some(&upper) = bounds.get(i) else { return Some(lower as f64) };
            let into = (rank - seen as f64) / n as f64;
            return Some(lower as f64 + (upper - lower) as f64 * into);
        }
        seen += n;
    }
    Some(bounds.last().copied().unwrap_or(0) as f64)
}

/// Incremental Prometheus text-exposition writer: every family gets its
/// `# HELP` and `# TYPE` preamble, label values are escaped per the
/// exposition format, and histograms render cumulative `le` buckets ending
/// in `+Inf`.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        PromWriter::default()
    }

    /// Escapes a label *value*: `\` → `\\`, `"` → `\"`, newline → `\n`.
    pub fn escape_label(value: &str) -> String {
        let mut out = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    fn preamble(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn label_block(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", Self::escape_label(v));
        }
        out.push('}');
        out
    }

    /// One unlabelled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.preamble(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabelled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.preamble(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabelled floating-point gauge sample.
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.preamble(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value:.3}");
    }

    /// An info-style gauge: constant `1` with identifying labels (values
    /// escaped).
    pub fn info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.preamble(name, help, "gauge");
        let _ = writeln!(self.out, "{name}{} 1", Self::label_block(labels));
    }

    /// A full histogram family: cumulative `le` buckets (the last bucket
    /// count is the `+Inf` bucket), then `_sum` and `_count`.
    ///
    /// `bucket_counts` normally has `bounds.len() + 1` entries (the layout
    /// [`Histogram::bucket_counts`] produces). Extra entries are ignored,
    /// and — so scrapers see every series from the very first scrape — a
    /// *short* or empty slice still renders the complete ladder, with the
    /// missing buckets counted as zero.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[u64],
        bucket_counts: &[u64],
        sum: u64,
        count: u64,
    ) {
        self.preamble(name, help, "histogram");
        let mut cumulative = 0u64;
        for i in 0..=bounds.len() {
            cumulative = cumulative.saturating_add(bucket_counts.get(i).copied().unwrap_or(0));
            match bounds.get(i) {
                Some(le) => {
                    let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(self.out, "{name}_sum {sum}");
        let _ = writeln!(self.out, "{name}_count {count}");
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates, no wrap
        assert_eq!(g.get(), 0);
    }

    const BOUNDS: [u64; 3] = [10, 100, 1000];

    #[test]
    fn histogram_overflow_goes_to_inf_bucket_not_dropped() {
        let h = Histogram::new(&BOUNDS);
        h.observe(5);
        h.observe(50);
        h.observe(5_000); // over-range: must be counted, not dropped
        h.observe(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.bucket_counts(), vec![1, 1, 0, 2]);
        // The sum saturates instead of wrapping around u64.
        assert_eq!(h.sum(), u64::MAX);
        let h2 = Histogram::new(&BOUNDS);
        h2.observe(3);
        h2.observe(4);
        assert_eq!(h2.sum(), 7);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new(&BOUNDS);
        for _ in 0..99 {
            h.observe(5);
        }
        h.observe(500);
        assert_eq!(h.quantile_upper_bound(0.5), Some(10));
        assert_eq!(h.quantile_upper_bound(0.99), Some(10));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1000));
        let empty = Histogram::new(&BOUNDS);
        assert_eq!(empty.quantile_upper_bound(0.99), None);
        empty.observe(u64::MAX);
        assert_eq!(empty.quantile_upper_bound(0.99), Some(u64::MAX));
    }

    #[test]
    fn interpolated_quantiles_match_exact_on_synthetic_ladder() {
        // 1000 observations spread uniformly through (0, 1000]: exact
        // quantile q is q*1000, and with bounds every 100 the interpolated
        // estimate must land within one observation's spacing of it.
        const LADDER: [u64; 10] = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];
        let h = Histogram::new(&LADDER);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        for &(q, exact) in &[(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile_interpolated(q).expect("non-empty");
            assert!(
                (est - exact).abs() <= 1.0,
                "q={q}: interpolated {est} vs exact {exact}"
            );
        }
        // Degenerate cases: empty → None; all-overflow clamps to the last
        // finite bound; a single bucket interpolates inside that bucket.
        let empty = Histogram::new(&LADDER);
        assert_eq!(empty.quantile_interpolated(0.5), None);
        let over = Histogram::new(&LADDER);
        over.observe(5_000);
        assert_eq!(over.quantile_interpolated(0.99), Some(1000.0));
        let one = Histogram::new(&LADDER);
        for _ in 0..4 {
            one.observe(150); // all in (100, 200]
        }
        let p50 = one.quantile_interpolated(0.5).expect("non-empty");
        assert!((100.0..=200.0).contains(&p50), "p50 {p50} inside its bucket");
    }

    #[test]
    fn quantile_from_buckets_handles_short_slices() {
        assert_eq!(quantile_from_buckets(&BOUNDS, &[], 0.5), None);
        // Short slice (no +Inf entry) still resolves inside known buckets.
        let est = quantile_from_buckets(&BOUNDS, &[4], 0.5).expect("non-empty");
        assert!((0.0..=10.0).contains(&est));
    }

    #[test]
    fn prom_writer_emits_full_ladder_for_zero_observation_histogram() {
        // Regression: a histogram nobody has observed into yet must still
        // expose its complete bucket ladder (all zeros), so scrapers see
        // stable series from the first scrape — even when the caller hands
        // over an empty counts slice.
        for counts in [vec![], vec![0, 0, 0, 0]] {
            let mut w = PromWriter::new();
            w.histogram("lat_us", "Latency.", &BOUNDS, &counts, 0, 0);
            let text = w.finish();
            assert!(text.contains("# TYPE lat_us histogram"), "{text}");
            assert!(text.contains("lat_us_bucket{le=\"10\"} 0"), "{text}");
            assert!(text.contains("lat_us_bucket{le=\"100\"} 0"), "{text}");
            assert!(text.contains("lat_us_bucket{le=\"1000\"} 0"), "{text}");
            assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 0"), "{text}");
            assert!(text.contains("lat_us_sum 0"), "{text}");
            assert!(text.contains("lat_us_count 0"), "{text}");
        }
    }

    #[test]
    fn prom_writer_emits_help_type_and_escapes_labels() {
        let mut w = PromWriter::new();
        w.counter("x_total", "Things counted.", 3);
        w.gauge("x_live", "Things live.", 1);
        w.info("x_build_info", "Build metadata.", &[("version", "0.1.0"), ("quote", "a\"b\\c\nd")]);
        let text = w.finish();
        assert!(text.contains("# HELP x_total Things counted."));
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("# HELP x_live Things live."));
        assert!(text.contains("# TYPE x_live gauge"));
        // Label escaping: backslash, quote, and newline all escaped.
        assert!(text.contains(r#"quote="a\"b\\c\nd""#));
        assert!(text.contains("x_build_info{version=\"0.1.0\","));
    }

    #[test]
    fn prom_writer_histogram_is_cumulative_with_inf() {
        let h = Histogram::new(&BOUNDS);
        h.observe(5);
        h.observe(50);
        h.observe(9_999_999);
        let mut w = PromWriter::new();
        w.histogram("lat_us", "Latency.", h.bounds(), &h.bucket_counts(), h.sum(), h.count());
        let text = w.finish();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"1000\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_count 3"));
    }
}
