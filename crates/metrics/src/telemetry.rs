//! Run-time telemetry: latency histograms, phase spans, and link accounting.
//!
//! [`MetricsSink`](crate::MetricsSink) counts *how many bits* moved; this
//! module records *where the time went*. It is attached to a sink with
//! [`MetricsSink::with_telemetry`](crate::MetricsSink::with_telemetry) and is
//! deliberately optional: a sink built with `MetricsSink::new()` carries no
//! [`Telemetry`], every instrumentation site is gated on
//! [`MetricsSink::telemetry`](crate::MetricsSink::telemetry) returning
//! `Some`, and nothing here allocates until a caller opts in — so the
//! default path is byte-identical to the pre-telemetry simulator (the trace
//! digest pins in `tests/netsim_latency.rs` hold with and without it).
//!
//! Three recorders, all contention-free across nodes (the same sharding
//! idiom as the counter sink):
//!
//! - [`Histogram`] — fixed log₂-bucketed latency histograms keyed by
//!   `(node, tag)`, merged at snapshot time, with percentile queries.
//! - [`SpanTimer`] — phase spans carrying *dual* durations: virtual time
//!   (deterministic, seeded) and wall clock (machine-dependent).
//! - Link stats — per-`(from, to)` messages/bytes/cumulative delay,
//!   partition outage windows, and the delivery-queue high-water mark,
//!   fed by the event-driven scheduler's round routing.
//!
//! # Examples
//!
//! ```
//! use mvbc_metrics::MetricsSink;
//!
//! let sink = MetricsSink::with_telemetry();
//! let tel = sink.telemetry().unwrap();
//! tel.record_value(0, "smr.commit.gap", 1500);
//! tel.record_value(0, "smr.commit.gap", 900);
//! let span = tel.span(0, "smr.slot0", "dispersal", 10);
//! span.finish(25);
//! let snap = tel.snapshot();
//! assert_eq!(snap.histogram_for_tag("smr.commit.gap").count(), 2);
//! assert_eq!(snap.spans[0].vend - snap.spans[0].vstart, 15);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::NodeId;

/// Number of fixed log₂ buckets per histogram: bucket 0 holds the value
/// `0`, bucket `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]`. 64 buckets
/// cover the full `u64` range, so recording never saturates or resizes.
pub const HISTOGRAM_BUCKETS: usize = 64;

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper edge of a bucket (the largest value it can hold).
fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A mergeable log₂-bucketed histogram of `u64` samples (virtual-time
/// ticks, byte counts, queue depths, ...).
///
/// The bucket layout is fixed ([`HISTOGRAM_BUCKETS`]), so merging two
/// histograms is element-wise addition and a percentile query is a single
/// cumulative walk. Quantiles are resolved to the upper edge of the
/// containing bucket, clamped to the observed extrema — exact for `p=0`
/// and `p=100`, within a factor of 2 everywhere else, which is the usual
/// log-bucket trade for O(1) recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self` (bucket-wise).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`), resolved to the upper
    /// edge of the containing bucket and clamped to the observed
    /// min/max. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper(bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Lock-free histogram cells for one `(node, tag)` pair; `Relaxed`
/// ordering for the same reason as the counter cells — independent
/// monotone sums read at quiescent points.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn load(&self) -> Histogram {
        Histogram {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// One finished phase span: what `node` spent on `phase` of `scope`,
/// in both virtual time and wall clock.
///
/// Virtual durations are deterministic under a seeded run; `wall_ns` is
/// machine-dependent and therefore excluded from any artifact that must
/// replay byte-identically (the SMR `RunReport` keeps only the virtual
/// side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Node that executed the phase.
    pub node: NodeId,
    /// Hierarchical scope, e.g. `"smr.slot17"` (slot and lane identity).
    pub scope: String,
    /// Phase name, e.g. `"dispersal"`, `"echo"`, `"diagnosis"`.
    pub phase: String,
    /// Virtual time when the span started.
    pub vstart: u64,
    /// Virtual time when the span finished.
    pub vend: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
}

/// Interned-string form kept on the hot path; stringified at snapshot.
#[derive(Debug)]
struct RawSpan {
    node: NodeId,
    scope: &'static str,
    phase: &'static str,
    vstart: u64,
    vend: u64,
    wall_ns: u64,
}

/// An in-flight phase span. Created by [`Telemetry::span`]; consumed by
/// [`SpanTimer::finish`], which records the dual-duration [`SpanRecord`].
/// Dropping a timer without finishing records nothing.
#[derive(Debug)]
pub struct SpanTimer {
    telemetry: Telemetry,
    node: NodeId,
    scope: &'static str,
    phase: &'static str,
    vstart: u64,
    wall: Instant,
}

impl SpanTimer {
    /// Finishes the span at virtual time `vend`, recording it.
    pub fn finish(self, vend: u64) {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let shard = &self.telemetry.inner.span_shards[self.node % crate::SHARD_COUNT];
        shard.lock().push(RawSpan {
            node: self.node,
            scope: self.scope,
            phase: self.phase,
            vstart: self.vstart,
            vend: vend.max(self.vstart),
            wall_ns,
        });
    }
}

/// Per-link delivery totals, keyed by `(from, to)` in the snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Messages delivered over the link.
    pub messages: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Cumulative delivery delay in virtual-time ticks (latency plus any
    /// partition hold and FIFO clamping).
    pub total_delay: u64,
}

impl LinkStat {
    /// Mean per-message delivery delay in ticks (0 when no messages).
    pub fn mean_delay(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_delay as f64 / self.messages as f64
        }
    }
}

/// One partition outage window and the traffic it affected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outage {
    /// Virtual time the cut starts.
    pub start: u64,
    /// Virtual time the cut heals.
    pub heal: u64,
    /// `"drop"` or `"delay"`.
    pub behavior: String,
    /// Messages lost to the cut.
    pub dropped: u64,
    /// Messages held until the heal.
    pub delayed: u64,
}

#[derive(Debug, Default)]
struct HistShard {
    histograms: RwLock<HashMap<(NodeId, &'static str), Arc<AtomicHistogram>>>,
}

#[derive(Debug)]
struct TelemetryInner {
    hist_shards: Vec<HistShard>,
    span_shards: Vec<Mutex<Vec<RawSpan>>>,
    links: Mutex<HashMap<(NodeId, NodeId), LinkStat>>,
    queue_high_water: AtomicU64,
    outages: Mutex<Vec<Outage>>,
}

impl Default for TelemetryInner {
    fn default() -> Self {
        TelemetryInner {
            hist_shards: (0..crate::SHARD_COUNT).map(|_| HistShard::default()).collect(),
            span_shards: (0..crate::SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect(),
            links: Mutex::new(HashMap::new()),
            queue_high_water: AtomicU64::new(0),
            outages: Mutex::new(Vec::new()),
        }
    }
}

/// Shared telemetry recorder. Cheap to clone (an `Arc` handle); all node
/// threads share one per instrumented run.
///
/// Histograms and spans are sharded by node exactly like the counter
/// sink, so recording never contends across nodes; link stats, outages
/// and the queue high-water mark are written only by round routing,
/// which runs for one round at a time, and sit behind one uncontended
/// lock.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one histogram sample under `(node, tag)`. Contention-free
    /// across nodes; the first sample of a tag takes the shard's write
    /// lock, every later one only the shared read lock.
    pub fn record_value(&self, node: NodeId, tag: &'static str, value: u64) {
        let shard = &self.inner.hist_shards[node % crate::SHARD_COUNT];
        {
            let histograms = shard.histograms.read();
            if let Some(hist) = histograms.get(&(node, tag)) {
                hist.record(value);
                return;
            }
        }
        let hist = {
            let mut histograms = shard.histograms.write();
            histograms.entry((node, tag)).or_default().clone()
        };
        hist.record(value);
    }

    /// Starts a phase span for `node` at virtual time `vstart`; the wall
    /// clock starts now. Use interned strings ([`crate::intern_tag`]) for
    /// `scope`/`phase` built at runtime.
    // This is the workspace's sanctioned wall-clock seam (see lint.toml
    // [determinism] allow_files); span timings are observability-only
    // and never feed anything digest-pinned.
    #[allow(clippy::disallowed_methods)]
    pub fn span(
        &self,
        node: NodeId,
        scope: &'static str,
        phase: &'static str,
        vstart: u64,
    ) -> SpanTimer {
        SpanTimer {
            telemetry: self.clone(),
            node,
            scope,
            phase,
            vstart,
            wall: Instant::now(),
        }
    }

    /// Records one delivered message on the `from → to` link with its
    /// delivery delay in ticks. Called only by round routing.
    pub fn record_link(&self, from: NodeId, to: NodeId, payload_bytes: u64, delay: u64) {
        let mut links = self.inner.links.lock();
        let stat = links.entry((from, to)).or_default();
        stat.messages += 1;
        stat.payload_bytes += payload_bytes;
        stat.total_delay += delay;
    }

    /// Raises the delivery-queue high-water mark to `depth` if larger.
    pub fn record_queue_depth(&self, depth: u64) {
        self.inner.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Registers a partition outage window up front, returning its index
    /// for [`Telemetry::record_outage_hit`].
    pub fn register_outage(&self, start: u64, heal: u64, behavior: &str) -> usize {
        let mut outages = self.inner.outages.lock();
        outages.push(Outage {
            start,
            heal,
            behavior: behavior.to_owned(),
            dropped: 0,
            delayed: 0,
        });
        outages.len() - 1
    }

    /// Counts one message hitting outage `index`: lost (`dropped`) or
    /// held until the heal.
    pub fn record_outage_hit(&self, index: usize, dropped: bool) {
        let mut outages = self.inner.outages.lock();
        if let Some(outage) = outages.get_mut(index) {
            if dropped {
                outage.dropped += 1;
            } else {
                outage.delayed += 1;
            }
        }
    }

    /// Takes an immutable snapshot, merging the per-node shards. Spans
    /// are sorted by `(vstart, node, scope, phase, vend)` so the order is
    /// deterministic regardless of shard interleaving.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut histograms: BTreeMap<(NodeId, String), Histogram> = BTreeMap::new();
        for shard in &self.inner.hist_shards {
            for (&(node, tag), hist) in shard.histograms.read().iter() {
                histograms
                    .entry((node, tag.to_owned()))
                    .or_default()
                    .merge(&hist.load());
            }
        }
        let mut spans: Vec<SpanRecord> = Vec::new();
        for shard in &self.inner.span_shards {
            for raw in shard.lock().iter() {
                spans.push(SpanRecord {
                    node: raw.node,
                    scope: raw.scope.to_owned(),
                    phase: raw.phase.to_owned(),
                    vstart: raw.vstart,
                    vend: raw.vend,
                    wall_ns: raw.wall_ns,
                });
            }
        }
        spans.sort_by(|a, b| {
            (a.vstart, a.node, &a.scope, &a.phase, a.vend)
                .cmp(&(b.vstart, b.node, &b.scope, &b.phase, b.vend))
        });
        // Explicitly re-key the routing-side hash map into a BTreeMap so
        // everything downstream (RunReport JSON, inspect tables) iterates
        // in (from, to) order.
        let mut links: BTreeMap<(NodeId, NodeId), LinkStat> = BTreeMap::new();
        for (&key, &stat) in self.inner.links.lock().iter() {
            links.insert(key, stat);
        }
        TelemetrySnapshot {
            histograms,
            spans,
            links,
            queue_high_water: self.inner.queue_high_water.load(Ordering::Relaxed),
            outages: self.inner.outages.lock().clone(),
        }
    }
}

/// Immutable view of one run's telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-`(node, tag)` histograms.
    pub histograms: BTreeMap<(NodeId, String), Histogram>,
    /// All finished spans, deterministically ordered.
    pub spans: Vec<SpanRecord>,
    /// Per-link delivery totals.
    pub links: BTreeMap<(NodeId, NodeId), LinkStat>,
    /// Largest delivery-queue depth observed by the scheduler.
    pub queue_high_water: u64,
    /// Partition outage windows with affected-traffic counts.
    pub outages: Vec<Outage>,
}

impl TelemetrySnapshot {
    /// The histogram for `tag` merged across all nodes.
    pub fn histogram_for_tag(&self, tag: &str) -> Histogram {
        let mut merged = Histogram::new();
        for ((_, t), hist) in &self.histograms {
            if t == tag {
                merged.merge(hist);
            }
        }
        merged
    }

    /// Total virtual-time and wall-clock duration per phase name, sorted
    /// by phase.
    pub fn phase_totals(&self) -> BTreeMap<String, (u64, u64)> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.phase.clone()).or_default();
            entry.0 += span.vend - span.vstart;
            entry.1 += span.wall_ns;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_extrema() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_are_bucket_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Extremes are exact; interior quantiles land within a factor
        // of 2 above the true value (log buckets resolve upward).
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        let p50 = h.percentile(50.0);
        assert!((50..=100).contains(&p50), "p50 = {p50}");
        let p90 = h.percentile(90.0);
        assert!((90..=100).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 17, 200] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 9999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn sharded_histograms_merge_at_snapshot() {
        let tel = Telemetry::new();
        // Nodes 0 and 64 share shard 0; node 1 sits elsewhere.
        tel.record_value(0, "lat", 10);
        tel.record_value(64, "lat", 20);
        tel.record_value(1, "lat", 30);
        let snap = tel.snapshot();
        assert_eq!(snap.histograms.len(), 3);
        let merged = snap.histogram_for_tag("lat");
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 60);
        assert_eq!(snap.histogram_for_tag("other").count(), 0);
    }

    #[test]
    fn span_records_both_clocks() {
        let tel = Telemetry::new();
        let span = tel.span(2, "smr.slot3", "echo", 100);
        span.finish(140);
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!((s.node, s.scope.as_str(), s.phase.as_str()), (2, "smr.slot3", "echo"));
        assert_eq!((s.vstart, s.vend), (100, 140));
        // Wall clock ran (possibly 0ns on a coarse timer, but finish
        // must not panic and the record must exist).
    }

    #[test]
    fn span_vend_clamped_to_vstart() {
        let tel = Telemetry::new();
        tel.span(0, "s", "p", 50).finish(10);
        assert_eq!(tel.snapshot().spans[0].vend, 50);
    }

    #[test]
    fn phase_totals_sum_spans() {
        let tel = Telemetry::new();
        tel.span(0, "a", "echo", 0).finish(10);
        tel.span(1, "b", "echo", 5).finish(25);
        tel.span(0, "a", "diagnosis", 10).finish(12);
        let totals = tel.snapshot().phase_totals();
        assert_eq!(totals["echo"].0, 30);
        assert_eq!(totals["diagnosis"].0, 2);
    }

    #[test]
    fn links_accumulate() {
        let tel = Telemetry::new();
        tel.record_link(0, 1, 100, 50);
        tel.record_link(0, 1, 100, 70);
        tel.record_link(2, 0, 7, 5);
        let snap = tel.snapshot();
        let l01 = snap.links[&(0, 1)];
        assert_eq!((l01.messages, l01.payload_bytes, l01.total_delay), (2, 200, 120));
        assert!((l01.mean_delay() - 60.0).abs() < 1e-9);
        assert_eq!(snap.links[&(2, 0)].messages, 1);
    }

    #[test]
    fn queue_high_water_is_max() {
        let tel = Telemetry::new();
        tel.record_queue_depth(5);
        tel.record_queue_depth(17);
        tel.record_queue_depth(3);
        assert_eq!(tel.snapshot().queue_high_water, 17);
    }

    #[test]
    fn outage_windows_count_hits() {
        let tel = Telemetry::new();
        let idx = tel.register_outage(5_000, 60_000, "delay");
        tel.record_outage_hit(idx, false);
        tel.record_outage_hit(idx, false);
        tel.record_outage_hit(idx, true);
        let snap = tel.snapshot();
        assert_eq!(snap.outages.len(), 1);
        let o = &snap.outages[0];
        assert_eq!((o.start, o.heal, o.behavior.as_str()), (5_000, 60_000, "delay"));
        assert_eq!((o.delayed, o.dropped), (2, 1));
    }

    #[test]
    fn snapshot_span_order_is_deterministic() {
        let tel = Telemetry::new();
        // Recorded across different shards in scrambled order.
        tel.span(3, "z", "p", 7).finish(9);
        tel.span(1, "a", "p", 7).finish(9);
        tel.span(0, "m", "p", 2).finish(4);
        let order: Vec<(u64, NodeId)> =
            tel.snapshot().spans.iter().map(|s| (s.vstart, s.node)).collect();
        assert_eq!(order, vec![(2, 0), (7, 1), (7, 3)]);
    }

    #[test]
    fn concurrent_histogram_recording() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for node in 0..8 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        tel.record_value(node, "t", i);
                    }
                });
            }
        });
        assert_eq!(tel.snapshot().histogram_for_tag("t").count(), 800);
    }
}
