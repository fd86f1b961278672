//! In-process time-series history: fixed-capacity ring windows behind
//! the telemetry sampler, with Prometheus-style counter increases.
//!
//! The serving plane's `/metrics` page is a point-in-time snapshot; this
//! module is what turns those snapshots into *history* without any
//! external scraper. A background sampler (in `ttsnn_serve::telemetry`)
//! calls [`SeriesStore::record`] once per tick per series; each series
//! is an overwrite-oldest ring of `(timestamp, value)` samples, so the
//! whole store is bounded at `slots × MAX_SERIES` samples no matter how
//! long the process runs.
//!
//! Counter math follows Prometheus `increase()` semantics: a sample lower
//! than its predecessor marks a **counter reset** (restart), and the
//! post-reset value counts as the increase since the reset — history is
//! never negative and never double-counted. [`tick_increases`] is that
//! rule, written once: [`SeriesSnapshot::increase`] sums it and
//! `/debug/timeline` plots it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Upper bound on distinct series names a [`SeriesStore`] tracks.
/// Records against new names beyond the cap are dropped (existing
/// series keep updating), so a misbehaving caller cannot grow the store
/// without bound. Generous: a plan contributes ~15 series and stage
/// histograms ~12 more.
pub const MAX_SERIES: usize = 512;

/// Ring geometry for the telemetry plane. Resolution is the sampler tick
/// period (nonzero: `TelemetryPlane::spawn` rejects zero); `slots` is the
/// per-series ring capacity, so `resolution × slots` is the retained span
/// (defaults: 5 s × 512 ≈ 42.7 min).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sampler tick period (ring slot width).
    pub resolution: Duration,
    /// Per-series ring capacity, in samples.
    pub slots: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { resolution: Duration::from_secs(5), slots: 512 }
    }
}

impl TelemetryConfig {
    /// The span of history one full ring covers.
    pub fn span(&self) -> Duration {
        self.resolution.saturating_mul(self.slots as u32)
    }
}

/// How a series' samples combine over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic cumulative count; reads derive counter-reset-aware
    /// increases ([`tick_increases`]).
    Counter,
    /// Instantaneous level; reads take the raw values.
    Gauge,
}

/// One `(timestamp, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds since the trace epoch ([`crate::now_ns`]).
    pub at_ns: u64,
    /// Observed value.
    pub value: f64,
}

/// A fixed-capacity overwrite-oldest sample ring.
#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    buf: Vec<Sample>,
    head: usize,
    capacity: usize,
}

impl Series {
    fn new(kind: SeriesKind, capacity: usize) -> Self {
        Series { kind, buf: Vec::new(), head: 0, capacity: capacity.max(1) }
    }

    fn push(&mut self, s: Sample) {
        if self.buf.len() < self.capacity {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Samples oldest → newest.
    fn ordered(&self) -> Vec<Sample> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }
}

/// The increase of a counter at each tick after the first, oldest →
/// newest: `next − prev`, or `next` itself where the counter dropped
/// (a reset — the post-reset value is the increase since it).
pub fn tick_increases(samples: &[Sample]) -> impl Iterator<Item = f64> + '_ {
    samples.windows(2).map(|pair| {
        let (prev, next) = (pair[0].value, pair[1].value);
        if next >= prev {
            next - prev
        } else {
            next
        }
    })
}

/// A read-side copy of one series: kind plus samples oldest → newest.
/// Derived statistics are computed on this snapshot so readers never
/// hold the store lock while crunching.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// Samples oldest → newest.
    pub samples: Vec<Sample>,
}

impl SeriesSnapshot {
    /// The newest sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Counter increase over the trailing `window` ending at `now_ns`:
    /// the [`tick_increases`] of the samples with `at_ns` in
    /// `[now_ns - window, now_ns]`, summed oldest first. A window that
    /// holds a single sample borrows the one just before it as baseline
    /// (sparse rings). `None` when the window holds no samples, or a
    /// single sample with no earlier baseline.
    pub fn increase(&self, window: Duration, now_ns: u64) -> Option<f64> {
        let start = now_ns.saturating_sub(window.as_nanos() as u64);
        let (lo, hi) = (self.samples.partition_point(|s| s.at_ns < start), self.samples.len());
        let lo = match hi - lo {
            0 => return None,
            1 if lo == 0 => return None,
            1 => lo - 1,
            _ => lo,
        };
        Some(tick_increases(&self.samples[lo..hi]).fold(0.0, |total, inc| total + inc))
    }
}

/// A bounded, named collection of series rings. One per telemetry
/// plane; writers ([`SeriesStore::record`]) and readers
/// ([`SeriesStore::snapshot`]) share a single mutex — fine for a
/// once-per-tick sampler and debug-endpoint readers.
#[derive(Debug)]
pub struct SeriesStore {
    slots: usize,
    series: Mutex<BTreeMap<String, Series>>,
}

impl SeriesStore {
    /// An empty store whose rings hold `config.slots` samples each.
    pub fn new(config: TelemetryConfig) -> Self {
        SeriesStore { slots: config.slots, series: Mutex::new(BTreeMap::new()) }
    }

    /// Records `value` for `name` at the current time ([`crate::now_ns`]).
    pub fn record(&self, name: &str, kind: SeriesKind, value: f64) {
        self.record_at(name, kind, value, crate::now_ns());
    }

    /// Records with an explicit timestamp (tests and replays).
    pub fn record_at(&self, name: &str, kind: SeriesKind, value: f64, at_ns: u64) {
        let mut map = self.series.lock().unwrap_or_else(|p| p.into_inner());
        if !map.contains_key(name) {
            if map.len() >= MAX_SERIES {
                return;
            }
            map.insert(name.to_string(), Series::new(kind, self.slots));
        }
        let series = map.get_mut(name).expect("just inserted");
        series.push(Sample { at_ns, value });
    }

    /// Snapshot of one series, or `None` if untracked.
    pub fn snapshot(&self, name: &str) -> Option<SeriesSnapshot> {
        let map = self.series.lock().unwrap_or_else(|p| p.into_inner());
        map.get(name).map(|s| SeriesSnapshot { kind: s.kind, samples: s.ordered() })
    }

    /// All tracked series names (sorted) with their newest sample.
    pub fn names(&self) -> Vec<(String, SeriesKind, Option<Sample>)> {
        let map = self.series.lock().unwrap_or_else(|p| p.into_inner());
        map.iter().map(|(n, s)| (n.clone(), s.kind, s.ordered().last().copied())).collect()
    }

    /// Number of tracked series.
    pub fn len(&self) -> usize {
        self.series.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether no series are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(slots: usize) -> SeriesStore {
        SeriesStore::new(TelemetryConfig { resolution: Duration::from_secs(1), slots })
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let st = store(8);
        for i in 0..20u64 {
            st.record_at("s", SeriesKind::Gauge, i as f64, i * SEC);
        }
        let snap = st.snapshot("s").unwrap();
        assert_eq!(snap.samples.len(), 8);
        // Oldest → newest, and only the last 8 survive.
        let vals: Vec<f64> = snap.samples.iter().map(|s| s.value).collect();
        assert_eq!(vals, (12..20).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(snap.last().unwrap().value, 19.0);
    }

    #[test]
    fn increase_handles_counter_resets() {
        let st = store(16);
        // 0 → 10 → 25, restart, 3 → 9: increase = 25 + 3 + 6 = 34.
        for (i, v) in [0.0, 10.0, 25.0, 3.0, 9.0].into_iter().enumerate() {
            st.record_at("c", SeriesKind::Counter, v, i as u64 * SEC);
        }
        let snap = st.snapshot("c").unwrap();
        let inc = snap.increase(Duration::from_secs(100), 4 * SEC).unwrap();
        assert!((inc - 34.0).abs() < 1e-9, "increase {inc}");
        // The per-tick increases the timeline plots, reset included.
        let ticks: Vec<f64> = tick_increases(&snap.samples).collect();
        assert_eq!(ticks, [10.0, 15.0, 3.0, 6.0]);
    }

    #[test]
    fn increase_window_keeps_one_baseline_sample() {
        let st = store(16);
        for (i, v) in [5.0, 7.0, 12.0].into_iter().enumerate() {
            st.record_at("c", SeriesKind::Counter, v, i as u64 * SEC);
        }
        let snap = st.snapshot("c").unwrap();
        // Window covers the last two samples: increase = 12 - 7.
        let inc = snap.increase(Duration::from_millis(1500), 2 * SEC).unwrap();
        assert!((inc - 5.0).abs() < 1e-9, "increase {inc}");
        // Window covering only the newest sample borrows the one just
        // before it as baseline (sparse-ring read): 12 - 7 again.
        let inc = snap.increase(Duration::from_millis(500), 2 * SEC).unwrap();
        assert!((inc - 5.0).abs() < 1e-9, "increase {inc}");
        // A window covering nothing yields None.
        assert!(snap.increase(Duration::from_secs(1), 100 * SEC).is_none());
    }

    #[test]
    fn store_is_bounded_at_max_series() {
        let st = store(4);
        for i in 0..(MAX_SERIES + 10) {
            st.record_at(&format!("s{i}"), SeriesKind::Gauge, 1.0, 0);
        }
        assert_eq!(st.len(), MAX_SERIES);
        // Existing series keep recording even at the cap.
        st.record_at("s0", SeriesKind::Gauge, 2.0, SEC);
        assert_eq!(st.snapshot("s0").unwrap().last().unwrap().value, 2.0);
        // The overflow name was dropped, not tracked.
        assert!(st.snapshot(&format!("s{}", MAX_SERIES + 5)).is_none());
    }

    #[test]
    fn config_defaults_and_span() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.resolution, Duration::from_secs(5));
        assert_eq!(cfg.slots, 512);
        assert_eq!(cfg.span(), Duration::from_secs(5 * 512));
    }
}
