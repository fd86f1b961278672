//! Declarative service-level objectives with multi-window burn-rate
//! alerting, evaluated against the [`crate::timeseries`] history rings.
//!
//! ## Burn-rate math
//!
//! An [`SloSpec`] promises that a fraction `target` of request events
//! are *good* — served within the latency threshold. The **error
//! budget** is `1 − target`. Over a trailing window the **burn rate**
//! is
//!
//! ```text
//! burn = error_rate / error_budget
//!      = (1 − good/total) / (1 − target)
//! ```
//!
//! Burn 1.0 spends the budget exactly at the sustainable pace; burn
//! 14.4 on a 99% objective exhausts a 30-day budget in ~2 days. The
//! classic multi-window scheme fires only when a fast *and* a slow
//! window agree, so a single bad sample can't page and a slow leak
//! still alerts:
//!
//! - **page** when `burn(5m) ≥ 14.4` and `burn(1h) ≥ 14.4`
//! - **warn** when `burn(1h) ≥ 6` and `burn(6h) ≥ 6`
//!
//! The nominal 5m/1h/6h windows are scaled by `ring span / 6h` when the
//! configured ring retains less than six hours (the default 5 s × 512
//! ring spans ≈ 42.7 min, scaling the windows to ≈ 35 s / 7.1 min /
//! 42.7 min), and floored at three sampler ticks so a window always
//! holds enough samples to derive a rate.

use std::time::Duration;

use crate::timeseries::SeriesSnapshot;
use crate::Severity;

/// A serving objective: the fraction `target` of request events must be
/// good (served within `latency`, not expired/failed/rejected).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Latency threshold a served request must beat to count as good.
    pub latency: Duration,
    /// Target good fraction in `(0, 1)`, e.g. `0.99`
    /// (`TelemetryPlane::spawn` rejects anything else).
    pub target: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec { latency: Duration::from_millis(25), target: 0.99 }
    }
}

impl SloSpec {
    /// The error budget, `1 − target`.
    pub fn budget(&self) -> f64 {
        1.0 - self.target
    }
}

/// One burn-rate evaluation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurnWindow {
    /// Stable label (`5m`, `1h`, `6h`) — also the Prometheus `window`
    /// label value.
    pub label: &'static str,
    /// Nominal span before ring scaling.
    pub nominal: Duration,
}

/// The three burn windows, fast → slow.
pub const BURN_WINDOWS: [BurnWindow; 3] = [
    BurnWindow { label: "5m", nominal: Duration::from_secs(300) },
    BurnWindow { label: "1h", nominal: Duration::from_secs(3600) },
    BurnWindow { label: "6h", nominal: Duration::from_secs(21_600) },
];

/// Page when the fast and mid windows both burn at least this rate.
pub const PAGE_BURN: f64 = 14.4;

/// Warn when the mid and slow windows both burn at least this rate.
pub const WARN_BURN: f64 = 6.0;

/// Scales a nominal window to the configured ring: multiplied by
/// `min(1, span / 6h)`, floored at `3 × resolution` (so a rate is
/// always derivable), capped at the ring span.
pub fn scaled_window(nominal: Duration, span: Duration, resolution: Duration) -> Duration {
    let six_h = BURN_WINDOWS[2].nominal;
    let scale = (span.as_secs_f64() / six_h.as_secs_f64()).min(1.0);
    let scaled = nominal.mul_f64(scale);
    let floor = resolution.saturating_mul(3);
    scaled.max(floor).min(span.max(floor))
}

/// The result of evaluating an [`SloSpec`] at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// `(window label, burn rate)` fast → slow. Burn 0.0 when the
    /// window saw no events.
    pub burn: Vec<(&'static str, f64)>,
    /// Good fraction over the slow window (`1.0` when no traffic).
    pub availability: f64,
    /// `1 − burn(slow)`: fraction of the error budget left at the
    /// current slow-window pace. Negative when over budget.
    pub budget_remaining: f64,
    /// Events observed in the slow window.
    pub events: f64,
}

impl SloStatus {
    /// A quiet status (no traffic, no burn).
    pub fn idle() -> Self {
        SloStatus {
            burn: BURN_WINDOWS.iter().map(|w| (w.label, 0.0)).collect(),
            availability: 1.0,
            budget_remaining: 1.0,
            events: 0.0,
        }
    }
}

/// Evaluates `spec` from two counter series — cumulative good events
/// and cumulative total events — at `now_ns`, over the three burn
/// windows scaled to the ring geometry (`span`, `resolution`).
pub fn evaluate(
    good: &SeriesSnapshot,
    total: &SeriesSnapshot,
    spec: &SloSpec,
    span: Duration,
    resolution: Duration,
    now_ns: u64,
) -> SloStatus {
    let budget = spec.budget().max(f64::EPSILON);
    let mut burn = Vec::with_capacity(BURN_WINDOWS.len());
    let mut availability = 1.0;
    let mut events = 0.0;
    for (i, w) in BURN_WINDOWS.iter().enumerate() {
        let window = scaled_window(w.nominal, span, resolution);
        let g = good.increase(window, now_ns).unwrap_or(0.0).max(0.0);
        let t = total.increase(window, now_ns).unwrap_or(0.0).max(0.0);
        let error_rate = if t > 0.0 { (1.0 - g / t).clamp(0.0, 1.0) } else { 0.0 };
        burn.push((w.label, error_rate / budget));
        if i == BURN_WINDOWS.len() - 1 {
            availability = if t > 0.0 { (g / t).clamp(0.0, 1.0) } else { 1.0 };
            events = t;
        }
    }
    let budget_remaining = 1.0 - burn.last().map_or(0.0, |&(_, b)| b);
    SloStatus { burn, availability, budget_remaining, events }
}

/// Multi-window alert decision for a status: `Page` when fast and mid
/// both exceed [`PAGE_BURN`], else `Warn` when mid and slow both exceed
/// [`WARN_BURN`], else `None`. The returned string explains which
/// windows fired.
pub fn burn_severity(status: &SloStatus) -> Option<(Severity, String)> {
    let b = |i: usize| status.burn.get(i).map_or(0.0, |&(_, b)| b);
    let (fast, mid, slow) = (b(0), b(1), b(2));
    if fast >= PAGE_BURN && mid >= PAGE_BURN {
        return Some((
            Severity::Page,
            format!("burn {fast:.1}x ({}) and {mid:.1}x ({}) >= {PAGE_BURN}", "5m", "1h"),
        ));
    }
    if mid >= WARN_BURN && slow >= WARN_BURN {
        return Some((
            Severity::Warn,
            format!("burn {mid:.1}x ({}) and {slow:.1}x ({}) >= {WARN_BURN}", "1h", "6h"),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{SeriesKind, SeriesStore, TelemetryConfig};

    const SEC: u64 = 1_000_000_000;

    fn feed(goods: &[f64], totals: &[f64]) -> (SeriesSnapshot, SeriesSnapshot) {
        let st =
            SeriesStore::new(TelemetryConfig { resolution: Duration::from_secs(1), slots: 1024 });
        for (i, (&g, &t)) in goods.iter().zip(totals).enumerate() {
            st.record_at("good", SeriesKind::Counter, g, i as u64 * SEC);
            st.record_at("total", SeriesKind::Counter, t, i as u64 * SEC);
        }
        (st.snapshot("good").unwrap(), st.snapshot("total").unwrap())
    }

    fn spec() -> SloSpec {
        SloSpec { latency: Duration::from_millis(25), target: 0.99 }
    }

    #[test]
    fn window_scaling_tracks_ring_span() {
        let res = Duration::from_secs(5);
        let span = Duration::from_secs(5 * 512); // 2560 s
        let w = scaled_window(BURN_WINDOWS[0].nominal, span, res);
        // 300 s × (2560/21600) ≈ 35.6 s
        assert!((w.as_secs_f64() - 300.0 * 2560.0 / 21_600.0).abs() < 0.5, "{w:?}");
        // A ring longer than 6 h leaves windows nominal.
        let w = scaled_window(BURN_WINDOWS[1].nominal, Duration::from_secs(30_000), res);
        assert_eq!(w, BURN_WINDOWS[1].nominal);
        // Tiny rings floor at 3 ticks.
        let w = scaled_window(
            BURN_WINDOWS[0].nominal,
            Duration::from_secs(2),
            Duration::from_millis(100),
        );
        assert_eq!(w, Duration::from_millis(300));
    }

    #[test]
    fn clean_traffic_burns_nothing() {
        let goods: Vec<f64> = (0..20).map(|i| (i * 10) as f64).collect();
        let (g, t) = feed(&goods, &goods);
        let status =
            evaluate(&g, &t, &spec(), Duration::from_secs(100), Duration::from_secs(1), 19 * SEC);
        for &(label, b) in &status.burn {
            assert_eq!(b, 0.0, "window {label}");
        }
        assert_eq!(status.availability, 1.0);
        assert_eq!(status.budget_remaining, 1.0);
        assert!(status.events > 0.0);
        assert!(burn_severity(&status).is_none());
    }

    #[test]
    fn total_failure_burns_at_inverse_budget() {
        // Good flat, total climbing: error rate 1.0, burn = 1/0.01 = 100.
        let goods = vec![50.0; 20];
        let totals: Vec<f64> = (0..20).map(|i| 50.0 + (i * 10) as f64).collect();
        let (g, t) = feed(&goods, &totals);
        let status =
            evaluate(&g, &t, &spec(), Duration::from_secs(100), Duration::from_secs(1), 19 * SEC);
        for &(label, b) in &status.burn {
            assert!((b - 100.0).abs() < 1e-6, "window {label} burn {b}");
        }
        assert_eq!(status.availability, 0.0);
        assert!(status.budget_remaining < 0.0);
        let (sev, why) = burn_severity(&status).expect("pages");
        assert_eq!(sev, Severity::Page);
        assert!(why.contains("5m"), "{why}");
    }

    #[test]
    fn warn_fires_between_thresholds() {
        let mut status = SloStatus::idle();
        status.burn = vec![("5m", 2.0), ("1h", 8.0), ("6h", 7.0)];
        let (sev, _) = burn_severity(&status).expect("warns");
        assert_eq!(sev, Severity::Warn);
        // Fast-only spikes do not page (mid window disagrees).
        status.burn = vec![("5m", 50.0), ("1h", 1.0), ("6h", 0.5)];
        assert!(burn_severity(&status).is_none());
    }

    #[test]
    fn idle_series_evaluate_quiet() {
        let empty = SeriesSnapshot { kind: SeriesKind::Counter, samples: Vec::new() };
        let status = evaluate(
            &empty,
            &empty.clone(),
            &spec(),
            Duration::from_secs(100),
            Duration::from_secs(1),
            0,
        );
        assert_eq!(status, SloStatus::idle());
    }

    #[test]
    fn default_spec_is_25ms_at_99_percent() {
        let s = SloSpec::default();
        assert_eq!(s.latency, Duration::from_millis(25));
        assert!((s.target - 0.99).abs() < 1e-12);
        assert!((s.budget() - 0.01).abs() < 1e-12);
    }
}
