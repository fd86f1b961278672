//! Human- and tool-facing views of the flight recorder: Chrome
//! trace-event JSON for `GET /trace?id=` and the plain-text recent-
//! requests listing for `GET /debug/requests`.

use crate::{
    completions, service_events, slow_exemplars, Completion, Event, EventKind, SLOW_THRESHOLD_MS,
};

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Appends the span-specific `args` object. The `a`/`b` payload slots
/// are named per span so the JSON reads meaningfully in Perfetto.
fn push_args(out: &mut String, e: &Event) {
    out.push_str(",\"args\":{");
    match e.name {
        "forward" => {
            out.push_str(&format!("\"steps\":{},\"macs\":{}", e.a, e.b));
        }
        "execute" => {
            out.push_str(&format!("\"batch\":{},\"mean_spike_density\":", e.a));
            push_f64(out, f64::from_bits(e.b));
        }
        "queue_wait" => {
            out.push_str(&format!("\"priority\":{},\"tenant\":{}", e.a, e.b));
        }
        "batch_form" => {
            out.push_str(&format!("\"batch\":{},\"closed\":\"{}\"", e.a, close_reason(e.b)));
        }
        "rejected" => {
            out.push_str(&format!("\"reason\":\"{}\",\"tenant\":{}", reject_reason(e.a), e.b));
        }
        _ => {
            out.push_str(&format!("\"a\":{},\"b\":{}", e.a, e.b));
        }
    }
    out.push('}');
}

/// Rejection reason code carried in a `rejected` event's `a` payload.
pub fn reject_reason(code: u64) -> &'static str {
    match code {
        1 => "saturated",
        2 => "rate_limited",
        _ => "unknown",
    }
}

/// Why the batch closed: the code carried in a `batch_form` span's `b`
/// payload (the scheduler's close reason, by index) as a stable lowercase
/// label — also the `reason` label of `ttsnn_batch_close_total`.
pub fn close_reason(code: u64) -> &'static str {
    match code {
        0 => "full",
        1 => "accounted",
        2 => "window",
        3 => "stream",
        4 => "shutdown",
        _ => "unknown",
    }
}

/// Renders one request's events as Chrome trace-event JSON (the
/// `traceEvents` array format), loadable in `chrome://tracing` or
/// Perfetto. Spans become complete (`ph:"X"`) events, instants become
/// `ph:"i"`; timestamps are microseconds since the trace epoch.
pub fn chrome_trace_json(trace: u64, events: &[Event]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"trace_id\":\"");
    out.push_str(&trace.to_string());
    out.push_str("\"},\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.start_ns as f64 / 1e3;
        match e.kind {
            EventKind::Span => {
                let dur = e.dur_ns as f64 / 1e3;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":1,\"tid\":1",
                    e.name
                ));
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts},\"pid\":1,\"tid\":1",
                    e.name
                ));
            }
        }
        push_args(&mut out, e);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

fn completion_line(out: &mut String, now_ns: u64, c: &Completion) {
    out.push_str(&format!(
        "  trace={} tenant={} status={} total={} age={:.1}s\n",
        c.trace,
        c.tenant,
        c.status,
        fmt_ms(c.total_ns),
        now_ns.saturating_sub(c.end_ns) as f64 / 1e9,
    ));
}

/// Renders the flight recorder as the `GET /debug/requests` text page:
/// recent completions (admission rejections included) newest first,
/// then the pinned slow exemplars.
pub fn debug_requests_text() -> String {
    let now = crate::now_ns();
    let recent = completions();
    let slow = slow_exemplars();
    let mut out = String::new();
    out.push_str(&format!(
        "recent requests ({} of last {}):\n",
        recent.len(),
        crate::RECENT_COMPLETIONS
    ));
    if recent.is_empty() {
        out.push_str("  (none)\n");
    }
    for c in &recent {
        completion_line(&mut out, now, c);
    }
    out.push_str(&format!(
        "slow exemplars (>= {SLOW_THRESHOLD_MS}ms, {} pinned, cap {}):\n",
        slow.len(),
        crate::SLOW_EXEMPLARS
    ));
    if slow.is_empty() {
        out.push_str("  (none)\n");
    }
    for c in &slow {
        completion_line(&mut out, now, c);
    }
    let service = service_events();
    out.push_str(&format!(
        "service events ({} of last {}):\n",
        service.len(),
        crate::SERVICE_EVENTS
    ));
    if service.is_empty() {
        out.push_str("  (none)\n");
    }
    for e in &service {
        out.push_str(&format!(
            "  [{}] {:.1}s ago {}: {}\n",
            e.severity.as_str(),
            now.saturating_sub(e.at_ns) as f64 / 1e9,
            e.scope,
            e.message,
        ));
    }
    out.push_str("fetch one trace as Chrome trace-event JSON: GET /trace?id=<trace>\n");
    out
}

/// Eight-level Unicode block sparkline of `values`, min-max normalized;
/// non-finite values render as spaces. The `GET /debug/timeline` view.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if max <= min {
                BLOCKS[0]
            } else {
                let norm = (v - min) / (max - min);
                BLOCKS[((norm * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_names_span_args() {
        let events = [
            Event {
                trace: 9,
                name: "forward",
                kind: EventKind::Span,
                start_ns: 1_500,
                dur_ns: 2_000,
                a: 3,
                b: 4096,
            },
            Event {
                trace: 9,
                name: "rejected",
                kind: EventKind::Instant,
                start_ns: 9_000,
                dur_ns: 0,
                a: 1,
                b: 7,
            },
        ];
        let json = chrome_trace_json(9, &events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"forward\""));
        assert!(json.contains("\"steps\":3,\"macs\":4096"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"reason\":\"saturated\",\"tenant\":7"));
        // Microsecond timestamps.
        assert!(json.contains("\"ts\":1.5"));
    }

    #[test]
    fn density_bits_render_as_number_or_null() {
        let mk = |b: u64| Event {
            trace: 1,
            name: "execute",
            kind: EventKind::Span,
            start_ns: 0,
            dur_ns: 1,
            a: 2,
            b,
        };
        let json = chrome_trace_json(1, &[mk(0.25f64.to_bits())]);
        assert!(json.contains("\"mean_spike_density\":0.25"));
        let json = chrome_trace_json(1, &[mk(f64::NAN.to_bits())]);
        assert!(json.contains("\"mean_spike_density\":null"));
    }

    #[test]
    fn batch_form_names_its_close_reason() {
        let mk = |b: u64| Event {
            trace: 1,
            name: "batch_form",
            kind: EventKind::Span,
            start_ns: 0,
            dur_ns: 1,
            a: 2,
            b,
        };
        let json = chrome_trace_json(1, &[mk(1)]);
        assert!(json.contains("\"batch\":2,\"closed\":\"accounted\""), "{json}");
        let labels: Vec<&str> = (0..6).map(close_reason).collect();
        assert_eq!(labels, ["full", "accounted", "window", "stream", "shutdown", "unknown"]);
    }

    #[test]
    fn debug_text_always_has_all_sections() {
        let text = debug_requests_text();
        assert!(text.contains("recent requests"));
        assert!(text.contains("slow exemplars"));
        assert!(text.contains("service events"));
    }

    #[test]
    fn sparkline_normalizes_and_survives_nan() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[3.0, 3.0]), "▁▁");
        let s = sparkline(&[0.0, 3.5, 7.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        let s = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(s.chars().nth(1), Some(' '));
    }
}
