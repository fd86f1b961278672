//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into the program's public
//! functions; nothing inside the program is touched. Each load-generating
//! thread owns a [`Tracer`] (no sharing, no locks on the hot path); the
//! spans are merged after the round and written out as Chrome
//! trace-event JSON when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`"backward"`, `"send_raw"`, ...).
    pub name: &'static str,
    /// The operation (step / request / stream) the span belongs to;
    /// spans of one operation share it.
    pub op_id: u64,
    /// Name of the enclosing span, `None` for an operation's root.
    pub parent: Option<&'static str>,
    /// Recording thread (client index).
    pub thread: usize,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread recorder. Disabled, [`Tracer::span`] is one branch around
/// the call.
pub struct Tracer {
    spans: Option<Vec<Span>>,
    epoch: Instant,
    thread: usize,
}

impl Tracer {
    /// A recorder that records nothing (the untraced rounds).
    pub fn off() -> Self {
        Tracer { spans: None, epoch: Instant::now(), thread: 0 }
    }

    /// A recording tracer for client `thread`, timing against `epoch`
    /// (shared by every thread of a run so their spans line up).
    pub fn on(epoch: Instant, thread: usize) -> Self {
        Tracer { spans: Some(Vec::new()), epoch, thread }
    }

    /// Runs `f`, recording it as span `name` of operation `op_id` under
    /// `parent` when recording is on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(spans) = self.spans.as_mut() else {
            return f();
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span { name, op_id, parent, thread: self.thread, start_ns, end_ns });
        result
    }

    /// Records an operation's root span after the fact, from the instant
    /// the operation began to now. The workloads time every operation
    /// with one `Instant` anyway; this reuses it.
    pub fn root(&mut self, name: &'static str, op_id: u64, began: Instant) {
        if let Some(spans) = self.spans.as_mut() {
            let start_ns = began.saturating_duration_since(self.epoch).as_nanos() as u64;
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            spans.push(Span { name, op_id, parent: None, thread: self.thread, start_ns, end_ns });
        }
    }

    /// The recorded spans (empty when off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, microsecond timestamps, the operation id
/// and parent in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.thread as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("parent", s.parent.map_or(Json::Null, Json::str)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 1, None, || 41 + 1), 42);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_inside_their_root_and_export_as_chrome_events() {
        let epoch = Instant::now();
        let mut t = Tracer::on(epoch, 3);
        let began = Instant::now();
        t.span("child", 7, Some("op"), || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.root("op", 7, began);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(child.ms() >= 2.0);

        let doc = Json::parse(&chrome_trace(&spans).encode()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(events[0].get("args").unwrap().get("op_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(events[0].get("args").unwrap().get("parent").unwrap().as_str(), Some("op"));
    }
}
