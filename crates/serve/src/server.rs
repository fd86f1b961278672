//! The TCP ingress: an accept loop feeding a fixed worker-thread pool,
//! std-only (no async runtime).
//!
//! Each worker owns one connection at a time and speaks **either** side
//! of a first-bytes discrimination: bytes `"GET "` open a minimal
//! HTTP/1.1 exchange (`/metrics`, `/healthz`, `/debug/requests`,
//! `/trace?id=`; one request, then close), anything else is the
//! length-prefixed binary protocol of [`crate::wire`] — a long-lived
//! connection serving one request frame at a time.
//!
//! Every binary request is traced (unless `TTSNN_TRACE=off`): a trace id
//! is minted at decode when the client sent 0, threaded through the
//! scheduler via `SubmitOptions::with_trace`, and echoed in the
//! response. The server records the `admit`, `serialize`, and `write`
//! stage spans itself; `queue_wait`, `batch_form`, and `execute` (with
//! its `forward` child) come from `ttsnn_infer`. The completed
//! lifecycle lands in the `ttsnn_obs` flight recorder, browsable at
//! `GET /debug/requests` and exportable as Chrome trace-event JSON at
//! `GET /trace?id=<trace>`.
//!
//! Admission is **fail-fast**: requests go through
//! `ClusterSession::try_submit_with`, so saturation and rate-limit
//! rejections come back immediately as retryable wire statuses carrying
//! the scheduler's structured retry-after hint instead of blocking the
//! socket (the overload-control half of the serving plane; see
//! `ttsnn_infer::sched`).
//!
//! Shutdown: dropping the [`Server`] flips a shared flag, nudges the
//! accept loop awake with a self-connection, and joins every thread;
//! workers poll the flag between frames (reads carry a short timeout),
//! so live connections drain within one poll interval.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ttsnn_infer::{InferError, SubmitError, SubmitOptions};
use ttsnn_obs::watchdog::{HealthReport, HealthState};
use ttsnn_obs::Stage;

use crate::prom;
use crate::router::Router;
use crate::telemetry::{self, PlanSource, TelemetryOptions, TelemetryPlane, TelemetryShared};
use crate::wire::{self, Frame, FrameReadError, Request, Response, Status};

/// Listener and pool knobs, set in code.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (default `127.0.0.1:0` — an OS-assigned port, read
    /// back via [`Server::addr`]).
    pub addr: String,
    /// Worker threads = concurrently served connections (default 4).
    pub workers: usize,
    /// Largest accepted frame body; oversized frames are drained and
    /// answered with a [`Status::Malformed`] response.
    pub max_frame_bytes: usize,
    /// Socket read timeout — the shutdown-poll interval for idle
    /// connections.
    pub read_timeout: Duration,
    /// The continuous telemetry plane: sampler geometry, SLO, and
    /// watchdog thresholds.
    pub telemetry: TelemetryOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_millis(250),
            telemetry: TelemetryOptions::default(),
        }
    }
}

/// A running serving-plane listener; dropping it shuts the plane down
/// and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    // Dropped after the worker threads join (declaration order), so no
    // HTTP reader can observe a stopped sampler mid-request.
    telemetry: TelemetryPlane,
}

impl Server {
    /// Binds the listener and starts the accept loop plus
    /// `config.workers` worker threads over `router`'s mounted plans.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures; `InvalidInput` for zero workers or
    /// telemetry options [`TelemetryPlane::spawn`] rejects.
    pub fn bind(config: ServerConfig, router: Router) -> io::Result<Server> {
        if config.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ServerConfig.workers must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let started = Instant::now();
        let shutdown = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);
        // The telemetry sampler pulls each plan's metrics through the
        // same snapshot path a `/metrics` scrape uses.
        let sources: Vec<PlanSource> = router
            .plan_names()
            .into_iter()
            .map(|name| {
                let name = name.to_string();
                let router = Arc::clone(&router);
                PlanSource {
                    name: name.clone(),
                    metrics: Box::new(move || {
                        router.cluster(&name).expect("mounted plan").metrics()
                    }),
                }
            })
            .collect();
        let plane = TelemetryPlane::spawn(config.telemetry.clone(), sources)?;
        let telemetry_shared = plane.shared();
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = Arc::clone(&rx);
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            let cfg = config.clone();
            let telemetry = Arc::clone(&telemetry_shared);
            workers.push(
                std::thread::Builder::new().name(format!("ttsnn-serve-worker-{i}")).spawn(
                    move || worker_loop(&rx, &router, &shutdown, &cfg, started, &telemetry),
                )?,
            );
        }
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("ttsnn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &tx, &shutdown))?
        };
        Ok(Server { addr, shutdown, accept: Some(accept), workers, telemetry: plane })
    }

    /// The bound address (resolves the OS-assigned port of `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry plane's shared state (history rings, SLO status,
    /// tick counter). The `Arc` stays readable after the server drops;
    /// its tick counter stops advancing once the sampler joins.
    pub fn telemetry(&self) -> Arc<TelemetryShared> {
        self.telemetry.shared()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<TcpStream>, shutdown: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return; // tx drops here; idle workers drain out
                }
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    router: &Router,
    shutdown: &AtomicBool,
    cfg: &ServerConfig,
    started: Instant,
    telemetry: &TelemetryShared,
) {
    loop {
        let next = {
            let rx = rx.lock().expect("connection queue lock");
            rx.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(stream) => handle_connection(stream, router, shutdown, cfg, started, telemetry),
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// How long a fresh connection gets to produce its first 4 bytes. A
/// well-behaved client sends them in one packet; a peer that trickles
/// 1–3 bytes and stalls would otherwise pin a worker forever (peeked
/// data is buffered, so the read timeout never fires on it).
const SNIFF_DEADLINE: Duration = Duration::from_secs(2);

/// Peeks until 4 bytes are visible (or the peer hangs up) to decide
/// HTTP vs binary without consuming anything. Gives up — dropping the
/// connection — on shutdown or once [`SNIFF_DEADLINE`] passes.
fn sniff(stream: &TcpStream, shutdown: &AtomicBool) -> io::Result<Option<[u8; 4]>> {
    let mut first = [0u8; 4];
    let deadline = Instant::now() + SNIFF_DEADLINE;
    loop {
        if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return Ok(None);
        }
        match stream.peek(&mut first) {
            Ok(0) => return Ok(None),
            Ok(n) if n >= 4 => return Ok(Some(first)),
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    cfg: &ServerConfig,
    started: Instant,
    telemetry: &TelemetryShared,
) {
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    match sniff(&stream, shutdown) {
        Ok(Some(first)) if &first == b"GET " => serve_http(stream, router, started, telemetry),
        Ok(Some(_)) => serve_binary(stream, router, shutdown, cfg),
        _ => {}
    }
}

/// One HTTP/1.1 request, then close (`Connection: close`): `/metrics`
/// renders the Prometheus page (cluster, process, and telemetry
/// families), `/healthz` answers readiness probes with a JSON body —
/// 503 with the watchdog's reason when any plan is `Unhealthy` —
/// `/debug/requests` dumps the flight recorder, `/debug/slo` the
/// burn-rate dashboard, `/debug/timeline?series=` the history rings,
/// and `/trace?id=<trace>` exports one request as Chrome trace-event
/// JSON.
fn serve_http(mut stream: TcpStream, router: &Router, started: Instant, tele: &TelemetryShared) {
    // Read until the end of the headers (we ignore them) with an 8 KiB
    // cap — a scrape request is tiny.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let request_line = match std::str::from_utf8(&buf).ok().and_then(|s| s.lines().next()) {
        Some(l) => l,
        None => return,
    };
    let target = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    const TEXT: &str = "text/plain; charset=utf-8";
    const JSON: &str = "application/json";
    let (status, content_type, body) = match path {
        "/metrics" => {
            let mut page = prom::render(&router.metrics());
            page.push_str(&prom::render_process(started.elapsed()));
            page.push_str(&prom::render_telemetry(&plan_health(router, tele), &tele.plan_status()));
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", page)
        }
        "/healthz" => {
            let (status, body) = healthz_body(router, tele, started, query);
            (status, JSON, body)
        }
        "/debug/requests" => ("200 OK", TEXT, ttsnn_obs::debug_requests_text()),
        "/debug/slo" => {
            ("200 OK", TEXT, telemetry::debug_slo_text(tele, &plan_health(router, tele)))
        }
        "/debug/timeline" => {
            let series = query.split('&').find_map(|kv| kv.strip_prefix("series="));
            match telemetry::timeline_text(tele, series) {
                Ok(body) => ("200 OK", TEXT, body),
                Err(body) => ("404 Not Found", TEXT, body),
            }
        }
        "/trace" => match trace_body(query) {
            Some(body) => ("200 OK", JSON, body),
            None => ("404 Not Found", TEXT, "no such trace (usage: /trace?id=<trace>)\n".into()),
        },
        _ => ("404 Not Found", TEXT, "not found\n".into()),
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// The `/healthz` readiness body and status line: liveness plus
/// per-plan replica counts, queue depths, and watchdog health,
/// hand-built JSON (plan names and reasons are escaped through the same
/// rules as Prometheus label values, which cover `"` and `\`).
///
/// Wired to the telemetry watchdog: any `Unhealthy` plan flips the
/// probe to `503 Service Unavailable` with the watchdog's reason in the
/// body; `Degraded` keeps answering 200 (the plan still serves) with
/// `"status":"degraded"`. `?verbose=1` adds each plan's reason and
/// health detail.
fn healthz_body(
    router: &Router,
    tele: &TelemetryShared,
    started: Instant,
    query: &str,
) -> (&'static str, String) {
    let verbose = query.split('&').any(|kv| kv == "verbose=1" || kv == "verbose");
    let health = plan_health(router, tele);
    let worst = health.iter().map(|(_, r)| r.state).max().unwrap_or(HealthState::Healthy);
    let status = match worst {
        HealthState::Healthy => "ok",
        HealthState::Degraded => "degraded",
        HealthState::Unhealthy => "unhealthy",
    };
    let mut body = format!("{{\"status\":\"{status}\"");
    if worst == HealthState::Unhealthy {
        if let Some((plan, report)) = health.iter().find(|(_, r)| r.state == HealthState::Unhealthy)
        {
            body.push_str(&format!(
                ",\"reason\":\"{}: {}\"",
                prom::escape_label(plan),
                prom::escape_label(&report.reason)
            ));
        }
    }
    body.push_str(&format!(",\"uptime_seconds\":{},\"plans\":[", started.elapsed().as_secs()));
    for (i, (plan, m)) in router.metrics().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let report = tele.health(plan);
        body.push_str(&format!(
            "{{\"name\":\"{}\",\"replicas\":{},\"queue_depth\":{},\"health\":\"{}\"",
            prom::escape_label(plan),
            m.replicas,
            m.queue_depth,
            report.state.as_str()
        ));
        if verbose {
            body.push_str(&format!(
                ",\"reason\":\"{}\",\"outstanding\":{}",
                prom::escape_label(&report.reason),
                m.outstanding
            ));
        }
        body.push('}');
    }
    body.push_str("]}\n");
    let code = if worst == HealthState::Unhealthy { "503 Service Unavailable" } else { "200 OK" };
    (code, body)
}

/// Every mounted plan's current watchdog verdict, plan-name order — one
/// per plan from the first request on, whether or not the sampler ticked.
fn plan_health(router: &Router, tele: &TelemetryShared) -> Vec<(String, HealthReport)> {
    router.plan_names().into_iter().map(|name| (name.to_string(), tele.health(name))).collect()
}

/// Resolves a `/trace?id=<trace>` query to its Chrome trace-event JSON
/// export, or `None` when the id is absent, unparsable, or no longer in
/// any ring buffer.
fn trace_body(query: &str) -> Option<String> {
    let id = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("id="))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v != 0)?;
    let events = ttsnn_obs::trace_events(id);
    if events.is_empty() {
        return None;
    }
    Some(ttsnn_obs::chrome_trace_json(id, &events))
}

/// The binary request loop: one frame in, one frame out, until EOF or
/// shutdown. Malformed and oversized frames are answered in-band and the
/// connection survives; only I/O failures (including a timeout that
/// strikes mid-frame) drop it.
fn serve_binary(mut stream: TcpStream, router: &Router, shutdown: &AtomicBool, cfg: &ServerConfig) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Per-frame trace bookkeeping; all zero for untraced / malformed
        // frames, which keeps every obs call below a no-op.
        let mut trace = 0u64;
        let mut tenant = 0u32;
        let mut recv_ns = 0u64;
        let response = match wire::read_frame(&mut stream, cfg.max_frame_bytes) {
            Ok(None) => return,
            Ok(Some(body)) => match wire::decode_frame(&body, cfg.max_frame_bytes) {
                Ok(Frame::Request(mut req)) => {
                    if req.trace == 0 && ttsnn_obs::enabled() {
                        req.trace = ttsnn_obs::next_trace_id();
                    }
                    trace = req.trace;
                    tenant = req.tenant;
                    recv_ns = if trace != 0 { ttsnn_obs::now_ns() } else { 0 };
                    process(req, router)
                }
                Ok(Frame::Response(_)) => {
                    Response::error(Status::Malformed, 0, "unexpected response frame")
                }
                Err(e) => Response::error(Status::Malformed, 0, e.to_string()),
            },
            Err(FrameReadError::Oversized { declared, max }) => Response::error(
                Status::Malformed,
                0,
                format!("frame of {declared} bytes exceeds the {max}-byte limit"),
            ),
            // Idle between frames: poll shutdown and re-arm. A timeout
            // that struck mid-frame surfaces as Io and drops the
            // connection — the stream is desynced.
            Err(FrameReadError::IdleTimeout) => continue,
            Err(FrameReadError::Io(_)) => return,
        };
        let response = response.with_trace(trace);
        let ser_start = if trace != 0 { ttsnn_obs::now_ns() } else { 0 };
        let frame = wire::encode_response(&response);
        let bytes = frame.len() as u64;
        if trace != 0 {
            let dur = ttsnn_obs::now_ns().saturating_sub(ser_start);
            ttsnn_obs::record_stage_span(trace, Stage::Serialize, ser_start, dur, bytes, 0);
        }
        let write_start = if trace != 0 { ttsnn_obs::now_ns() } else { 0 };
        if stream.write_all(&frame).is_err() {
            return;
        }
        if trace != 0 {
            let end = ttsnn_obs::now_ns();
            let dur = end.saturating_sub(write_start);
            ttsnn_obs::record_stage_span(trace, Stage::Write, write_start, dur, bytes, 0);
            // Admission rejections already landed in the recorder from
            // the scheduler (with their structured reason); everything
            // else completes here, after the reply bytes are on the wire.
            if !response.status.is_retryable() {
                let status = completion_status(response.status);
                ttsnn_obs::record_completion(trace, tenant, status, end.saturating_sub(recv_ns));
            }
        }
    }
}

/// Flight-recorder status label for a completed (non-rejected) request.
fn completion_status(status: Status) -> &'static str {
    match status {
        Status::Ok => "served",
        Status::Shape => "shape_error",
        Status::DeadlineExpired => "expired",
        Status::Saturated => "rejected_saturated",
        Status::RateLimited => "rejected_rate_limited",
        Status::UnknownPlan => "unknown_plan",
        Status::Closed => "closed",
        Status::Malformed => "malformed",
        Status::Internal => "internal",
    }
}

fn retry_ms(d: Duration) -> u32 {
    d.as_millis().min(u32::MAX as u128).max(1) as u32
}

/// Routes one decoded request through its plan's scheduler and waits for
/// the reply, mapping every failure to its wire status.
fn process(req: Request, router: &Router) -> Response {
    let trace = req.trace;
    let admit_start = if trace != 0 { ttsnn_obs::now_ns() } else { 0 };
    let session = match router.session(&req.plan) {
        Some(s) => s,
        None => return Response::error(Status::UnknownPlan, 0, format!("no plan {:?}", req.plan)),
    };
    let mut opts = SubmitOptions::priority(req.priority).with_tenant(req.tenant).with_trace(trace);
    if req.deadline_ms > 0 {
        opts = opts.with_deadline(Duration::from_millis(u64::from(req.deadline_ms)));
    }
    let priority = req.priority;
    let submitted = session.try_submit_with(req.input, opts);
    if trace != 0 {
        let dur = ttsnn_obs::now_ns().saturating_sub(admit_start);
        let (a, b) = (priority.index() as u64, u64::from(req.tenant));
        ttsnn_obs::record_stage_span(trace, Stage::Admit, admit_start, dur, a, b);
    }
    let ticket = match submitted {
        Ok(t) => t,
        Err(SubmitError::Saturated(info)) => {
            return Response::error(
                Status::Saturated,
                retry_ms(info.retry_after),
                format!("queue saturated (tenant {}, {:?})", info.tenant, info.priority),
            )
        }
        Err(SubmitError::RateLimited(info)) => {
            return Response::error(
                Status::RateLimited,
                retry_ms(info.retry_after),
                format!("tenant {} over its rate limit", info.tenant),
            )
        }
        Err(SubmitError::Closed) => {
            return Response::error(Status::Closed, 0, "serving cluster has shut down")
        }
    };
    match ticket.wait() {
        Ok(logits) => Response::ok(logits.data().to_vec()),
        Err(InferError::Shape(msg)) => Response::error(Status::Shape, 0, msg),
        Err(InferError::DeadlineExpired) => {
            Response::error(Status::DeadlineExpired, 0, "deadline expired while queued")
        }
        Err(InferError::EngineClosed) => {
            Response::error(Status::Closed, 0, "serving cluster has shut down")
        }
        Err(e) => Response::error(Status::Internal, 0, e.to_string()),
    }
}
