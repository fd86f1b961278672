//! The length-prefixed binary wire protocol spoken on the serving socket.
//!
//! Every frame is a `u32` little-endian **body length** followed by the
//! body. The body starts with a fixed header — magic [`MAGIC`], version
//! [`VERSION`], frame kind — and then the kind-specific payload:
//!
//! | request field | encoding |
//! |---|---|
//! | trace         | `u64` LE (`0` = let the server mint one) |
//! | tenant        | `u32` LE |
//! | priority      | `u8` ([`Priority::index`]: 0 High, 1 Normal, 2 Low) |
//! | deadline_ms   | `u32` LE, `0` = no deadline |
//! | plan          | `u16` LE length + UTF-8 bytes |
//! | input         | `u8` ndim (3 or 4), `u32` LE per dim, f32 LE payload |
//!
//! | response field | encoding |
//! |---|---|
//! | trace          | `u64` LE (the request's trace id) |
//! | status         | `u8` ([`Status`]) |
//! | retry_after_ms | `u32` LE (0 unless the status is retryable) |
//! | message        | `u16` LE length + UTF-8 bytes |
//! | logits         | `u32` LE count + f32 LE payload |
//!
//! **Versioning:** decoders accept exactly [`VERSION`] (2, the version
//! that carries `trace`); any other version byte is a [`WireError`]
//! (`unsupported version N`), which the server answers in-band with
//! `Status::Malformed` on a surviving connection. The served trace id is
//! what `GET /trace?id=` retrieves.
//!
//! Logits travel as raw f32 bits, so a served response is **bit-identical**
//! to the in-process answer — the loopback tests in
//! `crates/serve/tests/loopback.rs` pin this end to end.
//!
//! Robustness contract: [`decode_frame`] never panics on arbitrary bytes
//! (it returns a [`WireError`]), and [`read_frame`] *drains* an
//! oversized frame's declared bytes instead of desyncing, so one bad
//! frame costs one error response, not the connection.

use std::io::{self, Read};

use ttsnn_infer::Priority;
use ttsnn_tensor::Tensor;

/// First two body bytes of every frame (`"NT"` little-endian) — a cheap
/// guard against a non-protocol peer.
pub const MAGIC: u16 = 0x544E;

/// Protocol version, carried in every encoded frame. Decoders reject any
/// other version so the format can evolve without silent misparses.
pub const VERSION: u8 = 2;

/// Default upper bound on a frame's declared body length. Generous for
/// logits and any sane input tensor; small enough that a garbage length
/// prefix cannot make the server buffer gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Outcome of one request, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Served; the response carries the plan's logits.
    Ok = 0,
    /// The input tensor does not match the plan (shape / non-finite).
    Shape = 1,
    /// The deadline passed while the request was still queued.
    DeadlineExpired = 2,
    /// The scheduler queue was at capacity — retry after `retry_after_ms`.
    Saturated = 3,
    /// The tenant's token bucket was empty — retry after `retry_after_ms`.
    RateLimited = 4,
    /// No plan of the requested name is mounted on this server.
    UnknownPlan = 5,
    /// The serving cluster has shut down.
    Closed = 6,
    /// The frame could not be decoded (the connection survives).
    Malformed = 7,
    /// Any other server-side failure.
    Internal = 8,
}

impl Status {
    /// Decodes a wire status byte.
    pub fn from_u8(v: u8) -> Option<Status> {
        use Status::*;
        Some(match v {
            0 => Ok,
            1 => Shape,
            2 => DeadlineExpired,
            3 => Saturated,
            4 => RateLimited,
            5 => UnknownPlan,
            6 => Closed,
            7 => Malformed,
            8 => Internal,
            _ => return None,
        })
    }

    /// Whether the client should retry the same request later (the
    /// response's `retry_after_ms` is meaningful for these).
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::Saturated | Status::RateLimited)
    }
}

/// One inference request as it travels over the socket.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request-lifecycle trace id. `0` (the usual client value) asks the
    /// server to mint one at decode; the response echoes the effective
    /// id for `GET /trace?id=` retrieval.
    pub trace: u64,
    /// Tenant the request is accounted against (fair-queue flow and
    /// token bucket under a fair policy).
    pub tenant: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Relative deadline in milliseconds; `0` means no deadline.
    pub deadline_ms: u32,
    /// Name of the mounted plan to route to (see `crate::Router`).
    pub plan: String,
    /// The input tensor: one `(C, H, W)` frame or `(T, C, H, W)`
    /// per-timestep frames.
    pub input: Tensor,
}

/// One inference response as it travels over the socket.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's effective trace id (server-minted when the request
    /// carried 0), retrievable at `GET /trace?id=`.
    pub trace: u64,
    /// Outcome of the request.
    pub status: Status,
    /// Suggested retry delay for retryable statuses, else 0.
    pub retry_after_ms: u32,
    /// Human-readable detail for error statuses (empty on `Ok`).
    pub message: String,
    /// The plan's logits, bit-exact (empty unless `Ok`).
    pub logits: Vec<f32>,
}

impl Response {
    /// A served response carrying logits (trace id 0; see
    /// [`Response::with_trace`]).
    pub fn ok(logits: Vec<f32>) -> Self {
        Self { trace: 0, status: Status::Ok, retry_after_ms: 0, message: String::new(), logits }
    }

    /// An error response with optional retry hint.
    pub fn error(status: Status, retry_after_ms: u32, message: impl Into<String>) -> Self {
        Self { trace: 0, status, retry_after_ms, message: message.into(), logits: Vec::new() }
    }

    /// Returns this response with the request's trace id attached.
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }
}

/// A decoded frame body: what the peer sent.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A client's inference request.
    Request(Request),
    /// A server's reply.
    Response(Response),
}

/// Structural decode failure — the bytes are not a valid frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Failure while pulling one frame off a byte stream.
#[derive(Debug)]
pub enum FrameReadError {
    /// The read timed out **before the first prefix byte** — no frame was
    /// in flight and nothing was consumed, so the caller may simply retry.
    /// This is the shutdown-poll tick of an idle server connection.
    IdleTimeout,
    /// The underlying read failed. A timeout surfacing here struck
    /// **mid-frame**: the stream is desynced and the connection must be
    /// dropped.
    Io(io::Error),
    /// The declared body length exceeds the configured maximum. The
    /// declared bytes were drained, so the stream is still in sync.
    Oversized {
        /// The length the prefix declared.
        declared: u64,
        /// The configured maximum body length.
        max: u64,
    },
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::IdleTimeout => write!(f, "read timed out between frames"),
            FrameReadError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameReadError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn header(kind: u8) -> Vec<u8> {
    let mut body = Vec::new();
    put_u16(&mut body, MAGIC);
    body.push(VERSION);
    body.push(kind);
    body
}

/// Prepends the length prefix to a finished body.
fn finish(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

/// Encodes a request as a complete frame (length prefix included).
///
/// # Panics
///
/// Panics if the plan name exceeds `u16::MAX` bytes — callers construct
/// plan names, they do not receive them from the network.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = header(KIND_REQUEST);
    put_u64(&mut body, req.trace);
    put_u32(&mut body, req.tenant);
    body.push(req.priority.index() as u8);
    put_u32(&mut body, req.deadline_ms);
    let plan = req.plan.as_bytes();
    assert!(plan.len() <= u16::MAX as usize, "plan name too long for the wire");
    put_u16(&mut body, plan.len() as u16);
    body.extend_from_slice(plan);
    let shape = req.input.shape();
    body.push(shape.len() as u8);
    for &d in shape {
        put_u32(&mut body, d as u32);
    }
    for &v in req.input.data() {
        put_u32(&mut body, v.to_bits());
    }
    finish(body)
}

/// Encodes a response as a complete frame (length prefix included).
///
/// # Panics
///
/// Panics if the message exceeds `u16::MAX` bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = header(KIND_RESPONSE);
    put_u64(&mut body, resp.trace);
    body.push(resp.status as u8);
    put_u32(&mut body, resp.retry_after_ms);
    let msg = resp.message.as_bytes();
    assert!(msg.len() <= u16::MAX as usize, "response message too long for the wire");
    put_u16(&mut body, msg.len() as u16);
    body.extend_from_slice(msg);
    put_u32(&mut body, resp.logits.len() as u32);
    for &v in &resp.logits {
        put_u32(&mut body, v.to_bits());
    }
    finish(body)
}

/// A bounds-checked cursor over a frame body; every shortfall becomes a
/// [`WireError`] instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn string(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError(format!("{what} is not UTF-8")))
    }
}

/// Decodes one frame **body** (the bytes after the length prefix, e.g.
/// from [`read_frame`]). Never panics on arbitrary input. `max_bytes` is
/// the same frame-size bound the caller passed to [`read_frame`] — the
/// input tensor / logit vector element caps derive from it, so raising
/// `ServerConfig::max_frame_bytes` raises both limits together.
///
/// # Errors
///
/// [`WireError`] on any structural problem: bad magic/version, unknown
/// kind or status, truncation, trailing bytes, or an input tensor whose
/// declared shape is invalid or disagrees with the payload length.
pub fn decode_frame(body: &[u8], max_bytes: usize) -> Result<Frame, WireError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let magic = c.u16("magic")?;
    if magic != MAGIC {
        return Err(WireError(format!("bad magic {magic:#06x}")));
    }
    let version = c.u8("version")?;
    if version != VERSION {
        return Err(WireError(format!("unsupported version {version}")));
    }
    let kind = c.u8("kind")?;
    let frame = match kind {
        KIND_REQUEST => {
            let trace = c.u64("trace")?;
            let tenant = c.u32("tenant")?;
            let priority = c.u8("priority")?;
            let priority = *Priority::ALL
                .get(priority as usize)
                .ok_or_else(|| WireError(format!("unknown priority {priority}")))?;
            let deadline_ms = c.u32("deadline")?;
            let plan = c.string("plan name")?;
            let ndim = c.u8("ndim")? as usize;
            if !(ndim == 3 || ndim == 4) {
                return Err(WireError(format!("input must be 3- or 4-d, got {ndim}-d")));
            }
            let mut shape = Vec::with_capacity(ndim);
            let mut elems = 1usize;
            for i in 0..ndim {
                let d = c.u32("dim")? as usize;
                if d == 0 {
                    return Err(WireError(format!("input dim {i} is zero")));
                }
                elems = elems
                    .checked_mul(d)
                    .filter(|&e| e <= max_bytes / 4)
                    .ok_or_else(|| WireError("input tensor too large".into()))?;
                shape.push(d);
            }
            let payload = c.take(elems * 4, "input payload")?;
            let data: Vec<f32> = payload
                .chunks_exact(4)
                .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                .collect();
            let input = Tensor::from_vec(data, &shape)
                .map_err(|e| WireError(format!("input tensor: {e:?}")))?;
            Frame::Request(Request { trace, tenant, priority, deadline_ms, plan, input })
        }
        KIND_RESPONSE => {
            let trace = c.u64("trace")?;
            let status = c.u8("status")?;
            let status = Status::from_u8(status)
                .ok_or_else(|| WireError(format!("unknown status {status}")))?;
            let retry_after_ms = c.u32("retry_after")?;
            let message = c.string("message")?;
            let k = c.u32("logit count")? as usize;
            if k > max_bytes / 4 {
                return Err(WireError("logit vector too large".into()));
            }
            let payload = c.take(k * 4, "logits payload")?;
            let logits: Vec<f32> = payload
                .chunks_exact(4)
                .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                .collect();
            Frame::Response(Response { trace, status, retry_after_ms, message, logits })
        }
        other => return Err(WireError(format!("unknown frame kind {other}"))),
    };
    if c.pos != body.len() {
        return Err(WireError(format!("{} trailing bytes after frame", body.len() - c.pos)));
    }
    Ok(frame)
}

/// Reads one length-prefixed frame body off `r`.
///
/// Returns `Ok(None)` on a clean EOF (the peer closed between frames).
/// An oversized declared length is **drained** — the declared bytes are
/// read and discarded so the stream stays in sync — and reported as
/// [`FrameReadError::Oversized`]; the caller can answer with an error
/// response and keep the connection.
///
/// # Errors
///
/// [`FrameReadError::IdleTimeout`] when a read timeout strikes before the
/// first prefix byte — nothing was consumed, retry freely.
/// [`FrameReadError::Io`] on any other read failure, including a timeout
/// mid-frame: that leaves the stream desynced and the connection must be
/// dropped.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut prefix = [0u8; 4];
    // First byte separately: a clean EOF or an idle-poll timeout here
    // means no frame was in flight.
    match r.read(&mut prefix[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            return Err(FrameReadError::IdleTimeout)
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut prefix[1..])?;
    let declared = u32::from_le_bytes(prefix) as u64;
    if declared > max_bytes as u64 {
        io::copy(&mut r.take(declared), &mut io::sink())?;
        return Err(FrameReadError::Oversized { declared, max: max_bytes as u64 });
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(mut r: &[u8]) -> Frame {
        let body = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(r.is_empty(), "frame fully consumed");
        decode_frame(&body, DEFAULT_MAX_FRAME_BYTES).unwrap()
    }

    #[test]
    fn request_round_trips_bit_exact() {
        let req = Request {
            trace: 0xDEAD_BEEF_0042,
            tenant: 7,
            priority: Priority::Low,
            deadline_ms: 250,
            plan: "vgg-int8".into(),
            input: Tensor::from_vec(vec![1.5, -0.0, f32::NAN, 3.25, 0.1, 2.0], &[2, 1, 3]).unwrap(),
        };
        let Frame::Request(out) = round_trip(&encode_request(&req)) else {
            panic!("expected a request frame")
        };
        assert_eq!(out.trace, 0xDEAD_BEEF_0042);
        assert_eq!(out.tenant, 7);
        assert_eq!(out.priority, Priority::Low);
        assert_eq!(out.deadline_ms, 250);
        assert_eq!(out.plan, "vgg-int8");
        assert_eq!(out.input.shape(), req.input.shape());
        for (a, b) in out.input.data().iter().zip(req.input.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::error(Status::Saturated, 12, "queue full").with_trace(99);
        let Frame::Response(out) = round_trip(&encode_response(&resp)) else {
            panic!("expected a response frame")
        };
        assert_eq!(out, resp);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bumped = header(KIND_RESPONSE);
        bumped[2] = VERSION + 1;
        assert!(matches!(decode_frame(&bumped, 1024), Err(WireError(_))));
    }

    #[test]
    fn oversized_frame_is_drained_and_reported() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xAB; 100]);
        stream.extend_from_slice(&encode_response(&Response::ok(vec![1.0])));
        let mut r = &stream[..];
        match read_frame(&mut r, 16) {
            Err(FrameReadError::Oversized { declared: 100, max: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The stream is still in sync: the next frame decodes.
        let body = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(matches!(decode_frame(&body, DEFAULT_MAX_FRAME_BYTES), Ok(Frame::Response(_))));
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    /// Yields `data`, then fails every further read with `WouldBlock` —
    /// a socket whose peer stalls mid-transfer.
    struct Stall<'a> {
        data: &'a [u8],
    }

    impl Read for Stall<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = self.data.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn timeout_before_any_byte_is_idle() {
        let mut r = Stall { data: &[] };
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameReadError::IdleTimeout)));
    }

    #[test]
    fn timeout_mid_frame_is_fatal_io() {
        // One prefix byte arrived, then the peer stalled: the stream is
        // desynced, so this must NOT look retryable.
        let mut r = Stall { data: &[7] };
        match read_frame(&mut r, 1024) {
            Err(FrameReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected fatal Io, got {other:?}"),
        }
        // Same for a stall inside the body.
        let mut frame = 8u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0xAB; 3]); // 3 of the declared 8 bytes
        let mut r = Stall { data: &frame };
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameReadError::Io(_))));
    }

    #[test]
    fn decode_caps_follow_the_configured_max() {
        // 64 one-element logits fit a raised cap but not a tiny one.
        let resp = Response::ok(vec![1.0; 64]);
        let frame = encode_response(&resp);
        let body = &frame[4..];
        assert!(decode_frame(body, 64 * 4).is_ok());
        assert!(matches!(decode_frame(body, 16), Err(WireError(_))));
    }
}
