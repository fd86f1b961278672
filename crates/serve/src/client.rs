//! A minimal blocking client for the binary protocol and the HTTP
//! endpoints — what the loopback tests, the repo benchmark's
//! `serve_tcp_f32` workload and the examples drive the server with. Real deployments can speak
//! the protocol from any language; this is the reference implementation.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{self, Frame, FrameReadError, Request, Response};

/// One long-lived binary-protocol connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving-plane listener.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Sends one request frame and blocks for its response frame.
    ///
    /// # Errors
    ///
    /// I/O failures, an unexpected EOF, or a reply that is not a valid
    /// response frame (`InvalidData`).
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.stream.write_all(&wire::encode_request(req))?;
        self.read_response()
    }

    /// Sends pre-encoded bytes — the fuzz tests' way of putting garbage
    /// on the wire — and blocks for a response frame.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn send_raw(&mut self, frame: &[u8]) -> io::Result<Response> {
        self.stream.write_all(frame)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let body = match wire::read_frame(&mut self.stream, wire::DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(body)) => body,
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Err(FrameReadError::IdleTimeout) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the response frame",
                ))
            }
            Err(FrameReadError::Io(e)) => return Err(e),
            Err(e @ FrameReadError::Oversized { .. }) => return Err(invalid(e.to_string())),
        };
        match wire::decode_frame(&body, wire::DEFAULT_MAX_FRAME_BYTES) {
            Ok(Frame::Response(resp)) => Ok(resp),
            Ok(Frame::Request(_)) => Err(invalid("server sent a request frame".into())),
            Err(e) => Err(invalid(e.to_string())),
        }
    }
}

/// A one-shot `GET` against the server's HTTP side; returns
/// `(status code, body)`. Good enough for `/metrics` scrapes and health
/// probes in tests and benches.
///
/// # Errors
///
/// I/O failures or a response that is not parseable HTTP/1.1.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: ttsnn\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?; // Connection: close delimits the body
    let text = String::from_utf8(raw).map_err(|_| invalid("response is not UTF-8"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| invalid("missing header terminator"))?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("missing status line"))?;
    Ok((status, body.to_string()))
}
