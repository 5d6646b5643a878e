//! A deliberately small HTTP/1.1 request reader and response writer.
//!
//! The server speaks exactly the subset its four endpoints need: one
//! request per connection (`Connection: close`), `Content-Length` bodies
//! only (no chunked transfer), and `Expect: 100-continue` acknowledged so
//! stock `curl` uploads do not stall. What it is strict about is
//! *defence*: the request head is capped, the body is capped **before**
//! it is read (a client cannot make the server buffer an oversized
//! upload), and every socket carries read/write timeouts so a stalled
//! client costs one worker at most the configured timeout.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum size of the request head (request line + headers). Generous
/// for hand-written clients, small enough that a garbage stream cannot
/// balloon memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Raw query string (without the `?`), when present.
    pub query: Option<String>,
    /// Request body (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of one `key=value` query parameter, when present.
    /// Minimal percent-decoding (`%xx` and `+` for space) is applied to
    /// the value — context keys and zone names are the only realistic
    /// use.
    pub fn query_param(&self, key: &str) -> Option<String> {
        let query = self.query.as_deref()?;
        for pair in query.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            if k == key {
                return Some(percent_decode(v));
            }
        }
        None
    }

    /// The keys of every query parameter, in query order (duplicates
    /// preserved). Lets handlers reject unknown parameters instead of
    /// silently ignoring a typo like `?zonee=urban`.
    pub fn query_keys(&self) -> Vec<String> {
        match self.query.as_deref() {
            None => Vec::new(),
            Some("") => Vec::new(),
            Some(query) => query
                .split('&')
                .map(|pair| {
                    let (k, _) = pair.split_once('=').unwrap_or((pair, ""));
                    percent_decode(k)
                })
                .collect(),
        }
    }
}

fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Why a request could not be read. Each variant maps to the HTTP status
/// the server answers with before closing the connection.
#[derive(Debug)]
pub enum RequestError {
    /// The client closed the connection before sending a complete
    /// request head; nothing to answer.
    Closed,
    /// The request head or body could not be parsed (status 400).
    BadRequest(String),
    /// The request head exceeded [`MAX_HEAD_BYTES`] (status 431).
    HeadTooLarge,
    /// The request used `Transfer-Encoding` instead of a plain
    /// `Content-Length` (status 411).
    LengthRequired,
    /// The declared body exceeds the configured cap (status 413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// The socket timed out mid-request (status 408).
    Timeout,
    /// Any other socket error; the connection is dropped.
    Io(String),
}

impl RequestError {
    /// The status line this error answers with, or `None` when the
    /// connection is simply dropped.
    pub fn response(&self) -> Option<Response> {
        match self {
            RequestError::Closed => None,
            RequestError::BadRequest(msg) => Some(Response::text(400, "Bad Request", msg)),
            RequestError::HeadTooLarge => Some(Response::text(
                431,
                "Request Header Fields Too Large",
                "request head too large",
            )),
            RequestError::LengthRequired => Some(Response::text(
                411,
                "Length Required",
                "requests must carry Content-Length (chunked bodies unsupported)",
            )),
            RequestError::BodyTooLarge { declared, limit } => Some(Response::text(
                413,
                "Payload Too Large",
                &format!("request body of {declared} bytes exceeds the {limit} byte limit"),
            )),
            RequestError::Timeout => Some(Response::text(
                408,
                "Request Timeout",
                "timed out reading the request",
            )),
            RequestError::Io(_) => None,
        }
    }
}

fn map_io(e: std::io::Error) -> RequestError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::Timeout,
        _ => RequestError::Io(e.to_string()),
    }
}

/// Reads one request from `stream`, enforcing the head cap and
/// `max_body` byte cap. Acknowledges `Expect: 100-continue` before
/// reading the body so standard clients do not wait out their
/// continue-timeout.
///
/// # Errors
///
/// Returns a [`RequestError`] describing the protocol answer (timeout,
/// oversized head/body, malformed request line) — see
/// [`RequestError::response`].
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, RequestError> {
    // Accumulate until the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(RequestError::Closed);
            }
            return Err(RequestError::BadRequest("truncated request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(RequestError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length: usize = 0;
    let mut expect_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    RequestError::BadRequest(format!("bad Content-Length {value:?}"))
                })?;
            }
            "transfer-encoding" => return Err(RequestError::LengthRequired),
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            _ => {}
        }
    }
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    if expect_continue && content_length > 0 {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(map_io)?;
    }

    // Body: whatever trailed the head in the buffer, then the rest off
    // the wire.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(RequestError::BadRequest(
            "request body longer than Content-Length".into(),
        ));
    }
    let mut remaining = content_length - body.len();
    while remaining > 0 {
        let mut chunk = vec![0u8; remaining.min(64 * 1024)];
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(RequestError::BadRequest("truncated request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response: status, content type and body. Always answered with
/// `Connection: close` — the server speaks one request per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Reason phrase of the status line.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response; a newline is appended when missing so
    /// terminal `curl` output stays readable.
    pub fn text(status: u16, reason: &'static str, body: &str) -> Response {
        let mut body = body.to_string();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A `500 Internal Server Error` saying what failed and why.
    pub fn internal_error(what: &str, error: impl std::fmt::Display) -> Response {
        Response::text(
            500,
            "Internal Server Error",
            &format!("{what} failed: {error}"),
        )
    }

    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A `200 OK` Prometheus text-exposition response.
    pub fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Serialises the response onto `stream`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (including write timeouts).
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// Runs `read_request` against raw bytes pushed through a real
    /// localhost socket pair.
    fn parse_bytes(bytes: &[u8], max_body: usize) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        read_request(&mut server_side, max_body)
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse_bytes(b"GET /v1/burndown?zone=urban%20core HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/burndown");
        assert_eq!(req.query_param("zone").as_deref(), Some("urban core"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_bytes(
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_body_is_rejected_before_reading() {
        let err = parse_bytes(
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
            64,
        )
        .unwrap_err();
        match err {
            RequestError::BodyTooLarge { declared, limit } => {
                assert_eq!(declared, 1_000_000);
                assert_eq!(limit, 64);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        assert_eq!(err.response().unwrap().status, 413);
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        let err = parse_bytes(b"NOT-HTTP\r\n\r\n", 64).unwrap_err();
        assert!(matches!(err, RequestError::BadRequest(_)));
        assert_eq!(err.response().unwrap().status, 400);
    }

    #[test]
    fn chunked_transfer_is_length_required() {
        let err = parse_bytes(
            b"POST /v1/ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            64,
        )
        .unwrap_err();
        assert!(matches!(err, RequestError::LengthRequired));
        assert_eq!(err.response().unwrap().status, 411);
    }

    #[test]
    fn closed_connection_yields_no_response() {
        let err = parse_bytes(b"", 64).unwrap_err();
        assert!(matches!(err, RequestError::Closed));
        assert!(err.response().is_none());
    }

    #[test]
    fn response_writes_well_formed_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        Response::text(200, "OK", "ok")
            .write_to(&mut server_side)
            .unwrap();
        drop(server_side);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
        assert!(got.contains("Content-Length: 3"), "{got}");
        assert!(got.contains("Connection: close"), "{got}");
        assert!(got.ends_with("ok\n"), "{got}");
    }
}
