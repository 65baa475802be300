//! A hand-rolled, bounded HTTP/1.1 request parser and response encoder.
//!
//! The build environment is offline and std-only, so the wire layer is
//! written from scratch with the properties a fuzzer can pin:
//!
//! * **never panics** on arbitrary byte streams — every malformed input
//!   maps to a typed [`HttpError`] carrying its status code;
//! * **length-capped everywhere** — request head, header count, target
//!   length and body size all have hard limits, so a hostile client cannot
//!   make the server buffer unboundedly;
//! * **incremental** — [`parse_request`] reports [`Parse::Incomplete`]
//!   until a full request is buffered, which is exactly the contract a
//!   read loop over a [`std::net::TcpStream`] needs.
//!
//! ```
//! use ctc_server::http::{parse_request, Parse};
//!
//! let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
//! match parse_request(raw, 1024).unwrap() {
//!     Parse::Complete(req, consumed) => {
//!         assert_eq!(req.method, "GET");
//!         assert_eq!(req.target, "/healthz");
//!         assert_eq!(consumed, raw.len());
//!     }
//!     Parse::Incomplete => unreachable!("full request buffered"),
//! }
//! ```

use std::io::{self, IoSlice, Write};
use std::sync::Arc;

/// Hard cap on the request head (request line + all headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Hard cap on the number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Hard cap on the request-target length, bytes.
pub const MAX_TARGET_BYTES: usize = 1024;
/// Default cap on request bodies, bytes (overridable per server).
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// A parsed HTTP request. Header names are lowercased; values are
/// whitespace-trimmed. The body is raw bytes (exactly `Content-Length` of
/// them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (e.g. `GET`, `POST`).
    pub method: String,
    /// The request target, verbatim (e.g. `/search`).
    pub target: String,
    /// `(lowercased-name, trimmed-value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
    /// `true` for `HTTP/1.0` requests, whose default is close-after-
    /// response rather than keep-alive.
    pub http1_0: bool,
}

impl Request {
    /// First value of header `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the connection should close after this request:
    /// an explicit `Connection: close`, or an HTTP/1.0 request without an
    /// explicit `Connection: keep-alive` (1.0 clients frame by EOF).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.http1_0,
        }
    }
}

/// Why a byte stream was rejected. Each variant maps to the status line
/// of the error response the server sends before closing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header or framing → `400`.
    BadRequest(&'static str),
    /// Head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`] → `431`.
    HeadTooLarge,
    /// Declared body exceeds the server's cap → `413`.
    BodyTooLarge,
    /// `Transfer-Encoding` framing is not implemented → `501`.
    NotImplemented(&'static str),
    /// Not an `HTTP/1.x` request → `505`.
    UnsupportedVersion,
}

impl HttpError {
    /// `(status code, reason phrase)` for the error response.
    pub fn status(self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::NotImplemented(_) => (501, "Not Implemented"),
            HttpError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(self) -> &'static str {
        match self {
            HttpError::BadRequest(d) | HttpError::NotImplemented(d) => d,
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyTooLarge => "request body too large",
            HttpError::UnsupportedVersion => "only HTTP/1.0 and HTTP/1.1 are supported",
        }
    }
}

/// Outcome of one incremental parse attempt over the buffered bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parse {
    /// The buffer holds a valid prefix of a request; read more bytes.
    Incomplete,
    /// A full request and the number of buffer bytes it consumed
    /// (pipelined bytes after `consumed` belong to the next request).
    Complete(Request, usize),
}

/// Finds the end of the request head: the index one past the blank line.
/// Accepts both `\r\n\r\n` and bare `\n\n` terminators (curl, printf and
/// `/dev/tcp` clients are all welcome).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // Line ended at i; a blank line follows if the next byte(s)
            // are another newline (optionally with a \r).
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// `true` for the characters RFC 9110 allows in tokens (methods, header
/// names).
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~'
        | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
}

/// Attempts to parse one request from the front of `buf`.
///
/// Returns [`Parse::Incomplete`] while the buffer holds only a prefix,
/// [`Parse::Complete`] once a whole request (head + declared body) is
/// buffered, and `Err` as soon as the prefix can never become a valid
/// request — the caller should answer with [`HttpError::status`] and
/// close. Never panics, whatever the bytes.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Parse, HttpError> {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(Parse::Incomplete);
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    // Request line: METHOD SP TARGET SP VERSION.
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    if target.is_empty() || target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::BadRequest("missing or oversized request target"));
    }
    if !target.starts_with('/') && target != "*" {
        return Err(HttpError::BadRequest("request target must be absolute"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion);
    }

    // Header lines up to the blank terminator.
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("header line without a colon"))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest("unparsable content-length"))?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(HttpError::BadRequest("conflicting content-length headers"));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(HttpError::NotImplemented(
                    "transfer-encoding framing is not supported; use content-length",
                ));
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let total = match head_end.checked_add(body_len) {
        Some(t) => t,
        None => return Err(HttpError::BodyTooLarge),
    };
    if buf.len() < total {
        return Ok(Parse::Incomplete);
    }
    Ok(Parse::Complete(
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: buf[head_end..total].to_vec(),
            http1_0: version == "HTTP/1.0",
        },
        total,
    ))
}

/// Room reserved for a response head: the status line and the fixed
/// headers fit well inside it.
const HEAD_CAPACITY: usize = 128;

/// A response under construction: status, extra headers, JSON body.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// Reason phrase matching `status`.
    pub reason: &'static str,
    /// Extra headers beyond the always-present `content-type`,
    /// `content-length` and `connection`.
    pub headers: Vec<(&'static str, String)>,
    /// The response body (JSON everywhere in this server), or its first
    /// part when [`Response::tail`] holds the rest. Shared, not owned: a
    /// cached answer is handed to every response that serves it without
    /// being copied.
    pub body: Arc<Vec<u8>>,
    /// The rest of a two-part body, sent right after `body`: a search
    /// answer's member lists, which the answer cache shares between the
    /// answers with one community.
    pub tail: Option<Arc<Vec<u8>>>,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn ok(body: Vec<u8>) -> Self {
        Self::shared(Arc::new(body))
    }

    /// A 200 response over a body other holders keep too: the response
    /// takes a reference, not a copy.
    pub fn shared(body: Arc<Vec<u8>>) -> Self {
        Response {
            status: 200,
            reason: "OK",
            headers: Vec::new(),
            body,
            tail: None,
        }
    }

    /// A 200 response whose body is `body` followed by `tail`, both kept
    /// by other holders too (a cached answer's fields and member lists):
    /// the response takes references, not copies.
    pub fn shared_parts(body: Arc<Vec<u8>>, tail: Arc<Vec<u8>>) -> Self {
        Response {
            tail: Some(tail),
            ..Self::shared(body)
        }
    }

    /// An error response with a JSON body.
    pub fn error(status: u16, reason: &'static str, body: Vec<u8>) -> Self {
        Response {
            status,
            reason,
            ..Self::ok(body)
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Appends the status line and headers, through the blank line that
    /// ends the head. The header set is fixed and deterministic (no date,
    /// no server banner), so identical payloads yield identical bytes —
    /// the property the soak test pins end to end.
    fn write_head(&self, close: bool, out: &mut Vec<u8>) {
        // Writing into a Vec cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason);
        out.extend_from_slice(b"content-type: application/json\r\n");
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = write!(out, "content-length: {}\r\n", self.body_len());
        out.extend_from_slice(if close {
            b"connection: close\r\n\r\n"
        } else {
            b"connection: keep-alive\r\n\r\n"
        });
    }

    /// The body's second part, empty for a one-part body.
    fn tail_bytes(&self) -> &[u8] {
        self.tail.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The body's length in bytes, both parts together.
    fn body_len(&self) -> usize {
        self.body.len() + self.tail_bytes().len()
    }

    /// Serializes the response, head and body, into one buffer.
    pub fn encode(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEAD_CAPACITY + self.body_len());
        self.write_head(close, &mut out);
        out.extend_from_slice(&self.body);
        out.extend_from_slice(self.tail_bytes());
        out
    }

    /// Writes the bytes [`Response::encode`] returns to `w`, without
    /// assembling them: the head is formatted on its own and goes out
    /// with the shared body parts in vectored writes (`writev` on a
    /// socket), so the body is never copied on its way to the kernel.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        self.write_head(close, &mut head);
        let mut parts = [
            IoSlice::new(&head),
            IoSlice::new(&self.body),
            IoSlice::new(self.tail_bytes()),
        ];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> (Request, usize) {
        match parse_request(raw, DEFAULT_MAX_BODY) {
            Ok(Parse::Complete(r, n)) => (r, n),
            other => panic!("expected complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n";
        let (r, n) = complete(raw);
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/stats");
        assert_eq!(r.header("host"), Some("localhost"));
        assert!(r.body.is_empty());
        assert_eq!(n, raw.len());
    }

    #[test]
    fn parses_post_with_body_and_pipelined_tail() {
        let raw = b"POST /search HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET /next";
        let (r, n) = complete(raw);
        assert_eq!(r.body, b"abcd");
        assert_eq!(&raw[n..], b"GET /next");
    }

    #[test]
    fn accepts_bare_lf_line_endings() {
        let (r, _) = complete(b"POST /x HTTP/1.1\ncontent-length: 2\n\nhi");
        assert_eq!(r.body, b"hi");
        assert_eq!(r.target, "/x");
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let raw = b"POST /search HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        assert_eq!(
            parse_request(raw, DEFAULT_MAX_BODY).unwrap(),
            Parse::Incomplete
        );
        assert_eq!(
            parse_request(b"GET /", DEFAULT_MAX_BODY).unwrap(),
            Parse::Incomplete
        );
        assert_eq!(
            parse_request(b"", DEFAULT_MAX_BODY).unwrap(),
            Parse::Incomplete
        );
    }

    #[test]
    fn rejects_malformed_inputs_with_typed_errors() {
        let cases: [(&[u8], HttpError); 7] = [
            (b"\r\n\r\n", HttpError::BadRequest("malformed request line")),
            (
                b"GE T / HTTP/1.1\r\n\r\n",
                HttpError::BadRequest("malformed request line"),
            ),
            (
                b"GET nope HTTP/1.1\r\n\r\n",
                HttpError::BadRequest("request target must be absolute"),
            ),
            (b"GET / HTTP/2\r\n\r\n", HttpError::UnsupportedVersion),
            (
                b"GET / HTTP/1.1\r\nbroken line\r\n\r\n",
                HttpError::BadRequest("header line without a colon"),
            ),
            (
                b"GET / HTTP/1.1\r\ncontent-length: many\r\n\r\n",
                HttpError::BadRequest("unparsable content-length"),
            ),
            (
                b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                HttpError::NotImplemented(
                    "transfer-encoding framing is not supported; use content-length",
                ),
            ),
        ];
        for (raw, want) in cases {
            assert_eq!(
                parse_request(raw, DEFAULT_MAX_BODY).unwrap_err(),
                want,
                "input {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_rejected_duplicates_allowed() {
        assert_eq!(
            parse_request(
                b"GET / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n",
                DEFAULT_MAX_BODY
            )
            .unwrap_err(),
            HttpError::BadRequest("conflicting content-length headers")
        );
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok";
        let (r, _) = complete(raw);
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn caps_are_enforced() {
        // Oversized head without a terminator.
        let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        assert_eq!(
            parse_request(&huge, 16).unwrap_err(),
            HttpError::HeadTooLarge
        );
        // Too many headers.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert_eq!(
            parse_request(many.as_bytes(), 16).unwrap_err(),
            HttpError::HeadTooLarge
        );
        // Declared body over the cap.
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\ncontent-length: 17\r\n\r\n", 16).unwrap_err(),
            HttpError::BodyTooLarge
        );
        // Absurd content-length must not overflow.
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", usize::MAX);
        assert_eq!(
            parse_request(raw.as_bytes(), usize::MAX).unwrap_err(),
            HttpError::BodyTooLarge
        );
    }

    #[test]
    fn connection_close_detection() {
        let (r, _) = complete(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
        assert!(r.wants_close());
        let (r, _) = complete(b"GET / HTTP/1.1\r\n\r\n");
        assert!(!r.wants_close());
        // HTTP/1.0 defaults to close; an explicit keep-alive overrides.
        let (r, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(r.http1_0);
        assert!(r.wants_close());
        let (r, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!r.wants_close());
    }

    #[test]
    fn response_encoding_is_deterministic() {
        let a = Response::ok(b"{}".to_vec()).encode(true);
        let b = Response::ok(b"{}".to_vec()).encode(true);
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let keep = Response::ok(Vec::new()).encode(false);
        assert!(String::from_utf8(keep).unwrap().contains("keep-alive"));
    }

    /// A writer that takes at most `step` bytes of the first non-empty
    /// slice per call and reports `Interrupted` on every third call, so
    /// every resumption path of [`Response::write_to`] runs.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_sends_exactly_the_encoded_bytes() {
        let body = Arc::new(br#"{"k":4,"vertices":[1,2,3]}"#.to_vec());
        let fields = Arc::new(br#"{"k":4,"#.to_vec());
        let lists = Arc::new(br#""vertices":[1,2,3]}"#.to_vec());
        let responses = [
            Response::shared(Arc::clone(&body)).with_header("x-cache", "hit"),
            Response::shared_parts(Arc::clone(&fields), Arc::clone(&lists))
                .with_header("x-cache", "miss"),
            Response::shared_parts(Arc::new(Vec::new()), Arc::clone(&lists)),
            Response::shared_parts(Arc::clone(&fields), Arc::new(Vec::new())),
            Response::error(404, "Not Found", b"{}".to_vec()),
            Response::ok(Vec::new()),
        ];
        for response in &responses {
            for close in [false, true] {
                for step in [1, 7, 1 << 20] {
                    let mut w = Trickle {
                        out: Vec::new(),
                        step,
                        calls: 0,
                    };
                    response.write_to(&mut w, close).unwrap();
                    assert_eq!(w.out, response.encode(close), "step {step}");
                }
            }
        }
        assert!(Arc::ptr_eq(&responses[0].body, &body), "shared, not copied");
        // The two-part body is the one-part body, split: same bytes, same
        // content-length.
        let whole = String::from_utf8(responses[0].encode(false)).unwrap();
        let split = String::from_utf8(responses[1].encode(false)).unwrap();
        assert_eq!(whole.replace("x-cache: hit", "x-cache: miss"), split);
        assert!(split.contains(&format!("content-length: {}\r\n", body.len())));
        assert!(Arc::ptr_eq(&responses[1].body, &fields));
        assert!(Arc::ptr_eq(responses[1].tail.as_ref().unwrap(), &lists));
    }

    #[test]
    fn write_to_reports_a_stalled_writer() {
        struct Stalled;
        impl Write for Stalled {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = Response::ok(b"{}".to_vec())
            .write_to(&mut Stalled, true)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn error_statuses_map() {
        assert_eq!(HttpError::BodyTooLarge.status().0, 413);
        assert_eq!(HttpError::HeadTooLarge.status().0, 431);
        assert_eq!(HttpError::UnsupportedVersion.status().0, 505);
        assert_eq!(HttpError::BadRequest("x").status().0, 400);
        assert_eq!(HttpError::NotImplemented("x").status().0, 501);
        assert_eq!(HttpError::BadRequest("x").detail(), "x");
    }
}
