//! The benchmark's HTTP/1.1 client: keep-alive connections that send one
//! request at a time and parse `content-length`-framed responses.
//!
//! Every failure is returned, never panicked on: a non-200 status, a
//! reset or an early close becomes one failed request in the counts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The parsed head of one complete response buffered at the front of a
/// connection's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Head {
    /// Status code (`0` if the status line was unreadable).
    pub status: u16,
    /// `x-cache: hit`.
    pub hit: bool,
    /// `connection: close`: the server ends the connection after this.
    pub close: bool,
    /// Bytes of the head, blank line included.
    pub head_len: usize,
    /// Bytes of the body.
    pub body_len: usize,
}

impl Head {
    /// Head plus body.
    pub fn total(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Parses the response at the front of `buf` once it is complete.
pub fn complete_response(buf: &[u8]) -> Option<Head> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).unwrap_or("");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut parsed = Head {
        status,
        hit: false,
        close: false,
        head_len: head_end,
        body_len: 0,
    };
    for line in head.lines() {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => parsed.body_len = value.parse().unwrap_or(0),
            "x-cache" => parsed.hit = value == "hit",
            "connection" => parsed.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    (buf.len() >= parsed.total()).then_some(parsed)
}

/// Opens a loopback keep-alive connection.
pub fn connect(addr: SocketAddr, nonblocking: bool) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(nonblocking)?;
    if !nonblocking {
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    }
    Ok(stream)
}

/// Writes all of `bytes`, also on a nonblocking socket.
pub fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads what the socket has into `buf`. Returns `Ok(false)` on EOF.
/// On a nonblocking socket this stops at `WouldBlock`; on a blocking one
/// it returns after one read.
pub fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    return Ok(true);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sends one request on a blocking connection and waits for its whole
/// response; returns the head and the body.
pub fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> io::Result<(Head, Vec<u8>)> {
    send_all(stream, request)?;
    let mut buf = Vec::new();
    loop {
        if let Some(head) = complete_response(&buf) {
            let body = buf[head.head_len..head.total()].to_vec();
            return Ok((head, body));
        }
        if !fill(stream, &mut buf)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
    }
}

/// The `query_distance` field of a `/search` answer body.
pub fn query_distance(body: &[u8]) -> Option<u32> {
    const FIELD: &[u8] = b"\"query_distance\":";
    let at = body.windows(FIELD.len()).position(|w| w == FIELD)? + FIELD.len();
    let digits: &[u8] = &body[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// `true` when an `/update` answer reports every one of `ops` applied.
pub fn all_applied(body: &[u8], ops: usize) -> bool {
    body.starts_with(format!(r#"{{"applied":{ops},"rejected":0,"#).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_complete_and_partial_responses() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nx-cache: hit\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nhelloHTTP";
        let head = complete_response(raw).unwrap();
        assert_eq!(head.status, 200);
        assert!(head.hit && !head.close);
        assert_eq!(&raw[head.head_len..head.total()], b"hello");
        assert!(complete_response(&raw[..raw.len() - 6]).is_none());
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
        let head = complete_response(shed).unwrap();
        assert_eq!((head.status, head.close), (503, true));
    }

    #[test]
    fn reads_answer_fields() {
        let body = br#"{"k":4,"num_vertices":8,"num_edges":9,"query_distance":12,"vertices":[]}"#;
        assert_eq!(query_distance(body), Some(12));
        assert_eq!(query_distance(b"{}"), None);
        assert!(all_applied(
            br#"{"applied":4,"rejected":0,"max_class":5}"#,
            4
        ));
        assert!(!all_applied(
            br#"{"applied":3,"rejected":1,"max_class":5}"#,
            4
        ));
    }
}
