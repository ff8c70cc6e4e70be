//! A deliberately small HTTP/1.1 subset — just enough protocol for a
//! localhost JSON API with zero dependencies.
//!
//! Supported: request-line + header parsing, `Content-Length` bodies,
//! percent-decoded query strings, and `Connection: close` responses.
//! Not supported (and rejected cleanly rather than mis-parsed): chunked
//! transfer encoding, pipelining, keep-alive, upgrades.
//!
//! Hostile clients are bounded on two axes: every line read goes through
//! a [`Read::take`]-capped reader so a newline-free flood fails with
//! [`ParseError::TooLarge`] before buffering more than the header cap,
//! and [`read_request_capturing`] enforces one absolute deadline over the
//! whole request so a byte-at-a-time slowloris releases the worker after
//! the configured I/O timeout ([`ParseError::Timeout`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on header section + body size; a localhost API never needs
/// more and the cap keeps a malformed client from ballooning memory.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, decoded path, decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, e.g. `/cluster/3`.
    pub path: String,
    /// Percent-decoded query parameters in arrival order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable query parameter.
    pub fn params<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.query.iter().filter(move |(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Canonical cache key: path plus the query pairs re-encoded in
    /// sorted order, so `?a=1&b=2` and `?b=2&a=1` share one cache slot.
    pub fn cache_key(&self) -> String {
        let mut pairs: Vec<&(String, String)> = self.query.iter().collect();
        pairs.sort();
        let mut key = self.path.clone();
        for (k, v) in pairs {
            key.push('\u{1f}');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed request line / headers / body framing.
    Malformed(&'static str),
    /// Request exceeded the header or body cap.
    TooLarge,
    /// The client did not deliver a full request within the I/O deadline
    /// (per-read socket timeout or the whole-request parse deadline).
    Timeout,
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        if matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) {
            ParseError::Timeout
        } else {
            ParseError::Io(e)
        }
    }
}

/// A `TcpStream` reader that enforces one absolute deadline across the
/// whole request: before every read the remaining budget becomes the
/// socket read timeout, so a byte-at-a-time slowloris sender cannot
/// stretch total parse time beyond the deadline — each individual read
/// succeeds, but the budget keeps shrinking until it hits zero.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let _ = self.stream.set_read_timeout(Some(deadline - now));
        }
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads and parses one request from the stream. `io_timeout` bounds the
/// *total* wall time spent reading the request, not just each read.
/// Whatever request line the peer managed to send is captured into
/// `line_out` — *before* any parse error propagates. A slowloris
/// connection cut off by the deadline mid-header still yields its
/// (possibly partial) request line, so the shed/timeout log event can name
/// what the client was asking for.
pub fn read_request_capturing(
    stream: &mut TcpStream,
    io_timeout: Option<Duration>,
    line_out: &mut Option<String>,
) -> Result<Request, ParseError> {
    let deadline = io_timeout.map(|t| Instant::now() + t);
    let reader = BufReader::new(DeadlineStream { stream: &*stream, deadline });
    parse_request_capturing(reader, line_out)
}

/// Reads one line, buffering at most `budget + 1` bytes: a newline-free
/// flood fails with `TooLarge` instead of ballooning memory while
/// waiting for a `\n` that never comes.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    budget: usize,
) -> Result<(), ParseError> {
    let n = reader.by_ref().take(budget as u64 + 1).read_line(line)?;
    if n > budget {
        return Err(ParseError::TooLarge);
    }
    Ok(())
}

/// Longest request-line prefix worth keeping for attribution; log lines
/// should not balloon just because a flood did.
const CAPTURED_LINE_MAX: usize = 256;

/// The transport-independent parse: request line, headers, body drain.
/// Every read is bounded by the remaining header budget, so memory use
/// is capped at `MAX_HEADER_BYTES` no matter what the peer streams.
///
/// Whatever (possibly partial) first line the peer delivered is recorded
/// in `line_out` before any error propagates. `BufRead::read_line` keeps
/// valid-UTF-8 bytes read before an I/O error, so a deadline-killed
/// slowloris still leaves its half-sent request line here for the
/// timeout log event.
fn parse_request_capturing<R: BufRead>(
    mut reader: R,
    line_out: &mut Option<String>,
) -> Result<Request, ParseError> {
    let mut line = String::new();
    let mut budget = MAX_HEADER_BYTES;
    let first = read_line_bounded(&mut reader, &mut line, budget);
    let trimmed = line.trim_end();
    if !trimmed.is_empty() {
        let keep =
            trimmed.char_indices().nth(CAPTURED_LINE_MAX).map_or(trimmed, |(i, _)| &trimmed[..i]);
        *line_out = Some(keep.to_string());
    }
    first?;
    if line.is_empty() {
        return Err(ParseError::Malformed("empty request"));
    }
    budget -= line.len();
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed("missing method"))?.to_uppercase();
    let target = parts.next().ok_or(ParseError::Malformed("missing target"))?;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or(ParseError::Malformed("bad path encoding"))?;
    let query = match raw_query {
        Some(q) => parse_query(q).ok_or(ParseError::Malformed("bad query encoding"))?,
        None => Vec::new(),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        read_line_bounded(&mut reader, &mut header, budget)?;
        budget -= header.len();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    // The API carries request data in the URL; bodies are drained so the
    // peer can finish writing, then discarded.
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
    }
    Ok(Request { method, path, query })
}

/// Writes a response with the given content type and extra headers (the
/// server uses these to echo `x-maras-request-id` on every response path)
/// and closes the connection semantics.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn parse_query(raw: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// Decodes `%XX` escapes and `+`-as-space; `None` on malformed escapes
/// or non-UTF-8 results.
pub fn percent_decode(raw: &str) -> Option<String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        parse_request_capturing(raw, &mut None)
    }

    #[test]
    fn parses_a_plain_request() {
        let req = parse(b"GET /search?drug=WARFARIN HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query, vec![("drug".to_string(), "WARFARIN".to_string())]);
    }

    #[test]
    fn newline_free_request_line_is_too_large_not_unbounded() {
        // 1 MiB without a single '\n': the bounded reader must bail at
        // the header cap instead of buffering the whole flood.
        let flood = vec![b'A'; 1024 * 1024];
        assert!(matches!(parse(&flood), Err(ParseError::TooLarge)));
    }

    #[test]
    fn newline_free_header_line_is_too_large() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'h', 64 * 1024));
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn header_section_over_cap_is_too_large() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2048 {
            raw.extend(format!("x-filler-{i}: {}\r\n", "v".repeat(64)).into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn declared_body_over_cap_is_too_large() {
        let raw = format!("POST /reload HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 2 * 1024 * 1024);
        assert!(matches!(parse(raw.as_bytes()), Err(ParseError::TooLarge)));
    }

    #[test]
    fn timeout_kinds_map_to_parse_timeout() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            assert!(matches!(ParseError::from(std::io::Error::from(kind)), ParseError::Timeout));
        }
        assert!(matches!(
            ParseError::from(std::io::Error::from(std::io::ErrorKind::UnexpectedEof)),
            ParseError::Io(_)
        ));
    }

    /// Serves `data`, then fails every further read with `TimedOut` —
    /// the shape of a slowloris peer hitting the request deadline.
    struct TimesOutAfter<'a>(&'a [u8]);

    impl Read for TimesOutAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn parse_timing_out(data: &[u8], cap: &mut Option<String>) -> Result<Request, ParseError> {
        parse_request_capturing(BufReader::new(TimesOutAfter(data)), cap)
    }

    #[test]
    fn request_line_is_captured_before_errors_propagate() {
        // Complete request: captured line matches what was sent.
        let mut cap = None;
        let req =
            parse_request_capturing(&b"GET /search?drug=X HTTP/1.1\r\n\r\n"[..], &mut cap).unwrap();
        assert_eq!(req.path, "/search");
        assert_eq!(cap.as_deref(), Some("GET /search?drug=X HTTP/1.1"));

        // A peer timed out mid-headers still leaves an attributable
        // request line even though parsing fails.
        let mut cap = None;
        let res = parse_timing_out(b"GET /cluster/3 HTTP/1.1\r\nhost", &mut cap);
        assert!(matches!(res, Err(ParseError::Timeout)));
        assert_eq!(cap.as_deref(), Some("GET /cluster/3 HTTP/1.1"));

        // A peer timed out mid-request-line: the partial line is kept.
        let mut cap = None;
        let res = parse_timing_out(b"GET /slow-and-unfin", &mut cap);
        assert!(matches!(res, Err(ParseError::Timeout)));
        assert_eq!(cap.as_deref(), Some("GET /slow-and-unfin"));

        // Nothing sent at all: no phantom capture.
        let mut cap = None;
        assert!(parse_timing_out(b"", &mut cap).is_err());
        assert_eq!(cap, None);

        // A newline-free flood is captured truncated, not wholesale.
        let mut cap = None;
        let flood = vec![b'A'; 64 * 1024];
        assert!(matches!(parse_request_capturing(&flood[..], &mut cap), Err(ParseError::TooLarge)));
        let kept = cap.expect("flood line captured");
        assert_eq!(kept.len(), CAPTURED_LINE_MAX);
        assert!(kept.bytes().all(|b| b == b'A'));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("Acute+renal%20failure").as_deref(), Some("Acute renal failure"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%2"), None);
        assert_eq!(percent_decode("bad%zz"), None);
    }

    #[test]
    fn query_parsing_keeps_order_and_repeats() {
        let q = parse_query("drug=WARFARIN&adr=Pain&adr=Nausea&flag").unwrap();
        assert_eq!(
            q,
            vec![
                ("drug".into(), "WARFARIN".into()),
                ("adr".into(), "Pain".into()),
                ("adr".into(), "Nausea".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let a = Request {
            method: "GET".into(),
            path: "/search".into(),
            query: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
        };
        let mut b = a.clone();
        b.query.reverse();
        assert_eq!(a.cache_key(), b.cache_key());
        let c = Request { query: vec![("a".into(), "2".into())], ..a.clone() };
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
