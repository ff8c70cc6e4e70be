//! A minimal HTTP/1.1 GET client: one request per connection, closed with
//! a reset so no TIME_WAIT socket is left behind.

use crate::host;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes as text.
    pub body: String,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &str) -> Option<usize> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
    })
}

/// Sends `GET target` and reads the response up to its declared length
/// (or EOF), within `timeout` per socket operation.
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let result = exchange(&mut stream, target, timeout);
    host::close_with_reset(&stream);
    result
}

fn exchange(stream: &mut TcpStream, target: &str, timeout: Duration) -> std::io::Result<Response> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n").as_bytes())?;
    let mut buf = Vec::with_capacity(8192);
    let mut chunk = [0u8; 16 * 1024];
    let mut framing: Option<(usize, Option<usize>)> = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if framing.is_none() {
            if let Some(pos) = find(&buf, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..pos]);
                framing = Some((pos + 4, content_length(&head)));
            }
        }
        if let Some((start, Some(len))) = framing {
            if buf.len() >= start + len {
                break;
            }
        }
    }
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (start, len) = framing.ok_or_else(|| bad("response ended before its headers"))?;
    let end = len.map_or(buf.len(), |l| start + l);
    if end > buf.len() {
        return Err(bad("response ended before its declared length"));
    }
    let head = String::from_utf8_lossy(&buf[..start]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let body = String::from_utf8(buf[start..end].to_vec()).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_content_length_case_insensitively() {
        assert_eq!(content_length("HTTP/1.1 200 OK\r\ncontent-length: 12\r\nx: y"), Some(12));
        assert_eq!(content_length("HTTP/1.1 200 OK\r\nContent-Length:3"), Some(3));
        assert_eq!(content_length("HTTP/1.1 200 OK\r\nx: y"), None);
    }
}
