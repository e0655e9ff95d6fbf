//! A deliberately small HTTP/1.1 implementation over std TCP.
//!
//! Server side: the readiness core parses requests incrementally from
//! its per-connection buffers with [`try_parse_request`] (hard limits
//! on line length, header count and body size) and frames responses
//! with [`response_head`]. Client side: [`ClientConn`] is a keep-alive
//! connection used by `servectl`, `loadgen` and the integration tests.
//!
//! Only what the serving layer needs is implemented: no multipart, no
//! TLS. Request bodies are framed by `Content-Length` alone; a request
//! carrying `Transfer-Encoding` is rejected, so no body can be read as
//! a second, smuggled request. Responses carry an explicit
//! `Content-Length`, except streamed progress responses which use
//! `Transfer-Encoding: chunked` (the one place the readiness core
//! emits a body of unknown length).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted request/header line.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/figures/fig01`).
    pub path: String,
    /// Raw query string, if any (without the `?`).
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection.
    pub close: bool,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a `k=v` query parameter. A bare key without `=`
    /// (`?quick`) is a flag-style parameter and yields `Some("")`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .as_deref()?
            .split('&')
            .find_map(|pair| match pair.split_once('=') {
                Some((k, v)) => (k == key).then_some(v),
                None => (pair == key).then_some(""),
            })
    }
}

/// Reads one response line terminated by `\r\n` (tolerating bare
/// `\n`), bounded by [`MAX_LINE`].
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None) // clean EOF between requests
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated line",
                    ))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let s = String::from_utf8(buf).map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 header line")
                    })?;
                    return Ok(Some(s));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Progress of [`try_parse_request`] over a byte buffer.
#[derive(Debug)]
pub(crate) enum ParseStatus {
    /// More bytes needed. `body_expected` is true once the header
    /// block is complete and a nonzero body is still outstanding —
    /// the readiness core uses this for the `http.short_read` chaos
    /// point (a peer dying mid-body).
    Partial { body_expected: bool },
    /// One complete request, with how many buffer bytes it consumed.
    Complete { req: Request, consumed: usize },
}

/// Takes one `\r\n`-terminated line (tolerating bare `\n`) from
/// `buf[*pos..]`, advancing `pos` past it. `Ok(None)` means the line
/// is still incomplete; an over-long partial line fails immediately
/// so a drip-fed attacker cannot buffer without bound.
fn take_line(buf: &[u8], pos: &mut usize) -> io::Result<Option<String>> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        None => {
            // +1: a complete line of exactly MAX_LINE bytes may still
            // have its `\r` buffered while the `\n` is in flight.
            if rest.len() > MAX_LINE + 1 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
            }
            Ok(None)
        }
        Some(nl) => {
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.len() > MAX_LINE {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
            }
            let s = std::str::from_utf8(line)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 header line"))?
                .to_string();
            *pos += nl + 1;
            Ok(Some(s))
        }
    }
}

/// Parses one request from the front of `buf` without consuming it
/// (the caller drains `consumed` bytes on `Complete`). Errors are
/// detected as early as the bytes allow and are all `InvalidData`: the
/// caller answers 400 and closes.
pub(crate) fn try_parse_request(buf: &[u8]) -> io::Result<ParseStatus> {
    let mut pos = 0usize;
    let line = match take_line(buf, &mut pos)? {
        None => {
            return Ok(ParseStatus::Partial {
                body_expected: false,
            })
        }
        Some(l) => l,
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line `{line}`"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported HTTP version",
        ));
    }

    let mut headers = Vec::new();
    loop {
        let line = match take_line(buf, &mut pos)? {
            None => {
                return Ok(ParseStatus::Partial {
                    body_expected: false,
                })
            }
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many headers",
            ));
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed header line"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length = content_length(&headers)?;
    if content_length > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    if buf.len() - pos < content_length {
        return Ok(ParseStatus::Partial {
            body_expected: true,
        });
    }
    let body = buf[pos..pos + content_length].to_vec();

    let close = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.eq_ignore_ascii_case("close"))
        .unwrap_or(version == "HTTP/1.0");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    Ok(ParseStatus::Complete {
        consumed: pos + content_length,
        req: Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
            close,
        },
    })
}

/// The request body length, from the one `Content-Length` header (0
/// without one). Framing ambiguity is a request-smuggling vector, so
/// any `Transfer-Encoding`, a duplicate `Content-Length`, or a length
/// that is not plain ASCII digits (`+2` would pass `usize::from_str`)
/// is rejected.
fn content_length(headers: &[(String, String)]) -> io::Result<usize> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(invalid("Transfer-Encoding is not supported"));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let len = match (lengths.next(), lengths.next()) {
        (None, _) => return Ok(0),
        (Some(_), Some(_)) => return Err(invalid("duplicate Content-Length headers")),
        (Some((_, v)), None) => v,
    };
    if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
        return Err(invalid("bad Content-Length"));
    }
    len.parse().map_err(|_| invalid("bad Content-Length"))
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Renders a response head. `body_len: Some(n)` frames with
/// `Content-Length`; `None` frames with `Transfer-Encoding: chunked`
/// (streamed progress responses).
///
/// The content type defaults to `application/json`; an extra header
/// named `content-type` overrides it (used by the Prometheus `/metrics`
/// exposition, which is plain text).
pub(crate) fn response_head(
    status: u16,
    body_len: Option<usize>,
    extra_headers: &[(String, String)],
    close: bool,
) -> String {
    let has_content_type = extra_headers
        .iter()
        .any(|(k, _)| k.eq_ignore_ascii_case("content-type"));
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    if !has_content_type {
        head.push_str("content-type: application/json\r\n");
    }
    match body_len {
        Some(n) => head.push_str(&format!("content-length: {n}\r\n")),
        None => head.push_str("transfer-encoding: chunked\r\n"),
    }
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(if close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    head
}

/// Frames one chunk of a `Transfer-Encoding: chunked` body.
pub(crate) fn chunk(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminal zero-length chunk.
pub(crate) const FINAL_CHUNK: &[u8] = b"0\r\n\r\n";

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A keep-alive HTTP/1.1 client connection.
#[derive(Debug)]
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ClientConn {
    /// Connects with the given connect/read/write timeout.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Adjusts the read/write timeout after connect. A forwarding
    /// router connects with a short timeout (dead-node failover must
    /// be fast) but then reads with a long one (a cold compute can
    /// legitimately take the server's whole deadline). The cloned
    /// reader shares the socket, so one call covers both directions.
    pub fn set_io_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))?;
        self.writer.set_write_timeout(Some(timeout))
    }

    /// Sends one request and reads the response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.request_with_headers(method, path, body)
            .map(|(status, _headers, body)| (status, body))
    }

    /// Like [`request`](Self::request) but also returns the response
    /// headers (lower-cased names), which retrying clients need for
    /// `Retry-After`.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, Vec<(String, String)>, String)> {
        let body = body.unwrap_or("");
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: gem5prof\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        self.writer.flush()?;

        let status_line = read_line(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line `{status_line}`"),
                )
            })?;
        let mut content_length = 0usize;
        let mut chunked = false;
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut self.reader)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in response headers")
            })?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
                if k == "content-length" {
                    content_length = v.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
                headers.push((k, v));
            }
        }
        let body = if chunked {
            self.read_chunked_body()?
        } else {
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
            body
        };
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((status, headers, body))
    }

    /// Decodes a `Transfer-Encoding: chunked` body (streamed progress
    /// responses), concatenating the chunks. Bounded so a runaway
    /// stream cannot buffer without limit.
    fn read_chunked_body(&mut self) -> io::Result<Vec<u8>> {
        const MAX_STREAM_BODY: usize = 16 * 1024 * 1024;
        let mut body = Vec::new();
        loop {
            let line = read_line(&mut self.reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in chunk size"))?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad chunk size `{line}`"),
                )
            })?;
            if size == 0 {
                // Trailer section: read lines until the blank terminator.
                loop {
                    match read_line(&mut self.reader)? {
                        Some(l) if l.is_empty() => return Ok(body),
                        Some(_) => continue,
                        None => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "EOF in chunk trailer",
                            ))
                        }
                    }
                }
            }
            if body.len() + size > MAX_STREAM_BODY {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "chunked body too large",
                ));
            }
            let start = body.len();
            body.resize(start + size, 0);
            self.reader.read_exact(&mut body[start..])?;
            // The CRLF after the chunk payload.
            let sep = read_line(&mut self.reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF after chunk"))?;
            if !sep.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "missing chunk terminator",
                ));
            }
        }
    }
}

/// One-shot convenience: connect, request, return `(status, body)`.
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    ClientConn::connect(addr, timeout)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{prop_assert, prop_assert_eq, run_cases, Gen};

    /// Parses `raw` as exactly one complete request.
    fn parse_one(raw: &[u8]) -> Request {
        match try_parse_request(raw).unwrap() {
            ParseStatus::Complete { req, consumed } => {
                assert_eq!(consumed, raw.len(), "{raw:?}");
                req
            }
            ParseStatus::Partial { .. } => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_a_request_with_body_and_query() {
        let req = parse_one(
            b"POST /experiments?x=1&y=2 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/experiments");
        assert_eq!(req.query_param("y"), Some("2"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn bare_query_keys_are_flag_parameters() {
        let req = parse_one(b"GET /x?quick&depth=3 HTTP/1.1\r\n\r\n");
        assert_eq!(req.query_param("quick"), Some(""));
        assert_eq!(req.query_param("depth"), Some("3"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let err = try_parse_request(raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate Content-Length"));
    }

    #[test]
    fn eof_between_requests_is_clean() {
        // An empty buffer is a connection idle between requests: no
        // request started, no body outstanding.
        assert!(matches!(
            try_parse_request(b""),
            Ok(ParseStatus::Partial {
                body_expected: false
            })
        ));
    }

    #[test]
    fn malformed_requests_are_invalid_data() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x HTTP/2.0\r\n\r\n"[..],
            &b"GET noslash HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            // `usize::from_str` takes a leading `+`; the framing must not.
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab"[..],
            // Ignoring Transfer-Encoding would serve this body as a
            // second, smuggled request.
            &b"POST /peers HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n"
                [..],
        ] {
            let err = try_parse_request(raw).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn connection_close_and_http10_are_detected() {
        assert!(parse_one(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").close);
        assert!(parse_one(b"GET /x HTTP/1.0\r\n\r\n").close);
    }

    #[test]
    fn response_wire_format() {
        let head = response_head(429, Some(2), &[("retry-after".into(), "1".into())], false);
        let s = head + "{}";
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("content-type: application/json\r\n"));
        assert!(s.contains("content-length: 2\r\n"));
        assert!(s.contains("retry-after: 1\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));
    }

    /// One generated valid request: its wire bytes plus the fields the
    /// parser must recover from them.
    struct Generated {
        raw: Vec<u8>,
        /// Bytes up to and including the blank line that ends the head.
        head_len: usize,
        method: String,
        path: String,
        query: Option<String>,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
        close: bool,
    }

    fn text(g: &mut Gen, alphabet: &[u8], len: std::ops::Range<usize>) -> String {
        g.vec(len, |g| *g.pick(alphabet) as char)
            .into_iter()
            .collect()
    }

    /// `s` with each ASCII letter's case flipped at random.
    fn any_case(g: &mut Gen, s: &str) -> String {
        s.chars()
            .map(|c| if g.bool() { c.to_ascii_uppercase() } else { c })
            .collect()
    }

    /// A valid request: random method, path, query and version, 0–8
    /// headers (framing and `Connection` among them at random
    /// positions), a 0–64 B body, and random CRLF / bare-LF line ends.
    fn gen_request(g: &mut Gen) -> Generated {
        const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-.";
        const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
        const VALUE: &[u8] = b"azAZ09 !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~";
        let method = *g.pick(&["get", "post", "put", "delete", "head", "patch"]);
        let path: String = g
            .vec(1..4, |g| format!("/{}", text(g, PATH, 0..8)))
            .concat();
        let query = g.bool().then(|| text(g, b"abxyz09=&?", 0..16));
        let version = *g.pick(&["HTTP/1.1", "HTTP/1.0"]);
        let body: Vec<u8> = g.vec(0..65, |g| g.next_u64() as u8);

        let mut special = Vec::new();
        if !body.is_empty() || g.bool() {
            special.push((any_case(g, "content-length"), body.len().to_string()));
        }
        let connection = g
            .bool()
            .then(|| g.pick(&["close", "Close", "keep-alive"]).to_string());
        if let Some(v) = &connection {
            special.push((any_case(g, "connection"), v.clone()));
        }
        let extra = g.usize_in(0..9).saturating_sub(special.len());
        let mut wire: Vec<(String, String)> = (0..extra)
            .map(|_| (format!("x-{}", text(g, NAME, 1..10)), text(g, VALUE, 0..20)))
            .collect();
        for h in special {
            let at = g.usize_in(0..wire.len() + 1);
            wire.insert(at, h);
        }

        let mut raw = Vec::new();
        let eol = |g: &mut Gen, raw: &mut Vec<u8>| {
            raw.extend_from_slice(if g.bool() { &b"\r\n"[..] } else { b"\n" })
        };
        let target = match &query {
            Some(q) => format!("{path}?{q}"),
            None => path.clone(),
        };
        raw.extend_from_slice(format!("{} {target} {version}", any_case(g, method)).as_bytes());
        eol(g, &mut raw);
        for (k, v) in &wire {
            let ows = *g.pick(&["", " ", "  "]);
            raw.extend_from_slice(format!("{k}:{ows}{v}{ows}").as_bytes());
            eol(g, &mut raw);
        }
        eol(g, &mut raw);
        let head_len = raw.len();
        raw.extend_from_slice(&body);

        Generated {
            raw,
            head_len,
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers: wire
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
                .collect(),
            body,
            close: match &connection {
                Some(v) => v.eq_ignore_ascii_case("close"),
                None => version == "HTTP/1.0",
            },
        }
    }

    #[test]
    fn generated_requests_parse_at_every_split() {
        run_cases("http_generated_requests", 10_000, |g| {
            let want = gen_request(g);
            let first = want.raw.len();
            let mut buf = want.raw.clone();
            if g.bool() {
                buf.extend_from_slice(&gen_request(g).raw);
            }
            for cut in 0..first {
                match try_parse_request(&buf[..cut]) {
                    Ok(ParseStatus::Partial { body_expected }) => {
                        prop_assert_eq!(body_expected, cut >= want.head_len)
                    }
                    other => return Err(format!("prefix {cut}/{first}: {other:?}")),
                }
            }
            let (req, consumed) = match try_parse_request(&buf) {
                Ok(ParseStatus::Complete { req, consumed }) => (req, consumed),
                other => return Err(format!("{:?}: {other:?}", String::from_utf8_lossy(&buf))),
            };
            prop_assert_eq!(consumed, first);
            prop_assert_eq!(req.method, want.method);
            prop_assert_eq!(req.path, want.path);
            prop_assert_eq!(req.query, want.query);
            prop_assert_eq!(req.headers, want.headers);
            prop_assert_eq!(req.body, want.body);
            prop_assert_eq!(req.close, want.close);
            Ok(())
        });
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser() {
        run_cases("http_arbitrary_bytes", 10_000, |g| {
            let raw: Vec<u8> = if g.bool() {
                g.vec(0..256, |g| {
                    if g.bool() {
                        *g.pick(b" :/?\r\n+-0123456789")
                    } else {
                        g.next_u64() as u8
                    }
                })
            } else {
                // A valid request with a few bytes overwritten, inserted
                // or deleted: malformed in the places that matter.
                let mut raw = gen_request(g).raw;
                for _ in 0..g.usize_in(1..5) {
                    let at = g.usize_in(0..raw.len());
                    match g.usize_in(0..3) {
                        0 => raw[at] = g.next_u64() as u8,
                        1 => raw.insert(at, *g.pick(b" :\r\n+-0")),
                        _ => {
                            raw.remove(at);
                        }
                    }
                }
                raw
            };
            match std::panic::catch_unwind(|| try_parse_request(&raw)) {
                Ok(Ok(ParseStatus::Complete { consumed, .. })) => {
                    prop_assert!(
                        consumed <= raw.len(),
                        "consumed {consumed} of {}",
                        raw.len()
                    )
                }
                Ok(_) => {}
                Err(_) => return Err(format!("panicked on {raw:?}")),
            }
            Ok(())
        });
    }

    #[test]
    fn incremental_parser_reports_partials_byte_by_byte() {
        let raw = b"POST /experiments HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            match try_parse_request(&raw[..cut]).unwrap() {
                ParseStatus::Partial { body_expected } => {
                    // The body is only "expected" once the blank line landed.
                    let headers_done = cut >= raw.len() - 4;
                    assert_eq!(body_expected, headers_done, "cut={cut}");
                }
                ParseStatus::Complete { .. } => panic!("complete at cut {cut}"),
            }
        }
        assert!(matches!(
            try_parse_request(raw).unwrap(),
            ParseStatus::Complete { consumed, .. } if consumed == raw.len()
        ));
    }

    #[test]
    fn incremental_parser_consumes_one_pipelined_request_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseStatus::Complete { req, consumed } = try_parse_request(raw).unwrap() else {
            panic!("first request incomplete");
        };
        assert_eq!(req.path, "/a");
        let ParseStatus::Complete { req, consumed: c2 } =
            try_parse_request(&raw[consumed..]).unwrap()
        else {
            panic!("second request incomplete");
        };
        assert_eq!(req.path, "/b");
        assert_eq!(consumed + c2, raw.len());
    }

    #[test]
    fn incremental_parser_rejects_overlong_partial_lines() {
        let raw = vec![b'A'; MAX_LINE + 16];
        let err = try_parse_request(&raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn chunk_framing_round_trips() {
        let framed = [chunk(b"hello"), chunk(b", world"), FINAL_CHUNK.to_vec()].concat();
        assert!(framed.starts_with(b"5\r\nhello\r\n"));
        assert!(framed.ends_with(b"0\r\n\r\n"));
        let head = response_head(200, None, &[], true);
        assert!(head.contains("transfer-encoding: chunked\r\n"));
        assert!(!head.contains("content-length"));
    }

    #[test]
    fn content_type_header_overrides_default() {
        let s = response_head(
            200,
            Some(4),
            &[("content-type".into(), "text/plain; version=0.0.4".into())],
            false,
        );
        assert!(s.contains("content-type: text/plain; version=0.0.4\r\n"));
        assert!(
            !s.contains("application/json"),
            "default content type must be suppressed: {s}"
        );
    }
}
