//! Hand-rolled incremental HTTP/1.1 parsing and response writing.
//!
//! The parser is a resumable byte-buffer state machine: callers [`feed`]
//! whatever a socket read produced (possibly one byte at a time) and call
//! [`next_request`] until it yields a request, an error, or `NeedMore`.
//! Bytes past the first complete request stay buffered, so pipelined
//! requests parse back-to-back without touching the socket. No chunked
//! transfer encoding — bodies are `Content-Length` only, which is all the
//! JSON API needs.
//!
//! [`feed`]: RequestParser::feed
//! [`next_request`]: RequestParser::next_request

use std::io::Write;

/// Hard ceiling on the request line + headers, bytes.
pub const DEFAULT_MAX_HEADER_BYTES: usize = 8 * 1024;
/// Hard ceiling on a request body, bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request. Header names are lower-cased; values are trimmed.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub path: String,
    /// `(lower-case name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` worth).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Protocol-level parse failures, each mapped to the status the
/// connection handler must answer with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line + headers exceeded the configured ceiling → 431.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded the configured ceiling → 413.
    BodyTooLarge,
    /// Anything else unparseable (bad request line, bad header, bad
    /// `Content-Length`, unsupported transfer coding) → 400.
    Malformed(&'static str),
}

impl ParseError {
    /// The HTTP status this error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::Malformed(_) => 400,
        }
    }

    /// A short machine-readable code for the typed error body.
    pub fn code(&self) -> &'static str {
        match self {
            ParseError::HeadersTooLarge => "headers_too_large",
            ParseError::BodyTooLarge => "body_too_large",
            ParseError::Malformed(_) => "malformed_request",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> &'static str {
        match self {
            ParseError::HeadersTooLarge => "request headers exceed the configured limit",
            ParseError::BodyTooLarge => "request body exceeds the configured limit",
            ParseError::Malformed(m) => m,
        }
    }
}

/// Resumable request parser over an append-only byte buffer.
pub struct RequestParser {
    buf: Vec<u8>,
    max_header_bytes: usize,
    max_body_bytes: usize,
}

/// One [`RequestParser::next_request`] step.
#[derive(Debug)]
pub enum Parsed {
    /// A full request was consumed from the buffer.
    Request(Request),
    /// The buffer holds only a prefix of a request — feed more bytes.
    NeedMore,
}

impl RequestParser {
    /// A parser with explicit header/body ceilings.
    pub fn new(max_header_bytes: usize, max_body_bytes: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_header_bytes,
            max_body_bytes,
        }
    }

    /// Appends socket bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when the buffer holds unconsumed bytes (a partial or
    /// pipelined request).
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to consume one complete request from the front of the
    /// buffer. Errors are sticky protocol failures: the caller must
    /// respond with [`ParseError::status`] and close the connection.
    pub fn next_request(&mut self) -> Result<Parsed, ParseError> {
        let Some(header_end) = find_double_crlf(&self.buf) else {
            if self.buf.len() > self.max_header_bytes {
                return Err(ParseError::HeadersTooLarge);
            }
            return Ok(Parsed::NeedMore);
        };
        if header_end > self.max_header_bytes {
            return Err(ParseError::HeadersTooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| ParseError::Malformed("headers are not valid UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(ParseError::Malformed("empty request line"))?
            .to_string();
        let path = parts
            .next()
            .filter(|p| p.starts_with('/'))
            .ok_or(ParseError::Malformed("bad request target"))?
            .to_string();
        let version = parts
            .next()
            .ok_or(ParseError::Malformed("missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(ParseError::Malformed("bad request line"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(ParseError::Malformed("unsupported HTTP version")),
        };

        let mut headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or(ParseError::Malformed("header line without a colon"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(ParseError::Malformed("bad header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(ParseError::Malformed("transfer-encoding is not supported"));
        }
        let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed("bad content-length"))?,
            None => 0,
        };
        if content_length > self.max_body_bytes {
            return Err(ParseError::BodyTooLarge);
        }

        let body_start = header_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(Parsed::NeedMore);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);

        let connection = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };

        Ok(Parsed::Request(Request {
            method,
            path,
            headers,
            body,
            keep_alive,
        }))
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An outgoing response: status, optional extra headers, JSON/text body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// The standard typed error body: `{"error":{"code","message"}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        let body = rpt_json::json!({
            "error": {"code": code, "message": message},
        });
        Self::json(status, body.to_string())
    }

    /// Serializes and writes the response (HTTP/1.1, explicit
    /// `Content-Length`, `Connection` per `keep_alive`).
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> RequestParser {
        RequestParser::new(DEFAULT_MAX_HEADER_BYTES, DEFAULT_MAX_BODY_BYTES)
    }

    fn parse_all(raw: &[u8]) -> Vec<Request> {
        let mut p = parser();
        p.feed(raw);
        let mut out = Vec::new();
        while let Parsed::Request(r) = p.next_request().expect("parse") {
            out.push(r);
        }
        out
    }

    #[test]
    fn parses_a_simple_post() {
        let reqs =
            parse_all(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 4\r\nx-a: b\r\n\r\n{\"k\"");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "POST");
        assert_eq!(reqs[0].path, "/v1/clean");
        assert_eq!(reqs[0].body, b"{\"k\"");
        assert_eq!(reqs[0].header("x-a"), Some("b"));
        assert!(reqs[0].keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn torn_reads_resume_byte_at_a_time() {
        let raw = b"POST /v1/detect HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let mut p = parser();
        for (i, b) in raw.iter().enumerate() {
            p.feed(&[*b]);
            match p.next_request().expect("never errors") {
                Parsed::NeedMore => assert!(i + 1 < raw.len(), "complete at byte {i}"),
                Parsed::Request(r) => {
                    assert_eq!(i + 1, raw.len(), "early completion at byte {i}");
                    assert_eq!(r.body, b"hi");
                }
            }
        }
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/match HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\n\r\n";
        let reqs = parse_all(raw);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].path, "/healthz");
        assert_eq!(reqs[1].body, b"abc");
        assert_eq!(reqs[2].path, "/metrics");
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut p = RequestParser::new(64, DEFAULT_MAX_BODY_BYTES);
        // Complete head larger than the ceiling.
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 100));
        raw.extend_from_slice(b"\r\n\r\n");
        p.feed(&raw);
        assert_eq!(p.next_request().unwrap_err(), ParseError::HeadersTooLarge);
        assert_eq!(ParseError::HeadersTooLarge.status(), 431);

        // Never-terminating head crosses the ceiling mid-stream.
        let mut p = RequestParser::new(64, DEFAULT_MAX_BODY_BYTES);
        p.feed(&[b'x'; 65]);
        assert_eq!(p.next_request().unwrap_err(), ParseError::HeadersTooLarge);
    }

    #[test]
    fn oversized_body_is_413_before_the_body_arrives() {
        let mut p = RequestParser::new(DEFAULT_MAX_HEADER_BYTES, 8);
        p.feed(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 9\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err(), ParseError::BodyTooLarge);
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            b"NOT-HTTP\r\n\r\n".to_vec(),
            b"GET / HTTP/2.0\r\n\r\n".to_vec(),
            b"GET no-slash HTTP/1.1\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec(),
        ] {
            let mut p = parser();
            p.feed(&raw);
            let err = p.next_request().expect_err("should reject");
            assert_eq!(
                err.status(),
                400,
                "raw: {:?}",
                String::from_utf8_lossy(&raw)
            );
        }
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let r = &parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")[0];
        assert!(!r.keep_alive);
        let r = &parse_all(b"GET / HTTP/1.0\r\n\r\n")[0];
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = &parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")[0];
        assert!(r.keep_alive);
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        let mut resp = Response::error(503, "queue_full", "try later");
        resp.headers.push(("retry-after", "1".to_string()));
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HTTP/1.1 503 Service Unavailable"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("\"code\":\"queue_full\""));
    }
}
