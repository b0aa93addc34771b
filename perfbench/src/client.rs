//! A closed-loop HTTP/1.1 load generator: one thread multiplexing a few
//! keep-alive connections with `poll(2)`, each holding a fixed number of
//! pipelined requests in flight. A request's latency runs from writing it
//! to reading the last byte of its response.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// One answered request.
pub struct Response {
    /// Index of the request in the caller's pool.
    pub index: usize,
    /// HTTP status.
    pub status: u16,
    /// The `x-rpt-trace` header, when the server sent one.
    pub trace: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
    /// Write-to-last-byte latency.
    pub latency: Duration,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written and not yet answered: pool index and write time.
    owed: VecDeque<(usize, Instant)>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            owed: VecDeque::new(),
        })
    }

    fn send(&mut self, index: usize, bytes: &[u8]) -> std::io::Result<()> {
        self.owed.push_back((index, Instant::now()));
        self.stream.write_all(bytes)
    }

    /// Pops every complete response in the buffer.
    fn complete(&mut self, out: &mut Vec<Response>) -> std::io::Result<()> {
        loop {
            let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(());
            };
            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| bad("response head is not UTF-8"))?;
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("no status line"))?;
            let mut len = 0usize;
            let mut trace = None;
            for line in head.lines().skip(1) {
                if let Some((k, v)) = line.split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                    } else if k.eq_ignore_ascii_case("x-rpt-trace") {
                        trace = Some(v.trim().to_string());
                    }
                }
            }
            let end = head_end + 4 + len;
            if self.buf.len() < end {
                return Ok(());
            }
            let body = self.buf[head_end + 4..end].to_vec();
            self.buf.drain(..end);
            let (index, sent) = self
                .owed
                .pop_front()
                .ok_or_else(|| bad("response without a request"))?;
            let now = Instant::now();
            out.push(Response {
                index,
                status,
                trace,
                body,
                latency: now - sent,
            });
        }
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Runs a closed loop against `addr`: `conns` connections with `depth`
/// requests in flight on each. `next` names the pool index to send next,
/// or `None` to stop sending; the loop then drains what is owed and
/// returns. `on_response` sees each response as it completes.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    depth: usize,
    requests: &[Vec<u8>],
    mut next: impl FnMut() -> Option<usize>,
    mut on_response: impl FnMut(Response),
) -> std::io::Result<()> {
    let mut pool: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let mut sending = true;
    for conn in &mut pool {
        for _ in 0..depth {
            match next() {
                Some(i) => conn.send(i, &requests[i])?,
                None => sending = false,
            }
        }
    }
    let mut chunk = vec![0u8; 1 << 16];
    let mut done = Vec::new();
    while pool.iter().any(|c| !c.owed.is_empty()) {
        let mut fds: Vec<PollFd> = pool
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
        // initialised `pollfd` records whose descriptors stay open for the
        // call (the streams in `pool` outlive it).
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 10_000) };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if ready == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "no response within 10 s",
            ));
        }
        for (conn, fd) in pool.iter_mut().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            let n = conn.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed a connection with requests owed",
                ));
            }
            conn.buf.extend_from_slice(&chunk[..n]);
            conn.complete(&mut done)?;
            for response in done.drain(..) {
                on_response(response);
                if sending {
                    match next() {
                        Some(i) => conn.send(i, &requests[i])?,
                        None => sending = false,
                    }
                }
            }
        }
    }
    Ok(())
}

/// One request on a fresh `Connection: close` socket; returns the status
/// and body.
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}
