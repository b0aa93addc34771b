//! Connection-level pipelining and mid-decode cancellation.
//!
//! * Pipelined requests on one keep-alive connection are parsed and
//!   submitted immediately — they coalesce in the batcher instead of
//!   serializing on the previous response — and the responses come back
//!   strictly in request order, byte-identical to one-at-a-time requests.
//! * A request that arrives while an earlier one on the same connection
//!   decodes is read and prefilled at once, not after the earlier
//!   response is written.
//! * A client that disconnects mid-decode has its jobs cancelled and the
//!   KV-cache slots reclaimed: a soak of submit-and-vanish clients must
//!   leave `serve.kv_slots_in_use` at zero and the server healthy.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;

use rpt_serve::{ServeConfig, Server};

/// Reads `n` back-to-back responses off one connection, preserving bytes
/// that belong to later responses (`common::read_response` is
/// one-response-per-connection and would discard them).
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u16, String)> {
    let mut raw: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while out.len() < n {
        while let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..at])
                .expect("utf-8 headers")
                .to_string();
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad status line: {head:?}"));
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .expect("content-length header");
            let total = at + 4 + content_length;
            if raw.len() < total {
                break;
            }
            let body = String::from_utf8(raw[at + 4..total].to_vec()).expect("utf-8 body");
            raw.drain(..total);
            out.push((status, body));
            if out.len() == n {
                return out;
            }
        }
        let n_read = stream.read(&mut buf).expect("read responses");
        assert!(
            n_read > 0,
            "connection closed after {} of {n} responses",
            out.len()
        );
        raw.extend_from_slice(&buf[..n_read]);
    }
    out
}

/// A wider/deeper model than the plumbing default (`common::tiny_model`),
/// so a decode takes long enough to overlap with what a test does next.
fn wide_model(seed: u64, max_len: usize) -> (rpt_nn::Seq2Seq, rpt_tensor::ParamStore) {
    use rpt_rng::{SeedableRng, SmallRng};
    let mut params = rpt_tensor::ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = rpt_nn::TransformerConfig {
        vocab_size: 32,
        max_len,
        dropout: 0.0,
        ..rpt_nn::TransformerConfig::default()
    };
    let model = rpt_nn::Seq2Seq::new(&mut params, cfg, &mut rng);
    (model, params)
}

fn cfg(max_batch: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        queue_cap,
        reload_poll_ms: 5,
        read_timeout_ms: 5,
        ..ServeConfig::default()
    }
}

#[test]
fn pipelined_requests_answer_in_order_and_match_serial_requests() {
    let _guard = common::serial();
    let (model, params) = common::tiny_model(3);
    let server = Server::start(model, params, cfg(8, 16)).expect("start");
    let addr = server.addr();

    let bodies: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"src": [{}, {}], "max_steps": 6}}"#,
                9 + i % 3,
                9 + (i + 1) % 3
            )
        })
        .collect();
    // Ground truth: the same requests one connection each.
    let serial: Vec<(u16, String)> = bodies
        .iter()
        .map(|b| common::request(addr, "POST", "/v1/clean", b))
        .collect();

    // Pipelined: write every request up front, then read the responses.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    for (i, body) in bodies.iter().enumerate() {
        let connection = if i + 1 == bodies.len() {
            "close"
        } else {
            "keep-alive"
        };
        write!(
            stream,
            "POST /v1/clean HTTP/1.1\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
    }
    let piped = read_responses(&mut stream, bodies.len());

    for (i, ((ps, pb), (ss, sb))) in piped.iter().zip(&serial).enumerate() {
        assert_eq!(ps, ss, "status mismatch on pipelined request {i}: {pb}");
        assert_eq!(pb, sb, "body mismatch on pipelined request {i}");
    }
    server.shutdown();
    assert_eq!(rpt_obs::gauge("serve.kv_slots_in_use").value(), 0.0);
}

#[test]
fn request_pipelined_mid_decode_is_prefilled_before_the_earlier_one_ends() {
    let _guard = common::serial();
    // Room for a long forced-scoring job: A runs `targets.len() + 1`
    // fused steps, no early exit.
    let (model, params) = wide_model(5, 128);
    rpt_obs::set_trace_enabled(true);
    rpt_obs::clear_trace();
    // A read timeout far longer than A's decode: the connection must not
    // need one to expire before it reads B.
    let server = Server::start(
        model,
        params,
        ServeConfig {
            read_timeout_ms: 5_000,
            ..cfg(8, 16)
        },
    )
    .expect("start");
    let prefills = || -> Vec<rpt_obs::SpanRec> {
        rpt_obs::collect_spans(&rpt_obs::trace_events())
            .into_iter()
            .filter(|s| s.name == "serve.prefill" && s.dur_ns.is_some())
            .collect()
    };

    let targets: Vec<String> = (0..120).map(|i| (9 + i % 3).to_string()).collect();
    let long = format!(
        r#"{{"src": [9, 10, 11], "targets": [{}]}}"#,
        targets.join(", ")
    );
    let short = r#"{"src": [9, 10], "max_steps": 2}"#;
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    write!(
        stream,
        "POST /v1/match HTTP/1.1\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{long}",
        long.len()
    )
    .expect("write A");
    // B goes out only once A is encoded and on its way to the batcher.
    let mut waited = 0;
    while prefills().is_empty() {
        assert!(waited < 20_000, "A was never prefilled");
        std::thread::sleep(std::time::Duration::from_micros(250));
        waited += 1;
    }
    write!(
        stream,
        "POST /v1/clean HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{short}",
        short.len()
    )
    .expect("write B");
    let answers = read_responses(&mut stream, 2);
    assert!(
        answers.iter().all(|(status, _)| *status == 200),
        "{answers:?}"
    );
    server.shutdown();

    let spans = rpt_obs::collect_spans(&rpt_obs::trace_events());
    rpt_obs::set_trace_enabled(false);
    let mut prefill: Vec<&rpt_obs::SpanRec> =
        spans.iter().filter(|s| s.name == "serve.prefill").collect();
    prefill.sort_by_key(|s| s.start_ns);
    assert_eq!(prefill.len(), 2, "one prefill per request");
    let (a, b) = (prefill[0], prefill[1]);
    let a_request = spans
        .iter()
        .find(|s| s.name == "serve.request" && s.trace_id == a.trace_id)
        .expect("A's request span");
    let a_end = a_request.start_ns + a_request.dur_ns.expect("A's request span closed");
    assert!(
        b.start_ns < a_end,
        "B was prefilled {} ns after A's response went out",
        b.start_ns - a_end
    );
}

#[test]
fn disconnect_mid_decode_reclaims_kv_slots() {
    let _guard = common::serial();
    // A forced-scoring job runs deterministically `targets.len() + 1`
    // fused steps, no early exit. 500 of them take far longer than the
    // connection handler needs to see its client gone (one
    // `PENDING_WAIT` slice), so the disconnect lands mid-decode.
    let (model, params) = wide_model(4, 512);
    let server = Server::start(model, params, cfg(4, 8)).expect("start");
    let addr = server.addr();
    let slots = || rpt_obs::gauge("serve.kv_slots_in_use").value();
    let cancelled = || rpt_obs::counter("serve.cancelled").value();

    let targets: Vec<String> = (0..500).map(|i| (9 + i % 3).to_string()).collect();
    let body = format!(
        r#"{{"src": [9, 10, 11], "targets": [{}]}}"#,
        targets.join(", ")
    );

    // Soak: one client at a time submits a job and vanishes without
    // reading the response, but only once the job holds a KV slot. It is
    // the only job on the server, so from then on nothing but the
    // batcher's mid-decode reaping can cancel it: a job abandoned while
    // still queued is counted when it is dequeued, which cannot happen
    // here.
    const ROUNDS: usize = 12;
    let mut reaped = 0;
    for round in 0..ROUNDS {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        write!(
            stream,
            "POST /v1/match HTTP/1.1\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        let mut admitted = false;
        for _ in 0..20_000 {
            if slots() > 0.0 {
                admitted = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert!(admitted, "round {round}: the job never took a KV slot");
        let cancelled_before = cancelled();
        drop(stream); // client gone while its job decodes

        // The batcher must reclaim the slot; bound the wait by attempts,
        // keeping the server responsive throughout.
        let mut reclaimed = false;
        for _ in 0..2000 {
            let (status, _) = common::request(addr, "GET", "/healthz", "");
            assert_eq!(status, 200, "server unhealthy during reclamation");
            if slots() == 0.0 && rpt_obs::gauge("serve.queue_depth").value() == 0.0 {
                reclaimed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            reclaimed,
            "round {round}: KV slot leaked after the client disconnected"
        );
        if cancelled() > cancelled_before {
            reaped += 1;
        }
    }
    // A job that outran its disconnect would free its slot by finishing;
    // most must instead be reaped before their last step.
    assert!(
        reaped * 2 > ROUNDS,
        "only {reaped} of {ROUNDS} abandoned jobs were cancelled mid-decode"
    );

    // The pool is healthy: a real request still decodes fine.
    let (status, resp_body) = common::request(
        addr,
        "POST",
        "/v1/clean",
        r#"{"src": [9, 10], "max_steps": 4}"#,
    );
    assert_eq!(status, 200, "post-soak request failed: {resp_body}");
    server.shutdown();
    assert_eq!(rpt_obs::gauge("serve.kv_slots_in_use").value(), 0.0);
    assert_eq!(rpt_obs::gauge("serve.queue_depth").value(), 0.0);
}

#[test]
fn quant_mode_is_reported_and_serves() {
    let _guard = common::serial();
    let (model, params) = common::tiny_model(5);
    let server = Server::start(
        model,
        params,
        ServeConfig {
            quant: true,
            ..cfg(4, 8)
        },
    )
    .expect("start");
    let addr = server.addr();

    let (status, body) = common::request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"quant\":true"),
        "healthz lacks quant flag: {body}"
    );
    assert_eq!(rpt_obs::gauge("serve.quant").value(), 1.0);

    let (status, body) = common::request(
        addr,
        "POST",
        "/v1/clean",
        r#"{"src": [9, 10], "max_steps": 4}"#,
    );
    assert_eq!(status, 200, "quantized decode failed: {body}");
    assert!(body.contains("\"tokens\""), "not a decode body: {body}");
    server.shutdown();
}
