//! Shared test harness: the tiny trained copy model and a one-shot HTTP
//! client. Used by `decode_equivalence.rs` (engine vs reference decoders),
//! `serve_equivalence.rs` (fusion invisibility) and `obs_determinism.rs`
//! (tracing invisibility).

// Each including test binary uses a subset of these helpers.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;

use rpt::nn::{Ctx, Seq2Seq, Sequence, TokenBatch, TransformerConfig};
use rpt::tensor::{clip_global_norm, Adam, AdamConfig, ParamStore, Tape};
use rpt_rng::{SeedableRng, SmallRng};

pub const BOS: usize = 1;
pub const EOS: usize = 2;

/// Trains a tiny copy model (output = input tokens) — the same recipe as
/// the rpt-nn decode unit tests, so decodes are non-trivial. Fully
/// deterministic: two calls produce bit-identical weights.
pub fn trained_copy_model() -> (Seq2Seq, ParamStore) {
    let mut params = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let model = Seq2Seq::new(&mut params, TransformerConfig::tiny(12), &mut rng);
    let mut opt = Adam::new(AdamConfig {
        lr: 3e-3,
        ..Default::default()
    });
    let examples: Vec<Vec<usize>> = vec![
        vec![9, 10],
        vec![10, 9],
        vec![11, 9],
        vec![9, 11],
        vec![10, 11],
        vec![11, 10],
    ];
    for _ in 0..150 {
        let srcs: Vec<Sequence> = examples
            .iter()
            .map(|e| Sequence::from_ids(e.clone()))
            .collect();
        let src = TokenBatch::from_sequences(&srcs, 16, 0);
        let tgt_in: Vec<Sequence> = examples
            .iter()
            .map(|e| {
                let mut v = vec![BOS];
                v.extend(e);
                Sequence::from_ids(v)
            })
            .collect();
        let tgt_in = TokenBatch::from_sequences(&tgt_in, 16, 0);
        let mut tgt_out = vec![0usize; tgt_in.b * tgt_in.t];
        for (bi, e) in examples.iter().enumerate() {
            for (i, &tok) in e.iter().enumerate() {
                tgt_out[bi * tgt_in.t + i] = tok;
            }
            tgt_out[bi * tgt_in.t + e.len()] = EOS;
        }
        let tape = Tape::new();
        let mut rng3 = SmallRng::seed_from_u64(2);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng3, true);
        let loss = model.reconstruction_loss(&mut ctx, &src, &tgt_in, &tgt_out, 0);
        let mut grads = tape.backward(loss);
        let mut pg = params.collect_grads(&mut grads);
        clip_global_norm(&mut pg, 1.0);
        opt.step(&mut params, &pg);
    }
    (model, params)
}

/// One-shot HTTP request with optional extra headers, `Connection:
/// close`; returns `(status, response head, body)`.
pub fn request_full(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in extra_headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    req.push_str("Connection: close\r\n\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

/// One-shot HTTP client: POST `body`, return `(status, body)`.
pub fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _head, body) = request_full(addr, "POST", path, &[], body);
    (status, body)
}

/// One-shot HTTP client: GET `path`, return `(status, body)`.
pub fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, _head, body) = request_full(addr, "GET", path, &[], "");
    (status, body)
}

pub fn ids_json(ids: &[usize]) -> String {
    let inner: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
    format!("[{}]", inner.join(", "))
}
