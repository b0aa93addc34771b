//! Concurrency soak: many client threads hammer a small-queue server.
//! Below the queue bound nothing is dropped; a saturated server answers
//! the overflow with 503 + `Retry-After` without encoding it; shutdown
//! drains cleanly and releases every KV-cache slot. Without a reload,
//! every source is encoded exactly once, on its connection thread.

/// `(serve.prefill_ms samples, decode.calls, serve.prefill_stale)`: source
/// encodes on connection threads, encodes anywhere, batcher re-encodes.
fn encode_counts() -> (u64, u64, u64) {
    (
        rpt_obs::histogram("serve.prefill_ms").count(),
        rpt_obs::counter("decode.calls").value(),
        rpt_obs::counter("serve.prefill_stale").value(),
    )
}

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rpt_serve::{ServeConfig, Server};

fn cfg(max_batch: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        queue_cap,
        reload_poll_ms: 5,
        read_timeout_ms: 10,
        ..ServeConfig::default()
    }
}

#[test]
fn below_the_queue_bound_nothing_is_dropped() {
    let _guard = common::serial();
    let (model, params) = common::tiny_model(0);
    let server = Server::start(model, params, cfg(4, 8)).expect("start");
    let addr = server.addr();
    let before = encode_counts();

    // 4 clients × 6 requests: at most 4 jobs outstanding, queue cap 8 —
    // the queue can never fill, so every request must get a 200.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for i in 0..6 {
                    let body = format!(
                        r#"{{"src": [{}, {}], "max_steps": 4}}"#,
                        9 + (w + i) % 3,
                        9 + (w * i) % 3
                    );
                    bodies.push(common::request(addr, "POST", "/v1/clean", &body));
                }
                bodies
            })
        })
        .collect();
    let mut n_ok = 0;
    for worker in workers {
        for (status, body) in worker.join().expect("worker") {
            assert_eq!(status, 200, "unexpected response: {body}");
            assert!(body.contains("\"tokens\""), "not a decode body: {body}");
            n_ok += 1;
        }
    }
    assert_eq!(n_ok, 24);
    // Steady state: each request encoded once, off the batcher thread.
    let after = encode_counts();
    assert_eq!(after.0 - before.0, 24, "connection-thread prefills");
    assert_eq!(after.1 - before.1, 24, "encodes anywhere");
    assert_eq!(
        after.2, before.2,
        "serve.prefill_stale moved without a reload"
    );

    let (status, metrics) = common::request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for name in [
        "serve.requests",
        "serve.queue_depth",
        "serve.kv_slots_in_use",
        "serve.batch_occupancy",
        "serve.request_ms",
    ] {
        assert!(metrics.contains(name), "/metrics lacks {name}: {metrics}");
    }

    server.shutdown();
    assert_eq!(
        rpt_obs::gauge("serve.kv_slots_in_use").value(),
        0.0,
        "cache slots leaked across shutdown"
    );
    assert_eq!(rpt_obs::gauge("serve.queue_depth").value(), 0.0);
}

#[test]
fn saturation_rejects_with_503_and_drains_on_shutdown() {
    let _guard = common::serial();
    let (model, params) = common::tiny_model(1);
    // One-job batches and a one-job queue: any probe that lands while a
    // request is decoding and another is queued must be rejected.
    let server = Server::start(model, params, cfg(1, 1)).expect("start");
    let addr = server.addr();

    let rejected_before = rpt_obs::counter("serve.rejected").value();
    let before = encode_counts();
    let stop = Arc::new(AtomicBool::new(false));
    let saturators: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut counts = (0u32, 0u32); // (200s, 503s)
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = common::request(
                        addr,
                        "POST",
                        "/v1/clean",
                        r#"{"src": [9, 10, 11], "mode": "beam", "beam_width": 4, "max_steps": 12}"#,
                    );
                    match status {
                        200 => counts.0 += 1,
                        503 => {
                            assert!(body.contains("queue_full"), "typed 503 body: {body}");
                            counts.1 += 1;
                        }
                        other => panic!("unexpected status {other}: {body}"),
                    }
                }
                counts
            })
        })
        .collect();

    // Under sustained 4-way pressure on a depth-2 pipeline, rejections
    // must show up; bound the wait by attempts, not wall-clock.
    let mut saw_rejection = false;
    for _ in 0..500 {
        if rpt_obs::counter("serve.rejected").value() > rejected_before {
            saw_rejection = true;
            break;
        }
        std::thread::yield_now();
        let (status, _) = common::request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "health check failed under load");
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_ok = 0;
    let mut total_rejected = 0;
    for t in saturators {
        let (ok, rejected) = t.join().expect("saturator");
        total_ok += ok;
        total_rejected += rejected;
    }
    assert!(saw_rejection, "no 503 observed under saturation");
    assert!(total_rejected > 0, "clients never saw a 503");
    assert!(total_ok > 0, "server made no progress under load");
    // A rejected request gives its place back before any encode: only the
    // answered requests were prefilled, each exactly once.
    let after = encode_counts();
    assert_eq!(
        after.0 - before.0,
        u64::from(total_ok),
        "a 503 paid for an encode"
    );
    assert_eq!(after.1 - before.1, u64::from(total_ok));
    assert_eq!(
        after.2, before.2,
        "serve.prefill_stale moved without a reload"
    );

    server.shutdown();
    assert_eq!(
        rpt_obs::gauge("serve.kv_slots_in_use").value(),
        0.0,
        "cache slots leaked across shutdown"
    );
    assert_eq!(rpt_obs::gauge("serve.queue_depth").value(), 0.0);
}
