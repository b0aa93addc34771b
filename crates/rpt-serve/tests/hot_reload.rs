//! Checkpoint hot-reload under traffic: an atomic swap takes effect
//! without downtime, responses always come from exactly one parameter
//! generation, and torn or fault-injected checkpoint writes are rejected
//! without taking the server down.

mod common;

use std::time::{Duration, Instant};

use rpt_serve::{ServeConfig, Server};
use rpt_tensor::serialize::{save_file, save_file_with, Fault, FaultyIo};

/// The scoring request used to fingerprint which parameters are serving.
const PROBE: &str = r#"{"src": [9, 10], "targets": [11, 9]}"#;

fn probe_score(addr: std::net::SocketAddr) -> f64 {
    let (status, body) = common::request(addr, "POST", "/v1/match", PROBE);
    assert_eq!(status, 200, "probe failed: {body}");
    rpt_json::Json::parse(&body)
        .expect("probe body is JSON")
        .get("total_logprob")
        .and_then(rpt_json::Json::as_f64)
        .expect("probe body has total_logprob")
}

/// Repeats `poll` until it returns true or ~5s of attempts elapse.
fn eventually(mut poll: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if poll() {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn atomic_swap_mid_traffic_torn_writes_rejected() {
    let _guard = common::serial();
    let dir = common::fresh_dir("hot-reload");
    let ckpt = dir.join("model.json");

    let (model_a, params_a) = common::tiny_model(0);
    let (_model_b, params_b) = common::tiny_model(7);
    save_file(&params_a, &ckpt).expect("seed checkpoint");

    let server = Server::start(
        model_a,
        params_a.clone(),
        ServeConfig {
            checkpoint: Some(ckpt.clone()),
            max_batch: 4,
            queue_cap: 8,
            reload_poll_ms: 5,
            read_timeout_ms: 10,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    let score_a = probe_score(addr);
    let reloads = rpt_obs::counter("serve.reloads");
    let reload_errors = rpt_obs::counter("serve.reload_errors");
    let reloads_before = reloads.value();

    // Atomic swap to generation 1: every response before the swap is
    // bitwise A's, every response after is bitwise B's — `eventually`
    // tolerates only those two values, never a blend.
    save_file(&params_b, &ckpt).expect("swap checkpoint");
    let score_b = {
        let mut last = score_a;
        eventually(
            || {
                last = probe_score(addr);
                assert!(
                    last == score_a || reloads.value() > reloads_before,
                    "response changed without a recorded reload"
                );
                last != score_a
            },
            "the swapped checkpoint to serve",
        );
        last
    };
    assert_ne!(score_b, score_a, "generations are distinguishable");
    let (status, health) = common::request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        health.contains("\"model_generation\":1"),
        "generation did not advance: {health}"
    );

    // A torn checkpoint (simulating a non-atomic writer dying mid-write)
    // must be rejected: reload_errors increments, the server keeps
    // serving generation 1, and later requests still succeed. The half
    // file lands in one rename, so the watcher sees exactly one torn
    // file — an in-place write would show it an empty file first.
    let full = std::fs::read(&ckpt).expect("read checkpoint");
    let errors_before = reload_errors.value();
    let torn = ckpt.with_extension("torn");
    std::fs::write(&torn, &full[..full.len() / 2]).expect("write torn copy");
    std::fs::rename(&torn, &ckpt).expect("tear checkpoint");
    eventually(
        || reload_errors.value() > errors_before,
        "the torn checkpoint to be rejected",
    );
    assert_eq!(probe_score(addr), score_b, "torn reload changed responses");

    // The PR-4 atomic writer with an injected short write fails in the
    // staging file and never moves the destination: no reload triggers
    // at all (the watched path's stat is untouched).
    let reloads_now = reloads.value();
    let errors_now = reload_errors.value();
    let mut faulty = FaultyIo::new(Fault::ShortWrite(32));
    assert!(
        save_file_with(&mut faulty, &params_a, &ckpt).is_err(),
        "short write should fail"
    );
    assert!(faulty.tripped());
    assert_eq!(probe_score(addr), score_b);
    assert_eq!(reloads.value(), reloads_now, "faulty write caused a reload");
    assert_eq!(reload_errors.value(), errors_now);

    // A subsequent good atomic write recovers: back to A's parameters at
    // generation 2.
    save_file(&params_a, &ckpt).expect("recover checkpoint");
    eventually(
        || probe_score(addr) == score_a,
        "the recovered checkpoint to serve",
    );
    let (_, health) = common::request(addr, "GET", "/healthz", "");
    assert!(
        health.contains("\"model_generation\":2"),
        "recovery did not advance the generation: {health}"
    );

    server.shutdown();
    assert_eq!(rpt_obs::gauge("serve.kv_slots_in_use").value(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scoring job that always runs the full `max_len - 1` steps (30
/// targets + EOS on the tiny model), to keep the one-slot batcher busy.
const FILLER: &str = r#"{"src": [9, 10, 11],
    "targets": [9, 10, 11, 9, 10, 11, 9, 10, 11, 9, 10, 11, 9, 10, 11,
                9, 10, 11, 9, 10, 11, 9, 10, 11, 9, 10, 11, 9, 10, 11]}"#;

/// Writes `n` pipelined `FILLER` requests on one connection and returns
/// the open stream; dropping it cancels whatever is still owed.
fn pipeline_fillers(addr: std::net::SocketAddr, n: usize) -> std::net::TcpStream {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut raw = String::new();
    for _ in 0..n {
        raw.push_str(&format!(
            "POST /v1/match HTTP/1.1\r\ncontent-length: {}\r\n\r\n{FILLER}",
            FILLER.len()
        ));
    }
    stream.write_all(raw.as_bytes()).expect("write fillers");
    stream
}

#[test]
fn reload_between_prefill_and_admit_reencodes_under_the_new_generation() {
    use std::io::Write;
    let _guard = common::serial();
    let dir = common::fresh_dir("stale-prefill");
    let ckpt = dir.join("model.json");

    let (model_a, params_a) = common::tiny_model(0);
    let (model_b, mut params_b) = common::tiny_model(7);
    save_file(&params_a, &ckpt).expect("seed checkpoint");

    // The generation-1 oracle: the probe decoded alone on B's weights,
    // rendered exactly as the server renders a generation-1 answer.
    let spec = rpt_serve::api::parse_match(PROBE.as_bytes(), model_b.config()).expect("spec");
    let oracle = {
        let mut mb = rpt_nn::MicroBatcher::new(&model_b, &mut params_b);
        mb.admit(&model_b, &mut params_b, 0, spec);
        let out = loop {
            if let Some((_, out)) = mb.step(&model_b, &mut params_b).pop() {
                break out;
            }
        };
        rpt_serve::api::render_output(&out, 1)
    };

    // One slot, a deep queue: the fillers keep the batcher busy while the
    // probe waits in the queue, already encoded under generation 0.
    const CONNS: usize = 4;
    const PER_CONN: usize = 40;
    let server = Server::start(
        model_a,
        params_a,
        ServeConfig {
            checkpoint: Some(ckpt.clone()),
            max_batch: 1,
            queue_cap: CONNS * PER_CONN + 1,
            reload_poll_ms: 5,
            read_timeout_ms: 10,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();
    let prefills = rpt_obs::histogram("serve.prefill_ms");
    let stale = rpt_obs::counter("serve.prefill_stale");
    let (prefills_before, stale_before) = (prefills.count(), stale.value());

    let fillers: Vec<_> = (0..CONNS)
        .map(|_| pipeline_fillers(addr, PER_CONN))
        .collect();
    eventually(
        || prefills.count() >= prefills_before + (CONNS * PER_CONN) as u64,
        "the fillers to be encoded",
    );
    let mut probe = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        probe,
        "POST /v1/match HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{PROBE}",
        PROBE.len()
    )
    .expect("write probe");
    eventually(
        || prefills.count() > prefills_before + (CONNS * PER_CONN) as u64,
        "the probe to be encoded",
    );
    // The probe's prefill is generation 0's. Swap the checkpoint while it
    // still waits: the batcher drains, reloads, and admits it under 1.
    save_file(&params_b, &ckpt).expect("swap checkpoint");

    let (status, body) = common::read_response(&mut probe);
    assert_eq!(status, 200, "probe failed: {body}");
    assert!(
        body.contains("\"model_generation\":1"),
        "the probe was admitted before the reload landed (fillers drained \
         too fast to hold it in the queue): {body}"
    );
    assert_eq!(body, oracle, "stale prefill answered with old weights");
    assert!(
        stale.value() > stale_before,
        "the stale prefill was not re-encoded"
    );
    drop(fillers);

    server.shutdown();
    assert_eq!(rpt_obs::gauge("serve.kv_slots_in_use").value(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a server answers for the scoring probe and a greedy clean.
fn answers(addr: std::net::SocketAddr) -> (f64, String) {
    let (status, body) = common::request(addr, "POST", "/v1/clean", CLEAN);
    assert_eq!(status, 200, "clean failed: {body}");
    let tokens = rpt_json::Json::parse(&body)
        .expect("clean body is JSON")
        .get("tokens")
        .expect("clean body has tokens")
        .to_string();
    (probe_score(addr), tokens)
}

const CLEAN: &str = r#"{"src": [9, 10, 11], "max_steps": 6}"#;

/// A quantized server reloads a quantized checkpoint with exactly one
/// read of the file — params and int8 section from the same bytes — and
/// then answers exactly like a fresh server started from that file.
#[test]
fn quantized_reload_reads_once_and_matches_a_fresh_server() {
    use rpt_tensor::serialize::{apply_params, save_quant_file, Checkpoint};
    let _guard = common::serial();
    rpt_obs::set_metrics_enabled(true);
    let dir = common::fresh_dir("quant-reload");
    let ckpt = dir.join("model.json");

    let (model_a, params_a) = common::tiny_model(0);
    let (model_b, params_b) = common::tiny_model(7);
    // The stored int8 tensors come from a third weight set, so the answers
    // show that the file's section is served, not a requantization.
    let stored = rpt_nn::build_quant_set(&common::tiny_model(9).1);
    let config = |checkpoint| ServeConfig {
        checkpoint,
        quant: true,
        max_batch: 4,
        queue_cap: 8,
        reload_poll_ms: 5,
        read_timeout_ms: 10,
        ..ServeConfig::default()
    };

    save_file(&params_a, &ckpt).expect("seed checkpoint");
    let server =
        Server::start(model_a, params_a.clone(), config(Some(ckpt.clone()))).expect("start");
    let addr = server.addr();
    let before = answers(addr);
    let reloads = rpt_obs::counter("serve.reloads");
    let loads = rpt_obs::counter("ckpt.loads");
    let (reloads_before, loads_before) = (reloads.value(), loads.value());

    save_quant_file(&params_b, stored.iter_named(), &ckpt).expect("quantized swap");
    eventually(|| reloads.value() > reloads_before, "the quantized reload");
    assert_eq!(reloads.value(), reloads_before + 1);
    assert_eq!(
        loads.value(),
        loads_before + 1,
        "a reload must read the checkpoint exactly once"
    );
    let reloaded = answers(addr);
    server.shutdown();
    assert_ne!(reloaded, before, "generations are distinguishable");

    // The fresh server loads the file the way `rpt serve --quant --load`
    // does: one read, params applied, the stored section attached.
    let file = Checkpoint::read(&ckpt).expect("read quantized checkpoint");
    let mut params = params_a;
    apply_params(&mut params, file.params).expect("params");
    let qs = rpt_nn::quant_set_from_named(&params, file.quant.expect("quant section"))
        .expect("quant section matches the model");
    let mut model = model_b;
    model.set_quant(Some(std::sync::Arc::new(qs)));
    let fresh = Server::start(model, params, config(None)).expect("start fresh");
    assert_eq!(
        answers(fresh.addr()),
        reloaded,
        "the reloaded server answers unlike a fresh one"
    );
    fresh.shutdown();

    // Requantizing B instead of attaching the stored section answers
    // differently, so the equality above is the stored section's.
    let requantized =
        Server::start(common::tiny_model(7).0, params_b, config(None)).expect("start requantized");
    assert_ne!(answers(requantized.addr()), reloaded);
    requantized.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
