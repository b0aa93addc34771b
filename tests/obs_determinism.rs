//! Observability must be a spectator: running the exact same short
//! pretrain with metrics, spans, periodic snapshots, and verbose logging
//! all switched on must leave the model on the same trajectory — byte
//! identical final checkpoint, bit-identical loss curve — as a run with
//! every instrument dark. Metric values flow *out* of the trainer into
//! the registry; nothing flows back.
//!
//! Both runs live in one test function because the enabled/disabled
//! switches are process-global: the enabled run goes first, then the
//! instruments are turned off and the dark run repeats from scratch.
//! The serving path gets the same treatment: a trace-on server must
//! return byte-identical response bodies to a dark one.

mod common;

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use rpt::core::cleaning::{CheckpointOpts, CleaningConfig, RptC};
use rpt::core::train::{TrainOpts, TRAIN_STATE_FILE};
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt_rng::{SeedableRng, SmallRng};

const STEPS: usize = 6;

fn config() -> CleaningConfig {
    let mut cfg = CleaningConfig::tiny();
    // dropout on: the RNG streams are the part of the trajectory most
    // easily perturbed by a stray draw, so make them load-bearing
    cfg.model.dropout = 0.1;
    cfg.train = TrainOpts {
        steps: STEPS,
        batch_size: 4,
        micro_batch: 2,
        warmup: 3,
        peak_lr: 3e-3,
        ..Default::default()
    };
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpt-obs-determinism-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One complete pretrain; returns (final checkpoint bytes, loss bits).
fn run_once(tag: &str) -> (Vec<u8>, Vec<u32>) {
    let dir = fresh_dir(tag);
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, mut benches) = standard_benchmarks(16, &mut rng);
    let b = benches.remove(0);
    let tables = [b.table_a, b.table_b];
    let vocab = build_vocab(&tables.iter().collect::<Vec<_>>(), &[], 1, 4000);

    let pool = ThreadPool::new(2);
    let table_refs: Vec<&Table> = tables.iter().collect();
    let mut model = RptC::new(vocab, config());
    let losses = model
        .pretrain_on(
            &pool,
            &table_refs,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: 2,
            }),
            None,
        )
        .unwrap();
    assert_eq!(losses.len(), STEPS);
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    (bytes, losses.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn instrumented_run_is_byte_identical_to_dark_run() {
    let scratch = fresh_dir("artifacts");
    let snapshot_path = scratch.join("metrics.json");
    let log_path = scratch.join("log.jsonl");

    // Instrumented run: everything on. Trace-level logging through the
    // JSON sink, metrics recording, and a snapshot rewritten on every
    // training step (period zero means each tick_snapshot fires).
    rpt_obs::set_filter(rpt_obs::Filter::parse("trace"));
    rpt_obs::set_json_sink(&log_path).unwrap();
    rpt_obs::set_metrics_enabled(true);
    rpt_obs::set_snapshot_output(&snapshot_path, Duration::ZERO);
    let (hot_bytes, hot_losses) = run_once("hot");
    rpt_obs::flush_snapshot();

    // The instruments must actually have observed the run, otherwise the
    // comparison below is vacuous.
    let snap = fs::read_to_string(&snapshot_path).unwrap();
    let json = rpt_json::Json::parse(&snap).expect("snapshot must be valid JSON");
    let text = json.to_string();
    for name in [
        "train.steps",
        "train.step_ms",
        "par.sections",
        "ckpt.save_ms",
    ] {
        assert!(text.contains(name), "snapshot is missing {name}: {text}");
    }
    let log = fs::read_to_string(&log_path).unwrap();
    assert!(!log.is_empty(), "trace logging produced no JSON lines");

    // Dark run: every instrument off, quietest possible logging.
    rpt_obs::set_metrics_enabled(false);
    rpt_obs::set_filter(rpt_obs::Filter::parse("off"));
    let (dark_bytes, dark_losses) = run_once("dark");

    assert_eq!(
        hot_losses, dark_losses,
        "loss curve diverged between instrumented and dark runs"
    );
    assert_eq!(
        hot_bytes, dark_bytes,
        "final checkpoint bytes diverged between instrumented and dark runs"
    );
    fs::remove_dir_all(&scratch).ok();
}

/// The decode requests both servers answer, in order. Mixed modes so the
/// comparison covers greedy, beam, forced-score, and detect rendering.
fn serve_requests() -> Vec<(&'static str, String)> {
    let ids = common::ids_json;
    vec![
        (
            "/v1/clean",
            format!(r#"{{"src": {}, "max_steps": 8}}"#, ids(&[9, 10])),
        ),
        (
            "/v1/clean",
            format!(
                r#"{{"src": {}, "mode": "beam", "beam_width": 4, "max_steps": 8}}"#,
                ids(&[11])
            ),
        ),
        (
            "/v1/match",
            format!(
                r#"{{"src": {}, "targets": {}}}"#,
                ids(&[9, 10]),
                ids(&[9, 10])
            ),
        ),
        ("/v1/detect", format!(r#"{{"src": {}}}"#, ids(&[10, 9]))),
    ]
}

fn start_server() -> rpt::serve::Server {
    let (model, params) = common::trained_copy_model();
    rpt::serve::Server::start(
        model,
        params,
        rpt::serve::ServeConfig {
            max_batch: 4,
            queue_cap: 64,
            ..Default::default()
        },
    )
    .expect("server starts")
}

/// A decode request's stages, in the order they partition its wall time.
const STAGES: [&str; 6] = [
    "serve.parse",
    "serve.prefill",
    "serve.queue_wait",
    "serve.batch_wait",
    "serve.decode",
    "serve.serialize",
];

/// Sum of a trace's stage durations, if every stage is present. Panics if
/// a stage starts before the previous one ended (the stages must
/// partition the request, not overlap).
fn stage_sum_ns(spans: &[rpt_json::Json]) -> Option<u64> {
    let span_of = |name: &str| {
        let s = spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))?;
        Some((
            s.get("start_ns").and_then(|d| d.as_u64())?,
            s.get("dur_ns").and_then(|d| d.as_u64())?,
        ))
    };
    let stages: Vec<(u64, u64)> = STAGES.iter().map(|n| span_of(n)).collect::<Option<_>>()?;
    for (i, pair) in stages.windows(2).enumerate() {
        let ((start, dur), (next_start, _)) = (pair[0], pair[1]);
        assert!(
            start + dur <= next_start,
            "{} overlaps {} in a request trace",
            STAGES[i],
            STAGES[i + 1]
        );
    }
    Some(stages.iter().map(|&(_, dur)| dur).sum())
}

#[test]
fn traced_server_is_byte_identical_to_dark_server() {
    // Trace-on phase: every request also opts into the stage summary
    // header, which must appear without perturbing the body.
    rpt_obs::set_trace_enabled(true);
    let server = start_server();
    let addr = server.addr().to_string();
    let traced: Vec<String> = serve_requests()
        .iter()
        .map(|(path, body)| {
            let (status, head, resp) =
                common::request_full(&addr, "POST", path, &[("x-rpt-trace", "1")], body);
            assert_eq!(status, 200, "traced request failed: {resp}");
            assert!(
                head.to_ascii_lowercase().contains("x-rpt-trace:"),
                "traced server must echo the stage summary header, got: {head}"
            );
            resp
        })
        .collect();

    // The Prometheus exposition renders over the same registry.
    let (status, text) = common::get(&addr, "/metrics?format=text");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE serve_requests counter"),
        "text exposition missing serve_requests: {text}"
    );

    // /debug/tracez must list at least one complete request trace whose
    // stage spans sum to within the request's wall time. The root span
    // closes just after the response bytes leave, so poll briefly.
    let mut verified = false;
    for _ in 0..200 {
        let (status, body) = common::get(&addr, "/debug/tracez");
        assert_eq!(status, 200);
        let doc = rpt_json::Json::parse(&body).expect("tracez JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("rpt-tracez-v1")
        );
        let traces = doc
            .get("traces")
            .and_then(|t| t.as_array())
            .expect("traces array");
        for trace in traces {
            if trace.get("complete").and_then(|c| c.as_bool()) != Some(true) {
                continue;
            }
            let spans = trace
                .get("spans")
                .and_then(|s| s.as_array())
                .expect("spans array");
            let Some(sum) = stage_sum_ns(spans) else {
                continue; // not a decode trace (e.g. the tracez GET itself)
            };
            let wall = spans
                .iter()
                .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("serve.request"))
                .and_then(|s| s.get("dur_ns").and_then(|d| d.as_u64()))
                .expect("complete trace has a root span duration");
            assert!(
                sum <= wall,
                "stage durations ({sum}ns) exceed request wall time ({wall}ns)"
            );
            verified = true;
        }
        if verified {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        verified,
        "no complete request trace with all six stage spans appeared in /debug/tracez"
    );
    server.shutdown();

    // Dark phase: identical requests against identically trained weights,
    // tracing off. Bodies must match byte for byte, and no summary header
    // may appear even when the client asks for one.
    rpt_obs::set_trace_enabled(false);
    let server = start_server();
    let addr = server.addr().to_string();
    let dark: Vec<String> = serve_requests()
        .iter()
        .map(|(path, body)| {
            let (status, head, resp) =
                common::request_full(&addr, "POST", path, &[("x-rpt-trace", "1")], body);
            assert_eq!(status, 200, "dark request failed: {resp}");
            assert!(
                !head.to_ascii_lowercase().contains("x-rpt-trace:"),
                "dark server must not emit the summary header, got: {head}"
            );
            resp
        })
        .collect();
    server.shutdown();

    assert_eq!(
        traced, dark,
        "response bodies diverged between trace-on and dark servers"
    );
}
