//! Batched-server / single-request decode equivalence.
//!
//! The `rpt-serve` micro-batcher coalesces concurrent decode requests
//! into fused multi-row steps. This suite proves the fusion is
//! invisible: a server running with `max_batch = 8` under concurrent
//! mixed-length clients returns **bit-identical** results to the
//! single-request decode loops (`greedy_decode`, `beam_search`,
//! `forced_score`) run directly on the same trained weights — token
//! sequences equal, and every score equal down to the `f32` bit
//! pattern after its JSON `f64` round-trip.
//!
//! Sources are encoded on the connection threads, so the suite also
//! checks (through the request traces) that at least two connections
//! were encoding at the same time: concurrent prefills on the shared
//! thread pool must not change a byte.

mod common;

use common::{ids_json, post, trained_copy_model, BOS, EOS};
use rpt::json::Json;
use rpt::nn::{
    beam_search, forced_score, greedy_decode, BeamConfig, Hypothesis, Sequence, TokenBatch,
};
use rpt::serve::{ServeConfig, Server};

fn tokens_of(doc: &Json, key: &str) -> Vec<usize> {
    match doc.get(key) {
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| v.as_u64().expect("token id") as usize)
            .collect(),
        other => panic!("{key} missing or not an array: {other:?}"),
    }
}

/// Extracts an `f32` that crossed the wire as JSON `f64`, preserving bits.
fn f32_of(v: &Json) -> f32 {
    v.as_f64().expect("number") as f32
}

/// Everything one request must produce, precomputed on the weights
/// before they move into the server.
enum Expected {
    Greedy {
        src: Vec<usize>,
        tokens: Vec<usize>,
    },
    Beam {
        src: Vec<usize>,
        hyps: Vec<Hypothesis>,
    },
    Match {
        src: Vec<usize>,
        targets: Vec<usize>,
        total: f32,
        per_token: Vec<f32>,
    },
    Detect {
        src: Vec<usize>,
        total: f32,
        per_token: Vec<f32>,
    },
}

const MAX_STEPS: usize = 8;

impl Expected {
    fn request(&self) -> (&'static str, String) {
        match self {
            Expected::Greedy { src, .. } => (
                "/v1/clean",
                format!(r#"{{"src": {}, "max_steps": {MAX_STEPS}}}"#, ids_json(src)),
            ),
            Expected::Beam { src, .. } => (
                "/v1/clean",
                format!(
                    r#"{{"src": {}, "mode": "beam", "beam_width": 4, "max_steps": {MAX_STEPS}}}"#,
                    ids_json(src)
                ),
            ),
            Expected::Match { src, targets, .. } => (
                "/v1/match",
                format!(
                    r#"{{"src": {}, "targets": {}}}"#,
                    ids_json(src),
                    ids_json(targets)
                ),
            ),
            Expected::Detect { src, .. } => {
                ("/v1/detect", format!(r#"{{"src": {}}}"#, ids_json(src)))
            }
        }
    }

    fn check(&self, body: &str) {
        let doc = Json::parse(body).expect("response JSON");
        match self {
            Expected::Greedy { src, tokens } => {
                assert_eq!(
                    &tokens_of(&doc, "tokens"),
                    tokens,
                    "greedy tokens diverged for src {src:?}"
                );
            }
            Expected::Beam { src, hyps } => {
                let got = match doc.get("hypotheses") {
                    Some(Json::Array(items)) => items,
                    other => panic!("hypotheses missing: {other:?}"),
                };
                assert_eq!(got.len(), hyps.len(), "beam count diverged for src {src:?}");
                for (i, (g, want)) in got.iter().zip(hyps.iter()).enumerate() {
                    assert_eq!(
                        tokens_of(g, "tokens"),
                        want.tokens,
                        "beam hypothesis {i} tokens diverged for src {src:?}"
                    );
                    let score = f32_of(g.get("score").expect("score"));
                    assert_eq!(
                        score.to_bits(),
                        want.score.to_bits(),
                        "beam hypothesis {i} score not bit-identical for src {src:?}: \
                         {score} vs {}",
                        want.score
                    );
                }
            }
            Expected::Match {
                src,
                total,
                per_token,
                ..
            }
            | Expected::Detect {
                src,
                total,
                per_token,
            } => {
                let got_total = f32_of(doc.get("total_logprob").expect("total_logprob"));
                assert_eq!(
                    got_total.to_bits(),
                    total.to_bits(),
                    "total_logprob not bit-identical for src {src:?}: {got_total} vs {total}"
                );
                let got_per: Vec<f32> = match doc.get("per_token") {
                    Some(Json::Array(items)) => items.iter().map(f32_of).collect(),
                    other => panic!("per_token missing: {other:?}"),
                };
                assert_eq!(got_per.len(), per_token.len());
                for (i, (g, w)) in got_per.iter().zip(per_token.iter()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "per_token[{i}] not bit-identical for src {src:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_server_is_bit_identical_to_single_request_decode() {
    let (model, mut params) = trained_copy_model();
    let max_len = model.config().max_len;
    let batch =
        |ids: &[usize]| TokenBatch::from_sequences(&[Sequence::from_ids(ids.to_vec())], max_len, 0);

    // Mixed-length sources so fused rows carry different pasts.
    let greedy_srcs: Vec<Vec<usize>> = vec![
        vec![9, 10],
        vec![11],
        vec![10, 9],
        vec![9, 11, 10],
        vec![10],
    ];
    let beam_srcs: Vec<Vec<usize>> = vec![vec![11, 10], vec![9], vec![10, 11], vec![9, 10, 11]];
    let match_jobs: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![9, 10], vec![9, 10]),
        (vec![9, 10], vec![11]),
        (vec![11, 9], vec![11, 9, 10]),
    ];
    let detect_srcs: Vec<Vec<usize>> = vec![vec![10, 9], vec![9, 10, 11]];

    // Oracles first: the weights move into the server afterwards.
    let mut expected: Vec<Expected> = Vec::new();
    for src in &greedy_srcs {
        let tokens = greedy_decode(&model, &mut params, &batch(src), BOS, EOS, MAX_STEPS);
        expected.push(Expected::Greedy {
            src: src.clone(),
            tokens,
        });
    }
    for src in &beam_srcs {
        let cfg = BeamConfig {
            width: 4,
            max_steps: MAX_STEPS,
            len_penalty: 1.0,
        };
        let hyps = beam_search(&model, &mut params, &batch(src), BOS, EOS, &cfg);
        expected.push(Expected::Beam {
            src: src.clone(),
            hyps,
        });
    }
    for (src, targets) in &match_jobs {
        let (total, per_token) = forced_score(&model, &mut params, &batch(src), BOS, EOS, targets);
        expected.push(Expected::Match {
            src: src.clone(),
            targets: targets.clone(),
            total,
            per_token,
        });
    }
    for src in &detect_srcs {
        let (total, per_token) = forced_score(&model, &mut params, &batch(src), BOS, EOS, src);
        expected.push(Expected::Detect {
            src: src.clone(),
            total,
            per_token,
        });
    }

    // Traces record each request's `serve.prefill` span, which is how the
    // overlap check below sees concurrent encodes.
    rpt_obs::set_trace_enabled(true);
    let server = Server::start(
        model,
        params,
        ServeConfig {
            max_batch: 8,
            queue_cap: 64,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr().to_string();

    // Every expected answer gets its own client thread; at least three
    // rounds so late joiners land mid-batch (exercising lead-pad +
    // compaction), and the bytes of each repeated answer must not drift
    // between rounds. Extra rounds (bounded) run only until two
    // connections have been seen encoding at once.
    let mut first_bodies: Vec<Option<String>> = vec![None; expected.len()];
    let mut round = 0;
    while round < 3 || (!prefills_overlapped() && round < 40) {
        round += 1;
        let bodies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = expected
                .iter()
                .map(|e| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let (path, body) = e.request();
                        let (status, resp) = post(&addr, path, &body);
                        assert_eq!(status, 200, "unexpected status; body: {resp}");
                        e.check(&resp);
                        resp
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        for (slot, body) in first_bodies.iter_mut().zip(bodies) {
            match slot {
                None => *slot = Some(body),
                Some(first) => assert_eq!(
                    first, &body,
                    "response bytes drifted between rounds under batching"
                ),
            }
        }
    }
    assert!(
        prefills_overlapped(),
        "no two connections ever encoded concurrently in {round} rounds"
    );

    server.shutdown();
    rpt_obs::set_trace_enabled(false);
}

/// True when two requests' `serve.prefill` spans in the trace ring
/// overlap in time (two connection threads encoding at once).
fn prefills_overlapped() -> bool {
    let mut spans: Vec<(u64, u64)> = rpt_obs::collect_spans(&rpt_obs::trace_events())
        .into_iter()
        .filter(|s| s.name == "serve.prefill")
        .filter_map(|s| Some((s.start_ns, s.start_ns + s.dur_ns?)))
        .collect();
    spans.sort_unstable();
    spans.windows(2).any(|w| w[1].0 < w[0].1)
}
