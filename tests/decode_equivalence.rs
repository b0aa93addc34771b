//! Fast-path / reference decoding equivalence.
//!
//! The cached decode engine (`greedy_decode` / `beam_search` /
//! `forced_score`, one-job `MicroBatcher` runs) must produce
//! **token-identical** output to the full-prefix reference recomputes
//! (`greedy_decode_reference` / `beam_search_reference` /
//! `forced_score_reference`) on trained models, with hypothesis scores and
//! per-token log-probabilities within 1e-4. Also unit-tests the KV cache
//! itself: single-token append shape/content and beam-row replication.

mod common;

use common::{trained_copy_model, BOS, EOS};
use rpt::core::cleaning::{CleaningConfig, MaskPolicy, RptC};
use rpt::core::vocabulary::build_vocab;
use rpt::nn::{
    beam_search, beam_search_reference, forced_score, forced_score_reference, greedy_decode,
    greedy_decode_reference, BeamConfig, Hypothesis, JobOutput, JobSpec, MicroBatcher, Seq2Seq,
    Sequence, TokenBatch,
};
use rpt::table::{Schema, Table, Value};
use rpt::tensor::ParamStore;
use rpt_rng::{Rng, SeedableRng, SmallRng};

/// Pretrains a tiny RPT-C denoising model on an FD table (brand → maker).
fn trained_denoising_model() -> (RptC, Table) {
    let mut t = Table::new("products", Schema::text_columns(&["title", "maker"]));
    let rows: [(&str, &str); 8] = [
        ("iphone seven", "apple"),
        ("iphone eight", "apple"),
        ("galaxy seven", "samsung"),
        ("galaxy eight", "samsung"),
        ("pixel seven", "google"),
        ("pixel eight", "google"),
        ("xperia seven", "sony"),
        ("xperia eight", "sony"),
    ];
    for (a, b) in rows {
        t.push_values(vec![Value::text(a), Value::text(b)]);
    }
    let vocab = build_vocab(&[&t], &[], 1, 500);
    let mut cfg = CleaningConfig::tiny();
    cfg.mask_policy = MaskPolicy::AttributeValue;
    cfg.train.steps = 150;
    cfg.train.batch_size = 8;
    cfg.train.peak_lr = 4e-3;
    let mut rptc = RptC::new(vocab, cfg);
    rptc.pretrain(&[&t]);
    (rptc, t)
}

fn assert_beams_match(fast: &[Hypothesis], reference: &[Hypothesis]) {
    assert_eq!(fast.len(), reference.len(), "hypothesis count differs");
    for (i, (f, r)) in fast.iter().zip(reference.iter()).enumerate() {
        assert_eq!(f.tokens, r.tokens, "hypothesis {i} tokens differ");
        assert!(
            (f.score - r.score).abs() <= 1e-4,
            "hypothesis {i} score drifted: {} vs {}",
            f.score,
            r.score
        );
    }
}

/// Scores `targets` on both forced paths: per-token log-probs within 1e-4,
/// same count. Returns the count.
fn assert_forced_matches(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    targets: &[usize],
) -> usize {
    let (total, per_token) = forced_score(model, params, src, BOS, EOS, targets);
    let (ref_total, ref_per_token) = forced_score_reference(model, params, src, BOS, EOS, targets);
    assert_eq!(per_token.len(), ref_per_token.len(), "scored count");
    for (i, (f, r)) in per_token.iter().zip(&ref_per_token).enumerate() {
        assert!((f - r).abs() <= 1e-4, "token {i} drifted: {f} vs {r}");
    }
    assert!((total - ref_total).abs() <= 1e-4 * per_token.len() as f32);
    per_token.len()
}

#[test]
fn greedy_cached_matches_reference_on_copy_model() {
    let (model, mut params) = trained_copy_model();
    for ids in [vec![10, 9], vec![9, 11], vec![11], vec![9, 10]] {
        let src = TokenBatch::from_sequences(&[Sequence::from_ids(ids.clone())], 16, 0);
        let fast = greedy_decode(&model, &mut params, &src, BOS, EOS, 8);
        let reference = greedy_decode_reference(&model, &mut params, &src, BOS, EOS, 8);
        assert_eq!(fast, reference, "greedy diverged on src {ids:?}");
    }
}

#[test]
fn beam_cached_matches_reference_on_copy_model() {
    let (model, mut params) = trained_copy_model();
    for width in [1, 2, 4] {
        for ids in [vec![11, 10], vec![9, 10], vec![10]] {
            let cfg = BeamConfig {
                width,
                max_steps: 8,
                len_penalty: 1.0,
            };
            let src = TokenBatch::from_sequences(&[Sequence::from_ids(ids.clone())], 16, 0);
            let fast = beam_search(&model, &mut params, &src, BOS, EOS, &cfg);
            let reference = beam_search_reference(&model, &mut params, &src, BOS, EOS, &cfg);
            assert_beams_match(&fast, &reference);
        }
    }
}

#[test]
fn decoding_matches_reference_on_denoising_model() {
    let (mut rptc, t) = trained_denoising_model();
    let max_len = rptc.config().model.max_len;
    let max_fill = rptc.config().max_fill_len;
    let srcs: Vec<TokenBatch> = [0, 2, 5]
        .iter()
        .map(|&row| {
            let seq = rptc.masked_source(t.schema(), t.row(row), 1);
            TokenBatch::from_sequences(&[seq], max_len, 0)
        })
        .collect();
    let (model, params) = rptc.decode_parts();
    for (i, src) in srcs.iter().enumerate() {
        let fast = greedy_decode(model, params, src, BOS, EOS, max_fill);
        let reference = greedy_decode_reference(model, params, src, BOS, EOS, max_fill);
        assert_eq!(fast, reference, "greedy diverged on masked row {i}");

        let cfg = BeamConfig {
            width: 4,
            max_steps: max_fill,
            len_penalty: 1.0,
        };
        let fast = beam_search(model, params, src, BOS, EOS, &cfg);
        let reference = beam_search_reference(model, params, src, BOS, EOS, &cfg);
        assert_beams_match(&fast, &reference);
    }
}

/// Forced scoring matches the reference on both models, including targets
/// long enough that scoring stops at `max_len`.
#[test]
fn forced_score_matches_reference_on_both_models() {
    let (model, mut params) = trained_copy_model();
    let max_len = model.config().max_len;
    let long: Vec<usize> = (0..max_len + 4).map(|i| 9 + i % 3).collect();
    for (ids, targets) in [
        (vec![10, 9], vec![10, 9]),
        (vec![9, 11], vec![11, 11]),
        (vec![11], vec![]),
        (vec![9, 10], long.clone()),
    ] {
        let src = TokenBatch::from_sequences(&[Sequence::from_ids(ids)], 16, 0);
        let n = assert_forced_matches(&model, &mut params, &src, &targets);
        assert_eq!(n, (targets.len() + 1).min(max_len - 1));
    }

    let (mut rptc, t) = trained_denoising_model();
    let max_len = rptc.config().model.max_len;
    let srcs: Vec<TokenBatch> = [0, 2, 5]
        .iter()
        .map(|&row| {
            let seq = rptc.masked_source(t.schema(), t.row(row), 1);
            TokenBatch::from_sequences(&[seq], max_len, 0)
        })
        .collect();
    let (model, params) = rptc.decode_parts();
    let vocab = model.config().vocab_size;
    let long: Vec<usize> = (0..max_len + 4).map(|i| 3 + i % (vocab - 3)).collect();
    for src in &srcs {
        let greedy = greedy_decode(model, params, src, BOS, EOS, 8);
        assert_forced_matches(model, params, src, &greedy);
        let n = assert_forced_matches(model, params, src, &long);
        assert_eq!(n, max_len - 1, "long target must stop at max_len");
    }
}

/// EOS at step 0: pick the model's own first-step argmax as the "EOS" id,
/// so both paths must stop immediately with an empty output.
#[test]
fn eos_at_step_zero_yields_empty_output_on_both_paths() {
    let (model, mut params) = trained_copy_model();
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![10, 9])], 16, 0);
    // The copy model's first output token for [10, 9] is 10.
    let first = greedy_decode(&model, &mut params, &src, BOS, EOS, 1);
    let fake_eos = first[0];
    let fast = greedy_decode(&model, &mut params, &src, BOS, fake_eos, 8);
    let reference = greedy_decode_reference(&model, &mut params, &src, BOS, fake_eos, 8);
    assert!(fast.is_empty());
    assert!(reference.is_empty());

    let cfg = BeamConfig {
        width: 3,
        max_steps: 8,
        len_penalty: 1.0,
    };
    let fast = beam_search(&model, &mut params, &src, BOS, fake_eos, &cfg);
    let reference = beam_search_reference(&model, &mut params, &src, BOS, fake_eos, &cfg);
    assert_beams_match(&fast, &reference);
    assert!(
        fast.iter().any(|h| h.tokens.is_empty()),
        "an immediate-EOS hypothesis must survive"
    );
}

/// max_steps truncation: with fewer steps than the natural output length,
/// both paths return the same truncated sequence (and 0 steps → empty).
#[test]
fn max_steps_truncation_matches_on_both_paths() {
    let (model, mut params) = trained_copy_model();
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![9, 11])], 16, 0);
    for max_steps in [0, 1, 2] {
        let fast = greedy_decode(&model, &mut params, &src, BOS, EOS, max_steps);
        let reference = greedy_decode_reference(&model, &mut params, &src, BOS, EOS, max_steps);
        assert_eq!(fast, reference);
        assert!(fast.len() <= max_steps);
    }
    let cfg = BeamConfig {
        width: 2,
        max_steps: 1,
        len_penalty: 1.0,
    };
    let fast = beam_search(&model, &mut params, &src, BOS, EOS, &cfg);
    let reference = beam_search_reference(&model, &mut params, &src, BOS, EOS, &cfg);
    assert_beams_match(&fast, &reference);
    assert!(fast.iter().all(|h| h.tokens.len() <= 1));
}

/// KV-cache unit test: each decode step appends exactly one position to
/// every layer's self-attention K/V, earlier positions stay bit-identical,
/// and the cross K/V cover the source once and never change.
#[test]
fn kv_cache_appends_one_position_per_step() {
    let (model, mut params) = trained_copy_model();
    let cfg = model.config().clone();
    let d = cfg.d_model;
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![10, 9])], 16, 0);
    let t_src = src.t;

    let mut state = model.begin_decode(&mut params, &src);
    assert_eq!(state.decoded_len(), 0);
    let cache = state.cache();
    assert!(cache.is_empty(), "self cache starts empty");
    assert_eq!(cache.rows(), 1);
    for layer in 0..cfg.n_dec_layers {
        assert_eq!(cache.cross(layer).kt.shape(), &[1, d, t_src]);
        assert_eq!(cache.cross(layer).v.shape(), &[1, t_src, d]);
    }
    let cross_before: Vec<Vec<f32>> = (0..cfg.n_dec_layers)
        .map(|l| [cache.cross(l).kt.data(), cache.cross(l).v.data()].concat())
        .collect();

    let _ = model.decode_step(&mut params, &mut state, &[BOS]);
    assert_eq!(state.decoded_len(), 1);
    let first: Vec<(Vec<f32>, Vec<f32>)> = (0..cfg.n_dec_layers)
        .map(|l| state.cache().self_kv(l, 0, 0))
        .collect();
    for (k, v) in &first {
        assert_eq!((k.len(), v.len()), (d, d), "one position cached");
    }

    let _ = model.decode_step(&mut params, &mut state, &[10]);
    assert_eq!(state.decoded_len(), 2);
    let cache = state.cache();
    for (layer, before) in first.iter().enumerate() {
        // position 0 of every head is untouched by the append
        assert_eq!(
            &cache.self_kv(layer, 0, 0),
            before,
            "append rewrote cached position 0, layer {layer}"
        );
        assert_ne!(
            &cache.self_kv(layer, 0, 1),
            before,
            "position 1 was written"
        );
        assert_eq!(
            [cache.cross(layer).kt.data(), cache.cross(layer).v.data()].concat(),
            cross_before[layer],
            "cross K/V must never change across steps"
        );
    }
}

/// KV-cache unit test: the within-slot row gather behind beam reordering
/// (`KvCache::select`) replicates rows, and the replicas share the job's
/// one cross K/V.
#[test]
fn kv_cache_select_beams_replicates_rows() {
    let (model, mut params) = trained_copy_model();
    let cfg = model.config().clone();
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![9])], 16, 0);

    let mut state = model.begin_decode(&mut params, &src);
    let _ = model.decode_step(&mut params, &mut state, &[BOS]);
    let base = state.cache().self_kv(0, 0, 0);

    // hypothesis 0 twice
    let mut cache = state.cache().clone();
    cache.select(&[0, 0]);
    assert_eq!(cache.rows(), 2);
    assert_eq!(cache.len(), 1);
    // both replicas carry the parent's keys and values
    assert_eq!(cache.self_kv(0, 0, 0), base);
    assert_eq!(cache.self_kv(0, 1, 0), base);
    assert_eq!(cache.cross(0).kt.shape(), state.cache().cross(0).kt.shape());

    // the widened job keeps decoding: same token in both rows gives the
    // same logits row twice
    let et = model.tied_projection(&mut params);
    let (tokens, positions) = ([10, 10], [1, 1]);
    let logits = model.decode_step_rows(&mut params, &mut [&mut cache], &tokens, &positions, &et);
    assert_eq!(logits.shape(), &[2, cfg.vocab_size]);
    let v = cfg.vocab_size;
    assert_eq!(&logits.data()[..v], &logits.data()[v..]);
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.self_kv(0, 0, 1), cache.self_kv(0, 1, 1));
}

/// One job of the seeded schedule below: a random greedy, beam (width
/// 1–4) or forced job over a random source of 1 to `max_len` tokens. A
/// third of the greedy and beam jobs get an EOS id the model can never
/// emit, and a third of all budgets exceed `max_len`, so some jobs decode
/// until `max_len`.
fn random_job(rng: &mut SmallRng, max_len: usize, vocab: usize) -> JobSpec {
    let mut budget = || {
        if rng.gen_range(0..3usize) == 0 {
            max_len + 2
        } else {
            rng.gen_range(1..max_len)
        }
    };
    let steps = budget();
    let len = rng.gen_range(1..max_len + 1);
    let ids: Vec<usize> = (0..len).map(|_| rng.gen_range(3..vocab)).collect();
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(ids)], max_len, 0);
    let eos = if rng.gen_range(0..3usize) == 0 {
        vocab
    } else {
        EOS
    };
    match rng.gen_range(0..3usize) {
        0 => JobSpec::Greedy {
            src,
            bos: BOS,
            eos,
            max_steps: steps - 1,
        },
        1 => JobSpec::Beam {
            src,
            bos: BOS,
            eos,
            cfg: BeamConfig {
                width: rng.gen_range(1..5usize),
                max_steps: steps,
                len_penalty: 1.0,
            },
        },
        _ => JobSpec::Forced {
            src,
            bos: BOS,
            eos: EOS,
            targets: (1..steps).map(|_| rng.gen_range(3..vocab)).collect(),
        },
    }
}

/// Bit patterns of everything a job returns: tokens, and scores as `f32`
/// bits.
fn output_bits(out: &JobOutput) -> Vec<u64> {
    match out {
        JobOutput::Greedy { tokens } => tokens.iter().map(|&t| t as u64).collect(),
        JobOutput::Beam { hypotheses } => hypotheses_bits(hypotheses),
        JobOutput::Forced {
            total_logprob,
            per_token,
        } => std::iter::once(total_logprob)
            .chain(per_token)
            .map(|x| u64::from(x.to_bits()))
            .collect(),
    }
}

fn hypotheses_bits(hypotheses: &[Hypothesis]) -> Vec<u64> {
    let mut bits = Vec::new();
    for h in hypotheses {
        bits.push(u64::from(h.score.to_bits()));
        bits.push(h.tokens.len() as u64);
        bits.extend(h.tokens.iter().map(|&t| t as u64));
    }
    bits
}

/// `spec` run alone through the single-request entry point, and through
/// its full-prefix reference, as bit patterns.
fn alone_and_reference(
    model: &Seq2Seq,
    params: &mut ParamStore,
    spec: &JobSpec,
) -> (Vec<u64>, Vec<u64>) {
    let tokens = |t: Vec<usize>| t.into_iter().map(|t| t as u64).collect::<Vec<u64>>();
    let forced = |(total, per): (f32, Vec<f32>)| {
        output_bits(&JobOutput::Forced {
            total_logprob: total,
            per_token: per,
        })
    };
    match spec {
        JobSpec::Greedy {
            src,
            bos,
            eos,
            max_steps,
        } => (
            tokens(greedy_decode(model, params, src, *bos, *eos, *max_steps)),
            tokens(greedy_decode_reference(
                model, params, src, *bos, *eos, *max_steps,
            )),
        ),
        JobSpec::Beam { src, bos, eos, cfg } => (
            hypotheses_bits(&beam_search(model, params, src, *bos, *eos, cfg)),
            hypotheses_bits(&beam_search_reference(model, params, src, *bos, *eos, cfg)),
        ),
        JobSpec::Forced {
            src,
            bos,
            eos,
            targets,
        } => (
            forced(forced_score(model, params, src, *bos, *eos, targets)),
            forced(forced_score_reference(
                model, params, src, *bos, *eos, targets,
            )),
        ),
    }
}

/// A seeded schedule through one batcher: random greedy, beam and forced
/// jobs (plus one over an empty source, whose single masked position must
/// decode as it does alone) admitted a few at a time while others are
/// mid-decode, some cancelled, some decoding to `max_len` so their
/// self-attention caches grow to the bound. Every job that finishes must
/// bit-equal the same job run alone and its full-prefix reference.
#[test]
fn seeded_schedule_matches_lone_runs_and_references() {
    let (model, mut params) = trained_copy_model();
    let (max_len, vocab) = (model.config().max_len, model.config().vocab_size);
    let mut rng = SmallRng::seed_from_u64(20);
    let mut jobs: Vec<JobSpec> = (0..24)
        .map(|_| random_job(&mut rng, max_len, vocab))
        .collect();
    jobs.insert(
        5,
        JobSpec::Greedy {
            src: TokenBatch::from_sequences(&[Sequence::from_ids(Vec::new())], max_len, 0),
            bos: BOS,
            eos: vocab,
            max_steps: 6,
        },
    );
    let reaches_max_len = |spec: &JobSpec| match spec {
        JobSpec::Greedy { eos, max_steps, .. } => *eos == vocab && *max_steps >= max_len,
        JobSpec::Beam { eos, cfg, .. } => *eos == vocab && cfg.max_steps >= max_len,
        JobSpec::Forced { targets, .. } => targets.len() + 1 >= max_len,
    };

    let mut mb = MicroBatcher::new(&model, &mut params);
    let mut got: Vec<Option<Vec<u64>>> = vec![None; jobs.len()];
    let mut cancelled: Vec<usize> = Vec::new();
    let mut next = 0;
    while next < jobs.len() || !mb.is_idle() {
        for _ in 0..rng.gen_range(0..4usize) {
            if next < jobs.len() {
                mb.admit(&model, &mut params, next as u64, jobs[next].clone());
                next += 1;
            }
        }
        if next > 0 && rng.gen_range(0..10usize) == 0 {
            let id = rng.gen_range(0..next);
            if mb.cancel(id as u64) {
                cancelled.push(id);
            }
        }
        for (id, out) in mb.step(&model, &mut params) {
            got[id as usize] = Some(output_bits(&out));
        }
    }
    assert!(!cancelled.is_empty(), "the schedule must cancel a job");
    let to_bound = (0..jobs.len())
        .filter(|i| reaches_max_len(&jobs[*i]) && !cancelled.contains(i))
        .count();
    assert!(
        to_bound >= 2,
        "the schedule must run some caches to their bound"
    );
    assert_eq!(mb.rows(), 0);

    for (i, spec) in jobs.iter().enumerate() {
        let (alone, reference) = alone_and_reference(&model, &mut params, spec);
        assert_eq!(alone, reference, "job {i}: lone run vs reference");
        match &got[i] {
            Some(fused) => assert_eq!(fused, &alone, "job {i}: batched vs lone run"),
            None => assert!(cancelled.contains(&i), "job {i} never finished"),
        }
    }
}
