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
    greedy_decode_reference, BeamConfig, Hypothesis, Seq2Seq, Sequence, TokenBatch,
};
use rpt::table::{Schema, Table, Value};
use rpt::tensor::{ParamStore, Tensor};

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
    let (h, dh) = (cfg.n_heads, cfg.d_model / cfg.n_heads);
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![10, 9])], 16, 0);
    let t_src = src.t;

    let mut state = model.begin_decode(&mut params, &src);
    assert_eq!(state.decoded_len(), 0);
    assert_eq!(state.layers().len(), cfg.n_dec_layers);
    for layer in state.layers() {
        assert!(layer.self_k.is_none(), "self cache starts empty");
        assert_eq!(layer.cross_kt.shape(), &[h, dh, t_src]);
        assert_eq!(layer.cross_v.shape(), &[h, t_src, dh]);
    }
    let cross_kt_before = state.layers()[0].cross_kt.data().to_vec();

    let _ = model.decode_step(&mut params, &mut state, &[BOS]);
    assert_eq!(state.decoded_len(), 1);
    let k_after_1 = {
        let layer = &state.layers()[0];
        let k = layer.self_k.as_ref().expect("one position cached");
        assert_eq!(k.shape(), &[h, 1, dh]);
        assert_eq!(layer.self_v.as_ref().unwrap().shape(), &[h, 1, dh]);
        k.data().to_vec()
    };

    let _ = model.decode_step(&mut params, &mut state, &[10]);
    assert_eq!(state.decoded_len(), 2);
    let layer = &state.layers()[0];
    let k = layer.self_k.as_ref().unwrap();
    assert_eq!(k.shape(), &[h, 2, dh]);
    // position 0 of every head is untouched by the append
    for head in 0..h {
        let row = &k.data()[head * 2 * dh..head * 2 * dh + dh];
        let before = &k_after_1[head * dh..(head + 1) * dh];
        assert_eq!(row, before, "append rewrote cached position 0, head {head}");
    }
    assert_eq!(
        layer.cross_kt.data(),
        &cross_kt_before[..],
        "cross K must never change across steps"
    );
}

/// KV-cache unit test: the row gather behind beam reordering and slot
/// reclaim (`LayerKv::select_rows`) replicates/reorders cached rows.
#[test]
fn kv_cache_select_beams_replicates_rows() {
    let (model, mut params) = trained_copy_model();
    let cfg = model.config().clone();
    let (h, dh) = (cfg.n_heads, cfg.d_model / cfg.n_heads);
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![9])], 16, 0);

    let mut state = model.begin_decode(&mut params, &src);
    let _ = model.decode_step(&mut params, &mut state, &[BOS]);
    let base_k = state.layers()[0].self_k.as_ref().unwrap().data().to_vec();

    // hypothesis 0 twice: each hypothesis row expands to its h head rows
    let rows: Vec<usize> = (0..h).chain(0..h).collect();
    let mut layers = state.layers().to_vec();
    for layer in &mut layers {
        layer.select_rows(&rows);
    }
    let k = layers[0].self_k.as_ref().unwrap();
    assert_eq!(k.shape(), &[2 * h, 1, dh]);
    assert_eq!(layers[0].cross_kt.shape()[0], 2 * h);
    assert_eq!(layers[0].cross_v.shape()[0], 2 * h);
    // both replicas carry the parent's rows
    assert_eq!(&k.data()[..h * dh], &base_k[..]);
    assert_eq!(&k.data()[h * dh..], &base_k[..]);

    // the widened batch keeps decoding: same token in both rows gives the
    // same logits row twice (the unpadded source masks nothing)
    let cross_mask = Tensor::zeros(&[2 * h, 1, src.t]);
    let et = model.tied_projection(&mut params);
    let (tokens, positions) = ([10, 10], [1, 1]);
    let logits = model.decode_step_rows(
        &mut params,
        &mut layers,
        &tokens,
        &positions,
        None,
        &cross_mask,
        &et,
    );
    assert_eq!(logits.shape(), &[2, cfg.vocab_size]);
    let v = cfg.vocab_size;
    assert_eq!(&logits.data()[..v], &logits.data()[v..]);
}
