//! Autoregressive decoding: greedy, beam search and teacher-forced scoring
//! over a [`Seq2Seq`].
//!
//! The public [`greedy_decode`] / [`beam_search`] / [`forced_score`] entry
//! points are one-job [`MicroBatcher`] runs: the batcher's per-job drivers
//! are the only cached decode control flow, so a single request and a
//! request served beside others take the same path. The `*_reference`
//! variants keep the original full-prefix recompute (one decoder pass over
//! the whole prefix per step) as independent oracles for equivalence
//! testing.

use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;
use rpt_tensor::{ParamStore, Tape};

use crate::batch::{Sequence, TokenBatch};
use crate::metrics::{argmax, log_softmax_row};
use crate::module::Ctx;
use crate::multidecode::{JobOutput, JobSpec, MicroBatcher};
use crate::seq2seq::Seq2Seq;

/// Beam-search settings.
#[derive(Debug, Clone)]
pub struct BeamConfig {
    /// Beam width.
    pub width: usize,
    /// Maximum generated tokens (excluding BOS/EOS).
    pub max_steps: usize,
    /// Length-normalization exponent (0 = none, 1 = mean log-prob).
    pub len_penalty: f32,
}

impl Default for BeamConfig {
    fn default() -> Self {
        Self {
            width: 4,
            max_steps: 12,
            len_penalty: 1.0,
        }
    }
}

/// One scored hypothesis from [`beam_search`].
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// Generated tokens (without BOS/EOS).
    pub tokens: Vec<usize>,
    /// Length-normalized log-probability.
    pub score: f32,
}

pub(crate) fn finish(prefix: &[usize], logp: f32, cfg: &BeamConfig) -> Hypothesis {
    let len = (prefix.len() - 1).max(1) as f32;
    Hypothesis {
        tokens: prefix[1..].to_vec(),
        score: logp / len.powf(cfg.len_penalty),
    }
}

/// Runs `spec` as the only job of a fresh [`MicroBatcher`] and returns its
/// output — the one decode engine behind the single-request entry points.
fn run_alone(model: &Seq2Seq, params: &mut ParamStore, spec: JobSpec) -> JobOutput {
    let mut batcher = MicroBatcher::new(model, params);
    batcher.admit(model, params, 0, spec);
    loop {
        if let Some((_, out)) = batcher.step(model, params).pop() {
            return out;
        }
    }
}

/// Greedy decoding of a single source (`src.b == 1`): a one-job
/// [`MicroBatcher`] run. Returns the generated token ids (without BOS/EOS).
pub fn greedy_decode(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    max_steps: usize,
) -> Vec<usize> {
    let obs = &*crate::obs::DECODE_OBS;
    let _t = rpt_obs::span("decode.greedy", &obs.call_ms);
    let started = rpt_obs::metrics_enabled().then(std::time::Instant::now);
    let spec = JobSpec::Greedy {
        src: src.clone(),
        bos,
        eos,
        max_steps,
    };
    let JobOutput::Greedy { tokens } = run_alone(model, params, spec) else {
        unreachable!("a greedy job yields greedy output");
    };
    record_decode_rate(obs, started, tokens.len());
    tokens
}

/// Records generated-token count and the resulting tokens/sec gauge for
/// one decode call. `started` is `Some` only when metrics were enabled at
/// call entry, so the disabled path never reads a clock.
fn record_decode_rate(
    obs: &crate::obs::DecodeObs,
    started: Option<std::time::Instant>,
    tokens: usize,
) {
    let Some(t0) = started else { return };
    obs.tokens.add(tokens as u64);
    let secs = t0.elapsed().as_secs_f64();
    if secs > 0.0 && tokens > 0 {
        obs.tokens_per_sec.set(tokens as f64 / secs);
    }
}

/// Beam search over a single source: a one-job [`MicroBatcher`] run, where
/// every live hypothesis advances as one row of the fused decoder batch.
/// Returns hypotheses best-first, identical to [`beam_search_reference`].
pub fn beam_search(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    cfg: &BeamConfig,
) -> Vec<Hypothesis> {
    let obs = &*crate::obs::DECODE_OBS;
    let _t = rpt_obs::span("decode.beam", &obs.call_ms);
    let started = rpt_obs::metrics_enabled().then(std::time::Instant::now);
    let spec = JobSpec::Beam {
        src: src.clone(),
        bos,
        eos,
        cfg: cfg.clone(),
    };
    let JobOutput::Beam { hypotheses } = run_alone(model, params, spec) else {
        unreachable!("a beam job yields beam output");
    };
    let best_len = hypotheses.first().map_or(0, |h| h.tokens.len());
    record_decode_rate(obs, started, best_len);
    hypotheses
}

/// Teacher-forced scoring (the `/v1/match` cross-reconstruction score): a
/// one-job [`MicroBatcher`] run that feeds `[bos, targets…]` and returns
/// `(total_logprob, per_token_logprobs)` over the targets plus the closing
/// `eos`, stopping early if the forced prefix reaches `max_len`.
pub fn forced_score(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    targets: &[usize],
) -> (f32, Vec<f32>) {
    let spec = JobSpec::Forced {
        src: src.clone(),
        bos,
        eos,
        targets: targets.to_vec(),
    };
    let JobOutput::Forced {
        total_logprob,
        per_token,
    } = run_alone(model, params, spec)
    else {
        unreachable!("a forced job yields forced output");
    };
    (total_logprob, per_token)
}

/// The top-`width` next tokens of one log-prob row, best first: score
/// descending by `total_cmp`, ties in ascending token order — exactly the
/// first `width` entries of a stable descending sort of the whole row.
/// A bounded insertion selection, `O(V · width)`: a token enters the
/// kept prefix only if it beats the current last entry strictly, and
/// lands after every kept entry it does not beat.
pub(crate) fn top_candidates(lp: &[f32], width: usize) -> Vec<(usize, f32)> {
    let mut top: Vec<(usize, f32)> = Vec::with_capacity(width.min(lp.len()) + 1);
    if width == 0 {
        return top;
    }
    for (tok, &x) in lp.iter().enumerate() {
        if top.len() == width && x.total_cmp(&top[width - 1].1).is_le() {
            continue;
        }
        let at = top.partition_point(|&(_, y)| y.total_cmp(&x).is_ge());
        top.insert(at, (tok, x));
        top.truncate(width);
    }
    top
}

/// Next-token log-probabilities for the reference path: rebuilds the full
/// decoder graph over `prefix`, reusing the already-encoded source.
fn next_logprobs_reference(
    model: &Seq2Seq,
    ctx: &mut Ctx<'_>,
    enc: rpt_tensor::Var,
    src: &TokenBatch,
    prefix: &[usize],
) -> Vec<f32> {
    let tgt_in = TokenBatch::from_sequences(
        &[Sequence::from_ids(prefix.to_vec())],
        model.config().max_len,
        0,
    );
    let logits = model.decode_logits(ctx, &tgt_in, enc, src);
    let lv = ctx.tape.value(logits);
    let v = model.config().vocab_size;
    let last = prefix.len() - 1;
    log_softmax_row(&lv.data()[last * v..(last + 1) * v])
}

/// Reference greedy decoding: one full decoder pass over the whole prefix
/// per generated token (no KV cache), with the source encoded **once** per
/// call. Kept as the semantic baseline for `tests/decode_equivalence.rs`.
pub fn greedy_decode_reference(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    max_steps: usize,
) -> Vec<usize> {
    assert_eq!(src.b, 1, "greedy_decode expects a single source");
    let tape = Tape::inference();
    let mut rng = SmallRng::seed_from_u64(0);
    let mut ctx = Ctx::new(&tape, params, &mut rng, false);
    let enc = model.encode(&mut ctx, src);
    let mut prefix = vec![bos];
    for _ in 0..max_steps {
        let lp = next_logprobs_reference(model, &mut ctx, enc, src, &prefix);
        let next = argmax(&lp);
        if next == eos {
            break;
        }
        prefix.push(next);
        if prefix.len() >= model.config().max_len {
            break;
        }
    }
    prefix[1..].to_vec()
}

/// Reference beam search: each hypothesis recomputes its full prefix every
/// step (no KV cache, no batching), with the source encoded **once** per
/// call. Kept as the semantic baseline for `tests/decode_equivalence.rs`.
pub fn beam_search_reference(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    cfg: &BeamConfig,
) -> Vec<Hypothesis> {
    assert_eq!(src.b, 1, "beam_search expects a single source");
    assert!(cfg.width > 0, "beam width must be positive");
    let tape = Tape::inference();
    let mut rng = SmallRng::seed_from_u64(0);
    let mut ctx = Ctx::new(&tape, params, &mut rng, false);
    let enc = model.encode(&mut ctx, src);
    // (prefix including BOS, cumulative log-prob)
    let mut beams: Vec<(Vec<usize>, f32)> = vec![(vec![bos], 0.0)];
    let mut done: Vec<Hypothesis> = Vec::new();

    for _ in 0..cfg.max_steps {
        let mut candidates: Vec<(Vec<usize>, f32)> = Vec::new();
        for (prefix, logp) in &beams {
            if prefix.len() >= model.config().max_len {
                done.push(finish(prefix, *logp, cfg));
                continue;
            }
            let lp = next_logprobs_reference(model, &mut ctx, enc, src, prefix);
            for (tok, cand_logp) in top_candidates(&lp, cfg.width) {
                if tok == eos {
                    done.push(finish(prefix, logp + cand_logp, cfg));
                } else {
                    let mut next = prefix.clone();
                    next.push(tok);
                    candidates.push((next, logp + cand_logp));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        candidates.truncate(cfg.width);
        beams = candidates;
        // Early exit: enough finished hypotheses that beat all live beams.
        if done.len() >= cfg.width {
            let best_live = beams.first().map(|(_, l)| *l).unwrap_or(f32::NEG_INFINITY);
            done.sort_by(|a, b| b.score.total_cmp(&a.score));
            if done[cfg.width - 1].score >= best_live {
                break;
            }
        }
    }
    for (prefix, logp) in beams {
        done.push(finish(&prefix, logp, cfg));
    }
    done.sort_by(|a, b| b.score.total_cmp(&a.score));
    done.truncate(cfg.width);
    done
}

/// Reference teacher-forced scoring: one full decoder pass over the whole
/// forced prefix per goal token (no KV cache), with the source encoded
/// **once** per call. Kept as the semantic baseline for [`forced_score`].
pub fn forced_score_reference(
    model: &Seq2Seq,
    params: &mut ParamStore,
    src: &TokenBatch,
    bos: usize,
    eos: usize,
    targets: &[usize],
) -> (f32, Vec<f32>) {
    assert_eq!(src.b, 1, "forced_score expects a single source");
    let tape = Tape::inference();
    let mut rng = SmallRng::seed_from_u64(0);
    let mut ctx = Ctx::new(&tape, params, &mut rng, false);
    let enc = model.encode(&mut ctx, src);
    let mut prefix = vec![bos];
    let mut per_token = Vec::with_capacity(targets.len() + 1);
    for &goal in targets.iter().chain(std::iter::once(&eos)) {
        let lp = next_logprobs_reference(model, &mut ctx, enc, src, &prefix);
        per_token.push(lp[goal]);
        prefix.push(goal);
        if prefix.len() >= model.config().max_len {
            break;
        }
    }
    (per_token.iter().sum(), per_token)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::seq2seq::TransformerConfig;
    use rpt_tensor::{clip_global_norm, Adam, AdamConfig};

    /// Trains a tiny copy model: output = input tokens. Shared by this
    /// crate's decode and micro-batcher unit tests.
    pub(crate) fn trained_copy_model() -> (Seq2Seq, ParamStore) {
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
                    let mut v = vec![1];
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
                tgt_out[bi * tgt_in.t + e.len()] = 2; // EOS
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

    /// The selection `top_candidates` replaced: a stable descending sort
    /// of every token id, truncated to `width`.
    fn top_candidates_by_sort(lp: &[f32], width: usize) -> Vec<(usize, f32)> {
        let mut idx: Vec<usize> = (0..lp.len()).collect();
        idx.sort_by(|&a, &b| lp[b].total_cmp(&lp[a]));
        idx.into_iter()
            .take(width)
            .map(|tok| (tok, lp[tok]))
            .collect()
    }

    #[test]
    fn top_candidates_match_stable_sort() {
        use rpt_rng::Rng;
        let mut rng = SmallRng::seed_from_u64(17);
        // A small value pool forces ties; signed zeros and infinities
        // exercise `total_cmp`'s order (-0.0 sorts below +0.0).
        let pool = [
            -0.0f32,
            0.0,
            -1.5,
            -1.5,
            -0.25,
            f32::NEG_INFINITY,
            f32::INFINITY,
            -7.0,
        ];
        for case in 0..2000 {
            let v = rng.gen_range(1..40usize);
            let row: Vec<f32> = (0..v)
                .map(|_| {
                    if case % 2 == 0 {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        -rng.gen::<f32>() * 4.0
                    }
                })
                .collect();
            for width in [0, 1, 2, 4, v - 1, v, v + 3] {
                let got = top_candidates(&row, width);
                let want = top_candidates_by_sort(&row, width);
                assert_eq!(got.len(), want.len(), "row {row:?} width {width}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "token order: row {row:?} width {width}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn greedy_decodes_learned_copy() {
        let (model, mut params) = trained_copy_model();
        let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![10, 9])], 16, 0);
        let out = greedy_decode(&model, &mut params, &src, 1, 2, 6);
        assert_eq!(out, vec![10, 9]);
    }

    #[test]
    fn beam_top_hypothesis_matches_greedy_on_peaked_model() {
        let (model, mut params) = trained_copy_model();
        let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![11, 10])], 16, 0);
        let greedy = greedy_decode(&model, &mut params, &src, 1, 2, 6);
        let beams = beam_search(
            &model,
            &mut params,
            &src,
            1,
            2,
            &BeamConfig {
                width: 3,
                max_steps: 6,
                len_penalty: 1.0,
            },
        );
        assert!(!beams.is_empty());
        assert_eq!(beams[0].tokens, greedy);
        // scores are sorted descending
        for w in beams.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn beam_returns_at_most_width_hypotheses() {
        let (model, mut params) = trained_copy_model();
        let src = TokenBatch::from_sequences(&[Sequence::from_ids(vec![9])], 16, 0);
        let beams = beam_search(
            &model,
            &mut params,
            &src,
            1,
            2,
            &BeamConfig {
                width: 2,
                max_steps: 4,
                len_penalty: 0.0,
            },
        );
        assert!(beams.len() <= 2);
    }
}
