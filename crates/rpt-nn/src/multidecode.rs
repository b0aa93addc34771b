//! Fused multi-request decoding: the one decode engine behind both
//! single-request decoding and `rpt-serve`.
//!
//! [`MicroBatcher`] advances every live row of every admitted job — one row
//! per greedy/forced job, one per live beam hypothesis — through **one**
//! fused [`Seq2Seq::decode_step_rows`] call per token, so the per-step
//! weight products see the whole batch at once. Its per-job drivers are
//! the only cached greedy, beam and forced control flow in the crate:
//! [`crate::greedy_decode`], [`crate::beam_search`] and
//! [`crate::forced_score`] are one-job runs of this batcher, and the
//! full-prefix `*_reference` recomputes are the independent oracles.
//!
//! ## Slot-owned caches
//!
//! Each admitted request owns a slot: its driver and its [`KvCache`]. The
//! slot takes the request's cross-attention K/V by move from its
//! [`Prefill`] (encoded by [`Seq2Seq::begin_request`] on the admitting
//! thread in [`MicroBatcher::admit`], or ahead of time on any thread for
//! [`MicroBatcher::admit_prefilled`]), unpadded, and every beam row of the
//! job reads that one copy. Each row's self-attention K/V grow in place,
//! one position per step, doubling their capacity up to the job's step
//! bound. A beam reorder gathers rows within the slot; completion and
//! cancellation drop the slot. So admitting, finishing or cancelling a job
//! touches only that job's rows: nothing is padded, masked, spliced or
//! trimmed for the sake of the other jobs, and attention runs over each
//! row's own prefix and source.
//!
//! ## Bit-identity
//!
//! A job's output is byte-identical whether it runs alone (the
//! single-request entry points) or beside any mix of other jobs: every
//! fused weight product computes a row from that row alone in a fixed
//! accumulation order, attention reads only the row's own cache, and each
//! driver decides from its own logit rows only. DESIGN.md §Serving gives
//! the full argument. This module's unit tests and
//! `tests/serve_equivalence.rs` lock it down; `tests/decode_equivalence.rs`
//! checks the engine against the references.

use rpt_tensor::{ParamStore, Tensor};

use crate::batch::TokenBatch;
use crate::decode::{finish, top_candidates, BeamConfig, Hypothesis};
use crate::metrics::{log_softmax_row, log_sum_exp};
use crate::seq2seq::{Prefill, Seq2Seq};
use crate::transformer::KvCache;

/// One decode job for the micro-batcher. `src.b` must be 1.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Greedy decoding, as in [`crate::greedy_decode`].
    Greedy {
        /// Source batch (`b == 1`).
        src: TokenBatch,
        /// BOS token id.
        bos: usize,
        /// EOS token id.
        eos: usize,
        /// Maximum generated tokens.
        max_steps: usize,
    },
    /// Beam search, as in [`crate::beam_search`].
    Beam {
        /// Source batch (`b == 1`).
        src: TokenBatch,
        /// BOS token id.
        bos: usize,
        /// EOS token id.
        eos: usize,
        /// Beam settings.
        cfg: BeamConfig,
    },
    /// Teacher-forced scoring, as in [`crate::forced_score`].
    Forced {
        /// Source batch (`b == 1`).
        src: TokenBatch,
        /// BOS token id.
        bos: usize,
        /// EOS token id (scored after the last target).
        eos: usize,
        /// Target tokens to force and score.
        targets: Vec<usize>,
    },
}

impl JobSpec {
    /// The job's source batch — what [`Seq2Seq::begin_request`] encodes.
    pub fn src(&self) -> &TokenBatch {
        match self {
            JobSpec::Greedy { src, .. }
            | JobSpec::Beam { src, .. }
            | JobSpec::Forced { src, .. } => src,
        }
    }
}

/// A finished job's result.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Tokens from a [`JobSpec::Greedy`] job (no BOS/EOS).
    Greedy {
        /// Generated token ids.
        tokens: Vec<usize>,
    },
    /// Hypotheses from a [`JobSpec::Beam`] job, best first.
    Beam {
        /// Scored hypotheses.
        hypotheses: Vec<Hypothesis>,
    },
    /// Log-probabilities from a [`JobSpec::Forced`] job.
    Forced {
        /// Sum of the per-token log-probabilities.
        total_logprob: f32,
        /// One log-probability per forced token (targets then EOS).
        per_token: Vec<f32>,
    },
}

/// What a driver wants before the fused step runs.
enum Pre {
    /// The job is complete without further compute.
    Finish(JobOutput),
    /// Advance these rows (indices into the slot's current rows), feeding
    /// `tokens[i]` at `positions[i]`.
    Step {
        keep: Vec<usize>,
        tokens: Vec<usize>,
        positions: Vec<usize>,
    },
}

/// What a driver decided after consuming its logit rows.
enum Post {
    /// The job is complete.
    Finish(JobOutput),
    /// Keep going: next step's row `i` extends this step's row
    /// `parents[i]` (the beam-reorder gather; `[0]` for width-1 jobs).
    Continue { parents: Vec<usize> },
}

/// Per-job decode state machine: one `pre`/`consume` pair per token.
enum Driver {
    Greedy(GreedyDriver),
    Beam(BeamDriver),
    Forced(ForcedDriver),
}

impl Driver {
    fn pre(&mut self) -> Pre {
        match self {
            Driver::Greedy(d) => d.pre(),
            Driver::Beam(d) => d.pre(),
            Driver::Forced(d) => d.pre(),
        }
    }

    fn consume(&mut self, rows: &[f32], vocab: usize) -> Post {
        match self {
            Driver::Greedy(d) => d.consume(rows),
            Driver::Beam(d) => d.consume(rows, vocab),
            Driver::Forced(d) => d.consume(rows),
        }
    }
}

/// Greedy decoding: argmax until EOS, the step budget or `max_len`.
struct GreedyDriver {
    prefix: Vec<usize>,
    eos: usize,
    max_steps: usize,
    steps: usize,
    max_len: usize,
}

impl GreedyDriver {
    fn pre(&mut self) -> Pre {
        if self.steps == self.max_steps {
            return Pre::Finish(JobOutput::Greedy {
                tokens: self.prefix[1..].to_vec(),
            });
        }
        Pre::Step {
            keep: vec![0],
            tokens: vec![*self.prefix.last().unwrap()],
            positions: vec![(self.prefix.len() - 1).min(self.max_len - 1)],
        }
    }

    /// Takes the last-occurrence argmax of the log-softmax `x - lse`
    /// without materializing the row: the same shifted values, compared
    /// in the same order, as `argmax(&log_softmax_row(row))`.
    fn consume(&mut self, row: &[f32]) -> Post {
        let lse = log_sum_exp(row);
        let (next, _) = row
            .iter()
            .map(|&x| x - lse)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty vocabulary");
        self.steps += 1;
        if next == self.eos {
            return Post::Finish(JobOutput::Greedy {
                tokens: self.prefix[1..].to_vec(),
            });
        }
        self.prefix.push(next);
        if self.prefix.len() >= self.max_len || self.steps == self.max_steps {
            return Post::Finish(JobOutput::Greedy {
                tokens: self.prefix[1..].to_vec(),
            });
        }
        Post::Continue { parents: vec![0] }
    }
}

/// Teacher-forced scoring: log-prob of each goal, then feed the goal.
struct ForcedDriver {
    prefix: Vec<usize>,
    /// Targets followed by EOS.
    goals: Vec<usize>,
    scored: usize,
    total: f32,
    per_token: Vec<f32>,
    max_len: usize,
}

impl ForcedDriver {
    fn output(&self) -> JobOutput {
        JobOutput::Forced {
            total_logprob: self.total,
            per_token: self.per_token.clone(),
        }
    }

    fn pre(&mut self) -> Pre {
        if self.scored == self.goals.len() {
            return Pre::Finish(self.output());
        }
        Pre::Step {
            keep: vec![0],
            tokens: vec![*self.prefix.last().unwrap()],
            positions: vec![(self.prefix.len() - 1).min(self.max_len - 1)],
        }
    }

    fn consume(&mut self, row: &[f32]) -> Post {
        let goal = self.goals[self.scored];
        let lp = row[goal] - log_sum_exp(row);
        self.per_token.push(lp);
        self.total += lp;
        self.scored += 1;
        self.prefix.push(goal);
        if self.scored == self.goals.len() || self.prefix.len() >= self.max_len {
            return Post::Finish(self.output());
        }
        Post::Continue { parents: vec![0] }
    }
}

/// Beam search. One `pre`/`consume` pair per iteration of
/// [`crate::beam_search_reference`]'s loop; statement order (candidate
/// enumeration, stable sorts, the mid-loop `done` sort of the early exit,
/// and the double-push of max-length beams on the empty-candidate break)
/// mirrors it exactly so tokens and tie-breaks match the reference.
struct BeamDriver {
    /// (prefix including BOS, cumulative log-prob) — cache rows align with
    /// this vector's order at every step boundary.
    beams: Vec<(Vec<usize>, f32)>,
    done: Vec<Hypothesis>,
    cfg: BeamConfig,
    eos: usize,
    max_len: usize,
    steps: usize,
}

impl BeamDriver {
    /// The post-loop tail of the reference: flush remaining beams, sort,
    /// truncate.
    fn finalize(&mut self) -> JobOutput {
        for (prefix, logp) in &self.beams {
            self.done.push(finish(prefix, *logp, &self.cfg));
        }
        self.done.sort_by(|a, b| b.score.total_cmp(&a.score));
        self.done.truncate(self.cfg.width);
        JobOutput::Beam {
            hypotheses: std::mem::take(&mut self.done),
        }
    }

    fn pre(&mut self) -> Pre {
        if self.steps == self.cfg.max_steps {
            return Pre::Finish(self.finalize());
        }
        let live: Vec<usize> = (0..self.beams.len())
            .filter(|&i| self.beams[i].0.len() < self.max_len)
            .collect();
        if live.is_empty() {
            // The original loop iteration pushes every (max-length) beam
            // into `done`, finds no candidates, breaks — and the tail then
            // pushes the beams again. Replay both pushes.
            for (prefix, logp) in &self.beams {
                self.done.push(finish(prefix, *logp, &self.cfg));
            }
            return Pre::Finish(self.finalize());
        }
        let tokens: Vec<usize> = live
            .iter()
            .map(|&i| *self.beams[i].0.last().unwrap())
            .collect();
        let positions: Vec<usize> = live
            .iter()
            .map(|&i| (self.beams[i].0.len() - 1).min(self.max_len - 1))
            .collect();
        Pre::Step {
            keep: live,
            tokens,
            positions,
        }
    }

    fn consume(&mut self, rows: &[f32], v: usize) -> Post {
        let mut candidates: Vec<(Vec<usize>, f32)> = Vec::new();
        let mut parents: Vec<usize> = Vec::new();
        let mut row = 0usize;
        for (prefix, logp) in &self.beams {
            if prefix.len() >= self.max_len {
                self.done.push(finish(prefix, *logp, &self.cfg));
                continue;
            }
            let lp = log_softmax_row(&rows[row * v..(row + 1) * v]);
            for (tok, cand_logp) in top_candidates(&lp, self.cfg.width) {
                if tok == self.eos {
                    self.done.push(finish(prefix, logp + cand_logp, &self.cfg));
                } else {
                    let mut next = prefix.clone();
                    next.push(tok);
                    candidates.push((next, logp + cand_logp));
                    parents.push(row);
                }
            }
            row += 1;
        }
        self.steps += 1;
        if candidates.is_empty() {
            return Post::Finish(self.finalize());
        }
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| candidates[b].1.total_cmp(&candidates[a].1));
        order.truncate(self.cfg.width);
        self.beams = order.iter().map(|&i| candidates[i].clone()).collect();
        let kept_parents: Vec<usize> = order.iter().map(|&i| parents[i]).collect();
        if self.done.len() >= self.cfg.width {
            let best_live = self
                .beams
                .first()
                .map(|(_, l)| *l)
                .unwrap_or(f32::NEG_INFINITY);
            self.done.sort_by(|a, b| b.score.total_cmp(&a.score));
            if self.done[self.cfg.width - 1].score >= best_live {
                return Post::Finish(self.finalize());
            }
        }
        Post::Continue {
            parents: kept_parents,
        }
    }
}

/// One admitted request: its driver and the KV cache it owns.
struct Slot {
    id: u64,
    driver: Driver,
    cache: KvCache,
}

/// Dynamic micro-batcher: holds many independent decode jobs and advances
/// every live row in one fused decoder step per token. See the module docs
/// for the batching and bit-identity story.
pub struct MicroBatcher {
    slots: Vec<Slot>,
    vocab: usize,
    max_len: usize,
    /// Tied output projection, computed once per parameter set.
    et: Tensor,
}

impl MicroBatcher {
    /// An empty batcher for `model` over `params`. The tied projection is
    /// materialized once here; a hot-reloaded parameter set needs a fresh
    /// batcher.
    pub fn new(model: &Seq2Seq, params: &mut ParamStore) -> Self {
        let cfg = model.config();
        Self {
            slots: Vec::new(),
            vocab: cfg.vocab_size,
            max_len: cfg.max_len,
            et: model.tied_projection(params),
        }
    }

    /// Number of admitted, unfinished jobs.
    pub fn slots_in_use(&self) -> usize {
        self.slots.len()
    }

    /// Total decoder rows currently advanced per step.
    pub fn rows(&self) -> usize {
        self.slots.iter().map(|s| s.cache.rows()).sum()
    }

    /// True when no jobs are admitted.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Admits a job: encodes its source ([`Seq2Seq::begin_request`]) and
    /// hands the result to [`Self::admit_prefilled`]. `id` tags the job's
    /// entry in [`Self::step`] results.
    pub fn admit(&mut self, model: &Seq2Seq, params: &mut ParamStore, id: u64, spec: JobSpec) {
        let prefill = model.begin_request(params, spec.src());
        self.admit_prefilled(id, spec, prefill);
    }

    /// Admits a job whose source is already encoded: its slot takes
    /// `prefill` as the cross-attention half of its [`KvCache`]. `prefill`
    /// must be [`Seq2Seq::begin_request`] of `spec`'s source under the
    /// parameter values this batcher decodes with; the encode may run on
    /// any thread.
    pub fn admit_prefilled(&mut self, id: u64, spec: JobSpec, prefill: Prefill) {
        // The most steps the job can take: the bound its self-attention
        // buffers grow to.
        let bound = match &spec {
            JobSpec::Greedy { max_steps, .. } => *max_steps,
            JobSpec::Beam { cfg, .. } => cfg.max_steps,
            JobSpec::Forced { targets, .. } => targets.len() + 1,
        };
        let driver = match spec {
            JobSpec::Greedy {
                bos,
                eos,
                max_steps,
                ..
            } => Driver::Greedy(GreedyDriver {
                prefix: vec![bos],
                eos,
                max_steps,
                steps: 0,
                max_len: self.max_len,
            }),
            JobSpec::Beam { bos, eos, cfg, .. } => {
                assert!(cfg.width > 0, "beam width must be positive");
                Driver::Beam(BeamDriver {
                    beams: vec![(vec![bos], 0.0)],
                    done: Vec::new(),
                    cfg,
                    eos,
                    max_len: self.max_len,
                    steps: 0,
                })
            }
            JobSpec::Forced {
                bos, eos, targets, ..
            } => Driver::Forced(ForcedDriver {
                prefix: vec![bos],
                goals: targets.into_iter().chain(std::iter::once(eos)).collect(),
                scored: 0,
                total: 0.0,
                per_token: Vec::new(),
                max_len: self.max_len,
            }),
        };
        self.slots.push(Slot {
            id,
            driver,
            cache: KvCache::new(prefill, bound.min(self.max_len)),
        });
    }

    /// Cancels an admitted job (a client that vanished mid-decode),
    /// dropping its slot and with it the job's caches. Remaining jobs are
    /// unaffected: no other slot's rows move. Returns false when `id` is
    /// not resident (never admitted, already finished, or already
    /// cancelled).
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(at) = self.slots.iter().position(|s| s.id == id) else {
            return false;
        };
        self.slots.remove(at);
        true
    }

    /// Advances every live job by one token (one fused decoder step) and
    /// returns the jobs that finished, tagged by admission id. Jobs that
    /// finish without needing compute (exhausted budgets) are returned
    /// without stepping. Calling on an idle batcher returns nothing.
    pub fn step(&mut self, model: &Seq2Seq, params: &mut ParamStore) -> Vec<(u64, JobOutput)> {
        let mut finished: Vec<(u64, JobOutput)> = Vec::new();

        // Phase A: ask each driver which of its rows advance; drop jobs
        // that are already complete.
        let mut tokens: Vec<usize> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        let mut live: Vec<Slot> = Vec::new();
        for mut slot in std::mem::take(&mut self.slots) {
            match slot.driver.pre() {
                Pre::Finish(out) => finished.push((slot.id, out)),
                Pre::Step {
                    keep,
                    tokens: tk,
                    positions: ps,
                } => {
                    select_rows(&mut slot.cache, &keep);
                    tokens.extend(tk);
                    positions.extend(ps);
                    live.push(slot);
                }
            }
        }
        if live.is_empty() {
            return finished;
        }

        // Fused step over every live row.
        let obs = &*crate::obs::DECODE_OBS;
        obs.fused_steps.inc();
        obs.fused_rows.add(tokens.len() as u64);
        let mut caches: Vec<&mut KvCache> = live.iter_mut().map(|s| &mut s.cache).collect();
        let logits = model.decode_step_rows(params, &mut caches, &tokens, &positions, &self.et);

        // Phase B: each driver consumes its logit rows, then reorders its
        // own beam rows.
        let data = logits.data();
        let v = self.vocab;
        let mut base = 0usize;
        for mut slot in live {
            let width = slot.cache.rows();
            match slot.driver.consume(&data[base * v..(base + width) * v], v) {
                Post::Finish(out) => finished.push((slot.id, out)),
                Post::Continue { parents } => {
                    select_rows(&mut slot.cache, &parents);
                    self.slots.push(slot);
                }
            }
            base += width;
        }
        finished
    }
}

/// Applies a driver's row selection to its cache, unless it keeps every
/// row in place.
fn select_rows(cache: &mut KvCache, rows: &[usize]) {
    if rows.len() != cache.rows() || rows.iter().enumerate().any(|(i, &r)| i != r) {
        crate::obs::DECODE_OBS.beam_reorders.inc();
        cache.select(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Sequence;
    use crate::decode::tests::trained_copy_model;
    use crate::decode::{beam_search, forced_score, greedy_decode};

    const BOS: usize = 1;
    const EOS: usize = 2;

    fn src_of(ids: &[usize]) -> TokenBatch {
        TokenBatch::from_sequences(&[Sequence::from_ids(ids.to_vec())], 16, 0)
    }

    fn greedy(ids: &[usize]) -> JobSpec {
        JobSpec::Greedy {
            src: src_of(ids),
            bos: BOS,
            eos: EOS,
            max_steps: 8,
        }
    }

    fn beam(ids: &[usize], cfg: &BeamConfig) -> JobSpec {
        JobSpec::Beam {
            src: src_of(ids),
            bos: BOS,
            eos: EOS,
            cfg: cfg.clone(),
        }
    }

    /// Drives the batcher until every admitted job has finished.
    fn drain(
        mb: &mut MicroBatcher,
        model: &Seq2Seq,
        params: &mut ParamStore,
    ) -> Vec<(u64, JobOutput)> {
        let mut out = Vec::new();
        let mut guard = 0;
        while !mb.is_idle() {
            out.extend(mb.step(model, params));
            guard += 1;
            assert!(guard < 200, "batcher failed to drain");
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn expect_greedy(out: &JobOutput) -> &[usize] {
        match out {
            JobOutput::Greedy { tokens } => tokens,
            other => panic!("expected greedy output, got {other:?}"),
        }
    }

    fn expect_beam(out: &JobOutput) -> &[Hypothesis] {
        match out {
            JobOutput::Beam { hypotheses } => hypotheses,
            other => panic!("expected beam output, got {other:?}"),
        }
    }

    fn assert_hyps_bit_identical(fused: &[Hypothesis], single: &[Hypothesis]) {
        assert_eq!(fused.len(), single.len(), "hypothesis count");
        for (f, s) in fused.iter().zip(single) {
            assert_eq!(f.tokens, s.tokens, "hypothesis tokens");
            assert_eq!(
                f.score.to_bits(),
                s.score.to_bits(),
                "hypothesis score bits: {} vs {}",
                f.score,
                s.score
            );
        }
    }

    #[test]
    fn fused_greedy_matches_single_request() {
        let (model, mut params) = trained_copy_model();
        let srcs: Vec<Vec<usize>> = vec![vec![10, 9], vec![9, 11], vec![11], vec![9, 10, 11]];
        let singles: Vec<Vec<usize>> = srcs
            .iter()
            .map(|ids| greedy_decode(&model, &mut params, &src_of(ids), BOS, EOS, 8))
            .collect();
        let mut mb = MicroBatcher::new(&model, &mut params);
        for (i, ids) in srcs.iter().enumerate() {
            mb.admit(&model, &mut params, i as u64, greedy(ids));
        }
        assert_eq!(mb.slots_in_use(), 4);
        let results = drain(&mut mb, &model, &mut params);
        assert_eq!(results.len(), 4);
        for ((_, out), want) in results.iter().zip(&singles) {
            assert_eq!(expect_greedy(out), want.as_slice());
        }
        assert_eq!(mb.rows(), 0);
    }

    #[test]
    fn fused_beam_matches_single_request_bitwise() {
        let (model, mut params) = trained_copy_model();
        let cfg = BeamConfig {
            width: 4,
            max_steps: 8,
            len_penalty: 1.0,
        };
        let srcs: Vec<Vec<usize>> = vec![vec![11, 10], vec![10], vec![9, 10]];
        let singles: Vec<Vec<Hypothesis>> = srcs
            .iter()
            .map(|ids| beam_search(&model, &mut params, &src_of(ids), BOS, EOS, &cfg))
            .collect();
        let mut mb = MicroBatcher::new(&model, &mut params);
        for (i, ids) in srcs.iter().enumerate() {
            mb.admit(&model, &mut params, i as u64, beam(ids, &cfg));
        }
        let results = drain(&mut mb, &model, &mut params);
        assert_eq!(results.len(), 3);
        for ((_, out), want) in results.iter().zip(&singles) {
            assert_hyps_bit_identical(expect_beam(out), want);
        }
    }

    #[test]
    fn fused_forced_matches_single_request_bitwise() {
        let (model, mut params) = trained_copy_model();
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![10, 9], vec![10, 9]),
            (vec![9, 11], vec![11, 11]),
            (vec![11], vec![]),
        ];
        let singles: Vec<(f32, Vec<f32>)> = cases
            .iter()
            .map(|(ids, tgt)| forced_score(&model, &mut params, &src_of(ids), BOS, EOS, tgt))
            .collect();
        let mut mb = MicroBatcher::new(&model, &mut params);
        for (i, (ids, tgt)) in cases.iter().enumerate() {
            mb.admit(
                &model,
                &mut params,
                i as u64,
                JobSpec::Forced {
                    src: src_of(ids),
                    bos: BOS,
                    eos: EOS,
                    targets: tgt.clone(),
                },
            );
        }
        let results = drain(&mut mb, &model, &mut params);
        for ((_, out), (want_total, want_per)) in results.iter().zip(&singles) {
            match out {
                JobOutput::Forced {
                    total_logprob,
                    per_token,
                } => {
                    assert_eq!(total_logprob.to_bits(), want_total.to_bits());
                    assert_eq!(per_token.len(), want_per.len());
                    for (a, b) in per_token.iter().zip(want_per) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                other => panic!("expected forced output, got {other:?}"),
            }
        }
    }

    #[test]
    fn prefill_encoded_on_other_threads_is_bit_identical() {
        // The server's split: each source is encoded on its own thread
        // against a private clone of the parameters, then spliced in with
        // `admit_prefilled` — outputs must equal the encode-on-admit path.
        let (model, mut params) = trained_copy_model();
        let cfg = BeamConfig {
            width: 3,
            max_steps: 8,
            len_penalty: 1.0,
        };
        let specs = vec![greedy(&[10, 9]), beam(&[9, 11], &cfg), greedy(&[11])];
        let mut mb = MicroBatcher::new(&model, &mut params);
        for (i, spec) in specs.iter().enumerate() {
            mb.admit(&model, &mut params, i as u64, spec.clone());
        }
        let want = drain(&mut mb, &model, &mut params);

        let prefills: Vec<Prefill> = std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let (model, mut params) = (&model, params.clone());
                    s.spawn(move || model.begin_request(&mut params, spec.src()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut mb = MicroBatcher::new(&model, &mut params);
        for (i, (spec, prefill)) in specs.into_iter().zip(prefills).enumerate() {
            mb.admit_prefilled(i as u64, spec, prefill);
        }
        let got = drain(&mut mb, &model, &mut params);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn greedy_and_forced_consume_match_log_softmax_row() {
        use crate::metrics::argmax;
        use rpt_rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for case in 0..500 {
            let v = rng.gen_range(1..24usize);
            // Coarse values on even cases force exact ties in the row.
            let row: Vec<f32> = (0..v)
                .map(|_| {
                    if case % 2 == 0 {
                        rng.gen_range(0..4usize) as f32 * 0.5
                    } else {
                        rng.gen::<f32>() * 8.0 - 4.0
                    }
                })
                .collect();
            let lp = log_softmax_row(&row);

            let mut g = GreedyDriver {
                prefix: vec![BOS],
                eos: usize::MAX,
                max_steps: 4,
                steps: 0,
                max_len: 8,
            };
            let _ = g.consume(&row);
            assert_eq!(g.prefix[1], argmax(&lp), "greedy choice for {row:?}");

            let goal = rng.gen_range(0..v);
            let mut f = ForcedDriver {
                prefix: vec![BOS],
                goals: vec![goal, goal],
                scored: 0,
                total: 0.0,
                per_token: Vec::new(),
                max_len: 8,
            };
            let _ = f.consume(&row);
            assert_eq!(f.per_token[0].to_bits(), lp[goal].to_bits());
            assert_eq!(f.total.to_bits(), (0.0f32 + lp[goal]).to_bits());
        }
    }

    #[test]
    fn staggered_admission_stays_bit_identical() {
        // Late joiners land mid-flight, with shorter self-attention caches
        // than the jobs already decoding — outputs must still match the
        // single-request paths bitwise.
        let (model, mut params) = trained_copy_model();
        let cfg = BeamConfig {
            width: 4,
            max_steps: 8,
            len_penalty: 1.0,
        };
        let g1 = greedy_decode(&model, &mut params, &src_of(&[9, 10, 11]), BOS, EOS, 8);
        let b1 = beam_search(&model, &mut params, &src_of(&[10, 9]), BOS, EOS, &cfg);
        let g2 = greedy_decode(&model, &mut params, &src_of(&[11, 9]), BOS, EOS, 8);
        let b2 = beam_search(&model, &mut params, &src_of(&[9, 11]), BOS, EOS, &cfg);

        let mut mb = MicroBatcher::new(&model, &mut params);
        mb.admit(&model, &mut params, 1, greedy(&[9, 10, 11]));
        mb.admit(&model, &mut params, 2, beam(&[10, 9], &cfg));
        let mut results = Vec::new();
        results.extend(mb.step(&model, &mut params));
        results.extend(mb.step(&model, &mut params));
        // Two tokens decoded: the next admissions start two positions behind.
        mb.admit(&model, &mut params, 3, greedy(&[11, 9]));
        mb.admit(&model, &mut params, 4, beam(&[9, 11], &cfg));
        results.extend(drain(&mut mb, &model, &mut params));
        results.sort_by_key(|(id, _)| *id);
        assert_eq!(results.len(), 4);
        assert_eq!(expect_greedy(&results[0].1), g1.as_slice());
        assert_hyps_bit_identical(expect_beam(&results[1].1), &b1);
        assert_eq!(expect_greedy(&results[2].1), g2.as_slice());
        assert_hyps_bit_identical(expect_beam(&results[3].1), &b2);
    }

    #[test]
    fn zero_budget_jobs_finish_without_compute() {
        let (model, mut params) = trained_copy_model();
        let single = greedy_decode(&model, &mut params, &src_of(&[10, 9]), BOS, EOS, 0);
        let mut mb = MicroBatcher::new(&model, &mut params);
        mb.admit(
            &model,
            &mut params,
            7,
            JobSpec::Greedy {
                src: src_of(&[10, 9]),
                bos: BOS,
                eos: EOS,
                max_steps: 0,
            },
        );
        let results = drain(&mut mb, &model, &mut params);
        assert_eq!(results.len(), 1);
        assert_eq!(expect_greedy(&results[0].1), single.as_slice());
        assert!(single.is_empty());
        assert!(mb.is_idle());
    }

    #[test]
    fn cancel_reclaims_slot_and_leaves_survivors_bit_identical() {
        let (model, mut params) = trained_copy_model();
        let cfg = BeamConfig {
            width: 4,
            max_steps: 8,
            len_penalty: 1.0,
        };
        let g_want = greedy_decode(&model, &mut params, &src_of(&[9, 10, 11]), BOS, EOS, 8);
        let g3_want = greedy_decode(&model, &mut params, &src_of(&[11, 9]), BOS, EOS, 8);

        let mut mb = MicroBatcher::new(&model, &mut params);
        mb.admit(&model, &mut params, 1, greedy(&[9, 10, 11]));
        mb.admit(&model, &mut params, 2, beam(&[10, 9], &cfg));
        mb.admit(&model, &mut params, 3, greedy(&[11, 9]));
        // Two fused steps in, the middle job's client disconnects. Its
        // beam occupies multiple rows by now, all dropped with its slot.
        let mut results = Vec::new();
        results.extend(mb.step(&model, &mut params));
        results.extend(mb.step(&model, &mut params));
        let rows_before = mb.rows();
        assert!(mb.cancel(2), "resident job must cancel");
        assert_eq!(mb.slots_in_use(), 2);
        assert!(mb.rows() < rows_before, "cancel must reclaim rows");
        assert!(!mb.cancel(2), "double-cancel is a no-op");
        assert!(!mb.cancel(99), "unknown id is a no-op");
        results.extend(drain(&mut mb, &model, &mut params));
        results.sort_by_key(|(id, _)| *id);
        assert_eq!(results.len(), 2, "cancelled job must not produce output");
        assert_eq!(results[0].0, 1);
        assert_eq!(expect_greedy(&results[0].1), g_want.as_slice());
        assert_eq!(results[1].0, 3);
        assert_eq!(expect_greedy(&results[1].1), g3_want.as_slice());
        assert_eq!(mb.rows(), 0);
        assert!(mb.is_idle());
    }

    #[test]
    fn cancelling_every_job_resets_the_batcher() {
        let (model, mut params) = trained_copy_model();
        let want = greedy_decode(&model, &mut params, &src_of(&[10, 11]), BOS, EOS, 8);
        let mut mb = MicroBatcher::new(&model, &mut params);
        for id in 0..3u64 {
            mb.admit(&model, &mut params, id, greedy(&[10, 11]));
        }
        mb.step(&model, &mut params);
        for id in 0..3u64 {
            assert!(mb.cancel(id));
        }
        assert!(mb.is_idle());
        assert_eq!(mb.rows(), 0);
        // The reset batcher must accept and serve fresh work identically.
        mb.admit(&model, &mut params, 7, greedy(&[10, 11]));
        let results = drain(&mut mb, &model, &mut params);
        assert_eq!(expect_greedy(&results[0].1), want.as_slice());
    }

    #[test]
    fn batcher_resets_after_drain_and_accepts_new_jobs() {
        let (model, mut params) = trained_copy_model();
        let want = greedy_decode(&model, &mut params, &src_of(&[9, 10]), BOS, EOS, 8);
        let mut mb = MicroBatcher::new(&model, &mut params);
        for round in 0..2u64 {
            mb.admit(&model, &mut params, round, greedy(&[9, 10]));
            let results = drain(&mut mb, &model, &mut params);
            assert_eq!(expect_greedy(&results[0].1), want.as_slice());
            assert_eq!(mb.rows(), 0);
            assert!(mb.is_idle());
        }
    }
}
