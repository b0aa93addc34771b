//! Fused multi-request decoding: the one decode engine behind both
//! single-request decoding and `rpt-serve`.
//!
//! [`MicroBatcher`] advances every live row of every admitted job — one row
//! per greedy/forced job, one per live beam hypothesis — through **one**
//! fused [`Seq2Seq::decode_step_rows`] call per token, so the per-step
//! matmuls and `bmm`s see the whole batch at once. Its per-job drivers are
//! the only cached greedy, beam and forced control flow in the crate:
//! [`crate::greedy_decode`], [`crate::beam_search`] and
//! [`crate::forced_score`] are one-job runs of this batcher, and the
//! full-prefix `*_reference` recomputes are the independent oracles.
//!
//! ## Cache-slot pooling
//!
//! Each admitted request owns a contiguous block of rows ("slot") in the
//! fused per-layer KV caches (`[rows*h, t, dh]`). Admission encodes the
//! request's source with [`Seq2Seq::begin_request`], zero-pads its
//! cross-attention K/V from its own source length to the fused source
//! width — the longest *live* source, grown on demand when a longer one
//! arrives (masked with `NEG_INF`, so the padding is softmax-invisible) —
//! and appends the rows with [`rpt_tensor::Tensor::concat_dim0`].
//! Completion drops the slot's rows in the same gather that applies beam
//! reordering.
//! Requests may join mid-flight: a slot admitted when the fused cache
//! already holds `t` decoded positions front-pads its self-attention K/V
//! with `t` zero rows ("lead pad") and masks them out per row; once every
//! live slot masks a common prefix, [`MicroBatcher::step`] trims it
//! (`slice_dim1`) so the fused cache length tracks the *longest live*
//! request, not the total history.
//!
//! ## Bit-identity
//!
//! A job's output is byte-identical whether it runs alone (the
//! single-request entry points) or beside any mix of other jobs: every
//! row-level op computes a row from that row alone in a fixed accumulation
//! order, masked zero padding keys are exact softmax no-ops, and each
//! driver decides from its own logit rows only. DESIGN.md §Serving gives
//! the full argument. This module's unit tests and
//! `tests/serve_equivalence.rs` lock it down; `tests/decode_equivalence.rs`
//! checks the engine against the references.

use rpt_tensor::{ParamStore, Tensor};

use crate::batch::TokenBatch;
use crate::decode::{finish, top_candidates, BeamConfig, Hypothesis};
use crate::metrics::{argmax, log_softmax_row};
use crate::seq2seq::Seq2Seq;
use crate::transformer::LayerKv;
use crate::NEG_INF;

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
    fn src(&self) -> &TokenBatch {
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

    fn consume(&mut self, lp_row: &[f32]) -> Post {
        let lp = log_softmax_row(lp_row);
        let next = argmax(&lp);
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

    fn consume(&mut self, lp_row: &[f32]) -> Post {
        let lp = log_softmax_row(lp_row);
        let goal = self.goals[self.scored];
        self.per_token.push(lp[goal]);
        self.total += lp[goal];
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

/// One admitted request: its row block in the fused caches plus driver
/// state.
struct Slot {
    id: u64,
    driver: Driver,
    /// Rows this slot currently owns (contiguous, in slot order).
    width: usize,
    /// Fused cache positions that predate this slot's admission (masked).
    lead_pad: usize,
    /// Additive cross-attention mask row, padded to the fused source
    /// length (`0.0` valid / `NEG_INF` padding).
    cross_row: Vec<f32>,
}

/// Dynamic micro-batcher: pools KV-cache slots from many independent
/// decode jobs and advances every live row in one fused decoder step per
/// token. See the module docs for the batching and bit-identity story.
pub struct MicroBatcher {
    layers: Vec<LayerKv>,
    slots: Vec<Slot>,
    /// Decoded positions currently cached in the fused layers.
    t_dec: usize,
    /// Fused cross-attention length every admitted request is padded to.
    t_src: usize,
    n_heads: usize,
    d_head: usize,
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
            layers: Vec::new(),
            slots: Vec::new(),
            t_dec: 0,
            t_src: 0,
            n_heads: cfg.n_heads,
            d_head: cfg.d_model / cfg.n_heads,
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
        self.slots.iter().map(|s| s.width).sum()
    }

    /// True when no jobs are admitted.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Admits a job: encodes its source ([`Seq2Seq::begin_request`]),
    /// pads its cross K/V to the fused width, front-pads its self K/V to
    /// the current fused decode length, and appends its rows to the pooled
    /// caches. `id` tags the job's entry in [`Self::step`] results.
    pub fn admit(&mut self, model: &Seq2Seq, params: &mut ParamStore, id: u64, spec: JobSpec) {
        let (req_layers, cross_row) = model.begin_request(params, spec.src());
        if cross_row.len() > self.t_src {
            self.grow_src(cross_row.len());
        }
        let mut padded_row = cross_row;
        padded_row.resize(self.t_src, NEG_INF);

        let h = self.n_heads;
        let dh = self.d_head;
        for (li, mut lk) in req_layers.into_iter().enumerate() {
            lk.cross_v = pad_dim1(&lk.cross_v, self.t_src);
            lk.cross_kt = pad_dim2(&lk.cross_kt, self.t_src);
            if self.t_dec > 0 {
                lk.self_k = Some(Tensor::zeros(&[h, self.t_dec, dh]));
                lk.self_v = Some(Tensor::zeros(&[h, self.t_dec, dh]));
            }
            match self.layers.get_mut(li) {
                Some(fused) => fused_append(fused, &lk),
                None => self.layers.push(lk),
            }
        }

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
            width: 1,
            lead_pad: self.t_dec,
            cross_row: padded_row,
        });
    }

    /// Cancels an admitted job (a client that vanished mid-decode),
    /// immediately reclaiming its cache slot: the job's rows are dropped
    /// through the same gather that applies beam reordering, and the
    /// common lead pad is re-trimmed. Remaining jobs are unaffected —
    /// every fused op is row-independent, so their outputs stay
    /// bit-identical. Returns false when `id` is not resident (never
    /// admitted, already finished, or already cancelled).
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(at) = self.slots.iter().position(|s| s.id == id) else {
            return false;
        };
        let mut keep_rows: Vec<usize> = Vec::new();
        let mut base = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            if i != at {
                keep_rows.extend(base..base + slot.width);
            }
            base += slot.width;
        }
        self.slots.remove(at);
        if self.slots.is_empty() {
            self.reset();
            return true;
        }
        self.select_rows(&keep_rows);
        self.compact();
        true
    }

    /// Advances every live job by one token (one fused decoder step) and
    /// returns the jobs that finished, tagged by admission id. Jobs that
    /// finish without needing compute (exhausted budgets) are returned
    /// without stepping. Calling on an idle batcher returns nothing.
    pub fn step(&mut self, model: &Seq2Seq, params: &mut ParamStore) -> Vec<(u64, JobOutput)> {
        let mut finished: Vec<(u64, JobOutput)> = Vec::new();
        if self.slots.is_empty() {
            return finished;
        }

        // Phase A: ask each driver which of its rows advance; drop jobs
        // that are already complete. `keep_rows` maps post-gather row i to
        // its current fused row.
        let mut keep_rows: Vec<usize> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        let mut live: Vec<Slot> = Vec::new();
        let mut base = 0usize;
        for mut slot in std::mem::take(&mut self.slots) {
            let width = slot.width;
            match slot.driver.pre() {
                Pre::Finish(out) => finished.push((slot.id, out)),
                Pre::Step {
                    keep,
                    tokens: tk,
                    positions: ps,
                } => {
                    keep_rows.extend(keep.iter().map(|&k| base + k));
                    tokens.extend(tk);
                    positions.extend(ps);
                    slot.width = keep.len();
                    live.push(slot);
                }
            }
            base += width;
        }
        let total_before = base;
        if live.is_empty() {
            self.reset();
            return finished;
        }
        if keep_rows.len() != total_before || keep_rows.iter().enumerate().any(|(i, &r)| i != r) {
            self.select_rows(&keep_rows);
        }
        self.slots = live;

        // Fused step over every live row.
        let rows = tokens.len();
        let obs = &*crate::obs::DECODE_OBS;
        obs.fused_steps.inc();
        obs.fused_rows.add(rows as u64);
        let cross_mask = self.cross_mask(rows);
        let self_mask = self.self_mask(rows);
        let logits = model.decode_step_rows(
            params,
            &mut self.layers,
            &tokens,
            &positions,
            self_mask.as_ref(),
            &cross_mask,
            &self.et,
        );
        self.t_dec += 1;

        // Phase B: each driver consumes its logit rows; build the combined
        // beam-reorder + slot-reclaim gather.
        let data = logits.data();
        let v = self.vocab;
        let mut parents_rows: Vec<usize> = Vec::new();
        let mut kept: Vec<Slot> = Vec::new();
        let mut base = 0usize;
        for mut slot in std::mem::take(&mut self.slots) {
            let width = slot.width;
            match slot.driver.consume(&data[base * v..(base + width) * v], v) {
                Post::Finish(out) => finished.push((slot.id, out)),
                Post::Continue { parents } => {
                    parents_rows.extend(parents.iter().map(|&p| base + p));
                    slot.width = parents.len();
                    kept.push(slot);
                }
            }
            base += width;
        }
        if kept.is_empty() {
            self.reset();
            return finished;
        }
        if parents_rows.len() != base || parents_rows.iter().enumerate().any(|(i, &r)| i != r) {
            self.select_rows(&parents_rows);
        }
        self.slots = kept;
        self.compact();
        finished
    }

    /// Reorders/replicates/drops fused cache rows; `rows` indexes current
    /// slot rows (each expands to its `h` head rows).
    fn select_rows(&mut self, rows: &[usize]) {
        crate::obs::DECODE_OBS.beam_reorders.inc();
        let h = self.n_heads;
        let head_rows: Vec<usize> = rows
            .iter()
            .flat_map(|&r| (0..h).map(move |head| r * h + head))
            .collect();
        for layer in &mut self.layers {
            layer.select_rows(&head_rows);
        }
    }

    /// Drops all fused state once every slot has completed.
    fn reset(&mut self) {
        self.layers.clear();
        self.t_dec = 0;
        self.t_src = 0;
    }

    /// Widens the fused cross-attention length to `t_src` (a longer
    /// source arrived). Existing slots' cross K/V and mask rows gain
    /// trailing masked-zero positions — softmax no-ops, so cheaper short
    /// sources never pay for the model's full `max_len` (only for the
    /// longest source actually live).
    fn grow_src(&mut self, t_src: usize) {
        for layer in &mut self.layers {
            layer.cross_v = pad_dim1(&layer.cross_v, t_src);
            layer.cross_kt = pad_dim2(&layer.cross_kt, t_src);
        }
        for slot in &mut self.slots {
            slot.cross_row.resize(t_src, NEG_INF);
        }
        self.t_src = t_src;
    }

    /// Trims fused cache positions that every live slot masks (the common
    /// lead pad), keeping cache length proportional to the longest live
    /// request. Bit-exact: the trimmed keys carried softmax weight `+0.0`
    /// for every row.
    fn compact(&mut self) {
        let common = self.slots.iter().map(|s| s.lead_pad).min().unwrap_or(0);
        if common == 0 {
            return;
        }
        crate::obs::DECODE_OBS.cache_compactions.add(common as u64);
        for layer in &mut self.layers {
            if let Some(k) = &layer.self_k {
                layer.self_k = Some(k.slice_dim1(common));
            }
            if let Some(v) = &layer.self_v {
                layer.self_v = Some(v.slice_dim1(common));
            }
        }
        for slot in &mut self.slots {
            slot.lead_pad -= common;
        }
        self.t_dec -= common;
    }

    /// The `[rows*h, 1, t_src]` additive cross mask: each slot's padded
    /// mask row, replicated per slot row and head.
    fn cross_mask(&self, rows: usize) -> Tensor {
        let h = self.n_heads;
        let mut data = Vec::with_capacity(rows * h * self.t_src);
        for slot in &self.slots {
            for _ in 0..slot.width * h {
                data.extend_from_slice(&slot.cross_row);
            }
        }
        Tensor::from_vec(data, &[rows * h, 1, self.t_src]).expect("cross mask shape")
    }

    /// The `[rows*h, 1, t_dec+1]` additive self mask hiding each slot's
    /// lead pad, or `None` when no slot has one (then the mask would be
    /// all zeros — the single-request no-mask case).
    fn self_mask(&self, rows: usize) -> Option<Tensor> {
        if self.slots.iter().all(|s| s.lead_pad == 0) {
            return None;
        }
        let h = self.n_heads;
        let t_k = self.t_dec + 1; // the step appends before attending
        let mut data = Vec::with_capacity(rows * h * t_k);
        for slot in &self.slots {
            for _ in 0..slot.width * h {
                for k in 0..t_k {
                    data.push(if k < slot.lead_pad { NEG_INF } else { 0.0 });
                }
            }
        }
        Some(Tensor::from_vec(data, &[rows * h, 1, t_k]).expect("self mask shape"))
    }
}

/// Zero-pads a `[b, t, d]` tensor along dim 1 up to `t_target`.
fn pad_dim1(t: &Tensor, t_target: usize) -> Tensor {
    let (b, tt, d) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    assert!(
        tt <= t_target,
        "source length {tt} exceeds fused length {t_target}"
    );
    if tt == t_target {
        return t.clone();
    }
    t.concat_dim1(&Tensor::zeros(&[b, t_target - tt, d]))
}

/// Zero-pads a `[b, d, t]` tensor (the pre-transposed cross keys) along
/// the last dim up to `t_target`.
fn pad_dim2(t: &Tensor, t_target: usize) -> Tensor {
    let (b, d, tt) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    assert!(
        tt <= t_target,
        "source length {tt} exceeds fused length {t_target}"
    );
    if tt == t_target {
        return t.clone();
    }
    let src = t.data();
    let mut out = Vec::with_capacity(b * d * t_target);
    for row in 0..b * d {
        out.extend_from_slice(&src[row * tt..(row + 1) * tt]);
        out.extend(std::iter::repeat_n(0.0, t_target - tt));
    }
    Tensor::from_vec(out, &[b, d, t_target]).expect("pad_dim2 shape")
}

/// Appends one request's padded cache rows onto the fused layer cache.
fn fused_append(fused: &mut LayerKv, req: &LayerKv) {
    fused.cross_kt = fused.cross_kt.concat_dim0(&req.cross_kt);
    fused.cross_v = fused.cross_v.concat_dim0(&req.cross_v);
    match (&fused.self_k, &req.self_k) {
        (Some(fk), Some(rk)) => fused.self_k = Some(fk.concat_dim0(rk)),
        (None, None) => {}
        _ => panic!("fused/self cache length mismatch on admission"),
    }
    match (&fused.self_v, &req.self_v) {
        (Some(fv), Some(rv)) => fused.self_v = Some(fv.concat_dim0(rv)),
        (None, None) => {}
        _ => panic!("fused/self cache length mismatch on admission"),
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
    fn staggered_admission_stays_bit_identical() {
        // Late joiners land mid-flight: their cache slots carry a nonzero
        // lead pad, exercising the fused self-attention mask and the
        // common-prefix compaction — outputs must still match the
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
        // Two tokens decoded: the next admissions see a nonzero lead pad.
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
        // beam occupies multiple rows by now — the gather has to close a
        // multi-row hole.
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
