//! The shared training loop: Adam with Noam warmup and global-norm
//! gradient clipping, reporting a loss curve — checkpointable and
//! resumable (bit-identically) via [`rpt_tensor::serialize::TrainState`].

use std::path::Path;
use std::sync::LazyLock;

use rpt_nn::schedule::linear_warmup;
use rpt_par::ThreadPool;
use rpt_tensor::serialize::{self, CheckpointError, PendingGrad, TrainState};
use rpt_tensor::{Adam, AdamConfig, ParamId, ParamStore, Tape, Tensor, Var};

/// Training metrics (DESIGN.md §Observability). Values only flow *out* of
/// the trainer into the registry — never back — so enabling metrics cannot
/// perturb the training trajectory.
pub(crate) struct TrainObs {
    pub steps: rpt_obs::Counter,
    pub tokens: rpt_obs::Counter,
    pub loss: rpt_obs::Gauge,
    pub grad_norm: rpt_obs::Gauge,
    pub tokens_per_sec: rpt_obs::Gauge,
    pub step_ms: rpt_obs::Histogram,
}

pub(crate) static TRAIN_OBS: LazyLock<TrainObs> = LazyLock::new(|| TrainObs {
    steps: rpt_obs::counter("train.steps"),
    tokens: rpt_obs::counter("train.tokens"),
    loss: rpt_obs::gauge("train.loss"),
    grad_norm: rpt_obs::gauge("train.grad_norm"),
    tokens_per_sec: rpt_obs::gauge("train.tokens_per_sec"),
    step_ms: rpt_obs::histogram("train.step_ms"),
});

/// File name of the rolling train-state checkpoint inside a checkpoint
/// directory. A single rolling file plus atomic replacement means the
/// newest complete checkpoint always survives a crash.
pub const TRAIN_STATE_FILE: &str = "train_state.json";

/// Optimization hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainOpts {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Examples per step.
    pub batch_size: usize,
    /// Micro-batch size for data-parallel gradient accumulation: each step's
    /// batch is split into shards of at most this many examples, processed
    /// (possibly concurrently) with gradients reduced in fixed shard order.
    /// `0` keeps the whole batch in one shard — the serial behaviour.
    pub micro_batch: usize,
    /// Linear-warmup steps.
    pub warmup: usize,
    /// Peak learning rate (after warmup).
    pub peak_lr: f32,
    /// Global-norm gradient clip.
    pub clip: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for TrainOpts {
    fn default() -> Self {
        Self {
            steps: 300,
            batch_size: 16,
            micro_batch: 0,
            warmup: 60,
            peak_lr: 3e-3,
            clip: 1.0,
            weight_decay: 0.01,
        }
    }
}

/// Drives Adam + Noam over successive tapes.
pub struct Trainer {
    opts: TrainOpts,
    adam: Adam,
    losses: Vec<f32>,
    ckpt_every: Option<usize>,
    /// Open gradient-accumulation window: one entry per shard folded so
    /// far, in fold order. Empty outside a window.
    pending: Vec<PendingShard>,
    /// Pre-clip global gradient norm of the latest update.
    last_grad_norm: Option<f32>,
}

/// One shard folded into an accumulation window: `(loss, weight, raw
/// gradients)`.
type PendingShard = (f32, f32, Vec<(ParamId, Tensor)>);

fn fresh_adam(opts: &TrainOpts) -> Adam {
    Adam::new(AdamConfig {
        lr: linear_warmup(opts.peak_lr, opts.warmup as u64, 1),
        weight_decay: opts.weight_decay,
        ..Default::default()
    })
}

impl Trainer {
    /// Creates a trainer. (`_d_model` kept for signature stability; the
    /// schedule is linear warmup to `opts.peak_lr`, then constant — far
    /// easier to reason about than Noam at the tiny widths this
    /// reproduction uses.)
    pub fn new(opts: TrainOpts, _d_model: usize) -> Self {
        let adam = fresh_adam(&opts);
        Self {
            opts,
            adam,
            losses: Vec::new(),
            ckpt_every: None,
            pending: Vec::new(),
            last_grad_norm: None,
        }
    }

    /// The options.
    pub fn opts(&self) -> &TrainOpts {
        &self.opts
    }

    /// Loss recorded at each completed step.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }

    /// The pre-clip global gradient norm of the latest update (`None`
    /// before the first). Not finite when a gradient was not.
    pub fn last_grad_norm(&self) -> Option<f32> {
        self.last_grad_norm
    }

    /// Mean loss over the last `n` steps (or fewer if not available).
    pub fn recent_loss(&self, n: usize) -> f32 {
        if self.losses.is_empty() {
            return f32::NAN;
        }
        let tail = &self.losses[self.losses.len().saturating_sub(n)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }

    /// Runs one optimization step: backward from `loss`, clip, Adam update
    /// with the scheduled learning rate. Returns the scalar loss.
    ///
    /// The caller builds the forward pass on `tape` with parameters bound
    /// from `params` (via [`rpt_nn::Ctx`]).
    pub fn step(&mut self, tape: &Tape, params: &mut ParamStore, loss: Var) -> f32 {
        let _t = rpt_obs::span("train.step", &TRAIN_OBS.step_ms);
        let loss_value = tape.value(loss).data()[0];
        let mut grads = tape.backward(loss);
        let pg = params.collect_grads(&mut grads);
        self.apply_update(params, pg, loss_value)
    }

    /// The optimizer half of a step: clip the collected gradients, set the
    /// scheduled learning rate, apply Adam, and record the loss.
    pub fn apply_update(
        &mut self,
        params: &mut ParamStore,
        pg: Vec<(ParamId, Tensor)>,
        loss_value: f32,
    ) -> f32 {
        let lr = linear_warmup(
            self.opts.peak_lr,
            self.opts.warmup as u64,
            self.adam.steps() + 1,
        );
        self.adam.set_lr(lr);
        let grad_norm = self.adam.step_clipped(params, &pg, self.opts.clip);
        self.last_grad_norm = Some(grad_norm);
        self.losses.push(loss_value);
        TRAIN_OBS.steps.inc();
        TRAIN_OBS.loss.set(loss_value as f64);
        TRAIN_OBS.grad_norm.set(grad_norm as f64);
        loss_value
    }

    /// One micro-step of a gradient-accumulation window: computes each
    /// shard's loss and raw (unscaled) gradients and folds them into the
    /// pending window in shard order, touching no parameters.
    ///
    /// Each shard gets its own [`ParamStore`] clone (cheap: values are
    /// shared, only the binding table is private) and its own tape;
    /// `forward` builds the shard's loss graph. Workers run shards
    /// concurrently on `pool`, but [`Trainer::accum_apply`] later reduces
    /// the whole window on the caller's thread in fold order with weights
    /// `w_i / Σw`, so the update — and hence the whole training trajectory
    /// — is bit-identical for every thread count, and k micro-steps
    /// followed by one apply are bit-identical to one micro-step over the
    /// concatenated shard list. With a single shard the scale is exactly
    /// `1.0` and the result matches [`Trainer::step`] bit-for-bit.
    pub fn accum_micro_step<S: Sync>(
        &mut self,
        pool: &ThreadPool,
        params: &ParamStore,
        shards: &[S],
        shard_weight: impl Fn(&S) -> f32 + Sync,
        forward: impl Fn(&Tape, &mut ParamStore, &S) -> Var + Sync,
    ) {
        assert!(!shards.is_empty(), "accum_micro_step: no shards");
        let _trace = rpt_obs::trace_span("train.forward_backward");
        let shared: &ParamStore = params;
        let results: Vec<(f32, Vec<(ParamId, Tensor)>)> = pool.map(shards.len(), |i| {
            let mut local = shared.clone();
            local.begin_step();
            let tape = Tape::new();
            let loss = forward(&tape, &mut local, &shards[i]);
            let loss_value = tape.value(loss).data()[0];
            let mut grads = tape.backward(loss);
            (loss_value, local.collect_grads(&mut grads))
        });
        for (shard, (lv, pg)) in shards.iter().zip(results) {
            self.pending.push((lv, shard_weight(shard), pg));
        }
    }

    /// The weighted fixed-order reduction over a window's shards: weights
    /// are summed in fold order, each shard's gradient is scaled by
    /// `w_i / Σw` and added into the accumulator in fold order: the first
    /// shard holding a parameter is scaled in place and becomes its
    /// accumulator, and every later one is scaled and added in the same
    /// pass (`acc += g · scale`, the product rounded before the add).
    fn reduce_window(n_params: usize, pending: Vec<PendingShard>) -> (f32, Vec<(ParamId, Tensor)>) {
        let total_w: f32 = pending.iter().map(|(_, w, _)| *w).sum();
        let mut loss_value = 0.0f32;
        let mut acc: Vec<Option<Tensor>> = vec![None; n_params];
        for (lv, w, pg) in pending {
            let scale = w / total_w.max(f32::MIN_POSITIVE);
            loss_value += lv * scale;
            for (id, mut g) in pg {
                match &mut acc[id.index()] {
                    Some(a) => {
                        let ad = a.data_mut();
                        let i = id.index();
                        assert_eq!(ad.len(), g.numel(), "gradient shape for param {i}");
                        for (x, &y) in ad.iter_mut().zip(g.data()) {
                            *x += y * scale;
                        }
                    }
                    slot @ None => {
                        g.map_inplace(|x| x * scale);
                        *slot = Some(g);
                    }
                }
            }
        }
        let pg: Vec<(ParamId, Tensor)> = acc
            .into_iter()
            .enumerate()
            .filter_map(|(i, g)| g.map(|g| (ParamId::from_index(i), g)))
            .collect();
        (loss_value, pg)
    }

    /// The window's weighted loss and reduced gradient, *without* applying
    /// an update or closing the window. Exposed for the finite-difference
    /// gradient checks.
    pub fn accum_reduced(&self, params: &ParamStore) -> (f32, Vec<(ParamId, Tensor)>) {
        Self::reduce_window(params.len(), self.pending.clone())
    }

    /// Closes the accumulation window: reduces all pending shard gradients
    /// in fold order and applies the single optimizer step. Returns the
    /// window's weighted mean loss.
    pub fn accum_apply(&mut self, params: &mut ParamStore) -> f32 {
        assert!(!self.pending.is_empty(), "accum_apply: empty window");
        let _trace = rpt_obs::trace_span("train.reduce_apply");
        let pending = std::mem::take(&mut self.pending);
        let (loss_value, pg) = Self::reduce_window(params.len(), pending);
        self.apply_update(params, pg, loss_value)
    }

    /// Shards folded into the open accumulation window so far.
    pub fn pending_shards(&self) -> usize {
        self.pending.len()
    }

    /// Drops the open accumulation window (e.g. before a fresh resume).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// The open window's shards with name-keyed gradients, for embedding
    /// in a mid-window checkpoint.
    pub fn export_pending(&self, params: &ParamStore) -> Vec<PendingGrad> {
        self.pending
            .iter()
            .map(|(loss, weight, pg)| PendingGrad {
                loss: *loss,
                weight: *weight,
                grads: pg
                    .iter()
                    .map(|(id, g)| (params.name(*id).to_string(), g.clone()))
                    .collect(),
            })
            .collect()
    }

    /// Restores a checkpointed mid-window state, replacing any open
    /// window. Gradient order within and across shards is preserved, so a
    /// resumed window reduces bit-identically to the uninterrupted one.
    pub fn import_pending(
        &mut self,
        params: &ParamStore,
        pending: &[PendingGrad],
    ) -> Result<(), CheckpointError> {
        let mut restored = Vec::with_capacity(pending.len());
        for p in pending {
            let mut pg = Vec::with_capacity(p.grads.len());
            for (name, g) in &p.grads {
                let id = params.find(name).ok_or_else(|| {
                    CheckpointError::Mismatch(format!(
                        "pending gradient for unknown parameter {name}"
                    ))
                })?;
                if params.value(id).shape() != g.shape() {
                    return Err(CheckpointError::Mismatch(format!(
                        "pending gradient for {} has shape {:?} but the parameter is {:?}",
                        name,
                        g.shape(),
                        params.value(id).shape()
                    )));
                }
                pg.push((id, g.clone()));
            }
            restored.push((p.loss, p.weight, pg));
        }
        self.pending = restored;
        Ok(())
    }

    /// Number of steps taken so far.
    pub fn steps_done(&self) -> usize {
        self.losses.len()
    }

    /// True once the configured number of steps has been taken.
    pub fn finished(&self) -> bool {
        self.steps_done() >= self.opts.steps
    }

    /// Requests a checkpoint every `every` completed steps (`0` disables).
    /// The final step always checkpoints, so a finished run's state can
    /// itself be resumed (e.g. to train further).
    pub fn checkpoint_every(&mut self, every: usize) {
        self.ckpt_every = if every == 0 { None } else { Some(every) };
    }

    /// True when the training loop should save a checkpoint now: a
    /// cadence is configured and the current step hits it (or the run
    /// just finished).
    pub fn checkpoint_due(&self) -> bool {
        match self.ckpt_every {
            Some(every) => {
                self.steps_done() > 0
                    && (self.steps_done().is_multiple_of(every) || self.finished())
            }
            None => false,
        }
    }

    /// Snapshots everything this trainer needs to resume bit-identically:
    /// Adam `m`/`v`/`t` and the loss curve, plus whatever named RNG
    /// streams the caller's loop depends on.
    pub fn train_state(
        &self,
        params: &ParamStore,
        rng_streams: Vec<(String, [u64; 4])>,
    ) -> TrainState {
        TrainState {
            adam: Some(self.adam.export_state(params)),
            rng_streams,
            steps_done: self.steps_done() as u64,
            losses: self.losses.clone(),
            corpus: None,
        }
    }

    /// Restores optimizer state and the loss curve from a snapshot.
    /// Params-only (v1) snapshots reset the optimizer: moments cleanly
    /// reinitialize to zero-on-first-use and the loss curve starts empty.
    pub fn restore_state(
        &mut self,
        params: &ParamStore,
        state: &TrainState,
    ) -> Result<(), CheckpointError> {
        match &state.adam {
            Some(a) => self
                .adam
                .import_state(params, a)
                .map_err(CheckpointError::Mismatch)?,
            None => self.adam = fresh_adam(&self.opts),
        }
        self.losses = state.losses.clone();
        self.pending.clear();
        if let Some(accum) = state.corpus.as_ref().and_then(|c| c.accum.as_ref()) {
            self.import_pending(params, &accum.pending)?;
        }
        Ok(())
    }

    /// Loads a checkpoint file: parameters into `params`, optimizer state
    /// and loss curve into this trainer. Returns the full state so the
    /// caller can restore its RNG streams.
    pub fn resume_from(
        &mut self,
        params: &mut ParamStore,
        path: impl AsRef<Path>,
    ) -> Result<TrainState, CheckpointError> {
        let state = serialize::load_train_file(params, path)?;
        self.restore_state(params, &state)?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_tensor::Tensor;

    #[test]
    fn trainer_minimizes_a_quadratic() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::scalar(4.0));
        let mut trainer = Trainer::new(
            TrainOpts {
                steps: 200,
                warmup: 10,
                peak_lr: 0.05,
                weight_decay: 0.0,
                ..Default::default()
            },
            16,
        );
        while !trainer.finished() {
            params.begin_step();
            let tape = Tape::new();
            let wv = params.bind(&tape, w);
            let target = tape.constant(Tensor::scalar(1.0));
            let d = tape.sub(wv, target);
            let loss = tape.mul(d, d);
            trainer.step(&tape, &mut params, loss);
        }
        assert!(trainer.finished());
        assert_eq!(trainer.steps_done(), 200);
        let final_w = params.value(w).data()[0];
        assert!((final_w - 1.0).abs() < 0.1, "w = {final_w}");
        assert!(trainer.recent_loss(10) < trainer.losses()[0]);
    }

    #[test]
    fn last_grad_norm_reports_the_latest_update() {
        let mut params = ParamStore::new();
        params.register("w", Tensor::scalar(4.0));
        let mut trainer = Trainer::new(quadratic_opts(), 16);
        assert_eq!(trainer.last_grad_norm(), None);
        let mut step = |params: &mut ParamStore| {
            params.begin_step();
            let tape = Tape::new();
            let loss = quadratic_loss(&tape, params, 1.0);
            trainer.step(&tape, params, loss);
            trainer.last_grad_norm().expect("set by the update")
        };
        // d/dw (w - 1)^2 at w = 4 is 6
        assert_eq!(step(&mut params), 6.0);
        params.set_value(ParamId::from_index(0), Tensor::scalar(f32::NAN));
        assert!(step(&mut params).is_nan());
    }

    #[test]
    fn recent_loss_handles_short_history() {
        let trainer = Trainer::new(TrainOpts::default(), 16);
        assert!(trainer.recent_loss(5).is_nan());
    }

    fn quadratic_opts() -> TrainOpts {
        TrainOpts {
            steps: 40,
            warmup: 5,
            peak_lr: 0.05,
            weight_decay: 0.0,
            ..Default::default()
        }
    }

    /// Builds `(w - target)^2` on the tape for the bound parameter 0.
    fn quadratic_loss(tape: &Tape, params: &mut ParamStore, target: f32) -> Var {
        let wv = params.bind(tape, rpt_tensor::ParamId::from_index(0));
        let t = tape.constant(Tensor::scalar(target));
        let d = tape.sub(wv, t);
        tape.mul(d, d)
    }

    #[test]
    fn data_parallel_single_shard_matches_serial_step_bitwise() {
        let run_serial = || {
            let mut params = ParamStore::new();
            params.register("w", Tensor::scalar(4.0));
            let mut trainer = Trainer::new(quadratic_opts(), 16);
            while !trainer.finished() {
                params.begin_step();
                let tape = Tape::new();
                let loss = quadratic_loss(&tape, &mut params, 1.0);
                trainer.step(&tape, &mut params, loss);
            }
            (
                params.value(ParamId::from_index(0)).data()[0],
                trainer.losses().to_vec(),
            )
        };
        let run_parallel = || {
            let pool = ThreadPool::new(1);
            let mut params = ParamStore::new();
            params.register("w", Tensor::scalar(4.0));
            let mut trainer = Trainer::new(quadratic_opts(), 16);
            while !trainer.finished() {
                trainer.accum_micro_step(
                    &pool,
                    &params,
                    &[1.0f32],
                    |_| 1.0,
                    |tape, params, &target| quadratic_loss(tape, params, target),
                );
                trainer.accum_apply(&mut params);
            }
            (
                params.value(ParamId::from_index(0)).data()[0],
                trainer.losses().to_vec(),
            )
        };
        let (w_serial, l_serial) = run_serial();
        let (w_par, l_par) = run_parallel();
        assert_eq!(w_serial.to_bits(), w_par.to_bits());
        let serial_bits: Vec<u32> = l_serial.iter().map(|x| x.to_bits()).collect();
        let par_bits: Vec<u32> = l_par.iter().map(|x| x.to_bits()).collect();
        assert_eq!(serial_bits, par_bits);
    }

    #[test]
    fn data_parallel_identical_across_thread_counts() {
        let run = |threads: usize| {
            let pool = ThreadPool::new(threads);
            let mut params = ParamStore::new();
            params.register("w", Tensor::scalar(4.0));
            let mut trainer = Trainer::new(quadratic_opts(), 16);
            // three shards with uneven weights exercises the weighted
            // fixed-order reduction
            let shards = [(1.0f32, 3.0f32), (2.0, 1.0), (0.5, 2.0)];
            while !trainer.finished() {
                trainer.accum_micro_step(
                    &pool,
                    &params,
                    &shards,
                    |&(_, w)| w,
                    |tape, params, &(target, _)| quadratic_loss(tape, params, target),
                );
                trainer.accum_apply(&mut params);
            }
            (
                params.value(ParamId::from_index(0)).data()[0].to_bits(),
                trainer
                    .losses()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u32>>(),
            )
        };
        let (w1, l1) = run(1);
        for threads in [2, 3, 4] {
            let (w, l) = run(threads);
            assert_eq!(w1, w, "final weight differs at {threads} threads");
            assert_eq!(l1, l, "loss curve differs at {threads} threads");
        }
    }
}
