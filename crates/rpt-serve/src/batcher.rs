//! The micro-batching loop: a bounded queue of prefilled decode jobs
//! feeding one batcher thread that advances every admitted request through
//! fused [`rpt_nn::MicroBatcher`] steps, with drain-then-swap checkpoint
//! hot-reload between batches.
//!
//! ## Prefill off the batcher
//!
//! Connection threads encode each request's source themselves
//! ([`Prefiller`]) against the immutable [`Snapshot`] the batcher
//! publishes at start and after every successful reload, so a queued
//! [`Job`] already carries its cross-attention K/V and admission only
//! moves them into the job's batcher slot. A job encoded under a generation that is
//! no longer serving (a reload landed between encode and admit) is
//! re-encoded on the batcher thread and counted in `serve.prefill_stale`:
//! no request is ever answered by two checkpoints.
//!
//! ## Hot reload
//!
//! The checkpoint file (written by atomic rename) is stat-ed between
//! batches; a changed `(mtime, len, inode)` stamp marks a reload as
//! pending. The batcher then stops admitting (so in-flight requests finish
//! on the old parameters — the drain), and once idle reads the file once
//! and loads its parameters into a clone of the live [`ParamStore`] (and,
//! serving int8, its quant section from the same read). A torn or invalid
//! file fails the checksum or validation in [`Checkpoint::read`] or
//! [`apply_params`], increments `serve.reload_errors`, and leaves the old
//! parameters serving; the attempt is not retried until the stat changes
//! again. On success the clone is swapped in, the tied projection is
//! rebuilt, the new [`Snapshot`] is published, and
//! `serve.model_generation` increments.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use rpt_nn::{JobOutput, JobSpec, MicroBatcher, Prefill, Seq2Seq, TokenBatch};
use rpt_tensor::serialize::{apply_params, Checkpoint};
use rpt_tensor::{ParamStore, QuantMatrix};

use crate::obs::SERVE_OBS;

/// One queued decode request: the job plus the channel its result goes
/// back on, tagged with the parameter generation that served it. The
/// connection handler raises `cancel` when its client vanishes; the
/// batcher then reclaims the job's KV slot instead of decoding for
/// nobody.
pub(crate) struct Job {
    pub spec: JobSpec,
    /// The source's encoder output, computed on the connection thread.
    pub prefill: Prefill,
    /// The parameter generation `prefill` was computed under.
    pub generation: u64,
    pub resp: SyncSender<(u64, JobOutput)>,
    pub cancel: Arc<AtomicBool>,
    /// Per-request trace identity; `None` when tracing is dark (the
    /// batcher then records no stage spans and reads no clock for them).
    pub trace: Option<JobTrace>,
}

/// Stage durations shared back to the connection handler so the optional
/// `X-Rpt-Trace` response header can summarize them (nanoseconds; 0 =
/// stage not finished).
#[derive(Default)]
pub(crate) struct StageNs {
    pub prefill: AtomicU64,
    pub queue_wait: AtomicU64,
    pub batch_wait: AtomicU64,
    pub decode: AtomicU64,
}

/// The trace identity a request carries across the queue: span parents
/// for the stage spans the batcher emits, plus the enqueue timestamp
/// (`rpt_obs::now_ns`, taken when prefill ends) where queue_wait starts.
pub(crate) struct JobTrace {
    pub trace_id: u64,
    pub root: u64,
    pub enqueue_ns: u64,
    pub stages: Arc<StageNs>,
}

/// Batcher-side stage bookkeeping for one admitted traced job.
struct PendingTrace {
    meta: JobTrace,
    admit_ns: u64,
    /// Set when the job's first fused step begins (batch_wait ends).
    first_step_ns: Option<u64>,
}

/// An admitted job awaiting completion.
struct PendingJob {
    id: u64,
    resp: SyncSender<(u64, JobOutput)>,
    cancel: Arc<AtomicBool>,
    trace: Option<PendingTrace>,
}

/// The serving model at one parameter generation, immutable once
/// published. Connection threads encode against it; the batcher decodes
/// with the same model and weights.
pub(crate) struct Snapshot {
    pub model: Seq2Seq,
    pub params: ParamStore,
    pub generation: u64,
}

/// State shared between connection handlers and the batcher thread.
pub(crate) struct BatcherShared {
    /// Decode jobs holding a queue reservation: being encoded on their
    /// connection thread or sitting in the bounded queue.
    pub queue_depth: AtomicUsize,
    /// Parameter generation currently serving (for `/healthz`). Stored
    /// after the matching [`Snapshot`] is published, so a reader that sees
    /// generation `g` finds a snapshot of at least `g`.
    pub generation: AtomicU64,
    /// Server-wide shutdown flag.
    pub shutdown: AtomicBool,
    snapshot: Mutex<Arc<Snapshot>>,
}

impl BatcherShared {
    /// The most recently published serving snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn publish(&self, snap: Arc<Snapshot>) {
        let generation = snap.generation;
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = snap;
        self.generation.store(generation, Ordering::Release);
    }
}

/// A connection thread's encoder: the snapshot it last saw plus its own
/// [`ParamStore`] clone (`Arc`-shared weights; only the per-tape binding
/// table is private), refreshed when the serving generation moves.
#[derive(Default)]
pub(crate) struct Prefiller {
    view: Option<(Arc<Snapshot>, ParamStore)>,
}

impl Prefiller {
    /// Encodes `src` against the current snapshot; returns the prefill
    /// and the generation it belongs to.
    pub fn prefill(&mut self, shared: &BatcherShared, src: &TokenBatch) -> (Prefill, u64) {
        let serving = shared.generation.load(Ordering::Acquire);
        if self
            .view
            .as_ref()
            .is_none_or(|(snap, _)| snap.generation != serving)
        {
            let snap = shared.snapshot();
            let params = snap.params.clone();
            self.view = Some((snap, params));
        }
        let (snap, params) = self.view.as_mut().expect("view set above");
        (snap.model.begin_request(params, src), snap.generation)
    }
}

pub(crate) struct Batcher {
    /// The published snapshot this batcher decodes with.
    snap: Arc<Snapshot>,
    /// The batcher's own binding copy of `snap.params`.
    params: ParamStore,
    mb: MicroBatcher,
    rx: Receiver<Job>,
    /// Result channel + cancel flag per admitted job id.
    pending: Vec<PendingJob>,
    next_id: u64,
    max_batch: usize,
    /// Serve int8 quantized weights (rebuilt on every hot-reload).
    quant: bool,
    checkpoint: Option<PathBuf>,
    seen_stat: Option<FileStamp>,
    reload_pending: bool,
    poll: Duration,
    shared: Arc<BatcherShared>,
}

impl Batcher {
    /// Builds the batcher and the state it shares with connection
    /// threads, publishing generation 0 after any quant set is attached.
    pub fn new(
        mut model: Seq2Seq,
        mut params: ParamStore,
        rx: Receiver<Job>,
        max_batch: usize,
        checkpoint: Option<PathBuf>,
        poll: Duration,
        quant: bool,
    ) -> Self {
        if quant && model.quant().is_none() {
            // The caller handed plain f32 weights; quantize in place. A
            // caller that loaded a quantized checkpoint attaches the
            // stored int8 tensors itself before starting the server.
            model.set_quant(Some(Arc::new(rpt_nn::build_quant_set(&params))));
        }
        SERVE_OBS.quant.set(if quant { 1.0 } else { 0.0 });
        let mb = MicroBatcher::new(&model, &mut params);
        let seen_stat = checkpoint.as_deref().and_then(stat);
        SERVE_OBS.model_generation.set(0.0);
        let snap = Arc::new(Snapshot {
            model,
            params: params.clone(),
            generation: 0,
        });
        let shared = Arc::new(BatcherShared {
            queue_depth: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            snapshot: Mutex::new(Arc::clone(&snap)),
        });
        Self {
            snap,
            params,
            mb,
            rx,
            pending: Vec::new(),
            next_id: 0,
            max_batch,
            quant,
            checkpoint,
            seen_stat,
            reload_pending: false,
            poll,
            shared,
        }
    }

    /// The state connection threads share with this batcher.
    pub fn shared(&self) -> Arc<BatcherShared> {
        Arc::clone(&self.shared)
    }

    /// Runs until every producer handle is dropped and all admitted work
    /// has drained.
    pub fn run(mut self) {
        loop {
            let disconnected = self.admit_available();
            if self.mb.is_idle() {
                if self.reload_pending {
                    self.reload();
                }
                if disconnected {
                    return;
                }
                match self.rx.recv_timeout(self.poll) {
                    Ok(job) => self.admit(job),
                    Err(RecvTimeoutError::Timeout) => self.check_stat(),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            self.check_stat();
            self.reap_cancelled();
            self.step();
        }
    }

    /// Drops jobs whose clients vanished: the KV slot is reclaimed
    /// before the next fused step instead of decoding to completion for
    /// nobody. Survivor outputs are unaffected (row independence).
    fn reap_cancelled(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].cancel.load(Ordering::Relaxed) {
                let job = self.pending.swap_remove(i);
                if self.mb.cancel(job.id) {
                    SERVE_OBS.cancelled.inc();
                }
            } else {
                i += 1;
            }
        }
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    /// Admits queued jobs up to the batch cap (none while draining for a
    /// reload). Returns true when all producers are gone.
    fn admit_available(&mut self) -> bool {
        while !self.reload_pending && self.mb.slots_in_use() < self.max_batch {
            match self.rx.try_recv() {
                Ok(job) => self.admit(job),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
        false
    }

    fn admit(&mut self, job: Job) {
        let depth = self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        SERVE_OBS.queue_depth.set(depth as f64);
        if job.cancel.load(Ordering::Relaxed) {
            // The client gave up while the job sat in the queue: don't
            // take a KV slot for it.
            SERVE_OBS.cancelled.inc();
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        // queue_wait ends here: the job left the bounded queue and owns a
        // KV slot. Trace-dark jobs skip all stage accounting (no clock).
        let trace = job.trace.map(|meta| {
            let now = rpt_obs::now_ns();
            rpt_obs::emit_span(
                meta.trace_id,
                meta.root,
                "serve.queue_wait",
                meta.enqueue_ns,
                now,
            );
            meta.stages
                .queue_wait
                .store(now.saturating_sub(meta.enqueue_ns), Ordering::Relaxed);
            PendingTrace {
                meta,
                admit_ns: now,
                first_step_ns: None,
            }
        });
        if job.generation == self.snap.generation {
            self.mb.admit_prefilled(id, job.spec, job.prefill);
        } else {
            // A reload landed between encode and admit: the prefill is
            // the old checkpoint's, so encode again under the serving one.
            SERVE_OBS.prefill_stale.inc();
            self.mb
                .admit(&self.snap.model, &mut self.params, id, job.spec);
        }
        self.pending.push(PendingJob {
            id,
            resp: job.resp,
            cancel: job.cancel,
            trace,
        });
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    fn step(&mut self) {
        SERVE_OBS.batch_steps.inc();
        SERVE_OBS
            .batch_occupancy
            .record(self.mb.slots_in_use() as f64);
        SERVE_OBS.tokens.add(self.mb.rows() as u64);
        // batch_wait ends for every traced job entering its first fused
        // step (admission → here is the wait for batch formation).
        if rpt_obs::trace_enabled() {
            let now = rpt_obs::now_ns();
            for p in self.pending.iter_mut() {
                if let Some(t) = &mut p.trace {
                    if t.first_step_ns.is_none() {
                        rpt_obs::emit_span(
                            t.meta.trace_id,
                            t.meta.root,
                            "serve.batch_wait",
                            t.admit_ns,
                            now,
                        );
                        t.meta
                            .stages
                            .batch_wait
                            .store(now.saturating_sub(t.admit_ns), Ordering::Relaxed);
                        t.first_step_ns = Some(now);
                    }
                }
            }
        }
        let finished = self.mb.step(&self.snap.model, &mut self.params);
        let generation = self.snap.generation;
        for (id, out) in finished {
            if let Some(at) = self.pending.iter().position(|p| p.id == id) {
                let job = self.pending.swap_remove(at);
                if let Some(t) = &job.trace {
                    let now = rpt_obs::now_ns();
                    let start = t.first_step_ns.unwrap_or(t.admit_ns);
                    rpt_obs::emit_span(t.meta.trace_id, t.meta.root, "serve.decode", start, now);
                    t.meta
                        .stages
                        .decode
                        .store(now.saturating_sub(start), Ordering::Relaxed);
                }
                // A handler that gave up (client vanished) just drops the
                // receiver; the send error is fine to ignore.
                let _ = job.resp.try_send((generation, out));
            }
        }
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    /// Marks a reload pending when the checkpoint's [`FileStamp`] moved.
    fn check_stat(&mut self) {
        let Some(path) = self.checkpoint.as_deref() else {
            return;
        };
        let now = stat(path);
        if now.is_some() && now != self.seen_stat {
            self.seen_stat = now;
            self.reload_pending = true;
        }
    }

    /// Attempts the pending reload (caller guarantees the batcher is
    /// idle, so no request ever spans two parameter sets). The file is
    /// read once: the parameters and any quant section come from the same
    /// bytes, so a rename landing mid-reload cannot mix two generations.
    fn reload(&mut self) {
        self.reload_pending = false;
        let Some(path) = self.checkpoint.as_deref() else {
            return;
        };
        let mut candidate = self.params.clone();
        let loaded = Checkpoint::read(path).and_then(|ckpt| {
            apply_params(&mut candidate, ckpt.params)?;
            Ok(ckpt.quant)
        });
        match loaded {
            Ok(stored_quant) => {
                self.params = candidate;
                let mut model = self.snap.model.clone();
                if self.quant {
                    model.set_quant(Some(Arc::new(self.quant_set_for(stored_quant))));
                }
                self.mb = MicroBatcher::new(&model, &mut self.params);
                let generation = self.snap.generation + 1;
                self.snap = Arc::new(Snapshot {
                    model,
                    params: self.params.clone(),
                    generation,
                });
                self.shared.publish(Arc::clone(&self.snap));
                SERVE_OBS.model_generation.set(generation as f64);
                SERVE_OBS.reloads.inc();
                rpt_obs::info!(target: "serve", "hot-reloaded checkpoint generation={generation}");
            }
            Err(e) => {
                SERVE_OBS.reload_errors.inc();
                rpt_obs::warn!(target: "serve", "checkpoint reload rejected: {e}");
            }
        }
    }

    /// The int8 weight set for a freshly reloaded checkpoint: its stored
    /// quant section when it carries one (an `rpt quantize` output),
    /// otherwise requantized from the loaded f32 parameters. Both paths
    /// are deterministic functions of the same weights, so either way the
    /// serving output is the quantized model of *this* checkpoint.
    fn quant_set_for(&self, stored: Option<Vec<(String, QuantMatrix)>>) -> rpt_nn::QuantSet {
        if let Some(entries) = stored {
            match rpt_nn::quant_set_from_named(&self.params, entries) {
                Ok(qs) => return qs,
                Err(e) => {
                    rpt_obs::warn!(target: "serve", "stored quant section rejected ({e}); requantizing");
                }
            }
        }
        rpt_nn::build_quant_set(&self.params)
    }
}

/// What identifies one version of the watched file: its mtime, its
/// length and (on Unix) its inode. Two checkpoints of one architecture
/// have the same length, and mtimes come from a coarse clock, so an atomic
/// replace within one clock tick is seen through the inode: the rename
/// installs the staging file's inode, which differs from the one it
/// replaces.
type FileStamp = (SystemTime, u64, u64);

fn stat(path: &std::path::Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    #[cfg(unix)]
    let ino = std::os::unix::fs::MetadataExt::ino(&meta);
    #[cfg(not(unix))]
    let ino = 0;
    Some((meta.modified().ok()?, meta.len(), ino))
}
