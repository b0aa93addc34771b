//! Checkpointing: save and load a [`ParamStore`] — optionally with the
//! full training state and int8 weights — as one binary container,
//! written atomically.
//!
//! The container uses the framing streaming-corpus shards use ([`frame`]:
//! magic, `u32` version, FNV-1a64 trailer) around a list of sections:
//!
//! ```text
//! magic "RPTCKPT1" · u32 version (1)
//! section*: u32 tag · u64 byte length · payload
//!   tag 1 params: u32 n · n × tensor
//!   tag 2 train:  u64 steps_done · u32 n · f32 losses[n]
//!                 · u8 has_adam [u64 t · u32 n · n × (name · shape · f32 m[] · f32 v[])]
//!                 · u32 n · n × (name · u64 state[4])
//!                 · u8 has_corpus [u64 epoch · u64 shard · u64 offset
//!                   · u8 has_accum [u64 micro_done · u64 window_seed
//!                     · u32 n · n × (f32 loss · f32 weight · u32 m · m × tensor)]]
//!   tag 3 quant:  u32 n · n × (name · u32 n_out · u32 k · f32 scales[n_out] · i8 data[n_out·k])
//! u64 FNV-1a64 of everything above
//!
//! tensor = name · shape · f32 data[product of shape]
//! name   = u32 byte length · UTF-8 bytes
//! shape  = u32 rank · u64 dims[rank]
//! ```
//!
//! Integers and floats are little-endian and floats are stored as their
//! raw bits, so every round trip is bit-exact by construction and a load
//! is one read, one checksum pass and a copy. The reader checks every
//! length against the bytes that remain before allocating, so a truncated,
//! bit-flipped or hostile file is a typed [`CheckpointError`], never a
//! panic or an oversized allocation.
//!
//! One reader, [`Checkpoint::decode`], returns every section of a file at
//! once; [`load_file`], [`load_train_file`] and [`load_quant_file`] are
//! views of it. JSON checkpoints written by earlier builds (format
//! versions 1 and 2 and `quant-v1`, see `legacy`) are recognised by their
//! leading `{` and imported into the same [`Checkpoint`] value, so they
//! still load everywhere; nothing writes JSON any more.
//!
//! Every save goes write-temp → fsync → rename → fsync-dir through the
//! [`CheckpointIo`] trait, so a crash at any point leaves a complete old
//! or complete new file, never a torn one (DESIGN.md, "Durable training
//! state").

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

use rpt_json::JsonError;

use crate::optim::{AdamState, ParamStore};
use crate::quant::{QuantMatrix, QMATMUL_MAX_K};
use crate::tensor::{Tensor, MAX_DIMS};

pub mod frame;
mod legacy;

use frame::{ByteReader, FrameError};
pub use legacy::MAX_LEGACY_BYTES;

/// Checkpoint-IO metrics (DESIGN.md §Observability): every stage of the
/// atomic-write protocol is timed separately so a slow fsync is
/// distinguishable from a slow serialize, and injected faults are counted.
struct CkptObs {
    saves: rpt_obs::Counter,
    loads: rpt_obs::Counter,
    save_errors: rpt_obs::Counter,
    faults_injected: rpt_obs::Counter,
    bytes_written: rpt_obs::Counter,
    bytes_read: rpt_obs::Counter,
    size_bytes: rpt_obs::Gauge,
    save_ms: rpt_obs::Histogram,
    load_ms: rpt_obs::Histogram,
    write_ms: rpt_obs::Histogram,
    fsync_ms: rpt_obs::Histogram,
    rename_ms: rpt_obs::Histogram,
}

static OBS: LazyLock<CkptObs> = LazyLock::new(|| CkptObs {
    saves: rpt_obs::counter("ckpt.saves"),
    loads: rpt_obs::counter("ckpt.loads"),
    save_errors: rpt_obs::counter("ckpt.save_errors"),
    faults_injected: rpt_obs::counter("ckpt.faults_injected"),
    bytes_written: rpt_obs::counter("ckpt.bytes_written"),
    bytes_read: rpt_obs::counter("ckpt.bytes_read"),
    size_bytes: rpt_obs::gauge("ckpt.size_bytes"),
    save_ms: rpt_obs::histogram("ckpt.save_ms"),
    load_ms: rpt_obs::histogram("ckpt.load_ms"),
    write_ms: rpt_obs::histogram("ckpt.write_ms"),
    fsync_ms: rpt_obs::histogram("ckpt.fsync_ms"),
    rename_ms: rpt_obs::histogram("ckpt.rename_ms"),
});

// ---------------------------------------------------------------------------
// Atomic checkpoint I/O
// ---------------------------------------------------------------------------

/// The filesystem primitives a durable checkpoint write decomposes into.
///
/// Production code uses [`StdCheckpointIo`]; crash-safety tests inject
/// faults through [`FaultyIo`] to prove that whatever step fails, the
/// previously committed checkpoint at the destination path survives
/// intact (the write-to-temp → fsync → rename → fsync-dir protocol never
/// touches the destination except via the atomic rename).
pub trait CheckpointIo {
    /// Creates (truncating) `path` and writes `bytes` to it.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the file's contents to stable storage.
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from` (same filesystem).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry (the rename itself) to stable storage.
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Reads the whole file at `path`. Streaming-corpus shard reads and
    /// training resumes ([`Checkpoint::read_with`]) go through this hook so
    /// the fault harness can serve torn or failing reads; the default is
    /// the plain filesystem.
    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct StdCheckpointIo;

impl CheckpointIo for StdCheckpointIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.flush()
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

/// One injectable failure in the atomic-write sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Persist only the first `n` bytes of the payload, then fail — a
    /// torn write (crash mid-`write`).
    ShortWrite(usize),
    /// Fail the fsync of the freshly written temp file.
    SyncFile,
    /// Fail the rename into place (crash just before commit).
    Rename,
    /// Fail the directory fsync *after* a successful rename (crash just
    /// after commit: the new checkpoint is already in place).
    SyncDir,
    /// Serve only the first `n` bytes of the file on the next read — a
    /// torn read (the file on disk is fine; the reader saw a prefix).
    ReadTruncate(usize),
    /// Fail the next read outright (media error / vanished file).
    ReadFail,
}

/// A [`CheckpointIo`] that performs real filesystem operations but
/// injects one configured [`Fault`] — the fault-injection harness used
/// by the crash-safety test suite.
#[derive(Debug)]
pub struct FaultyIo {
    inner: StdCheckpointIo,
    fault: Option<Fault>,
}

impl FaultyIo {
    /// An IO layer that will fail once at the configured step.
    pub fn new(fault: Fault) -> Self {
        Self {
            inner: StdCheckpointIo,
            fault: Some(fault),
        }
    }

    /// True once the configured fault has fired.
    pub fn tripped(&self) -> bool {
        self.fault.is_none()
    }

    fn injected(&mut self) -> io::Error {
        OBS.faults_injected.inc();
        rpt_obs::warn!(target: "rpt_tensor::ckpt", "checkpoint fault injected: {:?}", self.fault);
        self.fault = None;
        io::Error::other("injected checkpoint fault")
    }
}

impl CheckpointIo for FaultyIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(Fault::ShortWrite(n)) = self.fault {
            let n = n.min(bytes.len());
            self.inner.write_file(path, &bytes[..n])?;
            return Err(self.injected());
        }
        self.inner.write_file(path, bytes)
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::SyncFile) {
            return Err(self.injected());
        }
        self.inner.sync_file(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::Rename) {
            return Err(self.injected());
        }
        self.inner.rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::SyncDir) {
            return Err(self.injected());
        }
        self.inner.sync_dir(dir)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        match self.fault {
            Some(Fault::ReadTruncate(n)) => {
                self.injected();
                let bytes = self.inner.read_file(path)?;
                let n = n.min(bytes.len());
                Ok(bytes[..n].to_vec())
            }
            Some(Fault::ReadFail) => Err(self.injected()),
            _ => self.inner.read_file(path),
        }
    }
}

/// The sibling temp path an atomic write stages into (`<path>.tmp`).
pub fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Durably replaces the file at `path` with `bytes`: write to a sibling
/// temp file, fsync it, rename it into place, fsync the directory. A
/// crash (or injected fault) at any point leaves either the old complete
/// file or the new complete file at `path` — never a torn mixture.
pub fn atomic_write_with(io: &mut dyn CheckpointIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        {
            let _t = OBS.write_ms.time();
            io.write_file(&tmp, bytes)?;
        }
        {
            let _t = OBS.fsync_ms.time();
            io.sync_file(&tmp)?;
        }
        {
            let _t = OBS.rename_ms.time();
            io.rename(&tmp, path)?;
        }
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        io.sync_dir(dir)
    })();
    match &result {
        Ok(()) => {
            OBS.saves.inc();
            OBS.bytes_written.add(bytes.len() as u64);
            OBS.size_bytes.set(bytes.len() as f64);
        }
        Err(e) => {
            OBS.save_errors.inc();
            rpt_obs::warn!(target: "rpt_tensor::ckpt", "checkpoint write to {} failed: {e}", path.display());
            // best-effort cleanup; after a successful rename this is a no-op
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// [`atomic_write_with`] on the real filesystem.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(&mut StdCheckpointIo, path, bytes)
}

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed legacy JSON.
    Parse(JsonError),
    /// The container's trailer disagrees with its bytes: a bit flip, or a
    /// torn write or read.
    Checksum { stored: u64, computed: u64 },
    /// Bytes that are not a checkpoint: wrong magic or version, a
    /// truncated section, a length past the end, an unknown or repeated
    /// section.
    Format(String),
    /// A legacy JSON file above [`MAX_LEGACY_BYTES`].
    TooLarge { len: u64, limit: u64 },
    /// A well-formed checkpoint whose contents are inconsistent, or that
    /// does not match the store's parameters.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::Checksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::TooLarge { len, limit } => write!(
                f,
                "JSON checkpoint of {len} bytes exceeds the {limit}-byte import ceiling"
            ),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Parse(e)
    }
}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Checksum { stored, computed } => {
                CheckpointError::Checksum { stored, computed }
            }
            other => CheckpointError::Format(other.to_string()),
        }
    }
}

fn structure(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Mismatch(msg.into())
}

fn format_err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Format(msg.into())
}

// ---------------------------------------------------------------------------
// Training state
// ---------------------------------------------------------------------------

/// Everything beyond parameter values a training run needs to resume
/// bit-identically: Adam's moments and step counter, the RNG streams that
/// drive batching/dropout, the completed-step count, the loss curve and,
/// for streaming runs, the corpus position.
#[derive(Debug, Clone, Default)]
pub struct TrainState {
    /// Optimizer state; `None` when the run had not created one.
    pub adam: Option<AdamState>,
    /// Named xoshiro256++ states (e.g. `"model"`, `"batch"`).
    pub rng_streams: Vec<(String, [u64; 4])>,
    /// Optimizer steps completed when the snapshot was taken.
    pub steps_done: u64,
    /// Loss recorded at each completed step.
    pub losses: Vec<f32>,
    /// Streaming-corpus position; `None` for in-memory runs.
    pub corpus: Option<CorpusPos>,
}

/// Mid-corpus position of a streaming pretraining run: which shard of
/// which epoch the trainer was consuming, how many examples of that shard
/// are already folded in, and — when the snapshot lands inside a
/// gradient-accumulation window — the partial window itself, so resume
/// replays nothing.
#[derive(Debug, Clone, Default)]
pub struct CorpusPos {
    /// Completed passes over the corpus before the current one.
    pub epoch: u64,
    /// Index of the shard being consumed (manifest order).
    pub shard: u64,
    /// Examples of that shard already consumed.
    pub offset: u64,
    /// Partial accumulation window, if the snapshot was taken mid-window.
    pub accum: Option<AccumState>,
}

/// A partially filled gradient-accumulation window: the micro-steps done
/// so far, the seed the window's dropout shards were keyed from, and the
/// unapplied per-shard gradients awaiting the window's single Adam step.
#[derive(Debug, Clone, Default)]
pub struct AccumState {
    /// Micro-steps already folded into this window.
    pub micro_done: u64,
    /// Base seed of the window's indexed shard-seed sequence.
    pub window_seed: u64,
    /// One entry per data-parallel shard already folded, in global shard
    /// order (micro-steps contribute their shards in sequence).
    pub pending: Vec<PendingGrad>,
}

/// One shard's contribution awaiting the window's optimizer step.
#[derive(Debug, Clone)]
pub struct PendingGrad {
    /// Mean loss of the shard.
    pub loss: f32,
    /// Example weight of the shard (numerator of its share of the
    /// window's weighted gradient mean).
    pub weight: f32,
    /// Named raw (unscaled) gradients, same layout as parameter records.
    pub grads: Vec<(String, Tensor)>,
}

impl TrainState {
    /// Internal consistency, checked on every decode: one loss per
    /// completed step, Adam's counter at the step count, and no all-zero
    /// (invalid xoshiro) RNG state.
    fn validate(&self) -> Result<(), CheckpointError> {
        if self.losses.len() as u64 != self.steps_done {
            return Err(structure(format!(
                "train state records {} losses for {} completed steps",
                self.losses.len(),
                self.steps_done
            )));
        }
        if let Some(a) = &self.adam {
            if a.t != self.steps_done {
                return Err(structure(format!(
                    "adam step counter {} disagrees with steps_done {}",
                    a.t, self.steps_done
                )));
            }
        }
        if let Some((name, _)) = self.rng_streams.iter().find(|(_, s)| s == &[0; 4]) {
            return Err(structure(format!(
                "rng stream {name} has an all-zero (invalid xoshiro) state"
            )));
        }
        Ok(())
    }

    /// Adam moments and pending gradients must be shaped like the
    /// parameters they belong to (names the store lacks are tolerated).
    fn check_shapes(&self, store: &ParamStore) -> Result<(), CheckpointError> {
        let moments = self.adam.iter().flat_map(|a| &a.moments);
        let pending = self.corpus.iter().flat_map(|c| &c.accum);
        let grads = pending.flat_map(|a| &a.pending).flat_map(|p| &p.grads);
        let named = moments
            .map(|(n, m, _)| ("adam moments", n, m))
            .chain(grads.map(|(n, g)| ("pending gradient", n, g)));
        for (what, name, t) in named {
            if let Some(id) = store.find(name) {
                if store.value(id).shape() != t.shape() {
                    return Err(structure(format!(
                        "{what} for {name} have shape {:?} but the parameter is {:?}",
                        t.shape(),
                        store.value(id).shape()
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The container
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"RPTCKPT1";
/// The container revision this build reads and writes.
const VERSION: u32 = 1;

const PARAMS: u32 = 1;
const TRAIN: u32 = 2;
const QUANT: u32 = 3;

/// Everything one checkpoint file holds, decoded from a single read.
#[derive(Debug, Default)]
pub struct Checkpoint {
    /// Named parameter tensors, in file order (names are unique).
    pub params: Vec<(String, Tensor)>,
    /// The training state; `None` for params-only files.
    pub train: Option<TrainState>,
    /// Named int8 tensors; `None` when the file has no quant section.
    pub quant: Option<Vec<(String, QuantMatrix)>>,
}

impl Checkpoint {
    /// Decodes a checkpoint: the binary container, or a legacy JSON file
    /// (recognised by its leading `{`).
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let first = bytes.iter().find(|b| !b.is_ascii_whitespace());
        let ckpt = if first == Some(&b'{') {
            legacy::import(bytes)?
        } else {
            decode_container(bytes)?
        };
        let mut names = HashSet::with_capacity(ckpt.params.len());
        if let Some((name, _)) = ckpt.params.iter().find(|(n, _)| !names.insert(n.as_str())) {
            return Err(structure(format!("duplicate parameter {name}")));
        }
        if let Some(train) = &ckpt.train {
            train.validate()?;
        }
        Ok(ckpt)
    }

    /// Reads and decodes the file at `path` in one read.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::read_with(&mut StdCheckpointIo, path)
    }

    /// [`Checkpoint::read`] through an injectable IO layer's
    /// [`CheckpointIo::read_file`], so the fault harness can tear or fail
    /// the read.
    pub fn read_with(
        io: &mut dyn CheckpointIo,
        path: impl AsRef<Path>,
    ) -> Result<Self, CheckpointError> {
        let _t = rpt_obs::span("ckpt.load", &OBS.load_ms);
        let bytes = io.read_file(path.as_ref())?;
        OBS.loads.inc();
        OBS.bytes_read.add(bytes.len() as u64);
        Self::decode(&bytes)
    }

    /// Loads the parameters into `store` and returns the training state
    /// (`TrainState::default()` for a params-only file: Adam moments are
    /// cleanly reinitialized by the resuming trainer). The state is checked
    /// against the store before any parameter is written.
    pub fn load_train(self, store: &mut ParamStore) -> Result<TrainState, CheckpointError> {
        let state = self.train.unwrap_or_default();
        state.check_shapes(store)?;
        apply_params(store, self.params)?;
        Ok(state)
    }

    /// Moves the parameters into a fresh store holding every tensor the
    /// file records — the model-free path for tools (like `rpt quantize`)
    /// that transform checkpoints without rebuilding the architecture.
    pub fn into_store(self) -> ParamStore {
        let mut store = ParamStore::new();
        for (name, t) in self.params {
            store.register(name, t);
        }
        store
    }
}

/// Loads `params` into an existing store, matching by name. Every
/// parameter that is in both must have the same shape; extra parameters in
/// the file are ignored (forward compatibility). Nothing is written to the
/// store unless every shape matches.
pub fn apply_params(
    store: &mut ParamStore,
    params: Vec<(String, Tensor)>,
) -> Result<(), CheckpointError> {
    let mut found = Vec::with_capacity(params.len());
    for (name, t) in params {
        let Some(id) = store.find(&name) else {
            continue;
        };
        if store.value(id).shape() != t.shape() {
            return Err(structure(format!(
                "parameter {} has shape {:?} in store but {:?} in checkpoint",
                name,
                store.value(id).shape(),
                t.shape()
            )));
        }
        found.push((id, t));
    }
    for (id, t) in found {
        store.set_value(id, t);
    }
    Ok(())
}

/// Product of a shape's dimensions, `None` on overflow.
fn checked_numel(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Builds a quantized tensor from decoded parts, checking what
/// [`QuantMatrix::from_parts`] would otherwise panic on.
fn validate_quant(
    name: &str,
    n_out: u64,
    k: u64,
    data: Vec<i8>,
    scales: Vec<f32>,
) -> Result<QuantMatrix, CheckpointError> {
    if k > QMATMUL_MAX_K as u64 {
        return Err(structure(format!(
            "quant tensor {name} has inner dimension {k} above {QMATMUL_MAX_K}"
        )));
    }
    if n_out.checked_mul(k) != Some(data.len() as u64) || scales.len() as u64 != n_out {
        return Err(structure(format!(
            "quant tensor {name} sizes disagree: {n_out}x{k} with {} weights, {} scales",
            data.len(),
            scales.len()
        )));
    }
    Ok(QuantMatrix::from_parts(
        n_out as usize,
        k as usize,
        data,
        scales,
    ))
}

/// Serializes a checkpoint: `store`'s parameters, plus the training state
/// and the int8 tensors when given (`Some(&[])` writes an empty quant
/// section). Equal inputs give equal bytes.
pub fn encode(
    store: &ParamStore,
    train: Option<&TrainState>,
    quant: Option<&[(&str, &QuantMatrix)]>,
) -> Vec<u8> {
    let mut out = frame::begin_frame(MAGIC, VERSION, 4 * store.num_scalars() + 64 * store.len());
    section(&mut out, PARAMS, |out| {
        put_u32(out, store.len() as u32);
        for (name, t) in store.iter() {
            put_tensor(out, name, t);
        }
    });
    if let Some(state) = train {
        section(&mut out, TRAIN, |out| put_train(out, state));
    }
    if let Some(tensors) = quant {
        section(&mut out, QUANT, |out| {
            put_u32(out, tensors.len() as u32);
            for (name, qm) in tensors {
                put_str(out, name);
                put_u32(out, qm.n_out() as u32);
                put_u32(out, qm.k() as u32);
                put_f32s(out, qm.scales());
                out.extend(qm.weights().iter().map(|&w| w as u8));
            }
        });
    }
    frame::end_frame(out)
}

fn section(out: &mut Vec<u8>, tag: u32, body: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let at = out.len();
    put_u64(out, 0);
    body(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    out.reserve(4 * xs.len());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_shape(out: &mut Vec<u8>, shape: &[usize]) {
    put_u32(out, shape.len() as u32);
    for &d in shape {
        put_u64(out, d as u64);
    }
}

fn put_tensor(out: &mut Vec<u8>, name: &str, t: &Tensor) {
    put_str(out, name);
    put_shape(out, t.shape());
    put_f32s(out, t.data());
}

fn put_flag(out: &mut Vec<u8>, present: bool) {
    out.push(present as u8);
}

fn put_train(out: &mut Vec<u8>, state: &TrainState) {
    put_u64(out, state.steps_done);
    put_u32(out, state.losses.len() as u32);
    put_f32s(out, &state.losses);
    put_flag(out, state.adam.is_some());
    if let Some(a) = &state.adam {
        put_u64(out, a.t);
        put_u32(out, a.moments.len() as u32);
        for (name, m, v) in &a.moments {
            debug_assert_eq!(m.shape(), v.shape(), "adam moments of {name}");
            put_str(out, name);
            put_shape(out, m.shape());
            put_f32s(out, m.data());
            put_f32s(out, v.data());
        }
    }
    put_u32(out, state.rng_streams.len() as u32);
    for (name, words) in &state.rng_streams {
        put_str(out, name);
        for &w in words {
            put_u64(out, w);
        }
    }
    put_flag(out, state.corpus.is_some());
    if let Some(c) = &state.corpus {
        put_u64(out, c.epoch);
        put_u64(out, c.shard);
        put_u64(out, c.offset);
        put_flag(out, c.accum.is_some());
        if let Some(a) = &c.accum {
            put_u64(out, a.micro_done);
            put_u64(out, a.window_seed);
            put_u32(out, a.pending.len() as u32);
            for p in &a.pending {
                out.extend_from_slice(&p.loss.to_le_bytes());
                out.extend_from_slice(&p.weight.to_le_bytes());
                put_u32(out, p.grads.len() as u32);
                for (name, g) in &p.grads {
                    put_tensor(out, name, g);
                }
            }
        }
    }
}

fn decode_container(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut r = frame::unframe(bytes, MAGIC, VERSION)?;
    let mut params = None;
    let mut ckpt = Checkpoint::default();
    while r.remaining() > 0 {
        let tag = r.u32()?;
        let len = r.u64()?;
        let mut body = ByteReader::new(r.take(len)?);
        let repeated = match tag {
            PARAMS => params.replace(get_list(&mut body, get_tensor)?).is_some(),
            TRAIN => ckpt.train.replace(get_train(&mut body)?).is_some(),
            QUANT => ckpt
                .quant
                .replace(get_list(&mut body, get_quant)?)
                .is_some(),
            _ => return Err(format_err(format!("unknown section tag {tag}"))),
        };
        if repeated {
            return Err(format_err(format!("section {tag} appears twice")));
        }
        body.finish()?;
    }
    ckpt.params = params.ok_or_else(|| format_err("no params section"))?;
    Ok(ckpt)
}

/// A `u32`-counted list of records, each at least 4 bytes long.
fn get_list<T>(
    r: &mut ByteReader,
    item: impl Fn(&mut ByteReader) -> Result<T, CheckpointError>,
) -> Result<Vec<T>, CheckpointError> {
    let n = r.count(4)?;
    let mut out = r.vec_for(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

fn get_str(r: &mut ByteReader) -> Result<String, CheckpointError> {
    let n = r.u32()?;
    let bytes = r.take(n as u64)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| format_err("name is not UTF-8"))
}

fn get_f32s(r: &mut ByteReader, n: usize) -> Result<Vec<f32>, CheckpointError> {
    let bytes = r.take(4 * n as u64)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect())
}

/// A shape and its element count.
fn get_shape(r: &mut ByteReader) -> Result<(Vec<usize>, usize), CheckpointError> {
    let rank = r.count(8)?;
    check_rank(rank)?;
    let mut shape = r.vec_for(rank);
    for _ in 0..rank {
        let d = r.u64()?;
        shape.push(usize::try_from(d).map_err(|_| format_err("dimension overflows usize"))?);
    }
    // Checked against 4-byte elements, so the data read below is bounded
    // by the file before it is allocated.
    let numel = checked_numel(&shape)
        .filter(|&n| n as u64 <= r.remaining() as u64 / 4)
        .ok_or_else(|| format_err(format!("a rank-{rank} shape exceeds the section")))?;
    Ok((shape, numel))
}

fn get_tensor(r: &mut ByteReader) -> Result<(String, Tensor), CheckpointError> {
    let name = get_str(r)?;
    let (shape, numel) = get_shape(r)?;
    let data = get_f32s(r, numel)?;
    Ok((name, shaped(data, &shape)?))
}

/// A [`CheckpointError::Format`] for a shape of more dims than a
/// [`Tensor`] holds.
fn check_rank(rank: usize) -> Result<(), CheckpointError> {
    if rank > MAX_DIMS {
        return Err(format_err(format!(
            "a rank-{rank} shape exceeds the {MAX_DIMS}-d tensor limit"
        )));
    }
    Ok(())
}

/// `data` as a tensor of `shape`, both read from the file.
fn shaped(data: Vec<f32>, shape: &[usize]) -> Result<Tensor, CheckpointError> {
    Tensor::from_vec(data, shape).map_err(|e| format_err(e.to_string()))
}

fn get_flag(r: &mut ByteReader) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(format_err(format!("presence flag {b} is neither 0 nor 1"))),
    }
}

fn get_train(r: &mut ByteReader) -> Result<TrainState, CheckpointError> {
    let steps_done = r.u64()?;
    let n = r.count(4)?;
    let losses = get_f32s(r, n)?;
    let adam = if get_flag(r)? {
        let t = r.u64()?;
        let moments = get_list(r, |r| {
            let name = get_str(r)?;
            let (shape, numel) = get_shape(r)?;
            let m = get_f32s(r, numel)?;
            let v = get_f32s(r, numel)?;
            Ok((name, shaped(m, &shape)?, shaped(v, &shape)?))
        })?;
        Some(AdamState { t, moments })
    } else {
        None
    };
    let rng_streams = get_list(r, |r| {
        let name = get_str(r)?;
        let mut state = [0u64; 4];
        for w in &mut state {
            *w = r.u64()?;
        }
        Ok((name, state))
    })?;
    let corpus = if get_flag(r)? {
        let (epoch, shard, offset) = (r.u64()?, r.u64()?, r.u64()?);
        let accum = if get_flag(r)? {
            let micro_done = r.u64()?;
            let window_seed = r.u64()?;
            let pending = get_list(r, |r| {
                Ok(PendingGrad {
                    loss: r.f32()?,
                    weight: r.f32()?,
                    grads: get_list(r, get_tensor)?,
                })
            })?;
            Some(AccumState {
                micro_done,
                window_seed,
                pending,
            })
        } else {
            None
        };
        Some(CorpusPos {
            epoch,
            shard,
            offset,
            accum,
        })
    } else {
        None
    };
    Ok(TrainState {
        adam,
        rng_streams,
        steps_done,
        losses,
        corpus,
    })
}

fn get_quant(r: &mut ByteReader) -> Result<(String, QuantMatrix), CheckpointError> {
    let name = get_str(r)?;
    let (n_out, k) = (r.u32()? as u64, r.u32()? as u64);
    let scales = get_f32s(r, n_out as usize)?;
    let data = r.take(n_out * k)?.iter().map(|&b| b as i8).collect();
    let qm = validate_quant(&name, n_out, k, data, scales)?;
    Ok((name, qm))
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

fn save_with(
    io: &mut dyn CheckpointIo,
    path: &Path,
    bytes: impl FnOnce() -> Vec<u8>,
) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    atomic_write_with(io, path, &bytes())?;
    Ok(())
}

/// Writes the store to a file, atomically: a crash mid-save leaves any
/// previous checkpoint at `path` intact.
pub fn save_file(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save_file_with(&mut StdCheckpointIo, store, path)
}

/// [`save_file`] over an injectable IO layer (for crash-safety tests).
pub fn save_file_with(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_with(io, path.as_ref(), || encode(store, None, None))
}

/// Loads a checkpoint's parameters into the store (see [`apply_params`]).
pub fn load_file(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    apply_params(store, Checkpoint::read(path)?.params)
}

/// Atomically writes parameters plus the full training state.
pub fn save_train_file(
    store: &ParamStore,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_train_file_with(&mut StdCheckpointIo, store, state, path)
}

/// [`save_train_file`] over an injectable IO layer (for crash-safety tests).
pub fn save_train_file_with(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_with(io, path.as_ref(), || encode(store, Some(state), None))
}

/// Loads a checkpoint file's parameters into `store` and returns its
/// training state (see [`Checkpoint::load_train`]).
pub fn load_train_file(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<TrainState, CheckpointError> {
    Checkpoint::read(path)?.load_train(store)
}

/// Atomically writes a quantized checkpoint: the f32 parameters plus a
/// quant section holding each int8 tensor and its per-row scales.
pub fn save_quant_file<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_quant_file_with(&mut StdCheckpointIo, store, tensors, path)
}

/// [`save_quant_file`] over an injectable IO layer.
pub fn save_quant_file_with<'a>(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let tensors: Vec<_> = tensors.into_iter().collect();
    save_with(io, path.as_ref(), || encode(store, None, Some(&tensors)))
}

/// Reads a checkpoint's quant section (`None` for plain f32 checkpoints).
/// A caller that also needs the parameters reads the file once with
/// [`Checkpoint::read`] instead.
pub fn load_quant_file(
    path: impl AsRef<Path>,
) -> Result<Option<Vec<(String, QuantMatrix)>>, CheckpointError> {
    Ok(Checkpoint::read(path)?.quant)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_of(bytes: &[u8]) -> Vec<(String, Tensor)> {
        Checkpoint::decode(bytes).unwrap().params
    }

    #[test]
    fn roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        let a = store.register("layer.w", Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap());
        let b = store.register("layer.b", Tensor::scalar(0.25));
        let bytes = encode(&store, None, None);

        let mut store2 = ParamStore::new();
        let a2 = store2.register("layer.w", Tensor::zeros(&[2]));
        let b2 = store2.register("layer.b", Tensor::zeros(&[1]));
        apply_params(&mut store2, params_of(&bytes)).unwrap();
        assert_eq!(store2.value(a2).data(), store.value(a).data());
        assert_eq!(store2.value(b2).data(), store.value(b).data());
    }

    #[test]
    fn roundtrip_is_bit_exact_on_awkward_floats() {
        // subnormals, extremes, negative zero and NaN payloads: raw bits
        // survive where no decimal form would
        let vals = vec![
            0.1f32,
            1.0 / 3.0,
            f32::MIN_POSITIVE / 8.0,
            -3.402_823_5e38,
            1.000_000_1,
            -0.0,
            f32::from_bits(0x7fc0_1234),
            f32::NEG_INFINITY,
        ];
        let mut store = ParamStore::new();
        store.register("w", Tensor::from_vec(vals.clone(), &[8]).unwrap());
        let back = params_of(&encode(&store, None, None));
        for (a, b) in vals.iter().zip(back[0].1.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} reloaded as {b}");
        }
    }

    #[test]
    fn pre_migration_serde_checkpoint_still_loads() {
        // byte-for-byte what serde_json::to_string emitted before the
        // rpt-json migration (same field order, ryu float shortening)
        let old = r#"{"format_version":1,"params":[{"name":"layer.w","shape":[2],"data":[1.5,-2.5]},{"name":"layer.b","shape":[1],"data":[0.25]}]}"#;
        let mut store = ParamStore::new();
        let w = store.register("layer.w", Tensor::zeros(&[2]));
        let b = store.register("layer.b", Tensor::zeros(&[1]));
        apply_params(&mut store, params_of(old.as_bytes())).unwrap();
        assert_eq!(store.value(w).data(), &[1.5, -2.5]);
        assert_eq!(store.value(b).data(), &[0.25]);
    }

    #[test]
    fn into_store_rebuilds_the_store_model_free() {
        let mut store = ParamStore::new();
        store.register(
            "enc.ff1.w",
            Tensor::from_vec(vec![0.1, -0.2, 0.3, 1.0 / 3.0], &[2, 2]).unwrap(),
        );
        store.register(
            "enc.ff1.b",
            Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
        );
        let loaded = Checkpoint::decode(&encode(&store, None, None))
            .unwrap()
            .into_store();
        let names: Vec<&str> = loaded.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["enc.ff1.w", "enc.ff1.b"]);
        for (name, t) in store.iter() {
            let got = loaded.value(loaded.find(name).unwrap());
            assert_eq!(got.shape(), t.shape());
            for (a, b) in t.data().iter().zip(got.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} reloaded as {b}");
            }
        }

        assert!(matches!(
            Checkpoint::decode(br#"{"params":[]}"#),
            Err(CheckpointError::Mismatch(_))
        ));
        let dup = r#"{"format_version":1,"params":[{"name":"w","shape":[1],"data":[1.0]},{"name":"w","shape":[1],"data":[2.0]}]}"#;
        assert!(matches!(
            Checkpoint::decode(dup.as_bytes()),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_an_error_and_writes_nothing() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::scalar(1.0));
        store.register("w", Tensor::zeros(&[2]));
        let bytes = encode(&store, None, None);
        let mut store2 = ParamStore::new();
        let a = store2.register("a", Tensor::scalar(7.0));
        store2.register("w", Tensor::zeros(&[3]));
        assert!(matches!(
            apply_params(&mut store2, params_of(&bytes)),
            Err(CheckpointError::Mismatch(_))
        ));
        assert_eq!(store2.value(a).data(), &[7.0]);
    }

    #[test]
    fn unknown_params_in_file_are_ignored() {
        let mut store = ParamStore::new();
        store.register("old", Tensor::scalar(1.0));
        let bytes = encode(&store, None, None);
        let mut store2 = ParamStore::new();
        let n = store2.register("new", Tensor::scalar(7.0));
        apply_params(&mut store2, params_of(&bytes)).unwrap();
        assert_eq!(store2.value(n).data(), &[7.0]);
    }

    #[test]
    fn crash_mid_write_leaves_old_checkpoint_loadable() {
        // Regression: save_file used to be a bare fs::write, so a crash
        // mid-write tore the existing checkpoint. Simulate the crash with
        // a short-write fault and prove the old file still loads.
        let dir = std::env::temp_dir().join("rpt-serialize-torn-write");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        save_file(&store, &path).unwrap();

        // new values that should never reach disk
        store.set_value(w, Tensor::from_vec(vec![9.0, 9.0], &[2]).unwrap());
        let mut io = FaultyIo::new(Fault::ShortWrite(10));
        let err = save_file_with(&mut io, &store, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert!(io.tripped());
        assert!(
            !staging_path(&path).exists(),
            "failed save left a staging file behind"
        );

        let mut reloaded = ParamStore::new();
        let w2 = reloaded.register("w", Tensor::zeros(&[2]));
        load_file(&mut reloaded, &path).expect("old checkpoint must survive");
        assert_eq!(reloaded.value(w2).data(), &[1.0, 2.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn successful_atomic_save_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("rpt-serialize-atomic-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        save_file(&store, &path).unwrap();
        store.set_value(w, Tensor::scalar(2.0));
        save_file(&store, &path).unwrap();
        assert!(!staging_path(&path).exists());
        let mut reloaded = ParamStore::new();
        let w2 = reloaded.register("w", Tensor::zeros(&[1]));
        load_file(&mut reloaded, &path).unwrap();
        assert_eq!(reloaded.value(w2).data(), &[2.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_checkpoint_roundtrips_bit_exactly() {
        let mut store = ParamStore::new();
        let w = store.register(
            "lin.w",
            Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25, -0.75, 1.0], &[2, 3]).unwrap(),
        );
        let qm = QuantMatrix::quantize_transposed(store.value(w).data(), 2, 3);
        let ckpt = Checkpoint::decode(&encode(&store, None, Some(&[("lin.w", &qm)]))).unwrap();
        assert_eq!(ckpt.params[0].1.data(), store.value(w).data());

        let tensors = ckpt.quant.expect("quant section");
        assert_eq!(tensors.len(), 1);
        let (name, back) = &tensors[0];
        assert_eq!(name, "lin.w");
        assert_eq!(back.weights(), qm.weights());
        assert_eq!(
            back.scales()
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            qm.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn plain_checkpoints_have_no_quant_section() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(1.0));
        let ckpt = Checkpoint::decode(&encode(&store, None, None)).unwrap();
        assert!(ckpt.quant.is_none() && ckpt.train.is_none());
        let empty = Checkpoint::decode(&encode(&store, None, Some(&[]))).unwrap();
        assert_eq!(empty.quant.map(|q| q.len()), Some(0));
    }

    #[test]
    fn unsupported_quant_format_is_rejected() {
        let json = r#"{"format_version":1,"params":[],"quant":{"format":"quant-v9","tensors":[]}}"#;
        assert!(matches!(
            Checkpoint::decode(json.as_bytes()),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn oversized_quant_inner_dimension_is_typed_not_a_panic() {
        let k = QMATMUL_MAX_K + 1;
        let json = format!(
            r#"{{"format_version":1,"params":[],"quant":{{"format":"quant-v1","tensors":[{{"name":"w","n_out":0,"k":{k},"scales":[],"data":[]}}]}}}}"#
        );
        assert!(matches!(
            Checkpoint::decode(json.as_bytes()),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn quant_save_is_atomic_under_faults() {
        let dir = std::env::temp_dir().join("rpt-serialize-quant-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q8.json");
        let mut store = ParamStore::new();
        store.register("lin.w", Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap());
        let qm = QuantMatrix::quantize_transposed(&[1.0, -1.0], 1, 2);
        save_quant_file(&store, [("lin.w", &qm)], &path).unwrap();

        let mut io = FaultyIo::new(Fault::ShortWrite(5));
        let err = save_quant_file_with(&mut io, &store, [("lin.w", &qm)], &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        let survived = load_quant_file(&path).unwrap().expect("old file intact");
        assert_eq!(survived[0].1.weights(), qm.weights());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_a_typed_error() {
        assert!(matches!(
            Checkpoint::decode(b"{not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            Checkpoint::decode(b"{\"format_version\": 1}"),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            Checkpoint::decode(b"not a checkpoint at all"),
            Err(CheckpointError::Format(_))
        ));
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(0.0));
        let mut bytes = encode(&store, None, None);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn legacy_json_above_the_ceiling_is_refused_before_parsing() {
        assert!(legacy::check_len(MAX_LEGACY_BYTES).is_ok());
        assert!(matches!(
            legacy::check_len(MAX_LEGACY_BYTES + 1),
            Err(CheckpointError::TooLarge { .. })
        ));
    }
}
