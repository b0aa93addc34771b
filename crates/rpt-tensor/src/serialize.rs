//! Checkpointing: save/load a [`ParamStore`] (and optionally the full
//! training state) as JSON, atomically.
//!
//! JSON is verbose but human-inspectable and needs no dependencies beyond
//! the in-tree `rpt-json`; the models in this reproduction are small (well
//! under a million scalars), so file size is not a concern. The params
//! format is unchanged from the original `serde_json` emitter —
//! `{"format_version":1,"params":[{"name":...,"shape":[...],"data":[...]}]}` —
//! so checkpoints written before the migration load identically. Floats
//! are written with shortest round-trip decimal encoding, which makes
//! `f32` tensors bit-identical after a save/load cycle.
//!
//! Two extensions support crash-safe resumable training (see DESIGN.md,
//! "Durable training state"):
//!
//! * **[`TrainState`]** (format_version 2) adds a `"train"` object with
//!   Adam's `m`/`v`/`t`, named RNG stream states, the completed-step
//!   counter, and the loss curve — while keeping `"params"` readable by
//!   v1 loaders, and v1 files readable here.
//! * **Atomic writes**: every save goes write-temp → fsync → rename →
//!   fsync-dir through the [`CheckpointIo`] trait, so a crash at any
//!   point leaves a complete old or complete new file, never a torn one.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

use rpt_json::{json, Json, JsonError};

use crate::optim::{AdamState, ParamStore};
use crate::tensor::Tensor;

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

/// The checkpoint format revision this build writes.
const FORMAT_VERSION: u32 = 1;

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
    /// Reads the whole file at `path`. Streaming-corpus shard reads go
    /// through this hook so the fault harness can serve torn or failing
    /// reads; the default is the plain filesystem.
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
pub fn atomic_write_with(
    io: &mut dyn CheckpointIo,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
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
    /// Malformed JSON.
    Parse(JsonError),
    /// Well-formed JSON that is not a checkpoint, or a checkpoint that
    /// does not match the store's parameters.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
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

fn structure(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Mismatch(msg.into())
}

fn shape_json(shape: &[usize]) -> Vec<Json> {
    shape.iter().map(|&d| Json::from(d)).collect()
}

fn floats_json(data: &[f32]) -> Vec<Json> {
    data.iter().map(|&x| Json::from(x)).collect()
}

fn param_records(store: &ParamStore) -> Vec<Json> {
    store
        .iter()
        .map(|(name, t)| {
            json!({
                "name": name,
                "shape": shape_json(t.shape()),
                "data": floats_json(t.data()),
            })
        })
        .collect()
}

/// Serializes every parameter of `store` to a JSON string.
pub fn to_json(store: &ParamStore) -> String {
    json!({
        "format_version": FORMAT_VERSION,
        "params": param_records(store),
    })
    .to_string()
}

fn parse_shape(record: &Json, name: &str, key: &str) -> Result<Vec<usize>, CheckpointError> {
    record
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| structure(format!("param {name} without {key}")))?
        .iter()
        .map(|d| d.as_u64().map(|d| d as usize))
        .collect::<Option<_>>()
        .ok_or_else(|| structure(format!("param {name} has non-integer {key}")))
}

fn parse_floats(record: &Json, name: &str, key: &str) -> Result<Vec<f32>, CheckpointError> {
    record
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| structure(format!("param {name} without {key}")))?
        .iter()
        .map(|x| x.as_f64().map(|x| x as f32))
        .collect::<Option<_>>()
        .ok_or_else(|| structure(format!("param {name} has non-numeric {key}")))
}

fn load_params_doc(store: &mut ParamStore, doc: &Json) -> Result<(), CheckpointError> {
    doc.get("format_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| structure("missing format_version"))?;
    let params = doc
        .get("params")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("missing params array"))?;
    for record in params {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("param record without name"))?;
        let shape = parse_shape(record, name, "shape")?;
        let data = parse_floats(record, name, "data")?;

        let Some(id) = store.find(name) else {
            // Extra params in the file are tolerated (forward compat).
            continue;
        };
        if store.value(id).shape() != shape.as_slice() {
            return Err(structure(format!(
                "parameter {} has shape {:?} in store but {:?} in checkpoint",
                name,
                store.value(id).shape(),
                shape
            )));
        }
        let t = Tensor::from_vec(data, &shape)
            .map_err(|e| structure(format!("{name}: {e}")))?;
        store.set_value(id, t);
    }
    Ok(())
}

/// Loads parameter values from JSON into an existing store, matching by
/// name. Every parameter in the store must be present with the same shape.
/// Accepts both params-only (v1) and full train-state (v2) checkpoints.
pub fn load_json(store: &mut ParamStore, json: &str) -> Result<(), CheckpointError> {
    let doc = Json::parse(json)?;
    load_params_doc(store, &doc)
}

/// Parses a checkpoint into a *fresh* store holding every parameter the
/// file records, no model required — the offline path for tools (like
/// `rpt quantize`) that transform checkpoints without rebuilding the
/// architecture that produced them.
pub fn load_params_any(json: &str) -> Result<ParamStore, CheckpointError> {
    let doc = Json::parse(json)?;
    doc.get("format_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| structure("missing format_version"))?;
    let params = doc
        .get("params")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("missing params array"))?;
    let mut store = ParamStore::new();
    for record in params {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("param record without name"))?;
        if store.find(name).is_some() {
            return Err(structure(format!("duplicate parameter {name}")));
        }
        let shape = parse_shape(record, name, "shape")?;
        let data = parse_floats(record, name, "data")?;
        let t = Tensor::from_vec(data, &shape)
            .map_err(|e| structure(format!("{name}: {e}")))?;
        store.register(name, t);
    }
    Ok(store)
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
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    atomic_write_with(io, path.as_ref(), to_json(store).as_bytes())?;
    Ok(())
}

/// Loads a file into the store.
pub fn load_file(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.load", &OBS.load_ms);
    let json = fs::read_to_string(path)?;
    OBS.loads.inc();
    OBS.bytes_read.add(json.len() as u64);
    load_json(store, &json)
}

// ---------------------------------------------------------------------------
// Full training-state checkpoints (format_version 2)
// ---------------------------------------------------------------------------

/// The checkpoint format revision full train-state checkpoints use.
const TRAIN_FORMAT_VERSION: u32 = 2;

/// Everything beyond parameter values a training run needs to resume
/// bit-identically: Adam's moments and step counter, the RNG streams that
/// drive batching/dropout, the completed-step count, and the loss curve.
///
/// Versioning rules: a v2 file is `{"format_version":2, "params":[...],
/// "train":{...}}`. The `params` array is byte-compatible with v1, so
/// params-only loaders ([`load_json`]) read v2 files unchanged, and v1
/// files load here as a default `TrainState` (no moments — they
/// reinitialize cleanly — no RNG streams, zero completed steps).
#[derive(Debug, Clone, Default)]
pub struct TrainState {
    /// Optimizer state; `None` for params-only (v1) checkpoints.
    pub adam: Option<AdamState>,
    /// Named xoshiro256++ states (e.g. `"model"`, `"batch"`), serialized
    /// as hex words so full-range `u64`s survive JSON exactly.
    pub rng_streams: Vec<(String, [u64; 4])>,
    /// Optimizer steps completed when the snapshot was taken.
    pub steps_done: u64,
    /// Loss recorded at each completed step.
    pub losses: Vec<f32>,
    /// Streaming-corpus position; `None` for in-memory runs. Written as a
    /// `"corpus"` key inside `"train"`, which pre-streaming readers ignore
    /// under the unknown-keys rule — so v2 files stay loadable everywhere.
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
    /// Base seed of the window's indexed shard-seed sequence, serialized
    /// as a hex word so the full `u64` survives JSON exactly.
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

/// Serializes parameters plus full training state (format_version 2).
pub fn train_state_to_json(store: &ParamStore, state: &TrainState) -> String {
    let adam = match &state.adam {
        None => Json::Null,
        Some(a) => json!({
            "t": a.t,
            "moments": a
                .moments
                .iter()
                .map(|(name, m, v)| {
                    json!({
                        "name": name.as_str(),
                        "shape": shape_json(m.shape()),
                        "m": floats_json(m.data()),
                        "v": floats_json(v.data()),
                    })
                })
                .collect::<Vec<_>>(),
        }),
    };
    let rng: Vec<Json> = state
        .rng_streams
        .iter()
        .map(|(name, s)| {
            json!({
                "name": name.as_str(),
                "state": s
                    .iter()
                    .map(|w| Json::from(format!("{w:#x}")))
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    let corpus = match &state.corpus {
        None => Json::Null,
        Some(c) => corpus_pos_json(c),
    };
    json!({
        "format_version": TRAIN_FORMAT_VERSION,
        "params": param_records(store),
        "train": {
            "adam": adam,
            "rng": rng,
            "steps_done": state.steps_done,
            "losses": floats_json(&state.losses),
            "corpus": corpus,
        },
    })
    .to_string()
}

fn corpus_pos_json(c: &CorpusPos) -> Json {
    let accum = match &c.accum {
        None => Json::Null,
        Some(a) => json!({
            "micro_done": a.micro_done,
            "window_seed": format!("{:#x}", a.window_seed),
            "pending": a
                .pending
                .iter()
                .map(|p| {
                    json!({
                        "loss": p.loss,
                        "weight": p.weight,
                        "grads": p
                            .grads
                            .iter()
                            .map(|(name, g)| {
                                json!({
                                    "name": name.as_str(),
                                    "shape": shape_json(g.shape()),
                                    "data": floats_json(g.data()),
                                })
                            })
                            .collect::<Vec<_>>(),
                    })
                })
                .collect::<Vec<_>>(),
        }),
    };
    json!({
        "epoch": c.epoch,
        "shard": c.shard,
        "offset": c.offset,
        "accum": accum,
    })
}

fn parse_corpus_pos(store: &ParamStore, doc: &Json) -> Result<CorpusPos, CheckpointError> {
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| structure(format!("corpus position without {key}")))
    };
    let accum = match doc.get("accum") {
        None | Some(Json::Null) => None,
        Some(a) => {
            let micro_done = a
                .get("micro_done")
                .and_then(Json::as_u64)
                .ok_or_else(|| structure("accum state without micro_done"))?;
            let hex = a
                .get("window_seed")
                .and_then(Json::as_str)
                .and_then(|s| s.strip_prefix("0x"))
                .ok_or_else(|| structure("accum state without hex window_seed"))?;
            let window_seed = u64::from_str_radix(hex, 16)
                .map_err(|_| structure("accum state has a malformed window_seed"))?;
            let mut pending = Vec::new();
            for record in a
                .get("pending")
                .and_then(Json::as_array)
                .ok_or_else(|| structure("accum state without pending array"))?
            {
                let loss = record
                    .get("loss")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| structure("pending gradient without loss"))?
                    as f32;
                let weight = record
                    .get("weight")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| structure("pending gradient without weight"))?
                    as f32;
                let mut grads = Vec::new();
                for g in record
                    .get("grads")
                    .and_then(Json::as_array)
                    .ok_or_else(|| structure("pending gradient without grads array"))?
                {
                    let name = g
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| structure("pending gradient record without name"))?;
                    let shape = parse_shape(g, name, "shape")?;
                    let data = parse_floats(g, name, "data")?;
                    let t = Tensor::from_vec(data, &shape)
                        .map_err(|e| structure(format!("pending gradient for {name}: {e}")))?;
                    if let Some(id) = store.find(name) {
                        if store.value(id).shape() != shape.as_slice() {
                            return Err(structure(format!(
                                "pending gradient for {} has shape {:?} but the parameter is {:?}",
                                name,
                                shape,
                                store.value(id).shape()
                            )));
                        }
                    }
                    grads.push((name.to_string(), t));
                }
                pending.push(PendingGrad { loss, weight, grads });
            }
            Some(AccumState {
                micro_done,
                window_seed,
                pending,
            })
        }
    };
    Ok(CorpusPos {
        epoch: field("epoch")?,
        shard: field("shard")?,
        offset: field("offset")?,
        accum,
    })
}

fn parse_adam(store: &ParamStore, doc: &Json) -> Result<AdamState, CheckpointError> {
    let t = doc
        .get("t")
        .and_then(Json::as_u64)
        .ok_or_else(|| structure("adam state without step counter t"))?;
    let mut moments = Vec::new();
    for record in doc
        .get("moments")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("adam state without moments array"))?
    {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("adam moment record without name"))?;
        let shape = parse_shape(record, name, "shape")?;
        let m = parse_floats(record, name, "m")?;
        let v = parse_floats(record, name, "v")?;
        let m = Tensor::from_vec(m, &shape)
            .map_err(|e| structure(format!("adam m for {name}: {e}")))?;
        let v = Tensor::from_vec(v, &shape)
            .map_err(|e| structure(format!("adam v for {name}: {e}")))?;
        if let Some(id) = store.find(name) {
            if store.value(id).shape() != shape.as_slice() {
                return Err(structure(format!(
                    "adam moments for {} have shape {:?} but the parameter is {:?}",
                    name,
                    shape,
                    store.value(id).shape()
                )));
            }
        }
        moments.push((name.to_string(), m, v));
    }
    Ok(AdamState { t, moments })
}

fn parse_rng_streams(doc: &Json) -> Result<Vec<(String, [u64; 4])>, CheckpointError> {
    let mut streams = Vec::new();
    for record in doc
        .as_array()
        .ok_or_else(|| structure("train.rng is not an array"))?
    {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("rng stream without name"))?;
        let words = record
            .get("state")
            .and_then(Json::as_array)
            .ok_or_else(|| structure(format!("rng stream {name} without state")))?;
        if words.len() != 4 {
            return Err(structure(format!(
                "rng stream {name} has {} state words, expected 4",
                words.len()
            )));
        }
        let mut state = [0u64; 4];
        for (slot, w) in state.iter_mut().zip(words) {
            let hex = w
                .as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .ok_or_else(|| structure(format!("rng stream {name} has a non-hex word")))?;
            *slot = u64::from_str_radix(hex, 16)
                .map_err(|_| structure(format!("rng stream {name} has a malformed word")))?;
        }
        if state.iter().all(|&w| w == 0) {
            return Err(structure(format!(
                "rng stream {name} has an all-zero (invalid xoshiro) state"
            )));
        }
        streams.push((name.to_string(), state));
    }
    Ok(streams)
}

/// Loads parameters into `store` and returns the training state. v1
/// (params-only) checkpoints yield `TrainState::default()` — Adam moments
/// are cleanly reinitialized by the resuming trainer.
pub fn load_train_json(
    store: &mut ParamStore,
    json: &str,
) -> Result<TrainState, CheckpointError> {
    let doc = Json::parse(json)?;
    load_params_doc(store, &doc)?;
    let Some(train) = doc.get("train") else {
        return Ok(TrainState::default());
    };
    let adam = match train.get("adam") {
        None | Some(Json::Null) => None,
        Some(a) => Some(parse_adam(store, a)?),
    };
    let rng_streams = match train.get("rng") {
        None => Vec::new(),
        Some(r) => parse_rng_streams(r)?,
    };
    let steps_done = train
        .get("steps_done")
        .and_then(Json::as_u64)
        .ok_or_else(|| structure("train state without steps_done"))?;
    let losses: Vec<f32> = train
        .get("losses")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("train state without losses"))?
        .iter()
        .map(|x| x.as_f64().map(|x| x as f32))
        .collect::<Option<_>>()
        .ok_or_else(|| structure("train state has non-numeric losses"))?;
    if losses.len() as u64 != steps_done {
        return Err(structure(format!(
            "train state records {} losses for {} completed steps",
            losses.len(),
            steps_done
        )));
    }
    if let Some(a) = &adam {
        if a.t != steps_done {
            return Err(structure(format!(
                "adam step counter {} disagrees with steps_done {}",
                a.t, steps_done
            )));
        }
    }
    let corpus = match train.get("corpus") {
        None | Some(Json::Null) => None,
        Some(c) => Some(parse_corpus_pos(store, c)?),
    };
    Ok(TrainState {
        adam,
        rng_streams,
        steps_done,
        losses,
        corpus,
    })
}

/// Atomically writes a full train-state checkpoint.
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
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    atomic_write_with(io, path.as_ref(), train_state_to_json(store, state).as_bytes())?;
    Ok(())
}

/// Loads a full train-state checkpoint file.
pub fn load_train_file(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<TrainState, CheckpointError> {
    let _t = rpt_obs::span("ckpt.load", &OBS.load_ms);
    let json = fs::read_to_string(path)?;
    OBS.loads.inc();
    OBS.bytes_read.add(json.len() as u64);
    load_train_json(store, &json)
}

// ---------------------------------------------------------------------------
// Quantized checkpoints (the `quant-v1` section)
// ---------------------------------------------------------------------------

/// Identifier of the quantized-tensor section layout this build writes.
pub const QUANT_FORMAT: &str = "quant-v1";

/// Serializes the f32 parameters plus a `"quant"` section holding int8
/// tensors and their per-row scales:
///
/// ```text
/// {"format_version":1,
///  "params":[...],                      // unchanged v1 array
///  "quant":{"format":"quant-v1",
///           "tensors":[{"name":...,"n_out":...,"k":...,
///                       "scales":[...],"data":[...]}]}}
/// ```
///
/// `data` is the `[n_out, k]` row-major i8 weights as JSON integers. The
/// `params` array is byte-compatible with v1, and [`load_params_doc`]
/// ignores unknown top-level keys — so quantized checkpoints load
/// anywhere a plain checkpoint does, with the quant section simply unused.
pub fn quant_to_json<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
) -> String {
    let records: Vec<Json> = tensors
        .into_iter()
        .map(|(name, qm)| {
            json!({
                "name": name,
                "n_out": qm.n_out(),
                "k": qm.k(),
                "scales": floats_json(qm.scales()),
                "data": qm.weights().iter().map(|&w| Json::from(w)).collect::<Vec<_>>(),
            })
        })
        .collect();
    json!({
        "format_version": FORMAT_VERSION,
        "params": param_records(store),
        "quant": {
            "format": QUANT_FORMAT,
            "tensors": records,
        },
    })
    .to_string()
}

/// Parses the `"quant"` section of a checkpoint, returning the named int8
/// tensors — or `None` when the checkpoint has no such section (a plain
/// f32 checkpoint).
pub fn load_quant_json(
    json: &str,
) -> Result<Option<Vec<(String, crate::quant::QuantMatrix)>>, CheckpointError> {
    let doc = Json::parse(json)?;
    let Some(quant) = doc.get("quant") else {
        return Ok(None);
    };
    let format = quant
        .get("format")
        .and_then(Json::as_str)
        .ok_or_else(|| structure("quant section without format"))?;
    if format != QUANT_FORMAT {
        return Err(structure(format!(
            "unsupported quant format {format:?} (this build reads {QUANT_FORMAT:?})"
        )));
    }
    let mut out = Vec::new();
    for record in quant
        .get("tensors")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("quant section without tensors array"))?
    {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("quant tensor without name"))?;
        let n_out = record
            .get("n_out")
            .and_then(Json::as_u64)
            .ok_or_else(|| structure(format!("quant tensor {name} without n_out")))?
            as usize;
        let k = record
            .get("k")
            .and_then(Json::as_u64)
            .ok_or_else(|| structure(format!("quant tensor {name} without k")))?
            as usize;
        let scales = parse_floats(record, name, "scales")?;
        let data: Vec<i8> = record
            .get("data")
            .and_then(Json::as_array)
            .ok_or_else(|| structure(format!("quant tensor {name} without data")))?
            .iter()
            .map(|x| {
                x.as_i64()
                    .filter(|v| (-128..=127).contains(v))
                    .map(|v| v as i8)
            })
            .collect::<Option<_>>()
            .ok_or_else(|| structure(format!("quant tensor {name} has non-i8 data")))?;
        if data.len() != n_out * k || scales.len() != n_out {
            return Err(structure(format!(
                "quant tensor {name} sizes disagree: {}x{} with {} weights, {} scales",
                n_out,
                k,
                data.len(),
                scales.len()
            )));
        }
        out.push((
            name.to_string(),
            crate::quant::QuantMatrix::from_parts(n_out, k, data, scales),
        ));
    }
    Ok(Some(out))
}

/// Atomically writes a quantized checkpoint (params + quant section).
pub fn save_quant_file<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_quant_file_with(&mut StdCheckpointIo, store, tensors, path)
}

/// [`save_quant_file`] over an injectable IO layer.
pub fn save_quant_file_with<'a>(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    atomic_write_with(io, path.as_ref(), quant_to_json(store, tensors).as_bytes())?;
    Ok(())
}

/// Reads the `"quant"` section of a checkpoint file (`None` for plain f32
/// checkpoints). Parameters load separately through [`load_file`].
pub fn load_quant_file(
    path: impl AsRef<Path>,
) -> Result<Option<Vec<(String, crate::quant::QuantMatrix)>>, CheckpointError> {
    let json = fs::read_to_string(path)?;
    load_quant_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        let a = store.register("layer.w", Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap());
        let b = store.register("layer.b", Tensor::scalar(0.25));
        let json = to_json(&store);

        let mut store2 = ParamStore::new();
        let a2 = store2.register("layer.w", Tensor::zeros(&[2]));
        let b2 = store2.register("layer.b", Tensor::zeros(&[1]));
        load_json(&mut store2, &json).unwrap();
        assert_eq!(store2.value(a2).data(), store.value(a).data());
        assert_eq!(store2.value(b2).data(), store.value(b).data());
    }

    #[test]
    fn roundtrip_is_bit_exact_on_awkward_floats() {
        // values whose decimal forms are non-terminating or subnormal
        let vals = vec![
            0.1f32,
            1.0 / 3.0,
            f32::MIN_POSITIVE / 8.0, // subnormal
            -3.402_823_5e38,
            1.000_000_1,
            5.877_472e-39,
        ];
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vals.clone(), &[6]).unwrap());
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        let id2 = store2.register("w", Tensor::zeros(&[6]));
        load_json(&mut store2, &json).unwrap();
        let _ = id;
        for (a, b) in vals.iter().zip(store2.value(id2).data()) {
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
        load_json(&mut store, old).unwrap();
        assert_eq!(store.value(w).data(), &[1.5, -2.5]);
        assert_eq!(store.value(b).data(), &[0.25]);
    }

    #[test]
    fn load_params_any_rebuilds_the_store_model_free() {
        let mut store = ParamStore::new();
        store.register("enc.ff1.w", Tensor::from_vec(vec![0.1, -0.2, 0.3, 1.0 / 3.0], &[2, 2]).unwrap());
        store.register("enc.ff1.b", Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let json = to_json(&store);

        let loaded = load_params_any(&json).unwrap();
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
            load_params_any(r#"{"params":[]}"#),
            Err(CheckpointError::Mismatch(_))
        ));
        let dup = r#"{"format_version":1,"params":[{"name":"w","shape":[1],"data":[1.0]},{"name":"w","shape":[1],"data":[2.0]}]}"#;
        assert!(matches!(
            load_params_any(dup),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[2]));
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        store2.register("w", Tensor::zeros(&[3]));
        assert!(matches!(
            load_json(&mut store2, &json),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn unknown_params_in_file_are_ignored() {
        let mut store = ParamStore::new();
        store.register("old", Tensor::scalar(1.0));
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        let n = store2.register("new", Tensor::scalar(7.0));
        load_json(&mut store2, &json).unwrap();
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
        use crate::quant::QuantMatrix;
        let mut store = ParamStore::new();
        let w = store.register(
            "lin.w",
            Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25, -0.75, 1.0], &[2, 3]).unwrap(),
        );
        let qm = QuantMatrix::quantize_transposed(store.value(w).data(), 2, 3);
        let json = quant_to_json(&store, [("lin.w", &qm)]);

        // params still load through the plain path (quant key ignored)
        let mut store2 = ParamStore::new();
        let w2 = store2.register("lin.w", Tensor::zeros(&[2, 3]));
        load_json(&mut store2, &json).unwrap();
        assert_eq!(store2.value(w2).data(), store.value(w).data());

        let tensors = load_quant_json(&json).unwrap().expect("quant section");
        assert_eq!(tensors.len(), 1);
        let (name, back) = &tensors[0];
        assert_eq!(name, "lin.w");
        assert_eq!(back.weights(), qm.weights());
        assert_eq!(
            back.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            qm.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn plain_checkpoints_have_no_quant_section() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(1.0));
        assert!(load_quant_json(&to_json(&store)).unwrap().is_none());
    }

    #[test]
    fn unsupported_quant_format_is_rejected() {
        let json = r#"{"format_version":1,"params":[],"quant":{"format":"quant-v9","tensors":[]}}"#;
        assert!(matches!(
            load_quant_json(json),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn quant_save_is_atomic_under_faults() {
        use crate::quant::QuantMatrix;
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
    fn garbage_json_is_a_parse_error() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(0.0));
        assert!(matches!(
            load_json(&mut store, "not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            load_json(&mut store, "{\"format_version\": 1}"),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
