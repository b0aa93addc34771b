//! Sharded on-disk pretraining corpora (DESIGN.md §"Streaming corpus").
//!
//! A corpus directory holds an rpt-json `manifest.json` (format version,
//! vocab hash, per-shard tuple counts), the vocabulary the shards were
//! tokenized with, and binary token shards:
//!
//! ```text
//! magic "RPTSHRD1" · u32 version · u32 tuple_count
//! per tuple: u32 n_ids · u32 n_spans · ids[u32] · cols[u32]
//!            · spans[(u32 col, u32 start, u32 end)]
//! trailer:   u64 FNV-1a checksum of everything above
//! ```
//!
//! All integers are little-endian. Every file is written through the
//! checkpoint layer's atomic write-fsync-rename path, with the manifest
//! written **last** — it is the commit point, so a crash mid-build leaves
//! either no corpus or a complete one. Reads go through
//! [`CheckpointIo::read_file`], so the fault-injection harness can serve
//! torn or failing reads; a truncated, bit-flipped, or mis-labelled shard
//! surfaces as a typed [`CorpusError`], never a silent skip.
//!
//! [`StreamCursor`] walks a corpus example-by-example (epoch-major,
//! shard-major), optionally double-buffered through
//! [`rpt_par::Prefetcher`] so the next shard's IO and decode overlap the
//! current shard's training. Masking randomness comes from a per-shard
//! xoshiro stream keyed to `(seed, epoch, shard)` — the stream a given
//! example sees depends only on its corpus position, never on transport
//! (disk vs memory, prefetch on vs off), which is what the streaming
//! equivalence suite proves.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use rpt_json::{json, Json};
use rpt_par::{PrefetchError, Prefetcher};
use rpt_rng::{SeedableRng, SmallRng};
use rpt_table::Table;
use rpt_tensor::serialize::{atomic_write_with, CheckpointError, CheckpointIo, StdCheckpointIo};
use rpt_tokenizer::{EncodedTuple, TupleEncoder, Vocab};

/// Manifest file name inside a corpus directory (the commit point).
pub const MANIFEST_FILE: &str = "manifest.json";
/// Vocabulary file name inside a corpus directory.
pub const VOCAB_FILE: &str = "vocab.json";
/// Shard-format revision this build reads and writes.
pub const CORPUS_FORMAT_VERSION: u32 = 1;

const SHARD_MAGIC: &[u8; 8] = b"RPTSHRD1";

/// Corpus metrics (DESIGN.md §Observability). Values flow out only.
struct CorpusObs {
    shards_loaded: rpt_obs::Counter,
    bytes_read: rpt_obs::Counter,
    load_ms: rpt_obs::Histogram,
    prefetch_wait_ms: rpt_obs::Histogram,
    overlap_ratio: rpt_obs::Gauge,
}

static OBS: std::sync::LazyLock<CorpusObs> = std::sync::LazyLock::new(|| CorpusObs {
    shards_loaded: rpt_obs::counter("corpus.shards_loaded"),
    bytes_read: rpt_obs::counter("corpus.bytes_read"),
    load_ms: rpt_obs::histogram("corpus.load_ms"),
    prefetch_wait_ms: rpt_obs::histogram("corpus.prefetch_wait_ms"),
    overlap_ratio: rpt_obs::gauge("corpus.overlap_ratio"),
});

/// Anything that can go wrong building or streaming a corpus.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure (including injected read faults).
    Io(io::Error),
    /// Structurally broken data: bad magic/version, truncation, checksum
    /// mismatch, out-of-bounds spans, malformed manifest.
    Format(String),
    /// The background prefetch thread died mid-stream.
    Prefetch(PrefetchError),
    /// A checkpoint operation inside streaming training failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Format(m) => write!(f, "corpus format error: {m}"),
            CorpusError::Prefetch(e) => write!(f, "corpus prefetch error: {e}"),
            CorpusError::Checkpoint(e) => write!(f, "corpus checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<PrefetchError> for CorpusError {
    fn from(e: PrefetchError) -> Self {
        CorpusError::Prefetch(e)
    }
}

impl From<CheckpointError> for CorpusError {
    fn from(e: CheckpointError) -> Self {
        CorpusError::Checkpoint(e)
    }
}

fn format_err(msg: impl Into<String>) -> CorpusError {
    CorpusError::Format(msg.into())
}

// ---------------------------------------------------------------------------
// Examples and the binary shard codec
// ---------------------------------------------------------------------------

/// One tokenized tuple as stored in a shard — the on-disk form of
/// [`EncodedTuple`], narrowed to `u32` (4 G tokens per tuple is plenty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedExample {
    /// Token ids.
    pub ids: Vec<u32>,
    /// Per-token column tag, parallel to `ids`.
    pub cols: Vec<u32>,
    /// `(column, start, end)` value spans, `end` exclusive into `ids`.
    pub spans: Vec<(u32, u32, u32)>,
}

impl EncodedExample {
    /// Narrows a tokenizer output for storage.
    pub fn from_encoded(e: &EncodedTuple) -> Self {
        Self {
            ids: e.ids.iter().map(|&x| x as u32).collect(),
            cols: e.cols.iter().map(|&x| x as u32).collect(),
            spans: e
                .value_spans
                .iter()
                .map(|(c, r)| (*c as u32, r.start as u32, r.end as u32))
                .collect(),
        }
    }

    /// Widens back to the tokenizer's working form.
    pub fn to_encoded(&self) -> EncodedTuple {
        EncodedTuple {
            ids: self.ids.iter().map(|&x| x as usize).collect(),
            cols: self.cols.iter().map(|&x| x as usize).collect(),
            value_spans: self
                .spans
                .iter()
                .map(|&(c, s, e)| (c as usize, s as usize..e as usize))
                .collect(),
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a vocabulary's canonical JSON — stamped into the manifest so a
/// corpus can never be silently trained with the wrong token table.
pub fn vocab_hash(vocab: &Vocab) -> u64 {
    fnv1a64(vocab.to_json().as_bytes())
}

/// Serializes one shard of examples to the binary format.
pub fn encode_shard(examples: &[EncodedExample]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&CORPUS_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(examples.len() as u32).to_le_bytes());
    for ex in examples {
        debug_assert_eq!(ex.ids.len(), ex.cols.len());
        out.extend_from_slice(&(ex.ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(ex.spans.len() as u32).to_le_bytes());
        for &id in &ex.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        for &col in &ex.cols {
            out.extend_from_slice(&col.to_le_bytes());
        }
        for &(c, s, e) in &ex.spans {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct ShardReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ShardReader<'a> {
    fn u32(&mut self) -> Result<u32, CorpusError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format_err("shard truncated mid-record"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(chunk.try_into().unwrap()))
    }
}

/// Decodes and fully validates a binary shard: magic, version, record
/// bounds, and the trailing whole-file checksum. Any torn write, torn
/// read, or bit flip is a typed [`CorpusError::Format`].
pub fn decode_shard(bytes: &[u8]) -> Result<Vec<EncodedExample>, CorpusError> {
    if bytes.len() < SHARD_MAGIC.len() + 4 + 4 + 8 {
        return Err(format_err("shard shorter than its fixed header"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(format_err(format!(
            "shard checksum mismatch: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    if &body[..SHARD_MAGIC.len()] != SHARD_MAGIC {
        return Err(format_err("shard magic mismatch"));
    }
    let mut r = ShardReader {
        bytes: body,
        pos: SHARD_MAGIC.len(),
    };
    let version = r.u32()?;
    if version != CORPUS_FORMAT_VERSION {
        return Err(format_err(format!(
            "shard format version {version}, this build reads {CORPUS_FORMAT_VERSION}"
        )));
    }
    let count = r.u32()? as usize;
    let mut examples = Vec::with_capacity(count);
    for _ in 0..count {
        let n_ids = r.u32()? as usize;
        let n_spans = r.u32()? as usize;
        let mut ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            ids.push(r.u32()?);
        }
        let mut cols = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            cols.push(r.u32()?);
        }
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            let (c, s, e) = (r.u32()?, r.u32()?, r.u32()?);
            if s > e || e as usize > n_ids {
                return Err(format_err(format!(
                    "shard span {s}..{e} out of bounds for {n_ids} tokens"
                )));
            }
            spans.push((c, s, e));
        }
        examples.push(EncodedExample { ids, cols, spans });
    }
    if r.pos != body.len() {
        return Err(format_err(format!(
            "shard has {} trailing bytes after the last record",
            body.len() - r.pos
        )));
    }
    Ok(examples)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// File name relative to the corpus directory.
    pub file: String,
    /// Tuples stored in that shard.
    pub tuples: u64,
}

/// The corpus directory's index: what shards exist, how many tuples each
/// holds, and which vocabulary they were tokenized with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Shard-format revision.
    pub format_version: u32,
    /// [`vocab_hash`] of the corpus vocabulary.
    pub vocab_hash: u64,
    /// Shards in stream order.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Total tuples across all shards.
    pub fn total_tuples(&self) -> u64 {
        self.shards.iter().map(|s| s.tuples).sum()
    }

    /// Serializes to the manifest JSON document.
    pub fn to_json(&self) -> String {
        json!({
            "format_version": self.format_version,
            "vocab_hash": format!("{:#x}", self.vocab_hash),
            "total_tuples": self.total_tuples(),
            "shards": self
                .shards
                .iter()
                .map(|s| json!({"file": s.file.as_str(), "tuples": s.tuples}))
                .collect::<Vec<_>>(),
        })
        .to_string()
    }

    /// Parses and validates a manifest document.
    pub fn from_json(text: &str) -> Result<Manifest, CorpusError> {
        let doc = Json::parse(text).map_err(|e| format_err(format!("manifest: {e}")))?;
        let format_version = doc
            .get("format_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format_err("manifest without format_version"))? as u32;
        if format_version != CORPUS_FORMAT_VERSION {
            return Err(format_err(format!(
                "manifest format version {format_version}, this build reads {CORPUS_FORMAT_VERSION}"
            )));
        }
        let hex = doc
            .get("vocab_hash")
            .and_then(Json::as_str)
            .and_then(|s| s.strip_prefix("0x"))
            .ok_or_else(|| format_err("manifest without hex vocab_hash"))?;
        let vocab_hash = u64::from_str_radix(hex, 16)
            .map_err(|_| format_err("manifest has a malformed vocab_hash"))?;
        let mut shards = Vec::new();
        for record in doc
            .get("shards")
            .and_then(Json::as_array)
            .ok_or_else(|| format_err("manifest without shards array"))?
        {
            let file = record
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| format_err("manifest shard without file"))?
                .to_string();
            let tuples = record
                .get("tuples")
                .and_then(Json::as_u64)
                .ok_or_else(|| format_err("manifest shard without tuple count"))?;
            shards.push(ShardEntry { file, tuples });
        }
        if shards.is_empty() {
            return Err(format_err("manifest lists no shards"));
        }
        let total = doc
            .get("total_tuples")
            .and_then(Json::as_u64)
            .ok_or_else(|| format_err("manifest without total_tuples"))?;
        let manifest = Manifest {
            format_version,
            vocab_hash,
            shards,
        };
        if manifest.total_tuples() != total {
            return Err(format_err(format!(
                "manifest total_tuples {} disagrees with per-shard sum {}",
                total,
                manifest.total_tuples()
            )));
        }
        Ok(manifest)
    }
}

// ---------------------------------------------------------------------------
// Building corpora
// ---------------------------------------------------------------------------

/// Tokenizes every row of every table, dropping rows that serialize to
/// nothing maskable (no value spans).
pub fn encode_tables(encoder: &TupleEncoder, tables: &[&Table]) -> Vec<EncodedExample> {
    let mut out = Vec::new();
    for table in tables {
        for tuple in table.tuples() {
            let encoded = encoder.encode_tuple(table.schema(), tuple);
            if !encoded.value_spans.is_empty() {
                out.push(EncodedExample::from_encoded(&encoded));
            }
        }
    }
    out
}

/// Splits examples into shards of at most `shard_size` tuples (the final
/// shard may be ragged). `shard_size = 0` means one shard holding all.
pub fn split_shards(examples: Vec<EncodedExample>, shard_size: usize) -> Vec<Vec<EncodedExample>> {
    if examples.is_empty() {
        return Vec::new();
    }
    let chunk = if shard_size == 0 {
        examples.len()
    } else {
        shard_size
    };
    let mut shards = Vec::new();
    let mut rest = examples;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        shards.push(rest);
        rest = tail;
    }
    shards.push(rest);
    shards
}

/// [`write_corpus_with`] on the real filesystem.
pub fn write_corpus(
    dir: &Path,
    shards: &[Vec<EncodedExample>],
    vocab: &Vocab,
) -> Result<Manifest, CorpusError> {
    write_corpus_with(&mut StdCheckpointIo, dir, shards, vocab)
}

/// Writes a complete corpus directory: every shard and the vocabulary via
/// the atomic write-fsync-rename path, then the manifest **last** as the
/// commit point. A crash at any earlier point leaves no manifest, so
/// [`DiskCorpus::open`] refuses the partial directory.
pub fn write_corpus_with(
    io: &mut dyn CheckpointIo,
    dir: &Path,
    shards: &[Vec<EncodedExample>],
    vocab: &Vocab,
) -> Result<Manifest, CorpusError> {
    if shards.is_empty() || shards.iter().any(Vec::is_empty) {
        return Err(format_err("refusing to write a corpus with empty shards"));
    }
    std::fs::create_dir_all(dir)?;
    let mut entries = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let file = format!("shard-{i:05}.bin");
        atomic_write_with(io, &dir.join(&file), &encode_shard(shard))?;
        entries.push(ShardEntry {
            file,
            tuples: shard.len() as u64,
        });
    }
    atomic_write_with(io, &dir.join(VOCAB_FILE), vocab.to_json().as_bytes())?;
    let manifest = Manifest {
        format_version: CORPUS_FORMAT_VERSION,
        vocab_hash: vocab_hash(vocab),
        shards: entries,
    };
    atomic_write_with(io, &dir.join(MANIFEST_FILE), manifest.to_json().as_bytes())?;
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Shard sources
// ---------------------------------------------------------------------------

/// A corpus the streaming trainer can pull whole shards from, in manifest
/// order. `Send` so a prefetch thread can own one.
pub trait ShardSource: Send {
    /// The corpus index.
    fn manifest(&self) -> &Manifest;
    /// Loads (and fully validates) shard `index`.
    fn load_shard(&mut self, index: usize) -> Result<Vec<EncodedExample>, CorpusError>;
}

/// A corpus directory on disk, read through an injectable IO layer.
pub struct DiskCorpus {
    dir: PathBuf,
    manifest: Manifest,
    io: Box<dyn CheckpointIo + Send>,
}

impl DiskCorpus {
    /// Opens a corpus directory on the plain filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        Self::open_with(Box::new(StdCheckpointIo), dir)
    }

    /// Opens a corpus directory through the given IO layer (the
    /// fault-injection harness passes a `FaultyIo`).
    pub fn open_with(
        mut io: Box<dyn CheckpointIo + Send>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self, CorpusError> {
        let dir = dir.into();
        let bytes = io.read_file(&dir.join(MANIFEST_FILE))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| format_err("manifest is not valid UTF-8"))?;
        let manifest = Manifest::from_json(&text)?;
        Ok(Self { dir, manifest, io })
    }

    /// Loads the corpus vocabulary, verifying it against the manifest's
    /// hash so a swapped or stale `vocab.json` cannot slip through.
    pub fn vocab(&mut self) -> Result<Vocab, CorpusError> {
        let bytes = self.io.read_file(&self.dir.join(VOCAB_FILE))?;
        let text =
            String::from_utf8(bytes).map_err(|_| format_err("vocab is not valid UTF-8"))?;
        let hash = fnv1a64(text.as_bytes());
        if hash != self.manifest.vocab_hash {
            return Err(format_err(format!(
                "vocab hash {:#x} does not match manifest {:#x}",
                hash, self.manifest.vocab_hash
            )));
        }
        Vocab::from_json(&text).map_err(|e| format_err(format!("vocab: {e}")))
    }
}

impl ShardSource for DiskCorpus {
    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn load_shard(&mut self, index: usize) -> Result<Vec<EncodedExample>, CorpusError> {
        let entry = self
            .manifest
            .shards
            .get(index)
            .ok_or_else(|| format_err(format!("shard index {index} out of range")))?;
        let bytes = self.io.read_file(&self.dir.join(&entry.file))?;
        OBS.bytes_read.add(bytes.len() as u64);
        let examples = decode_shard(&bytes)?;
        if examples.len() as u64 != entry.tuples {
            return Err(format_err(format!(
                "shard {} holds {} tuples but the manifest says {}",
                entry.file,
                examples.len(),
                entry.tuples
            )));
        }
        OBS.shards_loaded.inc();
        Ok(examples)
    }
}

/// The same logical corpus held fully in memory — the reference arm of the
/// streaming equivalence proof. Shard partitioning is preserved, so the
/// per-shard masking streams line up with the on-disk corpus exactly.
pub struct InMemoryCorpus {
    manifest: Manifest,
    shards: Vec<Vec<EncodedExample>>,
}

impl InMemoryCorpus {
    /// Wraps pre-partitioned shards.
    pub fn new(shards: Vec<Vec<EncodedExample>>, vocab: &Vocab) -> Self {
        let manifest = Manifest {
            format_version: CORPUS_FORMAT_VERSION,
            vocab_hash: vocab_hash(vocab),
            shards: shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardEntry {
                    file: format!("mem-{i:05}"),
                    tuples: s.len() as u64,
                })
                .collect(),
        };
        Self { manifest, shards }
    }
}

impl ShardSource for InMemoryCorpus {
    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn load_shard(&mut self, index: usize) -> Result<Vec<EncodedExample>, CorpusError> {
        self.shards
            .get(index)
            .cloned()
            .ok_or_else(|| format_err(format!("shard index {index} out of range")))
    }
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

/// Mixes `(seed, epoch, shard)` into one shard-stream seed (splitmix64
/// finalizer over a golden-ratio combination) — every shard of every epoch
/// gets its own masking stream, independent of how it was transported.
pub fn shard_stream_seed(seed: u64, epoch: u64, shard: u64) -> u64 {
    let mut z = seed
        .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type LoadedShard = (u64, u64, Vec<EncodedExample>, f64);

/// An endless epoch-major, shard-major stream of loaded shards, either
/// loaded synchronously on the calling thread or double-buffered through a
/// dedicated prefetch thread.
enum ShardFeed {
    Sync {
        source: Box<dyn ShardSource>,
        epoch: u64,
        shard: u64,
    },
    Prefetch(Prefetcher<Result<LoadedShard, CorpusError>>),
}

/// The stream half of a [`StreamCursor`].
pub struct ShardStream {
    feed: ShardFeed,
    // Cumulative load/wait milliseconds feeding `corpus.overlap_ratio`.
    load_ms: f64,
    wait_ms: f64,
}

/// Milliseconds since `started`; 0 when metrics were off at the start, so
/// a dark stream reads no clock.
fn elapsed_ms(started: Option<std::time::Instant>) -> f64 {
    started.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3)
}

fn load_next(
    source: &mut dyn ShardSource,
    epoch: &mut u64,
    shard: &mut u64,
) -> Result<LoadedShard, CorpusError> {
    let n = source.manifest().shards.len() as u64;
    let (e, s) = (*epoch, *shard);
    let _t = rpt_obs::trace_span("corpus.shard_load");
    let started = rpt_obs::metrics_enabled().then(std::time::Instant::now);
    let examples = source.load_shard(s as usize)?;
    let ms = elapsed_ms(started);
    OBS.load_ms.record(ms);
    if s + 1 == n {
        *epoch += 1;
        *shard = 0;
    } else {
        *shard += 1;
    }
    Ok((e, s, examples, ms))
}

impl ShardStream {
    /// Starts the stream at `(epoch, shard)`. With `prefetch`, shard
    /// loading and decoding runs on a background thread one shard ahead of
    /// consumption; item order and content are identical either way.
    pub fn start(
        source: Box<dyn ShardSource>,
        prefetch: bool,
        epoch: u64,
        shard: u64,
    ) -> Result<Self, CorpusError> {
        let n = source.manifest().shards.len() as u64;
        if shard >= n {
            return Err(format_err(format!(
                "stream start shard {shard} out of range for {n} shards"
            )));
        }
        let feed = if prefetch {
            let mut source = source;
            let (mut e, mut s) = (epoch, shard);
            ShardFeed::Prefetch(Prefetcher::spawn(1, move || {
                Some(load_next(source.as_mut(), &mut e, &mut s))
            }))
        } else {
            ShardFeed::Sync {
                source,
                epoch,
                shard,
            }
        };
        Ok(Self {
            feed,
            load_ms: 0.0,
            wait_ms: 0.0,
        })
    }

    /// The next `(epoch, shard index, examples)` in stream order.
    pub fn next_shard(&mut self) -> Result<(u64, u64, Vec<EncodedExample>), CorpusError> {
        let (e, s, examples, load_ms) = match &mut self.feed {
            ShardFeed::Sync {
                source,
                epoch,
                shard,
            } => load_next(source.as_mut(), epoch, shard)?,
            ShardFeed::Prefetch(p) => {
                let _t = rpt_obs::trace_span("corpus.prefetch_wait");
                let started = rpt_obs::metrics_enabled().then(std::time::Instant::now);
                let item = p
                    .recv()?
                    .ok_or_else(|| format_err("prefetch stream ended unexpectedly"))?;
                let waited = elapsed_ms(started);
                OBS.prefetch_wait_ms.record(waited);
                self.wait_ms += waited;
                item?
            }
        };
        self.load_ms += load_ms;
        if self.load_ms > 0.0 {
            // Fraction of shard-load time hidden behind training: 1 when
            // every shard was ready the moment it was asked for, 0 when
            // the trainer waited out every load (the synchronous feed).
            let ratio = match &self.feed {
                ShardFeed::Sync { .. } => 0.0,
                ShardFeed::Prefetch(_) => (1.0 - self.wait_ms / self.load_ms).clamp(0.0, 1.0),
            };
            OBS.overlap_ratio.set(ratio);
        }
        Ok((e, s, examples))
    }
}

/// Walks a corpus example-by-example with a per-shard masking RNG.
///
/// The RNG is reseeded from [`shard_stream_seed`]`(seed, epoch, shard)` at
/// every shard entry and its exact state is checkpointable
/// ([`StreamCursor::rng_state`]), so a mid-shard resume continues the
/// masking stream without replaying a single example.
pub struct StreamCursor {
    stream: ShardStream,
    examples: VecDeque<EncodedExample>,
    epoch: u64,
    shard: u64,
    offset: u64,
    seed: u64,
    rng: SmallRng,
}

impl StreamCursor {
    /// Starts (or resumes) a cursor at `(epoch, shard, offset)`. On resume
    /// pass the checkpointed masking-RNG state; a fresh start seeds from
    /// the shard key.
    pub fn start(
        source: Box<dyn ShardSource>,
        prefetch: bool,
        seed: u64,
        epoch: u64,
        shard: u64,
        offset: u64,
        rng_state: Option<[u64; 4]>,
    ) -> Result<Self, CorpusError> {
        let mut stream = ShardStream::start(source, prefetch, epoch, shard)?;
        let (e, s, examples) = stream.next_shard()?;
        if offset > examples.len() as u64 {
            return Err(format_err(format!(
                "resume offset {offset} beyond shard {s} length {}",
                examples.len()
            )));
        }
        let rng = match rng_state {
            Some(state) => SmallRng::restore(state),
            None => SmallRng::seed_from_u64(shard_stream_seed(seed, e, s)),
        };
        let mut examples: VecDeque<EncodedExample> = examples.into();
        examples.drain(..offset as usize);
        Ok(Self {
            stream,
            examples,
            epoch: e,
            shard: s,
            offset,
            seed,
            rng,
        })
    }

    /// The checkpointable position: `(epoch, shard, offset)` of the next
    /// example to be consumed.
    pub fn pos(&self) -> (u64, u64, u64) {
        (self.epoch, self.shard, self.offset)
    }

    /// The masking RNG's exact state, for checkpoints.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The masking RNG, positioned for the example [`StreamCursor::next_example`]
    /// just returned.
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The next example in corpus order, crossing shard (and epoch)
    /// boundaries as needed — at each new shard the masking RNG reseeds
    /// from the shard key.
    pub fn next_example(&mut self) -> Result<EncodedTuple, CorpusError> {
        while self.examples.is_empty() {
            let (e, s, examples) = self.stream.next_shard()?;
            if examples.is_empty() {
                return Err(format_err(format!("shard {s} of epoch {e} is empty")));
            }
            self.epoch = e;
            self.shard = s;
            self.offset = 0;
            self.examples = examples.into();
            self.rng = SmallRng::seed_from_u64(shard_stream_seed(self.seed, e, s));
        }
        let ex = self.examples.pop_front().expect("non-empty");
        self.offset += 1;
        Ok(ex.to_encoded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_tensor::serialize::{Fault, FaultyIo};

    fn toy_examples(n: usize) -> Vec<EncodedExample> {
        (0..n)
            .map(|i| EncodedExample {
                ids: vec![i as u32, i as u32 + 1, 7],
                cols: vec![1, 1, 2],
                spans: vec![(0, 0, 2), (1, 2, 3)],
            })
            .collect()
    }

    fn toy_vocab() -> Vocab {
        let mut b = rpt_tokenizer::VocabBuilder::new();
        b.add_text("alpha beta gamma delta");
        b.build(1, 64)
    }

    #[test]
    fn shard_codec_round_trips() {
        let examples = toy_examples(5);
        let bytes = encode_shard(&examples);
        assert_eq!(decode_shard(&bytes).unwrap(), examples);
    }

    #[test]
    fn truncated_shard_is_a_typed_error() {
        let bytes = encode_shard(&toy_examples(3));
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_shard(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CorpusError::Format(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let mut bytes = encode_shard(&toy_examples(3));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_shard(&bytes).unwrap_err();
        assert!(format!("{err}").contains("checksum"), "{err}");
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            format_version: CORPUS_FORMAT_VERSION,
            vocab_hash: 0xdead_beef_cafe_f00d,
            shards: vec![
                ShardEntry {
                    file: "shard-00000.bin".into(),
                    tuples: 12,
                },
                ShardEntry {
                    file: "shard-00001.bin".into(),
                    tuples: 1,
                },
            ],
        };
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn write_then_open_streams_identical_examples() {
        let dir = std::env::temp_dir().join(format!("rpt-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vocab = toy_vocab();
        let shards = vec![toy_examples(4), toy_examples(3), toy_examples(1)];
        let manifest = write_corpus(&dir, &shards, &vocab).unwrap();
        assert_eq!(manifest.total_tuples(), 8);

        let mut disk = DiskCorpus::open(&dir).unwrap();
        assert_eq!(disk.manifest(), &manifest);
        assert_eq!(disk.vocab().unwrap().len(), vocab.len());
        for (i, expect) in shards.iter().enumerate() {
            assert_eq!(&disk.load_shard(i).unwrap(), expect);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_read_surfaces_as_format_error() {
        let dir = std::env::temp_dir().join(format!("rpt-corpus-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_corpus(&dir, &[toy_examples(4)], &toy_vocab()).unwrap();
        let mut corpus = DiskCorpus::open(&dir).unwrap();
        // Swap in an IO layer that tears the next read.
        corpus.io = Box::new(FaultyIo::new(Fault::ReadTruncate(20)));
        let err = corpus.load_shard(0).unwrap_err();
        assert!(matches!(err, CorpusError::Format(_)), "{err}");
        // The file itself is intact: a clean retry succeeds.
        corpus.io = Box::new(StdCheckpointIo);
        assert_eq!(corpus.load_shard(0).unwrap(), toy_examples(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_order_is_identical_with_and_without_prefetch() {
        let vocab = toy_vocab();
        let shards = vec![toy_examples(3), toy_examples(1), toy_examples(2)];
        let walk = |prefetch: bool| {
            let source = Box::new(InMemoryCorpus::new(shards.clone(), &vocab));
            let mut cursor = StreamCursor::start(source, prefetch, 9, 0, 0, 0, None).unwrap();
            (0..14)
                .map(|_| {
                    let ex = cursor.next_example().unwrap();
                    (cursor.pos(), ex.ids, cursor.rng_state())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(false), walk(true));
    }

    #[test]
    fn cursor_resumes_mid_shard_exactly() {
        let vocab = toy_vocab();
        let shards = vec![toy_examples(4), toy_examples(3)];
        let source = || Box::new(InMemoryCorpus::new(shards.clone(), &vocab));
        // Walk 5 examples straight through.
        let mut straight = StreamCursor::start(source(), false, 3, 0, 0, 0, None).unwrap();
        for _ in 0..5 {
            straight.next_example().unwrap();
        }
        // Walk 2, "checkpoint", resume, walk 3 more.
        let mut first = StreamCursor::start(source(), false, 3, 0, 0, 0, None).unwrap();
        for _ in 0..2 {
            first.next_example().unwrap();
        }
        let (e, s, o) = first.pos();
        let state = first.rng_state();
        let mut resumed = StreamCursor::start(source(), false, 3, e, s, o, Some(state)).unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(resumed.next_example().unwrap().ids);
        }
        assert_eq!(resumed.pos(), straight.pos());
        assert_eq!(resumed.rng_state(), straight.rng_state());
    }
}
