//! Streaming corpus faults are *loud and typed*: a torn read, truncated
//! or bit-flipped shard, vanished file, or killed prefetch thread turns
//! into a `CorpusError` — never a hang, never a silently skipped shard.
//! And every mid-corpus crash point (any micro-step, inside or at the
//! edge of an accumulation window) leaves behind a checkpoint that
//! resumes onto the uninterrupted trajectory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rpt::core::cleaning::{CheckpointOpts, CleaningConfig, RptC, StreamOpts};
use rpt::core::corpus::{
    self, CorpusError, DiskCorpus, EncodedExample, InMemoryCorpus, Manifest, ShardSource,
};
use rpt::core::train::{TrainOpts, TRAIN_STATE_FILE};
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt::tensor::serialize::{CheckpointIo, Fault, FaultyIo, StdCheckpointIo};
use rpt::tokenizer::{TupleEncoder, Vocab};
use rpt_rng::{SeedableRng, SmallRng};

const STEPS: usize = 4;
const ACCUM: usize = 2;
const SHARD_SIZE: usize = 5;

fn fault_config() -> CleaningConfig {
    let mut cfg = CleaningConfig::tiny();
    cfg.model.dropout = 0.1;
    cfg.train = TrainOpts {
        steps: STEPS,
        batch_size: 6,
        micro_batch: 2,
        warmup: 4,
        peak_lr: 3e-3,
        ..Default::default()
    };
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpt-streaming-fault-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

struct Fixture {
    vocab: Vocab,
    shards: Vec<Vec<EncodedExample>>,
    corpus_dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.corpus_dir).ok();
    }
}

fn fixture(tag: &str) -> Fixture {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, mut benches) = standard_benchmarks(20, &mut rng);
    let b = benches.remove(0);
    let tables = [b.table_a, b.table_b];
    let refs: Vec<&Table> = tables.iter().collect();
    let vocab = build_vocab(&refs, &[], 1, 4000);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let shards = corpus::split_shards(corpus::encode_tables(&encoder, &refs), SHARD_SIZE);
    assert!(
        shards.len() >= 3,
        "need several shards to fault the middle one"
    );
    let corpus_dir = fresh_dir(&format!("corpus-{tag}"));
    corpus::write_corpus(&corpus_dir, &shards, &vocab).unwrap();
    Fixture {
        vocab,
        shards,
        corpus_dir,
    }
}

/// Runs streaming pretraining over `source` and returns the error it
/// surfaced. Panics if the run (unexpectedly) succeeds.
fn run_expecting_error(f: &Fixture, source: Box<dyn ShardSource>, prefetch: bool) -> CorpusError {
    let pool = ThreadPool::new(1);
    let opts = StreamOpts {
        prefetch,
        ..Default::default()
    };
    let mut model = RptC::new(f.vocab.clone(), fault_config());
    model
        .pretrain_stream_on(&pool, source, &opts, None, None)
        .expect_err("faulted corpus must fail the run, not finish it")
}

#[test]
fn bit_flipped_shard_fails_the_checksum_in_both_feeds() {
    let f = fixture("bitflip");
    let shard_path = f.corpus_dir.join("shard-00001.bin");
    let mut bytes = fs::read(&shard_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&shard_path, &bytes).unwrap();
    for prefetch in [false, true] {
        let source = Box::new(DiskCorpus::open(&f.corpus_dir).unwrap());
        match run_expecting_error(&f, source, prefetch) {
            CorpusError::Format(msg) => {
                assert!(msg.contains("checksum"), "unexpected format error: {msg}")
            }
            other => panic!("expected a checksum Format error, got: {other}"),
        }
    }
}

#[test]
fn truncated_shard_file_is_a_typed_error() {
    let f = fixture("truncate");
    let shard_path = f.corpus_dir.join("shard-00001.bin");
    let bytes = fs::read(&shard_path).unwrap();
    fs::write(&shard_path, &bytes[..bytes.len() / 2]).unwrap();
    for prefetch in [false, true] {
        let source = Box::new(DiskCorpus::open(&f.corpus_dir).unwrap());
        match run_expecting_error(&f, source, prefetch) {
            CorpusError::Format(_) => {}
            other => panic!("expected a Format error for a truncated shard, got: {other}"),
        }
    }
}

#[test]
fn torn_manifest_read_is_a_typed_error() {
    let f = fixture("torn-open");
    // The torn read fires on the very first read — the manifest — so the
    // corpus refuses to open at all instead of streaming garbage.
    let err = DiskCorpus::open_with(
        Box::new(FaultyIo::new(Fault::ReadTruncate(20))),
        &f.corpus_dir,
    )
    .err()
    .expect("a torn manifest read must fail the open");
    match err {
        CorpusError::Format(_) => {}
        other => panic!("expected a Format error for a torn manifest, got: {other}"),
    }
    let err = DiskCorpus::open_with(Box::new(FaultyIo::new(Fault::ReadFail)), &f.corpus_dir)
        .err()
        .expect("a failed manifest read must fail the open");
    match err {
        CorpusError::Io(_) => {}
        other => panic!("expected an Io error for a failed read, got: {other}"),
    }
    // The file on disk was never touched: a clean retry succeeds.
    DiskCorpus::open(&f.corpus_dir).unwrap();
}

/// A [`CheckpointIo`] that serves `clean_reads` reads and then fails every
/// read after — the manifest opens fine, a later *shard* read hits the
/// fault, proving shard reads flow through the injectable IO layer.
struct FailAfterReads {
    inner: StdCheckpointIo,
    clean_reads: usize,
}

impl CheckpointIo for FailAfterReads {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_file(path, bytes)
    }
    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        if self.clean_reads == 0 {
            return Err(io::Error::other("injected shard read fault"));
        }
        self.clean_reads -= 1;
        self.inner.read_file(path)
    }
}

#[test]
fn mid_stream_shard_read_failure_is_a_typed_error() {
    let f = fixture("mid-read");
    for prefetch in [false, true] {
        // Read 1 is the manifest, read 2 is shard 0 — shard 1 dies.
        let io = Box::new(FailAfterReads {
            inner: StdCheckpointIo,
            clean_reads: 2,
        });
        let source = Box::new(DiskCorpus::open_with(io, &f.corpus_dir).unwrap());
        match run_expecting_error(&f, source, prefetch) {
            CorpusError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::Other),
            other => panic!("expected an Io error from the faulted shard read, got: {other}"),
        }
    }
}

/// A [`ShardSource`] whose loader panics on one shard — simulating a
/// crashed prefetch thread rather than a clean `Err`.
struct PanickingSource {
    inner: InMemoryCorpus,
    panic_at: usize,
}

impl ShardSource for PanickingSource {
    fn manifest(&self) -> &Manifest {
        self.inner.manifest()
    }
    fn load_shard(&mut self, index: usize) -> Result<Vec<EncodedExample>, CorpusError> {
        if index == self.panic_at {
            panic!("injected shard-loader crash");
        }
        self.inner.load_shard(index)
    }
}

#[test]
fn killed_prefetch_thread_is_a_typed_error_not_a_hang() {
    let f = fixture("panic");
    let source = Box::new(PanickingSource {
        inner: InMemoryCorpus::new(f.shards.clone(), &f.vocab),
        panic_at: 2,
    });
    match run_expecting_error(&f, source, true) {
        CorpusError::Prefetch(_) => {}
        other => panic!("expected a Prefetch error from the dead worker, got: {other}"),
    }
}

#[test]
fn every_mid_corpus_crash_point_leaves_a_resumable_state() {
    let f = fixture("crash-sweep");
    let opts_base = StreamOpts {
        accum_steps: ACCUM,
        prefetch: true,
        stop_after_micro: None,
    };
    // Uninterrupted reference trajectory.
    let straight_dir = fresh_dir("crash-sweep-straight");
    let mut straight = RptC::new(f.vocab.clone(), fault_config());
    let straight_losses = straight
        .pretrain_stream_on(
            &ThreadPool::new(1),
            Box::new(DiskCorpus::open(&f.corpus_dir).unwrap()),
            &opts_base,
            Some(&CheckpointOpts {
                dir: straight_dir.clone(),
                every: STEPS,
            }),
            None,
        )
        .unwrap();
    let straight_bytes = fs::read(straight_dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&straight_dir).ok();

    // Crash at EVERY micro-step: inside windows, at window edges, and at
    // the very last micro-step with the final window still pending.
    let total_micro = (STEPS * ACCUM) as u64;
    for m in 1..=total_micro {
        let dir = fresh_dir(&format!("crash-sweep-m{m}"));
        let mut victim = RptC::new(f.vocab.clone(), fault_config());
        victim
            .pretrain_stream_on(
                &ThreadPool::new(1),
                Box::new(DiskCorpus::open(&f.corpus_dir).unwrap()),
                &StreamOpts {
                    stop_after_micro: Some(m),
                    ..opts_base.clone()
                },
                Some(&CheckpointOpts {
                    dir: dir.clone(),
                    every: STEPS,
                }),
                None,
            )
            .unwrap();
        drop(victim);
        let state_path = dir.join(TRAIN_STATE_FILE);
        assert!(
            state_path.exists(),
            "crash at micro-step {m} left no checkpoint"
        );
        let mut resumed = RptC::new(f.vocab.clone(), fault_config());
        let losses = resumed
            .pretrain_stream_on(
                &ThreadPool::new(1),
                Box::new(DiskCorpus::open(&f.corpus_dir).unwrap()),
                &opts_base,
                Some(&CheckpointOpts {
                    dir: dir.clone(),
                    every: STEPS,
                }),
                Some(&state_path),
            )
            .unwrap();
        let loss_bits: Vec<u32> = losses.iter().map(|x| x.to_bits()).collect();
        let straight_bits: Vec<u32> = straight_losses.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            loss_bits, straight_bits,
            "loss curve diverged after crash at micro-step {m}"
        );
        let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
        assert_eq!(
            bytes, straight_bytes,
            "checkpoint bytes diverged after crash at micro-step {m}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
