//! Streaming pretraining is *transport-invariant*: training over a
//! sharded on-disk corpus — prefetch on or off, 1 or 4 threads — produces
//! a byte-identical final checkpoint and loss curve to training over the
//! same logical corpus held fully in memory. Gradient accumulation folds
//! k micro-batch gradients into one Adam step bit-identically to the
//! equivalent large batch, and a kill inside a shard or inside an
//! accumulation window resumes onto the exact same trajectory.

use std::fs;
use std::path::PathBuf;

use rpt::core::cleaning::{CheckpointOpts, CleaningConfig, RptC, StreamOpts};
use rpt::core::corpus::{self, DiskCorpus, EncodedExample, InMemoryCorpus, ShardSource};
use rpt::core::train::{TrainOpts, TRAIN_STATE_FILE};
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt::tokenizer::{TupleEncoder, Vocab};
use rpt_rng::{SeedableRng, SmallRng};

const STEPS: usize = 8;
const SHARD_SIZE: usize = 7;

fn stream_config() -> CleaningConfig {
    let mut cfg = CleaningConfig::tiny();
    // dropout on: shard-keyed dropout seeds, not luck, must carry the
    // equivalence
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
    let dir = std::env::temp_dir().join(format!("rpt-streaming-equivalence-{tag}"));
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

/// Builds one corpus — datagen tables, tokenized, split into ragged
/// shards — both on disk and as the in-memory shard partition.
fn fixture(tag: &str) -> Fixture {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, mut benches) = standard_benchmarks(20, &mut rng);
    let b = benches.remove(0);
    let tables = [b.table_a, b.table_b];
    let refs: Vec<&Table> = tables.iter().collect();
    let vocab = build_vocab(&refs, &[], 1, 4000);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let examples = corpus::encode_tables(&encoder, &refs);
    assert!(examples.len() > 2 * SHARD_SIZE, "corpus too small to shard");
    let shards = corpus::split_shards(examples, SHARD_SIZE);
    let corpus_dir = fresh_dir(&format!("corpus-{tag}"));
    corpus::write_corpus(&corpus_dir, &shards, &vocab).unwrap();
    Fixture {
        vocab,
        shards,
        corpus_dir,
    }
}

fn disk(f: &Fixture) -> Box<dyn ShardSource> {
    Box::new(DiskCorpus::open(&f.corpus_dir).unwrap())
}

fn memory(f: &Fixture) -> Box<dyn ShardSource> {
    Box::new(InMemoryCorpus::new(f.shards.clone(), &f.vocab))
}

/// One full streaming run from scratch; returns (checkpoint bytes, loss bits).
fn run(
    f: &Fixture,
    source: Box<dyn ShardSource>,
    threads: usize,
    opts: &StreamOpts,
    cfg: CleaningConfig,
    tag: &str,
) -> (Vec<u8>, Vec<u32>) {
    let dir = fresh_dir(tag);
    let pool = ThreadPool::new(threads);
    let steps = cfg.train.steps;
    let mut model = RptC::new(f.vocab.clone(), cfg);
    let losses = model
        .pretrain_stream_on(
            &pool,
            source,
            opts,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: steps,
            }),
            None,
        )
        .unwrap();
    assert_eq!(losses.len(), steps);
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    (bytes, losses.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn streaming_matches_in_memory_across_transport_and_threads() {
    let f = fixture("matrix");
    let sync = StreamOpts {
        prefetch: false,
        ..Default::default()
    };
    let pf = StreamOpts::default();
    let reference = run(&f, memory(&f), 1, &sync, stream_config(), "m-mem-t1");
    let arms = [
        (disk(&f), 1, &pf, "m-disk-pf-t1"),
        (disk(&f), 1, &sync, "m-disk-sync-t1"),
        (disk(&f), 4, &pf, "m-disk-pf-t4"),
        (disk(&f), 4, &sync, "m-disk-sync-t4"),
        (memory(&f), 4, &pf, "m-mem-pf-t4"),
    ];
    for (source, threads, opts, tag) in arms {
        let got = run(&f, source, threads, opts, stream_config(), tag);
        assert_eq!(
            got.1, reference.1,
            "loss curve diverged for {tag} (prefetch={})",
            opts.prefetch
        );
        assert_eq!(got.0, reference.0, "checkpoint bytes diverged for {tag}");
    }
}

#[test]
fn accumulation_matches_equivalent_large_batch() {
    let f = fixture("accum");
    // batch 8 at micro_batch 2: accum_steps=2 gathers 4+4 examples and
    // chunks each gather into two shards — the same four shards, same
    // seeds, same reduction order as the single 8-example batch.
    let cfg = || {
        let mut cfg = stream_config();
        cfg.train.batch_size = 8;
        cfg
    };
    let whole = StreamOpts {
        accum_steps: 1,
        prefetch: false,
        ..Default::default()
    };
    let split = StreamOpts {
        accum_steps: 2,
        prefetch: false,
        ..Default::default()
    };
    let reference = run(&f, memory(&f), 1, &whole, cfg(), "a-whole-t1");
    for (threads, tag) in [(1, "a-split-t1"), (4, "a-split-t4")] {
        let got = run(&f, disk(&f), threads, &split, cfg(), tag);
        assert_eq!(got.1, reference.1, "loss curve diverged for {tag}");
        assert_eq!(got.0, reference.0, "checkpoint bytes diverged for {tag}");
    }
}

/// Runs until `stop_after_micro`, "crashes" (drops every in-memory
/// object), resumes from the checkpoint alone, and finishes.
fn run_killed_and_resumed(
    f: &Fixture,
    kill_threads: usize,
    resume_threads: usize,
    accum_steps: usize,
    stop_after_micro: u64,
    cfg: CleaningConfig,
    tag: &str,
) -> (Vec<u8>, Vec<u32>) {
    let dir = fresh_dir(tag);
    let steps = cfg.train.steps;
    let opts = StreamOpts {
        accum_steps,
        prefetch: true,
        stop_after_micro: Some(stop_after_micro),
    };
    let mut victim = RptC::new(f.vocab.clone(), cfg.clone());
    victim
        .pretrain_stream_on(
            &ThreadPool::new(kill_threads),
            disk(f),
            &opts,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: steps,
            }),
            None,
        )
        .unwrap();
    drop(victim); // the crash: all in-memory training state is gone

    let state_path = dir.join(TRAIN_STATE_FILE);
    assert!(state_path.exists(), "kill left no checkpoint behind");
    let resume_opts = StreamOpts {
        accum_steps,
        prefetch: true,
        stop_after_micro: None,
    };
    let mut resumed = RptC::new(f.vocab.clone(), cfg);
    let losses = resumed
        .pretrain_stream_on(
            &ThreadPool::new(resume_threads),
            disk(f),
            &resume_opts,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: steps,
            }),
            Some(&state_path),
        )
        .unwrap();
    assert_eq!(losses.len(), steps, "resume lost or duplicated steps");
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    (bytes, losses.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn kill_inside_shard_and_inside_window_resumes_identically() {
    let f = fixture("kill");
    let accum = 2;
    let straight = StreamOpts {
        accum_steps: accum,
        prefetch: true,
        ..Default::default()
    };
    let reference = run(&f, disk(&f), 1, &straight, stream_config(), "k-straight");
    // 8 steps × 2 micro-steps = 16 micro-steps total. Kill points: inside
    // the first window (1), at a window edge with the full window still
    // pending (4), inside a later window (11) — each lands mid-shard
    // somewhere in the 7-tuple shards.
    for m in [1u64, 4, 11] {
        let got = run_killed_and_resumed(
            &f,
            1,
            1,
            accum,
            m,
            stream_config(),
            &format!("k-m{m}"),
        );
        assert_eq!(
            got.1, reference.1,
            "loss curve diverged after kill at micro-step {m}"
        );
        assert_eq!(
            got.0, reference.0,
            "checkpoint bytes diverged after kill at micro-step {m}"
        );
    }
}

#[test]
fn kill_single_thread_resume_four_threads_mid_window() {
    // The heterogeneous cross: killed mid-accumulation-window under one
    // thread, resumed under four. Pending gradients travel through the
    // checkpoint and the reduction is thread-count invariant.
    let f = fixture("hetero");
    let straight = StreamOpts {
        accum_steps: 2,
        prefetch: true,
        ..Default::default()
    };
    let reference = run(&f, disk(&f), 1, &straight, stream_config(), "h-straight");
    let got = run_killed_and_resumed(&f, 1, 4, 2, 5, stream_config(), "h-cross");
    assert_eq!(got.1, reference.1, "loss curve diverged in hetero resume");
    assert_eq!(got.0, reference.0, "checkpoint bytes diverged in hetero resume");
}
