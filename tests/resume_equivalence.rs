//! Crash-safe resume is *invisible*: a run killed at step k and resumed
//! from its checkpoint must produce, at step N, a byte-identical final
//! checkpoint and loss curve to an uninterrupted N-step run — at every
//! thread count.
//!
//! The "kill" is simulated by configuring the first run to stop at step
//! k (its final rolling checkpoint is exactly what a crash after step k
//! would leave behind, since checkpoints are written atomically after
//! each due step) and then discarding every in-memory object: model,
//! trainer, RNGs. The resumed run starts from a freshly constructed
//! model whose params, Adam moments, RNG streams, and loss history all
//! come from the file alone.

use std::fs;
use std::path::PathBuf;

use rpt::core::cleaning::{CheckpointOpts, CleaningConfig, RptC};
use rpt::core::corpus::CorpusError;
use rpt::core::train::{TrainOpts, TRAIN_STATE_FILE};
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt::tensor::serialize::{Fault, FaultyIo};
use rpt::tensor::{CheckpointError, ParamStore};
use rpt_rng::{SeedableRng, SmallRng};

const STEPS: usize = 10;

fn equivalence_config() -> CleaningConfig {
    let mut cfg = CleaningConfig::tiny();
    // dropout on: the restored "model" RNG stream, not luck, must drive
    // the post-resume shard seeds and masks
    cfg.model.dropout = 0.1;
    cfg.train = TrainOpts {
        steps: STEPS,
        batch_size: 6,
        micro_batch: 2, // 3 shards per step
        warmup: 4,
        peak_lr: 3e-3,
        ..Default::default()
    };
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpt-resume-equivalence-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

struct Corpus {
    tables: Vec<Table>,
    vocab: rpt::tokenizer::Vocab,
}

fn corpus() -> Corpus {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, mut benches) = standard_benchmarks(20, &mut rng);
    let b = benches.remove(0);
    let tables = vec![b.table_a, b.table_b];
    let vocab = build_vocab(&tables.iter().collect::<Vec<_>>(), &[], 1, 4000);
    Corpus { tables, vocab }
}

/// Uninterrupted N-step run; returns (final checkpoint bytes, loss bits).
fn run_straight(c: &Corpus, threads: usize, tag: &str) -> (Vec<u8>, Vec<u32>) {
    let dir = fresh_dir(tag);
    let pool = ThreadPool::new(threads);
    let tables: Vec<&Table> = c.tables.iter().collect();
    let mut model = RptC::new(c.vocab.clone(), equivalence_config());
    let losses = model
        .pretrain_on(
            &pool,
            &tables,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: STEPS,
            }),
            None,
        )
        .unwrap();
    assert_eq!(losses.len(), STEPS);
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    (bytes, losses.iter().map(|x| x.to_bits()).collect())
}

/// Run to step k, "crash" (drop everything), resume from the checkpoint,
/// finish to N; returns (final checkpoint bytes, full loss bits).
fn run_killed_and_resumed(c: &Corpus, threads: usize, k: usize, tag: &str) -> (Vec<u8>, Vec<u32>) {
    let dir = fresh_dir(tag);
    let pool = ThreadPool::new(threads);
    let tables: Vec<&Table> = c.tables.iter().collect();

    let mut cfg_k = equivalence_config();
    cfg_k.train.steps = k;
    let mut victim = RptC::new(c.vocab.clone(), cfg_k);
    let partial = victim
        .pretrain_on(
            &pool,
            &tables,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: k,
            }),
            None,
        )
        .unwrap();
    assert_eq!(partial.len(), k);
    drop(victim); // the crash: all in-memory training state is gone

    let state_path = dir.join(TRAIN_STATE_FILE);
    assert!(state_path.exists(), "kill left no checkpoint behind");
    // the checkpoint alone must reconstruct the run: params load into a
    // fresh store without reference to the dead process
    let mut probe = ParamStore::new();
    let probe_state = rpt::tensor::serialize::load_train_file(&mut probe, &state_path).unwrap();
    assert_eq!(probe_state.steps_done, k as u64);

    let mut resumed = RptC::new(c.vocab.clone(), equivalence_config());
    let losses = resumed
        .pretrain_on(
            &pool,
            &tables,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: STEPS,
            }),
            Some(&state_path),
        )
        .unwrap();
    assert_eq!(losses.len(), STEPS, "resume lost or duplicated steps");
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    (bytes, losses.iter().map(|x| x.to_bits()).collect())
}

fn sweep_kill_points(threads: usize) {
    let c = corpus();
    let (straight_bytes, straight_losses) =
        run_straight(&c, threads, &format!("straight-t{threads}"));
    for k in [1usize, STEPS / 2, STEPS - 1] {
        let (bytes, losses) =
            run_killed_and_resumed(&c, threads, k, &format!("killed-t{threads}-k{k}"));
        assert_eq!(
            losses, straight_losses,
            "loss curve diverged after kill at step {k} ({threads} threads)"
        );
        assert_eq!(
            bytes, straight_bytes,
            "final checkpoint bytes diverged after kill at step {k} ({threads} threads)"
        );
    }
}

#[test]
fn kill_and_resume_is_byte_identical_single_thread() {
    sweep_kill_points(1);
}

#[test]
fn kill_and_resume_is_byte_identical_four_threads() {
    sweep_kill_points(4);
}

#[test]
fn resume_works_across_thread_counts() {
    // kill under one thread, resume under four: the checkpoint carries
    // everything, and the reduction is thread-count invariant, so even a
    // heterogeneous resume stays on the straight-through trajectory
    let c = corpus();
    let (straight_bytes, straight_losses) = run_straight(&c, 1, "straight-hetero");
    let dir = fresh_dir("killed-hetero");
    let tables: Vec<&Table> = c.tables.iter().collect();

    let k = STEPS / 2;
    let mut cfg_k = equivalence_config();
    cfg_k.train.steps = k;
    let mut victim = RptC::new(c.vocab.clone(), cfg_k);
    victim
        .pretrain_on(
            &ThreadPool::new(1),
            &tables,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: k,
            }),
            None,
        )
        .unwrap();
    drop(victim);

    let mut resumed = RptC::new(c.vocab.clone(), equivalence_config());
    let losses = resumed
        .pretrain_on(
            &ThreadPool::new(4),
            &tables,
            Some(&CheckpointOpts {
                dir: dir.clone(),
                every: STEPS,
            }),
            Some(&dir.join(TRAIN_STATE_FILE)),
        )
        .unwrap();
    let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(
        losses.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        straight_losses
    );
    assert_eq!(bytes, straight_bytes);
}

#[test]
fn kill_inside_accumulation_window_resumes_across_thread_counts() {
    // Streaming + gradient accumulation: kill at accumulation step k —
    // i.e. mid-window, with k-1 micro-gradients already folded — and
    // resume under 1 and under 4 threads. The pending gradients travel
    // through the checkpoint, so every variant lands on the straight
    // run's bytes.
    use rpt::core::cleaning::StreamOpts;
    use rpt::core::corpus::{self, InMemoryCorpus, ShardSource};
    use rpt::tokenizer::TupleEncoder;

    const ACCUM: usize = 2;
    let c = corpus();
    let refs: Vec<&Table> = c.tables.iter().collect();
    let encoder = TupleEncoder::new(c.vocab.clone(), Default::default());
    let shards = corpus::split_shards(corpus::encode_tables(&encoder, &refs), 7);
    let source =
        || -> Box<dyn ShardSource> { Box::new(InMemoryCorpus::new(shards.clone(), &c.vocab)) };
    let opts = StreamOpts {
        accum_steps: ACCUM,
        prefetch: true,
        stop_after_micro: None,
    };

    let straight_dir = fresh_dir("accum-straight");
    let mut straight = RptC::new(c.vocab.clone(), equivalence_config());
    let straight_losses: Vec<u32> = straight
        .pretrain_stream_on(
            &ThreadPool::new(1),
            source(),
            &opts,
            Some(&CheckpointOpts {
                dir: straight_dir.clone(),
                every: STEPS,
            }),
            None,
        )
        .unwrap()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let straight_bytes = fs::read(straight_dir.join(TRAIN_STATE_FILE)).unwrap();
    fs::remove_dir_all(&straight_dir).ok();

    for k in [1usize, STEPS / 2] {
        for resume_threads in [1usize, 4] {
            let tag = format!("accum-k{k}-rt{resume_threads}");
            let dir = fresh_dir(&tag);
            // stop one micro-step into accumulation window k
            let stop = (k * ACCUM - 1) as u64;
            let mut victim = RptC::new(c.vocab.clone(), equivalence_config());
            victim
                .pretrain_stream_on(
                    &ThreadPool::new(1),
                    source(),
                    &StreamOpts {
                        stop_after_micro: Some(stop),
                        ..opts.clone()
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
            assert!(state_path.exists(), "{tag}: kill left no checkpoint");
            let mut resumed = RptC::new(c.vocab.clone(), equivalence_config());
            let losses: Vec<u32> = resumed
                .pretrain_stream_on(
                    &ThreadPool::new(resume_threads),
                    source(),
                    &opts,
                    Some(&CheckpointOpts {
                        dir: dir.clone(),
                        every: STEPS,
                    }),
                    Some(&state_path),
                )
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let bytes = fs::read(dir.join(TRAIN_STATE_FILE)).unwrap();
            fs::remove_dir_all(&dir).ok();
            assert_eq!(losses, straight_losses, "{tag}: loss curve diverged");
            assert_eq!(bytes, straight_bytes, "{tag}: checkpoint bytes diverged");
        }
    }
}

/// A resume whose checkpoint read is torn or fails, through the loop's
/// checkpoint IO, is a typed error before any step runs, and the last good
/// `train_state.json` stays byte-identical (the loop writes nothing).
#[test]
fn faulty_resume_reads_are_typed_errors_and_keep_the_last_good_state() {
    let c = corpus();
    let dir = fresh_dir("faulty-read");
    let pool = ThreadPool::new(1);
    let tables: Vec<&Table> = c.tables.iter().collect();
    let ckpt = CheckpointOpts {
        dir: dir.clone(),
        every: 1,
    };
    let mut cfg = equivalence_config();
    cfg.train.steps = 2;
    RptC::new(c.vocab.clone(), cfg)
        .pretrain_on(&pool, &tables, Some(&ckpt), None)
        .unwrap();
    let path = dir.join(TRAIN_STATE_FILE);
    let good = fs::read(&path).unwrap();
    for fault in [
        Fault::ReadTruncate(good.len() / 2),
        Fault::ReadTruncate(good.len() - 1),
        Fault::ReadFail,
    ] {
        let mut model = RptC::new(c.vocab.clone(), equivalence_config());
        model.set_checkpoint_io(Box::new(FaultyIo::new(fault)));
        let err = model
            .pretrain_on(&pool, &tables, Some(&ckpt), Some(&path))
            .expect_err("a faulty resume read must fail");
        match (fault, &err) {
            (Fault::ReadFail, CorpusError::Checkpoint(CheckpointError::Io(_))) => {}
            (
                Fault::ReadTruncate(_),
                CorpusError::Checkpoint(
                    CheckpointError::Checksum { .. } | CheckpointError::Format(_),
                ),
            ) => {}
            _ => panic!("{fault:?}: unexpected error {err:?}"),
        }
        assert_eq!(
            fs::read(&path).unwrap(),
            good,
            "{fault:?} changed the last good train state"
        );
    }
    fs::remove_dir_all(&dir).ok();
}
