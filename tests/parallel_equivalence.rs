//! Determinism under data parallelism: training is bit-identical for every
//! thread count.
//!
//! The thread pool only decides *which* thread computes each shard, never
//! what is computed or in which order gradients are reduced, so the entire
//! training trajectory — loss curve and final checkpoint — must come out
//! byte-for-byte the same at 1, 2, and 4 threads. Dropout is enabled to
//! prove the per-shard RNG seeding is thread-count-independent too.

use rpt::core::cleaning::{CleaningConfig, RptC};
use rpt::core::train::{TrainOpts, Trainer};
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::nn::{make_denoising_shards, Ctx, Seq2Seq, Sequence, TokenBatch, TransformerConfig};
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt::tensor::serialize::encode;
use rpt::tensor::{ParamStore, Tape};
use rpt_rng::{SeedableRng, SmallRng};

fn equivalence_config() -> CleaningConfig {
    let mut cfg = CleaningConfig::tiny();
    // dropout on: shard seeds, not thread schedules, must drive the masks
    cfg.model.dropout = 0.1;
    cfg.train = TrainOpts {
        steps: 100,
        batch_size: 6,
        micro_batch: 2, // 3 shards per step
        warmup: 10,
        peak_lr: 3e-3,
        ..Default::default()
    };
    cfg
}

#[test]
fn checkpoint_is_bit_identical_across_thread_counts() {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, benches) = standard_benchmarks(20, &mut rng);
    let tables: Vec<&Table> = vec![&benches[0].table_a, &benches[0].table_b];
    let vocab = build_vocab(&tables, &[], 1, 4000);
    let cfg = equivalence_config();

    let run = |threads: usize| -> (Vec<u8>, Vec<u32>) {
        let pool = ThreadPool::new(threads);
        let mut model = RptC::new(vocab.clone(), cfg.clone());
        let losses = model.pretrain_on(&pool, &tables, None, None).unwrap();
        (
            encode(&model.params, None, None),
            losses.iter().map(|x| x.to_bits()).collect(),
        )
    };

    let (ckpt1, losses1) = run(1);
    assert!(ckpt1.len() > 1000, "checkpoint suspiciously small");
    assert_eq!(losses1.len(), cfg.train.steps);
    for threads in [2usize, 4] {
        let (ckpt, losses) = run(threads);
        assert_eq!(losses, losses1, "loss curve diverged at {threads} threads");
        assert_eq!(
            ckpt, ckpt1,
            "final checkpoint bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn single_shard_data_parallel_reproduces_serial_trainer() {
    // The micro_batch = 0 default must follow the exact serial `step`
    // trajectory bit-for-bit (scale = w/w = 1.0 is an IEEE identity).
    let (pad, bos, eos) = (0usize, 1, 2);
    let srcs: Vec<Sequence> = vec![
        Sequence::from_ids(vec![9, 10, 11]),
        Sequence::from_ids(vec![11, 9]),
        Sequence::from_ids(vec![10, 10, 9]),
    ];
    let tgts: Vec<Vec<usize>> = vec![vec![9, 10, 11], vec![11, 9], vec![10, 10, 9]];
    let mut cfg = TransformerConfig::tiny(12);
    cfg.dropout = 0.1;
    let opts = TrainOpts {
        steps: 30,
        warmup: 5,
        peak_lr: 3e-3,
        ..Default::default()
    };

    let serial = {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = Seq2Seq::new(&mut params, cfg.clone(), &mut rng);
        let mut trainer = Trainer::new(opts.clone(), cfg.d_model);
        let src = TokenBatch::from_sequences(&srcs, cfg.max_len, pad);
        let (tgt_in, tgt_out) = TokenBatch::teacher_forcing(&tgts, cfg.max_len, pad, bos, eos);
        for step in 0..opts.steps {
            let tape = Tape::new();
            let mut rng = SmallRng::seed_from_u64(1000 + step as u64);
            let mut ctx = Ctx::new(&tape, &mut params, &mut rng, true);
            let loss = model.reconstruction_loss(&mut ctx, &src, &tgt_in, &tgt_out, pad);
            trainer.step(&tape, &mut params, loss);
        }
        encode(&params, None, None)
    };

    let parallel = {
        let pool = ThreadPool::new(4);
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = Seq2Seq::new(&mut params, cfg.clone(), &mut rng);
        let mut trainer = Trainer::new(opts.clone(), cfg.d_model);
        for step in 0..opts.steps {
            let shards = make_denoising_shards(
                &srcs,
                &tgts,
                cfg.max_len,
                pad,
                bos,
                eos,
                0, // micro_batch 0: one shard, seeded exactly like the serial run
                1000 + step as u64,
            );
            trainer.accum_micro_step(
                &pool,
                &params,
                &shards,
                |s| s.weight as f32,
                |tape, params, shard| {
                    let mut rng = SmallRng::seed_from_u64(shard.seed);
                    let mut ctx = Ctx::new(tape, params, &mut rng, true);
                    model.reconstruction_loss(
                        &mut ctx,
                        &shard.src,
                        &shard.tgt_in,
                        &shard.tgt_out,
                        pad,
                    )
                },
            );
            trainer.accum_apply(&mut params);
        }
        encode(&params, None, None)
    };

    assert_eq!(
        serial, parallel,
        "single-shard data-parallel run left the serial trajectory"
    );
}
