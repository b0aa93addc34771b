//! Regression: pretraining runs micro-batch shards on the *global* pool
//! while each shard's forward/backward dispatches its matmuls to the same
//! pool. Before `rpt-par` gained re-entrancy detection, a worker executing
//! a shard would enqueue a matmul job onto its own suspended recv loop and
//! then block on the latch — a deadlock in exactly the feature's
//! advertised configuration (`RPT_THREADS > 1`, `micro_batch > 0`).
//!
//! This file holds a single test so it owns the process: the env var must
//! be set before the first use of `ThreadPool::global()`.

use rpt::core::cleaning::{CleaningConfig, RptC};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::par::ThreadPool;
use rpt::table::Table;
use rpt_rng::{SeedableRng, SmallRng};

#[test]
fn denoising_step_on_multithreaded_global_pool_completes() {
    std::env::set_var("RPT_THREADS", "4");
    assert_eq!(
        ThreadPool::global().num_threads(),
        4,
        "global pool must pick up RPT_THREADS before first use"
    );

    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, benches) = standard_benchmarks(20, &mut rng);
    let tables: Vec<&Table> = vec![&benches[0].table_a, &benches[0].table_b];
    let vocab = build_vocab(&tables, &[], 1, 4000);

    let mut cfg = CleaningConfig::tiny();
    cfg.train = TrainOpts {
        steps: 3,
        batch_size: 6,
        micro_batch: 2, // 3 shards per step: shards nest matmuls on the pool
        warmup: 2,
        peak_lr: 3e-3,
        ..Default::default()
    };

    let mut model = RptC::new(vocab, cfg.clone());
    let losses = model
        .pretrain_on(ThreadPool::global(), &tables, None, None)
        .unwrap_or_else(|e| panic!("corpus produced no training pairs, or a step failed: {e}"));
    for loss in &losses {
        assert!(loss.is_finite(), "loss went non-finite: {loss}");
    }
    assert_eq!(losses.len(), cfg.train.steps);
}
