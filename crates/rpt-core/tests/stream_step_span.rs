//! Streaming pretraining times every optimizer window as a `train.step`,
//! like the in-memory loop. The metrics registry is process-global, so the
//! test asserts on how much `train.step_ms` grew, not on its total.

use rpt_core::cleaning::{CleaningConfig, RptC, StreamOpts};
use rpt_core::corpus::{encode_tables, split_shards, InMemoryCorpus};
use rpt_core::vocabulary::build_vocab;
use rpt_par::ThreadPool;
use rpt_table::{Schema, Table};
use rpt_tokenizer::TupleEncoder;

#[test]
fn streaming_pretraining_opens_a_step_span_per_window() {
    rpt_obs::set_metrics_enabled(true);
    let mut t = Table::new("phones", Schema::text_columns(&["title", "maker"]));
    for (title, maker) in [
        ("iphone seven", "apple"),
        ("iphone eight", "apple"),
        ("galaxy seven", "samsung"),
        ("galaxy eight", "samsung"),
        ("pixel seven", "google"),
        ("pixel eight", "google"),
    ] {
        t.push_values(vec![title.into(), maker.into()]);
    }
    let vocab = build_vocab(&[&t], &[], 1, 500);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let shards = split_shards(encode_tables(&encoder, &[&t]), 4);
    let mut cfg = CleaningConfig::tiny();
    cfg.train.steps = 3;
    cfg.train.batch_size = 4;
    let mut model = RptC::new(vocab.clone(), cfg);
    let step_ms = rpt_obs::histogram("train.step_ms");
    let before = step_ms.count();
    let opts = StreamOpts {
        accum_steps: 2,
        prefetch: false,
        ..Default::default()
    };
    let source = Box::new(InMemoryCorpus::new(shards, &vocab));
    let losses = model
        .pretrain_stream_on(&ThreadPool::new(1), source, &opts, None, None)
        .unwrap();
    assert_eq!(losses.len(), 3);
    assert!(
        step_ms.count() - before >= 3,
        "one train.step per optimizer window"
    );
}
