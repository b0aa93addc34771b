//! Model persistence: save a trained model, load into a fresh instance,
//! get byte-identical predictions — the "plug and play tool" property of
//! §2.2 research opportunity O3.

use rpt::core::cleaning::{CleaningConfig, Filler, RptC};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::table::Table;
use rpt::tensor::serialize::{apply_params, encode, load_file, save_file, Checkpoint};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

#[test]
fn trained_rpt_c_roundtrips_through_json() {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, benches) = standard_benchmarks(20, &mut rng);
    let tables: Vec<&Table> = vec![&benches[0].table_a, &benches[0].table_b];
    let vocab = build_vocab(&tables, &[], 1, 4000);
    let mut cfg = CleaningConfig::tiny();
    cfg.train = TrainOpts {
        steps: 60,
        batch_size: 8,
        warmup: 10,
        peak_lr: 3e-3,
        ..Default::default()
    };
    let mut model = RptC::new(vocab.clone(), cfg.clone());
    model.pretrain(&tables);

    let bytes = encode(&model.params, None, None);
    assert!(bytes.len() > 1000, "checkpoint suspiciously small");

    let mut fresh = RptC::new(vocab, cfg);
    let params = Checkpoint::decode(&bytes)
        .expect("decode checkpoint")
        .params;
    apply_params(&mut fresh.params, params).expect("load checkpoint");

    let schema = benches[0].table_a.schema();
    for row in 0..5 {
        let tuple = benches[0].table_a.row(row);
        let a = model.fill(schema, tuple, 1);
        let b = fresh.fill(schema, tuple, 1);
        assert_eq!(a.tokens, b.tokens, "row {row}: loaded model diverges");
        assert_eq!(a.text, b.text);
    }
}

#[test]
fn checkpoint_file_roundtrip_is_bit_identical() {
    // The container stores raw f32 bits, so every f32 a training run
    // produces must survive save -> load with identical bits, through an
    // actual file.
    let mut rng = SmallRng::seed_from_u64(11);
    let (_u, benches) = standard_benchmarks(15, &mut rng);
    let tables: Vec<&Table> = vec![&benches[2].table_a];
    let vocab = build_vocab(&tables, &[], 1, 3000);
    let mut cfg = CleaningConfig::tiny();
    cfg.train.steps = 30;
    let mut model = RptC::new(vocab.clone(), cfg.clone());
    model.pretrain(&tables);

    let path = std::env::temp_dir().join("rpt_checkpoint_bitexact_test.json");
    save_file(&model.params, &path).expect("save checkpoint");
    let mut fresh = RptC::new(vocab, cfg);
    load_file(&mut fresh.params, &path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();

    let mut compared = 0usize;
    for ((name_a, t_a), (name_b, t_b)) in model.params.iter().zip(fresh.params.iter()) {
        assert_eq!(name_a, name_b);
        assert_eq!(t_a.shape(), t_b.shape());
        for (x, y) in t_a.data().iter().zip(t_b.data()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name_a}: {x} reloaded as {y} (bits differ)"
            );
            compared += 1;
        }
    }
    assert!(compared > 1000, "only {compared} scalars compared");
}

#[test]
fn checkpoint_into_differently_seeded_model_still_matches() {
    // seeds affect init; loading must fully overwrite it
    let mut rng = SmallRng::seed_from_u64(7);
    let (_u, benches) = standard_benchmarks(15, &mut rng);
    let tables: Vec<&Table> = vec![&benches[1].table_a];
    let vocab = build_vocab(&tables, &[], 1, 3000);
    let mut cfg = CleaningConfig::tiny();
    cfg.train.steps = 40;
    let mut model = RptC::new(vocab.clone(), cfg.clone());
    model.pretrain(&tables);
    let bytes = encode(&model.params, None, None);

    cfg.seed = 999; // different init
    let mut fresh = RptC::new(vocab, cfg);
    let params = Checkpoint::decode(&bytes)
        .expect("decode checkpoint")
        .params;
    apply_params(&mut fresh.params, params).expect("load checkpoint");
    let schema = benches[1].table_a.schema();
    let tuple = benches[1].table_a.row(0);
    assert_eq!(
        model.fill(schema, tuple, 1).tokens,
        fresh.fill(schema, tuple, 1).tokens
    );
}
