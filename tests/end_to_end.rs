//! Cross-crate integration tests: miniature versions of the paper's three
//! experiments, checking the *shape* of each result end-to-end.

use rpt::baselines::{BartText, JaccardMatcher, PairScorer, ZeroEr};
use rpt::core::cleaning::{evaluate_fill, CleaningConfig, MaskPolicy, RptC};
use rpt::core::er::{Blocker, ErPipeline, Matcher, MatcherConfig};
use rpt::core::ie::{infer_attribute, IeConfig, RptI};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::benchmarks::ie_tasks;
use rpt::datagen::{standard_benchmarks, text_corpus};
use rpt::nn::metrics::BinaryConfusion;
use rpt::table::Table;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn tiny_train(steps: usize) -> TrainOpts {
    TrainOpts {
        steps,
        batch_size: 8,
        warmup: steps / 6,
        peak_lr: 3e-3,
        ..Default::default()
    }
}

/// Table-1 shape in miniature: relational pretraining beats text-only
/// pretraining at filling masked tuple values.
#[test]
fn rpt_c_beats_text_only_bart_on_relational_fills() {
    let mut rng = SmallRng::seed_from_u64(1);
    let (universe, benches) = standard_benchmarks(50, &mut rng);
    let corpus = text_corpus(&universe, 400, &mut rng);
    let tables: Vec<&Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &corpus, 1, 8000);

    let mut cfg = CleaningConfig::tiny();
    cfg.mask_policy = MaskPolicy::Mixed;
    cfg.train = tiny_train(250);
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.n_heads = 4;

    let abt = &benches[0];
    let wal = &benches[2];
    let mut rptc = RptC::new(vocab.clone(), cfg.clone());
    rptc.pretrain(&[&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b]);

    let mut bart = BartText::new(vocab.clone(), cfg);
    bart.pretrain_text(&corpus).unwrap();

    let test = &benches[1].table_a; // amazon-google: unseen by both
    let rpt_maker = evaluate_fill(&mut rptc, test, 1, 20, &vocab);
    let bart_maker = evaluate_fill(&mut bart, test, 1, 20, &vocab);
    assert!(
        rpt_maker.token_f1 > bart_maker.token_f1,
        "RPT-C {:.3} must beat BART {:.3} on manufacturer fills",
        rpt_maker.token_f1,
        bart_maker.token_f1
    );
}

/// Table-2 shape in miniature: the transferred matcher beats the
/// unsupervised EM baseline on a held-out benchmark.
#[test]
fn rpt_e_beats_zeroer_on_held_out_benchmark() {
    let mut rng = SmallRng::seed_from_u64(2);
    let (_universe, benches) = standard_benchmarks(50, &mut rng);
    let tables: Vec<&Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 8000);

    let mut cfg = MatcherConfig::tiny();
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.n_heads = 4;
    cfg.train = tiny_train(450);
    cfg.train.peak_lr = 2e-3;
    let mut matcher = Matcher::new(vocab, cfg);
    matcher.pretrain_mlm(&tables, 150);
    // negatives from each source's blocked candidates (the deployment
    // distribution — see DESIGN.md)
    let blocker = Blocker::default();
    let sets: Vec<_> = benches[1..]
        .iter()
        .map(|b| {
            let cands = blocker.candidates(&b.table_a, &b.table_b);
            (b, b.labeled_pairs_from_candidates(&cands, 6, &mut rng))
        })
        .collect();
    let refs: Vec<_> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs);

    let target = &benches[0];
    let blocker = Blocker::default();
    let candidates = blocker.candidates(&target.table_a, &target.table_b);
    let labels: Vec<bool> = candidates
        .iter()
        .map(|&(i, j)| target.is_match(i, j))
        .collect();

    // best-threshold F1 for both (isolates representation quality from
    // calibration, which fig5/table2 handle separately)
    let best_f1 = |scores: &[f32]| -> f64 {
        let mut best: f64 = 0.0;
        for step in 1..40 {
            let t = step as f32 * 0.025;
            let conf = BinaryConfusion::from_pairs(
                scores.iter().map(|&s| s >= t).zip(labels.iter().copied()),
            );
            best = best.max(conf.f1());
        }
        best
    };
    let rpt_scores = matcher.score_pairs(target, &candidates);
    let mut zeroer = ZeroEr::new();
    let zeroer_scores = zeroer.score(target, &candidates);
    // RPT-E's threshold is few-shot calibrated (it has example labels);
    // ZeroER by definition has zero labels, so it operates at its native
    // responsibility cutoff of 0.5 — exactly the paper's comparison.
    let zeroer_conf = BinaryConfusion::from_pairs(
        zeroer_scores
            .iter()
            .map(|&s| s >= 0.5)
            .zip(labels.iter().copied()),
    );
    let (rpt_f1, zeroer_f1) = (best_f1(&rpt_scores), zeroer_conf.f1());
    assert!(
        rpt_f1 > zeroer_f1,
        "RPT-E {rpt_f1:.3} must beat ZeroER {zeroer_f1:.3}"
    );
    assert!(rpt_f1 > 0.35, "RPT-E best F1 {rpt_f1:.3} too weak");
}

/// The full four-stage pipeline runs and produces coherent artifacts.
#[test]
fn er_pipeline_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(3);
    let (universe, benches) = standard_benchmarks(30, &mut rng);
    let tables: Vec<&Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 6000);
    let mut matcher = Matcher::new(
        vocab,
        MatcherConfig {
            train: tiny_train(200),
            ..MatcherConfig::tiny()
        },
    );
    let sets: Vec<_> = benches[1..]
        .iter()
        .map(|b| (b, b.labeled_pairs(3, &universe, &mut rng)))
        .collect();
    let refs: Vec<_> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs);

    let mut pipeline = ErPipeline::new(Blocker::default(), matcher);
    let run = pipeline.run(&benches[0]);
    let n_nodes = benches[0].table_a.len() + benches[0].table_b.len();
    assert_eq!(run.clusters.assignment.len(), n_nodes);
    // golden records carry the target schema arity
    for (_, golden) in &run.golden_records {
        assert_eq!(golden.arity(), benches[0].table_a.schema().arity());
    }
    let report = pipeline.evaluate(&benches[0], &universe);
    assert!(report.blocking.recall > 0.7);
    assert!(report.cluster_purity > 0.2);
}

/// Fig-6 shape in miniature: the trained extractor finds spans, and task
/// interpretation recovers the right attribute from one example.
#[test]
fn rpt_i_extracts_and_interprets() {
    let mut rng = SmallRng::seed_from_u64(4);
    let (universe, _) = standard_benchmarks(40, &mut rng);
    let tasks = ie_tasks(&universe, 150, &mut rng);
    let texts: Vec<String> = tasks.iter().map(|t| t.description.clone()).collect();
    let vocab = build_vocab(&[], &texts, 1, 6000);
    let mut cfg = IeConfig::tiny();
    cfg.train = tiny_train(250);
    let mut rpti = RptI::new(vocab, cfg);
    let (train, test) = tasks.split_at(120);
    rpti.train(train);
    let eval = rpti.evaluate(test, None);
    assert!(eval.token_f1 > 0.3, "IE token F1 {:.3}", eval.token_f1);

    // one-shot interpretation across all four attributes
    let mut correct = 0;
    let mut total = 0;
    for attr in ["memory", "screen", "year", "brand"] {
        if let Some(ex) = train.iter().find(|t| t.attr == attr) {
            total += 1;
            if infer_attribute(&[(&ex.description, &ex.answer)]) == Some(attr) {
                correct += 1;
            }
        }
    }
    assert!(
        correct >= total - 1,
        "task interpretation: {correct}/{total}"
    );
}

/// The jaccard sanity floor is not above a trained matcher's best
/// operating point (guards against the learned model degenerating).
#[test]
fn trained_matcher_not_dominated_by_jaccard_floor() {
    let mut rng = SmallRng::seed_from_u64(5);
    let (universe, benches) = standard_benchmarks(40, &mut rng);
    let tables: Vec<&Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 6000);
    let mut cfg = MatcherConfig::tiny();
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.n_heads = 4;
    cfg.train = tiny_train(300);
    cfg.train.peak_lr = 2e-3;
    let mut matcher = Matcher::new(vocab, cfg);
    let sets: Vec<_> = benches[1..]
        .iter()
        .map(|b| (b, b.labeled_pairs(3, &universe, &mut rng)))
        .collect();
    let refs: Vec<_> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs);

    let target = &benches[0];
    let blocker = Blocker::default();
    let candidates = blocker.candidates(&target.table_a, &target.table_b);
    let labels: Vec<bool> = candidates
        .iter()
        .map(|&(i, j)| target.is_match(i, j))
        .collect();
    let best_f1 = |scores: &[f32]| -> f64 {
        let mut best: f64 = 0.0;
        for step in 1..40 {
            let t = step as f32 * 0.025;
            let conf = BinaryConfusion::from_pairs(
                scores.iter().map(|&s| s >= t).zip(labels.iter().copied()),
            );
            best = best.max(conf.f1());
        }
        best
    };
    let m = best_f1(&matcher.score_pairs(target, &candidates));
    let j = best_f1(&JaccardMatcher::default().score(target, &candidates));
    assert!(
        m > j * 0.8,
        "trained matcher {m:.3} collapsed far below the jaccard floor {j:.3}"
    );
}
