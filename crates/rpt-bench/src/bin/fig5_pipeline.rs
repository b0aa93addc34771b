//! **Figure 5** — the end-to-end RPT-E pipeline, stage by stage, on the
//! Abt-Buy-like benchmark: blocking recall/reduction, matcher P/R/F1,
//! transitive-closure clusters with detected conflicts (E2), golden-record
//! consolidation with a learned preference (E3), and the few-shot
//! threshold-calibration curve (E1 / opportunity O2).

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::er::{
    calibrate_threshold_f1, Blocker, Consolidator, ErPipeline, Matcher, MatcherConfig,
};
use rpt_core::train::TrainOpts;
use rpt_datagen::{ErBenchmark, PairSet};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;
use rpt_table::Tuple;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Figure 5: RPT-E pipeline, stage by stage ==\n");
    let w = Workbench::new(100, 55);
    let mut rng = SmallRng::seed_from_u64(3);
    let target = "abt-buy";

    // --- train the matcher collaboratively (leave target out) ----------
    let mut matcher = Matcher::new(
        w.vocab.clone(),
        MatcherConfig {
            train: TrainOpts {
                steps: 900,
                batch_size: 16,
                warmup: 80,
                peak_lr: 2e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    println!("MLM-pretraining matcher trunk on all tables ...");
    matcher
        .pretrain_mlm(&w.all_tables(), 450)
        .expect("training step went non-finite");
    let src_blocker = Blocker::default();
    let sets: Vec<(&ErBenchmark, PairSet)> = w
        .benches
        .iter()
        .filter(|b| b.name != target)
        .map(|b| {
            let cands = src_blocker.candidates(&b.table_a, &b.table_b);
            (b, b.labeled_pairs_from_candidates(&cands, 6, &mut rng))
        })
        .collect();
    let refs: Vec<(&ErBenchmark, &PairSet)> = sets.iter().map(|(b, p)| (*b, p)).collect();
    println!(
        "fine-tuning matcher on {} source benchmarks ...",
        refs.len()
    );
    matcher.train(&refs).expect("training step went non-finite");

    // --- few-shot calibration curve, on the *candidate* distribution ----
    let bench = w.bench(target);
    println!("\n-- few-shot threshold calibration (k labeled target pairs) --");
    println!("{:>4} {:>10} {:>8}", "k", "threshold", "F1");
    let blocker = Blocker::default();
    let candidates = blocker.candidates(&bench.table_a, &bench.table_b);
    let cand_labels: Vec<bool> = candidates
        .iter()
        .map(|&(i, j)| bench.is_match(i, j))
        .collect();
    let cand_scores = matcher.score_pairs(bench, &candidates);
    // the user's labeled pool: a third known matches, the rest random
    // blocked candidates
    use rpt_rng::SliceRandom;
    let mut pos_pool = bench.all_matches();
    pos_pool.shuffle(&mut rng);
    let mut rand_pool = candidates.clone();
    rand_pool.shuffle(&mut rng);
    let mut curve = Vec::new();
    let mut threshold8 = 0.5;
    for k in [0usize, 3, 6, 12, 24] {
        let threshold = if k == 0 {
            0.5
        } else {
            let mut sample: Vec<(usize, usize)> = pos_pool.iter().copied().take(k / 3).collect();
            sample.extend(rand_pool.iter().copied().take(k - k / 3));
            let labels: Vec<bool> = sample.iter().map(|&(i, j)| bench.is_match(i, j)).collect();
            let scores = matcher.score_pairs(bench, &sample);
            calibrate_threshold_f1(&scores, &labels)
        };
        let conf = rpt_nn::metrics::BinaryConfusion::from_pairs(
            cand_scores
                .iter()
                .map(|&s| s >= threshold)
                .zip(cand_labels.iter().copied()),
        );
        println!(
            "{:>4} {:>10} {:>8}",
            k,
            format!("{threshold:.2}"),
            f2(conf.f1())
        );
        curve.push(rpt_json::json!({"k": k, "threshold": threshold, "f1": conf.f1()}));
        if k == 12 {
            threshold8 = threshold;
        }
    }
    matcher.set_threshold(threshold8);

    // --- golden-record preference from E3-style user examples ----------
    // the paper's E3: "iPhone 10 is preferred over iPhone 9", "iPhone 12
    // over iPhone 10" — pairwise examples over the target schema, from
    // which the direction ("newer") is inferred
    let wal = w.bench("walmart-amazon");
    let t = |product: &str, year: i64| {
        Tuple::new(vec![
            rpt_table::Value::text(product),
            rpt_table::Value::text("apple"),
            rpt_table::Value::Int(year),
            rpt_table::Value::Null,
            rpt_table::Value::Null,
        ])
    };
    let examples: Vec<(Tuple, Tuple)> = vec![
        (t("iphone 10", 2017), t("iphone 9", 2016)),
        (t("iphone 12", 2020), t("iphone 10", 2017)),
    ];
    let consolidator = Consolidator::learn(wal.table_a.schema(), &examples);
    println!(
        "\nlearned consolidation preferences: {:?}",
        consolidator
            .preferences()
            .iter()
            .map(|(c, p)| format!(
                "{} -> {}",
                wal.table_a.schema().name(*c),
                p.word(wal.table_a.schema().name(*c))
            ))
            .collect::<Vec<_>>()
    );

    // --- run the full pipeline -----------------------------------------
    let mut pipeline = ErPipeline::new(Blocker::default(), matcher);
    pipeline.consolidator = consolidator;
    let report = pipeline.evaluate(bench, &w.universe);

    println!("\n-- pipeline stages on {target} --");
    println!(
        "blocking     : recall {} | reduction {} | {} candidates",
        f2(report.blocking.recall),
        f2(report.blocking.reduction_ratio),
        report.blocking.n_candidates
    );
    println!(
        "matcher      : F1 {} (p {} r {})",
        f2(report.matcher.f1()),
        f2(report.matcher.precision()),
        f2(report.matcher.recall())
    );
    println!(
        "clustering   : {} clusters ({} non-trivial) | purity {} | pair p/r {} / {}",
        report.n_clusters,
        report.n_nontrivial,
        f2(report.cluster_purity),
        f2(report.pair_precision),
        f2(report.pair_recall)
    );
    println!(
        "conflicts    : {} flagged for active-learning review (E2)",
        report.n_conflicts
    );
    println!(
        "consolidation: brand canonicalization accuracy {}",
        if report.consolidation_brand_acc.is_nan() {
            "-".into()
        } else {
            f2(report.consolidation_brand_acc)
        }
    );

    emit_artifact(
        "fig5_pipeline",
        &rpt_json::json!({
            "experiment": "fig5_pipeline",
            "target": target,
            "few_shot_curve": curve,
            "blocking": {"recall": report.blocking.recall, "reduction": report.blocking.reduction_ratio, "candidates": report.blocking.n_candidates},
            "matcher": {"f1": report.matcher.f1(), "precision": report.matcher.precision(), "recall": report.matcher.recall()},
            "clustering": {"clusters": report.n_clusters, "non_trivial": report.n_nontrivial, "purity": report.cluster_purity,
                           "pair_precision": report.pair_precision, "pair_recall": report.pair_recall},
            "conflicts": report.n_conflicts,
            "consolidation_brand_acc": report.consolidation_brand_acc,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
