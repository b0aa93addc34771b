//! Quickstart: the three RPT architectures in one minute.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a small product benchmark, pretrains a miniature RPT-C by
//! tuple denoising, fills a masked value, trains a miniature RPT-E matcher
//! and scores a candidate pair, and runs RPT-I span extraction with a
//! question inferred from a single example.

use rpt::core::cleaning::{CleaningConfig, Filler, MaskPolicy, RptC};
use rpt::core::er::{Matcher, MatcherConfig};
use rpt::core::ie::{infer_attribute, question_for, IeConfig, RptI};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::benchmarks::ie_tasks;
use rpt::datagen::standard_benchmarks;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    let (universe, benches) = standard_benchmarks(40, &mut rng);
    let tables: Vec<&rpt::table::Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 5000);
    println!(
        "universe: {} entities | vocab: {} tokens\n",
        universe.len(),
        vocab.len()
    );

    // ---- RPT-C: denoising pretraining + fill -------------------------
    println!("[RPT-C] pretraining on tuples (attribute-value masking)...");
    let mut rptc = RptC::new(
        vocab.clone(),
        CleaningConfig {
            mask_policy: MaskPolicy::AttributeValue,
            train: TrainOpts {
                steps: 250,
                batch_size: 8,
                warmup: 30,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let abt = &benches[0];
    rptc.pretrain(&[&abt.table_a, &abt.table_b]);
    let row = abt.table_a.row(0);
    let fill = rptc.fill(abt.table_a.schema(), row, 1);
    println!(
        "  tuple: {:?}\n  masked manufacturer → predicted {:?}\n",
        row.get(0).render(),
        fill.text
    );

    // ---- RPT-E: matcher + one pair ------------------------------------
    println!("[RPT-E] training the matcher on sibling benchmarks...");
    let mut matcher = Matcher::new(
        vocab.clone(),
        MatcherConfig {
            train: TrainOpts {
                steps: 200,
                batch_size: 8,
                warmup: 25,
                peak_lr: 2e-3,
                ..Default::default()
            },
            ..MatcherConfig::tiny()
        },
    );
    let sets: Vec<_> = benches[1..]
        .iter()
        .map(|b| (b, b.labeled_pairs(3, &universe, &mut rng)))
        .collect();
    let refs: Vec<_> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs).expect("training step went non-finite");
    let (i, j) = abt.all_matches()[0];
    let p_match = matcher.score_pairs(abt, &[(i, j)])[0];
    let p_rand = matcher.score_pairs(abt, &[(i, (j + 7) % abt.table_b.len())])[0];
    println!("  true match scored {p_match:.2}, random pair scored {p_rand:.2}\n");

    // ---- RPT-I: one-shot task interpretation + extraction -------------
    println!("[RPT-I] span extraction with an inferred question...");
    let tasks = ie_tasks(&universe, 120, &mut rng);
    let mut rpti = RptI::new(
        vocab,
        IeConfig {
            train: TrainOpts {
                steps: 250,
                batch_size: 8,
                warmup: 30,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..IeConfig::tiny()
        },
    );
    let (train, test) = tasks.split_at(100);
    rpti.train(train).expect("training step went non-finite");
    let example = &train[0];
    let attr = infer_attribute(&[(&example.description, &example.answer)]);
    let target = test
        .iter()
        .find(|t| Some(t.attr) == attr)
        .unwrap_or(&test[0]);
    let question = question_for(attr.unwrap_or(target.attr));
    let answer = rpti.extract(&question, &target.description);
    println!(
        "  example label {:?} → inferred question {:?}",
        example.answer, question
    );
    println!("  context: {:?}", target.description);
    println!("  extracted {:?} (gold {:?})", answer, target.answer);
}
