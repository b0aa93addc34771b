//! Entity resolution end-to-end: the full RPT-E pipeline with golden
//! records.
//!
//! ```bash
//! cargo run --release --example entity_resolution
//! ```
//!
//! Blocker → collaboratively-trained matcher → transitive-closure clusters
//! (with conflict detection) → consolidated golden records, plus the
//! PET-style few-shot task interpretation of §3.

use rpt::core::er::{infer_match_patterns, Blocker, ErPipeline, Matcher, MatcherConfig};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::standard_benchmarks;
use rpt::table::Tuple;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(23);
    let (universe, benches) = standard_benchmarks(60, &mut rng);
    let tables: Vec<&rpt::table::Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 8000);
    let target = &benches[2]; // walmart-amazon-like

    // --- train the matcher on the other four benchmarks -----------------
    println!(
        "training matcher collaboratively (target: {}) ...",
        target.name
    );
    let mut matcher = Matcher::new(
        vocab,
        MatcherConfig {
            train: TrainOpts {
                steps: 500,
                batch_size: 16,
                warmup: 50,
                peak_lr: 2e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    matcher
        .pretrain_mlm(&tables, 250)
        .expect("training step went non-finite");
    let sets: Vec<_> = benches
        .iter()
        .filter(|b| b.name != target.name)
        .map(|b| (b, b.labeled_pairs(3, &universe, &mut rng)))
        .collect();
    let refs: Vec<_> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs).expect("training step went non-finite");

    // --- PET-style few-shot interpretation ------------------------------
    let (i1, j1) = target.all_matches()[0];
    let neg_j = (j1 + 3) % target.table_b.len();
    let examples = vec![
        (
            target.table_a.row(i1).clone(),
            target.table_b.row(j1).clone(),
            true,
        ),
        (
            target.table_a.row(i1).clone(),
            target.table_b.row(neg_j).clone(),
            target.is_match(i1, neg_j),
        ),
    ];
    let patterns = infer_match_patterns(target.table_a.schema(), &examples);
    println!(
        "few-shot interpretation: must match {:?}, irrelevant {:?}",
        patterns.must_match, patterns.irrelevant
    );

    // --- run the pipeline ------------------------------------------------
    let mut pipeline = ErPipeline::new(Blocker::default(), matcher);
    let run = pipeline.run(target);
    println!(
        "\nblocking produced {} candidates; {} predicted matches; {} clusters ({} non-trivial); {} conflicts",
        run.candidates.len(),
        run.decisions.iter().filter(|&&d| d).count(),
        run.clusters.len(),
        run.clusters.non_trivial().count(),
        run.conflicts.len()
    );

    // --- show golden records ----------------------------------------------
    println!("\n-- sample golden records --");
    let na = target.table_a.len();
    for (cid, golden) in run.golden_records.iter().take(5) {
        let members = &run.clusters.members[*cid];
        println!("cluster {cid} ({} members):", members.len());
        for &n in members.iter().take(3) {
            let t: &Tuple = if n < na {
                target.table_a.row(n)
            } else {
                target.table_b.row(n - na)
            };
            println!(
                "    {:?}",
                t.values().iter().map(|v| v.render()).collect::<Vec<_>>()
            );
        }
        println!(
            "  → golden: {:?}",
            golden
                .values()
                .iter()
                .map(|v| v.render())
                .collect::<Vec<_>>()
        );
    }

    // --- pipeline quality vs ground truth ---------------------------------
    let report = pipeline.evaluate(target, &universe);
    println!(
        "\npipeline quality: blocking recall {:.2} | matcher F1 {:.2} | cluster purity {:.2} | brand consolidation {:.2}",
        report.blocking.recall,
        report.matcher.f1(),
        report.cluster_purity,
        report.consolidation_brand_acc
    );
}
