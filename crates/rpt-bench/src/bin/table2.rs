//! **Table 2** — F-measure of RPT-E vs ZeroER vs DeepMatcher on the
//! Abt-Buy-like (D1) and Amazon-Google-like (D2) benchmarks.
//!
//! Protocol (paper §3 "Preliminary Results"):
//! * **RPT-E** never sees target labels: its matcher is MLM-pretrained on
//!   raw tables and fine-tuned on the labeled pairs of the *other four*
//!   benchmarks (leave-one-out collaborative training), with the decision
//!   threshold calibrated on 8 target examples (few-shot, O2).
//! * **ZeroER** is fully unsupervised on the target's blocked candidates.
//! * **DeepMatcher** is trained on hundreds of labeled pairs *from the
//!   target* — the supervised upper-ish bound the paper compares against.
//!
//! An extra section reports the collaborative-training ablation: training
//! the matcher on a single source benchmark instead of all four.

use rpt_baselines::{DeepMatcherLike, JaccardMatcher, PairScorer, ZeroEr};
use rpt_bench::{emit_artifact, evaluate_scorer, f2, Workbench};
use rpt_core::er::{calibrate_threshold_f1, Blocker, Matcher, MatcherConfig};
use rpt_core::train::TrainOpts;
use rpt_datagen::{ErBenchmark, PairSet};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

/// Wraps the RPT-E matcher as a [`PairScorer`].
struct RptEScorer {
    matcher: Matcher,
}

impl PairScorer for RptEScorer {
    fn score(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.matcher.score_pairs(bench, pairs)
    }
    fn name(&self) -> &str {
        "RPT-E"
    }
    fn threshold(&self) -> f32 {
        self.matcher.threshold()
    }
}

fn train_rpt_e(
    w: &Workbench,
    target: &str,
    sources: &[&str],
    rng: &mut SmallRng,
    steps: usize,
) -> RptEScorer {
    let cfg = MatcherConfig {
        train: TrainOpts {
            steps,
            batch_size: 16,
            warmup: 60,
            peak_lr: 2e-3,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut matcher = Matcher::new(w.vocab.clone(), cfg);
    // unsupervised MLM pretraining on every table (incl. target: no labels)
    matcher
        .pretrain_mlm(&w.all_tables(), 600)
        .expect("training step went non-finite");
    let blocker = Blocker::default();
    let sets: Vec<(String, PairSet)> = sources
        .iter()
        .map(|name| {
            let b = w.bench(name);
            let cands = blocker.candidates(&b.table_a, &b.table_b);
            (
                name.to_string(),
                b.labeled_pairs_from_candidates(&cands, 6, rng),
            )
        })
        .collect();
    let refs: Vec<(&ErBenchmark, &PairSet)> =
        sets.iter().map(|(name, ps)| (w.bench(name), ps)).collect();
    matcher.train(&refs).expect("training step went non-finite");

    // few-shot threshold calibration (E1-style): the user supplies 8
    // known matching pairs, plus 24 random blocked candidates they label
    // (almost all negative) — then pick the F1-maximizing threshold
    let tb = w.bench(target);
    let candidates = blocker.candidates(&tb.table_a, &tb.table_b);
    use rpt_rng::SliceRandom;
    let mut sample: Vec<(usize, usize)> = tb.all_matches();
    sample.shuffle(rng);
    sample.truncate(8);
    let mut rand_cands = candidates.clone();
    rand_cands.shuffle(rng);
    for c in rand_cands.into_iter().take(24) {
        if !sample.contains(&c) {
            sample.push(c);
        }
    }
    let labels: Vec<bool> = sample.iter().map(|&(i, j)| tb.is_match(i, j)).collect();
    let scores = matcher.score_pairs(tb, &sample);
    let t = calibrate_threshold_f1(&scores, &labels);
    matcher.set_threshold(t);
    RptEScorer { matcher }
}

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Table 2: F-measure on D1 (abt-buy) and D2 (amazon-google) ==\n");
    let w = Workbench::new(100, 7);
    let blocker = Blocker::default();
    let mut rng = SmallRng::seed_from_u64(99);
    let all_names = [
        "abt-buy",
        "amazon-google",
        "walmart-amazon",
        "itunes-amazon",
        "sigmod-contest",
    ];
    let steps = 2200usize;

    let mut results: Vec<rpt_json::Json> = Vec::new();
    let mut rows: Vec<(String, f64, f64)> = Vec::new(); // model, d1, d2
    let mut cell = std::collections::HashMap::new();

    for target in ["abt-buy", "amazon-google"] {
        let bench = w.bench(target);
        println!("-- target {target} --");

        // RPT-E (leave-one-out)
        let sources: Vec<&str> = all_names.iter().copied().filter(|&n| n != target).collect();
        let mut rpte = train_rpt_e(&w, target, &sources, &mut rng, steps);
        let conf = evaluate_scorer(&mut rpte, bench, &blocker);
        println!(
            "  RPT-E        F1 {} (p {} r {}, threshold {:.2})",
            f2(conf.f1()),
            f2(conf.precision()),
            f2(conf.recall()),
            rpte.threshold()
        );
        cell.insert(("RPT-E", target), conf.f1());
        results.push(rpt_json::json!({"target": target, "model": "RPT-E", "f1": conf.f1(), "precision": conf.precision(), "recall": conf.recall()}));

        // ZeroER (unsupervised on target)
        let mut zeroer = ZeroEr::new();
        let conf = evaluate_scorer(&mut zeroer, bench, &blocker);
        println!(
            "  ZeroER       F1 {} (p {} r {})",
            f2(conf.f1()),
            f2(conf.precision()),
            f2(conf.recall())
        );
        cell.insert(("ZeroER", target), conf.f1());
        results.push(rpt_json::json!({"target": target, "model": "ZeroER", "f1": conf.f1(), "precision": conf.precision(), "recall": conf.recall()}));

        // DeepMatcher (supervised on target)
        let mut dm = DeepMatcherLike::new(11);
        let train_pairs = bench.labeled_pairs(4, &w.universe, &mut rng);
        dm.train(bench, &train_pairs);
        let conf = evaluate_scorer(&mut dm, bench, &blocker);
        println!(
            "  DeepMatcher  F1 {} (p {} r {})  [trained on {} target pairs]",
            f2(conf.f1()),
            f2(conf.precision()),
            f2(conf.recall()),
            train_pairs.pairs.len()
        );
        cell.insert(("DeepMatcher", target), conf.f1());
        results.push(rpt_json::json!({"target": target, "model": "DeepMatcher", "f1": conf.f1(), "precision": conf.precision(), "recall": conf.recall(), "target_train_pairs": train_pairs.pairs.len()}));

        // Jaccard floor
        let mut jac = JaccardMatcher { threshold: 0.4 };
        let conf = evaluate_scorer(&mut jac, bench, &blocker);
        println!("  Jaccard(0.4) F1 {} (sanity floor)", f2(conf.f1()));
        cell.insert(("Jaccard", target), conf.f1());
        results.push(rpt_json::json!({"target": target, "model": "Jaccard", "f1": conf.f1()}));

        // Ablation: single-source transfer instead of collaborative
        let single_source = if target == "abt-buy" {
            "amazon-google"
        } else {
            "abt-buy"
        };
        let mut single = train_rpt_e(&w, target, &[single_source], &mut rng, steps);
        let conf = evaluate_scorer(&mut single, bench, &blocker);
        println!(
            "  RPT-E(single source {single_source}) F1 {} (collaborative ablation)",
            f2(conf.f1())
        );
        cell.insert(("RPT-E-single", target), conf.f1());
        results.push(rpt_json::json!({"target": target, "model": "RPT-E-single-source", "f1": conf.f1(), "source": single_source}));
        println!();
    }

    println!("-- paper-style summary (F-measure) --");
    println!("{:<22} {:>9} {:>15}", "", "Abt-Buy", "Amazon-Google");
    for model in ["RPT-E", "ZeroER", "DeepMatcher", "Jaccard", "RPT-E-single"] {
        rows.push((
            model.to_string(),
            *cell.get(&(model, "abt-buy")).unwrap_or(&f64::NAN),
            *cell.get(&(model, "amazon-google")).unwrap_or(&f64::NAN),
        ));
        let (_, d1, d2) = rows.last().unwrap();
        println!("{model:<22} {:>9} {:>15}", f2(*d1), f2(*d2));
    }
    println!(
        "\npaper reported:        RPT-E 0.72 / 0.53, ZeroER 0.52 / 0.48, DeepMatcher 0.63 / 0.69"
    );

    emit_artifact(
        "table2",
        &rpt_json::json!({
            "experiment": "table2",
            "results": results,
            "paper": {"RPT-E": [0.72, 0.53], "ZeroER": [0.52, 0.48], "DeepMatcher": [0.63, 0.69]},
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("total {:.0?}", t0.elapsed());
}
