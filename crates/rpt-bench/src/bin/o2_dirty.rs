//! **Opportunity O2 (§2.2)** — pretraining on dirty tables, plus the
//! hybrid detect-and-repair loop.
//!
//! The paper asks: "Many tables are dirty. Pretraining RPT-C on these dirty
//! tables may mislead RPT-C." This harness measures fill quality on a clean
//! held-out view after pretraining on tables corrupted at increasing rates,
//! then demonstrates the hybrid detector (model disagreement + robust
//! z-scores) on a corrupted table.

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::cleaning::{evaluate_fill, CleaningConfig, MaskPolicy, RptC};
use rpt_core::detect::{detect_errors, score_detection, DetectorConfig};
use rpt_core::train::TrainOpts;
use rpt_datagen::{inject_errors, ErrorSpec};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== O2: dirty-data robustness ==\n");
    let w = Workbench::new(100, 81);
    let test = &w.bench("amazon-google").table_a;

    // --- fill quality vs pretraining corruption rate --------------------
    println!("-- pretrain on corrupted tables, evaluate on clean held-out --");
    println!(
        "{:>10} | {:>7} {:>9} | {:>9}",
        "dirt rate", "mk-ex", "mk-F1", "pr-num"
    );
    let mut series = Vec::new();
    for rate in [0.0, 0.1, 0.2, 0.4] {
        let mut rng = SmallRng::seed_from_u64(9);
        let abt = w.bench("abt-buy");
        let wal = w.bench("walmart-amazon");
        let mut tables = [
            abt.table_a.clone(),
            abt.table_b.clone(),
            wal.table_a.clone(),
            wal.table_b.clone(),
        ];
        let mut injected = 0usize;
        if rate > 0.0 {
            for t in tables.iter_mut() {
                injected += inject_errors(t, &ErrorSpec::uniform(rate), &mut rng).len();
            }
        }
        let refs: Vec<&rpt_table::Table> = tables.iter().collect();
        let mut model = RptC::new(
            w.vocab.clone(),
            CleaningConfig {
                mask_policy: MaskPolicy::Mixed,
                train: TrainOpts {
                    steps: 700,
                    batch_size: 16,
                    warmup: 70,
                    peak_lr: 3e-3,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        model.pretrain(&refs);
        let maker = evaluate_fill(&mut model, test, 1, 30, &w.vocab);
        let price = evaluate_fill(&mut model, test, 2, 30, &w.vocab);
        println!(
            "{:>10} | {:>7} {:>9} | {:>9}",
            rate,
            f2(maker.exact),
            f2(maker.token_f1),
            if price.numeric.is_nan() {
                "-".into()
            } else {
                f2(price.numeric)
            },
        );
        series.push(rpt_json::json!({
            "rate": rate,
            "injected_cells": injected,
            "manufacturer": {"exact": maker.exact, "token_f1": maker.token_f1},
            "price_numeric": if price.numeric.is_nan() { None } else { Some(price.numeric) },
        }));
    }

    // --- hybrid detection on a corrupted table --------------------------
    println!("\n-- hybrid detection (model disagreement + robust z) --");
    let mut rng = SmallRng::seed_from_u64(10);
    let abt = w.bench("abt-buy");
    let wal = w.bench("walmart-amazon");
    let mut model = RptC::new(
        w.vocab.clone(),
        CleaningConfig {
            mask_policy: MaskPolicy::Mixed,
            train: TrainOpts {
                steps: 700,
                batch_size: 16,
                warmup: 70,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    model.pretrain(&[&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b]);

    let mut dirty = w.bench("amazon-google").table_a.clone();
    let errors = inject_errors(
        &mut dirty,
        &ErrorSpec {
            null_rate: 0.0,
            typo_rate: 0.05,
            swap_rate: 0.10,
        },
        &mut rng,
    );
    let cols = vec![1usize, 2]; // manufacturer + price
    let suspects = detect_errors(&mut model, &dirty, &cols, &DetectorConfig::default());
    let eval = score_detection(&suspects, &errors, &cols);
    println!(
        "injected {} errors in scanned columns; flagged {} cells",
        errors.iter().filter(|e| cols.contains(&e.col)).count(),
        suspects.len()
    );
    println!(
        "detection precision {} recall {}",
        f2(eval.precision()),
        f2(eval.recall())
    );

    emit_artifact(
        "o2_dirty",
        &rpt_json::json!({
            "experiment": "o2_dirty",
            "pretraining_corruption_sweep": series,
            "detection": {
                "flagged": suspects.len(),
                "precision": eval.precision(),
                "recall": eval.recall(),
            },
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
