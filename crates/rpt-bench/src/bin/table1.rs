//! **Table 1** — RPT-C vs BART on masked-value recovery.
//!
//! Protocol (paper §2.2 "Preliminary Results"): pretrain RPT-C on product
//! tables (Abt-Buy-like and Walmart-Amazon-like views), pretrain the BART
//! baseline — same architecture, same vocabulary — on product *prose*;
//! then mask attribute values in the unseen Amazon-Google-like view and ask
//! both to predict the original value. The paper reports example rows
//! (prices, manufacturers, a title); we print those plus aggregate
//! exact-match / token-F1 / numeric-closeness, which the paper's examples
//! gesture at.

use rpt_baselines::BartText;
use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::cleaning::{evaluate_fill, CleaningConfig, Filler, MaskPolicy, RptC};
use rpt_core::train::TrainOpts;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Table 1: RPT-C vs BART (masked-value recovery) ==\n");
    let w = Workbench::new(120, 42);
    let train_opts = TrainOpts {
        steps: 1200,
        batch_size: 16,
        warmup: 100,
        peak_lr: 3e-3,
        ..Default::default()
    };
    // FD-aware attribute-value masking: the fig4 ablation shows it is the
    // strongest §2.2 policy at this training budget
    let cfg = CleaningConfig {
        mask_policy: MaskPolicy::FdAware { min_strength: 0.75 },
        train: train_opts.clone(),
        ..Default::default()
    };

    // RPT-C: pretrained on tables of the two sibling benchmarks
    let abt = w.bench("abt-buy");
    let wal = w.bench("walmart-amazon");
    let train_tables = [&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b];
    let mut rptc = RptC::new(w.vocab.clone(), cfg.clone());
    println!(
        "pretraining RPT-C on {} tuples of tables ...",
        train_tables.iter().map(|t| t.len()).sum::<usize>()
    );
    let losses = rptc.pretrain(&train_tables);
    println!(
        "  loss {:.3} -> {:.3}  ({} steps, {:.0?})",
        losses[..20].iter().sum::<f32>() / 20.0,
        losses[losses.len() - 20..].iter().sum::<f32>() / 20.0,
        losses.len(),
        t0.elapsed()
    );

    // BART: same architecture, pretrained on prose only
    let mut bart = BartText::new(w.vocab.clone(), cfg);
    println!("pretraining BART on {} prose sentences ...", w.corpus.len());
    let losses = bart.pretrain_text(&w.corpus).expect("BART pretraining");
    println!(
        "  loss {:.3} -> {:.3}  ({} steps, {:.0?})",
        losses[..20].iter().sum::<f32>() / 20.0,
        losses[losses.len() - 20..].iter().sum::<f32>() / 20.0,
        losses.len(),
        t0.elapsed()
    );

    // Held-out evaluation: amazon-google, never seen by either model
    let test = &w.bench("amazon-google").table_a;
    let (col_title, col_maker, col_price) = (0usize, 1usize, 2usize);

    println!("\n-- example rows (paper-style) --");
    println!(
        "{:<34} {:<16} {:>8} | {:<10} | {:<18} | {:<18}",
        "title", "manufacturer", "price", "masked", "RPT-C", "BART"
    );
    let examples = [
        (0usize, col_price),
        (1, col_price),
        (2, col_maker),
        (3, col_maker),
        (4, col_title),
    ];
    let mut example_rows = Vec::new();
    for &(row, col) in &examples {
        let tuple = test.row(row);
        let gold = tuple.get(col).render();
        let p_rpt = rptc.fill(test.schema(), tuple, col);
        let p_bart = bart.fill(test.schema(), tuple, col);
        println!(
            "{:<34} {:<16} {:>8} | {:<10} | {:<18} | {:<18}",
            truncate(&tuple.get(0).render(), 33),
            truncate(&tuple.get(1).render(), 15),
            tuple.get(2).render(),
            test.schema().name(col),
            truncate(&p_rpt.text, 17),
            truncate(&p_bart.text, 17),
        );
        example_rows.push(rpt_json::json!({
            "row": row,
            "masked_column": test.schema().name(col),
            "truth": gold,
            "rpt_c": p_rpt.text,
            "bart": p_bart.text,
        }));
    }

    println!("\n-- aggregates over {} rows per column --", 40);
    println!(
        "{:<14} {:<8} | {:>6} {:>9} {:>9}",
        "column", "model", "exact", "token-F1", "numeric"
    );
    let mut agg = Vec::new();
    for (col, label) in [
        (col_price, "price"),
        (col_maker, "manufacturer"),
        (col_title, "title"),
    ] {
        for (filler, fname) in [
            (&mut rptc as &mut dyn Filler, "RPT-C"),
            (&mut bart as &mut dyn Filler, "BART"),
        ] {
            let eval = evaluate_fill(filler, test, col, 40, &w.vocab);
            println!(
                "{:<14} {:<8} | {:>6} {:>9} {:>9}",
                label,
                fname,
                f2(eval.exact),
                f2(eval.token_f1),
                if eval.numeric.is_nan() {
                    "-".into()
                } else {
                    f2(eval.numeric)
                },
            );
            agg.push(rpt_json::json!({
                "column": label,
                "model": fname,
                "exact": eval.exact,
                "token_f1": eval.token_f1,
                "numeric_closeness": if eval.numeric.is_nan() { None } else { Some(eval.numeric) },
                "n": eval.n,
            }));
        }
    }

    emit_artifact(
        "table1",
        &rpt_json::json!({
            "experiment": "table1",
            "examples": example_rows,
            "aggregates": agg,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}
