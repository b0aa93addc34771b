//! **Figure 4** — ablation of the RPT-C architecture's input design and
//! masking policy (the pieces Fig. 4 draws: `[A]`/`[V]` markers, column
//! embeddings, and the §2.2 masking strategies).
//!
//! Variants, each pretrained identically and evaluated on held-out
//! manufacturer/price fills:
//!
//! * `full`          — markers + column embeddings, mixed masking
//! * `-columns`      — no column embeddings
//! * `-markers`      — no `[A]`/`[V]` tokens
//! * `value-mask`    — attribute-value (infilling) masking only
//! * `token-mask`    — BERT-style token masking only
//! * `fd-aware`      — value masking restricted to FD-determined columns

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::cleaning::{evaluate_fill, CleaningConfig, MaskPolicy, RptC};
use rpt_core::train::TrainOpts;
use rpt_tokenizer::EncoderOptions;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Figure 4: RPT-C input & masking ablation ==\n");
    let w = Workbench::new(100, 13);
    let abt = w.bench("abt-buy");
    let wal = w.bench("walmart-amazon");
    let train_tables = [&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b];
    let test = &w.bench("amazon-google").table_a;

    let base_train = TrainOpts {
        steps: 700,
        batch_size: 16,
        warmup: 70,
        peak_lr: 3e-3,
        ..Default::default()
    };
    let variant =
        |name: &str, markers: bool, column_ids: bool, max_cols: usize, policy: MaskPolicy| {
            let mut cfg = CleaningConfig {
                mask_policy: policy,
                train: base_train.clone(),
                encoder_opts: EncoderOptions {
                    markers,
                    column_ids,
                    ..Default::default()
                },
                ..Default::default()
            };
            cfg.model.max_cols = max_cols;
            (name.to_string(), cfg)
        };

    let variants = vec![
        variant("full (mixed)", true, true, 16, MaskPolicy::Mixed),
        variant("- column embeddings", true, false, 0, MaskPolicy::Mixed),
        variant("- [A]/[V] markers", false, true, 16, MaskPolicy::Mixed),
        variant(
            "value-mask only",
            true,
            true,
            16,
            MaskPolicy::AttributeValue,
        ),
        variant(
            "token-mask only",
            true,
            true,
            16,
            MaskPolicy::Token { max_masks: 3 },
        ),
        variant(
            "fd-aware value-mask",
            true,
            true,
            16,
            MaskPolicy::FdAware { min_strength: 0.8 },
        ),
    ];

    println!(
        "{:<22} | {:>7} {:>9} | {:>7} {:>9} {:>9}",
        "variant", "mk-ex", "mk-F1", "pr-ex", "pr-F1", "pr-num"
    );
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let mut model = RptC::new(w.vocab.clone(), cfg);
        model.pretrain(&train_tables);
        let maker = evaluate_fill(&mut model, test, 1, 30, &w.vocab);
        let price = evaluate_fill(&mut model, test, 2, 30, &w.vocab);
        println!(
            "{:<22} | {:>7} {:>9} | {:>7} {:>9} {:>9}",
            name,
            f2(maker.exact),
            f2(maker.token_f1),
            f2(price.exact),
            f2(price.token_f1),
            if price.numeric.is_nan() {
                "-".into()
            } else {
                f2(price.numeric)
            },
        );
        rows.push(rpt_json::json!({
            "variant": name,
            "manufacturer": {"exact": maker.exact, "token_f1": maker.token_f1},
            "price": {"exact": price.exact, "token_f1": price.token_f1,
                      "numeric": if price.numeric.is_nan() { None } else { Some(price.numeric) }},
        }));
    }

    emit_artifact(
        "fig4_ablation",
        &rpt_json::json!({
            "experiment": "fig4_ablation",
            "rows": rows,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
