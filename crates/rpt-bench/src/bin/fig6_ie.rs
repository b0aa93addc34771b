//! **Figure 6** — RPT-I: information extraction as question answering.
//!
//! Trains the span extractor on synthetic product-description QA, then
//! evaluates per attribute with (a) gold questions and (b) questions
//! *inferred* from k = 1, 2, 4 examples via PET-style task interpretation
//! ("what is the `[M]`" instantiated from the example labels, §4).

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::ie::{infer_attribute, IeConfig, RptI};
use rpt_core::train::TrainOpts;
use rpt_datagen::benchmarks::{ie_tasks, IE_ATTRS};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Figure 6: IE as question answering ==\n");
    let w = Workbench::new(100, 61);
    let mut rng = SmallRng::seed_from_u64(9);
    let tasks = ie_tasks(&w.universe, 500, &mut rng);
    let (train, test) = tasks.split_at(400);

    let mut rpti = RptI::new(
        w.vocab.clone(),
        IeConfig {
            train: TrainOpts {
                steps: 1200,
                batch_size: 16,
                warmup: 100,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    println!("training span extractor on {} QA tasks ...", train.len());
    let losses = rpti.train(train).expect("training step went non-finite");
    println!(
        "  loss {:.3} -> {:.3} ({:.0?})\n",
        losses[..20].iter().sum::<f32>() / 20.0,
        losses[losses.len() - 20..].iter().sum::<f32>() / 20.0,
        t0.elapsed()
    );

    // --- per-attribute quality with gold questions ----------------------
    println!("-- gold questions --");
    println!("{:<8} {:>6} {:>9} {:>5}", "attr", "exact", "token-F1", "n");
    let mut gold_rows = Vec::new();
    for attr in IE_ATTRS {
        let subset: Vec<_> = test.iter().filter(|t| t.attr == attr).cloned().collect();
        if subset.is_empty() {
            continue;
        }
        let eval = rpti.evaluate(&subset, None);
        println!(
            "{:<8} {:>6} {:>9} {:>5}",
            attr,
            f2(eval.exact),
            f2(eval.token_f1),
            eval.n
        );
        gold_rows.push(rpt_json::json!({"attr": attr, "exact": eval.exact, "token_f1": eval.token_f1, "n": eval.n}));
    }
    let overall = rpti.evaluate(test, None);
    println!(
        "{:<8} {:>6} {:>9} {:>5}",
        "ALL",
        f2(overall.exact),
        f2(overall.token_f1),
        overall.n
    );

    // --- k-shot question inference --------------------------------------
    println!("\n-- questions inferred from k examples (PET) --");
    println!(
        "{:<8} {:>3} {:>10} {:>6} {:>9}",
        "attr", "k", "inferred", "exact", "token-F1"
    );
    let mut kshot_rows = Vec::new();
    for attr in IE_ATTRS {
        let subset: Vec<_> = test.iter().filter(|t| t.attr == attr).cloned().collect();
        let examples: Vec<_> = train.iter().filter(|t| t.attr == attr).take(4).collect();
        if subset.is_empty() || examples.is_empty() {
            continue;
        }
        for k in [1usize, 2, 4] {
            let pairs: Vec<(&str, &str)> = examples
                .iter()
                .take(k)
                .map(|t| (t.description.as_str(), t.answer.as_str()))
                .collect();
            let inferred = infer_attribute(&pairs);
            let eval = rpti.evaluate(&subset, inferred);
            let ok = inferred == Some(attr);
            println!(
                "{:<8} {:>3} {:>10} {:>6} {:>9}",
                attr,
                k,
                format!(
                    "{}{}",
                    inferred.unwrap_or("?"),
                    if ok { "" } else { " (!)" }
                ),
                f2(eval.exact),
                f2(eval.token_f1)
            );
            kshot_rows.push(rpt_json::json!({
                "attr": attr, "k": k, "inferred": inferred, "correct_inference": ok,
                "exact": eval.exact, "token_f1": eval.token_f1,
            }));
        }
    }

    emit_artifact(
        "fig6_ie",
        &rpt_json::json!({
            "experiment": "fig6_ie",
            "gold_questions": gold_rows,
            "overall": {"exact": overall.exact, "token_f1": overall.token_f1, "n": overall.n},
            "k_shot": kshot_rows,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
