//! **Figure 3** — the denoising autoencoder: corrupt the input, train to
//! reconstruct the original. This harness measures reconstruction quality
//! as a function of how much of the tuple is corrupted (token-mask rate
//! 0.1 → 0.7), for a model pretrained at the standard mixed policy.
//!
//! Expected shape: recovery degrades gracefully as corruption grows, and
//! stays clearly above the unigram-guess floor at every rate.

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::cleaning::{CleaningConfig, MaskPolicy, RptC};
use rpt_core::train::TrainOpts;
use rpt_nn::metrics::Mean;
use rpt_nn::{Sequence, TokenBatch};
use rpt_rng::SeedableRng;
use rpt_rng::SliceRandom;
use rpt_rng::SmallRng;
use rpt_tokenizer::PAD;

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Figure 3: reconstruction vs corruption rate ==\n");
    let w = Workbench::new(100, 33);
    let abt = w.bench("abt-buy");
    let wal = w.bench("walmart-amazon");
    let mut rptc = RptC::new(
        w.vocab.clone(),
        CleaningConfig {
            mask_policy: MaskPolicy::Mixed,
            train: TrainOpts {
                steps: 1000,
                batch_size: 16,
                warmup: 100,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    println!("pretraining RPT-C (mixed masking) ...");
    rptc.pretrain(&[&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b]);
    println!("  done in {:.0?}\n", t0.elapsed());

    // held-out tuples from the unseen amazon-google view
    let test = &w.bench("amazon-google").table_a;
    let mut rng = SmallRng::seed_from_u64(5);
    let n_eval = 40;

    println!(
        "{:>10} {:>12} {:>14}",
        "mask rate", "recovery-F1", "exact-rate"
    );
    let mut series = Vec::new();
    for rate in [0.1, 0.2, 0.3, 0.5, 0.7] {
        let mut f1 = Mean::default();
        let mut exact = Mean::default();
        for row in 0..n_eval.min(test.len()) {
            let encoded = rptc.encoder().encode_tuple(test.schema(), test.row(row));
            let positions = encoded.value_positions();
            if positions.is_empty() {
                continue;
            }
            let k = ((positions.len() as f64 * rate).round() as usize).clamp(1, positions.len());
            let mut picked = positions;
            picked.shuffle(&mut rng);
            picked.truncate(k);
            picked.sort_unstable();
            let (masked, targets) = encoded.mask_tokens(&picked);
            // decode the masked tokens jointly (they come out in order)
            let src = TokenBatch::from_sequences(
                &[Sequence {
                    ids: masked.ids,
                    cols: masked.cols,
                    ..Default::default()
                }],
                rptc.config().model.max_len,
                PAD,
            );
            let pred = rptc.reconstruct(&src, targets.len() + 2);
            f1.add(rpt_nn::metrics::token_f1(&pred, &targets));
            exact.add(if pred == targets { 1.0 } else { 0.0 });
        }
        println!("{:>10} {:>12} {:>14}", rate, f2(f1.get()), f2(exact.get()));
        series.push(rpt_json::json!({"mask_rate": rate, "token_f1": f1.get(), "exact": exact.get(), "n": f1.count()}));
    }

    emit_artifact(
        "fig3_denoising",
        &rpt_json::json!({
            "experiment": "fig3_denoising",
            "series": series,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
