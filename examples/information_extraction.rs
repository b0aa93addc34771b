//! Information extraction as question answering (RPT-I, §4).
//!
//! ```bash
//! cargo run --release --example information_extraction
//! ```
//!
//! Mirrors the paper's Fig. 1(c): a requester provides a couple of labeled
//! examples (`s₁`); the system interprets the task ("what is the memory
//! size"), then performs it on new text-rich tuples (`t₁`).

use rpt::core::ie::{infer_attribute, question_for, IeConfig, RptI};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::benchmarks::ie_tasks;
use rpt::datagen::{Universe, UniverseConfig};
use rpt::tokenizer::normalize;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(31);
    let universe = Universe::generate(
        &UniverseConfig {
            n_entities: 200,
            ..Default::default()
        },
        &mut rng,
    );
    let tasks = ie_tasks(&universe, 400, &mut rng);
    let texts: Vec<String> = tasks
        .iter()
        .flat_map(|t| [t.description.clone(), question_for(t.attr)])
        .collect();
    let vocab = build_vocab(&[], &texts, 1, 6000);

    println!("training the span extractor on {} QA pairs ...", 320);
    let (train, test) = tasks.split_at(320);
    let mut rpti = RptI::new(
        vocab,
        IeConfig {
            train: TrainOpts {
                steps: 800,
                batch_size: 16,
                warmup: 80,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    rpti.train(train).expect("training step went non-finite");

    // --- the crowdsourcing workflow of Fig. 1(c) -------------------------
    println!("\n-- one-shot task interpretation --");
    for attr in ["memory", "screen", "year", "brand"] {
        let Some(example) = train.iter().find(|t| t.attr == attr) else {
            continue;
        };
        let inferred = infer_attribute(&[(&example.description, &example.answer)]);
        println!(
            "  s1 label {:?} → task {:?}",
            example.answer,
            inferred.map(question_for).unwrap_or_else(|| "?".into())
        );
    }

    println!("\n-- extractions on unseen tuples --");
    let mut correct = 0usize;
    let mut shown = 0usize;
    for t in test.iter().take(60) {
        let pred = rpti.extract(&question_for(t.attr), &t.description);
        let hit = normalize(&pred) == normalize(&t.answer);
        if hit {
            correct += 1;
        }
        if shown < 8 {
            println!(
                "  [{}] {:<58} → {:<14} (gold {:<12}) {}",
                t.attr,
                truncate(&t.description, 57),
                pred,
                t.answer,
                if hit { "✓" } else { "✗" }
            );
            shown += 1;
        }
    }
    println!(
        "\nexact-match on 60 unseen tasks: {:.2}",
        correct as f64 / 60.0
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        format!("{}…", s.chars().take(n - 1).collect::<String>())
    }
}
