//! **Figure 1** — the paper's three motivating scenarios, run live against
//! the trained models:
//!
//! * (a) data cleaning: repair a missing attribute value and auto-complete
//!   a partial one, resolved from context (the "two Michael Jordans"
//!   disambiguation, transposed to the product domain: the same model
//!   number means different things under different brands);
//! * (b) entity resolution: the iPhone-X example — alias, model-variant,
//!   and unit-variant matches vs. a different-model non-match;
//! * (c) information extraction: interpret a one-shot example and extract
//!   the analogous span from a new description.

use rpt_bench::{emit_artifact, Workbench};
use rpt_core::cleaning::{CleaningConfig, Filler, MaskPolicy, RptC};
use rpt_core::er::{infer_match_patterns, Matcher, MatcherConfig};
use rpt_core::ie::{infer_attribute, question_for, IeConfig, RptI};
use rpt_core::train::TrainOpts;
use rpt_datagen::benchmarks::ie_tasks;
use rpt_datagen::{ErBenchmark, PairSet};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;
use rpt_table::{Schema, Tuple, Value};

fn main() {
    let t0 = std::time::Instant::now();
    println!("== Figure 1: motivating scenarios ==\n");
    let w = Workbench::new(80, 21);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut artifact = rpt_json::Map::new();

    // ---------------- (a) data cleaning -------------------------------
    println!("-- (a) data cleaning: repair and auto-completion --");
    let abt = w.bench("abt-buy");
    let wal = w.bench("walmart-amazon");
    let mut rptc = RptC::new(
        w.vocab.clone(),
        CleaningConfig {
            mask_policy: MaskPolicy::FdAware { min_strength: 0.75 },
            train: TrainOpts {
                steps: 1100,
                batch_size: 16,
                warmup: 80,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    rptc.pretrain(&[&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b]);

    // Q1/Q2 analogue: the SAME model number, different context, different
    // repair — "who makes <line> 7?" depends on the line, not the number.
    let schema = Schema::text_columns(&["title", "manufacturer", "price"]);
    let mut dc_results = Vec::new();
    for title in ["iphone 7 64 gb 5.9 inches", "galaxy 7 64 gb 5.9 inches"] {
        let tuple = Tuple::new(vec![Value::text(title), Value::Null, Value::Null]);
        let fill = rptc.fill(&schema, &tuple, 1);
        println!("  Q: [{title}] manufacturer = [M]   →  A: {}", fill.text);
        dc_results
            .push(rpt_json::json!({"query": title, "column": "manufacturer", "answer": fill.text}));
    }
    // Q3 analogue: auto-completion of a price from everything else.
    let tuple = Tuple::new(vec![
        Value::text("thinkpad 9 512 gb 14.0 inches"),
        Value::text("lenovo"),
        Value::Null,
    ]);
    let fill = rptc.fill(&schema, &tuple, 2);
    println!(
        "  Q: [thinkpad 9 …, lenovo] price = [M]   →  A: {}",
        fill.text
    );
    dc_results.push(
        rpt_json::json!({"query": "thinkpad 9 512gb", "column": "price", "answer": fill.text}),
    );
    artifact.insert("data_cleaning".into(), rpt_json::Json::Array(dc_results));

    // ---------------- (b) entity resolution ---------------------------
    println!("\n-- (b) entity resolution: the iPhone-X example --");
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
    matcher
        .pretrain_mlm(&w.all_tables(), 400)
        .expect("training step went non-finite");
    let sets: Vec<(&ErBenchmark, PairSet)> = w
        .benches
        .iter()
        .map(|b| (b, b.labeled_pairs(3, &w.universe, &mut rng)))
        .collect();
    let refs: Vec<(&ErBenchmark, &PairSet)> = sets.iter().map(|(b, p)| (*b, p)).collect();
    matcher.train(&refs).expect("training step went non-finite");

    // e1 = iPhone 10 / e2 = iPhone X (alias + unit variants) / e3 = iPhone 11
    let fig_schema = Schema::text_columns(&["product", "company", "year", "memory", "screen"]);
    let e1 = Tuple::new(vec![
        "iphone 10".into(),
        "apple".into(),
        Value::Int(2017),
        "64gb".into(),
        "5.8 inchs".into(),
    ]);
    // e2 = the same phone through another store's rendering conventions
    // (the paper's e1/e2 match "if the memory does not matter"; our ground
    // truth keys on memory, so the demo keeps it equal)
    let e2 = Tuple::new(vec![
        "iphone x".into(),
        "apple inc".into(),
        Value::Int(2017),
        "64 gb".into(),
        "5.8-inch".into(),
    ]);
    let e3 = Tuple::new(vec![
        "iphone 11".into(),
        "aapl".into(),
        Value::Int(2019),
        "128gb".into(),
        "6.1 inches".into(),
    ]);
    // score via a throwaway single-pair benchmark wrapper
    let mut er_results = Vec::new();
    for (name, a, b) in [
        ("e1 vs e2", &e1, &e2),
        ("e1 vs e3", &e1, &e3),
        ("e2 vs e3", &e2, &e3),
    ] {
        let mut ta = rpt_table::Table::new("fig1-a", fig_schema.clone());
        ta.push(a.clone());
        let mut tb = rpt_table::Table::new("fig1-b", fig_schema.clone());
        tb.push(b.clone());
        let bench = ErBenchmark {
            name: "fig1".into(),
            table_a: ta,
            table_b: tb,
            entity_a: vec![0],
            entity_b: vec![0],
        };
        let score = matcher.score_pairs(&bench, &[(0, 0)])[0];
        println!("  {name}: P(match) = {score:.2}");
        er_results.push(rpt_json::json!({"pair": name, "p_match": score}));
    }
    // PET pattern inference from the two examples of Fig. 5 / E1
    let patterns = infer_match_patterns(
        &Schema::text_columns(&["model", "color"]),
        &[
            (
                Tuple::new(vec!["iphone 12".into(), "red".into()]),
                Tuple::new(vec!["iphone 12".into(), "black".into()]),
                true,
            ),
            (
                Tuple::new(vec!["iphone 12".into(), "red".into()]),
                Tuple::new(vec!["iphone 11".into(), "red".into()]),
                false,
            ),
        ],
    );
    println!(
        "  PET interpretation: must match {:?}; irrelevant {:?}",
        patterns.must_match, patterns.irrelevant
    );
    artifact.insert(
        "entity_resolution".into(),
        rpt_json::Json::Array(er_results),
    );

    // ---------------- (c) information extraction ----------------------
    println!("\n-- (c) information extraction: one-shot task interpretation --");
    let tasks = ie_tasks(&w.universe, 220, &mut rng);
    let mut rpti = RptI::new(
        w.vocab.clone(),
        IeConfig {
            train: TrainOpts {
                steps: 600,
                batch_size: 16,
                warmup: 60,
                peak_lr: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (train, test) = tasks.split_at(180);
    rpti.train(train).expect("training step went non-finite");

    // the paper's s1: interpret the task from one example, apply to t1
    let example = test
        .iter()
        .find(|t| t.attr == "memory")
        .expect("a memory task");
    let inferred = infer_attribute(&[(&example.description, &example.answer)]);
    println!(
        "  s1: {:?} labeled {:?}\n  → inferred task: {:?}",
        example.description,
        example.answer,
        inferred.map(question_for)
    );
    let t1 = test
        .iter()
        .find(|t| t.attr == "memory" && t.entity != example.entity)
        .expect("another memory task");
    let answer = rpti.extract(&question_for(inferred.unwrap_or("memory")), &t1.description);
    println!(
        "  t1: {:?}\n  → extracted: {answer:?} (gold {:?})",
        t1.description, t1.answer
    );
    artifact.insert(
        "information_extraction".into(),
        rpt_json::json!({
            "example": {"description": &example.description, "label": &example.answer},
            "inferred_question": inferred.map(question_for),
            "task": {"description": &t1.description, "gold": &t1.answer, "extracted": answer},
        }),
    );

    emit_artifact("fig1_scenarios", &rpt_json::Json::Object(artifact));
    println!("\ntotal {:.0?}", t0.elapsed());
}
