//! **Opportunity O1 (§3)** — federated collaborative training.
//!
//! The paper envisions benchmark owners jointly training one matcher by
//! exchanging parameter deltas only (FedAvg). This harness compares, on a
//! held-out target benchmark:
//!
//! * `centralized` — all source pairs pooled (the upper bound);
//! * `federated`  — FedAvg rounds over per-benchmark clients;
//! * `single`     — the best single client trained alone (no collaboration).
//!
//! Expected shape: federated recovers most of the centralized quality
//! without any client sharing its pairs.

use rpt_bench::{emit_artifact, f2, Workbench};
use rpt_core::er::{federated_rounds, Blocker, FederatedConfig, Matcher, MatcherConfig};
use rpt_core::train::TrainOpts;
use rpt_datagen::{ErBenchmark, PairSet};
use rpt_nn::metrics::BinaryConfusion;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn best_f1(scores: &[f32], labels: &[bool]) -> (f64, f32) {
    let mut best = (0.0f64, 0.5f32);
    for step in 1..40 {
        let t = step as f32 * 0.025;
        let conf =
            BinaryConfusion::from_pairs(scores.iter().map(|&s| s >= t).zip(labels.iter().copied()));
        if conf.f1() > best.0 {
            best = (conf.f1(), t);
        }
    }
    best
}

fn main() {
    let t0 = std::time::Instant::now();
    println!("== O1: federated vs centralized collaborative training ==\n");
    let w = Workbench::new(80, 71);
    let mut rng = SmallRng::seed_from_u64(5);
    let target = "abt-buy";
    let blocker = Blocker::default();

    // client data: labeled pairs of each non-target benchmark
    let sets: Vec<(&ErBenchmark, PairSet)> = w
        .benches
        .iter()
        .filter(|b| b.name != target)
        .map(|b| {
            let cands = blocker.candidates(&b.table_a, &b.table_b);
            (b, b.labeled_pairs_from_candidates(&cands, 6, &mut rng))
        })
        .collect();
    let clients: Vec<(&ErBenchmark, &PairSet)> = sets.iter().map(|(b, p)| (*b, p)).collect();

    let bench = w.bench(target);
    let candidates = blocker.candidates(&bench.table_a, &bench.table_b);
    let labels: Vec<bool> = candidates
        .iter()
        .map(|&(i, j)| bench.is_match(i, j))
        .collect();

    let base_cfg = MatcherConfig {
        train: TrainOpts {
            steps: 600,
            batch_size: 16,
            warmup: 50,
            peak_lr: 2e-3,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut rows = Vec::new();
    println!("{:<14} {:>8} {:>12}", "regime", "F1", "threshold");

    // centralized: pooled training
    {
        let mut m = Matcher::new(w.vocab.clone(), base_cfg.clone());
        m.pretrain_mlm(&w.all_tables(), 250)
            .expect("training step went non-finite");
        m.train(&clients).expect("training step went non-finite");
        let (f1, t) = best_f1(&m.score_pairs(bench, &candidates), &labels);
        println!(
            "{:<14} {:>8} {:>12}",
            "centralized",
            f2(f1),
            format!("{t:.2}")
        );
        rows.push(rpt_json::json!({"regime": "centralized", "f1": f1}));
    }

    // federated: FedAvg with the same total step budget
    {
        let mut m = Matcher::new(w.vocab.clone(), base_cfg.clone());
        m.pretrain_mlm(&w.all_tables(), 250)
            .expect("training step went non-finite");
        let fed = FederatedConfig {
            rounds: 10,
            local_steps: 600 / (10 * clients.len()).max(1),
            server_lr: 1.0,
        };
        federated_rounds(&mut m, &clients, &fed).expect("training step went non-finite");
        let (f1, t) = best_f1(&m.score_pairs(bench, &candidates), &labels);
        println!(
            "{:<14} {:>8} {:>12}",
            "federated",
            f2(f1),
            format!("{t:.2}")
        );
        rows.push(rpt_json::json!({"regime": "federated", "f1": f1, "rounds": fed.rounds, "local_steps": fed.local_steps}));
    }

    // single clients: each benchmark alone
    for (client_bench, pairs) in &sets {
        let mut m = Matcher::new(w.vocab.clone(), base_cfg.clone());
        m.pretrain_mlm(&w.all_tables(), 250)
            .expect("training step went non-finite");
        m.train(&[(*client_bench, pairs)])
            .expect("training step went non-finite");
        let (f1, t) = best_f1(&m.score_pairs(bench, &candidates), &labels);
        println!(
            "{:<14} {:>8} {:>12}",
            format!(
                "single:{}",
                &client_bench.name[..client_bench.name.len().min(7)]
            ),
            f2(f1),
            format!("{t:.2}")
        );
        rows.push(rpt_json::json!({"regime": format!("single:{}", client_bench.name), "f1": f1}));
    }

    emit_artifact(
        "o1_federated",
        &rpt_json::json!({
            "experiment": "o1_federated",
            "target": target,
            "rows": rows,
            "elapsed_sec": t0.elapsed().as_secs_f64(),
        }),
    );
    println!("\ntotal {:.0?}", t0.elapsed());
}
