//! Data cleaning end-to-end: detect-and-repair injected errors with RPT-C.
//!
//! ```bash
//! cargo run --release --example data_cleaning
//! ```
//!
//! Workflow (the paper's §2 scenario made concrete):
//! 1. pretrain RPT-C on clean product tables;
//! 2. corrupt a held-out table with NULLs (missing values);
//! 3. repair every NULL by masked-value fill;
//! 4. score repairs against the logged originals.
//!
//! Also demonstrates FD-aware masking: the table is profiled first and the
//! discovered approximate FDs are printed.

use rpt::core::cleaning::{CleaningConfig, Filler, MaskPolicy, RptC};
use rpt::core::train::TrainOpts;
use rpt::core::vocabulary::build_vocab;
use rpt::datagen::{inject_errors, standard_benchmarks, ErrorSpec};
use rpt::nn::metrics::{token_f1, Mean};
use rpt::table::TableProfile;
use rpt::tokenizer::normalize;
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(11);
    let (_universe, benches) = standard_benchmarks(80, &mut rng);
    let tables: Vec<&rpt::table::Table> = benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect();
    let vocab = build_vocab(&tables, &[], 1, 8000);

    // --- profile the training table: which columns are FD-determined? ---
    let abt = &benches[0];
    let profile = TableProfile::compute(&abt.table_a, 0.75, 5);
    println!("-- approximate FDs discovered in {} --", abt.table_a.name());
    for fd in profile.fds.iter().take(5) {
        println!(
            "  {} -> {}   (strength {:.2}, support {})",
            abt.table_a.schema().name(fd.lhs),
            abt.table_a.schema().name(fd.rhs),
            fd.strength,
            fd.support
        );
    }

    // --- pretrain on the clean tables -----------------------------------
    println!("\npretraining RPT-C (FD-aware masking) ...");
    let wal = &benches[2];
    let mut rptc = RptC::new(
        vocab,
        CleaningConfig {
            mask_policy: MaskPolicy::FdAware { min_strength: 0.75 },
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
    rptc.pretrain(&[&abt.table_a, &abt.table_b, &wal.table_a, &wal.table_b]);

    // --- corrupt a held-out table and repair ----------------------------
    let clean = benches[1].table_a.clone(); // amazon-google side A
    let mut dirty = clean.clone();
    let log = inject_errors(
        &mut dirty,
        &ErrorSpec {
            null_rate: 0.15,
            typo_rate: 0.0,
            swap_rate: 0.0,
        },
        &mut rng,
    );
    println!(
        "\ninjected {} missing values into {} cells",
        log.len(),
        clean.len() * clean.schema().arity()
    );

    let mut exact = Mean::default();
    let mut f1 = Mean::default();
    let mut shown = 0;
    println!("\n-- sample repairs --");
    for err in &log {
        let repaired = rptc.fill(dirty.schema(), dirty.row(err.row), err.col);
        let gold = normalize(&err.original.render());
        let pred = normalize(&repaired.text);
        exact.add(if pred == gold { 1.0 } else { 0.0 });
        f1.add(token_f1(&pred, &gold));
        if shown < 6 {
            println!(
                "  row {:>3} {:<13} gold {:<18} repair {:<18} {}",
                err.row,
                dirty.schema().name(err.col),
                err.original.render(),
                repaired.text,
                if pred == gold { "✓" } else { "✗" }
            );
            shown += 1;
        }
    }
    println!(
        "\nrepair quality over {} errors: exact {:.2}, token-F1 {:.2}",
        exact.count(),
        exact.get(),
        f1.get()
    );
}
