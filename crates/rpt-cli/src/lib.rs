//! # rpt-cli
//!
//! The "plug and play" tool of §2.2 research opportunity O3: *"anyone can
//! download a pretrained RPT-C and run it locally …, which can then be
//! used to directly detect and repair errors for local data"*.
//!
//! The library half implements the four commands over local CSV files;
//! `main.rs` is a thin argument parser around them.
//!
//! ```text
//! rpt profile <file.csv>                         column stats + approximate FDs
//! rpt clean   <file.csv> [--column C] [--steps N] [--load M] [--save M] [--output OUT]
//! rpt detect  <file.csv> [--steps N] [--load M]  hybrid error detection
//! rpt match   <a.csv> <b.csv> [--threshold T]    unsupervised matching (ZeroER)
//! rpt serve   <file.csv> [--addr A] [--max-batch N] [--checkpoint-dir DIR] [--quant]
//! rpt quantize <model.json> <out.json>           offline int8 (quant-v1) conversion
//! rpt trace-report <dump.json>                   self-time profile of a --trace-out dump
//! ```

use std::fmt::Write as _;

use std::path::Path;

use rpt_baselines::ZeroEr;
use rpt_core::cleaning::{CheckpointOpts, CleaningConfig, Filler, RptC, StreamOpts};
use rpt_core::corpus::{self, DiskCorpus, ShardSource};
use rpt_core::detect::{detect_errors, DetectorConfig};
use rpt_core::er::{Blocker, BlockerConfig};
use rpt_core::train::TrainOpts;
use rpt_core::vocabulary::build_vocab;
use rpt_datagen::{standard_benchmarks, ErBenchmark};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;
use rpt_table::{csv, Table, TableProfile};
use rpt_tensor::serialize;
use rpt_tokenizer::TupleEncoder;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (message printed with the help text).
    Usage(String),
    /// IO / parse failure.
    Data(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Data(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Reads a CSV file into a table.
pub fn load_table(path: &str) -> Result<Table, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("cannot read {path}: {e}")))?;
    csv::read_table(path, &text).map_err(|e| CliError::Data(format!("{path}: {e}")))
}

/// `rpt profile` — column statistics and discovered approximate FDs.
pub fn cmd_profile(path: &str) -> Result<String, CliError> {
    let table = load_table(path)?;
    let profile = TableProfile::compute(&table, 0.75, 3);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "table {} — {} rows, {} columns",
        path,
        table.len(),
        table.schema().arity()
    );
    let _ = writeln!(
        out,
        "\n{:<20} {:>9} {:>10} {:>9} {:>8}",
        "column", "distinct", "null-rate", "numeric", "avg-len"
    );
    for c in &profile.columns {
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>10.2} {:>9.2} {:>8.1}",
            c.name, c.distinct, c.null_rate, c.numeric_rate, c.avg_len
        );
    }
    if profile.fds.is_empty() {
        let _ = writeln!(out, "\nno approximate FDs above strength 0.75");
    } else {
        let _ = writeln!(out, "\napproximate FDs (strength ≥ 0.75):");
        for fd in &profile.fds {
            let _ = writeln!(
                out,
                "  {} -> {}   strength {:.2} (support {})",
                table.schema().name(fd.lhs),
                table.schema().name(fd.rhs),
                fd.strength,
                fd.support
            );
        }
    }
    Ok(out)
}

/// Options for `rpt clean` / `rpt detect`.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanOptions {
    /// Only fill this column (by name); default: every column with NULLs.
    pub column: Option<String>,
    /// Pretraining steps on the file itself.
    pub steps: usize,
    /// Load a pretrained checkpoint instead of (or before) training.
    pub load: Option<String>,
    /// Save the trained model here.
    pub save: Option<String>,
    /// Write the repaired table here (clean only).
    pub output: Option<String>,
    /// Directory for a rolling crash-safe train-state checkpoint
    /// (written every ~10% of the run; created if missing).
    pub checkpoint_dir: Option<String>,
    /// Resume training from a train-state checkpoint file (bit-identical
    /// to never having been interrupted).
    pub resume: Option<String>,
}

impl Default for CleanOptions {
    fn default() -> Self {
        Self {
            column: None,
            steps: 400,
            load: None,
            save: None,
            output: None,
            checkpoint_dir: None,
            resume: None,
        }
    }
}

fn build_model(table: &Table, opts: &CleanOptions) -> Result<RptC, CliError> {
    let vocab = build_vocab(&[table], &[], 1, 20_000);
    let cfg = CleaningConfig {
        train: TrainOpts {
            steps: opts.steps,
            batch_size: 16,
            warmup: (opts.steps / 10).max(1),
            peak_lr: 3e-3,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut model = RptC::new(vocab, cfg);
    if let Some(path) = &opts.load {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CliError::Data(format!("cannot read checkpoint {path}: {e}")))?;
        serialize::load_json(&mut model.params, &json)
            .map_err(|e| CliError::Data(format!("checkpoint {path}: {e}")))?;
    } else {
        if opts.steps == 0 && opts.resume.is_none() {
            return Err(CliError::Usage(
                "either --steps > 0, --load <checkpoint>, or --resume <state> is required".into(),
            ));
        }
        let checkpoint = match &opts.checkpoint_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    CliError::Data(format!("cannot create checkpoint dir {dir}: {e}"))
                })?;
                Some(CheckpointOpts {
                    dir: dir.into(),
                    every: (opts.steps / 10).max(1),
                })
            }
            None => None,
        };
        let resume = opts.resume.as_deref().map(Path::new);
        model
            .pretrain_resumable(&[table], checkpoint.as_ref(), resume)
            .map_err(|e| CliError::Data(format!("training checkpoint: {e}")))?;
    }
    if let Some(path) = &opts.save {
        serialize::save_file(&model.params, path)
            .map_err(|e| CliError::Data(format!("cannot save checkpoint: {e}")))?;
    }
    Ok(model)
}

/// `rpt clean` — fill NULLs (optionally restricted to one column); returns
/// the report and writes the repaired CSV if requested.
pub fn cmd_clean(path: &str, opts: &CleanOptions) -> Result<String, CliError> {
    let mut table = load_table(path)?;
    let target_cols: Vec<usize> = match &opts.column {
        Some(name) => vec![table
            .schema()
            .index_of(name)
            .ok_or_else(|| CliError::Usage(format!("no column named {name}")))?],
        None => (0..table.schema().arity()).collect(),
    };
    let mut model = build_model(&table, opts)?;
    let mut report = String::new();
    let mut repairs = 0usize;
    let rows = table.len();
    for row in 0..rows {
        for &col in &target_cols {
            if !table.row(row).get(col).is_null() {
                continue;
            }
            let fill = model.fill(table.schema(), table.row(row), col);
            if fill.text.is_empty() {
                continue;
            }
            let _ = writeln!(
                report,
                "row {:>4} {:<16} -> {:?}",
                row,
                table.schema().name(col),
                fill.text
            );
            table.tuples_mut()[row].replace(col, rpt_table::Value::parse(&fill.text));
            repairs += 1;
        }
    }
    let _ = writeln!(report, "{repairs} value(s) filled");
    if let Some(out_path) = &opts.output {
        std::fs::write(out_path, csv::write_table(&table))
            .map_err(|e| CliError::Data(format!("cannot write {out_path}: {e}")))?;
        let _ = writeln!(report, "repaired table written to {out_path}");
    }
    Ok(report)
}

/// `rpt detect` — hybrid error detection over every column.
pub fn cmd_detect(path: &str, opts: &CleanOptions) -> Result<String, CliError> {
    let table = load_table(path)?;
    let mut model = build_model(&table, opts)?;
    let cols: Vec<usize> = (0..table.schema().arity()).collect();
    let suspects = detect_errors(&mut model, &table, &cols, &DetectorConfig::default());
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} suspicious cell(s) in {} rows x {} columns",
        suspects.len(),
        table.len(),
        cols.len()
    );
    for s in &suspects {
        let _ = writeln!(
            report,
            "row {:>4} {:<16} value {:?} (agreement {:.2}{}) suggestion {:?}",
            s.row,
            table.schema().name(s.col),
            table.row(s.row).get(s.col).render(),
            s.agreement,
            s.z_score.map(|z| format!(", z {z:.1}")).unwrap_or_default(),
            s.suggestion
        );
    }
    Ok(report)
}

/// `rpt match` — unsupervised matching of two CSV files (blocking +
/// ZeroER); prints pairs scoring at or above the threshold.
pub fn cmd_match(path_a: &str, path_b: &str, threshold: f32) -> Result<String, CliError> {
    let table_a = load_table(path_a)?;
    let table_b = load_table(path_b)?;
    let na = table_a.len();
    let nb = table_b.len();
    // entity ids are all-distinct placeholders: the unsupervised scorer
    // never looks at them
    let bench = ErBenchmark {
        name: "cli".into(),
        entity_a: (0..na as u64).collect(),
        entity_b: (na as u64..(na + nb) as u64).collect(),
        table_a,
        table_b,
    };
    let blocker = Blocker::new(BlockerConfig::default());
    let candidates = blocker.candidates(&bench.table_a, &bench.table_b);
    let mut zeroer = ZeroEr::new();
    let scores = zeroer.fit_predict(&bench, &candidates);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} candidates after blocking ({} x {} rows)",
        candidates.len(),
        na,
        nb
    );
    let mut ranked: Vec<(f32, usize, usize)> = scores
        .iter()
        .zip(candidates.iter())
        .filter(|(&s, _)| s >= threshold)
        .map(|(&s, &(i, j))| (s, i, j))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let _ = writeln!(report, "{} pair(s) at or above {threshold}:", ranked.len());
    for (s, i, j) in ranked {
        let _ = writeln!(
            report,
            "  {s:.2}  a[{i}] {:?}  ~  b[{j}] {:?}",
            bench.table_a.row(i).get(0).render(),
            bench.table_b.row(j).get(0).render()
        );
    }
    Ok(report)
}

/// `rpt quantize` — convert an f32 checkpoint (the format `rpt clean
/// --save` writes) into a `quant-v1` checkpoint: the same f32 params plus
/// a per-row int8 section for every linear weight, which `rpt serve
/// --quant --load` attaches directly instead of requantizing at startup.
/// Model-free: works on any checkpoint without rebuilding the
/// architecture that produced it.
pub fn cmd_quantize(input: &str, output: &str) -> Result<String, CliError> {
    let json = std::fs::read_to_string(input)
        .map_err(|e| CliError::Data(format!("cannot read checkpoint {input}: {e}")))?;
    let store = serialize::load_params_any(&json)
        .map_err(|e| CliError::Data(format!("checkpoint {input}: {e}")))?;
    let qs = rpt_nn::build_quant_set(&store);
    if qs.is_empty() {
        return Err(CliError::Data(format!(
            "checkpoint {input} has no quantizable linear weights"
        )));
    }
    serialize::save_quant_file(&store, qs.iter_named(), output)
        .map_err(|e| CliError::Data(format!("cannot write {output}: {e}")))?;
    let n_linear = qs.len();
    let tied = if qs.iter_named().count() > n_linear {
        " + tied embedding"
    } else {
        ""
    };
    Ok(format!(
        "quantized {n_linear} linear weight(s){tied} -> {output} (quant-v1)\n"
    ))
}

/// Options for `rpt shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOptions {
    /// `--shard-size` — tuples per shard (the final shard may be ragged).
    pub shard_size: usize,
    /// `--rows` — size of the generated benchmark tables.
    pub rows: usize,
    /// `--seed` — datagen seed.
    pub seed: u64,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            shard_size: 64,
            rows: 50,
            seed: 6,
        }
    }
}

/// `rpt shard` — build a sharded on-disk pretraining corpus from
/// generated benchmark tables: binary token shards, `vocab.json`, and a
/// `manifest.json` written last as the commit point.
pub fn cmd_shard(out_dir: &str, opts: &ShardOptions) -> Result<String, CliError> {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (_universe, mut benches) = standard_benchmarks(opts.rows, &mut rng);
    let b = benches.remove(0);
    let tables = [b.table_a, b.table_b];
    let refs: Vec<&Table> = tables.iter().collect();
    let vocab = build_vocab(&refs, &[], 1, 20_000);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let examples = corpus::encode_tables(&encoder, &refs);
    let shards = corpus::split_shards(examples, opts.shard_size);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Data(format!("cannot create {out_dir}: {e}")))?;
    let manifest = corpus::write_corpus(Path::new(out_dir), &shards, &vocab)
        .map_err(|e| CliError::Data(format!("cannot write corpus: {e}")))?;
    Ok(format!(
        "corpus written to {out_dir}: {} shard(s), {} tuple(s), vocab {} token(s)\n",
        manifest.shards.len(),
        manifest.total_tuples(),
        vocab.len(),
    ))
}

/// Options for `rpt pretrain`.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainOptions {
    /// `--steps` — optimizer steps.
    pub steps: usize,
    /// `--batch-size` — examples per optimizer step.
    pub batch_size: usize,
    /// `--micro-batch` — examples per data-parallel shard.
    pub micro_batch: usize,
    /// `--accum-steps` — micro-batches folded into one optimizer step.
    pub accum_steps: usize,
    /// `--no-prefetch` — load shards synchronously on the training thread.
    pub prefetch: bool,
    /// `--save` — write the trained params here.
    pub save: Option<String>,
    /// `--checkpoint-dir` — rolling crash-safe train-state checkpoints.
    pub checkpoint_dir: Option<String>,
    /// `--resume` — continue from a train-state file (mid-corpus, even
    /// mid-accumulation-window, bit-identical to an uninterrupted run).
    pub resume: Option<String>,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        Self {
            steps: 400,
            batch_size: 16,
            micro_batch: 4,
            accum_steps: 1,
            prefetch: true,
            save: None,
            checkpoint_dir: None,
            resume: None,
        }
    }
}

/// `rpt pretrain` — streaming pretraining over a corpus directory built
/// by [`cmd_shard`]; the corpus is read shard by shard and never held in
/// memory at once.
pub fn cmd_pretrain(corpus_dir: &str, opts: &PretrainOptions) -> Result<String, CliError> {
    let mut disk = DiskCorpus::open(corpus_dir)
        .map_err(|e| CliError::Data(format!("corpus {corpus_dir}: {e}")))?;
    let vocab = disk
        .vocab()
        .map_err(|e| CliError::Data(format!("corpus {corpus_dir}: {e}")))?;
    if opts.steps == 0 && opts.resume.is_none() {
        return Err(CliError::Usage(
            "either --steps > 0 or --resume <state> is required".into(),
        ));
    }
    let cfg = CleaningConfig {
        train: TrainOpts {
            steps: opts.steps,
            batch_size: opts.batch_size,
            micro_batch: opts.micro_batch,
            warmup: (opts.steps / 10).max(1),
            peak_lr: 3e-3,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut model = RptC::new(vocab, cfg);
    let checkpoint = match &opts.checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Data(format!("cannot create checkpoint dir {dir}: {e}")))?;
            Some(CheckpointOpts {
                dir: dir.into(),
                every: (opts.steps / 10).max(1),
            })
        }
        None => None,
    };
    let stream = StreamOpts {
        accum_steps: opts.accum_steps.max(1),
        prefetch: opts.prefetch,
        stop_after_micro: None,
    };
    let n_shards = disk.manifest().shards.len();
    let n_tuples = disk.manifest().total_tuples();
    let resume = opts.resume.as_deref().map(Path::new);
    let losses = model
        .pretrain_stream(Box::new(disk), &stream, checkpoint.as_ref(), resume)
        .map_err(|e| CliError::Data(format!("streaming pretraining: {e}")))?;
    if let Some(path) = &opts.save {
        serialize::save_file(&model.params, path)
            .map_err(|e| CliError::Data(format!("cannot save checkpoint: {e}")))?;
    }
    let final_loss = losses.last().copied().unwrap_or(f32::NAN);
    Ok(format!(
        "pretrained {} step(s) (accum {}) streaming {n_shards} shard(s) / {n_tuples} tuple(s); final loss {final_loss:.4}\n",
        losses.len(),
        stream.accum_steps,
    ))
}

/// `rpt trace-report` — render a `--trace-out` dump (`rpt-trace-v1`) as
/// a self-time profile: one line per span-name path from its trace root,
/// children flamegraph-ordered (heaviest total time first).
pub fn cmd_trace_report(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("cannot read trace dump {path}: {e}")))?;
    let doc = rpt_json::Json::parse(&text)
        .map_err(|e| CliError::Data(format!("trace dump {path}: {e}")))?;
    let spans = rpt_obs::spans_from_dump(&doc)
        .map_err(|e| CliError::Data(format!("trace dump {path}: {e}")))?;
    let complete = spans.iter().filter(|s| s.dur_ns.is_some()).count();
    let overwritten = doc
        .get("overwritten")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace report: {path} — {} span(s), {complete} complete, {overwritten} event(s) lost to ring wrap",
        spans.len(),
    );
    let profile = rpt_obs::profile_spans(&spans);
    let nodes = profile.as_array().unwrap_or(&[]);
    if nodes.is_empty() {
        let _ = writeln!(out, "no completed spans to profile");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "\n{:<44} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "span", "calls", "total_ms", "self_ms", "p50_ms", "p99_ms"
    );
    fn render(out: &mut String, node: &rpt_json::Json, depth: usize) {
        let field = |k: &str| node.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let name = node.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let calls = node.get("calls").and_then(|v| v.as_u64()).unwrap_or(0);
        let label = format!("{}{}", "  ".repeat(depth), name);
        let _ = writeln!(
            out,
            "{label:<44} {calls:>8} {:>12.3} {:>12.3} {:>10.3} {:>10.3}",
            field("total_ms"),
            field("self_ms"),
            field("p50_ms"),
            field("p99_ms"),
        );
        if let Some(children) = node.get("children").and_then(|v| v.as_array()) {
            for child in children {
                render(out, child, depth + 1);
            }
        }
    }
    for node in nodes {
        render(&mut out, node, 0);
    }
    Ok(out)
}

/// The checkpoint file `rpt serve --checkpoint-dir` watches for
/// hot-reload (the format `rpt clean --save` writes).
pub const SERVE_MODEL_FILE: &str = "model.json";

/// Options for `rpt serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// `--addr` (default `127.0.0.1:0`, kernel-assigned port).
    pub addr: String,
    /// `--max-batch` (default from `RPT_SERVE_MAX_BATCH`, else 8).
    pub max_batch: Option<usize>,
    /// `--steps` pretraining steps on the file itself.
    pub steps: usize,
    /// `--load` a pretrained checkpoint instead of training.
    pub load: Option<String>,
    /// `--checkpoint-dir` — watch `DIR/model.json` for hot-reload.
    pub checkpoint_dir: Option<String>,
    /// `--quant` — serve int8 quantized weights (`RPT_QUANT=1` also
    /// enables it; the flag wins when given).
    pub quant: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch: None,
            steps: 400,
            load: None,
            checkpoint_dir: None,
            quant: false,
        }
    }
}

/// The server settings `rpt serve` runs with: the `RPT_SERVE_*` /
/// `RPT_QUANT` defaults overridden by the given flags. `--max-batch` also
/// sizes the default queue (`4 * max_batch`).
pub fn serve_config(opts: &ServeOptions) -> rpt_serve::ServeConfig {
    let mut cfg = match opts.max_batch {
        Some(max_batch) => rpt_serve::ServeConfig::with_max_batch(max_batch),
        None => rpt_serve::ServeConfig::default(),
    };
    cfg.addr = opts.addr.clone();
    cfg.quant |= opts.quant; // RPT_QUANT=1 set the default; the flag wins
    cfg.checkpoint = opts
        .checkpoint_dir
        .as_ref()
        .map(|dir| Path::new(dir).join(SERVE_MODEL_FILE));
    cfg
}

/// `rpt serve` — train (or load) a cleaning model over the file, then
/// serve it over HTTP until killed. Prints `listening on ADDR` once the
/// socket is bound, then blocks forever.
pub fn cmd_serve(path: &str, opts: &ServeOptions) -> Result<String, CliError> {
    let table = load_table(path)?;
    let model = build_model(
        &table,
        &CleanOptions {
            steps: opts.steps,
            load: opts.load.clone(),
            ..Default::default()
        },
    )?;
    let (mut model, params) = model.into_serve_parts();
    let cfg = serve_config(opts);
    if let Some(dir) = &opts.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Data(format!("cannot create checkpoint dir {dir}: {e}")))?;
    }
    if cfg.quant {
        if let Some(path) = &opts.load {
            // An `rpt quantize` output carries the int8 tensors; attach
            // them so the server serves exactly the quantized file. A
            // plain f32 checkpoint (or a stale section) falls through and
            // the batcher requantizes from the loaded params.
            match serialize::load_quant_file(path) {
                Ok(Some(entries)) => match rpt_nn::quant_set_from_named(&params, entries) {
                    Ok(qs) => model.set_quant(Some(std::sync::Arc::new(qs))),
                    Err(e) => rpt_obs::warn!(
                        target: "rpt_cli",
                        "quant section in {path} rejected ({e}); requantizing"
                    ),
                },
                Ok(None) => {}
                Err(e) => rpt_obs::warn!(
                    target: "rpt_cli",
                    "quant section in {path} unreadable ({e}); requantizing"
                ),
            }
        }
    }
    let server = rpt_serve::Server::start(model, params, cfg)
        .map_err(|e| CliError::Data(format!("cannot start server: {e}")))?;
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rpt profile <csv>`
    Profile(String),
    /// `rpt clean <csv> [flags]`
    Clean(String, CleanOptions),
    /// `rpt detect <csv> [flags]`
    Detect(String, CleanOptions),
    /// `rpt match <csv> <csv> [--threshold T]`
    Match(String, String, f32),
    /// `rpt serve <csv> [flags]`
    Serve(String, ServeOptions),
    /// `rpt quantize <model.json> <out.json>`
    Quantize(String, String),
    /// `rpt shard <out-dir> [flags]`
    Shard(String, ShardOptions),
    /// `rpt pretrain <corpus-dir> [flags]`
    Pretrain(String, PretrainOptions),
    /// `rpt trace-report <dump.json>`
    TraceReport(String),
    /// `rpt help`
    Help,
}

/// The help text.
pub const USAGE: &str = "rpt — relational pre-trained transformer, plug-and-play

USAGE:
  rpt profile <file.csv>
  rpt clean   <file.csv> [--column NAME] [--steps N] [--load MODEL] [--save MODEL] [--output OUT]
                         [--checkpoint-dir DIR] [--resume STATE]
  rpt detect  <file.csv> [--steps N] [--load MODEL] [--save MODEL]
                         [--checkpoint-dir DIR] [--resume STATE]
  rpt match   <a.csv> <b.csv> [--threshold T]
  rpt serve   <file.csv> [--addr ADDR] [--max-batch N] [--steps N] [--load MODEL]
                         [--checkpoint-dir DIR] [--quant]
  rpt quantize <model.json> <out.json>
  rpt shard   <out-dir> [--shard-size K] [--rows N] [--seed S]
  rpt pretrain <corpus-dir> [--steps N] [--batch-size B] [--micro-batch M] [--accum-steps K]
                            [--no-prefetch] [--save MODEL] [--checkpoint-dir DIR] [--resume STATE]
  rpt trace-report <dump.json>
  rpt help

Observability (any command):
  --log-level LEVEL     off|error|warn|info|debug|trace (default warn;
                        RPT_LOG=target=level overrides per target)
  --quiet               alias for --log-level error
  --progress            step ticker during training (info on rpt::progress)
  --metrics-out PATH    enable metrics; write a JSON snapshot to PATH
                        periodically and at exit
  --trace               enable trace recording (RPT_TRACE=1 also works);
                        a serving process then exposes GET /debug/tracez
  --trace-out PATH      enable tracing and write the event-ring dump to
                        PATH at exit; render it with rpt trace-report

Quantized serving: rpt quantize converts an f32 checkpoint into a
quant-v1 one (f32 params + per-row int8 linear weights); rpt serve
--quant (or RPT_QUANT=1) serves int8 — loading the stored section when
--load points at a quant-v1 file, requantizing on the fly otherwise.

Durable training: --checkpoint-dir DIR writes a rolling, atomically
replaced DIR/train_state.json (params + Adam moments + RNG streams +
loss curve) every ~10% of the run; --resume STATE continues a killed
run bit-identically to one that was never interrupted.

Streaming corpora: rpt shard builds a sharded on-disk corpus (binary
token shards + vocab.json + manifest.json); rpt pretrain streams it
shard by shard — prefetching the next shard in the background unless
--no-prefetch — with --accum-steps folding K micro-batches into one
optimizer step, bit-identical to the equivalent large batch. Its
--checkpoint-dir state records the corpus position (epoch, shard,
offset, pending accumulation window), so --resume continues mid-corpus
— even mid-window — on the exact uninterrupted trajectory.
";

/// Observability flags, valid on every command. Extracted from argv by
/// [`split_obs_flags`] before command parsing so they work uniformly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// `--log-level LEVEL`.
    pub log_level: Option<String>,
    /// `--quiet` (alias for `--log-level error`; the explicit flag wins).
    pub quiet: bool,
    /// `--metrics-out PATH` — enables metrics and snapshots them here.
    pub metrics_out: Option<String>,
    /// `--progress` — step ticker (info records on target `rpt::progress`).
    pub progress: bool,
    /// `--trace` — enable trace recording (`RPT_TRACE=1` also enables it).
    pub trace: bool,
    /// `--trace-out PATH` — enable tracing and write the event-ring dump
    /// (`rpt-trace-v1`) here at exit; `rpt trace-report` reads it.
    pub trace_out: Option<String>,
}

/// Splits the observability flags out of `args`, returning the remaining
/// command arguments and the parsed [`ObsOptions`].
pub fn split_obs_flags(args: &[String]) -> Result<(Vec<String>, ObsOptions), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut obs = ObsOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quiet" => obs.quiet = true,
            "--progress" => obs.progress = true,
            "--trace" => obs.trace = true,
            flag @ ("--log-level" | "--metrics-out" | "--trace-out") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?
                    .clone();
                match flag {
                    "--log-level" => obs.log_level = Some(value),
                    "--metrics-out" => obs.metrics_out = Some(value),
                    _ => obs.trace_out = Some(value),
                }
                i += 1;
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((rest, obs))
}

/// Applies the observability flags: sets the log filter (layered over any
/// `RPT_LOG` directives), turns metrics on when a snapshot path is given,
/// and configures the periodic snapshot writer.
pub fn init_observability(obs: &ObsOptions) -> Result<(), CliError> {
    let mut filter = std::env::var("RPT_LOG")
        .map(|s| rpt_obs::Filter::parse(&s))
        .unwrap_or_default();
    if let Some(level) = &obs.log_level {
        filter.default = rpt_obs::parse_level_filter(level)
            .ok_or_else(|| CliError::Usage(format!("bad --log-level {level}")))?;
    } else if obs.quiet {
        filter.default = rpt_obs::LEVEL_ERROR;
    }
    if obs.progress {
        filter
            .directives
            .push(("rpt::progress".to_string(), rpt_obs::LEVEL_INFO));
    }
    rpt_obs::set_filter(filter);
    if let Some(path) = &obs.metrics_out {
        rpt_obs::set_metrics_enabled(true);
        rpt_obs::set_snapshot_output(path.clone(), std::time::Duration::from_secs(2));
    }
    let env_trace = std::env::var("RPT_TRACE")
        .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    if obs.trace || obs.trace_out.is_some() || env_trace {
        rpt_obs::set_trace_enabled(true);
    }
    if let Some(path) = &obs.trace_out {
        let _ = TRACE_OUT.set(path.clone());
    }
    Ok(())
}

/// Where `--trace-out` writes the final trace dump (set once by
/// [`init_observability`], read by [`finish_observability`], which runs
/// after the parsed options have gone out of scope).
static TRACE_OUT: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// Writes the final metrics snapshot (when `--metrics-out` is active) and
/// the trace dump (when `--trace-out` is active). Called on every exit
/// path so a failed run still leaves its artifacts.
pub fn finish_observability() {
    if let Some(Err(e)) = rpt_obs::flush_snapshot() {
        rpt_obs::error!(target: "rpt_cli", "cannot write metrics snapshot: {e}");
    }
    if let Some(path) = TRACE_OUT.get() {
        let dump = rpt_obs::trace_dump_json().to_string_pretty();
        if let Err(e) = std::fs::write(path, dump) {
            rpt_obs::error!(target: "rpt_cli", "cannot write trace dump {path}: {e}");
        }
    }
}

/// The next positional argument; `missing` is the usage error when argv
/// ends or the next word is a `--flag`.
fn positional<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    missing: &str,
) -> Result<String, CliError> {
    match it.next() {
        Some(arg) if !arg.starts_with("--") => Ok(arg.clone()),
        _ => Err(CliError::Usage(missing.to_string())),
    }
}

/// Rejects whatever argv holds after a command's last positional.
fn no_more<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<(), CliError> {
    match it.next() {
        Some(extra) => Err(CliError::Usage(format!("unexpected argument {extra}"))),
        None => Ok(()),
    }
}

/// The `--flag` at `rest[i]` and its value; a word that is not a flag is a
/// stray positional.
fn flag_value(rest: &[String], i: usize) -> Result<(&str, &String), CliError> {
    let flag = rest[i].as_str();
    if !flag.starts_with("--") {
        return Err(CliError::Usage(format!("unexpected argument {flag}")));
    }
    let value = rest
        .get(i + 1)
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    Ok((flag, value))
}

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    // `detect` fills nothing, so it takes neither `--column` nor `--output`
    let parse_clean_flags = |rest: &[String], detect: bool| -> Result<CleanOptions, CliError> {
        let mut opts = CleanOptions::default();
        let mut i = 0;
        while i < rest.len() {
            let (flag, value) = flag_value(rest, i)?;
            match flag {
                "--column" if !detect => opts.column = Some(value.clone()),
                "--steps" => {
                    opts.steps = value
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad --steps {value}")))?
                }
                "--load" => opts.load = Some(value.clone()),
                "--save" => opts.save = Some(value.clone()),
                "--output" if !detect => opts.output = Some(value.clone()),
                "--checkpoint-dir" => opts.checkpoint_dir = Some(value.clone()),
                "--resume" => opts.resume = Some(value.clone()),
                other => return Err(CliError::Usage(format!("unknown flag {other}"))),
            }
            i += 2;
        }
        Ok(opts)
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profile" => {
            let path = positional(&mut it, "profile needs a file")?;
            no_more(it)?;
            Ok(Command::Profile(path))
        }
        "clean" | "detect" => {
            let path = positional(&mut it, &format!("{cmd} needs a file"))?;
            let rest: Vec<String> = it.cloned().collect();
            if cmd == "clean" {
                Ok(Command::Clean(path, parse_clean_flags(&rest, false)?))
            } else {
                Ok(Command::Detect(path, parse_clean_flags(&rest, true)?))
            }
        }
        "match" => {
            let a = positional(&mut it, "match needs two files")?;
            let b = positional(&mut it, "match needs two files")?;
            let rest: Vec<String> = it.cloned().collect();
            let mut threshold = 0.5f32;
            let mut i = 0;
            while i < rest.len() {
                match flag_value(&rest, i)? {
                    ("--threshold", v) => {
                        threshold = v
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --threshold {v}")))?;
                    }
                    (other, _) => return Err(CliError::Usage(format!("unknown flag {other}"))),
                }
                i += 2;
            }
            Ok(Command::Match(a, b, threshold))
        }
        "serve" => {
            let path = positional(&mut it, "serve needs a file")?;
            let rest: Vec<String> = it.cloned().collect();
            let mut opts = ServeOptions::default();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                if flag == "--quant" {
                    opts.quant = true;
                    i += 1;
                    continue;
                }
                let (flag, value) = flag_value(&rest, i)?;
                match flag {
                    "--addr" => opts.addr = value.clone(),
                    "--max-batch" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --max-batch {value}")))?;
                        if n == 0 {
                            return Err(CliError::Usage("--max-batch must be >= 1".into()));
                        }
                        opts.max_batch = Some(n);
                    }
                    "--steps" => {
                        opts.steps = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --steps {value}")))?
                    }
                    "--load" => opts.load = Some(value.clone()),
                    "--checkpoint-dir" => opts.checkpoint_dir = Some(value.clone()),
                    other => return Err(CliError::Usage(format!("unknown flag {other}"))),
                }
                i += 2;
            }
            Ok(Command::Serve(path, opts))
        }
        "quantize" => {
            let input = positional(&mut it, "quantize needs an input and an output")?;
            let output = positional(&mut it, "quantize needs an input and an output")?;
            no_more(it)?;
            Ok(Command::Quantize(input, output))
        }
        "shard" => {
            let out_dir = positional(&mut it, "shard needs an output directory")?;
            let rest: Vec<String> = it.cloned().collect();
            let mut opts = ShardOptions::default();
            let mut i = 0;
            while i < rest.len() {
                let (flag, value) = flag_value(&rest, i)?;
                match flag {
                    "--shard-size" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --shard-size {value}")))?;
                        if n == 0 {
                            return Err(CliError::Usage("--shard-size must be >= 1".into()));
                        }
                        opts.shard_size = n;
                    }
                    "--rows" => {
                        opts.rows = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --rows {value}")))?
                    }
                    "--seed" => {
                        opts.seed = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --seed {value}")))?
                    }
                    other => return Err(CliError::Usage(format!("unknown flag {other}"))),
                }
                i += 2;
            }
            Ok(Command::Shard(out_dir, opts))
        }
        "pretrain" => {
            let corpus_dir = positional(&mut it, "pretrain needs a corpus directory")?;
            let rest: Vec<String> = it.cloned().collect();
            let mut opts = PretrainOptions::default();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                if flag == "--no-prefetch" {
                    opts.prefetch = false;
                    i += 1;
                    continue;
                }
                let (flag, value) = flag_value(&rest, i)?;
                match flag {
                    "--steps" => {
                        opts.steps = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --steps {value}")))?
                    }
                    "--batch-size" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --batch-size {value}")))?;
                        if n == 0 {
                            return Err(CliError::Usage("--batch-size must be >= 1".into()));
                        }
                        opts.batch_size = n;
                    }
                    "--micro-batch" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --micro-batch {value}")))?;
                        if n == 0 {
                            return Err(CliError::Usage("--micro-batch must be >= 1".into()));
                        }
                        opts.micro_batch = n;
                    }
                    "--accum-steps" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --accum-steps {value}")))?;
                        if n == 0 {
                            return Err(CliError::Usage("--accum-steps must be >= 1".into()));
                        }
                        opts.accum_steps = n;
                    }
                    "--save" => opts.save = Some(value.clone()),
                    "--checkpoint-dir" => opts.checkpoint_dir = Some(value.clone()),
                    "--resume" => opts.resume = Some(value.clone()),
                    other => return Err(CliError::Usage(format!("unknown flag {other}"))),
                }
                i += 2;
            }
            Ok(Command::Pretrain(corpus_dir, opts))
        }
        "trace-report" => {
            let path = positional(&mut it, "trace-report needs a dump file")?;
            no_more(it)?;
            Ok(Command::TraceReport(path))
        }
        other => Err(CliError::Usage(format!("unknown command {other}"))),
    }
}

/// Runs a parsed command, returning the report to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Profile(path) => cmd_profile(&path),
        Command::Clean(path, opts) => cmd_clean(&path, &opts),
        Command::Detect(path, opts) => cmd_detect(&path, &opts),
        Command::Match(a, b, t) => cmd_match(&a, &b, t),
        Command::Serve(path, opts) => cmd_serve(&path, &opts),
        Command::Quantize(input, output) => cmd_quantize(&input, &output),
        Command::Shard(out_dir, opts) => cmd_shard(&out_dir, &opts),
        Command::Pretrain(corpus_dir, opts) => cmd_pretrain(&corpus_dir, &opts),
        Command::TraceReport(path) => cmd_trace_report(&path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_shard_flags() {
        let cmd = parse_args(&s(&[
            "shard",
            "corpus/",
            "--shard-size",
            "32",
            "--rows",
            "80",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Shard(
                "corpus/".into(),
                ShardOptions {
                    shard_size: 32,
                    rows: 80,
                    seed: 9,
                }
            )
        );
        assert_eq!(
            parse_args(&s(&["shard", "c"])).unwrap(),
            Command::Shard("c".into(), ShardOptions::default())
        );
        assert!(parse_args(&s(&["shard"])).is_err());
        assert!(parse_args(&s(&["shard", "c", "--shard-size", "0"])).is_err());
        assert!(parse_args(&s(&["shard", "c", "--bogus", "1"])).is_err());
    }

    #[test]
    fn parse_pretrain_flags() {
        let cmd = parse_args(&s(&[
            "pretrain",
            "corpus/",
            "--steps",
            "200",
            "--batch-size",
            "8",
            "--micro-batch",
            "2",
            "--accum-steps",
            "4",
            "--no-prefetch",
            "--save",
            "m.json",
            "--checkpoint-dir",
            "ckpt/",
            "--resume",
            "ckpt/train_state.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Pretrain(
                "corpus/".into(),
                PretrainOptions {
                    steps: 200,
                    batch_size: 8,
                    micro_batch: 2,
                    accum_steps: 4,
                    prefetch: false,
                    save: Some("m.json".into()),
                    checkpoint_dir: Some("ckpt/".into()),
                    resume: Some("ckpt/train_state.json".into()),
                }
            )
        );
        assert_eq!(
            parse_args(&s(&["pretrain", "c"])).unwrap(),
            Command::Pretrain("c".into(), PretrainOptions::default())
        );
        assert!(parse_args(&s(&["pretrain"])).is_err());
        assert!(parse_args(&s(&["pretrain", "c", "--accum-steps", "0"])).is_err());
        assert!(parse_args(&s(&["pretrain", "c", "--batch-size", "x"])).is_err());
    }

    #[test]
    fn parse_profile_and_help() {
        assert_eq!(
            parse_args(&s(&["profile", "a.csv"])).unwrap(),
            Command::Profile("a.csv".into())
        );
        assert_eq!(parse_args(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_clean_flags() {
        let cmd = parse_args(&s(&[
            "clean", "d.csv", "--column", "price", "--steps", "100", "--output", "out.csv",
        ]))
        .unwrap();
        match cmd {
            Command::Clean(path, spec) => {
                assert_eq!(path, "d.csv");
                assert_eq!(spec.column.as_deref(), Some("price"));
                assert_eq!(spec.steps, 100);
                assert_eq!(spec.output.as_deref(), Some("out.csv"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn split_obs_flags_extracts_and_preserves_order() {
        let (rest, obs) = split_obs_flags(&s(&[
            "clean",
            "d.csv",
            "--quiet",
            "--steps",
            "50",
            "--metrics-out",
            "m.json",
            "--progress",
            "--log-level",
            "debug",
            "--trace",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(rest, s(&["clean", "d.csv", "--steps", "50"]));
        assert_eq!(
            obs,
            ObsOptions {
                log_level: Some("debug".into()),
                quiet: true,
                metrics_out: Some("m.json".into()),
                progress: true,
                trace: true,
                trace_out: Some("t.json".into()),
            }
        );
    }

    #[test]
    fn split_obs_flags_requires_values() {
        assert!(matches!(
            split_obs_flags(&s(&["clean", "d.csv", "--log-level"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            split_obs_flags(&s(&["clean", "d.csv", "--metrics-out"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            split_obs_flags(&s(&["clean", "d.csv", "--trace-out"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_trace_report() {
        assert_eq!(
            parse_args(&s(&["trace-report", "t.json"])).unwrap(),
            Command::TraceReport("t.json".into())
        );
        assert!(matches!(
            parse_args(&s(&["trace-report"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["trace-report", "a", "b"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_report_renders_profile_from_dump() {
        let dir = std::env::temp_dir().join("rpt-cli-test-trace-report");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("trace.json");
        // A hand-built rpt-trace-v1 dump: one request with a decode stage.
        std::fs::write(
            &dump,
            r#"{
              "schema": "rpt-trace-v1",
              "recorded": 4, "capacity": 65536, "overwritten": 0,
              "events": [
                {"kind":"begin","name":"serve.request","trace_id":7,"span_id":1,"parent_id":0,"t_ns":0},
                {"kind":"begin","name":"serve.decode","trace_id":7,"span_id":2,"parent_id":1,"t_ns":1000000},
                {"kind":"end","name":"serve.decode","trace_id":7,"span_id":2,"parent_id":1,"t_ns":3000000},
                {"kind":"end","name":"serve.request","trace_id":7,"span_id":1,"parent_id":0,"t_ns":5000000}
              ]
            }"#,
        )
        .unwrap();
        let report = cmd_trace_report(dump.to_str().unwrap()).unwrap();
        assert!(report.contains("2 span(s), 2 complete"), "{report}");
        assert!(report.contains("serve.request"), "{report}");
        assert!(report.contains("  serve.decode"), "{report}");
        // Garbage input is a typed error, not a panic.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(matches!(
            cmd_trace_report(bad.to_str().unwrap()),
            Err(CliError::Data(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn init_observability_rejects_bad_level() {
        let err = init_observability(&ObsOptions {
            log_level: Some("verbose".into()),
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn parse_match_threshold() {
        let cmd = parse_args(&s(&["match", "a.csv", "b.csv", "--threshold", "0.8"])).unwrap();
        assert_eq!(cmd, Command::Match("a.csv".into(), "b.csv".into(), 0.8));
    }

    #[test]
    fn parse_serve_flags() {
        let cmd = parse_args(&s(&[
            "serve",
            "a.csv",
            "--addr",
            "0.0.0.0:8080",
            "--max-batch",
            "4",
            "--steps",
            "10",
            "--load",
            "m.json",
            "--checkpoint-dir",
            "ckpt",
            "--quant",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(
                "a.csv".into(),
                ServeOptions {
                    addr: "0.0.0.0:8080".into(),
                    max_batch: Some(4),
                    steps: 10,
                    load: Some("m.json".into()),
                    checkpoint_dir: Some("ckpt".into()),
                    quant: true,
                }
            )
        );
    }

    #[test]
    fn parse_quant_flag_is_valueless() {
        // --quant between value-taking flags must not swallow a value
        let cmd = parse_args(&s(&["serve", "a.csv", "--quant", "--steps", "5"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(
                "a.csv".into(),
                ServeOptions {
                    steps: 5,
                    quant: true,
                    ..ServeOptions::default()
                }
            )
        );
    }

    #[test]
    fn parse_quantize() {
        assert_eq!(
            parse_args(&s(&["quantize", "m.json", "q8.json"])).unwrap(),
            Command::Quantize("m.json".into(), "q8.json".into())
        );
        assert!(matches!(
            parse_args(&s(&["quantize", "m.json"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["quantize", "m.json", "q8.json", "extra"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve_defaults_and_errors() {
        let cmd = parse_args(&s(&["serve", "a.csv"])).unwrap();
        assert_eq!(cmd, Command::Serve("a.csv".into(), ServeOptions::default()));
        assert!(matches!(
            parse_args(&s(&["serve"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["serve", "a.csv", "--max-batch", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["serve", "a.csv", "--addr"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["serve", "a.csv", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_args(&s(&["clean"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["clean", "x.csv", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["clean", "x.csv", "--steps", "NaN"])),
            Err(CliError::Usage(_))
        ));
        // detect fills nothing: the clean-only flags are unknown to it
        for flag in ["--column", "--output"] {
            match parse_args(&s(&["detect", "x.csv", flag, "v"])) {
                Err(CliError::Usage(msg)) => assert_eq!(msg, format!("unknown flag {flag}")),
                other => panic!("detect accepted {flag}: {other:?}"),
            }
        }
        // a flag is never taken for the file, and stray words are rejected
        let usage = |args: &[&str]| match parse_args(&s(args)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} parsed: {other:?}"),
        };
        assert_eq!(usage(&["clean", "--steps", "3"]), "clean needs a file");
        assert_eq!(usage(&["clean", "t.csv", "extra"]), "unexpected argument extra");
        assert_eq!(usage(&["profile", "t.csv", "--bogus"]), "unexpected argument --bogus");
        assert_eq!(usage(&["profile", "t.csv", "extra", "args"]), "unexpected argument extra");
        assert_eq!(usage(&["serve", "t.csv", "--quant", "extra"]), "unexpected argument extra");
        assert_eq!(usage(&["match", "a.csv", "b.csv", "c.csv"]), "unexpected argument c.csv");
    }

    #[test]
    fn serve_max_batch_sizes_the_default_queue() {
        let cfg = serve_config(&ServeOptions {
            max_batch: Some(64),
            ..ServeOptions::default()
        });
        assert_eq!(cfg.max_batch, 64);
        assert_eq!(cfg.queue_cap, 256, "documented default is 4 * max_batch");
    }

    #[test]
    fn profile_command_end_to_end() {
        let dir = std::env::temp_dir().join("rpt-cli-test-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "brand,maker,price\niphone,apple,9\niphone,apple,8\ngalaxy,samsung,7\ngalaxy,samsung,6\n",
        )
        .unwrap();
        let report = cmd_profile(path.to_str().unwrap()).unwrap();
        assert!(report.contains("4 rows"));
        assert!(report.contains("brand -> maker"), "{report}");
    }

    #[test]
    fn clean_command_fills_nulls_end_to_end() {
        let dir = std::env::temp_dir().join("rpt-cli-test-clean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let out = dir.join("out.csv");
        // repetitive FD so a tiny model can learn it
        let mut csv = String::from("brand,maker\n");
        for _ in 0..10 {
            csv.push_str("iphone,apple\ngalaxy,samsung\n");
        }
        csv.push_str("iphone,\n"); // the NULL to repair
        std::fs::write(&path, &csv).unwrap();
        let report = cmd_clean(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 150,
                output: Some(out.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.contains("1 value(s) filled"), "{report}");
        let repaired = std::fs::read_to_string(&out).unwrap();
        let last = repaired.trim_end().lines().last().unwrap();
        assert!(last.starts_with("iphone,"));
        assert_ne!(last, "iphone,", "null must be filled, got {last}");
    }

    #[test]
    fn match_command_end_to_end() {
        let dir = std::env::temp_dir().join("rpt-cli-test-match");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "title,brand\niphone ten 64 gb,apple\ngalaxy nine,samsung\npixel three,google\nxperia five,sony\nthinkpad two,lenovo\n").unwrap();
        std::fs::write(&b, "title,brand\niphone ten 64gb,apple inc\nzenbook seven,asus\ncoolpix eight,nikon\nsoundlink one,bose\nsurface four,microsoft\n").unwrap();
        let report = cmd_match(a.to_str().unwrap(), b.to_str().unwrap(), 0.3).unwrap();
        assert!(report.contains("candidates after blocking"));
    }

    #[test]
    fn parse_checkpoint_and_resume_flags() {
        let cmd = parse_args(&s(&[
            "clean",
            "d.csv",
            "--checkpoint-dir",
            "ckpts",
            "--resume",
            "ckpts/train_state.json",
        ]))
        .unwrap();
        match cmd {
            Command::Clean(_, spec) => {
                assert_eq!(spec.checkpoint_dir.as_deref(), Some("ckpts"));
                assert_eq!(spec.resume.as_deref(), Some("ckpts/train_state.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn clean_with_checkpoint_dir_then_resume() {
        let dir = std::env::temp_dir().join("rpt-cli-test-resume");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let ckpts = dir.join("ckpts");
        let mut csv = String::from("brand,maker\n");
        for _ in 0..8 {
            csv.push_str("iphone,apple\ngalaxy,samsung\n");
        }
        std::fs::write(&path, &csv).unwrap();
        // train a short run that leaves a rolling train-state checkpoint
        cmd_detect(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 20,
                checkpoint_dir: Some(ckpts.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        let state = ckpts.join(rpt_core::train::TRAIN_STATE_FILE);
        assert!(state.exists(), "no rolling checkpoint written");
        // resume it to a longer run
        let report = cmd_detect(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 30,
                resume: Some(state.to_str().unwrap().to_string()),
                checkpoint_dir: Some(ckpts.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.contains("suspicious cell(s)"));
        // a corrupt state file surfaces as a typed data error, not a panic
        std::fs::write(&state, "{definitely not a checkpoint").unwrap();
        let err = cmd_detect(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 30,
                resume: Some(state.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("rpt-cli-test-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let model = dir.join("model.json");
        let mut csv = String::from("brand,maker\n");
        for _ in 0..6 {
            csv.push_str("iphone,apple\ngalaxy,samsung\n");
        }
        std::fs::write(&path, &csv).unwrap();
        // train + save
        cmd_clean(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 40,
                save: Some(model.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(model.exists());
        // load without training
        let report = cmd_detect(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 0,
                load: Some(model.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.contains("suspicious cell(s)"));
    }

    #[test]
    fn quantize_command_end_to_end() {
        let dir = std::env::temp_dir().join("rpt-cli-test-quantize");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let model = dir.join("model.json");
        let q8 = dir.join("model.q8.json");
        let mut csv = String::from("brand,maker\n");
        for _ in 0..6 {
            csv.push_str("iphone,apple\ngalaxy,samsung\n");
        }
        std::fs::write(&path, &csv).unwrap();
        cmd_clean(
            path.to_str().unwrap(),
            &CleanOptions {
                steps: 20,
                save: Some(model.to_str().unwrap().to_string()),
                ..Default::default()
            },
        )
        .unwrap();

        let report = cmd_quantize(model.to_str().unwrap(), q8.to_str().unwrap()).unwrap();
        assert!(report.contains("quant-v1"), "{report}");

        // The output carries both halves: an int8 section matching what
        // requantizing the stored f32 params produces...
        let entries = serialize::load_quant_file(&q8).unwrap().expect("quant section");
        let store = serialize::load_params_any(&std::fs::read_to_string(&q8).unwrap()).unwrap();
        let rebuilt = rpt_nn::build_quant_set(&store);
        assert_eq!(entries.len(), rebuilt.iter_named().count());
        for (name, qm) in entries.iter() {
            let (_, expect) = rebuilt
                .iter_named()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("unexpected quant tensor {name}"));
            assert_eq!(qm.weights(), expect.weights(), "{name}: int8 payload differs");
            assert_eq!(qm.scales(), expect.scales(), "{name}: scales differ");
        }
        // ...and f32 params a plain loader still accepts (quant-v1 is
        // backward compatible).
        let original = serialize::load_params_any(&std::fs::read_to_string(&model).unwrap()).unwrap();
        for (name, t) in original.iter() {
            let got = store.value(store.find(name).expect(name));
            assert_eq!(got.data(), t.data(), "{name} f32 payload differs");
        }

        // A garbage input is a typed error, not a panic.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(matches!(
            cmd_quantize(bad.to_str().unwrap(), q8.to_str().unwrap()),
            Err(CliError::Data(_))
        ));
    }
}
