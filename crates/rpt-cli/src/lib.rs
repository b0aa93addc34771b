//! # rpt-cli
//!
//! The "plug and play" tool of §2.2 research opportunity O3: *"anyone can
//! download a pretrained RPT-C and run it locally …, which can then be
//! used to directly detect and repair errors for local data"*.
//!
//! The library holds every command — `profile`, `clean`, `detect`,
//! `match`, `serve`, `quantize`, `shard`, `pretrain`, `trace-report` —
//! and the argument parser: [`parse`] makes one pass over argv against a
//! command table (each command's positionals) and a flag table (each
//! flag's commands, value kind, env fallback and target option). The
//! same tables render the synopsis lines of [`usage`]. `main.rs` only
//! prints reports and sets exit codes.

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
    /// Load a pretrained checkpoint instead of training. A loaded model
    /// is never trained, so `load` takes neither `resume` nor
    /// `checkpoint_dir`.
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

/// Creates a checkpoint directory if it is missing.
fn create_dir(dir: &str) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Data(format!("cannot create checkpoint dir {dir}: {e}")))
}

/// The setup every training command shares: warmup over the first tenth
/// of `train.steps`, the rolling train-state checkpoint every tenth of
/// the run in `checkpoint_dir` (created if missing), and the check that
/// there is something to train. `or_load` is the `--load` alternative
/// that check's error names ("" for `pretrain`, which has none).
fn training(
    mut train: TrainOpts,
    checkpoint_dir: Option<&str>,
    resume: Option<&str>,
    or_load: &str,
) -> Result<(CleaningConfig, Option<CheckpointOpts>), CliError> {
    if train.steps == 0 && resume.is_none() {
        let msg = format!("either --steps > 0{or_load} or --resume <state> is required");
        return Err(CliError::Usage(msg));
    }
    train.warmup = (train.steps / 10).max(1);
    let checkpoint = checkpoint_dir.map(|dir| CheckpointOpts {
        dir: dir.into(),
        every: train.warmup,
    });
    if let Some(dir) = checkpoint_dir {
        create_dir(dir)?;
    }
    let cfg = CleaningConfig {
        train,
        ..Default::default()
    };
    Ok((cfg, checkpoint))
}

/// The int8 tensors a loaded checkpoint carried, if any.
type QuantSection = Option<Vec<(String, rpt_tensor::QuantMatrix)>>;

/// Reads a checkpoint file once, with the CLI's error wording.
fn read_checkpoint(path: &str) -> Result<serialize::Checkpoint, CliError> {
    serialize::Checkpoint::read(path).map_err(|e| CliError::Data(format!("{path}: {e}")))
}

/// Trains a cleaning model over the table, or loads one with `--load`;
/// a loaded checkpoint's quant section comes back from the same read.
fn build_model(table: &Table, opts: &CleanOptions) -> Result<(RptC, QuantSection), CliError> {
    let vocab = build_vocab(&[table], &[], 1, 20_000);
    let resume = opts.resume.as_deref();
    let mut model;
    let mut quant = None;
    if let Some(path) = &opts.load {
        if resume.is_some() || opts.checkpoint_dir.is_some() {
            let msg = "--load takes neither --resume nor --checkpoint-dir: it trains nothing";
            return Err(CliError::Usage(msg.into()));
        }
        model = RptC::new(vocab, CleaningConfig::default());
        let ckpt = read_checkpoint(path)?;
        serialize::apply_params(&mut model.params, ckpt.params)
            .map_err(|e| CliError::Data(format!("checkpoint {path}: {e}")))?;
        quant = ckpt.quant;
    } else {
        let train = TrainOpts {
            steps: opts.steps,
            ..Default::default()
        };
        let dir = opts.checkpoint_dir.as_deref();
        let (cfg, checkpoint) = training(train, dir, resume, ", --load <checkpoint>,")?;
        model = RptC::new(vocab, cfg);
        let pool = rpt_core::ThreadPool::global();
        model
            .pretrain_on(pool, &[table], checkpoint.as_ref(), resume.map(Path::new))
            .map_err(|e| CliError::Data(format!("pretraining: {e}")))?;
    }
    if let Some(path) = &opts.save {
        serialize::save_file(&model.params, path)
            .map_err(|e| CliError::Data(format!("cannot save checkpoint: {e}")))?;
    }
    Ok((model, quant))
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
    let (mut model, _) = build_model(&table, opts)?;
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
    let (mut model, _) = build_model(&table, opts)?;
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
/// --save` writes) into a quantized one: the same f32 params plus a quant
/// section holding a per-row int8 tensor for every linear weight, which
/// `rpt serve --quant --load` attaches directly instead of requantizing
/// at startup.
/// Model-free: works on any checkpoint without rebuilding the
/// architecture that produced it.
pub fn cmd_quantize(input: &str, output: &str) -> Result<String, CliError> {
    let store = read_checkpoint(input)?.into_store();
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
        "quantized {n_linear} linear weight(s){tied} -> {output} (quant section)\n"
    ))
}

/// `rpt inspect` — which sections a checkpoint holds and what is in them:
/// one line each for `params`, `train` and `quant`.
pub fn cmd_inspect(path: &str) -> Result<String, CliError> {
    let ckpt = read_checkpoint(path)?;
    let scalars: usize = ckpt.params.iter().map(|(_, t)| t.numel()).sum();
    let mut report = format!("params: {} tensors, {scalars} scalars\n", ckpt.params.len());
    match &ckpt.train {
        None => report.push_str("train: none\n"),
        Some(t) => {
            let _ = write!(report, "train: {} steps done", t.steps_done);
            if let Some(a) = &t.adam {
                let _ = write!(report, ", adam t={}", a.t);
            }
            let _ = write!(report, ", {} rng streams", t.rng_streams.len());
            if let Some(c) = &t.corpus {
                let _ = write!(
                    report,
                    ", corpus epoch {} shard {} offset {}",
                    c.epoch, c.shard, c.offset
                );
                if let Some(a) = &c.accum {
                    let _ = write!(
                        report,
                        " (open window: {} micro-steps, {} pending shards)",
                        a.micro_done,
                        a.pending.len()
                    );
                }
            }
            report.push('\n');
        }
    }
    match &ckpt.quant {
        None => report.push_str("quant: none\n"),
        Some(q) => {
            let _ = writeln!(report, "quant: {} int8 tensors", q.len());
        }
    }
    Ok(report)
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
    let train = TrainOpts {
        steps: opts.steps,
        batch_size: opts.batch_size,
        micro_batch: opts.micro_batch,
        ..Default::default()
    };
    let resume = opts.resume.as_deref();
    let (cfg, checkpoint) = training(train, opts.checkpoint_dir.as_deref(), resume, "")?;
    let mut model = RptC::new(vocab, cfg);
    let stream = StreamOpts {
        accum_steps: opts.accum_steps.max(1),
        prefetch: opts.prefetch,
        stop_after_micro: None,
    };
    let n_shards = disk.manifest().shards.len();
    let n_tuples = disk.manifest().total_tuples();
    let losses = model
        .pretrain_stream(
            Box::new(disk),
            &stream,
            checkpoint.as_ref(),
            resume.map(Path::new),
        )
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

/// The largest trace dump `rpt trace-report` reads: several times the
/// dump of a full 65536-event trace ring.
pub const MAX_TRACE_DUMP_BYTES: u64 = 64 << 20;

/// `rpt trace-report` — render a `--trace-out` dump (`rpt-trace-v1`) as
/// a self-time profile: one line per span-name path from its trace root,
/// children flamegraph-ordered (heaviest total time first).
pub fn cmd_trace_report(path: &str) -> Result<String, CliError> {
    let text = rpt_json::read_capped(path, MAX_TRACE_DUMP_BYTES)
        .map_err(|e| CliError::Data(format!("cannot read trace dump {path}: {e}")))?;
    let doc = rpt_json::Json::parse(&text)
        .map_err(|e| CliError::Data(format!("trace dump {path}: {e}")))?;
    let spans = rpt_obs::spans_from_dump(&doc)
        .map_err(|e| CliError::Data(format!("trace dump {path}: {e}")))?;
    let complete = spans.iter().filter(|s| s.dur_ns.is_some()).count();
    let overwritten = doc.get("overwritten").and_then(|v| v.as_u64()).unwrap_or(0);
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

/// Options for `rpt serve`. A setting left `None` takes the
/// [`rpt_serve::ServeConfig`] default (see [`serve_config`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// `--addr` (default `127.0.0.1:0`, kernel-assigned port).
    pub addr: String,
    /// `--max-batch`, else `RPT_SERVE_MAX_BATCH`; at most [`MAX_BATCH`].
    pub max_batch: Option<usize>,
    /// `RPT_SERVE_QUEUE_CAP` (no flag); `None` is `4 * max_batch`.
    pub queue_cap: Option<usize>,
    /// `RPT_SERVE_RELOAD_POLL_MS` (no flag).
    pub reload_poll_ms: Option<u64>,
    /// `--steps` pretraining steps on the file itself.
    pub steps: usize,
    /// `--load` a pretrained checkpoint instead of training.
    pub load: Option<String>,
    /// `--checkpoint-dir` — watch `DIR/model.json` for hot-reload.
    pub checkpoint_dir: Option<String>,
    /// `--quant`, or `RPT_QUANT=1` — serve int8 quantized weights.
    pub quant: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch: None,
            queue_cap: None,
            reload_poll_ms: None,
            steps: 400,
            load: None,
            checkpoint_dir: None,
            quant: false,
        }
    }
}

/// The server settings `rpt serve` runs with: the options over the
/// [`rpt_serve::ServeConfig`] defaults, with the queue sized
/// `4 * max_batch` unless `queue_cap` is given.
pub fn serve_config(opts: &ServeOptions) -> rpt_serve::ServeConfig {
    let d = rpt_serve::ServeConfig::default();
    let max_batch = opts.max_batch.unwrap_or(d.max_batch);
    rpt_serve::ServeConfig {
        addr: opts.addr.clone(),
        max_batch,
        // saturates rather than wraps: `Server::start` refuses the result
        queue_cap: opts.queue_cap.unwrap_or(max_batch.saturating_mul(4)),
        reload_poll_ms: opts.reload_poll_ms.unwrap_or(d.reload_poll_ms),
        quant: opts.quant,
        checkpoint: opts
            .checkpoint_dir
            .as_ref()
            .map(|dir| Path::new(dir).join(SERVE_MODEL_FILE)),
        ..d
    }
}

/// `rpt serve` — train (or load) a cleaning model over the file, then
/// serve it over HTTP until killed. Prints `listening on ADDR` once the
/// socket is bound, then blocks forever.
pub fn cmd_serve(path: &str, opts: &ServeOptions) -> Result<String, CliError> {
    let table = load_table(path)?;
    let (model, stored_quant) = build_model(
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
        create_dir(dir)?;
    }
    if cfg.quant {
        // A quantized checkpoint (`rpt quantize` output) carries the int8
        // tensors, read with the params; attach them so the server serves
        // exactly the quantized file. A plain f32 checkpoint (or a stale
        // section) falls through and the batcher requantizes.
        if let Some(entries) = stored_quant {
            match rpt_nn::quant_set_from_named(&params, entries) {
                Ok(qs) => model.set_quant(Some(std::sync::Arc::new(qs))),
                Err(e) => rpt_obs::warn!(
                    target: "rpt_cli",
                    "stored quant section rejected ({e}); requantizing"
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
    /// `rpt inspect <checkpoint>`
    Inspect(String),
    /// `rpt shard <out-dir> [flags]`
    Shard(String, ShardOptions),
    /// `rpt pretrain <corpus-dir> [flags]`
    Pretrain(String, PretrainOptions),
    /// `rpt trace-report <dump.json>`
    TraceReport(String),
    /// `rpt help`
    Help,
}

/// Observability flags, valid on every command and anywhere on the
/// command line.
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
    /// `--trace`, or `RPT_TRACE=1` — enable trace recording.
    pub trace: bool,
    /// `--trace-out PATH` — enable tracing and write the event-ring dump
    /// (`rpt-trace-v1`) here at exit; `rpt trace-report` reads it.
    pub trace_out: Option<String>,
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
    if obs.trace || obs.trace_out.is_some() {
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

type Str = &'static str;

/// A command: its name and positionals as the help text shows them, and
/// the usage error when argv runs out of positionals or a flag comes
/// before they are complete.
struct Cmd(Str, &'static [Str], Str);

/// `rpt help` (also `--help`, `-h`, and an empty command line).
const HELP: Cmd = Cmd("help", &[], "");

#[rustfmt::skip]
const COMMANDS: &[Cmd] = &[
    Cmd("profile",      &["<file.csv>"],                 "profile needs a file"),
    Cmd("clean",        &["<file.csv>"],                 "clean needs a file"),
    Cmd("detect",       &["<file.csv>"],                 "detect needs a file"),
    Cmd("match",        &["<a.csv>", "<b.csv>"],         "match needs two files"),
    Cmd("serve",        &["<file.csv>"],                 "serve needs a file"),
    Cmd("quantize",     &["<model.json>", "<out.json>"], "quantize needs an input and an output"),
    Cmd("inspect",      &["<checkpoint>"],               "inspect needs a checkpoint file"),
    Cmd("shard",        &["<out-dir>"],                  "shard needs an output directory"),
    Cmd("pretrain",     &["<corpus-dir>"],               "pretrain needs a corpus directory"),
    Cmd("trace-report", &["<dump.json>"],                "trace-report needs a dump file"),
    HELP,
];

/// How a flag's value, or its env fallback's, is read: `Switch` takes
/// none (its variable is on for `1` or `true`), `Text` any string,
/// `Count(max)` a `usize` in `1..=max`, `Finite` a finite `f32`.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Text,
    Usize,
    Count(usize),
    U64,
    Finite,
}

use Kind::{Count, Finite, Switch, Text, Usize, U64};

impl Kind {
    /// Checks `value` as this kind; `what` (the flag or the variable)
    /// names it in the error.
    fn check(self, what: &str, value: &str) -> Result<(), CliError> {
        let ok = match self {
            Switch | Text => true,
            Usize | Count(_) => value.parse::<usize>().is_ok(),
            U64 => value.parse::<u64>().is_ok(),
            Finite => value.parse::<f32>().is_ok_and(f32::is_finite),
        };
        let err = match (self, value.parse::<usize>()) {
            _ if !ok => format!("bad {what} {value}"),
            (Count(_), Ok(0)) => format!("{what} must be >= 1"),
            (Count(max), Ok(n)) if n > max => format!("{what} must be <= {max}"),
            _ => return Ok(()),
        };
        Err(CliError::Usage(err))
    }
}

/// Everything one command line sets, over the defaults: each command's
/// options (only the parsed command's are used) and the observability
/// flags.
#[derive(Default)]
struct Parsed {
    clean: CleanOptions,
    serve: ServeOptions,
    shard: ShardOptions,
    pretrain: PretrainOptions,
    threshold: Option<f32>,
    obs: ObsOptions,
}

/// One row of the flag table: the flag as typed (a setting read only from
/// the environment is named by its variable), its value's placeholder in
/// the help text, the commands that take it (none: every command), its
/// value kind, its env fallback, and where its checked value goes.
struct Flag {
    name: Str,
    meta: Str,
    cmds: &'static [Str],
    kind: Kind,
    env: Option<Str>,
    set: Setter,
}

type Setter = fn(&mut Parsed, &str);

const fn flag(name: Str, meta: Str, cmds: &'static [Str], kind: Kind, set: Setter) -> Flag {
    Flag {
        name,
        meta,
        cmds,
        kind,
        env: None,
        set,
    }
}

impl Flag {
    /// The row with `var` as its env fallback.
    const fn env(self, var: Str) -> Flag {
        Flag {
            env: Some(var),
            ..self
        }
    }

    fn on_argv(&self) -> bool {
        self.name.starts_with("--")
    }
}

/// A value its kind has checked, as the option's type.
fn num<T: std::str::FromStr>(value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| unreachable!("each row's kind admits only values its option parses"))
}

/// Ceiling on `--max-batch` / `RPT_SERVE_MAX_BATCH`: the default queue of
/// `4 * max_batch` places stays within [`rpt_serve::MAX_QUEUE_CAP`].
pub const MAX_BATCH: usize = rpt_serve::MAX_QUEUE_CAP / 4;

const TRAIN: &[Str] = &["clean", "detect"];
const ALL: &[Str] = &[];

/// Every flag, grouped by command in help-text order. A row named by a
/// variable is a setting with no flag.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--column",         "NAME",  &["clean"], Text,              |p, v| p.clean.column = Some(v.into())),
    flag("--steps",          "N",     TRAIN,      Usize,             |p, v| p.clean.steps = num(v)),
    flag("--load",           "MODEL", TRAIN,      Text,              |p, v| p.clean.load = Some(v.into())),
    flag("--save",           "MODEL", TRAIN,      Text,              |p, v| p.clean.save = Some(v.into())),
    flag("--output",         "OUT",   &["clean"], Text,              |p, v| p.clean.output = Some(v.into())),
    flag("--checkpoint-dir", "DIR",   TRAIN,      Text,              |p, v| p.clean.checkpoint_dir = Some(v.into())),
    flag("--resume",         "STATE", TRAIN,      Text,              |p, v| p.clean.resume = Some(v.into())),
    flag("--threshold",      "T",     &["match"], Finite,            |p, v| p.threshold = Some(num(v))),
    flag("--addr",           "ADDR",  &["serve"], Text,              |p, v| p.serve.addr = v.into()),
    flag("--max-batch",      "N",     &["serve"], Count(MAX_BATCH),  |p, v| p.serve.max_batch = Some(num(v)))
        .env("RPT_SERVE_MAX_BATCH"),
    flag("--steps",          "N",     &["serve"], Usize,             |p, v| p.serve.steps = num(v)),
    flag("--load",           "MODEL", &["serve"], Text,              |p, v| p.serve.load = Some(v.into())),
    flag("--checkpoint-dir", "DIR",   &["serve"], Text,              |p, v| p.serve.checkpoint_dir = Some(v.into())),
    flag("--quant",          "",      &["serve"], Switch,            |p, _| p.serve.quant = true)
        .env("RPT_QUANT"),
    flag("RPT_SERVE_QUEUE_CAP", "",   &["serve"], Count(rpt_serve::MAX_QUEUE_CAP),
                                                                     |p, v| p.serve.queue_cap = Some(num(v)))
        .env("RPT_SERVE_QUEUE_CAP"),
    flag("RPT_SERVE_RELOAD_POLL_MS", "", &["serve"], U64,            |p, v| p.serve.reload_poll_ms = Some(num(v)))
        .env("RPT_SERVE_RELOAD_POLL_MS"),
    flag("--shard-size",     "K",     &["shard"], Count(usize::MAX), |p, v| p.shard.shard_size = num(v)),
    flag("--rows",           "N",     &["shard"], Usize,             |p, v| p.shard.rows = num(v)),
    flag("--seed",           "S",     &["shard"], U64,               |p, v| p.shard.seed = num(v)),
    flag("--steps",          "N",     &["pretrain"], Usize,          |p, v| p.pretrain.steps = num(v)),
    flag("--batch-size",     "B",     &["pretrain"], Count(usize::MAX), |p, v| p.pretrain.batch_size = num(v)),
    flag("--micro-batch",    "M",     &["pretrain"], Count(usize::MAX), |p, v| p.pretrain.micro_batch = num(v)),
    flag("--accum-steps",    "K",     &["pretrain"], Count(usize::MAX), |p, v| p.pretrain.accum_steps = num(v)),
    flag("--no-prefetch",    "",      &["pretrain"], Switch,         |p, _| p.pretrain.prefetch = false),
    flag("--save",           "MODEL", &["pretrain"], Text,           |p, v| p.pretrain.save = Some(v.into())),
    flag("--checkpoint-dir", "DIR",   &["pretrain"], Text,           |p, v| p.pretrain.checkpoint_dir = Some(v.into())),
    flag("--resume",         "STATE", &["pretrain"], Text,           |p, v| p.pretrain.resume = Some(v.into())),
    flag("--log-level",      "LEVEL", ALL,        Text,              |p, v| p.obs.log_level = Some(v.into())),
    flag("--quiet",          "",      ALL,        Switch,            |p, _| p.obs.quiet = true),
    flag("--progress",       "",      ALL,        Switch,            |p, _| p.obs.progress = true),
    flag("--metrics-out",    "PATH",  ALL,        Text,              |p, v| p.obs.metrics_out = Some(v.into())),
    flag("--trace",          "",      ALL,        Switch,            |p, _| p.obs.trace = true)
        .env("RPT_TRACE"),
    flag("--trace-out",      "PATH",  ALL,        Text,              |p, v| p.obs.trace_out = Some(v.into())),
];

/// Parses argv (without the program name) in one pass. The first word
/// that is not an observability flag names the command; its positionals
/// follow, then its flags; the observability flags may stand anywhere.
/// What the command line leaves out then falls back to the environment,
/// read through `env` (see [`env_fallbacks`]).
pub fn parse(
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<(Command, ObsOptions), CliError> {
    let fail = |msg: String| Err(CliError::Usage(msg));
    let (mut cmd, mut words, mut given) = (None::<&Cmd>, Vec::new(), Vec::new());
    let mut p = Parsed::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let global = FLAGS.iter().find(|f| f.cmds.is_empty() && f.name == arg);
        let flag = match (global, cmd) {
            (Some(f), _) => f,
            (None, None) => {
                let help = ["--help", "-h"].contains(&arg.as_str());
                match COMMANDS
                    .iter()
                    .find(|c| c.0 == arg || (help && c.0 == "help"))
                {
                    Some(c) => cmd = Some(c),
                    None => return fail(format!("unknown command {arg}")),
                }
                continue;
            }
            (None, Some(Cmd(_, args, missing))) if words.len() < args.len() => {
                if arg.starts_with("--") {
                    return fail(missing.to_string());
                }
                words.push(arg.clone());
                continue;
            }
            (None, Some(Cmd(name, ..))) => {
                let own = |f: &&Flag| f.cmds.contains(name) && f.on_argv();
                match FLAGS.iter().filter(own).find(|f| f.name == arg) {
                    Some(f) => f,
                    None if arg.starts_with("--") && FLAGS.iter().any(|f| own(&f)) => {
                        return fail(format!("unknown flag {arg}"))
                    }
                    None => return fail(format!("unexpected argument {arg}")),
                }
            }
        };
        let value = match flag.kind {
            Switch => "",
            kind => {
                let Some(value) = it.next() else {
                    return fail(format!("{} needs a value", flag.name));
                };
                kind.check(flag.name, value)?;
                value
            }
        };
        (flag.set)(&mut p, value);
        given.push(flag.name);
    }
    let Cmd(name, args, missing) = cmd.unwrap_or(&HELP);
    if words.len() < args.len() {
        return fail(missing.to_string());
    }
    env_fallbacks(name, &given, &mut p, env)?;
    let mut words = words.into_iter();
    let mut word = || words.next().unwrap_or_default();
    let command = match *name {
        "profile" => Command::Profile(word()),
        "clean" => Command::Clean(word(), p.clean),
        "detect" => Command::Detect(word(), p.clean),
        "match" => Command::Match(word(), word(), p.threshold.unwrap_or(0.5)),
        "serve" => Command::Serve(word(), p.serve),
        "quantize" => Command::Quantize(word(), word()),
        "inspect" => Command::Inspect(word()),
        "shard" => Command::Shard(word(), p.shard),
        "pretrain" => Command::Pretrain(word(), p.pretrain),
        "trace-report" => Command::TraceReport(word()),
        _ => Command::Help,
    };
    Ok((command, p.obs))
}

/// Flag, then env, then default: each setting of `cmd` with an env
/// fallback that the command line did not give is read from `env` and
/// checked like a flag value; what is still missing keeps its option's
/// default. The one place the CLI reads `RPT_SERVE_*`, `RPT_QUANT` and
/// `RPT_TRACE`.
fn env_fallbacks(
    cmd: &str,
    given: &[Str],
    p: &mut Parsed,
    env: impl Fn(&str) -> Option<String>,
) -> Result<(), CliError> {
    for f in FLAGS
        .iter()
        .filter(|f| f.cmds.is_empty() || f.cmds.contains(&cmd))
    {
        let (Some(var), false) = (f.env, given.contains(&f.name)) else {
            continue;
        };
        let Some(value) = env(var) else { continue };
        match f.kind {
            Switch if value != "1" && !value.eq_ignore_ascii_case("true") => continue,
            kind => kind.check(var, &value)?,
        }
        (f.set)(p, &value);
    }
    Ok(())
}

/// The help text: the synopsis lines, rendered from the command and flag
/// tables, then the prose.
pub fn usage() -> String {
    let mut out =
        String::from("rpt — relational pre-trained transformer, plug-and-play\n\nUSAGE:\n");
    for Cmd(name, args, _) in COMMANDS {
        let head = format!("rpt {name:<7} {}", args.join(" "));
        synopsis(&mut out, &head, |f| f.cmds.contains(name));
    }
    out.push_str("\nObservability (any command):\n");
    synopsis(&mut out, "rpt <command> ...", |f| f.cmds.is_empty());
    let _ = write!(
        out,
        "--log-level is off|error|warn|info|debug|trace (default warn;
RPT_LOG=target=level overrides per target) and --quiet means
--log-level error. --progress logs a step ticker during training (info
on rpt::progress). --metrics-out enables metrics and writes a JSON
snapshot to PATH periodically and at exit. --trace (or RPT_TRACE=1)
enables trace recording; a serving process then exposes GET
/debug/tracez. --trace-out also writes the event-ring dump to PATH at
exit; render it with rpt trace-report.

Serving: a flag rpt serve leaves out falls back to its variable, then to
the default: --max-batch to RPT_SERVE_MAX_BATCH (default 8, at most
{MAX_BATCH}) and --quant to RPT_QUANT=1. The decode queue takes
RPT_SERVE_QUEUE_CAP places (default 4 x the max batch, at most {}) and
hot-reload polls every RPT_SERVE_RELOAD_POLL_MS (default 50).

Checkpoints: --save, --checkpoint-dir and rpt quantize write one binary
container (raw f32 bits behind a checksum) with a params section and,
when present, a train and a quant section; rpt inspect lists them. The
.json file names are kept for continuity: the format is recognised by
content, and JSON checkpoints from earlier builds still load.

Quantized serving: rpt quantize converts an f32 checkpoint into a
quantized one (f32 params + a quant section of per-row int8 linear
weights); rpt serve --quant (or RPT_QUANT=1) serves int8 — using the
stored section when --load points at a quantized file, requantizing on
the fly otherwise.

Durable training: --checkpoint-dir DIR writes a rolling, atomically
replaced DIR/train_state.json (params + a train section: Adam moments,
RNG streams, loss curve) every ~10% of the run; --resume STATE
continues a killed run bit-identically to one that was never
interrupted. A --load model is never trained, so clean and detect
refuse --load with either.

Streaming corpora: rpt shard builds a sharded on-disk corpus (binary
token shards + vocab.json + manifest.json); rpt pretrain streams it
shard by shard — prefetching the next shard in the background unless
--no-prefetch — with --accum-steps folding K micro-batches into one
optimizer step, bit-identical to the equivalent large batch. Its
--checkpoint-dir state records the corpus position (epoch, shard,
offset, pending accumulation window), so --resume continues mid-corpus
— even mid-window — on the exact uninterrupted trajectory.
",
        rpt_serve::MAX_QUEUE_CAP
    );
    out
}

/// Appends `head` and a `[--flag VALUE]` item for each flag `takes`
/// selects, wrapping at 100 columns under the first item.
fn synopsis(out: &mut String, head: &str, takes: impl Fn(&Flag) -> bool) {
    let mut line = format!("  {}", head.trim_end());
    let indent = line.len();
    for f in FLAGS.iter().filter(|f| f.on_argv() && takes(f)) {
        let item = match f.meta {
            "" => format!("[{}]", f.name),
            meta => format!("[{} {meta}]", f.name),
        };
        if line.len() + 1 + item.len() > 100 {
            let _ = writeln!(out, "{line}");
            line = " ".repeat(indent);
        }
        let _ = write!(line, " {item}");
    }
    let _ = writeln!(out, "{line}");
}

/// Runs a parsed command, returning the report to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Profile(path) => cmd_profile(&path),
        Command::Clean(path, opts) => cmd_clean(&path, &opts),
        Command::Detect(path, opts) => cmd_detect(&path, &opts),
        Command::Match(a, b, t) => cmd_match(&a, &b, t),
        Command::Serve(path, opts) => cmd_serve(&path, &opts),
        Command::Quantize(input, output) => cmd_quantize(&input, &output),
        Command::Inspect(path) => cmd_inspect(&path),
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

    /// An environment with only the given variables set.
    fn fake_env(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: Vec<(String, String)> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |var| vars.iter().find(|(k, _)| k == var).map(|(_, v)| v.clone())
    }

    /// The command `args` parse to in an empty environment.
    fn parse_cmd(args: &[String]) -> Result<Command, CliError> {
        parse(args, fake_env(&[])).map(|(cmd, _)| cmd)
    }

    /// The serve options and observability flags of `args` under `env`.
    fn parse_serve(args: &[&str], env: &[(&str, &str)]) -> (ServeOptions, ObsOptions) {
        match parse(&s(args), fake_env(env)) {
            Ok((Command::Serve(_, opts), obs)) => (opts, obs),
            other => panic!("{args:?} under {env:?}: {other:?}"),
        }
    }

    /// The usage error `args` give under `env`.
    fn usage_error(args: &[&str], env: &[(&str, &str)]) -> String {
        match parse(&s(args), fake_env(env)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} under {env:?} parsed: {other:?}"),
        }
    }

    #[test]
    fn parse_shard_flags() {
        let cmd = parse_cmd(&s(&[
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
            parse_cmd(&s(&["shard", "c"])).unwrap(),
            Command::Shard("c".into(), ShardOptions::default())
        );
        assert!(parse_cmd(&s(&["shard"])).is_err());
        assert!(parse_cmd(&s(&["shard", "c", "--shard-size", "0"])).is_err());
        assert!(parse_cmd(&s(&["shard", "c", "--bogus", "1"])).is_err());
    }

    #[test]
    fn parse_pretrain_flags() {
        let cmd = parse_cmd(&s(&[
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
            parse_cmd(&s(&["pretrain", "c"])).unwrap(),
            Command::Pretrain("c".into(), PretrainOptions::default())
        );
        assert!(parse_cmd(&s(&["pretrain"])).is_err());
        assert!(parse_cmd(&s(&["pretrain", "c", "--accum-steps", "0"])).is_err());
        assert!(parse_cmd(&s(&["pretrain", "c", "--batch-size", "x"])).is_err());
    }

    #[test]
    fn parse_profile_and_help() {
        assert_eq!(
            parse_cmd(&s(&["profile", "a.csv"])).unwrap(),
            Command::Profile("a.csv".into())
        );
        assert_eq!(parse_cmd(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_cmd(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_clean_flags() {
        let cmd = parse_cmd(&s(&[
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
    fn obs_flags_parse_anywhere_in_the_one_pass() {
        let (cmd, obs) = parse(
            &s(&[
                "--quiet",
                "clean",
                "d.csv",
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
            ]),
            fake_env(&[]),
        )
        .unwrap();
        let opts = CleanOptions {
            steps: 50,
            ..CleanOptions::default()
        };
        assert_eq!(cmd, Command::Clean("d.csv".into(), opts));
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
        // between the command and its file too, on a command without flags
        let (cmd, obs) = parse(&s(&["profile", "--quiet", "t.csv"]), fake_env(&[])).unwrap();
        assert_eq!(cmd, Command::Profile("t.csv".into()));
        assert!(obs.quiet);
    }

    #[test]
    fn obs_flags_require_values() {
        for flag in ["--log-level", "--metrics-out", "--trace-out"] {
            assert_eq!(
                usage_error(&["clean", "d.csv", flag], &[]),
                format!("{flag} needs a value")
            );
        }
    }

    #[test]
    fn parse_trace_report() {
        assert_eq!(
            parse_cmd(&s(&["trace-report", "t.json"])).unwrap(),
            Command::TraceReport("t.json".into())
        );
        assert!(matches!(
            parse_cmd(&s(&["trace-report"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["trace-report", "a", "b"])),
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
        // A dump above the ceiling is refused unread (sparse: no data).
        let big = dir.join("big.json");
        std::fs::File::create(&big)
            .unwrap()
            .set_len(MAX_TRACE_DUMP_BYTES + 1)
            .unwrap();
        match cmd_trace_report(big.to_str().unwrap()) {
            Err(CliError::Data(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("oversized dump: {other:?}"),
        }
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
        let cmd = parse_cmd(&s(&["match", "a.csv", "b.csv", "--threshold", "0.8"])).unwrap();
        assert_eq!(cmd, Command::Match("a.csv".into(), "b.csv".into(), 0.8));
    }

    #[test]
    fn parse_serve_flags() {
        let cmd = parse_cmd(&s(&[
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
                    queue_cap: None,
                    reload_poll_ms: None,
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
        let cmd = parse_cmd(&s(&["serve", "a.csv", "--quant", "--steps", "5"])).unwrap();
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
            parse_cmd(&s(&["quantize", "m.json", "q8.json"])).unwrap(),
            Command::Quantize("m.json".into(), "q8.json".into())
        );
        assert!(matches!(
            parse_cmd(&s(&["quantize", "m.json"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["quantize", "m.json", "q8.json", "extra"])),
            Err(CliError::Usage(_))
        ));
        assert_eq!(
            parse_cmd(&s(&["inspect", "q8.json"])).unwrap(),
            Command::Inspect("q8.json".into())
        );
        assert!(matches!(
            parse_cmd(&s(&["inspect"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve_defaults_and_errors() {
        let cmd = parse_cmd(&s(&["serve", "a.csv"])).unwrap();
        assert_eq!(cmd, Command::Serve("a.csv".into(), ServeOptions::default()));
        assert!(matches!(parse_cmd(&s(&["serve"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_cmd(&s(&["serve", "a.csv", "--max-batch", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["serve", "a.csv", "--addr"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["serve", "a.csv", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse_cmd(&s(&["clean"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_cmd(&s(&["clean", "x.csv", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_cmd(&s(&["clean", "x.csv", "--steps", "NaN"])),
            Err(CliError::Usage(_))
        ));
        // detect fills nothing: the clean-only flags are unknown to it
        for flag in ["--column", "--output"] {
            match parse_cmd(&s(&["detect", "x.csv", flag, "v"])) {
                Err(CliError::Usage(msg)) => assert_eq!(msg, format!("unknown flag {flag}")),
                other => panic!("detect accepted {flag}: {other:?}"),
            }
        }
        // a flag is never taken for the file, and stray words are rejected
        let usage = |args: &[&str]| match parse_cmd(&s(args)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} parsed: {other:?}"),
        };
        assert_eq!(usage(&["clean", "--steps", "3"]), "clean needs a file");
        assert_eq!(
            usage(&["clean", "t.csv", "extra"]),
            "unexpected argument extra"
        );
        assert_eq!(
            usage(&["profile", "t.csv", "--bogus"]),
            "unexpected argument --bogus"
        );
        assert_eq!(
            usage(&["profile", "t.csv", "extra", "args"]),
            "unexpected argument extra"
        );
        assert_eq!(
            usage(&["serve", "t.csv", "--quant", "extra"]),
            "unexpected argument extra"
        );
        assert_eq!(
            usage(&["match", "a.csv", "b.csv", "c.csv"]),
            "unexpected argument c.csv"
        );
        assert_eq!(usage(&["help", "extra"]), "unexpected argument extra");
        // a flag is matched whole: `--quant=1` is not `--quant` with a value
        assert_eq!(
            usage(&["serve", "t.csv", "--quant=1"]),
            "unknown flag --quant=1"
        );
        // NaN would make every `score >= threshold` false and report 0 pairs
        for t in ["NaN", "inf", "-inf"] {
            assert_eq!(
                usage(&["match", "a.csv", "b.csv", "--threshold", t]),
                format!("bad --threshold {t}")
            );
        }
    }

    #[test]
    fn env_fallbacks_take_the_flag_then_the_env_then_the_default() {
        let env = [
            ("RPT_SERVE_MAX_BATCH", "6"),
            ("RPT_SERVE_QUEUE_CAP", "7"),
            ("RPT_SERVE_RELOAD_POLL_MS", "9"),
            ("RPT_QUANT", "true"),
            ("RPT_TRACE", "1"),
        ];
        // the flag wins over its variable
        let (opts, _) = parse_serve(&["serve", "a.csv", "--max-batch", "3"], &env);
        assert_eq!(opts.max_batch, Some(3));
        let off = [("RPT_QUANT", "0"), ("RPT_TRACE", "no")];
        let (opts, obs) = parse_serve(&["serve", "a.csv", "--quant", "--trace"], &off);
        assert!(opts.quant && obs.trace);
        let resolved = |args: &[&str], env: &[(&str, &str)]| {
            let (opts, obs) = parse_serve(args, env);
            let cfg = serve_config(&opts);
            (
                cfg.max_batch,
                cfg.queue_cap,
                cfg.reload_poll_ms,
                cfg.quant,
                obs.trace,
            )
        };
        // the variable fills what the command line leaves out
        assert_eq!(resolved(&["serve", "a.csv"], &env), (6, 7, 9, true, true));
        // and the default what both leave out
        assert_eq!(
            resolved(&["serve", "a.csv"], &[]),
            (8, 32, 50, false, false)
        );
        assert!(!resolved(&["serve", "a.csv"], &off).3);
        // the queue follows the max batch, from the flag or the variable
        assert_eq!(resolved(&["serve", "a.csv"], &env[..1]).1, 24);
        assert_eq!(
            resolved(&["serve", "a.csv", "--max-batch", "3"], &env[..1]).1,
            12
        );
        // RPT_TRACE is read for every command, the serve variables only
        // for serve
        let bad = [("RPT_SERVE_MAX_BATCH", "x"), ("RPT_TRACE", "TRUE")];
        let (_, obs) = parse(&s(&["profile", "a.csv"]), fake_env(&bad)).unwrap();
        assert!(obs.trace);
        // a variable is checked like its flag, and named in the error
        assert_eq!(
            usage_error(&["serve", "a.csv"], &bad),
            "bad RPT_SERVE_MAX_BATCH x"
        );
        assert_eq!(
            usage_error(&["serve", "a.csv"], &[("RPT_SERVE_QUEUE_CAP", "0")]),
            "RPT_SERVE_QUEUE_CAP must be >= 1"
        );
        assert_eq!(
            usage_error(&["serve", "a.csv"], &[("RPT_SERVE_RELOAD_POLL_MS", "-1")]),
            "bad RPT_SERVE_RELOAD_POLL_MS -1"
        );
    }

    #[test]
    fn serve_sizes_above_the_ceiling_are_usage_errors() {
        let huge = "1000000000000";
        assert_eq!(
            usage_error(&["serve", "a.csv", "--max-batch", huge], &[]),
            format!("--max-batch must be <= {MAX_BATCH}")
        );
        assert_eq!(
            usage_error(&["serve", "a.csv"], &[("RPT_SERVE_MAX_BATCH", huge)]),
            format!("RPT_SERVE_MAX_BATCH must be <= {MAX_BATCH}")
        );
        assert_eq!(
            usage_error(
                &["serve", "a.csv"],
                &[("RPT_SERVE_QUEUE_CAP", "4000000000000")]
            ),
            format!(
                "RPT_SERVE_QUEUE_CAP must be <= {}",
                rpt_serve::MAX_QUEUE_CAP
            )
        );
        // the largest max batch still gets its 4x queue, inside the ceiling
        let max = MAX_BATCH.to_string();
        let (opts, _) = parse_serve(&["serve", "a.csv", "--max-batch", &max], &[]);
        assert_eq!(serve_config(&opts).queue_cap, rpt_serve::MAX_QUEUE_CAP);
        // options built in code saturate instead of wrapping, and
        // `Server::start` refuses the result
        let cfg = serve_config(&ServeOptions {
            max_batch: Some(usize::MAX / 2),
            ..ServeOptions::default()
        });
        assert_eq!(cfg.queue_cap, usize::MAX);
    }

    /// Every flag the table gives a command changes what that command
    /// parses to, so no row is accepted and then ignored.
    #[test]
    fn every_table_flag_reaches_its_option() {
        for f in FLAGS.iter().filter(|f| f.on_argv()) {
            let cmds: &[&str] = if f.cmds.is_empty() {
                &["profile"]
            } else {
                f.cmds
            };
            for cmd in cmds {
                let Cmd(_, positionals, _) = COMMANDS.iter().find(|c| c.0 == *cmd).unwrap();
                let mut args = vec![cmd.to_string()];
                args.extend(positionals.iter().map(|a| a.to_string()));
                let plain = parse(&args, fake_env(&[])).unwrap();
                args.push(f.name.to_string());
                match f.kind {
                    Switch => {}
                    Finite => args.push("0.25".into()),
                    Text => args.push("error".into()),
                    _ => args.push("3".into()),
                }
                let flagged = parse(&args, fake_env(&[])).unwrap();
                assert_ne!(plain, flagged, "{cmd} {} is ignored", f.name);
            }
        }
    }

    #[test]
    fn load_refuses_resume_and_checkpoint_dir() {
        let dir = std::env::temp_dir().join("rpt-cli-test-load-conflict");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "brand,maker\niphone,apple\n").unwrap();
        let path = path.to_str().unwrap();
        let load = Some("never-read.json".to_string());
        for opts in [
            CleanOptions {
                load: load.clone(),
                resume: Some("state.json".into()),
                ..CleanOptions::default()
            },
            CleanOptions {
                load: load.clone(),
                checkpoint_dir: Some("ckpt".into()),
                ..CleanOptions::default()
            },
        ] {
            for result in [cmd_clean(path, &opts), cmd_detect(path, &opts)] {
                match result {
                    Err(CliError::Usage(msg)) => assert!(msg.starts_with("--load takes neither")),
                    other => panic!("{opts:?} ran: {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_lists_every_flag_of_the_table() {
        let text = usage();
        for f in FLAGS.iter().filter(|f| f.on_argv()) {
            assert!(
                text.contains(&format!("[{}", f.name)),
                "{} not listed",
                f.name
            );
        }
        assert!(
            text.contains("  rpt pretrain <corpus-dir> [--steps N]"),
            "{text}"
        );
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

        // A file with nothing to learn from is a typed data error in both
        // training commands, not a panic or an untrained model's fills.
        type Train = fn(&str, &CleanOptions) -> Result<String, CliError>;
        let empties = [
            ("header.csv", "city,country\n"),
            ("nulls.csv", "city,country\n,\n,\n"),
        ];
        for (name, text) in empties {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            for cmd in [cmd_clean as Train, cmd_detect] {
                let opts = CleanOptions {
                    steps: 5,
                    ..Default::default()
                };
                match cmd(path.to_str().unwrap(), &opts) {
                    Err(CliError::Data(msg)) => {
                        assert!(msg.contains("no maskable examples"), "{name}: {msg}")
                    }
                    other => panic!("{name}: expected a data error, got {other:?}"),
                }
            }
        }
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
        let cmd = parse_cmd(&s(&[
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
        assert!(report.contains("quant section"), "{report}");

        // The output carries both halves: an int8 section matching what
        // requantizing the stored f32 params produces...
        let entries = serialize::load_quant_file(&q8)
            .unwrap()
            .expect("quant section");
        let store = serialize::Checkpoint::read(&q8).unwrap().into_store();
        let rebuilt = rpt_nn::build_quant_set(&store);
        assert_eq!(entries.len(), rebuilt.iter_named().count());
        for (name, qm) in entries.iter() {
            let (_, expect) = rebuilt
                .iter_named()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("unexpected quant tensor {name}"));
            assert_eq!(
                qm.weights(),
                expect.weights(),
                "{name}: int8 payload differs"
            );
            assert_eq!(qm.scales(), expect.scales(), "{name}: scales differ");
        }
        // ...and the f32 params of the input, unchanged.
        let original = serialize::Checkpoint::read(&model).unwrap().into_store();
        for (name, t) in original.iter() {
            let got = store.value(store.find(name).expect(name));
            assert_eq!(got.data(), t.data(), "{name} f32 payload differs");
        }
        // `rpt inspect` lists the sections of both files.
        let listed = cmd_inspect(q8.to_str().unwrap()).unwrap();
        let params = format!("params: {} tensors", store.len());
        let quant = format!("quant: {} int8 tensors", entries.len());
        assert!(
            listed.contains(&params) && listed.contains(&quant),
            "{listed}"
        );
        assert!(listed.contains("train: none"), "{listed}");
        let listed = cmd_inspect(model.to_str().unwrap()).unwrap();
        assert!(listed.contains("quant: none"), "{listed}");

        // A garbage input is a typed error, not a panic.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(matches!(
            cmd_quantize(bad.to_str().unwrap(), q8.to_str().unwrap()),
            Err(CliError::Data(_))
        ));
    }
}
