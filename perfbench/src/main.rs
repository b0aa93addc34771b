//! The repository benchmark: seeded workloads against the release
//! build, with output checks, end-to-end metrics from measured runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Each run also appends its raw record — provenance, every child's
//! samples and failure tally — to `perfbench/results/runs.jsonl`.
//!
//! A measured run writes the workload's inputs, then starts the program
//! in fresh processes: the extra start-ups that `setup_s` takes its median
//! over, and one process that starts up, warms up, measures for
//! `--seconds`, and checks outputs. Every process computes on one thread
//! (`RPT_THREADS=1`). Timed figures are restated at a nominal host speed
//! by passes of fixed reference work (`host`). See `perfbench/README.md`
//! for why each workload exists and which layers it loads.

mod clean;
mod client;
mod host;
mod inputs;
mod layers;
mod pretrain;
mod report;
mod serve;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rpt_json::{Json, Map};

use report::{Tally, END_TO_END, PER_LAYER};
use serve::Scale;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Mixed clean/detect/match serving at Table-1 width.
    ServeMixD64,
    /// Long-source serving of an int8 serve-scale model.
    ServeLongInt8D256,
    /// Streaming pretraining from an on-disk corpus.
    PretrainStreamD64,
    /// Single-request RPT-C fills.
    CleanFillD64,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const LISTED: [Workload; 2] = [Workload::ServeMixD64, Workload::PretrainStreamD64];

    /// Every workload the command runs: the listed ones, then two left out
    /// of `BENCHMARK.json` because on the 2-vCPU host their end-to-end
    /// figures did not hold steady between runs of the same code
    /// (`perfbench/README.md`). Their layers are in every traced run.
    pub const ALL: [Workload; 4] = [
        Workload::ServeMixD64,
        Workload::PretrainStreamD64,
        Workload::ServeLongInt8D256,
        Workload::CleanFillD64,
    ];

    /// Name on the command line and in the results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixD64 => "serve_mix_d64",
            Workload::ServeLongInt8D256 => "serve_long_int8_d256",
            Workload::PretrainStreamD64 => "pretrain_stream_d64",
            Workload::CleanFillD64 => "clean_fill_d64",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The server scale of a serve workload.
    pub fn scale(self) -> Option<Scale> {
        match self {
            Workload::ServeMixD64 => Some(Scale::D64),
            Workload::ServeLongInt8D256 => Some(Scale::D256),
            _ => None,
        }
    }

    /// Start-ups per run that `setup_s` is the median of. The d256 start-up
    /// parses a ~140 MB checkpoint twice and is steady; the others are tens
    /// of milliseconds, and one alone varies by a fifth.
    fn setup_samples(self) -> usize {
        match self {
            Workload::ServeLongInt8D256 => 3,
            _ => 21,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `Some((role, dir))` in a child process.
    child: Option<(String, PathBuf)>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut role = None;
    let mut dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--child" => role = Some(value()?.clone()),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        child: match (role, dir) {
            (Some(r), Some(d)) => Some((r, d)),
            (None, None) => None,
            _ => return Err("--child and --dir go together".into()),
        },
    })
}

/// This package's directory in the checkout.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one child role and returns its record.
fn child(role: &str, args: &Args, dir: &Path) -> Result<Json, String> {
    let (w, seed, secs) = (args.workload, args.seed, args.seconds as f64);
    let setup = |(s, wall): (f64, f64)| rpt_json::json!({ "setup_s": s, "setup_wall_s": wall });
    match (role, w.scale(), w) {
        ("measure", Some(scale), _) => serve::measure(scale, seed, secs, dir),
        ("measure", None, Workload::PretrainStreamD64) => pretrain::measure(seed, secs, dir),
        ("measure", None, _) => clean::measure(seed, secs, dir),
        ("setup", Some(scale), _) => serve::setup_only(scale, seed, dir).map(setup),
        ("setup", None, Workload::PretrainStreamD64) => pretrain::setup_only(seed, dir).map(setup),
        ("setup", None, _) => clean::setup_only(seed, dir).map(setup),
        ("trace", _, _) => layers::run(w, seed, dir),
        _ => Err(format!("unknown child role {role:?}")),
    }
}

/// How long the children of one run may take in all; a run must end within
/// 180 seconds, so a child still running after this is killed.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Starts this executable as child number `n` in `role`, waits for it (or
/// kills it at the run's deadline), and parses the record on the last line
/// of its output.
fn spawn(role: &str, n: usize, args: &Args, dir: &Path, deadline: Instant) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_path = dir.join(format!("{role}-{n}.out"));
    let out = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child", role])
        .arg("--dir")
        .arg(dir)
        .env("RPT_THREADS", "1")
        .stdout(out)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the {role} process: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the {role} process overran the run's time limit"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if !status.success() {
        return Err(format!("the {role} process failed ({status})"));
    }
    let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("the {role} process printed nothing"))?;
    Json::parse(last).map_err(|e| format!("the {role} process printed bad JSON: {e}"))
}

/// Writes the checkpoints the run's processes load.
fn write_inputs(args: &Args, dir: &Path) -> Result<(), String> {
    let benches = inputs::benchmarks(args.seed);
    let scales: &[Scale] = match (args.trace, args.workload.scale()) {
        (true, _) => &[Scale::D64, Scale::D256],
        (false, Some(scale)) => &[scale],
        (false, None) => &[],
    };
    for &scale in scales {
        serve::write_checkpoint(scale, &benches, dir)?;
    }
    if args.trace || args.workload == Workload::CleanFillD64 {
        clean::write_checkpoint(&benches, dir)?;
    }
    Ok(())
}

/// The orchestrating process: inputs, children, result line, raw record.
fn run(args: &Args) -> Result<(), String> {
    let dir = bench_dir().join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (line, record) = result?;
    append_record(&record)?;
    println!("{line}");
    Ok(())
}

fn run_in(args: &Args, dir: &Path) -> Result<(String, Json), String> {
    let deadline = Instant::now() + RUN_LIMIT;
    write_inputs(args, dir)?;
    let mut tally = Tally::default();
    let mut children = Vec::new();
    let mut metrics = Map::new();
    let mut setup_samples = Vec::new();
    if args.trace {
        let doc = spawn("trace", 0, args, dir, deadline)?;
        for def in PER_LAYER {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("traced run did not report {}", def.name))?;
            metrics.insert(
                def.name.into(),
                rpt_json::json!({"value": v, "unit": def.unit}),
            );
        }
        tally.merge_json(doc.get("tally").unwrap_or(&Json::Null));
        children.push(doc);
    } else {
        for n in 1..args.workload.setup_samples() {
            let doc = spawn("setup", n, args, dir, deadline)?;
            setup_samples.push(
                doc.get("setup_s")
                    .and_then(Json::as_f64)
                    .ok_or("setup_s missing")?,
            );
            children.push(doc);
        }
        let doc = spawn("measure", 0, args, dir, deadline)?;
        setup_samples.push(
            doc.get("setup_s")
                .and_then(Json::as_f64)
                .ok_or("setup_s missing")?,
        );
        for def in END_TO_END {
            let v = if def.name == "setup_s" {
                stats::median(&setup_samples)
            } else {
                doc.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("measured run did not report {}", def.name))?
            };
            metrics.insert(
                def.name.into(),
                rpt_json::json!({"value": v, "unit": def.unit}),
            );
        }
        tally.merge_json(doc.get("tally").unwrap_or(&Json::Null));
        children.push(doc);
    }
    let result = rpt_json::json!({
        "correct": tally.failed() == 0,
        "attempted": tally.attempted(),
        "failed": tally.failed(),
        "metrics": Json::Object(metrics),
    });
    let root = bench_dir().parent().unwrap_or(bench_dir());
    let record = rpt_json::json!({
        "provenance": report::provenance(root, args.workload.name(), args.seed, args.seconds, args.trace),
        "result": result.clone(),
        "setup_samples_s": setup_samples.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        "tally": tally.to_json(),
        "children": children,
    });
    eprintln!("perfbench: {}", record.to_string_pretty());
    Ok((result.to_string(), record))
}

fn append_record(record: &Json) -> Result<(), String> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
        .map_err(|e| e.to_string())?;
    writeln!(f, "{}", record.to_string()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.child {
        Some((role, dir)) => child(role, &args, dir).map(|doc| println!("{}", doc.to_string())),
        None => {
            // Single-threaded compute everywhere, including the input
            // writer in this process; children inherit it.
            std::env::set_var("RPT_THREADS", "1");
            run(&args)
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
