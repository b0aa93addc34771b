//! # rpt-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper
//! (see `DESIGN.md` for the index). Each binary prints the paper-style
//! table and writes a JSON artifact under `bench_results/`.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — RPT-C vs BART masked-value recovery |
//! | `table2` | Table 2 — RPT-E vs ZeroER vs DeepMatcher F-measure |
//! | `fig1_scenarios` | Fig. 1 — the three motivating scenarios, live |
//! | `fig3_denoising` | Fig. 3 — reconstruction vs corruption rate |
//! | `fig4_ablation` | Fig. 4 — input/masking ablations of RPT-C |
//! | `fig5_pipeline` | Fig. 5 — per-stage ER pipeline metrics + few-shot |
//! | `fig6_ie` | Fig. 6 — IE-as-QA span extraction + k-shot questions |
//!
//! It is also the measurement core of the `micro` bench target: one
//! interleaved sampler ([`measure`], summarised as a [`Spread`]), one
//! provenance stamp ([`emit`], schema `rpt-bench-v2`) and one in-process
//! serve load rig ([`ServeRig`]).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rpt_baselines::PairScorer;
use rpt_core::er::Blocker;
use rpt_core::vocabulary::build_vocab;
use rpt_datagen::{standard_benchmarks, text_corpus, ErBenchmark, Universe};
use rpt_json::{json, Json};
use rpt_nn::metrics::BinaryConfusion;
use rpt_nn::{Seq2Seq, TransformerConfig};
use rpt_rng::SeedableRng;
use rpt_rng::SmallRng;
use rpt_table::Table;
use rpt_tensor::ParamStore;
use rpt_tokenizer::Vocab;

/// Shared experiment inputs: one universe, the five benchmark views, the
/// prose corpus, and a vocabulary covering all of it.
pub struct Workbench {
    /// The ground-truth catalog.
    pub universe: Universe,
    /// The five benchmark views (abt-buy, amazon-google, walmart-amazon,
    /// itunes-amazon, sigmod-contest).
    pub benches: Vec<ErBenchmark>,
    /// Natural-language prose about the same catalog.
    pub corpus: Vec<String>,
    /// Vocabulary over tables + prose.
    pub vocab: Vocab,
}

impl Workbench {
    /// Builds the standard experimental setup. `n_a` controls benchmark
    /// size (entities per side-A); `seed` fixes everything.
    pub fn new(n_a: usize, seed: u64) -> Workbench {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (universe, benches) = standard_benchmarks(n_a, &mut rng);
        let corpus = text_corpus(&universe, n_a * 12, &mut rng);
        let tables: Vec<&Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &corpus, 1, 12_000);
        Workbench {
            universe,
            benches,
            corpus,
            vocab,
        }
    }

    /// All tables of all benchmarks.
    pub fn all_tables(&self) -> Vec<&Table> {
        self.benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect()
    }

    /// The benchmark with this name.
    pub fn bench(&self, name: &str) -> &ErBenchmark {
        self.benches
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no benchmark named {name}"))
    }
}

/// End-to-end F-measure of a [`PairScorer`] on a benchmark: block, score,
/// threshold; matches lost by blocking count as false negatives (the
/// standard ER evaluation protocol).
pub fn evaluate_scorer(
    scorer: &mut dyn PairScorer,
    bench: &ErBenchmark,
    blocker: &Blocker,
) -> BinaryConfusion {
    let candidates = blocker.candidates(&bench.table_a, &bench.table_b);
    let scores = scorer.score(bench, &candidates);
    let threshold = scorer.threshold();
    let mut conf = BinaryConfusion::default();
    let mut seen = HashSet::new();
    for (&(i, j), &s) in candidates.iter().zip(scores.iter()) {
        conf.record(s >= threshold, bench.is_match(i, j));
        seen.insert((i, j));
    }
    for (i, j) in bench.all_matches() {
        if !seen.contains(&(i, j)) {
            conf.record(false, true);
        }
    }
    conf
}

/// Writes a JSON artifact under `$RPT_BENCH_DIR`, or, when that is unset or
/// empty, under the workspace-root `bench_results/`; the directory is
/// created. The fallback is anchored to the manifest rather than the cwd
/// because `cargo run` and `cargo bench` start binaries in different
/// directories — but the manifest path is baked in at compile time, so a
/// binary run from a moved checkout or another machine needs the runtime
/// override.
pub fn emit_artifact(name: &str, value: &rpt_json::Json) {
    let dir = match std::env::var_os("RPT_BENCH_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => workspace_root().join("bench_results"),
    };
    let dir = dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        rpt_obs::warn!(target: "rpt_bench", "cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_string_pretty()) {
        rpt_obs::warn!(target: "rpt_bench", "cannot write {path:?}: {e}");
    } else {
        println!("\n[artifact] {}", path.display());
    }
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// True when `RPT_BENCH_FAST` is set (any value): the microbenches then
/// take a smoke-sized run so CI can exercise the harness and the artifact
/// schema without paying full measurement time.
pub fn fast_mode() -> bool {
    std::env::var_os("RPT_BENCH_FAST").is_some()
}

/// `(samples per arm, measurement budget, warm-up budget)` for
/// [`measure`]: 20 samples over ~2 s after ~500 ms of warm-up, or 5 over
/// ~200 ms after ~50 ms in [`fast_mode`].
pub fn harness_params() -> (usize, Duration, Duration) {
    if fast_mode() {
        (5, Duration::from_millis(200), Duration::from_millis(50))
    } else {
        (20, Duration::from_secs(2), Duration::from_millis(500))
    }
}

/// The median, 10th and 90th percentiles (nearest rank) and count `n` of
/// a set of samples. Artifacts record it beside the median it summarises,
/// as a `<key>_spread` object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub n: usize,
}

impl Spread {
    /// Summarises `samples` (any order; at least one, none NaN).
    pub fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        Spread {
            median: nearest_rank(&samples, 50),
            p10: nearest_rank(&samples, 10),
            p90: nearest_rank(&samples, 90),
            n: samples.len(),
        }
    }
}

impl From<Spread> for Json {
    fn from(s: Spread) -> Json {
        json!({"median": s.median, "p10": s.p10, "p90": s.p90, "n": s.n})
    }
}

/// The `pct`-th percentile of ascending `sorted` by the nearest-rank
/// method: the smallest sample with at least `pct`% of samples at or
/// below it. Integer rank arithmetic, so `90 * 20 / 100` is exactly 18.
pub fn nearest_rank<T: Copy>(sorted: &[T], pct: usize) -> T {
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The one timing loop of the microbenches. `run(arm)` does one iteration
/// of arm `arm` (an index into `names`). Each arm is warmed up for an
/// equal share of the warm-up budget, which also sizes its iterations per
/// sample; then the arms take their samples round-robin, so clock drift on
/// a busy host lands on every arm alike rather than on whichever runs
/// last. Returns each arm's per-iteration time in nanoseconds, and prints
/// one line per arm.
pub fn measure<const N: usize>(names: [&str; N], run: impl FnMut(usize)) -> [Spread; N] {
    let (samples, budget, warm_up) = harness_params();
    let (spreads, iters) = sample_interleaved(N, samples, budget, warm_up, run);
    let ns = |x: f64| Duration::from_nanos(x as u64);
    for ((name, s), iters) in names.iter().zip(&spreads).zip(iters) {
        println!(
            "{name:<34} {:>12.3?} [{:.3?} .. {:.3?}]  (n={}, {iters} iters/sample)",
            ns(s.median),
            ns(s.p10),
            ns(s.p90),
            s.n,
        );
    }
    spreads.try_into().expect("one spread per arm")
}

fn sample_interleaved(
    arms: usize,
    samples: usize,
    budget: Duration,
    warm_up: Duration,
    mut run: impl FnMut(usize),
) -> (Vec<Spread>, Vec<u64>) {
    let per_sample = budget.as_secs_f64() / (samples * arms) as f64;
    let iters: Vec<u64> = (0..arms)
        .map(|arm| {
            let t0 = Instant::now();
            let mut done = 0u64;
            while done == 0 || t0.elapsed() < warm_up / arms as u32 {
                run(arm);
                done += 1;
            }
            let per_iter = t0.elapsed().as_secs_f64() / done as f64;
            ((per_sample / per_iter).ceil() as u64).max(1)
        })
        .collect();
    let mut ns = vec![Vec::with_capacity(samples); arms];
    for _ in 0..samples {
        for (arm, &k) in iters.iter().enumerate() {
            let t0 = Instant::now();
            for _ in 0..k {
                run(arm);
            }
            ns[arm].push(t0.elapsed().as_nanos() as f64 / k as f64);
        }
    }
    (ns.into_iter().map(Spread::of).collect(), iters)
}

/// The commit checked out in this workspace, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    head_rev(&workspace_root().join(".git")).unwrap_or_else(|| "unknown".into())
}

fn head_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string()); // detached HEAD
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| Some(l.strip_suffix(reference)?.strip_suffix(' ')?.to_string()))
}

/// `fields` (an object) behind the provenance header of [`emit`].
fn stamp(fields: Json) -> Json {
    let Json::Object(mut out) = json!({
        "schema": "rpt-bench-v2",
        "git_rev": git_rev(),
        "cpu_features": rpt_tensor::simd::cpu_features(),
        "simd": rpt_tensor::simd::simd_enabled(),
        "threads": rpt_par::ThreadPool::global().num_threads(),
        "hardware_threads": rpt_par::hardware_threads(),
        "fast_mode": fast_mode(),
    }) else {
        unreachable!("json! object literal")
    };
    let fields = fields.as_object().expect("artifact fields are an object");
    for (k, v) in fields.iter() {
        out.insert(k.to_string(), v.clone());
    }
    Json::Object(out)
}

/// Writes microbench artifact `name` (see [`emit_artifact`] for where):
/// the provenance header — schema `rpt-bench-v2`, git rev, CPU features,
/// whether the SIMD kernels are on, global-pool and hardware thread
/// counts, fast mode — then `fields`, an object.
pub fn emit(name: &str, fields: Json) {
    emit_artifact(name, &stamp(fields));
}

/// Decode steps of every microbench request (EOS unreachable, so each
/// decode runs all of them).
pub const MAX_STEPS: usize = 32;

/// The 24-token source the decode, quant and serve microbenches decode.
pub fn source_ids() -> Vec<usize> {
    (0..24).map(|i| 9 + (i * 7) % 900).collect()
}

/// A freshly initialised Table-1-scale seq2seq (d=64, vocab 1000, 2+2
/// layers) with dropout and column embeddings off.
pub fn table1_model(seed: u64) -> (Seq2Seq, ParamStore) {
    let cfg = TransformerConfig {
        max_cols: 0,
        dropout: 0.0,
        ..TransformerConfig::default()
    };
    let mut params = ParamStore::new();
    let model = Seq2Seq::new(&mut params, cfg, &mut SmallRng::seed_from_u64(seed));
    (model, params)
}

/// An in-process `rpt-serve` instance at `max_batch = 16` over
/// [`table1_model`], loaded by keep-alive HTTP clients issuing greedy
/// `/v1/clean` decodes of [`source_ids`] for [`MAX_STEPS`] tokens.
pub struct ServeRig {
    server: rpt_serve::Server,
    addr: String,
    request: String,
}

impl ServeRig {
    /// Starts the server and sends two warm-up requests (the first ones
    /// pay allocator and page-fault costs).
    pub fn start() -> ServeRig {
        let (model, params) = table1_model(9);
        let cfg = rpt_serve::ServeConfig {
            max_batch: 16,
            queue_cap: 64,
            ..Default::default()
        };
        let server = rpt_serve::Server::start(model, params, cfg).expect("server starts");
        let src: Vec<Json> = source_ids().into_iter().map(Json::from).collect();
        let body = json!({"src": src, "max_steps": MAX_STEPS}).to_string();
        let rig = ServeRig {
            addr: server.addr().to_string(),
            server,
            request: format!("Content-Length: {}\r\n\r\n{body}", body.len()),
        };
        rig.client(2, false);
        rig
    }

    /// One load window: `conc` concurrent clients each issue
    /// `max(reqs / conc, 1)` requests back to back. With `traced` the
    /// clients also ask for the `x-rpt-trace` stage-summary header, so a
    /// traced window pays its render cost. Returns decoded tokens per
    /// second (from the `serve.tokens` counter), rows per fused decode
    /// step (`serve.tokens` over `serve.batch_steps`) and every request's
    /// latency.
    pub fn window(&self, conc: usize, reqs: usize, traced: bool) -> (f64, f64, Vec<Duration>) {
        let tokens = rpt_obs::counter("serve.tokens");
        let steps = rpt_obs::counter("serve.batch_steps");
        let per_client = (reqs / conc).max(1);
        let (tokens0, steps0) = (tokens.value(), steps.value());
        let t0 = Instant::now();
        let lats: Vec<Duration> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..conc)
                .map(|_| s.spawn(|| self.client(per_client, traced)))
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client"))
                .collect()
        });
        let secs = t0.elapsed().as_secs_f64();
        let tokens = (tokens.value() - tokens0) as f64;
        let steps = (steps.value() - steps0).max(1) as f64;
        (tokens / secs, tokens / steps, lats)
    }

    /// Stops the server, letting in-flight requests finish.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// One keep-alive connection issuing `reqs` requests back to back, so
    /// per-request connect and connection-thread costs stay out of the
    /// throughput; returns their latencies.
    fn client(&self, reqs: usize, traced: bool) -> Vec<Duration> {
        use std::io::{BufRead, Read, Write};

        let mut stream = std::net::TcpStream::connect(&self.addr).expect("connect");
        let mut responses = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        let trace = if traced { "x-rpt-trace: 1\r\n" } else { "" };
        let req = format!(
            "POST /v1/clean HTTP/1.1\r\nHost: bench\r\n{trace}{}",
            self.request
        );
        (0..reqs)
            .map(|_| {
                let t0 = Instant::now();
                stream.write_all(req.as_bytes()).expect("write");
                let mut line = String::new();
                responses.read_line(&mut line).expect("read status");
                assert!(line.starts_with("HTTP/1.1 200"), "request failed: {line}");
                let mut len = None;
                while line.trim_end() != "" {
                    line.clear();
                    responses.read_line(&mut line).expect("read header");
                    let (k, v) = line.split_once(':').unwrap_or_default();
                    if k.eq_ignore_ascii_case("content-length") {
                        len = v.trim().parse().ok();
                    }
                }
                let mut body = vec![0; len.expect("content-length")];
                responses.read_exact(&mut body).expect("read body");
                t0.elapsed()
            })
            .collect()
    }
}

/// Formats a fraction as `0.xy`.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_baselines::JaccardMatcher;

    #[test]
    fn workbench_is_deterministic() {
        let w1 = Workbench::new(20, 5);
        let w2 = Workbench::new(20, 5);
        assert_eq!(w1.vocab.len(), w2.vocab.len());
        assert_eq!(w1.benches.len(), 5);
        assert_eq!(
            w1.bench("abt-buy").table_a.row(0).values(),
            w2.bench("abt-buy").table_a.row(0).values()
        );
        assert_eq!(w1.all_tables().len(), 10);
    }

    #[test]
    fn evaluate_scorer_counts_blocking_misses() {
        let w = Workbench::new(25, 6);
        let bench = w.bench("walmart-amazon");
        // a scorer that always says "no" has recall 0 → F1 0, and the
        // confusion must cover every ground-truth match
        struct Never;
        impl PairScorer for Never {
            fn score(&mut self, _b: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
                vec![0.0; pairs.len()]
            }
            fn name(&self) -> &str {
                "never"
            }
        }
        let conf = evaluate_scorer(&mut Never, bench, &Blocker::default());
        assert_eq!(conf.tp, 0);
        assert_eq!(conf.fn_, bench.all_matches().len());

        let mut jac = JaccardMatcher { threshold: 0.35 };
        let conf = evaluate_scorer(&mut jac, bench, &Blocker::default());
        assert!(conf.f1() > 0.1, "jaccard f1 {}", conf.f1());
    }

    #[test]
    fn spread_is_nearest_rank_on_odd_even_and_single_samples() {
        let odd = Spread::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((odd.p10, odd.median, odd.p90, odd.n), (1.0, 3.0, 5.0, 5));
        let even = Spread::of(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            (even.p10, even.median, even.p90, even.n),
            (1.0, 2.0, 4.0, 4)
        );
        // ranks 2, 10 and 18 of 20: no float rounding pushes 0.9 * 20 to 19
        let twenty = Spread::of((1..=20).map(f64::from).collect());
        assert_eq!((twenty.p10, twenty.median, twenty.p90), (2.0, 10.0, 18.0));
        let single = Spread::of(vec![7.5]);
        assert_eq!(
            (single.p10, single.median, single.p90, single.n),
            (7.5, 7.5, 7.5, 1)
        );
    }

    #[test]
    fn spread_orders_shuffled_samples() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in 1..40 {
            let mut v: Vec<f64> = (0..n).map(|i| (i * 37 % 11) as f64 - 4.5).collect();
            rpt_rng::SliceRandom::shuffle(v.as_mut_slice(), &mut rng);
            let s = Spread::of(v);
            assert!(s.p10 <= s.median && s.median <= s.p90, "{s:?}");
            assert_eq!(s.n, n);
        }
    }

    #[test]
    fn sampler_warms_each_arm_then_round_robins() {
        let mut calls = Vec::new();
        let (spreads, iters) =
            sample_interleaved(3, 4, Duration::ZERO, Duration::ZERO, |arm| calls.push(arm));
        // a zero budget still warms every arm once and samples one
        // iteration per arm per round
        assert_eq!(iters, vec![1, 1, 1]);
        assert_eq!(calls, [0, 1, 2].repeat(5));
        assert!(spreads.iter().all(|s| s.n == 4));
    }

    #[test]
    fn stamp_puts_the_full_header_before_the_fields() {
        let doc = stamp(rpt_json::json!({"bench": "x"}));
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "git_rev",
                "cpu_features",
                "simd",
                "threads",
                "hardware_threads",
                "fast_mode",
                "bench"
            ]
        );
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rpt-bench-v2"));
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("x"));
        assert!(doc.get("hardware_threads").unwrap().as_u64().unwrap() >= 1);
        assert!(doc.get("fast_mode").unwrap().as_bool().is_some());
        assert!(!doc.get("git_rev").unwrap().as_str().unwrap().is_empty());
    }

    #[test]
    fn head_rev_reads_loose_packed_and_detached_heads() {
        let git = std::env::temp_dir().join(format!("rpt-bench-git-{}", std::process::id()));
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(head_rev(&git), None, "dangling ref");
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(head_rev(&git).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(head_rev(&git).as_deref(), Some("def456"), "loose ref wins");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(head_rev(&git).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&git).ok();
    }

    #[test]
    #[should_panic(expected = "no benchmark named")]
    fn unknown_benchmark_panics() {
        Workbench::new(10, 1).bench("nope");
    }
}
