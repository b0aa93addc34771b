//! Metric names, failure accounting, provenance and the run record.

use std::collections::BTreeMap;
use std::path::Path;

use rpt_json::{Json, Map};

/// A reported metric: name, unit, and whether higher is better.
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which way is better (checked against
    /// `BENCHMARK.json` by the tests; the result line does not carry it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a measured (`--trace 0`) run prints for every workload.
pub const END_TO_END: &[MetricDef] = &[
    higher("tokens_per_s", "tokens/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p90_ms", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// What a traced (`--trace 1`) run prints for every workload: per-call
/// medians of each layer, timed from the benchmark around the layer's
/// public functions, plus what each replay leaves unattributed.
pub const PER_LAYER: &[MetricDef] = &[
    // rpt-serve, over the workload's own request bytes.
    lower("serve.http_parse_us.d64", "us"),
    lower("serve.http_parse_us.d256", "us"),
    lower("serve.api_parse_us.d64", "us"),
    lower("serve.api_parse_us.d256", "us"),
    lower("serve.api_render_us.d64", "us"),
    lower("serve.api_render_us.d256", "us"),
    // rpt-serve batcher stages, from the server's own X-Rpt-Trace header.
    lower("serve.queue_wait_ms.d64", "ms"),
    lower("serve.queue_wait_ms.d256", "ms"),
    lower("serve.batch_wait_ms.d64", "ms"),
    lower("serve.batch_wait_ms.d256", "ms"),
    lower("serve.decode_ms.d64", "ms"),
    lower("serve.decode_ms.d256", "ms"),
    lower("serve.serialize_ms.d64", "ms"),
    lower("serve.serialize_ms.d256", "ms"),
    higher("serve.rows_per_step.d64", "rows"),
    higher("serve.rows_per_step.d256", "rows"),
    // rpt-nn multidecode, replayed in process with 16 jobs in flight.
    lower("nn.batch_admit_ms.d64", "ms"),
    lower("nn.batch_admit_ms.d256", "ms"),
    lower("nn.batch_step_ms.d64", "ms"),
    lower("nn.batch_step_ms.d256", "ms"),
    lower("nn.batch_step_us_per_row.d64", "us"),
    lower("nn.batch_step_us_per_row.d256", "us"),
    higher("nn.batch_rows_per_step.d64", "rows"),
    higher("nn.batch_rows_per_step.d256", "rows"),
    // rpt-nn decode, the single-request loops behind `rpt clean`.
    lower("clean.mask_us", "us"),
    lower("nn.decode_begin_ms", "ms"),
    lower("nn.decode_step_us", "us"),
    lower("nn.select_us", "us"),
    lower("nn.greedy_ms", "ms"),
    lower("nn.beam4_ms", "ms"),
    // Kernels at the workloads' shapes.
    lower("nn.attn_fwd_us.L48", "us"),
    lower("nn.attn_fwd_us.L192", "us"),
    lower("tensor.tape_ctx_new_us", "us"),
    lower("tensor.matmul_logits_us.d64", "us"),
    lower("tensor.qmatmul_logits_us.d256", "us"),
    lower("tensor.qmatmul_ffn_us.d256", "us"),
    // rpt-core training step, replayed through the trainer's own step
    // functions outside `pretrain_stream`; Adam alone timed after it.
    lower("train.batch_prep_ms", "ms"),
    lower("train.forward_ms", "ms"),
    lower("train.backward_ms", "ms"),
    lower("train.reduce_apply_ms", "ms"),
    lower("train.adam_ms", "ms"),
    // rpt-core corpus + rpt-tokenizer.
    lower("corpus.load_shard_ms", "ms"),
    lower("corpus.shard_gap_ms", "ms"),
    lower("corpus.encode_us_per_tuple", "us"),
    lower("corpus.write_ms", "ms"),
    // Start-up layers.
    lower("ckpt.load_ms.d64", "ms"),
    lower("ckpt.load_ms.d256", "ms"),
    lower("nn.quant_build_ms.d256", "ms"),
    // Each replay's wall time minus the layer times inside it.
    lower("unattributed_ms.serve_mix_d64", "ms"),
    lower("unattributed_ms.serve_long_int8_d256", "ms"),
    lower("unattributed_ms.pretrain_stream_d64", "ms"),
    lower("unattributed_ms.clean_fill_d64", "ms"),
    // Traced minus dark tokens/s of the invoking workload, as a share of dark.
    lower("trace.overhead_pct", "%"),
];

/// Largest share of a replay's wall time the layers may leave
/// unattributed before the traced run counts a failure.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// 503: the server refused the request (queue full).
    Rejected,
    /// Any other non-200 status.
    Status,
    /// A socket error, or a connection closed with requests owed.
    Io,
    /// An output that differs from its oracle or from an earlier answer.
    Mismatch,
    /// A `CorpusError` from the streaming corpus.
    Corpus,
    /// A non-finite training loss.
    NonFinite,
    /// A replay whose layer times leave more than the tolerance of its wall
    /// time unattributed.
    Unattributed,
    /// KV-cache slots still held once the load stopped.
    KvSlots,
}

impl Failure {
    fn name(self) -> &'static str {
        match self {
            Failure::Rejected => "http_503",
            Failure::Status => "http_other",
            Failure::Io => "io",
            Failure::Mismatch => "mismatch",
            Failure::Corpus => "corpus_error",
            Failure::NonFinite => "non_finite_loss",
            Failure::Unattributed => "unattributed",
            Failure::KvSlots => "kv_slots_held",
        }
    }

    /// Maps an HTTP status to its failure, `None` for 200.
    pub fn of_status(status: u16) -> Option<Failure> {
        match status {
            200 => None,
            503 => Some(Failure::Rejected),
            _ => Some(Failure::Status),
        }
    }
}

/// Operations attempted and failed, by phase and cause.
#[derive(Default)]
pub struct Tally {
    phases: BTreeMap<String, (u64, BTreeMap<Failure, u64>)>,
}

impl Tally {
    /// Records one operation of `phase`.
    pub fn record(&mut self, phase: &str, outcome: Result<(), Failure>) {
        let entry = self.phases.entry(phase.to_string()).or_default();
        entry.0 += 1;
        if let Err(f) = outcome {
            *entry.1.entry(f).or_default() += 1;
        }
    }

    /// Records `n` failed operations of `phase`.
    pub fn fail_n(&mut self, phase: &str, failure: Failure, n: u64) {
        for _ in 0..n {
            self.record(phase, Err(failure));
        }
    }

    /// Operations attempted over all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.values().map(|p| p.0).sum()
    }

    /// Operations failed over all phases.
    pub fn failed(&self) -> u64 {
        self.phases.values().flat_map(|p| p.1.values()).sum()
    }

    /// `{phase: {"sent", "ok", "failed": {cause: n}}}`.
    pub fn to_json(&self) -> Json {
        let mut out = Map::new();
        for (phase, (sent, failed)) in &self.phases {
            let n_failed: u64 = failed.values().sum();
            let mut causes = Map::new();
            for (f, n) in failed {
                causes.insert(f.name().to_string(), Json::from(*n));
            }
            out.insert(
                phase.clone(),
                rpt_json::json!({"sent": *sent, "ok": sent - n_failed, "failed": Json::Object(causes)}),
            );
        }
        Json::Object(out)
    }

    /// Folds a child's `to_json` output into this tally.
    pub fn merge_json(&mut self, doc: &Json) {
        let Some(phases) = doc.as_object() else {
            return;
        };
        for (phase, p) in phases.iter() {
            let sent = p.get("sent").and_then(Json::as_u64).unwrap_or(0);
            let entry = self.phases.entry(phase.to_string()).or_default();
            entry.0 += sent;
            if let Some(causes) = p.get("failed").and_then(Json::as_object) {
                for (name, n) in causes.iter() {
                    let f = ALL_FAILURES
                        .iter()
                        .copied()
                        .find(|f| f.name() == name)
                        .unwrap_or(Failure::Status);
                    *entry.1.entry(f).or_default() += n.as_u64().unwrap_or(0);
                }
            }
        }
    }
}

const ALL_FAILURES: [Failure; 8] = [
    Failure::Rejected,
    Failure::Status,
    Failure::Io,
    Failure::Mismatch,
    Failure::Corpus,
    Failure::NonFinite,
    Failure::Unattributed,
    Failure::KvSlots,
];

/// FNV-1a over a sequence of byte strings, each terminated so that
/// boundaries count.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Adds one item.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the run happened and on what code.
pub fn provenance(root: &Path, workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    rpt_json::json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": git_rev(root),
        "source_digest": source_digest(root),
        "cpu_features": rpt_tensor::simd::cpu_features(),
        "simd": rpt_tensor::simd::simd_enabled(),
        "hardware_threads": rpt_par::hardware_threads(),
        "rpt_threads": std::env::var("RPT_THREADS").unwrap_or_else(|_| "unset".into()),
    })
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark's checkout is usually not a repository, hence `unknown`.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// A digest of the program's sources (the root manifests and every file
/// under `crates/`), which names the code measured even without git.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut digest = Digest::default();
    for f in files {
        digest.add(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        digest.add(&std::fs::read(&f).unwrap_or_default());
    }
    digest.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn check(list: &Json, defs: &[MetricDef], with_bound: bool) {
        let list = list.as_array().expect("metric list");
        assert_eq!(list.len(), defs.len(), "metric count");
        for (entry, def) in list.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better),
                "{}",
                def.name
            );
            assert_eq!(entry.get("bound").is_some(), with_bound, "{}", def.name);
        }
    }

    #[test]
    fn printed_metrics_match_the_manifest() {
        let doc = manifest();
        check(doc.get("end_to_end").expect("end_to_end"), END_TO_END, true);
        check(doc.get("per_layer").expect("per_layer"), PER_LAYER, false);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::LISTED.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn tally_counts_by_phase_and_cause() {
        let mut t = Tally::default();
        t.record("measured", Ok(()));
        t.record("measured", Err(Failure::Rejected));
        t.record("check", Err(Failure::Mismatch));
        assert_eq!((t.attempted(), t.failed()), (3, 2));
        let mut u = Tally::default();
        u.merge_json(&t.to_json());
        assert_eq!((u.attempted(), u.failed()), (3, 2));
        assert_eq!(u.to_json().to_string(), t.to_json().to_string());
    }
}
