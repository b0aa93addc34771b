//! Seeded inputs. Every table, request, fill task and corpus a workload
//! feeds the program is a pure function of the workload seed; model weights
//! come from fixed initialisation seeds, so what the seed varies is the
//! data, not the model the data runs through.
//!
//! The models are untrained. Decode cost depends on shapes and step
//! counts, not on weight values, and every request carries a fixed step
//! budget, so a run's work does not depend on how far training got. The
//! checkpoints zero the end-of-sequence row of the tied embedding, which
//! keeps an untrained model from ending a decode early: every greedy
//! request runs its whole budget, whatever tuples a seed draws.

use rpt_core::cleaning::CleaningConfig;
use rpt_core::Blocker;
use rpt_datagen::{standard_benchmarks, ErBenchmark};
use rpt_nn::quant::TIED_WEIGHT_NAME;
use rpt_nn::TransformerConfig;
use rpt_rng::{Rng, SeedableRng, SliceRandom, SmallRng};
use rpt_table::Table;
use rpt_tensor::ParamStore;
use rpt_tokenizer::{EncodedTuple, TupleEncoder, Vocab, EOS};

/// Entities per side of each generated benchmark. The generator's universe
/// holds three times this many entities; 150 keeps it well inside the
/// universe's capacity (300 per side exhausts it).
const ROWS_PER_SIDE: usize = 150;

/// Greedy and beam decode budget of every clean request (RPT-C's default
/// fill length).
pub const CLEAN_STEPS: usize = 8;

/// Beam width of beam requests and of `Filler::fill`.
pub const BEAM_WIDTH: usize = 4;

/// Distinct requests in a serve workload's pool; the closed loop cycles
/// through it.
pub const MIX_POOL: usize = 300;
/// Distinct requests in the long-context pool.
pub const LONG_POOL: usize = 60;
/// Distinct fill tasks in the cleaning pool; a multiple of
/// [`RECONSTRUCT_EVERY`], so each task keeps one kind of operation.
pub const FILL_POOL: usize = 1200;
/// One cleaning operation in this many is an `RptC::reconstruct` (greedy);
/// the rest are `Filler::fill` (beam-4). `rpt clean` and `rpt detect` call
/// only `fill`; `reconstruct` is the denoising path the Fig. 3 experiment
/// drives, kept as the minor share.
pub const RECONSTRUCT_EVERY: usize = 10;

/// Seed that initialises the d256 architecture before a checkpoint is
/// loaded over it.
const D256_INIT_SEED: u64 = 256;
/// Seed of the weights the checkpoints hold: unlike the architecture's own
/// initialisation, so a load that silently failed would change outputs.
const WEIGHTS_SEED: u64 = 1009;

/// The generated ER benchmarks (five, each with two tables).
pub fn benchmarks(seed: u64) -> Vec<ErBenchmark> {
    let mut rng = SmallRng::seed_from_u64(seed);
    standard_benchmarks(ROWS_PER_SIDE, &mut rng).1
}

/// Every generated table, side A then side B of each benchmark.
pub fn tables(benches: &[ErBenchmark]) -> Vec<&Table> {
    benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect()
}

/// The vocabulary `rpt clean` and `rpt serve` build over the tables.
pub fn vocab(benches: &[ErBenchmark]) -> Vocab {
    rpt_core::build_vocab(&tables(benches), &[], 1, 20_000)
}

/// The Table-1 configuration (d64, ff128, 2+2 layers, `max_len` 64).
pub fn d64_config() -> CleaningConfig {
    CleaningConfig::default()
}

/// The serve-scale model: d256, 8 heads, ff1024, vocab 8k, `max_len` 256.
pub fn d256_config() -> TransformerConfig {
    TransformerConfig {
        vocab_size: 8000,
        d_model: 256,
        n_heads: 8,
        d_ff: 1024,
        max_len: 256,
        max_cols: 0,
        dropout: 0.0,
        ..TransformerConfig::default()
    }
}

/// The RNG that initialises the d256 model's architecture before its
/// checkpoint is loaded over it.
pub fn d256_rng() -> SmallRng {
    SmallRng::seed_from_u64(D256_INIT_SEED)
}

/// The RNG of the d256 weights the checkpoints hold.
pub fn weights_rng() -> SmallRng {
    SmallRng::seed_from_u64(WEIGHTS_SEED)
}

/// `params` with the tied embedding's EOS row zeroed: its logit is then 0
/// while the largest of the other, random logits is positive, so greedy
/// decoding never picks EOS.
pub fn without_eos(params: &ParamStore) -> ParamStore {
    let mut out = ParamStore::new();
    for (name, value) in params.iter() {
        let mut value = value.clone();
        if name == TIED_WEIGHT_NAME {
            let d = value.shape()[1];
            value.data_mut()[EOS * d..(EOS + 1) * d].fill(0.0);
        }
        out.register(name, value);
    }
    out
}

/// The d64 configuration whose initial weights the checkpoints hold.
pub fn d64_weights_config() -> CleaningConfig {
    CleaningConfig {
        seed: WEIGHTS_SEED,
        ..d64_config()
    }
}

/// What a serve request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/clean` greedy.
    Greedy,
    /// `/v1/clean` beam-4.
    Beam,
    /// `/v1/detect`.
    Detect,
    /// `/v1/match`.
    Match,
}

/// One serve request: its route and JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What the request asks for.
    pub kind: Kind,
    /// JSON body.
    pub body: String,
}

impl Request {
    /// The route the request is posted to.
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Greedy | Kind::Beam => "/v1/clean",
            Kind::Detect => "/v1/detect",
            Kind::Match => "/v1/match",
        }
    }

    /// The request as keep-alive HTTP/1.1 bytes; `trace` asks the server
    /// for its stage-timing header.
    pub fn http(&self, trace: bool) -> Vec<u8> {
        let trace = if trace { "x-rpt-trace: 1\r\n" } else { "" };
        format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n{trace}Content-Length: {}\r\n\r\n{}",
            self.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

fn ids_json(ids: &[usize]) -> String {
    let items: Vec<String> = ids.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn encode_row(encoder: &TupleEncoder, table: &Table, row: usize) -> EncodedTuple {
    encoder.encode_tuple(table.schema(), table.row(row))
}

/// Blocking candidates `(a_row, b_row)` of every benchmark.
fn candidates(benches: &[ErBenchmark]) -> Vec<Vec<(usize, usize)>> {
    let blocker = Blocker::default();
    benches
        .iter()
        .map(|b| blocker.candidates(&b.table_a, &b.table_b))
        .collect()
}

/// A benchmark with at least one blocking candidate, and one of its pairs.
fn pick_pair(rng: &mut SmallRng, cands: &[Vec<(usize, usize)>]) -> (usize, (usize, usize)) {
    loop {
        let b = rng.gen_range(0..cands.len());
        if !cands[b].is_empty() {
            return (b, cands[b][rng.gen_range(0..cands[b].len())]);
        }
    }
}

/// Request kinds in exact proportion (`shares` in percent of `n`), in a
/// seeded order, so every seed's pool carries the same mix.
fn kinds(rng: &mut SmallRng, n: usize, shares: &[(Kind, usize)]) -> Vec<Kind> {
    let mut out: Vec<Kind> = shares
        .iter()
        .flat_map(|&(kind, pct)| std::iter::repeat_n(kind, n * pct / 100))
        .collect();
    assert_eq!(out.len(), n, "shares must add up to the pool");
    out.shuffle(rng);
    out
}

/// The `serve_mix_d64` pool: tokenized tuples of 8–48 tokens, 60 % greedy
/// clean, 10 % beam-4 clean, 20 % detect, 10 % match on blocking
/// candidates.
pub fn mix_requests(seed: u64, benches: &[ErBenchmark], encoder: &TupleEncoder) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d69_785f_6436_3400);
    let cands = candidates(benches);
    let shares = [
        (Kind::Greedy, 60),
        (Kind::Beam, 10),
        (Kind::Detect, 20),
        (Kind::Match, 10),
    ];
    let mut pool = Vec::with_capacity(MIX_POOL);
    for kind in kinds(&mut rng, MIX_POOL, &shares) {
        let (b, (_, j), a) = loop {
            let (b, pair) = pick_pair(&mut rng, &cands);
            let a = encode_row(encoder, &benches[b].table_a, pair.0);
            if (8..=48).contains(&a.ids.len()) && !a.value_spans.is_empty() {
                break (b, pair, a);
            }
        };
        let body = match kind {
            Kind::Greedy | Kind::Beam => {
                let span = rng.gen_range(0..a.value_spans.len());
                let (masked, _) = a.mask_value_span(span);
                let mode = if kind == Kind::Beam {
                    format!(r#","mode":"beam","beam_width":{BEAM_WIDTH}"#)
                } else {
                    String::new()
                };
                format!(
                    r#"{{"src":{},"cols":{}{mode},"max_steps":{CLEAN_STEPS}}}"#,
                    ids_json(&masked.ids),
                    ids_json(&masked.cols)
                )
            }
            Kind::Detect => format!(
                r#"{{"src":{},"cols":{}}}"#,
                ids_json(&a.ids),
                ids_json(&a.cols)
            ),
            Kind::Match => format!(
                r#"{{"src":{},"cols":{},"targets":{}}}"#,
                ids_json(&a.ids),
                ids_json(&a.cols),
                ids_json(&encode_row(encoder, &benches[b].table_b, j).ids)
            ),
        };
        pool.push(Request { kind, body });
    }
    pool
}

/// The `serve_long_int8_d256` pool: sources of 96–192 tokens made of
/// concatenated blocking-candidate pairs (RPT-E style), 80 % greedy clean
/// and 20 % match. Within each kind the source lengths are spread evenly
/// over 96–192 and shuffled, so every seed's pool costs the same to encode
/// and attend over; the seed varies the tuples and their order.
pub fn long_requests(seed: u64, benches: &[ErBenchmark], encoder: &TupleEncoder) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c6f_6e67_5f64_3235);
    let cands = candidates(benches);
    let mut specs: Vec<(Kind, usize)> = [(Kind::Greedy, 80), (Kind::Match, 20)]
        .iter()
        .flat_map(|&(kind, pct)| {
            let n = LONG_POOL * pct / 100;
            (0..n).map(move |j| (kind, 96 + j * 96 / (n - 1)))
        })
        .collect();
    specs.shuffle(&mut rng);
    let mut pool = Vec::with_capacity(LONG_POOL);
    for (kind, len) in specs {
        let mut src: Vec<usize> = Vec::with_capacity(len + 64);
        while src.len() < len {
            let (b, (i, j)) = pick_pair(&mut rng, &cands);
            src.extend(encode_row(encoder, &benches[b].table_a, i).ids);
            src.extend(encode_row(encoder, &benches[b].table_b, j).ids);
        }
        src.truncate(len);
        let body = if kind == Kind::Greedy {
            format!(r#"{{"src":{},"max_steps":{CLEAN_STEPS}}}"#, ids_json(&src))
        } else {
            let (b, (_, j)) = pick_pair(&mut rng, &cands);
            let target = encode_row(encoder, &benches[b].table_b, j);
            format!(
                r#"{{"src":{},"targets":{}}}"#,
                ids_json(&src),
                ids_json(&target.ids)
            )
        };
        pool.push(Request { kind, body });
    }
    pool
}

/// One RPT-C fill: mask `table[row][col]` and recover it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillTask {
    /// Index into [`tables`].
    pub table: usize,
    /// Row to fill.
    pub row: usize,
    /// Column to mask.
    pub col: usize,
}

/// The `clean_fill_d64` pool: held-out tuples with one non-null value to
/// recover each.
pub fn fill_tasks(seed: u64, benches: &[ErBenchmark]) -> Vec<FillTask> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x636c_6561_6e5f_6669);
    let tables = tables(benches);
    let mut pool = Vec::with_capacity(FILL_POOL);
    while pool.len() < FILL_POOL {
        let table = rng.gen_range(0..tables.len());
        let row = rng.gen_range(0..tables[table].len());
        let col = rng.gen_range(0..tables[table].schema().arity());
        if !tables[table].row(row).get(col).is_null() {
            pool.push(FillTask { table, row, col });
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_core::corpus::{encode_shard, encode_tables, split_shards};

    fn encoder(benches: &[ErBenchmark]) -> TupleEncoder {
        TupleEncoder::new(vocab(benches), Default::default())
    }

    fn table_bytes(benches: &[ErBenchmark]) -> Vec<String> {
        tables(benches)
            .iter()
            .map(|t| rpt_table::csv::write_table(t))
            .collect()
    }

    fn shard_bytes(benches: &[ErBenchmark]) -> Vec<Vec<u8>> {
        let examples = encode_tables(&encoder(benches), &tables(benches));
        split_shards(examples, crate::pretrain::SHARD_TUPLES)
            .iter()
            .map(|s| encode_shard(s))
            .collect()
    }

    fn request_bytes(seed: u64, benches: &[ErBenchmark]) -> Vec<Vec<u8>> {
        let enc = encoder(benches);
        mix_requests(seed, benches, &enc)
            .iter()
            .chain(&long_requests(seed, benches, &enc))
            .map(|r| r.http(false))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let (a, b) = (benchmarks(7), benchmarks(7));
        assert_eq!(table_bytes(&a), table_bytes(&b));
        assert_eq!(shard_bytes(&a), shard_bytes(&b));
        assert_eq!(request_bytes(7, &a), request_bytes(7, &b));
        assert_eq!(fill_tasks(7, &a), fill_tasks(7, &b));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (a, b) = (benchmarks(7), benchmarks(8));
        assert_ne!(table_bytes(&a), table_bytes(&b));
        assert_ne!(request_bytes(7, &a), request_bytes(8, &b));
        assert_ne!(fill_tasks(7, &a), fill_tasks(8, &b));
    }

    #[test]
    fn pools_hold_the_stated_mix_and_lengths() {
        let benches = benchmarks(3);
        let enc = encoder(&benches);
        let mix = mix_requests(3, &benches, &enc);
        let count = |pool: &[Request], k: Kind| pool.iter().filter(|r| r.kind == k).count();
        assert_eq!(mix.len(), MIX_POOL);
        for (kind, share) in [
            (Kind::Greedy, 60),
            (Kind::Beam, 10),
            (Kind::Detect, 20),
            (Kind::Match, 10),
        ] {
            assert_eq!(count(&mix, kind), MIX_POOL * share / 100, "{kind:?}");
        }
        let lengths = |seed: u64| {
            let long = long_requests(seed, &benches, &enc);
            assert_eq!(long.len(), LONG_POOL);
            assert_eq!(count(&long, Kind::Match), LONG_POOL / 5);
            let mut lens: Vec<(bool, usize)> = long
                .iter()
                .map(|r| {
                    let doc = rpt_json::Json::parse(&r.body).unwrap();
                    let src = doc.get("src").and_then(rpt_json::Json::as_array).unwrap();
                    (r.kind == Kind::Match, src.len())
                })
                .collect();
            lens.sort_unstable();
            lens
        };
        let lens = lengths(3);
        assert!(lens.iter().all(|&(_, n)| (96..=192).contains(&n)));
        assert_eq!(lens, lengths(4), "every seed spreads the lengths alike");
        // Each fill task keeps one kind of cleaning operation.
        assert_eq!(fill_tasks(3, &benches).len() % RECONSTRUCT_EVERY, 0);
    }
}
