//! Microbenchmarks for the substrate layers: tensor kernels, attention
//! forward/backward, tuple tokenization, blocking, the ZeroER EM step,
//! and FD profiling, plus the decode, serving, quantization, tracing and
//! streaming artifacts under `bench_results/bench_*.json`.
//!
//! The harness is std-only (`harness = false`; no criterion so the
//! workspace stays dependency-free). Every timing goes through
//! [`rpt_bench::measure`] (warm-up, then interleaved samples per arm,
//! reported as median and p10/p90), and every artifact through
//! [`rpt_bench::emit`] (the `rpt-bench-v2` provenance header). Run with
//! `cargo bench --offline -p rpt-bench --bench micro [-- <group>]`;
//! `RPT_BENCH_FAST=1` takes a smoke-sized run.

use rpt_baselines::ZeroEr;
use rpt_bench::{emit, fast_mode, harness_params, measure, source_ids, Spread, MAX_STEPS};
use rpt_core::er::Blocker;
use rpt_datagen::standard_benchmarks;
use rpt_json::{json, Json};
use rpt_nn::{
    beam_search, beam_search_reference, greedy_decode, greedy_decode_reference, BeamConfig, Ctx,
    MultiHeadAttention, Seq2Seq, Sequence, TokenBatch, TransformerConfig,
};
use rpt_rng::{SeedableRng, SmallRng};
use rpt_table::TableProfile;
use rpt_tensor::{init, ParamStore, Tape, Tensor};
use rpt_tokenizer::{EncoderOptions, TupleEncoder, VocabBuilder};

use std::hint::black_box;

/// [`source_ids`] as a one-row batch.
fn source_batch(max_len: usize) -> TokenBatch {
    TokenBatch::from_sequences(&[Sequence::from_ids(source_ids())], max_len, 0)
}

/// Single-thread matmul kernel cost, including the logit-projection shape
/// that `bench_parallel` scales across threads. Writes
/// `bench_results/bench_matmul.json`.
fn bench_matmul() {
    let mut rng = SmallRng::seed_from_u64(1);
    let a = init::normal(&[64, 64], 1.0, &mut rng);
    let b = init::normal(&[64, 64], 1.0, &mut rng);
    let a3 = init::normal(&[16, 32, 32], 1.0, &mut rng);
    let b3 = init::normal(&[16, 32, 32], 1.0, &mut rng);
    let al = init::normal(&[256, 64], 1.0, &mut rng);
    let bl = init::normal(&[64, 2000], 1.0, &mut rng);
    let pool = rpt_par::ThreadPool::new(1);
    let names = [
        "tensor/matmul_64x64",
        "tensor/bmm_16x32x32",
        "tensor/matmul_256x64x2000_t1",
    ];
    let spreads = measure(names, |arm| {
        black_box(match arm {
            0 => a.matmul2d(&b),
            1 => a3.bmm(&b3),
            _ => al.matmul2d_with(&bl, &pool),
        });
    });
    let runs: Vec<Json> = names
        .iter()
        .zip(&spreads)
        .map(|(name, s)| {
            let name = name.trim_start_matches("tensor/");
            json!({"name": name, "median_ns": s.median as u64, "median_ns_spread": *s})
        })
        .collect();
    emit(
        "bench_matmul",
        json!({
            "bench": "matmul_single_thread",
            "runs": runs,
            "single_thread_logit_matmul_ns": spreads[2].median as u64,
        }),
    );
}

fn bench_softmax_layernorm() {
    let mut rng = SmallRng::seed_from_u64(2);
    let x = init::normal(&[64, 64], 1.0, &mut rng);
    let names = ["tensor/softmax_64x64", "tape/layer_norm_fwd_bwd"];
    measure(names, |arm| {
        if arm == 0 {
            black_box(x.softmax_last());
            return;
        }
        let tape = Tape::new();
        let v = tape.leaf(x.clone());
        let n = tape.layer_norm(v, 1e-5);
        let loss = tape.sum_all(tape.mul(n, n));
        black_box(tape.backward(loss));
    });
}

fn bench_attention() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut params = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut params, "mha", 64, 4, 0.0, &mut rng);
    let x = init::normal(&[4, 32, 64], 1.0, &mut rng);
    let names = [
        "nn/attention_fwd_b4_t32_d64",
        "nn/attention_fwd_bwd_b4_t32_d64",
    ];
    measure(names, |arm| {
        let backward = arm == 1;
        let tape = Tape::new();
        let mut r = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(&tape, &mut params, &mut r, backward);
        let v = tape.leaf(x.clone());
        let out = mha.forward(&mut ctx, v, v, None);
        if backward {
            black_box(tape.backward(tape.sum_all(out)));
        } else {
            black_box(tape.value(out));
        }
    });
}

fn bench_tokenizer() {
    let mut rng = SmallRng::seed_from_u64(4);
    let (_, benches) = standard_benchmarks(50, &mut rng);
    let table = &benches[0].table_a;
    let mut vb = VocabBuilder::new();
    for t in table.tuples() {
        for v in t.values() {
            vb.add_text(&v.render());
        }
    }
    let enc = TupleEncoder::new(vb.build(1, 5000), EncoderOptions::default());
    let mut next = [0usize; 2];
    let names = ["tokenizer/encode_tuple", "tokenizer/encode_pair"];
    measure(names, |arm| {
        let i = next[arm];
        next[arm] += 1;
        let a = table.row(i % table.len());
        if arm == 0 {
            black_box(enc.encode_tuple(table.schema(), a));
        } else {
            let b = table.row((i * 7 + 3) % table.len());
            black_box(enc.encode_pair(table.schema(), a, table.schema(), b));
        }
    });
}

fn bench_blocking_and_em() {
    let mut rng = SmallRng::seed_from_u64(5);
    let (_, benches) = standard_benchmarks(80, &mut rng);
    let bench0 = &benches[0];
    let blocker = Blocker::default();
    let candidates = blocker.candidates(&bench0.table_a, &bench0.table_b);
    measure(["er/blocking_80x~90", "baselines/zeroer_em_fit"], |arm| {
        if arm == 0 {
            black_box(blocker.candidates(&bench0.table_a, &bench0.table_b));
        } else {
            black_box(ZeroEr::with(10, None).fit_predict(bench0, &candidates));
        }
    });
}

fn bench_profiling() {
    let mut rng = SmallRng::seed_from_u64(6);
    let (_, benches) = standard_benchmarks(100, &mut rng);
    let table = &benches[2].table_a;
    measure(["table/fd_profile_100x5"], |_| {
        black_box(TableProfile::compute(table, 0.8, 3));
    });
}

fn bench_batching() {
    let seqs: Vec<Sequence> = (0..16)
        .map(|i| Sequence::from_ids((0..(20 + i % 10)).collect()))
        .collect();
    let x = Tensor::zeros(&[1024]);
    let names = ["nn/token_batch_and_masks", "tensor/clone_is_cheap"];
    measure(names, |arm| {
        if arm == 0 {
            let b = TokenBatch::from_sequences(&seqs, 64, 0);
            let m = b.self_attn_mask(4);
            black_box((b, m));
        } else {
            black_box(x.clone());
        }
    });
}

/// Matmul thread-scaling at the logit-projection shape a Table-1-scale
/// model multiplies every decode step (`[b*t, d] x [d, vocab]`). Verifies
/// the products are bit-identical across pools, times 1/2/4 threads, and
/// writes `bench_results/bench_parallel.json` with the speedups.
fn bench_parallel() {
    let mut rng = SmallRng::seed_from_u64(7);
    let a = init::normal(&[256, 64], 1.0, &mut rng);
    let b = init::normal(&[64, 2000], 1.0, &mut rng);

    let reference = a.matmul2d_with(&b, &rpt_par::ThreadPool::new(1));
    let thread_counts = [1usize, 2, 4];
    let pools = thread_counts.map(rpt_par::ThreadPool::new);
    for (&threads, pool) in thread_counts.iter().zip(&pools) {
        let out = a.matmul2d_with(&b, pool);
        assert_eq!(
            out.data()
                .iter()
                .zip(reference.data())
                .filter(|(x, y)| x.to_bits() != y.to_bits())
                .count(),
            0,
            "parallel matmul must be bit-identical at {threads} threads"
        );
    }
    let names = thread_counts.map(|t| format!("parallel/matmul_256x64x2000_t{t}"));
    let spreads = measure(names.each_ref().map(String::as_str), |arm| {
        black_box(a.matmul2d_with(&b, &pools[arm]));
    });
    let runs: Vec<Json> = thread_counts
        .iter()
        .zip(&spreads)
        .map(|(&t, s)| json!({"threads": t, "median_ns": s.median as u64, "median_ns_spread": *s}))
        .collect();
    emit(
        "bench_parallel",
        json!({
            "bench": "matmul_256x64x2000",
            "runs": runs,
            "speedup_2": spreads[0].median / spreads[1].median,
            "speedup_4": spreads[0].median / spreads[2].median,
        }),
    );
}

/// Decode throughput: KV-cached incremental decoding vs. the full-prefix
/// reference recompute, greedy and beam (width 4), at the default
/// Table-1-scale model shape (d=64, vocab=1000, 2+2 layers) over a
/// 24-token source. EOS is set past the vocabulary so every decode runs
/// the full `MAX_STEPS`, making tokens/sec well-defined. Verifies the two
/// paths emit identical tokens, then times all four arms interleaved and
/// writes `bench_results/bench_decode.json`.
fn bench_decode() {
    let (model, mut params) = rpt_bench::table1_model(8);
    let cfg = model.config().clone();
    let src = source_batch(cfg.max_len);
    const WIDTH: usize = 4;
    let (bos, eos) = (1usize, cfg.vocab_size); // eos unreachable by argmax
    let beam_cfg = BeamConfig {
        width: WIDTH,
        max_steps: MAX_STEPS,
        len_penalty: 1.0,
    };

    // equivalence sanity check before timing anything
    let fast = greedy_decode(&model, &mut params, &src, bos, eos, MAX_STEPS);
    let reference = greedy_decode_reference(&model, &mut params, &src, bos, eos, MAX_STEPS);
    assert_eq!(fast, reference, "cached greedy diverged from reference");
    assert_eq!(fast.len(), MAX_STEPS, "eos sentinel must be unreachable");

    let names = [
        "decode/greedy_32steps_cached",
        "decode/greedy_32steps_uncached",
        "decode/beam_w4_32steps_cached",
        "decode/beam_w4_32steps_uncached",
    ];
    let [greedy, greedy_ref, beam, beam_ref] = measure(names, |arm| {
        let p = &mut params;
        if arm < 2 {
            let decode = [greedy_decode, greedy_decode_reference][arm];
            black_box(decode(&model, p, &src, bos, eos, MAX_STEPS));
        } else {
            let search = [beam_search, beam_search_reference][arm - 2];
            black_box(search(&model, p, &src, bos, eos, &beam_cfg));
        }
    });
    let section = |cached: Spread, uncached: Spread, tokens: f64| {
        json!({
            "cached_ns": cached.median as u64,
            "cached_ns_spread": cached,
            "uncached_ns": uncached.median as u64,
            "uncached_ns_spread": uncached,
            "cached_tokens_per_sec": tokens * 1e9 / cached.median,
            "uncached_tokens_per_sec": tokens * 1e9 / uncached.median,
            "speedup": uncached.median / cached.median,
        })
    };
    emit(
        "bench_decode",
        json!({
            "bench": "decode_src24_d64_2+2layers",
            "max_steps": MAX_STEPS,
            "beam_width": WIDTH,
            "greedy": section(greedy, greedy_ref, MAX_STEPS as f64),
            "beam": section(beam, beam_ref, (WIDTH * MAX_STEPS) as f64),
        }),
    );
}

/// Server load generator: the [`rpt_bench::ServeRig`] driven by 1 / 4 /
/// 16 concurrent clients, one window per level per round, round-robin.
/// Each level pushes the same request count and — by the bit-identity
/// contract — decodes the same tokens, so throughput ratios isolate the
/// micro-batching win. Writes `bench_results/bench_serve.json` with the
/// per-window tokens/sec (median and spread), client-side p50/p99 latency
/// and the median batch occupancy (rows per fused step).
fn bench_serve() {
    let rig = rpt_bench::ServeRig::start();
    // Enough requests per window that ramp-up/drain (occupancy below
    // max_batch at the edges) is a small fraction of it.
    let (rounds, reqs) = if fast_mode() { (5, 32) } else { (5, 128) };
    let concs = [1usize, 4, 16];
    let mut windows = vec![(Vec::new(), Vec::new(), Vec::new()); concs.len()];
    for _round in 0..rounds {
        for (&conc, (tputs, occs, lats)) in concs.iter().zip(&mut windows) {
            let (tput, occ, l) = rig.window(conc, reqs, false);
            tputs.push(tput);
            occs.push(occ);
            lats.extend(l);
        }
    }
    rig.shutdown();

    let mut runs = Vec::new();
    let mut tput_by_conc = Vec::new();
    for (&conc, (tputs, occs, mut lats)) in concs.iter().zip(windows) {
        let tput = Spread::of(tputs);
        let occupancy = Spread::of(occs).median;
        lats.sort_unstable();
        let p50 = rpt_bench::nearest_rank(&lats, 50);
        let p99 = rpt_bench::nearest_rank(&lats, 99);
        println!(
            "serve/clean_greedy_c{conc:<2}            {p50:>12.3?}/req p50, {p99:.3?} p99, {:.0} tok/s, occupancy {occupancy:.2}",
            tput.median,
        );
        tput_by_conc.push(tput.median);
        runs.push(json!({
            "concurrency": conc,
            "requests": lats.len(),
            "tokens_per_sec": tput.median,
            "tokens_per_sec_spread": tput,
            "p50_ms": p50.as_secs_f64() * 1e3,
            "p99_ms": p99.as_secs_f64() * 1e3,
            "avg_batch_occupancy": occupancy,
        }));
    }
    emit(
        "bench_serve",
        json!({
            "bench": "serve_clean_greedy_src24_d64",
            "max_batch": 16,
            "max_steps": MAX_STEPS,
            "runs": runs,
            "batch16_speedup": tput_by_conc[2] / tput_by_conc[0],
        }),
    );
}

/// Observability overhead gate: the [`rpt_bench::ServeRig`] at a fixed
/// concurrency of 4, with per-request tracing alternately dark and
/// enabled round-robin (host noise during either arm's window would
/// otherwise masquerade as tracing overhead). Traced windows also request
/// the `x-rpt-trace` summary header so its render cost is charged to the
/// instrumented arm. Writes `bench_results/bench_obs.json` with the
/// per-arm median tokens/sec and spread, the relative throughput
/// degradation, and the trace ring's occupancy and dropped-event count
/// after the run; `scripts/verify.sh` gates on the degradation staying
/// under 3%.
fn bench_obs() {
    const CONC: usize = 4;
    let rig = rpt_bench::ServeRig::start();
    // Odd round count so the medians come from windows in the same
    // position of the dark/traced alternation.
    let (rounds, reqs) = if fast_mode() { (5, 32) } else { (7, 128) };
    rpt_obs::clear_trace();
    let mut arms = [Vec::new(), Vec::new()];
    let mut requests = 0;
    for _round in 0..rounds {
        for (traced, tputs) in [false, true].into_iter().zip(&mut arms) {
            rpt_obs::set_trace_enabled(traced);
            let (tput, _, lats) = rig.window(CONC, reqs, traced);
            tputs.push(tput);
            requests += lats.len();
        }
    }
    rpt_obs::set_trace_enabled(false);
    let stats = rpt_obs::trace_stats();
    rig.shutdown();

    let [dark, traced] = arms.map(Spread::of);
    let degradation = 1.0 - traced.median / dark.median;
    let occupied = stats.recorded.min(stats.capacity);
    println!(
        "obs/serve_dark_c{CONC}                {:.0} tok/s, traced {:.0} tok/s, degradation {:.2}%\n\
         obs/trace_ring                  {occupied}/{} events occupied, {} dropped to wrap",
        dark.median,
        traced.median,
        degradation * 100.0,
        stats.capacity,
        stats.overwritten
    );
    emit(
        "bench_obs",
        json!({
            "bench": "obs_serve_trace_overhead",
            "concurrency": CONC,
            "max_steps": MAX_STEPS,
            "rounds": rounds,
            "requests_per_arm": requests / 2,
            "dark_tokens_per_sec": dark.median,
            "dark_tokens_per_sec_spread": dark,
            "instrumented_tokens_per_sec": traced.median,
            "instrumented_tokens_per_sec_spread": traced,
            "throughput_degradation": degradation,
            "ring_capacity": stats.capacity,
            "ring_events_recorded": stats.recorded,
            "ring_occupancy": occupied as f64 / stats.capacity as f64,
            "dropped_events": stats.overwritten,
        }),
    );
}

/// Quantized decode throughput: greedy decode with f32 weights vs. the
/// per-row int8 path (`Seq2Seq::set_quant`) — the same comparison `rpt
/// serve --quant` makes in production, single model, single request. The
/// shape is serving scale (d=256, ff=1024, vocab=8000), not the Table-1
/// test shape: int8 is a *weight-matmul* lever, and only at this width
/// do the linear layers dominate a decode step the way the deployment
/// models the quantized path exists for do (at d=64, per-step tape
/// overhead drowns the kernels and no weight format can matter). EOS is
/// unreachable so tokens/sec is well-defined. Checks the int8 decode is
/// run-to-run deterministic, then times the two arms interleaved on one
/// model (attaching and detaching the int8 set per call) and writes
/// `bench_results/bench_quant.json` with both throughputs and the
/// speedup (target ≥ 1.8x single-thread; run with `RPT_THREADS=1`).
fn bench_quant() {
    let cfg = TransformerConfig {
        vocab_size: 8000,
        d_model: 256,
        n_heads: 8,
        d_ff: 1024,
        max_cols: 0,
        dropout: 0.0,
        ..TransformerConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(10);
    let mut params = ParamStore::new();
    let mut model = Seq2Seq::new(&mut params, cfg.clone(), &mut rng);
    let src = source_batch(cfg.max_len);
    let (bos, eos) = (1usize, cfg.vocab_size); // eos unreachable by argmax
    let int8 = std::sync::Arc::new(rpt_nn::build_quant_set(&params));

    model.set_quant(Some(int8.clone()));
    let once = greedy_decode(&model, &mut params, &src, bos, eos, MAX_STEPS);
    let twice = greedy_decode(&model, &mut params, &src, bos, eos, MAX_STEPS);
    assert_eq!(once, twice, "int8 greedy decode must be deterministic");
    assert_eq!(once.len(), MAX_STEPS, "eos sentinel must be unreachable");

    let names = [
        "quant/greedy_32steps_f32_d256",
        "quant/greedy_32steps_int8_d256",
    ];
    let [f32_s, q_s] = measure(names, |arm| {
        model.set_quant((arm == 1).then(|| int8.clone()));
        black_box(greedy_decode(
            &model,
            &mut params,
            &src,
            bos,
            eos,
            MAX_STEPS,
        ));
    });
    let speedup = f32_s.median / q_s.median;
    println!("quant/int8_vs_f32_speedup          {speedup:>11.2}x");
    emit(
        "bench_quant",
        json!({
            "bench": "quant_greedy_src24_d256_ff1024_v8000_2+2layers",
            "max_steps": MAX_STEPS,
            "f32_ns": f32_s.median as u64,
            "f32_ns_spread": f32_s,
            "quant_ns": q_s.median as u64,
            "quant_ns_spread": q_s,
            "f32_tokens_per_sec": MAX_STEPS as f64 * 1e9 / f32_s.median,
            "quant_tokens_per_sec": MAX_STEPS as f64 * 1e9 / q_s.median,
            "speedup": speedup,
        }),
    );
}

/// Streaming-corpus pretraining throughput: tokens/sec training over a
/// sharded on-disk corpus — with and without the background prefetch
/// thread — against the same logical corpus held fully in memory, plus
/// the `corpus.overlap_ratio` the prefetcher achieved (fraction of
/// shard-load time hidden behind training) over the last sampled
/// prefetch runs. The three arms are bit-identical by construction
/// (asserted on fresh models' loss curves before timing), so any gap is
/// pure transport cost. Each arm then trains its own model on, one
/// `pretrain_stream` call per iteration. Writes
/// `bench_results/bench_streaming.json`.
fn bench_streaming() {
    use rpt_core::cleaning::{CleaningConfig, RptC, StreamOpts};
    use rpt_core::corpus::{self, DiskCorpus, InMemoryCorpus, ShardSource};
    use rpt_core::train::TrainOpts;
    use rpt_core::vocabulary::build_vocab;

    rpt_obs::set_metrics_enabled(true);
    let (steps, rows) = if fast_mode() { (4, 30) } else { (30, 120) };
    let shard_size = 32;

    let mut rng = SmallRng::seed_from_u64(6);
    let (_u, mut benches) = standard_benchmarks(rows, &mut rng);
    let b = benches.remove(0);
    let refs = [&b.table_a, &b.table_b];
    let vocab = build_vocab(&refs, &[], 1, 8000);
    let encoder = TupleEncoder::new(vocab.clone(), EncoderOptions::default());
    let examples = corpus::encode_tables(&encoder, &refs);
    let mean_ids =
        examples.iter().map(|e| e.ids.len()).sum::<usize>() as f64 / examples.len().max(1) as f64;
    let shards = corpus::split_shards(examples, shard_size);
    let dir = std::env::temp_dir().join("rpt-bench-streaming-corpus");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = corpus::write_corpus(&dir, &shards, &vocab).unwrap();

    let new_model = || {
        let mut cfg = CleaningConfig::tiny();
        cfg.train = TrainOpts {
            steps,
            batch_size: 8,
            micro_batch: 2,
            warmup: (steps / 10).max(1),
            peak_lr: 3e-3,
            ..Default::default()
        };
        RptC::new(vocab.clone(), cfg)
    };
    // arms: in-memory, disk without prefetch, disk with prefetch
    let run = |model: &mut RptC, arm: usize| -> Vec<u32> {
        let source: Box<dyn ShardSource> = match arm {
            0 => Box::new(InMemoryCorpus::new(shards.clone(), &vocab)),
            _ => Box::new(DiskCorpus::open(&dir).unwrap()),
        };
        let opts = StreamOpts {
            accum_steps: 1,
            prefetch: arm == 2,
            stop_after_micro: None,
        };
        let losses = model.pretrain_stream(source, &opts, None, None).unwrap();
        losses.iter().map(|x| x.to_bits()).collect()
    };
    let curves: Vec<Vec<u32>> = (0..3).map(|arm| run(&mut new_model(), arm)).collect();
    assert_eq!(curves[0], curves[1], "disk-sync arm diverged from memory");
    assert_eq!(curves[0], curves[2], "prefetch arm diverged from memory");

    let mut models = [new_model(), new_model(), new_model()];
    let mut overlaps = Vec::new();
    let names = [
        "streaming/in_memory",
        "streaming/disk_sync",
        "streaming/disk_prefetch",
    ];
    let [mem, sync, pf] = measure(names, |arm| {
        run(&mut models[arm], arm);
        if arm == 2 {
            overlaps.push(rpt_obs::gauge("corpus.overlap_ratio").value());
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    let overlap = Spread::of(overlaps.split_off(overlaps.len() - pf.n));
    println!(
        "streaming/prefetch_overlap_ratio   {:>12.3}",
        overlap.median
    );

    // examples consumed per run x mean tokens per example — the tokens/sec
    // numerator every arm shares
    let tokens_per_run = (steps * 8) as f64 * mean_ids;
    let tps = |s: Spread| tokens_per_run * 1e9 / s.median;
    emit(
        "bench_streaming",
        json!({
            "bench": format!("streaming_pretrain_{steps}steps_b8_shard{shard_size}"),
            "steps": steps,
            "shards": manifest.shards.len(),
            "tuples": manifest.total_tuples(),
            "tokens_per_run": tokens_per_run,
            "in_memory_ns": mem.median as u64,
            "in_memory_ns_spread": mem,
            "disk_sync_ns": sync.median as u64,
            "disk_sync_ns_spread": sync,
            "disk_prefetch_ns": pf.median as u64,
            "disk_prefetch_ns_spread": pf,
            "in_memory_tokens_per_sec": tps(mem),
            "disk_sync_tokens_per_sec": tps(sync),
            "disk_prefetch_tokens_per_sec": tps(pf),
            "overlap_ratio": overlap.median,
            "overlap_ratio_spread": overlap,
        }),
    );
}

fn main() {
    // `cargo bench -- <filter>` runs only groups whose name matches
    // (flags cargo injects, like `--bench`, are skipped)
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let groups: [(&str, fn()); 13] = [
        ("matmul", bench_matmul),
        ("softmax_layernorm", bench_softmax_layernorm),
        ("attention", bench_attention),
        ("tokenizer", bench_tokenizer),
        ("blocking_and_em", bench_blocking_and_em),
        ("profiling", bench_profiling),
        ("batching", bench_batching),
        ("parallel", bench_parallel),
        ("decode", bench_decode),
        ("serve", bench_serve),
        ("obs", bench_obs),
        ("quant", bench_quant),
        ("streaming", bench_streaming),
    ];
    let (samples, measure, warm_up) = harness_params();
    println!(
        "micro benchmarks: {samples} interleaved samples per arm, ~{measure:?} measurement, {warm_up:?} warm-up\n"
    );
    for (name, run) in groups {
        if filter.as_deref().is_none_or(|f| name.contains(f)) {
            run();
        }
    }
}
