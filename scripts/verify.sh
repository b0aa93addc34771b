#!/usr/bin/env bash
# Tier-1 verification plus the parallel-determinism gate.
#
# 0. The format gate: `cargo fmt --all --check` over every workspace
#    member (perfbench/ is its own package and is not checked).
# 1. Offline release build + full workspace test suite (the tier-1 bar),
#    then clippy over every target with warnings denied, then the serve
#    and CLI suites again with RPT_QUANT / RPT_SERVE_* set in the
#    environment: no library default reads them and the CLI tests pass
#    a fake environment, so the results must not depend on the caller's.
#    perfbench/ (the benchmark, its own package) is built and its tests
#    run, so a crate API change that breaks it, or its check of the
#    BENCHMARK.json metric names, fails here rather than in a bench run.
# 2. The equivalence suites re-run with a 4-thread global pool, proving
#    that the data-parallel trainer and parallel matmul kernels are
#    bit-identical to their serial reference paths when threading is
#    actually on (the suites also construct explicit pools internally, so
#    this doubles as an env-var plumbing check for RPT_THREADS); the
#    cached decode engine is checked against the uncached reference
#    decoders under every RPT_SIMD x RPT_THREADS combination.
# 3. The SIMD gate: the kernel equivalence suite, the training-kernel
#    oracle suite (fast training paths against the loops they replaced)
#    and the parallel trainer equivalence re-run under RPT_SIMD=0 and
#    RPT_SIMD=1, proving the AVX2 kernels are bit-identical to the scalar
#    path end to end; the kernel suite runs again with a 4-thread pool,
#    so its remainder-tile grid also meets thread-chunk boundaries, and
#    its ignored exhaustive sweeps check the AVX2 tanh and exp against
#    their scalar twins (exp also against the platform's f32::exp) on all
#    2^32 inputs in release mode.
# 4. A fast-mode smoke run of the decode, matmul, and thread-scaling
#    microbenches, checking the fast decode path still beats the
#    reference, the artifacts get written and parse, and the 4-thread
#    matmul is not slower than serial (the PR-3 regression), plus the
#    elementwise (GELU, softmax, layer norm) microbench, which has no
#    speed bar. After the serve, obs, quant and streaming smoke runs
#    below, all eight fast artifacts must carry the rpt-bench-v2
#    provenance header and well-formed 5-sample `*_spread` objects.
# 5. A crash-recovery smoke drive of the CLI: train with a checkpoint
#    directory, then resume from the rolling train-state file.
# 6. A metrics smoke drive: the same CLI run with --metrics-out must
#    leave a parseable snapshot containing the core training, decode,
#    thread-pool, and checkpoint-IO metric names.
# 7. The serving gate: the batched-server bit-identity suite under every
#    RPT_SIMD x RPT_THREADS combination, a fast-mode load-generator run
#    whose artifact must parse and show real batch occupancy, and a CLI
#    `rpt serve` smoke drive over raw TCP covering every endpoint plus
#    the serve.* metrics.
# 8. The quantization gate: the int8 equivalence suite under every
#    RPT_SIMD x RPT_THREADS combination with a cross-process decode
#    fingerprint diff, a fast-mode quant bench whose artifact must parse
#    and show int8 beating f32, and a quantize-then-serve smoke drive
#    (`rpt quantize` a saved model, serve it with --quant, check
#    /healthz reports quant and /v1/clean still answers).
# 9. The streaming gate: the streaming-equivalence and fault-injection
#    suites at 4 threads (disk vs memory, prefetch vs sync, accumulation
#    vs large batch, mid-window kills — all bit-identical), a fast-mode
#    streaming bench whose artifact must parse with positive throughput
#    in every arm, and a CLI smoke drive: `rpt shard` a corpus, run a
#    short accumulated `rpt pretrain` with checkpoints (the kill), check
#    with `rpt inspect` that the train state records the corpus position,
#    then --resume from the mid-corpus train state to completion.
# 10. The observability gate: the tracing bit-identity suite at 1 and 4
#    threads (instrumented training and serving byte-identical to dark),
#    a fast-mode traced-vs-dark serve load-generator run — the committed
#    full-mode bench_results/bench_obs.json must hold tracing's
#    throughput cost under 3% — and a trace smoke drive: an RPT_TRACE=1
#    `rpt serve` must answer /debug/tracez with a complete request
#    trace, render the Prometheus text exposition, and echo the
#    x-rpt-trace stage-summary header; a --trace-out CLI run must leave
#    a dump that `rpt trace-report` renders.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline -q --workspace --all-targets -- -D warnings
RPT_QUANT=1 RPT_SERVE_QUEUE_CAP=3 RPT_SERVE_MAX_BATCH=64 \
    cargo test -q --offline --release -p rpt-serve -p rpt-cli
cargo test -q --offline --manifest-path perfbench/Cargo.toml

RPT_THREADS=4 cargo test -q --offline --test parallel_equivalence
RPT_THREADS=4 cargo test -q --offline --release --test resume_equivalence

# Streaming-corpus gate: disk-backed sharded training (prefetch on and
# off) must be byte-identical to in-memory training, accumulation to the
# equivalent large batch, and mid-shard / mid-window kills resumable —
# re-proved with a 4-thread global pool.
RPT_THREADS=4 cargo test -q --offline --release --test streaming_equivalence
RPT_THREADS=4 cargo test -q --offline --release --test streaming_fault_injection

# Decode and serving bit-identity gate, under every RPT_SIMD x
# RPT_THREADS combination: the one decode engine must match the
# full-prefix reference decoders, the micro-batched server must return
# byte-identical decodes to single-request decoding, and the batcher's
# own staggered-admission, cancel and cross-thread-prefill unit tests
# must hold too.
for simd in 0 1; do
    for threads in 1 4; do
        RPT_SIMD=$simd RPT_THREADS=$threads \
            cargo test -q --offline --test decode_equivalence
        RPT_SIMD=$simd RPT_THREADS=$threads \
            cargo test -q --offline --test serve_equivalence
        RPT_SIMD=$simd RPT_THREADS=$threads \
            cargo test -q --offline -p rpt-nn --lib multidecode
    done
done

# Tracing bit-identity gate: training and serving with every instrument
# lit (trace ring, metrics, snapshots, summary headers) must match the
# dark runs byte for byte, with and without a threaded global pool.
RPT_THREADS=1 cargo test -q --offline --test obs_determinism
RPT_THREADS=4 cargo test -q --offline --test obs_determinism

# SIMD gate: RPT_SIMD=0 forces the scalar kernels; both settings must be
# bit-identical (the suite also forces both kernels inside one process,
# covering hosts where only one path can run).
RPT_SIMD=0 cargo test -q --offline --test simd_equivalence
RPT_SIMD=1 cargo test -q --offline --test simd_equivalence
# Thread chunks split a product at row counts that are not multiples of
# the 4-row register block, so a 4-thread pool runs the kernel's
# remainder tiles at every chunk boundary as well.
RPT_SIMD=0 RPT_THREADS=4 cargo test -q --offline --test simd_equivalence
RPT_SIMD=1 RPT_THREADS=4 cargo test -q --offline --test simd_equivalence
# The exhaustive tanh and exp sweeps: every f32 bit pattern through the
# forced AVX2 kernels and the scalar twins (fdlibm's tanhf, glibc's expf),
# exp also through the platform's f32::exp (about 30 s each in release
# mode on two threads; the lane blends are only proven by trying every
# input).
cargo test -q --offline --release --test simd_equivalence -- --ignored
RPT_SIMD=0 RPT_THREADS=4 cargo test -q --offline --test train_kernels
RPT_SIMD=1 RPT_THREADS=4 cargo test -q --offline --test train_kernels
RPT_SIMD=0 RPT_THREADS=4 cargo test -q --offline --test parallel_equivalence
RPT_SIMD=1 RPT_THREADS=4 cargo test -q --offline --test parallel_equivalence

smoke_dir=$(mktemp -d)
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$smoke_dir"' EXIT

# Quantized-path gate: the int8 kernels accumulate in i32 (exact and
# associative), so scalar vs AVX2 and every thread count must produce
# byte-identical decodes. The suite asserts kernel-level identity
# in-process and exports a whole-process decode fingerprint; all four
# SIMD x thread configurations must write the same fingerprint.
for simd in 0 1; do
    for threads in 1 4; do
        RPT_SIMD=$simd RPT_THREADS=$threads \
            RPT_QUANT_FINGERPRINT_OUT="$smoke_dir/quant_fp_${simd}_${threads}" \
            cargo test -q --offline --test quant_equivalence
    done
done
quant_fp=$(cat "$smoke_dir/quant_fp_0_1")
for f in "$smoke_dir"/quant_fp_*; do
    [ "$(cat "$f")" = "$quant_fp" ] || {
        echo "verify: quantized decode fingerprints diverge across RPT_SIMD/RPT_THREADS" >&2
        grep . "$smoke_dir"/quant_fp_* >&2
        exit 1
    }
done

RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- decode
test -s "$smoke_dir/bench_decode.json" || {
    echo "verify: decode bench artifact missing" >&2
    exit 1
}

# Thread-scaling and single-thread-floor artifacts: regenerate in fast
# mode, check they parse, and gate on the 4-thread product not regressing
# below serial (0.95 tolerance: fast mode takes only 5 interleaved
# samples, so a few percent of timer noise is expected; the committed
# full-mode artifacts hold the >= 1.0 line).
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- matmul
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- parallel
# The elementwise artifact carries no speed bar: it records the scalar
# and AVX2 arms of GELU, exp, log-sum-exp and softmax (checked
# bit-identical inside the bench) for the committed full-mode
# bench_results/bench_elementwise.json to compare.
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- elementwise
for artifact in bench_matmul bench_parallel bench_elementwise; do
    test -s "$smoke_dir/$artifact.json" || {
        echo "verify: $artifact artifact missing" >&2
        exit 1
    }
done
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
matmul = json.load(open(f"{d}/bench_matmul.json"))
assert matmul["single_thread_logit_matmul_ns"] > 0
parallel = json.load(open(f"{d}/bench_parallel.json"))
s4 = parallel["speedup_4"]
assert s4 >= 0.95, f"4-thread matmul regressed vs serial: speedup_4={s4:.3f}"
print(f"verify: bench artifacts OK (speedup_4={s4:.3f})")
PY
fi

# Serving load-generator smoke: the artifact must parse, cover all three
# concurrency levels, and show the batcher actually coalescing (near-full
# occupancy at concurrency 16). The speedup bar is lenient here — fast
# mode takes 2 short rounds — while the committed full-mode
# bench_results/bench_serve.json holds the >= 2x line.
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- serve
test -s "$smoke_dir/bench_serve.json" || {
    echo "verify: serve bench artifact missing" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
serve = json.load(open(f"{d}/bench_serve.json"))
runs = {r["concurrency"]: r for r in serve["runs"]}
assert sorted(runs) == [1, 4, 16], f"unexpected levels: {sorted(runs)}"
for r in serve["runs"]:
    assert r["tokens_per_sec"] > 0 and r["p99_ms"] > 0
occ = runs[16]["avg_batch_occupancy"]
assert occ >= 8, f"batcher not coalescing: occupancy {occ:.2f} at concurrency 16"
s = serve["batch16_speedup"]
assert s >= 1.2, f"batched throughput not above single-stream: {s:.3f}"
print(f"verify: serve bench OK (occupancy {occ:.2f}, speedup {s:.3f})")
PY
fi

# Observability-overhead gate: the traced-vs-dark serve load generator.
# The fast-mode artifact must parse, show the ring actually recording,
# and stay under a lenient degradation bar (3 short interleaved rounds
# carry several percent of timer noise in either direction); the
# committed full-mode bench_results/bench_obs.json holds the < 3% line
# the serving path promises.
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- obs
test -s "$smoke_dir/bench_obs.json" || {
    echo "verify: obs bench artifact missing" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
obs = json.load(open(f"{d}/bench_obs.json"))
for key in ("dark_tokens_per_sec", "instrumented_tokens_per_sec",
            "throughput_degradation", "ring_capacity",
            "ring_events_recorded", "ring_occupancy", "dropped_events"):
    assert key in obs, f"bench_obs missing {key}"
assert obs["dark_tokens_per_sec"] > 0 and obs["instrumented_tokens_per_sec"] > 0
assert obs["ring_events_recorded"] > 0, "traced rounds recorded no events"
deg = obs["throughput_degradation"]
assert deg < 0.15, f"tracing cost {deg:.1%} of serve throughput in fast mode"
committed = json.load(open("bench_results/bench_obs.json"))
cdeg = committed["throughput_degradation"]
assert cdeg < 0.03, f"committed obs artifact above the 3% bar: {cdeg:.1%}"
print(f"verify: obs bench OK (fast-mode degradation {deg:.1%}, "
      f"committed {cdeg:.1%})")
PY
fi

# Quantized-decode bench smoke: the artifact must parse and show int8
# beating f32 greedy decode. The bar is lenient in fast mode (few
# samples); the committed full-mode bench_results/bench_quant.json holds
# the >= 1.8x line.
RPT_BENCH_FAST=1 RPT_THREADS=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- quant
test -s "$smoke_dir/bench_quant.json" || {
    echo "verify: quant bench artifact missing" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
quant = json.load(open(f"{d}/bench_quant.json"))
for key in ("simd", "cpu_features", "threads", "f32_tokens_per_sec",
            "quant_tokens_per_sec", "speedup"):
    assert key in quant, f"bench_quant missing {key}"
assert quant["f32_tokens_per_sec"] > 0 and quant["quant_tokens_per_sec"] > 0
s = quant["speedup"]
assert s >= 1.2, f"int8 decode not faster than f32: speedup={s:.3f}"
print(f"verify: quant bench OK (speedup {s:.3f})")
PY
fi

# Streaming-throughput bench smoke: the artifact must parse and carry
# the tokens/sec for all three transport arms plus the prefetch overlap
# ratio. No speed bar here — the arms are bit-identical by construction
# (the bench asserts it on the loss curves) and fast mode is dominated
# by fixed costs; the committed full-mode bench_results/
# bench_streaming.json holds the reference numbers.
RPT_BENCH_FAST=1 RPT_BENCH_DIR="$smoke_dir" \
    cargo bench -q --offline -p rpt-bench --bench micro -- streaming
test -s "$smoke_dir/bench_streaming.json" || {
    echo "verify: streaming bench artifact missing" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
s = json.load(open(f"{d}/bench_streaming.json"))
for key in ("cpu_features", "threads", "shards", "tuples",
            "in_memory_tokens_per_sec", "disk_sync_tokens_per_sec",
            "disk_prefetch_tokens_per_sec", "overlap_ratio"):
    assert key in s, f"bench_streaming missing {key}"
for key in ("in_memory_tokens_per_sec", "disk_sync_tokens_per_sec",
            "disk_prefetch_tokens_per_sec"):
    assert s[key] > 0, f"bench_streaming {key} not positive"
assert 0.0 <= s["overlap_ratio"] <= 1.0, "overlap_ratio out of range"
print(f"verify: streaming bench OK (overlap {s['overlap_ratio']:.3f})")
PY
fi

# Provenance and spread gate over the eight fast-mode artifacts above:
# each must carry the full rpt-bench-v2 header stamped in fast mode, and
# every `*_spread` object must summarise the 5 interleaved fast-mode
# samples with p10 <= median <= p90.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir" <<'PY'
import json, sys
d = sys.argv[1]
header = ("schema", "git_rev", "cpu_features", "simd", "threads",
          "hardware_threads", "fast_mode")
def spreads(node, path):
    if isinstance(node, dict):
        for k, v in node.items():
            if k.endswith("_spread"):
                yield f"{path}.{k}", v
            else:
                yield from spreads(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from spreads(v, f"{path}[{i}]")
for name in ("bench_decode", "bench_matmul", "bench_parallel",
             "bench_elementwise", "bench_serve", "bench_obs", "bench_quant",
             "bench_streaming"):
    doc = json.load(open(f"{d}/{name}.json"))
    missing = [k for k in header if k not in doc]
    assert not missing, f"{name} missing header keys {missing}"
    assert doc["schema"] == "rpt-bench-v2", f"{name} schema {doc['schema']}"
    assert doc["fast_mode"] is True, f"{name} not stamped fast_mode"
    found = list(spreads(doc, name))
    assert found, f"{name} carries no spreads"
    for where, s in found:
        assert s["n"] == 5, f"{where}: n={s['n']}, expected 5"
        assert s["p10"] <= s["median"] <= s["p90"], f"{where}: unordered {s}"
print("verify: bench provenance and spreads OK")
PY
fi

# Crash-recovery smoke drive: checkpointed training must leave a rolling
# train-state file, and --resume must accept it and finish the run.
cat > "$smoke_dir/toy.csv" <<'CSV'
city,country,zip
paris,france,75001
lyon,france,69001
berlin,germany,10115
munich,germany,80331
hamburg,germany,20095
madrid,spain,28001
seville,spain,41001
paris,france,
rome,italy,00100
naples,italy,80100
CSV
./target/release/rpt clean "$smoke_dir/toy.csv" --steps 40 \
    --checkpoint-dir "$smoke_dir/ckpt" --output "$smoke_dir/out1.csv" >/dev/null
test -s "$smoke_dir/ckpt/train_state.json" || {
    echo "verify: rolling train-state checkpoint missing" >&2
    exit 1
}
./target/release/rpt clean "$smoke_dir/toy.csv" --steps 80 \
    --checkpoint-dir "$smoke_dir/ckpt" \
    --resume "$smoke_dir/ckpt/train_state.json" \
    --output "$smoke_dir/out2.csv" >/dev/null
test -s "$smoke_dir/out2.csv" || {
    echo "verify: resumed clean run produced no output" >&2
    exit 1
}

# Streaming smoke drive: build a sharded corpus with `rpt shard`, stream
# a short accumulated pretraining run over it with a checkpoint dir (the
# "kill": the run ends with the rolling mid-corpus train-state on disk),
# then --resume that state to a longer step count. The resumed run must
# accept the corpus-position checkpoint and finish.
./target/release/rpt shard "$smoke_dir/corpus" --shard-size 16 --rows 40 >/dev/null
test -s "$smoke_dir/corpus/manifest.json" || {
    echo "verify: rpt shard wrote no manifest" >&2
    exit 1
}
./target/release/rpt pretrain "$smoke_dir/corpus" --steps 10 \
    --batch-size 8 --micro-batch 2 --accum-steps 2 \
    --checkpoint-dir "$smoke_dir/stream-ckpt" >/dev/null
test -s "$smoke_dir/stream-ckpt/train_state.json" || {
    echo "verify: streaming train-state checkpoint missing" >&2
    exit 1
}
# The train section of the binary checkpoint must hold the corpus
# position (`rpt inspect` prints one line per section).
./target/release/rpt inspect "$smoke_dir/stream-ckpt/train_state.json" \
    | grep -q '^train: .*corpus epoch' || {
    echo "verify: streaming checkpoint carries no corpus position" >&2
    exit 1
}
./target/release/rpt pretrain "$smoke_dir/corpus" --steps 20 \
    --batch-size 8 --micro-batch 2 --accum-steps 2 --no-prefetch \
    --checkpoint-dir "$smoke_dir/stream-ckpt" \
    --resume "$smoke_dir/stream-ckpt/train_state.json" \
    --save "$smoke_dir/stream-model.json" >/dev/null
test -s "$smoke_dir/stream-model.json" || {
    echo "verify: resumed streaming run saved no model" >&2
    exit 1
}

# Metrics smoke drive: --metrics-out must emit a final snapshot that is
# valid JSON and covers the training-step, decode, thread-pool, and
# checkpoint-IO instrument families.
./target/release/rpt clean "$smoke_dir/toy.csv" --steps 40 \
    --checkpoint-dir "$smoke_dir/ckpt-metrics" \
    --metrics-out "$smoke_dir/metrics.json" --progress \
    --output "$smoke_dir/out3.csv" >/dev/null
test -s "$smoke_dir/metrics.json" || {
    echo "verify: metrics snapshot missing" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke_dir/metrics.json" >/dev/null || {
        echo "verify: metrics snapshot is not valid JSON" >&2
        exit 1
    }
fi
for metric in train.step_ms train.tokens_per_sec decode.tokens \
        par.sections ckpt.save_ms; do
    grep -q "\"$metric\"" "$smoke_dir/metrics.json" || {
        echo "verify: metrics snapshot missing $metric" >&2
        exit 1
    }
done

# Trace-capture smoke drive: a --trace-out run must leave a parseable
# rpt-trace-v1 span dump covering the training path, and `rpt
# trace-report` must render a self-time profile from it.
./target/release/rpt clean "$smoke_dir/toy.csv" --steps 20 \
    --trace-out "$smoke_dir/trace.json" \
    --output "$smoke_dir/out5.csv" >/dev/null
test -s "$smoke_dir/trace.json" || {
    echo "verify: --trace-out wrote no dump" >&2
    exit 1
}
grep -q '"rpt-trace-v1"' "$smoke_dir/trace.json" || {
    echo "verify: trace dump is not rpt-trace-v1" >&2
    exit 1
}
./target/release/rpt trace-report "$smoke_dir/trace.json" \
    > "$smoke_dir/trace-report.txt"
grep -q 'train.step' "$smoke_dir/trace-report.txt" || {
    echo "verify: trace-report renders no train.step profile" >&2
    cat "$smoke_dir/trace-report.txt" >&2
    exit 1
}

# Serving smoke drive: `rpt serve` on an ephemeral port must answer every
# endpoint over raw TCP (bash /dev/tcp — no curl dependency) and expose
# the serve.* instrument family in /metrics. RPT_TRACE=1 lights the
# request tracer, so the drive also checks the per-request trace
# surfaces: /debug/tracez must hold a complete trace, /metrics must
# render in Prometheus text form on request, and a client sending
# x-rpt-trace: 1 must get the stage-summary header back.
RPT_TRACE=1 ./target/release/rpt serve "$smoke_dir/toy.csv" --steps 20 \
    --checkpoint-dir "$smoke_dir/serve-ckpt" > "$smoke_dir/serve.log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 240); do
    serve_addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve.log")
    [ -n "$serve_addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.5
done
[ -n "$serve_addr" ] || {
    echo "verify: rpt serve did not come up" >&2
    cat "$smoke_dir/serve.log" >&2
    exit 1
}

serve_request() { # serve_request <request-lines> — raw HTTP over /dev/tcp
    local host="${serve_addr%:*}" port="${serve_addr##*:}"
    exec 3<>"/dev/tcp/$host/$port"
    printf '%b' "$1" >&3
    cat <&3
    exec 3>&-
}
serve_get() {
    serve_request "GET $1 HTTP/1.1\r\nHost: v\r\nConnection: close\r\n\r\n"
}
serve_post() {
    serve_request "POST $1 HTTP/1.1\r\nHost: v\r\nContent-Length: ${#2}\r\nConnection: close\r\n\r\n$2"
}
serve_post_traced() { # opts into the x-rpt-trace stage-summary header
    serve_request "POST $1 HTTP/1.1\r\nHost: v\r\nx-rpt-trace: 1\r\nContent-Length: ${#2}\r\nConnection: close\r\n\r\n$2"
}

serve_get /healthz | grep -q '"status":"ok"' || {
    echo "verify: /healthz not healthy" >&2
    exit 1
}
serve_post /v1/clean '{"src": [3, 4], "max_steps": 4}' | grep -q '"tokens"' || {
    echo "verify: /v1/clean returned no tokens" >&2
    exit 1
}
serve_post /v1/detect '{"src": [3, 4]}' | grep -q '"total_logprob"' || {
    echo "verify: /v1/detect returned no score" >&2
    exit 1
}
serve_post /v1/match '{"src": [3], "targets": [4]}' | grep -q '"total_logprob"' || {
    echo "verify: /v1/match returned no score" >&2
    exit 1
}
serve_get /metrics > "$smoke_dir/serve-metrics.json.raw"
sed '1,/^\r\{0,1\}$/d' "$smoke_dir/serve-metrics.json.raw" > "$smoke_dir/serve-metrics.json"
for metric in serve.requests serve.batch_steps serve.tokens \
        serve.queue_depth serve.kv_slots_in_use; do
    grep -q "\"$metric\"" "$smoke_dir/serve-metrics.json" || {
        echo "verify: /metrics missing $metric" >&2
        exit 1
    }
done
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke_dir/serve-metrics.json" >/dev/null || {
        echo "verify: /metrics body is not valid JSON" >&2
        exit 1
    }
fi
serve_get '/metrics?format=text' | grep -q '# TYPE serve_requests counter' || {
    echo "verify: Prometheus text exposition missing serve_requests" >&2
    exit 1
}
serve_post_traced /v1/clean '{"src": [3, 4], "max_steps": 4}' \
        | grep -qi 'x-rpt-trace:' || {
    echo "verify: traced request got no x-rpt-trace summary header" >&2
    exit 1
}
serve_get /debug/tracez > "$smoke_dir/tracez.json"
grep -q '"complete": *true' "$smoke_dir/tracez.json" || {
    echo "verify: /debug/tracez holds no complete request trace" >&2
    cat "$smoke_dir/tracez.json" >&2
    exit 1
}
grep -q '"serve.queue_wait"' "$smoke_dir/tracez.json" || {
    echo "verify: /debug/tracez traces carry no stage spans" >&2
    exit 1
}
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

# Quantize-then-serve smoke drive: train and save an f32 model, convert
# it to a quantized checkpoint with `rpt quantize` (`rpt inspect` must
# list its quant section), then serve the quantized file. /healthz must
# report quantization on and /v1/clean must still answer.
./target/release/rpt clean "$smoke_dir/toy.csv" --steps 20 \
    --save "$smoke_dir/model.json" --output "$smoke_dir/out4.csv" >/dev/null
./target/release/rpt quantize "$smoke_dir/model.json" \
    "$smoke_dir/model.q8.json" >/dev/null
test -s "$smoke_dir/model.q8.json" || {
    echo "verify: rpt quantize produced no checkpoint" >&2
    exit 1
}
./target/release/rpt inspect "$smoke_dir/model.q8.json" \
    | grep -q '^quant: [1-9][0-9]* int8 tensors' || {
    echo "verify: quantized checkpoint has no quant section" >&2
    exit 1
}
./target/release/rpt serve "$smoke_dir/toy.csv" --steps 20 \
    --load "$smoke_dir/model.q8.json" --quant \
    --checkpoint-dir "$smoke_dir/serve-q8-ckpt" > "$smoke_dir/serve-q8.log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 240); do
    serve_addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-q8.log")
    [ -n "$serve_addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.5
done
[ -n "$serve_addr" ] || {
    echo "verify: quantized rpt serve did not come up" >&2
    cat "$smoke_dir/serve-q8.log" >&2
    exit 1
}
serve_get /healthz | grep -q '"quant":true' || {
    echo "verify: quantized server /healthz does not report quant" >&2
    exit 1
}
serve_post /v1/clean '{"src": [3, 4], "max_steps": 4}' | grep -q '"tokens"' || {
    echo "verify: quantized /v1/clean returned no tokens" >&2
    exit 1
}
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "verify: OK"
