//! The traced run: per-layer times for every workload, measured from the
//! benchmark's own code around each crate's public functions, and the
//! tracing overhead of the invoking workload.
//!
//! Each workload has an in-process replay that walks its request path
//! layer by layer; the layers' times must add back to the replay's wall
//! time within [`UNATTRIBUTED_TOLERANCE`]. Kernels are timed alone at the
//! shapes the workloads run them at, with their flops and bytes computed
//! from those shapes.

use std::path::Path;
use std::time::Instant;

use rpt_json::{Json, Map};
use rpt_nn::{Ctx, MultiHeadAttention, Seq2Seq};
use rpt_rng::{Rng, SeedableRng, SmallRng};
use rpt_tensor::quant::QuantMatrix;
use rpt_tensor::{ParamStore, Tape, Tensor};

use crate::report::{Failure, Tally, UNATTRIBUTED_TOLERANCE};
use crate::serve::{self, Scale};
use crate::stats::median;
use crate::{clean, inputs, pretrain, Workload};

/// Per-call times of the layers one in-process replay passes through.
#[derive(Default)]
pub struct Layers {
    samples: Vec<(String, Vec<f64>)>,
    /// Sum of every timed call, seconds.
    pub attributed_s: f64,
}

impl Layers {
    /// Times `f` as one call of layer `name`, in `scale` units per second
    /// (1e3 for ms, 1e6 for µs).
    pub fn time<T>(&mut self, name: &str, scale: f64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.add(name, scale, dt);
        out
    }

    /// Records one call of `dt` seconds.
    pub fn add(&mut self, name: &str, scale: f64, dt: f64) {
        self.attributed_s += dt;
        match self.samples.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(dt * scale),
            None => self.samples.push((name.to_string(), vec![dt * scale])),
        }
    }

    /// Writes each layer's per-call median into `out`.
    pub fn medians_into(&self, out: &mut Map) {
        for (name, v) in &self.samples {
            out.insert(name.clone(), Json::from(median(v)));
        }
    }
}

/// Seconds of each dark or traced HTTP window.
const WINDOW_S: [f64; 2] = [2.0, 4.0];

fn random(rng: &mut SmallRng, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen::<f32>() - 0.5).collect(), shape)
        .expect("shape matches data")
}

/// Median per-call microseconds of `f`, timed in batches of `per_batch`
/// calls so that a short call is not lost in the clock's resolution.
fn per_call_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let us: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&us)
}

/// Kernel times at the workloads' decode shapes (16 rows), with computed
/// work recorded in `info`.
fn kernels(vocab_d64: usize, out: &mut Map, info: &mut Map) {
    let mut rng = SmallRng::seed_from_u64(0x6b65_726e);
    let kernel = |name: &str, us: f64, flops: f64, bytes: f64, out: &mut Map, info: &mut Map| {
        out.insert(name.into(), Json::from(us));
        info.insert(
            name.into(),
            rpt_json::json!({"computed_flops": flops, "computed_bytes": bytes, "gflop_per_s": flops / us / 1e3}),
        );
    };
    let rows = 16usize;
    for (name, len, d, heads) in [
        ("nn.attn_fwd_us.L48", 48usize, 64usize, 4usize),
        ("nn.attn_fwd_us.L192", 192, 256, 8),
    ] {
        let mut params = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut params, "attn", d, heads, 0.0, &mut rng);
        let x = random(&mut rng, &[1, len, d]);
        let mut drop_rng = SmallRng::seed_from_u64(0);
        let us = per_call_us(15, 4, || {
            let tape = Tape::inference();
            let mut ctx = Ctx::new(&tape, &mut params, &mut drop_rng, false);
            let xv = ctx.tape.constant(x.clone());
            std::hint::black_box(attn.forward(&mut ctx, xv, xv, None));
        });
        let (l, d) = (len as f64, d as f64);
        kernel(
            name,
            us,
            8.0 * l * d * d + 4.0 * l * l * d,
            4.0 * (4.0 * d * d + 4.0 * l * d + l * l * heads as f64),
            out,
            info,
        );
    }
    {
        let mut params = ParamStore::new();
        let mut drop_rng = SmallRng::seed_from_u64(0);
        let us = per_call_us(15, 2000, || {
            let tape = Tape::inference();
            std::hint::black_box(Ctx::new(&tape, &mut params, &mut drop_rng, false));
        });
        out.insert("tensor.tape_ctx_new_us".into(), Json::from(us));
    }
    {
        let (k, n) = (64usize, vocab_d64);
        let x = random(&mut rng, &[rows, k]);
        let w = random(&mut rng, &[k, n]);
        let us = per_call_us(15, 8, || {
            std::hint::black_box(x.matmul2d(&w));
        });
        let (m, k, n) = (rows as f64, k as f64, n as f64);
        kernel(
            "tensor.matmul_logits_us.d64",
            us,
            2.0 * m * k * n,
            4.0 * (m * k + k * n + m * n),
            out,
            info,
        );
    }
    for (name, k, n, tied) in [
        ("tensor.qmatmul_logits_us.d256", 256usize, 8000usize, true),
        ("tensor.qmatmul_ffn_us.d256", 256, 1024, false),
    ] {
        let w: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        let q = if tied {
            QuantMatrix::quantize_rows(&w, n, k)
        } else {
            QuantMatrix::quantize_transposed(&w, k, n)
        };
        let x: Vec<f32> = (0..rows * k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let us = per_call_us(15, 4, || {
            std::hint::black_box(q.matmul_f32(&x, rows));
        });
        let (m, k, n) = (rows as f64, k as f64, n as f64);
        kernel(
            name,
            us,
            2.0 * m * k * n,
            k * n + 4.0 * (n + m * k + m * n),
            out,
            info,
        );
    }
}

/// Records a replay's unattributed time and fails it when the layers miss
/// more than the tolerance of its wall time.
fn unattributed(
    workload: Workload,
    layers: &Layers,
    wall: f64,
    out: &mut Map,
    info: &mut Map,
    tally: &mut Tally,
) {
    let gap = wall - layers.attributed_s;
    out.insert(
        format!("unattributed_ms.{}", workload.name()),
        Json::from(gap * 1e3),
    );
    info.insert(
        format!("replay_wall_ms.{}", workload.name()),
        Json::from(wall * 1e3),
    );
    let ok = gap.abs() <= UNATTRIBUTED_TOLERANCE * wall;
    if !ok {
        eprintln!(
            "perfbench: {} replay leaves {:.1}% unattributed",
            workload.name(),
            gap / wall * 100.0
        );
    }
    tally.record(
        "replay",
        if ok {
            Ok(())
        } else {
            Err(Failure::Unattributed)
        },
    );
}

/// The traced run. `dir` must hold both serve checkpoints and the clean
/// checkpoint.
pub fn run(workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    let mut out = Map::new();
    let mut info = Map::new();
    let mut tally = Tally::default();

    // Each replay runs with metrics as its measured run has them: on in a
    // server (`Server::start` turns them on) and in pretraining (whose
    // token count is a metric), off in the cleaning loop.
    rpt_obs::set_metrics_enabled(true);
    for scale in [Scale::D64, Scale::D256] {
        let reps = if scale == Scale::D64 { 5 } else { 2 };
        out.insert(
            format!("ckpt.load_ms.{}", scale.suffix()),
            Json::from(serve::checkpoint_load_ms(scale, seed, dir, reps)?),
        );
        let (layers, wall) = serve::replay(scale, seed, dir, &mut out)?;
        let w = match scale {
            Scale::D64 => Workload::ServeMixD64,
            Scale::D256 => Workload::ServeLongInt8D256,
        };
        unattributed(w, &layers, wall, &mut out, &mut info, &mut tally);
    }
    {
        // Quantization cost depends on the shapes, not the values, so a
        // freshly initialised d256 model stands in for a loaded one.
        let mut params = ParamStore::new();
        Seq2Seq::new(&mut params, inputs::d256_config(), &mut inputs::d256_rng());
        let ms: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(rpt_nn::build_quant_set(&params));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.insert("nn.quant_build_ms.d256".into(), Json::from(median(&ms)));
    }

    rpt_obs::set_metrics_enabled(false);
    let (layers, wall) = clean::replay(seed, dir, &mut out, &mut info, &mut tally)?;
    unattributed(
        Workload::CleanFillD64,
        &layers,
        wall,
        &mut out,
        &mut info,
        &mut tally,
    );

    rpt_obs::set_metrics_enabled(true);
    let (layers, wall, model, corpus_dir) =
        pretrain::replay(seed, dir, &mut out, &mut info, &mut tally)?;
    unattributed(
        Workload::PretrainStreamD64,
        &layers,
        wall,
        &mut out,
        &mut info,
        &mut tally,
    );

    let vocab_d64 = inputs::vocab(&inputs::benchmarks(seed)).len();
    kernels(vocab_d64, &mut out, &mut info);

    // Traced windows on both servers; the invoking workload's dark-vs-traced
    // difference is the tracing overhead it reports.
    let mut overhead = None;
    for (scale, window_s) in [(Scale::D64, WINDOW_S[0]), (Scale::D256, WINDOW_S[1])] {
        let pct = serve::traced_windows(scale, seed, dir, window_s, &mut out, &mut tally)?;
        info.insert(
            format!("trace_overhead_pct.{}", scale.suffix()),
            Json::from(pct),
        );
        if workload.scale() == Some(scale) {
            overhead = Some(pct);
        }
    }
    let overhead = match (overhead, workload) {
        (Some(pct), _) => pct,
        (None, Workload::PretrainStreamD64) => {
            let mut model = Some(model);
            probe(|| {
                let (rate, m) = pretrain::stream_rate(
                    model.take().expect("returned by the last probe"),
                    &corpus_dir,
                    30,
                )?;
                model = Some(m);
                Ok(rate)
            })?
        }
        (None, _) => {
            rpt_obs::set_metrics_enabled(false);
            probe(|| clean::fill_rate(seed, dir, 1.0))?
        }
    };
    out.insert("trace.overhead_pct".into(), Json::from(overhead));
    std::fs::remove_dir_all(&corpus_dir).map_err(|e| e.to_string())?;

    Ok(rpt_json::json!({
        "metrics": Json::Object(out),
        "tally": tally.to_json(),
        "info": Json::Object(info),
    }))
}

/// Alternates dark and traced runs of `rate` (tokens/s), twice each, and
/// returns how much slower traced ran, as a percentage of dark.
fn probe(mut rate: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut dark = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        rpt_obs::set_trace_enabled(false);
        dark.push(rate()?);
        rpt_obs::set_trace_enabled(true);
        traced.push(rate()?);
    }
    rpt_obs::set_trace_enabled(false);
    let (d, t) = (median(&dark), median(&traced));
    Ok((d - t) / d * 100.0)
}
