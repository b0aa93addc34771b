//! Bit-identity of the int8 inference path.
//!
//! The quantized kernels are designed so the AVX2 microkernel and the
//! scalar `qdot` produce the *same i32* — integer adds are exact and
//! associative, so unlike the f32 kernels there is no rounding-order
//! discipline to uphold; the identity is structural (DESIGN.md
//! §Quantized inference). These tests force both kernels inside one
//! process over randomized shapes, then lock the decode layer: the fused
//! multi-request batcher must produce byte-identical output to the
//! single-request path on a quantized model, and a decode fingerprint is
//! exported so `verify.sh` can diff whole-process runs across
//! `RPT_SIMD` × `RPT_THREADS` settings.

use std::sync::Arc;

use rpt::nn::{
    build_quant_set, greedy_decode, JobOutput, JobSpec, MicroBatcher, Seq2Seq, Sequence,
    TokenBatch, TransformerConfig,
};
use rpt::tensor::quant::{qdot_force, qdot_scalar, quantize_activation_row, QuantMatrix};
use rpt::tensor::{simd, ParamStore};
use rpt_rng::{Rng, SeedableRng, SmallRng};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn qdot_simd_and_scalar_agree_on_random_inputs() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(50);
    for trial in 0..60 {
        // odd lengths exercise the remainder lanes; extremes exercise the
        // widest i32 magnitudes the kernel accumulates
        let k = 1 + (rng.gen::<u32>() as usize) % 300;
        let a: Vec<u8> = (0..k).map(|_| rng.gen::<u32>() as u8).collect();
        let w: Vec<i8> = (0..k).map(|_| rng.gen::<u32>() as i8).collect();
        let vector = qdot_force(&a, &w).expect("AVX2 available");
        assert_eq!(
            vector,
            qdot_scalar(&a, &w),
            "qdot kernels diverged (trial {trial}, k={k})"
        );
    }
    // saturation-adjacent corners: every lane at the extreme values
    for (av, wv) in [(255u8, 127i8), (255, -128), (0, -128), (255, 0)] {
        let a = vec![av; 1024];
        let w = vec![wv; 1024];
        assert_eq!(qdot_force(&a, &w).unwrap(), qdot_scalar(&a, &w));
    }
}

#[test]
fn qmatmul_simd_and_scalar_are_bit_identical_on_random_shapes() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(51);
    for trial in 0..60 {
        let m = 1 + (rng.gen::<u32>() as usize) % 12;
        let k = 1 + (rng.gen::<u32>() as usize) % 200;
        let n_out = 1 + (rng.gen::<u32>() as usize) % 40;
        let w: Vec<f32> = (0..n_out * k)
            .map(|_| (rng.gen::<f32>() - 0.5) * 4.0)
            .collect();
        let qm = QuantMatrix::quantize_rows(&w, n_out, k);
        let x: Vec<f32> = (0..m * k).map(|_| (rng.gen::<f32>() - 0.5) * 8.0).collect();
        let scalar = qm.matmul_f32_with(&x, m, false);
        let vector = qm.matmul_f32_with(&x, m, true);
        assert_eq!(
            bits(&scalar),
            bits(&vector),
            "qmatmul paths diverged (trial {trial}, m={m} k={k} n_out={n_out})"
        );
    }
}

#[test]
fn activation_quantization_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(52);
    for _ in 0..50 {
        let k = 1 + (rng.gen::<u32>() as usize) % 150;
        let row: Vec<f32> = (0..k).map(|_| (rng.gen::<f32>() - 0.5) * 6.0).collect();
        let mut q1 = vec![0u8; k];
        let mut q2 = vec![0u8; k];
        let (s1, z1) = quantize_activation_row(&row, &mut q1);
        let (s2, z2) = quantize_activation_row(&row, &mut q2);
        assert_eq!((s1.to_bits(), z1), (s2.to_bits(), z2));
        assert_eq!(q1, q2);
    }
}

/// A deterministic quantized model at the default (Table-1) shape with a
/// reachable-vocab source and an unreachable EOS, so every decode is the
/// full `max_steps` long.
fn quantized_model() -> (Seq2Seq, ParamStore, TokenBatch, usize, usize) {
    let cfg = TransformerConfig {
        vocab_size: 200,
        max_cols: 0,
        dropout: 0.0,
        ..TransformerConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(53);
    let mut params = ParamStore::new();
    let mut model = Seq2Seq::new(&mut params, cfg.clone(), &mut rng);
    model.set_quant(Some(Arc::new(build_quant_set(&params))));
    let src_ids: Vec<usize> = (0..16).map(|i| 9 + (i * 11) % 180).collect();
    let src = TokenBatch::from_sequences(&[Sequence::from_ids(src_ids)], cfg.max_len, 0);
    (model, params, src, 1, cfg.vocab_size) // (…, bos, eos-unreachable)
}

#[test]
fn quantized_fused_batch_matches_single_request_decode() {
    let (model, mut params, src, bos, eos) = quantized_model();
    const MAX_STEPS: usize = 12;
    let single = greedy_decode(&model, &mut params, &src, bos, eos, MAX_STEPS);
    assert_eq!(single.len(), MAX_STEPS);

    // Three copies of the job fused in one batcher: every row must decode
    // the same bytes as the single-request path (row independence).
    let mut mb = MicroBatcher::new(&model, &mut params);
    for id in 0..3u64 {
        mb.admit(
            &model,
            &mut params,
            id,
            JobSpec::Greedy {
                src: src.clone(),
                bos,
                eos,
                max_steps: MAX_STEPS,
            },
        );
    }
    let mut done = 0;
    while !mb.is_idle() {
        for (id, out) in mb.step(&model, &mut params) {
            let JobOutput::Greedy { tokens } = out else {
                panic!("greedy job returned a non-greedy output");
            };
            assert_eq!(
                tokens, single,
                "fused job {id} diverged from single-request"
            );
            done += 1;
        }
    }
    assert_eq!(done, 3);
}

/// Runs the quantized decode and fingerprints the bytes it produced:
/// decoded tokens plus the forced-scoring log-probability bits (the
/// f32 outputs most sensitive to any kernel difference). The in-process
/// assertion is determinism; when `RPT_QUANT_FINGERPRINT_OUT` is set the
/// fingerprint is also written there so `verify.sh` can diff whole-process
/// runs under `RPT_SIMD=0/1` × `RPT_THREADS=1/4` — proving the quantized
/// path is byte-identical across every kernel/threading configuration.
#[test]
fn quantized_decode_fingerprint_is_stable() {
    let (model, mut params, src, bos, eos) = quantized_model();
    const MAX_STEPS: usize = 12;

    let fingerprint = |params: &mut ParamStore| -> u64 {
        let tokens = greedy_decode(&model, params, &src, bos, eos, MAX_STEPS);
        let mut mb = MicroBatcher::new(&model, params);
        mb.admit(
            &model,
            params,
            0,
            JobSpec::Forced {
                src: src.clone(),
                bos,
                eos: 2, // scored as a real token, so it must be in-vocab
                targets: tokens.clone(),
            },
        );
        let mut forced_bits: Vec<u32> = Vec::new();
        while !mb.is_idle() {
            for (_, out) in mb.step(&model, params) {
                let JobOutput::Forced {
                    total_logprob,
                    per_token,
                } = out
                else {
                    panic!("forced job returned a non-forced output");
                };
                forced_bits.push(total_logprob.to_bits());
                forced_bits.extend(per_token.iter().map(|p| p.to_bits()));
            }
        }
        // FNV-1a over the decoded tokens and the score bits
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        tokens.iter().for_each(|&t| eat(t as u64));
        forced_bits.iter().for_each(|&b| eat(b as u64));
        h
    };

    let first = fingerprint(&mut params);
    let second = fingerprint(&mut params);
    assert_eq!(first, second, "quantized decode is not deterministic");

    if let Ok(path) = std::env::var("RPT_QUANT_FINGERPRINT_OUT") {
        std::fs::write(&path, format!("{first:016x}\n")).expect("write fingerprint");
    }
}
