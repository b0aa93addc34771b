//! Weight initialization helpers.

use rpt_rng::Rng;

use crate::tensor::Tensor;

/// Samples a tensor from `N(0, std^2)` using a Box–Muller transform, keeping
/// this crate independent of `rand_distr`.
pub fn normal(shape: &[usize], std: f32, rng: &mut (impl Rng + ?Sized)) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen::<f32>().max(1e-10);
        let u2: f32 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(data, shape).expect("normal init shape")
}

/// Uniform in `[-limit, limit]`.
pub fn uniform(shape: &[usize], limit: f32, rng: &mut (impl Rng + ?Sized)) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-limit..=limit)).collect();
    Tensor::from_vec(data, shape).expect("uniform init shape")
}

/// Glorot/Xavier uniform for a `[fan_in, fan_out]` weight matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut (impl Rng + ?Sized)) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(&[fan_in, fan_out], limit, rng)
}

/// Scaled-normal init for embedding tables (std = 0.02, the BERT default).
pub fn embedding_init(vocab: usize, dim: usize, rng: &mut (impl Rng + ?Sized)) -> Tensor {
    normal(&[vocab, dim], 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn normal_has_roughly_requested_moments() {
        let mut rng = SmallRng::seed_from_u64(42);
        let t = normal(&[10_000], 0.5, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = xavier_uniform(30, 70, &mut rng);
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit + 1e-6));
        assert_eq!(t.shape(), &[30, 70]);
    }

    #[test]
    fn init_is_deterministic_given_seed() {
        let a = normal(&[16], 1.0, &mut SmallRng::seed_from_u64(9));
        let b = normal(&[16], 1.0, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a.data(), b.data());
    }
}
