//! Federated collaborative training of the matcher (§3, opportunity O1).
//!
//! The paper envisions "a platform collaboratively [built] for ER, with a
//! pretrained model M for each domain. Anyone who wants to benefit from M
//! can download M, retrain using his/her data to get M₁, and send back an
//! update of parameters Δ₁ = M₁ − M, and the platform will merge the model
//! update with M, from multiple users" — i.e. FedAvg over benchmark owners
//! who never share their raw pairs.
//!
//! [`federated_rounds`] implements exactly that loop over a [`Matcher`]:
//! each round, every client initializes from the global parameters, runs a
//! few local steps on its private labeled pairs, and contributes its
//! parameter delta; the global model moves by the average delta.

use rpt_datagen::{ErBenchmark, PairSet};
use rpt_tensor::Tensor;

use super::matcher::Matcher;
use crate::train::{NonFiniteStep, TrainOpts};

/// Federated-training settings.
#[derive(Debug, Clone)]
pub struct FederatedConfig {
    /// Communication rounds.
    pub rounds: usize,
    /// Local optimizer steps per client per round.
    pub local_steps: usize,
    /// Server learning rate on the averaged delta (1.0 = plain FedAvg).
    pub server_lr: f32,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        Self {
            rounds: 8,
            local_steps: 40,
            server_lr: 1.0,
        }
    }
}

/// Runs FedAvg over the clients, mutating `matcher`'s parameters in place.
/// Returns the mean local loss of the final round, or the first client
/// step that went non-finite.
///
/// Each client is one `(benchmark, labeled pairs)` owner; their pairs never
/// leave the closure — only parameter deltas are aggregated, mirroring the
/// paper's privacy framing (data is not shared, updates are).
pub fn federated_rounds(
    matcher: &mut Matcher,
    clients: &[(&ErBenchmark, &PairSet)],
    cfg: &FederatedConfig,
) -> Result<f32, NonFiniteStep> {
    assert!(!clients.is_empty(), "federated training needs clients");
    let mut last_round_loss = f32::NAN;
    for _round in 0..cfg.rounds {
        // snapshot of the global model
        let global: Vec<Tensor> = (0..matcher.params.len())
            .map(|i| {
                matcher
                    .params
                    .value(rpt_tensor::ParamId::from_index(i))
                    .clone()
            })
            .collect();
        let mut mean_delta: Vec<Tensor> = global.iter().map(|t| Tensor::zeros(t.shape())).collect();
        let mut round_loss = 0.0f32;

        for &(bench, pairs) in clients {
            // client starts from the global snapshot
            for (i, g) in global.iter().enumerate() {
                matcher
                    .params
                    .set_value(rpt_tensor::ParamId::from_index(i), g.clone());
            }
            let opts = TrainOpts {
                steps: cfg.local_steps,
                warmup: (cfg.local_steps / 5).max(1),
                ..matcher.train_opts().clone()
            };
            let losses = matcher.train_with_opts(&[(bench, pairs)], &opts)?;
            round_loss += losses.last().copied().unwrap_or(f32::NAN);
            // accumulate Δ = local − global
            for (i, g) in global.iter().enumerate() {
                let local = matcher.params.value(rpt_tensor::ParamId::from_index(i));
                let delta = local.zip(g, |l, gv| l - gv);
                mean_delta[i].add_assign(&delta);
            }
        }
        // server update: global += server_lr * mean(Δ)
        let scale = cfg.server_lr / clients.len() as f32;
        for (i, g) in global.iter().enumerate() {
            let mut updated = g.clone();
            let d = &mean_delta[i];
            let ud = updated.data_mut();
            for (u, dv) in ud.iter_mut().zip(d.data().iter()) {
                *u += scale * dv;
            }
            matcher
                .params
                .set_value(rpt_tensor::ParamId::from_index(i), updated);
        }
        last_round_loss = round_loss / clients.len() as f32;
    }
    Ok(last_round_loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::matcher::MatcherConfig;
    use crate::vocabulary::build_vocab;
    use rpt_datagen::standard_benchmarks;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn federated_training_reduces_loss_and_changes_parameters() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (universe, benches) = standard_benchmarks(25, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 3000);
        let mut matcher = Matcher::new(vocab, MatcherConfig::tiny());

        let sets: Vec<(&rpt_datagen::ErBenchmark, PairSet)> = benches[1..3]
            .iter()
            .map(|b| (b, b.labeled_pairs(3, &universe, &mut rng)))
            .collect();
        let clients: Vec<(&rpt_datagen::ErBenchmark, &PairSet)> =
            sets.iter().map(|(b, p)| (*b, p)).collect();

        let before: Vec<f32> = matcher
            .params
            .value(rpt_tensor::ParamId::from_index(0))
            .data()
            .to_vec();
        let loss = federated_rounds(
            &mut matcher,
            &clients,
            &FederatedConfig {
                rounds: 3,
                local_steps: 20,
                server_lr: 1.0,
            },
        )
        .unwrap();
        assert!(loss.is_finite());
        let after = matcher.params.value(rpt_tensor::ParamId::from_index(0));
        assert_ne!(before, after.data(), "server model must move");
    }

    #[test]
    fn zero_server_lr_freezes_the_global_model() {
        let mut rng = SmallRng::seed_from_u64(14);
        let (universe, benches) = standard_benchmarks(15, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 3000);
        let mut matcher = Matcher::new(vocab, MatcherConfig::tiny());
        let ps = benches[1].labeled_pairs(3, &universe, &mut rng);
        let clients = vec![(&benches[1], &ps)];
        let before: Vec<f32> = matcher
            .params
            .value(rpt_tensor::ParamId::from_index(2))
            .data()
            .to_vec();
        federated_rounds(
            &mut matcher,
            &clients,
            &FederatedConfig {
                rounds: 2,
                local_steps: 10,
                server_lr: 0.0,
            },
        )
        .unwrap();
        let after = matcher.params.value(rpt_tensor::ParamId::from_index(2));
        assert_eq!(before, after.data());
    }
}
