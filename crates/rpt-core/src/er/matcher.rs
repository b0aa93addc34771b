//! The RPT-E matcher: a BERT-style pair classifier over
//! `[CLS] serialize(a) [SEP] serialize(b)`, schema-agnostic by
//! construction, trained collaboratively on *other* benchmarks
//! (leave-one-out) and calibrated on the target with a few examples.

use rpt_datagen::{ErBenchmark, LabeledPair, PairSet};
use rpt_nn::metrics::BinaryConfusion;
use rpt_nn::{Ctx, EncoderClassifier, Sequence, TokenBatch, TransformerConfig};
use rpt_rng::SliceRandom;
use rpt_rng::SmallRng;
use rpt_rng::{Rng, SeedableRng};
use rpt_table::{Schema, Tuple};
use rpt_tensor::{ParamStore, Tape};
use rpt_tokenizer::{EncoderOptions, TupleEncoder, Vocab, PAD};

use crate::train::{NonFiniteStep, TrainOpts, Trainer};

/// Matcher hyperparameters.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Transformer shape (`n_segments` is forced to 2).
    pub model: TransformerConfig,
    /// Serialization options (pair `max_len` comes from here).
    pub encoder_opts: EncoderOptions,
    /// Optimization settings.
    pub train: TrainOpts,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MatcherConfig {
    #[allow(clippy::field_reassign_with_default)]
    fn default() -> Self {
        let mut model = TransformerConfig::default();
        model.n_segments = 2;
        model.n_flags = 3;
        model.max_len = 96;
        Self {
            model,
            encoder_opts: EncoderOptions {
                max_len: 96,
                ..Default::default()
            },
            train: TrainOpts::default(),
            seed: 23,
        }
    }
}

impl MatcherConfig {
    /// A miniature config for fast tests.
    #[allow(clippy::field_reassign_with_default)]
    pub fn tiny() -> Self {
        let mut model = TransformerConfig::tiny(0);
        model.n_segments = 2;
        model.n_flags = 3;
        model.max_len = 48;
        Self {
            model,
            encoder_opts: EncoderOptions {
                max_len: 48,
                ..Default::default()
            },
            train: TrainOpts {
                steps: 80,
                batch_size: 8,
                warmup: 15,
                peak_lr: 3e-3,
                ..Default::default()
            },
            seed: 23,
        }
    }
}

/// The matcher model.
pub struct Matcher {
    cfg: MatcherConfig,
    encoder: TupleEncoder,
    clf: EncoderClassifier,
    /// Trainable parameters (public for checkpointing).
    pub params: ParamStore,
    threshold: f32,
    rng: SmallRng,
}

impl Matcher {
    /// Builds an untrained matcher over `vocab`.
    pub fn new(vocab: Vocab, mut cfg: MatcherConfig) -> Self {
        cfg.model.vocab_size = vocab.len();
        cfg.model.n_segments = 2;
        cfg.model.max_len = cfg.model.max_len.max(cfg.encoder_opts.max_len);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut params = ParamStore::new();
        let clf = EncoderClassifier::new(&mut params, cfg.model.clone(), 2, &mut rng);
        let encoder = TupleEncoder::new(vocab, cfg.encoder_opts.clone());
        Self {
            cfg,
            encoder,
            clf,
            params,
            threshold: 0.5,
            rng,
        }
    }

    /// The decision threshold on P(match).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Overrides the decision threshold (used by few-shot calibration).
    pub fn set_threshold(&mut self, t: f32) {
        assert!((0.0..=1.0).contains(&t), "threshold must be in [0,1]");
        self.threshold = t;
    }

    /// The serializer.
    pub fn encoder(&self) -> &TupleEncoder {
        &self.encoder
    }

    fn pair_sequence(&self, sa: &Schema, a: &Tuple, sb: &Schema, b: &Tuple) -> Sequence {
        let p = self.encoder.encode_pair(sa, a, sb, b);
        Sequence {
            ids: p.ids,
            cols: p.cols,
            segs: p.segs,
            flags: p.flags,
        }
    }

    /// Unsupervised masked-language-model pretraining of the encoder trunk
    /// on tuple serializations — the stand-in for "the Matcher of RPT-E
    /// uses BERT": before seeing any match labels, the encoder learns
    /// token semantics (aliases, model variants, unit variants) from raw
    /// tables, which is what transfers across benchmarks. Returns the loss
    /// curve, or [`NonFiniteStep`] when a step's loss or gradient norm is
    /// not finite.
    pub fn pretrain_mlm(
        &mut self,
        tables: &[&rpt_table::Table],
        steps: usize,
    ) -> Result<Vec<f32>, NonFiniteStep> {
        let pool: Vec<(usize, usize)> = tables
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| (0..t.len()).map(move |ri| (ti, ri)))
            .collect();
        assert!(!pool.is_empty(), "MLM pretraining corpus is empty");
        let mut opts = self.cfg.train.clone();
        opts.steps = steps;
        let mut trainer = Trainer::new(opts, self.cfg.model.d_model);
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed.wrapping_add(7));
        while !trainer.finished() {
            let mut seqs = Vec::with_capacity(self.cfg.train.batch_size);
            let mut masked_targets: Vec<Vec<(usize, usize)>> =
                Vec::with_capacity(self.cfg.train.batch_size);
            while seqs.len() < self.cfg.train.batch_size {
                let &(ti, ri) = pool.choose(&mut rng).unwrap();
                let encoded = self
                    .encoder
                    .encode_tuple(tables[ti].schema(), tables[ti].row(ri));
                let positions = encoded.value_positions();
                if positions.is_empty() {
                    continue;
                }
                let k = ((positions.len() as f64 * 0.25).ceil() as usize).max(1);
                let mut picked = positions;
                picked.shuffle(&mut rng);
                picked.truncate(k);
                picked.sort_unstable();
                let (masked, originals) = encoded.mask_tokens(&picked);
                masked_targets.push(picked.into_iter().zip(originals).collect());
                seqs.push(Sequence {
                    ids: masked.ids,
                    cols: masked.cols,
                    segs: Vec::new(),
                    flags: Vec::new(),
                });
            }
            let batch = TokenBatch::from_sequences(&seqs, self.cfg.model.max_len, PAD);
            let mut targets = vec![PAD; batch.b * batch.t];
            for (bi, pairs) in masked_targets.iter().enumerate() {
                for &(pos, original) in pairs {
                    if pos < batch.t {
                        targets[bi * batch.t + pos] = original;
                    }
                }
            }
            let tape = Tape::new();
            let mut step_rng = SmallRng::seed_from_u64(self.rng.gen());
            let mut ctx = Ctx::new(&tape, &mut self.params, &mut step_rng, true);
            let loss = self.clf.mlm_loss(&mut ctx, &batch, &targets, PAD);
            trainer.step(&tape, &mut self.params, loss);
            trainer.check_finite()?;
        }
        Ok(trainer.losses().to_vec())
    }

    /// The configured optimization settings.
    pub fn train_opts(&self) -> &TrainOpts {
        &self.cfg.train
    }

    /// Trains on labeled pairs from several benchmarks (the collaborative /
    /// leave-one-out regime: when testing on D1, train on D2..D5).
    /// Returns the loss curve, or [`NonFiniteStep`] when a step's loss or
    /// gradient norm is not finite.
    pub fn train(&mut self, data: &[(&ErBenchmark, &PairSet)]) -> Result<Vec<f32>, NonFiniteStep> {
        let opts = self.cfg.train.clone();
        self.train_with_opts(data, &opts)
    }

    /// Like [`Matcher::train`] but with explicit optimization settings
    /// (used by the federated trainer for short local rounds).
    pub fn train_with_opts(
        &mut self,
        data: &[(&ErBenchmark, &PairSet)],
        opts: &TrainOpts,
    ) -> Result<Vec<f32>, NonFiniteStep> {
        let mut positives: Vec<(usize, LabeledPair)> = Vec::new();
        let mut negatives: Vec<(usize, LabeledPair)> = Vec::new();
        for (bi, (_, ps)) in data.iter().enumerate() {
            for p in &ps.pairs {
                if p.label {
                    positives.push((bi, *p));
                } else {
                    negatives.push((bi, *p));
                }
            }
        }
        assert!(
            !positives.is_empty() && !negatives.is_empty(),
            "matcher training needs both classes ({} pos, {} neg)",
            positives.len(),
            negatives.len()
        );
        let mut trainer = Trainer::new(opts.clone(), self.cfg.model.d_model);
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        while !trainer.finished() {
            let mut seqs = Vec::with_capacity(opts.batch_size);
            let mut labels = Vec::with_capacity(opts.batch_size);
            for k in 0..opts.batch_size {
                // class-balanced sampling: real pair sets are heavily
                // negative-skewed, which otherwise collapses the matcher
                // to the all-negative prediction
                let &(bi, p) = if k % 2 == 0 {
                    positives.choose(&mut rng).unwrap()
                } else {
                    negatives.choose(&mut rng).unwrap()
                };
                let bench = data[bi].0;
                seqs.push(self.pair_sequence(
                    bench.table_a.schema(),
                    bench.table_a.row(p.a),
                    bench.table_b.schema(),
                    bench.table_b.row(p.b),
                ));
                labels.push(p.label as usize);
            }
            let batch = TokenBatch::from_sequences(&seqs, self.cfg.model.max_len, PAD);
            let tape = Tape::new();
            let mut step_rng = SmallRng::seed_from_u64(self.rng.gen());
            let mut ctx = Ctx::new(&tape, &mut self.params, &mut step_rng, true);
            let loss = self.clf.loss(&mut ctx, &batch, &labels);
            trainer.step(&tape, &mut self.params, loss);
            trainer.check_finite()?;
        }
        Ok(trainer.losses().to_vec())
    }

    /// P(match) for each `(a_row, b_row)` candidate of a benchmark.
    pub fn score_pairs(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(32) {
            let seqs: Vec<Sequence> = chunk
                .iter()
                .map(|&(i, j)| {
                    self.pair_sequence(
                        bench.table_a.schema(),
                        bench.table_a.row(i),
                        bench.table_b.schema(),
                        bench.table_b.row(j),
                    )
                })
                .collect();
            let batch = TokenBatch::from_sequences(&seqs, self.cfg.model.max_len, PAD);
            let mut rng = SmallRng::seed_from_u64(0);
            let probs = self.clf.predict_proba(&mut self.params, &mut rng, &batch);
            out.extend(probs.into_iter().map(|p| p[1]));
        }
        out
    }

    /// Binary decisions at the current threshold.
    pub fn predict(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.score_pairs(bench, pairs)
            .into_iter()
            .map(|s| s >= self.threshold)
            .collect()
    }

    /// Evaluates on labeled pairs, returning the confusion counts.
    pub fn evaluate(&mut self, bench: &ErBenchmark, pairs: &PairSet) -> BinaryConfusion {
        let idx: Vec<(usize, usize)> = pairs.pairs.iter().map(|p| (p.a, p.b)).collect();
        let preds = self.predict(bench, &idx);
        BinaryConfusion::from_pairs(preds.into_iter().zip(pairs.pairs.iter().map(|p| p.label)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::build_vocab;
    use rpt_datagen::standard_benchmarks;

    /// Leave-one-out training on tiny data must beat chance on the held-out
    /// benchmark — the in-vitro version of Table 2's premise.
    #[test]
    fn leave_one_out_matcher_beats_chance() {
        let mut rng = SmallRng::seed_from_u64(42);
        let (universe, benches) = standard_benchmarks(60, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 3000);

        let mut cfg = MatcherConfig::tiny();
        cfg.model.d_model = 32;
        cfg.model.d_ff = 64;
        cfg.model.n_heads = 4;
        cfg.train.steps = 600;
        cfg.train.peak_lr = 2e-3;
        let mut matcher = Matcher::new(vocab, cfg);
        // train on benchmarks 1..5, test on 0
        let train_sets: Vec<PairSet> = benches[1..]
            .iter()
            .map(|b| b.labeled_pairs(3, &universe, &mut rng))
            .collect();
        let train_refs: Vec<(&ErBenchmark, &PairSet)> =
            benches[1..].iter().zip(train_sets.iter()).collect();
        // unsupervised MLM pretraining on raw tables (labels never used)
        matcher.pretrain_mlm(&tables, 200).unwrap();
        let losses = matcher.train(&train_refs).unwrap();
        assert!(losses.last().unwrap() < &losses[0]);

        let test_pairs = benches[0].labeled_pairs(3, &universe, &mut rng);
        // few-shot calibration (the paper's O2): pick the threshold on a
        // handful of labeled target examples, evaluate on the rest
        let (calib, eval) = {
            let mut pairs = test_pairs.pairs.clone();
            pairs.sort_by_key(|p| (p.a, p.b, p.label));
            let calib: Vec<_> = pairs.iter().step_by(5).copied().collect();
            let eval: Vec<_> = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 0)
                .map(|(_, p)| *p)
                .collect();
            (calib, eval)
        };
        let calib_idx: Vec<(usize, usize)> = calib.iter().map(|p| (p.a, p.b)).collect();
        let calib_scores = matcher.score_pairs(&benches[0], &calib_idx);
        let calib_labels: Vec<bool> = calib.iter().map(|p| p.label).collect();
        let t = crate::er::fewshot::calibrate_threshold(&calib_scores, &calib_labels);
        matcher.set_threshold(t);
        let conf = matcher.evaluate(&benches[0], &rpt_datagen::PairSet { pairs: eval });
        // all-positive predicting on 1:3 data gives F1 = 0.4; the calibrated
        // matcher must clearly beat that
        assert!(
            conf.f1() > 0.5,
            "held-out F1 {:.3} at threshold {:.2} (p {:.2} r {:.2})",
            conf.f1(),
            t,
            conf.precision(),
            conf.recall()
        );
    }

    #[test]
    fn threshold_is_clamped_and_affects_predictions() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (_u, benches) = standard_benchmarks(10, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 2000);
        let mut matcher = Matcher::new(vocab, MatcherConfig::tiny());
        let pairs: Vec<(usize, usize)> = (0..5).map(|i| (i, i)).collect();
        matcher.set_threshold(0.0);
        assert!(matcher.predict(&benches[0], &pairs).iter().all(|&p| p));
        matcher.set_threshold(1.0);
        // untrained probabilities are strictly below 1.0 almost surely
        assert!(matcher.predict(&benches[0], &pairs).iter().all(|&p| !p));
    }

    #[test]
    fn non_finite_parameters_stop_mlm_pretraining_and_training() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (universe, benches) = standard_benchmarks(10, &mut rng);
        let tables: Vec<&rpt_table::Table> = vec![&benches[0].table_a, &benches[0].table_b];
        let vocab = build_vocab(&tables, &[], 1, 2000);
        let pairs = benches[0].labeled_pairs(3, &universe, &mut rng);

        let mut matcher = Matcher::new(vocab.clone(), MatcherConfig::tiny());
        crate::train::poison_first_param(&mut matcher.params);
        assert_eq!(
            matcher.pretrain_mlm(&tables, 5),
            Err(NonFiniteStep { step: 1 })
        );

        let mut matcher = Matcher::new(vocab, MatcherConfig::tiny());
        crate::train::poison_first_param(&mut matcher.params);
        assert_eq!(
            matcher.train(&[(&benches[0], &pairs)]),
            Err(NonFiniteStep { step: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_rejected() {
        let vocab = build_vocab(&[], &["a".into()], 1, 10);
        let mut m = Matcher::new(vocab, MatcherConfig::tiny());
        m.set_threshold(1.5);
    }
}
