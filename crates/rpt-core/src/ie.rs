//! **RPT-I** — information extraction as question answering (§4, Fig. 6).
//!
//! A pretrained encoder with span heads reads
//! `[CLS] question [SEP] context` and returns `(start, end)` positions —
//! the direct analogue of SQuAD-style QA. The question itself is *not*
//! given by the user: it is instantiated from one or more examples
//! PET-style — the template `"what is the [M]"` gets its `[M]` from the
//! attribute keyword found next to the example's answer span
//! (the paper's `s₁` with label `8GB` ⇒ "what is the memory size").

use rpt_datagen::benchmarks::IeTask;
use rpt_nn::{Ctx, Sequence, SpanExtractor, TokenBatch, TransformerConfig};
use rpt_rng::SliceRandom;
use rpt_rng::SmallRng;
use rpt_rng::{Rng, SeedableRng};
use rpt_tensor::{ParamStore, Tape};
use rpt_tokenizer::{normalize, Vocab, CLS, PAD, SEP};

use crate::train::{NonFiniteStep, TrainOpts, Trainer};

/// RPT-I hyperparameters.
#[derive(Debug, Clone)]
pub struct IeConfig {
    /// Transformer shape (`n_segments` forced to 2, column embeddings off).
    pub model: TransformerConfig,
    /// Optimization settings.
    pub train: TrainOpts,
    /// Longest span the extractor may return.
    pub max_span_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IeConfig {
    #[allow(clippy::field_reassign_with_default)]
    fn default() -> Self {
        let mut model = TransformerConfig::default();
        model.n_segments = 2;
        model.max_cols = 0;
        model.max_len = 64;
        Self {
            model,
            train: TrainOpts::default(),
            max_span_len: 4,
            seed: 31,
        }
    }
}

impl IeConfig {
    /// A miniature config for fast tests.
    #[allow(clippy::field_reassign_with_default)]
    pub fn tiny() -> Self {
        let mut model = TransformerConfig::tiny(0);
        model.n_segments = 2;
        model.max_cols = 0;
        model.max_len = 48;
        Self {
            model,
            train: TrainOpts {
                steps: 100,
                batch_size: 8,
                warmup: 15,
                peak_lr: 3e-3,
                ..Default::default()
            },
            max_span_len: 4,
            seed: 31,
        }
    }
}

/// The question template of Fig. 6.
pub const QUESTION_TEMPLATE: &str = "what is the";

/// Builds the question string for an attribute.
pub fn question_for(attr: &str) -> String {
    format!("{QUESTION_TEMPLATE} {attr}")
}

/// PET-style one/few-shot task interpretation: infer which attribute the
/// task asks about from example `(description, answer)` pairs, by looking
/// at the tokens surrounding the answer span. Returns the attribute name
/// (one of `memory`, `screen`, `year`, `brand`) or `None` if the examples
/// are uninterpretable.
pub fn infer_attribute(examples: &[(&str, &str)]) -> Option<&'static str> {
    let mut votes: std::collections::HashMap<&'static str, usize> = Default::default();
    for (description, answer) in examples {
        let ctx = normalize(description);
        let ans = normalize(answer);
        if ans.is_empty() {
            continue;
        }
        // 1. Units inside the answer identify the attribute directly.
        if ans.iter().any(|t| matches!(t.as_str(), "gb" | "g" | "gig")) {
            *votes.entry("memory").or_insert(0) += 2;
            continue;
        }
        if ans
            .iter()
            .any(|t| matches!(t.as_str(), "inch" | "inches" | "in"))
        {
            *votes.entry("screen").or_insert(0) += 2;
            continue;
        }
        // 2. A 4-digit 19xx/20xx answer is a year.
        if ans.len() == 1
            && ans[0].len() == 4
            && (ans[0].starts_with("19") || ans[0].starts_with("20"))
            && ans[0].chars().all(|c| c.is_ascii_digit())
        {
            *votes.entry("year").or_insert(0) += 2;
            continue;
        }
        // 3. Otherwise look at the token right before the span.
        let pos = ctx.windows(ans.len()).position(|w| w == ans.as_slice());
        let Some(start) = pos else { continue };
        if start > 0 {
            match ctx[start - 1].as_str() {
                "by" | "from" => {
                    *votes.entry("brand").or_insert(0) += 2;
                    continue;
                }
                "in" => {
                    *votes.entry("year").or_insert(0) += 1;
                    continue;
                }
                _ => {}
            }
        }
        // 4. Fall back to nearby attribute nouns.
        let end = start + ans.len();
        let lo = start.saturating_sub(3);
        let hi = (end + 3).min(ctx.len());
        for tok in &ctx[lo..hi] {
            let attr = match tok.as_str() {
                "ram" | "memory" => Some("memory"),
                "touchscreen" | "screen" | "display" => Some("screen"),
                "released" | "year" => Some("year"),
                "brand" | "made" => Some("brand"),
                _ => None,
            };
            if let Some(attr) = attr {
                *votes.entry(attr).or_insert(0) += 1;
            }
        }
    }
    votes.into_iter().max_by_key(|&(_, c)| c).map(|(a, _)| a)
}

/// Aggregate IE quality.
#[derive(Debug, Clone, Default)]
pub struct IeEval {
    /// Exact span matches.
    pub exact: f64,
    /// Mean token-level F1.
    pub token_f1: f64,
    /// Tasks evaluated.
    pub n: usize,
}

/// The RPT-I model.
pub struct RptI {
    cfg: IeConfig,
    vocab: Vocab,
    span: SpanExtractor,
    /// Trainable parameters (public for checkpointing).
    pub params: ParamStore,
    rng: SmallRng,
}

impl RptI {
    /// Builds an untrained model over `vocab`.
    pub fn new(vocab: Vocab, mut cfg: IeConfig) -> Self {
        cfg.model.vocab_size = vocab.len();
        cfg.model.n_segments = 2;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut params = ParamStore::new();
        let span = SpanExtractor::new(&mut params, cfg.model.clone(), &mut rng);
        Self {
            cfg,
            vocab,
            span,
            params,
            rng,
        }
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Encodes `[CLS] question [SEP] context`, returning the sequence and
    /// the offset where context tokens begin.
    pub fn encode_qa(&self, question: &str, context: &str) -> (Sequence, usize) {
        let q = self.vocab.encode_text(question);
        let c = self.vocab.encode_text(context);
        let mut ids = Vec::with_capacity(q.len() + c.len() + 2);
        let mut segs = Vec::with_capacity(ids.capacity());
        ids.push(CLS);
        segs.push(0);
        ids.extend_from_slice(&q);
        segs.extend(std::iter::repeat_n(0, q.len()));
        ids.push(SEP);
        segs.push(1);
        let offset = ids.len();
        ids.extend_from_slice(&c);
        segs.extend(std::iter::repeat_n(1, c.len()));
        ids.truncate(self.cfg.model.max_len);
        segs.truncate(self.cfg.model.max_len);
        (
            Sequence {
                ids,
                cols: Vec::new(),
                segs,
                flags: Vec::new(),
            },
            offset,
        )
    }

    /// Locates the answer span (absolute token positions) of a task inside
    /// its encoded sequence. Returns `None` if the answer was truncated or
    /// does not tokenize to a contiguous subsequence.
    fn locate_answer(&self, seq: &Sequence, offset: usize, answer: &str) -> Option<(usize, usize)> {
        let ans = self.vocab.encode_text(answer);
        if ans.is_empty() {
            return None;
        }
        let ctx = &seq.ids[offset.min(seq.ids.len())..];
        let pos = ctx.windows(ans.len()).position(|w| w == ans.as_slice())?;
        Some((offset + pos, offset + pos + ans.len() - 1))
    }

    /// Supervised QA training on IE tasks (questions derive from the gold
    /// attribute — the analogue of fine-tuning on SQuAD). Returns the loss
    /// curve, or [`NonFiniteStep`] when a step's loss or gradient norm is
    /// not finite.
    pub fn train(&mut self, tasks: &[IeTask]) -> Result<Vec<f32>, NonFiniteStep> {
        let prepared: Vec<(Sequence, usize, usize)> = tasks
            .iter()
            .filter_map(|t| {
                let (seq, offset) = self.encode_qa(&question_for(t.attr), &t.description);
                let (s, e) = self.locate_answer(&seq, offset, &t.answer)?;
                Some((seq, s, e))
            })
            .collect();
        assert!(!prepared.is_empty(), "no trainable IE tasks");
        let mut trainer = Trainer::new(self.cfg.train.clone(), self.cfg.model.d_model);
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        while !trainer.finished() {
            let batch_items: Vec<&(Sequence, usize, usize)> = (0..self.cfg.train.batch_size)
                .map(|_| prepared.choose(&mut rng).unwrap())
                .collect();
            let seqs: Vec<Sequence> = batch_items.iter().map(|(s, _, _)| s.clone()).collect();
            let starts: Vec<usize> = batch_items.iter().map(|(_, s, _)| *s).collect();
            let ends: Vec<usize> = batch_items.iter().map(|(_, _, e)| *e).collect();
            let batch = TokenBatch::from_sequences(&seqs, self.cfg.model.max_len, PAD);
            let tape = Tape::new();
            let mut step_rng = SmallRng::seed_from_u64(self.rng.gen());
            let mut ctx = Ctx::new(&tape, &mut self.params, &mut step_rng, true);
            let loss = self.span.loss(&mut ctx, &batch, &starts, &ends);
            trainer.step(&tape, &mut self.params, loss);
            trainer.check_finite()?;
        }
        Ok(trainer.losses().to_vec())
    }

    /// Extracts the answer span for a question over a context, returning
    /// the answer text.
    pub fn extract(&mut self, question: &str, context: &str) -> String {
        let (seq, offset) = self.encode_qa(question, context);
        let batch =
            TokenBatch::from_sequences(std::slice::from_ref(&seq), self.cfg.model.max_len, PAD);
        let mut rng = SmallRng::seed_from_u64(0);
        let spans = self.span.predict_spans(
            &mut self.params,
            &mut rng,
            &batch,
            &[offset],
            self.cfg.max_span_len,
        );
        let (s, e) = spans[0];
        let hi = (e + 1).min(seq.ids.len());
        self.vocab.decode(&seq.ids[s..hi])
    }

    /// Evaluates on tasks whose questions are built from `infer` — either
    /// the gold attribute (`None`) or an attribute inferred from examples
    /// (`Some(attr)`), measuring exact match and token F1 against the gold
    /// answers.
    pub fn evaluate(&mut self, tasks: &[IeTask], attr_override: Option<&str>) -> IeEval {
        use rpt_nn::metrics::{token_f1, Mean};
        let mut exact = Mean::default();
        let mut f1 = Mean::default();
        for t in tasks {
            let attr = attr_override.unwrap_or(t.attr);
            let pred = self.extract(&question_for(attr), &t.description);
            let pred_tokens = normalize(&pred);
            let gold_tokens = normalize(&t.answer);
            exact.add(if pred_tokens == gold_tokens { 1.0 } else { 0.0 });
            f1.add(token_f1(&pred_tokens, &gold_tokens));
        }
        IeEval {
            exact: exact.get(),
            token_f1: f1.get(),
            n: tasks.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::build_vocab;
    use rpt_datagen::benchmarks::ie_tasks;
    use rpt_datagen::{Universe, UniverseConfig};

    fn setup(n_tasks: usize, seed: u64) -> (Vec<IeTask>, Vocab) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = Universe::generate(
            &UniverseConfig {
                n_entities: 120,
                ..Default::default()
            },
            &mut rng,
        );
        let tasks = ie_tasks(&universe, n_tasks, &mut rng);
        let texts: Vec<String> = tasks
            .iter()
            .flat_map(|t| {
                [
                    t.description.clone(),
                    question_for(t.attr),
                    t.answer.clone(),
                ]
            })
            .collect();
        let vocab = build_vocab(&[], &texts, 1, 4000);
        (tasks, vocab)
    }

    #[test]
    fn encode_qa_layout() {
        let (tasks, vocab) = setup(5, 1);
        let rpti = RptI::new(vocab, IeConfig::tiny());
        let (seq, offset) = rpti.encode_qa("what is the memory", &tasks[0].description);
        assert_eq!(seq.ids[0], CLS);
        assert_eq!(seq.ids[offset - 1], SEP);
        assert!(seq.segs[..offset - 1].iter().all(|&s| s == 0));
        assert!(seq.segs[offset..].iter().all(|&s| s == 1));
    }

    #[test]
    fn infer_attribute_from_one_shot_examples() {
        // the paper's s1: "... comes with 4GB of RAM" labeled "4GB"
        let ex = [("6.10-inch touchscreen, comes with 4 gb of ram", "4 gb")];
        assert_eq!(infer_attribute(&ex), Some("memory"));
        let ex2 = [(
            "5.8-inch touchscreen, released in 2017, by apple",
            "5.8-inch",
        )];
        assert_eq!(infer_attribute(&ex2), Some("screen"));
        let ex3 = [("released in 2017, by apple", "2017")];
        assert_eq!(infer_attribute(&ex3), Some("year"));
        let ex4 = [("released in 2017, by apple inc", "apple inc")];
        assert_eq!(infer_attribute(&ex4), Some("brand"));
        assert_eq!(infer_attribute(&[("nothing here", "absent")]), None);
    }

    #[test]
    fn training_learns_span_extraction() {
        let (tasks, vocab) = setup(60, 2);
        let mut cfg = IeConfig::tiny();
        cfg.train.steps = 250;
        cfg.train.peak_lr = 4e-3;
        let mut rpti = RptI::new(vocab, cfg);
        let (train, test) = tasks.split_at(45);
        let losses = rpti.train(train).expect("training step went non-finite");
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.7, "IE loss did not drop: {head} -> {tail}");
        let eval = rpti.evaluate(test, None);
        assert!(
            eval.token_f1 > 0.35,
            "span F1 {} exact {} on {} tasks",
            eval.token_f1,
            eval.exact,
            eval.n
        );
    }

    #[test]
    fn non_finite_parameters_stop_training() {
        let (tasks, vocab) = setup(10, 4);
        let mut rpti = RptI::new(vocab, IeConfig::tiny());
        crate::train::poison_first_param(&mut rpti.params);
        assert_eq!(rpti.train(&tasks), Err(NonFiniteStep { step: 1 }));
    }

    #[test]
    fn extract_returns_context_substring() {
        let (tasks, vocab) = setup(5, 3);
        let mut rpti = RptI::new(vocab, IeConfig::tiny());
        let out = rpti.extract("what is the memory", &tasks[0].description);
        // untrained, but the span must come from the context
        for tok in normalize(&out) {
            assert!(
                normalize(&tasks[0].description).contains(&tok),
                "token {tok} not from context"
            );
        }
    }
}
