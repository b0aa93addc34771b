//! The text-only "BART" baseline of Table 1: identical architecture and
//! vocabulary to RPT-C, but pretrained exclusively on natural-language
//! product prose with span infilling — never on tuple serializations.
//! At evaluation time it receives the same masked tuple serialization as
//! RPT-C; the format mismatch is the point of the comparison.

use rpt_core::cleaning::{CleaningConfig, FillResult, Filler, PairSource, RptC, StreamOpts};
use rpt_core::corpus::CorpusError;
use rpt_nn::Sequence;
use rpt_rng::SmallRng;
use rpt_rng::{Rng, SeedableRng};
use rpt_table::{Schema, Tuple};
use rpt_tokenizer::{Vocab, MASK};

/// The text-only pretrained baseline.
pub struct BartText {
    inner: RptC,
}

impl BartText {
    /// Builds an untrained model (same config family as [`RptC`]).
    pub fn new(vocab: Vocab, cfg: CleaningConfig) -> Self {
        Self {
            inner: RptC::new(vocab, cfg),
        }
    }

    /// Access to the underlying model (e.g. for checkpointing).
    pub fn inner(&self) -> &RptC {
        &self.inner
    }

    /// Builds one text-infilling pair from a sentence: a random span of
    /// 1..=3 tokens is replaced by a single `[M]`.
    pub fn text_pair(
        &self,
        sentence: &str,
        rng: &mut (impl Rng + ?Sized),
    ) -> Option<(Sequence, Vec<usize>)> {
        text_pair(self.inner.encoder().vocab(), sentence, rng)
    }

    /// Pretrains on prose (text infilling only) through RPT-C's denoising
    /// loop on the global thread pool. Returns the loss curve, or the
    /// loop's error: no sentence yields a pair that fits the model, or a
    /// step goes non-finite.
    pub fn pretrain_text(&mut self, sentences: &[String]) -> Result<Vec<f32>, CorpusError> {
        let rng = SmallRng::seed_from_u64(self.inner.config().seed.wrapping_add(101));
        let pool = rpt_core::ThreadPool::global();
        self.inner
            .pretrain_pairs(pool, &StreamOpts::default(), None, None, |_| {
                Ok(Sentences { sentences, rng })
            })
    }
}

fn text_pair(
    vocab: &Vocab,
    sentence: &str,
    rng: &mut (impl Rng + ?Sized),
) -> Option<(Sequence, Vec<usize>)> {
    let ids = vocab.encode_text(sentence);
    if ids.len() < 3 {
        return None;
    }
    let span_len = rng.gen_range(1..=3usize.min(ids.len() - 1));
    let start = rng.gen_range(0..=ids.len() - span_len);
    let target: Vec<usize> = ids[start..start + span_len].to_vec();
    let mut src = Vec::with_capacity(ids.len() - span_len + 1);
    src.extend_from_slice(&ids[..start]);
    src.push(MASK);
    src.extend_from_slice(&ids[start + span_len..]);
    Some((Sequence::from_ids(src), target))
}

/// Sentences sampled uniformly with replacement, each span-infilled; pairs
/// whose source does not fit the model are skipped.
struct Sentences<'a> {
    sentences: &'a [String],
    rng: SmallRng,
}

impl PairSource for Sentences<'_> {
    const RNG_STREAM: &'static str = "batch";

    fn next_pair(&mut self, model: &RptC) -> Result<Option<(Sequence, Vec<usize>)>, CorpusError> {
        if self.sentences.is_empty() {
            return Ok(None);
        }
        let s = &self.sentences[self.rng.gen_range(0..self.sentences.len())];
        let pair = text_pair(model.encoder().vocab(), s, &mut self.rng);
        Ok(pair
            .filter(|(src, tgt)| src.ids.len() < model.config().model.max_len && !tgt.is_empty()))
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }
}

impl Filler for BartText {
    fn fill(&mut self, schema: &Schema, tuple: &Tuple, col: usize) -> FillResult {
        self.inner.fill(schema, tuple, col)
    }

    fn name(&self) -> &str {
        "BART"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_core::vocabulary::build_vocab;
    use rpt_rng::SmallRng;

    fn corpus() -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..20 {
            out.push(format!("the gadget number {i} retails for {i}.99 dollars"));
            out.push(format!("buy the gadget number {i} for only {i}.99"));
        }
        out
    }

    #[test]
    fn text_pair_masks_one_span() {
        let sentences = corpus();
        let vocab = build_vocab(&[], &sentences, 1, 500);
        let bart = BartText::new(vocab, CleaningConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let (src, tgt) = bart.text_pair(&sentences[0], &mut rng).unwrap();
        assert_eq!(src.ids.iter().filter(|&&t| t == MASK).count(), 1);
        assert!((1..=3).contains(&tgt.len()));
        let full = bart.inner().encoder().vocab().encode_text(&sentences[0]);
        assert_eq!(src.ids.len() + tgt.len() - 1, full.len());
    }

    #[test]
    fn pretrain_text_reduces_loss() {
        let sentences = corpus();
        let vocab = build_vocab(&[], &sentences, 1, 500);
        let mut cfg = CleaningConfig::tiny();
        cfg.train.steps = 120;
        let mut bart = BartText::new(vocab, cfg);
        let losses = bart.pretrain_text(&sentences).unwrap();
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head, "loss {head} -> {tail}");
    }

    #[test]
    fn too_short_sentences_are_skipped() {
        let vocab = build_vocab(&[], &["a b".to_string()], 1, 100);
        let bart = BartText::new(vocab, CleaningConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(bart.text_pair("a b", &mut rng).is_none());
    }
}
