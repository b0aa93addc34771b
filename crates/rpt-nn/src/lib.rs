//! # rpt-nn
//!
//! Transformer building blocks on top of [`rpt_tensor`], sized for the RPT
//! reproduction: laptop-scale models trained on CPU in seconds to minutes.
//!
//! The crate provides the three model shapes the paper's architectures
//! need:
//!
//! * [`Seq2Seq`] — a BART-style denoising encoder-decoder (bidirectional
//!   encoder, left-to-right autoregressive decoder with cross-attention,
//!   tied input/output embeddings) with token + positional + **column**
//!   embeddings, the backbone of RPT-C (paper Fig. 4);
//! * [`EncoderClassifier`] — a BERT-style encoder with `[CLS]` pooling and
//!   a classification head, the backbone of RPT-E's matcher (Fig. 5);
//! * [`SpanExtractor`] — an encoder with start/end span heads, the
//!   question-answering backbone of RPT-I (Fig. 6).
//!
//! Plus the supporting pieces: [`module`] (Linear / Embedding / LayerNorm
//! and the per-step [`Ctx`]), [`attention`], [`transformer`] stacks,
//! [`batch`] padding-and-masking helpers, [`decode`] (greedy, beam and
//! forced scoring as one-job runs of the [`multidecode`] micro-batcher,
//! with uncached reference paths), [`schedule`] (Noam warmup), and
//! [`metrics`].

pub mod attention;
pub mod batch;
pub mod classifier;
pub mod decode;
pub mod metrics;
pub mod module;
pub mod multidecode;
pub(crate) mod obs;
pub mod quant;
pub mod schedule;
pub mod seq2seq;
pub mod transformer;

pub use attention::MultiHeadAttention;
pub use batch::{Sequence, TokenBatch};
pub use classifier::{EncoderClassifier, SpanExtractor};
pub use decode::{
    beam_search, beam_search_reference, forced_score, forced_score_reference, greedy_decode,
    greedy_decode_reference, BeamConfig, Hypothesis,
};
pub use module::{Ctx, Embedding, LayerNorm, Linear};
pub use multidecode::{JobOutput, JobSpec, MicroBatcher};
pub use quant::{build_quant_set, quant_set_from_named, QuantSet};
pub use schedule::NoamSchedule;
pub use seq2seq::{
    make_denoising_shards, shard_seed, DenoisingShard, IncrementalState, Prefill, Seq2Seq,
    TransformerConfig,
};
pub use transformer::{CrossKv, Decoder, Encoder, KvCache};

/// Large negative value used for additive attention masking.
pub const NEG_INF: f32 = -1e9;
