//! # rpt-core
//!
//! The paper's contribution: **Relational Pre-trained Transformers** for
//! the three classical data-preparation tasks.
//!
//! * [`cleaning`] — **RPT-C** (§2): a tuple-denoising encoder-decoder
//!   transformer. Pretraining corrupts tuples (token masking, single-`[M]`
//!   attribute-value masking / text infilling, optionally FD-aware mask
//!   selection) and optimizes a reconstruction loss; inference fills a
//!   masked attribute value by beam search.
//! * [`er`] — **RPT-E** (§3): the end-to-end entity-resolution pipeline —
//!   Blocker → Matcher (a pretrained pair classifier trained
//!   *collaboratively* on other benchmarks, adapted to the target with a
//!   few examples) → transitive-closure Clusterer with conflict detection →
//!   Consolidator producing golden records from learned preferences.
//! * [`ie`] — **RPT-I** (§4): information extraction as question answering;
//!   a span extractor over `[CLS] question [SEP] context`, with the
//!   question instantiated from one-shot examples PET-style
//!   ("what is the `[M]`" → "what is the memory").
//! * [`train`] / [`vocabulary`] — the shared training loop (Adam + Noam
//!   warmup + gradient clipping) and vocabulary construction helpers.

pub mod cleaning;
pub mod corpus;
pub mod detect;
pub mod er;
pub mod ie;
pub mod train;
pub mod vocabulary;

pub use cleaning::{
    CheckpointOpts, CleaningConfig, CleaningEval, FillResult, Filler, MaskPolicy, RptC, StreamOpts,
};
pub use corpus::{DiskCorpus, InMemoryCorpus, Manifest, ShardSource};
pub use detect::{detect_errors, DetectionEval, DetectorConfig, Suspect};
pub use er::{Blocker, Clusters, Consolidator, ErPipeline, Matcher};
pub use ie::{IeConfig, RptI};
/// The pool the training entry points (`RptC::pretrain_on`, …) take.
pub use rpt_par::ThreadPool;
pub use train::{TrainOpts, Trainer};
pub use vocabulary::build_vocab;
