//! # rpt-tokenizer
//!
//! Tokenization and tuple serialization for RPT (paper §2.2).
//!
//! The paper converts a tuple into a token sequence with *tuple-aware*
//! markers — `[A]` before each attribute name and `[V]` before each
//! attribute value — plus positional and **column** embeddings so the model
//! knows which tokens belong to the same attribute:
//!
//! ```text
//! [A] name [V] michael jordan [A] expertise [V] machine learning [A] city [V] berkeley
//! ```
//!
//! This crate provides:
//!
//! * [`normalize`] — a deterministic word-level normalizer that splits
//!   punctuation (so `"5.8-inch"` → `5.8`, `inch`) while keeping decimal
//!   numbers whole;
//! * [`Vocab`] — a frequency-built vocabulary with the special tokens RPT
//!   needs (`[PAD] [BOS] [EOS] [M] [A] [V] [CLS] [SEP] [UNK]`);
//! * [`TupleEncoder`] — tuple → `(token ids, column ids)` serialization,
//!   single-`[M]` attribute-value masking (text infilling, §2.2), and the
//!   `[CLS] a [SEP] b` pair serialization RPT-E's matcher consumes.

pub mod encoder;
pub mod vocab;

pub use encoder::{EncodedPair, EncodedTuple, EncoderOptions, TupleEncoder};
pub use vocab::{normalize, Vocab, VocabBuilder, MAX_VOCAB_BYTES};

/// Token id of `[PAD]` (also used as the ignored target index in losses).
pub const PAD: usize = 0;
/// Token id of `[BOS]` (decoder start).
pub const BOS: usize = 1;
/// Token id of `[EOS]` (decoder stop).
pub const EOS: usize = 2;
/// Token id of `[M]`, the mask used for corruption *and* as the cloze slot
/// in PET templates.
pub const MASK: usize = 3;
/// Token id of `[A]`, prefixed to attribute names.
pub const ATTR: usize = 4;
/// Token id of `[V]`, prefixed to attribute values.
pub const VAL: usize = 5;
/// Token id of `[CLS]` (classification pooling position).
pub const CLS: usize = 6;
/// Token id of `[SEP]` (separator between paired tuples / question-context).
pub const SEP: usize = 7;
/// Token id of `[UNK]` (out-of-vocabulary fallback).
pub const UNK: usize = 8;
/// Number of reserved special tokens; real tokens start here.
pub const NUM_SPECIAL: usize = 9;

/// Printable surface forms of the special tokens, indexed by id.
pub const SPECIAL_NAMES: [&str; NUM_SPECIAL] = [
    "[PAD]", "[BOS]", "[EOS]", "[M]", "[A]", "[V]", "[CLS]", "[SEP]", "[UNK]",
];

/// Column id assigned to tokens that belong to no column (specials, padding).
pub const COL_NONE: usize = 0;
