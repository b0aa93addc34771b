//! Tuple → token-sequence serialization (paper §2.2 and Fig. 4).

use std::ops::Range;

use rpt_table::{Schema, Tuple};

use crate::vocab::Vocab;
use crate::{ATTR, CLS, COL_NONE, EOS, MASK, SEP, VAL};

/// Serialization options; the defaults reproduce the paper's Fig. 4 input.
/// The two switches exist for the Fig. 4 ablation bench.
#[derive(Debug, Clone)]
pub struct EncoderOptions {
    /// Maximum sequence length; longer serializations are truncated.
    pub max_len: usize,
    /// Emit `[A]` / `[V]` markers ("richer tuple-aware semantics").
    pub markers: bool,
    /// Emit real column ids (for column embeddings) instead of [`COL_NONE`].
    pub column_ids: bool,
}

impl Default for EncoderOptions {
    fn default() -> Self {
        Self {
            max_len: 64,
            markers: true,
            column_ids: true,
        }
    }
}

/// A serialized tuple: token ids, parallel per-token column ids, and the
/// location of each attribute's *value* tokens inside `ids` (used by the
/// masking/corruption operators).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTuple {
    /// Token ids.
    pub ids: Vec<usize>,
    /// Per-token column id (column index + 1, or [`COL_NONE`]).
    pub cols: Vec<usize>,
    /// `(column index, range of that column's value tokens in `ids`)`.
    /// Attributes whose value was empty/NULL or truncated away are absent.
    pub value_spans: Vec<(usize, Range<usize>)>,
}

impl EncodedTuple {
    /// Length in tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no tokens were produced.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Replaces the value span at `span_idx` with a single `[M]` token
    /// (text infilling: one mask regardless of span length, §2.2), returning
    /// the corrupted encoding and the original value token ids (the
    /// reconstruction target, **without** the `[EOS]` the trainer appends).
    pub fn mask_value_span(&self, span_idx: usize) -> (EncodedTuple, Vec<usize>) {
        let (col, range) = self.value_spans[span_idx].clone();
        let target: Vec<usize> = self.ids[range.clone()].to_vec();
        let mut ids = Vec::with_capacity(self.ids.len() - range.len() + 1);
        let mut cols = Vec::with_capacity(ids.capacity());
        ids.extend_from_slice(&self.ids[..range.start]);
        cols.extend_from_slice(&self.cols[..range.start]);
        ids.push(MASK);
        cols.push(col + 1);
        ids.extend_from_slice(&self.ids[range.end..]);
        cols.extend_from_slice(&self.cols[range.end..]);

        let shift = range.len() as isize - 1;
        let mut value_spans = Vec::with_capacity(self.value_spans.len());
        for (i, (c, r)) in self.value_spans.iter().enumerate() {
            if i == span_idx {
                value_spans.push((*c, range.start..range.start + 1));
            } else if r.start >= range.end {
                value_spans.push((
                    *c,
                    (r.start as isize - shift) as usize..(r.end as isize - shift) as usize,
                ));
            } else {
                value_spans.push((*c, r.clone()));
            }
        }
        (
            EncodedTuple {
                ids,
                cols,
                value_spans,
            },
            target,
        )
    }

    /// Replaces single tokens (BERT-style token masking, §2.2): every
    /// position in `positions` (which must lie inside value spans — the
    /// paper never masks attribute names) becomes `[M]`. Returns the
    /// corrupted encoding and the original ids at those positions.
    pub fn mask_tokens(&self, positions: &[usize]) -> (EncodedTuple, Vec<usize>) {
        let mut out = self.clone();
        let mut targets = Vec::with_capacity(positions.len());
        for &p in positions {
            targets.push(out.ids[p]);
            out.ids[p] = MASK;
        }
        (out, targets)
    }

    /// All positions inside value spans (the maskable positions).
    pub fn value_positions(&self) -> Vec<usize> {
        let mut v = Vec::new();
        for (_, r) in &self.value_spans {
            v.extend(r.clone());
        }
        v
    }
}

/// A serialized tuple pair for the RPT-E matcher:
/// `[CLS] serialize(a) [SEP] serialize(b)`.
#[derive(Debug, Clone)]
pub struct EncodedPair {
    /// Token ids.
    pub ids: Vec<usize>,
    /// Per-token column ids.
    pub cols: Vec<usize>,
    /// Per-token segment ids: 0 for `[CLS]` and tuple `a`, 1 from the
    /// `[SEP]` on (tuple `b`).
    pub segs: Vec<usize>,
    /// Per-token cross-side overlap flags: `1` if this (non-special) token
    /// also occurs verbatim on the other side of the pair, `2` if it is a
    /// numeric token within 15% of some numeric token on the other side,
    /// `0` otherwise. This stands in for the token-identity knowledge a
    /// web-scale pretrained encoder brings to matching (cf. Ditto's use of
    /// BERT): a from-scratch model at this scale cannot learn a general
    /// equality circuit from a few hundred labeled pairs, so equality is
    /// surfaced as an input feature.
    pub flags: Vec<usize>,
}

impl EncodedPair {
    /// Length in tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Serializes tuples against a [`Vocab`].
#[derive(Debug, Clone)]
pub struct TupleEncoder {
    vocab: Vocab,
    opts: EncoderOptions,
}

impl TupleEncoder {
    /// Builds an encoder.
    pub fn new(vocab: Vocab, opts: EncoderOptions) -> Self {
        Self { vocab, opts }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The options in effect.
    pub fn options(&self) -> &EncoderOptions {
        &self.opts
    }

    /// Serializes one tuple: for each non-null attribute,
    /// `[A] name-tokens [V] value-tokens` (markers subject to options).
    pub fn encode_tuple(&self, schema: &Schema, tuple: &Tuple) -> EncodedTuple {
        let mut ids = Vec::new();
        let mut cols = Vec::new();
        let mut value_spans = Vec::new();
        for c in 0..schema.arity() {
            let col_id = if self.opts.column_ids {
                c + 1
            } else {
                COL_NONE
            };
            let value = tuple.get(c);
            if value.is_null() {
                continue;
            }
            if self.opts.markers {
                ids.push(ATTR);
                cols.push(col_id);
            }
            for tok in self.vocab.encode_text(schema.name(c)) {
                ids.push(tok);
                cols.push(col_id);
            }
            if self.opts.markers {
                ids.push(VAL);
                cols.push(col_id);
            }
            let start = ids.len();
            for tok in self.vocab.encode_text(&value.render()) {
                ids.push(tok);
                cols.push(col_id);
            }
            if ids.len() > start {
                value_spans.push((c, start..ids.len()));
            }
        }
        // Truncate, dropping spans that no longer fit entirely.
        if ids.len() > self.opts.max_len {
            ids.truncate(self.opts.max_len);
            cols.truncate(self.opts.max_len);
            value_spans.retain(|(_, r)| r.end <= self.opts.max_len);
        }
        EncodedTuple {
            ids,
            cols,
            value_spans,
        }
    }

    /// Serializes a pair for matching: `[CLS] a [SEP] b`, each side
    /// truncated to an equal share of `max_len`.
    pub fn encode_pair(
        &self,
        schema_a: &Schema,
        a: &Tuple,
        schema_b: &Schema,
        b: &Tuple,
    ) -> EncodedPair {
        let budget = (self.opts.max_len.saturating_sub(2)) / 2;
        let ea = self.encode_tuple(schema_a, a);
        let eb = self.encode_tuple(schema_b, b);
        let na = ea.ids.len().min(budget);
        let nb = eb.ids.len().min(budget);

        let mut ids = Vec::with_capacity(na + nb + 2);
        let mut cols = Vec::with_capacity(na + nb + 2);
        let mut segs = Vec::with_capacity(na + nb + 2);
        ids.push(CLS);
        cols.push(COL_NONE);
        segs.push(0);
        ids.extend_from_slice(&ea.ids[..na]);
        cols.extend_from_slice(&ea.cols[..na]);
        segs.extend(std::iter::repeat_n(0, na));
        ids.push(SEP);
        cols.push(COL_NONE);
        segs.push(1);
        ids.extend_from_slice(&eb.ids[..nb]);
        cols.extend_from_slice(&eb.cols[..nb]);
        segs.extend(std::iter::repeat_n(1, nb));

        // cross-side token-overlap flags (specials never count)
        use std::collections::HashSet;
        let set_a: HashSet<usize> = ea.ids[..na]
            .iter()
            .copied()
            .filter(|&t| t >= crate::NUM_SPECIAL)
            .collect();
        let set_b: HashSet<usize> = eb.ids[..nb]
            .iter()
            .copied()
            .filter(|&t| t >= crate::NUM_SPECIAL)
            .collect();
        let numbers = |side: &[usize]| -> Vec<f64> {
            side.iter()
                .filter(|&&t| t >= crate::NUM_SPECIAL)
                .filter_map(|&t| self.vocab.token_of(t).parse::<f64>().ok())
                .collect()
        };
        let nums_a = numbers(&ea.ids[..na]);
        let nums_b = numbers(&eb.ids[..nb]);
        let numeric_close = |tok: usize, other: &[f64]| -> bool {
            let Ok(v) = self.vocab.token_of(tok).parse::<f64>() else {
                return false;
            };
            other.iter().any(|&o| {
                let denom = v.abs().max(o.abs());
                denom > 0.0 && (v - o).abs() / denom <= 0.15
            })
        };
        let flags: Vec<usize> = ids
            .iter()
            .zip(segs.iter())
            .map(|(&tok, &seg)| {
                if tok < crate::NUM_SPECIAL {
                    return 0;
                }
                let (set_other, nums_other) = if seg == 0 {
                    (&set_b, &nums_b)
                } else {
                    (&set_a, &nums_a)
                };
                if set_other.contains(&tok) {
                    1
                } else if numeric_close(tok, nums_other) {
                    2
                } else {
                    0
                }
            })
            .collect();
        EncodedPair {
            ids,
            cols,
            segs,
            flags,
        }
    }

    /// Builds the decoder target for a masked span: value ids + `[EOS]`.
    pub fn target_with_eos(target: &[usize]) -> Vec<usize> {
        let mut t = target.to_vec();
        t.push(EOS);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabBuilder;
    use crate::{BOS, NUM_SPECIAL, PAD, UNK};
    use rpt_table::Value;

    fn setup() -> (TupleEncoder, Schema, Tuple) {
        let mut b = VocabBuilder::new();
        b.add_text("name expertise city michael jordan machine learning berkeley");
        let vocab = b.build(1, 100);
        let enc = TupleEncoder::new(vocab, EncoderOptions::default());
        let schema = Schema::text_columns(&["name", "expertise", "city"]);
        let tuple = Tuple::new(vec![
            Value::text("Michael Jordan"),
            Value::text("Machine Learning"),
            Value::text("Berkeley"),
        ]);
        (enc, schema, tuple)
    }

    #[test]
    fn encode_matches_paper_layout() {
        let (enc, schema, tuple) = setup();
        let e = enc.encode_tuple(&schema, &tuple);
        let v = enc.vocab();
        // [A] name [V] michael jordan [A] expertise [V] machine learning [A] city [V] berkeley
        let expect = vec![
            ATTR,
            v.id_of("name"),
            VAL,
            v.id_of("michael"),
            v.id_of("jordan"),
            ATTR,
            v.id_of("expertise"),
            VAL,
            v.id_of("machine"),
            v.id_of("learning"),
            ATTR,
            v.id_of("city"),
            VAL,
            v.id_of("berkeley"),
        ];
        assert_eq!(e.ids, expect);
        // column ids: first attr = 1 for its 5 tokens, etc.
        assert_eq!(e.cols[..5], [1, 1, 1, 1, 1]);
        assert_eq!(e.cols[5..10], [2, 2, 2, 2, 2]);
        assert_eq!(e.cols[10..], [3, 3, 3, 3]);
        assert_eq!(e.value_spans.len(), 3);
        assert_eq!(e.value_spans[1], (1, 8..10));
    }

    #[test]
    fn null_attributes_are_skipped() {
        let (enc, schema, mut tuple) = setup();
        tuple.replace(1, Value::Null);
        let e = enc.encode_tuple(&schema, &tuple);
        assert_eq!(e.value_spans.len(), 2);
        assert!(e.value_spans.iter().all(|(c, _)| *c != 1));
    }

    #[test]
    fn mask_value_span_infills_single_mask() {
        let (enc, schema, tuple) = setup();
        let e = enc.encode_tuple(&schema, &tuple);
        let (masked, target) = e.mask_value_span(1); // "machine learning"
        let v = enc.vocab();
        assert_eq!(target, vec![v.id_of("machine"), v.id_of("learning")]);
        // two value tokens became one [M]
        assert_eq!(masked.ids.len(), e.ids.len() - 1);
        assert_eq!(masked.ids[8], MASK);
        assert_eq!(masked.cols[8], 2);
        // later spans shifted left by 1
        assert_eq!(masked.value_spans[2].1, 12..13);
        // earlier spans untouched
        assert_eq!(masked.value_spans[0].1, e.value_spans[0].1);
    }

    #[test]
    fn mask_tokens_replaces_in_place() {
        let (enc, schema, tuple) = setup();
        let e = enc.encode_tuple(&schema, &tuple);
        let positions = e.value_positions();
        let (masked, targets) = e.mask_tokens(&positions[..2]);
        assert_eq!(masked.ids.len(), e.ids.len());
        assert_eq!(masked.ids[positions[0]], MASK);
        assert_eq!(targets[0], e.ids[positions[0]]);
    }

    #[test]
    fn truncation_drops_overflow_spans() {
        let (_, schema, tuple) = setup();
        let mut b = VocabBuilder::new();
        b.add_text("name expertise city michael jordan machine learning berkeley");
        let vocab = b.build(1, 100);
        let enc = TupleEncoder::new(
            vocab,
            EncoderOptions {
                max_len: 7,
                ..Default::default()
            },
        );
        let e = enc.encode_tuple(&schema, &tuple);
        assert_eq!(e.ids.len(), 7);
        assert_eq!(e.value_spans.len(), 1, "only the first value fits fully");
    }

    #[test]
    fn ablation_options_strip_markers_and_columns() {
        let (_, schema, tuple) = setup();
        let mut b = VocabBuilder::new();
        b.add_text("name expertise city michael jordan machine learning berkeley");
        let vocab = b.build(1, 100);
        let enc = TupleEncoder::new(
            vocab,
            EncoderOptions {
                markers: false,
                column_ids: false,
                ..Default::default()
            },
        );
        let e = enc.encode_tuple(&schema, &tuple);
        assert!(!e.ids.contains(&ATTR));
        assert!(!e.ids.contains(&VAL));
        assert!(e.cols.iter().all(|&c| c == COL_NONE));
        assert_eq!(e.value_spans.len(), 3);
    }

    #[test]
    fn encode_pair_layout_and_segments() {
        let (enc, schema, tuple) = setup();
        let p = enc.encode_pair(&schema, &tuple, &schema, &tuple);
        assert_eq!(p.ids[0], CLS);
        let sep_pos = p.ids.iter().position(|&t| t == SEP).unwrap();
        assert!(p.segs[..sep_pos].iter().all(|&s| s == 0));
        assert!(p.segs[sep_pos..].iter().all(|&s| s == 1));
        assert_eq!(p.ids.len(), p.cols.len());
        assert_eq!(p.ids.len(), p.segs.len());
        assert!(p.len() <= enc.options().max_len);
    }

    #[test]
    fn pair_overlap_flags_mark_shared_and_numeric_close_tokens() {
        let mut b = VocabBuilder::new();
        b.add_text("title price iphone galaxy 699.99 712.99 64");
        let vocab = b.build(1, 100);
        let enc = TupleEncoder::new(vocab, EncoderOptions::default());
        let schema = Schema::text_columns(&["title", "price"]);
        let a = Tuple::new(vec![Value::text("iphone 64"), Value::parse("699.99")]);
        let b = Tuple::new(vec![Value::text("iphone"), Value::parse("712.99")]);
        let p = enc.encode_pair(&schema, &a, &schema, &b);
        let v = enc.vocab();
        // every "iphone" token (both sides) is flagged 1
        for (i, &tok) in p.ids.iter().enumerate() {
            if tok == v.id_of("iphone") {
                assert_eq!(p.flags[i], 1, "shared token must flag 1");
            }
            if tok == v.id_of("699.99") || tok == v.id_of("712.99") {
                assert_eq!(p.flags[i], 2, "numeric-close price must flag 2");
            }
            if tok == v.id_of("64") {
                assert_eq!(p.flags[i], 0, "64 only exists on one side");
            }
            if tok < NUM_SPECIAL {
                assert_eq!(p.flags[i], 0, "specials never flagged");
            }
        }
    }

    #[test]
    fn pair_overlap_flags_ignore_far_numbers() {
        let mut b = VocabBuilder::new();
        b.add_text("price 100 900");
        let vocab = b.build(1, 100);
        let enc = TupleEncoder::new(vocab, EncoderOptions::default());
        let schema = Schema::text_columns(&["price"]);
        let a = Tuple::new(vec![Value::parse("100")]);
        let b = Tuple::new(vec![Value::parse("900")]);
        let p = enc.encode_pair(&schema, &a, &schema, &b);
        let v = enc.vocab();
        for (i, &tok) in p.ids.iter().enumerate() {
            if tok == v.id_of("100") || tok == v.id_of("900") {
                assert_eq!(p.flags[i], 0, "100 vs 900 are not close");
            }
        }
    }

    #[test]
    fn oov_tokens_become_unk() {
        let (enc, schema, _) = setup();
        let tuple = Tuple::new(vec![Value::text("zzzunknown"), Value::Null, Value::Null]);
        let e = enc.encode_tuple(&schema, &tuple);
        assert!(e.ids.contains(&UNK));
    }

    #[test]
    fn special_constants_are_distinct_and_below_num_special() {
        let all = [PAD, BOS, EOS, MASK, ATTR, VAL, CLS, SEP, UNK];
        for (i, &a) in all.iter().enumerate() {
            assert!(a < NUM_SPECIAL);
            for &b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn target_with_eos_appends() {
        assert_eq!(TupleEncoder::target_with_eos(&[10, 11]), vec![10, 11, EOS]);
    }
}
