//! Padding and attention-mask construction.

use rpt_tensor::Tensor;

use crate::NEG_INF;

/// One unpadded token sequence with optional per-token column and segment
/// ids (empty vectors mean "all zero").
#[derive(Debug, Clone, Default)]
pub struct Sequence {
    /// Token ids.
    pub ids: Vec<usize>,
    /// Column ids (same length as `ids`, or empty).
    pub cols: Vec<usize>,
    /// Segment ids (same length as `ids`, or empty).
    pub segs: Vec<usize>,
    /// Auxiliary per-token flags (same length as `ids`, or empty) — e.g.
    /// the cross-side token-overlap indicator the RPT-E matcher uses.
    pub flags: Vec<usize>,
}

impl Sequence {
    /// A sequence with ids only.
    pub fn from_ids(ids: Vec<usize>) -> Self {
        Self {
            ids,
            ..Default::default()
        }
    }
}

/// A right-padded batch of sequences in flat `b*t` layout.
#[derive(Debug, Clone)]
pub struct TokenBatch {
    /// Batch size.
    pub b: usize,
    /// Padded length.
    pub t: usize,
    /// Flat token ids (`pad_id` in padding positions).
    pub ids: Vec<usize>,
    /// Flat column ids (0 in padding).
    pub cols: Vec<usize>,
    /// Flat segment ids (0 in padding).
    pub segs: Vec<usize>,
    /// Flat auxiliary flags (0 in padding).
    pub flags: Vec<usize>,
    /// Flat validity: true for real tokens.
    pub valid: Vec<bool>,
}

impl TokenBatch {
    /// Pads `seqs` to the longest length (capped at `max_t`).
    ///
    /// # Panics
    /// If `seqs` is empty or a sequence's `cols`/`segs` length disagrees
    /// with its `ids`.
    pub fn from_sequences(seqs: &[Sequence], max_t: usize, pad_id: usize) -> TokenBatch {
        assert!(!seqs.is_empty(), "cannot batch zero sequences");
        let t = seqs
            .iter()
            .map(|s| s.ids.len().min(max_t))
            .max()
            .unwrap()
            .max(1);
        let b = seqs.len();
        let mut ids = vec![pad_id; b * t];
        let mut cols = vec![0usize; b * t];
        let mut segs = vec![0usize; b * t];
        let mut flags = vec![0usize; b * t];
        let mut valid = vec![false; b * t];
        for (bi, s) in seqs.iter().enumerate() {
            let n = s.ids.len().min(t);
            if !s.cols.is_empty() {
                assert_eq!(s.cols.len(), s.ids.len(), "cols length mismatch");
            }
            if !s.segs.is_empty() {
                assert_eq!(s.segs.len(), s.ids.len(), "segs length mismatch");
            }
            if !s.flags.is_empty() {
                assert_eq!(s.flags.len(), s.ids.len(), "flags length mismatch");
            }
            for i in 0..n {
                ids[bi * t + i] = s.ids[i];
                cols[bi * t + i] = *s.cols.get(i).unwrap_or(&0);
                segs[bi * t + i] = *s.segs.get(i).unwrap_or(&0);
                flags[bi * t + i] = *s.flags.get(i).unwrap_or(&0);
                valid[bi * t + i] = true;
            }
        }
        TokenBatch {
            b,
            t,
            ids,
            cols,
            segs,
            flags,
            valid,
        }
    }

    /// Number of real (non-padding) tokens.
    pub fn num_valid(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Builds the decoder-side batches for teacher forcing: `tgt_in` is
    /// `[bos, target…]` right-padded, and the returned flat `[b * t]` output
    /// targets are `[target…, eos]` with `pad_id` elsewhere (ignored by the
    /// loss). Shared by the denoising trainers in `rpt-core` and
    /// `rpt-baselines`.
    pub fn teacher_forcing(
        tgts: &[Vec<usize>],
        max_t: usize,
        pad_id: usize,
        bos_id: usize,
        eos_id: usize,
    ) -> (TokenBatch, Vec<usize>) {
        let tgt_in_seqs: Vec<Sequence> = tgts
            .iter()
            .map(|t| {
                let mut ids = Vec::with_capacity(t.len() + 1);
                ids.push(bos_id);
                ids.extend_from_slice(t);
                Sequence::from_ids(ids)
            })
            .collect();
        let tgt_in = TokenBatch::from_sequences(&tgt_in_seqs, max_t, pad_id);
        let mut tgt_out = vec![pad_id; tgt_in.b * tgt_in.t];
        for (bi, t) in tgts.iter().enumerate() {
            let n = t.len().min(tgt_in.t.saturating_sub(1));
            for (i, &tok) in t.iter().take(n).enumerate() {
                tgt_out[bi * tgt_in.t + i] = tok;
            }
            tgt_out[bi * tgt_in.t + n] = eos_id;
        }
        (tgt_in, tgt_out)
    }

    /// Length of row `bi` before padding.
    pub fn row_len(&self, bi: usize) -> usize {
        (0..self.t)
            .take_while(|&i| self.valid[bi * self.t + i])
            .count()
    }

    /// Additive self-attention mask `[b*h, t, t]`: `NEG_INF` where the key
    /// position is padding. Query rows for padded positions are left
    /// unmasked (their outputs are ignored by the loss).
    pub fn self_attn_mask(&self, n_heads: usize) -> Tensor {
        cross_attn_mask_from_valid(&self.valid, self.b, self.t, &self.valid, self.t, n_heads)
    }

    /// Additive causal + padding mask `[b*h, t, t]` for decoder
    /// self-attention: future positions and padded keys are `NEG_INF`.
    pub fn causal_attn_mask(&self, n_heads: usize) -> Tensor {
        let (b, t) = (self.b, self.t);
        let mut data = vec![0.0f32; b * n_heads * t * t];
        for bi in 0..b {
            for h in 0..n_heads {
                let base = (bi * n_heads + h) * t * t;
                for q in 0..t {
                    for k in 0..t {
                        if k > q || !self.valid[bi * t + k] {
                            data[base + q * t + k] = NEG_INF;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(data, &[b * n_heads, t, t]).expect("causal mask shape")
    }

    /// Additive cross-attention mask `[b*h, t_q, t_k]` where `self` is the
    /// *key* side (typically the encoder source) and `t_q` the decoder
    /// length.
    pub fn cross_attn_mask(&self, t_q: usize, n_heads: usize) -> Tensor {
        let valid_q = vec![true; self.b * t_q];
        cross_attn_mask_from_valid(&valid_q, self.b, t_q, &self.valid, self.t, n_heads)
    }

    /// Normalized mean-pooling weights `[b, t]`: `1/len` over valid
    /// positions, 0 elsewhere.
    pub fn mean_pool_weights(&self) -> Tensor {
        let mut data = vec![0.0f32; self.b * self.t];
        for bi in 0..self.b {
            let len = self.row_len(bi).max(1);
            for i in 0..self.t {
                if self.valid[bi * self.t + i] {
                    data[bi * self.t + i] = 1.0 / len as f32;
                }
            }
        }
        Tensor::from_vec(data, &[self.b, self.t]).expect("pool weights shape")
    }
}

fn cross_attn_mask_from_valid(
    _valid_q: &[bool],
    b: usize,
    t_q: usize,
    valid_k: &[bool],
    t_k: usize,
    n_heads: usize,
) -> Tensor {
    let mut data = vec![0.0f32; b * n_heads * t_q * t_k];
    for bi in 0..b {
        for h in 0..n_heads {
            let base = (bi * n_heads + h) * t_q * t_k;
            for q in 0..t_q {
                for k in 0..t_k {
                    if !valid_k[bi * t_k + k] {
                        data[base + q * t_k + k] = NEG_INF;
                    }
                }
            }
        }
    }
    Tensor::from_vec(data, &[b * n_heads, t_q, t_k]).expect("cross mask shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> TokenBatch {
        TokenBatch::from_sequences(
            &[
                Sequence::from_ids(vec![10, 11, 12]),
                Sequence::from_ids(vec![20]),
            ],
            8,
            0,
        )
    }

    #[test]
    fn padding_layout() {
        let b = batch();
        assert_eq!((b.b, b.t), (2, 3));
        assert_eq!(b.ids, vec![10, 11, 12, 20, 0, 0]);
        assert_eq!(b.valid, vec![true, true, true, true, false, false]);
        assert_eq!(b.row_len(0), 3);
        assert_eq!(b.row_len(1), 1);
        assert_eq!(b.num_valid(), 4);
    }

    #[test]
    fn max_t_truncates() {
        let b = TokenBatch::from_sequences(&[Sequence::from_ids(vec![1, 2, 3, 4, 5])], 3, 0);
        assert_eq!(b.t, 3);
        assert_eq!(b.ids, vec![1, 2, 3]);
    }

    #[test]
    fn self_mask_blocks_padded_keys() {
        let b = batch();
        let m = b.self_attn_mask(2);
        assert_eq!(m.shape(), &[4, 3, 3]);
        // batch row 1 (heads 2,3): keys 1 and 2 are padding
        let head2 = &m.data()[2 * 9..3 * 9];
        for q in 0..3 {
            assert_eq!(head2[q * 3], 0.0);
            assert_eq!(head2[q * 3 + 1], NEG_INF);
            assert_eq!(head2[q * 3 + 2], NEG_INF);
        }
        // batch row 0: fully unmasked
        assert!(m.data()[..9].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn causal_mask_is_lower_triangular() {
        let b = TokenBatch::from_sequences(&[Sequence::from_ids(vec![1, 2, 3])], 8, 0);
        let m = b.causal_attn_mask(1);
        let d = m.data();
        assert_eq!(d[1], NEG_INF, "q0 cannot see k1");
        assert_eq!(d[3], 0.0);
        assert_eq!(d[3 + 2], NEG_INF);
        assert_eq!(d[2 * 3 + 2], 0.0);
    }

    #[test]
    fn cross_mask_shapes_and_padding() {
        let b = batch();
        let m = b.cross_attn_mask(5, 2);
        assert_eq!(m.shape(), &[4, 5, 3]);
        // decoder queries of batch 1 must not attend to padded src keys
        let h2 = &m.data()[2 * 15..3 * 15];
        assert!(h2
            .chunks(3)
            .all(|row| row[1] == NEG_INF && row[2] == NEG_INF));
    }

    #[test]
    fn mean_pool_weights_normalize_per_row() {
        let b = batch();
        let w = b.mean_pool_weights();
        let d = w.data();
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "zero sequences")]
    fn empty_batch_panics() {
        TokenBatch::from_sequences(&[], 8, 0);
    }
}
