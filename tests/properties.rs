//! Property-based tests over the cross-crate invariants.
//!
//! Formerly proptest; now deterministic seeded-loop generators on
//! `rpt_rng` so the suite runs fully offline. Each property draws a few
//! hundred random cases from a fixed seed — failures reproduce exactly.

use rpt::core::er::transitive_closure;
use rpt::core::train::{TrainOpts, Trainer};
use rpt::nn::metrics::{numeric_closeness, token_f1, BinaryConfusion};
use rpt::table::{csv, Schema, Table, Value};
use rpt::tensor::serialize::{encode, Checkpoint};
use rpt::tensor::{AdamState, ParamStore, Tensor, TrainState};
use rpt::tokenizer::{
    normalize, EncoderOptions, TupleEncoder, Vocab, VocabBuilder, ATTR, MASK, NUM_SPECIAL, VAL,
};
use rpt_rng::{Rng, SeedableRng, SliceRandom, SmallRng};

/// Cases per property (proptest used 64 for the table-shaped ones).
const CASES: usize = 64;

fn arb_string(rng: &mut SmallRng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| *alphabet.choose(rng).unwrap()).collect()
}

fn arb_value(rng: &mut SmallRng) -> Value {
    const ALPHABET: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', '0', '1', '5', '9', ' ', '.'];
    match rng.gen_range(0..4u32) {
        0 => Value::Null,
        1 => Value::parse(&arb_string(rng, ALPHABET, 12)),
        2 => Value::Int(rng.gen_range(i32::MIN..=i32::MAX) as i64),
        _ => Value::Float(rng.gen_range(-1.0e6..1.0e6)),
    }
}

fn arb_table(rng: &mut SmallRng) -> Table {
    let arity = rng.gen_range(1..5usize);
    let names: Vec<String> = (0..arity).map(|i| format!("col{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut t = Table::new("prop", Schema::text_columns(&refs));
    let rows = rng.gen_range(0..12usize);
    for _ in 0..rows {
        t.push_values((0..arity).map(|_| arb_value(rng)).collect());
    }
    t
}

fn vocab_for(table: &Table) -> Vocab {
    let mut b = VocabBuilder::new();
    for name in table.schema().names() {
        b.add_text(name);
    }
    for tuple in table.tuples() {
        for v in tuple.values() {
            b.add_text(&v.render());
        }
    }
    b.build(1, 10_000)
}

/// CSV write → read preserves every value (up to the `Value::parse`
/// canonicalization already applied when the table was built).
#[test]
fn csv_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC5F0);
    for case in 0..CASES {
        let table = arb_table(&mut rng);
        let text = csv::write_table(&table);
        let back = csv::read_table("back", &text).unwrap();
        assert_eq!(back.len(), table.len(), "case {case}");
        for (a, b) in table.tuples().iter().zip(back.tuples().iter()) {
            for (va, vb) in a.values().iter().zip(b.values().iter()) {
                // rendering is the canonical comparison: Null -> "" -> Null,
                // numerics reparse to the same rendering
                assert_eq!(va.render(), vb.render(), "case {case}");
            }
        }
    }
}

/// Serialization invariants: ids/cols stay aligned; every value span
/// indexes real positions; masking a span shortens the sequence by
/// span_len - 1 and the target matches the original tokens.
#[test]
fn tuple_encoding_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x70C3);
    for case in 0..CASES {
        let table = arb_table(&mut rng);
        let vocab = vocab_for(&table);
        let enc = TupleEncoder::new(vocab, EncoderOptions::default());
        for tuple in table.tuples() {
            let e = enc.encode_tuple(table.schema(), tuple);
            assert_eq!(e.ids.len(), e.cols.len(), "case {case}");
            for (col, range) in &e.value_spans {
                assert!(range.end <= e.ids.len(), "case {case}");
                assert!(range.start < range.end, "case {case}");
                for p in range.clone() {
                    assert_eq!(e.cols[p], col + 1, "case {case}");
                }
            }
            if !e.value_spans.is_empty() {
                let (masked, target) = e.mask_value_span(0);
                let span_len = e.value_spans[0].1.len();
                assert_eq!(masked.ids.len(), e.ids.len() - span_len + 1, "case {case}");
                assert_eq!(target.len(), span_len, "case {case}");
                assert_eq!(
                    &e.ids[e.value_spans[0].1.clone()],
                    target.as_slice(),
                    "case {case}"
                );
            }
        }
    }
}

/// Encode → decode round-trip: with a vocabulary covering the corpus and
/// no truncation, decoding a serialized tuple recovers exactly the
/// normalized text of every non-null `name value` pair, in schema order —
/// and each value span decodes back to its own value.
#[test]
fn tuple_encode_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x20D3);
    for case in 0..CASES {
        let table = arb_table(&mut rng);
        let vocab = vocab_for(&table);
        let enc = TupleEncoder::new(
            vocab.clone(),
            EncoderOptions {
                max_len: 4096, // no truncation: every token survives
                ..Default::default()
            },
        );
        for tuple in table.tuples() {
            let e = enc.encode_tuple(table.schema(), tuple);
            let mut expected: Vec<String> = Vec::new();
            for c in 0..table.schema().arity() {
                let v = tuple.get(c);
                if v.is_null() {
                    continue;
                }
                expected.extend(normalize(table.schema().name(c)));
                expected.extend(normalize(&v.render()));
            }
            assert_eq!(
                vocab.decode(&e.ids),
                expected.join(" "),
                "case {case}: full-tuple decode diverged"
            );
            for (c, range) in &e.value_spans {
                assert_eq!(
                    vocab.decode(&e.ids[range.clone()]),
                    normalize(&tuple.get(*c).render()).join(" "),
                    "case {case}: span decode diverged for column {c}"
                );
            }
        }
    }
}

/// `[A]`/`[V]` serialization invariants (paper Fig. 4 layout): one marker
/// pair per serialized attribute, every value span sits directly after its
/// `[V]`, column ids are uniform inside a block, and masking keeps the
/// markers intact.
#[test]
fn attr_value_marker_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xA7A7);
    for case in 0..CASES {
        let table = arb_table(&mut rng);
        let vocab = vocab_for(&table);
        let enc = TupleEncoder::new(
            vocab.clone(),
            EncoderOptions {
                max_len: 4096,
                ..Default::default()
            },
        );
        for tuple in table.tuples() {
            let e = enc.encode_tuple(table.schema(), tuple);
            let non_null = (0..table.schema().arity())
                .filter(|&c| !tuple.get(c).is_null())
                .count();
            let attrs = e.ids.iter().filter(|&&t| t == ATTR).count();
            let vals = e.ids.iter().filter(|&&t| t == VAL).count();
            assert_eq!(attrs, non_null, "case {case}: one [A] per attribute");
            assert_eq!(vals, non_null, "case {case}: one [V] per attribute");
            // serialization starts with [A] whenever anything was emitted
            if !e.ids.is_empty() {
                assert_eq!(e.ids[0], ATTR, "case {case}");
            }
            for (c, range) in &e.value_spans {
                assert!(range.start > 0, "case {case}");
                assert_eq!(
                    e.ids[range.start - 1],
                    VAL,
                    "case {case}: span must follow its [V] marker"
                );
                // value tokens are real vocabulary, never specials
                assert!(
                    e.ids[range.clone()].iter().all(|&t| t >= NUM_SPECIAL),
                    "case {case}"
                );
                // marker carries the same column id as its value
                assert_eq!(e.cols[range.start - 1], c + 1, "case {case}");
            }
            // masking a span preserves the marker structure
            for span_idx in 0..e.value_spans.len() {
                let (masked, target) = e.mask_value_span(span_idx);
                assert_eq!(
                    masked.ids.iter().filter(|&&t| t == ATTR).count(),
                    attrs,
                    "case {case}: masking must not eat [A] markers"
                );
                assert_eq!(
                    masked.ids.iter().filter(|&&t| t == VAL).count(),
                    vals,
                    "case {case}: masking must not eat [V] markers"
                );
                assert_eq!(
                    masked.ids.iter().filter(|&&t| t == MASK).count(),
                    1,
                    "case {case}: infilling inserts exactly one [M]"
                );
                // decoding the target recovers the masked value's text
                let (c, _) = e.value_spans[span_idx];
                assert_eq!(
                    vocab.decode(&target),
                    normalize(&tuple.get(c).render()).join(" "),
                    "case {case}"
                );
            }
        }
    }
}

/// normalize is idempotent: normalizing the joined output changes
/// nothing.
#[test]
fn normalize_idempotent() {
    // printable-ish alphabet: letters, digits, punctuation, unicode
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', '3', '7', '.', ',', '-', '$', '(', ')', '!', ' ', '\t', 'é', 'ß', '中',
        '😀', '"', '\'', '/', ':', '+', '_', '[', ']', '%',
    ];
    let mut rng = SmallRng::seed_from_u64(0x1DE1);
    for case in 0..256 {
        let s = arb_string(&mut rng, ALPHABET, 40);
        let once = normalize(&s);
        let twice = normalize(&once.join(" "));
        assert_eq!(once, twice, "case {case}: {s:?}");
    }
}

/// Union-find invariants: edges connect, assignment partitions.
#[test]
fn transitive_closure_partitions() {
    let mut rng = SmallRng::seed_from_u64(0xC105);
    for case in 0..256 {
        let n = rng.gen_range(1..40usize);
        let n_edges = rng.gen_range(0..60usize);
        let edges: Vec<(usize, usize)> = (0..n_edges)
            .map(|_| (rng.gen_range(0..40usize) % n, rng.gen_range(0..40usize) % n))
            .collect();
        let c = transitive_closure(n, &edges);
        assert_eq!(c.assignment.len(), n, "case {case}");
        let total: usize = c.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, n, "case {case}");
        for &(a, b) in &edges {
            assert_eq!(c.assignment[a], c.assignment[b], "case {case}");
        }
        for (node, &cid) in c.assignment.iter().enumerate() {
            assert!(c.members[cid].contains(&node), "case {case}");
        }
    }
}

/// token_f1 is symmetric, bounded, and 1 exactly on multiset equality.
#[test]
fn token_f1_properties() {
    let mut rng = SmallRng::seed_from_u64(0xF1F1);
    for case in 0..512 {
        let a: Vec<usize> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..6usize))
            .collect();
        let b: Vec<usize> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..6usize))
            .collect();
        let f_ab = token_f1(&a, &b);
        let f_ba = token_f1(&b, &a);
        assert!((f_ab - f_ba).abs() < 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&f_ab), "case {case}");
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        if sa == sb {
            assert!((f_ab - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

/// numeric_closeness is symmetric and bounded.
#[test]
fn numeric_closeness_properties() {
    let mut rng = SmallRng::seed_from_u64(0xCCCC);
    for case in 0..512 {
        let a = rng.gen_range(-1e6..1e6f64);
        let b = rng.gen_range(-1e6..1e6f64);
        let c = numeric_closeness(a, b);
        assert!((0.0..=1.0).contains(&c), "case {case}");
        assert!((c - numeric_closeness(b, a)).abs() < 1e-9, "case {case}");
        assert!((numeric_closeness(a, a) - 1.0).abs() < 1e-12, "case {case}");
    }
}

/// Full train-state checkpoints round-trip bit-exactly: random params,
/// Adam moments, full-range RNG words (including values above
/// `i64::MAX`), and loss curves all survive an encode → decode cycle with
/// every bit intact.
#[test]
fn train_state_roundtrip_is_bit_exact() {
    let mut rng = SmallRng::seed_from_u64(0x57A7E);
    for case in 0..CASES {
        let n_params = rng.gen_range(1..4usize);
        let mut store = ParamStore::new();
        let mut state = TrainState::default();
        let mut moments = Vec::new();
        for p in 0..n_params {
            let len = rng.gen_range(1..6usize);
            let tensor = |rng: &mut SmallRng| {
                let data: Vec<f32> = (0..len)
                    .map(|_| f32::from_bits(rng.gen::<u32>()))
                    .map(|x| if x.is_finite() { x } else { 0.125 })
                    .collect();
                Tensor::from_vec(data, &[len]).unwrap()
            };
            let name = format!("p{p}");
            store.register(&name, tensor(&mut rng));
            moments.push((name, tensor(&mut rng), tensor(&mut rng)));
        }
        state.steps_done = rng.gen_range(0..50u64);
        state.adam = Some(AdamState {
            t: state.steps_done,
            moments,
        });
        state.losses = (0..state.steps_done)
            .map(|_| rng.gen_range(0.0..20.0f64) as f32)
            .collect();
        for s in 0..rng.gen_range(0..3usize) {
            let mut words = [0u64; 4];
            while words.iter().all(|&w| w == 0) {
                words = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            }
            state.rng_streams.push((format!("s{s}"), words));
        }

        let doc = encode(&store, Some(&state), None);
        let mut store2 = ParamStore::new();
        for (name, t) in store.iter() {
            store2.register(name, Tensor::zeros(t.shape()));
        }
        let back = Checkpoint::decode(&doc)
            .and_then(|c| c.load_train(&mut store2))
            .unwrap();

        for ((_, a), (_, b)) in store.iter().zip(store2.iter()) {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "case {case}: param values drifted");
        }
        let adam = back.adam.as_ref().unwrap();
        let orig = state.adam.as_ref().unwrap();
        assert_eq!(adam.t, orig.t, "case {case}");
        assert_eq!(adam.moments.len(), orig.moments.len(), "case {case}");
        for ((na, ma, va), (nb, mb, vb)) in orig.moments.iter().zip(&adam.moments) {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(na, nb, "case {case}");
            assert_eq!(bits(ma), bits(mb), "case {case}: adam m drifted");
            assert_eq!(bits(va), bits(vb), "case {case}: adam v drifted");
        }
        assert_eq!(back.rng_streams, state.rng_streams, "case {case}");
        assert_eq!(back.steps_done, state.steps_done, "case {case}");
        assert_eq!(
            back.losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            state.losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "case {case}: loss curve drifted"
        );
    }
}

/// Params-only checkpoints stay loadable as training state: they
/// yield a default `TrainState`, and restoring that into a `Trainer`
/// leaves Adam freshly reinitialized — no moments, step counter zero.
#[test]
fn params_only_checkpoint_resumes_with_fresh_optimizer() {
    let mut rng = SmallRng::seed_from_u64(0xF0F0);
    for case in 0..16 {
        let len = rng.gen_range(1..5usize);
        let mut store = ParamStore::new();
        let data: Vec<f32> = (0..len)
            .map(|_| rng.gen_range(-2.0..2.0f64) as f32)
            .collect();
        store.register("w", Tensor::from_vec(data.clone(), &[len]).unwrap());
        let params_only = encode(&store, None, None); // no train section

        let mut store2 = ParamStore::new();
        store2.register("w", Tensor::zeros(&[len]));
        let state = Checkpoint::decode(&params_only)
            .and_then(|c| c.load_train(&mut store2))
            .unwrap();
        assert!(state.adam.is_none(), "case {case}");
        assert!(state.rng_streams.is_empty(), "case {case}");
        assert_eq!(state.steps_done, 0, "case {case}");
        assert!(state.losses.is_empty(), "case {case}");

        let mut trainer = Trainer::new(TrainOpts::default(), 16);
        trainer.restore_state(&store2, &state).unwrap();
        let resumed = trainer.train_state(&store2, Vec::new());
        let adam = resumed.adam.as_ref().unwrap();
        assert_eq!(adam.t, 0, "case {case}: fresh optimizer must start at t=0");
        assert!(
            adam.moments.is_empty(),
            "case {case}: moments must reinitialize lazily, not from stale state"
        );
        assert!(trainer.losses().is_empty(), "case {case}");
    }
}

/// Confusion counts always reconcile with precision/recall bounds.
#[test]
fn confusion_bounds() {
    let mut rng = SmallRng::seed_from_u64(0xB07D);
    for case in 0..512 {
        let pairs: Vec<(bool, bool)> = (0..rng.gen_range(0..50usize))
            .map(|_| (rng.gen(), rng.gen()))
            .collect();
        let c = BinaryConfusion::from_pairs(pairs.iter().copied());
        assert_eq!(c.tp + c.fp + c.fn_ + c.tn, pairs.len(), "case {case}");
        assert!((0.0..=1.0).contains(&c.precision()), "case {case}");
        assert!((0.0..=1.0).contains(&c.recall()), "case {case}");
        assert!((0.0..=1.0).contains(&c.f1()), "case {case}");
    }
}

/// Corpus manifests round-trip exactly: shard files, tuple counts, the
/// hex-encoded vocab hash, and the format version all survive the JSON
/// cycle for arbitrary shard layouts.
#[test]
fn corpus_manifest_roundtrip_preserves_every_field() {
    use rpt::core::corpus::{Manifest, ShardEntry, CORPUS_FORMAT_VERSION};
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for case in 0..CASES {
        let n = rng.gen_range(1..9usize);
        let shards: Vec<ShardEntry> = (0..n)
            .map(|i| ShardEntry {
                file: format!("shard-{i:05}.bin"),
                tuples: rng.gen_range(0..1_000_000u64),
            })
            .collect();
        let m = Manifest {
            format_version: CORPUS_FORMAT_VERSION,
            vocab_hash: rng.gen(),
            shards,
        };
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m, "case {case}: manifest drifted through JSON");
    }
}

/// Shard splitting never loses, duplicates, or reorders a tuple — at any
/// shard size, including 1-tuple shards, oversize shards, and a ragged
/// final shard — and the split survives the disk round-trip intact.
#[test]
fn shard_boundaries_preserve_tuple_integrity_at_random_sizes() {
    use rpt::core::corpus::{self, DiskCorpus, EncodedExample, ShardSource};
    let mut b = VocabBuilder::new();
    b.add_text("shard property vocab");
    let vocab = b.build(1, 64);
    let mut rng = SmallRng::seed_from_u64(0x5A4D);
    for case in 0..24 {
        let n = rng.gen_range(1..30usize);
        let examples: Vec<EncodedExample> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..10usize);
                let spans = (0..rng.gen_range(0..3usize))
                    .map(|_| {
                        let s = rng.gen_range(0..len as u32);
                        let e = rng.gen_range(s..=len as u32);
                        (rng.gen_range(0..6u32), s, e)
                    })
                    .collect();
                EncodedExample {
                    ids: (0..len).map(|_| rng.gen_range(0..5000u32)).collect(),
                    cols: (0..len).map(|_| rng.gen_range(0..6u32)).collect(),
                    spans,
                }
            })
            .collect();
        // 1-tuple shards, an exact fit, an oversize single shard, and a
        // random (usually ragged) split, cycled across cases
        let shard_size = [1, n, n + 3, rng.gen_range(1..=n)][case % 4];
        let shards = corpus::split_shards(examples.clone(), shard_size);
        let flat: Vec<EncodedExample> = shards.iter().flatten().cloned().collect();
        assert_eq!(
            flat, examples,
            "case {case}: split lost or reordered tuples"
        );
        for (i, s) in shards.iter().enumerate() {
            assert!(!s.is_empty(), "case {case}: empty shard {i}");
            if i + 1 < shards.len() {
                assert_eq!(
                    s.len(),
                    shard_size,
                    "case {case}: interior shard {i} ragged"
                );
            } else {
                assert!(s.len() <= shard_size, "case {case}: final shard overflows");
            }
        }
        let dir = std::env::temp_dir().join(format!("rpt-prop-shards-{case}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        corpus::write_corpus(&dir, &shards, &vocab).unwrap();
        let mut disk = DiskCorpus::open(&dir).unwrap();
        let mut roundtrip = Vec::new();
        for i in 0..shards.len() {
            roundtrip.extend(disk.load_shard(i).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(roundtrip, examples, "case {case}: disk round-trip drifted");
    }
}

/// Train states carrying a corpus position (including a mid-window
/// accumulation state with pending gradients) round-trip bit-exactly —
/// and a params-only reader ignores the train section instead of
/// failing.
#[test]
fn v2_corpus_position_roundtrips_and_old_readers_ignore_it() {
    use rpt::tensor::serialize::{apply_params, AccumState, CorpusPos, PendingGrad};
    let mut rng = SmallRng::seed_from_u64(0xC0425);
    for case in 0..24 {
        let len = rng.gen_range(1..5usize);
        let tensor = |rng: &mut SmallRng| {
            let data: Vec<f32> = (0..len)
                .map(|_| f32::from_bits(rng.gen::<u32>()))
                .map(|x| if x.is_finite() { x } else { 0.25 })
                .collect();
            Tensor::from_vec(data, &[len]).unwrap()
        };
        let mut store = ParamStore::new();
        store.register("w", tensor(&mut rng));
        let accum = if case % 3 == 0 {
            None
        } else {
            let n_pending = rng.gen_range(1..4usize);
            Some(AccumState {
                micro_done: rng.gen_range(0..4u64),
                window_seed: rng.gen(),
                pending: (0..n_pending)
                    .map(|_| PendingGrad {
                        loss: rng.gen_range(0.0..20.0f64) as f32,
                        weight: rng.gen_range(0.1..4.0f64) as f32,
                        grads: vec![("w".to_string(), tensor(&mut rng))],
                    })
                    .collect(),
            })
        };
        let mut state = TrainState::default();
        state.steps_done = rng.gen_range(0..50u64);
        state.losses = (0..state.steps_done)
            .map(|_| rng.gen_range(0.0..20.0f64) as f32)
            .collect();
        state.corpus = Some(CorpusPos {
            epoch: rng.gen_range(0..10u64),
            shard: rng.gen_range(0..100u64),
            offset: rng.gen_range(0..10_000u64),
            accum,
        });

        let doc = encode(&store, Some(&state), None);
        let mut store2 = ParamStore::new();
        store2.register("w", Tensor::zeros(&[len]));
        let back = Checkpoint::decode(&doc)
            .and_then(|c| c.load_train(&mut store2))
            .unwrap();
        let orig = state.corpus.as_ref().unwrap();
        let got = back.corpus.as_ref().expect("corpus position dropped");
        assert_eq!(got.epoch, orig.epoch, "case {case}");
        assert_eq!(got.shard, orig.shard, "case {case}");
        assert_eq!(got.offset, orig.offset, "case {case}");
        match (&orig.accum, &got.accum) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.micro_done, b.micro_done, "case {case}");
                assert_eq!(a.window_seed, b.window_seed, "case {case}");
                assert_eq!(a.pending.len(), b.pending.len(), "case {case}");
                for (pa, pb) in a.pending.iter().zip(&b.pending) {
                    assert_eq!(pa.loss.to_bits(), pb.loss.to_bits(), "case {case}");
                    assert_eq!(pa.weight.to_bits(), pb.weight.to_bits(), "case {case}");
                    for ((na, ga), (nb, gb)) in pa.grads.iter().zip(&pb.grads) {
                        assert_eq!(na, nb, "case {case}");
                        let bits =
                            |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(ga), bits(gb), "case {case}: pending grad drifted");
                    }
                }
            }
            _ => panic!("case {case}: accumulation state dropped or invented"),
        }

        // A params-only reader takes the params section; the train
        // section (and the corpus position inside it) is ignored, not
        // rejected.
        let mut store3 = ParamStore::new();
        store3.register("w", Tensor::zeros(&[len]));
        apply_params(&mut store3, Checkpoint::decode(&doc).unwrap().params).unwrap();
        for ((_, a), (_, b)) in store.iter().zip(store3.iter()) {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "case {case}: params-only reader drifted");
        }
    }
}
