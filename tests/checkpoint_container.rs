//! The binary checkpoint container against legacy JSON and hostile bytes.
//!
//! * **Legacy fixtures.** `tests/fixtures/` holds a format_version-1
//!   params file, a format_version-2 train-state file (Adam moments, RNG
//!   streams, a corpus position with an open accumulation window) and a
//!   `quant-v1` file, all written by the last JSON-writing build from the
//!   values built below. Each must import to exactly the bits the
//!   container round trip of the same values gives.
//! * **Mutation suite.** A small checkpoint with all three sections is cut
//!   at every offset, has every bit flipped (raw, and with the checksum
//!   resealed so the structural checks behind it run too), and takes 2000
//!   seeded random mutations. Every outcome is a typed result: no panic,
//!   and — measured by a counting allocator — no single allocation larger
//!   than the input, beyond a fixed allowance for the error message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use rpt::rng::{Rng, SeedableRng, SmallRng};
use rpt::tensor::serialize::frame::fnv1a64;
use rpt::tensor::serialize::{
    encode, load_file, load_train_file, AccumState, Checkpoint, CorpusPos, PendingGrad,
};
use rpt::tensor::{
    AdamState, CheckpointError, ParamStore, QuantMatrix, Tensor, TrainState, MAX_DIMS,
};

// ---------------------------------------------------------------------------
// Largest-allocation probe
// ---------------------------------------------------------------------------

struct Probe;

thread_local! {
    /// Largest single allocation on this thread since the last reset;
    /// `None` when not measuring.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| {
        if let Some(peak) = p.get() {
            p.set(Some(peak.max(size)));
        }
    });
}

#[global_allocator]
static ALLOC: Probe = Probe;

/// Decodes `bytes`, returning the result and the largest single
/// allocation made while decoding.
fn decode_measured(bytes: &[u8]) -> (Result<Checkpoint, CheckpointError>, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let result = Checkpoint::decode(bytes);
    let peak = PEAK.with(|p| p.replace(None)).unwrap_or(0);
    (result, peak)
}

// ---------------------------------------------------------------------------
// The values the fixtures were written from
// ---------------------------------------------------------------------------

fn t(data: &[f32], shape: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), shape).unwrap()
}

fn params() -> ParamStore {
    let mut store = ParamStore::new();
    store.register(
        "enc.ff1.w",
        t(
            &[
                0.1,
                1.0 / 3.0,
                f32::MIN_POSITIVE / 8.0,
                -3.402_823_5e38,
                1.000_000_1,
                -2.5,
            ],
            &[2, 3],
        ),
    );
    store.register("enc.ff1.b", t(&[0.5, -0.25, 1e-7], &[3]));
    store.register(
        "s2s.tok.w",
        t(
            &[0.75, -1.5, 2.0, 0.125, -0.0625, 3.0, 1e-3, -7.0, 0.2],
            &[3, 3],
        ),
    );
    store
}

fn train_state() -> TrainState {
    TrainState {
        adam: Some(AdamState {
            t: 3,
            moments: vec![
                (
                    "enc.ff1.w".into(),
                    t(&[1e-3, -2e-3, 0.1, 1.0 / 7.0, 5.877_472e-39, 0.0], &[2, 3]),
                    t(&[1e-6, 4e-6, 0.01, 0.02, 1e-30, 0.0], &[2, 3]),
                ),
                (
                    "enc.ff1.b".into(),
                    t(&[0.3, -0.3, 0.0], &[3]),
                    t(&[0.09, 0.09, 0.0], &[3]),
                ),
            ],
        }),
        rng_streams: vec![
            ("model".into(), [1, 2, 3, u64::MAX]),
            (
                "batch".into(),
                [0xdead_beef_0bad_f00d, 0, 7, 0x8000_0000_0000_0000],
            ),
        ],
        steps_done: 3,
        losses: vec![2.5, 1.0 / 3.0, 0.1],
        corpus: Some(CorpusPos {
            epoch: 1,
            shard: 2,
            offset: 5,
            accum: Some(AccumState {
                micro_done: 1,
                window_seed: u64::MAX - 5,
                pending: vec![
                    PendingGrad {
                        loss: 0.7,
                        weight: 4.0,
                        grads: vec![
                            (
                                "enc.ff1.w".into(),
                                t(&[0.01, -0.02, 0.03, -0.04, 0.05, 1.0 / 3.0], &[2, 3]),
                            ),
                            ("enc.ff1.b".into(), t(&[1.0, -1.0, 0.5], &[3])),
                        ],
                    },
                    PendingGrad {
                        loss: 1.0 / 9.0,
                        weight: 3.0,
                        grads: vec![("enc.ff1.b".into(), t(&[0.25, 0.0, -0.125], &[3]))],
                    },
                ],
            }),
        }),
    }
}

/// The quant tensors of the `quant-v1` fixture, in file order.
fn quant_tensors(store: &ParamStore) -> Vec<(&'static str, QuantMatrix)> {
    let w = store.value(store.find("enc.ff1.w").unwrap());
    let tied = store.value(store.find("s2s.tok.w").unwrap());
    vec![
        ("s2s.tok.w", QuantMatrix::quantize_rows(tied.data(), 3, 3)),
        (
            "enc.ff1.w",
            QuantMatrix::quantize_transposed(w.data(), 2, 3),
        ),
    ]
}

fn full_checkpoint() -> Vec<u8> {
    let store = params();
    let quant = quant_tensors(&store);
    let named: Vec<(&str, &QuantMatrix)> = quant.iter().map(|(n, q)| (*n, q)).collect();
    encode(&store, Some(&train_state()), Some(&named))
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name),
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Bit-level comparison of decoded checkpoints
// ---------------------------------------------------------------------------

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn tensor_key(name: &str, t: &Tensor) -> (String, Vec<usize>, Vec<u32>) {
    (name.to_string(), t.shape().to_vec(), bits(t.data()))
}

fn named_tensors(ts: &[(String, Tensor)]) -> Vec<(String, Vec<usize>, Vec<u32>)> {
    ts.iter().map(|(n, t)| tensor_key(n, t)).collect()
}

/// Every field of a decoded checkpoint, floats as bits, in a comparable form.
fn fingerprint(c: &Checkpoint) -> String {
    let train = c.train.as_ref().map(|s| {
        let adam = s.adam.as_ref().map(|a| {
            let moments: Vec<_> = a
                .moments
                .iter()
                .map(|(n, m, v)| (tensor_key(n, m), bits(v.data())))
                .collect();
            (a.t, moments)
        });
        let corpus = s.corpus.as_ref().map(|p| {
            let accum = p.accum.as_ref().map(|a| {
                let pending: Vec<_> = a
                    .pending
                    .iter()
                    .map(|g| {
                        (
                            g.loss.to_bits(),
                            g.weight.to_bits(),
                            named_tensors(&g.grads),
                        )
                    })
                    .collect();
                (a.micro_done, a.window_seed, pending)
            });
            (p.epoch, p.shard, p.offset, accum)
        });
        (
            adam,
            s.rng_streams.clone(),
            s.steps_done,
            bits(&s.losses),
            corpus,
        )
    });
    let quant = c.quant.as_ref().map(|q| {
        q.iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.n_out(),
                    m.k(),
                    m.weights().to_vec(),
                    bits(m.scales()),
                )
            })
            .collect::<Vec<_>>()
    });
    format!("{:?}\n{train:?}\n{quant:?}", named_tensors(&c.params))
}

// ---------------------------------------------------------------------------
// Legacy fixtures
// ---------------------------------------------------------------------------

#[test]
fn v1_params_fixture_imports_to_the_container_bits() {
    let legacy = Checkpoint::decode(&fixture("params_v1.json")).unwrap();
    let binary = Checkpoint::decode(&encode(&params(), None, None)).unwrap();
    assert!(legacy.train.is_none() && legacy.quant.is_none());
    assert_eq!(fingerprint(&legacy), fingerprint(&binary));
}

#[test]
fn v2_train_state_fixture_imports_to_the_container_bits() {
    let legacy = Checkpoint::decode(&fixture("train_state_v2.json")).unwrap();
    let binary = Checkpoint::decode(&encode(&params(), Some(&train_state()), None)).unwrap();
    let accum = legacy
        .train
        .as_ref()
        .and_then(|s| s.corpus.as_ref()?.accum.as_ref());
    assert_eq!(accum.map(|a| a.pending.len()), Some(2), "open window lost");
    assert_eq!(fingerprint(&legacy), fingerprint(&binary));
}

#[test]
fn quant_v1_fixture_imports_to_the_container_bits() {
    let legacy = Checkpoint::decode(&fixture("quant_v1.json")).unwrap();
    let store = params();
    let quant = quant_tensors(&store);
    let named: Vec<(&str, &QuantMatrix)> = quant.iter().map(|(n, q)| (*n, q)).collect();
    let binary = Checkpoint::decode(&encode(&store, None, Some(&named))).unwrap();
    assert_eq!(fingerprint(&legacy), fingerprint(&binary));
}

#[test]
fn legacy_files_load_through_the_file_loaders() {
    let dir = std::env::temp_dir().join("rpt-checkpoint-container-legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train_state.json");
    std::fs::write(&path, fixture("train_state_v2.json")).unwrap();
    let mut store = params();
    for (name, _) in params().iter() {
        let id = store.find(name).unwrap();
        let shape = store.value(id).shape().to_vec();
        store.set_value(id, Tensor::zeros(&shape));
    }
    let state = load_train_file(&mut store, &path).unwrap();
    assert_eq!(state.steps_done, 3);
    let mut plain = params();
    load_file(&mut plain, &path).unwrap();
    for ((_, a), (_, b)) in store.iter().zip(params().iter()) {
        assert_eq!(bits(a.data()), bits(b.data()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn container_round_trip_is_bit_exact_for_every_section() {
    let bytes = full_checkpoint();
    let back = Checkpoint::decode(&bytes).unwrap();
    let store = params();
    let quant = quant_tensors(&store);
    let expected = Checkpoint {
        params: store
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect(),
        train: Some(train_state()),
        quant: Some(quant.into_iter().map(|(n, q)| (n.to_string(), q)).collect()),
    };
    assert_eq!(fingerprint(&back), fingerprint(&expected));
    // and re-encoding what was decoded gives the same bytes
    let Checkpoint {
        params,
        train,
        quant,
    } = back;
    let named: Vec<(&str, &QuantMatrix)> = quant
        .iter()
        .flatten()
        .map(|(n, q)| (n.as_str(), q))
        .collect();
    let store = Checkpoint {
        params,
        ..Default::default()
    }
    .into_store();
    assert_eq!(encode(&store, train.as_ref(), Some(&named)), bytes);
}

#[test]
fn truncated_legacy_json_is_a_parse_error() {
    let json = fixture("train_state_v2.json");
    for cut in 1..json.len() {
        match Checkpoint::decode(&json[..cut]) {
            Err(CheckpointError::Parse(_)) => {}
            other => panic!("cut at {cut}: expected a parse error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation suite
// ---------------------------------------------------------------------------

/// Rewrites the trailer so the checksum matches the mutated body.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let n = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// What an error message may allocate regardless of the input size.
const MESSAGE_BYTES: usize = 256;

/// Decodes a mutated container: no panic, no allocation beyond the input
/// (or a fixed-size error message), and — unless `resealed` — always an
/// error.
fn check_mutant(bytes: &[u8], resealed: bool, what: &str) {
    let (result, peak) = decode_measured(bytes);
    assert!(
        peak <= bytes.len().max(MESSAGE_BYTES),
        "{what}: allocated {peak} bytes decoding a {}-byte file",
        bytes.len()
    );
    match result {
        Ok(_) if !resealed => panic!("{what}: a corrupted file decoded"),
        Ok(_) => {}
        Err(
            CheckpointError::Checksum { .. }
            | CheckpointError::Format(_)
            | CheckpointError::Mismatch(_),
        ) => {}
        Err(e) => panic!("{what}: unexpected error kind {e:?}"),
    }
}

#[test]
fn the_valid_checkpoint_decodes_within_its_own_size() {
    let bytes = full_checkpoint();
    let (result, peak) = decode_measured(&bytes);
    result.unwrap();
    assert!(peak <= bytes.len(), "{peak} > {}", bytes.len());
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = full_checkpoint();
    for cut in 0..bytes.len() {
        check_mutant(&bytes[..cut], false, &format!("cut at {cut}"));
    }
}

#[test]
fn every_bit_flip_is_caught_and_resealed_flips_stay_typed() {
    let bytes = full_checkpoint();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[at] ^= 1 << bit;
            check_mutant(&m, false, &format!("flip {at}:{bit}"));
            reseal(&mut m);
            check_mutant(&m, true, &format!("resealed flip {at}:{bit}"));
        }
    }
}

#[test]
fn seeded_random_mutations_are_typed_errors() {
    let bytes = full_checkpoint();
    let mut rng = SmallRng::seed_from_u64(0x5eed_c4c7);
    for i in 0..2000 {
        let mut m = bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..m.len());
            match rng.gen_range(0..5u32) {
                0 => m[at] ^= 1 << rng.gen_range(0..8u32),
                1 => m[at] = rng.gen::<u32>() as u8,
                // a hostile 32-bit length: zero, huge, or random
                2 if at + 4 <= m.len() => {
                    let v = [0, u32::MAX, 1 << 31, rng.gen()][rng.gen_range(0..4usize)];
                    m[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
                3 => {
                    let cut = rng.gen_range(0..m.len());
                    m.truncate(cut.max(1));
                }
                _ => {
                    let b = rng.gen::<u32>() as u8;
                    m.insert(at, b);
                }
            }
        }
        let resealed = rng.gen_bool(0.5);
        if resealed {
            reseal(&mut m);
        }
        if m != bytes {
            check_mutant(&m, resealed, &format!("mutation {i}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Rank bound
// ---------------------------------------------------------------------------

/// A params-only container holding one tensor `w` of shape
/// `[1; MAX_DIMS + 1]` with a single element: a valid encoding of the
/// `[1; MAX_DIMS]` tensor, with one more unit dim spliced into its shape
/// (rank field, dims and section length patched). The trailer is left as
/// the original file's, so the file is raw until resealed.
fn over_rank_container() -> Vec<u8> {
    let mut store = ParamStore::new();
    store.register("w", t(&[0.5], &[1; MAX_DIMS]));
    let mut bytes = encode(&store, None, None);
    // magic · version · tag · section length · count · name ("w") · rank
    let (len_at, rank_at) = (8 + 4 + 4, 8 + 4 + 4 + 8 + 4 + 4 + 1);
    assert_eq!(bytes[rank_at..rank_at + 4], (MAX_DIMS as u32).to_le_bytes());
    bytes[rank_at..rank_at + 4].copy_from_slice(&(MAX_DIMS as u32 + 1).to_le_bytes());
    bytes.splice(rank_at + 4..rank_at + 4, 1u64.to_le_bytes());
    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) + 8;
    bytes[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    bytes
}

#[test]
fn a_shape_above_max_dims_is_a_typed_error_raw_and_resealed() {
    let mut bytes = over_rank_container();
    check_mutant(&bytes, false, "raw rank-4 shape");
    reseal(&mut bytes);
    match Checkpoint::decode(&bytes) {
        Err(CheckpointError::Format(m)) => assert!(m.contains("rank"), "{m}"),
        other => panic!("resealed rank-{} shape: {other:?}", MAX_DIMS + 1),
    }
    let dims = ["1"; MAX_DIMS + 1].join(",");
    let json = format!(
        r#"{{"format_version":1,"params":[{{"name":"w","shape":[{dims}],"data":[0.5]}}]}}"#
    );
    match Checkpoint::decode(json.as_bytes()) {
        Err(CheckpointError::Format(m)) => assert!(m.contains("rank"), "{m}"),
        other => panic!("legacy rank-{} shape: {other:?}", MAX_DIMS + 1),
    }
    assert!(Tensor::from_vec(vec![0.5], &[1; MAX_DIMS + 1]).is_err());
}
