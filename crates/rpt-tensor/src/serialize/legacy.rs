//! Import of the JSON checkpoints earlier builds wrote, so they keep
//! loading: format_version 1 (params only), format_version 2 (params plus
//! a `"train"` object) and `quant-v1` (params plus a `"quant"` object).
//!
//! ```text
//! {"format_version":1|2,
//!  "params":[{"name":...,"shape":[...],"data":[...]}],
//!  "train":{"adam":{"t":..,"moments":[{"name","shape","m","v"}]}|null,
//!           "rng":[{"name":..,"state":["0x..";4]}],
//!           "steps_done":..,"losses":[...],
//!           "corpus":{"epoch","shard","offset",
//!                     "accum":{"micro_done","window_seed":"0x..",
//!                              "pending":[{"loss","weight","grads":[...]}]}|null}|null},
//!  "quant":{"format":"quant-v1",
//!           "tensors":[{"name","n_out","k","scales":[...],"data":[i8...]}]}}
//! ```
//!
//! The importer yields the same [`Checkpoint`] the binary reader does, so
//! every loader treats both alike. Nothing writes this format any more.

use rpt_json::Json;

use super::{
    check_rank, checked_numel, structure, validate_quant, AccumState, AdamState, Checkpoint,
    CheckpointError, CorpusPos, PendingGrad, TrainState,
};
use crate::quant::QuantMatrix;
use crate::tensor::Tensor;

/// The largest JSON checkpoint the importer parses. Every f32 becomes a
/// JSON node several times its size, so an unbounded file could exhaust
/// memory before any structural check runs; the biggest checkpoint
/// earlier builds wrote (d256 with its `quant-v1` section) is well below.
pub const MAX_LEGACY_BYTES: usize = 256 << 20;

/// Identifier of the only quantized-section layout JSON files carried.
const QUANT_FORMAT: &str = "quant-v1";

/// Parses a legacy JSON checkpoint.
pub(super) fn import(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    check_len(bytes.len())?;
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CheckpointError::Format(format!("JSON checkpoint is not UTF-8: {e}")))?;
    let doc = Json::parse(text)?;
    doc.get("format_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| structure("missing format_version"))?;
    let params = doc
        .get("params")
        .and_then(Json::as_array)
        .ok_or_else(|| structure("missing params array"))?
        .iter()
        .map(|record| {
            let name = name_of(record, "param record")?;
            let t = tensor(record, name, "data")?;
            Ok((name.to_string(), t))
        })
        .collect::<Result<_, CheckpointError>>()?;
    let train = doc.get("train").map(parse_train).transpose()?;
    let quant = doc.get("quant").map(parse_quant).transpose()?;
    Ok(Checkpoint {
        params,
        train,
        quant,
    })
}

/// Refuses files above [`MAX_LEGACY_BYTES`].
pub(super) fn check_len(len: usize) -> Result<(), CheckpointError> {
    if len > MAX_LEGACY_BYTES {
        return Err(CheckpointError::TooLarge {
            len: len as u64,
            limit: MAX_LEGACY_BYTES as u64,
        });
    }
    Ok(())
}

fn name_of<'a>(record: &'a Json, what: &str) -> Result<&'a str, CheckpointError> {
    record
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| structure(format!("{what} without name")))
}

fn u64_field(doc: &Json, key: &str, what: &str) -> Result<u64, CheckpointError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| structure(format!("{what} without {key}")))
}

fn hex_word(w: &Json) -> Option<u64> {
    u64::from_str_radix(w.as_str()?.strip_prefix("0x")?, 16).ok()
}

fn array<'a>(doc: &'a Json, key: &str, what: &str) -> Result<&'a [Json], CheckpointError> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| structure(format!("{what} without {key} array")))
}

fn parse_shape(record: &Json, name: &str) -> Result<Vec<usize>, CheckpointError> {
    let dims = record
        .get("shape")
        .and_then(Json::as_array)
        .ok_or_else(|| structure(format!("{name} without shape")))?;
    check_rank(dims.len())?;
    dims.iter()
        .map(|d| d.as_u64().map(|d| d as usize))
        .collect::<Option<_>>()
        .ok_or_else(|| structure(format!("{name} has a non-integer shape")))
}

fn parse_floats(record: &Json, name: &str, key: &str) -> Result<Vec<f32>, CheckpointError> {
    record
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| structure(format!("{name} without {key}")))?
        .iter()
        .map(|x| x.as_f64().map(|x| x as f32))
        .collect::<Option<_>>()
        .ok_or_else(|| structure(format!("{name} has non-numeric {key}")))
}

/// The `key` array of `record` as a tensor shaped by its `"shape"`.
fn tensor(record: &Json, name: &str, key: &str) -> Result<Tensor, CheckpointError> {
    let shape = parse_shape(record, name)?;
    checked_numel(&shape).ok_or_else(|| structure(format!("{name}: shape {shape:?} overflows")))?;
    let data = parse_floats(record, name, key)?;
    Tensor::from_vec(data, &shape).map_err(|e| structure(format!("{name} {key}: {e}")))
}

fn parse_train(train: &Json) -> Result<TrainState, CheckpointError> {
    let adam = match train.get("adam") {
        None | Some(Json::Null) => None,
        Some(a) => Some(AdamState {
            t: u64_field(a, "t", "adam state")?,
            moments: array(a, "moments", "adam state")?
                .iter()
                .map(|record| {
                    let name = name_of(record, "adam moment record")?;
                    Ok((
                        name.to_string(),
                        tensor(record, name, "m")?,
                        tensor(record, name, "v")?,
                    ))
                })
                .collect::<Result<_, CheckpointError>>()?,
        }),
    };
    let rng_streams = match train.get("rng") {
        None => Vec::new(),
        Some(r) => r
            .as_array()
            .ok_or_else(|| structure("train.rng is not an array"))?
            .iter()
            .map(parse_rng_stream)
            .collect::<Result<_, CheckpointError>>()?,
    };
    let steps_done = u64_field(train, "steps_done", "train state")?;
    let losses = parse_floats(train, "train state", "losses")?;
    let corpus = match train.get("corpus") {
        None | Some(Json::Null) => None,
        Some(c) => Some(parse_corpus_pos(c)?),
    };
    Ok(TrainState {
        adam,
        rng_streams,
        steps_done,
        losses,
        corpus,
    })
}

fn parse_rng_stream(record: &Json) -> Result<(String, [u64; 4]), CheckpointError> {
    let name = name_of(record, "rng stream")?;
    let words = array(record, "state", &format!("rng stream {name}"))?;
    if words.len() != 4 {
        return Err(structure(format!(
            "rng stream {name} has {} state words, expected 4",
            words.len()
        )));
    }
    let mut state = [0u64; 4];
    for (slot, w) in state.iter_mut().zip(words) {
        *slot = hex_word(w)
            .ok_or_else(|| structure(format!("rng stream {name} has a malformed word")))?;
    }
    Ok((name.to_string(), state))
}

fn parse_corpus_pos(doc: &Json) -> Result<CorpusPos, CheckpointError> {
    let accum = match doc.get("accum") {
        None | Some(Json::Null) => None,
        Some(a) => Some(AccumState {
            micro_done: u64_field(a, "micro_done", "accum state")?,
            window_seed: a
                .get("window_seed")
                .and_then(hex_word)
                .ok_or_else(|| structure("accum state without hex window_seed"))?,
            pending: array(a, "pending", "accum state")?
                .iter()
                .map(parse_pending)
                .collect::<Result<_, CheckpointError>>()?,
        }),
    };
    Ok(CorpusPos {
        epoch: u64_field(doc, "epoch", "corpus position")?,
        shard: u64_field(doc, "shard", "corpus position")?,
        offset: u64_field(doc, "offset", "corpus position")?,
        accum,
    })
}

fn parse_pending(record: &Json) -> Result<PendingGrad, CheckpointError> {
    let scalar = |key: &str| {
        record
            .get(key)
            .and_then(Json::as_f64)
            .map(|x| x as f32)
            .ok_or_else(|| structure(format!("pending gradient without {key}")))
    };
    Ok(PendingGrad {
        loss: scalar("loss")?,
        weight: scalar("weight")?,
        grads: array(record, "grads", "pending gradient")?
            .iter()
            .map(|g| {
                let name = name_of(g, "pending gradient record")?;
                Ok((name.to_string(), tensor(g, name, "data")?))
            })
            .collect::<Result<_, CheckpointError>>()?,
    })
}

fn parse_quant(quant: &Json) -> Result<Vec<(String, QuantMatrix)>, CheckpointError> {
    let format = quant
        .get("format")
        .and_then(Json::as_str)
        .ok_or_else(|| structure("quant section without format"))?;
    if format != QUANT_FORMAT {
        return Err(structure(format!(
            "unsupported quant format {format:?} (this build reads {QUANT_FORMAT:?})"
        )));
    }
    array(quant, "tensors", "quant section")?
        .iter()
        .map(|record| {
            let name = name_of(record, "quant tensor")?;
            let dim = |key| u64_field(record, key, &format!("quant tensor {name}"));
            let (n_out, k) = (dim("n_out")?, dim("k")?);
            let scales = parse_floats(record, name, "scales")?;
            let data: Vec<i8> = array(record, "data", &format!("quant tensor {name}"))?
                .iter()
                .map(|x| x.as_i64().and_then(|v| i8::try_from(v).ok()))
                .collect::<Option<_>>()
                .ok_or_else(|| structure(format!("quant tensor {name} has non-i8 data")))?;
            let qm = validate_quant(name, n_out, k, data, scales)?;
            Ok((name.to_string(), qm))
        })
        .collect()
}
